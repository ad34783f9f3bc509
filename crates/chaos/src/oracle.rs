//! The containment-audit oracle.
//!
//! DESIGN.md §6 states the paper's safety claims as seven testable
//! invariants. The oracle checks them against a live kernel after every
//! campaign step (the cheap, structural forms) and with dedicated
//! behavioural probes at intervals (the forms that need their own guest
//! workload). A violated invariant is a [`Violation`] — the campaign
//! treats any violation as a failed audit.
//!
//! The seven invariants:
//!
//! 1. an SPL 3 extension can never read/write a PPL 0 page;
//! 2. an SPL 1 kernel extension can never touch kernel memory outside
//!    its segment limit;
//! 3. an SPL 2 application can never touch the 3–4 GB kernel range;
//! 4. call gates / the GOT cannot be modified from SPL 3;
//! 5. syscalls from SPL 3 extension code of an SPL 2 task are rejected;
//! 6. fork inherits SPL/PPL state, exec resets it;
//! 7. runaway extensions are aborted by the timer limit.
//!
//! An eighth *recovery* invariant rides along since the supervisor was
//! added: reclaiming or restarting an extension segment must leave the
//! kernel's resource ledgers balanced — no leaked pages, descriptors or
//! EFT entries ([`check_recovery`] wraps the kernel-side audit).
//!
//! A ninth *durability* invariant arrived with durable checkpoints: a
//! tampered world image is always rejected with a typed restore error —
//! never silently restored, never a host panic
//! ([`probe_checkpoint_rejection`] drives every corruption class from
//! [`crate::corrupt`] against a valid image), and an image from a
//! hostile writer, under a valid trailer, restores or fails with a
//! typed error ([`probe_hostile_restore`]).

use std::collections::BTreeMap;

use asm86::Assembler;
use minikernel::layout::sys;
use minikernel::{Budget, Kernel, Outcome, USER_TEXT};
use palladium::kernel_ext::{KernelExtensions, KextError, SegmentConfig};
use palladium::user_ext::{DlopenOptions, ExtensibleApp};
use seedrng::SeedRng;
use x86sim::desc::Descriptor;
use x86sim::image::{self, Dec, Enc, ImageView, RestoreError};
use x86sim::paging::{get_pte, pte};

use crate::corrupt::{self, ImageCorruption};
use crate::gen;

/// One containment-invariant violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which §6 invariant was violated (stable short name).
    pub invariant: &'static str,
    /// What the oracle observed.
    pub detail: String,
}

impl core::fmt::Display for Violation {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "[{}] {}", self.invariant, self.detail)
    }
}

/// Structural state watched across every step of a campaign episode.
///
/// `Clone` lets an oracle captured on a template world travel with each
/// fork: the watched baseline (text snapshot, canary, descriptors, GOT
/// pages) is identical in the forked world by construction.
#[derive(Debug, Clone)]
pub struct StateOracle {
    /// Snapshot of the application's image page (PPL 0): invariant 1.
    text_snapshot: Vec<u8>,
    /// Canary in kernel memory outside every extension segment:
    /// invariant 2.
    canary_addr: u32,
    canary_value: u32,
    /// GDT entries that must never change behind the kernel's back
    /// (boot selectors and registered call gates): invariants 3 and 4.
    watched_descriptors: Vec<(u16, Descriptor)>,
    /// GOT pages whose PTEs must stay read-only and user-visible:
    /// invariant 4.
    got_pages: Vec<u32>,
}

impl StateOracle {
    /// Captures the invariants' baseline from a freshly set-up world.
    /// `canary_addr` must hold `canary_value` in kernel memory outside
    /// every extension segment.
    pub fn new(k: &Kernel, canary_addr: u32, canary_value: u32) -> StateOracle {
        let mut watched = Vec::new();
        for sel in [
            k.sel.kcode,
            k.sel.kdata,
            k.sel.ucode,
            k.sel.udata,
            k.sel.ucode2,
            k.sel.udata2,
        ] {
            if let Some(d) = k.m.gdt.get(sel.index()).copied() {
                watched.push((sel.index(), d));
            }
        }
        StateOracle {
            text_snapshot: k.m.host_read(USER_TEXT, 4096),
            canary_addr,
            canary_value,
            watched_descriptors: watched,
            got_pages: Vec::new(),
        }
    }

    /// Address of the watched kernel canary word (outside every
    /// extension segment). Exposed so chaos hooks — e.g. the fleet
    /// driver's fail-closed drill — can corrupt exactly what the oracle
    /// watches.
    pub fn canary_addr(&self) -> u32 {
        self.canary_addr
    }

    /// Adds a GDT entry (e.g. a freshly created call gate) to the
    /// immutability watch list.
    pub fn watch_descriptor(&mut self, k: &Kernel, index: u16) {
        if let Some(d) = k.m.gdt.get(index).copied() {
            self.watched_descriptors.push((index, d));
        }
    }

    /// Adds a sealed GOT page to the watch list.
    pub fn watch_got_page(&mut self, page: u32) {
        self.got_pages.push(page);
    }

    /// Serializes the watched baseline into `e`, so a checkpointed world
    /// carries its containment oracle with it: the restored oracle
    /// watches exactly the snapshot, canary, descriptors and GOT pages
    /// the original did.
    pub fn save_into(&self, e: &mut Enc) {
        e.blob(&self.text_snapshot);
        e.u32(self.canary_addr);
        e.u32(self.canary_value);
        e.u32(self.watched_descriptors.len() as u32);
        for (idx, d) in &self.watched_descriptors {
            e.u16(*idx);
            image::put_descriptor(e, d);
        }
        e.u32(self.got_pages.len() as u32);
        for p in &self.got_pages {
            e.u32(*p);
        }
    }

    /// Rebuilds an oracle from [`save_into`](Self::save_into) bytes.
    pub fn restore_from(d: &mut Dec) -> Result<StateOracle, RestoreError> {
        let text_snapshot = d.blob()?.to_vec();
        let canary_addr = d.u32()?;
        let canary_value = d.u32()?;
        let n = d.count(3)?;
        let mut watched_descriptors = Vec::with_capacity(n);
        for _ in 0..n {
            let idx = d.u16()?;
            let desc = image::get_descriptor(d)?;
            watched_descriptors.push((idx, desc));
        }
        let n = d.count(4)?;
        let mut got_pages = Vec::with_capacity(n);
        for _ in 0..n {
            got_pages.push(d.u32()?);
        }
        Ok(StateOracle {
            text_snapshot,
            canary_addr,
            canary_value,
            watched_descriptors,
            got_pages,
        })
    }

    /// Runs every structural check. `cr3` is the extensible
    /// application's address space (for page-table inspection).
    pub fn check(&self, k: &Kernel, cr3: u32) -> Vec<Violation> {
        let mut v = Vec::new();

        // Invariant 1: the application image (PPL 0) is untouched.
        if k.m.host_read(USER_TEXT, 4096) != self.text_snapshot {
            v.push(Violation {
                invariant: "ppl0-unreachable",
                detail: format!("application image at {USER_TEXT:#010x} was modified"),
            });
        }
        // ... and still supervisor-at-page-level protection: the image
        // PTE must remain PPL 0 (U/S clear).
        match get_pte(&k.m.mem, cr3, USER_TEXT) {
            Some(p) if p & pte::US != 0 => v.push(Violation {
                invariant: "ppl0-unreachable",
                detail: format!("image PTE became user-accessible: {p:#x}"),
            }),
            None => v.push(Violation {
                invariant: "ppl0-unreachable",
                detail: "image PTE vanished".into(),
            }),
            _ => {}
        }

        // Invariant 2: kernel memory outside every segment is intact.
        let got = k.m.host_read_u32(self.canary_addr);
        if got != self.canary_value {
            v.push(Violation {
                invariant: "spl1-confined",
                detail: format!(
                    "kernel canary at {:#010x}: {got:#x} != {:#x}",
                    self.canary_addr, self.canary_value
                ),
            });
        }

        // Invariants 3 and 4 (structural half): the boot descriptors —
        // including the SPL 2 selectors whose limit walls off the 3-4 GB
        // range — and every registered call gate are unchanged.
        for (idx, want) in &self.watched_descriptors {
            let now = k.m.gdt.get(*idx).copied();
            if now != Some(*want) {
                v.push(Violation {
                    invariant: "descriptors-immutable",
                    detail: format!("GDT[{idx}] changed: {want:?} -> {now:?}"),
                });
            }
        }

        // Invariant 4 (GOT half): sealed GOT pages stay read-only and
        // extension-visible.
        for &page in &self.got_pages {
            match get_pte(&k.m.mem, cr3, page) {
                Some(p) => {
                    if p & pte::RW != 0 {
                        v.push(Violation {
                            invariant: "got-sealed",
                            detail: format!("GOT page {page:#010x} became writable: {p:#x}"),
                        });
                    }
                    if p & pte::US == 0 {
                        v.push(Violation {
                            invariant: "got-sealed",
                            detail: format!("GOT page {page:#010x} lost U/S: {p:#x}"),
                        });
                    }
                }
                None => v.push(Violation {
                    invariant: "got-sealed",
                    detail: format!("GOT page {page:#010x} unmapped"),
                }),
            }
        }
        v
    }
}

/// Recovery invariant: the kernel's per-segment resource ledgers are
/// balanced — every reclaimed segment's pages are unmapped and back on
/// the free list, pooled descriptors are not-present, and every live
/// segment's ledger matches what the kernel actually holds for it.
pub fn check_recovery(k: &Kernel, kx: &KernelExtensions) -> Vec<Violation> {
    match kx.assert_no_leaks(k) {
        Ok(()) => Vec::new(),
        Err(detail) => vec![Violation {
            invariant: "resources-reclaimed",
            detail,
        }],
    }
}

fn asm(src: &str) -> asm86::Object {
    Assembler::assemble(src).expect("oracle probe assembles")
}

/// Invariant 6 probe: fork inherits SPL/PPL state; exec resets it.
pub fn probe_fork_exec() -> Result<(), Violation> {
    let fail = |detail: String| Violation {
        invariant: "fork-exec-spl",
        detail,
    };
    let mut k = Kernel::boot();
    let parent = k
        .spawn(
            &asm(&format!(
                "_start:\n\
                 mov eax, {init_pl}\n\
                 int 0x80\n\
                 mov eax, {fork}\n\
                 int 0x80\n\
                 mov ebx, eax\n\
                 mov eax, {exit}\n\
                 int 0x80\n",
                init_pl = sys::INIT_PL,
                fork = sys::FORK,
                exit = sys::EXIT,
            )),
            &BTreeMap::new(),
        )
        .map_err(|e| fail(format!("spawn failed: {e}")))?;
    k.switch_to(parent);
    let child = match k.run_current(Budget::Insns(1_000_000)) {
        Outcome::Exited(code) if code > 0 => code as u32,
        other => return Err(fail(format!("parent did not fork+exit: {other:?}"))),
    };
    if k.task(child).task_spl != 2 {
        return Err(fail(format!(
            "fork did not inherit taskSPL=2 (got {})",
            k.task(child).task_spl
        )));
    }
    let p = get_pte(&k.m.mem, k.task(child).cr3, USER_TEXT)
        .ok_or_else(|| fail("child image unmapped".into()))?;
    if p & pte::US != 0 {
        return Err(fail("fork did not copy PPL 0 marking of the image".into()));
    }

    // exec resets: run the child to completion, then exec a fresh image
    // over it and check the privilege state went back to SPL 3.
    k.switch_to(child);
    let _ = k.run_current(Budget::Insns(1_000_000));
    let t2 = k
        .spawn(
            &asm(&format!(
                "_start:\nmov eax, {init_pl}\nint 0x80\nmov eax, 99\nint 0x80\njmp _start\n",
                init_pl = sys::INIT_PL
            )),
            &BTreeMap::new(),
        )
        .map_err(|e| fail(format!("spawn failed: {e}")))?;
    k.switch_to(t2);
    let _ = k.run_current(Budget::Insns(8));
    if k.task(t2).task_spl != 2 {
        return Err(fail("init_PL did not promote to SPL 2".into()));
    }
    let fresh = asm(&format!(
        "_start:\nmov eax, {exit}\nmov ebx, 42\nint 0x80\n",
        exit = sys::EXIT
    ));
    k.exec_current(&fresh, &BTreeMap::new())
        .map_err(|e| fail(format!("exec failed: {e}")))?;
    if k.task(t2).task_spl != 3 {
        return Err(fail(format!(
            "exec did not reset taskSPL to 3 (got {})",
            k.task(t2).task_spl
        )));
    }
    match k.run_current(Budget::Insns(1_000_000)) {
        Outcome::Exited(42) => Ok(()),
        other => Err(fail(format!("exec'd image misbehaved: {other:?}"))),
    }
}

/// Invariant 5 probe: a direct `int 0x80` from SPL 3 extension code of
/// a promoted task is rejected (−EPERM), and the application survives.
pub fn probe_syscall_rejection() -> Result<(), Violation> {
    let fail = |detail: String| Violation {
        invariant: "syscall-rejected",
        detail,
    };
    let mut k = Kernel::boot();
    let mut app = ExtensibleApp::new(&mut k).map_err(|e| fail(format!("setup: {e}")))?;
    // The extension tries to exit(7) the whole task via a raw syscall.
    let h = app
        .dlopen(
            &mut k,
            &asm(&format!(
                "entry:\nmov eax, {exit}\nmov ebx, 7\nint 0x80\nmov eax, 1\nret\n",
                exit = sys::EXIT
            )),
            &DlopenOptions::new(),
        )
        .map_err(|e| fail(format!("dlopen: {e}")))?;
    let f = app
        .seg_dlsym(&mut k, h, "entry")
        .map_err(|e| fail(format!("dlsym: {e}")))?;
    let rejected_before = k.stats.syscalls_rejected;
    let r = app.call_extension(&mut k, f, 0);
    if k.stats.syscalls_rejected <= rejected_before {
        return Err(fail(format!(
            "raw syscall from SPL 3 was not rejected (result {r:?})"
        )));
    }
    // The call itself returns normally (the extension survives its
    // -EPERM and falls through to ret) — and the app can still work.
    let h2 = app
        .dlopen(&mut k, &gen::benign_object(55), &DlopenOptions::new())
        .map_err(|e| fail(format!("post dlopen: {e}")))?;
    let ok = app
        .seg_dlsym(&mut k, h2, "entry")
        .map_err(|e| fail(format!("post dlsym: {e}")))?;
    match app.call_extension(&mut k, ok, 0) {
        Ok(55) => Ok(()),
        other => Err(fail(format!(
            "application damaged after rejection: {other:?}"
        ))),
    }
}

/// Invariant 7 probe: a runaway kernel extension is aborted by the
/// CPU-time limit, within a bounded number of cycles.
pub fn probe_timer_abort(cycle_limit: u64) -> Result<(), Violation> {
    let fail = |detail: String| Violation {
        invariant: "timer-abort",
        detail,
    };
    let mut k = Kernel::boot();
    k.extension_cycle_limit = cycle_limit;
    let mut kx = KernelExtensions::new(&mut k).map_err(|e| fail(format!("setup: {e}")))?;
    let seg = kx
        .create_segment_with(
            &mut k,
            8,
            SegmentConfig {
                quarantine_threshold: 1,
                ..SegmentConfig::default()
            },
        )
        .map_err(|e| fail(format!("segment: {e}")))?;
    kx.insmod(&mut k, seg, "spin", &asm("spin:\njmp spin\n"), &["spin"])
        .map_err(|e| fail(format!("insmod: {e}")))?;
    let before = k.m.cycles();
    match kx.invoke(&mut k, seg, "spin", 0) {
        Err(KextError::TimeLimit) => {}
        other => return Err(fail(format!("runaway not aborted by timer: {other:?}"))),
    }
    let spent = k.m.cycles() - before;
    // The abort must land near the limit (limit + dispatch/abort slack).
    if spent > cycle_limit + 50_000 {
        return Err(fail(format!(
            "abort took {spent} cycles against a limit of {cycle_limit}"
        )));
    }
    if !kx.segment(seg).quarantined {
        return Err(fail("threshold-1 runaway was not quarantined".into()));
    }
    Ok(())
}

/// Restore-gate probe: `trials` seeded
/// [`corrupt::hostile_writer_image`] rewrites of the kernel image
/// `image`, each fed to [`Kernel::restore_image`]. The image may restore
/// (`Ok`) or fail with a typed error; a host panic is a violation.
pub fn probe_hostile_restore(image: &[u8], trials: u32, r: &mut SeedRng) -> Vec<Violation> {
    let mut v = Vec::new();
    for _ in 0..trials {
        let (id, at, value, bad) =
            corrupt::hostile_writer_image(image, x86sim::image::kind::KERNEL, r);
        if std::panic::catch_unwind(|| Kernel::restore_image(&bad).map(drop)).is_err() {
            v.push(Violation {
                invariant: "checkpoint-restores",
                detail: format!(
                    "hostile writer {value:#x} at section {id:#x} offset {at} panicked restore"
                ),
            });
        }
    }
    v
}

/// Durability invariant probe: every corruption class applied to a valid
/// checkpoint image must be rejected by the parser with a typed
/// [`RestoreError`] — a tampered image is never silently restored, and
/// the rejection is never a host panic.
///
/// `expected_kind` is the image's kind word (machine / kernel / session /
/// replica); `trials` corruptions are drawn per class from `r`.
pub fn probe_checkpoint_rejection(
    image: &[u8],
    expected_kind: u32,
    trials: u32,
    r: &mut SeedRng,
) -> Vec<Violation> {
    let mut v = Vec::new();
    if ImageView::parse(image, expected_kind).is_err() {
        v.push(Violation {
            invariant: "checkpoint-rejected",
            detail: "baseline image failed to parse; probe is vacuous".into(),
        });
        return v;
    }
    for kind in ImageCorruption::ALL {
        for t in 0..trials.max(1) {
            let bad = corrupt::corrupt_image(image, kind, r);
            match ImageView::parse(&bad, expected_kind) {
                Err(_) => {}
                Ok(_) => v.push(Violation {
                    invariant: "checkpoint-rejected",
                    detail: format!(
                        "corruption {} (trial {t}) was silently accepted by the parser",
                        kind.tag()
                    ),
                }),
            }
        }
    }
    v
}
