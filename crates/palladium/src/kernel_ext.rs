//! The kernel-level extension mechanism (§4.3).
//!
//! Each *extension segment* is a sub-range of the kernel address space
//! (3–4 GB) with its own code and data descriptors at **SPL 1**: the
//! kernel (SPL 0) can touch everything in it, but the extension is
//! confined by the segment limit and SPL checks — any reference outside
//! the segment raises #GP, on which the kernel aborts the extension
//! (1,020 cycles in the paper's measurement).
//!
//! Loaded modules register entry points in the kernel's **Extension
//! Function Table**; a shared data area (the well-known `shared_area`
//! symbol) passes bulk arguments without copying. Extensions reach a
//! whitelisted set of core kernel services through the `int 0x81`
//! syscall-like interface. Both synchronous calls and the paper's
//! primitive asynchronous request queue are supported, under the
//! CPU-time limit of §4.5.2.

use std::collections::{BTreeMap, VecDeque};

use asm86::encode::encode_program;
use asm86::isa::Reg;
use asm86::Object;
use minikernel::layout::{KERNEL_VA_START, KSERVICE_VECTOR};
use minikernel::{Kernel, SpawnError};
use x86sim::desc::{Descriptor, Selector};
use x86sim::fault::Fault;
use x86sim::image::{Dec, Enc, RestoreError};
use x86sim::machine::Exit;
use x86sim::mem::PAGE_SIZE;

use verifier::{verify_image, ProofMap, VerifyPolicy};

use crate::checkpoint as ckpt;
use crate::supervisor::{LedgerEntry, ReclaimRecord, ResourceLedger};
use crate::trampoline::{self, SaveSlots, TransferParams};

/// Identifies one extension segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExtSegmentId(usize);

impl ExtSegmentId {
    /// Positional index into the segment table — the checkpoint identity
    /// of the segment. Stable across save/restore because segments are
    /// serialized in table order.
    pub fn index(self) -> usize {
        self.0
    }

    /// Rebuilds an id from a checkpointed positional index.
    pub fn from_index(index: usize) -> ExtSegmentId {
        ExtSegmentId(index)
    }
}

/// Errors from the kernel extension mechanism.
#[derive(Debug, Clone, PartialEq)]
pub enum KextError {
    /// Out of kernel memory / segment space.
    OutOfMemory,
    /// Module failed to link.
    Link(String),
    /// The module failed load-time static verification
    /// ([`SegmentConfig::verify`]); nothing was loaded.
    Verify(verifier::VerifyError),
    /// No extension service registered under that name (§4.3: "If the
    /// required extension service has not yet been instantiated, no
    /// action is taken").
    NoSuchFunction(String),
    /// The extension faulted and was aborted.
    Aborted(Fault),
    /// The extension exceeded its CPU-time limit and was aborted.
    TimeLimit,
    /// The segment was marked dead by an earlier abort.
    SegmentDead,
    /// The segment accumulated too many faults and was automatically
    /// quarantined: its modules were unloaded, its descriptors revoked
    /// and its Extension Function Table tombstoned.
    Quarantined {
        /// Fault count at the time of quarantine.
        strikes: u32,
    },
}

impl core::fmt::Display for KextError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            KextError::OutOfMemory => write!(f, "out of extension segment space"),
            KextError::Link(e) => write!(f, "module link error: {e}"),
            KextError::Verify(e) => write!(f, "module rejected by the verifier: {e}"),
            KextError::NoSuchFunction(n) => write!(f, "no extension function `{n}`"),
            KextError::Aborted(fault) => write!(f, "extension aborted: {fault}"),
            KextError::TimeLimit => write!(f, "extension exceeded its CPU-time limit"),
            KextError::SegmentDead => write!(f, "extension segment was aborted earlier"),
            KextError::Quarantined { strikes } => {
                write!(f, "extension segment quarantined after {strikes} faults")
            }
        }
    }
}

impl std::error::Error for KextError {}

impl From<SpawnError> for KextError {
    fn from(_: SpawnError) -> KextError {
        KextError::OutOfMemory
    }
}

/// Kernel services exposed to extensions over `int 0x81` (the paper's
/// syscall-like interface, §4.3 — "designed specifically for a
/// programmable network router"). Service number in `eax`.
pub mod kservice {
    /// `log(offset, len)`: append bytes from the extension segment to the
    /// kernel console.
    pub const LOG: u32 = 0;
    /// `cycles()`: current cycle counter (low 32 bits).
    pub const CYCLES: u32 = 1;
    /// `shared_size()`: size of this segment's shared data area.
    pub const SHARED_SIZE: u32 = 2;
}

/// A pending asynchronous request.
#[derive(Debug, Clone)]
pub struct AsyncRequest {
    /// Extension function name.
    pub func: String,
    /// 4-byte argument.
    pub arg: u32,
}

/// Per-segment configuration, fixed at [`KernelExtensions::create_segment_with`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentConfig {
    /// Faults the segment may accumulate before it is automatically
    /// quarantined (the generalization of the mobile-code host's
    /// three-strikes rule). Routers and other fail-closed users lower it
    /// to 1 to restore abort-once semantics.
    pub quarantine_threshold: u32,
    /// Draw the segment's two GDT slots from the pool of slots reclaimed
    /// from destroyed segments, instead of growing the table.
    ///
    /// Off by default: a fresh slot guarantees that a selector cached
    /// before an unrelated segment was destroyed keeps raising #NP. The
    /// supervisor turns it on for restart cycles, where it owns every
    /// selector to the dead segment and bounded GDT growth is the
    /// invariant under audit.
    pub recycle_descriptors: bool,
    /// Statically verify every module at `insmod` time (the `verifier`
    /// crate): privileged-instruction scan, interval analysis of memory
    /// addresses against the segment limit, and control-transfer
    /// validation. A rejected module surfaces as [`KextError::Verify`]
    /// and nothing is loaded.
    ///
    /// Off by default — verification is an *admission* policy; hardware
    /// containment does not depend on it (the chaos campaigns load
    /// deliberately hostile modules with this off).
    pub verify: bool,
    /// The `Verified` attestation of the most recently admitted module,
    /// set by `insmod` when [`verify`](Self::verify) is on. Its block
    /// proofs become simulator proof tokens; dispatch is unchanged.
    pub verified: Option<verifier::Attestation>,
}

impl Default for SegmentConfig {
    fn default() -> SegmentConfig {
        SegmentConfig {
            quarantine_threshold: 3,
            recycle_descriptors: false,
            verify: false,
            verified: None,
        }
    }
}

impl SegmentConfig {
    /// A fluent builder over the default configuration:
    ///
    /// ```
    /// use palladium::SegmentConfig;
    ///
    /// let config = SegmentConfig::builder()
    ///     .verify(true)
    ///     .quarantine_threshold(1) // routers: fail closed on first fault
    ///     .build();
    /// assert!(config.verify);
    /// ```
    pub fn builder() -> SegmentConfigBuilder {
        SegmentConfigBuilder {
            config: SegmentConfig::default(),
        }
    }
}

/// Builder for [`SegmentConfig`] ([`SegmentConfig::builder`]).
///
/// The built configuration always starts from the defaults; `verified`
/// is deliberately absent — attestations are produced by `insmod`, not
/// supplied by callers.
#[derive(Debug, Clone)]
pub struct SegmentConfigBuilder {
    config: SegmentConfig,
}

impl SegmentConfigBuilder {
    /// Sets [`SegmentConfig::quarantine_threshold`].
    pub fn quarantine_threshold(mut self, threshold: u32) -> SegmentConfigBuilder {
        self.config.quarantine_threshold = threshold;
        self
    }

    /// Sets [`SegmentConfig::recycle_descriptors`].
    pub fn recycle_descriptors(mut self, recycle: bool) -> SegmentConfigBuilder {
        self.config.recycle_descriptors = recycle;
        self
    }

    /// Sets [`SegmentConfig::verify`].
    pub fn verify(mut self, verify: bool) -> SegmentConfigBuilder {
        self.config.verify = verify;
        self
    }

    /// Finishes the configuration.
    pub fn build(self) -> SegmentConfig {
        self.config
    }
}

/// Why a name is absent from the Extension Function Table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tombstone {
    /// Module that owned the entry when it was unloaded or died.
    pub module: Option<String>,
    /// True when planted by quarantine or destruction rather than a
    /// clean `rmmod` — a faulted tombstone is never silently cleared.
    pub faulted: bool,
}

/// One extension segment (Figure 3).
#[derive(Debug, Clone)]
pub struct ExtSegment {
    /// Linear base inside the kernel range.
    pub base: u32,
    /// Segment size in bytes.
    pub size: u32,
    /// SPL 1 code selector.
    pub code_sel: Selector,
    /// SPL 1 data/stack selector.
    pub data_sel: Selector,
    /// Extension Function Table: name → segment-relative entry offset.
    pub functions: BTreeMap<String, u32>,
    /// Segment-relative offset of the shared data area, if a loaded module
    /// exported the well-known `shared_area` symbol.
    pub shared_area: Option<(u32, u32)>,
    /// Names of modules loaded into this segment.
    pub modules: Vec<String>,
    /// The segment was aborted after a protection violation.
    pub dead: bool,
    /// Faults (aborts, time-limit kills) accumulated by this segment.
    pub strikes: u32,
    /// The segment crossed its [`SegmentConfig::quarantine_threshold`]
    /// and was automatically quarantined.
    pub quarantined: bool,
    /// Names formerly in the Extension Function Table, tombstoned at
    /// unload or quarantine so late callers get a structured error rather
    /// than `NoSuchFunction` (or, worse, a far call through a stale slot).
    pub tombstones: BTreeMap<String, Tombstone>,
    /// Pending asynchronous requests (§4.3).
    pub queue: VecDeque<AsyncRequest>,
    /// Marked busy while draining the queue.
    pub busy: bool,
    /// Configuration fixed at creation.
    pub config: SegmentConfig,
    /// The segment's kernel pages and descriptors were returned through
    /// the resource ledger; set once, by the first reclaim.
    pub reclaimed: bool,
    /// What the reclaim released (audited by `assert_no_leaks`).
    pub reclaim_record: Option<ReclaimRecord>,
    /// Block proofs retained from each verified `insmod`, as `(load
    /// offset, proof map)` pairs in load order. They license the
    /// simulator's proof tokens (hoisted limit/PPL checks) and let the
    /// kernel re-install those tokens after a checkpoint restore.
    pub proofs: Vec<(u32, ProofMap)>,
    /// Every kernel allocation this segment owns, in acquisition order.
    ledger: ResourceLedger,
    /// Extension Function Table ownership: function name → module name.
    fn_owner: BTreeMap<String, String>,
    /// Module that exported `shared_area`.
    shared_area_owner: Option<String>,
    /// Per-segment `kprepare` stub address (kernel VA, SPL 0).
    kprepare: u32,
    /// Segment-relative offset of the `ktransfer` stub.
    ktransfer_off: u32,
    /// Segment-relative offset of the target-function slot `ktransfer`
    /// calls through.
    ktarget_off: u32,
    /// Initial extension ESP (segment-relative; also the argument slot).
    ext_esp: u32,
    /// Load cursor for modules (segment-relative).
    load_next: u32,
}

/// Invocations split by whether the target segment holds a load-time
/// attestation. Both kinds dispatch identically; the split is accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DispatchStats {
    /// Invocations into a segment holding a `Verified` attestation.
    pub verified: u64,
    /// Invocations into a segment without one (unverified code).
    pub entry_checks: u64,
}

/// The kernel-side manager for all extension segments.
#[derive(Debug, Clone)]
pub struct KernelExtensions {
    segments: Vec<ExtSegment>,
    /// The shared return gate (SPL 1 → SPL 0).
    kret_gate: Selector,
    /// Save slots used by `kprepare`/`kret` (kernel VA).
    slots: SaveSlots,
    /// The shared invoke stub (push arg + call kprepare).
    invoke_stub: u32,
    /// Kernel stack used for extension invocations (kernel VA top).
    invoke_stack_top: u32,
    /// Aborted invocations.
    pub aborts: u64,
    /// Completed invocations.
    pub calls: u64,
    /// Configuration applied by [`create_segment`](Self::create_segment);
    /// [`create_segment_with`](Self::create_segment_with) overrides it
    /// per segment.
    default_config: SegmentConfig,
    /// GDT slots reclaimed from destroyed segments, available to
    /// segments created with [`SegmentConfig::recycle_descriptors`].
    desc_pool: Vec<u16>,
    /// Segments quarantined so far.
    pub quarantines: u64,
    /// Segments reclaimed (pages and descriptors returned) so far.
    pub reclaims: u64,
    /// Calls into attested vs. unattested segments.
    pub dispatch: DispatchStats,
}

impl KernelExtensions {
    /// Initializes the mechanism: allocates the shared `kret` stub, its
    /// call gate, the save slots, and a kernel invocation stack.
    pub fn new(k: &mut Kernel) -> Result<KernelExtensions, KextError> {
        let page = k.alloc_kernel_pages(1)?;
        let slots = SaveSlots {
            sp_slot: page,
            bp_slot: page + 4,
        };
        let kret_code = trampoline::kernel_ret(slots, k.sel.kdata.0);
        let kret_at = page + 16;
        let bytes = encode_program(&kret_code);
        if !k.kwrite(kret_at, &bytes) {
            return Err(KextError::OutOfMemory);
        }

        let gate_idx = k.m.gdt.push(Descriptor::call_gate(k.sel.kcode, kret_at, 1));
        let kret_gate = Selector::new(gate_idx, false, 1);

        let invoke_stub = kret_at + bytes.len() as u32 + 16;
        let stub_bytes = encode_program(&trampoline::kernel_invoke_stub());
        if !k.kwrite(invoke_stub, &stub_bytes) {
            return Err(KextError::OutOfMemory);
        }

        let stack = k.alloc_kernel_pages(2)?;
        Ok(KernelExtensions {
            segments: Vec::new(),
            kret_gate,
            slots,
            invoke_stub,
            invoke_stack_top: stack + 2 * PAGE_SIZE,
            aborts: 0,
            calls: 0,
            default_config: SegmentConfig::default(),
            desc_pool: Vec::new(),
            quarantines: 0,
            reclaims: 0,
            dispatch: DispatchStats::default(),
        })
    }

    /// The configuration new segments receive from
    /// [`create_segment`](Self::create_segment).
    pub fn default_config(&self) -> SegmentConfig {
        self.default_config.clone()
    }

    /// Creates an extension segment of `pages` pages at SPL 1 inside the
    /// kernel address range, with its private stack and transfer stub,
    /// under the manager's default [`SegmentConfig`].
    pub fn create_segment(
        &mut self,
        k: &mut Kernel,
        pages: u32,
    ) -> Result<ExtSegmentId, KextError> {
        self.create_segment_with(k, pages, self.default_config.clone())
    }

    /// Allocates a GDT slot for a new segment descriptor, drawing from
    /// the reclaim pool when the segment opted in.
    fn alloc_descriptor(&mut self, k: &mut Kernel, d: Descriptor, recycle: bool) -> u16 {
        if recycle {
            if let Some(idx) = self.desc_pool.pop() {
                k.m.gdt.set(idx, d);
                return idx;
            }
        }
        k.m.gdt.push(d)
    }

    /// [`create_segment`](Self::create_segment) with an explicit
    /// per-segment configuration. Every allocation is recorded in the
    /// segment's resource ledger.
    pub fn create_segment_with(
        &mut self,
        k: &mut Kernel,
        pages: u32,
        config: SegmentConfig,
    ) -> Result<ExtSegmentId, KextError> {
        let size = pages * PAGE_SIZE;
        let base = k.alloc_kernel_pages(pages)?;
        debug_assert!(base >= KERNEL_VA_START, "extension segments live in 3-4GB");

        let recycle = config.recycle_descriptors;
        let code_idx = self.alloc_descriptor(k, Descriptor::code(base, size, 1), recycle);
        let data_idx = self.alloc_descriptor(k, Descriptor::data(base, size, 1), recycle);
        let code_sel = Selector::new(code_idx, false, 1);
        let data_sel = Selector::new(data_idx, false, 1);

        // Segment-relative layout: [0, stack_pages) = stack (one per
        // segment — modules in one segment share it, §4.3), then the
        // ktransfer stub and its target slot, then module space.
        let stack_pages = 2u32;
        let ext_esp = stack_pages * PAGE_SIZE - 4;
        let ktarget_off = stack_pages * PAGE_SIZE;
        let ktransfer_off = ktarget_off + 8;
        let transfer_code = trampoline::transfer(TransferParams {
            location: ktransfer_off,
            // Indirect: ktransfer calls through the target slot.
            ext_fn: 0,
            gate_sel: self.kret_gate.0,
            load_ds: Some(data_sel.0),
            pkru: None,
        });
        // Replace the direct call with an indirect call through the
        // target slot (the direct form is used at user level where the
        // Transfer is generated per function; kernel extensions share one
        // stub and the kernel patches the slot per invocation).
        let mut code = transfer_code;
        code[2] = asm86::isa::Insn::CallM(asm86::isa::Mem::abs(ktarget_off as i32 as u32));
        let bytes = encode_program(&code);

        // Creation is transactional: a mid-construction failure returns
        // every allocation made so far, exactly as a reclaim would.
        let rollback = |kx: &mut Self, k: &mut Kernel, kprep: Option<u32>| {
            Self::revoke_descriptors(k, code_sel, data_sel);
            kx.desc_pool.push(data_idx);
            kx.desc_pool.push(code_idx);
            if let Some(p) = kprep {
                k.free_kernel_pages(p, 1);
            }
            k.free_kernel_pages(base, pages);
        };

        if !k.kwrite(base + ktransfer_off, &bytes) {
            rollback(self, k, None);
            return Err(KextError::OutOfMemory);
        }

        let load_next = (ktransfer_off + bytes.len() as u32 + 15) & !15;

        // Per-segment kprepare stub (SPL 0, flat addressing).
        let kprepare_page = match k.alloc_kernel_pages(1) {
            Ok(p) => p,
            Err(_) => {
                rollback(self, k, None);
                return Err(KextError::OutOfMemory);
            }
        };
        let esp_slot = kprepare_page;
        k.m.host_write_u32(esp_slot, ext_esp);
        let prep_code = trampoline::prepare(trampoline::PrepareParams {
            slots: self.slots,
            // kprepare writes the argument through the flat kernel DS at
            // the *linear* address of the slot.
            arg_slot: base + ext_esp,
            ext_esp_slot: esp_slot,
            stack_sel: data_sel.0,
            code_sel: code_sel.0,
            transfer: ktransfer_off,
        });
        let kprepare = kprepare_page + 16;
        let pbytes = encode_program(&prep_code);
        if !k.kwrite(kprepare, &pbytes) {
            rollback(self, k, Some(kprepare_page));
            return Err(KextError::OutOfMemory);
        }

        let mut ledger = ResourceLedger::default();
        ledger.record(LedgerEntry::KernelPages { base, pages });
        ledger.record(LedgerEntry::KernelPages {
            base: kprepare_page,
            pages: 1,
        });
        ledger.record(LedgerEntry::GdtDescriptor { index: code_idx });
        ledger.record(LedgerEntry::GdtDescriptor { index: data_idx });

        self.segments.push(ExtSegment {
            base,
            size,
            code_sel,
            data_sel,
            functions: BTreeMap::new(),
            shared_area: None,
            modules: Vec::new(),
            dead: false,
            strikes: 0,
            quarantined: false,
            tombstones: BTreeMap::new(),
            queue: VecDeque::new(),
            busy: false,
            config,
            reclaimed: false,
            reclaim_record: None,
            proofs: Vec::new(),
            ledger,
            fn_owner: BTreeMap::new(),
            shared_area_owner: None,
            kprepare,
            ktransfer_off,
            ktarget_off,
            ext_esp,
            load_next,
        });
        Ok(ExtSegmentId(self.segments.len() - 1))
    }

    /// Borrows a segment.
    pub fn segment(&self, id: ExtSegmentId) -> &ExtSegment {
        &self.segments[id.0]
    }

    /// A segment's resource ledger (read-only; the mechanism maintains it).
    pub fn ledger(&self, id: ExtSegmentId) -> &ResourceLedger {
        &self.segments[id.0].ledger
    }

    /// GDT slots currently pooled for supervised reuse.
    pub fn pooled_descriptors(&self) -> usize {
        self.desc_pool.len()
    }

    /// Loads a module object into an extension segment (`insmod`),
    /// registering `exports` in the Extension Function Table and
    /// discovering the `shared_area` symbol if present.
    ///
    /// The module is linked at its segment-relative offset — kernel
    /// extension code addresses are segment offsets, exactly the pointer
    /// model §4.4.1 contrasts with the user-level mechanism.
    pub fn insmod(
        &mut self,
        k: &mut Kernel,
        id: ExtSegmentId,
        name: &str,
        obj: &Object,
        exports: &[&str],
    ) -> Result<(), KextError> {
        let seg = &mut self.segments[id.0];
        if seg.dead {
            return Err(KextError::SegmentDead);
        }
        if seg.quarantined {
            return Err(KextError::Quarantined {
                strikes: seg.strikes,
            });
        }
        let at = seg.load_next;
        if at + obj.len() as u32 > seg.size {
            return Err(KextError::OutOfMemory);
        }
        let image = obj
            .link(at, &BTreeMap::new())
            .map_err(|e| KextError::Link(e.to_string()))?;
        if seg.config.verify {
            // Admission control: prove the module safe before a byte of
            // it reaches segment memory. Kernel-extension addresses are
            // segment-relative, so the allowed data range is exactly the
            // segment limit, and the only legal way out is `int 0x81`.
            let entries = obj
                .entry_offsets(exports)
                .map_err(|e| KextError::Link(e.to_string()))?;
            let policy = VerifyPolicy::new(1, at)
                .allow_data(0, seg.size)
                .allow_vector(KSERVICE_VECTOR);
            let attestation = verify_image(&image, &entries, &policy).map_err(KextError::Verify)?;
            seg.config.verified = Some(attestation);
        }
        let base = seg.base;
        if !k.kwrite(base + at, &image) {
            return Err(KextError::Link(format!(
                "segment memory unmapped at {:#010x}",
                base + at
            )));
        }
        seg.load_next = (at + image.len() as u32 + 15) & !15;
        if let Some(att) = seg.config.verified.as_ref().filter(|_| seg.config.verify) {
            // Proof-directed check elision: the bytes just written are
            // exactly the verified image, so every block proof licenses
            // a simulator token at its load address. Installation
            // failures are harmless — the block runs on the normal
            // checked path.
            install_proof_map(k, base + at, &att.proofs);
            seg.proofs.push((at, att.proofs.clone()));
        }

        for sym in exports {
            let off = obj
                .symbol(sym)
                .ok_or_else(|| KextError::Link(format!("export `{sym}` not defined")))?;
            // A name tombstoned by a clean `rmmod` may be re-registered —
            // reinstalling a module under its old name is the supervisor's
            // one-for-one restart primitive. Faulted tombstones stay.
            match seg.tombstones.get(sym as &str) {
                Some(t) if t.faulted => {
                    return Err(KextError::Link(format!(
                        "export `{sym}` is tombstoned by a fault"
                    )));
                }
                Some(_) => {
                    seg.tombstones.remove(sym as &str);
                }
                None => {}
            }
            if seg.functions.insert((*sym).to_string(), at + off).is_some() {
                // Re-registration over a live entry: the old EFT ledger
                // record is superseded, not leaked.
                seg.ledger.remove_first(
                    |e| matches!(e, LedgerEntry::EftEntry { name: n, .. } if n == sym),
                );
            }
            seg.fn_owner.insert((*sym).to_string(), name.to_string());
            seg.ledger.record(LedgerEntry::EftEntry {
                name: (*sym).to_string(),
                module: name.to_string(),
            });
        }
        if let Some(off) = obj.symbol("shared_area") {
            let size = obj
                .symbol("shared_area_end")
                .map(|e| e - off)
                .unwrap_or(PAGE_SIZE);
            if seg.shared_area.is_some() {
                seg.ledger
                    .remove_first(|e| matches!(e, LedgerEntry::ShmRange { .. }));
            }
            seg.shared_area = Some((at + off, size));
            seg.shared_area_owner = Some(name.to_string());
            seg.ledger.record(LedgerEntry::ShmRange {
                base: at + off,
                size,
                module: name.to_string(),
            });
        }
        seg.modules.push(name.to_string());
        Ok(())
    }

    /// Re-installs the simulator proof tokens of every live segment from
    /// the proofs retained at `insmod` time. Tokens are host-side derived
    /// state — deliberately excluded from checkpoints — so a restored
    /// world starts with none; calling this afterwards restores the
    /// proof-elided dispatch fast path byte-for-byte (the elision never
    /// changes guest-visible state, so forgetting it only costs speed).
    pub fn reinstall_proof_tokens(&self, k: &mut Kernel) {
        for seg in &self.segments {
            if seg.dead || seg.quarantined {
                continue;
            }
            for (at, proofs) in &seg.proofs {
                install_proof_map(k, seg.base + at, proofs);
            }
        }
    }

    /// Removes a segment's installed proof tokens (leaving other
    /// segments' tokens alone) and drops its retained proofs. Must run
    /// while the segment's pages are still mapped — token keys are
    /// physical addresses reached through the live page tables.
    fn drop_proof_tokens(seg: &mut ExtSegment, k: &mut Kernel) {
        for (at, proofs) in &seg.proofs {
            for p in proofs.blocks.values() {
                k.m.remove_proof_token(seg.base + at + p.start);
            }
        }
        seg.proofs.clear();
    }

    /// Segment-relative offsets of the transfer stub and initial stack
    /// pointer (exposed for tests: the stack and stub must precede module
    /// space).
    pub fn segment_layout(&self, id: ExtSegmentId) -> (u32, u32) {
        let seg = &self.segments[id.0];
        (seg.ktransfer_off, seg.ext_esp)
    }

    /// Linear address of a segment's shared data area, for kernel-side
    /// reads/writes (the zero-copy argument area of §4.3).
    pub fn shared_area_linear(&self, id: ExtSegmentId) -> Option<(u32, u32)> {
        let seg = &self.segments[id.0];
        seg.shared_area.map(|(off, size)| (seg.base + off, size))
    }

    /// Invokes a registered extension function synchronously, running the
    /// whole Figure 6 sequence (SPL 0 → SPL 1 → SPL 0) on the simulated
    /// CPU, under the CPU-time limit.
    pub fn invoke(
        &mut self,
        k: &mut Kernel,
        id: ExtSegmentId,
        func: &str,
        arg: u32,
    ) -> Result<u32, KextError> {
        let (kprepare, target_linear, entry_off, verified) = {
            let seg = &self.segments[id.0];
            if seg.quarantined {
                return Err(KextError::Quarantined {
                    strikes: seg.strikes,
                });
            }
            if seg.dead {
                return Err(KextError::SegmentDead);
            }
            let entry = seg
                .functions
                .get(func)
                .copied()
                .ok_or_else(|| KextError::NoSuchFunction(func.to_string()))?;
            (
                seg.kprepare,
                seg.base + seg.ktarget_off,
                entry,
                seg.config.verified.is_some(),
            )
        };

        // The attestation is admission evidence only: hardware checks
        // contain the call either way, so dispatch just counts it.
        if verified {
            self.dispatch.verified += 1;
        } else {
            self.dispatch.entry_checks += 1;
        }

        // Patch the per-invocation target slot (the kernel indexes its
        // Extension Function Table and dispatches, step 5 of Figure 4).
        if !k.m.host_write_u32(target_linear, entry_off) {
            return Err(KextError::OutOfMemory);
        }

        // Enter the kprepare stub at ring 0 on the invocation stack.
        let snapshot = k.m.cpu.clone();
        let saved_tss0 = k.m.tss.stack[0];
        k.m.tss.stack[0] = (k.sel.kdata, self.invoke_stack_top);
        k.m.force_seg_from_table(asm86::isa::SegReg::Cs, k.sel.kcode);
        k.m.force_seg_from_table(asm86::isa::SegReg::Ss, k.sel.kdata);
        k.m.force_seg_from_table(asm86::isa::SegReg::Ds, k.sel.kdata);
        k.m.cpu.set_reg(Reg::Esp, self.invoke_stack_top);
        k.m.cpu.set_reg(Reg::Eax, arg);
        k.m.cpu.set_reg(Reg::Ebx, kprepare);
        k.m.cpu.eip = self.invoke_stub;

        let deadline = k.m.cycles() + k.extension_cycle_limit;
        let result = loop {
            match k.m.run_until_cycles(deadline) {
                Exit::Hlt => {
                    self.calls += 1;
                    break Ok(k.m.cpu.reg(Reg::Eax));
                }
                Exit::IntHook(v) if v == KSERVICE_VECTOR => {
                    self.kservice(k, id);
                    k.m.charge_iret_resume();
                }
                Exit::Fault(fault) => {
                    // §5.2: aborting a misbehaving kernel extension costs
                    // ~1,020 cycles (vectoring + abort work).
                    k.m.charge(k.costs.kext_abort);
                    self.strike(k, id);
                    break Err(KextError::Aborted(fault));
                }
                Exit::CycleLimit => {
                    k.m.charge(k.costs.kext_abort);
                    self.strike(k, id);
                    break Err(KextError::TimeLimit);
                }
                Exit::IntHook(_) | Exit::InsnLimit => {
                    // An extension reaching any other hook (e.g. trying the
                    // user syscall gate, which its gate DPL forbids anyway)
                    // is treated as misbehaviour and aborted.
                    k.m.charge(k.costs.kext_abort);
                    self.strike(k, id);
                    break Err(KextError::TimeLimit);
                }
            }
        };

        k.m.cpu = snapshot;
        k.m.tss.stack[0] = saved_tss0;
        result
    }

    /// Dispatches a kernel-service request from an extension (`int 0x81`).
    fn kservice(&mut self, k: &mut Kernel, id: ExtSegmentId) {
        k.m.charge(k.costs.syscall_dispatch);
        let nr = k.m.cpu.reg(Reg::Eax);
        let (b, c) = (k.m.cpu.reg(Reg::Ebx), k.m.cpu.reg(Reg::Ecx));
        let seg_base = self.segments[id.0].base;
        let seg_size = self.segments[id.0].size;
        let ret: u32 = match nr {
            // Bytes are addressed segment-relative and bounds-checked
            // against the segment limit, like any kernel copy-from-user.
            kservice::LOG if b.saturating_add(c) <= seg_size && c <= 4096 => {
                let data = k.m.host_read(seg_base + b, c as usize);
                k.console.extend_from_slice(&data);
                k.m.charge(c as u64 / 4 + 20);
                c
            }
            kservice::LOG => u32::MAX,
            kservice::CYCLES => k.m.cycles() as u32,
            kservice::SHARED_SIZE => self.segments[id.0].shared_area.map(|(_, s)| s).unwrap_or(0),
            _ => u32::MAX,
        };
        k.m.cpu.set_reg(Reg::Eax, ret);
    }

    /// Enqueues an asynchronous request (§4.3): the kernel "puts a request
    /// into the target extension module's request queue, marks the module
    /// busy, and returns".
    pub fn queue_async(&mut self, id: ExtSegmentId, func: &str, arg: u32) {
        let seg = &mut self.segments[id.0];
        seg.queue.push_back(AsyncRequest {
            func: func.to_string(),
            arg,
        });
        seg.ledger.record(LedgerEntry::AsyncSlot {
            func: func.to_string(),
        });
        seg.busy = true;
    }

    /// Unloads a module's entry points from the Extension Function Table
    /// (`rmmod`). The module's code stays mapped (the bump loader does not
    /// compact), but it can no longer be invoked: each of its functions is
    /// replaced by a clean (non-faulted) tombstone, which a later `insmod`
    /// of a same-named export may clear.
    pub fn rmmod(&mut self, id: ExtSegmentId, name: &str) -> bool {
        let seg = &mut self.segments[id.0];
        let Some(pos) = seg.modules.iter().position(|m| m == name) else {
            return false;
        };
        seg.modules.remove(pos);
        let owned: Vec<String> = seg
            .fn_owner
            .iter()
            .filter(|(_, m)| m.as_str() == name)
            .map(|(f, _)| f.clone())
            .collect();
        for f in owned {
            seg.functions.remove(&f);
            seg.fn_owner.remove(&f);
            seg.ledger
                .remove_first(|e| matches!(e, LedgerEntry::EftEntry { name: n, .. } if *n == f));
            seg.tombstones.insert(
                f,
                Tombstone {
                    module: Some(name.to_string()),
                    faulted: false,
                },
            );
        }
        if seg.shared_area_owner.as_deref() == Some(name) {
            seg.shared_area = None;
            seg.shared_area_owner = None;
            seg.ledger
                .remove_first(|e| matches!(e, LedgerEntry::ShmRange { .. }));
        }
        true
    }

    /// Records one strike against a segment after an abort. Below the
    /// quarantine threshold the segment stays usable — the abort already
    /// unwound the misbehaving invocation and the segment's memory is
    /// still protected by its limit, so the three-strikes policy of the
    /// mobile-code host generalizes safely. At the threshold the segment
    /// is quarantined.
    fn strike(&mut self, k: &mut Kernel, id: ExtSegmentId) {
        self.aborts += 1;
        let seg = &mut self.segments[id.0];
        seg.strikes += 1;
        if seg.strikes >= seg.config.quarantine_threshold {
            self.quarantine(k, id);
        }
    }

    /// Forgives one strike — the supervisor's decay path rewards healthy
    /// operation so an old abort does not haunt a segment forever.
    pub fn decay_strike(&mut self, id: ExtSegmentId) {
        let seg = &mut self.segments[id.0];
        if !seg.quarantined {
            seg.strikes = seg.strikes.saturating_sub(1);
        }
    }

    /// Quarantines a segment: every module is force-unloaded (`rmmod`),
    /// each Extension Function Table entry is replaced by a tombstone so
    /// pending callers get a structured error instead of a wild far call,
    /// the shared area is withdrawn, and the SPL 1 descriptors are marked
    /// not-present so any stale selector use faults in hardware.
    pub fn quarantine(&mut self, k: &mut Kernel, id: ExtSegmentId) {
        let seg = &mut self.segments[id.0];
        if seg.quarantined {
            return;
        }
        seg.quarantined = true;
        seg.dead = true;
        Self::drop_proof_tokens(seg, k);
        Self::tombstone_functions(seg, true);
        seg.modules.clear();
        seg.shared_area = None;
        seg.shared_area_owner = None;
        seg.ledger
            .remove_first(|e| matches!(e, LedgerEntry::ShmRange { .. }));
        seg.busy = false;
        let (code_sel, data_sel) = (seg.code_sel, seg.data_sel);
        Self::revoke_descriptors(k, code_sel, data_sel);
        self.quarantines += 1;
    }

    /// Replaces every Extension Function Table entry with a tombstone,
    /// removing the matching ledger records.
    fn tombstone_functions(seg: &mut ExtSegment, faulted: bool) {
        let names: Vec<String> = seg.functions.keys().cloned().collect();
        for f in names {
            seg.functions.remove(&f);
            let owner = seg.fn_owner.remove(&f);
            seg.ledger
                .remove_first(|e| matches!(e, LedgerEntry::EftEntry { name: n, .. } if *n == f));
            seg.tombstones.insert(
                f,
                Tombstone {
                    module: owner,
                    faulted,
                },
            );
        }
    }

    /// Marks a segment's code and data descriptors not-present: loading
    /// or transferring through them now raises #NP/#GP in the simulated
    /// hardware, closing the window where a revoked selector is still
    /// cached in software state somewhere.
    fn revoke_descriptors(k: &mut Kernel, code_sel: Selector, data_sel: Selector) {
        for sel in [code_sel, data_sel] {
            let idx = sel.index();
            if let Some(d) = k.m.gdt.get(idx).copied() {
                let revoked = match d {
                    Descriptor::Code(mut c) => {
                        c.present = false;
                        Descriptor::Code(c)
                    }
                    Descriptor::Data(mut dd) => {
                        dd.present = false;
                        Descriptor::Data(dd)
                    }
                    other => other,
                };
                k.m.gdt.set(idx, revoked);
            }
        }
    }

    /// Destroys an extension segment, reclaiming what §4.5.2 promises
    /// ("reclaiming the system resources previously allocated"): the EFT
    /// is tombstoned, the descriptors are marked not-present (so any
    /// stale selector use faults) and pooled, and the kernel pages are
    /// unmapped and their frames returned — the segment's resource ledger
    /// is unwound in reverse-acquisition order. Idempotent: a second
    /// destroy is a no-op, never a double free.
    ///
    /// Requests still queued are *not* silently dropped — a later
    /// [`run_pending`](Self::run_pending) drains them as structured
    /// [`KextError::SegmentDead`] errors so every pending caller learns
    /// its fate.
    pub fn destroy_segment(&mut self, k: &mut Kernel, id: ExtSegmentId) {
        let seg = &mut self.segments[id.0];
        seg.dead = true;
        let faulted = seg.quarantined;
        // Before the pages go away: token keys are physical addresses
        // reached through the still-live mapping.
        Self::drop_proof_tokens(seg, k);
        Self::tombstone_functions(seg, faulted);
        seg.modules.clear();
        seg.shared_area = None;
        seg.shared_area_owner = None;
        seg.busy = false;
        let (code_sel, data_sel) = (seg.code_sel, seg.data_sel);
        Self::revoke_descriptors(k, code_sel, data_sel);
        self.release_segment_resources(k, id);
    }

    /// Unwinds a dead segment's resource ledger: kernel pages are freed,
    /// descriptor slots (already revoked) are pooled for supervised
    /// reuse, and any remaining EFT/shm records are dropped. Pending
    /// [`LedgerEntry::AsyncSlot`]s stay paired with the request queue —
    /// they unwind as the queue drains. Idempotent via the segment's
    /// `reclaimed` flag.
    fn release_segment_resources(&mut self, k: &mut Kernel, id: ExtSegmentId) {
        let seg = &mut self.segments[id.0];
        debug_assert!(seg.dead, "only dead segments are unwound");
        if seg.reclaimed {
            return;
        }
        seg.reclaimed = true;
        let mut record = ReclaimRecord::default();
        for entry in seg.ledger.unwind() {
            match entry {
                LedgerEntry::KernelPages { base, pages } => {
                    k.free_kernel_pages(base, pages);
                    record.page_ranges.push((base, pages));
                }
                LedgerEntry::GdtDescriptor { index } => {
                    self.desc_pool.push(index);
                    record.descriptors.push(index);
                }
                LedgerEntry::EftEntry { .. } | LedgerEntry::ShmRange { .. } => {}
                LedgerEntry::AsyncSlot { .. } => unreachable!("unwind keeps async slots"),
            }
        }
        seg.reclaim_record = Some(record);
        self.reclaims += 1;
    }

    /// The supervisor's teardown: drains the request queue (returning
    /// what was dropped, so the caller can fail or resubmit each request
    /// deliberately) and destroys the segment. Returns what the reclaim
    /// released.
    pub fn reclaim_segment(&mut self, k: &mut Kernel, id: ExtSegmentId) -> ReclaimRecord {
        let dropped = self.take_queued(id);
        self.destroy_segment(k, id);
        let seg = &mut self.segments[id.0];
        let record = seg
            .reclaim_record
            .get_or_insert_with(ReclaimRecord::default);
        record.requests_dropped += dropped.len();
        record.clone()
    }

    /// Removes and returns all pending asynchronous requests *without*
    /// running them, clearing the busy mark — for callers (like the
    /// router) that synchronize shared-area argument placement themselves
    /// and invoke per request.
    pub fn take_queued(&mut self, id: ExtSegmentId) -> Vec<AsyncRequest> {
        let seg = &mut self.segments[id.0];
        seg.busy = false;
        while seg
            .ledger
            .remove_first(|e| matches!(e, LedgerEntry::AsyncSlot { .. }))
        {}
        seg.queue.drain(..).collect()
    }

    /// Pops the front request, retiring its ledger slot.
    fn pop_request(&mut self, id: ExtSegmentId) -> Option<AsyncRequest> {
        let seg = &mut self.segments[id.0];
        let req = seg.queue.pop_front()?;
        seg.ledger
            .remove_first(|e| matches!(e, LedgerEntry::AsyncSlot { .. }));
        Some(req)
    }

    /// Drains the asynchronous queue, running each request to completion
    /// before the next (§4.1: extensions are single-threaded,
    /// run-to-completion). Returns the results in order.
    pub fn run_pending(&mut self, k: &mut Kernel, id: ExtSegmentId) -> Vec<Result<u32, KextError>> {
        let mut results = Vec::new();
        while let Some(req) = self.pop_request(id) {
            results.push(self.invoke(k, id, &req.func, req.arg));
            if self.segments[id.0].dead {
                // Remaining requests fail fast with a structured error:
                // tombstoned EFT entries mean no pending caller is ever
                // dispatched through a revoked descriptor.
                let err = if self.segments[id.0].quarantined {
                    KextError::Quarantined {
                        strikes: self.segments[id.0].strikes,
                    }
                } else {
                    KextError::SegmentDead
                };
                while self.pop_request(id).is_some() {
                    results.push(Err(err.clone()));
                }
                break;
            }
        }
        self.segments[id.0].busy = false;
        results
    }

    /// Kernel pages attributed to live (unreclaimed) segments' ledgers.
    pub fn ledgered_pages(&self) -> u32 {
        self.segments
            .iter()
            .filter(|s| !s.reclaimed)
            .flat_map(|s| s.ledger.entries())
            .map(|e| match e {
                LedgerEntry::KernelPages { pages, .. } => *pages,
                _ => 0,
            })
            .sum()
    }

    /// The kernel-side leak audit: proves every segment's resources are
    /// either live-and-ledgered or provably returned.
    ///
    /// For a reclaimed segment: every page range in its reclaim record
    /// must be unmapped, every descriptor not-present, its EFT/shm empty,
    /// and its remaining ledger entries must exactly pair with requests
    /// still awaiting their structured drain. For a live segment: its
    /// ledger must cover the segment body and `kprepare` page, its
    /// descriptors must still be in the GDT, and every EFT/shm/queue
    /// object must have a matching ledger record. Pooled descriptor slots
    /// must all be not-present.
    pub fn assert_no_leaks(&self, k: &Kernel) -> Result<(), String> {
        for (i, seg) in self.segments.iter().enumerate() {
            if seg.reclaimed {
                let record = seg
                    .reclaim_record
                    .as_ref()
                    .ok_or_else(|| format!("segment {i}: reclaimed without a record"))?;
                // A range still on the kernel free list must be wholly
                // unmapped; one absent from it was legitimately recycled
                // by a later owner and is audited under that owner.
                for &(base, pages) in &record.page_ranges {
                    if !k.kernel_range_free(base, pages) {
                        continue;
                    }
                    for p in 0..pages {
                        let lin = base + p * PAGE_SIZE;
                        if k.kernel_page_mapped(lin) {
                            return Err(format!(
                                "segment {i}: reclaimed page {lin:#010x} still mapped"
                            ));
                        }
                    }
                }
                if !seg.functions.is_empty() || seg.shared_area.is_some() {
                    return Err(format!("segment {i}: reclaimed but EFT/shm survive"));
                }
                let slots = seg
                    .ledger
                    .count(|e| matches!(e, LedgerEntry::AsyncSlot { .. }));
                if slots != seg.queue.len() || slots != seg.ledger.entries().len() {
                    return Err(format!(
                        "segment {i}: reclaimed ledger holds {} entries for {} queued requests",
                        seg.ledger.entries().len(),
                        seg.queue.len()
                    ));
                }
            } else {
                let body = seg
                    .ledger
                    .count(|e| matches!(e, LedgerEntry::KernelPages { .. }));
                if body != 2 {
                    return Err(format!(
                        "segment {i}: expected body+kprepare page records, found {body}"
                    ));
                }
                for sel in [seg.code_sel, seg.data_sel] {
                    if k.m.gdt_entry_present(sel.index()).is_none() {
                        return Err(format!(
                            "segment {i}: descriptor {} missing from GDT",
                            sel.index()
                        ));
                    }
                }
                for name in seg.functions.keys() {
                    let ledgered = seg
                        .ledger
                        .count(|e| matches!(e, LedgerEntry::EftEntry { name: n, .. } if n == name));
                    if ledgered != 1 {
                        return Err(format!(
                            "segment {i}: EFT entry `{name}` has {ledgered} ledger records"
                        ));
                    }
                }
                if seg.shared_area.is_some()
                    != (seg
                        .ledger
                        .count(|e| matches!(e, LedgerEntry::ShmRange { .. }))
                        == 1)
                {
                    return Err(format!("segment {i}: shm range out of ledger sync"));
                }
                let slots = seg
                    .ledger
                    .count(|e| matches!(e, LedgerEntry::AsyncSlot { .. }));
                if slots != seg.queue.len() {
                    return Err(format!(
                        "segment {i}: {slots} async slots for {} queued requests",
                        seg.queue.len()
                    ));
                }
            }
        }
        for &idx in &self.desc_pool {
            if k.m.gdt_entry_present(idx) == Some(true) {
                return Err(format!("pooled GDT slot {idx} still present"));
            }
        }
        Ok(())
    }
}

impl KernelExtensions {
    // ----- durable checkpoints ----------------------------------------------

    /// Serializes the whole extension mechanism — every segment with its
    /// function tables, tombstones, queues, resource ledger and
    /// configuration, plus the shared stubs and counters — into `e`. The
    /// guest-visible stubs and GDT descriptors this state points at live
    /// in the kernel image saved at the same instant.
    pub fn save_into(&self, e: &mut Enc) {
        e.u32(self.segments.len() as u32);
        for seg in &self.segments {
            put_segment(e, seg);
        }
        e.u16(self.kret_gate.0);
        e.u32(self.slots.sp_slot);
        e.u32(self.slots.bp_slot);
        e.u32(self.invoke_stub);
        e.u32(self.invoke_stack_top);
        e.u64(self.aborts);
        e.u64(self.calls);
        put_config(e, &self.default_config);
        e.u32(self.desc_pool.len() as u32);
        for slot in &self.desc_pool {
            e.u16(*slot);
        }
        e.u64(self.quarantines);
        e.u64(self.reclaims);
        e.u64(self.dispatch.verified);
        e.u64(self.dispatch.entry_checks);
    }

    /// Rebuilds the mechanism from [`save_into`](Self::save_into) bytes.
    pub fn restore_from(d: &mut Dec) -> Result<KernelExtensions, RestoreError> {
        let nsegs = d.count(16)?;
        let mut segments = Vec::with_capacity(nsegs);
        for _ in 0..nsegs {
            segments.push(get_segment(d)?);
        }
        let kret_gate = Selector(d.u16()?);
        let slots = SaveSlots {
            sp_slot: d.u32()?,
            bp_slot: d.u32()?,
        };
        let invoke_stub = d.u32()?;
        let invoke_stack_top = d.u32()?;
        let aborts = d.u64()?;
        let calls = d.u64()?;
        let default_config = get_config(d)?;
        let npool = d.count(2)?;
        let mut desc_pool = Vec::with_capacity(npool);
        for _ in 0..npool {
            desc_pool.push(d.u16()?);
        }
        let quarantines = d.u64()?;
        let reclaims = d.u64()?;
        let dispatch = DispatchStats {
            verified: d.u64()?,
            entry_checks: d.u64()?,
        };
        Ok(KernelExtensions {
            segments,
            kret_gate,
            slots,
            invoke_stub,
            invoke_stack_top,
            aborts,
            calls,
            default_config,
            desc_pool,
            quarantines,
            reclaims,
            dispatch,
        })
    }
}

/// Installs simulator proof tokens for a verified module's blocks, at
/// their load addresses. `base` is the linear address the proof map's
/// offsets are relative to. Install failures (unmapped page, block
/// straddling a page boundary) are ignored by design: a token is a
/// license to hoist checks, never a prerequisite for running. The
/// simulator's block builder chains address-adjacent DS-proven blocks
/// into one verified block itself.
pub(crate) fn install_proof_map(k: &mut Kernel, base: u32, proofs: &ProofMap) {
    for p in proofs.blocks.values() {
        let ds = p.ds_bounds.map(|(_, hi)| x86sim::ProofDs {
            hi,
            loads: p.ds_loads,
            stores: p.ds_stores,
        });
        let _ = k.m.install_proof_token(base + p.start, p.len, ds);
    }
}

fn put_config(e: &mut Enc, c: &SegmentConfig) {
    e.u32(c.quarantine_threshold);
    e.bool(c.recycle_descriptors);
    e.bool(c.verify);
    ckpt::put_opt_attestation(e, c.verified.as_ref());
}

fn get_config(d: &mut Dec) -> Result<SegmentConfig, RestoreError> {
    Ok(SegmentConfig {
        quarantine_threshold: d.u32()?,
        recycle_descriptors: d.bool()?,
        verify: d.bool()?,
        verified: ckpt::get_opt_attestation(d)?,
    })
}

pub(crate) fn put_segment_config(e: &mut Enc, c: &SegmentConfig) {
    put_config(e, c);
}

pub(crate) fn get_segment_config(d: &mut Dec) -> Result<SegmentConfig, RestoreError> {
    get_config(d)
}

fn put_ledger_entry(e: &mut Enc, entry: &LedgerEntry) {
    match entry {
        LedgerEntry::KernelPages { base, pages } => {
            e.u8(0);
            e.u32(*base);
            e.u32(*pages);
        }
        LedgerEntry::GdtDescriptor { index } => {
            e.u8(1);
            e.u16(*index);
        }
        LedgerEntry::EftEntry { name, module } => {
            e.u8(2);
            e.str(name);
            e.str(module);
        }
        LedgerEntry::ShmRange { base, size, module } => {
            e.u8(3);
            e.u32(*base);
            e.u32(*size);
            e.str(module);
        }
        LedgerEntry::AsyncSlot { func } => {
            e.u8(4);
            e.str(func);
        }
    }
}

fn get_ledger_entry(d: &mut Dec) -> Result<LedgerEntry, RestoreError> {
    Ok(match d.u8()? {
        0 => LedgerEntry::KernelPages {
            base: d.u32()?,
            pages: d.u32()?,
        },
        1 => LedgerEntry::GdtDescriptor { index: d.u16()? },
        2 => LedgerEntry::EftEntry {
            name: d.str()?,
            module: d.str()?,
        },
        3 => LedgerEntry::ShmRange {
            base: d.u32()?,
            size: d.u32()?,
            module: d.str()?,
        },
        4 => LedgerEntry::AsyncSlot { func: d.str()? },
        _ => return Err(d.fail("bad ledger entry tag")),
    })
}

fn put_segment(e: &mut Enc, s: &ExtSegment) {
    e.u32(s.base);
    e.u32(s.size);
    e.u16(s.code_sel.0);
    e.u16(s.data_sel.0);
    ckpt::put_str_u32_map(e, &s.functions);
    ckpt::put_opt_pair(e, s.shared_area);
    ckpt::put_str_vec(e, &s.modules);
    e.bool(s.dead);
    e.u32(s.strikes);
    e.bool(s.quarantined);
    e.u32(s.tombstones.len() as u32);
    for (name, t) in &s.tombstones {
        e.str(name);
        ckpt::put_opt_str(e, t.module.as_deref());
        e.bool(t.faulted);
    }
    e.u32(s.queue.len() as u32);
    for req in &s.queue {
        e.str(&req.func);
        e.u32(req.arg);
    }
    e.bool(s.busy);
    put_config(e, &s.config);
    e.bool(s.reclaimed);
    e.bool(s.reclaim_record.is_some());
    if let Some(rec) = &s.reclaim_record {
        e.u32(rec.page_ranges.len() as u32);
        for (base, pages) in &rec.page_ranges {
            e.u32(*base);
            e.u32(*pages);
        }
        e.u32(rec.descriptors.len() as u32);
        for slot in &rec.descriptors {
            e.u16(*slot);
        }
        e.u32(rec.requests_dropped as u32);
    }
    e.u32(s.ledger.entries().len() as u32);
    for entry in s.ledger.entries() {
        put_ledger_entry(e, entry);
    }
    e.u32(s.fn_owner.len() as u32);
    for (func, module) in &s.fn_owner {
        e.str(func);
        e.str(module);
    }
    ckpt::put_opt_str(e, s.shared_area_owner.as_deref());
    e.u32(s.kprepare);
    e.u32(s.ktransfer_off);
    e.u32(s.ktarget_off);
    e.u32(s.ext_esp);
    e.u32(s.load_next);
    e.u32(s.proofs.len() as u32);
    for (at, proofs) in &s.proofs {
        e.u32(*at);
        ckpt::put_proof_map(e, proofs);
    }
}

fn get_segment(d: &mut Dec) -> Result<ExtSegment, RestoreError> {
    let base = d.u32()?;
    let size = d.u32()?;
    let code_sel = Selector(d.u16()?);
    let data_sel = Selector(d.u16()?);
    let functions = ckpt::get_str_u32_map(d)?;
    let shared_area = ckpt::get_opt_pair(d)?;
    let modules = ckpt::get_str_vec(d)?;
    let dead = d.bool()?;
    let strikes = d.u32()?;
    let quarantined = d.bool()?;
    let ntomb = d.u32()?;
    let mut tombstones = BTreeMap::new();
    for _ in 0..ntomb {
        let name = d.str()?;
        let module = ckpt::get_opt_str(d)?;
        let faulted = d.bool()?;
        tombstones.insert(name, Tombstone { module, faulted });
    }
    let nqueue = d.count(8)?;
    let mut queue = VecDeque::with_capacity(nqueue);
    for _ in 0..nqueue {
        let func = d.str()?;
        let arg = d.u32()?;
        queue.push_back(AsyncRequest { func, arg });
    }
    let busy = d.bool()?;
    let config = get_config(d)?;
    let reclaimed = d.bool()?;
    let reclaim_record = if d.bool()? {
        let nranges = d.count(8)?;
        let mut page_ranges = Vec::with_capacity(nranges);
        for _ in 0..nranges {
            page_ranges.push((d.u32()?, d.u32()?));
        }
        let ndescs = d.count(2)?;
        let mut descriptors = Vec::with_capacity(ndescs);
        for _ in 0..ndescs {
            descriptors.push(d.u16()?);
        }
        let requests_dropped = d.u32()? as usize;
        Some(ReclaimRecord {
            page_ranges,
            descriptors,
            requests_dropped,
        })
    } else {
        None
    };
    let nledger = d.u32()?;
    let mut ledger = ResourceLedger::default();
    for _ in 0..nledger {
        let entry = get_ledger_entry(d)?;
        ledger.record(entry);
    }
    let nowners = d.u32()?;
    let mut fn_owner = BTreeMap::new();
    for _ in 0..nowners {
        let func = d.str()?;
        let module = d.str()?;
        fn_owner.insert(func, module);
    }
    let shared_area_owner = ckpt::get_opt_str(d)?;
    let kprepare = d.u32()?;
    let ktransfer_off = d.u32()?;
    let ktarget_off = d.u32()?;
    let ext_esp = d.u32()?;
    let load_next = d.u32()?;
    let nproofs = d.count(8)?;
    let mut proofs = Vec::with_capacity(nproofs);
    for _ in 0..nproofs {
        let at = d.u32()?;
        let map = ckpt::get_proof_map(d)?;
        ckpt::check_proofs_fit(d, u64::from(base) + u64::from(at), &map)?;
        proofs.push((at, map));
    }
    Ok(ExtSegment {
        base,
        size,
        code_sel,
        data_sel,
        functions,
        shared_area,
        modules,
        dead,
        strikes,
        quarantined,
        tombstones,
        queue,
        busy,
        config,
        reclaimed,
        reclaim_record,
        proofs,
        ledger,
        fn_owner,
        shared_area_owner,
        kprepare,
        ktransfer_off,
        ktarget_off,
        ext_esp,
        load_next,
    })
}
