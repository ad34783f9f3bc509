//! The user-level extension mechanism (§4.4): `ExtensibleApp`.
//!
//! An extensible application promotes itself to SPL 2 (`init_PL`); its
//! writable pages become PPL 0 (supervisor). Extensions are loaded with
//! `seg_dlopen` into pages at PPL 1 and execute at SPL 3 in the ordinary
//! ring-3 segments — which span the *same* 0–3 GB range as the
//! application's ring-2 segments, so pointers pass between the two sides
//! unswizzled. Protection comes from the combination:
//!
//! * page-level U/S checks stop the SPL 3 extension touching PPL 0 pages
//!   (everything the application did not explicitly expose);
//! * segment-level limit/SPL checks stop the SPL 2 application (and its
//!   extensions) touching the kernel's 3–4 GB range.
//!
//! `seg_dlsym` returns a pointer to a generated `Prepare` routine rather
//! than to the extension function itself; calling it runs the Figure 6
//! sequence. Faulting or runaway extension calls are aborted and surfaced
//! as [`ExtCallError`]; the application survives.

use std::collections::BTreeMap;

use asm86::encode::{decode, encode_program};
use asm86::isa::Reg;
use asm86::{Assembler, Object};
use baselines::sfi::{self, Sandbox, SfiError, SfiPolicy};
use minikernel::layout::{UEXT_DONE_VECTOR, UEXT_FAULT_VECTOR};
use minikernel::{AreaKind, Budget, Kernel, Outcome, SpawnError, Tid};
use x86sim::fault::Fault;
use x86sim::image::{Dec, Enc, RestoreError};
use x86sim::mem::PAGE_SIZE;
use x86sim::paging::{pkru, pte};

use crate::backend::{BackendKind, APP_KEY};
use crate::checkpoint as ckpt;
use crate::dl::{build_got_plt, merge_objects};
use crate::error::Error;
use crate::kernel_ext::install_proof_map;
use crate::stdlib;
use crate::trampoline::{self, PrepareParams, SaveSlots, TransferParams};
use verifier::{verify_image, Attestation, VerifyPolicy};

/// Cost (cycles) of the base `dlopen` work: file open, mapping, symbol
/// table parsing, eager relocation. Anchor: §5.1 measures `dlopen` at
/// 400 µs (= 80,000 cycles at 200 MHz); `seg_dlopen`'s extra PPL marking
/// takes it to ~420 µs.
pub const DLOPEN_BASE_CYCLES: u64 = 80_000;

/// Why a protected extension call failed (the application survives).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ExtCallError {
    /// The extension violated its protection domain; SIGSEGV was delivered
    /// to the application, which aborted the call.
    Fault {
        /// Signal number delivered.
        sig: u8,
        /// Faulting address the handler observed.
        addr: u32,
        /// The hardware-level cause behind the signal, recorded by the
        /// kernel's fault dispatcher. `None` only for signals that did
        /// not originate from a fault.
        cause: Option<x86sim::fault::FaultCause>,
    },
    /// The extension exceeded its CPU-time limit (§4.5.2's timer check).
    TimeLimit,
    /// The raw hardware fault killed the task (no handler installed —
    /// does not happen under this runtime, which always installs one).
    Killed(Fault),
}

impl core::fmt::Display for ExtCallError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ExtCallError::Fault { sig, addr, cause } => {
                write!(f, "extension fault: signal {sig} at {addr:#010x}")?;
                if let Some(c) = cause {
                    write!(f, " ({})", c.tag())?;
                }
                Ok(())
            }
            ExtCallError::TimeLimit => write!(f, "extension exceeded its CPU-time limit"),
            ExtCallError::Killed(fault) => write!(f, "task killed: {fault}"),
        }
    }
}

/// Handle to a loaded extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExtensionHandle(usize);

/// Options for [`ExtensibleApp::dlopen`] (and
/// [`Session::dlopen`](crate::Session::dlopen)): one loader, with
/// verification, attestation and predecode as *options* rather than
/// parallel function variants.
///
/// ```
/// use palladium::DlopenOptions;
///
/// // A plain load, defaults everywhere:
/// let opts = DlopenOptions::new();
///
/// // A verified load with a bigger heap and the eager-predecode fast
/// // path declined:
/// let opts = DlopenOptions::new()
///     .heap_pages(16)
///     .verify(&["entry", "reset"])
///     .predecode(false);
/// # let _ = opts;
/// ```
#[derive(Debug, Clone, Default)]
pub struct DlopenOptions {
    stack_pages: Option<u32>,
    heap_pages: Option<u32>,
    verify_entries: Option<Vec<String>>,
    predecode_opt_out: bool,
    backend: Option<BackendKind>,
}

impl DlopenOptions {
    /// Default options: 4 stack pages, 4 heap pages, no load-time
    /// verification, eager predecode permitted (it only ever activates
    /// for verified extensions).
    pub fn new() -> DlopenOptions {
        DlopenOptions::default()
    }

    /// Extension stack pages (default 4).
    pub fn stack_pages(mut self, pages: u32) -> DlopenOptions {
        self.stack_pages = Some(pages);
        self
    }

    /// Extension heap pages for `xmalloc` (default 4).
    pub fn heap_pages(mut self, pages: u32) -> DlopenOptions {
        self.heap_pages = Some(pages);
        self
    }

    /// Statically verify the linked image at load time. `entries` names
    /// the exported functions the application intends to resolve with
    /// `seg_dlsym`; verification walks every instruction reachable from
    /// them. On rejection the extension is unloaded and the load returns
    /// [`Error::Verify`]; on success the handle carries a `Verified`
    /// attestation and protected calls take the verified-dispatch fast
    /// path (unless [`predecode(false)`](Self::predecode) opts out).
    pub fn verify<S: AsRef<str>>(mut self, entries: &[S]) -> DlopenOptions {
        self.verify_entries = Some(entries.iter().map(|s| s.as_ref().to_string()).collect());
        self
    }

    /// Whether a `Verified` attestation may license eager predecode on
    /// calls into this extension (default `true`). Purely a host
    /// performance knob: simulated cycles, faults and results are
    /// identical either way.
    pub fn predecode(mut self, on: bool) -> DlopenOptions {
        self.predecode_opt_out = !on;
        self
    }

    /// Selects the isolation backend guarding this extension (default:
    /// the caller's session backend, or [`BackendKind::SegPaging`] when
    /// loading through [`ExtensibleApp::dlopen`] directly).
    ///
    /// [`BackendKind::Sfi`] loads take a different admission path: the
    /// object must be self-contained, branch-free code (the rewriter's
    /// contract) and [`verify`](Self::verify) is ignored — the rewrite
    /// itself is the admission check.
    pub fn backend(mut self, kind: BackendKind) -> DlopenOptions {
        self.backend = Some(kind);
        self
    }

    /// The backend requested via [`backend`](Self::backend), if any.
    pub fn backend_kind(&self) -> Option<BackendKind> {
        self.backend
    }

    /// The entry list requested via [`verify`](Self::verify), if any.
    pub fn verify_entries(&self) -> Option<&[String]> {
        self.verify_entries.as_deref()
    }

    fn stack_pages_or_default(&self) -> u32 {
        self.stack_pages.unwrap_or(4)
    }

    fn heap_pages_or_default(&self) -> u32 {
        self.heap_pages.unwrap_or(4)
    }
}

#[derive(Debug, Clone)]
struct Ext {
    base: u32,
    pages: u32,
    symbols: BTreeMap<String, u32>,
    /// Initial extension ESP (address of the argument slot).
    arg_slot: u32,
    /// Slot (PPL 0) holding the value `arg_slot`.
    esp_slot: u32,
    /// SPL 3 trampoline page for this extension's `Transfer` routines.
    tramp3_base: u32,
    tramp3_next: u32,
    /// Cache: function name -> (Prepare address, Transfer address).
    preps: BTreeMap<String, (u32, u32)>,
    /// GOT page (if the extension imports shared-library functions).
    got_page: Option<u32>,
    /// Byte range of the sealed GOT slots (loader-controlled memory a
    /// verifier may trust indirect jumps through).
    got_slots: Option<(u32, u32)>,
    /// Byte range of the loader-generated PLT stubs.
    plt_range: Option<(u32, u32)>,
    /// Stack and heap ranges (half-open), kept for verifier policy
    /// construction.
    stack: (u32, u32),
    heap: (u32, u32),
    /// `Verified` attestation from a load with
    /// [`DlopenOptions::verify`]; licenses eager predecode on protected
    /// calls into this extension.
    verified: Option<Attestation>,
    /// Whether the attestation may actually enable eager predecode
    /// ([`DlopenOptions::predecode`]; default yes).
    eager_predecode: bool,
    /// Which isolation backend guards this extension.
    backend: BackendKind,
    /// SFI sandbox region `(base, size)` — [`BackendKind::Sfi`] only.
    sandbox: Option<(u32, u32)>,
    closed: bool,
}

#[derive(Debug, Clone)]
struct LoadedLib {
    symbols: BTreeMap<String, u32>,
    /// Mapped code range (half-open) — legal branch targets for verified
    /// extensions.
    range: (u32, u32),
}

/// A promoted extensible application and its Palladium runtime state.
#[derive(Debug, Clone)]
pub struct ExtensibleApp {
    /// The hosting task.
    pub tid: Tid,
    /// Call-gate selector for `AppCallGate`.
    pub gate_sel: u16,
    /// Successful protected calls made.
    pub calls: u64,
    /// Calls aborted by fault or time limit.
    pub aborted_calls: u64,
    /// Protected calls that took the verified-dispatch fast path (eager
    /// predecode licensed by a load-time attestation).
    pub verified_calls: u64,
    invoke_stub: u32,
    callgate_addr: u32,
    slots: SaveSlots,
    /// Application-SPL trampoline region (PPL 0).
    tramp_next: u32,
    tramp_end: u32,
    /// Loaded extensions. Shared copy-on-write with forked worlds: a
    /// clone of a warmed app bumps one refcount, and the first
    /// load/resolve/close in either world materializes a private table.
    exts: std::sync::Arc<Vec<Ext>>,
    /// Loaded shared libraries, shared copy-on-write like `exts`.
    libs: std::sync::Arc<Vec<LoadedLib>>,
    /// Call-gate selectors of registered application services — legal
    /// far-call targets for verified extensions (their stubs `lcall`
    /// these gates).
    service_gates: Vec<u16>,
}

impl ExtensibleApp {
    /// Creates an extensible application: spawns a host-driven shell task,
    /// promotes it with `init_PL`, and installs the Palladium runtime
    /// (invoke stub, fault trampoline, `AppCallGate` + its call gate).
    pub fn new(k: &mut Kernel) -> Result<ExtensibleApp, Error> {
        let shell = Assembler::assemble("_start:\nspin:\njmp spin\n").expect("shell");
        let tid = k.spawn(&shell, &BTreeMap::new())?;
        k.switch_to(tid);

        let r = k.palladium_init_pl();
        if r != 0 {
            return Err(Error::Kernel("init_PL", r));
        }

        // Application trampoline region: PPL 0, writable (holds the save
        // slots), 2 pages.
        let tramp = k.host_mmap(tid, 2, true, false, AreaKind::Image)?;
        let mut cursor = tramp;
        let write_code = |k: &mut Kernel, code: &[asm86::isa::Insn], cursor: &mut u32| {
            let bytes = encode_program(code);
            assert!(k.m.host_write(*cursor, &bytes));
            let at = *cursor;
            *cursor += bytes.len() as u32;
            at
        };

        // Save slots first (so their addresses are known), 16-byte aligned.
        let sp_slot = cursor;
        let bp_slot = cursor + 4;
        cursor += 16;
        let slots = SaveSlots { sp_slot, bp_slot };

        let invoke_stub = write_code(k, &trampoline::invoke_stub(UEXT_DONE_VECTOR), &mut cursor);
        let fault_stub = write_code(k, &trampoline::fault_stub(UEXT_FAULT_VECTOR), &mut cursor);
        let callgate_addr = write_code(k, &trampoline::app_callgate(slots), &mut cursor);

        let gate = k.palladium_set_call_gate(callgate_addr);
        if gate < 0 {
            return Err(Error::Kernel("set_call_gate", gate));
        }
        k.host_set_signal_handler(tid, Some(fault_stub));

        Ok(ExtensibleApp {
            tid,
            gate_sel: gate as u16,
            calls: 0,
            aborted_calls: 0,
            verified_calls: 0,
            invoke_stub,
            callgate_addr,
            slots,
            tramp_next: cursor,
            tramp_end: tramp + 2 * PAGE_SIZE,
            exts: std::sync::Arc::new(Vec::new()),
            libs: std::sync::Arc::new(Vec::new()),
            service_gates: Vec::new(),
        })
    }

    fn tramp_alloc(&mut self, len: u32) -> Result<u32, Error> {
        let at = self.tramp_next;
        if at + len > self.tramp_end {
            return Err(Error::Spawn(SpawnError::OutOfMemory));
        }
        self.tramp_next = at + len;
        Ok(at)
    }

    /// Loads a shared library: its code pages are mapped PPL 1 (read-only)
    /// so extensions can call the non-buffering routines directly.
    pub fn load_shared_lib(&mut self, k: &mut Kernel, obj: &Object) -> Result<u32, Error> {
        // Loader writes resolve through the owning task's page tables.
        k.switch_to(self.tid);
        let pages = (obj.len() as u32).div_ceil(PAGE_SIZE).max(1);
        let base = k.host_mmap(self.tid, pages, true, true, AreaKind::SharedLib)?;
        let image = obj
            .link(base, &BTreeMap::new())
            .map_err(|e| Error::Link(e.to_string()))?;
        assert!(k.m.host_write(base, &image));
        // Seal read-only: extensions (and the app) execute but never write.
        k.host_set_page_flags(self.tid, base, pages, 0, pte::RW);
        k.m.charge(DLOPEN_BASE_CYCLES);

        let symbols = obj
            .symbols
            .iter()
            .map(|(s, off)| (s.clone(), base + off))
            .collect();
        std::sync::Arc::make_mut(&mut self.libs).push(LoadedLib {
            symbols,
            range: (base, base + pages * PAGE_SIZE),
        });
        Ok(base)
    }

    /// Loads the standard mini-libc as a shared library.
    pub fn load_libc(&mut self, k: &mut Kernel) -> Result<u32, Error> {
        self.load_shared_lib(k, &stdlib::libc_object())
    }

    fn resolve_lib_symbol(&self, name: &str) -> Option<u32> {
        self.libs.iter().find_map(|l| l.symbols.get(name).copied())
    }

    /// The unified extension loader: loads an extension into PPL 1 pages
    /// at SPL 3, with an eagerly-resolved sealed GOT for any
    /// shared-library imports, plus a private stack and `xmalloc` heap.
    ///
    /// This is the paper's `seg_dlopen` with verification, attestation
    /// and predecode folded in as [`DlopenOptions`] rather than parallel
    /// entry points: pass [`DlopenOptions::verify`] to run the static
    /// verifier over the linked image before the handle is returned
    /// (rejections unload the extension and surface as
    /// [`Error::Verify`]).
    pub fn dlopen(
        &mut self,
        k: &mut Kernel,
        obj: &Object,
        opts: &DlopenOptions,
    ) -> Result<ExtensionHandle, Error> {
        let kind = opts.backend_kind().unwrap_or(BackendKind::SegPaging);
        self.dlopen_as(k, obj, opts, kind)
    }

    /// As [`dlopen`](Self::dlopen), with the backend already resolved by
    /// the caller (a [`Session`](crate::Session) falls back to its own
    /// default rather than [`BackendKind::SegPaging`]).
    pub(crate) fn dlopen_as(
        &mut self,
        k: &mut Kernel,
        obj: &Object,
        opts: &DlopenOptions,
        kind: BackendKind,
    ) -> Result<ExtensionHandle, Error> {
        match kind {
            BackendKind::Sfi => self.dlopen_sfi(k, obj, opts),
            kind => self.dlopen_paged(k, obj, opts, kind),
        }
    }

    /// The hardware-protected load path shared by [`BackendKind::SegPaging`]
    /// and [`BackendKind::ProtKeys`] (they map identically; ProtKeys
    /// additionally key-tags the application-private trampoline region).
    fn dlopen_paged(
        &mut self,
        k: &mut Kernel,
        obj: &Object,
        opts: &DlopenOptions,
        kind: BackendKind,
    ) -> Result<ExtensionHandle, Error> {
        k.switch_to(self.tid);
        let stack_pages = opts.stack_pages_or_default();
        let heap_pages = opts.heap_pages_or_default();
        // Auto-link xmalloc when referenced.
        let undefined: Vec<String> = obj
            .undefined_symbols()
            .iter()
            .map(|s| s.to_string())
            .collect();
        let xmalloc_obj;
        let merged;
        let obj = if undefined.iter().any(|s| s == "xmalloc") {
            xmalloc_obj = stdlib::xmalloc_object();
            merged = merge_objects(&[obj, &xmalloc_obj])?;
            &merged
        } else {
            obj
        };

        let img_pages = (obj.len() as u32).div_ceil(PAGE_SIZE).max(1);
        let base = k.host_mmap(self.tid, img_pages, true, true, AreaKind::SharedLib)?;

        // Imports still unresolved go through a PLT/GOT pair.
        let imports: Vec<String> = obj
            .undefined_symbols()
            .iter()
            .map(|s| s.to_string())
            .collect();
        let mut externs: BTreeMap<String, u32> = BTreeMap::new();
        let mut got_page = None;
        let mut got_slots = None;
        let mut plt_range = None;
        if !imports.is_empty() {
            // One page each: the GOT must be alone on its page so sealing
            // it read-only cannot affect neighbours (§4.4.2).
            let got = k.host_mmap(self.tid, 1, true, true, AreaKind::SharedLib)?;
            let plt = k.host_mmap(self.tid, 1, true, true, AreaKind::SharedLib)?;
            let gp = build_got_plt(&imports, got, plt, |name| self.resolve_lib_symbol(name))?;
            assert!(k.m.host_write(got, &gp.got_bytes));
            assert!(k.m.host_write(plt, &gp.plt_bytes));
            // Eager resolution done: seal the GOT (and the PLT) read-only.
            k.host_set_page_flags(self.tid, got, 1, 0, pte::RW);
            k.host_set_page_flags(self.tid, plt, 1, 0, pte::RW);
            got_slots = Some(gp.got_range(got));
            plt_range = Some(gp.plt_range(plt));
            externs.extend(gp.plt_addrs);
            got_page = Some(got);
        }

        let image = obj
            .link(base, &externs)
            .map_err(|e| Error::Link(e.to_string()))?;
        assert!(k.m.host_write(base, &image));

        // Extension stack: PPL 1, writable. The top dword is the argument
        // slot (initial extension ESP).
        let stack_base = k.host_mmap(
            self.tid,
            stack_pages,
            true,
            true,
            AreaKind::ExtensionPrivate,
        )?;
        let arg_slot = stack_base + stack_pages * PAGE_SIZE - 4;

        // Extension heap for xmalloc.
        let heap_base =
            k.host_mmap(self.tid, heap_pages, true, true, AreaKind::ExtensionPrivate)?;
        let symbols: BTreeMap<String, u32> = obj
            .symbols
            .iter()
            .map(|(s, off)| (s.clone(), base + off))
            .collect();
        if let Some(next) = symbols.get("xheap_next") {
            k.m.host_write_u32(*next, heap_base);
        }
        if let Some(end) = symbols.get("xheap_end") {
            k.m.host_write_u32(*end, heap_base + heap_pages * PAGE_SIZE);
        }

        // SPL 3 trampoline page for Transfer routines: PPL 1, sealed
        // read-only after each write (host writes bypass R/W).
        let tramp3 = k.host_mmap(self.tid, 1, true, true, AreaKind::SharedLib)?;
        k.host_set_page_flags(self.tid, tramp3, 1, 0, pte::RW);

        // The PPL 0 slot holding the extension ESP that Prepare pushes.
        let esp_slot = self.tramp_alloc(4)?;
        k.m.host_write_u32(esp_slot, arg_slot);

        // seg_dlopen = dlopen + PPL marking of the exposed pages (§5.1:
        // 400 us -> 420 us).
        let marked = img_pages + stack_pages + heap_pages + 1;
        let mark = k.costs.ppl_mark(marked);
        k.m.charge(DLOPEN_BASE_CYCLES + mark);

        std::sync::Arc::make_mut(&mut self.exts).push(Ext {
            base,
            pages: img_pages,
            symbols,
            arg_slot,
            esp_slot,
            tramp3_base: tramp3,
            tramp3_next: tramp3,
            preps: BTreeMap::new(),
            got_page,
            got_slots,
            plt_range,
            stack: (stack_base, stack_base + stack_pages * PAGE_SIZE),
            heap: (heap_base, heap_base + heap_pages * PAGE_SIZE),
            verified: None,
            eager_predecode: !opts.predecode_opt_out,
            backend: kind,
            sandbox: None,
            closed: false,
        });
        let h = ExtensionHandle(self.exts.len() - 1);

        if kind == BackendKind::ProtKeys {
            // Move the application-private trampoline region (save slots,
            // invoke stub, Prepare routines) from U/S protection to key
            // protection: its pages become user-reachable in the page
            // tables but carry APP_KEY, and the thread's key-rights
            // register denies that key from now on. Every ProtKeys
            // Transfer re-asserts the denial on entry, so extension-mode
            // accesses to the region fault on the key check instead of
            // the U/S check. Ring-2 application code is unaffected —
            // supervisor accesses ignore keys, exactly as on MPK.
            let tramp_base = self.tramp_end - 2 * PAGE_SIZE;
            k.host_set_page_flags(
                self.tid,
                tramp_base,
                2,
                pte::US | pte::key_flags(APP_KEY),
                0,
            );
            k.m.cpu.pkru = pkru::deny_access(&[APP_KEY]);
        }

        // Verification as an option, not a function variant: the policy
        // admits accesses to the extension's own image, stack and heap,
        // branches into loaded shared libraries and the loader's PLT
        // stubs, indirect jumps through the sealed GOT, and far calls
        // through this application's `AppCallGate` and registered
        // service gates.
        if let Some(entries) = opts.verify_entries() {
            let refs: Vec<&str> = entries.iter().map(|s| s.as_str()).collect();
            match self.verify_loaded(k, h, &refs) {
                Ok(att) => {
                    // Proof-directed check elision: the attested block
                    // proofs license simulator tokens at their load
                    // addresses (install failures just keep a block on
                    // the normal checked path).
                    install_proof_map(k, base, &att.proofs);
                    std::sync::Arc::make_mut(&mut self.exts)[h.0].verified = Some(att);
                }
                Err(e) => {
                    self.seg_dlclose(k, h)?;
                    return Err(Error::Verify(e));
                }
            }
        }
        Ok(h)
    }

    /// The [`BackendKind::Sfi`] load path: link, decode, and rewrite the
    /// object through [`baselines::sfi`] so every store is masked into a
    /// size-aligned power-of-two sandbox, then install the rewritten code
    /// at the *application's* privilege level (PPL 0 — SFI needs no
    /// hardware boundary, that is its point). The object must be
    /// self-contained (no imports) branch-free code; the rewriter rejects
    /// anything else with a typed [`Error::Sfi`].
    fn dlopen_sfi(
        &mut self,
        k: &mut Kernel,
        obj: &Object,
        opts: &DlopenOptions,
    ) -> Result<ExtensionHandle, Error> {
        k.switch_to(self.tid);
        if !obj.undefined_symbols().is_empty() {
            return Err(Error::Sfi(SfiError::Unsupported("imports")));
        }
        // Link at base 0: the admitted subset is position-independent
        // (no relative branches, no inline data), so the image bytes are
        // the same at any base and symbol offsets are object offsets.
        let image = obj
            .link(0, &BTreeMap::new())
            .map_err(|e| Error::Link(e.to_string()))?;

        // Size the rewritten code with a probe rewrite — the output
        // *shape* is independent of the sandbox's base/mask values (all
        // immediates encode in 4 bytes).
        let probe = Sandbox {
            base: 0,
            size: PAGE_SIZE,
        };
        let (probe_bytes, _) = sfi_rewrite_image(&image, &probe)?;
        let stack_pages = opts.stack_pages_or_default();
        let heap_pages = opts.heap_pages_or_default();
        let code_pages = (probe_bytes.len() as u32).div_ceil(PAGE_SIZE).max(1);
        let sandbox_pages = (code_pages + stack_pages + heap_pages).next_power_of_two();
        let size = sandbox_pages * PAGE_SIZE;

        // host_mmap only page-aligns; over-allocate and carve the
        // size-aligned subrange the masking arithmetic requires.
        let alloc_pages = sandbox_pages * 2;
        let alloc = k.host_mmap(
            self.tid,
            alloc_pages,
            true,
            false,
            AreaKind::ExtensionPrivate,
        )?;
        let base = alloc.next_multiple_of(size);
        debug_assert!(base + size <= alloc + alloc_pages * PAGE_SIZE);
        let sb = Sandbox { base, size };
        let (code, map) = sfi_rewrite_image(&image, &sb)?;
        assert!(k.m.host_write(base, &code));
        k.m.charge(DLOPEN_BASE_CYCLES);

        // Function symbols relocate through the rewrite's offset map;
        // data symbols (not on an instruction boundary) are dropped —
        // the admitted subset has none.
        let symbols: BTreeMap<String, u32> = obj
            .symbols
            .iter()
            .filter_map(|(s, off)| map.get(off).map(|&o| (s.clone(), base + o)))
            .collect();

        // Masked stray accesses land in the data area after the code.
        let data_base = base + code_pages * PAGE_SIZE;
        let heap_base = base + size - heap_pages * PAGE_SIZE;
        std::sync::Arc::make_mut(&mut self.exts).push(Ext {
            base: alloc,
            pages: alloc_pages,
            symbols,
            arg_slot: 0,
            esp_slot: 0,
            tramp3_base: 0,
            tramp3_next: 0,
            preps: BTreeMap::new(),
            got_page: None,
            got_slots: None,
            plt_range: None,
            stack: (data_base, heap_base),
            heap: (heap_base, base + size),
            verified: None,
            eager_predecode: false,
            backend: BackendKind::Sfi,
            sandbox: Some((base, size)),
            closed: false,
        });
        Ok(ExtensionHandle(self.exts.len() - 1))
    }

    /// Runs the static verifier over an already-loaded extension image.
    fn verify_loaded(
        &self,
        k: &Kernel,
        h: ExtensionHandle,
        entries: &[&str],
    ) -> Result<Attestation, verifier::VerifyError> {
        let ext = &self.exts[h.0];
        let image = k.m.host_read(ext.base, (ext.pages * PAGE_SIZE) as usize);
        let entry_offs: Vec<u32> = entries
            .iter()
            .filter_map(|n| ext.symbols.get(*n).map(|&a| a - ext.base))
            .collect();
        let mut policy = VerifyPolicy::new(3, ext.base)
            .allow_data(ext.stack.0, ext.stack.1)
            .allow_data(ext.heap.0, ext.heap.1)
            .allow_gate(self.gate_sel);
        for &g in &self.service_gates {
            policy = policy.allow_gate(g);
        }
        if let Some((lo, hi)) = ext.got_slots {
            policy = policy.allow_slots(lo, hi);
        }
        if let Some((lo, hi)) = ext.plt_range {
            policy = policy.allow_code(lo, hi);
        }
        for lib in self.libs.iter() {
            policy = policy.allow_code(lib.range.0, lib.range.1);
        }
        verify_image(&image, &entry_offs, &policy)
    }

    /// The `Verified` attestation of an extension, if it was admitted
    /// through a verifying load ([`DlopenOptions::verify`]).
    pub fn attestation(&self, h: ExtensionHandle) -> Result<Option<Attestation>, Error> {
        Ok(self.ext(h)?.verified.clone())
    }

    /// Address of the invoke stub (the canonical call site used by
    /// [`ExtensibleApp::call_extension`]).
    pub fn invoke_stub_addr(&self) -> u32 {
        self.invoke_stub
    }

    /// Address of the per-application `AppCallGate` routine.
    pub fn app_callgate_addr(&self) -> u32 {
        self.callgate_addr
    }

    /// Addresses of a resolved function's `Prepare` and `Transfer`
    /// routines (for phase-attributed measurements; `seg_dlsym` must have
    /// resolved the function first).
    pub fn trampoline_addrs(&self, h: ExtensionHandle, name: &str) -> Option<(u32, u32)> {
        self.exts.get(h.0)?.preps.get(name).copied()
    }

    /// Makes an *unprotected* call to a plain application function at
    /// SPL 2 through the same invoke stub used for protected calls — the
    /// Table 1 "Intra" comparison path. Returns `eax`.
    pub fn call_app_function(
        &mut self,
        k: &mut Kernel,
        func: u32,
        arg: u32,
    ) -> Result<u32, ExtCallError> {
        self.call_extension(k, func, arg)
    }

    /// The GOT page address of an extension, if it has imports (exposed
    /// for tests and debuggers).
    pub fn got_page(&self, h: ExtensionHandle) -> Result<Option<u32>, Error> {
        Ok(self.ext(h)?.got_page)
    }

    /// `dlsym`: resolves a *data* symbol to its raw address (§4.4.2: data
    /// pointers need no massaging because the segments share a base).
    pub fn dlsym(&self, h: ExtensionHandle, name: &str) -> Result<u32, Error> {
        let ext = self.ext(h)?;
        ext.symbols
            .get(name)
            .copied()
            .ok_or_else(|| Error::NoSymbol(name.to_string()))
    }

    fn ext(&self, h: ExtensionHandle) -> Result<&Ext, Error> {
        let e = self.exts.get(h.0).ok_or(Error::Closed)?;
        if e.closed {
            return Err(Error::Closed);
        }
        Ok(e)
    }

    /// `seg_dlsym`: resolves a *function* symbol, generating its
    /// `Prepare`/`Transfer` pair on first use, and returns a pointer to
    /// `Prepare` — the only entry point the application should call.
    pub fn seg_dlsym(
        &mut self,
        k: &mut Kernel,
        h: ExtensionHandle,
        name: &str,
    ) -> Result<u32, Error> {
        k.switch_to(self.tid);
        let backend = self.ext(h)?.backend;
        {
            let ext = self.ext(h)?;
            if let Some((p, _)) = ext.preps.get(name) {
                return Ok(*p);
            }
        }
        if backend == BackendKind::Sfi {
            // No trampolines: the rewritten function runs at the
            // application's own privilege level and is called directly.
            let addr = *self
                .ext(h)?
                .symbols
                .get(name)
                .ok_or_else(|| Error::NoSymbol(name.to_string()))?;
            let exts = std::sync::Arc::make_mut(&mut self.exts);
            exts[h.0].preps.insert(name.to_string(), (addr, addr));
            return Ok(addr);
        }
        let (fn_addr, arg_slot, esp_slot, tramp3_at) = {
            let ext = self.ext(h)?;
            let fn_addr = *ext
                .symbols
                .get(name)
                .ok_or_else(|| Error::NoSymbol(name.to_string()))?;
            (fn_addr, ext.arg_slot, ext.esp_slot, ext.tramp3_next)
        };

        // Transfer at SPL 3 (same segments as the extension). Under
        // ProtKeys it opens with `wrpkru` dropping rights to the
        // application's key; that site must be a registered key gate or
        // the gate-integrity check rejects the write.
        let transfer_code = trampoline::transfer(TransferParams {
            location: tramp3_at,
            ext_fn: fn_addr,
            gate_sel: self.gate_sel,
            load_ds: None,
            pkru: (backend == BackendKind::ProtKeys).then(|| pkru::deny_access(&[APP_KEY])),
        });
        let tbytes = encode_program(&transfer_code);
        if tramp3_at + tbytes.len() as u32 > self.ext(h)?.tramp3_base + PAGE_SIZE {
            return Err(Error::Spawn(SpawnError::OutOfMemory));
        }
        assert!(k.m.host_write(tramp3_at, &tbytes));
        if backend == BackendKind::ProtKeys {
            // The wrpkru is the Transfer's first instruction and the
            // ring-3 code segment is flat, so the gate site is the
            // trampoline address itself.
            k.m.register_key_gate(tramp3_at);
        }

        // Prepare at SPL 2 (PPL 0 trampoline region).
        let prep_code = trampoline::prepare(PrepareParams {
            slots: self.slots,
            arg_slot,
            ext_esp_slot: esp_slot,
            stack_sel: k.sel.udata.0,
            code_sel: k.sel.ucode.0,
            transfer: tramp3_at,
        });
        let pbytes = encode_program(&prep_code);
        let prep_at = self.tramp_alloc(pbytes.len() as u32)?;
        assert!(k.m.host_write(prep_at, &pbytes));

        let ext = std::sync::Arc::make_mut(&mut self.exts)
            .get_mut(h.0)
            .unwrap();
        ext.tramp3_next = tramp3_at + tbytes.len() as u32;
        ext.preps.insert(name.to_string(), (prep_at, tramp3_at));
        Ok(prep_at)
    }

    /// `seg_dlclose`: unmaps nothing physically (frames are not recycled
    /// in this simulator) but revokes the extension's pages by clearing
    /// their PTEs' user bit, making any further call fault.
    pub fn seg_dlclose(&mut self, k: &mut Kernel, h: ExtensionHandle) -> Result<(), Error> {
        k.switch_to(self.tid);
        let (base, pages, backend) = {
            let e = self.ext(h)?;
            // A verified extension's proof tokens die with the handle
            // (other extensions' tokens stay installed).
            if let Some(att) = &e.verified {
                for p in att.proofs.blocks.values() {
                    k.m.remove_proof_token(e.base + p.start);
                }
            }
            (e.base, e.pages, e.backend)
        };
        match backend {
            // SFI code runs at the application's own level, so the U/S
            // bit cannot revoke it — unmap outright: stale calls fault
            // on page-not-present.
            BackendKind::Sfi => k.host_set_page_flags(self.tid, base, pages, 0, pte::P),
            _ => k.host_set_page_flags(self.tid, base, pages, 0, pte::US),
        }
        if backend == BackendKind::ProtKeys {
            // Gate-integrity hygiene: the dead Transfers' wrpkru sites
            // must not remain legal key-write locations.
            let sites: Vec<u32> = self.ext(h)?.preps.values().map(|&(_, t)| t).collect();
            for t in sites {
                k.m.unregister_key_gate(t);
            }
        }
        let exts = std::sync::Arc::make_mut(&mut self.exts);
        exts[h.0].closed = true;
        exts[h.0].preps.clear();
        Ok(())
    }

    /// The backend guarding an extension.
    pub fn backend_of(&self, h: ExtensionHandle) -> Result<BackendKind, Error> {
        Ok(self.ext(h)?.backend)
    }

    /// The SFI sandbox region of a [`BackendKind::Sfi`] extension.
    pub fn sandbox_of(&self, h: ExtensionHandle) -> Result<Option<(u32, u32)>, Error> {
        Ok(self.ext(h)?.sandbox)
    }

    /// Address of the application's ESP save slot — application-private
    /// state an extension must never reach, whatever the backend
    /// (conformance suites use it as the canonical wild-write victim).
    pub fn save_slot_addr(&self) -> u32 {
        self.slots.sp_slot
    }

    /// Audits for protection state leaked past an unload; one
    /// human-readable finding per leak, empty when clean.
    ///
    /// A closed extension must keep no resolvable entry points, and every
    /// registered `wrpkru` key gate must be the `Transfer` trampoline of
    /// an *open* [`BackendKind::ProtKeys`] extension (Garmr-style gate
    /// integrity: the gate, not the sandbox, is what an attacker goes
    /// for). Only ProtKeys loads register gates, so the gate check finds
    /// nothing for the other backends unless something else leaked one.
    pub fn leak_audit(&self, k: &Kernel) -> Vec<String> {
        let mut findings: Vec<String> = self
            .exts
            .iter()
            .enumerate()
            .filter(|(_, e)| e.closed && !e.preps.is_empty())
            .map(|(i, _)| format!("closed extension #{i} still has resolvable entry points"))
            .collect();
        for site in k.m.key_gate_sites() {
            let owned = self.exts.iter().any(|e| {
                !e.closed
                    && e.backend == BackendKind::ProtKeys
                    && e.preps.values().any(|&(_, t)| t == site)
            });
            if !owned {
                findings.push(format!(
                    "stale key gate at {site:#010x} (no open extension)"
                ));
            }
        }
        findings
    }

    /// Re-installs the simulator proof tokens of every open verified
    /// extension from its retained attestation. Tokens are host-side
    /// derived state, deliberately excluded from checkpoints; a restored
    /// session calls this to regain the proof-elided dispatch fast path
    /// (forgetting it only costs speed — elision never changes
    /// guest-visible state).
    pub fn reinstall_proof_tokens(&self, k: &mut Kernel) {
        for e in self.exts.iter() {
            if e.closed {
                continue;
            }
            if let Some(att) = &e.verified {
                install_proof_map(k, e.base, &att.proofs);
            }
        }
    }

    /// Makes a protected extension call through the Figure 6 sequence: the
    /// whole path executes on the simulated CPU. Returns the extension's
    /// 4-byte result.
    ///
    /// Faults and CPU-limit overruns abort the call; the application's
    /// context is restored and the error returned.
    pub fn call_extension(
        &mut self,
        k: &mut Kernel,
        prepare: u32,
        arg: u32,
    ) -> Result<u32, ExtCallError> {
        k.switch_to(self.tid);
        // Verified-dispatch fast path: a call whose Prepare routine
        // belongs to an extension holding a `Verified` attestation may
        // run with predecode enabled eagerly — the attestation proves
        // the disassembled view matches the executed stream.
        let verified = self.exts.iter().any(|e| {
            !e.closed
                && e.verified.is_some()
                && e.eager_predecode
                && e.preps.values().any(|&(p, _)| p == prepare)
        });
        let saved_predecode = k.m.predecode_enabled();
        if verified {
            self.verified_calls += 1;
            k.m.set_predecode(true);
        }
        let snapshot = k.m.cpu.clone();
        k.m.cpu.set_reg(Reg::Eax, arg);
        k.m.cpu.set_reg(Reg::Ebx, prepare);
        k.m.cpu.eip = self.invoke_stub;

        let limit = k.extension_cycle_limit;
        let out = k.run_current(Budget::Cycles(limit));
        k.m.set_predecode(saved_predecode);
        match out {
            Outcome::Hook(v) if v == UEXT_DONE_VECTOR => {
                let result = k.m.cpu.reg(Reg::Eax);
                k.m.cpu = snapshot;
                self.calls += 1;
                Ok(result)
            }
            Outcome::Hook(v) if v == UEXT_FAULT_VECTOR => {
                // The SIGSEGV trampoline ran: eax = signal, ebx = address.
                let sig = k.m.cpu.reg(Reg::Eax) as u8;
                let addr = k.m.cpu.reg(Reg::Ebx);
                // The guest trampoline only sees (signal, address); the
                // structured cause rides along from the kernel's fault
                // dispatcher so callers and audit oracles know *why*
                // containment fired.
                let cause = k.last_fault.take().map(|f| f.cause);
                k.host_clear_sigcontext(self.tid);
                k.m.cpu = snapshot;
                self.aborted_calls += 1;
                Err(ExtCallError::Fault { sig, addr, cause })
            }
            Outcome::Budget => {
                // §4.5.2: the timer expired; the kernel aborts the
                // extension and signals the application.
                k.m.charge(k.costs.signal_deliver);
                k.host_clear_sigcontext(self.tid);
                k.m.cpu = snapshot;
                self.aborted_calls += 1;
                Err(ExtCallError::TimeLimit)
            }
            Outcome::Signaled { fault, .. } => {
                self.aborted_calls += 1;
                Err(ExtCallError::Killed(fault))
            }
            Outcome::Hook(_) | Outcome::Exited(_) | Outcome::Halted => {
                k.m.cpu = snapshot;
                self.aborted_calls += 1;
                Err(ExtCallError::TimeLimit)
            }
        }
    }

    /// Allocates a shared data area: mmapped by the (SPL 2) application —
    /// hence PPL 0 — then exposed with `set_range` (PPL 1). Both the
    /// application and its extensions can read and write it.
    pub fn alloc_shared(&mut self, k: &mut Kernel, pages: u32) -> Result<u32, Error> {
        k.switch_to(self.tid);
        let addr = k.host_mmap(self.tid, pages, true, false, AreaKind::Anon)?;
        let r = k.palladium_set_range(addr, pages * PAGE_SIZE);
        if r != 0 {
            return Err(Error::Kernel("set_range", r));
        }
        Ok(addr)
    }

    /// Exports an application service to extensions: generates a
    /// `ServiceEntry` wrapper around `impl_addr` (SPL 2 guest code) and
    /// registers a DPL 3 call gate for it. Returns the gate selector the
    /// extension should `lcall`.
    pub fn register_service(&mut self, k: &mut Kernel, impl_addr: u32) -> Result<u16, Error> {
        k.switch_to(self.tid);
        // Generate at a known location (two-pass: reserve, then write).
        let probe = trampoline::service_entry(0, impl_addr);
        let len = encode_program(&probe).len() as u32;
        let at = self.tramp_alloc(len)?;
        let code = trampoline::service_entry(at, impl_addr);
        let bytes = encode_program(&code);
        debug_assert_eq!(bytes.len() as u32, len);
        assert!(k.m.host_write(at, &bytes));
        k.switch_to(self.tid);
        let gate = k.palladium_set_call_gate(at);
        if gate < 0 {
            return Err(Error::Kernel("set_call_gate", gate));
        }
        self.service_gates.push(gate as u16);
        Ok(gate as u16)
    }

    /// Builds a linkable object of extension-side calling stubs for a set
    /// of registered application services: each `(name, gate)` pair yields
    /// a `name` symbol extensions can simply `call` (the §6 "stub code
    /// generators"). Merge the object into an extension image for
    /// `seg_dlopen`.
    ///
    /// Each stub pops its own return address into a private slot before
    /// the gate `lcall`, so the service implementation sees exactly the
    /// stack layout of a plain near call (`[esp+4]` = first argument) —
    /// gcc-style parameter passing stays transparent, including variadic
    /// services. The slot makes the stub non-reentrant, which matches the
    /// extension model (§4.1: single-threaded, run-to-completion).
    pub fn service_stubs_object(services: &[(&str, u16)]) -> asm86::Object {
        let mut b = asm86::CodeBuilder::new();
        for (name, gate) in services {
            let slot = format!("__ret_slot_{name}");
            b.label(name).expect("unique service names");
            b.popm_label(&slot, 0);
            b.emit(asm86::Insn::Lcall(*gate, 0));
            b.jmpm_label(&slot, 0);
            b.label(&slot).expect("unique slot");
            b.dword(0);
        }
        b.finish().expect("stub object")
    }

    // ----- durable checkpoints ----------------------------------------------

    /// Serializes the runtime state of the application — counters,
    /// trampoline cursors, the extension and shared-library tables with
    /// their attestations — into `e`. All guest memory the extensions
    /// occupy lives in the kernel's machine image; this is the host-side
    /// bookkeeping that makes the loaded extensions callable again after
    /// [`restore_from`](Self::restore_from).
    pub fn save_into(&self, e: &mut Enc) {
        e.u32(self.tid);
        e.u16(self.gate_sel);
        e.u64(self.calls);
        e.u64(self.aborted_calls);
        e.u64(self.verified_calls);
        e.u32(self.invoke_stub);
        e.u32(self.callgate_addr);
        e.u32(self.slots.sp_slot);
        e.u32(self.slots.bp_slot);
        e.u32(self.tramp_next);
        e.u32(self.tramp_end);
        e.u32(self.exts.len() as u32);
        for ext in self.exts.iter() {
            put_ext(e, ext);
        }
        e.u32(self.libs.len() as u32);
        for lib in self.libs.iter() {
            ckpt::put_str_u32_map(e, &lib.symbols);
            e.u32(lib.range.0);
            e.u32(lib.range.1);
        }
        e.u32(self.service_gates.len() as u32);
        for g in &self.service_gates {
            e.u16(*g);
        }
    }

    /// Rebuilds an application from [`save_into`](Self::save_into) bytes.
    /// Pair with the kernel image saved at the same instant — the
    /// trampolines and extension images this state points at live in
    /// guest memory.
    pub fn restore_from(d: &mut Dec) -> Result<ExtensibleApp, RestoreError> {
        let tid = d.u32()?;
        let gate_sel = d.u16()?;
        let calls = d.u64()?;
        let aborted_calls = d.u64()?;
        let verified_calls = d.u64()?;
        let invoke_stub = d.u32()?;
        let callgate_addr = d.u32()?;
        let slots = SaveSlots {
            sp_slot: d.u32()?,
            bp_slot: d.u32()?,
        };
        let tramp_next = d.u32()?;
        let tramp_end = d.u32()?;
        let nexts = d.u32()?;
        let mut exts = Vec::with_capacity(nexts as usize);
        for _ in 0..nexts {
            exts.push(get_ext(d)?);
        }
        let nlibs = d.u32()?;
        let mut libs = Vec::with_capacity(nlibs as usize);
        for _ in 0..nlibs {
            let symbols = ckpt::get_str_u32_map(d)?;
            let range = (d.u32()?, d.u32()?);
            libs.push(LoadedLib { symbols, range });
        }
        let ngates = d.u32()?;
        let mut service_gates = Vec::with_capacity(ngates as usize);
        for _ in 0..ngates {
            service_gates.push(d.u16()?);
        }
        Ok(ExtensibleApp {
            tid,
            gate_sel,
            calls,
            aborted_calls,
            verified_calls,
            invoke_stub,
            callgate_addr,
            slots,
            tramp_next,
            tramp_end,
            exts: std::sync::Arc::new(exts),
            libs: std::sync::Arc::new(libs),
            service_gates,
        })
    }

    /// Installs raw guest code into the application trampoline region
    /// (PPL 0, SPL 2) — used for application-service implementations and
    /// benchmark stubs. Returns its address.
    pub fn install_app_code(
        &mut self,
        k: &mut Kernel,
        obj: &Object,
    ) -> Result<BTreeMap<String, u32>, Error> {
        self.install_app_code_linked(k, obj, &BTreeMap::new())
    }

    /// As [`ExtensibleApp::install_app_code`], resolving the object's
    /// imports against `externs` (e.g. a direct call to a generated
    /// `Prepare` routine).
    pub fn install_app_code_linked(
        &mut self,
        k: &mut Kernel,
        obj: &Object,
        externs: &BTreeMap<String, u32>,
    ) -> Result<BTreeMap<String, u32>, Error> {
        k.switch_to(self.tid);
        let at = self.tramp_alloc(obj.len() as u32)?;
        let image = obj
            .link(at, externs)
            .map_err(|e| Error::Link(e.to_string()))?;
        assert!(k.m.host_write(at, &image));
        Ok(obj
            .symbols
            .iter()
            .map(|(s, off)| (s.clone(), at + off))
            .collect())
    }
}

fn put_ext(e: &mut Enc, x: &Ext) {
    e.u32(x.base);
    e.u32(x.pages);
    ckpt::put_str_u32_map(e, &x.symbols);
    e.u32(x.arg_slot);
    e.u32(x.esp_slot);
    e.u32(x.tramp3_base);
    e.u32(x.tramp3_next);
    e.u32(x.preps.len() as u32);
    for (name, (p, t)) in &x.preps {
        e.str(name);
        e.u32(*p);
        e.u32(*t);
    }
    ckpt::put_opt_u32(e, x.got_page);
    ckpt::put_opt_pair(e, x.got_slots);
    ckpt::put_opt_pair(e, x.plt_range);
    e.u32(x.stack.0);
    e.u32(x.stack.1);
    e.u32(x.heap.0);
    e.u32(x.heap.1);
    ckpt::put_opt_attestation(e, x.verified.as_ref());
    e.bool(x.eager_predecode);
    e.u8(x.backend.code());
    ckpt::put_opt_pair(e, x.sandbox);
    e.bool(x.closed);
}

fn get_ext(d: &mut Dec) -> Result<Ext, RestoreError> {
    let base = d.u32()?;
    let pages = d.u32()?;
    let symbols = ckpt::get_str_u32_map(d)?;
    let arg_slot = d.u32()?;
    let esp_slot = d.u32()?;
    let tramp3_base = d.u32()?;
    let tramp3_next = d.u32()?;
    let npreps = d.u32()?;
    let mut preps = BTreeMap::new();
    for _ in 0..npreps {
        let name = d.str()?;
        let p = d.u32()?;
        let t = d.u32()?;
        preps.insert(name, (p, t));
    }
    let got_page = ckpt::get_opt_u32(d)?;
    let got_slots = ckpt::get_opt_pair(d)?;
    let plt_range = ckpt::get_opt_pair(d)?;
    let stack = (d.u32()?, d.u32()?);
    let heap = (d.u32()?, d.u32()?);
    let verified = ckpt::get_opt_attestation(d)?;
    let eager_predecode = d.bool()?;
    let code = d.u8()?;
    let backend = BackendKind::from_code(code).ok_or_else(|| d.fail("unknown backend code"))?;
    let sandbox = ckpt::get_opt_pair(d)?;
    let closed = d.bool()?;
    Ok(Ext {
        base,
        pages,
        symbols,
        arg_slot,
        esp_slot,
        tramp3_base,
        tramp3_next,
        preps,
        got_page,
        got_slots,
        plt_range,
        stack,
        heap,
        verified,
        eager_predecode,
        backend,
        sandbox,
        closed,
    })
}

/// Decodes `image`, rewrites it instruction-by-instruction through the
/// SFI rewriter (whose transformation is per-instruction local), and
/// re-encodes — returning the rewritten bytes plus the map from input
/// byte offsets to output byte offsets that relocates function symbols.
fn sfi_rewrite_image(image: &[u8], sb: &Sandbox) -> Result<(Vec<u8>, BTreeMap<u32, u32>), Error> {
    let mut out = Vec::new();
    let mut map = BTreeMap::new();
    let mut in_off = 0usize;
    let mut out_len = 0u32;
    while in_off < image.len() {
        let (insn, len) = decode(&image[in_off..])
            .map_err(|_| Error::Sfi(SfiError::Unsupported("undecodable bytes (inline data)")))?;
        let (rewritten, _) = sfi::rewrite(&[insn], sb, SfiPolicy::WriteProtect)?;
        map.insert(in_off as u32, out_len);
        let bytes = encode_program(&rewritten);
        out_len += bytes.len() as u32;
        out.extend_from_slice(&bytes);
        in_off += len;
    }
    Ok((out, map))
}
