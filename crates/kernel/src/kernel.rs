//! The kernel proper: boot, task management, the syscall interface, the
//! Palladium-aware page-fault handler, and signals.
//!
//! The kernel is *host* code playing ring 0: interrupt vectors are host
//! hooks (see [`x86sim::machine::IdtGate`]), and kernel work is charged
//! from the [`KernelCosts`] table. Everything user- or extension-level
//! executes as guest code on the simulated CPU with full protection
//! checks.

use std::collections::BTreeMap;

use asm86::isa::{Reg, SegReg};
use asm86::Object;
use x86sim::desc::{Descriptor, Selector};
use x86sim::fault::Fault;
use x86sim::image::{self, base, kind, Dec, Enc, ImageBuilder, ImageView, RestoreError};
use x86sim::machine::{Exit, IdtGate, Machine};
use x86sim::mem::{FrameAlloc, PAGE_SIZE};
use x86sim::paging::{get_pte, map_page, pte, update_pte_flags};

use crate::costs::KernelCosts;
use crate::layout::{
    self, errno, prot, sys, Selectors, KERNEL_VA_END, KERNEL_VA_START, PHYS_POOL_END,
    PHYS_POOL_START, USER_LIMIT, USER_STACK_PAGES, USER_STACK_TOP, USER_TEXT,
};
use crate::task::{Task, Tid};
use crate::vas::{AreaKind, Vas, VmArea};

/// SIGSEGV number (as on Linux).
pub const SIGSEGV: u8 = 11;

/// An execution budget for [`Kernel::run_current`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Budget {
    /// At most this many guest instructions.
    Insns(u64),
    /// Until the machine cycle counter advances by this much.
    Cycles(u64),
}

/// Why [`Kernel::run_current`] returned.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Outcome {
    /// The task called `exit`.
    Exited(i32),
    /// The task was killed by an unhandled signal.
    Signaled {
        /// Signal number (SIGSEGV for protection violations).
        sig: u8,
        /// The underlying hardware fault.
        fault: Fault,
    },
    /// Guest code invoked a host-hook vector the kernel does not service
    /// (e.g. the kernel-extension vectors) — the caller decides.
    Hook(u8),
    /// Guest `hlt` at CPL 0 (a kernel stub finished).
    Halted,
    /// The budget ran out.
    Budget,
}

/// Aggregate kernel statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// System calls dispatched.
    pub syscalls: u64,
    /// System calls rejected by the taskSPL/SPL-3 rule.
    pub syscalls_rejected: u64,
    /// Faults handled.
    pub faults: u64,
    /// Signals delivered to handlers.
    pub signals_delivered: u64,
    /// Tasks killed by signals.
    pub kills: u64,
    /// Forks performed.
    pub forks: u64,
    /// Context switches performed.
    pub context_switches: u64,
}

/// Errors from task creation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpawnError {
    /// Physical memory exhausted.
    OutOfMemory,
    /// The image failed to link.
    Link(String),
    /// The image overlaps a reserved range.
    BadLayout,
}

impl core::fmt::Display for SpawnError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SpawnError::OutOfMemory => write!(f, "out of physical memory"),
            SpawnError::Link(e) => write!(f, "link error: {e}"),
            SpawnError::BadLayout => write!(f, "image overlaps reserved range"),
        }
    }
}

impl std::error::Error for SpawnError {}

/// The kernel.
///
/// `Clone` forks the whole world — machine (copy-on-write frames, see
/// [`Machine::fork`]), frame allocator, tasks, kernel VA state — so a
/// warmed kernel can be snapshotted once and cloned per shard or
/// replica in microseconds instead of paying `Kernel::boot` each time.
#[derive(Debug)]
pub struct Kernel {
    /// The simulated machine.
    pub m: Machine,
    /// Physical frame allocator.
    pub frames: FrameAlloc,
    /// Kernel work cost table.
    pub costs: KernelCosts,
    /// Well-known GDT selectors.
    pub sel: Selectors,
    /// Console output (fd 1).
    pub console: Vec<u8>,
    /// Statistics.
    pub stats: KernelStats,
    /// CPU-time limit (cycles) for a single extension invocation (§4.5.2);
    /// enforced by the Palladium runtime via timer-interrupt checks.
    pub extension_cycle_limit: u64,
    /// The most recent fault the kernel turned into a signal (not the
    /// demand-paging faults it services transparently). Carries the full
    /// structured [`FaultCause`](x86sim::FaultCause), so runtimes that learn of an abort
    /// through a guest trampoline (which can only pass two registers) can
    /// still report *why* containment fired.
    pub last_fault: Option<Fault>,
    /// Task table, shared copy-on-write across forked worlds (clones of
    /// a warmed kernel): a fork pays two pointer bumps here and
    /// materializes a private table on its first task mutation.
    tasks: std::sync::Arc<BTreeMap<Tid, Task>>,
    current: Option<Tid>,
    next_tid: Tid,
    /// Preallocated kernel page-directory entries, shared by every task
    /// (and, read-only after boot, by every fork).
    kernel_pdes: std::sync::Arc<[(u32, u32)]>,
    /// Page directory used when no task is current.
    kernel_cr3: u32,
    /// Kernel dynamic VA bump pointer.
    kva_next: u32,
    /// Freed kernel VA ranges `(base, pages)`, reused exact-fit before the
    /// bump pointer advances (most recently freed first, so allocation is
    /// deterministic across reclaim cycles).
    kva_free: Vec<(u32, u32)>,
}

/// Written out rather than derived: a derived `clone` is `#[inline]`,
/// so every crate that forks a kernel would compile its own copy of it,
/// and in a build without optimization (the `bench` and `webserver`
/// crates under `cargo test`) that copy is several times slower. This
/// one is compiled once, here.
impl Clone for Kernel {
    fn clone(&self) -> Kernel {
        Kernel {
            m: self.m.clone(),
            frames: self.frames.clone(),
            costs: self.costs.clone(),
            sel: self.sel,
            console: self.console.clone(),
            stats: self.stats,
            extension_cycle_limit: self.extension_cycle_limit,
            last_fault: self.last_fault,
            tasks: std::sync::Arc::clone(&self.tasks),
            current: self.current,
            next_tid: self.next_tid,
            kernel_pdes: std::sync::Arc::clone(&self.kernel_pdes),
            kernel_cr3: self.kernel_cr3,
            kva_next: self.kva_next,
            kva_free: self.kva_free.clone(),
        }
    }
}

impl Kernel {
    /// Boots the kernel: builds the GDT/IDT, the shared kernel page
    /// tables, and enables paging.
    pub fn boot() -> Kernel {
        Kernel::boot_with_memory(PHYS_POOL_END - PHYS_POOL_START)
    }

    /// Boots with a bounded physical pool (for memory-pressure and
    /// failure-injection tests). `pool_bytes` is rounded down to whole
    /// pages; the kernel's own boot structures consume about 130 pages.
    pub fn boot_with_memory(pool_bytes: u32) -> Kernel {
        let mut m = Machine::new();
        let pool_end = PHYS_POOL_START + (pool_bytes & !(PAGE_SIZE - 1));
        let mut frames =
            FrameAlloc::new(PHYS_POOL_START, pool_end.max(PHYS_POOL_START + PAGE_SIZE));

        // Fixed GDT layout (see `layout::Selectors`).
        let kcode = m.gdt.push(Descriptor::flat_code(0));
        let kdata = m.gdt.push(Descriptor::flat_data(0));
        let ucode = m.gdt.push(Descriptor::code(0, USER_LIMIT, 3));
        let udata = m.gdt.push(Descriptor::data(0, USER_LIMIT, 3));
        let ucode2 = m.gdt.push(Descriptor::code(0, USER_LIMIT, 2));
        let udata2 = m.gdt.push(Descriptor::data(0, USER_LIMIT, 2));
        let sel = Selectors {
            kcode: Selector::new(kcode, false, 0),
            kdata: Selector::new(kdata, false, 0),
            ucode: Selector::new(ucode, false, 3),
            udata: Selector::new(udata, false, 3),
            ucode2: Selector::new(ucode2, false, 2),
            udata2: Selector::new(udata2, false, 2),
        };

        // IDT host hooks.
        m.idt[layout::SYSCALL_VECTOR as usize] = Some(IdtGate { dpl: 3 });
        m.idt[layout::KSERVICE_VECTOR as usize] = Some(IdtGate { dpl: 1 });
        m.idt[layout::SIGRETURN_VECTOR as usize] = Some(IdtGate { dpl: 3 });
        m.idt[layout::KEXT_DONE_VECTOR as usize] = Some(IdtGate { dpl: 0 });
        m.idt[layout::UEXT_DONE_VECTOR as usize] = Some(IdtGate { dpl: 2 });
        m.idt[layout::UEXT_FAULT_VECTOR as usize] = Some(IdtGate { dpl: 2 });

        // Preallocate page tables covering the kernel dynamic region, so
        // every task's page directory can share them by copying PDEs.
        let mut kernel_pdes = Vec::new();
        let mut lin = KERNEL_VA_START;
        while lin < KERNEL_VA_END {
            let pt = frames.alloc().expect("boot: page-table frame");
            m.mem.zero(pt, PAGE_SIZE);
            // Supervisor-only at the directory level: the U/S of kernel
            // mappings can never be granted by a PTE alone.
            kernel_pdes.push((lin >> 22, pt | pte::P | pte::RW));
            lin += 0x40_0000;
        }

        // A kernel-only page directory for when no task is current.
        let kernel_cr3 = frames.alloc().expect("boot: kernel cr3");
        m.mem.zero(kernel_cr3, PAGE_SIZE);
        for (idx, val) in &kernel_pdes {
            m.mem.write_u32(kernel_cr3 + idx * 4, *val);
        }
        m.mmu.set_cr3(kernel_cr3);
        m.mmu.set_enabled(true);

        Kernel {
            m,
            frames,
            costs: KernelCosts::default(),
            sel,
            console: Vec::new(),
            stats: KernelStats::default(),
            extension_cycle_limit: 10_000_000,
            last_fault: None,
            tasks: std::sync::Arc::new(BTreeMap::new()),
            current: None,
            next_tid: 1,
            kernel_pdes: kernel_pdes.into(),
            kernel_cr3,
            kva_next: KERNEL_VA_START,
            kva_free: Vec::new(),
        }
    }

    // ----- kernel memory ----------------------------------------------------

    /// Allocates `n` pages of kernel virtual memory (supervisor,
    /// writable), visible in every address space. Returns the linear base.
    ///
    /// A range freed by [`free_kernel_pages`](Self::free_kernel_pages) is
    /// reused when its page count matches exactly (most recently freed
    /// first); otherwise the bump pointer advances. Either way the pages
    /// are backed by fresh zeroed frames.
    pub fn alloc_kernel_pages(&mut self, n: u32) -> Result<u32, SpawnError> {
        // Reserve the frames first so a mid-range failure cannot leave a
        // half-mapped region behind.
        let mut frames = Vec::with_capacity(n as usize);
        for _ in 0..n {
            match self.frames.alloc() {
                Some(f) => frames.push(f),
                None => {
                    for f in frames {
                        self.frames.free(f);
                    }
                    return Err(SpawnError::OutOfMemory);
                }
            }
        }

        let base = match self.kva_free.iter().rposition(|&(_, pages)| pages == n) {
            Some(pos) => self.kva_free.remove(pos).0,
            None => {
                let base = self.kva_next;
                if base + n * PAGE_SIZE > KERNEL_VA_END {
                    for f in frames {
                        self.frames.free(f);
                    }
                    return Err(SpawnError::OutOfMemory);
                }
                self.kva_next = base + n * PAGE_SIZE;
                base
            }
        };

        for (i, frame) in frames.into_iter().enumerate() {
            let lin = base + i as u32 * PAGE_SIZE;
            self.m.mem.zero(frame, PAGE_SIZE);
            let (_, pde_val) = self.kernel_pdes[((lin - KERNEL_VA_START) >> 22) as usize];
            let pt = pde_val & pte::FRAME;
            self.m
                .mem
                .write_u32(pt + ((lin >> 12) & 0x3FF) * 4, frame | pte::P | pte::RW);
            self.m.mmu.flush_page(lin);
        }
        Ok(base)
    }

    /// Frees `n` pages of kernel virtual memory previously returned by
    /// [`alloc_kernel_pages`](Self::alloc_kernel_pages): each backing
    /// frame returns to the frame allocator, the shared-kernel-page-table
    /// PTE is cleared (visible in every address space), and the VA range
    /// is recorded for exact-fit reuse. Pages already unmapped (e.g. by
    /// fault injection) are skipped, so the call is idempotent per page.
    pub fn free_kernel_pages(&mut self, base: u32, n: u32) {
        debug_assert_eq!(base & (PAGE_SIZE - 1), 0, "base must be page-aligned");
        debug_assert!(base >= KERNEL_VA_START && base + n * PAGE_SIZE <= KERNEL_VA_END);
        for i in 0..n {
            let lin = base + i * PAGE_SIZE;
            let (_, pde_val) = self.kernel_pdes[((lin - KERNEL_VA_START) >> 22) as usize];
            let pt = pde_val & pte::FRAME;
            let pte_addr = pt + ((lin >> 12) & 0x3FF) * 4;
            let entry = self.m.mem.read_u32(pte_addr);
            if entry & pte::P == 0 {
                continue;
            }
            self.m.mem.write_u32(pte_addr, 0);
            self.frames.free(entry & pte::FRAME);
            self.m.mmu.flush_page(lin);
        }
        if !self.kva_free.contains(&(base, n)) {
            self.kva_free.push((base, n));
        }
    }

    /// Whether a freed kernel VA range is still awaiting reuse. While it
    /// is, every page in it must be unmapped — the leak audit's
    /// distinction between "returned" and "recycled by a later owner".
    pub fn kernel_range_free(&self, base: u32, pages: u32) -> bool {
        self.kva_free.contains(&(base, pages))
    }

    /// Whether a kernel VA page is currently mapped — the leak audit uses
    /// this to prove a reclaimed segment left nothing behind.
    pub fn kernel_page_mapped(&self, lin: u32) -> bool {
        if !(KERNEL_VA_START..KERNEL_VA_END).contains(&lin) {
            return false;
        }
        let (_, pde_val) = self.kernel_pdes[((lin - KERNEL_VA_START) >> 22) as usize];
        let pt = pde_val & pte::FRAME;
        self.m.mem.read_u32(pt + ((lin >> 12) & 0x3FF) * 4) & pte::P != 0
    }

    /// Writes bytes into kernel virtual memory. Returns false when any
    /// byte falls on an unmapped kernel VA (e.g. a mapping revoked by
    /// fault injection) — callers on module-load paths surface this as a
    /// structured link error rather than panicking the host.
    #[must_use]
    pub fn kwrite(&mut self, lin: u32, data: &[u8]) -> bool {
        self.m.host_write(lin, data)
    }

    /// Reads bytes from kernel virtual memory.
    pub fn kread(&self, lin: u32, len: usize) -> Vec<u8> {
        self.m.host_read(lin, len)
    }

    // ----- task management --------------------------------------------------

    /// The current task id, if any.
    pub fn current_tid(&self) -> Option<Tid> {
        self.current
    }

    /// Borrows a task.
    pub fn task(&self, tid: Tid) -> &Task {
        &self.tasks[&tid]
    }

    /// Mutably borrows a task (splitting a task table still shared with
    /// a forked world — the copy-on-write choke point for task state).
    pub fn task_mut(&mut self, tid: Tid) -> &mut Task {
        std::sync::Arc::make_mut(&mut self.tasks)
            .get_mut(&tid)
            .expect("no such task")
    }

    /// All live task ids.
    pub fn tids(&self) -> Vec<Tid> {
        self.tasks.keys().copied().collect()
    }

    /// Creates a task from a linked program object.
    ///
    /// The image is linked at [`USER_TEXT`] against `externs` and entered
    /// at its `_start` (or `entry`, or offset 0) symbol at SPL 3.
    pub fn spawn(
        &mut self,
        obj: &Object,
        externs: &BTreeMap<String, u32>,
    ) -> Result<Tid, SpawnError> {
        let tid = self.next_tid;
        self.next_tid += 1;

        let cr3 = self.new_page_directory()?;
        let mut vas = Vas::new();
        let brk = self.load_image_into(cr3, &mut vas, obj, externs, USER_TEXT)?;

        // Stack.
        let stack_base = USER_STACK_TOP - USER_STACK_PAGES * PAGE_SIZE;
        self.map_user_range(
            cr3,
            &mut vas,
            stack_base,
            USER_STACK_PAGES,
            true,
            true,
            AreaKind::Stack,
        )?;

        // Kernel stack.
        let kstack = self.alloc_kernel_pages(2)?;
        let kstack_top = kstack + 2 * PAGE_SIZE;

        let entry_off = obj
            .symbol("_start")
            .or_else(|| obj.symbol("entry"))
            .unwrap_or(0);

        let mut cpu = x86sim::machine::Cpu::default();
        cpu.set_reg(Reg::Esp, USER_STACK_TOP);
        cpu.eip = USER_TEXT + entry_off;
        let task = Task {
            tid,
            parent: self.current,
            cr3,
            task_spl: 3,
            vas,
            cpu,
            kstack_top,
            ring2_stack_top: None,
            signal_handler: None,
            saved_sigcontext: None,
            exit_code: None,
            brk,
            ldt: x86sim::desc::DescriptorTable::new(),
            mailbox: std::collections::VecDeque::new(),
        };
        std::sync::Arc::make_mut(&mut self.tasks).insert(tid, task);

        // Establish segment caches for the saved context by temporarily
        // switching (also sets CPL 3).
        let prev = self.current;
        self.switch_to(tid);
        self.force_user_segments(3);
        self.save_current();
        if let Some(p) = prev {
            self.switch_to(p);
        }
        Ok(tid)
    }

    fn force_user_segments(&mut self, ring: u8) {
        // SS must match CPL exactly; DS/ES stay at the DPL 3 user data
        // segment even for promoted (SPL 2) applications — a DPL 3 data
        // segment is loadable from CPL 2, and keeping it avoids the
        // hardware nulling DS on every outward transfer to an extension
        // (and the 12-cycle reload that would force on the return path).
        let (code, stack) = match ring {
            2 => (self.sel.ucode2, self.sel.udata2),
            _ => (self.sel.ucode, self.sel.udata),
        };
        self.m.force_seg_from_table(SegReg::Cs, code);
        self.m.force_seg_from_table(SegReg::Ss, stack);
        self.m.force_seg_from_table(SegReg::Ds, self.sel.udata);
        self.m.force_seg_from_table(SegReg::Es, self.sel.udata);
    }

    fn new_page_directory(&mut self) -> Result<u32, SpawnError> {
        let pd = self.frames.alloc().ok_or(SpawnError::OutOfMemory)?;
        self.m.mem.zero(pd, PAGE_SIZE);
        for (idx, val) in self.kernel_pdes.iter() {
            self.m.mem.write_u32(pd + idx * 4, *val);
        }
        Ok(pd)
    }

    fn load_image_into(
        &mut self,
        cr3: u32,
        vas: &mut Vas,
        obj: &Object,
        externs: &BTreeMap<String, u32>,
        base: u32,
    ) -> Result<u32, SpawnError> {
        let image = obj
            .link(base, externs)
            .map_err(|e| SpawnError::Link(e.to_string()))?;
        let pages = (image.len() as u32).div_ceil(PAGE_SIZE).max(1);
        self.map_user_range(cr3, vas, base, pages, true, true, AreaKind::Image)?;
        // Copy the bytes through the new mapping.
        for (i, chunk) in image.chunks(PAGE_SIZE as usize).enumerate() {
            let lin = base + (i as u32) * PAGE_SIZE;
            let p = get_pte(&self.m.mem, cr3, lin).expect("just mapped") & pte::FRAME;
            self.m.mem.write_bytes(p, chunk);
        }
        Ok(base + pages * PAGE_SIZE)
    }

    /// Maps `pages` pages at `start` in the given address space, recording
    /// the area. `user_visible` sets the PTE U/S bit (PPL 1).
    #[allow(clippy::too_many_arguments)]
    pub fn map_user_range(
        &mut self,
        cr3: u32,
        vas: &mut Vas,
        start: u32,
        pages: u32,
        writable: bool,
        user_visible: bool,
        kind: AreaKind,
    ) -> Result<(), SpawnError> {
        vas.insert(VmArea {
            start,
            end: start + pages * PAGE_SIZE,
            writable,
            kind,
            demand: false,
        })
        .map_err(|_| SpawnError::BadLayout)?;
        let mut flags = 0;
        if writable {
            flags |= pte::RW;
        }
        if user_visible {
            flags |= pte::US;
        }
        for i in 0..pages {
            let frame = self.frames.alloc().ok_or(SpawnError::OutOfMemory)?;
            self.m.mem.zero(frame, PAGE_SIZE);
            if !map_page(
                &mut self.m.mem,
                &mut self.frames,
                cr3,
                start + i * PAGE_SIZE,
                frame,
                flags,
            ) {
                return Err(SpawnError::OutOfMemory);
            }
        }
        Ok(())
    }

    /// Saves the running CPU context (and LDT) into the current task.
    pub fn save_current(&mut self) {
        if let Some(tid) = self.current {
            let cpu = self.m.cpu.clone();
            let ldt = self.m.ldt.take();
            let t = self.task_mut(tid);
            t.cpu = cpu;
            if let Some(l) = ldt {
                t.ldt = l;
            }
        }
    }

    /// Switches to `tid`: saves the current context, loads the target's,
    /// reloads CR3 (flushing the TLB) and the TSS stack slots.
    pub fn switch_to(&mut self, tid: Tid) {
        if self.current == Some(tid) {
            return;
        }
        self.save_current();
        let (cpu, cr3, kstack_top, ring2, ldt) = {
            let t = self.task_mut(tid);
            (
                t.cpu.clone(),
                t.cr3,
                t.kstack_top,
                t.ring2_stack_top,
                std::mem::take(&mut t.ldt),
            )
        };
        self.m.cpu = cpu;
        self.m.ldt = Some(ldt);
        self.m.mmu.set_cr3(cr3);
        self.m.tss.stack[0] = (self.sel.kdata, kstack_top);
        if let Some(top) = ring2 {
            self.m.tss.stack[2] = (self.sel.udata2, top);
        } else {
            self.m.tss.stack[2] = (Selector(0), 0);
        }
        self.m.charge(self.costs.context_switch);
        self.stats.context_switches += 1;
        self.current = Some(tid);
    }

    /// Runs the current task until it exits, is killed, yields to an
    /// unhandled hook, or exhausts `budget`. Syscalls, sigreturns and
    /// faults are serviced internally.
    pub fn run_current(&mut self, budget: Budget) -> Outcome {
        let deadline = match budget {
            Budget::Cycles(c) => Some(self.m.cycles() + c),
            Budget::Insns(_) => None,
        };
        let mut insns_left = match budget {
            Budget::Insns(n) => n,
            Budget::Cycles(_) => u64::MAX,
        };
        loop {
            let before = self.m.insns();
            let exit = match deadline {
                Some(d) => self.m.run_until_cycles(d),
                None => self.m.run(insns_left),
            };
            insns_left = insns_left.saturating_sub(self.m.insns() - before);
            match exit {
                Exit::Hlt => return Outcome::Halted,
                Exit::InsnLimit | Exit::CycleLimit => return Outcome::Budget,
                Exit::IntHook(v) if v == layout::SYSCALL_VECTOR => {
                    if let Some(out) = self.handle_syscall() {
                        return out;
                    }
                    self.m.charge_iret_resume();
                }
                Exit::IntHook(v) if v == layout::SIGRETURN_VECTOR => {
                    if let Some(out) = self.sigreturn() {
                        return out;
                    }
                }
                Exit::IntHook(v) => return Outcome::Hook(v),
                Exit::Fault(f) => {
                    if let Some(out) = self.handle_fault(f) {
                        return out;
                    }
                }
            }
            if insns_left == 0 {
                return Outcome::Budget;
            }
        }
    }

    /// Round-robin scheduler: runs every live task in turn with a
    /// per-quantum budget until all have exited or `max_rounds` passes
    /// complete. Returns (tid, outcome) events in scheduling order.
    ///
    /// The paper's workloads are single-process, but fork/waitpid tests
    /// and the CGI example need a second task to make progress; this is
    /// the minimal Linux-style scheduler loop (each switch pays the
    /// context-switch cost, including the CR3 reload and TLB flush).
    pub fn run_all(&mut self, quantum: Budget, max_rounds: u32) -> Vec<(Tid, Outcome)> {
        let mut events = Vec::new();
        for _ in 0..max_rounds {
            let live: Vec<Tid> = self
                .tasks
                .iter()
                .filter(|(_, t)| !t.is_zombie())
                .map(|(tid, _)| *tid)
                .collect();
            if live.is_empty() {
                break;
            }
            for tid in live {
                if self.task(tid).is_zombie() {
                    continue; // reaped or exited earlier this round
                }
                self.switch_to(tid);
                let out = self.run_current(quantum);
                match out {
                    Outcome::Budget => {} // quantum expired; rotate
                    other => events.push((tid, other)),
                }
            }
        }
        events
    }

    // ----- syscalls ----------------------------------------------------------

    fn cur(&self) -> &Task {
        &self.tasks[&self.current.expect("no current task")]
    }

    fn handle_syscall(&mut self) -> Option<Outcome> {
        self.stats.syscalls += 1;
        let nr = self.m.cpu.reg(Reg::Eax);
        let (b, c, d) = (
            self.m.cpu.reg(Reg::Ebx),
            self.m.cpu.reg(Reg::Ecx),
            self.m.cpu.reg(Reg::Edx),
        );
        // The Palladium syscall gate (§4.5.2): reject direct syscalls from
        // SPL 3 code when the process has promoted itself to SPL 2 —
        // user-level extensions must go through application services.
        let cs_rpl = self.m.cpu.seg(SegReg::Cs).selector.rpl();
        if self.cur().task_spl == 2 && cs_rpl == 3 {
            self.stats.syscalls_rejected += 1;
            self.m.cpu.set_reg(Reg::Eax, (-errno::EPERM) as u32);
            return None;
        }
        self.m.charge(self.costs.syscall_dispatch);

        let ret: i32 = match nr {
            sys::EXIT => {
                let code = b as i32;
                let tid = self.current.unwrap();
                self.task_mut(tid).exit_code = Some(code);
                return Some(Outcome::Exited(code));
            }
            sys::WRITE => self.sys_write(b, c, d),
            sys::GETPID => self.current.unwrap() as i32,
            sys::BRK => self.sys_brk(b),
            sys::SIGACTION => {
                let tid = self.current.unwrap();
                self.task_mut(tid).signal_handler = if b == 0 { None } else { Some(b) };
                0
            }
            sys::MMAP => self.sys_mmap(b, c, d),
            sys::MUNMAP => self.sys_munmap(b, c),
            sys::MPROTECT => self.sys_mprotect(b, c, d),
            sys::WAITPID => self.sys_waitpid(b),
            sys::CYCLES => self.m.cycles() as i32,
            sys::MSGSEND => self.sys_msgsend(b, c, d),
            sys::MSGRECV => self.sys_msgrecv(b, c),
            sys::INIT_PL => self.sys_init_pl(cs_rpl),
            sys::SET_RANGE => self.sys_set_range(b, c, cs_rpl),
            sys::SET_CALL_GATE => self.sys_set_call_gate(b, cs_rpl),
            sys::FORK => self.sys_fork(),
            _ => -errno::ENOSYS,
        };
        self.m.cpu.set_reg(Reg::Eax, ret as u32);
        None
    }

    fn sys_write(&mut self, fd: u32, buf: u32, len: u32) -> i32 {
        if fd != 1 {
            return -errno::EINVAL;
        }
        if len > 1 << 20 || buf.checked_add(len).is_none_or(|e| e > USER_LIMIT) {
            return -errno::EFAULT;
        }
        let data = self.m.host_read(buf, len as usize);
        self.console.extend_from_slice(&data);
        // Copy cost: ~4 bytes/cycle kernel copy.
        self.m.charge((len as u64) / 4 + 40);
        len as i32
    }

    fn sys_brk(&mut self, new_brk: u32) -> i32 {
        let tid = self.current.unwrap();
        let (old_brk, cr3, spl) = {
            let t = self.task(tid);
            (t.brk, t.cr3, t.task_spl)
        };
        if new_brk == 0 {
            return old_brk as i32;
        }
        if new_brk < old_brk || new_brk > layout::SHARED_LIB_BASE {
            return -errno::EINVAL;
        }
        let start = old_brk.div_ceil(PAGE_SIZE) * PAGE_SIZE;
        let end = new_brk.div_ceil(PAGE_SIZE) * PAGE_SIZE;
        if end > start {
            let pages = (end - start) / PAGE_SIZE;
            // Heap pages are writable: PPL 0 for promoted apps (§4.5.2).
            let user_visible = spl != 2;
            let mut vas = std::mem::take(&mut self.task_mut(tid).vas);
            let r = self.map_user_range(
                cr3,
                &mut vas,
                start,
                pages,
                true,
                user_visible,
                AreaKind::Heap,
            );
            self.task_mut(tid).vas = vas;
            if r.is_err() {
                return -errno::ENOMEM;
            }
        }
        self.task_mut(tid).brk = new_brk;
        new_brk as i32
    }

    fn sys_mmap(&mut self, hint: u32, len: u32, prot_bits: u32) -> i32 {
        if len == 0 || len > 1 << 28 {
            return -errno::EINVAL;
        }
        let tid = self.current.unwrap();
        let (cr3, spl) = {
            let t = self.task(tid);
            (t.cr3, t.task_spl)
        };
        let pages = len.div_ceil(PAGE_SIZE);
        let writable = prot_bits & prot::WRITE != 0;
        let mut vas = std::mem::take(&mut self.task_mut(tid).vas);
        let addr = if hint != 0 {
            if !hint.is_multiple_of(PAGE_SIZE) {
                self.task_mut(tid).vas = vas;
                return -errno::EINVAL;
            }
            hint
        } else {
            match vas.pick_free(pages * PAGE_SIZE) {
                Some(a) => a,
                None => {
                    self.task_mut(tid).vas = vas;
                    return -errno::ENOMEM;
                }
            }
        };
        // §4.5.2's modified mmap: the region is recorded now; each page
        // materializes at page-fault time, where its PPL is decided (a
        // writable page of an SPL 2 process becomes PPL 0).
        let _ = (cr3, spl);
        let r = vas
            .insert(VmArea {
                start: addr,
                end: addr + pages * PAGE_SIZE,
                writable,
                kind: AreaKind::Anon,
                demand: true,
            })
            .map_err(|_| ());
        self.task_mut(tid).vas = vas;
        match r {
            Ok(()) => {
                self.m
                    .charge(self.costs.mmap_base + self.costs.mmap_per_page * pages as u64);
                addr as i32
            }
            Err(_) => -errno::ENOMEM,
        }
    }

    fn sys_munmap(&mut self, addr: u32, len: u32) -> i32 {
        if !addr.is_multiple_of(PAGE_SIZE) || len == 0 {
            return -errno::EINVAL;
        }
        let tid = self.current.unwrap();
        let cr3 = self.task(tid).cr3;
        // Only whole areas starting at `addr` with a matching size unmap
        // (the common mmap/munmap pairing; partial unmap is not needed by
        // any caller here).
        let end = addr + len.div_ceil(PAGE_SIZE) * PAGE_SIZE;
        let area = match self.task(tid).vas.find(addr) {
            Some(a) if a.start == addr && a.end == end => *a,
            _ => return -errno::EINVAL,
        };
        let mut lin = area.start;
        while lin < area.end {
            // Demand pages that never materialized have no PTE.
            let _ = x86sim::paging::unmap_page(&mut self.m.mem, cr3, lin);
            lin += PAGE_SIZE;
        }
        self.m.mmu.flush();
        self.task_mut(tid).vas.remove(addr);
        0
    }

    fn sys_msgsend(&mut self, dest: u32, buf: u32, len: u32) -> i32 {
        if len > 64 * 1024 || buf.checked_add(len).is_none_or(|e| e > USER_LIMIT) {
            return -errno::EFAULT;
        }
        if !self.tasks.contains_key(&dest) {
            return -errno::ESRCH;
        }
        let me = self.current.unwrap();
        let data = self.m.host_read(buf, len as usize);
        // One user->kernel copy plus queueing.
        self.m.charge(len as u64 / 4 + 120);
        self.task_mut(dest).mailbox.push_back((me, data));
        len as i32
    }

    fn sys_msgrecv(&mut self, buf: u32, maxlen: u32) -> i32 {
        if buf.checked_add(maxlen).is_none_or(|e| e > USER_LIMIT) {
            return -errno::EFAULT;
        }
        let me = self.current.unwrap();
        let Some((sender, data)) = self.task_mut(me).mailbox.pop_front() else {
            return -errno::EAGAIN;
        };
        let n = data.len().min(maxlen as usize);
        // Kernel->user copy.
        self.m.charge(n as u64 / 4 + 120);
        if !self.m.host_write(buf, &data[..n]) {
            // The buffer lies in an unmaterialized demand region (or was
            // never mapped): a real kernel's copy-to-user would fault.
            // Surface EFAULT and put the message back so it is not lost.
            self.task_mut(me).mailbox.push_front((sender, data));
            return -errno::EFAULT;
        }
        n as i32
    }

    fn sys_waitpid(&mut self, pid: u32) -> i32 {
        let me = self.current.unwrap();
        let Some(child) = self.tasks.get(&pid) else {
            return -errno::ECHILD;
        };
        if child.parent != Some(me) {
            return -errno::ECHILD;
        }
        match child.exit_code {
            // Reap: remove the zombie.
            Some(code) => {
                std::sync::Arc::make_mut(&mut self.tasks).remove(&pid);
                code
            }
            None => -errno::EAGAIN,
        }
    }

    fn sys_mprotect(&mut self, addr: u32, len: u32, prot_bits: u32) -> i32 {
        if !addr.is_multiple_of(PAGE_SIZE) || len == 0 {
            return -errno::EINVAL;
        }
        let end = match addr.checked_add(len.div_ceil(PAGE_SIZE) * PAGE_SIZE) {
            Some(e) if e <= USER_LIMIT => e,
            _ => return -errno::EINVAL,
        };
        let tid = self.current.unwrap();
        let cr3 = self.task(tid).cr3;
        // Every page must be mapped and inside this task's areas.
        let mut lin = addr;
        while lin < end {
            if self.task(tid).vas.find(lin).is_none() {
                return -errno::EINVAL;
            }
            lin += PAGE_SIZE;
        }
        let writable = prot_bits & prot::WRITE != 0;
        let mut lin = addr;
        while lin < end {
            let (set, clear) = if writable { (pte::RW, 0) } else { (0, pte::RW) };
            // Not-yet-materialized demand pages have no PTE; the area
            // update below covers them.
            update_pte_flags(&mut self.m.mem, cr3, lin, set, clear);
            lin += PAGE_SIZE;
        }
        // When the range covers a whole area, update its protection so
        // future demand faults honour it (real kernels split VMAs for
        // partial ranges; whole-area is all our callers need).
        {
            let t = self.task_mut(tid);
            if let Some(pos) = t
                .vas
                .areas()
                .iter()
                .position(|a| a.start == addr && a.end == end)
            {
                t.vas.set_writable(pos, writable);
            }
        }
        self.m.mmu.flush();
        0
    }

    fn sys_init_pl(&mut self, cs_rpl: u8) -> i32 {
        let tid = self.current.unwrap();
        if self.task(tid).task_spl != 3 || cs_rpl != 3 {
            return -errno::EPERM;
        }
        let cr3 = self.task(tid).cr3;

        // Demote every writable page to PPL 0.
        let pages: Vec<u32> = self.task(tid).vas.writable_pages().collect();
        for lin in &pages {
            update_pte_flags(&mut self.m.mem, cr3, *lin, 0, pte::US);
        }
        self.m.charge(self.costs.ppl_mark(pages.len() as u32));
        self.m.mmu.flush();

        // Allocate the ring-2 gate-entry stack the TSS will point at.
        let mut vas = std::mem::take(&mut self.task_mut(tid).vas);
        let gate_stack = vas.pick_free(2 * PAGE_SIZE);
        let r = gate_stack.and_then(|base| {
            self.map_user_range(
                cr3,
                &mut vas,
                base,
                2,
                true,
                false,
                AreaKind::ExtensionPrivate,
            )
            .ok()
            .map(|_| base)
        });
        self.task_mut(tid).vas = vas;
        let Some(base) = r else {
            return -errno::ENOMEM;
        };
        let top = base + 2 * PAGE_SIZE;
        self.task_mut(tid).ring2_stack_top = Some(top);
        self.m.tss.stack[2] = (self.sel.udata2, top);

        // Promote: SPL 3 -> SPL 2. The ring-2 segments span the same 0-3GB
        // range, so EIP/ESP remain valid.
        self.task_mut(tid).task_spl = 2;
        self.force_user_segments(2);
        0
    }

    fn sys_set_range(&mut self, addr: u32, len: u32, cs_rpl: u8) -> i32 {
        let tid = self.current.unwrap();
        // Only the promoted application itself may expose pages (§4.5.2's
        // mprotect/PPL-tamper rule).
        if self.task(tid).task_spl != 2 || cs_rpl > 2 {
            return -errno::EPERM;
        }
        if !addr.is_multiple_of(PAGE_SIZE) || len == 0 {
            return -errno::EINVAL;
        }
        let end = match addr.checked_add(len.div_ceil(PAGE_SIZE) * PAGE_SIZE) {
            Some(e) if e <= USER_LIMIT => e,
            _ => return -errno::EINVAL,
        };
        let cr3 = self.task(tid).cr3;
        let mut lin = addr;
        let mut pages = 0;
        while lin < end {
            if self.task(tid).vas.find(lin).is_none() {
                return -errno::EINVAL;
            }
            // Demand pages must exist before their PPL can be raised.
            if get_pte(&self.m.mem, cr3, lin).is_none() && !self.demand_map(lin) {
                return -errno::EFAULT;
            }
            update_pte_flags(&mut self.m.mem, cr3, lin, pte::US, 0);
            pages += 1;
            lin += PAGE_SIZE;
        }
        self.m.charge(self.costs.ppl_mark(pages));
        self.m.mmu.flush();
        0
    }

    fn sys_set_call_gate(&mut self, func: u32, cs_rpl: u8) -> i32 {
        let tid = self.current.unwrap();
        if self.task(tid).task_spl != 2 || cs_rpl != 2 {
            return -errno::EPERM;
        }
        if func >= USER_LIMIT {
            return -errno::EFAULT;
        }
        // Per-process gates live in the LDT (the paper: "call gates
        // themselves reside in the GDT/LDT"): other processes cannot even
        // name them.
        let ldt = self
            .m
            .ldt
            .get_or_insert_with(x86sim::desc::DescriptorTable::new);
        let idx = ldt.push(Descriptor::call_gate(self.sel.ucode2, func, 3));
        self.m.charge(self.costs.set_call_gate);
        Selector::new(idx, true, 3).0 as i32
    }

    fn sys_fork(&mut self) -> i32 {
        let parent_tid = self.current.unwrap();
        self.stats.forks += 1;
        self.m.charge(self.costs.fork);

        let child_tid = self.next_tid;
        self.next_tid += 1;

        let child_cr3 = match self.new_page_directory() {
            Ok(pd) => pd,
            Err(_) => return -errno::ENOMEM,
        };
        // Copy every user page: contents and exact PTE flags, so PPL
        // markings are inherited (§4.5.2).
        let parent_cr3 = self.task(parent_tid).cr3;
        let pages: Vec<u32> = self.task(parent_tid).vas.mapped_pages().collect();
        for lin in pages {
            let Some(p) = get_pte(&self.m.mem, parent_cr3, lin) else {
                continue;
            };
            let flags = p & !pte::FRAME & !(pte::A | pte::D);
            let Some(frame) = self.frames.alloc() else {
                return -errno::ENOMEM;
            };
            let data = self.m.mem.read_bytes(p & pte::FRAME, PAGE_SIZE as usize);
            self.m.mem.write_bytes(frame, &data);
            if !map_page(
                &mut self.m.mem,
                &mut self.frames,
                child_cr3,
                lin,
                frame,
                flags,
            ) {
                return -errno::ENOMEM;
            }
        }

        let kstack = match self.alloc_kernel_pages(2) {
            Ok(k) => k,
            Err(_) => return -errno::ENOMEM,
        };
        let parent = self.task(parent_tid).clone();
        let mut child_cpu = self.m.cpu.clone();
        child_cpu.set_reg(Reg::Eax, 0);
        let child = Task {
            tid: child_tid,
            parent: Some(parent_tid),
            cr3: child_cr3,
            task_spl: parent.task_spl,
            vas: parent.vas.clone(),
            cpu: child_cpu,
            kstack_top: kstack + 2 * PAGE_SIZE,
            ring2_stack_top: parent.ring2_stack_top,
            signal_handler: parent.signal_handler,
            saved_sigcontext: None,
            exit_code: None,
            brk: parent.brk,
            // The LDT (with its call gates) is inherited, like the rest
            // of the privilege state (§4.5.2).
            ldt: parent.ldt.clone(),
            // Pending messages stay with the parent.
            mailbox: std::collections::VecDeque::new(),
        };
        std::sync::Arc::make_mut(&mut self.tasks).insert(child_tid, child);
        child_tid as i32
    }

    /// Replaces the current task's image (`exec`): fresh address space,
    /// SPL reset to 3 (§4.5.2: privilege levels are *not* inherited across
    /// exec).
    pub fn exec_current(
        &mut self,
        obj: &Object,
        externs: &BTreeMap<String, u32>,
    ) -> Result<(), SpawnError> {
        let tid = self.current.expect("no current task");
        self.m.charge(self.costs.exec);

        let cr3 = self.new_page_directory()?;
        let mut vas = Vas::new();
        let brk = self.load_image_into(cr3, &mut vas, obj, externs, USER_TEXT)?;
        let stack_base = USER_STACK_TOP - USER_STACK_PAGES * PAGE_SIZE;
        self.map_user_range(
            cr3,
            &mut vas,
            stack_base,
            USER_STACK_PAGES,
            true,
            true,
            AreaKind::Stack,
        )?;

        let entry_off = obj
            .symbol("_start")
            .or_else(|| obj.symbol("entry"))
            .unwrap_or(0);
        {
            let t = self.task_mut(tid);
            t.cr3 = cr3;
            t.vas = vas;
            t.brk = brk;
            t.task_spl = 3;
            t.ring2_stack_top = None;
            t.signal_handler = None;
            t.saved_sigcontext = None;
            t.ldt = x86sim::desc::DescriptorTable::new();
        }
        self.m.ldt = Some(x86sim::desc::DescriptorTable::new());
        self.m.mmu.set_cr3(cr3);
        self.m.tss.stack[2] = (Selector(0), 0);
        self.m.cpu.regs = [0; 8];
        self.m.cpu.set_reg(Reg::Esp, USER_STACK_TOP);
        self.m.cpu.eip = USER_TEXT + entry_off;
        self.force_user_segments(3);
        Ok(())
    }

    // ----- faults and signals -------------------------------------------------

    /// The Palladium-aware fault handler (§4.5.2): first distinguishes a
    /// not-present fault in a demand-paged region (materialize the page,
    /// deciding its PPL from the task's SPL *now*, and resume) from a
    /// protection violation (an extension crossed its boundary: deliver
    /// SIGSEGV to the extensible application).
    fn handle_fault(&mut self, fault: Fault) -> Option<Outcome> {
        self.stats.faults += 1;
        self.m.charge(self.costs.pagefault_handler);

        // Dispatch on the structured cause, not just the vector: only a
        // genuinely not-present page is a demand-paging candidate. A
        // page-*protection* violation (P set: an extension wrote a PPL 0
        // page) or any segment-level fault goes straight to delivery.
        if let x86sim::fault::FaultCause::Page { linear, code } = fault.cause {
            if code & x86sim::fault::pf_err::PRESENT == 0 && self.demand_map(linear) {
                self.m.charge_iret_resume();
                return None; // restart the faulting instruction
            }
        }
        self.last_fault = Some(fault);
        self.deliver_signal(SIGSEGV, fault)
    }

    /// Materializes one demand page if `addr` falls in a demand area.
    /// Returns false when the address is not demand-backed (a real fault).
    fn demand_map(&mut self, addr: u32) -> bool {
        let Some(tid) = self.current else {
            return false;
        };
        let (cr3, spl) = {
            let t = self.task(tid);
            (t.cr3, t.task_spl)
        };
        let Some(area) = self.task(tid).vas.find(addr).copied() else {
            return false;
        };
        if !area.demand {
            return false;
        }
        let page = x86sim::mem::page_base(addr);
        if get_pte(&self.m.mem, cr3, page).is_some() {
            return false; // present: this was a protection fault
        }
        let Some(frame) = self.frames.alloc() else {
            return false; // OOM surfaces as SIGSEGV (as Linux OOM-kills)
        };
        self.m.mem.zero(frame, PAGE_SIZE);
        let mut flags = 0;
        if area.writable {
            flags |= pte::RW;
        }
        // The paper's lazy PPL decision: writable pages of a promoted
        // (SPL 2) process materialize at PPL 0, everything else at PPL 1.
        if !(area.writable && spl == 2) {
            flags |= pte::US;
        }
        if !map_page(&mut self.m.mem, &mut self.frames, cr3, page, frame, flags) {
            return false;
        }
        self.m.mmu.flush_page(page);
        true
    }

    /// Delivers a signal to the current task: runs its handler if
    /// registered (at the application's privilege level), otherwise kills
    /// the task.
    pub fn deliver_signal(&mut self, sig: u8, fault: Fault) -> Option<Outcome> {
        let tid = self.current.unwrap();
        let handler = self.task(tid).signal_handler;
        match handler {
            Some(entry) => {
                self.stats.signals_delivered += 1;
                self.m.charge(self.costs.signal_deliver);
                // Save the interrupted context for sigreturn.
                let saved = Box::new(self.m.cpu.clone());
                self.task_mut(tid).saved_sigcontext = Some(saved);
                // Enter the handler at the application's SPL. A fault in an
                // SPL 3 extension of an SPL 2 app must not run the handler
                // at SPL 3 — the handler belongs to the application.
                let app_ring = if self.task(tid).task_spl == 2 { 2 } else { 3 };
                self.force_user_segments(app_ring);
                let stack_top = match self.task(tid).ring2_stack_top {
                    Some(t) if app_ring == 2 => t,
                    _ => self.m.cpu.esp(), // reuse the interrupted stack
                };
                self.m.cpu.set_reg(Reg::Esp, stack_top);
                self.m.cpu.set_reg(Reg::Eax, sig as u32);
                self.m.cpu.set_reg(Reg::Ebx, fault.cr2.unwrap_or(fault.eip));
                self.m.cpu.eip = entry;
                None
            }
            None => {
                self.stats.kills += 1;
                self.task_mut(tid).exit_code = Some(-(sig as i32));
                Some(Outcome::Signaled { sig, fault })
            }
        }
    }

    fn sigreturn(&mut self) -> Option<Outcome> {
        let tid = self.current.unwrap();
        match self.task_mut(tid).saved_sigcontext.take() {
            Some(cpu) => {
                self.m.cpu = *cpu;
                self.m.charge_iret_resume();
                None
            }
            None => {
                // sigreturn outside a handler: kill.
                self.task_mut(tid).exit_code = Some(-(SIGSEGV as i32));
                Some(Outcome::Exited(-(SIGSEGV as i32)))
            }
        }
    }

    /// The console contents as UTF-8 (lossy).
    pub fn console_text(&self) -> String {
        String::from_utf8_lossy(&self.console).into_owned()
    }

    /// Detaches from the current task and switches to the kernel-only
    /// address space (used between experiments and after task teardown).
    pub fn enter_kernel_context(&mut self) {
        self.save_current();
        self.current = None;
        self.m.mmu.set_cr3(self.kernel_cr3);
    }

    // ----- host-side entry points for the Palladium runtime ------------------
    //
    // The Palladium user-level runtime (`palladium::user_ext`) performs its
    // setup from the host on behalf of the application; these wrappers run
    // the same code paths as the corresponding syscalls, with the calling
    // code segment taken to be the application itself.

    /// `init_PL` on behalf of the current task (as if called from its own
    /// SPL 3 code).
    pub fn palladium_init_pl(&mut self) -> i32 {
        self.sys_init_pl(3)
    }

    /// `set_range` on behalf of the current (promoted) task.
    pub fn palladium_set_range(&mut self, addr: u32, len: u32) -> i32 {
        self.sys_set_range(addr, len, 2)
    }

    /// `set_call_gate` on behalf of the current (promoted) task. Returns
    /// the gate selector or a negative errno.
    pub fn palladium_set_call_gate(&mut self, func: u32) -> i32 {
        self.sys_set_call_gate(func, 2)
    }

    /// Host-side anonymous mmap into an arbitrary task, with explicit
    /// control of the PTE user bit. Used by loaders; does *not* apply the
    /// SPL 2 auto-demotion rule (callers decide the PPL).
    pub fn host_mmap(
        &mut self,
        tid: Tid,
        pages: u32,
        writable: bool,
        user_visible: bool,
        kind: AreaKind,
    ) -> Result<u32, SpawnError> {
        let cr3 = self.task(tid).cr3;
        let mut vas = std::mem::take(&mut self.task_mut(tid).vas);
        let addr = match vas.pick_free(pages * PAGE_SIZE) {
            Some(a) => a,
            None => {
                self.task_mut(tid).vas = vas;
                return Err(SpawnError::OutOfMemory);
            }
        };
        let r = self.map_user_range(cr3, &mut vas, addr, pages, writable, user_visible, kind);
        self.task_mut(tid).vas = vas;
        r.map(|_| addr)
    }

    /// Host-side PTE flag update over a page range of a task, with the
    /// required TLB shootdown.
    pub fn host_set_page_flags(&mut self, tid: Tid, addr: u32, pages: u32, set: u32, clear: u32) {
        let cr3 = self.task(tid).cr3;
        for i in 0..pages {
            update_pte_flags(&mut self.m.mem, cr3, addr + i * PAGE_SIZE, set, clear);
        }
        self.m.mmu.flush();
    }

    /// Registers (or clears) the current task's signal handler from the
    /// host — the Palladium runtime installs its fault trampoline this way.
    pub fn host_set_signal_handler(&mut self, tid: Tid, handler: Option<u32>) {
        self.task_mut(tid).signal_handler = handler;
    }

    /// Clears a pending saved signal context (after the host aborts an
    /// extension call mid-handler).
    pub fn host_clear_sigcontext(&mut self, tid: Tid) {
        self.task_mut(tid).saved_sigcontext = None;
    }

    // ----- durable checkpoints ------------------------------------------------

    /// Serializes the whole kernel world into a versioned,
    /// integrity-checked image (see [`x86sim::image`]).
    pub fn save_image(&self) -> Vec<u8> {
        let mut b = ImageBuilder::new(kind::KERNEL);
        self.save_sections(&mut b);
        b.finish()
    }

    /// Appends the machine's sections, then the kernel's own (ids from
    /// [`base::KERNEL`]): the frame allocator, cost table, selectors,
    /// console, statistics, the task table and the kernel-VA allocator.
    ///
    /// The machine sections already exclude derived state (block
    /// tokens, translation memos); the kernel adds nothing derived of
    /// its own, so a restored kernel is cycle- and stat-identical going
    /// forward.
    pub fn save_sections(&self, b: &mut ImageBuilder) {
        self.m.save_sections(b);

        b.section(base::KERNEL + 1, |e| self.frames.save_into(e));
        b.section(base::KERNEL + 2, |e| {
            let c = &self.costs;
            for v in [
                c.syscall_dispatch,
                c.pagefault_handler,
                c.signal_deliver,
                c.kext_abort,
                c.fork,
                c.exec,
                c.exit_wait,
                c.context_switch,
                c.ppl_mark_per_page,
                c.ppl_mark_startup,
                c.mmap_per_page,
                c.mmap_base,
                c.set_call_gate,
            ] {
                e.u64(v);
            }
        });
        b.section(base::KERNEL + 3, |e| {
            for s in [
                self.sel.kcode,
                self.sel.kdata,
                self.sel.ucode,
                self.sel.udata,
                self.sel.ucode2,
                self.sel.udata2,
            ] {
                e.u16(s.0);
            }
        });
        b.section(base::KERNEL + 4, |e| e.blob(&self.console));
        b.section(base::KERNEL + 5, |e| {
            for v in [
                self.stats.syscalls,
                self.stats.syscalls_rejected,
                self.stats.faults,
                self.stats.signals_delivered,
                self.stats.kills,
                self.stats.forks,
                self.stats.context_switches,
            ] {
                e.u64(v);
            }
        });
        b.section(base::KERNEL + 6, |e| {
            e.u64(self.extension_cycle_limit);
            e.bool(self.last_fault.is_some());
            if let Some(f) = &self.last_fault {
                image::put_fault(e, f);
            }
        });
        b.section(base::KERNEL + 7, |e| {
            e.u32(self.tasks.len() as u32);
            for task in self.tasks.values() {
                put_task(e, task);
            }
        });
        b.section(base::KERNEL + 8, |e| {
            e.bool(self.current.is_some());
            if let Some(tid) = self.current {
                e.u32(tid);
            }
            e.u32(self.next_tid);
        });
        b.section(base::KERNEL + 9, |e| {
            e.u32(self.kernel_pdes.len() as u32);
            for (idx, val) in self.kernel_pdes.iter() {
                e.u32(*idx);
                e.u32(*val);
            }
            e.u32(self.kernel_cr3);
            e.u32(self.kva_next);
            e.u32(self.kva_free.len() as u32);
            for (base, pages) in &self.kva_free {
                e.u32(*base);
                e.u32(*pages);
            }
        });
    }

    /// Restores a kernel world from [`save_image`](Self::save_image)
    /// bytes.
    pub fn restore_image(bytes: &[u8]) -> Result<Kernel, RestoreError> {
        Kernel::restore_sections(&ImageView::parse(bytes, kind::KERNEL)?)
    }

    /// Restores a kernel world from the machine and [`base::KERNEL`]
    /// sections of a verified image. Every integrity check of the image
    /// format applies; a tampered or truncated image is rejected with a
    /// typed error and no partially-restored kernel ever escapes.
    pub fn restore_sections(v: &ImageView<'_>) -> Result<Kernel, RestoreError> {
        let m = Machine::restore_sections(v)?;

        let mut d = v.require(base::KERNEL + 1, "frames")?;
        let frames = FrameAlloc::restore_from(&mut d)?;
        d.finish()?;

        let mut d = v.require(base::KERNEL + 2, "costs")?;
        let costs = KernelCosts {
            syscall_dispatch: d.u64()?,
            pagefault_handler: d.u64()?,
            signal_deliver: d.u64()?,
            kext_abort: d.u64()?,
            fork: d.u64()?,
            exec: d.u64()?,
            exit_wait: d.u64()?,
            context_switch: d.u64()?,
            ppl_mark_per_page: d.u64()?,
            ppl_mark_startup: d.u64()?,
            mmap_per_page: d.u64()?,
            mmap_base: d.u64()?,
            set_call_gate: d.u64()?,
        };
        d.finish()?;

        let mut d = v.require(base::KERNEL + 3, "selectors")?;
        let sel = Selectors {
            kcode: Selector(d.u16()?),
            kdata: Selector(d.u16()?),
            ucode: Selector(d.u16()?),
            udata: Selector(d.u16()?),
            ucode2: Selector(d.u16()?),
            udata2: Selector(d.u16()?),
        };
        d.finish()?;

        let mut d = v.require(base::KERNEL + 4, "console")?;
        let console = d.blob()?.to_vec();
        d.finish()?;

        let mut d = v.require(base::KERNEL + 5, "stats")?;
        let stats = KernelStats {
            syscalls: d.u64()?,
            syscalls_rejected: d.u64()?,
            faults: d.u64()?,
            signals_delivered: d.u64()?,
            kills: d.u64()?,
            forks: d.u64()?,
            context_switches: d.u64()?,
        };
        d.finish()?;

        let mut d = v.require(base::KERNEL + 6, "limits")?;
        let extension_cycle_limit = d.u64()?;
        let last_fault = if d.bool()? {
            Some(image::get_fault(&mut d)?)
        } else {
            None
        };
        d.finish()?;

        let mut d = v.require(base::KERNEL + 7, "tasks")?;
        let ntasks = d.u32()?;
        let mut tasks = BTreeMap::new();
        let mut last_tid = None;
        for _ in 0..ntasks {
            let task = get_task(&mut d)?;
            if last_tid.is_some_and(|l| task.tid <= l) {
                return Err(d.fail("task ids not strictly ascending"));
            }
            last_tid = Some(task.tid);
            tasks.insert(task.tid, task);
        }
        d.finish()?;

        let mut d = v.require(base::KERNEL + 8, "sched")?;
        let current = if d.bool()? { Some(d.u32()?) } else { None };
        if let Some(tid) = current {
            if !tasks.contains_key(&tid) {
                return Err(d.fail("current task not in task table"));
            }
        }
        let next_tid = d.u32()?;
        d.finish()?;

        let mut d = v.require(base::KERNEL + 9, "kva")?;
        let npdes = d.count(8)?;
        let mut kernel_pdes = Vec::with_capacity(npdes);
        for _ in 0..npdes {
            let idx = d.u32()?;
            let val = d.u32()?;
            kernel_pdes.push((idx, val));
        }
        let kernel_cr3 = d.u32()?;
        let kva_next = d.u32()?;
        let nfree = d.count(8)?;
        let mut kva_free = Vec::with_capacity(nfree);
        for _ in 0..nfree {
            let base = d.u32()?;
            let pages = d.u32()?;
            kva_free.push((base, pages));
        }
        d.finish()?;

        Ok(Kernel {
            m,
            frames,
            costs,
            sel,
            console,
            stats,
            extension_cycle_limit,
            last_fault,
            tasks: std::sync::Arc::new(tasks),
            current,
            next_tid,
            kernel_pdes: kernel_pdes.into(),
            kernel_cr3,
            kva_next,
            kva_free,
        })
    }
}

fn put_task(e: &mut Enc, t: &Task) {
    e.u32(t.tid);
    e.bool(t.parent.is_some());
    if let Some(p) = t.parent {
        e.u32(p);
    }
    e.u32(t.cr3);
    e.u8(t.task_spl);
    e.u32(t.vas.mmap_cursor);
    e.u32(t.vas.areas().len() as u32);
    for a in t.vas.areas() {
        e.u32(a.start);
        e.u32(a.end);
        e.bool(a.writable);
        e.u8(area_kind_tag(a.kind));
        e.bool(a.demand);
    }
    image::put_cpu(e, &t.cpu);
    e.u32(t.kstack_top);
    e.bool(t.ring2_stack_top.is_some());
    if let Some(r) = t.ring2_stack_top {
        e.u32(r);
    }
    e.bool(t.signal_handler.is_some());
    if let Some(h) = t.signal_handler {
        e.u32(h);
    }
    e.bool(t.saved_sigcontext.is_some());
    if let Some(c) = &t.saved_sigcontext {
        image::put_cpu(e, c);
    }
    e.bool(t.exit_code.is_some());
    if let Some(c) = t.exit_code {
        e.i32(c);
    }
    e.u32(t.brk);
    image::put_descriptor_table(e, &t.ldt);
    e.u32(t.mailbox.len() as u32);
    for (sender, payload) in &t.mailbox {
        e.u32(*sender);
        e.blob(payload);
    }
}

fn get_task(d: &mut Dec) -> Result<Task, RestoreError> {
    let tid = d.u32()?;
    let parent = if d.bool()? { Some(d.u32()?) } else { None };
    let cr3 = d.u32()?;
    let task_spl = d.u8()?;
    let mut vas = Vas::new();
    vas.mmap_cursor = d.u32()?;
    let nareas = d.u32()?;
    for _ in 0..nareas {
        let start = d.u32()?;
        let end = d.u32()?;
        let writable = d.bool()?;
        let kind = area_kind_from_tag(d.u8()?).ok_or_else(|| d.fail("bad area kind"))?;
        let demand = d.bool()?;
        let area = VmArea {
            start,
            end,
            writable,
            kind,
            demand,
        };
        if vas.insert(area).is_err() {
            return Err(d.fail("invalid vm area"));
        }
    }
    let cpu = image::get_cpu(d)?;
    let kstack_top = d.u32()?;
    let ring2_stack_top = if d.bool()? { Some(d.u32()?) } else { None };
    let signal_handler = if d.bool()? { Some(d.u32()?) } else { None };
    let saved_sigcontext = if d.bool()? {
        Some(Box::new(image::get_cpu(d)?))
    } else {
        None
    };
    let exit_code = if d.bool()? { Some(d.i32()?) } else { None };
    let brk = d.u32()?;
    let ldt = image::get_descriptor_table(d)?;
    let nmsgs = d.count(8)?;
    let mut mailbox = std::collections::VecDeque::with_capacity(nmsgs);
    for _ in 0..nmsgs {
        let sender = d.u32()?;
        let payload = d.blob()?.to_vec();
        mailbox.push_back((sender, payload));
    }
    Ok(Task {
        tid,
        parent,
        cr3,
        task_spl,
        vas,
        cpu,
        kstack_top,
        ring2_stack_top,
        signal_handler,
        saved_sigcontext,
        exit_code,
        brk,
        ldt,
        mailbox,
    })
}

fn area_kind_tag(k: AreaKind) -> u8 {
    match k {
        AreaKind::Image => 0,
        AreaKind::Heap => 1,
        AreaKind::Stack => 2,
        AreaKind::Anon => 3,
        AreaKind::SharedLib => 4,
        AreaKind::ExtensionPrivate => 5,
    }
}

fn area_kind_from_tag(tag: u8) -> Option<AreaKind> {
    Some(match tag {
        0 => AreaKind::Image,
        1 => AreaKind::Heap,
        2 => AreaKind::Stack,
        3 => AreaKind::Anon,
        4 => AreaKind::SharedLib,
        5 => AreaKind::ExtensionPrivate,
        _ => return None,
    })
}
