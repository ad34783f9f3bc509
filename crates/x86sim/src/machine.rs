//! The assembled machine: CPU, MMU, descriptor tables, TSS and cycle
//! counter.
//!
//! Every memory access performs the full protection pipeline of Figure 1
//! of the paper: segment-register cache → limit check → segment rights
//! check → linear address → TLB/page walk → page-level rights check.
//!
//! An instruction fetch takes one of two paths: a predecoded block
//! serves it, or the byte-wise reference fetch does (every fetch with
//! predecode off, and any fetch no block serves with it on).

use asm86::isa::{Insn, Reg, SegReg};
use asm86::{decode, DecodeError};

use crate::cycles::{self, Event};
use crate::desc::{resolve, Descriptor, DescriptorTable, Selector};
use crate::fault::{Fault, FaultBuilder, FaultCause};
use crate::image::{self, base, kind, ImageBuilder, ImageView, RestoreError};
use crate::mem::{PhysMem, PAGE_MASK, PAGE_SIZE};
use crate::paging::{Access, Mmu};
use crate::proof::{
    BlockToken, Proof, ProofDs, ProofIndex, ProofInstallError, ProofRun, ProofStats, TokenInsn,
    MAX_BLOCK_INSNS, MAX_LAZY_BLOCKS,
};
use crate::trace::{Trace, TraceRecord};
use std::sync::Arc;

/// Longest possible instruction encoding, in bytes.
pub const MAX_INSN_LEN: usize = 12;

/// Host-side counters of the fetch fast path: instructions served from
/// straight-line blocks, fetches that fell back to the byte-wise
/// reference, and the machine's translation-table misses.
///
/// Purely observational: they exist so benchmarks and tests can see the
/// fast path working, and are deliberately *not* part of the simulated
/// machine state.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PredecodeStats {
    /// Instructions served from straight-line blocks (and from proven
    /// blocks while proof elision is off).
    pub hits: u64,
    /// Fetches served byte-wise with predecode on, because no block
    /// served them (always 0 with predecode off: the byte-wise baseline
    /// counts nothing).
    pub misses: u64,
    /// Fetch and data translations that missed the machine's
    /// direct-mapped translation tables and walked the MMU.
    pub translation_misses: u64,
}

/// Arithmetic flags.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Flags {
    /// Carry.
    pub cf: bool,
    /// Zero.
    pub zf: bool,
    /// Sign.
    pub sf: bool,
    /// Overflow.
    pub of: bool,
}

/// The hidden (cached) part of a segment register, as loaded from its
/// descriptor — the "descriptor cache" real x86 keeps per segment register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegCache {
    /// The visible selector.
    pub selector: Selector,
    /// False for a null/unloaded segment (any access faults).
    pub valid: bool,
    /// Segment base linear address.
    pub base: u32,
    /// Segment limit (highest valid offset for expand-up segments).
    pub limit: u32,
    /// Descriptor privilege level.
    pub dpl: u8,
    /// True for code segments.
    pub code: bool,
    /// Data writable (false for code).
    pub writable: bool,
    /// Readable (always true for data; the R bit for code).
    pub readable: bool,
    /// Expand-down data segment.
    pub expand_down: bool,
    /// Conforming code segment.
    pub conforming: bool,
}

impl SegCache {
    /// An invalid (null) segment cache.
    pub fn invalid() -> SegCache {
        SegCache {
            selector: Selector(0),
            valid: false,
            base: 0,
            limit: 0,
            dpl: 0,
            code: false,
            writable: false,
            readable: false,
            expand_down: false,
            conforming: false,
        }
    }

    /// Builds a cache from a resolved descriptor.
    pub fn from_descriptor(selector: Selector, d: &Descriptor) -> Option<SegCache> {
        match d {
            Descriptor::Code(c) => Some(SegCache {
                selector,
                valid: true,
                base: c.base,
                limit: c.limit,
                dpl: c.dpl,
                code: true,
                writable: false,
                readable: c.readable,
                expand_down: false,
                conforming: c.conforming,
            }),
            Descriptor::Data(d) => Some(SegCache {
                selector,
                valid: true,
                base: d.base,
                limit: d.limit,
                dpl: d.dpl,
                code: false,
                writable: d.writable,
                readable: true,
                expand_down: d.expand_down,
                conforming: false,
            }),
            _ => None,
        }
    }

    /// Limit check for an access of `size` bytes at `off`.
    pub fn check_limit(&self, off: u32, size: u32) -> bool {
        debug_assert!(size >= 1);
        let end = match off.checked_add(size - 1) {
            Some(e) => e,
            None => return false,
        };
        if self.expand_down {
            // Valid offsets lie strictly above the limit.
            off > self.limit
        } else {
            end <= self.limit
        }
    }
}

/// The CPU register state.
#[derive(Debug, Clone)]
pub struct Cpu {
    /// General-purpose registers, indexed by [`Reg`].
    pub regs: [u32; 8],
    /// Instruction pointer (offset within CS).
    pub eip: u32,
    /// Arithmetic flags.
    pub flags: Flags,
    /// Segment registers with their descriptor caches, indexed by
    /// [`SegReg`].
    pub segs: [SegCache; 4],
    /// Current privilege level.
    pub cpl: u8,
    /// Protection-key rights register (MPK-style PKRU): two bits per
    /// 4-bit page key — AD at bit `2k`, WD at bit `2k+1`. Zero grants
    /// every key full rights, which keeps worlds that never touch keys
    /// byte-identical to the pre-key machine. Written by `wrpkru`, read
    /// by `rdpkru`, consulted by user-mode data translation only (see
    /// [`crate::paging::pkru`]).
    pub pkru: u32,
}

impl Default for Cpu {
    fn default() -> Cpu {
        Cpu {
            regs: [0; 8],
            eip: 0,
            flags: Flags::default(),
            segs: [SegCache::invalid(); 4],
            cpl: 0,
            pkru: 0,
        }
    }
}

impl Cpu {
    /// Reads a general-purpose register.
    pub fn reg(&self, r: Reg) -> u32 {
        self.regs[r as usize]
    }

    /// Writes a general-purpose register.
    pub fn set_reg(&mut self, r: Reg, v: u32) {
        self.regs[r as usize] = v;
    }

    /// The segment cache for a segment register.
    pub fn seg(&self, sr: SegReg) -> &SegCache {
        &self.segs[sr as usize]
    }

    /// ESP shorthand.
    pub fn esp(&self) -> u32 {
        self.regs[Reg::Esp as usize]
    }
}

/// An IDT entry. The hosting kernel runs natively, so every vector is a
/// *host hook*: delivering through it suspends guest execution and returns
/// control (and the vector number) to the host, which plays the role of
/// the ring-0 handler. Gate DPL is still checked for software `int`
/// exactly as the hardware would.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IdtGate {
    /// Minimum privilege allowed to invoke this vector with `int`.
    pub dpl: u8,
}

/// The per-task state the hardware consults on inward stack switches:
/// one (SS, ESP) pair for each of rings 0-2, as in the x86 TSS. (Ring 3
/// needs no slot; x86 never switches *to* ring 3 via a call.)
#[derive(Debug, Clone, Copy, Default)]
pub struct Tss {
    /// `stack[r]` is the (SS selector, ESP) loaded when entering ring `r`.
    pub stack: [(Selector, u32); 3],
}

/// Why `run` stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exit {
    /// `hlt` executed at CPL 0.
    Hlt,
    /// A software interrupt hit a host-hooked IDT vector.
    IntHook(u8),
    /// An exception was raised; the host kernel must handle it.
    Fault(Fault),
    /// The instruction budget was exhausted.
    InsnLimit,
    /// The cycle budget was exhausted (used for extension CPU limits).
    CycleLimit,
}

/// The machine.
///
/// `Clone` is the world snapshot/fork primitive (see
/// [`Machine::snapshot`] / [`Machine::fork`]): physical frame payloads,
/// the block store and the translation tables are shared
/// copy-on-write, everything else — CPU, descriptor tables, TLB,
/// counters — is copied, so a fork
/// resumes byte-identically to the world it was taken from and its
/// writes never bleed into siblings or the template.
#[derive(Debug, Clone)]
pub struct Machine {
    /// The instruction the last [`Machine::fetch`] produced. Fetch writes
    /// it and `execute` reads it in place, so a decoded instruction is
    /// not copied through the stack between the two. Host-only state:
    /// never serialized, and overwritten before every read.
    fetched: TokenInsn,
    /// CPU registers and segment caches.
    pub cpu: Cpu,
    /// Simulated physical memory.
    pub mem: PhysMem,
    /// Paging unit.
    pub mmu: Mmu,
    /// Global descriptor table.
    pub gdt: DescriptorTable,
    /// Current local descriptor table, if any.
    pub ldt: Option<DescriptorTable>,
    /// Interrupt descriptor table (host hooks).
    pub idt: Vec<Option<IdtGate>>,
    /// Task state segment (inner-ring stack pointers).
    pub tss: Tss,
    cycles: u64,
    insns: u64,
    trace: Option<Trace>,
    predecode: bool,
    /// Host-only count of fetches served byte-wise with predecode on
    /// (reported in [`PredecodeStats::misses`]). Never serialized.
    bytewise: u64,
    /// Direct-mapped translation tables for code fetches, data reads
    /// and data writes; each entry stays valid while the TLB epoch,
    /// privilege and PKRU are unchanged (see [`PageMemo`]).
    tables: Arc<Tables>,
    /// Host-only count of lookups that missed the tables and walked the
    /// MMU (reported in [`PredecodeStats::translation_misses`]). Never
    /// serialized; a restored world starts at zero.
    memo_misses: u64,
    /// Block tokens, straight-line and proven, keyed by physical block
    /// start. Shared copy-on-write across forks like the translation
    /// tables.
    blocks: crate::proof::BlockMap,
    /// Installed verifier proofs, keyed by physical block start: the
    /// block builder's input for proven blocks.
    proofs: ProofIndex,
    /// The token run in progress, if the last fetch was served from one.
    proof_run: Option<ProofRun>,
    /// Instructions served from token runs, indexed by
    /// [`ProofRun::verified`]: `[0]` are predecode hits, `[1]`
    /// [`ProofStats::served`].
    block_served: [u64; 2],
    /// Master switch for cashing in verifier proofs (installation is
    /// always allowed). Off = the differential baseline: blocks are still
    /// served, but no DS check is elided.
    proof_elide: bool,
    /// Set per fetch: the instruction about to execute was served from a
    /// token whose DS entry guard held, so its DS accesses skip the
    /// per-access segment check.
    ds_elide_now: bool,
    /// Host-side segment-write generation: bumped on every segment-cache
    /// write (`mov sreg`, far transfers, fault delivery, host forcing).
    /// A token run whose snapshot matches knows the CS/DS caches and the
    /// CPL are untouched since its entry guard ran — one compare instead
    /// of three. Never serialized; restore starts a fresh count (no run
    /// survives a restore).
    seg_gen: u64,
    proof_stats: ProofStats,
    /// Registered `wrpkru` gate sites (linear addresses). A `wrpkru`
    /// executed at CPL 3 from any other address raises #GP with
    /// [`FaultCause::KeyGateViolation`] — the Garmr-style gate-integrity
    /// rule that stops hostile extension code from granting itself key
    /// rights. CPL 0-2 code may write PKRU from anywhere (it could edit
    /// page tables instead, so gating it buys nothing). BTreeSet keeps
    /// image serialization deterministic.
    key_gates: std::collections::BTreeSet<u32>,
}

/// Sentinel slab slot for "frame not backed when the memo was filled".
const NO_SLOT: u32 = u32::MAX;

/// One cached page translation, standing in for a guaranteed TLB hit.
///
/// Re-translating the same linear page at the same privilege, PKRU and
/// access kind is a pure TLB hit with no architectural side effect: the
/// TLB never evicts on its own, a hit checks the *cached* permission bits
/// (which are frozen until a flush), and the dirty-bit update happens at
/// most once per entry — any successful write-translate leaves the entry
/// dirty, so later writes through the same entry do no PTE work. A memo
/// therefore answers without consulting the MMU, revalidating against
/// [`Mmu::epoch`], which advances on every flush — the only way a live
/// TLB entry disappears or changes. Cycle accounting is unaffected
/// because TLB hits charge nothing; TLB statistics are unaffected because
/// memo hits are counted via [`Mmu::count_memo_hit`].
///
/// The argument holds for each entry on its own, so the machine keeps
/// memos in direct-mapped [`MemoTable`]s rather than one at a time: any
/// number of entries filled under the current epoch all stand for TLB
/// entries that are still live, and a table conflict only costs one
/// more MMU walk, never a different answer.
///
/// A memo also carries the frame's slab slot ([`NO_SLOT`] if the frame
/// was unbacked at fill time) so repeat accesses read physical memory
/// with one array index instead of a hash lookup. Slots are stable for a
/// frame's whole lifetime, so the slot needs no revalidation of its own.
///
/// The tables are part of the host fast path gated by
/// [`Machine::set_predecode`]: with predecode off every translation takes
/// the original per-access MMU path, reproducing the pre-fast-path cost
/// structure that the throughput benchmark uses as its baseline.
#[derive(Debug, Clone, Copy)]
struct PageMemo {
    /// Linear page base; `u32::MAX` (never a page base) when invalid.
    lin_page: u32,
    phys_page: u32,
    slot: u32,
    user: bool,
    /// PKRU value the translation was checked under. A `wrpkru` between
    /// accesses must not be answered from the memo — key rights are
    /// judged live on real hardware even for TLB-resident entries.
    pkru: u32,
    epoch: u64,
}

impl PageMemo {
    const INVALID: PageMemo = PageMemo {
        lin_page: u32::MAX,
        phys_page: 0,
        slot: NO_SLOT,
        user: false,
        pkru: 0,
        epoch: 0,
    };

    #[inline]
    fn lookup(&self, page: u32, user: bool, pkru: u32, epoch: u64) -> Option<(u32, u32)> {
        (self.lin_page == page && self.user == user && self.pkru == pkru && self.epoch == epoch)
            .then_some((self.phys_page, self.slot))
    }

    #[inline]
    fn fill(&mut self, page: u32, phys_page: u32, slot: u32, user: bool, pkru: u32, epoch: u64) {
        *self = PageMemo {
            lin_page: page,
            phys_page,
            slot,
            user,
            pkru,
            epoch,
        };
    }
}

/// Entries per translation table (a power of two). A typical guest
/// working set — its stack page plus a handful of data pages, at one or
/// two privilege levels — fits without conflicts.
pub(crate) const MEMO_ENTRIES: usize = 64;

/// A direct-mapped table of [`PageMemo`]s, indexed by the low bits of
/// the linear page number with the CPL `user` bit folded into the top
/// index bit, so one page touched at CPL 3 and at CPL 0-2 keeps both
/// entries. Lookups and fills are [`PageMemo::lookup`] and
/// [`PageMemo::fill`] on the indexed entry; the epoch invalidates every
/// entry at once.
#[derive(Debug, Clone)]
struct MemoTable([PageMemo; MEMO_ENTRIES]);

impl MemoTable {
    const EMPTY: MemoTable = MemoTable([PageMemo::INVALID; MEMO_ENTRIES]);

    /// The top index bit, which the CPL `user` bit flips.
    const USER_BIT: u32 = MEMO_ENTRIES as u32 / 2;

    /// Table index of linear page base `page` at privilege `user`.
    #[inline]
    fn index(page: u32, user: bool) -> usize {
        let flip = if user { Self::USER_BIT } else { 0 };
        ((page >> 12) ^ flip) as usize & (MEMO_ENTRIES - 1)
    }

    #[inline]
    fn lookup(&self, page: u32, user: bool, pkru: u32, epoch: u64) -> Option<(u32, u32)> {
        self.0[Self::index(page, user)].lookup(page, user, pkru, epoch)
    }

    #[inline]
    fn fill(&mut self, page: u32, phys_page: u32, slot: u32, user: bool, pkru: u32, epoch: u64) {
        self.0[Self::index(page, user)].fill(page, phys_page, slot, user, pkru, epoch);
    }
}

/// The machine's three translation tables. They sit behind one `Arc`
/// so a fork shares them copy-on-write: forking stays a refcount bump,
/// and a world copies the tables on its first fill after a fork.
#[derive(Debug, Clone)]
struct Tables {
    fetch: MemoTable,
    read: MemoTable,
    write: MemoTable,
}

impl Default for Machine {
    fn default() -> Machine {
        Machine::new()
    }
}

/// An immutable world snapshot: a warmed [`Machine`] frozen as a fork
/// template.
///
/// Created by [`Machine::snapshot`]. The snapshot exposes no mutable
/// access, so the frames it shares with its forks stay frozen; each
/// [`Snapshot::fork`] produces an independent world in microseconds
/// whose writes materialize frames privately (copy-on-write).
#[derive(Debug, Clone)]
pub struct Snapshot(Machine);

impl Snapshot {
    /// Forks a new independent world from the template.
    pub fn fork(&self) -> Machine {
        self.0.clone()
    }

    /// Read-only view of the frozen world (for oracles and tests).
    pub fn machine(&self) -> &Machine {
        &self.0
    }
}

impl Machine {
    /// Creates a machine with empty tables and paging disabled.
    pub fn new() -> Machine {
        Machine {
            cpu: Cpu::default(),
            mem: PhysMem::new(),
            mmu: Mmu::new(),
            gdt: DescriptorTable::new(),
            ldt: None,
            idt: vec![None; 256],
            tss: Tss::default(),
            cycles: 0,
            insns: 0,
            trace: None,
            predecode: true,
            bytewise: 0,
            tables: Arc::new(Tables {
                fetch: MemoTable::EMPTY,
                read: MemoTable::EMPTY,
                write: MemoTable::EMPTY,
            }),
            memo_misses: 0,
            blocks: crate::proof::BlockMap::default(),
            proofs: ProofIndex::default(),
            proof_run: None,
            block_served: [0; 2],
            proof_elide: true,
            ds_elide_now: false,
            seg_gen: 0,
            proof_stats: ProofStats::default(),
            key_gates: std::collections::BTreeSet::new(),
            fetched: TokenInsn {
                insn: Insn::Nop,
                len: 0,
                cost: 0,
            },
        }
    }

    // ----- protection-key gate sites ----------------------------------------

    /// Registers `linear` as a legal `wrpkru` gate site for CPL-3 code.
    ///
    /// The loader calls this for the `wrpkru` instructions it plants in
    /// its call gates; any CPL-3 `wrpkru` fetched from an unregistered
    /// address faults with [`FaultCause::KeyGateViolation`].
    pub fn register_key_gate(&mut self, linear: u32) {
        self.key_gates.insert(linear);
    }

    /// Removes a registered gate site (e.g. when an extension unloads).
    pub fn unregister_key_gate(&mut self, linear: u32) {
        self.key_gates.remove(&linear);
    }

    /// Whether `linear` is a registered `wrpkru` gate site.
    pub fn key_gate_registered(&self, linear: u32) -> bool {
        self.key_gates.contains(&linear)
    }

    /// All registered gate sites, in ascending linear-address order
    /// (exposed so loaders can audit for stale gates after unloads).
    pub fn key_gate_sites(&self) -> impl Iterator<Item = u32> + '_ {
        self.key_gates.iter().copied()
    }

    /// Freezes the world into an immutable [`Snapshot`] usable as a
    /// fork template. The frame slab is shared copy-on-write behind the
    /// snapshot — taking one costs a slab-metadata copy (microseconds),
    /// not a memory copy — and the snapshot's own frames can never
    /// change afterwards: it hands out no mutable access.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot(self.clone())
    }

    /// Forks a new world from this one in microseconds.
    ///
    /// Frame payloads are shared copy-on-write and materialize
    /// privately on first write in either world. The block store and
    /// the translation tables carry over — they key on physical
    /// addresses and slab slots, both preserved by the fork, and are
    /// invalidated per-frame by the same store/code generations as
    /// always — so a forked world is cycle/stat/fault byte-identical
    /// to the world it forked from (and hence to a cold boot that
    /// reached the same state).
    pub fn fork(&self) -> Machine {
        self.clone()
    }

    // ----- durable checkpoint/restore ---------------------------------------

    /// Serializes the whole world into a deterministic, integrity-checked
    /// binary image (see [`crate::image`] for the format).
    pub fn save_image(&self) -> Vec<u8> {
        let mut b = ImageBuilder::new(kind::MACHINE);
        self.save_sections(&mut b);
        b.finish()
    }

    /// Appends the world's sections (ids from [`base::MACHINE`]) to an
    /// image that an enclosing layer may extend.
    ///
    /// The sections carry every piece of *architectural* state: CPU,
    /// descriptor tables, IDT, TSS, the MMU with its live TLB (sorted by
    /// VPN), the cycle/instruction counters, and only the materialized
    /// physical frames (sorted by frame number). The block store,
    /// translation memos and any live trace are deliberately excluded —
    /// they are derived host-side state, rebuilt on demand, and their
    /// absence is invisible to cycle accounting and statistics (memo hits
    /// count as TLB hits). Saving the same world twice yields the same
    /// bytes.
    pub fn save_sections(&self, b: &mut ImageBuilder) {
        b.section(base::MACHINE + 1, |e| image::put_cpu(e, &self.cpu));
        b.section(base::MACHINE + 2, |e| {
            image::put_descriptor_table(e, &self.gdt);
        });
        b.section(base::MACHINE + 3, |e| match &self.ldt {
            Some(t) => {
                e.bool(true);
                image::put_descriptor_table(e, t);
            }
            None => e.bool(false),
        });
        b.section(base::MACHINE + 4, |e| {
            e.u32(self.idt.len() as u32);
            for gate in &self.idt {
                match gate {
                    Some(g) => {
                        e.bool(true);
                        e.u8(g.dpl);
                    }
                    None => e.bool(false),
                }
            }
        });
        b.section(base::MACHINE + 5, |e| {
            for (sel, esp) in self.tss.stack {
                e.u16(sel.0);
                e.u32(esp);
            }
        });
        b.section(base::MACHINE + 6, |e| self.mmu.save_into(e));
        b.section(base::MACHINE + 7, |e| {
            e.u64(self.cycles);
            e.u64(self.insns);
            e.bool(self.predecode);
        });
        b.section(base::MACHINE + 8, |e| self.mem.save_into(e));
        b.section(base::MACHINE + 9, |e| {
            e.u32(self.key_gates.len() as u32);
            for &site in &self.key_gates {
                e.u32(site);
            }
        });
    }

    /// Rebuilds a world from an image written by [`Machine::save_image`].
    pub fn restore_image(bytes: &[u8]) -> Result<Machine, RestoreError> {
        Machine::restore_sections(&ImageView::parse(bytes, kind::MACHINE)?)
    }

    /// Rebuilds a world from the [`base::MACHINE`] sections of a verified
    /// image.
    ///
    /// Restore is verify-or-reject: any corruption — a flipped bit, a
    /// truncation, a torn write, transposed sections, a version or kind
    /// mismatch — yields a typed [`RestoreError`] and no world. A
    /// successful restore resumes cycle/stat/fault byte-identically to
    /// the world that was saved; the block store and translation
    /// memos start cold and are rebuilt on demand.
    pub fn restore_sections(v: &ImageView<'_>) -> Result<Machine, RestoreError> {
        let mut m = Machine::new();

        let mut d = v.require(base::MACHINE + 1, "cpu")?;
        m.cpu = image::get_cpu(&mut d)?;
        d.finish()?;

        let mut d = v.require(base::MACHINE + 2, "gdt")?;
        m.gdt = image::get_descriptor_table(&mut d)?;
        d.finish()?;

        let mut d = v.require(base::MACHINE + 3, "ldt")?;
        m.ldt = if d.bool()? {
            Some(image::get_descriptor_table(&mut d)?)
        } else {
            None
        };
        d.finish()?;

        let mut d = v.require(base::MACHINE + 4, "idt")?;
        let n = d.u32()? as usize;
        if n != 256 {
            return Err(d.fail(format!("IDT has {n} vectors")));
        }
        let mut idt = Vec::with_capacity(n);
        for _ in 0..n {
            idt.push(if d.bool()? {
                Some(IdtGate { dpl: d.u8()? })
            } else {
                None
            });
        }
        m.idt = idt;
        d.finish()?;

        let mut d = v.require(base::MACHINE + 5, "tss")?;
        for slot in &mut m.tss.stack {
            *slot = (Selector(d.u16()?), d.u32()?);
        }
        d.finish()?;

        let mut d = v.require(base::MACHINE + 6, "mmu")?;
        m.mmu = Mmu::restore_from(&mut d)?;
        d.finish()?;

        let mut d = v.require(base::MACHINE + 7, "counters")?;
        m.cycles = d.u64()?;
        m.insns = d.u64()?;
        m.predecode = d.bool()?;
        d.finish()?;

        let mut d = v.require(base::MACHINE + 8, "frames")?;
        m.mem = PhysMem::restore_from(&mut d)?;
        d.finish()?;

        let mut d = v.require(base::MACHINE + 9, "key-gates")?;
        let n = d.count(4)?;
        let mut prev: Option<u32> = None;
        for _ in 0..n {
            let site = d.u32()?;
            if prev.is_some_and(|p| p >= site) {
                return Err(d.fail("gate sites not strictly ascending"));
            }
            prev = Some(site);
            m.key_gates.insert(site);
        }
        d.finish()?;

        Ok(m)
    }

    /// Enables or disables the predecoded-instruction fast path.
    ///
    /// This is a *host* performance knob: simulated semantics and cycle
    /// accounting are identical either way (the determinism tests assert
    /// it). Disabling drops the stored blocks (installed proofs stay)
    /// and falls back to the byte-wise fetch, which the throughput
    /// benchmark uses as its baseline.
    pub fn set_predecode(&mut self, on: bool) {
        self.predecode = on;
        if !on {
            self.proof_run = None;
            self.blocks = crate::proof::BlockMap::default();
        }
    }

    /// Host-side counters of the fetch fast path: instructions served
    /// from straight-line blocks (or from proven blocks while proof
    /// elision is off), fetches served byte-wise, and translation-table
    /// misses.
    pub fn predecode_stats(&self) -> PredecodeStats {
        PredecodeStats {
            hits: self.block_served[0],
            misses: self.bytewise,
            translation_misses: self.memo_misses,
        }
    }

    // ----- proof tokens ------------------------------------------------------

    /// Installs the proof of the verified block at linear address
    /// `linear`, `len` bytes long, with `ds` carrying the block's DS
    /// bounds proof (if it has one). The machine marks the bytes as code
    /// and records the proof; it decodes nothing here. The block builder
    /// turns the proof into a proven block the first time the block is
    /// fetched, decoding the bytes itself — the caller asserts only the
    /// *proof* (that every DS access stays at offsets `..=ds.hi`), never
    /// the decoding. A proof whose length does not tile its instructions
    /// is ignored there.
    ///
    /// Serving requires the predecode fast path; eliding DS checks also
    /// requires [`Machine::set_proof_elision`] to be on. A failed
    /// installation is harmless: the block simply executes as an
    /// unproven one.
    pub fn install_proof_token(
        &mut self,
        linear: u32,
        len: u32,
        ds: Option<ProofDs>,
    ) -> Result<(), ProofInstallError> {
        if len == 0 {
            return Err(ProofInstallError::Empty);
        }
        let phys = self
            .host_translate(linear)
            .ok_or(ProofInstallError::Unmapped)?;
        // The whole block plus one fetch lookahead window must sit inside
        // a single page, so serving (and the equivalent normal-path
        // fetch) never needs a second page translation.
        if (phys & PAGE_MASK) as usize + len as usize + MAX_INSN_LEN > PAGE_SIZE as usize {
            return Err(ProofInstallError::CrossesPage);
        }
        // Track self-modification exactly like a built block: mark the
        // bytes as code and snapshot the slot's code generation.
        let slot = self.mem.ensure_frame_slot(phys);
        self.mem
            .mark_code(slot, (phys & PAGE_MASK) as usize, len as usize);
        let gen = self.mem.slot_code_generation(slot);
        Arc::make_mut(&mut self.proofs).insert(phys, Proof { len, ds, gen });
        // A block stored at this start was built without this proof.
        if self.blocks.contains_key(&phys) {
            Arc::make_mut(&mut self.blocks).remove(&phys);
        }
        Ok(())
    }

    /// Removes every installed proof token and stops any active run.
    /// Loaders call this when a module is unloaded or its pages are
    /// repurposed; still-valid proofs can simply be reinstalled. Blocks
    /// built without a proof stay: they revalidate themselves.
    pub fn clear_proof_tokens(&mut self) {
        if !self.proofs.is_empty() {
            self.proofs = ProofIndex::default();
            Arc::make_mut(&mut self.blocks).retain(|_, t| !t.verified);
        }
        self.proof_run = None;
    }

    /// Removes the proof token for the block at linear address `linear`,
    /// if one is installed and the page is still mapped, together with
    /// the block built from it. Loaders call this per block when one
    /// module's pages are revoked while others keep running — unlike
    /// [`Machine::clear_proof_tokens`] it leaves unrelated tokens in
    /// place.
    pub fn remove_proof_token(&mut self, linear: u32) -> bool {
        let Some(phys) = self.host_translate(linear) else {
            return false;
        };
        if !self.proofs.contains_key(&phys) {
            return false;
        }
        Arc::make_mut(&mut self.proofs).remove(&phys);
        if self.blocks.contains_key(&phys) {
            Arc::make_mut(&mut self.blocks).remove(&phys);
        }
        if self
            .proof_run
            .as_ref()
            .is_some_and(|r| r.start_phys == phys)
        {
            self.proof_run = None;
        }
        true
    }

    /// Enables or disables cashing in verifier proofs.
    ///
    /// Off, proven blocks are served like straight-line blocks: no DS
    /// check is elided and nothing is counted in [`ProofStats`]. Like
    /// [`Machine::set_predecode`], a *host* knob: simulated cycles,
    /// statistics and faults are identical either way (the differential
    /// soundness fuzzer asserts exactly this). Off is the baseline the
    /// throughput benchmark and the fuzzer's unelided twin use.
    pub fn set_proof_elision(&mut self, on: bool) {
        self.proof_elide = on;
        self.proof_run = None;
    }

    /// Whether verifier proofs are cashed in.
    pub fn proof_elision_enabled(&self) -> bool {
        self.proof_elide
    }

    /// Host-side proof-token counters.
    pub fn proof_stats(&self) -> ProofStats {
        ProofStats {
            installed: self.proofs.len() as u64,
            served: self.block_served[1],
            ..self.proof_stats
        }
    }

    /// Number of installed proof tokens.
    pub fn proof_token_count(&self) -> usize {
        self.proofs.len()
    }

    /// Stored block tokens (negative entries included) and the
    /// instructions served from straight-line ones.
    #[cfg(test)]
    pub(crate) fn lazy_block_stats(&self) -> (usize, u64) {
        (self.blocks.len(), self.block_served[0])
    }

    /// Total cycles charged so far.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Total instructions retired.
    pub fn insns(&self) -> u64 {
        self.insns
    }

    /// Charges raw cycles (used by the hosting kernel for modelled work).
    pub fn charge(&mut self, cycles: u64) {
        self.cycles += cycles;
    }

    /// Charges a hardware event.
    pub fn charge_event(&mut self, ev: Event) {
        self.cycles += cycles::measured_event(ev);
    }

    // ----- segment loading -------------------------------------------------

    /// Loads a data segment register (`mov sreg, r`, `pop sreg`), with the
    /// full descriptor privilege checks. Charges the segment-load cost.
    pub fn load_data_seg(&mut self, sr: SegReg, sel: Selector) -> Result<(), FaultBuilder> {
        self.charge_event(Event::SegLoad);
        self.load_data_seg_nocharge(sr, sel)
    }

    /// As [`Machine::load_data_seg`] but without charging — used inside
    /// far transfers whose event cost already includes the loads.
    pub(crate) fn load_data_seg_nocharge(
        &mut self,
        sr: SegReg,
        sel: Selector,
    ) -> Result<(), FaultBuilder> {
        match sr {
            SegReg::Cs => {
                // CS is only loadable by far control transfers.
                return Err(Fault::ud(FaultCause::BadInstruction));
            }
            SegReg::Ss => {
                if sel.is_null() {
                    return Err(Fault::gp(sel.0, FaultCause::BadSelector(sel.0)));
                }
                let d = resolve(&self.gdt, self.ldt.as_ref(), sel)?;
                let cache = SegCache::from_descriptor(sel, &d)
                    .ok_or(Fault::gp(sel.0, FaultCause::BadSegmentType))?;
                if cache.code || !cache.writable {
                    return Err(Fault::gp(sel.0, FaultCause::BadSegmentType));
                }
                if sel.rpl() != self.cpu.cpl || cache.dpl != self.cpu.cpl {
                    return Err(Fault::gp(
                        sel.0,
                        FaultCause::PrivilegeViolation {
                            cpl: self.cpu.cpl,
                            rpl: sel.rpl(),
                            dpl: cache.dpl,
                        },
                    ));
                }
                if !self.descriptor_present(&d) {
                    return Err(Fault::ss(sel.0, FaultCause::SegmentNotPresent(sel.0)));
                }
                self.write_seg_cache(sr, cache);
            }
            SegReg::Ds | SegReg::Es => {
                if sel.is_null() {
                    // Null is loadable; any use faults later.
                    self.write_seg_cache(sr, SegCache::invalid());
                    return Ok(());
                }
                let d = resolve(&self.gdt, self.ldt.as_ref(), sel)?;
                let cache = SegCache::from_descriptor(sel, &d)
                    .ok_or(Fault::gp(sel.0, FaultCause::BadSegmentType))?;
                if cache.code && !cache.readable {
                    return Err(Fault::gp(sel.0, FaultCause::BadSegmentType));
                }
                // Privilege: data and non-conforming readable code require
                // DPL >= max(CPL, RPL); conforming code skips the check.
                if !(cache.code && cache.conforming) {
                    let eff = self.cpu.cpl.max(sel.rpl());
                    if cache.dpl < eff {
                        return Err(Fault::gp(
                            sel.0,
                            FaultCause::PrivilegeViolation {
                                cpl: self.cpu.cpl,
                                rpl: sel.rpl(),
                                dpl: cache.dpl,
                            },
                        ));
                    }
                }
                if !self.descriptor_present(&d) {
                    return Err(Fault::np(sel.0));
                }
                self.write_seg_cache(sr, cache);
            }
        }
        Ok(())
    }

    /// The single funnel for segment-cache writes: every load of a
    /// segment register (and the host forcing helpers) goes through here
    /// so the segment-write generation advances — the one compare a
    /// block-token run needs to know its snapshotted CS/DS/CPL state is
    /// untouched.
    #[inline]
    pub(crate) fn write_seg_cache(&mut self, sr: SegReg, cache: SegCache) {
        self.cpu.segs[sr as usize] = cache;
        self.seg_gen = self.seg_gen.wrapping_add(1);
    }

    fn descriptor_present(&self, d: &Descriptor) -> bool {
        match d {
            Descriptor::Null => false,
            Descriptor::Code(c) => c.present,
            Descriptor::Data(d) => d.present,
            Descriptor::Gate(g) => g.present,
        }
    }

    /// Host-side: force a segment cache without checks (used to establish
    /// initial state, like a bootloader or kernel `iret` into a task).
    pub fn force_seg(&mut self, sr: SegReg, sel: Selector, cache: SegCache) {
        let mut cache = cache;
        cache.selector = sel;
        self.write_seg_cache(sr, cache);
        if sr == SegReg::Cs {
            self.cpu.cpl = sel.rpl();
        }
    }

    /// Host-side: resolve a selector and force-load it (asserting it is
    /// valid). Convenience for kernels establishing contexts.
    pub fn force_seg_from_table(&mut self, sr: SegReg, sel: Selector) {
        let d = resolve(&self.gdt, self.ldt.as_ref(), sel).expect("bad selector");
        let cache = SegCache::from_descriptor(sel, &d).expect("not a segment");
        self.force_seg(sr, sel, cache);
    }

    // ----- logical memory access -------------------------------------------

    /// Performs the segment-level checks for an access and returns the
    /// linear address.
    #[inline]
    pub fn seg_check(
        &self,
        sr: SegReg,
        off: u32,
        size: u32,
        write: bool,
    ) -> Result<u32, FaultBuilder> {
        let seg = self.cpu.seg(sr);
        let stack = sr == SegReg::Ss;
        let fault = |cause| {
            if stack {
                Fault::ss(0, cause)
            } else {
                Fault::gp(0, cause)
            }
        };
        if !seg.valid {
            return Err(fault(FaultCause::BadSelector(seg.selector.0)));
        }
        if !seg.check_limit(off, size) {
            return Err(fault(FaultCause::LimitViolation {
                offset: off,
                limit: seg.limit,
            }));
        }
        if write {
            if seg.code || !seg.writable {
                return Err(fault(FaultCause::BadSegmentType));
            }
        } else if !seg.readable {
            return Err(fault(FaultCause::BadSegmentType));
        }
        Ok(seg.base.wrapping_add(off))
    }

    /// Translates a data access on the original per-access MMU path (no
    /// translation table): the page-straddling paths and the `set_predecode(false)`
    /// baseline use this.
    #[inline(never)]
    fn translate_data(&mut self, linear: u32, write: bool) -> Result<u32, FaultBuilder> {
        let access = if write { Access::Write } else { Access::Read };
        let user = self.cpu.cpl == 3;
        let t = self
            .mmu
            .translate_keyed(&mut self.mem, linear, access, user, self.cpu.pkru)?;
        if t.tlb_miss {
            self.charge_event(Event::TlbMiss);
        }
        Ok(t.phys)
    }

    /// Translates a within-page data access, answering repeat same-page
    /// accesses from the read/write tables and returning the frame's slab
    /// slot ([`NO_SLOT`] when unbacked) for slot-direct physical access.
    /// See [`PageMemo`] for the soundness argument. Gated on the
    /// predecode flag so the benchmark baseline keeps the pre-fast-path
    /// cost structure.
    #[inline]
    fn translate_data_slot(
        &mut self,
        linear: u32,
        write: bool,
    ) -> Result<(u32, u32), FaultBuilder> {
        if !(self.mmu.enabled() && self.predecode) {
            return self.translate_data(linear, write).map(|p| (p, NO_SLOT));
        }
        let user = self.cpu.cpl == 3;
        let pkru = self.cpu.pkru;
        let page = linear & !PAGE_MASK;
        let epoch = self.mmu.epoch();
        let table = if write {
            &self.tables.write
        } else {
            &self.tables.read
        };
        if let Some((pp, slot)) = table.lookup(page, user, pkru, epoch) {
            self.mmu.count_memo_hit();
            return Ok((pp | (linear & PAGE_MASK), slot));
        }
        self.translate_data_slot_miss(linear, write)
    }

    /// Table miss of [`Machine::translate_data_slot`]: walks the MMU and
    /// refills the tables.
    #[inline(never)]
    fn translate_data_slot_miss(
        &mut self,
        linear: u32,
        write: bool,
    ) -> Result<(u32, u32), FaultBuilder> {
        self.memo_misses += 1;
        let user = self.cpu.cpl == 3;
        let pkru = self.cpu.pkru;
        let page = linear & !PAGE_MASK;
        let epoch = self.mmu.epoch();
        let access = if write { Access::Write } else { Access::Read };
        let t = self
            .mmu
            .translate_keyed(&mut self.mem, linear, access, user, pkru)?;
        if t.tlb_miss {
            self.charge_event(Event::TlbMiss);
        }
        let pp = t.phys & !PAGE_MASK;
        let slot = if write {
            // The store about to happen would back the frame anyway, so
            // allocating it now changes nothing observable.
            self.mem.ensure_frame_slot(pp)
        } else {
            self.mem.frame_slot(pp).unwrap_or(NO_SLOT)
        };
        let tables = Arc::make_mut(&mut self.tables);
        if write {
            // A successful write-translate leaves the TLB entry dirty and
            // write rights imply read rights, so the page is also good
            // for reads.
            tables.write.fill(page, pp, slot, user, pkru, epoch);
        }
        tables.read.fill(page, pp, slot, user, pkru, epoch);
        Ok((t.phys, slot))
    }

    /// Reads `size` (1, 2 or 4) bytes through a segment.
    ///
    /// Inside a proof-token run whose DS entry guard held, DS accesses
    /// skip [`Machine::seg_check`]: the verifier proved the offset range
    /// the block can touch and the guard validated it against the live
    /// descriptor once at block entry. The check charges no simulated
    /// cycles and (per the proof) cannot fault, so eliding it is
    /// invisible to the simulated machine.
    #[inline]
    pub fn read_data(&mut self, sr: SegReg, off: u32, size: u32) -> Result<u32, FaultBuilder> {
        let linear = if sr == SegReg::Ds && self.ds_elide_now {
            self.proof_stats.ds_elided += 1;
            self.cpu.seg(SegReg::Ds).base.wrapping_add(off)
        } else {
            self.seg_check(sr, off, size, false)?
        };
        self.read_linear(linear, size, false)
    }

    /// Writes `size` (1, 2 or 4) bytes through a segment. DS writes
    /// elide the segment check inside a proven block, as
    /// [`Machine::read_data`] describes.
    #[inline]
    pub fn write_data(
        &mut self,
        sr: SegReg,
        off: u32,
        size: u32,
        value: u32,
    ) -> Result<(), FaultBuilder> {
        let linear = if sr == SegReg::Ds && self.ds_elide_now {
            self.proof_stats.ds_elided += 1;
            self.cpu.seg(SegReg::Ds).base.wrapping_add(off)
        } else {
            self.seg_check(sr, off, size, true)?
        };
        self.write_linear(linear, size, value)
    }

    #[inline]
    fn read_linear(&mut self, linear: u32, size: u32, _exec: bool) -> Result<u32, FaultBuilder> {
        if (linear & 0xFFF) + size <= 0x1000 {
            let (phys, slot) = self.translate_data_slot(linear, false)?;
            if slot != NO_SLOT {
                let off = phys & PAGE_MASK;
                return Ok(match size {
                    1 => self.mem.read_u8_slot(slot, off) as u32,
                    2 => self.mem.read_u16_slot(slot, off) as u32,
                    _ => self.mem.read_u32_slot(slot, off),
                });
            }
            Ok(match size {
                1 => self.mem.read_u8(phys) as u32,
                2 => self.mem.read_u16(phys) as u32,
                _ => self.mem.read_u32(phys),
            })
        } else {
            // Page-straddling access: translate byte-wise. The linear
            // address may wrap past 0xFFFF_FFFF (an expand-down or
            // high-based segment), matching `seg_check`'s wrapping
            // arithmetic — the wrapped page then translates (or faults)
            // like any other.
            let mut v: u32 = 0;
            for i in 0..size {
                let phys = self.translate_data(linear.wrapping_add(i), false)?;
                v |= (self.mem.read_u8(phys) as u32) << (8 * i);
            }
            Ok(v)
        }
    }

    #[inline]
    fn write_linear(&mut self, linear: u32, size: u32, value: u32) -> Result<(), FaultBuilder> {
        if (linear & 0xFFF) + size <= 0x1000 {
            let (phys, slot) = self.translate_data_slot(linear, true)?;
            if slot != NO_SLOT {
                let off = phys & PAGE_MASK;
                match size {
                    1 => self.mem.write_u8_slot(slot, off, value as u8),
                    2 => self.mem.write_u16_slot(slot, off, value as u16),
                    _ => self.mem.write_u32_slot(slot, off, value),
                }
                return Ok(());
            }
            match size {
                1 => self.mem.write_u8(phys, value as u8),
                2 => self.mem.write_u16(phys, value as u16),
                _ => self.mem.write_u32(phys, value),
            }
        } else {
            // Page-straddling store: translate every byte *before* writing
            // any, so a fault on the second page cannot leave a partial
            // store (restartable-instruction semantics).
            let mut phys = [0u32; 4];
            for i in 0..size {
                phys[i as usize] = self.translate_data(linear.wrapping_add(i), true)?;
            }
            for i in 0..size {
                self.mem
                    .write_u8(phys[i as usize], (value >> (8 * i)) as u8);
            }
        }
        Ok(())
    }

    // ----- stack helpers ----------------------------------------------------

    /// Pushes a 32-bit value on the current stack.
    #[inline]
    pub fn push32(&mut self, v: u32) -> Result<(), FaultBuilder> {
        let esp = self.cpu.esp().wrapping_sub(4);
        self.write_data(SegReg::Ss, esp, 4, v)?;
        self.cpu.set_reg(Reg::Esp, esp);
        Ok(())
    }

    /// Pops a 32-bit value from the current stack.
    #[inline]
    pub fn pop32(&mut self) -> Result<u32, FaultBuilder> {
        let esp = self.cpu.esp();
        let v = self.read_data(SegReg::Ss, esp, 4)?;
        self.cpu.set_reg(Reg::Esp, esp.wrapping_add(4));
        Ok(v)
    }

    // ----- instruction fetch ------------------------------------------------

    /// Fetches and decodes the instruction at CS:EIP into
    /// `self.fetched`.
    ///
    /// The prefetch window is at most [`MAX_INSN_LEN`] bytes, clipped by
    /// the segment limit. A translation fault on the window's first page
    /// is raised at once; one on a *second* page is deferred: the decoder
    /// runs on the bytes that are mapped, and the #PF is raised only if
    /// the instruction actually needed the missing bytes. Every path
    /// charges the same `Event::TlbMiss` walks and counts one TLB hit
    /// per page touched, since every byte of a page shares its
    /// translation.
    ///
    /// With predecode on, a fetch is served from a block token (see
    /// [`crate::proof`]), else by the byte-wise reference
    /// [`Machine::fetch_bytewise`]; with it off, the byte-wise reference
    /// serves every fetch. The fetched record holds the instruction, its
    /// length and its base cycle cost ([`cycles::measured_cost`],
    /// precomputed in a block token).
    ///
    /// Only the block paths are inlined into the run loop: the token
    /// continuation, the expand-up window, the memoized translation and
    /// a block activation. The byte-wise fetch and the expand-down probe
    /// are separate functions.
    #[inline(always)]
    fn fetch(&mut self) -> Result<(), FaultBuilder> {
        self.ds_elide_now = false;
        let eip = self.cpu.eip;
        // Hot continuation of an active token run: while the guard
        // stamp is unchanged (segment-write generation, MMU epoch, code
        // epoch) everything below — including the CS validity check, the
        // window computation, the translation and the block-map probe —
        // would reproduce what the run already
        // verified, so it is skipped wholesale. This is where the
        // hoisting pays: a served instruction costs a handful of
        // compares. Falls through to the full path on any mismatch.
        if self.proof_fast(eip) {
            return Ok(());
        }
        let cs = *self.cpu.seg(SegReg::Cs);
        if !cs.valid || !cs.code {
            return Err(Fault::gp(cs.selector.0, FaultCause::BadSegmentType));
        }
        // Bytes of the prefetch window the segment limit permits.
        //
        // For an expand-up segment (every genuine code descriptor) this is
        // arithmetic: offsets `eip..=limit` are valid, and when `limit` is
        // `u32::MAX` the window wraps through 0 and stays valid, exactly
        // as the byte-by-byte `check_limit` probe would find. The probe
        // loop remains for the force-loaded expand-down oddity.
        let window = if !cs.expand_down {
            if eip > cs.limit {
                0
            } else if cs.limit == u32::MAX {
                MAX_INSN_LEN
            } else {
                ((cs.limit - eip + 1) as usize).min(MAX_INSN_LEN)
            }
        } else {
            expand_down_window(&cs, eip)
        };
        if window == 0 {
            return Err(Fault::gp(
                0,
                FaultCause::LimitViolation {
                    offset: eip,
                    limit: cs.limit,
                },
            ));
        }
        if !self.predecode {
            return self.fetch_bytewise(&cs, eip, window, false);
        }

        // Translate the window's first page: a fault here is fatal (not
        // even one byte can be fetched).
        let phys0 = self.translate_fetch_fast(cs.base.wrapping_add(eip))?;

        // Block fast path: serve the instruction from a block token when
        // the block's hoisted entry guard (still) holds. The serve is
        // host-only — the translation above already performed the same
        // (memoized) work the byte-wise reference does, the token block
        // never spans a second page, and the precomputed cost is the one
        // the reference's decode would derive — so cycles, stats and
        // faults are byte-identical to the reference below.
        if self.proof_serve(phys0, eip, &cs) {
            return Ok(());
        }
        self.bytewise += 1;
        self.fetch_bytewise(&cs, eip, window, true)
    }

    /// Byte-wise fetch: the reference implementation, which serves every
    /// fetch with predecode off (`set_predecode(false)`, the benchmark
    /// baseline) and every fetch no block serves with it on. It keeps the
    /// original algorithm's cost structure — a `check_limit` probe, a
    /// translation and a physical read *per prefetched byte* — and
    /// defers a fault on the window's second page. Like a block serve,
    /// it counts one TLB hit per page touched: a byte's translation after
    /// the first on its page is a guaranteed hit, and its count is taken
    /// back. With `first_counted` the caller has already translated (and
    /// counted) the first byte's page, so the first byte's hit is taken
    /// back too.
    ///
    /// A decode that runs out of bytes raises what cut the prefetch
    /// short: the deferred second-page fault if there is one, else #GP(0)
    /// when the CS limit clipped the `window` (the instruction straddles
    /// the limit).
    #[inline(never)]
    fn fetch_bytewise(
        &mut self,
        cs: &SegCache,
        eip: u32,
        window: usize,
        first_counted: bool,
    ) -> Result<(), FaultBuilder> {
        let mut buf = [0u8; MAX_INSN_LEN];
        let mut n = 0usize;
        let mut pending: Option<FaultBuilder> = None;
        while n < window {
            let off = eip.wrapping_add(n as u32);
            if !cs.check_limit(off, 1) {
                break;
            }
            let linear = cs.base.wrapping_add(off);
            let hits = self.mmu.stats.hits;
            match self.translate_fetch(linear) {
                Ok(phys) => buf[n] = self.mem.read_u8(phys),
                Err(fb) => {
                    pending = Some(fb);
                    break;
                }
            }
            let page_counted = if n == 0 {
                first_counted
            } else {
                linear & PAGE_MASK != 0
            };
            if page_counted {
                self.mmu.stats.hits = hits;
            }
            n += 1;
        }
        if n == 0 {
            // The very first byte is unmapped: nothing to decode.
            return Err(pending.expect("window > 0, so the loop ran"));
        }
        match decode(&buf[..n]) {
            Ok((insn, len)) => {
                self.fetched = TokenInsn {
                    insn,
                    len: len as u32,
                    cost: cycles::measured_cost(&insn),
                };
                Ok(())
            }
            Err(DecodeError::Truncated) => Err(match pending {
                Some(fb) => fb,
                None if window < MAX_INSN_LEN => Fault::gp(
                    0,
                    FaultCause::LimitViolation {
                        offset: eip.wrapping_add(window as u32),
                        limit: cs.limit,
                    },
                ),
                None => Fault::ud(FaultCause::BadInstruction),
            }),
            Err(_) => Err(Fault::ud(FaultCause::BadInstruction)),
        }
    }

    /// Tries to serve the fetch at `eip` (translated to `phys0`) from a
    /// block token: either the active run's next instruction, or the
    /// first instruction of a token starting at `phys0` — built now if
    /// there is none — whose entry guard holds, into `self.fetched`.
    /// `false` falls through to the normal fetch path.
    fn proof_serve(&mut self, phys0: u32, eip: u32, cs: &SegCache) -> bool {
        if let Some(run) = &self.proof_run {
            if run.idx == run.count {
                // Ran its block to completion (and the hot re-arm did
                // not apply): retire silently, it is not a break.
                self.proof_run = None;
            } else {
                let live = eip == run.expect_eip
                    && phys0 == run.expect_phys
                    && self.seg_gen == run.seg_gen
                    && self.mem.slot_code_generation(run.slot) == run.gen;
                if live {
                    // The translation and the slot's code generation
                    // were just re-verified: re-arm the hot-path stamp
                    // so the next fetch can take the fast continuation
                    // again.
                    let stamp = self.armed_stamp();
                    self.proof_run.as_mut().expect("checked above").stamp = stamp;
                    return self.proof_advance();
                }
                self.proof_stats.broken += u64::from(run.verified);
                self.proof_run = None;
            }
        }
        // Not inside a run: attempt activation at a block boundary. The
        // bytes must still be what was predecoded (code generation): a
        // block whose bytes changed is rebuilt.
        let token = match self.blocks.get(&phys0) {
            Some(t) if self.mem.slot_code_generation(t.slot) == t.gen => Arc::clone(t),
            _ => match self.build_block(phys0, eip, cs) {
                Some(t) => t,
                None => return false,
            },
        };
        debug_assert_eq!(token.start_phys, phys0);
        if token.insns.is_empty() {
            return false;
        }
        // Entry guard, hoisted over the whole block:
        // - the block's last byte is inside the (expand-up) CS limit, so
        //   every per-instruction window check inside the block passes;
        // - when the block carries a DS bounds proof, DS covers its
        //   maximum offset with the rights its accesses need.
        if cs.expand_down || eip.checked_add(token.len - 1).is_none_or(|e| e > cs.limit) {
            return false;
        }
        let verified = self.proof_elide && token.verified;
        let ds = *self.cpu.seg(SegReg::Ds);
        let ds_elide = verified
            && token.ds.is_some_and(|p| {
                ds.valid
                    && !ds.expand_down
                    && p.hi <= ds.limit
                    && (!p.stores || (!ds.code && ds.writable))
                    && (!p.loads || ds.readable)
            });
        self.proof_run = Some(ProofRun {
            idx: 0,
            count: token.insns.len(),
            slot: token.slot,
            gen: token.gen,
            stamp: self.armed_stamp(),
            token,
            expect_eip: eip,
            expect_phys: phys0,
            start_eip: eip,
            start_phys: phys0,
            seg_gen: self.seg_gen,
            ds_elide,
            verified,
        });
        self.proof_stats.activations += u64::from(verified);
        self.proof_advance()
    }

    /// Builds and stores the token at `phys0` (fetched at `eip` through
    /// `cs`): the proven block there when a valid proof starts there
    /// (see [`proven_block`]), else the straight-line block up to and
    /// including its first control transfer. Either way the block plus
    /// one fetch window fits inside the page and the block ends inside
    /// the CS limit. A block with no instruction is stored too, as a
    /// negative entry. `None` when no block may be built here.
    #[inline(never)]
    fn build_block(&mut self, phys0: u32, eip: u32, cs: &SegCache) -> Option<Arc<BlockToken>> {
        if cs.expand_down {
            return None;
        }
        // Only a frame the normal path has already backed: materializing
        // one here would be observable.
        let slot = self.mem.frame_slot(phys0)?;
        let gen = self.mem.slot_code_generation(slot);
        let off = (phys0 & PAGE_MASK) as usize;
        // `eip <= cs.limit`: the fetch window was not empty.
        let room = (PAGE_SIZE as usize)
            .saturating_sub(off + MAX_INSN_LEN)
            .min((cs.limit - eip) as usize + 1);
        let bytes = self.mem.frame_data(phys0)?;
        let (insns, len, ds, verified) = match proven_block(&self.proofs, bytes, phys0, room, gen) {
            Some((insns, len, ds)) => (insns, len, ds, true),
            None => {
                let (insns, len) = decode_block(&bytes[off..], room, MAX_BLOCK_INSNS, true);
                (insns, len, None, false)
            }
        };
        if len > 0 {
            self.mem.mark_code(slot, off, len);
        }
        let token = Arc::new(BlockToken {
            start_phys: phys0,
            len: len as u32,
            insns,
            ds,
            slot,
            gen,
            verified,
        });
        if self.blocks.len() >= MAX_LAZY_BLOCKS {
            self.blocks = crate::proof::BlockMap::default();
        }
        Arc::make_mut(&mut self.blocks).insert(phys0, Arc::clone(&token));
        Some(token)
    }

    /// Hot path of [`Machine::proof_serve`]: continues an active run —
    /// or re-arms a completed one across a loop back edge — without the
    /// window computation, translation or block-map probe of the full
    /// fetch path. Sound because every input those steps depend on is
    /// covered by the guard stamp the run armed when it last went
    /// through the full path ([`ProofRun::stamp`]): the segment-write
    /// generation (so the CS/DS caches and the CPL — the memo's `user`
    /// key — are bit-identical to what the entry guard validated), the
    /// MMU epoch (paging is still on and the fetch table would return
    /// the same translation), and the global code-invalidation epoch (no
    /// frame's code generation moved, so the bytes are still the
    /// predecoded ones). So it tests two things: EIP and the stamp. Any
    /// mismatch falls back to the full path, which breaks or re-verifies
    /// the run with a real translation in hand.
    ///
    /// The skipped memoized translation is accounted as the memo hit it
    /// would have been (`Mmu::count_memo_hit`), so the serialized TLB
    /// statistics stay byte-identical to unelided dispatch.
    #[inline(always)]
    fn proof_fast(&mut self, eip: u32) -> bool {
        let Some(run) = self.proof_run.as_ref() else {
            return false;
        };
        let done = run.idx == run.count;
        let expect = if done { run.start_eip } else { run.expect_eip };
        if eip != expect || self.guard_stamp() != run.stamp {
            return false;
        }
        self.mmu.count_memo_hit();
        if done {
            // Loop back edge: everything the entry guard checked at
            // activation was just re-compared, so re-arm in place.
            let run = self.proof_run.as_mut().expect("checked above");
            run.idx = 0;
            run.expect_eip = run.start_eip;
            run.expect_phys = run.start_phys;
            self.proof_stats.activations += u64::from(run.verified);
        }
        self.proof_advance()
    }

    /// The guard stamp: the segment-write generation plus the MMU epoch
    /// plus the code epoch. Each only grows, so the sum moves exactly
    /// when one of them does (see [`ProofRun::stamp`]).
    #[inline(always)]
    fn guard_stamp(&self) -> u64 {
        self.seg_gen
            .wrapping_add(self.mmu.epoch())
            .wrapping_add(self.mem.code_epoch())
    }

    /// The stamp a token run arms with: the live [`Machine::guard_stamp`]
    /// under paging. With paging off it is one less, a value the
    /// only-growing sum has already passed and never matches again, so
    /// the hot path never serves a run armed without paging: it counts
    /// the TLB hit a memoized translation would have, and an identity
    /// translation counts none.
    fn armed_stamp(&self) -> u64 {
        self.guard_stamp()
            .wrapping_sub(u64::from(!self.mmu.enabled()))
    }

    /// Serves the active run's next instruction into `self.fetched` and
    /// advances the run. A run
    /// that reaches block end is kept (`idx == insns.len()`) so the hot
    /// path can re-arm it across a loop back edge; it is retired by the
    /// next full-path fetch that does not re-arm it.
    #[inline(always)]
    fn proof_advance(&mut self) -> bool {
        let Some(run) = self.proof_run.as_mut() else {
            return false;
        };
        let t = run.token.insns[run.idx];
        self.fetched = t;
        self.ds_elide_now = run.ds_elide;
        run.idx += 1;
        run.expect_eip = run.expect_eip.wrapping_add(t.len);
        run.expect_phys += t.len;
        self.block_served[usize::from(run.verified)] += 1;
        true
    }

    /// Fetch-path translation through the fetch table (fast path only;
    /// the byte-wise baseline keeps calling [`Machine::translate_fetch`]).
    /// See [`PageMemo`] for why the table is invisible to the simulated
    /// machine.
    #[inline]
    fn translate_fetch_fast(&mut self, linear: u32) -> Result<u32, FaultBuilder> {
        // Memoize only under paging: turning paging on does not advance
        // the epoch, so an identity translation cached with paging off
        // would survive the enable.
        if !self.mmu.enabled() {
            return self.translate_fetch(linear);
        }
        let page = linear & !PAGE_MASK;
        let user = self.cpu.cpl == 3;
        let epoch = self.mmu.epoch();
        // Protection keys never gate instruction fetches (as on real
        // MPK hardware), so the fetch table keys on a constant PKRU.
        if let Some((pp, _)) = self.tables.fetch.lookup(page, user, 0, epoch) {
            self.mmu.count_memo_hit();
            return Ok(pp | (linear & PAGE_MASK));
        }
        self.memo_misses += 1;
        let phys = self.translate_fetch(linear)?;
        Arc::make_mut(&mut self.tables).fetch.fill(
            page,
            phys & !PAGE_MASK,
            NO_SLOT,
            user,
            0,
            epoch,
        );
        Ok(phys)
    }

    #[inline(never)]
    fn translate_fetch(&mut self, linear: u32) -> Result<u32, FaultBuilder> {
        let user = self.cpu.cpl == 3;
        let t = self
            .mmu
            .translate(&mut self.mem, linear, Access::Read, user)?;
        if t.tlb_miss {
            self.charge_event(Event::TlbMiss);
        }
        Ok(t.phys)
    }

    // ----- execution loop ---------------------------------------------------

    /// Executes one instruction. `None` means "keep going".
    ///
    /// This is the single-instruction primitive; the run loop inlines it,
    /// so fetch and execute hit paths compile into one loop body while
    /// fault delivery and trace capture stay out of line.
    #[inline(always)]
    pub fn step(&mut self) -> Option<Exit> {
        let saved_eip = self.cpu.eip;
        let cs_sel = self.cpu.seg(SegReg::Cs).selector.0;
        let cpl = self.cpu.cpl;
        if let Err(fb) = self.fetch() {
            return Some(self.deliver_fault(fb, saved_eip, cs_sel, cpl));
        }
        let (len, cost) = (self.fetched.len, self.fetched.cost);
        self.insns += 1;
        self.cycles += cost;
        // Attribute the instruction to the domain it *executed in* (far
        // transfers change CPL as a side effect), so record the state
        // read before `execute` — but only when a trace is live.
        let traced = self.trace.is_some();
        let r = self.execute(self.fetched.insn, len);
        if traced {
            self.record_trace(self.fetched.insn, saved_eip, cs_sel, cpl);
        }
        match r {
            Ok(exit) => exit,
            Err(fb) => Some(self.deliver_fault(fb, saved_eip, cs_sel, cpl)),
        }
    }

    /// Delivers an exception: restores the faulting EIP (instructions
    /// are restartable) and exits to the host kernel, charging the
    /// vectoring cost.
    #[cold]
    #[inline(never)]
    fn deliver_fault(&mut self, fb: FaultBuilder, eip: u32, cs: u16, cpl: u8) -> Exit {
        self.cpu.eip = eip;
        self.charge_event(Event::ExceptionDelivery);
        Exit::Fault(fb.at(eip, cs, cpl))
    }

    /// Appends a retired instruction to the live trace.
    #[cold]
    #[inline(never)]
    fn record_trace(&mut self, insn: Insn, eip: u32, cs: u16, cpl: u8) {
        let cycles = self.cycles;
        if let Some(t) = self.trace.as_mut() {
            t.push(TraceRecord {
                cs,
                cpl,
                eip,
                insn,
                cycles,
            });
        }
    }

    /// The one interpreter loop behind [`Machine::run`],
    /// [`Machine::run_to`] and [`Machine::run_until_cycles`]. Before each
    /// instruction it stops on, in order: `max_insns` retired
    /// ([`Exit::InsnLimit`]), the cycle counter at or past `deadline`
    /// ([`Exit::CycleLimit`]), EIP at `breakpoint` (`None`).
    fn run_loop(&mut self, max_insns: u64, deadline: u64, breakpoint: Option<u32>) -> Option<Exit> {
        let mut left = max_insns;
        loop {
            if left == 0 {
                return Some(Exit::InsnLimit);
            }
            if self.cycles >= deadline {
                return Some(Exit::CycleLimit);
            }
            if breakpoint == Some(self.cpu.eip) {
                return None;
            }
            left -= 1;
            if let Some(exit) = self.step() {
                return Some(exit);
            }
        }
    }

    /// Runs until an exit or until `max_insns` instructions retire.
    pub fn run(&mut self, max_insns: u64) -> Exit {
        self.run_loop(max_insns, u64::MAX, None)
            .expect("only a breakpoint stop returns None")
    }

    /// Runs until EIP reaches `breakpoint` (before executing it), an exit
    /// occurs, or `max_insns` retire — the `segdb` breakpoint primitive.
    pub fn run_to(&mut self, breakpoint: u32, max_insns: u64) -> Option<Exit> {
        self.run_loop(max_insns, u64::MAX, Some(breakpoint))
    }

    /// Runs until an exit or until the cycle counter passes `deadline`.
    ///
    /// This is the primitive behind the paper's extension CPU-time limit:
    /// the kernel's timer interrupt is modelled as a deadline check.
    pub fn run_until_cycles(&mut self, deadline: u64) -> Exit {
        self.run_loop(u64::MAX, deadline, None)
            .expect("only a breakpoint stop returns None")
    }

    /// Enables execution tracing, retaining the last `capacity` retired
    /// instructions (for the segmentation-aware debugger of §6).
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = Some(Trace::new(capacity));
    }

    /// Disables tracing, returning what was collected.
    pub fn disable_trace(&mut self) -> Option<Trace> {
        self.trace.take()
    }

    /// Borrows the live trace, if enabled.
    pub fn trace(&self) -> Option<&Trace> {
        self.trace.as_ref()
    }

    /// Host-side: charge the cost of resuming the guest with `iret`.
    ///
    /// Called by the kernel when it returns control to guest code after a
    /// host-hooked interrupt or exception.
    pub fn charge_iret_resume(&mut self) {
        self.charge_event(Event::IretResume);
    }

    // ----- host-side (supervisor) memory helpers ----------------------------

    /// Reads bytes at a linear address, bypassing all protection (the
    /// hosting ring-0 kernel's view). Does not charge cycles.
    pub fn host_read(&self, linear: u32, len: usize) -> Vec<u8> {
        // Translation and backing are page-granular, so walk the range one
        // page span at a time instead of re-translating every byte.
        let mut out = vec![0u8; len];
        let mut done = 0usize;
        while done < len {
            let l = linear.wrapping_add(done as u32);
            let n = ((PAGE_SIZE - (l & PAGE_MASK)) as usize).min(len - done);
            if let Some(p) = self.host_translate(l) {
                if let Some(frame) = self.mem.frame_data(p) {
                    let off = (p & PAGE_MASK) as usize;
                    out[done..done + n].copy_from_slice(&frame[off..off + n]);
                }
                // Unbacked frames read as zeros; `out` already is.
            }
            done += n;
        }
        out
    }

    /// Writes bytes at a linear address, bypassing all protection.
    ///
    /// Returns `false` if any page was unmapped.
    pub fn host_write(&mut self, linear: u32, data: &[u8]) -> bool {
        // One translation per page span, then a bulk physical copy (which
        // records the span as one store, like any other).
        let mut done = 0usize;
        while done < data.len() {
            let l = linear.wrapping_add(done as u32);
            let n = ((PAGE_SIZE - (l & PAGE_MASK)) as usize).min(data.len() - done);
            match self.host_translate(l) {
                Some(p) => self.mem.write_bytes(p, &data[done..done + n]),
                None => return false,
            }
            done += n;
        }
        true
    }

    /// Reads a u32 at a linear address (host view).
    pub fn host_read_u32(&self, linear: u32) -> u32 {
        let b = self.host_read(linear, 4);
        u32::from_le_bytes([b[0], b[1], b[2], b[3]])
    }

    /// Writes a u32 at a linear address (host view).
    pub fn host_write_u32(&mut self, linear: u32, v: u32) -> bool {
        self.host_write(linear, &v.to_le_bytes())
    }

    fn host_translate(&self, linear: u32) -> Option<u32> {
        if !self.mmu.enabled() {
            return Some(linear);
        }
        let pte_val = crate::paging::get_pte(&self.mem, self.mmu.cr3, linear)?;
        Some((pte_val & crate::paging::pte::FRAME) | (linear & 0xFFF))
    }

    // ----- fault-injection hooks ---------------------------------------------
    //
    // Campaign drivers (crates/chaos) mutate machine state between steps
    // to probe the fault paths. All hooks move in the *revoking* direction
    // only (present → not-present); granting access would invalidate the
    // protection invariants the campaigns assert.

    /// Sets the present bit of GDT descriptor `index` (code, data or
    /// gate). Returns the previous present state, or `None` when the
    /// index does not name a descriptor.
    pub fn set_descriptor_present(&mut self, index: u16, present: bool) -> Option<bool> {
        let d = self.gdt.get(index).copied()?;
        let (was, updated) = match d {
            Descriptor::Null => return None,
            Descriptor::Code(mut c) => {
                let was = c.present;
                c.present = present;
                (was, Descriptor::Code(c))
            }
            Descriptor::Data(mut dd) => {
                let was = dd.present;
                dd.present = present;
                (was, Descriptor::Data(dd))
            }
            Descriptor::Gate(mut g) => {
                let was = g.present;
                g.present = present;
                (was, Descriptor::Gate(g))
            }
        };
        self.gdt.set(index, updated);
        Some(was)
    }

    /// Present bit of GDT descriptor `index`, if it exists.
    pub fn gdt_entry_present(&self, index: u16) -> Option<bool> {
        Some(match self.gdt.get(index)? {
            Descriptor::Null => return None,
            Descriptor::Code(c) => c.present,
            Descriptor::Data(d) => d.present,
            Descriptor::Gate(g) => g.present,
        })
    }
}

/// The proven block at `phys0`, whose frame holds `frame` at code
/// generation `gen`: the instructions of the proof that starts there
/// and, when it carries DS facts, of the address-adjacent DS-proven
/// proofs after it, within `room` bytes. A proof counts only while its
/// generation is `gen` and its instructions tile its length. Returns
/// the instructions, the bytes they tile and the merged DS facts;
/// `None` when no such proof starts at `phys0`.
fn proven_block(
    proofs: &ProofIndex,
    frame: &[u8],
    phys0: u32,
    room: usize,
    gen: u64,
) -> Option<(Vec<TokenInsn>, usize, Option<ProofDs>)> {
    let off = (phys0 & PAGE_MASK) as usize;
    let mut insns = Vec::new();
    let mut len = 0usize;
    let mut ds: Option<ProofDs> = None;
    while let Some(p) = proofs.get(&(phys0 + len as u32)) {
        let end = len + p.len as usize;
        if p.gen != gen || end > room || (len > 0 && (ds.is_none() || p.ds.is_none())) {
            break;
        }
        let (more, tiled) = decode_block(&frame[off + len..], p.len as usize, usize::MAX, false);
        if tiled != p.len as usize {
            break;
        }
        insns.extend(more);
        ds = match (ds, p.ds) {
            (Some(a), Some(b)) => Some(ProofDs {
                hi: a.hi.max(b.hi),
                loads: a.loads || b.loads,
                stores: a.stores || b.stores,
            }),
            _ => p.ds,
        };
        len = end;
    }
    (len > 0).then_some((insns, len, ds))
}

/// Decodes the instructions at the start of `code` that end within its
/// first `room` bytes, at most `max` of them, stopping after the first
/// control transfer when `straight`. Returns them and the bytes they
/// tile.
fn decode_block(code: &[u8], room: usize, max: usize, straight: bool) -> (Vec<TokenInsn>, usize) {
    let mut insns = Vec::new();
    let mut len = 0;
    while len < room && insns.len() < max {
        let Ok((insn, n)) = decode(&code[len..]) else {
            break;
        };
        if len + n > room {
            break;
        }
        insns.push(TokenInsn {
            insn,
            len: n as u32,
            cost: cycles::measured_cost(&insn),
        });
        len += n;
        if straight && insn.is_control() {
            break;
        }
    }
    (insns, len)
}

/// The prefetch window of a (force-loaded) expand-down code segment,
/// probed byte by byte.
#[inline(never)]
fn expand_down_window(cs: &SegCache, eip: u32) -> usize {
    let mut w = 0usize;
    while w < MAX_INSN_LEN && cs.check_limit(eip.wrapping_add(w as u32), 1) {
        w += 1;
    }
    w
}
