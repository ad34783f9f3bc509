//! Predecoded-instruction cache: a host-side fast path for the fetch
//! stage.
//!
//! Decoding is the most expensive host work in the step loop, and the
//! instruction stream is overwhelmingly stable, so the machine caches
//! `(Insn, len)` keyed by **physical** address. Three invariants keep the
//! cache invisible to the simulated program (DESIGN.md §5):
//!
//! 1. **Physical-keyed.** The key is the physical address of the first
//!    instruction byte, produced by the ordinary segmented+paged fetch
//!    translation on every step. Remapping a linear page therefore needs
//!    no explicit invalidation — the translation simply yields a
//!    different key — and TLB flushes do not touch the cache.
//! 2. **Generation-invalidated.** Every entry records the *code*
//!    generation ([`crate::mem::PhysMem::slot_code_generation`]) of each
//!    frame it decoded bytes from (two frames when the instruction
//!    straddles a page boundary), and marks the exact bytes the decoder
//!    consumed ([`crate::mem::PhysMem::mark_code`]). Any mutation of
//!    those bytes — guest store, `host_write`, loader, fault injection —
//!    bumps the code generation and thereby invalidates stale entries
//!    lazily, so self-modifying code is observed by the very next fetch.
//!    The trigger is byte-exact: stacks, save slots and patch targets
//!    that merely share a page with code never invalidate anything.
//! 3. **Cycle-neutral.** A hit returns exactly what the decoder would
//!    have produced from the current bytes; translation (and its
//!    `Event::TlbMiss` charges, A-bit side effects and faults) still
//!    happens on every fetch. No simulated cycle count, fault, or
//!    architectural side effect depends on hit or miss.
//!
//! The cache is a direct-mapped array (no hashing, no allocation after
//! construction): the fetch fast path is one slot index, a tag compare
//! and a generation compare — the generation lives in the frame slab
//! ([`PhysMem::slot_code_generation`]), an array read away. Conflicting
//! instruction addresses simply evict each other; eviction order is a
//! pure function of the addresses executed, so runs stay deterministic.

use crate::mem::{PhysMem, PAGE_MASK, PAGE_SIZE};
use asm86::isa::Insn;

/// Host-side counters of the predecode fast path: the predecode cache's
/// hits and misses, and the machine's translation-table misses.
///
/// Purely observational: they exist so benchmarks and tests can see the
/// fast path working, and are deliberately *not* part of the simulated
/// machine state.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PredecodeStats {
    /// Fetches served from the cache.
    pub hits: u64,
    /// Fetches that had to run the decoder (including invalidations).
    pub misses: u64,
    /// Fetch and data translations that missed the machine's
    /// direct-mapped translation tables and walked the MMU (always 0 in
    /// [`InsnCache::stats`], which knows nothing of the tables).
    pub translation_misses: u64,
}

/// Number of direct-mapped slots (8192 ≈ 8 pages of dense code before
/// conflict evictions start; an eviction only costs a re-decode).
const SLOTS: usize = 1 << 13;

/// One cached decode: the instruction, its encoded length, its base
/// cycle cost, and the slab slots + code generations of the frame(s)
/// the bytes came from. Line-aligned so a hit touches one cache line.
#[derive(Debug, Clone, Copy)]
#[repr(align(64))]
struct Entry {
    /// Physical address of the first instruction byte; the slot tag.
    tag: u32,
    /// Encoded length; 0 marks an empty slot.
    len: u8,
    crosses: bool,
    /// [`crate::cycles::measured_cost`] of `insn`, memoized so a hit
    /// skips re-deriving it (it is a pure function of the instruction).
    cost: u16,
    insn: Insn,
    /// Slab slot and generation of the frame holding the first byte.
    lo_slot: u32,
    lo_gen: u64,
    /// For page-straddling instructions: the physical base, slab slot and
    /// generation of the second page.
    hi_base: u32,
    hi_slot: u32,
    hi_gen: u64,
}

impl Entry {
    const EMPTY: Entry = Entry {
        tag: 0,
        len: 0,
        crosses: false,
        cost: 0,
        insn: Insn::Nop,
        lo_slot: 0,
        lo_gen: 0,
        hi_base: 0,
        hi_slot: 0,
        hi_gen: 0,
    };
}

/// The predecoded-instruction cache. Owned by [`crate::Machine`]; see the
/// module docs for the invariants.
///
/// `Clone` carries the cache into a forked world by sharing the slot
/// slab copy-on-write (an `Arc` bump; the 512 KiB slab materializes
/// privately on the fork's first `insert`/`clear`). Entries stay valid
/// in the fork: they are keyed by physical address and slab slot (both
/// preserved by a [`crate::mem::PhysMem`] clone) and revalidated
/// against per-frame code generations, which fork privately with the
/// frame metadata.
#[derive(Debug, Clone)]
pub struct InsnCache {
    slots: std::sync::Arc<[Entry; SLOTS]>,
    live: usize,
    stats: PredecodeStats,
}

impl Default for InsnCache {
    fn default() -> InsnCache {
        InsnCache::new()
    }
}

impl InsnCache {
    /// Creates an empty cache.
    pub fn new() -> InsnCache {
        InsnCache {
            slots: std::sync::Arc::new([Entry::EMPTY; SLOTS]),
            live: 0,
            stats: PredecodeStats::default(),
        }
    }

    /// Hit/miss counters.
    pub fn stats(&self) -> PredecodeStats {
        self.stats
    }

    /// Occupied slots (for tests and diagnostics).
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Drops every entry (used when the fast path is toggled off).
    pub fn clear(&mut self) {
        std::sync::Arc::make_mut(&mut self.slots).fill(Entry::EMPTY);
        self.live = 0;
    }

    #[inline]
    fn slot_of(phys: u32) -> usize {
        // Two mixing rounds: a single Fibonacci multiply leaves address
        // pairs at certain deltas (Δ·φ mod 2³² small) systematically
        // colliding, and code segments are laid out at just such strides.
        let mut z = phys.wrapping_mul(0x9E37_79B9);
        z ^= z >> 16;
        z = z.wrapping_mul(0x85EB_CA6B);
        (z >> (32 - 13)) as usize & (SLOTS - 1)
    }

    /// Looks up a decode for the instruction at physical `phys`.
    ///
    /// `window` is the number of prefetch bytes the segment limit permits
    /// this fetch; an entry longer than that cannot be served (the
    /// decoder would have been truncated). `hi_page` is the physical base
    /// of the next page when the permitted window crosses a page
    /// boundary and that page translated successfully — a straddling
    /// entry can only be served when it is present and matches.
    #[inline]
    pub(crate) fn lookup(
        &mut self,
        mem: &PhysMem,
        phys: u32,
        window: usize,
        hi_page: Option<u32>,
    ) -> Option<(Insn, u32, u64)> {
        let e = &self.slots[Self::slot_of(phys)];
        let ok = e.len != 0
            && e.tag == phys
            && (e.len as usize) <= window
            && mem.slot_code_generation(e.lo_slot) == e.lo_gen
            && (!e.crosses
                || (hi_page == Some(e.hi_base) && mem.slot_code_generation(e.hi_slot) == e.hi_gen));
        if ok {
            self.stats.hits += 1;
            Some((e.insn, e.len as u32, e.cost as u64))
        } else {
            self.stats.misses += 1;
            None
        }
    }

    /// Records a successful decode of `insn` (`len` bytes at `phys`).
    ///
    /// Takes `&mut PhysMem` to pin the source frame(s) into the slab
    /// (without bumping generations) and to mark the consumed bytes as
    /// code, so later validations are array reads and only stores that
    /// actually hit those bytes invalidate.
    pub(crate) fn insert(
        &mut self,
        mem: &mut PhysMem,
        phys: u32,
        insn: Insn,
        len: u32,
        hi_page: Option<u32>,
    ) {
        let off = (phys & PAGE_MASK) as usize;
        let crosses = off + len as usize > PAGE_SIZE as usize;
        let n_lo = (len as usize).min(PAGE_SIZE as usize - off);
        let (hi_base, hi_slot, hi_gen) = if crosses {
            // A crossing decode consumed bytes from the second page, so
            // its translation must have been available.
            let Some(h) = hi_page else { return };
            let s = mem.ensure_frame_slot(h);
            mem.mark_code(s, 0, len as usize - n_lo);
            (h, s, mem.slot_code_generation(s))
        } else {
            (0, 0, 0)
        };
        let lo_slot = mem.ensure_frame_slot(phys);
        mem.mark_code(lo_slot, off, n_lo);
        let slot = &mut std::sync::Arc::make_mut(&mut self.slots)[Self::slot_of(phys)];
        if slot.len == 0 {
            self.live += 1;
        }
        *slot = Entry {
            tag: phys,
            len: len as u8,
            crosses,
            cost: crate::cycles::measured_cost(&insn) as u16,
            insn,
            lo_slot,
            lo_gen: mem.slot_code_generation(lo_slot),
            hi_base,
            hi_slot,
            hi_gen,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nop_cache() -> (PhysMem, InsnCache) {
        let mut mem = PhysMem::new();
        // Back the frame so generations move from a known point.
        mem.write_u8(0x1000, 0);
        (mem, InsnCache::new())
    }

    #[test]
    fn hit_returns_the_cached_decode() {
        let (mut mem, mut c) = nop_cache();
        c.insert(&mut mem, 0x1000, Insn::Nop, 1, None);
        assert_eq!(c.lookup(&mem, 0x1000, 12, None), Some((Insn::Nop, 1, 1)));
        assert_eq!(
            c.stats(),
            PredecodeStats {
                hits: 1,
                ..PredecodeStats::default()
            }
        );
    }

    #[test]
    fn store_into_cached_bytes_invalidates() {
        let (mut mem, mut c) = nop_cache();
        c.insert(&mut mem, 0x1000, Insn::Hlt, 4, None);
        mem.write_u8(0x1003, 0x42); // last byte the decode consumed
        assert_eq!(c.lookup(&mem, 0x1000, 12, None), None);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn store_elsewhere_in_the_frame_does_not_invalidate() {
        // Byte-exact triggering: data sharing a page with code (stacks,
        // save slots, patch targets) must not evict decodes.
        let (mut mem, mut c) = nop_cache();
        c.insert(&mut mem, 0x1000, Insn::Hlt, 4, None);
        mem.write_u8(0x1004, 0x42); // first byte *past* the decode
        mem.write_u32(0x1800, 0xDEAD_BEEF);
        assert_eq!(c.lookup(&mem, 0x1000, 12, None), Some((Insn::Hlt, 4, 1)));
        // But a straddling store clipping the first byte does invalidate.
        mem.write_u16(0x0FFF, 0x9090);
        assert_eq!(c.lookup(&mem, 0x1000, 12, None), None);
    }

    #[test]
    fn shrunken_window_cannot_serve_a_long_entry() {
        let (mut mem, mut c) = nop_cache();
        c.insert(&mut mem, 0x1000, Insn::Hlt, 6, None);
        assert_eq!(c.lookup(&mem, 0x1000, 5, None), None);
        assert_eq!(c.lookup(&mem, 0x1000, 6, None), Some((Insn::Hlt, 6, 1)));
    }

    #[test]
    fn straddling_entry_requires_matching_second_page() {
        let (mut mem, mut c) = nop_cache();
        mem.write_u8(0x2000, 0);
        c.insert(&mut mem, 0x1FFE, Insn::Hlt, 6, Some(0x2000));
        assert_eq!(
            c.lookup(&mem, 0x1FFE, 12, Some(0x2000)),
            Some((Insn::Hlt, 6, 1))
        );
        // Second page unavailable (unmapped) or remapped elsewhere: miss.
        assert_eq!(c.lookup(&mem, 0x1FFE, 12, None), None);
        assert_eq!(c.lookup(&mem, 0x1FFE, 12, Some(0x7000)), None);
        // Store into the bytes consumed from the second page: miss.
        mem.write_u8(0x2003, 1);
        assert_eq!(c.lookup(&mem, 0x1FFE, 12, Some(0x2000)), None);
    }

    #[test]
    fn conflicting_addresses_evict_deterministically() {
        let (mut mem, mut c) = nop_cache();
        // Two physical addresses that map to the same direct-mapped slot.
        let a = 0x1000u32;
        let slot = InsnCache::slot_of(a);
        let b = (1..)
            .map(|i| a + i * 0x2000)
            .find(|&p| InsnCache::slot_of(p) == slot)
            .unwrap();
        mem.write_u8(b, 0);
        c.insert(&mut mem, a, Insn::Nop, 1, None);
        c.insert(&mut mem, b, Insn::Hlt, 1, None);
        assert_eq!(c.lookup(&mem, a, 12, None), None, "evicted by conflict");
        assert_eq!(c.lookup(&mem, b, 12, None), Some((Insn::Hlt, 1, 1)));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn clear_empties_the_cache() {
        let (mut mem, mut c) = nop_cache();
        c.insert(&mut mem, 0x1000, Insn::Nop, 1, None);
        assert!(!c.is_empty());
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.lookup(&mem, 0x1000, 12, None), None);
    }
}
