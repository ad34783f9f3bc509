//! Two-level page tables, the TLB, and page-level protection.
//!
//! Page tables live in *simulated physical memory*, in the genuine x86
//! two-level format: CR3 points at a page directory of 1024 PDEs, each
//! pointing at a page table of 1024 PTEs. Each access checks the Present,
//! Read/Write and User/Supervisor bits; the U/S bit is the paper's "page
//! privilege level" (PPL): `US=1` is PPL 1 (user-accessible), `US=0` is
//! PPL 0 (supervisor only).
//!
//! Supervisor code (CPL 0-2) may read and write any present page
//! regardless of `R/W`/`U/S`, matching the paper's statement that
//! "programs executing at SPL 0 to 2 can access all pages" (CR0.WP = 0
//! semantics, as on the i386 and on Linux 2.0's Pentium configuration).

use std::collections::HashMap;

use crate::fault::{pf_err, Fault, FaultBuilder};
use crate::image::{Dec, Enc, RestoreError};
use crate::mem::{FrameAlloc, PhysMem, U32HashBuilder, PAGE_MASK};

/// PTE/PDE flag bits.
pub mod pte {
    /// Present.
    pub const P: u32 = 1 << 0;
    /// Writable (by user-mode code; supervisor ignores with WP=0).
    pub const RW: u32 = 1 << 1;
    /// User/Supervisor — the paper's PPL bit (set = PPL 1).
    pub const US: u32 = 1 << 2;
    /// Accessed (set by the walker).
    pub const A: u32 = 1 << 5;
    /// Dirty (set by the walker on write; PTE only).
    pub const D: u32 = 1 << 6;

    /// Low bit of the 4-bit protection key. Bits 8-11 of a PTE are
    /// ignored by the i386 walker, so the key rides in the page tables
    /// without disturbing the frame or flag bits (an MPK/POE-style
    /// retrofit; real MPK stores its key in PTE bits 59-62).
    pub const KEY_SHIFT: u32 = 8;
    /// Mask of the protection-key bits.
    pub const KEY_MASK: u32 = 0xF << KEY_SHIFT;

    /// Mask of the frame address bits.
    pub const FRAME: u32 = 0xFFFF_F000;

    /// PTE flag bits encoding protection key `k` (0-15).
    #[inline]
    pub fn key_flags(k: u8) -> u32 {
        (u32::from(k) & 0xF) << KEY_SHIFT
    }

    /// The protection key stored in a PTE.
    #[inline]
    pub fn key_of(pte_val: u32) -> u8 {
        ((pte_val & KEY_MASK) >> KEY_SHIFT) as u8
    }
}

/// Helpers over the PKRU-style per-thread key-rights register.
///
/// Two bits per key, exactly as in Intel's PKRU layout: bit `2k` is
/// *access disable* (AD — no read or write), bit `2k+1` is *write
/// disable* (WD). Key 0 occupies bits 0-1, so a PKRU of zero grants
/// every key full rights — which is why worlds that never touch keys
/// behave identically to the pre-key simulator.
pub mod pkru {
    /// True if `pkru` denies all access to pages tagged `key`.
    #[inline]
    pub fn access_disabled(pkru: u32, key: u8) -> bool {
        pkru >> (2 * u32::from(key & 0xF)) & 1 != 0
    }

    /// True if `pkru` denies writes to pages tagged `key`.
    #[inline]
    pub fn write_disabled(pkru: u32, key: u8) -> bool {
        pkru >> (2 * u32::from(key & 0xF) + 1) & 1 != 0
    }

    /// A PKRU value with *access disable* set for every key in `keys`
    /// and full rights everywhere else.
    pub fn deny_access(keys: &[u8]) -> u32 {
        keys.iter()
            .fold(0, |acc, &k| acc | 1 << (2 * u32::from(k & 0xF)))
    }

    /// A PKRU value with *write disable* set for every key in `keys`
    /// and full rights everywhere else.
    pub fn deny_write(keys: &[u8]) -> u32 {
        keys.iter()
            .fold(0, |acc, &k| acc | 1 << (2 * u32::from(k & 0xF) + 1))
    }
}

/// The kind of memory access being translated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Data read (or instruction fetch: x86-32 has no execute bit).
    Read,
    /// Data write.
    Write,
}

/// One cached translation.
#[derive(Debug, Clone, Copy)]
struct TlbEntry {
    frame: u32,
    /// Combined user bit (PDE & PTE).
    user: bool,
    /// Combined writable bit (PDE & PTE).
    writable: bool,
    /// Dirty already set in the PTE.
    dirty: bool,
    /// Physical address of the PTE (to set D lazily).
    pte_addr: u32,
    /// The page's 4-bit protection key (PTE bits 8-11). Cached like the
    /// permission bits; rights are judged live against the accessor's
    /// PKRU, so a PKRU write needs no TLB shootdown — as on real MPK.
    key: u8,
}

/// Translation statistics, used by the cycle model and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TlbStats {
    /// Lookups that hit the TLB.
    pub hits: u64,
    /// Lookups that required a page walk.
    pub misses: u64,
    /// Explicit flushes (CR3 loads and kernel shootdowns).
    pub flushes: u64,
}

/// The MMU: paging enable, CR3, and the TLB.
///
/// `Clone` carries the live TLB and epoch into a forked world: entries
/// are translations of the same guest page tables, and the epoch keeps
/// carried-over translation memos valid, so a fork resumes with exactly
/// the hit/miss behaviour the template would have had.
#[derive(Debug, Default, Clone)]
pub struct Mmu {
    /// Physical base of the page directory.
    pub cr3: u32,
    /// Paging enable (CR0.PG); written only through [`Mmu::set_enabled`].
    enabled: bool,
    tlb: HashMap<u32, TlbEntry, U32HashBuilder>,
    /// Advances on every invalidation (full flush or single-page flush) —
    /// the only operations that remove or change a live TLB entry — and
    /// when paging turns off. A caller holding a memoized translation
    /// (the machine's translation tables) revalidates against this
    /// instead of re-probing the TLB. It only ever grows.
    epoch: u64,
    /// Statistics counters.
    pub stats: TlbStats,
}

/// Result of a translation: physical address plus whether the TLB missed
/// (the cycle model charges a page-walk penalty on misses).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Translation {
    /// The physical address.
    pub phys: u32,
    /// True if a page walk was required.
    pub tlb_miss: bool,
}

impl Mmu {
    /// Creates an MMU with paging disabled.
    pub fn new() -> Mmu {
        Mmu::default()
    }

    /// Loads CR3, flushing the TLB as the hardware does on task switch.
    pub fn set_cr3(&mut self, cr3: u32) {
        self.cr3 = cr3 & pte::FRAME;
        self.flush();
    }

    /// Whether paging is enabled (CR0.PG).
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Sets CR0.PG. Turning paging off advances the epoch, so no
    /// translation memoized or token run armed under paging survives it;
    /// turning it on does not need to, because callers memoize nothing
    /// while paging is off.
    pub fn set_enabled(&mut self, on: bool) {
        if self.enabled && !on {
            self.epoch += 1;
        }
        self.enabled = on;
    }

    /// Flushes the entire TLB.
    pub fn flush(&mut self) {
        self.tlb.clear();
        self.epoch += 1;
        self.stats.flushes += 1;
    }

    /// Flushes one page's translation (like `invlpg`).
    pub fn flush_page(&mut self, linear: u32) {
        self.tlb.remove(&(linear >> 12));
        self.epoch += 1;
    }

    /// Invalidation epoch: changes whenever any cached translation may
    /// have been dropped. See the field doc.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Records a lookup answered by a caller's translation memo. A memo
    /// hit stands in for a guaranteed TLB hit, so it is counted as one —
    /// keeping [`Mmu::stats`] identical to a memo-less run.
    #[inline]
    pub fn count_memo_hit(&mut self) {
        self.stats.hits += 1;
    }

    /// Number of live TLB entries.
    pub fn tlb_entries(&self) -> usize {
        self.tlb.len()
    }

    /// Serializes the MMU into a checkpoint payload.
    ///
    /// The TLB *is* architectural here: its contents decide future
    /// hit/miss counts, page-walk cycle charges and lazy dirty-bit
    /// updates, so a restored world must resume with the exact entries
    /// (sorted by VPN — `HashMap` iteration order is host-dependent).
    /// The epoch rides along so carried-over semantics around flush
    /// counting stay monotonic.
    pub(crate) fn save_into(&self, e: &mut Enc) {
        e.u32(self.cr3);
        e.bool(self.enabled);
        e.u64(self.epoch);
        e.u64(self.stats.hits);
        e.u64(self.stats.misses);
        e.u64(self.stats.flushes);
        let mut vpns: Vec<u32> = self.tlb.keys().copied().collect();
        vpns.sort_unstable();
        e.u32(vpns.len() as u32);
        for vpn in vpns {
            let t = &self.tlb[&vpn];
            e.u32(vpn);
            e.u32(t.frame);
            e.bool(t.user);
            e.bool(t.writable);
            e.bool(t.dirty);
            e.u32(t.pte_addr);
            e.u8(t.key);
        }
    }

    /// Rebuilds an MMU from a payload written by [`Mmu::save_into`].
    pub(crate) fn restore_from(d: &mut Dec<'_>) -> Result<Mmu, RestoreError> {
        let cr3 = d.u32()?;
        // `set_cr3` only ever holds a frame address; page walks add the
        // directory offset to it unchecked.
        if cr3 & !pte::FRAME != 0 {
            return Err(d.fail(format!("cr3 {cr3:#x} not page-aligned")));
        }
        let enabled = d.bool()?;
        let epoch = d.u64()?;
        let stats = TlbStats {
            hits: d.u64()?,
            misses: d.u64()?,
            flushes: d.u64()?,
        };
        let n = d.u32()?;
        let mut tlb: HashMap<u32, TlbEntry, U32HashBuilder> = HashMap::default();
        let mut last: Option<u32> = None;
        for _ in 0..n {
            let vpn = d.u32()?;
            if last.is_some_and(|l| vpn <= l) {
                return Err(d.fail(format!("TLB entries not sorted (vpn {vpn:#x})")));
            }
            last = Some(vpn);
            let entry = TlbEntry {
                frame: d.u32()?,
                user: d.bool()?,
                writable: d.bool()?,
                dirty: d.bool()?,
                pte_addr: d.u32()?,
                key: d.u8()?,
            };
            tlb.insert(vpn, entry);
        }
        Ok(Mmu {
            cr3,
            enabled,
            tlb,
            epoch,
            stats,
        })
    }

    /// Virtual page numbers currently cached, sorted (fault-injection
    /// hook: campaigns pick a victim entry deterministically, so the
    /// iteration order must not depend on the host hash seed).
    pub fn tlb_vpns(&self) -> Vec<u32> {
        let mut v: Vec<u32> = self.tlb.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Translates a linear address, enforcing page-level protection with
    /// full key rights (PKRU 0) — the pre-key behaviour. See
    /// [`Mmu::translate_keyed`].
    #[inline]
    pub fn translate(
        &mut self,
        mem: &mut PhysMem,
        linear: u32,
        access: Access,
        user: bool,
    ) -> Result<Translation, FaultBuilder> {
        self.translate_keyed(mem, linear, access, user, 0)
    }

    /// Translates a linear address, enforcing page-level protection and
    /// the protection-key rights in `pkru`.
    ///
    /// `user` is true when the access originates at CPL 3; supervisor
    /// accesses (CPL 0-2) bypass `R/W`, `U/S` and key checks per
    /// CR0.WP = 0. A PKRU of zero grants every key, so callers that never
    /// program keys get exactly the historical behaviour, fault for
    /// fault and stat for stat.
    ///
    /// This is split into an inlined fast path for the common cases —
    /// paging off, or a TLB hit that needs no dirty-bit update — and an
    /// outlined `Mmu::translate_slow` for the rest. The split is a host
    /// optimisation only: the order of stats updates, permission checks
    /// and PTE side effects is exactly that of the straight-line version.
    #[inline]
    pub fn translate_keyed(
        &mut self,
        mem: &mut PhysMem,
        linear: u32,
        access: Access,
        user: bool,
        pkru: u32,
    ) -> Result<Translation, FaultBuilder> {
        if !self.enabled {
            return Ok(Translation {
                phys: linear,
                tlb_miss: false,
            });
        }
        let vpn = linear >> 12;
        let is_write = access == Access::Write;

        if let Some(entry) = self.tlb.get(&vpn) {
            if !is_write || entry.dirty {
                let entry = *entry;
                self.stats.hits += 1;
                self.check_perms(&entry, linear, is_write, user, pkru)?;
                return Ok(Translation {
                    phys: entry.frame | (linear & PAGE_MASK),
                    tlb_miss: false,
                });
            }
        }
        self.translate_slow(mem, linear, is_write, user, pkru)
    }

    /// TLB hit needing a dirty-bit update, or a full page walk.
    fn translate_slow(
        &mut self,
        mem: &mut PhysMem,
        linear: u32,
        is_write: bool,
        user: bool,
        pkru: u32,
    ) -> Result<Translation, FaultBuilder> {
        let vpn = linear >> 12;
        if let Some(entry) = self.tlb.get(&vpn).copied() {
            self.stats.hits += 1;
            self.check_perms(&entry, linear, is_write, user, pkru)?;
            if is_write && !entry.dirty {
                let pte_val = mem.read_u32(entry.pte_addr);
                mem.write_u32(entry.pte_addr, pte_val | pte::D);
                if let Some(e) = self.tlb.get_mut(&vpn) {
                    e.dirty = true;
                }
            }
            return Ok(Translation {
                phys: entry.frame | (linear & PAGE_MASK),
                tlb_miss: false,
            });
        }

        self.stats.misses += 1;
        let entry = self.walk(mem, linear, is_write, user)?;
        self.check_perms(&entry, linear, is_write, user, pkru)?;
        self.tlb.insert(vpn, entry);
        Ok(Translation {
            phys: entry.frame | (linear & PAGE_MASK),
            tlb_miss: true,
        })
    }

    #[inline]
    fn check_perms(
        &self,
        entry: &TlbEntry,
        linear: u32,
        is_write: bool,
        user: bool,
        pkru: u32,
    ) -> Result<(), FaultBuilder> {
        if !user {
            return Ok(());
        }
        let mut code = pf_err::PRESENT | pf_err::USER;
        if is_write {
            code |= pf_err::WRITE;
        }
        if !entry.user {
            return Err(Fault::pf(linear, code));
        }
        if is_write && !entry.writable {
            return Err(Fault::pf(linear, code));
        }
        // Key rights, checked after the classic bits as on real MPK
        // (keys restrict user pages only; the error code gains bit 5).
        if pkru != 0
            && (pkru::access_disabled(pkru, entry.key)
                || (is_write && pkru::write_disabled(pkru, entry.key)))
        {
            return Err(Fault::pf(linear, code | pf_err::PKEY));
        }
        Ok(())
    }

    fn walk(
        &self,
        mem: &mut PhysMem,
        linear: u32,
        is_write: bool,
        user: bool,
    ) -> Result<TlbEntry, FaultBuilder> {
        let mut code = 0;
        if is_write {
            code |= pf_err::WRITE;
        }
        if user {
            code |= pf_err::USER;
        }

        let pde_addr = self.cr3 + (linear >> 22) * 4;
        let pde = mem.read_u32(pde_addr);
        if pde & pte::P == 0 {
            return Err(Fault::pf(linear, code));
        }
        let pt_base = pde & pte::FRAME;
        let pte_addr = pt_base + ((linear >> 12) & 0x3FF) * 4;
        let pte_val = mem.read_u32(pte_addr);
        if pte_val & pte::P == 0 {
            return Err(Fault::pf(linear, code));
        }

        // Set accessed bits; dirty on write.
        mem.write_u32(pde_addr, pde | pte::A);
        let mut new_pte = pte_val | pte::A;
        if is_write {
            new_pte |= pte::D;
        }
        if new_pte != pte_val {
            mem.write_u32(pte_addr, new_pte);
        }

        Ok(TlbEntry {
            frame: pte_val & pte::FRAME,
            user: (pde & pte::US != 0) && (pte_val & pte::US != 0),
            writable: (pde & pte::RW != 0) && (pte_val & pte::RW != 0),
            dirty: new_pte & pte::D != 0,
            pte_addr,
            key: pte::key_of(pte_val),
        })
    }
}

/// Maps `linear -> phys` in the page tables rooted at `cr3`, creating the
/// page table for the region on demand from `fa`.
///
/// Page directories are created fully permissive (`P|RW|US`) so that the
/// per-page PTE flags — where Palladium's PPL lives — are what govern.
/// Returns `false` if a page-table frame could not be allocated.
pub fn map_page(
    mem: &mut PhysMem,
    fa: &mut FrameAlloc,
    cr3: u32,
    linear: u32,
    phys: u32,
    flags: u32,
) -> bool {
    let pde_addr = cr3 + (linear >> 22) * 4;
    let pde = mem.read_u32(pde_addr);
    let pt_base = if pde & pte::P == 0 {
        let Some(frame) = fa.alloc() else {
            return false;
        };
        mem.zero(frame, crate::mem::PAGE_SIZE);
        mem.write_u32(pde_addr, frame | pte::P | pte::RW | pte::US);
        frame
    } else {
        pde & pte::FRAME
    };
    let pte_addr = pt_base + ((linear >> 12) & 0x3FF) * 4;
    mem.write_u32(
        pte_addr,
        (phys & pte::FRAME) | (flags & !pte::FRAME) | pte::P,
    );
    true
}

/// Reads the PTE mapping `linear`, if present.
pub fn get_pte(mem: &PhysMem, cr3: u32, linear: u32) -> Option<u32> {
    let pde = mem.read_u32(cr3 + (linear >> 22) * 4);
    if pde & pte::P == 0 {
        return None;
    }
    let pte_val = mem.read_u32((pde & pte::FRAME) + ((linear >> 12) & 0x3FF) * 4);
    if pte_val & pte::P == 0 {
        None
    } else {
        Some(pte_val)
    }
}

/// Rewrites the flag bits of the PTE mapping `linear`.
///
/// Returns `false` if the page is unmapped. Callers must flush the TLB (or
/// the page) afterwards — exactly the shootdown real kernels perform.
pub fn update_pte_flags(mem: &mut PhysMem, cr3: u32, linear: u32, set: u32, clear: u32) -> bool {
    let pde = mem.read_u32(cr3 + (linear >> 22) * 4);
    if pde & pte::P == 0 {
        return false;
    }
    let pte_addr = (pde & pte::FRAME) + ((linear >> 12) & 0x3FF) * 4;
    let v = mem.read_u32(pte_addr);
    if v & pte::P == 0 {
        return false;
    }
    mem.write_u32(pte_addr, (v | set) & !clear);
    true
}

/// Unmaps `linear` (clears the PTE entirely).
pub fn unmap_page(mem: &mut PhysMem, cr3: u32, linear: u32) -> bool {
    let pde = mem.read_u32(cr3 + (linear >> 22) * 4);
    if pde & pte::P == 0 {
        return false;
    }
    let pte_addr = (pde & pte::FRAME) + ((linear >> 12) & 0x3FF) * 4;
    if mem.read_u32(pte_addr) & pte::P == 0 {
        return false;
    }
    mem.write_u32(pte_addr, 0);
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultCause;

    fn setup() -> (PhysMem, FrameAlloc, Mmu) {
        let mem = PhysMem::new();
        let mut fa = FrameAlloc::new(0x10_0000, 0x40_0000);
        let mut mmu = Mmu::new();
        let cr3 = fa.alloc().unwrap();
        mmu.set_cr3(cr3);
        mmu.set_enabled(true);
        (mem, fa, mmu)
    }

    #[test]
    fn identity_when_paging_disabled() {
        let mut mem = PhysMem::new();
        let mut mmu = Mmu::new();
        let t = mmu
            .translate(&mut mem, 0x1234, Access::Write, true)
            .unwrap();
        assert_eq!(t.phys, 0x1234);
    }

    #[test]
    fn map_translate_roundtrip() {
        let (mut mem, mut fa, mut mmu) = setup();
        let frame = fa.alloc().unwrap();
        assert!(map_page(
            &mut mem,
            &mut fa,
            mmu.cr3,
            0x0804_8000,
            frame,
            pte::RW | pte::US
        ));

        let t = mmu
            .translate(&mut mem, 0x0804_8123, Access::Read, true)
            .unwrap();
        assert_eq!(t.phys, frame | 0x123);
        assert!(t.tlb_miss);

        // Second access hits the TLB.
        let t2 = mmu
            .translate(&mut mem, 0x0804_8456, Access::Read, true)
            .unwrap();
        assert_eq!(t2.phys, frame | 0x456);
        assert!(!t2.tlb_miss);
        assert_eq!(mmu.stats.hits, 1);
        assert_eq!(mmu.stats.misses, 1);
    }

    #[test]
    fn unmapped_page_faults_not_present() {
        let (mut mem, _fa, mut mmu) = setup();
        let err = mmu
            .translate(&mut mem, 0xDEAD_0000, Access::Read, true)
            .unwrap_err();
        match err.cause {
            FaultCause::Page { code, .. } => {
                assert_eq!(code & pf_err::PRESENT, 0, "not-present fault");
                assert_ne!(code & pf_err::USER, 0);
            }
            other => panic!("wrong cause {other:?}"),
        }
    }

    #[test]
    fn supervisor_page_blocks_user_but_not_supervisor() {
        let (mut mem, mut fa, mut mmu) = setup();
        let frame = fa.alloc().unwrap();
        // PPL 0 page: US clear.
        assert!(map_page(
            &mut mem,
            &mut fa,
            mmu.cr3,
            0xC000_0000,
            frame,
            pte::RW
        ));

        // User (CPL 3) access faults with a *protection* error code.
        let err = mmu
            .translate(&mut mem, 0xC000_0000, Access::Read, true)
            .unwrap_err();
        match err.cause {
            FaultCause::Page { code, .. } => {
                assert_ne!(code & pf_err::PRESENT, 0, "protection fault");
            }
            other => panic!("wrong cause {other:?}"),
        }

        // Supervisor access succeeds.
        assert!(mmu
            .translate(&mut mem, 0xC000_0000, Access::Write, false)
            .is_ok());
    }

    #[test]
    fn read_only_page_blocks_user_write_only() {
        let (mut mem, mut fa, mut mmu) = setup();
        let frame = fa.alloc().unwrap();
        assert!(map_page(
            &mut mem,
            &mut fa,
            mmu.cr3,
            0x4000_0000,
            frame,
            pte::US
        ));

        assert!(mmu
            .translate(&mut mem, 0x4000_0000, Access::Read, true)
            .is_ok());
        let err = mmu
            .translate(&mut mem, 0x4000_0000, Access::Write, true)
            .unwrap_err();
        match err.cause {
            FaultCause::Page { code, .. } => {
                assert_ne!(code & pf_err::WRITE, 0);
            }
            other => panic!("wrong cause {other:?}"),
        }
        // Supervisor write is allowed (WP = 0).
        assert!(mmu
            .translate(&mut mem, 0x4000_0000, Access::Write, false)
            .is_ok());
    }

    #[test]
    fn accessed_and_dirty_bits_are_maintained() {
        let (mut mem, mut fa, mut mmu) = setup();
        let frame = fa.alloc().unwrap();
        assert!(map_page(
            &mut mem,
            &mut fa,
            mmu.cr3,
            0x5000_0000,
            frame,
            pte::RW | pte::US
        ));

        mmu.translate(&mut mem, 0x5000_0000, Access::Read, true)
            .unwrap();
        let v = get_pte(&mem, mmu.cr3, 0x5000_0000).unwrap();
        assert_ne!(v & pte::A, 0);
        assert_eq!(v & pte::D, 0);

        // Write through the TLB-cached entry still sets Dirty.
        mmu.translate(&mut mem, 0x5000_0004, Access::Write, true)
            .unwrap();
        let v = get_pte(&mem, mmu.cr3, 0x5000_0000).unwrap();
        assert_ne!(v & pte::D, 0);
    }

    #[test]
    fn flag_update_plus_flush_changes_protection() {
        let (mut mem, mut fa, mut mmu) = setup();
        let frame = fa.alloc().unwrap();
        assert!(map_page(
            &mut mem,
            &mut fa,
            mmu.cr3,
            0x0700_0000,
            frame,
            pte::RW | pte::US
        ));
        mmu.translate(&mut mem, 0x0700_0000, Access::Read, true)
            .unwrap();

        // Revoke the user bit (PPL 1 -> PPL 0) — this is init_PL's core op.
        assert!(update_pte_flags(&mut mem, mmu.cr3, 0x0700_0000, 0, pte::US));

        // Stale TLB entry still allows access until the shootdown...
        assert!(mmu
            .translate(&mut mem, 0x0700_0000, Access::Read, true)
            .is_ok());
        // ...and the flush makes the new PPL take effect.
        mmu.flush();
        assert!(mmu
            .translate(&mut mem, 0x0700_0000, Access::Read, true)
            .is_err());
    }

    #[test]
    fn unmap_then_access_faults() {
        let (mut mem, mut fa, mut mmu) = setup();
        let frame = fa.alloc().unwrap();
        assert!(map_page(
            &mut mem,
            &mut fa,
            mmu.cr3,
            0x0600_0000,
            frame,
            pte::RW | pte::US
        ));
        assert!(unmap_page(&mut mem, mmu.cr3, 0x0600_0000));
        mmu.flush();
        assert!(mmu
            .translate(&mut mem, 0x0600_0000, Access::Read, true)
            .is_err());
        assert!(!unmap_page(&mut mem, mmu.cr3, 0x0600_0000));
    }

    #[test]
    fn set_cr3_flushes_tlb() {
        let (mut mem, mut fa, mut mmu) = setup();
        let frame = fa.alloc().unwrap();
        assert!(map_page(
            &mut mem,
            &mut fa,
            mmu.cr3,
            0x0804_8000,
            frame,
            pte::US
        ));
        mmu.translate(&mut mem, 0x0804_8000, Access::Read, true)
            .unwrap();
        assert_eq!(mmu.tlb_entries(), 1);
        let cr3 = mmu.cr3;
        mmu.set_cr3(cr3);
        assert_eq!(mmu.tlb_entries(), 0);
    }

    #[test]
    fn protection_key_rides_the_pte_and_pkru_denies_access() {
        let (mut mem, mut fa, mut mmu) = setup();
        let frame = fa.alloc().unwrap();
        assert!(map_page(
            &mut mem,
            &mut fa,
            mmu.cr3,
            0x0900_0000,
            frame,
            pte::RW | pte::US | pte::key_flags(5)
        ));
        assert_eq!(pte::key_of(get_pte(&mem, mmu.cr3, 0x0900_0000).unwrap()), 5);

        // Full rights (pkru 0): access as before.
        assert!(mmu
            .translate(&mut mem, 0x0900_0000, Access::Write, true)
            .is_ok());

        // Access-disable key 5: both reads and writes fault with the
        // PKEY bit set, no TLB shootdown needed.
        let deny = pkru::deny_access(&[5]);
        for access in [Access::Read, Access::Write] {
            let err = mmu
                .translate_keyed(&mut mem, 0x0900_0000, access, true, deny)
                .unwrap_err();
            match err.cause {
                FaultCause::Page { code, .. } => {
                    assert_ne!(code & pf_err::PKEY, 0);
                    assert_ne!(code & pf_err::PRESENT, 0);
                }
                other => panic!("wrong cause {other:?}"),
            }
            assert_eq!(err.at(0, 0, 3).cause.tag(), "page-key");
        }

        // Write-disable: reads pass, writes fault.
        let wd = pkru::deny_write(&[5]);
        assert!(mmu
            .translate_keyed(&mut mem, 0x0900_0000, Access::Read, true, wd)
            .is_ok());
        assert!(mmu
            .translate_keyed(&mut mem, 0x0900_0000, Access::Write, true, wd)
            .is_err());

        // A different key is unaffected.
        let other = pkru::deny_access(&[3]);
        assert!(mmu
            .translate_keyed(&mut mem, 0x0900_0000, Access::Write, true, other)
            .is_ok());

        // Supervisor accesses bypass key checks entirely (CR0.WP = 0).
        assert!(mmu
            .translate_keyed(&mut mem, 0x0900_0000, Access::Write, false, deny)
            .is_ok());
    }

    #[test]
    fn key_survives_tlb_serialization() {
        let (mut mem, mut fa, mut mmu) = setup();
        let frame = fa.alloc().unwrap();
        assert!(map_page(
            &mut mem,
            &mut fa,
            mmu.cr3,
            0x0A00_0000,
            frame,
            pte::RW | pte::US | pte::key_flags(9)
        ));
        mmu.translate(&mut mem, 0x0A00_0000, Access::Read, true)
            .unwrap();

        let mut e = Enc::new();
        mmu.save_into(&mut e);
        let bytes = e.into_vec();
        let mut d = Dec::new(&bytes, "mmu");
        let mut back = Mmu::restore_from(&mut d).unwrap();
        assert_eq!(back.stats, mmu.stats);

        // The restored TLB entry still carries key 9: the cached
        // translation denies under a PKRU that revokes that key (a TLB
        // hit — rights are judged live, the key rides the entry).
        let deny = pkru::deny_access(&[9]);
        assert!(back
            .translate_keyed(&mut mem, 0x0A00_0000, Access::Read, true, deny)
            .is_err());
        assert_eq!(back.stats.misses, mmu.stats.misses);
        assert_eq!(back.stats.hits, mmu.stats.hits + 1);
    }

    #[test]
    fn pkru_helper_bit_layout_matches_intel() {
        // AD for key k is bit 2k, WD is bit 2k+1.
        assert_eq!(pkru::deny_access(&[0]), 0b01);
        assert_eq!(pkru::deny_write(&[0]), 0b10);
        assert_eq!(pkru::deny_access(&[1]), 0b0100);
        assert_eq!(pkru::deny_write(&[15]), 1 << 31);
        assert!(pkru::access_disabled(pkru::deny_access(&[7]), 7));
        assert!(!pkru::access_disabled(pkru::deny_access(&[7]), 6));
        assert!(pkru::write_disabled(pkru::deny_write(&[2, 4]), 4));
    }

    #[test]
    fn distinct_address_spaces_translate_independently() {
        let (mut mem, mut fa, mut mmu) = setup();
        let cr3_a = mmu.cr3;
        let cr3_b = fa.alloc().unwrap();
        let fa_frame = fa.alloc().unwrap();
        let fb_frame = fa.alloc().unwrap();
        assert!(map_page(
            &mut mem,
            &mut fa,
            cr3_a,
            0x0804_8000,
            fa_frame,
            pte::US
        ));
        assert!(map_page(
            &mut mem,
            &mut fa,
            cr3_b,
            0x0804_8000,
            fb_frame,
            pte::US
        ));

        let ta = mmu
            .translate(&mut mem, 0x0804_8000, Access::Read, true)
            .unwrap();
        assert_eq!(ta.phys, fa_frame);
        mmu.set_cr3(cr3_b);
        let tb = mmu
            .translate(&mut mem, 0x0804_8000, Access::Read, true)
            .unwrap();
        assert_eq!(tb.phys, fb_frame);
    }
}
