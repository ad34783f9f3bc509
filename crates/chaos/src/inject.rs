//! Machine-state fault injection.
//!
//! Each injection mutates simulated hardware state *in the revoking
//! direction only* — clearing present bits, dropping TLB entries,
//! exhausting physical frames. Revocation can only make accesses fault
//! that would otherwise succeed, so every containment invariant remains
//! assertable while the injection is live; an injection that *granted*
//! access (raising a limit, setting U/S) would instead invalidate the
//! oracle. Injections are undoable so a campaign can interleave them
//! with normal traffic.

use minikernel::Kernel;
use seedrng::SeedRng;
use x86sim::paging::{get_pte, pte, update_pte_flags};

/// Marks GDT descriptor `index` not-present, returning the previous
/// state for [`restore_descriptor`]. `None` if the slot is empty/null.
pub fn revoke_descriptor(k: &mut Kernel, index: u16) -> Option<bool> {
    k.m.set_descriptor_present(index, false)
}

/// Restores a descriptor's present bit after [`revoke_descriptor`].
pub fn restore_descriptor(k: &mut Kernel, index: u16, present: bool) {
    k.m.set_descriptor_present(index, present);
}

/// Clears the present bit of the PTE mapping `linear` under `cr3` and
/// flushes the stale translation, so the next touch takes a not-present
/// #PF. Returns true if there was a mapping to revoke.
pub fn revoke_pte(k: &mut Kernel, cr3: u32, linear: u32) -> bool {
    if get_pte(&k.m.mem, cr3, linear).is_none() {
        return false;
    }
    let ok = update_pte_flags(&mut k.m.mem, cr3, linear, 0, pte::P);
    k.m.mmu.flush_page(linear);
    ok
}

/// Restores the present bit after [`revoke_pte`].
pub fn restore_pte(k: &mut Kernel, cr3: u32, linear: u32) -> bool {
    let ok = update_pte_flags(&mut k.m.mem, cr3, linear, pte::P, 0);
    k.m.mmu.flush_page(linear);
    ok
}

/// Drops a random subset of TLB entries (and occasionally the whole
/// TLB). Translations must be re-derived from the page tables, so
/// behaviour may not change — only cost. Returns how many were dropped.
pub fn drop_tlb_entries(k: &mut Kernel, r: &mut SeedRng) -> usize {
    if r.gen_bool(0.25) {
        let n = k.m.mmu.tlb_entries();
        k.m.mmu.flush();
        return n;
    }
    let vpns = k.m.mmu.tlb_vpns();
    let mut dropped = 0;
    for vpn in vpns {
        if r.gen_bool(0.5) {
            k.m.mmu.flush_page(vpn << 12);
            dropped += 1;
        }
    }
    dropped
}

/// Overwrites one byte of already-loaded extension code at `linear` (in
/// the *current* address space), returning the original byte for
/// restoration, or `None` when the page is unmapped.
///
/// This is still a revoking-direction injection in the containment
/// sense: corrupting an extension's own text can only change what the
/// extension computes or make it fault (e.g. `0xFF` is an invalid
/// opcode → #UD) — it grants no access the protection checks would deny.
/// It also exercises the predecode-cache invariant: the host write goes
/// through `PhysMem` and bumps the frame's code generation, so a stale
/// cached decode of the corrupted instruction can never be served.
pub fn corrupt_code_byte(k: &mut Kernel, linear: u32, byte: u8) -> Option<u8> {
    let prev = k.m.host_read(linear, 1)[0];
    if !k.m.host_write(linear, &[byte]) {
        return None;
    }
    Some(prev)
}

/// Exhausts the physical frame pool, keeping at most `keep` frames
/// available — subsequent `mmap`/`dlopen`/`insmod` traffic must surface
/// structured out-of-memory errors, not panics. Returns the number of
/// frames swallowed (they are not returned; use a scratch kernel or a
/// short-lived episode).
pub fn exhaust_frames(k: &mut Kernel, keep: u32) -> u32 {
    let mut taken = 0;
    while k.frames.remaining() > keep {
        if k.frames.alloc().is_none() {
            break;
        }
        taken += 1;
    }
    taken
}
