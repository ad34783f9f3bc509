//! Sparse simulated physical memory and a physical frame allocator.
//!
//! The machine addresses a full 32-bit (4 GB) physical space; frames are
//! allocated lazily so only touched pages cost host memory.
//!
//! Every mutation of a frame (guest stores, host writes, the loader,
//! page-table updates, fault injection) funnels through [`PhysMem`]'s
//! store paths. Each frame carries a *code generation*, bumped only when
//! a store overlaps bytes a cached decode actually consumed (tracked
//! byte-exactly in a per-frame code mask). It is pure host-side
//! bookkeeping: it never affects simulated semantics or cycle
//! accounting. The predecoded-instruction cache ([`crate::predecode`])
//! validates against it to notice self-modifying code without being
//! invalidated by stacks or data that merely share a page with code.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use crate::image::{Dec, Enc, RestoreError};

/// The page size, as on x86.
pub const PAGE_SIZE: u32 = 4096;

/// Mask selecting the offset within a page.
pub const PAGE_MASK: u32 = PAGE_SIZE - 1;

/// Rounds an address down to its page base.
pub fn page_base(addr: u32) -> u32 {
    addr & !PAGE_MASK
}

/// Rounds a size up to whole pages.
pub fn pages_for(len: u32) -> u32 {
    len.div_ceil(PAGE_SIZE)
}

/// A fast hasher for the simulator's u32-keyed maps (frame numbers,
/// virtual page numbers, physical addresses).
///
/// The TLB, the physical-frame map and the predecode cache are the
/// hottest hash lookups in the whole simulator — one of each per
/// simulated instruction — so SipHash's per-lookup cost dominates the
/// step loop. The keys are simulated addresses, not attacker-controlled
/// host input, so a multiply–xor mix is safe and much cheaper.
#[derive(Debug, Default, Clone, Copy)]
pub struct U32Hasher(u64);

impl Hasher for U32Hasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u32(b as u32);
        }
    }

    fn write_u32(&mut self, v: u32) {
        let mut z = self.0 ^ (v as u64);
        z = z.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z ^= z >> 32;
        self.0 = z;
    }
}

/// `BuildHasher` for [`U32Hasher`].
pub type U32HashBuilder = BuildHasherDefault<U32Hasher>;

/// Byte-granular bitmap of a frame's cached-code bytes: bit `i` of word
/// `i / 64` covers byte `i`. Allocated lazily — most frames never hold
/// executed code and pay nothing.
type CodeMask = Box<[u64; (PAGE_SIZE / 64) as usize]>;

/// Returns the bit span `[lo, hi]` within one mask word.
fn span_bits(lo: usize, hi: usize) -> u64 {
    let width = hi - lo + 1;
    if width >= 64 {
        u64::MAX
    } else {
        ((1u64 << width) - 1) << lo
    }
}

/// One backed frame: its bytes, and the code generation + mask driving
/// predecode invalidation.
///
/// The payload lives behind an `Arc` so cloning a [`PhysMem`] (a world
/// snapshot/fork) shares the 4 KB byte arrays instead of copying them:
/// a refcount above one *is* the frozen/shared state. The metadata
/// (code generation and mask) is cloned per world — generation bumps and
/// code marking in one fork never disturb its siblings. Every payload
/// mutation funnels through [`Frame::data_mut`], which splits a shared
/// payload privately before writing (copy-on-write).
#[derive(Debug, Clone)]
struct Frame {
    data: Arc<[u8; PAGE_SIZE as usize]>,
    /// Bumped only by stores that overlap bytes a cached decode consumed
    /// (per `code_mask`); the generation the predecode cache validates.
    code_gen: u64,
    code_mask: Option<CodeMask>,
}

impl Frame {
    fn new() -> Frame {
        Frame {
            data: Arc::new([0u8; PAGE_SIZE as usize]),
            code_gen: 0,
            code_mask: None,
        }
    }

    /// The single mutation choke point for frame payload bytes: if the
    /// payload is shared with a forked sibling or template world it is
    /// copied privately first (`Arc::make_mut`), so a write in this
    /// world can never bleed into another.
    #[inline]
    fn data_mut(&mut self) -> &mut [u8; PAGE_SIZE as usize] {
        Arc::make_mut(&mut self.data)
    }

    /// Records a store of `len` bytes at page offset `off`: bumps the
    /// code generation only when the store overlaps cached-code bytes
    /// (byte-exact, so data that merely shares a page with code — stacks,
    /// save slots, patch targets — never invalidates decodes). Returns whether the code generation
    /// moved, so the owning [`PhysMem`] can advance its global
    /// code-invalidation epoch.
    fn note_store(&mut self, off: usize, len: usize) -> bool {
        if let Some(mask) = &mut self.code_mask {
            let last = off + len - 1;
            for w in (off >> 6)..=(last >> 6) {
                let lo = if w == off >> 6 { off & 63 } else { 0 };
                let hi = if w == last >> 6 { last & 63 } else { 63 };
                if mask[w] & span_bits(lo, hi) != 0 {
                    // Every cached decode from this frame is now suspect;
                    // invalidate them all and let fetches re-mark.
                    self.code_gen += 1;
                    mask.fill(0);
                    return true;
                }
            }
        }
        false
    }
}

/// Sparse physical memory: 4 KB frames in a slab, indexed by frame number.
///
/// Reads from unbacked frames return zeros (like reading zero-initialized
/// DRAM); writes allocate the frame on demand. The MMU layers *all*
/// protection on top of this — physical memory itself performs no checks,
/// exactly as on real hardware.
///
/// Frames live in a `Vec` and are never freed, so a frame's slab slot is
/// a stable identity for its whole lifetime. The predecode cache stores
/// slot numbers and revalidates with [`PhysMem::slot_code_generation`] —
/// a bounds-checked array read instead of a hash lookup on the fetch
/// path.
///
/// `Clone` is the snapshot/fork primitive, and it is two refcount
/// bumps: the index and the frame table are both shared copy-on-write.
/// The first mutation in either world materializes a private frame
/// table (slot numbers — and therefore carried-over predecode entries
/// and translation memos — stay valid), and the 4 KB payloads stay
/// shared beneath it until individually written (`Frame::data_mut`).
#[derive(Debug, Default, Clone)]
pub struct PhysMem {
    index: Arc<HashMap<u32, u32, U32HashBuilder>>,
    slabs: Arc<Vec<Frame>>,
    /// Host-side epoch advanced whenever *any* frame's code generation
    /// moves (a store overlapped cached-code bytes). While it is
    /// unchanged, every per-slot code generation is unchanged too, so
    /// per-fetch revalidation can be one inline compare instead of a
    /// slab walk ([`PhysMem::code_epoch`]). Never serialized; it is
    /// derived bookkeeping like the generations themselves.
    code_epoch: u64,
}

impl PhysMem {
    /// Creates an empty physical memory.
    pub fn new() -> PhysMem {
        PhysMem::default()
    }

    /// Number of frames actually backed by host memory.
    pub fn resident_frames(&self) -> usize {
        self.slabs.len()
    }

    /// Number of backed frames whose payload is still shared with a
    /// snapshot or forked sibling (copy-on-write, not yet materialized
    /// privately). Observability for fork tests and benches; cold
    /// worlds report 0.
    pub fn shared_frames(&self) -> usize {
        if Arc::strong_count(&self.slabs) > 1 {
            // The whole frame table is still shared: no world has
            // mutated anything since the fork.
            return self.resident_frames();
        }
        self.slabs
            .iter()
            .filter(|f| Arc::strong_count(&f.data) > 1)
            .count()
    }

    /// The copy-on-write split points for the mutation paths: a world
    /// that still shares its frame table (or index) with a fork
    /// materializes a private copy before the first change. Payloads
    /// stay shared beneath the private table until written.
    #[inline]
    fn slabs_mut(&mut self) -> &mut Vec<Frame> {
        Arc::make_mut(&mut self.slabs)
    }

    #[inline]
    fn index_mut(&mut self) -> &mut HashMap<u32, u32, U32HashBuilder> {
        Arc::make_mut(&mut self.index)
    }

    /// Borrows the 4 KB of the frame containing `addr`, if backed.
    pub fn frame_data(&self, addr: u32) -> Option<&[u8; PAGE_SIZE as usize]> {
        self.index
            .get(&(addr >> 12))
            .map(|&i| &*self.slabs[i as usize].data)
    }

    /// Slab slot of the frame containing `addr`, allocating the (zeroed)
    /// frame if unbacked — *without* recording a store. Allocation is not
    /// a store: the frame's bytes are the same zeros reads already
    /// observed.
    ///
    /// CoW invariant: this "touch without bumping" path never mutates
    /// payload bytes, so it must not — and does not — split a payload
    /// shared with a forked world. The same holds for
    /// [`PhysMem::mark_code`], which mutates only per-world metadata.
    /// Every payload mutation goes through `Frame::data_mut`, the
    /// single copy-on-write choke point; a shared frame later written
    /// through the slot returned here still materializes privately
    /// (regression-tested in `slot_write_on_shared_frame_cows`).
    pub fn ensure_frame_slot(&mut self, addr: u32) -> u32 {
        // Hit path stays read-only so it never splits a shared table.
        if let Some(&idx) = self.index.get(&(addr >> 12)) {
            return idx;
        }
        let idx = self.slabs.len() as u32;
        self.index_mut().insert(addr >> 12, idx);
        self.slabs_mut().push(Frame::new());
        idx
    }

    /// The *code* generation of the frame in slab slot `slot` (0 for an
    /// out-of-range slot). One array read — the predecode cache's
    /// per-fetch validation. It only moves when a store overlapped bytes
    /// marked by [`PhysMem::mark_code`].
    #[inline]
    pub fn slot_code_generation(&self, slot: u32) -> u64 {
        self.slabs.get(slot as usize).map_or(0, |f| f.code_gen)
    }

    /// The global code-invalidation epoch: advances exactly when some
    /// frame's [`PhysMem::slot_code_generation`] advances. A consumer
    /// that validated a slot's generation may substitute "epoch
    /// unchanged" for re-reading the slot — the block-token hot path's
    /// self-modification guard.
    #[inline]
    pub fn code_epoch(&self) -> u64 {
        self.code_epoch
    }

    /// Marks `len` bytes at page offset `off` of slab slot `slot` as
    /// consumed by a cached decode: later stores overlapping them bump
    /// the slot's code generation.
    pub fn mark_code(&mut self, slot: u32, off: usize, len: usize) {
        debug_assert!(len > 0 && off + len <= PAGE_SIZE as usize);
        let Some(f) = self.slabs_mut().get_mut(slot as usize) else {
            return;
        };
        let mask = f
            .code_mask
            .get_or_insert_with(|| Box::new([0u64; (PAGE_SIZE / 64) as usize]));
        let last = off + len - 1;
        for w in (off >> 6)..=(last >> 6) {
            let lo = if w == off >> 6 { off & 63 } else { 0 };
            let hi = if w == last >> 6 { last & 63 } else { 63 };
            mask[w] |= span_bits(lo, hi);
        }
    }

    /// Slab slot of the frame containing `addr`, if backed. Unlike
    /// [`PhysMem::ensure_frame_slot`] this never allocates, so it is safe
    /// on read paths where materializing a frame would be observable.
    #[inline]
    pub fn frame_slot(&self, addr: u32) -> Option<u32> {
        self.index.get(&(addr >> 12)).copied()
    }

    /// Reads one byte of the frame in slab slot `slot`.
    ///
    /// Slots are stable identities (frames are never freed), so a caller
    /// holding a page-translation memo reads with one array index instead
    /// of re-hashing the frame number on every access. `off` must lie in
    /// the frame; the `_slot` accessors never straddle.
    #[inline]
    pub fn read_u8_slot(&self, slot: u32, off: u32) -> u8 {
        self.slabs[slot as usize].data[off as usize]
    }

    /// Reads a 16-bit little-endian value inside one frame.
    #[inline]
    pub fn read_u16_slot(&self, slot: u32, off: u32) -> u16 {
        let i = off as usize;
        let d = &self.slabs[slot as usize].data;
        u16::from_le_bytes([d[i], d[i + 1]])
    }

    /// Reads a 32-bit little-endian value inside one frame.
    #[inline]
    pub fn read_u32_slot(&self, slot: u32, off: u32) -> u32 {
        let i = off as usize;
        let d = &self.slabs[slot as usize].data;
        u32::from_le_bytes(d[i..i + 4].try_into().unwrap())
    }

    /// Writes one byte through a slab slot, with the same code-generation
    /// bookkeeping as the address-keyed stores.
    #[inline]
    pub fn write_u8_slot(&mut self, slot: u32, off: u32, v: u8) {
        let code_epoch = &mut self.code_epoch;
        let f = &mut Arc::make_mut(&mut self.slabs)[slot as usize];
        *code_epoch += u64::from(f.note_store(off as usize, 1));
        f.data_mut()[off as usize] = v;
    }

    /// Writes a 16-bit little-endian value inside one frame.
    #[inline]
    pub fn write_u16_slot(&mut self, slot: u32, off: u32, v: u16) {
        let code_epoch = &mut self.code_epoch;
        let f = &mut Arc::make_mut(&mut self.slabs)[slot as usize];
        *code_epoch += u64::from(f.note_store(off as usize, 2));
        f.data_mut()[off as usize..off as usize + 2].copy_from_slice(&v.to_le_bytes());
    }

    /// Writes a 32-bit little-endian value inside one frame.
    #[inline]
    pub fn write_u32_slot(&mut self, slot: u32, off: u32, v: u32) {
        let code_epoch = &mut self.code_epoch;
        let f = &mut Arc::make_mut(&mut self.slabs)[slot as usize];
        *code_epoch += u64::from(f.note_store(off as usize, 4));
        f.data_mut()[off as usize..off as usize + 4].copy_from_slice(&v.to_le_bytes());
    }

    /// The frame containing `addr`, allocated on demand, with the store
    /// of `len` bytes at `addr` recorded (`Frame::note_store`) — call only
    /// on the mutation paths, with the span inside one frame.
    fn frame_mut(&mut self, addr: u32, len: usize) -> &mut Frame {
        let idx = self.ensure_frame_slot(addr) as usize;
        let code_epoch = &mut self.code_epoch;
        let f = &mut Arc::make_mut(&mut self.slabs)[idx];
        *code_epoch += u64::from(f.note_store((addr & PAGE_MASK) as usize, len));
        f
    }

    #[inline]
    fn frame(&self, addr: u32) -> Option<&Frame> {
        self.index
            .get(&(addr >> 12))
            .map(|&i| &self.slabs[i as usize])
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: u32) -> u8 {
        match self.frame(addr) {
            Some(f) => f.data[(addr & PAGE_MASK) as usize],
            None => 0,
        }
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: u32, v: u8) {
        self.frame_mut(addr, 1).data_mut()[(addr & PAGE_MASK) as usize] = v;
    }

    /// Reads a 16-bit little-endian value (may straddle frames).
    pub fn read_u16(&self, addr: u32) -> u16 {
        if addr & PAGE_MASK < PAGE_MASK {
            let i = (addr & PAGE_MASK) as usize;
            match self.frame(addr) {
                Some(f) => u16::from_le_bytes([f.data[i], f.data[i + 1]]),
                None => 0,
            }
        } else {
            u16::from_le_bytes([self.read_u8(addr), self.read_u8(addr.wrapping_add(1))])
        }
    }

    /// Writes a 16-bit little-endian value.
    pub fn write_u16(&mut self, addr: u32, v: u16) {
        let b = v.to_le_bytes();
        if addr & PAGE_MASK < PAGE_MASK {
            let i = (addr & PAGE_MASK) as usize;
            self.frame_mut(addr, 2).data_mut()[i..i + 2].copy_from_slice(&b);
        } else {
            self.write_u8(addr, b[0]);
            self.write_u8(addr.wrapping_add(1), b[1]);
        }
    }

    /// Reads a 32-bit little-endian value (may straddle frames).
    pub fn read_u32(&self, addr: u32) -> u32 {
        if addr & PAGE_MASK <= PAGE_MASK - 3 {
            let i = (addr & PAGE_MASK) as usize;
            match self.frame(addr) {
                Some(f) => u32::from_le_bytes(f.data[i..i + 4].try_into().unwrap()),
                None => 0,
            }
        } else {
            u32::from_le_bytes([
                self.read_u8(addr),
                self.read_u8(addr.wrapping_add(1)),
                self.read_u8(addr.wrapping_add(2)),
                self.read_u8(addr.wrapping_add(3)),
            ])
        }
    }

    /// Writes a 32-bit little-endian value.
    pub fn write_u32(&mut self, addr: u32, v: u32) {
        let b = v.to_le_bytes();
        if addr & PAGE_MASK <= PAGE_MASK - 3 {
            let i = (addr & PAGE_MASK) as usize;
            self.frame_mut(addr, 4).data_mut()[i..i + 4].copy_from_slice(&b);
        } else {
            for (i, byte) in b.iter().enumerate() {
                self.write_u8(addr.wrapping_add(i as u32), *byte);
            }
        }
    }

    /// Copies a byte slice into physical memory.
    pub fn write_bytes(&mut self, addr: u32, data: &[u8]) {
        let mut addr = addr;
        let mut data = data;
        while !data.is_empty() {
            let off = (addr & PAGE_MASK) as usize;
            let n = data.len().min(PAGE_SIZE as usize - off);
            self.frame_mut(addr, n).data_mut()[off..off + n].copy_from_slice(&data[..n]);
            data = &data[n..];
            addr = addr.wrapping_add(n as u32);
        }
    }

    /// Reads `len` bytes into a fresh vector.
    pub fn read_bytes(&self, addr: u32, len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| self.read_u8(addr.wrapping_add(i as u32)))
            .collect()
    }

    /// Serializes the sparse frame set into a checkpoint payload: only
    /// materialized frames, sorted by frame number so the bytes are a
    /// pure function of memory contents (the index `HashMap` iterates in
    /// host-dependent order, and slab slot numbers are allocation-order
    /// accidents).
    ///
    /// Code generations and code masks are *not* serialized: they
    /// exist only to invalidate the predecode cache, which a restored
    /// world rebuilds from scratch.
    pub(crate) fn save_into(&self, e: &mut Enc) {
        let mut pages: Vec<(u32, u32)> = self.index.iter().map(|(&p, &s)| (p, s)).collect();
        pages.sort_unstable_by_key(|&(p, _)| p);
        e.u32(pages.len() as u32);
        for (page, slot) in pages {
            e.u32(page);
            e.bytes(&*self.slabs[slot as usize].data);
        }
    }

    /// Rebuilds physical memory from a payload written by
    /// [`PhysMem::save_into`]. Frames come back in sorted order, so slab
    /// slot numbering after a restore is deterministic (slots are
    /// host-side identities; nothing architectural observes them).
    pub(crate) fn restore_from(d: &mut Dec<'_>) -> Result<PhysMem, RestoreError> {
        let n = d.count(4 + PAGE_SIZE as usize)?;
        let mut index: HashMap<u32, u32, U32HashBuilder> = HashMap::default();
        let mut slabs: Vec<Frame> = Vec::with_capacity(n);
        let mut last: Option<u32> = None;
        for _ in 0..n {
            let page = d.u32()?;
            if last.is_some_and(|l| page <= l) {
                return Err(d.fail(format!("frames not sorted (page {page:#x})")));
            }
            last = Some(page);
            let bytes = d.bytes(PAGE_SIZE as usize)?;
            let data: [u8; PAGE_SIZE as usize] = bytes.try_into().expect("read PAGE_SIZE bytes");
            index.insert(page, slabs.len() as u32);
            slabs.push(Frame {
                data: Arc::new(data),
                code_gen: 0,
                code_mask: None,
            });
        }
        Ok(PhysMem {
            index: Arc::new(index),
            slabs: Arc::new(slabs),
            code_epoch: 0,
        })
    }

    /// Zero-fills a range.
    pub fn zero(&mut self, addr: u32, len: u32) {
        let mut addr = addr;
        let mut len = len as usize;
        while len > 0 {
            let off = (addr & PAGE_MASK) as usize;
            let n = len.min(PAGE_SIZE as usize - off);
            self.frame_mut(addr, n).data_mut()[off..off + n].fill(0);
            len -= n;
            addr = addr.wrapping_add(n as u32);
        }
    }
}

/// A bump allocator over physical frames, with a deterministic free list.
///
/// The hosting kernel uses it to place page tables, code images and stacks
/// in distinct frames. Freed frames go on a LIFO free list and are reused
/// (most recently freed first) before the bump pointer advances, so every
/// allocation sequence is a pure function of the call sequence — seeded
/// simulations stay replayable across reclaim cycles.
#[derive(Debug, Clone)]
pub struct FrameAlloc {
    next: u32,
    limit: u32,
    free_list: Vec<u32>,
    in_use: u32,
}

impl FrameAlloc {
    /// Creates an allocator handing out frames in `[start, limit)`.
    ///
    /// # Panics
    ///
    /// Panics if the bounds are not page-aligned or empty.
    pub fn new(start: u32, limit: u32) -> FrameAlloc {
        assert_eq!(start & PAGE_MASK, 0, "start must be page-aligned");
        assert_eq!(limit & PAGE_MASK, 0, "limit must be page-aligned");
        assert!(start < limit, "empty frame range");
        FrameAlloc {
            next: start,
            limit,
            free_list: Vec::new(),
            in_use: 0,
        }
    }

    /// Allocates one frame, returning its physical base address. The most
    /// recently freed frame is reused first; the bump pointer only
    /// advances when the free list is empty.
    pub fn alloc(&mut self) -> Option<u32> {
        if let Some(f) = self.free_list.pop() {
            self.in_use += 1;
            return Some(f);
        }
        if self.next >= self.limit {
            return None;
        }
        let f = self.next;
        self.next += PAGE_SIZE;
        self.in_use += 1;
        Some(f)
    }

    /// Allocates `n` contiguous frames, returning the first base address.
    /// Always carved from the bump region (the free list holds single
    /// frames with no adjacency guarantee).
    pub fn alloc_contiguous(&mut self, n: u32) -> Option<u32> {
        let bytes = n.checked_mul(PAGE_SIZE)?;
        let end = self.next.checked_add(bytes)?;
        if end > self.limit {
            return None;
        }
        let f = self.next;
        self.next = end;
        self.in_use += n;
        Some(f)
    }

    /// Returns a frame to the allocator for reuse.
    ///
    /// # Panics
    ///
    /// Panics on a misaligned address, a frame the allocator never handed
    /// out, or a double free — each would silently corrupt a later
    /// allocation, so they are host bugs worth failing loudly on.
    pub fn free(&mut self, frame: u32) {
        assert_eq!(frame & PAGE_MASK, 0, "freed frame must be page-aligned");
        assert!(frame < self.next, "freeing a frame never allocated");
        assert!(
            !self.free_list.contains(&frame),
            "double free of frame {frame:#010x}"
        );
        self.free_list.push(frame);
        self.in_use -= 1;
    }

    /// Frames still available (unreached bump space plus the free list).
    pub fn remaining(&self) -> u32 {
        (self.limit - self.next) / PAGE_SIZE + self.free_list.len() as u32
    }

    /// Frames currently allocated and not yet freed — the leak-audit
    /// counter compared before and after a reclaim cycle.
    pub fn in_use(&self) -> u32 {
        self.in_use
    }

    /// Serializes the allocator into a checkpoint payload. The free list
    /// is written in its exact LIFO order: allocation sequences are a
    /// pure function of the call sequence *and this order*, so a restored
    /// world must hand out frames identically to the original.
    pub fn save_into(&self, e: &mut Enc) {
        e.u32(self.next);
        e.u32(self.limit);
        e.u32(self.in_use);
        e.u32(self.free_list.len() as u32);
        for &f in &self.free_list {
            e.u32(f);
        }
    }

    /// Rebuilds an allocator from a payload written by
    /// [`FrameAlloc::save_into`], validating the invariants a live
    /// allocator maintains (alignment, bounds, no double entries).
    pub fn restore_from(d: &mut Dec<'_>) -> Result<FrameAlloc, RestoreError> {
        let next = d.u32()?;
        let limit = d.u32()?;
        let in_use = d.u32()?;
        if next & PAGE_MASK != 0 || limit & PAGE_MASK != 0 || next > limit {
            return Err(d.fail(format!("allocator bounds {next:#x}/{limit:#x}")));
        }
        let n = d.count(4)?;
        let mut free_list = Vec::with_capacity(n);
        for _ in 0..n {
            let f = d.u32()?;
            if f & PAGE_MASK != 0 || f >= next {
                return Err(d.fail(format!("free frame {f:#x} out of range")));
            }
            if free_list.contains(&f) {
                return Err(d.fail(format!("frame {f:#x} freed twice")));
            }
            free_list.push(f);
        }
        Ok(FrameAlloc {
            next,
            limit,
            free_list,
            in_use,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbacked_memory_reads_zero() {
        let m = PhysMem::new();
        assert_eq!(m.read_u8(0), 0);
        assert_eq!(m.read_u32(0xFFFF_FFF0), 0);
        assert_eq!(m.resident_frames(), 0);
    }

    #[test]
    fn write_then_read_roundtrip() {
        let mut m = PhysMem::new();
        m.write_u32(0x1000, 0xDEAD_BEEF);
        assert_eq!(m.read_u32(0x1000), 0xDEAD_BEEF);
        assert_eq!(m.read_u8(0x1000), 0xEF);
        assert_eq!(m.read_u8(0x1003), 0xDE);
        assert_eq!(m.resident_frames(), 1);
    }

    #[test]
    fn values_straddle_frame_boundaries() {
        let mut m = PhysMem::new();
        m.write_u32(0x1FFE, 0x1122_3344);
        assert_eq!(m.read_u32(0x1FFE), 0x1122_3344);
        assert_eq!(m.read_u16(0x1FFF), 0x2233);
        assert_eq!(m.resident_frames(), 2);
    }

    #[test]
    fn bulk_copy_roundtrip() {
        let mut m = PhysMem::new();
        let data: Vec<u8> = (0..=255).collect();
        m.write_bytes(0x2F80, &data);
        assert_eq!(m.read_bytes(0x2F80, 256), data);
        m.zero(0x2F80, 256);
        assert!(m.read_bytes(0x2F80, 256).iter().all(|b| *b == 0));
    }

    #[test]
    fn store_generations_track_every_mutation_path() {
        // Every mutation path funnels through `note_store`: with the
        // whole frame marked as cached code, each store must bump the
        // frame's code generation (a bump clears the mask, so re-mark).
        let mut m = PhysMem::new();
        let a = m.ensure_frame_slot(0x5000);
        let b = m.ensure_frame_slot(0x6000);
        let page = PAGE_SIZE as usize;
        let bumps = |m: &mut PhysMem, what: &str, store: &dyn Fn(&mut PhysMem)| {
            m.mark_code(a, 0, page);
            m.mark_code(b, 0, page);
            let (ga, gb) = (m.slot_code_generation(a), m.slot_code_generation(b));
            store(m);
            assert!(m.slot_code_generation(a) > ga, "{what} bumps");
            gb
        };
        bumps(&mut m, "write_u8", &|m| m.write_u8(0x5000, 1));
        bumps(&mut m, "write_u16", &|m| m.write_u16(0x5010, 2));
        bumps(&mut m, "write_u32", &|m| m.write_u32(0x5100, 0xAABB_CCDD));
        let gb = bumps(&mut m, "straddling write_bytes", &|m| {
            m.write_bytes(0x5FF0, &[7u8; 32])
        });
        assert!(m.slot_code_generation(b) > gb, "both touched frames bump");
        bumps(&mut m, "zero", &|m| m.zero(0x5000, 16));
        bumps(&mut m, "write_u8_slot", &|m| m.write_u8_slot(a, 3, 9));
        bumps(&mut m, "write_u16_slot", &|m| m.write_u16_slot(a, 6, 9));
        bumps(&mut m, "write_u32_slot", &|m| m.write_u32_slot(a, 8, 9));

        // Reads never bump.
        m.mark_code(a, 0, page);
        let g = m.slot_code_generation(a);
        let _ = m.read_u32(0x5000);
        let _ = m.read_bytes(0x5000, 64);
        let _ = m.read_u32_slot(a, 0);
        assert_eq!(m.slot_code_generation(a), g);
    }

    #[test]
    fn frame_data_exposes_backed_frames_only() {
        let mut m = PhysMem::new();
        assert!(m.frame_data(0x9000).is_none());
        m.write_u8(0x9123, 0x42);
        let f = m.frame_data(0x9000).unwrap();
        assert_eq!(f[0x123], 0x42);
    }

    #[test]
    fn frame_alloc_hands_out_distinct_frames() {
        let mut fa = FrameAlloc::new(0x10_0000, 0x10_3000);
        assert_eq!(fa.remaining(), 3);
        let a = fa.alloc().unwrap();
        let b = fa.alloc().unwrap();
        assert_ne!(a, b);
        assert_eq!(b, a + PAGE_SIZE);
        assert_eq!(fa.remaining(), 1);
        assert!(fa.alloc().is_some());
        assert!(fa.alloc().is_none());
    }

    #[test]
    fn contiguous_allocation_respects_limit() {
        let mut fa = FrameAlloc::new(0, 0x4000);
        assert!(fa.alloc_contiguous(5).is_none());
        let base = fa.alloc_contiguous(4).unwrap();
        assert_eq!(base, 0);
        assert_eq!(fa.remaining(), 0);
    }

    #[test]
    fn page_helpers() {
        assert_eq!(page_base(0x1234), 0x1000);
        assert_eq!(pages_for(1), 1);
        assert_eq!(pages_for(4096), 1);
        assert_eq!(pages_for(4097), 2);
        assert_eq!(pages_for(0), 0);
    }

    #[test]
    #[should_panic(expected = "page-aligned")]
    fn misaligned_frame_alloc_panics() {
        let _ = FrameAlloc::new(0x100, 0x2000);
    }

    #[test]
    fn freed_frames_are_reused_lifo_before_the_bump_pointer() {
        let mut fa = FrameAlloc::new(0x10_0000, 0x10_4000);
        let a = fa.alloc().unwrap();
        let b = fa.alloc().unwrap();
        assert_eq!(fa.in_use(), 2);
        fa.free(a);
        fa.free(b);
        assert_eq!(fa.in_use(), 0);
        assert_eq!(fa.remaining(), 4);
        // LIFO: most recently freed first, then the older free, then bump.
        assert_eq!(fa.alloc().unwrap(), b);
        assert_eq!(fa.alloc().unwrap(), a);
        assert_eq!(fa.alloc().unwrap(), b + PAGE_SIZE);
        assert_eq!(fa.in_use(), 3);
    }

    #[test]
    fn free_list_extends_an_exhausted_pool() {
        let mut fa = FrameAlloc::new(0, 0x2000);
        let a = fa.alloc().unwrap();
        let _b = fa.alloc().unwrap();
        assert!(fa.alloc().is_none());
        fa.free(a);
        assert_eq!(fa.remaining(), 1);
        assert_eq!(fa.alloc(), Some(a));
        assert!(fa.alloc().is_none());
    }

    #[test]
    fn cloned_memory_shares_frames_until_written() {
        let mut m = PhysMem::new();
        m.write_u32(0x1000, 0xDEAD_BEEF);
        m.write_u32(0x2000, 0x1234_5678);
        assert_eq!(m.shared_frames(), 0, "cold world shares nothing");

        let mut fork = m.clone();
        assert_eq!(m.shared_frames(), 2, "snapshot freezes both frames");
        assert_eq!(fork.shared_frames(), 2);
        assert_eq!(fork.read_u32(0x1000), 0xDEAD_BEEF);

        // First write in the fork materializes only that frame.
        fork.write_u32(0x1000, 0xCAFE_F00D);
        assert_eq!(fork.read_u32(0x1000), 0xCAFE_F00D);
        assert_eq!(m.read_u32(0x1000), 0xDEAD_BEEF, "template untouched");
        assert_eq!(m.shared_frames(), 1, "only the untouched frame shares");

        // Writes in the template split too, without touching the fork.
        m.write_u32(0x2000, 0x9999_0000);
        assert_eq!(fork.read_u32(0x2000), 0x1234_5678);
        assert_eq!(m.shared_frames(), 0);
    }

    #[test]
    fn slot_write_on_shared_frame_cows() {
        // Regression for the "touch without bumping" audit: a frame
        // shared with a fork and then mutated through the slot-direct
        // path (the memoized store fast path) must still materialize
        // privately. `ensure_frame_slot` itself never splits — it does
        // not mutate payload bytes.
        let mut m = PhysMem::new();
        m.write_bytes(0x3000, &[0xAA; 64]);
        let mut fork = m.clone();

        let slot = fork.ensure_frame_slot(0x3000);
        assert_eq!(
            fork.shared_frames(),
            1,
            "ensure_frame_slot alone must not split the shared payload"
        );
        fork.write_u8_slot(slot, 5, 0x55);
        assert_eq!(fork.read_u8(0x3005), 0x55);
        assert_eq!(m.read_u8(0x3005), 0xAA, "template sees no slot write");
        assert_eq!(fork.shared_frames(), 0);

        // Allocating a brand-new frame in the fork never shows up in
        // the template.
        let new_slot = fork.ensure_frame_slot(0x9_F000);
        fork.write_u32_slot(new_slot, 0, 7);
        assert!(m.frame_data(0x9_F000).is_none());
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut fa = FrameAlloc::new(0, 0x2000);
        let a = fa.alloc().unwrap();
        fa.free(a);
        fa.free(a);
    }
}
