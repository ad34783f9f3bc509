//! Typed access to shared data areas.
//!
//! The extension ABI passes one 4-byte argument and returns one 4-byte
//! result; "more complicated data structures are stored in the shared
//! data area, and input and result arguments are pointers to them"
//! (§4.5.1). `SharedArea` is the host-side view of such an area: a small
//! arena of u32 slots, byte buffers and C strings with bounds checking,
//! whose addresses are handed to extensions as the 4-byte argument.

use minikernel::Kernel;

/// Errors from shared-area access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShmError {
    /// The access falls outside the area.
    OutOfBounds,
    /// The arena is full.
    Full,
    /// A page of the area is not mapped.
    Unmapped,
}

impl core::fmt::Display for ShmError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ShmError::OutOfBounds => write!(f, "access outside the shared area"),
            ShmError::Full => write!(f, "shared area exhausted"),
            ShmError::Unmapped => write!(f, "shared area page not mapped"),
        }
    }
}

impl std::error::Error for ShmError {}

/// The host-side view of a shared data area (PPL 1, visible to both the
/// application and its extensions).
#[derive(Debug, Clone, Copy)]
pub struct SharedArea {
    base: u32,
    size: u32,
    cursor: u32,
}

impl SharedArea {
    /// Wraps an area previously allocated with
    /// [`crate::user_ext::ExtensibleApp::alloc_shared`].
    pub fn new(base: u32, size: u32) -> SharedArea {
        SharedArea {
            base,
            size,
            cursor: 0,
        }
    }

    /// The area's base address (what extensions receive).
    pub fn base(&self) -> u32 {
        self.base
    }

    /// Bytes remaining in the arena.
    pub fn remaining(&self) -> u32 {
        self.size - self.cursor
    }

    /// Resets the arena cursor (per-request reuse).
    pub fn reset(&mut self) {
        self.cursor = 0;
    }

    fn alloc(&mut self, len: u32, align: u32) -> Result<u32, ShmError> {
        let aligned = self.cursor.div_ceil(align) * align;
        let end = aligned.checked_add(len).ok_or(ShmError::Full)?;
        if end > self.size {
            return Err(ShmError::Full);
        }
        self.cursor = end;
        Ok(self.base + aligned)
    }

    /// Writes a u32 into the arena, returning its address.
    pub fn put_u32(&mut self, k: &mut Kernel, v: u32) -> Result<u32, ShmError> {
        self.put_bytes(k, &v.to_le_bytes())
    }

    /// Writes bytes into the arena, returning their address.
    pub fn put_bytes(&mut self, k: &mut Kernel, data: &[u8]) -> Result<u32, ShmError> {
        let addr = self.alloc(data.len() as u32, 4)?;
        if !k.m.host_write(addr, data) {
            return Err(ShmError::Unmapped);
        }
        Ok(addr)
    }

    /// Writes a NUL-terminated string, returning its address.
    pub fn put_cstr(&mut self, k: &mut Kernel, s: &str) -> Result<u32, ShmError> {
        let mut data = s.as_bytes().to_vec();
        data.push(0);
        self.put_bytes(k, &data)
    }

    /// Reads a u32 at an absolute address inside the area.
    pub fn read_u32(&self, k: &Kernel, addr: u32) -> Result<u32, ShmError> {
        self.check(addr, 4)?;
        Ok(k.m.host_read_u32(addr))
    }

    /// Reads `len` bytes at an absolute address inside the area.
    pub fn read_bytes(&self, k: &Kernel, addr: u32, len: u32) -> Result<Vec<u8>, ShmError> {
        self.check(addr, len)?;
        Ok(k.m.host_read(addr, len as usize))
    }

    /// Reads a NUL-terminated string at an absolute address.
    pub fn read_cstr(&self, k: &Kernel, addr: u32) -> Result<String, ShmError> {
        self.check(addr, 1)?;
        let max = self.base + self.size - addr;
        let raw = k.m.host_read(addr, max as usize);
        let end = raw
            .iter()
            .position(|b| *b == 0)
            .ok_or(ShmError::OutOfBounds)?;
        Ok(String::from_utf8_lossy(&raw[..end]).into_owned())
    }

    fn check(&self, addr: u32, len: u32) -> Result<(), ShmError> {
        let end = addr.checked_add(len).ok_or(ShmError::OutOfBounds)?;
        if addr < self.base || end > self.base + self.size {
            return Err(ShmError::OutOfBounds);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::user_ext::{DlopenOptions, ExtensibleApp};
    use asm86::Assembler;

    fn setup() -> (Kernel, ExtensibleApp, SharedArea) {
        let mut k = Kernel::boot();
        let mut app = ExtensibleApp::new(&mut k).unwrap();
        let base = app.alloc_shared(&mut k, 1).unwrap();
        let shm = SharedArea::new(base, 4096);
        (k, app, shm)
    }

    #[test]
    fn arena_allocation_and_roundtrip() {
        let (mut k, _app, mut shm) = setup();
        let a = shm.put_u32(&mut k, 0xAABB).unwrap();
        let b = shm.put_cstr(&mut k, "hello").unwrap();
        let c = shm.put_u32(&mut k, 7).unwrap();
        assert_eq!(shm.read_u32(&k, a).unwrap(), 0xAABB);
        assert_eq!(shm.read_cstr(&k, b).unwrap(), "hello");
        assert_eq!(shm.read_u32(&k, c).unwrap(), 7);
        assert_eq!(c % 4, 0, "u32 slots aligned");
        shm.reset();
        assert_eq!(shm.remaining(), 4096);
    }

    #[test]
    fn bounds_are_enforced() {
        let (k, _app, mut shm) = setup();
        assert_eq!(shm.read_u32(&k, shm.base() - 4), Err(ShmError::OutOfBounds));
        assert_eq!(
            shm.read_u32(&k, shm.base() + 4096),
            Err(ShmError::OutOfBounds)
        );
        let mut k2 = Kernel::boot();
        assert_eq!(
            shm.put_bytes(&mut k2, &vec![0u8; 5000]).unwrap_err(),
            ShmError::Full
        );
    }

    #[test]
    fn extension_processes_a_structured_request() {
        // The §4.5.1 pattern end to end: the app marshals a (len, string)
        // record into the shared area; the extension uppercases the string
        // in place; the app reads the result back.
        let (mut k, mut app, mut shm) = setup();
        let text = shm.put_cstr(&mut k, "palladium").unwrap();
        let req = shm.put_u32(&mut k, text).unwrap(); // request = ptr to string

        let ext = Assembler::assemble(
            "upcase:\n\
             mov ecx, [esp+4]\n\
             mov ecx, [ecx]          ; request -> string ptr\n\
             loop_top:\n\
             mov eax, byte [ecx]\n\
             cmp eax, 0\n\
             je done\n\
             cmp eax, 97\n\
             jb next\n\
             cmp eax, 122\n\
             ja next\n\
             sub eax, 32\n\
             mov byte [ecx], eax\n\
             next:\n\
             inc ecx\n\
             jmp loop_top\n\
             done:\n\
             mov eax, ecx\n\
             sub eax, [esp+4]\n\
             ret\n",
        )
        .unwrap();
        let h = app.dlopen(&mut k, &ext, &DlopenOptions::new()).unwrap();
        let f = app.seg_dlsym(&mut k, h, "upcase").unwrap();
        app.call_extension(&mut k, f, req).unwrap();
        assert_eq!(shm.read_cstr(&k, text).unwrap(), "PALLADIUM");
    }
}
