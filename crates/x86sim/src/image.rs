//! Durable world images: a versioned, integrity-checked binary format.
//!
//! A checkpoint crosses a protection boundary in exactly the sense of the
//! paper: the restore path ingests bytes that may have been corrupted (a
//! torn write, a flipped bit on disk, an attacker) and must *verify or
//! reject* them — never silently restore. The format is therefore built
//! for detection, not compactness:
//!
//! ```text
//! magic[4] version:u32(=VERSION) kind:u32 nsec:u32
//!   ( id:u32 len:u32 payload[len] crc32(payload) )*   // ids strictly ascending
//! crc32(everything above)
//! ```
//!
//! An image is flat: every layer appends its own sections, from its own
//! id range ([`base`]), to the one [`ImageBuilder`] the outermost layer
//! owns, and reads them back from the one verified [`ImageView`]. A
//! replica image holds the machine's sections (`0x1xx`), then the
//! kernel's (`0x2xx`), the application's (`0x3xx`) and its own
//! (`0x5xx`); inner layers write first, so ids ascend.
//!
//! * the **magic/version/kind** header rejects foreign bytes and version
//!   skew with typed errors before anything is interpreted;
//! * a trailing **whole-image CRC32** covers every preceding byte and is
//!   verified *before* the section count or any length is trusted —
//!   torn writes and header tampering fail even when each section
//!   happens to look self-consistent;
//! * every section carries a **CRC32 over its payload** — a bit flip
//!   anywhere in a payload is caught section-locally;
//! * section ids must be **strictly ascending** — transposed or replayed
//!   sections are a structural error, not a silent reorder;
//! * all lengths are bounds-checked while walking, so truncation is a
//!   typed error, never a panic or an out-of-bounds read.
//!
//! Decoding of section payloads goes through [`Dec`], which bounds-checks
//! every read, bounds every decoded element count by the bytes left
//! ([`Dec::count`]) and rejects trailing bytes, so a malformed payload
//! that passed its CRC (i.e. a buggy or malicious *writer*) still yields
//! a typed [`RestoreError`], never a partially-initialized world or an
//! unbounded allocation.
//!
//! What is deliberately **not** in an image: block tokens, page
//! translation memos, execution traces, and per-frame code
//! generations. All of it is host-side derived state, rebuilt on demand;
//! the memo/stat accounting is constructed so its absence is invisible
//! (memo hits count as TLB hits, predecode is a host knob). The
//! differential tests assert a restored world is cycle/stat/fault
//! byte-identical going forward.

use core::fmt;

use crate::desc::{CallGate, CodeSeg, DataSeg, Descriptor, DescriptorTable, Selector};
use crate::fault::{Fault, FaultCause, Vector};
use crate::machine::{Cpu, Flags, SegCache};

/// Image magic: "PDIM" (PallaDium IMage).
pub const MAGIC: [u8; 4] = *b"PDIM";

/// Current format version. Bumped on any incompatible layout change; a
/// mismatch is a typed [`RestoreError::Version`], never a guess.
pub const VERSION: u32 = 4;

/// Header bytes: magic, version, kind, section count.
const HEADER_LEN: usize = 16;

/// Image kinds: which layer's state an image carries. Restoring an image
/// of the wrong kind is rejected ([`RestoreError::Kind`]) — a kernel
/// image is not a machine image even when every CRC passes.
pub mod kind {
    /// A bare [`crate::Machine`] world.
    pub const MACHINE: u32 = 1;
    /// A hosting kernel (machine + task table + allocator).
    pub const KERNEL: u32 = 2;
    /// A Palladium session (kernel + extensible application).
    pub const SESSION: u32 = 3;
    /// A fleet replica (session + kernel extensions + supervisor).
    pub const REPLICA: u32 = 4;
}

/// Section-id bases: each layer numbers its sections from its own base,
/// so the layers of one flat image never collide and, since an inner
/// layer always writes before the layer that wraps it, ids ascend.
pub mod base {
    /// [`crate::Machine`] architectural state.
    pub const MACHINE: u32 = 0x100;
    /// The hosting kernel's tables.
    pub const KERNEL: u32 = 0x200;
    /// The Palladium extensible application.
    pub const APP: u32 = 0x300;
    /// A Palladium session's own state.
    pub const SESSION: u32 = 0x400;
    /// A fleet replica's own state.
    pub const REPLICA: u32 = 0x500;
}

/// Why an image was rejected. Every corruption class maps to a variant:
/// bit flips, truncation, torn writes and transposed blocks past the
/// header to `ImageCrc` (or `Truncated`), version skew to `Version`, and
/// writers that stamp a valid trailer over bad content to
/// `SectionCrc`/`SectionOrder`/`Truncated`/`Malformed`/`MissingSection`/
/// `TrailingBytes`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RestoreError {
    /// The bytes do not begin with the image magic.
    BadMagic,
    /// The format version is not the one this build reads.
    Version {
        /// Version found in the image.
        found: u32,
        /// Version this build supports.
        supported: u32,
    },
    /// The image is of a different layer's kind.
    Kind {
        /// Kind found in the image.
        found: u32,
        /// Kind the caller required.
        expected: u32,
    },
    /// The image ends before the structure it promises.
    Truncated {
        /// Which part ran out of bytes.
        section: &'static str,
    },
    /// Section ids are not strictly ascending (transposed or duplicated
    /// sections).
    SectionOrder {
        /// The offending section id.
        id: u32,
    },
    /// A section payload fails its CRC32.
    SectionCrc {
        /// The offending section id.
        id: u32,
    },
    /// The whole-image trailer CRC32 fails (torn write or header
    /// tampering).
    ImageCrc,
    /// Bytes remain after the structure ended.
    TrailingBytes {
        /// Which part had leftover bytes.
        section: &'static str,
    },
    /// A section this kind requires is absent.
    MissingSection {
        /// The missing section's name.
        section: &'static str,
    },
    /// A section's payload decodes to out-of-range values.
    Malformed {
        /// Which section.
        section: &'static str,
        /// What was wrong.
        detail: String,
    },
}

impl fmt::Display for RestoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RestoreError::BadMagic => write!(f, "not a world image (bad magic)"),
            RestoreError::Version { found, supported } => {
                write!(f, "image version {found} (this build reads {supported})")
            }
            RestoreError::Kind { found, expected } => {
                write!(f, "image kind {found} where kind {expected} was required")
            }
            RestoreError::Truncated { section } => write!(f, "image truncated in {section}"),
            RestoreError::SectionOrder { id } => {
                write!(f, "section {id} out of order (transposed or duplicated)")
            }
            RestoreError::SectionCrc { id } => write!(f, "section {id} failed its CRC32"),
            RestoreError::ImageCrc => write!(f, "whole-image CRC32 mismatch (torn write?)"),
            RestoreError::TrailingBytes { section } => {
                write!(f, "trailing bytes after {section}")
            }
            RestoreError::MissingSection { section } => {
                write!(f, "required section {section} missing")
            }
            RestoreError::Malformed { section, detail } => {
                write!(f, "malformed {section}: {detail}")
            }
        }
    }
}

impl std::error::Error for RestoreError {}

/// IEEE CRC32 (the PNG/zlib polynomial), hand-rolled so the workspace
/// stays dependency-free.
///
/// Slicing-by-16: `TABLES[k][b]` is the CRC contribution of byte `b`
/// followed by `k` zero bytes, so one step folds a 16-byte chunk with
/// 16 independent lookups instead of 16 dependent ones. The tail goes
/// bytewise through `TABLES[0]`, the classic table. The output is the
/// same as the bytewise algorithm's for every input.
pub fn crc32(bytes: &[u8]) -> u32 {
    static TABLES: [[u32; 256]; 16] = crc32_tables();
    let (chunks, tail) = bytes.as_chunks::<16>();
    let mut crc = !0u32;
    for &chunk in chunks {
        let mut c = chunk;
        let head = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        c[..4].copy_from_slice(&head.to_le_bytes());
        crc = 0;
        for (table, b) in TABLES.iter().rev().zip(c) {
            crc ^= table[b as usize];
        }
    }
    for &b in tail {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

const fn crc32_tables() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// Little-endian byte-stream encoder for section payloads.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// An empty encoder.
    pub fn new() -> Enc {
        Enc::default()
    }

    /// Appends a byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian u16.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian u32.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian u64.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian i32.
    pub fn i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a bool as one byte (0 or 1).
    pub fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Appends raw bytes with no length prefix (fixed-size payloads).
    pub fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Appends a u32-length-prefixed byte string.
    pub fn blob(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.bytes(v);
    }

    /// Appends a u32-length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.blob(v.as_bytes());
    }

    /// Consumes the encoder, yielding the payload.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }
}

/// Bounds-checked little-endian decoder over a section payload. Every
/// read that would run past the end is a typed [`RestoreError`], and
/// [`Dec::finish`] rejects trailing bytes — a payload must decode
/// *exactly* or not at all.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
    section: &'static str,
}

impl<'a> Dec<'a> {
    /// Wraps a payload; `section` names it in error values.
    pub fn new(buf: &'a [u8], section: &'static str) -> Dec<'a> {
        Dec {
            buf,
            pos: 0,
            section,
        }
    }

    /// Builds a [`RestoreError::Malformed`] naming this section.
    pub fn fail(&self, detail: impl Into<String>) -> RestoreError {
        RestoreError::Malformed {
            section: self.section,
            detail: detail.into(),
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], RestoreError> {
        if self.buf.len() - self.pos < n {
            return Err(RestoreError::Truncated {
                section: self.section,
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, RestoreError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian u16.
    pub fn u16(&mut self) -> Result<u16, RestoreError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Reads a little-endian u32.
    pub fn u32(&mut self) -> Result<u32, RestoreError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian u64.
    pub fn u64(&mut self) -> Result<u64, RestoreError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a little-endian i32.
    pub fn i32(&mut self) -> Result<i32, RestoreError> {
        Ok(i32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a bool, rejecting anything but 0 or 1.
    pub fn bool(&mut self) -> Result<bool, RestoreError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(self.fail(format!("bool byte {v:#x}"))),
        }
    }

    /// Reads `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], RestoreError> {
        self.take(n)
    }

    /// Reads a u32-length-prefixed byte string.
    pub fn blob(&mut self) -> Result<&'a [u8], RestoreError> {
        let n = self.u32()? as usize;
        self.take(n)
    }

    /// Reads a u32-length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, RestoreError> {
        let b = self.blob()?;
        String::from_utf8(b.to_vec()).map_err(|_| self.fail("non-UTF-8 string"))
    }

    /// Reads a u32 element count, rejecting it as
    /// [`RestoreError::Truncated`] when `n` elements of at least
    /// `min_elem_bytes` each cannot fit in the bytes left. Sizing an
    /// allocation by the result is then bounded by the payload.
    pub fn count(&mut self, min_elem_bytes: usize) -> Result<usize, RestoreError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_elem_bytes) > self.remaining() {
            return Err(RestoreError::Truncated {
                section: self.section,
            });
        }
        Ok(n)
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Asserts the payload was consumed exactly.
    pub fn finish(self) -> Result<(), RestoreError> {
        if self.pos != self.buf.len() {
            return Err(RestoreError::TrailingBytes {
                section: self.section,
            });
        }
        Ok(())
    }
}

/// Builds an image: header, CRC-stamped sections in ascending-id order,
/// trailing whole-image CRC. Sections are written straight into the
/// output buffer; layers share one builder (see [`base`]).
#[derive(Debug)]
pub struct ImageBuilder {
    out: Vec<u8>,
    nsec: u32,
    last_id: Option<u32>,
}

impl ImageBuilder {
    /// Starts an image of the given [`kind`].
    pub fn new(kind: u32) -> ImageBuilder {
        let mut out = Vec::with_capacity(HEADER_LEN);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&kind.to_le_bytes());
        out.extend_from_slice(&0u32.to_le_bytes()); // nsec, patched by finish()
        ImageBuilder {
            out,
            nsec: 0,
            last_id: None,
        }
    }

    /// Appends a section. Ids must be strictly ascending.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not greater than the previous section's id —
    /// the writer controls section order and must emit it sorted.
    pub fn section(&mut self, id: u32, payload: Enc) {
        assert!(
            self.last_id.is_none_or(|last| id > last),
            "section ids must be strictly ascending (got {id})"
        );
        self.last_id = Some(id);
        let payload = payload.into_vec();
        self.out.reserve(12 + payload.len());
        self.out.extend_from_slice(&id.to_le_bytes());
        self.out
            .extend_from_slice(&(payload.len() as u32).to_le_bytes());
        self.out.extend_from_slice(&payload);
        self.out.extend_from_slice(&crc32(&payload).to_le_bytes());
        self.nsec += 1;
    }

    /// Finalizes the image, stamping the trailing whole-image CRC.
    pub fn finish(mut self) -> Vec<u8> {
        self.out[12..HEADER_LEN].copy_from_slice(&self.nsec.to_le_bytes());
        let crc = crc32(&self.out);
        self.out.extend_from_slice(&crc.to_le_bytes());
        // Images outlive the save (checkpoint lineages): drop the slack
        // the buffer grew by.
        self.out.shrink_to_fit();
        self.out
    }
}

/// A parsed, integrity-verified view of an image. Construction *is* the
/// verification: magic, version, kind, the whole-image CRC, structural
/// bounds, section order and every section CRC are all checked before
/// any payload byte is handed out.
#[derive(Debug)]
pub struct ImageView<'a> {
    sections: Vec<(u32, &'a [u8])>,
}

impl<'a> ImageView<'a> {
    /// Parses and verifies an image of the expected [`kind`].
    pub fn parse(bytes: &'a [u8], expected_kind: u32) -> Result<ImageView<'a>, RestoreError> {
        let header = "header";
        if bytes.len() < 4 {
            return Err(RestoreError::Truncated { section: header });
        }
        if bytes[0..4] != MAGIC {
            return Err(RestoreError::BadMagic);
        }
        let mut d = Dec::new(bytes, header);
        let _ = d.bytes(4)?;
        let version = d.u32()?;
        if version != VERSION {
            return Err(RestoreError::Version {
                found: version,
                supported: VERSION,
            });
        }
        let found_kind = d.u32()?;
        if found_kind != expected_kind {
            return Err(RestoreError::Kind {
                found: found_kind,
                expected: expected_kind,
            });
        }

        // The trailer covers every preceding byte (torn writes, header
        // tampering); check it before trusting the count or any length.
        if bytes.len() < HEADER_LEN + 4 {
            return Err(RestoreError::Truncated { section: "trailer" });
        }
        let (body, trailer) = bytes.split_at(bytes.len() - 4);
        if crc32(body).to_le_bytes() != *trailer {
            return Err(RestoreError::ImageCrc);
        }

        // Each table entry is at least an id, a length and a CRC.
        let mut d = Dec::new(&body[12..], "section table");
        let nsec = d.count(12)?;
        let mut sections = Vec::with_capacity(nsec);
        let mut last_id: Option<u32> = None;
        for _ in 0..nsec {
            let id = d.u32()?;
            if last_id.is_some_and(|last| id <= last) {
                return Err(RestoreError::SectionOrder { id });
            }
            last_id = Some(id);
            let len = d.u32()? as usize;
            let payload = d.bytes(len)?;
            let stored = d.u32()?;
            if crc32(payload) != stored {
                return Err(RestoreError::SectionCrc { id });
            }
            sections.push((id, payload));
        }
        d.finish()?;
        Ok(ImageView { sections })
    }

    /// Every section as `(id, payload)`, in ascending id order.
    pub fn sections(&self) -> &[(u32, &'a [u8])] {
        &self.sections
    }

    /// Borrows a section's payload, if present.
    pub fn section(&self, id: u32) -> Option<&'a [u8]> {
        self.sections
            .iter()
            .find(|(sid, _)| *sid == id)
            .map(|(_, p)| *p)
    }

    /// A decoder over a required section, or [`RestoreError::MissingSection`].
    pub fn require(&self, id: u32, name: &'static str) -> Result<Dec<'a>, RestoreError> {
        self.section(id)
            .map(|p| Dec::new(p, name))
            .ok_or(RestoreError::MissingSection { section: name })
    }
}

// ----- shared codecs for public x86sim types --------------------------------
//
// Layers above (the hosting kernel, Palladium, the fleet) serialize CPU
// contexts, descriptor tables and faults of their own; these helpers keep
// every image speaking one encoding.

/// Encodes a [`Descriptor`] structurally.
///
/// Structural, not via [`Descriptor::pack`]: packing is lossy for
/// byte-granular limits above 20 bits (the G-bit conversion), and a
/// checkpoint must round-trip the table the kernel actually holds.
pub fn put_descriptor(e: &mut Enc, d: &Descriptor) {
    match d {
        Descriptor::Null => e.u8(0),
        Descriptor::Code(c) => {
            e.u8(1);
            e.u32(c.base);
            e.u32(c.limit);
            e.u8(c.dpl);
            e.bool(c.readable);
            e.bool(c.conforming);
            e.bool(c.present);
        }
        Descriptor::Data(d) => {
            e.u8(2);
            e.u32(d.base);
            e.u32(d.limit);
            e.u8(d.dpl);
            e.bool(d.writable);
            e.bool(d.expand_down);
            e.bool(d.present);
        }
        Descriptor::Gate(g) => {
            e.u8(3);
            e.u16(g.selector.0);
            e.u32(g.offset);
            e.u8(g.dpl);
            e.u8(g.param_count);
            e.bool(g.present);
        }
    }
}

/// Decodes a [`Descriptor`] written by [`put_descriptor`].
pub fn get_descriptor(d: &mut Dec<'_>) -> Result<Descriptor, RestoreError> {
    Ok(match d.u8()? {
        0 => Descriptor::Null,
        1 => Descriptor::Code(CodeSeg {
            base: d.u32()?,
            limit: d.u32()?,
            dpl: d.u8()?,
            readable: d.bool()?,
            conforming: d.bool()?,
            present: d.bool()?,
        }),
        2 => Descriptor::Data(DataSeg {
            base: d.u32()?,
            limit: d.u32()?,
            dpl: d.u8()?,
            writable: d.bool()?,
            expand_down: d.bool()?,
            present: d.bool()?,
        }),
        3 => Descriptor::Gate(CallGate {
            selector: Selector(d.u16()?),
            offset: d.u32()?,
            dpl: d.u8()?,
            param_count: d.u8()?,
            present: d.bool()?,
        }),
        t => return Err(d.fail(format!("descriptor tag {t}"))),
    })
}

/// Encodes a whole [`DescriptorTable`] (including the null slot count).
pub fn put_descriptor_table(e: &mut Enc, t: &DescriptorTable) {
    e.u32(t.len() as u32);
    for i in 1..t.len() as u16 {
        put_descriptor(e, t.get(i).expect("index < len"));
    }
}

/// Decodes a [`DescriptorTable`] written by [`put_descriptor_table`].
pub fn get_descriptor_table(d: &mut Dec<'_>) -> Result<DescriptorTable, RestoreError> {
    let len = d.u32()? as usize;
    if len == 0 {
        return Err(d.fail("descriptor table without a null slot"));
    }
    let mut t = DescriptorTable::new();
    for _ in 1..len {
        let desc = get_descriptor(d)?;
        t.push(desc);
    }
    Ok(t)
}

/// Encodes a [`SegCache`] (the hidden half of a segment register).
pub fn put_seg_cache(e: &mut Enc, s: &SegCache) {
    e.u16(s.selector.0);
    e.bool(s.valid);
    e.u32(s.base);
    e.u32(s.limit);
    e.u8(s.dpl);
    e.bool(s.code);
    e.bool(s.writable);
    e.bool(s.readable);
    e.bool(s.expand_down);
    e.bool(s.conforming);
}

/// Decodes a [`SegCache`] written by [`put_seg_cache`].
pub fn get_seg_cache(d: &mut Dec<'_>) -> Result<SegCache, RestoreError> {
    Ok(SegCache {
        selector: Selector(d.u16()?),
        valid: d.bool()?,
        base: d.u32()?,
        limit: d.u32()?,
        dpl: d.u8()?,
        code: d.bool()?,
        writable: d.bool()?,
        readable: d.bool()?,
        expand_down: d.bool()?,
        conforming: d.bool()?,
    })
}

/// Encodes a full [`Cpu`] context.
pub fn put_cpu(e: &mut Enc, c: &Cpu) {
    for r in c.regs {
        e.u32(r);
    }
    e.u32(c.eip);
    e.bool(c.flags.cf);
    e.bool(c.flags.zf);
    e.bool(c.flags.sf);
    e.bool(c.flags.of);
    for s in &c.segs {
        put_seg_cache(e, s);
    }
    e.u8(c.cpl);
    e.u32(c.pkru);
}

/// Decodes a [`Cpu`] written by [`put_cpu`].
pub fn get_cpu(d: &mut Dec<'_>) -> Result<Cpu, RestoreError> {
    let mut regs = [0u32; 8];
    for r in &mut regs {
        *r = d.u32()?;
    }
    let eip = d.u32()?;
    let flags = Flags {
        cf: d.bool()?,
        zf: d.bool()?,
        sf: d.bool()?,
        of: d.bool()?,
    };
    let mut segs = [SegCache::invalid(); 4];
    for s in &mut segs {
        *s = get_seg_cache(d)?;
    }
    let cpl = d.u8()?;
    let pkru = d.u32()?;
    Ok(Cpu {
        regs,
        eip,
        flags,
        segs,
        cpl,
        pkru,
    })
}

/// Encodes a [`Fault`] (vector, error code, CR2, structured cause, site).
pub fn put_fault(e: &mut Enc, f: &Fault) {
    e.u8(f.vector.number());
    e.u32(f.error_code);
    match f.cr2 {
        Some(v) => {
            e.bool(true);
            e.u32(v);
        }
        None => e.bool(false),
    }
    match f.cause {
        FaultCause::LimitViolation { offset, limit } => {
            e.u8(0);
            e.u32(offset);
            e.u32(limit);
        }
        FaultCause::PrivilegeViolation { cpl, rpl, dpl } => {
            e.u8(1);
            e.u8(cpl);
            e.u8(rpl);
            e.u8(dpl);
        }
        FaultCause::BadSegmentType => e.u8(2),
        FaultCause::BadSelector(s) => {
            e.u8(3);
            e.u16(s);
        }
        FaultCause::SegmentNotPresent(s) => {
            e.u8(4);
            e.u16(s);
        }
        FaultCause::Page { linear, code } => {
            e.u8(5);
            e.u32(linear);
            e.u32(code);
        }
        FaultCause::PrivilegedInstruction => e.u8(6),
        FaultCause::BadInstruction => e.u8(7),
        FaultCause::Arithmetic => e.u8(8),
        FaultCause::BadTransfer => e.u8(9),
        FaultCause::KeyGateViolation { site } => {
            e.u8(10);
            e.u32(site);
        }
    }
    e.u32(f.eip);
    e.u16(f.cs);
    e.u8(f.cpl);
}

/// Decodes a [`Fault`] written by [`put_fault`].
pub fn get_fault(d: &mut Dec<'_>) -> Result<Fault, RestoreError> {
    let vector = match d.u8()? {
        0 => Vector::DivideError,
        6 => Vector::InvalidOpcode,
        11 => Vector::NotPresent,
        12 => Vector::StackFault,
        13 => Vector::GeneralProtection,
        14 => Vector::PageFault,
        v => return Err(d.fail(format!("fault vector {v}"))),
    };
    let error_code = d.u32()?;
    let cr2 = if d.bool()? { Some(d.u32()?) } else { None };
    let cause = match d.u8()? {
        0 => FaultCause::LimitViolation {
            offset: d.u32()?,
            limit: d.u32()?,
        },
        1 => FaultCause::PrivilegeViolation {
            cpl: d.u8()?,
            rpl: d.u8()?,
            dpl: d.u8()?,
        },
        2 => FaultCause::BadSegmentType,
        3 => FaultCause::BadSelector(d.u16()?),
        4 => FaultCause::SegmentNotPresent(d.u16()?),
        5 => FaultCause::Page {
            linear: d.u32()?,
            code: d.u32()?,
        },
        6 => FaultCause::PrivilegedInstruction,
        7 => FaultCause::BadInstruction,
        8 => FaultCause::Arithmetic,
        9 => FaultCause::BadTransfer,
        10 => FaultCause::KeyGateViolation { site: d.u32()? },
        t => return Err(d.fail(format!("fault cause tag {t}"))),
    };
    Ok(Fault {
        vector,
        error_code,
        cr2,
        cause,
        eip: d.u32()?,
        cs: d.u16()?,
        cpl: d.u8()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use seedrng::SeedRng;

    /// The CRC by its definition: eight shift/xor steps per byte, no
    /// table. [`crc32`] must agree with it on every input.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            }
        }
        !crc
    }

    fn seeded_bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut buf = vec![0u8; len];
        SeedRng::new(seed).fill_bytes(&mut buf);
        buf
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The standard IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bitwise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // The trailer the bytewise CRC gave the sample image: a change to
        // the CRC's output (or to the image layout) fails here.
        let img = sample_image();
        assert_eq!(img.len(), 65);
        assert_eq!(img[61..], 0x482F_64CAu32.to_le_bytes());
    }

    #[test]
    fn crc32_matches_the_bitwise_reference() {
        // Every length around the 16-byte chunk boundary, at every
        // alignment: chunk loop, tail, and both together.
        let buf = seeded_bytes(15, 16 + 64);
        for start in 0..16 {
            for len in 0..=64 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), crc32_bitwise(s), "start {start} len {len}");
            }
        }
        let big = seeded_bytes(16, 1 << 20);
        assert_eq!(crc32(&big), crc32_bitwise(&big));
    }

    fn sample_image() -> Vec<u8> {
        let mut b = ImageBuilder::new(kind::MACHINE);
        let mut e = Enc::new();
        e.u32(0xDEAD_BEEF);
        e.str("hello");
        b.section(1, e);
        let mut e = Enc::new();
        e.u64(42);
        b.section(7, e);
        b.finish()
    }

    #[test]
    fn image_roundtrip() {
        let img = sample_image();
        let v = ImageView::parse(&img, kind::MACHINE).unwrap();
        let mut d = v.require(1, "one").unwrap();
        assert_eq!(d.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.str().unwrap(), "hello");
        d.finish().unwrap();
        let mut d = v.require(7, "seven").unwrap();
        assert_eq!(d.u64().unwrap(), 42);
        assert!(v.section(2).is_none());
        assert!(matches!(
            v.require(2, "two"),
            Err(RestoreError::MissingSection { section: "two" })
        ));
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let img = sample_image();
        for byte in 0..img.len() {
            for bit in 0..8 {
                let mut bad = img.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    ImageView::parse(&bad, kind::MACHINE).is_err(),
                    "flip of byte {byte} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn bit_flips_in_a_large_section_fail_the_image_crc() {
        // A 4 KiB section keeps the CRC in its 16-byte chunk loop; the
        // flips cover every chunk lane, then seeded positions anywhere
        // past the magic, version and kind (which are typed apart).
        let mut b = ImageBuilder::new(kind::MACHINE);
        let mut e = Enc::new();
        e.u32(7);
        b.section(1, e);
        let mut e = Enc::new();
        e.bytes(&seeded_bytes(4, 4096 + 5));
        b.section(2, e);
        let img = b.finish();
        ImageView::parse(&img, kind::MACHINE).unwrap();

        // Header 16, section 1 (12 + 4), section 2's id and length.
        let payload = HEADER_LEN + 16 + 8;
        let mut bits: Vec<usize> = (8 * (payload + 1000)..8 * (payload + 1064)).collect();
        let mut r = SeedRng::new(4);
        bits.extend((0..256).map(|_| r.gen_range(8 * 12, 8 * img.len() as u32) as usize));
        for bit in bits {
            let mut bad = img.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert_eq!(
                ImageView::parse(&bad, kind::MACHINE).unwrap_err(),
                RestoreError::ImageCrc,
                "flip of byte {} bit {}",
                bit / 8,
                bit % 8
            );
        }
    }

    #[test]
    fn every_truncation_is_detected() {
        let img = sample_image();
        for len in 0..img.len() {
            assert!(
                ImageView::parse(&img[..len], kind::MACHINE).is_err(),
                "truncation to {len} bytes went undetected"
            );
        }
    }

    #[test]
    fn wrong_kind_and_version_are_typed() {
        let img = sample_image();
        assert_eq!(
            ImageView::parse(&img, kind::KERNEL).unwrap_err(),
            RestoreError::Kind {
                found: kind::MACHINE,
                expected: kind::KERNEL
            }
        );
        // A genuine future- or past-version image (correct trailer CRC)
        // is rejected on the version field, not the CRC; there is no
        // reader for any older version.
        for found in [VERSION + 1, VERSION - 1, 1] {
            let mut skewed = img.clone();
            skewed[4..8].copy_from_slice(&found.to_le_bytes());
            let n = skewed.len();
            let crc = crc32(&skewed[..n - 4]);
            skewed[n - 4..].copy_from_slice(&crc.to_le_bytes());
            assert_eq!(
                ImageView::parse(&skewed, kind::MACHINE).unwrap_err(),
                RestoreError::Version {
                    found,
                    supported: VERSION
                }
            );
        }
        assert_eq!(
            ImageView::parse(b"nope", kind::MACHINE).unwrap_err(),
            RestoreError::BadMagic
        );
    }

    #[test]
    fn transposed_sections_are_rejected() {
        // Build the same sections in descending order by hand: re-parse
        // the good image, then rebuild with swapped section blocks and a
        // recomputed trailer CRC (so only the order is wrong).
        let img = sample_image();
        let v = ImageView::parse(&img, kind::MACHINE).unwrap();
        let s1 = v.section(1).unwrap().to_vec();
        let s7 = v.section(7).unwrap().to_vec();
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&kind::MACHINE.to_le_bytes());
        out.extend_from_slice(&2u32.to_le_bytes());
        for (id, payload) in [(7u32, &s7), (1u32, &s1)] {
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            out.extend_from_slice(payload);
            out.extend_from_slice(&crc32(payload).to_le_bytes());
        }
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        assert_eq!(
            ImageView::parse(&out, kind::MACHINE).unwrap_err(),
            RestoreError::SectionOrder { id: 1 }
        );
    }

    #[test]
    fn image_crc_is_checked_before_the_section_count() {
        let img = sample_image();
        let mut hostile = img.clone();
        hostile[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            ImageView::parse(&hostile, kind::MACHINE).unwrap_err(),
            RestoreError::ImageCrc
        );
        // With the trailer recomputed the count is reached, and bounded.
        let n = hostile.len();
        let crc = crc32(&hostile[..n - 4]);
        hostile[n - 4..].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(
            ImageView::parse(&hostile, kind::MACHINE).unwrap_err(),
            RestoreError::Truncated {
                section: "section table"
            }
        );
    }

    #[test]
    fn torn_suffix_is_rejected() {
        let mut img = sample_image();
        let n = img.len();
        for b in &mut img[n - 12..] {
            *b = 0;
        }
        assert!(ImageView::parse(&img, kind::MACHINE).is_err());
    }

    #[test]
    fn payload_decoders_are_bounds_checked() {
        let mut e = Enc::new();
        e.u32(7);
        let payload = e.into_vec();
        let mut d = Dec::new(&payload, "t");
        assert_eq!(d.u32().unwrap(), 7);
        assert!(matches!(d.u8(), Err(RestoreError::Truncated { .. })));

        // Trailing bytes are rejected.
        let mut d = Dec::new(&payload, "t");
        assert_eq!(d.u16().unwrap(), 7);
        assert!(matches!(
            d.finish(),
            Err(RestoreError::TrailingBytes { .. })
        ));

        // Bad bool bytes are malformed, not coerced.
        let mut d = Dec::new(&[2u8], "t");
        assert!(matches!(d.bool(), Err(RestoreError::Malformed { .. })));

        // A count is bounded by the bytes left, before anything is sized
        // by it.
        let mut e = Enc::new();
        e.u32(2);
        e.u32(10);
        e.u32(20);
        let payload = e.into_vec();
        assert_eq!(Dec::new(&payload, "t").count(4).unwrap(), 2);
        assert!(matches!(
            Dec::new(&payload, "t").count(5),
            Err(RestoreError::Truncated { section: "t" })
        ));
        let huge = u32::MAX.to_le_bytes();
        assert!(Dec::new(&huge, "t").count(1).is_err());
    }

    #[test]
    fn descriptor_codec_roundtrips_losslessly() {
        // A byte-granular limit above 20 bits — exactly what pack() loses.
        let lossy = Descriptor::Code(CodeSeg {
            base: 0xC010_0000,
            limit: 0x0012_3456,
            dpl: 1,
            readable: true,
            conforming: false,
            present: true,
        });
        let all = [
            Descriptor::Null,
            lossy,
            Descriptor::flat_data(3),
            Descriptor::call_gate(Selector(0x2B), 0xDEAD_BEEF, 3),
        ];
        let mut t = DescriptorTable::new();
        for d in &all {
            t.push(*d);
        }
        let mut e = Enc::new();
        put_descriptor_table(&mut e, &t);
        let payload = e.into_vec();
        let mut d = Dec::new(&payload, "gdt");
        let back = get_descriptor_table(&mut d).unwrap();
        d.finish().unwrap();
        assert_eq!(back.len(), t.len());
        for i in 0..t.len() as u16 {
            assert_eq!(back.get(i), t.get(i));
        }
    }

    #[test]
    fn fault_codec_roundtrips_every_cause() {
        use crate::fault::pf_err;
        let causes = [
            FaultCause::LimitViolation {
                offset: 1,
                limit: 2,
            },
            FaultCause::PrivilegeViolation {
                cpl: 3,
                rpl: 2,
                dpl: 1,
            },
            FaultCause::BadSegmentType,
            FaultCause::BadSelector(0x2B),
            FaultCause::SegmentNotPresent(0x33),
            FaultCause::Page {
                linear: 0xC000_0000,
                code: pf_err::PRESENT | pf_err::USER,
            },
            FaultCause::Page {
                linear: 0x0900_0000,
                code: pf_err::PRESENT | pf_err::USER | pf_err::PKEY,
            },
            FaultCause::PrivilegedInstruction,
            FaultCause::KeyGateViolation { site: 0x0804_8010 },
            FaultCause::BadInstruction,
            FaultCause::Arithmetic,
            FaultCause::BadTransfer,
        ];
        for cause in causes {
            let f = Fault {
                vector: Vector::GeneralProtection,
                error_code: 0x18,
                cr2: Some(0x1234),
                cause,
                eip: 0x0804_8000,
                cs: 0x1B,
                cpl: 3,
            };
            let mut e = Enc::new();
            put_fault(&mut e, &f);
            let payload = e.into_vec();
            let mut d = Dec::new(&payload, "fault");
            assert_eq!(get_fault(&mut d).unwrap(), f);
            d.finish().unwrap();
        }
    }
}
