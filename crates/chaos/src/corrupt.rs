//! Corruption of loader inputs.
//!
//! The dynamic loaders (`seg_dlopen`, `insmod`) are attack surface: a
//! hostile or damaged object file must produce a structured link error
//! or a contained runtime fault — never a host panic and never code that
//! escapes its domain. These generators produce the damaged inputs:
//! truncated images, garbled instruction streams, and relocations whose
//! resolved addresses overflow the extension's region.
//!
//! Checkpoint images are attack surface too: a restore path that trusts
//! bytes from disk would turn a torn write or a flipped bit into silent
//! state corruption. [`corrupted_image`] damages a valid world image in
//! each of the ways real storage fails — bit rot, truncation, torn
//! writes, block transposition, stale format versions — so the oracle
//! can assert every one is rejected with a typed error.
//! [`hostile_writer_image`] goes for the restore gate itself: an absurd
//! value under a valid trailer, the bytes a buggy or malicious writer
//! would produce.

use asm86::{CodeBuilder, Object, Reloc, RelocKind};
use seedrng::SeedRng;
use x86sim::image::{ImageBuilder, ImageView};

use crate::gen;

/// How an object was damaged (stable tags for the event log).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corruption {
    /// The image is a prefix of a valid extension, cut mid-instruction.
    Truncated,
    /// Random bytes overwrote part of a valid extension image.
    Garbled,
    /// A relocation aims far outside the extension's address range.
    RelocOverflow,
    /// The "code" never was code: pure random bytes.
    Garbage,
}

impl Corruption {
    /// Stable tag for deterministic event logs.
    pub fn tag(self) -> &'static str {
        match self {
            Corruption::Truncated => "truncated",
            Corruption::Garbled => "garbled",
            Corruption::RelocOverflow => "reloc-overflow",
            Corruption::Garbage => "garbage",
        }
    }
}

/// Wraps raw bytes as a loadable object exporting `entry` — how a
/// damaged image re-enters the loader.
fn bytes_object(data: &[u8]) -> Object {
    let mut b = CodeBuilder::new();
    b.label("entry").unwrap();
    b.bytes(data);
    b.finish().unwrap()
}

/// A randomly corrupted extension object plus how it was damaged. The
/// loader may reject it (link error) or load it; if loaded, running it
/// must stay contained like any other extension.
pub fn corrupted_object(r: &mut SeedRng) -> (Corruption, Object) {
    let kind = match r.gen_range(0, 4) {
        0 => Corruption::Truncated,
        1 => Corruption::Garbled,
        2 => Corruption::RelocOverflow,
        _ => Corruption::Garbage,
    };
    let obj = match kind {
        Corruption::Truncated => {
            let whole = gen::user_ext_object(r);
            let image = whole.link(0, &Default::default()).unwrap_or_default();
            let n = if image.is_empty() {
                0
            } else {
                r.gen_range(0, image.len() as u32) as usize
            };
            bytes_object(&image[..n])
        }
        Corruption::Garbled => {
            let whole = gen::user_ext_object(r);
            let mut image = whole.link(0, &Default::default()).unwrap_or_default();
            if image.is_empty() {
                image = vec![0x90; 8];
            }
            for _ in 0..1 + r.gen_range(0, 6) {
                let at = r.gen_range(0, image.len() as u32) as usize;
                image[at] = r.next_u32() as u8;
            }
            bytes_object(&image)
        }
        Corruption::RelocOverflow => {
            // An absolute-word relocation patched with an offset far past
            // the end of the code: `entry` jumps through a pointer whose
            // resolved value lands way outside the extension region.
            let mut b = CodeBuilder::new();
            b.label("entry").unwrap();
            b.jmpm_label("slot", 0);
            b.align(4);
            b.label("slot").unwrap();
            b.dword_label("entry", (0x1000_0000 + r.gen_range(0, 0x1000_0000)) as i32);
            b.finish().unwrap()
        }
        Corruption::Garbage => {
            let mut data = vec![0u8; 4 + r.gen_range(0, 60) as usize];
            r.fill_bytes(&mut data);
            bytes_object(&data)
        }
    };
    (kind, obj)
}

/// An object carrying a relocation whose *site* (not just target) is out
/// of range — the link step itself must reject it with a structured
/// error rather than writing out of bounds.
pub fn bad_reloc_site_object() -> Object {
    let mut b = CodeBuilder::new();
    b.label("entry").unwrap();
    b.bytes(&[0x90, 0x90, 0x90, 0x90]);
    b.raw_reloc(Reloc {
        offset: 0xFFFF_FFF0,
        sym: "entry".to_string(),
        addend: 0,
        kind: RelocKind::Abs32,
    });
    b.finish().unwrap()
}

/// How a checkpoint image was damaged (stable tags for the event log).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ImageCorruption {
    /// One random bit flipped anywhere in the image (bit rot).
    BitFlip,
    /// The image cut short at a random point (partial write / lost tail).
    Truncate,
    /// A torn write: a 64-byte block overwritten with stale bytes from
    /// elsewhere in the image.
    TornWrite,
    /// Two interior 32-byte blocks transposed (misordered scatter write).
    SectionSwap,
    /// The format-version word rewritten to an unsupported value, with
    /// the trailing whole-image CRC recomputed so the *version* check —
    /// not the integrity check — must catch it.
    VersionSkew,
}

impl ImageCorruption {
    /// Stable tag for deterministic event logs.
    pub fn tag(self) -> &'static str {
        match self {
            ImageCorruption::BitFlip => "bit-flip",
            ImageCorruption::Truncate => "truncate",
            ImageCorruption::TornWrite => "torn-write",
            ImageCorruption::SectionSwap => "section-swap",
            ImageCorruption::VersionSkew => "version-skew",
        }
    }

    /// All corruption classes, for exhaustive rejection matrices.
    pub const ALL: [ImageCorruption; 5] = [
        ImageCorruption::BitFlip,
        ImageCorruption::Truncate,
        ImageCorruption::TornWrite,
        ImageCorruption::SectionSwap,
        ImageCorruption::VersionSkew,
    ];
}

/// Applies `kind` to a copy of a valid checkpoint image. The result is
/// guaranteed to differ from the input (the damage never no-ops), so a
/// restore that accepts it has provably skipped an integrity check.
pub fn corrupt_image(image: &[u8], kind: ImageCorruption, r: &mut SeedRng) -> Vec<u8> {
    let mut bad = image.to_vec();
    match kind {
        ImageCorruption::BitFlip => {
            let bit = r.gen_range(0, (bad.len() * 8) as u32) as usize;
            bad[bit / 8] ^= 1 << (bit % 8);
        }
        ImageCorruption::Truncate => {
            let keep = r.gen_range(0, bad.len() as u32) as usize;
            bad.truncate(keep);
        }
        ImageCorruption::TornWrite => {
            // Overwrite one block with a copy of another; retry the draw
            // until the blocks actually differ.
            let len = bad.len().clamp(1, 64);
            loop {
                let dst = r.gen_range(0, (bad.len() - len + 1) as u32) as usize;
                let srcb = r.gen_range(0, (bad.len() - len + 1) as u32) as usize;
                if bad[dst..dst + len] != bad[srcb..srcb + len] {
                    let stale = bad[srcb..srcb + len].to_vec();
                    bad[dst..dst + len].copy_from_slice(&stale);
                    break;
                }
                // A fully uniform image can't be torn distinguishably;
                // flip a bit instead so the damage is still real.
                if bad.iter().all(|&b| b == bad[0]) {
                    bad[0] ^= 1;
                    break;
                }
            }
        }
        ImageCorruption::SectionSwap => {
            let len = (bad.len() / 2).clamp(1, 32);
            loop {
                let a = r.gen_range(0, (bad.len() - len + 1) as u32) as usize;
                let b = r.gen_range(0, (bad.len() - len + 1) as u32) as usize;
                let (lo, hi) = (a.min(b), a.max(b));
                if lo + len <= hi && bad[lo..lo + len] != bad[hi..hi + len] {
                    let tmp = bad[lo..lo + len].to_vec();
                    let hi_block = bad[hi..hi + len].to_vec();
                    bad[lo..lo + len].copy_from_slice(&hi_block);
                    bad[hi..hi + len].copy_from_slice(&tmp);
                    break;
                }
                if bad.iter().all(|&b| b == bad[0]) || bad.len() < 2 * len {
                    bad[0] ^= 1;
                    break;
                }
            }
        }
        ImageCorruption::VersionSkew => {
            // The version word sits right after the 4-byte magic; write a
            // future version and recompute the trailing CRC so only the
            // version check can reject it.
            if bad.len() >= 12 {
                let skew = 0xDEAD_0000u32 | (1 + r.gen_range(0, 1000));
                bad[4..8].copy_from_slice(&skew.to_le_bytes());
                let body = bad.len() - 4;
                let crc = x86sim::image::crc32(&bad[..body]);
                bad[body..].copy_from_slice(&crc.to_le_bytes());
            } else {
                bad.push(0);
            }
        }
    }
    bad
}

/// A random corruption class applied to `image` — how a damaged
/// checkpoint re-enters the restore path mid-campaign.
pub fn corrupted_image(image: &[u8], r: &mut SeedRng) -> (ImageCorruption, Vec<u8>) {
    let kind = *r.choose(&ImageCorruption::ALL);
    (kind, corrupt_image(image, kind, r))
}

/// Re-emits `image` (of image kind `kind`) through a fresh
/// [`ImageBuilder`] with the u32 at byte `at` of section `id` replaced by
/// `value`: a hostile writer with a valid trailer, so only the payload
/// decoders stand between the value and the restored world.
///
/// # Panics
///
/// If `image` does not parse as `kind`, lacks section `id`, or the
/// section is shorter than `at + 4` bytes — the input must be a pristine
/// image this generator damages, not already-untrusted bytes.
pub fn with_hostile_word(image: &[u8], kind: u32, id: u32, at: usize, value: u32) -> Vec<u8> {
    let v = ImageView::parse(image, kind).expect("pristine image");
    assert!(v.section(id).is_some(), "section {id:#x} absent");
    let mut b = ImageBuilder::new(kind);
    for &(sid, payload) in v.sections() {
        b.section(sid, |e| {
            if sid == id {
                e.bytes(&payload[..at]);
                e.u32(value);
                e.bytes(&payload[at + 4..]);
            } else {
                e.bytes(payload);
            }
        });
    }
    b.finish()
}

/// A seeded hostile-writer image: one section of `image`, one
/// 4-byte-aligned offset in its payload and one value, chosen by `r`,
/// rewritten by [`with_hostile_word`]. The value is the largest count
/// (`u32::MAX`), an empty count or length (0), a sign bit
/// (`0x8000_0000`), or a length one byte longer than what is left of
/// the section after the word. Returns the section id, the offset, the
/// value and the image.
///
/// Deliberately not an [`ImageCorruption`] class: the trailer is valid
/// and the value may be legal where it lands (a counter, a register), so
/// such an image may restore. The contract is weaker than
/// [`ImageCorruption::ALL`]'s rejection: restore returns `Ok` or a typed
/// error, never a panic or an unbounded allocation.
///
/// # Panics
///
/// If `image` does not parse as `kind` or has no section of 4 or more
/// bytes.
pub fn hostile_writer_image(
    image: &[u8],
    kind: u32,
    r: &mut SeedRng,
) -> (u32, usize, u32, Vec<u8>) {
    let v = ImageView::parse(image, kind).expect("pristine image");
    let sections: Vec<(u32, usize)> = v
        .sections()
        .iter()
        .filter(|(_, p)| p.len() >= 4)
        .map(|&(id, p)| (id, p.len()))
        .collect();
    let &(id, len) = r.choose(&sections);
    let at = 4 * r.gen_range(0, (len / 4) as u32) as usize;
    let overrun = (len - at - 4 + 1) as u32;
    let value = *r.choose(&[u32::MAX, 0, 0x8000_0000, overrun]);
    (id, at, value, with_hostile_word(image, kind, id, at, value))
}
