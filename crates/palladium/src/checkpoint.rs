//! Shared codec helpers for durable checkpoints of the Palladium
//! runtime state (extension tables, supervisors, module images).
//!
//! The wire format and integrity machinery live in [`x86sim::image`];
//! this module only provides `put_*`/`get_*` pairs for the composite
//! types the runtime layers serialize. Every decoder is bounds-checked
//! and rejects malformed payloads with a typed
//! [`RestoreError`](x86sim::image::RestoreError) — a corrupted image is
//! never silently restored.

use std::collections::BTreeMap;

use asm86::obj::{Reloc, RelocKind};
use asm86::Object;
use verifier::{Attestation, BlockProof, ProofMap};
use x86sim::image::{Dec, Enc, RestoreError};

pub(crate) fn put_opt_u32(e: &mut Enc, v: Option<u32>) {
    e.bool(v.is_some());
    if let Some(v) = v {
        e.u32(v);
    }
}

pub(crate) fn get_opt_u32(d: &mut Dec) -> Result<Option<u32>, RestoreError> {
    Ok(if d.bool()? { Some(d.u32()?) } else { None })
}

pub(crate) fn put_opt_pair(e: &mut Enc, v: Option<(u32, u32)>) {
    e.bool(v.is_some());
    if let Some((a, b)) = v {
        e.u32(a);
        e.u32(b);
    }
}

pub(crate) fn get_opt_pair(d: &mut Dec) -> Result<Option<(u32, u32)>, RestoreError> {
    Ok(if d.bool()? {
        Some((d.u32()?, d.u32()?))
    } else {
        None
    })
}

pub(crate) fn put_opt_str(e: &mut Enc, v: Option<&str>) {
    e.bool(v.is_some());
    if let Some(s) = v {
        e.str(s);
    }
}

pub(crate) fn get_opt_str(d: &mut Dec) -> Result<Option<String>, RestoreError> {
    Ok(if d.bool()? { Some(d.str()?) } else { None })
}

pub(crate) fn put_str_vec(e: &mut Enc, v: &[String]) {
    e.u32(v.len() as u32);
    for s in v {
        e.str(s);
    }
}

pub(crate) fn get_str_vec(d: &mut Dec) -> Result<Vec<String>, RestoreError> {
    let n = d.count(4)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(d.str()?);
    }
    Ok(out)
}

pub(crate) fn put_str_u32_map(e: &mut Enc, m: &BTreeMap<String, u32>) {
    e.u32(m.len() as u32);
    for (k, v) in m {
        e.str(k);
        e.u32(*v);
    }
}

pub(crate) fn get_str_u32_map(d: &mut Dec) -> Result<BTreeMap<String, u32>, RestoreError> {
    let n = d.u32()?;
    let mut out = BTreeMap::new();
    for _ in 0..n {
        let k = d.str()?;
        let v = d.u32()?;
        out.insert(k, v);
    }
    Ok(out)
}

fn put_block_proof(e: &mut Enc, p: &BlockProof) {
    e.u32(p.start);
    e.u32(p.len);
    put_opt_pair(e, p.ds_bounds);
    e.bool(p.ds_loads);
    e.bool(p.ds_stores);
}

fn get_block_proof(d: &mut Dec) -> Result<BlockProof, RestoreError> {
    Ok(BlockProof {
        start: d.u32()?,
        len: d.u32()?,
        ds_bounds: get_opt_pair(d)?,
        ds_loads: d.bool()?,
        ds_stores: d.bool()?,
    })
}

pub(crate) fn put_proof_map(e: &mut Enc, m: &ProofMap) {
    e.u32(m.blocks.len() as u32);
    for (k, p) in &m.blocks {
        e.u32(*k);
        put_block_proof(e, p);
    }
}

pub(crate) fn get_proof_map(d: &mut Dec) -> Result<ProofMap, RestoreError> {
    let n = d.u32()?;
    let mut m = ProofMap::default();
    for _ in 0..n {
        let k = d.u32()?;
        let p = get_block_proof(d)?;
        m.blocks.insert(k, p);
    }
    Ok(m)
}

/// Rejects `proofs` if a block, loaded at linear address `load`, would
/// end past the top of the address space: reinstalling proof tokens
/// after a restore adds the block offsets to the load address unchecked.
pub(crate) fn check_proofs_fit(d: &Dec, load: u64, proofs: &ProofMap) -> Result<(), RestoreError> {
    let end = |p: &BlockProof| load + u64::from(p.start) + u64::from(p.len);
    if proofs.blocks.values().any(|p| end(p) > u64::from(u32::MAX)) {
        return Err(d.fail("proof block ends past the address space"));
    }
    Ok(())
}

pub(crate) fn put_attestation(e: &mut Enc, a: &Attestation) {
    for v in [
        a.entries,
        a.insns,
        a.blocks,
        a.memory_checks,
        a.proven_accesses,
        a.unknown_accesses,
        a.external_transfers,
        a.resolved_indirect,
    ] {
        e.u32(v);
    }
    put_proof_map(e, &a.proofs);
}

pub(crate) fn get_attestation(d: &mut Dec) -> Result<Attestation, RestoreError> {
    Ok(Attestation {
        entries: d.u32()?,
        insns: d.u32()?,
        blocks: d.u32()?,
        memory_checks: d.u32()?,
        proven_accesses: d.u32()?,
        unknown_accesses: d.u32()?,
        external_transfers: d.u32()?,
        resolved_indirect: d.u32()?,
        proofs: get_proof_map(d)?,
    })
}

pub(crate) fn put_opt_attestation(e: &mut Enc, a: Option<&Attestation>) {
    e.bool(a.is_some());
    if let Some(a) = a {
        put_attestation(e, a);
    }
}

pub(crate) fn get_opt_attestation(d: &mut Dec) -> Result<Option<Attestation>, RestoreError> {
    Ok(if d.bool()? {
        Some(get_attestation(d)?)
    } else {
        None
    })
}

pub(crate) fn put_object(e: &mut Enc, o: &Object) {
    e.blob(&o.bytes);
    put_str_u32_map(e, &o.symbols);
    put_str_u32_map(e, &o.abs_symbols);
    e.u32(o.relocs.len() as u32);
    for r in &o.relocs {
        e.u32(r.offset);
        e.str(&r.sym);
        e.i32(r.addend);
        e.u8(match r.kind {
            RelocKind::Abs32 => 0,
            RelocKind::Rel32 => 1,
        });
    }
}

pub(crate) fn get_object(d: &mut Dec) -> Result<Object, RestoreError> {
    let bytes = d.blob()?.to_vec();
    let symbols = get_str_u32_map(d)?;
    let abs_symbols = get_str_u32_map(d)?;
    let nrelocs = d.count(13)?;
    let mut relocs = Vec::with_capacity(nrelocs);
    for _ in 0..nrelocs {
        let offset = d.u32()?;
        let sym = d.str()?;
        let addend = d.i32()?;
        let kind = match d.u8()? {
            0 => RelocKind::Abs32,
            1 => RelocKind::Rel32,
            _ => return Err(d.fail("bad reloc kind")),
        };
        relocs.push(Reloc {
            offset,
            sym,
            addend,
            kind,
        });
    }
    Ok(Object {
        bytes,
        symbols,
        abs_symbols,
        relocs,
    })
}
