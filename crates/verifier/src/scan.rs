//! The verification scan: interval fixpoint, per-instruction checks, and
//! proof extraction.
//!
//! The fixpoint is loop-aware. Out-states are computed *per edge*: a
//! block ending in `cmp r, c` / `jcc` refines `r`'s interval on its
//! taken and fall-through edges ([`crate::interval::refine_edge`]).
//! Widening to top happens only at retreating-edge targets (every cycle
//! has one), after [`WIDEN_AFTER`] joins; two descending narrowing
//! passes then re-apply the transfer functions without widening, which
//! recovers the refined loop bounds the widening threw away. Narrowing
//! from a post-fixpoint stays above the least fixpoint, so every final
//! state still over-approximates the concrete reachable states — the
//! one-sidedness of the whole verifier is preserved.

use std::collections::{BTreeMap, VecDeque};

use asm86::disasm::{branch_target, Block, Cfg, CfgError};
use asm86::isa::{Insn, Mem, Src};

use crate::interval::{
    access_width, contained, ds_accesses, mem_interval, mnemonic, overlaps, refine_edge, transfer,
    AbsState,
};
use crate::policy::{VerifyError, VerifyPolicy};
use crate::proofs::{self, BlockProof, Order};
use crate::Attestation;

/// How many times a widening point's in-state may change before it is
/// widened to top; bounds the interval fixpoint on loops.
const WIDEN_AFTER: u32 = 8;

/// Descending narrowing passes run after the ascending fixpoint.
const NARROW_PASSES: u32 = 2;

/// How many CFG-rebuild rounds resolved indirect targets may trigger.
const MAX_ROUNDS: u32 = 64;

/// Computes a block's out-state per successor edge, applying
/// branch-condition refinement on conditional exits.
fn out_edges(block: &Block, in_state: AbsState) -> Vec<(u32, AbsState)> {
    let mut state = in_state;
    for line in &block.insns {
        transfer(&line.insn, &mut state);
    }
    let count = block.insns.len();
    if count >= 2 {
        let last = &block.insns[count - 1];
        if let (Insn::Cmp(reg, src), Insn::Jcc(cond, _)) =
            (&block.insns[count - 2].insn, &last.insn)
        {
            // The compared constant: an immediate, or a register the
            // analysis pinned to a single value.
            let cmp_c = match *src {
                Src::Imm(imm) => Some(imm as u32),
                Src::Reg(other) => match state.get(other) {
                    Some((lo, hi)) if lo == hi => Some(lo),
                    _ => None,
                },
            };
            let taken = branch_target(last).and_then(|t| u32::try_from(t).ok());
            let fall = block.end;
            if let (Some(cmp_c), Some(taken)) = (cmp_c, taken) {
                if taken != fall {
                    return block
                        .succs
                        .iter()
                        .map(|&succ| {
                            let mut edge = state;
                            if succ == taken {
                                refine_edge(&mut edge, *reg, cmp_c, *cond, true);
                            } else if succ == fall {
                                refine_edge(&mut edge, *reg, cmp_c, *cond, false);
                            }
                            (succ, edge)
                        })
                        .collect();
                }
            }
        }
    }
    block.succs.iter().map(|&succ| (succ, state)).collect()
}

pub(crate) struct Analysis<'a> {
    pub(crate) image: &'a [u8],
    pub(crate) policy: &'a VerifyPolicy,
    /// Data ranges including the image itself.
    pub(crate) data: Vec<(u32, u32)>,
    pub(crate) stats: Attestation,
}

impl Analysis<'_> {
    fn image_range(&self) -> (u32, u32) {
        let lo = self.policy.load_addr;
        (lo, lo.wrapping_add(self.image.len() as u32))
    }

    fn in_image_code(&self, addr: u32) -> bool {
        let (lo, hi) = self.image_range();
        addr >= lo && addr < hi
    }

    /// Loop-aware interval fixpoint over the CFG's blocks; returns each
    /// block's in-state.
    ///
    /// Ascending phase: worklist with per-edge refinement, widening to
    /// top only at retreating-edge targets after [`WIDEN_AFTER`] joins.
    /// Descending phase: [`NARROW_PASSES`] rounds re-deriving each
    /// non-entry block's in-state from its predecessors' refined
    /// out-edges, which restores bounds like `[0, limit-1]` at loop
    /// headers. Entry blocks stay pinned at top (callers are unknown).
    fn fixpoint(cfg: &Cfg, entries: &[u32], ord: &Order) -> BTreeMap<u32, AbsState> {
        let mut ins: BTreeMap<u32, AbsState> = BTreeMap::new();
        let mut visits: BTreeMap<u32, u32> = BTreeMap::new();
        let mut work: VecDeque<u32> = VecDeque::new();
        for &e in entries {
            ins.insert(e, AbsState::TOP);
            work.push_back(e);
        }
        while let Some(b) = work.pop_front() {
            let Some(block) = cfg.blocks.get(&b) else {
                continue;
            };
            let s_in = ins[&b];
            for (succ, out) in out_edges(block, s_in) {
                if !cfg.blocks.contains_key(&succ) {
                    continue;
                }
                if let Some(existing) = ins.get_mut(&succ) {
                    if existing.join(&out) {
                        if ord.retreat_targets.contains(&succ) {
                            let v = visits.entry(succ).or_insert(0);
                            *v += 1;
                            if *v > WIDEN_AFTER {
                                *existing = AbsState::TOP;
                            }
                        }
                        work.push_back(succ);
                    }
                } else {
                    ins.insert(succ, out);
                    work.push_back(succ);
                }
            }
        }

        // Descending narrowing. Every state in `ins` is a post-fixpoint
        // (>= lfp); re-applying the monotone edge functions keeps each
        // state >= lfp while shrinking the widened ones.
        for _ in 0..NARROW_PASSES {
            for &b in &ord.rpo {
                if entries.contains(&b) {
                    continue;
                }
                let mut acc: Option<AbsState> = None;
                for &p in ord.preds.get(&b).map_or(&[][..], |v| v.as_slice()) {
                    let Some(&p_in) = ins.get(&p) else { continue };
                    let Some(pb) = cfg.blocks.get(&p) else {
                        continue;
                    };
                    for (succ, out) in out_edges(pb, p_in) {
                        if succ != b {
                            continue;
                        }
                        match acc.as_mut() {
                            None => acc = Some(out),
                            Some(a) => {
                                a.join(&out);
                            }
                        }
                    }
                }
                if let Some(a) = acc {
                    ins.insert(b, a);
                }
            }
        }
        ins
    }

    fn check_access(
        &mut self,
        offset: u32,
        insn: &Insn,
        m: Mem,
        s: &AbsState,
    ) -> Result<(), VerifyError> {
        self.stats.memory_checks += 1;
        let Some((lo, hi)) = mem_interval(m, s) else {
            self.stats.unknown_accesses += 1;
            return Ok(());
        };
        let hi = hi.saturating_add(access_width(insn) - 1);
        if contained(&self.data, lo, hi) {
            self.stats.proven_accesses += 1;
            Ok(())
        } else if overlaps(&self.data, lo, hi) {
            // Partially coverable: not provably wrong, hardware decides.
            self.stats.unknown_accesses += 1;
            Ok(())
        } else {
            Err(VerifyError::OutOfSegment { offset, lo, hi })
        }
    }

    /// True if some reachable instruction writes the 4-byte slot at
    /// `addr` through a constant address (the `pop [slot]` of the
    /// service-stub return-linkage pattern).
    fn slot_written(cfg: &Cfg, addr: u32) -> bool {
        cfg.lines.values().any(|l| match l.insn {
            Insn::PopM(m) | Insn::Store(m, _) => {
                m.base.is_none() && m.seg.is_none() && m.disp as u32 == addr
            }
            _ => false,
        })
    }

    /// Validates a resolved indirect target address; in-image targets not
    /// yet traversed are pushed onto `pending`.
    fn check_indirect_target(
        &mut self,
        offset: u32,
        value: u32,
        cfg: &Cfg,
        pending: &mut Vec<u32>,
    ) -> Result<(), VerifyError> {
        if self.in_image_code(value) {
            let toff = value - self.policy.load_addr;
            if !cfg.lines.contains_key(&toff) {
                pending.push(toff);
            }
            self.stats.resolved_indirect += 1;
            Ok(())
        } else if overlaps(&self.policy.code, value, value) {
            self.stats.resolved_indirect += 1;
            Ok(())
        } else {
            Err(VerifyError::BadIndirectTarget { offset, value })
        }
    }

    fn check_insn(
        &mut self,
        offset: u32,
        insn: &Insn,
        s: &AbsState,
        cfg: &Cfg,
        pending: &mut Vec<u32>,
    ) -> Result<(), VerifyError> {
        // (2) privileged / reserved instructions.
        match insn {
            Insn::Hlt
            | Insn::MovToSeg(..)
            | Insn::PopSeg(_)
            | Insn::Iret
            | Insn::Lret
            | Insn::LretN(_)
            // `wrpkru` is reserved to loader-planted gate sites: an
            // extension carrying its own would grant itself key rights
            // (it would fault at run time anyway — reject it up front).
            | Insn::Wrpkru(..) => {
                return Err(VerifyError::Privileged {
                    offset,
                    mnemonic: mnemonic(insn),
                });
            }
            Insn::Int(v) if !self.policy.vectors.contains(v) => {
                return Err(VerifyError::ForbiddenVector { offset, vector: *v });
            }
            Insn::Lcall(sel, _) if !self.policy.gates.contains(sel) => {
                return Err(VerifyError::ForbiddenGate {
                    offset,
                    selector: *sel,
                });
            }
            _ => {}
        }
        // (3) memory accesses.
        match insn {
            Insn::Load(_, m)
            | Insn::Store(m, _)
            | Insn::LoadB(_, m)
            | Insn::StoreB(m, _)
            | Insn::LoadW(_, m)
            | Insn::StoreW(m, _)
            | Insn::PushM(m)
            | Insn::PopM(m)
            | Insn::AluM(_, _, m)
            | Insn::CmpM(m, _) => self.check_access(offset, insn, *m, s)?,
            _ => {}
        }
        // (4) indirect control transfers.
        match insn {
            Insn::JmpReg(r) | Insn::CallReg(r) => match s.get(*r) {
                Some((t, h)) if t == h => self.check_indirect_target(offset, t, cfg, pending)?,
                _ => return Err(VerifyError::IndirectUnresolved { offset }),
            },
            Insn::JmpM(m) | Insn::CallM(m) => match mem_interval(*m, s) {
                Some((a, b)) if a == b => {
                    let (ilo, ihi) = self.image_range();
                    if a >= ilo && a.wrapping_add(4) <= ihi {
                        // Slot inside the image: judge its linked contents.
                        let so = (a - ilo) as usize;
                        let value =
                            u32::from_le_bytes(self.image[so..so + 4].try_into().expect("4 bytes"));
                        if value == 0 && Self::slot_written(cfg, a) {
                            // Dispatch slot filled at run time by a
                            // reachable `pop [slot]`; the stored value is
                            // a return address inside the image.
                            self.stats.resolved_indirect += 1;
                        } else {
                            self.check_indirect_target(offset, value, cfg, pending)?;
                        }
                    } else if contained(&self.policy.slots, a, a.saturating_add(3)) {
                        // Loader-sealed slot (GOT): contents trusted.
                        self.stats.resolved_indirect += 1;
                    } else {
                        return Err(VerifyError::IndirectUnresolved { offset });
                    }
                }
                _ => return Err(VerifyError::IndirectUnresolved { offset }),
            },
            _ => {}
        }
        Ok(())
    }

    /// Extracts the proven DS facts for one block under its final
    /// in-state.
    fn block_proof(&self, block: &Block, in_state: AbsState) -> BlockProof {
        let mut s = in_state;
        let mut seen = false;
        let mut all_proven = true;
        let (mut lo, mut hi) = (u32::MAX, 0u32);
        let (mut loads, mut stores) = (false, false);
        for line in &block.insns {
            for (m, is_store) in ds_accesses(&line.insn) {
                seen = true;
                match mem_interval(m, &s) {
                    Some((alo, ahi)) => {
                        let ahi = ahi.saturating_add(access_width(&line.insn) - 1);
                        if contained(&self.data, alo, ahi) {
                            lo = lo.min(alo);
                            hi = hi.max(ahi);
                            if is_store {
                                stores = true;
                            } else {
                                loads = true;
                            }
                        } else {
                            all_proven = false;
                        }
                    }
                    None => all_proven = false,
                }
            }
            transfer(&line.insn, &mut s);
        }
        BlockProof {
            start: block.start,
            len: block.end - block.start,
            ds_bounds: (seen && all_proven).then_some((lo, hi)),
            ds_loads: loads,
            ds_stores: stores,
        }
    }
}

/// Verifies a linked image against `policy`, starting from image-relative
/// `entries` (the module's exported functions).
///
/// On success returns the [`Attestation`] (with its [`ProofMap`](crate::ProofMap)) the
/// loader stores with the segment; on failure, the first violation found
/// in address order.
pub fn verify_image(
    image: &[u8],
    entries: &[u32],
    policy: &VerifyPolicy,
) -> Result<Attestation, VerifyError> {
    let mut a = Analysis {
        image,
        policy,
        data: policy.data.clone(),
        stats: Attestation::default(),
    };
    let (ilo, ihi) = a.image_range();
    a.data.push((ilo, ihi));

    let mut all_entries: Vec<u32> = entries.to_vec();
    all_entries.sort_unstable();
    all_entries.dedup();

    for round in 0.. {
        let cfg = Cfg::build(image, &all_entries).map_err(|e| match e {
            CfgError::Decode { offset, cause } => VerifyError::Decode { offset, cause },
            CfgError::NoEntry => VerifyError::NoEntry,
            CfgError::EntryOutOfRange(o) => VerifyError::EntryOutOfRange(o),
        })?;
        let ord = proofs::order(&cfg, &all_entries);
        let states = Analysis::fixpoint(&cfg, &all_entries, &ord);

        a.stats = Attestation {
            entries: all_entries.len() as u32,
            insns: cfg.lines.len() as u32,
            blocks: cfg.blocks.len() as u32,
            ..Attestation::default()
        };

        // Static transfers that leave the image.
        for &(site, target) in &cfg.external_sites {
            let linear = i64::from(policy.load_addr) + target;
            let ok = u32::try_from(linear).is_ok_and(|t| overlaps(&policy.code, t, t));
            if !ok {
                return Err(VerifyError::BranchOutOfRange {
                    offset: site,
                    target: linear,
                });
            }
            a.stats.external_transfers += 1;
        }

        let mut pending: Vec<u32> = Vec::new();
        for block in cfg.blocks.values() {
            let mut s = states.get(&block.start).copied().unwrap_or(AbsState::TOP);
            for line in &block.insns {
                a.check_insn(line.offset, &line.insn, &s, &cfg, &mut pending)?;
                transfer(&line.insn, &mut s);
            }
        }

        pending.sort_unstable();
        pending.dedup();
        pending.retain(|p| !all_entries.contains(p));
        if pending.is_empty() {
            // Accepted: extract per-block proofs under the final states.
            for block in cfg.blocks.values() {
                let in_state = states.get(&block.start).copied().unwrap_or(AbsState::TOP);
                let proof = a.block_proof(block, in_state);
                a.stats.proofs.blocks.insert(block.start, proof);
            }
            return Ok(a.stats);
        }
        if round + 1 >= MAX_ROUNDS {
            // Pathological resolve chain; give up conservatively.
            return Err(VerifyError::IndirectUnresolved { offset: pending[0] });
        }
        all_entries.extend(pending);
        all_entries.sort_unstable();
    }
    unreachable!("loop returns")
}
