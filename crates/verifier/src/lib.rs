//! `verifier` — load-time static verification of extension object code.
//!
//! The paper positions Palladium's segment/page hardware checks against
//! purely software safety arguments (SFI rewriting, static verification).
//! This crate supplies the static counterpart: a small analysis that runs
//! at `insmod`/`seg_dlopen` time over the *linked* image, before a single
//! extension instruction executes. It
//!
//! 1. recovers a control-flow graph by reachability from the exported
//!    entry points ([`asm86::disasm::Cfg`]) — never a linear sweep, since
//!    extension images interleave dispatch slots and data with code;
//! 2. scans for privileged or reserved instructions outside the permitted
//!    set for the target SPL (`hlt`, segment-register loads, `iret`,
//!    `lret`, unlisted `int` vectors, unlisted `lcall` gates);
//! 3. runs a loop-aware interval abstract interpretation over registers
//!    used as addresses — branch-condition refinement, widening only at
//!    retreating-edge targets of a reverse post-order, plus descending
//!    narrowing — rejecting memory accesses that *provably* fall outside
//!    the allowed ranges (extension segment, stack, heap);
//! 4. validates every outbound control transfer: static branches must
//!    stay in-image or land in whitelisted code ranges (EFT stubs, PLT,
//!    trampolines), far calls must name registered call gates, and
//!    indirect transfers must resolve to a verified target or a
//!    loader-sealed dispatch slot; and
//! 5. emits a [`ProofMap`]: per basic block, the DS facts it *proved*
//!    (a bounded DS access region and whether the block loads or
//!    stores through DS), carried inside the [`Attestation`] for the
//!    dispatch layer to cash in as elided runtime checks (see `x86sim`'s
//!    proof tokens).
//!
//! The analysis is deliberately *one-sided*: it rejects only violations it
//! can prove (a constant or bounded address outside every allowed range, a
//! reserved opcode on a reachable path). Addresses it cannot bound are
//! accepted and left to the segment-limit and page-protection hardware,
//! which remains the soundness backstop — exactly the division of labour
//! DESIGN.md §7 describes. What a `Verified` attestation licenses eliding
//! is therefore only *redundant software* work: through the proof map,
//! per-instruction segment checks whose outcome the proof predetermines,
//! never the hardware checks themselves.

#![warn(clippy::pedantic)]
#![allow(
    clippy::cast_possible_truncation,
    clippy::cast_possible_wrap,
    clippy::cast_sign_loss,
    clippy::cast_lossless,
    clippy::missing_errors_doc,
    clippy::missing_panics_doc,
    clippy::module_name_repetitions,
    clippy::must_use_candidate,
    clippy::redundant_closure_for_method_calls,
    clippy::similar_names,
    clippy::too_many_lines
)]

mod interval;
mod policy;
mod proofs;
mod scan;

pub use policy::{VerifyError, VerifyPolicy};
pub use proofs::{BlockProof, ProofMap};
pub use scan::verify_image;

/// Proof-carrying summary of a successful verification, stored by the
/// loader next to the segment's configuration. Its [`ProofMap`] licenses
/// per-block check elision (proof tokens); dispatch does not otherwise
/// depend on it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Attestation {
    /// Entry points traversed (exports plus resolved indirect targets).
    pub entries: u32,
    /// Reachable instructions verified.
    pub insns: u32,
    /// Basic blocks in the recovered CFG.
    pub blocks: u32,
    /// Memory accesses examined.
    pub memory_checks: u32,
    /// Accesses proven in-range by the interval analysis.
    pub proven_accesses: u32,
    /// Accesses left to the hardware (unbounded address).
    pub unknown_accesses: u32,
    /// Static transfers that leave the image for whitelisted code.
    pub external_transfers: u32,
    /// Indirect transfers resolved to a concrete verified target.
    pub resolved_indirect: u32,
    /// Per-block proven facts.
    pub proofs: ProofMap,
}

#[cfg(test)]
mod tests {
    use super::*;
    use asm86::encode::DecodeError;
    use asm86::isa::{AluOp, Cond, Insn, Mem, Reg::*, Src};
    use asm86::CodeBuilder;
    use std::collections::BTreeMap;

    const SEG: u32 = 0x8000; // 8-page extension segment
    const LOAD: u32 = 0x2040;

    fn kernel_policy() -> VerifyPolicy {
        VerifyPolicy::new(1, LOAD)
            .allow_data(0, SEG)
            .allow_vector(0x81)
    }

    fn link(b: CodeBuilder) -> Vec<u8> {
        b.finish().unwrap().link(LOAD, &BTreeMap::new()).unwrap()
    }

    #[test]
    fn benign_module_is_accepted_with_stats() {
        let mut b = CodeBuilder::new();
        b.label("entry").unwrap();
        b.emit(Insn::Load(Eax, Mem::based(Esp, 4)));
        b.emit(Insn::Alu(AluOp::Add, Eax, Src::Imm(1)));
        b.emit(Insn::Ret);
        let image = link(b);
        let at = verify_image(&image, &[0], &kernel_policy()).unwrap();
        assert_eq!(at.insns, 3);
        assert_eq!(at.blocks, 1);
        assert_eq!(at.memory_checks, 1);
        assert_eq!(at.unknown_accesses, 1, "esp-relative is hardware's job");
        assert_eq!(at.proofs.len(), 1, "one proof per block");
        let p = at.proofs.get(0).unwrap();
        assert_eq!(p.ds_bounds, None, "the esp load goes through SS");
    }

    #[test]
    fn privileged_instructions_are_rejected() {
        for insn in [
            Insn::Hlt,
            Insn::MovToSeg(asm86::SegReg::Ds, Eax),
            Insn::PopSeg(asm86::SegReg::Es),
            Insn::Iret,
            Insn::Lret,
            Insn::LretN(8),
        ] {
            let mut b = CodeBuilder::new();
            b.emit(insn);
            b.emit(Insn::Ret);
            let err = verify_image(&link(b), &[0], &kernel_policy()).unwrap_err();
            assert!(
                matches!(err, VerifyError::Privileged { offset: 0, .. }),
                "{err}"
            );
        }
    }

    #[test]
    fn unreachable_privileged_bytes_are_no_concern() {
        let mut b = CodeBuilder::new();
        b.emit(Insn::Ret);
        b.emit(Insn::Hlt); // dead bytes after the return
        verify_image(&link(b), &[0], &kernel_policy()).unwrap();
    }

    #[test]
    fn interrupt_vectors_follow_the_allowlist() {
        let mut b = CodeBuilder::new();
        b.emit(Insn::Int(0x81));
        b.emit(Insn::Ret);
        verify_image(&link(b), &[0], &kernel_policy()).unwrap();

        let mut b = CodeBuilder::new();
        b.emit(Insn::Int(0x80));
        b.emit(Insn::Ret);
        let err = verify_image(&link(b), &[0], &kernel_policy()).unwrap_err();
        assert_eq!(
            err,
            VerifyError::ForbiddenVector {
                offset: 0,
                vector: 0x80
            }
        );
    }

    #[test]
    fn constant_out_of_segment_store_is_rejected() {
        let mut b = CodeBuilder::new();
        b.emit(Insn::Store(Mem::abs(0xC000_0000), Src::Imm(1)));
        b.emit(Insn::Ret);
        let err = verify_image(&link(b), &[0], &kernel_policy()).unwrap_err();
        assert!(
            matches!(
                err,
                VerifyError::OutOfSegment {
                    offset: 0,
                    lo: 0xC000_0000,
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn computed_constant_address_is_tracked_through_registers() {
        // mov ebx, 0xBFFF0000; add ebx, 0x10000; mov [ebx], eax
        let mut b = CodeBuilder::new();
        b.emit(Insn::Mov(Ebx, Src::Imm(0xBFFF_0000u32 as i32)));
        b.emit(Insn::Alu(AluOp::Add, Ebx, Src::Imm(0x10000)));
        b.emit(Insn::Store(Mem::based(Ebx, 0), Src::Reg(Eax)));
        b.emit(Insn::Ret);
        let err = verify_image(&link(b), &[0], &kernel_policy()).unwrap_err();
        assert!(
            matches!(
                err,
                VerifyError::OutOfSegment {
                    lo: 0xC000_0000,
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn in_segment_constant_store_is_proven() {
        let mut b = CodeBuilder::new();
        b.emit(Insn::Store(Mem::abs(0x100), Src::Imm(7)));
        b.emit(Insn::Ret);
        let at = verify_image(&link(b), &[0], &kernel_policy()).unwrap();
        assert_eq!(at.proven_accesses, 1);
        let p = at.proofs.get(0).unwrap();
        assert_eq!(p.ds_bounds, Some((0x100, 0x103)));
        assert!(p.ds_stores && !p.ds_loads);
    }

    #[test]
    fn runtime_pointer_is_left_to_hardware() {
        // The argument is a pointer we cannot bound: accepted as unknown.
        let mut b = CodeBuilder::new();
        b.emit(Insn::Load(Ecx, Mem::based(Esp, 4)));
        b.emit(Insn::Load(Eax, Mem::based(Ecx, 0)));
        b.emit(Insn::Ret);
        let at = verify_image(&link(b), &[0], &kernel_policy()).unwrap();
        assert_eq!(at.unknown_accesses, 2);
        let p = at.proofs.get(0).unwrap();
        assert_eq!(
            p.ds_bounds, None,
            "an unbounded DS access forfeits the block's bounds fact"
        );
    }

    #[test]
    fn far_calls_need_registered_gates() {
        let mut b = CodeBuilder::new();
        b.emit(Insn::Lcall(0x3B, 0));
        b.emit(Insn::Ret);
        let err = verify_image(&link(b), &[0], &kernel_policy()).unwrap_err();
        assert_eq!(
            err,
            VerifyError::ForbiddenGate {
                offset: 0,
                selector: 0x3B
            }
        );
        let ok = verify_image(
            &{
                let mut b = CodeBuilder::new();
                b.emit(Insn::Lcall(0x3B, 0));
                b.emit(Insn::Ret);
                link(b)
            },
            &[0],
            &kernel_policy().allow_gate(0x3B),
        );
        ok.unwrap();
    }

    #[test]
    fn external_branch_must_hit_whitelisted_code() {
        let mut b = CodeBuilder::new();
        b.emit(Insn::Call(0x0001_0000));
        b.emit(Insn::Ret);
        let image = link(b);
        let err = verify_image(&image, &[0], &kernel_policy()).unwrap_err();
        assert!(
            matches!(err, VerifyError::BranchOutOfRange { offset: 0, .. }),
            "{err}"
        );

        // Whitelist the landing range and it passes.
        let target = LOAD + 5 + 0x0001_0000;
        let policy = kernel_policy().allow_code(target, target + 16);
        let at = verify_image(&image, &[0], &policy).unwrap();
        assert_eq!(at.external_transfers, 1);
    }

    #[test]
    fn register_indirect_with_unknown_target_is_rejected() {
        let mut b = CodeBuilder::new();
        b.emit(Insn::JmpReg(Edi));
        let err = verify_image(&link(b), &[0], &kernel_policy()).unwrap_err();
        assert_eq!(err, VerifyError::IndirectUnresolved { offset: 0 });
    }

    #[test]
    fn register_indirect_with_constant_target_is_traversed() {
        // mov ecx, &helper; call ecx — the helper must then verify too.
        let mut b = CodeBuilder::new();
        b.mov_label(Ecx, "helper");
        b.emit(Insn::CallReg(Ecx));
        b.emit(Insn::Ret);
        b.label("helper").unwrap();
        b.emit(Insn::Int(0x80)); // poison in the resolved target
        b.emit(Insn::Ret);
        let err = verify_image(&link(b), &[0], &kernel_policy()).unwrap_err();
        assert!(
            matches!(err, VerifyError::ForbiddenVector { vector: 0x80, .. }),
            "{err}"
        );
    }

    #[test]
    fn runtime_written_dispatch_slot_is_accepted() {
        // The service-stub return linkage: pop [slot]; ...; jmp [slot].
        let mut b = CodeBuilder::new();
        b.label("stub").unwrap();
        b.popm_label("slot", 0);
        b.jmpm_label("slot", 0);
        b.label("slot").unwrap();
        b.dword(0);
        let at = verify_image(&link(b), &[0], &kernel_policy()).unwrap();
        assert_eq!(at.resolved_indirect, 1);
    }

    #[test]
    fn overflowed_dispatch_slot_is_rejected() {
        // The chaos RelocOverflow shape: jmp [slot] where the linked slot
        // holds an address far outside the module.
        let mut b = CodeBuilder::new();
        b.jmpm_label("slot", 0);
        b.label("slot").unwrap();
        b.dword(0x1A00_0000);
        let err = verify_image(&link(b), &[0], &kernel_policy()).unwrap_err();
        assert_eq!(
            err,
            VerifyError::BadIndirectTarget {
                offset: 0,
                value: 0x1A00_0000
            }
        );
    }

    #[test]
    fn data_interleaved_with_code_is_skipped() {
        let mut b = CodeBuilder::new();
        b.label("entry").unwrap();
        b.load_label(Eax, "table", 0);
        b.emit(Insn::Ret);
        b.label("table").unwrap();
        b.bytes(&[0xFF; 16]); // undecodable as instructions
        let at = verify_image(&link(b), &[0], &kernel_policy()).unwrap();
        assert_eq!(at.insns, 2);
        assert_eq!(at.proven_accesses, 1, "table load lands inside the image");
    }

    #[test]
    fn loops_terminate_via_widening() {
        let mut b = CodeBuilder::new();
        b.label("entry").unwrap();
        b.emit(Insn::Mov(Eax, Src::Imm(0)));
        b.label("loop").unwrap();
        b.emit(Insn::Inc(Eax));
        b.emit(Insn::Cmp(Eax, Src::Imm(100)));
        b.jcc_label(Cond::L, "loop");
        b.emit(Insn::Ret);
        verify_image(&link(b), &[0], &kernel_policy()).unwrap();
    }

    #[test]
    fn truncated_image_is_a_decode_error() {
        let mut b = CodeBuilder::new();
        b.emit(Insn::Mov(Eax, Src::Imm(1)));
        let mut image = link(b);
        image.truncate(3);
        let err = verify_image(&image, &[0], &kernel_policy()).unwrap_err();
        assert!(matches!(
            err,
            VerifyError::Decode {
                offset: 0,
                cause: DecodeError::Truncated
            }
        ));
    }

    #[test]
    fn loader_sealed_slots_are_trusted() {
        // jmp [got] where the GOT page is outside the image but declared
        // sealed by the loader (the PLT pattern).
        let got = 0x7000;
        let mut b = CodeBuilder::new();
        b.emit(Insn::JmpM(Mem::abs(got)));
        let policy = kernel_policy().allow_slots(got, got + 0x1000);
        verify_image(&link(b), &[0], &policy).unwrap();
    }

    // ----- proof-map tests -------------------------------------------------

    /// A bounded table-walk loop: `eax` scans `[0, 0x100)` in steps of 4,
    /// each iteration loading `table[eax]` through a `lea`-computed
    /// pointer. The refinement + narrowing pipeline must prove the loop
    /// body's DS access bounded even though the counter crosses a widened
    /// loop head.
    fn bounded_loop_module() -> Vec<u8> {
        let mut b = CodeBuilder::new();
        b.label("entry").unwrap();
        b.emit(Insn::Mov(Eax, Src::Imm(0)));
        b.emit(Insn::Mov(Esi, Src::Imm(0)));
        b.label("lp").unwrap();
        b.mov_label(Ebx, "table");
        b.emit(Insn::Alu(AluOp::Add, Ebx, Src::Reg(Eax)));
        b.emit(Insn::AluM(AluOp::Add, Esi, Mem::based(Ebx, 0)));
        b.emit(Insn::Alu(AluOp::Add, Eax, Src::Imm(4)));
        b.emit(Insn::Cmp(Eax, Src::Imm(0x100)));
        b.jcc_label(Cond::B, "lp");
        b.emit(Insn::Mov(Eax, Src::Reg(Esi)));
        b.emit(Insn::Ret);
        b.label("table").unwrap();
        for _ in 0..0x41 {
            b.dword(1);
        }
        link(b)
    }

    #[test]
    fn counted_loop_body_gets_bounded_ds_proof() {
        let image = bounded_loop_module();
        let at = verify_image(&image, &[0], &kernel_policy()).unwrap();
        // Every access in the loop body was proven (none left unknown).
        assert_eq!(at.unknown_accesses, 0, "{at:?}");
        assert!(at.proven_accesses >= 1);
        // Find the loop body block: it holds the AluM access.
        let body = at
            .proofs
            .blocks
            .values()
            .find(|p| p.ds_bounds.is_some())
            .expect("a block with proven DS bounds");
        let (lo, hi) = body.ds_bounds.unwrap();
        // Counter narrows to [0, 0xFF] (the domain is stride-blind), so
        // the proven range is [table, table+0xFF+3] — inside the 0x104-
        // byte table.
        assert_eq!(hi - lo, 0x102, "loop covers the whole table");
        assert!(body.ds_loads && !body.ds_stores);
    }

    #[test]
    fn loop_whose_last_iteration_escapes_is_not_proven() {
        // Same loop, but the table sits so close to the segment end that
        // the final iteration's access straddles the boundary: interval
        // [base, base+0x103] is not contained, so the block must NOT get
        // a bounds proof (the access stays `unknown`, hardware's job).
        let mut b = CodeBuilder::new();
        b.label("entry").unwrap();
        b.emit(Insn::Mov(Eax, Src::Imm((SEG - 0x20) as i32)));
        b.label("lp").unwrap();
        b.emit(Insn::Store(Mem::based(Eax, 0), Src::Imm(1)));
        b.emit(Insn::Alu(AluOp::Add, Eax, Src::Imm(4)));
        b.emit(Insn::Cmp(Eax, Src::Imm((SEG + 4) as i32)));
        b.jcc_label(Cond::B, "lp");
        b.emit(Insn::Ret);
        let at = verify_image(&link(b), &[0], &kernel_policy()).unwrap();
        assert!(at.unknown_accesses >= 1, "{at:?}");
        assert!(
            at.proofs.blocks.values().all(|p| p.ds_bounds.is_none()),
            "an escaping loop access must not be proven: {at:?}"
        );
    }

    #[test]
    fn attestation_and_proofs_are_deterministic() {
        let image = bounded_loop_module();
        let a = verify_image(&image, &[0], &kernel_policy()).unwrap();
        let b = verify_image(&image, &[0], &kernel_policy()).unwrap();
        assert_eq!(a, b, "same image + policy must be bit-identical");
    }

    #[test]
    fn block_containing_maps_offsets_to_proofs() {
        let image = bounded_loop_module();
        let at = verify_image(&image, &[0], &kernel_policy()).unwrap();
        for p in at.proofs.blocks.values() {
            assert_eq!(at.proofs.block_containing(p.start).unwrap().start, p.start);
            assert_eq!(
                at.proofs
                    .block_containing(p.start + p.len - 1)
                    .unwrap()
                    .start,
                p.start
            );
        }
        assert!(at.proofs.block_containing(0xFFFF_0000).is_none());
    }

    #[test]
    fn mod32_wraparound_access_is_not_proven() {
        // A counter that wraps through 0xFFFF_FFFF: the mod-2^32 interval
        // straddles the boundary, so the analysis must refuse to bound it
        // (one-sidedness: accepted, left to hardware) rather than prove a
        // wrong range.
        let mut b = CodeBuilder::new();
        b.label("entry").unwrap();
        b.emit(Insn::Mov(Eax, Src::Imm(0xFFFF_FFF0u32 as i32)));
        b.label("lp").unwrap();
        b.emit(Insn::StoreB(Mem::based(Eax, 0x18), Ecx));
        b.emit(Insn::Inc(Eax));
        b.emit(Insn::Cmp(Eax, Src::Imm(0x10)));
        b.jcc_label(Cond::Ne, "lp");
        b.emit(Insn::Ret);
        let at = verify_image(&link(b), &[0], &kernel_policy()).unwrap();
        assert!(at.unknown_accesses >= 1, "{at:?}");
        assert!(at.proofs.blocks.values().all(|p| p.ds_bounds.is_none()));
    }

    #[test]
    fn dec_jnz_loop_is_counted() {
        let mut b = CodeBuilder::new();
        b.label("entry").unwrap();
        b.emit(Insn::Mov(Ecx, Src::Imm(32)));
        b.label("lp").unwrap();
        b.emit(Insn::Store(Mem::abs(0x200), Src::Reg(Ecx)));
        b.emit(Insn::Dec(Ecx));
        b.jcc_label(Cond::Ne, "lp");
        b.emit(Insn::Ret);
        let at = verify_image(&link(b), &[0], &kernel_policy()).unwrap();
        let body = at
            .proofs
            .blocks
            .values()
            .find(|p| p.ds_bounds.is_some())
            .expect("store block proven");
        assert_eq!(body.ds_bounds, Some((0x200, 0x203)));
    }
}
