//! Machine-level tests: execution semantics, protection checks, and far
//! control transfers.

use asm86::Assembler;
use std::collections::BTreeMap;

use crate::desc::{Descriptor, Selector};
use crate::fault::{FaultCause, Vector};
use crate::machine::{Exit, Machine};
use crate::paging::{map_page, pte};
use asm86::isa::{Reg, SegReg};

/// Builds a machine with flat ring-0 code/data/stack segments, the given
/// program at linear `0x1000`, and a stack top at `0x8000`. Paging off.
fn flat_machine(src: &str) -> Machine {
    let mut m = Machine::new();
    let code = m.gdt.push(Descriptor::flat_code(0));
    let data = m.gdt.push(Descriptor::flat_data(0));
    let obj = Assembler::assemble(src).expect("asm");
    let image = obj.link(0x1000, &BTreeMap::new()).expect("link");
    m.mem.write_bytes(0x1000, &image);

    m.force_seg_from_table(SegReg::Cs, Selector::new(code, false, 0));
    m.force_seg_from_table(SegReg::Ss, Selector::new(data, false, 0));
    m.force_seg_from_table(SegReg::Ds, Selector::new(data, false, 0));
    m.cpu.eip = 0x1000;
    m.cpu.set_reg(Reg::Esp, 0x8000);
    m
}

fn run_to_hlt(m: &mut Machine) {
    match m.run(100_000) {
        Exit::Hlt => {}
        other => panic!("expected Hlt, got {other:?}"),
    }
}

#[test]
fn arithmetic_and_halt() {
    let mut m = flat_machine(
        "mov eax, 6\n\
         mov ebx, 7\n\
         imul eax, ebx\n\
         hlt\n",
    );
    run_to_hlt(&mut m);
    assert_eq!(m.cpu.reg(Reg::Eax), 42);
    assert!(m.cycles() > 0);
    assert_eq!(m.insns(), 4);
}

#[test]
fn memory_roundtrip_and_byte_ops() {
    let mut m = flat_machine(
        "mov eax, 0x11223344\n\
         mov [0x2000], eax\n\
         mov ebx, byte [0x2001]\n\
         mov ecx, word [0x2002]\n\
         hlt\n",
    );
    run_to_hlt(&mut m);
    assert_eq!(m.cpu.reg(Reg::Ebx), 0x33);
    assert_eq!(m.cpu.reg(Reg::Ecx), 0x1122);
    assert_eq!(m.mem.read_u32(0x2000), 0x11223344);
}

#[test]
fn stack_push_pop() {
    let mut m = flat_machine(
        "push 0xAA\n\
         push 0xBB\n\
         pop eax\n\
         pop ebx\n\
         hlt\n",
    );
    run_to_hlt(&mut m);
    assert_eq!(m.cpu.reg(Reg::Eax), 0xBB);
    assert_eq!(m.cpu.reg(Reg::Ebx), 0xAA);
    assert_eq!(m.cpu.esp(), 0x8000);
}

#[test]
fn loop_and_conditions() {
    // Sum 1..=10.
    let mut m = flat_machine(
        "mov eax, 0\n\
         mov ecx, 10\n\
         top:\n\
         add eax, ecx\n\
         dec ecx\n\
         cmp ecx, 0\n\
         jne top\n\
         hlt\n",
    );
    run_to_hlt(&mut m);
    assert_eq!(m.cpu.reg(Reg::Eax), 55);
}

#[test]
fn signed_and_unsigned_branches() {
    let mut m = flat_machine(
        "mov eax, -1\n\
         cmp eax, 1\n\
         jl signed_less\n\
         mov ebx, 0\n\
         hlt\n\
         signed_less:\n\
         mov ebx, 1\n\
         cmp eax, 1\n\
         ja unsigned_above\n\
         hlt\n\
         unsigned_above:\n\
         mov ecx, 1\n\
         hlt\n",
    );
    run_to_hlt(&mut m);
    assert_eq!(m.cpu.reg(Reg::Ebx), 1, "-1 < 1 signed");
    assert_eq!(m.cpu.reg(Reg::Ecx), 1, "0xFFFFFFFF > 1 unsigned");
}

#[test]
fn call_and_ret() {
    let mut m = flat_machine(
        "push 5\n\
         call double\n\
         hlt\n\
         double:\n\
         mov eax, [esp+4]\n\
         add eax, eax\n\
         ret\n",
    );
    run_to_hlt(&mut m);
    assert_eq!(m.cpu.reg(Reg::Eax), 10);
}

#[test]
fn rdtsc_reads_cycle_counter() {
    let mut m = flat_machine("rdtsc\nmov ebx, eax\nrdtsc\nsub eax, ebx\nhlt\n");
    run_to_hlt(&mut m);
    assert!(m.cpu.reg(Reg::Eax) > 0, "cycles advanced between rdtscs");
}

#[test]
fn segment_limit_violation_faults() {
    let mut m = Machine::new();
    // Code segment of exactly one page; data segment of 16 bytes.
    let code = m.gdt.push(Descriptor::code(0x1000, 0x1000, 0));
    let data = m.gdt.push(Descriptor::data(0x2000, 16, 0));
    let stack = m.gdt.push(Descriptor::flat_data(0));
    let obj = Assembler::assemble(
        "mov eax, [12]\n\
         mov ebx, [13]\n\
         hlt\n",
    )
    .unwrap();
    let image = obj.link(0, &BTreeMap::new()).unwrap();
    m.mem.write_bytes(0x1000, &image);
    m.force_seg_from_table(SegReg::Cs, Selector::new(code, false, 0));
    m.force_seg_from_table(SegReg::Ds, Selector::new(data, false, 0));
    m.force_seg_from_table(SegReg::Ss, Selector::new(stack, false, 0));
    m.cpu.set_reg(Reg::Esp, 0x9000);
    m.cpu.eip = 0;

    // First load: offsets 12..15 inclusive = within limit 15.
    assert!(m.step().is_none());
    // Second load: offsets 13..16 exceeds limit.
    match m.step() {
        Some(Exit::Fault(f)) => {
            assert_eq!(f.vector, Vector::GeneralProtection);
            assert!(matches!(f.cause, FaultCause::LimitViolation { .. }));
        }
        other => panic!("expected #GP, got {other:?}"),
    }
}

#[test]
fn write_to_code_segment_faults() {
    let mut m = flat_machine("mov cs:[0x2000], eax\nhlt\n");
    match m.run(10) {
        Exit::Fault(f) => {
            assert_eq!(f.vector, Vector::GeneralProtection);
            assert_eq!(f.cause, FaultCause::BadSegmentType);
        }
        other => panic!("expected #GP, got {other:?}"),
    }
}

#[test]
fn hlt_is_privileged() {
    // Run the same program at ring 3 — hlt must #GP.
    let mut m = Machine::new();
    let code = m.gdt.push(Descriptor::flat_code(3));
    let data = m.gdt.push(Descriptor::flat_data(3));
    let obj = Assembler::assemble("hlt\n").unwrap();
    m.mem
        .write_bytes(0x1000, &obj.link(0x1000, &BTreeMap::new()).unwrap());
    m.force_seg_from_table(SegReg::Cs, Selector::new(code, false, 3));
    m.force_seg_from_table(SegReg::Ss, Selector::new(data, false, 3));
    m.cpu.set_reg(Reg::Esp, 0x8000);
    m.cpu.eip = 0x1000;
    assert_eq!(m.cpu.cpl, 3);
    match m.run(10) {
        Exit::Fault(f) => {
            assert_eq!(f.vector, Vector::GeneralProtection);
            assert_eq!(f.cause, FaultCause::PrivilegedInstruction);
        }
        other => panic!("expected #GP, got {other:?}"),
    }
}

#[test]
fn ring3_cannot_load_ring0_data_segment() {
    let mut m = Machine::new();
    let code3 = m.gdt.push(Descriptor::flat_code(3));
    let data3 = m.gdt.push(Descriptor::flat_data(3));
    let data0 = m.gdt.push(Descriptor::flat_data(0));
    let obj = Assembler::assemble(
        "mov ds, eax\n\
         hlt\n",
    )
    .unwrap();
    m.mem
        .write_bytes(0x1000, &obj.link(0x1000, &BTreeMap::new()).unwrap());
    m.force_seg_from_table(SegReg::Cs, Selector::new(code3, false, 3));
    m.force_seg_from_table(SegReg::Ss, Selector::new(data3, false, 3));
    m.cpu.set_reg(Reg::Esp, 0x8000);
    m.cpu
        .set_reg(Reg::Eax, Selector::new(data0, false, 3).0 as u32);
    m.cpu.eip = 0x1000;
    match m.run(10) {
        Exit::Fault(f) => {
            assert_eq!(f.vector, Vector::GeneralProtection);
            assert!(matches!(f.cause, FaultCause::PrivilegeViolation { .. }));
        }
        other => panic!("expected #GP, got {other:?}"),
    }
}

#[test]
fn user_write_to_supervisor_page_faults() {
    // Ring 3 flat segments but a PPL 0 page: the paging check must fire
    // even though segmentation passes — the heart of the user-level
    // Palladium mechanism.
    let mut m = Machine::new();
    let code3 = m.gdt.push(Descriptor::flat_code(3));
    let data3 = m.gdt.push(Descriptor::flat_data(3));

    let mut fa = crate::mem::FrameAlloc::new(0x10_0000, 0x20_0000);
    let cr3 = fa.alloc().unwrap();
    // Identity-map the code page and stack page as user; the target page
    // as supervisor (PPL 0).
    map_page(&mut m.mem, &mut fa, cr3, 0x1000, 0x1000, pte::RW | pte::US);
    map_page(&mut m.mem, &mut fa, cr3, 0x7000, 0x7000, pte::RW | pte::US);
    map_page(&mut m.mem, &mut fa, cr3, 0x5000, 0x5000, pte::RW);
    m.mmu.set_cr3(cr3);
    m.mmu.enabled = true;

    let obj = Assembler::assemble(
        "mov eax, 1\n\
         mov [0x5000], eax\n\
         hlt\n",
    )
    .unwrap();
    m.mem
        .write_bytes(0x1000, &obj.link(0x1000, &BTreeMap::new()).unwrap());
    m.force_seg_from_table(SegReg::Cs, Selector::new(code3, false, 3));
    m.force_seg_from_table(SegReg::Ss, Selector::new(data3, false, 3));
    m.force_seg_from_table(SegReg::Ds, Selector::new(data3, false, 3));
    m.cpu.set_reg(Reg::Esp, 0x8000);
    m.cpu.eip = 0x1000;

    match m.run(10) {
        Exit::Fault(f) => {
            assert_eq!(f.vector, Vector::PageFault);
            assert_eq!(f.cr2, Some(0x5000));
        }
        other => panic!("expected #PF, got {other:?}"),
    }
    // The write never reached memory.
    assert_eq!(m.mem.read_u32(0x5000), 0);
}

/// Builds the two-ring machine used by the gate tests: ring-2 "app" code
/// and ring-3 "extension" code over the same flat range, a call gate from
/// ring 3 into ring 2, and per-ring stacks via the TSS.
fn two_ring_machine(app_src: &str, ext_src: &str) -> (Machine, u16, u16) {
    let mut m = Machine::new();
    let code2 = m.gdt.push(Descriptor::flat_code(2));
    let data2 = m.gdt.push(Descriptor::flat_data(2));
    let code3 = m.gdt.push(Descriptor::flat_code(3));
    let data3 = m.gdt.push(Descriptor::flat_data(3));

    let app = Assembler::assemble(app_src).expect("app asm");
    let ext = Assembler::assemble(ext_src).expect("ext asm");
    let mut externs = BTreeMap::new();
    for (name, off) in &ext.symbols {
        externs.insert(name.clone(), 0x4000 + off);
    }
    let app_img = app.link(0x1000, &externs).expect("app link");
    let mut externs2 = BTreeMap::new();
    for (name, off) in &app.symbols {
        externs2.insert(name.clone(), 0x1000 + off);
    }
    let ext_img = ext.link(0x4000, &externs2).expect("ext link");
    m.mem.write_bytes(0x1000, &app_img);
    m.mem.write_bytes(0x4000, &ext_img);

    // Ring-2 stack at 0x8000 (via TSS when entering ring 2).
    m.tss.stack[2] = (Selector::new(data2, false, 2), 0x8000);

    m.force_seg_from_table(SegReg::Cs, Selector::new(code2, false, 2));
    m.force_seg_from_table(SegReg::Ss, Selector::new(data2, false, 2));
    m.force_seg_from_table(SegReg::Ds, Selector::new(data2, false, 2));
    m.cpu.set_reg(Reg::Esp, 0x8000);
    m.cpu.eip = 0x1000;

    (
        m,
        Selector::new(code3, false, 3).0,
        Selector::new(data3, false, 3).0,
    )
}

#[test]
fn figure6_downcall_and_gated_return() {
    // A miniature of the paper's Figure 6: ring-2 code synthesizes a far
    // return into ring-3 code; the ring-3 code lcalls back through a call
    // gate. This is the exact lret/lcall pair Palladium times at 31+72
    // cycles.
    let app_src = "\
entry:
    ; Synthesize the phantom activation record: SS3, ESP3, CS3, EIP3.
    push 0x23        ; ext stack selector (data3, RPL 3) — patched below
    push 0x9000      ; ext stack pointer
    push 0x1B        ; ext code selector (code3, RPL 3) — patched below
    push transfer_target
    lret
back_in_app:
    int 0x30         ; yield to the host
app_gate_entry:
    mov eax, 77
    jmp back_in_app
";
    let ext_src = "\
transfer_target:
    mov ebx, 55
    lcall 0x2B, 0    ; through the call gate (selector patched below)
";
    let (mut m, code3_sel, data3_sel) = two_ring_machine(app_src, ext_src);
    m.idt[0x30] = Some(crate::machine::IdtGate { dpl: 3 });

    // Create the call gate into app_gate_entry at ring 2, callable from 3.
    let app_obj = Assembler::assemble(app_src).unwrap();
    let gate_entry = 0x1000 + app_obj.symbol("app_gate_entry").unwrap();
    let code2_sel = m.cpu.seg(SegReg::Cs).selector;
    let gate_idx = m
        .gdt
        .push(Descriptor::call_gate(code2_sel.with_rpl(0), gate_entry, 3));
    let gate_sel = Selector::new(gate_idx, false, 3);

    // Patch the immediates the sources hard-coded: selectors depend on GDT
    // layout, so rewrite the pushed values by editing memory directly.
    // push 0x23 at 0x1000 (opcode 1 + tag 1 + imm). push imm encoding:
    // [PUSH][SRC_IMM][imm32].
    m.mem.write_u32(0x1002, data3_sel as u32);
    m.mem.write_u32(0x100E, code3_sel as u32);
    // The ext lcall selector: lcall encodes as [LCALL][sel16][off32] and
    // sits right after "mov ebx, 55" (7 bytes) at 0x4000.
    m.mem.write_u16(0x4008, gate_sel.0);

    match m.run(100) {
        Exit::IntHook(0x30) => {}
        other => panic!("expected IntHook(0x30), got {other:?}"),
    }
    assert_eq!(m.cpu.reg(Reg::Ebx), 55, "extension ran");
    assert_eq!(m.cpu.reg(Reg::Eax), 77, "gate entry ran");
    assert_eq!(m.cpu.cpl, 2, "returned to ring 2");
}

#[test]
fn lret_to_inner_ring_is_rejected() {
    // Ring-3 code forging a far return "to ring 0" must fault.
    let mut m = Machine::new();
    let code3 = m.gdt.push(Descriptor::flat_code(3));
    let data3 = m.gdt.push(Descriptor::flat_data(3));
    let code0 = m.gdt.push(Descriptor::flat_code(0));
    // Forge the frame lret expects: push CS first, EIP last (lret pops EIP
    // then CS).
    let forged = Assembler::assemble(&format!(
        "push {}\n\
         push 0x2000\n\
         lret\n",
        Selector::new(code0, false, 0).0
    ))
    .unwrap();
    let img = forged.link(0x1000, &BTreeMap::new()).unwrap();
    m.mem.write_bytes(0x1000, &img);
    m.force_seg_from_table(SegReg::Cs, Selector::new(code3, false, 3));
    m.force_seg_from_table(SegReg::Ss, Selector::new(data3, false, 3));
    m.cpu.set_reg(Reg::Esp, 0x8000);
    m.cpu.eip = 0x1000;

    match m.run(10) {
        Exit::Fault(f) => {
            assert_eq!(f.vector, Vector::GeneralProtection);
        }
        other => panic!("expected #GP, got {other:?}"),
    }
    assert_eq!(m.cpu.cpl, 3, "CPL unchanged");
}

#[test]
fn gate_dpl_blocks_unprivileged_callers() {
    // A gate with DPL 0 cannot be called from ring 3.
    let mut m = Machine::new();
    let code3 = m.gdt.push(Descriptor::flat_code(3));
    let data3 = m.gdt.push(Descriptor::flat_data(3));
    let code0 = m.gdt.push(Descriptor::flat_code(0));
    let gate = m.gdt.push(Descriptor::call_gate(
        Selector::new(code0, false, 0),
        0x2000,
        0,
    ));
    let obj = Assembler::assemble(&format!(
        "lcall {}, 0\nhlt\n",
        Selector::new(gate, false, 3).0
    ))
    .unwrap();
    m.mem
        .write_bytes(0x1000, &obj.link(0x1000, &BTreeMap::new()).unwrap());
    m.force_seg_from_table(SegReg::Cs, Selector::new(code3, false, 3));
    m.force_seg_from_table(SegReg::Ss, Selector::new(data3, false, 3));
    m.cpu.set_reg(Reg::Esp, 0x8000);
    m.cpu.eip = 0x1000;
    match m.run(10) {
        Exit::Fault(f) => {
            assert_eq!(f.vector, Vector::GeneralProtection);
            assert!(matches!(f.cause, FaultCause::PrivilegeViolation { .. }));
        }
        other => panic!("expected #GP, got {other:?}"),
    }
}

#[test]
fn inward_gate_call_switches_stacks_via_tss() {
    // Ring 3 calls a ring-0 routine through a gate; the TSS supplies the
    // ring-0 stack, and the old SS:ESP appear on it.
    let mut m = Machine::new();
    let code3 = m.gdt.push(Descriptor::flat_code(3));
    let data3 = m.gdt.push(Descriptor::flat_data(3));
    let code0 = m.gdt.push(Descriptor::flat_code(0));
    let data0 = m.gdt.push(Descriptor::flat_data(0));
    let gate = m.gdt.push(Descriptor::call_gate(
        Selector::new(code0, false, 0),
        0x3000,
        3,
    ));

    let user = Assembler::assemble(&format!(
        "lcall {}, 0\nmov edi, 1\nhlt\n",
        Selector::new(gate, false, 3).0
    ))
    .unwrap();
    m.mem
        .write_bytes(0x1000, &user.link(0x1000, &BTreeMap::new()).unwrap());
    let handler = Assembler::assemble("mov esi, 42\nlret\n").unwrap();
    m.mem
        .write_bytes(0x3000, &handler.link(0x3000, &BTreeMap::new()).unwrap());

    m.tss.stack[0] = (Selector::new(data0, false, 0), 0xF000);
    m.force_seg_from_table(SegReg::Cs, Selector::new(code3, false, 3));
    m.force_seg_from_table(SegReg::Ss, Selector::new(data3, false, 3));
    m.cpu.set_reg(Reg::Esp, 0x8000);
    m.cpu.eip = 0x1000;

    // Step the lcall only, to inspect the switched stack.
    assert!(m.step().is_none());
    assert_eq!(m.cpu.cpl, 0);
    assert_eq!(m.cpu.esp(), 0xF000 - 16, "SS, ESP, CS, EIP pushed");
    let old_esp = m.mem.read_u32(0xF000 - 8);
    assert_eq!(old_esp, 0x8000);

    // Run to completion; the handler returns outward and the user code
    // halts — which faults at ring 3, so expect #GP *after* edi is set...
    // hlt is privileged, so check state at the fault instead.
    match m.run(10) {
        Exit::Fault(f) => {
            assert_eq!(f.cause, FaultCause::PrivilegedInstruction);
        }
        other => panic!("expected fault on ring-3 hlt, got {other:?}"),
    }
    assert_eq!(m.cpu.reg(Reg::Esi), 42, "ring-0 routine ran");
    assert_eq!(m.cpu.reg(Reg::Edi), 1, "control returned to ring 3");
    assert_eq!(m.cpu.esp(), 0x8000, "outer stack restored");
}

#[test]
fn int_hook_requires_gate_dpl() {
    let mut m = Machine::new();
    let code3 = m.gdt.push(Descriptor::flat_code(3));
    let data3 = m.gdt.push(Descriptor::flat_data(3));
    m.idt[0x80] = Some(crate::machine::IdtGate { dpl: 3 });
    m.idt[0x81] = Some(crate::machine::IdtGate { dpl: 0 });

    let obj = Assembler::assemble("int 0x80\nint 0x81\nhlt\n").unwrap();
    m.mem
        .write_bytes(0x1000, &obj.link(0x1000, &BTreeMap::new()).unwrap());
    m.force_seg_from_table(SegReg::Cs, Selector::new(code3, false, 3));
    m.force_seg_from_table(SegReg::Ss, Selector::new(data3, false, 3));
    m.cpu.set_reg(Reg::Esp, 0x8000);
    m.cpu.eip = 0x1000;

    match m.run(10) {
        Exit::IntHook(0x80) => {}
        other => panic!("expected IntHook(0x80), got {other:?}"),
    }
    // Resume: the int 0x81 must #GP (gate DPL 0 < CPL 3).
    match m.run(10) {
        Exit::Fault(f) => {
            assert_eq!(f.vector, Vector::GeneralProtection);
        }
        other => panic!("expected #GP, got {other:?}"),
    }
    // Unhooked vector also faults.
    let mut m2 = flat_machine("int 0x40\nhlt\n");
    match m2.run(10) {
        Exit::Fault(f) => assert_eq!(f.vector, Vector::GeneralProtection),
        other => panic!("expected #GP, got {other:?}"),
    }
}

#[test]
fn outward_return_invalidates_privileged_data_segments() {
    // Ring-0 code loads DS with a ring-0 segment, then returns outward to
    // ring 3: DS must be nulled so ring 3 cannot use the cached descriptor.
    let mut m = Machine::new();
    let code0 = m.gdt.push(Descriptor::flat_code(0));
    let data0 = m.gdt.push(Descriptor::flat_data(0));
    let code3 = m.gdt.push(Descriptor::flat_code(3));
    let data3 = m.gdt.push(Descriptor::flat_data(3));

    let ring0 = Assembler::assemble(&format!(
        "mov eax, {}\n\
         mov ds, eax\n\
         push {}\n\
         push 0x9000\n\
         push {}\n\
         push 0x3000\n\
         lret\n",
        Selector::new(data0, false, 0).0,
        Selector::new(data3, false, 3).0,
        Selector::new(code3, false, 3).0,
    ))
    .unwrap();
    m.mem
        .write_bytes(0x1000, &ring0.link(0x1000, &BTreeMap::new()).unwrap());
    // Ring-3 code tries to read through DS.
    let ring3 = Assembler::assemble("mov ebx, [0x2000]\nhlt\n").unwrap();
    m.mem
        .write_bytes(0x3000, &ring3.link(0x3000, &BTreeMap::new()).unwrap());

    m.force_seg_from_table(SegReg::Cs, Selector::new(code0, false, 0));
    m.force_seg_from_table(SegReg::Ss, Selector::new(data0, false, 0));
    m.cpu.set_reg(Reg::Esp, 0x8000);
    m.cpu.eip = 0x1000;

    match m.run(20) {
        Exit::Fault(f) => {
            assert_eq!(f.vector, Vector::GeneralProtection);
            assert_eq!(f.cpl, 3);
            assert!(
                matches!(f.cause, FaultCause::BadSelector(_)),
                "DS was invalidated on the outward return: {:?}",
                f.cause
            );
        }
        other => panic!("expected #GP through nulled DS, got {other:?}"),
    }
}

#[test]
fn cycle_budget_stops_runaway_code() {
    let mut m = flat_machine("spin:\njmp spin\n");
    let exit = m.run_until_cycles(1_000);
    assert_eq!(exit, Exit::CycleLimit);
    assert!(m.cycles() >= 1_000);
}

#[test]
fn insn_budget_stops_runaway_code() {
    let mut m = flat_machine("spin:\njmp spin\n");
    assert_eq!(m.run(100), Exit::InsnLimit);
    assert_eq!(m.insns(), 100);
}

#[test]
fn undecodable_bytes_fault() {
    let mut m = flat_machine("nop\nhlt\n");
    m.mem.write_u8(0x1000, 0xFE); // invalid opcode
    match m.run(10) {
        Exit::Fault(f) => assert_eq!(f.vector, Vector::InvalidOpcode),
        other => panic!("expected #UD, got {other:?}"),
    }
}

#[test]
fn host_helpers_bypass_protection() {
    let mut m = Machine::new();
    let mut fa = crate::mem::FrameAlloc::new(0x10_0000, 0x20_0000);
    let cr3 = fa.alloc().unwrap();
    map_page(&mut m.mem, &mut fa, cr3, 0x5000, 0x6000, pte::RW); // PPL 0
    m.mmu.set_cr3(cr3);
    m.mmu.enabled = true;

    assert!(m.host_write_u32(0x5010, 0xFEED));
    assert_eq!(m.host_read_u32(0x5010), 0xFEED);
    assert_eq!(m.mem.read_u32(0x6010), 0xFEED, "went through the mapping");
    assert!(!m.host_write_u32(0xDEAD_0000, 1), "unmapped fails");
}

#[test]
fn tlb_miss_charges_cycles() {
    let mut m = Machine::new();
    let code0 = m.gdt.push(Descriptor::flat_code(0));
    let data0 = m.gdt.push(Descriptor::flat_data(0));
    let mut fa = crate::mem::FrameAlloc::new(0x10_0000, 0x20_0000);
    let cr3 = fa.alloc().unwrap();
    for page in [0x1000u32, 0x7000, 0x2000] {
        map_page(&mut m.mem, &mut fa, cr3, page, page, pte::RW | pte::US);
    }
    m.mmu.set_cr3(cr3);
    m.mmu.enabled = true;

    let obj = Assembler::assemble("mov eax, [0x2000]\nmov ebx, [0x2004]\nhlt\n").unwrap();
    m.mem
        .write_bytes(0x1000, &obj.link(0x1000, &BTreeMap::new()).unwrap());
    m.force_seg_from_table(SegReg::Cs, Selector::new(code0, false, 0));
    m.force_seg_from_table(SegReg::Ss, Selector::new(data0, false, 0));
    m.force_seg_from_table(SegReg::Ds, Selector::new(data0, false, 0));
    m.cpu.set_reg(Reg::Esp, 0x7FF0);
    m.cpu.eip = 0x1000;

    run_to_hlt(&mut m);
    // Two data pages + one code page walked once each.
    assert_eq!(m.mmu.stats.misses, 2); // 0x2000 data + code page
    assert!(m.mmu.stats.hits > 0);
}

mod properties {
    use super::*;
    use crate::desc::{CodeSeg, DataSeg};
    use seedrng::SeedRng;

    fn arb_code_desc(r: &mut SeedRng) -> Descriptor {
        Descriptor::Code(CodeSeg {
            base: r.next_u32(),
            limit: r.gen_range(0, 0x10_0000),
            dpl: r.gen_range(0, 4) as u8,
            readable: r.gen_bool(0.5),
            conforming: r.gen_bool(0.5),
            present: r.gen_bool(0.5),
        })
    }

    fn arb_data_desc(r: &mut SeedRng) -> Descriptor {
        Descriptor::Data(DataSeg {
            base: r.next_u32(),
            limit: r.gen_range(0, 0x10_0000),
            dpl: r.gen_range(0, 4) as u8,
            writable: r.gen_bool(0.5),
            expand_down: r.gen_bool(0.5),
            present: r.gen_bool(0.5),
        })
    }

    /// Descriptors with byte-granular limits survive the genuine
    /// 8-byte x86 packing bit-exactly.
    #[test]
    fn seeded_descriptor_pack_roundtrip() {
        let mut r = SeedRng::new(0xDE5C);
        for _ in 0..2000 {
            let d = if r.gen_bool(0.5) {
                arb_code_desc(&mut r)
            } else {
                arb_data_desc(&mut r)
            };
            assert_eq!(Descriptor::unpack(d.pack()), Some(d));
        }
    }

    /// Page-granular limits lose exactly their low 12 bits.
    #[test]
    fn seeded_large_limit_granularity() {
        let mut r = SeedRng::new(0x11A1);
        for _ in 0..500 {
            let limit = r.gen_range_u64(0x10_0000, 1 << 32) as u32;
            let d = Descriptor::Code(CodeSeg {
                base: 0,
                limit,
                dpl: 0,
                readable: true,
                conforming: false,
                present: true,
            });
            match Descriptor::unpack(d.pack()) {
                Some(Descriptor::Code(c)) => assert_eq!(c.limit, limit | 0xFFF),
                other => panic!("{other:?}"),
            }
        }
    }

    /// ALU flag semantics agree with wide-arithmetic reference math.
    #[test]
    fn seeded_add_sub_flags() {
        let mut r = SeedRng::new(0xF1A6);
        for _ in 0..500 {
            let (a, b) = (r.next_u32(), r.next_u32());
            let mut m = flat_machine("hlt\n");
            // add
            m.cpu.set_reg(Reg::Eax, a);
            m.execute(
                asm86::Insn::Alu(asm86::AluOp::Add, Reg::Eax, asm86::Src::Imm(b as i32)),
                0,
            )
            .unwrap();
            let v = m.cpu.reg(Reg::Eax);
            assert_eq!(v, a.wrapping_add(b));
            assert_eq!(m.cpu.flags.cf, (a as u64 + b as u64) > u32::MAX as u64);
            assert_eq!(m.cpu.flags.zf, v == 0);
            assert_eq!(m.cpu.flags.sf, (v as i32) < 0);
            assert_eq!(m.cpu.flags.of, (a as i32).checked_add(b as i32).is_none());
            // sub (via cmp so the destination is untouched)
            m.cpu.set_reg(Reg::Ecx, a);
            m.execute(asm86::Insn::Cmp(Reg::Ecx, asm86::Src::Imm(b as i32)), 0)
                .unwrap();
            assert_eq!(m.cpu.flags.cf, a < b);
            assert_eq!(m.cpu.flags.zf, a == b);
            assert_eq!(m.cpu.flags.of, (a as i32).checked_sub(b as i32).is_none());
        }
    }

    /// Random arithmetic programs compute what reference Rust does.
    #[test]
    fn seeded_straightline_arith_matches_host() {
        let mut r = SeedRng::new(0xA317);
        for _ in 0..200 {
            let start = r.next_u32();
            let n = 1 + r.gen_range(0, 23) as usize;
            let mut expected = start;
            let mut src = format!("mov eax, {}\n", start as i32);
            for _ in 0..n {
                let v = r.next_u32() as i32;
                let (mn, f): (&str, fn(u32, i32) -> u32) = match r.gen_range(0, 6) {
                    0 => ("add", |a, v| a.wrapping_add(v as u32)),
                    1 => ("sub", |a, v| a.wrapping_sub(v as u32)),
                    2 => ("and", |a, v| a & v as u32),
                    3 => ("or", |a, v| a | v as u32),
                    4 => ("xor", |a, v| a ^ v as u32),
                    _ => ("imul", |a, v| (a as i32).wrapping_mul(v) as u32),
                };
                expected = f(expected, v);
                src.push_str(&format!("{mn} eax, {v}\n"));
            }
            src.push_str("hlt\n");
            let mut m = flat_machine(&src);
            run_to_hlt(&mut m);
            assert_eq!(m.cpu.reg(Reg::Eax), expected);
        }
    }
}

#[test]
fn expand_down_segment_semantics() {
    // An expand-down data segment permits offsets strictly *above* the
    // limit — the x86 stack-segment idiom.
    use crate::desc::DataSeg;
    let mut m = Machine::new();
    let code = m.gdt.push(Descriptor::flat_code(0));
    let stack = m.gdt.push(Descriptor::flat_data(0));
    let down = m.gdt.push(Descriptor::Data(DataSeg {
        base: 0,
        limit: 0xFFFF,
        dpl: 0,
        writable: true,
        expand_down: true,
        present: true,
    }));
    let obj = asm86::Assembler::assemble(
        "mov eax, [0x10000]\n\
         mov ebx, [0x8000]\n\
         hlt\n",
    )
    .unwrap();
    let image = obj
        .link(0x1000, &std::collections::BTreeMap::new())
        .unwrap();
    m.mem.write_bytes(0x1000, &image);
    m.force_seg_from_table(SegReg::Cs, Selector::new(code, false, 0));
    m.force_seg_from_table(SegReg::Ss, Selector::new(stack, false, 0));
    m.force_seg_from_table(SegReg::Ds, Selector::new(down, false, 0));
    m.cpu.set_reg(Reg::Esp, 0x8000);
    m.cpu.eip = 0x1000;

    // 0x10000 > limit: allowed.
    assert!(m.step().is_none(), "above-limit access allowed");
    // 0x8000 <= limit: #GP.
    match m.step() {
        Some(Exit::Fault(f)) => {
            assert_eq!(f.vector, Vector::GeneralProtection);
            assert!(matches!(f.cause, FaultCause::LimitViolation { .. }));
        }
        other => panic!("expected #GP below the limit, got {other:?}"),
    }
}

#[test]
fn not_present_code_segment_faults_on_transfer() {
    use crate::desc::CodeSeg;
    let mut m = flat_machine("lcall 0, 0\nhlt\n");
    let np = m.gdt.push(Descriptor::Code(CodeSeg {
        base: 0,
        limit: u32::MAX,
        dpl: 0,
        readable: true,
        conforming: false,
        present: false,
    }));
    // Patch the lcall selector (opcode at 0x1000, sel16 at 0x1001).
    m.mem.write_u16(0x1001, Selector::new(np, false, 0).0);
    match m.run(10) {
        Exit::Fault(f) => assert_eq!(f.vector, Vector::NotPresent),
        other => panic!("expected #NP, got {other:?}"),
    }
}

#[test]
fn conforming_code_keeps_caller_privilege() {
    use crate::desc::CodeSeg;
    // Ring 3 far-calls a conforming ring-0 segment: allowed, CPL stays 3.
    let mut m = Machine::new();
    let code3 = m.gdt.push(Descriptor::flat_code(3));
    let data3 = m.gdt.push(Descriptor::flat_data(3));
    let conf = m.gdt.push(Descriptor::Code(CodeSeg {
        base: 0,
        limit: u32::MAX,
        dpl: 0,
        readable: true,
        conforming: true,
        present: true,
    }));
    let user = asm86::Assembler::assemble(&format!(
        "lcall {}, 0x3000\nspin:\njmp spin\n",
        Selector::new(conf, false, 3).0
    ))
    .unwrap();
    m.mem.write_bytes(
        0x1000,
        &user
            .link(0x1000, &std::collections::BTreeMap::new())
            .unwrap(),
    );
    let callee = asm86::Assembler::assemble("mov esi, 5\nlret\n").unwrap();
    m.mem.write_bytes(
        0x3000,
        &callee
            .link(0x3000, &std::collections::BTreeMap::new())
            .unwrap(),
    );
    m.force_seg_from_table(SegReg::Cs, Selector::new(code3, false, 3));
    m.force_seg_from_table(SegReg::Ss, Selector::new(data3, false, 3));
    m.cpu.set_reg(Reg::Esp, 0x8000);
    m.cpu.eip = 0x1000;

    assert!(
        m.step().is_none(),
        "conforming far call allowed from ring 3"
    );
    assert_eq!(m.cpu.cpl, 3, "CPL unchanged by a conforming transfer");
    assert!(m.step().is_none());
    assert!(m.step().is_none(), "lret back");
    assert_eq!(m.cpu.reg(Reg::Esi), 5);
    assert_eq!(m.cpu.cpl, 3);
}

#[test]
fn data_segment_load_privilege_matrix() {
    // Exhaustive check of the x86 rule: a data segment is loadable iff
    // DPL >= max(CPL, RPL). 4 CPLs x 4 RPLs x 4 DPLs = 64 combinations.
    for cpl in 0u8..4 {
        for rpl in 0u8..4 {
            for dpl in 0u8..4 {
                let mut m = Machine::new();
                let code = m.gdt.push(Descriptor::flat_code(cpl));
                let stack = m.gdt.push(Descriptor::flat_data(cpl));
                let target = m.gdt.push(Descriptor::flat_data(dpl));
                m.force_seg_from_table(SegReg::Cs, Selector::new(code, false, cpl));
                m.force_seg_from_table(SegReg::Ss, Selector::new(stack, false, cpl));
                m.cpu.set_reg(Reg::Esp, 0x8000);

                let sel = Selector::new(target, false, rpl);
                let r = m.load_data_seg(asm86::isa::SegReg::Ds, sel);
                let allowed = dpl >= cpl.max(rpl);
                assert_eq!(
                    r.is_ok(),
                    allowed,
                    "cpl={cpl} rpl={rpl} dpl={dpl}: expected allowed={allowed}"
                );
            }
        }
    }
}

#[test]
fn ss_load_requires_exact_privilege_match() {
    // SS is stricter: RPL == CPL == DPL, writable data.
    for cpl in 0u8..4 {
        for rpl in 0u8..4 {
            for dpl in 0u8..4 {
                let mut m = Machine::new();
                let code = m.gdt.push(Descriptor::flat_code(cpl));
                let stack = m.gdt.push(Descriptor::flat_data(cpl));
                let target = m.gdt.push(Descriptor::flat_data(dpl));
                m.force_seg_from_table(SegReg::Cs, Selector::new(code, false, cpl));
                m.force_seg_from_table(SegReg::Ss, Selector::new(stack, false, cpl));

                let sel = Selector::new(target, false, rpl);
                let r = m.load_data_seg(asm86::isa::SegReg::Ss, sel);
                let allowed = rpl == cpl && dpl == cpl;
                assert_eq!(r.is_ok(), allowed, "SS cpl={cpl} rpl={rpl} dpl={dpl}");
            }
        }
    }
}

#[test]
fn gate_call_privilege_matrix() {
    // lcall through a gate: allowed iff max(CPL, RPL) <= gate DPL and
    // target code DPL <= CPL. Exercise with a ring-0 target across all
    // callers and gate DPLs.
    for cpl in 0u8..4 {
        for gate_dpl in 0u8..4 {
            for rpl in 0u8..4 {
                let mut m = Machine::new();
                let code = m.gdt.push(Descriptor::flat_code(cpl));
                let data = m.gdt.push(Descriptor::flat_data(cpl));
                let kcode = m.gdt.push(Descriptor::flat_code(0));
                let kdata = m.gdt.push(Descriptor::flat_data(0));
                let gate = m.gdt.push(Descriptor::call_gate(
                    Selector::new(kcode, false, 0),
                    0x3000,
                    gate_dpl,
                ));
                m.tss.stack[0] = (Selector::new(kdata, false, 0), 0xF000);
                m.force_seg_from_table(SegReg::Cs, Selector::new(code, false, cpl));
                m.force_seg_from_table(SegReg::Ss, Selector::new(data, false, cpl));
                m.cpu.set_reg(Reg::Esp, 0x8000);
                m.cpu.eip = 0x1000;
                m.mem.write_bytes(
                    0x1000,
                    &asm86::encode_program(&[asm86::Insn::Lcall(
                        Selector::new(gate, false, rpl).0,
                        0,
                    )]),
                );

                let r = m.step();
                let allowed = cpl.max(rpl) <= gate_dpl;
                match (allowed, r) {
                    (true, None) => {
                        assert_eq!(m.cpu.cpl, 0, "entered ring 0");
                    }
                    (false, Some(Exit::Fault(f))) => {
                        assert_eq!(f.vector, Vector::GeneralProtection);
                    }
                    (want, got) => {
                        panic!(
                            "cpl={cpl} rpl={rpl} gate={gate_dpl}: want allowed={want}, got {got:?}"
                        )
                    }
                }
            }
        }
    }
}

mod machine_fuzz {
    use super::*;
    use seedrng::SeedRng;

    /// Total machine: arbitrary bytes executed as ring-3 code always
    /// produce a defined exit (fault/hook/limit), never a panic, and
    /// never escalate privilege.
    #[test]
    fn seeded_random_bytes_never_panic_or_escalate() {
        let mut r = SeedRng::new(0xBAD5);
        for _ in 0..64 {
            let n = 1 + r.gen_range(0, 255) as usize;
            let mut code = vec![0u8; n];
            r.fill_bytes(&mut code);

            let mut m = Machine::new();
            let c3 = m.gdt.push(Descriptor::flat_code(3));
            let d3 = m.gdt.push(Descriptor::flat_data(3));
            let c0 = m.gdt.push(Descriptor::flat_code(0));
            let d0 = m.gdt.push(Descriptor::flat_data(0));
            // Tempting targets exist: a ring-0 code segment, a gate.
            let _gate = m.gdt.push(Descriptor::call_gate(
                Selector::new(c0, false, 0),
                0x5000,
                0, // DPL 0: unreachable from ring 3
            ));
            let _ = d0;
            m.idt[0x80] = Some(crate::machine::IdtGate { dpl: 3 });
            m.mem.write_bytes(0x1000, &code);
            m.force_seg_from_table(SegReg::Cs, Selector::new(c3, false, 3));
            m.force_seg_from_table(SegReg::Ss, Selector::new(d3, false, 3));
            m.force_seg_from_table(SegReg::Ds, Selector::new(d3, false, 3));
            for i in 0..8 {
                m.cpu.regs[i] = r.next_u32();
            }
            m.cpu.regs[Reg::Esp as usize] = 0x9000;
            m.cpu.eip = 0x1000;

            // Budgeted run: every step must leave CPL at 3 unless a legal
            // gate was traversed — and no DPL-3 gate to inner rings exists.
            for _ in 0..2000 {
                match m.step() {
                    None => {
                        assert_eq!(m.cpu.cpl, 3, "no privilege escalation");
                    }
                    Some(Exit::IntHook(0x80)) => {
                        // Syscall hook: a host kernel would service it;
                        // terminate the run here.
                        break;
                    }
                    Some(Exit::Fault(_)) | Some(Exit::Hlt) => break,
                    Some(other) => panic!("odd exit {other:?}"),
                }
            }
        }
    }
}

#[test]
fn straddling_store_is_atomic_across_a_fault() {
    // A 4-byte store crossing into an unmapped page must fault without
    // committing the bytes on the first (mapped) page.
    let mut m = Machine::new();
    let code0 = m.gdt.push(Descriptor::flat_code(0));
    let data0 = m.gdt.push(Descriptor::flat_data(0));
    let mut fa = crate::mem::FrameAlloc::new(0x10_0000, 0x20_0000);
    let cr3 = fa.alloc().unwrap();
    for page in [0x1000u32, 0x7000, 0x2000] {
        map_page(&mut m.mem, &mut fa, cr3, page, page, pte::RW | pte::US);
    }
    // 0x3000 is NOT mapped; the store at 0x2FFE straddles into it.
    m.mmu.set_cr3(cr3);
    m.mmu.enabled = true;

    let obj = Assembler::assemble(
        "mov eax, 0x11223344\n\
         mov [0x2FFE], eax\n\
         hlt\n",
    )
    .unwrap();
    m.mem
        .write_bytes(0x1000, &obj.link(0x1000, &BTreeMap::new()).unwrap());
    m.force_seg_from_table(SegReg::Cs, Selector::new(code0, false, 0));
    m.force_seg_from_table(SegReg::Ss, Selector::new(data0, false, 0));
    m.force_seg_from_table(SegReg::Ds, Selector::new(data0, false, 0));
    m.cpu.set_reg(Reg::Esp, 0x7FF0);
    m.cpu.eip = 0x1000;

    match m.run(10) {
        Exit::Fault(f) => assert_eq!(f.vector, Vector::PageFault),
        other => panic!("expected #PF, got {other:?}"),
    }
    assert_eq!(
        m.mem.read_u16(0x2FFE),
        0,
        "no partial bytes escaped the faulting store"
    );
}

#[test]
fn straddling_access_within_mapped_pages_works() {
    let mut m = flat_machine(
        "mov eax, 0xAABBCCDD\n\
         mov [0x2FFE], eax\n\
         mov ebx, [0x2FFE]\n\
         hlt\n",
    );
    run_to_hlt(&mut m);
    assert_eq!(m.cpu.reg(Reg::Ebx), 0xAABB_CCDD);
}

#[test]
fn condition_codes_match_reference_predicates() {
    // Exhaustive: every Jcc against every (a, b) in a small grid, checked
    // against host-side signed/unsigned comparisons after `cmp a, b`.
    use asm86::isa::Cond;
    let samples: &[u32] = &[
        0,
        1,
        2,
        0x7FFF_FFFF,
        0x8000_0000,
        0x8000_0001,
        0xFFFF_FFFE,
        0xFFFF_FFFF,
    ];
    for &a in samples {
        for &b in samples {
            let mut m = flat_machine("hlt\n");
            m.cpu.set_reg(Reg::Eax, a);
            m.execute(asm86::Insn::Cmp(Reg::Eax, asm86::Src::Imm(b as i32)), 0)
                .unwrap();
            let f = m.cpu.flags;
            let (sa, sb) = (a as i32, b as i32);
            for c in Cond::ALL {
                let cpu_taken = match c {
                    Cond::E => f.zf,
                    Cond::Ne => !f.zf,
                    Cond::L => f.sf != f.of,
                    Cond::Le => f.zf || f.sf != f.of,
                    Cond::G => !f.zf && f.sf == f.of,
                    Cond::Ge => f.sf == f.of,
                    Cond::B => f.cf,
                    Cond::Be => f.cf || f.zf,
                    Cond::A => !f.cf && !f.zf,
                    Cond::Ae => !f.cf,
                    Cond::S => f.sf,
                    Cond::Ns => !f.sf,
                };
                let want = match c {
                    Cond::E => a == b,
                    Cond::Ne => a != b,
                    Cond::L => sa < sb,
                    Cond::Le => sa <= sb,
                    Cond::G => sa > sb,
                    Cond::Ge => sa >= sb,
                    Cond::B => a < b,
                    Cond::Be => a <= b,
                    Cond::A => a > b,
                    Cond::Ae => a >= b,
                    Cond::S => sa.wrapping_sub(sb) < 0,
                    Cond::Ns => sa.wrapping_sub(sb) >= 0,
                };
                assert_eq!(
                    cpu_taken, want,
                    "cond {c:?} after cmp {a:#x}, {b:#x} (flags {f:?})"
                );
            }
        }
    }
}

#[test]
fn run_to_stops_at_breakpoints() {
    let mut m = flat_machine(
        "mov eax, 1\n\
         mov eax, 2\n\
         bp:\n\
         mov eax, 3\n\
         hlt\n",
    );
    // mov = 7 bytes each; breakpoint at the third mov.
    let bp = 0x1000 + 14;
    assert_eq!(m.run_to(bp, 100), None, "stopped before executing bp");
    assert_eq!(m.cpu.reg(Reg::Eax), 2, "two instructions executed");
    assert_eq!(m.cpu.eip, bp);
    // Continue to completion.
    assert_eq!(m.run(10), Exit::Hlt);
    assert_eq!(m.cpu.reg(Reg::Eax), 3);
}

// --- fetch-path regressions and self-modifying code ---------------------

/// Assembles one-or-more instructions and returns their raw encoding.
fn enc(src: &str) -> Vec<u8> {
    Assembler::assemble(src)
        .unwrap()
        .link(0, &BTreeMap::new())
        .unwrap()
}

/// A paged ring-0 machine with exactly one mapped code page at
/// linear/physical `0x1000`; everything else (notably `0x2000`) unmapped.
fn paged_code_page_only() -> Machine {
    let mut m = Machine::new();
    let code0 = m.gdt.push(Descriptor::flat_code(0));
    let data0 = m.gdt.push(Descriptor::flat_data(0));
    let mut fa = crate::mem::FrameAlloc::new(0x10_0000, 0x20_0000);
    let cr3 = fa.alloc().unwrap();
    map_page(&mut m.mem, &mut fa, cr3, 0x1000, 0x1000, pte::RW | pte::US);
    m.mmu.set_cr3(cr3);
    m.mmu.enabled = true;
    m.force_seg_from_table(SegReg::Cs, Selector::new(code0, false, 0));
    m.force_seg_from_table(SegReg::Ss, Selector::new(data0, false, 0));
    m.force_seg_from_table(SegReg::Ds, Selector::new(data0, false, 0));
    m
}

/// Regression (spurious #PF): a short instruction in the last bytes of a
/// mapped page must execute even though the MAX_INSN_LEN prefetch window
/// crosses into an unmapped page. The fetch may only raise the boundary
/// fault when the decoder actually needed the missing bytes.
#[test]
fn short_insn_at_end_of_mapped_page_executes() {
    let hlt = enc("hlt\n");
    assert_eq!(hlt.len(), 1);
    for predecode in [true, false] {
        let mut m = paged_code_page_only();
        m.set_predecode(predecode);
        m.mem.write_bytes(0x1FFF, &hlt);
        m.cpu.eip = 0x1FFF;
        assert_eq!(
            m.run(10),
            Exit::Hlt,
            "spurious #PF with predecode={predecode}"
        );
    }
}

/// Companion: an instruction that genuinely continues into the unmapped
/// page still page-faults, with the fault at the page boundary.
#[test]
fn truncated_insn_at_page_boundary_still_faults() {
    let mov = enc("mov eax, 1\n");
    assert!(mov.len() > 1);
    for predecode in [true, false] {
        let mut m = paged_code_page_only();
        m.set_predecode(predecode);
        m.mem.write_bytes(0x1FFF, &mov); // only byte 0 is in the mapped page
        m.cpu.eip = 0x1FFF;
        match m.run(10) {
            Exit::Fault(f) => {
                assert_eq!(f.vector, Vector::PageFault, "predecode={predecode}");
                match f.cause {
                    FaultCause::Page { linear, .. } => assert_eq!(linear, 0x2000),
                    other => panic!("wrong cause {other:?}"),
                }
            }
            other => panic!("expected #PF, got {other:?} (predecode={predecode})"),
        }
    }
}

/// An instruction that straddles the CS limit raises #GP(0) naming the
/// first offset past the limit, in both fetch modes, not #UD. A deferred
/// second-page #PF still takes precedence over the limit.
#[test]
fn insn_straddling_the_cs_limit_raises_gp() {
    let mov = enc("mov eax, 1\n");
    assert!(mov.len() > 2);
    let limit_to = |m: &mut Machine, limit: u32| {
        let d = m.gdt.push(Descriptor::Code(crate::desc::CodeSeg {
            base: 0,
            limit,
            dpl: 0,
            readable: true,
            conforming: false,
            present: true,
        }));
        m.force_seg_from_table(SegReg::Cs, Selector::new(d, false, 0));
    };
    for predecode in [true, false] {
        // Two bytes of the `mov` are inside the limit.
        let mut m = flat_machine("hlt\n");
        m.set_predecode(predecode);
        m.mem.write_bytes(0x1000, &mov);
        limit_to(&mut m, 0x1001);
        match m.run(10) {
            Exit::Fault(f) => {
                assert_eq!(
                    (f.vector, f.error_code, f.eip),
                    (Vector::GeneralProtection, 0, 0x1000),
                    "predecode={predecode}"
                );
                assert_eq!(
                    f.cause,
                    FaultCause::LimitViolation {
                        offset: 0x1002,
                        limit: 0x1001
                    },
                    "predecode={predecode}"
                );
            }
            other => panic!("expected #GP, got {other:?} (predecode={predecode})"),
        }

        // The limit cuts the window at 0x2000, which is also unmapped.
        let mut m = paged_code_page_only();
        m.set_predecode(predecode);
        m.mem.write_bytes(0x1FFF, &mov);
        limit_to(&mut m, 0x2000);
        m.cpu.eip = 0x1FFF;
        match m.run(10) {
            Exit::Fault(f) => {
                assert_eq!(f.vector, Vector::PageFault, "predecode={predecode}");
                assert_eq!(f.cr2, Some(0x2000), "predecode={predecode}");
            }
            other => panic!("expected #PF, got {other:?} (predecode={predecode})"),
        }
    }
}

/// Regression (debug-build panic): a page-straddling access whose linear
/// address wraps past 0xFFFF_FFFF must wrap like `seg_check` does, not
/// panic on `linear + i` overflow.
#[test]
fn straddling_access_wraps_past_top_of_linear_space() {
    use crate::desc::DataSeg;
    let mut m = flat_machine("hlt\n");
    let high = m.gdt.push(Descriptor::Data(DataSeg {
        base: 0xFFFF_F000,
        limit: 0xFFFF_FFFF,
        dpl: 0,
        writable: true,
        expand_down: false,
        present: true,
    }));
    m.force_seg_from_table(SegReg::Es, Selector::new(high, false, 0));

    // Linear 0xFFFF_FFFE..=0x1: straddles both the page at the top of the
    // address space and the wrap-around.
    m.mem.write_u8(0xFFFF_FFFE, 0x11);
    m.mem.write_u8(0xFFFF_FFFF, 0x22);
    m.mem.write_u8(0x0000_0000, 0x33);
    m.mem.write_u8(0x0000_0001, 0x44);
    assert_eq!(m.read_data(SegReg::Es, 0xFFE, 4), Ok(0x4433_2211));

    assert_eq!(m.write_data(SegReg::Es, 0xFFE, 4, 0xAABB_CCDD), Ok(()));
    assert_eq!(m.mem.read_u8(0xFFFF_FFFE), 0xDD);
    assert_eq!(m.mem.read_u8(0xFFFF_FFFF), 0xCC);
    assert_eq!(m.mem.read_u8(0x0000_0000), 0xBB);
    assert_eq!(m.mem.read_u8(0x0000_0001), 0xAA);
}

/// Self-modifying code via a *guest store*: the program overwrites an
/// instruction it has already executed (and which is therefore in a
/// lazily built block); the very next fetch must see the new bytes.
#[test]
fn guest_store_into_executed_code_is_seen_by_next_fetch() {
    let enc5 = enc("add eax, 5\n");
    let enc9 = enc("add eax, 9\n");
    assert_eq!(enc5.len(), enc9.len());
    // The encodings differ only in the immediate; patch the dword that
    // starts at the first differing byte.
    let w = enc5.iter().zip(&enc9).position(|(a, b)| a != b).unwrap();
    assert!(w + 4 <= enc5.len() && enc5[w + 4..] == enc9[w + 4..]);
    let patch = u32::from_le_bytes(enc9[w..w + 4].try_into().unwrap());

    let src = |addr: u32| {
        format!(
            "mov eax, 0\n\
             mov ecx, 0\n\
             top:\n\
             add eax, 5\n\
             cmp ecx, 1\n\
             je done\n\
             mov ecx, 1\n\
             mov ebx, 0x{patch:08X}\n\
             mov [0x{addr:08X}], ebx\n\
             jmp top\n\
             done:\n\
             hlt\n"
        )
    };
    // Two-pass: locate the target instruction in a probe image (every
    // operand is fixed-width, so the layout is address-independent).
    let probe = Assembler::assemble(&src(0x9999_9999))
        .unwrap()
        .link(0x1000, &BTreeMap::new())
        .unwrap();
    let t_off = probe
        .windows(enc5.len())
        .position(|w| w == &enc5[..])
        .expect("target insn in image") as u32;

    let mut m = flat_machine(&src(0x1000 + t_off + w as u32));
    run_to_hlt(&mut m);
    assert_eq!(m.cpu.reg(Reg::Eax), 14, "5 before the patch, 9 after");
}

/// Self-modifying code via `host_write` (the loader / kernel path): the
/// blocks built over the old bytes must be invalidated exactly like for
/// guest stores.
#[test]
fn host_write_into_executed_code_is_seen_by_next_fetch() {
    let enc5 = enc("add eax, 5\n");
    let enc9 = enc("add eax, 9\n");
    let mut m = flat_machine("top:\nadd eax, 5\njmp top\n");
    // `top` is at 0x1000; run two loop iterations so the add is in a block.
    assert_eq!(m.run(4), Exit::InsnLimit);
    assert_eq!(m.cpu.reg(Reg::Eax), 10);
    assert!(
        m.predecode_stats().hits > 0,
        "second loop iteration is served from a block"
    );
    assert!(m.host_write(0x1000, &enc9));
    assert_eq!(m.run(2), Exit::InsnLimit);
    assert_eq!(m.cpu.reg(Reg::Eax), 19, "the very next fetch sees 9");
    // And back again.
    assert!(m.host_write(0x1000, &enc5));
    assert_eq!(m.run(2), Exit::InsnLimit);
    assert_eq!(m.cpu.reg(Reg::Eax), 24);
}

/// A page-straddling instruction depends on *both* frames: a write that
/// only touches the second page must still be seen by the next fetch.
#[test]
fn straddling_insn_invalidated_by_store_to_second_page() {
    let add = enc("add eax, 5\n");
    let hlt = enc("hlt\n");
    assert!(add.len() >= 2);
    // Place the add so exactly its last byte (the immediate's high byte)
    // lands on the next page.
    let start = 0x2001 - add.len() as u32;
    let run_at = |image: &[u8], m: &mut Machine| {
        m.mem.write_bytes(start, image);
        m.mem.write_bytes(start + add.len() as u32, &hlt);
        m.cpu.eip = start;
        m.cpu.set_reg(Reg::Eax, 0);
        run_to_hlt(m);
        m.cpu.reg(Reg::Eax)
    };

    let mut patched = add.clone();
    *patched.last_mut().unwrap() ^= 0x01;
    // Ground truth from a fresh machine that never saw the original.
    let expected = run_at(&patched, &mut flat_machine("hlt\n"));
    assert_ne!(expected, 5);

    let mut m = flat_machine("hlt\n");
    assert_eq!(run_at(&add, &mut m), 5);
    // Patch only the byte on the second page, on the same machine.
    let got = run_at(&patched, &mut m);
    assert_eq!(got, expected, "stale straddling decode served");
}

/// The predecode fast path is cycle-neutral: an identical workload run
/// with predecode on and off retires the same instructions, charges the
/// same cycles and walks the page tables the same number of times.
#[test]
fn predecode_fast_path_is_cycle_neutral() {
    fn run(predecode: bool) -> (u64, u64, u64, u32, u32) {
        let mut m = Machine::new();
        let code0 = m.gdt.push(Descriptor::flat_code(0));
        let data0 = m.gdt.push(Descriptor::flat_data(0));
        let mut fa = crate::mem::FrameAlloc::new(0x10_0000, 0x20_0000);
        let cr3 = fa.alloc().unwrap();
        for page in [0x1000u32, 0x2000, 0x7000] {
            map_page(&mut m.mem, &mut fa, cr3, page, page, pte::RW | pte::US);
        }
        m.mmu.set_cr3(cr3);
        m.mmu.enabled = true;
        let obj = Assembler::assemble(
            "mov eax, 0\n\
             mov ecx, 50\n\
             top:\n\
             add eax, ecx\n\
             mov [0x2000], eax\n\
             mov ebx, [0x2000]\n\
             push ebx\n\
             pop edx\n\
             dec ecx\n\
             cmp ecx, 0\n\
             jne top\n\
             hlt\n",
        )
        .unwrap();
        m.mem
            .write_bytes(0x1000, &obj.link(0x1000, &BTreeMap::new()).unwrap());
        m.force_seg_from_table(SegReg::Cs, Selector::new(code0, false, 0));
        m.force_seg_from_table(SegReg::Ss, Selector::new(data0, false, 0));
        m.force_seg_from_table(SegReg::Ds, Selector::new(data0, false, 0));
        m.cpu.set_reg(Reg::Esp, 0x7FF0);
        m.cpu.eip = 0x1000;
        m.set_predecode(predecode);
        run_to_hlt(&mut m);
        (
            m.cycles(),
            m.insns(),
            m.mmu.stats.misses,
            m.cpu.reg(Reg::Eax),
            m.cpu.esp(),
        )
    }
    assert_eq!(run(true), run(false));
}

mod checkpoint {
    //! Differential checkpoint/restore tests: a restored world must be
    //! cycle/stat/fault byte-identical going forward versus the world
    //! that never checkpointed.

    use super::*;
    use seedrng::SeedRng;

    /// Everything observable about a machine's forward behaviour.
    fn observe(m: &Machine) -> (u64, u64, crate::paging::TlbStats, [u32; 8], u32, u8, usize) {
        (
            m.cycles(),
            m.insns(),
            m.mmu.stats,
            m.cpu.regs,
            m.cpu.eip,
            m.cpu.cpl,
            m.mem.resident_frames(),
        )
    }

    /// A paged two-ring-ish workload with loops, stores and stack
    /// traffic — enough to populate the TLB, the block store and a
    /// few dozen frames.
    fn paged_workload(predecode: bool) -> Machine {
        let mut m = Machine::new();
        let code0 = m.gdt.push(Descriptor::flat_code(0));
        let data0 = m.gdt.push(Descriptor::flat_data(0));
        let mut fa = crate::mem::FrameAlloc::new(0x10_0000, 0x40_0000);
        let cr3 = fa.alloc().unwrap();
        m.mem.zero(cr3, crate::mem::PAGE_SIZE);
        for page in 0..16u32 {
            assert!(map_page(
                &mut m.mem,
                &mut fa,
                cr3,
                page << 12,
                page << 12,
                pte::RW | pte::US
            ));
        }
        m.mmu.set_cr3(cr3);
        m.mmu.enabled = true;
        let obj = Assembler::assemble(
            "top:\n\
             mov eax, [0x2000]\n\
             add eax, 3\n\
             mov [0x2000], eax\n\
             push eax\n\
             pop ebx\n\
             mov [0x3000], ebx\n\
             dec ecx\n\
             cmp ecx, 0\n\
             jne top\n\
             hlt\n",
        )
        .unwrap();
        m.mem
            .write_bytes(0x1000, &obj.link(0x1000, &BTreeMap::new()).unwrap());
        m.force_seg_from_table(SegReg::Cs, Selector::new(code0, false, 0));
        m.force_seg_from_table(SegReg::Ss, Selector::new(data0, false, 0));
        m.force_seg_from_table(SegReg::Ds, Selector::new(data0, false, 0));
        m.cpu.set_reg(Reg::Esp, 0x7FF0);
        m.cpu.set_reg(Reg::Ecx, 400);
        m.cpu.eip = 0x1000;
        m.set_predecode(predecode);
        m
    }

    #[test]
    fn save_is_deterministic() {
        let m = paged_workload(true);
        assert_eq!(m.save_image(), m.save_image());
    }

    #[test]
    fn restore_resumes_byte_identically_mid_run() {
        for predecode in [true, false] {
            let mut r = SeedRng::new(0x1DE2_0001);
            for _ in 0..6 {
                let split = r.gen_range(1, 1200) as u64;
                let mut original = paged_workload(predecode);
                // Run to a random split point, checkpoint, then let the
                // original continue untouched.
                assert_eq!(original.run(split), Exit::InsnLimit);
                let img = original.save_image();
                let mut restored = Machine::restore_image(&img).unwrap();
                assert_eq!(observe(&original), observe(&restored));
                let a = original.run(1_000_000);
                let b = restored.run(1_000_000);
                assert_eq!(a, b);
                assert_eq!(
                    observe(&original),
                    observe(&restored),
                    "divergence after split {split} (predecode={predecode})"
                );
                assert_eq!(
                    original.mem.read_bytes(0x2000, 8),
                    restored.mem.read_bytes(0x2000, 8)
                );
            }
        }
    }

    #[test]
    fn restore_preserves_faults_forward() {
        // A world about to fault must fault identically after restore.
        let mut m = paged_workload(true);
        let _ = m.run(50);
        // Point it at an unmapped page.
        let obj = Assembler::assemble("mov eax, [0x00F0F000]\nhlt\n").unwrap();
        m.mem
            .write_bytes(0x1800, &obj.link(0x1800, &BTreeMap::new()).unwrap());
        m.cpu.eip = 0x1800;
        let img = m.save_image();
        let mut restored = Machine::restore_image(&img).unwrap();
        let a = m.run(10);
        let b = restored.run(10);
        assert_eq!(a, b);
        assert!(
            matches!(a, Exit::Fault(ref f) if f.vector == Vector::PageFault),
            "got {a:?}"
        );
        assert_eq!(m.cycles(), restored.cycles());
    }

    #[test]
    fn fork_then_checkpoint_then_restore_interleaving() {
        // A forked world checkpointed mid-run restores into a world
        // indistinguishable from the fork — and independent of both the
        // template and the fork.
        let mut template = paged_workload(true);
        assert_eq!(template.run(100), Exit::InsnLimit);
        let snap = template.snapshot();
        let mut fork = snap.fork();
        assert_eq!(fork.run(150), Exit::InsnLimit);
        let img = fork.save_image();
        let mut restored = Machine::restore_image(&img).unwrap();
        assert_eq!(observe(&fork), observe(&restored));
        let a = fork.run(1_000_000);
        let b = restored.run(1_000_000);
        assert_eq!(a, b);
        assert_eq!(observe(&fork), observe(&restored));
        // The template continues unaffected by either.
        let mut t = snap.fork();
        assert_eq!(t.cycles(), {
            let mut t2 = snap.fork();
            let _ = t2.run(0);
            t2.cycles()
        });
        let _ = t.run(1_000_000);
    }

    #[test]
    fn corrupted_machine_images_are_rejected_never_restored() {
        let mut m = paged_workload(true);
        let _ = m.run(300);
        let img = m.save_image();
        let mut r = SeedRng::new(0xBADC_0DE5);
        // Seeded bit flips anywhere in the image.
        for _ in 0..64 {
            let mut bad = img.clone();
            let byte = r.gen_range(0, bad.len() as u32) as usize;
            let bit = r.gen_range(0, 8) as u8;
            bad[byte] ^= 1 << bit;
            assert!(
                Machine::restore_image(&bad).is_err(),
                "bit flip at byte {byte} bit {bit} silently restored"
            );
        }
        // Seeded truncations.
        for _ in 0..32 {
            let len = r.gen_range(0, img.len() as u32) as usize;
            assert!(Machine::restore_image(&img[..len]).is_err());
        }
    }
}

mod proof_tokens {
    //! Proof-token check elision: host-only speedup, byte-identical
    //! simulated behavior, invalidated by self-modification.

    use super::*;
    use crate::proof::{ProofDs, ProofInstallError, ProofStats};

    /// A straight-line block with DS loads and stores, then `hlt`. The
    /// token covers everything but the final `hlt`.
    const BLOCK_SRC: &str = "mov eax, 0x11223344\n\
         mov [0x2000], eax\n\
         mov ebx, [0x2000]\n\
         add ebx, 1\n\
         mov [0x2004], ebx\n\
         hlt\n";

    fn block_len(m: &Machine) -> u32 {
        // Everything from 0x1000 up to (not including) the hlt.
        let bytes = m.host_read(0x1000, 64);
        let mut at = 0usize;
        loop {
            let (insn, len) = asm86::decode(&bytes[at..]).expect("decodable program");
            if matches!(insn, asm86::isa::Insn::Hlt) {
                return at as u32;
            }
            at += len;
        }
    }

    #[test]
    fn served_block_is_byte_identical_to_unelided() {
        let template = flat_machine(BLOCK_SRC).snapshot();
        let mut a = template.fork();
        let mut b = template.fork();
        let len = block_len(&a);
        a.install_proof_token(
            0x1000,
            len,
            Some(ProofDs {
                hi: 0x2007,
                loads: true,
                stores: true,
            }),
        )
        .unwrap();
        b.set_proof_elision(false);
        run_to_hlt(&mut a);
        run_to_hlt(&mut b);
        assert_eq!(a.cycles(), b.cycles());
        assert_eq!(a.insns(), b.insns());
        assert_eq!(a.cpu.reg(Reg::Eax), b.cpu.reg(Reg::Eax));
        assert_eq!(a.cpu.reg(Reg::Ebx), 0x11223345);
        assert_eq!(a.mem.read_u32(0x2004), 0x11223345);
        let stats = a.proof_stats();
        assert_eq!(stats.activations, 1);
        assert_eq!(stats.served, 5);
        assert_eq!(stats.ds_elided, 3, "three DS accesses in the block");
        // And the durable images agree byte for byte (tokens are derived
        // state, the elision flag is not serialized).
        b.set_proof_elision(true);
        assert_eq!(a.save_image(), b.save_image());
    }

    #[test]
    fn smc_invalidates_the_token() {
        let mut m = flat_machine(BLOCK_SRC);
        let len = block_len(&m);
        m.install_proof_token(0x1000, len, None).unwrap();
        run_to_hlt(&mut m);
        assert_eq!(m.proof_stats().served, 5);
        // Overwrite the first instruction's immediate (its trailing four
        // bytes): the store bumps the slot's code generation, so the
        // token must stop serving stale bytes.
        let (_, len0) = asm86::decode(&m.host_read(0x1000, 16)).unwrap();
        m.host_write_u32(0x1000 + len0 as u32 - 4, 0x5566_7788);
        m.cpu.eip = 0x1000;
        run_to_hlt(&mut m);
        assert_eq!(
            m.proof_stats().served,
            5,
            "no serves after self-modification"
        );
        assert_eq!(m.cpu.reg(Reg::Eax), 0x5566_7788, "new bytes executed");
    }

    #[test]
    fn failed_ds_guard_disables_elision_not_execution() {
        let mut m = flat_machine(BLOCK_SRC);
        let len = block_len(&m);
        // Claim a DS range beyond the flat limit is impossible; instead
        // shrink DS so the guard (hi <= limit) fails.
        let small = m.gdt.push(Descriptor::Data(crate::desc::DataSeg {
            base: 0,
            limit: 0x1fff, // excludes offset 0x2000
            dpl: 0,
            writable: true,
            expand_down: false,
            present: true,
        }));
        m.force_seg_from_table(SegReg::Ds, Selector::new(small, false, 0));
        m.install_proof_token(
            0x1000,
            len,
            Some(ProofDs {
                hi: 0x2007,
                loads: true,
                stores: true,
            }),
        )
        .unwrap();
        // The block's first DS store is now out of segment: the fault
        // must be delivered exactly as on the normal path (the entry
        // guard refused elision; the per-access check still runs).
        let exit = m.run(10);
        assert!(
            matches!(exit, Exit::Fault(ref f) if f.vector == Vector::GeneralProtection),
            "got {exit:?}"
        );
        assert_eq!(m.proof_stats().ds_elided, 0);
    }

    #[test]
    fn install_rejects_bad_blocks() {
        let mut m = flat_machine(BLOCK_SRC);
        let len = block_len(&m);
        assert_eq!(
            m.install_proof_token(0x1000, 0, None),
            Err(ProofInstallError::Empty)
        );
        assert_eq!(
            m.install_proof_token(0x1FFC, 8, None),
            Err(ProofInstallError::CrossesPage)
        );
        assert_eq!(m.proof_token_count(), 0);
        m.install_proof_token(0x1000, len, None).unwrap();
        assert_eq!(m.proof_token_count(), 1);
        m.clear_proof_tokens();
        assert_eq!(m.proof_token_count(), 0);
        // A length that does not tile the instructions installs, but the
        // block builder ignores it: the block runs unelided.
        let w = twins(flat_machine(BLOCK_SRC), &[(0x1000, len - 1, DS)]);
        assert_eq!(
            w.proof_stats(),
            ProofStats {
                installed: 1,
                ..ProofStats::default()
            }
        );
        assert_eq!(w.predecode_stats().hits, 6, "five insns and the hlt");
    }

    #[test]
    fn forked_worlds_share_tokens_copy_on_write() {
        let mut m = flat_machine(BLOCK_SRC);
        let len = block_len(&m);
        m.install_proof_token(0x1000, len, None).unwrap();
        let mut f = m.fork();
        run_to_hlt(&mut f);
        assert_eq!(f.proof_stats().served, 5);
        // The template never served anything.
        assert_eq!(m.proof_stats().served, 0);
        f.clear_proof_tokens();
        assert_eq!(m.proof_token_count(), 1, "template keeps its token");
    }

    // ----- the block builder's chaining ------------------------------------

    /// DS facts covering the data the chaining programs touch.
    const DS: Option<ProofDs> = Some(ProofDs {
        hi: 0x2007,
        loads: true,
        stores: true,
    });

    /// Linear addresses of the program at 0x1000, up to and including
    /// its last `hlt` within `n` instructions.
    fn insn_addrs(m: &Machine, n: usize) -> Vec<u32> {
        let bytes = m.host_read(0x1000, 256);
        let mut at = 0usize;
        let mut out = Vec::new();
        while out.len() < n {
            let (_, len) = asm86::decode(&bytes[at..]).expect("decodable program");
            out.push(0x1000 + at as u32);
            at += len;
        }
        out
    }

    /// Installs `proofs` (linear start, length, DS facts) in two forks of
    /// `m`, one with proof elision off, and runs both to `hlt`. Cycles,
    /// instructions, exits and whole images must agree, and the unelided
    /// twin must serve nothing as proven. Returns the elided world.
    fn twins(m: Machine, proofs: &[(u32, u32, Option<ProofDs>)]) -> Machine {
        let template = m.snapshot();
        let (mut on, mut off) = (template.fork(), template.fork());
        off.set_proof_elision(false);
        for w in [&mut on, &mut off] {
            for &(start, len, ds) in proofs {
                w.install_proof_token(start, len, ds)
                    .expect("proof installs");
            }
        }
        assert_eq!(on.run(10_000), Exit::Hlt);
        assert_eq!(off.run(10_000), Exit::Hlt);
        assert_eq!(on.cycles(), off.cycles());
        assert_eq!(on.insns(), off.insns());
        assert_eq!(off.proof_stats().served, 0);
        assert_eq!(off.proof_stats().ds_elided, 0);
        assert_eq!(on.save_image(), off.save_image());
        on
    }

    /// Proofs over consecutive instruction ranges: `bounds[i]..bounds[i+1]`
    /// with `ds[i]`.
    fn spans(
        a: &[u32],
        bounds: &[usize],
        ds: &[Option<ProofDs>],
    ) -> Vec<(u32, u32, Option<ProofDs>)> {
        bounds
            .windows(2)
            .zip(ds)
            .map(|(w, &ds)| (a[w[0]], a[w[1]] - a[w[0]], ds))
            .collect()
    }

    /// Three blocks joined by not-taken branches, then `hlt`.
    const THREE_BLOCKS: &str = "mov [0x2000], eax\n\
         cmp eax, 1\n\
         je out\n\
         mov [0x2004], eax\n\
         cmp eax, 2\n\
         je out\n\
         mov [0x2000], ebx\n\
         cmp eax, 3\n\
         je out\n\
         out:\n\
         hlt\n";

    #[test]
    fn adjacent_ds_blocks_run_as_one_proven_block() {
        // Two DS-proven blocks in a loop: each pass is one activation of
        // one run through both.
        let src = "top:\n\
                   add ecx, 1\n\
                   mov [0x2000], ecx\n\
                   cmp ecx, 100\n\
                   je out\n\
                   mov [0x2004], ecx\n\
                   cmp ecx, 4\n\
                   jne top\n\
                   out:\n\
                   hlt\n";
        let m = flat_machine(src);
        let a = insn_addrs(&m, 8);
        let w = twins(m, &spans(&a, &[0, 4, 7], &[DS, DS]));
        assert_eq!(w.cpu.reg(Reg::Ecx), 4);
        assert_eq!(
            w.proof_stats(),
            ProofStats {
                installed: 2,
                activations: 4,
                served: 28,
                ds_elided: 8,
                broken: 0,
            }
        );
    }

    #[test]
    fn entering_at_the_second_proof_runs_to_the_chain_end() {
        let mut m = flat_machine(THREE_BLOCKS);
        let a = insn_addrs(&m, 10);
        m.cpu.eip = a[3];
        let w = twins(m, &spans(&a, &[0, 3, 6, 9], &[DS, DS, DS]));
        assert_eq!(
            w.proof_stats(),
            ProofStats {
                installed: 3,
                activations: 1,
                served: 6,
                ds_elided: 2,
                broken: 0,
            }
        );
    }

    #[test]
    fn chain_stops_at_a_proof_without_ds_facts() {
        // The middle block's store is one the verifier could not bound:
        // its proof has no DS facts, so it runs as a proven block of its
        // own and its access is checked.
        let m = flat_machine(THREE_BLOCKS);
        let a = insn_addrs(&m, 10);
        let w = twins(m, &spans(&a, &[0, 3, 6, 9], &[DS, None, DS]));
        assert_eq!(
            w.proof_stats(),
            ProofStats {
                installed: 3,
                activations: 3,
                served: 9,
                ds_elided: 2,
                broken: 0,
            }
        );
    }

    #[test]
    fn chain_stops_at_the_cs_limit() {
        // The third proof lies past the CS limit. A chain through it
        // would fail the entry guard; the builder stops before it, so the
        // first two blocks still run as one proven block. (Every
        // installed proof fits its page with the fetch window, so the
        // page part of the room cannot cut a chain of adjacent proofs.)
        let src = "out:\n\
                   hlt\n\
                   top:\n\
                   mov [0x2000], eax\n\
                   cmp eax, 1\n\
                   je out\n\
                   mov [0x2004], eax\n\
                   cmp eax, 0\n\
                   je out\n\
                   mov [0x2000], ebx\n\
                   hlt\n";
        let mut m = flat_machine(src);
        let a = insn_addrs(&m, 9);
        let cs = m.gdt.push(Descriptor::Code(crate::desc::CodeSeg {
            base: 0,
            limit: a[7] - 1,
            dpl: 0,
            readable: true,
            conforming: false,
            present: true,
        }));
        m.force_seg_from_table(SegReg::Cs, Selector::new(cs, false, 0));
        m.cpu.eip = a[1];
        let w = twins(m, &spans(&a, &[1, 4, 7, 8], &[DS, DS, DS]));
        assert_eq!(
            w.proof_stats(),
            ProofStats {
                installed: 3,
                activations: 1,
                served: 6,
                ds_elided: 2,
                broken: 0,
            }
        );
    }

    #[test]
    fn proof_over_stored_bytes_gives_an_unelided_block() {
        // The program patches the proven block's immediate before
        // reaching it: the proof is about bytes that are gone, so the
        // block is built as a plain straight-line block and served
        // without elision.
        let enc5 = enc("add eax, 5\n");
        let enc9 = enc("add eax, 9\n");
        let w = enc5.iter().zip(&enc9).position(|(a, b)| a != b).unwrap();
        let patch = u32::from_le_bytes(enc9[w..w + 4].try_into().unwrap());
        let src = |at: u32| {
            format!(
                "mov ebx, 0x{patch:08X}\n\
                 mov [0x{at:08X}], ebx\n\
                 add eax, 5\n\
                 mov [0x2000], eax\n\
                 hlt\n"
            )
        };
        // Every operand is fixed-width, so the probe's layout is final.
        let a = insn_addrs(&flat_machine(&src(0x9999_9999)), 5);
        let m = flat_machine(&src(a[2] + w as u32));
        let run = twins(m, &spans(&a, &[2, 4], &[DS]));
        assert_eq!(run.cpu.reg(Reg::Eax), 9, "the patched add ran");
        assert_eq!(
            run.proof_stats(),
            ProofStats {
                installed: 1,
                ..ProofStats::default()
            }
        );
        let stats = run.predecode_stats();
        assert_eq!(
            (stats.hits, stats.misses),
            (5, 0),
            "every instruction served from a block, none decoded uncached"
        );
    }
}

// --- protection keys ------------------------------------------------------

mod protection_keys {
    use super::*;
    use crate::fault::pf_err;

    /// A ring-3 machine with flat segments running `src` at 0x1000,
    /// paging off.
    fn ring3_machine(src: &str) -> Machine {
        let mut m = Machine::new();
        let code3 = m.gdt.push(Descriptor::flat_code(3));
        let data3 = m.gdt.push(Descriptor::flat_data(3));
        let obj = Assembler::assemble(src).expect("asm");
        m.mem
            .write_bytes(0x1000, &obj.link(0x1000, &BTreeMap::new()).unwrap());
        m.force_seg_from_table(SegReg::Cs, Selector::new(code3, false, 3));
        m.force_seg_from_table(SegReg::Ss, Selector::new(data3, false, 3));
        m.force_seg_from_table(SegReg::Ds, Selector::new(data3, false, 3));
        m.cpu.set_reg(Reg::Esp, 0x8000);
        m.cpu.eip = 0x1000;
        m
    }

    #[test]
    fn wrpkru_at_cpl3_requires_registered_gate() {
        let src = "wrpkru 0xC\nrdpkru eax\nint 0x30\n";
        // Unregistered site: Garmr-style gate-integrity #GP.
        let mut m = ring3_machine(src);
        m.idt[0x30] = Some(crate::machine::IdtGate { dpl: 3 });
        match m.run(10) {
            Exit::Fault(f) => {
                assert_eq!(f.vector, Vector::GeneralProtection);
                assert_eq!(f.cause, FaultCause::KeyGateViolation { site: 0x1000 });
                assert_eq!(f.cause.tag(), "key-gate");
            }
            other => panic!("expected #GP, got {other:?}"),
        }
        assert_eq!(m.cpu.pkru, 0, "PKRU untouched by the rejected write");

        // Registered site: the write lands and rdpkru reads it back.
        let mut m = ring3_machine(src);
        m.idt[0x30] = Some(crate::machine::IdtGate { dpl: 3 });
        m.register_key_gate(0x1000);
        match m.run(10) {
            Exit::IntHook(0x30) => {}
            other => panic!("expected IntHook, got {other:?}"),
        }
        assert_eq!(m.cpu.pkru, 0xC);
        assert_eq!(m.cpu.reg(Reg::Eax), 0xC);
    }

    #[test]
    fn supervisor_wrpkru_needs_no_gate() {
        let mut m = flat_machine("wrpkru 0x3\nhlt\n");
        run_to_hlt(&mut m);
        assert_eq!(m.cpu.pkru, 0x3);
    }

    #[test]
    fn revoked_key_denies_user_access_despite_warm_memo() {
        // Ring 3, paging on: the data page carries key 5. The first load
        // succeeds (and warms the TLB, the memo and the block store);
        // a gated wrpkru then revokes key 5, and the very next load of
        // the *same* page must #PF with the PKEY error bit — the cached
        // translation may not bypass the live rights check.
        let mut m = Machine::new();
        let code3 = m.gdt.push(Descriptor::flat_code(3));
        let data3 = m.gdt.push(Descriptor::flat_data(3));
        let mut fa = crate::mem::FrameAlloc::new(0x10_0000, 0x20_0000);
        let cr3 = fa.alloc().unwrap();
        map_page(&mut m.mem, &mut fa, cr3, 0x1000, 0x1000, pte::RW | pte::US);
        map_page(&mut m.mem, &mut fa, cr3, 0x7000, 0x7000, pte::RW | pte::US);
        map_page(
            &mut m.mem,
            &mut fa,
            cr3,
            0x2000,
            0x2000,
            pte::RW | pte::US | pte::key_flags(5),
        );
        m.mmu.set_cr3(cr3);
        m.mmu.enabled = true;

        // AD for key 5 is bit 10.
        let src = "mov eax, [0x2000]\n\
                   mov eax, [0x2000]\n\
                   wrpkru 0x400\n\
                   mov ebx, [0x2000]\n\
                   int 0x30\n";
        let obj = Assembler::assemble(src).unwrap();
        m.mem
            .write_bytes(0x1000, &obj.link(0x1000, &BTreeMap::new()).unwrap());
        m.idt[0x30] = Some(crate::machine::IdtGate { dpl: 3 });
        m.force_seg_from_table(SegReg::Cs, Selector::new(code3, false, 3));
        m.force_seg_from_table(SegReg::Ss, Selector::new(data3, false, 3));
        m.force_seg_from_table(SegReg::Ds, Selector::new(data3, false, 3));
        m.cpu.set_reg(Reg::Esp, 0x8000);
        m.cpu.eip = 0x1000;

        // The wrpkru sits after the two loads.
        let load_len = enc("mov eax, [0x2000]\n").len() as u32;
        m.register_key_gate(0x1000 + 2 * load_len);

        m.mem.write_u32(0x2000, 0xFEED);
        match m.run(20) {
            Exit::Fault(f) => {
                assert_eq!(f.vector, Vector::PageFault);
                assert_eq!(f.cr2, Some(0x2000));
                assert_ne!(f.error_code & pf_err::PKEY, 0, "PKEY bit set");
                assert_ne!(f.error_code & pf_err::PRESENT, 0);
                assert_eq!(f.cause.tag(), "page-key");
            }
            other => panic!("expected #PF, got {other:?}"),
        }
        assert_eq!(m.cpu.reg(Reg::Eax), 0xFEED, "pre-revocation loads ran");
        assert_eq!(m.cpu.reg(Reg::Ebx), 0, "post-revocation load blocked");
    }

    #[test]
    fn image_roundtrip_carries_pkru_and_gate_sites() {
        let mut m = ring3_machine("wrpkru 0xC\nint 0x30\n");
        m.idt[0x30] = Some(crate::machine::IdtGate { dpl: 3 });
        m.cpu.pkru = 0x30;
        m.register_key_gate(0x1000);
        m.register_key_gate(0x4CAFE);

        let img = m.save_image();
        let mut back = Machine::restore_image(&img).unwrap();
        assert_eq!(back.cpu.pkru, 0x30);
        assert!(back.key_gate_registered(0x1000));
        assert!(back.key_gate_registered(0x4CAFE));
        assert!(!back.key_gate_registered(0x2000));
        assert_eq!(back.save_image(), img, "deterministic re-save");

        // The restored gate registration is live: the wrpkru executes.
        match back.run(10) {
            Exit::IntHook(0x30) => {}
            other => panic!("expected IntHook, got {other:?}"),
        }
        assert_eq!(back.cpu.pkru, 0xC);
    }
}

mod run_loop {
    //! `run`, `run_to` and `run_until_cycles` share one interpreter loop;
    //! each must stop exactly where a plain `step()` loop applying the
    //! same stop rule stops, with the same machine state.

    use super::*;
    use crate::machine::Flags;
    use crate::machine::PredecodeStats;
    use crate::paging::TlbStats;
    use crate::proof::{ProofDs, ProofStats};

    /// The reference loop: before each instruction stop on the budget,
    /// then the deadline, then the breakpoint.
    fn stepped(m: &mut Machine, max_insns: u64, deadline: u64, bp: Option<u32>) -> Option<Exit> {
        let mut left = max_insns;
        loop {
            if left == 0 {
                return Some(Exit::InsnLimit);
            }
            if m.cycles() >= deadline {
                return Some(Exit::CycleLimit);
            }
            if bp == Some(m.cpu.eip) {
                return None;
            }
            left -= 1;
            if let Some(exit) = m.step() {
                return Some(exit);
            }
        }
    }

    type Observed = (
        Option<Exit>,
        u32,
        [u32; 8],
        Flags,
        u64,
        u64,
        TlbStats,
        PredecodeStats,
        ProofStats,
        Vec<u8>,
    );

    fn observe(exit: Option<Exit>, m: &Machine) -> Observed {
        (
            exit,
            m.cpu.eip,
            m.cpu.regs,
            m.cpu.flags,
            m.cycles(),
            m.insns(),
            m.mmu.stats,
            m.predecode_stats(),
            m.proof_stats(),
            m.save_image(),
        )
    }

    /// Ring-0 flat segments over identity-mapped pages: code at 0x1000,
    /// data at 0x2000 and 0x3000 (0x4000 unmapped), stack below 0x8000.
    fn paged_machine(src: &str) -> Machine {
        let mut m = Machine::new();
        let code = m.gdt.push(Descriptor::flat_code(0));
        let data = m.gdt.push(Descriptor::flat_data(0));
        let mut fa = crate::mem::FrameAlloc::new(0x10_0000, 0x20_0000);
        let cr3 = fa.alloc().unwrap();
        for page in [0x1000, 0x2000, 0x3000, 0x7000] {
            map_page(&mut m.mem, &mut fa, cr3, page, page, pte::RW);
        }
        m.mmu.set_cr3(cr3);
        m.mmu.enabled = true;
        let obj = Assembler::assemble(src).expect("asm");
        let image = obj.link(0x1000, &BTreeMap::new()).expect("link");
        m.mem.write_bytes(0x1000, &image);
        m.force_seg_from_table(SegReg::Cs, Selector::new(code, false, 0));
        m.force_seg_from_table(SegReg::Ss, Selector::new(data, false, 0));
        m.force_seg_from_table(SegReg::Ds, Selector::new(data, false, 0));
        m.cpu.eip = 0x1000;
        m.cpu.set_reg(Reg::Esp, 0x8000);
        m
    }

    /// Linear addresses of the program's instructions, up to its `hlt`.
    fn insn_addrs(m: &Machine) -> Vec<u32> {
        let bytes = m.host_read(0x1000, 256);
        let mut at = 0usize;
        let mut out = Vec::new();
        loop {
            let (insn, len) = asm86::decode(&bytes[at..]).expect("decodable program");
            out.push(0x1000 + at as u32);
            if matches!(insn, asm86::isa::Insn::Hlt) {
                return out;
            }
            at += len;
        }
    }

    /// Assembles `src` on a paged machine and installs a proof token over
    /// instructions `first..end` (indices into [`insn_addrs`]).
    fn with_token(src: &str, first: usize, end: usize, ds: Option<ProofDs>) -> Machine {
        let mut m = paged_machine(src);
        let a = insn_addrs(&m);
        m.install_proof_token(a[first], a[end] - a[first], ds)
            .expect("token installs");
        m
    }

    const DS_ANY: Option<ProofDs> = Some(ProofDs {
        hi: 0x3FFF,
        loads: true,
        stores: true,
    });

    /// Compares every loop entry point against [`stepped`] on forks of
    /// `template`, over every budget, deadline and breakpoint the
    /// program's own run makes interesting.
    fn check(name: &str, template: &Machine) {
        let snap = template.snapshot();
        let mut full = snap.fork();
        let end = stepped(&mut full, 10_000, u64::MAX, None);
        assert!(
            !matches!(end, Some(Exit::InsnLimit)),
            "{name}: the program ends on its own"
        );
        let (total_insns, total_cycles) = (full.insns(), full.cycles());
        let addrs = insn_addrs(template);

        for n in 0..=total_insns + 1 {
            let (mut a, mut b) = (snap.fork(), snap.fork());
            let got = observe(Some(a.run(n)), &a);
            let want = observe(stepped(&mut b, n, u64::MAX, None), &b);
            assert_eq!(got, want, "{name}: run({n})");
        }
        for d in 0..=total_cycles + 1 {
            let (mut a, mut b) = (snap.fork(), snap.fork());
            let got = observe(Some(a.run_until_cycles(d)), &a);
            let want = observe(stepped(&mut b, u64::MAX, d, None), &b);
            assert_eq!(got, want, "{name}: run_until_cycles({d})");
        }
        for &bp in &addrs {
            for n in [0, 1, 2, 3, 5, 8, 13, 21, total_insns, total_insns + 1] {
                let (mut a, mut b) = (snap.fork(), snap.fork());
                let got = observe(a.run_to(bp, n), &a);
                let want = observe(stepped(&mut b, n, u64::MAX, Some(bp)), &b);
                assert_eq!(got, want, "{name}: run_to({bp:#x}, {n})");
            }
            // Resuming from a breakpoint steps off it: chain run_to calls
            // (one step past each stop) through the whole program.
            let (mut a, mut b) = (snap.fork(), snap.fork());
            loop {
                let got = observe(a.run_to(bp, 10_000), &a);
                let want = observe(stepped(&mut b, 10_000, u64::MAX, Some(bp)), &b);
                assert_eq!(got, want, "{name}: chained run_to({bp:#x})");
                if got.0.is_some() {
                    break;
                }
                let off = a.step();
                assert_eq!(off, b.step(), "{name}: step off {bp:#x}");
                if off.is_some() {
                    break;
                }
            }
        }
    }

    #[test]
    fn loop_in_a_proof_token_block() {
        let src = "mov ecx, 0\n\
                   top:\n\
                   add ecx, 1\n\
                   mov [0x2000], ecx\n\
                   cmp ecx, 12\n\
                   jne top\n\
                   hlt\n";
        let m = with_token(src, 1, 5, DS_ANY);
        check("token loop", &m);
        check("flat loop", &flat_machine(src));
    }

    #[test]
    fn fault_in_the_middle_of_a_block() {
        // Stores walk up through the mapped data pages into the unmapped
        // one at 0x4000: the #PF hits the second instruction of the block.
        let src = "mov ebx, 0x2000\n\
                   top:\n\
                   add ebx, 0x400\n\
                   mov [ebx], ecx\n\
                   add ecx, 1\n\
                   jmp top\n\
                   hlt\n";
        let m = with_token(src, 1, 5, DS_ANY);
        check("fault mid-block", &m);
    }

    #[test]
    fn store_into_the_next_instruction() {
        let enc5 = enc("add eax, 5\n");
        let enc9 = enc("add eax, 9\n");
        let w = enc5.iter().zip(&enc9).position(|(a, b)| a != b).unwrap();
        let patch = u32::from_le_bytes(enc9[w..w + 4].try_into().unwrap());
        let src = |at: u32| {
            format!(
                "mov ebx, 0x{patch:08X}\n\
                 mov [0x{at:08X}], ebx\n\
                 add eax, 5\n\
                 add eax, 5\n\
                 hlt\n"
            )
        };
        // Every operand is fixed-width, so the probe's layout is final.
        let probe = paged_machine(&src(0x9999_9999));
        let next = insn_addrs(&probe)[2];
        let m = with_token(&src(next + w as u32), 0, 4, None);
        let mut run = m.fork();
        assert_eq!(run.run(100), Exit::Hlt);
        assert_eq!(run.cpu.reg(Reg::Eax), 14, "the patched add ran");
        check("store into next insn", &m);
    }

    #[test]
    fn hlt_alone() {
        check("hlt", &flat_machine("hlt\n"));
        check("token hlt", &with_token("nop\nhlt\n", 0, 1, None));
    }

    #[test]
    fn budget_is_checked_before_the_breakpoint() {
        let mut m = flat_machine(
            "mov eax, 1\n\
             mov eax, 2\n\
             mov eax, 3\n\
             hlt\n",
        );
        let bp = insn_addrs(&m)[2];
        assert_eq!(m.run_to(bp, 2), Some(Exit::InsnLimit));
        assert_eq!((m.cpu.eip, m.insns()), (bp, 2));
        assert_eq!(m.run_to(bp, 5), None, "already at the breakpoint");
        assert_eq!(m.insns(), 2);
    }

    #[test]
    fn a_past_deadline_executes_nothing() {
        let mut m = flat_machine("mov eax, 1\nhlt\n");
        assert_eq!(m.run_until_cycles(0), Exit::CycleLimit);
        assert_eq!((m.insns(), m.cycles()), (0, 0));
        assert!(m.step().is_none());
        let c = m.cycles();
        assert_eq!(m.run_until_cycles(c), Exit::CycleLimit);
        assert_eq!(m.run_until_cycles(c - 1), Exit::CycleLimit);
        assert_eq!((m.insns(), m.cycles()), (1, c));
    }
}

mod translation_tables {
    //! The direct-mapped fetch/read/write translation tables: a guest's
    //! working set stays resident, conflicting pages still translate
    //! correctly, and the tables are invisible to the simulated machine
    //! (cycles, TLB statistics, faults and images match the table-less
    //! `set_predecode(false)` path).

    use super::*;
    use crate::machine::{IdtGate, MEMO_ENTRIES};
    use crate::mem::FrameAlloc;
    use crate::paging::TlbStats;

    /// First of two linear pages that share one table index.
    const A: u32 = 0x20000;
    /// `A`'s table conflict: same index at every privilege.
    const B: u32 = A + ((MEMO_ENTRIES as u32) << 12);

    /// Flat code/data selectors for rings 0, 1 and 3, indexed by ring.
    struct Rings([(u16, u16); 4]);

    impl Rings {
        fn new(m: &mut Machine) -> Rings {
            let mut sel = [(0, 0); 4];
            for ring in [0u8, 1, 3] {
                let code = m.gdt.push(Descriptor::flat_code(ring));
                let data = m.gdt.push(Descriptor::flat_data(ring));
                sel[ring as usize] = (
                    Selector::new(code, false, ring).0,
                    Selector::new(data, false, ring).0,
                );
            }
            Rings(sel)
        }

        /// Enters `ring` at `eip` with the stack top at 0x8000.
        fn enter(&self, m: &mut Machine, ring: u8, eip: u32) {
            let (code, data) = self.0[ring as usize];
            m.force_seg_from_table(SegReg::Cs, Selector(code));
            m.force_seg_from_table(SegReg::Ss, Selector(data));
            m.force_seg_from_table(SegReg::Ds, Selector(data));
            m.cpu.set_reg(Reg::Esp, 0x8000);
            m.cpu.eip = eip;
        }
    }

    /// Assembles `src` at linear 0x1000 and returns the label addresses.
    fn load(m: &mut Machine, src: &str) -> BTreeMap<String, u32> {
        let obj = Assembler::assemble(src).expect("asm");
        m.mem
            .write_bytes(0x1000, &obj.link(0x1000, &BTreeMap::new()).unwrap());
        obj.symbols
            .iter()
            .map(|(name, off)| (name.clone(), 0x1000 + off))
            .collect()
    }

    #[test]
    fn working_set_stays_resident_after_the_first_iteration() {
        // Ring 0, paging on: each iteration touches the stack page and
        // eight data pages for reads and writes.
        let mut m = Machine::new();
        let rings = Rings::new(&mut m);
        let mut fa = FrameAlloc::new(0x10_0000, 0x20_0000);
        let cr3 = fa.alloc().unwrap();
        let data: Vec<u32> = (0..8).map(|i| 0x10000 + (i << 12)).collect();
        for &page in [0x1000, 0x7000].iter().chain(&data) {
            map_page(&mut m.mem, &mut fa, cr3, page, page, pte::RW);
        }
        m.mmu.set_cr3(cr3);
        m.mmu.enabled = true;
        let mut src = String::from("mov ecx, 40\ntop:\nmov eax, ecx\n");
        for (i, page) in data.iter().enumerate() {
            src.push_str(&format!(
                "add eax, [{page:#x}]\nmov [{:#x}], eax\n",
                page + 4
            ));
            if i % 3 == 0 {
                src.push_str("push eax\npop ebx\n");
            }
        }
        src.push_str("dec ecx\ncmp ecx, 0\njne top\nhlt\n");
        let labels = load(&mut m, &src);
        rings.enter(&mut m, 0, 0x1000);

        // `mov ecx, 40`, then the loop's first instruction, then the rest
        // of the first iteration.
        assert_eq!(m.step(), None);
        assert_eq!(m.step(), None);
        assert_eq!(m.run_to(labels["top"], 1_000), None, "first iteration");
        let warm = m.predecode_stats().translation_misses;
        let hits = m.mmu.stats.hits;
        assert!(warm > 0, "the first iteration filled the tables");
        run_to_hlt(&mut m);
        assert_eq!(
            m.predecode_stats().translation_misses,
            warm,
            "no table miss once the working set is resident"
        );
        assert!(m.mmu.stats.hits > hits + 38 * 20, "accesses went through");
        assert_eq!(m.mem.read_u32(data[7] + 4), m.cpu.reg(Reg::Eax));
    }

    #[test]
    fn conflicting_pages_read_and_write_their_own_frames() {
        // `A` and `B` share a table index; map them to unrelated frames
        // so an entry answered for the wrong page would show.
        let mut m = Machine::new();
        let rings = Rings::new(&mut m);
        let mut fa = FrameAlloc::new(0x10_0000, 0x20_0000);
        let cr3 = fa.alloc().unwrap();
        map_page(&mut m.mem, &mut fa, cr3, 0x1000, 0x1000, pte::RW);
        map_page(&mut m.mem, &mut fa, cr3, 0x7000, 0x7000, pte::RW);
        map_page(&mut m.mem, &mut fa, cr3, A, 0x31000, pte::RW);
        map_page(&mut m.mem, &mut fa, cr3, B, 0x45000, pte::RW);
        m.mmu.set_cr3(cr3);
        m.mmu.enabled = true;
        let src = format!(
            "mov ecx, 30\n\
             top:\n\
             mov [{A:#x}], ecx\n\
             mov eax, ecx\n\
             add eax, 1000\n\
             mov [{B:#x}], eax\n\
             mov ebx, [{A:#x}]\n\
             mov edx, [{B:#x}]\n\
             mov edi, [{a8:#x}]\n\
             add edi, ebx\n\
             mov [{a8:#x}], edi\n\
             mov edi, [{b8:#x}]\n\
             add edi, edx\n\
             mov [{b8:#x}], edi\n\
             dec ecx\n\
             cmp ecx, 0\n\
             jne top\n\
             hlt\n",
            a8 = A + 8,
            b8 = B + 8,
        );
        load(&mut m, &src);
        rings.enter(&mut m, 0, 0x1000);
        run_to_hlt(&mut m);

        assert_eq!(m.cpu.reg(Reg::Ebx), 1);
        assert_eq!(m.cpu.reg(Reg::Edx), 1001);
        let sum: u32 = (1..=30).sum();
        assert_eq!(m.mem.read_u32(0x31000), 1);
        assert_eq!(m.mem.read_u32(0x45000), 1001);
        assert_eq!(m.mem.read_u32(0x31008), sum);
        assert_eq!(m.mem.read_u32(0x45008), sum + 30 * 1000);
        assert!(
            m.predecode_stats().translation_misses > 4 * 30,
            "the two pages evict each other every iteration"
        );
    }

    /// What one phase of the differential guest left behind: its exit
    /// (with any fault's vector, error code, CR2 and cause), cycles,
    /// instructions, TLB statistics, and registers.
    type Observed = (&'static str, Exit, u64, u64, TlbStats, [u32; 8]);

    fn observe(phase: &'static str, exit: Exit, m: &Machine) -> Observed {
        (phase, exit, m.cycles(), m.insns(), m.mmu.stats, m.cpu.regs)
    }

    /// Drives one guest through every case the tables must be invisible
    /// in, host-switching privilege and paging state between phases.
    /// Returns each phase's observation and the final image of the world
    /// and of a fork taken with warm tables.
    fn scenario(predecode: bool) -> (Vec<Observed>, Vec<u8>, Vec<u8>, u64) {
        let mut m = Machine::new();
        let rings = Rings::new(&mut m);
        let mut fa = FrameAlloc::new(0x10_0000, 0x40_0000);
        let (key, sup, unmapped) = (0x30000u32, 0x40000u32, 0x50000u32);
        let cr3 = fa.alloc().unwrap();
        let cr3b = fa.alloc().unwrap();
        for dir in [cr3, cr3b] {
            m.mem.zero(dir, crate::mem::PAGE_SIZE);
            for page in [0x1000, 0x7000] {
                map_page(&mut m.mem, &mut fa, dir, page, page, pte::RW | pte::US);
            }
            map_page(&mut m.mem, &mut fa, dir, B, B, pte::RW | pte::US);
            map_page(&mut m.mem, &mut fa, dir, sup, sup, pte::RW);
            map_page(
                &mut m.mem,
                &mut fa,
                dir,
                key,
                key,
                pte::RW | pte::US | pte::key_flags(5),
            );
        }
        // The second directory maps `A` to another frame.
        map_page(&mut m.mem, &mut fa, cr3, A, A, pte::RW | pte::US);
        map_page(&mut m.mem, &mut fa, cr3b, A, 0x60000, pte::RW | pte::US);
        m.mmu.set_cr3(cr3);
        m.mmu.enabled = true;
        m.idt[0x30] = Some(IdtGate { dpl: 3 });
        let labels = load(
            &mut m,
            &format!(
                "collide:\n\
                 mov ecx, 12\n\
                 c_top:\n\
                 mov [{A:#x}], ecx\n\
                 mov eax, ecx\n\
                 add eax, esi\n\
                 mov [{B:#x}], eax\n\
                 mov ebx, [{A:#x}]\n\
                 add ebx, [{B:#x}]\n\
                 push ebx\n\
                 pop edx\n\
                 mov edi, [{a4:#x}]\n\
                 add edi, edx\n\
                 mov [{a4:#x}], edi\n\
                 dec ecx\n\
                 cmp ecx, 0\n\
                 jne c_top\n\
                 int 0x30\n\
                 key_read:\n\
                 mov eax, [{key:#x}]\n\
                 mov [{k4:#x}], eax\n\
                 revoke:\n\
                 wrpkru 0x400\n\
                 mov ebx, [{key:#x}]\n\
                 int 0x30\n\
                 key_write:\n\
                 mov eax, [{key:#x}]\n\
                 deny_write:\n\
                 wrpkru 0x800\n\
                 mov ebx, [{key:#x}]\n\
                 mov [{key:#x}], ebx\n\
                 int 0x30\n\
                 sup_write:\n\
                 mov [{sup:#x}], esi\n\
                 int 0x30\n\
                 hole:\n\
                 mov eax, [{A:#x}]\n\
                 mov ebx, [{unmapped:#x}]\n\
                 int 0x30\n",
                a4 = A + 4,
                k4 = key + 4,
            ),
        );
        m.register_key_gate(labels["revoke"]);
        m.register_key_gate(labels["deny_write"]);
        m.set_predecode(predecode);

        let mut seen = Vec::new();
        let mut phase = |m: &mut Machine, name: &'static str, ring: u8, label: &str, esi: u32| {
            rings.enter(m, ring, labels[label]);
            m.cpu.set_reg(Reg::Esi, esi);
            m.cpu.pkru = 0;
            let exit = m.run(10_000);
            seen.push(observe(name, exit, m));
        };
        // Two conflicting pages, and one PPL 1 page at CPL 3 and CPL 1.
        phase(&mut m, "collide cpl3", 3, "collide", 100);
        phase(&mut m, "collide cpl1", 1, "collide", 200);
        phase(&mut m, "collide cpl3 again", 3, "collide", 300);
        // `wrpkru` between two accesses to a keyed page: the access
        // after the revoke faults, then a write-disable denies only the
        // write.
        phase(&mut m, "key revoke", 3, "key_read", 0);
        phase(&mut m, "key write-disable", 3, "key_write", 0);
        // Supervisor page: a fault at CPL 3, a store at CPL 1, and the
        // unmapped page right after a warm access.
        phase(&mut m, "sup cpl3", 3, "sup_write", 7);
        phase(&mut m, "sup cpl1", 1, "sup_write", 8);
        phase(&mut m, "hole", 3, "hole", 0);
        // A PTE edit without a flush keeps the cached translation; the
        // single-page flush then drops it.
        map_page(&mut m.mem, &mut fa, cr3, A, 0x61000, pte::RW | pte::US);
        phase(&mut m, "stale pte", 3, "collide", 400);
        m.mmu.flush_page(A);
        phase(&mut m, "after flush_page", 3, "collide", 500);
        // A directory switch remaps `A`, and switching back restores it.
        m.mmu.set_cr3(cr3b);
        phase(&mut m, "cr3b", 3, "collide", 600);
        m.mmu.set_cr3(cr3);
        phase(&mut m, "cr3 back", 1, "collide", 700);
        // Fork with warm tables, then write in both worlds.
        let mut child = m.fork();
        phase(&mut m, "parent after fork", 3, "collide", 800);
        phase(&mut child, "child after fork", 1, "collide", 900);
        phase(&mut child, "child key", 3, "key_write", 0);
        phase(&mut m, "parent sup", 1, "sup_write", 9);

        let misses = m.predecode_stats().translation_misses;
        // The predecode mode flag is serialized: save both worlds under
        // one setting of it.
        let image = |w: &mut Machine| {
            w.set_predecode(true);
            w.save_image()
        };
        (seen, image(&mut m), image(&mut child), misses)
    }

    #[test]
    fn tables_are_invisible_to_the_simulated_machine() {
        let (fast, fast_img, fast_child, fast_misses) = scenario(true);
        let (slow, slow_img, slow_child, slow_misses) = scenario(false);
        assert_eq!(fast.len(), slow.len());
        for (f, s) in fast.iter().zip(&slow) {
            assert_eq!(f, s, "phase `{}` diverged", f.0);
        }
        assert!(fast_img == slow_img, "world images differ");
        assert!(fast_child == slow_child, "fork images differ");
        assert!(fast_misses > 0);
        assert_eq!(slow_misses, 0, "the table-less path never consults a table");

        // The scenario really reaches every case.
        let exit = |name: &str| fast.iter().find(|o| o.0 == name).unwrap().1;
        for name in [
            "collide cpl3",
            "collide cpl1",
            "stale pte",
            "cr3b",
            "child after fork",
        ] {
            assert_eq!(exit(name), Exit::IntHook(0x30), "{name}");
        }
        for (name, addr) in [
            ("key revoke", 0x30000),
            ("key write-disable", 0x30000),
            ("sup cpl3", 0x40000),
            ("hole", 0x50000),
            ("child key", 0x30000),
        ] {
            match exit(name) {
                Exit::Fault(f) => {
                    assert_eq!(f.vector, Vector::PageFault, "{name}");
                    assert_eq!(f.cr2, Some(addr), "{name}");
                }
                other => panic!("{name}: expected #PF, got {other:?}"),
            }
        }
        assert_eq!(exit("sup cpl1"), Exit::IntHook(0x30));
    }
}

mod lazy_blocks {
    //! Lazily built blocks: every straight-line block the fetch path
    //! serves from a token is invisible to the simulated machine. Each
    //! scenario runs with predecode on (blocks) and off (the byte-wise
    //! baseline) and must leave the same exits, registers, cycles, TLB
    //! statistics and whole images after every phase.

    use super::*;
    use crate::machine::IdtGate;
    use crate::mem::FrameAlloc;
    use crate::paging::TlbStats;
    use crate::proof::MAX_LAZY_BLOCKS;

    type Observed = (String, Exit, u32, [u32; 8], u64, u64, TlbStats, Vec<u8>);

    /// One scenario's world: ring 0, 1 and 3 flat selectors, a page
    /// directory identity-mapping `pages` (user-accessible unless listed
    /// in `supervisor`), and an IDT hook at 0x30 for ring-3 exits.
    struct World {
        m: Machine,
        fa: FrameAlloc,
        cr3: u32,
        rings: [(Selector, Selector); 4],
        predecode: bool,
        seen: Vec<Observed>,
    }

    impl World {
        fn new(predecode: bool, pages: &[u32], supervisor: &[u32]) -> World {
            let mut m = Machine::new();
            let mut rings = [(Selector(0), Selector(0)); 4];
            for ring in [0u8, 1, 3] {
                let code = m.gdt.push(Descriptor::flat_code(ring));
                let data = m.gdt.push(Descriptor::flat_data(ring));
                rings[ring as usize] = (
                    Selector::new(code, false, ring),
                    Selector::new(data, false, ring),
                );
            }
            let mut fa = FrameAlloc::new(0x100_0000, 0x140_0000);
            let cr3 = fa.alloc().unwrap();
            m.mem.zero(cr3, crate::mem::PAGE_SIZE);
            for &page in pages.iter().chain(supervisor).chain(&[0x7000]) {
                let user = if supervisor.contains(&page) {
                    0
                } else {
                    pte::US
                };
                assert!(map_page(
                    &mut m.mem,
                    &mut fa,
                    cr3,
                    page,
                    page,
                    pte::RW | user
                ));
            }
            m.mmu.set_cr3(cr3);
            m.mmu.enabled = true;
            m.idt[0x30] = Some(IdtGate { dpl: 3 });
            m.set_predecode(predecode);
            World {
                m,
                fa,
                cr3,
                rings,
                predecode,
                seen: Vec::new(),
            }
        }

        /// Assembles `src` at `base` and returns its label addresses.
        fn load(&mut self, base: u32, src: &str) -> BTreeMap<String, u32> {
            let obj = Assembler::assemble(src).expect("asm");
            assert!(self
                .m
                .host_write(base, &obj.link(base, &BTreeMap::new()).unwrap()));
            obj.symbols
                .iter()
                .map(|(name, off)| (name.clone(), base + off))
                .collect()
        }

        /// Enters `ring` at `eip` through flat segments, stack top 0x8000.
        fn enter(&mut self, ring: u8, eip: u32) {
            let (code, data) = self.rings[ring as usize];
            self.m.force_seg_from_table(SegReg::Cs, code);
            self.m.force_seg_from_table(SegReg::Ss, data);
            self.m.force_seg_from_table(SegReg::Ds, data);
            self.m.cpu.set_reg(Reg::Esp, 0x8000);
            self.m.cpu.eip = eip;
        }

        /// Runs up to `budget` instructions and records the phase.
        fn run(&mut self, phase: &str, budget: u64) -> Exit {
            let exit = self.m.run(budget);
            let m = &mut self.m;
            self.seen.push(observe(phase, exit, m, self.predecode));
            exit
        }
    }

    fn observe(phase: &str, exit: Exit, m: &mut Machine, predecode: bool) -> Observed {
        // The predecode flag is serialized: save under one setting.
        if !predecode {
            m.set_predecode(true);
        }
        let image = m.save_image();
        m.set_predecode(predecode);
        (
            phase.to_string(),
            exit,
            m.cpu.eip,
            m.cpu.regs,
            m.cycles(),
            m.insns(),
            m.mmu.stats,
            image,
        )
    }

    /// Runs `scenario` with predecode on and off, asserts every phase
    /// agrees, and returns the predecode-on world.
    fn differential(name: &str, scenario: fn(&mut World)) -> World {
        let worlds = [true, false].map(|predecode| {
            let mut w = World::new(predecode, &[0x1000, 0x2000, 0x3000], &[0x5000]);
            scenario(&mut w);
            w
        });
        let [on, off] = worlds;
        assert!(!on.seen.is_empty(), "{name}: no phase recorded");
        assert_eq!(on.seen.len(), off.seen.len(), "{name}");
        for (a, b) in on.seen.iter().zip(&off.seen) {
            let state = |o: &Observed| (o.0.clone(), o.1, o.2, o.3, o.4, o.5, o.6);
            assert_eq!(state(a), state(b), "{name}: phase diverged");
            assert!(a.7 == b.7, "{name}: phase `{}` images differ", a.0);
        }
        let (_, served) = on.m.lazy_block_stats();
        assert!(served > 0, "{name}: no instruction served from a block");
        assert_eq!(
            off.m.lazy_block_stats(),
            (0, 0),
            "{name}: byte-wise built blocks"
        );
        on
    }

    /// `src` with `{at}` replaced by the address of the 32-bit immediate
    /// of the `add eax, 5` at label `patch`, assembled at 0x1000.
    fn patched_src(src: &str) -> String {
        let enc5 = enc("add eax, 5\n");
        let enc9 = enc("add eax, 9\n");
        let w = enc5.iter().zip(&enc9).position(|(a, b)| a != b).unwrap();
        // Every operand is fixed-width, so the probe's layout is final.
        let probe = Assembler::assemble(&src.replace("{at}", "0x99999999")).unwrap();
        let at = 0x1000 + probe.symbols["patch"] + w as u32;
        src.replace("{at}", &format!("{at:#x}"))
    }

    #[test]
    fn guest_store_into_a_running_block() {
        // Each iteration stores its counter into the immediate of the
        // `add` two instructions further down the same block.
        differential("guest smc", |w| {
            let src = patched_src(
                "mov ecx, 0\n\
                 mov eax, 0\n\
                 top:\n\
                 add ecx, 1\n\
                 mov [{at}], ecx\n\
                 patch:\n\
                 add eax, 5\n\
                 cmp ecx, 10\n\
                 jne top\n\
                 int 0x30\n",
            );
            w.load(0x1000, &src);
            w.enter(0, 0x1000);
            assert_eq!(w.run("loop", 1_000), Exit::IntHook(0x30));
            assert_eq!(w.m.cpu.reg(Reg::Eax), 55, "every patched add ran");
        });
    }

    #[test]
    fn host_write_into_a_running_block() {
        differential("host smc", |w| {
            let labels = w.load(
                0x1000,
                "mov eax, 0\n\
                 mov ecx, 0\n\
                 top:\n\
                 add ecx, 1\n\
                 mov ebx, ecx\n\
                 patch:\n\
                 add eax, 5\n\
                 cmp ecx, 20\n\
                 jne top\n\
                 int 0x30\n",
            );
            w.enter(0, 0x1000);
            // Stop inside the block, before the add, on the 7th pass.
            assert_eq!(w.run("before", 2 + 5 * 6 + 1), Exit::InsnLimit);
            assert!(w.m.host_write(labels["patch"], &enc("add eax, 9\n")));
            assert_eq!(w.run("after", 1_000), Exit::IntHook(0x30));
            assert_eq!(w.m.cpu.reg(Reg::Eax), 6 * 5 + 14 * 9);
        });
    }

    #[test]
    fn block_tail_past_the_cs_limit() {
        differential("cs limit", |w| {
            let src = "mov ecx, 3\n\
                       top:\n\
                       sub ecx, 1\n\
                       cmp ecx, 0\n\
                       jne top\n\
                       mov eax, 1\n\
                       cut:\n\
                       mov ebx, 2\n\
                       mov edx, 3\n\
                       int 0x30\n";
            let a = w.load(0x1000, src);
            let b = w.load(0x3000, src);
            let limited = |w: &mut World, cut: u32| {
                let d = w.m.gdt.push(Descriptor::Code(crate::desc::CodeSeg {
                    base: 0,
                    limit: cut + 1,
                    dpl: 0,
                    readable: true,
                    conforming: false,
                    present: true,
                }));
                w.m.force_seg_from_table(SegReg::Cs, Selector::new(d, false, 0));
            };
            // Blocks built under the flat segment, then entered under a
            // limit that cuts their tail: the entry guard refuses them,
            // and the fetch of the cut instruction faults.
            w.enter(0, 0x1000);
            assert_eq!(w.run("flat", 100), Exit::IntHook(0x30));
            w.enter(0, 0x1000);
            limited(w, a["cut"]);
            let exit = w.run("cut after build", 100);
            assert!(
                matches!(exit, Exit::Fault(f) if f.eip == a["cut"]),
                "{exit:?}"
            );
            // Blocks first built under the limit stop short of it.
            w.enter(0, 0x3000);
            limited(w, b["cut"]);
            let exit = w.run("cut before build", 100);
            assert!(
                matches!(exit, Exit::Fault(f) if f.eip == b["cut"]),
                "{exit:?}"
            );
            w.enter(0, 0x3000);
            assert_eq!(w.run("flat again", 100), Exit::IntHook(0x30));
        });
    }

    #[test]
    fn code_on_a_page_never_written() {
        // 0x3000 is mapped, but its frame was never written: its zeros
        // decode as `nop` up to the unmapped page at 0x4000. No fetch
        // may back that frame: the images must agree on resident frames.
        differential("never written", |w| {
            w.load(
                0x1000,
                "mov ecx, 3\n\
                 top:\n\
                 sub ecx, 1\n\
                 cmp ecx, 0\n\
                 jne top\n\
                 mov ebx, 0x3000\n\
                 jmp ebx\n",
            );
            w.enter(0, 0x1000);
            assert_eq!(w.run("into zeros", 20), Exit::InsnLimit);
            let exit = w.run("off the end", 10_000);
            assert!(
                matches!(exit, Exit::Fault(f) if f.cr2 == Some(0x4000)),
                "{exit:?}"
            );
        });
    }

    #[test]
    fn code_in_the_last_fetch_window_of_a_page() {
        // Every alignment of a loop that runs through the last
        // MAX_INSN_LEN bytes of one page into the next.
        differential("page tail", |w| {
            for start in 0x1FD8..0x1FF0 {
                w.load(
                    start,
                    "mov ecx, 0\n\
                     top:\n\
                     add ecx, 1\n\
                     add eax, ecx\n\
                     mov ebx, 0x12345678\n\
                     add edx, ebx\n\
                     mov esi, eax\n\
                     cmp ecx, 5\n\
                     jne top\n\
                     int 0x30\n",
                );
                w.enter(0, start);
                assert_eq!(w.run("tail", 100), Exit::IntHook(0x30));
            }
        });
    }

    #[test]
    fn fault_mid_block_then_resume() {
        differential("fault mid-block", |w| {
            w.load(
                0x1000,
                "mov ebx, 0x4000\n\
                 top:\n\
                 add ecx, 1\n\
                 mov [ebx], ecx\n\
                 add eax, ecx\n\
                 cmp ecx, 5\n\
                 jne top\n\
                 int 0x30\n",
            );
            w.enter(0, 0x1000);
            let exit = w.run("fault", 100);
            assert!(matches!(exit, Exit::Fault(f) if f.cr2 == Some(0x4000)));
            let cr3 = w.cr3;
            assert!(map_page(
                &mut w.m.mem,
                &mut w.fa,
                cr3,
                0x4000,
                0x4000,
                pte::RW
            ));
            assert_eq!(w.run("resume", 100), Exit::IntHook(0x30));
            assert_eq!(w.m.cpu.reg(Reg::Eax), 15);
        });
    }

    #[test]
    fn cr3_switch_and_flush_page_remap_code() {
        differential("remap", |w| {
            let src = |k: u32| {
                format!(
                    "mov eax, 0\n\
                     mov ecx, 3\n\
                     top:\n\
                     add eax, {k}\n\
                     sub ecx, 1\n\
                     cmp ecx, 0\n\
                     jne top\n\
                     int 0x30\n"
                )
            };
            // Linear 0x6000 maps to frame 0x6000 in one directory and
            // 0x9000 in the other; each frame holds its own program.
            let (a, b) = (w.cr3, w.fa.alloc().unwrap());
            w.m.mem.zero(b, crate::mem::PAGE_SIZE);
            for page in [0x1000, 0x7000] {
                assert!(map_page(&mut w.m.mem, &mut w.fa, b, page, page, pte::RW));
            }
            assert!(map_page(
                &mut w.m.mem,
                &mut w.fa,
                a,
                0x6000,
                0x6000,
                pte::RW
            ));
            assert!(map_page(
                &mut w.m.mem,
                &mut w.fa,
                b,
                0x6000,
                0x9000,
                pte::RW
            ));
            w.load(0x6000, &src(1));
            w.m.mmu.set_cr3(b);
            w.load(0x6000, &src(100));
            for (phase, dir, want) in [("b", b, 300), ("a", a, 3), ("b again", b, 300)] {
                w.m.mmu.set_cr3(dir);
                w.enter(0, 0x6000);
                assert_eq!(w.run(phase, 100), Exit::IntHook(0x30));
                assert_eq!(w.m.cpu.reg(Reg::Eax), want, "{phase}");
            }
            // In `a`, point 0x6000 at `b`'s frame without a flush: the
            // TLB keeps the old translation until `flush_page`.
            w.m.mmu.set_cr3(a);
            w.enter(0, 0x6000);
            assert_eq!(w.run("warm a", 100), Exit::IntHook(0x30));
            assert!(map_page(
                &mut w.m.mem,
                &mut w.fa,
                a,
                0x6000,
                0x9000,
                pte::RW
            ));
            w.enter(0, 0x6000);
            assert_eq!(w.run("stale pte", 100), Exit::IntHook(0x30));
            assert_eq!(w.m.cpu.reg(Reg::Eax), 3);
            w.m.mmu.flush_page(0x6000);
            w.enter(0, 0x6000);
            assert_eq!(w.run("flushed", 100), Exit::IntHook(0x30));
            assert_eq!(w.m.cpu.reg(Reg::Eax), 300);
        });
    }

    #[test]
    fn cpl_change_between_runs_of_one_block() {
        // The same loop on a user page and on a supervisor page, entered
        // at CPL 0, 1 and 3: CPL 3 faults fetching the supervisor copy.
        differential("cpl", |w| {
            let src = "mov ecx, 3\n\
                       top:\n\
                       add eax, ecx\n\
                       sub ecx, 1\n\
                       cmp ecx, 0\n\
                       jne top\n\
                       int 0x30\n";
            w.load(0x1000, src);
            w.load(0x5000, src);
            for (phase, ring, eip) in [
                ("sup cpl0", 0, 0x5000),
                ("sup cpl3", 3, 0x5000),
                ("user cpl3", 3, 0x1000),
                ("user cpl0", 0, 0x1000),
                ("sup cpl1", 1, 0x5000),
                ("sup cpl3 again", 3, 0x5000),
            ] {
                w.enter(ring, eip);
                let exit = w.run(phase, 100);
                if phase.starts_with("sup cpl3") {
                    assert!(matches!(exit, Exit::Fault(f) if f.cr2 == Some(0x5000)));
                } else {
                    assert_eq!(exit, Exit::IntHook(0x30), "{phase}");
                }
            }
        });
    }

    #[test]
    fn fork_with_blocks_built_in_both_worlds() {
        differential("fork", |w| {
            let labels = w.load(
                0x1000,
                "mov eax, 0\n\
                 mov ecx, 4\n\
                 top:\n\
                 patch:\n\
                 add eax, 5\n\
                 sub ecx, 1\n\
                 cmp ecx, 0\n\
                 jne top\n\
                 int 0x30\n",
            );
            w.enter(0, 0x1000);
            assert_eq!(w.run("template", 100), Exit::IntHook(0x30));
            let parent = w.m.fork();
            // The child rewrites the add; the parent keeps its blocks.
            assert!(w.m.host_write(labels["patch"], &enc("add eax, 9\n")));
            w.enter(0, 0x1000);
            assert_eq!(w.run("child", 100), Exit::IntHook(0x30));
            assert_eq!(w.m.cpu.reg(Reg::Eax), 36);
            let child = std::mem::replace(&mut w.m, parent);
            w.enter(0, 0x1000);
            assert_eq!(w.run("parent", 100), Exit::IntHook(0x30));
            assert_eq!(w.m.cpu.reg(Reg::Eax), 20);
            w.m = child;
            w.enter(0, 0x1000);
            assert_eq!(w.run("child again", 100), Exit::IntHook(0x30));
            assert_eq!(w.m.cpu.reg(Reg::Eax), 36);
        });
    }

    #[test]
    fn block_store_stays_bounded_past_the_cap() {
        // A chain of more two-instruction blocks than the store keeps,
        // run twice: the store drops its blocks and rebuilds them.
        const CHAIN: usize = MAX_LAZY_BLOCKS + 500;
        let on = differential("cap", |w| {
            let mut src = String::from("mov ecx, 2\ntop:\n");
            for i in 0..CHAIN {
                src.push_str(&format!("add eax, 1\njmp j{i}\nj{i}:\n"));
            }
            src.push_str("sub ecx, 1\ncmp ecx, 0\njne top\nint 0x30\n");
            let cr3 = w.cr3;
            for page in (0x8000..0x20000).step_by(0x1000) {
                assert!(map_page(&mut w.m.mem, &mut w.fa, cr3, page, page, pte::RW));
            }
            w.load(0x8000, &src);
            w.enter(0, 0x8000);
            assert_eq!(w.run("chain", 100_000), Exit::IntHook(0x30));
            assert_eq!(w.m.cpu.reg(Reg::Eax), 2 * CHAIN as u32);
        });
        let (blocks, served) = on.m.lazy_block_stats();
        assert!(blocks <= MAX_LAZY_BLOCKS, "{blocks} blocks stored");
        assert!(served > 2 * CHAIN as u64, "the second pass was served");
    }
}
