//! Kernel-level tests: spawn/run, syscalls, the Palladium syscalls, fork
//! semantics and signal delivery.

use std::collections::BTreeMap;

use asm86::isa::Reg;
use asm86::Assembler;

use crate::kernel::{Budget, Kernel, Outcome};
use crate::layout::{sys, USER_TEXT};
use crate::SIGSEGV;

fn spawn(k: &mut Kernel, src: &str) -> crate::Tid {
    let obj = Assembler::assemble(src).expect("asm");
    let tid = k.spawn(&obj, &BTreeMap::new()).expect("spawn");
    k.switch_to(tid);
    tid
}

fn run(k: &mut Kernel) -> Outcome {
    k.run_current(Budget::Insns(1_000_000))
}

#[test]
fn hello_world_via_write_and_exit() {
    let mut k = Kernel::boot();
    spawn(
        &mut k,
        &format!(
            "_start:\n\
             mov eax, {write}\n\
             mov ebx, 1\n\
             mov ecx, msg\n\
             mov edx, 6\n\
             int 0x80\n\
             mov eax, {exit}\n\
             mov ebx, 7\n\
             int 0x80\n\
             msg:\n\
             .asciz \"hello\\n\"\n",
            write = sys::WRITE,
            exit = sys::EXIT,
        ),
    );
    assert_eq!(run(&mut k), Outcome::Exited(7));
    assert_eq!(k.console_text(), "hello\n");
    assert_eq!(k.stats.syscalls, 2);
}

#[test]
fn getpid_returns_tid() {
    let mut k = Kernel::boot();
    let tid = spawn(
        &mut k,
        &format!(
            "_start:\n\
             mov eax, {getpid}\n\
             int 0x80\n\
             mov ebx, eax\n\
             mov eax, {exit}\n\
             int 0x80\n",
            getpid = sys::GETPID,
            exit = sys::EXIT,
        ),
    );
    assert_eq!(run(&mut k), Outcome::Exited(tid as i32));
}

#[test]
fn user_task_cannot_touch_kernel_memory() {
    // The user segments end at 3 GB — a load above that faults on the
    // segment limit, and without a handler the task dies with SIGSEGV.
    let mut k = Kernel::boot();
    spawn(&mut k, "_start:\nmov eax, [0xD0000000]\nhlt\n");
    match run(&mut k) {
        Outcome::Signaled { sig, .. } => assert_eq!(sig, SIGSEGV),
        other => panic!("expected SIGSEGV kill, got {other:?}"),
    }
    assert_eq!(k.stats.kills, 1);
}

#[test]
fn unmapped_page_kills_task() {
    let mut k = Kernel::boot();
    spawn(&mut k, "_start:\nmov eax, [0x70000000]\nhlt\n");
    match run(&mut k) {
        Outcome::Signaled { sig, fault } => {
            assert_eq!(sig, SIGSEGV);
            assert_eq!(fault.cr2, Some(0x7000_0000));
        }
        other => panic!("expected SIGSEGV, got {other:?}"),
    }
}

#[test]
fn mmap_then_use() {
    let mut k = Kernel::boot();
    spawn(
        &mut k,
        &format!(
            "_start:\n\
             mov eax, {mmap}\n\
             mov ebx, 0\n\
             mov ecx, 8192\n\
             mov edx, 3\n\
             int 0x80\n\
             mov ebx, eax\n\
             mov [ebx], ebx          ; write to the new mapping\n\
             mov ecx, [ebx]\n\
             mov eax, {exit}\n\
             mov ebx, 0\n\
             int 0x80\n",
            mmap = sys::MMAP,
            exit = sys::EXIT,
        ),
    );
    assert_eq!(run(&mut k), Outcome::Exited(0));
}

#[test]
fn brk_grows_heap() {
    let mut k = Kernel::boot();
    spawn(
        &mut k,
        &format!(
            "_start:\n\
             mov eax, {brk}\n\
             mov ebx, 0\n\
             int 0x80\n\
             mov ecx, eax           ; current brk\n\
             add ecx, 8192\n\
             mov eax, {brk}\n\
             mov ebx, ecx\n\
             int 0x80\n\
             sub ecx, 100\n\
             mov [ecx], eax         ; touch new heap\n\
             mov eax, {exit}\n\
             mov ebx, 0\n\
             int 0x80\n",
            brk = sys::BRK,
            exit = sys::EXIT,
        ),
    );
    assert_eq!(run(&mut k), Outcome::Exited(0));
}

#[test]
fn init_pl_promotes_to_spl2() {
    let mut k = Kernel::boot();
    let tid = spawn(
        &mut k,
        &format!(
            "_start:\n\
             mov eax, {init_pl}\n\
             int 0x80\n\
             mov ebx, eax           ; 0 on success\n\
             mov eax, cs            ; observe new CS\n\
             and eax, 3             ; RPL = SPL\n\
             mov ecx, eax\n\
             mov eax, {exit}\n\
             int 0x80\n",
            init_pl = sys::INIT_PL,
            exit = sys::EXIT,
        ),
    );
    assert_eq!(run(&mut k), Outcome::Exited(0));
    assert_eq!(k.task(tid).task_spl, 2);
    assert_eq!(k.m.cpu.reg(Reg::Ecx), 2, "CS RPL became 2 after init_PL");
    assert!(k.task(tid).ring2_stack_top.is_some());
}

#[test]
fn init_pl_marks_writable_pages_ppl0() {
    use x86sim::paging::{get_pte, pte};
    let mut k = Kernel::boot();
    let tid = spawn(
        &mut k,
        &format!(
            "_start:\n\
             mov eax, {init_pl}\n\
             int 0x80\n\
             mov eax, {exit}\n\
             mov ebx, 0\n\
             int 0x80\n",
            init_pl = sys::INIT_PL,
            exit = sys::EXIT,
        ),
    );
    // Before: image pages are user-visible.
    let cr3 = k.task(tid).cr3;
    let before = get_pte(&k.m.mem, cr3, USER_TEXT).unwrap();
    assert_ne!(before & pte::US, 0);
    assert_eq!(run(&mut k), Outcome::Exited(0));
    // After: writable pages (incl. the image) are PPL 0.
    let after = get_pte(&k.m.mem, cr3, USER_TEXT).unwrap();
    assert_eq!(after & pte::US, 0, "image page demoted to PPL 0");
}

#[test]
fn init_pl_twice_fails() {
    let mut k = Kernel::boot();
    spawn(
        &mut k,
        &format!(
            "_start:\n\
             mov eax, {init_pl}\n\
             int 0x80\n\
             mov eax, {init_pl}\n\
             int 0x80\n\
             mov ebx, eax\n\
             mov eax, {exit}\n\
             int 0x80\n",
            init_pl = sys::INIT_PL,
            exit = sys::EXIT,
        ),
    );
    match run(&mut k) {
        Outcome::Exited(code) => assert!(code < 0, "second init_PL returns -EPERM"),
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn set_range_exposes_pages_to_ppl1() {
    use x86sim::paging::{get_pte, pte};
    let mut k = Kernel::boot();
    let tid = spawn(
        &mut k,
        &format!(
            "_start:\n\
             mov eax, {init_pl}\n\
             int 0x80\n\
             ; mmap a shared area (comes back PPL 0 because we are SPL 2)\n\
             mov eax, {mmap}\n\
             mov ebx, 0\n\
             mov ecx, 4096\n\
             mov edx, 3\n\
             int 0x80\n\
             mov esi, eax            ; keep address\n\
             ; expose it\n\
             mov ebx, eax\n\
             mov ecx, 4096\n\
             mov eax, {set_range}\n\
             int 0x80\n\
             mov eax, {exit}\n\
             mov ebx, 0\n\
             int 0x80\n",
            init_pl = sys::INIT_PL,
            mmap = sys::MMAP,
            set_range = sys::SET_RANGE,
            exit = sys::EXIT,
        ),
    );
    assert_eq!(run(&mut k), Outcome::Exited(0));
    let addr = k.m.cpu.reg(Reg::Esi);
    let cr3 = k.task(tid).cr3;
    let p = get_pte(&k.m.mem, cr3, addr).unwrap();
    assert_ne!(p & pte::US, 0, "set_range made the page PPL 1");
}

#[test]
fn set_range_requires_promotion() {
    let mut k = Kernel::boot();
    spawn(
        &mut k,
        &format!(
            "_start:\n\
             mov eax, {set_range}\n\
             mov ebx, {text}\n\
             mov ecx, 4096\n\
             int 0x80\n\
             mov ebx, eax\n\
             mov eax, {exit}\n\
             int 0x80\n",
            set_range = sys::SET_RANGE,
            text = USER_TEXT,
            exit = sys::EXIT,
        ),
    );
    match run(&mut k) {
        Outcome::Exited(code) => assert!(code < 0),
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn fork_inherits_spl_and_memory() {
    let mut k = Kernel::boot();
    let parent = spawn(
        &mut k,
        &format!(
            "_start:\n\
             mov eax, {init_pl}\n\
             int 0x80\n\
             mov eax, {fork}\n\
             int 0x80\n\
             mov ebx, eax            ; child tid in parent, 0 in child\n\
             mov eax, {exit}\n\
             int 0x80\n",
            init_pl = sys::INIT_PL,
            fork = sys::FORK,
            exit = sys::EXIT,
        ),
    );
    let out = run(&mut k);
    let child = match out {
        Outcome::Exited(code) if code > 0 => code as u32,
        other => panic!("expected parent exit with child tid, got {other:?}"),
    };
    // §4.5.2: privilege levels inherited across fork.
    assert_eq!(k.task(child).task_spl, 2);
    assert_eq!(k.task(parent).task_spl, 2);
    assert_eq!(k.stats.forks, 1);

    // Run the child: it resumes right after fork with eax = 0 and exits 0.
    k.switch_to(child);
    assert_eq!(run(&mut k), Outcome::Exited(0));

    // PPL markings were copied: the child's image page is PPL 0.
    use x86sim::paging::{get_pte, pte};
    let p = get_pte(&k.m.mem, k.task(child).cr3, USER_TEXT).unwrap();
    assert_eq!(p & pte::US, 0);
}

#[test]
fn exec_resets_privilege_state() {
    let mut k = Kernel::boot();
    let tid = spawn(
        &mut k,
        &format!(
            "_start:\n\
             mov eax, {init_pl}\n\
             int 0x80\n\
             mov eax, 99\n\
             int 0x80              ; unknown syscall: returns -ENOSYS\n\
             jmp _start            ; never reached meaningfully\n",
            init_pl = sys::INIT_PL,
        ),
    );
    // Run until promoted (two syscalls serviced).
    let _ = k.run_current(Budget::Insns(8));
    assert_eq!(k.task(tid).task_spl, 2);

    // exec a fresh program.
    let fresh = Assembler::assemble(&format!(
        "_start:\nmov eax, {exit}\nmov ebx, 42\nint 0x80\n",
        exit = sys::EXIT
    ))
    .unwrap();
    k.exec_current(&fresh, &BTreeMap::new()).unwrap();
    assert_eq!(k.task(tid).task_spl, 3, "exec resets taskSPL to 3");
    assert_eq!(run(&mut k), Outcome::Exited(42));
}

#[test]
fn signal_handler_runs_and_sigreturn_resumes() {
    let mut k = Kernel::boot();
    let obj = Assembler::assemble(&format!(
        "_start:\n\
             mov eax, {sigaction}\n\
             mov ebx, handler\n\
             int 0x80\n\
             mov eax, [0x70000000]   ; fault: unmapped\n\
             after:\n\
             mov eax, {exit}\n\
             mov ebx, 0\n\
             int 0x80\n\
             handler:\n\
             mov edi, [counter]      ; count handler entries in memory\n\
             inc edi\n\
             mov [counter], edi\n\
             int 0x83                ; sigreturn restarts the faulting insn\n\
             counter:\n\
             .dd 0\n",
        sigaction = sys::SIGACTION,
        exit = sys::EXIT,
    ))
    .unwrap();
    let tid = k.spawn(&obj, &BTreeMap::new()).unwrap();
    k.switch_to(tid);
    // Each sigreturn restarts the faulting load, which faults again and
    // re-enters the handler — registers are restored by sigreturn, so the
    // evidence lives in memory.
    let out = k.run_current(Budget::Insns(300));
    assert!(
        k.stats.signals_delivered >= 2,
        "handler re-entered on restart"
    );
    let counter_addr = USER_TEXT + obj.symbol("counter").unwrap();
    let count = k.m.host_read_u32(counter_addr);
    assert!(count >= 2, "handler body ran {count} times");
    assert_eq!(out, Outcome::Budget, "restart loop capped by budget");
}

#[test]
fn syscalls_rejected_from_spl3_code_of_promoted_task() {
    // After init_PL, force the saved context's CS back to ring 3 (as if an
    // extension were running) and attempt a syscall: the kernel must
    // reject it with EPERM (§4.5.2).
    let mut k = Kernel::boot();
    spawn(
        &mut k,
        &format!(
            "_start:\n\
             mov eax, {init_pl}\n\
             int 0x80\n\
             spin:\n\
             jmp spin\n",
            init_pl = sys::INIT_PL,
        ),
    );
    let _ = k.run_current(Budget::Insns(4));

    // Simulate extension code: CS at ring 3 (the extension segment), still
    // inside the same task.
    let ucode = k.sel.ucode;
    let udata = k.sel.udata;
    k.m.force_seg_from_table(asm86::isa::SegReg::Cs, ucode);
    k.m.force_seg_from_table(asm86::isa::SegReg::Ss, udata);
    // Build an `int 0x80` at a fresh user page the extension could run.
    let obj = Assembler::assemble(
        "ext:\n\
         mov eax, 4\n\
         mov ebx, 1\n\
         mov ecx, 0\n\
         mov edx, 0\n\
         int 0x80\n\
         spin:\n\
         jmp spin\n",
    )
    .unwrap();
    let image = obj.link(0x5000_0000, &BTreeMap::new()).unwrap();
    let tid = k.current_tid().unwrap();
    let cr3 = k.task(tid).cr3;
    let mut vas = std::mem::take(&mut k.task_mut(tid).vas);
    k.map_user_range(
        cr3,
        &mut vas,
        0x5000_0000,
        1,
        true,
        true,
        crate::AreaKind::SharedLib,
    )
    .unwrap();
    k.task_mut(tid).vas = vas;
    assert!(k.m.host_write(0x5000_0000, &image));
    k.m.mmu.flush();
    k.m.cpu.eip = 0x5000_0000;
    // Need a usable SPL 3 stack: reuse the mapped page top.
    k.m.cpu.set_reg(Reg::Esp, 0x5000_1000);

    let _ = k.run_current(Budget::Insns(20));
    assert_eq!(k.stats.syscalls_rejected, 1);
    let eax = k.m.cpu.reg(Reg::Eax) as i32;
    assert_eq!(eax, -(crate::layout::errno::EPERM));
}

#[test]
fn non_palladium_tasks_still_make_syscalls() {
    // A task that never calls init_PL stays at taskSPL 3 and syscalls work
    // from ring-3 code (the paper: "non-Palladium applications still can
    // make system calls as usual").
    let mut k = Kernel::boot();
    spawn(
        &mut k,
        &format!(
            "_start:\nmov eax, {getpid}\nint 0x80\nmov ebx, eax\nmov eax, {exit}\nint 0x80\n",
            getpid = sys::GETPID,
            exit = sys::EXIT
        ),
    );
    match run(&mut k) {
        Outcome::Exited(code) => assert!(code > 0),
        other => panic!("unexpected {other:?}"),
    }
    assert_eq!(k.stats.syscalls_rejected, 0);
}

#[test]
fn two_tasks_have_isolated_address_spaces() {
    let mut k = Kernel::boot();
    let a = spawn(
        &mut k,
        &format!(
            "_start:\n\
             mov eax, 0x11111111\n\
             mov [0x08050000], eax\n\
             mov eax, {exit}\n\
             mov ebx, 0\n\
             int 0x80\n",
            exit = sys::EXIT
        ),
    );
    // Give task A extra mapped page at 0x08050000.
    {
        let cr3 = k.task(a).cr3;
        let mut vas = std::mem::take(&mut k.task_mut(a).vas);
        k.map_user_range(
            cr3,
            &mut vas,
            0x0805_0000,
            1,
            true,
            true,
            crate::AreaKind::Anon,
        )
        .unwrap();
        k.task_mut(a).vas = vas;
    }
    let b = spawn(
        &mut k,
        &format!(
            "_start:\n\
             mov eax, [0x08050000]\n\
             mov ebx, eax\n\
             mov eax, {exit}\n\
             int 0x80\n",
            exit = sys::EXIT
        ),
    );
    {
        let cr3 = k.task(b).cr3;
        let mut vas = std::mem::take(&mut k.task_mut(b).vas);
        k.map_user_range(
            cr3,
            &mut vas,
            0x0805_0000,
            1,
            true,
            true,
            crate::AreaKind::Anon,
        )
        .unwrap();
        k.task_mut(b).vas = vas;
    }

    k.switch_to(a);
    assert_eq!(run(&mut k), Outcome::Exited(0));
    k.switch_to(b);
    match run(&mut k) {
        Outcome::Exited(_) => {}
        other => panic!("unexpected {other:?}"),
    }
    assert_eq!(
        k.m.cpu.reg(Reg::Ebx),
        0,
        "task B sees its own zeroed page, not A's write"
    );
}

#[test]
fn set_call_gate_returns_usable_selector() {
    let mut k = Kernel::boot();
    spawn(
        &mut k,
        &format!(
            "_start:\n\
             mov eax, {init_pl}\n\
             int 0x80\n\
             mov eax, {gate}\n\
             mov ebx, service\n\
             int 0x80\n\
             mov esi, eax            ; gate selector\n\
             mov eax, {exit}\n\
             mov ebx, 0\n\
             int 0x80\n\
             service:\n\
             lret\n",
            init_pl = sys::INIT_PL,
            gate = sys::SET_CALL_GATE,
            exit = sys::EXIT,
        ),
    );
    assert_eq!(run(&mut k), Outcome::Exited(0));
    let sel = k.m.cpu.reg(Reg::Esi) as u16;
    assert_ne!(sel, 0);
    assert_eq!(
        sel & 3,
        3,
        "gate selector returned with RPL 3 for extensions"
    );
    assert_ne!(sel & 4, 0, "per-process gates live in the LDT");
    let ldt = k.m.ldt.as_ref().expect("current task has an LDT");
    let d = ldt.get(sel >> 3).copied().unwrap();
    assert!(matches!(d, x86sim::Descriptor::Gate(_)));
}

#[test]
fn ldt_gates_are_invisible_to_other_processes() {
    // A gate registered by one process cannot even be *named* by another:
    // the selector's TI bit points into the caller's own LDT, which is
    // swapped on context switch.
    let mut k = Kernel::boot();
    let a = spawn(
        &mut k,
        &format!(
            "_start:
             mov eax, {init_pl}
             int 0x80
             mov eax, {gate}
             mov ebx, service
             int 0x80
             mov esi, eax
             spin:
             jmp spin
             service:
             lret
",
            init_pl = sys::INIT_PL,
            gate = sys::SET_CALL_GATE,
        ),
    );
    let _ = k.run_current(Budget::Insns(10));
    let sel = k.m.cpu.reg(Reg::Esi) as u16;
    assert_ne!(sel & 4, 0);

    // Process B tries to lcall A's gate selector: its own LDT is empty,
    // so the selector does not resolve -> #GP -> SIGSEGV.
    let b = spawn(
        &mut k,
        &format!(
            "_start:
lcall {sel}, 0
mov eax, {exit}
mov ebx, 0
int 0x80
",
            exit = sys::EXIT
        ),
    );
    k.switch_to(b);
    match run(&mut k) {
        Outcome::Signaled { sig, .. } => assert_eq!(sig, crate::SIGSEGV),
        other => panic!("expected SIGSEGV in process B, got {other:?}"),
    }
    // Process A's gate still resolves in its own context.
    k.switch_to(a);
    let ldt = k.m.ldt.as_ref().unwrap();
    assert!(matches!(
        ldt.get(sel >> 3).copied().unwrap(),
        x86sim::Descriptor::Gate(_)
    ));
}

#[test]
fn console_write_charges_cycles() {
    let mut k = Kernel::boot();
    spawn(
        &mut k,
        &format!(
            "_start:\n\
             mov eax, {write}\n\
             mov ebx, 1\n\
             mov ecx, msg\n\
             mov edx, 3\n\
             int 0x80\n\
             mov eax, {exit}\n\
             mov ebx, 0\n\
             int 0x80\n\
             msg:\n\
             .asciz \"ab\"\n",
            write = sys::WRITE,
            exit = sys::EXIT,
        ),
    );
    let before = k.m.cycles();
    assert_eq!(run(&mut k), Outcome::Exited(0));
    assert!(k.m.cycles() > before + 2 * 85, "syscall costs charged");
}

#[test]
fn munmap_unmaps_whole_areas() {
    let mut k = Kernel::boot();
    spawn(
        &mut k,
        &format!(
            "_start:\n\
             mov eax, {mmap}\n\
             mov ebx, 0\n\
             mov ecx, 8192\n\
             mov edx, 3\n\
             int 0x80\n\
             mov esi, eax\n\
             mov [esi], eax          ; touch it\n\
             mov eax, {munmap}\n\
             mov ebx, esi\n\
             mov ecx, 8192\n\
             int 0x80\n\
             mov edi, eax            ; 0 on success\n\
             mov eax, [esi]          ; now faults\n\
             mov eax, {exit}\n\
             mov ebx, 1\n\
             int 0x80\n",
            mmap = sys::MMAP,
            munmap = sys::MUNMAP,
            exit = sys::EXIT,
        ),
    );
    match run(&mut k) {
        Outcome::Signaled { sig, .. } => assert_eq!(sig, crate::SIGSEGV),
        other => panic!("expected fault on unmapped access, got {other:?}"),
    }
    assert_eq!(k.m.cpu.reg(Reg::Edi), 0, "munmap returned success");
}

#[test]
fn munmap_rejects_partial_and_foreign_ranges() {
    let mut k = Kernel::boot();
    spawn(
        &mut k,
        &format!(
            "_start:\n\
             mov eax, {munmap}\n\
             mov ebx, 0x70000000\n\
             mov ecx, 4096\n\
             int 0x80\n\
             mov ebx, eax\n\
             mov eax, {exit}\n\
             int 0x80\n",
            munmap = sys::MUNMAP,
            exit = sys::EXIT,
        ),
    );
    match run(&mut k) {
        Outcome::Exited(code) => assert!(code < 0, "unmapped range rejected"),
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn waitpid_reaps_exited_children() {
    let mut k = Kernel::boot();
    let parent = spawn(
        &mut k,
        &format!(
            "_start:\n\
             mov eax, {fork}\n\
             int 0x80\n\
             cmp eax, 0\n\
             je child\n\
             mov esi, eax            ; child tid\n\
             wait_loop:\n\
             mov eax, {waitpid}\n\
             mov ebx, esi\n\
             int 0x80\n\
             cmp eax, -11            ; -EAGAIN while the child runs\n\
             je parent_exit_pending\n\
             mov ebx, eax            ; child exit code\n\
             mov eax, {exit}\n\
             int 0x80\n\
             parent_exit_pending:\n\
             mov eax, {exit}\n\
             mov ebx, 77\n\
             int 0x80\n\
             child:\n\
             mov eax, {exit}\n\
             mov ebx, 5\n\
             int 0x80\n",
            fork = sys::FORK,
            waitpid = sys::WAITPID,
            exit = sys::EXIT,
        ),
    );
    // Parent runs first, sees EAGAIN, exits 77.
    assert_eq!(run(&mut k), Outcome::Exited(77));
    // Run the child to completion.
    let child = k.tids().into_iter().find(|t| *t != parent).unwrap();
    k.switch_to(child);
    assert_eq!(run(&mut k), Outcome::Exited(5));

    // A second parent (fresh) reaps a finished child: simulate by
    // spawning a pair where the child finishes first.
    let mut k = Kernel::boot();
    spawn(
        &mut k,
        &format!(
            "_start:\n\
             mov eax, {fork}\n\
             int 0x80\n\
             cmp eax, 0\n\
             je child\n\
             mov esi, eax\n\
             ; spin a little so the host can schedule the child\n\
             hand_off:\n\
             mov eax, {waitpid}\n\
             mov ebx, esi\n\
             int 0x80\n\
             cmp eax, -11\n\
             je hand_off\n\
             mov ebx, eax\n\
             mov eax, {exit}\n\
             int 0x80\n\
             child:\n\
             mov eax, {exit}\n\
             mov ebx, 9\n\
             int 0x80\n",
            fork = sys::FORK,
            waitpid = sys::WAITPID,
            exit = sys::EXIT,
        ),
    );
    // Drive: parent until budget (spinning on EAGAIN), then child, then
    // parent again — it reaps 9.
    let parent2 = k.current_tid().unwrap();
    let _ = k.run_current(Budget::Insns(60));
    let child2 = k.tids().into_iter().find(|t| *t != parent2).unwrap();
    k.switch_to(child2);
    assert_eq!(run(&mut k), Outcome::Exited(9));
    k.switch_to(parent2);
    assert_eq!(
        run(&mut k),
        Outcome::Exited(9),
        "parent reaped the child's code"
    );
    assert!(!k.tids().contains(&child2), "zombie reaped");
}

#[test]
fn cycles_syscall_is_monotonic() {
    let mut k = Kernel::boot();
    spawn(
        &mut k,
        &format!(
            "_start:\n\
             mov eax, {cycles}\n\
             int 0x80\n\
             mov esi, eax\n\
             mov eax, {cycles}\n\
             int 0x80\n\
             sub eax, esi\n\
             mov ebx, eax\n\
             mov eax, {exit}\n\
             int 0x80\n",
            cycles = sys::CYCLES,
            exit = sys::EXIT,
        ),
    );
    match run(&mut k) {
        Outcome::Exited(delta) => assert!(delta > 0, "time advanced: {delta}"),
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn round_robin_runs_a_process_tree_to_completion() {
    // Parent forks two children; each child exits with a distinct code;
    // the parent reaps both and exits with their sum. The scheduler
    // interleaves everything.
    let mut k = Kernel::boot();
    spawn(
        &mut k,
        &format!(
            "_start:\n\
             mov eax, {fork}\n\
             int 0x80\n\
             cmp eax, 0\n\
             je child_a\n\
             mov esi, eax\n\
             mov eax, {fork}\n\
             int 0x80\n\
             cmp eax, 0\n\
             je child_b\n\
             mov edi, eax\n\
             ; reap both (spin on EAGAIN)\n\
             wait_a:\n\
             mov eax, {waitpid}\n\
             mov ebx, esi\n\
             int 0x80\n\
             cmp eax, -11\n\
             je wait_a\n\
             mov ebp, eax\n\
             wait_b:\n\
             mov eax, {waitpid}\n\
             mov ebx, edi\n\
             int 0x80\n\
             cmp eax, -11\n\
             je wait_b\n\
             add eax, ebp\n\
             mov ebx, eax\n\
             mov eax, {exit}\n\
             int 0x80\n\
             child_a:\n\
             mov eax, {exit}\n\
             mov ebx, 10\n\
             int 0x80\n\
             child_b:\n\
             mov eax, {exit}\n\
             mov ebx, 32\n\
             int 0x80\n",
            fork = sys::FORK,
            waitpid = sys::WAITPID,
            exit = sys::EXIT,
        ),
    );
    let events = k.run_all(Budget::Insns(50), 200);
    // All three tasks exited; the parent's exit code is the sum.
    let exit_codes: Vec<i32> = events
        .iter()
        .filter_map(|(_, o)| match o {
            Outcome::Exited(c) => Some(*c),
            _ => None,
        })
        .collect();
    assert!(exit_codes.contains(&10));
    assert!(exit_codes.contains(&32));
    assert!(
        exit_codes.contains(&42),
        "parent summed the children: {exit_codes:?}"
    );
}

#[test]
fn scheduler_charges_context_switches() {
    let mut k = Kernel::boot();
    spawn(
        &mut k,
        &format!("_start:\nmov eax, {}\nmov ebx, 0\nint 0x80\n", sys::EXIT),
    );
    spawn(
        &mut k,
        &format!("_start:\nmov eax, {}\nmov ebx, 0\nint 0x80\n", sys::EXIT),
    );
    let before = k.m.cycles();
    let events = k.run_all(Budget::Insns(100), 10);
    assert_eq!(events.len(), 2);
    // At least two context switches were charged (one per task entry).
    assert!(k.m.cycles() - before >= 2 * k.costs.context_switch);
}

mod memory_pressure {
    use super::*;
    use crate::kernel::SpawnError;

    /// Boot structures take ~131 pages; leave a small allowance.
    fn tight_kernel(extra_pages: u32) -> Kernel {
        Kernel::boot_with_memory((131 + extra_pages) * 4096)
    }

    #[test]
    fn boot_survives_minimal_memory() {
        let k = tight_kernel(8);
        assert!(k.frames.remaining() <= 8 + 4);
    }

    #[test]
    fn spawn_fails_cleanly_without_memory() {
        let mut k = tight_kernel(4);
        let obj = Assembler::assemble("_start:\nnop\nhlt\n").unwrap();
        match k.spawn(&obj, &BTreeMap::new()) {
            Err(SpawnError::OutOfMemory) => {}
            other => panic!("expected OOM, got {other:?}"),
        }
    }

    #[test]
    fn overcommitted_mmap_dies_at_touch_time() {
        // Demand-paged mmap overcommits (as Linux does): the 16 MB map
        // succeeds, and the process dies only when touching more memory
        // than exists (the demand fault finds no frame -> SIGSEGV, the
        // moral equivalent of the OOM killer).
        let mut k = tight_kernel(64);
        spawn(
            &mut k,
            &format!(
                "_start:\n\
                 mov eax, {mmap}\n\
                 mov ebx, 0\n\
                 mov ecx, 0x1000000     ; 16 MB: far beyond physical memory\n\
                 mov edx, 3\n\
                 int 0x80\n\
                 cmp eax, 0\n\
                 jl mmap_failed\n\
                 mov esi, eax\n\
                 touch_loop:\n\
                 mov [esi], esi\n\
                 add esi, 4096\n\
                 jmp touch_loop\n\
                 mmap_failed:\n\
                 mov ebx, eax\n\
                 mov eax, {exit}\n\
                 int 0x80\n",
                mmap = sys::MMAP,
                exit = sys::EXIT,
            ),
        );
        match k.run_current(Budget::Insns(100_000)) {
            Outcome::Signaled { sig, .. } => assert_eq!(sig, crate::SIGSEGV),
            other => panic!("expected OOM SIGSEGV at touch time, got {other:?}"),
        }
    }

    #[test]
    fn fork_fails_gracefully_under_pressure() {
        let mut k = tight_kernel(40);
        spawn(
            &mut k,
            &format!(
                "_start:\n\
                 ; grab most of what is left\n\
                 mov eax, {mmap}\n\
                 mov ebx, 0\n\
                 mov ecx, 0x8000\n\
                 mov edx, 3\n\
                 int 0x80\n\
                 ; now fork: copying the address space cannot fit\n\
                 mov eax, {fork}\n\
                 int 0x80\n\
                 mov ebx, eax\n\
                 mov eax, {exit}\n\
                 int 0x80\n",
                mmap = sys::MMAP,
                fork = sys::FORK,
                exit = sys::EXIT,
            ),
        );
        match run(&mut k) {
            Outcome::Exited(code) => assert!(code < 0, "fork reported failure: {code}"),
            other => panic!("unexpected {other:?}"),
        }
    }
}

#[test]
fn mprotect_read_only_is_enforced_on_user_writes() {
    let mut k = Kernel::boot();
    spawn(
        &mut k,
        &format!(
            "_start:\n\
             mov eax, {mmap}\n\
             mov ebx, 0\n\
             mov ecx, 4096\n\
             mov edx, 3\n\
             int 0x80\n\
             mov esi, eax\n\
             mov [esi], eax          ; writable now\n\
             mov eax, {mprotect}\n\
             mov ebx, esi\n\
             mov ecx, 4096\n\
             mov edx, 1              ; PROT_READ only\n\
             int 0x80\n\
             mov edi, [esi]          ; reads still fine\n\
             mov [esi], eax          ; write must fault\n\
             mov eax, {exit}\n\
             mov ebx, 0\n\
             int 0x80\n",
            mmap = sys::MMAP,
            mprotect = sys::MPROTECT,
            exit = sys::EXIT,
        ),
    );
    match run(&mut k) {
        Outcome::Signaled { sig, .. } => assert_eq!(sig, crate::SIGSEGV),
        other => panic!("expected SIGSEGV on RO write, got {other:?}"),
    }
    assert_ne!(k.m.cpu.reg(Reg::Edi), 0, "the read before the fault worked");
}

#[test]
fn mprotect_can_restore_writability() {
    let mut k = Kernel::boot();
    spawn(
        &mut k,
        &format!(
            "_start:\n\
             mov eax, {mmap}\n\
             mov ebx, 0\n\
             mov ecx, 4096\n\
             mov edx, 3\n\
             int 0x80\n\
             mov esi, eax\n\
             mov eax, {mprotect}\n\
             mov ebx, esi\n\
             mov ecx, 4096\n\
             mov edx, 1\n\
             int 0x80\n\
             mov eax, {mprotect}\n\
             mov ebx, esi\n\
             mov ecx, 4096\n\
             mov edx, 3              ; RW again\n\
             int 0x80\n\
             mov [esi], esi          ; succeeds\n\
             mov eax, {exit}\n\
             mov ebx, 0\n\
             int 0x80\n",
            mmap = sys::MMAP,
            mprotect = sys::MPROTECT,
            exit = sys::EXIT,
        ),
    );
    assert_eq!(run(&mut k), Outcome::Exited(0));
}

mod demand_paging {
    use super::*;
    use x86sim::paging::{get_pte, pte};

    #[test]
    fn mmap_consumes_no_frames_until_touched() {
        let mut k = Kernel::boot();
        spawn(
            &mut k,
            &format!(
                "_start:\n\
                 mov eax, {mmap}\n\
                 mov ebx, 0\n\
                 mov ecx, 0x100000      ; 256 pages, demand-backed\n\
                 mov edx, 3\n\
                 int 0x80\n\
                 mov esi, eax\n\
                 mov [esi], esi          ; touch exactly one page\n\
                 mov eax, {exit}\n\
                 mov ebx, 0\n\
                 int 0x80\n",
                mmap = sys::MMAP,
                exit = sys::EXIT,
            ),
        );
        let before = k.frames.remaining();
        assert_eq!(run(&mut k), Outcome::Exited(0));
        let used = before - k.frames.remaining();
        // One data frame (plus at most a page-table frame).
        assert!(used <= 2, "demand paging materialized {used} frames");

        // Only the touched page has a PTE.
        let tid = k.current_tid().unwrap();
        let addr = k.m.cpu.reg(Reg::Esi);
        let cr3 = k.task(tid).cr3;
        assert!(get_pte(&k.m.mem, cr3, addr).is_some());
        assert!(get_pte(&k.m.mem, cr3, addr + 8192).is_none());
    }

    #[test]
    fn fault_time_ppl_marking_for_promoted_tasks() {
        // §4.5.2: a writable page of an SPL 2 process is marked PPL 0 at
        // page-fault time.
        let mut k = Kernel::boot();
        spawn(
            &mut k,
            &format!(
                "_start:\n\
                 mov eax, {init_pl}\n\
                 int 0x80\n\
                 mov eax, {mmap}\n\
                 mov ebx, 0\n\
                 mov ecx, 8192\n\
                 mov edx, 3\n\
                 int 0x80\n\
                 mov esi, eax\n\
                 mov [esi], esi          ; fault -> map -> PPL 0\n\
                 mov eax, {exit}\n\
                 mov ebx, 0\n\
                 int 0x80\n",
                init_pl = sys::INIT_PL,
                mmap = sys::MMAP,
                exit = sys::EXIT,
            ),
        );
        assert_eq!(run(&mut k), Outcome::Exited(0));
        let tid = k.current_tid().unwrap();
        let addr = k.m.cpu.reg(Reg::Esi);
        let cr3 = k.task(tid).cr3;
        let p = get_pte(&k.m.mem, cr3, addr).unwrap();
        assert_eq!(p & pte::US, 0, "materialized at PPL 0 (supervisor)");
        assert!(
            get_pte(&k.m.mem, cr3, addr + 4096).is_none(),
            "second page untouched"
        );
    }

    #[test]
    fn mprotect_before_first_touch_sticks() {
        let mut k = Kernel::boot();
        spawn(
            &mut k,
            &format!(
                "_start:\n\
                 mov eax, {mmap}\n\
                 mov ebx, 0\n\
                 mov ecx, 4096\n\
                 mov edx, 3\n\
                 int 0x80\n\
                 mov esi, eax\n\
                 mov eax, {mprotect}\n\
                 mov ebx, esi\n\
                 mov ecx, 4096\n\
                 mov edx, 1              ; read-only before any touch\n\
                 int 0x80\n\
                 mov edi, [esi]          ; read: demand-maps read-only\n\
                 mov [esi], esi          ; write: must fault\n\
                 mov eax, {exit}\n\
                 mov ebx, 0\n\
                 int 0x80\n",
                mmap = sys::MMAP,
                mprotect = sys::MPROTECT,
                exit = sys::EXIT,
            ),
        );
        match run(&mut k) {
            Outcome::Signaled { sig, .. } => assert_eq!(sig, crate::SIGSEGV),
            other => panic!("expected SIGSEGV, got {other:?}"),
        }
    }

    #[test]
    fn access_outside_any_area_is_still_fatal() {
        let mut k = Kernel::boot();
        spawn(&mut k, "_start:\nmov eax, [0x50000000]\nhlt\n");
        match run(&mut k) {
            Outcome::Signaled { sig, .. } => assert_eq!(sig, crate::SIGSEGV),
            other => panic!("expected SIGSEGV, got {other:?}"),
        }
    }
}

mod checkpoint {
    //! Kernel-level checkpoint/restore: a restored kernel world must be
    //! cycle-, stat- and console-identical going forward.

    use super::*;
    use crate::layout::errno;

    /// A looping workload that mixes syscalls (write, brk, getpid) with
    /// raw computation so a mid-run checkpoint lands in interesting state.
    fn busy_src() -> String {
        format!(
            "_start:\n\
             mov esi, 12\n\
             loop:\n\
             mov eax, {write}\n\
             mov ebx, 1\n\
             mov ecx, msg\n\
             mov edx, 2\n\
             int 0x80\n\
             mov eax, {getpid}\n\
             int 0x80\n\
             add edi, eax\n\
             dec esi\n\
             cmp esi, 0\n\
             jne loop\n\
             mov eax, {exit}\n\
             mov ebx, edi\n\
             int 0x80\n\
             msg:\n\
             .asciz \"x\\n\"\n",
            write = sys::WRITE,
            getpid = sys::GETPID,
            exit = sys::EXIT,
        )
    }

    fn observe(
        k: &Kernel,
    ) -> (
        u64,
        u64,
        crate::kernel::KernelStats,
        String,
        Vec<crate::Tid>,
    ) {
        (
            k.m.cycles(),
            k.m.insns(),
            k.stats,
            k.console_text(),
            k.tids(),
        )
    }

    #[test]
    fn kernel_image_roundtrips_and_resumes_identically() {
        let mut original = Kernel::boot();
        spawn(&mut original, &busy_src());
        // Stop partway through the loop.
        assert_eq!(original.run_current(Budget::Insns(40)), Outcome::Budget);

        let img = original.save_image();
        let mut restored = Kernel::restore_image(&img).unwrap();
        assert_eq!(observe(&original), observe(&restored));

        let a = run(&mut original);
        let b = run(&mut restored);
        assert_eq!(a, b);
        assert_eq!(observe(&original), observe(&restored));
        assert!(matches!(a, Outcome::Exited(_)));
    }

    #[test]
    fn restored_kernel_can_spawn_and_fault_identically() {
        // Post-restore, task creation, demand paging and fault delivery
        // all behave as in the never-checkpointed world.
        let mut original = Kernel::boot();
        spawn(&mut original, "_start:\nmov eax, [0xD0000000]\nhlt\n");
        let img = original.save_image();
        let mut restored = Kernel::restore_image(&img).unwrap();
        let a = run(&mut original);
        let b = run(&mut restored);
        assert_eq!(a, b);
        assert!(matches!(a, Outcome::Signaled { sig: SIGSEGV, .. }));
        assert_eq!(observe(&original), observe(&restored));
        // And both worlds can still spawn fresh tasks deterministically.
        spawn(&mut original, &busy_src());
        spawn(&mut restored, &busy_src());
        assert_eq!(run(&mut original), run(&mut restored));
        assert_eq!(observe(&original), observe(&restored));
    }

    #[test]
    fn mailbox_and_ldt_survive_checkpoint() {
        let mut k = Kernel::boot();
        let tid = spawn(&mut k, &busy_src());
        k.task_mut(tid).mailbox.push_back((7, b"ping".to_vec()));
        k.palladium_init_pl();
        let gate = k.palladium_set_call_gate(USER_TEXT + 4);
        assert!(gate > 0);
        k.save_current();
        let img = k.save_image();
        let r = Kernel::restore_image(&img).unwrap();
        assert_eq!(r.task(tid).mailbox.front(), k.task(tid).mailbox.front());
        assert_eq!(r.task(tid).task_spl, 2);
        assert_eq!(r.task(tid).ldt.len(), k.task(tid).ldt.len());
    }

    #[test]
    fn corrupt_kernel_images_are_rejected() {
        let mut k = Kernel::boot();
        spawn(&mut k, &busy_src());
        let img = k.save_image();
        // A bit flip inside the machine's sections (mid-image: the
        // frames) must surface as a typed error, never a silently-wrong
        // kernel.
        let mut bad = img.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x10;
        assert!(Kernel::restore_image(&bad).is_err());
        assert!(Kernel::restore_image(&img[..img.len() - 5]).is_err());
        // Wrong kind: a machine image is not a kernel image.
        let m = x86sim::Machine::new();
        assert!(matches!(
            Kernel::restore_image(&m.save_image()),
            Err(x86sim::RestoreError::Kind { .. })
        ));
        let _ = errno::EPERM; // keep the import used on all paths
    }
}
