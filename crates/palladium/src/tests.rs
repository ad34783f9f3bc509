//! End-to-end tests of both Palladium mechanisms, running the full
//! Figure 6 sequences on the simulated CPU.

use asm86::Assembler;
use minikernel::{Kernel, USER_TEXT};

use crate::kernel_ext::{KernelExtensions, KextError, SegmentConfig};
use crate::user_ext::{DlopenOptions, ExtCallError, ExtensibleApp};

fn obj(src: &str) -> asm86::Object {
    Assembler::assemble(src).expect("asm")
}

// ---------- user-level mechanism -------------------------------------------

#[test]
fn null_extension_call_round_trip() {
    let mut k = Kernel::boot();
    let mut app = ExtensibleApp::new(&mut k).unwrap();
    let h = app
        .dlopen(&mut k, &obj("null_fn:\nret\n"), &DlopenOptions::new())
        .unwrap();
    let prep = app.seg_dlsym(&mut k, h, "null_fn").unwrap();

    let r = app.call_extension(&mut k, prep, 0xDEAD).unwrap();
    // A null function leaves eax = the argument (invoke stub put it there).
    assert_eq!(r, 0xDEAD);
    assert_eq!(app.calls, 1);
    assert_eq!(app.aborted_calls, 0);
}

#[test]
fn extension_computes_a_result() {
    let mut k = Kernel::boot();
    let mut app = ExtensibleApp::new(&mut k).unwrap();
    let h = app
        .dlopen(
            &mut k,
            &obj("triple_plus_one:\n\
                 mov eax, [esp+4]\n\
                 imul eax, 3\n\
                 inc eax\n\
                 ret\n"),
            &DlopenOptions::new(),
        )
        .unwrap();
    let prep = app.seg_dlsym(&mut k, h, "triple_plus_one").unwrap();
    assert_eq!(app.call_extension(&mut k, prep, 14).unwrap(), 43);
    // Repeated calls are stable (warm state).
    assert_eq!(app.call_extension(&mut k, prep, 0).unwrap(), 1);
    assert_eq!(app.call_extension(&mut k, prep, 100).unwrap(), 301);
}

#[test]
fn warm_protected_call_cost_is_deterministic() {
    let mut k = Kernel::boot();
    let mut app = ExtensibleApp::new(&mut k).unwrap();
    let h = app
        .dlopen(&mut k, &obj("null_fn:\nret\n"), &DlopenOptions::new())
        .unwrap();
    let prep = app.seg_dlsym(&mut k, h, "null_fn").unwrap();

    // Warm up (first call walks cold TLB entries).
    app.call_extension(&mut k, prep, 0).unwrap();
    let c0 = k.m.cycles();
    app.call_extension(&mut k, prep, 0).unwrap();
    let c1 = k.m.cycles();
    app.call_extension(&mut k, prep, 0).unwrap();
    let c2 = k.m.cycles();
    assert_eq!(c1 - c0, c2 - c1, "warm calls cost identically");
    // The protected-call core is 142 cycles; the measured path adds the
    // invoke stub, the yield int and host bookkeeping.
    let warm = c2 - c1;
    assert!(warm >= 142, "at least the Figure 6 cost, got {warm}");
    assert!(warm < 500, "no unexpected overhead, got {warm}");
}

#[test]
fn extension_cannot_touch_application_memory() {
    let mut k = Kernel::boot();
    let mut app = ExtensibleApp::new(&mut k).unwrap();
    // The app image page (PPL 0 after init_PL) is the target.
    let h = app
        .dlopen(
            &mut k,
            &obj(&format!(
                "evil:\n\
                 mov eax, 1\n\
                 mov [{USER_TEXT}], eax\n\
                 ret\n"
            )),
            &DlopenOptions::new(),
        )
        .unwrap();
    let prep = app.seg_dlsym(&mut k, h, "evil").unwrap();

    match app.call_extension(&mut k, prep, 0) {
        Err(ExtCallError::Fault { sig, addr, cause }) => {
            assert_eq!(sig, minikernel::SIGSEGV);
            assert_eq!(addr, USER_TEXT);
            // Satellite check: the structured cause made it through the
            // guest signal trampoline round-trip.
            assert_eq!(cause.expect("cause recorded").tag(), "page-protection");
        }
        other => panic!("expected fault, got {other:?}"),
    }
    assert_eq!(app.aborted_calls, 1);
    // The application memory is intact and the app still works.
    assert_ne!(k.m.host_read(USER_TEXT, 4), vec![1, 0, 0, 0]);

    let h2 = app
        .dlopen(
            &mut k,
            &obj("ok:\nmov eax, 7\nret\n"),
            &DlopenOptions::new(),
        )
        .unwrap();
    let prep2 = app.seg_dlsym(&mut k, h2, "ok").unwrap();
    assert_eq!(app.call_extension(&mut k, prep2, 0).unwrap(), 7);
}

#[test]
fn extension_cannot_read_application_memory_either() {
    let mut k = Kernel::boot();
    let mut app = ExtensibleApp::new(&mut k).unwrap();
    let h = app
        .dlopen(
            &mut k,
            &obj(&format!("snoop:\nmov eax, [{USER_TEXT}]\nret\n")),
            &DlopenOptions::new(),
        )
        .unwrap();
    let prep = app.seg_dlsym(&mut k, h, "snoop").unwrap();
    assert!(matches!(
        app.call_extension(&mut k, prep, 0),
        Err(ExtCallError::Fault { .. })
    ));
}

#[test]
fn extension_cannot_reach_kernel_space() {
    let mut k = Kernel::boot();
    let mut app = ExtensibleApp::new(&mut k).unwrap();
    let h = app
        .dlopen(
            &mut k,
            &obj("probe:\nmov eax, [0xD0000000]\nret\n"),
            &DlopenOptions::new(),
        )
        .unwrap();
    let prep = app.seg_dlsym(&mut k, h, "probe").unwrap();
    // Segment limit (3 GB) raises #GP before paging is even consulted.
    assert!(matches!(
        app.call_extension(&mut k, prep, 0),
        Err(ExtCallError::Fault { .. })
    ));
}

#[test]
fn runaway_extension_hits_time_limit() {
    let mut k = Kernel::boot();
    k.extension_cycle_limit = 50_000;
    let mut app = ExtensibleApp::new(&mut k).unwrap();
    let h = app
        .dlopen(&mut k, &obj("spin:\njmp spin\n"), &DlopenOptions::new())
        .unwrap();
    let prep = app.seg_dlsym(&mut k, h, "spin").unwrap();
    assert_eq!(
        app.call_extension(&mut k, prep, 0),
        Err(ExtCallError::TimeLimit)
    );
    // The app survives and can still call well-behaved extensions.
    let h2 = app
        .dlopen(&mut k, &obj("f:\nmov eax, 5\nret\n"), &DlopenOptions::new())
        .unwrap();
    let prep2 = app.seg_dlsym(&mut k, h2, "f").unwrap();
    assert_eq!(app.call_extension(&mut k, prep2, 0).unwrap(), 5);
}

#[test]
fn shared_data_area_is_visible_to_both_sides() {
    let mut k = Kernel::boot();
    let mut app = ExtensibleApp::new(&mut k).unwrap();
    let shared = app.alloc_shared(&mut k, 1).unwrap();

    // App-side (host) write; extension reads, increments, writes back.
    k.m.host_write_u32(shared, 41);
    let h = app
        .dlopen(
            &mut k,
            &obj("bump:\n\
                 mov ecx, [esp+4]\n\
                 mov eax, [ecx]\n\
                 inc eax\n\
                 mov [ecx], eax\n\
                 ret\n"),
            &DlopenOptions::new(),
        )
        .unwrap();
    let prep = app.seg_dlsym(&mut k, h, "bump").unwrap();
    // Pointers pass unswizzled: hand the extension the raw address.
    assert_eq!(app.call_extension(&mut k, prep, shared).unwrap(), 42);
    assert_eq!(k.m.host_read_u32(shared), 42);
}

#[test]
fn extension_calls_shared_libc_directly() {
    let mut k = Kernel::boot();
    let mut app = ExtensibleApp::new(&mut k).unwrap();
    app.load_libc(&mut k).unwrap();
    let shared = app.alloc_shared(&mut k, 1).unwrap();
    k.m.host_write(shared, b"hello\0");

    // The extension imports strlen from the shared library; the call goes
    // through the PLT -> sealed GOT -> libc at PPL 1.
    let h = app
        .dlopen(
            &mut k,
            &obj("measure:\n\
                 push dword [esp+4]\n\
                 call strlen\n\
                 add esp, 4\n\
                 ret\n"),
            &DlopenOptions::new(),
        )
        .unwrap();
    assert!(app.got_page(h).unwrap().is_some(), "GOT was built");
    let prep = app.seg_dlsym(&mut k, h, "measure").unwrap();
    assert_eq!(app.call_extension(&mut k, prep, shared).unwrap(), 5);
}

#[test]
fn libc_strrev_reverses_in_shared_area() {
    let mut k = Kernel::boot();
    let mut app = ExtensibleApp::new(&mut k).unwrap();
    app.load_libc(&mut k).unwrap();
    let shared = app.alloc_shared(&mut k, 1).unwrap();
    k.m.host_write(shared, b"abcdef");

    let h = app
        .dlopen(
            &mut k,
            &obj("rev6:\n\
                 push 6\n\
                 push dword [esp+8]\n\
                 call strrev\n\
                 add esp, 8\n\
                 mov eax, 0\n\
                 ret\n"),
            &DlopenOptions::new(),
        )
        .unwrap();
    let prep = app.seg_dlsym(&mut k, h, "rev6").unwrap();
    app.call_extension(&mut k, prep, shared).unwrap();
    assert_eq!(k.m.host_read(shared, 6), b"fedcba");
}

#[test]
fn got_is_sealed_read_only() {
    let mut k = Kernel::boot();
    let mut app = ExtensibleApp::new(&mut k).unwrap();
    app.load_libc(&mut k).unwrap();

    let h = app
        .dlopen(
            &mut k,
            &obj("pwn_got:\n\
                 mov ecx, [esp+4]     ; GOT address passed as arg\n\
                 mov eax, 0x41414141\n\
                 mov [ecx], eax       ; redirect strlen? denied.\n\
                 ret\n\
                 uses_strlen:\n\
                 call strlen\n\
                 ret\n"),
            &DlopenOptions::new(),
        )
        .unwrap();
    let got = app.got_page(h).unwrap().expect("has GOT");
    let prep = app.seg_dlsym(&mut k, h, "pwn_got").unwrap();
    match app.call_extension(&mut k, prep, got) {
        Err(ExtCallError::Fault { addr, .. }) => assert_eq!(addr, got),
        other => panic!("expected GOT write to fault, got {other:?}"),
    }
}

#[test]
fn extension_syscalls_are_rejected() {
    let mut k = Kernel::boot();
    let mut app = ExtensibleApp::new(&mut k).unwrap();
    let h = app
        .dlopen(
            &mut k,
            &obj("try_syscall:\n\
                 mov eax, 20          ; getpid\n\
                 int 0x80\n\
                 ret\n"),
            &DlopenOptions::new(),
        )
        .unwrap();
    let prep = app.seg_dlsym(&mut k, h, "try_syscall").unwrap();
    let r = app.call_extension(&mut k, prep, 0).unwrap();
    assert_eq!(
        r as i32, -1,
        "EPERM: extensions cannot make direct syscalls"
    );
    assert_eq!(k.stats.syscalls_rejected, 1);
}

#[test]
fn application_service_via_call_gate() {
    let mut k = Kernel::boot();
    let mut app = ExtensibleApp::new(&mut k).unwrap();

    // An application service at SPL 2: doubles its stack argument and adds
    // the pid (so it demonstrably can make syscalls the extension cannot).
    let syms = app
        .install_app_code(
            &mut k,
            &obj("svc_impl:\n\
                 mov ecx, [esp+4]\n\
                 add ecx, ecx\n\
                 mov eax, 20          ; getpid\n\
                 int 0x80\n\
                 add eax, ecx\n\
                 ret\n"),
        )
        .unwrap();
    let gate = app.register_service(&mut k, syms["svc_impl"]).unwrap();

    let h = app
        .dlopen(
            &mut k,
            &obj("use_service:\n\
                 push dword [esp+4]\n\
                 patchme:\n\
                 lcall 0, 0\n\
                 add esp, 4\n\
                 ret\n"),
            &DlopenOptions::new(),
        )
        .unwrap();
    // Patch the gate selector into the extension's lcall (a real extension
    // would receive it through the shared area or a header).
    let patch_at = app.dlsym(h, "patchme").unwrap() + 1;
    assert!(k.m.host_write(patch_at, &gate.to_le_bytes()));

    let prep = app.seg_dlsym(&mut k, h, "use_service").unwrap();
    let pid = app.tid;
    assert_eq!(app.call_extension(&mut k, prep, 21).unwrap(), 42 + pid);
    assert_eq!(
        k.stats.syscalls_rejected, 0,
        "the service's syscall was accepted (CS at SPL 2)"
    );
}

#[test]
fn xmalloc_allocates_from_extension_heap() {
    let mut k = Kernel::boot();
    let mut app = ExtensibleApp::new(&mut k).unwrap();
    let h = app
        .dlopen(
            &mut k,
            &obj("alloc2:\n\
                 push 16\n\
                 call xmalloc\n\
                 add esp, 4\n\
                 mov esi, eax          ; esi survives xmalloc (ecx does not)\n\
                 push 24\n\
                 call xmalloc\n\
                 add esp, 4\n\
                 sub eax, esi\n\
                 ret\n"),
            &DlopenOptions::new(),
        )
        .unwrap();
    let prep = app.seg_dlsym(&mut k, h, "alloc2").unwrap();
    assert_eq!(app.call_extension(&mut k, prep, 0).unwrap(), 16);

    // The returned memory is writable by the extension.
    let h2 = app
        .dlopen(
            &mut k,
            &obj("alloc_use:\n\
                 push 64\n\
                 call xmalloc\n\
                 add esp, 4\n\
                 mov ecx, 0xFEED\n\
                 mov [eax], ecx\n\
                 mov eax, [eax]\n\
                 ret\n"),
            &DlopenOptions::new(),
        )
        .unwrap();
    let prep2 = app.seg_dlsym(&mut k, h2, "alloc_use").unwrap();
    assert_eq!(app.call_extension(&mut k, prep2, 0).unwrap(), 0xFEED);
}

#[test]
fn seg_dlclose_revokes_the_extension() {
    let mut k = Kernel::boot();
    let mut app = ExtensibleApp::new(&mut k).unwrap();
    let h = app
        .dlopen(&mut k, &obj("f:\nmov eax, 9\nret\n"), &DlopenOptions::new())
        .unwrap();
    let prep = app.seg_dlsym(&mut k, h, "f").unwrap();
    assert_eq!(app.call_extension(&mut k, prep, 0).unwrap(), 9);

    app.seg_dlclose(&mut k, h).unwrap();
    // Symbol lookups now fail...
    assert!(app.dlsym(h, "f").is_err());
    // ...and the stale Prepare faults when the extension code is fetched.
    assert!(matches!(
        app.call_extension(&mut k, prep, 0),
        Err(ExtCallError::Fault { .. })
    ));
}

#[test]
fn dlsym_returns_raw_data_addresses() {
    let mut k = Kernel::boot();
    let mut app = ExtensibleApp::new(&mut k).unwrap();
    let h = app
        .dlopen(
            &mut k,
            &obj("get:\nmov eax, [table]\nret\ntable:\n.dd 0x1234\n"),
            &DlopenOptions::new(),
        )
        .unwrap();
    let table = app.dlsym(h, "table").unwrap();
    assert_eq!(k.m.host_read_u32(table), 0x1234);
    // The same address works from both sides — no swizzling.
    let prep = app.seg_dlsym(&mut k, h, "get").unwrap();
    assert_eq!(app.call_extension(&mut k, prep, 0).unwrap(), 0x1234);
}

// ---------- kernel-level mechanism ------------------------------------------

#[test]
fn kernel_extension_invoke_round_trip() {
    let mut k = Kernel::boot();
    let mut kx = KernelExtensions::new(&mut k).unwrap();
    let seg = kx.create_segment(&mut k, 16).unwrap();
    kx.insmod(
        &mut k,
        seg,
        "double",
        &obj("ext_double:\nmov eax, [esp+4]\nadd eax, eax\nret\n"),
        &["ext_double"],
    )
    .unwrap();

    assert_eq!(kx.invoke(&mut k, seg, "ext_double", 21).unwrap(), 42);
    assert_eq!(kx.invoke(&mut k, seg, "ext_double", 100).unwrap(), 200);
    assert_eq!(kx.calls, 2);
    assert_eq!(kx.aborts, 0);
}

#[test]
fn unknown_extension_function_is_reported() {
    let mut k = Kernel::boot();
    let mut kx = KernelExtensions::new(&mut k).unwrap();
    let seg = kx.create_segment(&mut k, 8).unwrap();
    assert_eq!(
        kx.invoke(&mut k, seg, "missing", 0),
        Err(KextError::NoSuchFunction("missing".into()))
    );
}

#[test]
fn kernel_extension_confined_by_segment_limit() {
    let mut k = Kernel::boot();
    let mut kx = KernelExtensions::new(&mut k).unwrap();
    let seg = kx.create_segment(&mut k, 8).unwrap();
    // The extension tries to read past its segment limit (offset 1 MB in
    // an 32 KB segment): #GP, extension aborted.
    kx.insmod(
        &mut k,
        seg,
        "escape",
        &obj("esc:\nmov eax, [0x100000]\nret\n"),
        &["esc"],
    )
    .unwrap();
    let before = k.m.cycles();
    match kx.invoke(&mut k, seg, "esc", 0) {
        Err(KextError::Aborted(f)) => {
            assert_eq!(f.vector, x86sim::Vector::GeneralProtection);
            assert_eq!(f.cpl, 1, "fault at SPL 1");
        }
        other => panic!("expected abort, got {other:?}"),
    }
    // §5.2: the abort path costs ~1,020 cycles on top of the partial run.
    assert!(k.m.cycles() - before >= 1_020);
    assert_eq!(kx.aborts, 1);
    // One fault is a strike, not a death sentence: the segment stays
    // usable until the quarantine threshold.
    assert_eq!(kx.segment(seg).strikes, 1);
    assert!(!kx.segment(seg).dead);
    assert!(matches!(
        kx.invoke(&mut k, seg, "esc", 0),
        Err(KextError::Aborted(_))
    ));
    assert!(matches!(
        kx.invoke(&mut k, seg, "esc", 0),
        Err(KextError::Aborted(_))
    ));
    // Third strike: automatic quarantine — modules unloaded, EFT
    // tombstoned, descriptors revoked.
    assert_eq!(kx.aborts, 3);
    assert!(kx.segment(seg).quarantined);
    assert!(kx.segment(seg).dead);
    assert_eq!(kx.quarantines, 1);
    assert!(kx.segment(seg).tombstones.contains_key("esc"));
    assert!(kx.segment(seg).modules.is_empty());
    assert_eq!(
        kx.invoke(&mut k, seg, "esc", 0),
        Err(KextError::Quarantined { strikes: 3 })
    );
}

#[test]
fn kernel_extension_cannot_write_kernel_memory() {
    let mut k = Kernel::boot();
    let mut kx = KernelExtensions::new(&mut k).unwrap();
    let seg = kx.create_segment(&mut k, 8).unwrap();
    // Try to store through an absolute kernel linear address: interpreted
    // against the extension's segment base, 0xD0000000 is far beyond the
    // limit -> #GP. (Wrap-around addresses equally die on the limit.)
    kx.insmod(
        &mut k,
        seg,
        "scribble",
        &obj("w:\nmov eax, 0x41\nmov [0xD0000000], eax\nret\n"),
        &["w"],
    )
    .unwrap();
    assert!(matches!(
        kx.invoke(&mut k, seg, "w", 0),
        Err(KextError::Aborted(_))
    ));
}

#[test]
fn shared_data_area_passes_bulk_arguments() {
    let mut k = Kernel::boot();
    let mut kx = KernelExtensions::new(&mut k).unwrap();
    let seg = kx.create_segment(&mut k, 16).unwrap();
    kx.insmod(
        &mut k,
        seg,
        "summer",
        &obj("; sums shared_area[0..n), n passed as the argument\n\
             sum:\n\
             mov ecx, [esp+4]\n\
             mov eax, 0\n\
             mov edx, shared_area\n\
             sum_loop:\n\
             cmp ecx, 0\n\
             je sum_done\n\
             add eax, [edx]\n\
             add edx, 4\n\
             dec ecx\n\
             jmp sum_loop\n\
             sum_done:\n\
             ret\n\
             .align 16\n\
             shared_area:\n\
             .space 256\n\
             shared_area_end:\n"),
        &["sum"],
    )
    .unwrap();

    let (lin, size) = kx.shared_area_linear(seg).expect("shared area found");
    assert_eq!(size, 256);
    // Kernel writes arguments into the shared area without copying through
    // the invocation interface.
    for i in 0..10u32 {
        k.m.host_write_u32(lin + i * 4, i + 1);
    }
    assert_eq!(kx.invoke(&mut k, seg, "sum", 10).unwrap(), 55);
}

#[test]
fn kernel_service_log_from_extension() {
    let mut k = Kernel::boot();
    let mut kx = KernelExtensions::new(&mut k).unwrap();
    let seg = kx.create_segment(&mut k, 16).unwrap();
    kx.insmod(
        &mut k,
        seg,
        "logger",
        &obj("hello:\n\
             mov eax, 0           ; KSVC log\n\
             mov ebx, msg         ; segment-relative offset\n\
             mov ecx, 3\n\
             int 0x81\n\
             ret\n\
             msg:\n\
             .asciz \"ext\"\n"),
        &["hello"],
    )
    .unwrap();
    kx.invoke(&mut k, seg, "hello", 0).unwrap();
    assert_eq!(k.console_text(), "ext");
}

#[test]
fn kernel_extension_time_limit() {
    let mut k = Kernel::boot();
    k.extension_cycle_limit = 20_000;
    let mut kx = KernelExtensions::new(&mut k).unwrap();
    // Abort-once semantics for this test: first strike quarantines.
    let seg = kx
        .create_segment_with(
            &mut k,
            8,
            SegmentConfig {
                quarantine_threshold: 1,
                ..SegmentConfig::default()
            },
        )
        .unwrap();
    kx.insmod(&mut k, seg, "loop", &obj("spin:\njmp spin\n"), &["spin"])
        .unwrap();
    assert_eq!(kx.invoke(&mut k, seg, "spin", 0), Err(KextError::TimeLimit));
    assert!(kx.segment(seg).dead);
}

#[test]
fn async_requests_run_to_completion_in_order() {
    let mut k = Kernel::boot();
    let mut kx = KernelExtensions::new(&mut k).unwrap();
    let seg = kx.create_segment(&mut k, 16).unwrap();
    kx.insmod(
        &mut k,
        seg,
        "acc",
        &obj("; accumulates into a module-static counter\n\
             accumulate:\n\
             mov eax, [counter]\n\
             add eax, [esp+4]\n\
             mov [counter], eax\n\
             ret\n\
             counter:\n\
             .dd 0\n"),
        &["accumulate"],
    )
    .unwrap();

    kx.queue_async(seg, "accumulate", 5);
    kx.queue_async(seg, "accumulate", 7);
    kx.queue_async(seg, "accumulate", 30);
    assert!(kx.segment(seg).busy);
    let results = kx.run_pending(&mut k, seg);
    assert_eq!(
        results,
        vec![Ok(5), Ok(12), Ok(42)],
        "requests ran in order, to completion"
    );
    assert!(!kx.segment(seg).busy);
}

#[test]
fn modules_in_one_segment_share_state() {
    // §4.3: modules in the same segment share the stack and can share data
    // freely; Palladium does not protect them from each other.
    let mut k = Kernel::boot();
    let mut kx = KernelExtensions::new(&mut k).unwrap();
    let seg = kx.create_segment(&mut k, 16).unwrap();
    let store = obj("put:\n\
         mov eax, [esp+4]\n\
         mov [slot], eax\n\
         ret\n\
         slot:\n\
         .dd 0\n");
    kx.insmod(&mut k, seg, "writer", &store, &["put"]).unwrap();
    // The second module reads the first one's slot by absolute offset —
    // allowed within a segment.
    let slot_off = {
        let seg_ref = kx.segment(seg);
        seg_ref.functions["put"] + store.symbol("slot").unwrap()
    };
    let reader = obj(&format!("peek:\nmov eax, [{slot_off}]\nret\n"));
    kx.insmod(&mut k, seg, "reader", &reader, &["peek"])
        .unwrap();

    kx.invoke(&mut k, seg, "put", 0xBEEF).unwrap();
    assert_eq!(kx.invoke(&mut k, seg, "peek", 0).unwrap(), 0xBEEF);
}

#[test]
fn separate_segments_isolate_modules() {
    let mut k = Kernel::boot();
    let mut kx = KernelExtensions::new(&mut k).unwrap();
    let seg_a = kx.create_segment(&mut k, 8).unwrap();
    let seg_b = kx.create_segment(&mut k, 8).unwrap();
    kx.insmod(
        &mut k,
        seg_a,
        "a",
        &obj("fa:\nmov [mine], eax\nret\nmine:\n.dd 0\n"),
        &["fa"],
    )
    .unwrap();
    // B tries to read A's memory through a flat offset — its own segment
    // limit stops it (A's base is far outside B's 32 KB window).
    kx.insmod(
        &mut k,
        seg_b,
        "b",
        &obj("fb:\nmov eax, [0x200000]\nret\n"),
        &["fb"],
    )
    .unwrap();
    assert!(matches!(
        kx.invoke(&mut k, seg_b, "fb", 0),
        Err(KextError::Aborted(_))
    ));
    // A is untouched by B's abort.
    assert!(!kx.segment(seg_a).dead);
    assert!(kx.invoke(&mut k, seg_a, "fa", 1).is_ok());
}

#[test]
fn rmmod_unregisters_functions() {
    let mut k = Kernel::boot();
    let mut kx = KernelExtensions::new(&mut k).unwrap();
    let seg = kx.create_segment(&mut k, 8).unwrap();
    kx.insmod(&mut k, seg, "m", &obj("f:\nmov eax, 3\nret\n"), &["f"])
        .unwrap();
    assert_eq!(kx.invoke(&mut k, seg, "f", 0).unwrap(), 3);

    assert!(kx.rmmod(seg, "m"));
    assert!(!kx.rmmod(seg, "m"), "second rmmod is a no-op");
    assert_eq!(
        kx.invoke(&mut k, seg, "f", 0),
        Err(KextError::NoSuchFunction("f".into()))
    );
    // The segment stays usable for new modules.
    kx.insmod(&mut k, seg, "m2", &obj("g:\nmov eax, 4\nret\n"), &["g"])
        .unwrap();
    assert_eq!(kx.invoke(&mut k, seg, "g", 0).unwrap(), 4);
}

#[test]
fn destroy_segment_revokes_descriptors() {
    let mut k = Kernel::boot();
    let mut kx = KernelExtensions::new(&mut k).unwrap();
    let seg = kx.create_segment(&mut k, 8).unwrap();
    kx.insmod(&mut k, seg, "m", &obj("f:\nret\n"), &["f"])
        .unwrap();
    let code_sel = kx.segment(seg).code_sel;

    kx.destroy_segment(&mut k, seg);
    assert_eq!(kx.invoke(&mut k, seg, "f", 0), Err(KextError::SegmentDead));

    // The descriptor is now not-present: any attempt to transfer through
    // the stale selector faults.
    match k.m.gdt.get(code_sel.index()).copied().unwrap() {
        x86sim::Descriptor::Code(c) => assert!(!c.present, "descriptor revoked"),
        other => panic!("unexpected descriptor {other:?}"),
    }

    // Other segments are unaffected.
    let seg2 = kx.create_segment(&mut k, 8).unwrap();
    kx.insmod(&mut k, seg2, "m", &obj("g:\nmov eax, 8\nret\n"), &["g"])
        .unwrap();
    assert_eq!(kx.invoke(&mut k, seg2, "g", 0).unwrap(), 8);
}

#[test]
fn service_stubs_make_services_plain_calls() {
    use crate::dl::merge_objects;
    use crate::user_ext::ExtensibleApp as App;

    let mut k = Kernel::boot();
    let mut app = ExtensibleApp::new(&mut k).unwrap();

    // Two application services at SPL 2.
    let syms = app
        .install_app_code(
            &mut k,
            &obj("svc_double:\n\
                 mov eax, [esp+4]\n\
                 add eax, eax\n\
                 ret\n\
                 svc_sum2:\n\
                 mov eax, [esp+4]\n\
                 add eax, [esp+8]\n\
                 ret\n"),
        )
        .unwrap();
    let g1 = app.register_service(&mut k, syms["svc_double"]).unwrap();
    let g2 = app.register_service(&mut k, syms["svc_sum2"]).unwrap();

    // The stub generator synthesizes near-callable wrappers; the
    // extension just `call`s them — no lcall, no selector knowledge.
    let stubs = App::service_stubs_object(&[("double", g1), ("sum2", g2)]);
    let ext = obj("use_both:\n\
         push dword [esp+4]\n\
         call double\n\
         add esp, 4\n\
         push 5\n\
         push eax\n\
         call sum2\n\
         add esp, 8\n\
         ret\n");
    let merged = merge_objects(&[&ext, &stubs]).unwrap();
    let h = app.dlopen(&mut k, &merged, &DlopenOptions::new()).unwrap();
    let f = app.seg_dlsym(&mut k, h, "use_both").unwrap();

    // (21*2) + 5 = 47, computed across four protection-domain crossings.
    assert_eq!(app.call_extension(&mut k, f, 21).unwrap(), 47);
}

#[test]
fn multi_argument_services_see_gcc_layout() {
    use crate::dl::merge_objects;
    use crate::user_ext::ExtensibleApp as App;

    let mut k = Kernel::boot();
    let mut app = ExtensibleApp::new(&mut k).unwrap();
    // A three-argument service: a*x + b (stack layout as a plain call).
    let syms = app
        .install_app_code(
            &mut k,
            &obj("axb:\n\
                 mov eax, [esp+4]\n\
                 imul eax, [esp+8]\n\
                 add eax, [esp+12]\n\
                 ret\n"),
        )
        .unwrap();
    let gate = app.register_service(&mut k, syms["axb"]).unwrap();
    let stubs = App::service_stubs_object(&[("axb", gate)]);
    let ext = obj("entry:\n\
         push 7\n\
         push 6\n\
         push dword [esp+12]\n\
         call axb\n\
         add esp, 12\n\
         ret\n");
    let merged = merge_objects(&[&ext, &stubs]).unwrap();
    let h = app.dlopen(&mut k, &merged, &DlopenOptions::new()).unwrap();
    let f = app.seg_dlsym(&mut k, h, "entry").unwrap();
    // arg*6 + 7 with arg = 5.
    assert_eq!(app.call_extension(&mut k, f, 5).unwrap(), 37);
}

#[test]
fn kernel_extension_trace_shows_spl0_spl1_round_trip() {
    use crate::segdb::SegDb;

    let mut k = Kernel::boot();
    let mut kx = KernelExtensions::new(&mut k).unwrap();
    let seg = kx.create_segment(&mut k, 8).unwrap();
    kx.insmod(
        &mut k,
        seg,
        "m",
        &obj("f:\nmov eax, [esp+4]\nadd eax, 2\nret\n"),
        &["f"],
    )
    .unwrap();
    kx.invoke(&mut k, seg, "f", 0).unwrap(); // warm

    k.m.enable_trace(256);
    assert_eq!(kx.invoke(&mut k, seg, "f", 40).unwrap(), 42);
    let trace = k.m.disable_trace().unwrap();

    // SPL 0 (stub/prepare/kret) and SPL 1 (transfer + extension) both ran;
    // exactly two crossings, mirroring the user-level path.
    let profile = SegDb::domain_profile(&trace);
    assert!(profile[&0] > 0, "ring-0 stub cycles");
    assert!(profile[&1] > 0, "ring-1 extension cycles");
    assert_eq!(SegDb::crossings(&trace), 2);

    // The ring-1 side includes the DS reload (12-cycle MovToSeg) the
    // paper attributes to cross-segment kernel extensions.
    let ring1 = crate::segdb::in_domain(&trace, 1);
    assert!(
        ring1
            .iter()
            .any(|r| matches!(r.insn, asm86::Insn::MovToSeg(..))),
        "kernel Transfer reloads DS: {ring1:?}"
    );
}

#[test]
fn ring1_extension_can_name_sibling_segment_documented_nuance() {
    // DESIGN.md §11: on real x86 (and here), a ring-1 code segment may
    // *load* another ring-1 data segment if it can guess the GDT
    // selector — segments protect the kernel (limit + SPL), and
    // inter-module isolation relies on selector opacity plus the
    // segment-per-module discipline. This test pins the semantics so the
    // deviation note stays true.
    let mut k = Kernel::boot();
    let mut kx = KernelExtensions::new(&mut k).unwrap();
    let seg_a = kx.create_segment(&mut k, 8).unwrap();
    let seg_b = kx.create_segment(&mut k, 8).unwrap();
    kx.insmod(
        &mut k,
        seg_a,
        "victim",
        &obj("fa:\nret\nsecret:\n.dd 0x5EC2E7\n"),
        &["fa"],
    )
    .unwrap();
    let secret_off = {
        let store = obj("fa:\nret\nsecret:\n.dd 0x5EC2E7\n");
        kx.segment(seg_a).functions["fa"] + store.symbol("secret").unwrap()
    };
    let b_data_sel_of_a = kx.segment(seg_a).data_sel.0;

    // Extension B loads A's data selector (same DPL) and reads the
    // "secret" — permitted by the hardware rules.
    let spy = obj(&format!(
        "spy:\n\
         mov ecx, {b_data_sel_of_a}\n\
         mov es, ecx\n\
         mov eax, es:[{secret_off}]\n\
         ret\n"
    ));
    kx.insmod(&mut k, seg_b, "spy", &spy, &["spy"]).unwrap();
    assert_eq!(
        kx.invoke(&mut k, seg_b, "spy", 0).unwrap(),
        0x5EC2E7,
        "same-ring sibling segments are loadable when the selector is known"
    );

    // What it can NOT do is reach ring-0 data: kernel selectors fault.
    let kdata = k.sel.kdata.0;
    let escalate = obj(&format!(
        "esc:\n\
         mov ecx, {kdata}\n\
         mov es, ecx\n\
         ret\n"
    ));
    kx.insmod(&mut k, seg_b, "esc", &escalate, &["esc"])
        .unwrap();
    assert!(matches!(
        kx.invoke(&mut k, seg_b, "esc", 0),
        Err(KextError::Aborted(_))
    ));
}

#[test]
fn extension_cannot_rewrite_its_own_transfer_routine() {
    // The SPL 3 trampoline page is sealed read-only: an extension that
    // tries to redirect its Transfer (e.g. to skip the gate) faults.
    let mut k = Kernel::boot();
    let mut app = ExtensibleApp::new(&mut k).unwrap();
    let h = app
        .dlopen(
            &mut k,
            &obj("vandal:\n\
                 mov ecx, [esp+4]       ; transfer address (passed in)\n\
                 mov eax, 0x90909090\n\
                 mov [ecx], eax\n\
                 ret\n"),
            &DlopenOptions::new(),
        )
        .unwrap();
    let prep = app.seg_dlsym(&mut k, h, "vandal").unwrap();
    let (_, transfer) = app.trampoline_addrs(h, "vandal").unwrap();
    match app.call_extension(&mut k, prep, transfer) {
        Err(ExtCallError::Fault { addr, .. }) => assert_eq!(addr, transfer),
        other => panic!("expected RO fault on the trampoline, got {other:?}"),
    }
    // The trampoline is intact: the function still calls fine with a
    // harmless argument target (its own stack scratch).
    let shared = app.alloc_shared(&mut k, 1).unwrap();
    assert!(app.call_extension(&mut k, prep, shared).is_ok());
}

#[test]
fn user_extension_cannot_reach_the_kernel_return_gate() {
    // The kernel-extension return gate has DPL 1; SPL 3 code naming it
    // faults on the gate privilege check (and cannot fabricate a path to
    // ring 0 through it).
    let mut k = Kernel::boot();
    let kx = KernelExtensions::new(&mut k).unwrap();
    let _ = &kx;
    // Find the gate the mechanism installed (the only DPL 1 gate).
    let mut gate_sel = None;
    for idx in 1..k.m.gdt.len() as u16 {
        if let Some(x86sim::Descriptor::Gate(g)) = k.m.gdt.get(idx) {
            if g.dpl == 1 {
                gate_sel = Some(x86sim::Selector::new(idx, false, 3));
            }
        }
    }
    let gate_sel = gate_sel.expect("kret gate exists");

    let mut app = ExtensibleApp::new(&mut k).unwrap();
    let h = app
        .dlopen(
            &mut k,
            &obj(&format!("f:\nlcall {}, 0\nret\n", gate_sel.0)),
            &DlopenOptions::new(),
        )
        .unwrap();
    let prep = app.seg_dlsym(&mut k, h, "f").unwrap();
    assert!(matches!(
        app.call_extension(&mut k, prep, 0),
        Err(ExtCallError::Fault { .. })
    ));
}

#[test]
fn two_extensible_applications_coexist_in_one_kernel() {
    // Two promoted apps, each with its own LDT call gates, extensions and
    // shared areas; calls interleave across context switches.
    let mut k = Kernel::boot();
    let mut app_a = ExtensibleApp::new(&mut k).unwrap();
    let mut app_b = ExtensibleApp::new(&mut k).unwrap();
    assert_ne!(app_a.tid, app_b.tid);

    let ha = app_a
        .dlopen(
            &mut k,
            &obj("f:\nmov eax, [esp+4]\nadd eax, 100\nret\n"),
            &DlopenOptions::new(),
        )
        .unwrap();
    let fa = app_a.seg_dlsym(&mut k, ha, "f").unwrap();
    let hb = app_b
        .dlopen(
            &mut k,
            &obj("f:\nmov eax, [esp+4]\nimul eax, 2\nret\n"),
            &DlopenOptions::new(),
        )
        .unwrap();
    let fb = app_b.seg_dlsym(&mut k, hb, "f").unwrap();

    // Interleaved protected calls force LDT/CR3/TSS swaps every time.
    for i in 0..10u32 {
        assert_eq!(app_a.call_extension(&mut k, fa, i).unwrap(), i + 100);
        assert_eq!(app_b.call_extension(&mut k, fb, i).unwrap(), i * 2);
    }
    assert_eq!(app_a.calls, 10);
    assert_eq!(app_b.calls, 10);
    assert!(
        k.stats.context_switches >= 19,
        "switched on each interleave"
    );

    // A's gate selector means nothing in B's LDT: the same numeric
    // selector either fails to resolve or names a different gate.
    assert_ne!(app_a.tid, app_b.tid);
    let ga = app_a.gate_sel;
    let gb = app_b.gate_sel;
    assert_eq!(
        ga, gb,
        "same LDT slot in different tables — and still isolated"
    );
}

// ---------- Session façade --------------------------------------------------

#[test]
fn session_full_lifecycle() {
    use crate::error::Error;
    use crate::session::Session;

    let mut s = Session::new().unwrap();
    let h = s
        .dlopen(
            &obj("inc:\nmov eax, [esp+4]\ninc eax\nret\n"),
            &DlopenOptions::new().verify(&["inc"]),
        )
        .unwrap();
    assert!(s.attestation(h).unwrap().is_some());
    let inc = s.dlsym(h, "inc").unwrap();
    assert_eq!(s.call(inc, 41).unwrap(), 42);

    // Closing revokes the pages; a later call is aborted, not fatal.
    s.dlclose(h).unwrap();
    match s.call(inc, 1) {
        Err(Error::Call(ExtCallError::Fault { .. })) => {}
        other => panic!("call into a closed extension must fault, got {other:?}"),
    }
    assert_eq!(s.app().aborted_calls, 1);
}

#[test]
fn session_verify_rejection_is_one_match_arm() {
    use crate::error::Error;
    use crate::session::Session;

    let mut s = Session::new().unwrap();
    let evil = obj(&format!("evil:\nmov eax, 1\nmov [{USER_TEXT}], eax\nret\n"));
    match s.dlopen(&evil, &DlopenOptions::new().verify(&["evil"])) {
        Err(Error::Verify(_)) => {}
        other => panic!("expected Error::Verify, got {other:?}"),
    }
    // The rejected load was rolled back: a fresh load still works.
    let h = s
        .dlopen(&obj("id:\nmov eax, [esp+4]\nret\n"), &DlopenOptions::new())
        .unwrap();
    let id = s.dlsym(h, "id").unwrap();
    assert_eq!(s.call(id, 7).unwrap(), 7);
}

#[test]
fn session_matches_primitive_api_results() {
    use crate::session::Session;

    let src = "sq:\nmov eax, [esp+4]\nimul eax, eax\nret\n";

    let mut s = Session::new().unwrap();
    let h = s.dlopen(&obj(src), &DlopenOptions::new()).unwrap();
    let sq = s.dlsym(h, "sq").unwrap();
    let via_session: Vec<u32> = (0..8).map(|n| s.call(sq, n).unwrap()).collect();

    let mut k = Kernel::boot();
    let mut app = ExtensibleApp::new(&mut k).unwrap();
    let h = app
        .dlopen(&mut k, &obj(src), &DlopenOptions::new())
        .unwrap();
    let sq = app.seg_dlsym(&mut k, h, "sq").unwrap();
    let via_primitives: Vec<u32> = (0..8)
        .map(|n| app.call_extension(&mut k, sq, n).unwrap())
        .collect();

    assert_eq!(via_session, via_primitives);
}

#[test]
fn segment_config_builder_matches_manual_construction() {
    let built = SegmentConfig::builder()
        .quarantine_threshold(5)
        .recycle_descriptors(false)
        .verify(true)
        .build();
    assert_eq!(built.quarantine_threshold, 5);
    assert!(!built.recycle_descriptors);
    assert!(built.verify);
    assert!(built.verified.is_none());

    let dflt = SegmentConfig::builder().build();
    assert_eq!(
        dflt.quarantine_threshold,
        SegmentConfig::default().quarantine_threshold
    );
}

// ---------- durable checkpoints --------------------------------------------

mod checkpoint {
    use seedrng::SeedRng;
    use x86sim::image::{Dec, Enc, RestoreError};

    use super::obj;
    use crate::kernel_ext::{KernelExtensions, SegmentConfig};
    use crate::session::Session;
    use crate::supervisor::{ModuleImage, RestartPolicy, Supervisor};
    use crate::user_ext::DlopenOptions;

    fn warm_session() -> (Session, u32) {
        let mut s = Session::new().unwrap();
        let ext = obj("double:\nmov eax, [esp+4]\nadd eax, eax\nret\n");
        let h = s
            .dlopen(&ext, &DlopenOptions::new().verify(&["double"]))
            .unwrap();
        let double = s.dlsym(h, "double").unwrap();
        assert_eq!(s.call(double, 21).unwrap(), 42);
        (s, double)
    }

    fn observe(s: &Session) -> (u64, u64, u64, u64, u64) {
        (
            s.kernel().m.cycles(),
            s.kernel().m.insns(),
            s.app().calls,
            s.app().aborted_calls,
            s.app().verified_calls,
        )
    }

    #[test]
    fn session_checkpoint_roundtrips_and_resumes_identically() {
        let (mut live, double) = warm_session();
        let image = live.checkpoint();
        let mut restored = Session::restore(&image).unwrap();

        assert_eq!(observe(&live), observe(&restored));
        for arg in [1u32, 7, 100, 0x7FFF] {
            assert_eq!(
                live.call(double, arg).unwrap(),
                restored.call(double, arg).unwrap()
            );
            assert_eq!(observe(&live), observe(&restored));
        }
        // The restored world saves to the same bytes as the original.
        assert_eq!(live.checkpoint(), restored.checkpoint());
    }

    #[test]
    fn checkpoint_is_deterministic() {
        let (s, _) = warm_session();
        assert_eq!(s.checkpoint(), s.checkpoint());
        // Forks checkpoint to the same bytes as the parent.
        assert_eq!(s.fork().checkpoint(), s.checkpoint());
    }

    #[test]
    fn restored_session_survives_extension_fault() {
        let (mut live, _) = warm_session();
        let wild = obj("stray:\nmov eax, [0x00400000]\nret\n");
        let h = live.dlopen(&wild, &DlopenOptions::new()).unwrap();
        let stray = live.dlsym(h, "stray").unwrap();

        let image = live.checkpoint();
        let mut restored = Session::restore(&image).unwrap();

        let live_err = live.call(stray, 0).unwrap_err();
        let restored_err = restored.call(stray, 0).unwrap_err();
        assert_eq!(
            format!("{live_err:?}"),
            format!("{restored_err:?}"),
            "fault path must replay identically after restore"
        );
        assert_eq!(observe(&live), observe(&restored));
    }

    #[test]
    fn kernel_extensions_and_supervisor_roundtrip() {
        let mut k = minikernel::Kernel::boot();
        let mut kx = KernelExtensions::new(&mut k).unwrap();
        let mut sup = Supervisor::new(RestartPolicy::default());
        let img = ModuleImage::new(
            "double",
            obj("ext_double:\nmov eax, [esp+4]\nadd eax, eax\nret\n"),
            &["ext_double"],
        );
        let id = sup
            .install(&mut k, &mut kx, 16, SegmentConfig::default(), vec![img])
            .unwrap();
        assert_eq!(
            sup.invoke(&mut k, &mut kx, id, "ext_double", 8).unwrap(),
            16
        );

        let kbytes = k.save_image();
        let mut enc = Enc::new();
        kx.save_into(&mut enc);
        sup.save_into(&mut enc);
        let bytes = enc.into_vec();

        let mut k2 = minikernel::Kernel::restore_image(&kbytes).unwrap();
        let mut d = Dec::new(&bytes, "test.kx");
        let mut kx2 = KernelExtensions::restore_from(&mut d).unwrap();
        let mut sup2 = Supervisor::restore_from(&mut d).unwrap();
        d.finish().unwrap();

        for arg in [3u32, 11, 500] {
            assert_eq!(
                sup.invoke(&mut k, &mut kx, id, "ext_double", arg).unwrap(),
                sup2.invoke(&mut k2, &mut kx2, id, "ext_double", arg)
                    .unwrap()
            );
        }
        assert_eq!(kx.calls, kx2.calls);
        assert_eq!(kx.aborts, kx2.aborts);
        assert_eq!(k.m.cycles(), k2.m.cycles());
        assert_eq!(sup.restarts, sup2.restarts);
    }

    #[test]
    fn corrupt_session_images_are_rejected() {
        let (s, _) = warm_session();
        let image = s.checkpoint();
        let mut rng = SeedRng::new(0x5E55_10FF);

        for _ in 0..48 {
            let mut bad = image.clone();
            let bit = rng.gen_range(0, (bad.len() * 8) as u32) as usize;
            bad[bit / 8] ^= 1 << (bit % 8);
            match Session::restore(&bad) {
                Ok(_) => panic!("bit flip at {bit} silently restored"),
                Err(e) => {
                    let _: RestoreError = e; // typed, never a panic
                }
            }
        }
        for _ in 0..24 {
            let cut = rng.gen_range(0, image.len() as u32) as usize;
            assert!(
                Session::restore(&image[..cut]).is_err(),
                "truncation at {cut} silently restored"
            );
        }
    }
}

// ---------- isolation backends ---------------------------------------------

mod backends {
    use super::obj;
    use crate::backend::{BackendKind, FaultAttribution};
    use crate::error::Error;
    use crate::session::Session;
    use crate::user_ext::DlopenOptions;

    /// An extension that stores its argument through itself as a pointer
    /// — the canonical wild write when called with an app-private address.
    const WILD: &str = "wild:\nmov eax, [esp+4]\nmov [eax], eax\nret\n";

    #[test]
    fn every_backend_runs_a_plain_extension() {
        for kind in BackendKind::ALL {
            let mut s = Session::with_backend(kind).unwrap();
            let h = s
                .dlopen(
                    &obj("double:\nmov eax, [esp+4]\nadd eax, eax\nret\n"),
                    &DlopenOptions::new(),
                )
                .unwrap();
            assert_eq!(s.app().backend_of(h).unwrap(), kind);
            let f = s.dlsym(h, "double").unwrap();
            assert_eq!(s.call(f, 21).unwrap(), 42, "{kind}");
            assert!(
                s.leak_audit().is_empty(),
                "{kind}: leak audit on a live extension"
            );
        }
    }

    #[test]
    fn hardware_backends_fault_the_wild_write_with_their_own_check() {
        for (kind, tag) in [
            (BackendKind::SegPaging, "page-protection"),
            (BackendKind::ProtKeys, "page-key"),
        ] {
            let mut s = Session::with_backend(kind).unwrap();
            let h = s.dlopen(&obj(WILD), &DlopenOptions::new()).unwrap();
            let f = s.dlsym(h, "wild").unwrap();
            let victim = s.app().save_slot_addr();
            let e = match s.call(f, victim) {
                Err(Error::Call(e)) => e,
                other => panic!("{kind}: wild write must abort the call, got {other:?}"),
            };
            assert_eq!(
                e.attribution(),
                FaultAttribution::Contained { check: tag },
                "{kind}: {e:?}"
            );
            // The slot is legitimately rewritten by Prepare on every call,
            // but the extension's poison value must never have landed.
            assert_ne!(
                s.kernel().m.host_read_u32(victim),
                victim,
                "{kind}: poison landed"
            );
        }
    }

    #[test]
    fn sfi_masks_the_wild_write_into_the_sandbox() {
        let mut s = Session::with_backend(BackendKind::Sfi).unwrap();
        let h = s.dlopen(&obj(WILD), &DlopenOptions::new()).unwrap();
        let f = s.dlsym(h, "wild").unwrap();
        let victim = s.app().save_slot_addr();
        let before = s.kernel().m.host_read_u32(victim);
        // SFI redirects rather than faults: the call completes...
        s.call(f, victim).unwrap();
        // ...the victim is untouched...
        assert_eq!(s.kernel().m.host_read_u32(victim), before);
        // ...and the store landed inside the sandbox at the masked offset.
        let (base, size) = s.app().sandbox_of(h).unwrap().unwrap();
        let landed = base + (victim & (size - 1));
        assert_eq!(s.kernel().m.host_read_u32(landed), victim);
    }

    #[test]
    fn prot_keys_key_gates_survive_close() {
        let mut s = Session::with_backend(BackendKind::ProtKeys).unwrap();
        let h = s.dlopen(&obj("f:\nret\n"), &DlopenOptions::new()).unwrap();
        let f = s.dlsym(h, "f").unwrap();
        s.call(f, 0).unwrap();
        assert!(s.kernel().m.key_gate_sites().next().is_some());
        s.dlclose(h).unwrap();
        // Close unregisters the gate; the audit stays clean.
        assert_eq!(s.kernel().m.key_gate_sites().count(), 0);
        assert!(s.leak_audit().is_empty());
    }

    #[test]
    fn leak_audit_checks_key_gates_under_every_backend() {
        for kind in BackendKind::ALL {
            // The session default plus one per-load ProtKeys extension,
            // whose gate is owned while it is open.
            let mut s = Session::with_backend(kind).unwrap();
            let plain = s.dlopen(&obj("g:\nret\n"), &DlopenOptions::new()).unwrap();
            let keyed = s
                .dlopen(
                    &obj("f:\nret\n"),
                    &DlopenOptions::new().backend(BackendKind::ProtKeys),
                )
                .unwrap();
            for (h, name) in [(plain, "g"), (keyed, "f")] {
                let f = s.dlsym(h, name).unwrap();
                s.call(f, 0).unwrap();
            }
            assert!(s.leak_audit().is_empty(), "{kind}: {:?}", s.leak_audit());

            // A gate site no extension's Transfer owns is flagged whatever
            // the session's backend.
            let stray = s.app().save_slot_addr();
            s.kernel_mut().m.register_key_gate(stray);
            let findings = s.leak_audit();
            assert_eq!(findings.len(), 1, "{kind}: {findings:?}");
            assert!(
                findings[0].contains("stale key gate"),
                "{kind}: {findings:?}"
            );
            s.kernel_mut().m.unregister_key_gate(stray);

            s.dlclose(keyed).unwrap();
            s.dlclose(plain).unwrap();
            assert_eq!(s.kernel().m.key_gate_sites().count(), 0, "{kind}");
            assert!(s.leak_audit().is_empty(), "{kind}: {:?}", s.leak_audit());
        }
    }

    #[test]
    fn checkpoints_carry_backend_identity() {
        let mut s = Session::with_backend(BackendKind::ProtKeys).unwrap();
        let h = s
            .dlopen(&obj("f:\nmov eax, 7\nret\n"), &DlopenOptions::new())
            .unwrap();
        let f = s.dlsym(h, "f").unwrap();
        let image = s.checkpoint();

        // Plain restore keeps the backend; restore_as demands it.
        let mut r = Session::restore(&image).unwrap();
        assert_eq!(r.backend(), BackendKind::ProtKeys);
        assert_eq!(r.call(f, 0).unwrap(), 7);
        assert!(Session::restore_as(&image, BackendKind::ProtKeys).is_ok());
        match Session::restore_as(&image, BackendKind::SegPaging) {
            Err(Error::BackendMismatch { found, expected }) => {
                assert_eq!(found, BackendKind::ProtKeys);
                assert_eq!(expected, BackendKind::SegPaging);
            }
            other => panic!("wrong-backend restore must be a typed rejection, got {other:?}"),
        }
    }

    #[test]
    fn forks_inherit_the_backend() {
        let mut s = Session::with_backend(BackendKind::Sfi).unwrap();
        let h = s
            .dlopen(&obj("f:\nmov eax, 9\nret\n"), &DlopenOptions::new())
            .unwrap();
        let f = s.dlsym(h, "f").unwrap();
        let mut child = s.fork();
        assert_eq!(child.backend(), BackendKind::Sfi);
        assert_eq!(child.call(f, 0).unwrap(), 9);
        assert_eq!(s.call(f, 0).unwrap(), 9);
    }

    #[test]
    fn sfi_rejects_what_the_rewriter_cannot_sandbox() {
        let mut s = Session::with_backend(BackendKind::Sfi).unwrap();
        // A relative branch is fine for the hardware backends but outside
        // the SFI rewriter's admitted subset.
        let src = "f:\njmp out\nout:\nret\n";
        match s.dlopen(&obj(src), &DlopenOptions::new()) {
            Err(Error::Sfi(_)) => {}
            other => panic!("expected an SFI rejection, got {other:?}"),
        }
        let mut seg = Session::new().unwrap();
        seg.dlopen(&obj(src), &DlopenOptions::new()).unwrap();
    }

    #[test]
    fn per_load_backend_overrides_the_session_default() {
        let mut s = Session::new().unwrap();
        let h = s
            .dlopen(
                &obj("f:\nmov eax, 5\nret\n"),
                &DlopenOptions::new().backend(BackendKind::ProtKeys),
            )
            .unwrap();
        assert_eq!(s.app().backend_of(h).unwrap(), BackendKind::ProtKeys);
        let f = s.dlsym(h, "f").unwrap();
        assert_eq!(s.call(f, 0).unwrap(), 5);
    }
}
