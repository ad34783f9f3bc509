//! Load-time static verification, end to end: shipped extensions are
//! admitted unchanged, hostile ones are rejected with typed errors,
//! admission failures never burn supervision strikes, and an attestation
//! changes neither simulated results, cycle charges nor the simulator's
//! predecode mode.

use asm86::Assembler;
use minikernel::Kernel;
use palladium::kernel_ext::{KernelExtensions, KextError, SegmentConfig};
use palladium::supervisor::{ModuleImage, RestartPolicy, SupervisedState, Supervisor};
use palladium::user_ext::{DlopenOptions, ExtensibleApp};
use palladium::{Error, Session, VerifyError};
use seedrng::SeedRng;

fn obj(src: &str) -> asm86::Object {
    Assembler::assemble(src).expect("assembles")
}

fn verifying() -> SegmentConfig {
    SegmentConfig {
        verify: true,
        ..SegmentConfig::default()
    }
}

// --- kernel side -----------------------------------------------------------

/// The same module, loaded verified and unverified: identical return
/// values and identical simulated cycle charges; `DispatchStats` only
/// counts which kind of segment was called.
#[test]
fn verified_dispatch_is_cycle_identical_to_unverified() {
    let src = "dbl:\nmov eax, [esp+4]\nadd eax, eax\nret\n";

    let run = |config: SegmentConfig| {
        let mut k = Kernel::boot();
        let mut kx = KernelExtensions::new(&mut k).unwrap();
        let seg = kx.create_segment_with(&mut k, 8, config).unwrap();
        kx.insmod(&mut k, seg, "m", &obj(src), &["dbl"]).unwrap();
        let before = k.m.cycles();
        let v = kx.invoke(&mut k, seg, "dbl", 21).unwrap();
        (v, k.m.cycles() - before, kx.dispatch)
    };

    let (v1, cycles1, stats1) = run(verifying());
    let (v0, cycles0, stats0) = run(SegmentConfig::default());
    assert_eq!(v1, 42);
    assert_eq!(v0, 42);
    assert_eq!(
        cycles1, cycles0,
        "attestation must not change simulated cycle charges"
    );
    assert_eq!(stats1.verified, 1);
    assert_eq!(stats1.entry_checks, 0);
    assert_eq!(stats0.verified, 0);
    assert_eq!(stats0.entry_checks, 1);
}

/// `Machine::set_predecode` is the only predecode switch: with it off,
/// verified kernel and user calls stay on the byte-wise fetch path
/// (no predecode hits or misses at all).
#[test]
fn attestation_never_enables_predecode() {
    let src = "dbl:\nmov eax, [esp+4]\nadd eax, eax\nret\n";

    let mut k = Kernel::boot();
    k.m.set_predecode(false);
    let mut kx = KernelExtensions::new(&mut k).unwrap();
    let seg = kx.create_segment_with(&mut k, 8, verifying()).unwrap();
    kx.insmod(&mut k, seg, "m", &obj(src), &["dbl"]).unwrap();
    let before = k.m.predecode_stats();
    assert_eq!(kx.invoke(&mut k, seg, "dbl", 21).unwrap(), 42);
    assert_eq!(kx.dispatch.verified, 1);
    let pre = k.m.predecode_stats();
    assert_eq!(
        (pre.hits - before.hits, pre.misses - before.misses),
        (0, 0),
        "kernel call predecoded"
    );

    let mut s = Session::new().unwrap();
    s.kernel_mut().m.set_predecode(false);
    let h = s
        .dlopen(&obj(src), &DlopenOptions::new().verify(&["dbl"]))
        .unwrap();
    let f = s.dlsym(h, "dbl").unwrap();
    let before = s.kernel().m.predecode_stats();
    assert_eq!(s.call(f, 21).unwrap(), 42);
    assert_eq!(s.app().verified_calls, 1);
    let pre = s.kernel().m.predecode_stats();
    assert_eq!(
        (pre.hits - before.hits, pre.misses - before.misses),
        (0, 0),
        "user call predecoded"
    );
}

/// A rejected module leaves the segment untouched: the typed error names
/// the violation, nothing was written, and a benign module still loads
/// into the same segment afterwards.
#[test]
fn rejected_module_leaves_segment_loadable() {
    let mut k = Kernel::boot();
    let mut kx = KernelExtensions::new(&mut k).unwrap();
    let seg = kx.create_segment_with(&mut k, 8, verifying()).unwrap();

    let err = kx
        .insmod(
            &mut k,
            seg,
            "esc",
            &obj("esc:\nmov eax, [0x100000]\nret\n"),
            &["esc"],
        )
        .unwrap_err();
    match err {
        KextError::Verify(VerifyError::OutOfSegment { lo, .. }) => {
            assert_eq!(lo, 0x0010_0000);
        }
        other => panic!("expected an out-of-segment rejection, got {other:?}"),
    }

    kx.insmod(&mut k, seg, "ok", &obj("f:\nmov eax, 9\nret\n"), &["f"])
        .unwrap();
    assert_eq!(kx.invoke(&mut k, seg, "f", 0).unwrap(), 9);
}

/// The hostile classes the paper's protection model exists for, each
/// caught statically with its own typed error.
#[test]
fn hostile_kernel_modules_get_typed_rejections() {
    let mut k = Kernel::boot();
    let mut kx = KernelExtensions::new(&mut k).unwrap();

    type Classifier = fn(&VerifyError) -> bool;
    let cases: [(&str, &str, Classifier); 4] = [
        ("h:\nhlt\nret\n", "h", |e| {
            matches!(e, VerifyError::Privileged { .. })
        }),
        ("p:\nint 0x80\nret\n", "p", |e| {
            matches!(e, VerifyError::ForbiddenVector { vector: 0x80, .. })
        }),
        ("g:\nlcall 0x1b, 0\nret\n", "g", |e| {
            matches!(e, VerifyError::ForbiddenGate { .. })
        }),
        ("w:\nmov eax, 0x200000\nmov [eax], eax\nret\n", "w", |e| {
            matches!(e, VerifyError::OutOfSegment { .. })
        }),
    ];
    for (src, entry, matches_class) in cases {
        let seg = kx.create_segment_with(&mut k, 8, verifying()).unwrap();
        match kx.insmod(&mut k, seg, "m", &obj(src), &[entry]) {
            Err(KextError::Verify(e)) => {
                assert!(matches_class(&e), "{entry}: wrong class: {e:?}")
            }
            other => panic!("{entry}: expected verify rejection, got {other:?}"),
        }
    }
}

/// Every corruption class from the chaos generators is rejected at
/// admission or — if the damage happened to leave a clean program —
/// admitted and then contained like any extension. No third outcome.
#[test]
fn corrupted_modules_rejected_or_contained() {
    let mut r = SeedRng::new(0x5EED_1A40);
    let mut rejected = 0u32;
    let mut admitted = 0u32;
    for _ in 0..60 {
        let (_kind, cobj) = chaos::corrupt::corrupted_object(&mut r);
        let mut k = Kernel::boot();
        let mut kx = KernelExtensions::new(&mut k).unwrap();
        let seg = kx.create_segment_with(&mut k, 8, verifying()).unwrap();
        match kx.insmod(&mut k, seg, "m", &cobj, &["entry"]) {
            Err(KextError::Verify(_) | KextError::Link(_)) => rejected += 1,
            Err(other) => panic!("unexpected admission error: {other:?}"),
            Ok(()) => {
                admitted += 1;
                // Whatever survived verification must run contained:
                // a typed result, segment state still coherent.
                let _ = kx.invoke(&mut k, seg, "entry", 1);
            }
        }
    }
    assert_eq!(rejected + admitted, 60);
    assert!(rejected > admitted, "{rejected} rejected vs {admitted}");
}

// --- supervision -----------------------------------------------------------

/// A staged module image that fails verification at restart tombstones
/// the extension immediately — deterministic admission failures must not
/// loop through the backoff ladder burning restart strikes.
#[test]
fn verify_failure_at_restart_tombstones_without_burning_strikes() {
    let mut k = Kernel::boot();
    let mut kx = KernelExtensions::new(&mut k).unwrap();
    let mut sup = Supervisor::new(RestartPolicy::immediate());

    // A runaway loop verifies clean (the verifier proves absence of
    // *violations*, not termination) but dies on the CPU-time limit.
    let runaway = ModuleImage::new("spin", obj("entry:\nspin:\njmp spin\n"), &["entry"]);
    let config = SegmentConfig {
        quarantine_threshold: 1,
        ..verifying()
    };
    let id = sup
        .install(&mut k, &mut kx, 8, config, vec![runaway])
        .unwrap();

    // Stage a hostile replacement for the next restart.
    sup.stage_images(
        id,
        vec![ModuleImage::new(
            "evil",
            obj("entry:\nint 0x80\nret\n"),
            &["entry"],
        )],
    );

    // Kill it: time-limit abort, one-strike quarantine, restart due.
    let err = sup.invoke(&mut k, &mut kx, id, "entry", 0).unwrap_err();
    assert!(matches!(
        err,
        palladium::supervisor::SupervisorError::Kext(KextError::TimeLimit)
    ));
    assert_eq!(sup.charged_restarts(id), 1);

    // The due restart loads the staged image, which fails verification:
    // immediate tombstone, no extra strikes, no further backoff.
    let state = sup.poll(&mut k, &mut kx, id);
    assert_eq!(state, SupervisedState::Tombstoned);
    assert_eq!(sup.tombstoned, 1);
    assert_eq!(
        sup.charged_restarts(id),
        1,
        "a deterministic admission failure must not burn restart strikes"
    );
}

// --- user side -------------------------------------------------------------

/// A `DlopenOptions::verify` load admits the quickstart extension, attaches an
/// attestation, and protected calls into it are counted as verified while
/// returning exactly the same results.
#[test]
fn verified_user_extension_round_trip() {
    let mut k = Kernel::boot();
    let mut app = ExtensibleApp::new(&mut k).unwrap();
    let fib = obj(
        "fib:\nmov ecx, [esp+4]\nmov eax, 0\nmov edx, 1\nfl:\ncmp ecx, 0\nje fd\n\
         mov ebx, eax\nadd ebx, edx\nmov eax, edx\nmov edx, ebx\ndec ecx\njmp fl\nfd:\nret\n",
    );
    let h = app
        .dlopen(&mut k, &fib, &DlopenOptions::new().verify(&["fib"]))
        .unwrap();
    let att = app.attestation(h).unwrap().expect("attestation recorded");
    assert_eq!(att.entries, 1);
    assert!(att.insns >= 12);

    let f = app.seg_dlsym(&mut k, h, "fib").unwrap();
    assert_eq!(app.call_extension(&mut k, f, 10).unwrap(), 55);
    assert_eq!(app.verified_calls, 1);
}

/// A hostile extension is rejected with `Error::Verify` and unloaded;
/// the application keeps working and can load a benign one afterwards.
#[test]
fn hostile_user_extension_rejected_and_unloaded() {
    let mut k = Kernel::boot();
    let mut app = ExtensibleApp::new(&mut k).unwrap();
    let evil = obj(&format!(
        "evil:\nmov eax, 0x41414141\nmov [{}], eax\nret\n",
        minikernel::USER_TEXT
    ));
    match app.dlopen(&mut k, &evil, &DlopenOptions::new().verify(&["evil"])) {
        Err(Error::Verify(VerifyError::OutOfSegment { .. })) => {}
        other => panic!("expected out-of-segment rejection, got {other:?}"),
    }

    let h = app
        .dlopen(
            &mut k,
            &obj("id:\nmov eax, [esp+4]\nret\n"),
            &DlopenOptions::new().verify(&["id"]),
        )
        .unwrap();
    let f = app.seg_dlsym(&mut k, h, "id").unwrap();
    assert_eq!(app.call_extension(&mut k, f, 77).unwrap(), 77);
}

/// An unverified load of the same hostile extension still works and is
/// contained by hardware at run time — verification is an *admission*
/// policy layered over the protection model, not a replacement for it.
#[test]
fn unverified_load_of_hostile_extension_stays_contained() {
    let mut k = Kernel::boot();
    let mut app = ExtensibleApp::new(&mut k).unwrap();
    let evil = obj(&format!(
        "evil:\nmov eax, 0x41414141\nmov [{}], eax\nret\n",
        minikernel::USER_TEXT
    ));
    let h = app.dlopen(&mut k, &evil, &DlopenOptions::new()).unwrap();
    let f = app.seg_dlsym(&mut k, h, "evil").unwrap();
    assert!(app.call_extension(&mut k, f, 0).is_err());
    assert_eq!(app.aborted_calls, 1);
}
