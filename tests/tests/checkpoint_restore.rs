//! Differential suite for durable world checkpoint/restore.
//!
//! The restore contract (DESIGN.md §11): a world restored from a
//! checkpoint image is cycle/stat/fault **byte-identical** going
//! forward to the world that was saved — on the figure7 packet-filter
//! workload, the campaign-style adversarial call mix and the fleet
//! rollout serving loop, with the predecode fast path on and off — and
//! a tampered image is *always* rejected with a typed error, for every
//! corruption class at every image layer. A crash-recovery drill must
//! walk corrupted lineage generations with bounded retries, fall back
//! to a cold boot when the lineage is exhausted, and report
//! byte-identically at every worker count.

use asm86::Assembler;
use fleet::drill::{self, DrillConfig, DrillOutcome};
use fleet::report::render_drill;
use fleet::Replica;
use minikernel::Kernel;
use netfilter::{extended_conjunction, reference_packet};
use palladium::kernel_ext::{ExtSegmentId, KernelExtensions};
use palladium::supervisor::RestartPolicy;
use palladium::{DlopenOptions, Session};
use seedrng::SeedRng;
use x86sim::image::{base, kind, Dec, Enc, ImageBuilder, ImageView, RestoreError};
use x86sim::machine::Machine;

// --- figure7 workload: kernel + kernel extensions ------------------------

/// Boots the figure7 world: a kernel with the 20-term compiled
/// conjunction filter loaded as a kernel extension.
fn figure7_world(predecode: bool) -> (Kernel, KernelExtensions, ExtSegmentId) {
    let mut k = Kernel::boot();
    k.m.set_predecode(predecode);
    let mut kx = KernelExtensions::new(&mut k).expect("kx");
    let seg = kx.create_segment(&mut k, 16).expect("segment");
    let obj = netfilter::compile::compile(&extended_conjunction(20));
    kx.insmod(&mut k, seg, "pktfilter", &obj, &["filter"])
        .expect("insmod");
    (k, kx, seg)
}

/// Drives `n` packets through the protected filter path and returns the
/// observable trajectory: per-packet verdicts plus (cycles, insns).
fn drive_figure7(
    k: &mut Kernel,
    kx: &mut KernelExtensions,
    seg: ExtSegmentId,
    n: u32,
) -> (Vec<u32>, u64, u64) {
    let (area, _) = kx.shared_area_linear(seg).expect("shared area");
    let pkt = reference_packet(96);
    let mut verdicts = Vec::new();
    for _ in 0..n {
        assert!(k.m.host_write(area, &pkt));
        let v = kx
            .invoke(k, seg, "filter", pkt.len() as u32)
            .expect("invoke");
        verdicts.push(v);
    }
    (verdicts, k.m.cycles(), k.m.insns())
}

/// Serializes (kernel, kernel extensions) into one buffer and back.
fn save_figure7(k: &Kernel, kx: &KernelExtensions) -> Vec<u8> {
    let mut e = Enc::new();
    e.blob(&k.save_image());
    kx.save_into(&mut e);
    e.into_vec()
}

fn restore_figure7(bytes: &[u8]) -> (Kernel, KernelExtensions) {
    let mut d = Dec::new(bytes, "figure7");
    let k = Kernel::restore_image(d.blob().unwrap()).expect("kernel restore");
    let kx = KernelExtensions::restore_from(&mut d).expect("kx restore");
    d.finish().expect("no trailing bytes");
    (k, kx)
}

/// Figure7 differential: restore mid-workload, continue both worlds,
/// and require identical verdicts, cycles, instructions and a
/// byte-identical re-checkpoint — with predecode on and off.
#[test]
fn figure7_restore_is_byte_identical_forward() {
    for predecode in [true, false] {
        let (mut k, mut kx, seg) = figure7_world(predecode);
        drive_figure7(&mut k, &mut kx, seg, 25);
        let img = save_figure7(&k, &kx);

        let (mut rk, mut rkx) = restore_figure7(&img);
        let live = drive_figure7(&mut k, &mut kx, seg, 40);
        let restored = drive_figure7(&mut rk, &mut rkx, seg, 40);
        assert_eq!(
            live, restored,
            "predecode={predecode}: trajectories diverged"
        );
        assert_eq!(
            save_figure7(&k, &kx),
            save_figure7(&rk, &rkx),
            "predecode={predecode}: re-checkpoints diverged"
        );
    }
}

// --- campaign-style workload: session + adversarial call mix -------------

/// Boots a session with a verified well-behaved extension and a wild
/// one that dereferences an unmapped kernel address.
fn campaign_world(predecode: bool) -> (Session, u32, u32) {
    let mut s = Session::new().expect("boot");
    s.kernel_mut().m.set_predecode(predecode);
    let good = Assembler::assemble("double:\nmov eax, [esp+4]\nadd eax, eax\nret\n").unwrap();
    let h = s
        .dlopen(&good, &DlopenOptions::new().verify(&["double"]))
        .expect("dlopen good");
    let double = s.dlsym(h, "double").expect("dlsym");
    let wild = Assembler::assemble("stray:\nmov eax, [0x00400000]\nret\n").unwrap();
    let hw = s.dlopen(&wild, &DlopenOptions::new()).expect("dlopen wild");
    let stray = s.dlsym(hw, "stray").expect("dlsym wild");
    (s, double, stray)
}

/// The adversarial mix: seeded interleaving of good calls and faulting
/// calls. Returns the trajectory — results, fault debug strings, call
/// counters, cycles.
fn drive_campaign(s: &mut Session, double: u32, stray: u32, seed: u64, n: u32) -> String {
    let mut r = SeedRng::new(seed);
    let mut log = String::new();
    for i in 0..n {
        if r.gen_range(0, 4) == 0 {
            let e = s.call(stray, i).expect_err("wild call must abort");
            log.push_str(&format!("{i}: fault {e:?}\n"));
        } else {
            let arg = r.gen_range(0, 1 << 15);
            let v = s.call(double, arg).expect("good call");
            assert_eq!(v, arg * 2);
            log.push_str(&format!("{i}: ok {v}\n"));
        }
    }
    let app = s.app();
    log.push_str(&format!(
        "cycles {} insns {} calls {} aborted {}\n",
        s.kernel().m.cycles(),
        s.kernel().m.insns(),
        app.calls,
        app.aborted_calls
    ));
    log
}

/// Satellite property test: at a *random* step of the seeded workload,
/// save → restore → continue equals the uninterrupted run byte-for-byte
/// (call results, fault log, counters, cycles — and the final image).
#[test]
fn random_step_save_restore_continue_equals_uninterrupted_run() {
    for (trial, predecode) in [(0u64, true), (1, false), (2, true), (3, false)] {
        let seed = 0x5AFE_0001 ^ trial;
        let cut = SeedRng::new(seed ^ 0xCC).gen_range(5, 70);

        // The uninterrupted run: one world, straight through.
        let (mut base, double, stray) = campaign_world(predecode);
        let full = drive_campaign(&mut base, double, stray, seed, 80);

        // The interrupted run: same world, checkpointed at `cut`,
        // restored, and continued with the *same* rng stream.
        let (mut s, d2, s2) = campaign_world(predecode);
        assert_eq!(
            (d2, s2),
            (double, stray),
            "world layout must be deterministic"
        );
        let mut r = SeedRng::new(seed);
        let mut log = String::new();
        for i in 0..cut {
            if r.gen_range(0, 4) == 0 {
                let e = s.call(stray, i).expect_err("wild call must abort");
                log.push_str(&format!("{i}: fault {e:?}\n"));
            } else {
                let arg = r.gen_range(0, 1 << 15);
                log.push_str(&format!("{i}: ok {}\n", s.call(double, arg).unwrap()));
            }
        }
        let img = s.checkpoint();
        drop(s); // the crash
        let mut s = Session::restore(&img).expect("restore");
        for i in cut..80 {
            if r.gen_range(0, 4) == 0 {
                let e = s.call(stray, i).expect_err("wild call must abort");
                log.push_str(&format!("{i}: fault {e:?}\n"));
            } else {
                let arg = r.gen_range(0, 1 << 15);
                log.push_str(&format!("{i}: ok {}\n", s.call(double, arg).unwrap()));
            }
        }
        let app = s.app();
        log.push_str(&format!(
            "cycles {} insns {} calls {} aborted {}\n",
            s.kernel().m.cycles(),
            s.kernel().m.insns(),
            app.calls,
            app.aborted_calls
        ));
        assert_eq!(
            full, log,
            "seed {seed:#x}, cut at {cut}: trajectories diverged"
        );
        assert_eq!(
            base.checkpoint(),
            s.checkpoint(),
            "seed {seed:#x}: final images diverged"
        );
    }
}

/// The fork interleaving: fork a warmed session, checkpoint the fork,
/// restore it, and require fork, restored-fork and parent-continuation
/// to stay mutually consistent — forks and restores compose.
#[test]
fn fork_then_checkpoint_then_restore_interleaving() {
    let (parent, double, stray) = campaign_world(true);

    let mut fork = parent.fork();
    let fork_log = drive_campaign(&mut fork, double, stray, 99, 30);
    let img = fork.checkpoint();

    // A second fork replays the same trajectory, then restores from the
    // first fork's checkpoint and must land in the identical state.
    let mut twin = parent.fork();
    let twin_log = drive_campaign(&mut twin, double, stray, 99, 30);
    assert_eq!(fork_log, twin_log);
    assert_eq!(
        twin.checkpoint(),
        img,
        "fork trajectories must re-serialize equal"
    );

    let restored = Session::restore(&img).expect("restore of a forked world");
    assert_eq!(restored.checkpoint(), img, "restore must round-trip");

    // All three continue in lockstep; the parent was never disturbed.
    let mut restored = restored;
    let a = drive_campaign(&mut fork, double, stray, 7, 20);
    let b = drive_campaign(&mut restored, double, stray, 7, 20);
    assert_eq!(a, b, "fork and restored fork diverged");
    let mut parent = parent;
    let p = drive_campaign(&mut parent, double, stray, 99, 30);
    assert_eq!(
        p, fork_log,
        "parent was disturbed by fork/checkpoint/restore"
    );
}

// --- rollout workload: fleet replica -------------------------------------

/// Rollout differential: a replica restored mid-stream re-serves the
/// identical request stream — stats, rounds and re-checkpoint all
/// byte-identical, predecode on and off.
#[test]
fn replica_restore_is_byte_identical_forward() {
    for predecode in [true, false] {
        let mut live = Replica::new(
            5,
            2,
            fleet::version_images("filter", 1),
            RestartPolicy::default(),
            20_000,
            predecode,
        )
        .expect("replica");
        for _ in 0..4 {
            live.serve_round(30);
        }
        let img = live.checkpoint();
        let mut restored = Replica::restore(&img).expect("restore");
        for _ in 0..5 {
            let a = live.serve_round(30);
            let b = restored.serve_round(30);
            assert_eq!(a, b, "predecode={predecode}: round stats diverged");
        }
        assert_eq!(live.stats, restored.stats);
        assert_eq!(
            live.checkpoint(),
            restored.checkpoint(),
            "predecode={predecode}: re-checkpoints diverged"
        );
    }
}

/// A warmed single-replica world (one served round).
fn warm_replica() -> Replica {
    let mut r = Replica::new(
        1,
        0,
        fleet::version_images("filter", 1),
        RestartPolicy::default(),
        20_000,
        true,
    )
    .expect("replica");
    r.serve_round(8);
    r
}

/// A replica image restores to a world that re-checkpoints to the same
/// bytes.
#[test]
fn replica_checkpoint_round_trips() {
    let img = warm_replica().checkpoint();
    let restored = Replica::restore(&img).expect("restore");
    assert!(restored.checkpoint() == img, "restore must round-trip");
}

/// The image is flat: a replica image carries the machine's sections
/// verbatim, exactly as a standalone machine image holds them, and
/// every layer's sections sit in its own id range.
#[test]
fn replica_image_carries_the_machine_sections_verbatim() {
    let r = warm_replica();
    let img = r.checkpoint();
    let machine_img = r.k.m.save_image();
    let replica = ImageView::parse(&img, kind::REPLICA).unwrap();
    let machine = ImageView::parse(&machine_img, kind::MACHINE).unwrap();
    let in_range = |v: &ImageView<'_>, base: u32| -> Vec<(u32, Vec<u8>)> {
        v.sections()
            .iter()
            .filter(|(id, _)| id & !0xFF == base)
            .map(|(id, p)| (*id, p.to_vec()))
            .collect()
    };
    let machine_secs = in_range(&machine, base::MACHINE);
    assert_eq!(machine_secs.len(), machine.sections().len());
    assert_eq!(in_range(&replica, base::MACHINE), machine_secs);
    for b in [base::KERNEL, base::APP, base::REPLICA] {
        assert!(!in_range(&replica, b).is_empty(), "no sections at {b:#x}");
    }
}

/// Counts decoded from an image bound every allocation they size: a
/// image with a valid trailer claiming `u32::MAX` elements is a typed error, never
/// an abort (this suite also runs under `ulimit -v` in CI).
#[test]
fn hostile_writer_counts_are_typed_errors() {
    use chaos::corrupt::with_hostile_word;
    let r = warm_replica();
    let truncated = |section| RestoreError::Truncated { section };

    // The frame count leads the machine's `frames` section.
    let frames = base::MACHINE + 8;
    let bad = with_hostile_word(&r.k.m.save_image(), kind::MACHINE, frames, 0, u32::MAX);
    assert_eq!(
        Machine::restore_image(&bad).err(),
        Some(truncated("frames"))
    );
    let bad = with_hostile_word(&r.checkpoint(), kind::REPLICA, frames, 0, u32::MAX);
    assert_eq!(Replica::restore(&bad).err(), Some(truncated("frames")));

    // The page-directory count leads the kernel's `kva` section.
    let bad = with_hostile_word(
        &r.k.save_image(),
        kind::KERNEL,
        base::KERNEL + 9,
        0,
        u32::MAX,
    );
    assert_eq!(Kernel::restore_image(&bad).err(), Some(truncated("kva")));

    // The violation count follows the replica's id, four u64 and three
    // u32 counters in its `state` section.
    let bad = with_hostile_word(
        &r.checkpoint(),
        kind::REPLICA,
        base::REPLICA + 4,
        48,
        u32::MAX,
    );
    assert_eq!(
        Replica::restore(&bad).err(),
        Some(truncated("replica.state"))
    );
}

/// A descriptor table longer than a 13-bit selector index can reach
/// fits its section's bytes, but its `u16` indices wrap and the restored
/// world could not save it again. Restore refuses it for both the GDT
/// and the LDT, so a lineage cannot be poisoned that way.
#[test]
fn oversized_descriptor_tables_are_malformed() {
    let img = warm_replica().k.m.save_image();
    let v = ImageView::parse(&img, kind::MACHINE).unwrap();
    for (table, id, present) in [
        ("gdt", base::MACHINE + 2, &[][..]),
        ("ldt", base::MACHINE + 3, &[1]),
    ] {
        let mut b = ImageBuilder::new(kind::MACHINE);
        for &(sid, payload) in v.sections() {
            b.section(sid, |e| {
                if sid == id {
                    // 70,000 entries: the null slot, then 69,999 null
                    // descriptors of one tag byte each.
                    e.bytes(present);
                    e.u32(70_000);
                    e.bytes(&[0; 69_999]);
                } else {
                    e.bytes(payload);
                }
            });
        }
        match Machine::restore_image(&b.finish()) {
            Err(RestoreError::Malformed { section, .. }) => assert_eq!(section, table),
            other => panic!("{table}: {:?}", other.map(drop)),
        }
    }
}

/// Seeded hostile writers at every layer: a `u32::MAX`, 0, sign-bit or
/// one-past-the-end length at a random aligned payload offset of a
/// random section, under a valid trailer. Such an image may legitimately
/// restore, but restore must return `Ok` or a typed error — never panic
/// or abort.
#[test]
fn hostile_writer_images_restore_or_fail_typed_at_every_layer() {
    let (session, double, _) = campaign_world(true);
    let mut warm = session.fork();
    warm.call(double, 5).unwrap();
    let machine_img = warm.kernel().m.save_image();
    let kernel_img = warm.kernel().save_image();
    let session_img = warm.checkpoint();
    let replica_img = warm_replica().checkpoint();

    type Restore = fn(&[u8]) -> Result<(), RestoreError>;
    let layers: [(&str, u32, &[u8], Restore); 4] = [
        ("machine", kind::MACHINE, &machine_img, |b| {
            Machine::restore_image(b).map(drop)
        }),
        ("kernel", kind::KERNEL, &kernel_img, |b| {
            Kernel::restore_image(b).map(drop)
        }),
        ("session", kind::SESSION, &session_img, |b| {
            Session::restore(b).map(drop)
        }),
        ("replica", kind::REPLICA, &replica_img, |b| {
            Replica::restore(b).map(drop)
        }),
    ];
    for (layer, k, img, restore) in layers {
        for seed in 0..64u64 {
            let mut r = SeedRng::new(seed);
            let (id, at, value, bad) = chaos::corrupt::hostile_writer_image(img, k, &mut r);
            assert!(
                ImageView::parse(&bad, k).is_ok(),
                "{layer} seed {seed}: the trailer must stay valid"
            );
            let outcome = std::panic::catch_unwind(|| restore(&bad));
            match outcome {
                Ok(Ok(())) => {}
                Ok(Err(e)) => assert!(!format!("{e}").is_empty()),
                Err(_) => panic!(
                    "{layer} seed {seed}: {value:#x} at section {id:#x} offset {at} panicked"
                ),
            }
        }
    }

    // An unaligned `cr3` would overflow the page walk when a restored
    // session reinstalls its proof tokens; restore must refuse it.
    let bad = chaos::corrupt::with_hostile_word(
        &session_img,
        kind::SESSION,
        base::MACHINE + 6,
        0,
        u32::MAX,
    );
    assert!(matches!(
        Session::restore(&bad),
        Err(RestoreError::Malformed { section: "mmu", .. })
    ));
}

// --- corruption matrix: every class × every image layer ------------------

/// Every corruption class applied to every image layer must be rejected
/// with a typed error — never accepted, never a host panic.
#[test]
fn corruption_matrix_rejects_every_class_at_every_layer() {
    let (session, double, _) = campaign_world(true);
    let mut warm = session.fork();
    warm.call(double, 5).unwrap();

    let machine_img = warm.kernel().m.save_image();
    let kernel_img = warm.kernel().save_image();
    let session_img = warm.checkpoint();
    let replica_img = Replica::new(
        1,
        0,
        fleet::version_images("filter", 1),
        RestartPolicy::default(),
        20_000,
        true,
    )
    .expect("replica")
    .checkpoint();

    let layers: [(&str, u32, &[u8]); 4] = [
        ("machine", kind::MACHINE, &machine_img),
        ("kernel", kind::KERNEL, &kernel_img),
        ("session", kind::SESSION, &session_img),
        ("replica", kind::REPLICA, &replica_img),
    ];
    let mut r = SeedRng::new(0xC0_44A7);
    for (layer, k, img) in layers {
        assert!(
            ImageView::parse(img, k).is_ok(),
            "{layer}: pristine image must parse"
        );
        for class in chaos::ImageCorruption::ALL {
            for trial in 0..6 {
                let bad = chaos::corrupt::corrupt_image(img, class, &mut r);
                assert_ne!(bad, *img, "{layer}/{}: injector was a no-op", class.tag());
                let err = ImageView::parse(&bad, k).err().unwrap_or_else(|| {
                    panic!(
                        "{layer}/{} trial {trial}: corrupt image silently accepted",
                        class.tag()
                    )
                });
                // The error is typed and printable, not a panic.
                assert!(!format!("{err}").is_empty());
            }
        }
    }

    // And the layer restore entry points agree with the parser.
    let mut r = SeedRng::new(0xC0_44A8);
    let (_, bad) = chaos::corrupt::corrupted_image(&machine_img, &mut r);
    assert!(Machine::restore_image(&bad).is_err());
    let (_, bad) = chaos::corrupt::corrupted_image(&kernel_img, &mut r);
    assert!(Kernel::restore_image(&bad).is_err());
    let (_, bad) = chaos::corrupt::corrupted_image(&session_img, &mut r);
    assert!(Session::restore(&bad).is_err());
    let (_, bad) = chaos::corrupt::corrupted_image(&replica_img, &mut r);
    assert!(Replica::restore(&bad).is_err());
}

/// Images must also refuse to restore as the wrong layer: a kernel
/// image is not a session, whatever its trailer says.
#[test]
fn kind_confusion_is_rejected() {
    let (session, _, _) = campaign_world(true);
    let kernel_img = session.kernel().save_image();
    assert!(ImageView::parse(&kernel_img, kind::SESSION).is_err());
    assert!(Session::restore(&kernel_img).is_err());
    let session_img = session.checkpoint();
    assert!(Kernel::restore_image(&session_img).is_err());

    // Outer images now carry the inner layers' sections verbatim, so the
    // kind word is the only thing that stops these.
    let replica_img = warm_replica().checkpoint();
    assert_eq!(
        Kernel::restore_image(&replica_img).err(),
        Some(RestoreError::Kind {
            found: kind::REPLICA,
            expected: kind::KERNEL
        })
    );
    assert_eq!(
        Machine::restore_image(&session_img).err(),
        Some(RestoreError::Kind {
            found: kind::SESSION,
            expected: kind::MACHINE
        })
    );
}

// --- crash-recovery drills -----------------------------------------------

fn drill_cfg(corrupt_latest: u32, max_walkback: u32) -> DrillConfig {
    DrillConfig {
        seed: 0xD411,
        replicas: 3,
        rounds: 14,
        requests_per_round: 20,
        checkpoint_every: 2,
        crash_round: 9,
        victim: 1,
        corrupt_latest,
        max_walkback,
        ..DrillConfig::default()
    }
}

/// The healthy-path drill: latest checkpoint intact, plain restore,
/// convergence, zero healthy-replica drops.
#[test]
fn drill_restores_from_latest_intact_checkpoint() {
    let r = drill::run(&drill_cfg(0, 3), &fleet::version_images("filter", 1));
    assert_eq!(r.outcome, DrillOutcome::Restored);
    assert_eq!(r.generations_walked, 0);
    assert!(r.recovered_generation.is_some());
    assert!(r.rounds_to_converge.is_some(), "victim never converged");
    assert_eq!(r.healthy_replica_drops, 0);
    assert_eq!(r.dropped, 0, "graceful degradation never drops");
    assert!(r.recovery_degraded > 0, "the crash must cost 503s");
    assert!(r.violations.is_empty(), "{:?}", r.violations);
    assert!(r.leak_failures.is_empty(), "{:?}", r.leak_failures);
}

/// The walk-back path: corrupted newest generations are rejected with
/// typed errors (visible in the event log) before an older one restores.
#[test]
fn drill_walks_back_past_corrupt_generations() {
    let r = drill::run(&drill_cfg(2, 4), &fleet::version_images("filter", 1));
    assert_eq!(r.outcome, DrillOutcome::RestoredAfterWalkback);
    assert_eq!(r.corrupted_generations, 2);
    assert_eq!(r.generations_walked, 2);
    assert!(r.events.iter().filter(|e| e.contains("rejected")).count() >= 2);
    assert!(r.rounds_to_converge.is_some());
    assert_eq!(r.healthy_replica_drops, 0);
    assert!(r.violations.is_empty(), "{:?}", r.violations);
}

/// The exhaustion path: every generation within the walk-back budget is
/// corrupt, so the victim cold-boots — degraded recovery, never an
/// outage, and still zero healthy-replica drops.
#[test]
fn drill_cold_boots_when_walkback_budget_is_exhausted() {
    let r = drill::run(&drill_cfg(4, 2), &fleet::version_images("filter", 1));
    assert_eq!(r.outcome, DrillOutcome::ColdBooted);
    assert!(r.recovered_generation.is_none());
    assert_eq!(
        r.generations_walked, 2,
        "bounded retries must stop at the budget"
    );
    assert_eq!(r.healthy_replica_drops, 0);
    assert_eq!(r.dropped, 0);
    assert!(r.violations.is_empty(), "{:?}", r.violations);
}

/// The drill report — down to the rendered text — is byte-identical at
/// every worker count and boot mode.
#[test]
fn drill_report_is_identical_across_jobs_and_boot() {
    let base = drill_cfg(2, 4);
    let images = fleet::version_images("filter", 1);
    let serial = drill::run(&base, &images);
    for (jobs, fork_boot) in [(8usize, true), (4, false)] {
        let cfg = DrillConfig {
            jobs,
            fork_boot,
            ..base.clone()
        };
        let par = drill::run(&cfg, &images);
        assert_eq!(serial, par, "jobs={jobs} fork_boot={fork_boot}");
        assert_eq!(render_drill(&serial), render_drill(&par));
    }
}
