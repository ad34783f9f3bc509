//! Adversarial containment audit (DESIGN.md §6).
//!
//! Drives the `chaos` campaign for ≥10,000 seeded steps against both
//! extension mechanisms and asserts the audit contract: zero containment
//! violations, zero host panics, and the quarantine machinery actually
//! firing. Also pins down the descriptor-revocation semantics of
//! `rmmod`/`destroy_segment`/quarantine: a revoked selector raises #NP
//! in the simulated hardware on the next far call, and pending
//! asynchronous requests surface as structured errors — never as a wild
//! far transfer through a stale Extension Function Table slot.

use asm86::isa::Insn;
use asm86::CodeBuilder;
use chaos::campaign::{self, CampaignConfig};
use chaos::gen;
use minikernel::Kernel;
use palladium::kernel_ext::{KernelExtensions, KextError, SegmentConfig};
use x86sim::fault::Vector;

// --- the big seeded audit ------------------------------------------------

/// The acceptance-criteria campaign: 10,000 adversarial steps from one
/// seed, with the §6 oracle checked after every step and the behavioural
/// probes run at intervals. Nothing may violate containment, nothing may
/// panic the host, and the campaign must demonstrate at least one
/// automatic quarantine.
#[test]
fn campaign_ten_thousand_steps_contained() {
    let cfg = CampaignConfig {
        seed: 0xA0D1_7001,
        steps: 10_000,
        ..CampaignConfig::default()
    };
    let report = campaign::run(&cfg);

    assert_eq!(report.steps_run, 10_000);
    assert_eq!(report.events.len() as u32, report.steps_run);
    assert_eq!(
        report.host_panics, 0,
        "host panicked during adversarial steps"
    );
    assert!(
        report.violations.is_empty(),
        "containment violations:\n{}",
        report.violations.join("\n")
    );
    assert!(
        report.quarantines >= 1,
        "campaign never triggered an automatic quarantine"
    );
    assert!(report.kext_aborts > 0 && report.uext_aborts > 0);
    assert!(report.probes_run > 0, "behavioural probes never ran");
}

/// Same seed ⇒ byte-identical event log: a failing step number from any
/// audit run can be replayed exactly.
#[test]
fn campaign_is_deterministic_per_seed() {
    let cfg = CampaignConfig {
        seed: 42,
        steps: 300,
        ..CampaignConfig::default()
    };
    let a = campaign::run(&cfg);
    let b = campaign::run(&cfg);
    assert_eq!(a.events, b.events);
    assert_eq!(a.outcomes, b.outcomes);
    assert_eq!(a.quarantines, b.quarantines);
    assert_eq!(a.host_panics, 0);
    assert!(a.violations.is_empty(), "{:?}", a.violations);
}

// --- behavioural probes: direct and under fork-boot ----------------------

/// The scratch-world probes pass standalone, at the campaign's default
/// cycle limit and well below it — a runaway kernel extension is always
/// aborted near the limit and quarantined at threshold 1.
#[test]
fn probe_timer_abort_passes_across_cycle_limits() {
    for limit in [2_000, 10_000, CampaignConfig::default().cycle_limit] {
        chaos::oracle::probe_timer_abort(limit)
            .unwrap_or_else(|v| panic!("timer probe at limit {limit}: {v}"));
    }
}

/// The other two scratch-world probes, exercised directly rather than
/// through a campaign's probe interval.
#[test]
fn fork_exec_and_syscall_probes_pass_standalone() {
    chaos::oracle::probe_fork_exec().unwrap_or_else(|v| panic!("{v}"));
    chaos::oracle::probe_syscall_rejection().unwrap_or_else(|v| panic!("{v}"));
}

/// The behavioural probes run — and pass — when episodes boot by
/// forking the warmed template world, not only on cold boots, and the
/// probe cadence stays on global step numbers: a fork-boot campaign at
/// 4 workers reports byte-identically to a cold-boot serial one.
#[test]
fn scratch_world_probes_run_under_fork_boot() {
    let fork_cfg = CampaignConfig {
        seed: 0xF04B_B007,
        steps: 400,
        probe_interval: 100,
        fork_boot: true,
        jobs: 4,
        ..CampaignConfig::default()
    };
    let fork = campaign::run(&fork_cfg);
    assert_eq!(fork.probes_run, 4, "probe cadence drifted under fork boot");
    assert_eq!(fork.host_panics, 0);
    assert!(fork.violations.is_empty(), "{:?}", fork.violations);

    let cold = campaign::run(&CampaignConfig {
        fork_boot: false,
        jobs: 1,
        ..fork_cfg
    });
    assert_eq!(fork.events, cold.events);
    assert_eq!(campaign::summarize(&fork), campaign::summarize(&cold));
}

/// The restore-gate probe on a live kernel image: hostile-writer images,
/// under a valid trailer, restore or fail with a typed error, never a
/// panic.
#[test]
fn hostile_restore_probe_passes_on_a_live_kernel_image() {
    let mut k = Kernel::boot();
    let mut kx = KernelExtensions::new(&mut k).expect("kext init");
    let seg = kx.create_segment(&mut k, 4).expect("segment");
    kx.insmod(&mut k, seg, "m", &lcall_object(0), &["entry"])
        .expect("insmod");
    let img = k.save_image();
    let mut r = seedrng::SeedRng::new(0x4057_11E0);
    let v = chaos::oracle::probe_hostile_restore(&img, 64, &mut r);
    assert!(v.is_empty(), "{v:?}");
}

// --- descriptor revocation: #NP on the next far call ---------------------

/// An extension object whose `entry` far-calls through `sel`.
fn lcall_object(sel: u16) -> asm86::Object {
    let mut b = CodeBuilder::new();
    b.label("entry").unwrap();
    b.emit(Insn::Lcall(sel, 0));
    b.emit(Insn::Ret);
    b.finish().unwrap()
}

/// `destroy_segment` marks the SPL 1 descriptors not-present, so a far
/// call through the stale selector — from another extension that cached
/// it — raises #NP in the simulated hardware rather than landing in
/// freed segment memory.
#[test]
fn destroyed_segment_selector_raises_np_on_far_call() {
    let mut k = Kernel::boot();
    let mut kx = KernelExtensions::new(&mut k).unwrap();

    let victim = kx.create_segment(&mut k, 8).unwrap();
    kx.insmod(&mut k, victim, "v", &gen::benign_object(7), &["entry"])
        .unwrap();
    assert_eq!(kx.invoke(&mut k, victim, "entry", 0), Ok(7));
    let stale_code = kx.segment(victim).code_sel;
    let stale_data = kx.segment(victim).data_sel;
    assert_eq!(k.m.gdt_entry_present(stale_code.index()), Some(true));

    kx.destroy_segment(&mut k, victim);
    assert_eq!(k.m.gdt_entry_present(stale_code.index()), Some(false));
    assert_eq!(k.m.gdt_entry_present(stale_data.index()), Some(false));
    // The software path fails fast with a structured error.
    assert_eq!(
        kx.invoke(&mut k, victim, "entry", 0),
        Err(KextError::SegmentDead)
    );

    // A second extension that squirrelled away the victim's selector:
    // its far call must be stopped by the not-present bit.
    let attacker = kx.create_segment(&mut k, 8).unwrap();
    kx.insmod(
        &mut k,
        attacker,
        "a",
        &lcall_object(stale_code.0),
        &["entry"],
    )
    .unwrap();
    match kx.invoke(&mut k, attacker, "entry", 0) {
        Err(KextError::Aborted(fault)) => {
            assert_eq!(
                fault.vector,
                Vector::NotPresent,
                "expected #NP, got {fault}"
            );
            assert_eq!(fault.cause.tag(), "not-present");
        }
        other => panic!("far call through revoked selector: {other:?}"),
    }
}

/// Quarantine (the automatic path) revokes descriptors the same way, and
/// tombstones the Extension Function Table.
#[test]
fn quarantined_segment_selector_raises_np_on_far_call() {
    let mut k = Kernel::boot();
    let mut kx = KernelExtensions::new(&mut k).unwrap();
    let one_strike = SegmentConfig {
        quarantine_threshold: 1,
        ..SegmentConfig::default()
    };

    let victim = kx
        .create_segment_with(&mut k, 8, one_strike.clone())
        .unwrap();
    // Stores 2 MB past the base: far outside the 8-page limit.
    kx.insmod(
        &mut k,
        victim,
        "v",
        &gen::store_to_object(0x0020_0000),
        &["entry"],
    )
    .unwrap();
    let stale_code = kx.segment(victim).code_sel;

    assert!(matches!(
        kx.invoke(&mut k, victim, "entry", 0),
        Err(KextError::Aborted(_))
    ));
    let seg = kx.segment(victim);
    assert!(seg.quarantined);
    assert!(seg.tombstones.contains_key("entry"));
    assert!(seg.functions.is_empty());
    assert_eq!(k.m.gdt_entry_present(stale_code.index()), Some(false));
    assert_eq!(kx.quarantines, 1);

    let attacker = kx.create_segment_with(&mut k, 8, one_strike).unwrap();
    kx.insmod(
        &mut k,
        attacker,
        "a",
        &lcall_object(stale_code.0),
        &["entry"],
    )
    .unwrap();
    // threshold is 1, so the attacker is itself quarantined by the #NP —
    // but the fault it was aborted with must be the not-present check.
    match kx.invoke(&mut k, attacker, "entry", 0) {
        Err(KextError::Aborted(fault)) => {
            assert_eq!(fault.vector, Vector::NotPresent);
        }
        other => panic!("far call through quarantined selector: {other:?}"),
    }
}

// --- pending asynchronous requests ---------------------------------------

/// A segment quarantined mid-drain tombstones the remaining queue: every
/// pending request completes with a structured `Quarantined` error, and
/// none is dispatched through the revoked descriptors.
#[test]
fn pending_async_requests_surface_quarantine_error() {
    let mut k = Kernel::boot();
    let mut kx = KernelExtensions::new(&mut k).unwrap();
    assert_eq!(
        kx.default_config().quarantine_threshold,
        3,
        "default three-strikes policy"
    );

    let seg = kx.create_segment(&mut k, 8).unwrap();
    kx.insmod(
        &mut k,
        seg,
        "m",
        &gen::store_to_object(0x0020_0000),
        &["entry"],
    )
    .unwrap();
    for i in 0..5 {
        kx.queue_async(seg, "entry", i);
    }
    assert!(kx.segment(seg).busy);

    let results = kx.run_pending(&mut k, seg);
    assert_eq!(results.len(), 5, "every pending request gets an answer");
    for r in &results[..3] {
        assert!(matches!(r, Err(KextError::Aborted(_))), "{r:?}");
    }
    for r in &results[3..] {
        assert_eq!(r, &Err(KextError::Quarantined { strikes: 3 }));
    }
    assert!(kx.segment(seg).quarantined);
    assert!(!kx.segment(seg).busy);
    assert_eq!(kx.quarantines, 1);
    assert_eq!(kx.aborts, 3);
}

/// Destroying a segment with requests still queued: the drain returns
/// structured `SegmentDead` errors for all of them.
#[test]
fn pending_async_requests_surface_destroy_error() {
    let mut k = Kernel::boot();
    let mut kx = KernelExtensions::new(&mut k).unwrap();

    let seg = kx.create_segment(&mut k, 8).unwrap();
    kx.insmod(&mut k, seg, "m", &gen::benign_object(9), &["entry"])
        .unwrap();
    kx.queue_async(seg, "entry", 1);
    kx.queue_async(seg, "entry", 2);

    kx.destroy_segment(&mut k, seg);
    let results = kx.run_pending(&mut k, seg);
    assert_eq!(results, vec![Err(KextError::SegmentDead); 2]);
}

/// `rmmod` of the last module clears the Extension Function Table; a
/// later invocation gets `NoSuchFunction`, not a stale dispatch.
#[test]
fn rmmod_clears_function_table() {
    let mut k = Kernel::boot();
    let mut kx = KernelExtensions::new(&mut k).unwrap();

    let seg = kx.create_segment(&mut k, 8).unwrap();
    kx.insmod(&mut k, seg, "m", &gen::benign_object(3), &["entry"])
        .unwrap();
    assert_eq!(kx.invoke(&mut k, seg, "entry", 0), Ok(3));

    assert!(kx.rmmod(seg, "m"));
    assert!(!kx.rmmod(seg, "m"), "double rmmod is a no-op");
    assert_eq!(
        kx.invoke(&mut k, seg, "entry", 0),
        Err(KextError::NoSuchFunction("entry".into()))
    );
    // The segment itself is still healthy: a reload works.
    kx.insmod(&mut k, seg, "m2", &gen::benign_object(4), &["entry"])
        .unwrap();
    assert_eq!(kx.invoke(&mut k, seg, "entry", 0), Ok(4));
}

// --- strikes below the threshold ------------------------------------------

/// Below the quarantine threshold the segment survives aborts: strikes
/// accumulate but the descriptors stay present and a healthy function
/// still runs. (The router lowers the threshold to 1 for fail-closed
/// semantics; the default host tolerates transient faults.)
#[test]
fn strikes_below_threshold_keep_segment_alive() {
    let mut k = Kernel::boot();
    let mut kx = KernelExtensions::new(&mut k).unwrap();

    let seg = kx.create_segment(&mut k, 8).unwrap();
    kx.insmod(&mut k, seg, "good", &gen::benign_object(11), &["entry"])
        .unwrap();
    assert_eq!(kx.invoke(&mut k, seg, "entry", 0), Ok(11));
    let code_idx = kx.segment(seg).code_sel.index();

    // Two strikes from a scratch faulting registration.
    kx.insmod(
        &mut k,
        seg,
        "bad2",
        &gen::store_to_object(0x0020_0000),
        &["entry"],
    )
    .unwrap();
    for _ in 0..2 {
        assert!(matches!(
            kx.invoke(&mut k, seg, "entry", 0),
            Err(KextError::Aborted(_))
        ));
    }
    assert_eq!(kx.segment(seg).strikes, 2);
    assert!(!kx.segment(seg).quarantined);
    assert_eq!(k.m.gdt_entry_present(code_idx), Some(true));

    // The healthy body still runs after re-registration.
    kx.insmod(&mut k, seg, "good2", &gen::benign_object(12), &["entry"])
        .unwrap();
    assert_eq!(kx.invoke(&mut k, seg, "entry", 0), Ok(12));
}
