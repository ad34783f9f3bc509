//! The sharded-execution determinism suite.
//!
//! The `parex` pool's contract is that fanning shards across worker
//! threads changes wall-clock time and *nothing else*: same master
//! seeds, same reports, same verdicts, byte for byte. These tests pin
//! that contract across every sharded driver — the chaos campaign's
//! episode fan-out, the web server's request groups and the scaling
//! benchmark — plus the `Send` audit that makes the fan-out legal in
//! the first place.

use chaos::campaign::{self, CampaignConfig};
use webserver::{run_live_sharded, ExecModel, WebServer};

// ---- Send audit ------------------------------------------------------------

/// Compile-time proof that every per-shard world can move to a worker
/// thread. Shards *own* their state (no `Sync` needed); `Send` is the
/// load-bearing bound, and it holds because nothing in the simulator or
/// the runtime uses `Rc`, `RefCell`, raw pointers or thread-locals.
#[test]
fn shard_state_is_send() {
    fn assert_send<T: Send>() {}
    assert_send::<x86sim::machine::Machine>();
    assert_send::<minikernel::Kernel>();
    assert_send::<palladium::user_ext::ExtensibleApp>();
    assert_send::<palladium::KernelExtensions>();
    assert_send::<palladium::Supervisor>();
    assert_send::<palladium::Session>();
    assert_send::<WebServer>();
    assert_send::<chaos::CampaignReport>();
}

// ---- chaos campaign: jobs-count invariance ---------------------------------

fn campaign_cfg(seed: u64, jobs: usize) -> CampaignConfig {
    CampaignConfig {
        seed,
        steps: 150,
        episode_len: 25,
        probe_interval: 60,
        jobs,
        ..CampaignConfig::default()
    }
}

/// The acceptance criterion: `--jobs 8` produces a byte-identical
/// report to `--jobs 1` under the same seed — every event, every
/// outcome count, every violation string, every counter.
#[test]
fn campaign_is_byte_identical_across_job_counts() {
    for seed in [1u64, 0xDEAD_BEEF] {
        let serial = campaign::run(&campaign_cfg(seed, 1));
        for jobs in [2usize, 8] {
            let sharded = campaign::run(&campaign_cfg(seed, jobs));
            assert_eq!(serial.events, sharded.events, "seed {seed} jobs {jobs}");
            assert_eq!(serial.outcomes, sharded.outcomes, "seed {seed} jobs {jobs}");
            assert_eq!(
                serial.violations, sharded.violations,
                "seed {seed} jobs {jobs}"
            );
            assert_eq!(serial.steps_run, sharded.steps_run);
            assert_eq!(serial.probes_run, sharded.probes_run);
            assert_eq!(serial.host_panics, sharded.host_panics);
            assert_eq!(serial.quarantines, sharded.quarantines);
            assert_eq!(serial.kext_aborts, sharded.kext_aborts);
            assert_eq!(serial.uext_aborts, sharded.uext_aborts);
            assert_eq!(serial.restarts, sharded.restarts);
            assert_eq!(serial.pages_reclaimed, sharded.pages_reclaimed);
            assert_eq!(serial.guest_insns, sharded.guest_insns);
        }
    }
}

/// The campaign's human-readable audit summary — what the CI job
/// actually archives — is identical too, and the sharded run still
/// produces a clean audit.
#[test]
fn campaign_summary_and_verdict_survive_sharding() {
    let serial = campaign::run(&campaign_cfg(7, 1));
    let sharded = campaign::run(&campaign_cfg(7, 8));
    assert_eq!(campaign::summarize(&serial), campaign::summarize(&sharded));
    assert!(sharded.violations.is_empty(), "{:?}", sharded.violations);
    assert_eq!(sharded.host_panics, 0);
    assert!(sharded.events.len() > 100);
}

// ---- web server: request-group invariance ----------------------------------

#[test]
fn webserver_sharded_run_is_job_count_invariant() {
    let make = || {
        let mut s = WebServer::new()?;
        s.add_benchmark_files();
        Ok(s)
    };
    let mut baseline = None;
    for jobs in [1usize, 2, 8] {
        let (res, stats) = run_live_sharded(
            make,
            ExecModel::LibCgiProtected,
            "/file1024",
            60,
            0x5EED,
            6,
            parex::Pool::new(jobs),
        )
        .expect("sharded run");
        assert_eq!(stats.iter().map(|s| s.requests).sum::<u32>(), 60);
        let fingerprint = (
            res.rps.to_bits(),
            res.seconds.to_bits(),
            res.link_bound,
            stats.clone(),
        );
        match &baseline {
            None => baseline = Some(fingerprint),
            Some(b) => assert_eq!(*b, fingerprint, "jobs {jobs}"),
        }
    }
}

// ---- sharded bench workloads: fixed decomposition -------------------------

/// The sharded workloads' guest work is a function of the shard
/// decomposition only, never of the worker count driving it.
#[test]
fn scaling_bench_guest_work_is_worker_count_invariant() {
    let pts = bench::measure_scaling_with(4, 15, 50, 12, &[1, 8]);
    for workload in ["figure7", "chaos", "webserver"] {
        let insns: Vec<u64> = pts
            .iter()
            .filter(|p| p.workload == workload)
            .map(|p| p.guest_insns)
            .collect();
        assert_eq!(insns.len(), 2, "{workload}");
        assert_eq!(insns[0], insns[1], "{workload}");
        assert!(insns[0] > 0, "{workload}");
    }
}

// ---- the pool itself -------------------------------------------------------

/// Work-stealing stress: many more shards than workers, deliberately
/// unbalanced shard costs, results must come back complete and in
/// input order.
#[test]
fn pool_survives_unbalanced_fanouts() {
    let items: Vec<u32> = (0..500).collect();
    for jobs in [1usize, 3, 8] {
        let out = parex::Pool::new(jobs).run_ordered(items.clone(), |i, v| {
            // Skewed work: early shards spin longer, so late workers
            // must steal to finish.
            let spin = if v % 7 == 0 { 20_000 } else { 10 };
            let mut acc = v as u64;
            for k in 0..spin {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
            }
            (i, v, acc & 1)
        });
        assert_eq!(out.len(), items.len());
        for (slot, (i, v, _)) in out.iter().enumerate() {
            assert_eq!(slot, *i, "input order preserved");
            assert_eq!(slot as u32, *v);
        }
    }
}

/// A panicking shard surfaces on the caller after the fan-out drains,
/// and it is the first panicking shard in *input* order regardless of
/// scheduling.
#[test]
fn pool_propagates_the_first_panic_in_input_order() {
    let r = std::panic::catch_unwind(|| {
        parex::Pool::new(4).run_ordered((0..64).collect::<Vec<u32>>(), |_, v| {
            if v == 9 || v == 41 {
                panic!("shard {v} failed");
            }
            v
        })
    });
    let msg = *r
        .expect_err("panic must propagate")
        .downcast::<String>()
        .expect("panic payload");
    assert_eq!(msg, "shard 9 failed");
}
