//! Long-soak churn campaigns: sustained load with periodic kill /
//! upgrade / bad-push / rollback churn, auditing the resource ledgers
//! at every epoch boundary.
//!
//! The soak is the leak hunter: a single kill-restart cycle that leaks
//! one page is invisible to a short test, but 10^7+ guest instructions
//! of churn drift the ledger audit far out of balance. Every epoch ends
//! with `assert_no_leaks` on every replica; any failure is recorded and
//! fails the run.

use palladium::supervisor::{RestartPolicy, SupervisedState};
use seedrng::SeedRng;

use crate::replica::Replica;
use crate::{faulty_images, working_version_images};

/// Soak parameters.
#[derive(Debug, Clone)]
pub struct SoakConfig {
    /// Master seed.
    pub seed: u64,
    /// Fleet size.
    pub replicas: u32,
    /// Epochs (each ends with a full-fleet leak audit).
    pub epochs: u32,
    /// Rounds per epoch; each round ends with one churn action.
    pub rounds_per_epoch: u32,
    /// Requests per replica per round.
    pub requests_per_round: u32,
    /// Handler work-loop iterations per request (see
    /// [`working_version_images`]); the knob that scales guest
    /// instructions per request.
    pub work_per_request: u32,
    /// CPU-time limit per extension invocation.
    pub cycle_limit: u64,
    /// Worker threads (any value is byte-identical).
    pub jobs: usize,
    /// Boot the fleet by forking one template replica (copy-on-write)
    /// instead of cold-booting every world. Host-performance knob only;
    /// reports are byte-identical either way.
    pub fork_boot: bool,
}

impl Default for SoakConfig {
    fn default() -> SoakConfig {
        SoakConfig {
            seed: 1,
            replicas: 4,
            epochs: 8,
            rounds_per_epoch: 12,
            requests_per_round: 30,
            work_per_request: 320,
            cycle_limit: 20_000,
            jobs: 1,
            fork_boot: true,
        }
    }
}

/// Soak results.
#[derive(Debug, Clone, PartialEq)]
pub struct SoakReport {
    /// Seed the run was derived from.
    pub seed: u64,
    /// Fleet size.
    pub replicas: u32,
    /// Epochs completed.
    pub epochs: u32,
    /// Rounds per epoch.
    pub rounds_per_epoch: u32,
    /// Requests per replica per round.
    pub requests_per_round: u32,
    /// Fleet-wide request totals.
    pub served: u64,
    /// Fleet-wide 503 total.
    pub degraded: u64,
    /// Fleet-wide fail-closed drops.
    pub dropped: u64,
    /// Kill actions performed.
    pub kills: u64,
    /// Version upgrades staged and rolled over.
    pub upgrades: u64,
    /// Rollbacks to the last known-good version.
    pub rollbacks: u64,
    /// Supervised restarts across the fleet.
    pub restarts: u64,
    /// Kernel pages reclaimed through ledgers.
    pub pages_reclaimed: u64,
    /// Guest instructions retired across the fleet (the "10^7+ steps"
    /// scale metric).
    pub guest_insns: u64,
    /// Containment violations (must be empty).
    pub violations: Vec<String>,
    /// Epoch leak-audit failures (must be empty).
    pub leak_failures: Vec<String>,
}

/// Per-replica version bookkeeping for the churn controller.
struct VersionState {
    /// Value of the last known-good version.
    good: u32,
    /// Whether the currently staged version is the faulty push.
    on_bad: bool,
}

/// Runs a soak campaign.
///
/// Replica worlds shard across the pool per round; churn decisions come
/// from one dedicated controller stream (`SeedRng::stream(seed,
/// u64::MAX)`) drawn serially between rounds, so the action sequence —
/// like everything else — is independent of the worker count.
pub fn run(cfg: &SoakConfig) -> SoakReport {
    let pool = parex::Pool::new(cfg.jobs);
    let n = cfg.replicas.max(1);

    let images_for = |value: u32| working_version_images("flt", value, cfg.work_per_request);

    // Fork the fleet off one template world when `fork_boot` is on;
    // boot is index-independent, so the fleet is byte-identical to a
    // cold-booted one.
    let template = if cfg.fork_boot {
        Replica::new(
            cfg.seed,
            0,
            images_for(100),
            RestartPolicy::default(),
            cfg.cycle_limit,
            true,
        )
        .ok()
    } else {
        None
    };
    let mut reps: Vec<Replica> = pool
        .run_ordered((0..n).collect(), |_, i| match &template {
            Some(t) => Ok(t.fork_as(cfg.seed, i)),
            None => Replica::new(
                cfg.seed,
                i,
                images_for(100),
                RestartPolicy::default(),
                cfg.cycle_limit,
                true,
            ),
        })
        .into_iter()
        .collect::<Result<_, _>>()
        .expect("replica boot is deterministic and must succeed");

    let mut ctrl = SeedRng::stream(cfg.seed, u64::MAX);
    let mut versions: Vec<VersionState> = (0..n)
        .map(|_| VersionState {
            good: 100,
            on_bad: false,
        })
        .collect();

    let mut report = SoakReport {
        seed: cfg.seed,
        replicas: n,
        epochs: cfg.epochs,
        rounds_per_epoch: cfg.rounds_per_epoch,
        requests_per_round: cfg.requests_per_round,
        served: 0,
        degraded: 0,
        dropped: 0,
        kills: 0,
        upgrades: 0,
        rollbacks: 0,
        restarts: 0,
        pages_reclaimed: 0,
        guest_insns: 0,
        violations: Vec::new(),
        leak_failures: Vec::new(),
    };

    for epoch in 0..cfg.epochs {
        for _round in 0..cfg.rounds_per_epoch {
            pool.update_ordered(&mut reps, |_, rep| {
                rep.serve_round(cfg.requests_per_round);
            });

            // One churn action per round, drawn from the controller
            // stream over the merged fleet state.
            let target = ctrl.gen_range(0, n) as usize;
            match ctrl.gen_range(0, 6) {
                // Kill: destroy the live segment out from under the
                // supervisor; it must reclaim through the ledger and
                // restart on the backoff clock.
                0 | 1 => {
                    let rep = &mut reps[target];
                    if rep.sup.state(rep.ext) == SupervisedState::Running {
                        let seg = rep.sup.segment(rep.ext);
                        rep.kx.destroy_segment(&mut rep.k, seg);
                        rep.sup.notify_death(&mut rep.k, &mut rep.kx, rep.ext);
                        report.kills += 1;
                    }
                }
                // Upgrade: stage the next benign version and roll over.
                2 | 3 => {
                    versions[target].good += 1;
                    versions[target].on_bad = false;
                    let images = images_for(versions[target].good);
                    let rep = &mut reps[target];
                    rep.sup.stage_images(rep.ext, images);
                    let _ = rep.sup.rollover(&mut rep.k, &mut rep.kx, rep.ext);
                    report.upgrades += 1;
                }
                // Bad push: a faulty version goes out (it will strike and
                // quarantine under load, possibly all the way to a
                // tombstone)...
                4 => {
                    versions[target].on_bad = true;
                    let rep = &mut reps[target];
                    rep.sup.stage_images(rep.ext, faulty_images("flt"));
                    let _ = rep.sup.rollover(&mut rep.k, &mut rep.kx, rep.ext);
                    report.upgrades += 1;
                }
                // ...and rollback restores the last known-good version on
                // the first replica still serving a bad push — including
                // reviving a tombstoned lineage, since the rollback
                // stages a different generation.
                _ => {
                    if let Some(bad) = versions.iter().position(|v| v.on_bad) {
                        versions[bad].on_bad = false;
                        let images = images_for(versions[bad].good);
                        let rep = &mut reps[bad];
                        rep.sup.stage_images(rep.ext, images);
                        let _ = rep.sup.rollover(&mut rep.k, &mut rep.kx, rep.ext);
                        report.rollbacks += 1;
                    }
                }
            }
        }

        // The epoch boundary: zero ledger drift, on every replica.
        for (i, rep) in reps.iter_mut().enumerate() {
            rep.audit_leaks(&format!("epoch {epoch} replica {i}"));
        }
    }

    for (i, rep) in reps.iter().enumerate() {
        report.served += rep.stats.served;
        report.degraded += rep.stats.degraded;
        report.dropped += rep.stats.dropped;
        report.restarts += rep.sup.restarts;
        report.pages_reclaimed += rep.sup.pages_reclaimed;
        report.guest_insns += rep.k.m.insns();
        report
            .violations
            .extend(rep.violations.iter().map(|v| format!("replica {i}: {v}")));
        report.leak_failures.extend(rep.leak_failures.clone());
    }
    report
}
