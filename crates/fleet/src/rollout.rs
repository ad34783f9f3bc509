//! The canaried rollout driver: canary → soak → waves → converge, with
//! SLO-driven automatic rollback.
//!
//! One round = every replica serves a fixed batch of requests (fanned
//! across the worker pool, merged in replica order), then the
//! controller makes its decisions serially from the merged state:
//! upgrade the canary, watch it soak, promote wave by wave, or roll
//! everything back the moment the SLO monitor trips. Because the
//! controller only ever reads post-merge state, the entire run — event
//! log included — is byte-identical for every `jobs` value.

use palladium::supervisor::{ModuleImage, RestartPolicy, SupervisedState};

use crate::replica::Replica;
use crate::slo::{SloPolicy, SloVerdict};

/// Rollout parameters.
#[derive(Debug, Clone)]
pub struct RolloutConfig {
    /// Master seed; replica `i` draws from `SeedRng::stream(seed, i)`.
    pub seed: u64,
    /// Fleet size (replica 0 is the canary).
    pub replicas: u32,
    /// Total rounds to run.
    pub rounds: u32,
    /// Requests per replica per round.
    pub requests_per_round: u32,
    /// Round at which the canary switches to the new version.
    pub canary_round: u32,
    /// Rounds the canary must stay within SLO before waves proceed.
    pub soak_rounds: u32,
    /// Replicas promoted per wave once the canary has soaked.
    pub wave_size: u32,
    /// The SLO monitor's trip thresholds.
    pub slo: SloPolicy,
    /// Supervisor restart policy for every replica.
    pub policy: RestartPolicy,
    /// CPU-time limit per extension invocation.
    pub cycle_limit: u64,
    /// Worker threads to fan replicas across (any value is
    /// byte-identical).
    pub jobs: usize,
    /// Boot the fleet by forking one template replica (copy-on-write)
    /// instead of cold-booting every world. Host-performance knob only:
    /// replica boot is index-independent, so reports are byte-identical
    /// either way.
    pub fork_boot: bool,
}

impl Default for RolloutConfig {
    fn default() -> RolloutConfig {
        RolloutConfig {
            seed: 1,
            replicas: 6,
            rounds: 30,
            requests_per_round: 40,
            canary_round: 4,
            soak_rounds: 4,
            wave_size: 2,
            slo: SloPolicy::default(),
            policy: RestartPolicy::default(),
            cycle_limit: 20_000,
            jobs: 1,
            fork_boot: true,
        }
    }
}

/// How the rollout ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RolloutOutcome {
    /// Every replica runs the new version.
    Promoted,
    /// The SLO monitor tripped; every upgraded replica was rolled back
    /// to the old version.
    RolledBack,
    /// The run ended mid-roll (not enough rounds to converge).
    Incomplete,
}

impl RolloutOutcome {
    /// Stable tag for reports.
    pub fn tag(&self) -> &'static str {
        match self {
            RolloutOutcome::Promoted => "promoted",
            RolloutOutcome::RolledBack => "rolled-back",
            RolloutOutcome::Incomplete => "incomplete",
        }
    }
}

/// Per-replica summary, in replica order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaSummary {
    /// Replica index (0 = canary).
    pub idx: u32,
    /// Requests answered 200 / 503 / dropped fail-closed.
    pub served: u64,
    /// Requests answered 503.
    pub degraded: u64,
    /// Requests dropped fail-closed.
    pub dropped: u64,
    /// Supervised restarts completed on this replica.
    pub restarts: u64,
    /// Operator-driven generation switches (upgrades + rollbacks).
    pub rollovers: u64,
    /// Kernel pages reclaimed through ledgers.
    pub pages_reclaimed: u64,
    /// Image generation the replica ended on.
    pub final_gen: u64,
    /// Final lifecycle state tag.
    pub final_state: &'static str,
    /// Containment violations observed (must be 0 in a clean roll).
    pub violations: usize,
}

/// The full deterministic record of one rollout.
#[derive(Debug, Clone, PartialEq)]
pub struct RolloutReport {
    /// Seed the run was derived from.
    pub seed: u64,
    /// Fleet size.
    pub replicas: u32,
    /// Rounds executed.
    pub rounds: u32,
    /// Requests per replica per round.
    pub requests_per_round: u32,
    /// The controller's event log, one line per decision.
    pub events: Vec<String>,
    /// Per-replica summaries, in replica order.
    pub per_replica: Vec<ReplicaSummary>,
    /// Fleet-wide request totals.
    pub served: u64,
    /// Fleet-wide 503 total.
    pub degraded: u64,
    /// Fleet-wide fail-closed drops.
    pub dropped: u64,
    /// Round the canary was upgraded.
    pub canary_round: u32,
    /// Round the rollback fired, if it did.
    pub rollback_round: Option<u32>,
    /// Simulated cycles on the canary's clock from its upgrade to the
    /// completed rollback.
    pub rollback_latency_cycles: Option<u64>,
    /// First round at which the fleet converged (all replicas healthy on
    /// the final version).
    pub converged_round: Option<u32>,
    /// How the roll ended.
    pub outcome: RolloutOutcome,
    /// Containment violations across the fleet (must be empty).
    pub violations: Vec<String>,
    /// Ledger-audit failures across the fleet (must be empty).
    pub leak_failures: Vec<String>,
    /// Guest instructions retired across every replica.
    pub guest_insns: u64,
}

/// Runs a canaried rollout of `new` over a fleet currently running
/// `old`.
pub fn run(cfg: &RolloutConfig, old: &[ModuleImage], new: &[ModuleImage]) -> RolloutReport {
    let pool = parex::Pool::new(cfg.jobs);
    let n = cfg.replicas.max(1);

    // Boot the fleet: either fork replica worlds off one template
    // (microsecond copy-on-write boot) or cold-boot each one. Boot is
    // index-independent, so both paths yield byte-identical fleets.
    let template = if cfg.fork_boot {
        Replica::new(cfg.seed, 0, old.to_vec(), cfg.policy, cfg.cycle_limit, true).ok()
    } else {
        None
    };
    let mut reps: Vec<Replica> = pool
        .run_ordered((0..n).collect(), |_, i| match &template {
            Some(t) => Ok(t.fork_as(cfg.seed, i)),
            None => Replica::new(cfg.seed, i, old.to_vec(), cfg.policy, cfg.cycle_limit, true),
        })
        .into_iter()
        .collect::<Result<_, _>>()
        .expect("replica boot is deterministic and must succeed");

    let mut events = Vec::new();
    let mut upgraded = vec![false; n as usize];
    let mut rolled_back = false;
    let mut canary_up_cycles = None;
    let mut rollback_round = None;
    let mut rollback_latency_cycles = None;
    let mut converged_round = None;

    let switch = |rep: &mut Replica, images: &[ModuleImage]| {
        rep.sup.stage_images(rep.ext, images.to_vec());
        rep.sup.rollover(&mut rep.k, &mut rep.kx, rep.ext)
    };

    for round in 0..cfg.rounds {
        pool.update_ordered(&mut reps, |_, rep| {
            rep.serve_round(cfg.requests_per_round);
        });

        // --- controller decisions, serial over the merged state ---------

        if round == cfg.canary_round && !rolled_back {
            let rep = &mut reps[0];
            match switch(rep, new) {
                Ok(_) => events.push(format!(
                    "round {round}: canary replica 0 -> new version (gen {})",
                    rep.sup.running_generation(rep.ext)
                )),
                Err(e) => events.push(format!("round {round}: canary switch failed: {e}")),
            }
            canary_up_cycles = Some(rep.k.m.cycles());
            upgraded[0] = true;
        }

        // SLO watch over every replica already on the new version.
        if !rolled_back && round >= cfg.canary_round {
            let mut trip = None;
            for (i, rep) in reps.iter().enumerate() {
                if !upgraded[i] {
                    continue;
                }
                if let SloVerdict::Tripped(why) = cfg.slo.evaluate(rep) {
                    trip = Some((i, why));
                    break;
                }
            }
            if let Some((i, why)) = trip {
                events.push(format!("round {round}: SLO tripped on replica {i} ({why})"));
                for (j, rep) in reps.iter_mut().enumerate() {
                    if !upgraded[j] {
                        continue;
                    }
                    match switch(rep, old) {
                        Ok(_) => events.push(format!(
                            "round {round}: rollback replica {j} -> old version (gen {})",
                            rep.sup.running_generation(rep.ext)
                        )),
                        Err(e) => {
                            events.push(format!("round {round}: rollback replica {j} failed: {e}"))
                        }
                    }
                    upgraded[j] = false;
                }
                rolled_back = true;
                rollback_round = Some(round);
                rollback_latency_cycles =
                    canary_up_cycles.map(|up| reps[0].k.m.cycles().saturating_sub(up));
            }
        }

        // Waves: once the canary has soaked clean, promote the rest.
        if !rolled_back
            && round >= cfg.canary_round + cfg.soak_rounds
            && upgraded.iter().any(|&u| u)
            && !upgraded.iter().all(|&u| u)
        {
            let mut promoted = 0;
            for j in 0..n as usize {
                if upgraded[j] {
                    continue;
                }
                match switch(&mut reps[j], new) {
                    Ok(_) => events.push(format!(
                        "round {round}: wave promotes replica {j} -> new version (gen {})",
                        reps[j].sup.running_generation(reps[j].ext)
                    )),
                    Err(e) => events.push(format!("round {round}: wave replica {j} failed: {e}")),
                }
                upgraded[j] = true;
                promoted += 1;
                if promoted == cfg.wave_size {
                    break;
                }
            }
        }

        // Convergence: all replicas healthy on the roll's final version.
        if converged_round.is_none() {
            let target_reached = if rolled_back {
                upgraded.iter().all(|&u| !u)
            } else {
                upgraded.iter().all(|&u| u)
            };
            let all_healthy = reps.iter().all(|rep| {
                rep.sup.state(rep.ext) == SupervisedState::Running
                    && rep.sup.running_generation(rep.ext) == rep.sup.staged_generation(rep.ext)
            });
            if target_reached && all_healthy && (rolled_back || round >= cfg.canary_round) {
                converged_round = Some(round);
                events.push(format!(
                    "round {round}: fleet converged ({})",
                    if rolled_back {
                        "old version everywhere"
                    } else {
                        "new version everywhere"
                    }
                ));
            }
        }
    }

    // Final epoch audit: the ledgers must balance on every replica.
    for (i, rep) in reps.iter_mut().enumerate() {
        rep.audit_leaks(&format!("replica {i} end-of-run"));
    }

    let outcome = if rolled_back {
        RolloutOutcome::RolledBack
    } else if converged_round.is_some() {
        RolloutOutcome::Promoted
    } else {
        RolloutOutcome::Incomplete
    };

    let mut report = RolloutReport {
        seed: cfg.seed,
        replicas: n,
        rounds: cfg.rounds,
        requests_per_round: cfg.requests_per_round,
        events,
        per_replica: Vec::new(),
        served: 0,
        degraded: 0,
        dropped: 0,
        canary_round: cfg.canary_round,
        rollback_round,
        rollback_latency_cycles,
        converged_round,
        outcome,
        violations: Vec::new(),
        leak_failures: Vec::new(),
        guest_insns: 0,
    };
    for (i, rep) in reps.iter().enumerate() {
        report.served += rep.stats.served;
        report.degraded += rep.stats.degraded;
        report.dropped += rep.stats.dropped;
        report.guest_insns += rep.k.m.insns();
        report
            .violations
            .extend(rep.violations.iter().map(|v| format!("replica {i}: {v}")));
        report.leak_failures.extend(rep.leak_failures.clone());
        report.per_replica.push(ReplicaSummary {
            idx: i as u32,
            served: rep.stats.served,
            degraded: rep.stats.degraded,
            dropped: rep.stats.dropped,
            restarts: rep.sup.restarts,
            rollovers: rep.sup.rollovers,
            pages_reclaimed: rep.sup.pages_reclaimed,
            final_gen: rep.sup.running_generation(rep.ext),
            final_state: match rep.sup.state(rep.ext) {
                SupervisedState::Running => "running",
                SupervisedState::Backoff { .. } => "backoff",
                SupervisedState::Tombstoned => "tombstoned",
            },
            violations: rep.violations.len(),
        });
    }
    report
}
