//! The crash-recovery drill: kill a replica mid-stream and prove the
//! fleet recovers from durable checkpoints, never from luck.
//!
//! The drill runs a serving fleet with periodic per-replica checkpoints
//! (a lineage of image generations per replica). At a configured round
//! the victim replica "host-crashes": its in-memory world is dropped on
//! the floor, exactly as a power cut would. Recovery then walks the
//! checkpoint lineage newest-first — optionally with the newest
//! generations corrupted by the chaos injectors, the way real storage
//! fails — restoring the first image whose integrity checks pass.
//! Corrupt images are rejected with typed errors and the walk-back is
//! bounded; if every retained generation is damaged the replica
//! cold-boots. Throughout, the fleet degrades gracefully: the victim's
//! requests are answered 503 while it is down, healthy replicas keep
//! serving, and *zero* requests are dropped on healthy replicas.
//!
//! Determinism is the usual fleet contract: replicas fan across a
//! [`parex::Pool`] and every drill decision — including which checkpoint
//! generation recovers — is made serially from merged state, so the
//! report is byte-identical for every `jobs` value.

use chaos::corrupt;
use palladium::supervisor::{ModuleImage, RestartPolicy};
use seedrng::SeedRng;

use crate::replica::Replica;

/// Crash-recovery drill parameters.
#[derive(Debug, Clone)]
pub struct DrillConfig {
    /// Master seed; replica `i` draws from `SeedRng::stream(seed, i)`,
    /// and checkpoint corruption draws from a stream derived from it.
    pub seed: u64,
    /// Fleet size.
    pub replicas: u32,
    /// Total rounds to run.
    pub rounds: u32,
    /// Requests per replica per round.
    pub requests_per_round: u32,
    /// Rounds between checkpoints (every replica checkpoints on the
    /// same cadence; clamped to at least 1).
    pub checkpoint_every: u32,
    /// Round at whose start the victim's world is destroyed.
    pub crash_round: u32,
    /// Replica index that crashes.
    pub victim: u32,
    /// Newest checkpoint generations corrupted before recovery (the
    /// torn-write / bit-rot scenario that forces lineage walk-back).
    pub corrupt_latest: u32,
    /// Maximum lineage generations tried before giving up and
    /// cold-booting (bounded retries; clamped to at least 1).
    pub max_walkback: u32,
    /// Supervisor restart policy for every replica.
    pub policy: RestartPolicy,
    /// CPU-time limit per extension invocation.
    pub cycle_limit: u64,
    /// Worker threads to fan replicas across (any value is
    /// byte-identical).
    pub jobs: usize,
    /// Boot the fleet by forking one template replica.
    pub fork_boot: bool,
    /// Directory to persist every checkpoint image into
    /// (`replica<i>-gen<g>.pdim`), created if missing. `None` keeps the
    /// lineage in memory only. Persisting never changes the report —
    /// the drill recovers from the in-memory lineage either way.
    pub persist_dir: Option<String>,
}

impl Default for DrillConfig {
    fn default() -> DrillConfig {
        DrillConfig {
            seed: 1,
            replicas: 4,
            rounds: 18,
            requests_per_round: 40,
            checkpoint_every: 3,
            crash_round: 10,
            victim: 1,
            corrupt_latest: 0,
            max_walkback: 3,
            policy: RestartPolicy::default(),
            cycle_limit: 20_000,
            jobs: 1,
            fork_boot: true,
            persist_dir: None,
        }
    }
}

/// How the drill's recovery ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DrillOutcome {
    /// The victim restored from its newest intact checkpoint.
    Restored,
    /// Restore succeeded only after walking back past corrupt
    /// generations.
    RestoredAfterWalkback,
    /// Every tried generation was rejected; the victim cold-booted.
    ColdBooted,
}

impl DrillOutcome {
    /// Stable tag for reports.
    pub fn tag(&self) -> &'static str {
        match self {
            DrillOutcome::Restored => "restored",
            DrillOutcome::RestoredAfterWalkback => "restored-after-walkback",
            DrillOutcome::ColdBooted => "cold-booted",
        }
    }
}

/// The full deterministic record of one crash-recovery drill.
#[derive(Debug, Clone, PartialEq)]
pub struct DrillReport {
    /// Seed the run was derived from.
    pub seed: u64,
    /// Fleet size.
    pub replicas: u32,
    /// Rounds executed.
    pub rounds: u32,
    /// Requests per replica per round.
    pub requests_per_round: u32,
    /// Checkpoint cadence in rounds.
    pub checkpoint_every: u32,
    /// Round the victim crashed.
    pub crash_round: u32,
    /// Victim replica index.
    pub victim: u32,
    /// Checkpoint generations deliberately corrupted before recovery.
    pub corrupted_generations: u32,
    /// Generations rejected (with typed errors) before one restored.
    pub generations_walked: u32,
    /// Lineage generation that restored (newest = highest), if any.
    pub recovered_generation: Option<u32>,
    /// How recovery ended.
    pub outcome: DrillOutcome,
    /// Requests answered 503 on the victim's behalf while it was down
    /// (graceful degradation — never dropped, never a fleet outage).
    pub recovery_degraded: u64,
    /// Rounds from the crash until the victim again served a fully
    /// healthy round (its time-to-converge), if it did.
    pub rounds_to_converge: Option<u32>,
    /// Checkpoint images written across the run.
    pub checkpoints_written: u32,
    /// Largest checkpoint image, in bytes.
    pub largest_image_bytes: usize,
    /// Fleet-wide request totals (includes `recovery_degraded`).
    pub served: u64,
    /// Fleet-wide 503 total.
    pub degraded: u64,
    /// Fleet-wide fail-closed drops.
    pub dropped: u64,
    /// Requests dropped on replicas *other than* the victim — must be 0:
    /// a drill must never cost a healthy replica a request.
    pub healthy_replica_drops: u64,
    /// The drill's event log, one line per decision.
    pub events: Vec<String>,
    /// Containment violations across the fleet (must be empty).
    pub violations: Vec<String>,
    /// Ledger-audit failures across the fleet (must be empty).
    pub leak_failures: Vec<String>,
    /// Guest instructions retired across every replica.
    pub guest_insns: u64,
}

/// Runs a crash-recovery drill over a fleet serving `images`.
pub fn run(cfg: &DrillConfig, images: &[ModuleImage]) -> DrillReport {
    let pool = parex::Pool::new(cfg.jobs);
    let n = cfg.replicas.max(1);
    let victim = cfg.victim.min(n - 1) as usize;
    let every = cfg.checkpoint_every.max(1);

    let boot = |idx: u32| {
        Replica::new(
            cfg.seed,
            idx,
            images.to_vec(),
            cfg.policy,
            cfg.cycle_limit,
            true,
        )
    };
    let template = if cfg.fork_boot { boot(0).ok() } else { None };
    let mut reps: Vec<Replica> = pool
        .run_ordered((0..n).collect(), |_, i| match &template {
            Some(t) => Ok(t.fork_as(cfg.seed, i)),
            None => boot(i),
        })
        .into_iter()
        .collect::<Result<_, _>>()
        .expect("replica boot is deterministic and must succeed");

    // Per-replica checkpoint lineage, oldest generation first.
    let mut lineage: Vec<Vec<Vec<u8>>> = vec![Vec::new(); n as usize];
    let mut events = Vec::new();
    let mut checkpoints_written = 0u32;
    let mut largest_image_bytes = 0usize;
    let mut recovery_degraded = 0u64;
    let mut generations_walked = 0u32;
    let mut corrupted_generations = 0u32;
    let mut recovered_generation = None;
    let mut outcome = DrillOutcome::Restored;
    let mut crashed = false;
    let mut rounds_to_converge = None;

    for round in 0..cfg.rounds {
        // --- the crash: the victim's world vanishes ---------------------
        if round == cfg.crash_round {
            crashed = true;
            events.push(format!(
                "round {round}: replica {victim} crashed (world dropped, \
                 {} checkpoint generations retained)",
                lineage[victim].len()
            ));

            // Storage damage: the newest `corrupt_latest` generations are
            // corrupted by the chaos injectors, seeded so the drill is
            // replayable bit-for-bit.
            let mut crng = SeedRng::new(cfg.seed ^ 0xD811_C0DE);
            let gens = lineage[victim].len();
            for back in 0..cfg.corrupt_latest.min(gens as u32) {
                let g = gens - 1 - back as usize;
                let (kind, bad) = corrupt::corrupted_image(&lineage[victim][g], &mut crng);
                lineage[victim][g] = bad;
                corrupted_generations += 1;
                events.push(format!(
                    "round {round}: checkpoint gen {g} damaged on disk ({})",
                    kind.tag()
                ));
            }

            // Recovery: walk the lineage newest-first, bounded retries,
            // typed rejection on every corrupt image.
            let mut restored = None;
            for (walked, g) in (0..gens)
                .rev()
                .take(cfg.max_walkback.max(1) as usize)
                .enumerate()
            {
                match Replica::restore(&lineage[victim][g]) {
                    Ok(r) => {
                        events.push(format!(
                            "round {round}: replica {victim} restored from gen {g} \
                             ({} rounds of state)",
                            r.rounds_served()
                        ));
                        recovered_generation = Some(g as u32);
                        generations_walked = walked as u32;
                        restored = Some(r);
                        break;
                    }
                    Err(e) => {
                        generations_walked = walked as u32 + 1;
                        events.push(format!("round {round}: checkpoint gen {g} rejected ({e})"));
                    }
                }
            }
            match restored {
                Some(r) => {
                    outcome = if generations_walked == 0 {
                        DrillOutcome::Restored
                    } else {
                        DrillOutcome::RestoredAfterWalkback
                    };
                    reps[victim] = r;
                }
                None => {
                    outcome = DrillOutcome::ColdBooted;
                    events.push(format!(
                        "round {round}: no intact checkpoint within walk-back budget; \
                         replica {victim} cold-booting"
                    ));
                    reps[victim] =
                        boot(victim as u32).expect("cold boot is deterministic and must succeed");
                }
            }

            // The round the crash consumed: the front end answers the
            // victim's share 503 — degraded, never dropped, never an
            // outage — while every healthy replica serves normally.
            recovery_degraded += u64::from(cfg.requests_per_round);
            pool.update_ordered(&mut reps, |i, rep| {
                if i != victim {
                    rep.serve_round(cfg.requests_per_round);
                }
            });
            continue;
        }

        pool.update_ordered(&mut reps, |_, rep| {
            rep.serve_round(cfg.requests_per_round);
        });

        if crashed && rounds_to_converge.is_none() && reps[victim].last_round.unhealthy_bp() == 0 {
            rounds_to_converge = Some(round - cfg.crash_round);
            events.push(format!(
                "round {round}: replica {victim} converged (healthy round, \
                 {} rounds after the crash)",
                round - cfg.crash_round
            ));
        }

        // --- periodic checkpoints ---------------------------------------
        if (round + 1) % every == 0 {
            for (i, rep) in reps.iter().enumerate() {
                let img = rep.checkpoint();
                largest_image_bytes = largest_image_bytes.max(img.len());
                if let Some(dir) = &cfg.persist_dir {
                    std::fs::create_dir_all(dir).expect("create checkpoint dir");
                    let path = format!("{dir}/replica{i}-gen{}.pdim", lineage[i].len());
                    std::fs::write(&path, &img).expect("persist checkpoint image");
                }
                lineage[i].push(img);
                checkpoints_written += 1;
            }
            events.push(format!(
                "round {round}: fleet checkpointed (gen {})",
                lineage[victim].len() - 1
            ));
        }
    }

    for (i, rep) in reps.iter_mut().enumerate() {
        rep.audit_leaks(&format!("replica {i} end-of-run"));
    }

    let mut report = DrillReport {
        seed: cfg.seed,
        replicas: n,
        rounds: cfg.rounds,
        requests_per_round: cfg.requests_per_round,
        checkpoint_every: every,
        crash_round: cfg.crash_round,
        victim: victim as u32,
        corrupted_generations,
        generations_walked,
        recovered_generation,
        outcome,
        recovery_degraded,
        rounds_to_converge,
        checkpoints_written,
        largest_image_bytes,
        served: 0,
        degraded: recovery_degraded,
        dropped: 0,
        healthy_replica_drops: 0,
        events,
        violations: Vec::new(),
        leak_failures: Vec::new(),
        guest_insns: 0,
    };
    for (i, rep) in reps.iter().enumerate() {
        report.served += rep.stats.served;
        report.degraded += rep.stats.degraded;
        report.dropped += rep.stats.dropped;
        if i != victim {
            report.healthy_replica_drops += rep.stats.dropped;
        }
        report.guest_insns += rep.k.m.insns();
        report
            .violations
            .extend(rep.violations.iter().map(|v| format!("replica {i}: {v}")));
        report.leak_failures.extend(rep.leak_failures.clone());
    }
    report
}
