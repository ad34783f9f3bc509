//! `fleet`: the only workload that saves and restores world images. Four
//! replicas forked from one template serve rounds in turn; their handler
//! is a scan loop that also stores outside its segment on a seeded ~1/512
//! of arguments, so faults, strikes, quarantine and supervisor restarts
//! happen at a steady rate.
//!
//! Every [`CHECKPOINT_EVERY`]th op checkpoints one replica (in rotation)
//! and keeps its two newest images; every [`CRASH_EVERY`]th op "crashes"
//! one replica (in rotation) and restores it from its newest image; every
//! [`AUDIT_EVERY`]th op audits every replica for leaks.

use std::collections::VecDeque;

use asm86::Assembler;
use fleet::{Replica, ReplicaStats};
use minikernel::Kernel;
use palladium::supervisor::{ModuleImage, RestartPolicy};
use seedrng::SeedRng;
use x86sim::Machine;

use crate::trace::Tracer;
use crate::world::{frames_in_use, resident, Counters, Outcome, World};

const REPLICAS: u64 = 4;

/// Requests per `serve_round`.
const ROUND: u32 = 100;

/// Ops between checkpoints. Sized so image work is about two thirds of
/// host time; each replica is checkpointed every `REPLICAS` times this.
const CHECKPOINT_EVERY: u64 = 8;

/// Ops between simulated replica crashes.
pub const CRASH_EVERY: u64 = 64;

/// Ops between leak audits of every replica.
const AUDIT_EVERY: u64 = 256;

/// Images kept per replica.
const KEEP: usize = 2;

/// Extra iterations of the handler's scan loop.
const WORK: u32 = 64;

/// Per-request CPU budget of the handler, in simulated cycles.
const CYCLE_LIMIT: u64 = 100_000;

/// One kept image and the counters it must restore to.
struct Saved {
    image: Vec<u8>,
    stats: ReplicaStats,
    rounds: u32,
}

/// The fleet world.
pub struct FleetWorld {
    replicas: Vec<Replica>,
    images: Vec<VecDeque<Saved>>,
    /// Counters of replaced replicas minus those of their replacements.
    carry: Counters,
    image_bytes: u64,
    machine_image_bytes: u64,
}

/// The handler: stores outside its segment when `arg & 511 == trap`,
/// else scans `WORK + (arg & 63)` iterations and returns 1.
fn handler(trap: u32) -> String {
    format!(
        "entry:\n\
         mov ecx, [esp+4]\n\
         mov edx, ecx\n\
         and edx, 511\n\
         cmp edx, {trap}\n\
         jne work\n\
         mov eax, 0x00200000\n\
         mov [eax], ecx\n\
         work:\n\
         and ecx, 63\n\
         add ecx, {WORK}\n\
         scan:\n\
         dec ecx\n\
         cmp ecx, 0\n\
         jne scan\n\
         mov eax, 1\n\
         ret\n"
    )
}

fn replica_counters(r: &Replica) -> Counters {
    let d = r.kx.dispatch;
    Counters {
        aborts: r.kx.aborts,
        quarantines: r.kx.quarantines,
        restarts: r.sup.restarts,
        verified_dispatches: d.verified,
        dispatches: d.verified + d.entry_checks,
        ..Counters::of_kernel(&r.k)
    }
}

impl FleetWorld {
    fn checkpoint(&mut self, c: usize, t: &mut Tracer) {
        let r = &self.replicas[c];
        if t.enabled() {
            // Replica::checkpoint embeds these images; take them on their
            // own so each layer's share of a checkpoint shows.
            let m = t.span("x86sim", "save_image", || r.k.m.save_image());
            let _ = t.span("x86sim", "restore_image", || Machine::restore_image(&m));
            let k = t.span("kernel", "save_image", || r.k.save_image());
            let _ = t.span("kernel", "restore_image", || Kernel::restore_image(&k));
            self.machine_image_bytes = m.len() as u64;
        }
        let image = t.span("fleet", "checkpoint", || r.checkpoint());
        self.image_bytes = image.len() as u64;
        let kept = &mut self.images[c];
        kept.push_back(Saved {
            image,
            stats: r.stats,
            rounds: r.rounds_served(),
        });
        if kept.len() > KEEP {
            kept.pop_front();
        }
    }

    fn crash_and_restore(&mut self, c: usize, t: &mut Tracer) -> Result<(), String> {
        let saved = self.images[c]
            .back()
            .ok_or(format!("replica {c} has no image"))?;
        let restored = t
            .span("fleet", "restore", || Replica::restore(&saved.image))
            .map_err(|e| format!("replica {c} restore: {e}"))?;
        if restored.stats != saved.stats || restored.rounds_served() != saved.rounds {
            return Err(format!(
                "replica {c} restored to {:?} after {} rounds, checkpointed at {:?} after {}",
                restored.stats,
                restored.rounds_served(),
                saved.stats,
                saved.rounds
            ));
        }
        self.carry = self
            .carry
            .plus(replica_counters(&self.replicas[c]))
            .minus(replica_counters(&restored));
        self.replicas[c] = restored;
        Ok(())
    }
}

impl World for FleetWorld {
    const GUEST_SPANS: &'static [(&'static str, &'static str)] = &[("fleet", "serve_round")];

    fn build(seed: u64, t: &mut Tracer) -> Result<FleetWorld, String> {
        let trap = SeedRng::new(seed).gen_range(0, 512);
        let obj = t
            .span("asm86", "assemble", || Assembler::assemble(&handler(trap)))
            .map_err(|e| format!("handler assembles: {e}"))?;
        let images = vec![ModuleImage::new("handler", obj, &["entry"])];
        // Restart at once and forever: under the default policy's bounded
        // restarts a steady fault rate eventually tombstones the handler
        // and every later request is refused.
        let template = Replica::new(
            seed,
            0,
            images,
            RestartPolicy::immediate(),
            CYCLE_LIMIT,
            true,
        )?;
        let replicas: Vec<Replica> = (0..REPLICAS as u32)
            .map(|i| template.fork_as(seed, i))
            .collect();
        Ok(FleetWorld {
            images: replicas.iter().map(|_| VecDeque::new()).collect(),
            replicas,
            carry: Counters::default(),
            image_bytes: 0,
            machine_image_bytes: 0,
        })
    }

    fn op(&mut self, i: u64, t: &mut Tracer) -> Result<Outcome, String> {
        let r = &mut self.replicas[(i % REPLICAS) as usize];
        let (c0, n0, f0) = (r.k.m.cycles(), r.k.m.insns(), frames_in_use(&r.k));
        let round = t.span("fleet", "serve_round", || r.serve_round(ROUND));
        if round.dropped > 0 || r.failed_closed() || !r.violations.is_empty() {
            return Err(format!("op {i}: replica failed closed: {:?}", r.violations));
        }
        if round.served + round.degraded != ROUND {
            return Err(format!(
                "op {i}: round answered {round:?} of {ROUND} requests"
            ));
        }
        let outcome = Outcome {
            cycles: r.k.m.cycles() - c0,
            insns: r.k.m.insns() - n0,
            units: ROUND,
            refused: round.degraded,
            frames_delta: frames_in_use(&r.k) - f0,
        };
        if i % CHECKPOINT_EVERY == CHECKPOINT_EVERY - 1 {
            self.checkpoint(((i / CHECKPOINT_EVERY) % REPLICAS) as usize, t);
        }
        if i % CRASH_EVERY == CRASH_EVERY - 1 {
            self.crash_and_restore(((i / CRASH_EVERY) % REPLICAS) as usize, t)?;
        }
        if i % AUDIT_EVERY == AUDIT_EVERY - 1 {
            let replicas = &mut self.replicas;
            let clean = t.span("fleet", "audit", || {
                replicas
                    .iter_mut()
                    .all(|r| r.audit_leaks(&format!("op {i}")))
            });
            if !clean {
                let found: Vec<&String> = self
                    .replicas
                    .iter()
                    .flat_map(|r| &r.leak_failures)
                    .collect();
                return Err(format!("op {i}: leak audit failed: {found:?}"));
            }
        }
        Ok(outcome)
    }

    fn counters(&self) -> Counters {
        self.replicas
            .iter()
            .fold(self.carry, |c, r| c.plus(replica_counters(r)))
    }

    fn resident_frames(&self) -> u64 {
        self.replicas.iter().map(|r| resident(&r.k)).sum()
    }

    fn layer_values(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("fleet.checkpoint_bytes", self.image_bytes as f64),
            ("x86sim.image_bytes", self.machine_image_bytes as f64),
        ]
    }
}
