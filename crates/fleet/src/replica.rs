//! One replica world: a private kernel hosting one supervised extension
//! segment behind an HTTP front end, with the containment oracle
//! auditing every round.

use chaos::oracle::{self, StateOracle};
use minikernel::Kernel;
use palladium::kernel_ext::{KernelExtensions, SegmentConfig};
use palladium::supervisor::{ModuleImage, RestartPolicy, SupervisedId, Supervisor};
use palladium::user_ext::ExtensibleApp;
use seedrng::SeedRng;
use webserver::http;
use webserver::workload::jittered_get;
use x86sim::image::{base, kind, ImageBuilder, ImageView, RestoreError};

/// Kernel canary word planted outside every extension segment; the
/// oracle checks it after every round.
const CANARY: u32 = 0xF1EE_7CA9;

/// Host-side cycles charged per request (connection handling, parsing,
/// response formatting). Charging them keeps simulated time flowing even
/// while the extension is down, so backoff windows actually expire and
/// strike decay runs on the same clock as the request stream.
pub const REQUEST_OVERHEAD_CYCLES: u64 = 2_000;

/// How one replica treated the requests of a single round.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoundStats {
    /// Requests answered 200 by the extension.
    pub served: u32,
    /// Requests answered 503 (extension faulted, quarantined, or in its
    /// restart backoff) — degraded, not lost.
    pub degraded: u32,
    /// Requests dropped because the replica failed closed after a
    /// containment violation.
    pub dropped: u32,
}

impl RoundStats {
    fn total(&self) -> u32 {
        self.served + self.degraded + self.dropped
    }

    /// Unhealthy share of the round — degraded *and* dropped requests —
    /// in basis points (0..=10_000). Integer math so SLO evaluation is
    /// trivially byte-deterministic.
    pub fn unhealthy_bp(&self) -> u32 {
        ((self.degraded + self.dropped) * 10_000)
            .checked_div(self.total())
            .unwrap_or(0)
    }
}

/// Whole-run counters for one replica.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplicaStats {
    /// Requests answered 200.
    pub served: u64,
    /// Requests answered 503.
    pub degraded: u64,
    /// Requests dropped fail-closed.
    pub dropped: u64,
    /// Response bytes produced.
    pub resp_bytes: u64,
}

/// One replica world. Replica `i` of a fleet draws from the positional
/// stream `SeedRng::stream(seed, i)` and owns every piece of its state,
/// so a round is a pure function of the replica — the parex contract
/// that makes fleet runs byte-identical across worker counts.
///
/// `Clone` is a world fork: the machine's physical frames share
/// copy-on-write ([`x86sim::Machine::fork`]), so cloning a booted
/// replica costs metadata, not memory — the basis of
/// [`fork_as`](Replica::fork_as) template boot.
#[derive(Debug, Clone)]
pub struct Replica {
    /// The replica's private kernel.
    pub k: Kernel,
    /// The extensible application hosting the front end (its address
    /// space is what the oracle's page-table checks inspect).
    pub app: ExtensibleApp,
    /// Kernel-extension state.
    pub kx: KernelExtensions,
    /// The supervisor driving restart/upgrade policy.
    pub sup: Supervisor,
    /// The supervised request-handler extension.
    pub ext: SupervisedId,
    /// Whole-run counters.
    pub stats: ReplicaStats,
    /// Stats of the most recently served round (the SLO monitor's
    /// evaluation window).
    pub last_round: RoundStats,
    /// Containment violations observed, with round numbers. Any entry
    /// fails the replica closed.
    pub violations: Vec<String>,
    /// Leak-audit failures observed at epoch checks.
    pub leak_failures: Vec<String>,
    oracle: StateOracle,
    rng: SeedRng,
    rounds_served: u32,
    failed_closed: bool,
}

impl Replica {
    /// Boots replica `idx` of a fleet seeded with `seed`, installing
    /// `images` as the supervised request handler.
    pub fn new(
        seed: u64,
        idx: u32,
        images: Vec<ModuleImage>,
        policy: RestartPolicy,
        cycle_limit: u64,
        predecode: bool,
    ) -> Result<Replica, String> {
        let mut k = Kernel::boot();
        k.extension_cycle_limit = cycle_limit;
        k.m.set_predecode(predecode);
        let app = ExtensibleApp::new(&mut k).map_err(|e| format!("app: {e}"))?;
        let mut kx = KernelExtensions::new(&mut k).map_err(|e| format!("kx: {e}"))?;
        let mut sup = Supervisor::new(policy);
        let config = SegmentConfig {
            quarantine_threshold: 3,
            ..kx.default_config()
        };
        let ext = sup
            .install(&mut k, &mut kx, 16, config, images)
            .map_err(|e| format!("install: {e}"))?;
        let canary = k
            .alloc_kernel_pages(1)
            .map_err(|e| format!("canary: {e}"))?;
        k.m.host_write_u32(canary, CANARY);
        let oracle = StateOracle::new(&k, canary, CANARY);
        Ok(Replica {
            k,
            app,
            kx,
            sup,
            ext,
            stats: ReplicaStats::default(),
            last_round: RoundStats::default(),
            violations: Vec::new(),
            leak_failures: Vec::new(),
            oracle,
            rng: SeedRng::stream(seed, u64::from(idx)),
            rounds_served: 0,
            failed_closed: false,
        })
    }

    /// Forks this replica into replica `idx` of a fleet seeded with
    /// `seed`: a copy-on-write clone with its request stream re-pointed
    /// at the positional stream `SeedRng::stream(seed, idx)`.
    ///
    /// Byte-faithful to a cold [`Replica::new`] boot because boot is
    /// `idx`-independent — `idx` only seeds the rng, and the rng is
    /// first consumed in [`serve_round`](Replica::serve_round). The
    /// idiom: boot one template replica, then `fork_as` the rest of the
    /// fleet in microseconds.
    pub fn fork_as(&self, seed: u64, idx: u32) -> Replica {
        let mut r = self.clone();
        r.rng = SeedRng::stream(seed, u64::from(idx));
        r
    }

    /// Whether the replica has failed closed (a containment violation
    /// was observed; every request is dropped from then on).
    pub fn failed_closed(&self) -> bool {
        self.failed_closed
    }

    /// Rounds served so far.
    pub fn rounds_served(&self) -> u32 {
        self.rounds_served
    }

    /// Serves one round of `requests` requests through the supervised
    /// extension, then audits containment and the resource ledgers.
    ///
    /// Request handling degrades gracefully, never fatally:
    ///
    /// * a healthy extension serves 200s;
    /// * a faulted / quarantined / restarting extension yields 503s —
    ///   the supervisor reclaims and restarts underneath, and the next
    ///   round picks up the recovered segment automatically;
    /// * after a containment violation the replica fails **closed**:
    ///   requests are dropped, not answered, until the operator retires
    ///   the world (serving from a world whose isolation was breached
    ///   would be worse than downtime).
    pub fn serve_round(&mut self, requests: u32) -> RoundStats {
        let mut round = RoundStats::default();
        for _ in 0..requests {
            let raw = jittered_get(&mut self.rng, "/filter");
            let arg = self.rng.next_u32() & 0xFFFF;
            self.k.m.charge(REQUEST_OVERHEAD_CYCLES);
            if self.failed_closed {
                round.dropped += 1;
                continue;
            }
            let resp = match http::parse_request(&raw) {
                Ok(_) => match self
                    .sup
                    .invoke(&mut self.k, &mut self.kx, self.ext, "entry", arg)
                {
                    Ok(v) => {
                        round.served += 1;
                        http::ok_response("text/plain", format!("filtered:{v}\n").as_bytes())
                    }
                    Err(_) => {
                        round.degraded += 1;
                        http::error_response(503, "Service Unavailable")
                    }
                },
                Err(_) => {
                    round.degraded += 1;
                    http::error_response(400, "Bad Request")
                }
            };
            self.stats.resp_bytes += resp.len() as u64;
        }
        let cr3 = self.k.task(self.app.tid).cr3;
        let violations = self.oracle.check(&self.k, cr3);
        for v in violations {
            self.violations
                .push(format!("round {}: {v}", self.rounds_served));
            self.failed_closed = true;
        }
        self.stats.served += u64::from(round.served);
        self.stats.degraded += u64::from(round.degraded);
        self.stats.dropped += u64::from(round.dropped);
        self.last_round = round;
        self.rounds_served += 1;
        round
    }

    /// The epoch leak audit: the kernel's per-segment resource ledgers
    /// must balance exactly. Records (and returns) any failure.
    pub fn audit_leaks(&mut self, epoch: &str) -> bool {
        let clean = oracle::check_recovery(&self.k, &self.kx);
        if clean.is_empty() {
            true
        } else {
            for v in clean {
                self.leak_failures.push(format!("{epoch}: {v}"));
            }
            false
        }
    }

    // ----- durable checkpoints ----------------------------------------------

    /// Serializes the whole replica world — the kernel's and machine's
    /// sections, then the application, kernel-extension table,
    /// supervisor, containment oracle, counters and the request-stream
    /// RNG — into one standalone, integrity-checked image.
    ///
    /// A [`restore`](Replica::restore)d replica is cycle-, stat- and
    /// fault-identical going forward: it re-serves exactly the rounds the
    /// original would have served from the checkpoint instant.
    pub fn checkpoint(&self) -> Vec<u8> {
        let mut b = ImageBuilder::new(kind::REPLICA);
        self.k.save_sections(&mut b);
        b.section(base::APP + 1, |e| self.app.save_into(e));
        b.section(base::REPLICA + 1, |e| self.kx.save_into(e));
        b.section(base::REPLICA + 2, |e| self.sup.save_into(e));
        b.section(base::REPLICA + 3, |e| self.oracle.save_into(e));
        b.section(base::REPLICA + 4, |e| {
            e.u32(self.ext.index() as u32);
            e.u64(self.stats.served);
            e.u64(self.stats.degraded);
            e.u64(self.stats.dropped);
            e.u64(self.stats.resp_bytes);
            e.u32(self.last_round.served);
            e.u32(self.last_round.degraded);
            e.u32(self.last_round.dropped);
            e.u32(self.violations.len() as u32);
            for v in &self.violations {
                e.str(v);
            }
            e.u32(self.leak_failures.len() as u32);
            for v in &self.leak_failures {
                e.str(v);
            }
            e.u64(self.rng.state());
            e.u32(self.rounds_served);
            e.bool(self.failed_closed);
        });
        b.finish()
    }

    /// Rebuilds a replica from [`checkpoint`](Replica::checkpoint)
    /// bytes. Every corruption — truncation, bit rot, torn or
    /// transposed blocks, version skew — surfaces as a typed
    /// [`RestoreError`]; a tampered image is never silently restored.
    pub fn restore(bytes: &[u8]) -> Result<Replica, RestoreError> {
        let view = ImageView::parse(bytes, kind::REPLICA)?;
        let k = Kernel::restore_sections(&view)?;
        let mut d = view.require(base::APP + 1, "replica.app")?;
        let app = ExtensibleApp::restore_from(&mut d)?;
        d.finish()?;
        let mut d = view.require(base::REPLICA + 1, "replica.kx")?;
        let kx = KernelExtensions::restore_from(&mut d)?;
        d.finish()?;
        let mut d = view.require(base::REPLICA + 2, "replica.sup")?;
        let sup = Supervisor::restore_from(&mut d)?;
        d.finish()?;
        let mut d = view.require(base::REPLICA + 3, "replica.oracle")?;
        let oracle = StateOracle::restore_from(&mut d)?;
        d.finish()?;
        let mut d = view.require(base::REPLICA + 4, "replica.state")?;
        let ext = SupervisedId::from_index(d.u32()? as usize);
        let stats = ReplicaStats {
            served: d.u64()?,
            degraded: d.u64()?,
            dropped: d.u64()?,
            resp_bytes: d.u64()?,
        };
        let last_round = RoundStats {
            served: d.u32()?,
            degraded: d.u32()?,
            dropped: d.u32()?,
        };
        let n = d.count(4)?;
        let mut violations = Vec::with_capacity(n);
        for _ in 0..n {
            violations.push(d.str()?);
        }
        let n = d.count(4)?;
        let mut leak_failures = Vec::with_capacity(n);
        for _ in 0..n {
            leak_failures.push(d.str()?);
        }
        let rng = SeedRng::new(d.u64()?);
        let rounds_served = d.u32()?;
        let failed_closed = d.bool()?;
        d.finish()?;
        Ok(Replica {
            k,
            app,
            kx,
            sup,
            ext,
            stats,
            last_round,
            violations,
            leak_failures,
            oracle,
            rng,
            rounds_served,
            failed_closed,
        })
    }

    /// Test/chaos hook: corrupts the kernel canary so the next round's
    /// oracle check observes a containment violation and the replica
    /// fails closed. (Under normal operation the protection mechanisms
    /// make this state unreachable — which is the point of checking.)
    pub fn corrupt_canary(&mut self) {
        let addr = self.oracle_canary_addr();
        self.k.m.host_write_u32(addr, !CANARY);
    }

    fn oracle_canary_addr(&self) -> u32 {
        self.oracle.canary_addr()
    }
}
