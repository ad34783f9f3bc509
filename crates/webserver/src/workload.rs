//! The ApacheBench-style closed-loop load generator (§5.2: "a total of
//! 1000 requests were sent to the Web server with up to 30 requests being
//! serviced concurrently").

use seedrng::SeedRng;

use crate::cgi::{ExecModel, ServerError, WebServer};
use crate::http::get_request;
use crate::netcost::cpu_rps;
use x86sim::cycles::CLOCK_HZ;

/// One benchmark request with header jitter: ApacheBench varies nothing
/// but timing, so half the requests use an alternate header set to make
/// the parser do honest work. Drawing the coin from `rng` keeps every
/// seeded driver (live runs, sharded replicas, fleet rollouts)
/// byte-reproducible.
pub fn jittered_get(rng: &mut SeedRng, path: &str) -> String {
    if rng.gen_bool(0.5) {
        get_request(path)
    } else {
        format!("GET {path} HTTP/1.0\r\nHost: bench\r\nAccept: */*\r\n\r\n")
    }
}

/// Benchmark configuration (defaults match the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AbConfig {
    /// Total requests.
    pub requests: u32,
    /// Concurrent connections.
    pub concurrency: u32,
}

impl Default for AbConfig {
    fn default() -> AbConfig {
        AbConfig {
            requests: 1000,
            concurrency: 30,
        }
    }
}

/// One benchmark result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AbResult {
    /// Requests per second.
    pub rps: f64,
    /// Total wall-clock seconds for the run.
    pub seconds: f64,
    /// Whether the link (rather than the CPU) was the bottleneck.
    pub link_bound: bool,
}

/// Analytic run: with 30-way concurrency both CPU and link pipelines stay
/// full, so completion time is the larger of the two resources' busy
/// times.
pub fn run_ab(server: &WebServer, model: ExecModel, size: u32, cfg: AbConfig) -> AbResult {
    let cpu = cpu_rps(server.cycles_per_request(model, size));
    let link = server.link.capacity_rps(size);
    let rps = cpu.min(link);
    AbResult {
        rps,
        seconds: cfg.requests as f64 / rps,
        link_bound: link < cpu,
    }
}

/// Live run: actually serves `n` requests through [`WebServer::handle`]
/// (protected LibCGI calls really execute on the simulated CPU) against a
/// randomly chosen benchmark file, and derives throughput from the
/// machine's cycle counter.
pub fn run_live(
    server: &mut WebServer,
    model: ExecModel,
    path: &str,
    n: u32,
    seed: u64,
) -> Result<AbResult, ServerError> {
    let mut rng = SeedRng::new(seed);
    let start = server.k.m.cycles();
    let mut resp_bytes = 0u64;
    for _ in 0..n {
        let raw = jittered_get(&mut rng, path);
        let resp = server.handle(&raw, model)?;
        resp_bytes += resp.len() as u64;
    }
    let cycles = server.k.m.cycles() - start;
    let seconds = cycles as f64 / CLOCK_HZ as f64;
    let cpu_rps = n as f64 / seconds;
    let link = server.link.capacity_rps((resp_bytes / n as u64) as u32);
    Ok(AbResult {
        rps: cpu_rps.min(link),
        seconds,
        link_bound: link < cpu_rps,
    })
}

/// Per-shard measurements from a [`run_live_sharded`] request group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardStats {
    /// Requests served by this group.
    pub requests: u32,
    /// Simulated cycles the group's server spent serving them.
    pub cycles: u64,
    /// Guest instructions the group's server retired serving them.
    pub insns: u64,
    /// Response bytes produced.
    pub resp_bytes: u64,
}

/// Sharded live run: splits `n` requests into `groups` independent
/// request groups, serves each group on its **own** freshly built
/// server (from `make_server`), and fans the groups across `pool`.
///
/// Group `g` draws from the positional stream `SeedRng::stream(seed,
/// g)` and never observes another group, so the aggregate result and
/// the per-shard stats are byte-identical for every worker count —
/// only wall-clock time changes. The request-group decomposition is a
/// function of `(n, groups)` alone, never of `pool.jobs()`.
///
/// Returns the merged result plus the in-order per-shard stats.
pub fn run_live_sharded<F>(
    make_server: F,
    model: ExecModel,
    path: &str,
    n: u32,
    seed: u64,
    groups: u32,
    pool: parex::Pool,
) -> Result<(AbResult, Vec<ShardStats>), ServerError>
where
    F: Fn() -> Result<WebServer, ServerError> + Sync,
{
    let groups = groups.clamp(1, n.max(1));
    let sizes: Vec<(u32, u32)> = (0..groups)
        .map(|g| {
            // Near-equal split: the first `n % groups` groups get one
            // extra request.
            (g, n / groups + u32::from(g < n % groups))
        })
        .collect();

    let shards = pool.run_ordered(sizes, |_, (g, reqs)| -> Result<_, ServerError> {
        let mut server = make_server()?;
        let mut rng = SeedRng::stream(seed, u64::from(g));
        let start = server.k.m.cycles();
        let start_insns = server.k.m.insns();
        let mut resp_bytes = 0u64;
        for _ in 0..reqs {
            let raw = jittered_get(&mut rng, path);
            let resp = server.handle(&raw, model)?;
            resp_bytes += resp.len() as u64;
        }
        Ok((
            ShardStats {
                requests: reqs,
                cycles: server.k.m.cycles() - start,
                insns: server.k.m.insns() - start_insns,
                resp_bytes,
            },
            server.link,
        ))
    });

    let mut stats = Vec::with_capacity(shards.len());
    let mut link = None;
    for s in shards {
        let (stat, l) = s?;
        link = link.or(Some(l));
        stats.push(stat);
    }
    let link = link.expect("at least one group");

    let total_reqs: u32 = stats.iter().map(|s| s.requests).sum();
    let total_cycles: u64 = stats.iter().map(|s| s.cycles).sum();
    let total_bytes: u64 = stats.iter().map(|s| s.resp_bytes).sum();
    // Aggregate over *simulated CPU work*: the servers are replicas, so
    // total cycles over total requests is the per-request cost and the
    // merged rps is what one server would sustain — identical to a
    // serial run over the same groups.
    let seconds = total_cycles as f64 / CLOCK_HZ as f64;
    let cpu_rps = total_reqs as f64 / seconds;
    let link_rps = link.capacity_rps((total_bytes / u64::from(total_reqs.max(1))) as u32);
    Ok((
        AbResult {
            rps: cpu_rps.min(link_rps),
            seconds,
            link_bound: link_rps < cpu_rps,
        },
        stats,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analytic_and_live_agree_for_static() {
        let mut s = WebServer::new().unwrap();
        s.add_benchmark_files();
        let analytic = run_ab(&s, ExecModel::StaticFile, 1024, AbConfig::default());
        let live = run_live(&mut s, ExecModel::StaticFile, "/file1024", 50, 1).unwrap();
        let err = (analytic.rps - live.rps).abs() / analytic.rps;
        assert!(err < 0.05, "analytic {} vs live {}", analytic.rps, live.rps);
    }

    #[test]
    fn live_protected_run_includes_real_guest_calls() {
        let mut s = WebServer::new().unwrap();
        s.add_benchmark_files();
        let before = s.k.m.insns();
        let live = run_live(&mut s, ExecModel::LibCgiProtected, "/file28", 20, 2).unwrap();
        assert!(live.rps > 0.0);
        assert!(
            s.k.m.insns() > before + 20 * 10,
            "each request executed guest instructions"
        );
    }

    #[test]
    fn run_times_scale_with_request_count() {
        let s = WebServer::new().unwrap();
        let a = run_ab(
            &s,
            ExecModel::Cgi,
            28,
            AbConfig {
                requests: 1000,
                concurrency: 30,
            },
        );
        let b = run_ab(
            &s,
            ExecModel::Cgi,
            28,
            AbConfig {
                requests: 2000,
                concurrency: 30,
            },
        );
        assert!((b.seconds / a.seconds - 2.0).abs() < 1e-9);
        assert_eq!(a.rps, b.rps);
    }

    #[test]
    fn sharded_live_run_is_job_count_invariant() {
        let make = || {
            let mut s = WebServer::new()?;
            s.add_benchmark_files();
            Ok(s)
        };
        let (r1, s1) = run_live_sharded(
            make,
            ExecModel::LibCgiProtected,
            "/file1024",
            40,
            7,
            4,
            parex::Pool::new(1),
        )
        .unwrap();
        let (r4, s4) = run_live_sharded(
            make,
            ExecModel::LibCgiProtected,
            "/file1024",
            40,
            7,
            4,
            parex::Pool::new(4),
        )
        .unwrap();
        assert_eq!(s1, s4);
        assert_eq!(r1.rps.to_bits(), r4.rps.to_bits());
        assert_eq!(r1.seconds.to_bits(), r4.seconds.to_bits());
    }

    #[test]
    fn nothing_in_table3_is_link_bound() {
        let s = WebServer::new().unwrap();
        for model in ExecModel::ALL {
            for size in [28u32, 1024, 10 * 1024, 100 * 1024] {
                let r = run_ab(&s, model, size, AbConfig::default());
                assert!(!r.link_bound, "{} at {size}", model.name());
            }
        }
    }
}

#[cfg(test)]
mod dynamic_live {
    use super::*;

    #[test]
    fn live_runs_hit_dynamic_endpoints_too() {
        let mut s = WebServer::new().unwrap();
        let script = asm86::Assembler::assemble(
            "inc_by_one:\n\
             mov eax, [esp+4]\n\
             inc eax\n\
             ret\n",
        )
        .unwrap();
        s.add_dynamic("/inc", &script, "inc_by_one").unwrap();
        let r = run_live(&mut s, ExecModel::LibCgiProtected, "/inc?n=41", 10, 4).unwrap();
        assert!(r.rps > 0.0);
        assert_eq!(s.served, 10);
        assert!(s
            .access_log
            .iter()
            .all(|l| l.contains("/inc?n=41") && l.contains("200")));
    }
}
