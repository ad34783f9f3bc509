//! Runs one workload: times its set-up, runs the untraced pass that gives
//! the end-to-end metrics and, when asked, the traced pass that gives the
//! per-layer metrics. Every host time is reported at reference speed
//! ([`reference`]).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use crate::metrics::{unit_of, END_TO_END, PER_LAYER};
use crate::reference;
use crate::stats::{median, median_mut, Histogram};
use crate::trace::Tracer;
use crate::workloads::{HostTime, Workload};
use crate::world::{Counters, World};

/// Untimed builds before the timed ones: the first builds of a process
/// grow its heap and run up to 2x slower.
const SETUP_WARMUP: usize = 20;

/// Builds timed for `setup_s` (the median is reported).
const SETUP_RUNS: usize = 51;

/// Builds timed at `--quick` size (no warm-up).
const QUICK_SETUP_RUNS: usize = 3;

/// Makes the C allocator's behaviour the same in every process. By
/// default glibc serves large blocks with fresh `mmap`s, raises that
/// threshold as such blocks are freed, and returns the heap's top to the
/// system once it is free: whether a build gets fresh pages, which fault
/// in, or reused ones then depends on the history of the process, and one
/// build's set-up time fell into modes up to 3x apart from process to
/// process. With `mmap` off and trimming off the heap only grows, and
/// memory freed is reused. Call it first thing, before any thread starts.
pub fn steady_allocator() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_MMAP_MAX: i32 = -4;
        // SAFETY: mallopt only sets glibc's allocator parameters, which is
        // sound at any time from a single thread.
        unsafe {
            mallopt(M_TRIM_THRESHOLD, i32::MAX);
            mallopt(M_MMAP_MAX, 0);
        }
    }
}

/// How long a pass runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    /// A fixed number of ops: simulated metrics repeat exactly.
    Ops(u64),
    /// A fixed host time: the op count depends on the host's speed.
    Seconds(f64),
}

/// What to measure.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// The workload.
    pub workload: Workload,
    /// Seed of the generated inputs.
    pub seed: u64,
    /// Length of the untraced pass. The traced pass runs a quarter of the
    /// ops, or, for a time budget, the last fifth of the time.
    pub budget: Budget,
    /// Run the traced pass too.
    pub trace: bool,
    /// A `--quick` run: 3 set-up builds and no warm-up. The budget is
    /// sized by the caller.
    pub quick: bool,
}

/// The simulated summary of a pass, compared exactly between passes.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct SimSummary {
    /// Ops run.
    ops: u64,
    /// Sum of simulated cycles.
    cycles: u64,
    /// 99th percentile of per-op simulated cycles.
    cycles_p99: f64,
    /// Units refused.
    refused: u64,
    /// Units attempted.
    units: u64,
    /// Ops the oracle failed.
    failed: u64,
}

/// The host's speed, read just before a measurement: what host times of
/// each kind measured next are divided by.
#[derive(Debug, Clone, Copy)]
struct Host {
    /// [`reference::scale`].
    scale: f64,
    /// `scale ^` [`Workload::host_sensitivity`] for [`HostTime::Pass`].
    pass: f64,
    /// The same for [`HostTime::TypicalOp`].
    typical_op: f64,
}

impl Host {
    fn read(workload: Workload) -> Host {
        let scale = reference::scale();
        let divisor = |what| scale.powf(workload.host_sensitivity(what));
        Host {
            scale,
            pass: divisor(HostTime::Pass),
            typical_op: divisor(HostTime::TypicalOp),
        }
    }
}

/// A run of consecutive ops, [`Workload::window_ops`] long. Its times are
/// at reference speed: raw host time divided by the host's divisor.
#[derive(Debug, Clone, Copy)]
struct Window {
    secs: f64,
    ops: u64,
    insns: u64,
    p50_ns: f64,
    /// The host just before the window.
    host: Host,
}

struct Pass {
    sim: SimSummary,
    /// The summary after the first `prefix_at` ops, when requested.
    prefix: Option<SimSummary>,
    windows: Vec<Window>,
    latency_ns: Histogram,
    elapsed_s: f64,
    insns: u64,
    frames_delta: i64,
    errors: Vec<String>,
    counters: Counters,
}

/// Rates and typical latency are medians over the pass's windows; tail
/// latency is over every op.
impl Pass {
    fn median_of(&self, f: impl Fn(&Window) -> f64) -> f64 {
        median(&self.windows.iter().map(f).collect::<Vec<_>>())
    }

    fn ops_per_s(&self) -> f64 {
        self.median_of(|w| w.ops as f64 / w.secs.max(1e-9))
    }

    fn guest_mips(&self) -> f64 {
        self.median_of(|w| w.insns as f64 / 1e6 / w.secs.max(1e-9))
    }

    fn op_p50_us(&self) -> f64 {
        self.median_of(|w| w.p50_ns / 1e3)
    }

    fn op_p99_us(&self) -> f64 {
        self.latency_ns.quantile(0.99) / 1e3
    }

    fn host_scale(&self) -> f64 {
        self.median_of(|w| w.host.scale)
    }
}

fn run_pass<W: World>(
    w: &mut W,
    t: &mut Tracer,
    budget: Budget,
    workload: Workload,
    prefix_at: Option<u64>,
) -> Pass {
    let window_ops = workload.window_ops();
    let mut sim = SimSummary::default();
    let mut prefix = None;
    let mut cycles_hist = Histogram::default();
    let mut latency_ns = Histogram::default();
    // Raw host ns, kept whole, not bucketed, so window medians are exact.
    let mut win_latency = Vec::with_capacity(window_ops as usize);
    let (mut insns, mut frames_delta) = (0u64, 0i64);
    let mut errors = Vec::new();
    let mut windows = Vec::new();
    let before = w.counters();
    let mut host = Host::read(workload);
    let start = Instant::now();
    let (mut win_start, mut win_ops, mut win_insns) = (start, 0u64, 0u64);
    let mut now = start;
    loop {
        let done = match budget {
            Budget::Ops(n) => sim.ops >= n,
            Budget::Seconds(s) => now.duration_since(start).as_secs_f64() >= s,
        };
        if prefix_at == Some(sim.ops) {
            prefix = Some(SimSummary {
                cycles_p99: cycles_hist.quantile(0.99),
                ..sim
            });
        }
        // A trailing partial window is dropped, unless the whole pass was
        // shorter than one window.
        if win_ops == window_ops || (done && windows.is_empty() && win_ops > 0) {
            windows.push(Window {
                secs: now.duration_since(win_start).as_secs_f64() / host.pass,
                ops: win_ops,
                insns: win_insns,
                p50_ns: median_mut(&mut win_latency) / host.typical_op,
                host,
            });
            if !done {
                // The next window's host; reading it takes no op's time.
                host = Host::read(workload);
                now = Instant::now();
            }
            (win_start, win_ops, win_insns) = (now, 0, 0);
            win_latency.clear();
        }
        if done {
            break;
        }
        let i = sim.ops;
        let span = t.begin_op(i);
        let result = catch_unwind(AssertUnwindSafe(|| w.op(i, t)));
        t.end_op(span);
        let end = Instant::now();
        let ns = end.duration_since(now).as_nanos() as f64;
        latency_ns.record(ns / host.pass);
        win_latency.push(ns);
        now = end;
        sim.ops += 1;
        win_ops += 1;
        match result {
            Ok(Ok(o)) => {
                sim.cycles += o.cycles;
                sim.refused += u64::from(o.refused);
                sim.units += u64::from(o.units);
                cycles_hist.record(o.cycles as f64);
                insns += o.insns;
                win_insns += o.insns;
                frames_delta += o.frames_delta;
            }
            Ok(Err(e)) => {
                sim.failed += 1;
                sim.units += 1;
                errors.push(e);
            }
            Err(panic) => {
                sim.failed += 1;
                sim.units += 1;
                let msg = panic
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| panic.downcast_ref::<&str>().map(|s| (*s).to_string()))
                    .unwrap_or_default();
                errors.push(format!("op {i} panicked: {msg}"));
            }
        }
        errors.truncate(10);
    }
    sim.cycles_p99 = cycles_hist.quantile(0.99);
    Pass {
        sim,
        prefix,
        windows,
        latency_ns,
        elapsed_s: now.duration_since(start).as_secs_f64(),
        insns,
        frames_delta,
        errors,
        counters: w.counters().minus(before),
    }
}

/// One workload's measured result.
#[derive(Debug, Clone)]
pub struct Report {
    /// The workload.
    pub workload: Workload,
    /// Seed of the generated inputs.
    pub seed: u64,
    /// 1/1000-size run.
    pub quick: bool,
    /// Ops the untraced pass ran (attempted).
    pub ops: u64,
    /// Ops the traced pass ran (0 without one).
    pub traced_ops: u64,
    /// Host seconds the untraced pass took.
    pub untraced_s: f64,
    /// Median [`reference::scale`] over the untraced pass: how much slower
    /// than nominal the host ran. Reported host times are divided by a
    /// power of it ([`Workload::host_sensitivity`]).
    pub host_scale: f64,
    /// Set-up builds timed.
    pub setup_runs: usize,
    /// CPUs the host offers.
    pub host_cpus: usize,
    /// Built without optimizations.
    pub debug_build: bool,
    /// Wall-clock start, ms since the Unix epoch.
    pub started_unix_ms: u64,
    /// Ops the oracle failed in either pass.
    pub failed: u64,
    /// The first oracle failures.
    pub errors: Vec<String>,
    /// Whether the traced pass's simulated summary equals the untraced
    /// pass's over the same ops (`None` when not compared).
    pub sim_match: Option<bool>,
    /// End-to-end metrics by name, in catalogue order.
    pub end_to_end: Vec<(&'static str, f64)>,
    /// Per-layer metrics by name, in catalogue order (empty untraced).
    pub per_layer: Vec<(&'static str, f64)>,
    /// Chrome trace-event file of the traced pass.
    pub trace: Option<String>,
}

impl Report {
    /// No op failed and the passes agree.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.sim_match != Some(false)
    }

    /// A metric by name from either list.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }
}

/// Runs the workload as configured.
///
/// # Errors
///
/// The world could not be built.
pub fn measure(cfg: &Config) -> Result<Report, String> {
    use crate::workloads::{CgiWorld, FilterWorld, FleetWorld, LifecycleWorld};
    match cfg.workload {
        Workload::Filter => measure_world::<FilterWorld>(cfg),
        Workload::Cgi => measure_world::<CgiWorld>(cfg),
        Workload::Lifecycle => measure_world::<LifecycleWorld>(cfg),
        Workload::Fleet => measure_world::<FleetWorld>(cfg),
    }
}

fn measure_world<W: World>(cfg: &Config) -> Result<Report, String> {
    let started_unix_ms = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_millis() as u64);
    let (warmup, setup_runs) = if cfg.quick {
        (0, QUICK_SETUP_RUNS)
    } else {
        (SETUP_WARMUP, SETUP_RUNS)
    };
    let mut off = Tracer::new(false);
    let mut setup_s = Vec::new();
    let mut world = None;
    let setup_sensitivity = cfg.workload.host_sensitivity(HostTime::Setup);
    for run in 0..warmup + setup_runs {
        drop(world.take());
        // The host is read just before each timed build, whose caches the
        // kernel's churn leaves cold, as a world built from nothing finds
        // them. Reads around the whole series tracked the builds poorly.
        let divisor = if run >= warmup {
            reference::scale().powf(setup_sensitivity)
        } else {
            1.0
        };
        let t0 = Instant::now();
        world = Some(W::build(cfg.seed, &mut off)?);
        if run >= warmup {
            setup_s.push(t0.elapsed().as_secs_f64() / divisor);
        }
    }
    let mut w = world.ok_or("no set-up runs")?;

    let (untraced, traced, prefix_at) = match (cfg.budget, cfg.trace) {
        (b, false) => (b, None, None),
        (Budget::Ops(n), true) => (
            Budget::Ops(n),
            Some(Budget::Ops((n / 4).max(1))),
            Some((n / 4).max(1)),
        ),
        (Budget::Seconds(s), true) => (
            Budget::Seconds(s * 0.8),
            Some(Budget::Seconds(s * 0.2)),
            None,
        ),
    };
    let un = run_pass(&mut w, &mut off, untraced, cfg.workload, prefix_at);
    let peak_rss_mib = peak_rss_mib();
    drop(w);

    let mut failed = un.sim.failed;
    let mut errors = un.errors.clone();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            let v = match m.name {
                "ops_per_s" => un.ops_per_s(),
                "op_p50_us" => un.op_p50_us(),
                "op_p99_us" => un.op_p99_us(),
                "guest_mips" => un.guest_mips(),
                "sim_cycles_per_op" => ratio(un.sim.cycles as f64, un.sim.ops),
                "sim_cycles_p99" => un.sim.cycles_p99,
                "refused_ratio" => ratio(un.sim.refused as f64, un.sim.units),
                "error_ratio" => ratio(un.sim.failed as f64, un.sim.ops),
                "setup_s" => median(&setup_s),
                "peak_rss_mib" => peak_rss_mib,
                other => unreachable!("end-to-end metric {other} has no measurement"),
            };
            (m.name, v)
        })
        .collect();

    let (mut per_layer, mut sim_match, mut trace, mut traced_ops) = (Vec::new(), None, None, 0);
    if let Some(budget) = traced {
        let mut t = Tracer::new(true);
        let mut w = W::build(cfg.seed, &mut t)?;
        let p = run_pass(&mut w, &mut t, budget, cfg.workload, None);
        failed += p.sim.failed;
        errors.extend(p.errors.iter().cloned());
        sim_match = un.prefix.map(|pre| pre == p.sim);
        per_layer = per_layer_metrics(&t, &p, &w, un.ops_per_s());
        traced_ops = p.sim.ops;
        trace = Some(t.chrome_trace());
    }
    Ok(Report {
        workload: cfg.workload,
        seed: cfg.seed,
        quick: cfg.quick,
        ops: un.sim.ops,
        traced_ops,
        untraced_s: un.elapsed_s,
        host_scale: un.host_scale(),
        setup_runs,
        host_cpus: std::thread::available_parallelism().map_or(0, |n| n.get()),
        debug_build: cfg!(debug_assertions),
        started_unix_ms,
        failed,
        errors,
        sim_match,
        end_to_end,
        per_layer,
        trace,
    })
}

fn ratio(num: f64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num / den as f64
    }
}

fn per_layer_metrics<W: World>(
    t: &Tracer,
    p: &Pass,
    w: &W,
    untraced_ops_per_s: f64,
) -> Vec<(&'static str, f64)> {
    let c = p.counters;
    let ops = p.sim.ops;
    let guest_ns: u64 = W::GUEST_SPANS
        .iter()
        .filter_map(|(l, f)| t.agg(l, f))
        .map(|a| a.busy_ns)
        .sum();
    let own = w.layer_values();
    // Spans are raw host time; bring them to reference speed like the
    // end-to-end times.
    let divisor = p.median_of(|w| w.host.pass);
    PER_LAYER
        .iter()
        .map(|m| {
            let per_time = if matches!(unit_of(m.name), Some("us" | "ns")) {
                1.0 / divisor
            } else {
                1.0
            };
            let v = match m.name {
                "x86sim.guest_insns_per_op" => ratio(p.insns as f64, ops),
                "x86sim.host_ns_per_guest_insn" => ratio(guest_ns as f64, c.insns),
                "x86sim.predecode_hit_ratio" => ratio(
                    c.predecode_hits as f64,
                    c.predecode_hits + c.predecode_misses,
                ),
                "x86sim.tlb_hit_ratio" => ratio(c.tlb_hits as f64, c.tlb_hits + c.tlb_misses),
                "x86sim.proof_served_ratio" => ratio(c.proof_served as f64, c.insns),
                "x86sim.proof_broken_per_op" => ratio(c.proof_broken as f64, ops),
                "x86sim.resident_frames" => w.resident_frames() as f64,
                "kernel.syscalls_per_op" => ratio(c.syscalls as f64, ops),
                "kernel.faults_per_op" => ratio(c.faults as f64, ops),
                "kernel.frames_leaked_per_op" => p.frames_delta as f64 / ops.max(1) as f64,
                "palladium.verified_dispatch_ratio" => {
                    ratio(c.verified_dispatches as f64, c.dispatches)
                }
                "palladium.aborts_per_kop" => ratio(c.aborts as f64 * 1e3, ops),
                "palladium.quarantines" => c.quarantines as f64,
                "palladium.supervisor_restarts" => c.restarts as f64,
                "palbench.driver_self_us" => t.mean_self_us("palbench", "op"),
                "palbench.trace_overhead" => 1.0 - p.ops_per_s() / untraced_ops_per_s,
                name => match own.iter().find(|(n, _)| *n == name) {
                    Some(&(_, v)) => v,
                    None => span_metric(t, name),
                },
            };
            (m.name, v * per_time)
        })
        .collect()
}

/// `<layer>.<func>_us` is the mean and `<layer>.<func>_p99_us` the 99th
/// percentile of the spans named (layer, func); 0 when the workload never
/// made that call.
fn span_metric(t: &Tracer, name: &str) -> f64 {
    let Some((layer, rest)) = name.split_once('.') else {
        return 0.0;
    };
    if let Some(func) = rest.strip_suffix("_p99_us") {
        t.p99_us(layer, func)
    } else if let Some(func) = rest.strip_suffix("_us") {
        t.mean_us(layer, func)
    } else {
        0.0
    }
}

/// The process's peak resident set (`VmHWM`) in MiB; 0 where `/proc` is
/// unavailable.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
