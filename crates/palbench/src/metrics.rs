//! The metric catalogue: every end-to-end and per-layer metric the
//! benchmark reports, with its unit and direction. `BENCHMARK.json` at
//! the repository root declares the same lists (a test keeps them equal).

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// `"higher"` or `"lower"`.
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// How a metric is measured, which decides how two runs compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Host time or memory: noisy, compared by medians against a bound.
    Host,
    /// Simulated or counted: deterministic per seed and op count, so two
    /// runs of one program compare exactly.
    Exact,
}

/// One end-to-end metric.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Host or exact.
    pub kind: Kind,
    /// Share of the base median by which the metric may worsen before a
    /// change counts as a regression (host metrics; exact metrics regress
    /// on any worsening when the seed and op counts match).
    pub bound: f64,
    /// Declared in `BENCHMARK.json`. `error_ratio` is not: it is 0 on every
    /// correct run; the one-line result carries failures as `failed`.
    pub declared: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    kind: Kind,
    bound: f64,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        kind,
        bound,
        declared: true,
    }
}

/// The end-to-end metrics, measured on the untraced pass.
pub const END_TO_END: [EndToEnd; 10] = [
    e2e("ops_per_s", "1/s", Better::Higher, Kind::Host, 0.2),
    e2e("op_p50_us", "us", Better::Lower, Kind::Host, 0.2),
    e2e("op_p99_us", "us", Better::Lower, Kind::Host, 0.24),
    e2e("guest_mips", "MIPS", Better::Higher, Kind::Host, 0.2),
    e2e(
        "sim_cycles_per_op",
        "cycles",
        Better::Lower,
        Kind::Exact,
        0.02,
    ),
    e2e("sim_cycles_p99", "cycles", Better::Lower, Kind::Exact, 0.02),
    e2e("refused_ratio", "ratio", Better::Lower, Kind::Exact, 0.2),
    EndToEnd {
        declared: false,
        ..e2e("error_ratio", "ratio", Better::Lower, Kind::Exact, 0.0)
    },
    e2e("setup_s", "s", Better::Lower, Kind::Host, 0.25),
    e2e("peak_rss_mib", "MiB", Better::Lower, Kind::Host, 0.2),
];

/// One per-layer metric, from the traced pass.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Metric name: `<layer>.<what>`, the layer being the crate.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// The end-to-end metric(s) and workload(s) it should move.
    pub moves: &'static str,
}

const fn pl(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher, Lower};

/// The per-layer metrics. A workload that never reaches a layer reports
/// 0 for it.
pub const PER_LAYER: [PerLayer; 52] = [
    pl(
        "asm86.assemble_us",
        "us",
        Lower,
        "setup_s on cgi, lifecycle, fleet",
    ),
    pl("netfilter.compile_us", "us", Lower, "setup_s on filter"),
    pl(
        "netfilter.accept_ratio",
        "ratio",
        Higher,
        "sim_cycles_per_op on filter",
    ),
    pl(
        "verifier.verify_us",
        "us",
        Lower,
        "setup_s on filter; ops_per_s on lifecycle",
    ),
    pl(
        "verifier.reject_ratio",
        "ratio",
        Lower,
        "refused_ratio on lifecycle",
    ),
    pl(
        "x86sim.guest_insns_per_op",
        "count",
        Lower,
        "guest_mips, ops_per_s on filter",
    ),
    pl(
        "x86sim.host_ns_per_guest_insn",
        "ns",
        Lower,
        "guest_mips, ops_per_s on filter",
    ),
    pl(
        "x86sim.predecode_hit_ratio",
        "ratio",
        Higher,
        "guest_mips on filter and lifecycle",
    ),
    pl(
        "x86sim.tlb_hit_ratio",
        "ratio",
        Higher,
        "sim_cycles_per_op on lifecycle and fleet",
    ),
    pl(
        "x86sim.proof_served_ratio",
        "ratio",
        Higher,
        "guest_mips on filter",
    ),
    pl(
        "x86sim.proof_broken_per_op",
        "count",
        Lower,
        "guest_mips on filter",
    ),
    pl(
        "x86sim.resident_frames",
        "frames",
        Lower,
        "peak_rss_mib on fleet",
    ),
    pl("x86sim.image_bytes", "bytes", Lower, "op_p99_us on fleet"),
    pl("x86sim.save_image_us", "us", Lower, "op_p99_us on fleet"),
    pl("x86sim.restore_image_us", "us", Lower, "op_p99_us on fleet"),
    pl(
        "kernel.syscalls_per_op",
        "count",
        Lower,
        "sim_cycles_per_op, refused_ratio on lifecycle and fleet",
    ),
    pl(
        "kernel.faults_per_op",
        "count",
        Lower,
        "sim_cycles_per_op, refused_ratio on lifecycle and fleet",
    ),
    pl(
        "kernel.frames_leaked_per_op",
        "frames",
        Lower,
        "peak_rss_mib on lifecycle",
    ),
    pl("kernel.save_image_us", "us", Lower, "op_p99_us on fleet"),
    pl("kernel.restore_image_us", "us", Lower, "op_p99_us on fleet"),
    pl(
        "palladium.invoke_us",
        "us",
        Lower,
        "op_p50_us, ops_per_s on filter",
    ),
    pl(
        "palladium.invoke_p99_us",
        "us",
        Lower,
        "op_p99_us on filter",
    ),
    pl(
        "palladium.verified_dispatch_ratio",
        "ratio",
        Higher,
        "op_p50_us, ops_per_s on filter",
    ),
    pl(
        "palladium.seg-paging.dlopen_us",
        "us",
        Lower,
        "ops_per_s, op_p99_us on lifecycle",
    ),
    pl(
        "palladium.seg-paging.dlsym_us",
        "us",
        Lower,
        "ops_per_s, op_p99_us on lifecycle",
    ),
    pl(
        "palladium.seg-paging.call_us",
        "us",
        Lower,
        "ops_per_s, op_p99_us on lifecycle",
    ),
    pl(
        "palladium.seg-paging.dlclose_us",
        "us",
        Lower,
        "ops_per_s, op_p99_us on lifecycle",
    ),
    pl(
        "palladium.prot-keys.dlopen_us",
        "us",
        Lower,
        "ops_per_s, op_p99_us on lifecycle",
    ),
    pl(
        "palladium.prot-keys.dlsym_us",
        "us",
        Lower,
        "ops_per_s, op_p99_us on lifecycle",
    ),
    pl(
        "palladium.prot-keys.call_us",
        "us",
        Lower,
        "ops_per_s, op_p99_us on lifecycle",
    ),
    pl(
        "palladium.prot-keys.dlclose_us",
        "us",
        Lower,
        "ops_per_s, op_p99_us on lifecycle",
    ),
    pl(
        "palladium.sfi.dlopen_us",
        "us",
        Lower,
        "ops_per_s, op_p99_us on lifecycle",
    ),
    pl(
        "palladium.sfi.dlsym_us",
        "us",
        Lower,
        "ops_per_s, op_p99_us on lifecycle",
    ),
    pl(
        "palladium.sfi.call_us",
        "us",
        Lower,
        "ops_per_s, op_p99_us on lifecycle",
    ),
    pl(
        "palladium.sfi.dlclose_us",
        "us",
        Lower,
        "ops_per_s, op_p99_us on lifecycle",
    ),
    pl(
        "palladium.session_fork_us",
        "us",
        Lower,
        "ops_per_s on lifecycle",
    ),
    pl(
        "palladium.aborts_per_kop",
        "count",
        Lower,
        "refused_ratio on fleet",
    ),
    pl(
        "palladium.quarantines",
        "count",
        Lower,
        "refused_ratio on fleet",
    ),
    pl(
        "palladium.supervisor_restarts",
        "count",
        Lower,
        "refused_ratio on fleet",
    ),
    pl("webserver.handle_us", "us", Lower, "op_p50_us on cgi"),
    pl("webserver.handle_p99_us", "us", Lower, "op_p99_us on cgi"),
    pl(
        "webserver.parse_us",
        "us",
        Lower,
        "op_p50_us, op_p99_us on cgi",
    ),
    pl("webserver.log_drain_us", "us", Lower, "op_p99_us on cgi"),
    pl("fleet.serve_round_us", "us", Lower, "op_p50_us on fleet"),
    pl(
        "fleet.serve_round_p99_us",
        "us",
        Lower,
        "op_p50_us on fleet",
    ),
    pl(
        "fleet.checkpoint_us",
        "us",
        Lower,
        "op_p99_us, ops_per_s on fleet",
    ),
    pl(
        "fleet.checkpoint_p99_us",
        "us",
        Lower,
        "op_p99_us, ops_per_s on fleet",
    ),
    pl(
        "fleet.checkpoint_bytes",
        "bytes",
        Lower,
        "op_p99_us, ops_per_s on fleet",
    ),
    pl(
        "fleet.restore_us",
        "us",
        Lower,
        "op_p99_us, ops_per_s on fleet",
    ),
    pl(
        "fleet.audit_us",
        "us",
        Lower,
        "op_p99_us, ops_per_s on fleet",
    ),
    pl(
        "palbench.driver_self_us",
        "us",
        Lower,
        "op time on every workload (keep under 10%)",
    ),
    pl(
        "palbench.trace_overhead",
        "ratio",
        Lower,
        "none: 1 - traced/untraced ops_per_s",
    ),
];

/// The unit of a metric by name, from either list.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, u)| u)
}
