//! The four workloads. Each is a closed loop: one in-process client with
//! no think time, driving the simulator as fast as it goes.

mod cgi;
mod filter;
mod fleet;
mod lifecycle;

pub use cgi::CgiWorld;
pub use filter::FilterWorld;
pub use fleet::FleetWorld;
pub use lifecycle::LifecycleWorld;

/// A workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Figure 7: compiled packet filters in verified kernel segments.
    Filter,
    /// Table 3: protected CGI requests.
    Cgi,
    /// Load / resolve / call / unload on every isolation backend.
    Lifecycle,
    /// Replica rounds with checkpoints, crashes and restores.
    Fleet,
}

/// Kinds of host time, which a busy host slows by different amounts
/// ([`Workload::host_sensitivity`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostTime {
    /// The pass as a whole: window rates, and each op's time for the tail.
    Pass,
    /// The typical op: window medians.
    TypicalOp,
    /// One build of the world.
    Setup,
}

impl Workload {
    /// Every workload, in run order.
    pub const ALL: [Workload; 4] = [
        Workload::Filter,
        Workload::Cgi,
        Workload::Lifecycle,
        Workload::Fleet,
    ];

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Filter => "filter",
            Workload::Cgi => "cgi",
            Workload::Lifecycle => "lifecycle",
            Workload::Fleet => "fleet",
        }
    }

    /// The workload called `name`.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Ops of the untraced pass in a full run, calibrated so the pass
    /// takes about 28 s on a 2-CPU 2.1 GHz x86-64 host.
    pub fn ops(self) -> u64 {
        match self {
            Workload::Filter => 5_000_000,
            Workload::Cgi => 8_500_000,
            Workload::Lifecycle => 1_100_000,
            Workload::Fleet => 9_000,
        }
    }

    /// Ops per measurement window (about 0.2 s each). Fleet's window is
    /// its crash period, so every window holds the same mix of rounds,
    /// checkpoints and restores.
    pub fn window_ops(self) -> u64 {
        match self {
            Workload::Filter => 32_768,
            Workload::Cgi => 65_536,
            Workload::Lifecycle => 8_192,
            Workload::Fleet => fleet::CRASH_EVERY,
        }
    }

    /// How closely the workload's host time `what` follows the reference
    /// kernel's ([`crate::reference`]): while the kernel runs `k` times
    /// slower than nominal, that time grows about `k^sensitivity` times,
    /// so it is divided by that. Each value is the exponent that made the
    /// run-to-run spread of its metric smallest, over 8 (passes) or 40
    /// (set-ups) runs per workload on a 2-CPU 2.1 GHz x86-64 host shared
    /// with other tenants. Fleet's ops differ: most are rounds of guest
    /// code, which follow the kernel as filter does, but its host time
    /// goes mostly to the image copies of the few that checkpoint or
    /// restore, which follow it less.
    pub fn host_sensitivity(self, what: HostTime) -> f64 {
        match (self, what) {
            (Workload::Cgi, HostTime::Setup) => 1.75,
            (_, HostTime::Setup) => 1.5,
            (Workload::Fleet, HostTime::Pass) => 0.5,
            (Workload::Fleet, HostTime::TypicalOp) => 0.9,
            (Workload::Filter, _) => 0.9,
            (Workload::Cgi, _) => 1.4,
            (Workload::Lifecycle, _) => 1.2,
        }
    }

    /// Ops of the untraced pass at `--quick` size: 1/1000 of a full run,
    /// but enough for fleet's periodic crash and leak audit to happen.
    pub fn quick_ops(self) -> u64 {
        (self.ops() / 1000).max(512)
    }
}
