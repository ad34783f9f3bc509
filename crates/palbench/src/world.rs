//! What every workload provides: a world built from a seed, one op at a
//! time, and the public counters of the layers it drives.

use minikernel::Kernel;

use crate::trace::Tracer;

/// What one op did in simulated terms. Every field is deterministic for
/// a given seed and op index.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Outcome {
    /// Simulated cycles the op consumed.
    pub cycles: u64,
    /// Guest instructions it retired.
    pub insns: u64,
    /// Requests (or packets, or loads) the op put to the simulated system.
    pub units: u32,
    /// Of those, how many the system refused: a dropped packet, a 4xx or
    /// 503 response, a rejected load or an aborted call.
    pub refused: u32,
    /// Change in the op's world's allocated frames (its leak).
    pub frames_delta: i64,
}

macro_rules! counters {
    ($($(#[$doc:meta])* $f:ident),* $(,)?) => {
        /// Public counters of the layers a world drives, summed over the
        /// world's kernels. They only grow, so a pass reads them before
        /// and after and takes the difference.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct Counters {
            $($(#[$doc])* pub $f: u64,)*
        }

        impl Counters {
            fn zip(self, o: Counters, f: fn(u64, u64) -> u64) -> Counters {
                Counters { $($f: f(self.$f, o.$f),)* }
            }
        }
    };
}

counters! {
    /// Guest instructions retired.
    insns,
    /// Predecode-cache fetch hits.
    predecode_hits,
    /// Predecode-cache fetch misses.
    predecode_misses,
    /// TLB lookup hits.
    tlb_hits,
    /// TLB lookup misses.
    tlb_misses,
    /// Instructions served from proof tokens.
    proof_served,
    /// Proof-token runs stopped early.
    proof_broken,
    /// System calls dispatched by the kernel.
    syscalls,
    /// Faults handled by the kernel.
    faults,
    /// Aborted extension invocations (kernel and user level).
    aborts,
    /// Extension segments quarantined.
    quarantines,
    /// Supervisor restarts completed.
    restarts,
    /// Protected calls that took the verified-dispatch fast path.
    verified_dispatches,
    /// Protected calls made.
    dispatches,
}

impl Counters {
    /// The machine and kernel counters of one kernel.
    pub fn of_kernel(k: &Kernel) -> Counters {
        let pre = k.m.predecode_stats();
        let tlb = k.m.mmu.stats;
        let proof = k.m.proof_stats();
        Counters {
            insns: k.m.insns(),
            predecode_hits: pre.hits,
            predecode_misses: pre.misses,
            tlb_hits: tlb.hits,
            tlb_misses: tlb.misses,
            proof_served: proof.served,
            proof_broken: proof.broken,
            syscalls: k.stats.syscalls,
            faults: k.stats.faults,
            ..Counters::default()
        }
    }

    /// Field-wise sum (wrapping: carries may be negative in between).
    #[must_use]
    pub fn plus(self, o: Counters) -> Counters {
        self.zip(o, u64::wrapping_add)
    }

    /// Field-wise difference (wrapping).
    #[must_use]
    pub fn minus(self, o: Counters) -> Counters {
        self.zip(o, u64::wrapping_sub)
    }
}

/// One workload's world.
pub trait World: Sized {
    /// Spans inside which the world's guest code runs; their busy time
    /// per guest instruction is `x86sim.host_ns_per_guest_insn`.
    const GUEST_SPANS: &'static [(&'static str, &'static str)];

    /// Builds the world from nothing for `seed`: boot, assemble or
    /// compile, verify, load and warm.
    ///
    /// # Errors
    ///
    /// Any set-up failure; the benchmark cannot run without its world.
    fn build(seed: u64, t: &mut Tracer) -> Result<Self, String>;

    /// Runs op `i` and checks it against the workload's oracle.
    ///
    /// # Errors
    ///
    /// A result the oracle disagrees with, or an error it did not expect.
    fn op(&mut self, i: u64, t: &mut Tracer) -> Result<Outcome, String>;

    /// The counters of every layer the world drives, including those of
    /// worlds it has replaced since it was built.
    fn counters(&self) -> Counters;

    /// Host frames backing the world's simulated memory right now.
    fn resident_frames(&self) -> u64;

    /// Per-layer values only this workload can compute, by metric name,
    /// for the ops run since the world was built.
    fn layer_values(&self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
}

/// Host frames backing one kernel's machine.
pub fn resident(k: &Kernel) -> u64 {
    k.m.mem.resident_frames() as u64
}

/// Frames allocated in one kernel.
pub fn frames_in_use(k: &Kernel) -> i64 {
    i64::from(k.frames.in_use())
}
