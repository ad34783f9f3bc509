//! The seeded campaign driver.
//!
//! A campaign is a deterministic fuzzing loop: from one `u64` seed it
//! derives every extension body, every corruption, every injection and
//! every scheduling choice, so a failing step can be replayed exactly by
//! re-running the seed. Steps are grouped into *episodes*, each on a
//! freshly booted kernel (bounding state growth and making out-of-memory
//! episodes possible); within an episode the kernel is long-lived so
//! faults, quarantines and injections interact.
//!
//! Episodes are also the campaign's unit of parallelism: episode *i*
//! draws from the positional stream `SeedRng::stream(seed, i)` and owns
//! a private kernel, so [`CampaignConfig::jobs`] can fan episodes across
//! a [`parex::Pool`] with the reports merged back in episode order.
//! The report is byte-identical for every `jobs` value — the
//! determinism suite asserts `jobs = 1` against `jobs = 8`.
//!
//! After every step the [`StateOracle`]
//! re-checks the structural §6 invariants; at intervals the behavioural
//! probes (fork/exec, syscall rejection, timer abort) run on scratch
//! kernels, and the durability probe checkpoints the episode's own
//! kernel, asserts the image round-trips, and asserts every corruption
//! class is rejected. Any violation — including a host panic, which the
//! driver catches — fails the audit.

use std::collections::BTreeMap;
use std::panic::{self, AssertUnwindSafe};

use minikernel::Kernel;
use palladium::backend::BackendKind;
use palladium::kernel_ext::{ExtSegmentId, KernelExtensions, KextError, SegmentConfig};
use palladium::supervisor::{RestartPolicy, SupervisedId, SupervisedState, Supervisor};
use palladium::user_ext::{DlopenOptions, ExtCallError, ExtensibleApp};
use seedrng::SeedRng;
use x86sim::mem::PAGE_SIZE;

use crate::corrupt;
use crate::gen;
use crate::inject;
use crate::oracle::{self, StateOracle};

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Master seed; the entire campaign is a function of it.
    pub seed: u64,
    /// Total adversarial steps.
    pub steps: u32,
    /// Steps per episode (per freshly booted kernel).
    pub episode_len: u32,
    /// CPU-time limit per extension invocation (kept low so runaway
    /// steps stay cheap).
    pub cycle_limit: u64,
    /// Run the behavioural probes every this many steps (0 = never).
    pub probe_interval: u32,
    /// Enable the simulator's predecoded-instruction fast path in the
    /// episode kernels. Host-performance knob only: the event log is
    /// identical either way (asserted by the determinism tests); the
    /// throughput benchmark flips it to measure the speedup.
    pub predecode: bool,
    /// Worker threads to fan episodes across (1 = run them inline, in
    /// order, on the calling thread). Any value yields a byte-identical
    /// report: episodes draw from positional per-episode RNG streams and
    /// the per-episode results are merged in episode order.
    pub jobs: usize,
    /// Boot each (non-OOM) episode by forking one warmed template world
    /// (copy-on-write frames) instead of a cold `Kernel::boot` per
    /// episode. Host-performance knob only: a forked world is
    /// byte-identical to the cold boot it replaces, so the report is the
    /// same either way (asserted by the differential suite and the CI
    /// byte-compare). Out-of-memory episodes always cold-boot — their
    /// bounded pool is part of the scenario.
    pub fork_boot: bool,
    /// Isolation backend for the user-level extension loads. The
    /// adversarial corpus is backend-agnostic (objects the backend's
    /// loader refuses are structured `dlopen-*-err` outcomes, not
    /// violations), and every violation is tagged with the active
    /// backend so cross-backend audits attribute findings correctly.
    pub backend: BackendKind,
}

impl Default for CampaignConfig {
    fn default() -> CampaignConfig {
        CampaignConfig {
            seed: 1,
            steps: 1_000,
            episode_len: 25,
            cycle_limit: 20_000,
            probe_interval: 500,
            predecode: true,
            jobs: 1,
            fork_boot: true,
            backend: BackendKind::SegPaging,
        }
    }
}

/// One logged step. Same seed ⇒ identical event sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Global step number.
    pub step: u32,
    /// What the driver did (stable tag).
    pub action: String,
    /// What happened (stable tag derived from the structured result).
    pub outcome: String,
}

/// Campaign results.
#[derive(Debug, Clone, Default)]
pub struct CampaignReport {
    /// Steps executed.
    pub steps_run: u32,
    /// The full deterministic event log.
    pub events: Vec<Event>,
    /// Outcome-tag histogram.
    pub outcomes: BTreeMap<String, u64>,
    /// Containment-invariant violations (must be empty for a passing
    /// audit). Host panics are recorded here too.
    pub violations: Vec<String>,
    /// Automatic segment quarantines observed.
    pub quarantines: u64,
    /// Kernel-extension aborts observed.
    pub kext_aborts: u64,
    /// User-extension aborted calls observed.
    pub uext_aborts: u64,
    /// Behavioural probe rounds completed.
    pub probes_run: u32,
    /// Steps that panicked in the host and were caught.
    pub host_panics: u32,
    /// Supervised segment restarts performed (replaces the old ad-hoc
    /// respawn; each one transactionally reclaims the dead segment).
    pub restarts: u64,
    /// Kernel pages reclaimed by those restarts.
    pub pages_reclaimed: u64,
    /// Total guest instructions retired across all episodes (the
    /// throughput benchmark's work metric).
    pub guest_insns: u64,
}

const CANARY: u32 = 0xC0FF_EE11;

/// The per-episode world: one kernel hosting both extension mechanisms.
///
/// `Clone` forks the whole world copy-on-write ([`Kernel`]'s clone):
/// non-OOM episodes clone one warmed template instead of cold-booting,
/// and resume byte-identically to the cold boot they replace.
#[derive(Clone)]
struct Episode {
    k: Kernel,
    app: ExtensibleApp,
    kx: KernelExtensions,
    /// Supervisor for the adversarial kernel segment: restarts are
    /// immediate (no backoff) so the campaign's step cadence is
    /// unchanged, but every replacement goes through the transactional
    /// reclaim path and the leak audit.
    sup: Supervisor,
    sup_id: SupervisedId,
    seg: ExtSegmentId,
    oracle: StateOracle,
    /// Load options for user-level extensions (carries the campaign's
    /// isolation backend).
    uopts: DlopenOptions,
    /// Prepared user extension entry points that loaded successfully.
    user_pool: Vec<u32>,
    /// The known-good extension (must keep returning 77).
    benign_fn: u32,
    /// Whether the current kernel segment has a registered `entry`.
    kext_loaded: bool,
    /// Sealed GOT page of the libc-importing probe extension, once
    /// loaded (lazily, since it costs pages).
    got_page: Option<u32>,
    module_n: u32,
}

impl Episode {
    /// Builds a fresh world. `pool_bytes` bounds physical memory for
    /// out-of-memory episodes (`None` = the full default pool).
    fn new(cfg: &CampaignConfig, pool_bytes: Option<u32>) -> Result<Episode, String> {
        let mut k = match pool_bytes {
            Some(b) => Kernel::boot_with_memory(b),
            None => Kernel::boot(),
        };
        k.extension_cycle_limit = cfg.cycle_limit;
        k.m.set_predecode(cfg.predecode);
        let mut app = ExtensibleApp::new(&mut k).map_err(|e| format!("app: {e}"))?;
        let mut kx = KernelExtensions::new(&mut k).map_err(|e| format!("kx: {e}"))?;
        let mut sup = Supervisor::new(RestartPolicy::immediate());
        let sup_id = sup
            .install(&mut k, &mut kx, 16, SegmentConfig::default(), Vec::new())
            .map_err(|e| format!("segment: {e}"))?;
        let seg = sup.segment(sup_id);
        let canary = k
            .alloc_kernel_pages(1)
            .map_err(|e| format!("canary: {e}"))?;
        k.m.host_write_u32(canary, CANARY);
        let oracle = StateOracle::new(&k, canary, CANARY);
        let uopts = DlopenOptions::new().backend(cfg.backend);
        let h = app
            .dlopen(&mut k, &gen::benign_object(77), &uopts)
            .map_err(|e| format!("benign: {e}"))?;
        let benign_fn = app
            .seg_dlsym(&mut k, h, "entry")
            .map_err(|e| format!("benign sym: {e}"))?;
        Ok(Episode {
            k,
            app,
            kx,
            sup,
            sup_id,
            seg,
            oracle,
            uopts,
            user_pool: Vec::new(),
            benign_fn,
            kext_loaded: false,
            got_page: None,
            module_n: 0,
        })
    }

    fn cr3(&self) -> u32 {
        self.k.task(self.app.tid).cr3
    }

    /// Retires the current kernel segment through the supervisor —
    /// transactional reclaim of its pages, descriptors and queue — and
    /// brings up the replacement. Errors if the restart itself fails
    /// (only possible under memory pressure).
    fn respawn_segment(&mut self) -> Result<(), KextError> {
        if !self.kx.segment(self.seg).dead {
            self.kx.destroy_segment(&mut self.k, self.seg);
        }
        self.sup
            .notify_death(&mut self.k, &mut self.kx, self.sup_id);
        self.kext_loaded = false;
        match self.sup.poll(&mut self.k, &mut self.kx, self.sup_id) {
            SupervisedState::Running => {
                self.seg = self.sup.segment(self.sup_id);
                Ok(())
            }
            SupervisedState::Backoff { .. } | SupervisedState::Tombstoned => {
                Err(KextError::SegmentDead)
            }
        }
    }

    /// Replaces a quarantined/dead kernel segment with a fresh one.
    fn ensure_segment(&mut self) -> Result<(), KextError> {
        let s = self.kx.segment(self.seg);
        if s.quarantined || s.dead {
            self.respawn_segment()?;
        }
        Ok(())
    }

    fn insmod_entry(&mut self, obj: &asm86::Object) -> Result<(), KextError> {
        self.ensure_segment()?;
        self.module_n += 1;
        let name = format!("m{}", self.module_n);
        match self
            .kx
            .insmod(&mut self.k, self.seg, &name, obj, &["entry"])
        {
            Ok(()) => {
                self.kext_loaded = true;
                Ok(())
            }
            Err(KextError::OutOfMemory) => {
                // The bump loader filled the segment: retire it through
                // the supervisor and retry once in the replacement.
                self.respawn_segment()?;
                let r = self
                    .kx
                    .insmod(&mut self.k, self.seg, &name, obj, &["entry"]);
                if r.is_ok() {
                    self.kext_loaded = true;
                }
                r
            }
            Err(e) => Err(e),
        }
    }
}

fn uext_outcome(r: &Result<u32, ExtCallError>) -> String {
    match r {
        Ok(_) => "uext-ok".into(),
        Err(ExtCallError::Fault { cause, .. }) => {
            format!("uext-fault:{}", cause.map(|c| c.tag()).unwrap_or("?"))
        }
        Err(ExtCallError::TimeLimit) => "uext-timelimit".into(),
        Err(ExtCallError::Killed(_)) => "uext-killed".into(),
    }
}

fn kext_outcome(r: &Result<u32, KextError>) -> String {
    match r {
        Ok(_) => "kext-ok".into(),
        Err(KextError::Aborted(f)) => format!("kext-fault:{}", f.cause.tag()),
        Err(KextError::TimeLimit) => "kext-timelimit".into(),
        Err(KextError::Quarantined { .. }) => "kext-quarantined".into(),
        Err(KextError::SegmentDead) => "kext-dead".into(),
        Err(KextError::NoSuchFunction(_)) => "kext-nofunc".into(),
        Err(KextError::OutOfMemory) => "kext-oom".into(),
        Err(KextError::Link(_)) => "kext-link-err".into(),
        Err(KextError::Verify(_)) => "kext-verify-err".into(),
    }
}

fn dl_outcome(e: &palladium::Error) -> String {
    use palladium::Error;
    match e {
        Error::Spawn(_) => "dlopen-oom".into(),
        Error::Dl(_) | Error::Link(_) => "dlopen-link-err".into(),
        Error::NoSymbol(_) => "dlopen-nosym".into(),
        Error::Kernel(..) => "dlopen-kernel-err".into(),
        Error::Closed => "dlopen-closed".into(),
        Error::Verify(_) => "dlopen-verify-err".into(),
        Error::Sfi(_) => "dlopen-sfi-err".into(),
        // The user-level runtime returns none of the other variants.
        _ => "dlopen-other".into(),
    }
}

/// One adversarial step. Returns the (action, outcome) tags.
fn step(ep: &mut Episode, r: &mut SeedRng) -> (String, String) {
    match r.gen_range(0, 13) {
        // --- adversarial SPL 3 extension: load and run -------------------
        0..=2 => {
            let obj = gen::user_ext_object(r);
            match ep.app.dlopen(&mut ep.k, &obj, &ep.uopts) {
                Ok(h) => match ep.app.seg_dlsym(&mut ep.k, h, "entry") {
                    Ok(f) => {
                        ep.user_pool.push(f);
                        let res = ep.app.call_extension(&mut ep.k, f, r.next_u32());
                        ("uext-new".into(), uext_outcome(&res))
                    }
                    Err(e) => ("uext-new".into(), dl_outcome(&e)),
                },
                Err(e) => ("uext-new".into(), dl_outcome(&e)),
            }
        }
        // --- adversarial SPL 1 kernel extension --------------------------
        3..=4 => {
            let obj = gen::kernel_ext_object(r);
            match ep.insmod_entry(&obj) {
                Ok(()) => {
                    let res = ep.kx.invoke(&mut ep.k, ep.seg, "entry", r.next_u32());
                    ("kext-new".into(), kext_outcome(&res))
                }
                Err(e) => ("kext-new".into(), kext_outcome(&Err(e))),
            }
        }
        // --- replay a previously loaded user extension -------------------
        5 => match ep.user_pool.as_slice() {
            [] => ("uext-replay".into(), "empty-pool".into()),
            pool => {
                let f = *r.choose(pool);
                let res = ep.app.call_extension(&mut ep.k, f, r.next_u32());
                ("uext-replay".into(), uext_outcome(&res))
            }
        },
        // --- corrupted loader input --------------------------------------
        6 => {
            let (kind, obj) = corrupt::corrupted_object(r);
            let action = format!("corrupt-{}", kind.tag());
            if r.gen_bool(0.5) {
                match ep.app.dlopen(&mut ep.k, &obj, &ep.uopts) {
                    Ok(h) => match ep.app.seg_dlsym(&mut ep.k, h, "entry") {
                        Ok(f) => {
                            let res = ep.app.call_extension(&mut ep.k, f, 0);
                            (action, uext_outcome(&res))
                        }
                        Err(e) => (action, dl_outcome(&e)),
                    },
                    Err(e) => (action, dl_outcome(&e)),
                }
            } else {
                match ep.insmod_entry(&obj) {
                    Ok(()) => {
                        let res = ep.kx.invoke(&mut ep.k, ep.seg, "entry", 0);
                        (action, kext_outcome(&res))
                    }
                    Err(e) => (action, kext_outcome(&Err(e))),
                }
            }
        }
        // --- GOT tamper ---------------------------------------------------
        7 => {
            if ep.got_page.is_none() {
                // Lazily load a libc importer so there is a sealed GOT.
                let got = ep.app.load_libc(&mut ep.k).ok().and_then(|_| {
                    let probe = asm86::Assembler::assemble("entry:\ncall strlen\nret\n").unwrap();
                    let h = ep.app.dlopen(&mut ep.k, &probe, &ep.uopts).ok()?;
                    ep.app.got_page(h).ok().flatten()
                });
                if let Some(g) = got {
                    ep.oracle.watch_got_page(g);
                    ep.got_page = Some(g);
                }
            }
            match ep.got_page {
                None => ("got-tamper".into(), "no-got".into()),
                Some(g) => {
                    let target = g + r.gen_range(0, PAGE_SIZE) / 4 * 4;
                    let obj = gen::store_to_object(target);
                    match ep.app.dlopen(&mut ep.k, &obj, &ep.uopts) {
                        Ok(h) => match ep.app.seg_dlsym(&mut ep.k, h, "entry") {
                            Ok(f) => {
                                let res = ep.app.call_extension(&mut ep.k, f, 0);
                                ("got-tamper".into(), uext_outcome(&res))
                            }
                            Err(e) => ("got-tamper".into(), dl_outcome(&e)),
                        },
                        Err(e) => ("got-tamper".into(), dl_outcome(&e)),
                    }
                }
            }
        }
        // --- descriptor injection: revoke, invoke, restore ----------------
        8 => {
            if !ep.kext_loaded {
                return ("inject-descriptor".into(), "no-kext".into());
            }
            let s = ep.kx.segment(ep.seg);
            let idx = if r.gen_bool(0.5) {
                s.code_sel.index()
            } else {
                s.data_sel.index()
            };
            let was = inject::revoke_descriptor(&mut ep.k, idx);
            let res = ep.kx.invoke(&mut ep.k, ep.seg, "entry", 1);
            if let Some(p) = was {
                inject::restore_descriptor(&mut ep.k, idx, p);
            }
            ("inject-descriptor".into(), kext_outcome(&res))
        }
        // --- PTE injection: unmap a segment page, invoke, restore ---------
        9 => {
            if !ep.kext_loaded {
                return ("inject-pte".into(), "no-kext".into());
            }
            let s = ep.kx.segment(ep.seg);
            let lin = s.base + r.gen_range(0, s.size / PAGE_SIZE) * PAGE_SIZE;
            let cr3 = ep.cr3();
            let revoked = inject::revoke_pte(&mut ep.k, cr3, lin);
            let res = ep.kx.invoke(&mut ep.k, ep.seg, "entry", 2);
            if revoked {
                inject::restore_pte(&mut ep.k, cr3, lin);
            }
            ("inject-pte".into(), kext_outcome(&res))
        }
        // --- TLB drop: pure performance event; behaviour must not change --
        10 => {
            let dropped = inject::drop_tlb_entries(&mut ep.k, r);
            let res = ep.app.call_extension(&mut ep.k, ep.benign_fn, 0);
            let tag = match res {
                Ok(77) => format!("tlb-drop-{}-ok", dropped.min(9)),
                other => format!("tlb-drop-bad:{}", uext_outcome(&other)),
            };
            ("inject-tlb".into(), tag)
        }
        // --- analysis adversaries and provable-loop modules ---------------
        // Aimed at the verifier's interval/loop pipeline rather than the
        // hardware: each hand-written adversary must be rejected at load
        // or contained at runtime, and the provable-loop modules keep the
        // proof-elided dispatch path under campaign fire.
        11 => {
            if ep.ensure_segment().is_err() {
                return ("kext-analysis".into(), "no-segment".into());
            }
            let (action, obj) = if r.gen_bool(0.5) {
                let mut advs = gen::analysis_adversaries(ep.kx.segment(ep.seg).size);
                let i = r.gen_range(0, advs.len() as u32) as usize;
                let (name, obj) = advs.swap_remove(i);
                (format!("kext-adversary:{name}"), obj)
            } else {
                ("kext-loopy".to_string(), gen::loopy_kernel_ext_object(r))
            };
            match ep.insmod_entry(&obj) {
                Ok(()) => {
                    let res = ep.kx.invoke(&mut ep.k, ep.seg, "entry", r.next_u32());
                    (action, kext_outcome(&res))
                }
                Err(e) => (action, kext_outcome(&Err(e))),
            }
        }
        // --- async queue under fire ---------------------------------------
        _ => {
            if !ep.kext_loaded {
                return ("kext-async".into(), "no-kext".into());
            }
            let n = 2 + r.gen_range(0, 3);
            for i in 0..n {
                ep.kx.queue_async(ep.seg, "entry", i);
            }
            let results = ep.kx.run_pending(&mut ep.k, ep.seg);
            let tags: Vec<String> = results.iter().map(kext_outcome).collect();
            ("kext-async".into(), tags.join(","))
        }
    }
}

/// One episode's slice of the report, merged in episode order by
/// [`run`].
#[derive(Debug, Default)]
struct EpisodeOutput {
    events: Vec<Event>,
    outcomes: BTreeMap<String, u64>,
    violations: Vec<String>,
    steps_run: u32,
    probes_run: u32,
    host_panics: u32,
    quarantines: u64,
    kext_aborts: u64,
    uext_aborts: u64,
    restarts: u64,
    pages_reclaimed: u64,
    guest_insns: u64,
}

/// Runs episode `episode_idx` over global steps `start..start + len`.
///
/// Everything the episode does is a function of `(cfg, episode_idx)`
/// alone: its RNG is the positional stream `stream(cfg.seed, idx)`, its
/// kernel is freshly booted — or forked from `template`, a world built
/// by the very same `Episode::new(cfg, None)` and therefore
/// byte-identical to that cold boot — and it never observes another
/// episode. That is what lets [`run`] execute episodes on any worker in
/// any order and still merge a byte-identical report.
fn run_episode(
    cfg: &CampaignConfig,
    template: Option<&Episode>,
    episode_idx: u32,
    start: u32,
    len: u32,
) -> EpisodeOutput {
    let mut out = EpisodeOutput::default();
    let mut rng = SeedRng::stream(cfg.seed, u64::from(episode_idx));

    // Every sixth episode runs under memory pressure: a bounded pool,
    // further squeezed below so allocation failures surface mid-campaign
    // ("OOM at touch"). OOM episodes never fork — the bounded pool is
    // part of the scenario.
    let oom = episode_idx % 6 == 5;
    let pool = if oom { Some(4 * 1024 * 1024) } else { None };
    let built = match (oom, template) {
        (false, Some(t)) => Ok(t.clone()),
        _ => Episode::new(cfg, pool),
    };
    let mut episode = match built {
        Ok(mut ep) => {
            if oom {
                let keep = rng.gen_range(0, 48);
                inject::exhaust_frames(&mut ep.k, keep);
            }
            Some(ep)
        }
        Err(e) => {
            // Setup can only fail under memory pressure; that is itself a
            // structured outcome, not a violation.
            out.events.push(Event {
                step: start,
                action: "episode-setup".into(),
                outcome: format!("failed:{e}"),
            });
            None
        }
    };

    for stepno in start..start + len {
        let Some(ep) = episode.as_mut() else {
            *out.outcomes.entry("skipped-no-episode".into()).or_insert(0) += 1;
            out.steps_run += 1;
            continue;
        };

        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            let (action, outcome) = step(ep, &mut rng);
            let mut violations = ep.oracle.check(&ep.k, ep.cr3());
            // Recovery invariant: supervised restarts must leave the
            // resource ledgers balanced after every step.
            violations.extend(oracle::check_recovery(&ep.k, &ep.kx));
            (action, outcome, violations)
        }));
        match caught {
            Ok((action, outcome, violations)) => {
                *out.outcomes.entry(outcome.clone()).or_insert(0) += 1;
                out.events.push(Event {
                    step: stepno,
                    action,
                    outcome,
                });
                for v in violations {
                    out.violations
                        .push(format!("step {stepno} [{}]: {v}", cfg.backend));
                }
            }
            Err(_) => {
                out.host_panics += 1;
                out.violations.push(format!(
                    "step {stepno} [{}]: host panic caught",
                    cfg.backend
                ));
                out.events.push(Event {
                    step: stepno,
                    action: "step".into(),
                    outcome: "host-panic".into(),
                });
                // The half-mutated world is unusable; the rest of the
                // episode's steps are skipped.
                episode = None;
            }
        }
        out.steps_run += 1;

        // Behavioural probes on scratch kernels. They draw nothing from
        // the episode stream, so their cadence is on *global* step
        // numbers, exactly as in a serial run.
        if cfg.probe_interval != 0 && (stepno + 1) % cfg.probe_interval == 0 {
            for probe in [
                oracle::probe_fork_exec as fn() -> Result<(), oracle::Violation>,
                oracle::probe_syscall_rejection,
            ] {
                if let Err(v) = probe() {
                    out.violations
                        .push(format!("step {stepno} [{}]: {v}", cfg.backend));
                }
            }
            if let Err(v) = oracle::probe_timer_abort(cfg.cycle_limit) {
                out.violations
                    .push(format!("step {stepno} [{}]: {v}", cfg.backend));
            }
            // Durability probe on the episode's own world: its kernel
            // image must restore cleanly, and every checkpoint-corruption
            // class must be rejected with a typed error. The probe rng is
            // a function of (seed, step) alone, preserving the
            // jobs-invariance of the event log.
            if let Some(ep) = episode.as_ref() {
                let img = ep.k.save_image();
                if Kernel::restore_image(&img).is_err() {
                    out.violations.push(format!(
                        "step {stepno} [{}]: [checkpoint-restores] kernel image failed to round-trip",
                        cfg.backend
                    ));
                }
                let mut cr = SeedRng::new(cfg.seed ^ 0xC4EC_4001 ^ u64::from(stepno));
                for v in oracle::probe_checkpoint_rejection(
                    &img,
                    x86sim::image::kind::KERNEL,
                    1,
                    &mut cr,
                ) {
                    out.violations
                        .push(format!("step {stepno} [{}]: {v}", cfg.backend));
                }
            }
            out.probes_run += 1;
        }
    }

    // Roll up counters from the episode's world. A panicking step drops
    // the half-mutated world, counters included.
    if let Some(ep) = episode.as_ref() {
        out.quarantines += ep.kx.quarantines;
        out.kext_aborts += ep.kx.aborts;
        out.uext_aborts += ep.app.aborted_calls;
        out.guest_insns += ep.k.m.insns();
        out.restarts += ep.sup.restarts;
        out.pages_reclaimed += ep.sup.pages_reclaimed;
    }
    out
}

/// Runs a campaign to completion, fanning episodes across
/// [`CampaignConfig::jobs`] workers and merging the per-episode results
/// in episode order.
pub fn run(cfg: &CampaignConfig) -> CampaignReport {
    let episode_len = cfg.episode_len.max(1);
    let episodes: Vec<(u32, u32, u32)> = (0..cfg.steps.div_ceil(episode_len))
        .map(|i| {
            let start = i * episode_len;
            (i, start, episode_len.min(cfg.steps - start))
        })
        .collect();

    // One warmed template world, forked per non-OOM episode. Building
    // it goes through the very same `Episode::new(cfg, None)` a cold
    // boot would, so forks are byte-identical to cold boots; if the
    // build fails (only possible under memory pressure) every episode
    // falls back to cold-booting itself.
    let template = if cfg.fork_boot {
        Episode::new(cfg, None).ok()
    } else {
        None
    };

    // Campaign steps run under catch_unwind: a host panic is the worst
    // possible audit failure and must be recorded, not crash the driver.
    // The hook is process-global, so it is installed once around the
    // whole fan-out rather than per worker.
    let prev_hook = panic::take_hook();
    panic::set_hook(Box::new(|_| {}));
    let outputs = parex::Pool::new(cfg.jobs).run_ordered(episodes, |_, (idx, start, len)| {
        run_episode(cfg, template.as_ref(), idx, start, len)
    });
    panic::set_hook(prev_hook);

    let mut report = CampaignReport::default();
    for o in outputs {
        report.steps_run += o.steps_run;
        report.events.extend(o.events);
        for (tag, n) in o.outcomes {
            *report.outcomes.entry(tag).or_insert(0) += n;
        }
        report.violations.extend(o.violations);
        report.probes_run += o.probes_run;
        report.host_panics += o.host_panics;
        report.quarantines += o.quarantines;
        report.kext_aborts += o.kext_aborts;
        report.uext_aborts += o.uext_aborts;
        report.restarts += o.restarts;
        report.pages_reclaimed += o.pages_reclaimed;
        report.guest_insns += o.guest_insns;
    }
    report
}

/// A compact human-readable summary (used by the example binary).
pub fn summarize(report: &CampaignReport) -> String {
    use core::fmt::Write;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "steps: {}  events: {}  probes: {}",
        report.steps_run,
        report.events.len(),
        report.probes_run
    );
    let _ = writeln!(
        s,
        "quarantines: {}  kext aborts: {}  uext aborts: {}  host panics: {}",
        report.quarantines, report.kext_aborts, report.uext_aborts, report.host_panics
    );
    let _ = writeln!(
        s,
        "supervised restarts: {}  pages reclaimed: {}",
        report.restarts, report.pages_reclaimed
    );
    let _ = writeln!(s, "outcomes:");
    for (tag, n) in &report.outcomes {
        let _ = writeln!(s, "  {tag:<28} {n}");
    }
    if report.violations.is_empty() {
        let _ = writeln!(s, "containment: OK (0 violations)");
    } else {
        let _ = writeln!(s, "containment: {} VIOLATIONS", report.violations.len());
        for v in &report.violations {
            let _ = writeln!(s, "  {v}");
        }
    }
    s
}
