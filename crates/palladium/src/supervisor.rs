//! Extension supervision: transactional resource reclamation and
//! restart-with-backoff (§4.5.2).
//!
//! The paper's containment story ends with the kernel "reclaiming the
//! system resources previously allocated" to a misbehaving extension.
//! This module makes that reclamation *total and auditable*:
//!
//! * a per-segment [`ResourceLedger`] records every kernel allocation
//!   (pages, GDT descriptors, EFT entries, shared-memory ranges, queued
//!   asynchronous requests) at acquisition time, and
//!   [`KernelExtensions::reclaim_segment`] unwinds it transactionally in
//!   reverse-acquisition order;
//! * [`KernelExtensions::assert_no_leaks`] is the kernel-side audit
//!   proving the unwind left nothing behind — every ledgered page is
//!   either still mapped (live segment) or provably unmapped (reclaimed
//!   segment), every descriptor present or revoked-and-pooled;
//! * a [`Supervisor`] drives restart policy on top: one-for-one
//!   reinstall from the original module image, exponential backoff in
//!   simulated cycles, strike decay after healthy operation, and a
//!   permanent tombstone once `max_restarts` is exhausted.
//!
//! Everything is a pure function of simulated cycle counts and the call
//! sequence, so seeded chaos campaigns remain byte-for-byte replayable
//! with supervision enabled.

use asm86::Object;
use minikernel::Kernel;

use x86sim::image::{Dec, Enc, RestoreError};

use crate::checkpoint as ckpt;
use crate::kernel_ext::{
    get_segment_config, put_segment_config, ExtSegmentId, KernelExtensions, KextError,
    SegmentConfig,
};

// ----- the resource ledger --------------------------------------------------

/// One recorded kernel allocation owned by an extension segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LedgerEntry {
    /// Kernel virtual pages (the segment body, or a side allocation like
    /// the per-segment `kprepare` stub page).
    KernelPages {
        /// Linear base.
        base: u32,
        /// Page count.
        pages: u32,
    },
    /// A GDT slot holding one of the segment's SPL 1 descriptors.
    GdtDescriptor {
        /// GDT index.
        index: u16,
    },
    /// An Extension Function Table entry.
    EftEntry {
        /// Function name.
        name: String,
        /// Module that registered it.
        module: String,
    },
    /// The segment's shared data area.
    ShmRange {
        /// Segment-relative offset.
        base: u32,
        /// Size in bytes.
        size: u32,
        /// Module that exported `shared_area`.
        module: String,
    },
    /// A pending asynchronous request slot.
    AsyncSlot {
        /// Extension function name the request targets.
        func: String,
    },
}

/// Per-segment record of every kernel allocation, in acquisition order.
///
/// The ledger is append-only during normal operation and unwound in
/// reverse (LIFO) order at reclaim, so teardown mirrors construction —
/// the transactional discipline DESIGN.md §6 documents.
#[derive(Debug, Default, Clone)]
pub struct ResourceLedger {
    entries: Vec<LedgerEntry>,
}

impl ResourceLedger {
    /// Records one allocation.
    pub fn record(&mut self, entry: LedgerEntry) {
        self.entries.push(entry);
    }

    /// Removes the oldest entry matching `pred` (FIFO, pairing with the
    /// queue order of asynchronous requests). Returns whether one was
    /// removed.
    pub fn remove_first(&mut self, pred: impl Fn(&LedgerEntry) -> bool) -> bool {
        match self.entries.iter().position(pred) {
            Some(pos) => {
                self.entries.remove(pos);
                true
            }
            None => false,
        }
    }

    /// All recorded entries, oldest first.
    pub fn entries(&self) -> &[LedgerEntry] {
        &self.entries
    }

    /// Number of entries matching `pred`.
    pub fn count(&self, pred: impl Fn(&LedgerEntry) -> bool) -> usize {
        self.entries.iter().filter(|e| pred(e)).count()
    }

    /// Drains every entry except pending [`LedgerEntry::AsyncSlot`]s
    /// (those unwind as the queue itself drains, so late callers still
    /// receive structured errors), returning the removed entries in
    /// reverse-acquisition order.
    pub fn unwind(&mut self) -> Vec<LedgerEntry> {
        let mut unwound = Vec::new();
        let mut kept = Vec::new();
        for e in self.entries.drain(..) {
            if matches!(e, LedgerEntry::AsyncSlot { .. }) {
                kept.push(e);
            } else {
                unwound.push(e);
            }
        }
        self.entries = kept;
        unwound.reverse();
        unwound
    }
}

/// What a completed reclaim actually released — kept on the segment so
/// [`KernelExtensions::assert_no_leaks`] can verify the unwind *stayed*
/// total (pages still unmapped, descriptors still revoked) long after
/// the ledger itself has drained.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReclaimRecord {
    /// Kernel VA ranges `(base, pages)` returned to the kernel.
    pub page_ranges: Vec<(u32, u32)>,
    /// GDT indices revoked and pooled for supervised reuse.
    pub descriptors: Vec<u16>,
    /// Asynchronous requests dropped (drained as part of the reclaim).
    pub requests_dropped: usize,
}

/// A point-in-time snapshot of kernel resource occupancy, for
/// before/after comparison across kill–restart cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResourceAudit {
    /// Physical frames currently allocated.
    pub frames_in_use: u32,
    /// GDT slots in existence (pooled slots are reused, so a supervised
    /// restart cycle must not grow this).
    pub gdt_len: usize,
    /// Kernel pages attributed to live (unreclaimed) extension segments.
    pub ledgered_pages: u32,
}

impl ResourceAudit {
    /// Captures the current occupancy.
    pub fn capture(k: &Kernel, kx: &KernelExtensions) -> ResourceAudit {
        ResourceAudit {
            frames_in_use: k.frames.in_use(),
            gdt_len: k.m.gdt.len(),
            ledgered_pages: kx.ledgered_pages(),
        }
    }
}

// ----- restart policy -------------------------------------------------------

/// Restart policy for a supervised extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RestartPolicy {
    /// Restarts tolerated before the extension is permanently
    /// tombstoned.
    pub max_restarts: u32,
    /// Backoff before the first restart, in simulated cycles.
    pub backoff_base: u64,
    /// Multiplier applied per additional restart.
    pub backoff_factor: u64,
    /// Upper bound on any single backoff.
    pub backoff_max: u64,
    /// Healthy cycles that forgive one accumulated restart (and decay
    /// one strike on the live segment). `0` disables decay.
    pub decay_after: u64,
}

impl Default for RestartPolicy {
    fn default() -> RestartPolicy {
        RestartPolicy {
            max_restarts: 5,
            backoff_base: 50_000,
            backoff_factor: 2,
            backoff_max: 1_600_000,
            decay_after: 1_000_000,
        }
    }
}

impl RestartPolicy {
    /// An impatient policy: restart immediately, forever. Used by the
    /// chaos campaign, where the adversarial step generator supplies the
    /// pacing and the interesting property is that every kill–restart
    /// cycle reclaims completely.
    pub fn immediate() -> RestartPolicy {
        RestartPolicy {
            max_restarts: u32::MAX,
            backoff_base: 0,
            backoff_factor: 1,
            backoff_max: 0,
            decay_after: 0,
        }
    }

    /// Backoff before the `n`th restart (1-based):
    /// `min(backoff_base * backoff_factor^(n-1), backoff_max)`.
    pub fn backoff_for(&self, n: u32) -> u64 {
        let mut d = self.backoff_base;
        for _ in 1..n {
            d = d.saturating_mul(self.backoff_factor);
            if d >= self.backoff_max {
                return self.backoff_max;
            }
        }
        d.min(self.backoff_max.max(self.backoff_base))
    }
}

// ----- the supervisor -------------------------------------------------------

/// The original image of one module, retained for one-for-one reinstall.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModuleImage {
    /// Module name.
    pub name: String,
    /// Relocatable object, exactly as first installed.
    pub obj: Object,
    /// Exported function names.
    pub exports: Vec<String>,
}

impl ModuleImage {
    /// Convenience constructor.
    pub fn new(name: &str, obj: Object, exports: &[&str]) -> ModuleImage {
        ModuleImage {
            name: name.to_string(),
            obj,
            exports: exports.iter().map(|s| s.to_string()).collect(),
        }
    }
}

/// Lifecycle state of a supervised extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SupervisedState {
    /// Healthy and invocable.
    Running,
    /// Its segment died; a restart is scheduled.
    Backoff {
        /// Simulated cycle at which the restart becomes due.
        until: u64,
    },
    /// Permanently retired after exhausting `max_restarts`.
    Tombstoned,
}

/// Errors surfaced by [`Supervisor::invoke`].
#[derive(Debug, Clone, PartialEq)]
pub enum SupervisorError {
    /// The extension is in its backoff window; it becomes restartable at
    /// the given cycle.
    Restarting {
        /// Simulated cycle at which the restart becomes due.
        ready_at: u64,
    },
    /// The extension exhausted its restart budget and is permanently
    /// tombstoned.
    Tombstoned {
        /// Restarts consumed before retirement.
        restarts: u32,
    },
    /// The underlying invocation failed.
    Kext(KextError),
}

impl core::fmt::Display for SupervisorError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SupervisorError::Restarting { ready_at } => {
                write!(f, "extension restarting (ready at cycle {ready_at})")
            }
            SupervisorError::Tombstoned { restarts } => {
                write!(f, "extension tombstoned after {restarts} restarts")
            }
            SupervisorError::Kext(e) => write!(f, "{e}"),
        }
    }
}

/// Identifies one supervised extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisedId(usize);

impl SupervisedId {
    /// Positional index into the supervision table — the checkpoint
    /// identity of the supervised extension.
    pub fn index(self) -> usize {
        self.0
    }

    /// Rebuilds an id from a checkpointed positional index.
    pub fn from_index(index: usize) -> SupervisedId {
        SupervisedId(index)
    }
}

#[derive(Debug, Clone)]
struct SupervisedExt {
    seg: ExtSegmentId,
    pages: u32,
    config: SegmentConfig,
    images: Vec<ModuleImage>,
    state: SupervisedState,
    /// Restarts currently charged (decays under healthy operation).
    restarts: u32,
    /// Cycle of the last healthy event (install or successful invoke),
    /// advanced as decay credit is consumed.
    last_healthy: u64,
    /// Generation of the staged images (bumped by
    /// [`Supervisor::stage_images`] when the content actually changes).
    image_gen: u64,
    /// Generation installed in the running segment. While tombstoned this
    /// instead records the *retired* generation, so staging a different
    /// generation can revive the slot.
    running_gen: u64,
}

/// Drives restart policy over extension segments: detects death, reclaims
/// the dead segment through its ledger, waits out the backoff, reinstalls
/// from the retained images, and tombstones extensions that keep dying.
#[derive(Debug, Clone)]
pub struct Supervisor {
    policy: RestartPolicy,
    exts: Vec<SupervisedExt>,
    /// Completed restarts across all supervised extensions.
    pub restarts: u64,
    /// Extensions permanently tombstoned.
    pub tombstoned: u64,
    /// Kernel pages reclaimed through segment ledgers.
    pub pages_reclaimed: u64,
    /// Asynchronous requests dropped during reclaims.
    pub requests_dropped: u64,
    /// Operator-driven generation switches completed by
    /// [`Supervisor::rollover`].
    pub rollovers: u64,
}

impl Supervisor {
    /// Creates a supervisor with the given restart policy.
    pub fn new(policy: RestartPolicy) -> Supervisor {
        Supervisor {
            policy,
            exts: Vec::new(),
            restarts: 0,
            tombstoned: 0,
            pages_reclaimed: 0,
            requests_dropped: 0,
            rollovers: 0,
        }
    }

    /// The policy in force.
    pub fn policy(&self) -> RestartPolicy {
        self.policy
    }

    /// Installs a supervised extension: creates a segment (reusing pooled
    /// descriptors — a supervised restart cycle must not grow the GDT)
    /// and loads every image.
    pub fn install(
        &mut self,
        k: &mut Kernel,
        kx: &mut KernelExtensions,
        pages: u32,
        mut config: SegmentConfig,
        images: Vec<ModuleImage>,
    ) -> Result<SupervisedId, KextError> {
        config.recycle_descriptors = true;
        let seg = self.build(k, kx, pages, config.clone(), &images)?;
        self.exts.push(SupervisedExt {
            seg,
            pages,
            config,
            images,
            state: SupervisedState::Running,
            restarts: 0,
            last_healthy: k.m.cycles(),
            image_gen: 0,
            running_gen: 0,
        });
        Ok(SupervisedId(self.exts.len() - 1))
    }

    fn build(
        &mut self,
        k: &mut Kernel,
        kx: &mut KernelExtensions,
        pages: u32,
        config: SegmentConfig,
        images: &[ModuleImage],
    ) -> Result<ExtSegmentId, KextError> {
        let seg = kx.create_segment_with(k, pages, config)?;
        for img in images {
            let exports: Vec<&str> = img.exports.iter().map(String::as_str).collect();
            if let Err(e) = kx.insmod(k, seg, &img.name, &img.obj, &exports) {
                // A build that fails past segment creation must not strand
                // the partially-built segment: unwind it through the
                // ledger so upgrade churn cannot drift resource audits.
                self.reclaim(k, kx, seg);
                return Err(e);
            }
        }
        Ok(seg)
    }

    /// Reclaims a segment through its ledger, folding the record into the
    /// supervisor's counters.
    fn reclaim(&mut self, k: &mut Kernel, kx: &mut KernelExtensions, seg: ExtSegmentId) {
        let record = kx.reclaim_segment(k, seg);
        self.pages_reclaimed += record
            .page_ranges
            .iter()
            .map(|&(_, pages)| u64::from(pages))
            .sum::<u64>();
        self.requests_dropped += record.requests_dropped as u64;
    }

    /// The extension's current segment (changes across restarts).
    pub fn segment(&self, id: SupervisedId) -> ExtSegmentId {
        self.exts[id.0].seg
    }

    /// The extension's lifecycle state.
    pub fn state(&self, id: SupervisedId) -> SupervisedState {
        self.exts[id.0].state
    }

    /// Restarts currently charged against the extension (decays under
    /// healthy operation).
    pub fn charged_restarts(&self, id: SupervisedId) -> u32 {
        self.exts[id.0].restarts
    }

    /// Advances supervision for one extension at the current simulated
    /// cycle: applies strike/restart decay, performs a due restart
    /// (reclaiming nothing — the dead segment was already reclaimed when
    /// the fault was observed), and returns the resulting state.
    pub fn poll(
        &mut self,
        k: &mut Kernel,
        kx: &mut KernelExtensions,
        id: SupervisedId,
    ) -> SupervisedState {
        let now = k.m.cycles();
        // Strike/restart decay: healthy operation forgives history.
        if self.policy.decay_after > 0 {
            let ext = &mut self.exts[id.0];
            if ext.state == SupervisedState::Running {
                while ext.restarts > 0 && now - ext.last_healthy >= self.policy.decay_after {
                    ext.restarts -= 1;
                    ext.last_healthy += self.policy.decay_after;
                    kx.decay_strike(ext.seg);
                }
            }
        }
        if let SupervisedState::Backoff { until } = self.exts[id.0].state {
            if now >= until {
                self.try_restart(k, kx, id);
            }
        }
        self.exts[id.0].state
    }

    fn try_restart(&mut self, k: &mut Kernel, kx: &mut KernelExtensions, id: SupervisedId) {
        let (pages, config) = (self.exts[id.0].pages, self.exts[id.0].config.clone());
        let images = std::mem::take(&mut self.exts[id.0].images);
        let built = self.build(k, kx, pages, config, &images);
        self.exts[id.0].images = images;
        match built {
            Ok(seg) => {
                let now = k.m.cycles();
                let ext = &mut self.exts[id.0];
                ext.seg = seg;
                ext.state = SupervisedState::Running;
                ext.last_healthy = now;
                if ext.running_gen != ext.image_gen {
                    // The restart promoted a staged generation: the new
                    // lineage starts with a clean record instead of
                    // inheriting the replaced image's charged restarts
                    // (the strikes belonged to the *old* version).
                    ext.restarts = 0;
                    ext.running_gen = ext.image_gen;
                }
                self.restarts += 1;
            }
            Err(KextError::Verify(_) | KextError::Link(_)) => {
                // A module image that no longer decodes, links or
                // verifies is deterministically broken: retrying cannot
                // help, so tombstone immediately instead of burning
                // restart strikes through the backoff ladder.
                let ext = &mut self.exts[id.0];
                ext.state = SupervisedState::Tombstoned;
                // Record the staged generation as the retired lineage:
                // only staging a *different* generation can revive it.
                ext.running_gen = ext.image_gen;
                self.tombstoned += 1;
            }
            Err(_) => {
                // The reinstall itself failed (e.g. transient memory
                // pressure): charge it like a death and back off again.
                self.schedule_restart(k, kx, id, false);
            }
        }
    }

    fn schedule_restart(
        &mut self,
        k: &mut Kernel,
        kx: &mut KernelExtensions,
        id: SupervisedId,
        reclaim: bool,
    ) {
        if reclaim {
            self.reclaim(k, kx, self.exts[id.0].seg);
        }
        let ext = &mut self.exts[id.0];
        ext.restarts += 1;
        if ext.restarts > self.policy.max_restarts {
            ext.state = SupervisedState::Tombstoned;
            // The lineage that exhausted the budget is whatever is staged
            // right now; staging a different generation revives the slot.
            ext.running_gen = ext.image_gen;
            self.tombstoned += 1;
        } else {
            let delay = self.policy.backoff_for(ext.restarts);
            ext.state = SupervisedState::Backoff {
                until: k.m.cycles() + delay,
            };
        }
    }

    /// Invokes a function on the supervised extension, driving the full
    /// lifecycle: due restarts are performed first; a death observed
    /// during the call reclaims the segment through its ledger and
    /// schedules the restart (or tombstones the extension).
    pub fn invoke(
        &mut self,
        k: &mut Kernel,
        kx: &mut KernelExtensions,
        id: SupervisedId,
        func: &str,
        arg: u32,
    ) -> Result<u32, SupervisorError> {
        match self.poll(k, kx, id) {
            SupervisedState::Tombstoned => Err(SupervisorError::Tombstoned {
                restarts: self.exts[id.0].restarts,
            }),
            SupervisedState::Backoff { until } => {
                Err(SupervisorError::Restarting { ready_at: until })
            }
            SupervisedState::Running => {
                let seg = self.exts[id.0].seg;
                match kx.invoke(k, seg, func, arg) {
                    Ok(v) => {
                        self.exts[id.0].last_healthy = k.m.cycles();
                        Ok(v)
                    }
                    Err(e) => {
                        if kx.segment(seg).dead {
                            self.schedule_restart(k, kx, id, true);
                        }
                        Err(SupervisorError::Kext(e))
                    }
                }
            }
        }
    }

    /// Replaces the retained module images used for future reinstalls (a
    /// staged upgrade): the running segment is untouched; the next
    /// restart — or an explicit [`rollover`](Self::rollover) — loads the
    /// new images instead of the originals. The staged images must still
    /// pass the segment's admission policy at reinstall time — a
    /// replacement that fails to decode, link or verify tombstones the
    /// extension at that restart instead of burning through the backoff
    /// ladder.
    ///
    /// Each *content change* starts a new image generation (staging
    /// byte-identical images is a no-op, so a repeated rollback converges
    /// instead of churning). A new generation also revives a tombstoned
    /// slot: the tombstone retired one image lineage, not the extension's
    /// identity, so rolling back to a different (e.g. last-known-good)
    /// version schedules an immediately-due restart with a clean strike
    /// record.
    pub fn stage_images(&mut self, id: SupervisedId, images: Vec<ModuleImage>) {
        let ext = &mut self.exts[id.0];
        if ext.images == images {
            return;
        }
        ext.images = images;
        ext.image_gen += 1;
        if ext.state == SupervisedState::Tombstoned {
            ext.state = SupervisedState::Backoff { until: 0 };
            ext.restarts = 0;
        }
    }

    /// Generation of the currently staged images (bumped per
    /// [`stage_images`](Self::stage_images) content change).
    pub fn staged_generation(&self, id: SupervisedId) -> u64 {
        self.exts[id.0].image_gen
    }

    /// Generation installed in the running segment (for a tombstoned
    /// extension: the retired lineage).
    pub fn running_generation(&self, id: SupervisedId) -> u64 {
        self.exts[id.0].running_gen
    }

    /// Operator-driven generation switch: makes the staged images the
    /// running ones *now*, without waiting for the extension to die.
    ///
    /// A rollover is not a fault — the running segment is reclaimed
    /// gracefully through its ledger (in-flight asynchronous requests are
    /// dropped with structured errors and counted), no restart strike is
    /// charged, and no backoff is imposed. If the extension is already
    /// running the staged generation this is a no-op, which makes a
    /// double rollback idempotent. A tombstoned slot whose staged
    /// generation differs from the retired lineage is revived; one whose
    /// staged generation *is* the retired lineage stays tombstoned.
    ///
    /// The staged images still face the admission policy: a generation
    /// that fails to decode, link or verify tombstones the slot (the
    /// old segment is already gone), and any other build failure charges
    /// a restart and backs off as usual.
    pub fn rollover(
        &mut self,
        k: &mut Kernel,
        kx: &mut KernelExtensions,
        id: SupervisedId,
    ) -> Result<SupervisedState, KextError> {
        match self.exts[id.0].state {
            SupervisedState::Running
                if self.exts[id.0].running_gen == self.exts[id.0].image_gen =>
            {
                return Ok(SupervisedState::Running);
            }
            SupervisedState::Tombstoned => {
                return Ok(SupervisedState::Tombstoned);
            }
            SupervisedState::Running => {
                self.reclaim(k, kx, self.exts[id.0].seg);
            }
            // Backoff: the dead segment was already reclaimed when the
            // death was observed; the rollover just skips the wait.
            SupervisedState::Backoff { .. } => {}
        }

        let (pages, config) = (self.exts[id.0].pages, self.exts[id.0].config.clone());
        let images = std::mem::take(&mut self.exts[id.0].images);
        let built = self.build(k, kx, pages, config, &images);
        self.exts[id.0].images = images;
        match built {
            Ok(seg) => {
                let now = k.m.cycles();
                let ext = &mut self.exts[id.0];
                ext.seg = seg;
                ext.state = SupervisedState::Running;
                ext.last_healthy = now;
                ext.restarts = 0;
                ext.running_gen = ext.image_gen;
                self.rollovers += 1;
                Ok(SupervisedState::Running)
            }
            Err(e @ (KextError::Verify(_) | KextError::Link(_))) => {
                let ext = &mut self.exts[id.0];
                ext.state = SupervisedState::Tombstoned;
                ext.running_gen = ext.image_gen;
                self.tombstoned += 1;
                Err(e)
            }
            Err(e) => {
                self.schedule_restart(k, kx, id, false);
                Err(e)
            }
        }
    }

    /// Notifies the supervisor that the extension's segment died outside
    /// one of its own invocations (e.g. the owner quarantined it, or a
    /// drain surfaced the death). Reclaims and schedules the restart.
    pub fn notify_death(&mut self, k: &mut Kernel, kx: &mut KernelExtensions, id: SupervisedId) {
        if self.exts[id.0].state == SupervisedState::Running && kx.segment(self.exts[id.0].seg).dead
        {
            self.schedule_restart(k, kx, id, true);
        }
    }
}

impl Supervisor {
    // ----- durable checkpoints ----------------------------------------------

    /// Serializes the restart policy, the fleet-visible counters and every
    /// supervised extension — including the retained module images a
    /// restart would reinstall from — into `e`.
    pub fn save_into(&self, e: &mut Enc) {
        e.u32(self.policy.max_restarts);
        e.u64(self.policy.backoff_base);
        e.u64(self.policy.backoff_factor);
        e.u64(self.policy.backoff_max);
        e.u64(self.policy.decay_after);
        e.u64(self.restarts);
        e.u64(self.tombstoned);
        e.u64(self.pages_reclaimed);
        e.u64(self.requests_dropped);
        e.u64(self.rollovers);
        e.u32(self.exts.len() as u32);
        for x in &self.exts {
            e.u32(x.seg.index() as u32);
            e.u32(x.pages);
            put_segment_config(e, &x.config);
            e.u32(x.images.len() as u32);
            for img in &x.images {
                e.str(&img.name);
                ckpt::put_object(e, &img.obj);
                ckpt::put_str_vec(e, &img.exports);
            }
            match x.state {
                SupervisedState::Running => e.u8(0),
                SupervisedState::Backoff { until } => {
                    e.u8(1);
                    e.u64(until);
                }
                SupervisedState::Tombstoned => e.u8(2),
            }
            e.u32(x.restarts);
            e.u64(x.last_healthy);
            e.u64(x.image_gen);
            e.u64(x.running_gen);
        }
    }

    /// Rebuilds a supervisor from [`save_into`](Self::save_into) bytes.
    /// Segment ids are positional; restore alongside the
    /// [`KernelExtensions`] table saved at the same instant.
    pub fn restore_from(d: &mut Dec) -> Result<Supervisor, RestoreError> {
        let policy = RestartPolicy {
            max_restarts: d.u32()?,
            backoff_base: d.u64()?,
            backoff_factor: d.u64()?,
            backoff_max: d.u64()?,
            decay_after: d.u64()?,
        };
        let restarts = d.u64()?;
        let tombstoned = d.u64()?;
        let pages_reclaimed = d.u64()?;
        let requests_dropped = d.u64()?;
        let rollovers = d.u64()?;
        let nexts = d.count(16)?;
        let mut exts = Vec::with_capacity(nexts);
        for _ in 0..nexts {
            let seg = ExtSegmentId::from_index(d.u32()? as usize);
            let pages = d.u32()?;
            let config = get_segment_config(d)?;
            let nimages = d.count(24)?;
            let mut images = Vec::with_capacity(nimages);
            for _ in 0..nimages {
                let name = d.str()?;
                let obj = ckpt::get_object(d)?;
                let exports = ckpt::get_str_vec(d)?;
                images.push(ModuleImage { name, obj, exports });
            }
            let state = match d.u8()? {
                0 => SupervisedState::Running,
                1 => SupervisedState::Backoff { until: d.u64()? },
                2 => SupervisedState::Tombstoned,
                _ => return Err(d.fail("bad supervised state tag")),
            };
            exts.push(SupervisedExt {
                seg,
                pages,
                config,
                images,
                state,
                restarts: d.u32()?,
                last_healthy: d.u64()?,
                image_gen: d.u64()?,
                running_gen: d.u64()?,
            });
        }
        Ok(Supervisor {
            policy,
            exts,
            restarts,
            tombstoned,
            pages_reclaimed,
            requests_dropped,
            rollovers,
        })
    }
}
