//! `palladium` — the paper's primary contribution.
//!
//! Palladium enforces intra-address-space protection boundaries between a
//! core program and its dynamically loaded extensions using the x86
//! segmentation and paging hardware:
//!
//! * [`kernel_ext`] — the kernel-level mechanism (§4.3): extension
//!   segments at SPL 1 inside the kernel address range, an Extension
//!   Function Table, shared data areas, whitelisted kernel services, and
//!   synchronous + asynchronous invocation with CPU-time limits.
//! * [`user_ext`] — the user-level mechanism (§4.4): the extensible
//!   application promotes itself to SPL 2 (`init_PL`), its writable pages
//!   become PPL 0, and extensions run at SPL 3 in segments spanning the
//!   *same* 0-3 GB range, so no pointer swizzling is needed; page-level
//!   checks protect the app, segment-level checks protect the kernel.
//! * [`trampoline`] — generation of the `Prepare`/`Transfer`/`AppCallGate`
//!   sequences of Figure 6 that synthesize a protected downcall from
//!   `lret` and a call-gate `lcall`.
//! * [`dl`] — the `seg_dlopen`/`seg_dlsym`/`seg_dlclose` loading layer
//!   with eager GOT/PLT resolution and a sealed, page-aligned GOT.
//! * [`stdlib`] — a miniature libc (shared, PPL 1) plus the `xmalloc`
//!   extension allocator.
//! * [`guestlib`] — canned guest-side syscall wrappers (`exit`, `print`,
//!   `send`/`recv`, ...) for hand-written guest programs.
//! * [`protmem`] — the protected memory service sketched as on-going work
//!   in §6.
//! * [`mobile`] — the §6 mobile-code system: unverified compiled applets
//!   confined by the hardware, with service allow-lists, quotas and
//!   revocation.
//! * [`segdb`] — the §6 segmentation-aware debugger: domain-labelled
//!   trace symbolization and per-SPL cycle profiles.
//! * [`supervisor`] — extension supervision (§4.5.2's reclamation made
//!   total): per-segment resource ledgers unwound transactionally on
//!   fault/quarantine/`rmmod`/destroy, a kernel-side leak audit, and
//!   restart policies with exponential backoff and permanent tombstones.
//! * [`backend`] — the closed set of isolation backends, named by
//!   [`BackendKind`]: the paper's segmentation+paging default, an
//!   MPK/POE-style protection-key model with gate-integrity-checked
//!   `wrpkru`, and a software-fault-isolation comparator wrapping
//!   [`baselines::sfi`]. The user-level loader matches on the kind
//!   directly; [`ExtCallError::attribution`] and
//!   [`ExtensibleApp::leak_audit`] serve all three.
//! * [`session`] — the [`Session`] façade: a booted kernel plus its
//!   promoted application behind one load/resolve/call/close API, with
//!   verification, attestation and predecode as [`DlopenOptions`] and the
//!   isolation mechanism selectable per session or per load.
//! * [`error`] — the unified [`Error`] enum: the user-level runtime
//!   returns it directly and every other subsystem error converts into
//!   it (see its module docs for the mapping table).

pub mod backend;
mod checkpoint;
pub mod dl;
pub mod error;
pub mod guestlib;
pub mod kernel_ext;
pub mod mobile;
pub mod protmem;
pub mod segdb;
pub mod session;
pub mod shm;
pub mod stdlib;
pub mod supervisor;
pub mod trampoline;
pub mod user_ext;

pub use backend::{BackendKind, FaultAttribution, APP_KEY};
pub use error::Error;
pub use kernel_ext::{
    DispatchStats, ExtSegmentId, KernelExtensions, KextError, SegmentConfig, SegmentConfigBuilder,
};
pub use mobile::{AppletHost, AppletId, AppletOutcome, AppletQuota};
pub use segdb::SegDb;
pub use session::Session;
pub use shm::{SharedArea, ShmError};
pub use supervisor::{
    LedgerEntry, ModuleImage, ReclaimRecord, ResourceAudit, ResourceLedger, RestartPolicy,
    SupervisedId, SupervisedState, Supervisor, SupervisorError,
};
pub use user_ext::{DlopenOptions, ExtCallError, ExtensibleApp, ExtensionHandle};
pub use verifier::{Attestation, VerifyError, VerifyPolicy};

#[cfg(test)]
mod tests;
