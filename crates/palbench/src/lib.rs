//! `palbench` — the end-to-end benchmark of the Palladium reproduction.
//!
//! Four closed-loop workloads vary how often a program crosses a
//! protection boundary and what it does between crossings:
//!
//! * `filter` — Figure 7's compiled packet filters in verified kernel
//!   segments: guest execution dominates;
//! * `cgi` — Table 3's protected CGI server: one user-level crossing per
//!   request and little guest work, host-side handling dominates;
//! * `lifecycle` — `dlopen`/`dlsym`/call/`dlclose` on every isolation
//!   backend: load-time work dominates;
//! * `fleet` — replica rounds with checkpoints, crashes and restores:
//!   image save/restore dominates.
//!
//! Each workload runs an untraced pass for the end-to-end metrics and a
//! traced pass, timing every call into a layer from outside it, for the
//! per-layer metrics ([`metrics`]). Every op is checked by an oracle.
//! Host times are reported at the speed of a reference kernel timed
//! between measurement windows ([`reference`]), so a busy neighbour on a
//! shared host does not read as a slower program.
//! See the crate README for how to run, trace and compare.

pub mod compare;
pub mod json;
pub mod measure;
pub mod metrics;
pub mod output;
pub mod reference;
pub mod stats;
pub mod trace;
pub mod workloads;
pub mod world;

pub use measure::{measure, Budget, Config, Report};
pub use workloads::Workload;
