//! Isolation backends: [`BackendKind`].
//!
//! The paper's mechanism — segmentation plus paging — is one *policy*
//! for confining extensions, not the only one. This module names the
//! three mechanisms the same workloads can be raced across:
//!
//! * [`BackendKind::SegPaging`] — the paper, and the default: extensions
//!   at SPL 3 / PPL 1, the application's private pages at PPL 0, wild
//!   writes stopped by the page-level U/S check.
//! * [`BackendKind::ProtKeys`] — an MPK/POE-style retrofit: the
//!   application's private trampoline region carries a 4-bit protection
//!   key ([`APP_KEY`]) and every generated `Transfer` routine opens with
//!   a `wrpkru` that drops rights to that key before entering the
//!   extension. The `wrpkru` site is registered as a *key gate*
//!   (Garmr-style gate integrity): user-mode key writes from anywhere
//!   else take a `#GP`, so an extension can never forge its rights back.
//! * [`BackendKind::Sfi`] — the software-only comparator, wrapping
//!   [`baselines::sfi`]: extension code is rewritten at load time so
//!   every store is masked into a power-of-two sandbox; wild writes are
//!   *redirected*, not faulted, and the code runs at the application's
//!   own privilege level with no domain crossing.
//!
//! The choice is closed (images store [`BackendKind::code`]), so the
//! enum is the only dispatch point: the
//! [`ExtensibleApp`](crate::ExtensibleApp) loader, `seg_dlsym` and
//! `seg_dlclose` match on an extension's kind. All per-extension state
//! lives in the application's extension table and serializes with it,
//! which keeps `Session::fork` and checkpoint/restore backend-agnostic.
//! Select a backend per extension with
//! [`DlopenOptions::backend`](crate::DlopenOptions::backend) or per
//! session with [`Session::with_backend`](crate::Session::with_backend).
#![warn(clippy::pedantic)]

use crate::user_ext::ExtCallError;

/// The protection key tagging application-private pages under the
/// [`BackendKind::ProtKeys`] backend (key 0 is the "no key" default all
/// other pages carry).
pub const APP_KEY: u8 = 1;

/// Which isolation mechanism guards an extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// Segmentation + paging (the paper; default).
    SegPaging,
    /// Protection keys with gate-integrity-checked `wrpkru`.
    ProtKeys,
    /// Software fault isolation (load-time store masking).
    Sfi,
}

impl BackendKind {
    /// Every backend, default first.
    pub const ALL: [BackendKind; 3] = [
        BackendKind::SegPaging,
        BackendKind::ProtKeys,
        BackendKind::Sfi,
    ];

    /// Stable display name (used in bench matrices and chaos reports).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::SegPaging => "seg-paging",
            BackendKind::ProtKeys => "prot-keys",
            BackendKind::Sfi => "sfi",
        }
    }

    /// Stable one-byte identity for checkpoint images.
    #[must_use]
    pub fn code(self) -> u8 {
        match self {
            BackendKind::SegPaging => 0,
            BackendKind::ProtKeys => 1,
            BackendKind::Sfi => 2,
        }
    }

    /// Inverse of [`code`](Self::code).
    #[must_use]
    pub fn from_code(c: u8) -> Option<BackendKind> {
        match c {
            0 => Some(BackendKind::SegPaging),
            1 => Some(BackendKind::ProtKeys),
            2 => Some(BackendKind::Sfi),
            _ => None,
        }
    }
}

impl core::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// How an aborted protected call was contained
/// ([`ExtCallError::attribution`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAttribution {
    /// A hardware-level protection check contained the violation;
    /// `check` is the fault dispatcher's tag for the check that fired
    /// (e.g. `"page-protection"`, `"page-key"`, `"key-gate"`,
    /// `"segment-limit"`).
    Contained {
        /// [`x86sim::fault::FaultCause::tag`] of the check that fired.
        check: &'static str,
    },
    /// The CPU-time budget aborted a runaway call — a resource policy,
    /// not a memory-protection check.
    Budget,
    /// The failure carries no structured cause to attribute (e.g. the
    /// task died with no handler installed).
    Unattributed,
}

impl ExtCallError {
    /// Explains an aborted protected call: which protection check
    /// contained it, whether the CPU-time budget cut it off, or neither.
    /// The explanation depends only on the error, not on the backend
    /// that guarded the call.
    #[must_use]
    pub fn attribution(&self) -> FaultAttribution {
        match self {
            ExtCallError::Fault { cause: Some(c), .. } => {
                FaultAttribution::Contained { check: c.tag() }
            }
            ExtCallError::Fault { cause: None, .. } | ExtCallError::Killed(_) => {
                FaultAttribution::Unattributed
            }
            ExtCallError::TimeLimit => FaultAttribution::Budget,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_round_trip_and_names_are_distinct() {
        let mut names = std::collections::BTreeSet::new();
        for kind in BackendKind::ALL {
            assert_eq!(BackendKind::from_code(kind.code()), Some(kind));
            names.insert(kind.name());
        }
        assert_eq!(names.len(), 3);
        assert_eq!(BackendKind::from_code(7), None);
    }

    #[test]
    fn attribution_classes() {
        assert_eq!(
            ExtCallError::TimeLimit.attribution(),
            FaultAttribution::Budget
        );
        let e = ExtCallError::Fault {
            sig: 11,
            addr: 0x1000,
            cause: Some(x86sim::fault::FaultCause::PrivilegedInstruction),
        };
        assert!(matches!(
            e.attribution(),
            FaultAttribution::Contained { .. }
        ));
        let e = ExtCallError::Fault {
            sig: 11,
            addr: 0,
            cause: None,
        };
        assert_eq!(e.attribution(), FaultAttribution::Unattributed);
    }
}
