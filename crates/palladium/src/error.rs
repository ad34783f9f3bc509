//! The unified error surface: [`Error`].
//!
//! The user-level runtime ([`ExtensibleApp`](crate::ExtensibleApp) and
//! the [`Session`](crate::Session) façade) returns [`Error`] directly.
//! The other subsystems keep their own precise enums — the
//! kernel-extension manager's [`KextError`], the supervisor's
//! [`SupervisorError`], the static verifier's [`VerifyError`] and the
//! protected-call outcome [`ExtCallError`] — and convert into [`Error`]
//! via `From`/`?`, so callers composing several subsystems thread one
//! error type through their signatures.
//!
//! ## Mapping
//!
//! | Source | `Error` variant | Notes |
//! |---|---|---|
//! | [`SpawnError`] | [`Error::Spawn`] | task creation or memory exhaustion in the user-level runtime |
//! | [`DlError`] | [`Error::Dl`] | GOT/PLT resolution or object merging |
//! | user-level runtime | [`Error::Link`], [`Error::NoSymbol`], [`Error::Kernel`], [`Error::Closed`] | built in place; no source type |
//! | [`KextError`] | [`Error::Kext`] | except `KextError::Verify(e)`, hoisted to [`Error::Verify`] |
//! | [`SupervisorError`] | [`Error::Supervisor`] | |
//! | [`VerifyError`] | [`Error::Verify`] | also built in place by a rejecting `dlopen` |
//! | [`ExtCallError`] | [`Error::Call`] | an *aborted* protected call — the application survived |
//! | [`ShmError`] | [`Error::Shm`] | |
//! | [`SfiError`] | [`Error::Sfi`] | an image the SFI rewriter cannot sandbox, from `baselines::sfi` or a `dlopen` under the SFI backend |
//! | [`BpfError`] | [`Error::Bpf`] | a packet-filter program rejected by the BPF validator (baseline comparisons) |
//! | [`RestoreError`] | [`Error::Restore`] | a checkpoint image that failed structural/integrity checks |
//!
//! `matches!(e, Error::Verify(_))` is the complete "rejected by the
//! static verifier" test, no matter whether the rejection came from
//! `dlopen` (user level) or `insmod` (kernel level, via the hoisting of
//! `KextError::Verify`).
//!
//! [`Error::BackendMismatch`] has no source type: it is produced by
//! [`Session::restore_as`](crate::Session::restore_as) when a checkpoint
//! carries a different isolation backend than the caller demanded.

use crate::backend::BackendKind;
use crate::dl::DlError;
use crate::kernel_ext::KextError;
use crate::shm::ShmError;
use crate::supervisor::SupervisorError;
use crate::user_ext::ExtCallError;
use baselines::bpf::BpfError;
use baselines::sfi::SfiError;
use minikernel::SpawnError;
use verifier::VerifyError;
use x86sim::image::RestoreError;

/// Any error a Palladium API can return (see the module docs for the
/// conversion mapping).
#[derive(Debug)]
pub enum Error {
    /// User-level task creation or memory failure.
    Spawn(SpawnError),
    /// User-level linking or symbol resolution failure.
    Dl(DlError),
    /// A user-level image failed to link.
    Link(String),
    /// A requested symbol does not exist in the extension.
    NoSymbol(String),
    /// A kernel interface returned an error code.
    Kernel(&'static str, i32),
    /// The extension handle was already closed.
    Closed,
    /// Kernel-extension mechanism failure (`insmod`/`invoke`/segments).
    Kext(KextError),
    /// Supervision failure (staging, restart, reclamation).
    Supervisor(SupervisorError),
    /// An image was rejected by load-time static verification, at either
    /// privilege level; a rejected user-level extension is unloaded.
    Verify(VerifyError),
    /// A protected extension call was aborted (fault / time limit); the
    /// hosting application survived.
    Call(ExtCallError),
    /// Shared-memory area failure.
    Shm(ShmError),
    /// An image the SFI rewriter cannot sandbox (under the `Sfi`
    /// isolation backend).
    Sfi(SfiError),
    /// A packet-filter program rejected by the BPF validator.
    Bpf(BpfError),
    /// A checkpoint image that failed structural or integrity checks
    /// during restore.
    Restore(RestoreError),
    /// A checkpoint was restored under a different isolation backend
    /// than it was taken with (see
    /// [`Session::restore_as`](crate::Session::restore_as)).
    BackendMismatch {
        /// The backend recorded in the checkpoint image.
        found: BackendKind,
        /// The backend the caller demanded.
        expected: BackendKind,
    },
}

impl core::fmt::Display for Error {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Error::Spawn(e) => write!(f, "spawn: {e}"),
            Error::Dl(e) => write!(f, "dynamic linking: {e}"),
            Error::Link(e) => write!(f, "link: {e}"),
            Error::NoSymbol(s) => write!(f, "no such symbol `{s}`"),
            Error::Kernel(what, e) => write!(f, "kernel {what} failed: {e}"),
            Error::Closed => write!(f, "extension already closed"),
            Error::Kext(e) => write!(f, "{e}"),
            Error::Supervisor(e) => write!(f, "{e}"),
            Error::Verify(e) => write!(f, "extension rejected by the verifier: {e}"),
            Error::Call(e) => write!(f, "{e}"),
            Error::Shm(e) => write!(f, "{e}"),
            Error::Sfi(e) => write!(f, "extension rejected by the SFI rewriter: {e}"),
            Error::Bpf(e) => write!(f, "filter rejected by the BPF validator: {e}"),
            Error::Restore(e) => write!(f, "checkpoint restore failed: {e}"),
            Error::BackendMismatch { found, expected } => write!(
                f,
                "checkpoint was taken under the {found} backend, \
                 but the {expected} backend was demanded"
            ),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Spawn(e) => Some(e),
            Error::Dl(e) => Some(e),
            Error::Kext(e) => Some(e),
            Error::Verify(e) => Some(e),
            Error::Shm(e) => Some(e),
            Error::Sfi(e) => Some(e),
            Error::Bpf(e) => Some(e),
            Error::Restore(e) => Some(e),
            Error::Link(_)
            | Error::NoSymbol(_)
            | Error::Kernel(..)
            | Error::Closed
            | Error::Supervisor(_)
            | Error::Call(_)
            | Error::BackendMismatch { .. } => None,
        }
    }
}

impl From<SpawnError> for Error {
    fn from(e: SpawnError) -> Error {
        Error::Spawn(e)
    }
}

impl From<DlError> for Error {
    fn from(e: DlError) -> Error {
        Error::Dl(e)
    }
}

impl From<SfiError> for Error {
    fn from(e: SfiError) -> Error {
        Error::Sfi(e)
    }
}

impl From<BpfError> for Error {
    fn from(e: BpfError) -> Error {
        Error::Bpf(e)
    }
}

impl From<RestoreError> for Error {
    fn from(e: RestoreError) -> Error {
        Error::Restore(e)
    }
}

impl From<KextError> for Error {
    fn from(e: KextError) -> Error {
        match e {
            KextError::Verify(v) => Error::Verify(v),
            other => Error::Kext(other),
        }
    }
}

impl From<SupervisorError> for Error {
    fn from(e: SupervisorError) -> Error {
        Error::Supervisor(e)
    }
}

impl From<VerifyError> for Error {
    fn from(e: VerifyError) -> Error {
        Error::Verify(e)
    }
}

impl From<ExtCallError> for Error {
    fn from(e: ExtCallError) -> Error {
        Error::Call(e)
    }
}

impl From<ShmError> for Error {
    fn from(e: ShmError) -> Error {
        Error::Shm(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verify_rejections_are_hoisted_from_both_levels() {
        let v = VerifyError::Privileged {
            offset: 0,
            mnemonic: "hlt",
        };
        let from_kext: Error = KextError::Verify(v.clone()).into();
        let direct: Error = v.into();
        for e in [from_kext, direct] {
            assert!(matches!(e, Error::Verify(_)), "{e}");
        }
    }

    #[test]
    fn plain_variants_round_trip() {
        use std::error::Error as _;
        let e: Error = SpawnError::OutOfMemory.into();
        assert!(matches!(e, Error::Spawn(SpawnError::OutOfMemory)));
        assert!(e.source().is_some());
        let e: Error = DlError::Unresolved("f".into()).into();
        assert!(matches!(e, Error::Dl(DlError::Unresolved(_))));
        let e: Error = KextError::TimeLimit.into();
        assert!(matches!(e, Error::Kext(KextError::TimeLimit)));
        let src = e.source().expect("kext errors chain their source");
        assert_eq!(src.to_string(), KextError::TimeLimit.to_string());
        let e: Error = ExtCallError::TimeLimit.into();
        assert!(matches!(e, Error::Call(ExtCallError::TimeLimit)));
        assert!(!format!("{e}").is_empty());
    }

    #[test]
    fn baseline_errors_are_hoisted_at_the_backend_boundary() {
        let e: Error = SfiError::Unsupported("relative branch").into();
        assert!(matches!(e, Error::Sfi(_)), "{e}");
        let e: Error = BpfError::NoReturn.into();
        assert!(matches!(e, Error::Bpf(BpfError::NoReturn)));
        assert!(!format!("{e}").is_empty());
    }

    #[test]
    fn backend_mismatch_names_both_backends() {
        let e = Error::BackendMismatch {
            found: BackendKind::ProtKeys,
            expected: BackendKind::Sfi,
        };
        let msg = format!("{e}");
        assert!(msg.contains("prot-keys") && msg.contains("sfi"), "{msg}");
    }
}
