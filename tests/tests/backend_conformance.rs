//! Backend conformance: every [`BackendKind`] must pass
//! the same lifecycle, containment and durability scenarios.
//!
//! The suite runs each scenario against each [`BackendKind`] and asserts
//! *containment parity*: the mechanisms differ in how they stop a
//! violation (fault tag, budget abort, load-time rejection, or SFI's
//! store masking), but never in whether the hosting application
//! survives with its private state intact.
#![warn(clippy::pedantic)]

use palladium::backend::{BackendKind, FaultAttribution};
use palladium::{DlopenOptions, Error, Session};

fn obj(src: &str) -> asm86::Object {
    asm86::Assembler::assemble(src).expect("asm")
}

/// Stores the argument through itself as a pointer: a wild write when
/// handed an application-private address.
const WILD: &str = "wild:\nmov eax, [esp+4]\nmov [eax], eax\nret\n";

/// Branch-free (the SFI rewriter admits no relative branches), so the
/// same object loads under every backend.
const DOUBLE: &str = "double:\nmov eax, [esp+4]\nadd eax, eax\nret\n";

#[test]
fn load_call_close_on_every_backend() {
    for kind in BackendKind::ALL {
        let mut s = Session::with_backend(kind).unwrap();
        let h = s.dlopen(&obj(DOUBLE), &DlopenOptions::new()).unwrap();
        assert_eq!(s.app().backend_of(h).unwrap(), kind, "{kind}");
        let f = s.dlsym(h, "double").unwrap();
        assert_eq!(s.call(f, 21).unwrap(), 42, "{kind}");

        // Close revokes: a later call must abort, never execute stale
        // code, and the application must survive the abort.
        s.dlclose(h).unwrap();
        match s.call(f, 1) {
            Err(Error::Call(_)) => {}
            other => panic!("{kind}: call into a closed extension must abort, got {other:?}"),
        }
        let h2 = s.dlopen(&obj(DOUBLE), &DlopenOptions::new()).unwrap();
        let f2 = s.dlsym(h2, "double").unwrap();
        assert_eq!(s.call(f2, 4).unwrap(), 8, "{kind}: app must survive");
    }
}

#[test]
fn wild_write_containment_parity() {
    // Each backend stops the wild write its own way; none lets the
    // poison reach the victim, and all keep the application alive.
    for kind in BackendKind::ALL {
        let mut s = Session::with_backend(kind).unwrap();
        let h = s.dlopen(&obj(WILD), &DlopenOptions::new()).unwrap();
        let f = s.dlsym(h, "wild").unwrap();
        let victim = s.app().save_slot_addr();

        match (kind, s.call(f, victim)) {
            (BackendKind::SegPaging, Err(Error::Call(e))) => assert_eq!(
                e.attribution(),
                FaultAttribution::Contained {
                    check: "page-protection"
                },
            ),
            (BackendKind::ProtKeys, Err(Error::Call(e))) => assert_eq!(
                e.attribution(),
                FaultAttribution::Contained { check: "page-key" },
            ),
            // SFI redirects instead of faulting: the call completes.
            (BackendKind::Sfi, Ok(_)) => {}
            (kind, other) => panic!("{kind}: unexpected wild-write outcome {other:?}"),
        }
        // Parity: the poison value never landed on the victim.
        assert_ne!(
            s.kernel().m.host_read_u32(victim),
            victim,
            "{kind}: poison landed"
        );
        // Parity: the application still makes protected calls.
        let h2 = s.dlopen(&obj(DOUBLE), &DlopenOptions::new()).unwrap();
        let f2 = s.dlsym(h2, "double").unwrap();
        assert_eq!(s.call(f2, 3).unwrap(), 6, "{kind}");
    }
}

#[test]
fn privilege_escalation_parity() {
    // `hlt` is privileged at every extension privilege level; no backend
    // may let it retire.
    for kind in BackendKind::ALL {
        let mut s = Session::with_backend(kind).unwrap();
        let loaded = s.dlopen(&obj("bad:\nhlt\nret\n"), &DlopenOptions::new());
        let contained = match loaded {
            // Rejected before it ever ran: contained.
            Err(_) => true,
            Ok(h) => {
                let f = s.dlsym(h, "bad").unwrap();
                match s.call(f, 0) {
                    Err(Error::Call(e)) => {
                        matches!(e.attribution(), FaultAttribution::Contained { .. })
                    }
                    other => panic!("{kind}: hlt must not retire, got {other:?}"),
                }
            }
        };
        assert!(contained, "{kind}: privilege escalation not contained");
    }
}

#[test]
fn quarantine_and_restart_parity() {
    // A faulting extension is closed (quarantined) and replaced by a
    // fresh load; the replacement must work on every backend.
    for kind in BackendKind::ALL {
        let mut s = Session::with_backend(kind).unwrap();
        let h = s.dlopen(&obj(WILD), &DlopenOptions::new()).unwrap();
        let f = s.dlsym(h, "wild").unwrap();
        let victim = s.app().save_slot_addr();
        let _ = s.call(f, victim); // faults on the hardware backends
        s.dlclose(h).unwrap();

        let h2 = s.dlopen(&obj(DOUBLE), &DlopenOptions::new()).unwrap();
        let f2 = s.dlsym(h2, "double").unwrap();
        assert_eq!(s.call(f2, 10).unwrap(), 20, "{kind}: restart failed");

        // The unload left no protection state behind.
        let findings = s.leak_audit();
        assert!(
            findings.is_empty(),
            "{kind}: leaks after restart: {findings:?}"
        );
    }
}

#[test]
fn fork_and_checkpoint_restore_parity() {
    for kind in BackendKind::ALL {
        let mut s = Session::with_backend(kind).unwrap();
        let h = s.dlopen(&obj(DOUBLE), &DlopenOptions::new()).unwrap();
        let f = s.dlsym(h, "double").unwrap();
        assert_eq!(s.call(f, 2).unwrap(), 4);

        // Fork: backend identity and loaded extensions carry over.
        let mut child = s.fork();
        assert_eq!(child.backend(), kind);
        assert_eq!(child.call(f, 5).unwrap(), 10, "{kind}: fork");

        // Checkpoint/restore: ditto, through the byte image.
        let image = s.checkpoint();
        let mut r = Session::restore(&image).unwrap();
        assert_eq!(r.backend(), kind);
        assert_eq!(r.call(f, 7).unwrap(), 14, "{kind}: restore");
        assert_eq!(r.app().backend_of(h).unwrap(), kind);

        // And the parent is unperturbed by either.
        assert_eq!(s.call(f, 9).unwrap(), 18, "{kind}: parent");
    }
}

#[test]
fn wrong_backend_restore_is_a_typed_rejection() {
    for kind in BackendKind::ALL {
        let s = Session::with_backend(kind).unwrap();
        let image = s.checkpoint();
        assert!(Session::restore_as(&image, kind).is_ok());
        for other in BackendKind::ALL {
            if other == kind {
                continue;
            }
            match Session::restore_as(&image, other) {
                Err(Error::BackendMismatch { found, expected }) => {
                    assert_eq!(found, kind);
                    assert_eq!(expected, other);
                }
                r => panic!("restore_as({kind} image, {other}) must be typed, got {r:?}"),
            }
        }
    }
}

#[test]
fn chaos_oracle_tags_findings_with_the_active_backend() {
    // A short campaign per backend: the oracle's invariants must hold
    // under every isolation mechanism, and any finding (none expected)
    // would carry the backend tag for attribution.
    for kind in BackendKind::ALL {
        let report = chaos::campaign::run(&chaos::campaign::CampaignConfig {
            steps: 75,
            episode_len: 25,
            probe_interval: 0,
            backend: kind,
            ..Default::default()
        });
        assert_eq!(report.steps_run, 75);
        assert!(
            report.violations.is_empty(),
            "{kind}: containment violations: {:?}",
            report.violations
        );
        // The corpus actually exercised the user-level loader under this
        // backend (loads either succeed or are structured errors).
        let uext_loads: u64 = report
            .outcomes
            .iter()
            .filter(|(tag, _)| tag.starts_with("uext-") || tag.starts_with("dlopen-"))
            .map(|(_, n)| n)
            .sum();
        assert!(uext_loads > 0, "{kind}: corpus never reached the loader");
    }
}
