//! Every workload at `--quick` size: oracles pass on two seeds, simulated
//! metrics are pinned and repeat exactly, and the traced pass simulates
//! exactly what the untraced pass did.

use palbench::json::{self, Value};
use palbench::metrics::{END_TO_END, PER_LAYER};
use palbench::output::result_line;
use palbench::{measure, Budget, Config, Report, Workload};

fn quick(workload: Workload, seed: u64, trace: bool) -> Report {
    let report = measure(&Config {
        workload,
        seed,
        budget: Budget::Ops(workload.quick_ops()),
        trace,
        quick: true,
    })
    .expect("world builds");
    assert!(
        report.errors.is_empty(),
        "{}: {:?}",
        workload.name(),
        report.errors
    );
    assert_eq!(
        report.metric("error_ratio"),
        Some(0.0),
        "{}",
        workload.name()
    );
    report
}

/// The simulated end-to-end metrics, which must repeat exactly.
fn simulated(r: &Report) -> [f64; 4] {
    [
        "sim_cycles_per_op",
        "sim_cycles_p99",
        "refused_ratio",
        "error_ratio",
    ]
    .map(|m| r.metric(m).unwrap())
}

/// The metric names in the one-line result, in order.
fn line_metrics(r: &Report, traced: bool) -> Vec<String> {
    match json::parse(&result_line(r, traced))
        .expect("the result line is JSON")
        .get("metrics")
    {
        Some(Value::Obj(members)) => members.iter().map(|(k, _)| k.clone()).collect(),
        _ => panic!("no metrics object"),
    }
}

fn declared_end_to_end() -> Vec<&'static str> {
    END_TO_END
        .iter()
        .filter(|m| m.declared)
        .map(|m| m.name)
        .collect()
}

/// Runs seed 1 traced and untraced and seed 2 untraced, checks the
/// simulated metrics against `pinned`, then hands the traced report to
/// `layers` for workload-specific per-layer checks.
fn check(workload: Workload, pinned: [f64; 3], layers: impl Fn(&dyn Fn(&str) -> f64)) {
    let traced = quick(workload, 1, true);
    assert!(traced.correct());
    assert_eq!(
        traced.sim_match,
        Some(true),
        "{}: traced pass diverged",
        workload.name()
    );
    assert_eq!(traced.traced_ops, workload.quick_ops() / 4);
    assert_eq!(line_metrics(&traced, false), declared_end_to_end());
    assert_eq!(line_metrics(&traced, true), PER_LAYER.map(|m| m.name));
    layers(&|m| traced.metric(m).unwrap_or_else(|| panic!("no metric {m}")));

    let s = simulated(&traced);
    assert_eq!(
        [s[0], s[1], s[2]],
        pinned,
        "{}: pinned simulated metrics",
        workload.name()
    );
    let again = quick(workload, 1, false);
    assert_eq!(
        simulated(&again),
        s,
        "{}: same seed, same simulation",
        workload.name()
    );
    assert!(again.per_layer.is_empty());

    let other = quick(workload, 2, false);
    assert_ne!(
        simulated(&other)[0],
        s[0],
        "{}: the seed changes the inputs",
        workload.name()
    );
}

#[test]
fn filter() {
    check(
        Workload::Filter,
        [302.957, 496.7682687743917, 0.1982],
        |m| {
            // Proof tokens serve the verified filter body, so their share is
            // a floor on the body's share of guest instructions.
            assert!(m("x86sim.proof_served_ratio") >= 0.7);
            assert_eq!(m("palladium.verified_dispatch_ratio"), 1.0);
            assert!(m("netfilter.compile_us") > 0.0 && m("verifier.verify_us") > 0.0);
            assert!(m("palladium.invoke_us") > 0.0);
        },
    );
}

#[test]
fn cgi() {
    check(
        Workload::Cgi,
        [399226.1248235294, 469692.1231103635, 0.10388235294117647],
        |m| {
            assert_eq!(
                m("x86sim.proof_served_ratio"),
                0.0,
                "cgi bypasses proof tokens"
            );
            assert!(m("webserver.handle_us") > 0.0 && m("webserver.parse_us") > 0.0);
        },
    );
}

#[test]
fn lifecycle() {
    check(
        Workload::Lifecycle,
        [84403.94272727273, 98265.19216704965, 0.06],
        |m| {
            assert!(
                m("kernel.frames_leaked_per_op") > 0.0,
                "dlclose leaks frames"
            );
            assert!(m("verifier.reject_ratio") > 0.0);
            for b in ["seg-paging", "prot-keys", "sfi"] {
                for step in ["dlopen", "dlsym", "call", "dlclose"] {
                    assert!(m(&format!("palladium.{b}.{step}_us")) > 0.0, "{b} {step}");
                }
            }
        },
    );
}

#[test]
fn fleet() {
    check(
        Workload::Fleet,
        [265621.39453125, 269779.2032096775, 0.00177734375],
        |m| {
            assert_eq!(
                m("x86sim.proof_served_ratio"),
                0.0,
                "fleet bypasses proof tokens"
            );
            assert!(m("fleet.checkpoint_bytes") > m("x86sim.image_bytes"));
            assert!(m("x86sim.image_bytes") > 0.0);
            assert!(m("fleet.restore_us") > 0.0 && m("kernel.restore_image_us") > 0.0);
            assert!(m("palladium.quarantines") > 0.0 && m("palladium.supervisor_restarts") > 0.0);
        },
    );
}
