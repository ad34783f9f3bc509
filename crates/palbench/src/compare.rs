//! `palbench compare`: pairs runs of a base and a changed build and
//! decides, per workload and end-to-end metric, whether the change
//! improved, regressed or left it unchanged.
//!
//! The rule: a host metric *improved* when the change wins at least 9 of
//! 10 pairs (ties count for neither) and the medians differ by more than
//! the base runs' interquartile range; it *regressed* when the change's
//! median is worse than the base median by more than the metric's bound;
//! it is *unresolved* when the base runs spread wider than the bound
//! (unless every change run beats every base run). Exact metrics
//! (simulated cycles, ratios) must be identical.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use crate::metrics::{Better, Kind, END_TO_END, PER_LAYER};
use crate::output::{read_result, RunResult};
use crate::stats::{median, quartiles};
use crate::workloads::Workload;

/// Pairs required before any decision is made.
pub const MIN_PAIRS: usize = 10;

/// One run: its results by workload name.
pub type Run = BTreeMap<String, RunResult>;

/// What a comparison found for one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better by the rule above.
    Improved,
    /// Worse by more than the bound.
    Regressed,
    /// Base runs spread wider than the bound.
    Unresolved,
    /// None of the above.
    Unchanged,
    /// A per-layer metric: reported, not judged.
    Info,
}

impl Verdict {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::Unchanged => "unchanged",
            Verdict::Info => "-",
        }
    }
}

/// One compared (workload, metric).
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Base median, first and third quartile.
    pub base: (f64, f64, f64),
    /// Change median, first and third quartile.
    pub change: (f64, f64, f64),
    /// Pairs the change won.
    pub wins: usize,
    /// Pairs compared.
    pub pairs: usize,
    /// The decision.
    pub verdict: Verdict,
}

/// Reads every run under `dir`: `dir` itself when it holds result files,
/// else each subdirectory in name order.
///
/// # Errors
///
/// Unreadable directories or result files.
pub fn read_runs(dir: &Path) -> Result<Vec<Run>, String> {
    let read_one = |d: &Path| -> Result<Option<Run>, String> {
        let mut run = Run::new();
        for w in Workload::ALL {
            let p = d.join(format!("{}.json", w.name()));
            if p.is_file() {
                run.insert(w.name().to_string(), read_result(&p)?);
            }
        }
        Ok((!run.is_empty()).then_some(run))
    };
    if let Some(run) = read_one(dir)? {
        return Ok(vec![run]);
    }
    let mut subdirs: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    subdirs.sort();
    let mut runs = Vec::new();
    for d in subdirs {
        if let Some(run) = read_one(&d)? {
            runs.push(run);
        }
    }
    Ok(runs)
}

fn started(run: &Run) -> u64 {
    run.values().map(|r| r.started_unix_ms).min().unwrap_or(0)
}

/// Compares paired runs.
///
/// # Errors
///
/// Refuses fewer than [`MIN_PAIRS`] pairs, unequal run counts, runs that
/// failed their oracle, runs whose seed, op counts or `--quick` setting
/// differ, and runs not taken in alternating order.
pub fn compare(base: &[Run], change: &[Run]) -> Result<Vec<Row>, String> {
    if base.len() != change.len() {
        return Err(format!(
            "{} base runs but {} change runs",
            base.len(),
            change.len()
        ));
    }
    if base.len() < MIN_PAIRS {
        return Err(format!(
            "{} pairs; at least {MIN_PAIRS} are needed",
            base.len()
        ));
    }
    let workloads: Vec<&String> = base[0].keys().collect();
    for (i, run) in base.iter().chain(change).enumerate() {
        if run.keys().collect::<Vec<_>>() != workloads {
            return Err(format!(
                "run {i} has different workloads than the first base run"
            ));
        }
        for (w, r) in run {
            let first = &base[0][w];
            if (r.seed, r.ops, r.traced_ops, r.quick)
                != (first.seed, first.ops, first.traced_ops, first.quick)
            {
                return Err(format!(
                    "{w}: runs differ in seed, op counts or --quick ({:?} vs {:?}); they cannot be compared",
                    (r.seed, r.ops, r.traced_ops, r.quick),
                    (first.seed, first.ops, first.traced_ops, first.quick)
                ));
            }
            if !r.correct {
                return Err(format!(
                    "{w}: a run failed its oracle; fix it before comparing"
                ));
            }
        }
    }
    let base_first: Vec<bool> = base
        .iter()
        .zip(change)
        .map(|(b, c)| started(b) < started(c))
        .collect();
    if base_first.windows(2).any(|w| w[0] == w[1]) {
        return Err(
            "pairs must alternate which side runs first (base, change, change, base, ...)".into(),
        );
    }

    let mut rows = Vec::new();
    for w in workloads {
        let values = |runs: &[Run], m: &str| -> Vec<f64> {
            runs.iter().filter_map(|r| r[w].metric(m)).collect()
        };
        for m in &END_TO_END {
            let (b, c) = (values(base, m.name), values(change, m.name));
            rows.push(row(
                w,
                m.name,
                m.unit,
                &b,
                &c,
                m.better,
                |b, c, wins| match m.kind {
                    Kind::Exact => exact_verdict(b, c, m.better),
                    Kind::Host => host_verdict(b, c, wins, m.better, m.bound),
                },
            ));
        }
        for m in &PER_LAYER {
            let (b, c) = (values(base, m.name), values(change, m.name));
            if b.is_empty() && c.is_empty() {
                continue;
            }
            rows.push(row(w, m.name, m.unit, &b, &c, m.better, |_, _, _| {
                Verdict::Info
            }));
        }
    }
    Ok(rows)
}

fn summary(v: &[f64]) -> (f64, f64, f64) {
    let (q1, q3) = quartiles(v);
    (median(v), q1, q3)
}

fn better_than(a: f64, b: f64, better: Better) -> bool {
    match better {
        Better::Higher => a > b,
        Better::Lower => a < b,
    }
}

fn row(
    w: &str,
    metric: &'static str,
    unit: &'static str,
    b: &[f64],
    c: &[f64],
    better: Better,
    decide: impl Fn(&[f64], &[f64], usize) -> Verdict,
) -> Row {
    let wins = b
        .iter()
        .zip(c)
        .filter(|(b, c)| better_than(**c, **b, better))
        .count();
    Row {
        workload: w.to_string(),
        metric,
        unit,
        base: summary(b),
        change: summary(c),
        wins,
        pairs: b.len().min(c.len()),
        verdict: decide(b, c, wins),
    }
}

fn exact_verdict(b: &[f64], c: &[f64], better: Better) -> Verdict {
    let constant = |v: &[f64]| v.windows(2).all(|w| w[0] == w[1]);
    if !constant(b) || !constant(c) {
        return Verdict::Unresolved;
    }
    match (b.first(), c.first()) {
        (Some(x), Some(y)) if x == y => Verdict::Unchanged,
        (Some(x), Some(y)) if better_than(*y, *x, better) => Verdict::Improved,
        (Some(_), Some(_)) => Verdict::Regressed,
        _ => Verdict::Unresolved,
    }
}

fn host_verdict(b: &[f64], c: &[f64], wins: usize, better: Better, bound: f64) -> Verdict {
    let (bm, bq1, bq3) = summary(b);
    let cm = median(c);
    let pairs = b.len().min(c.len());
    let gain = match better {
        Better::Higher => cm - bm,
        Better::Lower => bm - cm,
    };
    if wins * 10 >= pairs * 9 && gain > bq3 - bq1 {
        return Verdict::Improved;
    }
    if -gain > bound * bm.abs() {
        return Verdict::Regressed;
    }
    let all_better = c
        .iter()
        .all(|&x| b.iter().all(|&y| better_than(x, y, better)));
    if bq3 - bq1 > bound * bm.abs() && !all_better {
        return Verdict::Unresolved;
    }
    Verdict::Unchanged
}

/// Renders rows as an aligned text table.
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<10} {:<34} {:>28} {:>28} {:>6}  verdict\n",
        "workload", "metric", "base median [q1, q3]", "change median [q1, q3]", "wins"
    );
    for r in rows {
        let cell = |(m, q1, q3): (f64, f64, f64)| format!("{m:.4} [{q1:.4}, {q3:.4}]");
        out.push_str(&format!(
            "{:<10} {:<34} {:>28} {:>28} {:>6}  {}\n",
            r.workload,
            format!("{} ({})", r.metric, r.unit),
            cell(r.base),
            cell(r.change),
            format!("{}/{}", r.wins, r.pairs),
            r.verdict.name()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(started: u64, ops_per_s: f64, cycles: f64) -> Run {
        let r = RunResult {
            workload: "filter".into(),
            seed: 1,
            quick: false,
            ops: 100,
            traced_ops: 25,
            untraced_s: 1.0,
            started_unix_ms: started,
            correct: true,
            metrics: vec![
                ("ops_per_s".into(), ops_per_s),
                ("sim_cycles_per_op".into(), cycles),
            ],
        };
        Run::from([("filter".to_string(), r)])
    }

    /// Ten alternating pairs; `f(i)` gives (base, change) ops/s.
    fn pairs(f: impl Fn(usize) -> (f64, f64), cycles: (f64, f64)) -> (Vec<Run>, Vec<Run>) {
        (0..10)
            .map(|i| {
                let (b, c) = f(i);
                let (tb, tc) = if i % 2 == 0 {
                    (2 * i, 2 * i + 1)
                } else {
                    (2 * i + 1, 2 * i)
                };
                (run(tb as u64, b, cycles.0), run(tc as u64, c, cycles.1))
            })
            .unzip()
    }

    fn verdict(rows: &[Row], metric: &str) -> Verdict {
        rows.iter().find(|r| r.metric == metric).unwrap().verdict
    }

    #[test]
    fn decides_by_wins_spread_and_bound() {
        let noise = |i: usize| (i % 3) as f64;
        let (b, c) = pairs(
            |i| (1000.0 + noise(i), 1000.0 + noise(i + 1)),
            (500.0, 500.0),
        );
        let rows = compare(&b, &c).unwrap();
        assert_eq!(verdict(&rows, "ops_per_s"), Verdict::Unchanged);
        assert_eq!(verdict(&rows, "sim_cycles_per_op"), Verdict::Unchanged);

        let (b, c) = pairs(|i| (1000.0 + noise(i), 1200.0 + noise(i)), (500.0, 490.0));
        let rows = compare(&b, &c).unwrap();
        assert_eq!(verdict(&rows, "ops_per_s"), Verdict::Improved);
        assert_eq!(verdict(&rows, "sim_cycles_per_op"), Verdict::Improved);

        let (b, c) = pairs(|i| (1000.0 + noise(i), 700.0 + noise(i)), (500.0, 501.0));
        let rows = compare(&b, &c).unwrap();
        assert_eq!(verdict(&rows, "ops_per_s"), Verdict::Regressed);
        assert_eq!(verdict(&rows, "sim_cycles_per_op"), Verdict::Regressed);

        let wide = |i: usize| if i.is_multiple_of(2) { 700.0 } else { 1300.0 };
        let (b, c) = pairs(|i| (wide(i), wide(i + 1)), (500.0, 500.0));
        assert_eq!(
            verdict(&compare(&b, &c).unwrap(), "ops_per_s"),
            Verdict::Unresolved
        );
    }

    #[test]
    fn refuses_what_cannot_be_compared() {
        let (b, c) = pairs(|_| (1.0, 1.0), (1.0, 1.0));
        assert!(compare(&b[..9], &c[..9])
            .unwrap_err()
            .contains("at least 10"));
        assert!(compare(&b, &c[..9]).is_err());

        let mut c2 = c.clone();
        c2[3].get_mut("filter").unwrap().ops = 99;
        assert!(compare(&b, &c2).unwrap_err().contains("op counts"));

        let mut c3 = c.clone();
        c3[0].get_mut("filter").unwrap().started_unix_ms = 0;
        assert!(compare(&b, &c3).unwrap_err().contains("alternate"));

        let mut c4 = c;
        c4[5].get_mut("filter").unwrap().correct = false;
        assert!(compare(&b, &c4).unwrap_err().contains("oracle"));
    }
}
