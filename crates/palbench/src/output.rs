//! Result serialization: the `<workload>.json` result file, the one-line
//! result the benchmark prints last, and reading result files back.

use std::path::Path;

use crate::json::{self, Value};
use crate::measure::Report;
use crate::metrics::{unit_of, END_TO_END};

fn metrics_obj(metrics: &[(&'static str, f64)]) -> Value {
    Value::Obj(
        metrics
            .iter()
            .map(|&(name, v)| {
                let unit = unit_of(name).unwrap_or("");
                (
                    name.to_string(),
                    Value::Obj(vec![
                        ("value".into(), Value::Num(v)),
                        ("unit".into(), Value::Str(unit.into())),
                    ]),
                )
            })
            .collect(),
    )
}

fn num(v: u64) -> Value {
    Value::Num(v as f64)
}

/// The last output line: `correct`, `attempted`, `failed` and exactly
/// the metrics `BENCHMARK.json` declares: the end-to-end ones, or the
/// per-layer ones when `traced`.
pub fn result_line(r: &Report, traced: bool) -> String {
    let metrics: Vec<(&'static str, f64)> = if traced {
        r.per_layer.clone()
    } else {
        r.end_to_end
            .iter()
            .filter(|(name, _)| END_TO_END.iter().any(|m| m.name == *name && m.declared))
            .copied()
            .collect()
    };
    Value::Obj(vec![
        ("correct".into(), Value::Bool(r.correct())),
        ("attempted".into(), num(r.ops)),
        ("failed".into(), num(r.failed)),
        ("metrics".into(), metrics_obj(&metrics)),
    ])
    .render()
}

/// The full result file: run settings, failures and every metric.
pub fn result_file(r: &Report) -> String {
    let mut all = r.end_to_end.clone();
    all.extend(r.per_layer.iter().copied());
    Value::Obj(vec![
        ("workload".into(), Value::Str(r.workload.name().into())),
        ("seed".into(), num(r.seed)),
        ("quick".into(), Value::Bool(r.quick)),
        ("ops".into(), num(r.ops)),
        ("traced_ops".into(), num(r.traced_ops)),
        ("untraced_s".into(), Value::Num(r.untraced_s)),
        ("host_scale".into(), Value::Num(r.host_scale)),
        ("setup_runs".into(), num(r.setup_runs as u64)),
        ("host_cpus".into(), num(r.host_cpus as u64)),
        ("debug_build".into(), Value::Bool(r.debug_build)),
        ("started_unix_ms".into(), num(r.started_unix_ms)),
        ("correct".into(), Value::Bool(r.correct())),
        ("failed".into(), num(r.failed)),
        (
            "errors".into(),
            Value::Arr(r.errors.iter().map(|e| Value::Str(e.clone())).collect()),
        ),
        (
            "sim_match".into(),
            r.sim_match.map_or(Value::Null, Value::Bool),
        ),
        ("metrics".into(), metrics_obj(&all)),
    ])
    .render()
}

/// A result file read back.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Workload name.
    pub workload: String,
    /// Seed.
    pub seed: u64,
    /// `--quick` run.
    pub quick: bool,
    /// Untraced ops.
    pub ops: u64,
    /// Traced ops.
    pub traced_ops: u64,
    /// Host seconds of the untraced pass.
    pub untraced_s: f64,
    /// Wall-clock start, ms since the Unix epoch.
    pub started_unix_ms: u64,
    /// No op failed and the passes agreed.
    pub correct: bool,
    /// Metrics by name.
    pub metrics: Vec<(String, f64)>,
}

impl RunResult {
    /// A metric by name.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }
}

/// Reads a result file written by [`result_file`].
///
/// # Errors
///
/// The file is unreadable or not a result file.
pub fn read_result(path: &Path) -> Result<RunResult, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let v = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let field = |k: &str| {
        v.get(k)
            .ok_or_else(|| format!("{}: no `{k}`", path.display()))
    };
    let int = |k: &str| -> Result<u64, String> {
        field(k)?
            .as_f64()
            .map(|n| n as u64)
            .ok_or_else(|| format!("{}: `{k}` is not a number", path.display()))
    };
    let Some(Value::Obj(members)) = v.get("metrics") else {
        return Err(format!("{}: no metrics", path.display()));
    };
    let metrics = members
        .iter()
        .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
        .collect();
    Ok(RunResult {
        workload: field("workload")?.as_str().unwrap_or_default().to_string(),
        seed: int("seed")?,
        quick: field("quick")?.as_bool().unwrap_or(false),
        ops: int("ops")?,
        traced_ops: int("traced_ops")?,
        untraced_s: field("untraced_s")?.as_f64().unwrap_or(0.0),
        started_unix_ms: int("started_unix_ms")?,
        correct: field("correct")?.as_bool().unwrap_or(false),
        metrics,
    })
}
