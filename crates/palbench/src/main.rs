//! The `palbench` command line; see the crate README.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use palbench::compare::{self, Verdict};
use palbench::metrics::{unit_of, PER_LAYER};
use palbench::output::{read_result, result_file, result_line};
use palbench::{measure, Budget, Config, Report, Workload};

const USAGE: &str = "\
usage:
  palbench run [--seed N] [--quick] --out DIR
      every workload, each in its own child process, untraced and traced
  palbench bench --workload NAME [--seed N] [--seconds S | --quick] [--trace 0|1] [--out DIR]
      one workload; prints its metrics and, last, a one-line JSON result
  palbench compare BASE_DIR CHANGE_DIR
      judge paired runs of two builds (at least 10 pairs, alternating)
workloads: filter, cgi, lifecycle, fleet";

enum Fail {
    /// Bad command line: exit 2.
    Usage(String),
    /// The benchmark ran and something failed: exit 1.
    Failed(String),
}

#[derive(Default)]
struct Flags {
    workload: Option<Workload>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    out: Option<PathBuf>,
    positional: Vec<String>,
}

fn parse_flags(args: &[String]) -> Result<Flags, Fail> {
    let mut f = Flags::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| Fail::Usage(format!("{name} needs a value")))
        };
        let bad = |name: &str, v: &str| Fail::Usage(format!("bad {name} value `{v}`"));
        match a.as_str() {
            "--workload" => {
                let v = value(a)?;
                f.workload = Some(Workload::from_name(&v).ok_or_else(|| bad(a, &v))?);
            }
            "--seed" => {
                let v = value(a)?;
                f.seed = Some(v.parse().map_err(|_| bad(a, &v))?);
            }
            "--seconds" => {
                let v = value(a)?;
                let s: f64 = v.parse().map_err(|_| bad(a, &v))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad(a, &v));
                }
                f.seconds = Some(s);
            }
            "--trace" => {
                let v = value(a)?;
                f.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(a, &v)),
                };
            }
            "--out" => f.out = Some(PathBuf::from(value(a)?)),
            "--quick" => f.quick = true,
            flag if flag.starts_with("--") => {
                return Err(Fail::Usage(format!("unknown flag {flag}")))
            }
            _ => f.positional.push(a.clone()),
        }
    }
    Ok(f)
}

/// Timing an unoptimized build would measure the compiler's settings,
/// not the code.
fn refuse_debug(quick: bool) -> Result<(), Fail> {
    if cfg!(debug_assertions) && !quick {
        return Err(Fail::Usage(
            "refusing to measure a debug build: build with --release, or pass --quick".into(),
        ));
    }
    Ok(())
}

fn write(path: &Path, text: &str) -> Result<(), Fail> {
    std::fs::write(path, text).map_err(|e| Fail::Failed(format!("{}: {e}", path.display())))
}

fn bench(args: &[String]) -> Result<(), Fail> {
    let f = parse_flags(args)?;
    let workload = f
        .workload
        .ok_or_else(|| Fail::Usage("bench needs --workload".into()))?;
    if !f.positional.is_empty() {
        return Err(Fail::Usage(format!(
            "unexpected argument {}",
            f.positional[0]
        )));
    }
    refuse_debug(f.quick)?;
    let budget = match f.seconds {
        Some(s) => Budget::Seconds(s),
        None if f.quick => Budget::Ops(workload.quick_ops()),
        None => Budget::Ops(workload.ops()),
    };
    let cfg = Config {
        workload,
        seed: f.seed.unwrap_or(1),
        budget,
        trace: f.trace,
        quick: f.quick,
    };
    let report = measure(&cfg)
        .map_err(|e| Fail::Failed(format!("{}: set-up failed: {e}", workload.name())))?;
    for (name, v) in report.end_to_end.iter().chain(&report.per_layer) {
        print_metric(workload, name, *v);
    }
    println!(
        "{:<10} {:<34} {:>16.6}        -> reference kernel time / nominal; host times above are divided by a power of it",
        workload.name(),
        "host_scale",
        report.host_scale
    );
    for e in &report.errors {
        eprintln!("{}: {e}", workload.name());
    }
    if let Some(dir) = &f.out {
        std::fs::create_dir_all(dir)
            .map_err(|e| Fail::Failed(format!("{}: {e}", dir.display())))?;
        write(
            &dir.join(format!("{}.json", workload.name())),
            &result_file(&report),
        )?;
        if let Some(trace) = &report.trace {
            write(&dir.join(format!("trace-{}.json", workload.name())), trace)?;
        }
    }
    println!("{}", result_line(&report, f.trace));
    check(&report)
}

/// One metric by name with its unit and, for a per-layer metric, the
/// end-to-end metric it should move.
fn print_metric(workload: Workload, name: &str, v: f64) {
    let unit = unit_of(name).unwrap_or("");
    let moves = PER_LAYER
        .iter()
        .find(|m| m.name == name)
        .map_or(String::new(), |m| format!("  -> {}", m.moves));
    println!(
        "{:<10} {name:<34} {v:>16.6} {unit:<6}{moves}",
        workload.name()
    );
}

fn check(report: &Report) -> Result<(), Fail> {
    if report.correct() {
        return Ok(());
    }
    Err(Fail::Failed(format!(
        "{}: {} of {} ops failed their oracle{}",
        report.workload.name(),
        report.failed,
        report.ops,
        if report.sim_match == Some(false) {
            "; traced and untraced simulated metrics differ"
        } else {
            ""
        }
    )))
}

fn run(args: &[String]) -> Result<(), Fail> {
    let f = parse_flags(args)?;
    let out = f
        .out
        .ok_or_else(|| Fail::Usage("run needs --out DIR".into()))?;
    if f.workload.is_some() || f.seconds.is_some() || !f.positional.is_empty() {
        return Err(Fail::Usage(
            "run takes only --seed, --quick and --out".into(),
        ));
    }
    refuse_debug(f.quick)?;
    let exe = std::env::current_exe().map_err(|e| Fail::Failed(format!("own executable: {e}")))?;
    let seed = f.seed.unwrap_or(1).to_string();
    let mut failures = Vec::new();
    for w in Workload::ALL {
        // A result left by an earlier run must not pass for this one's.
        let path = out.join(format!("{}.json", w.name()));
        let _ = std::fs::remove_file(&path);
        // One child per workload, one at a time: each gets its own peak
        // RSS, and nothing else runs beside it.
        let mut cmd = Command::new(&exe);
        cmd.args([
            "bench",
            "--workload",
            w.name(),
            "--seed",
            &seed,
            "--trace",
            "1",
            "--out",
        ])
        .arg(&out)
        .stdout(Stdio::null());
        if f.quick {
            cmd.arg("--quick");
        }
        let status = cmd
            .status()
            .map_err(|e| Fail::Failed(format!("{}: cannot start: {e}", w.name())))?;
        if !status.success() {
            failures.push(format!("{} exited with {status}", w.name()));
        }
        let Ok(r) = read_result(&path) else {
            failures.push(format!("{}: no result at {}", w.name(), path.display()));
            continue;
        };
        println!(
            "== {}: seed {}, {} ops untraced in {:.1} s, {} traced, quick {}",
            w.name(),
            r.seed,
            r.ops,
            r.untraced_s,
            r.traced_ops,
            r.quick
        );
        for (name, v) in &r.metrics {
            print_metric(w, name, *v);
        }
        if r.metric("error_ratio").is_none_or(|e| e > 0.0) || !r.correct {
            failures.push(format!("{}: oracle failures (error_ratio > 0)", w.name()));
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(Fail::Failed(failures.join("\n")))
    }
}

fn compare_dirs(args: &[String]) -> Result<(), Fail> {
    let f = parse_flags(args)?;
    let [base, change] = f.positional.as_slice() else {
        return Err(Fail::Usage("compare needs BASE_DIR and CHANGE_DIR".into()));
    };
    let read = |d: &str| compare::read_runs(Path::new(d)).map_err(Fail::Usage);
    let rows = compare::compare(&read(base)?, &read(change)?).map_err(Fail::Usage)?;
    print!("{}", compare::render(&rows));
    let regressed: Vec<String> = rows
        .iter()
        .filter(|r| r.verdict == Verdict::Regressed)
        .map(|r| format!("{} {}", r.workload, r.metric))
        .collect();
    if regressed.is_empty() {
        Ok(())
    } else {
        Err(Fail::Failed(format!("regressed: {}", regressed.join(", "))))
    }
}

fn main() -> ExitCode {
    palbench::measure::steady_allocator();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rest = args.get(1..).unwrap_or_default();
    let result = match args.first().map(String::as_str) {
        Some("run") => run(rest),
        Some("bench") => bench(rest),
        Some("compare") => compare_dirs(rest),
        _ => Err(Fail::Usage("no command".into())),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(Fail::Usage(msg)) => {
            eprintln!("palbench: {msg}\n{USAGE}");
            ExitCode::from(2)
        }
        Err(Fail::Failed(msg)) => {
            eprintln!("palbench: {msg}");
            ExitCode::FAILURE
        }
    }
}
