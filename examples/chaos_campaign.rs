//! Seeded adversarial fault-injection campaign against both extension
//! mechanisms, with the DESIGN.md §6 containment oracle checking every
//! step.
//!
//! ```text
//! cargo run -p examples --bin chaos_campaign -- --seed 1 --steps 200 --jobs 4
//! ```
//!
//! Exits non-zero if any containment invariant was violated or any host
//! panic occurred; the event log is deterministic per seed *and per
//! worker count* — `--jobs N` fans episodes across N threads with a
//! byte-identical report.
//! `--report <path>` additionally writes the summary to a file (the CI
//! `chaos_recovery` job uploads it as an artifact).
//! `--boot fork|cold` selects whether episodes fork from one warmed
//! template world (the default; copy-on-write, microsecond boot) or
//! cold-boot each episode — a host-performance knob only, the reports
//! are byte-identical (the CI `snapshot_fork` job compares them).
//! `--predecode on|off` likewise switches the simulator's predecode fast
//! path (predecode cache and translation tables) in every episode; the
//! reports are byte-identical either way.
//!
//! `--crash-drill` runs a durable-checkpoint crash drill instead of the
//! campaign: a seeded call workload checkpoints every
//! `--checkpoint-every N` calls (images under
//! `target/checkpoints/chaos_campaign/`), the world is "host-crashed"
//! two thirds of the way through, the newest image is damaged by a
//! seeded chaos injector, and recovery walks the lineage back to the
//! newest intact generation. The drill then proves the recovery honest
//! twice over: the corrupt image must be rejected with a typed error
//! (never silently restored), and the restored world must finish the
//! workload byte-identical to an uninterrupted run.

use chaos::campaign::{self, CampaignConfig};
use chaos::corrupt;
use palladium::{DlopenOptions, Session};
use seedrng::SeedRng;

fn usage_error(what: &str) -> ! {
    eprintln!("{what}");
    eprintln!(
        "usage: chaos_campaign [--seed N] [--steps N] [--jobs N] [--cycle-limit N] \
         [--boot fork|cold] [--predecode on|off] [--report PATH] [--crash-drill] \
         [--checkpoint-every N]"
    );
    std::process::exit(2);
}

fn numeric_value<T: std::str::FromStr>(args: &mut impl Iterator<Item = String>, flag: &str) -> T {
    match args.next() {
        Some(v) => v
            .parse()
            .unwrap_or_else(|_| usage_error(&format!("{flag} expects a number, got `{v}`"))),
        None => usage_error(&format!("{flag} requires a value")),
    }
}

/// Boots a session with one verified extension and returns it with the
/// extension's `Prepare` address. Deterministic: two builds (or a build
/// and a restore) agree on every address.
fn build_world() -> (Session, u32) {
    let mut s = Session::new().expect("boot");
    let ext = asm86::Assembler::assemble("double:\nmov eax, [esp+4]\nadd eax, eax\nret\n")
        .expect("assemble");
    let h = s
        .dlopen(&ext, &DlopenOptions::new().verify(&["double"]))
        .expect("dlopen");
    let f = s.dlsym(h, "double").expect("dlsym");
    (s, f)
}

/// The seeded crash drill: checkpoint a call workload every `every`
/// calls, crash and damage the newest image, walk back, restore, finish
/// — and require the finish to be byte-identical to never crashing.
fn crash_drill(seed: u64, steps: u32, every: u32) -> Result<String, String> {
    let dir = "target/checkpoints/chaos_campaign";
    std::fs::create_dir_all(dir).map_err(|e| format!("create {dir}: {e}"))?;
    let arg_for = |i: u32| SeedRng::new(seed ^ 0x0CA1_1A46 ^ u64::from(i)).gen_range(1, 1 << 16);
    let crash_at = steps * 2 / 3;

    let mut out = format!(
        "chaos crash drill: seed {seed} / {steps} calls / checkpoint every {every} / \
         crash at call {crash_at}\n"
    );
    let (mut live, f) = build_world();
    let mut lineage: Vec<Vec<u8>> = Vec::new();
    for i in 0..crash_at {
        live.call(f, arg_for(i))
            .map_err(|e| format!("call {i}: {e}"))?;
        if (i + 1) % every == 0 {
            let img = live.checkpoint();
            let path = format!("{dir}/gen{}.pdim", lineage.len());
            std::fs::write(&path, &img).map_err(|e| format!("write {path}: {e}"))?;
            lineage.push(img);
        }
    }
    drop(live); // the crash: the in-memory world is gone
    if lineage.len() < 2 {
        return Err("drill needs at least two checkpoint generations before the crash".into());
    }
    out.push_str(&format!(
        "crash: world dropped after call {crash_at} ({} checkpoint generations on disk)\n",
        lineage.len()
    ));

    // Storage damage: the newest generation is corrupted by a seeded
    // chaos injector...
    let newest = lineage.len() - 1;
    let mut crng = SeedRng::new(seed ^ 0xBAD_5EED);
    let (kind, bad) = corrupt::corrupted_image(&lineage[newest], &mut crng);
    lineage[newest] = bad;
    out.push_str(&format!(
        "damage: checkpoint gen {newest} corrupted on disk ({})\n",
        kind.tag()
    ));

    // ...and recovery walks the lineage newest-first. The corrupt image
    // must be rejected with a typed error — silent restore is the one
    // unforgivable outcome.
    let mut restored = None;
    let mut recovered_gen = 0;
    for g in (0..lineage.len()).rev() {
        match Session::restore(&lineage[g]) {
            Ok(s) => {
                out.push_str(&format!("recovery: restored from gen {g}\n"));
                recovered_gen = g as u32;
                restored = Some(s);
                break;
            }
            Err(e) => out.push_str(&format!("recovery: gen {g} rejected ({e})\n")),
        }
    }
    let mut live = restored.ok_or("no generation restored — lineage walk-back exhausted")?;
    if recovered_gen as usize == newest {
        return Err(format!(
            "corrupt image ({}) was silently restored",
            kind.tag()
        ));
    }

    // Finish the workload from the restored world, then prove the crash
    // left no trace: an uninterrupted twin run must produce the same
    // bytes.
    for i in (recovered_gen + 1) * every..steps {
        live.call(f, arg_for(i))
            .map_err(|e| format!("call {i} after restore: {e}"))?;
    }
    let survivor = live.checkpoint();

    let (mut twin, tf) = build_world();
    for i in 0..steps {
        twin.call(tf, arg_for(i))
            .map_err(|e| format!("twin call {i}: {e}"))?;
    }
    if twin.checkpoint() != survivor {
        return Err("restored world diverged from the uninterrupted run".into());
    }
    out.push_str(&format!(
        "converged: finished {} remaining calls; final image ({} bytes) is byte-identical \
         to an uninterrupted run\n",
        steps - (recovered_gen + 1) * every,
        survivor.len()
    ));
    Ok(out)
}

fn main() {
    let mut cfg = CampaignConfig::default();
    let mut report_path: Option<String> = None;
    let mut run_drill = false;
    let mut checkpoint_every: Option<u32> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--seed" => cfg.seed = numeric_value(&mut args, "--seed"),
            "--steps" => cfg.steps = numeric_value(&mut args, "--steps"),
            "--cycle-limit" => cfg.cycle_limit = numeric_value(&mut args, "--cycle-limit"),
            "--jobs" => cfg.jobs = numeric_value(&mut args, "--jobs"),
            "--boot" => match args.next().as_deref() {
                Some("fork") => cfg.fork_boot = true,
                Some("cold") => cfg.fork_boot = false,
                Some(v) => usage_error(&format!("--boot expects fork|cold, got `{v}`")),
                None => usage_error("--boot requires a value"),
            },
            "--predecode" => match args.next().as_deref() {
                Some("on") => cfg.predecode = true,
                Some("off") => cfg.predecode = false,
                Some(v) => usage_error(&format!("--predecode expects on|off, got `{v}`")),
                None => usage_error("--predecode requires a value"),
            },
            "--crash-drill" => run_drill = true,
            "--checkpoint-every" => {
                checkpoint_every = Some(numeric_value(&mut args, "--checkpoint-every"));
            }
            "--report" => match args.next() {
                Some(p) => report_path = Some(p),
                None => usage_error("--report requires a path"),
            },
            other => usage_error(&format!("unknown argument `{other}`")),
        }
    }
    if checkpoint_every.is_some() && !run_drill {
        usage_error("--checkpoint-every requires --crash-drill");
    }

    if run_drill {
        match crash_drill(cfg.seed, cfg.steps, checkpoint_every.unwrap_or(25).max(1)) {
            Ok(text) => {
                print!("{text}");
                if let Some(path) = report_path {
                    if let Err(e) = std::fs::write(&path, &text) {
                        eprintln!("could not write report to {path}: {e}");
                        std::process::exit(2);
                    }
                }
            }
            Err(e) => {
                eprintln!("crash drill failed: {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    let header = format!(
        "chaos campaign: seed {} / {} steps / cycle limit {} / {} jobs",
        cfg.seed, cfg.steps, cfg.cycle_limit, cfg.jobs
    );
    println!("{header}");
    let report = campaign::run(&cfg);
    let summary = campaign::summarize(&report);
    print!("{summary}");
    if let Some(path) = report_path {
        if let Err(e) = std::fs::write(&path, format!("{header}\n{summary}")) {
            eprintln!("could not write report to {path}: {e}");
            std::process::exit(2);
        }
    }

    if !report.violations.is_empty() || report.host_panics != 0 {
        std::process::exit(1);
    }
}
