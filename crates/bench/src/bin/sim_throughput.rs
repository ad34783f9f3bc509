//! Host simulation throughput: guest instructions per host second on the
//! figure7, chaos, webserver and kext_dispatch workloads, with the
//! predecode fast path on (fast) and off (baseline); kext_dispatch runs
//! an unverified kernel extension in both modes. The `figure7_hoist`
//! and `kext_hoist` rows isolate proof-directed check elision: both
//! modes are verified, fast is proof-hoisted (per-access limit/PPL
//! checks collapsed to one guard at block entry) and baseline is
//! verified-unhoisted. Each row records both modes' best batch time
//! (`*_secs`, which the steps/s and speedup columns use) and their median
//! batch time (`*_median_secs`), so the spread shows. Written to
//! `BENCH_sim_throughput.json`.
//!
//! `host_cpus` records the machine's available parallelism.
//!
//! A second section, `backends`, records each isolation backend's
//! warm-call and dispatch cycles and its containment outcomes.
//!
//! A third section, `fleet`, records the canaried rollout scenarios of
//! `crates/fleet`: requests served / degraded / dropped while a version
//! rolls out, the rollback latency when the canary trips, and the
//! time-to-converge of a healthy promotion.
//!
//! A fourth section, `startup`, compares cold-booting a shard world
//! against forking a warmed template (copy-on-write snapshot/fork):
//! host seconds for each, and the speedup.
//!
//! A fifth section, `durability`, covers durable checkpoints: image
//! size, trailer CRC (a fingerprint of every byte) and save/restore
//! latency for each world layer (machine, kernel, session, replica),
//! plus the fleet crash-recovery drills — a replica killed mid-stream
//! and restored from its checkpoint lineage, with and without corrupted
//! newest generations forcing a walk-back.
//!
//! Usage: `sim_throughput [--quick] [--out <path>]`

use bench::{
    BackendMatrixRow, DrillPoint, DurabilityPoint, FleetPoint, StartupPoint, ThroughputPoint,
};

fn json_escape_free_number(v: f64) -> String {
    // All values here are finite and positive; keep a stable format.
    format!("{v:.6}")
}

fn json_opt<T: std::fmt::Display>(v: Option<T>) -> String {
    v.map_or_else(|| "null".to_string(), |v| v.to_string())
}

/// The measured sections of the report, in emission order.
struct Sections<'a> {
    pts: &'a [ThroughputPoint],
    matrix: &'a [BackendMatrixRow],
    fleet: &'a [FleetPoint],
    startup: &'a [StartupPoint],
    durability: &'a [DurabilityPoint],
    drills: &'a [DrillPoint],
}

fn to_json(sections: &Sections<'_>, quick: bool) -> String {
    let &Sections {
        pts,
        matrix,
        fleet,
        startup,
        durability,
        drills,
    } = sections;
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"benchmark\": \"sim_throughput\",\n");
    s.push_str("  \"unit\": \"guest_insns_per_host_sec\",\n");
    s.push_str(&format!("  \"quick\": {quick},\n"));
    s.push_str(&format!(
        "  \"host_cpus\": {},\n",
        parex::host_parallelism()
    ));
    s.push_str("  \"workloads\": [\n");
    for (i, p) in pts.iter().enumerate() {
        s.push_str("    {\n");
        s.push_str(&format!("      \"workload\": \"{}\",\n", p.workload));
        s.push_str(&format!("      \"guest_insns\": {},\n", p.fast_insns));
        s.push_str(&format!(
            "      \"fast_secs\": {},\n",
            json_escape_free_number(p.fast_secs)
        ));
        s.push_str(&format!(
            "      \"fast_median_secs\": {},\n",
            json_escape_free_number(p.fast_median_secs)
        ));
        s.push_str(&format!(
            "      \"fast_steps_per_sec\": {},\n",
            json_escape_free_number(p.fast_ips())
        ));
        s.push_str(&format!(
            "      \"baseline_secs\": {},\n",
            json_escape_free_number(p.base_secs)
        ));
        s.push_str(&format!(
            "      \"baseline_median_secs\": {},\n",
            json_escape_free_number(p.base_median_secs)
        ));
        s.push_str(&format!(
            "      \"baseline_steps_per_sec\": {},\n",
            json_escape_free_number(p.base_ips())
        ));
        s.push_str(&format!(
            "      \"speedup\": {}\n",
            json_escape_free_number(p.speedup())
        ));
        s.push_str(if i + 1 == pts.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    s.push_str("  ],\n");
    // Guest-cycle numbers: bit-reproducible across hosts, unlike the
    // wall-clock sections.
    s.push_str("  \"backends\": [\n");
    for (i, r) in matrix.iter().enumerate() {
        let (contained, total) = r.coverage();
        s.push_str("    {\n");
        s.push_str(&format!("      \"backend\": \"{}\",\n", r.backend));
        s.push_str(&format!(
            "      \"warm_call_cycles\": {},\n",
            r.warm_call_cycles
        ));
        s.push_str(&format!(
            "      \"dispatch_cycles\": {},\n",
            r.dispatch_cycles
        ));
        s.push_str(&format!(
            "      \"dispatch_per_mcycle\": {},\n",
            json_escape_free_number(r.dispatch_per_mcycle())
        ));
        s.push_str("      \"containment\": [\n");
        for (j, c) in r.containment.iter().enumerate() {
            s.push_str(&format!(
                "        {{ \"scenario\": \"{}\", \"outcome\": \"{}\", \"contained\": {} }}{}\n",
                c.scenario,
                c.outcome,
                c.contained,
                if j + 1 == r.containment.len() {
                    ""
                } else {
                    ","
                }
            ));
        }
        s.push_str("      ],\n");
        s.push_str(&format!("      \"coverage\": \"{contained}/{total}\"\n"));
        s.push_str(if i + 1 == matrix.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    s.push_str("  ],\n");
    s.push_str("  \"fleet\": [\n");
    for (i, p) in fleet.iter().enumerate() {
        s.push_str("    {\n");
        s.push_str(&format!("      \"scenario\": \"{}\",\n", p.scenario));
        s.push_str(&format!("      \"replicas\": {},\n", p.replicas));
        s.push_str(&format!("      \"rounds\": {},\n", p.rounds));
        s.push_str(&format!("      \"served\": {},\n", p.served));
        s.push_str(&format!("      \"degraded\": {},\n", p.degraded));
        s.push_str(&format!("      \"dropped\": {},\n", p.dropped));
        s.push_str(&format!("      \"outcome\": \"{}\",\n", p.outcome));
        s.push_str(&format!(
            "      \"rollback_round\": {},\n",
            json_opt(p.rollback_round)
        ));
        s.push_str(&format!(
            "      \"rollback_latency_cycles\": {},\n",
            json_opt(p.rollback_latency_cycles)
        ));
        s.push_str(&format!(
            "      \"converged_round\": {},\n",
            json_opt(p.converged_round)
        ));
        s.push_str(&format!(
            "      \"availability_bp\": {},\n",
            p.availability_bp
        ));
        s.push_str(&format!("      \"guest_insns\": {},\n", p.guest_insns));
        s.push_str(&format!(
            "      \"host_secs\": {}\n",
            json_escape_free_number(p.host_secs)
        ));
        s.push_str(if i + 1 == fleet.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    s.push_str("  ],\n");
    s.push_str("  \"startup\": [\n");
    for (i, p) in startup.iter().enumerate() {
        s.push_str("    {\n");
        s.push_str(&format!("      \"world\": \"{}\",\n", p.world));
        // Nanosecond resolution: a fork is sub-microsecond, which the
        // 6-decimal format used elsewhere would round to 0.0.
        s.push_str(&format!("      \"cold_boot_secs\": {:.9},\n", p.cold_secs));
        s.push_str(&format!("      \"fork_secs\": {:.9},\n", p.fork_secs));
        s.push_str(&format!(
            "      \"speedup\": {}\n",
            json_escape_free_number(p.speedup())
        ));
        s.push_str(if i + 1 == startup.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    s.push_str("  ],\n");
    s.push_str("  \"durability\": {\n");
    s.push_str("    \"images\": [\n");
    for (i, p) in durability.iter().enumerate() {
        s.push_str("      {\n");
        s.push_str(&format!("        \"world\": \"{}\",\n", p.world));
        s.push_str(&format!("        \"image_bytes\": {},\n", p.image_bytes));
        s.push_str(&format!("        \"image_crc\": {},\n", p.image_crc));
        // Nanosecond resolution, as for `startup`: a machine-image save
        // is in the microseconds.
        s.push_str(&format!("        \"save_secs\": {:.9},\n", p.save_secs));
        s.push_str(&format!(
            "        \"restore_secs\": {:.9}\n",
            p.restore_secs
        ));
        s.push_str(if i + 1 == durability.len() {
            "      }\n"
        } else {
            "      },\n"
        });
    }
    s.push_str("    ],\n");
    s.push_str("    \"drills\": [\n");
    for (i, p) in drills.iter().enumerate() {
        s.push_str("      {\n");
        s.push_str(&format!("        \"scenario\": \"{}\",\n", p.scenario));
        s.push_str(&format!("        \"outcome\": \"{}\",\n", p.outcome));
        s.push_str(&format!(
            "        \"generations_walked\": {},\n",
            p.generations_walked
        ));
        s.push_str(&format!(
            "        \"recovery_degraded\": {},\n",
            p.recovery_degraded
        ));
        s.push_str(&format!(
            "        \"rounds_to_converge\": {},\n",
            json_opt(p.rounds_to_converge)
        ));
        s.push_str(&format!(
            "        \"availability_bp\": {},\n",
            p.availability_bp
        ));
        s.push_str(&format!(
            "        \"largest_image_bytes\": {},\n",
            p.largest_image_bytes
        ));
        s.push_str(&format!(
            "        \"host_secs\": {}\n",
            json_escape_free_number(p.host_secs)
        ));
        s.push_str(if i + 1 == drills.len() {
            "      }\n"
        } else {
            "      },\n"
        });
    }
    s.push_str("    ]\n  }\n}\n");
    s
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_sim_throughput.json".to_string());
    let scale = if quick { 1 } else { 5 };
    let pts = bench::measure_sim_throughput(scale);

    println!("Host simulation throughput (guest instructions / host second)");
    println!(
        "{:>10} {:>12} {:>14} {:>14} {:>9}",
        "Workload", "Insns", "Baseline/s", "Fast/s", "Speedup"
    );
    for p in &pts {
        println!(
            "{:>10} {:>12} {:>14.0} {:>14.0} {:>8.2}x",
            p.workload,
            p.fast_insns,
            p.base_ips(),
            p.fast_ips(),
            p.speedup()
        );
    }

    let matrix = bench::measure_backend_matrix();
    println!("\nIsolation-backend matrix (guest cycles; bit-reproducible)");
    println!(
        "{:>10} {:>10} {:>10} {:>12} {:>9}",
        "Backend", "Call", "Dispatch", "Disp/Mcyc", "Coverage"
    );
    for r in &matrix {
        let (contained, total) = r.coverage();
        println!(
            "{:>10} {:>10} {:>10} {:>12.1} {:>6}/{}",
            r.backend,
            r.warm_call_cycles,
            r.dispatch_cycles,
            r.dispatch_per_mcycle(),
            contained,
            total
        );
        for c in &r.containment {
            println!("{:>22}: {}", c.scenario, c.outcome);
        }
    }

    let fleet = bench::measure_fleet(scale);
    println!("\nFleet rollout (canaried roll + SLO-driven rollback)");
    println!(
        "{:>10} {:>12} {:>9} {:>9} {:>8} {:>14} {:>10}",
        "Scenario", "Outcome", "Served", "Degraded", "Dropped", "RollbackCycles", "Converged"
    );
    for p in &fleet {
        println!(
            "{:>10} {:>12} {:>9} {:>9} {:>8} {:>14} {:>10}",
            p.scenario,
            p.outcome,
            p.served,
            p.degraded,
            p.dropped,
            p.rollback_latency_cycles
                .map_or_else(|| "-".to_string(), |c| c.to_string()),
            p.converged_round
                .map_or_else(|| "-".to_string(), |r| format!("round {r}")),
        );
    }

    let startup = bench::measure_startup();
    println!("\nWorld startup: cold boot vs copy-on-write fork");
    println!(
        "{:>10} {:>14} {:>14} {:>9}",
        "World", "Cold (us)", "Fork (us)", "Speedup"
    );
    for p in &startup {
        println!(
            "{:>10} {:>14.1} {:>14.3} {:>8.0}x",
            p.world,
            p.cold_secs * 1e6,
            p.fork_secs * 1e6,
            p.speedup()
        );
    }

    let durability = bench::measure_durability();
    println!("\nDurable checkpoints: image size and save/restore latency");
    println!(
        "{:>10} {:>12} {:>12} {:>14}",
        "World", "Image (B)", "Save (us)", "Restore (us)"
    );
    for p in &durability {
        println!(
            "{:>10} {:>12} {:>12.1} {:>14.1}",
            p.world,
            p.image_bytes,
            p.save_secs * 1e6,
            p.restore_secs * 1e6
        );
    }

    let drills = bench::measure_drills(scale);
    println!("\nFleet crash-recovery drills");
    println!(
        "{:>10} {:>24} {:>7} {:>10} {:>9} {:>8}",
        "Scenario", "Outcome", "Walked", "503s", "Converge", "Avail"
    );
    for p in &drills {
        println!(
            "{:>10} {:>24} {:>7} {:>10} {:>9} {:>7}bp",
            p.scenario,
            p.outcome,
            p.generations_walked,
            p.recovery_degraded,
            p.rounds_to_converge
                .map_or_else(|| "-".to_string(), |r| format!("{r} rds")),
            p.availability_bp,
        );
    }

    let json = to_json(
        &Sections {
            pts: &pts,
            matrix: &matrix,
            fleet: &fleet,
            startup: &startup,
            durability: &durability,
            drills: &drills,
        },
        quick,
    );
    std::fs::write(&out, json).expect("write benchmark JSON");
    println!("\nwrote {out}");
}
