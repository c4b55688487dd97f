//! `si-perfbench` — run one benchmark workload, or rebuild its references.
//!
//! ```text
//! si-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! si-perfbench --bless <name|all>     rewrite refs/<name>.txt, oracle-checked
//! ```
//!
//! Workloads: `unfolding`, `auto_small`, `symbolic_shallow`,
//! `symbolic_deep`. A run prints a `host` line, one `row` line per spec, a
//! `summary` line, and as its last line one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics, or the
//! per-layer ones with `--trace 1`).

use std::process::ExitCode;
use std::time::Instant;

use si_perfbench::check::{oracle, parse_references, reference_text, render_references, Reference};
use si_perfbench::flows::{host_cpus, resolved_bdd_threads, resolved_workers, synthesize};
use si_perfbench::pool::Workload;
use si_perfbench::run::{run, tail_latency, Config, Report};
use si_perfbench::stats::median;
use si_perfbench::{json_number, json_string};

fn main() -> ExitCode {
    match real_main() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("si-perfbench: {msg}");
            ExitCode::from(2)
        }
    }
}

fn real_main() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Option<&str> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    if let Some(which) = value("--bless") {
        return for_each_workload(which, bless);
    }
    let workload = value("--workload").ok_or("--workload is required")?;
    let workload =
        Workload::parse(workload).ok_or_else(|| format!("unknown workload `{workload}`"))?;
    let seed: u64 = value("--seed")
        .ok_or("--seed is required")?
        .parse()
        .map_err(|_| "--seed needs a whole number")?;
    let seconds: f64 = value("--seconds")
        .ok_or("--seconds is required")?
        .parse()
        .ok()
        .filter(|s: &f64| s.is_finite() && *s >= 0.0)
        .ok_or("--seconds needs a non-negative number")?;
    let trace = match value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace needs 0 or 1, got `{other}`")),
    };
    let cfg = Config {
        workload,
        seed,
        seconds,
        trace,
    };
    println!(
        "host {{\"workload\":{},\"seed\":{seed},\"trace\":{},\"host_cpus\":{},\"workers\":{},\
         \"bdd_threads\":{},\"rustc\":{}}}",
        json_string(workload.name()),
        u8::from(trace),
        host_cpus(),
        resolved_workers(),
        resolved_bdd_threads(),
        json_string(env!("PERFBENCH_RUSTC_VERSION")),
    );
    let report = run(&cfg)?;
    print_report(&report);
    Ok(())
}

fn print_report(report: &Report) {
    for row in &report.rows {
        println!(
            "row {{\"spec\":{},\"route\":{},\"latency_ms\":{},\"samples\":{},\"literals\":{},\
             \"outcome\":{}}}",
            json_string(&row.spec),
            json_string(row.route),
            json_number(median(&row.latencies_ms).unwrap_or(0.0)),
            row.latencies_ms.len(),
            row.literals,
            json_string(&row.outcome),
        );
    }
    let p90 =
        tail_latency(&report.latencies_ms, 0.9).map_or_else(|| "null".to_owned(), json_number);
    println!(
        "summary {{\"rounds\":{},\"latency_samples\":{},\"latency_ms.p90\":{p90},\
         \"failed_ratio\":{},\"pins_changed\":{}}}",
        report.rounds,
        report.latencies_ms.len(),
        json_number(report.failed as f64 / report.attempted.max(1) as f64),
        report.pins_changed,
    );
    let metrics = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_string(name),
                json_number(*value),
                json_string(unit)
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        report.correct, report.attempted, report.failed
    );
}

fn for_each_workload(which: &str, f: fn(Workload) -> Result<(), String>) -> Result<(), String> {
    if which == "all" {
        Workload::ALL.into_iter().try_for_each(f)
    } else {
        f(Workload::parse(which).ok_or_else(|| format!("unknown workload `{which}`"))?)
    }
}

/// Rewrites the workload's reference file: every candidate is synthesised
/// and must pass the oracle before its output is pinned.
fn bless(workload: Workload) -> Result<(), String> {
    let old = parse_references(reference_text(workload)).unwrap_or_default();
    let mut refs = std::collections::BTreeMap::new();
    for candidate in workload.candidates() {
        let out = synthesize(workload.flow(), &candidate.g_text())
            .map_err(|e| format!("{}: {e}", candidate.id))?;
        let start = Instant::now();
        oracle(&out.stg, &out.gates).map_err(|e| format!("{}: {e}", candidate.id))?;
        let reference = Reference {
            equations: out.equations,
            literals: out.literals,
        };
        let note = match old.get(&candidate.id) {
            Some(r) if *r == reference => "unchanged",
            Some(_) => "CHANGED",
            None => "new",
        };
        eprintln!(
            "{:<18} {:<28} {:>6} literals, oracle {:.2}s, {note}",
            workload.name(),
            candidate.id,
            reference.literals,
            start.elapsed().as_secs_f64()
        );
        refs.insert(candidate.id, reference);
    }
    let path = format!(
        "{}/refs/{}.txt",
        env!("CARGO_MANIFEST_DIR"),
        workload.name()
    );
    std::fs::write(&path, render_references(workload, &refs))
        .map_err(|e| format!("cannot write `{path}`: {e}"))
}
