//! `cargo xtask bench` — symbolic-engine scaling harness.
//!
//! Runs the SG flow's BDD engine over the large `benchmarks/*.g`
//! specifications and reports one row per specification: end-to-end wall
//! clock and the reach/extract split (extraction is the ISOP front end
//! turning the reachable BDD into per-signal implicit sets), each the
//! minimum over [`RUNS`] repetitions; the live peak after a collection; the
//! pool peak; and the deterministic kernel operation counts. Every
//! repetition must reproduce the first one's gate equations, state count
//! and op counts, so the harness doubles as a determinism gate.
//!
//! With `--json`, the rows are also written to `BENCH_symbolic.json` at
//! the workspace root. `--baseline FILE` names a JSON file this harness
//! wrote on an earlier commit: each row then also carries that run's
//! `wall_ms`/`reach_ms` as `before_wall_ms`/`before_reach_ms`, so one file
//! holds the before/after pair of a kernel change. CI pins the
//! machine-independent columns (op counts, equations), not the wall clock.

use std::process::ExitCode;
use std::time::Instant;

use si_stategraph::{
    check_implementable, synthesize_from_on_off_sets, ReorderPolicy, SgEngine, SgSynthesisOptions,
    SymbolicSg,
};
use si_stg::{parse_g, Stg};

/// Default benchmark set: the large specifications the symbolic engine
/// targets plus one small control.
const DEFAULT_BENCHES: &[&str] = &[
    "muller_pipeline_20",
    "muller_pipeline_24",
    "wide_arbiter_20",
    "token_ring_12",
];

/// Repetitions per specification (the row keeps the minimum).
const RUNS: usize = 3;

/// Determinism reference from the first repetition: equations, state
/// count, `(ite, exists, and_exists)` op counts.
type Fingerprint = (Vec<String>, u128, (u64, u64, u64));

/// One specification's measured row.
struct Row {
    benchmark: String,
    runs: usize,
    wall_ms: f64,
    reach_ms: f64,
    extract_ms: f64,
    /// `(wall_ms, reach_ms)` of the baseline file's row, if any.
    before: Option<(f64, f64)>,
    states: u128,
    peak_live_nodes: usize,
    peak_pool: usize,
    ops_ite: u64,
    ops_exists: u64,
    ops_and_exists: u64,
    literals: usize,
    deterministic: bool,
}

/// One repetition's measurements.
struct Sample {
    wall_ms: f64,
    reach_ms: f64,
    extract_ms: f64,
    fingerprint: Fingerprint,
    peak_live_nodes: usize,
    peak_pool: usize,
    literals: usize,
}

pub fn run(args: Vec<String>) -> ExitCode {
    let mut json = false;
    let mut baseline: Option<String> = None;
    let mut names: Vec<String> = Vec::new();
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--baseline" => match iter.next() {
                Some(path) => match std::fs::read_to_string(&path) {
                    Ok(text) => baseline = Some(text),
                    Err(e) => {
                        eprintln!("cannot read {path}: {e}");
                        return ExitCode::from(2);
                    }
                },
                None => {
                    eprintln!("--baseline needs a file written by `bench --json`");
                    return ExitCode::from(2);
                }
            },
            name => names.push(name.trim_end_matches(".g").to_owned()),
        }
    }
    if names.is_empty() {
        names = DEFAULT_BENCHES.iter().map(|s| (*s).to_owned()).collect();
    }

    let root = crate::workspace_root();
    let mut rows: Vec<Row> = Vec::new();
    println!(
        "{:<20} {:>9} {:>9} {:>9} {:>12} {:>10} {:>8} {:>8} {:>5}",
        "benchmark", "wall-ms", "reach-ms", "ext-ms", "states", "peak-live", "ite", "exists", "det"
    );
    for name in &names {
        let path = root.join("benchmarks").join(format!("{name}.g"));
        let stg = match std::fs::read_to_string(&path) {
            Ok(text) => match parse_g(&text) {
                Ok(stg) => stg,
                Err(e) => {
                    eprintln!("{}: {e}", path.display());
                    return ExitCode::from(2);
                }
            },
            Err(e) => {
                eprintln!("cannot read {}: {e}", path.display());
                return ExitCode::from(2);
            }
        };
        let mut samples: Vec<Sample> = Vec::with_capacity(RUNS);
        for _ in 0..RUNS {
            match measure(&stg) {
                Ok(sample) => samples.push(sample),
                Err(e) => {
                    eprintln!("{name}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        let first = &samples[0];
        let min = |f: fn(&Sample) -> f64| samples.iter().map(f).fold(f64::INFINITY, f64::min);
        let (_, states, (ite, exists, and_exists)) = first.fingerprint;
        let row = Row {
            benchmark: name.clone(),
            runs: RUNS,
            wall_ms: min(|s| s.wall_ms),
            reach_ms: min(|s| s.reach_ms),
            extract_ms: min(|s| s.extract_ms),
            before: baseline.as_deref().and_then(|b| baseline_times(b, name)),
            states,
            peak_live_nodes: first.peak_live_nodes,
            peak_pool: first.peak_pool,
            ops_ite: ite,
            ops_exists: exists,
            ops_and_exists: and_exists,
            literals: first.literals,
            deterministic: samples.iter().all(|s| s.fingerprint == first.fingerprint),
        };
        println!(
            "{:<20} {:>9.1} {:>9.1} {:>9.1} {:>12} {:>10} {:>8} {:>8} {:>5}",
            row.benchmark,
            row.wall_ms,
            row.reach_ms,
            row.extract_ms,
            row.states,
            row.peak_live_nodes,
            row.ops_ite,
            row.ops_exists,
            if row.deterministic { "yes" } else { "NO" }
        );
        rows.push(row);
    }

    let divergent: Vec<&Row> = rows.iter().filter(|r| !r.deterministic).collect();
    for row in &divergent {
        eprintln!(
            "bench: {} is not reproducible across runs (equations, state count or op counts differ)",
            row.benchmark
        );
    }

    if json {
        let out = crate::workspace_root().join("BENCH_symbolic.json");
        if let Err(e) = std::fs::write(&out, render_json(&rows)) {
            eprintln!("cannot write {}: {e}", out.display());
            return ExitCode::from(2);
        }
        println!("wrote {}", out.display());
    }

    if divergent.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One repetition: symbolic reach, ISOP extraction and minimisation under
/// the `synth` CLI's symbolic defaults.
fn measure(stg: &Stg) -> Result<Sample, String> {
    // `Auto` reordering matches the `synth` CLI default: the wide-arbiter
    // family has no good static order and runs for minutes without it.
    let options = SgSynthesisOptions {
        engine: SgEngine::Symbolic,
        symbolic_reorder: ReorderPolicy::Auto,
        ..SgSynthesisOptions::default()
    };
    let wall_start = Instant::now();
    let mut sym = SymbolicSg::build(stg, &options.symbolic_tuning())
        .map_err(|e| format!("symbolic reachability failed: {e}"))?;
    let reach_ms = wall_start.elapsed().as_secs_f64() * 1e3;
    let signals = check_implementable(stg).map_err(|e| format!("synthesis failed: {e}"))?;
    let ext_start = Instant::now();
    let sets = sym.extract_on_off_sets(&signals, options.extraction);
    let extract_ms = ext_start.elapsed().as_secs_f64() * 1e3;
    let result = synthesize_from_on_off_sets(stg, sets, &options)
        .map_err(|e| format!("synthesis failed: {e}"))?;
    let wall_ms = wall_start.elapsed().as_secs_f64() * 1e3;
    let stats = sym.reach().stats();
    Ok(Sample {
        wall_ms,
        reach_ms,
        extract_ms,
        fingerprint: (
            result.gates.iter().map(|g| g.equation(stg)).collect(),
            sym.state_count(),
            (stats.ops.ite, stats.ops.exists, stats.ops.and_exists),
        ),
        peak_live_nodes: stats.peak_live_nodes,
        peak_pool: stats.peak_pool,
        literals: result.literal_count(),
    })
}

/// The `(wall_ms, reach_ms)` of `name`'s row in a file [`render_json`]
/// wrote (one row per line).
fn baseline_times(json: &str, name: &str) -> Option<(f64, f64)> {
    let line = json
        .lines()
        .find(|l| l.contains(&format!("\"benchmark\": \"{name}\"")))?;
    let field = |key: &str| -> Option<f64> {
        let rest = &line[line.find(&format!("\"{key}\": "))? + key.len() + 4..];
        rest[..rest.find([',', '}'])?].trim().parse().ok()
    };
    Some((field("wall_ms")?, field("reach_ms")?))
}

/// Hand-rolled JSON (the workspace builds offline: no serde). Every value
/// is a number, a bool or an escape-free ASCII string, so plain string
/// assembly is safe.
fn render_json(rows: &[Row]) -> String {
    let host_cpus = std::thread::available_parallelism().map_or(0, |p| p.get());
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"harness\": \"cargo xtask bench --json\",\n");
    s.push_str(&format!("  \"host_cpus\": {host_cpus},\n"));
    s.push_str(
        "  \"note\": \"one serial run per row, wall_ms/reach_ms/extract_ms the minimum over \
         `runs` repetitions; before_* come from the --baseline file of an earlier commit; \
         peak_live_nodes is the live pool after a collection and peak_pool the largest pool \
         at any allocation; ops_* and the equations are machine-independent and are what CI \
         pins\",\n",
    );
    s.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let before = match r.before {
            Some((wall, reach)) => {
                format!("\"before_wall_ms\": {wall:.1}, \"before_reach_ms\": {reach:.1}, ")
            }
            None => String::new(),
        };
        s.push_str(&format!(
            "    {{\"benchmark\": \"{}\", \"flow\": \"sg\", \"engine\": \"symbolic\", \
             \"runs\": {}, {before}\"wall_ms\": {:.1}, \"reach_ms\": {:.1}, \
             \"extract_ms\": {:.1}, \
             \"states\": {}, \"peak_live_nodes\": {}, \"peak_pool\": {}, \
             \"ops_ite\": {}, \"ops_exists\": {}, \"ops_and_exists\": {}, \
             \"literals\": {}, \"deterministic\": {}}}{}\n",
            r.benchmark,
            r.runs,
            r.wall_ms,
            r.reach_ms,
            r.extract_ms,
            r.states,
            r.peak_live_nodes,
            r.peak_pool,
            r.ops_ite,
            r.ops_exists,
            r.ops_and_exists,
            r.literals,
            r.deterministic,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_row(before: Option<(f64, f64)>) -> Row {
        Row {
            benchmark: "demo".into(),
            runs: 3,
            wall_ms: 12.5,
            reach_ms: 10.0,
            extract_ms: 1.5,
            before,
            states: 64,
            peak_live_nodes: 100,
            peak_pool: 120,
            ops_ite: 7,
            ops_exists: 3,
            ops_and_exists: 0,
            literals: 4,
            deterministic: true,
        }
    }

    #[test]
    fn json_rendering_is_well_formed() {
        let json = render_json(&[demo_row(None)]);
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        assert!(json.contains("\"benchmark\": \"demo\""));
        assert!(json.contains("\"runs\": 3"));
        assert!(json.contains("\"extract_ms\": 1.5"));
        assert!(json.contains("\"deterministic\": true"));
        assert!(!json.contains("before_wall_ms"));
        // Balanced braces/brackets — a cheap structural check without a
        // JSON parser in the dependency set.
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn baseline_times_round_trip_through_the_json() {
        let earlier = render_json(&[demo_row(None)]);
        assert_eq!(baseline_times(&earlier, "demo"), Some((12.5, 10.0)));
        assert_eq!(baseline_times(&earlier, "other"), None);
        let json = render_json(&[demo_row(baseline_times(&earlier, "demo"))]);
        assert!(json.contains("\"before_wall_ms\": 12.5, \"before_reach_ms\": 10.0"));
        // A file that itself carries before_* columns still yields the
        // row's own times.
        assert_eq!(baseline_times(&json, "demo"), Some((12.5, 10.0)));
    }
}
