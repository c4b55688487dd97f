//! The closed-loop run: one client synthesises the run's spec list one
//! spec at a time, round after round, until the measuring time is spent.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::check::{
    judge, matches_reference, oracle, parse_references, reference_text, Oracle, References, Verdict,
};
use crate::flows::{route_name, synthesize, synthesize_traced, Outcome};
use crate::pool::{draw, Spec, Workload};
use crate::rng::Rng;
use crate::stats::{median, peak_rss_mb, process_cpu_s, quantile};
use crate::trace::{self_times, Tracer};

/// How many times the set-up is repeated after each round, up to
/// [`SETUP_SAMPLES`] repeats in all; `setup_s` is their median. The first
/// set-up runs in a fresh heap and its time swings by ±40% from one
/// process to the next on a shared host; repeats taken after a round all
/// see the same heap state and agree to a few percent.
pub const SETUP_REPEATS: usize = 3;

/// Cap on the set-up repeats of one run.
pub const SETUP_SAMPLES: usize = 30;

/// Rounds a timed run makes even when a round outlasts its measuring time,
/// so every spec's latency is a median of at least three samples.
/// `peak_rss_mb` is read after this many rounds: later rounds repeat the
/// same work in other orders, and their number varies with the host's
/// speed, while each adds allocator fragmentation that raised the
/// high-water mark of small-spec workloads by up to 60%.
pub const MIN_ROUNDS: usize = 3;

/// The end-to-end metrics (tracing off), with their units.
pub const END_TO_END: [(&str, &str); 6] = [
    ("wall_s", "s"),
    ("latency_ms.p50", "ms"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("literals", "count"),
    ("setup_s", "s"),
];

/// The per-layer metrics of the traced run, with their units.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("stg.parse_ms", "ms"),
    ("stg.parse_bytes", "bytes"),
    ("flow.choose_ms", "ms"),
    ("flow.to_sg_explicit", "count"),
    ("flow.to_unfolding", "count"),
    ("flow.to_sg_symbolic", "count"),
    ("unf.build_ms", "ms"),
    ("unf.events", "count"),
    ("unf.conditions", "count"),
    ("unf.persistency_ms", "ms"),
    ("core.slices_ms", "ms"),
    ("core.slice_count", "count"),
    ("core.refine_ms", "ms"),
    ("core.refine_steps", "count"),
    ("core.exact_fallbacks", "count"),
    ("cubes.minimize_ms", "ms"),
    ("cubes.cubes_in", "count"),
    ("cubes.literals_out", "count"),
    ("sg.explore_ms", "ms"),
    ("sg.states", "count"),
    ("sg.synth_ms", "ms"),
    ("sym.reach_ms", "ms"),
    ("sym.states", "count"),
    ("bdd.apply_ms", "ms"),
    ("bdd.ops_ite", "count"),
    ("bdd.ops_exists", "count"),
    ("bdd.ops_and_exists", "count"),
    ("sym.check_ms", "ms"),
    ("sym.extract_ms", "ms"),
    ("sym.minimise_ms", "ms"),
    ("bdd.gc_ms", "ms"),
    ("bdd.gc_runs", "count"),
    ("bdd.gc_collected", "count"),
    ("bdd.reorder_ms", "ms"),
    ("bdd.reorder_runs", "count"),
    ("bdd.peak_pool", "count"),
    ("bdd.reentrant_retries", "count"),
    ("verify.oracle_ms", "ms"),
    ("verify.oracle_runs", "count"),
    ("pins.changed", "count"),
    ("trace.overhead_s", "s"),
    ("trace.uncovered_ms", "ms"),
];

/// What one run is asked to do.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// The workload.
    pub workload: Workload,
    /// Seed of the spec list.
    pub seed: u64,
    /// Measuring time; the run stops starting rounds once it is spent.
    pub seconds: f64,
    /// Run the traced driver beside the timed one and report layers.
    pub trace: bool,
}

/// One spec of the run, as a result row.
#[derive(Debug, Clone)]
pub struct SpecRow {
    /// Candidate id.
    pub spec: String,
    /// Flow or engine chosen (empty until the spec first synthesises).
    pub route: &'static str,
    /// Latency of every synthesis of the spec, in ms.
    pub latencies_ms: Vec<f64>,
    /// Gate literal count.
    pub literals: usize,
    /// `match`, `changed`, or the first failure.
    pub outcome: String,
    /// Each distinct output that differed from the reference, with how many
    /// syntheses produced it; judged by the oracle after the timed loop.
    pending: Vec<(Outcome, u64)>,
}

impl SpecRow {
    /// Holds a mismatching output for the oracle.
    fn defer(&mut self, out: Outcome) {
        match self
            .pending
            .iter_mut()
            .find(|(o, _)| o.equations == out.equations && o.literals == out.literals)
        {
            Some((_, syntheses)) => *syntheses += 1,
            None => self.pending.push((out, 1)),
        }
    }

    fn settle(&mut self, verdict: Verdict) {
        match verdict {
            Verdict::Changed => {
                if self.outcome == "match" {
                    self.outcome = "changed".to_owned();
                }
            }
            Verdict::Failed(reason) => {
                if !self.outcome.starts_with("failed") {
                    self.outcome = format!("failed: {reason}");
                }
            }
        }
    }
}

/// Everything a finished run reports.
#[derive(Debug, Clone)]
pub struct Report {
    /// Every output matched its reference or passed the oracle, and the
    /// traced driver reproduced the timed one.
    pub correct: bool,
    /// Syntheses attempted.
    pub attempted: u64,
    /// Syntheses failed.
    pub failed: u64,
    /// Specs whose output differed from the reference but passed the
    /// oracle.
    pub pins_changed: u64,
    /// Rounds over the spec list.
    pub rounds: usize,
    /// Per-spec rows.
    pub rows: Vec<SpecRow>,
    /// Every per-spec latency, in ms.
    pub latencies_ms: Vec<f64>,
    /// The metrics, by name, with units: the end-to-end set, or the
    /// per-layer set for a traced run.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

/// Set-up: draws and serialises the spec list and loads the references.
/// Returns them with the time it took.
///
/// # Errors
///
/// A malformed reference file.
pub fn setup(workload: Workload, seed: u64) -> Result<(Vec<Spec>, References, f64), String> {
    let start = Instant::now();
    let specs = draw(workload, seed);
    let refs = parse_references(reference_text(workload))?;
    Ok((specs, refs, start.elapsed().as_secs_f64()))
}

/// Per-round sums.
#[derive(Debug, Default)]
struct Round {
    wall_s: f64,
    traced_wall_s: f64,
    cpu_s: f64,
    layers: BTreeMap<&'static str, f64>,
}

/// Runs the workload against its checked-in references.
///
/// # Errors
///
/// Set-up failures only; synthesis failures are counted, not raised.
pub fn run(cfg: &Config) -> Result<Report, String> {
    let refs = parse_references(reference_text(cfg.workload))?;
    run_with(cfg, &refs, &oracle)
}

/// Runs the workload against `refs`, judging mismatching outputs with
/// `oracle` once the timed loop and its process figures are done, so the
/// oracle's time and memory never count as the program's.
///
/// # Errors
///
/// Set-up failures only; synthesis failures are counted, not raised.
pub fn run_with(cfg: &Config, refs: &References, oracle: Oracle<'_>) -> Result<Report, String> {
    let (specs, _, _) = setup(cfg.workload, cfg.seed)?;
    let mut setup_times = Vec::with_capacity(SETUP_SAMPLES);
    let flow = cfg.workload.flow();
    // Each round visits the list in its own seeded order, so no single
    // order's allocation pattern sets the memory high-water mark.
    let mut rng = Rng::new(cfg.seed);
    let mut order: Vec<usize> = (0..specs.len()).collect();
    let tracer = Tracer::default();
    let mut rows: Vec<SpecRow> = specs
        .iter()
        .map(|s| SpecRow {
            spec: s.id.clone(),
            route: "",
            latencies_ms: Vec::new(),
            literals: 0,
            outcome: "match".to_owned(),
            pending: Vec::new(),
        })
        .collect();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut rounds: Vec<Round> = Vec::new();
    let budget = Duration::from_secs_f64(cfg.seconds);
    let start = Instant::now();
    let min_rounds = if cfg.trace { 1 } else { MIN_ROUNDS };
    let mut peak_rss = None;
    while rounds.len() < min_rounds || start.elapsed() < budget {
        rng.shuffle(&mut order);
        let mut round = Round::default();
        let cpu_start = process_cpu_s();
        for &i in &order {
            let (spec, row) = (&specs[i], &mut rows[i]);
            let t0 = Instant::now();
            let result = synthesize(flow, &spec.text);
            let latency = t0.elapsed().as_secs_f64();
            round.wall_s += latency;
            row.latencies_ms.push(latency * 1e3);
            attempted += 1;
            let mut result = result.map_err(|e| format!("synthesis error: {e}"));
            if cfg.trace {
                let t1 = Instant::now();
                let traced = synthesize_traced(&tracer, flow, &spec.text);
                round.traced_wall_s += t1.elapsed().as_secs_f64();
                if let Some(drift) = drift(&result, &traced) {
                    result = Err(drift);
                }
            }
            match result {
                Ok(out) => {
                    row.route = route_name(out.route);
                    row.literals = out.literals;
                    if !matches_reference(refs.get(&spec.id), &out.equations, out.literals) {
                        row.defer(out);
                    }
                }
                Err(reason) => {
                    failed += 1;
                    row.settle(Verdict::Failed(reason));
                }
            }
        }
        if let (Some(a), Some(b)) = (cpu_start, process_cpu_s()) {
            round.cpu_s = b - a;
        }
        round.layers = layer_metrics(&tracer);
        rounds.push(round);
        if rounds.len() == min_rounds {
            peak_rss = peak_rss_mb();
        }
        for _ in 0..SETUP_REPEATS.min(SETUP_SAMPLES - setup_times.len()) {
            setup_times.push(setup(cfg.workload, cfg.seed)?.2);
        }
    }

    // The process figures are read before the oracle runs.
    let oracle_start = Instant::now();
    let (mut oracle_runs, mut pins_changed) = (0u64, 0u64);
    for row in &mut rows {
        for (out, syntheses) in std::mem::take(&mut row.pending) {
            oracle_runs += 1;
            let verdict = judge(&out.stg, &out.gates, oracle);
            if matches!(verdict, Verdict::Failed(_)) {
                failed += syntheses;
            }
            row.settle(verdict);
        }
        pins_changed += u64::from(row.outcome == "changed");
    }
    let settled = [
        (
            "verify.oracle_ms",
            oracle_start.elapsed().as_secs_f64() * 1e3,
        ),
        ("verify.oracle_runs", oracle_runs as f64),
        ("pins.changed", pins_changed as f64),
    ];

    let latencies_ms: Vec<f64> = rows
        .iter()
        .flat_map(|r| r.latencies_ms.iter().copied())
        .collect();
    let per_round = |f: &dyn Fn(&Round) -> f64| {
        median(&rounds.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    let metrics = if cfg.trace {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = if name == "trace.overhead_s" {
                    per_round(&|r| r.traced_wall_s) - per_round(&|r| r.wall_s)
                } else if let Some(&(_, total)) = settled.iter().find(|(n, _)| *n == name) {
                    total
                } else {
                    per_round(&|r| r.layers.get(name).copied().unwrap_or(0.0))
                };
                (name, value, unit)
            })
            .collect()
    } else {
        // Each spec's latency is its median over the rounds. Summing these
        // discards a slow sample of one spec without discarding the whole
        // round it fell in; their median is the middle spec's latency,
        // which the tails of the many short syntheses cannot shift.
        let spec_ms: Vec<f64> = rows
            .iter()
            .map(|r| median(&r.latencies_ms).unwrap_or(0.0))
            .collect();
        let values = [
            spec_ms.iter().sum::<f64>() / 1e3,
            median(&spec_ms).unwrap_or(0.0),
            // CPU time is read in 10 ms ticks, so it is averaged over the
            // whole timed region rather than taken per round.
            rounds.iter().map(|r| r.cpu_s).sum::<f64>() / rounds.len() as f64,
            peak_rss.unwrap_or(0.0),
            rows.iter().map(|r| r.literals).sum::<usize>() as f64,
            median(&setup_times).unwrap_or(0.0),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| (name, value, unit))
            .collect()
    };
    Ok(Report {
        correct: failed == 0,
        attempted,
        failed,
        pins_changed,
        rounds: rounds.len(),
        rows,
        latencies_ms,
        metrics,
    })
}

/// Why the traced driver's output differs from the timed one, if it does.
fn drift(timed: &Result<Outcome, String>, traced: &Result<Outcome, String>) -> Option<String> {
    match (timed, traced) {
        (Ok(a), Ok(b)) if a.equations == b.equations && a.route == b.route => None,
        (Err(_), Err(_)) => None,
        (Ok(_), Err(e)) => Some(format!(
            "traced driver failed where the timed one did not: {e}"
        )),
        _ => Some("traced driver's equations differ from the timed run's".to_owned()),
    }
}

/// Drains the tracer into one round's layer figures: self time per span
/// name in ms (the root span's self time is the time no layer span
/// covers), plus the counters.
fn layer_metrics(tracer: &Tracer) -> BTreeMap<&'static str, f64> {
    let (spans, counters) = tracer.drain();
    let mut out = counters;
    for (name, ns) in self_times(&spans) {
        let metric = match name {
            "spec" => "trace.uncovered_ms",
            other => layer_ms_name(other),
        };
        *out.entry(metric).or_insert(0.0) += ns as f64 / 1e6;
    }
    out
}

/// The `<layer>_ms` metric of a span name.
fn layer_ms_name(span: &'static str) -> &'static str {
    PER_LAYER
        .iter()
        .map(|&(name, _)| name)
        .find(|name| name.strip_suffix("_ms") == Some(span))
        .unwrap_or(span)
}

/// The `p`-th percentile of the run's latencies, when at least ten
/// samples lie beyond it.
pub fn tail_latency(latencies_ms: &[f64], p: f64) -> Option<f64> {
    let rank = (p * latencies_ms.len() as f64 - 1e-9).ceil() as usize;
    (latencies_ms.len().saturating_sub(rank) >= 10)
        .then(|| quantile(latencies_ms, p))
        .flatten()
}
