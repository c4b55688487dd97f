//! The benchmark's own tests: seeded draws, reference coverage, the
//! reference/oracle verdicts, the traced driver, and self-time arithmetic.

use si_cubes::{Cover, Cube};
use si_perfbench::check::{
    judge, matches_reference, oracle, parse_references, reference_text, Oracle, Reference,
    References, Verdict,
};
use si_perfbench::flows::{synthesize, synthesize_traced};
use si_perfbench::pool::{draw, FlowKind, Workload};
use si_perfbench::run::{run_with, tail_latency, Config};
use si_perfbench::trace::{self_times, Span, Tracer};
use si_stg::suite::paper_fig1;
use si_stg::write_g;

#[test]
fn same_seed_gives_same_list_and_bytes() {
    for w in Workload::ALL {
        assert_eq!(draw(w, 42), draw(w, 42), "{}", w.name());
    }
}

#[test]
fn different_seed_draws_a_different_list_from_the_same_pool() {
    for w in Workload::ALL {
        let pool: Vec<(String, String)> = w
            .candidates()
            .into_iter()
            .map(|c| (c.g_text(), c.id))
            .collect();
        let first = draw(w, 1);
        for spec in &first {
            assert!(
                pool.iter()
                    .any(|(text, id)| *id == spec.id && *text == spec.text),
                "{}: `{}` is not a pool candidate",
                w.name(),
                spec.id
            );
        }
        // A one-spec list has only one order.
        if first.len() > 1 {
            assert!(
                (2..12).any(|seed| draw(w, seed) != first),
                "{}: every seed drew the same list",
                w.name()
            );
        }
    }
    assert_ne!(draw(Workload::Unfolding, 1), draw(Workload::Unfolding, 2));
}

#[test]
fn every_pool_candidate_has_a_reference() {
    for w in Workload::ALL {
        let refs = parse_references(reference_text(w)).expect("reference file parses");
        for c in w.candidates() {
            assert!(
                refs.contains_key(&c.id),
                "{}: no reference for `{}`",
                w.name(),
                c.id
            );
        }
    }
}

#[test]
fn matching_reference_needs_no_oracle() {
    let out = synthesize(FlowKind::Auto, &write_g(&paper_fig1())).expect("synthesises");
    let pinned = Reference {
        equations: out.equations.clone(),
        literals: out.literals,
    };
    assert!(matches_reference(
        Some(&pinned),
        &out.equations,
        out.literals
    ));
    assert!(!matches_reference(None, &out.equations, out.literals));
}

/// The `auto_small` references with the entry of the first spec the seed
/// draws corrupted, and that spec's id.
fn corrupted_auto_small(seed: u64) -> (References, String) {
    let mut refs = parse_references(reference_text(Workload::AutoSmall)).expect("parses");
    let id = draw(Workload::AutoSmall, seed)[0].id.clone();
    let entry = refs.get_mut(&id).expect("drawn spec has a reference");
    entry.equations.push_str(" + x");
    entry.literals += 1;
    (refs, id)
}

fn quick(workload: Workload, seed: u64) -> Config {
    Config {
        workload,
        seed,
        seconds: 0.0,
        trace: false,
    }
}

#[test]
fn corrupted_reference_is_a_changed_pin_when_the_oracle_accepts() {
    let (refs, id) = corrupted_auto_small(5);
    let report = run_with(&quick(Workload::AutoSmall, 5), &refs, &oracle).expect("runs");
    assert!(report.correct);
    assert_eq!((report.failed, report.pins_changed), (0, 1));
    let row = report.rows.iter().find(|r| r.spec == id).expect("row");
    assert_eq!(row.outcome, "changed");
    // The changed output still counts in the literals.
    let literals = report
        .metrics
        .iter()
        .find(|m| m.0 == "literals")
        .expect("literals");
    assert_eq!(
        literals.1,
        report.rows.iter().map(|r| r.literals).sum::<usize>() as f64
    );
}

#[test]
fn corrupted_reference_is_a_failure_when_the_oracle_rejects() {
    let (refs, id) = corrupted_auto_small(6);
    let reject: Oracle<'_> = &|_, _| Err("rejected".to_owned());
    let report = run_with(&quick(Workload::AutoSmall, 6), &refs, reject).expect("runs");
    assert!(!report.correct);
    // Every synthesis of the spec fails, one per round.
    assert_eq!(report.failed, report.rounds as u64);
    assert_eq!(report.pins_changed, 0);
    let row = report.rows.iter().find(|r| r.spec == id).expect("row");
    assert!(row.outcome.starts_with("failed"), "{}", row.outcome);
}

#[test]
fn oracle_rejects_wrong_or_missing_gates() {
    let out = synthesize(FlowKind::Auto, &write_g(&paper_fig1())).expect("synthesises");
    assert_eq!(oracle(&out.stg, &out.gates), Ok(()));
    assert_eq!(judge(&out.stg, &out.gates, &oracle), Verdict::Changed);
    // A wrong output: constant 1 for every gate.
    let width = out.stg.signal_count();
    let wrong: Vec<_> = out
        .gates
        .iter()
        .map(|(s, _)| (*s, [Cube::full(width)].into_iter().collect::<Cover>()))
        .collect();
    assert!(matches!(
        judge(&out.stg, &wrong, &oracle),
        Verdict::Failed(_)
    ));
    // An output that drops a gate, or names a signal twice: the remaining
    // gates are right, so only the signal check can catch it.
    let mid = synthesize(
        FlowKind::Auto,
        &write_g(&si_stg::generators::muller_pipeline(4)),
    )
    .expect("synthesises");
    assert!(mid.gates.len() > 1);
    let dropped = &mid.gates[1..];
    assert!(matches!(
        judge(&mid.stg, dropped, &oracle),
        Verdict::Failed(_)
    ));
    let mut doubled = mid.gates.clone();
    doubled.push(mid.gates[0].clone());
    assert!(matches!(
        judge(&mid.stg, &doubled, &oracle),
        Verdict::Failed(_)
    ));
}

#[test]
fn traced_driver_reproduces_the_timed_equations() {
    let specs = [
        (
            FlowKind::Unfolding,
            write_g(&si_stg::generators::muller_pipeline(6)),
        ),
        (
            FlowKind::Unfolding,
            write_g(&si_stg::generators::counterflow_pipeline(3)),
        ),
        (FlowKind::Auto, write_g(&paper_fig1())),
        (
            FlowKind::Auto,
            write_g(&si_stg::generators::parallelizer(5)),
        ),
        (
            FlowKind::Symbolic,
            write_g(&si_stg::generators::dining_philosophers(4)),
        ),
    ];
    let tracer = Tracer::default();
    for (flow, text) in &specs {
        let timed = synthesize(*flow, text).expect("timed");
        let traced = synthesize_traced(&tracer, *flow, text).expect("traced");
        assert_eq!(timed.equations, traced.equations);
        assert_eq!(timed.route, traced.route);
    }
    let (spans, counters) = tracer.drain();
    assert!(spans.iter().any(|s| s.name == "unf.build"));
    assert!(spans.iter().any(|s| s.name == "sg.explore"));
    assert!(spans.iter().any(|s| s.name == "sym.reach"));
    assert_eq!(counters.get("flow.to_sg_explicit"), Some(&1.0));
    assert_eq!(counters.get("flow.to_unfolding"), Some(&1.0));
}

fn span(id: u32, parent: Option<u32>, name: &'static str, start: u64, end: u64) -> Span {
    Span {
        id,
        parent,
        name,
        start,
        end,
    }
}

#[test]
fn self_time_subtracts_the_union_of_nested_children() {
    let spans = [
        span(0, None, "spec", 0, 100),
        // Two children that overlap, as parallel workers do.
        span(1, Some(0), "a", 10, 40),
        span(2, Some(0), "b", 30, 60),
        // A grandchild under `a`, and one child of `b` that overruns it.
        span(3, Some(1), "c", 15, 20),
        span(4, Some(2), "c", 55, 70),
        // A second root of the same name adds up.
        span(5, None, "spec", 200, 210),
    ];
    let t = self_times(&spans);
    assert_eq!(t["spec"], 50 + 10);
    assert_eq!(t["a"], 30 - 5);
    assert_eq!(t["b"], 30 - 5);
    assert_eq!(t["c"], 5 + 15);
}

#[test]
fn tail_latency_needs_ten_samples_beyond_it() {
    let few: Vec<f64> = (1..=99).map(f64::from).collect();
    assert_eq!(tail_latency(&few, 0.9), None);
    let enough: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(tail_latency(&enough, 0.9), Some(90.0));
}
