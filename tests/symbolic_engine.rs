//! Suite-wide pinning of the symbolic SG engine: on every STG in
//! `si_stg::suite` the symbolic path must produce byte-identical gate
//! equations to the explicit path — under the default pool tuning *and*
//! under adversarial garbage-collection/reordering stress — and it must
//! keep synthesising where the explicit engine's state budget ends.

use si_synth::stategraph::{
    synthesize_from_sg, synthesize_from_symbolic_sg, ReorderPolicy, SgEngine, SgSynthesisOptions,
    StateGraph, SymbolicSg, SymbolicTuning,
};
use si_synth::stg::generators::{muller_pipeline, wide_arbiter};
use si_synth::stg::suite::{synthesisable, vme_read_no_csc};
use si_synth::stg::{parse_g, write_g};

#[test]
fn whole_suite_engines_agree_byte_for_byte() {
    for stg in synthesisable() {
        let explicit = synthesize_from_sg(&stg, &SgSynthesisOptions::default())
            .unwrap_or_else(|e| panic!("{} failed explicitly: {e}", stg.name()));
        let symbolic = synthesize_from_sg(
            &stg,
            &SgSynthesisOptions {
                engine: SgEngine::Symbolic,
                ..Default::default()
            },
        )
        .unwrap_or_else(|e| panic!("{} failed symbolically: {e}", stg.name()));
        assert_eq!(explicit.gates.len(), symbolic.gates.len(), "{}", stg.name());
        for (a, b) in symbolic.gates.iter().zip(&explicit.gates) {
            assert_eq!(a.equation(&stg), b.equation(&stg), "{}", stg.name());
            assert_eq!(a.inverted, b.inverted, "{}", stg.name());
        }
    }
}

/// The adversarial pool tunings the stress suite runs under: collection
/// every fixpoint iteration, and (for the reordering policies) sifting at
/// every opportunity.
fn stress_tunings() -> Vec<SymbolicTuning> {
    [ReorderPolicy::Off, ReorderPolicy::Sift, ReorderPolicy::Auto]
        .into_iter()
        .map(|reorder| SymbolicTuning {
            reorder,
            gc_threshold: 0,
            reorder_threshold: 1,
            ..SymbolicTuning::default()
        })
        .collect()
}

#[test]
fn gc_and_reorder_stress_keeps_the_whole_suite_byte_identical() {
    // Collection firing between every fixpoint iteration and sifting at
    // every opportunity exercise every GC/swap path; the gate equations
    // must not move by a byte relative to the explicit engine.
    for stg in synthesisable() {
        let explicit = synthesize_from_sg(&stg, &SgSynthesisOptions::default())
            .unwrap_or_else(|e| panic!("{} failed explicitly: {e}", stg.name()));
        for tuning in stress_tunings() {
            let mut sym = SymbolicSg::build(&stg, &tuning)
                .unwrap_or_else(|e| panic!("{} failed under {tuning:?}: {e}", stg.name()));
            let symbolic =
                synthesize_from_symbolic_sg(&stg, &mut sym, &SgSynthesisOptions::default())
                    .unwrap_or_else(|e| panic!("{} failed under {tuning:?}: {e}", stg.name()));
            assert_eq!(explicit.gates.len(), symbolic.gates.len(), "{}", stg.name());
            for (a, b) in symbolic.gates.iter().zip(&explicit.gates) {
                assert_eq!(
                    a.equation(&stg),
                    b.equation(&stg),
                    "{} under {tuning:?}",
                    stg.name()
                );
                assert_eq!(a.inverted, b.inverted, "{}", stg.name());
            }
        }
    }
}

#[test]
fn gc_stress_csc_witness_identical_to_explicit() {
    let stg = vme_read_no_csc();
    let explicit = synthesize_from_sg(&stg, &SgSynthesisOptions::default()).unwrap_err();
    for tuning in stress_tunings() {
        let mut sym = SymbolicSg::build(&stg, &tuning).expect("reachability itself succeeds");
        let err = synthesize_from_symbolic_sg(&stg, &mut sym, &SgSynthesisOptions::default())
            .expect_err("CSC violation must surface");
        assert_eq!(err, explicit, "witness drifted under {tuning:?}");
    }
}

#[test]
fn gc_options_plumb_through_synthesize_from_sg() {
    // The public options path must reach the engine: an aggressive
    // gc/reorder configuration produces the same gates as the default.
    let stg = muller_pipeline(8);
    let baseline = synthesize_from_sg(&stg, &SgSynthesisOptions::default()).expect("ok");
    let stressed = synthesize_from_sg(
        &stg,
        &SgSynthesisOptions {
            engine: SgEngine::Symbolic,
            symbolic_gc_threshold: 0,
            symbolic_reorder: ReorderPolicy::Auto,
            ..Default::default()
        },
    )
    .expect("stressed symbolic ok");
    assert_eq!(baseline.gates.len(), stressed.gates.len());
    for (a, b) in stressed.gates.iter().zip(&baseline.gates) {
        assert_eq!(a.equation(&stg), b.equation(&stg));
    }
}

#[test]
fn wide_arbiter_small_instances_agree_with_the_explicit_engine() {
    // The acceptance check of the wide-choice benchmark family: on
    // instances the explicit engine can still enumerate, both engines (and
    // every reordering policy) must produce byte-identical equations.
    for n in [3, 6] {
        let stg = wide_arbiter(n);
        let explicit = synthesize_from_sg(&stg, &SgSynthesisOptions::default())
            .unwrap_or_else(|e| panic!("wide_arbiter({n}) failed explicitly: {e}"));
        assert_eq!(explicit.gates.len(), n, "one C-element per stage");
        for tuning in stress_tunings() {
            let mut sym = SymbolicSg::build(&stg, &tuning)
                .unwrap_or_else(|e| panic!("wide_arbiter({n}) under {tuning:?}: {e}"));
            let symbolic =
                synthesize_from_symbolic_sg(&stg, &mut sym, &SgSynthesisOptions::default())
                    .expect("symbolic synthesis");
            for (a, b) in symbolic.gates.iter().zip(&explicit.gates) {
                assert_eq!(a.equation(&stg), b.equation(&stg), "wide_arbiter({n})");
            }
        }
    }
}

#[test]
fn wide_arbiter_needs_reordering_under_a_tight_budget() {
    // The wall this PR removes, in miniature: under a budget the sifted
    // diagram fits comfortably, the riffled static order must die with the
    // structured budget error while `Auto` completes.
    // Measured live peaks at n = 12: ~13 k nodes under the riffled static
    // order, ~4.8 k once sifted — 8 k sits between the two (both runs are
    // deterministic, so the margins only need to absorb code drift).
    let stg = wide_arbiter(12);
    let budget = 8_000;
    let off = SymbolicTuning {
        node_budget: budget,
        reorder: ReorderPolicy::Off,
        ..SymbolicTuning::default()
    };
    let err = SymbolicSg::build(&stg, &off)
        .err()
        .expect("static order must exhaust the budget");
    assert!(
        matches!(
            err,
            si_synth::stategraph::SgError::Net(
                si_synth::petri::NetError::NodeBudgetExceeded { budget: b },
            ) if b == budget
        ),
        "unexpected error: {err}"
    );
    let auto = SymbolicTuning {
        node_budget: budget,
        reorder: ReorderPolicy::Auto,
        ..SymbolicTuning::default()
    };
    let sym = SymbolicSg::build(&stg, &auto).expect("auto reordering survives");
    assert_eq!(sym.state_count(), 1u128 << 14);
    assert!(
        sym.reach().stats().reorder_runs > 0,
        "completion must be reordering's doing"
    );
}

#[test]
fn symbolic_engine_crosses_the_explicit_budget_wall() {
    // 14 stages ≈ 65 k states: an explicit budget of 10 k states dies, the
    // symbolic engine synthesises the pipeline's C-element equations
    // unbothered.
    let stg = muller_pipeline(14);
    assert!(StateGraph::build(&stg, 10_000).is_err());
    let symbolic = synthesize_from_sg(
        &stg,
        &SgSynthesisOptions {
            engine: SgEngine::Symbolic,
            state_budget: 10_000, // ignored by the symbolic engine
            ..Default::default()
        },
    )
    .expect("symbolic engine is not bounded by states");
    assert_eq!(symbolic.gates.len(), 14);
    // Every stage is a C-element: c_i = c_{i-1} c_i + c_{i-1} c_{i+1}' +
    // c_i c_{i+1}' (3 cubes, 6 literals).
    assert_eq!(symbolic.literal_count(), 14 * 6);
}

/// `wide_arbiter(14)` as the `synth` CLI sees it (written to `.g` and
/// parsed back, which fixes the place and signal numbering) with the CLI's
/// symbolic defaults: `Auto` reordering, default GC threshold and seed.
fn wide_arbiter_14_under_cli_defaults() -> SymbolicSg {
    let stg = parse_g(&write_g(&wide_arbiter(14))).expect("round-trips");
    let options = SgSynthesisOptions {
        engine: SgEngine::Symbolic,
        symbolic_reorder: ReorderPolicy::Auto,
        ..Default::default()
    };
    SymbolicSg::build(&stg, &options.symbolic_tuning()).expect("symbolic reachability succeeds")
}

#[test]
fn wide_arbiter_14_sift_is_pinned() {
    // The single auto sift of this run, pinned to what the kernel it
    // replaced did: the same live pool before and after, the same final
    // variable order. Sifting decisions depend only on exact live counts,
    // so any kernel that keeps them exact must land here too.
    let sym = wide_arbiter_14_under_cli_defaults();
    let stats = sym.reach().stats();
    assert_eq!(stats.sifts, vec![(27_794, 6_563)]);
    assert_eq!(stats.reorder_runs, 1);
    assert_eq!(
        sym.reach().manager().order(),
        vec![
            31, 46, 61, 0, 16, 70, 60, 15, 62, 30, 45, 69, 47, 32, 2, 17, 63, 48, 33, 3, 18, 71,
            49, 34, 64, 19, 4, 50, 35, 5, 20, 72, 51, 36, 65, 21, 6, 7, 22, 52, 37, 73, 53, 38, 66,
            23, 8, 39, 24, 54, 9, 74, 10, 25, 67, 40, 55, 11, 56, 26, 41, 13, 58, 27, 12, 68, 57,
            75, 42, 28, 43, 44, 59, 76, 29, 14, 1,
        ]
    );
    assert_eq!(sym.state_count(), 1 << 16);
    assert_eq!((stats.ops.ite, stats.ops.exists), (11_754, 3_532));
}

#[test]
fn wide_arbiter_14_reports_a_live_peak_not_the_gc_threshold() {
    // The pool crosses the 2^20 collection threshold once; the live peak
    // is read right after that collection, so it must report the live
    // pool there (27 794 nodes) rather than the garbage-laden pool that
    // triggered it.
    let sym = wide_arbiter_14_under_cli_defaults();
    let stats = sym.reach().stats();
    assert_eq!(stats.gc_runs, 1);
    assert!(stats.peak_live_nodes < 1 << 20, "{}", stats.peak_live_nodes);
    assert_eq!(stats.peak_live_nodes, 27_794);
    assert!(
        stats.peak_pool > 1 << 20,
        "the pool itself did cross the threshold"
    );
}
