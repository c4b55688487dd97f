//! Parallel synthesis must be a pure speed-up: with any worker count, both
//! flows must produce byte-identical gates, in the same order, as the
//! sequential (`workers = Some(1)`) path — and repeated runs must agree
//! with each other (no hash-iteration order may leak into the output).

mod common;

use si_synth::stategraph::{
    synthesize_from_sg, synthesize_from_symbolic_sg, ReorderPolicy, SgEngine, SgSynthesisOptions,
    SymbolicSg,
};
use si_synth::stg::generators::{muller_pipeline, sequencer, wide_arbiter};
use si_synth::stg::suite::{paper_fig4ab, request_mux, vme_read_csc, vme_read_no_csc};
use si_synth::stg::Stg;
use si_synth::synthesis::{synthesize_from_unfolding, SynthesisOptions, UnfoldingSynthesis};

fn sg_fingerprint(stg: &Stg, options: &SgSynthesisOptions) -> String {
    let result = synthesize_from_sg(stg, options).expect("synthesis succeeds");
    result
        .gates
        .iter()
        .map(|g| format!("{}|{}|{:?}\n", g.equation(stg), g.inverted, g.cover))
        .collect()
}

fn unfolding_fingerprint(stg: &Stg, options: &SynthesisOptions) -> String {
    let result = synthesize_from_unfolding(stg, options).expect("synthesis succeeds");
    fingerprint_of(stg, &result)
}

fn fingerprint_of(stg: &Stg, result: &UnfoldingSynthesis) -> String {
    result
        .gates
        .iter()
        .map(|g| {
            format!(
                "{}|{:?}|{:?}|{:?}\n",
                g.equation(stg),
                g.gate,
                g.on_cover,
                g.off_cover
            )
        })
        .collect()
}

#[test]
fn sg_parallel_output_is_byte_identical_to_sequential() {
    for stg in [
        muller_pipeline(4),
        sequencer(5),
        vme_read_csc(),
        request_mux(),
    ] {
        let sequential = sg_fingerprint(
            &stg,
            &SgSynthesisOptions {
                workers: Some(1),
                ..Default::default()
            },
        );
        for workers in [None, Some(2), Some(4), Some(8)] {
            let parallel = sg_fingerprint(
                &stg,
                &SgSynthesisOptions {
                    workers,
                    ..Default::default()
                },
            );
            assert_eq!(
                sequential,
                parallel,
                "{}: workers={workers:?} diverged from sequential",
                stg.name()
            );
        }
    }
}

#[test]
fn unfolding_parallel_output_is_byte_identical_to_sequential() {
    // In the default (approximate) mode every worker count must agree with
    // the sequential explicit-cube reference not just on the gates but on
    // the full fingerprint (refined on/off covers included).
    for stg in [muller_pipeline(4), paper_fig4ab(), vme_read_csc()] {
        let reference = common::unfolding_reference(&stg, &SynthesisOptions::default())
            .expect("reference succeeds");
        let reference = fingerprint_of(&stg, &reference);
        for workers in [Some(1), None, Some(2), Some(4)] {
            let parallel = unfolding_fingerprint(
                &stg,
                &SynthesisOptions {
                    workers,
                    ..Default::default()
                },
            );
            assert_eq!(
                reference,
                parallel,
                "{}: workers={workers:?} diverged from the reference",
                stg.name()
            );
        }
    }
}

#[test]
fn exact_mode_gates_are_identical_across_representations_and_workers() {
    // Exact mode stores its pre-minimisation covers in representation
    // native form (disjoint diagram paths vs the reference's canonical
    // minterms), so only the minimised gates — the actual output — are
    // compared here.
    use si_synth::synthesis::CoverMode;
    let options = |workers| SynthesisOptions {
        mode: CoverMode::Exact,
        workers,
        ..Default::default()
    };
    let gates = |stg: &Stg, result: &UnfoldingSynthesis| -> String {
        result
            .gates
            .iter()
            .map(|g| format!("{}|{:?}\n", g.equation(stg), g.gate))
            .collect()
    };
    for stg in [muller_pipeline(4), paper_fig4ab(), vme_read_csc()] {
        let reference =
            common::unfolding_reference(&stg, &options(Some(1))).expect("reference succeeds");
        let reference = gates(&stg, &reference);
        for workers in [Some(1), None, Some(2), Some(4)] {
            let result =
                synthesize_from_unfolding(&stg, &options(workers)).expect("synthesis succeeds");
            assert_eq!(
                reference,
                gates(&stg, &result),
                "{}: workers={workers:?} diverged from the reference",
                stg.name()
            );
        }
    }
}

#[test]
fn cutoff_pruning_is_byte_identical_across_workers() {
    // The T-invariant cutoff-lookup pruning is a pure skip of guaranteed
    // hash misses: with it on or off, at any worker count, the unfolding
    // flow must produce the same full fingerprint (covers included).
    use si_synth::unfolding::UnfoldingOptions;
    for stg in [muller_pipeline(4), paper_fig4ab(), vme_read_csc()] {
        let unpruned = unfolding_fingerprint(
            &stg,
            &SynthesisOptions {
                workers: Some(1),
                unfolding: UnfoldingOptions {
                    prune_non_repeatable: false,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        for workers in [None, Some(2), Some(4)] {
            let pruned = unfolding_fingerprint(
                &stg,
                &SynthesisOptions {
                    workers,
                    unfolding: UnfoldingOptions {
                        prune_non_repeatable: true,
                        ..Default::default()
                    },
                    ..Default::default()
                },
            );
            assert_eq!(
                unpruned,
                pruned,
                "{}: workers={workers:?} pruning changed the output",
                stg.name()
            );
        }
    }
}

#[test]
fn sg_synthesis_is_deterministic_across_runs() {
    // The exact on/off-sets are deduplicated through a HashSet; the covers
    // must nevertheless come out in canonical order every run, or gate
    // content could differ between two invocations in the same process.
    let stg = muller_pipeline(3);
    let options = SgSynthesisOptions::default();
    let first = sg_fingerprint(&stg, &options);
    for _ in 0..5 {
        assert_eq!(first, sg_fingerprint(&stg, &options));
    }
}

#[test]
fn symbolic_gc_stress_is_deterministic_across_workers_and_runs() {
    // The symbolic engine under adversarial pool maintenance — collection
    // between every fixpoint iteration plus proactive sifting — must stay
    // a pure layout decision: any worker count, and repeated runs, produce
    // byte-identical gates (BDD node ids and HashMap iteration order must
    // not leak into the output).
    for stg in [muller_pipeline(5), wide_arbiter(5), vme_read_csc()] {
        let options = |workers| SgSynthesisOptions {
            engine: SgEngine::Symbolic,
            symbolic_gc_threshold: 0,
            symbolic_reorder: ReorderPolicy::Auto,
            workers,
            ..Default::default()
        };
        let sequential = sg_fingerprint(&stg, &options(Some(1)));
        for workers in [None, Some(2), Some(4)] {
            assert_eq!(
                sequential,
                sg_fingerprint(&stg, &options(workers)),
                "{}: workers={workers:?} diverged under gc stress",
                stg.name()
            );
        }
        for _ in 0..3 {
            assert_eq!(sequential, sg_fingerprint(&stg, &options(Some(1))));
        }
        // And the stressed output equals the unstressed explicit baseline.
        assert_eq!(
            sequential,
            sg_fingerprint(&stg, &SgSynthesisOptions::default()),
            "{}: gc/reorder stress changed the gates",
            stg.name()
        );
    }
}

/// Fingerprint of a symbolic run under the given pool policy: gates
/// (byte-for-byte), state count and the deterministic kernel operation
/// counters, plus — separately, since it legitimately depends on the
/// policy — the live peak after collections.
fn symbolic_fingerprint(
    stg: &si_synth::stg::Stg,
    reorder: ReorderPolicy,
    gc_threshold: usize,
) -> (String, usize) {
    let options = SgSynthesisOptions {
        engine: SgEngine::Symbolic,
        symbolic_reorder: reorder,
        symbolic_gc_threshold: gc_threshold,
        ..Default::default()
    };
    let mut sym =
        SymbolicSg::build(stg, &options.symbolic_tuning()).expect("symbolic reachability succeeds");
    let stats = sym.reach().stats().clone();
    let result = synthesize_from_symbolic_sg(stg, &mut sym, &options).expect("synthesis succeeds");
    let gates: String = result
        .gates
        .iter()
        .map(|g| format!("{}|{}|{:?}\n", g.equation(stg), g.inverted, g.cover))
        .collect();
    (
        format!("{gates}states={} ops={:?}\n", sym.state_count(), stats.ops),
        stats.peak_live_nodes,
    )
}

#[test]
fn symbolic_output_is_identical_across_gc_and_sift_policies() {
    // For every combination of reorder policy and GC pressure, the pool
    // schedule changes nothing a caller can see — not the gates, not the
    // state count, not the operation counters — and a repeated run
    // reproduces everything, the live peak included.
    let default_gc = SgSynthesisOptions::default().symbolic_gc_threshold;
    for stg in [muller_pipeline(5), wide_arbiter(5), vme_read_csc()] {
        let (reference, _) = symbolic_fingerprint(&stg, ReorderPolicy::Off, default_gc);
        for reorder in [ReorderPolicy::Off, ReorderPolicy::Sift, ReorderPolicy::Auto] {
            for gc_threshold in [0, default_gc] {
                let run = symbolic_fingerprint(&stg, reorder, gc_threshold);
                assert_eq!(
                    reference,
                    run.0,
                    "{}: reorder={reorder:?} gc={gc_threshold} diverged from the default policy",
                    stg.name()
                );
                assert_eq!(
                    run,
                    symbolic_fingerprint(&stg, reorder, gc_threshold),
                    "{}: reorder={reorder:?} gc={gc_threshold} is not reproducible",
                    stg.name()
                );
            }
        }
    }
}

#[test]
fn csc_witness_is_identical_across_gc_and_sift_policies() {
    // A CSC failure must report the same witness code under any pool
    // schedule: the conflict-set pick must come from canonical diagram
    // traversal, not from node ids or the order sifting settled on.
    let stg = vme_read_no_csc();
    let witness = |reorder, symbolic_gc_threshold| {
        synthesize_from_sg(
            &stg,
            &SgSynthesisOptions {
                engine: SgEngine::Symbolic,
                symbolic_reorder: reorder,
                symbolic_gc_threshold,
                ..Default::default()
            },
        )
        .expect_err("vme_read_no_csc violates CSC")
    };
    let default_gc = SgSynthesisOptions::default().symbolic_gc_threshold;
    let reference = witness(ReorderPolicy::Off, default_gc);
    for reorder in [ReorderPolicy::Off, ReorderPolicy::Sift, ReorderPolicy::Auto] {
        for gc_threshold in [0, default_gc] {
            assert_eq!(
                reference,
                witness(reorder, gc_threshold),
                "CSC witness differs at reorder={reorder:?} gc={gc_threshold}"
            );
        }
    }
}

#[test]
fn inversion_and_exact_paths_are_deterministic_in_parallel() {
    let stg = sequencer(4);
    let options = |workers| SgSynthesisOptions {
        allow_inversion: true,
        exact_minimization: true,
        workers,
        ..Default::default()
    };
    let sequential = sg_fingerprint(&stg, &options(Some(1)));
    assert_eq!(sequential, sg_fingerprint(&stg, &options(Some(4))));
}
