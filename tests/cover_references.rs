//! Byte-identity of both flows against their test-side references: the
//! library derives covers one way (implicit point sets, ISOP extraction);
//! the references in `common/` re-derive them from public stage functions
//! on explicit cube lists.

mod common;

use common::{sg_equations, sg_reference, unfolding_equations, unfolding_reference};
use si_synth::stategraph::{
    check_implementable, synthesize_from_sg, SgSynthesisOptions, SymbolicSg, SymbolicTuning,
};
use si_synth::stg::generators::{muller_pipeline, sequencer, wide_arbiter};
use si_synth::stg::suite::{paper_fig1, synthesisable, vme_read_csc, vme_read_no_csc};
use si_synth::stg::{parse_g, Stg};
use si_synth::synthesis::{synthesize_from_unfolding, CoverMode, SynthesisOptions};

/// Every suite STG, CSC-violating one included.
fn suite() -> Vec<Stg> {
    let mut specs = synthesisable();
    specs.push(vme_read_no_csc());
    specs
}

#[test]
fn isop_extraction_matches_translation_point_sets() {
    // ISOP extraction (the symbolic engine's only front end) must land on
    // the point sets the node-by-node translation reference gives, signal
    // by signal.
    let mut specs = suite();
    specs.push(muller_pipeline(12));
    specs.push(wide_arbiter(8));
    for stg in specs {
        let mut sym = SymbolicSg::build(&stg, &SymbolicTuning::default())
            .unwrap_or_else(|e| panic!("{}: symbolic build failed: {e}", stg.name()));
        let signals = check_implementable(&stg).expect("no constant signal");
        let extracted = sym.extract_on_off_sets(&signals, Default::default());
        assert_eq!(extracted.len(), signals.len(), "{}", stg.name());
        for (sets, &signal) in extracted.iter().zip(&signals) {
            assert_eq!(sets.signal, signal);
            let reference = sym.on_off_sets(signal);
            let name = stg.signal_name(signal);
            assert_eq!(
                sets.pool().to_cover(sets.on()).cubes(),
                reference.pool().to_cover(reference.on()).cubes(),
                "{}: on-sets of {name} differ",
                stg.name()
            );
            assert_eq!(
                sets.pool().to_cover(sets.off()).cubes(),
                reference.pool().to_cover(reference.off()).cubes(),
                "{}: off-sets of {name} differ",
                stg.name()
            );
        }
    }
}

#[test]
fn sg_flow_matches_the_reference_byte_for_byte() {
    for stg in [
        paper_fig1(),
        vme_read_csc(),
        muller_pipeline(5),
        sequencer(6),
    ] {
        for exact_minimization in [false, true] {
            for allow_inversion in [false, true] {
                let options = SgSynthesisOptions {
                    exact_minimization,
                    allow_inversion,
                    ..Default::default()
                };
                let library = synthesize_from_sg(&stg, &options).expect("library ok");
                let reference = sg_reference(&stg, &options).expect("reference ok");
                assert_eq!(
                    sg_equations(&stg, &library),
                    sg_equations(&stg, &reference),
                    "{} (exact={exact_minimization}, invert={allow_inversion})",
                    stg.name()
                );
            }
        }
    }
}

#[test]
fn csc_violation_witness_identical_to_the_reference() {
    let stg = vme_read_no_csc();
    let library = synthesize_from_sg(&stg, &SgSynthesisOptions::default()).unwrap_err();
    let reference = sg_reference(&stg, &SgSynthesisOptions::default()).unwrap_err();
    assert_eq!(library, reference, "witness code or signal differs");
}

#[test]
fn unfolding_flow_matches_the_reference_on_the_suite() {
    // Same equations in both cover modes on every suite entry. In
    // approximate mode the pre-minimisation covers must match cube for
    // cube (identical refinement trajectory); in exact mode they are the
    // same point sets in different clothes (disjoint-cube diagram paths vs
    // minterm lists).
    for stg in suite() {
        for mode in [CoverMode::Exact, CoverMode::Approximate] {
            let options = SynthesisOptions {
                mode,
                ..SynthesisOptions::default()
            };
            match (
                synthesize_from_unfolding(&stg, &options),
                unfolding_reference(&stg, &options),
            ) {
                (Ok(l), Ok(r)) => {
                    assert_eq!(
                        unfolding_equations(&stg, &l),
                        unfolding_equations(&stg, &r),
                        "{} ({mode:?})",
                        stg.name()
                    );
                    for (gl, gr) in l.gates.iter().zip(&r.gates) {
                        match mode {
                            CoverMode::Approximate => {
                                assert_eq!(gl.on_cover.cubes(), gr.on_cover.cubes());
                                assert_eq!(gl.off_cover.cubes(), gr.off_cover.cubes());
                                assert_eq!(gl.refinement, gr.refinement, "{}", stg.name());
                            }
                            CoverMode::Exact => {
                                for (a, b) in
                                    [(&gl.on_cover, &gr.on_cover), (&gl.off_cover, &gr.off_cover)]
                                {
                                    assert!(a.covers_cover(b) && b.covers_cover(a));
                                }
                            }
                        }
                    }
                }
                (Err(el), Err(er)) => assert_eq!(
                    std::mem::discriminant(&el),
                    std::mem::discriminant(&er),
                    "{}: {el} vs {er}",
                    stg.name()
                ),
                (l, r) => panic!(
                    "{} ({mode:?}): only one side failed: {:?} vs {:?}",
                    stg.name(),
                    l.err().map(|e| e.to_string()),
                    r.err().map(|e| e.to_string())
                ),
            }
        }
    }
}

#[test]
fn token_ring_12_unfolding_equations_match_the_reference() {
    let stg = parse_g(include_str!("../benchmarks/token_ring_12.g")).expect("parses");
    let options = SynthesisOptions::default();
    let library = synthesize_from_unfolding(&stg, &options).expect("library ok");
    let reference = unfolding_reference(&stg, &options).expect("reference ok");
    assert_eq!(
        unfolding_equations(&stg, &library),
        unfolding_equations(&stg, &reference)
    );
}
