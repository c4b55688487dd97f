//! Test-side reference implementations ("oracles") of both synthesis flows,
//! built only from public stage functions on explicit cube lists. The
//! library runs one production path per function (implicit covers, ISOP
//! extraction); the byte-identity tests compare it against these.
//!
//! * SG oracle: [`StateGraph::build`] → [`on_off_sets`] → [`minimize`] /
//!   [`minimize_exact`].
//! * Unfolding oracle: [`side_slices`] → [`approximate_side`] /
//!   [`exact_side_cover`] → [`refine_until_disjoint`] without a pool →
//!   [`side_cover`] → [`minimize`].
//!
//! Each integration test binary compiles this module on its own and uses
//! only part of it.
#![allow(dead_code)]

use si_synth::cubes::{minimize, minimize_exact, Cover, QmBudget};
use si_synth::stategraph::{
    check_implementable, on_off_sets, GateImplementation, SgError, SgSynthesis, SgSynthesisOptions,
    StateGraph,
};
use si_synth::stg::{SignalId, Stg};
use si_synth::synthesis::approx::{approximate_side, side_cover};
use si_synth::synthesis::exact::exact_side_cover;
use si_synth::synthesis::refine::refine_until_disjoint;
use si_synth::synthesis::slice::side_slices;
use si_synth::synthesis::{
    CorrectnessCondition, CoverMode, SignalGate, SynthesisError, SynthesisOptions, TimingBreakdown,
    UnfoldingSynthesis,
};
use si_synth::unfolding::{check_segment_persistency, StgUnfolding};

/// The first cube of `on ∩ off`, rendered: the witness both flows report.
fn witness(on: &Cover, off: &Cover) -> String {
    on.intersect(off)
        .cubes()
        .first()
        .map(ToString::to_string)
        .unwrap_or_default()
}

/// The explicit engine of SG-based synthesis on explicit minterm covers:
/// same gates, inversion choices and errors (CSC witness included) as
/// [`si_synth::stategraph::synthesize_from_sg`] with
/// [`si_synth::stategraph::SgEngine::Explicit`].
///
/// # Errors
///
/// State-graph construction errors, [`SgError::ConstantSignal`] and
/// [`SgError::CscViolation`], in the library's order.
pub fn sg_reference(stg: &Stg, options: &SgSynthesisOptions) -> Result<SgSynthesis, SgError> {
    let sg = StateGraph::build(stg, options.state_budget)?;
    let signals = check_implementable(stg)?;
    let run_minimize = |on: &Cover, off: &Cover| {
        if options.exact_minimization {
            minimize_exact(on, off, &QmBudget::default()).unwrap_or_else(|| minimize(on, off))
        } else {
            minimize(on, off)
        }
    };
    let mut gates = Vec::with_capacity(signals.len());
    for signal in signals {
        let sets = on_off_sets(stg, &sg, signal);
        if sets.on.intersects(&sets.off) {
            return Err(SgError::CscViolation {
                signal: stg.signal_name(signal).to_owned(),
                code: witness(&sets.on, &sets.off),
            });
        }
        let on_impl = run_minimize(&sets.on, &sets.off);
        let (cover, inverted) = if options.allow_inversion {
            let off_impl = run_minimize(&sets.off, &sets.on);
            if off_impl.literal_count() < on_impl.literal_count() {
                (off_impl, true)
            } else {
                (on_impl, false)
            }
        } else {
            (on_impl, false)
        };
        gates.push(GateImplementation {
            signal,
            cover,
            inverted,
        });
    }
    Ok(SgSynthesis { gates })
}

/// The unfolding flow on explicit cube lists under the strong correctness
/// condition: same gates, pre-minimisation covers (as point sets in exact
/// mode, cube for cube in approximate mode) and error kinds as
/// [`si_synth::synthesis::synthesize_from_unfolding`]. Timings are zero.
///
/// # Errors
///
/// The library's errors, first failing signal first.
///
/// # Panics
///
/// Panics under [`CorrectnessCondition::Weak`], which the oracle does not
/// implement.
pub fn unfolding_reference(
    stg: &Stg,
    options: &SynthesisOptions,
) -> Result<UnfoldingSynthesis, SynthesisError> {
    assert_eq!(
        options.correctness,
        CorrectnessCondition::Strong,
        "the unfolding oracle implements the strong condition only"
    );
    let unf = StgUnfolding::build(stg, &options.unfolding)?;
    if options.check_persistency {
        if let Some(v) = check_segment_persistency(stg, &unf).first() {
            return Err(SynthesisError::NotPersistent {
                signal: stg.signal_name(v.disabled_label.signal).to_owned(),
            });
        }
    }
    let signals = stg.implementable_signals();
    if let Some(&s) = signals.iter().find(|&&s| stg.transitions_of(s).is_empty()) {
        return Err(SynthesisError::ConstantSignal {
            signal: stg.signal_name(s).to_owned(),
        });
    }
    let csc = |signal: SignalId, on: &Cover, off: &Cover| SynthesisError::CscViolation {
        signal: stg.signal_name(signal).to_owned(),
        witness: witness(on, off),
    };
    let width = unf.signal_count();
    let mut gates = Vec::with_capacity(signals.len());
    for signal in signals {
        let on_slices = side_slices(&unf, signal, true);
        let off_slices = side_slices(&unf, signal, false);
        let (on, off, refinement) = match options.mode {
            CoverMode::Exact => {
                let on = exact_side_cover(stg, &unf, &on_slices, options.slice_budget)?;
                let off = exact_side_cover(stg, &unf, &off_slices, options.slice_budget)?;
                if on.intersects(&off) {
                    return Err(csc(signal, &on, &off));
                }
                (on, off, None)
            }
            CoverMode::Approximate => {
                let mut on_atoms = approximate_side(stg, &unf, &on_slices);
                let mut off_atoms = approximate_side(stg, &unf, &off_slices);
                let report = refine_until_disjoint(
                    stg,
                    &unf,
                    &on_slices,
                    &off_slices,
                    &mut on_atoms,
                    &mut off_atoms,
                    options.max_refinement_steps,
                    options.slice_budget,
                    None,
                )?;
                let on = side_cover(&on_atoms, width);
                let off = side_cover(&off_atoms, width);
                if !report.disjoint {
                    return Err(csc(signal, &on, &off));
                }
                (on, off, Some(report))
            }
        };
        let gate = minimize(&on, &off);
        gates.push(SignalGate {
            signal,
            on_cover: on,
            off_cover: off,
            gate,
            refinement,
        });
    }
    Ok(UnfoldingSynthesis {
        gates,
        timing: TimingBreakdown::default(),
        events: unf.event_count(),
        conditions: unf.condition_count(),
    })
}

/// One rendered equation per gate, with the inverted-gate marker.
pub fn sg_equations(stg: &Stg, result: &SgSynthesis) -> Vec<String> {
    result.gates.iter().map(|g| g.equation(stg)).collect()
}

/// One rendered equation per gate.
pub fn unfolding_equations(stg: &Stg, result: &UnfoldingSynthesis) -> Vec<String> {
    result.gates.iter().map(|g| g.equation(stg)).collect()
}
