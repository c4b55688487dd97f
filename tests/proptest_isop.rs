//! Property-based pinning of the BDD-native ISOP extraction
//! (Minato–Morreale): random BDD programs are built from random op
//! sequences and hit with arbitrary level-swap / sift / gc schedules.
//! At every point the explicit ISOP cover must equal its function exactly
//! and be irredundant (dropping any cube loses a point), and the implicit
//! extraction must land on the same canonical point set as the disjoint-cube
//! translation path — the invariant that makes the two synthesis front ends
//! byte-identical. The suite-level corollary is pinned here too: on every
//! synthesisable STG, minimising the ISOP-extracted sets gives the same gate
//! equations as minimising the translated ones.

use proptest::collection::vec;
use proptest::prelude::*;
use si_synth::bdd::{Bdd, BddManager};
use si_synth::cubes::implicit::ImplicitPool;
use si_synth::cubes::Cube;
use si_synth::stategraph::{
    check_implementable, synthesize_from_on_off_sets, synthesize_from_sg, SgEngine,
    SgSynthesisOptions, SymbolicSg,
};
use si_synth::stg::suite::synthesisable;

/// One step of a random function-building program. Operand indices address
/// the result stack modulo its length.
#[derive(Debug, Clone)]
enum Op {
    Var(u8),
    NVar(u8),
    And(u8, u8),
    Or(u8, u8),
    Xor(u8, u8),
    Diff(u8, u8),
    Not(u8),
    Ite(u8, u8, u8),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        any::<u8>().prop_map(Op::Var),
        any::<u8>().prop_map(Op::NVar),
        (any::<u8>(), any::<u8>()).prop_map(|(a, b)| Op::And(a, b)),
        (any::<u8>(), any::<u8>()).prop_map(|(a, b)| Op::Or(a, b)),
        (any::<u8>(), any::<u8>()).prop_map(|(a, b)| Op::Xor(a, b)),
        (any::<u8>(), any::<u8>()).prop_map(|(a, b)| Op::Diff(a, b)),
        any::<u8>().prop_map(Op::Not),
        (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(a, b, c)| Op::Ite(a, b, c)),
    ]
}

/// One pool mutation between extractions: an adjacent level swap, a full
/// sift, or a collection — each clears or purges the ISOP memo differently.
#[derive(Debug, Clone)]
enum Mutation {
    Swap(u8),
    Sift,
    Gc,
}

fn mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        any::<u8>().prop_map(Mutation::Swap),
        Just(Mutation::Sift),
        Just(Mutation::Gc),
    ]
}

/// Runs the program over a fresh manager, returning the result stack.
fn run_program(mgr: &mut BddManager, ops: &[Op]) -> Vec<Bdd> {
    let w = mgr.num_vars();
    let mut stack = vec![mgr.zero(), mgr.one()];
    let pick = |stack: &[Bdd], i: u8| stack[i as usize % stack.len()];
    for op in ops {
        let r = match op {
            Op::Var(v) => mgr.var(*v as usize % w),
            Op::NVar(v) => mgr.nvar(*v as usize % w),
            Op::And(a, b) => {
                let (x, y) = (pick(&stack, *a), pick(&stack, *b));
                mgr.and(x, y)
            }
            Op::Or(a, b) => {
                let (x, y) = (pick(&stack, *a), pick(&stack, *b));
                mgr.or(x, y)
            }
            Op::Xor(a, b) => {
                let (x, y) = (pick(&stack, *a), pick(&stack, *b));
                mgr.xor(x, y)
            }
            Op::Diff(a, b) => {
                let (x, y) = (pick(&stack, *a), pick(&stack, *b));
                mgr.diff(x, y)
            }
            Op::Not(a) => {
                let x = pick(&stack, *a);
                mgr.not(x)
            }
            Op::Ite(a, b, c) => {
                let (x, y, z) = (pick(&stack, *a), pick(&stack, *b), pick(&stack, *c));
                mgr.ite(x, y, z)
            }
        };
        stack.push(r);
    }
    stack
}

/// All assignments over `width` variables, variable-index order.
fn assignments(width: usize) -> impl Iterator<Item = Vec<bool>> {
    (0..(1u32 << width)).map(move |x| (0..width).map(|i| (x >> i) & 1 == 1).collect())
}

/// The two ISOP contracts, pointwise: the cover equals `f` exactly, and
/// dropping any one cube loses at least one point of `f`.
fn check_isop_exact_and_irredundant(
    mgr: &BddManager,
    f: Bdd,
    cubes: &[Cube],
) -> Result<(), TestCaseError> {
    let width = mgr.num_vars();
    for bits in assignments(width) {
        let covered = cubes.iter().any(|c| c.covers_bits(&bits));
        prop_assert_eq!(covered, mgr.eval(f, &bits), "cover ≠ f at {:?}", bits);
    }
    for drop in 0..cubes.len() {
        let lost = assignments(width).any(|bits| {
            mgr.eval(f, &bits)
                && !cubes
                    .iter()
                    .enumerate()
                    .any(|(i, c)| i != drop && c.covers_bits(&bits))
        });
        prop_assert!(lost, "cube {} ({}) is redundant", drop, &cubes[drop]);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn isop_is_exact_irredundant_and_translation_equal_under_mutations(
        w in 3usize..7,
        ops in vec(op(), 1..20),
        mutations in vec(mutation(), 0..6),
    ) {
        let mut mgr = BddManager::new(w);
        let stack = run_program(&mut mgr, &ops);
        for &f in &stack {
            mgr.protect(f);
        }
        let map: Vec<Option<usize>> = (0..w).map(Some).collect();
        let back_map: Vec<usize> = (0..w).collect();

        // Baseline canonical point sets from the translation path.
        let mut pool = ImplicitPool::new(w);
        let sets: Vec<_> = stack
            .iter()
            .map(|&f| mgr.to_implicit(f, &mut pool, &map).expect("identity map"))
            .collect();

        // Extract before any mutation, then again after each one: swaps and
        // sifts retire the ISOP memo wholesale, collections purge it — every
        // schedule must leave extraction exact, irredundant, and on the same
        // canonical point set as translation.
        for step in 0..=mutations.len() {
            if step > 0 {
                match &mutations[step - 1] {
                    Mutation::Swap(l) => {
                        mgr.swap_levels(*l as usize % (w - 1));
                    }
                    Mutation::Sift => {
                        mgr.reorder_sift(BddManager::DEFAULT_MAX_GROWTH);
                    }
                    Mutation::Gc => {
                        mgr.gc();
                    }
                }
            }
            for (i, &f) in stack.iter().enumerate() {
                let cover = mgr.isop(f);
                check_isop_exact_and_irredundant(&mgr, f, cover.cubes())?;
                let via_isop = mgr
                    .isop_implicit(f, &mut pool, &map)
                    .expect("identity map");
                prop_assert_eq!(
                    via_isop, sets[i],
                    "ISOP and translation disagree after {} mutation(s)", step
                );
                // Round-trip: the implicit set loads back as the same function.
                let back = mgr.from_implicit(&pool, via_isop, &back_map);
                prop_assert_eq!(back, f, "round-trip landed on a different function");
            }
        }
        for &f in &stack {
            mgr.unprotect(f);
        }
    }
}

#[test]
fn extraction_front_ends_agree_byte_for_byte_on_the_suite() {
    // The whole-suite corollary of the property above: the symbolic flow
    // (ISOP extraction) and the same minimiser fed by the translation
    // reference (`SymbolicSg::on_off_sets`) must not differ by a single
    // byte of any gate equation, because both collapse to the same
    // canonical point sets before the minimiser runs.
    let options = SgSynthesisOptions {
        engine: SgEngine::Symbolic,
        ..Default::default()
    };
    for stg in synthesisable() {
        let isop = synthesize_from_sg(&stg, &options)
            .unwrap_or_else(|e| panic!("{} failed with isop: {e}", stg.name()));
        let sym = SymbolicSg::build(&stg, &options.symbolic_tuning())
            .unwrap_or_else(|e| panic!("{}: symbolic build failed: {e}", stg.name()));
        let signals = check_implementable(&stg).expect("no constant signal");
        let translated = signals.iter().map(|&s| sym.on_off_sets(s)).collect();
        let translate = synthesize_from_on_off_sets(&stg, translated, &options)
            .unwrap_or_else(|e| panic!("{} failed with translation: {e}", stg.name()));
        assert_eq!(isop.gates.len(), translate.gates.len(), "{}", stg.name());
        for (a, b) in isop.gates.iter().zip(&translate.gates) {
            assert_eq!(a.equation(&stg), b.equation(&stg), "{}", stg.name());
            assert_eq!(a.inverted, b.inverted, "{}", stg.name());
        }
    }
}
