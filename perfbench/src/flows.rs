//! The two drivers: the timed one calls each flow's public entry point
//! exactly as `synth --workers 1` does with its defaults; the traced one calls
//! the public stage functions one by one, in the order the library's own
//! flow runs them, and wraps each call in a span.

use si_cubes::implicit::ImplicitPool;
use si_cubes::par::par_map;
use si_cubes::{minimize, Cover};
use si_stategraph::{
    check_implementable, synthesize_from_built_sg, synthesize_from_on_off_sets, synthesize_from_sg,
    OrderSeed, ReorderPolicy, SgEngine, SgSynthesis, SgSynthesisOptions, StateGraph, SymbolicSg,
};
use si_stg::{parse_g, SignalId, Stg};
use si_synthesis::approx::{approximate_side, side_cover};
use si_synthesis::refine::refine_until_disjoint;
use si_synthesis::slice::side_slices;
use si_synthesis::{choose_flow, synthesize_from_unfolding, FlowChoice, SynthesisOptions};
use si_unfolding::{check_segment_persistency, StgUnfolding};

use crate::pool::FlowKind;
use crate::trace::{SpanId, Tracer};

/// Short name of the flow (and engine) a spec was synthesised with, for
/// result rows.
pub fn route_name(route: FlowChoice) -> &'static str {
    match route {
        FlowChoice::Unfolding => "unfolding",
        FlowChoice::SgExplicit => "sg_explicit",
        FlowChoice::SgSymbolic => "sg_symbolic",
    }
}

/// A synthesised spec: the parsed STG, the route taken, one SOP cover per
/// implemented signal, and the rendered gate equations.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The STG parsed from the spec's text.
    pub stg: Stg,
    /// The flow and engine used.
    pub route: FlowChoice,
    /// Per implemented signal, its gate cover.
    pub gates: Vec<(SignalId, Cover)>,
    /// One gate equation per line, as `synth` prints them.
    pub equations: String,
    /// Total gate literal count (the paper's `LitCnt`).
    pub literals: usize,
}

/// Threads every parallel stage runs on: the per-signal workers, the
/// unfolding builder's workers and the BDD kernel. On a virtual machine
/// whose vCPUs other load takes away in bursts, a synthesis split over two
/// threads waits at every join for the thread that lost its vCPU. Under a
/// load that kept one of two vCPUs busy in bursts, the run-to-run spread
/// (interquartile range over median) of `unfolding`'s `latency_ms.p50`
/// was 0.38 on two threads and 0.07 on one.
pub const THREADS: usize = 1;

/// The unfolding-flow options of `synth --workers 1`, with the unfolding
/// builder pinned to one thread as well.
pub fn unfolding_options() -> SynthesisOptions {
    let mut options = SynthesisOptions {
        workers: Some(THREADS),
        ..SynthesisOptions::default()
    };
    options.unfolding.workers = Some(THREADS);
    options
}

/// The SG-flow options of `synth --workers 1` for `engine`. The CLI
/// reorders with `auto` where the library's own default is `Off`; the
/// benchmark follows the CLI.
pub fn sg_options(engine: SgEngine) -> SgSynthesisOptions {
    SgSynthesisOptions {
        engine,
        symbolic_reorder: ReorderPolicy::Auto,
        symbolic_order_seed: OrderSeed::SignalAdjacency,
        workers: Some(THREADS),
        ..SgSynthesisOptions::default()
    }
}

/// The state budget `--flow auto` hands to `choose_flow`.
pub fn auto_state_budget() -> usize {
    SgSynthesisOptions::default().state_budget
}

/// CPUs the host offers this process.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// Worker threads the flows resolve under the benchmark's options.
pub fn resolved_workers() -> usize {
    unfolding_options().workers.unwrap_or_else(host_cpus)
}

/// BDD kernel threads the symbolic engine resolves under the benchmark's
/// options.
pub fn resolved_bdd_threads() -> usize {
    sg_options(SgEngine::Symbolic)
        .symbolic_tuning()
        .bdd_threads
        .unwrap_or(1)
}

/// Timed driver: `.g` text to gate equations through each flow's public
/// entry point.
///
/// # Errors
///
/// Any parse, routing or synthesis error, rendered as text.
pub fn synthesize(flow: FlowKind, text: &str) -> Result<Outcome, String> {
    let stg = parse_g(text).map_err(|e| format!("parse: {e}"))?;
    let route = match flow {
        FlowKind::Unfolding => FlowChoice::Unfolding,
        FlowKind::Symbolic => FlowChoice::SgSymbolic,
        FlowKind::Auto => route_of(&stg)?,
    };
    let gates = match route {
        FlowChoice::Unfolding => synthesize_from_unfolding(&stg, &unfolding_options())
            .map_err(|e| e.to_string())?
            .gates
            .into_iter()
            .map(|g| (g.signal, g.gate))
            .collect(),
        FlowChoice::SgExplicit => {
            sg_gates(synthesize_from_sg(&stg, &sg_options(SgEngine::Explicit)))?
        }
        FlowChoice::SgSymbolic => {
            sg_gates(synthesize_from_sg(&stg, &sg_options(SgEngine::Symbolic)))?
        }
    };
    Ok(finish(stg, route, gates))
}

fn route_of(stg: &Stg) -> Result<FlowChoice, String> {
    let decision = choose_flow(stg, auto_state_budget()).map_err(|e| e.to_string())?;
    Ok(decision.choice)
}

fn sg_gates<E: std::fmt::Display>(
    result: Result<SgSynthesis, E>,
) -> Result<Vec<(SignalId, Cover)>, String> {
    result
        .map_err(|e| e.to_string())?
        .gates
        .into_iter()
        .map(|g| {
            if g.inverted {
                // The CLI defaults never invert; an inverted gate would
                // need the oracle's inverted check, which the benchmark
                // does not wire up.
                Err(format!(
                    "unexpected inverted gate for signal {}",
                    g.signal.0
                ))
            } else {
                Ok((g.signal, g.cover))
            }
        })
        .collect()
}

fn finish(stg: Stg, route: FlowChoice, gates: Vec<(SignalId, Cover)>) -> Outcome {
    let names: Vec<&str> = stg.signals().map(|s| stg.signal_name(s)).collect();
    let equations = gates
        .iter()
        .map(|(signal, cover)| {
            format!(
                "{} = {}",
                stg.signal_name(*signal),
                cover.to_expression_string(&names)
            )
        })
        .collect::<Vec<_>>()
        .join("\n");
    let literals = gates.iter().map(|(_, c)| c.literal_count()).sum();
    Outcome {
        stg,
        route,
        gates,
        equations,
        literals,
    }
}

/// Traced driver: the same synthesis as [`synthesize`], but stage by stage
/// through the public layer functions, each call wrapped in a span under
/// the root span `spec`.
///
/// # Errors
///
/// Any parse, routing or synthesis error, rendered as text.
pub fn synthesize_traced(t: &Tracer, flow: FlowKind, text: &str) -> Result<Outcome, String> {
    t.span("spec", None, |root| {
        let root = Some(root);
        t.count("stg.parse_bytes", text.len() as f64);
        let stg = t
            .span("stg.parse", root, |_| parse_g(text))
            .map_err(|e| format!("parse: {e}"))?;
        let route = match flow {
            FlowKind::Unfolding => FlowChoice::Unfolding,
            FlowKind::Symbolic => FlowChoice::SgSymbolic,
            FlowKind::Auto => {
                let route = t.span("flow.choose", root, |_| route_of(&stg))?;
                t.count(
                    match route {
                        FlowChoice::SgExplicit => "flow.to_sg_explicit",
                        FlowChoice::Unfolding => "flow.to_unfolding",
                        FlowChoice::SgSymbolic => "flow.to_sg_symbolic",
                    },
                    1.0,
                );
                route
            }
        };
        let gates = match route {
            FlowChoice::Unfolding => traced_unfolding(t, root, &stg)?,
            FlowChoice::SgExplicit => traced_explicit(t, root, &stg)?,
            FlowChoice::SgSymbolic => traced_symbolic(t, root, &stg)?,
        };
        Ok(finish(stg, route, gates))
    })
}

/// One signal's refined, disjoint on- and off-set covers.
struct Derived {
    signal: SignalId,
    on: Cover,
    off: Cover,
}

/// The stages of `synthesize_from_unfolding` under its default options
/// (approximate covers, strong correctness, implicit covers, persistency
/// check), in the same order and on the same worker pool.
fn traced_unfolding(
    t: &Tracer,
    root: Option<SpanId>,
    stg: &Stg,
) -> Result<Vec<(SignalId, Cover)>, String> {
    let options = unfolding_options();
    let unf = t
        .span("unf.build", root, |_| {
            StgUnfolding::build(stg, &options.unfolding)
        })
        .map_err(|e| e.to_string())?;
    t.count("unf.events", unf.event_count() as f64);
    t.count("unf.conditions", unf.condition_count() as f64);
    let violations = t.span("unf.persistency", root, |_| {
        check_segment_persistency(stg, &unf)
    });
    if let Some(v) = violations.first() {
        return Err(format!(
            "segment not persistent for `{}`",
            stg.signal_name(v.disabled_label.signal)
        ));
    }
    let signals = stg.implementable_signals();
    if let Some(&s) = signals.iter().find(|&&s| stg.transitions_of(s).is_empty()) {
        return Err(format!("constant signal `{}`", stg.signal_name(s)));
    }
    let width = unf.signal_count();
    let derived = par_map(&signals, options.workers, |_, &signal| {
        let (on_slices, off_slices, mut on_atoms, mut off_atoms) =
            t.span("core.slices", root, |_| {
                let on_slices = side_slices(&unf, signal, true);
                let off_slices = side_slices(&unf, signal, false);
                let on_atoms = approximate_side(stg, &unf, &on_slices);
                let off_atoms = approximate_side(stg, &unf, &off_slices);
                (on_slices, off_slices, on_atoms, off_atoms)
            });
        t.count(
            "core.slice_count",
            (on_slices.len() + off_slices.len()) as f64,
        );
        let mut pool = ImplicitPool::new(width);
        let report = t
            .span("core.refine", root, |_| {
                refine_until_disjoint(
                    stg,
                    &unf,
                    &on_slices,
                    &off_slices,
                    &mut on_atoms,
                    &mut off_atoms,
                    options.max_refinement_steps,
                    options.slice_budget,
                    Some(&mut pool),
                )
            })
            .map_err(|e| e.to_string())?;
        t.count("core.refine_steps", report.steps as f64);
        t.count("core.exact_fallbacks", report.exact_fallbacks as f64);
        let on = side_cover(&on_atoms, width);
        let off = side_cover(&off_atoms, width);
        // The library's release-build guard: the pooled point sets of the
        // final covers must not meet.
        let (on_set, off_set) = (pool.cover_set(&on), pool.cover_set(&off));
        let shared = pool.intersect(on_set, off_set);
        if !report.disjoint || pool.first_minterm(shared).is_some() {
            return Err(format!("covers of `{}` intersect", stg.signal_name(signal)));
        }
        Ok(Derived { signal, on, off })
    })
    .into_iter()
    .collect::<Result<Vec<_>, String>>()?;
    let gates = par_map(&derived, options.workers, |_, d| {
        t.count("cubes.cubes_in", (d.on.len() + d.off.len()) as f64);
        let gate = t.span("cubes.minimize", root, |_| minimize(&d.on, &d.off));
        t.count("cubes.literals_out", gate.literal_count() as f64);
        (d.signal, gate)
    });
    Ok(gates)
}

/// `synthesize_from_sg` on the explicit engine, split at its two calls.
fn traced_explicit(
    t: &Tracer,
    root: Option<SpanId>,
    stg: &Stg,
) -> Result<Vec<(SignalId, Cover)>, String> {
    let options = sg_options(SgEngine::Explicit);
    let sg = t
        .span("sg.explore", root, |_| {
            StateGraph::build(stg, options.state_budget)
        })
        .map_err(|e| e.to_string())?;
    t.count("sg.states", sg.len() as f64);
    sg_gates(t.span("sg.synth", root, |_| {
        synthesize_from_built_sg(stg, &sg, &options)
    }))
}

/// `synthesize_from_sg` on the symbolic engine, split the way the `synth`
/// CLI splits it: reach, implementability check, extraction, minimisation.
fn traced_symbolic(
    t: &Tracer,
    root: Option<SpanId>,
    stg: &Stg,
) -> Result<Vec<(SignalId, Cover)>, String> {
    let options = sg_options(SgEngine::Symbolic);
    let (sym, reach_time) = t.span("sym.reach", root, |_| {
        let start = std::time::Instant::now();
        let sym = SymbolicSg::build(stg, &options.symbolic_tuning());
        (sym, start.elapsed())
    });
    let mut sym = sym.map_err(|e| e.to_string())?;
    let stats = sym.reach().stats();
    let maintenance = stats.gc_time + stats.reorder_time;
    t.count("sym.states", sym.state_count() as f64);
    t.count(
        "bdd.apply_ms",
        reach_time.saturating_sub(maintenance).as_secs_f64() * 1e3,
    );
    t.count("bdd.ops_ite", stats.ops.ite as f64);
    t.count("bdd.ops_exists", stats.ops.exists as f64);
    t.count("bdd.ops_and_exists", stats.ops.and_exists as f64);
    t.count("bdd.gc_ms", stats.gc_time.as_secs_f64() * 1e3);
    t.count("bdd.gc_runs", stats.gc_runs as f64);
    t.count("bdd.gc_collected", stats.gc_collected as f64);
    t.count("bdd.reorder_ms", stats.reorder_time.as_secs_f64() * 1e3);
    t.count("bdd.reorder_runs", stats.reorder_runs as f64);
    t.peak("bdd.peak_pool", stats.peak_pool as f64);
    t.count("bdd.reentrant_retries", stats.reentrant_maintenance as f64);
    let signals = t
        .span("sym.check", root, |_| check_implementable(stg))
        .map_err(|e| e.to_string())?;
    let sets = t.span("sym.extract", root, |_| {
        sym.extract_on_off_sets(&signals, options.extraction)
    });
    sg_gates(t.span("sym.minimise", root, |_| {
        synthesize_from_on_off_sets(stg, sets, &options)
    }))
}
