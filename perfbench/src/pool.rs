//! The workloads, their candidate pools, and the seeded spec lists drawn
//! from them.
//!
//! A pool is a list of *strata*. Most strata hold one spec at one size; a
//! few hold one spec in two encodings, generated and checked in. The seed
//! picks one candidate per stratum and then the order of the picks. Sizes
//! are fixed per workload on purpose: neighbouring sizes differ by 25–40%
//! in cost, so a seeded choice between them would swamp the run-to-run
//! spread the benchmark has to stay within. The program under test only
//! ever sees the serialised `.g` text of a pick.

use si_stg::generators::{
    counterflow_pipeline, dining_philosophers, independent_cycles, muller_pipeline, parallelizer,
    sequencer, token_ring, wide_arbiter,
};
use si_stg::suite::synthesisable;
use si_stg::{write_g, Stg};

use crate::rng::Rng;

/// One benchmark workload: a candidate pool plus the flow it runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's flow (the `synth` default, `--flow unfolding`) over
    /// choice-free families.
    Unfolding,
    /// The `--flow auto` front door over many small and medium specs.
    AutoSmall,
    /// `--flow sg --engine symbolic` on specs whose BDD pool stays under
    /// the garbage-collection threshold.
    SymbolicShallow,
    /// The same engine on specs whose pool crosses the threshold.
    SymbolicDeep,
}

/// How a workload synthesises its specs, mirroring `synth` CLI flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowKind {
    /// `--flow unfolding`.
    Unfolding,
    /// `--flow auto`.
    Auto,
    /// `--flow sg --engine symbolic`.
    Symbolic,
}

impl Workload {
    /// Every workload, in the order the benchmark lists them.
    pub const ALL: [Workload; 4] = [
        Workload::Unfolding,
        Workload::AutoSmall,
        Workload::SymbolicShallow,
        Workload::SymbolicDeep,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Unfolding => "unfolding",
            Workload::AutoSmall => "auto_small",
            Workload::SymbolicShallow => "symbolic_shallow",
            Workload::SymbolicDeep => "symbolic_deep",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The flow this workload drives.
    pub fn flow(self) -> FlowKind {
        match self {
            Workload::Unfolding => FlowKind::Unfolding,
            Workload::AutoSmall => FlowKind::Auto,
            Workload::SymbolicShallow | Workload::SymbolicDeep => FlowKind::Symbolic,
        }
    }

    /// The candidate pool, as strata of interchangeable candidates.
    pub fn strata(self) -> Vec<Vec<Candidate>> {
        use Family::*;
        match self {
            Workload::Unfolding => vec![
                gen(Muller, &[24]),
                gen(Muller, &[20]),
                gen(Muller, &[18]),
                gen(Muller, &[14]),
                gen(TokenRing, &[18]),
                gen(TokenRing, &[16]),
                gen(TokenRing, &[14]),
                gen(Counterflow, &[15]),
                gen(Counterflow, &[11]),
                gen(Sequencer, &[32]),
                gen(Parallelizer, &[8]),
                twins(Muller, 12, "muller_pipeline_12"),
                twins(TokenRing, 12, "token_ring_12"),
            ],
            Workload::AutoSmall => {
                let mut strata: Vec<Vec<Candidate>> =
                    hand_written_suite().into_iter().map(|c| vec![c]).collect();
                strata.extend([
                    twins(DiningPhilosophers, 4, "dining_phil_4"),
                    gen(DiningPhilosophers, &[5]),
                    gen(DiningPhilosophers, &[6]),
                    vec![file("vme_read_csc")],
                    twins(TokenRing, 8, "token_ring_8"),
                    gen(TokenRing, &[6]),
                    gen(TokenRing, &[7]),
                    gen(Parallelizer, &[6]),
                    gen(Parallelizer, &[8]),
                    gen(Muller, &[5]),
                    gen(Muller, &[6]),
                    gen(IndependentCycles, &[11]),
                    gen(IndependentCycles, &[12]),
                    gen(Sequencer, &[24]),
                    gen(Sequencer, &[40]),
                    gen(WideArbiter, &[4]),
                    gen(WideArbiter, &[5]),
                    gen(WideArbiter, &[6]),
                    gen(Counterflow, &[3]),
                ]);
                strata
            }
            Workload::SymbolicShallow => vec![
                gen(Muller, &[13]),
                vec![file("muller_pipeline_12")],
                gen(WideArbiter, &[11]),
                gen(WideArbiter, &[10]),
                twins(DiningPhilosophers, 8, "dining_phil_8"),
                gen(DiningPhilosophers, &[11]),
                twins(TokenRing, 12, "token_ring_12"),
                gen(TokenRing, &[14]),
                gen(Counterflow, &[8]),
            ],
            Workload::SymbolicDeep => vec![gen(WideArbiter, &[14])],
        }
    }

    /// Every candidate of the pool, stratum by stratum.
    pub fn candidates(self) -> Vec<Candidate> {
        self.strata().into_iter().flatten().collect()
    }
}

/// A generator family from `si_stg::generators`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Family {
    /// `muller_pipeline(n)`.
    Muller,
    /// `token_ring(n)`.
    TokenRing,
    /// `counterflow_pipeline(k)`.
    Counterflow,
    /// `sequencer(n)`.
    Sequencer,
    /// `parallelizer(n)`.
    Parallelizer,
    /// `wide_arbiter(n)`.
    WideArbiter,
    /// `dining_philosophers(n)`.
    DiningPhilosophers,
    /// `independent_cycles(k)`.
    IndependentCycles,
}

impl Family {
    /// Every family.
    const ALL: [Family; 8] = [
        Family::Muller,
        Family::TokenRing,
        Family::Counterflow,
        Family::Sequencer,
        Family::Parallelizer,
        Family::WideArbiter,
        Family::DiningPhilosophers,
        Family::IndependentCycles,
    ];

    /// The family's generator name.
    fn name(self) -> &'static str {
        match self {
            Family::Muller => "muller_pipeline",
            Family::TokenRing => "token_ring",
            Family::Counterflow => "counterflow_pipeline",
            Family::Sequencer => "sequencer",
            Family::Parallelizer => "parallelizer",
            Family::WideArbiter => "wide_arbiter",
            Family::DiningPhilosophers => "dining_philosophers",
            Family::IndependentCycles => "independent_cycles",
        }
    }

    /// The family's STG at size `n`.
    fn build(self, n: usize) -> Stg {
        match self {
            Family::Muller => muller_pipeline(n),
            Family::TokenRing => token_ring(n),
            Family::Counterflow => counterflow_pipeline(n),
            Family::Sequencer => sequencer(n),
            Family::Parallelizer => parallelizer(n),
            Family::WideArbiter => wide_arbiter(n),
            Family::DiningPhilosophers => dining_philosophers(n),
            Family::IndependentCycles => independent_cycles(n),
        }
    }
}

/// Where a candidate's `.g` text comes from.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Source {
    /// A generator family at one size.
    Generated(Family, usize),
    /// An entry of `si_stg::suite::synthesisable()`, already serialised
    /// (the suite is built as a whole).
    Suite(String),
    /// A checked-in `benchmarks/*.g` file.
    File(&'static str),
}

/// One pool candidate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Candidate {
    /// Stable identifier, the key of the reference outputs.
    pub id: String,
    source: Source,
}

impl Candidate {
    /// The candidate's `.g` text.
    pub fn g_text(&self) -> String {
        match &self.source {
            Source::Generated(family, n) => write_g(&family.build(*n)),
            Source::Suite(text) => text.clone(),
            Source::File(name) => checked_in(name).to_owned(),
        }
    }
}

fn gen(family: Family, sizes: &[usize]) -> Vec<Candidate> {
    sizes
        .iter()
        .map(|&n| Candidate {
            id: format!("{}_{n}", family.name()),
            source: Source::Generated(family, n),
        })
        .collect()
}

/// A generated spec and its checked-in twin: the same specification in two
/// encodings, interchangeable for the flow that draws them.
fn twins(family: Family, n: usize, name: &'static str) -> Vec<Candidate> {
    let mut stratum = gen(family, &[n]);
    stratum.push(file(name));
    stratum
}

fn file(name: &'static str) -> Candidate {
    Candidate {
        id: format!("file:{name}"),
        source: Source::File(name),
    }
}

/// The hand-written entries of `si_stg::suite::synthesisable()`. The rest
/// of the suite are generator instances of families the pools draw
/// directly; leaving them out keeps sub-millisecond specs under half of the
/// `auto_small` list, so its median latency falls on specs of a few
/// milliseconds, which the host's slow phases stretch far less than the
/// tiniest ones.
fn hand_written_suite() -> Vec<Candidate> {
    let generated: Vec<String> = Family::ALL
        .iter()
        .map(|f| format!("{}-", f.name().replace('_', "-")))
        .collect();
    synthesisable()
        .iter()
        .filter(|stg| !generated.iter().any(|g| stg.name().starts_with(g.as_str())))
        .map(|stg| Candidate {
            id: format!("suite:{}", stg.name()),
            source: Source::Suite(write_g(stg)),
        })
        .collect()
}

/// The checked-in `benchmarks/*.g` specs the pools draw from, compiled in.
fn checked_in(name: &str) -> &'static str {
    match name {
        "dining_phil_4" => include_str!("../../benchmarks/dining_phil_4.g"),
        "dining_phil_8" => include_str!("../../benchmarks/dining_phil_8.g"),
        "muller_pipeline_12" => include_str!("../../benchmarks/muller_pipeline_12.g"),
        "token_ring_8" => include_str!("../../benchmarks/token_ring_8.g"),
        "token_ring_12" => include_str!("../../benchmarks/token_ring_12.g"),
        "vme_read_csc" => include_str!("../../benchmarks/vme_read_csc.g"),
        other => panic!("no checked-in spec `{other}`"),
    }
}

/// One drawn spec: the candidate id and the text the program receives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Spec {
    /// The candidate id.
    pub id: String,
    /// The serialised `.g` text.
    pub text: String,
}

/// Draws the run's spec list: one candidate per stratum, in seeded order,
/// serialised to `.g` text.
pub fn draw(workload: Workload, seed: u64) -> Vec<Spec> {
    let mut rng = Rng::new(seed ^ workload_salt(workload));
    let mut picks: Vec<Candidate> = workload
        .strata()
        .into_iter()
        .map(|mut stratum| {
            let i = rng.below(stratum.len());
            stratum.swap_remove(i)
        })
        .collect();
    rng.shuffle(&mut picks);
    picks
        .into_iter()
        .map(|c| Spec {
            text: c.g_text(),
            id: c.id,
        })
        .collect()
}

/// Keeps the streams of different workloads apart under one seed.
fn workload_salt(workload: Workload) -> u64 {
    workload.name().bytes().fold(0xCBF2_9CE4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}
