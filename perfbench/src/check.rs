//! Reference outputs and the correctness check of every synthesis.
//!
//! Each workload has a reference file `refs/<workload>.txt` holding, for
//! every pool candidate, the gate equations and literal count its flow
//! produced when the reference was made. The reference was verified once
//! then, by the state-graph oracle. A run compares each output with its
//! reference byte for byte. Only on a mismatch does it call the oracle,
//! after the timed loop: an accepted output is a changed pin (a
//! legitimate quality change), a rejected one is a failed synthesis.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use si_cubes::Cover;
use si_stategraph::SgEngine;
use si_stg::{SignalId, Stg};
use si_synthesis::{
    verify_against_sg, verify_against_sg_with, SignalGate, TimingBreakdown, UnfoldingSynthesis,
    VerifyError,
};

use crate::pool::Workload;

/// State budget of the explicit oracle; larger specs go to the symbolic
/// oracle.
pub const ORACLE_STATE_BUDGET: usize = 200_000;
/// Node budget of the symbolic oracle.
pub const ORACLE_NODE_BUDGET: usize = 16_000_000;

/// One pinned output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reference {
    /// Gate equations, one per line.
    pub equations: String,
    /// Total literal count.
    pub literals: usize,
}

/// The references of one workload, by candidate id.
pub type References = BTreeMap<String, Reference>;

/// The checked-in reference text of `workload`.
pub fn reference_text(workload: Workload) -> &'static str {
    match workload {
        Workload::Unfolding => include_str!("../refs/unfolding.txt"),
        Workload::AutoSmall => include_str!("../refs/auto_small.txt"),
        Workload::SymbolicShallow => include_str!("../refs/symbolic_shallow.txt"),
        Workload::SymbolicDeep => include_str!("../refs/symbolic_deep.txt"),
    }
}

/// Parses a reference file: a `spec <id> <literals>` header line, the
/// equations, and a blank line after each entry. `#` lines are comments.
///
/// # Errors
///
/// A malformed header, rendered as text.
pub fn parse_references(text: &str) -> Result<References, String> {
    let mut refs = References::new();
    let mut current: Option<(String, Reference)> = None;
    for line in text.lines() {
        if let Some(header) = line.strip_prefix("spec ") {
            let mut parts = header.split(' ');
            let (Some(id), Some(lits), None) = (parts.next(), parts.next(), parts.next()) else {
                return Err(format!("bad reference header `{line}`"));
            };
            let literals = lits
                .parse()
                .map_err(|_| format!("bad literal count in `{line}`"))?;
            current = Some((
                id.to_owned(),
                Reference {
                    equations: String::new(),
                    literals,
                },
            ));
        } else if line.is_empty() {
            if let Some((id, r)) = current.take() {
                refs.insert(id, r);
            }
        } else if line.starts_with('#') && current.is_none() {
            continue;
        } else if let Some((_, r)) = current.as_mut() {
            if !r.equations.is_empty() {
                r.equations.push('\n');
            }
            r.equations.push_str(line);
        } else {
            return Err(format!("equation line outside an entry: `{line}`"));
        }
    }
    if let Some((id, r)) = current.take() {
        refs.insert(id, r);
    }
    Ok(refs)
}

/// Renders references in the format [`parse_references`] reads.
pub fn render_references(workload: Workload, refs: &References) -> String {
    let mut out = format!(
        "# Reference outputs of the `{}` workload: gate equations and literal\n\
         # count per pool candidate, each verified by the state-graph oracle\n\
         # when written. Regenerate with `--bless`.\n\n",
        workload.name()
    );
    for (id, r) in refs {
        let _ = writeln!(out, "spec {id} {}\n{}\n", r.literals, r.equations);
    }
    out
}

/// The oracle's judgement of an output that differs from its reference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Differs from the reference, but the oracle accepts it.
    Changed,
    /// Rejected: a synthesis error, or an output the oracle rejects.
    Failed(String),
}

/// Whether an output is byte-identical to its reference. A mismatch is
/// handed to an [`Oracle`] after the timed region.
pub fn matches_reference(reference: Option<&Reference>, equations: &str, literals: usize) -> bool {
    reference.is_some_and(|r| r.equations == equations && r.literals == literals)
}

/// A correctness check of one output's gates. Runs use [`oracle`]; tests
/// substitute their own.
pub type Oracle<'a> = &'a dyn Fn(&Stg, &[(SignalId, Cover)]) -> Result<(), String>;

/// The verdict on an output that differs from its reference.
pub fn judge(stg: &Stg, gates: &[(SignalId, Cover)], oracle: Oracle<'_>) -> Verdict {
    match oracle(stg, gates) {
        Ok(()) => Verdict::Changed,
        Err(e) => Verdict::Failed(format!("oracle rejects the output: {e}")),
    }
}

/// The state-graph oracle: `verify_against_sg` within its state budget,
/// otherwise `verify_against_sg_with` on the symbolic engine. It first
/// requires one gate per implementable signal, in signal order, since the
/// state-graph check only verifies the gates it is given.
///
/// # Errors
///
/// The oracle's verdict, rendered as text.
pub fn oracle(stg: &Stg, gates: &[(SignalId, Cover)]) -> Result<(), String> {
    let named: Vec<SignalId> = gates.iter().map(|(signal, _)| *signal).collect();
    let expected = stg.implementable_signals();
    if named != expected {
        let names = |ids: &[SignalId]| {
            ids.iter()
                .map(|&s| stg.signal_name(s))
                .collect::<Vec<_>>()
                .join(" ")
        };
        return Err(format!(
            "gates for [{}], expected one for each of [{}]",
            names(&named),
            names(&expected)
        ));
    }
    let width = stg.signal_count();
    let synthesis = UnfoldingSynthesis {
        gates: gates
            .iter()
            .map(|(signal, gate)| SignalGate {
                signal: *signal,
                on_cover: Cover::empty(width),
                off_cover: Cover::empty(width),
                gate: gate.clone(),
                refinement: None,
            })
            .collect(),
        timing: TimingBreakdown::default(),
        events: 0,
        conditions: 0,
    };
    match verify_against_sg(stg, &synthesis, ORACLE_STATE_BUDGET) {
        Err(VerifyError::StateGraph(_)) => {
            verify_against_sg_with(stg, &synthesis, ORACLE_NODE_BUDGET, SgEngine::Symbolic)
        }
        other => other,
    }
    .map_err(|e| e.to_string())
}
