//! # si-perfbench — the repository's end-to-end benchmark
//!
//! A single-process, closed-loop driver with one client: it draws a seeded
//! list of `.g` specs for a workload, synthesises them one at a time
//! through the public library API with the `synth` CLI's defaults on one
//! thread (`--workers 1`), checks
//! every output against a verified reference, and reports end-to-end
//! metrics. A traced run calls the same flows stage by stage, wraps each
//! call into a crate in a span, and reports the per-layer split.
//!
//! * [`pool`] — workloads, candidate pools, seeded spec lists;
//! * [`flows`] — the timed and traced drivers;
//! * [`check`] — reference outputs and the state-graph oracle;
//! * [`trace`] — in-memory spans, counters and self-time arithmetic;
//! * [`run`] — the closed loop and its metrics;
//! * [`stats`] — medians, quantiles and `/proc` figures.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod flows;
pub mod pool;
pub mod rng;
pub mod run;
pub mod stats;
pub mod trace;

/// Renders `s` as a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders a finite number as JSON (non-finite values become 0, which
/// JSON cannot otherwise carry).
pub fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_owned()
    }
}
