//! Repository automation (`cargo xtask`-style) entry point.
//!
//! Subcommands:
//!
//! * `forbid-panics` — CI gate: non-test library code of the algorithmic
//!   crates must not call `.unwrap()`, `.expect(…)`, `panic!(…)` or a bare
//!   message-less `unreachable!()`. Every fallible path there either
//!   returns a typed error, prechecks its contract with an `assert!`
//!   carrying the message, or matches exhaustively with an `unreachable!`
//!   carrying the invariant; panicking adapters and anonymous dead arms are
//!   the idioms the gate bans, because a poisoned synthesis run must
//!   surface as an `Err` the caller can report (or at worst a panic that
//!   names its invariant), not a bare backtrace.
//! * `forbid-unsafe` — CI gate: the same crates must not contain `unsafe`
//!   blocks or functions. Every library crate already carries
//!   `#![forbid(unsafe_code)]`; the textual gate keeps that true even if an
//!   attribute is dropped in a refactor, without waiting for a reviewer to
//!   notice.
//! * `bench` — symbolic-engine scaling harness: runs the SG flow's BDD
//!   engine over the large `benchmarks/*.g` specifications, three times
//!   each, checks that every repetition reproduces the gate
//!   equations, state count and kernel operation counts, and prints one
//!   row per specification (min-of-N wall ms, peak live nodes, op counts).
//!   With `--json` the rows are written to `BENCH_symbolic.json` at the
//!   workspace root; `--baseline FILE` adds an earlier commit's times as
//!   the before columns. The op counts are machine-independent, so they
//!   are what CI pins.
//!
//! The scanner is intentionally textual (no syn/proc-macro dependencies in
//! the offline build): it walks `crates/<crate>/src/**/*.rs`, drops `//`
//! comment lines, and ignores everything from a `#[cfg(test)]` line to the
//! end of file — in this codebase test modules are always the last item of
//! a file, which the gate itself double-checks by refusing any occurrence
//! of `#[cfg(test)]` that is followed by a non-indented `}` before EOF less
//! than the final line.

mod bench;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Crates whose library code the gates cover. `bench` (binaries,
/// process-exit on bad CLI args is fine) and the vendored shims are out of
/// scope by design.
const GATED_CRATES: &[&str] = &[
    "stg",
    "petri",
    "stategraph",
    "bdd",
    "core",
    "cubes",
    "unfolding",
];

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("forbid-panics") => run_gate(
            "forbid-panics",
            scan_panics,
            "return a typed error or match exhaustively instead",
        ),
        Some("forbid-unsafe") => run_gate(
            "forbid-unsafe",
            scan_unsafe,
            "the library crates are `#![forbid(unsafe_code)]`; keep them that way",
        ),
        Some("bench") => bench::run(args.collect()),
        Some(other) => {
            eprintln!(
                "unknown task `{other}`; available tasks: forbid-panics, forbid-unsafe, bench"
            );
            ExitCode::from(2)
        }
        None => {
            eprintln!(
                "usage: cargo run -p xtask -- <task>\n\ntasks:\n  forbid-panics\n  forbid-unsafe\n  bench [--json] [--baseline FILE] [name …]"
            );
            ExitCode::from(2)
        }
    }
}

/// Walks every gated crate's sources through `scan`, reporting violations
/// with `hint` and the conventional exit codes (0 clean, 1 violations,
/// 2 operational error).
fn run_gate(name: &str, scan: fn(&Path, &str, &mut Vec<String>), hint: &str) -> ExitCode {
    let root = workspace_root();
    let mut files = Vec::new();
    for krate in GATED_CRATES {
        collect_rs_files(&root.join("crates").join(krate).join("src"), &mut files);
    }
    files.sort();

    let mut violations = Vec::new();
    let mut scanned = 0usize;
    for file in &files {
        let text = match std::fs::read_to_string(file) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: cannot read {}: {e}", file.display());
                return ExitCode::from(2);
            }
        };
        scanned += 1;
        scan(file, &text, &mut violations);
    }

    if violations.is_empty() {
        println!("{name}: {scanned} files clean");
        ExitCode::SUCCESS
    } else {
        for v in &violations {
            eprintln!("{v}");
        }
        eprintln!(
            "{name}: {} violation(s) in non-test library code — {hint}",
            violations.len()
        );
        ExitCode::FAILURE
    }
}

/// Scans one file's text, pushing `path:line: …` strings for every
/// `.unwrap()` / `.expect(` / `panic!(` / bare `unreachable!()` outside
/// comments and test code. `unreachable!` *with* a message is the blessed
/// idiom for dead match arms, so only the message-less form is flagged;
/// `panic!` is flagged unconditionally — contract prechecks belong in an
/// `assert!`, which keeps the message and reads as a contract.
fn scan_panics(path: &Path, text: &str, violations: &mut Vec<String>) {
    for (idx, code) in library_code_lines(text) {
        for needle in [".unwrap()", ".expect(", "panic!(", "unreachable!()"] {
            if let Some(col) = code.find(needle) {
                violations.push(format!(
                    "{}:{}:{}: `{}`",
                    path.display(),
                    idx + 1,
                    col + 1,
                    needle
                ));
            }
        }
    }
}

/// Scans one file's text for the `unsafe` keyword outside comments and test
/// code. Word-boundary matching keeps `#![forbid(unsafe_code)]` (and
/// identifiers like `unsafe_net_reported`) out of scope: only a bare
/// `unsafe` token — a block or function qualifier — violates the gate.
fn scan_unsafe(path: &Path, text: &str, violations: &mut Vec<String>) {
    for (idx, code) in library_code_lines(text) {
        let mut from = 0;
        while let Some(pos) = code[from..].find("unsafe") {
            let col = from + pos;
            let before_ok = col == 0
                || !code[..col]
                    .chars()
                    .next_back()
                    .is_some_and(|c| c.is_alphanumeric() || c == '_');
            let after_ok = !code[col + "unsafe".len()..]
                .chars()
                .next()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
            if before_ok && after_ok {
                violations.push(format!(
                    "{}:{}:{}: `unsafe`",
                    path.display(),
                    idx + 1,
                    col + 1
                ));
            }
            from = col + "unsafe".len();
        }
    }
}

/// The non-test, comment-stripped lines of a source file, with their
/// 0-based indices — the shared input of every textual gate.
fn library_code_lines(text: &str) -> impl Iterator<Item = (usize, &str)> {
    let mut in_tests = false;
    text.lines().enumerate().filter_map(move |(idx, line)| {
        if line.trim_start().starts_with("#[cfg(test)]") {
            // Test modules are the last item of every file in this
            // codebase, so the rest of the file is out of scope.
            in_tests = true;
        }
        (!in_tests).then(|| (idx, strip_comments(line)))
    })
}

/// Removes `//` line comments (good enough for this codebase: no `//`
/// inside string literals on lines that also trip a gate needle).
fn strip_comments(line: &str) -> &str {
    match line.find("//") {
        Some(pos) => &line[..pos],
        None => line,
    }
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(_) => return,
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The workspace root: this binary lives in `<root>/xtask`, and CI runs it
/// via `cargo run -p xtask` from anywhere inside the workspace.
fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    match manifest.parent() {
        Some(parent) => parent.to_path_buf(),
        None => manifest,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_violations_outside_tests() {
        let text = "fn f() {\n    x.unwrap();\n}\n#[cfg(test)]\nmod tests {\n    fn g() { y.unwrap(); }\n}\n";
        let mut v = Vec::new();
        scan_panics(Path::new("demo.rs"), text, &mut v);
        assert_eq!(v.len(), 1);
        assert!(v[0].starts_with("demo.rs:2:"));
    }

    #[test]
    fn comments_are_ignored() {
        let text = "// x.unwrap() in a comment\nlet a = b; // trailing .expect( too\n// panic!(\"doc\") and unreachable!() in prose\n";
        let mut v = Vec::new();
        scan_panics(Path::new("demo.rs"), text, &mut v);
        assert!(v.is_empty());
    }

    #[test]
    fn bare_panics_and_anonymous_unreachable_are_flagged() {
        let text = "fn f() {\n    panic!(\"even with a message\");\n}\nfn g(x: u8) {\n    match x {\n        0 => {}\n        _ => unreachable!(),\n    }\n}\n";
        let mut v = Vec::new();
        scan_panics(Path::new("demo.rs"), text, &mut v);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v[0].starts_with("demo.rs:2:") && v[0].contains("panic!("));
        assert!(v[1].starts_with("demo.rs:7:") && v[1].contains("unreachable!()"));
    }

    #[test]
    fn unreachable_with_an_invariant_message_is_blessed() {
        let text = "fn f(x: u8) {\n    match x {\n        0 => {}\n        _ => unreachable!(\"x is prefiltered to zero\"),\n    }\n}\n";
        let mut v = Vec::new();
        scan_panics(Path::new("demo.rs"), text, &mut v);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn unsafe_blocks_are_flagged_but_the_attribute_is_not() {
        let text = "#![forbid(unsafe_code)]\nfn f() {\n    unsafe { go() }\n}\nunsafe fn g() {}\nfn unsafe_sounding_name() {}\n";
        let mut v = Vec::new();
        scan_unsafe(Path::new("demo.rs"), text, &mut v);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v[0].starts_with("demo.rs:3:"));
        assert!(v[1].starts_with("demo.rs:5:"));
    }

    #[test]
    fn unsafe_in_tests_and_comments_is_ignored() {
        let text =
            "// unsafe in a comment\n#[cfg(test)]\nmod tests {\n    fn f() { unsafe { } }\n}\n";
        let mut v = Vec::new();
        scan_unsafe(Path::new("demo.rs"), text, &mut v);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn gated_crates_are_clean() {
        // Both gates, self-applied: the same checks CI runs.
        let root = workspace_root();
        let mut files = Vec::new();
        for krate in GATED_CRATES {
            collect_rs_files(&root.join("crates").join(krate).join("src"), &mut files);
        }
        assert!(!files.is_empty(), "no files found — wrong root?");
        let mut violations = Vec::new();
        for file in &files {
            let text = std::fs::read_to_string(file).expect("readable source");
            scan_panics(file, &text, &mut violations);
            scan_unsafe(file, &text, &mut violations);
        }
        assert!(
            violations.is_empty(),
            "gate violations in library code:\n{}",
            violations.join("\n")
        );
    }
}
