//! The rule set: what each invariant is, and how it is detected.
//!
//! | Rule | Guards | Detection surface |
//! |------|--------|-------------------|
//! | L001 | hermetic offline build | `Cargo.toml` dependency entries |
//! | L002 | audited `unsafe` | `unsafe` tokens vs `SAFETY:` comments |
//! | L003 | bit-identical sweeps | banned idents in deterministic crates |
//! | L004 | panic-free hot paths | `.unwrap()`/`.expect()`/`panic!` |
//! | L005 | pool-owned threads | `thread::spawn` & friends outside exec |
//! | L006 | suppression hygiene | markers that silence nothing |
//!
//! Scope decisions: L002 and L005 apply to every crate and to test code
//! (an unsound test is still unsound; a stray thread still races the
//! pool); L003 and L004 apply to non-test code of their crate lists —
//! L004 additionally to the [`PANIC_FREE_MODULES`] file list, for
//! hot-path modules living inside crates that are otherwise allowed to
//! panic — because tests legitimately use `HashMap` as a reference
//! oracle and `unwrap` as an assertion.

use crate::engine::RustFile;
use crate::lexer::{Token, TokenKind};
use crate::manifest::ManifestScan;
use crate::Diagnostic;

/// Stable identifiers for the ten enforced invariants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// L001 — every dependency entry is in-tree.
    Hermeticity,
    /// L002 — every `unsafe` is preceded by a `SAFETY:` comment.
    SafetyComment,
    /// L003 — no randomized-iteration or wall-clock types in
    /// deterministic crates.
    Determinism,
    /// L004 — no panicking calls in hot-path crates.
    NoPanic,
    /// L005 — thread primitives only inside `crates/exec`.
    ThreadDiscipline,
    /// L006 — suppression markers must be live, well-formed and reasoned.
    StaleSuppression,
    /// L007 — no panic source reachable from the hot entry points
    /// (call-graph certification, not token matching).
    PanicFreedom,
    /// L008 — no allocation reachable from the steady-state per-event
    /// path.
    AllocFreedom,
    /// L009 — no blocking call reachable from the reactor shard loops.
    NonBlocking,
    /// L010 — every wire opcode and error code has an encode site, a
    /// decode arm, a test reference, and a DESIGN.md §11 table row.
    WireExhaustive,
}

impl RuleId {
    /// All rules, in code order.
    pub const ALL: [RuleId; 10] = [
        RuleId::Hermeticity,
        RuleId::SafetyComment,
        RuleId::Determinism,
        RuleId::NoPanic,
        RuleId::ThreadDiscipline,
        RuleId::StaleSuppression,
        RuleId::PanicFreedom,
        RuleId::AllocFreedom,
        RuleId::NonBlocking,
        RuleId::WireExhaustive,
    ];

    /// The semantic (call-graph) rules: findings from these accept a
    /// suppression marker on the enclosing `fn` signature line as well
    /// as on the finding line, so one reasoned allow can certify a
    /// whole function's bounds argument.
    pub const SEMANTIC: [RuleId; 4] = [
        RuleId::PanicFreedom,
        RuleId::AllocFreedom,
        RuleId::NonBlocking,
        RuleId::WireExhaustive,
    ];

    /// The `L0xx` code used in diagnostics and `allow(...)` markers.
    pub fn code(self) -> &'static str {
        match self {
            RuleId::Hermeticity => "L001",
            RuleId::SafetyComment => "L002",
            RuleId::Determinism => "L003",
            RuleId::NoPanic => "L004",
            RuleId::ThreadDiscipline => "L005",
            RuleId::StaleSuppression => "L006",
            RuleId::PanicFreedom => "L007",
            RuleId::AllocFreedom => "L008",
            RuleId::NonBlocking => "L009",
            RuleId::WireExhaustive => "L010",
        }
    }

    /// Short kebab-case name for `--list-rules`.
    pub fn name(self) -> &'static str {
        match self {
            RuleId::Hermeticity => "hermeticity",
            RuleId::SafetyComment => "safety-comments",
            RuleId::Determinism => "determinism",
            RuleId::NoPanic => "no-panic",
            RuleId::ThreadDiscipline => "thread-discipline",
            RuleId::StaleSuppression => "stale-suppression",
            RuleId::PanicFreedom => "panic-freedom",
            RuleId::AllocFreedom => "alloc-freedom",
            RuleId::NonBlocking => "non-blocking",
            RuleId::WireExhaustive => "wire-exhaustiveness",
        }
    }

    /// One-line summary for `--list-rules`.
    pub fn summary(self) -> &'static str {
        match self {
            RuleId::Hermeticity => {
                "every Cargo.toml dependency entry must be `workspace = true` or `path = ...` \
                 (the build stays offline-capable)"
            }
            RuleId::SafetyComment => {
                "every `unsafe` block or fn must be preceded by a `// SAFETY:` comment \
                 within the 3 lines above"
            }
            RuleId::Determinism => {
                "no HashMap/HashSet/Instant/SystemTime in non-test code of deterministic \
                 crates (core, hw, metrics, predictors, serve, sim, compress, trace, isa)"
            }
            RuleId::NoPanic => {
                "no .unwrap()/.expect()/panic! in non-test code of hot-path crates \
                 (core, hw, metrics, predictors, serve)"
            }
            RuleId::ThreadDiscipline => {
                "thread::spawn/scope/Builder and available_parallelism only inside \
                 crates/exec; all parallelism goes through the ibp-exec pool"
            }
            RuleId::StaleSuppression => {
                "an `ibp-lint: allow(...)` marker that silences nothing, names an unknown \
                 rule, or lacks a reason is itself an error"
            }
            RuleId::PanicFreedom => {
                "no unwrap/expect/panic-macro/indexing/non-constant division in any \
                 function reachable (via the workspace call graph) from simulate_stream*, \
                 SessionStepper stepping, or the reactor shard loop"
            }
            RuleId::AllocFreedom => {
                "no Vec/map growth, Box/Arc::new, format!/vec! or collect in any function \
                 reachable from the steady-state per-event path (simulate_stream* and \
                 SessionStepper::step_counted/step_verbose)"
            }
            RuleId::NonBlocking => {
                "no thread::sleep, lock acquisition, join/recv/park/wait or blocking I/O \
                 call in any function reachable from the reactor shard loop"
            }
            RuleId::WireExhaustive => {
                "every frame_type opcode and ErrorCode in crates/serve/src/protocol.rs has \
                 an encode site, a decode arm, a test reference, and a DESIGN.md §11 entry"
            }
        }
    }

    /// Parses `L001`..`L010` (case-insensitive).
    pub fn parse(text: &str) -> Option<RuleId> {
        let text = text.trim();
        RuleId::ALL
            .into_iter()
            .find(|r| r.code().eq_ignore_ascii_case(text))
    }
}

/// Crates whose outputs are pinned bit-exact: Figure 6/7 grids, golden
/// JSON reports, suite fingerprints. `bench` and `testkit` are exempt by
/// design (timing is their job; the test harness is not simulated state),
/// and `exec` owns the deterministic-by-construction map itself.
pub const DETERMINISTIC_CRATES: &[&str] = &[
    "compress",
    "core",
    "hw",
    "isa",
    "metrics",
    "predictors",
    "serve",
    "sim",
    "trace",
];

/// Crates on the per-event simulation path — or, for `serve`, facing
/// untrusted network bytes — where a panic aborts a whole sweep mid-grid
/// (or kills a live session on hostile input).
pub const PANIC_FREE_CRATES: &[&str] = &["core", "hw", "metrics", "predictors", "serve"];

/// Individual hot-path modules held to the L004 bar although their crate
/// as a whole is allowed to panic. `crates/sim` hosts both report/CLI
/// plumbing (where `expect` on I/O is fine) and the phase-sampling
/// estimator, whose window loop runs per event inside every sampled
/// sweep — a panic there aborts a whole bench mid-grid, exactly what
/// L004 exists to prevent. Matched by path suffix.
pub const PANIC_FREE_MODULES: &[&str] = &["crates/sim/src/simpoint.rs"];

/// The only crate allowed to touch thread primitives.
pub const THREAD_CRATE: &str = "exec";

/// How many lines above an `unsafe` token a `SAFETY:` comment may sit.
const SAFETY_WINDOW: u32 = 3;

fn diag(file: &RustFile, t: &Token, rule: RuleId, message: String) -> Diagnostic {
    Diagnostic {
        path: file.path.to_string(),
        line: t.line,
        col: t.col,
        rule,
        message,
    }
}

/// Runs L002–L005 over one lexed Rust file.
pub fn check_rust(file: &RustFile) -> Vec<Diagnostic> {
    let code: Vec<&Token> = file.tokens.iter().filter(|t| t.is_code()).collect();
    let comments: Vec<&Token> = file.tokens.iter().filter(|t| t.is_comment()).collect();
    let deterministic = file
        .crate_name
        .is_some_and(|c| DETERMINISTIC_CRATES.contains(&c));
    let panic_free = file
        .crate_name
        .is_some_and(|c| PANIC_FREE_CRATES.contains(&c))
        || PANIC_FREE_MODULES.iter().any(|m| file.path.ends_with(m));
    let thread_exempt = file.crate_name == Some(THREAD_CRATE);
    let mut out = Vec::new();

    for (i, t) in code.iter().enumerate() {
        if t.kind != TokenKind::Ident {
            continue;
        }
        let prev = i.checked_sub(1).map(|j| code[j]);
        let prev2 = i.checked_sub(2).map(|j| code[j]);
        let prev3 = i.checked_sub(3).map(|j| code[j]);
        let next = code.get(i + 1).copied();
        match t.text.as_str() {
            // L002 — audited unsafe.
            "unsafe" => {
                let documented = comments.iter().any(|c| {
                    c.text.contains("SAFETY:")
                        && c.end_line() <= t.line
                        && c.end_line() + SAFETY_WINDOW >= t.line
                });
                if !documented {
                    out.push(diag(
                        file,
                        t,
                        RuleId::SafetyComment,
                        format!(
                            "`unsafe` without a `// SAFETY:` comment within the {SAFETY_WINDOW} \
                             lines above"
                        ),
                    ));
                }
            }
            // L003 — determinism.
            "HashMap" | "HashSet" if deterministic && !file.in_test_code(t.line) => {
                out.push(diag(
                    file,
                    t,
                    RuleId::Determinism,
                    format!(
                        "`{}` iterates in a randomized (SipHash) order; use `ibp_exec::FastMap` \
                         or a sorted structure in deterministic crates",
                        t.text
                    ),
                ));
            }
            "Instant" | "SystemTime" if deterministic && !file.in_test_code(t.line) => {
                out.push(diag(
                    file,
                    t,
                    RuleId::Determinism,
                    format!(
                        "`{}` reads the wall clock; deterministic crates must not observe time \
                         (keep timing in crates/bench)",
                        t.text
                    ),
                ));
            }
            // L004 — no panics on the hot path.
            "unwrap" | "expect" if panic_free && !file.in_test_code(t.line) => {
                let is_method_call = prev.is_some_and(|p| p.is_punct('.'))
                    && next.is_some_and(|n| n.is_punct('('));
                if is_method_call {
                    out.push(diag(
                        file,
                        t,
                        RuleId::NoPanic,
                        format!(
                            "`.{}()` can panic on the simulation hot path; bubble an \
                             Option/Result or use a checked alternative",
                            t.text
                        ),
                    ));
                }
            }
            "panic"
                if panic_free
                    && !file.in_test_code(t.line)
                    && next.is_some_and(|n| n.is_punct('!')) =>
            {
                out.push(diag(
                    file,
                    t,
                    RuleId::NoPanic,
                    "`panic!` in a hot-path crate; return an error or make the invariant \
                     a constructor precondition"
                        .to_string(),
                ));
            }
            // L005 — thread discipline.
            "spawn" | "scope" | "Builder" if !thread_exempt => {
                let after_thread_path = prev.is_some_and(|p| p.is_punct(':'))
                    && prev2.is_some_and(|p| p.is_punct(':'))
                    && prev3.is_some_and(|p| p.is_ident("thread"));
                if after_thread_path {
                    out.push(diag(
                        file,
                        t,
                        RuleId::ThreadDiscipline,
                        format!(
                            "`thread::{}` outside crates/exec; all parallelism must go through \
                             the ibp-exec work-stealing pool",
                            t.text
                        ),
                    ));
                }
            }
            "available_parallelism" if !thread_exempt => {
                out.push(diag(
                    file,
                    t,
                    RuleId::ThreadDiscipline,
                    "`available_parallelism` outside crates/exec; size work from \
                     `ibp_exec::thread_count` instead"
                        .to_string(),
                ));
            }
            _ => {}
        }
    }
    out
}

/// Runs L001 over one scanned manifest.
pub fn check_manifest(path: &str, scan: &ManifestScan) -> Vec<Diagnostic> {
    scan.entries
        .iter()
        .filter(|e| !e.hermetic)
        .map(|e| Diagnostic {
            path: path.to_string(),
            line: e.line,
            col: e.col,
            rule: RuleId::Hermeticity,
            message: format!(
                "non-path dependency in [{}]: `{}` — the workspace must stay hermetic; \
                 use `workspace = true` or `path = ...`",
                e.section, e.text
            ),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_codes_round_trip() {
        for r in RuleId::ALL {
            assert_eq!(RuleId::parse(r.code()), Some(r));
            assert_eq!(RuleId::parse(&r.code().to_lowercase()), Some(r));
        }
        assert_eq!(RuleId::parse("L000"), None);
        assert_eq!(RuleId::parse("nope"), None);
    }

    #[test]
    fn crate_lists_are_sorted_and_disjoint_from_exemptions() {
        let mut sorted = DETERMINISTIC_CRATES.to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, DETERMINISTIC_CRATES);
        assert!(!DETERMINISTIC_CRATES.contains(&"bench"));
        assert!(!DETERMINISTIC_CRATES.contains(&"testkit"));
        assert!(!DETERMINISTIC_CRATES.contains(&THREAD_CRATE));
        for c in PANIC_FREE_CRATES {
            assert!(DETERMINISTIC_CRATES.contains(c));
        }
        for m in PANIC_FREE_MODULES {
            let krate = m
                .strip_prefix("crates/")
                .and_then(|r| r.split('/').next())
                .unwrap_or("");
            assert!(
                !PANIC_FREE_CRATES.contains(&krate),
                "{m}: crate already panic-free; module entry is redundant"
            );
            assert!(
                DETERMINISTIC_CRATES.contains(&krate),
                "{m}: hot-path modules should live in deterministic crates"
            );
        }
    }
}
