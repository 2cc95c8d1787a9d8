//! Rule self-tests: every rule (L001–L006) must fire on a violating
//! fixture and fall silent when the fixture carries a well-formed
//! `ibp-lint: allow(...)` marker — plus a golden test pinning the
//! `file:line:col [RULE-ID] message` diagnostic format byte-for-byte.
//!
//! Fixtures are inline strings, deliberately: string literals are
//! invisible to the lexer, so linting THIS file (as the verify stage
//! does every run) cannot trip over its own test data.

use ibp_analyze::{analyze_file, RuleId};

/// Lints a fixture as if it lived at `crates/<krate>/src/fixture.rs`.
fn lint(krate: &str, source: &str) -> Vec<ibp_analyze::Diagnostic> {
    let path = format!("crates/{krate}/src/fixture.rs");
    analyze_file(&path, source, Some(krate), false)
}

/// Asserts `source` yields exactly one diagnostic for `rule`, and that
/// prefixing the violating line with the given allow marker silences it
/// completely (no diagnostic, no stale-marker report).
fn fires_and_is_suppressible(krate: &str, source: &str, rule: RuleId) {
    let open = lint(krate, source);
    assert_eq!(
        open.len(),
        1,
        "{} fixture should yield exactly one diagnostic, got {open:#?}",
        rule.code()
    );
    assert_eq!(open[0].rule, rule, "wrong rule fired: {open:#?}");

    let violating_line = open[0].line as usize;
    let mut lines: Vec<&str> = source.lines().collect();
    let marker = format!(
        "// ibp-lint: allow({}, \"self-test fixture\")",
        rule.code()
    );
    lines.insert(violating_line - 1, &marker);
    let suppressed = lines.join("\n");
    let closed = lint(krate, &suppressed);
    assert!(
        closed.is_empty(),
        "{} marker should fully silence the fixture, got {closed:#?}",
        rule.code()
    );
}

#[test]
fn l001_fires_on_registry_dep_and_is_suppressible() {
    let open = analyze_file(
        "crates/x/Cargo.toml",
        "[dependencies]\nserde = \"1.0\"\n",
        Some("x"),
        false,
    );
    assert_eq!(open.len(), 1, "{open:#?}");
    assert_eq!(open[0].rule, RuleId::Hermeticity);
    assert_eq!((open[0].line, open[0].col), (2, 1));

    let closed = analyze_file(
        "crates/x/Cargo.toml",
        "[dependencies]\n# ibp-lint: allow(L001, \"self-test fixture\")\nserde = \"1.0\"\n",
        Some("x"),
        false,
    );
    assert!(closed.is_empty(), "{closed:#?}");
}

#[test]
fn l001_accepts_hermetic_forms() {
    let src = "[dependencies]\n\
               ibp-exec.workspace = true\n\
               ibp-hw = { workspace = true }\n\
               local = { path = \"../local\" }\n";
    let out = analyze_file("crates/x/Cargo.toml", src, Some("x"), false);
    assert!(out.is_empty(), "{out:#?}");
}

#[test]
fn l002_fires_on_undocumented_unsafe_and_is_suppressible() {
    let src = "fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n";
    fires_and_is_suppressible("sim", src, RuleId::SafetyComment);
}

#[test]
fn l002_is_satisfied_by_a_safety_comment() {
    let src = "fn f(p: *const u8) -> u8 {\n\
               \x20   // SAFETY: caller guarantees p is valid for reads.\n\
               \x20   unsafe { *p }\n\
               }\n";
    assert!(lint("sim", src).is_empty());
    // ...but only within the 3-line window.
    let far = "fn f(p: *const u8) -> u8 {\n\
               \x20   // SAFETY: too far away.\n\n\n\n\
               \x20   unsafe { *p }\n\
               }\n";
    let out = lint("sim", far);
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].rule, RuleId::SafetyComment);
}

#[test]
fn l002_applies_in_every_crate_even_tests() {
    let src = "fn f(p: *const u8) -> u8 { unsafe { *p } }\n";
    // Non-deterministic, non-hot-path crate: still checked.
    assert_eq!(lint("bench", src).len(), 1);
    // Whole-file test code: still checked.
    let out = analyze_file("crates/hw/tests/t.rs", src, Some("hw"), true);
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].rule, RuleId::SafetyComment);
}

#[test]
fn l003_fires_on_hashmap_in_deterministic_crate_and_is_suppressible() {
    let src = "use std::collections::HashMap;\n";
    fires_and_is_suppressible("trace", src, RuleId::Determinism);
}

#[test]
fn l003_fires_on_wall_clock_types() {
    let src = "fn now() -> std::time::Instant {\n    todo()\n}\n";
    let out = lint("sim", src);
    assert_eq!(out.len(), 1, "{out:#?}");
    assert_eq!(out[0].rule, RuleId::Determinism);
    assert!(out[0].message.contains("wall clock"), "{}", out[0].message);
}

#[test]
fn l003_exempts_test_code_and_exempt_crates() {
    let in_tests = "#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n}\n";
    assert!(lint("trace", in_tests).is_empty());
    let in_bench = "use std::collections::HashMap;\n";
    assert!(lint("bench", in_bench).is_empty());
    assert!(lint("testkit", in_bench).is_empty());
}

#[test]
fn l003_and_l004_cover_the_metrics_crate() {
    // The observability layer feeds pinned artifacts (metrics_fig6.json)
    // and sits on the simulation hot path, so both disciplines apply to
    // its non-test code.
    let src = "use std::collections::HashMap;\n";
    fires_and_is_suppressible("metrics", src, RuleId::Determinism);
    let src = "fn f(x: Option<u8>) -> u8 {\n    x.unwrap()\n}\n";
    fires_and_is_suppressible("metrics", src, RuleId::NoPanic);
}

#[test]
fn l003_and_l004_cover_the_serve_crate() {
    // The prediction service must replay deterministically (loopback
    // results are diffed against offline simulation bit-for-bit) and
    // faces untrusted network bytes, so both disciplines apply — with
    // reasoned allows for genuine I/O-boundary wall-clock use, like the
    // drain deadline in `Server::shutdown`.
    let src = "use std::collections::HashMap;\n";
    fires_and_is_suppressible("serve", src, RuleId::Determinism);
    let src = "fn deadline() -> std::time::Instant {\n    todo()\n}\n";
    fires_and_is_suppressible("serve", src, RuleId::Determinism);
    let src = "fn f(x: Option<u8>) -> u8 {\n    x.unwrap()\n}\n";
    fires_and_is_suppressible("serve", src, RuleId::NoPanic);
    let src = "fn f(x: Option<u8>) -> u8 {\n    x.expect(\"frame\")\n}\n";
    fires_and_is_suppressible("serve", src, RuleId::NoPanic);
    // Test code in serve keeps its freedom (the differential suite
    // unwraps liberally).
    let in_tests = "#[cfg(test)]\nmod tests {\n    fn f(x: Option<u8>) -> u8 {\n        x.unwrap()\n    }\n}\n";
    assert!(lint("serve", in_tests).is_empty());
}

#[test]
fn l003_and_l004_cover_reactor_and_mux_idioms() {
    // The v3 serve plane added two modules full of tempting shortcuts;
    // these fixtures pin that the lint wall holds against each of them.
    //
    // Reactor idiom 1: clockless idle accounting must not regress to
    // wall-clock ticks. `Instant::now()` inside the shard loop is the
    // exact bug the nap-counter design exists to avoid.
    let src = "fn shard_loop_tick() {\n\
               \x20   let started = std::time::Instant::now();\n\
               \x20   drive(started);\n\
               }\n";
    fires_and_is_suppressible("serve", src, RuleId::Determinism);

    // Reactor idiom 2: the one sanctioned wall-clock use — the drain
    // deadline at the I/O boundary — stays legal via a reasoned allow,
    // exactly as written in `Server::shutdown`.
    let allowed = "fn drain_deadline() {\n\
                   \x20   // ibp-lint: allow(L003, \"drain deadline bounds waiting on remote peers\")\n\
                   \x20   let deadline = std::time::Instant::now();\n\
                   \x20   wait(deadline);\n\
                   }\n";
    assert!(lint("serve", allowed).is_empty());

    // Mux idiom 1: the stream registry must stay on the deterministic
    // map. A `HashMap<u64, usize>` stream index would make eviction
    // order (and thus MUX_CLOSED emission order) hash-seed dependent.
    let src = "struct Registry {\n\
               \x20   index: std::collections::HashMap<u64, usize>,\n\
               }\n";
    fires_and_is_suppressible("serve", src, RuleId::Determinism);

    // Mux idiom 2: frame routing handles untrusted stream ids; an
    // `unwrap()` on the registry lookup is a remote panic.
    let src = "fn route(index: &Map, stream: u64) -> usize {\n\
               \x20   *index.get(&stream).unwrap()\n\
               }\n";
    fires_and_is_suppressible("serve", src, RuleId::NoPanic);

    // Mux idiom 3: credit checks must degrade to typed errors, never
    // assert-style panics, even on impossible-looking arithmetic.
    let src = "fn credit(window: u64, count: u64) {\n\
               \x20   if count > window * 2 {\n\
               \x20       panic!(\"overflow\")\n\
               \x20   }\n\
               }\n";
    fires_and_is_suppressible("serve", src, RuleId::NoPanic);
}

#[test]
fn l003_and_l004_cover_the_memory_plane_idioms() {
    // The multi-tenant memory plane (tier cache, spill stores, LRU
    // budget enforcement) added more tempting shortcuts; these fixtures
    // pin the lint wall against each.
    //
    // Spill idiom 1: spill stores and the tier cache key sessions by
    // id/shape; a `HashMap` there would make eviction-victim selection
    // (and thus which session pays a restore) hash-seed dependent.
    let src = "struct Store {\n\
               \x20   blobs: std::collections::HashMap<u64, Vec<u8>>,\n\
               }\n";
    fires_and_is_suppressible("serve", src, RuleId::Determinism);

    // Spill idiom 2: LRU recency must stay on the reactor's iteration
    // clock. Stamping `last_touch` from the wall clock is the exact
    // regression the tick-counter design exists to avoid.
    let src = "fn touch(slot: &mut Slot) {\n\
               \x20   slot.last_touch = std::time::Instant::now();\n\
               }\n";
    fires_and_is_suppressible("serve", src, RuleId::Determinism);

    // Spill idiom 3: a restore failure (corrupt blob, vanished spill
    // file) must surface as a stream-scoped error, never a panic —
    // `unwrap()` on the store read kills a whole connection's shard.
    let src = "fn revive(store: &mut Store, key: u64) -> Vec<u8> {\n\
               \x20   store.take(key).unwrap()\n\
               }\n";
    fires_and_is_suppressible("serve", src, RuleId::NoPanic);

    // The snapshot codec lives in `sim`: deterministic (canonical blobs
    // are diffed byte-for-byte) but not on the panic-free list — the
    // offline harness may assert.
    let src = "use std::collections::HashMap;\n";
    fires_and_is_suppressible("sim", src, RuleId::Determinism);
    let src = "fn f(x: Option<u8>) -> u8 {\n    x.unwrap()\n}\n";
    assert!(lint("sim", src).is_empty());

    // The COW persist layer in `hw` is both: sparse-delta iteration
    // order is pinned and the table walk runs per event.
    let src = "fn delta() -> std::collections::HashMap<u64, u8> {\n    todo()\n}\n";
    fires_and_is_suppressible("hw", src, RuleId::Determinism);
    let src = "fn f(x: Option<u8>) -> u8 {\n    x.expect(\"slot\")\n}\n";
    fires_and_is_suppressible("hw", src, RuleId::NoPanic);
}

#[test]
fn l003_and_l004_cover_the_simpoint_module() {
    // The phase-sampling estimator (DESIGN.md §13) lives in `sim` — a
    // crate whose offline harness may assert — but the module itself is
    // on the per-event path of every sampled sweep and its output is
    // pinned (suite_pins, simpoint_validation.txt), so L004 holds it to the
    // hot-path bar via PANIC_FREE_MODULES. Module scope is matched by
    // path suffix, so these fixtures lint at the real module path
    // instead of the `lint()` helper's fixture.rs.
    let at = |path: &str, source: &str| analyze_file(path, source, Some("sim"), false);

    // Violating: unwrap in the module fires L004 ...
    let src = "fn f(x: Option<u8>) -> u8 {\n    x.unwrap()\n}\n";
    let open = at("crates/sim/src/simpoint.rs", src);
    assert_eq!(open.len(), 1, "{open:#?}");
    assert_eq!(open[0].rule, RuleId::NoPanic);

    // ... clean: the same fixture elsewhere in the crate stays silent
    // (sim as a whole is not panic-free) ...
    assert!(at("crates/sim/src/report.rs", src).is_empty());

    // ... suppressed: the marker lifecycle works at module scope too.
    let allowed = "fn f(x: Option<u8>) -> u8 {\n\
                   \x20   // ibp-lint: allow(L004, \"self-test fixture\")\n\
                   \x20   x.unwrap()\n\
                   }\n";
    assert!(at("crates/sim/src/simpoint.rs", allowed).is_empty());

    // Signature hashing and k-means must stay seed-stable: a HashMap of
    // window signatures would make cluster assignment (and thus which
    // windows get simulated) hash-seed dependent. L003 already covers
    // all of `sim`; pin that it holds at the module path as well.
    let src = "fn sigs() -> std::collections::HashMap<u64, f64> {\n    todo()\n}\n";
    let open = at("crates/sim/src/simpoint.rs", src);
    assert_eq!(open.len(), 1, "{open:#?}");
    assert_eq!(open[0].rule, RuleId::Determinism);

    // Test code inside the module keeps its freedom (the property suite
    // unwraps liberally).
    let in_tests = "#[cfg(test)]\nmod tests {\n    fn f(x: Option<u8>) -> u8 {\n        x.unwrap()\n    }\n}\n";
    assert!(at("crates/sim/src/simpoint.rs", in_tests).is_empty());
}

#[test]
fn l004_fires_on_unwrap_in_hot_path_crate_and_is_suppressible() {
    let src = "fn f(x: Option<u8>) -> u8 {\n    x.unwrap()\n}\n";
    fires_and_is_suppressible("hw", src, RuleId::NoPanic);
}

#[test]
fn l004_fires_on_expect_and_panic() {
    let src = "fn f(x: Option<u8>) -> u8 {\n    x.expect(\"msg\")\n}\n";
    let out = lint("core", src);
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].rule, RuleId::NoPanic);

    let src = "fn f() {\n    panic!(\"boom\")\n}\n";
    let out = lint("predictors", src);
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].rule, RuleId::NoPanic);
}

#[test]
fn l004_ignores_lookalikes_and_non_hot_crates() {
    // unwrap_or is not unwrap; a field named expect is not a call.
    let src = "fn f(x: Option<u8>) -> u8 {\n    x.unwrap_or(0)\n}\n";
    assert!(lint("hw", src).is_empty());
    let src = "fn f(s: S) -> u8 {\n    s.expect\n}\n";
    assert!(lint("hw", src).is_empty());
    // sim is deterministic but not panic-free.
    let src = "fn f(x: Option<u8>) -> u8 {\n    x.unwrap()\n}\n";
    assert!(lint("sim", src).is_empty());
}

#[test]
fn l005_fires_on_thread_spawn_and_is_suppressible() {
    let src = "fn f() {\n    std::thread::spawn(|| {});\n}\n";
    fires_and_is_suppressible("sim", src, RuleId::ThreadDiscipline);
}

#[test]
fn l005_exempts_the_exec_crate_only() {
    let src = "fn f() {\n    std::thread::spawn(|| {});\n}\n";
    assert!(lint("exec", src).is_empty());
    let src = "fn n() -> usize {\n    available_parallelism().map_or(1, |n| n.get())\n}\n";
    let out = lint("bench", src);
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].rule, RuleId::ThreadDiscipline);
    // Method calls named spawn (e.g. pool.spawn) are not thread::spawn.
    let src = "fn f(pool: &Pool) {\n    pool.spawn(|| {});\n}\n";
    assert!(lint("sim", src).is_empty());
}

#[test]
fn l006_fires_on_stale_marker_and_is_suppressible() {
    let stale = "// ibp-lint: allow(L004, \"nothing fires here\")\nfn f() {}\n";
    let out = lint("hw", stale);
    assert_eq!(out.len(), 1, "{out:#?}");
    assert_eq!(out[0].rule, RuleId::StaleSuppression);
    assert_eq!(out[0].line, 1);

    let excused = "// ibp-lint: allow(L006, \"self-test keeps a stale marker\")\n\
                   // ibp-lint: allow(L004, \"nothing fires here\")\n\
                   fn f() {}\n";
    assert!(lint("hw", excused).is_empty());
}

#[test]
fn l006_fires_on_malformed_markers() {
    for bad in [
        "// ibp-lint: allow(L004)\n",                  // no reason
        "// ibp-lint: allow(L999, \"x\")\n",           // unknown rule
        "// ibp-lint: deny(L004, \"x\")\n",            // wrong verb
        "// ibp-lint: allow(L004, \"unterminated)\n",  // bad quoting
    ] {
        let src = format!("{bad}fn f() {{}}\n");
        let out = lint("hw", &src);
        assert_eq!(out.len(), 1, "fixture {bad:?} -> {out:#?}");
        assert_eq!(out[0].rule, RuleId::StaleSuppression);
    }
}

#[test]
fn l006_unused_allow_l006_stays_reported() {
    let src = "// ibp-lint: allow(L006, \"silences nothing\")\nfn f() {}\n";
    let out = lint("hw", src);
    assert_eq!(out.len(), 1, "{out:#?}");
    assert_eq!(out[0].rule, RuleId::StaleSuppression);
}

#[test]
fn suppression_is_per_line_and_per_rule() {
    // A marker for line N must not leak to line N+1...
    let src = "// ibp-lint: allow(L004, \"only the first\")\n\
               fn f(x: Option<u8>, y: Option<u8>) -> u8 {\n\
               \x20   x.unwrap()\n\
               }\n";
    let shifted = "fn f(x: Option<u8>, y: Option<u8>) -> u8 {\n\
                   \x20   // ibp-lint: allow(L004, \"only the next line\")\n\
                   \x20   x.unwrap();\n\
                   \x20   y.unwrap()\n\
                   }\n";
    let out = lint("hw", src);
    assert_eq!(out.len(), 2, "marker targets fn line, not body: {out:#?}");
    assert!(out.iter().any(|d| d.rule == RuleId::NoPanic && d.line == 3));
    assert!(out.iter().any(|d| d.rule == RuleId::StaleSuppression && d.line == 1));
    let out = lint("hw", shifted);
    assert_eq!(out.len(), 1, "{out:#?}");
    assert_eq!(out[0].line, 4);
    // ...and a marker for the wrong rule silences nothing (and goes stale).
    let wrong = "fn f(x: Option<u8>) -> u8 {\n\
                 \x20   // ibp-lint: allow(L003, \"wrong rule\")\n\
                 \x20   x.unwrap()\n\
                 }\n";
    let out = lint("hw", wrong);
    assert_eq!(out.len(), 2, "{out:#?}");
    assert!(out.iter().any(|d| d.rule == RuleId::NoPanic));
    assert!(out.iter().any(|d| d.rule == RuleId::StaleSuppression));
}

#[test]
fn golden_diagnostic_format() {
    let src = "fn f(x: Option<u8>) -> u8 {\n    x.unwrap()\n}\n";
    let out = lint("hw", src);
    assert_eq!(out.len(), 1);
    assert_eq!(
        out[0].to_string(),
        "crates/hw/src/fixture.rs:2:7 [L004] `.unwrap()` can panic on the simulation \
         hot path; bubble an Option/Result or use a checked alternative"
    );

    let manifest = analyze_file(
        "crates/x/Cargo.toml",
        "[dev-dependencies]\nrand = \"0.8\"\n",
        Some("x"),
        false,
    );
    assert_eq!(manifest.len(), 1);
    assert_eq!(
        manifest[0].to_string(),
        "crates/x/Cargo.toml:2:1 [L001] non-path dependency in [dev-dependencies]: \
         `rand = \"0.8\"` — the workspace must stay hermetic; use `workspace = true` \
         or `path = ...`"
    );
}

#[test]
fn every_rule_has_a_code_name_and_summary() {
    for (i, rule) in RuleId::ALL.into_iter().enumerate() {
        assert_eq!(rule.code(), format!("L{:03}", i + 1));
        assert!(!rule.name().is_empty());
        assert!(!rule.summary().is_empty());
    }
}
