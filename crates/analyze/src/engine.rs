//! Drives the pass: walks the workspace, lexes each file, runs the
//! token rules, builds the call graph, runs the semantic rules, and
//! resolves suppression markers — one pipeline, [`analyze_sources`],
//! that both the CLI and the self-tests drive.
//!
//! File classification happens here, from the path alone:
//!
//! * `crates/<name>/...` assigns the crate name the per-crate rule lists
//!   key on; anything outside `crates/` (root `src/`, `xtask`-style
//!   helpers) has no crate name and only the universal rules apply.
//! * a `tests/` or `benches/` path component marks the whole file as
//!   test code (integration tests and benches are compiled as their own
//!   crates, so there is no `#[cfg(test)]` wrapper to detect).
//! * within ordinary files, `#[test]` / `#[cfg(test)]` items are found
//!   by attribute scan + brace matching, and lines inside them are
//!   exempt from the test-scoped rules (L003, L004) and from the call
//!   graph (a panicking assertion in a unit test certifies nothing).
//! * `DESIGN.md` is carried as prose, not lexed: the L010 wire rule
//!   cross-checks its §11 tables against `protocol.rs`.
//!
//! Suppression runs *last*, over token and semantic findings together,
//! so the L006 stale-marker lifecycle covers L007–L010 markers too: an
//! `allow(L008, ...)` that no longer silences anything is rejected the
//! same way a stale `allow(L003)` always was.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::Path;

use crate::callgraph::{CallGraph, CrateInfo, GraphFile};
use crate::lexer::{self, Token};
use crate::manifest::{self, LineKind};
use crate::parser::{self, FnItem};
use crate::rules::{self, RuleId};
use crate::semantic::{self, ReachInfo, SemFile, WireInfo};
use crate::suppress::{self, Marker};
use crate::Diagnostic;

/// One input to [`analyze_sources`]: a workspace-relative path plus its
/// contents. Classification (crate, test-ness, manifest/design/Rust) is
/// derived from the path.
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// Full file contents.
    pub source: String,
}

/// Everything one analysis run produces.
pub struct Analysis {
    /// Findings that survived suppression, sorted by
    /// (path, line, col, rule).
    pub open: Vec<Diagnostic>,
    /// Findings silenced by a reasoned allow marker, same order.
    pub suppressed: Vec<Diagnostic>,
    /// The workspace call graph (nodes, edges, unresolved ledger).
    pub graph: CallGraph,
    /// Per-rule reachability stats (L007, L008, L009).
    pub reach: Vec<(RuleId, ReachInfo)>,
    /// Wire-exhaustiveness stats (L010).
    pub wire: WireInfo,
}

/// One lexed Rust file plus the classification the rules consume.
pub struct RustFile<'a> {
    /// Workspace-relative path with `/` separators.
    pub path: &'a str,
    /// `Some("hw")` for `crates/hw/...`; `None` outside `crates/`.
    pub crate_name: Option<&'a str>,
    /// True when every line counts as test code (`tests/`, `benches/`).
    pub all_test: bool,
    /// The token stream.
    pub tokens: Vec<Token>,
    /// Inclusive line ranges of `#[test]` / `#[cfg(test)]` items.
    test_spans: Vec<(u32, u32)>,
}

impl<'a> RustFile<'a> {
    /// Lexes `source` and computes test spans.
    pub fn new(
        path: &'a str,
        crate_name: Option<&'a str>,
        all_test: bool,
        source: &str,
    ) -> Self {
        let tokens = lexer::lex(source);
        let test_spans = test_spans(&tokens);
        Self {
            path,
            crate_name,
            all_test,
            tokens,
            test_spans,
        }
    }

    /// True when `line` falls inside test code.
    pub fn in_test_code(&self, line: u32) -> bool {
        self.all_test
            || self
                .test_spans
                .iter()
                .any(|&(lo, hi)| lo <= line && line <= hi)
    }

    /// The `#[test]` / `#[cfg(test)]` line spans.
    pub fn test_spans(&self) -> &[(u32, u32)] {
        &self.test_spans
    }
}

/// Scans the code tokens for test-marked items and returns their
/// inclusive line spans. An item is test-marked when any attribute in
/// its attribute run is `#[test]` (first ident `test`) or a `cfg` whose
/// argument mentions `test` without `not` (`#[cfg(test)]`,
/// `#[cfg(all(test, ...))]` — but not `#[cfg(not(test))]`).
fn test_spans(tokens: &[Token]) -> Vec<(u32, u32)> {
    let code: Vec<&Token> = tokens.iter().filter(|t| t.is_code()).collect();
    let mut spans = Vec::new();
    let mut i = 0;
    while i < code.len() {
        let starts_attr = code[i].is_punct('#')
            && code.get(i + 1).is_some_and(|t| t.is_punct('['));
        if !starts_attr {
            i += 1;
            continue;
        }
        let span_start = code[i].line;
        let mut is_test = false;
        let mut j = i;
        while j < code.len()
            && code[j].is_punct('#')
            && code.get(j + 1).is_some_and(|t| t.is_punct('['))
        {
            let (attr_is_test, after) = parse_attr(&code, j);
            is_test = is_test || attr_is_test;
            j = after;
        }
        if !is_test {
            i = j.max(i + 1);
            continue;
        }
        let (end_line, after_item) = item_extent(&code, j);
        spans.push((span_start, end_line));
        i = after_item.max(i + 1);
    }
    spans
}

/// Parses one `#[...]` attribute starting at `code[i]` (the `#`).
/// Returns (is_test, index one past the closing `]`).
fn parse_attr(code: &[&Token], i: usize) -> (bool, usize) {
    let mut idents: Vec<&str> = Vec::new();
    let mut depth = 0usize;
    let mut j = i + 1; // at `[`
    while j < code.len() {
        let t = code[j];
        if t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                j += 1;
                break;
            }
        } else if t.kind == lexer::TokenKind::Ident {
            idents.push(&t.text);
        }
        j += 1;
    }
    let is_test = match idents.first() {
        Some(&"test") => true,
        Some(&"cfg") => {
            idents.contains(&"test") && !idents.contains(&"not")
        }
        _ => false,
    };
    (is_test, j)
}

/// Finds the extent of the item following an attribute run: either a
/// brace-matched `{ ... }` body, or a `;` for braceless items
/// (`#[cfg(test)] mod tests;`). Returns (last line, index one past).
fn item_extent(code: &[&Token], from: usize) -> (u32, usize) {
    let mut j = from;
    while j < code.len() {
        let t = code[j];
        if t.is_punct(';') {
            return (t.line, j + 1);
        }
        if t.is_punct('{') {
            let mut depth = 0usize;
            while j < code.len() {
                if code[j].is_punct('{') {
                    depth += 1;
                } else if code[j].is_punct('}') {
                    depth -= 1;
                    if depth == 0 {
                        return (code[j].line, j + 1);
                    }
                }
                j += 1;
            }
            break;
        }
        j += 1;
    }
    let last = code.last().map_or(1, |t| t.end_line());
    (last, code.len())
}

/// Extracts suppression markers from a Rust token stream. A trailing
/// marker (code earlier on its own line) targets that line; a standalone
/// marker targets the line of the next code token — or of the next
/// marker, so an `allow(L006, ...)` can sit directly above the stale
/// marker it excuses. Plain explanatory comments in between are skipped.
fn collect_markers(tokens: &[Token]) -> Vec<Marker> {
    let is_marker: Vec<bool> = tokens
        .iter()
        .map(|t| {
            t.is_comment() && suppress::marker_from_comment(&t.text, t.line, t.col, 0).is_some()
        })
        .collect();
    let mut out = Vec::new();
    for (idx, t) in tokens.iter().enumerate() {
        if !is_marker[idx] {
            continue;
        }
        let trailing = tokens[..idx]
            .iter()
            .any(|p| p.is_code() && p.end_line() == t.line);
        let target = if trailing {
            t.line
        } else {
            tokens[idx + 1..]
                .iter()
                .zip(&is_marker[idx + 1..])
                .find(|(p, m)| p.is_code() || **m)
                .map_or(t.end_line() + 1, |(p, _)| p.line)
        };
        if let Some(m) = suppress::marker_from_comment(&t.text, t.line, t.col, target) {
            out.push(m);
        }
    }
    out
}

/// Lints one manifest: L001 over dependency entries, with `#` comment
/// markers resolved the same way as Rust ones. Returns
/// `(open, suppressed)`.
fn analyze_manifest(path: &str, source: &str) -> (Vec<Diagnostic>, Vec<Diagnostic>) {
    let scan = manifest::scan(source);
    let diags = rules::check_manifest(path, &scan);
    let mut markers = Vec::new();
    for (line, col, text, had_content) in &scan.comments {
        let stripped = text.trim_start_matches('#').trim();
        let target = if *had_content {
            *line
        } else {
            next_content_line(&scan.lines, *line)
        };
        if let Some(m) = suppress::marker_from_stripped(stripped, *line, *col, target) {
            markers.push(m);
        }
    }
    suppress::apply_with(path, diags, &markers, |_| None)
}

/// First Content line after `line`, or `line + 1` when none follows.
fn next_content_line(lines: &[LineKind], line: u32) -> u32 {
    lines
        .iter()
        .enumerate()
        .skip(line as usize)
        .find(|(_, k)| **k == LineKind::Content)
        .map_or(line + 1, |(i, _)| (i + 1) as u32)
}

/// Builds the crate-visibility metadata the call graph resolves
/// against, from the `crates/<dir>/Cargo.toml` sources: package-name
/// aliases (`ibp-ppm` lives in dir `compress`) and the reflexive
/// transitive closure of `[dependencies]`. Dev- and build-dependencies
/// are excluded on purpose — the graph only covers non-test code, where
/// they are not nameable. Crates whose manifest is absent from the
/// input (single-file fixtures) stay out of the map, which
/// [`CrateInfo::visible`] treats as see-everything.
fn crate_info(manifests: &[(&str, &str)]) -> CrateInfo {
    // (dir, package name, dep package names) per crate manifest.
    let mut raw: Vec<(String, String, Vec<String>)> = Vec::new();
    for (path, source) in manifests {
        let Some(dir) = path
            .strip_prefix("crates/")
            .and_then(|r| r.strip_suffix("/Cargo.toml"))
            .filter(|d| !d.contains('/'))
        else {
            continue; // root workspace manifest, or a nested fixture
        };
        let mut section = String::new();
        let mut package = dir.to_string();
        let mut dep_names = Vec::new();
        for line in source.lines() {
            let line = line.split('#').next().unwrap_or("").trim();
            if let Some(rest) = line.strip_prefix('[') {
                section = rest.trim_end_matches(']').trim().to_string();
            } else if section == "package" {
                if let Some(v) = line.strip_prefix("name").and_then(|r| {
                    r.trim_start().strip_prefix('=')
                }) {
                    package = v.trim().trim_matches('"').to_string();
                }
            } else if section == "dependencies" && !line.is_empty() {
                let end = line
                    .find(|c: char| c == '=' || c == '.' || c.is_whitespace())
                    .unwrap_or(line.len());
                dep_names.push(line[..end].to_string());
            }
        }
        raw.push((dir.to_string(), package, dep_names));
    }
    let mut info = CrateInfo::default();
    for (dir, package, _) in &raw {
        info.alias.insert(package.replace('-', "_"), dir.clone());
    }
    for (dir, _, dep_names) in &raw {
        let mut set: BTreeSet<String> = dep_names
            .iter()
            .filter_map(|d| info.alias.get(&d.replace('-', "_")).cloned())
            .collect();
        set.insert(dir.clone());
        info.deps.insert(dir.clone(), set);
    }
    // Transitive closure, to fixpoint (the workspace graph is tiny).
    let dirs: Vec<String> = info.deps.keys().cloned().collect();
    let mut changed = true;
    while changed {
        changed = false;
        for dir in &dirs {
            let cur = info.deps[dir].clone();
            let mut grown = cur.clone();
            for dep in &cur {
                if let Some(dd) = info.deps.get(dep) {
                    grown.extend(dd.iter().cloned());
                }
            }
            if grown.len() != cur.len() {
                info.deps.insert(dir.clone(), grown);
                changed = true;
            }
        }
    }
    info
}

/// Derives `Some("hw")` from `crates/hw/...`.
fn crate_of(path: &str) -> Option<&str> {
    path.strip_prefix("crates/").and_then(|r| r.split('/').next())
}

/// True for paths with a `tests/` or `benches/` component.
fn all_test_of(path: &str) -> bool {
    path.split('/').any(|part| part == "tests" || part == "benches")
}

/// THE analysis pipeline: token rules, parse, call graph, semantic
/// rules, then one suppression pass over everything. Classification is
/// derived from each file's path; pass `DESIGN.md` as a file to enable
/// the L010 cross-checks.
pub fn analyze_sources(inputs: &[SourceFile]) -> Analysis {
    // Phase 1: classify and lex.
    let mut manifest_results: Vec<(Vec<Diagnostic>, Vec<Diagnostic>)> = Vec::new();
    let mut manifest_sources: Vec<(&str, &str)> = Vec::new();
    let mut design: Option<(&str, &str)> = None;
    let mut rust: Vec<(&SourceFile, RustFile<'_>)> = Vec::new();
    for sf in inputs {
        if sf.path.ends_with("Cargo.toml") {
            manifest_results.push(analyze_manifest(&sf.path, &sf.source));
            manifest_sources.push((&sf.path, &sf.source));
        } else if sf.path == "DESIGN.md" || sf.path.ends_with("/DESIGN.md") {
            design = Some((&sf.path, &sf.source));
        } else {
            let file = RustFile::new(
                &sf.path,
                crate_of(&sf.path),
                all_test_of(&sf.path),
                &sf.source,
            );
            rust.push((sf, file));
        }
    }
    // Phase 2: token rules, parse, markers.
    let mut token_diags: Vec<Vec<Diagnostic>> = Vec::new();
    let mut markers: Vec<Vec<Marker>> = Vec::new();
    let parsed: Vec<parser::ParsedFile> =
        rust.iter().map(|(_, rf)| parser::parse(&rf.tokens)).collect();
    for (_, rf) in &rust {
        token_diags.push(rules::check_rust(rf));
        markers.push(collect_markers(&rf.tokens));
    }
    // Phase 3: call graph over non-test fns of crate sources.
    let nontest_fns: Vec<Vec<FnItem>> = rust
        .iter()
        .zip(&parsed)
        .map(|((_, rf), p)| {
            if rf.all_test || rf.crate_name.is_none() {
                Vec::new()
            } else {
                p.fns
                    .iter()
                    .filter(|f| !rf.in_test_code(f.decl_line))
                    .cloned()
                    .collect()
            }
        })
        .collect();
    let gfiles: Vec<GraphFile<'_>> = rust
        .iter()
        .zip(&nontest_fns)
        .filter_map(|((_, rf), fns)| {
            rf.crate_name.map(|krate| GraphFile {
                path: rf.path,
                crate_name: krate,
                tokens: &rf.tokens,
                fns,
            })
        })
        .collect();
    let graph = CallGraph::build_with(&gfiles, crate_info(&manifest_sources));
    // Phase 4: semantic rules.
    let semfiles: Vec<SemFile<'_>> = rust
        .iter()
        .zip(&parsed)
        .map(|((_, rf), p)| SemFile {
            path: rf.path,
            crate_name: rf.crate_name,
            all_test: rf.all_test,
            tokens: &rf.tokens,
            fns: &p.fns,
            test_spans: rf.test_spans(),
        })
        .collect();
    let sem = semantic::run(&semfiles, &graph, design);
    // Phase 5: suppression, per file, over token + semantic findings
    // together. Semantic findings may alternatively be silenced by a
    // marker on the enclosing fn's signature line.
    let mut sem_by_path: BTreeMap<String, Vec<(Diagnostic, Option<u32>)>> = BTreeMap::new();
    for f in sem.findings {
        sem_by_path
            .entry(f.diag.path.clone())
            .or_default()
            .push((f.diag, f.fn_line));
    }
    let mut open = Vec::new();
    let mut suppressed = Vec::new();
    for (o, s) in manifest_results {
        open.extend(o);
        suppressed.extend(s);
    }
    for (i, (_, rf)) in rust.iter().enumerate() {
        let mut diags = std::mem::take(&mut token_diags[i]);
        let mut alt_map: BTreeMap<(RuleId, u32), u32> = BTreeMap::new();
        if let Some(sems) = sem_by_path.remove(rf.path) {
            for (d, fn_line) in sems {
                if let Some(fl) = fn_line {
                    alt_map.insert((d.rule, d.line), fl);
                }
                diags.push(d);
            }
        }
        let (o, s) = suppress::apply_with(rf.path, diags, &markers[i], |d| {
            alt_map.get(&(d.rule, d.line)).copied()
        });
        open.extend(o);
        suppressed.extend(s);
    }
    // Findings on non-Rust paths (DESIGN.md cross-check misses) have no
    // marker channel: they stay open until the doc or the code moves.
    for (_, rest) in sem_by_path {
        open.extend(rest.into_iter().map(|(d, _)| d));
    }
    let key = |d: &Diagnostic| (d.path.clone(), d.line, d.col, d.rule);
    open.sort_by_key(key);
    suppressed.sort_by_key(key);
    Analysis {
        open,
        suppressed,
        graph,
        reach: sem.reach,
        wire: sem.wire,
    }
}

/// Lints one file and applies suppressions — the unit the token-rule
/// self-tests drive with inline sources. Semantic rules run too, but a
/// single file rarely contains a root. Returns open findings only.
pub fn analyze_file(
    rel_path: &str,
    source: &str,
    crate_name: Option<&str>,
    all_test: bool,
) -> Vec<Diagnostic> {
    // The pipeline classifies by path; the explicit arguments exist for
    // callers whose fixture paths already encode the same facts.
    debug_assert_eq!(crate_of(rel_path), crate_name);
    debug_assert_eq!(all_test_of(rel_path), all_test);
    analyze_sources(&[SourceFile {
        path: rel_path.to_string(),
        source: source.to_string(),
    }])
    .open
}

/// Analyzes every `.rs` and `Cargo.toml` under `root` (plus the root
/// `DESIGN.md`, for the L010 cross-checks), skipping `target/` and
/// dot-directories.
pub fn analyze_workspace(root: &Path) -> Result<Analysis, String> {
    let mut files = Vec::new();
    walk(root, Path::new(""), &mut files)?;
    if root.join("DESIGN.md").is_file() {
        files.push("DESIGN.md".to_string());
    }
    files.sort();
    let mut inputs = Vec::new();
    for rel in files {
        let source = fs::read_to_string(root.join(&rel))
            .map_err(|e| format!("reading {rel}: {e}"))?;
        inputs.push(SourceFile { path: rel, source });
    }
    Ok(analyze_sources(&inputs))
}

/// Recursive directory walk collecting workspace-relative paths.
fn walk(root: &Path, rel: &Path, files: &mut Vec<String>) -> Result<(), String> {
    let dir = root.join(rel);
    let entries = fs::read_dir(&dir).map_err(|e| format!("reading {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("walking {}: {e}", dir.display()))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let file_type = entry
            .file_type()
            .map_err(|e| format!("stat {}: {e}", entry.path().display()))?;
        let child = rel.join(name);
        if file_type.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            walk(root, &child, files)?;
        } else if name.ends_with(".rs") || name == "Cargo.toml" {
            let path = child
                .to_str()
                .map(|s| s.replace('\\', "/"))
                .ok_or_else(|| format!("non-UTF-8 path under {}", dir.display()))?;
            files.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::RuleId;

    #[test]
    fn cfg_test_module_lines_are_test_code() {
        let src = "fn a() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       fn b() {}\n\
                   }\n\
                   fn c() {}\n";
        let f = RustFile::new("crates/hw/src/x.rs", Some("hw"), false, src);
        assert!(!f.in_test_code(1));
        assert!(f.in_test_code(2));
        assert!(f.in_test_code(4));
        assert!(f.in_test_code(5));
        assert!(!f.in_test_code(6));
    }

    #[test]
    fn test_attr_with_extra_attrs_spans_the_fn() {
        let src = "#[test]\n#[ignore]\nfn t() {\n    body();\n}\nfn after() {}\n";
        let f = RustFile::new("x.rs", None, false, src);
        assert!(f.in_test_code(1));
        assert!(f.in_test_code(4));
        assert!(!f.in_test_code(6));
    }

    #[test]
    fn cfg_not_test_is_not_test_code() {
        let src = "#[cfg(not(test))]\nfn t() {\n    body();\n}\n";
        let f = RustFile::new("x.rs", None, false, src);
        assert!(!f.in_test_code(3));
    }

    #[test]
    fn cfg_all_test_counts() {
        let src = "#[cfg(all(test, feature = \"x\"))]\nmod m {\n    fn b() {}\n}\n";
        let f = RustFile::new("x.rs", None, false, src);
        assert!(f.in_test_code(3));
    }

    #[test]
    fn braceless_cfg_test_item_ends_at_semicolon() {
        let src = "#[cfg(test)]\nmod tests;\nfn live() {}\n";
        let f = RustFile::new("x.rs", None, false, src);
        assert!(f.in_test_code(2));
        assert!(!f.in_test_code(3));
    }

    #[test]
    fn standalone_marker_targets_next_code_line() {
        let src = "use std::collections::HashMap;\n";
        let marked = format!(
            "// ibp-lint: allow(L003, \"demonstration\")\n{src}"
        );
        let open = analyze_file("crates/hw/src/x.rs", src, Some("hw"), false);
        assert_eq!(open.len(), 1);
        assert_eq!(open[0].rule, RuleId::Determinism);
        let closed = analyze_file("crates/hw/src/x.rs", &marked, Some("hw"), false);
        assert!(closed.is_empty(), "{closed:?}");
    }

    #[test]
    fn trailing_marker_targets_its_own_line() {
        let src = "use std::collections::HashMap; // ibp-lint: allow(L003, \"demo\")\n";
        let out = analyze_file("crates/hw/src/x.rs", src, Some("hw"), false);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn manifest_marker_silences_l001() {
        let src = "[dependencies]\n\
                   # ibp-lint: allow(L001, \"fixture for the self-test\")\n\
                   serde = \"1.0\"\n";
        let out = analyze_file("crates/x/Cargo.toml", src, Some("x"), false);
        assert!(out.is_empty(), "{out:?}");
        let bare = "[dependencies]\nserde = \"1.0\"\n";
        let open = analyze_file("crates/x/Cargo.toml", bare, Some("x"), false);
        assert_eq!(open.len(), 1);
        assert_eq!(open[0].rule, RuleId::Hermeticity);
    }

    #[test]
    fn tests_dir_files_are_all_test() {
        let src = "use std::collections::HashMap;\nfn helper() { x.unwrap(); }\n";
        let out = analyze_file("crates/hw/tests/int.rs", src, Some("hw"), true);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn crate_info_closure_and_alias() {
        let info = crate_info(&[
            (
                "crates/sim/Cargo.toml",
                "[package]\nname = \"ibp-sim\"\n[dependencies]\nibp-hw.workspace = true\n\
                 [dev-dependencies]\nibp-testkit.workspace = true\n",
            ),
            (
                "crates/hw/Cargo.toml",
                "[package]\nname = \"ibp-hw\"\n[dependencies]\nibp-ppm = { workspace = true }\n",
            ),
            (
                "crates/compress/Cargo.toml",
                "[package]\nname = \"ibp-ppm\"\n[dependencies]\n",
            ),
            ("Cargo.toml", "[workspace]\nmembers = [\"crates/*\"]\n"),
        ]);
        // Transitive: sim -> hw -> compress (through the ibp-ppm alias).
        let sim = &info.deps["sim"];
        assert!(sim.contains("sim") && sim.contains("hw") && sim.contains("compress"));
        // Dev-dependencies are not visibility edges.
        assert!(!sim.contains("testkit"));
        // hw does not see sim (no back edge).
        assert!(!info.deps["hw"].contains("sim"));
        assert_eq!(info.alias.get("ibp_ppm"), Some(&"compress".to_string()));
    }

    #[test]
    fn visibility_blocks_invisible_inherent_methods() {
        // `sim` does not depend on `analyze`, so a `.key()` method call
        // in sim must not resolve to analyze's inherent `key`.
        let a = analyze_sources(&[
            SourceFile {
                path: "crates/sim/Cargo.toml".into(),
                source: "[package]\nname = \"ibp-sim\"\n[dependencies]\n".into(),
            },
            SourceFile {
                path: "crates/analyze/Cargo.toml".into(),
                source: "[package]\nname = \"ibp-analyze\"\n[dependencies]\n".into(),
            },
            SourceFile {
                path: "crates/sim/src/lib.rs".into(),
                source: "pub fn simulate_stream(n: &Node) { n.key(); }\npub struct Node;\n"
                    .into(),
            },
            SourceFile {
                path: "crates/analyze/src/lib.rs".into(),
                source: "pub struct FnNode;\nimpl FnNode {\n    pub fn key(&self) -> usize {\n        [1][2]\n    }\n}\n"
                    .into(),
            },
        ]);
        // The indexing panic in analyze::FnNode::key is NOT reachable
        // from sim's root, so no L007 finding is attributed to it.
        assert!(
            !a.open.iter().any(|d| d.rule == RuleId::PanicFreedom),
            "{:?}",
            a.open
        );
    }

    #[test]
    fn semantic_finding_suppressed_on_fn_line_covers_whole_body() {
        let src = "\
            // ibp-lint: allow(L007, \"indices masked by table size\")\n\
            pub fn simulate_stream(t: &[u8], i: usize, j: usize) -> u8 {\n\
                t[i] + t[j]\n\
            }\n";
        let a = analyze_sources(&[SourceFile {
            path: "crates/sim/src/runner.rs".into(),
            source: src.into(),
        }]);
        assert!(a.open.is_empty(), "{:?}", a.open);
        assert_eq!(
            a.suppressed
                .iter()
                .filter(|d| d.rule == RuleId::PanicFreedom)
                .count(),
            2
        );
    }

    #[test]
    fn stale_semantic_marker_is_l006() {
        let src = "\
            // ibp-lint: allow(L008, \"nothing allocates here\")\n\
            pub fn simulate_stream() {}\n";
        let a = analyze_sources(&[SourceFile {
            path: "crates/sim/src/runner.rs".into(),
            source: src.into(),
        }]);
        assert_eq!(a.open.len(), 1, "{:?}", a.open);
        assert_eq!(a.open[0].rule, RuleId::StaleSuppression);
    }
}
