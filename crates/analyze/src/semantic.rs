//! The semantic certification rules: reachability proofs over the call
//! graph (L007–L009) and wire-table exhaustiveness (L010).
//!
//! Token lints ask "does this line look wrong"; these rules ask "can the
//! hot path *reach* something wrong". Each rule fixes a root set — the
//! entry points whose steady-state cost the paper's claims depend on —
//! runs BFS over [`crate::callgraph::CallGraph`], and scans every
//! reachable function body for rule-specific *sources*:
//!
//! * **L007 panic-freedom** — `unwrap`/`expect`, `panic!`-family macros,
//!   unchecked indexing, and non-literal division reachable from
//!   `simulate*`, `SessionStepper::step_*`, or the reactor `shard_loop`.
//! * **L008 allocation-freedom** — growth methods (`push`, `insert`,
//!   `extend`, `collect`, ...), allocating constructors (`Box::new`,
//!   `with_capacity`), and `format!`/`vec!` reachable from the
//!   per-event path (`simulate_stream*`, stepping).
//! * **L009 non-blocking discipline** — `sleep`, lock acquisition,
//!   blocking channel/IO calls reachable from `shard_loop`.
//! * **L010 wire exhaustiveness** — every `frame_type` opcode and
//!   `ErrorCode` variant in `protocol.rs` must have an encode site, a
//!   decode arm, a test reference, and a row/name in the DESIGN.md §11
//!   tables (checked in both directions).
//!
//! Findings are *certification obligations*, not verdicts: a masked
//! index or a bounded ring push is fine — but someone has to say so, in
//! a reasoned `ibp-lint: allow(...)` either on the source line or on the
//! enclosing `fn` signature line ([`Finding::fn_line`]). The messages
//! name the root each site is reachable from, so the reviewer knows
//! which paper claim the obligation backs.

use std::collections::{BTreeMap, BTreeSet};

use crate::callgraph::{CallGraph, FnNode};
use crate::lexer::{Token, TokenKind};
use crate::parser::FnItem;
use crate::rules::RuleId;
use crate::Diagnostic;

/// One file's contribution to the semantic pass.
pub struct SemFile<'a> {
    /// Workspace-relative path.
    pub path: &'a str,
    /// Crate short name, when under `crates/`.
    pub crate_name: Option<&'a str>,
    /// Whole file is test code (`tests/`, `benches/`).
    pub all_test: bool,
    /// The full token stream (comments included; body ranges index it).
    pub tokens: &'a [Token],
    /// Every parsed fn, *including* test fns (the graph excludes them,
    /// but L010 needs test bodies for reference checks).
    pub fns: &'a [FnItem],
    /// Inclusive line spans of `#[test]` / `#[cfg(test)]` items.
    pub test_spans: &'a [(u32, u32)],
}

impl SemFile<'_> {
    fn in_test(&self, line: u32) -> bool {
        self.all_test || self.test_spans.iter().any(|&(lo, hi)| lo <= line && line <= hi)
    }

    /// The fn whose span contains `line` (fns don't nest — the parser
    /// keeps nested fns opaque inside their parent's body).
    fn enclosing_fn(&self, line: u32) -> Option<&FnItem> {
        self.fns
            .iter()
            .rev()
            .find(|f| f.decl_line <= line && line <= f.end_line)
    }
}

/// One semantic diagnostic plus its fn-level suppression target.
pub struct Finding {
    /// The diagnostic itself, positioned at the source token.
    pub diag: Diagnostic,
    /// Enclosing fn signature line: a marker there silences every
    /// finding of the same rule in the body (L007–L009 only).
    pub fn_line: Option<u32>,
}

/// Reachability stats for one rule, feeding the `--json` report.
#[derive(Debug, Default, Clone)]
pub struct ReachInfo {
    /// Root fn keys actually present in the graph, sorted.
    pub roots: Vec<String>,
    /// Reachable (certified) fn count, roots included.
    pub reachable_fns: u64,
    /// Reachable fn count per crate.
    pub per_crate: BTreeMap<String, u64>,
}

/// Wire-exhaustiveness stats for the `--json` report.
#[derive(Debug, Default, Clone)]
pub struct WireInfo {
    /// `frame_type` consts found in protocol.rs.
    pub opcodes_total: u64,
    /// Consts passing every applicable check.
    pub opcodes_certified: u64,
    /// `ErrorCode` variants found.
    pub error_codes_total: u64,
    /// Variants passing every applicable check.
    pub error_codes_certified: u64,
}

/// Everything the semantic pass produces in one run.
pub struct SemanticReport {
    /// All L007–L010 findings, before suppression.
    pub findings: Vec<Finding>,
    /// Per-rule reachability stats (L007, L008, L009 in order).
    pub reach: Vec<(RuleId, ReachInfo)>,
    /// L010 stats.
    pub wire: WireInfo,
}

/// Root sets: `(crate restriction, fn name)`. A root only binds to a
/// free fn or method with that exact name (any impl), in that crate.
const L007_ROOTS: &[(Option<&str>, &str)] = &[
    (Some("sim"), "simulate"),
    (Some("sim"), "simulate_stream"),
    (Some("sim"), "simulate_stream_probed"),
    (Some("sim"), "simulate_window"),
    (None, "step_counted"),
    (None, "step_verbose"),
    (Some("serve"), "shard_loop"),
    (Some("predictors"), "ittage64_predict"),
    (Some("predictors"), "ittage64_update"),
];
const L008_ROOTS: &[(Option<&str>, &str)] = &[
    (Some("sim"), "simulate_stream"),
    (Some("sim"), "simulate_stream_probed"),
    (Some("sim"), "simulate_window"),
    (None, "step_counted"),
    (None, "step_verbose"),
    (Some("predictors"), "ittage64_predict"),
    (Some("predictors"), "ittage64_update"),
];
const L009_ROOTS: &[(Option<&str>, &str)] = &[(Some("serve"), "shard_loop")];

/// Runs all four semantic rules. `design` is the `(path, text)` of
/// DESIGN.md when present; without it the §11 cross-checks and the
/// unbound-root check are skipped (fixture workspaces).
pub fn run(
    files: &[SemFile<'_>],
    graph: &CallGraph,
    design: Option<(&str, &str)>,
) -> SemanticReport {
    let by_path: BTreeMap<&str, &SemFile<'_>> =
        files.iter().map(|f| (f.path, f)).collect();
    let mut findings = Vec::new();
    let mut reach_infos = Vec::new();
    for (rule, roots) in [
        (RuleId::PanicFreedom, L007_ROOTS),
        (RuleId::AllocFreedom, L008_ROOTS),
        (RuleId::NonBlocking, L009_ROOTS),
    ] {
        let info = run_reach_rule(rule, roots, graph, &by_path, &mut findings);
        if let Some(design) = design {
            unbound_roots(rule, roots, graph, design, &mut findings);
        }
        reach_infos.push((rule, info));
    }
    let wire = run_wire_rule(files, design, &mut findings);
    SemanticReport {
        findings,
        reach: reach_infos,
        wire,
    }
}

/// A root binds to a graph node with its name, in its crate if it names
/// one.
fn binds(root: &(Option<&str>, &str), node: &FnNode) -> bool {
    let (krate, name) = root;
    node.name == *name && krate.is_none_or(|k| node.crate_name == k)
}

/// Reports every root of `rule` that binds to no fn in the graph. Such a
/// root certifies nothing, so a deleted or renamed root fn would
/// otherwise shrink the proof silently. The finding sits on the rule's
/// row in DESIGN.md, which has no marker channel: it stays open until
/// the root list or the code moves.
fn unbound_roots(
    rule: RuleId,
    roots: &[(Option<&str>, &str)],
    graph: &CallGraph,
    (design_path, design_text): (&str, &str),
    findings: &mut Vec<Finding>,
) {
    let row = format!("**{}**", rule.code());
    let line = design_text
        .lines()
        .position(|l| l.contains(&row))
        .map_or(1, |i| i as u32 + 1);
    for root in roots {
        if graph.nodes.iter().any(|n| binds(root, n)) {
            continue;
        }
        let (krate, name) = root;
        let key = krate.map_or_else(|| name.to_string(), |k| format!("{k}::{name}"));
        findings.push(Finding {
            diag: Diagnostic {
                path: design_path.to_string(),
                line,
                col: 1,
                rule,
                message: format!("certified root `{key}` binds to no fn in the workspace"),
            },
            fn_line: None,
        });
    }
}

/// One reachability rule: resolve roots, BFS, scan reachable bodies.
fn run_reach_rule(
    rule: RuleId,
    roots: &[(Option<&str>, &str)],
    graph: &CallGraph,
    by_path: &BTreeMap<&str, &SemFile<'_>>,
    findings: &mut Vec<Finding>,
) -> ReachInfo {
    let root_ids: Vec<u32> = graph
        .nodes
        .iter()
        .enumerate()
        .filter(|(_, n)| roots.iter().any(|root| binds(root, n)))
        .map(|(i, _)| i as u32)
        .collect();
    let reached = graph.reach(&root_ids);
    let mut info = ReachInfo {
        roots: root_ids
            .iter()
            .map(|&id| graph.nodes[id as usize].key())
            .collect(),
        reachable_fns: reached.len() as u64,
        per_crate: BTreeMap::new(),
    };
    info.roots.sort();
    for (&id, &root) in &reached {
        let node = &graph.nodes[id as usize];
        *info.per_crate.entry(node.crate_name.clone()).or_insert(0) += 1;
        let Some((open, close)) = node.body else { continue };
        let Some(file) = by_path.get(node.path.as_str()) else { continue };
        let body: Vec<&Token> = file.tokens[open..=close]
            .iter()
            .filter(|t| t.is_code())
            .collect();
        let root_key = graph.nodes[root as usize].key();
        let sources = match rule {
            RuleId::PanicFreedom => panic_sources(&body),
            RuleId::AllocFreedom => alloc_sources(&body),
            _ => blocking_sources(&body),
        };
        let noun = match rule {
            RuleId::PanicFreedom => "hot-path",
            RuleId::AllocFreedom => "per-event",
            _ => "reactor",
        };
        for (line, col, desc) in sources {
            findings.push(Finding {
                diag: Diagnostic {
                    path: node.path.clone(),
                    line,
                    col,
                    rule,
                    message: format!(
                        "{desc} in `{}` reachable from {noun} root `{root_key}`",
                        node.key()
                    ),
                },
                fn_line: Some(node.decl_line),
            });
        }
    }
    info
}

/// Idents that legally precede `[` without it being an index.
const PRE_BRACKET_KEYWORDS: &[&str] = &[
    "return", "break", "continue", "in", "else", "move", "mut", "ref", "as", "let",
];

/// L007 sources in a body's code tokens.
fn panic_sources(code: &[&Token]) -> Vec<(u32, u32, String)> {
    const PANIC_MACROS: &[&str] = &[
        "panic", "unreachable", "todo", "unimplemented", "assert", "assert_eq", "assert_ne",
    ];
    let mut out = Vec::new();
    for i in 0..code.len() {
        let t = code[i];
        let prev = i.checked_sub(1).map(|j| code[j]);
        let next = code.get(i + 1);
        match t.kind {
            TokenKind::Ident
                if matches!(t.text.as_str(), "unwrap" | "expect")
                    && prev.is_some_and(|p| p.is_punct('.'))
                    && next.is_some_and(|n| n.is_punct('(')) =>
            {
                out.push((t.line, t.col, format!("panicking call `.{}(...)`", t.text)));
            }
            TokenKind::Ident
                if PANIC_MACROS.contains(&t.text.as_str())
                    && next.is_some_and(|n| n.is_punct('!')) =>
            {
                out.push((t.line, t.col, format!("panicking macro `{}!`", t.text)));
            }
            TokenKind::Punct if t.is_punct('[') => {
                let indexes = prev.is_some_and(|p| {
                    p.is_punct(')')
                        || p.is_punct(']')
                        || (p.kind == TokenKind::Ident
                            && !PRE_BRACKET_KEYWORDS.contains(&p.text.as_str()))
                });
                if indexes {
                    out.push((t.line, t.col, "unchecked indexing `[...]`".to_string()));
                }
            }
            TokenKind::Punct if t.is_punct('/') || t.is_punct('%') => {
                if let Some(src) = division_source(code, i) {
                    out.push(src);
                }
            }
            _ => {}
        }
    }
    out
}

/// Classifies a `/` or `%` at `code[i]`: integer division by a
/// non-literal divisor can panic. Literal divisors and float operands
/// are safe.
fn division_source(code: &[&Token], i: usize) -> Option<(u32, u32, String)> {
    let t = code[i];
    let prev = i.checked_sub(1).map(|j| code[j])?;
    let dividend_ok = prev.is_punct(')')
        || prev.is_punct(']')
        || prev.kind == TokenKind::Ident
        || prev.kind == TokenKind::Number;
    if !dividend_ok || (prev.kind == TokenKind::Number && prev.text.contains('.')) {
        return None;
    }
    // Walk to the divisor: skip a compound-assign `=` and a unary `-`.
    let mut j = i + 1;
    if code.get(j).is_some_and(|n| n.is_punct('=')) {
        j += 1;
    }
    if code.get(j).is_some_and(|n| n.is_punct('-')) {
        j += 1;
    }
    let divisor = code.get(j)?;
    if divisor.kind == TokenKind::Number {
        return None; // literal divisor: zero is a compile error
    }
    if divisor.kind == TokenKind::Ident || divisor.is_punct('(') {
        return Some((
            t.line,
            t.col,
            format!("non-literal division `{}`", t.text),
        ));
    }
    None
}

/// L008 sources in a body's code tokens.
fn alloc_sources(code: &[&Token]) -> Vec<(u32, u32, String)> {
    const GROWTH_METHODS: &[&str] = &[
        "push", "push_str", "push_front", "push_back", "insert", "or_insert",
        "or_insert_with", "or_default", "extend", "extend_from_slice", "append", "resize",
        "reserve", "reserve_exact", "collect", "to_vec", "to_owned", "to_string", "concat",
        "repeat",
    ];
    /// Types whose associated constructors allocate eagerly.
    const BOXING_TYPES: &[&str] = &["Box", "Rc", "Arc"];
    const CONTAINER_TYPES: &[&str] = &[
        "Vec", "String", "VecDeque", "BTreeMap", "BTreeSet", "HashMap", "HashSet",
        "BinaryHeap",
    ];
    let mut out = Vec::new();
    for i in 0..code.len() {
        let t = code[i];
        if t.kind != TokenKind::Ident {
            continue;
        }
        let prev = i.checked_sub(1).map(|j| code[j]);
        let next = code.get(i + 1);
        if next.is_some_and(|n| n.is_punct('!'))
            && matches!(t.text.as_str(), "format" | "vec")
        {
            out.push((t.line, t.col, format!("allocating macro `{}!`", t.text)));
            continue;
        }
        if !next.is_some_and(|n| n.is_punct('(')) {
            continue;
        }
        if prev.is_some_and(|p| p.is_punct('.')) && GROWTH_METHODS.contains(&t.text.as_str()) {
            out.push((t.line, t.col, format!("growth call `.{}(...)`", t.text)));
            continue;
        }
        // Qualified constructors: `Seg::name(`.
        let qualified = prev.is_some_and(|p| p.is_punct(':'))
            && i.checked_sub(2).is_some_and(|j| code[j].is_punct(':'));
        if !qualified {
            continue;
        }
        let seg = i.checked_sub(3).map(|j| code[j]);
        let seg_text = seg.map(|s| s.text.as_str()).unwrap_or("");
        if t.text == "with_capacity" {
            out.push((
                t.line,
                t.col,
                format!("allocating constructor `{seg_text}::with_capacity`"),
            ));
        } else if BOXING_TYPES.contains(&seg_text) && t.text == "new" {
            out.push((t.line, t.col, format!("allocating constructor `{seg_text}::new`")));
        } else if CONTAINER_TYPES.contains(&seg_text)
            && matches!(t.text.as_str(), "from" | "from_iter")
        {
            out.push((
                t.line,
                t.col,
                format!("allocating constructor `{seg_text}::{}`", t.text),
            ));
        }
    }
    out
}

/// L009 sources in a body's code tokens.
fn blocking_sources(code: &[&Token]) -> Vec<(u32, u32, String)> {
    const BLOCKING_METHODS: &[&str] = &[
        "lock", "join", "recv", "recv_timeout", "recv_deadline", "wait", "wait_timeout",
        "wait_while", "read_exact", "read_to_end", "read_to_string", "write_all", "accept",
    ];
    const BLOCKING_FREE: &[&str] = &["sleep", "park", "park_timeout"];
    let mut out = Vec::new();
    for i in 0..code.len() {
        let t = code[i];
        if t.kind != TokenKind::Ident || !code.get(i + 1).is_some_and(|n| n.is_punct('(')) {
            continue;
        }
        let prev = i.checked_sub(1).map(|j| code[j]);
        if prev.is_some_and(|p| p.is_punct('.')) && BLOCKING_METHODS.contains(&t.text.as_str())
        {
            // `.join(x)` with arguments is `PathBuf::join` / `[T]::join`
            // — string building, not `JoinHandle::join()`. Only the
            // nullary form parks the thread.
            if t.text == "join" && !code.get(i + 2).is_some_and(|n| n.is_punct(')')) {
                continue;
            }
            out.push((t.line, t.col, format!("blocking call `.{}(...)`", t.text)));
        } else if !prev.is_some_and(|p| p.is_punct('.'))
            && BLOCKING_FREE.contains(&t.text.as_str())
        {
            out.push((t.line, t.col, format!("blocking call `{}(...)`", t.text)));
        }
    }
    out
}

/// The extracted wire surface of protocol.rs.
#[derive(Debug, Default)]
struct WireModel {
    /// `(const name, wire value, decl line)`.
    frames: Vec<(String, u8, u32)>,
    /// `(variant name, decl line)`.
    errors: Vec<(String, u32)>,
    /// Variants listed in `ErrorCode::ALL`.
    in_all: BTreeSet<String>,
}

/// Per-frame / per-variant evidence gathered across the serve crate.
#[derive(Debug, Default)]
struct Evidence {
    encode: BTreeSet<String>,
    decode: BTreeSet<String>,
    test: BTreeSet<String>,
    production: BTreeSet<String>,
}

/// L010: wire exhaustiveness over the serve crate + DESIGN.md §11.
fn run_wire_rule(
    files: &[SemFile<'_>],
    design: Option<(&str, &str)>,
    findings: &mut Vec<Finding>,
) -> WireInfo {
    let Some(proto) = files
        .iter()
        .find(|f| f.path.ends_with("serve/src/protocol.rs"))
    else {
        return WireInfo::default();
    };
    let model = extract_wire_model(proto.tokens);
    let mut ev = Evidence::default();
    // `frame const -> (enum, variant)` out of the decode arms, so a test
    // asserting on `ServerFrame::Stats` counts as covering `STATS`.
    let mut variant_of: BTreeMap<String, (String, String)> = BTreeMap::new();
    collect_frame_refs(proto, &mut ev, &mut variant_of);
    for f in files.iter().filter(|f| f.crate_name == Some("serve")) {
        if f.path != proto.path {
            collect_frame_refs(f, &mut ev, &mut variant_of);
        }
        collect_variant_test_refs(f, &variant_of, &mut ev);
        collect_error_refs(f, &model, &mut ev);
    }
    let sec11 = design.map(|(path, text)| (path, design_section_11(text)));
    let proto_path = proto.path;
    let doc_codes: Option<&BTreeSet<u8>> = sec11.as_ref().map(|(_, s)| &s.code_set);
    let doc_text: Option<&str> = sec11.as_ref().map(|(_, s)| s.text.as_str());
    let mut wire = WireInfo {
        opcodes_total: model.frames.len() as u64,
        error_codes_total: model.errors.len() as u64,
        ..WireInfo::default()
    };
    let push = |line: u32, message: String, findings: &mut Vec<Finding>| {
        findings.push(Finding {
            diag: Diagnostic {
                path: proto_path.to_string(),
                line,
                col: 1,
                rule: RuleId::WireExhaustive,
                message,
            },
            fn_line: None,
        });
    };
    for (name, value, line) in &model.frames {
        let label = format!("frame opcode `{name}` (0x{value:02X})");
        let mut ok = true;
        if !ev.encode.contains(name) {
            ok = false;
            push(*line, format!("{label} has no encode site"), findings);
        }
        if !ev.decode.contains(name) {
            ok = false;
            push(*line, format!("{label} has no decode arm"), findings);
        }
        if !ev.test.contains(name) {
            ok = false;
            push(*line, format!("{label} has no test reference"), findings);
        }
        if doc_codes.is_some_and(|codes| !codes.contains(value)) {
            ok = false;
            push(
                *line,
                format!("{label} not documented in DESIGN.md §11 frame tables"),
                findings,
            );
        }
        if ok {
            wire.opcodes_certified += 1;
        }
    }
    // Reverse direction: every documented opcode must exist in code.
    if let Some((dpath, sec)) = &sec11 {
        let known: BTreeSet<u8> = model.frames.iter().map(|(_, v, _)| *v).collect();
        for (value, line) in &sec.code_rows {
            if !known.contains(value) {
                findings.push(Finding {
                    diag: Diagnostic {
                        path: dpath.to_string(),
                        line: *line,
                        col: 1,
                        rule: RuleId::WireExhaustive,
                        message: format!(
                            "DESIGN.md §11 documents opcode 0x{value:02X} with no \
                             matching `frame_type` const"
                        ),
                    },
                    fn_line: None,
                });
            }
        }
    }
    for (variant, line) in &model.errors {
        let kebab = camel_to_kebab(variant);
        let label = format!("error code `{variant}` (`{kebab}`)");
        let mut ok = true;
        if !model.in_all.contains(variant) {
            ok = false;
            push(*line, format!("{label} missing from `ErrorCode::ALL`"), findings);
        }
        if !ev.production.contains(variant) {
            ok = false;
            push(
                *line,
                format!("{label} is never produced outside the wire-format impls"),
                findings,
            );
        }
        if !ev.test.contains(variant) && !ev.test.contains(&kebab) {
            ok = false;
            push(*line, format!("{label} has no test reference"), findings);
        }
        if doc_text.is_some_and(|text| !text.contains(&kebab)) {
            ok = false;
            push(
                *line,
                format!("{label} not documented in DESIGN.md §11"),
                findings,
            );
        }
        if ok {
            wire.error_codes_certified += 1;
        }
    }
    wire
}

/// Pulls the frame consts, ErrorCode variants, and ALL membership out of
/// protocol.rs tokens.
fn extract_wire_model(tokens: &[Token]) -> WireModel {
    let code: Vec<&Token> = tokens.iter().filter(|t| t.is_code()).collect();
    let mut model = WireModel::default();
    let mut i = 0;
    while i < code.len() {
        let t = code[i];
        if t.is_ident("mod") && code.get(i + 1).is_some_and(|n| n.is_ident("frame_type")) {
            i = scan_frame_consts(&code, i + 2, &mut model);
            continue;
        }
        if t.is_ident("enum") && code.get(i + 1).is_some_and(|n| n.is_ident("ErrorCode")) {
            i = scan_error_variants(&code, i + 2, &mut model);
            continue;
        }
        if t.is_ident("ALL") && i.checked_sub(1).is_some_and(|j| code[j].is_ident("const")) {
            i = scan_all_array(&code, i + 1, &mut model);
            continue;
        }
        i += 1;
    }
    model
}

/// Scans `mod frame_type { pub const NAME: u8 = 0xNN; ... }`.
fn scan_frame_consts(code: &[&Token], mut i: usize, model: &mut WireModel) -> usize {
    let mut depth = 0i32;
    while i < code.len() {
        let t = code[i];
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth <= 0 {
                return i + 1;
            }
        } else if t.is_ident("const") {
            let name = code.get(i + 1);
            let value = code.get(i + 5);
            if let (Some(name), Some(value)) = (name, value) {
                if name.kind == TokenKind::Ident && value.kind == TokenKind::Number {
                    if let Some(v) = parse_u8(&value.text) {
                        model.frames.push((name.text.clone(), v, name.line));
                    }
                }
            }
        }
        i += 1;
    }
    i
}

/// Scans `enum ErrorCode { Variant, ... }` (fieldless variants).
fn scan_error_variants(code: &[&Token], mut i: usize, model: &mut WireModel) -> usize {
    let mut depth = 0i32;
    while i < code.len() {
        let t = code[i];
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth <= 0 {
                return i + 1;
            }
        } else if depth == 1 && t.kind == TokenKind::Ident {
            let next = code.get(i + 1);
            if next.is_some_and(|n| n.is_punct(',') || n.is_punct('}')) {
                model.errors.push((t.text.clone(), t.line));
            }
        }
        i += 1;
    }
    i
}

/// Scans `const ALL: [...] = [ErrorCode::A, ...];` membership. The
/// terminating `;` is the one at bracket depth 0 — the array *type*
/// annotation (`[ErrorCode; 15]`) contains a `;` too.
fn scan_all_array(code: &[&Token], mut i: usize, model: &mut WireModel) -> usize {
    let mut depth = 0i32;
    while i < code.len() {
        let t = code[i];
        if t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(']') {
            depth -= 1;
        } else if t.is_punct(';') && depth == 0 {
            return i + 1;
        } else if t.kind == TokenKind::Ident
            && i >= 3
            && code[i - 1].is_punct(':')
            && code[i - 2].is_punct(':')
            && code[i - 3].is_ident("ErrorCode")
        {
            model.in_all.insert(t.text.clone());
        }
        i += 1;
    }
    i
}

/// Parses `0xNN` / decimal u8 literals (with optional `u8` suffix).
fn parse_u8(text: &str) -> Option<u8> {
    let text = text.trim_end_matches("u8").trim_end_matches('_');
    if let Some(hex) = text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        u8::from_str_radix(hex, 16).ok()
    } else {
        text.parse().ok()
    }
}

/// Finds `frame_type::NAME` refs in one file and classifies each as an
/// encode site, decode arm, or test reference. In decode fns, also
/// learns the `const -> enum variant` mapping from the arm body.
fn collect_frame_refs(
    file: &SemFile<'_>,
    ev: &mut Evidence,
    variant_of: &mut BTreeMap<String, (String, String)>,
) {
    let code: Vec<&Token> = file.tokens.iter().filter(|t| t.is_code()).collect();
    for i in 0..code.len() {
        if !code[i].is_ident("frame_type")
            || !code.get(i + 1).is_some_and(|t| t.is_punct(':'))
            || !code.get(i + 2).is_some_and(|t| t.is_punct(':'))
        {
            continue;
        }
        let Some(name_tok) = code.get(i + 3).filter(|t| t.kind == TokenKind::Ident) else {
            continue;
        };
        let name = name_tok.text.clone();
        if file.in_test(name_tok.line) {
            ev.test.insert(name);
            continue;
        }
        let fn_name = file
            .enclosing_fn(name_tok.line)
            .map(|f| f.name.as_str())
            .unwrap_or("");
        let in_decode_fn = fn_name.contains("decode");
        let arm = code.get(i + 4).is_some_and(|t| t.is_punct('='))
            && code.get(i + 5).is_some_and(|t| t.is_punct('>'));
        let compared = i >= 2
            && code[i - 1].is_punct('=')
            && (code[i - 2].is_punct('=') || code[i - 2].is_punct('!'));
        if in_decode_fn || arm || compared {
            ev.decode.insert(name.clone());
            if in_decode_fn && arm {
                learn_variant(&code, i + 6, &name, variant_of);
            }
            continue;
        }
        let in_encode_fn = fn_name.starts_with("put") || fn_name.starts_with("encode");
        let near_put_call = (i.saturating_sub(8)..i).any(|j| {
            code[j].kind == TokenKind::Ident
                && (code[j].text.starts_with("put") || code[j].text.starts_with("encode"))
                && code.get(j + 1).is_some_and(|t| t.is_punct('('))
        });
        if in_encode_fn || near_put_call {
            ev.encode.insert(name);
        }
    }
}

/// After a decode arm's `=>`, the first `XFrame::Variant` path names the
/// decoded variant.
fn learn_variant(
    code: &[&Token],
    from: usize,
    const_name: &str,
    variant_of: &mut BTreeMap<String, (String, String)>,
) {
    for j in from..code.len().min(from + 120) {
        if code[j].is_ident("frame_type") {
            return; // next arm reached without a variant path
        }
        if code[j].kind == TokenKind::Ident
            && code[j].text.ends_with("Frame")
            && code.get(j + 1).is_some_and(|t| t.is_punct(':'))
            && code.get(j + 2).is_some_and(|t| t.is_punct(':'))
        {
            if let Some(v) = code.get(j + 3).filter(|t| t.kind == TokenKind::Ident) {
                variant_of
                    .entry(const_name.to_string())
                    .or_insert_with(|| (code[j].text.clone(), v.text.clone()));
                return;
            }
        }
    }
}

/// Counts `Enum::Variant` mentions in test code as coverage for the
/// frame const the decode arm mapped them from.
fn collect_variant_test_refs(
    file: &SemFile<'_>,
    variant_of: &BTreeMap<String, (String, String)>,
    ev: &mut Evidence,
) {
    if variant_of.is_empty() {
        return;
    }
    let code: Vec<&Token> = file.tokens.iter().filter(|t| t.is_code()).collect();
    for i in 0..code.len() {
        let t = code[i];
        if t.kind != TokenKind::Ident || !t.text.ends_with("Frame") || !file.in_test(t.line) {
            continue;
        }
        if !code.get(i + 1).is_some_and(|n| n.is_punct(':'))
            || !code.get(i + 2).is_some_and(|n| n.is_punct(':'))
        {
            continue;
        }
        let Some(v) = code.get(i + 3).filter(|n| n.kind == TokenKind::Ident) else {
            continue;
        };
        for (const_name, (enum_name, variant)) in variant_of {
            if *enum_name == t.text && *variant == v.text {
                ev.test.insert(const_name.clone());
            }
        }
    }
}

/// Finds `ErrorCode::Variant` refs and kebab strings, splitting them
/// into production uses and test references.
fn collect_error_refs(file: &SemFile<'_>, model: &WireModel, ev: &mut Evidence) {
    let code: Vec<&Token> = file.tokens.iter().filter(|t| t.is_code()).collect();
    for i in 0..code.len() {
        if !code[i].is_ident("ErrorCode")
            || !code.get(i + 1).is_some_and(|t| t.is_punct(':'))
            || !code.get(i + 2).is_some_and(|t| t.is_punct(':'))
        {
            continue;
        }
        let Some(v) = code.get(i + 3).filter(|t| t.kind == TokenKind::Ident) else {
            continue;
        };
        if file.in_test(v.line) {
            ev.test.insert(v.text.clone());
        } else {
            match file.enclosing_fn(v.line).map(|f| f.name.as_str()) {
                // The wire-format impls and the ALL table (no enclosing
                // fn) describe codes; they don't *produce* them.
                None | Some("as_u8") | Some("from_u8") | Some("fmt") => {}
                Some(_) => {
                    ev.production.insert(v.text.clone());
                }
            }
        }
    }
    // Kebab names inside test string literals count as test coverage.
    for t in file.tokens {
        if t.kind == TokenKind::Str && file.in_test(t.line) {
            for (variant, _) in &model.errors {
                let kebab = camel_to_kebab(variant);
                if t.text.contains(&kebab) {
                    ev.test.insert(kebab);
                }
            }
        }
    }
}

/// `ShuttingDown` → `shutting-down`, matching the `Display` impl.
fn camel_to_kebab(name: &str) -> String {
    let mut out = String::new();
    for (i, c) in name.chars().enumerate() {
        if c.is_ascii_uppercase() {
            if i > 0 {
                out.push('-');
            }
            out.push(c.to_ascii_lowercase());
        } else {
            out.push(c);
        }
    }
    out
}

/// DESIGN.md's §11, extracted for the cross-checks.
struct Section11 {
    /// The section's full text (for kebab error-name lookups).
    text: String,
    /// `0xNN` codes in table rows, with 1-based DESIGN.md lines.
    code_rows: Vec<(u8, u32)>,
    /// The same codes as a set.
    code_set: BTreeSet<u8>,
}

/// Extracts DESIGN.md's §11: the full section text plus the `0xNN`
/// codes appearing in table rows.
fn design_section_11(text: &str) -> Section11 {
    let mut section = String::new();
    let mut rows: Vec<(u8, u32)> = Vec::new();
    let mut in_sec = false;
    for (idx, line) in text.lines().enumerate() {
        if let Some(heading) = line.strip_prefix("## ") {
            in_sec = heading.trim_start().starts_with("11");
            continue;
        }
        if !in_sec {
            continue;
        }
        section.push_str(line);
        section.push('\n');
        if line.trim_start().starts_with('|') {
            if let Some(pos) = line.find("0x") {
                let hex: String = line[pos + 2..]
                    .chars()
                    .take_while(|c| c.is_ascii_hexdigit())
                    .collect();
                if let Ok(v) = u8::from_str_radix(&hex, 16) {
                    rows.push((v, idx as u32 + 1));
                }
            }
        }
    }
    let code_set: BTreeSet<u8> = rows.iter().map(|&(v, _)| v).collect();
    Section11 {
        text: section,
        code_rows: rows,
        code_set,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::{CallGraph, GraphFile};
    use crate::lexer::lex;
    use crate::parser;

    /// Lex+parse fixture files and run the semantic pass.
    fn run_fixture(files: &[(&str, &str, &str)]) -> SemanticReport {
        let toks: Vec<Vec<Token>> = files.iter().map(|(_, _, s)| lex(s)).collect();
        let parsed: Vec<parser::ParsedFile> = toks.iter().map(|t| parser::parse(t)).collect();
        let gfiles: Vec<GraphFile<'_>> = files
            .iter()
            .zip(&toks)
            .zip(&parsed)
            .map(|(((path, krate, _), tokens), p)| GraphFile {
                path,
                crate_name: krate,
                tokens,
                fns: &p.fns,
            })
            .collect();
        let graph = CallGraph::build(&gfiles);
        let sem: Vec<SemFile<'_>> = files
            .iter()
            .zip(&toks)
            .zip(&parsed)
            .map(|(((path, krate, _), tokens), p)| SemFile {
                path,
                crate_name: Some(krate),
                all_test: false,
                tokens,
                fns: &p.fns,
                test_spans: &[],
            })
            .collect();
        run(&sem, &graph, None)
    }

    #[test]
    fn l007_flags_unwrap_reached_through_helpers() {
        let rep = run_fixture(&[(
            "crates/sim/src/runner.rs",
            "sim",
            "pub fn simulate_stream() { helper(); }\n\
             fn helper() { deep(); }\n\
             fn deep(x: Option<u32>) { x.unwrap(); }\n",
        )]);
        let l7: Vec<_> = rep
            .findings
            .iter()
            .filter(|f| f.diag.rule == RuleId::PanicFreedom)
            .collect();
        assert_eq!(l7.len(), 1, "{:?}", rep.findings.iter().map(|f| &f.diag).collect::<Vec<_>>());
        assert_eq!(l7[0].diag.line, 3);
        assert_eq!(l7[0].fn_line, Some(3));
        assert!(l7[0].diag.message.contains("sim::simulate_stream"), "{}", l7[0].diag.message);
    }

    #[test]
    fn unreachable_code_is_not_flagged() {
        let rep = run_fixture(&[(
            "crates/sim/src/runner.rs",
            "sim",
            "pub fn simulate_stream() { helper(); }\n\
             fn helper() {}\n\
             fn island(x: Option<u32>) { x.unwrap(); }\n",
        )]);
        assert!(
            rep.findings.iter().all(|f| f.diag.rule != RuleId::PanicFreedom),
            "island unwrap must not fire"
        );
        let (_, info) = &rep.reach[0];
        assert_eq!(info.reachable_fns, 2);
    }

    #[test]
    fn l007_flags_indexing_and_division_not_literals() {
        let rep = run_fixture(&[(
            "crates/sim/src/runner.rs",
            "sim",
            "pub fn simulate_stream(t: &[u8], n: usize) -> u8 {\n\
                 let a = t[n];\n\
                 let b = n / t.len();\n\
                 let c = n / 8;\n\
                 let d = [0u8; 4];\n\
                 a + (b as u8) + c as u8 + d[0]\n\
             }\n",
        )]);
        let descs: Vec<&str> = rep
            .findings
            .iter()
            .filter(|f| f.diag.rule == RuleId::PanicFreedom)
            .map(|f| f.diag.message.as_str())
            .collect();
        assert_eq!(descs.len(), 3, "{descs:?}"); // t[n], n / t.len(), d[0]
        assert!(descs.iter().any(|m| m.contains("non-literal division")));
    }

    #[test]
    fn l008_flags_growth_and_constructors() {
        let rep = run_fixture(&[(
            "crates/sim/src/runner.rs",
            "sim",
            "pub fn simulate_stream(v: &mut Vec<u32>) {\n\
                 v.push(1);\n\
                 let b = Box::new(2u32);\n\
                 let m = FastMap::with_capacity(8);\n\
                 let s = format!(\"x\");\n\
             }\n",
        )]);
        let l8 = rep
            .findings
            .iter()
            .filter(|f| f.diag.rule == RuleId::AllocFreedom)
            .count();
        assert_eq!(l8, 4, "{:?}", rep.findings.iter().map(|f| &f.diag.message).collect::<Vec<_>>());
    }

    #[test]
    fn l009_flags_blocking_in_reactor_reach() {
        let rep = run_fixture(&[(
            "crates/serve/src/reactor.rs",
            "serve",
            "pub fn shard_loop(m: &std::sync::Mutex<u32>) {\n\
                 let g = m.lock();\n\
                 sleep(nap());\n\
             }\n\
             fn nap() -> u32 { 0 }\n",
        )]);
        let l9 = rep
            .findings
            .iter()
            .filter(|f| f.diag.rule == RuleId::NonBlocking)
            .count();
        assert_eq!(l9, 2);
    }

    #[test]
    fn rule_roots_respect_crate_restriction() {
        // A `shard_loop` outside crate `serve` is not a root.
        let rep = run_fixture(&[(
            "crates/hw/src/lib.rs",
            "hw",
            "pub fn shard_loop() { sleep(0); }\n",
        )]);
        assert!(rep.findings.is_empty(), "{:?}", rep.findings.iter().map(|f| &f.diag).collect::<Vec<_>>());
    }

    const PROTO_FIXTURE: &str = "pub mod frame_type {\n\
             pub const EVENT_BATCH: u8 = 0x01;\n\
             pub const FLUSH: u8 = 0x02;\n\
         }\n\
         pub enum ErrorCode { BadMagic, BadFrame }\n\
         impl ErrorCode {\n\
             pub const ALL: [ErrorCode; 2] = [ErrorCode::BadMagic, ErrorCode::BadFrame];\n\
             pub fn as_u8(self) -> u8 { match self { ErrorCode::BadMagic => 1, ErrorCode::BadFrame => 2 } }\n\
         }\n\
         pub fn put_events(out: &mut Vec<u8>) { out.push(frame_type::EVENT_BATCH); }\n\
         pub fn decode(b: u8) -> Option<ReqFrame> {\n\
             match b {\n\
                 frame_type::EVENT_BATCH => Some(ReqFrame::Events),\n\
                 _ => None,\n\
             }\n\
         }\n\
         pub fn reject() -> ErrorCode { ErrorCode::BadMagic }\n";

    #[test]
    fn l010_reports_each_missing_leg() {
        let rep = run_fixture(&[("crates/serve/src/protocol.rs", "serve", PROTO_FIXTURE)]);
        let msgs: Vec<&str> = rep
            .findings
            .iter()
            .filter(|f| f.diag.rule == RuleId::WireExhaustive)
            .map(|f| f.diag.message.as_str())
            .collect();
        // EVENT_BATCH: encode+decode present, no test ref.
        assert!(msgs.iter().any(|m| m.contains("`EVENT_BATCH`") && m.contains("no test reference")), "{msgs:?}");
        // FLUSH: nothing references it.
        assert!(msgs.iter().any(|m| m.contains("`FLUSH`") && m.contains("no encode site")));
        assert!(msgs.iter().any(|m| m.contains("`FLUSH`") && m.contains("no decode arm")));
        // BadMagic produced by reject(); BadFrame only described.
        assert!(msgs.iter().any(|m| m.contains("`BadFrame`") && m.contains("never produced")));
        assert!(!msgs.iter().any(|m| m.contains("`BadMagic`") && m.contains("never produced")));
        assert_eq!(rep.wire.opcodes_total, 2);
        assert_eq!(rep.wire.error_codes_total, 2);
    }

    #[test]
    fn l010_variant_mapping_covers_tests_and_kebab_strings() {
        let test_src = "fn t() {\n\
                 let f = ReqFrame::Events;\n\
                 let s = \"bad-magic\";\n\
             }\n";
        let toks_proto = lex(PROTO_FIXTURE);
        let toks_test = lex(test_src);
        let p_proto = parser::parse(&toks_proto);
        let p_test = parser::parse(&toks_test);
        let gfiles = [GraphFile {
            path: "crates/serve/src/protocol.rs",
            crate_name: "serve",
            tokens: &toks_proto,
            fns: &p_proto.fns,
        }];
        let graph = CallGraph::build(&gfiles);
        let sem = [
            SemFile {
                path: "crates/serve/src/protocol.rs",
                crate_name: Some("serve"),
                all_test: false,
                tokens: &toks_proto,
                fns: &p_proto.fns,
                test_spans: &[],
            },
            SemFile {
                path: "crates/serve/tests/robustness.rs",
                crate_name: Some("serve"),
                all_test: true,
                tokens: &toks_test,
                fns: &p_test.fns,
                test_spans: &[],
            },
        ];
        let rep = run(&sem, &graph, None);
        let msgs: Vec<&str> = rep
            .findings
            .iter()
            .filter(|f| f.diag.rule == RuleId::WireExhaustive)
            .map(|f| f.diag.message.as_str())
            .collect();
        // ReqFrame::Events in tests covers EVENT_BATCH via the decode
        // arm mapping; "bad-magic" covers BadMagic.
        assert!(!msgs.iter().any(|m| m.contains("`EVENT_BATCH`") && m.contains("no test reference")), "{msgs:?}");
        assert!(!msgs.iter().any(|m| m.contains("`BadMagic`") && m.contains("no test reference")), "{msgs:?}");
        assert!(msgs.iter().any(|m| m.contains("`BadFrame`") && m.contains("no test reference")), "{msgs:?}");
    }

    #[test]
    fn design_cross_check_fires_both_directions() {
        let design_text = "## 11 · Wire protocol\n\
             | `0x01` | C→S | `EVENT_BATCH` | x |\n\
             | `0x7E` | S→C | `GHOST` | x |\n\
             Error codes: `bad-magic`.\n\
             ## 12 · Other\n\
             | `0x02` | ignored, outside §11 |\n";
        let toks = lex(PROTO_FIXTURE);
        let parsed = parser::parse(&toks);
        let gfiles = [GraphFile {
            path: "crates/serve/src/protocol.rs",
            crate_name: "serve",
            tokens: &toks,
            fns: &parsed.fns,
        }];
        let graph = CallGraph::build(&gfiles);
        let sem = [SemFile {
            path: "crates/serve/src/protocol.rs",
            crate_name: Some("serve"),
            all_test: false,
            tokens: &toks,
            fns: &parsed.fns,
            test_spans: &[],
        }];
        let rep = run(&sem, &graph, Some(("DESIGN.md", design_text)));
        let msgs: Vec<(&str, u32, &str)> = rep
            .findings
            .iter()
            .filter(|f| f.diag.rule == RuleId::WireExhaustive)
            .map(|f| (f.diag.path.as_str(), f.diag.line, f.diag.message.as_str()))
            .collect();
        // FLUSH (0x02) is only documented OUTSIDE §11 → undocumented.
        assert!(msgs.iter().any(|(_, _, m)| m.contains("`FLUSH`") && m.contains("not documented")), "{msgs:?}");
        assert!(!msgs.iter().any(|(_, _, m)| m.contains("`EVENT_BATCH`") && m.contains("not documented")));
        // Ghost opcode documented but not implemented.
        assert!(msgs.iter().any(|(p, _, m)| *p == "DESIGN.md" && m.contains("0x7E")), "{msgs:?}");
        // BadFrame's kebab is missing from §11.
        assert!(msgs.iter().any(|(_, _, m)| m.contains("`bad-frame`") && m.contains("not documented")));
        assert!(!msgs.iter().any(|(_, _, m)| m.contains("`bad-magic`") && m.contains("not documented")));
    }

    #[test]
    fn kebab_conversion_matches_display_names() {
        assert_eq!(camel_to_kebab("BadMagic"), "bad-magic");
        assert_eq!(camel_to_kebab("DuplicateStream"), "duplicate-stream");
        assert_eq!(camel_to_kebab("Busy"), "busy");
    }
}
