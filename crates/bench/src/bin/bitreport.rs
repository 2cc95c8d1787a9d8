//! bitreport — storage-bit audit of the whole predictor zoo.
//!
//! For every kind on the serve lineup (the §5 2K-entry configurations;
//! the faithful ITTAGE presets size themselves from their declared
//! kilobyte budgets), builds the predictor and compares two independent
//! derivations of its storage footprint:
//!
//! * **declared** — [`IndirectPredictor::cost`], computed from the
//!   configuration parameters;
//! * **audited** — [`PredictorState::report_storage`], summed from the
//!   rows of every component the predictor declares, counted from the
//!   actually allocated state (tags, targets, counters, useful bits,
//!   history registers, metadata).
//!
//! The two must agree within 1% per kind (they are written to agree
//! exactly; the slack absorbs deliberate rounding, not bugs), and every
//! kind that declares a bit budget must land inside it without leaving
//! more than 1% on the table. The report is versioned, integer-only
//! JSON, so regeneration is byte-deterministic.
//!
//! Usage:
//!   `cargo run --release -p ibp-bench --bin bitreport [-- --check PATH]`
//!
//! With `IBP_BENCH_DIR` set, the JSON lands in `<dir>/storage_bits.json`.
//! `--check PATH` validates an emitted report — schema, per-kind
//! declared-vs-audited divergence ≤1%, class breakdown summing to the
//! audit, entry counts agreeing, and declared budgets honored — and
//! exits.

use ibp_hw::ComponentClass;
use ibp_predictors::{IndirectPredictor, PredictorState};
use ibp_sim::{Json, PredictorKind};

/// The §5 entry budget the zoo rows are built at (kinds that size
/// themselves by bits ignore it).
const ENTRIES: usize = 2048;

struct KindRow {
    label: String,
    cli: String,
    wire_code: u8,
    declared_bits: u64,
    declared_entries: u64,
    audited_bits: u64,
    audited_entries: u64,
    /// The kind's self-declared bit budget (0 when the kind is sized by
    /// entries instead of bits).
    budget_bits: u64,
    idealized: bool,
    class_bits: Vec<(ComponentClass, u64)>,
}

fn declared_budget_bits(kind: PredictorKind) -> u64 {
    match kind {
        PredictorKind::Ittage64(kb) => u64::from(kb) * 8 * 1024,
        _ => 0,
    }
}

fn measure(kind: PredictorKind) -> KindRow {
    let p = kind.build_with_entries(ENTRIES);
    let cost = p.cost();
    let report = p.report_storage();
    KindRow {
        label: p.name(),
        cli: kind.cli_name(),
        wire_code: kind.wire_code(),
        declared_bits: cost.bits(),
        declared_entries: cost.entries(),
        audited_bits: report.total_bits(),
        audited_entries: report.entries(),
        budget_bits: declared_budget_bits(kind),
        idealized: matches!(kind, PredictorKind::OraclePib(_)),
        class_bits: ComponentClass::ALL
            .iter()
            .map(|&c| (c, report.class_bits(c)))
            .collect(),
    }
}

fn render(rows: &[KindRow]) -> Json {
    Json::obj([
        ("report", Json::Str("storage_bits".to_string())),
        ("schema_version", Json::UInt(1)),
        ("entries_budget", Json::UInt(ENTRIES as u64)),
        (
            "kinds",
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::obj([
                            ("kind", Json::Str(r.label.clone())),
                            ("cli", Json::Str(r.cli.clone())),
                            ("wire_code", Json::UInt(u64::from(r.wire_code))),
                            ("declared_bits", Json::UInt(r.declared_bits)),
                            ("declared_entries", Json::UInt(r.declared_entries)),
                            ("audited_bits", Json::UInt(r.audited_bits)),
                            ("audited_entries", Json::UInt(r.audited_entries)),
                            ("budget_bits", Json::UInt(r.budget_bits)),
                            ("idealized", Json::Bool(r.idealized)),
                            (
                                "classes",
                                Json::obj(
                                    r.class_bits
                                        .iter()
                                        .map(|(c, bits)| (c.label(), Json::UInt(*bits)))
                                        .collect::<Vec<_>>(),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// One row's numbers as the audit gate reads them.
struct Audit {
    declared_bits: u64,
    audited_bits: u64,
    declared_entries: u64,
    audited_entries: u64,
    budget_bits: u64,
    class_sum: u64,
    idealized: bool,
}

/// The audit gate shared by `--check` and the generation path: declared
/// vs audited within 1%, classes summing exactly, entry units agreeing,
/// and any declared budget filled to within 1% without overshoot.
fn gate_row(label: &str, audit: &Audit) -> Result<(), String> {
    let Audit {
        declared_bits,
        audited_bits,
        declared_entries,
        audited_entries,
        budget_bits,
        class_sum,
        idealized,
    } = *audit;
    if class_sum != audited_bits {
        return Err(format!(
            "{label}: class breakdown sums to {class_sum} bits, audit says {audited_bits}"
        ));
    }
    if audited_entries != declared_entries {
        return Err(format!(
            "{label}: audited {audited_entries} entries vs declared {declared_entries}"
        ));
    }
    if declared_bits == 0 {
        if !idealized || audited_bits != 0 {
            return Err(format!(
                "{label}: zero declared bits on a non-idealized kind (audited {audited_bits})"
            ));
        }
    } else {
        let diff = declared_bits.abs_diff(audited_bits);
        if diff * 100 > declared_bits {
            return Err(format!(
                "{label}: audited {audited_bits} bits diverges >1% from declared {declared_bits}"
            ));
        }
    }
    if budget_bits > 0 {
        if audited_bits > budget_bits {
            return Err(format!(
                "{label}: audited {audited_bits} bits exceeds the declared budget {budget_bits}"
            ));
        }
        if audited_bits * 100 < budget_bits * 99 {
            return Err(format!(
                "{label}: audited {audited_bits} bits leaves >1% of the {budget_bits}-bit \
                 budget unused"
            ));
        }
    }
    Ok(())
}

fn check(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let value = Json::parse(&text).map_err(|e| format!("{path} is not valid JSON: {e:?}"))?;
    if value.get("report").and_then(Json::as_str) != Some("storage_bits") {
        return Err(format!("{path}: `report` field is not \"storage_bits\""));
    }
    if value.get("schema_version").and_then(Json::as_u64) != Some(1) {
        return Err(format!("{path}: unsupported `schema_version`"));
    }
    let kinds = value
        .get("kinds")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{path}: missing `kinds` array"))?;
    let lineup = PredictorKind::serve_lineup();
    if kinds.len() != lineup.len() {
        return Err(format!(
            "{path}: {} kinds, serve lineup has {}",
            kinds.len(),
            lineup.len()
        ));
    }
    let mut saw_flagship = false;
    for row in kinds {
        let label = row
            .get("kind")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{path}: row without `kind`"))?;
        saw_flagship |= label == "ITTAGE64-64KB";
        let field = |name: &str| {
            row.get(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("{path}: {label} missing `{name}`"))
        };
        let classes = row
            .get("classes")
            .ok_or_else(|| format!("{path}: {label} missing `classes`"))?;
        let class_sum: u64 = ComponentClass::ALL
            .iter()
            .map(|c| classes.get(c.label()).and_then(Json::as_u64).unwrap_or(0))
            .sum();
        gate_row(
            &format!("{path}: {label}"),
            &Audit {
                declared_bits: field("declared_bits")?,
                audited_bits: field("audited_bits")?,
                declared_entries: field("declared_entries")?,
                audited_entries: field("audited_entries")?,
                budget_bits: field("budget_bits")?,
                class_sum,
                idealized: matches!(row.get("idealized"), Some(Json::Bool(true))),
            },
        )?;
    }
    if !saw_flagship {
        return Err(format!("{path}: the 64KB ITTAGE flagship row is missing"));
    }
    println!("{path}: OK ({} kinds audited)", kinds.len());
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(i) = args.iter().position(|a| a == "--check") {
        let path = args.get(i + 1).cloned().unwrap_or_else(|| {
            eprintln!("--check needs a path");
            std::process::exit(2);
        });
        if let Err(msg) = check(&path) {
            eprintln!("{msg}");
            std::process::exit(1);
        }
        return;
    }
    if !args.is_empty() {
        eprintln!("usage: bitreport [--check PATH]");
        std::process::exit(2);
    }

    let rows: Vec<KindRow> = PredictorKind::serve_lineup()
        .into_iter()
        .map(measure)
        .collect();
    println!(
        "{:<16} {:>12} {:>12} {:>9} {:>12}",
        "kind", "declared", "audited", "entries", "budget"
    );
    for r in &rows {
        println!(
            "{:<16} {:>12} {:>12} {:>9} {:>12}",
            r.label,
            r.declared_bits,
            r.audited_bits,
            r.audited_entries,
            if r.budget_bits > 0 {
                r.budget_bits.to_string()
            } else {
                "-".to_string()
            }
        );
        let class_sum: u64 = r.class_bits.iter().map(|(_, b)| *b).sum();
        let audit = Audit {
            declared_bits: r.declared_bits,
            audited_bits: r.audited_bits,
            declared_entries: r.declared_entries,
            audited_entries: r.audited_entries,
            budget_bits: r.budget_bits,
            class_sum,
            idealized: r.idealized,
        };
        if let Err(msg) = gate_row(&r.label, &audit) {
            eprintln!("bitreport: {msg}");
            std::process::exit(1);
        }
    }

    let rendered = render(&rows).emit();
    println!("{rendered}");
    if let Ok(dir) = std::env::var("IBP_BENCH_DIR") {
        let _ = std::fs::create_dir_all(&dir);
        let path = std::path::Path::new(&dir).join("storage_bits.json");
        if let Err(e) = std::fs::write(&path, &rendered) {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
    }
}
