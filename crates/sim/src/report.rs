//! Plain-text rendering of experiment results, in the spirit of the
//! paper's tables and bar charts — plus the JSON report codec used by
//! the experiment binaries and trajectory tracking.
//!
//! The JSON schemas are deliberately flat and stable; golden tests in
//! `crates/sim/tests/json_report.rs` pin the emitted bytes.

use crate::compare::{GridCell, GridResult};
use crate::json::{Json, JsonError};
use crate::runner::RunResult;
use ibp_trace::TraceStats;
use std::fmt::Write as _;

/// Formats a ratio as a percentage with two decimals (`9.47%`).
pub fn pct(ratio: f64) -> String {
    format!("{:.2}%", ratio * 100.0)
}

/// Renders a grid as a misprediction-ratio table: one row per benchmark
/// run, one column per predictor, plus a mean row — the tabular form of
/// Figures 6/7.
pub fn render_grid(grid: &GridResult) -> String {
    let mut out = String::new();
    let col = 14usize;
    let name_col = 12usize;
    let _ = write!(out, "{:<name_col$}", "run");
    for p in grid.predictors() {
        let _ = write!(out, "{p:>col$}");
    }
    out.push('\n');
    for run in grid.runs() {
        let _ = write!(out, "{run:<name_col$}");
        for p in grid.predictors() {
            match grid.ratio(run, p) {
                Some(r) => {
                    let _ = write!(out, "{:>col$}", pct(r));
                }
                None => {
                    let _ = write!(out, "{:>col$}", "-");
                }
            }
        }
        out.push('\n');
    }
    let _ = write!(out, "{:<name_col$}", "MEAN");
    for p in grid.predictors() {
        match grid.mean_ratio(p) {
            Some(r) => {
                let _ = write!(out, "{:>col$}", pct(r));
            }
            None => {
                let _ = write!(out, "{:>col$}", "-");
            }
        }
    }
    out.push('\n');
    out
}

/// Renders a grid as CSV (`run,predictor,ratio,predictions` rows), for
/// spreadsheet or plotting pipelines.
pub fn grid_to_csv(grid: &GridResult) -> String {
    let mut out = String::from("run,predictor,misprediction_ratio,predictions\n");
    for cell in grid.cells() {
        let _ = writeln!(
            out,
            "{},{},{:.6},{}",
            cell.run, cell.predictor, cell.ratio, cell.predictions
        );
    }
    out
}

/// Renders a `paper vs measured` comparison line for EXPERIMENTS.md-style
/// reporting.
pub fn paper_vs_measured(label: &str, paper: f64, measured: f64) -> String {
    format!(
        "{label:<28} paper {paper:>7} measured {measured:>7}",
        paper = pct(paper),
        measured = pct(measured)
    )
}

/// Renders a horizontal bar chart of (label, ratio) rows, the textual
/// analogue of the paper's Figure 6/7 bars.
pub fn bar_chart(rows: &[(String, f64)], max_width: usize) -> String {
    let max = rows.iter().map(|(_, r)| *r).fold(f64::EPSILON, f64::max);
    let mut out = String::new();
    for (label, ratio) in rows {
        let width = ((ratio / max) * max_width as f64).round() as usize;
        let _ = writeln!(
            out,
            "{label:<16} {bar:<max_width$} {pct}",
            bar = "#".repeat(width),
            pct = pct(*ratio)
        );
    }
    out
}

/// Serializes a [`RunResult`] as compact JSON.
///
/// Schema: `{"predictor":str,"predictions":u64,"mispredictions":u64,`
/// `"per_branch":[{"pc":u64,"predictions":u64,"mispredictions":u64}]}`
/// with `per_branch` sorted by `pc`, so output is byte-stable.
pub fn run_result_to_json(result: &RunResult) -> String {
    let per_branch = result
        .branches()
        .into_iter()
        .map(|(pc, predictions, mispredictions)| {
            Json::obj([
                ("pc", Json::UInt(pc.raw())),
                ("predictions", Json::UInt(predictions)),
                ("mispredictions", Json::UInt(mispredictions)),
            ])
        })
        .collect();
    Json::obj([
        ("predictor", Json::Str(result.predictor().to_string())),
        ("predictions", Json::UInt(result.predictions())),
        ("mispredictions", Json::UInt(result.mispredictions())),
        ("per_branch", Json::Arr(per_branch)),
    ])
    .emit()
}

fn field<'a>(value: &'a Json, key: &str) -> Result<&'a Json, JsonError> {
    value.get(key).ok_or_else(|| JsonError {
        message: format!("missing field '{key}'"),
        offset: 0,
    })
}

fn uint_field(value: &Json, key: &str) -> Result<u64, JsonError> {
    field(value, key)?.as_u64().ok_or_else(|| JsonError {
        message: format!("field '{key}' is not an unsigned integer"),
        offset: 0,
    })
}

fn str_field(value: &Json, key: &str) -> Result<String, JsonError> {
    Ok(field(value, key)?
        .as_str()
        .ok_or_else(|| JsonError {
            message: format!("field '{key}' is not a string"),
            offset: 0,
        })?
        .to_string())
}

fn num_field(value: &Json, key: &str) -> Result<f64, JsonError> {
    field(value, key)?.as_f64().ok_or_else(|| JsonError {
        message: format!("field '{key}' is not a number"),
        offset: 0,
    })
}

fn arr_field<'a>(value: &'a Json, key: &str) -> Result<&'a [Json], JsonError> {
    field(value, key)?.as_arr().ok_or_else(|| JsonError {
        message: format!("field '{key}' is not an array"),
        offset: 0,
    })
}

/// Parses the JSON emitted by [`run_result_to_json`].
///
/// # Errors
///
/// Returns a [`JsonError`] for malformed JSON or a missing/mistyped
/// field.
pub fn run_result_from_json(text: &str) -> Result<RunResult, JsonError> {
    let value = Json::parse(text)?;
    let mut per_branch = Vec::new();
    for site in arr_field(&value, "per_branch")? {
        per_branch.push((
            uint_field(site, "pc")?,
            (
                uint_field(site, "predictions")?,
                uint_field(site, "mispredictions")?,
            ),
        ));
    }
    Ok(RunResult::from_parts(
        str_field(&value, "predictor")?,
        uint_field(&value, "predictions")?,
        uint_field(&value, "mispredictions")?,
        per_branch,
    ))
}

/// Serializes a [`GridResult`] as compact JSON.
///
/// Schema: `{"predictors":[str],"runs":[str],"cells":[{"run":str,`
/// `"predictor":str,"ratio":f64,"predictions":u64}]}` in grid order.
pub fn grid_to_json(grid: &GridResult) -> String {
    let strings = |items: &[String]| {
        Json::Arr(items.iter().map(|s| Json::Str(s.clone())).collect())
    };
    let cells = grid
        .cells()
        .iter()
        .map(|c| {
            Json::obj([
                ("run", Json::Str(c.run.clone())),
                ("predictor", Json::Str(c.predictor.clone())),
                ("ratio", Json::Num(c.ratio)),
                ("predictions", Json::UInt(c.predictions)),
            ])
        })
        .collect();
    Json::obj([
        ("predictors", strings(grid.predictors())),
        ("runs", strings(grid.runs())),
        ("cells", Json::Arr(cells)),
    ])
    .emit()
}

/// Parses the JSON emitted by [`grid_to_json`].
///
/// # Errors
///
/// Returns a [`JsonError`] for malformed JSON or a missing/mistyped
/// field.
pub fn grid_from_json(text: &str) -> Result<GridResult, JsonError> {
    let value = Json::parse(text)?;
    let strings = |key: &str| -> Result<Vec<String>, JsonError> {
        arr_field(&value, key)?
            .iter()
            .map(|s| {
                s.as_str().map(str::to_string).ok_or_else(|| JsonError {
                    message: format!("'{key}' contains a non-string"),
                    offset: 0,
                })
            })
            .collect()
    };
    let predictors = strings("predictors")?;
    let runs = strings("runs")?;
    let mut cells = Vec::new();
    for cell in arr_field(&value, "cells")? {
        cells.push(GridCell {
            run: str_field(cell, "run")?,
            predictor: str_field(cell, "predictor")?,
            ratio: num_field(cell, "ratio")?,
            predictions: uint_field(cell, "predictions")?,
        });
    }
    Ok(GridResult::from_parts(predictors, runs, cells))
}

/// Serializes a [`TraceStats`] summary as compact JSON (Table 1 columns
/// plus per-site profiles, sorted by PC).
pub fn stats_to_json(stats: &TraceStats) -> String {
    let mut sites: Vec<_> = stats.profiles().collect();
    sites.sort_by_key(|(pc, _)| pc.raw());
    let sites = sites
        .into_iter()
        .map(|(pc, p)| {
            Json::obj([
                ("pc", Json::UInt(pc.raw())),
                ("executions", Json::UInt(p.executions())),
                ("distinct_targets", Json::UInt(p.distinct_targets() as u64)),
                ("dominant_target_ratio", Json::Num(p.dominant_target_ratio())),
                ("change_rate", Json::Num(p.change_rate())),
            ])
        })
        .collect();
    Json::obj([
        ("total_instructions", Json::UInt(stats.total_instructions())),
        ("total_branches", Json::UInt(stats.total_branches())),
        ("conditional", Json::UInt(stats.conditional())),
        (
            "unconditional_direct",
            Json::UInt(stats.unconditional_direct()),
        ),
        ("returns", Json::UInt(stats.returns())),
        ("st_indirect", Json::UInt(stats.st_indirect())),
        ("mt_jmp", Json::UInt(stats.mt_jmp())),
        ("mt_jsr", Json::UInt(stats.mt_jsr())),
        ("sites", Json::Arr(sites)),
    ])
    .emit()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compare::compare_grid;
    use crate::zoo::PredictorKind;
    use ibp_workloads::paper_suite;

    #[test]
    fn pct_matches_paper_style() {
        assert_eq!(pct(0.0947), "9.47%");
        assert_eq!(pct(1.0), "100.00%");
    }

    #[test]
    fn render_grid_contains_all_labels() {
        let runs = &paper_suite()[..2];
        let grid = compare_grid(&[PredictorKind::Btb, PredictorKind::TcPib], runs, 0.01);
        let text = render_grid(&grid);
        assert!(text.contains("BTB"));
        assert!(text.contains("TC-PIB"));
        assert!(text.contains("MEAN"));
        for run in grid.runs() {
            assert!(text.contains(run.as_str()));
        }
        // One header + one line per run + the mean line.
        assert_eq!(text.lines().count(), 2 + grid.runs().len());
    }

    #[test]
    fn csv_has_header_and_all_cells() {
        let runs = &paper_suite()[..2];
        let grid = compare_grid(&[PredictorKind::Btb], runs, 0.01);
        let csv = grid_to_csv(&grid);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "run,predictor,misprediction_ratio,predictions");
        assert_eq!(lines.len(), 1 + grid.cells().len());
        assert!(lines[1].starts_with(&format!("{},BTB,", grid.runs()[0])));
    }

    #[test]
    fn paper_vs_measured_format() {
        let line = paper_vs_measured("PPM-hyb mean", 0.0947, 0.1012);
        assert!(line.contains("9.47%"));
        assert!(line.contains("10.12%"));
    }

    #[test]
    fn bar_chart_scales_to_max() {
        let rows = vec![("a".to_string(), 0.5), ("b".to_string(), 0.25)];
        let chart = bar_chart(&rows, 20);
        let lines: Vec<&str> = chart.lines().collect();
        assert_eq!(lines.len(), 2);
        let hashes = |s: &str| s.matches('#').count();
        assert_eq!(hashes(lines[0]), 20);
        assert_eq!(hashes(lines[1]), 10);
    }
}
