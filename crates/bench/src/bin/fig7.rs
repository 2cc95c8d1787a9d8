//! Figure 7 — misprediction ratios of the three PPM variants across the
//! benchmark suite.
//!
//! Paper reference points: PPM-PIB (single table access) improves on
//! PPM-hyb only where branches are efficiently predicted from PIB history
//! alone — eon, perl and both ixx runs; PPM-hyb-biased eliminates the
//! weak-state oscillation on those same runs and wins there, while the
//! plain hybrid stays ahead on the PB-correlated rest.
//!
//! Usage: `cargo run --release -p ibp-bench --bin fig7 [scale] [--csv]
//! [--budget <bits>] [--metrics <path>]` — `--budget` sizes the three
//! variants to the largest configuration fitting the given storage-bit
//! budget (equal-bits instead of equal-entries; combines with `--csv`
//! only); `--metrics` evaluates the grid with recording probes attached
//! and writes the per-cell metrics JSON (identical prediction results,
//! plus telemetry).

use ibp_bench::figure_args;
use ibp_sim::report::{grid_to_csv, render_grid};
use ibp_sim::{
    compare_grid, compare_grid_at_bits, metrics_grid, metrics_to_json, Executor, PredictorKind,
};
use ibp_workloads::paper_suite;

fn main() {
    let args = figure_args(
        "fig7 [scale] [--csv] [--budget <bits>] [--metrics <path>]",
        1.0,
        &["--csv"],
        &["--budget", "--metrics"],
    );
    let budget_bits = args.value("--budget").map(|b| {
        b.parse::<u64>().unwrap_or_else(|_| {
            eprintln!("--budget needs a storage budget in bits");
            std::process::exit(2);
        })
    });
    let metrics_path = args.value("--metrics");
    let csv = args.has("--csv");
    let scale = args.scale;
    let runs = paper_suite();
    let kinds = PredictorKind::figure7();
    if let Some(bits) = budget_bits {
        if metrics_path.is_some() {
            eprintln!("--budget combines with --csv only (not --metrics)");
            std::process::exit(2);
        }
        let grid = compare_grid_at_bits(&Executor::from_env(), &kinds, &runs, scale, bits);
        if csv {
            print!("{}", grid_to_csv(&grid));
            return;
        }
        println!("=== Figure 7 at equal bits ({bits} bits, scale {scale}) ===\n");
        print!("{}", render_grid(&grid));
        return;
    }
    let grid = if let Some(path) = &metrics_path {
        let (grid, metrics) = metrics_grid(&kinds, &runs, scale);
        let json = metrics_to_json(&metrics);
        if let Err(e) = std::fs::write(path, &json) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("metrics written to {path}");
        grid
    } else {
        compare_grid(&kinds, &runs, scale)
    };
    if csv {
        print!("{}", grid_to_csv(&grid));
        return;
    }

    println!("=== Figure 7: PPM variant misprediction ratios (scale {scale}) ===\n");
    print!("{}", render_grid(&grid));

    println!("\n--- paper shape checks ---");
    let pib_better_runs = ["eon.chair", "perl.std", "ixx.lay", "ixx.wid"];
    for run in &pib_better_runs {
        let hyb = grid.ratio(run, "PPM-hyb").unwrap_or(f64::NAN);
        let pib = grid.ratio(run, "PPM-PIB").unwrap_or(f64::NAN);
        let biased = grid.ratio(run, "PPM-hyb-biased").unwrap_or(f64::NAN);
        println!(
            "{run:<12} hyb {:.2}%  pib {:.2}%  biased {:.2}%   (paper: pib <= hyb, biased best-ish)",
            hyb * 100.0,
            pib * 100.0,
            biased * 100.0
        );
    }
    let pib_wins = pib_better_runs
        .iter()
        .filter(|r| {
            grid.ratio(r, "PPM-PIB").unwrap_or(1.0) <= grid.ratio(r, "PPM-hyb").unwrap_or(0.0)
        })
        .count();
    println!("\nPIB-or-biased favored runs where PPM-PIB <= PPM-hyb: {pib_wins}/4");
    let hyb_better_elsewhere = grid
        .runs()
        .iter()
        .filter(|r| !pib_better_runs.contains(&r.as_str()))
        .filter(|r| {
            grid.ratio(r, "PPM-hyb").unwrap_or(1.0) <= grid.ratio(r, "PPM-PIB").unwrap_or(0.0)
        })
        .count();
    println!(
        "runs outside that set where PPM-hyb <= PPM-PIB: {hyb_better_elsewhere}/{}",
        grid.runs().len() - pib_better_runs.len()
    );
}
