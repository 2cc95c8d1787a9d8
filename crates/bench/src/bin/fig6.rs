//! Figure 6 — misprediction ratios of seven indirect-branch predictors at
//! the 2K-entry budget, across the full benchmark suite.
//!
//! Paper reference points (means across the suite): PPM-hyb 9.47%,
//! Cascade 11.48%, TC-PIB 13.0%; BTB/BTB2b far behind; TC-PIB is the only
//! scheme beating PPM on photon (0.95% vs 1.35%).
//!
//! Usage: `cargo run --release -p ibp-bench --bin fig6 [scale] [--csv]
//! [--budget <bits>] [--metrics <path>]`
//! (scale defaults to 1.0 = the full trace size; `--csv` emits the grid
//! as CSV on stdout instead of the formatted tables; `--budget` sizes
//! every predictor to the largest configuration fitting the given
//! storage-bit budget — equal-bits instead of the paper's equal-entries
//! — and adds the faithful ITTAGE at the matching preset when one fits;
//! `--metrics` evaluates the grid with recording probes attached and
//! writes the per-cell metrics JSON — same prediction results, plus
//! telemetry; `--budget` combines with `--csv` only).
//! The grid runs on the work-stealing pool; `IBP_THREADS=n` pins the
//! pool size, and the output — metrics included — is bit-identical for
//! every `n`.

use ibp_bench::figure_args;
use ibp_sim::report::{grid_to_csv, paper_vs_measured, render_grid};
use ibp_sim::{
    compare_grid, compare_grid_at_bits, metrics_grid, metrics_to_json, Executor, PredictorKind,
};
use ibp_workloads::paper_suite;

fn main() {
    let args = figure_args(
        "fig6 [scale] [--csv] [--budget <bits>] [--metrics <path>]",
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
    let mut kinds = PredictorKind::figure6();
    if let Some(bits) = budget_bits {
        if metrics_path.is_some() {
            eprintln!("--budget combines with --csv only (not --metrics)");
            std::process::exit(2);
        }
        // At an equal-bits budget the faithful ITTAGE joins the lineup at
        // the largest preset that fits (the epilogue comparison, inline).
        for kb in [64u8, 16, 8] {
            if u64::from(kb) * 8 * 1024 <= bits {
                kinds.push(PredictorKind::Ittage64(kb));
                break;
            }
        }
        let grid = compare_grid_at_bits(&Executor::from_env(), &kinds, &runs, scale, bits);
        if csv {
            print!("{}", grid_to_csv(&grid));
            return;
        }
        println!("=== Figure 6 at equal bits ({bits} bits, scale {scale}) ===\n");
        print!("{}", render_grid(&grid));
        println!("\n--- predictor means, ranked (lower is better) ---");
        for (name, ratio) in grid.ranking() {
            println!("{name:<14} {:.2}%", ratio * 100.0);
        }
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

    println!("=== Figure 6: misprediction ratios (2K-entry budget, scale {scale}) ===\n");
    print!("{}", render_grid(&grid));

    println!("\n--- predictor means, ranked (lower is better) ---");
    for (name, ratio) in grid.ranking() {
        println!("{name:<14} {:.2}%", ratio * 100.0);
    }

    println!("\n--- paper vs measured (means) ---");
    for (name, paper) in [("PPM-hyb", 0.0947), ("Cascade", 0.1148), ("TC-PIB", 0.1300)] {
        if let Some(m) = grid.mean_ratio(name) {
            println!("{}", paper_vs_measured(name, paper, m));
        }
    }

    println!("\n--- photon check (paper: TC-PIB 0.95%, PPM-hyb 1.35%) ---");
    for p in ["TC-PIB", "PPM-hyb"] {
        if let Some(r) = grid.ratio("photon.dia", p) {
            println!("photon.dia {p:<10} {:.2}%", r * 100.0);
        }
    }
}
