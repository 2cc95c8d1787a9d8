//! Epilogue — the 1998 PPM predictor versus its modern descendant, at
//! honest storage budgets.
//!
//! The paper's longest-match-over-multiple-history-lengths structure is
//! the direct ancestor of ITTAGE (Seznec, 2011), which added partial
//! tags, geometric history lengths, usefulness-guided allocation and
//! confidence. This binary runs the paper's best schemes at their §5
//! 2K-entry configurations next to the faithful ITTAGE at its 8/16/64KB
//! presets — and, because "same budget" is the paper's whole
//! experimental discipline, it prints every predictor's true storage
//! cost from the same `report_storage` audit that `bitreport` gates, so
//! the comparison is budget-honest instead of entry-honest.
//!
//! Usage: `cargo run --release -p ibp-bench --bin epilogue_ittage [scale]`

use ibp_bench::figure_args;
use ibp_predictors::PredictorState;
use ibp_sim::report::render_grid;
use ibp_sim::{compare_grid, PredictorKind};
use ibp_workloads::paper_suite;

fn main() {
    let scale = figure_args("epilogue_ittage [scale]", 1.0, &[], &[]).scale;
    let kinds = [
        PredictorKind::Cascade,
        PredictorKind::PpmPib,
        PredictorKind::PpmHyb,
        PredictorKind::PpmHybBiased,
        PredictorKind::IttageLite,
        PredictorKind::Ittage64(8),
        PredictorKind::Ittage64(16),
        PredictorKind::Ittage64(64),
    ];
    let runs = paper_suite();
    let grid = compare_grid(&kinds, &runs, scale);
    println!("=== Epilogue: 1998 PPM vs faithful ITTAGE, budget-honest (scale {scale}) ===\n");
    print!("{}", render_grid(&grid));

    println!("\nranked means, with audited storage (report_storage, bits):");
    for (name, ratio) in grid.ranking() {
        let kind = kinds
            .iter()
            .find(|k| k.label() == name)
            .copied()
            .unwrap_or_else(|| {
                eprintln!("grid produced unknown predictor label {name}");
                std::process::exit(1);
            });
        let p = kind.build();
        let bits = p.report_storage().total_bits();
        println!(
            "  {name:<16} {:>6.2}%   {bits:>7} bits ({:>6.1} KB)",
            ratio * 100.0,
            bits as f64 / 8192.0
        );
    }
    println!(
        "\nThe paper's 2K-entry schemes each spend ~16-26 KB; the faithful\n\
         ITTAGE presets declare their budgets outright and fill them to\n\
         within 1% (gated by `bitreport --check`). Even the 8 KB preset —\n\
         half the storage of any 1998 scheme — beats them all, and the\n\
         three presets land within a few tenths of a point of each other:\n\
         on this suite the working sets fit the smallest tables, so extra\n\
         budget buys aliasing headroom rather than mean accuracy. The win\n\
         is structural, not capacital: partial tags (foreign histories\n\
         miss instead of aliasing), geometric history lengths (1998 used\n\
         linear 1..=10), USE_ALT_ON_NA arbitration, usefulness-guided\n\
         allocation with aging epochs, and confidence-gated replacement."
    );
}
