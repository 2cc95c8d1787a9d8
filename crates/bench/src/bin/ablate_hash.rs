//! A5 — SFSXS indexing choices.
//!
//! §4: "An alternative solution would select the i low order bits. From
//! simulation results, we found little difference in the misprediction
//! ratios when comparing these two schemes" — this ablation reproduces
//! that comparison (high- versus low-order signature select) and adds a
//! gshare-indexed PPM stack for reference.
//!
//! Usage: `cargo run --release -p ibp-bench --bin ablate_hash [scale]`

use ibp_bench::figure_args;
use ibp_ppm::{IndexScheme, PpmHybrid, SelectorKind, StackConfig};
use ibp_sim::report::pct;
use ibp_sim::simulate;
use ibp_workloads::paper_suite;

fn main() {
    let scale = figure_args("ablate_hash [scale]", 0.25, &[], &[]).scale;
    println!("=== A5: PPM index generation variants (scale {scale}) ===\n");
    println!(
        "{:<12} {:>14} {:>12} {:>14}",
        "run", "SFSXS (paper)", "SFSXS-low", "gshare [4,8]"
    );
    let mut sums = (0.0f64, 0.0f64, 0.0f64);
    let runs = paper_suite();
    for run in &runs {
        let trace = run.generate_scaled(scale);
        let mut high = PpmHybrid::paper();
        let r1 = simulate(&mut high, &trace);
        let mut low = PpmHybrid::new(
            StackConfig {
                low_bit_select: true,
                ..StackConfig::paper()
            },
            SelectorKind::Normal,
        );
        let r2 = simulate(&mut low, &trace);
        let mut gshare = PpmHybrid::new(
            StackConfig {
                index_scheme: IndexScheme::GsharePerOrder,
                ..StackConfig::paper()
            },
            SelectorKind::Normal,
        );
        let r3 = simulate(&mut gshare, &trace);
        println!(
            "{:<12} {:>14} {:>12} {:>14}",
            run.label(),
            pct(r1.misprediction_ratio()),
            pct(r2.misprediction_ratio()),
            pct(r3.misprediction_ratio())
        );
        sums.0 += r1.misprediction_ratio();
        sums.1 += r2.misprediction_ratio();
        sums.2 += r3.misprediction_ratio();
    }
    let n = runs.len() as f64;
    println!(
        "\nmeans: SFSXS {} vs low-select {} vs gshare {}\n\
         (the paper found \"little difference\" between the two selects and\n\
         replaced its predecessors' gshare with SFSXS; gshare mixes the PC\n\
         in, trading cross-branch aliasing for per-branch capacity)",
        pct(sums.0 / n),
        pct(sums.1 / n),
        pct(sums.2 / n)
    );
}
