//! A2 — tagged versus tagless Markov tables.
//!
//! §6: "we plan to ... simulate a tagged version of the PPM predictor",
//! expecting tags to allow "better exploitation of variable length path
//! correlation" and a fairer comparison with the tagged Cascade. This
//! ablation runs PPM-hyb with tagless (paper) and tagged Markov entries
//! and reports both accuracy and the per-order access distribution shift.
//!
//! Usage: `cargo run --release -p ibp-bench --bin ablate_tags [scale]`

use ibp_bench::figure_args;
use ibp_ppm::{PpmHybrid, SelectorKind, StackConfig};
use ibp_sim::report::pct;
use ibp_sim::simulate;
use ibp_workloads::paper_suite;

fn main() {
    let scale = figure_args("ablate_tags [scale]", 0.25, &[], &[]).scale;
    println!("=== A2: tagless vs tagged PPM Markov tables (scale {scale}) ===\n");
    println!(
        "{:<12} {:>10} {:>10} {:>16} {:>16}",
        "run", "tagless", "tagged", "top-order acc%", "top-order acc% (tagged)"
    );
    let mut sums = (0.0f64, 0.0f64);
    let runs = paper_suite();
    for run in &runs {
        let trace = run.generate_scaled(scale);
        let mut tagless = PpmHybrid::paper();
        let r1 = simulate(&mut tagless, &trace);
        let mut tagged = PpmHybrid::new(
            StackConfig {
                tagged: true,
                ..StackConfig::paper()
            },
            SelectorKind::Normal,
        );
        let r2 = simulate(&mut tagged, &trace);
        println!(
            "{:<12} {:>10} {:>10} {:>15.2}% {:>15.2}%",
            run.label(),
            pct(r1.misprediction_ratio()),
            pct(r2.misprediction_ratio()),
            tagless.order_stats().highest_order_access_fraction() * 100.0,
            tagged.order_stats().highest_order_access_fraction() * 100.0,
        );
        sums.0 += r1.misprediction_ratio();
        sums.1 += r2.misprediction_ratio();
    }
    let n = runs.len() as f64;
    println!(
        "\nmeans: tagless {} vs tagged {}",
        pct(sums.0 / n),
        pct(sums.1 / n)
    );
    println!(
        "tags force fallback to lower orders on foreign entries (lower\n\
         top-order access fraction) at the cost of extra storage bits"
    );
}
