//! A3 — most-recent-target entries versus the idealized Markov model.
//!
//! §4: the original Markov model "requires storing multiple targets per
//! PHT entry along with their frequency counts, and uses a majority
//! voting mechanism to select the next target. Instead we store the most
//! recently visited target". This ablation quantifies what that hardware
//! approximation costs by comparing the paper's PPM-hyb against the
//! unbounded frequency-voting PPM (alias-free, majority vote, escape).
//!
//! Usage: `cargo run --release -p ibp-bench --bin ablate_ideal [scale]`

use ibp_bench::figure_args;
use ibp_ppm::{IdealPpm, PpmHybrid};
use ibp_sim::report::pct;
use ibp_sim::simulate;
use ibp_workloads::paper_suite;

fn main() {
    let scale = figure_args("ablate_ideal [scale]", 0.25, &[], &[]).scale;
    println!("=== A3: hardware PPM vs idealized frequency-voting PPM (scale {scale}) ===\n");
    println!(
        "{:<12} {:>12} {:>12} {:>10}",
        "run", "PPM-hyb", "PPM-ideal", "gap"
    );
    let mut sums = (0.0f64, 0.0f64);
    let runs = paper_suite();
    for run in &runs {
        let trace = run.generate_scaled(scale);
        let mut hw = PpmHybrid::paper();
        let r1 = simulate(&mut hw, &trace);
        let mut ideal = IdealPpm::new(10);
        let r2 = simulate(&mut ideal, &trace);
        println!(
            "{:<12} {:>12} {:>12} {:>9.2}%",
            run.label(),
            pct(r1.misprediction_ratio()),
            pct(r2.misprediction_ratio()),
            (r1.misprediction_ratio() - r2.misprediction_ratio()) * 100.0
        );
        sums.0 += r1.misprediction_ratio();
        sums.1 += r2.misprediction_ratio();
    }
    let n = runs.len() as f64;
    println!(
        "\nmeans: hardware {} vs ideal {} — the gap is the combined cost of\n\
         finite tagless tables, SFSXS folding, most-recent-target entries\n\
         and 2-bit update hysteresis",
        pct(sums.0 / n),
        pct(sums.1 / n)
    );
}
