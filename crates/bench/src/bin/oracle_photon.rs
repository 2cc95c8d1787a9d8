//! E5 — oracle predictability of photon.
//!
//! §5 of the paper: "an oracle predictor recording complete PIB path
//! history was able to achieve 99.1% accuracy when using a path length of
//! 8" on photon. This binary sweeps the path length of the complete-path
//! oracle on photon (and prints the suite-wide view at length 8).
//!
//! Usage: `cargo run --release -p ibp-bench --bin oracle_photon [scale]`

use ibp_bench::figure_args;
use ibp_sim::{simulate, PredictorKind};
use ibp_workloads::paper_suite;

fn main() {
    let scale = figure_args("oracle_photon [scale]", 1.0, &[], &[]).scale;
    let photon = paper_suite()
        .into_iter()
        .find(|r| r.spec().name == "photon")
        .expect("photon is in the suite");
    let trace = if (scale - 1.0).abs() < f64::EPSILON {
        photon.generate()
    } else {
        photon.generate_scaled(scale)
    };

    println!("=== E5: complete-PIB-path oracle on photon (scale {scale}) ===\n");
    println!("{:<6} {:>10} {:>12}", "path", "accuracy", "mispredict");
    for depth in [1u8, 2, 3, 4, 6, 8, 10, 12] {
        let mut oracle = PredictorKind::OraclePib(depth).build();
        let r = simulate(oracle.as_mut(), &trace);
        println!(
            "{:<6} {:>9.2}% {:>11.2}%",
            depth,
            (1.0 - r.misprediction_ratio()) * 100.0,
            r.misprediction_ratio() * 100.0
        );
    }
    let mut oracle8 = PredictorKind::OraclePib(8).build();
    let acc8 = 1.0 - simulate(oracle8.as_mut(), &trace).misprediction_ratio();
    println!(
        "\npaper: 99.1% accuracy at path length 8; measured: {:.2}%",
        acc8 * 100.0
    );

    println!("\n--- suite-wide oracle accuracy at path length 8 ---");
    for run in paper_suite() {
        let t = run.generate_scaled(scale.min(0.25));
        let mut oracle = PredictorKind::OraclePib(8).build();
        let r = simulate(oracle.as_mut(), &t);
        println!(
            "{:<12} {:>8.2}%",
            run.label(),
            (1.0 - r.misprediction_ratio()) * 100.0
        );
    }
}
