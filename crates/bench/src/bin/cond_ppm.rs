//! §3 companion — conditional-branch PPM against classic direction
//! predictors, on the suite's conditional streams.
//!
//! The paper introduces PPM through conditional branches (after Chen,
//! Coffey & Mudge) before adapting it to indirect targets. This binary
//! runs that conditional PPM (the table-based hardware emulation) against
//! bimodal and gshare on the direction streams the workload models
//! actually generate, per conditional site.
//!
//! Usage: `cargo run --release -p ibp-bench --bin cond_ppm [scale]`

use ibp_bench::figure_args;
use ibp_isa::BranchClass;
use ibp_ppm::conditional::TablePpm;
use ibp_predictors::conditional::{direction_accuracy, Bimodal, Gshare};
use ibp_workloads::paper_suite;

fn main() {
    let scale = figure_args("cond_ppm [scale]", 0.25, &[], &[]).scale;
    println!("=== §3 companion: conditional direction prediction (scale {scale}) ===\n");
    println!(
        "{:<12} {:>10} {:>10} {:>12} {:>12}",
        "run", "branches", "bimodal", "gshare(12)", "PPM(order 8)"
    );
    let mut sums = [0.0f64; 3];
    let runs = paper_suite();
    for run in &runs {
        let trace = run.generate_scaled(scale);
        let stream: Vec<_> = trace
            .iter()
            .filter(|e| matches!(e.class(), BranchClass::ConditionalDirect))
            .map(|e| (e.pc(), e.taken()))
            .collect();
        let acc_bimodal = direction_accuracy(&mut Bimodal::new(4096), stream.iter().copied());
        let acc_gshare = direction_accuracy(&mut Gshare::new(4096, 12), stream.iter().copied());
        // The conditional PPM is global-history based; feed it the
        // interleaved direction stream.
        let mut ppm = TablePpm::new(8);
        let acc_ppm = ppm.accuracy(stream.iter().map(|&(_, taken)| taken));
        println!(
            "{:<12} {:>10} {:>9.2}% {:>11.2}% {:>11.2}%",
            run.label(),
            stream.len(),
            acc_bimodal * 100.0,
            acc_gshare * 100.0,
            acc_ppm * 100.0
        );
        sums[0] += acc_bimodal;
        sums[1] += acc_gshare;
        sums[2] += acc_ppm;
    }
    let n = runs.len() as f64;
    println!(
        "\nmeans: bimodal {:.2}%, gshare {:.2}%, conditional PPM {:.2}%",
        sums[0] / n * 100.0,
        sums[1] / n * 100.0,
        sums[2] / n * 100.0
    );
    println!(
        "(the PPM sees only the global direction stream, no PC — it wins\n\
         when patterns are global, loses to gshare when per-branch identity\n\
         matters; Chen et al.'s point was the structural equivalence)"
    );
}
