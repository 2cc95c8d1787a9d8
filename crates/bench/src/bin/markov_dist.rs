//! E4 — distribution of accesses and misses across Markov components.
//!
//! §5 of the paper: "for all the benchmarks at least 98% of the accesses
//! (and misses) occur in the highest order Markov component", a direct
//! consequence of highest-valid-order selection plus update exclusion.
//! This binary measures the same distribution for PPM-hyb on every run.
//!
//! Usage: `cargo run --release -p ibp-bench --bin markov_dist [scale]`

use ibp_bench::figure_args;
use ibp_ppm::PpmHybrid;
use ibp_sim::simulate;
use ibp_workloads::paper_suite;

fn main() {
    let scale = figure_args("markov_dist [scale]", 1.0, &[], &[]).scale;
    println!("=== E4: Markov component access/miss distribution (PPM-hyb, scale {scale}) ===\n");
    println!(
        "{:<12} {:>12} {:>14} {:>12} {:>12}",
        "run", "accesses", "order-10 acc%", "misses", "order-10 miss%"
    );
    let mut all_ok = true;
    for run in paper_suite() {
        let trace = if (scale - 1.0).abs() < f64::EPSILON {
            run.generate()
        } else {
            run.generate_scaled(scale)
        };
        let mut ppm = PpmHybrid::paper();
        let _ = simulate(&mut ppm, &trace);
        let stats = ppm.order_stats();
        let acc_frac = stats.highest_order_access_fraction();
        let miss_frac = stats.highest_order_miss_fraction();
        println!(
            "{:<12} {:>12} {:>13.2}% {:>12} {:>13.2}%",
            run.label(),
            stats.total_accesses(),
            acc_frac * 100.0,
            stats.total_misses(),
            miss_frac * 100.0
        );
        if acc_frac < 0.98 {
            all_ok = false;
        }
    }
    println!("\npaper: >= 98% of accesses and misses in the highest-order component");
    println!(
        "measured: {} (access fractions above)",
        if all_ok {
            "CONFIRMED on every run"
        } else {
            "see runs below 98%"
        }
    );
}
