//! The compression↔prediction bridge, measured.
//!
//! The paper's premise is that branch prediction *is* data compression:
//! "the performance of a data compression technique relies heavily on the
//! predictor accuracy" (§3), and PPM moved from one field to the other.
//! This binary closes the loop: it compresses each run's measured
//! indirect-target stream with the PPM *byte* compressor from
//! `ibp-compress` and sets the resulting bits-per-branch against the
//! PPM *branch* predictor's misprediction ratio. Compressible streams
//! should be predictable streams, and vice versa.
//!
//! Usage: `cargo run --release -p ibp-bench --bin trace_entropy [scale]`

use ibp_bench::figure_args;
use ibp_compress::Ppm;
use ibp_ppm::PpmHybrid;
use ibp_sim::simulate;
use ibp_workloads::paper_suite;

fn main() {
    let scale = figure_args("trace_entropy [scale]", 0.1, &[], &[]).scale;
    println!("=== branch streams under the PPM *compressor* (scale {scale}) ===\n");
    println!(
        "{:<12} {:>10} {:>14} {:>16}",
        "run", "branches", "bits/branch", "PPM-hyb misses"
    );
    let mut rows: Vec<(String, f64, f64)> = Vec::new();
    for run in paper_suite() {
        let trace = run.generate_scaled(scale);
        // The target stream a predictor must model: one byte per MT
        // indirect branch, identifying the taken target (low bits are the
        // informative ones after alignment).
        let stream: Vec<u8> = trace
            .predicted_indirect()
            .map(|e| (e.target().path_bits() & 0xFF) as u8)
            .collect();
        let bpb = Ppm::new(3).bits_per_byte(&stream);
        let mut ppm = PpmHybrid::paper();
        let miss = simulate(&mut ppm, &trace).misprediction_ratio();
        println!(
            "{:<12} {:>10} {:>14.3} {:>15.2}%",
            run.label(),
            stream.len(),
            bpb,
            miss * 100.0
        );
        rows.push((run.label(), bpb, miss));
    }
    // Rank correlation between compressibility and predictability.
    let n = rows.len() as f64;
    let rank = |values: Vec<f64>| -> Vec<f64> {
        let mut idx: Vec<usize> = (0..values.len()).collect();
        idx.sort_by(|&a, &b| values[a].partial_cmp(&values[b]).expect("finite"));
        let mut ranks = vec![0.0; values.len()];
        for (r, &i) in idx.iter().enumerate() {
            ranks[i] = r as f64;
        }
        ranks
    };
    let ra = rank(rows.iter().map(|r| r.1).collect());
    let rb = rank(rows.iter().map(|r| r.2).collect());
    let d2: f64 = ra.iter().zip(&rb).map(|(a, b)| (a - b) * (a - b)).sum();
    let spearman = 1.0 - 6.0 * d2 / (n * (n * n - 1.0));
    println!(
        "\nSpearman rank correlation (bits/branch vs misprediction): {spearman:.2}\n\
         — the compressor and the predictor agree on which programs are hard,\n\
         which is the paper's §3 premise made quantitative."
    );
}
