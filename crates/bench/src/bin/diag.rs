//! Diagnostic: per-behaviour misprediction attribution for one benchmark
//! run — development tooling for tuning the workload personalities.
//!
//! Usage: `cargo run --release -p ibp-bench --bin diag -- [run-label] [scale]`
//! (`perl.std` at scale 0.25 by default)

use ibp_bench::{exit_usage, parse_figure_args};
use ibp_sim::{simulate, PredictorKind};
use ibp_workloads::paper_suite;
use std::collections::BTreeMap;

const USAGE: &str = "diag [run-label] [scale]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (label, rest) = match args.split_first() {
        Some((label, rest)) => (label.as_str(), rest),
        None => ("perl.std", &[][..]),
    };
    let scale = parse_figure_args(rest, 0.25, &[], &[])
        .unwrap_or_else(|e| exit_usage(&e, USAGE))
        .scale;
    let run = paper_suite()
        .into_iter()
        .find(|r| r.label() == label)
        .unwrap_or_else(|| exit_usage(&format!("unknown run {label:?}"), USAGE));
    let model = run.spec().build();
    let site_map: BTreeMap<u64, String> = model
        .site_descriptions()
        .into_iter()
        .map(|(pc, desc)| (pc.raw(), desc))
        .collect();
    let trace = run.generate_scaled(scale);
    println!(
        "=== {} (scale {scale}, {} MT branches) ===",
        label,
        trace.stats().mt_indirect()
    );

    let mut kinds = PredictorKind::figure6();
    kinds.extend(PredictorKind::figure7().into_iter().skip(1));
    for kind in kinds {
        let mut p = kind.build();
        let result = simulate(p.as_mut(), &trace);
        // Aggregate per behaviour label.
        let mut agg: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
        for (pc, preds, misses) in result.branches() {
            let desc = site_map.get(&pc.raw()).map(String::as_str).unwrap_or("?");
            let e = agg.entry(desc).or_insert((0, 0));
            e.0 += preds;
            e.1 += misses;
        }
        println!(
            "\n{:<16} overall {:.2}%",
            result.predictor(),
            result.misprediction_ratio() * 100.0
        );
        for (desc, (preds, misses)) in agg {
            println!(
                "  {:<24} {:>9} preds  {:>8} miss  {:>7.2}%",
                desc,
                preds,
                misses,
                misses as f64 / preds.max(1) as f64 * 100.0
            );
        }
    }
}
