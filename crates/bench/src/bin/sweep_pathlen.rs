//! A4 — path-length sensitivity of the two-level baselines.
//!
//! §5: "the sensitivity of the TC, GAp, Dpath and Cascade predictors on
//! the path length was not addressed." This ablation sweeps the history
//! depth of GAp and the Target Cache and the (short,long) path lengths of
//! the dual-path hybrid.
//!
//! Usage: `cargo run --release -p ibp-bench --bin sweep_pathlen [scale]`.
//! `IBP_THREADS=n` pins the pool size.

use ibp_bench::figure_args;
use ibp_exec::Executor;
use ibp_predictors::{
    DualPath, DualPathConfig, GApConfig, GApPredictor, HistoryGroup, IndirectPredictor,
    TargetCache, TargetCacheConfig,
};
use ibp_sim::report::pct;
use ibp_sim::simulate;
use ibp_trace::Trace;
use ibp_workloads::paper_suite;

/// Mean misprediction ratio of one predictor config over the suite.
struct Sweep<'a> {
    exec: &'a Executor,
    traces: &'a [Trace],
}

impl Sweep<'_> {
    fn line(&self, label: &str, build: impl Fn() -> Box<dyn IndirectPredictor> + Sync) {
        let ratios = self.exec.map(self.traces, |_, trace| {
            let mut p = build();
            simulate(p.as_mut(), trace).misprediction_ratio()
        });
        let mean = ratios.iter().sum::<f64>() / self.traces.len() as f64;
        println!("  {label} {}", pct(mean));
    }
}

fn main() {
    let scale = figure_args("sweep_pathlen [scale]", 0.25, &[], &[]).scale;
    let exec = Executor::from_env();
    let suite = paper_suite();
    let traces: Vec<Trace> = exec.map(&suite, |_, r| r.generate_scaled(scale));
    let sweep = Sweep {
        exec: &exec,
        traces: &traces,
    };

    println!("=== A4: path-length sensitivity (means over the suite, scale {scale}) ===\n");

    println!("GAp: path length (2 bits per target)");
    for p in [1usize, 2, 3, 5, 8, 10] {
        sweep.line(&format!("p={p:<3}"), || {
            Box::new(GApPredictor::new(GApConfig {
                path_length: p,
                ..GApConfig::paper()
            }))
        });
    }

    println!("\nTarget Cache (PIB): history bits");
    for bits in [5u32, 8, 11, 14, 18] {
        sweep.line(&format!("h={bits:<3}"), || {
            Box::new(TargetCache::new(TargetCacheConfig {
                history_bits: bits,
                ..TargetCacheConfig::paper_pib()
            }))
        });
    }

    println!("\nDual-path: (short, long) path lengths");
    for (ps, pl) in [(1usize, 2usize), (1, 3), (2, 4), (3, 6), (4, 8), (6, 12)] {
        sweep.line(&format!("({ps},{pl}) "), || {
            Box::new(DualPath::new(DualPathConfig {
                path_lengths: (ps, pl),
                ..DualPathConfig::paper()
            }))
        });
    }

    println!("\nTarget Cache history group (Chang et al.'s dimension):");
    for group in [
        HistoryGroup::AllIndirect,
        HistoryGroup::AllBranches,
        HistoryGroup::MtIndirect,
        HistoryGroup::CallsReturns,
    ] {
        sweep.line(&format!("{group:<4}"), || {
            Box::new(TargetCache::new(TargetCacheConfig {
                group,
                ..TargetCacheConfig::paper_pib()
            }))
        });
    }
}
