//! The phase-sampling differential wall (see DESIGN.md §13): on every
//! run in the paper suite, the weighted representative estimate must
//! track the full simulation within the hard error gate — the same
//! ≤ 0.5 pp absolute bound the full-scale committed report
//! (`results/simpoint_validation.txt`, regenerated by `simbench` under
//! verify.sh) holds. This in-tree copy runs at a
//! reduced trace scale with a proportionally smaller window so the
//! whole 15-run differential stays fast in debug builds; the estimator
//! configuration scales with it (same cluster count and stratification,
//! warmup covering the same fraction of the stream).

use ibp_exec::Executor;
use ibp_sim::{simpoint_trace, PredictorKind, SimPointConfig};
use ibp_workloads::paper_suite;

const SCALE: f64 = 0.1;
const GATE_PP: f64 = 0.5;

fn cfg() -> SimPointConfig {
    SimPointConfig {
        window: 512,
        warmup_windows: 48,
        strata: 8,
        ..SimPointConfig::default()
    }
}

#[test]
fn weighted_estimate_tracks_full_run_on_every_suite_run() {
    let exec = Executor::new(2);
    let cfg = cfg();
    let mut worst = 0.0f64;
    let mut worst_run = String::new();
    for run in paper_suite() {
        let trace = run.generate_scaled(SCALE);
        let full = PredictorKind::PpmHyb.simulate_events(2048, trace.iter().copied());
        let sampled = simpoint_trace(PredictorKind::PpmHyb, 2048, &trace, &cfg, &exec);
        let err =
            (sampled.estimate.misprediction_ratio() - full.misprediction_ratio()).abs() * 100.0;
        println!(
            "{:<12} full {:>7.3}% est {:>7.3}% err {:.3}pp",
            run.label(),
            full.misprediction_ratio() * 100.0,
            sampled.estimate.misprediction_ratio() * 100.0,
            err
        );
        if err > worst {
            worst = err;
            worst_run = run.label();
        }
        assert!(
            err <= GATE_PP,
            "{}: weighted estimate off by {err:.3}pp (gate {GATE_PP}pp)",
            run.label()
        );
        // On runs with more windows than sampling units the estimate
        // must come from a real sampling, not a full replay. (Short runs
        // degenerate to one unit per window, which measures everything —
        // and is then exact by construction.)
        if sampled.phases.windows() > sampled.phases.clusters.len() {
            assert!(
                sampled.events_measured < trace.len() as u64,
                "{}: sampling measured the whole stream",
                run.label()
            );
        }
    }
    println!("worst |err|: {worst:.3}pp ({worst_run})");
}
