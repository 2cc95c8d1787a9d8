//! The phase-sampling differential wall (see DESIGN.md §13): on every
//! run in the paper suite, the weighted representative estimate must
//! track the full simulation within the hard error gate — the same
//! ≤ 0.5 pp absolute bound the full-scale committed report
//! (`results/simpoint_validation.txt`, regenerated by `simbench` under
//! verify.sh) holds. This in-tree copy runs each run's stream at a
//! reduced scale with a proportionally smaller window so the whole
//! 15-run differential stays fast in debug builds; the rest of the
//! estimator configuration is the default (same cluster count, warmup
//! and stratification).

use ibp_sim::{simpoint_streamed_chained, stream_prep, PredictorKind, SimPointConfig};
use ibp_workloads::paper_suite;

const SCALE: f64 = 0.1;
const GATE_PP: f64 = 0.5;

fn cfg() -> SimPointConfig {
    SimPointConfig {
        window: 512,
        warmup_windows: 16,
        strata: 16,
        ..SimPointConfig::default()
    }
}

#[test]
fn weighted_estimate_tracks_full_run_on_every_suite_run() {
    let cfg = cfg();
    let mut worst = 0.0f64;
    let mut worst_run = String::new();
    for run in paper_suite() {
        let stream = run.stream();
        let iterations = run.scaled_iterations(SCALE) as u64;
        let full = PredictorKind::PpmHyb.simulate_events(2048, stream.clone().events(iterations));
        let prep = stream_prep(&stream, iterations, &cfg);
        let sampled = simpoint_streamed_chained(PredictorKind::PpmHyb, 2048, &prep, &cfg);
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
                sampled.events_measured < sampled.phases.total_events,
                "{}: sampling measured the whole stream",
                run.label()
            );
        }
    }
    println!("worst |err|: {worst:.3}pp ({worst_run})");
}
