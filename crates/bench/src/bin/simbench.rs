//! simbench — the phase-sampling (SimPoint) error gate: weighted
//! estimates versus full runs, as a timing-free, byte-deterministic
//! report on stdout (committed as `results/simpoint_validation.txt`).
//!
//! Both sections use the one estimator, [`stream_prep`] then
//! [`simpoint_streamed_chained`] (one predictor carried through the
//! sampling units in time order, a short re-sync warmup before each
//! window), under the default [`SimPointConfig`], and each is gated at
//! |err| ≤ 0.5 pp:
//!
//! * every suite run at full trace scale, PPM-hyb at the 2K-entry
//!   budget, on the run's stream (the events `generate` would
//!   materialize);
//! * every figure-6 kind on the gs.tig program model streamed for about
//!   2M events.
//!
//! The estimator is serial, so the report does not depend on
//! `IBP_THREADS`. Exits 1 if any row misses its gate. Speed is measured
//! by ibpbench's `longrun` workload, not here.
//!
//! Usage: `cargo run --release -p ibp-bench --bin simbench`

use ibp_sim::{simpoint_streamed_chained, stream_prep, PredictorKind, SimPointConfig};
use ibp_workloads::paper_suite;
use std::fmt::Write as _;

const ERROR_GATE_PP: f64 = 0.5;
/// Approximate length of the streamed gs.tig run in the chained section.
const CHAINED_EVENTS: u64 = 2_000_000;

/// A config as the section headers print it.
fn cfg_string(cfg: &SimPointConfig) -> String {
    format!(
        "k={},window={},warmup={},strata={},dims={}",
        cfg.k, cfg.window, cfg.warmup_windows, cfg.strata, cfg.dims
    )
}

/// The 15-run section: full vs weighted PPM-hyb over every suite run at
/// full trace scale. Returns whether every run met the gate.
fn suite_section(out: &mut String) -> bool {
    let cfg = &SimPointConfig::default();
    let _ = writeln!(
        out,
        "simpoint validation: PPM-hyb @ 2048 entries, full trace scale, cfg {}",
        cfg_string(cfg)
    );
    let _ = writeln!(
        out,
        "{:<12} {:>9} {:>9} {:>9} {:>9} {:>10}",
        "run", "full", "est", "|err|pp", "windows", "sampled%"
    );
    let mut worst = 0.0f64;
    let mut worst_run = String::new();
    for run in paper_suite() {
        let stream = run.stream();
        let iterations = run.scaled_iterations(1.0) as u64;
        let full = PredictorKind::PpmHyb.simulate_events(2048, stream.clone().events(iterations));
        let prep = stream_prep(&stream, iterations, cfg);
        let sampled = simpoint_streamed_chained(PredictorKind::PpmHyb, 2048, &prep, cfg);
        let err = (sampled.estimate.misprediction_ratio() - full.misprediction_ratio()).abs()
            * 100.0;
        if err > worst {
            worst = err;
            worst_run = run.label();
        }
        let _ = writeln!(
            out,
            "{:<12} {:>8.3}% {:>8.3}% {:>9.3} {:>9} {:>9.1}%",
            run.label(),
            full.misprediction_ratio() * 100.0,
            sampled.estimate.misprediction_ratio() * 100.0,
            err,
            sampled.phases.windows(),
            sampled.sampled_fraction() * 100.0,
        );
    }
    let pass = worst <= ERROR_GATE_PP;
    let _ = writeln!(out, "worst |err|: {worst:.3}pp ({worst_run})");
    let _ = writeln!(
        out,
        "gate: |err| <= {ERROR_GATE_PP:.3}pp on all 15 runs: {}",
        if pass { "PASS" } else { "FAIL" }
    );
    pass
}

/// The chained section: every figure-6 kind, full vs chained estimate on
/// the streamed gs.tig run. Returns whether every kind met the gate.
fn chained_section(out: &mut String) -> bool {
    let cfg = &SimPointConfig::default();
    let Some(run) = paper_suite().into_iter().find(|r| r.label() == "gs.tig") else {
        let _ = writeln!(out, "paper suite lost its gs.tig run");
        return false;
    };
    let stream = run.stream();
    let per_iter = stream.clone().step(|_| {}).max(1);
    let iterations = CHAINED_EVENTS.div_ceil(per_iter);
    let prep = stream_prep(&stream, iterations, cfg);
    let phases = prep.phases();
    let _ = writeln!(
        out,
        "chained streamed estimate: gs.tig stream, {} events ({iterations} iterations), \
         {} windows, {} sampling units, @ 2048 entries, cfg {}",
        phases.total_events,
        phases.windows(),
        phases.clusters.len(),
        cfg_string(cfg)
    );
    let _ = writeln!(
        out,
        "{:<12} {:>9} {:>9} {:>9} {:>10}",
        "kind", "full", "est", "|err|pp", "sampled%"
    );
    let mut worst = 0.0f64;
    let mut worst_kind = String::new();
    let kinds = PredictorKind::figure6();
    for &kind in &kinds {
        let full = kind.simulate_events(2048, stream.clone().events(iterations));
        let sampled = simpoint_streamed_chained(kind, 2048, &prep, cfg);
        let err = (sampled.estimate.misprediction_ratio() - full.misprediction_ratio()).abs()
            * 100.0;
        if err > worst {
            worst = err;
            worst_kind = kind.label();
        }
        let _ = writeln!(
            out,
            "{:<12} {:>8.3}% {:>8.3}% {:>9.3} {:>9.1}%",
            kind.label(),
            full.misprediction_ratio() * 100.0,
            sampled.estimate.misprediction_ratio() * 100.0,
            err,
            sampled.sampled_fraction() * 100.0,
        );
    }
    let pass = worst <= ERROR_GATE_PP;
    let _ = writeln!(out, "worst |err|: {worst:.3}pp ({worst_kind})");
    let _ = writeln!(
        out,
        "gate: |err| <= {ERROR_GATE_PP:.3}pp on all {} figure-6 kinds: {}",
        kinds.len(),
        if pass { "PASS" } else { "FAIL" }
    );
    pass
}

fn main() {
    let mut out = String::new();
    let suite_ok = suite_section(&mut out);
    out.push('\n');
    let chained_ok = chained_section(&mut out);
    print!("{out}");
    std::process::exit(i32::from(!(suite_ok && chained_ok)));
}
