//! Bench: the NullProbe zero-cost gate.
//!
//! The production hot loop threads a `NullProbe` through every event
//! (`PredictorKind::simulate_trace`). This target re-times a verbatim
//! copy of the loop with **no probe parameter at all** — the
//! pre-observability code — and fails (exit 1) unless the probed loop
//! keeps at least 97% of the raw loop's throughput, measured in-process
//! over interleaved pairs. It takes no flags:
//!
//! ```text
//! cargo bench -p ibp-bench --bench probe_overhead
//! ```

use ibp_ppm::{PpmHybrid, SelectorKind, StackConfig};
use ibp_sim::PredictorKind;
use ibp_workloads::paper_suite;
use std::hint::black_box;

/// Minimum best-window probed/raw throughput ratio.
const OVERHEAD_FLOOR: f64 = 0.97;
/// Interleaved (probed, raw) measurement pairs.
const PAIRS: usize = 25;
/// Minimum wall time of one side of one pair.
const MIN_SIDE_MS: u64 = 10;
/// Trace scale of the measured run (the suite's first run).
const SCALE: f64 = 0.05;

/// A verbatim copy of the simulation loop with no probe parameter — the
/// exact pre-observability code — monomorphized over a concrete
/// predictor. The production loop (`NullProbe` threaded through) is
/// gated against this baseline: if the two diverge beyond noise, the
/// "zero-cost when disabled" claim is broken.
fn simulate_raw<P: ibp_predictors::IndirectPredictor>(
    predictor: &mut P,
    trace: &ibp_trace::Trace,
) -> (u64, u64) {
    // Same allocations as the production loop (`RunResult` holds the
    // predictor name and this map), so the comparison isolates the probe
    // calls rather than allocator traffic.
    let name = predictor.name();
    let mut predictions = 0u64;
    let mut mispredictions = 0u64;
    let mut per_branch: ibp_exec::FastMap<u64, (u64, u64)> =
        ibp_exec::FastMap::with_capacity(128);
    for event in trace.iter() {
        if event.class().is_predicted_indirect() {
            let predicted = predictor.predict(event.pc());
            let actual = event.target();
            let correct = predicted == Some(actual);
            predictions += 1;
            let entry = per_branch.or_insert_with(event.pc().raw(), || (0, 0));
            entry.0 += 1;
            if !correct {
                mispredictions += 1;
                entry.1 += 1;
            }
            predictor.update(event.pc(), actual);
        }
        predictor.observe(event);
    }
    black_box(name);
    black_box(per_branch);
    (predictions, mispredictions)
}

/// The zero-cost gate, measured in-process: interleaved pairs of the
/// production loop (`NullProbe` threaded through) and the verbatim
/// probe-free copy (`simulate_raw`), each side running the same
/// iteration count on the same trace. Sequential A-then-B comparisons
/// are hostage to machine drift (frequency scaling, noisy neighbours
/// shifting throughput ±10% over seconds), so the sides are alternated
/// back-to-back, and the gate compares each side's *minimum* window:
/// timing noise only ever adds time, so the min over many interleaved
/// windows is the cleanest estimate of each loop's true cost.
fn gate_overhead() -> Result<(), String> {
    let trace = paper_suite()[0].generate_scaled(SCALE);

    let mut run_mono = || {
        black_box(PredictorKind::PpmHyb.simulate_trace(&trace));
    };
    let mut run_raw = || {
        let mut p = PpmHybrid::new(StackConfig::paper(), SelectorKind::Normal);
        black_box(simulate_raw(&mut p, &trace));
    };

    // Calibrate a fixed per-side iteration count (also warms both paths).
    let start = std::time::Instant::now();
    run_raw();
    run_mono();
    let once_ns = (start.elapsed().as_nanos() / 2).max(1);
    let iters = (u128::from(MIN_SIDE_MS) * 1_000_000 / once_ns).max(1) as u32;

    let time = |f: &mut dyn FnMut()| {
        let start = std::time::Instant::now();
        for _ in 0..iters {
            f();
        }
        start.elapsed().as_secs_f64()
    };

    let mut mono_min = f64::INFINITY;
    let mut raw_min = f64::INFINITY;
    for pair in 0..PAIRS {
        let (mono_s, raw_s) = if pair % 2 == 0 {
            let m = time(&mut run_mono);
            let r = time(&mut run_raw);
            (m, r)
        } else {
            let r = time(&mut run_raw);
            let m = time(&mut run_mono);
            (m, r)
        };
        mono_min = mono_min.min(mono_s);
        raw_min = raw_min.min(raw_s);
    }
    // Throughput ratio probed/raw of the two best windows: > 1 means the
    // probed loop's cleanest measurement beat the raw loop's.
    let ratio = raw_min / mono_min;
    if !(ratio.is_finite() && ratio >= OVERHEAD_FLOOR) {
        return Err(format!(
            "NullProbe overhead gate failed: best-window probed/raw throughput ratio {ratio:.4} \
             < {OVERHEAD_FLOOR} over {PAIRS} interleaved pairs ({iters} iters/side, {} \
             events/iter)",
            trace.len()
        ));
    }
    println!(
        "overhead gate OK: best-window probed/raw throughput ratio {ratio:.4} >= \
         {OVERHEAD_FLOOR} over {PAIRS} interleaved pairs ({iters} iters/side)"
    );
    Ok(())
}

fn main() {
    if let Err(msg) = gate_overhead() {
        eprintln!("{msg}");
        std::process::exit(1);
    }
}
