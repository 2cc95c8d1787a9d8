//! SimPoint phase-sampling property wall (see DESIGN.md §13).
//!
//! Four contracts of the estimator (`stream_prep` then
//! `simpoint_streamed_chained`), each falsifiable on small random inputs:
//!
//! * **Determinism** — the streamed signature pass clusters exactly as a
//!   signature pass over the materialized trace does, and the estimate is
//!   bit-identical across repeated runs.
//! * **Work and exactness** — a run never simulates more events than the
//!   stream holds, and when every window is its own sampling unit the
//!   estimate is the full run, count for count.
//! * **Signature/weight invariants** — cluster weights partition the
//!   window set (they sum to the window count), every window is assigned
//!   to a valid sampling unit, representatives are members of their own
//!   unit.
//! * **Degenerate inputs** — empty streams, streams shorter than one
//!   window, and `k` larger than the window count all clamp instead of
//!   panicking, and the estimate still reproduces the only windows that
//!   exist.

use ibp_sim::{
    cluster_signatures, simpoint_streamed_chained, stream_prep, PredictorKind, SignatureBuilder,
    SignatureSet, SimPointConfig,
};
use ibp_testkit::{prop_assert, prop_assert_eq, Prop, TestRng};
use ibp_trace::BranchEvent;
use ibp_workloads::{paper_suite, ModelStream};

fn small_cfg(k: usize, window: usize) -> SimPointConfig {
    SimPointConfig {
        k,
        window,
        warmup_windows: 2,
        strata: 2,
        dims: 32,
    }
}

/// Draws a suite run, a small trace scale, and a clustering shape.
fn gen_case(rng: &mut TestRng) -> (usize, u8, usize, usize) {
    let run = rng.gen_range(0..15u64) as usize;
    let scale_milli = rng.gen_range(3..12u64) as u8;
    let k = rng.gen_range(1..7u64) as usize;
    let window = 1 << rng.gen_range(7..10u64); // 128..512 events
    (run, scale_milli, k, window)
}

/// The stream of suite run `run` and its iteration count at
/// `scale_milli` thousandths of full scale.
fn case_stream(run: usize, scale_milli: u8) -> (ModelStream, u64) {
    let spec = &paper_suite()[run];
    let iterations = spec.scaled_iterations(f64::from(scale_milli) / 1000.0) as u64;
    (spec.stream(), iterations)
}

/// The signature set of a materialized event sequence.
fn signature_set(events: &[BranchEvent], cfg: &SimPointConfig) -> SignatureSet {
    let mut b = SignatureBuilder::new(cfg);
    for e in events {
        b.observe_event(e);
    }
    b.finish()
}

#[test]
fn streamed_path_reproduces_trace_path_exactly() {
    // The streamed prep sees the same events through a resumable
    // generator, so its clustering must be bit-identical to one built
    // from the materialized trace, and the estimate over it must be
    // repeat-stable, whether the prep is reused or rebuilt.
    Prop::new("streamed == trace-based sampling")
        .cases(4)
        .run(gen_case, |&(run, scale_milli, k, window)| {
            let (stream, iterations) = case_stream(run, scale_milli);
            let events: Vec<BranchEvent> = stream.clone().events(iterations).collect();
            let cfg = small_cfg(k, window);
            let from_trace = cluster_signatures(&signature_set(&events, &cfg), &cfg);

            let prep = stream_prep(&stream, iterations, &cfg);
            prop_assert_eq!(prep.phases(), &from_trace, "streamed clustering, run {}", run);
            let chained = simpoint_streamed_chained(PredictorKind::Cascade, 2048, &prep, &cfg);
            prop_assert_eq!(&chained.phases, &from_trace, "chained clustering, run {}", run);
            let again = simpoint_streamed_chained(PredictorKind::Cascade, 2048, &prep, &cfg);
            prop_assert_eq!(&chained, &again, "chained repeat, run {}", run);
            let rebuilt = stream_prep(&stream, iterations, &cfg);
            let fresh = simpoint_streamed_chained(PredictorKind::Cascade, 2048, &rebuilt, &cfg);
            prop_assert_eq!(&chained, &fresh, "chained on a rebuilt prep, run {}", run);
            Ok(())
        });
}

#[test]
fn chained_estimate_never_simulates_more_than_the_stream() {
    // Units never overlap and a unit's warmup stops where the previous
    // unit ended, so no event is fed twice: the sampled work is bounded
    // by the exact run's.
    Prop::new("simulated <= total, measured <= simulated")
        .cases(8)
        .run(gen_case, |&(run, scale_milli, k, window)| {
            let (stream, iterations) = case_stream(run, scale_milli);
            let cfg = small_cfg(k, window);
            let prep = stream_prep(&stream, iterations, &cfg);
            let sampled = simpoint_streamed_chained(PredictorKind::PpmHyb, 2048, &prep, &cfg);
            let total = sampled.phases.total_events;
            prop_assert!(
                sampled.events_simulated <= total,
                "run {run}: simulated {} of {total} events",
                sampled.events_simulated
            );
            prop_assert!(
                sampled.events_measured <= sampled.events_simulated,
                "run {run}: measured {} > simulated {}",
                sampled.events_measured,
                sampled.events_simulated
            );
            Ok(())
        });
}

#[test]
fn chained_estimate_is_exact_when_every_window_is_its_own_unit() {
    // With at least as many strata as windows, every window is a unit of
    // weight one and each unit's warmup is empty (the previous unit ended
    // where it starts), so the carried predictor steps the whole stream
    // once, in order: the full run.
    Prop::new("strata >= windows is the full run")
        .cases(6)
        .run(gen_case, |&(run, scale_milli, k, window)| {
            let (stream, iterations) = case_stream(run, scale_milli);
            let events: Vec<BranchEvent> = stream.clone().events(iterations).collect();
            let cfg = SimPointConfig {
                strata: events.len().div_ceil(window).max(1),
                ..small_cfg(k, window)
            };
            let prep = stream_prep(&stream, iterations, &cfg);
            for kind in [PredictorKind::PpmHyb, PredictorKind::Cascade] {
                let full = kind.simulate_events(2048, events.iter().copied());
                let sampled = simpoint_streamed_chained(kind, 2048, &prep, &cfg);
                prop_assert_eq!(
                    (sampled.estimate.predictions, sampled.estimate.mispredictions),
                    (full.predictions(), full.mispredictions()),
                    "{:?}, run {}",
                    kind,
                    run
                );
                prop_assert_eq!(
                    sampled.events_simulated,
                    events.len() as u64,
                    "{:?}, run {}: simulated events",
                    kind,
                    run
                );
            }
            Ok(())
        });
}

#[test]
fn cluster_weights_partition_the_window_set() {
    Prop::new("weights sum to window count")
        .cases(8)
        .run(gen_case, |&(run, scale_milli, k, window)| {
            let (stream, iterations) = case_stream(run, scale_milli);
            let events: Vec<BranchEvent> = stream.events(iterations).collect();
            let cfg = small_cfg(k, window);
            let set = signature_set(&events, &cfg);
            let phases = cluster_signatures(&set, &cfg);
            let weight_sum: u64 = phases.clusters.iter().map(|c| c.weight).sum();
            prop_assert_eq!(
                weight_sum,
                set.windows() as u64,
                "weights must partition {} windows",
                set.windows()
            );
            prop_assert_eq!(phases.assignments.len(), set.windows(), "assignment per window");
            for (w, &unit) in phases.assignments.iter().enumerate() {
                prop_assert!(
                    (unit as usize) < phases.clusters.len(),
                    "window {w} assigned to missing unit {unit}"
                );
            }
            for (i, c) in phases.clusters.iter().enumerate() {
                prop_assert!(c.weight > 0, "unit {i} is empty");
                prop_assert_eq!(
                    phases.assignments[c.representative] as usize,
                    i,
                    "representative {} must belong to its own unit",
                    c.representative
                );
            }
            prop_assert_eq!(set.total_events(), events.len() as u64, "event accounting");
            Ok(())
        });
}

#[test]
fn k_larger_than_window_count_clamps() {
    let (stream, iterations) = case_stream(0, 2);
    let cfg = small_cfg(64, 4096); // few windows, absurd k
    let prep = stream_prep(&stream, iterations, &cfg);
    let phases = prep.phases();
    assert!(phases.windows() < 64, "scale too large for the clamp case");
    assert!(
        phases.clusters.len() <= phases.windows() * cfg.strata,
        "units exceed windows × strata"
    );
    let weight_sum: u64 = phases.clusters.iter().map(|c| c.weight).sum();
    assert_eq!(weight_sum, phases.windows() as u64);
    // The estimate still works — and with k ≥ windows nearly every
    // window is its own unit, so sampling degenerates to (windowed) full
    // simulation.
    let run = simpoint_streamed_chained(PredictorKind::Btb, 2048, &prep, &cfg);
    assert!(run.estimate.predictions > 0);
}

#[test]
fn degenerate_streams_clamp_instead_of_panicking() {
    let stream = paper_suite()[2].stream();

    // Empty stream: no windows, no units, a zero estimate.
    let cfg = small_cfg(4, 256);
    let prep = stream_prep(&stream, 0, &cfg);
    assert_eq!(prep.phases().windows(), 0);
    assert!(prep.phases().clusters.is_empty());
    let run = simpoint_streamed_chained(PredictorKind::PpmHyb, 2048, &prep, &cfg);
    assert_eq!(run.estimate.predictions, 0);
    assert_eq!(run.estimate.mispredictions, 0);
    assert_eq!(run.events_simulated, 0);

    // Shorter than one window: exactly one (partial) window, which must
    // be its own representative, making the estimate exact.
    let cfg = small_cfg(4, 1 << 16);
    let prep = stream_prep(&stream, 1, &cfg);
    let phases = prep.phases();
    assert!(phases.total_events > 0 && phases.total_events < cfg.window as u64);
    assert_eq!(phases.windows(), 1);
    assert_eq!(phases.clusters.len(), 1);
    assert_eq!(phases.clusters[0].weight, 1);
    let sampled = simpoint_streamed_chained(PredictorKind::PpmHyb, 2048, &prep, &cfg);
    let full = PredictorKind::PpmHyb.simulate_events(2048, stream.events(1));
    assert_eq!(sampled.estimate.predictions, full.predictions());
    assert_eq!(sampled.estimate.mispredictions, full.mispredictions());
}
