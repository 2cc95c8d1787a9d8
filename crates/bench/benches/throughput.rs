//! Bench: end-to-end sweep-engine throughput on the Figure 6 grid, in
//! branch events per second — the regression gate for the hot loop.
//!
//! `grid_fig6_engine` times the production path: the `ibp-exec`
//! work-stealing pool over the (run × predictor) product with the
//! monomorphized, FxHash-backed simulation loop, trace generation
//! included. Two single-trace measurements (`simulate_dyn`,
//! `simulate_mono`) isolate the per-event loop from scheduling.
//!
//! A third single-trace measurement (`simulate_mono_raw`) re-times a
//! verbatim copy of the loop with **no probe parameter at all** — the
//! pre-observability code. Comparing it against `simulate_mono` (which
//! threads a `NullProbe` through the same loop) is the zero-cost claim,
//! enforced by `--gate-overhead`: an in-process interleaved paired
//! measurement whose median probed/raw throughput ratio must be ≥ 0.97.
//!
//! Env knobs: `IBP_BENCH_SCALE` (trace scale, default 0.02) and
//! `IBP_BENCH_ONLY` (comma-separated bench ids to run; unset = all) on
//! top of the harness's `IBP_BENCH_REPS` / `IBP_BENCH_MIN_MS` /
//! `IBP_BENCH_DIR`.
//!
//! `--check <path>` validates an emitted `BENCH_throughput.json` (well-
//! formed, every result carries a positive throughput) and exits without
//! benchmarking — the `scripts/verify.sh` gate.

use ibp_bench::{Harness, Throughput};
use ibp_exec::{Executor, PoolStats};
use ibp_metrics::Log2Histogram;
use ibp_ppm::{PpmHybrid, SelectorKind, StackConfig};
use ibp_sim::{compare_grid_with, simulate, Json, PredictorKind};
use ibp_workloads::paper_suite;
use std::hint::black_box;

/// A verbatim copy of the simulation loop with no probe parameter — the
/// exact pre-observability code — monomorphized over a concrete
/// predictor. `simulate_mono` (the production loop, `NullProbe` threaded
/// through) is gated against this baseline: if the two diverge beyond
/// noise, the "zero-cost when disabled" claim is broken.
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

/// True when `id` should run under the optional `IBP_BENCH_ONLY` filter
/// (a comma-separated id list; unset runs everything).
fn bench_enabled(id: &str) -> bool {
    match std::env::var("IBP_BENCH_ONLY") {
        Ok(list) => list.split(',').any(|s| s.trim() == id),
        Err(_) => true,
    }
}

fn hist_to_json(h: &Log2Histogram) -> Json {
    Json::obj([
        ("count", Json::UInt(h.count())),
        ("total", Json::UInt(h.total())),
        (
            "buckets",
            Json::Arr(
                h.nonzero()
                    .map(|(b, c)| Json::Arr(vec![Json::UInt(b as u64), Json::UInt(c)]))
                    .collect(),
            ),
        ),
    ])
}

fn pool_to_json(threads: usize, stats: &PoolStats) -> Json {
    Json::obj([
        ("threads", Json::UInt(threads as u64)),
        ("total_tasks", Json::UInt(stats.total_tasks())),
        ("total_busy_ns", Json::UInt(stats.total_busy_ns())),
        (
            "workers",
            Json::Arr(
                stats
                    .workers()
                    .iter()
                    .map(|w| {
                        Json::obj([
                            ("tasks", Json::UInt(w.tasks())),
                            ("busy_ns", Json::UInt(w.busy_ns())),
                            ("task_ns", hist_to_json(w.task_ns())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The zero-cost gate, measured in-process: interleaved pairs of the
/// production loop (`NullProbe` threaded through, `simulate_mono`) and
/// the verbatim probe-free copy (`simulate_raw`), each side running the
/// same iteration count on the same trace. Sequential A-then-B bench
/// comparisons are hostage to machine drift (frequency scaling, noisy
/// neighbours shifting throughput ±10% over seconds), so the sides are
/// alternated back-to-back, and the gate compares each side's *minimum*
/// window: timing noise only ever adds time, so the min over many
/// interleaved windows is the cleanest estimate of each loop's true cost.
fn gate_overhead() -> Result<(), String> {
    const OVERHEAD_FLOOR: f64 = 0.97;
    const PAIRS: usize = 25;
    const MIN_SIDE_MS: u64 = 10;
    let scale: f64 = std::env::var("IBP_BENCH_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.05);
    let trace = paper_suite()[0].generate_scaled(scale);

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

/// Validates an emitted report: parses, checks the bench name, and
/// requires every result to carry a positive derived throughput.
fn check(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let value = Json::parse(&text).map_err(|e| format!("{path} is not valid JSON: {e:?}"))?;
    if value.get("bench").and_then(Json::as_str) != Some("throughput") {
        return Err(format!("{path}: `bench` field is not \"throughput\""));
    }
    let results = value
        .get("results")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{path}: missing `results` array"))?;
    if results.is_empty() {
        return Err(format!("{path}: empty `results` array"));
    }
    for r in results {
        let id = r
            .get("id")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{path}: result without an `id`"))?;
        let per_sec = r
            .get("per_sec")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("{path}: `{id}` has no `per_sec`"))?;
        if !(per_sec > 0.0 && per_sec.is_finite()) {
            return Err(format!("{path}: `{id}` per_sec = {per_sec} is not positive"));
        }
    }
    println!("{path}: OK ({} results)", results.len());
    Ok(())
}

fn main() {
    // Cargo invokes bench targets with a trailing `--bench`; drop it.
    let args: Vec<String> = std::env::args().skip(1).filter(|a| a != "--bench").collect();
    if let Some(i) = args.iter().position(|a| a == "--check") {
        let path = args.get(i + 1).unwrap_or_else(|| {
            eprintln!("usage: throughput --check <BENCH_throughput.json>");
            std::process::exit(2);
        });
        if let Err(msg) = check(path) {
            eprintln!("{msg}");
            std::process::exit(1);
        }
        return;
    }
    if args.iter().any(|a| a == "--gate-overhead") {
        if let Err(msg) = gate_overhead() {
            eprintln!("{msg}");
            std::process::exit(1);
        }
        return;
    }

    let scale: f64 = std::env::var("IBP_BENCH_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.02);
    let kinds = PredictorKind::figure6();
    let runs = paper_suite();
    let exec = Executor::from_env();
    let suite_events: u64 = runs
        .iter()
        .map(|r| r.generate_scaled(scale).len() as u64)
        .sum();
    let grid_events = Throughput::Elements(suite_events * kinds.len() as u64);

    let mut h = Harness::new("throughput");
    if bench_enabled("grid_fig6_engine") {
        h.bench_throughput("grid_fig6_engine", grid_events, || {
            black_box(compare_grid_with(&exec, &kinds, &runs, scale))
        });

        // One reporting pass over the same grid, for the per-worker
        // wall-time histograms in the report. Timed outside the bench so
        // the measured figure stays the untimed production path.
        let traces: Vec<_> = runs.iter().map(|r| r.generate_scaled(scale)).collect();
        let (_, pool) = exec.run_reporting(runs.len() * kinds.len(), |i| {
            let (run_idx, kind_idx) = (i / kinds.len(), i % kinds.len());
            kinds[kind_idx].simulate_trace(&traces[run_idx]).mispredictions()
        });
        h.attach("pool", pool_to_json(exec.threads(), &pool));
    }

    // Per-kind split over the whole suite (opt-in: IBP_BENCH_PER_KIND=1) —
    // shows which predictor family dominates the grid time.
    if std::env::var("IBP_BENCH_PER_KIND").is_ok() {
        let traces: Vec<_> = runs.iter().map(|r| r.generate_scaled(scale)).collect();
        let trace_refs: Vec<&ibp_trace::Trace> = traces.iter().collect();
        for &kind in &kinds {
            let id = format!("kind_{}", kind.label());
            h.bench_throughput(&id, Throughput::Elements(suite_events), || {
                black_box(kind.simulate_batch(2048, &trace_refs))
            });
        }
    }

    // Workload generation alone, to separate it from simulation time.
    if bench_enabled("trace_gen") {
        h.bench_throughput("trace_gen", Throughput::Elements(suite_events), || {
            runs.iter()
                .map(|r| black_box(r.generate_scaled(scale)).len())
                .sum::<usize>()
        });
    }

    // Hot-loop isolation: one predictor, one trace, no scheduling.
    let trace = runs[0].generate_scaled(scale);
    let events = Throughput::Elements(trace.len() as u64);
    if bench_enabled("simulate_dyn") {
        h.bench_throughput("simulate_dyn", events, || {
            let mut p = PredictorKind::PpmHyb.build();
            black_box(simulate(p.as_mut(), &trace))
        });
    }
    if bench_enabled("simulate_mono") {
        h.bench_throughput("simulate_mono", events, || {
            black_box(PredictorKind::PpmHyb.simulate_trace(&trace))
        });
    }
    if bench_enabled("simulate_mono_raw") {
        h.bench_throughput("simulate_mono_raw", events, || {
            let mut p = PpmHybrid::new(StackConfig::paper(), SelectorKind::Normal);
            black_box(simulate_raw(&mut p, &trace))
        });
    }

    let per_id = |id: &str| {
        h.results()
            .iter()
            .find(|m| m.id == id)
            .map(|m| m.median_ns)
    };
    if let (Some(mono), Some(raw)) = (per_id("simulate_mono"), per_id("simulate_mono_raw")) {
        println!("NullProbe overhead mono/raw: {:.4}x", mono / raw);
    }
    h.finish();
}
