//! `longrun`: phase-sampled estimates on a long streamed gs.tig run.
//!
//! One rep is what a user estimating the Figure-6 lineup on a long
//! stream does: one shared `stream_prep` pass (signatures, generator
//! checkpoints, clustering), then `simpoint_streamed_chained` for the
//! seven Figure-6 kinds, one after another. The full streamed PPM-hyb
//! run the estimate is checked against runs beside them: the pool gets
//! two tasks, the sampled lineup and the full run, which cost about the
//! same, so the two workers stay balanced and the rep's time does not
//! hinge on how seven unequal tasks happen to be stolen. The stream is
//! never materialized.

use crate::grid::elapsed_ns;
use crate::inputs::Pool;
use crate::report::{value, Ctx, Outcome, Value, Window};
use crate::spans::Spans;
use crate::stats::{median, Fnv};
use ibp_sim::{
    cluster_signatures, simpoint_streamed_chained, stream_prep, PredictorKind, RunResult,
    SignatureBuilder, SimPointConfig, SimPointRun,
};
use ibp_workloads::BenchmarkSpec;
use std::time::Instant;

/// Stream length of a timed rep.
pub const EVENTS: u64 = 20_000_000;
/// Stream length of each set-up rep.
const WARMUP_EVENTS: u64 = 1_000_000;
/// Stream length when another workload's traced run probes this path.
pub const PROBE_EVENTS: u64 = 2_000_000;
const ENTRIES: usize = 2048;
const SETUPS: usize = 5;
const MIN_REPS: usize = 3;
/// The ≤ 0.5 pp weighted-vs-full gate the sampler is held to.
pub const ERROR_GATE_PP: f64 = 0.5;

/// simbench's chained preset: k = 12, 2048-event windows, 16 warm-up
/// windows, 16 strata, 64 dimensions.
pub fn config() -> SimPointConfig {
    SimPointConfig {
        warmup_windows: 16,
        strata: 16,
        ..SimPointConfig::default()
    }
}

pub struct Estimate {
    pub total_events: u64,
    pub iterations: u64,
    pub prep_ns: u64,
    pub sampled: Vec<(PredictorKind, SimPointRun, u64)>,
    pub estimate_ns: u64,
    pub full: RunResult,
    pub full_ns: u64,
}

impl Estimate {
    pub fn units(&self) -> usize {
        self.sampled
            .first()
            .map_or(0, |(_, r, _)| r.phases.clusters.len())
    }

    pub fn events_simulated(&self) -> u64 {
        self.sampled
            .iter()
            .map(|(_, r, _)| r.events_simulated)
            .sum()
    }

    pub fn window_sim_ns(&self) -> u64 {
        self.sampled.iter().map(|(_, _, ns)| ns).sum()
    }

    /// When each kind's estimate was ready, counted from the start of
    /// the rep: the prep pass, then the kinds in turn. The last is the
    /// whole estimate.
    pub fn answer_ns(&self) -> Vec<u64> {
        self.sampled
            .iter()
            .scan(self.prep_ns, |t, (_, _, ns)| {
                *t += ns;
                Some(*t)
            })
            .collect()
    }

    /// |sampled − full| PPM-hyb misprediction ratio, in percentage points.
    pub fn error_pp(&self) -> f64 {
        let ppm = self
            .sampled
            .iter()
            .find(|(k, _, _)| *k == PredictorKind::PpmHyb)
            .map_or(f64::NAN, |(_, r, _)| r.estimate.misprediction_ratio());
        (ppm - self.full.misprediction_ratio()).abs() * 100.0
    }

    pub fn digest(&self) -> String {
        let h = Fnv::new()
            .u64(self.total_events)
            .u64(self.units() as u64)
            .u64(self.full.predictions())
            .u64(self.full.mispredictions());
        self.sampled
            .iter()
            .fold(h, |h, (kind, r, _)| {
                h.str(&kind.cli_name())
                    .u64(r.estimate.predictions)
                    .u64(r.estimate.mispredictions)
                    .u64(r.events_simulated)
            })
            .hex()
    }
}

fn iterations_for(spec: &BenchmarkSpec, events: u64) -> u64 {
    let per_iteration = spec.stream().step(|_| {}).max(1);
    events.div_ceil(per_iteration)
}

enum Half {
    Sampled(Vec<(PredictorKind, SimPointRun, u64)>, u64),
    Full(RunResult, u64),
}

pub fn estimate(
    pool: &Pool,
    spans: &Spans,
    parent: u64,
    spec: &BenchmarkSpec,
    events: u64,
) -> Estimate {
    let stream = spec.stream();
    let iterations = iterations_for(spec, events);
    let cfg = config();
    let kinds = PredictorKind::figure6();
    let started = Instant::now();
    let prep = spans.span(parent, 0, "simpoint.stream_prep", |_| {
        stream_prep(&stream, iterations, &cfg)
    });
    let prep_ns = elapsed_ns(started);
    let halves = spans.span(parent, 0, "exec.estimate_and_reference", |id| {
        pool.run(2, |task| {
            let t = Instant::now();
            if task == 0 {
                let sampled = kinds
                    .iter()
                    .map(|&kind| {
                        spans.span(id, 0, "simpoint.streamed_chained", |_| {
                            let t = Instant::now();
                            let run = simpoint_streamed_chained(kind, ENTRIES, &prep, &cfg);
                            (kind, run, elapsed_ns(t))
                        })
                    })
                    .collect();
                Half::Sampled(sampled, elapsed_ns(t))
            } else {
                let full = spans.span(id, 0, "sim.simulate_events", |_| {
                    PredictorKind::PpmHyb
                        .simulate_events(ENTRIES, stream.clone().events(iterations))
                });
                Half::Full(full, elapsed_ns(t))
            }
        })
    });
    let (mut sampled, mut sampled_ns, mut full) = (Vec::new(), 0, None);
    for half in halves {
        match half {
            Half::Sampled(s, ns) => (sampled, sampled_ns) = (s, ns),
            Half::Full(r, ns) => full = Some((r, ns)),
        }
    }
    let (full, full_ns) = full.expect("the pool ran the full-run task");
    Estimate {
        total_events: prep.phases().total_events,
        iterations,
        prep_ns,
        sampled,
        estimate_ns: prep_ns + sampled_ns,
        full,
        full_ns,
    }
}

/// Splits `stream_prep`'s signature pass and clustering out of one more
/// pass over the stream: events are generated an iteration at a time
/// and only the `SignatureBuilder` calls are timed.
fn prep_breakdown(spec: &BenchmarkSpec, iterations: u64) -> (u64, u64) {
    let cfg = config();
    let mut stream = spec.stream();
    let mut builder = SignatureBuilder::new(&cfg);
    let mut buf = Vec::new();
    let mut signature_ns = 0u64;
    for _ in 0..iterations {
        buf.clear();
        stream.step(|e| buf.push(e));
        let t = Instant::now();
        for e in &buf {
            builder.observe_event(e);
        }
        signature_ns += elapsed_ns(t);
    }
    let set = builder.finish();
    let t = Instant::now();
    std::hint::black_box(cluster_signatures(&set, &cfg));
    (signature_ns, elapsed_ns(t))
}

/// The `simpoint` layer's metrics from a set of reps of one stream.
fn simpoint_layers(spec: &BenchmarkSpec, reps: &[Estimate]) -> Vec<Value> {
    let first = &reps[0];
    let (signature_ns, cluster_ns) = prep_breakdown(spec, first.iterations);
    let prep_s = median(&reps.iter().map(|r| r.prep_ns as f64).collect::<Vec<_>>()) / 1e9;
    let window_sim_s = median(
        &reps
            .iter()
            .map(|r| r.window_sim_ns() as f64)
            .collect::<Vec<_>>(),
    ) / 1e9;
    let kinds = first.sampled.len().max(1) as f64;
    vec![
        value("simpoint.signature_s", "s", signature_ns as f64 / 1e9),
        value("simpoint.cluster_s", "s", cluster_ns as f64 / 1e9),
        value(
            "simpoint.checkpoint_s",
            "s",
            prep_s - (signature_ns + cluster_ns) as f64 / 1e9,
        ),
        value("simpoint.window_sim_s", "s", window_sim_s),
        value(
            "simpoint.events_simulated",
            "count",
            first.events_simulated() as f64,
        ),
        value("simpoint.units", "count", first.units() as f64),
        value(
            "simpoint.sampled_fraction",
            "ratio",
            first.events_simulated() as f64 / (kinds * first.total_events as f64),
        ),
    ]
}

/// The `simpoint` layer measured on a short seeded gs.tig stream, for
/// the traced runs of the workloads that do not sample.
pub fn probe(seed: u64) -> Vec<Value> {
    let spec = crate::inputs::gs_tig(seed);
    let rep = estimate(
        &Pool::new(false),
        &Spans::new(false),
        0,
        &spec,
        PROBE_EVENTS,
    );
    simpoint_layers(&spec, &[rep])
}

pub fn run(ctx: &Ctx) -> Outcome {
    let spec = crate::inputs::gs_tig(ctx.seed);
    let events = (EVENTS as f64 * ctx.factor) as u64;
    let mut out = Outcome::new(format!("events={events}"), "estimate");

    for _ in 0..SETUPS {
        let t = Instant::now();
        let warm = (WARMUP_EVENTS as f64 * ctx.factor) as u64;
        ctx.spans.span(0, 0, "bench.setup", |id| {
            estimate(ctx.pool, ctx.spans, id, &spec, warm)
        });
        out.setup_s.push(t.elapsed().as_secs_f64());
    }
    ctx.pool.take_totals();
    out.startup_s = ctx.started.elapsed().as_secs_f64();

    let timed = Instant::now();
    let mut reps: Vec<Estimate> = Vec::new();
    while reps.len() < MIN_REPS || timed.elapsed() < ctx.budget {
        let r = ctx.spans.span(0, reps.len() as u64, "bench.rep", |id| {
            estimate(ctx.pool, ctx.spans, id, &spec, events)
        });
        reps.push(r);
    }
    let pool = ctx.pool.take_totals();

    let first = &reps[0];
    out.digest = first.digest();
    let per_rep = first.sampled.len() as u64 + 1;
    for (i, r) in reps.iter().enumerate() {
        out.attempted += per_rep;
        if r.digest() != out.digest {
            out.failed += per_rep;
            out.failures
                .push(format!("rep {i}: estimates differ from rep 0"));
        } else if r.error_pp().is_nan() || r.error_pp() > ERROR_GATE_PP {
            out.failed += 1;
            out.failures.push(format!(
                "rep {i}: PPM-hyb estimate off by {:.3} pp (gate {ERROR_GATE_PP} pp)",
                r.error_pp()
            ));
        }
    }
    let full_s = median(&reps.iter().map(|r| r.full_ns as f64).collect::<Vec<_>>()) / 1e9;
    let estimate_s = median(
        &reps
            .iter()
            .map(|r| r.estimate_ns as f64)
            .collect::<Vec<_>>(),
    ) / 1e9;
    out.extra.push(value("longrun.estimate_s", "s", estimate_s));
    out.extra
        .push(value("longrun.error_pp", "pp", first.error_pp()));
    out.extra.push(value("longrun.full_s", "s", full_s));
    out.extra.push(value(
        "longrun.stream_events",
        "events",
        first.total_events as f64,
    ));
    out.windows = reps
        .iter()
        .map(|r| Window {
            events: r.total_events,
            wall_ns: r.full_ns,
            latency_ns: r.answer_ns(),
        })
        .collect();

    if ctx.spans.enabled() {
        let per_rep = reps.len() as f64;
        out.layers.push(value(
            "exec.busy_s",
            "s",
            pool.busy_ns as f64 / 1e9 / per_rep,
        ));
        out.layers.push(value(
            "exec.idle_s",
            "s",
            pool.idle_ns as f64 / 1e9 / per_rep,
        ));
        out.layers.push(value(
            "exec.tasks",
            "count",
            (pool.tasks as f64 / per_rep).round(),
        ));
        out.layers.extend(simpoint_layers(&spec, &reps));
    }
    out
}
