//! `grid`: the paper's Figure-6/7 use — every suite run under every
//! predictor of the serve lineup.
//!
//! One rep does what `ibp_sim::compare_grid_with` does, in the same two
//! pool stages (generate every run's trace, then one `simulate_trace`
//! task per cell), but from this file so each cell can be timed and
//! its full counts kept for the digest.

use crate::inputs::Pool;
use crate::report::{value, Ctx, Outcome, Window};
use crate::spans::Spans;
use crate::stats::Fnv;
use ibp_sim::PredictorKind;
use ibp_trace::Trace;
use ibp_workloads::BenchmarkSpec;
use std::time::Instant;

/// Trace scale of a timed rep: the full figure traces.
pub const SCALE: f64 = 1.0;
/// Trace scale of each set-up rep, relative to [`SCALE`].
const WARMUP_SCALE: f64 = 0.1;
const SETUPS: usize = 5;
const MIN_REPS: usize = 4;

/// One cell's outcome, in grid (run-major) order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cell {
    pub run: usize,
    pub kind: usize,
    pub predictions: u64,
    pub mispredictions: u64,
}

pub struct Rep {
    pub cells: Vec<Cell>,
    pub cell_ns: Vec<u64>,
    pub wall_ns: u64,
    /// Events across all generated traces (each is simulated once per
    /// kind).
    pub trace_events: u64,
}

pub fn rep(
    pool: &Pool,
    spans: &Spans,
    parent: u64,
    specs: &[BenchmarkSpec],
    kinds: &[PredictorKind],
    scale: f64,
) -> Rep {
    let started = Instant::now();
    let traces: Vec<Trace> = spans.span(parent, 0, "exec.generate", |id| {
        pool.run(specs.len(), |i| {
            spans.span(id, 0, "workloads.generate_scaled", |_| {
                specs[i].generate_scaled(scale)
            })
        })
    });
    let timed: Vec<(Cell, u64)> = spans.span(parent, 0, "exec.cells", |id| {
        pool.run(specs.len() * kinds.len(), |i| {
            let (run, kind) = (i / kinds.len(), i % kinds.len());
            spans.span(id, i as u64, "sim.simulate_trace", |_| {
                let t = Instant::now();
                let result = kinds[kind].simulate_trace(&traces[run]);
                let cell = Cell {
                    run,
                    kind,
                    predictions: result.predictions(),
                    mispredictions: result.mispredictions(),
                };
                (cell, elapsed_ns(t))
            })
        })
    });
    let (cells, cell_ns) = timed.into_iter().unzip();
    Rep {
        cells,
        cell_ns,
        wall_ns: elapsed_ns(started),
        trace_events: traces.iter().map(|t| t.len() as u64).sum(),
    }
}

pub fn digest(specs: &[BenchmarkSpec], kinds: &[PredictorKind], cells: &[Cell]) -> String {
    cells
        .iter()
        .fold(Fnv::new(), |h, c| {
            h.str(&specs[c.run].label())
                .str(&kinds[c.kind].cli_name())
                .u64(c.predictions)
                .u64(c.mispredictions)
        })
        .hex()
}

pub fn run(ctx: &Ctx) -> Outcome {
    let specs = crate::inputs::suite(ctx.seed);
    let kinds = PredictorKind::serve_lineup();
    let scale = SCALE * ctx.factor;
    let mut out = Outcome::new(format!("scale={scale}"), "cell");

    for _ in 0..SETUPS {
        let t = Instant::now();
        ctx.spans.span(0, 0, "bench.setup", |id| {
            rep(
                ctx.pool,
                ctx.spans,
                id,
                &specs,
                &kinds,
                scale * WARMUP_SCALE,
            )
        });
        out.setup_s.push(t.elapsed().as_secs_f64());
    }
    ctx.pool.take_totals();
    out.startup_s = ctx.started.elapsed().as_secs_f64();

    let timed = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    while reps.len() < MIN_REPS || timed.elapsed() < ctx.budget {
        let r = ctx.spans.span(0, reps.len() as u64, "bench.rep", |id| {
            rep(ctx.pool, ctx.spans, id, &specs, &kinds, scale)
        });
        reps.push(r);
    }
    let pool = ctx.pool.take_totals();

    let first = &reps[0];
    out.digest = digest(&specs, &kinds, &first.cells);
    for (i, r) in reps.iter().enumerate() {
        out.attempted += r.cells.len() as u64;
        let differing = r
            .cells
            .iter()
            .zip(&first.cells)
            .filter(|(a, b)| a != b)
            .count();
        if differing > 0 {
            out.failed += differing as u64;
            out.failures
                .push(format!("rep {i}: {differing} cells differ from rep 0"));
        }
    }
    let cell_events = first.trace_events * kinds.len() as u64;
    let walls: Vec<f64> = reps.iter().map(|r| r.wall_ns as f64 / 1e9).collect();
    out.extra
        .push(value("grid.rep_s", "s", crate::stats::median(&walls)));
    out.extra
        .push(value("grid.cell_events", "events", cell_events as f64));
    out.windows = reps
        .into_iter()
        .map(|r| Window {
            events: cell_events,
            wall_ns: r.wall_ns,
            latency_ns: r.cell_ns,
        })
        .collect();

    if ctx.spans.enabled() {
        let per_rep = out.windows.len() as f64;
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
    }
    out
}

pub fn elapsed_ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibp_sim::{compare_grid_with, Executor};
    use ibp_workloads::paper_suite;

    /// The bench's own two-stage rep is the library's grid: at seed 0
    /// every cell matches `compare_grid_with` over the paper suite.
    #[test]
    fn seed_zero_rep_matches_compare_grid_with() {
        let scale = 0.01;
        let kinds = PredictorKind::serve_lineup();
        let specs = crate::inputs::suite(0);
        let ours = rep(
            &Pool::new(false),
            &Spans::new(false),
            0,
            &specs,
            &kinds,
            scale,
        );
        let theirs = compare_grid_with(&Executor::new(2), &kinds, &paper_suite(), scale);
        assert_eq!(ours.cells.len(), theirs.cells().len());
        for (cell, reference) in ours.cells.iter().zip(theirs.cells()) {
            assert_eq!(specs[cell.run].label(), reference.run);
            assert_eq!(kinds[cell.kind].label(), reference.predictor);
            assert_eq!(cell.predictions, reference.predictions);
            let ratio = if cell.predictions == 0 {
                0.0
            } else {
                cell.mispredictions as f64 / cell.predictions as f64
            };
            assert_eq!(
                ratio, reference.ratio,
                "{} / {}",
                reference.run, reference.predictor
            );
        }
    }
}
