//! Seeded workload inputs and the executor every workload shares.

use ibp_exec::Executor;
use ibp_workloads::{paper_suite, BenchmarkSpec};
use std::sync::Mutex;
use std::time::Instant;

/// `--seed N` moves every suite spec's seed by `N` times this prime, so
/// seed 0 is the paper suite bit for bit and other seeds give unrelated
/// event streams from the same program models.
pub const SEED_STRIDE: u64 = 1_000_003;

/// Worker threads of every pool the benchmark uses: the sandbox has two
/// cores, and a fixed count keeps both sides of a comparison alike.
pub const THREADS: usize = 2;

/// The fifteen paper-suite specs with their seeds moved by `seed`.
pub fn suite(seed: u64) -> Vec<BenchmarkSpec> {
    paper_suite()
        .iter()
        .map(|run| {
            let mut spec = run.spec().clone();
            spec.seed = spec.seed.wrapping_add(seed.wrapping_mul(SEED_STRIDE));
            spec
        })
        .collect()
}

/// The seeded gs.tig spec, the long-stream workload's program.
pub fn gs_tig(seed: u64) -> BenchmarkSpec {
    suite(seed)
        .into_iter()
        .find(|s| s.label() == "gs.tig")
        .expect("the paper suite has a gs.tig run")
}

/// Busy time, idle time and task count of the pool calls made while
/// reporting was on.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PoolTotals {
    pub busy_ns: u64,
    pub idle_ns: u64,
    pub tasks: u64,
}

/// [`Executor`] plus, in traced runs, per-call accounting through
/// [`Executor::run_reporting`]. Results are identical either way.
pub struct Pool {
    exec: Executor,
    totals: Option<Mutex<PoolTotals>>,
}

impl Pool {
    pub fn new(report: bool) -> Self {
        Pool {
            exec: Executor::new(THREADS),
            totals: report.then(|| Mutex::new(PoolTotals::default())),
        }
    }

    pub fn run<R, F>(&self, tasks: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let Some(totals) = &self.totals else {
            return self.exec.run(tasks, f);
        };
        let started = Instant::now();
        let (out, stats) = self.exec.run_reporting(tasks, f);
        let wall = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let busy = stats.total_busy_ns();
        let mut t = totals.lock().expect("pool totals poisoned");
        t.busy_ns += busy;
        t.idle_ns += (self.exec.threads() as u64 * wall).saturating_sub(busy);
        t.tasks += stats.total_tasks();
        out
    }

    /// Returns the totals so far and starts counting afresh.
    pub fn take_totals(&self) -> PoolTotals {
        self.totals.as_ref().map_or_else(PoolTotals::default, |t| {
            std::mem::take(&mut *t.lock().expect("pool totals poisoned"))
        })
    }
}
