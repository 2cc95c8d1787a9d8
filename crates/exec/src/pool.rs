//! A work-stealing scoped-thread pool over a chunked task-index queue.
//!
//! The unit of work is a task index `0..tasks`; the caller's closure maps
//! an index to a result. The index space is split into one contiguous
//! chunk per worker; each worker pops from the *front* of its own range
//! and, when empty, steals the *back half* of the most loaded peer's
//! remaining range. Ranges live in single `AtomicU64`s (packed
//! `start:u32 | end:u32`), so pops and steals are lock-free CAS loops.
//!
//! **Determinism.** Scheduling is dynamic, but each index is executed
//! exactly once and its result is committed into slot `i` of the output
//! vector — so for a pure per-index closure the output is bit-identical
//! to a serial `(0..tasks).map(f)` evaluation, for any worker count.
//! `crates/sim/tests/determinism.rs` pins this property over randomized
//! workloads at pool sizes 1, 2 and 8.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// The environment variable overriding the worker count (for reproducible
/// timings, pin e.g. `IBP_THREADS=4`).
pub const THREADS_ENV_VAR: &str = "IBP_THREADS";

/// The worker count used by [`Executor::from_env`]: `IBP_THREADS` if set
/// and parsable as a positive integer, otherwise the machine's available
/// parallelism (1 if unknown).
pub fn thread_count() -> usize {
    std::env::var(THREADS_ENV_VAR)
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        })
}

/// A work-stealing executor of independent, index-addressed tasks.
///
/// # Examples
///
/// ```
/// use ibp_exec::Executor;
///
/// let squares = Executor::new(4).run(10, |i| i * i);
/// assert_eq!(squares, (0..10).map(|i| i * i).collect::<Vec<_>>());
/// ```
#[derive(Debug, Clone)]
pub struct Executor {
    threads: usize,
}

impl Executor {
    /// An executor with exactly `threads` workers (clamped to ≥ 1).
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
        }
    }

    /// An executor sized by [`thread_count`] (`IBP_THREADS` or the
    /// machine's available parallelism).
    pub fn from_env() -> Self {
        Self::new(thread_count())
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f` over every index in `0..tasks` and returns the results in
    /// index order. Output is identical to `(0..tasks).map(f).collect()`
    /// for any worker count (see the module docs on determinism).
    ///
    /// # Panics
    ///
    /// Propagates a panic from `f`; panics if `tasks` exceeds `u32::MAX`
    /// (ranges are packed into 32-bit halves).
    pub fn run<R, F>(&self, tasks: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        self.run_logged::<R, F, ()>(tasks, f).0
    }

    /// [`Executor::run`] that also reports how many tasks ran and the
    /// wall time spent inside them, summed over workers. Timing wraps
    /// each task *outside* the caller's closure, so the results are
    /// bit-identical to [`Executor::run`]; only the stats vary run to
    /// run. Use `run` on hot paths — this variant pays two `Instant`
    /// reads per task. ibpbench's traced runs read it for their
    /// `exec.busy_s`, `exec.idle_s` and `exec.tasks` layer.
    ///
    /// # Panics
    ///
    /// As [`Executor::run`].
    pub fn run_reporting<R, F>(&self, tasks: usize, f: F) -> (Vec<R>, PoolStats)
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        self.run_logged(tasks, f)
    }

    /// The one spawn-and-commit body behind [`Executor::run`] and
    /// [`Executor::run_reporting`]: each worker keeps its own `L` and
    /// the logs are merged once all workers have joined.
    fn run_logged<R, F, L>(&self, tasks: usize, f: F) -> (Vec<R>, L)
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
        L: TaskLog,
    {
        assert!(tasks <= u32::MAX as usize, "task space exceeds u32 range");
        let workers = self.threads.min(tasks);
        if workers <= 1 {
            let mut log = L::default();
            let out = (0..tasks).map(|i| log.task(|| f(i))).collect();
            return (out, log);
        }

        // One contiguous chunk of the index space per worker.
        let deques: Vec<RangeDeque> = (0..workers)
            .map(|w| {
                let start = w * tasks / workers;
                let end = (w + 1) * tasks / workers;
                RangeDeque::new(start, end)
            })
            .collect();
        let done = AtomicUsize::new(0);

        let (mut per_worker, logs): (Vec<Vec<(usize, R)>>, Vec<L>) =
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|w| {
                        let deques = &deques;
                        let done = &done;
                        let f = &f;
                        scope.spawn(move || {
                            let mut log = L::default();
                            let out = worker_loop(w, deques, done, tasks, |i| log.task(|| f(i)));
                            (out, log)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("pool workers do not panic"))
                    .unzip()
            });

        // Commit in task order: slot i receives task i's result, whatever
        // worker ran it — parallel output is bit-identical to serial.
        let mut slots: Vec<Option<R>> = (0..tasks).map(|_| None).collect();
        for pairs in per_worker.drain(..) {
            for (i, r) in pairs {
                debug_assert!(slots[i].is_none(), "task {i} ran twice");
                slots[i] = Some(r);
            }
        }
        let out = slots
            .into_iter()
            .map(|s| s.expect("every task ran exactly once"))
            .collect();
        (out, logs.into_iter().fold(L::default(), L::merge))
    }

    /// Maps `f` over a slice, in parallel, returning results in item
    /// order. Sugar over [`Executor::run`].
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        self.run(items.len(), |i| f(i, &items[i]))
    }
}

fn worker_loop<R>(
    me: usize,
    deques: &[RangeDeque],
    done: &AtomicUsize,
    total: usize,
    mut f: impl FnMut(usize) -> R,
) -> Vec<(usize, R)> {
    let mut out = Vec::new();
    loop {
        while let Some(i) = deques[me].pop_front() {
            out.push((i, f(i)));
            done.fetch_add(1, Ordering::Release);
        }
        // Own range drained: steal the back half of a peer's range.
        let stolen = (1..deques.len()).find_map(|offset| {
            let victim = (me + offset) % deques.len();
            deques[victim].steal_back_half()
        });
        match stolen {
            Some((start, end)) => deques[me].refill(start, end),
            None => {
                if done.load(Ordering::Acquire) >= total {
                    return out;
                }
                // A peer still holds in-flight work we could not steal
                // (e.g. a single remaining item); spin politely.
                std::thread::yield_now();
            }
        }
    }
}

/// What a worker records about the tasks it runs: nothing for
/// [`Executor::run`], [`PoolStats`] for [`Executor::run_reporting`].
trait TaskLog: Default + Send {
    /// Runs one task, recording it.
    fn task<R>(&mut self, f: impl FnOnce() -> R) -> R;
    /// Combines two workers' logs.
    fn merge(self, other: Self) -> Self;
}

impl TaskLog for () {
    #[inline(always)]
    fn task<R>(&mut self, f: impl FnOnce() -> R) -> R {
        f()
    }

    fn merge(self, _: Self) -> Self {}
}

/// Task count and busy wall time of one [`Executor::run_reporting`]
/// call, summed over its workers.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PoolStats {
    tasks: u64,
    busy_ns: u64,
}

impl PoolStats {
    /// Tasks executed across all workers.
    pub fn total_tasks(&self) -> u64 {
        self.tasks
    }

    /// Wall nanoseconds spent inside task closures, summed across
    /// workers.
    pub fn total_busy_ns(&self) -> u64 {
        self.busy_ns
    }
}

impl TaskLog for PoolStats {
    fn task<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let r = f();
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.tasks += 1;
        self.busy_ns = self.busy_ns.saturating_add(ns);
        r
    }

    fn merge(self, other: Self) -> Self {
        PoolStats {
            tasks: self.tasks + other.tasks,
            busy_ns: self.busy_ns.saturating_add(other.busy_ns),
        }
    }
}

/// A `[start, end)` range of pending task indices in one atomic word.
///
/// The owner pops indices from the front; thieves CAS the end down to the
/// midpoint, taking the back half. Ranges only ever shrink (a refill
/// happens only on the owner's *empty* deque), so an index is handed out
/// exactly once.
struct RangeDeque(AtomicU64);

impl RangeDeque {
    fn new(start: usize, end: usize) -> Self {
        Self(AtomicU64::new(pack(start as u32, end as u32)))
    }

    fn pop_front(&self) -> Option<usize> {
        let mut cur = self.0.load(Ordering::Acquire);
        loop {
            let (start, end) = unpack(cur);
            if start >= end {
                return None;
            }
            match self.0.compare_exchange_weak(
                cur,
                pack(start + 1, end),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some(start as usize),
                Err(actual) => cur = actual,
            }
        }
    }

    /// Steals `[mid, end)`, leaving `[start, mid)` with the owner. A
    /// single-item range is not stealable (the owner keeps it).
    fn steal_back_half(&self) -> Option<(usize, usize)> {
        let mut cur = self.0.load(Ordering::Acquire);
        loop {
            let (start, end) = unpack(cur);
            let mid = start + (end - start).div_ceil(2);
            if mid >= end {
                return None;
            }
            match self.0.compare_exchange_weak(
                cur,
                pack(start, mid),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some((mid as usize, end as usize)),
                Err(actual) => cur = actual,
            }
        }
    }

    /// Installs a stolen range. Only the owner calls this, and only when
    /// its own range is empty, so a plain store cannot lose indices; a
    /// concurrent thief's CAS against the stale empty value simply fails
    /// and retries.
    fn refill(&self, start: usize, end: usize) {
        self.0.store(pack(start as u32, end as u32), Ordering::Release);
    }
}

fn pack(start: u32, end: u32) -> u64 {
    (u64::from(start) << 32) | u64::from(end)
}

fn unpack(v: u64) -> (u32, u32) {
    ((v >> 32) as u32, v as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn results_are_in_task_order_for_any_pool_size() {
        for threads in [1, 2, 3, 8, 16] {
            let out = Executor::new(threads).run(100, |i| i * 3);
            assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let counters: Vec<AtomicU32> = (0..257).map(|_| AtomicU32::new(0)).collect();
        Executor::new(8).run(counters.len(), |i| {
            counters[i].fetch_add(1, Ordering::Relaxed);
        });
        for (i, c) in counters.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "task {i}");
        }
    }

    #[test]
    fn skewed_task_costs_still_complete() {
        // One pathologically slow chunk exercises the steal path: the
        // other workers must drain the slow worker's remaining range.
        let out = Executor::new(4).run(64, |i| {
            if i == 0 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            i
        });
        assert_eq!(out, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_tiny_workloads() {
        assert!(Executor::new(8).run(0, |i| i).is_empty());
        assert_eq!(Executor::new(8).run(1, |i| i + 7), vec![7]);
    }

    #[test]
    fn map_passes_items_and_indices() {
        let items = ["a", "bb", "ccc"];
        let out = Executor::new(2).map(&items, |i, s| (i, s.len()));
        assert_eq!(out, vec![(0, 1), (1, 2), (2, 3)]);
    }

    #[test]
    fn range_deque_pop_and_steal() {
        let d = RangeDeque::new(0, 10);
        assert_eq!(d.pop_front(), Some(0));
        // Remaining [1,10): thief takes the back half [6,10).
        assert_eq!(d.steal_back_half(), Some((6, 10)));
        let left: Vec<usize> = std::iter::from_fn(|| d.pop_front()).collect();
        assert_eq!(left, vec![1, 2, 3, 4, 5]);
        assert_eq!(d.steal_back_half(), None);
    }

    #[test]
    fn single_item_range_is_not_stealable() {
        let d = RangeDeque::new(4, 5);
        assert_eq!(d.steal_back_half(), None);
        assert_eq!(d.pop_front(), Some(4));
        assert_eq!(d.pop_front(), None);
    }

    #[test]
    fn run_reporting_matches_run_and_accounts_every_task() {
        for threads in [1, 2, 8] {
            let exec = Executor::new(threads);
            let plain = exec.run(33, |i| i * i);
            let (reported, stats) = exec.run_reporting(33, |i| i * i);
            assert_eq!(plain, reported, "{threads} threads");
            assert_eq!(stats.total_tasks(), 33);
        }
    }

    #[test]
    fn run_reporting_empty_workload() {
        let (out, stats) = Executor::new(4).run_reporting(0, |i| i);
        assert!(out.is_empty());
        assert_eq!(stats, PoolStats::default());
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        assert_eq!(Executor::new(0).threads(), 1);
        assert_eq!(Executor::new(0).run(3, |i| i), vec![0, 1, 2]);
    }
}
