//! A fixed set of pinned shard threads for the sharded serve reactor.
//!
//! Each shard thread of the non-blocking reactor owns its connections
//! for their whole lifetime and runs one long poll loop, so the unit of
//! spawning is the shard itself, not a job. [`ShardPool`] spawns exactly
//! `shards` named threads, each running one caller-built closure to
//! completion, and joins them all on [`ShardPool::join`].
//!
//! Two properties hold for every shard:
//!
//! * **Panic isolation.** A shard body runs under `catch_unwind`; a
//!   panicking shard is counted in [`ShardStats::panicked`] instead of
//!   aborting the process or poisoning its siblings. The lint regime
//!   keeps `crates/serve` panic-free (L004), so this is the second line
//!   of defense.
//! * **Thread discipline.** Lint L005 confines thread spawning to
//!   `crates/exec`; this module is how the serve reactor gets its
//!   thread-per-core shards without spawning threads itself.

use std::panic::{catch_unwind, AssertUnwindSafe};

/// Counters describing a shard pool's completed run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Shard threads spawned (and joined).
    pub shards: u64,
    /// Shard bodies that panicked (caught; siblings unaffected).
    pub panicked: u64,
}

/// A fixed set of long-lived shard threads, one closure each.
///
/// # Examples
///
/// ```
/// use ibp_exec::ShardPool;
/// use std::sync::atomic::{AtomicU64, Ordering};
/// use std::sync::Arc;
///
/// let total = Arc::new(AtomicU64::new(0));
/// let pool = ShardPool::spawn("doc", 4, |shard| {
///     let total = Arc::clone(&total);
///     move || {
///         total.fetch_add(shard as u64 + 1, Ordering::Relaxed);
///     }
/// });
/// let stats = pool.join();
/// assert_eq!(stats.shards, 4);
/// assert_eq!(stats.panicked, 0);
/// assert_eq!(total.load(Ordering::Relaxed), 1 + 2 + 3 + 4);
/// ```
pub struct ShardPool {
    handles: Vec<std::thread::JoinHandle<bool>>,
}

impl std::fmt::Debug for ShardPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardPool")
            .field("shards", &self.handles.len())
            .finish_non_exhaustive()
    }
}

impl ShardPool {
    /// Spawns `shards` (clamped to ≥ 1) threads named `{name}-shard{i}`.
    /// `make` is called once per shard index, on the spawning thread, to
    /// build that shard's body; the body then runs to completion on its
    /// own thread under `catch_unwind`.
    pub fn spawn<F, B>(name: &str, shards: usize, mut make: F) -> Self
    where
        F: FnMut(usize) -> B,
        B: FnOnce() + Send + 'static,
    {
        let handles = (0..shards.max(1))
            .map(|i| {
                let body = make(i);
                std::thread::Builder::new()
                    .name(format!("{name}-shard{i}"))
                    .spawn(move || catch_unwind(AssertUnwindSafe(body)).is_err())
                    .expect("spawn shard thread")
            })
            .collect();
        Self { handles }
    }

    /// The number of shard threads.
    pub fn shards(&self) -> usize {
        self.handles.len()
    }

    /// Joins every shard and returns the final counters. Blocks until all
    /// shard bodies have returned (or panicked into the catch).
    pub fn join(mut self) -> ShardStats {
        self.join_all()
    }

    fn join_all(&mut self) -> ShardStats {
        let mut stats = ShardStats::default();
        for handle in self.handles.drain(..) {
            stats.shards += 1;
            // The shard body's panic is caught inside the thread, so the
            // thread itself always exits normally.
            if handle.join().expect("shard thread exited cleanly") {
                stats.panicked += 1;
            }
        }
        stats
    }
}

impl Drop for ShardPool {
    fn drop(&mut self) {
        self.join_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    #[test]
    fn every_shard_runs_with_its_index() {
        let seen = Arc::new(AtomicU64::new(0));
        let pool = ShardPool::spawn("test", 8, |shard| {
            let seen = Arc::clone(&seen);
            move || {
                seen.fetch_or(1 << shard, Ordering::Relaxed);
            }
        });
        assert_eq!(pool.shards(), 8);
        let stats = pool.join();
        assert_eq!(stats, ShardStats { shards: 8, panicked: 0 });
        assert_eq!(seen.load(Ordering::Relaxed), 0xFF, "all 8 indices ran");
    }

    #[test]
    fn panicking_shard_is_counted_and_isolated() {
        let survivors = Arc::new(AtomicU64::new(0));
        let pool = ShardPool::spawn("test", 3, |shard| {
            let survivors = Arc::clone(&survivors);
            move || {
                if shard == 1 {
                    panic!("shard bug");
                }
                survivors.fetch_add(1, Ordering::Relaxed);
            }
        });
        let stats = pool.join();
        assert_eq!(stats.shards, 3);
        assert_eq!(stats.panicked, 1);
        assert_eq!(survivors.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        let ran = Arc::new(AtomicU64::new(0));
        let pool = ShardPool::spawn("test", 0, |_| {
            let ran = Arc::clone(&ran);
            move || {
                ran.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert_eq!(pool.shards(), 1);
        assert_eq!(pool.join().shards, 1);
        assert_eq!(ran.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn shard_threads_carry_the_pool_name() {
        let (tx, rx) = std::sync::mpsc::channel::<String>();
        let pool = ShardPool::spawn("named", 2, |_| {
            let tx = tx.clone();
            move || {
                let name = std::thread::current().name().unwrap_or("").to_string();
                let _ = tx.send(name);
            }
        });
        pool.join();
        let mut names: Vec<String> = rx.try_iter().collect();
        names.sort();
        assert_eq!(names, vec!["named-shard0", "named-shard1"]);
    }

    #[test]
    fn drop_joins_without_an_explicit_join() {
        let ran = Arc::new(AtomicU64::new(0));
        {
            let _pool = ShardPool::spawn("test", 2, |_| {
                let ran = Arc::clone(&ran);
                move || {
                    ran.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        assert_eq!(ran.load(Ordering::Relaxed), 2);
    }
}
