//! Hermetic (zero-dependency) execution engine for the simulation grids.
//!
//! Every figure of the reproduction is a grid of *independent* simulations
//! — `(predictor kind × benchmark run × table size × delay)` — and every
//! simulation is a tight per-event loop. This crate supplies both halves
//! of the throughput story:
//!
//! * [`pool`] — [`Executor`], a work-stealing scoped-thread pool over a
//!   chunked task-index queue. Tasks are scheduled dynamically (idle
//!   workers steal half of a loaded worker's remaining range) but results
//!   are **committed in task order**, so parallel output is bit-identical
//!   to a serial evaluation of the same closure;
//! * [`map`] — [`FastMap`], an open-addressing, FxHash-style hash map
//!   keyed by cheap word mixing instead of SipHash, for the per-event
//!   accounting maps (`RunResult::per_branch`) and the unbounded
//!   predictor-internal tables;
//! * [`shard`] — [`ShardPool`], a fixed set of pinned shard threads (one
//!   closure each, panic-isolated), for the non-blocking serve reactor
//!   where each shard owns its connections for their whole lifetime
//!   (lint L005 confines thread spawning to this crate).
//!
//! All are `std`-only: the workspace builds offline with no external
//! crates (see `scripts/verify.sh`).

pub mod map;
pub mod pool;
pub mod shard;

pub use map::{FastHash, FastMap};
pub use pool::{thread_count, Executor, PoolStats};
pub use shard::{ShardPool, ShardStats};
