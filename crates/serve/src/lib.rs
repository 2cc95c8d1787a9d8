//! `ibp-serve` — the online prediction service.
//!
//! Turns the offline predictor zoo into a long-lived network service: a
//! client opens a TCP connection, opens streams that each pick any
//! [`ibp_sim::PredictorKind`] and a table budget, then streams branch
//! events and gets resolve-time feedback acks that double as send
//! credit, plus (on request) a prediction for every multi-target
//! indirect branch. The per-event protocol is exactly the offline
//! simulator's, so a served stream and `ibp_sim::simulate` over the same
//! events produce identical results — pinned by the end-to-end
//! differential suite.
//!
//! One connection multiplexes many independent predictor sessions
//! (IBPS v3 *streams*), each with its own credit window, served by
//! thread-per-core reactor shards.
//!
//! * [`protocol`] — the pure IBPS frame codec (handshake, frames, typed
//!   errors; no sockets, fully property-testable).
//! * [`mux`] — the stream registry: per-stream decode states, credit
//!   accounting and the batched lockstep scheduler, running every
//!   stream on the shared [`ibp_sim::SessionStepper`] engine.
//! * [`reactor`] — the non-blocking shard loop (sharded accept,
//!   readiness polling, buffered writes, clockless idle ticks).
//! * [`spill`] — the multi-tenant memory plane: shared copy-on-write
//!   base tiers per predictor shape and the spill stores that hold
//!   evicted sessions' delta snapshots (in memory or on disk).
//! * [`server`] — the TCP server: [`ibp_exec::ShardPool`] lifecycle,
//!   graceful drain, [`ibp_metrics`] telemetry with per-shard
//!   attribution.
//! * [`client`] — [`MuxClient`], the blocking pipelined loopback client
//!   that rebuilds offline [`ibp_sim::RunResult`]s from close receipts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod mux;
pub mod protocol;
mod reactor;
pub mod server;
pub mod spill;

pub use client::{ClientError, MuxClient, SessionStats, StreamOutcome};
pub use mux::{ConnFatal, MuxConn, MuxProgress, MuxTallies, MAX_ENTRIES, MIN_ENTRIES};
pub use protocol::{
    ErrorCode, FrameBuffer, Hello, MuxClientFrame, ProtocolError, RawFrame, ServerFrame,
    MAX_FRAME_PAYLOAD, PROTOCOL_VERSION_MUX,
};
pub use server::{ServeError, Server, ServerConfig, ServerReport};
pub use spill::{DiskSpillStore, MemorySpillStore, SpillStore, TierCache};
