//! The TCP server: thread-per-core shards, sharded accept, graceful
//! drain.
//!
//! The server is a bank of [`ibp_exec::ShardPool`] shards, each running
//! the non-blocking reactor loop in [`crate::reactor`] over a clone of
//! the listener. A connection lives its whole life on the shard that
//! accepted it — its socket, frame buffer, stream registry and
//! telemetry never cross threads, so concurrency cannot perturb
//! prediction (pinned by the sharded differential suite at shard counts
//! 1, 2 and 8).
//!
//! Time never enters prediction: idleness is *accounted* in reactor
//! ticks, not measured — a shard only ages its connections (and their
//! mux streams) on iterations where no byte moved. The single
//! wall-clock read in this crate is the drain deadline in
//! [`Server::shutdown`], bounded to the I/O boundary and annotated for
//! the lint engine.
//!
//! Shutdown protocol: stop accepting (the non-blocking accept just
//! stops yielding sockets), wait for in-flight connections to finish up
//! to the drain deadline, then raise `force_close` — shards answer
//! `ERROR shutting-down` on every surviving connection — and join the
//! shard pool.

use crate::reactor::{shard_loop, Shared};
use ibp_exec::{ShardPool, ShardStats};
use ibp_metrics::MetricsSnapshot;
use std::fmt;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// Server tuning knobs. [`ServerConfig::default`] is sized for loopback
/// testing; every field is clamped into a sane range at start.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 to let the OS pick (read it back via
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Reactor shards (thread-per-core: one reactor loop each, with its
    /// own clone of the listener).
    pub shards: usize,
    /// Concurrent-connection cap; further connects get `ERROR busy`.
    pub max_sessions: usize,
    /// Per-connection cap on concurrently open mux streams; further
    /// `MUX_OPEN`s get a stream-scoped `stream-limit` error.
    pub max_streams: u64,
    /// The *per-stream* send-credit window advertised at handshake, in
    /// events.
    pub window: u64,
    /// The idle-accounting tick: how long a shard sleeps when none of
    /// its connections moved a byte.
    pub tick: Duration,
    /// Bound on the final blocking flush of a closing connection (error
    /// reports, bye acks); a slower client loses the tail.
    pub write_timeout: Duration,
    /// Idle budget: a connection (or mux stream) with no bytes for this
    /// long is evicted.
    pub idle_timeout: Duration,
    /// How long [`Server::shutdown`] waits for in-flight connections
    /// before forcing them closed.
    pub drain_timeout: Duration,
    /// Resident-bytes budget for mux predictor sessions, across the
    /// whole server (each shard enforces its share). `0` disables the
    /// memory plane entirely: streams get private tables and are never
    /// spilled — exactly the pre-budget behaviour.
    pub resident_budget: u64,
    /// Where evicted sessions' snapshots go when the budget is on:
    /// `Some(dir)` writes one file per spilled stream under `dir`,
    /// `None` keeps the (delta-sized) blobs on the heap.
    pub spill_dir: Option<std::path::PathBuf>,
    /// Use compact (quantized-counter, slot-packed) Markov tables for
    /// mux sessions on the memory plane. Only consulted when
    /// `resident_budget > 0`.
    pub compact: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            shards: 2,
            max_sessions: 32,
            max_streams: 1024,
            window: 256,
            tick: Duration::from_millis(20),
            write_timeout: Duration::from_secs(2),
            idle_timeout: Duration::from_secs(10),
            drain_timeout: Duration::from_secs(5),
            resident_budget: 0,
            spill_dir: None,
            compact: false,
        }
    }
}

impl ServerConfig {
    fn normalized(mut self) -> Self {
        self.shards = self.shards.clamp(1, 64);
        self.max_sessions = self.max_sessions.clamp(1, 4096);
        self.max_streams = self.max_streams.clamp(1, 1 << 20);
        self.window = self.window.clamp(2, 8192);
        self.tick = self.tick.clamp(Duration::from_millis(1), Duration::from_secs(1));
        self.write_timeout = self
            .write_timeout
            .clamp(Duration::from_millis(10), Duration::from_secs(60));
        self.idle_timeout = self.idle_timeout.max(self.tick);
        self
    }
}

/// Why the server could not start.
#[derive(Debug)]
pub enum ServeError {
    /// Binding, cloning or inspecting the listener failed.
    Io(std::io::Error),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "server socket error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Everything [`Server::shutdown`] learned.
#[derive(Debug, Clone)]
pub struct ServerReport {
    /// Merged telemetry: per-connection counters (with per-shard
    /// attribution), frame-size histogram, peak-gauge maxima.
    pub metrics: MetricsSnapshot,
    /// The shard pool's lifetime stats.
    pub pool: ShardStats,
    /// True when every in-flight connection finished inside the drain
    /// deadline (nothing was force-closed).
    pub drained_clean: bool,
}

/// A running prediction server.
///
/// Dropping a `Server` without calling [`Server::shutdown`] still stops
/// cleanly (the shard pool joins on drop), but skips the drain-deadline
/// wait and discards the report.
pub struct Server {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    pool: ShardPool,
}

impl fmt::Debug for Server {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Server")
            .field("local_addr", &self.local_addr)
            .field("active_sessions", &self.active_sessions())
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Binds, spawns the reactor shards and starts accepting.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] when the bind address is unusable or the
    /// listener cannot be cloned per shard.
    pub fn start(cfg: ServerConfig) -> Result<Server, ServeError> {
        let cfg = cfg.normalized();
        let listener = TcpListener::bind(cfg.addr.as_str()).map_err(ServeError::Io)?;
        listener.set_nonblocking(true).map_err(ServeError::Io)?;
        let local_addr = listener.local_addr().map_err(ServeError::Io)?;
        let shards = cfg.shards;
        let mut listeners: Vec<Option<TcpListener>> = Vec::with_capacity(shards);
        listeners.push(Some(listener.try_clone().map_err(ServeError::Io)?));
        for _ in 1..shards {
            listeners.push(Some(listener.try_clone().map_err(ServeError::Io)?));
        }
        let shared = Arc::new(Shared::new(cfg));
        let pool = ShardPool::spawn("ibp-serve", shards, |i| {
            let listener = listeners.get_mut(i).and_then(Option::take);
            let shard_shared = Arc::clone(&shared);
            move || {
                if let Some(listener) = listener {
                    shard_loop(i, listener, &shard_shared);
                }
            }
        });
        Ok(Server {
            local_addr,
            shared,
            pool,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Connections currently in flight.
    pub fn active_sessions(&self) -> usize {
        self.shared.active.load(Ordering::SeqCst)
    }

    /// Concurrently open mux streams right now, across all shards.
    pub fn active_streams(&self) -> u64 {
        self.shared.cur_streams.load(Ordering::SeqCst)
    }

    /// A point-in-time copy of the merged telemetry (connections merge
    /// their tallies when they end).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.lock_metrics().clone()
    }

    /// Stops accepting, drains in-flight connections (bounded by the
    /// configured drain deadline), joins the shards and reports.
    pub fn shutdown(self) -> ServerReport {
        self.shared.accepting.store(false, Ordering::SeqCst);
        // The drain deadline is a genuine wall-clock bound on how long
        // we wait for remote peers — an I/O-boundary quantity that never
        // feeds back into prediction or any pinned output.
        // ibp-lint: allow(L003, "drain deadline bounds waiting on remote peers at the I/O boundary; it never reaches simulated state")
        let started = std::time::Instant::now();
        while self.shared.active.load(Ordering::SeqCst) > 0
            && started.elapsed() < self.shared.cfg.drain_timeout
        {
            std::thread::sleep(Duration::from_millis(2));
        }
        let drained_clean = self.shared.active.load(Ordering::SeqCst) == 0;
        self.shared.force_close.store(true, Ordering::SeqCst);
        let pool = self.pool.join();
        let mut metrics = self.shared.lock_metrics().clone();
        metrics.record_max(
            "serve_peak_sessions",
            self.shared.peak_sessions.load(Ordering::SeqCst),
        );
        metrics.record_max(
            "serve_peak_streams",
            self.shared.peak_streams.load(Ordering::SeqCst),
        );
        metrics.record_max(
            "serve_peak_resident_bytes",
            self.shared.peak_resident.load(Ordering::SeqCst),
        );
        ServerReport {
            metrics,
            pool,
            drained_clean,
        }
    }
}
