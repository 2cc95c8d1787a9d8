//! The non-blocking serve plane: thread-per-core shards, each running a
//! readiness poll loop over its own connections.
//!
//! Every shard owns a non-blocking clone of the listener (sharded
//! accept: whichever shard polls first wins the connection; the rest see
//! `WouldBlock`) and a flat vector of [`Conn`]s. One reactor iteration
//! per shard:
//!
//! 1. **Accept burst** — drain the listener until `WouldBlock`,
//!    admitting connections against the global session cap.
//! 2. **Poll every connection** — flush its pending output, read until
//!    `WouldBlock` into a shard-wide scratch buffer, then run the
//!    connection's state (handshake → mux stream registry) over every
//!    complete frame, ending the iteration with one
//!    [`MuxConn::step_pending`] pass, so all of a connection's
//!    resident streams step their accumulated batches back-to-back —
//!    the decode → simulate → encode pipeline runs in lockstep across
//!    sessions instead of ping-ponging per frame.
//! 3. **Idle tick** — only when the whole shard made no progress:
//!    sleep one tick and age every connection and every *stream* —
//!    idle eviction is per stream; the connection itself is only evicted
//!    when it has no streams left.
//!
//! Writes are fully decoupled from the protocol logic: frames are
//! encoded into a per-connection output buffer, flushed as far as the
//! socket allows each iteration, with a hard cap so a non-reading
//! client cannot balloon server memory. Telemetry is merged into the
//! shared snapshot once per connection end (never per frame), with
//! per-shard attribution via [`ibp_metrics`]'s `*_shard{N}` counters.
//!
//! Nothing here keeps time except tick *counting* — the reactor's
//! clockless idle accounting matches PR 4/5's determinism discipline.

use crate::mux::{ConnFatal, MuxConn, MuxProgress, MAX_ENTRIES, MIN_ENTRIES};
use crate::protocol::{ErrorCode, FrameBuffer, ServerFrame};
use crate::spill::{DiskSpillStore, MemorySpillStore, SpillStore, TierCache};
use ibp_metrics::{Log2Histogram, MetricsSnapshot};
use ibp_sim::{PredictorKind, TableEncoding};
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use crate::server::ServerConfig;

/// Shard-wide read scratch: one buffer per shard, reused by every
/// connection poll (a read burst, not a per-connection allocation).
const READ_SCRATCH: usize = 256 * 1024;

/// Per-poll read budget: after this many bytes a connection yields so a
/// chatty peer cannot starve its shard siblings.
const READ_BURST_LIMIT: usize = 4 * READ_SCRATCH;

/// Hard cap on buffered output per connection; beyond it the peer is
/// not reading and the connection is dropped as a write failure.
const MAX_OUTBUF: usize = 64 << 20;

/// Above this much pending output the reactor stops *reading* from the
/// connection — backpressure propagates to the client's sends instead
/// of into server memory.
const OUTBUF_HIGH_WATER: usize = 8 << 20;

/// Cross-shard server state.
pub(crate) struct Shared {
    pub(crate) cfg: ServerConfig,
    pub(crate) accepting: AtomicBool,
    pub(crate) force_close: AtomicBool,
    pub(crate) active: AtomicUsize,
    pub(crate) peak_sessions: AtomicU64,
    pub(crate) cur_streams: AtomicU64,
    pub(crate) peak_streams: AtomicU64,
    pub(crate) metrics: Mutex<MetricsSnapshot>,
    /// Shared sealed base tiers for the multi-tenant memory plane;
    /// `Some` iff `cfg.resident_budget > 0`.
    pub(crate) tiers: Option<Arc<TierCache>>,
    /// Server-unique prefix source for per-connection disk spill files.
    pub(crate) conn_seq: AtomicU64,
    /// High-water mark of resident mux predictor bytes on any one
    /// shard (maintained by the budget enforcer).
    pub(crate) peak_resident: AtomicU64,
}

impl Shared {
    pub(crate) fn new(cfg: ServerConfig) -> Shared {
        let tiers = (cfg.resident_budget > 0).then(|| {
            Arc::new(TierCache::new(if cfg.compact {
                TableEncoding::Compact
            } else {
                TableEncoding::Plain
            }))
        });
        Shared {
            cfg,
            accepting: AtomicBool::new(true),
            force_close: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            peak_sessions: AtomicU64::new(0),
            cur_streams: AtomicU64::new(0),
            peak_streams: AtomicU64::new(0),
            metrics: Mutex::new(MetricsSnapshot::new()),
            tiers,
            conn_seq: AtomicU64::new(0),
            peak_resident: AtomicU64::new(0),
        }
    }

    /// Locks the telemetry snapshot, recovering from poisoning: the
    /// snapshot only ever accumulates monotone counters, so a poisoned
    /// guard cannot leave it inconsistent.
    // ibp-lint: allow(L009, "telemetry mutex: bounded critical section, never held across I/O")
    pub(crate) fn lock_metrics(&self) -> MutexGuard<'_, MetricsSnapshot> {
        match self.metrics.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

/// How a connection ended, for telemetry. Counter names are pinned by
/// the robustness suite — exactly PR 5's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SessionEnd {
    CleanBye,
    Eof,
    IdleEvicted,
    HandshakeRejected,
    ProtocolError,
    WriteFailed,
    IoFailed,
    ForcedShutdown,
}

impl SessionEnd {
    fn counter(self) -> &'static str {
        match self {
            SessionEnd::CleanBye => "serve_clean_byes",
            SessionEnd::Eof => "serve_eof_closes",
            SessionEnd::IdleEvicted => "serve_idle_evictions",
            SessionEnd::HandshakeRejected => "serve_handshake_rejects",
            SessionEnd::ProtocolError => "serve_protocol_errors",
            SessionEnd::WriteFailed => "serve_write_failures",
            SessionEnd::IoFailed => "serve_io_failures",
            SessionEnd::ForcedShutdown => "serve_forced_closes",
        }
    }
}

#[derive(Debug)]
struct Tallies {
    frames: u64,
    frame_bytes: Log2Histogram,
}

impl Tallies {
    fn new() -> Self {
        Tallies {
            frames: 0,
            frame_bytes: Log2Histogram::new(),
        }
    }
}

/// Where a connection is in its life: before or after the handshake.
#[allow(clippy::large_enum_variant)] // boxing the live variant adds an indirection to every poll
enum Plane {
    /// Still waiting for (or parsing) the handshake.
    Handshake,
    /// Handshake accepted: a stream registry.
    Mux {
        conn: MuxConn,
        /// Streams open after the previous poll, for maintaining the
        /// global concurrent-stream gauge by delta.
        last_streams: u64,
    },
}

/// One reactor-owned connection.
struct Conn {
    stream: TcpStream,
    buffer: FrameBuffer,
    outbuf: Vec<u8>,
    out_pos: usize,
    plane: Plane,
    tallies: Tallies,
    idle: Duration,
    end: Option<SessionEnd>,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            buffer: FrameBuffer::new(),
            outbuf: Vec::new(),
            out_pos: 0,
            plane: Plane::Handshake,
            tallies: Tallies::new(),
            idle: Duration::ZERO,
            end: None,
        }
    }

    fn pending_out(&self) -> usize {
        self.outbuf.len().saturating_sub(self.out_pos)
    }

    fn queue(&mut self, frame: &ServerFrame) {
        frame.put(&mut self.outbuf);
    }

    fn queue_error(&mut self, code: ErrorCode, detail: String) {
        self.queue(&ServerFrame::Error { code, detail });
    }

    fn finish(&mut self, end: SessionEnd) {
        if self.end.is_none() {
            self.end = Some(end);
        }
    }

    /// Writes as much buffered output as the socket accepts right now.
    /// Returns whether any bytes moved.
    fn flush_out(&mut self) -> bool {
        let mut progress = false;
        while self.out_pos < self.outbuf.len() {
            let chunk = self.outbuf.get(self.out_pos..).unwrap_or(&[]);
            match self.stream.write(chunk) {
                Ok(0) => {
                    self.finish(SessionEnd::WriteFailed);
                    break;
                }
                Ok(n) => {
                    self.out_pos = self.out_pos.saturating_add(n);
                    progress = true;
                }
                Err(e) => match e.kind() {
                    ErrorKind::WouldBlock => break,
                    ErrorKind::Interrupted => continue,
                    _ => {
                        self.finish(SessionEnd::WriteFailed);
                        break;
                    }
                },
            }
        }
        if self.out_pos >= self.outbuf.len() {
            self.outbuf.clear();
            self.out_pos = 0;
        } else if self.out_pos > OUTBUF_HIGH_WATER {
            // Reclaim the flushed prefix so a long-lived slow reader
            // doesn't pin an ever-growing buffer.
            self.outbuf.drain(..self.out_pos);
            self.out_pos = 0;
        }
        if self.pending_out() > MAX_OUTBUF {
            self.finish(SessionEnd::WriteFailed);
        }
        progress
    }

    /// One last, bounded-blocking attempt to land queued frames (error
    /// reports, bye acks) before the socket is dropped.
    // ibp-lint: allow(L009, "teardown path: deliberate blocking flush bounded by the write timeout")
    fn final_flush(&mut self, write_timeout: Duration) {
        if self.pending_out() == 0 {
            return;
        }
        let _ = self.stream.set_nonblocking(false);
        let _ = self.stream.set_write_timeout(Some(write_timeout));
        let chunk = self.outbuf.get(self.out_pos..).unwrap_or(&[]);
        let _ = self.stream.write_all(chunk);
        let _ = self.stream.flush();
    }

    /// Reads until `WouldBlock`, EOF or the fairness budget. Returns
    /// (made_progress, saw_eof).
    fn read_burst(&mut self, scratch: &mut [u8]) -> (bool, bool) {
        let mut progress = false;
        let mut total = 0usize;
        loop {
            match self.stream.read(scratch) {
                Ok(0) => return (progress, true),
                Ok(n) => {
                    self.buffer.feed(scratch.get(..n).unwrap_or(&[]));
                    progress = true;
                    total = total.saturating_add(n);
                    if total >= READ_BURST_LIMIT {
                        return (progress, false);
                    }
                }
                Err(e) => match e.kind() {
                    ErrorKind::WouldBlock => return (progress, false),
                    ErrorKind::Interrupted => continue,
                    _ => {
                        self.finish(SessionEnd::IoFailed);
                        return (progress, false);
                    }
                },
            }
        }
    }

    /// Parses the handshake if complete, opening the stream registry.
    /// Returns true when more frames may follow this poll.
    fn advance_handshake(&mut self, shared: &Shared) -> bool {
        let cfg = &shared.cfg;
        let hello = match self.buffer.next_hello() {
            Ok(Some(h)) => h,
            Ok(None) => return false,
            Err(e) => {
                self.queue_error(e.error_code(), e.to_string());
                self.finish(SessionEnd::HandshakeRejected);
                return false;
            }
        };
        // The hello's predictor and budget bind nothing (streams declare
        // their own per MUX_OPEN) but are vetted like a MUX_OPEN's, so a
        // client learns of a bad default before opening any stream.
        if PredictorKind::from_wire_code(hello.predictor_code).is_none() {
            self.queue_error(
                ErrorCode::UnknownPredictor,
                format!("wire code {:#04x} is unassigned", hello.predictor_code),
            );
            self.finish(SessionEnd::HandshakeRejected);
            return false;
        }
        if hello.entries > MAX_ENTRIES {
            // Too large is its own typed rejection: the budget was
            // well-formed, the server just caps per-session tables at
            // the documented maximum.
            self.queue_error(
                ErrorCode::EntriesTooLarge,
                format!("entries {} above the cap of {MAX_ENTRIES}", hello.entries),
            );
            self.finish(SessionEnd::HandshakeRejected);
            return false;
        }
        if hello.entries < MIN_ENTRIES {
            self.queue_error(
                ErrorCode::BadBudget,
                format!(
                    "entries {} outside {MIN_ENTRIES}..={MAX_ENTRIES}",
                    hello.entries
                ),
            );
            self.finish(SessionEnd::HandshakeRejected);
            return false;
        }
        let conn = match &shared.tiers {
            Some(tiers) => {
                // Memory plane on: streams fork from the shared
                // sealed tiers, and this connection gets its own
                // spill store (stream ids are conn-scoped).
                let store: Box<dyn SpillStore> = match &cfg.spill_dir {
                    Some(dir) => {
                        let prefix = shared.conn_seq.fetch_add(1, Ordering::SeqCst);
                        match DiskSpillStore::new(dir, prefix) {
                            Ok(s) => Box::new(s),
                            // An unusable spill directory degrades
                            // to heap spill rather than refusing
                            // service.
                            Err(_) => Box::new(MemorySpillStore::new()),
                        }
                    }
                    None => Box::new(MemorySpillStore::new()),
                };
                MuxConn::with_memory(
                    cfg.window,
                    cfg.max_streams,
                    Some(Arc::clone(tiers)),
                    Some(store),
                )
            }
            None => MuxConn::new(cfg.window, cfg.max_streams),
        };
        self.queue(&conn.hello_ack());
        self.plane = Plane::Mux {
            conn,
            last_streams: 0,
        };
        true
    }

    /// Runs the stream registry over every complete frame in the
    /// buffer, then steps accumulated batches.
    fn process(&mut self, shared: &Shared, responses: &mut Vec<ServerFrame>) {
        if matches!(self.plane, Plane::Handshake) && !self.advance_handshake(shared) {
            return;
        }
        loop {
            if self.end.is_some() {
                break;
            }
            let raw = match self.buffer.next_frame() {
                Ok(Some(raw)) => raw,
                Ok(None) => break,
                Err(e) => {
                    self.queue_error(e.error_code(), e.to_string());
                    self.finish(SessionEnd::ProtocolError);
                    break;
                }
            };
            self.tallies.frames = self.tallies.frames.saturating_add(1);
            self.tallies.frame_bytes.record(raw.payload.len() as u64);
            let Plane::Mux { conn, .. } = &mut self.plane else {
                break;
            };
            responses.clear();
            match conn.on_frame(&raw, responses) {
                Ok(MuxProgress::Continue) => {
                    for f in responses.iter() {
                        f.put(&mut self.outbuf);
                    }
                }
                Ok(MuxProgress::Bye) => {
                    for f in responses.iter() {
                        f.put(&mut self.outbuf);
                    }
                    self.finish(SessionEnd::CleanBye);
                }
                Err(ConnFatal::Protocol(e)) => {
                    self.queue_error(e.error_code(), e.to_string());
                    self.finish(SessionEnd::ProtocolError);
                }
            }
        }
        // The lockstep pass: every stream that accumulated events this
        // poll steps its whole backlog in one monomorphized batch call.
        if let Plane::Mux { conn, .. } = &mut self.plane {
            if conn.pending_events() > 0 {
                responses.clear();
                conn.step_pending(responses);
                for f in responses.iter() {
                    f.put(&mut self.outbuf);
                }
            }
        }
    }

    /// One reactor visit. Returns whether any bytes moved either way.
    /// `now` is the shard-loop iteration counter, advancing every mux
    /// stream's LRU clock consistently across the shard's connections.
    fn poll(
        &mut self,
        shared: &Shared,
        now: u64,
        scratch: &mut [u8],
        responses: &mut Vec<ServerFrame>,
    ) -> bool {
        let mut progress = self.flush_out();
        if self.end.is_some() {
            return progress;
        }
        if let Plane::Mux { conn, .. } = &mut self.plane {
            conn.set_clock(now);
        }
        if self.pending_out() <= OUTBUF_HIGH_WATER {
            let (read_progress, eof) = self.read_burst(scratch);
            progress |= read_progress;
            if read_progress {
                self.idle = Duration::ZERO;
            }
            self.process(shared, responses);
            if eof && self.end.is_none() {
                // Mid-batch EOF included: whatever partial frame the
                // buffer holds is discarded with the connection.
                self.finish(SessionEnd::Eof);
            }
            progress |= self.flush_out();
        }
        progress
    }

    /// One idle tick (the shard made no progress anywhere). Mux
    /// connections age per stream; a connection only dies of idleness
    /// when it has no streams to age.
    fn on_idle_tick(&mut self, cfg: &ServerConfig, responses: &mut Vec<ServerFrame>) {
        if self.end.is_some() {
            return;
        }
        if let Plane::Mux { conn, .. } = &mut self.plane {
            if conn.open_streams() > 0 {
                self.idle = Duration::ZERO;
                responses.clear();
                let limit = idle_limit_ticks(cfg);
                if conn.tick_idle(limit, responses) > 0 {
                    for f in responses.iter() {
                        f.put(&mut self.outbuf);
                    }
                }
                return;
            }
        }
        self.idle = self.idle.saturating_add(cfg.tick);
        if self.idle >= cfg.idle_timeout {
            let detail = match self.plane {
                Plane::Handshake => "no handshake".to_string(),
                _ => format!("no frames within {:?}", cfg.idle_timeout),
            };
            self.queue_error(ErrorCode::IdleTimeout, detail);
            self.finish(SessionEnd::IdleEvicted);
        }
    }

    /// Merges this connection's lifetime telemetry into the shared
    /// snapshot — one lock per connection end, never per frame.
    fn merge_metrics(&mut self, shard: usize, shared: &Shared) {
        let end = self.end.unwrap_or(SessionEnd::IoFailed);
        let mut metrics = shared.lock_metrics();
        metrics.add_counter("serve_sessions", 1);
        metrics.add_shard_counter("serve_sessions", shard, 1);
        metrics.add_counter(end.counter(), 1);
        metrics.add_counter("serve_frames", self.tallies.frames);
        metrics.merge_histogram("serve_frame_bytes", &self.tallies.frame_bytes);
        if let Plane::Mux { conn, .. } = &self.plane {
            let t = conn.tallies();
            metrics.add_counter("serve_events", t.events);
            metrics.add_shard_counter("serve_events", shard, t.events);
            metrics.add_counter("serve_predictions", t.predictions);
            metrics.add_counter("serve_mispredictions", t.mispredictions);
            metrics.add_counter("serve_mux_streams", t.opened);
            metrics.add_counter("serve_mux_clean_closes", t.closed_clean);
            metrics.add_counter("serve_mux_stream_errors", t.stream_errors);
            metrics.add_counter("serve_mux_window_overflows", t.window_overflows);
            metrics.add_counter("serve_mux_backpressure", t.backpressure_warnings);
            metrics.add_counter("serve_idle_evictions", t.idle_evictions);
            metrics.add_counter("serve_mux_spilled", t.spilled);
            metrics.add_counter("serve_mux_restored", t.restored);
            metrics.add_counter("serve_spill_bytes", t.spill_bytes);
            metrics.add_counter("serve_restore_bytes", t.restore_bytes);
            metrics.add_counter("serve_spill_failures", t.spill_failures);
            metrics.record_max("serve_bytes_per_session", t.max_session_bytes);
            metrics.record_max("serve_peak_spilled_streams", t.peak_spilled_streams);
        }
    }
}

/// Spills least-recently-touched streams (across every mux connection
/// on the shard, by the shared iteration clock) until resident
/// predictor bytes fit the shard's budget share. Stops early when
/// nothing spillable remains or a spill fails.
fn enforce_budget(conns: &mut [Conn], budget: u64, shared: &Shared) {
    loop {
        let total: u64 = conns
            .iter()
            .map(|c| match &c.plane {
                Plane::Mux { conn, .. } => conn.resident_bytes() as u64,
                _ => 0,
            })
            .sum();
        shared.peak_resident.fetch_max(total, Ordering::SeqCst);
        if total <= budget {
            return;
        }
        let mut coldest: Option<(usize, u64, u64)> = None;
        for (i, c) in conns.iter().enumerate() {
            if let Plane::Mux { conn, .. } = &c.plane {
                if let Some((stream, touch)) = conn.coldest_active() {
                    if coldest.is_none_or(|(_, _, t)| touch < t) {
                        coldest = Some((i, stream, touch));
                    }
                }
            }
        }
        let Some((i, stream, _)) = coldest else { return };
        let Some(c) = conns.get_mut(i) else { return };
        let Plane::Mux { conn, .. } = &mut c.plane else {
            return;
        };
        if conn.spill_stream(stream).is_none() {
            return;
        }
    }
}

// ibp-lint: allow(L007, "divisor is the tick interval, clamped to a nonzero minimum")
fn idle_limit_ticks(cfg: &ServerConfig) -> u32 {
    let tick = cfg.tick.as_nanos().max(1);
    let limit = cfg.idle_timeout.as_nanos() / tick;
    u32::try_from(limit).unwrap_or(u32::MAX).max(1)
}

/// Maintains the global concurrent-stream gauge from one connection's
/// open-stream delta.
fn track_streams(conn: &mut Conn, shared: &Shared) {
    if let Plane::Mux {
        conn: mux,
        last_streams,
    } = &mut conn.plane
    {
        let now = mux.open_streams() as u64;
        if now > *last_streams {
            let cur = shared
                .cur_streams
                .fetch_add(now - *last_streams, Ordering::SeqCst)
                .saturating_add(now - *last_streams);
            shared.peak_streams.fetch_max(cur, Ordering::SeqCst);
        } else if now < *last_streams {
            shared
                .cur_streams
                .fetch_sub(*last_streams - now, Ordering::SeqCst);
        }
        *last_streams = now;
    }
}

/// Best-effort `ERROR busy` on a connection rejected at the accept
/// gate (the socket is still blocking at this point).
// ibp-lint: allow(L009, "pre-admission socket is still blocking; bounded by the write timeout")
fn send_busy(stream: &mut TcpStream, write_timeout: Duration) {
    let _ = stream.set_write_timeout(Some(write_timeout));
    let mut buf = Vec::new();
    ServerFrame::Error {
        code: ErrorCode::Busy,
        detail: "session table full".to_string(),
    }
    .put(&mut buf);
    let _ = stream.write_all(&buf);
    let _ = stream.flush();
}

/// Accepts until `WouldBlock`, admitting against the global cap.
/// Returns whether any connection arrived.
// ibp-lint: allow(L009, "listener is nonblocking: accept returns WouldBlock instead of parking")
fn accept_burst(listener: &TcpListener, shared: &Shared, conns: &mut Vec<Conn>) -> bool {
    let mut progress = false;
    loop {
        let (mut stream, _) = match listener.accept() {
            Ok(pair) => pair,
            Err(e) => match e.kind() {
                ErrorKind::Interrupted => continue,
                _ => break,
            },
        };
        if !shared.accepting.load(Ordering::SeqCst) {
            break;
        }
        let now = shared.active.fetch_add(1, Ordering::SeqCst).saturating_add(1);
        if now > shared.cfg.max_sessions {
            shared.active.fetch_sub(1, Ordering::SeqCst);
            send_busy(&mut stream, shared.cfg.write_timeout);
            shared.lock_metrics().add_counter("serve_rejected_busy", 1);
            continue;
        }
        shared
            .peak_sessions
            .fetch_max(now as u64, Ordering::SeqCst);
        let _ = stream.set_nodelay(true);
        if stream.set_nonblocking(true).is_err() {
            shared.active.fetch_sub(1, Ordering::SeqCst);
            continue;
        }
        conns.push(Conn::new(stream));
        progress = true;
    }
    progress
}

/// One shard's reactor loop: sharded accept plus a readiness poll over
/// its resident connections, until the server stops accepting and the
/// last connection drains (or is force-closed).
// ibp-lint: allow(L007, "divisors are config intervals validated nonzero at startup")
pub(crate) fn shard_loop(shard: usize, listener: TcpListener, shared: &Shared) {
    let mut conns: Vec<Conn> = Vec::new();
    let mut scratch = vec![0u8; READ_SCRATCH];
    let mut responses: Vec<ServerFrame> = Vec::new();
    // Stall strategy: a shard that made no progress first *yields* (a
    // lockstep peer on the same core gets the CPU and its reply lands
    // within microseconds), then falls back to short naps. Naps — not
    // iterations — accumulate into idle ticks, so idle accounting keeps
    // the configured tick granularity regardless of nap length.
    let nap = shared.cfg.tick.min(Duration::from_millis(1));
    let naps_per_tick =
        u32::try_from((shared.cfg.tick.as_nanos() / nap.as_nanos().max(1)).max(1))
            .unwrap_or(u32::MAX);
    let mut stalls = 0u32;
    let mut naps = 0u32;
    // Each shard enforces its share of the server-wide resident-bytes
    // budget (0 = memory plane off).
    let shard_budget = if shared.cfg.resident_budget > 0 {
        (shared.cfg.resident_budget / shared.cfg.shards.max(1) as u64).max(1)
    } else {
        0
    };
    // The LRU clock: one tick per reactor iteration, shared by every
    // connection on the shard so "least recently touched" is
    // well-ordered across connections.
    let mut now = 0u64;
    loop {
        now = now.saturating_add(1);
        let mut progress = false;
        let accepting = shared.accepting.load(Ordering::SeqCst);
        if accepting {
            progress |= accept_burst(&listener, shared, &mut conns);
        }
        if shared.force_close.load(Ordering::SeqCst) {
            for conn in &mut conns {
                if conn.end.is_none() {
                    conn.queue_error(ErrorCode::ShuttingDown, "server draining".to_string());
                    conn.finish(SessionEnd::ForcedShutdown);
                }
            }
        }
        let mut i = 0usize;
        while i < conns.len() {
            let Some(conn) = conns.get_mut(i) else { break };
            if conn.end.is_none() {
                progress |= conn.poll(shared, now, &mut scratch, &mut responses);
            }
            track_streams(conn, shared);
            if conn.end.is_some() {
                let mut done = conns.swap_remove(i);
                done.final_flush(shared.cfg.write_timeout);
                // Streams still open at connection death leave the
                // global gauge.
                if let Plane::Mux { last_streams, .. } = &done.plane {
                    shared.cur_streams.fetch_sub(*last_streams, Ordering::SeqCst);
                }
                done.merge_metrics(shard, shared);
                shared.active.fetch_sub(1, Ordering::SeqCst);
                progress = true;
            } else {
                i += 1;
            }
        }
        if shard_budget > 0 {
            enforce_budget(&mut conns, shard_budget, shared);
        }
        if !accepting && conns.is_empty() {
            return;
        }
        if progress {
            stalls = 0;
            continue;
        }
        stalls = stalls.saturating_add(1);
        if stalls < 64 {
            std::thread::yield_now();
            continue;
        }
        std::thread::sleep(nap); // ibp-lint: allow(L009, "idle backoff nap after 64 spin-yields; tick-aligned and bounded")
        naps = naps.saturating_add(1);
        if naps >= naps_per_tick {
            naps = 0;
            for conn in &mut conns {
                conn.on_idle_tick(&shared.cfg, &mut responses);
            }
        }
    }
}
