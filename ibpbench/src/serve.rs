//! `serve` and `fleet`: the online prediction service under sustained
//! closed-loop load.
//!
//! A 1-shard `ibp_serve::Server` runs in this process; the client runs
//! on the calling thread, so the workload uses two threads. The client
//! is one v3 (mux) connection carrying many PPM-hyb streams. Stream `s`
//! replays suite run `s mod 15` from a staggered offset, 512 events per
//! batch, and batches go to the streams round robin.
//!
//! Every request is one `MUX_EVENT_BATCH` plus one `MUX_FLUSH` on the
//! same stream, and it completes when that stream's `MUX_STATS` comes
//! back. The loop keeps eight requests outstanding: with a single
//! caller the reactor falls into its idle back-off between requests and
//! throughput turns bimodal, with eight it never idles. `MuxClient`
//! cannot drive this loop — its `stats` blocks on one stream and drops
//! other streams' answers — so the client here speaks the same frames
//! through `ibp_serve::protocol`.

use crate::grid::elapsed_ns;
use crate::inputs::Pool;
use crate::report::{value, Ctx, Outcome, Value, Window};
use crate::spans::Spans;
use crate::stats::Fnv;
use ibp_serve::protocol::{
    frame_type, put_hello, put_mux_events_frame, put_mux_open, put_mux_stream_frame,
    put_simple_frame, FrameBuffer, Hello, ServerFrame,
};
use ibp_serve::{Server, ServerConfig, ServerReport, MIN_ENTRIES};
use ibp_sim::PredictorKind;
use ibp_trace::wire::EventDeltaState;
use ibp_trace::{BranchEvent, Trace};
use ibp_workloads::BenchmarkSpec;
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

pub const KIND: PredictorKind = PredictorKind::PpmHyb;
pub const ENTRIES: u64 = 2048;
pub const BATCH: usize = 512;
pub const IN_FLIGHT: usize = 8;
const SETUPS: usize = 5;

/// One serving traffic mix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shape {
    pub streams: usize,
    /// Batches sent per second of `--seconds`: sized so the timed phase
    /// lasts about that long on the reference two-core machine, while
    /// the amount of work — and so every receipt — stays a pure
    /// function of the arguments.
    pub batches_per_s: u64,
    /// Server-wide resident-bytes budget for sessions (0 = off).
    pub budget: u64,
    pub compact: bool,
    /// Every `check_every`-th stream is re-simulated offline.
    pub check_every: usize,
    /// Requests per timing window, about half a second's worth.
    pub window_requests: usize,
}

/// 64 streams on plain tables: every session stays resident and fits
/// in L2.
pub const SERVE: Shape = Shape {
    streams: 64,
    batches_per_s: 16_000,
    budget: 0,
    compact: false,
    check_every: 8,
    window_requests: 8_000,
};

/// 2048 streams on compact tables under a 4 MiB budget with heap
/// spill: the working set is far above L2 and nearly every batch pays a
/// snapshot restore.
pub const FLEET: Shape = Shape {
    streams: 2048,
    batches_per_s: 4_500,
    budget: 4 << 20,
    compact: true,
    check_every: 32,
    window_requests: 2_250,
};

/// Batches of the serve path when another workload's traced run probes
/// it.
pub const PROBE_BATCHES: u64 = 16_000;

/// The batch schedule: which stream batch `b` goes to and which events
/// it carries.
pub struct Feed<'a> {
    traces: &'a [Trace],
    streams: usize,
}

impl<'a> Feed<'a> {
    pub fn new(traces: &'a [Trace], streams: usize) -> Self {
        Feed { traces, streams }
    }

    fn trace_of(&self, s: usize) -> &[BranchEvent] {
        self.traces[s % self.traces.len()].events()
    }

    /// Stream `s`'s starting offset: the streams replaying one run are
    /// spread evenly over it.
    fn offset(&self, s: usize) -> usize {
        let per_run = self.streams.div_ceil(self.traces.len());
        (s / self.traces.len()) * self.trace_of(s).len() / per_run
    }

    /// Fills `out` with batch `b` and returns its stream.
    pub fn batch(&self, b: u64, out: &mut Vec<BranchEvent>) -> usize {
        let s = (b % self.streams as u64) as usize;
        let k = (b / self.streams as u64) as usize;
        let trace = self.trace_of(s);
        let start = self.offset(s) + k * BATCH;
        out.clear();
        out.extend((0..BATCH).map(|j| trace[(start + j) % trace.len()]));
        s
    }

    /// Every event the first `batches` batches send on stream `s`.
    pub fn sent(&self, s: usize, batches: u64) -> impl Iterator<Item = BranchEvent> + '_ {
        let n =
            batches / self.streams as u64 + u64::from((s as u64) < batches % self.streams as u64);
        let trace = self.trace_of(s);
        let start = self.offset(s);
        (0..n as usize * BATCH).map(move |i| trace[(start + i) % trace.len()])
    }
}

/// A blocking mux connection that lets the caller keep several
/// requests outstanding.
struct PipeClient {
    sock: TcpStream,
    frames: FrameBuffer,
    out: Vec<u8>,
    scratch: Vec<u8>,
}

impl PipeClient {
    fn connect(addr: SocketAddr) -> Result<Self, String> {
        let sock = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        sock.set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        let mut c = PipeClient {
            sock,
            frames: FrameBuffer::new(),
            out: Vec::new(),
            scratch: vec![0; 1 << 16],
        };
        put_hello(
            &mut c.out,
            &Hello::mux(PredictorKind::Btb.wire_code(), MIN_ENTRIES),
        );
        c.send()?;
        match c.recv()? {
            ServerFrame::MuxHelloAck { .. } => Ok(c),
            other => Err(format!("handshake answered with {other:?}")),
        }
    }

    fn send(&mut self) -> Result<(), String> {
        self.sock
            .write_all(&self.out)
            .map_err(|e| format!("write: {e}"))?;
        self.out.clear();
        Ok(())
    }

    fn recv(&mut self) -> Result<ServerFrame, String> {
        loop {
            if let Some(raw) = self
                .frames
                .next_frame()
                .map_err(|e| format!("framing: {e}"))?
            {
                return ServerFrame::decode(&raw).map_err(|e| format!("decode: {e}"));
            }
            let n = self
                .sock
                .read(&mut self.scratch)
                .map_err(|e| format!("read: {e}"))?;
            if n == 0 {
                return Err("server closed the connection".to_string());
            }
            self.frames.feed(&self.scratch[..n]);
        }
    }
}

struct Setup {
    server: Server,
    client: PipeClient,
    traces: Vec<Trace>,
}

fn setup(
    shape: &Shape,
    specs: &[BenchmarkSpec],
    scale: f64,
    pool: &Pool,
    spans: &Spans,
    parent: u64,
) -> Result<Setup, String> {
    let traces: Vec<Trace> = spans.span(parent, 0, "exec.generate", |id| {
        pool.run(specs.len(), |i| {
            spans.span(id, 0, "workloads.generate_scaled", |_| {
                specs[i].generate_scaled(scale)
            })
        })
    });
    let server = spans
        .span(parent, 0, "serve.start", |_| {
            Server::start(ServerConfig {
                shards: 1,
                max_sessions: 4,
                max_streams: shape.streams as u64,
                window: 8192,
                resident_budget: shape.budget,
                compact: shape.compact,
                ..ServerConfig::default()
            })
        })
        .map_err(|e| format!("server start: {e}"))?;
    let mut client = PipeClient::connect(server.local_addr())?;
    spans.span(parent, 0, "serve.open", |_| {
        for s in 0..shape.streams {
            put_mux_open(&mut client.out, s as u64, KIND.wire_code(), ENTRIES, false);
        }
        client.send()?;
        let mut opened = 0;
        while opened < shape.streams {
            match client.recv()? {
                ServerFrame::MuxOpenAck { .. } => opened += 1,
                other => return Err(format!("open answered with {other:?}")),
            }
        }
        Ok::<(), String>(())
    })?;
    Ok(Setup {
        server,
        client,
        traces,
    })
}

/// What the timed closed loop saw.
struct Drive {
    started: Instant,
    wall_ns: u64,
    rtt_ns: Vec<u64>,
    /// When each acknowledged request completed, since `started`.
    done_ns: Vec<u64>,
    send_ns: u64,
    wait_ns: u64,
    acked: u64,
    failed: u64,
    sent_events: Vec<u64>,
    dead: Vec<bool>,
    failures: Vec<String>,
}

struct Request {
    batch: u64,
    stream: usize,
    sent_at: Instant,
    expect_events: u64,
}

fn drive(
    client: &mut PipeClient,
    feed: &Feed,
    shape: &Shape,
    batches: u64,
    spans: &Spans,
    parent: u64,
) -> Result<Drive, String> {
    let streams = shape.streams;
    let mut d = Drive {
        started: Instant::now(),
        wall_ns: 0,
        rtt_ns: Vec::with_capacity(batches as usize),
        done_ns: Vec::with_capacity(batches as usize),
        send_ns: 0,
        wait_ns: 0,
        acked: 0,
        failed: 0,
        sent_events: vec![0; streams],
        dead: vec![false; streams],
        failures: Vec::new(),
    };
    let mut enc = vec![EventDeltaState::new(); streams];
    let mut pending: VecDeque<Request> = VecDeque::with_capacity(IN_FLIGHT);
    let mut events = Vec::with_capacity(BATCH);
    d.started = Instant::now();
    for b in 0..batches {
        let s = feed.batch(b, &mut events);
        if d.dead[s] {
            d.failed += 1;
            continue;
        }
        let sent_at = Instant::now();
        spans.span(parent, b, "client.send", |_| {
            put_mux_events_frame(&mut enc[s], s as u64, &events, &mut client.out);
            put_mux_stream_frame(frame_type::MUX_FLUSH, s as u64, &mut client.out);
            client.send()
        })?;
        d.send_ns += elapsed_ns(sent_at);
        d.sent_events[s] += BATCH as u64;
        pending.push_back(Request {
            batch: b,
            stream: s,
            sent_at,
            expect_events: d.sent_events[s],
        });
        while pending.len() >= IN_FLIGHT {
            complete_one(client, &mut pending, &mut d, spans, parent)?;
        }
    }
    while !pending.is_empty() {
        complete_one(client, &mut pending, &mut d, spans, parent)?;
    }
    d.wall_ns = elapsed_ns(d.started);
    Ok(d)
}

/// Blocks until the oldest outstanding request completes (or fails).
fn complete_one(
    client: &mut PipeClient,
    pending: &mut VecDeque<Request>,
    d: &mut Drive,
    spans: &Spans,
    parent: u64,
) -> Result<(), String> {
    let Some(front) = pending.front() else {
        return Ok(());
    };
    let waited = Instant::now();
    spans.span(parent, front.batch, "client.wait", |_| loop {
        let Some(front) = pending.front() else {
            return Ok(());
        };
        match client.recv()? {
            ServerFrame::MuxStats { stream, events, .. } if stream == front.stream as u64 => {
                if events == front.expect_events {
                    d.acked += 1;
                    d.rtt_ns.push(elapsed_ns(front.sent_at));
                    d.done_ns.push(elapsed_ns(d.started));
                } else {
                    d.failed += 1;
                    d.failures.push(format!(
                        "stream {stream}: server stepped {events} events, client sent {}",
                        front.expect_events
                    ));
                }
                pending.pop_front();
                return Ok(());
            }
            ServerFrame::MuxStats { stream, .. } => {
                return Err(format!("stats for stream {stream} arrived out of order"));
            }
            ServerFrame::MuxError {
                stream,
                code,
                detail,
            } => {
                let s = stream as usize;
                if s < d.dead.len() && !d.dead[s] {
                    d.dead[s] = true;
                    d.failures
                        .push(format!("stream {stream} killed: {code} ({detail})"));
                    let before = pending.len();
                    pending.retain(|r| r.stream != s);
                    d.failed += (before - pending.len()) as u64;
                    if pending.is_empty() {
                        return Ok(());
                    }
                }
            }
            ServerFrame::Error { code, detail } => {
                return Err(format!("connection failed: {code} ({detail})"));
            }
            _ => {}
        }
    })?;
    d.wait_ns += elapsed_ns(waited);
    Ok(())
}

type Receipt = (u64, u64, u64, Vec<(u64, u64, u64)>);

/// Closes every live stream, collects the receipts and says goodbye.
fn close_all(client: &mut PipeClient, d: &mut Drive) -> Result<Vec<Option<Receipt>>, String> {
    let live: Vec<usize> = (0..d.dead.len()).filter(|&s| !d.dead[s]).collect();
    for &s in &live {
        put_mux_stream_frame(frame_type::MUX_CLOSE, s as u64, &mut client.out);
    }
    client.send()?;
    let mut receipts: Vec<Option<Receipt>> = vec![None; d.dead.len()];
    let mut waiting = live.len();
    while waiting > 0 {
        match client.recv()? {
            ServerFrame::MuxClosed {
                stream,
                events,
                predictions,
                mispredictions,
                per_branch,
            } => {
                if let Some(slot) = receipts.get_mut(stream as usize) {
                    *slot = Some((events, predictions, mispredictions, per_branch));
                    waiting -= 1;
                }
            }
            ServerFrame::MuxError {
                stream,
                code,
                detail,
            } => {
                d.failures.push(format!(
                    "close of stream {stream} failed: {code} ({detail})"
                ));
                waiting -= 1;
            }
            ServerFrame::Error { code, detail } => {
                return Err(format!("connection failed at close: {code} ({detail})"));
            }
            _ => {}
        }
    }
    let events = bye(client)?;
    let sent: u64 = d.sent_events.iter().sum();
    if events != sent {
        d.failures.push(format!(
            "server stepped {events} events in all, client sent {sent}"
        ));
    }
    Ok(receipts)
}

/// Says goodbye; returns the events the server stepped on the
/// connection.
fn bye(client: &mut PipeClient) -> Result<u64, String> {
    put_simple_frame(frame_type::BYE, &mut client.out);
    client.send()?;
    loop {
        if let ServerFrame::ByeAck { events } = client.recv()? {
            return Ok(events);
        }
    }
}

/// The server-side failure counters that must stay zero.
fn server_failures(report: &ServerReport) -> Vec<String> {
    let m = &report.metrics;
    let protocol_errors = protocol_errors(report);
    let mut out = Vec::new();
    if !report.drained_clean {
        out.push("server did not drain clean".to_string());
    }
    for (what, n) in [
        ("idle evictions", m.counter("serve_idle_evictions")),
        ("protocol errors", protocol_errors),
        ("spill failures", m.counter("serve_spill_failures")),
        ("backpressure warnings", m.counter("serve_mux_backpressure")),
        ("shard panics", report.pool.panicked),
    ] {
        if n != 0 {
            out.push(format!("{n} {what}"));
        }
    }
    out
}

fn protocol_errors(report: &ServerReport) -> u64 {
    let m = &report.metrics;
    [
        "serve_protocol_errors",
        "serve_handshake_rejects",
        "serve_window_overflows",
        "serve_mux_window_overflows",
        "serve_mux_stream_errors",
        "serve_write_failures",
        "serve_io_failures",
    ]
    .iter()
    .map(|c| m.counter(c))
    .sum()
}

/// Everything one measured serve session produced.
pub struct Served {
    pub digest: String,
    pub acked: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub wall_ns: u64,
    pub windows: Vec<Window>,
    pub setup_s: Vec<f64>,
    pub startup_s: f64,
    pub traces: Vec<Trace>,
    pub layers: Vec<Value>,
}

/// Sets up `SETUPS` times (keeping the last), drives `batches` requests,
/// closes every stream and checks the receipts.
pub fn serve(
    shape: &Shape,
    specs: &[BenchmarkSpec],
    scale: f64,
    batches: u64,
    pool: &Pool,
    spans: &Spans,
    process_start: Instant,
) -> Result<Served, String> {
    let mut setup_s = Vec::new();
    let mut kept = None;
    for i in 0..SETUPS {
        // The pool's totals describe the kept (last) set-up only.
        pool.take_totals();
        let t = Instant::now();
        let mut s = spans.span(0, 0, "bench.setup", |id| {
            setup(shape, specs, scale, pool, spans, id)
        })?;
        setup_s.push(t.elapsed().as_secs_f64());
        if i + 1 < SETUPS {
            bye(&mut s.client)?;
            s.server.shutdown();
        } else {
            kept = Some(s);
        }
    }
    let Setup {
        server,
        mut client,
        traces,
    } = kept.ok_or("no set-up ran")?;
    let pool_totals = pool.take_totals();
    let startup_s = process_start.elapsed().as_secs_f64();

    let feed = Feed::new(&traces, shape.streams);
    let mut d = spans.span(0, 0, "bench.rep", |id| {
        drive(&mut client, &feed, shape, batches, spans, id)
    })?;
    let receipts = close_all(&mut client, &mut d)?;
    drop(client);
    let report = server.shutdown();

    let mut failures = std::mem::take(&mut d.failures);
    failures.extend(server_failures(&report));
    let mut failed = d.failed;
    let mut digest = Fnv::new();
    for (s, receipt) in receipts.iter().enumerate() {
        let Some((events, predictions, mispredictions, per_branch)) = receipt else {
            continue;
        };
        digest = digest
            .u64(s as u64)
            .u64(*events)
            .u64(*predictions)
            .u64(*mispredictions);
        for &(pc, p, m) in per_branch {
            digest = digest.u64(pc).u64(p).u64(m);
        }
        let stream_batches = d.sent_events[s] / BATCH as u64;
        let mut wrong = *events != d.sent_events[s];
        if !wrong && s % shape.check_every == 0 {
            let offline = KIND.simulate_events(ENTRIES as usize, feed.sent(s, batches));
            let sites: Vec<(u64, u64, u64)> = offline
                .branches()
                .into_iter()
                .map(|(pc, p, m)| (pc.raw(), p, m))
                .collect();
            wrong = offline.predictions() != *predictions
                || offline.mispredictions() != *mispredictions
                || &sites != per_branch;
        }
        if wrong {
            failed += stream_batches;
            failures.push(format!(
                "stream {s}: close receipt differs from offline simulation"
            ));
        }
    }

    let m = &report.metrics;
    let frame_bytes = m.histogram("serve_frame_bytes").map_or(0, |h| h.total());
    let layers = vec![
        value("exec.busy_s", "s", pool_totals.busy_ns as f64 / 1e9),
        value("exec.idle_s", "s", pool_totals.idle_ns as f64 / 1e9),
        value("exec.tasks", "count", pool_totals.tasks as f64),
        value(
            "client.send_us",
            "us",
            d.send_ns as f64 / 1e3 / batches.max(1) as f64,
        ),
        value(
            "client.wait_us",
            "us",
            d.wait_ns as f64 / 1e3 / batches.max(1) as f64,
        ),
        value(
            "serve.service_us",
            "us",
            d.wall_ns as f64 / 1e3 / batches.max(1) as f64,
        ),
        value("serve.frames", "count", m.counter("serve_frames") as f64),
        value("serve.frame_bytes", "bytes", frame_bytes as f64),
        value(
            "serve.spilled",
            "count",
            m.counter("serve_mux_spilled") as f64,
        ),
        value(
            "serve.restored",
            "count",
            m.counter("serve_mux_restored") as f64,
        ),
        value(
            "serve.spill_bytes",
            "bytes",
            m.counter("serve_spill_bytes") as f64,
        ),
        value(
            "serve.restore_bytes",
            "bytes",
            m.counter("serve_restore_bytes") as f64,
        ),
        value(
            "serve.peak_resident_bytes",
            "bytes",
            m.maximum("serve_peak_resident_bytes") as f64,
        ),
        value(
            "serve.backpressure",
            "count",
            m.counter("serve_mux_backpressure") as f64,
        ),
        value(
            "serve.spill_failures",
            "count",
            m.counter("serve_spill_failures") as f64,
        ),
        value(
            "serve.protocol_errors",
            "count",
            protocol_errors(&report) as f64,
        ),
    ];
    let mut windows = Vec::new();
    let mut window_start = 0u64;
    for (done, rtt) in d
        .done_ns
        .chunks(shape.window_requests)
        .zip(d.rtt_ns.chunks(shape.window_requests))
    {
        let end = done.last().copied().unwrap_or(window_start);
        windows.push(Window {
            events: (done.len() * BATCH) as u64,
            wall_ns: end - window_start,
            latency_ns: rtt.to_vec(),
        });
        window_start = end;
    }
    Ok(Served {
        digest: digest.hex(),
        acked: d.acked,
        failed,
        failures,
        wall_ns: d.wall_ns,
        windows,
        setup_s,
        startup_s,
        traces,
        layers,
    })
}

pub fn run(ctx: &Ctx, shape: &Shape) -> Outcome {
    let specs = crate::inputs::suite(ctx.seed);
    let scale = crate::grid::SCALE;
    let batches =
        ((shape.batches_per_s as f64 * ctx.budget.as_secs_f64()) as u64).max(shape.streams as u64);
    let mut out = Outcome::new(format!("batches={batches}"), "batch round trip");
    match serve(
        shape,
        &specs,
        scale,
        batches,
        ctx.pool,
        ctx.spans,
        ctx.started,
    ) {
        Ok(s) => {
            out.digest = s.digest;
            out.attempted = batches;
            out.failed = s.failed;
            out.failures = s.failures;
            out.setup_s = s.setup_s;
            out.startup_s = s.startup_s;
            out.windows = s.windows;
            out.extra.push(value(
                "serve.acked_events_per_s",
                "events/s",
                (s.acked * BATCH as u64) as f64 / (s.wall_ns as f64 / 1e9),
            ));
            out.extra
                .push(value("serve.streams", "count", shape.streams as f64));
            if ctx.spans.enabled() {
                out.layers = s.layers;
            }
            out.feed_traces = s.traces;
        }
        Err(e) => {
            out.attempted = batches;
            out.failed = batches;
            out.failures.push(e);
        }
    }
    out
}

/// The serve layers measured on a short run over `specs` at trace scale
/// `scale`, for the traced runs of the workloads that do not serve.
pub fn probe(specs: &[BenchmarkSpec], scale: f64) -> Result<Vec<Value>, String> {
    let s = serve(
        &SERVE,
        specs,
        scale,
        PROBE_BATCHES,
        &Pool::new(false),
        &Spans::new(false),
        Instant::now(),
    )?;
    if let Some(f) = s.failures.first() {
        return Err(format!("serve probe failed: {f}"));
    }
    Ok(s.layers
        .into_iter()
        .filter(|v| !v.name.starts_with("exec."))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny served run — both shapes — matches offline simulation on
    /// every stream, with a clean server ledger.
    #[test]
    fn tiny_serve_run_is_served_as_offline() {
        let specs = crate::inputs::suite(0);
        for shape in [
            Shape {
                check_every: 1,
                window_requests: 64,
                ..SERVE
            },
            Shape {
                check_every: 1,
                window_requests: 64,
                streams: 40,
                budget: 64 << 10,
                ..FLEET
            },
        ] {
            let s = serve(
                &shape,
                &specs,
                0.01,
                300,
                &Pool::new(false),
                &Spans::new(false),
                Instant::now(),
            )
            .expect("serve run");
            assert_eq!(s.failures, Vec::<String>::new());
            assert_eq!((s.acked, s.failed), (300, 0));
            assert_eq!(
                s.windows.iter().map(|w| w.latency_ns.len()).sum::<usize>(),
                300
            );
            let spilled = s
                .layers
                .iter()
                .find(|v| v.name == "serve.spilled")
                .map_or(0.0, |v| v.value);
            assert_eq!(
                spilled > 0.0,
                shape.budget > 0,
                "spills happen exactly under a budget"
            );
        }
    }

    #[test]
    fn feed_sent_matches_the_batches_of_a_stream() {
        let traces: Vec<Trace> = crate::inputs::suite(0)[..3]
            .iter()
            .map(|s| s.generate_scaled(0.01))
            .collect();
        let feed = Feed::new(&traces, 5);
        let mut by_stream: Vec<Vec<BranchEvent>> = vec![Vec::new(); 5];
        let mut buf = Vec::new();
        for b in 0..23 {
            let s = feed.batch(b, &mut buf);
            by_stream[s].extend_from_slice(&buf);
        }
        for (s, events) in by_stream.iter().enumerate() {
            assert_eq!(&feed.sent(s, 23).collect::<Vec<_>>(), events, "stream {s}");
        }
    }
}
