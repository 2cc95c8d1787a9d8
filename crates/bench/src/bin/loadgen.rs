//! loadgen — replay a stored trace over a live loopback prediction
//! server.
//!
//! Starts an in-process `ibp-serve` server and drives it with
//! `--conns` concurrent connections. Every connection is a v3 **mux**
//! client carrying `--streams` concurrent predictor streams in summary
//! mode (no per-event prediction frames). With `IBP_BENCH_DIR` set, the
//! JSON report lands in `<dir>/BENCH_serve.json`.
//!
//! Usage:
//!   `cargo run --release -p ibp-bench --bin loadgen --
//!    [--trace PATH] [--predictor NAME] [--conns N] [--streams N]
//!    [--shards N] [--entries N] [--passes N] [--events-per-stream N]
//!    [--window N] [--resident-budget BYTES] [--compact]
//!    [--smoke] [--check PATH]`
//!
//! `--smoke` is the CI gate: it presets a 16-connection × 640-stream
//! fleet (10,240 concurrent mux streams, held open simultaneously via
//! start barriers) over a short per-stream slice, then *asserts* a
//! clean drain, zero protocol errors, full peak-stream occupancy and
//! exact event totals, exiting non-zero otherwise (wired into
//! `scripts/verify.sh`). Flags after `--smoke` still override the
//! preset. `--check PATH` validates an emitted `BENCH_serve.json`
//! (shape, positive throughput, clean server section) and exits.
//!
//! `--resident-budget BYTES` turns on the server's memory plane:
//! sessions above the budget are snapshot-evicted and restored on
//! demand. Combined with `--smoke` the gate additionally asserts at
//! least one evict/restore cycle happened and that every receipt still
//! balanced — eviction must be invisible to the ledger.

use ibp_exec::Executor;
use ibp_serve::{MuxClient, Server, ServerConfig};
use ibp_sim::{Json, PredictorKind};
use ibp_trace::{codec, BranchEvent};
use ibp_workloads::paper_suite;
use std::sync::Barrier;
use std::time::Instant;

struct Args {
    trace: String,
    predictor: PredictorKind,
    conns: usize,
    streams: usize,
    shards: usize,
    entries: u64,
    passes: usize,
    events_per_stream: usize,
    window: u64,
    resident_budget: u64,
    compact: bool,
    smoke: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        trace: "traces/gs.tig.trace".to_string(),
        predictor: PredictorKind::PpmHyb,
        conns: 4,
        streams: 8,
        shards: 2,
        entries: 2048,
        passes: 1,
        events_per_stream: 0,
        window: 8192,
        resident_budget: 0,
        compact: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |what: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("{what} needs a value");
                std::process::exit(2);
            })
        };
        match a.as_str() {
            "--trace" => args.trace = value("--trace"),
            "--predictor" => {
                let name = value("--predictor");
                args.predictor = PredictorKind::from_cli_name(&name).unwrap_or_else(|| {
                    eprintln!("unknown predictor {name}");
                    std::process::exit(2);
                });
            }
            "--conns" | "--sessions" => args.conns = parse_num(&value("--conns"), "--conns"),
            "--streams" => args.streams = parse_num(&value("--streams"), "--streams"),
            "--shards" | "--workers" => args.shards = parse_num(&value("--shards"), "--shards"),
            "--entries" => args.entries = parse_num(&value("--entries"), "--entries") as u64,
            "--passes" => args.passes = parse_num(&value("--passes"), "--passes"),
            "--events-per-stream" => {
                args.events_per_stream =
                    parse_num(&value("--events-per-stream"), "--events-per-stream");
            }
            "--window" => args.window = parse_num(&value("--window"), "--window") as u64,
            "--resident-budget" => {
                args.resident_budget =
                    parse_num(&value("--resident-budget"), "--resident-budget") as u64;
            }
            "--compact" => args.compact = true,
            "--check" => {
                let path = value("--check");
                if let Err(msg) = check(&path) {
                    eprintln!("{msg}");
                    std::process::exit(1);
                }
                std::process::exit(0);
            }
            "--smoke" => {
                // The CI preset: a 10k+ concurrent-stream fleet over a
                // short slice. Later flags still override.
                args.smoke = true;
                args.conns = 16;
                args.streams = 640;
                args.entries = 64;
                args.events_per_stream = 64;
                args.passes = 1;
            }
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
    }
    args.conns = args.conns.clamp(1, 256);
    args.streams = args.streams.clamp(1, 1 << 16);
    args.shards = args.shards.clamp(1, 64);
    args.passes = args.passes.clamp(1, 1000);
    args.window = args.window.clamp(2, 8192);
    args
}

fn parse_num(s: &str, what: &str) -> usize {
    s.parse().unwrap_or_else(|_| {
        eprintln!("{what}: {s} is not a number");
        std::process::exit(2);
    })
}

/// One connection's replay: latency samples (ns) plus totals. The
/// samples are per-stream close round-trips (the first close drains the
/// pipelined backlog).
struct ConnOutcome {
    samples: Vec<u64>,
    events: u64,
    predictions: u64,
    mispredictions: u64,
    backpressure: u64,
}

fn die(context: &str, err: impl std::fmt::Display) -> ! {
    eprintln!("{context}: {err}");
    std::process::exit(1);
}

/// Drives one v3 connection: open every stream, rendezvous with the
/// other connections so the whole fleet is concurrently open, pump
/// every pass pipelined, rendezvous again, then collect close receipts.
fn run_mux_conn(
    addr: std::net::SocketAddr,
    args: &Args,
    events: &[BranchEvent],
    opened: &Barrier,
    sent: &Barrier,
) -> ConnOutcome {
    let mut client =
        MuxClient::connect(addr).unwrap_or_else(|e| die("mux handshake failed", e));
    for s in 0..args.streams {
        client
            .open(s as u64, args.predictor, args.entries, false)
            .unwrap_or_else(|e| die("stream open failed", e));
    }
    // One blocking stats round-trip: opens are processed in order, so
    // this pins every stream of this connection as registered
    // server-side before the rendezvous — the post-barrier fleet is
    // genuinely concurrent and peak occupancy must equal the fleet.
    client
        .stats(args.streams as u64 - 1)
        .unwrap_or_else(|e| die("open round-trip failed", e));
    opened.wait();
    // Every stream carries the same trace, so each window chunk is
    // delta-encoded once and replayed to the whole fleet — the wire
    // bytes are identical to per-stream sends, the generator just stops
    // re-encoding the same events `--streams` times.
    let ids: Vec<u64> = (0..args.streams as u64).collect();
    for _ in 0..args.passes {
        client
            .broadcast(&ids, events)
            .unwrap_or_else(|e| die("stream send failed", e));
    }
    sent.wait();
    let mut outcome = ConnOutcome {
        samples: Vec::with_capacity(args.streams),
        events: 0,
        predictions: 0,
        mispredictions: 0,
        backpressure: 0,
    };
    let expected = (args.passes * events.len()) as u64;
    for s in 0..args.streams {
        let started = Instant::now();
        let closed = client
            .finish(s as u64)
            .unwrap_or_else(|e| die("stream close failed", e));
        outcome.samples.push(started.elapsed().as_nanos() as u64);
        assert_eq!(closed.events(), expected, "stream {s} lost events");
        outcome.events += closed.events();
        outcome.predictions += closed.predictions();
        outcome.mispredictions += closed.mispredictions();
        outcome.backpressure += closed.backpressure_warnings();
    }
    let total = client.bye().unwrap_or_else(|e| die("bye failed", e));
    assert_eq!(total, outcome.events, "server and client disagree on totals");
    outcome
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Validates an emitted `BENCH_serve.json`: parses, checks the bench
/// name and mode, requires positive finite throughput and a clean
/// server section (drained, zero protocol errors, zero panics).
fn check(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let value = Json::parse(&text).map_err(|e| format!("{path} is not valid JSON: {e:?}"))?;
    if value.get("bench").and_then(Json::as_str) != Some("serve") {
        return Err(format!("{path}: `bench` field is not \"serve\""));
    }
    let mode = value
        .get("mode")
        .and_then(Json::as_str)
        .ok_or_else(|| format!("{path}: missing `mode`"))?;
    if mode != "mux" {
        return Err(format!("{path}: unknown mode {mode:?}"));
    }
    let per_sec = value
        .get("events_per_sec")
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("{path}: missing `events_per_sec`"))?;
    if !(per_sec > 0.0 && per_sec.is_finite()) {
        return Err(format!("{path}: events_per_sec = {per_sec} is not positive"));
    }
    let server = value
        .get("server")
        .ok_or_else(|| format!("{path}: missing `server` section"))?;
    if !matches!(server.get("drained_clean"), Some(Json::Bool(true))) {
        return Err(format!("{path}: server did not drain clean"));
    }
    for zero in ["protocol_errors", "pool_panicked"] {
        match server.get(zero).and_then(Json::as_u64) {
            Some(0) => {}
            Some(n) => return Err(format!("{path}: server.{zero} = {n}, expected 0")),
            None => return Err(format!("{path}: missing server.{zero}")),
        }
    }
    if value.get("total_events").and_then(Json::as_u64).unwrap_or(0) == 0 {
        return Err(format!("{path}: total_events is zero"));
    }
    println!("{path}: OK ({mode} plane, {per_sec:.0} events/s)");
    Ok(())
}

/// Loads the trace from disk if present, else regenerates it from the
/// paper suite (trace generation is deterministic, so a stored file and
/// an in-process regeneration are the same events — this keeps the CI
/// smoke hermetic without a pre-populated `traces/` directory).
fn load_events(path: &str) -> Vec<BranchEvent> {
    match std::fs::read(path) {
        Ok(bytes) => {
            let trace = codec::decode(&bytes).unwrap_or_else(|e| {
                eprintln!("cannot decode {path}: {e}");
                std::process::exit(1);
            });
            trace.iter().copied().collect()
        }
        Err(_) => {
            let stem = std::path::Path::new(path)
                .file_name()
                .and_then(|n| n.to_str())
                .map(|n| n.trim_end_matches(".trace"))
                .unwrap_or(path);
            let run = paper_suite()
                .into_iter()
                .find(|r| r.label() == stem)
                .unwrap_or_else(|| {
                    eprintln!(
                        "cannot read {path} and {stem:?} is not a paper-suite run label"
                    );
                    std::process::exit(1);
                });
            run.generate().iter().copied().collect()
        }
    }
}

fn main() {
    let args = parse_args();
    let full = load_events(&args.trace);
    let events: Vec<BranchEvent> = if args.events_per_stream > 0 {
        full.iter().copied().cycle().take(args.events_per_stream).collect()
    } else {
        full
    };
    let total_streams = args.conns * args.streams;
    println!(
        "loadgen: {} ({} events/stream), predictor {}, {} conns × {} streams × {} passes over {} shards",
        args.trace,
        events.len(),
        args.predictor.label(),
        args.conns,
        args.streams,
        args.passes,
        args.shards,
    );

    let server = Server::start(ServerConfig {
        shards: args.shards,
        max_sessions: args.conns.max(4),
        max_streams: args.streams as u64,
        window: args.window,
        resident_budget: args.resident_budget,
        compact: args.compact,
        ..ServerConfig::default()
    })
    .unwrap_or_else(|e| {
        eprintln!("cannot start server: {e}");
        std::process::exit(1);
    });
    let addr = server.local_addr();

    let opened = Barrier::new(args.conns);
    let sent = Barrier::new(args.conns);
    let wall = Instant::now();
    let outcomes = Executor::new(args.conns).run(args.conns, |_| {
        run_mux_conn(addr, &args, &events, &opened, &sent)
    });
    let wall_ns = wall.elapsed().as_nanos() as u64;
    let report = server.shutdown();

    let mut samples: Vec<u64> = outcomes.iter().flat_map(|o| o.samples.iter().copied()).collect();
    samples.sort_unstable();
    let total_events: u64 = outcomes.iter().map(|o| o.events).sum();
    let total_predictions: u64 = outcomes.iter().map(|o| o.predictions).sum();
    let total_misses: u64 = outcomes.iter().map(|o| o.mispredictions).sum();
    let total_backpressure: u64 = outcomes.iter().map(|o| o.backpressure).sum();
    let mean_ns = if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<u64>() as f64 / samples.len() as f64
    };
    let events_per_sec = total_events as f64 * 1e9 / wall_ns.max(1) as f64;

    let p50 = percentile(&samples, 50.0);
    let p90 = percentile(&samples, 90.0);
    let p99 = percentile(&samples, 99.0);
    let max = samples.last().copied().unwrap_or(0);
    println!(
        "close RTT: p50 {:.1}µs  p90 {:.1}µs  p99 {:.1}µs  max {:.1}µs  ({} samples)",
        p50 as f64 / 1e3,
        p90 as f64 / 1e3,
        p99 as f64 / 1e3,
        max as f64 / 1e3,
        samples.len()
    );
    println!(
        "throughput: {:.0} events/s end-to-end; {} predictions, {} mispredicted ({:.2}%)",
        events_per_sec,
        total_predictions,
        total_misses,
        total_misses as f64 / total_predictions.max(1) as f64 * 100.0
    );

    let protocol_errors = report.metrics.counter("serve_protocol_errors")
        + report.metrics.counter("serve_handshake_rejects")
        + report.metrics.counter("serve_mux_window_overflows")
        + report.metrics.counter("serve_mux_stream_errors")
        + report.metrics.counter("serve_write_failures")
        + report.metrics.counter("serve_io_failures");
    let peak_streams = report.metrics.maximum("serve_peak_streams");
    println!(
        "server: {} sessions / {} mux streams, drained_clean={}, protocol_errors={}, peak_sessions={}, peak_streams={}",
        report.metrics.counter("serve_sessions"),
        report.metrics.counter("serve_mux_streams"),
        report.drained_clean,
        protocol_errors,
        report.metrics.maximum("serve_peak_sessions"),
        peak_streams,
    );
    if args.resident_budget > 0 {
        println!(
            "memory: budget {} B, {} spilled / {} restored ({} spill B), peak resident {} B, bytes/session {}",
            args.resident_budget,
            report.metrics.counter("serve_mux_spilled"),
            report.metrics.counter("serve_mux_restored"),
            report.metrics.counter("serve_spill_bytes"),
            report.metrics.maximum("serve_peak_resident_bytes"),
            report.metrics.maximum("serve_bytes_per_session"),
        );
    }

    let json = Json::obj([
        ("bench", Json::Str("serve".to_string())),
        ("mode", Json::Str("mux".to_string())),
        ("trace", Json::Str(args.trace.clone())),
        ("predictor", Json::Str(args.predictor.label())),
        ("events_per_stream", Json::UInt(events.len() as u64)),
        ("conns", Json::UInt(args.conns as u64)),
        ("streams_per_conn", Json::UInt(args.streams as u64)),
        ("total_streams", Json::UInt(total_streams as u64)),
        ("shards", Json::UInt(args.shards as u64)),
        ("passes", Json::UInt(args.passes as u64)),
        ("window", Json::UInt(args.window)),
        ("entries", Json::UInt(args.entries)),
        ("resident_budget", Json::UInt(args.resident_budget)),
        ("compact", Json::Bool(args.compact)),
        (
            "rtt_ns",
            Json::obj([
                ("kind", Json::Str("close RTT".to_string())),
                ("p50", Json::UInt(p50)),
                ("p90", Json::UInt(p90)),
                ("p99", Json::UInt(p99)),
                ("max", Json::UInt(max)),
                ("mean", Json::Num(mean_ns)),
            ]),
        ),
        ("events_per_sec", Json::Num(events_per_sec)),
        ("total_events", Json::UInt(total_events)),
        ("total_predictions", Json::UInt(total_predictions)),
        ("total_mispredictions", Json::UInt(total_misses)),
        ("backpressure_warnings", Json::UInt(total_backpressure)),
        (
            "server",
            Json::obj([
                ("drained_clean", Json::Bool(report.drained_clean)),
                ("sessions", Json::UInt(report.metrics.counter("serve_sessions"))),
                ("clean_byes", Json::UInt(report.metrics.counter("serve_clean_byes"))),
                ("mux_streams", Json::UInt(report.metrics.counter("serve_mux_streams"))),
                (
                    "mux_clean_closes",
                    Json::UInt(report.metrics.counter("serve_mux_clean_closes")),
                ),
                ("protocol_errors", Json::UInt(protocol_errors)),
                ("frames", Json::UInt(report.metrics.counter("serve_frames"))),
                (
                    "peak_sessions",
                    Json::UInt(report.metrics.maximum("serve_peak_sessions")),
                ),
                ("peak_streams", Json::UInt(peak_streams)),
                ("mux_spilled", Json::UInt(report.metrics.counter("serve_mux_spilled"))),
                (
                    "mux_restored",
                    Json::UInt(report.metrics.counter("serve_mux_restored")),
                ),
                ("spill_bytes", Json::UInt(report.metrics.counter("serve_spill_bytes"))),
                (
                    "spill_failures",
                    Json::UInt(report.metrics.counter("serve_spill_failures")),
                ),
                (
                    "peak_resident_bytes",
                    Json::UInt(report.metrics.maximum("serve_peak_resident_bytes")),
                ),
                (
                    "bytes_per_session",
                    Json::UInt(report.metrics.maximum("serve_bytes_per_session")),
                ),
                ("pool_panicked", Json::UInt(report.pool.panicked)),
            ]),
        ),
    ]);
    let rendered = json.emit();
    println!("{rendered}");
    if let Ok(dir) = std::env::var("IBP_BENCH_DIR") {
        let _ = std::fs::create_dir_all(&dir);
        let path = std::path::Path::new(&dir).join("BENCH_serve.json");
        if let Err(e) = std::fs::write(&path, &rendered) {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
    }

    if args.smoke {
        let expected =
            total_streams as u64 * args.passes as u64 * events.len() as u64;
        let mut failures = Vec::new();
        if !report.drained_clean {
            failures.push("shutdown did not drain in-flight sessions".to_string());
        }
        if protocol_errors != 0 {
            failures.push(format!("{protocol_errors} protocol errors"));
        }
        if total_events != expected {
            failures.push(format!("streamed {total_events} events, expected {expected}"));
        }
        if report.metrics.counter("serve_clean_byes") != args.conns as u64 {
            failures.push("not every connection closed with BYE".to_string());
        }
        let opened = report.metrics.counter("serve_mux_streams");
        let closed = report.metrics.counter("serve_mux_clean_closes");
        if opened != total_streams as u64 || closed != total_streams as u64 {
            failures.push(format!(
                "stream ledger off: {opened} opened / {closed} closed, expected {total_streams}"
            ));
        }
        // The start barriers hold every stream open at once: peak
        // occupancy must equal the whole fleet.
        if peak_streams != total_streams as u64 {
            failures.push(format!(
                "peak {peak_streams} concurrent streams, expected {total_streams}"
            ));
        }
        if report.metrics.counter("serve_idle_evictions") != 0 {
            failures.push("streams were idle-evicted mid-replay".to_string());
        }
        if args.resident_budget > 0 {
            // Budget eviction is distinct from idle eviction: a spilled
            // stream stays *open* (the ledger and peak-occupancy
            // assertions above still hold exactly) — but the cycle must
            // actually have happened, and without a single failed spill.
            if report.metrics.counter("serve_mux_spilled") == 0 {
                failures.push(format!(
                    "budget {} B never evicted a session",
                    args.resident_budget
                ));
            }
            if report.metrics.counter("serve_mux_restored") == 0 {
                failures.push("no evicted session was ever restored".to_string());
            }
            if report.metrics.counter("serve_spill_failures") != 0 {
                failures.push(format!(
                    "{} spill/restore failures",
                    report.metrics.counter("serve_spill_failures")
                ));
            }
        }
        if report.pool.panicked != 0 {
            failures.push(format!("{} shard panics", report.pool.panicked));
        }
        if failures.is_empty() {
            println!("smoke: OK ({total_streams} concurrent streams)");
        } else {
            for f in &failures {
                eprintln!("smoke FAILED: {f}");
            }
            std::process::exit(1);
        }
    }
}
