//! loadgen — the serve plane's 10,240-stream smoke.
//!
//! Starts an in-process `ibp-serve` server and drives the v3 mux plane
//! with 16 connections × 640 concurrent PPM-hyb streams in summary mode,
//! each stream carrying the same 64-event slice of the paper suite's
//! gs.tig run (regenerated in-process). Start barriers hold the whole
//! fleet open at once. Asserts a clean drain, zero protocol errors,
//! exact stream and event ledgers and a peak occupancy of 10,240, and
//! exits non-zero otherwise.
//!
//! `--evict` reruns the same fleet on compact tables under a 64 KiB
//! resident budget, far below demand: the server must spill and restore
//! sessions under load, and the smoke additionally asserts at least one
//! spill, at least one restore and zero spill failures. Eviction must be
//! invisible to the ledger.
//!
//! Speed is measured by ibpbench's `serve` and `fleet` workloads, not
//! here.
//!
//! Usage: `cargo run --release -p ibp-bench --bin loadgen [-- --evict]`

use ibp_exec::Executor;
use ibp_serve::{MuxClient, Server, ServerConfig};
use ibp_sim::PredictorKind;
use ibp_trace::BranchEvent;
use ibp_workloads::paper_suite;
use std::sync::Barrier;

const PREDICTOR: PredictorKind = PredictorKind::PpmHyb;
const CONNS: usize = 16;
const STREAMS_PER_CONN: usize = 640;
const SHARDS: usize = 2;
const ENTRIES: u64 = 64;
const EVENTS_PER_STREAM: usize = 64;
/// The server's per-stream in-flight window (its maximum).
const WINDOW: u64 = 8192;
/// The resident budget under `--evict`.
const EVICT_BUDGET: u64 = 64 * 1024;

/// One connection's close-receipt totals.
struct ConnOutcome {
    events: u64,
    predictions: u64,
    mispredictions: u64,
}

fn die(context: &str, err: impl std::fmt::Display) -> ! {
    eprintln!("{context}: {err}");
    std::process::exit(1);
}

/// Drives one v3 connection: open every stream, rendezvous with the
/// other connections so the whole fleet is concurrently open, send the
/// slice to every stream pipelined, rendezvous again, then collect close
/// receipts.
fn run_mux_conn(
    addr: std::net::SocketAddr,
    events: &[BranchEvent],
    opened: &Barrier,
    sent: &Barrier,
) -> ConnOutcome {
    let mut client =
        MuxClient::connect(addr).unwrap_or_else(|e| die("mux handshake failed", e));
    for s in 0..STREAMS_PER_CONN {
        client
            .open(s as u64, PREDICTOR, ENTRIES, false)
            .unwrap_or_else(|e| die("stream open failed", e));
    }
    // One blocking stats round-trip: opens are processed in order, so
    // this pins every stream of this connection as registered
    // server-side before the rendezvous — the post-barrier fleet is
    // genuinely concurrent and peak occupancy must equal the fleet.
    client
        .stats(STREAMS_PER_CONN as u64 - 1)
        .unwrap_or_else(|e| die("open round-trip failed", e));
    opened.wait();
    // Every stream carries the same slice, so each window chunk is
    // delta-encoded once and replayed to the whole fleet — the wire
    // bytes are identical to per-stream sends.
    let ids: Vec<u64> = (0..STREAMS_PER_CONN as u64).collect();
    client
        .broadcast(&ids, events)
        .unwrap_or_else(|e| die("stream send failed", e));
    sent.wait();
    let mut outcome = ConnOutcome {
        events: 0,
        predictions: 0,
        mispredictions: 0,
    };
    for s in 0..STREAMS_PER_CONN {
        let closed = client
            .finish(s as u64)
            .unwrap_or_else(|e| die("stream close failed", e));
        assert_eq!(closed.events(), events.len() as u64, "stream {s} lost events");
        outcome.events += closed.events();
        outcome.predictions += closed.predictions();
        outcome.mispredictions += closed.mispredictions();
    }
    let total = client.bye().unwrap_or_else(|e| die("bye failed", e));
    assert_eq!(total, outcome.events, "server and client disagree on totals");
    outcome
}

/// The replayed slice: the head of the paper suite's gs.tig run.
fn load_events() -> Vec<BranchEvent> {
    let run = paper_suite()
        .into_iter()
        .find(|r| r.label() == "gs.tig")
        .unwrap_or_else(|| die("paper suite", "lost its gs.tig run"));
    run.generate().iter().copied().cycle().take(EVENTS_PER_STREAM).collect()
}

fn main() {
    let mut evict = false;
    for a in std::env::args().skip(1) {
        match a.as_str() {
            "--evict" => evict = true,
            other => {
                eprintln!("unknown flag {other} (usage: loadgen [--evict])");
                std::process::exit(2);
            }
        }
    }
    let resident_budget = if evict { EVICT_BUDGET } else { 0 };
    let events = load_events();
    let total_streams = CONNS * STREAMS_PER_CONN;
    println!(
        "loadgen: gs.tig ({} events/stream), predictor {}, {CONNS} conns × {STREAMS_PER_CONN} \
         streams over {SHARDS} shards{}",
        events.len(),
        PREDICTOR.label(),
        if evict { ", compact tables, 64 KiB resident budget" } else { "" },
    );

    let server = Server::start(ServerConfig {
        shards: SHARDS,
        max_sessions: CONNS,
        max_streams: STREAMS_PER_CONN as u64,
        window: WINDOW,
        resident_budget,
        compact: evict,
        ..ServerConfig::default()
    })
    .unwrap_or_else(|e| die("cannot start server", e));
    let addr = server.local_addr();

    let opened = Barrier::new(CONNS);
    let sent = Barrier::new(CONNS);
    let outcomes = Executor::new(CONNS).run(CONNS, |_| run_mux_conn(addr, &events, &opened, &sent));
    let report = server.shutdown();

    let total_events: u64 = outcomes.iter().map(|o| o.events).sum();
    let total_predictions: u64 = outcomes.iter().map(|o| o.predictions).sum();
    let total_misses: u64 = outcomes.iter().map(|o| o.mispredictions).sum();
    println!(
        "receipts: {total_events} events, {total_predictions} predictions, {total_misses} \
         mispredicted ({:.2}%)",
        total_misses as f64 / total_predictions.max(1) as f64 * 100.0
    );

    let m = &report.metrics;
    let protocol_errors = m.counter("serve_protocol_errors")
        + m.counter("serve_handshake_rejects")
        + m.counter("serve_mux_window_overflows")
        + m.counter("serve_mux_stream_errors")
        + m.counter("serve_write_failures")
        + m.counter("serve_io_failures");
    let peak_streams = m.maximum("serve_peak_streams");
    println!(
        "server: {} sessions / {} mux streams, drained_clean={}, protocol_errors={}, \
         peak_sessions={}, peak_streams={}",
        m.counter("serve_sessions"),
        m.counter("serve_mux_streams"),
        report.drained_clean,
        protocol_errors,
        m.maximum("serve_peak_sessions"),
        peak_streams,
    );
    if evict {
        println!(
            "memory: {} spilled / {} restored ({} spill B), peak resident {} B",
            m.counter("serve_mux_spilled"),
            m.counter("serve_mux_restored"),
            m.counter("serve_spill_bytes"),
            m.maximum("serve_peak_resident_bytes"),
        );
    }

    let expected = (total_streams * events.len()) as u64;
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
    if m.counter("serve_clean_byes") != CONNS as u64 {
        failures.push("not every connection closed with BYE".to_string());
    }
    let opened = m.counter("serve_mux_streams");
    let closed = m.counter("serve_mux_clean_closes");
    if opened != total_streams as u64 || closed != total_streams as u64 {
        failures.push(format!(
            "stream ledger off: {opened} opened / {closed} closed, expected {total_streams}"
        ));
    }
    // The start barriers hold every stream open at once: peak occupancy
    // must equal the whole fleet.
    if peak_streams != total_streams as u64 {
        failures.push(format!(
            "peak {peak_streams} concurrent streams, expected {total_streams}"
        ));
    }
    if m.counter("serve_idle_evictions") != 0 {
        failures.push("streams were idle-evicted mid-replay".to_string());
    }
    if evict {
        // Budget eviction is distinct from idle eviction: a spilled
        // stream stays *open* (the ledger and peak-occupancy assertions
        // above still hold exactly) — but the cycle must actually have
        // happened, and without a single failed spill.
        if m.counter("serve_mux_spilled") == 0 {
            failures.push(format!("budget {EVICT_BUDGET} B never evicted a session"));
        }
        if m.counter("serve_mux_restored") == 0 {
            failures.push("no evicted session was ever restored".to_string());
        }
        if m.counter("serve_spill_failures") != 0 {
            failures.push(format!(
                "{} spill/restore failures",
                m.counter("serve_spill_failures")
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
