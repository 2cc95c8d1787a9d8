//! End-to-end differential suite: for every predictor in the zoo's serve
//! lineup, streaming a trace through a loopback session must produce
//! *identical* results — totals and per-branch accounting — to running
//! `ibp_sim::simulate` offline over the same events. This is the
//! acceptance bar for the whole service: the network layer may add
//! latency, never bias.
//!
//! Each session is one verbose stream on its own connection, so both
//! server outputs are checked: the close receipt (totals and per-branch
//! tallies) and the per-event `MUX_PREDICTION` frames counted
//! client-side.

use ibp_exec::Executor;
use ibp_serve::{MuxClient, Server, ServerConfig};
use ibp_sim::{simulate, PredictorKind, RunResult};
use ibp_trace::{BranchEvent, Trace};
use ibp_workloads::paper_suite;

const ENTRIES: u64 = 2048;

fn test_trace() -> Trace {
    // A scaled-down perl-like model: plenty of MT indirect sites with
    // path correlation, so predictors actually diverge from each other.
    paper_suite()[0].generate_scaled(0.02)
}

fn offline(kind: PredictorKind, trace: &Trace) -> RunResult {
    let mut predictor = kind.build_with_entries(ENTRIES as usize);
    simulate(predictor.as_mut(), trace)
}

/// Serves `events` on one verbose stream; returns the close receipt's
/// `RunResult` and the `(predictions, mispredictions)` counted from
/// per-event prediction frames.
fn served(
    kind: PredictorKind,
    addr: std::net::SocketAddr,
    events: &[BranchEvent],
) -> (RunResult, Option<(u64, u64)>) {
    const STREAM: u64 = 1;
    let mut client = MuxClient::connect(addr).expect("handshake accepted");
    client.open(STREAM, kind, ENTRIES, true).expect("open accepted");
    client.send(STREAM, events).expect("stream accepted");
    let stats = client.stats(STREAM).expect("stats frame");
    assert_eq!(stats.events, events.len() as u64);
    let outcome = client.finish(STREAM).expect("close receipt");
    assert_eq!(outcome.events_sent(), events.len() as u64);
    assert_eq!(outcome.events(), events.len() as u64);
    assert_eq!(
        outcome.backpressure_warnings(),
        0,
        "window-sized batches never trip backpressure"
    );
    assert_eq!(
        (stats.predictions, stats.mispredictions),
        (outcome.predictions(), outcome.mispredictions())
    );
    let observed = outcome.observed();
    let total = client.bye().expect("graceful bye");
    assert_eq!(total, events.len() as u64);
    (outcome.into_run_result(), observed)
}

/// Asserts a served stream matches offline simulation: the receipt's
/// `RunResult` bit-for-bit, and the per-event frames' totals.
fn assert_matches_offline(
    (remote, observed): (RunResult, Option<(u64, u64)>),
    local: &RunResult,
    what: &str,
) {
    assert_eq!(&remote, local, "{what} {} diverged from offline", local.predictor());
    assert_eq!(
        observed,
        Some((local.predictions(), local.mispredictions())),
        "{what} {} prediction frames diverged from offline",
        local.predictor()
    );
}

/// Every zoo predictor, served sequentially over one server: loopback
/// results are bit-identical to offline simulation.
#[test]
fn loopback_matches_offline_for_every_predictor() {
    let trace = test_trace();
    let events: Vec<BranchEvent> = trace.iter().copied().collect();
    assert!(trace.stats().mt_indirect() > 0, "trace must exercise MT sites");

    let server = Server::start(ServerConfig::default()).expect("bind loopback");
    let addr = server.local_addr();
    for kind in PredictorKind::serve_lineup() {
        let local = offline(kind, &trace);
        assert_matches_offline(served(kind, addr, &events), &local, "served");
        assert!(local.predictions() > 0, "{} made no predictions", local.predictor());
    }
    let report = server.shutdown();
    assert!(report.drained_clean, "no session should outlive the drain");
    let lineup = PredictorKind::serve_lineup().len() as u64;
    assert_eq!(report.metrics.counter("serve_sessions"), lineup);
    assert_eq!(report.metrics.counter("serve_clean_byes"), lineup);
    assert_eq!(report.metrics.counter("serve_mux_clean_closes"), lineup);
    assert_eq!(report.metrics.counter("serve_protocol_errors"), 0);
    assert_eq!(
        report.metrics.counter("serve_events"),
        lineup * events.len() as u64
    );
}

/// Concurrent sessions over a small worker set: multiplexing cannot
/// perturb per-session prediction state.
#[test]
fn concurrent_sessions_stay_isolated() {
    let trace = test_trace();
    let events: Vec<BranchEvent> = trace.iter().copied().collect();
    let kinds = [
        PredictorKind::Btb,
        PredictorKind::TcPib,
        PredictorKind::PpmHyb,
        PredictorKind::IttageLite,
    ];

    let server = Server::start(ServerConfig {
        shards: 2,
        ..ServerConfig::default()
    })
    .expect("bind loopback");
    let addr = server.local_addr();

    let remotes = Executor::new(kinds.len()).run(kinds.len(), |i| served(kinds[i], addr, &events));
    for (kind, remote) in kinds.into_iter().zip(remotes) {
        assert_matches_offline(remote, &offline(kind, &trace), "concurrent");
    }
    let report = server.shutdown();
    assert!(report.drained_clean);
    assert_eq!(report.metrics.counter("serve_sessions"), kinds.len() as u64);
    assert!(report.metrics.maximum("serve_peak_sessions") >= 1);
}
