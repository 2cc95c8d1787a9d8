//! Sharded + multiplexed differential suite: a stream served over the
//! v3 mux plane must produce **byte-identical** results — rendered
//! through the same JSON codec — to offline `ibp_sim` simulation of the
//! same events, at every tested shard count (1, 2, 8) and mux width
//! (1, 16, 256 concurrent streams), for every predictor in the zoo's
//! serve lineup.
//!
//! Neither shard placement, stream interleaving, credit accounting nor
//! the batched lockstep scheduler may add *any* bias: the reactor may
//! add latency, never change a bit of the result.

use ibp_exec::Executor;
use ibp_serve::{MuxClient, Server, ServerConfig};
use ibp_sim::report::run_result_to_json;
use ibp_sim::{simulate, PredictorKind, RunResult};
use ibp_trace::{BranchEvent, Trace};
use ibp_workloads::paper_suite;

const ENTRIES: u64 = 2048;

fn test_events() -> Vec<BranchEvent> {
    paper_suite()[0].generate_scaled(0.01).iter().copied().collect()
}

fn offline(kind: PredictorKind, events: &[BranchEvent]) -> RunResult {
    let trace: Trace = events.iter().copied().collect();
    let mut predictor = kind.build_with_entries(ENTRIES as usize);
    simulate(predictor.as_mut(), &trace)
}

/// The workload one mux stream carries: a predictor from the lineup and
/// a slice of the trace, both varied by stream index so sibling streams
/// never share either.
fn stream_plan(index: usize, events: &[BranchEvent]) -> (PredictorKind, Vec<BranchEvent>) {
    let lineup = PredictorKind::serve_lineup();
    let kind = lineup[index % lineup.len()];
    // Rotate the event stream per index so every stream is a distinct
    // sequence (while widths beyond the lineup still cover all kinds).
    let start = (index * 97) % events.len().max(1);
    let mut slice: Vec<BranchEvent> = Vec::with_capacity(events.len());
    slice.extend_from_slice(&events[start..]);
    slice.extend_from_slice(&events[..start]);
    (kind, slice)
}

/// Serves `streams_per_conn` concurrent streams over one connection,
/// interleaving sends round-robin in window-sized slices, and checks
/// every close receipt byte-identical (as JSON) to offline simulation.
fn drive_connection(
    addr: std::net::SocketAddr,
    base_index: usize,
    streams_per_conn: usize,
    events: &[BranchEvent],
) {
    let mut client = MuxClient::connect(addr).expect("v3 handshake");
    let plans: Vec<(u64, PredictorKind, Vec<BranchEvent>)> = (0..streams_per_conn)
        .map(|i| {
            let (kind, slice) = stream_plan(base_index + i, events);
            (i as u64, kind, slice)
        })
        .collect();
    for (id, kind, _) in &plans {
        client.open(*id, *kind, ENTRIES, false).expect("open accepted");
    }
    // Interleave: every stream advances one window-sized slice per
    // round, so batches from all streams mix on the wire.
    let step = client.window().max(1) as usize;
    let mut cursor = 0usize;
    let longest = plans.iter().map(|(_, _, e)| e.len()).max().unwrap_or(0);
    while cursor < longest {
        for (id, _, slice) in &plans {
            if cursor < slice.len() {
                let end = (cursor + step).min(slice.len());
                client.send(*id, &slice[cursor..end]).expect("send accepted");
            }
        }
        cursor += step;
    }
    let mut total = 0u64;
    for (id, kind, slice) in &plans {
        let outcome = client.finish(*id).expect("close receipt");
        assert_eq!(outcome.events_sent(), slice.len() as u64);
        assert_eq!(outcome.events(), slice.len() as u64);
        total += outcome.events();
        let served = outcome.into_run_result();
        let local = offline(*kind, slice);
        assert_eq!(
            run_result_to_json(&served),
            run_result_to_json(&local),
            "served {} diverged from offline (stream {id})",
            local.predictor()
        );
    }
    let byed = client.bye().expect("graceful bye");
    assert_eq!(byed, total, "bye must report every stepped event");
}

/// One shard-count × mux-width configuration.
fn run_config(shards: usize, width: usize, events: &[BranchEvent]) {
    let server = Server::start(ServerConfig {
        shards,
        max_sessions: 64,
        max_streams: width as u64 + 1,
        window: 512,
        ..ServerConfig::default()
    })
    .expect("bind loopback");
    let addr = server.local_addr();

    // Spread the width over as many connections as there are shards, so
    // multiple shards genuinely serve (concurrently, via the executor).
    let conns = shards.min(width).max(1);
    let per_conn = width / conns;
    let remainder = width % conns;
    let plans: Vec<(usize, usize)> = (0..conns)
        .map(|c| {
            let count = per_conn + usize::from(c < remainder);
            (c, count)
        })
        .collect();
    Executor::new(conns).run(conns, |c| {
        let (index, count) = plans[c];
        if count > 0 {
            drive_connection(addr, index * 131, count, events);
        }
    });

    let report = server.shutdown();
    assert!(report.drained_clean, "shards={shards} width={width} left sessions");
    assert_eq!(report.pool.panicked, 0);
    assert_eq!(report.metrics.counter("serve_protocol_errors"), 0);
    assert_eq!(report.metrics.counter("serve_mux_stream_errors"), 0);
    assert_eq!(report.metrics.counter("serve_mux_streams"), width as u64);
    assert_eq!(
        report.metrics.counter("serve_mux_clean_closes"),
        width as u64
    );
    // Per-shard attribution must re-aggregate to the global counter.
    assert_eq!(
        report.metrics.shard_counter_total("serve_sessions"),
        report.metrics.counter("serve_sessions")
    );
    assert_eq!(
        report.metrics.shard_counter_total("serve_events"),
        report.metrics.counter("serve_events")
    );
}

#[test]
fn single_shard_single_stream_matches_offline() {
    run_config(1, 1, &test_events());
}

#[test]
fn single_shard_wide_mux_matches_offline() {
    run_config(1, 16, &test_events());
}

#[test]
fn two_shards_medium_mux_matches_offline() {
    run_config(2, 16, &test_events());
}

#[test]
fn eight_shards_single_stream_matches_offline() {
    run_config(8, 1, &test_events());
}

#[test]
fn eight_shards_wide_mux_matches_offline() {
    // 256 concurrent streams cycle the whole lineup over short,
    // per-stream-distinct event slices (the full trace 256× would give
    // the debug profile an unreasonable runtime).
    let events: Vec<BranchEvent> = test_events().into_iter().take(1200).collect();
    run_config(8, 256, &events);
}

#[test]
fn two_shards_wide_mux_matches_offline() {
    let events: Vec<BranchEvent> = test_events().into_iter().take(1200).collect();
    run_config(2, 256, &events);
}
