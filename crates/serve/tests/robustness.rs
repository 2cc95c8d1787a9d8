//! Socket-level robustness: a live server answers every class of bad
//! client behaviour with the right typed `ERROR` frame and a clean
//! close — it never hangs, never panics, and keeps serving afterwards.

use ibp_serve::protocol::{
    frame_type, put_hello, put_mux_events_frame, put_mux_open, put_mux_stream_frame,
    put_simple_frame,
};
use ibp_serve::{
    ClientError, ErrorCode, FrameBuffer, Hello, MuxClient, Server, ServerConfig, ServerFrame,
    MAX_ENTRIES, MAX_FRAME_PAYLOAD,
};
use ibp_sim::PredictorKind;
use ibp_trace::wire::EventDeltaState;
use ibp_trace::BranchEvent;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

fn quick_server() -> Server {
    Server::start(ServerConfig {
        tick: Duration::from_millis(5),
        idle_timeout: Duration::from_millis(60),
        drain_timeout: Duration::from_secs(2),
        ..ServerConfig::default()
    })
    .expect("bind loopback")
}

/// Writes `bytes`, then reads server frames until the connection closes,
/// returning everything received.
fn exchange(addr: SocketAddr, bytes: &[u8]) -> Vec<ServerFrame> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(bytes).expect("write");
    stream.flush().expect("flush");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    let mut fb = FrameBuffer::new();
    let mut frames = Vec::new();
    let mut scratch = [0u8; 4096];
    loop {
        while let Some(raw) = fb.next_frame().expect("server speaks valid IBPS") {
            frames.push(ServerFrame::decode(&raw).expect("decodable server frame"));
        }
        match stream.read(&mut scratch) {
            Ok(0) => break,
            Ok(n) => fb.feed(&scratch[..n]),
            Err(_) => break,
        }
    }
    frames
}

fn expect_error(frames: &[ServerFrame], want: ErrorCode) {
    match frames.last() {
        Some(ServerFrame::Error { code, .. }) => {
            assert_eq!(*code, want, "wrong error code in {frames:?}")
        }
        other => panic!("expected ERROR {want}, got {other:?} in {frames:?}"),
    }
}

fn indirect_events(n: u64) -> Vec<BranchEvent> {
    use ibp_isa::Addr;
    (0..n)
        .map(|i| BranchEvent::indirect_jmp(Addr::new(0x4000), Addr::new(0x9000 + (i % 3) * 0x40)))
        .collect()
}

fn mux_hello() -> Vec<u8> {
    let mut bytes = Vec::new();
    put_hello(
        &mut bytes,
        &Hello::mux(PredictorKind::Btb.wire_code(), 2048),
    );
    bytes
}

#[test]
fn handshake_rejections_are_typed() {
    let server = quick_server();
    let addr = server.local_addr();

    // Wrong magic — rejected as soon as the prefix diverges.
    expect_error(&exchange(addr, b"JUNKJUNK"), ErrorCode::BadMagic);

    // Right magic, wrong version.
    expect_error(&exchange(addr, b"IBPS\x7f\x00\x00"), ErrorCode::BadVersion);

    // Unassigned predictor wire code.
    let mut bytes = Vec::new();
    put_hello(&mut bytes, &Hello::mux(42, 2048));
    expect_error(&exchange(addr, &bytes), ErrorCode::UnknownPredictor);

    // Absurd entries budget.
    let mut bytes = Vec::new();
    put_hello(&mut bytes, &Hello::mux(PredictorKind::Btb.wire_code(), 7));
    expect_error(&exchange(addr, &bytes), ErrorCode::BadBudget);

    // Too *large* a budget is its own typed rejection, distinct from
    // too-small: the client asked for more table than any session may
    // hold (ibp_sim::MAX_BUILD_ENTRIES).
    let mut bytes = Vec::new();
    put_hello(
        &mut bytes,
        &Hello::mux(PredictorKind::Btb.wire_code(), MAX_ENTRIES + 1),
    );
    expect_error(&exchange(addr, &bytes), ErrorCode::EntriesTooLarge);

    // The typed client surfaces the same budget rejections, scoped to
    // the stream that asked.
    let mut client = MuxClient::connect(addr).expect("v3 handshake");
    for (stream, entries, want) in [
        (1, 7, ErrorCode::BadBudget),
        (2, MAX_ENTRIES + 1, ErrorCode::EntriesTooLarge),
    ] {
        client
            .open(stream, PredictorKind::Btb, entries, false)
            .expect("open is pipelined");
        match client.stats(stream) {
            Err(ClientError::StreamRejected { code, .. }) => assert_eq!(code, want),
            other => panic!("expected StreamRejected {want}, got {other:?}"),
        }
    }
    client.bye().expect("the connection survives stream rejections");

    let report = server.shutdown();
    assert!(report.drained_clean);
    assert_eq!(report.metrics.counter("serve_handshake_rejects"), 5);
    assert_eq!(report.metrics.counter("serve_sessions"), 6);
    // Each rejected open, plus the `unknown-stream` answer to the stats
    // request that found the stream gone.
    assert_eq!(report.metrics.counter("serve_mux_stream_errors"), 4);
}

/// The retired v1/v2 single-session plane is refused at the handshake
/// like any unknown version: a typed `bad-version`, counted as a
/// handshake reject.
#[test]
fn retired_v1_v2_hellos_are_refused_typed() {
    let server = quick_server();
    let addr = server.local_addr();
    for version in [1u8, 2] {
        let mut bytes = Vec::new();
        put_hello(
            &mut bytes,
            &Hello {
                version,
                predictor_code: PredictorKind::Btb.wire_code(),
                entries: 2048,
            },
        );
        let frames = exchange(addr, &bytes);
        assert_eq!(frames.len(), 1, "only the error, no session: {frames:?}");
        expect_error(&frames, ErrorCode::BadVersion);
    }
    let report = server.shutdown();
    assert!(report.drained_clean);
    assert_eq!(report.metrics.counter("serve_handshake_rejects"), 2);
    assert_eq!(report.metrics.counter("serve_protocol_errors"), 0);
}

#[test]
fn bad_frames_after_handshake_are_typed() {
    let server = quick_server();
    let addr = server.local_addr();
    let hello = mux_hello();

    // Unknown frame type.
    let mut bytes = hello.clone();
    bytes.extend_from_slice(&[0x44, 0x00]);
    let frames = exchange(addr, &bytes);
    assert!(matches!(frames.first(), Some(ServerFrame::MuxHelloAck { .. })));
    expect_error(&frames, ErrorCode::BadFrame);

    // Oversized frame header: rejected before any payload arrives.
    let mut bytes = hello.clone();
    bytes.push(frame_type::MUX_EVENT_BATCH);
    ibp_trace::wire::put_uvarint(&mut bytes, MAX_FRAME_PAYLOAD + 1);
    expect_error(&exchange(addr, &bytes), ErrorCode::Oversized);

    // Garbage payload inside a well-framed MUX_EVENT_BATCH: no stream id
    // parses, so the failure is connection-fatal.
    let mut bytes = hello.clone();
    bytes.extend_from_slice(&[frame_type::MUX_EVENT_BATCH, 3, 0xFF, 0xFF, 0xFF]);
    expect_error(&exchange(addr, &bytes), ErrorCode::BadFrame);

    let report = server.shutdown();
    assert!(report.drained_clean);
    assert_eq!(report.metrics.counter("serve_protocol_errors"), 3);
    // The server kept serving throughout: every session got its hello ack.
    assert_eq!(report.metrics.counter("serve_sessions"), 3);
}

#[test]
fn idle_sessions_are_evicted() {
    let server = quick_server();
    let addr = server.local_addr();

    // Connect and go silent: the server must evict us, not leak the
    // session forever.
    let frames = exchange(addr, b"IB"); // valid prefix, never completed
    expect_error(&frames, ErrorCode::IdleTimeout);

    let report = server.shutdown();
    assert!(report.drained_clean);
    assert_eq!(report.metrics.counter("serve_idle_evictions"), 1);
}

#[test]
fn busy_server_rejects_excess_sessions() {
    let server = Server::start(ServerConfig {
        max_sessions: 1,
        tick: Duration::from_millis(5),
        idle_timeout: Duration::from_secs(10),
        drain_timeout: Duration::from_secs(2),
        ..ServerConfig::default()
    })
    .expect("bind loopback");
    let addr = server.local_addr();

    // First session occupies the only slot.
    let mut first = MuxClient::connect(addr).expect("first session accepted");

    // Second connection is turned away with a typed Busy.
    match MuxClient::connect(addr) {
        Err(ClientError::Rejected { code, .. }) => assert_eq!(code, ErrorCode::Busy),
        other => panic!("expected Busy rejection, got {other:?}"),
    }

    // The surviving session still works end to end.
    first
        .open(1, PredictorKind::Btb, 2048, false)
        .expect("open");
    first.send(1, &indirect_events(32)).expect("stream");
    assert_eq!(first.finish(1).expect("close receipt").events(), 32);
    first.bye().expect("clean bye");

    let report = server.shutdown();
    assert!(report.drained_clean);
    assert_eq!(report.metrics.counter("serve_rejected_busy"), 1);
    assert_eq!(report.metrics.counter("serve_clean_byes"), 1);
}

#[test]
fn eof_mid_session_is_not_an_error() {
    let server = quick_server();
    let addr = server.local_addr();
    {
        let _client = MuxClient::connect(addr).expect("accepted");
        // Dropped here: the socket closes without BYE.
    }
    let report = server.shutdown();
    assert!(report.drained_clean, "EOF session must not block the drain");
    assert_eq!(report.metrics.counter("serve_eof_closes"), 1);
    assert_eq!(report.metrics.counter("serve_protocol_errors"), 0);
}

#[test]
fn shutdown_with_no_sessions_reports_clean() {
    let server = quick_server();
    let report = server.shutdown();
    assert!(report.drained_clean);
    assert_eq!(report.metrics.counter("serve_sessions"), 0);
    assert_eq!(report.pool.panicked, 0);
}

/// Events on a stream id that was never opened draw a stream-scoped
/// `unknown-stream` error — the connection (and its real streams)
/// survive to a clean bye.
#[test]
fn mux_unknown_stream_is_stream_scoped_on_the_wire() {
    let server = quick_server();
    let addr = server.local_addr();

    let mut bytes = mux_hello();
    put_mux_open(&mut bytes, 1, PredictorKind::Btb.wire_code(), 2048, false);
    let mut ghost = EventDeltaState::new();
    put_mux_events_frame(&mut ghost, 99, &indirect_events(4), &mut bytes);
    let mut enc = EventDeltaState::new();
    put_mux_events_frame(&mut enc, 1, &indirect_events(16), &mut bytes);
    put_mux_stream_frame(frame_type::MUX_CLOSE, 1, &mut bytes);
    put_simple_frame(frame_type::BYE, &mut bytes);

    let frames = exchange(addr, &bytes);
    assert!(
        frames.iter().any(|f| matches!(
            f,
            ServerFrame::MuxError {
                stream: 99,
                code: ErrorCode::UnknownStream,
                ..
            }
        )),
        "missing unknown-stream error in {frames:?}"
    );
    assert!(
        frames
            .iter()
            .any(|f| matches!(f, ServerFrame::MuxClosed { stream: 1, events: 16, .. })),
        "the real stream must close cleanly in {frames:?}"
    );
    assert!(matches!(
        frames.last(),
        Some(ServerFrame::ByeAck { events: 16 })
    ));

    let report = server.shutdown();
    assert!(report.drained_clean);
    assert_eq!(report.metrics.counter("serve_clean_byes"), 1);
    assert_eq!(report.metrics.counter("serve_protocol_errors"), 0);
    assert_eq!(report.metrics.counter("serve_mux_stream_errors"), 1);
}

/// Per-stream credit regression: a hog stream blowing through twice its
/// window is killed alone — the sibling stream on the same connection
/// keeps its credit, its state and its clean close.
#[test]
fn hog_stream_dies_alone_sibling_keeps_serving() {
    let server = quick_server();
    let addr = server.local_addr();
    let window = ServerConfig::default().window;

    let mut bytes = mux_hello();
    put_mux_open(&mut bytes, 1, PredictorKind::Btb.wire_code(), 2048, false);
    put_mux_open(&mut bytes, 2, PredictorKind::Btb.wire_code(), 2048, false);
    let mut hog = EventDeltaState::new();
    put_mux_events_frame(&mut hog, 1, &indirect_events(window * 2 + 1), &mut bytes);
    let mut good = EventDeltaState::new();
    put_mux_events_frame(&mut good, 2, &indirect_events(window / 2), &mut bytes);
    put_mux_stream_frame(frame_type::MUX_CLOSE, 2, &mut bytes);
    put_simple_frame(frame_type::BYE, &mut bytes);

    let frames = exchange(addr, &bytes);
    assert!(
        frames.iter().any(|f| matches!(
            f,
            ServerFrame::MuxError {
                stream: 1,
                code: ErrorCode::WindowOverflow,
                ..
            }
        )),
        "hog must be killed with a stream-scoped overflow in {frames:?}"
    );
    let sibling_events = window / 2;
    assert!(
        frames.iter().any(|f| matches!(
            f,
            ServerFrame::MuxClosed { stream: 2, events, .. } if *events == sibling_events
        )),
        "sibling must close cleanly with all its events in {frames:?}"
    );
    // The bye total counts only stepped events: the hog contributed none.
    assert!(matches!(
        frames.last(),
        Some(ServerFrame::ByeAck { events }) if *events == sibling_events
    ));

    let report = server.shutdown();
    assert!(report.drained_clean);
    assert_eq!(report.metrics.counter("serve_mux_window_overflows"), 1);
    assert_eq!(report.metrics.counter("serve_mux_clean_closes"), 1);
    assert_eq!(report.metrics.counter("serve_clean_byes"), 1);
    assert_eq!(report.metrics.counter("serve_events"), sibling_events);
}

/// EOF halfway through a mux event batch: the partial frame is
/// discarded with the connection — no protocol error, no panic, no
/// stuck drain.
#[test]
fn eof_mid_mux_batch_is_clean() {
    let server = quick_server();
    let addr = server.local_addr();

    let mut bytes = mux_hello();
    put_mux_open(&mut bytes, 1, PredictorKind::Btb.wire_code(), 2048, false);
    let mut enc = EventDeltaState::new();
    let mut batch = Vec::new();
    put_mux_events_frame(&mut enc, 1, &indirect_events(64), &mut batch);
    bytes.extend_from_slice(&batch[..batch.len() / 2]);
    {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(&bytes).expect("write");
        stream.flush().expect("flush");
        // Wait for the open ack so the handshake definitely landed,
        // then close abruptly mid-batch.
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        let mut scratch = [0u8; 256];
        let _ = stream.read(&mut scratch);
    }

    let report = server.shutdown();
    assert!(report.drained_clean, "mid-batch EOF must not block the drain");
    assert_eq!(report.metrics.counter("serve_eof_closes"), 1);
    assert_eq!(report.metrics.counter("serve_protocol_errors"), 0);
    assert_eq!(report.metrics.counter("serve_mux_streams"), 1);
}

/// Idle eviction on the mux plane fires per *stream*, not per
/// connection: a quiet stream is evicted while its chatty sibling (and
/// the connection) keep serving.
#[test]
fn idle_eviction_is_per_stream_on_the_wire() {
    let server = quick_server();
    let addr = server.local_addr();

    let mut client = MuxClient::connect(addr).expect("v3 handshake");
    client
        .open(1, PredictorKind::Btb, 2048, false)
        .expect("open quiet stream");
    client
        .open(2, PredictorKind::Btb, 2048, false)
        .expect("open chatty stream");
    // Stream 2 chats for ~6× the idle budget; stream 1 says nothing.
    let events = indirect_events(4);
    for _ in 0..18 {
        client.send(2, &events).expect("sibling keeps serving");
        std::thread::sleep(Duration::from_millis(20));
    }
    // The quiet stream must be gone, surfaced as a typed stream error.
    match client.stats(1) {
        Err(ClientError::StreamRejected { stream: 1, code, .. }) => {
            assert!(
                code == ErrorCode::IdleTimeout || code == ErrorCode::UnknownStream,
                "unexpected code {code}"
            );
        }
        other => panic!("expected the quiet stream evicted, got {other:?}"),
    }
    // The chatty stream still closes cleanly with everything it sent.
    let outcome = client.finish(2).expect("sibling close receipt");
    assert_eq!(outcome.events(), 18 * events.len() as u64);
    let _ = client.bye().expect("clean bye");

    let report = server.shutdown();
    assert!(report.drained_clean);
    assert_eq!(report.metrics.counter("serve_idle_evictions"), 1);
    assert_eq!(report.metrics.counter("serve_mux_clean_closes"), 1);
    assert_eq!(report.metrics.counter("serve_clean_byes"), 1);
}
