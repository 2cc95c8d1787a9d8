//! Fuzz-style property suite for the IBPS protocol decoders: the
//! handshake, a whole one-stream client session, and the
//! connection-level server frames (`tests/mux_prop.rs` covers
//! multi-stream interleaving and the per-stream server frames).
//!
//! Three invariants, each driven by the in-tree property harness:
//!
//! 1. **Round-trip** — any well-formed handshake + frame stream decodes
//!    back to exactly what was encoded.
//! 2. **Fragmentation invariance** — splitting the byte stream at
//!    arbitrary boundaries (socket reads are arbitrary) never changes
//!    what the [`FrameBuffer`] produces.
//! 3. **Hostility** — arbitrary mutations, truncations and insertions
//!    yield typed [`ibp_serve::ProtocolError`]s or valid (possibly
//!    different) frames, and *never* panic. A panic would abort the test
//!    binary; there is nothing to catch.

use ibp_isa::{Addr, BranchClass};
use ibp_serve::protocol::{
    decode_mux_events_into, frame_type, mux_events_header, put_hello, put_mux_events_frame,
    put_mux_open, put_mux_stream_frame, put_simple_frame,
};
use ibp_serve::{ErrorCode, FrameBuffer, Hello, MuxClientFrame, ServerFrame};
use ibp_testkit::{prop_assert, prop_assert_eq, Prop, TestRng};
use ibp_trace::wire::EventDeltaState;
use ibp_trace::BranchEvent;

fn gen_event(rng: &mut TestRng) -> BranchEvent {
    let class = match rng.gen_range(0u32..7) {
        0 => BranchClass::ConditionalDirect,
        1 => BranchClass::UnconditionalDirect { is_call: false },
        2 => BranchClass::UnconditionalDirect { is_call: true },
        3 => BranchClass::mt_jmp(),
        4 => BranchClass::mt_jsr(),
        5 => BranchClass::st_jsr(),
        _ => BranchClass::ret(),
    };
    let pc = rng.gen_range(1u64..u64::MAX / 8);
    let target = rng.gen_range(1u64..u64::MAX / 8);
    let taken = if class.is_conditional() {
        rng.gen_bool(0.5)
    } else {
        true
    };
    let inline = rng.gen_range(0u32..1000);
    BranchEvent::new(
        Addr::new(pc * 4),
        class,
        taken,
        Addr::new(target * 4),
        inline,
    )
}

/// One of the connection-level server frames: the handshake answer,
/// the goodbye and the typed connection error.
fn gen_server_frame(rng: &mut TestRng) -> ServerFrame {
    match rng.gen_range(0u32..3) {
        0 => ServerFrame::MuxHelloAck {
            window: rng.gen_range(1u64..10_000),
            max_streams: rng.gen_range(1u64..100_000),
        },
        1 => ServerFrame::ByeAck {
            events: rng.next_u64() >> 1,
        },
        _ => {
            let idx = rng.gen_range(0u32..ErrorCode::ALL.len() as u32) as usize;
            let detail: String = (0..rng.gen_range(0u32..40))
                .map(|_| (b'a' + (rng.next_u32() % 26) as u8) as char)
                .collect();
            ServerFrame::Error {
                code: ErrorCode::ALL[idx],
                detail,
            }
        }
    }
}

/// A random mutation program: (op, position, byte) triples.
fn gen_ops(rng: &mut TestRng) -> Vec<(u8, u64, u8)> {
    rng.vec_with(1..12, |rng| {
        (
            rng.gen_range(0u8..3),
            rng.next_u64(),
            (rng.next_u32() & 0xFF) as u8,
        )
    })
}

fn apply_ops(bytes: &mut Vec<u8>, ops: &[(u8, u64, u8)]) {
    for (op, pos, byte) in ops {
        if bytes.is_empty() {
            break;
        }
        let i = (*pos as usize) % bytes.len();
        match op {
            0 => bytes[i] ^= byte | 1,   // flip bits
            1 => bytes.truncate(i),      // truncate
            _ => bytes.insert(i, *byte), // insert garbage
        }
    }
}

/// The stream id every generated client session uses.
const STREAM: u64 = 7;

/// One decoded client frame: an event batch (decoded against the
/// stream's delta state) or any other client frame.
#[derive(Debug, Clone, PartialEq)]
enum ClientItem {
    Events(u64, Vec<BranchEvent>),
    Frame(MuxClientFrame),
}

/// Encodes a full one-stream client byte stream: handshake, `MUX_OPEN`,
/// the event batches, a `MUX_FLUSH`, a `MUX_CLOSE` and a `BYE`.
fn client_stream(hello: &Hello, batches: &[Vec<BranchEvent>]) -> Vec<u8> {
    let mut bytes = Vec::new();
    put_hello(&mut bytes, hello);
    put_mux_open(&mut bytes, STREAM, hello.predictor_code, hello.entries, true);
    let mut enc = EventDeltaState::new();
    for batch in batches {
        put_mux_events_frame(&mut enc, STREAM, batch, &mut bytes);
    }
    put_mux_stream_frame(frame_type::MUX_FLUSH, STREAM, &mut bytes);
    put_mux_stream_frame(frame_type::MUX_CLOSE, STREAM, &mut bytes);
    put_simple_frame(frame_type::BYE, &mut bytes);
    bytes
}

/// What [`client_stream`] decodes back to.
fn expected_items(hello: &Hello, batches: &[Vec<BranchEvent>]) -> Vec<ClientItem> {
    let mut items = vec![ClientItem::Frame(MuxClientFrame::Open {
        stream: STREAM,
        predictor_code: hello.predictor_code,
        entries: hello.entries,
        verbose: true,
    })];
    items.extend(batches.iter().map(|b| ClientItem::Events(STREAM, b.clone())));
    items.push(ClientItem::Frame(MuxClientFrame::Flush { stream: STREAM }));
    items.push(ClientItem::Frame(MuxClientFrame::Close { stream: STREAM }));
    items.push(ClientItem::Frame(MuxClientFrame::Bye));
    items
}

/// Drains everything a client byte stream contains, feeding the buffer
/// in the given fragments.
fn parse_client_stream(
    fragments: &[&[u8]],
) -> Result<(Option<Hello>, Vec<ClientItem>), ibp_serve::ProtocolError> {
    let mut fb = FrameBuffer::new();
    let mut state = EventDeltaState::new();
    let mut hello = None;
    let mut items = Vec::new();
    for fragment in fragments {
        fb.feed(fragment);
        if hello.is_none() {
            hello = fb.next_hello()?;
            if hello.is_none() {
                continue;
            }
        }
        while let Some(raw) = fb.next_frame()? {
            if raw.frame_type == frame_type::MUX_EVENT_BATCH {
                let header = mux_events_header(&raw)?;
                let mut events = Vec::new();
                decode_mux_events_into(&raw, header, &mut state, &mut events)?;
                items.push(ClientItem::Events(header.stream, events));
            } else {
                items.push(ClientItem::Frame(MuxClientFrame::decode(&raw)?));
            }
        }
    }
    Ok((hello, items))
}

/// Round-trip + fragmentation invariance for the client side of the
/// protocol: any fragmentation of a valid stream parses to the same
/// handshake and frames.
#[test]
fn client_stream_parse_is_fragmentation_invariant() {
    Prop::new("client_stream_parse_is_fragmentation_invariant").run(
        |rng| {
            let code = (rng.next_u32() & 0xFF) as u8;
            let entries = rng.gen_range(64u64..1 << 20);
            let batches: Vec<Vec<BranchEvent>> =
                rng.vec_with(0..4, |rng| rng.vec_with(0..40, gen_event));
            let cuts: Vec<u64> = rng.vec_with(0..8, |rng| rng.next_u64());
            (code, entries, batches, cuts)
        },
        |(code, entries, batches, cuts)| {
            let hello = Hello::mux(*code, *entries);
            let bytes = client_stream(&hello, batches);
            // Reference parse: one fragment.
            let (ref_hello, ref_frames) =
                parse_client_stream(&[&bytes]).expect("valid stream parses");
            prop_assert_eq!(ref_hello, Some(hello));
            let expect = expected_items(&hello, batches);
            prop_assert_eq!(&ref_frames, &expect);

            // Fragmented parse: split at arbitrary sorted offsets.
            let mut offsets: Vec<usize> = cuts
                .iter()
                .map(|c| (*c as usize) % (bytes.len() + 1))
                .collect();
            offsets.sort_unstable();
            let mut fragments: Vec<&[u8]> = Vec::new();
            let mut prev = 0usize;
            for off in offsets {
                fragments.push(&bytes[prev..off]);
                prev = off;
            }
            fragments.push(&bytes[prev..]);
            let (frag_hello, frag_frames) =
                parse_client_stream(&fragments).expect("fragmentation cannot break parsing");
            prop_assert_eq!(frag_hello, Some(hello));
            prop_assert_eq!(&frag_frames, &expect);
            Ok(())
        },
    );
}

/// Connection-level server frames round-trip through their codec.
#[test]
fn server_frames_round_trip() {
    Prop::new("server_frames_round_trip").run(
        |rng| rng.vec_with(0..20, gen_server_frame),
        |frames| {
            let mut bytes = Vec::new();
            for f in frames {
                f.put(&mut bytes);
            }
            let mut fb = FrameBuffer::new();
            fb.feed(&bytes);
            for f in frames {
                let raw = fb.next_frame().expect("valid").expect("complete");
                prop_assert_eq!(&ServerFrame::decode(&raw).expect("round-trip"), f);
            }
            prop_assert_eq!(fb.next_frame(), Ok(None));
            Ok(())
        },
    );
}

/// Hostile input: mutate/truncate/insert into a valid client stream and
/// drive the full decode path. Every outcome must be a typed error or a
/// (possibly different) valid parse — never a panic.
#[test]
fn mutated_client_streams_never_panic() {
    Prop::new("mutated_client_streams_never_panic").run(
        |rng| {
            let code = (rng.next_u32() & 0xFF) as u8;
            let entries = rng.gen_range(64u64..1 << 20);
            let batches: Vec<Vec<BranchEvent>> =
                rng.vec_with(1..3, |rng| rng.vec_with(1..30, gen_event));
            (code, entries, batches, gen_ops(rng))
        },
        |(code, entries, batches, ops)| {
            let hello = Hello::mux(*code, *entries);
            let mut bytes = client_stream(&hello, batches);
            apply_ops(&mut bytes, ops);
            // Must return (Ok or typed Err), never panic or loop forever.
            let _ = parse_client_stream(&[&bytes]);
            Ok(())
        },
    );
}

/// Hostile input against the server-frame decoder (the client's receive
/// path): same contract, no panics.
#[test]
fn mutated_server_streams_never_panic() {
    Prop::new("mutated_server_streams_never_panic").run(
        |rng| (rng.vec_with(1..10, gen_server_frame), gen_ops(rng)),
        |(frames, ops)| {
            let mut bytes = Vec::new();
            for f in frames {
                f.put(&mut bytes);
            }
            apply_ops(&mut bytes, ops);
            let mut fb = FrameBuffer::new();
            fb.feed(&bytes);
            while let Ok(Some(raw)) = fb.next_frame() {
                let _ = ServerFrame::decode(&raw);
            }
            Ok(())
        },
    );
}

/// Pure garbage never panics the handshake parser, and anything not
/// starting with the magic fails fast.
#[test]
fn garbage_handshakes_fail_typed() {
    Prop::new("garbage_handshakes_fail_typed").run(
        |rng| rng.vec_with(0..64, |rng| (rng.next_u32() & 0xFF) as u8),
        |bytes: &Vec<u8>| {
            let mut fb = FrameBuffer::new();
            fb.feed(bytes);
            let parsed = fb.next_hello();
            if !bytes.is_empty() && bytes[0] != b'I' {
                prop_assert!(parsed.is_err(), "diverging magic must be rejected");
            }
            Ok(())
        },
    );
}

/// The drain-path error frame round-trips with its wire spelling: a
/// server announcing `shutting-down` must be decodable by any client.
#[test]
fn shutting_down_error_round_trips() {
    let frame = ServerFrame::Error {
        code: ErrorCode::ShuttingDown,
        detail: "server draining".to_string(),
    };
    let mut bytes = Vec::new();
    frame.put(&mut bytes);
    let mut fb = FrameBuffer::new();
    fb.feed(&bytes);
    let raw = fb.next_frame().expect("valid").expect("complete");
    assert_eq!(ServerFrame::decode(&raw).expect("round-trip"), frame);
    assert_eq!(ErrorCode::ShuttingDown.to_string(), "shutting-down");
}
