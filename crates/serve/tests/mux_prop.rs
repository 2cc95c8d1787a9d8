//! Fuzz-style property suite for the IBPS v3 mux plane.
//!
//! Four invariants, driven by the in-tree property harness (seeded PRNG
//! via `IBP_TEST_SEED`, automatic shrinking):
//!
//! 1. **Fragmentation invariance** — splitting a multi-stream mux byte
//!    stream at arbitrary boundaries never changes the reassembled
//!    per-stream event sequences.
//! 2. **Interleaving invariance** — how batches from different streams
//!    are interleaved on the wire cannot change any stream's result:
//!    every interleaving produces the same per-stream close receipts,
//!    equal to offline simulation.
//! 3. **Round-trip** — mux server frames decode back to exactly what
//!    was encoded.
//! 4. **Hostility** — arbitrary mutations, truncations and insertions
//!    yield typed errors or valid (possibly different) frames, and
//!    *never* panic, both at the codec layer and through a live
//!    [`MuxConn`].

use ibp_isa::{Addr, BranchClass};
use ibp_serve::protocol::{
    decode_mux_events_into, frame_type, mux_events_header, put_mux_events_frame, put_mux_open,
    put_mux_stream_frame, MuxClientFrame,
};
use ibp_serve::{ErrorCode, FrameBuffer, MuxConn, RawFrame, ServerFrame};
use ibp_sim::PredictorKind;
use ibp_testkit::{prop_assert, prop_assert_eq, Prop, TestRng};
use ibp_trace::wire::EventDeltaState;
use ibp_trace::BranchEvent;
use std::collections::BTreeMap;

const ENTRIES: u64 = 2048;

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
    let pc = rng.gen_range(1u64..1 << 20);
    let target = rng.gen_range(1u64..1 << 20);
    let taken = if class.is_conditional() {
        rng.gen_bool(0.5)
    } else {
        true
    };
    BranchEvent::new(
        Addr::new(pc * 4),
        class,
        taken,
        Addr::new(target * 4),
        rng.gen_range(0u32..100),
    )
}

/// Per-stream event lists: stream id → its full event sequence, split
/// into wire batches.
type StreamBatches = Vec<(u64, Vec<Vec<BranchEvent>>)>;

fn gen_streams(rng: &mut TestRng) -> StreamBatches {
    let n = rng.gen_range(1u32..4) as u64;
    (0..n)
        .map(|id| {
            let batches = rng.vec_with(1..4, |rng| rng.vec_with(1..25, gen_event));
            (id, batches)
        })
        .collect()
}

/// Encodes a full mux client byte stream: opens, then batches in the
/// interleaving order given by `schedule` (indices into a round-robin
/// walk), then closes.
fn mux_stream(streams: &StreamBatches, schedule: &[u64]) -> Vec<u8> {
    let mut bytes = Vec::new();
    let mut encoders: BTreeMap<u64, EventDeltaState> = BTreeMap::new();
    let mut cursors: Vec<usize> = vec![0; streams.len()];
    for (id, _) in streams {
        put_mux_open(&mut bytes, *id, PredictorKind::Btb.wire_code(), ENTRIES, false);
        encoders.insert(*id, EventDeltaState::new());
    }
    // Drain batches in schedule-directed order until every stream's
    // batches are on the wire.
    let mut pick = 0usize;
    loop {
        let remaining: Vec<usize> = streams
            .iter()
            .enumerate()
            .filter(|(i, (_, batches))| cursors[*i] < batches.len())
            .map(|(i, _)| i)
            .collect();
        if remaining.is_empty() {
            break;
        }
        let choice = schedule
            .get(pick % schedule.len().max(1))
            .copied()
            .unwrap_or(0) as usize
            % remaining.len();
        pick += 1;
        let i = remaining[choice];
        let (id, batches) = &streams[i];
        let enc = encoders.entry(*id).or_default();
        put_mux_events_frame(enc, *id, &batches[cursors[i]], &mut bytes);
        cursors[i] += 1;
    }
    for (id, _) in streams {
        put_mux_stream_frame(frame_type::MUX_CLOSE, *id, &mut bytes);
    }
    bytes
}

/// The observed frame-type sequence plus each stream's events.
type ParsedMux = (Vec<u8>, BTreeMap<u64, Vec<BranchEvent>>);

/// Reassembles per-stream event sequences from a mux byte stream fed in
/// the given fragments, plus the observed frame-type sequence.
fn parse_mux_stream(fragments: &[&[u8]]) -> Result<ParsedMux, ibp_serve::ProtocolError> {
    let mut fb = FrameBuffer::new();
    let mut decoders: BTreeMap<u64, EventDeltaState> = BTreeMap::new();
    let mut per_stream: BTreeMap<u64, Vec<BranchEvent>> = BTreeMap::new();
    let mut types = Vec::new();
    for fragment in fragments {
        fb.feed(fragment);
        while let Some(raw) = fb.next_frame()? {
            types.push(raw.frame_type);
            if raw.frame_type == frame_type::MUX_EVENT_BATCH {
                let header = mux_events_header(&raw)?;
                let state = decoders.entry(header.stream).or_default();
                let out = per_stream.entry(header.stream).or_default();
                decode_mux_events_into(&raw, header, state, out)?;
            } else {
                let _ = MuxClientFrame::decode(&raw)?;
            }
        }
    }
    Ok((types, per_stream))
}

/// Invariant 1: fragmentation cannot change what a mux byte stream
/// reassembles to — neither the frame sequence nor any stream's events.
#[test]
fn mux_reassembly_is_fragmentation_invariant() {
    Prop::new("mux_reassembly_is_fragmentation_invariant").run(
        |rng| {
            let streams = gen_streams(rng);
            let schedule: Vec<u64> = rng.vec_with(1..12, |rng| rng.next_u64());
            let cuts: Vec<u64> = rng.vec_with(0..10, |rng| rng.next_u64());
            (streams, schedule, cuts)
        },
        |(streams, schedule, cuts)| {
            let bytes = mux_stream(streams, schedule);
            let (ref_types, ref_events) =
                parse_mux_stream(&[&bytes]).expect("valid stream parses");
            // Every stream's reassembled sequence is its own original
            // event list, independent of wire interleaving.
            for (id, batches) in streams {
                let expect: Vec<BranchEvent> =
                    batches.iter().flatten().copied().collect();
                prop_assert_eq!(ref_events.get(id), Some(&expect));
            }

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
            let (frag_types, frag_events) =
                parse_mux_stream(&fragments).expect("fragmentation cannot break parsing");
            prop_assert_eq!(&frag_types, &ref_types);
            prop_assert_eq!(&frag_events, &ref_events);
            Ok(())
        },
    );
}

/// Drives a byte stream through a server-side [`MuxConn`], returning
/// each stream's close receipt.
fn serve_bytes(bytes: &[u8]) -> BTreeMap<u64, ServerFrame> {
    let mut conn = MuxConn::new(1 << 20, 64);
    let mut fb = FrameBuffer::new();
    fb.feed(bytes);
    let mut out = Vec::new();
    while let Some(raw) = fb.next_frame().expect("valid") {
        conn.on_frame(&raw, &mut out).expect("well-formed stream");
    }
    conn.step_pending(&mut out);
    out.into_iter()
        .filter_map(|f| match &f {
            ServerFrame::MuxClosed { stream, .. } => Some((*stream, f)),
            _ => None,
        })
        .collect()
}

/// Invariant 2: the wire interleaving of batches from different streams
/// cannot change any stream's served result, which always equals
/// offline simulation of that stream's own events.
#[test]
fn interleaving_never_changes_any_streams_result() {
    Prop::new("interleaving_never_changes_any_streams_result").cases(64).run(
        |rng| {
            let streams = gen_streams(rng);
            let schedule_a: Vec<u64> = rng.vec_with(1..12, |rng| rng.next_u64());
            let schedule_b: Vec<u64> = rng.vec_with(1..12, |rng| rng.next_u64());
            (streams, schedule_a, schedule_b)
        },
        |(streams, schedule_a, schedule_b)| {
            let closed_a = serve_bytes(&mux_stream(streams, schedule_a));
            let closed_b = serve_bytes(&mux_stream(streams, schedule_b));
            prop_assert_eq!(&closed_a, &closed_b);
            for (id, batches) in streams {
                let trace: ibp_trace::Trace =
                    batches.iter().flatten().copied().collect();
                let offline =
                    PredictorKind::Btb.simulate_events(ENTRIES as usize, trace.iter().copied());
                let Some(ServerFrame::MuxClosed {
                    events,
                    predictions,
                    mispredictions,
                    ..
                }) = closed_a.get(id)
                else {
                    prop_assert!(false, "stream {id} missing its close receipt");
                    return Ok(());
                };
                prop_assert_eq!(*events, trace.len() as u64);
                prop_assert_eq!(*predictions, offline.predictions());
                prop_assert_eq!(*mispredictions, offline.mispredictions());
            }
            Ok(())
        },
    );
}

fn gen_mux_server_frame(rng: &mut TestRng) -> ServerFrame {
    match rng.gen_range(0u32..8) {
        0 => ServerFrame::MuxHelloAck {
            window: rng.gen_range(1u64..10_000),
            max_streams: rng.gen_range(1u64..100_000),
        },
        1 => ServerFrame::MuxOpenAck {
            stream: rng.next_u64() >> 1,
            window: rng.gen_range(1u64..10_000),
        },
        2 => {
            let predicted = if rng.gen_bool(0.5) {
                Some(rng.next_u64() >> 1)
            } else {
                None
            };
            ServerFrame::MuxPrediction {
                stream: rng.next_u64() >> 1,
                seq: rng.next_u64() >> 1,
                correct: predicted.is_some() && rng.gen_bool(0.5),
                predicted,
            }
        }
        3 => ServerFrame::MuxAck {
            stream: rng.next_u64() >> 1,
            through_seq: rng.next_u64() >> 1,
        },
        4 => ServerFrame::MuxBackpressure {
            stream: rng.next_u64() >> 1,
            batch: rng.gen_range(1u64..100_000),
            window: rng.gen_range(1u64..100_000),
        },
        5 => ServerFrame::MuxStats {
            stream: rng.next_u64() >> 1,
            events: rng.next_u64() >> 1,
            predictions: rng.next_u64() >> 1,
            mispredictions: rng.next_u64() >> 1,
        },
        6 => {
            // Sites must be strictly ascending by pc: generate by
            // accumulating positive gaps.
            let mut pc = 0u64;
            let per_branch: Vec<(u64, u64, u64)> = (0..rng.gen_range(0u32..12))
                .map(|_| {
                    pc += rng.gen_range(1u64..1 << 30);
                    (pc, rng.next_u64() >> 1, rng.next_u64() >> 1)
                })
                .collect();
            ServerFrame::MuxClosed {
                stream: rng.next_u64() >> 1,
                events: rng.next_u64() >> 1,
                predictions: rng.next_u64() >> 1,
                mispredictions: rng.next_u64() >> 1,
                per_branch,
            }
        }
        _ => {
            let idx = rng.gen_range(0u32..ErrorCode::ALL.len() as u32) as usize;
            let detail: String = (0..rng.gen_range(0u32..30))
                .map(|_| (b'a' + (rng.next_u32() % 26) as u8) as char)
                .collect();
            ServerFrame::MuxError {
                stream: rng.next_u64() >> 1,
                code: ErrorCode::ALL[idx],
                detail,
            }
        }
    }
}

/// Invariant 3: mux server frames round-trip through their codec.
#[test]
fn mux_server_frames_round_trip() {
    Prop::new("mux_server_frames_round_trip").run(
        |rng| rng.vec_with(0..16, gen_mux_server_frame),
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

/// Invariant 4a: hostile bytes through the codec layer — typed errors
/// or valid parses, never a panic.
#[test]
fn mutated_mux_streams_never_panic_in_the_codec() {
    Prop::new("mutated_mux_streams_never_panic_in_the_codec").run(
        |rng| {
            let streams = gen_streams(rng);
            let schedule: Vec<u64> = rng.vec_with(1..8, |rng| rng.next_u64());
            (streams, schedule, gen_ops(rng))
        },
        |(streams, schedule, ops)| {
            let mut bytes = mux_stream(streams, schedule);
            apply_ops(&mut bytes, ops);
            let _ = parse_mux_stream(&[&bytes]);
            Ok(())
        },
    );
}

/// Invariant 4b: hostile bytes through a live server-side [`MuxConn`] —
/// stream-scoped or connection-fatal typed errors, never a panic.
#[test]
fn mutated_mux_streams_never_panic_the_registry() {
    Prop::new("mutated_mux_streams_never_panic_the_registry").cases(128).run(
        |rng| {
            let streams = gen_streams(rng);
            let schedule: Vec<u64> = rng.vec_with(1..8, |rng| rng.next_u64());
            (streams, schedule, gen_ops(rng))
        },
        |(streams, schedule, ops)| {
            let mut bytes = mux_stream(streams, schedule);
            apply_ops(&mut bytes, ops);
            let mut conn = MuxConn::new(1 << 20, 64);
            let mut fb = FrameBuffer::new();
            fb.feed(&bytes);
            let mut out = Vec::new();
            while let Ok(Some(raw)) = fb.next_frame() {
                if conn.on_frame(&raw, &mut out).is_err() {
                    break; // connection-fatal: typed, done.
                }
            }
            conn.step_pending(&mut out);
            Ok(())
        },
    );
}

/// Mutating a *server* mux byte stream never panics the client-side
/// decoder either.
#[test]
fn mutated_mux_server_streams_never_panic() {
    Prop::new("mutated_mux_server_streams_never_panic").run(
        |rng| (rng.vec_with(1..8, gen_mux_server_frame), gen_ops(rng)),
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
                let _ = RawFrame {
                    frame_type: raw.frame_type,
                    payload: raw.payload,
                };
            }
            Ok(())
        },
    );
}
