//! The IBPS wire protocol: handshake, frames and their codecs.
//!
//! Everything here is pure byte manipulation — no sockets — so the whole
//! protocol is property-testable offline (`tests/protocol_prop.rs` feeds
//! mutated and fragmented byte streams through the decoders). The
//! varint/zigzag/delta-event primitives come from [`ibp_trace::wire`],
//! the same codec the binary trace format v2 uses, so a captured trace
//! file and a live event stream are byte-compatible at the event level.
//!
//! # Wire layout
//!
//! A connection opens with a fixed handshake from the client:
//!
//! ```text
//! "IBPS"  version:u8  predictor:u8  entries:uvarint
//! ```
//!
//! after which both directions speak length-prefixed frames:
//!
//! ```text
//! type:u8  payload_len:uvarint  payload:[u8; payload_len]
//! ```
//!
//! The only accepted `version` is [`PROTOCOL_VERSION_MUX`] (3); any
//! other byte is a typed `BadVersion` rejection. One connection carries
//! many independent prediction streams, each identified by a
//! client-chosen `stream_id` (uvarint). The handshake's predictor and
//! entries fields are validated but bind no session — streams declare
//! their own predictor and budget in `MUX_OPEN`. The server answers with
//! `MUX_HELLO_ACK` advertising the per-stream credit window and the
//! stream-count cap.
//!
//! Client frames: `MUX_OPEN` (stream id + predictor + entries + flags,
//! bit 0 requesting per-event `MUX_PREDICTION` verbosity),
//! `MUX_EVENT_BATCH` (stream id + count + delta-coded events — each
//! stream has its *own* delta state, so interleaving streams never
//! perturbs decoding), `MUX_FLUSH`, `MUX_CLOSE` and the connection-level
//! `BYE`. Server frames, per stream: `MUX_OPEN_ACK`, `MUX_PREDICTION`
//! (sequence number, correctness, predicted target), `MUX_ACK`
//! (resolve-time feedback: the stream's events up to a sequence number
//! are processed — its send credit), `MUX_BACKPRESSURE`, `MUX_STATS`,
//! and `MUX_CLOSED` — the close receipt carrying the stream's totals
//! *and* its per-branch accounting (ascending-PC delta-coded sites),
//! which is what lets a summary-mode client rebuild the full offline
//! `RunResult` without per-event traffic — and `MUX_ERROR`, a
//! *stream-scoped* failure: the stream dies, the connection and its
//! sibling streams live on. Credit windows are tracked per stream, never
//! per connection, so one hog stream cannot starve its siblings.
//! Connection-level server frames: `BYE_ACK` and `ERROR` (typed code +
//! human-readable detail; always followed by close), the latter for
//! handshake and framing failures.
//!
//! Decoding is defensive end to end: truncated, oversized, mutated or
//! trailing-garbage input yields a typed [`ProtocolError`], never a
//! panic — this crate is in the lint engine's panic-free list (L004).

use ibp_trace::wire::{self, put_uvarint, EventDeltaState, WireError, WireReader};
use ibp_trace::BranchEvent;
use std::fmt;

/// The four magic bytes opening every connection.
pub const MAGIC: [u8; 4] = *b"IBPS";

/// The protocol version: the stream-multiplexed plane. Versions 1 and 2
/// (a retired one-session-per-connection plane) are rejected like any
/// other unknown version.
pub const PROTOCOL_VERSION_MUX: u8 = 3;

/// Hard cap on a frame payload. Anything claiming more is rejected
/// before allocation (`ProtocolError::Oversized`).
pub const MAX_FRAME_PAYLOAD: u64 = 1 << 20;

/// Frame type codes. Client→server types have the high bit clear,
/// server→client types set it (`ERROR` deliberately sits at the top).
///
/// Codes `0x01`, `0x02` and `0x81`–`0x85` belonged to the retired v1/v2
/// plane; they are unknown frame types now and are never reused.
pub mod frame_type {
    /// Client→server: graceful close of the whole connection; server
    /// answers `BYE_ACK`.
    pub const BYE: u8 = 0x03;
    /// Client→server (v3): open a stream (id + predictor + entries +
    /// flags).
    pub const MUX_OPEN: u8 = 0x10;
    /// Client→server (v3): a batch of delta-coded events for one stream.
    pub const MUX_EVENT_BATCH: u8 = 0x11;
    /// Client→server (v3): request a `MUX_STATS` report for one stream.
    pub const MUX_FLUSH: u8 = 0x12;
    /// Client→server (v3): close one stream; server answers `MUX_CLOSED`.
    pub const MUX_CLOSE: u8 = 0x13;
    /// Server→client: goodbye acknowledged; connection closes.
    pub const BYE_ACK: u8 = 0x86;
    /// Server→client (v3): mux handshake accepted (per-stream window +
    /// stream cap).
    pub const MUX_HELLO_ACK: u8 = 0x87;
    /// Server→client (v3): stream opened.
    pub const MUX_OPEN_ACK: u8 = 0x88;
    /// Server→client (v3): one prediction outcome on a stream.
    pub const MUX_PREDICTION: u8 = 0x89;
    /// Server→client (v3): a stream's events are resolved through a
    /// sequence number.
    pub const MUX_ACK: u8 = 0x8A;
    /// Server→client (v3): a stream's batch exceeded its window.
    pub const MUX_BACKPRESSURE: u8 = 0x8B;
    /// Server→client (v3): one stream's running totals.
    pub const MUX_STATS: u8 = 0x8C;
    /// Server→client (v3): close receipt with totals + per-branch sites.
    pub const MUX_CLOSED: u8 = 0x8D;
    /// Server→client (v3): stream-scoped typed failure; the stream dies,
    /// the connection survives.
    pub const MUX_ERROR: u8 = 0x8E;
    /// Server→client: typed failure; connection closes.
    pub const ERROR: u8 = 0xFF;
}

/// Typed error codes carried in `ERROR` and `MUX_ERROR` frames.
///
/// Wire byte 13 (`mux-not-negotiated`, mux frames on a v1/v2
/// connection) is retired with that plane and never reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Handshake did not start with `IBPS`.
    BadMagic,
    /// Unsupported protocol version.
    BadVersion,
    /// Unassigned predictor wire code.
    UnknownPredictor,
    /// Entries budget outside the accepted range.
    BadBudget,
    /// Malformed frame or payload.
    BadFrame,
    /// Frame payload length beyond [`MAX_FRAME_PAYLOAD`].
    Oversized,
    /// A batch more than twice the advertised window.
    WindowOverflow,
    /// No client bytes within the idle timeout.
    IdleTimeout,
    /// Session table full at accept time.
    Busy,
    /// Server is draining; no new work accepted.
    ShuttingDown,
    /// A mux frame named a stream that is not open.
    UnknownStream,
    /// `MUX_OPEN` beyond the advertised per-connection stream cap.
    StreamLimit,
    /// `MUX_OPEN` for a stream id that is already open.
    DuplicateStream,
    /// Entries budget above the documented per-session maximum
    /// (`ibp_sim::MAX_BUILD_ENTRIES`). Distinct from [`BadBudget`]
    /// (too small / malformed) so capacity planners can tell "ask for
    /// less" apart from "ask differently".
    ///
    /// [`BadBudget`]: ErrorCode::BadBudget
    EntriesTooLarge,
}

impl ErrorCode {
    /// All codes, in wire order.
    pub const ALL: [ErrorCode; 14] = [
        ErrorCode::BadMagic,
        ErrorCode::BadVersion,
        ErrorCode::UnknownPredictor,
        ErrorCode::BadBudget,
        ErrorCode::BadFrame,
        ErrorCode::Oversized,
        ErrorCode::WindowOverflow,
        ErrorCode::IdleTimeout,
        ErrorCode::Busy,
        ErrorCode::ShuttingDown,
        ErrorCode::UnknownStream,
        ErrorCode::StreamLimit,
        ErrorCode::DuplicateStream,
        ErrorCode::EntriesTooLarge,
    ];

    /// The single-byte wire representation.
    pub fn as_u8(self) -> u8 {
        match self {
            ErrorCode::BadMagic => 1,
            ErrorCode::BadVersion => 2,
            ErrorCode::UnknownPredictor => 3,
            ErrorCode::BadBudget => 4,
            ErrorCode::BadFrame => 5,
            ErrorCode::Oversized => 6,
            ErrorCode::WindowOverflow => 7,
            ErrorCode::IdleTimeout => 8,
            ErrorCode::Busy => 9,
            ErrorCode::ShuttingDown => 10,
            ErrorCode::UnknownStream => 11,
            ErrorCode::StreamLimit => 12,
            ErrorCode::DuplicateStream => 14,
            ErrorCode::EntriesTooLarge => 15,
        }
    }

    /// Decodes a wire byte; `None` for unassigned codes.
    pub fn from_u8(code: u8) -> Option<ErrorCode> {
        ErrorCode::ALL.into_iter().find(|c| c.as_u8() == code)
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ErrorCode::BadMagic => "bad-magic",
            ErrorCode::BadVersion => "bad-version",
            ErrorCode::UnknownPredictor => "unknown-predictor",
            ErrorCode::BadBudget => "bad-budget",
            ErrorCode::BadFrame => "bad-frame",
            ErrorCode::Oversized => "oversized",
            ErrorCode::WindowOverflow => "window-overflow",
            ErrorCode::IdleTimeout => "idle-timeout",
            ErrorCode::Busy => "busy",
            ErrorCode::ShuttingDown => "shutting-down",
            ErrorCode::UnknownStream => "unknown-stream",
            ErrorCode::StreamLimit => "stream-limit",
            ErrorCode::DuplicateStream => "duplicate-stream",
            ErrorCode::EntriesTooLarge => "entries-too-large",
        };
        f.write_str(name)
    }
}

/// A typed decode failure. Every malformed input maps to one of these;
/// nothing in this module panics on untrusted bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// Varint/delta-event level failure inside a complete frame.
    Wire(WireError),
    /// Handshake did not open with `IBPS`.
    BadMagic,
    /// Handshake carried an unsupported version.
    BadVersion(u8),
    /// A frame type neither side defines.
    UnknownFrame(u8),
    /// A frame header claiming more than [`MAX_FRAME_PAYLOAD`] bytes.
    Oversized(u64),
    /// A structurally invalid payload (wrong arity, trailing bytes, …).
    BadPayload(&'static str),
}

impl ProtocolError {
    /// The `ERROR`-frame code a server should answer this failure with.
    pub fn error_code(&self) -> ErrorCode {
        match self {
            ProtocolError::Wire(_) | ProtocolError::BadPayload(_) => ErrorCode::BadFrame,
            ProtocolError::BadMagic => ErrorCode::BadMagic,
            ProtocolError::BadVersion(_) => ErrorCode::BadVersion,
            ProtocolError::UnknownFrame(_) => ErrorCode::BadFrame,
            ProtocolError::Oversized(_) => ErrorCode::Oversized,
        }
    }
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Wire(e) => write!(f, "wire error: {e}"),
            ProtocolError::BadMagic => write!(f, "handshake does not start with IBPS"),
            ProtocolError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            ProtocolError::UnknownFrame(t) => write!(f, "unknown frame type {t:#04x}"),
            ProtocolError::Oversized(n) => {
                write!(f, "frame payload of {n} bytes exceeds {MAX_FRAME_PAYLOAD}")
            }
            ProtocolError::BadPayload(what) => write!(f, "malformed payload: {what}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<WireError> for ProtocolError {
    fn from(e: WireError) -> Self {
        ProtocolError::Wire(e)
    }
}

/// The client's opening request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hello {
    /// Protocol version; always [`PROTOCOL_VERSION_MUX`] once parsed.
    pub version: u8,
    /// Predictor wire code (`ibp_sim::PredictorKind::wire_code`).
    /// Validated but unbound: streams declare their own in `MUX_OPEN`.
    pub predictor_code: u8,
    /// Requested table-entry budget; validated but unbound, like
    /// `predictor_code`.
    pub entries: u64,
}

impl Hello {
    /// A v3 (multiplexed) handshake.
    pub fn mux(predictor_code: u8, entries: u64) -> Hello {
        Hello {
            version: PROTOCOL_VERSION_MUX,
            predictor_code,
            entries,
        }
    }
}

/// Appends the handshake bytes for `hello`.
pub fn put_hello(out: &mut Vec<u8>, hello: &Hello) {
    out.extend_from_slice(&MAGIC);
    out.push(hello.version);
    out.push(hello.predictor_code);
    put_uvarint(out, hello.entries);
}

/// A frame as it sits on the wire: type byte plus raw payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawFrame {
    /// One of the [`frame_type`] constants (or garbage, if the peer sent
    /// garbage — dispatchers must reject unknown types).
    pub frame_type: u8,
    /// The payload bytes, already length-checked against
    /// [`MAX_FRAME_PAYLOAD`].
    pub payload: Vec<u8>,
}

/// An incremental reassembly buffer: feed it socket reads, pull complete
/// handshakes/frames out. Splitting the input at arbitrary byte
/// boundaries never changes what comes out (property-tested).
#[derive(Debug, Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    start: usize,
}

/// Reclaim consumed prefix space once it exceeds this many bytes.
const COMPACT_THRESHOLD: usize = 8192;

impl FrameBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends freshly received bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.start
    }

    fn unread(&self) -> &[u8] {
        self.buf.get(self.start..).unwrap_or(&[])
    }

    fn consume(&mut self, n: usize) {
        self.start += n;
        let pending = self.buf.len() - self.start;
        // Compaction moves the pending tail, so only compact when the
        // consumed prefix is at least as large: every byte is then
        // moved at most once per time it was consumed (amortized O(1)).
        // Compacting eagerly on a large buffer would re-move a long
        // tail after every frame — quadratic on burst reads.
        if pending == 0 {
            self.buf.clear();
            self.start = 0;
        } else if self.start >= COMPACT_THRESHOLD && self.start >= pending {
            self.buf.drain(..self.start);
            self.start = 0;
        }
    }

    /// Tries to parse the handshake. `Ok(None)` means more bytes are
    /// needed; malformed openings are typed errors immediately.
    // ibp-lint: allow(L007, "length fields are bounds-checked against the buffered bytes before slicing")
    pub fn next_hello(&mut self) -> Result<Option<Hello>, ProtocolError> {
        let mut r = WireReader::new(self.unread());
        let magic = match r.bytes(MAGIC.len()) {
            Ok(m) => m,
            Err(WireError::Truncated) => {
                // Reject a wrong prefix as soon as it diverges — no point
                // waiting for 4 bytes that can never match.
                return if self.unread() == &MAGIC[..self.unread().len()] {
                    Ok(None)
                } else {
                    Err(ProtocolError::BadMagic)
                };
            }
            Err(e) => return Err(e.into()),
        };
        if magic != MAGIC {
            return Err(ProtocolError::BadMagic);
        }
        let version = match r.u8() {
            Ok(v) => v,
            Err(WireError::Truncated) => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        if version != PROTOCOL_VERSION_MUX {
            return Err(ProtocolError::BadVersion(version));
        }
        let predictor_code = match r.u8() {
            Ok(c) => c,
            Err(WireError::Truncated) => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        let entries = match r.uvarint() {
            Ok(n) => n,
            Err(WireError::Truncated) => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        let consumed = r.consumed();
        self.consume(consumed);
        Ok(Some(Hello {
            version,
            predictor_code,
            entries,
        }))
    }

    /// Tries to parse one complete frame. `Ok(None)` means more bytes
    /// are needed; a header claiming an oversized payload fails *before*
    /// any allocation.
    pub fn next_frame(&mut self) -> Result<Option<RawFrame>, ProtocolError> {
        let mut r = WireReader::new(self.unread());
        let frame_type = match r.u8() {
            Ok(t) => t,
            Err(WireError::Truncated) => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        let len = match r.uvarint() {
            Ok(n) => n,
            Err(WireError::Truncated) => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        if len > MAX_FRAME_PAYLOAD {
            return Err(ProtocolError::Oversized(len));
        }
        let payload = match r.bytes(len as usize) {
            Ok(p) => p.to_vec(),
            Err(WireError::Truncated) => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        let consumed = r.consumed();
        self.consume(consumed);
        Ok(Some(RawFrame {
            frame_type,
            payload,
        }))
    }
}

fn put_frame(out: &mut Vec<u8>, frame_type: u8, payload: &[u8]) {
    out.push(frame_type);
    put_uvarint(out, payload.len() as u64);
    out.extend_from_slice(payload);
}

/// Appends a payload-less client frame (`BYE`).
pub fn put_simple_frame(frame_type: u8, out: &mut Vec<u8>) {
    put_frame(out, frame_type, &[]);
}

/// `MUX_OPEN` flag bit: request per-event `MUX_PREDICTION` frames
/// (verbose mode). Without it the stream runs in summary mode — acks
/// only, with the per-branch report arriving in `MUX_CLOSED`.
pub const MUX_OPEN_VERBOSE: u8 = 0x01;

/// A parsed client→server frame.
///
/// `MUX_EVENT_BATCH` is deliberately *not* materialized here: its events
/// must be decoded against the named stream's own delta state, which the
/// caller has to look up first. Use [`MuxEventsHeader`] +
/// [`decode_mux_events_into`] for that two-phase hot path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MuxClientFrame {
    /// Open stream `stream` with its own predictor and budget.
    Open {
        /// Client-chosen stream id, unique among the connection's open
        /// streams.
        stream: u64,
        /// Predictor wire code for this stream.
        predictor_code: u8,
        /// Table-entry budget for this stream.
        entries: u64,
        /// Request per-event `MUX_PREDICTION` frames.
        verbose: bool,
    },
    /// Request a [`ServerFrame::MuxStats`] report for one stream.
    Flush {
        /// The stream being flushed.
        stream: u64,
    },
    /// Close one stream; the server answers [`ServerFrame::MuxClosed`].
    Close {
        /// The stream being closed.
        stream: u64,
    },
    /// Graceful close of the whole connection.
    Bye,
}

impl MuxClientFrame {
    /// Decodes a raw frame *other than* `MUX_EVENT_BATCH` (see the type
    /// docs). Unassigned frame types come back as
    /// [`ProtocolError::UnknownFrame`].
    pub fn decode(raw: &RawFrame) -> Result<MuxClientFrame, ProtocolError> {
        let mut r = WireReader::new(&raw.payload);
        let frame = match raw.frame_type {
            frame_type::MUX_OPEN => {
                let stream = r.uvarint()?;
                let predictor_code = r.u8()?;
                let entries = r.uvarint()?;
                let flags = r.u8()?;
                if flags & !MUX_OPEN_VERBOSE != 0 {
                    return Err(ProtocolError::BadPayload("reserved mux-open flags"));
                }
                MuxClientFrame::Open {
                    stream,
                    predictor_code,
                    entries,
                    verbose: flags & MUX_OPEN_VERBOSE != 0,
                }
            }
            frame_type::MUX_FLUSH => MuxClientFrame::Flush {
                stream: r.uvarint()?,
            },
            frame_type::MUX_CLOSE => MuxClientFrame::Close {
                stream: r.uvarint()?,
            },
            frame_type::BYE => MuxClientFrame::Bye,
            other => return Err(ProtocolError::UnknownFrame(other)),
        };
        if !r.is_empty() {
            return Err(ProtocolError::BadPayload("trailing bytes after payload"));
        }
        Ok(frame)
    }
}

/// The parsed header of a `MUX_EVENT_BATCH` frame: the stream id and
/// event count, with the events themselves still undecoded (they need
/// the stream's delta state).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MuxEventsHeader {
    /// The stream the batch belongs to.
    pub stream: u64,
    /// Number of delta-coded events following the header.
    pub count: u64,
    /// Byte offset of the first event within the frame payload.
    pub events_at: usize,
}

/// Parses the header of a `MUX_EVENT_BATCH` frame.
pub fn mux_events_header(raw: &RawFrame) -> Result<MuxEventsHeader, ProtocolError> {
    if raw.frame_type != frame_type::MUX_EVENT_BATCH {
        return Err(ProtocolError::UnknownFrame(raw.frame_type));
    }
    let mut r = WireReader::new(&raw.payload);
    let stream = r.uvarint()?;
    let count = r.uvarint()?;
    Ok(MuxEventsHeader {
        stream,
        count,
        events_at: r.consumed(),
    })
}

/// Decodes the events of a `MUX_EVENT_BATCH` frame (headed by `header`)
/// against the stream's own delta `state`, appending to `out` — which
/// the reactor reuses across batches to keep the hot path
/// allocation-free once warm.
pub fn decode_mux_events_into(
    raw: &RawFrame,
    header: MuxEventsHeader,
    state: &mut EventDeltaState,
    out: &mut Vec<BranchEvent>,
) -> Result<(), ProtocolError> {
    let rest = raw
        .payload
        .get(header.events_at..)
        .ok_or(ProtocolError::BadPayload("event bytes out of range"))?;
    let mut r = WireReader::new(rest);
    let before = out.len();
    // `count` is an untrusted claim; each event takes at least 4 bytes,
    // so the remaining payload length bounds any honest count — clamp
    // the reservation to it rather than trusting the header.
    out.reserve((header.count as usize).min(rest.len()));
    for _ in 0..header.count {
        match wire::get_event(state, &mut r) {
            Ok(event) => out.push(event),
            Err(e) => {
                out.truncate(before);
                return Err(e.into());
            }
        }
    }
    if !r.is_empty() {
        out.truncate(before);
        return Err(ProtocolError::BadPayload("trailing bytes after payload"));
    }
    Ok(())
}

/// Appends a `MUX_OPEN` frame.
pub fn put_mux_open(
    out: &mut Vec<u8>,
    stream: u64,
    predictor_code: u8,
    entries: u64,
    verbose: bool,
) {
    let mut payload = Vec::new();
    put_uvarint(&mut payload, stream);
    payload.push(predictor_code);
    put_uvarint(&mut payload, entries);
    payload.push(if verbose { MUX_OPEN_VERBOSE } else { 0 });
    put_frame(out, frame_type::MUX_OPEN, &payload);
}

/// Appends a `MUX_EVENT_BATCH` frame for `stream`, advancing that
/// stream's sender-side delta `state`.
pub fn put_mux_events_frame(
    state: &mut EventDeltaState,
    stream: u64,
    events: &[BranchEvent],
    out: &mut Vec<u8>,
) {
    let mut payload = Vec::with_capacity(12 + events.len() * 8);
    put_uvarint(&mut payload, stream);
    put_uvarint(&mut payload, events.len() as u64);
    for event in events {
        wire::put_event(state, event, &mut payload);
    }
    put_frame(out, frame_type::MUX_EVENT_BATCH, &payload);
}

/// Appends one `MUX_EVENT_BATCH` frame per listed stream, all carrying
/// the same `events`, delta-encoding the event body **once** and
/// replaying it under each stream's header. Byte-for-byte equivalent to
/// one [`put_mux_events_frame`] per stream — but only when every listed
/// stream's sender-side delta state equals `state` on entry (they have
/// carried identical event sequences so far, the load-generator
/// broadcast pattern). `state` is advanced once; the caller stores it
/// back into every listed stream.
pub fn put_mux_events_broadcast(
    state: &mut EventDeltaState,
    streams: &[u64],
    events: &[BranchEvent],
    out: &mut Vec<u8>,
) {
    let mut body = Vec::with_capacity(8 + events.len() * 8);
    put_uvarint(&mut body, events.len() as u64);
    for event in events {
        wire::put_event(state, event, &mut body);
    }
    let mut head = Vec::with_capacity(10);
    for &stream in streams {
        head.clear();
        put_uvarint(&mut head, stream);
        out.push(frame_type::MUX_EVENT_BATCH);
        put_uvarint(out, (head.len() + body.len()) as u64);
        out.extend_from_slice(&head);
        out.extend_from_slice(&body);
    }
}

/// Appends a stream-addressed, otherwise payload-less client frame
/// (`MUX_FLUSH` or `MUX_CLOSE`).
pub fn put_mux_stream_frame(frame_type: u8, stream: u64, out: &mut Vec<u8>) {
    let mut payload = Vec::new();
    put_uvarint(&mut payload, stream);
    put_frame(out, frame_type, &payload);
}

/// A parsed server→client frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServerFrame {
    /// Goodbye acknowledged; `events` is the connection total.
    ByeAck {
        /// Events stepped over the connection's whole lifetime, across
        /// every stream it opened.
        events: u64,
    },
    /// Typed failure; the server closes after sending this.
    Error {
        /// The machine-readable code.
        code: ErrorCode,
        /// Human-readable detail (UTF-8; lossily decoded on receipt).
        detail: String,
    },
    /// v3 handshake accepted.
    MuxHelloAck {
        /// Per-stream send-credit window, in events.
        window: u64,
        /// Maximum concurrently open streams on this connection.
        max_streams: u64,
    },
    /// Stream opened.
    MuxOpenAck {
        /// The stream that opened.
        stream: u64,
        /// Its send-credit window, in events (same for every stream on
        /// the connection, echoed per stream for self-containment).
        window: u64,
    },
    /// Outcome of one predicted indirect event on a stream (verbose
    /// mode only).
    MuxPrediction {
        /// The stream the outcome belongs to.
        stream: u64,
        /// Zero-based event sequence number within the stream.
        seq: u64,
        /// Whether the prediction matched the resolved target.
        correct: bool,
        /// The predicted target, if the predictor produced one.
        predicted: Option<u64>,
    },
    /// A stream's events are resolved through a sequence number; its
    /// credit resets.
    MuxAck {
        /// The stream being acked.
        stream: u64,
        /// One past the highest processed sequence number.
        through_seq: u64,
    },
    /// A stream's batch exceeded its advertised window (warning; twice
    /// the window kills the stream with [`ErrorCode::WindowOverflow`]).
    MuxBackpressure {
        /// The offending stream.
        stream: u64,
        /// Events in the offending batch.
        batch: u64,
        /// The advertised per-stream window.
        window: u64,
    },
    /// One stream's running totals, answering a `MUX_FLUSH`.
    MuxStats {
        /// The flushed stream.
        stream: u64,
        /// Events processed so far.
        events: u64,
        /// Predicted indirect events.
        predictions: u64,
        /// Mispredicted among those.
        mispredictions: u64,
    },
    /// Close receipt: totals plus the stream's per-branch accounting,
    /// strictly ascending by PC — everything a summary-mode client needs
    /// to rebuild the offline `RunResult`.
    MuxClosed {
        /// The stream that closed.
        stream: u64,
        /// Events processed over the stream's lifetime.
        events: u64,
        /// Predicted indirect events.
        predictions: u64,
        /// Mispredicted among those.
        mispredictions: u64,
        /// Per static branch site: `(pc, predictions, mispredictions)`,
        /// strictly ascending by PC.
        per_branch: Vec<(u64, u64, u64)>,
    },
    /// Stream-scoped typed failure: the stream is closed, the
    /// connection and its sibling streams continue.
    MuxError {
        /// The stream that died.
        stream: u64,
        /// The machine-readable code.
        code: ErrorCode,
        /// Human-readable detail (UTF-8; lossily decoded on receipt).
        detail: String,
    },
}

impl ServerFrame {
    /// Appends this frame's wire form.
    pub fn put(&self, out: &mut Vec<u8>) {
        let mut payload = Vec::new();
        let ftype = match self {
            ServerFrame::ByeAck { events } => {
                put_uvarint(&mut payload, *events);
                frame_type::BYE_ACK
            }
            ServerFrame::Error { code, detail } => {
                payload.push(code.as_u8());
                let bytes = detail.as_bytes();
                put_uvarint(&mut payload, bytes.len() as u64);
                payload.extend_from_slice(bytes);
                frame_type::ERROR
            }
            ServerFrame::MuxHelloAck {
                window,
                max_streams,
            } => {
                put_uvarint(&mut payload, *window);
                put_uvarint(&mut payload, *max_streams);
                frame_type::MUX_HELLO_ACK
            }
            ServerFrame::MuxOpenAck { stream, window } => {
                put_uvarint(&mut payload, *stream);
                put_uvarint(&mut payload, *window);
                frame_type::MUX_OPEN_ACK
            }
            ServerFrame::MuxPrediction {
                stream,
                seq,
                correct,
                predicted,
            } => {
                put_uvarint(&mut payload, *stream);
                put_uvarint(&mut payload, *seq);
                let mut flags = 0u8;
                if *correct {
                    flags |= 0x01;
                }
                if predicted.is_some() {
                    flags |= 0x02;
                }
                payload.push(flags);
                if let Some(target) = predicted {
                    put_uvarint(&mut payload, *target);
                }
                frame_type::MUX_PREDICTION
            }
            ServerFrame::MuxAck {
                stream,
                through_seq,
            } => {
                put_uvarint(&mut payload, *stream);
                put_uvarint(&mut payload, *through_seq);
                frame_type::MUX_ACK
            }
            ServerFrame::MuxBackpressure {
                stream,
                batch,
                window,
            } => {
                put_uvarint(&mut payload, *stream);
                put_uvarint(&mut payload, *batch);
                put_uvarint(&mut payload, *window);
                frame_type::MUX_BACKPRESSURE
            }
            ServerFrame::MuxStats {
                stream,
                events,
                predictions,
                mispredictions,
            } => {
                put_uvarint(&mut payload, *stream);
                put_uvarint(&mut payload, *events);
                put_uvarint(&mut payload, *predictions);
                put_uvarint(&mut payload, *mispredictions);
                frame_type::MUX_STATS
            }
            ServerFrame::MuxClosed {
                stream,
                events,
                predictions,
                mispredictions,
                per_branch,
            } => {
                put_uvarint(&mut payload, *stream);
                put_uvarint(&mut payload, *events);
                put_uvarint(&mut payload, *predictions);
                put_uvarint(&mut payload, *mispredictions);
                put_uvarint(&mut payload, per_branch.len() as u64);
                // Sites are strictly PC-ascending; the first PC is
                // absolute, the rest delta-coded (delta ≥ 1 by the
                // ascent invariant, which decode enforces).
                let mut prev_pc = 0u64;
                for (i, (pc, preds, misses)) in per_branch.iter().enumerate() {
                    let delta = if i == 0 { *pc } else { pc.wrapping_sub(prev_pc) };
                    put_uvarint(&mut payload, delta);
                    put_uvarint(&mut payload, *preds);
                    put_uvarint(&mut payload, *misses);
                    prev_pc = *pc;
                }
                frame_type::MUX_CLOSED
            }
            ServerFrame::MuxError {
                stream,
                code,
                detail,
            } => {
                put_uvarint(&mut payload, *stream);
                payload.push(code.as_u8());
                let bytes = detail.as_bytes();
                put_uvarint(&mut payload, bytes.len() as u64);
                payload.extend_from_slice(bytes);
                frame_type::MUX_ERROR
            }
        };
        put_frame(out, ftype, &payload);
    }

    /// Decodes a raw frame from the server.
    pub fn decode(raw: &RawFrame) -> Result<ServerFrame, ProtocolError> {
        let mut r = WireReader::new(&raw.payload);
        let frame = match raw.frame_type {
            frame_type::BYE_ACK => ServerFrame::ByeAck {
                events: r.uvarint()?,
            },
            frame_type::ERROR => {
                let (code, detail) = decode_error_tail(&mut r)?;
                ServerFrame::Error { code, detail }
            }
            frame_type::MUX_HELLO_ACK => ServerFrame::MuxHelloAck {
                window: r.uvarint()?,
                max_streams: r.uvarint()?,
            },
            frame_type::MUX_OPEN_ACK => ServerFrame::MuxOpenAck {
                stream: r.uvarint()?,
                window: r.uvarint()?,
            },
            frame_type::MUX_PREDICTION => {
                let stream = r.uvarint()?;
                let seq = r.uvarint()?;
                let flags = r.u8()?;
                if flags & !0x03 != 0 {
                    return Err(ProtocolError::BadPayload("reserved prediction flags"));
                }
                let correct = flags & 0x01 != 0;
                let predicted = if flags & 0x02 != 0 {
                    Some(r.uvarint()?)
                } else {
                    None
                };
                if correct && predicted.is_none() {
                    return Err(ProtocolError::BadPayload(
                        "correct prediction without a target",
                    ));
                }
                ServerFrame::MuxPrediction {
                    stream,
                    seq,
                    correct,
                    predicted,
                }
            }
            frame_type::MUX_ACK => ServerFrame::MuxAck {
                stream: r.uvarint()?,
                through_seq: r.uvarint()?,
            },
            frame_type::MUX_BACKPRESSURE => ServerFrame::MuxBackpressure {
                stream: r.uvarint()?,
                batch: r.uvarint()?,
                window: r.uvarint()?,
            },
            frame_type::MUX_STATS => ServerFrame::MuxStats {
                stream: r.uvarint()?,
                events: r.uvarint()?,
                predictions: r.uvarint()?,
                mispredictions: r.uvarint()?,
            },
            frame_type::MUX_CLOSED => {
                let stream = r.uvarint()?;
                let events = r.uvarint()?;
                let predictions = r.uvarint()?;
                let mispredictions = r.uvarint()?;
                let sites = r.uvarint()?;
                // Two bytes minimum per encoded site: cheap structural
                // bound before reserving anything.
                if sites > MAX_FRAME_PAYLOAD {
                    return Err(ProtocolError::Oversized(sites));
                }
                let mut per_branch = Vec::new();
                let mut prev_pc = 0u64;
                for i in 0..sites {
                    let delta = r.uvarint()?;
                    if i > 0 && delta == 0 {
                        return Err(ProtocolError::BadPayload(
                            "per-branch sites not strictly ascending",
                        ));
                    }
                    let pc = if i == 0 {
                        delta
                    } else {
                        prev_pc
                            .checked_add(delta)
                            .ok_or(ProtocolError::BadPayload("per-branch PC overflow"))?
                    };
                    let preds = r.uvarint()?;
                    let misses = r.uvarint()?;
                    per_branch.push((pc, preds, misses));
                    prev_pc = pc;
                }
                ServerFrame::MuxClosed {
                    stream,
                    events,
                    predictions,
                    mispredictions,
                    per_branch,
                }
            }
            frame_type::MUX_ERROR => {
                let stream = r.uvarint()?;
                let (code, detail) = decode_error_tail(&mut r)?;
                ServerFrame::MuxError {
                    stream,
                    code,
                    detail,
                }
            }
            other => return Err(ProtocolError::UnknownFrame(other)),
        };
        if !r.is_empty() {
            return Err(ProtocolError::BadPayload("trailing bytes after payload"));
        }
        Ok(frame)
    }
}

/// Decodes the `code + detail-length + detail` tail shared by `ERROR`
/// and `MUX_ERROR`.
fn decode_error_tail(r: &mut WireReader<'_>) -> Result<(ErrorCode, String), ProtocolError> {
    let code_byte = r.u8()?;
    let code = ErrorCode::from_u8(code_byte)
        .ok_or(ProtocolError::BadPayload("unassigned error code"))?;
    let len = r.uvarint()?;
    if len > MAX_FRAME_PAYLOAD {
        return Err(ProtocolError::Oversized(len));
    }
    let bytes = r.bytes(len as usize)?;
    Ok((code, String::from_utf8_lossy(bytes).into_owned()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibp_isa::Addr;

    fn sample_events() -> Vec<BranchEvent> {
        vec![
            BranchEvent::indirect_jmp(Addr::new(0x4000), Addr::new(0x9000)),
            BranchEvent::cond_taken(Addr::new(0x4004), Addr::new(0x4100)),
            BranchEvent::indirect_jsr(Addr::new(0x4104), Addr::new(0xA000)),
            BranchEvent::ret(Addr::new(0xA010), Addr::new(0x4108)),
        ]
    }

    #[test]
    fn broadcast_is_byte_identical_to_per_stream_encodes() {
        let events = sample_events();
        // Stream ids straddling the 1-byte/2-byte uvarint boundary.
        let streams = [0u64, 7, 127, 128, 300];
        let mut shared = EventDeltaState::new();
        let mut fanned = Vec::new();
        put_mux_events_broadcast(&mut shared, &streams, &events, &mut fanned);

        let mut singly = Vec::new();
        let mut single_state = EventDeltaState::new();
        for &stream in &streams {
            let mut state = EventDeltaState::new();
            put_mux_events_frame(&mut state, stream, &events, &mut singly);
            single_state = state;
        }
        assert_eq!(fanned, singly);
        assert_eq!(shared, single_state, "broadcast must advance the shared state");
    }

    #[test]
    fn hello_round_trips_and_rejects_bad_openings() {
        let hello = Hello::mux(7, 2048);
        let mut bytes = Vec::new();
        put_hello(&mut bytes, &hello);
        let mut fb = FrameBuffer::new();
        fb.feed(&bytes);
        assert_eq!(fb.next_hello(), Ok(Some(hello)));
        assert_eq!(fb.pending(), 0);

        // Byte-at-a-time delivery parses identically.
        let mut fb = FrameBuffer::new();
        let mut out = None;
        for b in &bytes {
            fb.feed(&[*b]);
            if let Some(h) = fb.next_hello().expect("no error on valid prefix") {
                out = Some(h);
            }
        }
        assert_eq!(out, Some(hello));

        // A diverging prefix fails immediately, before 4 bytes arrive.
        let mut fb = FrameBuffer::new();
        fb.feed(b"IBQ");
        assert_eq!(fb.next_hello(), Err(ProtocolError::BadMagic));

        let mut fb = FrameBuffer::new();
        fb.feed(b"IBPS\x63");
        assert_eq!(fb.next_hello(), Err(ProtocolError::BadVersion(0x63)));
    }

    #[test]
    fn connection_frames_round_trip() {
        let frames = vec![
            ServerFrame::ByeAck { events: 1000 },
            ServerFrame::Error {
                code: ErrorCode::IdleTimeout,
                detail: "no frames for 10s".to_string(),
            },
        ];
        let mut bytes = Vec::new();
        for f in &frames {
            f.put(&mut bytes);
        }
        let mut fb = FrameBuffer::new();
        fb.feed(&bytes);
        for f in &frames {
            let raw = fb.next_frame().unwrap().expect("complete");
            assert_eq!(ServerFrame::decode(&raw).as_ref(), Ok(f));
        }
        assert_eq!(fb.next_frame(), Ok(None));
    }

    #[test]
    fn oversized_header_fails_before_payload_arrives() {
        let mut bytes = vec![frame_type::MUX_EVENT_BATCH];
        put_uvarint(&mut bytes, MAX_FRAME_PAYLOAD + 1);
        let mut fb = FrameBuffer::new();
        fb.feed(&bytes);
        assert_eq!(
            fb.next_frame(),
            Err(ProtocolError::Oversized(MAX_FRAME_PAYLOAD + 1))
        );
    }

    #[test]
    fn unknown_frame_types_and_trailing_bytes_are_rejected() {
        let raw = RawFrame {
            frame_type: 0x44,
            payload: vec![],
        };
        assert_eq!(
            MuxClientFrame::decode(&raw),
            Err(ProtocolError::UnknownFrame(0x44))
        );
        assert_eq!(
            ServerFrame::decode(&raw),
            Err(ProtocolError::UnknownFrame(0x44))
        );

        let raw = RawFrame {
            frame_type: frame_type::BYE,
            payload: vec![0],
        };
        assert_eq!(
            MuxClientFrame::decode(&raw),
            Err(ProtocolError::BadPayload("trailing bytes after payload"))
        );
    }

    #[test]
    fn prediction_flag_invariants_are_enforced() {
        // Reserved flag bits (payload: stream 0, seq 0, flags).
        let raw = RawFrame {
            frame_type: frame_type::MUX_PREDICTION,
            payload: vec![0, 0, 0x04],
        };
        assert!(matches!(
            ServerFrame::decode(&raw),
            Err(ProtocolError::BadPayload(_))
        ));
        // Correct without a target is contradictory.
        let raw = RawFrame {
            frame_type: frame_type::MUX_PREDICTION,
            payload: vec![0, 0, 0x01],
        };
        assert!(matches!(
            ServerFrame::decode(&raw),
            Err(ProtocolError::BadPayload(_))
        ));
    }

    #[test]
    fn error_codes_round_trip_and_unknowns_fail() {
        for code in ErrorCode::ALL {
            assert_eq!(ErrorCode::from_u8(code.as_u8()), Some(code));
            assert!(!code.to_string().is_empty());
        }
        assert_eq!(ErrorCode::from_u8(0), None);
        // Byte 13 is retired, never reassigned.
        assert_eq!(ErrorCode::from_u8(13), None);
        assert_eq!(ErrorCode::from_u8(200), None);
        let raw = RawFrame {
            frame_type: frame_type::ERROR,
            payload: vec![200, 0],
        };
        assert!(matches!(
            ServerFrame::decode(&raw),
            Err(ProtocolError::BadPayload(_))
        ));
    }

    #[test]
    fn only_version_3_is_accepted() {
        let mut bytes = Vec::new();
        put_hello(&mut bytes, &Hello::mux(0, 2048));
        let mut fb = FrameBuffer::new();
        fb.feed(&bytes);
        let parsed = fb.next_hello().unwrap().expect("complete");
        assert_eq!(parsed.version, PROTOCOL_VERSION_MUX);
        // The retired v1/v2 versions fail exactly like any unknown one.
        for bad in [0u8, 1, 2, 4, 9, 0xFF] {
            let mut bytes = Vec::new();
            put_hello(
                &mut bytes,
                &Hello {
                    version: bad,
                    predictor_code: 0,
                    entries: 2048,
                },
            );
            let mut fb = FrameBuffer::new();
            fb.feed(&bytes);
            assert_eq!(fb.next_hello(), Err(ProtocolError::BadVersion(bad)));
        }
    }

    #[test]
    fn mux_client_frames_round_trip() {
        let mut bytes = Vec::new();
        put_mux_open(&mut bytes, 5, 7, 2048, true);
        put_mux_stream_frame(frame_type::MUX_FLUSH, 5, &mut bytes);
        put_mux_stream_frame(frame_type::MUX_CLOSE, 5, &mut bytes);
        put_simple_frame(frame_type::BYE, &mut bytes);
        let mut fb = FrameBuffer::new();
        fb.feed(&bytes);
        let expected = [
            MuxClientFrame::Open {
                stream: 5,
                predictor_code: 7,
                entries: 2048,
                verbose: true,
            },
            MuxClientFrame::Flush { stream: 5 },
            MuxClientFrame::Close { stream: 5 },
            MuxClientFrame::Bye,
        ];
        for want in &expected {
            let raw = fb.next_frame().unwrap().expect("complete");
            assert_eq!(MuxClientFrame::decode(&raw).as_ref(), Ok(want));
        }
        assert_eq!(fb.next_frame(), Ok(None));
    }

    #[test]
    fn mux_event_batches_decode_per_stream() {
        let events = sample_events();
        let mut enc = EventDeltaState::new();
        let mut bytes = Vec::new();
        put_mux_events_frame(&mut enc, 9, &events, &mut bytes);
        let mut fb = FrameBuffer::new();
        fb.feed(&bytes);
        let raw = fb.next_frame().unwrap().expect("complete");
        let header = mux_events_header(&raw).expect("events frame");
        assert_eq!(header.stream, 9);
        assert_eq!(header.count, events.len() as u64);
        let mut dec = EventDeltaState::new();
        let mut out = Vec::new();
        decode_mux_events_into(&raw, header, &mut dec, &mut out).expect("decodes");
        assert_eq!(out, events);

        // The retired v1 event batch (0x01) is an unknown frame type to
        // both decoders.
        let retired = RawFrame {
            frame_type: 0x01,
            payload: vec![0],
        };
        assert_eq!(
            mux_events_header(&retired),
            Err(ProtocolError::UnknownFrame(0x01))
        );
        assert_eq!(
            MuxClientFrame::decode(&retired),
            Err(ProtocolError::UnknownFrame(0x01))
        );
    }

    #[test]
    fn truncated_mux_batch_restores_the_output_buffer() {
        let events = sample_events();
        let mut enc = EventDeltaState::new();
        let mut bytes = Vec::new();
        put_mux_events_frame(&mut enc, 1, &events, &mut bytes);
        let mut fb = FrameBuffer::new();
        fb.feed(&bytes);
        let mut raw = fb.next_frame().unwrap().expect("complete");
        // Claim one more event than the payload carries.
        let header = mux_events_header(&raw).unwrap();
        let mut broken = Vec::new();
        put_uvarint(&mut broken, header.stream);
        put_uvarint(&mut broken, header.count + 1);
        broken.extend_from_slice(&raw.payload[header.events_at..]);
        raw.payload = broken;
        let header = mux_events_header(&raw).unwrap();
        let mut dec = EventDeltaState::new();
        let mut out = vec![events[0]];
        let err = decode_mux_events_into(&raw, header, &mut dec, &mut out).unwrap_err();
        assert!(matches!(err, ProtocolError::Wire(_)));
        assert_eq!(out.len(), 1, "partial decode must not leak events");
    }

    #[test]
    fn mux_server_frames_round_trip() {
        let frames = vec![
            ServerFrame::MuxHelloAck {
                window: 256,
                max_streams: 1024,
            },
            ServerFrame::MuxOpenAck {
                stream: 3,
                window: 256,
            },
            ServerFrame::MuxPrediction {
                stream: 3,
                seq: 11,
                correct: true,
                predicted: Some(0x9000),
            },
            ServerFrame::MuxPrediction {
                stream: 3,
                seq: 12,
                correct: false,
                predicted: None,
            },
            ServerFrame::MuxAck {
                stream: 3,
                through_seq: 64,
            },
            ServerFrame::MuxBackpressure {
                stream: 3,
                batch: 300,
                window: 256,
            },
            ServerFrame::MuxStats {
                stream: 3,
                events: 1000,
                predictions: 400,
                mispredictions: 37,
            },
            ServerFrame::MuxClosed {
                stream: 3,
                events: 1000,
                predictions: 400,
                mispredictions: 37,
                per_branch: vec![(0x4000, 300, 20), (0x4010, 100, 17)],
            },
            ServerFrame::MuxClosed {
                stream: 4,
                events: 0,
                predictions: 0,
                mispredictions: 0,
                per_branch: vec![],
            },
            ServerFrame::MuxError {
                stream: 3,
                code: ErrorCode::UnknownStream,
                detail: "stream 3 is not open".to_string(),
            },
        ];
        let mut bytes = Vec::new();
        for f in &frames {
            f.put(&mut bytes);
        }
        let mut fb = FrameBuffer::new();
        fb.feed(&bytes);
        for f in &frames {
            let raw = fb.next_frame().unwrap().expect("complete");
            assert_eq!(ServerFrame::decode(&raw).as_ref(), Ok(f));
        }
        assert_eq!(fb.next_frame(), Ok(None));
    }

    #[test]
    fn mux_closed_sites_must_strictly_ascend() {
        // Hand-build a MUX_CLOSED whose second site repeats the first PC
        // (delta 0): decode must reject it.
        let mut payload = Vec::new();
        for v in [3u64, 10, 5, 1, 2] {
            put_uvarint(&mut payload, v);
        }
        // site 0: pc=0x40, 1 pred, 0 misses; site 1: delta 0.
        for v in [0x40u64, 1, 0, 0, 1, 0] {
            put_uvarint(&mut payload, v);
        }
        let raw = RawFrame {
            frame_type: frame_type::MUX_CLOSED,
            payload,
        };
        assert_eq!(
            ServerFrame::decode(&raw),
            Err(ProtocolError::BadPayload(
                "per-branch sites not strictly ascending"
            ))
        );
    }

    #[test]
    fn new_error_codes_are_pinned_and_stream_scoped_errors_decode() {
        assert_eq!(ErrorCode::UnknownStream.as_u8(), 11);
        assert_eq!(ErrorCode::StreamLimit.as_u8(), 12);
        assert_eq!(ErrorCode::DuplicateStream.as_u8(), 14);
        assert_eq!(ErrorCode::EntriesTooLarge.as_u8(), 15);
        assert_eq!(ErrorCode::ALL.len(), 14);
        for code in [
            ErrorCode::UnknownStream,
            ErrorCode::StreamLimit,
            ErrorCode::DuplicateStream,
            ErrorCode::EntriesTooLarge,
        ] {
            assert_eq!(ErrorCode::from_u8(code.as_u8()), Some(code));
            assert!(!code.to_string().is_empty());
        }
        assert_eq!(ErrorCode::from_u8(16), None);
    }

    #[test]
    fn reserved_mux_open_flags_are_rejected() {
        let mut payload = Vec::new();
        put_uvarint(&mut payload, 1);
        payload.push(0);
        put_uvarint(&mut payload, 2048);
        payload.push(0x80);
        let raw = RawFrame {
            frame_type: frame_type::MUX_OPEN,
            payload,
        };
        assert_eq!(
            MuxClientFrame::decode(&raw),
            Err(ProtocolError::BadPayload("reserved mux-open flags"))
        );
    }

    #[test]
    fn protocol_errors_map_to_reply_codes_and_display() {
        assert_eq!(ProtocolError::BadMagic.error_code(), ErrorCode::BadMagic);
        assert_eq!(
            ProtocolError::BadVersion(9).error_code(),
            ErrorCode::BadVersion
        );
        assert_eq!(
            ProtocolError::Oversized(1 << 30).error_code(),
            ErrorCode::Oversized
        );
        assert_eq!(
            ProtocolError::UnknownFrame(0x55).error_code(),
            ErrorCode::BadFrame
        );
        assert_eq!(
            ProtocolError::Wire(WireError::BadVarint).error_code(),
            ErrorCode::BadFrame
        );
        for e in [
            ProtocolError::Wire(WireError::Truncated),
            ProtocolError::BadMagic,
            ProtocolError::BadVersion(3),
            ProtocolError::UnknownFrame(0x20),
            ProtocolError::Oversized(u64::MAX),
            ProtocolError::BadPayload("x"),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
