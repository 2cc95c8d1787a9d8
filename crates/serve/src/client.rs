//! [`MuxClient`], the blocking loopback client: handshake, pipelined
//! multi-stream event sending, stats, close receipts and graceful
//! close.
//!
//! Batches are chunked to the server's per-stream credit window, so a
//! well-behaved client never trips the fatal overflow limit. Each
//! stream's `MUX_CLOSED` receipt carries its totals and per-branch
//! tallies, from which [`StreamOutcome::into_run_result`] rebuilds the
//! full [`ibp_sim::RunResult`] — which is what lets
//! `tests/differential.rs` compare a served stream bit-for-bit against
//! offline simulation.

use crate::mux::MIN_ENTRIES;
use crate::protocol::{
    frame_type, put_hello, put_mux_events_broadcast, put_mux_events_frame, put_mux_open,
    put_mux_stream_frame, put_simple_frame, ErrorCode, FrameBuffer, Hello, ProtocolError,
    ServerFrame,
};
use ibp_exec::FastMap;
use ibp_sim::{PredictorKind, RunResult};
use ibp_trace::wire::EventDeltaState;
use ibp_trace::BranchEvent;
use std::fmt;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// The server sent bytes the protocol cannot parse.
    Protocol(ProtocolError),
    /// The server answered with a typed `ERROR` frame.
    Rejected {
        /// The machine-readable code.
        code: ErrorCode,
        /// Human-readable detail from the server.
        detail: String,
    },
    /// The server sent a well-formed frame that makes no sense here.
    UnexpectedFrame(&'static str),
    /// The server closed the connection mid-exchange.
    ConnectionClosed,
    /// The server killed one mux stream with a typed `MUX_ERROR`
    /// (siblings and the connection survive).
    StreamRejected {
        /// The stream the error names.
        stream: u64,
        /// The machine-readable code.
        code: ErrorCode,
        /// Human-readable detail from the server.
        detail: String,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "socket error: {e}"),
            ClientError::Protocol(e) => write!(f, "protocol error: {e}"),
            ClientError::Rejected { code, detail } => {
                write!(f, "server rejected: {code} ({detail})")
            }
            ClientError::UnexpectedFrame(what) => write!(f, "unexpected frame: {what}"),
            ClientError::ConnectionClosed => write!(f, "server closed the connection"),
            ClientError::StreamRejected {
                stream,
                code,
                detail,
            } => {
                write!(f, "server killed stream {stream}: {code} ({detail})")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<ProtocolError> for ClientError {
    fn from(e: ProtocolError) -> Self {
        ClientError::Protocol(e)
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// Stream totals reported by the server on `MUX_FLUSH`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionStats {
    /// Events processed so far.
    pub events: u64,
    /// Predicted indirect events.
    pub predictions: u64,
    /// Mispredicted among those.
    pub mispredictions: u64,
}

/// A close receipt as the client holds it until `finish`: events,
/// predictions, mispredictions and the per-site ledger.
type CloseReceipt = (u64, u64, u64, Vec<(u64, u64, u64)>);

/// What one closed mux stream produced, reconstructed from the server's
/// `MUX_CLOSED` receipt (summary streams) plus any `MUX_PREDICTION`
/// frames (verbose streams).
#[derive(Debug)]
pub struct StreamOutcome {
    kind: PredictorKind,
    entries: u64,
    events_sent: u64,
    /// Server-reported totals from the close receipt.
    events: u64,
    predictions: u64,
    mispredictions: u64,
    /// Per-site tallies from the close receipt: `(pc, predictions,
    /// mispredictions)`, strictly ascending by pc.
    per_branch: Vec<(u64, u64, u64)>,
    /// Verbose-mode cross-check, built client-side from prediction
    /// frames; `None` for summary streams.
    observed: Option<(u64, u64)>,
    backpressure_warnings: u64,
}

impl StreamOutcome {
    /// Events this client sent on the stream.
    pub fn events_sent(&self) -> u64 {
        self.events_sent
    }

    /// Events the server reports having stepped.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Predicted indirect events, per the close receipt.
    pub fn predictions(&self) -> u64 {
        self.predictions
    }

    /// Mispredictions among those, per the close receipt.
    pub fn mispredictions(&self) -> u64 {
        self.mispredictions
    }

    /// `(predictions, mispredictions)` counted client-side from
    /// `MUX_PREDICTION` frames — only for verbose streams.
    pub fn observed(&self) -> Option<(u64, u64)> {
        self.observed
    }

    /// `MUX_BACKPRESSURE` warnings received on this stream.
    pub fn backpressure_warnings(&self) -> u64 {
        self.backpressure_warnings
    }

    /// Rebuilds the same [`RunResult`] an offline `ibp_sim::simulate`
    /// over these events would produce, labelled with the served
    /// predictor's display name.
    pub fn into_run_result(self) -> RunResult {
        let label = self.kind.build_with_entries(self.entries as usize).name();
        RunResult::from_parts(
            label,
            self.predictions,
            self.mispredictions,
            self.per_branch.iter().map(|(pc, p, m)| (*pc, (*p, *m))),
        )
    }
}

/// Client-side state of one open stream.
#[derive(Debug)]
struct StreamState {
    kind: PredictorKind,
    entries: u64,
    verbose: bool,
    encode: EventDeltaState,
    events_sent: u64,
    acked_through: u64,
    open_acked: bool,
    predictions: u64,
    mispredictions: u64,
    backpressure_warnings: u64,
    closed: Option<CloseReceipt>,
    error: Option<(ErrorCode, String)>,
}

/// A connected v3 (multiplexed) session: many independent predictor
/// streams pipelined over one socket.
///
/// The client *pipelines*: `open` and `send` only write (draining any
/// responses the socket already has, without blocking), and only
/// [`MuxClient::stats`], [`MuxClient::finish`] and [`MuxClient::bye`]
/// wait. Batches are chunked to the server's per-stream credit window,
/// so a well-behaved client never trips the fatal overflow.
#[derive(Debug)]
pub struct MuxClient {
    stream: TcpStream,
    buffer: FrameBuffer,
    window: u64,
    max_streams: u64,
    streams: FastMap<u64, StreamState>,
    outbuf: Vec<u8>,
}

impl MuxClient {
    /// Connects and performs the version-3 handshake.
    ///
    /// The handshake carries a valid default predictor and the minimum
    /// budget; the server vets both but binds no session — streams
    /// declare their own in `MUX_OPEN`.
    ///
    /// # Errors
    ///
    /// [`ClientError::Rejected`] carries the server's typed refusal
    /// (busy, shutting down, …).
    pub fn connect(addr: SocketAddr) -> Result<MuxClient, ClientError> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        let mut client = MuxClient {
            stream,
            buffer: FrameBuffer::new(),
            window: 0,
            max_streams: 0,
            streams: FastMap::new(),
            outbuf: Vec::new(),
        };
        let mut bytes = Vec::new();
        put_hello(
            &mut bytes,
            &Hello::mux(PredictorKind::Btb.wire_code(), MIN_ENTRIES),
        );
        client.stream.write_all(&bytes)?;
        client.stream.flush()?;
        match client.read_frame()? {
            ServerFrame::MuxHelloAck {
                window,
                max_streams,
            } => {
                client.window = window.max(1);
                client.max_streams = max_streams;
                Ok(client)
            }
            _ => Err(ClientError::UnexpectedFrame("expected MUX_HELLO_ACK")),
        }
    }

    /// The server's advertised per-stream credit window, in events.
    pub fn window(&self) -> u64 {
        self.window
    }

    /// The server's advertised per-connection stream cap.
    pub fn max_streams(&self) -> u64 {
        self.max_streams
    }

    /// Opens a stream (pipelined — does not wait for the ack; a
    /// rejection surfaces as [`ClientError::StreamRejected`] from the
    /// next blocking call touching the stream).
    pub fn open(
        &mut self,
        stream_id: u64,
        kind: PredictorKind,
        entries: u64,
        verbose: bool,
    ) -> Result<(), ClientError> {
        put_mux_open(&mut self.outbuf, stream_id, kind.wire_code(), entries, verbose);
        self.streams.insert(
            stream_id,
            StreamState {
                kind,
                entries,
                verbose,
                encode: EventDeltaState::new(),
                events_sent: 0,
                acked_through: 0,
                open_acked: false,
                predictions: 0,
                mispredictions: 0,
                backpressure_warnings: 0,
                closed: None,
                error: None,
            },
        );
        self.flush_out()?;
        self.drain_ready()
    }

    /// Queues events on a stream, chunked to the credit window
    /// (pipelined — responses are drained opportunistically, never
    /// waited for).
    pub fn send(&mut self, stream_id: u64, events: &[BranchEvent]) -> Result<(), ClientError> {
        let chunk = self.window.max(1) as usize;
        {
            let Some(state) = self.streams.get_mut(&stream_id) else {
                return Err(ClientError::UnexpectedFrame("send on a stream never opened"));
            };
            for batch in events.chunks(chunk) {
                put_mux_events_frame(&mut state.encode, stream_id, batch, &mut self.outbuf);
            }
            state.events_sent += events.len() as u64;
        }
        self.flush_out()?;
        self.drain_ready()
    }

    /// Sends the same events to every listed stream, encoding each
    /// window chunk once and replaying the encoded body per stream —
    /// the load-generator broadcast pattern. This is a pure send-side
    /// optimization: the wire bytes are exactly what per-stream
    /// [`MuxClient::send`] calls would produce. When the listed
    /// streams' delta states have diverged (they carried different
    /// event sequences), it transparently falls back to per-stream
    /// sends.
    pub fn broadcast(
        &mut self,
        stream_ids: &[u64],
        events: &[BranchEvent],
    ) -> Result<(), ClientError> {
        let mut shared: Option<EventDeltaState> = None;
        let mut uniform = true;
        for id in stream_ids {
            let Some(state) = self.streams.get(id) else {
                return Err(ClientError::UnexpectedFrame("broadcast on a stream never opened"));
            };
            match shared {
                None => shared = Some(state.encode),
                Some(s) if s == state.encode => {}
                Some(_) => {
                    uniform = false;
                    break;
                }
            }
        }
        let Some(mut state) = shared else {
            return Ok(());
        };
        if !uniform {
            for &id in stream_ids {
                self.send(id, events)?;
            }
            return Ok(());
        }
        let chunk = self.window.max(1) as usize;
        for batch in events.chunks(chunk) {
            put_mux_events_broadcast(&mut state, stream_ids, batch, &mut self.outbuf);
        }
        for id in stream_ids {
            if let Some(s) = self.streams.get_mut(id) {
                s.encode = state;
                s.events_sent += events.len() as u64;
            }
        }
        self.flush_out()?;
        self.drain_ready()
    }

    /// Asks the server for the stream's running totals (blocks for the
    /// `MUX_STATS` answer).
    pub fn stats(&mut self, stream_id: u64) -> Result<SessionStats, ClientError> {
        put_mux_stream_frame(frame_type::MUX_FLUSH, stream_id, &mut self.outbuf);
        self.flush_out()?;
        loop {
            self.check_stream_error(stream_id)?;
            if let Some(frame) = self.pending_frame()? {
                if let ServerFrame::MuxStats {
                    stream,
                    events,
                    predictions,
                    mispredictions,
                } = frame
                {
                    if stream == stream_id {
                        return Ok(SessionStats {
                            events,
                            predictions,
                            mispredictions,
                        });
                    }
                }
                continue;
            }
            self.fill()?;
        }
    }

    /// Closes a stream and blocks for its `MUX_CLOSED` receipt.
    pub fn finish(&mut self, stream_id: u64) -> Result<StreamOutcome, ClientError> {
        put_mux_stream_frame(frame_type::MUX_CLOSE, stream_id, &mut self.outbuf);
        self.flush_out()?;
        loop {
            self.check_stream_error(stream_id)?;
            let closed = self
                .streams
                .get(&stream_id)
                .and_then(|s| s.closed.as_ref())
                .is_some();
            if closed {
                break;
            }
            if self.pending_frame()?.is_none() {
                self.fill()?;
            }
        }
        let Some(state) = self.streams.remove(&stream_id) else {
            return Err(ClientError::UnexpectedFrame("finish on a stream never opened"));
        };
        let Some((events, predictions, mispredictions, per_branch)) = state.closed else {
            return Err(ClientError::UnexpectedFrame("close receipt vanished"));
        };
        Ok(StreamOutcome {
            kind: state.kind,
            entries: state.entries,
            events_sent: state.events_sent,
            events,
            predictions,
            mispredictions,
            per_branch,
            observed: state
                .verbose
                .then_some((state.predictions, state.mispredictions)),
            backpressure_warnings: state.backpressure_warnings,
        })
    }

    /// Graceful goodbye; returns the server's total stepped events
    /// across every stream this connection ever opened.
    pub fn bye(mut self) -> Result<u64, ClientError> {
        put_simple_frame(frame_type::BYE, &mut self.outbuf);
        self.flush_out()?;
        loop {
            if let Some(frame) = self.pending_frame()? {
                if let ServerFrame::ByeAck { events } = frame {
                    return Ok(events);
                }
                continue;
            }
            self.fill()?;
        }
    }

    /// Surfaces a server-reported stream kill as a typed error.
    fn check_stream_error(&mut self, stream_id: u64) -> Result<(), ClientError> {
        let Some(state) = self.streams.get_mut(&stream_id) else {
            return Err(ClientError::UnexpectedFrame("unknown stream"));
        };
        if let Some((code, detail)) = state.error.take() {
            self.streams.remove(&stream_id);
            return Err(ClientError::StreamRejected {
                stream: stream_id,
                code,
                detail,
            });
        }
        Ok(())
    }

    // ibp-lint: allow(L009, "load-generator client half: blocking socket by design, not reactor code")
    fn flush_out(&mut self) -> Result<(), ClientError> {
        if !self.outbuf.is_empty() {
            self.stream.write_all(&self.outbuf)?;
            self.stream.flush()?;
            self.outbuf.clear();
        }
        Ok(())
    }

    /// One blocking read into the frame buffer.
    fn fill(&mut self) -> Result<(), ClientError> {
        let mut scratch = [0u8; 65536];
        let n = self.stream.read(&mut scratch)?;
        if n == 0 {
            return Err(ClientError::ConnectionClosed);
        }
        self.buffer.feed(scratch.get(..n).unwrap_or(&[]));
        Ok(())
    }

    /// Drains whatever responses the socket already holds without
    /// blocking — this is what keeps deep pipelining deadlock-free.
    fn drain_ready(&mut self) -> Result<(), ClientError> {
        self.stream.set_nonblocking(true)?;
        let mut scratch = [0u8; 65536];
        let result = loop {
            match self.stream.read(&mut scratch) {
                Ok(0) => break Err(ClientError::ConnectionClosed),
                Ok(n) => self.buffer.feed(scratch.get(..n).unwrap_or(&[])),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break Ok(()),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => break Err(ClientError::Io(e)),
            }
        };
        self.stream.set_nonblocking(false)?;
        result?;
        while self.pending_frame()?.is_some() {}
        Ok(())
    }

    /// Pops and routes one buffered frame. Stream-routable frames update
    /// their stream's state and return `None`-equivalent routing (the
    /// frame is still returned for callers matching on it).
    fn pending_frame(&mut self) -> Result<Option<ServerFrame>, ClientError> {
        let Some(raw) = self.buffer.next_frame()? else {
            return Ok(None);
        };
        let frame = ServerFrame::decode(&raw)?;
        match &frame {
            ServerFrame::MuxOpenAck { stream, .. } => {
                if let Some(state) = self.streams.get_mut(stream) {
                    state.open_acked = true;
                }
            }
            ServerFrame::MuxPrediction {
                stream,
                seq,
                correct,
                ..
            } => {
                if let Some(state) = self.streams.get_mut(stream) {
                    state.predictions += 1;
                    if !*correct {
                        state.mispredictions += 1;
                    }
                    // Verbose reconstruction: seq indexes the stream's
                    // own event sequence.
                    let _ = seq;
                }
            }
            ServerFrame::MuxAck {
                stream,
                through_seq,
            } => {
                if let Some(state) = self.streams.get_mut(stream) {
                    state.acked_through = *through_seq;
                }
            }
            ServerFrame::MuxBackpressure { stream, .. } => {
                if let Some(state) = self.streams.get_mut(stream) {
                    state.backpressure_warnings += 1;
                }
            }
            ServerFrame::MuxClosed {
                stream,
                events,
                predictions,
                mispredictions,
                per_branch,
            } => {
                if let Some(state) = self.streams.get_mut(stream) {
                    state.closed =
                        Some((*events, *predictions, *mispredictions, per_branch.clone()));
                }
            }
            ServerFrame::MuxError {
                stream,
                code,
                detail,
            } => {
                if let Some(state) = self.streams.get_mut(stream) {
                    state.error = Some((*code, detail.clone()));
                }
            }
            ServerFrame::Error { code, detail } => {
                return Err(ClientError::Rejected {
                    code: *code,
                    detail: detail.clone(),
                });
            }
            _ => {}
        }
        Ok(Some(frame))
    }

    fn read_frame(&mut self) -> Result<ServerFrame, ClientError> {
        loop {
            if let Some(frame) = self.pending_frame()? {
                return Ok(frame);
            }
            self.fill()?;
        }
    }
}
