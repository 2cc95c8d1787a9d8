//! The server side of the multiplexed (v3) plane: one connection's
//! stream registry, credit accounting and batched stepping.
//!
//! [`MuxConn`] is a pure state machine — raw frames in, server frames
//! out, no sockets — so the mux layer is unit- and property-testable
//! offline. The reactor owns the I/O and calls into it:
//!
//! * [`MuxConn::on_frame`] for every complete frame read off the wire.
//!   Event batches are *not* simulated here: they are credit-checked and
//!   decoded (against the stream's own delta state) into the stream's
//!   pending buffer.
//! * [`MuxConn::step_pending`] once per reactor iteration: every stream
//!   with pending events is stepped through its monomorphized
//!   [`SessionStepper`] in a single batch call, emitting the stream's
//!   predictions (verbose mode) and its resolve-time `MUX_ACK`. This is
//!   the lockstep structure-of-arrays pass — decode accumulates across
//!   frames, simulation runs batch-at-a-time per resident stream.
//! * [`MuxConn::tick_idle`] on idle reactor ticks: idle eviction fires
//!   **per stream** (a quiet stream dies with a stream-scoped
//!   `MUX_ERROR`; its siblings and the connection live on).
//!
//! Credit windows are tracked per stream: each `MUX_EVENT_BATCH` is
//! checked against the *named stream's* window only, so a hog stream
//! blowing through its credit is killed alone — sibling streams on the
//! same connection keep their credit and their predictor state.
//!
//! Errors split two ways. Anything that names a parseable stream —
//! unknown id, duplicate open, budget/predictor rejection, credit
//! overflow, idle eviction — is stream-scoped ([`ServerFrame::MuxError`];
//! the connection survives). Anything below the stream layer — malformed
//! bytes, unknown frame types (including the retired v1/v2 codes) — is
//! connection-fatal and surfaces as [`ConnFatal`].

use crate::protocol::{
    decode_mux_events_into, mux_events_header, frame_type, ErrorCode, MuxClientFrame,
    ProtocolError, RawFrame, ServerFrame,
};
use crate::spill::{SpillStore, TierCache};
use ibp_exec::FastMap;
use ibp_sim::{snapshot_session, PredictionOutcome, PredictorKind, RunResult, SessionStepper};
use ibp_trace::wire::EventDeltaState;
use ibp_trace::BranchEvent;
use std::sync::Arc;

/// Smallest accepted table-entry budget (matches the zoo's floor, below
/// which configurations degenerate).
pub const MIN_ENTRIES: u64 = 64;

/// Largest accepted table-entry budget (a megaentry — far past the
/// paper's sweep — so a hostile handshake or `MUX_OPEN` cannot demand
/// absurd allocations).
pub const MAX_ENTRIES: u64 = 1 << 20;

/// A connection-fatal condition: the reactor answers with a
/// connection-level `ERROR` frame and closes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConnFatal {
    /// The peer's bytes do not parse as v3 frames (includes the retired
    /// v1/v2 frame types).
    Protocol(ProtocolError),
}

impl ConnFatal {
    /// The `ERROR`-frame code to answer with.
    pub fn error_code(&self) -> ErrorCode {
        match self {
            ConnFatal::Protocol(e) => e.error_code(),
        }
    }
}

impl std::fmt::Display for ConnFatal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConnFatal::Protocol(e) => write!(f, "{e}"),
        }
    }
}

/// What a frame did, as far as the reactor cares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MuxProgress {
    /// Keep the connection open.
    Continue,
    /// The client said `BYE`: the `BYE_ACK` is already queued; close
    /// after flushing output.
    Bye,
}

/// Lifetime counters for one mux connection, merged into the shard's
/// metrics when the connection closes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MuxTallies {
    /// Streams opened successfully.
    pub opened: u64,
    /// Streams closed by a client `MUX_CLOSE`.
    pub closed_clean: u64,
    /// Events stepped across all streams.
    pub events: u64,
    /// Predicted indirect events across all streams.
    pub predictions: u64,
    /// Mispredictions among those.
    pub mispredictions: u64,
    /// Stream-scoped errors emitted (all kinds).
    pub stream_errors: u64,
    /// Streams killed for batches beyond twice their window.
    pub window_overflows: u64,
    /// Streams evicted for idleness.
    pub idle_evictions: u64,
    /// `MUX_BACKPRESSURE` warnings emitted.
    pub backpressure_warnings: u64,
    /// High-water mark of concurrently open streams.
    pub peak_streams: u64,
    /// Sessions evicted to the spill store by the memory budget.
    pub spilled: u64,
    /// Spilled sessions transparently restored on their next frame.
    pub restored: u64,
    /// Snapshot bytes written to the spill store.
    pub spill_bytes: u64,
    /// Snapshot bytes read back on restore.
    pub restore_bytes: u64,
    /// Spill or restore attempts that failed (I/O, missing or corrupt
    /// blob); a failed spill leaves the stream resident, a failed
    /// restore kills it with a stream-scoped error.
    pub spill_failures: u64,
    /// Largest single session snapshot — the bytes-per-session
    /// high-water mark of the snapshot codec.
    pub max_session_bytes: u64,
    /// High-water mark of resident predictor bytes on this connection.
    pub peak_resident_bytes: u64,
    /// High-water mark of concurrently spilled streams.
    pub peak_spilled_streams: u64,
}

struct StreamSlot {
    id: u64,
    kind: PredictorKind,
    entries: u64,
    /// `None` while the session is spilled; every path that needs the
    /// stepper restores it from the spill store first.
    stepper: Option<Box<dyn SessionStepper>>,
    decode: EventDeltaState,
    /// Decoded events awaiting the next `step_pending` pass. Reused
    /// across batches; never shrunk, so a warm stream decodes and steps
    /// allocation-free.
    pending: Vec<BranchEvent>,
    verbose: bool,
    idle_ticks: u32,
    /// Connection clock value at the last client frame naming this
    /// stream — the LRU key for budget eviction.
    last_touch: u64,
    /// Cached `resident_bytes` of the stepper (0 while spilled), kept
    /// current at open/step/spill/restore so the connection total is
    /// O(1) to read.
    resident: usize,
}

impl StreamSlot {
    fn closed_frame(&self) -> Option<ServerFrame> {
        let stepper = self.stepper.as_deref()?;
        let result: RunResult = stepper.run_result();
        Some(ServerFrame::MuxClosed {
            stream: self.id,
            events: stepper.events(),
            predictions: stepper.predictions(),
            mispredictions: stepper.mispredictions(),
            per_branch: result
                .branches()
                .into_iter()
                .map(|(pc, preds, misses)| (pc.raw(), preds, misses))
                .collect(),
        })
    }
}

/// One v3 connection's stream registry and scheduler.
pub struct MuxConn {
    window: u64,
    max_streams: u64,
    streams: Vec<StreamSlot>,
    index: FastMap<u64, usize>,
    tallies: MuxTallies,
    /// Scratch for verbose stepping, reused across streams and batches.
    outcomes: Vec<PredictionOutcome>,
    /// Shared base tiers when the memory plane is on: streams fork from
    /// a sealed tier so snapshots are delta-sized and immutable tables
    /// are one shared allocation per shape.
    tiers: Option<Arc<TierCache>>,
    /// Where evicted sessions' snapshots go. `Some` iff `tiers` is.
    spill: Option<Box<dyn SpillStore>>,
    /// Reactor-advanced LRU clock; stamps `StreamSlot::last_touch`.
    clock: u64,
    /// Sum of every active slot's cached `resident` bytes.
    resident: usize,
}

impl std::fmt::Debug for MuxConn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MuxConn")
            .field("window", &self.window)
            .field("max_streams", &self.max_streams)
            .field("open_streams", &self.streams.len())
            .finish_non_exhaustive()
    }
}

impl MuxConn {
    /// A fresh connection with the given per-stream credit window and
    /// stream-count cap (both clamped to at least 1; the server config
    /// clamps harder).
    pub fn new(window: u64, max_streams: u64) -> MuxConn {
        MuxConn::with_memory(window, max_streams, None, None)
    }

    /// A connection on the multi-tenant memory plane: streams fork from
    /// the shared `tiers` (sealed copy-on-write bases) and can be
    /// spilled to `store` / restored transparently. Pass both or
    /// neither — a spill store without tiers has nothing to restore
    /// against and is ignored.
    pub fn with_memory(
        window: u64,
        max_streams: u64,
        tiers: Option<Arc<TierCache>>,
        store: Option<Box<dyn SpillStore>>,
    ) -> MuxConn {
        let spill = if tiers.is_some() { store } else { None };
        MuxConn {
            window: window.max(2),
            max_streams: max_streams.max(1),
            streams: Vec::new(),
            index: FastMap::new(),
            tallies: MuxTallies::default(),
            outcomes: Vec::new(),
            tiers,
            spill,
            clock: 0,
            resident: 0,
        }
    }

    /// Advances the LRU clock (the reactor passes its shard-loop
    /// iteration counter, so "least recently used" is consistent across
    /// every connection on a shard).
    pub fn set_clock(&mut self, now: u64) {
        self.clock = self.clock.max(now);
    }

    /// Resident predictor bytes across this connection's active
    /// streams (cached; O(1)).
    pub fn resident_bytes(&self) -> usize {
        self.resident
    }

    /// Streams currently spilled to the store.
    pub fn spilled_streams(&self) -> usize {
        self.spill.as_ref().map_or(0, |s| s.spilled_streams())
    }

    /// The active stream least recently named by a client frame, as
    /// `(stream id, last-touch clock)` — the budget enforcer's eviction
    /// candidate. Streams with decoded events still pending are skipped
    /// (they are about to be stepped; spilling them would thrash).
    pub fn coldest_active(&self) -> Option<(u64, u64)> {
        self.streams
            .iter()
            .filter(|s| s.stepper.is_some() && s.pending.is_empty())
            .map(|s| (s.id, s.last_touch))
            .min_by_key(|&(id, touch)| (touch, id))
    }

    /// The `MUX_HELLO_ACK` answering the handshake.
    pub fn hello_ack(&self) -> ServerFrame {
        ServerFrame::MuxHelloAck {
            window: self.window,
            max_streams: self.max_streams,
        }
    }

    /// Streams currently open.
    pub fn open_streams(&self) -> usize {
        self.streams.len()
    }

    /// Lifetime counters so far.
    pub fn tallies(&self) -> MuxTallies {
        self.tallies
    }

    /// Total events decoded but not yet stepped, across all streams.
    pub fn pending_events(&self) -> usize {
        self.streams.iter().map(|s| s.pending.len()).sum()
    }

    fn stream_error(
        &mut self,
        stream: u64,
        code: ErrorCode,
        detail: String,
        out: &mut Vec<ServerFrame>,
    ) {
        self.tallies.stream_errors = self.tallies.stream_errors.saturating_add(1);
        out.push(ServerFrame::MuxError {
            stream,
            code,
            detail,
        });
    }

    /// Removes a stream slot, fixing the moved slot's index entry,
    /// releasing its resident bytes and discarding any spilled blob.
    fn remove_stream(&mut self, slot_index: usize) -> Option<StreamSlot> {
        if slot_index >= self.streams.len() {
            return None;
        }
        let slot = self.streams.swap_remove(slot_index);
        self.index.remove(&slot.id);
        if let Some(moved) = self.streams.get(slot_index) {
            self.index.insert(moved.id, slot_index);
        }
        self.resident = self.resident.saturating_sub(slot.resident);
        if slot.stepper.is_none() {
            if let Some(store) = self.spill.as_mut() {
                let _ = store.take(slot.id);
            }
        }
        Some(slot)
    }

    /// Evicts one active stream's session to the spill store, returning
    /// the snapshot size. `None` if the stream is unknown, already
    /// spilled, the memory plane is off, or the store write failed (the
    /// stream then stays resident and the failure is tallied).
    pub fn spill_stream(&mut self, stream: u64) -> Option<u64> {
        let &slot_index = self.index.get(&stream)?;
        let encoding = self.tiers.as_ref()?.encoding();
        self.spill.as_ref()?;
        let slot = self.streams.get_mut(slot_index)?;
        let stepper = slot.stepper.as_deref()?;
        let blob = snapshot_session(slot.kind, slot.entries as usize, encoding, stepper);
        let bytes = blob.len() as u64;
        let store = self.spill.as_mut()?;
        if store.put(slot.id, &blob).is_err() {
            self.tallies.spill_failures = self.tallies.spill_failures.saturating_add(1);
            return None;
        }
        slot.stepper = None;
        self.resident = self.resident.saturating_sub(slot.resident);
        slot.resident = 0;
        self.tallies.spilled = self.tallies.spilled.saturating_add(1);
        self.tallies.spill_bytes = self.tallies.spill_bytes.saturating_add(bytes);
        self.tallies.max_session_bytes = self.tallies.max_session_bytes.max(bytes);
        self.tallies.peak_spilled_streams = self
            .tallies
            .peak_spilled_streams
            .max(store.spilled_streams() as u64);
        Some(bytes)
    }

    /// Brings a spilled slot back from the store. On success the slot's
    /// stepper is live again; on failure the caller must treat the
    /// stream as lost.
    fn ensure_active(&mut self, slot_index: usize) -> Result<(), &'static str> {
        let Some(slot) = self.streams.get_mut(slot_index) else {
            return Err("stream slot vanished");
        };
        if slot.stepper.is_some() {
            return Ok(());
        }
        let Some(store) = self.spill.as_mut() else {
            return Err("no spill store");
        };
        let blob = match store.take(slot.id) {
            Ok(Some(blob)) => blob,
            Ok(None) => return Err("spilled snapshot is missing"),
            Err(_) => return Err("spilled snapshot is unreadable"),
        };
        let Some(tiers) = self.tiers.as_ref() else {
            return Err("no base tier to restore against");
        };
        let revived = match tiers.tier(slot.kind, slot.entries).restore(&blob) {
            Ok(stepper) => stepper,
            Err(_) => return Err("spilled snapshot is corrupt"),
        };
        let bytes = revived.resident_bytes();
        slot.resident = bytes;
        slot.stepper = Some(revived);
        self.resident = self.resident.saturating_add(bytes);
        self.tallies.restored = self.tallies.restored.saturating_add(1);
        self.tallies.restore_bytes = self
            .tallies
            .restore_bytes
            .saturating_add(blob.len() as u64);
        self.note_resident_peak();
        Ok(())
    }

    /// [`Self::ensure_active`] with the failure path applied: an
    /// unrestorable stream is removed and answered with a stream-scoped
    /// error (its siblings and the connection survive). Returns whether
    /// the slot is live.
    fn restore_for(&mut self, slot_index: usize, out: &mut Vec<ServerFrame>) -> bool {
        match self.ensure_active(slot_index) {
            Ok(()) => true,
            Err(why) => {
                self.tallies.spill_failures = self.tallies.spill_failures.saturating_add(1);
                if let Some(slot) = self.remove_stream(slot_index) {
                    self.stream_error(
                        slot.id,
                        ErrorCode::BadFrame,
                        format!("cannot restore spilled session: {why}"),
                        out,
                    );
                }
                false
            }
        }
    }

    fn note_resident_peak(&mut self) {
        self.tallies.peak_resident_bytes =
            self.tallies.peak_resident_bytes.max(self.resident as u64);
    }

    fn open(
        &mut self,
        stream: u64,
        predictor_code: u8,
        entries: u64,
        verbose: bool,
        out: &mut Vec<ServerFrame>,
    ) {
        if self.index.get(&stream).is_some() {
            self.stream_error(
                stream,
                ErrorCode::DuplicateStream,
                format!("stream {stream} is already open"),
                out,
            );
            return;
        }
        if self.streams.len() as u64 >= self.max_streams {
            self.stream_error(
                stream,
                ErrorCode::StreamLimit,
                format!("connection is at its cap of {} streams", self.max_streams),
                out,
            );
            return;
        }
        let Some(kind) = PredictorKind::from_wire_code(predictor_code) else {
            self.stream_error(
                stream,
                ErrorCode::UnknownPredictor,
                format!("predictor code {predictor_code} is unassigned"),
                out,
            );
            return;
        };
        if entries > MAX_ENTRIES {
            self.stream_error(
                stream,
                ErrorCode::EntriesTooLarge,
                format!("entries {entries} above the cap of {MAX_ENTRIES}"),
                out,
            );
            return;
        }
        if entries < MIN_ENTRIES {
            self.stream_error(
                stream,
                ErrorCode::BadBudget,
                format!("entries {entries} outside {MIN_ENTRIES}..={MAX_ENTRIES}"),
                out,
            );
            return;
        }
        // On the memory plane, fork from the shared sealed tier: the
        // immutable base is one Arc per shape and the session's own
        // state lives in a delta overlay, so snapshots are delta-sized.
        let stepper = match &self.tiers {
            Some(tiers) => tiers.tier(kind, entries).session(),
            None => kind.session_stepper(entries as usize),
        };
        let resident = stepper.resident_bytes();
        let slot = StreamSlot {
            id: stream,
            kind,
            entries,
            stepper: Some(stepper),
            decode: EventDeltaState::new(),
            pending: Vec::new(),
            verbose,
            idle_ticks: 0,
            last_touch: self.clock,
            resident,
        };
        self.index.insert(stream, self.streams.len());
        self.streams.push(slot);
        self.resident = self.resident.saturating_add(resident);
        self.note_resident_peak();
        self.tallies.opened = self.tallies.opened.saturating_add(1);
        self.tallies.peak_streams = self.tallies.peak_streams.max(self.streams.len() as u64);
        out.push(ServerFrame::MuxOpenAck {
            stream,
            window: self.window,
        });
    }

    /// Steps one slot's pending events, emitting predictions (verbose
    /// streams) and the resolve-time ack. The caller must have restored
    /// the slot first; a spilled slot is left untouched.
    fn step_slot(
        slot: &mut StreamSlot,
        outcomes: &mut Vec<PredictionOutcome>,
        tallies: &mut MuxTallies,
        resident: &mut usize,
        out: &mut Vec<ServerFrame>,
    ) {
        if slot.pending.is_empty() {
            return;
        }
        let Some(stepper) = slot.stepper.as_deref_mut() else {
            return;
        };
        let before_predictions = stepper.predictions();
        let before_mispredictions = stepper.mispredictions();
        if slot.verbose {
            outcomes.clear();
            stepper.step_verbose(&slot.pending, outcomes);
            for o in outcomes.iter() {
                out.push(ServerFrame::MuxPrediction {
                    stream: slot.id,
                    seq: o.seq,
                    correct: o.correct,
                    predicted: o.predicted,
                });
            }
        } else {
            stepper.step_counted(&slot.pending);
        }
        tallies.events = tallies.events.saturating_add(slot.pending.len() as u64);
        tallies.predictions = tallies
            .predictions
            .saturating_add(stepper.predictions().saturating_sub(before_predictions));
        tallies.mispredictions = tallies.mispredictions.saturating_add(
            stepper
                .mispredictions()
                .saturating_sub(before_mispredictions),
        );
        slot.pending.clear();
        out.push(ServerFrame::MuxAck {
            stream: slot.id,
            through_seq: stepper.events(),
        });
        // Stepping grows tables; refresh the cached footprint.
        let now_resident = stepper.resident_bytes();
        *resident = resident
            .saturating_sub(slot.resident)
            .saturating_add(now_resident);
        slot.resident = now_resident;
        tallies.peak_resident_bytes = tallies.peak_resident_bytes.max(*resident as u64);
    }

    /// Handles one complete frame. Stream-scoped failures emit
    /// `MUX_ERROR` into `out` and return `Continue`; only byte-level
    /// garbage is connection-fatal.
    pub fn on_frame(
        &mut self,
        raw: &RawFrame,
        out: &mut Vec<ServerFrame>,
    ) -> Result<MuxProgress, ConnFatal> {
        if raw.frame_type == frame_type::MUX_EVENT_BATCH {
            let header = mux_events_header(raw).map_err(ConnFatal::Protocol)?;
            let Some(&slot_index) = self.index.get(&header.stream) else {
                self.stream_error(
                    header.stream,
                    ErrorCode::UnknownStream,
                    format!("stream {} is not open", header.stream),
                    out,
                );
                return Ok(MuxProgress::Continue);
            };
            let limit = self.window.saturating_mul(2);
            if header.count > limit {
                // The hog dies alone: nothing is decoded or processed,
                // sibling streams keep their credit and state.
                if let Some(slot) = self.remove_stream(slot_index) {
                    drop(slot);
                }
                self.tallies.window_overflows = self.tallies.window_overflows.saturating_add(1);
                self.stream_error(
                    header.stream,
                    ErrorCode::WindowOverflow,
                    format!("batch of {} exceeds the hard limit of {limit}", header.count),
                    out,
                );
                return Ok(MuxProgress::Continue);
            }
            if header.count > self.window {
                self.tallies.backpressure_warnings =
                    self.tallies.backpressure_warnings.saturating_add(1);
                out.push(ServerFrame::MuxBackpressure {
                    stream: header.stream,
                    batch: header.count,
                    window: self.window,
                });
            }
            let clock = self.clock;
            let Some(slot) = self.streams.get_mut(slot_index) else {
                return Ok(MuxProgress::Continue);
            };
            slot.idle_ticks = 0;
            slot.last_touch = clock;
            decode_mux_events_into(raw, header, &mut slot.decode, &mut slot.pending)
                .map_err(ConnFatal::Protocol)?;
            // Step eagerly once a full credit window is buffered: this
            // bounds the pending working set to about one window per
            // stream, so a long read burst decodes and simulates in
            // cache-sized slices instead of staging megabytes of
            // decoded events before the end-of-burst sweep.
            if slot.pending.len() as u64 >= self.window {
                // A spilled stream comes back transparently before its
                // backlog is stepped.
                if self.restore_for(slot_index, out) {
                    if let Some(slot) = self.streams.get_mut(slot_index) {
                        Self::step_slot(
                            slot,
                            &mut self.outcomes,
                            &mut self.tallies,
                            &mut self.resident,
                            out,
                        );
                    }
                }
            }
            return Ok(MuxProgress::Continue);
        }

        match MuxClientFrame::decode(raw).map_err(ConnFatal::Protocol)? {
            MuxClientFrame::Open {
                stream,
                predictor_code,
                entries,
                verbose,
            } => {
                self.open(stream, predictor_code, entries, verbose, out);
                Ok(MuxProgress::Continue)
            }
            MuxClientFrame::Flush { stream } => {
                let Some(&slot_index) = self.index.get(&stream) else {
                    self.stream_error(
                        stream,
                        ErrorCode::UnknownStream,
                        format!("stream {stream} is not open"),
                        out,
                    );
                    return Ok(MuxProgress::Continue);
                };
                if !self.restore_for(slot_index, out) {
                    return Ok(MuxProgress::Continue);
                }
                let clock = self.clock;
                if let Some(slot) = self.streams.get_mut(slot_index) {
                    slot.idle_ticks = 0;
                    slot.last_touch = clock;
                    // Totals must reflect everything sent before the
                    // flush, so step this stream's backlog first.
                    Self::step_slot(
                        slot,
                        &mut self.outcomes,
                        &mut self.tallies,
                        &mut self.resident,
                        out,
                    );
                    if let Some(stepper) = slot.stepper.as_deref() {
                        out.push(ServerFrame::MuxStats {
                            stream,
                            events: stepper.events(),
                            predictions: stepper.predictions(),
                            mispredictions: stepper.mispredictions(),
                        });
                    }
                }
                Ok(MuxProgress::Continue)
            }
            MuxClientFrame::Close { stream } => {
                let Some(&slot_index) = self.index.get(&stream) else {
                    self.stream_error(
                        stream,
                        ErrorCode::UnknownStream,
                        format!("stream {stream} is not open"),
                        out,
                    );
                    return Ok(MuxProgress::Continue);
                };
                // The close receipt carries the full per-branch ledger,
                // so a spilled session is brought back first.
                if !self.restore_for(slot_index, out) {
                    return Ok(MuxProgress::Continue);
                }
                if let Some(slot) = self.streams.get_mut(slot_index) {
                    Self::step_slot(
                        slot,
                        &mut self.outcomes,
                        &mut self.tallies,
                        &mut self.resident,
                        out,
                    );
                }
                if let Some(slot) = self.remove_stream(slot_index) {
                    if let Some(frame) = slot.closed_frame() {
                        out.push(frame);
                        self.tallies.closed_clean = self.tallies.closed_clean.saturating_add(1);
                    }
                }
                Ok(MuxProgress::Continue)
            }
            MuxClientFrame::Bye => {
                // Drain every stream's backlog so the bye reflects all
                // accepted work, then report the connection total.
                self.step_pending(out);
                out.push(ServerFrame::ByeAck {
                    events: self.tallies.events,
                });
                Ok(MuxProgress::Bye)
            }
        }
    }

    /// Steps every stream with pending events, in slot order — one
    /// monomorphized batch call per resident stream per reactor
    /// iteration.
    pub fn step_pending(&mut self, out: &mut Vec<ServerFrame>) {
        let mut i = 0usize;
        while i < self.streams.len() {
            let needs_restore = self
                .streams
                .get(i)
                .is_some_and(|s| !s.pending.is_empty() && s.stepper.is_none());
            if needs_restore && !self.restore_for(i, out) {
                // The dead slot was swap-removed; a new slot now sits
                // at `i`, so do not advance.
                continue;
            }
            if let Some(slot) = self.streams.get_mut(i) {
                Self::step_slot(
                    slot,
                    &mut self.outcomes,
                    &mut self.tallies,
                    &mut self.resident,
                    out,
                );
            }
            i += 1;
        }
    }

    /// One idle reactor tick: ages every stream, evicting those silent
    /// for more than `idle_limit` ticks with a stream-scoped
    /// `IdleTimeout`. Returns the number of evictions. The connection
    /// itself is never killed here — per-stream, not per-connection.
    pub fn tick_idle(&mut self, idle_limit: u32, out: &mut Vec<ServerFrame>) -> usize {
        let mut evicted = 0usize;
        let mut i = 0usize;
        while i < self.streams.len() {
            let expired = match self.streams.get_mut(i) {
                Some(slot) => {
                    slot.idle_ticks = slot.idle_ticks.saturating_add(1);
                    slot.idle_ticks > idle_limit
                }
                None => false,
            };
            if expired {
                if let Some(slot) = self.remove_stream(i) {
                    self.tallies.idle_evictions = self.tallies.idle_evictions.saturating_add(1);
                    self.stream_error(
                        slot.id,
                        ErrorCode::IdleTimeout,
                        "stream idle past the server's timeout".to_string(),
                        out,
                    );
                    evicted += 1;
                }
                // Do not advance: swap_remove moved a new slot here.
            } else {
                i += 1;
            }
        }
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{
        put_mux_events_frame, put_mux_open, put_mux_stream_frame, put_simple_frame, FrameBuffer,
    };
    use ibp_isa::Addr;

    fn frames_from(bytes: &[u8]) -> Vec<RawFrame> {
        let mut fb = FrameBuffer::new();
        fb.feed(bytes);
        let mut raws = Vec::new();
        while let Some(raw) = fb.next_frame().expect("valid") {
            raws.push(raw);
        }
        raws
    }

    fn indirect_events(n: u64) -> Vec<BranchEvent> {
        (0..n)
            .map(|i| {
                BranchEvent::indirect_jmp(Addr::new(0x4000), Addr::new(0x9000 + (i % 3) * 0x40))
            })
            .collect()
    }

    fn drive(conn: &mut MuxConn, bytes: &[u8]) -> Vec<ServerFrame> {
        let mut out = Vec::new();
        for raw in frames_from(bytes) {
            conn.on_frame(&raw, &mut out).expect("not fatal");
        }
        conn.step_pending(&mut out);
        out
    }

    #[test]
    fn open_step_close_matches_offline() {
        let events = indirect_events(100);
        let mut conn = MuxConn::new(256, 64);
        let mut bytes = Vec::new();
        put_mux_open(&mut bytes, 7, PredictorKind::Btb.wire_code(), 2048, false);
        let mut enc = EventDeltaState::new();
        for chunk in events.chunks(40) {
            put_mux_events_frame(&mut enc, 7, chunk, &mut bytes);
        }
        put_mux_stream_frame(frame_type::MUX_CLOSE, 7, &mut bytes);
        let out = drive(&mut conn, &bytes);

        let trace: ibp_trace::Trace = events.iter().copied().collect();
        let offline = PredictorKind::Btb.simulate_trace(&trace);
        let closed = out
            .iter()
            .find_map(|f| match f {
                ServerFrame::MuxClosed {
                    stream,
                    events,
                    predictions,
                    mispredictions,
                    per_branch,
                } => Some((*stream, *events, *predictions, *mispredictions, per_branch)),
                _ => None,
            })
            .expect("close receipt");
        assert_eq!(closed.0, 7);
        assert_eq!(closed.1, 100);
        assert_eq!(closed.2, offline.predictions());
        assert_eq!(closed.3, offline.mispredictions());
        let offline_sites: Vec<(u64, u64, u64)> = offline
            .branches()
            .into_iter()
            .map(|(pc, p, m)| (pc.raw(), p, m))
            .collect();
        assert_eq!(closed.4, &offline_sites);
        assert_eq!(conn.open_streams(), 0);
        assert_eq!(conn.tallies().closed_clean, 1);
        assert_eq!(conn.tallies().events, 100);
    }

    #[test]
    fn interleaved_streams_are_isolated() {
        // Two streams, same predictor, interleaved batches: each must
        // see exactly its own event sequence (per-stream delta state and
        // pending buffers), so both match the same offline result.
        let events = indirect_events(60);
        let mut conn = MuxConn::new(256, 64);
        let mut bytes = Vec::new();
        put_mux_open(&mut bytes, 1, PredictorKind::Btb.wire_code(), 2048, false);
        put_mux_open(&mut bytes, 2, PredictorKind::Btb.wire_code(), 2048, false);
        let mut enc1 = EventDeltaState::new();
        let mut enc2 = EventDeltaState::new();
        for chunk in events.chunks(15) {
            put_mux_events_frame(&mut enc1, 1, chunk, &mut bytes);
            put_mux_events_frame(&mut enc2, 2, chunk, &mut bytes);
        }
        put_mux_stream_frame(frame_type::MUX_CLOSE, 1, &mut bytes);
        put_mux_stream_frame(frame_type::MUX_CLOSE, 2, &mut bytes);
        let out = drive(&mut conn, &bytes);
        let trace: ibp_trace::Trace = events.iter().copied().collect();
        let offline = PredictorKind::Btb.simulate_trace(&trace);
        let mut seen = 0;
        for f in &out {
            if let ServerFrame::MuxClosed {
                events: e,
                predictions,
                mispredictions,
                ..
            } = f
            {
                assert_eq!(*e, 60);
                assert_eq!(*predictions, offline.predictions());
                assert_eq!(*mispredictions, offline.mispredictions());
                seen += 1;
            }
        }
        assert_eq!(seen, 2);
    }

    #[test]
    fn unknown_stream_is_stream_scoped() {
        let mut conn = MuxConn::new(256, 64);
        let mut bytes = Vec::new();
        let mut enc = EventDeltaState::new();
        put_mux_events_frame(&mut enc, 99, &indirect_events(4), &mut bytes);
        put_mux_stream_frame(frame_type::MUX_FLUSH, 98, &mut bytes);
        put_mux_stream_frame(frame_type::MUX_CLOSE, 97, &mut bytes);
        let out = drive(&mut conn, &bytes);
        let errors: Vec<(u64, ErrorCode)> = out
            .iter()
            .filter_map(|f| match f {
                ServerFrame::MuxError { stream, code, .. } => Some((*stream, *code)),
                _ => None,
            })
            .collect();
        assert_eq!(
            errors,
            vec![
                (99, ErrorCode::UnknownStream),
                (98, ErrorCode::UnknownStream),
                (97, ErrorCode::UnknownStream),
            ]
        );
        assert_eq!(conn.tallies().stream_errors, 3);
    }

    #[test]
    fn hog_stream_dies_alone_and_siblings_keep_serving() {
        let window = 8u64;
        let mut conn = MuxConn::new(window, 64);
        let mut bytes = Vec::new();
        put_mux_open(&mut bytes, 1, PredictorKind::Btb.wire_code(), 2048, false);
        put_mux_open(&mut bytes, 2, PredictorKind::Btb.wire_code(), 2048, false);
        let mut hog = EventDeltaState::new();
        let mut good = EventDeltaState::new();
        // The hog ignores credit entirely; the sibling stays in window.
        put_mux_events_frame(&mut hog, 1, &indirect_events(window * 2 + 1), &mut bytes);
        put_mux_events_frame(&mut good, 2, &indirect_events(window / 2), &mut bytes);
        let out = drive(&mut conn, &bytes);

        assert!(out.iter().any(|f| matches!(
            f,
            ServerFrame::MuxError {
                stream: 1,
                code: ErrorCode::WindowOverflow,
                ..
            }
        )));
        // The sibling's batch was stepped and acked.
        assert!(out.iter().any(|f| matches!(
            f,
            ServerFrame::MuxAck {
                stream: 2,
                through_seq: 4,
            }
        )));
        assert_eq!(conn.open_streams(), 1);
        assert_eq!(conn.tallies().window_overflows, 1);
        assert_eq!(conn.tallies().events, window / 2, "hog processed nothing");
    }

    #[test]
    fn over_window_batches_warn_but_process() {
        let window = 8u64;
        let mut conn = MuxConn::new(window, 64);
        let mut bytes = Vec::new();
        put_mux_open(&mut bytes, 1, PredictorKind::Btb.wire_code(), 2048, false);
        let mut enc = EventDeltaState::new();
        put_mux_events_frame(&mut enc, 1, &indirect_events(window + 1), &mut bytes);
        let out = drive(&mut conn, &bytes);
        assert!(out.iter().any(|f| matches!(
            f,
            ServerFrame::MuxBackpressure {
                stream: 1,
                batch: 9,
                window: 8,
            }
        )));
        assert!(out.iter().any(|f| matches!(
            f,
            ServerFrame::MuxAck {
                stream: 1,
                through_seq: 9,
            }
        )));
        assert_eq!(conn.tallies().backpressure_warnings, 1);
    }

    #[test]
    fn duplicate_limit_budget_and_predictor_rejections() {
        let mut conn = MuxConn::new(256, 2);
        let mut bytes = Vec::new();
        put_mux_open(&mut bytes, 1, PredictorKind::Btb.wire_code(), 2048, false);
        put_mux_open(&mut bytes, 1, PredictorKind::Btb.wire_code(), 2048, false); // dup
        put_mux_open(&mut bytes, 2, 42, 2048, false); // unknown predictor
        put_mux_open(&mut bytes, 3, PredictorKind::Btb.wire_code(), 7, false); // bad budget
        put_mux_open(&mut bytes, 4, PredictorKind::Btb.wire_code(), 2048, false);
        put_mux_open(&mut bytes, 5, PredictorKind::Btb.wire_code(), 2048, false); // over cap
        let out = drive(&mut conn, &bytes);
        let codes: Vec<(u64, ErrorCode)> = out
            .iter()
            .filter_map(|f| match f {
                ServerFrame::MuxError { stream, code, .. } => Some((*stream, *code)),
                _ => None,
            })
            .collect();
        assert_eq!(
            codes,
            vec![
                (1, ErrorCode::DuplicateStream),
                (2, ErrorCode::UnknownPredictor),
                (3, ErrorCode::BadBudget),
                (5, ErrorCode::StreamLimit),
            ]
        );
        assert_eq!(conn.open_streams(), 2);
        assert_eq!(conn.tallies().opened, 2);
        assert_eq!(conn.tallies().peak_streams, 2);
    }

    #[test]
    fn idle_eviction_is_per_stream() {
        let mut conn = MuxConn::new(256, 64);
        let mut bytes = Vec::new();
        put_mux_open(&mut bytes, 1, PredictorKind::Btb.wire_code(), 2048, false);
        put_mux_open(&mut bytes, 2, PredictorKind::Btb.wire_code(), 2048, false);
        let mut out = drive(&mut conn, &bytes);
        out.clear();

        // Stream 2 stays active (a frame each tick); stream 1 goes quiet.
        let mut enc = EventDeltaState::new();
        for _ in 0..4 {
            let mut tick_bytes = Vec::new();
            put_mux_events_frame(&mut enc, 2, &indirect_events(2), &mut tick_bytes);
            for raw in frames_from(&tick_bytes) {
                conn.on_frame(&raw, &mut out).expect("not fatal");
            }
            conn.step_pending(&mut out);
            conn.tick_idle(2, &mut out);
        }
        assert!(out.iter().any(|f| matches!(
            f,
            ServerFrame::MuxError {
                stream: 1,
                code: ErrorCode::IdleTimeout,
                ..
            }
        )));
        assert_eq!(conn.open_streams(), 1, "only the silent stream died");
        assert_eq!(conn.tallies().idle_evictions, 1);
        // The survivor still serves.
        let mut tail = Vec::new();
        let mut close_bytes = Vec::new();
        put_mux_stream_frame(frame_type::MUX_CLOSE, 2, &mut close_bytes);
        for raw in frames_from(&close_bytes) {
            conn.on_frame(&raw, &mut tail).expect("not fatal");
        }
        assert!(tail
            .iter()
            .any(|f| matches!(f, ServerFrame::MuxClosed { stream: 2, .. })));
    }

    #[test]
    fn retired_v1_frame_types_are_connection_fatal() {
        // 0x01 (EVENT_BATCH) and 0x02 (FLUSH) belonged to the retired
        // v1/v2 plane; on v3 they are unknown frame types.
        for retired in [0x01u8, 0x02] {
            let mut conn = MuxConn::new(256, 64);
            let raw = RawFrame {
                frame_type: retired,
                payload: vec![0],
            };
            let mut out = Vec::new();
            let err = conn.on_frame(&raw, &mut out).unwrap_err();
            assert_eq!(
                err,
                ConnFatal::Protocol(ProtocolError::UnknownFrame(retired))
            );
            assert_eq!(err.error_code(), ErrorCode::BadFrame);
            assert!(out.is_empty());
        }
    }

    #[test]
    fn bye_drains_and_reports_connection_totals() {
        let mut conn = MuxConn::new(256, 64);
        let mut bytes = Vec::new();
        put_mux_open(&mut bytes, 1, PredictorKind::Btb.wire_code(), 2048, false);
        let mut enc = EventDeltaState::new();
        put_mux_events_frame(&mut enc, 1, &indirect_events(10), &mut bytes);
        put_simple_frame(frame_type::BYE, &mut bytes);
        let mut out = Vec::new();
        let mut progress = MuxProgress::Continue;
        for raw in frames_from(&bytes) {
            progress = conn.on_frame(&raw, &mut out).expect("not fatal");
        }
        assert_eq!(progress, MuxProgress::Bye);
        assert_eq!(
            out.last(),
            Some(&ServerFrame::ByeAck { events: 10 }),
            "bye reflects the drained backlog: {out:?}"
        );
    }

    #[test]
    fn flush_steps_the_backlog_first() {
        let mut conn = MuxConn::new(256, 64);
        let mut bytes = Vec::new();
        put_mux_open(&mut bytes, 1, PredictorKind::Btb.wire_code(), 2048, false);
        let mut enc = EventDeltaState::new();
        put_mux_events_frame(&mut enc, 1, &indirect_events(12), &mut bytes);
        put_mux_stream_frame(frame_type::MUX_FLUSH, 1, &mut bytes);
        let mut out = Vec::new();
        for raw in frames_from(&bytes) {
            conn.on_frame(&raw, &mut out).expect("not fatal");
        }
        let stats = out
            .iter()
            .find_map(|f| match f {
                ServerFrame::MuxStats { events, .. } => Some(*events),
                _ => None,
            })
            .expect("stats");
        assert_eq!(stats, 12, "flush reflects everything sent before it");
        assert_eq!(conn.pending_events(), 0);
    }

    #[test]
    fn oversized_entries_get_a_typed_rejection() {
        let mut conn = MuxConn::new(256, 8);
        let mut bytes = Vec::new();
        put_mux_open(
            &mut bytes,
            1,
            PredictorKind::Btb.wire_code(),
            MAX_ENTRIES + 1,
            false,
        );
        put_mux_open(&mut bytes, 2, PredictorKind::Btb.wire_code(), MAX_ENTRIES, false);
        let out = drive(&mut conn, &bytes);
        assert!(out.iter().any(|f| matches!(
            f,
            ServerFrame::MuxError {
                stream: 1,
                code: ErrorCode::EntriesTooLarge,
                ..
            }
        )));
        // The documented maximum itself is accepted.
        assert!(out
            .iter()
            .any(|f| matches!(f, ServerFrame::MuxOpenAck { stream: 2, .. })));
        assert_eq!(conn.open_streams(), 1);
    }

    fn memory_conn(window: u64, max_streams: u64) -> MuxConn {
        MuxConn::with_memory(
            window,
            max_streams,
            Some(Arc::new(crate::spill::TierCache::new(
                ibp_sim::TableEncoding::Compact,
            ))),
            Some(Box::new(crate::spill::MemorySpillStore::new())),
        )
    }

    /// Evicting every active session between bursts and restoring on
    /// demand must not change a single byte of the close receipts —
    /// driven against a plain (never-spilled, never-shared) connection
    /// over the identical frame stream.
    #[test]
    fn spill_and_restore_are_transparent() {
        let events = indirect_events(120);
        let mut mem = memory_conn(256, 8);
        let mut plain = MuxConn::new(256, 8);

        let mut open_bytes = Vec::new();
        put_mux_open(&mut open_bytes, 1, PredictorKind::PpmHyb.wire_code(), 2048, false);
        put_mux_open(&mut open_bytes, 2, PredictorKind::Btb.wire_code(), 2048, false);
        drive(&mut mem, &open_bytes);
        drive(&mut plain, &open_bytes);

        let mut enc_mem = [EventDeltaState::new(), EventDeltaState::new()];
        let mut enc_plain = [EventDeltaState::new(), EventDeltaState::new()];
        for chunk in events.chunks(30) {
            let mut mem_bytes = Vec::new();
            let mut plain_bytes = Vec::new();
            for stream in [1u64, 2u64] {
                let i = (stream - 1) as usize;
                if let (Some(em), Some(ep)) = (enc_mem.get_mut(i), enc_plain.get_mut(i)) {
                    put_mux_events_frame(em, stream, chunk, &mut mem_bytes);
                    put_mux_events_frame(ep, stream, chunk, &mut plain_bytes);
                }
            }
            drive(&mut mem, &mem_bytes);
            drive(&mut plain, &plain_bytes);
            // Budget pressure between bursts: evict *everything*.
            while let Some((stream, _)) = mem.coldest_active() {
                let spilled = mem.spill_stream(stream);
                assert!(spilled.is_some(), "spill of stream {stream} failed");
            }
            assert_eq!(mem.resident_bytes(), 0, "all sessions evicted");
            assert_eq!(mem.spilled_streams(), 2);
        }

        let mut close_bytes = Vec::new();
        put_mux_stream_frame(frame_type::MUX_CLOSE, 1, &mut close_bytes);
        put_mux_stream_frame(frame_type::MUX_CLOSE, 2, &mut close_bytes);
        let mem_out = drive(&mut mem, &close_bytes);
        let plain_out = drive(&mut plain, &close_bytes);

        let receipts = |out: &[ServerFrame]| -> Vec<ServerFrame> {
            out.iter()
                .filter(|f| matches!(f, ServerFrame::MuxClosed { .. }))
                .cloned()
                .collect()
        };
        assert_eq!(receipts(&mem_out).len(), 2);
        assert_eq!(
            receipts(&mem_out),
            receipts(&plain_out),
            "spill/restore or tier sharing changed the close receipts"
        );
        let t = mem.tallies();
        assert!(t.spilled >= 8, "each burst evicted both sessions");
        assert!(t.restored >= t.spilled.saturating_sub(2), "restores track spills");
        assert_eq!(t.spill_failures, 0);
        assert!(t.max_session_bytes > 0);
        assert!(t.spill_bytes >= t.max_session_bytes);
        assert_eq!(mem.spilled_streams(), 0, "closed streams drop their blobs");
    }

    #[test]
    fn spilled_streams_survive_idle_ticks_and_window_kills_drop_blobs() {
        let window = 8u64;
        let mut conn = memory_conn(window, 8);
        let mut bytes = Vec::new();
        put_mux_open(&mut bytes, 1, PredictorKind::Btb.wire_code(), 2048, false);
        put_mux_open(&mut bytes, 2, PredictorKind::Btb.wire_code(), 2048, false);
        let mut enc = EventDeltaState::new();
        put_mux_events_frame(&mut enc, 1, &indirect_events(4), &mut bytes);
        drive(&mut conn, &bytes);
        assert!(conn.spill_stream(1).is_some());
        assert!(conn.spill_stream(2).is_some());
        assert_eq!(conn.spill_stream(2), None, "already spilled");

        // A spilled hog is killed like any other; its blob goes too.
        let mut hog = EventDeltaState::new();
        let mut hog_bytes = Vec::new();
        put_mux_events_frame(&mut hog, 2, &indirect_events(window * 2 + 1), &mut hog_bytes);
        let out = drive(&mut conn, &hog_bytes);
        assert!(out.iter().any(|f| matches!(
            f,
            ServerFrame::MuxError {
                stream: 2,
                code: ErrorCode::WindowOverflow,
                ..
            }
        )));
        assert_eq!(conn.spilled_streams(), 1, "the killed stream's blob is gone");

        // The survivor restores transparently on its next frame.
        let mut tail = Vec::new();
        put_mux_events_frame(&mut enc, 1, &indirect_events(4), &mut tail);
        put_mux_stream_frame(frame_type::MUX_CLOSE, 1, &mut tail);
        let out = drive(&mut conn, &tail);
        let closed = out
            .iter()
            .find_map(|f| match f {
                ServerFrame::MuxClosed { events, .. } => Some(*events),
                _ => None,
            })
            .expect("close receipt");
        assert_eq!(closed, 8, "no events lost across the spill");
        assert_eq!(conn.tallies().restored, 1);
        assert_eq!(conn.spilled_streams(), 0);
    }

    #[test]
    fn verbose_streams_emit_predictions() {
        let events = indirect_events(20);
        let mut conn = MuxConn::new(256, 64);
        let mut bytes = Vec::new();
        put_mux_open(&mut bytes, 1, PredictorKind::Btb.wire_code(), 2048, true);
        let mut enc = EventDeltaState::new();
        put_mux_events_frame(&mut enc, 1, &events, &mut bytes);
        let out = drive(&mut conn, &bytes);
        let trace: ibp_trace::Trace = events.iter().copied().collect();
        let offline = PredictorKind::Btb.simulate_trace(&trace);
        let predictions = out
            .iter()
            .filter(|f| matches!(f, ServerFrame::MuxPrediction { stream: 1, .. }))
            .count() as u64;
        assert_eq!(predictions, offline.predictions());
        let wrong = out
            .iter()
            .filter(
                |f| matches!(f, ServerFrame::MuxPrediction { correct: false, .. }),
            )
            .count() as u64;
        assert_eq!(wrong, offline.mispredictions());
    }
}
