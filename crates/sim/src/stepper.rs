//! Batched, monomorphized session stepping for the serving layer.
//!
//! `ibp-serve`'s PR 5 session held a `Box<dyn IndirectPredictor>` and
//! paid three virtual calls per event (predict, update, observe). The
//! multiplexed reactor steps hundreds of resident streams per poll
//! iteration, so the dispatch cost is hoisted to the *batch* boundary
//! instead: a [`SessionStepper`] is built once per stream through
//! [`PredictorKind::session_stepper`](crate::PredictorKind::session_stepper),
//! which monomorphizes the whole per-event loop over the concrete
//! predictor type — the same `dispatch_kind!` arms the offline engine's
//! hot loop uses — leaving one virtual call per batch.
//!
//! The per-event protocol is *exactly*
//! [`simulate_stream`](crate::runner::simulate_stream)'s: for every
//! event whose class is a predicted (multi-target) indirect branch,
//! predict → count → update; every event is observed. The stepper also
//! keeps the same per-branch accounting, so [`SessionStepper::run_result`]
//! returns a [`RunResult`] bit-identical to offline simulation of the
//! same event sequence — the property the serve differential suites pin.

use crate::runner::RunResult;
use ibp_exec::FastMap;
use ibp_hw::{PersistError, StateSink, StateSource};
use ibp_predictors::{IndirectPredictor, PredictorState};
use ibp_trace::BranchEvent;

/// Initial per-branch map capacity, matching the offline runner's.
const PER_BRANCH_CAPACITY: usize = 128;

/// The outcome of one predicted indirect event, in batch order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PredictionOutcome {
    /// Zero-based event sequence number within the session (counting
    /// every event, not just predicted ones).
    pub seq: u64,
    /// Whether the prediction matched the resolved target.
    pub correct: bool,
    /// The predicted target, if the predictor produced one.
    pub predicted: Option<u64>,
}

/// One serving session's predictor, stepped a batch at a time.
///
/// Implementations are monomorphized per concrete predictor (see the
/// module docs); this trait is the once-per-batch dynamic boundary.
/// `Send + Sync` so a warmed prototype can be shared across reactor
/// shards and forked from any of them.
pub trait SessionStepper: Send + Sync {
    /// The predictor's display name (e.g. `PPM-hyb`).
    fn label(&self) -> &str;

    /// Events processed so far (every event, predicted or not).
    fn events(&self) -> u64;

    /// Predicted indirect events so far.
    fn predictions(&self) -> u64;

    /// Mispredictions so far.
    fn mispredictions(&self) -> u64;

    /// Steps the session through `events`, counting but not reporting
    /// individual outcomes — the serving fast path.
    fn step_counted(&mut self, events: &[BranchEvent]);

    /// Steps the session through `events`, appending one
    /// [`PredictionOutcome`] per predicted indirect event.
    fn step_verbose(&mut self, events: &[BranchEvent], out: &mut Vec<PredictionOutcome>);

    /// The session's accumulated result, bit-identical to offline
    /// [`simulate_stream`](crate::runner::simulate_stream) over the same
    /// event sequence.
    fn run_result(&self) -> RunResult;

    /// Freezes the predictor's current table contents into an immutable,
    /// reference-counted **base tier**. Subsequent writes land in a sparse
    /// copy-on-write delta overlay; [`SessionStepper::fork_fresh`] clones
    /// share the base for free. Predictions are unchanged — the
    /// multi-tenant differential suites pin this.
    fn seal(&mut self);

    /// Whether [`SessionStepper::seal`] has been called on this session
    /// (directly or via the prototype it was forked from).
    fn is_sealed(&self) -> bool;

    /// Heap bytes this session uniquely owns. Sealed sessions charge only
    /// their delta overlays (plus unshared side state), not the shared
    /// base tier.
    fn resident_bytes(&self) -> usize;

    /// A fresh session sharing this stepper's predictor state: tables are
    /// cloned (sharing the sealed base by reference where one exists) and
    /// all event/prediction counters start at zero. This is how a warmed
    /// [`BaseTier`](crate::snapshot::BaseTier) mints per-tenant sessions.
    fn fork_fresh(&self) -> Box<dyn SessionStepper>;

    /// Serializes the whole session — counters, per-branch ledger, and
    /// predictor state — into `out`. Sealed sessions write their sparse
    /// deltas, not the shared base, so idle-session spill files stay small.
    /// The bytes are canonical: equal sessions produce equal blobs.
    fn save_session(&self, out: &mut Vec<u8>);

    /// Restores a blob written by [`SessionStepper::save_session`] into
    /// this session, which must have the same predictor label and sealed
    /// state (a sealed blob must load into a fork of the *same* base
    /// tier). Fails with [`PersistError::Mismatch`] otherwise; on any
    /// error this session's state is unspecified and it must be dropped.
    fn load_session(&mut self, bytes: &[u8]) -> Result<(), PersistError>;
}

/// The generic [`SessionStepper`] implementation over a concrete
/// predictor type. Constructed through
/// [`PredictorKind::session_stepper`](crate::PredictorKind::session_stepper),
/// which picks `P` per kind.
pub struct Stepper<P> {
    predictor: P,
    label: String,
    sealed: bool,
    seq: u64,
    predictions: u64,
    mispredictions: u64,
    per_branch: FastMap<u64, (u64, u64)>,
}

impl<P: IndirectPredictor> Stepper<P> {
    /// Wraps a fresh predictor.
    pub fn new(predictor: P) -> Self {
        let label = predictor.name();
        Stepper {
            predictor,
            label,
            sealed: false,
            seq: 0,
            predictions: 0,
            mispredictions: 0,
            per_branch: FastMap::with_capacity(PER_BRANCH_CAPACITY),
        }
    }

    /// The single per-event loop both step entry points funnel into;
    /// `VERBOSE` is a compile-time branch so the counted path carries no
    /// outcome-reporting residue.
    fn step<const VERBOSE: bool>(
        &mut self,
        events: &[BranchEvent],
        out: &mut Vec<PredictionOutcome>,
    ) {
        for event in events {
            if event.class().is_predicted_indirect() {
                let predicted = self.predictor.predict(event.pc());
                let actual = event.target();
                let correct = predicted == Some(actual);
                self.predictions += 1;
                let entry = self.per_branch.or_insert_with(event.pc().raw(), || (0, 0));
                entry.0 += 1;
                if !correct {
                    self.mispredictions += 1;
                    entry.1 += 1;
                }
                if VERBOSE {
                    out.push(PredictionOutcome {
                        seq: self.seq,
                        correct,
                        predicted: predicted.map(|a| a.raw()),
                    });
                }
                self.predictor.update(event.pc(), actual);
            }
            self.predictor.observe(event);
            self.seq += 1;
        }
    }
}

impl<P> SessionStepper for Stepper<P>
where
    P: IndirectPredictor + Clone + Send + Sync + 'static,
{
    fn label(&self) -> &str {
        &self.label
    }

    fn events(&self) -> u64 {
        self.seq
    }

    fn predictions(&self) -> u64 {
        self.predictions
    }

    fn mispredictions(&self) -> u64 {
        self.mispredictions
    }

    fn step_counted(&mut self, events: &[BranchEvent]) {
        let mut none = Vec::new();
        self.step::<false>(events, &mut none);
    }

    fn step_verbose(&mut self, events: &[BranchEvent], out: &mut Vec<PredictionOutcome>) {
        self.step::<true>(events, out);
    }

    fn run_result(&self) -> RunResult {
        RunResult::from_parts(
            self.label.clone(),
            self.predictions,
            self.mispredictions,
            self.per_branch.iter().map(|(&pc, &counts)| (pc, counts)),
        )
    }

    fn seal(&mut self) {
        self.predictor.seal();
        self.sealed = true;
    }

    fn is_sealed(&self) -> bool {
        self.sealed
    }

    fn resident_bytes(&self) -> usize {
        // Predictor tables plus the per-branch ledger's logical payload
        // (pc + two counters per site).
        self.predictor.resident_bytes()
            + self.per_branch.len() * 3 * std::mem::size_of::<u64>()
    }

    fn fork_fresh(&self) -> Box<dyn SessionStepper> {
        Box::new(Stepper {
            predictor: self.predictor.clone(),
            label: self.label.clone(),
            sealed: self.sealed,
            seq: 0,
            predictions: 0,
            mispredictions: 0,
            per_branch: FastMap::with_capacity(PER_BRANCH_CAPACITY),
        })
    }

    fn save_session(&self, out: &mut Vec<u8>) {
        let mut sink = StateSink::new(out);
        sink.bytes(self.label.as_bytes());
        sink.bool(self.sealed);
        sink.u64(self.seq);
        sink.u64(self.predictions);
        sink.u64(self.mispredictions);
        // Per-branch ledger sorted by PC, gap-coded: canonical bytes
        // regardless of map iteration order.
        let mut sites: Vec<(u64, (u64, u64))> =
            self.per_branch.iter().map(|(&pc, &c)| (pc, c)).collect();
        sites.sort_unstable_by_key(|&(pc, _)| pc);
        sink.usize(sites.len());
        let mut prev = 0u64;
        for (pc, (preds, misses)) in sites {
            sink.u64(pc.wrapping_sub(prev));
            prev = pc;
            sink.u64(preds);
            sink.u64(misses);
        }
        self.predictor.save_state(&mut sink);
    }

    fn load_session(&mut self, bytes: &[u8]) -> Result<(), PersistError> {
        let mut src = StateSource::new(bytes);
        if src.bytes()? != self.label.as_bytes() {
            return Err(PersistError::Mismatch("session predictor label"));
        }
        if src.bool()? != self.sealed {
            return Err(PersistError::Mismatch("session sealed state"));
        }
        let seq = src.u64()?;
        let predictions = src.u64()?;
        let mispredictions = src.u64()?;
        if predictions > seq || mispredictions > predictions {
            return Err(PersistError::Corrupt("session counters inconsistent"));
        }
        let sites = src.usize()?;
        let mut per_branch = FastMap::with_capacity(PER_BRANCH_CAPACITY);
        let mut pc = 0u64;
        let mut total = 0u64;
        for i in 0..sites {
            let gap = src.u64()?;
            if i > 0 && gap == 0 {
                return Err(PersistError::Corrupt("session ledger out of order"));
            }
            pc = pc.wrapping_add(gap);
            let preds = src.u64()?;
            let misses = src.u64()?;
            if misses > preds {
                return Err(PersistError::Corrupt("session ledger inconsistent"));
            }
            total += preds;
            per_branch.insert(pc, (preds, misses));
        }
        if total != predictions {
            return Err(PersistError::Corrupt("session ledger does not sum"));
        }
        self.predictor.load_state(&mut src)?;
        if !src.is_exhausted() {
            return Err(PersistError::Corrupt("trailing bytes after session"));
        }
        self.seq = seq;
        self.predictions = predictions;
        self.mispredictions = mispredictions;
        self.per_branch = per_branch;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::simulate_stream;
    use crate::PredictorKind;
    use ibp_isa::Addr;

    fn mixed_trace(n: u64) -> Vec<BranchEvent> {
        (0..n)
            .map(|i| {
                let pc = Addr::new(0x4000 + (i % 5) * 4);
                match i % 4 {
                    0 => BranchEvent::indirect_jmp(pc, Addr::new(0x9000 + (i % 3) * 0x100)),
                    1 => BranchEvent::cond_taken(pc, Addr::new(0x5000)),
                    2 => BranchEvent::indirect_jsr(pc, Addr::new(0xA000 + (i % 2) * 0x40)),
                    _ => BranchEvent::ret(Addr::new(0xA010), pc.offset_words(1)),
                }
            })
            .collect()
    }

    #[test]
    fn stepper_matches_offline_simulation_for_every_kind() {
        let events = mixed_trace(400);
        for kind in PredictorKind::serve_lineup() {
            let mut offline = kind.build_with_entries(2048);
            let expected = simulate_stream(&mut *offline, events.iter().copied());

            // Counted path, split into uneven batches.
            let mut stepper = kind.session_stepper(2048);
            for chunk in events.chunks(37) {
                stepper.step_counted(chunk);
            }
            assert_eq!(stepper.run_result(), expected, "{kind:?} counted");
            assert_eq!(stepper.events(), 400);
            assert_eq!(stepper.label(), expected.predictor());

            // Verbose path, different batching, same result plus one
            // outcome per predicted event.
            let mut stepper = kind.session_stepper(2048);
            let mut outcomes = Vec::new();
            for chunk in events.chunks(61) {
                stepper.step_verbose(chunk, &mut outcomes);
            }
            assert_eq!(stepper.run_result(), expected, "{kind:?} verbose");
            assert_eq!(outcomes.len() as u64, expected.predictions());
            let wrong = outcomes.iter().filter(|o| !o.correct).count() as u64;
            assert_eq!(wrong, expected.mispredictions(), "{kind:?}");
        }
    }

    #[test]
    fn verbose_outcomes_carry_event_sequence_numbers() {
        let events = mixed_trace(40);
        let mut stepper = PredictorKind::Btb.session_stepper(2048);
        let mut outcomes = Vec::new();
        stepper.step_verbose(&events, &mut outcomes);
        // Events 0, 2 mod 4 are predicted indirect; seq counts all events.
        for o in &outcomes {
            assert_eq!(o.seq % 2, 0, "only even positions are indirect: {o:?}");
            assert!(o.seq < 40);
        }
        // A correct outcome always carries the predicted target.
        assert!(outcomes
            .iter()
            .all(|o| !o.correct || o.predicted.is_some()));
    }

    #[test]
    #[should_panic(expected = "budget too small")]
    fn tiny_budget_panics() {
        let _ = PredictorKind::Btb.session_stepper(32);
    }
}
