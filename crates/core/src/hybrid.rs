//! PPM-hyb: PPM with dynamic per-branch correlation selection.
//!
//! The paper's headline design (§4, Figure 4): two path history registers
//! — **PB** (fed by every branch) and **PIB** (fed by indirect branches) —
//! share one Markov stack. The BIU's per-branch 2-bit selection counter
//! picks which PHR generates the indices for each prediction; the counter
//! is trained by prediction outcomes through either the normal or the
//! PIB-biased state machine of Figure 5. Because the BIU must be consulted
//! before the Markov tables, this is a *2-level* predictor.

use crate::biu::{Biu, BiuEntry, BiuId};
use crate::selector::{CorrelationMode, SelectorKind};
use crate::stack::{MarkovStack, StackConfig, StackLookup};
use crate::stats::OrderStats;
use ibp_hw::{HardwareCost, SfsxsRegister};
use ibp_isa::{Addr, TargetArity};
use ibp_predictors::{declare_state, HistoryGroup, IndirectPredictor};
use ibp_trace::BranchEvent;

/// The PPM hybrid predictor (`PPM-hyb` / `PPM-hyb-biased`).
///
/// # Examples
///
/// ```
/// use ibp_isa::Addr;
/// use ibp_ppm::PpmHybrid;
/// use ibp_predictors::IndirectPredictor;
///
/// let mut ppm = PpmHybrid::paper_biased();
/// ppm.update(Addr::new(0x40), Addr::new(0x900));
/// assert_eq!(ppm.predict(Addr::new(0x40)), Some(Addr::new(0x900)));
/// ```
#[derive(Debug, Clone)]
pub struct PpmHybrid {
    stack: MarkovStack,
    /// The two PHRs, each keeping its SFSXS signature current as targets
    /// shift in, so a prediction never rescans a history.
    pb_phr: SfsxsRegister,
    pib_phr: SfsxsRegister,
    biu: Biu,
    stats: OrderStats,
    selector_kind: SelectorKind,
    /// Lookup state captured at fetch: (pc, BIU handle, stack lookup).
    /// Carrying the handle lets `update` reach the selector without a
    /// second hash probe; `Biu::entry_at` revalidates it.
    last: Option<(Addr, BiuId, StackLookup)>,
    /// Count of predictions made in each mode, for analysis.
    pb_predictions: u64,
    pib_predictions: u64,
    /// Selection-counter movements: any 2-bit state change, and the
    /// subset that crossed the PB/PIB mode boundary. Telemetry only.
    selector_transitions: u64,
    mode_flips: u64,
}

impl PpmHybrid {
    /// Creates a hybrid PPM from a stack configuration and selector kind.
    pub fn new(config: StackConfig, selector_kind: SelectorKind) -> Self {
        let stack = MarkovStack::new(config);
        let phr = SfsxsRegister::new(*stack.sfsxs());
        Self {
            stack,
            pb_phr: phr.clone(),
            pib_phr: phr,
            biu: Biu::unbounded(selector_kind),
            stats: OrderStats::new(config.max_order),
            selector_kind,
            last: None,
            pb_predictions: 0,
            pib_predictions: 0,
            selector_transitions: 0,
            mode_flips: 0,
        }
    }

    /// The paper's `PPM-hyb`: order 10, 2 × 100-bit PHRs, normal selector.
    pub fn paper() -> Self {
        Self::new(StackConfig::paper(), SelectorKind::Normal)
    }

    /// The paper's `PPM-hyb-biased`: same, with the PIB-biased selector.
    pub fn paper_biased() -> Self {
        Self::new(StackConfig::paper(), SelectorKind::PibBiased)
    }

    /// Uses a bounded BIU of `capacity` branches (the finite-size
    /// sensitivity the paper leaves as future work).
    pub fn with_bounded_biu(mut self, capacity: usize) -> Self {
        self.biu = Biu::bounded(capacity, self.selector_kind);
        self
    }

    /// Per-order access/miss statistics.
    pub fn order_stats(&self) -> &OrderStats {
        &self.stats
    }

    /// The underlying Markov stack.
    pub fn stack(&self) -> &MarkovStack {
        &self.stack
    }

    /// The Branch Identification Unit.
    pub fn biu(&self) -> &Biu {
        &self.biu
    }

    /// How many predictions used the PB vs PIB history.
    pub fn mode_usage(&self) -> (u64, u64) {
        (self.pb_predictions, self.pib_predictions)
    }

    /// Selection-counter dynamics: `(state transitions, mode flips)` —
    /// every 2-bit counter movement, and the subset that crossed the
    /// Figure 5 PB/PIB boundary.
    pub fn selector_activity(&self) -> (u64, u64) {
        (self.selector_transitions, self.mode_flips)
    }

    fn lookup_for(&self, mode: CorrelationMode, pc: Addr) -> StackLookup {
        let phr = match mode {
            CorrelationMode::Pb => &self.pb_phr,
            CorrelationMode::Pib => &self.pib_phr,
        };
        self.stack.lookup(phr, pc)
    }
}

impl IndirectPredictor for PpmHybrid {
    fn name(&self) -> String {
        match self.selector_kind {
            SelectorKind::Normal => "PPM-hyb".into(),
            SelectorKind::PibBiased => "PPM-hyb-biased".into(),
        }
    }

    #[inline]
    fn predict(&mut self, pc: Addr) -> Option<Addr> {
        // Single BIU probe per event: resolve the entry to a stable
        // handle here and hand the handle to `update`, which revalidates
        // it in O(1) instead of hashing the pc again.
        let id = self.biu.entry_id(pc, TargetArity::Multiple);
        let mode = self.biu.entry_ref(id).selector().mode();
        match mode {
            CorrelationMode::Pb => self.pb_predictions += 1,
            CorrelationMode::Pib => self.pib_predictions += 1,
        }
        let lookup = self.lookup_for(mode, pc);
        let prediction = lookup.prediction();
        self.last = Some((pc, id, lookup));
        prediction
    }

    #[inline]
    fn update(&mut self, pc: Addr, actual: Addr) {
        let (id, lookup) = match self.last.take() {
            Some((last_pc, id, lookup)) if last_pc == pc => (Some(id), lookup),
            _ => {
                let mode = self.biu.entry(pc, TargetArity::Multiple).selector().mode();
                (None, self.lookup_for(mode, pc))
            }
        };
        let correct = lookup.prediction() == Some(actual);
        self.stats.record(lookup.provider(), correct);
        self.stack.update(&lookup, pc, actual);
        // "The PHRs and the correlation selection counters are always
        // updated" (§4): the counter sees every outcome.
        let record = |e: &mut BiuEntry| {
            let before = *e.selector();
            e.selector_mut().record(correct);
            (before, *e.selector())
        };
        let (before, after) = match id.and_then(|id| self.biu.entry_at(id, pc)) {
            Some(e) => record(e),
            None => record(self.biu.entry(pc, TargetArity::Multiple)),
        };
        self.selector_transitions += u64::from(before.state() != after.state());
        self.mode_flips += u64::from(before.mode() != after.mode());
    }

    #[inline]
    fn observe(&mut self, event: &BranchEvent) {
        // PB records the targets of every committed branch; PIB those of
        // indirect branches only.
        let target = event.target().path_bits();
        if HistoryGroup::AllBranches.accepts(event) {
            self.pb_phr.shift_in(target);
        }
        if HistoryGroup::AllIndirect.accepts(event) {
            self.pib_phr.shift_in(target);
        }
    }

    fn cost(&self) -> HardwareCost {
        self.stack.cost()
            + HardwareCost::register(self.pb_phr.total_bits() as u64)
            + HardwareCost::register(self.pib_phr.total_bits() as u64)
            + self.biu.cost()
    }

    fn reset(&mut self) {
        let fresh = Self::new(*self.stack.config(), self.selector_kind);
        *self = match self.biu.capacity() {
            Some(capacity) => fresh.with_bounded_biu(capacity),
            None => fresh,
        };
    }

    fn report_metrics(&self, sink: &mut dyn FnMut(&str, u64)) {
        self.stats.report_metrics(sink);
        self.stack.report_metrics(sink);
        sink("biu_entries", self.biu.len() as u64);
        sink("biu_selector_transitions", self.selector_transitions);
        sink("biu_mode_flips", self.mode_flips);
        sink("predictions_pb_mode", self.pb_predictions);
        sink("predictions_pib_mode", self.pib_predictions);
    }

    // `last` is predict→update window state, None at event boundaries;
    // each PHR writes a `PathHistory`'s bytes and rebuilds its signature
    // on load.
    declare_state! { self;
        "o" [
            Tag(if self.stack.config().tagged { 10 } else { 0 }) tags,
            Target(64) targets,
            Counter(2) conf,
            Metadata(1) valid,
        ] => self.stack;
        "pb_phr" [History(self.pb_phr.total_bits() as u64)] => self.pb_phr;
        "pib_phr" [History(self.pib_phr.total_bits() as u64)] => self.pib_phr;
        "biu" [Metadata(2) flags, Counter(2) selector] => self.biu;
        "stats" [] => self.stats;
        "pb_predictions" [] => self.pb_predictions;
        "pib_predictions" [] => self.pib_predictions;
        "selector_transitions" [] => self.selector_transitions;
        "mode_flips" [] => self.mode_flips;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive(p: &mut PpmHybrid, pc: Addr, target: Addr) -> bool {
        let hit = p.predict(pc) == Some(target);
        p.update(pc, target);
        p.observe(&BranchEvent::indirect_jmp(pc, target));
        hit
    }

    #[test]
    fn starts_in_pib_mode() {
        let mut p = PpmHybrid::paper();
        let _ = p.predict(Addr::new(0x40));
        assert_eq!(p.mode_usage(), (0, 1));
    }

    #[test]
    fn learns_pib_correlated_sequences() {
        let mut p = PpmHybrid::paper();
        let pc = Addr::new(0x100);
        let targets = [Addr::new(0xA04), Addr::new(0xB08), Addr::new(0xC0C)];
        let mut late_misses = 0;
        for i in 0..600 {
            let t = targets[i % 3];
            if !drive(&mut p, pc, t) && i > 100 {
                late_misses += 1;
            }
        }
        assert!(late_misses < 20, "hybrid failed PIB cycle: {late_misses}");
    }

    #[test]
    fn switches_to_pb_for_pb_correlated_branch() {
        // The branch's target is determined by the taken/not-taken path of
        // preceding conditional branches — invisible to PIB history. After
        // enough PIB failures, the selector must flip to PB and accuracy
        // must recover.
        let mut p = PpmHybrid::paper();
        let site = Addr::new(0x500);
        let cond = Addr::new(0x100);
        let outs = [Addr::new(0xA04), Addr::new(0xB08)];
        let mut late_misses = 0;
        for i in 0..2000usize {
            let k = (i / 7) % 2; // slow phase alternation
                                 // Conditional with direction-dependent target shapes PB path.
            let cond_target = if k == 0 {
                Addr::new(0x204)
            } else {
                Addr::new(0x308)
            };
            p.observe(&BranchEvent::cond_taken(cond, cond_target));
            let hit = p.predict(site) == Some(outs[k]);
            p.update(site, outs[k]);
            p.observe(&BranchEvent::indirect_jsr(site, outs[k]));
            if i > 1000 && !hit {
                late_misses += 1;
            }
        }
        assert!(
            late_misses < 150,
            "hybrid failed to exploit PB correlation: {late_misses}"
        );
        let entry = p.biu().get(site).unwrap();
        assert_eq!(entry.selector().mode(), CorrelationMode::Pb);
        assert!(p.mode_usage().0 > 0, "PB history never used");
    }

    #[test]
    fn incremental_signatures_track_the_history_registers() {
        // The registers' signatures must equal a full SFSXS scan of
        // plain PHRs fed the same events — otherwise the signature-based
        // lookup diverges from the paper's.
        let mut p = PpmHybrid::paper();
        let mut pb = ibp_hw::PathHistory::new(10, 10);
        let mut pib = ibp_hw::PathHistory::new(10, 10);
        let mut x = 0x853C49E6748FEA9Bu64;
        for i in 0..500u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let pc = Addr::new((x >> 40) << 2);
            let target = Addr::new((x >> 20) & 0xFFFFC);
            match i % 3 {
                0 => p.observe(&BranchEvent::cond_taken(pc, target)),
                _ => {
                    let _ = p.predict(pc);
                    p.update(pc, target);
                    p.observe(&BranchEvent::indirect_jmp(pc, target));
                    pib.push(target.path_bits());
                }
            }
            pb.push(target.path_bits());
            let sfsxs = p.stack.sfsxs();
            assert_eq!(p.pb_phr.signature(), sfsxs.signature(&pb), "PB at event {i}");
            assert_eq!(p.pib_phr.signature(), sfsxs.signature(&pib), "PIB at event {i}");
        }
    }

    #[test]
    fn biased_variant_name_and_kind() {
        assert_eq!(PpmHybrid::paper().name(), "PPM-hyb");
        assert_eq!(PpmHybrid::paper_biased().name(), "PPM-hyb-biased");
    }

    #[test]
    fn pb_history_records_everything() {
        let mut p = PpmHybrid::paper();
        p.observe(&BranchEvent::cond_taken(Addr::new(0x10), Addr::new(0x24)));
        assert_ne!(p.pb_phr.slot(0), 0);
        assert_eq!(p.pib_phr.slot(0), 0);
        p.observe(&BranchEvent::st_jsr(Addr::new(0x30), Addr::new(0x904)));
        assert_ne!(p.pib_phr.slot(0), 0);
    }

    #[test]
    fn paper_budget_is_2k_entries() {
        let p = PpmHybrid::paper();
        assert_eq!(p.cost().entries(), 2046);
        // Two 100-bit PHRs are charged.
        assert!(p.cost().bits() >= 200);
    }

    #[test]
    fn bounded_biu_variant_works() {
        let mut p = PpmHybrid::paper().with_bounded_biu(4);
        for i in 0..8u64 {
            drive(&mut p, Addr::new(0x100 + i * 4), Addr::new(0x900 + i * 4));
        }
        assert!(p.biu().len() <= 4);
    }

    #[test]
    fn selector_telemetry_tracks_counter_movement() {
        let mut p = PpmHybrid::paper();
        let pc = Addr::new(0x100);
        // A fixed single-target branch: after warm-up every outcome is
        // correct, saturating the selector — transitions happen early
        // then stop.
        for _ in 0..50 {
            drive(&mut p, pc, Addr::new(0xA04));
        }
        let (transitions, flips) = p.selector_activity();
        assert!(transitions >= 1, "warm-up must move the selector");
        assert!(flips <= transitions, "flips are a subset of transitions");

        let mut metrics = Vec::new();
        p.report_metrics(&mut |name, value| metrics.push((name.to_string(), value)));
        let get = |key: &str| {
            metrics
                .iter()
                .find(|(n, _)| n == key)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("missing metric {key}"))
        };
        assert_eq!(get("biu_selector_transitions"), transitions);
        assert_eq!(get("biu_mode_flips"), flips);
        assert_eq!(get("biu_entries"), 1);
        assert_eq!(
            get("predictions_pb_mode") + get("predictions_pib_mode"),
            50,
            "every prediction attributed to a mode"
        );
        // Per-order attribution must account for every prediction too.
        let provided: u64 = (1..=10).map(|j| get(&format!("order{j:02}_provided"))).sum();
        assert_eq!(provided + get("lookups_unprovided"), 50);

        p.reset();
        assert_eq!(p.selector_activity(), (0, 0));
    }

    #[test]
    fn reset_restores_cold() {
        let mut p = PpmHybrid::paper();
        drive(&mut p, Addr::new(0x40), Addr::new(0x900));
        p.reset();
        assert_eq!(p.predict(Addr::new(0x40)), None);
        assert!(p.biu().len() <= 1); // only the re-probed entry
    }
}
