//! PPM-PIB: the single-history PPM predictor.
//!
//! The simplest member of the family (§5's `PPM-PIB`): one path history
//! register fed by the targets of all indirect branches, one Markov stack,
//! no per-branch selection. Because no BIU counter is consulted, prediction
//! needs a single level of table access — the paper highlights this as the
//! 1-level variant.

use crate::stack::{MarkovStack, StackConfig, StackLookup};
use crate::stats::OrderStats;
use ibp_hw::{HardwareCost, SfsxsRegister};
use ibp_isa::Addr;
use ibp_predictors::{declare_state, HistoryGroup, IndirectPredictor};
use ibp_trace::BranchEvent;

/// The PPM-PIB predictor.
///
/// # Examples
///
/// ```
/// use ibp_isa::Addr;
/// use ibp_ppm::PpmPib;
/// use ibp_predictors::IndirectPredictor;
///
/// let mut ppm = PpmPib::paper();
/// ppm.update(Addr::new(0x40), Addr::new(0x900));
/// assert_eq!(ppm.predict(Addr::new(0x40)), Some(Addr::new(0x900)));
/// ```
#[derive(Debug, Clone)]
pub struct PpmPib {
    stack: MarkovStack,
    /// The PIB history, keeping its SFSXS signature current as targets
    /// shift in.
    phr: SfsxsRegister,
    stats: OrderStats,
    last: Option<(Addr, StackLookup)>,
}

impl PpmPib {
    /// Creates a PPM-PIB predictor from a stack configuration. The PHR
    /// records `select_bits` low-order bits of each of the last
    /// `max_order` indirect-branch targets.
    pub fn new(config: StackConfig) -> Self {
        let stack = MarkovStack::new(config);
        Self {
            phr: SfsxsRegister::new(*stack.sfsxs()),
            stack,
            stats: OrderStats::new(config.max_order),
            last: None,
        }
    }

    /// The paper's order-10, 2046-entry configuration.
    pub fn paper() -> Self {
        Self::new(StackConfig::paper())
    }

    /// Per-order access/miss statistics accumulated so far.
    pub fn order_stats(&self) -> &OrderStats {
        &self.stats
    }

    /// The underlying Markov stack (for inspection in tests/benches).
    pub fn stack(&self) -> &MarkovStack {
        &self.stack
    }

    fn lookup_for(&mut self, pc: Addr) -> StackLookup {
        match self.last.take() {
            Some((last_pc, lookup)) if last_pc == pc => lookup,
            _ => self.stack.lookup(&self.phr, pc),
        }
    }
}

impl IndirectPredictor for PpmPib {
    fn name(&self) -> String {
        "PPM-PIB".into()
    }

    #[inline]
    fn predict(&mut self, pc: Addr) -> Option<Addr> {
        let lookup = self.stack.lookup(&self.phr, pc);
        let prediction = lookup.prediction();
        self.last = Some((pc, lookup));
        prediction
    }

    #[inline]
    fn update(&mut self, pc: Addr, actual: Addr) {
        let lookup = self.lookup_for(pc);
        self.stats
            .record(lookup.provider(), lookup.prediction() == Some(actual));
        self.stack.update(&lookup, pc, actual);
    }

    #[inline]
    fn observe(&mut self, event: &BranchEvent) {
        if HistoryGroup::AllIndirect.accepts(event) {
            self.phr.shift_in(event.target().path_bits());
        }
    }

    fn cost(&self) -> HardwareCost {
        self.stack.cost() + HardwareCost::register(self.phr.total_bits() as u64)
    }

    fn reset(&mut self) {
        *self = Self::new(*self.stack.config());
    }

    fn report_metrics(&self, sink: &mut dyn FnMut(&str, u64)) {
        self.stats.report_metrics(sink);
        self.stack.report_metrics(sink);
    }

    // `last` is predict→update window state; the sim only snapshots at
    // event boundaries where it is None, so it is not serialized.
    declare_state! { self;
        "o" [
            Tag(if self.stack.config().tagged { 10 } else { 0 }) tags,
            Target(64) targets,
            Counter(2) conf,
            Metadata(1) valid,
        ] => self.stack;
        "phr" [History(self.phr.total_bits() as u64)] => self.phr;
        "stats" [] => self.stats;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive(p: &mut PpmPib, pc: Addr, target: Addr) -> bool {
        let hit = p.predict(pc) == Some(target);
        p.update(pc, target);
        p.observe(&BranchEvent::indirect_jmp(pc, target));
        hit
    }

    #[test]
    fn learns_cyclic_target_sequence() {
        let mut p = PpmPib::paper();
        let pc = Addr::new(0x100);
        let targets = [Addr::new(0xA04), Addr::new(0xB08), Addr::new(0xC0C)];
        let mut late_misses = 0;
        for i in 0..600 {
            let t = targets[i % 3];
            if !drive(&mut p, pc, t) && i > 100 {
                late_misses += 1;
            }
        }
        assert!(
            late_misses < 20,
            "PPM-PIB failed to learn cycle: {late_misses}"
        );
    }

    #[test]
    fn most_accesses_go_to_highest_order() {
        // The paper's E4 observation, reproduced in miniature: with update
        // exclusion and highest-valid-order selection, the top component
        // answers almost always once warm.
        let mut p = PpmPib::paper();
        let pc = Addr::new(0x100);
        let targets: Vec<Addr> = (0..4).map(|i| Addr::new(0xA04 + i * 0x40)).collect();
        for i in 0..2000 {
            drive(&mut p, pc, targets[i % 4]);
        }
        assert!(
            p.order_stats().highest_order_access_fraction() > 0.9,
            "fraction = {}",
            p.order_stats().highest_order_access_fraction()
        );
    }

    #[test]
    fn pib_history_ignores_conditionals() {
        let mut p = PpmPib::paper();
        p.observe(&BranchEvent::cond_taken(Addr::new(0x10), Addr::new(0x24)));
        assert_eq!(p.phr.slot(0), 0, "conditional leaked into PIB history");
        p.observe(&BranchEvent::ret(Addr::new(0x30), Addr::new(0x14)));
        assert_ne!(p.phr.slot(0), 0, "returns are part of PIB history");
    }

    #[test]
    fn paper_budget() {
        let p = PpmPib::paper();
        assert_eq!(p.cost().entries(), 2046);
        // One 100-bit PHR.
        assert!(p.cost().bits() >= 100);
    }

    #[test]
    fn reset_restores_cold() {
        let mut p = PpmPib::paper();
        drive(&mut p, Addr::new(0x40), Addr::new(0x900));
        p.reset();
        assert_eq!(p.predict(Addr::new(0x40)), None);
        assert_eq!(p.order_stats().total_accesses(), 0);
    }

    #[test]
    fn update_without_predict_still_works() {
        // The simulator always pairs predict/update, but the API tolerates
        // a bare update (e.g. warm-up replay).
        let mut p = PpmPib::paper();
        p.update(Addr::new(0x40), Addr::new(0x900));
        assert_eq!(p.predict(Addr::new(0x40)), Some(Addr::new(0x900)));
    }
}
