//! Filtered PPM — the first §6 future-work item, implemented.
//!
//! "In the future, we plan to explore the design space in several ways:
//! incorporate a filter for monomorphic and low entropy branches such as
//! the one used in the Cascade predictor" (§6). This couples the Cascade's
//! leaky filter with the hybrid PPM core: branches a small tagged
//! BTB-with-hysteresis can predict never enter the Markov tables, removing
//! exactly the displacement effect §5 blames for PPM's losses on eqn/edg.

use crate::hybrid::PpmHybrid;
use crate::selector::SelectorKind;
use crate::stack::StackConfig;
use ibp_hw::HardwareCost;
use ibp_isa::Addr;
use ibp_predictors::{declare_state, IndirectPredictor, LeakyFilter};
use ibp_trace::BranchEvent;

/// A leaky filter in front of the hybrid PPM.
///
/// Prediction: the PPM core answers when it has a valid entry for the
/// current history; otherwise the filter answers. Update: the filter
/// always learns; the core learns only when the filter failed (wrong or
/// absent) or the branch already lives in the core's tables — the same
/// leak rule as the Cascade predictor.
///
/// # Examples
///
/// ```
/// use ibp_isa::Addr;
/// use ibp_ppm::FilteredPpm;
/// use ibp_predictors::IndirectPredictor;
///
/// let mut p = FilteredPpm::paper();
/// p.update(Addr::new(0x40), Addr::new(0x900));
/// assert_eq!(p.predict(Addr::new(0x40)), Some(Addr::new(0x900)));
/// ```
#[derive(Debug, Clone)]
pub struct FilteredPpm {
    filter: LeakyFilter,
    core: PpmHybrid,
    filter_entries: usize,
    /// (pc, filter prediction, core prediction) captured at fetch.
    last: Option<(Addr, Option<Addr>, Option<Addr>)>,
}

impl FilteredPpm {
    /// Creates a filtered PPM with the given filter size and PPM stack.
    ///
    /// # Panics
    ///
    /// Panics if `filter_entries` is zero or not divisible by 4 (the
    /// filter is 4-way set-associative, like the Cascade's).
    pub fn new(filter_entries: usize, config: StackConfig, kind: SelectorKind) -> Self {
        Self {
            filter: LeakyFilter::new(filter_entries, 4),
            core: PpmHybrid::new(config, kind),
            filter_entries,
            last: None,
        }
    }

    /// The §6 configuration implied by the paper: the Cascade's 128-entry
    /// filter in front of the paper's order-10 PPM-hyb.
    pub fn paper() -> Self {
        Self::new(128, StackConfig::paper(), SelectorKind::Normal)
    }

    /// The underlying PPM core (for stats inspection).
    pub fn core(&self) -> &PpmHybrid {
        &self.core
    }
}

impl IndirectPredictor for FilteredPpm {
    fn name(&self) -> String {
        "PPM-filtered".into()
    }

    fn predict(&mut self, pc: Addr) -> Option<Addr> {
        let fp = self.filter.predict(pc);
        let cp = self.core.predict(pc);
        self.last = Some((pc, fp, cp));
        cp.or(fp)
    }

    fn update(&mut self, pc: Addr, actual: Addr) {
        let (fp, cp) = match self.last.take() {
            Some((last_pc, fp, cp)) if last_pc == pc => (fp, cp),
            _ => {
                let fp = self.filter.predict(pc);
                let cp = self.core.predict(pc);
                (fp, cp)
            }
        };
        self.filter.update(pc, actual);
        let filter_failed = fp != Some(actual);
        let in_core = cp.is_some();
        if filter_failed || in_core {
            self.core.update(pc, actual);
        }
    }

    fn observe(&mut self, event: &BranchEvent) {
        self.core.observe(event);
    }

    fn cost(&self) -> HardwareCost {
        // filter entry: target + tag(30) + 2-bit counter + valid
        self.core.cost() + HardwareCost::table(self.filter_entries as u64, 64 + 30 + 2 + 1)
    }

    fn reset(&mut self) {
        *self = Self::new(
            self.filter_entries,
            *self.core.stack().config(),
            self.core.biu().kind(),
        );
    }

    declare_state! { self;
        "filter" [Tag(30) tags, Target(64) targets, Counter(2) conf, Metadata(1) valid]
            => self.filter;
        nested self.core;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive(p: &mut FilteredPpm, pc: Addr, target: Addr) -> bool {
        let hit = p.predict(pc) == Some(target);
        p.update(pc, target);
        p.observe(&BranchEvent::indirect_jmp(pc, target));
        hit
    }

    #[test]
    fn monomorphic_branch_stays_in_the_filter() {
        let mut p = FilteredPpm::paper();
        let pc = Addr::new(0x40);
        let t = Addr::new(0x900);
        let mut misses = 0;
        for i in 0..100 {
            if !drive(&mut p, pc, t) && i > 0 {
                misses += 1;
            }
        }
        assert_eq!(misses, 0, "steady monomorphic branch must be perfect");
        // The Markov tables saw at most the single cold leak: after 100
        // identical executions the stack's top order holds at most a
        // handful of entries (one per distinct history window), not 100.
        assert!(p.core().order_stats().total_accesses() <= 100);
    }

    #[test]
    fn polymorphic_branch_reaches_the_core() {
        let mut p = FilteredPpm::paper();
        let pc = Addr::new(0x80);
        let targets = [Addr::new(0xA04), Addr::new(0xB08), Addr::new(0xC0C)];
        let mut late_misses = 0;
        for i in 0..600 {
            let t = targets[i % 3];
            if !drive(&mut p, pc, t) && i > 200 {
                late_misses += 1;
            }
        }
        assert!(late_misses < 20, "filtered PPM failed cycle: {late_misses}");
        assert!(p.core().order_stats().total_accesses() > 0);
    }

    #[test]
    fn cost_adds_the_filter() {
        let plain = PpmHybrid::paper().cost();
        let filtered = FilteredPpm::paper().cost();
        assert_eq!(filtered.entries(), plain.entries() + 128);
    }

    #[test]
    fn reset_restores_cold() {
        let mut p = FilteredPpm::paper();
        drive(&mut p, Addr::new(0x40), Addr::new(0x900));
        p.reset();
        assert_eq!(p.predict(Addr::new(0x40)), None);
    }
}
