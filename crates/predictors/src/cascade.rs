//! The Cascade predictor (Driesen & Hölzle, MICRO 1998).
//!
//! Cascading couples a cheap first-stage *filter* with an expensive
//! second-stage path-based predictor. Monomorphic and low-entropy branches
//! — the majority of indirect branch sites — are fully absorbed by the
//! filter and never enter the main predictor's tables, which removes their
//! aliasing pressure. A **leaky** filter lets a branch's updates through to
//! the main predictor only once the filter itself has mispredicted it,
//! i.e. once the branch has *proven* polymorphic.
//!
//! The paper's §5 configuration: a 128-entry leaky filter in front of a
//! dual-path core with tagged 4-way set-associative PHTs (true LRU) and
//! path lengths 6 and 4.

use crate::declare_state;
use crate::dual_path::{DualPath, DualPathConfig};
use crate::entry::HysteresisEntry;
use crate::traits::IndirectPredictor;
use ibp_hw::bitspec::StorageReport;
use ibp_hw::{HardwareCost, Part, Persist, PersistError, SetAssociative, StateSink, StateSource};
use ibp_isa::Addr;
use ibp_trace::BranchEvent;

/// A small tagged BTB-like filter with 2-bit replacement hysteresis.
///
/// The filter predicts the most recent (hysteresis-protected) target per
/// branch. Its role in the cascade is to absorb branches a BTB could
/// already predict.
#[derive(Debug, Clone)]
pub struct LeakyFilter {
    table: SetAssociative<HysteresisEntry>,
}

impl LeakyFilter {
    /// Creates a filter with `entries` entries, `ways`-way associative.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero or `ways` does not divide it.
    pub fn new(entries: usize, ways: usize) -> Self {
        assert!(entries > 0 && ways > 0 && entries.is_multiple_of(ways));
        Self {
            table: SetAssociative::new(entries / ways, ways),
        }
    }

    fn key(pc: Addr) -> (u64, u64) {
        let word = pc.raw() >> 2;
        (word, word)
    }

    /// The filter's prediction for `pc`, if present.
    pub fn predict(&mut self, pc: Addr) -> Option<Addr> {
        let (idx, tag) = Self::key(pc);
        self.table.get(idx, tag).map(|e| e.target())
    }

    /// Applies the resolved target; allocates on first sight.
    pub fn update(&mut self, pc: Addr, actual: Addr) {
        let (idx, tag) = Self::key(pc);
        match self.table.get_mut(idx, tag) {
            Some(e) => {
                e.apply(actual);
            }
            None => {
                // ibp-lint: allow(L008, "insert into a fixed-capacity tagged table: evicts, never grows")
                self.table.insert(idx, tag, HysteresisEntry::new(actual));
            }
        }
    }

    /// Occupied filter ways.
    pub fn occupancy(&self) -> usize {
        self.table.occupancy()
    }

    /// Filter LRU evictions (telemetry).
    pub fn evictions(&self) -> u64 {
        self.table.evictions()
    }
}

/// The filter's table. Always private: set-associative true-LRU state
/// mutates on reads, so it never seals.
impl Persist for LeakyFilter {
    fn save_state(&self, out: &mut StateSink<'_>) {
        self.table.save_state(out);
    }

    fn load_state(&mut self, src: &mut StateSource<'_>) -> Result<(), PersistError> {
        self.table.load_state(src)
    }

    fn resident_bytes(&self) -> usize {
        self.table.resident_bytes()
    }

    fn report_rows(&self, part: Part<'_>, r: &mut StorageReport) {
        self.table.report_rows(part, r);
    }
}

/// Configuration of a [`Cascade`] predictor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CascadeConfig {
    /// Filter entries. Paper: 128.
    pub filter_entries: usize,
    /// Filter associativity. The paper's filter is a small tagged
    /// BTB-like structure; we model it 4-way set-associative.
    pub filter_ways: usize,
    /// The dual-path main stage.
    pub core: DualPathConfig,
}

impl CascadeConfig {
    /// The paper's §5 Cascade configuration.
    pub fn paper() -> Self {
        Self {
            filter_entries: 128,
            filter_ways: 4,
            core: DualPathConfig::cascade_core(),
        }
    }
}

/// The cascaded predictor: leaky filter + tagged dual-path core.
///
/// # Examples
///
/// ```
/// use ibp_isa::Addr;
/// use ibp_predictors::{Cascade, CascadeConfig, IndirectPredictor};
///
/// let mut c = Cascade::new(CascadeConfig::paper());
/// c.update(Addr::new(0x40), Addr::new(0x900));
/// assert_eq!(c.predict(Addr::new(0x40)), Some(Addr::new(0x900)));
/// ```
#[derive(Debug, Clone)]
pub struct Cascade {
    config: CascadeConfig,
    filter: LeakyFilter,
    core: DualPath,
    /// Component lookup and filter prediction captured at fetch, consumed
    /// at update: `(pc, dual-path lookup, filter)`.
    last: Option<CascadeLookup>,
}

/// Fetch-time state: `(pc, dual-path lookup, filter prediction)`.
type CascadeLookup = (Addr, crate::dual_path::DualLookup, Option<Addr>);

impl Cascade {
    /// Creates a Cascade predictor from a configuration.
    pub fn new(config: CascadeConfig) -> Self {
        Self {
            filter: LeakyFilter::new(config.filter_entries, config.filter_ways),
            core: DualPath::new(config.core),
            config,
            last: None,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &CascadeConfig {
        &self.config
    }
}

impl IndirectPredictor for Cascade {
    fn name(&self) -> String {
        "Cascade".into()
    }

    fn predict(&mut self, pc: Addr) -> Option<Addr> {
        let lookup = self.core.lookup_components(pc);
        let fp = self.filter.predict(pc);
        self.last = Some((pc, lookup, fp));
        // Tagged core takes priority when it holds the branch; otherwise
        // fall back to the filter (covers monomorphic/low-entropy sites).
        lookup.long_pred.or(lookup.short_pred).or(fp)
    }

    fn update(&mut self, pc: Addr, actual: Addr) {
        let (lookup, fp) = match self.last.take() {
            Some((last_pc, lookup, fp)) if last_pc == pc => (lookup, fp),
            _ => {
                let lookup = self.core.lookup_components(pc);
                let fp = self.filter.predict(pc);
                (lookup, fp)
            }
        };
        self.filter.update(pc, actual);
        // The leak: the main predictor learns this branch only when the
        // filter failed to predict it (wrong target, or not present —
        // e.g. conflict-evicted), or when the branch already lives in the
        // core's tagged tables. A steadily-predicted monomorphic branch
        // never leaks.
        let filter_failed = fp != Some(actual);
        let in_core = lookup.short_pred.is_some() || lookup.long_pred.is_some();
        if filter_failed || in_core {
            self.core.apply(pc, actual, &lookup);
        }
    }

    fn observe(&mut self, event: &BranchEvent) {
        self.core.observe(event);
    }

    fn cost(&self) -> HardwareCost {
        // filter entry: target + tag(30) + 2-bit counter + valid
        self.core.cost() + HardwareCost::table(self.config.filter_entries as u64, 64 + 30 + 2 + 1)
    }

    fn reset(&mut self) {
        *self = Self::new(self.config);
    }

    fn report_metrics(&self, sink: &mut dyn FnMut(&str, u64)) {
        sink("filter_evictions", self.filter.evictions());
        sink("filter_occupancy", self.filter.occupancy() as u64);
        self.core.report_metrics(sink);
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

    fn drive(c: &mut Cascade, pc: Addr, target: Addr) -> bool {
        let hit = c.predict(pc) == Some(target);
        c.update(pc, target);
        c.observe(&BranchEvent::indirect_jmp(pc, target));
        hit
    }

    #[test]
    fn filter_two_miss_replacement() {
        let mut f = LeakyFilter::new(8, 2);
        f.update(Addr::new(0x40), Addr::new(0x100));
        f.update(Addr::new(0x40), Addr::new(0x200));
        assert_eq!(f.predict(Addr::new(0x40)), Some(Addr::new(0x100)));
        f.update(Addr::new(0x40), Addr::new(0x200));
        assert_eq!(f.predict(Addr::new(0x40)), Some(Addr::new(0x200)));
    }

    #[test]
    fn filter_is_tagged() {
        let mut f = LeakyFilter::new(8, 2);
        f.update(Addr::new(0x40), Addr::new(0x100));
        assert_eq!(f.predict(Addr::new(0x60)), None);
    }

    #[test]
    fn monomorphic_branch_is_absorbed_by_the_filter() {
        let mut c = Cascade::new(CascadeConfig {
            filter_entries: 16,
            filter_ways: 4,
            core: DualPathConfig {
                entries_per_component: 64,
                selector_entries: 64,
                ..DualPathConfig::cascade_core()
            },
        });
        let pc = Addr::new(0x40);
        let t = Addr::new(0x900);
        let mut misses = 0;
        for i in 0..50 {
            if !drive(&mut c, pc, t) && i > 0 {
                misses += 1;
            }
        }
        // After the cold start the filter carries the branch perfectly;
        // only the very first occurrence may leak into the core.
        assert_eq!(misses, 0);
        assert_eq!(c.filter.predict(pc), Some(t));
    }

    #[test]
    fn polymorphic_branch_leaks_into_core() {
        let mut c = Cascade::new(CascadeConfig {
            filter_entries: 16,
            filter_ways: 4,
            core: DualPathConfig {
                entries_per_component: 64,
                selector_entries: 64,
                ..DualPathConfig::cascade_core()
            },
        });
        let pc = Addr::new(0x80);
        // Alternate targets so the filter keeps missing.
        for i in 0..60u64 {
            let t = Addr::new(0xA00 + (i % 2) * 0x100);
            drive(&mut c, pc, t);
        }
        let lookup = c.core.lookup_components(pc);
        assert!(
            lookup.short_pred.is_some() || lookup.long_pred.is_some(),
            "polymorphic branch should have leaked into the core"
        );
    }

    #[test]
    fn cascade_learns_path_correlation_after_leak() {
        let mut c = Cascade::new(CascadeConfig::paper());
        let pc = Addr::new(0x100);
        let targets = [Addr::new(0xA04), Addr::new(0xB08), Addr::new(0xC0C)];
        let mut late_misses = 0;
        for i in 0..600 {
            let t = targets[i % 3];
            let hit = drive(&mut c, pc, t);
            if i > 300 && !hit {
                late_misses += 1;
            }
        }
        assert!(
            late_misses < 30,
            "cascade failed to converge: {late_misses}"
        );
    }

    #[test]
    fn paper_cost_includes_filter() {
        let c = Cascade::new(CascadeConfig::paper());
        assert_eq!(c.cost().entries(), 2048 + 128);
    }

    #[test]
    fn reset_restores_cold() {
        let mut c = Cascade::new(CascadeConfig::paper());
        drive(&mut c, Addr::new(0x40), Addr::new(0x900));
        c.reset();
        assert_eq!(c.predict(Addr::new(0x40)), None);
    }
}
