//! The dual path-length hybrid predictor (Driesen & Hölzle, ISCA 1998).
//!
//! Two GAp-style components share one stream of branch targets but fold it
//! with *different path lengths* — one short (fast to warm, resistant to
//! noise) and one long (captures deep correlation) — and a table of 2-bit
//! selection counters picks per branch. The paper's §5 tagless `Dpath`
//! baseline uses path lengths 1 and 3, 1K entries per component, 24-bit
//! path history registers and reverse-interleaving indexing; the Cascade
//! predictor reuses this structure with *tagged* 4-way set-associative
//! tables and path lengths 6 and 4.

use crate::declare_state;
use crate::entry::HysteresisEntry;
use crate::history_group::HistoryGroup;
use crate::traits::IndirectPredictor;
use ibp_hw::bitspec::StorageReport;
use ibp_hw::counter::Saturating2Bit;
use ibp_hw::{
    DirectMapped, HardwareCost, Part, PathHistory, Persist, PersistError, ReverseInterleave,
    SetAssociative, StateSink, StateSource,
};
use ibp_isa::Addr;
use ibp_trace::BranchEvent;

/// Table organization of one dual-path component.
#[derive(Debug, Clone)]
enum ComponentTable {
    Tagless(DirectMapped<HysteresisEntry>),
    Tagged(SetAssociative<HysteresisEntry>),
}

/// Whichever table the component holds. Only a tagless table seals:
/// tagged set-associative tables stay private (true-LRU timestamps
/// mutate on reads, so an overlay would converge to a full copy).
impl Persist for ComponentTable {
    fn save_state(&self, out: &mut StateSink<'_>) {
        match self {
            ComponentTable::Tagless(t) => t.save_state(out),
            ComponentTable::Tagged(t) => t.save_state(out),
        }
    }

    fn load_state(&mut self, src: &mut StateSource<'_>) -> Result<(), PersistError> {
        match self {
            ComponentTable::Tagless(t) => t.load_state(src),
            ComponentTable::Tagged(t) => t.load_state(src),
        }
    }

    fn seal(&mut self) {
        if let ComponentTable::Tagless(t) = self {
            t.seal();
        }
    }

    fn resident_bytes(&self) -> usize {
        match self {
            ComponentTable::Tagless(t) => t.resident_bytes(),
            ComponentTable::Tagged(t) => t.resident_bytes(),
        }
    }

    fn report_rows(&self, part: Part<'_>, r: &mut StorageReport) {
        match self {
            ComponentTable::Tagless(t) => t.report_rows(part, r),
            ComponentTable::Tagged(t) => t.report_rows(part, r),
        }
    }
}

/// One GAp-style component with its own path length.
#[derive(Debug, Clone)]
struct PathComponent {
    table: ComponentTable,
    phr: PathHistory,
    hash: ReverseInterleave,
}

impl PathComponent {
    fn new(entries: usize, ways: usize, path_length: usize, phr_bits: u32, tagged: bool) -> Self {
        let bits_per_target = (phr_bits as usize / path_length).clamp(1, 64) as u8;
        let index_bits = if tagged {
            ((entries / ways) as u64).trailing_zeros().max(1)
        } else {
            (entries as u64).trailing_zeros().max(1)
        };
        Self {
            table: if tagged {
                ComponentTable::Tagged(SetAssociative::new(entries / ways, ways))
            } else {
                ComponentTable::Tagless(DirectMapped::new(entries))
            },
            phr: PathHistory::new(path_length, bits_per_target),
            hash: ReverseInterleave::new(path_length as u32, bits_per_target as u32, index_bits),
        }
    }

    fn index(&self, pc: Addr) -> u64 {
        self.hash.index(pc.raw() >> 2, &self.phr)
    }

    fn predict_at(&mut self, idx: u64, pc: Addr) -> Option<Addr> {
        match &mut self.table {
            ComponentTable::Tagless(t) => t.get(idx).map(|e| e.target()),
            ComponentTable::Tagged(t) => t.get(idx, pc.raw() >> 2).map(|e| e.target()),
        }
    }

    fn update_at(&mut self, idx: u64, pc: Addr, actual: Addr) {
        match &mut self.table {
            ComponentTable::Tagless(t) => match t.get_mut(idx) {
                Some(e) => {
                    e.apply(actual);
                }
                None => {
                    // ibp-lint: allow(L008, "insert into fixed-capacity component tables: evicts, never grows")
                    t.insert(idx, HysteresisEntry::new(actual));
                }
            },
            ComponentTable::Tagged(t) => {
                let tag = pc.raw() >> 2;
                match t.get_mut(idx, tag) {
                    Some(e) => {
                        e.apply(actual);
                    }
                    None => {
                        // ibp-lint: allow(L008, "insert into fixed-capacity component tables: evicts, never grows")
                        t.insert(idx, tag, HysteresisEntry::new(actual));
                    }
                }
            }
        }
    }

    fn observe_target(&mut self, target: Addr) {
        // ibp-lint: allow(L008, "PathHistory::push writes a fixed-depth ring, not Vec growth")
        self.phr.push(target.path_bits());
    }

    fn entries(&self) -> usize {
        match &self.table {
            ComponentTable::Tagless(t) => t.len(),
            ComponentTable::Tagged(t) => t.capacity(),
        }
    }

    fn occupancy(&self) -> usize {
        match &self.table {
            ComponentTable::Tagless(t) => t.occupancy(),
            ComponentTable::Tagged(t) => t.occupancy(),
        }
    }

    fn evictions(&self) -> u64 {
        match &self.table {
            ComponentTable::Tagless(t) => t.evictions(),
            ComponentTable::Tagged(t) => t.evictions(),
        }
    }
}

/// Configuration of a [`DualPath`] predictor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DualPathConfig {
    /// Entries per component table. Paper: 1024.
    pub entries_per_component: usize,
    /// Path lengths of the (short, long) components. Paper Dpath: (1, 3);
    /// Cascade core: (4, 6).
    pub path_lengths: (usize, usize),
    /// Width of each component's path history register. Paper: 24.
    pub phr_bits: u32,
    /// Tagged 4-way tables (Cascade core) vs tagless (Dpath baseline).
    pub tagged: bool,
    /// Associativity when tagged. Paper Cascade: 4.
    pub ways: usize,
    /// Entries in the selection-counter table. Paper: 1024.
    pub selector_entries: usize,
    /// Branch group feeding both history registers.
    pub group: HistoryGroup,
}

impl DualPathConfig {
    /// The paper's §5 tagless Dpath baseline (path lengths 1 and 3).
    pub fn paper() -> Self {
        Self {
            entries_per_component: 1024,
            path_lengths: (1, 3),
            phr_bits: 24,
            tagged: false,
            ways: 1,
            selector_entries: 1024,
            group: HistoryGroup::MtIndirect,
        }
    }

    /// The tagged core used inside the paper's Cascade predictor
    /// (4-way set-associative, true LRU, path lengths 4 and 6).
    pub fn cascade_core() -> Self {
        Self {
            entries_per_component: 1024,
            path_lengths: (4, 6),
            tagged: true,
            ways: 4,
            ..Self::paper()
        }
    }
}

/// The dual path-length hybrid.
///
/// # Examples
///
/// ```
/// use ibp_isa::Addr;
/// use ibp_predictors::{DualPath, DualPathConfig, IndirectPredictor};
///
/// let mut dp = DualPath::new(DualPathConfig::paper());
/// dp.update(Addr::new(0x40), Addr::new(0x900));
/// assert_eq!(dp.predict(Addr::new(0x40)), Some(Addr::new(0x900)));
/// ```
/// Component indices and predictions captured at fetch. The PHRs do not
/// move between `predict` and `update` (history is observed after
/// resolution), so `update` can reuse the indices instead of re-running
/// the interleaving hash.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DualLookup {
    idx_short: u64,
    idx_long: u64,
    pub(crate) short_pred: Option<Addr>,
    pub(crate) long_pred: Option<Addr>,
}

#[derive(Debug, Clone)]
pub struct DualPath {
    config: DualPathConfig,
    short: PathComponent,
    long: PathComponent,
    selectors: DirectMapped<Saturating2Bit>,
    /// Predictions captured by the last `predict` call, consumed by
    /// `update` to steer the selection counters.
    last: Option<(Addr, DualLookup)>,
}

impl DualPath {
    /// Creates a dual-path predictor from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if sizes are zero, if `tagged` with `ways` not dividing the
    /// entry count, or if a path length exceeds `phr_bits`.
    pub fn new(config: DualPathConfig) -> Self {
        assert!(config.entries_per_component > 0 && config.selector_entries > 0);
        let (ps, pl) = config.path_lengths;
        assert!(ps > 0 && pl >= ps, "path lengths must be 0 < short <= long");
        let ways = if config.tagged { config.ways } else { 1 };
        assert!(
            config.entries_per_component.is_multiple_of(ways),
            "ways must divide entries"
        );
        Self {
            short: PathComponent::new(
                config.entries_per_component,
                ways,
                ps,
                config.phr_bits,
                config.tagged,
            ),
            long: PathComponent::new(
                config.entries_per_component,
                ways,
                pl,
                config.phr_bits,
                config.tagged,
            ),
            selectors: DirectMapped::new(config.selector_entries),
            last: None,
            config,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &DualPathConfig {
        &self.config
    }

    fn selector_index(&self, pc: Addr) -> u64 {
        pc.raw() >> 2
    }

    /// True when the selection counter prefers the long-path component.
    fn prefers_long(&self, pc: Addr) -> bool {
        self.selectors
            .get(self.selector_index(pc))
            .map(|c| c.is_high_half())
            .unwrap_or(true)
    }

    /// Both component indices and predictions, for hybrid composition
    /// (Cascade) and for reuse at update time.
    pub(crate) fn lookup_components(&mut self, pc: Addr) -> DualLookup {
        let idx_short = self.short.index(pc);
        let idx_long = self.long.index(pc);
        DualLookup {
            idx_short,
            idx_long,
            short_pred: self.short.predict_at(idx_short, pc),
            long_pred: self.long.predict_at(idx_long, pc),
        }
    }

    /// Applies the resolved target to both components and the selector,
    /// given the lookup captured at fetch.
    pub(crate) fn apply(&mut self, pc: Addr, actual: Addr, lookup: &DualLookup) {
        let short_ok = lookup.short_pred == Some(actual);
        let long_ok = lookup.long_pred == Some(actual);
        let idx = self.selector_index(pc);
        let sel = self
            .selectors
            .get_or_insert_with(idx, Saturating2Bit::strongly_high);
        if long_ok && !short_ok {
            sel.increment();
        } else if short_ok && !long_ok {
            sel.decrement();
        }
        self.short.update_at(lookup.idx_short, pc, actual);
        self.long.update_at(lookup.idx_long, pc, actual);
    }

    fn cost_components(&self) -> HardwareCost {
        let tag_bits = if self.config.tagged { 30 } else { 0 };
        let entry_bits = 64 + 2 + 1 + tag_bits;
        HardwareCost::table(self.short.entries() as u64, entry_bits)
            + HardwareCost::table(self.long.entries() as u64, entry_bits)
            + HardwareCost::register(2 * self.config.phr_bits as u64)
    }
}

impl IndirectPredictor for DualPath {
    fn name(&self) -> String {
        let (s, l) = self.config.path_lengths;
        if self.config.tagged {
            // ibp-lint: allow(L008, "name() runs once per run for reporting, not per event")
            format!("Dpath-tagged(p={s},{l})")
        } else {
            // ibp-lint: allow(L008, "name() runs once per run for reporting, not per event")
            format!("Dpath(p={s},{l})")
        }
    }

    fn predict(&mut self, pc: Addr) -> Option<Addr> {
        let lookup = self.lookup_components(pc);
        self.last = Some((pc, lookup));
        if self.prefers_long(pc) {
            lookup.long_pred.or(lookup.short_pred)
        } else {
            lookup.short_pred.or(lookup.long_pred)
        }
    }

    fn update(&mut self, pc: Addr, actual: Addr) {
        let lookup = match self.last.take() {
            Some((last_pc, lookup)) if last_pc == pc => lookup,
            _ => self.lookup_components(pc),
        };
        self.apply(pc, actual, &lookup);
    }

    fn observe(&mut self, event: &BranchEvent) {
        if self.config.group.accepts(event) {
            self.short.observe_target(event.target());
            self.long.observe_target(event.target());
        }
    }

    fn cost(&self) -> HardwareCost {
        self.cost_components() + HardwareCost::register(2 * self.config.selector_entries as u64)
    }

    fn reset(&mut self) {
        *self = Self::new(self.config);
    }

    fn report_metrics(&self, sink: &mut dyn FnMut(&str, u64)) {
        sink("long_evictions", self.long.evictions());
        sink("long_occupancy", self.long.occupancy() as u64);
        sink("selector_occupancy", self.selectors.occupancy() as u64);
        sink("short_evictions", self.short.evictions());
        sink("short_occupancy", self.short.occupancy() as u64);
        sink(
            "table_entries",
            (self.short.entries() + self.long.entries()) as u64,
        );
        sink(
            "table_occupancy",
            (self.short.occupancy() + self.long.occupancy()) as u64,
        );
        sink(
            "table_evictions",
            self.short.evictions() + self.long.evictions(),
        );
    }

    declare_state! { self;
        "short" [
            Tag(if self.config.tagged { 30 } else { 0 }) tags,
            Target(64) targets,
            Counter(2) conf,
            Metadata(1) valid,
        ] => self.short.table;
        "short" [History(self.config.phr_bits as u64) phr] => self.short.phr;
        "long" [
            Tag(if self.config.tagged { 30 } else { 0 }) tags,
            Target(64) targets,
            Counter(2) conf,
            Metadata(1) valid,
        ] => self.long.table;
        "long" [History(self.config.phr_bits as u64) phr] => self.long.phr;
        "selectors" [Counter(2)] => self.selectors;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> DualPath {
        DualPath::new(DualPathConfig {
            entries_per_component: 128,
            selector_entries: 64,
            ..DualPathConfig::paper()
        })
    }

    fn drive(dp: &mut DualPath, pc: Addr, target: Addr) -> bool {
        let hit = dp.predict(pc) == Some(target);
        dp.update(pc, target);
        dp.observe(&BranchEvent::indirect_jmp(pc, target));
        hit
    }

    #[test]
    fn learns_short_path_branch() {
        // Target strictly follows the previous target (path length 1).
        let mut dp = tiny();
        let pc = Addr::new(0x100);
        let targets = [Addr::new(0xA04), Addr::new(0xB08), Addr::new(0xC0C)];
        let mut misses = 0;
        for i in 0..300 {
            let t = targets[i % 3];
            if !drive(&mut dp, pc, t) {
                misses += 1;
            }
        }
        assert!(misses < 40, "dual-path failed on cyclic pattern: {misses}");
    }

    #[test]
    fn learns_long_path_branch() {
        // Pattern needs 3 previous targets to disambiguate: A A B -> X,
        // A B A -> Y etc. Use a period-4 sequence over two targets.
        let mut dp = tiny();
        let pc = Addr::new(0x200);
        let seq = [0xA04u64, 0xA04, 0xB08, 0xB08];
        let mut misses = 0;
        for i in 0..400 {
            let t = Addr::new(seq[i % 4]);
            if !drive(&mut dp, pc, t) {
                misses += 1;
            }
        }
        assert!(
            misses < 60,
            "dual-path failed on period-4 pattern: {misses}"
        );
    }

    #[test]
    fn selector_moves_toward_correct_component() {
        let mut dp = tiny();
        let pc = Addr::new(0x40);
        let disagreement = |dp: &mut DualPath| DualLookup {
            idx_short: dp.short.index(pc),
            idx_long: dp.long.index(pc),
            short_pred: Some(Addr::new(0x1)),
            long_pred: Some(Addr::new(0x2)),
        };
        // Force disagreement: short right, long wrong.
        let l = disagreement(&mut dp);
        dp.apply(pc, Addr::new(0x1), &l);
        let v1 = dp.selectors.get(pc.raw() >> 2).unwrap().value();
        let l = disagreement(&mut dp);
        dp.apply(pc, Addr::new(0x1), &l);
        let v2 = dp.selectors.get(pc.raw() >> 2).unwrap().value();
        assert!(v2 <= v1 && v2 < 3, "selector should move toward short");
        // Long right, short wrong moves it back up.
        let l = disagreement(&mut dp);
        dp.apply(pc, Addr::new(0x2), &l);
        let v3 = dp.selectors.get(pc.raw() >> 2).unwrap().value();
        assert!(v3 > v2);
    }

    #[test]
    fn tagged_core_misses_without_allocation() {
        let mut dp = DualPath::new(DualPathConfig {
            entries_per_component: 64,
            selector_entries: 64,
            ..DualPathConfig::cascade_core()
        });
        assert_eq!(dp.predict(Addr::new(0x40)), None);
        dp.update(Addr::new(0x40), Addr::new(0x900));
        assert_eq!(dp.predict(Addr::new(0x40)), Some(Addr::new(0x900)));
        // A different PC mapping to the same set must not hit (tags!).
        assert_eq!(dp.predict(Addr::new(0x4000)), None);
    }

    #[test]
    fn paper_costs() {
        let dp = DualPath::new(DualPathConfig::paper());
        assert_eq!(dp.cost().entries(), 2048);
        let core = DualPath::new(DualPathConfig::cascade_core());
        assert_eq!(core.cost().entries(), 2048);
        assert!(core.cost().bits() > dp.cost().bits(), "tags cost bits");
    }

    #[test]
    fn reset_clears_everything() {
        let mut dp = tiny();
        drive(&mut dp, Addr::new(0x100), Addr::new(0xA0));
        dp.reset();
        assert_eq!(dp.predict(Addr::new(0x100)), None);
    }

    #[test]
    fn names() {
        assert_eq!(
            DualPath::new(DualPathConfig::paper()).name(),
            "Dpath(p=1,3)"
        );
        assert_eq!(
            DualPath::new(DualPathConfig::cascade_core()).name(),
            "Dpath-tagged(p=4,6)"
        );
    }

    #[test]
    #[should_panic(expected = "path lengths")]
    fn bad_path_lengths_panic() {
        let _ = DualPath::new(DualPathConfig {
            path_lengths: (3, 1),
            ..DualPathConfig::paper()
        });
    }
}
