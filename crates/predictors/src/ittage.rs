//! ITTAGE-lite — a modern epilogue.
//!
//! The PPM ideas in this paper (a stack of predictors over geometrically
//! related history lengths, longest-match-first with escape to shorter
//! contexts) directly prefigure the TAGE/ITTAGE family (Seznec & Michaud,
//! 2006; Seznec, 2011) that today's cores ship for indirect branches. This
//! module implements a compact ITTAGE so the lineage can be measured
//! against its 1998 ancestor at the same entry budget:
//!
//! * a base predictor (a small BTB);
//! * `N` *tagged* tables indexed by PC folded with geometrically longer
//!   slices of a global path history, each entry holding
//!   `{partial tag, target, 2-bit confidence, 1-bit useful}`;
//! * prediction from the longest-history tag hit (the *provider*), with
//!   the next hit (or base) as the alternate;
//! * the ITTAGE update rules, simplified: confidence hysteresis on the
//!   provider, usefulness tracking, and on a misprediction allocation
//!   into one longer table chosen deterministically, skipping useful
//!   entries.
//!
//! This is deliberately small (no u-bit aging epochs, no confidence-based
//! alt-pred arbitration table); it is an epilogue, not a tuned ITTAGE.

use crate::declare_state;
use crate::history_group::HistoryGroup;
use crate::traits::IndirectPredictor;
use ibp_hw::bitspec::StorageReport;
use ibp_hw::counter::Saturating2Bit;
use ibp_hw::persist::{load_sparse, save_sparse};
use ibp_hw::{
    FoldedHistory, HardwareCost, Part, Persist, PersistElem, PersistError, StateSink, StateSource,
};
use ibp_isa::Addr;
use ibp_trace::BranchEvent;
use std::ops::{Deref, DerefMut};

/// One tagged-table entry.
#[derive(Debug, Clone, Copy)]
struct TageEntry {
    tag: u16,
    target: Addr,
    confidence: Saturating2Bit,
    useful: bool,
}

impl PersistElem for TageEntry {
    fn save_elem(&self, out: &mut StateSink<'_>) {
        out.u64(u64::from(self.tag));
        out.u64(self.target.raw());
        self.confidence.save_elem(out);
        out.bool(self.useful);
    }

    fn load_elem(src: &mut StateSource<'_>) -> Result<Self, PersistError> {
        let tag =
            u16::try_from(src.u64()?).map_err(|_| PersistError::Corrupt("ITTAGE tag too wide"))?;
        Ok(Self {
            tag,
            target: Addr::new(src.u64()?),
            confidence: Saturating2Bit::load_elem(src)?,
            useful: src.bool()?,
        })
    }
}

/// The base BTB: one optional target per slot, persisted sparsely.
#[derive(Debug, Clone)]
struct BaseTargets(Vec<Option<Addr>>);

impl Deref for BaseTargets {
    type Target = Vec<Option<Addr>>;

    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl DerefMut for BaseTargets {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.0
    }
}

impl Persist for BaseTargets {
    fn save_state(&self, out: &mut StateSink<'_>) {
        save_sparse(self, out, |t, out| out.u64(t.raw()));
    }

    fn load_state(&mut self, src: &mut StateSource<'_>) -> Result<(), PersistError> {
        load_sparse(self, src, |src| Ok(Addr::new(src.u64()?)))
    }

    fn resident_bytes(&self) -> usize {
        self.capacity() * std::mem::size_of::<Option<Addr>>()
    }

    fn report_rows(&self, part: Part<'_>, r: &mut StorageReport) {
        part.emit_rows(self.len() as u64, r);
    }
}

/// One tagged component (its history window length lives in the matching
/// [`FoldedHistory`]).
#[derive(Debug, Clone)]
struct TageTable {
    entries: Vec<Option<TageEntry>>,
}

/// Configuration of [`Ittage`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IttageConfig {
    /// Entries in the base BTB.
    pub base_entries: usize,
    /// Entries per tagged table.
    pub table_entries: usize,
    /// Number of tagged tables.
    pub tables: usize,
    /// Shortest history length in *bits* of folded path history; each
    /// subsequent table doubles it.
    pub min_history_bits: u32,
    /// Partial tag width.
    pub tag_bits: u32,
    /// Branch group feeding the history.
    pub group: HistoryGroup,
}

impl IttageConfig {
    /// A configuration at the paper's ~2K-entry budget: a 512-entry base
    /// plus 4 tagged tables of 384 entries (2048 total), history lengths
    /// 8/16/32/64 bits.
    pub fn budget_2k() -> Self {
        Self {
            base_entries: 512,
            table_entries: 384,
            tables: 4,
            min_history_bits: 8,
            tag_bits: 10,
            group: HistoryGroup::AllIndirect,
        }
    }

    /// Total entries across base and tagged tables.
    pub fn total_entries(&self) -> usize {
        self.base_entries + self.tables * self.table_entries
    }
}

/// The ITTAGE-lite predictor.
///
/// # Examples
///
/// ```
/// use ibp_isa::Addr;
/// use ibp_predictors::{Ittage, IttageConfig, IndirectPredictor};
///
/// let mut p = Ittage::new(IttageConfig::budget_2k());
/// p.update(Addr::new(0x40), Addr::new(0x900));
/// assert_eq!(p.predict(Addr::new(0x40)), Some(Addr::new(0x900)));
/// ```
#[derive(Debug, Clone)]
pub struct Ittage {
    config: IttageConfig,
    base: BaseTargets,
    tables: Vec<TageTable>,
    /// One incrementally folded history per tagged table (geometrically
    /// longer windows; see `ibp_hw::folded`).
    folds: Vec<FoldedHistory>,
    /// Deterministic allocation tie-breaker.
    lfsr: u32,
    /// Lookup state from fetch: (pc, provider table or None=base,
    /// prediction).
    last: Option<(Addr, Option<usize>, Option<Addr>)>,
}

impl Ittage {
    /// Creates an ITTAGE from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if any size parameter is zero or the longest history exceeds
    /// 128 bits.
    pub fn new(config: IttageConfig) -> Self {
        assert!(config.base_entries > 0 && config.table_entries > 0 && config.tables > 0);
        assert!(config.tag_bits >= 4 && config.tag_bits <= 16);
        let longest = config.min_history_bits << (config.tables - 1);
        assert!(longest <= 128, "longest history exceeds 128 bits");
        Self {
            base: BaseTargets(vec![None; config.base_entries]),
            tables: (0..config.tables)
                .map(|_| TageTable {
                    entries: vec![None; config.table_entries],
                })
                .collect(),
            folds: (0..config.tables)
                .map(|i| {
                    // Each observed branch contributes 4 history bits; a
                    // table's window of `history_bits` therefore spans
                    // `history_bits / 4` events.
                    let events = ((config.min_history_bits << i) / 4).max(1) as usize;
                    FoldedHistory::new(16, 4, events)
                })
                .collect(),
            lfsr: 0xACE1,
            config,
            last: None,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &IttageConfig {
        &self.config
    }

    fn step_lfsr(&mut self) -> u32 {
        // 16-bit Fibonacci LFSR; deterministic allocation jitter.
        let bit = (self.lfsr ^ (self.lfsr >> 2) ^ (self.lfsr >> 3) ^ (self.lfsr >> 5)) & 1;
        self.lfsr = (self.lfsr >> 1) | (bit << 15);
        self.lfsr
    }

    // ibp-lint: allow(L007, "component index enumerates self.components; sizes validated nonzero")
    fn index_of(&self, table: usize, pc: Addr) -> usize {
        let folded = self.folds[table].folded();
        let salt = (table as u64 + 1).wrapping_mul(0xC2B2AE3D27D4EB4F);
        let mixed = (pc.raw() >> 2) ^ folded ^ (folded << 3) ^ salt;
        (mixed % self.config.table_entries as u64) as usize
    }

    // ibp-lint: allow(L007, "component index enumerates self.components")
    fn tag_of(&self, table: usize, pc: Addr) -> u16 {
        let folded = self.folds[table].folded();
        let mixed = (pc.raw() >> 2)
            .wrapping_mul(0x9E3779B9)
            .wrapping_add(folded.rotate_left(7));
        (mixed & ((1 << self.config.tag_bits) - 1)) as u16
    }

    // ibp-lint: allow(L007, "`% base.len()` with the base table validated nonempty")
    fn base_index(&self, pc: Addr) -> usize {
        ((pc.raw() >> 2) % self.config.base_entries as u64) as usize
    }

    /// (provider table index, prediction) — provider None means base.
    // ibp-lint: allow(L007, "indices come from index_of, already reduced mod the table size")
    fn lookup(&self, pc: Addr) -> (Option<usize>, Option<Addr>) {
        for t in (0..self.tables.len()).rev() {
            let idx = self.index_of(t, pc);
            if let Some(e) = &self.tables[t].entries[idx] {
                if e.tag == self.tag_of(t, pc) {
                    return (Some(t), Some(e.target));
                }
            }
        }
        (None, self.base[self.base_index(pc)])
    }

    // ibp-lint: allow(L007, "component indices enumerate self.components; entries indexed via index_of")
    fn allocate_above(&mut self, provider: Option<usize>, pc: Addr, actual: Addr) {
        let start = provider.map(|p| p + 1).unwrap_or(0);
        if start >= self.tables.len() {
            return;
        }
        // Pick the starting candidate with deterministic jitter, then take
        // the first non-useful slot scanning upward.
        let span = self.tables.len() - start;
        let first = start + (self.step_lfsr() as usize) % span;
        // ibp-lint: allow(L008, "scratch vector bounded by the component count; built only on allocation events")
        let order: Vec<usize> = (first..self.tables.len()).chain(start..first).collect();
        for t in order {
            let idx = self.index_of(t, pc);
            let tag = self.tag_of(t, pc);
            let slot = &mut self.tables[t].entries[idx];
            match slot {
                Some(e) if e.useful => continue,
                _ => {
                    *slot = Some(TageEntry {
                        tag,
                        target: actual,
                        confidence: Saturating2Bit::new(1),
                        useful: false,
                    });
                    return;
                }
            }
        }
        // Everything useful: decay one candidate's useful bit so the table
        // cannot wedge permanently.
        let t = first;
        let idx = self.index_of(t, pc);
        if let Some(e) = &mut self.tables[t].entries[idx] {
            e.useful = false;
        }
    }
}

impl IndirectPredictor for Ittage {
    fn name(&self) -> String {
        // ibp-lint: allow(L008, "name() runs once per run for reporting, not per event")
        format!("ITTAGE-lite({})", self.config.tables)
    }

    fn predict(&mut self, pc: Addr) -> Option<Addr> {
        let (provider, prediction) = self.lookup(pc);
        self.last = Some((pc, provider, prediction));
        prediction
    }

    // ibp-lint: allow(L007, "provider/alt component ids were produced by this predictor's own lookup")
    fn update(&mut self, pc: Addr, actual: Addr) {
        let (provider, prediction) = match self.last.take() {
            Some((last_pc, p, pr)) if last_pc == pc => (p, pr),
            _ => self.lookup(pc),
        };
        let correct = prediction == Some(actual);
        match provider {
            Some(t) => {
                let idx = self.index_of(t, pc);
                // Alternate prediction (what we'd have said without the
                // provider) decides usefulness.
                let alt = {
                    let mut alt = self.base[self.base_index(pc)];
                    for lower in (0..t).rev() {
                        let li = self.index_of(lower, pc);
                        if let Some(e) = &self.tables[lower].entries[li] {
                            if e.tag == self.tag_of(lower, pc) {
                                alt = Some(e.target);
                                break;
                            }
                        }
                    }
                    alt
                };
                if let Some(e) = &mut self.tables[t].entries[idx] {
                    if correct {
                        e.confidence.increment();
                        if alt != Some(actual) {
                            e.useful = true;
                        }
                    } else if e.confidence.value() == 0 {
                        e.target = actual;
                        e.confidence.set(1);
                        e.useful = false;
                    } else {
                        e.confidence.decrement();
                    }
                }
            }
            None => {
                let idx = self.base_index(pc);
                self.base[idx] = Some(actual);
            }
        }
        if !correct {
            self.allocate_above(provider, pc, actual);
        }
    }

    fn observe(&mut self, event: &BranchEvent) {
        if self.config.group.accepts(event) {
            // Each branch contributes 4 target bits to every window.
            let chunk = event.target().path_bits() & 0xF;
            for f in self.folds.iter_mut() {
                // ibp-lint: allow(L008, "FoldedHistory::push writes a bounded ring, not Vec growth")
                f.push(chunk);
            }
        }
    }

    fn cost(&self) -> HardwareCost {
        let base = HardwareCost::table(self.config.base_entries as u64, 64 + 1);
        let tagged = HardwareCost::table(
            (self.config.tables * self.config.table_entries) as u64,
            64 + self.config.tag_bits as u64 + 2 + 1 + 1,
        );
        base + tagged + HardwareCost::register(128)
    }

    fn reset(&mut self) {
        *self = Self::new(self.config);
    }

    declare_state! { self;
        guard self.config.base_entries as u64, "ITTAGE base entries";
        guard self.config.table_entries as u64, "ITTAGE table entries";
        guard self.config.tables as u64, "ITTAGE table count";
        guard u64::from(self.config.min_history_bits), "ITTAGE min history bits";
        guard u64::from(self.config.tag_bits), "ITTAGE tag bits";
        guard self.config.group.code(), "ITTAGE history group";
        "lfsr" [] => self.lfsr;
        "base" [Target(64) targets, Metadata(1) valid] => self.base;
        for t in (0..self.tables.len()) {
            "tagged"(t) [
                Tag(u64::from(self.config.tag_bits)) tags,
                Target(64) targets,
                Counter(2) conf,
                Useful(1) useful,
                Metadata(1) valid,
            ] => self.tables[t].entries;
        }
        check self.tables.iter().flat_map(|t| t.entries.iter().flatten())
            .all(|e| u64::from(e.tag) >> self.config.tag_bits == 0), "ITTAGE tag too wide";
        // The folds share one 128-bit history budget, charged once.
        for f in (0..self.folds.len()) {
            "folds" [History(if f == 0 { 128 } else { 0 })] => self.folds[f];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PredictorState;

    fn drive(p: &mut Ittage, pc: Addr, target: Addr) -> bool {
        let hit = p.predict(pc) == Some(target);
        p.update(pc, target);
        p.observe(&BranchEvent::indirect_jmp(pc, target));
        hit
    }

    #[test]
    fn learns_monomorphic_branch_in_base() {
        let mut p = Ittage::new(IttageConfig::budget_2k());
        let pc = Addr::new(0x40);
        let t = Addr::new(0x904);
        let mut misses = 0;
        for i in 0..50 {
            if !drive(&mut p, pc, t) && i > 0 {
                misses += 1;
            }
        }
        assert_eq!(misses, 0);
    }

    #[test]
    fn learns_cyclic_pattern_through_tagged_tables() {
        let mut p = Ittage::new(IttageConfig::budget_2k());
        let pc = Addr::new(0x100);
        let targets = [Addr::new(0xA04), Addr::new(0xB08), Addr::new(0xC0C)];
        let mut late_misses = 0;
        for i in 0..900 {
            let t = targets[i % 3];
            if !drive(&mut p, pc, t) && i > 300 {
                late_misses += 1;
            }
        }
        assert!(late_misses < 30, "ITTAGE failed cycle: {late_misses}");
    }

    #[test]
    fn learns_deep_history_pattern() {
        // Period-9 token stream over 3 targets: needs more than one step
        // of context.
        let seq = [0usize, 0, 1, 2, 1, 0, 2, 2, 1];
        let targets = [Addr::new(0xA04), Addr::new(0xB08), Addr::new(0xC0C)];
        let mut p = Ittage::new(IttageConfig::budget_2k());
        let pc = Addr::new(0x200);
        let mut late_misses = 0;
        for i in 0..1800 {
            let t = targets[seq[i % 9]];
            if !drive(&mut p, pc, t) && i > 900 {
                late_misses += 1;
            }
        }
        assert!(late_misses < 45, "ITTAGE failed period-9: {late_misses}");
    }

    #[test]
    fn budget_and_name() {
        let p = Ittage::new(IttageConfig::budget_2k());
        assert_eq!(p.cost().entries(), 2048);
        assert_eq!(p.name(), "ITTAGE-lite(4)");
        assert_eq!(IttageConfig::budget_2k().total_entries(), 2048);
    }

    #[test]
    fn reset_restores_cold() {
        let mut p = Ittage::new(IttageConfig::budget_2k());
        drive(&mut p, Addr::new(0x40), Addr::new(0x904));
        p.reset();
        assert_eq!(p.predict(Addr::new(0x40)), None);
    }

    #[test]
    fn persist_round_trip_restores_behaviour() {
        let mut p = Ittage::new(IttageConfig::budget_2k());
        for i in 0..700u64 {
            let pc = Addr::new(0x100 + (i % 9) * 4);
            let t = Addr::new(0x1000 + ((i * 7) % 5) * 0x40 + 4);
            drive(&mut p, pc, t);
        }
        let mut blob = Vec::new();
        p.save_state(&mut ibp_hw::StateSink::new(&mut blob));
        let mut q = Ittage::new(IttageConfig::budget_2k());
        q.load_state(&mut ibp_hw::StateSource::new(&blob)).unwrap();
        // Continue both and demand identical predictions (incl. allocation
        // jitter via the restored LFSR).
        for i in 0..700u64 {
            let pc = Addr::new(0x100 + (i % 9) * 4);
            let t = Addr::new(0x1000 + ((i * 11) % 5) * 0x40 + 4);
            assert_eq!(p.predict(pc), q.predict(pc));
            p.update(pc, t);
            q.update(pc, t);
            let ev = BranchEvent::indirect_jmp(pc, t);
            p.observe(&ev);
            q.observe(&ev);
        }
        // Geometry guards: a different configuration must refuse the blob.
        let mut other = Ittage::new(IttageConfig {
            tables: 2,
            ..IttageConfig::budget_2k()
        });
        assert!(other
            .load_state(&mut ibp_hw::StateSource::new(&blob))
            .is_err());
        assert!(p.resident_bytes() > 0);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut p = Ittage::new(IttageConfig::budget_2k());
            let mut misses = 0;
            for i in 0..500u64 {
                let pc = Addr::new(0x100 + (i % 7) * 4);
                let t = Addr::new(0x1000 + ((i * i) % 5) * 0x40 + 4);
                if !drive(&mut p, pc, t) {
                    misses += 1;
                }
            }
            misses
        };
        assert_eq!(run(), run());
    }
}
