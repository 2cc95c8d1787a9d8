//! The GAp two-level indirect predictor (Driesen & Hölzle).
//!
//! GAp = **G**lobal history register, per-**A**ddress **p**attern history
//! tables: a single path history register shared by all branches, and a
//! small bank of PHTs selected by branch address bits. The paper's §5
//! configuration is two tagless 1K-entry PHTs, a 10-bit path history
//! register recording the 2 low-order bits of each of the last 5 targets,
//! gshare indexing, and a 2-bit update counter per entry.

use crate::declare_state;
use crate::entry::HysteresisEntry;
use crate::history_group::HistoryGroup;
use crate::traits::IndirectPredictor;
use ibp_hw::{gshare, DirectMapped, HardwareCost, PathHistory};
use ibp_isa::Addr;
use ibp_trace::BranchEvent;

/// Configuration of a [`GApPredictor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GApConfig {
    /// Number of PHT banks (selected by low PC bits). Paper: 2.
    pub banks: usize,
    /// Entries per PHT bank. Paper: 1024.
    pub entries_per_bank: usize,
    /// Targets recorded in the history register. Paper: 5.
    pub path_length: usize,
    /// Low-order bits recorded per target. Paper: 2.
    pub bits_per_target: u8,
    /// Branch group feeding the history register. Paper: the MT `jsr`/`jmp`
    /// stream.
    pub group: HistoryGroup,
}

impl GApConfig {
    /// The paper's §5 configuration (2 × 1K entries, 10-bit PHR).
    pub fn paper() -> Self {
        Self {
            banks: 2,
            entries_per_bank: 1024,
            path_length: 5,
            bits_per_target: 2,
            group: HistoryGroup::MtIndirect,
        }
    }

    /// Total entries across banks.
    pub fn total_entries(&self) -> usize {
        self.banks * self.entries_per_bank
    }
}

/// The GAp predictor.
///
/// # Examples
///
/// ```
/// use ibp_isa::Addr;
/// use ibp_predictors::{GApConfig, GApPredictor, IndirectPredictor};
///
/// let mut gap = GApPredictor::new(GApConfig::paper());
/// gap.update(Addr::new(0x40), Addr::new(0x900));
/// assert_eq!(gap.predict(Addr::new(0x40)), Some(Addr::new(0x900)));
/// ```
#[derive(Debug, Clone)]
pub struct GApPredictor {
    config: GApConfig,
    banks: Vec<DirectMapped<HysteresisEntry>>,
    phr: PathHistory,
}

impl GApPredictor {
    /// Creates a GAp predictor from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if any size parameter is zero.
    pub fn new(config: GApConfig) -> Self {
        assert!(config.banks > 0 && config.entries_per_bank > 0);
        Self {
            banks: (0..config.banks)
                .map(|_| DirectMapped::new(config.entries_per_bank))
                .collect(),
            phr: PathHistory::new(config.path_length, config.bits_per_target),
            config,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &GApConfig {
        &self.config
    }

    // ibp-lint: allow(L007, "`% banks` with banks validated nonzero at construction")
    fn bank_of(&self, pc: Addr) -> usize {
        ((pc.raw() >> 2) % self.config.banks as u64) as usize
    }

    fn index_of(&self, pc: Addr) -> u64 {
        let bits = (self.config.entries_per_bank as u64)
            .trailing_zeros()
            .max(1);
        let idx_bits = if self.config.entries_per_bank.is_power_of_two() {
            bits
        } else {
            // Non-power-of-two banks fall back to modulo in DirectMapped.
            63
        };
        gshare(
            pc.raw() >> 2 >> (self.config.banks as u64).trailing_zeros(),
            self.phr.packed(),
            idx_bits,
        )
    }
}

impl IndirectPredictor for GApPredictor {
    fn name(&self) -> String {
        // ibp-lint: allow(L008, "name() runs once per run for reporting, not per event")
        format!("GAp(p={})", self.config.path_length)
    }

    // ibp-lint: allow(L007, "bank_of returns an index below banks.len()")
    fn predict(&mut self, pc: Addr) -> Option<Addr> {
        let bank = self.bank_of(pc);
        let idx = self.index_of(pc);
        self.banks[bank].get(idx).map(|e| e.target())
    }

    // ibp-lint: allow(L007, "bank_of returns an index below banks.len()")
    fn update(&mut self, pc: Addr, actual: Addr) {
        let bank = self.bank_of(pc);
        let idx = self.index_of(pc);
        match self.banks[bank].get_mut(idx) {
            Some(e) => {
                e.apply(actual);
            }
            None => {
                // ibp-lint: allow(L008, "allocation on first touch of a masked bank slot; bounded by the fixed index space")
                self.banks[bank].insert(idx, HysteresisEntry::new(actual));
            }
        }
    }

    fn observe(&mut self, event: &BranchEvent) {
        if self.config.group.accepts(event) {
            // ibp-lint: allow(L008, "PathHistory::push writes a fixed-depth ring, not Vec growth")
            self.phr.push(event.target().path_bits());
        }
    }

    fn cost(&self) -> HardwareCost {
        // per entry: target + 2-bit counter + valid
        HardwareCost::table(self.config.total_entries() as u64, 64 + 2 + 1)
            + HardwareCost::register(self.phr.total_bits() as u64)
    }

    fn reset(&mut self) {
        *self = Self::new(self.config);
    }

    fn report_metrics(&self, sink: &mut dyn FnMut(&str, u64)) {
        sink("table_entries", self.banks.iter().map(|b| b.len() as u64).sum());
        sink(
            "table_occupancy",
            self.banks.iter().map(|b| b.occupancy() as u64).sum(),
        );
        sink(
            "table_evictions",
            self.banks.iter().map(|b| b.evictions()).sum(),
        );
    }

    declare_state! { self;
        guard self.banks.len() as u64, "GAp bank count";
        for b in (0..self.banks.len()) {
            "pht"(b) [Target(64) targets, Counter(2) conf, Metadata(1) valid] => self.banks[b];
        }
        "phr" [History(self.phr.total_bits() as u64)] => self.phr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> GApPredictor {
        GApPredictor::new(GApConfig {
            banks: 2,
            entries_per_bank: 64,
            path_length: 3,
            bits_per_target: 2,
            group: HistoryGroup::MtIndirect,
        })
    }

    #[test]
    fn learns_path_dependent_targets() {
        // One branch whose target strictly follows the previous target:
        // after path A the branch goes to B, after B it goes to A.
        let mut gap = small();
        let pc = Addr::new(0x100);
        let a = Addr::new(0xA04);
        let b = Addr::new(0xB08);
        let mut misses = 0;
        let mut prev = a;
        for i in 0..200 {
            let next = if prev == a { b } else { a };
            if gap.predict(pc) != Some(next) {
                misses += 1;
            }
            gap.update(pc, next);
            gap.observe(&BranchEvent::indirect_jmp(pc, next));
            prev = next;
            // A plain BTB would miss every time; GAp converges.
            if i > 50 {
                assert!(misses <= 10, "GAp failed to learn alternation");
            }
        }
    }

    #[test]
    fn history_group_filters_observations() {
        let mut gap = small();
        let before = gap.phr.packed();
        gap.observe(&BranchEvent::cond_taken(Addr::new(0x10), Addr::new(0x37)));
        assert_eq!(
            gap.phr.packed(),
            before,
            "conditional must not shift MT history"
        );
        gap.observe(&BranchEvent::indirect_jmp(Addr::new(0x10), Addr::new(0x37)));
        assert_ne!(gap.phr.packed(), before);
    }

    #[test]
    fn banks_partition_by_pc() {
        let gap = small();
        assert_ne!(gap.bank_of(Addr::new(0x100)), gap.bank_of(Addr::new(0x104)));
        assert_eq!(gap.bank_of(Addr::new(0x100)), gap.bank_of(Addr::new(0x108)));
    }

    #[test]
    fn paper_config_budget() {
        let gap = GApPredictor::new(GApConfig::paper());
        assert_eq!(gap.cost().entries(), 2048);
        assert_eq!(GApConfig::paper().total_entries(), 2048);
    }

    #[test]
    fn reset_restores_cold_state() {
        let mut gap = small();
        gap.update(Addr::new(0x40), Addr::new(0x900));
        gap.reset();
        assert_eq!(gap.predict(Addr::new(0x40)), None);
    }

    #[test]
    fn name_mentions_path_length() {
        assert_eq!(GApPredictor::new(GApConfig::paper()).name(), "GAp(p=5)");
    }
}
