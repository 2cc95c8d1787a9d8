//! The Target Cache (Chang, Hao & Patt, ISCA 1997).
//!
//! A single tagless table indexed by gshare of the branch PC with a path
//! history whose *feeding group* is selectable — the Target Cache's key
//! insight was that different programs correlate with different branch
//! streams. The paper's §5 baseline is **TC-PIB**: a 2K-entry tagless
//! target cache with an 11-bit history of previous *indirect-branch*
//! targets (2 low-order bits each; the oldest target contributes one bit).

use crate::declare_state;
use crate::entry::HysteresisEntry;
use crate::history_group::HistoryGroup;
use crate::traits::IndirectPredictor;
use ibp_hw::{DirectMapped, HardwareCost, PathHistory};
use ibp_isa::Addr;
use ibp_trace::BranchEvent;

/// Configuration of a [`TargetCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TargetCacheConfig {
    /// Table entries. Paper: 2048.
    pub entries: usize,
    /// History bits used in the gshare index. Paper: 11.
    pub history_bits: u32,
    /// Low-order bits recorded per target. Paper: 2.
    pub bits_per_target: u8,
    /// Branch group feeding the history. Paper: PIB (all indirect).
    pub group: HistoryGroup,
    /// Whether entries carry 2-bit replacement hysteresis. The paper's TC
    /// configuration lists no counters; plain replace is the default.
    pub hysteresis: bool,
}

impl TargetCacheConfig {
    /// The paper's §5 TC-PIB configuration.
    pub fn paper_pib() -> Self {
        Self {
            entries: 2048,
            history_bits: 11,
            bits_per_target: 2,
            group: HistoryGroup::AllIndirect,
            hysteresis: false,
        }
    }

    /// A PB-history variant at the same budget (used by the ablations).
    pub fn paper_pb() -> Self {
        Self {
            group: HistoryGroup::AllBranches,
            ..Self::paper_pib()
        }
    }

    /// Number of targets the history register must retain.
    fn path_depth(&self) -> usize {
        (self.history_bits as usize).div_ceil(self.bits_per_target as usize)
    }
}

/// The Target Cache predictor.
///
/// # Examples
///
/// ```
/// use ibp_isa::Addr;
/// use ibp_predictors::{IndirectPredictor, TargetCache, TargetCacheConfig};
///
/// let mut tc = TargetCache::new(TargetCacheConfig::paper_pib());
/// tc.update(Addr::new(0x40), Addr::new(0x900));
/// assert_eq!(tc.predict(Addr::new(0x40)), Some(Addr::new(0x900)));
/// ```
#[derive(Debug, Clone)]
pub struct TargetCache {
    config: TargetCacheConfig,
    table: DirectMapped<HysteresisEntry>,
    phr: PathHistory,
}

impl TargetCache {
    /// Creates a Target Cache from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if `entries` or `history_bits` is zero.
    pub fn new(config: TargetCacheConfig) -> Self {
        assert!(config.entries > 0 && config.history_bits > 0);
        Self {
            table: DirectMapped::new(config.entries),
            phr: PathHistory::new(config.path_depth(), config.bits_per_target),
            config,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &TargetCacheConfig {
        &self.config
    }

    fn index_of(&self, pc: Addr) -> u64 {
        let history = self.phr.packed_bits(self.config.history_bits);
        let index_bits = if self.config.entries.is_power_of_two() {
            (self.config.entries as u64).trailing_zeros()
        } else {
            63
        };
        ibp_hw::gshare(pc.raw() >> 2, history, index_bits)
    }
}

impl IndirectPredictor for TargetCache {
    fn name(&self) -> String {
        // ibp-lint: allow(L008, "name() runs once per run for reporting, not per event")
        format!("TC-{}", self.config.group)
    }

    fn predict(&mut self, pc: Addr) -> Option<Addr> {
        self.table.get(self.index_of(pc)).map(|e| e.target())
    }

    fn update(&mut self, pc: Addr, actual: Addr) {
        let idx = self.index_of(pc);
        let hysteresis = self.config.hysteresis;
        match self.table.get_mut(idx) {
            Some(e) => {
                if hysteresis {
                    e.apply(actual);
                } else {
                    e.apply_always_replace(actual);
                }
            }
            None => {
                // ibp-lint: allow(L008, "allocation on first touch of a masked slot; bounded by the fixed index space")
                self.table.insert(idx, HysteresisEntry::new(actual));
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
        let entry_bits = 64 + 1 + if self.config.hysteresis { 2 } else { 0 };
        HardwareCost::table(self.config.entries as u64, entry_bits)
            + HardwareCost::register(self.config.history_bits as u64)
    }

    fn reset(&mut self) {
        *self = Self::new(self.config);
    }

    fn report_metrics(&self, sink: &mut dyn FnMut(&str, u64)) {
        sink("table_entries", self.table.len() as u64);
        sink("table_occupancy", self.table.occupancy() as u64);
        sink("table_evictions", self.table.evictions());
    }

    declare_state! { self;
        "tc" [
            Target(64) targets,
            Counter(if self.config.hysteresis { 2 } else { 0 }) conf,
            Metadata(1) valid,
        ] => self.table;
        "phr" [History(self.config.history_bits as u64)] => self.phr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(group: HistoryGroup) -> TargetCache {
        TargetCache::new(TargetCacheConfig {
            entries: 256,
            history_bits: 8,
            bits_per_target: 2,
            group,
            hysteresis: false,
        })
    }

    #[test]
    fn learns_pib_correlated_branch() {
        // Target of site X depends on which of two *other* indirect
        // branches executed last — classic PIB correlation.
        let mut tc = small(HistoryGroup::AllIndirect);
        let site = Addr::new(0x500);
        let pre = [Addr::new(0x100), Addr::new(0x200)];
        let outs = [Addr::new(0xA00), Addr::new(0xB00)];
        let mut misses = 0;
        for i in 0..300usize {
            let k = (i / 3) % 2;
            // A predecessor indirect branch fires and shifts history.
            tc.observe(&BranchEvent::indirect_jmp(
                pre[k],
                Addr::new(0x700 + k as u64 * 4),
            ));
            if tc.predict(site) != Some(outs[k]) {
                misses += 1;
            }
            tc.update(site, outs[k]);
            tc.observe(&BranchEvent::indirect_jsr(site, outs[k]));
        }
        assert!(misses < 30, "TC-PIB failed to learn correlation: {misses}");
    }

    #[test]
    fn pib_history_ignores_conditionals() {
        let mut tc = small(HistoryGroup::AllIndirect);
        let h0 = tc.phr.packed();
        tc.observe(&BranchEvent::cond_taken(Addr::new(0x10), Addr::new(0x20)));
        assert_eq!(tc.phr.packed(), h0);
        // ...but PIB includes returns and ST calls, unlike the MT group.
        tc.observe(&BranchEvent::ret(Addr::new(0x30), Addr::new(0x14)));
        assert_ne!(tc.phr.packed(), h0);
    }

    #[test]
    fn pb_history_includes_conditionals() {
        let mut tc = small(HistoryGroup::AllBranches);
        let h0 = tc.phr.packed();
        tc.observe(&BranchEvent::cond_taken(Addr::new(0x10), Addr::new(0x24)));
        assert_ne!(tc.phr.packed(), h0);
    }

    #[test]
    fn paper_config_depth_covers_11_bits() {
        let c = TargetCacheConfig::paper_pib();
        assert_eq!(c.path_depth(), 6); // 6 targets x 2 bits >= 11 bits
        let tc = TargetCache::new(c);
        assert_eq!(tc.cost().entries(), 2048);
    }

    #[test]
    fn no_hysteresis_replaces_immediately() {
        let mut tc = small(HistoryGroup::AllIndirect);
        let pc = Addr::new(0x40);
        tc.update(pc, Addr::new(0x100));
        tc.update(pc, Addr::new(0x200));
        assert_eq!(tc.predict(pc), Some(Addr::new(0x200)));
    }

    #[test]
    fn hysteresis_variant_delays_replacement() {
        let mut tc = TargetCache::new(TargetCacheConfig {
            hysteresis: true,
            ..TargetCacheConfig::paper_pib()
        });
        let pc = Addr::new(0x40);
        tc.update(pc, Addr::new(0x100));
        tc.update(pc, Addr::new(0x200));
        assert_eq!(tc.predict(pc), Some(Addr::new(0x100)));
    }

    #[test]
    fn names_follow_group() {
        assert_eq!(small(HistoryGroup::AllIndirect).name(), "TC-PIB");
        assert_eq!(small(HistoryGroup::AllBranches).name(), "TC-PB");
    }

    #[test]
    fn reset_clears_table_and_history() {
        let mut tc = small(HistoryGroup::AllIndirect);
        tc.update(Addr::new(0x40), Addr::new(0x100));
        tc.observe(&BranchEvent::indirect_jmp(
            Addr::new(0x40),
            Addr::new(0x100),
        ));
        tc.reset();
        assert_eq!(tc.predict(Addr::new(0x40)), None);
        assert_eq!(tc.phr.packed(), 0);
    }
}
