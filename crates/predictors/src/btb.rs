//! Branch target buffers: the simplest indirect predictors.
//!
//! * [`Btb`] — Lee & Smith's baseline: a tagless table caching the most
//!   recent target per (aliased) branch; every misprediction replaces the
//!   target.
//! * [`Btb2b`] — Calder & Grunwald's refinement: a 2-bit counter per entry
//!   delays replacement until two consecutive mispredictions, exploiting
//!   the target locality of C++ virtual calls.
//!
//! The paper's Figure 6 shows both to be far behind path-based schemes —
//! reproducing *that* gap is as much a result as the PPM numbers.

use crate::declare_state;
use crate::entry::HysteresisEntry;
use crate::traits::IndirectPredictor;
use ibp_hw::{DirectMapped, HardwareCost};
use ibp_isa::Addr;
use ibp_trace::BranchEvent;

/// Paper configuration: 64-bit targets.
const TARGET_BITS: u64 = 64;

/// A tagless BTB storing the most recent target of each indirect branch.
///
/// # Examples
///
/// ```
/// use ibp_isa::Addr;
/// use ibp_predictors::{Btb, IndirectPredictor};
///
/// let mut btb = Btb::new(2048);
/// assert_eq!(btb.predict(Addr::new(0x40)), None);
/// btb.update(Addr::new(0x40), Addr::new(0x900));
/// assert_eq!(btb.predict(Addr::new(0x40)), Some(Addr::new(0x900)));
/// ```
#[derive(Debug, Clone)]
pub struct Btb {
    table: DirectMapped<HysteresisEntry>,
}

impl Btb {
    /// Creates a tagless BTB with `entries` entries (the paper uses 2048).
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero.
    pub fn new(entries: usize) -> Self {
        Self {
            table: DirectMapped::new(entries),
        }
    }

    fn index(pc: Addr) -> u64 {
        // Alpha instructions are 4-byte aligned; drop the dead bits so
        // consecutive branches use consecutive slots.
        pc.raw() >> 2
    }
}

impl IndirectPredictor for Btb {
    fn name(&self) -> String {
        "BTB".into()
    }

    fn predict(&mut self, pc: Addr) -> Option<Addr> {
        self.table.get(Self::index(pc)).map(|e| e.target())
    }

    fn update(&mut self, pc: Addr, actual: Addr) {
        let idx = Self::index(pc);
        match self.table.get_mut(idx) {
            Some(e) => {
                e.apply_always_replace(actual);
            }
            None => {
                // ibp-lint: allow(L008, "allocation on first touch of a masked slot; bounded by the fixed index space")
                self.table.insert(idx, HysteresisEntry::new(actual));
            }
        }
    }

    fn observe(&mut self, _event: &BranchEvent) {}

    fn cost(&self) -> HardwareCost {
        // target + valid bit per entry
        HardwareCost::table(self.table.len() as u64, TARGET_BITS + 1)
    }

    fn reset(&mut self) {
        *self = Self::new(self.table.len());
    }

    fn report_metrics(&self, sink: &mut dyn FnMut(&str, u64)) {
        sink("table_entries", self.table.len() as u64);
        sink("table_occupancy", self.table.occupancy() as u64);
        sink("table_evictions", self.table.evictions());
    }

    declare_state! { self;
        "btb" [Target(TARGET_BITS) targets, Metadata(1) valid] => self.table;
    }
}

/// A tagless BTB whose targets are replaced only after two consecutive
/// mispredictions (2-bit hysteresis per entry).
#[derive(Debug, Clone)]
pub struct Btb2b {
    table: DirectMapped<HysteresisEntry>,
}

impl Btb2b {
    /// Creates a tagless BTB2b with `entries` entries.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero.
    pub fn new(entries: usize) -> Self {
        Self {
            table: DirectMapped::new(entries),
        }
    }
}

impl IndirectPredictor for Btb2b {
    fn name(&self) -> String {
        "BTB2b".into()
    }

    fn predict(&mut self, pc: Addr) -> Option<Addr> {
        self.table.get(Btb::index(pc)).map(|e| e.target())
    }

    fn update(&mut self, pc: Addr, actual: Addr) {
        let idx = Btb::index(pc);
        match self.table.get_mut(idx) {
            Some(e) => {
                e.apply(actual);
            }
            None => {
                // ibp-lint: allow(L008, "allocation on first touch of a masked slot; bounded by the fixed index space")
                self.table.insert(idx, HysteresisEntry::new(actual));
            }
        }
    }

    fn observe(&mut self, _event: &BranchEvent) {}

    fn cost(&self) -> HardwareCost {
        // target + 2-bit counter + valid bit per entry
        HardwareCost::table(self.table.len() as u64, TARGET_BITS + 2 + 1)
    }

    fn reset(&mut self) {
        *self = Self::new(self.table.len());
    }

    fn report_metrics(&self, sink: &mut dyn FnMut(&str, u64)) {
        sink("table_entries", self.table.len() as u64);
        sink("table_occupancy", self.table.occupancy() as u64);
        sink("table_evictions", self.table.evictions());
    }

    declare_state! { self;
        "btb2b" [Target(TARGET_BITS) targets, Counter(2) conf, Metadata(1) valid] => self.table;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn btb_replaces_on_every_miss() {
        let mut b = Btb::new(16);
        b.update(Addr::new(0x40), Addr::new(0x100));
        b.update(Addr::new(0x40), Addr::new(0x200));
        assert_eq!(b.predict(Addr::new(0x40)), Some(Addr::new(0x200)));
    }

    #[test]
    fn btb2b_needs_two_misses_to_replace() {
        let mut b = Btb2b::new(16);
        b.update(Addr::new(0x40), Addr::new(0x100));
        b.update(Addr::new(0x40), Addr::new(0x200)); // miss 1: kept
        assert_eq!(b.predict(Addr::new(0x40)), Some(Addr::new(0x100)));
        b.update(Addr::new(0x40), Addr::new(0x200)); // miss 2: replaced
        assert_eq!(b.predict(Addr::new(0x40)), Some(Addr::new(0x200)));
    }

    #[test]
    fn btb2b_wins_on_flicker_pattern() {
        // A branch that goes A A A B A A A B ...: the BTB mispredicts the
        // B and the following A (2 per period); BTB2b only mispredicts the
        // B (1 per period). This is the C++ target-locality effect.
        let a = Addr::new(0xA00);
        let b = Addr::new(0xB00);
        let pattern: Vec<Addr> = (0..40).map(|i| if i % 4 == 3 { b } else { a }).collect();
        let run = |p: &mut dyn IndirectPredictor| -> u32 {
            let mut miss = 0;
            for &t in &pattern {
                if p.predict(Addr::new(0x40)) != Some(t) {
                    miss += 1;
                }
                p.update(Addr::new(0x40), t);
            }
            miss
        };
        let m1 = run(&mut Btb::new(16));
        let m2 = run(&mut Btb2b::new(16));
        assert!(m2 < m1, "BTB2b {m2} should beat BTB {m1}");
    }

    #[test]
    fn tagless_aliasing_is_modelled() {
        let mut b = Btb::new(4);
        // PCs 0x10 and 0x50 alias (word-index 4 and 20, both % 4 == 0).
        b.update(Addr::new(0x10), Addr::new(0x111));
        assert_eq!(b.predict(Addr::new(0x50)), Some(Addr::new(0x111)));
    }

    #[test]
    fn reset_clears_state() {
        let mut b = Btb2b::new(8);
        b.update(Addr::new(0x40), Addr::new(0x100));
        b.reset();
        assert_eq!(b.predict(Addr::new(0x40)), None);
    }

    #[test]
    fn costs_reflect_configuration() {
        assert_eq!(Btb::new(2048).cost().entries(), 2048);
        assert_eq!(Btb::new(2048).cost().bits(), 2048 * 65);
        assert_eq!(Btb2b::new(2048).cost().bits(), 2048 * 67);
    }

    #[test]
    fn names() {
        assert_eq!(Btb::new(1).name(), "BTB");
        assert_eq!(Btb2b::new(1).name(), "BTB2b");
    }
}
