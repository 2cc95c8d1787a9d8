//! The idealized PPM predictor — the "original Markov model" of §4.
//!
//! The paper notes that a faithful Markov model "requires multiple outgoing
//! arcs from each state, keeping frequency counts for each possible target
//! [...] and uses a majority voting mechanism to select the next target",
//! and that its hardware design replaces this with a single most-recent
//! target per entry. [`IdealPpm`] implements the faithful version with
//! unbounded per-order context tables keyed by *exact* path history and
//! branch identity (so it is alias-free), majority voting, escape to lower
//! orders, and update exclusion. The ablation bench compares it against
//! the hardware PPM to quantify what the approximations cost.

use ibp_hw::HardwareCost;
use ibp_isa::Addr;
use ibp_predictors::oracle::VoteTable;
use ibp_predictors::{declare_state, HistoryGroup, IndirectPredictor};
use ibp_trace::BranchEvent;
use std::collections::VecDeque;

/// One PPM order: exact contexts mapped to target frequency counts.
#[derive(Debug, Clone, Default)]
struct IdealOrder {
    /// (pc, exact last-j targets) -> target -> count
    contexts: VoteTable,
}

impl IdealOrder {
    fn vote(&self, key: &(u64, Vec<u64>)) -> Option<Addr> {
        let counts = self.contexts.get(key)?;
        counts
            .iter()
            .max_by_key(|(&t, &c)| (c, std::cmp::Reverse(t)))
            .map(|(&t, _)| Addr::new(t))
    }

    fn train(&mut self, key: (u64, Vec<u64>), actual: Addr) {
        // ibp-lint: allow(L008, "idealized PPM is deliberately unbounded: the faithful Markov model of §4")
        *self.contexts.or_default(key).or_default(actual.raw()) += 1;
    }
}

/// The unbounded frequency-voting PPM of order `m`.
///
/// # Examples
///
/// ```
/// use ibp_isa::Addr;
/// use ibp_ppm::IdealPpm;
/// use ibp_predictors::IndirectPredictor;
///
/// let mut p = IdealPpm::new(10);
/// p.update(Addr::new(0x40), Addr::new(0x900));
/// assert_eq!(p.predict(Addr::new(0x40)), Some(Addr::new(0x900)));
/// ```
#[derive(Debug, Clone)]
pub struct IdealPpm {
    max_order: u32,
    orders: Vec<IdealOrder>,
    history: VecDeque<u64>,
    group: HistoryGroup,
}

impl IdealPpm {
    /// Creates an idealized PPM of order `max_order` over PIB history.
    ///
    /// # Panics
    ///
    /// Panics if `max_order` is zero.
    pub fn new(max_order: u32) -> Self {
        Self::with_group(max_order, HistoryGroup::AllIndirect)
    }

    /// Creates an idealized PPM over an explicit history group.
    ///
    /// # Panics
    ///
    /// Panics if `max_order` is zero.
    pub fn with_group(max_order: u32, group: HistoryGroup) -> Self {
        assert!(max_order > 0, "ideal PPM needs at least order 1");
        Self {
            max_order,
            orders: (0..=max_order).map(|_| IdealOrder::default()).collect(),
            history: VecDeque::with_capacity(max_order as usize),
            group,
        }
    }

    /// The maximum order.
    pub fn max_order(&self) -> u32 {
        self.max_order
    }

    fn key(&self, pc: Addr, order: u32) -> (u64, Vec<u64>) {
        let have = self.history.len();
        let take = (order as usize).min(have);
        (
            pc.raw(),
            // ibp-lint: allow(L008, "idealized PPM keys on exact cloned history by design; not a hardware path")
            self.history.iter().skip(have - take).copied().collect(),
        )
    }

    /// The order that would provide the next prediction for `pc`.
    // ibp-lint: allow(L007, "orders has max_order+1 entries by construction")
    pub fn provider(&self, pc: Addr) -> Option<u32> {
        (0..=self.max_order)
            .rev()
            .find(|&j| self.orders[j as usize].vote(&self.key(pc, j)).is_some())
    }

    /// Total learned contexts across all orders.
    pub fn contexts(&self) -> usize {
        self.orders.iter().map(|o| o.contexts.len()).sum()
    }
}

impl IndirectPredictor for IdealPpm {
    fn name(&self) -> String {
        // ibp-lint: allow(L008, "name() runs once per run for reporting, not per event")
        format!("PPM-ideal(m={})", self.max_order)
    }

    // ibp-lint: allow(L007, "provider returns an order in 0..=max_order; orders has max_order+1 entries")
    fn predict(&mut self, pc: Addr) -> Option<Addr> {
        let order = self.provider(pc)?;
        self.orders[order as usize].vote(&self.key(pc, order))
    }

    // ibp-lint: allow(L007, "orders has max_order+1 entries by construction")
    fn update(&mut self, pc: Addr, actual: Addr) {
        // Update exclusion: the providing order and all higher orders
        // train; lower orders do not. A cold branch trains every order.
        let provider = self.provider(pc).unwrap_or(0);
        for j in provider..=self.max_order {
            let key = self.key(pc, j);
            self.orders[j as usize].train(key, actual);
        }
    }

    fn observe(&mut self, event: &BranchEvent) {
        if self.group.accepts(event) {
            if self.history.len() == self.max_order as usize {
                self.history.pop_front();
            }
            // ibp-lint: allow(L008, "history ring bounded by max_order: push_back pairs with pop_front at depth")
            self.history.push_back(event.target().raw());
        }
    }

    fn cost(&self) -> HardwareCost {
        // Unbounded; report the live footprint.
        let entries: u64 = self
            .orders
            .iter()
            .map(|o| o.contexts.values().map(|c| c.len() as u64).sum::<u64>())
            .sum();
        HardwareCost::table(entries, 64 + 32)
    }

    fn reset(&mut self) {
        *self = Self::with_group(self.max_order, self.group);
    }

    // Idealized predictor: storage is unbounded, so the inventory is the
    // live footprint (targets + frequency counts per context entry).
    declare_state! { self;
        guard u64::from(self.max_order), "ideal PPM max order";
        "history" [] => self.history;
        check self.history.len() <= self.max_order as usize, "ideal PPM history overfull";
        for i in (0..self.orders.len()) {
            "o"(i) [Target(64) targets, Counter(32) counts] => self.orders[i].contexts;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive(p: &mut IdealPpm, pc: Addr, target: Addr) -> bool {
        let hit = p.predict(pc) == Some(target);
        p.update(pc, target);
        p.observe(&BranchEvent::indirect_jmp(pc, target));
        hit
    }

    #[test]
    fn perfect_on_deterministic_cycles() {
        let mut p = IdealPpm::new(6);
        let pc = Addr::new(0x100);
        let targets: Vec<Addr> = (0..5).map(|i| Addr::new(0xA00 + i * 0x40)).collect();
        let mut late_misses = 0;
        for round in 0..20 {
            for &t in &targets {
                if !drive(&mut p, pc, t) && round >= 2 {
                    late_misses += 1;
                }
            }
        }
        assert_eq!(late_misses, 0);
    }

    #[test]
    fn majority_voting_resists_noise() {
        // Context X mostly goes to A but occasionally to B; voting sticks
        // with A while most-recent-target would flip on every B.
        let mut p = IdealPpm::new(2);
        let pc = Addr::new(0x40);
        // Build a stable context.
        for _ in 0..3 {
            p.observe(&BranchEvent::indirect_jmp(Addr::new(0x10), Addr::new(0x20)));
        }
        for i in 0..20 {
            let t = if i % 5 == 4 {
                Addr::new(0xB00)
            } else {
                Addr::new(0xA00)
            };
            p.update(pc, t);
        }
        assert_eq!(p.predict(pc), Some(Addr::new(0xA00)));
    }

    #[test]
    fn escapes_to_order_zero_for_new_contexts() {
        let mut p = IdealPpm::new(4);
        let pc = Addr::new(0x40);
        p.update(pc, Addr::new(0x900));
        // Shift in never-seen history: high orders have no context, but
        // order 0 (branch identity alone) still votes.
        for i in 0..4u64 {
            p.observe(&BranchEvent::indirect_jmp(
                Addr::new(0x1000 + i * 4),
                Addr::new(0x2000 + i * 4),
            ));
        }
        assert_eq!(p.provider(pc), Some(0));
        assert_eq!(p.predict(pc), Some(Addr::new(0x900)));
    }

    #[test]
    fn distinct_branches_do_not_alias() {
        let mut p = IdealPpm::new(3);
        p.update(Addr::new(0x40), Addr::new(0xA00));
        p.update(Addr::new(0x44), Addr::new(0xB00));
        assert_eq!(p.predict(Addr::new(0x40)), Some(Addr::new(0xA00)));
        assert_eq!(p.predict(Addr::new(0x44)), Some(Addr::new(0xB00)));
    }

    #[test]
    fn update_exclusion_starves_low_orders() {
        let mut p = IdealPpm::new(2);
        let pc = Addr::new(0x40);
        // Stable history so order 2 contexts repeat.
        for _ in 0..2 {
            p.observe(&BranchEvent::indirect_jmp(Addr::new(0x10), Addr::new(0x20)));
        }
        for _ in 0..10 {
            p.update(pc, Addr::new(0x900));
        }
        // Order 2 provided from the second update on; order 0's count for
        // the context stopped growing.
        let k0 = p.key(pc, 0);
        let count0: u64 = p.orders[0].contexts.get(&k0).unwrap().values().sum();
        assert!(count0 < 10, "order 0 kept training: {count0}");
    }

    #[test]
    fn reset_clears_contexts() {
        let mut p = IdealPpm::new(2);
        drive(&mut p, Addr::new(0x40), Addr::new(0x900));
        assert!(p.contexts() > 0);
        p.reset();
        assert_eq!(p.contexts(), 0);
        assert_eq!(p.predict(Addr::new(0x40)), None);
    }
}
