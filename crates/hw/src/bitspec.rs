//! Storage-bit accounting: structured per-component breakdowns and the
//! bit-budget solver.
//!
//! The paper compares predictors "for approximately the same hardware
//! budget", but counts that budget in *table entries*. Entries are not
//! comparable across structures: a tagless BTB entry is 65 bits while a
//! Cascade filter entry is 97 — at the same entry count the Cascade holds
//! half again as much state. This module makes the budget honest:
//!
//! * [`StorageReport`] — a structured inventory of every bit a predictor
//!   configuration allocates, broken down by component ([`ComponentClass`]:
//!   tags, targets, counters, useful bits, history registers, metadata).
//!   Every [`IndirectPredictor`] in the zoo emits one by walking its
//!   declared state: each component's declared rows, counted from its
//!   **live allocated state** (actual container lengths, see
//!   [`Persist::report_rows`](crate::Persist::report_rows)), so the
//!   report can be audited against the config-derived [`HardwareCost`]
//!   the predictor declares;
//! * [`solve_entries`] — the budget solver: given a declared bit budget
//!   and a monotone `entries → bits` probe, finds the largest
//!   configuration that fits. `fig6 --budget <bits>` uses it to size
//!   every paper predictor at equal *bits* instead of equal entries, and
//!   `Ittage64Config::for_budget` uses the same bisection to size its
//!   geometric table stack.
//!
//! The `bitreport` bench binary walks the whole zoo, emits the versioned
//! `results/storage_bits.json`, and `scripts/verify.sh` gates that every
//! report stays within 1% of its declared cost and inside its declared
//! budget.
//!
//! [`IndirectPredictor`]: ../../ibp_predictors/traits/trait.IndirectPredictor.html

use crate::budget::HardwareCost;
use std::fmt;

/// What a storage component physically holds. The classes follow the
/// TAGE-literature convention for budget tables (tags / targets /
/// confidence counters / useful bits / history registers / everything
/// else).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ComponentClass {
    /// Partial tags guarding tagged-table hits.
    Tag,
    /// Predicted target addresses. Components of this class define the
    /// paper's entry count: one target field per prediction-table entry.
    Target,
    /// Saturating confidence / hysteresis / selector counters.
    Counter,
    /// Usefulness bits steering allocation and aging.
    Useful,
    /// Global or folded history registers.
    History,
    /// Valid bits, LRU state, tick counters, PRNG state — everything the
    /// other classes don't cover.
    Metadata,
}

impl ComponentClass {
    /// Every class, in the order reports render and serialize them.
    pub const ALL: [ComponentClass; 6] = [
        ComponentClass::Tag,
        ComponentClass::Target,
        ComponentClass::Counter,
        ComponentClass::Useful,
        ComponentClass::History,
        ComponentClass::Metadata,
    ];

    /// The stable lowercase label used in JSON reports.
    pub fn label(self) -> &'static str {
        match self {
            ComponentClass::Tag => "tag",
            ComponentClass::Target => "target",
            ComponentClass::Counter => "counter",
            ComponentClass::Useful => "useful",
            ComponentClass::History => "history",
            ComponentClass::Metadata => "metadata",
        }
    }
}

/// One named block of storage: `count` fields of `width` bits each.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StorageComponent {
    /// A stable, human-readable name (e.g. `"T3.tags"`, `"base.targets"`).
    pub name: String,
    /// What the component holds.
    pub class: ComponentClass,
    /// Number of fields.
    pub count: u64,
    /// Bits per field.
    pub width: u64,
}

impl StorageComponent {
    /// Total bits of this component.
    pub fn bits(&self) -> u64 {
        self.count * self.width
    }
}

/// A structured storage inventory: the bit-level truth of one predictor
/// configuration.
///
/// # Examples
///
/// ```
/// use ibp_hw::bitspec::{ComponentClass, StorageReport};
///
/// let mut r = StorageReport::new();
/// r.table("btb.targets", ComponentClass::Target, 2048, 64);
/// r.table("btb.valid", ComponentClass::Metadata, 2048, 1);
/// assert_eq!(r.total_bits(), 2048 * 65);
/// assert_eq!(r.entries(), 2048); // one Target field per table entry
/// assert_eq!(r.to_cost().bits(), 2048 * 65);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StorageReport {
    components: Vec<StorageComponent>,
}

impl StorageReport {
    /// An empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a table-shaped component: `count` fields of `width` bits.
    pub fn table(&mut self, name: &str, class: ComponentClass, count: u64, width: u64) -> &mut Self {
        self.components.push(StorageComponent {
            name: name.to_string(),
            class,
            count,
            width,
        });
        self
    }

    /// Adds a register-shaped component: one field of `bits` bits.
    pub fn register(&mut self, name: &str, class: ComponentClass, bits: u64) -> &mut Self {
        self.table(name, class, 1, bits)
    }

    /// All components, in insertion order.
    pub fn components(&self) -> &[StorageComponent] {
        &self.components
    }

    /// Total storage bits across every component.
    pub fn total_bits(&self) -> u64 {
        self.components.iter().map(StorageComponent::bits).sum()
    }

    /// Total bits held by components of one class.
    pub fn class_bits(&self, class: ComponentClass) -> u64 {
        self.components
            .iter()
            .filter(|c| c.class == class)
            .map(StorageComponent::bits)
            .sum()
    }

    /// The paper's entry count: the number of target fields (each
    /// prediction-table entry stores exactly one predicted target; history
    /// banks, selectors and registers store none).
    pub fn entries(&self) -> u64 {
        self.components
            .iter()
            .filter(|c| c.class == ComponentClass::Target)
            .map(|c| c.count)
            .sum()
    }

    /// Collapses the breakdown into the legacy two-number cost.
    pub fn to_cost(&self) -> HardwareCost {
        HardwareCost::new(self.entries(), self.total_bits())
    }
}

impl fmt::Display for StorageReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for c in &self.components {
            writeln!(
                f,
                "  {:<24} {:<8} {:>8} x {:>3} = {:>9} bits",
                c.name,
                c.class.label(),
                c.count,
                c.width,
                c.bits()
            )?;
        }
        write!(
            f,
            "  {:<24} {:>31} bits ({:.2} KiB)",
            "TOTAL",
            self.total_bits(),
            self.total_bits() as f64 / 8192.0
        )
    }
}

/// The budget solver: the largest `n` in `lo..=hi` with
/// `bits_of(n) <= budget_bits`, by bisection.
///
/// `bits_of` must be monotone non-decreasing in `n` (more entries never
/// need fewer bits) — every table-shaped predictor in the zoo satisfies
/// this. Returns `None` when even `bits_of(lo)` exceeds the budget.
/// Because the search is over the integers with a monotone probe, the
/// result is itself monotone in `budget_bits`: a larger budget never
/// yields a smaller configuration (the solver-monotonicity property the
/// test suite pins).
///
/// # Examples
///
/// ```
/// use ibp_hw::bitspec::solve_entries;
///
/// // A 65-bit-per-entry BTB under a 64 KiB (524288-bit) budget:
/// let n = solve_entries(64 * 8192, 64, 1 << 20, |e| e * 65).unwrap();
/// assert_eq!(n, 524288 / 65);
/// assert!(n * 65 <= 524288 && (n + 1) * 65 > 524288);
/// ```
pub fn solve_entries(
    budget_bits: u64,
    lo: u64,
    hi: u64,
    bits_of: impl Fn(u64) -> u64,
) -> Option<u64> {
    if lo > hi || bits_of(lo) > budget_bits {
        return None;
    }
    let (mut lo, mut hi) = (lo, hi);
    // Invariant: bits_of(lo) <= budget_bits < bits_of(hi + 1) conceptually;
    // shrink until lo == hi.
    while lo < hi {
        let mid = lo + (hi - lo).div_ceil(2);
        if bits_of(mid) <= budget_bits {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    Some(lo)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> StorageReport {
        let mut r = StorageReport::new();
        r.table("t.tags", ComponentClass::Tag, 512, 11);
        r.table("t.targets", ComponentClass::Target, 512, 64);
        r.table("t.conf", ComponentClass::Counter, 512, 2);
        r.table("t.useful", ComponentClass::Useful, 512, 2);
        r.register("path", ComponentClass::History, 432);
        r.register("tick", ComponentClass::Metadata, 20);
        r
    }

    #[test]
    fn totals_and_classes_add_up() {
        let r = sample();
        let expected = 512 * (11 + 64 + 2 + 2) + 432 + 20;
        assert_eq!(r.total_bits(), expected);
        assert_eq!(
            ComponentClass::ALL
                .into_iter()
                .map(|c| r.class_bits(c))
                .sum::<u64>(),
            expected,
            "classes must partition the total"
        );
        assert_eq!(r.class_bits(ComponentClass::Tag), 512 * 11);
        assert_eq!(r.entries(), 512);
        assert_eq!(r.to_cost().entries(), 512);
        assert_eq!(r.to_cost().bits(), expected);
    }

    #[test]
    fn entries_count_only_target_fields() {
        let mut r = StorageReport::new();
        r.table("bank0.targets", ComponentClass::Target, 1024, 64);
        r.table("bank1.targets", ComponentClass::Target, 1024, 64);
        r.table("selector", ComponentClass::Counter, 1024, 2);
        r.register("phr", ComponentClass::History, 96);
        assert_eq!(r.entries(), 2048);
    }

    #[test]
    fn display_renders_every_component() {
        let text = format!("{}", sample());
        for name in ["t.tags", "t.targets", "path", "TOTAL"] {
            assert!(text.contains(name), "missing {name}: {text}");
        }
    }

    #[test]
    fn solver_finds_the_boundary() {
        let bits = |n: u64| n * 65;
        assert_eq!(solve_entries(65, 1, 1 << 20, bits), Some(1));
        assert_eq!(solve_entries(64, 1, 1 << 20, bits), None);
        assert_eq!(solve_entries(65 * 7 + 64, 1, 1 << 20, bits), Some(7));
        // Hi-clamped when the budget is enormous.
        assert_eq!(solve_entries(u64::MAX / 2, 1, 4096, bits), Some(4096));
    }

    #[test]
    fn solver_is_monotone_in_the_budget() {
        // A deliberately lumpy (but monotone) bits function: step costs.
        let bits = |n: u64| n * 70 + (n / 100) * 512;
        let mut prev = 0;
        for budget in (0..200).map(|i| i * 1733) {
            let solved = solve_entries(budget, 1, 1 << 16, bits).unwrap_or(0);
            assert!(
                solved >= prev,
                "budget {budget}: solved {solved} < previous {prev}"
            );
            if solved > 0 {
                assert!(bits(solved) <= budget, "solution must fit its budget");
            }
            prev = solved;
        }
    }

    #[test]
    fn solver_respects_the_floor() {
        let bits = |n: u64| n * 10;
        assert_eq!(solve_entries(1000, 64, 4096, bits), Some(100));
        // 50 entries would fit 500 bits, but the floor is 64 — no solution.
        assert_eq!(solve_entries(500, 64, 4096, bits), None);
        assert_eq!(solve_entries(500, 64, 40, bits), None, "lo > hi");
    }
}
