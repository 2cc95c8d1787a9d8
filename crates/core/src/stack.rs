//! The order-`m` PPM stack: Markov tables + SFSXS indexing + update
//! exclusion.
//!
//! A PPM predictor of order `m` is a set of Markov predictors of orders
//! `1..=m` (the paper's hardware drops the degenerate 0th order). All
//! tables are accessed in parallel with indices derived from one SFSXS
//! signature of the path history; *the highest-order table with a valid
//! selected entry provides the prediction*. The update step follows the
//! **update exclusion** policy of PPMC: only the providing order and all
//! higher orders are updated; lower orders are untouched.

use crate::markov::{MarkovTable, TableEncoding};
use ibp_hw::bitspec::StorageReport;
use ibp_hw::hash::{Sfsxs, SfsxsRegister};
use ibp_hw::persist::{Part, Persist, PersistError, StateSink, StateSource};
use ibp_hw::HardwareCost;
use ibp_isa::Addr;

/// Configuration of a [`MarkovStack`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StackConfig {
    /// Highest Markov order `m`. Paper: 10.
    pub max_order: u32,
    /// Bits selected from each partial target by SFSXS. Paper: 10.
    pub select_bits: u32,
    /// Bits each selection folds to. Paper: 5.
    pub fold_bits: u32,
    /// Total entries across all orders; `None` uses the paper sizing
    /// (order `j` gets `2^j` entries, totalling `2^(m+1) - 2`).
    pub total_entries: Option<usize>,
    /// Tagged Markov entries (the paper's future-work variant).
    pub tagged: bool,
    /// Use the low-order signature bits instead of the high-order ones
    /// (the alternative §4 mentions and dismisses; kept for the ablation).
    pub low_bit_select: bool,
    /// Confidence threshold (0..=3) — the §6 future-work item "assign
    /// confidence on the prediction of different Markov components". With
    /// threshold `c > 0`, a valid entry whose 2-bit counter is below `c`
    /// no longer *provides*: the lookup falls through to lower orders
    /// looking for a confident entry, falling back to the highest-order
    /// valid entry when none is confident. 0 (the paper) disables this.
    pub confidence_threshold: u32,
    /// Update protocol (the §6 future-work item "modify the update
    /// protocol"). The paper uses update exclusion.
    pub update_protocol: UpdateProtocol,
    /// Index generation scheme. The paper replaces the gshare indexing of
    /// its predecessors with SFSXS (§4: "The hashing function proposed in
    /// [4, 8] uses a gshare indexing scheme ... In our case, we use a
    /// modified version of the Select-Fold-Shift-XOR"); the gshare variant
    /// is kept so the replacement can be measured.
    pub index_scheme: IndexScheme,
    /// Slot encoding of the Markov tables. A storage decision only —
    /// predictions are identical under both (see `markov.rs`).
    pub encoding: TableEncoding,
}

/// How the order-`j` Markov table index is generated.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum IndexScheme {
    /// The paper's Select-Fold-Shift-XOR-Select hash over the PHR.
    #[default]
    Sfsxs,
    /// The predecessors' scheme: XOR the branch PC with the packed
    /// youngest `j` partial targets, keeping `j` bits. Unlike SFSXS this
    /// mixes branch identity into the index.
    GsharePerOrder,
}

/// Which Markov orders learn the resolved target (§5 of Chen et al.; the
/// paper adopts update exclusion and §6 proposes modifying it).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum UpdateProtocol {
    /// PPMC's update exclusion: the providing order and all higher orders
    /// learn; lower orders do not (the paper, §3/§4).
    #[default]
    Exclusion,
    /// Every order learns on every update — maximal training of the lower
    /// orders at the cost of redundant writes and churn.
    AllOrders,
    /// Only the providing order learns (no promotion of longer contexts
    /// beyond first allocation).
    ProviderOnly,
}

impl StackConfig {
    /// The paper's order-10 configuration (2046 entries, tagless,
    /// high-order bit select).
    pub fn paper() -> Self {
        Self {
            max_order: 10,
            select_bits: 10,
            fold_bits: 5,
            total_entries: None,
            tagged: false,
            low_bit_select: false,
            confidence_threshold: 0,
            update_protocol: UpdateProtocol::default(),
            index_scheme: IndexScheme::default(),
            encoding: TableEncoding::default(),
        }
    }

    /// A scaled configuration with approximately `total` entries,
    /// distributed across orders proportionally to the paper's `2^j`
    /// geometric sizing.
    pub fn with_total_entries(total: usize) -> Self {
        Self {
            total_entries: Some(total),
            ..Self::paper()
        }
    }

    /// The per-order table sizes this configuration produces.
    pub fn table_sizes(&self) -> Vec<usize> {
        match self.total_entries {
            None => (1..=self.max_order).map(|j| 1usize << j).collect(),
            Some(total) => {
                let weight_sum = (1u128 << (self.max_order + 1)) - 2;
                (1..=self.max_order)
                    .map(|j| {
                        let w = 1u128 << j;
                        ((total as u128 * w / weight_sum).max(1)) as usize
                    })
                    .collect()
            }
        }
    }
}

/// Upper bound on `max_order`: the deepest history an [`SfsxsRegister`]
/// keeps.
pub const MAX_STACK_ORDER: usize = SfsxsRegister::MAX_DEPTH;

/// The outcome of probing the Markov orders for one prediction.
///
/// One lookup is produced per predicted branch event and held across the
/// predict→update window, so it carries only what
/// [`MarkovStack::update`] needs: the key every order's index derives
/// from, the provider and the prediction. The probe computes an order's
/// index only when it reaches that order, and the update recomputes the
/// indices of the orders it writes (one shift each under SFSXS).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StackLookup {
    /// The SFSXS signature; under [`IndexScheme::GsharePerOrder`] the
    /// packed youngest 128 bits of history instead.
    key: u128,
    /// The order that provided the prediction, if any.
    provider: Option<u32>,
    /// The predicted target, if any.
    prediction: Option<Addr>,
}

impl StackLookup {
    /// The order that provided the prediction (1..=m), or `None` when no
    /// table had a valid selected entry.
    pub fn provider(&self) -> Option<u32> {
        self.provider
    }

    /// The predicted target.
    pub fn prediction(&self) -> Option<Addr> {
        self.prediction
    }
}

/// Turns a lookup key into each order's table index under the configured
/// scheme. `Copy`, so the update loop can hold it beside a mutable borrow
/// of the tables.
#[derive(Debug, Clone, Copy)]
struct Indexer {
    sfsxs: Sfsxs,
    scheme: IndexScheme,
    low_bit_select: bool,
}

impl Indexer {
    /// The key of the current history: its SFSXS signature, or the
    /// packed view the gshare ablation folds per order.
    fn key(&self, history: &SfsxsRegister) -> u128 {
        match self.scheme {
            IndexScheme::Sfsxs => u128::from(history.signature()),
            IndexScheme::GsharePerOrder => {
                // The newest target in the low bits, each older one above
                // it, truncated at 128 bits.
                let bits = history.bits_per_target() as usize;
                (0..history.depth())
                    .take_while(|age| age * bits < 128)
                    .fold(0u128, |packed, age| {
                        packed | (u128::from(history.slot(age)) << (age * bits))
                    })
            }
        }
    }

    /// The index order `order` probes for `key`.
    #[inline]
    fn index(&self, key: u128, pc: Addr, order: u32) -> u64 {
        match self.scheme {
            IndexScheme::Sfsxs if self.low_bit_select => self.sfsxs.index_low(key as u64, order),
            IndexScheme::Sfsxs => self.sfsxs.index(key as u64, order),
            IndexScheme::GsharePerOrder => {
                // Pack the youngest `order` partial targets, XOR-fold the
                // whole window down to `order` bits (so every recorded
                // target influences the index, as the baselines'
                // dimension-matched gshare registers do), then XOR the
                // PC in.
                let window = (order * self.sfsxs.select_bits()).min(128);
                let history = if window == 128 {
                    key
                } else {
                    key & ((1u128 << window) - 1)
                };
                let folded64 = (history as u64) ^ ((history >> 64) as u64);
                let folded = ibp_hw::fold_xor(folded64, 64, order);
                ibp_hw::gshare(pc.raw() >> 2, u128::from(folded), order)
            }
        }
    }
}

/// The set of `m` Markov predictors plus their shared index generator.
///
/// # Examples
///
/// ```
/// use ibp_hw::SfsxsRegister;
/// use ibp_isa::Addr;
/// use ibp_ppm::{MarkovStack, StackConfig};
///
/// let mut stack = MarkovStack::new(StackConfig::paper());
/// let phr = SfsxsRegister::new(*stack.sfsxs());
/// let lookup = stack.lookup(&phr, Addr::new(0x40));
/// assert_eq!(lookup.prediction(), None); // cold
/// stack.update(&lookup, Addr::new(0x40), Addr::new(0x900));
/// let lookup = stack.lookup(&phr, Addr::new(0x40));
/// assert_eq!(lookup.prediction(), Some(Addr::new(0x900)));
/// assert_eq!(lookup.provider(), Some(10)); // highest order answers
/// ```
#[derive(Debug, Clone)]
pub struct MarkovStack {
    config: StackConfig,
    tables: Vec<MarkovTable>,
    indexer: Indexer,
    /// Table writes avoided by the update protocol: on each update, the
    /// number of orders below `start` that were left untouched. Under
    /// update exclusion this measures how much work PPMC's policy saves
    /// versus training every order. Telemetry only.
    excluded_updates: u64,
}

impl MarkovStack {
    /// Builds the stack from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if `max_order` is zero or exceeds [`MAX_STACK_ORDER`], if
    /// `select_bits` is outside `1..=64` or `fold_bits` outside
    /// `1..=select_bits`, or if the SFSXS signature cannot supply
    /// `max_order` index bits within 64 bits. The history registers
    /// built from [`sfsxs`](Self::sfsxs) rely on these bounds.
    pub fn new(config: StackConfig) -> Self {
        assert!(config.max_order > 0, "stack needs at least order 1");
        assert!(
            config.max_order as usize <= MAX_STACK_ORDER,
            "max order exceeds MAX_STACK_ORDER"
        );
        assert!(
            (1..=64).contains(&config.select_bits),
            "select_bits must be in 1..=64"
        );
        assert!(
            (1..=config.select_bits).contains(&config.fold_bits),
            "fold_bits must be in 1..=select_bits"
        );
        let sfsxs = Sfsxs::new(config.select_bits, config.fold_bits, config.max_order);
        assert!(
            config.max_order <= sfsxs.signature_bits(),
            "signature too narrow for max order"
        );
        let tables = config
            .table_sizes()
            .into_iter()
            .zip(1..=config.max_order)
            .map(|(len, order)| {
                MarkovTable::with_encoding(order, len, config.tagged, config.encoding)
            })
            .collect();
        Self {
            config,
            tables,
            indexer: Indexer {
                sfsxs,
                scheme: config.index_scheme,
                low_bit_select: config.low_bit_select,
            },
            excluded_updates: 0,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &StackConfig {
        &self.config
    }

    /// The Markov table for `order` (1..=m).
    ///
    /// # Panics
    ///
    /// Panics if `order` is out of range.
    pub fn table(&self, order: u32) -> &MarkovTable {
        &self.tables[(order - 1) as usize]
    }

    /// Total entries across all orders.
    pub fn total_entries(&self) -> usize {
        self.tables.iter().map(|t| t.len()).sum()
    }

    fn tag_of(pc: Addr) -> u64 {
        (pc.raw() >> 2) & 0x3FF
    }

    /// Probes the orders top-down for the current history and branch.
    /// The highest order with a valid (tag-matching) entry provides; an
    /// order's index is computed only when the probe reaches it, so the
    /// common case — the top order provides — costs one index and one
    /// table probe. With a confidence threshold, weak entries are skipped
    /// and the highest valid entry only serves as a fallback.
    #[inline]
    pub fn lookup(&self, history: &SfsxsRegister, pc: Addr) -> StackLookup {
        debug_assert_eq!(history.sfsxs(), &self.indexer.sfsxs, "history built for another stack");
        let key = self.indexer.key(history);
        let tag = Self::tag_of(pc);
        let mut fallback: Option<(u32, Addr)> = None;
        for (i, table) in self.tables.iter().enumerate().rev() {
            let order = i as u32 + 1;
            if let Some(entry) = table.lookup_entry(self.indexer.index(key, pc, order), tag) {
                if entry.counter() >= self.config.confidence_threshold {
                    return StackLookup {
                        key,
                        provider: Some(order),
                        prediction: Some(entry.target()),
                    };
                }
                if fallback.is_none() {
                    fallback = Some((order, entry.target()));
                }
            }
        }
        StackLookup {
            key,
            provider: fallback.map(|(order, _)| order),
            prediction: fallback.map(|(_, target)| target),
        }
    }

    /// The index `lookup` probed (and `update` writes) in the order-`j`
    /// table for the branch at `pc`.
    pub fn index(&self, lookup: &StackLookup, pc: Addr, order: u32) -> u64 {
        self.indexer.index(lookup.key, pc, order)
    }

    /// The shared index generator.
    pub fn sfsxs(&self) -> &Sfsxs {
        &self.indexer.sfsxs
    }

    /// Applies the resolved target under the configured update protocol.
    /// The paper's update exclusion updates the providing order and every
    /// higher order, leaving lower orders untouched; when no order
    /// provided (all invalid), every order allocates.
    #[inline]
    pub fn update(&mut self, lookup: &StackLookup, pc: Addr, actual: Addr) {
        let tag = Self::tag_of(pc);
        let provider = lookup.provider.unwrap_or(1);
        let (start, end) = match self.config.update_protocol {
            UpdateProtocol::Exclusion => (provider, self.config.max_order),
            UpdateProtocol::AllOrders => (1, self.config.max_order),
            UpdateProtocol::ProviderOnly => {
                if lookup.provider.is_some() {
                    (provider, provider)
                } else {
                    // Cold: allocate everywhere, as in the other modes.
                    (1, self.config.max_order)
                }
            }
        };
        self.excluded_updates += u64::from(start - 1);
        let indexer = self.indexer;
        let written = self.tables.get_mut((start - 1) as usize..end as usize);
        for (table, order) in written.into_iter().flatten().zip(start..) {
            table.update(indexer.index(lookup.key, pc, order), tag, actual);
        }
    }

    /// Per-order table writes skipped by the update protocol (see the
    /// field doc).
    pub fn excluded_updates(&self) -> u64 {
        self.excluded_updates
    }

    /// Streams stack telemetry as named values: aggregate and per-order
    /// occupancy, allocation and tag-conflict tallies, and the
    /// update-exclusion savings. Names are zero-padded so they sort in
    /// order-ascending sequence.
    pub fn report_metrics(&self, sink: &mut dyn FnMut(&str, u64)) {
        sink("stack_entries", self.total_entries() as u64);
        sink(
            "stack_occupancy",
            self.tables.iter().map(|t| t.occupancy() as u64).sum(),
        );
        sink(
            "stack_allocations",
            self.tables.iter().map(|t| t.allocations()).sum(),
        );
        sink(
            "stack_tag_conflicts",
            self.tables.iter().map(|t| t.tag_conflicts()).sum(),
        );
        sink("stack_excluded_updates", self.excluded_updates);
        for t in &self.tables {
            sink(
                &format!("order{:02}_occupancy", t.order()),
                t.occupancy() as u64,
            );
            sink(
                &format!("order{:02}_tag_conflicts", t.order()),
                t.tag_conflicts(),
            );
        }
    }

    /// Hardware cost of all tables (history registers are owned and
    /// charged by the enclosing predictor).
    pub fn cost(&self) -> HardwareCost {
        self.tables.iter().map(|t| t.cost()).sum()
    }

    /// True once [`seal`](Self::seal) has been called.
    pub fn is_sealed(&self) -> bool {
        self.tables.iter().all(|t| t.is_sealed())
    }
}

impl Persist for MarkovStack {
    /// Saves the per-order tables (ascending) plus the exclusion tally.
    /// The configuration is *not* serialized: a blob loads only into a
    /// stack built from the same [`StackConfig`] (each table's geometry
    /// guard enforces this). A sealed stack saves only its deltas.
    fn save_state(&self, out: &mut StateSink<'_>) {
        out.u64(self.excluded_updates);
        out.usize(self.tables.len());
        for t in &self.tables {
            t.save_state(out);
        }
    }

    fn load_state(&mut self, src: &mut StateSource<'_>) -> Result<(), PersistError> {
        let excluded_updates = src.u64()?;
        src.expect_u64(self.tables.len() as u64, "stack table count")?;
        for t in self.tables.iter_mut() {
            t.load_state(src)?;
        }
        self.excluded_updates = excluded_updates;
        Ok(())
    }

    /// Freezes every table's contents into an `Arc`-shared base tier
    /// with copy-on-write deltas. Clones of a sealed stack share the
    /// base arrays and pay only for the slots they overwrite.
    fn seal(&mut self) {
        for t in self.tables.iter_mut() {
            t.seal();
        }
    }

    /// Every table's bytes (deltas only when sealed).
    fn resident_bytes(&self) -> usize {
        self.tables.iter().map(|t| t.resident_bytes()).sum()
    }

    /// One row group per order (`o1.targets`, `o2.conf`, ...).
    fn report_rows(&self, part: Part<'_>, r: &mut StorageReport) {
        for t in &self.tables {
            let index = Some(t.order() as usize);
            t.report_rows(Part { index, ..part }, r);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn warm_phr(vals: &[u64]) -> SfsxsRegister {
        let mut phr = SfsxsRegister::new(Sfsxs::paper());
        for &v in vals {
            phr.shift_in(v);
        }
        phr
    }

    #[test]
    fn paper_stack_totals_2046_entries() {
        let stack = MarkovStack::new(StackConfig::paper());
        assert_eq!(stack.total_entries(), 2046);
        assert_eq!(stack.cost().entries(), 2046);
        for j in 1..=10 {
            assert_eq!(stack.table(j).len(), 1 << j);
        }
    }

    #[test]
    fn scaled_sizing_tracks_geometric_weights() {
        let cfg = StackConfig::with_total_entries(1023);
        let sizes = cfg.table_sizes();
        assert_eq!(sizes.len(), 10);
        // Roughly half the paper sizes, preserving the geometric shape.
        assert!(sizes[9] > sizes[8] && sizes[8] > sizes[7]);
        let total: usize = sizes.iter().sum();
        assert!((900..=1023).contains(&total), "total {total}");
    }

    #[test]
    fn cold_stack_has_no_provider() {
        let stack = MarkovStack::new(StackConfig::paper());
        let lookup = stack.lookup(&warm_phr(&[]), Addr::new(0x40));
        assert_eq!(lookup.provider(), None);
        assert_eq!(lookup.prediction(), None);
    }

    #[test]
    fn first_update_allocates_every_order() {
        let mut stack = MarkovStack::new(StackConfig::paper());
        let phr = warm_phr(&[0x123, 0x2F1]);
        let lookup = stack.lookup(&phr, Addr::new(0x40));
        stack.update(&lookup, Addr::new(0x40), Addr::new(0x900));
        for j in 1..=10 {
            assert_eq!(stack.table(j).occupancy(), 1, "order {j}");
        }
        // Next lookup with the same history answers from order 10.
        let l2 = stack.lookup(&phr, Addr::new(0x40));
        assert_eq!(l2.provider(), Some(10));
        assert_eq!(l2.prediction(), Some(Addr::new(0x900)));
    }

    #[test]
    fn update_exclusion_skips_lower_orders() {
        let mut stack = MarkovStack::new(StackConfig::paper());
        let phr = warm_phr(&[0x111, 0x222, 0x333]);
        // Warm all orders once.
        let l1 = stack.lookup(&phr, Addr::new(0x40));
        stack.update(&l1, Addr::new(0x40), Addr::new(0x900));
        // Snapshot low-order state, then update again: the provider is now
        // order 10, so orders 1..=9 must not change.
        let before: Vec<usize> = (1..=9).map(|j| stack.table(j).occupancy()).collect();
        let l2 = stack.lookup(&phr, Addr::new(0x40));
        assert_eq!(l2.provider(), Some(10));
        stack.update(&l2, Addr::new(0x40), Addr::new(0xA00));
        let after: Vec<usize> = (1..=9).map(|j| stack.table(j).occupancy()).collect();
        assert_eq!(before, after, "update exclusion violated");
        // And the order-9 entry still holds the ORIGINAL target: it was
        // not shown 0xA00.
        let idx9 = stack.index(&l2, Addr::new(0x40), 9);
        assert_eq!(
            stack.table(9).lookup(idx9, (0x40u64 >> 2) & 0x3FF),
            Some(Addr::new(0x900))
        );
    }

    #[test]
    fn fallback_to_lower_order_when_higher_is_invalid() {
        let mut stack = MarkovStack::new(StackConfig::paper());
        let phr_a = warm_phr(&[0x1, 0x2, 0x3]);
        let lookup_a = stack.lookup(&phr_a, Addr::new(0x40));
        stack.update(&lookup_a, Addr::new(0x40), Addr::new(0x900));
        // A history differing only in the OLDEST recorded target changes
        // the order-10 index but preserves all lower-order indices (low
        // orders depend only on recent targets).
        let mut phr_b = SfsxsRegister::new(Sfsxs::paper());
        phr_b.shift_in(0x77); // will age into slot 9
        for _ in 0..6 {
            phr_b.shift_in(0);
        }
        for &v in &[0x1u64, 0x2, 0x3] {
            phr_b.shift_in(v);
        }
        // phr_b differs from phr_a in slot 9 only (0x77 vs 0).
        let la = stack.lookup(&phr_a, Addr::new(0x40));
        let lb = stack.lookup(&phr_b, Addr::new(0x40));
        let pc = Addr::new(0x40);
        let (a, b) = (|j| stack.index(&la, pc, j), |j| stack.index(&lb, pc, j));
        assert_eq!(a(1), b(1), "order-1 index must match");
        assert_ne!(a(10), b(10), "order-10 index must differ");
        // The order-10 entry for phr_b's signature is invalid, so the
        // stack falls back to a lower order and still predicts 0x900.
        assert!(lb.provider().is_some());
        assert!(lb.provider().unwrap() < 10);
        assert_eq!(lb.prediction(), Some(Addr::new(0x900)));
    }

    #[test]
    fn tagged_stack_rejects_other_branches() {
        let mut stack = MarkovStack::new(StackConfig {
            tagged: true,
            ..StackConfig::paper()
        });
        let phr = warm_phr(&[0x5]);
        let l = stack.lookup(&phr, Addr::new(0x40));
        stack.update(&l, Addr::new(0x40), Addr::new(0x900));
        assert_eq!(
            stack.lookup(&phr, Addr::new(0x40)).prediction(),
            Some(Addr::new(0x900))
        );
        assert_eq!(stack.lookup(&phr, Addr::new(0x44)).prediction(), None);
    }

    #[test]
    fn low_bit_select_changes_indices() {
        let hi = MarkovStack::new(StackConfig::paper());
        let lo = MarkovStack::new(StackConfig {
            low_bit_select: true,
            ..StackConfig::paper()
        });
        let phr = warm_phr(&[0x3FF, 0x155, 0x2AA]);
        let lh = hi.lookup(&phr, Addr::new(0x40));
        let ll = lo.lookup(&phr, Addr::new(0x40));
        let pc = Addr::new(0x40);
        assert_ne!(
            (1..=10).map(|j| hi.index(&lh, pc, j)).collect::<Vec<_>>(),
            (1..=10).map(|j| lo.index(&ll, pc, j)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn gshare_scheme_mixes_pc_into_the_index() {
        let stack = MarkovStack::new(StackConfig {
            index_scheme: IndexScheme::GsharePerOrder,
            ..StackConfig::paper()
        });
        let phr = warm_phr(&[0x155, 0x2AA]);
        let a = stack.lookup(&phr, Addr::new(0x40));
        let b = stack.lookup(&phr, Addr::new(0x44));
        // Same history, different PC: gshare indices must differ at some
        // order (SFSXS's would be identical).
        let (pa, pb) = (Addr::new(0x40), Addr::new(0x44));
        assert!(
            (1..=10).any(|j| stack.index(&a, pa, j) != stack.index(&b, pb, j)),
            "gshare must depend on the PC"
        );
        let sfsxs = MarkovStack::new(StackConfig::paper());
        let c = sfsxs.lookup(&phr, Addr::new(0x40));
        let d = sfsxs.lookup(&phr, Addr::new(0x44));
        assert!(
            (1..=10).all(|j| sfsxs.index(&c, pa, j) == sfsxs.index(&d, pb, j)),
            "SFSXS must not depend on the PC"
        );
    }

    #[test]
    fn all_orders_protocol_trains_low_orders() {
        let mut stack = MarkovStack::new(StackConfig {
            update_protocol: UpdateProtocol::AllOrders,
            ..StackConfig::paper()
        });
        let phr = warm_phr(&[0x111, 0x222, 0x333]);
        let l1 = stack.lookup(&phr, Addr::new(0x40));
        stack.update(&l1, Addr::new(0x40), Addr::new(0x900));
        let l2 = stack.lookup(&phr, Addr::new(0x40));
        stack.update(&l2, Addr::new(0x40), Addr::new(0xA00));
        // Order 1 saw BOTH updates: its entry decayed from 0x900 toward
        // 0xA00 (one miss under hysteresis, target kept), unlike update
        // exclusion where it would never have seen 0xA00 at all.
        let idx1 = stack.index(&l2, Addr::new(0x40), 1);
        let e = stack.table(1).lookup_entry(idx1, (0x40u64 >> 2) & 0x3FF).unwrap();
        assert_eq!(e.counter(), 0, "order 1 must have been decremented");
    }

    #[test]
    fn provider_only_protocol_freezes_other_orders() {
        let mut stack = MarkovStack::new(StackConfig {
            update_protocol: UpdateProtocol::ProviderOnly,
            ..StackConfig::paper()
        });
        let phr = warm_phr(&[0x111, 0x222, 0x333]);
        let l1 = stack.lookup(&phr, Addr::new(0x40));
        stack.update(&l1, Addr::new(0x40), Addr::new(0x900)); // cold: all alloc
        // Provider is now order 10; repeated new targets must only ever
        // touch order 10.
        for t in [0xA00u64, 0xA00, 0xB00, 0xB00] {
            let l = stack.lookup(&phr, Addr::new(0x40));
            assert_eq!(l.provider(), Some(10));
            stack.update(&l, Addr::new(0x40), Addr::new(t));
        }
        let l = stack.lookup(&phr, Addr::new(0x40));
        // Order 9 still holds the original cold allocation.
        let idx9 = stack.index(&l, Addr::new(0x40), 9);
        assert_eq!(
            stack.table(9).lookup(idx9, (0x40u64 >> 2) & 0x3FF),
            Some(Addr::new(0x900))
        );
    }

    #[test]
    fn excluded_updates_count_skipped_orders() {
        let mut stack = MarkovStack::new(StackConfig::paper());
        let phr = warm_phr(&[0x111, 0x222, 0x333]);
        let l1 = stack.lookup(&phr, Addr::new(0x40));
        stack.update(&l1, Addr::new(0x40), Addr::new(0x900));
        assert_eq!(stack.excluded_updates(), 0, "cold update trains all orders");
        let l2 = stack.lookup(&phr, Addr::new(0x40));
        assert_eq!(l2.provider(), Some(10));
        stack.update(&l2, Addr::new(0x40), Addr::new(0x900));
        assert_eq!(stack.excluded_updates(), 9, "orders 1..=9 skipped");

        let mut names = Vec::new();
        stack.report_metrics(&mut |name, value| names.push((name.to_string(), value)));
        assert!(names.iter().any(|(n, v)| n == "stack_entries" && *v == 2046));
        assert!(names.iter().any(|(n, v)| n == "stack_occupancy" && *v == 10));
        assert!(names.iter().any(|(n, v)| n == "stack_excluded_updates" && *v == 9));
        assert!(names.iter().any(|(n, v)| n == "order10_occupancy" && *v == 1));
    }

    #[test]
    fn sealed_stack_forks_diverge_independently() {
        let mut base = MarkovStack::new(StackConfig::paper());
        let phr = warm_phr(&[0x111, 0x222, 0x333]);
        let l = base.lookup(&phr, Addr::new(0x40));
        base.update(&l, Addr::new(0x40), Addr::new(0x900));
        base.seal();
        assert!(base.is_sealed());
        let private_bytes = MarkovStack::new(StackConfig::paper()).resident_bytes();
        assert!(base.resident_bytes() < private_bytes / 4);

        let mut a = base.clone();
        let mut b = base.clone();
        let la = a.lookup(&phr, Addr::new(0x40));
        a.update(&la, Addr::new(0x40), Addr::new(0xA00));
        let lb = b.lookup(&phr, Addr::new(0x40));
        b.update(&lb, Addr::new(0x40), Addr::new(0x900));
        // a saw a miss (counter decays), b reinforced; neither sees the
        // other's writes and the shared base is untouched.
        let pc = Addr::new(0x40);
        assert_ne!(
            a.table(10).lookup_entry(a.index(&la, pc, 10), (0x40u64 >> 2) & 0x3FF),
            b.table(10).lookup_entry(b.index(&lb, pc, 10), (0x40u64 >> 2) & 0x3FF)
        );
        assert_eq!(
            base.table(10)
                .lookup_entry(base.index(&l, pc, 10), (0x40u64 >> 2) & 0x3FF)
                .unwrap()
                .counter(),
            1
        );
    }

    #[test]
    fn persist_round_trip_restores_behaviour() {
        let mut stack = MarkovStack::new(StackConfig::paper());
        let phr = warm_phr(&[0x111, 0x222, 0x333]);
        for t in [0x900u64, 0x900, 0xA00] {
            let l = stack.lookup(&phr, Addr::new(0x40));
            stack.update(&l, Addr::new(0x40), Addr::new(t));
        }
        let mut blob = Vec::new();
        stack.save_state(&mut StateSink::new(&mut blob));
        let mut restored = MarkovStack::new(StackConfig::paper());
        restored.load_state(&mut StateSource::new(&blob)).unwrap();
        assert_eq!(
            restored.lookup(&phr, Addr::new(0x40)),
            stack.lookup(&phr, Addr::new(0x40))
        );
        assert_eq!(restored.excluded_updates(), stack.excluded_updates());
        // A differently-sized stack rejects the blob.
        let mut wrong = MarkovStack::new(StackConfig::with_total_entries(1023));
        assert!(wrong.load_state(&mut StateSource::new(&blob)).is_err());
    }

    #[test]
    fn compact_stack_predicts_identically() {
        let mut plain = MarkovStack::new(StackConfig::paper());
        let mut compact = MarkovStack::new(StackConfig {
            encoding: TableEncoding::Compact,
            ..StackConfig::paper()
        });
        let mut phr = SfsxsRegister::new(Sfsxs::paper());
        let mut x = 0x9E37_79B9u64;
        for _ in 0..3000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let pc = Addr::new((x >> 48) << 2);
            let actual = Addr::new(((x >> 16) & 0xFFF) << 2);
            let lp = plain.lookup(&phr, pc);
            let lc = compact.lookup(&phr, pc);
            assert_eq!(lp, lc);
            plain.update(&lp, pc, actual);
            compact.update(&lc, pc, actual);
            phr.shift_in(actual.raw() >> 2);
        }
    }

    // An out-of-range width used to build a different predictor silently:
    // `select_bits: 266` became 10-bit slots through an `as u8` cast.
    #[test]
    #[should_panic(expected = "select_bits must be in 1..=64")]
    fn zero_select_bits_panics() {
        let _ = MarkovStack::new(StackConfig {
            select_bits: 0,
            ..StackConfig::paper()
        });
    }

    #[test]
    #[should_panic(expected = "select_bits must be in 1..=64")]
    fn select_bits_above_64_panics() {
        let _ = MarkovStack::new(StackConfig {
            select_bits: 65,
            ..StackConfig::paper()
        });
    }

    #[test]
    #[should_panic(expected = "fold_bits must be in 1..=select_bits")]
    fn zero_fold_bits_panics() {
        let _ = MarkovStack::new(StackConfig {
            fold_bits: 0,
            ..StackConfig::paper()
        });
    }

    #[test]
    #[should_panic(expected = "fold_bits must be in 1..=select_bits")]
    fn fold_wider_than_select_panics() {
        let _ = MarkovStack::new(StackConfig {
            select_bits: 10,
            fold_bits: 11,
            ..StackConfig::paper()
        });
    }}
