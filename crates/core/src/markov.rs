//! Hardware Markov predictors.
//!
//! A Markov predictor of order `j` is, in the paper's implementation, a
//! BTB-like structure "where every entry includes the most recently
//! accessed target, a 2-bit up/down saturating counter and a valid bit"
//! (§4). Every entry ideally represents one state of the order-`j` Markov
//! model; the valid bit indicates a non-zero frequency count for that
//! state, and the counter delays target replacement until two consecutive
//! misses, exactly like the BTB2b.
//!
//! The simulated tables are tagless (the paper's design point); the tagged
//! variant the authors list as future work is provided for the ablation
//! bench.
//!
//! Two storage concerns are layered *under* the table abstraction, both
//! invisible to prediction behaviour (the `ibp-sim` differential gate
//! proves byte-identical results):
//!
//! * [`TableEncoding::Compact`] slot-packs each entry into 10 bytes — a
//!   raw `u64` target plus a `u16` of metadata (valid bit, the quantized
//!   2-bit counter, the 10-bit tag) — versus ~4× that for the natural
//!   `Option<MarkovEntry>` layout. Lossless because the counter *is*
//!   2 bits and stack tags *are* 10 bits.
//! * [`seal`](MarkovTable::seal) freezes the contents into an
//!   `Arc`-shared base tier with a sparse copy-on-write delta, so a
//!   fleet of sessions forked from one trained stack shares the tables
//!   and pays only for divergence.

use ibp_hw::bitspec::StorageReport;
use ibp_hw::persist::{Part, Persist, PersistError, StateSink, StateSource};
use ibp_hw::{HardwareCost, SparseDelta};
use ibp_isa::Addr;
use ibp_predictors::entry::HysteresisEntry;
use std::sync::Arc;

/// One Markov-table entry: `{target, 2-bit counter}` plus an optional tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MarkovEntry {
    entry: HysteresisEntry,
    tag: u64,
}

impl MarkovEntry {
    /// The stored target.
    pub fn target(&self) -> Addr {
        self.entry.target()
    }

    /// The 2-bit counter value.
    pub fn counter(&self) -> u32 {
        self.entry.counter()
    }

    /// The stored tag (meaningful only in tagged tables).
    pub fn tag(&self) -> u64 {
        self.tag
    }
}

/// How a [`MarkovTable`] lays out its slots in memory. Purely a storage
/// decision: lookups and updates behave identically under both.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum TableEncoding {
    /// `Vec<Option<MarkovEntry>>` — the natural layout.
    #[default]
    Plain,
    /// Slot-packed 10 bytes per entry: `u64` target + `u16` meta
    /// `[valid:1][counter:2][tag:10]`. Requires tags to fit 10 bits,
    /// which the SFSXS stack guarantees (`tag = (pc >> 2) & 0x3FF`).
    Compact,
}

/// Compact meta layout: low 10 bits tag, bits 10..12 counter, bit 12 valid.
const META_VALID: u16 = 1 << 12;
const META_TAG_MASK: u16 = 0x3FF;

/// Slot storage under one of the two encodings.
#[derive(Debug, Clone)]
enum MarkovSlots {
    Plain(Vec<Option<MarkovEntry>>),
    Compact { targets: Vec<u64>, meta: Vec<u16> },
}

impl MarkovSlots {
    fn new(len: usize, encoding: TableEncoding) -> Self {
        match encoding {
            TableEncoding::Plain => MarkovSlots::Plain(vec![None; len]),
            TableEncoding::Compact => MarkovSlots::Compact {
                targets: vec![0; len],
                meta: vec![0; len],
            },
        }
    }

    #[inline]
    // ibp-lint: allow(L007, "caller contract: slot is pre-masked by the power-of-two table size")
    fn get(&self, slot: usize) -> Option<MarkovEntry> {
        match self {
            MarkovSlots::Plain(v) => v[slot],
            MarkovSlots::Compact { targets, meta } => {
                let m = meta[slot];
                if m & META_VALID == 0 {
                    return None;
                }
                Some(MarkovEntry {
                    entry: HysteresisEntry::with_state(
                        Addr::new(targets[slot]),
                        u32::from((m >> 10) & 0x3),
                    ),
                    tag: u64::from(m & META_TAG_MASK),
                })
            }
        }
    }

    #[inline]
    // ibp-lint: allow(L007, "caller contract: slot is pre-masked by the power-of-two table size")
    fn set(&mut self, slot: usize, e: MarkovEntry) {
        match self {
            MarkovSlots::Plain(v) => v[slot] = Some(e),
            MarkovSlots::Compact { targets, meta } => {
                debug_assert!(e.tag <= u64::from(META_TAG_MASK), "compact tag overflow");
                targets[slot] = e.target().raw();
                meta[slot] = META_VALID
                    | (((e.counter() as u16) & 0x3) << 10)
                    | ((e.tag as u16) & META_TAG_MASK);
            }
        }
    }

    fn heap_bytes(&self) -> usize {
        match self {
            MarkovSlots::Plain(v) => v.capacity() * std::mem::size_of::<Option<MarkovEntry>>(),
            MarkovSlots::Compact { targets, meta } => {
                targets.capacity() * std::mem::size_of::<u64>()
                    + meta.capacity() * std::mem::size_of::<u16>()
            }
        }
    }
}

/// Private or sealed (shared base + copy-on-write delta) storage.
#[derive(Debug, Clone)]
enum MarkovStore {
    Private(MarkovSlots),
    Shared {
        base: Arc<MarkovSlots>,
        delta: SparseDelta<MarkovEntry>,
    },
}

/// One order of the PPM predictor: a table of [`MarkovEntry`]s.
///
/// In the paper's configuration the order-`j` table has `2^j` entries,
/// indexed by the `j` high-order bits of the SFSXS signature; any size is
/// accepted here (indexing wraps modulo the table length) so budget sweeps
/// can scale the stack.
#[derive(Debug, Clone)]
pub struct MarkovTable {
    order: u32,
    store: MarkovStore,
    encoding: TableEncoding,
    tagged: bool,
    index_mod: ibp_hw::FastMod,
    /// Entry allocations: updates that turned an invalid (or, when
    /// tagged, mismatching) slot into a fresh entry. Telemetry only.
    allocations: u64,
    /// Updates whose slot held a different branch's tag. In a tagless
    /// table this counts silently-aliased updates (the stored tag is
    /// bookkeeping, not hardware); in a tagged table it counts
    /// reallocations. Telemetry only.
    tag_conflicts: u64,
}

impl MarkovTable {
    /// Creates a table for `order` with `len` entries.
    ///
    /// # Panics
    ///
    /// Panics if `order` or `len` is zero.
    pub fn new(order: u32, len: usize, tagged: bool) -> Self {
        Self::with_encoding(order, len, tagged, TableEncoding::Plain)
    }

    /// Creates a table with an explicit slot encoding.
    ///
    /// # Panics
    ///
    /// Panics if `order` or `len` is zero.
    pub fn with_encoding(order: u32, len: usize, tagged: bool, encoding: TableEncoding) -> Self {
        assert!(order > 0, "Markov order must be non-zero");
        assert!(len > 0, "Markov table must have entries");
        Self {
            order,
            store: MarkovStore::Private(MarkovSlots::new(len, encoding)),
            encoding,
            tagged,
            index_mod: ibp_hw::FastMod::new(len as u64),
            allocations: 0,
            tag_conflicts: 0,
        }
    }

    /// Creates the paper-sized table for `order`: `2^order` entries,
    /// tagless.
    pub fn paper(order: u32) -> Self {
        Self::new(order, 1usize << order, false)
    }

    /// The Markov order of this table.
    pub fn order(&self) -> u32 {
        self.order
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.index_mod.len() as usize
    }

    /// True when no entry is valid.
    pub fn is_empty(&self) -> bool {
        (0..self.len()).all(|i| self.get_slot(i).is_none())
    }

    /// Number of valid entries.
    pub fn occupancy(&self) -> usize {
        (0..self.len()).filter(|&i| self.get_slot(i).is_some()).count()
    }

    /// Whether entries carry tags.
    pub fn is_tagged(&self) -> bool {
        self.tagged
    }

    /// The slot encoding in effect.
    pub fn encoding(&self) -> TableEncoding {
        self.encoding
    }

    /// True once [`seal`](Self::seal) has moved the contents into a
    /// shared base tier.
    pub fn is_sealed(&self) -> bool {
        matches!(self.store, MarkovStore::Shared { .. })
    }

    /// Slots overlaid since sealing (0 for a private table).
    pub fn delta_len(&self) -> usize {
        match &self.store {
            MarkovStore::Private(_) => 0,
            MarkovStore::Shared { delta, .. } => delta.len(),
        }
    }

    #[inline]
    fn slot(&self, index: u64) -> usize {
        self.index_mod.rem(index) as usize
    }

    #[inline]
    fn get_slot(&self, slot: usize) -> Option<MarkovEntry> {
        match &self.store {
            MarkovStore::Private(slots) => slots.get(slot),
            MarkovStore::Shared { base, delta } => match delta.get(slot as u32) {
                Some(overlay) => *overlay,
                None => base.get(slot),
            },
        }
    }

    #[inline]
    fn set_slot(&mut self, slot: usize, e: MarkovEntry) {
        match &mut self.store {
            MarkovStore::Private(slots) => slots.set(slot, e),
            MarkovStore::Shared { delta, .. } => {
                delta.set(slot as u32, Some(e));
            }
        }
    }

    /// Looks up `index`; returns the stored target if the entry is valid
    /// (and, in a tagged table, the tag matches).
    pub fn lookup(&self, index: u64, tag: u64) -> Option<Addr> {
        self.lookup_entry(index, tag).map(|e| e.target())
    }

    /// Looks up `index`, returning the whole entry (target, counter, tag)
    /// if valid and tag-matching — used by the confidence extension to
    /// inspect the 2-bit counter. Returned by value: the compact
    /// encoding has no materialized `MarkovEntry` to borrow.
    #[inline]
    pub fn lookup_entry(&self, index: u64, tag: u64) -> Option<MarkovEntry> {
        let slot = self.slot(index);
        // A private plain table (every offline run's) reads its slot
        // directly; the other layouts go through `get_slot`.
        let e = match &self.store {
            MarkovStore::Private(MarkovSlots::Plain(v)) => v.get(slot).copied().flatten(),
            _ => self.get_slot(slot),
        }?;
        if self.tagged && e.tag != tag {
            return None;
        }
        Some(e)
    }

    /// Applies the resolved target to the selected entry (allocating it if
    /// invalid), per the paper's update rule: set the valid bit, update the
    /// target under 2-bit hysteresis, adjust the counter. In a tagged
    /// table a tag mismatch reallocates the entry for the new branch.
    #[inline]
    pub fn update(&mut self, index: u64, tag: u64, actual: Addr) {
        let slot = self.slot(index);
        let tagged = self.tagged;
        // A private plain table is updated in place; every other layout
        // reads the entry out and writes it back.
        let (allocated, conflicted) = match &mut self.store {
            MarkovStore::Private(MarkovSlots::Plain(v)) => match v.get_mut(slot) {
                Some(cell) => apply_update(cell, tagged, tag, actual),
                None => return,
            },
            _ => {
                let mut cell = self.get_slot(slot);
                let flags = apply_update(&mut cell, tagged, tag, actual);
                if let Some(e) = cell {
                    self.set_slot(slot, e);
                }
                flags
            }
        };
        self.allocations += u64::from(allocated);
        self.tag_conflicts += u64::from(conflicted);
    }

    /// Entry allocations since construction.
    pub fn allocations(&self) -> u64 {
        self.allocations
    }

    /// Updates that hit a slot owned by a different tag — aliasing in a
    /// tagless table, reallocation in a tagged one.
    pub fn tag_conflicts(&self) -> u64 {
        self.tag_conflicts
    }

    /// Hardware cost of this table.
    pub fn cost(&self) -> HardwareCost {
        let tag_bits = if self.tagged { 10 } else { 0 };
        HardwareCost::table(self.len() as u64, 64 + 2 + 1 + tag_bits)
    }
}

/// The update rule on one slot. Returns `(allocated, conflicted)`: the
/// slot became a fresh entry, and it held another branch's tag.
#[inline]
fn apply_update(
    cell: &mut Option<MarkovEntry>,
    tagged: bool,
    tag: u64,
    actual: Addr,
) -> (bool, bool) {
    match cell {
        Some(e) if !tagged || e.tag == tag => {
            // Tagless alias: another branch's state is updated in place,
            // exactly as the hardware would.
            let conflicted = e.tag != tag;
            e.tag = tag;
            e.entry.apply(actual);
            (false, conflicted)
        }
        _ => {
            // Invalid, or a tagged mismatch: the slot is (re)allocated.
            let conflicted = cell.is_some();
            *cell = Some(MarkovEntry {
                entry: HysteresisEntry::new(actual),
                tag,
            });
            (true, conflicted)
        }
    }
}

impl Persist for MarkovTable {
    /// A private table saves its full logical contents (mode 0); a
    /// sealed table saves only its delta (mode 1). Entries are written
    /// logically — `(target, counter, tag)` — so a blob saved under one
    /// encoding loads into the other.
    fn save_state(&self, out: &mut StateSink<'_>) {
        out.u32(self.order);
        out.u64(self.index_mod.len());
        out.bool(self.tagged);
        out.u64(self.allocations);
        out.u64(self.tag_conflicts);
        fn put_entry(out: &mut StateSink<'_>, e: &MarkovEntry) {
            out.u64(e.target().raw());
            out.u8(e.counter() as u8);
            out.u64(e.tag);
        }
        match &self.store {
            MarkovStore::Private(_) => {
                out.u8(0);
                out.usize(self.occupancy());
                let mut prev = 0u64;
                for i in 0..self.len() {
                    if let Some(e) = self.get_slot(i) {
                        out.u64(i as u64 - prev);
                        prev = i as u64;
                        put_entry(out, &e);
                    }
                }
            }
            MarkovStore::Shared { delta, .. } => {
                out.u8(1);
                let mut items: Vec<(u32, Option<MarkovEntry>)> =
                    delta.iter().map(|(k, v)| (k, *v)).collect();
                items.sort_unstable_by_key(|(k, _)| *k);
                out.usize(items.len());
                let mut prev = 0u64;
                for (k, v) in items {
                    out.u64(u64::from(k) - prev);
                    prev = u64::from(k);
                    match v {
                        Some(e) => {
                            out.bool(true);
                            put_entry(out, &e);
                        }
                        None => out.bool(false),
                    }
                }
            }
        }
    }

    fn load_state(&mut self, src: &mut StateSource<'_>) -> Result<(), PersistError> {
        src.expect_u64(u64::from(self.order), "markov table order")?;
        src.expect_u64(self.index_mod.len(), "markov table length")?;
        if src.bool()? != self.tagged {
            return Err(PersistError::Mismatch("markov table tagging"));
        }
        let allocations = src.u64()?;
        let tag_conflicts = src.u64()?;
        fn get_entry(src: &mut StateSource<'_>) -> Result<MarkovEntry, PersistError> {
            let target = Addr::new(src.u64()?);
            let counter = src.u8()?;
            if counter > 3 {
                return Err(PersistError::Corrupt("markov counter value"));
            }
            let tag = src.u64()?;
            Ok(MarkovEntry {
                entry: HysteresisEntry::with_state(target, u32::from(counter)),
                tag,
            })
        }
        let len = self.len();
        match src.u8()? {
            0 => {
                let count = src.usize()?;
                if count > len {
                    return Err(PersistError::Corrupt("markov occupancy exceeds length"));
                }
                let mut slots = MarkovSlots::new(len, self.encoding);
                let mut slot = 0u64;
                for _ in 0..count {
                    slot = slot
                        .checked_add(src.u64()?)
                        .ok_or(PersistError::Corrupt("markov slot out of range"))?;
                    let idx = usize::try_from(slot)
                        .ok()
                        .filter(|&i| i < len)
                        .ok_or(PersistError::Corrupt("markov slot out of range"))?;
                    let e = get_entry(src)?;
                    if self.encoding == TableEncoding::Compact && e.tag > u64::from(META_TAG_MASK)
                    {
                        return Err(PersistError::Corrupt("tag too wide for compact encoding"));
                    }
                    slots.set(idx, e);
                }
                self.store = MarkovStore::Private(slots);
            }
            1 => {
                let MarkovStore::Shared { delta, .. } = &mut self.store else {
                    return Err(PersistError::Mismatch("delta blob requires a sealed table"));
                };
                *delta = SparseDelta::new();
                let count = src.usize()?;
                let mut slot = 0u64;
                for _ in 0..count {
                    slot = slot
                        .checked_add(src.u64()?)
                        .ok_or(PersistError::Corrupt("markov slot out of range"))?;
                    let idx = u32::try_from(slot)
                        .ok()
                        .filter(|&k| (k as usize) < len)
                        .ok_or(PersistError::Corrupt("markov delta slot out of range"))?;
                    let value = if src.bool()? { Some(get_entry(src)?) } else { None };
                    delta.set(idx, value);
                }
            }
            _ => return Err(PersistError::Corrupt("unknown markov blob mode")),
        }
        self.allocations = allocations;
        self.tag_conflicts = tag_conflicts;
        Ok(())
    }

    /// Freezes the current contents into an immutable, shared base tier
    /// with an empty copy-on-write delta (see the module doc).
    /// Re-sealing flattens the delta into a fresh base.
    fn seal(&mut self) {
        let mut flat = MarkovSlots::new(self.len(), self.encoding);
        for i in 0..self.len() {
            if let Some(e) = self.get_slot(i) {
                flat.set(i, e);
            }
        }
        self.store = MarkovStore::Shared {
            base: Arc::new(flat),
            delta: SparseDelta::new(),
        };
    }

    /// The slot array when private, only the copy-on-write delta when
    /// sealed.
    fn resident_bytes(&self) -> usize {
        match &self.store {
            MarkovStore::Private(slots) => slots.heap_bytes(),
            MarkovStore::Shared { delta, .. } => delta.resident_bytes(),
        }
    }

    fn report_rows(&self, part: Part<'_>, r: &mut StorageReport) {
        part.emit_rows(self.len() as u64, r);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_sizing_is_two_to_the_order() {
        for j in 1..=10 {
            assert_eq!(MarkovTable::paper(j).len(), 1 << j);
        }
        // Orders 1..=10 total 2046 entries — the paper's "2K total".
        let total: usize = (1..=10).map(|j| MarkovTable::paper(j).len()).sum();
        assert_eq!(total, 2046);
    }

    #[test]
    fn invalid_entries_do_not_predict() {
        let t = MarkovTable::paper(3);
        assert_eq!(t.lookup(0, 0), None);
        assert!(t.is_empty());
    }

    #[test]
    fn update_allocates_and_lookup_hits() {
        let mut t = MarkovTable::paper(3);
        t.update(5, 0, Addr::new(0x900));
        assert_eq!(t.lookup(5, 0), Some(Addr::new(0x900)));
        assert_eq!(t.occupancy(), 1);
    }

    #[test]
    fn two_consecutive_misses_replace_target() {
        let mut t = MarkovTable::paper(3);
        t.update(5, 0, Addr::new(0x900));
        t.update(5, 0, Addr::new(0xA00)); // miss 1
        assert_eq!(t.lookup(5, 0), Some(Addr::new(0x900)));
        t.update(5, 0, Addr::new(0xA00)); // miss 2
        assert_eq!(t.lookup(5, 0), Some(Addr::new(0xA00)));
    }

    #[test]
    fn tagless_table_aliases() {
        let mut t = MarkovTable::new(2, 4, false);
        t.update(1, 111, Addr::new(0x900));
        // Same slot, different "tag": tagless tables don't care.
        assert_eq!(t.lookup(5, 222), Some(Addr::new(0x900)));
    }

    #[test]
    fn tagged_table_rejects_foreign_tags() {
        let mut t = MarkovTable::new(2, 4, true);
        t.update(1, 111, Addr::new(0x900));
        assert_eq!(t.lookup(1, 111), Some(Addr::new(0x900)));
        assert_eq!(t.lookup(1, 222), None);
        // A mismatching update reallocates the slot.
        t.update(1, 222, Addr::new(0xA00));
        assert_eq!(t.lookup(1, 222), Some(Addr::new(0xA00)));
        assert_eq!(t.lookup(1, 111), None);
    }

    #[test]
    fn cost_charges_tags() {
        let tagless = MarkovTable::new(3, 8, false).cost();
        let tagged = MarkovTable::new(3, 8, true).cost();
        assert_eq!(tagless.entries(), 8);
        assert!(tagged.bits() > tagless.bits());
    }

    #[test]
    #[should_panic(expected = "order must be non-zero")]
    fn zero_order_panics() {
        let _ = MarkovTable::new(0, 4, false);
    }

    /// Drives the same update/lookup sequence through both encodings and
    /// requires identical observable behaviour at every step.
    #[test]
    fn compact_encoding_is_behaviourally_identical() {
        for tagged in [false, true] {
            let mut plain = MarkovTable::with_encoding(4, 16, tagged, TableEncoding::Plain);
            let mut compact = MarkovTable::with_encoding(4, 16, tagged, TableEncoding::Compact);
            let mut x = 0x1234_5678_9ABC_DEF0u64;
            for step in 0..2000 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let index = x >> 40;
                let tag = (x >> 20) & 0x3FF; // stack tags are 10 bits
                let actual = Addr::new((x & 0xFFFF) << 2);
                assert_eq!(
                    plain.lookup_entry(index, tag),
                    compact.lookup_entry(index, tag),
                    "lookup diverged at step {step} (tagged={tagged})"
                );
                plain.update(index, tag, actual);
                compact.update(index, tag, actual);
            }
            assert_eq!(plain.occupancy(), compact.occupancy());
            assert_eq!(plain.allocations(), compact.allocations());
            assert_eq!(plain.tag_conflicts(), compact.tag_conflicts());
        }
    }

    #[test]
    fn compact_encoding_shrinks_resident_bytes() {
        let plain = MarkovTable::with_encoding(10, 1024, false, TableEncoding::Plain);
        let compact = MarkovTable::with_encoding(10, 1024, false, TableEncoding::Compact);
        assert!(
            compact.resident_bytes() * 2 < plain.resident_bytes(),
            "compact {} vs plain {}",
            compact.resident_bytes(),
            plain.resident_bytes()
        );
    }

    #[test]
    fn sealed_table_shares_base_and_diverges_via_delta() {
        let mut t = MarkovTable::paper(4);
        t.update(3, 7, Addr::new(0x900));
        t.seal();
        assert!(t.is_sealed());
        let fork = t.clone();
        t.update(3, 7, Addr::new(0x900)); // reinforce via delta
        assert_eq!(t.delta_len(), 1);
        assert_eq!(fork.delta_len(), 0);
        assert_eq!(t.lookup_entry(3, 7).unwrap().counter(), 2);
        assert_eq!(fork.lookup_entry(3, 7).unwrap().counter(), 1);
        assert!(t.resident_bytes() < MarkovTable::paper(4).resident_bytes());
    }

    #[test]
    fn persist_full_round_trip_across_encodings() {
        let mut t = MarkovTable::with_encoding(4, 16, false, TableEncoding::Plain);
        for (i, tgt) in [(1u64, 0x900u64), (5, 0xA00), (9, 0xB00)] {
            t.update(i, (i * 3) & 0x3FF, Addr::new(tgt));
        }
        let mut blob = Vec::new();
        t.save_state(&mut StateSink::new(&mut blob));
        // Load into a compact table: entries are logical.
        let mut compact = MarkovTable::with_encoding(4, 16, false, TableEncoding::Compact);
        compact.load_state(&mut StateSource::new(&blob)).unwrap();
        for i in [1u64, 5, 9] {
            assert_eq!(
                compact.lookup_entry(i, (i * 3) & 0x3FF),
                t.lookup_entry(i, (i * 3) & 0x3FF)
            );
        }
        assert_eq!(compact.allocations(), t.allocations());
        // Geometry mismatch is rejected.
        let mut wrong = MarkovTable::new(4, 8, false);
        assert!(wrong.load_state(&mut StateSource::new(&blob)).is_err());
    }

    #[test]
    fn persist_delta_round_trip() {
        let mut base = MarkovTable::paper(4);
        base.update(2, 5, Addr::new(0x900));
        base.seal();
        let mut session = base.clone();
        session.update(2, 5, Addr::new(0x900));
        session.update(7, 9, Addr::new(0xA00));
        let mut blob = Vec::new();
        session.save_state(&mut StateSink::new(&mut blob));
        let mut restored = base.clone();
        restored.load_state(&mut StateSource::new(&blob)).unwrap();
        assert_eq!(restored.lookup_entry(2, 5), session.lookup_entry(2, 5));
        assert_eq!(restored.lookup_entry(7, 9), session.lookup_entry(7, 9));
        assert_eq!(restored.delta_len(), 2);
        // Delta blobs need a sealed receiver.
        let mut unsealed = MarkovTable::paper(4);
        assert!(unsealed.load_state(&mut StateSource::new(&blob)).is_err());
    }
}
