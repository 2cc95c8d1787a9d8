//! Prediction tables.
//!
//! Two table organizations cover every predictor in the paper:
//!
//! * [`DirectMapped`] — a *tagless* table. The paper deliberately explores
//!   tagless designs (cheaper in area); a lookup always lands somewhere and
//!   aliasing between branches is part of the modelled behaviour. A `valid`
//!   notion is kept per entry because the PPM predictor's fallback chain is
//!   driven by valid bits.
//! * [`SetAssociative`] — a *tagged*, set-associative table with true-LRU
//!   replacement, required by the Cascade predictor (its PHTs are 4-way
//!   associative with true LRU) and by the tagged-PPM ablation.
//!
//! For multi-tenant serving, a [`DirectMapped`] table can be
//! [`sealed`](Persist::seal): its contents move into an `Arc`-shared
//! immutable **base tier** and subsequent writes land in a per-instance
//! [`SparseDelta`] copy-on-write overlay (read path = delta, then base).
//! Cloning a sealed table shares the base and clones only the small
//! delta, so a million sessions forked from one trained prototype pay for
//! their divergence, not for the tables. `SetAssociative` stays private:
//! its true-LRU bookkeeping mutates on every *read* (the clock and
//! per-way timestamps), so an overlay would converge to a full copy of
//! the table after one scan and share nothing.

use crate::bitspec::StorageReport;
use crate::persist::{
    Part, Persist, PersistElem, PersistError, SparseDelta, StateSink, StateSource,
};
use std::sync::Arc;

/// Exact `x % len` via Lemire's fastmod: two multiplies instead of a
/// hardware divide. Table probes reduce an arbitrary 64-bit index onto a
/// slot on every predict/update — on the simulation hot path the `div`
/// latency of `%` dominates the probe itself.
///
/// # Examples
///
/// ```
/// use ibp_hw::table::FastMod;
///
/// let m = FastMod::new(2046);
/// assert_eq!(m.rem(4093), 4093 % 2046);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FastMod {
    len: u64,
    /// ceil(2^128 / len): the 128-bit fixed-point reciprocal.
    mul: u128,
    /// `len - 1` when `len` is a power of two, else `u64::MAX` (sentinel:
    /// the mask fast path never fires). Every paper-configuration table is
    /// power-of-two sized, so the common probe is a single AND; the
    /// multiply chain only serves the sweep's odd sizes.
    pow2_mask: u64,
}

impl FastMod {
    /// Prepares reduction modulo `len`.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    pub fn new(len: u64) -> Self {
        assert!(len > 0, "modulus must be non-zero");
        Self {
            len,
            // Wraps to 0 for len == 1, which is fine: 1 is a power of two,
            // so `rem` takes the mask path and `mul` is never read.
            mul: (u128::MAX / len as u128).wrapping_add(1),
            pow2_mask: if len.is_power_of_two() {
                len - 1
            } else {
                u64::MAX
            },
        }
    }

    /// The modulus.
    #[allow(clippy::len_without_is_empty)] // a modulus is never zero (`new` asserts it)
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Computes `x % self.len()` exactly, for every `x`.
    #[inline]
    pub fn rem(&self, x: u64) -> u64 {
        if self.pow2_mask != u64::MAX {
            return x & self.pow2_mask;
        }
        // lowbits = frac(x / len) in 128-bit fixed point; multiplying by
        // len and keeping the high 128 bits recovers the remainder.
        let lowbits = self.mul.wrapping_mul(x as u128);
        let bottom = (lowbits as u64 as u128) * self.len as u128;
        let top = (lowbits >> 64) * self.len as u128;
        ((top + (bottom >> 64)) >> 64) as u64
    }
}

/// A tagless direct-mapped table of `len` entries.
///
/// Indexing is by `index % len`, so non-power-of-two sizes are allowed (the
/// PPM Markov stack totals 2046 entries). An entry is either vacant
/// (`valid == false`) or holds a `T`.
///
/// # Examples
///
/// ```
/// use ibp_hw::table::DirectMapped;
///
/// let mut t: DirectMapped<u64> = DirectMapped::new(4);
/// assert!(t.get(9).is_none());
/// t.insert(9, 0xBEEF); // lands in slot 1
/// assert_eq!(t.get(5), Some(&0xBEEF)); // 5 % 4 == 1: aliasing is real
/// ```
#[derive(Debug, Clone)]
pub struct DirectMapped<T> {
    slots: Slots<T>,
    index_mod: FastMod,
    /// Inserts that displaced a valid entry (telemetry only).
    evictions: u64,
}

/// Storage behind a [`DirectMapped`] table: fully private before
/// sealing, shared-base-plus-delta after.
#[derive(Debug, Clone)]
enum Slots<T> {
    /// The classic representation: this instance owns every slot.
    Private(Vec<Option<T>>),
    /// Sealed: an immutable base tier shared across clones plus a
    /// sparse copy-on-write overlay private to this instance. A delta
    /// entry shadows the base slot entirely (including `None`, which
    /// records an invalidation).
    Shared {
        base: Arc<Vec<Option<T>>>,
        delta: SparseDelta<T>,
    },
}

// Telemetry counters are excluded from equality: two tables with the
// same contents are equal regardless of how much aliasing it took to
// get there. Comparison is *logical* — a sealed base+delta table equals
// a private table holding the same entries.
impl<T: PartialEq> PartialEq for DirectMapped<T> {
    fn eq(&self, other: &Self) -> bool {
        self.index_mod == other.index_mod
            && (0..self.len()).all(|i| self.slot_ref(i) == other.slot_ref(i))
    }
}

impl<T: Eq> Eq for DirectMapped<T> {}

impl<T> DirectMapped<T> {
    /// Creates an empty table with `len` entries.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    pub fn new(len: usize) -> Self {
        assert!(len > 0, "table must have at least one entry");
        Self {
            slots: Slots::Private((0..len).map(|_| None).collect()),
            index_mod: FastMod::new(len as u64),
            evictions: 0,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.index_mod.len() as usize
    }

    /// True when no entry is valid.
    pub fn is_empty(&self) -> bool {
        (0..self.len()).all(|i| self.slot_ref(i).is_none())
    }

    /// Number of valid entries.
    pub fn occupancy(&self) -> usize {
        (0..self.len()).filter(|&i| self.slot_ref(i).is_some()).count()
    }

    /// Maps an arbitrary index onto a slot number.
    #[inline]
    pub fn slot_of(&self, index: u64) -> usize {
        self.index_mod.rem(index) as usize
    }

    /// The logical content of `slot`: delta first, then the shared base.
    #[inline]
    // ibp-lint: allow(L007, "slot index is masked by the power-of-two table size")
    fn slot_ref(&self, slot: usize) -> Option<&T> {
        match &self.slots {
            Slots::Private(v) => v[slot].as_ref(),
            Slots::Shared { base, delta } => match delta.get(slot as u32) {
                Some(overlay) => overlay.as_ref(),
                None => base[slot].as_ref(),
            },
        }
    }

    /// Returns the entry selected by `index`, if valid.
    #[inline]
    pub fn get(&self, index: u64) -> Option<&T> {
        self.slot_ref(self.slot_of(index))
    }

    /// True when the selected entry is valid.
    pub fn is_valid(&self, index: u64) -> bool {
        self.get(index).is_some()
    }

    /// Inserts that displaced a valid entry since construction: the
    /// table's aliasing pressure.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// True once [`seal`](Self::seal) has moved the contents into a
    /// shared base tier.
    pub fn is_sealed(&self) -> bool {
        matches!(self.slots, Slots::Shared { .. })
    }

    /// Slots overlaid since sealing (0 for a private table): the
    /// session's divergence from the base tier.
    pub fn delta_len(&self) -> usize {
        match &self.slots {
            Slots::Private(_) => 0,
            Slots::Shared { delta, .. } => delta.len(),
        }
    }

    /// Iterates over `(slot, entry)` pairs for valid entries.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &T)> {
        (0..self.len()).filter_map(|i| self.slot_ref(i).map(|v| (i, v)))
    }
}

impl<T: Clone> DirectMapped<T> {
    /// The selected slot as a mutable `Option`, materializing a private
    /// copy of the base entry into the delta when sealed.
    #[inline]
    // ibp-lint: allow(L007, "slot index is masked by the power-of-two table size")
    fn slot_entry_mut(&mut self, slot: usize) -> &mut Option<T> {
        match &mut self.slots {
            Slots::Private(v) => &mut v[slot],
            Slots::Shared { base, delta } => {
                delta.materialize_with(slot as u32, || base[slot].clone())
            }
        }
    }

    /// Returns the entry selected by `index` mutably, if valid.
    #[inline]
    pub fn get_mut(&mut self, index: u64) -> Option<&mut T> {
        let slot = self.slot_of(index);
        self.slot_entry_mut(slot).as_mut()
    }

    /// Writes `value` into the selected slot, returning the displaced entry.
    pub fn insert(&mut self, index: u64, value: T) -> Option<T> {
        let slot = self.slot_of(index);
        let displaced = self.slot_entry_mut(slot).replace(value);
        if displaced.is_some() {
            self.evictions += 1;
        }
        displaced
    }

    /// Returns the selected entry, inserting `default()` first if vacant.
    pub fn get_or_insert_with(&mut self, index: u64, default: impl FnOnce() -> T) -> &mut T {
        let slot = self.slot_of(index);
        self.slot_entry_mut(slot).get_or_insert_with(default)
    }

    /// Invalidates the selected entry, returning it.
    pub fn invalidate(&mut self, index: u64) -> Option<T> {
        let slot = self.slot_of(index);
        self.slot_entry_mut(slot).take()
    }
}

impl<T: PersistElem + Clone> Persist for DirectMapped<T> {
    /// A private table saves its full contents (mode 0); a sealed table
    /// saves *only the delta* (mode 1) — the base tier is reconstructed
    /// by the restoring side from the same prototype.
    fn save_state(&self, out: &mut StateSink<'_>) {
        out.u64(self.index_mod.len());
        out.u64(self.evictions);
        match &self.slots {
            Slots::Private(v) => {
                out.u8(0);
                out.usize(v.iter().filter(|e| e.is_some()).count());
                let mut prev = 0u64;
                for (i, e) in v.iter().enumerate() {
                    if let Some(e) = e {
                        out.u64(i as u64 - prev);
                        prev = i as u64;
                        e.save_elem(out);
                    }
                }
            }
            Slots::Shared { delta, .. } => {
                out.u8(1);
                let mut items: Vec<(u32, &Option<T>)> = delta.iter().collect();
                items.sort_unstable_by_key(|(k, _)| *k);
                out.usize(items.len());
                let mut prev = 0u64;
                for (k, v) in items {
                    out.u64(u64::from(k) - prev);
                    prev = u64::from(k);
                    match v {
                        Some(e) => {
                            out.bool(true);
                            e.save_elem(out);
                        }
                        None => out.bool(false),
                    }
                }
            }
        }
    }

    // ibp-lint: allow(L007, "slot indices are range-checked against the table geometry before use")
    fn load_state(&mut self, src: &mut StateSource<'_>) -> Result<(), PersistError> {
        src.expect_u64(self.index_mod.len(), "direct-mapped table length")?;
        let evictions = src.u64()?;
        let len = self.len();
        match src.u8()? {
            0 => {
                let count = src.usize()?;
                if count > len {
                    return Err(PersistError::Corrupt("table occupancy exceeds length"));
                }
                let mut v: Vec<Option<T>> = (0..len).map(|_| None).collect();
                let mut slot = 0u64;
                for _ in 0..count {
                    slot = slot
                        .checked_add(src.u64()?)
                        .ok_or(PersistError::Corrupt("table slot out of range"))?;
                    let idx = usize::try_from(slot)
                        .ok()
                        .filter(|&i| i < len)
                        .ok_or(PersistError::Corrupt("table slot out of range"))?;
                    v[idx] = Some(T::load_elem(src)?);
                }
                self.slots = Slots::Private(v);
            }
            1 => {
                let Slots::Shared { delta, .. } = &mut self.slots else {
                    return Err(PersistError::Mismatch("delta blob requires a sealed table"));
                };
                *delta = SparseDelta::new();
                let count = src.usize()?;
                let mut slot = 0u64;
                for _ in 0..count {
                    slot = slot
                        .checked_add(src.u64()?)
                        .ok_or(PersistError::Corrupt("table slot out of range"))?;
                    let idx = u32::try_from(slot)
                        .ok()
                        .filter(|&k| (k as usize) < len)
                        .ok_or(PersistError::Corrupt("delta slot out of range"))?;
                    let value = if src.bool()? {
                        Some(T::load_elem(src)?)
                    } else {
                        None
                    };
                    delta.set(idx, value);
                }
            }
            _ => return Err(PersistError::Corrupt("unknown table blob mode")),
        }
        self.evictions = evictions;
        Ok(())
    }

    /// Freezes the current contents into an immutable, `Arc`-shared
    /// **base tier** and starts an empty copy-on-write delta. Clones
    /// taken after sealing share the base and own only their deltas;
    /// behaviour is proven byte-identical to a private table by the
    /// differential gate in `ibp-sim`. Re-sealing flattens the current
    /// delta into a fresh base.
    fn seal(&mut self) {
        let flat: Vec<Option<T>> = (0..self.len()).map(|i| self.slot_ref(i).cloned()).collect();
        self.slots = Slots::Shared {
            base: Arc::new(flat),
            delta: SparseDelta::new(),
        };
    }

    /// The full slot array when private, only the copy-on-write overlay
    /// when sealed (the base tier is shared and charged once, not per
    /// clone).
    fn resident_bytes(&self) -> usize {
        match &self.slots {
            Slots::Private(v) => v.capacity() * std::mem::size_of::<Option<T>>(),
            Slots::Shared { delta, .. } => delta.resident_bytes(),
        }
    }

    fn report_rows(&self, part: Part<'_>, r: &mut StorageReport) {
        part.emit_rows(self.len() as u64, r);
    }
}

/// One way of a set-associative table: tag plus payload.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Way<T> {
    tag: u64,
    value: T,
    /// Monotonic timestamp of last touch; larger = more recent.
    last_use: u64,
}

/// A tagged set-associative table with true-LRU replacement.
///
/// Lookups compare full tags within the selected set; on insertion into a
/// full set the least-recently-used way is evicted. Timestamps are
/// maintained per table, giving *true* LRU as the Cascade configuration
/// requires (not pseudo-LRU).
///
/// # Examples
///
/// ```
/// use ibp_hw::table::SetAssociative;
///
/// let mut t: SetAssociative<u32> = SetAssociative::new(2, 2);
/// t.insert(0, 100, 1);
/// t.insert(0, 200, 2);
/// t.insert(0, 300, 3); // evicts tag 100 (LRU)
/// assert!(t.get(0, 100).is_none());
/// assert_eq!(t.get(0, 300), Some(&3));
/// ```
#[derive(Debug, Clone)]
pub struct SetAssociative<T> {
    /// Flat `sets * ways` storage; set `s` occupies the slice
    /// `[s * ways, (s + 1) * ways)`. One contiguous allocation keeps set
    /// scans on a single cache line instead of chasing a per-set `Vec`.
    store: Vec<Option<Way<T>>>,
    num_sets: usize,
    ways: usize,
    clock: u64,
    set_mod: FastMod,
    /// LRU victims displaced by inserts into full sets (telemetry only).
    evictions: u64,
}

// Telemetry counters are excluded from equality; LRU state (`clock`,
// per-way timestamps) still participates, exactly as under the old
// derived impl.
impl<T: PartialEq> PartialEq for SetAssociative<T> {
    fn eq(&self, other: &Self) -> bool {
        self.store == other.store
            && self.num_sets == other.num_sets
            && self.ways == other.ways
            && self.clock == other.clock
            && self.set_mod == other.set_mod
    }
}

impl<T: Eq> Eq for SetAssociative<T> {}

impl<T> SetAssociative<T> {
    /// Creates a table with `sets` sets of `ways` ways each.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `ways` is zero.
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(sets > 0 && ways > 0, "sets and ways must be non-zero");
        Self {
            store: (0..sets * ways).map(|_| None).collect(),
            num_sets: sets,
            ways,
            clock: 0,
            set_mod: FastMod::new(sets as u64),
            evictions: 0,
        }
    }

    /// Total capacity in entries (`sets * ways`).
    pub fn capacity(&self) -> usize {
        self.num_sets * self.ways
    }

    /// Number of sets.
    pub fn num_sets(&self) -> usize {
        self.num_sets
    }

    /// Associativity.
    pub fn num_ways(&self) -> usize {
        self.ways
    }

    /// Number of occupied ways across all sets.
    pub fn occupancy(&self) -> usize {
        self.store.iter().filter(|w| w.is_some()).count()
    }

    #[inline]
    fn set_of(&self, index: u64) -> usize {
        self.set_mod.rem(index) as usize
    }

    #[inline]
    // ibp-lint: allow(L007, "set index is masked by the power-of-two set count")
    fn set_slice_mut(&mut self, set: usize) -> &mut [Option<Way<T>>] {
        &mut self.store[set * self.ways..(set + 1) * self.ways]
    }

    /// Looks up `(index, tag)` and refreshes its LRU position on a hit.
    pub fn get(&mut self, index: u64, tag: u64) -> Option<&T> {
        self.get_mut(index, tag).map(|v| &*v)
    }

    /// Looks up `(index, tag)` mutably and refreshes its LRU position.
    pub fn get_mut(&mut self, index: u64, tag: u64) -> Option<&mut T> {
        let set = self.set_of(index);
        self.clock += 1;
        let clock = self.clock;
        self.set_slice_mut(set)
            .iter_mut()
            .filter_map(|w| w.as_mut())
            .find(|w| w.tag == tag)
            .map(|w| {
                w.last_use = clock;
                &mut w.value
            })
    }

    /// Looks up without disturbing LRU state (probe).
    pub fn peek(&self, index: u64, tag: u64) -> Option<&T> {
        let set = self.set_of(index);
        self.store[set * self.ways..(set + 1) * self.ways]
            .iter()
            .filter_map(|w| w.as_ref())
            .find(|w| w.tag == tag)
            .map(|w| &w.value)
    }

    /// Inserts (or overwrites) `(index, tag) -> value`, evicting the LRU way
    /// of a full set. Returns the evicted `(tag, value)` if any.
    // ibp-lint: allow(L007, "way index comes from the victim policy, bounded by associativity")
    pub fn insert(&mut self, index: u64, tag: u64, value: T) -> Option<(u64, T)> {
        let set = self.set_of(index);
        self.clock += 1;
        let clock = self.clock;
        let slice = self.set_slice_mut(set);
        // Existing way for this tag: overwrite in place.
        if let Some(w) = slice.iter_mut().filter_map(|w| w.as_mut()).find(|w| w.tag == tag) {
            w.value = value;
            w.last_use = clock;
            return None;
        }
        // A vacant way, if any; otherwise the true-LRU victim (clock
        // values are unique, so the victim is unique and deterministic).
        let mut victim = 0;
        let mut victim_use = u64::MAX;
        for (i, w) in slice.iter().enumerate() {
            match w {
                None => {
                    victim = i;
                    break;
                }
                Some(w) if w.last_use < victim_use => {
                    victim = i;
                    victim_use = w.last_use;
                }
                Some(_) => {}
            }
        }
        let old = slice[victim].replace(Way {
            tag,
            value,
            last_use: clock,
        });
        if old.is_some() {
            self.evictions += 1;
        }
        old.map(|w| (w.tag, w.value))
    }

    /// LRU victims displaced since construction: the table's conflict
    /// pressure.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Removes `(index, tag)` and returns its value.
    pub fn invalidate(&mut self, index: u64, tag: u64) -> Option<T> {
        let set = self.set_of(index);
        let slot = self
            .set_slice_mut(set)
            .iter_mut()
            .find(|w| w.as_ref().is_some_and(|w| w.tag == tag))?;
        slot.take().map(|w| w.value)
    }}

impl<T: PersistElem> Persist for SetAssociative<T> {
    /// Full-state only: LRU timestamps are behavioural (they pick
    /// eviction victims), so an exact restore must carry every way's
    /// `last_use` and the table clock.
    fn save_state(&self, out: &mut StateSink<'_>) {
        out.u64(self.num_sets as u64);
        out.u64(self.ways as u64);
        out.u64(self.clock);
        out.u64(self.evictions);
        out.usize(self.store.iter().filter(|w| w.is_some()).count());
        let mut prev = 0u64;
        for (i, w) in self.store.iter().enumerate() {
            if let Some(w) = w {
                out.u64(i as u64 - prev);
                prev = i as u64;
                out.u64(w.tag);
                out.u64(w.last_use);
                w.value.save_elem(out);
            }
        }
    }

    // ibp-lint: allow(L007, "slot indices are range-checked against the table geometry before use")
    fn load_state(&mut self, src: &mut StateSource<'_>) -> Result<(), PersistError> {
        src.expect_u64(self.num_sets as u64, "set-associative sets")?;
        src.expect_u64(self.ways as u64, "set-associative ways")?;
        let clock = src.u64()?;
        let evictions = src.u64()?;
        let count = src.usize()?;
        let cap = self.num_sets * self.ways;
        if count > cap {
            return Err(PersistError::Corrupt("way occupancy exceeds capacity"));
        }
        let mut store: Vec<Option<Way<T>>> = (0..cap).map(|_| None).collect();
        let mut slot = 0u64;
        for _ in 0..count {
            slot = slot
                .checked_add(src.u64()?)
                .ok_or(PersistError::Corrupt("table slot out of range"))?;
            let idx = usize::try_from(slot)
                .ok()
                .filter(|&i| i < cap)
                .ok_or(PersistError::Corrupt("way slot out of range"))?;
            let tag = src.u64()?;
            let last_use = src.u64()?;
            let value = T::load_elem(src)?;
            store[idx] = Some(Way {
                tag,
                value,
                last_use,
            });
        }
        self.store = store;
        self.clock = clock;
        self.evictions = evictions;
        Ok(())
    }

    /// The way array. Set-associative tables are never sealed (true-LRU
    /// mutates on reads — see the module doc), so the whole store is
    /// always private, per-instance state.
    fn resident_bytes(&self) -> usize {
        self.store.capacity() * std::mem::size_of::<Option<Way<T>>>()
    }

    fn report_rows(&self, part: Part<'_>, r: &mut StorageReport) {
        part.emit_rows(self.capacity() as u64, r);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fastmod_matches_hardware_modulo() {
        // Every table length the paper's configurations produce, plus
        // adversarial ones, over indices spanning the whole u64 range.
        let lens = [1u64, 2, 3, 7, 127, 128, 1023, 1024, 2046, 2048, u64::MAX];
        let xs = [
            0u64,
            1,
            2,
            2045,
            2046,
            2047,
            12345,
            (1 << 32) - 1,
            1 << 32,
            u64::MAX - 1,
            u64::MAX,
        ];
        for &len in &lens {
            let m = FastMod::new(len);
            assert_eq!(m.len(), len);
            for &x in &xs {
                assert_eq!(m.rem(x), x % len, "x = {x}, len = {len}");
            }
        }
        // Pseudo-random sweep (LCG) across mixed magnitudes.
        let mut x = 0x9E3779B97F4A7C15u64;
        for _ in 0..10_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let len = (x >> 32).max(1);
            let m = FastMod::new(len);
            assert_eq!(m.rem(x), x % len);
        }
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn fastmod_zero_panics() {
        let _ = FastMod::new(0);
    }

    #[test]
    fn direct_mapped_basic_insert_get() {
        let mut t: DirectMapped<u32> = DirectMapped::new(8);
        assert_eq!(t.len(), 8);
        assert!(t.is_empty());
        assert!(t.insert(3, 30).is_none());
        assert_eq!(t.get(3), Some(&30));
        assert!(t.is_valid(3));
        assert!(!t.is_valid(4));
        assert_eq!(t.occupancy(), 1);
    }

    #[test]
    fn direct_mapped_aliases_via_modulo() {
        let mut t: DirectMapped<u32> = DirectMapped::new(4);
        t.insert(1, 10);
        assert_eq!(t.get(5), Some(&10));
        assert_eq!(t.insert(9, 90), Some(10)); // displaces the alias
        assert_eq!(t.get(1), Some(&90));
    }

    #[test]
    fn direct_mapped_non_power_of_two() {
        // The PPM Markov stack totals 2046 entries; modulo indexing must
        // work for any length.
        let mut t: DirectMapped<u8> = DirectMapped::new(2046);
        t.insert(2046, 1);
        assert_eq!(t.get(0), Some(&1));
        assert_eq!(t.slot_of(4093), 4093 % 2046);
    }

    #[test]
    fn direct_mapped_invalidate_and_clear() {
        let mut t: DirectMapped<u32> = DirectMapped::new(2);
        t.insert(0, 1);
        t.insert(1, 2);
        assert_eq!(t.invalidate(0), Some(1));
        assert!(t.get(0).is_none());
        assert_eq!(t.invalidate(1), Some(2));
        assert!(t.is_empty());
    }

    #[test]
    fn direct_mapped_get_or_insert_with() {
        let mut t: DirectMapped<u32> = DirectMapped::new(2);
        *t.get_or_insert_with(0, || 5) += 1;
        assert_eq!(t.get(0), Some(&6));
        *t.get_or_insert_with(0, || 100) += 1;
        assert_eq!(t.get(0), Some(&7));
    }

    #[test]
    fn direct_mapped_iter_lists_valid_only() {
        let mut t: DirectMapped<u32> = DirectMapped::new(4);
        t.insert(1, 10);
        t.insert(3, 30);
        let got: Vec<(usize, u32)> = t.iter().map(|(i, v)| (i, *v)).collect();
        assert_eq!(got, vec![(1, 10), (3, 30)]);
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn direct_mapped_zero_len_panics() {
        let _: DirectMapped<u8> = DirectMapped::new(0);
    }

    #[test]
    fn set_assoc_hit_and_miss() {
        let mut t: SetAssociative<u32> = SetAssociative::new(4, 2);
        assert!(t.get(0, 0xA).is_none());
        t.insert(0, 0xA, 1);
        assert_eq!(t.get(0, 0xA), Some(&1));
        assert!(t.get(0, 0xB).is_none());
        assert_eq!(t.capacity(), 8);
    }

    #[test]
    fn set_assoc_true_lru_eviction() {
        let mut t: SetAssociative<u32> = SetAssociative::new(1, 2);
        t.insert(0, 1, 10);
        t.insert(0, 2, 20);
        // Touch tag 1 so tag 2 becomes LRU.
        assert_eq!(t.get(0, 1), Some(&10));
        let evicted = t.insert(0, 3, 30);
        assert_eq!(evicted, Some((2, 20)));
        assert_eq!(t.get(0, 1), Some(&10));
        assert_eq!(t.get(0, 3), Some(&30));
    }

    #[test]
    fn set_assoc_overwrite_same_tag_does_not_evict() {
        let mut t: SetAssociative<u32> = SetAssociative::new(1, 2);
        t.insert(0, 1, 10);
        t.insert(0, 2, 20);
        assert!(t.insert(0, 1, 11).is_none());
        assert_eq!(t.get(0, 1), Some(&11));
        assert_eq!(t.occupancy(), 2);
    }

    #[test]
    fn set_assoc_peek_does_not_touch_lru() {
        let mut t: SetAssociative<u32> = SetAssociative::new(1, 2);
        t.insert(0, 1, 10);
        t.insert(0, 2, 20);
        // Peek at 1; it stays LRU and is evicted next.
        assert_eq!(t.peek(0, 1), Some(&10));
        let evicted = t.insert(0, 3, 30);
        assert_eq!(evicted, Some((1, 10)));
    }

    #[test]
    fn set_assoc_sets_are_independent() {
        let mut t: SetAssociative<u32> = SetAssociative::new(2, 1);
        t.insert(0, 7, 70);
        t.insert(1, 7, 71);
        assert_eq!(t.get(0, 7), Some(&70));
        assert_eq!(t.get(1, 7), Some(&71));
        assert_eq!(t.get(2, 7), Some(&70)); // 2 % 2 == 0
    }

    #[test]
    fn set_assoc_invalidate() {
        let mut t: SetAssociative<u32> = SetAssociative::new(1, 2);
        t.insert(0, 1, 10);
        assert_eq!(t.invalidate(0, 1), Some(10));
        assert!(t.get(0, 1).is_none());
        assert!(t.invalidate(0, 1).is_none());
    }

    #[test]
    fn set_assoc_get_mut_updates_value() {
        let mut t: SetAssociative<u32> = SetAssociative::new(1, 1);
        t.insert(0, 1, 10);
        *t.get_mut(0, 1).unwrap() = 99;
        assert_eq!(t.peek(0, 1), Some(&99));
    }

    #[test]
    fn eviction_counters_track_displacements_only() {
        let mut t: DirectMapped<u32> = DirectMapped::new(2);
        t.insert(0, 1); // vacant: not an eviction
        assert_eq!(t.evictions(), 0);
        t.insert(2, 9); // aliases slot 0: eviction
        assert_eq!(t.evictions(), 1);
        t.invalidate(0);
        t.insert(0, 3); // vacant again after invalidate
        assert_eq!(t.evictions(), 1);

        let mut s: SetAssociative<u32> = SetAssociative::new(1, 2);
        s.insert(0, 1, 10);
        s.insert(0, 2, 20);
        assert_eq!(s.evictions(), 0);
        s.insert(0, 1, 11); // same-tag overwrite: not an eviction
        assert_eq!(s.evictions(), 0);
        s.insert(0, 3, 30); // full set: LRU victim displaced
        assert_eq!(s.evictions(), 1);
    }

    #[test]
    fn equality_ignores_eviction_telemetry() {
        let mut a: DirectMapped<u32> = DirectMapped::new(2);
        let mut b: DirectMapped<u32> = DirectMapped::new(2);
        a.insert(0, 1);
        a.insert(2, 7); // evicts
        b.insert(0, 7); // same final contents, no eviction
        assert_ne!(a.evictions(), b.evictions());
        assert_eq!(a, b);
    }

    #[test]
    fn sealed_table_reads_through_to_base() {
        let mut t: DirectMapped<u32> = DirectMapped::new(8);
        t.insert(1, 10);
        t.insert(3, 30);
        t.seal();
        assert!(t.is_sealed());
        assert_eq!(t.delta_len(), 0);
        assert_eq!(t.get(1), Some(&10));
        assert_eq!(t.get(3), Some(&30));
        assert_eq!(t.occupancy(), 2);
    }

    #[test]
    fn sealed_writes_land_in_delta_and_shadow_base() {
        let mut t: DirectMapped<u32> = DirectMapped::new(8);
        t.insert(1, 10);
        t.seal();
        let fork = t.clone();
        t.insert(1, 11); // overwrite via delta
        t.insert(2, 20); // fresh slot via delta
        assert_eq!(t.get(1), Some(&11));
        assert_eq!(t.get(2), Some(&20));
        assert_eq!(t.delta_len(), 2);
        // The fork shares the base but sees none of the delta.
        assert_eq!(fork.get(1), Some(&10));
        assert_eq!(fork.get(2), None);
        // Invalidation through the delta shadows a valid base entry.
        let mut inv = fork.clone();
        assert_eq!(inv.invalidate(1), Some(10));
        assert_eq!(inv.get(1), None);
        assert_eq!(fork.get(1), Some(&10));
    }

    #[test]
    fn sealed_equals_private_with_same_contents() {
        let mut private: DirectMapped<u32> = DirectMapped::new(4);
        let mut sealed: DirectMapped<u32> = DirectMapped::new(4);
        sealed.insert(0, 5);
        sealed.seal();
        sealed.insert(1, 7);
        private.insert(0, 5);
        private.insert(1, 7);
        assert_eq!(private, sealed);
        sealed.insert(2, 9);
        assert_ne!(private, sealed);
    }

    #[test]
    fn sealed_get_or_insert_and_get_mut_materialize() {
        let mut t: DirectMapped<u32> = DirectMapped::new(4);
        t.insert(0, 1);
        t.seal();
        *t.get_mut(0).unwrap() += 1;
        assert_eq!(t.get(0), Some(&2));
        *t.get_or_insert_with(1, || 10) += 1;
        assert_eq!(t.get(1), Some(&11));
        assert_eq!(t.delta_len(), 2);
    }

    #[test]
    fn sealed_resident_bytes_track_delta_not_base() {
        let mut t: DirectMapped<u64> = DirectMapped::new(1024);
        for i in 0..1024u64 {
            t.insert(i, i);
        }
        let private_bytes = t.resident_bytes();
        t.seal();
        assert_eq!(t.resident_bytes(), 0, "empty delta allocates nothing");
        t.insert(0, 99);
        assert!(t.resident_bytes() > 0);
        assert!(t.resident_bytes() < private_bytes / 4);
    }

    #[test]
    fn direct_mapped_persist_full_round_trip() {
        let mut t: DirectMapped<u64> = DirectMapped::new(16);
        t.insert(2, 20);
        t.insert(5, 50);
        t.insert(21, 99); // aliases slot 5: eviction
        let mut blob = Vec::new();
        t.save_state(&mut StateSink::new(&mut blob));
        let mut fresh: DirectMapped<u64> = DirectMapped::new(16);
        fresh.load_state(&mut StateSource::new(&blob)).unwrap();
        assert_eq!(fresh, t);
        assert_eq!(fresh.evictions(), 1);
        // Wrong geometry is rejected.
        let mut wrong: DirectMapped<u64> = DirectMapped::new(8);
        assert_eq!(
            wrong.load_state(&mut StateSource::new(&blob)),
            Err(PersistError::Mismatch("direct-mapped table length"))
        );
    }

    #[test]
    fn direct_mapped_persist_delta_round_trip() {
        let mut base: DirectMapped<u64> = DirectMapped::new(16);
        base.insert(1, 10);
        base.insert(2, 20);
        base.seal();
        let mut session = base.clone();
        session.insert(1, 11);
        session.insert(7, 70);
        session.invalidate(2);
        let mut blob = Vec::new();
        session.save_state(&mut StateSink::new(&mut blob));
        // The delta blob is small: it carries 3 overlay slots, not 16.
        let mut restored = base.clone();
        restored.load_state(&mut StateSource::new(&blob)).unwrap();
        assert_eq!(restored, session);
        assert_eq!(restored.get(1), Some(&11));
        assert_eq!(restored.get(7), Some(&70));
        assert_eq!(restored.get(2), None);
        // A delta blob cannot load into an unsealed table.
        let mut unsealed: DirectMapped<u64> = DirectMapped::new(16);
        assert!(matches!(
            unsealed.load_state(&mut StateSource::new(&blob)),
            Err(PersistError::Mismatch(_))
        ));
    }

    #[test]
    fn set_assoc_persist_round_trips_lru_state() {
        let mut t: SetAssociative<u64> = SetAssociative::new(2, 2);
        t.insert(0, 1, 10);
        t.insert(0, 2, 20);
        t.insert(1, 3, 30);
        let _ = t.get(0, 1); // bump LRU so clock state matters
        let mut blob = Vec::new();
        t.save_state(&mut StateSink::new(&mut blob));
        let mut fresh: SetAssociative<u64> = SetAssociative::new(2, 2);
        fresh.load_state(&mut StateSource::new(&blob)).unwrap();
        assert_eq!(fresh, t);
        // Same future behaviour: the restored table evicts the same
        // victim the original would.
        let ev_orig = t.insert(0, 4, 40);
        let ev_restored = fresh.insert(0, 4, 40);
        assert_eq!(ev_orig, ev_restored);
        let mut wrong: SetAssociative<u64> = SetAssociative::new(4, 2);
        assert!(wrong.load_state(&mut StateSource::new(&blob)).is_err());
    }
}
