//! The Branch Identification Unit (BIU).
//!
//! The BIU is indexed with the branch address at fetch and identifies
//! indirect branches (one bit per branch, fed by the compiler/linker ST/MT
//! annotation of `ibp-isa::instr`). For the hybrid PPM predictor it also
//! holds the per-branch 2-bit correlation-selection counter, which is why
//! the hybrid is a *2-level* predictor (BIU access, then Markov access).
//!
//! The paper assumes an infinite BIU ("we assumed that the BIU module was
//! of infinite size", §5) and flags its finite-size behaviour as future
//! work. Both are modelled here: [`Biu::unbounded`] reproduces the paper,
//! [`Biu::bounded`] evicts least-recently-used branches so the sensitivity
//! can be measured.

use crate::selector::{CorrelationSelector, SelectorKind};
use ibp_exec::FastMap;
use ibp_hw::HardwareCost;
use ibp_isa::{Addr, TargetArity};

/// Per-branch BIU state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BiuEntry {
    arity: TargetArity,
    selector: CorrelationSelector,
    last_use: u64,
}

/// One storage slot: the entry plus the branch it currently belongs to,
/// so a caller holding a stale [`BiuId`] (its branch was evicted and the
/// slot reused) can be detected.
#[derive(Debug, Clone, Copy)]
struct BiuSlot {
    pc: u64,
    entry: BiuEntry,
}

/// A stable handle to a BIU entry, valid until the branch is evicted.
///
/// Returned by [`Biu::entry_id`] so the predict→update window of one
/// event needs a single hash probe: predict resolves the id, update
/// revalidates it with [`Biu::entry_at`] in O(1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BiuId(u32);

impl BiuEntry {
    /// The recorded ST/MT annotation.
    pub fn arity(&self) -> TargetArity {
        self.arity
    }

    /// The correlation-selection counter.
    pub fn selector(&self) -> &CorrelationSelector {
        &self.selector
    }

    /// Mutable access to the correlation-selection counter.
    pub fn selector_mut(&mut self) -> &mut CorrelationSelector {
        &mut self.selector
    }
}

/// The Branch Identification Unit.
///
/// # Examples
///
/// ```
/// use ibp_isa::{Addr, TargetArity};
/// use ibp_ppm::{Biu, CorrelationMode, SelectorKind};
///
/// let mut biu = Biu::unbounded(SelectorKind::Normal);
/// let e = biu.entry(Addr::new(0x40), TargetArity::Multiple);
/// assert_eq!(e.selector().mode(), CorrelationMode::Pib);
/// ```
#[derive(Debug, Clone)]
pub struct Biu {
    /// pc → slot id. The separate id layer gives callers a stable handle
    /// so one event costs one probe, not one per predict and one per
    /// update.
    index: FastMap<u64, u32>,
    slots: Vec<BiuSlot>,
    /// Slot ids freed by eviction, reused before growing `slots`.
    free: Vec<u32>,
    capacity: Option<usize>,
    kind: SelectorKind,
    clock: u64,
}

impl Biu {
    /// An infinite BIU, as assumed by the paper's evaluation.
    pub fn unbounded(kind: SelectorKind) -> Self {
        Self {
            index: FastMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            capacity: None,
            kind,
            clock: 0,
        }
    }

    /// A finite BIU of `capacity` branches with LRU eviction, for the
    /// finite-size sensitivity study the paper leaves open.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn bounded(capacity: usize, kind: SelectorKind) -> Self {
        assert!(capacity > 0, "BIU capacity must be non-zero");
        Self {
            index: FastMap::with_capacity(capacity),
            slots: Vec::with_capacity(capacity),
            free: Vec::new(),
            capacity: Some(capacity),
            kind,
            clock: 0,
        }
    }

    /// The selector machine variant used for new entries.
    pub fn kind(&self) -> SelectorKind {
        self.kind
    }

    /// The branch capacity of a bounded BIU; `None` when unbounded.
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Number of branches currently tracked.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when no branch is tracked.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Looks up (or allocates) the entry for the branch at `pc`,
    /// refreshing its LRU position.
    ///
    /// New entries start in the Strongly-PIB selector state, per §4. A
    /// bounded BIU evicts its least-recently-used branch when full — a
    /// re-allocated branch therefore loses its learned correlation type,
    /// which is exactly the sensitivity the paper flags.
    // ibp-lint: allow(L007, "slot id comes from entry_id; ids are allocated in-bounds")
    pub fn entry(&mut self, pc: Addr, arity: TargetArity) -> &mut BiuEntry {
        let id = self.entry_id(pc, arity);
        &mut self.slots[id.0 as usize].entry
    }

    /// Like [`Biu::entry`], but returns a stable handle instead of the
    /// entry itself. The handle stays valid until the branch is evicted;
    /// [`Biu::entry_at`] revalidates it without a hash probe.
    // ibp-lint: allow(L007, "slot ids stored in the index are allocated in-bounds and never dangle")
    pub fn entry_id(&mut self, pc: Addr, arity: TargetArity) -> BiuId {
        self.clock += 1;
        let clock = self.clock;
        if let Some(&id) = self.index.get(&pc.raw()) {
            self.slots[id as usize].entry.last_use = clock;
            return BiuId(id);
        }
        if let Some(cap) = self.capacity {
            if self.index.len() >= cap {
                // Clock values are unique, so the LRU victim is unique and
                // eviction is deterministic whatever the map's slot order.
                if let Some((&victim, &vid)) = self
                    .index
                    .iter()
                    .min_by_key(|(_, &id)| self.slots[id as usize].entry.last_use)
                {
                    self.index.remove(&victim);
                    // ibp-lint: allow(L008, "BIU slot admission: once per new branch site, bounded by the static branch count")
                    self.free.push(vid);
                }
            }
        }
        let slot = BiuSlot {
            pc: pc.raw(),
            entry: BiuEntry {
                arity,
                selector: CorrelationSelector::new(self.kind),
                last_use: clock,
            },
        };
        let id = match self.free.pop() {
            Some(id) => {
                self.slots[id as usize] = slot;
                id
            }
            None => {
                // ibp-lint: allow(L008, "BIU slot admission: once per new branch site, bounded by the static branch count")
                self.slots.push(slot);
                (self.slots.len() - 1) as u32
            }
        };
        // ibp-lint: allow(L008, "index admission mirrors the slot push above; once per new branch site")
        self.index.insert(pc.raw(), id);
        BiuId(id)
    }

    /// Reads the entry behind a handle that is known to be current (i.e.
    /// just returned by [`Biu::entry_id`]). For handles held across other
    /// BIU operations use [`Biu::entry_at`], which revalidates.
    // ibp-lint: allow(L007, "caller contract: handle was just issued by entry_id")
    pub fn entry_ref(&self, id: BiuId) -> &BiuEntry {
        &self.slots[id.0 as usize].entry
    }

    /// Resolves a handle from [`Biu::entry_id`], refreshing the entry's
    /// LRU position. Returns `None` when the slot no longer belongs to
    /// `pc` (the branch was evicted and the slot reused) — the caller
    /// falls back to a fresh [`Biu::entry`] probe.
    pub fn entry_at(&mut self, id: BiuId, pc: Addr) -> Option<&mut BiuEntry> {
        let slot = self.slots.get_mut(id.0 as usize)?;
        if slot.pc != pc.raw() {
            return None;
        }
        self.clock += 1;
        slot.entry.last_use = self.clock;
        Some(&mut slot.entry)
    }

    /// Reads the entry for `pc` without allocating.
    // ibp-lint: allow(L007, "slot id comes from the index; ids never dangle")
    pub fn get(&self, pc: Addr) -> Option<&BiuEntry> {
        self.index
            .get(&pc.raw())
            .map(|&id| &self.slots[id as usize].entry)
    }

    /// Hardware cost. An unbounded BIU reports its current footprint; a
    /// bounded one its configured capacity. Each entry: indirect bit +
    /// MT bit + 2-bit selector (the BTB-like tag/valid machinery is shared
    /// with the front-end and not charged here, matching the paper, which
    /// charges no BIU cost against the 2K-entry budget).
    pub fn cost(&self) -> HardwareCost {
        let n = self.capacity.unwrap_or(self.index.len()) as u64;
        HardwareCost::new(0, n * 4)
    }

    /// Forgets all branches.
    pub fn reset(&mut self) {
        self.index.clear();
        self.slots.clear();
        self.free.clear();
        self.clock = 0;
    }
}

impl ibp_hw::Persist for Biu {
    /// Entries are written sorted by branch address, so the blob is
    /// canonical regardless of map iteration order or slot-id history.
    /// `last_use` clocks are behavioral state (they pick LRU victims in a
    /// bounded BIU) and round-trip exactly.
    fn save_state(&self, out: &mut ibp_hw::StateSink<'_>) {
        out.u8(match self.kind {
            SelectorKind::Normal => 0,
            SelectorKind::PibBiased => 1,
        });
        out.u64(self.capacity.map_or(0, |c| c as u64));
        out.u64(self.clock);
        let mut pairs: Vec<(u64, u32)> = self.index.iter().map(|(&pc, &id)| (pc, id)).collect();
        pairs.sort_unstable();
        out.usize(pairs.len());
        for (pc, id) in pairs {
            // ibp-lint: allow(L007, "slot id comes from the index; ids never dangle")
            let slot = &self.slots[id as usize];
            out.u64(pc);
            out.u8(match slot.entry.arity {
                TargetArity::Single => 0,
                TargetArity::Multiple => 1,
            });
            out.u8(slot.entry.selector.state() as u8);
            out.u64(slot.entry.last_use);
        }
    }

    fn load_state(
        &mut self,
        src: &mut ibp_hw::StateSource<'_>,
    ) -> Result<(), ibp_hw::PersistError> {
        use ibp_hw::PersistError;
        let kind_code = match self.kind {
            SelectorKind::Normal => 0u64,
            SelectorKind::PibBiased => 1,
        };
        src.expect_u64(kind_code, "BIU selector kind")?;
        src.expect_u64(self.capacity.map_or(0, |c| c as u64), "BIU capacity")?;
        let clock = src.u64()?;
        let count = src.usize()?;
        if let Some(cap) = self.capacity {
            if count > cap {
                return Err(PersistError::Corrupt("BIU entry count exceeds capacity"));
            }
        }
        self.reset();
        self.clock = clock;
        for _ in 0..count {
            let pc = src.u64()?;
            let arity = match src.u8()? {
                0 => TargetArity::Single,
                1 => TargetArity::Multiple,
                _ => return Err(PersistError::Corrupt("BIU arity code")),
            };
            let state = src.u8()?;
            if state > 3 {
                return Err(PersistError::Corrupt("BIU selector state"));
            }
            let last_use = src.u64()?;
            if last_use > clock {
                return Err(PersistError::Corrupt("BIU last_use beyond clock"));
            }
            if self.index.get(&pc).is_some() {
                return Err(PersistError::Corrupt("duplicate BIU entry"));
            }
            let id = self.slots.len() as u32;
            self.slots.push(BiuSlot {
                pc,
                entry: BiuEntry {
                    arity,
                    selector: CorrelationSelector::with_state(self.kind, u32::from(state)),
                    last_use,
                },
            });
            self.index.insert(pc, id);
        }
        Ok(())
    }

    /// Approximate heap bytes held by the BIU right now.
    fn resident_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<BiuSlot>()
            + self.free.capacity() * std::mem::size_of::<u32>()
            + self.index.len() * (std::mem::size_of::<u64>() + std::mem::size_of::<u32>())
    }

    /// One field per branch: the configured capacity of a bounded BIU,
    /// the branches tracked so far of an unbounded one.
    fn report_rows(&self, part: ibp_hw::Part<'_>, r: &mut ibp_hw::bitspec::StorageReport) {
        part.emit_rows(self.capacity.unwrap_or(self.index.len()) as u64, r);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selector::CorrelationMode;

    #[test]
    fn allocates_strongly_pib() {
        let mut biu = Biu::unbounded(SelectorKind::Normal);
        let e = biu.entry(Addr::new(0x40), TargetArity::Multiple);
        assert_eq!(e.selector().state(), 3);
        assert_eq!(e.arity(), TargetArity::Multiple);
        assert_eq!(biu.len(), 1);
    }

    #[test]
    fn selector_state_persists_across_lookups() {
        let mut biu = Biu::unbounded(SelectorKind::Normal);
        biu.entry(Addr::new(0x40), TargetArity::Multiple)
            .selector_mut()
            .record(false);
        let e = biu.get(Addr::new(0x40)).unwrap();
        assert_eq!(e.selector().state(), 2);
    }

    #[test]
    fn bounded_biu_evicts_lru() {
        let mut biu = Biu::bounded(2, SelectorKind::Normal);
        biu.entry(Addr::new(0x10), TargetArity::Multiple);
        biu.entry(Addr::new(0x20), TargetArity::Multiple);
        // Touch 0x10 so 0x20 becomes LRU.
        biu.entry(Addr::new(0x10), TargetArity::Multiple);
        biu.entry(Addr::new(0x30), TargetArity::Multiple);
        assert_eq!(biu.len(), 2);
        assert!(biu.get(Addr::new(0x10)).is_some());
        assert!(biu.get(Addr::new(0x20)).is_none(), "LRU entry evicted");
        assert!(biu.get(Addr::new(0x30)).is_some());
    }

    #[test]
    fn eviction_loses_learned_state() {
        let mut biu = Biu::bounded(1, SelectorKind::Normal);
        // Train 0x10 to the PB side.
        for _ in 0..4 {
            biu.entry(Addr::new(0x10), TargetArity::Multiple)
                .selector_mut()
                .record(false);
        }
        assert_eq!(
            biu.get(Addr::new(0x10)).unwrap().selector().mode(),
            CorrelationMode::Pb
        );
        biu.entry(Addr::new(0x20), TargetArity::Multiple); // evicts 0x10
        let e = biu.entry(Addr::new(0x10), TargetArity::Multiple);
        assert_eq!(e.selector().mode(), CorrelationMode::Pib, "state lost");
    }

    #[test]
    fn biased_kind_propagates_to_entries() {
        let mut biu = Biu::unbounded(SelectorKind::PibBiased);
        let e = biu.entry(Addr::new(0x40), TargetArity::Multiple);
        assert_eq!(e.selector().kind(), SelectorKind::PibBiased);
    }

    #[test]
    fn reset_empties() {
        let mut biu = Biu::unbounded(SelectorKind::Normal);
        biu.entry(Addr::new(0x40), TargetArity::Multiple);
        biu.reset();
        assert!(biu.is_empty());
    }

    #[test]
    #[should_panic(expected = "capacity must be non-zero")]
    fn zero_capacity_panics() {
        let _ = Biu::bounded(0, SelectorKind::Normal);
    }

    #[test]
    fn persist_round_trip_preserves_lru_behaviour() {
        use ibp_hw::{Persist, StateSink, StateSource};
        let mut biu = Biu::bounded(2, SelectorKind::Normal);
        biu.entry(Addr::new(0x10), TargetArity::Multiple)
            .selector_mut()
            .record(false);
        biu.entry(Addr::new(0x20), TargetArity::Single);
        biu.entry(Addr::new(0x10), TargetArity::Multiple); // 0x20 is now LRU
        let mut blob = Vec::new();
        biu.save_state(&mut StateSink::new(&mut blob));
        let mut restored = Biu::bounded(2, SelectorKind::Normal);
        restored.load_state(&mut StateSource::new(&blob)).unwrap();
        assert_eq!(
            restored.get(Addr::new(0x10)).unwrap().selector().state(),
            biu.get(Addr::new(0x10)).unwrap().selector().state()
        );
        // The restored BIU picks the same eviction victim.
        restored.entry(Addr::new(0x30), TargetArity::Multiple);
        biu.entry(Addr::new(0x30), TargetArity::Multiple);
        assert!(restored.get(Addr::new(0x20)).is_none());
        assert!(biu.get(Addr::new(0x20)).is_none());
        assert!(restored.get(Addr::new(0x10)).is_some());
        // Canonical bytes: re-saving yields identical blobs.
        let mut blob2 = Vec::new();
        let mut blob3 = Vec::new();
        biu.save_state(&mut StateSink::new(&mut blob2));
        restored.save_state(&mut StateSink::new(&mut blob3));
        assert_eq!(blob2, blob3);
        // Kind/capacity mismatches are rejected.
        let mut wrong = Biu::unbounded(SelectorKind::Normal);
        assert!(wrong.load_state(&mut StateSource::new(&blob)).is_err());
    }
}
