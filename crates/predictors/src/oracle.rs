//! Idealized (oracle) predictors for limit studies.
//!
//! §5 of the paper cites an "oracle predictor recording complete PIB path
//! history" that reaches 99.1% accuracy on photon with a path length of 8.
//! These oracles bound what any table-based predictor could achieve:
//!
//! * [`PathOracle`] — unbounded map from `(branch, exact path of full
//!   targets)` to the most recent next target;
//! * [`FrequencyOracle`] — the same keyed context, but predicting the most
//!   *frequent* next target (the original Markov-model semantics the paper
//!   approximates with most-recent-target entries, §4).

use crate::declare_state;
use crate::history_group::HistoryGroup;
use crate::traits::IndirectPredictor;
use ibp_exec::FastMap;
use ibp_hw::bitspec::StorageReport;
use ibp_hw::{HardwareCost, Part, Persist, PersistError, StateSink, StateSource};
use ibp_isa::Addr;
use ibp_trace::BranchEvent;
use std::collections::VecDeque;
use std::ops::{Deref, DerefMut};

/// Exact path context: the full target addresses of the last `depth`
/// branches of the selected group.
#[derive(Debug, Clone)]
struct ExactPath {
    depth: usize,
    targets: VecDeque<u64>,
    group: HistoryGroup,
}

impl ExactPath {
    fn new(depth: usize, group: HistoryGroup) -> Self {
        assert!(depth > 0, "oracle path depth must be non-zero");
        Self {
            depth,
            targets: VecDeque::with_capacity(depth),
            group,
        }
    }

    fn key(&self, pc: Addr) -> (u64, Vec<u64>) {
        // ibp-lint: allow(L008, "oracle clones the exact path key by design; reference model, not hardware")
        (pc.raw(), self.targets.iter().copied().collect())
    }

    fn observe(&mut self, event: &BranchEvent) {
        if self.group.accepts(event) {
            if self.targets.len() == self.depth {
                self.targets.pop_front();
            }
            // ibp-lint: allow(L008, "history deque bounded by depth: push_back pairs with pop_front")
            self.targets.push_back(event.target().raw());
        }
    }
}

/// Exact `(branch, path)` contexts, each mapped to a value: the path
/// oracle's most recent target, or a [`VoteTable`]'s votes.
#[derive(Debug, Clone, Default)]
pub struct ContextMap<V>(FastMap<(u64, Vec<u64>), V>);

/// Per-context target votes (`target → count`). The frequency oracle
/// and each order of the idealized PPM hold one.
pub type VoteTable = ContextMap<FastMap<u64, u64>>;

impl<V> Deref for ContextMap<V> {
    type Target = FastMap<(u64, Vec<u64>), V>;

    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl<V> DerefMut for ContextMap<V> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.0
    }
}

impl<V> ContextMap<V> {
    /// Writes the contexts sorted by key, so the bytes are canonical
    /// whatever the map's iteration order; `put` writes each value.
    fn save_with(&self, out: &mut StateSink<'_>, mut put: impl FnMut(&V, &mut StateSink<'_>)) {
        let mut items: Vec<_> = self.iter().collect();
        items.sort_unstable_by(|a, b| a.0.cmp(b.0));
        out.usize(items.len());
        for ((pc, path), value) in items {
            out.u64(*pc);
            out.usize(path.len());
            path.iter().for_each(|&t| out.u64(t));
            put(value, out);
        }
    }

    fn load_with(
        &mut self,
        src: &mut StateSource<'_>,
        mut get: impl FnMut(&mut StateSource<'_>) -> Result<V, PersistError>,
    ) -> Result<(), PersistError> {
        self.clear();
        for _ in 0..src.usize()? {
            let pc = src.u64()?;
            let path = (0..src.usize()?).map(|_| src.u64()).collect::<Result<_, _>>()?;
            let value = get(src)?;
            self.insert((pc, path), value);
        }
        Ok(())
    }
}

impl Persist for ContextMap<Addr> {
    fn save_state(&self, out: &mut StateSink<'_>) {
        self.save_with(out, |target, out| out.u64(target.raw()));
    }

    fn load_state(&mut self, src: &mut StateSource<'_>) -> Result<(), PersistError> {
        self.load_with(src, |src| Ok(Addr::new(src.u64()?)))
    }

    /// Map overhead is hash-impl-specific; charge the logical payload:
    /// key (pc + path targets) + value per context.
    fn resident_bytes(&self) -> usize {
        self.keys()
            .map(|(_, path)| (2 + path.len()) * std::mem::size_of::<u64>())
            .sum()
    }

    fn report_rows(&self, part: Part<'_>, r: &mut StorageReport) {
        part.emit_rows(self.len() as u64, r);
    }
}

impl Persist for VoteTable {
    fn save_state(&self, out: &mut StateSink<'_>) {
        self.save_with(out, |votes, out| {
            let mut votes: Vec<_> = votes.iter().collect();
            votes.sort_unstable();
            out.usize(votes.len());
            for (&target, &count) in votes {
                out.u64(target);
                out.u64(count);
            }
        });
    }

    fn load_state(&mut self, src: &mut StateSource<'_>) -> Result<(), PersistError> {
        self.load_with(src, |src| {
            let mut votes = FastMap::new();
            for _ in 0..src.usize()? {
                let target = src.u64()?;
                votes.insert(target, src.u64()?);
            }
            Ok(votes)
        })
    }

    /// One field per `(context, target)` vote.
    fn report_rows(&self, part: Part<'_>, r: &mut StorageReport) {
        part.emit_rows(self.values().map(|m| m.len() as u64).sum(), r);
    }
}

/// An unbounded most-recent-target oracle keyed by exact path history.
///
/// # Examples
///
/// ```
/// use ibp_isa::Addr;
/// use ibp_predictors::{IndirectPredictor, PathOracle};
///
/// let mut o = PathOracle::pib(8); // the paper's photon configuration
/// o.update(Addr::new(0x40), Addr::new(0x900));
/// assert_eq!(o.predict(Addr::new(0x40)), Some(Addr::new(0x900)));
/// ```
#[derive(Debug, Clone)]
pub struct PathOracle {
    path: ExactPath,
    table: ContextMap<Addr>,
}

impl PathOracle {
    /// Creates an oracle over the given history group and path length.
    pub fn new(depth: usize, group: HistoryGroup) -> Self {
        Self {
            path: ExactPath::new(depth, group),
            table: ContextMap(FastMap::new()),
        }
    }

    /// Complete-PIB-history oracle, as in the paper's photon limit study.
    pub fn pib(depth: usize) -> Self {
        Self::new(depth, HistoryGroup::AllIndirect)
    }

    /// Number of distinct `(branch, path)` contexts learned.
    pub fn contexts(&self) -> usize {
        self.table.len()
    }
}

impl IndirectPredictor for PathOracle {
    fn name(&self) -> String {
        // ibp-lint: allow(L008, "name() runs once per run for reporting, not per event")
        format!("Oracle-{}(p={})", self.path.group, self.path.depth)
    }

    fn predict(&mut self, pc: Addr) -> Option<Addr> {
        self.table.get(&self.path.key(pc)).copied()
    }

    fn update(&mut self, pc: Addr, actual: Addr) {
        // ibp-lint: allow(L008, "path oracle table is deliberately unbounded; reference model")
        self.table.insert(self.path.key(pc), actual);
    }

    fn observe(&mut self, event: &BranchEvent) {
        self.path.observe(event);
    }

    fn cost(&self) -> HardwareCost {
        // An oracle is unbounded; report the current footprint honestly.
        HardwareCost::table(
            self.table.len() as u64,
            64 + self.path.depth as u64 * 64 + 64,
        )
    }

    fn reset(&mut self) {
        *self = Self::new(self.path.depth, self.path.group);
    }

    // The inventory is the live footprint, not a hardware budget: an
    // unbounded reference model (bitreport marks oracles idealized).
    declare_state! { self;
        guard self.path.depth as u64, "oracle path depth";
        guard self.path.group.code(), "oracle history group";
        "path" [] => self.path.targets;
        check self.path.targets.len() <= self.path.depth, "oracle path overfull";
        "contexts" [Target(64) targets, Metadata(64 + self.path.depth as u64 * 64) keys]
            => self.table;
        check self.table.keys().all(|(_, path)| path.len() <= self.path.depth),
            "oracle context path overfull";
    }
}

/// An unbounded frequency-voting oracle keyed by exact path history.
///
/// Predicts the target most often seen after the current context — the
/// majority-vote semantics of a true Markov model, which the paper's
/// hardware design approximates with a single most-recent target per entry.
#[derive(Debug, Clone)]
pub struct FrequencyOracle {
    path: ExactPath,
    table: VoteTable,
}

impl FrequencyOracle {
    /// Creates an oracle over the given history group and path length.
    pub fn new(depth: usize, group: HistoryGroup) -> Self {
        Self {
            path: ExactPath::new(depth, group),
            table: VoteTable::default(),
        }
    }

    /// Complete-PIB-history frequency oracle.
    pub fn pib(depth: usize) -> Self {
        Self::new(depth, HistoryGroup::AllIndirect)
    }
}

impl IndirectPredictor for FrequencyOracle {
    fn name(&self) -> String {
        // ibp-lint: allow(L008, "name() runs once per run for reporting, not per event")
        format!("FreqOracle-{}(p={})", self.path.group, self.path.depth)
    }

    fn predict(&mut self, pc: Addr) -> Option<Addr> {
        let counts = self.table.get(&self.path.key(pc))?;
        counts
            .iter()
            .max_by_key(|(&t, &c)| (c, std::cmp::Reverse(t)))
            .map(|(&t, _)| Addr::new(t))
    }

    fn update(&mut self, pc: Addr, actual: Addr) {
        *self
            .table
            // ibp-lint: allow(L008, "frequency oracle counts are deliberately unbounded; reference model")
            .or_default(self.path.key(pc))
            // ibp-lint: allow(L008, "frequency oracle counts are deliberately unbounded; reference model")
            .or_default(actual.raw()) += 1;
    }

    fn observe(&mut self, event: &BranchEvent) {
        self.path.observe(event);
    }

    fn cost(&self) -> HardwareCost {
        HardwareCost::table(
            self.table.values().map(|m| m.len() as u64).sum(),
            64 + self.path.depth as u64 * 64 + 64 + 32,
        )
    }

    fn reset(&mut self) {
        *self = Self::new(self.path.depth, self.path.group);
    }

    declare_state! { self;
        guard self.path.depth as u64, "oracle path depth";
        guard self.path.group.code(), "oracle history group";
        "path" [] => self.path.targets;
        check self.path.targets.len() <= self.path.depth, "oracle path overfull";
        "contexts" [
            Target(64) targets,
            Metadata(64 + self.path.depth as u64 * 64) keys,
            Counter(32) counts,
        ] => self.table;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive(p: &mut dyn IndirectPredictor, pc: Addr, target: Addr) -> bool {
        let hit = p.predict(pc) == Some(target);
        p.update(pc, target);
        p.observe(&BranchEvent::indirect_jmp(pc, target));
        hit
    }

    #[test]
    fn path_oracle_is_perfect_on_deterministic_streams() {
        let mut o = PathOracle::pib(4);
        let pc = Addr::new(0x100);
        let targets: Vec<Addr> = (0..6).map(|i| Addr::new(0xA00 + i * 0x10)).collect();
        let mut misses = 0;
        for round in 0..50 {
            for &t in &targets {
                if !drive(&mut o, pc, t) && round >= 2 {
                    misses += 1;
                }
            }
        }
        assert_eq!(misses, 0, "oracle must be perfect once contexts are warm");
    }

    #[test]
    fn path_oracle_distinguishes_contexts() {
        let mut o = PathOracle::pib(1);
        let site = Addr::new(0x500);
        // Context A -> X; context B -> Y.
        let runs = [(0x100u64, 0xA00u64), (0x200, 0xB00)];
        for _ in 0..3 {
            for &(pre, out) in &runs {
                o.observe(&BranchEvent::indirect_jmp(
                    Addr::new(pre),
                    Addr::new(pre + 4),
                ));
                let _ = o.predict(site);
                o.update(site, Addr::new(out));
                o.observe(&BranchEvent::indirect_jsr(site, Addr::new(out)));
            }
        }
        // Replay context A and check the prediction.
        o.observe(&BranchEvent::indirect_jmp(
            Addr::new(0x100),
            Addr::new(0x104),
        ));
        assert_eq!(o.predict(site), Some(Addr::new(0xA00)));
        assert!(o.contexts() >= 2);
    }

    #[test]
    fn frequency_oracle_votes_majority() {
        let mut o = FrequencyOracle::pib(1);
        let pc = Addr::new(0x40);
        // Same context; 2 votes for A, 1 for B.
        o.update(pc, Addr::new(0xA));
        o.update(pc, Addr::new(0xA));
        o.update(pc, Addr::new(0xB));
        assert_eq!(o.predict(pc), Some(Addr::new(0xA)));
        // Most-recent-target (PathOracle) would say B here.
        let mut mr = PathOracle::pib(1);
        mr.update(pc, Addr::new(0xA));
        mr.update(pc, Addr::new(0xA));
        mr.update(pc, Addr::new(0xB));
        assert_eq!(mr.predict(pc), Some(Addr::new(0xB)));
    }

    #[test]
    fn frequency_tie_break_is_deterministic() {
        let mut o = FrequencyOracle::pib(1);
        let pc = Addr::new(0x40);
        o.update(pc, Addr::new(0xB));
        o.update(pc, Addr::new(0xA));
        // Tie: pick the smaller target (Reverse tiebreak), deterministically.
        assert_eq!(o.predict(pc), Some(Addr::new(0xA)));
    }

    #[test]
    fn reset_clears_contexts() {
        let mut o = PathOracle::pib(2);
        drive(&mut o, Addr::new(0x40), Addr::new(0x900));
        o.reset();
        assert_eq!(o.predict(Addr::new(0x40)), None);
        assert_eq!(o.contexts(), 0);
    }

    #[test]
    fn names_carry_configuration() {
        assert_eq!(PathOracle::pib(8).name(), "Oracle-PIB(p=8)");
        assert_eq!(
            FrequencyOracle::new(3, HistoryGroup::AllBranches).name(),
            "FreqOracle-PB(p=3)"
        );
    }
}
