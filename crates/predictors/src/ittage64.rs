//! Faithful ITTAGE at a declared hardware budget.
//!
//! [`ittage::Ittage`](crate::ittage) is a deliberately small epilogue; this
//! module is the real thing, following Seznec's ITTAGE (CBP-3, 2011) at
//! the component level so the paper's PPM stack can be compared against
//! its industrial descendant *at an honest storage-bit budget*:
//!
//! * a base BTB with 2-bit confidence hysteresis as the default
//!   prediction;
//! * eight tagged tables on a **geometric series of history lengths**
//!   (2 → 108 events), each with its own partial-tag width (9..14 bits)
//!   and three circular-shift registers folding one global path history
//!   (one for the index, two — at different rotation steps — for the
//!   tag, the classic CSR1/CSR2 pair that kills fold aliasing);
//! * per-entry 2-bit confidence and a 2-bit **useful** counter;
//! * **alt-prediction arbitration**: a newly allocated / low-confidence
//!   provider may be overridden by the alternate prediction under a
//!   global `USE_ALT_ON_NA` counter that learns which side to trust;
//! * **allocate-on-mispredict** into a longer table, with the table
//!   choice randomized by a seeded SplitMix64 stream (ibp-testkit's
//!   generator, owned per instance so runs are deterministic and
//!   pool-size-invariant), skipping useful entries and decaying their
//!   u-counters on allocation failure;
//! * **useful-bit aging epochs**: every `aging_period` updates all
//!   u-counters halve, so stale usefulness cannot wedge the tables.
//!
//! Configurations are **sized by bit budget, not entry count**:
//! [`Ittage64Config::for_budget`] bisects a uniform table scale with
//! [`ibp_hw::bitspec::solve_entries`] and then tops the base BTB up with
//! the remaining slack, landing within one base entry (67 bits) of the
//! declared budget. The storage report walked from its declared state
//! re-derives the bits from the live allocated state so the `bitreport`
//! audit can prove the claim.

use crate::declare_state;
use crate::history_group::HistoryGroup;
use crate::traits::IndirectPredictor;
use ibp_hw::bitspec::solve_entries;
use ibp_hw::counter::{Saturating2Bit, SaturatingCounter};
use ibp_hw::{FastMod, HardwareCost, Persist, PersistElem, PersistError, StateSink, StateSource};
use ibp_isa::Addr;
use ibp_testkit::splitmix64;
use ibp_trace::BranchEvent;

/// Number of tagged tables.
pub const NUM_TABLES: usize = 8;

/// Geometric history lengths, in *observed events* (each event contributes
/// 4 path bits to every fold). Ratio ≈ 1.7, the classic TAGE sweet spot.
pub const HIST_EVENTS: [usize; NUM_TABLES] = [2, 4, 8, 13, 22, 38, 64, 108];

/// Per-table partial-tag widths: longer histories earn wider tags because
/// their entries are rarer and costlier to alias.
pub const TAG_BITS: [u32; NUM_TABLES] = [9, 9, 10, 10, 11, 12, 13, 14];

/// Output width of each per-table index fold.
const INDEX_FOLD_BITS: u32 = 12;

/// Path bits each observed branch shifts into the global history.
const CHUNK_BITS: u32 = 4;

/// The longest history window, in observed events.
const MAX_WINDOW: usize = HIST_EVENTS[NUM_TABLES - 1];

/// Capacity of the path-history ring: a power of two above the longest
/// window, so the chunk leaving any window is still in place when a
/// shift reads it.
const RING: usize = 128;
const RING_MASK: usize = RING - 1;
const _: () = assert!(MAX_WINDOW < RING);

/// Folded registers: per table, the index fold and the tag's CSR1/CSR2.
const NUM_FOLDS: usize = 3 * NUM_TABLES;

/// One circular-shift register (CSR) over the path history: `width`
/// bits holding the XOR, over each age `a < window`, of the chunk `a`
/// shifts old rotated left by `(a · step) mod width`.
#[derive(Debug, Clone, Copy)]
struct Fold {
    width: u32,
    step: u32,
    window: usize,
    /// `(window · step) mod width`: the rotation of the chunk leaving
    /// the window.
    exit_rot: u32,
}

impl Fold {
    /// Rotates the `width`-bit value `v` left by `by < width`.
    #[inline]
    fn rotl(self, v: u32, by: u32) -> u32 {
        ((v << by) | (v >> (self.width - by))) & ((1 << self.width) - 1)
    }
}

/// Every CSR, in blob order: the eight index folds (step 1), the eight
/// CSR1s (full tag width, step 1), then the eight CSR2s (one bit
/// narrower, step 2).
const FOLDS: [Fold; NUM_FOLDS] = {
    let mut folds = [Fold {
        width: 1,
        step: 0,
        window: 0,
        exit_rot: 0,
    }; NUM_FOLDS];
    let mut k = 0;
    while k < NUM_FOLDS {
        let t = k % NUM_TABLES;
        let (width, step) = match k / NUM_TABLES {
            0 => (INDEX_FOLD_BITS, 1),
            1 => (TAG_BITS[t], 1),
            _ => (TAG_BITS[t] - 1, 2),
        };
        let window = HIST_EVENTS[t];
        folds[k] = Fold {
            width,
            step,
            window,
            exit_rot: (window as u32 * step) % width,
        };
        k += 1;
    }
    folds
};

/// Bits of all CSRs together.
fn csr_bits() -> u64 {
    FOLDS.iter().map(|f| u64::from(f.width)).sum()
}

/// Bits per base-BTB entry: 64-bit target + 2-bit confidence + valid.
const BASE_ENTRY_BITS: u64 = 64 + 2 + 1;

/// Width of the `USE_ALT_ON_NA` arbitration counter.
const USE_ALT_BITS: u8 = 4;

/// Width charged for the aging tick counter.
const TICK_BITS: u64 = 16;

/// Width charged for the allocation PRNG state.
const PRNG_BITS: u64 = 64;

/// Fixed seed of the per-instance allocation PRNG. Every instance starts
/// here and advances only inside its own `update`, so predictions are a
/// pure function of the call sequence — independent of pool size, thread
/// interleaving, or how many other sessions exist.
const ALLOC_SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// Bits per tagged-table entry of table `i`: partial tag + 64-bit target +
/// 2-bit confidence + 2-bit useful + valid.
fn tagged_entry_bits(i: usize) -> u64 {
    TAG_BITS[i] as u64 + 64 + 2 + 2 + 1
}

/// Fixed (table-size-independent) register bits: the global path-history
/// register, per-table folded CSRs, arbitration counter, tick, PRNG.
fn register_bits() -> u64 {
    let ghist = MAX_WINDOW as u64 * u64::from(CHUNK_BITS);
    ghist + csr_bits() + USE_ALT_BITS as u64 + TICK_BITS + PRNG_BITS
}

/// Configuration of [`Ittage64`], derived from a declared bit budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ittage64Config {
    /// The declared storage budget in bits; the allocated state always
    /// fits under it, within one base entry of slack.
    pub budget_bits: u64,
    /// Entries in the base BTB.
    pub base_entries: usize,
    /// Entries per tagged table (uniform; the budget solver scales this).
    pub table_entries: usize,
    /// Updates between useful-counter halving epochs.
    pub aging_period: u32,
    /// Branch group feeding the path history.
    pub group: HistoryGroup,
}

impl Ittage64Config {
    /// Sizes a configuration to a declared bit budget using the bitspec
    /// solver: bisect the largest uniform table scale `s` (base gets `2s`
    /// entries, every tagged table `s`) whose total fits, then spend the
    /// remaining slack on extra base entries at 67 bits apiece. The
    /// result lands within 67 bits (< 0.1% at 8KB) of the budget.
    ///
    /// # Panics
    ///
    /// Panics if the budget is below 8192 bits (1 KB), the smallest
    /// meaningful design point.
    pub fn for_budget(budget_bits: u64, group: HistoryGroup) -> Self {
        assert!(budget_bits >= 8192, "ITTAGE-64 budget below 1KB");
        let fixed = register_bits();
        let per_scale: u64 =
            2 * BASE_ENTRY_BITS + (0..NUM_TABLES).map(tagged_entry_bits).sum::<u64>();
        let scale = solve_entries(budget_bits, 1, 1 << 20, |s| fixed + s * per_scale)
            .unwrap_or(1)
            .max(1) as usize;
        let used = fixed + scale as u64 * per_scale;
        let extra_base = (budget_bits - used) / BASE_ENTRY_BITS;
        let total = (2 * scale + extra_base as usize) + NUM_TABLES * scale;
        Self {
            budget_bits,
            base_entries: 2 * scale + extra_base as usize,
            table_entries: scale,
            // Longer epochs for bigger tables: usefulness should survive
            // roughly one working-set traversal before it decays.
            aging_period: (total as u32 * 2).next_power_of_two().clamp(1024, 1 << 15),
            group,
        }
    }

    /// The 8KB design point.
    pub fn budget_8kb() -> Self {
        Self::for_budget(8 * 8192, HistoryGroup::AllIndirect)
    }

    /// The 16KB design point.
    pub fn budget_16kb() -> Self {
        Self::for_budget(16 * 8192, HistoryGroup::AllIndirect)
    }

    /// The flagship 64KB design point.
    pub fn budget_64kb() -> Self {
        Self::for_budget(64 * 8192, HistoryGroup::AllIndirect)
    }

    /// Total entries across base and tagged tables.
    pub fn total_entries(&self) -> usize {
        self.base_entries + NUM_TABLES * self.table_entries
    }

    /// The storage bits this configuration occupies (config-derived; the
    /// live-state audit is the declared state's storage report).
    pub fn storage_bits(&self) -> u64 {
        self.base_entries as u64 * BASE_ENTRY_BITS
            + (0..NUM_TABLES)
                .map(|i| self.table_entries as u64 * tagged_entry_bits(i))
                .sum::<u64>()
            + register_bits()
    }
}

/// One tagged-table entry.
#[derive(Debug, Clone, Copy)]
struct T64Entry {
    tag: u16,
    target: Addr,
    confidence: Saturating2Bit,
    /// 2-bit useful counter (0..=3).
    useful: u8,
}

/// One base-BTB entry.
#[derive(Debug, Clone, Copy)]
struct BaseEntry {
    target: Addr,
    confidence: Saturating2Bit,
}

impl PersistElem for T64Entry {
    fn save_elem(&self, out: &mut StateSink<'_>) {
        out.u64(u64::from(self.tag));
        out.u64(self.target.raw());
        self.confidence.save_elem(out);
        out.u8(self.useful);
    }

    fn load_elem(src: &mut StateSource<'_>) -> Result<Self, PersistError> {
        let tag = u16::try_from(src.u64()?)
            .map_err(|_| PersistError::Corrupt("ITTAGE64 tag too wide"))?;
        let (target, confidence) = (Addr::new(src.u64()?), Saturating2Bit::load_elem(src)?);
        match src.u8()? {
            useful @ 0..=3 => Ok(Self {
                tag,
                target,
                confidence,
                useful,
            }),
            _ => Err(PersistError::Corrupt(
                "ITTAGE64 useful counter out of range",
            )),
        }
    }
}

impl PersistElem for BaseEntry {
    fn save_elem(&self, out: &mut StateSink<'_>) {
        out.u64(self.target.raw());
        self.confidence.save_elem(out);
    }

    fn load_elem(src: &mut StateSource<'_>) -> Result<Self, PersistError> {
        Ok(Self {
            target: Addr::new(src.u64()?),
            confidence: Saturating2Bit::load_elem(src)?,
        })
    }
}

/// The global path history and the CSRs folding it.
///
/// One ring holds the last chunks, the newest at `head`. A shift writes
/// the new chunk and updates every CSR in O(1): rotate by its step, XOR
/// the newcomer in, and XOR out the chunk leaving its window, read from
/// the ring at the window's fixed age. A slot never written holds 0 and
/// contributes nothing, so a short history needs no length check.
#[derive(Debug, Clone)]
struct PathFolds {
    ring: [u8; RING],
    head: usize,
    /// Chunks shifted in, saturating at the longest window.
    len: usize,
    /// One register per entry of [`FOLDS`].
    csrs: [u32; NUM_FOLDS],
}

impl PathFolds {
    fn new() -> Self {
        Self {
            ring: [0; RING],
            head: 0,
            len: 0,
            csrs: [0; NUM_FOLDS],
        }
    }

    /// The chunk shifted in `age` shifts ago (0 = newest).
    #[inline]
    // ibp-lint: allow(L007, "the position is masked to the fixed ring length")
    fn chunk(&self, age: usize) -> u8 {
        self.ring[self.head.wrapping_sub(age) & RING_MASK]
    }

    /// Shifts a 4-bit chunk in and advances every CSR. Each CSR's
    /// geometry is a constant argument, so every rotation compiles to
    /// fixed shifts.
    #[inline]
    // ibp-lint: allow(L007, "ring positions are masked to the fixed ring length; CSR ids are constants below NUM_FOLDS")
    fn shift_in(&mut self, chunk: u8) {
        self.head = (self.head + 1) & RING_MASK;
        self.ring[self.head] = chunk;
        self.len = (self.len + 1).min(MAX_WINDOW);
        let fresh = u32::from(chunk);
        macro_rules! advance_all {
            ($($k:literal)*) => {$(
                self.csrs[$k] = advance::<
                    { FOLDS[$k].width },
                    { FOLDS[$k].step },
                    { FOLDS[$k].window },
                    { FOLDS[$k].exit_rot },
                >(self.csrs[$k], &self.ring, self.head, fresh);
            )*};
        }
        advance_all!(0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23);
    }

    /// `fold`'s register computed from scratch over the recorded chunks.
    fn recompute(&self, fold: Fold) -> u32 {
        (0..self.len.min(fold.window)).fold(0, |acc, age| {
            let rot = (age as u32 * fold.step) % fold.width;
            acc ^ fold.rotl(u32::from(self.chunk(age)), rot)
        })
    }

    /// Every CSR equals its from-scratch fold, and every slot older than
    /// the recorded history is still 0, as the shift assumes.
    fn is_consistent(&self) -> bool {
        self.csrs
            .iter()
            .zip(FOLDS)
            .all(|(&csr, fold)| csr == self.recompute(fold))
            && (self.len..MAX_WINDOW).all(|age| self.chunk(age) == 0)
    }
}

/// One CSR after a shift: rotated by `S` within `W` bits, the newcomer
/// XORed in, and the chunk `L` shifts old (at rotation `E`) XORed out.
#[inline(always)]
fn advance<const W: u32, const S: u32, const L: usize, const E: u32>(
    csr: u32,
    ring: &[u8; RING],
    head: usize,
    fresh: u32,
) -> u32 {
    let rotl = |v: u32, by: u32| ((v << by) | (v >> (W - by))) & ((1 << W) - 1);
    // The masked position is always in range; `get` keeps this
    // panic-free without a check the compiler does not already drop.
    let leaving = u32::from(
        ring.get(head.wrapping_sub(L) & RING_MASK)
            .copied()
            .unwrap_or(0),
    );
    rotl(csr, S) ^ fresh ^ rotl(leaving, E)
}

impl Persist for PathFolds {
    /// Writes one ring per CSR, in [`FOLDS`] order: the geometry
    /// (`width, 4, window, step`), the count `n = min(len, window)` and
    /// the newest `n` chunks, oldest first. These are the bytes of one
    /// `FoldedHistory` per CSR fed the same chunks.
    fn save_state(&self, out: &mut StateSink<'_>) {
        for fold in FOLDS {
            let n = self.len.min(fold.window);
            out.u32(fold.width);
            out.u32(CHUNK_BITS);
            out.usize(fold.window);
            out.u32(fold.step);
            out.usize(n);
            for age in (0..n).rev() {
                out.u64(u64::from(self.chunk(age)));
            }
        }
    }

    /// Reads all rings, requires each to be the newest `min(len,
    /// window)` chunks of the longest index fold's ring (`len` chunks),
    /// and replays that ring to rebuild the CSRs.
    // ibp-lint: allow(L007, "constant index below NUM_FOLDS into a fixed array; `len - n` follows `n == len.min(window)`")
    fn load_state(&mut self, src: &mut StateSource<'_>) -> Result<(), PersistError> {
        let mut rings = [([0u8; MAX_WINDOW], 0usize); NUM_FOLDS];
        for ((chunks, n), fold) in rings.iter_mut().zip(FOLDS) {
            src.expect_u64(u64::from(fold.width), "folded history out_bits")?;
            src.expect_u64(u64::from(CHUNK_BITS), "folded history in_bits")?;
            src.expect_u64(fold.window as u64, "folded history length")?;
            src.expect_u64(u64::from(fold.step), "folded history rotation")?;
            *n = src.usize()?;
            if *n > fold.window {
                return Err(PersistError::Corrupt("folded history overfull"));
            }
            for chunk in chunks.iter_mut().take(*n) {
                *chunk = match src.u64()? {
                    c @ 0..=15 => c as u8,
                    _ => return Err(PersistError::Corrupt("ITTAGE64 path chunk out of range")),
                };
            }
        }
        let (path, len) = rings[NUM_TABLES - 1];
        let agree = rings.iter().zip(FOLDS).all(|((chunks, n), fold)| {
            *n == len.min(fold.window) && chunks[..*n] == path[len - n..len]
        });
        if !agree {
            return Err(PersistError::Corrupt("ITTAGE64 history rings disagree"));
        }
        *self = Self::new();
        for &chunk in &path[..len] {
            self.shift_in(chunk);
        }
        Ok(())
    }
}

/// Lookup state carried from fetch to resolve.
#[derive(Debug, Clone, Copy)]
struct Lookup {
    pc: Addr,
    /// Each tagged table's slot and partial tag for this pc and history.
    slots: [u32; NUM_TABLES],
    tags: [u16; NUM_TABLES],
    /// The base BTB's slot for this pc.
    base_slot: u32,
    /// Provider table (None = base BTB).
    provider: Option<usize>,
    /// What the provider said.
    provider_pred: Option<Addr>,
    /// What the next-longest hit (or base) said.
    alt_pred: Option<Addr>,
    /// The arbitrated final answer.
    prediction: Option<Addr>,
    /// Provider confidence was weak (newly allocated / unproven).
    weak: bool,
}

/// The faithful ITTAGE predictor at a declared bit budget.
///
/// # Examples
///
/// ```
/// use ibp_isa::Addr;
/// use ibp_predictors::{Ittage64, Ittage64Config, IndirectPredictor, PredictorState};
///
/// let mut p = Ittage64::new(Ittage64Config::budget_64kb());
/// p.update(Addr::new(0x40), Addr::new(0x900));
/// assert_eq!(p.predict(Addr::new(0x40)), Some(Addr::new(0x900)));
/// assert!(p.report_storage().total_bits() <= 64 * 8192);
/// ```
#[derive(Debug, Clone)]
pub struct Ittage64 {
    config: Ittage64Config,
    base: Vec<Option<BaseEntry>>,
    tables: Vec<Vec<Option<T64Entry>>>,
    /// Reduces a hash onto a tagged table's slots.
    table_mod: FastMod,
    /// Reduces a pc onto the base BTB's slots.
    base_mod: FastMod,
    history: PathFolds,
    use_alt_on_na: SaturatingCounter,
    /// Updates since the last aging epoch.
    tick: u32,
    /// Allocation PRNG state (SplitMix64).
    rng: u64,
    last: Option<Lookup>,
    // Telemetry (persisted so snapshots stay canonical).
    epochs: u64,
    stat_allocs: u64,
    stat_alloc_fails: u64,
    stat_alt_overrides: u64,
}

impl Ittage64 {
    /// Creates an ITTAGE from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if any size parameter is zero.
    pub fn new(config: Ittage64Config) -> Self {
        assert!(config.base_entries > 0 && config.table_entries > 0);
        assert!(config.aging_period > 0);
        Self {
            base: vec![None; config.base_entries],
            tables: (0..NUM_TABLES)
                .map(|_| vec![None; config.table_entries])
                .collect(),
            table_mod: FastMod::new(config.table_entries as u64),
            base_mod: FastMod::new(config.base_entries as u64),
            history: PathFolds::new(),
            use_alt_on_na: SaturatingCounter::new(USE_ALT_BITS, 8),
            tick: 0,
            rng: ALLOC_SEED,
            last: None,
            epochs: 0,
            stat_allocs: 0,
            stat_alloc_fails: 0,
            stat_alt_overrides: 0,
            config,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &Ittage64Config {
        &self.config
    }

    /// Number of completed useful-counter aging epochs.
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// Sum of all useful counters — the "usefulness mass" the aging
    /// epochs keep bounded.
    pub fn useful_mass(&self) -> u64 {
        self.tables
            .iter()
            .flatten()
            .flatten()
            .map(|e| e.useful as u64)
            .sum()
    }

    /// Checks the incremental-fold invariants: every CSR equals its fold
    /// of the path history computed from scratch, and every stored tag
    /// fits its table's declared width. Used by the property suite.
    pub fn check_consistency(&self) -> bool {
        let tags_ok = (0..NUM_TABLES).all(|i| {
            self.tables[i]
                .iter()
                .flatten()
                .all(|e| (e.tag as u64) < (1u64 << TAG_BITS[i]))
        });
        self.history.is_consistent() && tags_ok
    }

    /// Full ITTAGE lookup: every table's slot and tag, then the longest
    /// tag hit provides, the next hit (or base) is the alternate, and a
    /// weak provider may defer to the alternate under the
    /// `USE_ALT_ON_NA` arbitration counter.
    // ibp-lint: allow(L007, "table ids enumerate the fixed NUM_TABLES arrays; slots are reduced by each table's FastMod")
    fn lookup(&self, pc: Addr) -> Lookup {
        let pc_bits = pc.raw() >> 2;
        let tag_hash = pc_bits.wrapping_mul(0x9E37_79B9);
        let csrs = &self.history.csrs;
        let mut slots = [0u32; NUM_TABLES];
        let mut tags = [0u16; NUM_TABLES];
        for t in 0..NUM_TABLES {
            let folded = u64::from(csrs[t]);
            let salt = (t as u64 + 1).wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
            slots[t] = self.table_mod.rem(pc_bits ^ folded ^ (folded << 7) ^ salt) as u32;
            let f1 = u64::from(csrs[NUM_TABLES + t]);
            let f2 = u64::from(csrs[2 * NUM_TABLES + t]);
            tags[t] = ((tag_hash ^ f1 ^ (f2 << 1)) & ((1u64 << TAG_BITS[t]) - 1)) as u16;
        }
        let mut provider = None;
        let mut provider_pred = None;
        let mut provider_weak = false;
        let mut alt_pred = None;
        let mut alt_found = false;
        for t in (0..NUM_TABLES).rev() {
            if let Some(e) = &self.tables[t][slots[t] as usize] {
                if e.tag == tags[t] {
                    if provider.is_none() {
                        provider = Some(t);
                        provider_pred = Some(e.target);
                        provider_weak = e.confidence.value() == 0;
                    } else {
                        alt_pred = Some(e.target);
                        alt_found = true;
                        break;
                    }
                }
            }
        }
        let base_slot = self.base_mod.rem(pc_bits) as u32;
        let base_pred = self.base[base_slot as usize].map(|b| b.target);
        if !alt_found {
            alt_pred = base_pred;
        }
        let prediction = match provider {
            Some(_) => {
                if provider_weak && self.use_alt_on_na.is_high_half() && alt_pred.is_some() {
                    alt_pred
                } else {
                    provider_pred
                }
            }
            None => base_pred,
        };
        Lookup {
            pc,
            slots,
            tags,
            base_slot,
            provider,
            provider_pred,
            alt_pred,
            prediction,
            weak: provider_weak,
        }
    }

    /// Allocate-on-mispredict: pick the starting table above the provider
    /// with SplitMix64-weighted skip (P=1/2 next, 1/4 each for the two
    /// after), claim the first non-useful slot scanning upward, and decay
    /// the u-counters of every scanned candidate when all are useful.
    /// Writes exactly the slots and tags `lk` computed.
    // ibp-lint: allow(L007, "table ids enumerate self.tables; slots come from this predictor's own lookup")
    fn allocate_above(&mut self, lk: &Lookup, actual: Addr) {
        let next = lk.provider.map(|p| p + 1).unwrap_or(0);
        if next >= NUM_TABLES {
            return;
        }
        let skip = match splitmix64(&mut self.rng) & 3 {
            0 | 1 => 0,
            2 => 1,
            _ => 2,
        };
        let start = (next + skip).min(NUM_TABLES - 1);
        for t in start..NUM_TABLES {
            let slot = &mut self.tables[t][lk.slots[t] as usize];
            match slot {
                Some(e) if e.useful > 0 => continue,
                _ => {
                    *slot = Some(T64Entry {
                        tag: lk.tags[t],
                        target: actual,
                        // Weak on arrival: the entry must prove itself
                        // before the arbitration trusts it over the alt.
                        confidence: Saturating2Bit::new(0),
                        useful: 0,
                    });
                    self.stat_allocs += 1;
                    return;
                }
            }
        }
        // Every candidate useful: pay the allocation failure forward by
        // decaying their u-counters so the tables cannot wedge.
        for t in start..NUM_TABLES {
            if let Some(e) = &mut self.tables[t][lk.slots[t] as usize] {
                e.useful = e.useful.saturating_sub(1);
            }
        }
        self.stat_alloc_fails += 1;
    }

    /// Advance the aging clock; on epoch boundaries halve every useful
    /// counter (graceful aging — recent usefulness survives one epoch,
    /// stale usefulness decays to zero in two).
    fn age_tick(&mut self) {
        self.tick += 1;
        if self.tick >= self.config.aging_period {
            self.tick = 0;
            self.epochs += 1;
            for table in self.tables.iter_mut() {
                for e in table.iter_mut().flatten() {
                    e.useful >>= 1;
                }
            }
        }
    }
}

/// Certification root: the ITTAGE-64 fetch path, registered with
/// ibp-analyze's L007 (panic-free) and L008 (alloc-free) call-graph
/// certifications so the hot path is mechanically proven clean even when
/// no simulator root happens to reach it.
pub fn ittage64_predict(p: &mut Ittage64, pc: Addr) -> Option<Addr> {
    p.predict(pc)
}

/// Certification root: the ITTAGE-64 resolve path (see
/// [`ittage64_predict`]).
pub fn ittage64_update(p: &mut Ittage64, pc: Addr, actual: Addr) {
    p.update(pc, actual)
}

impl IndirectPredictor for Ittage64 {
    fn name(&self) -> String {
        // ibp-lint: allow(L008, "name() runs once per run for reporting, not per event")
        format!("ITTAGE64-{}KB", (self.config.budget_bits + 4096) / 8192)
    }

    fn predict(&mut self, pc: Addr) -> Option<Addr> {
        let lk = self.lookup(pc);
        if lk.provider.is_some() && lk.prediction != lk.provider_pred {
            self.stat_alt_overrides += 1;
        }
        let prediction = lk.prediction;
        self.last = Some(lk);
        prediction
    }

    // ibp-lint: allow(L007, "provider/alt table ids were produced by this predictor's own lookup")
    fn update(&mut self, pc: Addr, actual: Addr) {
        let lk = match self.last.take() {
            Some(lk) if lk.pc == pc => lk,
            _ => self.lookup(pc),
        };
        let correct = lk.prediction == Some(actual);
        let provider_correct = lk.provider_pred == Some(actual);
        let alt_correct = lk.alt_pred == Some(actual);
        if let Some(t) = lk.provider {
            // Arbitration learning: when a weak provider and its alternate
            // disagree, the global counter tracks which side resolves
            // correctly.
            if lk.weak && lk.provider_pred != lk.alt_pred {
                if alt_correct {
                    self.use_alt_on_na.increment();
                } else if provider_correct {
                    self.use_alt_on_na.decrement();
                }
            }
            if let Some(e) = &mut self.tables[t][lk.slots[t] as usize] {
                if provider_correct {
                    e.confidence.increment();
                } else if e.confidence.value() == 0 {
                    e.target = actual;
                    e.confidence.set(1);
                } else {
                    e.confidence.decrement();
                }
                // Usefulness: the provider earns (or loses) its keep only
                // where it actually differs from the alternate.
                if lk.provider_pred != lk.alt_pred {
                    if provider_correct {
                        e.useful = (e.useful + 1).min(3);
                    } else {
                        e.useful = e.useful.saturating_sub(1);
                    }
                }
            }
        }
        // The base BTB is the fallback for every future allocation miss;
        // keep it warm with 2-bit hysteresis on every resolve.
        match &mut self.base[lk.base_slot as usize] {
            Some(b) if b.target == actual => {
                b.confidence.increment();
            }
            Some(b) => {
                if b.confidence.value() == 0 {
                    b.target = actual;
                    b.confidence.set(1);
                } else {
                    b.confidence.decrement();
                }
            }
            slot @ None => {
                *slot = Some(BaseEntry {
                    target: actual,
                    confidence: Saturating2Bit::new(1),
                });
            }
        }
        // Allocate only when the provider itself was wrong — if the
        // arbitration picked the wrong side of a correct provider, the
        // tables already hold the answer.
        if !correct && !provider_correct {
            self.allocate_above(&lk, actual);
        }
        self.age_tick();
    }

    fn observe(&mut self, event: &BranchEvent) {
        if self.config.group.accepts(event) {
            // Each branch contributes 4 target bits to every window.
            self.history
                .shift_in((event.target().path_bits() & 0xF) as u8);
        }
    }

    fn cost(&self) -> HardwareCost {
        // Config-derived declaration; the declared state's storage report
        // re-derives the same inventory from the live allocated state and
        // bitreport audits the two against each other.
        let c = &self.config;
        let base = HardwareCost::table(c.base_entries as u64, BASE_ENTRY_BITS);
        let tagged: HardwareCost = (0..NUM_TABLES)
            .map(|i| HardwareCost::table(c.table_entries as u64, tagged_entry_bits(i)))
            .sum();
        base + tagged + HardwareCost::register(register_bits())
    }

    fn reset(&mut self) {
        *self = Self::new(self.config);
    }

    fn report_metrics(&self, sink: &mut dyn FnMut(&str, u64)) {
        sink("ittage64.allocs", self.stat_allocs);
        sink("ittage64.alloc_fails", self.stat_alloc_fails);
        sink("ittage64.alt_overrides", self.stat_alt_overrides);
        sink("ittage64.aging_epochs", self.epochs);
        sink("ittage64.useful_mass", self.useful_mass());
        sink(
            "ittage64.tagged_occupied",
            self.tables
                .iter()
                .map(|t| t.iter().flatten().count() as u64)
                .sum(),
        );
        sink(
            "ittage64.base_occupied",
            self.base.iter().flatten().count() as u64,
        );
        sink("ittage64.use_alt_on_na", self.use_alt_on_na.value() as u64);
    }

    // Fully private, like ITTAGE-lite: allocation scans and u-decay
    // mutate on nearly every update, so COW overlays would converge to a
    // full copy. Tables are written sparse and ascending (canonical).
    declare_state! { self;
        guard self.config.budget_bits, "ITTAGE64 budget bits";
        guard self.config.base_entries as u64, "ITTAGE64 base entries";
        guard self.config.table_entries as u64, "ITTAGE64 table entries";
        guard u64::from(self.config.aging_period), "ITTAGE64 aging period";
        guard self.config.group.code(), "ITTAGE64 history group";
        "alloc_prng" [Metadata(PRNG_BITS)] => self.rng;
        "aging_tick" [Metadata(TICK_BITS)] => self.tick;
        check self.tick < self.config.aging_period, "ITTAGE64 tick past aging period";
        "epochs" [] => self.epochs;
        "use_alt_on_na" [Counter(u64::from(USE_ALT_BITS))] => self.use_alt_on_na;
        "allocs" [] => self.stat_allocs;
        "alloc_fails" [] => self.stat_alloc_fails;
        "alt_overrides" [] => self.stat_alt_overrides;
        "base" [Target(64) targets, Counter(2) conf, Metadata(1) valid] => self.base;
        for i in (0..NUM_TABLES) {
            "T"(i) [
                Tag(u64::from(TAG_BITS[i])) tags,
                Target(64) targets,
                Counter(2) conf,
                Useful(2) useful,
                Metadata(1) valid,
            ] => self.tables[i];
        }
        check self.tables.iter().zip(TAG_BITS)
            .all(|(t, bits)| t.iter().flatten().all(|e| e.tag >> bits == 0)),
            "ITTAGE64 tag too wide";
        // The global path history register and every CSR folding it.
        "history" [
            History(MAX_WINDOW as u64 * u64::from(CHUNK_BITS)) path,
            History(csr_bits()) csrs,
        ] => self.history;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PredictorState;

    fn drive(p: &mut Ittage64, pc: Addr, target: Addr) -> bool {
        let hit = p.predict(pc) == Some(target);
        p.update(pc, target);
        p.observe(&BranchEvent::indirect_jmp(pc, target));
        hit
    }

    #[test]
    fn presets_sit_just_under_their_budgets() {
        for (kb, config) in [
            (8u64, Ittage64Config::budget_8kb()),
            (16, Ittage64Config::budget_16kb()),
            (64, Ittage64Config::budget_64kb()),
        ] {
            let budget = kb * 8192;
            let bits = config.storage_bits();
            assert!(bits <= budget, "{kb}KB preset over budget: {bits}");
            assert!(
                bits * 100 >= budget * 99,
                "{kb}KB preset wastes >1% of its budget: {bits} of {budget}"
            );
            let p = Ittage64::new(config);
            assert_eq!(p.report_storage().total_bits(), bits);
            assert_eq!(p.cost().bits(), bits);
            assert_eq!(p.cost().entries(), config.total_entries() as u64);
        }
    }

    #[test]
    fn learns_monomorphic_branch() {
        let mut p = Ittage64::new(Ittage64Config::budget_8kb());
        let pc = Addr::new(0x40);
        let t = Addr::new(0x904);
        let mut misses = 0;
        for i in 0..50 {
            if !drive(&mut p, pc, t) && i > 0 {
                misses += 1;
            }
        }
        assert_eq!(misses, 0);
    }

    #[test]
    fn learns_cyclic_pattern_through_tagged_tables() {
        let mut p = Ittage64::new(Ittage64Config::budget_64kb());
        let pc = Addr::new(0x100);
        let targets = [Addr::new(0xA04), Addr::new(0xB08), Addr::new(0xC0C)];
        let mut late_misses = 0;
        for i in 0..900 {
            let t = targets[i % 3];
            if !drive(&mut p, pc, t) && i > 300 {
                late_misses += 1;
            }
        }
        assert!(late_misses < 20, "ITTAGE64 failed cycle: {late_misses}");
    }

    #[test]
    fn learns_deep_history_pattern() {
        // Period-17 token stream over 4 targets: needs long context, the
        // upper geometric tables' home turf.
        let seq = [0usize, 0, 1, 2, 1, 0, 2, 2, 1, 3, 0, 3, 1, 2, 3, 3, 0];
        let targets = [
            Addr::new(0xA04),
            Addr::new(0xB08),
            Addr::new(0xC0C),
            Addr::new(0xD10),
        ];
        let mut p = Ittage64::new(Ittage64Config::budget_64kb());
        let pc = Addr::new(0x200);
        let mut late_misses = 0;
        for i in 0..3400 {
            let t = targets[seq[i % 17]];
            if !drive(&mut p, pc, t) && i > 1700 {
                late_misses += 1;
            }
        }
        assert!(late_misses < 50, "ITTAGE64 failed period-17: {late_misses}");
    }

    #[test]
    fn aging_epochs_halve_useful_mass() {
        let config = Ittage64Config {
            aging_period: 256,
            ..Ittage64Config::budget_8kb()
        };
        let mut p = Ittage64::new(config);
        // Build usefulness with competing polymorphic branches.
        for i in 0..255u64 {
            let pc = Addr::new(0x100 + (i % 13) * 4);
            let t = Addr::new(0x1000 + ((i * 7) % 5) * 0x40 + 4);
            drive(&mut p, pc, t);
        }
        assert_eq!(p.epochs(), 0);
        let before = p.useful_mass();
        let pc = Addr::new(0x100);
        let t = Addr::new(0x1000 + 4);
        drive(&mut p, pc, t); // crosses the 256-update boundary
        assert_eq!(p.epochs(), 1);
        // One more update may add at most one count after halving.
        assert!(
            p.useful_mass() <= before / 2 + 1,
            "mass {} not halved from {before}",
            p.useful_mass()
        );
    }

    #[test]
    fn folds_stay_consistent_under_load() {
        let mut p = Ittage64::new(Ittage64Config::budget_16kb());
        for i in 0..2000u64 {
            let pc = Addr::new(0x100 + (i % 31) * 4);
            let t = Addr::new(0x1000 + ((i * 13) % 11) * 0x40 + 4);
            drive(&mut p, pc, t);
        }
        assert!(p.check_consistency());
    }

    #[test]
    fn reset_restores_cold() {
        let mut p = Ittage64::new(Ittage64Config::budget_8kb());
        drive(&mut p, Addr::new(0x40), Addr::new(0x904));
        p.reset();
        assert_eq!(p.predict(Addr::new(0x40)), None);
        assert_eq!(p.epochs(), 0);
    }

    #[test]
    fn name_and_metrics() {
        let p = Ittage64::new(Ittage64Config::budget_64kb());
        assert_eq!(p.name(), "ITTAGE64-64KB");
        let mut names = Vec::new();
        p.report_metrics(&mut |n, _| names.push(n.to_string()));
        assert!(names.contains(&"ittage64.allocs".to_string()));
        assert!(names.contains(&"ittage64.useful_mass".to_string()));
    }

    #[test]
    fn persist_round_trip_restores_behaviour() {
        let mut p = Ittage64::new(Ittage64Config::budget_16kb());
        for i in 0..1500u64 {
            let pc = Addr::new(0x100 + (i % 9) * 4);
            let t = Addr::new(0x1000 + ((i * 7) % 5) * 0x40 + 4);
            drive(&mut p, pc, t);
        }
        let mut blob = Vec::new();
        p.save_state(&mut ibp_hw::StateSink::new(&mut blob));
        let mut q = Ittage64::new(Ittage64Config::budget_16kb());
        q.load_state(&mut ibp_hw::StateSource::new(&blob)).unwrap();
        // Continue both and demand identical predictions (incl. the
        // restored allocation PRNG stream and aging tick).
        for i in 0..1500u64 {
            let pc = Addr::new(0x100 + (i % 9) * 4);
            let t = Addr::new(0x1000 + ((i * 11) % 5) * 0x40 + 4);
            assert_eq!(p.predict(pc), q.predict(pc), "diverged at step {i}");
            p.update(pc, t);
            q.update(pc, t);
            let ev = BranchEvent::indirect_jmp(pc, t);
            p.observe(&ev);
            q.observe(&ev);
        }
        // Re-saving the restored instance must be byte-identical.
        let mut blob2 = Vec::new();
        let mut blob3 = Vec::new();
        p.save_state(&mut ibp_hw::StateSink::new(&mut blob2));
        q.save_state(&mut ibp_hw::StateSink::new(&mut blob3));
        assert_eq!(blob2, blob3);
        // Geometry guards: a different budget must refuse the blob.
        let mut other = Ittage64::new(Ittage64Config::budget_8kb());
        assert!(other
            .load_state(&mut ibp_hw::StateSource::new(&blob))
            .is_err());
        assert!(p.resident_bytes() > 0);
    }

    /// A history fed `n` pseudo-random chunks.
    fn history_of(n: usize) -> PathFolds {
        let mut h = PathFolds::new();
        let mut rng = 7;
        for _ in 0..n {
            h.shift_in((splitmix64(&mut rng) & 0xF) as u8);
        }
        h
    }

    fn history_blob(h: &PathFolds) -> Vec<u8> {
        let mut blob = Vec::new();
        h.save_state(&mut StateSink::new(&mut blob));
        blob
    }

    /// The rings a saved history holds, one per CSR, oldest chunk first.
    fn rings_of(h: &PathFolds) -> Vec<Vec<u64>> {
        FOLDS
            .iter()
            .map(|f| {
                let n = h.len.min(f.window);
                (0..n).rev().map(|age| u64::from(h.chunk(age))).collect()
            })
            .collect()
    }

    /// A blob holding `rings`, each under its CSR's geometry.
    fn rings_blob(rings: &[Vec<u64>]) -> Vec<u8> {
        let mut blob = Vec::new();
        let mut out = StateSink::new(&mut blob);
        for (fold, ring) in FOLDS.iter().zip(rings) {
            out.u32(fold.width);
            out.u32(CHUNK_BITS);
            out.usize(fold.window);
            out.u32(fold.step);
            out.usize(ring.len());
            for &chunk in ring {
                out.u64(chunk);
            }
        }
        blob
    }

    fn load_history(blob: &[u8]) -> Result<PathFolds, PersistError> {
        let mut h = PathFolds::new();
        h.load_state(&mut StateSource::new(blob))?;
        Ok(h)
    }

    #[test]
    fn history_keeps_the_folded_history_bytes_and_values() {
        use ibp_hw::FoldedHistory;
        for n in [0, 1, 5, 40, 108, 300] {
            let mut folds: Vec<FoldedHistory> = FOLDS
                .iter()
                .map(|f| FoldedHistory::with_rotation(f.width, CHUNK_BITS, f.window, f.step))
                .collect();
            let h = history_of(n);
            for age in (0..h.len).rev() {
                for f in &mut folds {
                    f.push(u64::from(h.chunk(age)));
                }
            }
            let mut want = Vec::new();
            for f in &folds {
                f.save_state(&mut StateSink::new(&mut want));
            }
            assert_eq!(history_blob(&h), want, "{n} chunks");
            let csrs: Vec<u64> = h.csrs.iter().map(|&c| u64::from(c)).collect();
            let folded: Vec<u64> = folds.iter().map(FoldedHistory::folded).collect();
            assert_eq!(csrs, folded, "{n} chunks");
            assert!(h.is_consistent());
        }
    }

    #[test]
    fn history_load_restores_and_resaves_identically() {
        for n in [0, 3, 50, 108, 500] {
            let h = history_of(n);
            let blob = history_blob(&h);
            let loaded = load_history(&blob).unwrap();
            assert!(loaded.is_consistent());
            assert_eq!(loaded.csrs, h.csrs, "{n} chunks");
            assert_eq!(history_blob(&loaded), blob, "{n} chunks");
        }
    }

    #[test]
    fn history_load_rejects_a_tag_ring_off_the_path() {
        let mut rings = rings_of(&history_of(50));
        assert_eq!(load_history(&rings_blob(&rings)).map(|_| ()), Ok(()));
        // CSR1 of table 2: its newest chunk no longer ends the path.
        let ring = &mut rings[NUM_TABLES + 2];
        *ring.last_mut().unwrap() ^= 1;
        assert_eq!(
            load_history(&rings_blob(&rings)).map(|_| ()),
            Err(PersistError::Corrupt("ITTAGE64 history rings disagree"))
        );
    }

    #[test]
    fn history_load_rejects_a_ring_of_the_wrong_length() {
        // Table 3's window is 13 of the 50 chunks; a 12-chunk ring is a
        // suffix of the path but not min(50, 13) long.
        let mut rings = rings_of(&history_of(50));
        rings[3].remove(0);
        assert_eq!(
            load_history(&rings_blob(&rings)).map(|_| ()),
            Err(PersistError::Corrupt("ITTAGE64 history rings disagree"))
        );
        // A longest index ring shorter than table 7's tag rings.
        let mut rings = rings_of(&history_of(50));
        rings[NUM_TABLES - 1].remove(0);
        assert_eq!(
            load_history(&rings_blob(&rings)).map(|_| ()),
            Err(PersistError::Corrupt("ITTAGE64 history rings disagree"))
        );
    }

    #[test]
    fn history_load_rejects_a_wide_chunk() {
        let mut rings = rings_of(&history_of(50));
        for ring in &mut rings {
            *ring.last_mut().unwrap() = 16;
        }
        assert_eq!(
            load_history(&rings_blob(&rings)).map(|_| ()),
            Err(PersistError::Corrupt("ITTAGE64 path chunk out of range"))
        );
    }

    #[test]
    fn history_load_rejects_an_overfull_ring() {
        let mut rings = rings_of(&history_of(50));
        rings[0].insert(0, 0);
        assert_eq!(
            load_history(&rings_blob(&rings)).map(|_| ()),
            Err(PersistError::Corrupt("folded history overfull"))
        );
    }

    #[test]
    fn saved_predictor_loads_and_resaves_identically() {
        let mut p = Ittage64::new(Ittage64Config::budget_8kb());
        for i in 0..700u64 {
            let pc = Addr::new(0x100 + (i % 11) * 4);
            let t = Addr::new(0x1000 + ((i * 7) % 13) * 0x40 + 4);
            drive(&mut p, pc, t);
        }
        let mut blob = Vec::new();
        p.save_state(&mut StateSink::new(&mut blob));
        let mut q = Ittage64::new(Ittage64Config::budget_8kb());
        q.load_state(&mut StateSource::new(&blob)).unwrap();
        assert!(q.check_consistency());
        let mut again = Vec::new();
        q.save_state(&mut StateSink::new(&mut again));
        assert_eq!(again, blob);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut p = Ittage64::new(Ittage64Config::budget_64kb());
            let mut misses = 0;
            for i in 0..2000u64 {
                let pc = Addr::new(0x100 + (i % 7) * 4);
                let t = Addr::new(0x1000 + ((i * i) % 5) * 0x40 + 4);
                if !drive(&mut p, pc, t) {
                    misses += 1;
                }
            }
            misses
        };
        assert_eq!(run(), run());
    }
}
