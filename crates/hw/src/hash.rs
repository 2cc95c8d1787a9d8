//! Indexing (hashing) functions for two-level indirect-branch predictors.
//!
//! A path history register holds far more state than any affordable pattern
//! history table has entries, so every predictor in the paper compresses the
//! history into a table index with a hash:
//!
//! * [`gshare`] — XOR of the branch PC with packed history (Chang et al.'s
//!   Target Cache, and the GAp baseline);
//! * [`fold_xor`] — XOR-folding of a wide value into a narrow one, the
//!   *Fold* step of SFSX/SFSXS;
//! * [`Sfsxs`] — the paper's **Select-Fold-Shift-XOR-Select** function
//!   (Figure 2): select low-order bits of each partial target, fold each to
//!   a few bits, left-shift the value from the target of age *i* by *i*
//!   bits, XOR everything into one signature, and finally *select* the `j`
//!   high-order bits of the signature as the index into the order-`j`
//!   Markov predictor;
//! * [`SfsxsRegister`] — a path history register that keeps each slot in
//!   the folded form SFSXS consumes and its signature current, so the
//!   PPM predictors never rescan their history;
//! * [`ReverseInterleave`] — the reverse-interleaving scheme used by
//!   Driesen & Hölzle's dual-path components.

use crate::history::PathHistory;
use crate::persist::{Persist, PersistError, StateSink, StateSource};

/// Classic gshare: XOR the PC with the packed history and keep `index_bits`.
///
/// # Panics
///
/// Panics if `index_bits` is zero or above 64.
///
/// # Examples
///
/// ```
/// use ibp_hw::hash::gshare;
///
/// assert_eq!(gshare(0b1100, 0b1010, 4), 0b0110);
/// ```
pub fn gshare(pc: u64, history: u128, index_bits: u32) -> u64 {
    debug_assert!(index_bits > 0 && index_bits <= 64, "index bits in 1..=64");
    let mixed = (pc as u128) ^ history;
    (mixed as u64) & mask(index_bits)
}

/// XOR-folds an `in_bits`-wide value into `out_bits` bits.
///
/// The value is cut into consecutive `out_bits`-wide chunks (starting from
/// the least-significant end) which are XORed together. This is the *Fold*
/// step of the SFSX family: it preserves entropy from every input bit while
/// narrowing the value.
///
/// # Panics
///
/// Panics if `out_bits` is zero, or if either width exceeds 64, or if
/// `out_bits > in_bits`.
///
/// # Examples
///
/// ```
/// use ibp_hw::hash::fold_xor;
///
/// // 10 bits folded to 5: low half XOR high half.
/// assert_eq!(fold_xor(0b11101_10010, 10, 5), 0b11101 ^ 0b10010);
/// ```
pub fn fold_xor(value: u64, in_bits: u32, out_bits: u32) -> u64 {
    debug_assert!(out_bits > 0, "fold output width must be non-zero");
    debug_assert!(in_bits <= 64 && out_bits <= 64, "widths must fit in u64");
    debug_assert!(out_bits <= in_bits, "cannot fold to a wider value");
    let mut v = value & mask(in_bits);
    let mut out = 0u64;
    while v != 0 {
        out ^= v & mask(out_bits);
        v >>= out_bits;
    }
    out
}

/// The paper's Select-Fold-Shift-XOR-Select indexing function (Figure 2).
///
/// For a PPM predictor of order `m` over a path history of `m` targets:
///
/// 1. **Select** — take the low-order `select_bits` bits of each partial
///    target in the history register (the PHR already stores exactly these
///    bits);
/// 2. **Fold** — XOR-fold each selected value into `fold_bits` bits;
/// 3. **Shift** — left-shift each folded value by its position `i`, the
///    *most recent* target receiving the largest shift (`depth - 1`) and
///    the oldest no shift;
/// 4. **XOR** — XOR all shifted values into a single signature of
///    `fold_bits + m - 1` bits;
/// 5. **Select** — the `j` *high-order* bits of the signature index the
///    order-`j` Markov predictor.
///
/// Step 5 fixes the size of the order-`j` table at `2^j` entries, which is
/// how the ten Markov predictors of the paper's order-10 configuration sum
/// to 2046 ≈ 2K entries. The shift orientation in step 3 makes the `j`
/// high-order bits a function of (predominantly) the `j` most recent
/// targets, so the order-`j` index approximates an order-`j` Markov
/// context: order 1 sees essentially only the previous target, and
/// extending a match to order `j+1` refines it with one older target.
///
/// # Examples
///
/// ```
/// use ibp_hw::hash::Sfsxs;
/// use ibp_hw::history::PathHistory;
///
/// let sfsxs = Sfsxs::new(10, 5, 10); // the paper's configuration
/// let mut phr = PathHistory::new(10, 10);
/// phr.push(0x3FF);
/// let sig = sfsxs.signature(&phr);
/// assert_eq!(sfsxs.index(sig, 10) >> 10, 0); // 10-bit index
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sfsxs {
    select_bits: u32,
    fold_bits: u32,
    depth: u32,
}

impl Sfsxs {
    /// Creates the hash for a history of `depth` targets, selecting
    /// `select_bits` per target and folding each to `fold_bits`.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero, if `fold_bits > select_bits`, or if
    /// the signature would exceed 64 bits.
    pub fn new(select_bits: u32, fold_bits: u32, depth: u32) -> Self {
        assert!(select_bits > 0 && fold_bits > 0 && depth > 0);
        assert!(fold_bits <= select_bits, "fold must narrow the selection");
        assert!(
            fold_bits + depth - 1 <= 64,
            "signature would exceed 64 bits"
        );
        Self {
            select_bits,
            fold_bits,
            depth,
        }
    }

    /// The paper's configuration: 10 targets, select 10 bits, fold to 5.
    pub fn paper() -> Self {
        Self::new(10, 5, 10)
    }

    /// Bits selected from each partial target.
    pub fn select_bits(&self) -> u32 {
        self.select_bits
    }

    /// Width of the signature in bits: `fold_bits + depth - 1`.
    pub fn signature_bits(&self) -> u32 {
        self.fold_bits + self.depth - 1
    }

    /// Computes the signature from a path history register.
    ///
    /// Only the `depth` most recent targets are used; the PHR may be deeper.
    ///
    /// # Panics
    ///
    /// Debug builds panic if the PHR holds fewer than `depth` targets.
    pub fn signature(&self, phr: &PathHistory) -> u64 {
        debug_assert!(
            phr.depth() >= self.depth as usize,
            "path history shallower than hash depth"
        );
        let mut sig = 0u64;
        for (age, slot) in phr.iter().take(self.depth as usize).enumerate() {
            let selected = slot & mask(self.select_bits);
            let folded = fold_xor(selected, self.select_bits, self.fold_bits);
            sig ^= folded << (self.depth - 1 - age as u32);
        }
        sig
    }

    /// Selects the index for the order-`j` Markov predictor: the `j`
    /// high-order bits of the signature.
    ///
    /// # Panics
    ///
    /// Debug builds panic if `order` is zero or exceeds the signature width.
    pub fn index(&self, signature: u64, order: u32) -> u64 {
        debug_assert!(
            order > 0 && order <= self.signature_bits(),
            "order must be in 1..=signature_bits"
        );
        signature >> (self.signature_bits() - order)
    }

    /// The alternative mentioned in the paper: select the `j` *low-order*
    /// bits instead. The authors measured little difference; we expose both
    /// so the ablation bench can reproduce that claim.
    pub fn index_low(&self, signature: u64, order: u32) -> u64 {
        debug_assert!(
            order > 0 && order <= self.signature_bits(),
            "order must be in 1..=signature_bits"
        );
        signature & mask(order)
    }
}

/// Ring capacity of [`SfsxsRegister`]: a power of two, so a ring
/// position is one mask away from any age.
const RING: usize = 16;
const RING_MASK: usize = RING - 1;

/// A path history register that keeps its SFSXS signature current.
///
/// Every PPM prediction indexes its Markov orders from the SFSXS
/// signature of a path history register. Recomputing the signature from
/// a [`PathHistory`] costs a select, a fold and a shift per slot on every
/// prediction. This register instead keeps each slot in the two forms the
/// hash consumes, its selected bits and their fold, in fixed inline rings,
/// and advances the signature as targets shift in:
///
/// * a target is folded once, when it enters, with a fixed trip count
///   (`ceil(select_bits / fold_bits)` chunks);
/// * the expiring slot's fold is read back from the ring, not recomputed;
/// * `signature = Σ_age fold(slot_age) << (depth-1-age)`, and the
///   expiring slot sits at shift 0. So XORing its fold out, shifting
///   right by one and depositing the fresh fold at shift `depth-1`
///   re-ages every slot in O(1).
///
/// Invariant: [`signature`](Self::signature) equals
/// [`Sfsxs::signature`] of a `PathHistory` of the same depth and width
/// fed the same targets. The register persists exactly that
/// `PathHistory`'s bytes and rebuilds its folds and signature on load, so
/// snapshot blobs do not depend on which of the two a predictor keeps.
///
/// # Examples
///
/// ```
/// use ibp_hw::hash::{Sfsxs, SfsxsRegister};
/// use ibp_hw::history::PathHistory;
///
/// let sfsxs = Sfsxs::paper();
/// let mut reg = SfsxsRegister::new(sfsxs);
/// let mut phr = PathHistory::new(10, 10);
/// for t in [0x3FF, 0x155, 0x2AA] {
///     reg.shift_in(t);
///     phr.push(t);
/// }
/// assert_eq!(reg.signature(), sfsxs.signature(&phr));
/// assert_eq!(reg.slot(0), 0x2AA);
/// ```
#[derive(Debug, Clone)]
pub struct SfsxsRegister {
    sfsxs: Sfsxs,
    select_mask: u64,
    fold_mask: u64,
    /// Fold chunks per slot: `ceil(select_bits / fold_bits)`.
    chunks: u32,
    /// Ring position of the newest slot; age `a` sits at
    /// `(head + a) & RING_MASK`.
    head: usize,
    /// Each slot's selected bits (the target's low `select_bits` bits).
    slots: [u64; RING],
    /// `folds[p]` is the fold of `slots[p]`.
    folds: [u64; RING],
    signature: u64,
}

/// Reads a ring at any position, wrapped to the ring.
#[inline]
// ibp-lint: allow(L007, "the position is masked to the fixed ring length")
fn ring_at(ring: &[u64; RING], pos: usize) -> u64 {
    ring[pos & RING_MASK]
}

impl SfsxsRegister {
    /// The deepest history a register keeps.
    pub const MAX_DEPTH: usize = RING;

    /// An all-zero register of as many targets as `sfsxs` covers,
    /// recording the bits it selects from each.
    ///
    /// # Panics
    ///
    /// Panics if the depth exceeds [`MAX_DEPTH`](Self::MAX_DEPTH) or the
    /// selection is wider than 64 bits.
    pub fn new(sfsxs: Sfsxs) -> Self {
        assert!(
            sfsxs.depth as usize <= Self::MAX_DEPTH,
            "register depth exceeds SfsxsRegister::MAX_DEPTH"
        );
        assert!(sfsxs.select_bits <= 64, "select bits must be in 1..=64");
        Self {
            sfsxs,
            select_mask: mask(sfsxs.select_bits),
            fold_mask: mask(sfsxs.fold_bits),
            chunks: sfsxs.select_bits.div_ceil(sfsxs.fold_bits),
            head: 0,
            slots: [0; RING],
            folds: [0; RING],
            signature: 0,
        }
    }

    /// The hash this register serves.
    pub fn sfsxs(&self) -> &Sfsxs {
        &self.sfsxs
    }

    /// Number of targets recorded.
    pub fn depth(&self) -> usize {
        self.sfsxs.depth as usize
    }

    /// Bits recorded per target.
    pub fn bits_per_target(&self) -> u32 {
        self.sfsxs.select_bits
    }

    /// Total register width in bits (`depth * select_bits`).
    pub fn total_bits(&self) -> u32 {
        self.sfsxs.depth * self.sfsxs.select_bits
    }

    /// The current SFSXS signature of the recorded targets.
    #[inline]
    pub fn signature(&self) -> u64 {
        self.signature
    }

    /// The selected bits of the target `age` pushes old (0 = newest).
    ///
    /// # Panics
    ///
    /// Debug builds panic if `age >= depth`.
    #[inline]
    pub fn slot(&self, age: usize) -> u64 {
        debug_assert!(age < self.depth(), "slot age out of range");
        ring_at(&self.slots, self.head + age)
    }

    /// `fold_xor(selected, select_bits, fold_bits)` with a fixed trip
    /// count: every chunk below `select_bits` is XORed in, zero or not.
    #[inline]
    fn fold(&self, selected: u64) -> u64 {
        let mut out = 0;
        for chunk in 0..self.chunks {
            // chunk * fold_bits < select_bits <= 64: the shift is in range.
            out ^= (selected >> (chunk * self.sfsxs.fold_bits)) & self.fold_mask;
        }
        out
    }

    /// Shifts a target in, discarding the oldest, and advances the
    /// signature. Only the low `select_bits` bits of `target` are kept.
    #[inline]
    // ibp-lint: allow(L007, "ring positions are masked to the fixed ring length")
    pub fn shift_in(&mut self, target: u64) {
        let depth = self.sfsxs.depth;
        let selected = target & self.select_mask;
        let fresh = self.fold(selected);
        let expired = ring_at(&self.folds, self.head + depth as usize - 1);
        let head = (self.head + RING_MASK) & RING_MASK;
        self.head = head;
        self.slots[head] = selected;
        self.folds[head] = fresh;
        self.signature = ((self.signature ^ expired) >> 1) ^ (fresh << (depth - 1));
    }

    /// Clears the register back to all zeros.
    pub fn clear(&mut self) {
        self.head = 0;
        self.slots = [0; RING];
        self.folds = [0; RING];
        self.signature = 0;
    }
}

impl Persist for SfsxsRegister {
    /// Writes exactly what [`PathHistory`]'s `save_state` writes for the
    /// same targets: the depth, the width, then each slot newest first.
    fn save_state(&self, out: &mut StateSink<'_>) {
        out.u64(self.depth() as u64);
        out.u8(self.sfsxs.select_bits as u8);
        for age in 0..self.depth() {
            out.u64(self.slot(age));
        }
    }

    /// Reads [`PathHistory`]'s bytes and replays the targets oldest
    /// first, which rebuilds every fold and the signature.
    fn load_state(&mut self, src: &mut StateSource<'_>) -> Result<(), PersistError> {
        let depth = self.depth();
        src.expect_u64(depth as u64, "path history depth")?;
        if src.u8()? != self.sfsxs.select_bits as u8 {
            return Err(PersistError::Mismatch("path history target width"));
        }
        let mut newest_first = [0u64; RING];
        for slot in newest_first.iter_mut().take(depth) {
            *slot = src.u64()?;
        }
        self.clear();
        for &t in newest_first.iter().take(depth).rev() {
            self.shift_in(t);
        }
        Ok(())
    }
}

/// Reverse-interleaving index function (Driesen & Hölzle).
///
/// The partial targets are interleaved bit-by-bit, most recent target first,
/// with each target's bits taken from least significant upward, so that the
/// low-order (fast-changing) bits of *recent* targets land in the low-order
/// bits of the index. The result is XORed with the branch PC and truncated
/// to `index_bits`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReverseInterleave {
    path_length: u32,
    bits_per_target: u32,
    index_bits: u32,
    /// `spread[b]` deposits the 8 bits of `b` at stride `path_length`
    /// (bit `i` of `b` lands at position `i * path_length`), so one table
    /// lookup interleaves a whole byte of a partial target. Indexing runs
    /// once per predict *and* update of every dual-path component — the
    /// bit-by-bit loop it replaces dominated those predictors' hot loop.
    spread: [u64; 256],
}

impl ReverseInterleave {
    /// Creates the interleaver for `path_length` targets of
    /// `bits_per_target` bits each, producing an `index_bits`-bit index.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero or if the interleaved width
    /// (`path_length * bits_per_target`) exceeds 64 bits.
    pub fn new(path_length: u32, bits_per_target: u32, index_bits: u32) -> Self {
        assert!(path_length > 0 && bits_per_target > 0 && index_bits > 0);
        assert!(
            path_length * bits_per_target <= 64,
            "interleaved width exceeds 64 bits"
        );
        assert!(index_bits <= 64);
        let mut spread = [0u64; 256];
        for (b, out) in spread.iter_mut().enumerate() {
            for bit in 0..8 {
                if (b >> bit) & 1 == 1 {
                    *out |= 1u64 << (bit as u32 * path_length);
                }
            }
        }
        Self {
            path_length,
            bits_per_target,
            index_bits,
            spread,
        }
    }

    /// Spreads one partial target's bits at stride `path_length`, one byte
    /// chunk per table lookup. Exactly `Σ_bit ((slot >> bit) & 1) <<
    /// (bit * path_length)`; chunk shifts stay below 64 because
    /// `path_length * bits_per_target <= 64` and slots are masked to
    /// `bits_per_target` bits.
    #[inline]
    // ibp-lint: allow(L007, "indices come from bit positions below the validated interleave width")
    fn spread_bits(&self, slot: u64) -> u64 {
        let mut out = self.spread[(slot & 0xFF) as usize];
        let mut rest = slot >> 8;
        let mut chunk_shift = 8 * self.path_length;
        while rest != 0 {
            out |= self.spread[(rest & 0xFF) as usize] << chunk_shift;
            rest >>= 8;
            chunk_shift += 8 * self.path_length;
        }
        out
    }

    /// Computes the index from the PC and a path history register.
    ///
    /// # Panics
    ///
    /// Debug builds panic if the PHR holds fewer than `path_length` targets.
    pub fn index(&self, pc: u64, phr: &PathHistory) -> u64 {
        debug_assert!(
            phr.depth() >= self.path_length as usize,
            "path history shallower than path length"
        );
        let mut interleaved = 0u64;
        for (age, slot) in phr.iter().take(self.path_length as usize).enumerate() {
            interleaved |= self.spread_bits(slot) << age;
        }
        (interleaved ^ pc) & mask(self.index_bits)
    }
}

fn mask(bits: u32) -> u64 {
    if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gshare_xors_and_masks() {
        assert_eq!(gshare(0xFF, 0x0F, 4), 0x0);
        assert_eq!(gshare(0xF0, 0x0F, 8), 0xFF);
        assert_eq!(gshare(0x12345678, 0, 12), 0x678);
    }

    // Debug builds only: gshare checks its width with debug_assert! only (per-event path).
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "index bits")]
    fn gshare_zero_bits_panics() {
        let _ = gshare(0, 0, 0);
    }

    #[test]
    fn fold_xor_basic() {
        // Figure 2 shows 11101 and 10010 being XORed after the fold.
        assert_eq!(fold_xor(0b11101_10010, 10, 5), 0b01111);
        assert_eq!(fold_xor(0xFFFF, 16, 8), 0x00);
        assert_eq!(fold_xor(0xFF00, 16, 8), 0xFF);
    }

    #[test]
    fn fold_xor_uneven_widths() {
        // 10 bits folded into 4: chunks 0b0010, 0b1011, 0b11 (high bits).
        let v = 0b11_1011_0010u64;
        assert_eq!(fold_xor(v, 10, 4), 0b0010 ^ 0b1011 ^ 0b11);
    }

    #[test]
    fn fold_xor_identity_when_same_width() {
        assert_eq!(fold_xor(0x2AA, 10, 10), 0x2AA);
    }

    // Debug builds only: fold_xor checks its widths with debug_assert! only (per-event path).
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "cannot fold")]
    fn fold_to_wider_panics() {
        let _ = fold_xor(1, 4, 8);
    }

    #[test]
    fn sfsxs_signature_width_matches_paper() {
        // 10 targets, fold to 5 bits: signature is 5 + 10 - 1 = 14 bits;
        // the order-10 table gets a 10-bit index (1024 entries).
        let s = Sfsxs::paper();
        assert_eq!(s.signature_bits(), 14);
    }

    #[test]
    fn sfsxs_signature_is_bounded() {
        let s = Sfsxs::paper();
        let mut phr = PathHistory::new(10, 10);
        for t in 0..200u64 {
            phr.push(t.wrapping_mul(0x9E3779B9));
            let sig = s.signature(&phr);
            assert!(sig < (1 << 14));
        }
    }

    #[test]
    fn sfsxs_single_target_signature() {
        // One pushed target of all-ones: select 10 ones, fold to 5 bits
        // (0b11111 ^ 0b11111 = 0) ... so push a value with distinct halves.
        let s = Sfsxs::paper();
        let mut phr = PathHistory::new(10, 10);
        phr.push(0b11101_10010);
        // The single (most recent) target is shifted by depth-1 = 9;
        // every other slot folds to zero.
        assert_eq!(s.signature(&phr), 0b01111 << 9);
    }

    #[test]
    fn sfsxs_shift_most_recent_highest() {
        let s = Sfsxs::new(4, 2, 3);
        let mut phr = PathHistory::new(3, 4);
        // Push three targets; after pushes: age0=c (most recent), age1=b,
        // age2=a (oldest).
        phr.push(0b0001); // a: fold(0b0001,4,2)=0b01
        phr.push(0b0100); // b: fold=0b01
        phr.push(0b0000); // c: fold=0
                          // sig = c<<2 ^ b<<1 ^ a<<0 = 0 ^ 0b10 ^ 0b01 = 0b011
        assert_eq!(s.signature(&phr), 0b011);
    }

    #[test]
    fn sfsxs_oldest_target_only_touches_high_orders() {
        // Changing only the oldest recorded target must leave low-order
        // indices intact: low orders should depend on recent history.
        let s = Sfsxs::paper();
        let mut recent_only = PathHistory::new(10, 10);
        for &v in &[0x1u64, 0x2, 0x3] {
            recent_only.push(v);
        }
        let mut with_old = PathHistory::new(10, 10);
        with_old.push(0x77); // will age to the oldest slot
        for _ in 0..6 {
            with_old.push(0);
        }
        for &v in &[0x1u64, 0x2, 0x3] {
            with_old.push(v);
        }
        let sa = s.signature(&recent_only);
        let sb = s.signature(&with_old);
        for j in 1..=9 {
            assert_eq!(s.index(sa, j), s.index(sb, j), "order {j}");
        }
        assert_ne!(s.index(sa, 10), s.index(sb, 10));
    }

    /// Feeds 300 pseudo-random targets to an [`SfsxsRegister`] and a
    /// [`PathHistory`] of each configuration — the paper's, the degenerate
    /// depth-1 case, and selections the fold width does not divide —
    /// calling `check(label, step, register, history)` after every push.
    fn walk_registers(mut check: impl FnMut(&str, usize, &mut SfsxsRegister, &PathHistory)) {
        let configs = [
            (10u32, 5u32, 10u32),
            (10, 5, 1),
            (4, 2, 3),
            (8, 8, 7),
            (10, 4, 10),
            (7, 3, 16),
        ];
        let mut x = 0x9E3779B97F4A7C15u64;
        for &(select, fold, depth) in &configs {
            let s = Sfsxs::new(select, fold, depth);
            let mut reg = SfsxsRegister::new(s);
            let mut phr = PathHistory::new(depth as usize, select as u8);
            assert_eq!(reg.signature(), s.signature(&phr));
            for step in 0..300 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let target = x >> 11;
                reg.shift_in(target);
                phr.push(target);
                let cfg = format!("cfg ({select}, {fold}, {depth}) step {step}");
                check(&cfg, step, &mut reg, &phr);
            }
        }
    }

    #[test]
    fn sfsxs_advance_matches_full_recomputation() {
        // The incremental signature must track the scan-based one exactly,
        // and the register's slots must be the PathHistory's.
        walk_registers(|cfg, _, reg, phr| {
            assert_eq!(reg.signature(), reg.sfsxs().signature(phr), "{cfg}");
            let want: Vec<u64> = phr.iter().collect();
            let got: Vec<u64> = (0..phr.depth()).map(|a| reg.slot(a)).collect();
            assert_eq!(got, want, "{cfg}");
        });
    }

    #[test]
    fn register_persists_path_history_bytes() {
        // The register saves a PathHistory's bytes for the same targets,
        // and a register restored from them carries on tracking the
        // scan-based signature.
        walk_registers(|cfg, step, reg, phr| {
            if step % 37 == 0 {
                let (mut a, mut b) = (Vec::new(), Vec::new());
                reg.save_state(&mut StateSink::new(&mut a));
                phr.save_state(&mut StateSink::new(&mut b));
                assert_eq!(a, b, "{cfg}: bytes differ from PathHistory's");
                let mut restored = SfsxsRegister::new(*reg.sfsxs());
                restored.load_state(&mut StateSource::new(&a)).unwrap();
                assert_eq!(restored.signature(), reg.signature(), "{cfg}");
                let mut again = Vec::new();
                restored.save_state(&mut StateSink::new(&mut again));
                assert_eq!(again, a, "{cfg}: reload changed the bytes");
                *reg = restored;
            }
            assert_eq!(reg.signature(), reg.sfsxs().signature(phr), "{cfg}");
        });
    }

    #[test]
    fn register_load_rejects_foreign_geometry() {
        let mut blob = Vec::new();
        PathHistory::new(10, 10).save_state(&mut StateSink::new(&mut blob));
        let mut deeper = SfsxsRegister::new(Sfsxs::new(10, 5, 12));
        assert!(deeper.load_state(&mut StateSource::new(&blob)).is_err());
        let mut narrower = SfsxsRegister::new(Sfsxs::new(8, 5, 10));
        assert!(narrower.load_state(&mut StateSource::new(&blob)).is_err());
        let mut truncated = SfsxsRegister::new(Sfsxs::paper());
        assert!(truncated
            .load_state(&mut StateSource::new(&blob[..blob.len() - 1]))
            .is_err());
    }

    #[test]
    #[should_panic(expected = "MAX_DEPTH")]
    fn register_deeper_than_its_ring_panics() {
        let _ = SfsxsRegister::new(Sfsxs::new(4, 2, 17));
    }

    #[test]
    fn sfsxs_index_selects_high_bits() {
        let s = Sfsxs::paper(); // 14-bit signature
        let sig = 0b10_1100_0000_0001u64;
        assert_eq!(s.index(sig, 1), 0b1);
        assert_eq!(s.index(sig, 4), 0b1011);
        assert_eq!(s.index(sig, 14), sig);
        assert_eq!(s.index_low(sig, 4), 0b0001);
    }

    // Debug builds only: Sfsxs::index checks the order with debug_assert! only (per-event path).
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "order must be")]
    fn sfsxs_order_zero_panics() {
        let s = Sfsxs::paper();
        let _ = s.index(0, 0);
    }

    #[test]
    fn sfsxs_deeper_phr_is_accepted() {
        let s = Sfsxs::new(4, 2, 2);
        let phr = PathHistory::new(5, 4);
        assert_eq!(s.signature(&phr), 0);
    }

    // Debug builds only: the history-depth check is a debug_assert! (per-event path).
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "shallower")]
    fn sfsxs_shallow_phr_panics() {
        let s = Sfsxs::new(4, 2, 8);
        let phr = PathHistory::new(3, 4);
        let _ = s.signature(&phr);
    }

    #[test]
    fn reverse_interleave_places_recent_low_bits_first() {
        let ri = ReverseInterleave::new(2, 2, 4);
        let mut phr = PathHistory::new(2, 2);
        phr.push(0b01); // older after next push
        phr.push(0b10); // most recent
                        // most recent slot = 0b10 (bit0=0, bit1=1); older = 0b01.
                        // pos(bit, age) = bit*2 + age:
                        //   recent bit0 -> pos 0 (0), older bit0 -> pos 1 (1)
                        //   recent bit1 -> pos 2 (1), older bit1 -> pos 3 (0)
        assert_eq!(ri.index(0, &phr), 0b0110);
        // XOR with PC flips bits.
        assert_eq!(ri.index(0b1111, &phr), 0b1001);
    }

    #[test]
    fn reverse_interleave_masks_index() {
        let ri = ReverseInterleave::new(3, 8, 10);
        let mut phr = PathHistory::new(3, 8);
        for t in [0xFFu64, 0xFF, 0xFF] {
            phr.push(t);
        }
        assert!(ri.index(0xDEADBEEF, &phr) < (1 << 10));
    }

    #[test]
    fn reverse_interleave_spread_matches_bit_by_bit_definition() {
        // The byte-spread table must reproduce the definitional loop
        // (`pos = bit * path_length + age`) for every paper configuration
        // and then some: Dpath uses (1, 24) and (3, 8), Cascade (4, 6) and
        // (6, 4).
        let configs = [(1u32, 24u32), (3, 8), (4, 6), (6, 4), (2, 32), (8, 8)];
        let mut x = 0x243F6A8885A308D3u64;
        for &(path_length, bits) in &configs {
            let ri = ReverseInterleave::new(path_length, bits, 64);
            let mut phr = PathHistory::new(path_length as usize, bits as u8);
            for _ in 0..200 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                phr.push(x >> 7);
                let pc = x >> 23;
                let mut expect = 0u64;
                for (age, slot) in phr.iter().take(path_length as usize).enumerate() {
                    for bit in 0..bits {
                        let b = (slot >> bit) & 1;
                        expect |= b << (bit * path_length + age as u32);
                    }
                }
                assert_eq!(ri.index(pc, &phr), (expect ^ pc), "cfg ({path_length}, {bits})");
            }
        }
    }
}
