//! Incrementally folded target history.
//!
//! Long path histories must be compressed into short table indices. The
//! SFSXS hash of the paper refolds its whole register on every lookup;
//! the TAGE family instead maintains the fold *incrementally*: each
//! recorded value contributes a rotation-positioned summand, and one push
//! updates the fold in O(1) by rotating the running value, XORing the
//! newcomer in and the expiring contribution out.
//!
//! [`FoldedHistory`] implements that scheme for value (target) histories:
//! the element that entered `a` pushes ago contributes
//! `rotl(fold(value), (a * rot) % out_bits)`, and the register tracks the
//! XOR of the contributions of the last `len` elements.

use std::collections::VecDeque;

/// An O(1)-update folded history of the last `len` recorded values.
///
/// # Examples
///
/// ```
/// use ibp_hw::folded::FoldedHistory;
///
/// let mut f = FoldedHistory::new(8, 10, 3);
/// f.push(0x1A4);
/// f.push(0x2B3);
/// assert_eq!(f.folded(), f.recompute()); // incremental == from scratch
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FoldedHistory {
    out_bits: u32,
    in_bits: u32,
    len: usize,
    rot: u32,
    folded: u64,
    /// Base contributions (already folded to `out_bits`, unrotated),
    /// newest at the back.
    ring: VecDeque<u64>,
}

impl FoldedHistory {
    /// Creates a folded history producing `out_bits`-wide values from the
    /// last `len` inputs of `in_bits` significant bits each, with the
    /// default rotation step of 1.
    ///
    /// # Panics
    ///
    /// Panics if `out_bits` is 0 or above 63, `in_bits` is 0 or above 64,
    /// or `len` is 0.
    pub fn new(out_bits: u32, in_bits: u32, len: usize) -> Self {
        Self::with_rotation(out_bits, in_bits, len, 1)
    }

    /// Creates a folded history with an explicit rotation step per age.
    ///
    /// # Panics
    ///
    /// As [`new`](Self::new); additionally panics if `rot == 0` (every
    /// element would collide in place) or `rot >= out_bits`.
    pub fn with_rotation(out_bits: u32, in_bits: u32, len: usize, rot: u32) -> Self {
        assert!((1..=63).contains(&out_bits), "out_bits in 1..=63");
        assert!((1..=64).contains(&in_bits), "in_bits in 1..=64");
        assert!(len > 0, "len must be non-zero");
        assert!(rot > 0 && rot < out_bits, "rot in 1..out_bits");
        Self {
            out_bits,
            in_bits,
            len,
            rot,
            folded: 0,
            ring: VecDeque::with_capacity(len),
        }
    }

    /// The current folded value (always below `2^out_bits`).
    pub fn folded(&self) -> u64 {
        self.folded
    }

    /// Number of values currently contributing.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    fn mask(&self) -> u64 {
        (1u64 << self.out_bits) - 1
    }

    // ibp-lint: allow(L007, "shift amounts are reduced mod `bits`, validated nonzero at construction")
    fn rotl(&self, v: u64, by: u32) -> u64 {
        let by = by % self.out_bits;
        ((v << by) | (v >> (self.out_bits - by))) & self.mask()
    }

    /// Folds a raw value to the base contribution width.
    fn base(&self, value: u64) -> u64 {
        let masked = if self.in_bits == 64 {
            value
        } else {
            value & ((1u64 << self.in_bits) - 1)
        };
        let mut v = masked;
        let mut out = 0u64;
        while v != 0 {
            out ^= v & self.mask();
            v >>= self.out_bits;
        }
        out
    }

    /// Records a value in O(1): all existing contributions age by one
    /// rotation step, the newcomer enters unrotated, and the expiring
    /// element (now virtually at age `len`) is XORed back out.
    pub fn push(&mut self, value: u64) {
        let newcomer = self.base(value);
        self.folded = self.rotl(self.folded, self.rot);
        self.folded ^= newcomer;
        // ibp-lint: allow(L008, "ring bounded by depth: push_back pairs with pop_front once full")
        self.ring.push_back(newcomer);
        if self.ring.len() > self.len {
            // pop_front is Some here (the ring holds > len ≥ 1 entries);
            // written as if-let so this hot path stays panic-free.
            if let Some(expired) = self.ring.pop_front() {
                let age_rot = (self.len as u32).wrapping_mul(self.rot);
                self.folded ^= self.rotl(expired, age_rot);
            }
        }
        debug_assert_eq!(self.folded, self.recompute());
    }

    /// Recomputes the fold from scratch (the specification the O(1) path
    /// must match; used by tests and debug assertions).
    pub fn recompute(&self) -> u64 {
        let mut out = 0u64;
        for (i, &base) in self.ring.iter().rev().enumerate() {
            out ^= self.rotl(base, i as u32 * self.rot);
        }
        out
    }
}

impl crate::persist::Persist for FoldedHistory {
    /// Saves the ring of base contributions (oldest first). The running
    /// fold is recomputed on load rather than trusted from the blob, so
    /// a corrupt blob can never desynchronize the incremental invariant.
    fn save_state(&self, out: &mut crate::persist::StateSink<'_>) {
        out.u32(self.out_bits);
        out.u32(self.in_bits);
        out.usize(self.len);
        out.u32(self.rot);
        out.usize(self.ring.len());
        for &base in &self.ring {
            out.u64(base);
        }
    }

    fn load_state(
        &mut self,
        src: &mut crate::persist::StateSource<'_>,
    ) -> Result<(), crate::persist::PersistError> {
        use crate::persist::PersistError;
        src.expect_u64(u64::from(self.out_bits), "folded history out_bits")?;
        src.expect_u64(u64::from(self.in_bits), "folded history in_bits")?;
        src.expect_u64(self.len as u64, "folded history length")?;
        src.expect_u64(u64::from(self.rot), "folded history rotation")?;
        let n = src.usize()?;
        if n > self.len {
            return Err(PersistError::Corrupt("folded history overfull"));
        }
        let mask = self.mask();
        let mut ring = VecDeque::with_capacity(self.len);
        for _ in 0..n {
            let base = src.u64()?;
            if base & !mask != 0 {
                return Err(PersistError::Corrupt("folded contribution out of range"));
            }
            ring.push_back(base);
        }
        self.ring = ring;
        self.folded = self.recompute();
        Ok(())
    }

    /// The ring of base contributions; the fold itself is inline.
    fn resident_bytes(&self) -> usize {
        self.len() * std::mem::size_of::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn incremental_matches_recompute_on_a_long_stream() {
        let mut f = FoldedHistory::new(10, 16, 7);
        for i in 0..500u64 {
            f.push(i.wrapping_mul(0x9E3779B97F4A7C15));
            assert_eq!(f.folded(), f.recompute(), "step {i}");
            assert!(f.folded() < (1 << 10));
        }
        assert_eq!(f.len(), 7);
    }

    #[test]
    fn old_values_stop_contributing() {
        let mut a = FoldedHistory::new(8, 12, 3);
        let mut b = FoldedHistory::new(8, 12, 3);
        // a sees garbage first; after 3 identical pushes both agree.
        a.push(0xFFF);
        a.push(0xABC);
        for v in [1u64, 2, 3] {
            a.push(v);
            b.push(v);
        }
        assert_eq!(a.folded(), b.folded());
    }

    #[test]
    fn order_matters() {
        let mut a = FoldedHistory::new(8, 12, 3);
        let mut b = FoldedHistory::new(8, 12, 3);
        for v in [1u64, 2, 3] {
            a.push(v);
        }
        for v in [3u64, 2, 1] {
            b.push(v);
        }
        assert_ne!(a.folded(), b.folded(), "folding must encode order");
    }

    #[test]
    #[should_panic(expected = "rot in 1..out_bits")]
    fn zero_rotation_panics() {
        let _ = FoldedHistory::with_rotation(8, 12, 3, 0);
    }

    #[test]
    fn wide_inputs_fold_down() {
        let mut f = FoldedHistory::new(6, 64, 2);
        f.push(u64::MAX);
        assert!(f.folded() < 64);
        assert_eq!(f.folded(), f.recompute());
    }
}
