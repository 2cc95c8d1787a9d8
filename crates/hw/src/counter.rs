//! Up/down saturating counters.
//!
//! Saturating counters are the basic hysteresis element of dynamic branch
//! predictors. The paper uses 2-bit up/down saturating counters in three
//! places: to gate target replacement in BTB-style entries (a target is
//! replaced only after two consecutive mispredictions, following Calder &
//! Grunwald's BTB2b), inside every Markov-table entry, and as the per-branch
//! *correlation selection* counter in the BIU (see `ibp-ppm::selector`).

use crate::persist::{Persist, PersistElem, PersistError, StateSink, StateSource};

/// An up/down saturating counter with a configurable number of bits.
///
/// The counter holds values in `0..=max()` where `max() == 2^bits - 1`.
/// [`increment`](Self::increment) and [`decrement`](Self::decrement)
/// saturate instead of wrapping.
///
/// # Examples
///
/// ```
/// use ibp_hw::counter::SaturatingCounter;
///
/// let mut c = SaturatingCounter::new(2, 3); // 2 bits, start at 3
/// c.increment();
/// assert_eq!(c.value(), 3); // saturated at the top
/// c.decrement();
/// c.decrement();
/// c.decrement();
/// c.decrement();
/// assert_eq!(c.value(), 0); // saturated at the bottom
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SaturatingCounter {
    bits: u8,
    value: u32,
}

impl SaturatingCounter {
    /// Creates a counter with the given width in bits and initial value.
    ///
    /// # Panics
    ///
    /// Debug builds panic if `bits` is 0 or greater than 31, or if `initial > 2^bits - 1`.
    pub fn new(bits: u8, initial: u32) -> Self {
        debug_assert!(bits > 0 && bits < 32, "counter width must be in 1..=31");
        let max = (1u32 << bits) - 1;
        debug_assert!(initial <= max, "initial value {initial} exceeds max {max}");
        Self {
            bits,
            value: initial,
        }
    }

    /// The current counter value.
    pub fn value(&self) -> u32 {
        self.value
    }

    /// The largest representable value, `2^bits - 1`.
    pub fn max(&self) -> u32 {
        (1u32 << self.bits) - 1
    }

    /// The counter width in bits.
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// Adds one, saturating at [`max`](Self::max). Returns the new value.
    pub fn increment(&mut self) -> u32 {
        if self.value < self.max() {
            self.value += 1;
        }
        self.value
    }

    /// Subtracts one, saturating at zero. Returns the new value.
    pub fn decrement(&mut self) -> u32 {
        if self.value > 0 {
            self.value -= 1;
        }
        self.value
    }

    /// Adds `n`, saturating at [`max`](Self::max). Returns the new value.
    pub fn increment_by(&mut self, n: u32) -> u32 {
        self.value = (self.value.saturating_add(n)).min(self.max());
        self.value
    }

    /// Subtracts `n`, saturating at zero. Returns the new value.
    pub fn decrement_by(&mut self, n: u32) -> u32 {
        self.value = self.value.saturating_sub(n);
        self.value
    }

    /// Sets the counter to an exact value.
    ///
    /// # Panics
    ///
    /// Debug builds panic if `value > max()`.
    pub fn set(&mut self, value: u32) {
        debug_assert!(value <= self.max(), "value {value} exceeds counter max");
        self.value = value;
    }

    /// True when the value is in the upper half of the range
    /// (`value >= 2^(bits-1)`).
    pub fn is_high_half(&self) -> bool {
        self.value >= (1u32 << (self.bits - 1))
    }

    /// True when the counter sits at either saturation point.
    pub fn is_saturated(&self) -> bool {
        self.value == 0 || self.value == self.max()
    }
}

/// A 2-bit up/down saturating counter, the width used throughout the paper.
///
/// This is a thin convenience wrapper over [`SaturatingCounter`] fixed at
/// two bits, with the paper's vocabulary: values 0..=3, "high half" meaning
/// values 2 and 3.
///
/// ```
/// use ibp_hw::counter::Saturating2Bit;
///
/// let mut c = Saturating2Bit::strongly_high();
/// assert_eq!(c.value(), 3);
/// c.decrement();
/// assert!(c.is_high_half());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Saturating2Bit(SaturatingCounter);

impl Saturating2Bit {
    /// Creates a 2-bit counter with the given initial value (0..=3).
    ///
    /// # Panics
    ///
    /// Panics if `initial > 3`.
    pub fn new(initial: u32) -> Self {
        Self(SaturatingCounter::new(2, initial))
    }

    /// A counter saturated at the top (value 3).
    pub fn strongly_high() -> Self {
        Self::new(3)
    }

    /// A counter saturated at the bottom (value 0).
    pub fn strongly_low() -> Self {
        Self::new(0)
    }

    /// The current value (0..=3).
    pub fn value(&self) -> u32 {
        self.0.value()
    }

    /// Adds one, saturating at 3.
    pub fn increment(&mut self) -> u32 {
        self.0.increment()
    }

    /// Subtracts one, saturating at 0.
    pub fn decrement(&mut self) -> u32 {
        self.0.decrement()
    }

    /// Adds `n`, saturating at 3.
    pub fn increment_by(&mut self, n: u32) -> u32 {
        self.0.increment_by(n)
    }

    /// Subtracts `n`, saturating at 0.
    pub fn decrement_by(&mut self, n: u32) -> u32 {
        self.0.decrement_by(n)
    }

    /// Sets the value exactly.
    ///
    /// # Panics
    ///
    /// Panics if `value > 3`.
    pub fn set(&mut self, value: u32) {
        self.0.set(value)
    }

    /// True for values 2 and 3.
    pub fn is_high_half(&self) -> bool {
        self.0.is_high_half()
    }

    /// True for values 0 and 3.
    pub fn is_saturated(&self) -> bool {
        self.0.is_saturated()
    }
}

impl Default for Saturating2Bit {
    fn default() -> Self {
        Self::strongly_low()
    }
}

impl PersistElem for SaturatingCounter {
    fn save_elem(&self, out: &mut StateSink<'_>) {
        out.u8(self.bits);
        out.u32(self.value);
    }

    fn load_elem(src: &mut StateSource<'_>) -> Result<Self, PersistError> {
        let bits = src.u8()?;
        let value = src.u32()?;
        if bits == 0 || bits >= 32 {
            return Err(PersistError::Corrupt("counter width"));
        }
        if value > (1u32 << bits) - 1 {
            return Err(PersistError::Corrupt("counter value"));
        }
        Ok(Self { bits, value })
    }
}

/// A lone counter (an arbitration counter, say) persisted by value into
/// a counter of the same width.
impl Persist for SaturatingCounter {
    fn save_state(&self, out: &mut StateSink<'_>) {
        out.u64(u64::from(self.value));
    }

    fn load_state(&mut self, src: &mut StateSource<'_>) -> Result<(), PersistError> {
        let value = src.u64()?;
        if value > u64::from(self.max()) {
            return Err(PersistError::Corrupt("counter above its maximum"));
        }
        self.value = value as u32;
        Ok(())
    }
}

impl PersistElem for Saturating2Bit {
    fn save_elem(&self, out: &mut StateSink<'_>) {
        out.u8(self.value() as u8);
    }

    fn load_elem(src: &mut StateSource<'_>) -> Result<Self, PersistError> {
        let v = src.u8()?;
        if v > 3 {
            return Err(PersistError::Corrupt("2-bit counter value"));
        }
        Ok(Self::new(u32::from(v)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_counter_holds_initial_value() {
        let c = SaturatingCounter::new(3, 5);
        assert_eq!(c.value(), 5);
        assert_eq!(c.max(), 7);
        assert_eq!(c.bits(), 3);
    }

    // Debug builds only: the initial-value check is a debug_assert!, compiled out of release builds.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "exceeds max")]
    fn initial_above_max_panics() {
        let _ = SaturatingCounter::new(2, 4);
    }

    // Debug builds only: the width check is a debug_assert!, compiled out of release builds.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "width must be")]
    fn zero_width_panics() {
        let _ = SaturatingCounter::new(0, 0);
    }

    #[test]
    fn increment_saturates_at_max() {
        let mut c = SaturatingCounter::new(2, 2);
        assert_eq!(c.increment(), 3);
        assert_eq!(c.increment(), 3);
        assert_eq!(c.value(), 3);
    }

    #[test]
    fn decrement_saturates_at_zero() {
        let mut c = SaturatingCounter::new(2, 1);
        assert_eq!(c.decrement(), 0);
        assert_eq!(c.decrement(), 0);
    }

    #[test]
    fn increment_by_saturates() {
        let mut c = SaturatingCounter::new(4, 10);
        assert_eq!(c.increment_by(100), 15);
    }

    #[test]
    fn decrement_by_saturates() {
        let mut c = SaturatingCounter::new(4, 10);
        assert_eq!(c.decrement_by(100), 0);
    }

    #[test]
    fn high_half_boundary() {
        let mut c = SaturatingCounter::new(2, 1);
        assert!(!c.is_high_half());
        c.increment();
        assert!(c.is_high_half());
    }

    #[test]
    fn saturation_detection() {
        let c = SaturatingCounter::new(2, 0);
        assert!(c.is_saturated());
        let c = SaturatingCounter::new(2, 3);
        assert!(c.is_saturated());
        let c = SaturatingCounter::new(2, 2);
        assert!(!c.is_saturated());
    }

    #[test]
    fn set_within_range() {
        let mut c = SaturatingCounter::new(3, 0);
        c.set(7);
        assert_eq!(c.value(), 7);
    }

    // Debug builds only: SaturatingCounter::set checks its value with debug_assert! only (per-event path).
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "exceeds counter max")]
    fn set_above_max_panics() {
        let mut c = SaturatingCounter::new(2, 0);
        c.set(4);
    }

    #[test]
    fn two_bit_wrapper_matches_paper_vocabulary() {
        let mut c = Saturating2Bit::strongly_high();
        assert_eq!(c.value(), 3);
        assert!(c.is_high_half());
        c.decrement();
        assert_eq!(c.value(), 2);
        assert!(c.is_high_half());
        c.decrement();
        assert!(!c.is_high_half());
        assert_eq!(Saturating2Bit::strongly_low().value(), 0);
        assert_eq!(Saturating2Bit::default().value(), 0);
    }

    #[test]
    fn two_bit_full_walk() {
        // Walk the whole 0..=3 range up and down: classic 2-bit FSM.
        let mut c = Saturating2Bit::new(0);
        let ups: Vec<u32> = (0..5).map(|_| c.increment()).collect();
        assert_eq!(ups, vec![1, 2, 3, 3, 3]);
        let downs: Vec<u32> = (0..5).map(|_| c.decrement()).collect();
        assert_eq!(downs, vec![2, 1, 0, 0, 0]);
    }
}
