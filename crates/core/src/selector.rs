//! Correlation-selection state machines (paper Figure 5).
//!
//! Each multiple-target indirect branch carries a 2-bit up/down saturating
//! counter in the BIU that characterizes its correlation type:
//!
//! | counter | state                  | PHR used |
//! |---------|------------------------|----------|
//! | 0       | Strongly PB correlated | PB       |
//! | 1       | Weakly PB correlated   | PB       |
//! | 2       | Weakly PIB correlated  | PIB      |
//! | 3       | Strongly PIB correlated| PIB      |
//!
//! A correct prediction reinforces the current side (moves toward its
//! strong state); a misprediction moves toward the other side. The
//! **PIB-biased** machine of Figure 5 (bottom) accelerates PB→PIB motion:
//! a *single* misprediction moves Strongly-PB to Weakly-PIB (0→2) and
//! Weakly-PB to Strongly-PIB (1→3), damping the oscillation between the
//! two weak states that table aliasing induces. All counters initialize to
//! Strongly-PIB.

use ibp_hw::counter::Saturating2Bit;
use std::fmt;

/// Which path history register a branch currently selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CorrelationMode {
    /// Per-Branch correlation: the PHR fed by all branches.
    Pb,
    /// Per-Indirect-Branch correlation: the PHR fed by indirect branches.
    Pib,
}

impl fmt::Display for CorrelationMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CorrelationMode::Pb => "PB",
            CorrelationMode::Pib => "PIB",
        })
    }
}

/// Which of Figure 5's two state machines drives the counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SelectorKind {
    /// The normal 2-bit machine (correlation flips after two consecutive
    /// mispredictions from a strong state).
    Normal,
    /// The PIB-biased machine (a single misprediction on the PB side jumps
    /// two states toward PIB).
    PibBiased,
}

/// A per-branch correlation-selection counter.
///
/// # Examples
///
/// ```
/// use ibp_ppm::{CorrelationMode, CorrelationSelector, SelectorKind};
///
/// let mut s = CorrelationSelector::new(SelectorKind::Normal);
/// assert_eq!(s.mode(), CorrelationMode::Pib); // initialized Strongly PIB
/// s.record(false); // mispredicted
/// s.record(false);
/// assert_eq!(s.mode(), CorrelationMode::Pb); // flipped after two misses
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorrelationSelector {
    counter: Saturating2Bit,
    kind: SelectorKind,
}

/// Figure 5's two machines as transition tables, `[state][correct]` →
/// next state. A hit reinforces the current side (toward its strong
/// state); a miss moves toward the other side.
const FIGURE_5: [[[u8; 2]; 4]; 2] = [
    // Normal: [on a miss, on a hit].
    [
        [1, 0], // strongly PB
        [2, 0], // weakly PB
        [1, 3], // weakly PIB
        [2, 3], // strongly PIB
    ],
    // PIB-biased: a miss on the PB side jumps two states toward PIB.
    [[2, 0], [3, 0], [1, 3], [2, 3]],
];

/// [`FIGURE_5`] packed two bits per arc, the arc of `(kind, state,
/// correct)` at bit `2 * (8 * kind + 2 * state + correct)`, so a
/// transition is one shift and mask on the per-event path.
const ARCS: u32 = pack(FIGURE_5);

const fn pack(machines: [[[u8; 2]; 4]; 2]) -> u32 {
    let mut out = 0;
    let mut arc = 0;
    while arc < 16 {
        out |= (machines[arc / 8][arc / 2 % 4][arc % 2] as u32) << (2 * arc);
        arc += 1;
    }
    out
}

impl CorrelationSelector {
    /// Creates a selector in the Strongly-PIB state (the paper initializes
    /// all counters this way for both machines).
    pub fn new(kind: SelectorKind) -> Self {
        Self {
            counter: Saturating2Bit::strongly_high(),
            kind,
        }
    }

    /// Creates a selector in an explicit state (for tests and state-machine
    /// enumeration).
    ///
    /// # Panics
    ///
    /// Panics if `state > 3`.
    pub fn with_state(kind: SelectorKind, state: u32) -> Self {
        Self {
            counter: Saturating2Bit::new(state),
            kind,
        }
    }

    /// The raw counter state (0..=3).
    pub fn state(&self) -> u32 {
        self.counter.value()
    }

    /// The machine variant.
    pub fn kind(&self) -> SelectorKind {
        self.kind
    }

    /// The PHR this branch currently selects.
    pub fn mode(&self) -> CorrelationMode {
        if self.counter.is_high_half() {
            CorrelationMode::Pib
        } else {
            CorrelationMode::Pb
        }
    }

    /// Folds one prediction outcome into the state machine.
    #[inline]
    pub fn record(&mut self, correct: bool) {
        let kind = match self.kind {
            SelectorKind::Normal => 0,
            SelectorKind::PibBiased => 1,
        };
        let arc = 8 * kind + 2 * self.counter.value() + u32::from(correct);
        self.counter = Saturating2Bit::new((ARCS >> (2 * arc)) & 3);
    }
}

impl Default for CorrelationSelector {
    fn default() -> Self {
        Self::new(SelectorKind::Normal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use CorrelationMode::{Pb, Pib};

    /// Exhaustive transition table for the normal machine:
    /// (state, correct) -> next state.
    #[test]
    fn normal_machine_transition_table() {
        let expect = [
            // (state, correct, next)
            (0, true, 0),  // Strongly PB reinforced
            (0, false, 1), // Strongly PB -> Weakly PB
            (1, true, 0),  // Weakly PB -> Strongly PB
            (1, false, 2), // Weakly PB -> Weakly PIB
            (2, true, 3),  // Weakly PIB -> Strongly PIB
            (2, false, 1), // Weakly PIB -> Weakly PB
            (3, true, 3),  // Strongly PIB reinforced
            (3, false, 2), // Strongly PIB -> Weakly PIB
        ];
        for (state, correct, next) in expect {
            let mut s = CorrelationSelector::with_state(SelectorKind::Normal, state);
            s.record(correct);
            assert_eq!(s.state(), next, "normal: state {state}, correct {correct}");
        }
    }

    /// Exhaustive transition table for the PIB-biased machine. Only the
    /// misprediction arcs on the PB side differ from the normal machine.
    #[test]
    fn biased_machine_transition_table() {
        let expect = [
            (0, true, 0),
            (0, false, 2), // Strongly PB -> Weakly PIB (the paper's jump)
            (1, true, 0),
            (1, false, 3), // Weakly PB -> Strongly PIB (the paper's jump)
            (2, true, 3),
            (2, false, 1),
            (3, true, 3),
            (3, false, 2),
        ];
        for (state, correct, next) in expect {
            let mut s = CorrelationSelector::with_state(SelectorKind::PibBiased, state);
            s.record(correct);
            assert_eq!(s.state(), next, "biased: state {state}, correct {correct}");
        }
    }

    #[test]
    fn initialized_strongly_pib() {
        assert_eq!(CorrelationSelector::new(SelectorKind::Normal).state(), 3);
        assert_eq!(CorrelationSelector::new(SelectorKind::PibBiased).state(), 3);
        assert_eq!(CorrelationSelector::default().mode(), Pib);
    }

    #[test]
    fn mode_boundary_is_between_1_and_2() {
        assert_eq!(
            CorrelationSelector::with_state(SelectorKind::Normal, 1).mode(),
            Pb
        );
        assert_eq!(
            CorrelationSelector::with_state(SelectorKind::Normal, 2).mode(),
            Pib
        );
    }

    #[test]
    fn two_misses_flip_strongly_pib_to_pb() {
        let mut s = CorrelationSelector::new(SelectorKind::Normal);
        s.record(false);
        assert_eq!(s.mode(), Pib);
        s.record(false);
        assert_eq!(s.mode(), Pb);
    }

    #[test]
    fn biased_machine_recovers_pib_in_one_miss_from_pb() {
        // The aliasing scenario §5 describes: a strongly-PIB branch gets
        // knocked to the PB side by alias noise; the biased machine jumps
        // straight back.
        let mut s = CorrelationSelector::with_state(SelectorKind::PibBiased, 1);
        assert_eq!(s.mode(), Pb);
        s.record(false);
        assert_eq!(s.state(), 3);
        assert_eq!(s.mode(), Pib);
    }

    #[test]
    fn correct_predictions_saturate_at_strong_states() {
        let mut s = CorrelationSelector::with_state(SelectorKind::Normal, 2);
        for _ in 0..5 {
            s.record(true);
        }
        assert_eq!(s.state(), 3);
        let mut s = CorrelationSelector::with_state(SelectorKind::Normal, 1);
        for _ in 0..5 {
            s.record(true);
        }
        assert_eq!(s.state(), 0);
    }
}
