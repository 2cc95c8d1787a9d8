//! Dynamic branch events.

use ibp_isa::{Addr, BranchClass};
use std::fmt;

/// One executed branch in a trace.
///
/// An event records everything a predictor may legally see at fetch time
/// (`pc`, `class`) and at resolution time (`taken`, `target`), plus
/// `inline_instrs`: the number of non-branch instructions executed since the
/// previous branch event. Summing `inline_instrs` plus the branch count
/// reproduces the total instruction counts of the paper's Table 1 without
/// materializing non-branch instructions.
///
/// # Examples
///
/// ```
/// use ibp_isa::Addr;
/// use ibp_trace::BranchEvent;
///
/// let e = BranchEvent::indirect_jsr(Addr::new(0x400), Addr::new(0x9000));
/// assert!(e.class().is_predicted_indirect());
/// assert!(e.taken());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BranchEvent {
    pc: Addr,
    class: BranchClass,
    taken: bool,
    target: Addr,
    inline_instrs: u32,
}

impl BranchEvent {
    /// Creates an event from raw parts.
    ///
    /// # Panics
    ///
    /// Debug builds panic if a non-conditional branch is marked not-taken (unconditional
    /// branches are always taken), or if a taken branch has a null target.
    pub fn new(
        pc: Addr,
        class: BranchClass,
        taken: bool,
        target: Addr,
        inline_instrs: u32,
    ) -> Self {
        debug_assert!(
            taken || class.is_conditional(),
            "unconditional branches are always taken"
        );
        debug_assert!(
            !taken || !target.is_null(),
            "taken branch must have a target"
        );
        Self {
            pc,
            class,
            taken,
            target,
            inline_instrs,
        }
    }

    /// A taken conditional branch.
    pub fn cond_taken(pc: Addr, target: Addr) -> Self {
        Self::new(pc, BranchClass::ConditionalDirect, true, target, 0)
    }

    /// A not-taken conditional branch (falls through to `pc + 4`).
    pub fn cond_not_taken(pc: Addr) -> Self {
        Self {
            pc,
            class: BranchClass::ConditionalDirect,
            taken: false,
            target: pc.offset_words(1),
            inline_instrs: 0,
        }
    }

    /// An unconditional direct branch.
    pub fn direct(pc: Addr, target: Addr) -> Self {
        Self::new(
            pc,
            BranchClass::UnconditionalDirect { is_call: false },
            true,
            target,
            0,
        )
    }

    /// A direct call (`bsr`).
    pub fn direct_call(pc: Addr, target: Addr) -> Self {
        Self::new(
            pc,
            BranchClass::UnconditionalDirect { is_call: true },
            true,
            target,
            0,
        )
    }

    /// A multiple-target indirect jump (`switch`-style `jmp`).
    pub fn indirect_jmp(pc: Addr, target: Addr) -> Self {
        Self::new(pc, BranchClass::mt_jmp(), true, target, 0)
    }

    /// A multiple-target indirect call (polymorphic `jsr`).
    pub fn indirect_jsr(pc: Addr, target: Addr) -> Self {
        Self::new(pc, BranchClass::mt_jsr(), true, target, 0)
    }

    /// A single-target indirect call (GOT/DLL-style `jsr`).
    pub fn st_jsr(pc: Addr, target: Addr) -> Self {
        Self::new(pc, BranchClass::st_jsr(), true, target, 0)
    }

    /// A subroutine return.
    pub fn ret(pc: Addr, target: Addr) -> Self {
        Self::new(pc, BranchClass::ret(), true, target, 0)
    }

    /// Returns a copy with `inline_instrs` set.
    pub fn with_inline_instrs(mut self, n: u32) -> Self {
        self.inline_instrs = n;
        self
    }

    /// The branch instruction address.
    pub fn pc(&self) -> Addr {
        self.pc
    }

    /// The branch classification.
    pub fn class(&self) -> BranchClass {
        self.class
    }

    /// Whether the branch was taken (always true for unconditional).
    pub fn taken(&self) -> bool {
        self.taken
    }

    /// The resolved target (fall-through address for not-taken branches).
    pub fn target(&self) -> Addr {
        self.target
    }

    /// Non-branch instructions executed since the previous branch event.
    pub fn inline_instrs(&self) -> u32 {
        self.inline_instrs
    }

    /// Instructions this event accounts for (`inline_instrs + 1`).
    pub fn instruction_count(&self) -> u64 {
        self.inline_instrs as u64 + 1
    }
}

impl fmt::Display for BranchEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{pc} {class}{dir} -> {target}",
            pc = self.pc,
            class = self.class,
            dir = if self.taken { "" } else { " (nt)" },
            target = self.target
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_classes() {
        let pc = Addr::new(0x100);
        let t = Addr::new(0x200);
        assert!(BranchEvent::cond_taken(pc, t).class().is_conditional());
        assert!(!BranchEvent::cond_not_taken(pc).taken());
        assert!(BranchEvent::indirect_jmp(pc, t)
            .class()
            .is_predicted_indirect());
        assert!(BranchEvent::indirect_jsr(pc, t)
            .class()
            .is_predicted_indirect());
        assert!(!BranchEvent::st_jsr(pc, t).class().is_predicted_indirect());
        assert!(BranchEvent::ret(pc, t).class().is_return());
        assert!(BranchEvent::direct_call(pc, t).class().is_call());
        assert!(!BranchEvent::direct(pc, t).class().is_call());
    }

    #[test]
    fn not_taken_falls_through() {
        let e = BranchEvent::cond_not_taken(Addr::new(0x100));
        assert_eq!(e.target(), Addr::new(0x104));
    }

    // Debug builds only: BranchEvent::new checks taken-ness with debug_assert! only (per-event path).
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "always taken")]
    fn unconditional_not_taken_panics() {
        let _ = BranchEvent::new(
            Addr::new(0x1),
            BranchClass::mt_jmp(),
            false,
            Addr::new(0x2),
            0,
        );
    }

    // Debug builds only: BranchEvent::new checks the target with debug_assert! only (per-event path).
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "must have a target")]
    fn taken_without_target_panics() {
        let _ = BranchEvent::new(Addr::new(0x1), BranchClass::mt_jmp(), true, Addr::NULL, 0);
    }

    #[test]
    fn instruction_accounting() {
        let e = BranchEvent::direct(Addr::new(4), Addr::new(8)).with_inline_instrs(9);
        assert_eq!(e.inline_instrs(), 9);
        assert_eq!(e.instruction_count(), 10);
    }

    #[test]
    fn display_contains_mnemonic() {
        let e = BranchEvent::indirect_jsr(Addr::new(0x40), Addr::new(0x80));
        let s = e.to_string();
        assert!(s.contains("jsr/MT"), "{s}");
        let nt = BranchEvent::cond_not_taken(Addr::new(0x40));
        assert!(nt.to_string().contains("(nt)"));
    }
}
