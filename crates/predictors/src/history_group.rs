//! Branch groups feeding a path history register.
//!
//! Chang et al.'s Target Cache showed that indirect-branch predictability
//! depends on *which* branches feed the path history: all branches, only
//! indirect branches, only conditionals, or only calls/returns. The paper
//! builds directly on this: its BIU dynamically selects between Per-Branch
//! (PB) and Per-Indirect-Branch (PIB) correlation. [`HistoryGroup`] names
//! the stream filter; every two-level predictor in this workspace is
//! parameterized by one.

use ibp_isa::BranchClass;
use ibp_trace::BranchEvent;
use std::fmt;

/// Which committed branches shift their target into a path history
/// register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HistoryGroup {
    /// Every branch (the paper's **PB** — Per-Branch correlation). Taken
    /// conditional branches contribute their target; not-taken ones their
    /// fall-through address, so the path encodes directions too.
    AllBranches = 0,
    /// Every indirect branch, including ST calls and returns (the paper's
    /// **PIB** — Per-Indirect-Branch correlation: "the targets of all
    /// indirect branches", §4).
    AllIndirect = 1,
    /// Only multiple-target `jmp`/`jsr` — the stream Driesen & Hölzle's
    /// GAp/Dpath record ("the history of MT jsr and jmp instructions", §5).
    MtIndirect = 2,
    /// Only calls and returns (one of Chang et al.'s groups).
    CallsReturns = 3,
    /// Only conditional branches (one of Chang et al.'s groups).
    Conditional = 4,
}

impl HistoryGroup {
    /// True when `event` belongs to the group and should be shifted into
    /// the history.
    pub fn accepts(self, event: &BranchEvent) -> bool {
        let class = event.class();
        match self {
            HistoryGroup::AllBranches => true,
            HistoryGroup::AllIndirect => class.is_indirect(),
            HistoryGroup::MtIndirect => class.is_predicted_indirect(),
            HistoryGroup::CallsReturns => class.is_call() || class.is_return(),
            HistoryGroup::Conditional => matches!(class, BranchClass::ConditionalDirect),
        }
    }

    /// The group's code (its discriminant) in persisted blobs, where it
    /// guards against loading into a predictor fed by another group.
    pub fn code(self) -> u64 {
        self as u64
    }
}

impl fmt::Display for HistoryGroup {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            HistoryGroup::AllBranches => "PB",
            HistoryGroup::AllIndirect => "PIB",
            HistoryGroup::MtIndirect => "MT",
            HistoryGroup::CallsReturns => "CR",
            HistoryGroup::Conditional => "C",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibp_isa::Addr;

    fn events() -> Vec<BranchEvent> {
        vec![
            BranchEvent::cond_taken(Addr::new(0x10), Addr::new(0x20)),
            BranchEvent::direct(Addr::new(0x20), Addr::new(0x30)),
            BranchEvent::direct_call(Addr::new(0x30), Addr::new(0x100)),
            BranchEvent::st_jsr(Addr::new(0x104), Addr::new(0x900)),
            BranchEvent::ret(Addr::new(0x904), Addr::new(0x108)),
            BranchEvent::indirect_jmp(Addr::new(0x108), Addr::new(0x40)),
            BranchEvent::indirect_jsr(Addr::new(0x44), Addr::new(0x200)),
        ]
    }

    fn count(group: HistoryGroup) -> usize {
        events().iter().filter(|e| group.accepts(e)).count()
    }

    #[test]
    fn all_branches_accepts_everything() {
        assert_eq!(count(HistoryGroup::AllBranches), 7);
    }

    #[test]
    fn all_indirect_includes_st_and_ret() {
        assert_eq!(count(HistoryGroup::AllIndirect), 4); // st, ret, jmp, jsr
    }

    #[test]
    fn mt_indirect_is_narrowest_indirect_group() {
        assert_eq!(count(HistoryGroup::MtIndirect), 2); // jmp, jsr
    }

    #[test]
    fn calls_returns_group() {
        // direct_call, st_jsr, ret, indirect_jsr
        assert_eq!(count(HistoryGroup::CallsReturns), 4);
    }

    #[test]
    fn conditional_group() {
        assert_eq!(count(HistoryGroup::Conditional), 1);
    }

    #[test]
    fn display_names() {
        assert_eq!(HistoryGroup::AllBranches.to_string(), "PB");
        assert_eq!(HistoryGroup::AllIndirect.to_string(), "PIB");
    }
}
