//! Property tests for the PPM core: update exclusion, selector range,
//! and stack determinism under arbitrary stimulus.

use ibp_hw::{Sfsxs, SfsxsRegister};
use ibp_isa::Addr;
use ibp_ppm::selector::{CorrelationSelector, SelectorKind};
use ibp_ppm::stack::{MarkovStack, StackConfig};
use ibp_testkit::{prop_assert, prop_assert_eq, Prop, TestRng};

fn phr_from(targets: &[u64]) -> SfsxsRegister {
    let mut phr = SfsxsRegister::new(Sfsxs::paper());
    for &t in targets {
        phr.shift_in(t);
    }
    phr
}

fn gen_kind(rng: &mut TestRng) -> bool {
    rng.gen_bool(0.5)
}

/// The selector state stays in 0..=3 and its mode always agrees with the
/// high-half rule, for both machines and any outcome sequence.
#[test]
fn selector_state_invariants() {
    Prop::new("selector_state_invariants").run(
        |rng| (gen_kind(rng), rng.vec_with(0..200, |r| r.gen_bool(0.5))),
        |(biased, outcomes)| {
            let kind = if *biased {
                SelectorKind::PibBiased
            } else {
                SelectorKind::Normal
            };
            let mut s = CorrelationSelector::new(kind);
            for &correct in outcomes {
                s.record(correct);
                prop_assert!(s.state() <= 3);
                let is_pib = s.state() >= 2;
                prop_assert_eq!(
                    s.mode() == ibp_ppm::selector::CorrelationMode::Pib,
                    is_pib
                );
            }
            Ok(())
        },
    );
}

/// A long run of correct predictions always pins the selector to a
/// strong state.
#[test]
fn selector_converges_on_success() {
    Prop::new("selector_converges_on_success").run(
        |rng| (gen_kind(rng), rng.gen_range(0u32..=3)),
        |&(biased, start)| {
            let kind = if biased {
                SelectorKind::PibBiased
            } else {
                SelectorKind::Normal
            };
            let mut s = CorrelationSelector::with_state(kind, start);
            for _ in 0..10 {
                s.record(true);
            }
            prop_assert!(s.state() == 0 || s.state() == 3);
            Ok(())
        },
    );
}

/// Update exclusion: after any warm-up, an update whose provider is
/// order k never changes tables of order < k.
#[test]
fn update_exclusion_never_touches_lower_orders() {
    Prop::new("update_exclusion_never_touches_lower_orders").run(
        |rng| {
            rng.vec_with(1..20, |r| {
                (
                    r.vec_with(0..12, |r2| r2.next_u64()),
                    r.next_u32(),
                    r.next_u32(),
                )
            })
        },
        |warm| {
            let mut stack = MarkovStack::new(StackConfig::paper());
            for (targets, pc_raw, actual_raw) in warm {
                let phr = phr_from(targets);
                let pc = Addr::new((*pc_raw as u64) * 4);
                let actual = Addr::new((*actual_raw as u64) * 4 + 4);
                let lookup = stack.lookup(&phr, pc);
                let provider = lookup.provider();
                let before: Vec<usize> = (1..=10).map(|j| stack.table(j).occupancy()).collect();
                stack.update(&lookup, pc, actual);
                if let Some(k) = provider {
                    for j in 1..k {
                        prop_assert_eq!(
                            stack.table(j).occupancy(),
                            before[(j - 1) as usize],
                            "order {} changed below provider {}",
                            j,
                            k
                        );
                    }
                }
            }
            Ok(())
        },
    );
}

/// Lookups are pure: two identical lookups between updates agree, and a
/// prediction always comes from a valid provider order.
#[test]
fn lookup_is_pure_and_consistent() {
    Prop::new("lookup_is_pure_and_consistent").run(
        |rng| (rng.vec_with(0..12, |r| r.next_u64()), rng.next_u32()),
        |(targets, pc_raw)| {
            let stack = MarkovStack::new(StackConfig::paper());
            let phr = phr_from(targets);
            let pc = Addr::new(*pc_raw as u64 * 4);
            let a = stack.lookup(&phr, pc);
            let b = stack.lookup(&phr, pc);
            prop_assert_eq!(a.provider(), b.provider());
            prop_assert_eq!(a.prediction(), b.prediction());
            prop_assert_eq!(a.prediction().is_some(), a.provider().is_some());
            Ok(())
        },
    );
}

/// After an update, looking up with the same history predicts the taught
/// target from the highest order.
#[test]
fn update_then_lookup_hits_top_order() {
    Prop::new("update_then_lookup_hits_top_order").run(
        |rng| {
            (
                rng.vec_with(0..12, |r| r.next_u64()),
                rng.next_u32(),
                rng.gen_range(1u32..u32::MAX),
            )
        },
        |(targets, pc_raw, actual_raw)| {
            let mut stack = MarkovStack::new(StackConfig::paper());
            let phr = phr_from(targets);
            let pc = Addr::new(*pc_raw as u64 * 4);
            let actual = Addr::new(*actual_raw as u64 * 4);
            let lookup = stack.lookup(&phr, pc);
            stack.update(&lookup, pc, actual);
            let after = stack.lookup(&phr, pc);
            prop_assert_eq!(after.provider(), Some(10));
            prop_assert_eq!(after.prediction(), Some(actual));
            Ok(())
        },
    );
}
