//! Closed-form oracles on one crafted stream: a lone multiple-target
//! (MT) `jmp` site cycling through `k` distinct targets `T0, T1, ...,
//! T(k-1), T0, ...` for `n` events, with no other branch in the stream.
//! Event `i` resolves to `T(i mod k)`. The exact miss count of each
//! predictor follows from its update rule alone:
//!
//! * **BTB** (replace on every miss): it always predicts the previous
//!   event's target, which differs from the current one whenever
//!   `k >= 2`, and event 0 finds the table cold. It misses `n` times.
//! * **BTB2b** (2-bit hysteresis: a new entry starts at counter 1, a hit
//!   increments, a miss decrements, and a miss at counter 0 replaces the
//!   target). Event 0 allocates `T0` at 1; event 1 misses (1 -> 0).
//!   - `k = 2`: event 2 wants `T0` again and hits (0 -> 1), event 3
//!     misses (1 -> 0), and so on: events 0 and every odd event miss,
//!     `1 + floor(n / 2)` in all (for `n >= 1`).
//!   - `k >= 3`: event 2 misses at counter 0 and stores `T2` at 1. From
//!     then on the stored target is replaced every second event by the
//!     current one, and the next two events want two other targets. It
//!     misses `n` times.
//! * **PPM-PIB** (paper configuration). The history is the site's own
//!   targets. An *ideal* PPM, whose contexts never share a table slot,
//!   misses exactly at events `0..=k`: event 0 finds every table cold,
//!   events `1..k` want a target never seen before, and at event `k` the
//!   newest target `T(k-1)` has never been a context. From event `k + 1`
//!   on, the order-1 context (the newest target) was seen `k` events
//!   earlier and was followed by the target wanted now. Since the cycle
//!   is deterministic, every seen context at every order predicts right.
//!   So an ideal PPM misses `k + 1` times, all within a fixed warm-up.
//!
//!   The hashed stack can differ only where two contexts share a slot.
//!   The targets `0x1010 + 0x11 * i` (path bits) are chosen, and checked
//!   below, so that:
//!   - the `k` phase signatures occupy distinct slots at every order
//!     with at least `k` slots;
//!   - any two of the `10 + k` histories (ten warm-up windows and `k`
//!     phases) that share an order-10 slot want the same next target.
//!     Each top-order entry therefore only ever learns one successor,
//!     and order 10 provides from a phase's second visit on. No miss can
//!     follow the warm-up.
//!
//!   Order 1 has two slots, so the empty history shares one with target
//!   contexts, `T1`'s among them (`T1` folds to 0). For `k = 2`,
//!   `T1 = T(k-1)`, and both contexts are followed by `T0`: the alias is
//!   harmless, and event `k` hits through it, giving `k` misses. For
//!   `k = 3` and `k = 5`, the miss positions assert that no alias
//!   changes the ideal count: `k + 1` misses, at events `0..=k`.

use ibp_hw::hash::Sfsxs;
use ibp_hw::PathHistory;
use ibp_isa::Addr;
use ibp_ppm::PpmPib;
use ibp_predictors::{Btb, Btb2b, IndirectPredictor};
use ibp_trace::BranchEvent;

const KS: [usize; 3] = [2, 3, 5];
const NS: [usize; 6] = [1, 2, 3, 7, 64, 301];

/// Path bits of the `k` cycle targets.
fn targets(k: usize) -> Vec<u64> {
    (0..k as u64).map(|i| 0x1010 + 0x11 * i).collect()
}

/// The event indices at which `p` mispredicts the crafted stream.
fn miss_positions(p: &mut dyn IndirectPredictor, k: usize, n: usize) -> Vec<usize> {
    let pc = Addr::new(0x4000);
    let cycle = targets(k);
    let mut misses = Vec::new();
    for i in 0..n {
        let target = Addr::new(cycle[i % k] << 2);
        if p.predict(pc) != Some(target) {
            misses.push(i);
        }
        p.update(pc, target);
        p.observe(&BranchEvent::indirect_jmp(pc, target));
    }
    misses
}

#[test]
fn btb_misses_every_event() {
    for k in KS {
        for n in NS {
            let misses = miss_positions(&mut Btb::new(512), k, n);
            assert_eq!(misses.len(), n, "k={k} n={n}");
        }
    }
}

#[test]
fn btb2b_hysteresis_counts() {
    for k in KS {
        for n in NS {
            let want = if k == 2 { 1 + n / 2 } else { n };
            let misses = miss_positions(&mut Btb2b::new(512), k, n);
            assert_eq!(misses.len(), want, "k={k} n={n}");
        }
    }
}

/// The preconditions of the PPM-PIB derivation, checked with the
/// paper's own SFSXS scan.
#[test]
fn ppm_pib_targets_meet_the_derivation() {
    let sfsxs = Sfsxs::paper();
    for k in KS {
        let cycle = targets(k);
        let mut phr = PathHistory::new(10, 10);
        let mut signatures = Vec::new();
        for i in 0..10 + k {
            signatures.push(sfsxs.signature(&phr));
            phr.push(cycle[i % k]);
        }
        let distinct = |sigs: &[u64], order: u32| {
            let mut idx: Vec<u64> = sigs.iter().map(|&s| sfsxs.index(s, order)).collect();
            idx.sort_unstable();
            idx.dedup();
            idx.len() == sigs.len()
        };
        let phases = &signatures[10..];
        for order in 1..=10u32 {
            if 1usize << order >= k {
                assert!(
                    distinct(phases, order),
                    "k={k}: phases share an order-{order} slot"
                );
            }
        }
        let mut learns = std::collections::HashMap::new();
        for (i, &s) in signatures.iter().enumerate() {
            let next = *learns.entry(sfsxs.index(s, 10)).or_insert(cycle[i % k]);
            assert_eq!(
                next,
                cycle[i % k],
                "k={k}: an order-10 slot learns two targets"
            );
        }
        assert_eq!(
            ibp_hw::fold_xor(cycle[1] & 0x3FF, 10, 5),
            0,
            "T1 must fold to 0"
        );
    }
}

#[test]
fn ppm_pib_fixed_warm_up_then_zero_misses() {
    for k in KS {
        let warm_up = if k == 2 { k } else { k + 1 };
        for n in NS {
            let misses = miss_positions(&mut PpmPib::paper(), k, n);
            let want: Vec<usize> = (0..warm_up.min(n)).collect();
            assert_eq!(misses, want, "k={k} n={n}");
        }
    }
}
