//! Property suite for the faithful ITTAGE: determinism across executor
//! pool sizes and repeats (the seeded allocation PRNG must make runs
//! bit-identical no matter how work is scheduled), useful-bit aging
//! epoch invariants, folded-history/tag-width consistency, and
//! bit-budget solver monotonicity.

use ibp_exec::Executor;
use ibp_isa::Addr;
use ibp_predictors::{HistoryGroup, IndirectPredictor, Ittage64, Ittage64Config, PredictorState};
use ibp_testkit::{prop_assert, prop_assert_eq, splitmix64, Prop};
use ibp_trace::BranchEvent;

/// A deterministic pseudo-random branch stream: a few dozen hot branch
/// sites with history-correlated targets, enough to drive allocations,
/// alt-overrides and aging through their paces.
fn stream(seed: u64, len: usize) -> Vec<(Addr, Addr)> {
    let mut s = seed;
    let mut hist = 0u64;
    (0..len)
        .map(|_| {
            let r = splitmix64(&mut s);
            let pc = Addr::new(0x1000 + (r % 48) * 4);
            // Target correlates with recent path history so tagged
            // tables actually win allocations.
            let t = Addr::new(0x9000 + ((hist ^ r >> 8) % 13) * 4);
            hist = (hist << 2) ^ (t.raw() & 0xF);
            (pc, t)
        })
        .collect()
}

/// Runs a fresh 8KB ITTAGE through the stream and returns the full
/// prediction trace, misprediction count, and canonical state blob.
fn run_stream(events: &[(Addr, Addr)]) -> (Vec<Option<Addr>>, u64, Vec<u8>) {
    let mut p = Ittage64::new(Ittage64Config::budget_8kb());
    let mut preds = Vec::with_capacity(events.len());
    let mut miss = 0u64;
    for &(pc, t) in events {
        let pred = p.predict(pc);
        if pred != Some(t) {
            miss += 1;
        }
        preds.push(pred);
        p.update(pc, t);
        p.observe(&BranchEvent::indirect_jmp(pc, t));
    }
    let mut blob = Vec::new();
    p.save_state(&mut ibp_hw::StateSink::new(&mut blob));
    (preds, miss, blob)
}

/// The same workload scheduled as parallel tasks on pools of 1, 2 and 8
/// workers, twice each, must produce byte-identical predictions and
/// state blobs — the allocation PRNG is seeded per instance, never
/// shared, so scheduling cannot leak into results.
#[test]
fn deterministic_across_pool_sizes_and_repeats() {
    let events = stream(0xDE7E_4213, 4000);
    let reference = run_stream(&events);
    for pool in [1usize, 2, 8] {
        for repeat in 0..2 {
            let exec = Executor::new(pool);
            let results = exec.run(8, |_| run_stream(&events));
            for (i, r) in results.iter().enumerate() {
                assert_eq!(
                    *r, reference,
                    "pool {pool} repeat {repeat} task {i} diverged"
                );
            }
        }
    }
}

/// Aging invariants: epochs advance exactly every `aging_period`
/// updates, an epoch never increases the usefulness mass, and the mass
/// right after an epoch is at most half the mass just before it.
#[test]
fn aging_epochs_bound_useful_mass() {
    Prop::new("aging_epochs_bound_useful_mass").cases(12).run(
        |rng| rng.gen_range(1u64..1 << 32),
        |&seed| {
            let mut p = Ittage64::new(Ittage64Config::budget_8kb());
            let period = p.config().aging_period as u64;
            let events = stream(seed, 3 * period as usize + 17);
            let mut updates = 0u64;
            for &(pc, t) in &events {
                let mass_before = p.useful_mass();
                let epochs_before = p.epochs();
                p.predict(pc);
                p.update(pc, t);
                p.observe(&BranchEvent::indirect_jmp(pc, t));
                updates += 1;
                prop_assert_eq!(p.epochs(), updates / period, "epoch counter drifted");
                if p.epochs() > epochs_before {
                    // The halving dominates anything the update added.
                    prop_assert!(
                        p.useful_mass() <= mass_before / 2 + 1,
                        "epoch did not halve mass: {} -> {}",
                        mass_before,
                        p.useful_mass()
                    );
                }
            }
            prop_assert_eq!(p.epochs(), updates / period);
            Ok(())
        },
    );
}

/// The incremental folded histories must equal a from-scratch fold of
/// the retained event window at any point, and every stored tag must
/// fit its table's declared width.
#[test]
fn folds_and_tags_stay_consistent() {
    Prop::new("folds_and_tags_stay_consistent").cases(12).run(
        |rng| rng.gen_range(1u64..1 << 32),
        |&seed| {
            let mut p = Ittage64::new(Ittage64Config::budget_16kb());
            for (i, &(pc, t)) in stream(seed, 2500).iter().enumerate() {
                p.predict(pc);
                p.update(pc, t);
                p.observe(&BranchEvent::indirect_jmp(pc, t));
                if i % 97 == 0 {
                    prop_assert!(p.check_consistency(), "inconsistent after event {}", i);
                }
            }
            prop_assert!(p.check_consistency());
            Ok(())
        },
    );
}

/// Budget-solver monotonicity: growing the bit budget never shrinks the
/// configuration, never overshoots, and never increases the absolute
/// sizing error — the greedy base-entry fill leaves less than one
/// 67-bit base entry on the table at every budget.
#[test]
fn budget_solver_is_monotone_and_tight() {
    let mut prev_entries = 0usize;
    let mut budget = 64 * 1024u64; // bits; 8KB
    while budget <= 8 * 1024 * 1024 {
        let cfg = Ittage64Config::for_budget(budget, HistoryGroup::AllIndirect);
        let bits = cfg.storage_bits();
        assert!(bits <= budget, "{budget}: overshoot ({bits})");
        let error = budget - bits;
        assert!(error < 67, "{budget}: {error} bits left unfilled");
        assert!(
            cfg.total_entries() >= prev_entries,
            "{budget}: entries shrank"
        );
        prev_entries = cfg.total_entries();
        budget = budget * 3 / 2 + 1;
    }
}

/// The three presets declare exactly their nominal budgets and the
/// flagship dominates the small ones in capacity.
#[test]
fn presets_declare_their_budgets() {
    let p8 = Ittage64Config::budget_8kb();
    let p16 = Ittage64Config::budget_16kb();
    let p64 = Ittage64Config::budget_64kb();
    assert_eq!(p8.budget_bits, 8 * 8 * 1024);
    assert_eq!(p16.budget_bits, 16 * 8 * 1024);
    assert_eq!(p64.budget_bits, 64 * 8 * 1024);
    assert!(p8.total_entries() < p16.total_entries());
    assert!(p16.total_entries() < p64.total_entries());
}

/// The storage audit agrees with the declared cost bit-for-bit on every
/// preset (the bitreport gate holds by construction, not by slack).
#[test]
fn storage_audit_matches_declared_cost() {
    for cfg in [
        Ittage64Config::budget_8kb(),
        Ittage64Config::budget_16kb(),
        Ittage64Config::budget_64kb(),
    ] {
        let p = Ittage64::new(cfg);
        let report = p.report_storage();
        assert_eq!(report.total_bits(), p.cost().bits());
        assert_eq!(report.entries(), p.cost().entries());
    }
}
