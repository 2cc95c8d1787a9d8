//! Hostile snapshot blobs end in a typed error, never a panic.
//!
//! Spill files under a server's `spill_dir` are input from outside the
//! program, and every restore parses one. For every serve kind this
//! feeds corrupted copies of real snapshots to both restore paths —
//! private blobs through [`restore_session`], sealed blobs through
//! [`BaseTier::restore`] in both table encodings — and requires each
//! call to return `Ok` or a [`PersistError`]. The corruptions are
//! truncations (at sampled cut points), single-byte flips and single-byte
//! insertions, drawn from the seeded test PRNG (`IBP_TEST_SEED`
//! reseeds).

use ibp_hw::PersistError;
use ibp_ppm::TableEncoding;
use ibp_sim::snapshot::{restore_session, snapshot_session, BaseTier};
use ibp_sim::{PredictorKind, SessionStepper};
use ibp_testkit::{master_seed, TestRng};
use ibp_trace::BranchEvent;
use ibp_workloads::paper_suite;
use std::panic::{catch_unwind, AssertUnwindSafe};

const ENTRIES: usize = 2048;
/// Corruptions of each kind applied to every blob.
const TRUNCATIONS: usize = 48;
const FLIPS: usize = 96;
const INSERTIONS: usize = 48;

type Restore<'a> = dyn Fn(&[u8]) -> Result<Box<dyn SessionStepper>, PersistError> + 'a;

/// Restores every corrupted copy of `blob` and steps each session that
/// loads through `tail`; a panic fails the test with the corruption that
/// caused it.
fn assault(
    label: &str,
    blob: &[u8],
    restore: &Restore<'_>,
    tail: &[BranchEvent],
    rng: &mut TestRng,
) -> usize {
    let mut cases: Vec<(String, Vec<u8>)> = Vec::new();
    for _ in 0..TRUNCATIONS {
        let cut = rng.gen_range(0..blob.len());
        cases.push((format!("truncated to {cut}"), blob[..cut].to_vec()));
    }
    for _ in 0..FLIPS {
        let at = rng.gen_range(0..blob.len());
        let mask = rng.gen_range(1..=255u32) as u8;
        let mut b = blob.to_vec();
        b[at] ^= mask;
        cases.push((format!("byte {at} xor {mask:#04x}"), b));
    }
    for _ in 0..INSERTIONS {
        let at = rng.gen_range(0..=blob.len());
        let byte = rng.next_u32() as u8;
        let mut b = blob.to_vec();
        b.insert(at, byte);
        cases.push((format!("{byte:#04x} inserted at {at}"), b));
    }
    for (what, bytes) in &cases {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            // A blob that loads must also leave a session that steps.
            if let Ok(mut revived) = restore(bytes) {
                revived.step_counted(tail);
            }
        }));
        if outcome.is_err() {
            panic!("{label}: restoring a blob with {what} panicked");
        }
    }
    cases.len()
}

#[test]
fn corrupt_snapshots_never_panic_on_restore() {
    let all: Vec<BranchEvent> = paper_suite()[1].generate_scaled(0.01).events().to_vec();
    let (warmup, session) = all.split_at(all.len() / 2);
    let tail = &session[..session.len().min(256)];
    let mut rng = TestRng::new(master_seed());
    let mut restores = 0;
    for kind in PredictorKind::serve_lineup() {
        let mut private = kind.session_stepper(ENTRIES);
        private.step_counted(&all);
        let blob = snapshot_session(kind, ENTRIES, TableEncoding::Plain, &*private);
        assert!(
            restore_session(&blob).is_ok(),
            "{kind:?}: clean private blob rejected"
        );
        restores += assault(
            &format!("{kind:?} private"),
            &blob,
            &restore_session,
            tail,
            &mut rng,
        );

        for encoding in [TableEncoding::Plain, TableEncoding::Compact] {
            let tier = BaseTier::warm(kind, ENTRIES, encoding, warmup);
            let mut fork = tier.session();
            fork.step_counted(session);
            let blob = snapshot_session(kind, ENTRIES, encoding, &*fork);
            assert!(
                tier.restore(&blob).is_ok(),
                "{kind:?}/{encoding:?}: clean blob rejected"
            );
            let label = format!("{kind:?} sealed {encoding:?}");
            restores += assault(&label, &blob, &|b| tier.restore(b), tail, &mut rng);
        }
    }
    assert_eq!(restores, 15 * 3 * (TRUNCATIONS + FLIPS + INSERTIONS));
}
