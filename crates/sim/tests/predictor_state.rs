//! Pins what a predictor's state walks produce, for every serve kind.
//!
//! The walks — save, load, seal, resident bytes, storage report, reset —
//! are derived from one declaration per predictor. These checks hold the
//! outputs that declaration must reproduce:
//!
//! * the snapshot blob of a private session and of a sealed tier fork,
//!   in both table encodings, by FNV-1a digest, together with the
//!   resident bytes of each session and the audited storage of a
//!   predictor after the stream;
//! * **reset ≡ fresh**: a reset predictor saves the same bytes and
//!   reports the same telemetry as a fresh build, and then predicts
//!   exactly like it;
//! * **telemetry survives a round trip**: loading a saved blob into a
//!   fresh build restores its `report_metrics` and its bytes.
//!
//! When a blob format changes on purpose, the failure message prints the
//! whole digest table to paste over [`PINS`].

use ibp_hw::{StateSink, StateSource};
use ibp_ppm::TableEncoding;
use ibp_predictors::{IndirectPredictor, PredictorState};
use ibp_sim::snapshot::{snapshot_session, BaseTier};
use ibp_sim::PredictorKind;
use ibp_trace::BranchEvent;
use ibp_workloads::paper_suite;

const ENTRIES: usize = 2048;

/// One kind's pins: blob digests (private plain, private compact, tier
/// fork plain, tier fork compact), the resident bytes of those four
/// sessions, and the audited storage bits of a predictor that ran the
/// whole stream.
struct Pin {
    cli: &'static str,
    blobs: [u64; 4],
    resident: [usize; 4],
    storage_bits: u64,
}

#[rustfmt::skip] // one pin per line, as the failure message prints them
const PINS: [Pin; 15] = [
    Pin { cli: "btb", blobs: [0x56110e12ac437da5, 0xcac1f7ee8a594ddc, 0xd39cee338a106438, 0x2d2b43979b01d003], resident: [50016, 50016, 2656, 2656], storage_bits: 133120 },
    Pin { cli: "btb2b", blobs: [0xab3ee56363beb285, 0xbae98ffc1984d5f8, 0x785380c584a75c68, 0x1e8dfcca398cdbbb], resident: [50016, 50016, 2656, 2656], storage_bits: 137216 },
    Pin { cli: "gap", blobs: [0xe8af1d89bcd9db26, 0x0ef6cd076219bd73, 0xdb0e015c3f4c18d1, 0xed6081326f873710], resident: [50016, 50016, 8032, 8032], storage_bits: 137226 },
    Pin { cli: "tc-pib", blobs: [0xd0d3da27a7cdb19f, 0xbf89b0d719802a50, 0x2e882c215bd3ea37, 0xb7d4b77c6d0e7e86], resident: [50016, 50016, 4448, 4448], storage_bits: 133131 },
    Pin { cli: "tc-pb", blobs: [0x70bca819b708787d, 0x694a9a9594ebed54, 0x9a60e078fb5a395a, 0x9d037d8c4e860c3b], resident: [50016, 50016, 8032, 8032], storage_bits: 133131 },
    Pin { cli: "dpath", blobs: [0x841d9096edbcbf6d, 0x95acff10d344d424, 0x109a0ea043940946, 0x9a2022d22385c3b7], resident: [62304, 62304, 9056, 9056], storage_bits: 139312 },
    Pin { cli: "cascade", blobs: [0x9445123803f54bae, 0xc7eacb7d29283885, 0xddabb3ec9185c364, 0x6614cdbb0ff155d5], resident: [100192, 100192, 88928, 88928], storage_bits: 213168 },
    Pin { cli: "ppm-hyb", blobs: [0xc9c402897894a89f, 0x650d4ca83674cf30, 0x8656a3675fae865e, 0x19c8481553c185ed], resident: [68816, 23804, 20592, 20592], storage_bits: 137426 },
    Pin { cli: "ppm-pib", blobs: [0xd796c764f8254c75, 0x99336b781c431d5e, 0xa47bb1593b7bf18c, 0x01e3bdddb930f7df], resident: [66336, 21324, 21024, 21024], storage_bits: 137182 },
    Pin { cli: "ppm-hyb-biased", blobs: [0xdcbfe9c8bd3ee43b, 0x08e59ef90166ad12, 0x4c6d79ec8e612af8, 0xfa75a14d7df51415], resident: [68816, 23804, 22608, 22608], storage_bits: 137426 },
    Pin { cli: "oracle-pib:8", blobs: [0xac7b00489f589c3d, 0x18442d7ab5f7dea8, 0xb4818d542727cb9c, 0x239c8e2eaa741c21], resident: [20064, 20064, 20064, 20064], storage_bits: 154880 },
    Pin { cli: "ittage", blobs: [0x932f525cefaf3672, 0x4e0d9f5638d11223, 0xf8df615e7226bb5a, 0x6dd8ad23aed06bb1], resident: [46160, 46160, 46160, 46160], storage_bits: 153216 },
    Pin { cli: "ittage64-8k", blobs: [0x25bf7db447894ab2, 0xa00a7280739fd6af, 0x64b3b87a280bbe5c, 0xe9d92082d80ddc03], resident: [26264, 26264, 26264, 26264], storage_bits: 65491 },
    Pin { cli: "ittage64-16k", blobs: [0x943b114df4e0f52e, 0xeaf3e7a54d416fe7, 0xa2a377fb2487b416, 0x1c2f7d7dc2f21e31], resident: [52008, 52008, 52008, 52008], storage_bits: 131013 },
    Pin { cli: "ittage64-64k", blobs: [0x00b3ae007481d49f, 0x404b039c2d9679dc, 0x5055059bc06b2499, 0xc8118f41083cfdc4], resident: [206464, 206464, 206464, 206464], storage_bits: 524272 },
];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// One suite run, split into a first and a second half.
fn events() -> Vec<BranchEvent> {
    paper_suite()[2].generate_scaled(0.02).events().to_vec()
}

/// The simulator's per-event protocol: predict and update predicted
/// indirect branches, observe every event. Returns the predictions.
fn drive(p: &mut dyn IndirectPredictor, events: &[BranchEvent]) -> Vec<Option<u64>> {
    let mut predictions = Vec::new();
    for e in events {
        if e.class().is_predicted_indirect() {
            predictions.push(p.predict(e.pc()).map(|a| a.raw()));
            p.update(e.pc(), e.target());
        }
        p.observe(e);
    }
    predictions
}

fn blob(p: &dyn IndirectPredictor) -> Vec<u8> {
    let mut out = Vec::new();
    p.save_state(&mut StateSink::new(&mut out));
    out
}

fn metrics(p: &dyn IndirectPredictor) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    p.report_metrics(&mut |name, value| out.push((name.to_string(), value)));
    out
}

#[test]
fn blobs_resident_bytes_and_storage_keep_their_pins() {
    let all = events();
    let (warmup, session) = all.split_at(all.len() / 2);
    let mut table = String::new();
    let mut mismatches = Vec::new();
    for (kind, pin) in PredictorKind::serve_lineup().into_iter().zip(&PINS) {
        assert_eq!(kind.cli_name(), pin.cli, "serve lineup order changed");
        let mut blobs = [0u64; 4];
        let mut resident = [0usize; 4];
        for (i, encoding) in [TableEncoding::Plain, TableEncoding::Compact]
            .into_iter()
            .enumerate()
        {
            let mut private = kind.session_stepper_with(ENTRIES, encoding);
            private.step_counted(&all);
            blobs[i] = fnv1a(&snapshot_session(kind, ENTRIES, encoding, &*private));
            resident[i] = private.resident_bytes();

            let tier = BaseTier::warm(kind, ENTRIES, encoding, warmup);
            let mut fork = tier.session();
            fork.step_counted(session);
            blobs[2 + i] = fnv1a(&snapshot_session(kind, ENTRIES, encoding, &*fork));
            resident[2 + i] = fork.resident_bytes();
        }
        let mut p = kind.build_with_entries(ENTRIES);
        drive(&mut *p, &all);
        let storage_bits = p.report_storage().total_bits();

        table.push_str(&format!(
            "    Pin {{ cli: {:?}, blobs: [{:#018x}, {:#018x}, {:#018x}, {:#018x}], \
             resident: {resident:?}, storage_bits: {storage_bits} }},\n",
            pin.cli, blobs[0], blobs[1], blobs[2], blobs[3],
        ));
        if blobs != pin.blobs || resident != pin.resident || storage_bits != pin.storage_bits {
            mismatches.push(pin.cli);
        }
    }
    assert!(
        mismatches.is_empty(),
        "state pins moved for {mismatches:?}; the current table is:\n{table}"
    );
}

#[test]
fn reset_matches_a_fresh_build() {
    let all = events();
    let (first, second) = all.split_at(all.len() / 2);
    for kind in PredictorKind::serve_lineup() {
        let mut used = kind.build_with_entries(ENTRIES);
        drive(&mut *used, first);
        used.reset();
        let mut fresh = kind.build_with_entries(ENTRIES);
        assert_eq!(
            blob(&*used),
            blob(&*fresh),
            "{kind:?}: reset state differs from fresh"
        );
        assert_eq!(
            metrics(&*used),
            metrics(&*fresh),
            "{kind:?}: reset telemetry differs"
        );
        assert_eq!(
            drive(&mut *used, second),
            drive(&mut *fresh, second),
            "{kind:?}: a reset predictor predicts unlike a fresh one"
        );
    }
}

#[test]
fn telemetry_survives_a_round_trip() {
    let all = events();
    for kind in PredictorKind::serve_lineup() {
        let mut p = kind.build_with_entries(ENTRIES);
        drive(&mut *p, &all);
        let saved = blob(&*p);
        let mut restored = kind.build_with_entries(ENTRIES);
        restored
            .load_state(&mut StateSource::new(&saved))
            .unwrap_or_else(|e| panic!("{kind:?}: reload failed: {e}"));
        assert_eq!(
            metrics(&*restored),
            metrics(&*p),
            "{kind:?}: telemetry lost"
        );
        assert_eq!(
            blob(&*restored),
            saved,
            "{kind:?}: reloaded state saves other bytes"
        );
    }
}
