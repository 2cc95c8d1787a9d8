//! Determinism pins for the calibrated benchmark suite.
//!
//! The fifteen workload personalities were calibrated against the
//! predictors until the paper's Figure 6/7 shape reproduced; every number
//! in EXPERIMENTS.md depends on these exact streams. This test pins a
//! fingerprint of each run (at 2% scale) so that any accidental change to
//! the generators — a reordered RNG draw, a layout tweak, a behaviour
//! refactor — fails loudly here instead of silently shifting the measured
//! results. If a change to the suite is *intentional*, re-derive the pins
//! and re-run the full experiment grid (see EXPERIMENTS.md).
//!
//! Also pinned here: the metrics JSON schema (v1). `results/*.json`
//! artifacts and any downstream tooling parse this shape; changing it
//! requires bumping `METRICS_SCHEMA_VERSION` and re-deriving the golden
//! string below.

use ibp_exec::Executor;
use ibp_metrics::{Log2Histogram, MetricsSnapshot};
use ibp_sim::metrics::{MetricsCell, MetricsGrid};
use ibp_sim::{metrics_to_json, simpoint_trace, PredictorKind, SimPointConfig, METRICS_SCHEMA_VERSION};
use ibp_workloads::paper_suite;

/// (label, events, MT indirect, FNV-1a over (pc, target, inline)).
const PINS: &[(&str, usize, u64, u64)] = &[
    ("perl.std", 10240, 6000, 0x1c537a77572f6c2e),
    ("gcc.cc1", 7980, 4830, 0x312f1d48df22b8f1),
    ("edg.exp", 8470, 3570, 0xb806facb43fcb77a),
    ("edg.inp", 6440, 2730, 0xb0e6ef90068c2f18),
    ("edg.pic", 8400, 3570, 0xda5659e165c275a9),
    ("eqn.std", 5600, 2720, 0xb5e3319b1ebad83c),
    ("eon.chair", 12480, 6560, 0xfd5937e7b747fa35),
    ("gs.pht", 7350, 4410, 0x06ee6417f079c1c9),
    ("gs.tig", 8330, 5110, 0x19386903b9ab5147),
    ("photon.dia", 2800, 1280, 0x7b455d6b27a32302),
    ("ixx.lay", 7910, 4620, 0x970c3955d65cdaad),
    ("ixx.wid", 8260, 4900, 0xaff33575b355fb33),
    ("troff.lle", 5840, 2320, 0xe2bacb36185b4ddc),
    ("troff.gcc", 6320, 2640, 0x3a196fec7137ce86),
    ("troff.ped", 5200, 2000, 0x78385368b631462d),
];

#[test]
fn suite_traces_match_their_pins() {
    let runs = paper_suite();
    assert_eq!(runs.len(), PINS.len(), "suite size changed");
    for (run, &(label, events, mt, fnv)) in runs.iter().zip(PINS) {
        assert_eq!(run.label(), label, "suite order changed");
        let trace = run.generate_scaled(0.02);
        assert_eq!(trace.len(), events, "{label}: event count drifted");
        assert_eq!(
            trace.stats().mt_indirect(),
            mt,
            "{label}: MT branch count drifted"
        );
        let mut h = 0xcbf29ce484222325u64;
        for e in trace.iter() {
            for v in [e.pc().raw(), e.target().raw(), e.inline_instrs() as u64] {
                h = (h ^ v).wrapping_mul(0x100000001b3);
            }
        }
        assert_eq!(h, fnv, "{label}: trace content drifted");
    }
}

/// Full-vs-sampled pins on the gs.tig stream at 20% scale (the same
/// trace `tracegen -- gs.tig --scale 0.2` writes — regenerated here
/// since `traces/` is scratch): PPM-hyb exact counts and the
/// phase-sampled weighted counts at a fixed estimator config. The
/// sampled pin freezes the whole estimator pipeline — window slicing,
/// signature hashing, k-means seeding and tie-breaks, stratification,
/// warmup policy, weighted merge — so any drift in the estimator fails
/// here like any other golden (see DESIGN.md §13). If a change is
/// *intentional*, re-derive these numbers and regenerate
/// `results/simpoint_validation.txt` (`simbench`).
#[test]
fn gs_tig_full_vs_sampled_ppm_matches_its_pins() {
    let run = paper_suite()
        .into_iter()
        .find(|r| r.label() == "gs.tig")
        .expect("suite lost gs.tig");
    let trace = run.generate_scaled(0.2);
    assert_eq!(trace.len(), 83_300, "gs.tig stream drifted");

    let full = PredictorKind::PpmHyb.simulate_events(2048, trace.iter().copied());
    assert_eq!(
        (full.predictions(), full.mispredictions()),
        (51_100, 4_358),
        "full-run PPM-hyb counts drifted"
    );

    let cfg = SimPointConfig {
        k: 8,
        window: 1024,
        warmup_windows: 8,
        strata: 2,
        dims: 64,
        ..SimPointConfig::default()
    };
    let sampled = simpoint_trace(PredictorKind::PpmHyb, 2048, &trace, &cfg, &Executor::new(2));
    assert_eq!(sampled.phases.windows(), 82, "window slicing drifted");
    assert_eq!(
        (
            sampled.estimate.predictions,
            sampled.estimate.mispredictions,
            sampled.phases.clusters.len() as u64,
        ),
        (51_727, 4_113, 16),
        "sampled PPM-hyb estimate drifted (estimator pipeline changed)"
    );
}

#[test]
fn metrics_json_schema_matches_its_pin() {
    assert_eq!(METRICS_SCHEMA_VERSION, 1, "schema bumped: re-derive the pin");

    // A handmade one-cell grid with every feature of the schema: a
    // counter list, a histogram with two occupied buckets, and the
    // per-predictor totals section.
    let mut snapshot = MetricsSnapshot::new();
    snapshot.add_counter("sim_events", 9);
    snapshot.add_counter("sim_mispredictions", 6);
    let mut gap = Log2Histogram::new();
    gap.record(1);
    gap.record(2);
    snapshot.merge_histogram("sim_mispredict_gap", &gap);
    let grid = MetricsGrid::from_parts(
        vec!["BTB".to_string()],
        vec!["perl.std".to_string()],
        0.02,
        vec![MetricsCell {
            run: "perl.std".to_string(),
            predictor: "BTB".to_string(),
            snapshot,
        }],
    );

    let expected = concat!(
        "{\"schema_version\":1,\"scale\":0.02,",
        "\"predictors\":[\"BTB\"],\"runs\":[\"perl.std\"],",
        "\"cells\":[{\"run\":\"perl.std\",\"predictor\":\"BTB\",",
        "\"counters\":[{\"name\":\"sim_events\",\"value\":9},",
        "{\"name\":\"sim_mispredictions\",\"value\":6}],",
        "\"histograms\":[{\"name\":\"sim_mispredict_gap\",",
        "\"count\":2,\"total\":3,\"buckets\":[[1,1],[2,1]]}]}],",
        "\"totals\":[{\"predictor\":\"BTB\",",
        "\"counters\":[{\"name\":\"sim_events\",\"value\":9},",
        "{\"name\":\"sim_mispredictions\",\"value\":6}],",
        "\"histograms\":[{\"name\":\"sim_mispredict_gap\",",
        "\"count\":2,\"total\":3,\"buckets\":[[1,1],[2,1]]}]}]}",
    );
    assert_eq!(
        metrics_to_json(&grid),
        expected,
        "metrics JSON schema drifted; bump METRICS_SCHEMA_VERSION if intentional"
    );
}
