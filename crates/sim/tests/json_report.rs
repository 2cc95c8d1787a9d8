//! Golden tests pinning the JSON report schemas byte-for-byte, plus
//! parse-of-emit identity for `RunResult` and the compare grid.
//!
//! If one of the golden strings changes, every consumer of saved report
//! files sees the schema change too — update them deliberately.

use ibp_predictors::Btb;
use ibp_sim::compare::GridCell;
use ibp_sim::report::{
    grid_from_json, grid_to_json, run_result_from_json, run_result_to_json, stats_to_json,
};
use ibp_sim::{simulate, GridResult, RunResult};
use ibp_trace::{BranchEvent, Trace};
use ibp_isa::Addr;

/// The tiny fixed trace used for the golden run-result: one site
/// alternating A A B, driven through a 64-entry BTB.
fn tiny_trace() -> Trace {
    let pc = Addr::new(0x40);
    let a = Addr::new(0xA00);
    let b = Addr::new(0xB00);
    (0..9)
        .map(|i| BranchEvent::indirect_jmp(pc, if i % 3 == 2 { b } else { a }))
        .collect()
}

#[test]
fn run_result_json_is_byte_stable() {
    let mut btb = Btb::new(64);
    let result = simulate(&mut btb, &tiny_trace());
    // 9 predictions; BTB misses the cold first A plus every A->B and
    // B->A flip in A A B | A A B | A A B: 1 + 5 = 6.
    assert_eq!(
        run_result_to_json(&result),
        "{\"predictor\":\"BTB\",\"predictions\":9,\"mispredictions\":6,\
         \"per_branch\":[{\"pc\":64,\"predictions\":9,\"mispredictions\":6}]}"
    );
}

#[test]
fn run_result_parse_of_emit_is_identity() {
    let mut btb = Btb::new(64);
    let simulated = simulate(&mut btb, &tiny_trace());
    let handmade = RunResult::from_parts(
        "PPM-hyb".to_string(),
        1_000_000,
        94_700,
        [(0x1_2000_0040, (600_000, 60_000)), (0x1_2000_0440, (400_000, 34_700))],
    );
    for result in [simulated, handmade] {
        let text = run_result_to_json(&result);
        let back = run_result_from_json(&text).expect("own output parses");
        assert_eq!(back, result);
        // Emit is deterministic, so emit(parse(emit(x))) is byte-equal.
        assert_eq!(run_result_to_json(&back), text);
    }
}

#[test]
fn grid_json_is_byte_stable() {
    let grid = GridResult::from_parts(
        vec!["BTB".into(), "PPM-hyb".into()],
        vec!["perl.std".into()],
        vec![
            GridCell {
                run: "perl.std".into(),
                predictor: "BTB".into(),
                ratio: 0.5,
                predictions: 100,
            },
            GridCell {
                run: "perl.std".into(),
                predictor: "PPM-hyb".into(),
                ratio: 0.0947,
                predictions: 100,
            },
        ],
    );
    assert_eq!(
        grid_to_json(&grid),
        "{\"predictors\":[\"BTB\",\"PPM-hyb\"],\"runs\":[\"perl.std\"],\
         \"cells\":[\
         {\"run\":\"perl.std\",\"predictor\":\"BTB\",\"ratio\":0.5,\"predictions\":100},\
         {\"run\":\"perl.std\",\"predictor\":\"PPM-hyb\",\"ratio\":0.0947,\"predictions\":100}]}"
    );
}

#[test]
fn grid_parse_of_emit_is_identity() {
    let grid = GridResult::from_parts(
        vec!["BTB".into()],
        vec!["a.x".into(), "b.y".into()],
        vec![
            GridCell {
                run: "a.x".into(),
                predictor: "BTB".into(),
                ratio: 1.0 / 3.0,
                predictions: 42,
            },
            GridCell {
                run: "b.y".into(),
                predictor: "BTB".into(),
                ratio: 0.0,
                predictions: 7,
            },
        ],
    );
    let text = grid_to_json(&grid);
    let back = grid_from_json(&text).expect("own output parses");
    assert_eq!(back, grid);
    assert_eq!(grid_to_json(&back), text);
}

#[test]
fn grid_json_rejects_malformed_reports() {
    assert!(grid_from_json("{}").is_err());
    assert!(grid_from_json("{\"predictors\":[],\"runs\":[],\"cells\":[{}]}").is_err());
    assert!(grid_from_json("not json").is_err());
    assert!(run_result_from_json("{\"predictor\":\"x\"}").is_err());
}

#[test]
fn stats_json_is_byte_stable() {
    let trace = tiny_trace();
    let stats = trace.stats();
    assert_eq!(
        stats_to_json(&stats),
        "{\"total_instructions\":9,\"total_branches\":9,\"conditional\":0,\
         \"unconditional_direct\":0,\"returns\":0,\"st_indirect\":0,\
         \"mt_jmp\":9,\"mt_jsr\":0,\"sites\":[\
         {\"pc\":64,\"executions\":9,\"distinct_targets\":2,\
         \"dominant_target_ratio\":0.6666666666666666,\"change_rate\":0.625}]}"
    );
}
