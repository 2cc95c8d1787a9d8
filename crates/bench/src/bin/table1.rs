//! Table 1 — dynamic benchmark characteristics.
//!
//! The paper's Table 1 lists, per benchmark run: the input, total
//! instructions executed (in millions) and the number of executed
//! multiple-target `jsr` and `jmp` branches. This binary regenerates the
//! table from the synthetic suite (the models are scaled ~50x down from
//! the paper's trace lengths; see DESIGN.md §2).
//!
//! Usage: `cargo run --release -p ibp-bench --bin table1 [scale]`

use ibp_bench::figure_args;
use ibp_workloads::paper_suite;

fn main() {
    let scale = figure_args("table1 [scale]", 1.0, &[], &[]).scale;
    println!("=== Table 1: dynamic benchmark characteristics (scale {scale}) ===\n");
    println!(
        "{:<10} {:>6} {:>10} {:>10} {:>10} {:>9} {:>9} {:>8}",
        "benchmark", "input", "instr(M)", "MT jsr", "MT jmp", "cond", "returns", "sites"
    );
    let mut total_instr = 0u64;
    let mut total_mt = 0u64;
    for run in paper_suite() {
        let trace = if (scale - 1.0).abs() < f64::EPSILON {
            run.generate()
        } else {
            run.generate_scaled(scale)
        };
        let stats = trace.stats();
        println!(
            "{:<10} {:>6} {:>10.2} {:>10} {:>10} {:>9} {:>9} {:>8}",
            run.spec().name,
            run.spec().input,
            stats.total_instructions() as f64 / 1.0e6,
            stats.mt_jsr(),
            stats.mt_jmp(),
            stats.conditional(),
            stats.returns(),
            stats.static_mt_sites(),
        );
        total_instr += stats.total_instructions();
        total_mt += stats.mt_indirect();
    }
    println!(
        "\nsuite total: {:.1}M instructions, {} MT indirect branches",
        total_instr as f64 / 1.0e6,
        total_mt
    );
    println!(
        "(the paper's runs execute 1e8-1e9 instructions each; these models\n\
         are ~50x smaller at the same MT-branch mix — see DESIGN.md)"
    );
}
