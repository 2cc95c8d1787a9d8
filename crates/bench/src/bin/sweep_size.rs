//! A1 — table-size sweep.
//!
//! The paper fixes every predictor at 2K entries and flags varying table
//! sizes as future work ("We also did not consider the effects of varying
//! table sizes"). This ablation sweeps the total entry budget from 512 to
//! 8K for every predictor and reports mean misprediction ratios, showing
//! where each scheme is capacity-limited versus resolution-limited.
//!
//! Usage: `cargo run --release -p ibp-bench --bin sweep_size [scale]
//! [--budget b1,b2,...]` — with `--budget`, the columns are storage-bit
//! budgets instead of entry counts: each predictor is resized to the
//! largest configuration fitting each bit budget (cells print `-` where
//! even the 64-entry floor overshoots). `IBP_THREADS=n` pins the pool
//! size.

use ibp_bench::figure_args;
use ibp_exec::Executor;
use ibp_sim::report::pct;
use ibp_sim::PredictorKind;
use ibp_workloads::paper_suite;

fn print_means(kinds: &[PredictorKind], budgets: &[usize], traces: usize, ratios: &[f64]) {
    print!("{:<14}", "predictor");
    for b in budgets {
        print!("{b:>9}");
    }
    println!();
    let mut next = ratios.iter();
    for kind in kinds {
        print!("{:<14}", kind.label());
        for _ in budgets {
            let sum: f64 = next.by_ref().take(traces).sum();
            print!("{:>9}", pct(sum / traces as f64));
        }
        println!();
    }
}

fn print_bit_means(kinds: &[PredictorKind], bit_budgets: &[u64], traces: usize, ratios: &[f64]) {
    print!("{:<14}", "predictor");
    for b in bit_budgets {
        print!("{b:>10}");
    }
    println!();
    let mut next = ratios.iter();
    for kind in kinds {
        print!("{:<14}", kind.label());
        for _ in bit_budgets {
            let cells: Vec<f64> = next.by_ref().take(traces).copied().collect();
            if cells.iter().any(|r| r.is_nan()) {
                print!("{:>10}", "-");
            } else {
                print!("{:>10}", pct(cells.iter().sum::<f64>() / traces as f64));
            }
        }
        println!();
    }
}

fn main() {
    let args = figure_args(
        "sweep_size [scale] [--budget b1,b2,...]",
        0.25,
        &[],
        &["--budget"],
    );
    let bit_budgets = args.value("--budget").map(|spec| {
        spec.split(',')
            .map(|s| {
                s.trim().parse::<u64>().unwrap_or_else(|_| {
                    eprintln!("--budget: {s:?} is not a bit count");
                    std::process::exit(2);
                })
            })
            .collect::<Vec<u64>>()
    });
    let scale = args.scale;
    let budgets = [512usize, 1024, 2048, 4096, 8192];
    let mut kinds = PredictorKind::figure6();
    let runs = paper_suite();
    let exec = Executor::from_env();
    let traces = exec.map(&runs, |_, r| r.generate_scaled(scale));

    if let Some(bits) = &bit_budgets {
        // Equal-bits columns: resolve each (kind, bit budget) to its
        // largest fitting entry configuration once, then fan the product
        // out exactly like the entry sweep. The faithful ITTAGE joins at
        // its own preset budgets (NaN marks unfit cells, printed as -).
        kinds.extend([
            PredictorKind::Ittage64(8),
            PredictorKind::Ittage64(16),
            PredictorKind::Ittage64(64),
        ]);
        let sized: Vec<Option<usize>> = kinds
            .iter()
            .flat_map(|k| bits.iter().map(|&b| k.entries_for_budget(b)))
            .collect();
        let ratios = exec.run(kinds.len() * bits.len() * traces.len(), |i| {
            let kind = kinds[i / (bits.len() * traces.len())];
            let slot = i / traces.len();
            let trace = &traces[i % traces.len()];
            match sized[slot] {
                Some(entries) => kind
                    .simulate_events(entries, trace.iter().copied())
                    .misprediction_ratio(),
                None => f64::NAN,
            }
        });
        println!("=== A1: mean misprediction ratio vs storage-bit budget (scale {scale}) ===\n");
        print_bit_means(&kinds, bits, traces.len(), &ratios);
        println!("\n(equal-bits columns; - marks budgets the predictor cannot fit)");
        return;
    }

    // The whole (kind × budget × trace) product goes on the pool as
    // fine-grained tasks; results come back in product order, so the
    // aggregation below is deterministic for any worker count.
    let ratios = exec.run(kinds.len() * budgets.len() * traces.len(), |i| {
        let kind = kinds[i / (budgets.len() * traces.len())];
        let budget = budgets[(i / traces.len()) % budgets.len()];
        let trace = &traces[i % traces.len()];
        kind.simulate_events(budget, trace.iter().copied())
            .misprediction_ratio()
    });

    println!("=== A1: mean misprediction ratio vs total table budget (scale {scale}) ===\n");
    print_means(&kinds, &budgets, traces.len(), &ratios);

    println!("\n(2048 is the paper's design point; the paper left the sweep as future work)");
}
