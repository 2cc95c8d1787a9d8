//! E8 — the §6 future-work designs, implemented and measured.
//!
//! §6 lists four directions: a monomorphic/low-entropy filter in front of
//! the PPM (like the Cascade's), a tagged PPM (covered by `ablate_tags`),
//! confidence on the Markov components, and a modified update protocol.
//! This binary measures the filter and the confidence thresholds, plus the
//! finite-BIU sensitivity §5 flags ("limiting its size may have a larger
//! impact on the PPM-hyb predictor due to its dependence on the selection
//! counters").
//!
//! Usage: `cargo run --release -p ibp-bench --bin ext_future_work [scale]`

use ibp_bench::figure_args;
use ibp_ppm::{FilteredPpm, PpmHybrid, SelectorKind, StackConfig, UpdateProtocol};
use ibp_predictors::IndirectPredictor;
use ibp_sim::report::pct;
use ibp_sim::simulate;
use ibp_trace::Trace;
use ibp_workloads::paper_suite;

fn mean<F: Fn() -> Box<dyn IndirectPredictor>>(build: F, traces: &[Trace]) -> f64 {
    traces
        .iter()
        .map(|t| {
            let mut p = build();
            simulate(p.as_mut(), t).misprediction_ratio()
        })
        .sum::<f64>()
        / traces.len() as f64
}

fn main() {
    let scale = figure_args("ext_future_work [scale]", 0.25, &[], &[]).scale;
    let traces: Vec<Trace> = paper_suite()
        .iter()
        .map(|r| r.generate_scaled(scale))
        .collect();

    println!("=== E8: §6 future-work designs (means over the suite, scale {scale}) ===\n");

    println!("--- filter in front of the PPM (vs plain PPM-hyb and Cascade size) ---");
    let base = mean(|| Box::new(PpmHybrid::paper()), &traces);
    println!("PPM-hyb (paper)        {}", pct(base));
    for filter in [64usize, 128, 256, 512] {
        let r = mean(
            || {
                Box::new(FilteredPpm::new(
                    filter,
                    StackConfig::paper(),
                    SelectorKind::Normal,
                ))
            },
            &traces,
        );
        println!("PPM-filtered({filter:<4})     {}", pct(r));
    }
    // A tagless core is almost always "valid" at some order, so the
    // filter is rarely consulted — the §6 filter idea implicitly needs
    // the tagged PPM (also §6) to leave room for the filter to answer.
    let tagged_cfg = StackConfig {
        tagged: true,
        ..StackConfig::paper()
    };
    let r = mean(
        || Box::new(PpmHybrid::new(tagged_cfg, SelectorKind::Normal)),
        &traces,
    );
    println!("PPM-tagged (no filter) {}", pct(r));
    let r = mean(
        || Box::new(FilteredPpm::new(128, tagged_cfg, SelectorKind::Normal)),
        &traces,
    );
    println!("PPM-tagged + filter    {}", pct(r));

    println!("\n--- confidence threshold on Markov components ---");
    for threshold in 0u32..=3 {
        let r = mean(
            || {
                Box::new(PpmHybrid::new(
                    StackConfig {
                        confidence_threshold: threshold,
                        ..StackConfig::paper()
                    },
                    SelectorKind::Normal,
                ))
            },
            &traces,
        );
        let label = if threshold == 0 { " (paper)" } else { "" };
        println!("confidence >= {threshold}{label:<8} {}", pct(r));
    }

    println!("\n--- update protocol (§6: \"modify the update protocol\") ---");
    for (protocol, label) in [
        (UpdateProtocol::Exclusion, "exclusion (paper)"),
        (UpdateProtocol::AllOrders, "all orders"),
        (UpdateProtocol::ProviderOnly, "provider only"),
    ] {
        let r = mean(
            || {
                Box::new(PpmHybrid::new(
                    StackConfig {
                        update_protocol: protocol,
                        ..StackConfig::paper()
                    },
                    SelectorKind::Normal,
                ))
            },
            &traces,
        );
        println!("{label:<20} {}", pct(r));
    }

    println!("\n--- finite BIU (the paper assumes infinite; §5 flags the risk) ---");
    println!("BIU capacity   mean ratio");
    for cap in [32usize, 64, 128, 256, 1024] {
        let r = mean(
            || Box::new(PpmHybrid::paper().with_bounded_biu(cap)),
            &traces,
        );
        println!("{cap:>10}   {}", pct(r));
    }
    println!("{:>10}   {}", "infinite", pct(base));
}
