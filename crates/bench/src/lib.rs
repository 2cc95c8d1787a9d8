//! Experiment harness support for the paper's tables and figures.
//!
//! The real content of this crate lives in its binaries (`src/bin/*.rs`),
//! one per table/figure, and its one `harness = false` bench
//! (`benches/probe_overhead.rs`, the NullProbe zero-cost gate). Speed
//! is measured by `ibpbench`, outside this crate. This library holds the
//! shared formatting helpers.

/// Formats a ratio as a percentage with two decimals, e.g. `9.47%`.
pub fn pct(x: f64) -> String {
    format!("{:.2}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_formats_like_the_paper() {
        assert_eq!(pct(0.0947), "9.47%");
        assert_eq!(pct(0.0), "0.00%");
    }
}
