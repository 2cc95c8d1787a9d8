//! A name-addressable, budget-scalable factory over every predictor.
//!
//! The experiment binaries need to instantiate the same predictor lineup
//! repeatedly (per benchmark run, per table size, per path length).
//! [`PredictorKind`] centralizes the configurations of §5 so a figure is
//! described by a list of kinds.

use crate::metrics::predictor_snapshot;
use crate::runner::{simulate_stream, simulate_stream_probed, RunResult};
use ibp_metrics::{MetricsSnapshot, RecordingProbe};
use ibp_ppm::{PpmHybrid, PpmPib, SelectorKind, StackConfig, TableEncoding};
use ibp_predictors::{
    Btb, Btb2b, Cascade, CascadeConfig, DualPath, DualPathConfig, GApConfig, GApPredictor,
    HistoryGroup, IndirectPredictor, Ittage, Ittage64, Ittage64Config, IttageConfig, PathOracle,
    TargetCache, TargetCacheConfig,
};
use ibp_trace::{BranchEvent, Trace};

/// The largest per-predictor table budget any layer will configure.
/// [`PredictorKind::build_with_entries`] (and everything funnelled through
/// `dispatch_kind!`) panics above this; the serve handshake rejects it
/// with a typed `ERR_ENTRIES_TOO_LARGE` instead. 1M entries is ~500×
/// the paper's design point — far past any meaningful ablation, and a
/// guard against a remote peer requesting a multi-gigabyte allocation.
pub const MAX_BUILD_ENTRIES: usize = 1 << 20;

/// Dispatches on a [`PredictorKind`] once, binding `$make` in each arm to
/// a zero-arg constructor of the *concrete* predictor type. Everything in
/// `$body` — in particular the per-event simulation loop — monomorphizes
/// per arm, so dynamic dispatch happens once per task instead of three
/// times per branch event. [`PredictorKind::build_with_entries`] and the
/// monomorphized simulation paths share these arms, so the configurations
/// cannot drift apart.
macro_rules! dispatch_kind {
    ($kind:expr, $entries:ident, $make:ident => $body:expr) => {
        dispatch_kind!($kind, $entries, TableEncoding::Plain, $make => $body)
    };
    ($kind:expr, $entries:ident, $encoding:expr, $make:ident => $body:expr) => {{
        assert!($entries >= 64, "budget too small to configure predictors");
        assert!(
            $entries <= MAX_BUILD_ENTRIES,
            "budget exceeds MAX_BUILD_ENTRIES"
        );
        match $kind {
            PredictorKind::Btb => {
                let $make = || Btb::new($entries);
                $body
            }
            PredictorKind::Btb2b => {
                let $make = || Btb2b::new($entries);
                $body
            }
            PredictorKind::GAp => {
                let $make = || {
                    GApPredictor::new(GApConfig {
                        entries_per_bank: $entries / 2,
                        ..GApConfig::paper()
                    })
                };
                $body
            }
            PredictorKind::TcPib => {
                let $make = || {
                    TargetCache::new(TargetCacheConfig {
                        entries: $entries,
                        ..TargetCacheConfig::paper_pib()
                    })
                };
                $body
            }
            PredictorKind::TcPb => {
                let $make = || {
                    TargetCache::new(TargetCacheConfig {
                        entries: $entries,
                        ..TargetCacheConfig::paper_pb()
                    })
                };
                $body
            }
            PredictorKind::Dpath => {
                let $make = || {
                    DualPath::new(DualPathConfig {
                        entries_per_component: $entries / 2,
                        selector_entries: ($entries / 2).max(64),
                        ..DualPathConfig::paper()
                    })
                };
                $body
            }
            PredictorKind::Cascade => {
                let $make = || {
                    let per_component = ($entries / 2).max(64);
                    // Keep the filter at the paper's 1/16 proportion.
                    let filter = ($entries / 16).clamp(32, 1024);
                    Cascade::new(CascadeConfig {
                        filter_entries: filter,
                        filter_ways: 4,
                        core: DualPathConfig {
                            entries_per_component: per_component,
                            selector_entries: per_component,
                            ..DualPathConfig::cascade_core()
                        },
                    })
                };
                $body
            }
            PredictorKind::PpmHyb => {
                let $make = || {
                    PpmHybrid::new(
                        PredictorKind::ppm_stack($entries, $encoding),
                        SelectorKind::Normal,
                    )
                };
                $body
            }
            PredictorKind::PpmPib => {
                let $make = || PpmPib::new(PredictorKind::ppm_stack($entries, $encoding));
                $body
            }
            PredictorKind::PpmHybBiased => {
                let $make = || {
                    PpmHybrid::new(
                        PredictorKind::ppm_stack($entries, $encoding),
                        SelectorKind::PibBiased,
                    )
                };
                $body
            }
            PredictorKind::OraclePib(depth) => {
                let $make = || PathOracle::new(depth as usize, HistoryGroup::AllIndirect);
                $body
            }
            PredictorKind::IttageLite => {
                let $make = || {
                    // Keep the 1:3 base:tagged split while scaling the budget.
                    let base = ($entries / 4).max(64);
                    let per_table = (($entries - base) / 4).max(16);
                    Ittage::new(IttageConfig {
                        base_entries: base,
                        table_entries: per_table,
                        ..IttageConfig::budget_2k()
                    })
                };
                $body
            }
            PredictorKind::Ittage64(kb) => {
                // Sized by storage-bit budget, not entry count: the solver
                // fills `kb` kilobytes of state, so `$entries` is ignored
                // (the kind names its own budget).
                let _ = $entries;
                let $make = || {
                    Ittage64::new(Ittage64Config::for_budget(
                        u64::from(kb) * 8 * 1024,
                        HistoryGroup::AllIndirect,
                    ))
                };
                $body
            }
        }
    }};
}

/// Every predictor configuration used by the paper's figures and this
/// reproduction's ablations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredictorKind {
    /// Tagless BTB (Lee & Smith).
    Btb,
    /// BTB with 2-bit replacement hysteresis (Calder & Grunwald).
    Btb2b,
    /// Two-level GAp (Driesen & Hölzle).
    GAp,
    /// Target Cache with PIB history (Chang et al.).
    TcPib,
    /// Target Cache with PB history (ablation).
    TcPb,
    /// Dual path-length hybrid, tagless (Driesen & Hölzle).
    Dpath,
    /// Cascade: leaky filter + tagged dual-path core.
    Cascade,
    /// The paper's PPM-hyb.
    PpmHyb,
    /// The paper's PPM-PIB (single history, 1-level).
    PpmPib,
    /// The paper's PPM-hyb with the PIB-biased selector.
    PpmHybBiased,
    /// Unbounded most-recent-target oracle over complete PIB paths of the
    /// given length.
    OraclePib(u8),
    /// ITTAGE-lite, the modern descendant (epilogue; not in the paper).
    IttageLite,
    /// Faithful ITTAGE at the given kilobyte budget (8, 16, or 64). The
    /// storage-bit solver sizes the tables; the entry budget passed to
    /// `build_with_entries` is ignored.
    Ittage64(u8),
}

impl PredictorKind {
    /// The Figure 6 lineup, in the paper's order.
    pub fn figure6() -> Vec<PredictorKind> {
        vec![
            PredictorKind::Btb,
            PredictorKind::Btb2b,
            PredictorKind::GAp,
            PredictorKind::TcPib,
            PredictorKind::Dpath,
            PredictorKind::Cascade,
            PredictorKind::PpmHyb,
        ]
    }

    /// The Figure 7 lineup (the three PPM variants).
    pub fn figure7() -> Vec<PredictorKind> {
        vec![
            PredictorKind::PpmHyb,
            PredictorKind::PpmPib,
            PredictorKind::PpmHybBiased,
        ]
    }

    /// Builds the §5 configuration of this predictor (2K-entry budget).
    pub fn build(self) -> Box<dyn IndirectPredictor> {
        self.build_with_entries(2048)
    }

    /// Builds a budget-scaled variant with approximately `entries` total
    /// table entries (the A1 sweep). The paper's 2K design point is
    /// `entries == 2048`.
    ///
    /// # Panics
    ///
    /// Panics if `entries < 64` (degenerate configurations).
    pub fn build_with_entries(self, entries: usize) -> Box<dyn IndirectPredictor> {
        dispatch_kind!(self, entries, make => Box::new(make()))
    }

    /// Simulates `trace` through a fresh §5-budget (2K-entry) instance of
    /// this predictor: [`PredictorKind::simulate_events`] over the
    /// trace's events.
    pub fn simulate_trace(self, trace: &Trace) -> RunResult {
        self.simulate_events(2048, trace.iter().copied())
    }

    /// [`PredictorKind::simulate_trace`] with a recording probe attached:
    /// returns the (identical) run result plus a snapshot combining the
    /// probe's stream metrics with the predictor's internal telemetry.
    /// The probed loop is monomorphized per concrete predictor, exactly
    /// like the uninstrumented path.
    pub fn simulate_trace_metrics(self, trace: &Trace) -> (RunResult, MetricsSnapshot) {
        let entries = 2048;
        dispatch_kind!(self, entries, make => {
            let mut p = make();
            let mut probe = RecordingProbe::new();
            let result = simulate_stream_probed(&mut p, trace.iter().copied(), &mut probe);
            let mut snapshot = probe.snapshot();
            snapshot.merge(&predictor_snapshot(&p));
            (result, snapshot)
        })
    }

    /// Streams any event iterator through a fresh budget-scaled instance
    /// with approximately `entries` total table entries (the A1 sweep;
    /// the paper's design point is 2048).
    ///
    /// Behaviorally identical to
    /// `simulate(&mut *self.build_with_entries(entries), ..)` — the
    /// constructors are shared arm-for-arm — but the loop is
    /// monomorphized over the concrete predictor, so the
    /// predict/update/observe calls compile to static dispatch, which is
    /// where the hot loop spends its time. Also the full-run path for
    /// workloads too large to materialize (pair with
    /// [`ModelStream::events`](ibp_workloads::ModelStream::events)).
    ///
    /// # Panics
    ///
    /// Panics if `entries` is outside `64..=`[`MAX_BUILD_ENTRIES`].
    pub fn simulate_events<I>(self, entries: usize, events: I) -> RunResult
    where
        I: IntoIterator<Item = BranchEvent>,
    {
        dispatch_kind!(self, entries, make => {
            let mut p = make();
            simulate_stream(&mut p, events)
        })
    }

    /// Builds a batched session stepper for the serving layer: the
    /// per-event loop inside is monomorphized over the concrete
    /// predictor type (these same arms), so a resident stream pays one
    /// virtual call per *batch* instead of three per event. The stepping
    /// protocol is exactly [`simulate`](crate::runner::simulate)'s — see
    /// [`SessionStepper`](crate::stepper::SessionStepper).
    ///
    /// # Panics
    ///
    /// Panics if `entries < 64` (degenerate configurations).
    pub fn session_stepper(self, entries: usize) -> Box<dyn crate::stepper::SessionStepper> {
        dispatch_kind!(self, entries, make => Box::new(crate::stepper::Stepper::new(make())))
    }

    /// [`PredictorKind::session_stepper`] with an explicit table encoding
    /// for the PPM stacks ([`TableEncoding::Compact`] slot-packs Markov
    /// entries at ~1/3 the bytes; behaviourally identical). Kinds without
    /// Markov tables ignore the encoding.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is outside `64..=`[`MAX_BUILD_ENTRIES`].
    pub fn session_stepper_with(
        self,
        entries: usize,
        encoding: TableEncoding,
    ) -> Box<dyn crate::stepper::SessionStepper> {
        dispatch_kind!(self, entries, encoding, make => {
            Box::new(crate::stepper::Stepper::new(make()))
        })
    }

    /// The lineup the serving layer exercises end to end: every kind,
    /// with the oracle at the §5 depth of 8.
    pub fn serve_lineup() -> Vec<PredictorKind> {
        vec![
            PredictorKind::Btb,
            PredictorKind::Btb2b,
            PredictorKind::GAp,
            PredictorKind::TcPib,
            PredictorKind::TcPb,
            PredictorKind::Dpath,
            PredictorKind::Cascade,
            PredictorKind::PpmHyb,
            PredictorKind::PpmPib,
            PredictorKind::PpmHybBiased,
            PredictorKind::OraclePib(8),
            PredictorKind::IttageLite,
            PredictorKind::Ittage64(8),
            PredictorKind::Ittage64(16),
            PredictorKind::Ittage64(64),
        ]
    }

    /// The stable single-byte code identifying this kind on the
    /// `ibp-serve` wire (the handshake's predictor field). Codes `0..=13`
    /// name the fixed kinds; `OraclePib(depth)` sets the high bit and
    /// carries the depth in the low seven bits (depths above 127 are
    /// masked — far past any meaningful path length).
    ///
    /// Round-trips through [`PredictorKind::from_wire_code`]; the codes
    /// are part of the wire protocol and must never be renumbered.
    pub fn wire_code(self) -> u8 {
        match self {
            PredictorKind::Btb => 0,
            PredictorKind::Btb2b => 1,
            PredictorKind::GAp => 2,
            PredictorKind::TcPib => 3,
            PredictorKind::TcPb => 4,
            PredictorKind::Dpath => 5,
            PredictorKind::Cascade => 6,
            PredictorKind::PpmHyb => 7,
            PredictorKind::PpmPib => 8,
            PredictorKind::PpmHybBiased => 9,
            PredictorKind::IttageLite => 10,
            // The three preset budgets get fixed codes; any other budget
            // collapses to the nearest preset at or above it (the wire
            // only speaks presets).
            PredictorKind::Ittage64(kb) if kb <= 8 => 11,
            PredictorKind::Ittage64(kb) if kb <= 16 => 12,
            PredictorKind::Ittage64(_) => 13,
            PredictorKind::OraclePib(depth) => 0x80 | (depth & 0x7F),
        }
    }

    /// Decodes a wire code; `None` for unassigned codes (including an
    /// oracle depth of zero, which is degenerate).
    pub fn from_wire_code(code: u8) -> Option<PredictorKind> {
        match code {
            0 => Some(PredictorKind::Btb),
            1 => Some(PredictorKind::Btb2b),
            2 => Some(PredictorKind::GAp),
            3 => Some(PredictorKind::TcPib),
            4 => Some(PredictorKind::TcPb),
            5 => Some(PredictorKind::Dpath),
            6 => Some(PredictorKind::Cascade),
            7 => Some(PredictorKind::PpmHyb),
            8 => Some(PredictorKind::PpmPib),
            9 => Some(PredictorKind::PpmHybBiased),
            10 => Some(PredictorKind::IttageLite),
            11 => Some(PredictorKind::Ittage64(8)),
            12 => Some(PredictorKind::Ittage64(16)),
            13 => Some(PredictorKind::Ittage64(64)),
            c if c & 0x80 != 0 && c & 0x7F != 0 => Some(PredictorKind::OraclePib(c & 0x7F)),
            _ => None,
        }
    }

    /// The lowercase command-line token for this kind (what `runpredict`
    /// accepts). `OraclePib(d)` renders as `oracle-pib:d`.
    pub fn cli_name(self) -> String {
        match self {
            PredictorKind::Btb => "btb".to_string(),
            PredictorKind::Btb2b => "btb2b".to_string(),
            PredictorKind::GAp => "gap".to_string(),
            PredictorKind::TcPib => "tc-pib".to_string(),
            PredictorKind::TcPb => "tc-pb".to_string(),
            PredictorKind::Dpath => "dpath".to_string(),
            PredictorKind::Cascade => "cascade".to_string(),
            PredictorKind::PpmHyb => "ppm-hyb".to_string(),
            PredictorKind::PpmPib => "ppm-pib".to_string(),
            PredictorKind::PpmHybBiased => "ppm-hyb-biased".to_string(),
            PredictorKind::IttageLite => "ittage".to_string(),
            PredictorKind::Ittage64(kb) => format!("ittage64-{kb}k"),
            PredictorKind::OraclePib(depth) => format!("oracle-pib:{depth}"),
        }
    }

    /// Parses a command-line token produced by [`PredictorKind::cli_name`]
    /// (case-sensitive, lowercase). `None` for anything unrecognized.
    pub fn from_cli_name(name: &str) -> Option<PredictorKind> {
        if let Some(depth) = name.strip_prefix("oracle-pib:") {
            let depth: u8 = depth.parse().ok()?;
            return if (1..=0x7F).contains(&depth) {
                Some(PredictorKind::OraclePib(depth))
            } else {
                None
            };
        }
        match name {
            "btb" => Some(PredictorKind::Btb),
            "btb2b" => Some(PredictorKind::Btb2b),
            "gap" => Some(PredictorKind::GAp),
            "tc-pib" => Some(PredictorKind::TcPib),
            "tc-pb" => Some(PredictorKind::TcPb),
            "dpath" => Some(PredictorKind::Dpath),
            "cascade" => Some(PredictorKind::Cascade),
            "ppm-hyb" => Some(PredictorKind::PpmHyb),
            "ppm-pib" => Some(PredictorKind::PpmPib),
            "ppm-hyb-biased" => Some(PredictorKind::PpmHybBiased),
            "ittage" => Some(PredictorKind::IttageLite),
            "ittage64-8k" => Some(PredictorKind::Ittage64(8)),
            "ittage64-16k" => Some(PredictorKind::Ittage64(16)),
            // Bare "ittage64" means the flagship configuration.
            "ittage64" | "ittage64-64k" => Some(PredictorKind::Ittage64(64)),
            _ => None,
        }
    }

    /// The largest entry budget whose realized storage cost fits
    /// `budget_bits` — the equal-bits counterpart of
    /// [`PredictorKind::build_with_entries`]'s equal-entries sizing.
    ///
    /// Resolved by bisecting [`ibp_hw::solve_entries`] over the kind's
    /// own [`IndirectPredictor::cost`], so the answer reflects the real
    /// configuration (tag widths, selector tables, history registers)
    /// rather than a per-entry approximation. `None` when even the
    /// 64-entry floor overshoots the budget.
    ///
    /// `Ittage64` sizes itself from its declared kilobyte budget and
    /// ignores the entry knob, so it fits iff its own budget fits.
    /// `OraclePib` is idealized (its cost grows with the trace) and
    /// reports a build-time cost of zero, so it fits any budget.
    pub fn entries_for_budget(self, budget_bits: u64) -> Option<usize> {
        if let PredictorKind::Ittage64(kb) = self {
            return (u64::from(kb) * 8 * 1024 <= budget_bits).then_some(64);
        }
        // Probe at multiples of 64 so every constructor invariant holds
        // (set-associative components need ways to divide entries). The
        // quantized cost stays monotone, so the bisection is still valid;
        // the answer is then snapped to the same grid.
        ibp_hw::solve_entries(budget_bits, 64, MAX_BUILD_ENTRIES as u64, |n| {
            self.build_with_entries((n - n % 64) as usize).cost().bits()
        })
        .map(|n| (n - n % 64) as usize)
    }

    fn ppm_stack(entries: usize, encoding: TableEncoding) -> StackConfig {
        let base = if entries == 2048 {
            StackConfig::paper()
        } else {
            StackConfig::with_total_entries(entries)
        };
        StackConfig { encoding, ..base }
    }

    /// The §5 display name (matches what `build().name()` reports).
    pub fn label(self) -> String {
        self.build().name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::simulate;

    #[test]
    fn figure_lineups() {
        assert_eq!(PredictorKind::figure6().len(), 7);
        assert_eq!(PredictorKind::figure7().len(), 3);
    }

    #[test]
    fn all_kinds_build_and_have_names() {
        let kinds = [
            PredictorKind::Btb,
            PredictorKind::Btb2b,
            PredictorKind::GAp,
            PredictorKind::TcPib,
            PredictorKind::TcPb,
            PredictorKind::Dpath,
            PredictorKind::Cascade,
            PredictorKind::PpmHyb,
            PredictorKind::PpmPib,
            PredictorKind::PpmHybBiased,
            PredictorKind::OraclePib(8),
            PredictorKind::IttageLite,
            PredictorKind::Ittage64(8),
            PredictorKind::Ittage64(16),
            PredictorKind::Ittage64(64),
        ];
        for kind in kinds {
            let p = kind.build();
            assert!(!p.name().is_empty());
        }
    }

    #[test]
    fn ittage_budget_scales() {
        assert_eq!(
            PredictorKind::IttageLite.build().cost().entries(),
            2048
        );
        let small = PredictorKind::IttageLite
            .build_with_entries(512)
            .cost()
            .entries();
        assert!((400..=640).contains(&small), "small={small}");
    }

    #[test]
    fn paper_budget_is_respected() {
        // All table-based predictors sit at ~2K entries (the paper allows
        // "approximately the same hardware budget"; Cascade adds its
        // 128-entry filter on top, as in the paper).
        for kind in PredictorKind::figure6() {
            let cost = kind.build().cost();
            assert!(
                (2046..=2176).contains(&cost.entries()),
                "{:?} has {} entries",
                kind,
                cost.entries()
            );
        }
    }

    #[test]
    fn scaled_budgets_scale() {
        for kind in [
            PredictorKind::Btb,
            PredictorKind::GAp,
            PredictorKind::TcPib,
            PredictorKind::Dpath,
            PredictorKind::PpmHyb,
        ] {
            let small = kind.build_with_entries(512).cost().entries();
            let big = kind.build_with_entries(4096).cost().entries();
            assert!(small < big, "{kind:?}: {small} !< {big}");
            assert!((400..=640).contains(&small), "{kind:?} small={small}");
        }
    }

    #[test]
    fn wire_codes_round_trip_and_are_pinned() {
        for kind in PredictorKind::serve_lineup() {
            assert_eq!(
                PredictorKind::from_wire_code(kind.wire_code()),
                Some(kind),
                "{kind:?}"
            );
        }
        for depth in 1..=127u8 {
            let kind = PredictorKind::OraclePib(depth);
            assert_eq!(PredictorKind::from_wire_code(kind.wire_code()), Some(kind));
        }
        // Pinned assignments: these are on the wire and must not move.
        assert_eq!(PredictorKind::Btb.wire_code(), 0);
        assert_eq!(PredictorKind::PpmHyb.wire_code(), 7);
        assert_eq!(PredictorKind::IttageLite.wire_code(), 10);
        assert_eq!(PredictorKind::Ittage64(8).wire_code(), 11);
        assert_eq!(PredictorKind::Ittage64(16).wire_code(), 12);
        assert_eq!(PredictorKind::Ittage64(64).wire_code(), 13);
        assert_eq!(PredictorKind::OraclePib(8).wire_code(), 0x88);
        // Unassigned codes decode to nothing.
        for bad in [14u8, 42, 0x7F, 0x80] {
            assert_eq!(PredictorKind::from_wire_code(bad), None, "code {bad:#x}");
        }
    }

    #[test]
    fn cli_names_round_trip() {
        for kind in PredictorKind::serve_lineup() {
            assert_eq!(
                PredictorKind::from_cli_name(&kind.cli_name()),
                Some(kind),
                "{kind:?}"
            );
        }
        assert_eq!(
            PredictorKind::from_cli_name("oracle-pib:4"),
            Some(PredictorKind::OraclePib(4))
        );
        for bad in ["", "BTB", "ppm", "oracle-pib:0", "oracle-pib:200", "oracle-pib:x"] {
            assert_eq!(PredictorKind::from_cli_name(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn serve_lineup_covers_every_kind_once() {
        let lineup = PredictorKind::serve_lineup();
        assert_eq!(lineup.len(), 15);
        let codes: std::collections::BTreeSet<u8> =
            lineup.iter().map(|k| k.wire_code()).collect();
        assert_eq!(codes.len(), lineup.len(), "wire codes must be unique");
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(PredictorKind::PpmHyb.label(), "PPM-hyb");
        assert_eq!(PredictorKind::TcPib.label(), "TC-PIB");
        assert_eq!(PredictorKind::Cascade.label(), "Cascade");
    }

    #[test]
    #[should_panic(expected = "budget too small")]
    fn tiny_budget_panics() {
        let _ = PredictorKind::Btb.build_with_entries(32);
    }

    #[test]
    #[should_panic(expected = "budget too small")]
    fn tiny_budget_panics_when_simulating() {
        let _ = PredictorKind::Btb.simulate_events(32, Trace::new().iter().copied());
    }

    #[test]
    fn metrics_simulation_matches_uninstrumented() {
        let trace = ibp_workloads::paper_suite()[0].generate_scaled(0.02);
        for kind in PredictorKind::serve_lineup() {
            let dynamic = simulate(&mut *kind.build(), &trace);
            let (probed, snap) = kind.simulate_trace_metrics(&trace);
            assert_eq!(dynamic, probed, "{kind:?}: probe changed the result");
            assert_eq!(snap.counter("sim_predictions"), dynamic.predictions(), "{kind:?}");
            assert_eq!(
                snap.counter("sim_mispredictions"),
                dynamic.mispredictions(),
                "{kind:?}"
            );
        }
    }

    #[test]
    fn monomorphized_simulation_matches_dyn_dispatch() {
        let trace = ibp_workloads::paper_suite()[0].generate_scaled(0.05);
        for kind in PredictorKind::serve_lineup() {
            for entries in [512, 2048] {
                let dynamic = simulate(&mut *kind.build_with_entries(entries), &trace);
                let mono = kind.simulate_events(entries, trace.iter().copied());
                assert_eq!(dynamic, mono, "{kind:?} @ {entries}");
                if entries == 2048 {
                    assert_eq!(kind.simulate_trace(&trace), dynamic, "{kind:?}");
                }
            }
        }
    }
}
