//! Trace-driven simulation engine and experiment runner.
//!
//! This crate drives branch traces through any `IndirectPredictor`
//! implementation using the paper's methodology:
//!
//! * only **multiple-target indirect `jmp`/`jsr`** branches are predicted
//!   and counted (returns go to a RAS, single-target branches are
//!   link-time-resolvable — §5);
//! * every branch event is *observed* by the predictor so path histories
//!   include the streams each scheme selects;
//! * predictors are compared at the same hardware budget.
//!
//! Modules:
//!
//! * [`runner`] — the per-trace simulation loop and its results;
//! * [`zoo`] — a name-addressable factory over every predictor in the
//!   workspace, scalable by table budget (for the sweep ablations);
//! * [`compare`] — grids of (predictor × benchmark run), i.e. Figures 6
//!   and 7;
//! * [`metrics`] — instrumented grid evaluation (recording probes +
//!   predictor telemetry) and the versioned metrics JSON schema;
//! * [`report`] — plain-text table rendering and the JSON report codec
//!   for the experiment binaries;
//! * [`json`] — the hand-rolled JSON value type behind [`report`] (the
//!   workspace builds offline with no serde).

pub mod compare;
pub mod delay;
pub mod json;
pub mod metrics;
pub mod report;
pub mod runner;
pub mod simpoint;
pub mod snapshot;
pub mod stepper;
pub mod zoo;

pub use compare::{compare_grid, compare_grid_at_bits, compare_grid_with, GridResult};
pub use ibp_ppm::TableEncoding;
pub use ibp_exec::Executor;
pub use delay::DelayedPredictor;
pub use json::{Json, JsonError};
pub use metrics::{
    metrics_grid, metrics_grid_with, metrics_to_json, predictor_snapshot, MetricsCell,
    MetricsGrid, METRICS_SCHEMA_VERSION,
};
pub use runner::{ras_accuracy, simulate, simulate_stream, simulate_stream_probed, RunResult};
pub use simpoint::{
    cluster_signatures, simpoint_streamed_chained, simulate_window, stream_prep, warm_predictor,
    PhaseCluster, Phases, SignatureBuilder, SignatureSet, SimPointConfig, SimPointRun, StreamPrep,
    WeightedEstimate, WindowSignature, SIMPOINT_SEED,
};
pub use snapshot::{restore_session, snapshot_header, snapshot_session, BaseTier, SnapshotHeader};
pub use stepper::{PredictionOutcome, SessionStepper, Stepper};
pub use zoo::{PredictorKind, MAX_BUILD_ENTRIES};
