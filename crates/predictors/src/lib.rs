//! Indirect-branch predictor baselines.
//!
//! The paper (§5) compares its PPM predictor against every indirect-branch
//! predictor published up to 1998, all re-implemented at the same 2K-entry
//! hardware budget. This crate contains those baselines, built from the
//! primitives in [`ibp_hw`]:
//!
//! * [`btb::Btb`] — Lee & Smith's branch target buffer (most-recent target);
//! * [`btb::Btb2b`] — Calder & Grunwald's BTB with 2-bit replacement
//!   hysteresis;
//! * [`gap::GApPredictor`] — Driesen & Hölzle's two-level GAp scheme;
//! * [`target_cache::TargetCache`] — Chang, Hao & Patt's Target Cache with
//!   selectable history group (PB / PIB / MT-only / calls+returns);
//! * [`dual_path::DualPath`] — Driesen & Hölzle's dual path-length hybrid;
//! * [`cascade::Cascade`] — their cascaded predictor (leaky filter in front
//!   of a tagged dual-path core);
//! * [`ras::ReturnAddressStack`] — Kaeli & Emma's call/return stack, which
//!   is why returns are excluded from indirect-prediction accounting;
//! * [`oracle`] — idealized predictors (complete path history, frequency
//!   voting) used for limit studies like the paper's photon analysis;
//! * [`ittage::Ittage`] / [`ittage64::Ittage64`] — the TAGE-family
//!   epilogue: a compact ITTAGE-lite, and the faithful ITTAGE sized to a
//!   declared storage-bit budget (8/16/64KB presets);
//! * [`conditional`] — bimodal/gshare conditional-branch substrate used by
//!   workload validation.
//!
//! The common contract is [`IndirectPredictor`]; the simulator in `ibp-sim`
//! drives any implementation through it. Each predictor declares its
//! state once with [`declare_state!`], and [`PredictorState`] derives
//! save, load, seal, resident bytes and the storage report from that
//! declaration.

pub mod btb;
pub mod cascade;
pub mod conditional;
pub mod dual_path;
pub mod entry;
pub mod gap;
pub mod history_group;
pub mod ittage;
pub mod ittage64;
pub mod oracle;
pub mod ras;
pub mod target_cache;
pub mod traits;

pub use btb::{Btb, Btb2b};
pub use cascade::{Cascade, CascadeConfig, LeakyFilter};
pub use dual_path::{DualPath, DualPathConfig};
pub use gap::{GApConfig, GApPredictor};
pub use history_group::HistoryGroup;
pub use ittage::{Ittage, IttageConfig};
pub use ittage64::{Ittage64, Ittage64Config};
pub use oracle::{FrequencyOracle, PathOracle};
pub use ras::ReturnAddressStack;
pub use target_cache::{TargetCache, TargetCacheConfig};
pub use traits::{IndirectPredictor, PredictorState};

#[doc(hidden)]
pub use ibp_hw as __hw;
