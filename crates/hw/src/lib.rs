//! Hardware primitives for branch-predictor modelling.
//!
//! This crate provides the small, reusable building blocks out of which the
//! predictors in `ibp-predictors` and the PPM predictor in `ibp-ppm`
//! (the reproduction of Kalamatianos & Kaeli, *Predicting Indirect Branches
//! via Data Compression*, MICRO 1998) are assembled:
//!
//! * [`counter`] — up/down saturating counters of arbitrary width, the
//!   universal hysteresis element of dynamic predictors;
//! * [`history`] — path history registers (shift registers of partial branch
//!   targets), the first level of two-level predictors;
//! * [`hash`] — the indexing functions used by the paper and its baselines:
//!   gshare, Select-Fold-Shift-XOR (SFSX), Select-Fold-Shift-XOR-Select
//!   (SFSXS) and reverse interleaving;
//! * [`folded`] — the TAGE-style incrementally folded history (used by
//!   the ITTAGE epilogue in `ibp-predictors`);
//! * [`table`] — tagless direct-mapped and tagged set-associative prediction
//!   tables with true-LRU replacement;
//! * [`budget`] — hardware cost accounting (entries and bits) so that
//!   predictors can be compared at a fixed budget, as the paper does at its
//!   2K-entry design point;
//! * [`bitspec`] — structured storage accounting: per-component
//!   [`bitspec::StorageReport`] breakdowns (tags, targets, counters, useful
//!   bits, history, metadata) audited against allocated state, and the
//!   [`bitspec::solve_entries`] budget solver that sizes configurations to
//!   a declared bit budget instead of an entry count;
//! * [`persist`] — the session-state codec (LEB128 varint sink/source),
//!   the [`persist::Persist`] component contract, the visitors that walk
//!   a predictor's declared components (save, load, seal, resident bytes,
//!   storage rows), and the [`persist::SparseDelta`] copy-on-write
//!   overlay behind sealed, multi-tenant shared tables.
//!
//! # Example
//!
//! ```
//! use ibp_hw::counter::Saturating2Bit;
//!
//! let mut confidence = Saturating2Bit::new(0);
//! confidence.increment();
//! confidence.increment();
//! assert!(confidence.is_high_half());
//! ```

pub mod bitspec;
pub mod budget;
pub mod counter;
pub mod folded;
pub mod hash;
pub mod history;
pub mod persist;
pub mod table;

pub use bitspec::{solve_entries, ComponentClass, StorageComponent, StorageReport};
pub use budget::HardwareCost;
pub use counter::{Saturating2Bit, SaturatingCounter};
pub use folded::FoldedHistory;
pub use hash::{fold_xor, gshare, ReverseInterleave, Sfsxs, SfsxsRegister};
pub use history::PathHistory;
pub use persist::{
    Guard, LoadVisitor, Part, Persist, PersistElem, PersistError, Row, SparseDelta, StateSink,
    StateSource, StateVisitor, StateVisitorMut,
};
pub use table::{DirectMapped, FastMod, SetAssociative};
