//! The common predictor contract, and the state walks derived from each
//! predictor's declaration of its state.

use ibp_hw::bitspec::StorageReport;
use ibp_hw::{
    HardwareCost, LoadVisitor, Part, Persist, PersistError, StateSink, StateSource, StateVisitor,
    StateVisitorMut,
};
use ibp_isa::Addr;
use ibp_trace::BranchEvent;

/// A dynamic predictor for multiple-target indirect branches.
///
/// The simulator drives implementations through a three-phase protocol per
/// trace event, mirroring a pipeline:
///
/// 1. **fetch** — for an MT indirect branch, [`predict`](Self::predict) is
///    called with the branch PC and returns the predicted target (or `None`
///    when the predictor has nothing, which counts as a misprediction
///    unless the actual target happens to equal a null prediction — it
///    never does);
/// 2. **resolve** — [`update`](Self::update) is called with the actual
///    target of that same branch. Implementations may cache lookup state
///    between `predict` and `update`; the simulator guarantees strict
///    pairing with no interleaving;
/// 3. **commit** — [`observe`](Self::observe) is called for *every* branch
///    event (conditional, direct, ST, returns, and the MT indirect itself,
///    after `update`). Path history registers are maintained here, so the
///    state used by `update` is the state that `predict` saw.
///
/// Implementations must be deterministic: the same call sequence produces
/// the same predictions.
///
/// A predictor declares its state once, with [`declare_state!`]: each
/// table, register and counter with its name, bitspec class and width.
/// [`PredictorState`] derives every state walk from that declaration, so
/// no walk can miss a component another one covers. [`cost`](Self::cost)
/// stays derived from the configuration, and the storage report audits
/// it independently.
///
/// [`declare_state!`]: crate::declare_state
pub trait IndirectPredictor {
    /// A short human-readable name, e.g. `"BTB2b"` or `"PPM-hyb"`.
    fn name(&self) -> String;

    /// Predicts the target of the MT indirect branch at `pc`.
    ///
    /// Returns `None` when no prediction can be made (counted as a
    /// misprediction by the simulator, matching the paper's accounting for
    /// cold structures).
    fn predict(&mut self, pc: Addr) -> Option<Addr>;

    /// Learns the resolved target of the MT indirect branch at `pc` that
    /// was just predicted.
    fn update(&mut self, pc: Addr, actual: Addr);

    /// Observes a committed branch event of any class, for path-history
    /// maintenance. Called after `update` for predicted branches.
    fn observe(&mut self, event: &BranchEvent);

    /// The hardware cost this configuration declares.
    fn cost(&self) -> HardwareCost;

    /// Returns the predictor to power-on: a rebuild from its own
    /// configuration.
    fn reset(&mut self);

    /// Streams this predictor's internal telemetry — occupancy, eviction,
    /// per-order attribution, selector dynamics — as named `u64` values.
    ///
    /// The sink-closure shape keeps the method object-safe and keeps this
    /// crate free of any metrics dependency: callers (the sim layer) own
    /// the aggregation. Implementations must emit a deterministic name
    /// sequence with stable names; values are point-in-time reads and the
    /// call must not mutate predictor state. Default: no telemetry.
    fn report_metrics(&self, sink: &mut dyn FnMut(&str, u64)) {
        let _ = sink;
    }

    /// Visits every declared component, in blob order. Default: no state.
    fn visit_state(&self, v: &mut dyn StateVisitor) {
        let _ = v;
    }

    /// The same visit by mutable reference. Default: no state.
    fn visit_state_mut(&mut self, v: &mut dyn StateVisitorMut) {
        let _ = v;
    }
}

impl<P: IndirectPredictor + ?Sized> IndirectPredictor for Box<P> {
    fn name(&self) -> String {
        (**self).name()
    }

    fn predict(&mut self, pc: Addr) -> Option<Addr> {
        (**self).predict(pc)
    }

    fn update(&mut self, pc: Addr, actual: Addr) {
        (**self).update(pc, actual)
    }

    fn observe(&mut self, event: &BranchEvent) {
        (**self).observe(event)
    }

    fn cost(&self) -> HardwareCost {
        (**self).cost()
    }

    fn reset(&mut self) {
        (**self).reset()
    }

    fn report_metrics(&self, sink: &mut dyn FnMut(&str, u64)) {
        (**self).report_metrics(sink)
    }

    fn visit_state(&self, v: &mut dyn StateVisitor) {
        (**self).visit_state(v)
    }

    fn visit_state_mut(&mut self, v: &mut dyn StateVisitorMut) {
        (**self).visit_state_mut(v)
    }
}

/// The state walks every predictor derives from its declared state. The
/// blanket impl is the only one, so no predictor walks its state by hand.
pub trait PredictorState {
    /// Serializes the dynamic state (tables, histories, telemetry); a
    /// sealed predictor writes only its deltas. Call at an event boundary:
    /// in-flight predict→update lookup state is not captured. Equal
    /// states yield equal bytes.
    fn save_state(&self, out: &mut StateSink<'_>);

    /// Restores a saved state into an identically-configured instance
    /// (for delta blobs, one sealed from the same base). Geometry
    /// mismatches fail with [`PersistError::Mismatch`]; on any error the
    /// state is unspecified.
    fn load_state(&mut self, src: &mut StateSource<'_>) -> Result<(), PersistError>;

    /// Freezes the tables into `Arc`-shared base tiers with copy-on-write
    /// overlays, so clones pay only for divergence. Predictions are
    /// unaffected (the sim layer's differential gate holds this).
    fn seal(&mut self);

    /// Heap bytes this instance pays for: full tables when private, only
    /// the copy-on-write deltas once sealed.
    fn resident_bytes(&self) -> usize;

    /// Every declared component's storage rows, counted from its live
    /// allocation; `bitreport` gates it against [`IndirectPredictor::cost`].
    fn report_storage(&self) -> StorageReport;
}

impl<P: IndirectPredictor + ?Sized> PredictorState for P {
    fn save_state(&self, out: &mut StateSink<'_>) {
        self.visit_state(&mut |_: Part<'_>, c: &dyn Persist| c.save_state(out));
    }

    fn load_state(&mut self, src: &mut StateSource<'_>) -> Result<(), PersistError> {
        let mut v = LoadVisitor::new(src);
        self.visit_state_mut(&mut v);
        v.finish()
    }

    fn seal(&mut self) {
        self.visit_state_mut(&mut |_: Part<'_>, c: &mut dyn Persist| c.seal());
    }

    fn resident_bytes(&self) -> usize {
        let mut bytes = 0;
        self.visit_state(&mut |_: Part<'_>, c: &dyn Persist| bytes += c.resident_bytes());
        bytes
    }

    fn report_storage(&self) -> StorageReport {
        let mut r = StorageReport::new();
        self.visit_state(&mut |part: Part<'_>, c: &dyn Persist| c.report_rows(part, &mut r));
        r
    }
}

/// Declares a predictor's state once, inside its `impl IndirectPredictor`
/// block, and expands to both [`IndirectPredictor::visit_state`] and
/// [`IndirectPredictor::visit_state_mut`].
///
/// The items, in blob order:
///
/// * `"name"(index) [Class(width) suffix, ...] => place;` — a component
///   (any [`ibp_hw::Persist`]) with its storage rows. The index and the
///   row suffixes are optional; a zero width leaves the row out.
/// * `guard value, "what";` — a configuration value written to the blob
///   and required to match on load.
/// * `check condition, "what";` — a cross-field invariant of the
///   components above it; a loaded blob that breaks it is corrupt.
/// * `nested place;` — another predictor's declared state, inline.
/// * `for i in (range) { items }` — a family of components.
///
/// GAp's declaration, for instance:
///
/// ```text
/// declare_state! { self;
///     guard self.banks.len() as u64, "GAp bank count";
///     for b in (0..self.banks.len()) {
///         "pht"(b) [Target(64) targets, Counter(2) conf, Metadata(1) valid] => self.banks[b];
///     }
///     "phr" [History(self.phr.total_bits() as u64)] => self.phr;
/// }
/// ```
#[macro_export]
macro_rules! declare_state {
    ($s:ident; $($items:tt)*) => {
        fn visit_state(&$s, v: &mut dyn $crate::__hw::StateVisitor) {
            $crate::__state_items!(shared v; $($items)*);
        }

        fn visit_state_mut(&mut $s, v: &mut dyn $crate::__hw::StateVisitorMut) {
            $crate::__state_items!(mutable v; $($items)*);
        }
    };
}

/// The item muncher behind [`declare_state!`]: one rule per item kind
/// and visit mode.
#[doc(hidden)]
#[macro_export]
macro_rules! __state_items {
    ($mode:ident $v:ident;) => {};
    ($mode:ident $v:ident; guard $value:expr, $what:literal; $($rest:tt)*) => {
        $crate::__state_part!($mode $v, $crate::__hw::Part::BARE, $crate::__hw::Guard($value, $what));
        $crate::__state_items!($mode $v; $($rest)*);
    };
    (shared $v:ident; check $holds:expr, $what:literal; $($rest:tt)*) => {
        $crate::__state_items!(shared $v; $($rest)*);
    };
    (mutable $v:ident; check $holds:expr, $what:literal; $($rest:tt)*) => {
        $v.reject_unless($holds, $what);
        $crate::__state_items!(mutable $v; $($rest)*);
    };
    (shared $v:ident; nested $place:expr; $($rest:tt)*) => {
        $crate::IndirectPredictor::visit_state(&$place, $v);
        $crate::__state_items!(shared $v; $($rest)*);
    };
    (mutable $v:ident; nested $place:expr; $($rest:tt)*) => {
        $crate::IndirectPredictor::visit_state_mut(&mut $place, $v);
        $crate::__state_items!(mutable $v; $($rest)*);
    };
    ($mode:ident $v:ident; for $i:ident in ($($range:tt)*) { $($body:tt)* } $($rest:tt)*) => {
        for $i in $($range)* {
            $crate::__state_items!($mode $v; $($body)*);
        }
        $crate::__state_items!($mode $v; $($rest)*);
    };
    ($mode:ident $v:ident;
        $name:literal $(($index:expr))? [$($class:ident($width:expr) $($suffix:ident)?),* $(,)?]
        => $place:expr; $($rest:tt)*
    ) => {
        $crate::__state_part!($mode $v, $crate::__hw::Part {
            name: $name,
            index: None $(.or(Some($index)))?,
            rows: &[$($crate::__hw::Row {
                class: $crate::__hw::ComponentClass::$class,
                width: $width,
                suffix: concat!("" $(, stringify!($suffix))?),
            }),*],
        }, $place);
        $crate::__state_items!($mode $v; $($rest)*);
    };
}

/// One component visit of [`declare_state!`], by shared or mutable
/// reference.
#[doc(hidden)]
#[macro_export]
macro_rules! __state_part {
    (shared $v:ident, $part:expr, $place:expr) => {
        $v.visit_part($part, &$place)
    };
    (mutable $v:ident, $part:expr, $place:expr) => {
        $v.visit_part_mut($part, &mut $place)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial last-target predictor used to check object safety and the
    /// boxed blanket impl.
    #[derive(Default)]
    struct LastTarget {
        last: Option<(Addr, Addr)>,
    }

    impl IndirectPredictor for LastTarget {
        fn name(&self) -> String {
            "last-target".into()
        }

        fn predict(&mut self, pc: Addr) -> Option<Addr> {
            self.last.filter(|(p, _)| *p == pc).map(|(_, t)| t)
        }

        fn update(&mut self, pc: Addr, actual: Addr) {
            self.last = Some((pc, actual));
        }

        fn observe(&mut self, _event: &BranchEvent) {}

        fn cost(&self) -> HardwareCost {
            HardwareCost::table(1, 128)
        }

        fn reset(&mut self) {
            *self = Self::default();
        }
    }

    /// A one-table predictor with a telemetry counter, declared with
    /// every item kind.
    struct Declared {
        table: ibp_hw::DirectMapped<u64>,
        hits: u64,
    }

    impl IndirectPredictor for Declared {
        fn name(&self) -> String {
            "declared".into()
        }

        fn predict(&mut self, pc: Addr) -> Option<Addr> {
            self.table.get(pc.raw()).map(|&t| Addr::new(t))
        }

        fn update(&mut self, pc: Addr, actual: Addr) {
            self.hits += u64::from(self.predict(pc) == Some(actual));
            self.table.insert(pc.raw(), actual.raw());
        }

        fn observe(&mut self, _event: &BranchEvent) {}

        fn cost(&self) -> HardwareCost {
            HardwareCost::table(self.table.len() as u64, 65)
        }

        fn reset(&mut self) {
            *self = Declared {
                table: ibp_hw::DirectMapped::new(self.table.len()),
                hits: 0,
            };
        }

        declare_state! { self;
            guard self.table.len() as u64, "table length";
            for i in (0..1) {
                "last"(i) [Target(64) targets, Metadata(1) valid, Tag(0) tags] => self.table;
            }
            "hits" [] => self.hits;
            check self.hits <= self.table.len() as u64 * 1000, "hits out of range";
        }
    }

    fn declared(len: usize) -> Declared {
        Declared {
            table: ibp_hw::DirectMapped::new(len),
            hits: 0,
        }
    }

    #[test]
    fn declared_state_drives_every_walk() {
        let mut p = declared(16);
        for _ in 0..3 {
            p.update(Addr::new(0x40), Addr::new(0x900));
        }
        let report = p.report_storage();
        assert_eq!(report.total_bits(), p.cost().bits());
        let names: Vec<&str> = report
            .components()
            .iter()
            .map(|c| c.name.as_str())
            .collect();
        assert_eq!(
            names,
            ["last0.targets", "last0.valid"],
            "zero-width rows are left out"
        );
        assert_eq!(p.resident_bytes(), p.table.resident_bytes());

        let mut blob = Vec::new();
        p.save_state(&mut StateSink::new(&mut blob));
        let mut q = declared(16);
        q.load_state(&mut StateSource::new(&blob)).unwrap();
        assert_eq!(
            (q.hits, q.predict(Addr::new(0x40))),
            (2, Some(Addr::new(0x900)))
        );
        assert_eq!(
            declared(8).load_state(&mut StateSource::new(&blob)),
            Err(PersistError::Mismatch("table length"))
        );

        p.seal();
        assert!(p.table.is_sealed());
        p.hits = u64::MAX;
        let mut blob = Vec::new();
        p.save_state(&mut StateSink::new(&mut blob));
        let mut sealed = declared(16);
        sealed.seal();
        assert_eq!(
            sealed.load_state(&mut StateSource::new(&blob)),
            Err(PersistError::Corrupt("hits out of range"))
        );
    }

    #[test]
    fn trait_is_object_safe_and_boxable() {
        let mut p: Box<dyn IndirectPredictor> = Box::new(LastTarget::default());
        assert_eq!(p.predict(Addr::new(0x10)), None);
        p.update(Addr::new(0x10), Addr::new(0x99));
        assert_eq!(p.predict(Addr::new(0x10)), Some(Addr::new(0x99)));
        assert_eq!(p.name(), "last-target");
        assert_eq!(p.cost().entries(), 1);
        p.reset();
        assert_eq!(p.predict(Addr::new(0x10)), None);
    }
}
