//! Whole-predictor reference models for PPM-hyb and PPM-PIB.
//!
//! The optimized predictors cache derived state on the hot path: folded
//! history slots, an incrementally advanced SFSXS signature, lazily
//! computed per-order indices and `FastMod` slot reduction. The model in
//! this file caches none of it. It
//!
//! * keeps each path history register as a plain ring of path bits;
//! * rebuilds the SFSXS signature from scratch with
//!   [`Sfsxs::signature`] on every predict;
//! * reduces every index with `%`;
//! * stores each order's table as `Vec<Option<(target, counter)>>`;
//! * keeps the BIU's selection counters in a `HashMap`;
//! * spells out both of Figure 5's state machines as transition tables.
//!
//! Every prediction of `PpmHybrid` (normal and PIB-biased) and `PpmPib`
//! is compared against the model's, at the paper's configuration and at
//! `with_total_entries(1023)` (tables that are not powers of two), on
//! ibp-testkit streams (`IBP_TEST_SEED` explores further) and on all
//! fifteen suite runs at scale 0.05. At the end of every stream the
//! predictor's whole telemetry report must equal the model's too.

use ibp_hw::hash::Sfsxs;
use ibp_hw::PathHistory;
use ibp_isa::Addr;
use ibp_ppm::{PpmHybrid, PpmPib, SelectorKind, StackConfig};
use ibp_predictors::IndirectPredictor;
use ibp_testkit::{prop_assert_eq, Prop, TestRng};
use ibp_trace::BranchEvent;
use std::collections::{BTreeMap, HashMap, VecDeque};

/// Figure 5 (top), the normal machine: `NORMAL[state][correct]` is the
/// next selection-counter state. States 0-1 select PB, 2-3 select PIB.
const NORMAL: [[u8; 2]; 4] = [
    // [on a miss, on a hit]
    [1, 0], // strongly PB
    [2, 0], // weakly PB
    [1, 3], // weakly PIB
    [2, 3], // strongly PIB
];

/// Figure 5 (bottom), the PIB-biased machine: a single miss on the PB
/// side jumps two states toward PIB.
const BIASED: [[u8; 2]; 4] = [
    [2, 0], // strongly PB -> weakly PIB on a miss
    [3, 0], // weakly PB -> strongly PIB on a miss
    [1, 3],
    [2, 3],
];

/// Which predictor the model mirrors.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// PPM-hyb with the given Figure 5 machine.
    Hybrid(SelectorKind),
    /// PPM-PIB: one PIB history, no BIU.
    Pib,
}

impl Shape {
    const ALL: [Shape; 3] = [
        Shape::Hybrid(SelectorKind::Normal),
        Shape::Hybrid(SelectorKind::PibBiased),
        Shape::Pib,
    ];

    fn build(self, config: StackConfig) -> Box<dyn IndirectPredictor> {
        match self {
            Shape::Hybrid(kind) => Box::new(PpmHybrid::new(config, kind)),
            Shape::Pib => Box::new(PpmPib::new(config)),
        }
    }
}

/// The plain model of one PPM predictor.
struct Model {
    shape: Shape,
    max_order: u32,
    sfsxs: Sfsxs,
    select_bits: u32,
    /// Per order (index 0 = order 1): `(target, counter)` or invalid.
    tables: Vec<Vec<Option<(u64, u8)>>>,
    /// The branch tag last written to each slot. Tagless tables ignore it
    /// on lookup; it only feeds the aliasing telemetry.
    owners: Vec<Vec<u64>>,
    /// Newest first, unmasked path bits (`target >> 2`).
    pb: VecDeque<u64>,
    pib: VecDeque<u64>,
    /// Branch pc -> selection-counter state.
    biu: HashMap<u64, u8>,
    /// Signature, provider order and prediction of the pending predict.
    pending: Option<(u64, Option<u32>, Option<u64>)>,
    metrics: BTreeMap<String, u64>,
}

impl Model {
    fn new(shape: Shape, config: StackConfig) -> Self {
        let sizes = config.table_sizes();
        let depth = config.max_order as usize;
        let mut metrics = BTreeMap::new();
        metrics.insert(
            "stack_entries".to_string(),
            sizes.iter().sum::<usize>() as u64,
        );
        Self {
            shape,
            max_order: config.max_order,
            sfsxs: Sfsxs::new(config.select_bits, config.fold_bits, config.max_order),
            select_bits: config.select_bits,
            tables: sizes.iter().map(|&n| vec![None; n]).collect(),
            owners: sizes.iter().map(|&n| vec![0; n]).collect(),
            pb: VecDeque::from(vec![0; depth]),
            pib: VecDeque::from(vec![0; depth]),
            biu: HashMap::new(),
            pending: None,
            metrics,
        }
    }

    fn bump(&mut self, name: &str) {
        *self.metrics.entry(name.to_string()).or_insert(0) += 1;
    }

    /// Rebuilds the signature from the ring: a fresh register, oldest
    /// target pushed first, then the paper's scan.
    fn signature(&self, ring: &VecDeque<u64>) -> u64 {
        let mut phr = PathHistory::new(ring.len(), self.select_bits as u8);
        for &t in ring.iter().rev() {
            phr.push(t);
        }
        self.sfsxs.signature(&phr)
    }

    /// The slot order `j` probes: the `j` high-order signature bits,
    /// reduced modulo the table length.
    fn slot(&self, signature: u64, order: u32) -> usize {
        let index = signature >> (self.sfsxs.signature_bits() - order);
        (index % self.tables[order as usize - 1].len() as u64) as usize
    }

    fn predict(&mut self, pc: u64) -> Option<u64> {
        let use_pib = match self.shape {
            Shape::Pib => true,
            Shape::Hybrid(_) => {
                let state = *self.biu.entry(pc).or_insert(3);
                let pib = state >= 2;
                self.bump(if pib {
                    "predictions_pib_mode"
                } else {
                    "predictions_pb_mode"
                });
                pib
            }
        };
        let signature = self.signature(if use_pib { &self.pib } else { &self.pb });
        let mut found = None;
        for order in (1..=self.max_order).rev() {
            let slot = self.slot(signature, order);
            if let Some((target, _)) = self.tables[order as usize - 1][slot] {
                found = Some((order, target));
                break;
            }
        }
        self.pending = Some((signature, found.map(|f| f.0), found.map(|f| f.1)));
        found.map(|f| f.1)
    }

    fn update(&mut self, pc: u64, actual: u64) {
        let (signature, provider, prediction) = self.pending.take().expect("predict first");
        let correct = prediction == Some(actual);
        match provider {
            Some(j) => {
                self.bump(&format!("order{j:02}_provided"));
                if !correct {
                    self.bump(&format!("order{j:02}_mispredicted"));
                }
            }
            None => self.bump("lookups_unprovided"),
        }
        // Update exclusion: the provider and every order above it learn;
        // a cold lookup allocates in every order.
        let start = provider.unwrap_or(1);
        *self
            .metrics
            .entry("stack_excluded_updates".into())
            .or_insert(0) += u64::from(start - 1);
        let tag = (pc >> 2) & 0x3FF;
        for order in start..=self.max_order {
            let slot = self.slot(signature, order);
            let o = order as usize - 1;
            match self.tables[o][slot] {
                Some((target, counter)) => {
                    if self.owners[o][slot] != tag {
                        self.bump("stack_tag_conflicts");
                        self.bump(&format!("order{order:02}_tag_conflicts"));
                        self.owners[o][slot] = tag;
                    }
                    // 2-bit hysteresis: reinforce a hit, decay a miss and
                    // replace the target only from counter 0.
                    self.tables[o][slot] = Some(if target == actual {
                        (target, (counter + 1).min(3))
                    } else if counter == 0 {
                        (actual, 1)
                    } else {
                        (target, counter - 1)
                    });
                }
                None => {
                    self.bump("stack_allocations");
                    self.tables[o][slot] = Some((actual, 1));
                    self.owners[o][slot] = tag;
                }
            }
        }
        if let Shape::Hybrid(kind) = self.shape {
            let machine = match kind {
                SelectorKind::Normal => &NORMAL,
                SelectorKind::PibBiased => &BIASED,
            };
            let state = self.biu.get_mut(&pc).expect("predict allocated the entry");
            let next = machine[*state as usize][correct as usize];
            let flipped = (next >= 2) != (*state >= 2);
            let moved = next != *state;
            *state = next;
            if moved {
                self.bump("biu_selector_transitions");
            }
            if flipped {
                self.bump("biu_mode_flips");
            }
        }
    }

    fn observe(&mut self, event: &BranchEvent) {
        let bits = event.target().path_bits();
        self.pb.push_front(bits);
        self.pb.pop_back();
        if event.class().is_indirect() {
            self.pib.push_front(bits);
            self.pib.pop_back();
        }
    }

    /// The telemetry the predictor must report, in its names.
    fn expected_metrics(&self) -> BTreeMap<String, u64> {
        let mut m = self.metrics.clone();
        let mut per_order = |name: &str| {
            for j in 1..=self.max_order {
                m.entry(format!("order{j:02}_{name}")).or_insert(0);
            }
        };
        per_order("provided");
        per_order("mispredicted");
        per_order("tag_conflicts");
        for key in [
            "lookups_unprovided",
            "stack_allocations",
            "stack_tag_conflicts",
            "stack_excluded_updates",
        ] {
            m.entry(key.to_string()).or_insert(0);
        }
        let mut occupancy = 0;
        for (o, table) in self.tables.iter().enumerate() {
            let n = table.iter().filter(|e| e.is_some()).count() as u64;
            m.insert(format!("order{:02}_occupancy", o + 1), n);
            occupancy += n;
        }
        m.insert("stack_occupancy".to_string(), occupancy);
        if let Shape::Hybrid(_) = self.shape {
            m.insert("biu_entries".to_string(), self.biu.len() as u64);
            for key in [
                "biu_selector_transitions",
                "biu_mode_flips",
                "predictions_pb_mode",
                "predictions_pib_mode",
            ] {
                m.entry(key.to_string()).or_insert(0);
            }
        }
        m
    }
}

/// Drives the predictor and the model through `events` as the simulator
/// does, comparing every prediction and, at the end, the whole
/// telemetry report.
fn check_stream(shape: Shape, config: StackConfig, events: &[BranchEvent]) -> Result<(), String> {
    let mut predictor = shape.build(config);
    let mut model = Model::new(shape, config);
    for (i, event) in events.iter().enumerate() {
        if event.class().is_predicted_indirect() {
            let pc = event.pc();
            let got = predictor.predict(pc).map(Addr::raw);
            let want = model.predict(pc.raw());
            prop_assert_eq!(got, want, "{shape:?}: prediction diverged at event {i}");
            predictor.update(pc, event.target());
            model.update(pc.raw(), event.target().raw());
        }
        predictor.observe(event);
        model.observe(event);
    }
    let mut reported = BTreeMap::new();
    predictor.report_metrics(&mut |name, value| {
        reported.insert(name.to_string(), value);
    });
    prop_assert_eq!(
        reported,
        model.expected_metrics(),
        "{shape:?}: telemetry diverged"
    );
    Ok(())
}

fn configs() -> [StackConfig; 2] {
    [StackConfig::paper(), StackConfig::with_total_entries(1023)]
}

/// One generated event: `(class, site, target choice)`. Few sites and
/// few targets per site, so histories repeat and tables hit.
fn gen_events(rng: &mut TestRng) -> Vec<(u8, u8, u8)> {
    rng.vec_with(0..600, |r| {
        (
            r.gen_range(0u8..8),
            r.gen_range(0u8..12),
            r.gen_range(0u8..6),
        )
    })
}

fn materialize(raw: &[(u8, u8, u8)]) -> Vec<BranchEvent> {
    raw.iter()
        .map(|&(class, site, choice)| {
            let pc = Addr::new(0x1_0000 + u64::from(site) * 0x40);
            // Targets differ in their low path bits and above bit 12, so
            // both the select and the fold see them.
            let target = Addr::new(
                0x8_0000
                    + u64::from(site) * 0x1_3000
                    + u64::from(choice) * 0x2_1C4
                    + u64::from(class) * 0x10,
            );
            match class {
                0 => BranchEvent::cond_taken(pc, target),
                1 => BranchEvent::cond_not_taken(pc),
                2 => BranchEvent::direct_call(pc, target),
                3 => BranchEvent::st_jsr(pc, target),
                4 => BranchEvent::ret(pc, target),
                5 => BranchEvent::indirect_jsr(pc, target),
                _ => BranchEvent::indirect_jmp(pc, target),
            }
        })
        .collect()
}

#[test]
fn reference_model_agrees_on_generated_streams() {
    Prop::new("reference_model_agrees_on_generated_streams")
        .cases(24)
        .run(gen_events, |raw| {
            let events = materialize(raw);
            for shape in Shape::ALL {
                for config in configs() {
                    check_stream(shape, config, &events)?;
                }
            }
            Ok(())
        });
}

fn suite_agrees(shape: Shape) {
    for run in ibp_workloads::paper_suite() {
        let trace = run.generate_scaled(0.05);
        let events: Vec<BranchEvent> = trace.iter().copied().collect();
        for config in configs() {
            if let Err(e) = check_stream(shape, config, &events) {
                panic!("{} at {:?} entries: {e}", run.label(), config.total_entries);
            }
        }
    }
}

#[test]
fn reference_model_agrees_on_the_suite_ppm_hyb() {
    suite_agrees(Shape::Hybrid(SelectorKind::Normal));
}

#[test]
fn reference_model_agrees_on_the_suite_ppm_hyb_biased() {
    suite_agrees(Shape::Hybrid(SelectorKind::PibBiased));
}

#[test]
fn reference_model_agrees_on_the_suite_ppm_pib() {
    suite_agrees(Shape::Pib);
}
