//! Whole-predictor reference model for ITTAGE64.
//!
//! The optimized predictor caches derived state on the hot path:
//! incrementally updated folded-history registers, per-table slots and
//! tags computed once per lookup and carried to the update, and
//! `FastMod` slot reduction. The model in this file caches none of it.
//! It
//!
//! * keeps the path history as a plain `VecDeque` of 4-bit chunks;
//! * recomputes every index and tag fold from the full history on each
//!   lookup, from the specification: the fold of width `w` at rotation
//!   step `rot` over a window of `L` chunks is the XOR, over each age
//!   `a < min(len, L)`, of `rotl_w(chunk_a, (a · rot) mod w)`;
//! * reduces every slot with `%`;
//! * stores the base and tagged tables as `Vec<Option<…>>`;
//! * draws the allocation skip from `splitmix64` seeded with the
//!   hard-coded [`ALLOC_SEED`].
//!
//! Every prediction of `Ittage64` is compared against the model's, at
//! the 8, 16 and 64 KB presets and at an 8 KB configuration with a
//! 256-update aging period, on ibp-testkit streams (`IBP_TEST_SEED`
//! explores further) and on all fifteen suite runs at scale 0.05. At the
//! end of every stream the predictor's whole telemetry report must equal
//! the model's too.

use ibp_isa::Addr;
use ibp_predictors::{IndirectPredictor, Ittage64, Ittage64Config};
use ibp_testkit::{prop_assert_eq, splitmix64, Prop, TestRng};
use ibp_trace::BranchEvent;
use std::collections::{BTreeMap, VecDeque};

/// Tagged tables.
const NUM_TABLES: usize = 8;

/// Each table's history window, in observed events.
const HIST_EVENTS: [usize; NUM_TABLES] = [2, 4, 8, 13, 22, 38, 64, 108];

/// Each table's partial-tag width.
const TAG_BITS: [u32; NUM_TABLES] = [9, 9, 10, 10, 11, 12, 13, 14];

/// Width of every index fold.
const INDEX_FOLD_BITS: u32 = 12;

/// The allocation PRNG's fixed seed.
const ALLOC_SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// The `USE_ALT_ON_NA` counter: 4 bits, starting at 8, trusted from 8.
const USE_ALT_MAX: u8 = 15;
const USE_ALT_INITIAL: u8 = 8;

fn mask(bits: u32) -> u64 {
    (1u64 << bits) - 1
}

/// Rotates the `w`-bit value `v` left by `by mod w`.
fn rotl(v: u64, by: u32, w: u32) -> u64 {
    let by = by % w;
    ((v << by) | (v >> (w - by))) & mask(w)
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    tag: u64,
    target: u64,
    /// 2-bit confidence.
    conf: u8,
    /// 2-bit useful counter.
    useful: u8,
}

#[derive(Debug, Clone, Copy)]
struct BaseEntry {
    target: u64,
    conf: u8,
}

/// What a lookup found.
#[derive(Debug, Clone, Copy)]
struct Found {
    provider: Option<usize>,
    provider_pred: Option<u64>,
    alt_pred: Option<u64>,
    prediction: Option<u64>,
    weak: bool,
}

/// The plain model of one ITTAGE64 instance.
struct Model {
    config: Ittage64Config,
    /// Every chunk that can still contribute to a fold, newest first.
    history: VecDeque<u64>,
    base: Vec<Option<BaseEntry>>,
    tables: Vec<Vec<Option<Entry>>>,
    use_alt_on_na: u8,
    tick: u32,
    rng: u64,
    epochs: u64,
    allocs: u64,
    alloc_fails: u64,
    alt_overrides: u64,
}

impl Model {
    fn new(config: Ittage64Config) -> Self {
        Self {
            config,
            history: VecDeque::new(),
            base: vec![None; config.base_entries],
            tables: vec![vec![None; config.table_entries]; NUM_TABLES],
            use_alt_on_na: USE_ALT_INITIAL,
            tick: 0,
            rng: ALLOC_SEED,
            epochs: 0,
            allocs: 0,
            alloc_fails: 0,
            alt_overrides: 0,
        }
    }

    /// The fold of width `w` at rotation step `rot` over the newest
    /// `window` chunks, from scratch.
    fn fold(&self, w: u32, rot: u32, window: usize) -> u64 {
        self.history
            .iter()
            .take(window)
            .enumerate()
            .fold(0, |acc, (age, &chunk)| {
                acc ^ rotl(chunk, age as u32 * rot, w)
            })
    }

    fn index(&self, t: usize, pc: u64) -> usize {
        let f = self.fold(INDEX_FOLD_BITS, 1, HIST_EVENTS[t]);
        let salt = (t as u64 + 1).wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
        let mixed = (pc >> 2) ^ f ^ (f << 7) ^ salt;
        (mixed % self.config.table_entries as u64) as usize
    }

    fn tag(&self, t: usize, pc: u64) -> u64 {
        let f1 = self.fold(TAG_BITS[t], 1, HIST_EVENTS[t]);
        let f2 = self.fold(TAG_BITS[t] - 1, 2, HIST_EVENTS[t]);
        ((pc >> 2).wrapping_mul(0x9E37_79B9) ^ f1 ^ (f2 << 1)) & mask(TAG_BITS[t])
    }

    fn base_index(&self, pc: u64) -> usize {
        ((pc >> 2) % self.config.base_entries as u64) as usize
    }

    fn lookup(&self, pc: u64) -> Found {
        let mut provider = None;
        let mut provider_pred = None;
        let mut weak = false;
        let mut alt_pred = None;
        let mut alt_found = false;
        for t in (0..NUM_TABLES).rev() {
            match self.tables[t][self.index(t, pc)] {
                Some(e) if e.tag == self.tag(t, pc) => {
                    if provider.is_none() {
                        provider = Some(t);
                        provider_pred = Some(e.target);
                        weak = e.conf == 0;
                    } else {
                        alt_pred = Some(e.target);
                        alt_found = true;
                        break;
                    }
                }
                _ => {}
            }
        }
        let base_pred = self.base[self.base_index(pc)].map(|b| b.target);
        if !alt_found {
            alt_pred = base_pred;
        }
        let prediction = match provider {
            Some(_) if weak && self.use_alt_on_na >= USE_ALT_INITIAL && alt_pred.is_some() => {
                alt_pred
            }
            Some(_) => provider_pred,
            None => base_pred,
        };
        Found {
            provider,
            provider_pred,
            alt_pred,
            prediction,
            weak,
        }
    }

    fn predict(&mut self, pc: u64) -> Option<u64> {
        let found = self.lookup(pc);
        if found.provider.is_some() && found.prediction != found.provider_pred {
            self.alt_overrides += 1;
        }
        found.prediction
    }

    fn update(&mut self, pc: u64, actual: u64) {
        // Nothing changes between a predict and its update, so looking up
        // again finds what the predict found.
        let found = self.lookup(pc);
        let correct = found.prediction == Some(actual);
        let provider_correct = found.provider_pred == Some(actual);
        let alt_correct = found.alt_pred == Some(actual);
        if let Some(t) = found.provider {
            if found.weak && found.provider_pred != found.alt_pred {
                if alt_correct {
                    self.use_alt_on_na = (self.use_alt_on_na + 1).min(USE_ALT_MAX);
                } else if provider_correct {
                    self.use_alt_on_na = self.use_alt_on_na.saturating_sub(1);
                }
            }
            let idx = self.index(t, pc);
            let e = self.tables[t][idx]
                .as_mut()
                .expect("the provider's entry exists");
            if provider_correct {
                e.conf = (e.conf + 1).min(3);
            } else if e.conf == 0 {
                e.target = actual;
                e.conf = 1;
            } else {
                e.conf -= 1;
            }
            if found.provider_pred != found.alt_pred {
                e.useful = if provider_correct {
                    (e.useful + 1).min(3)
                } else {
                    e.useful.saturating_sub(1)
                };
            }
        }
        let bi = self.base_index(pc);
        self.base[bi] = Some(match self.base[bi] {
            Some(b) if b.target == actual => BaseEntry {
                target: actual,
                conf: (b.conf + 1).min(3),
            },
            Some(b) if b.conf == 0 => BaseEntry {
                target: actual,
                conf: 1,
            },
            Some(b) => BaseEntry {
                target: b.target,
                conf: b.conf - 1,
            },
            None => BaseEntry {
                target: actual,
                conf: 1,
            },
        });
        if !correct && !provider_correct {
            self.allocate_above(found.provider, pc, actual);
        }
        self.tick += 1;
        if self.tick >= self.config.aging_period {
            self.tick = 0;
            self.epochs += 1;
            for e in self.tables.iter_mut().flatten().flatten() {
                e.useful /= 2;
            }
        }
    }

    fn allocate_above(&mut self, provider: Option<usize>, pc: u64, actual: u64) {
        let next = provider.map_or(0, |p| p + 1);
        if next >= NUM_TABLES {
            return;
        }
        let skip = match splitmix64(&mut self.rng) % 4 {
            0 | 1 => 0,
            2 => 1,
            _ => 2,
        };
        let start = (next + skip).min(NUM_TABLES - 1);
        for t in start..NUM_TABLES {
            let (idx, tag) = (self.index(t, pc), self.tag(t, pc));
            let slot = &mut self.tables[t][idx];
            if slot.is_some_and(|e| e.useful > 0) {
                continue;
            }
            *slot = Some(Entry {
                tag,
                target: actual,
                conf: 0,
                useful: 0,
            });
            self.allocs += 1;
            return;
        }
        for t in start..NUM_TABLES {
            let idx = self.index(t, pc);
            if let Some(e) = &mut self.tables[t][idx] {
                e.useful = e.useful.saturating_sub(1);
            }
        }
        self.alloc_fails += 1;
    }

    fn observe(&mut self, event: &BranchEvent) {
        if self.config.group.accepts(event) {
            self.history.push_front(event.target().path_bits() % 16);
            self.history.truncate(HIST_EVENTS[NUM_TABLES - 1]);
        }
    }

    /// The telemetry the predictor must report, in its names.
    fn expected_metrics(&self) -> BTreeMap<String, u64> {
        let entries = self.tables.iter().flatten().flatten();
        [
            ("ittage64.allocs", self.allocs),
            ("ittage64.alloc_fails", self.alloc_fails),
            ("ittage64.alt_overrides", self.alt_overrides),
            ("ittage64.aging_epochs", self.epochs),
            (
                "ittage64.useful_mass",
                entries.clone().map(|e| u64::from(e.useful)).sum(),
            ),
            ("ittage64.tagged_occupied", entries.count() as u64),
            (
                "ittage64.base_occupied",
                self.base.iter().flatten().count() as u64,
            ),
            ("ittage64.use_alt_on_na", u64::from(self.use_alt_on_na)),
        ]
        .into_iter()
        .map(|(name, value)| (name.to_string(), value))
        .collect()
    }
}

/// Drives the predictor and the model through `events` as the simulator
/// does, comparing every prediction and, at the end, the whole
/// telemetry report.
fn check_stream(label: &str, config: Ittage64Config, events: &[BranchEvent]) -> Result<(), String> {
    let mut predictor = Ittage64::new(config);
    let mut model = Model::new(config);
    for (i, event) in events.iter().enumerate() {
        if event.class().is_predicted_indirect() {
            let pc = event.pc();
            let got = predictor.predict(pc).map(Addr::raw);
            let want = model.predict(pc.raw());
            prop_assert_eq!(got, want, "{label}: prediction diverged at event {i}");
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
        "{label}: telemetry diverged"
    );
    Ok(())
}

/// The three presets, and the 8 KB preset with a short aging period so
/// that epochs fire within a short stream.
fn configs() -> [(&'static str, Ittage64Config); 4] {
    [
        ("8KB", Ittage64Config::budget_8kb()),
        ("16KB", Ittage64Config::budget_16kb()),
        ("64KB", Ittage64Config::budget_64kb()),
        (
            "8KB aging 256",
            Ittage64Config {
                aging_period: 256,
                ..Ittage64Config::budget_8kb()
            },
        ),
    ]
}

/// One generated event: `(class, site, target choice)`. Few sites and
/// few targets per site, so histories repeat, tables hit and
/// allocations compete.
fn gen_events(rng: &mut TestRng) -> Vec<(u8, u8, u8)> {
    rng.vec_with(0..1500, |r| {
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
            // Targets differ in their low path bits, the 4 bits each
            // event shifts into the history.
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
    Prop::new("ittage64_reference_model_agrees_on_generated_streams")
        .cases(24)
        .run(gen_events, |raw| {
            let events = materialize(raw);
            for (label, config) in configs() {
                check_stream(label, config, &events)?;
            }
            Ok(())
        });
}

fn suite_agrees(which: usize) {
    let (label, config) = configs()[which];
    for run in ibp_workloads::paper_suite() {
        let trace = run.generate_scaled(0.05);
        let events: Vec<BranchEvent> = trace.iter().copied().collect();
        if let Err(e) = check_stream(label, config, &events) {
            panic!("{}: {e}", run.label());
        }
    }
}

#[test]
fn reference_model_agrees_on_the_suite_8kb() {
    suite_agrees(0);
}

#[test]
fn reference_model_agrees_on_the_suite_16kb() {
    suite_agrees(1);
}

#[test]
fn reference_model_agrees_on_the_suite_64kb() {
    suite_agrees(2);
}

#[test]
fn reference_model_agrees_on_the_suite_8kb_aging_256() {
    suite_agrees(3);
}
