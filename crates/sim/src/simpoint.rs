//! SimPoint-style phase sampling: weighted representative simulation.
//!
//! Full-trace simulation caps every sweep at a few million events. This
//! module lifts that ceiling the way SimPoint lifted it for SPEC: slice
//! the event stream into fixed-size **windows**, summarize each window as
//! a branch-vector **signature** (which targets the window's MT indirect
//! branches reached, hashed into a fixed number of dimensions), cluster
//! the signatures with in-tree k-means, then simulate only one
//! **representative** window per cluster — warmed by replaying the
//! windows just before it — and report the cluster-weighted estimate.
//! A 100M-event run costs one streaming signature pass plus a handful of
//! window simulations per predictor instead of 100M predictor steps.
//!
//! Everything is deterministic by construction (the validation suite
//! compares weighted estimates against full runs byte-for-byte across
//! pool sizes):
//!
//! * k-means++ seeding and any sampling draw from ibp-testkit's seeded
//!   SplitMix64 PRNG ([`SimPointConfig::seed`], fixed default);
//! * assignment ties break toward the **lowest cluster index**, and
//!   representative ties toward the **lowest window index**;
//! * Lloyd iterations run a fixed budget with a fixed f64 accumulation
//!   order; empty clusters keep their previous centroid and are dropped
//!   (deterministically, preserving order) from the final phase set;
//! * representative windows simulate in parallel on an
//!   [`Executor`], whose results commit in task order.
//!
//! See DESIGN.md §13 for the window/warmup policy and the error-bound
//! methodology; `simbench` regenerates the committed weighted-vs-full
//! differential report.

use crate::runner::{simulate_stream, RunResult};
use crate::zoo::PredictorKind;
use ibp_exec::{Executor, FastHash};
use ibp_metrics::{Log2Histogram, MetricsSnapshot};
use ibp_predictors::IndirectPredictor;
use ibp_testkit::TestRng;
use ibp_trace::{BranchEvent, Trace};
use ibp_workloads::ModelStream;

/// Default PRNG seed for k-means++ seeding ("SIMPOINT" in ASCII). Part of
/// the estimator's identity: the suite_pins regression pins estimates
/// produced under this seed.
pub const SIMPOINT_SEED: u64 = 0x53494D50_4F494E54;

/// Checkpoint spacing of the streaming path, in windows: pass 1 clones
/// the generator every this-many windows so pass 2 can resume near any
/// representative instead of replaying from iteration zero.
const CHECKPOINT_STRIDE_WINDOWS: u64 = 16;

/// Phase-sampling parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimPointConfig {
    /// Requested cluster count (clamped to the window count).
    pub k: usize,
    /// Events per window.
    pub window: usize,
    /// Functional-warmup length, in windows replayed (uncounted) before
    /// each representative. Zero is the declared cold-start policy: every
    /// representative starts from a fresh predictor, exactly like the
    /// head of a full run. The default is deep (96 windows ≈ 200K events)
    /// because the PPM tables carry long-range state: a full run's tables
    /// accumulate aliasing pollution that a freshly-warmed predictor does
    /// not have, so short warmups systematically *over*-predict (estimate
    /// below the full run) — warmup must cover the predictor's memory
    /// horizon, not just fill the hot entries.
    pub warmup_windows: usize,
    /// Sampling units per cluster: each cluster's members are split (in
    /// window order) into up to this many strata, and each stratum is
    /// simulated at its middle member with the stratum size as weight.
    /// One stratum is classic SimPoint (centroid-nearest representative);
    /// more strata trade simulation for variance — the centroid-nearest
    /// window is systematically a *stable* one, which under-counts
    /// transient mispredictions (target switches, cold start), and
    /// stratifying in time order removes that selection bias.
    pub strata: usize,
    /// Signature dimensions (hash buckets over (pc, target) pairs).
    pub dims: usize,
    /// Lloyd iteration budget for k-means.
    pub kmeans_iters: usize,
    /// PRNG seed for k-means++ seeding.
    pub seed: u64,
}

impl Default for SimPointConfig {
    fn default() -> Self {
        Self {
            k: 12,
            window: 2048,
            warmup_windows: 96,
            strata: 8,
            dims: 64,
            kmeans_iters: 25,
            seed: SIMPOINT_SEED,
        }
    }
}

impl SimPointConfig {
    /// A config with the given cluster count and window size, defaults
    /// elsewhere.
    pub fn new(k: usize, window: usize) -> Self {
        Self {
            k,
            window,
            ..Self::default()
        }
    }

    /// Parses the CLI flag payload
    /// `k=K,window=W[,warmup=N][,strata=R][,dims=D]` (any order, all
    /// fields optional, defaults elsewhere).
    pub fn parse_flag(s: &str) -> Result<Self, String> {
        let mut cfg = Self::default();
        for part in s.split(',').filter(|p| !p.is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("expected key=value, got {part:?}"))?;
            let n: usize = value
                .parse()
                .map_err(|_| format!("bad value for {key}: {value:?}"))?;
            match key {
                "k" => cfg.k = n,
                "window" => cfg.window = n,
                "warmup" => cfg.warmup_windows = n,
                "strata" => cfg.strata = n,
                "dims" => cfg.dims = n,
                _ => return Err(format!("unknown simpoint key {key:?}")),
            }
        }
        if cfg.k == 0 || cfg.window == 0 || cfg.dims == 0 || cfg.strata == 0 {
            return Err("k, window, strata and dims must be positive".to_string());
        }
        Ok(cfg)
    }

    /// Renders the flag payload this config parses from.
    pub fn flag_string(&self) -> String {
        format!(
            "k={},window={},warmup={},strata={},dims={}",
            self.k, self.window, self.warmup_windows, self.strata, self.dims
        )
    }
}

/// One window's branch-vector signature: the L1-normalized distribution
/// of the window's MT indirect (pc, target) pairs over `dims` hash
/// buckets.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowSignature {
    vec: Vec<f64>,
    /// Events in the window (the final window may run short).
    pub events: u32,
    /// MT indirect events in the window (what the vector is built from).
    pub mt_events: u32,
}

/// Per-window signatures of one event stream.
#[derive(Debug, Clone, PartialEq)]
pub struct SignatureSet {
    dims: usize,
    window: usize,
    sigs: Vec<WindowSignature>,
    total_events: u64,
    total_mt: u64,
}

impl SignatureSet {
    /// Number of windows (the last may be partial).
    pub fn windows(&self) -> usize {
        self.sigs.len()
    }

    /// Total events pushed.
    pub fn total_events(&self) -> u64 {
        self.total_events
    }

    /// Total MT indirect events pushed.
    pub fn total_mt(&self) -> u64 {
        self.total_mt
    }

    /// The signatures, in window order.
    pub fn signatures(&self) -> &[WindowSignature] {
        &self.sigs
    }
}

/// Incremental [`SignatureSet`] builder — push every event of the
/// stream in order, then [`SignatureBuilder::finish`].
#[derive(Debug, Clone)]
pub struct SignatureBuilder {
    dims: usize,
    window: usize,
    cur: Vec<f64>,
    cur_events: u32,
    cur_mt: u32,
    out: Vec<WindowSignature>,
    total_events: u64,
    total_mt: u64,
}

impl SignatureBuilder {
    /// An empty builder for `cfg`'s window size and dimensionality.
    pub fn new(cfg: &SimPointConfig) -> Self {
        Self {
            dims: cfg.dims,
            window: cfg.window.max(1),
            cur: vec![0.0; cfg.dims],
            cur_events: 0,
            cur_mt: 0,
            out: Vec::new(),
            total_events: 0,
            total_mt: 0,
        }
    }

    /// Accounts one event. MT indirect branches contribute their
    /// (pc, target) pair to the window vector; every event advances the
    /// window position, so window boundaries land at fixed stream
    /// offsets regardless of branch mix. (Named distinctly from the
    /// ubiquitous `push` so call-graph certification does not fan bare
    /// `.push()` calls on other roots into this impl.)
    pub fn observe_event(&mut self, e: &BranchEvent) {
        if e.class().is_predicted_indirect() {
            let bucket = (e.pc().raw(), e.target().raw()).fast_hash() as usize % self.dims;
            self.cur[bucket] += 1.0;
            self.cur_mt += 1;
            self.total_mt += 1;
        }
        self.cur_events += 1;
        self.total_events += 1;
        if self.cur_events as usize == self.window {
            self.seal_window();
        }
    }

    fn seal_window(&mut self) {
        let mut vec = std::mem::replace(&mut self.cur, vec![0.0; self.dims]);
        if self.cur_mt > 0 {
            let inv = (self.cur_mt as f64).recip();
            for v in &mut vec {
                *v *= inv;
            }
        }
        self.out.push(WindowSignature {
            vec,
            events: self.cur_events,
            mt_events: self.cur_mt,
        });
        self.cur_events = 0;
        self.cur_mt = 0;
    }

    /// Seals the trailing partial window (if any) and returns the set.
    pub fn finish(mut self) -> SignatureSet {
        if self.cur_events > 0 {
            self.seal_window();
        }
        SignatureSet {
            dims: self.dims,
            window: self.window,
            sigs: self.out,
            total_events: self.total_events,
            total_mt: self.total_mt,
        }
    }
}

/// Builds the signature set of a materialized trace.
pub fn signatures_of(trace: &Trace, cfg: &SimPointConfig) -> SignatureSet {
    let mut b = SignatureBuilder::new(cfg);
    for e in trace.iter() {
        b.observe_event(e);
    }
    b.finish()
}

/// One sampling unit: a stratum of one cluster's behaviorally similar
/// windows, stood in for by its representative.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseCluster {
    /// Window index of the stratum's middle member (in time order).
    pub representative: usize,
    /// Member count — the representative's weight in the estimate.
    pub weight: u64,
    /// Mean squared distance of the stratum's members to the *cluster*
    /// centroid.
    pub mean_sq_dist: f64,
}

/// The clustering of one stream's windows into phases.
#[derive(Debug, Clone, PartialEq)]
pub struct Phases {
    /// Per-window sampling-unit index (into [`Phases::clusters`]).
    pub assignments: Vec<u32>,
    /// The sampling units — up to `strata` per non-empty k-means
    /// cluster — in cluster order then time order.
    pub clusters: Vec<PhaseCluster>,
    /// Events per window the clustering was built at.
    pub window: usize,
    /// Total events in the stream.
    pub total_events: u64,
    /// Weighted mean squared distance to centroids over all windows.
    pub intra_variance: f64,
}

impl Phases {
    /// Number of windows clustered.
    pub fn windows(&self) -> usize {
        self.assignments.len()
    }
}

fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    let mut acc = 0.0;
    for (x, y) in a.iter().zip(b) {
        let d = x - y;
        acc += d * d;
    }
    acc
}

/// Clusters a signature set into phases with deterministic k-means
/// (k-means++ seeding from the config's seed, fixed Lloyd budget,
/// lowest-index tie-breaks), then splits each cluster into up to
/// `cfg.strata` time-ordered sampling units. `k` is clamped to the
/// window count; empty streams produce an empty phase set.
pub fn cluster_signatures(set: &SignatureSet, cfg: &SimPointConfig) -> Phases {
    let n = set.sigs.len();
    if n == 0 {
        return Phases {
            assignments: Vec::new(),
            clusters: Vec::new(),
            window: set.window,
            total_events: set.total_events,
            intra_variance: 0.0,
        };
    }
    let k = cfg.k.max(1).min(n);
    let points: Vec<&[f64]> = set.sigs.iter().map(|s| s.vec.as_slice()).collect();

    // k-means++ seeding: first center uniform, later centers
    // proportional to squared distance from the chosen set. Identical
    // points (distance mass zero) fall back to the lowest unchosen index.
    let mut rng = TestRng::new(cfg.seed);
    let mut chosen = vec![false; n];
    let first = rng.gen_range(0..n as u64) as usize;
    chosen[first] = true;
    let mut centers: Vec<Vec<f64>> = vec![points[first].to_vec()];
    let mut min_d2: Vec<f64> = points.iter().map(|p| sq_dist(p, &centers[0])).collect();
    while centers.len() < k {
        let total: f64 = min_d2
            .iter()
            .zip(&chosen)
            .map(|(&d, &c)| if c { 0.0 } else { d })
            .sum();
        let next = if total > 0.0 {
            let r = rng.f64() * total;
            let mut acc = 0.0;
            let mut pick = usize::MAX;
            for i in 0..n {
                if chosen[i] {
                    continue;
                }
                acc += min_d2[i];
                if acc > r {
                    pick = i;
                    break;
                }
            }
            if pick == usize::MAX {
                // Float round-off left r at or past the total mass: take
                // the last unchosen point, matching the limit behavior.
                (0..n).rev().find(|&i| !chosen[i]).unwrap_or(first)
            } else {
                pick
            }
        } else {
            // All remaining points coincide with a center.
            (0..n).find(|&i| !chosen[i]).unwrap_or(first)
        };
        chosen[next] = true;
        centers.push(points[next].to_vec());
        for i in 0..n {
            let d = sq_dist(points[i], centers.last().map(|c| c.as_slice()).unwrap_or(&[]));
            if d < min_d2[i] {
                min_d2[i] = d;
            }
        }
    }

    // Lloyd iterations: assign (strict-less comparison, so ties keep the
    // lowest cluster index), then recompute member means. Empty clusters
    // keep their previous centroid. Fixed budget, early exit when the
    // assignment reaches a fixed point.
    let dims = set.dims;
    let mut assign = vec![0u32; n];
    for _ in 0..cfg.kmeans_iters.max(1) {
        let mut changed = false;
        for i in 0..n {
            let mut best = 0usize;
            let mut best_d = f64::INFINITY;
            for (c, center) in centers.iter().enumerate() {
                let d = sq_dist(points[i], center);
                if d < best_d {
                    best_d = d;
                    best = c;
                }
            }
            if assign[i] != best as u32 {
                assign[i] = best as u32;
                changed = true;
            }
        }
        let mut sums = vec![vec![0.0f64; dims]; centers.len()];
        let mut counts = vec![0u64; centers.len()];
        for i in 0..n {
            let c = assign[i] as usize;
            counts[c] += 1;
            for (s, v) in sums[c].iter_mut().zip(points[i]) {
                *s += v;
            }
        }
        for (c, center) in centers.iter_mut().enumerate() {
            if counts[c] > 0 {
                let inv = 1.0 / counts[c] as f64;
                for (dst, s) in center.iter_mut().zip(&sums[c]) {
                    *dst = s * inv;
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Final phase set from the last assignment: each non-empty cluster's
    // members (in window order) split into up to `cfg.strata` sampling
    // units, emitted in cluster order then stratum order. A unit's
    // representative is its *middle member in time order* — picking by
    // centroid proximity would systematically choose stable windows and
    // under-count transient mispredictions (target switches, cold
    // start), while a time-ordered pick inside a time-ordered stratum is
    // uncorrelated with that stability. Empty clusters vanish; weights
    // sum to the window count by construction.
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); centers.len()];
    for i in 0..n {
        members[assign[i] as usize].push(i);
    }
    let mut clusters = Vec::new();
    let mut assignments = vec![0u32; n];
    let mut total_sq = 0.0f64;
    for m in &members {
        if m.is_empty() {
            continue;
        }
        let inv = 1.0 / m.len() as f64;
        let mut centroid = vec![0.0f64; dims];
        for &i in m {
            for (dst, v) in centroid.iter_mut().zip(points[i]) {
                *dst += v;
            }
        }
        for v in &mut centroid {
            *v *= inv;
        }
        let strata = cfg.strata.max(1).min(m.len());
        for j in 0..strata {
            let lo = j * m.len() / strata;
            let hi = (j + 1) * m.len() / strata;
            let stratum = &m[lo..hi];
            let rep = stratum[stratum.len() / 2];
            let mut sum_d = 0.0f64;
            for &i in stratum {
                sum_d += sq_dist(points[i], &centroid);
                assignments[i] = clusters.len() as u32;
            }
            total_sq += sum_d;
            clusters.push(PhaseCluster {
                representative: rep,
                weight: stratum.len() as u64,
                mean_sq_dist: sum_d / stratum.len() as f64,
            });
        }
    }
    Phases {
        assignments,
        clusters,
        window: set.window,
        total_events: set.total_events,
        intra_variance: total_sq / n as f64,
    }
}

/// Functional warmup: drives `events` through the predictor with exactly
/// the measured loop's per-event protocol (predict → update on MT
/// indirect branches; observe everything) while counting nothing. The
/// predictor leaves this loop in the same state a full run would reach
/// at the same stream position.
pub fn warm_predictor<P, I>(predictor: &mut P, events: I)
where
    P: IndirectPredictor + ?Sized,
    I: IntoIterator<Item = BranchEvent>,
{
    for event in events {
        if event.class().is_predicted_indirect() {
            let _ = predictor.predict(event.pc());
            predictor.update(event.pc(), event.target());
        }
        predictor.observe(&event);
    }
}

/// Simulates one representative window: functional warmup over
/// `warmup`, then the measured window through the canonical counted
/// loop. This is the per-task unit the sampled paths fan out on an
/// [`Executor`], and a certified panic/alloc-freedom root (L007/L008):
/// steady-state sampling must uphold the same guarantees as the full
/// simulation loop it stands in for.
pub fn simulate_window<P, I, J>(predictor: &mut P, warmup: I, window: J) -> RunResult
where
    P: IndirectPredictor + ?Sized,
    I: IntoIterator<Item = BranchEvent>,
    J: IntoIterator<Item = BranchEvent>,
{
    warm_predictor(predictor, warmup);
    simulate_stream(predictor, window)
}

/// A cluster-weighted misprediction estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightedEstimate {
    /// The predictor's display name.
    pub predictor: String,
    /// Weighted predicted-branch count: Σ weight × representative count.
    pub predictions: u64,
    /// Weighted misprediction count.
    pub mispredictions: u64,
}

impl WeightedEstimate {
    /// The estimated misprediction ratio in 0..=1.
    pub fn misprediction_ratio(&self) -> f64 {
        if self.predictions == 0 {
            return 0.0;
        }
        self.mispredictions as f64 / self.predictions as f64
    }
}

/// The outcome of one phase-sampled simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct SimPointRun {
    /// The weighted estimate standing in for the full run.
    pub estimate: WeightedEstimate,
    /// The clustering the estimate was computed from.
    pub phases: Phases,
    /// Events fed through predictors (warmup + measured) — the work the
    /// sampled run actually did.
    pub events_simulated: u64,
    /// Events inside measured representative windows only.
    pub events_measured: u64,
}

impl SimPointRun {
    /// Fraction of the stream fed through predictors, in 0..=1.
    pub fn sampled_fraction(&self) -> f64 {
        if self.phases.total_events == 0 {
            return 0.0;
        }
        self.events_simulated as f64 / self.phases.total_events as f64
    }
}

/// The event range of window `w`: measured span plus its clamped warmup
/// prefix, as `(warm_start, measure_start, measure_end)`.
fn window_span(w: usize, total: usize, cfg: &SimPointConfig) -> (usize, usize, usize) {
    let m0 = (w * cfg.window).min(total);
    let m1 = (m0 + cfg.window).min(total);
    let w0 = m0.saturating_sub(cfg.warmup_windows * cfg.window);
    (w0, m0, m1)
}

fn weighted_merge(
    label: &str,
    phases: &Phases,
    results: &[RunResult],
    spans: &[(usize, usize, usize)],
) -> SimPointRun {
    let mut predictions = 0u64;
    let mut mispredictions = 0u64;
    let mut simulated = 0u64;
    let mut measured = 0u64;
    for ((cluster, result), &(w0, m0, m1)) in phases.clusters.iter().zip(results).zip(spans) {
        predictions += cluster.weight * result.predictions();
        mispredictions += cluster.weight * result.mispredictions();
        simulated += (m1 - w0) as u64;
        measured += (m1 - m0) as u64;
    }
    SimPointRun {
        estimate: WeightedEstimate {
            predictor: label.to_string(),
            predictions,
            mispredictions,
        },
        phases: phases.clone(),
        events_simulated: simulated,
        events_measured: measured,
    }
}

/// Phase-sampled simulation of a materialized trace: representative
/// windows simulate in parallel on `exec` (results commit in cluster
/// order, so the estimate is pool-size invariant).
pub fn simpoint_trace(
    kind: PredictorKind,
    entries: usize,
    trace: &Trace,
    cfg: &SimPointConfig,
    exec: &Executor,
) -> SimPointRun {
    let set = signatures_of(trace, cfg);
    let phases = cluster_signatures(&set, cfg);
    simpoint_from_phases(kind, entries, trace, &phases, cfg, exec)
}

/// [`simpoint_trace`] with a precomputed clustering — the grid path:
/// signatures and phases are predictor-independent, so a figure evaluates
/// the clustering once and estimates every predictor from it.
pub fn simpoint_from_phases(
    kind: PredictorKind,
    entries: usize,
    trace: &Trace,
    phases: &Phases,
    cfg: &SimPointConfig,
    exec: &Executor,
) -> SimPointRun {
    let events = trace.events();
    let spans: Vec<(usize, usize, usize)> = phases
        .clusters
        .iter()
        .map(|c| window_span(c.representative, events.len(), cfg))
        .collect();
    let results = exec.map(&spans, |_, &(w0, m0, m1)| {
        kind.simulate_simpoint_window(entries, &events[w0..m0], &events[m0..m1])
    });
    weighted_merge(&kind.label(), phases, &results, &spans)
}

/// [`simpoint_from_phases`] for an arbitrary predictor builder — the
/// sweep path, where the lineup is built from hand-tuned configs rather
/// than [`PredictorKind`]s. `build` runs once per representative window
/// (on the pool), so it must produce identically-configured fresh
/// predictors.
pub fn simpoint_with<P, F>(
    label: &str,
    build: F,
    trace: &Trace,
    phases: &Phases,
    cfg: &SimPointConfig,
    exec: &Executor,
) -> SimPointRun
where
    P: IndirectPredictor,
    F: Fn() -> P + Sync,
{
    let events = trace.events();
    let spans: Vec<(usize, usize, usize)> = phases
        .clusters
        .iter()
        .map(|c| window_span(c.representative, events.len(), cfg))
        .collect();
    let results = exec.map(&spans, |_, &(w0, m0, m1)| {
        let mut p = build();
        simulate_window(
            &mut p,
            events[w0..m0].iter().copied(),
            events[m0..m1].iter().copied(),
        )
    });
    weighted_merge(label, phases, &results, &spans)
}

/// The estimate grid of [`compare_grid_with`](crate::compare::compare_grid_with):
/// every kind × run cell phase-sampled at `entries` total table entries.
/// Signatures and clustering are predictor-independent, so each run is
/// clustered once and shared across the whole predictor lineup. Returns
/// the estimate grid plus the underlying sampled runs in row-major
/// (run, then predictor) order — the telemetry path feeds those to
/// [`simpoint_snapshot`].
pub fn simpoint_grid_with(
    exec: &Executor,
    kinds: &[PredictorKind],
    entries: usize,
    runs: &[ibp_workloads::BenchmarkRun],
    scale: f64,
    cfg: &SimPointConfig,
) -> (crate::compare::GridResult, Vec<SimPointRun>) {
    let predictors: Vec<String> = kinds.iter().map(|k| k.label()).collect();
    let run_labels: Vec<String> = runs.iter().map(|r| r.label()).collect();
    let traces: Vec<Trace> = exec.map(runs, |_, run| crate::compare::generate_trace(run, scale));
    let phases: Vec<Phases> =
        exec.map(&traces, |_, t| cluster_signatures(&signatures_of(t, cfg), cfg));
    let mut cells = Vec::with_capacity(traces.len() * kinds.len());
    let mut sampled = Vec::with_capacity(traces.len() * kinds.len());
    for (ri, trace) in traces.iter().enumerate() {
        for &kind in kinds {
            let run = simpoint_from_phases(kind, entries, trace, &phases[ri], cfg, exec);
            cells.push(crate::compare::GridCell {
                run: run_labels[ri].clone(),
                predictor: run.estimate.predictor.clone(),
                ratio: run.estimate.misprediction_ratio(),
                predictions: run.estimate.predictions,
            });
            sampled.push(run);
        }
    }
    (
        crate::compare::GridResult::from_parts(predictors, run_labels, cells),
        sampled,
    )
}

/// The predictor-independent half of a streamed sampled run: window
/// signatures, the clustering, and generator checkpoints. Built once by
/// [`stream_prep`] and shared across a whole predictor lineup — the
/// signature pass streams the workload exactly once no matter how many
/// predictors estimate from it.
#[derive(Debug, Clone)]
pub struct StreamPrep {
    checkpoints: Vec<ModelStream>,
    phases: Phases,
    iterations: u64,
}

impl StreamPrep {
    /// The clustering the estimates will be computed from.
    pub fn phases(&self) -> &Phases {
        &self.phases
    }

    /// Iterations of the generator covered by the signature pass.
    pub fn iterations(&self) -> u64 {
        self.iterations
    }
}

/// Pass 1 of the streamed path: streams `iterations` of the generator
/// once, building window signatures and dropping a generator checkpoint
/// every few windows, then clusters the signatures.
pub fn stream_prep(stream: &ModelStream, iterations: u64, cfg: &SimPointConfig) -> StreamPrep {
    let stride = (cfg.window as u64)
        .saturating_mul(CHECKPOINT_STRIDE_WINDOWS)
        .max(1);
    let mut s = stream.clone();
    let mut checkpoints: Vec<ModelStream> = vec![s.clone()];
    let mut builder = SignatureBuilder::new(cfg);
    for _ in 0..iterations {
        s.step(|e| builder.observe_event(&e));
        if s.events_emitted() >= checkpoints.len() as u64 * stride {
            checkpoints.push(s.clone());
        }
    }
    let set = builder.finish();
    let phases = cluster_signatures(&set, cfg);
    StreamPrep {
        checkpoints,
        phases,
        iterations,
    }
}

/// Pass 2 of the streamed path: regenerates only each representative's
/// warmup + measured span from the nearest checkpoint and simulates those
/// spans in parallel.
pub fn simpoint_streamed_prepped(
    kind: PredictorKind,
    entries: usize,
    prep: &StreamPrep,
    cfg: &SimPointConfig,
    exec: &Executor,
) -> SimPointRun {
    let total = prep.phases.total_events as usize;
    let iterations = prep.iterations;
    let spans: Vec<(usize, usize, usize)> = prep
        .phases
        .clusters
        .iter()
        .map(|c| window_span(c.representative, total, cfg))
        .collect();
    let results = exec.map(&spans, |_, &(w0, m0, m1)| {
        // Resume from the last checkpoint at or before the warmup start
        // and route regenerated events into the warm/measured buffers.
        let cp = prep
            .checkpoints
            .iter()
            .rev()
            .find(|cp| cp.events_emitted() <= w0 as u64)
            .unwrap_or(&prep.checkpoints[0]);
        let mut gen = cp.clone();
        let mut idx = gen.events_emitted() as usize;
        let mut warm = Vec::with_capacity(m0 - w0);
        let mut meas = Vec::with_capacity(m1 - m0);
        while idx < m1 && gen.iterations_done() < iterations {
            gen.step(|e| {
                if idx >= w0 && idx < m0 {
                    warm.push(e);
                } else if idx >= m0 && idx < m1 {
                    meas.push(e);
                }
                idx += 1;
            });
        }
        kind.simulate_simpoint_window(entries, &warm, &meas)
    });
    weighted_merge(&kind.label(), &prep.phases, &results, &spans)
}

/// The **stitched** streamed estimator: one predictor instance per kind,
/// driven through every sampling unit in time order with state carried
/// across units, each unit re-synced by a short functional warmup over
/// the tail of the skipped gap before it. This is the ISSUE's
/// "functional-warmup predictor state through skipped regions" policy,
/// and it exists because the cold-start policy has a blind spot on very
/// long streams: predictors whose tables saturate monotonically (the
/// cascade filter, PPM's longest orders) accumulate pollution over 10⁸+
/// events that no fixed warmup can reproduce, so freshly-warmed
/// representatives systematically over-predict. Carrying state forward
/// keeps that long-range component; the short warmup only has to repair
/// recency (histories, recently-used entries), so `cfg.warmup_windows`
/// can stay small and the sampled fraction tiny. Sequential by
/// construction (state is the whole point), hence trivially
/// deterministic for any pool size.
pub fn simpoint_streamed_chained(
    kind: PredictorKind,
    entries: usize,
    prep: &StreamPrep,
    cfg: &SimPointConfig,
) -> SimPointRun {
    let total = prep.phases.total_events as usize;
    let iterations = prep.iterations;
    // Units in time order, remembering each one's cluster slot so the
    // weighted merge still pairs results with weights.
    let mut order: Vec<(usize, (usize, usize, usize))> = prep
        .phases
        .clusters
        .iter()
        .enumerate()
        .map(|(slot, c)| (slot, window_span(c.representative, total, cfg)))
        .collect();
    order.sort_by_key(|&(_, (_, m0, _))| m0);
    let mut predictor = kind.build_with_entries(entries);
    let mut results: Vec<RunResult> =
        vec![RunResult::from_parts(kind.label(), 0, 0, std::iter::empty()); order.len()];
    let mut spans: Vec<(usize, usize, usize)> = vec![(0, 0, 0); order.len()];
    let mut prev_end = 0usize;
    for &(slot, (w0, m0, m1)) in &order {
        // Never re-feed events an earlier unit already played.
        let w0 = w0.max(prev_end.min(m0));
        let cp = prep
            .checkpoints
            .iter()
            .rev()
            .find(|cp| cp.events_emitted() <= w0 as u64)
            .unwrap_or(&prep.checkpoints[0]);
        let mut gen = cp.clone();
        let mut idx = gen.events_emitted() as usize;
        let mut warm = Vec::with_capacity(m0 - w0);
        let mut meas = Vec::with_capacity(m1 - m0);
        while idx < m1 && gen.iterations_done() < iterations {
            gen.step(|e| {
                if idx >= w0 && idx < m0 {
                    warm.push(e);
                } else if idx >= m0 && idx < m1 {
                    meas.push(e);
                }
                idx += 1;
            });
        }
        results[slot] = simulate_window(predictor.as_mut(), warm.into_iter(), meas.into_iter());
        spans[slot] = (w0, m0, m1);
        prev_end = m1;
    }
    weighted_merge(&kind.label(), &prep.phases, &results, &spans)
}

/// Phase-sampled simulation of a **streamed** workload — the 100M+ event
/// path: [`stream_prep`] then [`simpoint_streamed_prepped`]. The estimate
/// is bit-identical to [`simpoint_trace`] over the materialized trace of
/// the same run (the property suite pins this). Estimating several
/// predictors over one workload should share a single [`stream_prep`]
/// instead.
pub fn simpoint_streamed(
    kind: PredictorKind,
    entries: usize,
    stream: &ModelStream,
    iterations: u64,
    cfg: &SimPointConfig,
    exec: &Executor,
) -> SimPointRun {
    let prep = stream_prep(stream, iterations, cfg);
    simpoint_streamed_prepped(kind, entries, &prep, cfg, exec)
}

/// Telemetry for one sampled run: cluster weights (histogram + max),
/// intra-cluster variance, coverage counters, and — when the exact ratio
/// is known — the absolute estimate error. Ratios are scaled to parts
/// per million to fit the integer counter plane.
pub fn simpoint_snapshot(run: &SimPointRun, exact_ratio: Option<f64>) -> MetricsSnapshot {
    let mut snap = MetricsSnapshot::new();
    snap.add_counter("simpoint_windows", run.phases.windows() as u64);
    snap.add_counter("simpoint_clusters", run.phases.clusters.len() as u64);
    snap.add_counter("simpoint_events_total", run.phases.total_events);
    snap.add_counter("simpoint_events_measured", run.events_measured);
    snap.add_counter("simpoint_events_simulated", run.events_simulated);
    snap.add_counter("simpoint_weighted_predictions", run.estimate.predictions);
    snap.add_counter(
        "simpoint_weighted_mispredictions",
        run.estimate.mispredictions,
    );
    snap.add_counter(
        "simpoint_intra_variance_ppm",
        (run.phases.intra_variance * 1e6).round() as u64,
    );
    let mut weights = Log2Histogram::new();
    for cluster in &run.phases.clusters {
        weights.record(cluster.weight);
        snap.record_max("simpoint_max_cluster_weight", cluster.weight);
    }
    snap.merge_histogram("simpoint_cluster_weights", &weights);
    if let Some(exact) = exact_ratio {
        let err = (run.estimate.misprediction_ratio() - exact).abs();
        snap.add_counter("simpoint_estimate_error_ppm", (err * 1e6).round() as u64);
    }
    snap
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibp_isa::Addr;

    fn cfg(k: usize, window: usize) -> SimPointConfig {
        // Single-stratum config: classic one-representative-per-cluster
        // SimPoint, which is what the phase-recovery assertions pin.
        SimPointConfig {
            strata: 1,
            ..SimPointConfig::new(k, window)
        }
    }

    fn two_phase_trace() -> Trace {
        // Phase A: site X alternates two targets; phase B: site Y cycles
        // three. Windows inside a phase are near-identical, so k=2 must
        // recover the phase boundary.
        let mut events = Vec::new();
        for i in 0..400u64 {
            let t = Addr::new(0xA00 + (i % 2) * 0x100);
            events.push(BranchEvent::indirect_jmp(Addr::new(0x40), t));
        }
        for i in 0..400u64 {
            let t = Addr::new(0xF00 + (i % 3) * 0x100);
            events.push(BranchEvent::indirect_jmp(Addr::new(0x80), t));
        }
        events.into_iter().collect()
    }

    #[test]
    fn signatures_count_windows_and_events() {
        let trace = two_phase_trace();
        let set = signatures_of(&trace, &cfg(2, 100));
        assert_eq!(set.windows(), 8);
        assert_eq!(set.total_events(), 800);
        assert_eq!(set.total_mt(), 800);
        let event_sum: u64 = set.signatures().iter().map(|s| s.events as u64).sum();
        assert_eq!(event_sum, 800);
        // Partial last window keeps its real size.
        let set = signatures_of(&trace, &cfg(2, 300));
        assert_eq!(set.windows(), 3);
        assert_eq!(set.signatures()[2].events, 200);
    }

    #[test]
    fn clustering_recovers_the_phases() {
        let trace = two_phase_trace();
        let set = signatures_of(&trace, &cfg(2, 100));
        let phases = cluster_signatures(&set, &cfg(2, 100));
        assert_eq!(phases.clusters.len(), 2);
        let weights: Vec<u64> = phases.clusters.iter().map(|c| c.weight).collect();
        assert_eq!(weights.iter().sum::<u64>(), 8);
        // The two phases are 4 windows each.
        assert_eq!(weights, vec![4, 4]);
        // Windows 0..4 share a cluster; 4..8 share the other.
        assert_eq!(phases.assignments[0], phases.assignments[3]);
        assert_eq!(phases.assignments[4], phases.assignments[7]);
        assert_ne!(phases.assignments[0], phases.assignments[4]);
        assert!(phases.intra_variance < 1e-3, "{}", phases.intra_variance);
    }

    #[test]
    fn strata_split_clusters_in_time_order() {
        let trace = two_phase_trace();
        let c = SimPointConfig {
            strata: 2,
            ..SimPointConfig::new(2, 100)
        };
        let set = signatures_of(&trace, &c);
        let phases = cluster_signatures(&set, &c);
        // Two phases of four windows, two strata each: four units of
        // weight two, and each unit's representative sits inside it.
        assert_eq!(phases.clusters.len(), 4);
        for cluster in &phases.clusters {
            assert_eq!(cluster.weight, 2);
        }
        let weight_sum: u64 = phases.clusters.iter().map(|c| c.weight).sum();
        assert_eq!(weight_sum, 8);
        for (w, &unit) in phases.assignments.iter().enumerate() {
            let rep = phases.clusters[unit as usize].representative;
            // Strata are time-contiguous runs of a cluster's members, so
            // a window and its unit's representative are close in time.
            assert!((rep as i64 - w as i64).abs() <= 2, "window {w} rep {rep}");
        }
    }

    #[test]
    fn k_clamps_to_window_count() {
        let trace = two_phase_trace();
        let set = signatures_of(&trace, &cfg(64, 100));
        let phases = cluster_signatures(&set, &cfg(64, 100));
        assert!(phases.clusters.len() <= 8);
        let weight_sum: u64 = phases.clusters.iter().map(|c| c.weight).sum();
        assert_eq!(weight_sum, 8);
    }

    #[test]
    fn empty_stream_is_empty_phases() {
        let set = signatures_of(&Trace::new(), &SimPointConfig::default());
        let phases = cluster_signatures(&set, &SimPointConfig::default());
        assert_eq!(phases.windows(), 0);
        assert!(phases.clusters.is_empty());
        let exec = Executor::new(1);
        let run = simpoint_trace(
            PredictorKind::Btb,
            2048,
            &Trace::new(),
            &SimPointConfig::default(),
            &exec,
        );
        assert_eq!(run.estimate.predictions, 0);
        assert_eq!(run.estimate.misprediction_ratio(), 0.0);
        assert_eq!(run.sampled_fraction(), 0.0);
    }

    #[test]
    fn single_window_estimate_equals_full_run() {
        // A stream shorter than one window has exactly one cluster of
        // weight one whose representative is the whole stream: the
        // estimate must equal the full simulation, bit for bit.
        let trace = two_phase_trace();
        let c = cfg(4, 4096);
        let exec = Executor::new(1);
        let sampled = simpoint_trace(PredictorKind::PpmHyb, 2048, &trace, &c, &exec);
        let full = PredictorKind::PpmHyb.simulate_events(2048, trace.iter().copied());
        assert_eq!(sampled.phases.clusters.len(), 1);
        assert_eq!(sampled.estimate.predictions, full.predictions());
        assert_eq!(sampled.estimate.mispredictions, full.mispredictions());
    }

    #[test]
    fn parse_flag_round_trips_and_rejects() {
        let c = SimPointConfig::parse_flag("k=8,window=1024").unwrap();
        assert_eq!((c.k, c.window), (8, 1024));
        assert_eq!(c.warmup_windows, SimPointConfig::default().warmup_windows);
        let c2 = SimPointConfig::parse_flag(&c.flag_string()).unwrap();
        assert_eq!(c, c2);
        let c = SimPointConfig::parse_flag("window=512,warmup=2,k=3,dims=32").unwrap();
        assert_eq!((c.k, c.window, c.warmup_windows, c.dims), (3, 512, 2, 32));
        for bad in ["k", "k=0", "window=0", "k=x", "depth=3", "k=1;window=2"] {
            assert!(SimPointConfig::parse_flag(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn warmup_spans_clamp_at_stream_head() {
        let c = SimPointConfig {
            warmup_windows: 4,
            window: 100,
            ..SimPointConfig::default()
        };
        assert_eq!(window_span(0, 1000, &c), (0, 0, 100));
        assert_eq!(window_span(2, 1000, &c), (0, 200, 300));
        assert_eq!(window_span(9, 950, &c), (500, 900, 950));
    }

    #[test]
    fn snapshot_reports_weights_and_error() {
        let trace = two_phase_trace();
        let exec = Executor::new(1);
        let run = simpoint_trace(PredictorKind::Btb, 2048, &trace, &cfg(2, 100), &exec);
        let full = PredictorKind::Btb.simulate_events(2048, trace.iter().copied());
        let snap = simpoint_snapshot(&run, Some(full.misprediction_ratio()));
        assert_eq!(snap.counter("simpoint_windows"), 8);
        assert_eq!(snap.counter("simpoint_clusters"), 2);
        assert_eq!(snap.counter("simpoint_events_total"), 800);
        assert!(snap.counter("simpoint_weighted_predictions") > 0);
        // 2 clusters of weight 4 → histogram count 2, total 8.
        let h = snap.histogram("simpoint_cluster_weights").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.total(), 8);
    }
}
