//! Per-layer probes for the traced run: each times calls into one
//! layer's public functions, from this file, on the workload's own
//! inputs.

use crate::grid::elapsed_ns;
use crate::report::{value, Value};
use crate::serve::{Feed, Shape, BATCH, ENTRIES, KIND};
use crate::spans::Spans;
use ibp_hw::HardwareCost;
use ibp_isa::Addr;
use ibp_predictors::IndirectPredictor;
use ibp_sim::{simulate, snapshot_session, BaseTier, PredictorKind, SessionStepper, TableEncoding};
use ibp_trace::wire::{get_event, put_event, EventDeltaState, WireReader};
use ibp_trace::{BranchEvent, Trace};
use ibp_workloads::BenchmarkSpec;
use std::hint::black_box;
use std::time::Instant;

/// Kinds whose `predict`/`update`/`observe` calls are timed one by one.
pub const CALL_KINDS: [PredictorKind; 3] = [
    PredictorKind::PpmHyb,
    PredictorKind::Ittage64(64),
    PredictorKind::Cascade,
];

/// One in this many calls is timed on its own.
const CALL_SAMPLING: u64 = 64;

/// Batches the stepper probe feeds before it starts timing, then times.
const STEPPER_BATCHES: u64 = 8192;

/// Sessions snapshotted and restored, each after this many batches.
const SNAPSHOT_SESSIONS: usize = 128;
const SNAPSHOT_BATCHES: u64 = 32;

/// A metric-safe name for a kind: its command-line name with `:`
/// spelled `-` (`oracle-pib:8` → `oracle-pib-8`).
pub fn kind_name(kind: PredictorKind) -> String {
    kind.cli_name().replace(':', "-")
}

/// A predictor that never predicts and keeps no state: what is left of
/// a simulation is the runner's own loop.
struct NullPredictor;

impl IndirectPredictor for NullPredictor {
    fn name(&self) -> String {
        "null".to_string()
    }
    fn predict(&mut self, _pc: Addr) -> Option<Addr> {
        None
    }
    fn update(&mut self, _pc: Addr, _actual: Addr) {}
    fn observe(&mut self, _event: &BranchEvent) {}
    fn cost(&self) -> HardwareCost {
        HardwareCost::table(0, 0)
    }
    fn reset(&mut self) {}
}

fn per_event(ns: u64, events: u64) -> f64 {
    ns as f64 / events.max(1) as f64
}

/// What every probe runs on: the workload's specs at a sample scale.
pub struct Sample {
    pub specs: Vec<BenchmarkSpec>,
    pub scale: f64,
}

/// Runs every probe. `feed` is the workload's batch schedule source
/// (its own traces for the serving workloads, the sample otherwise);
/// `shape` is its session layout. Failures of the probes' own
/// correctness checks are returned alongside the values.
pub fn run(
    sample: &Sample,
    feed: Option<&[Trace]>,
    shape: &Shape,
    spans: &Spans,
) -> (Vec<Value>, Vec<String>) {
    let mut out = Vec::new();
    let mut failures = Vec::new();

    let t = Instant::now();
    let traces: Vec<Trace> = sample
        .specs
        .iter()
        .map(|s| s.generate_scaled(sample.scale))
        .collect();
    let gen_ns = elapsed_ns(t);
    let events: u64 = traces.iter().map(|t| t.len() as u64).sum();
    out.push(value(
        "workloads.generate_ns_per_event",
        "ns",
        per_event(gen_ns, events),
    ));

    let t = Instant::now();
    let mut streamed = 0u64;
    for spec in &sample.specs {
        let mut stream = spec.stream();
        for _ in 0..spec.scaled_iterations(sample.scale) {
            streamed += stream.step(|e| {
                black_box(e);
            });
        }
    }
    out.push(value(
        "workloads.stream_ns_per_event",
        "ns",
        per_event(elapsed_ns(t), streamed),
    ));

    let t = Instant::now();
    for trace in &traces {
        black_box(simulate(&mut NullPredictor, trace));
    }
    out.push(value(
        "sim.loop_ns_per_event",
        "ns",
        per_event(elapsed_ns(t), events),
    ));

    for kind in PredictorKind::serve_lineup() {
        let t = Instant::now();
        for trace in &traces {
            black_box(kind.simulate_trace(trace));
        }
        let name = format!("predictors.{}.ns_per_event", kind_name(kind));
        out.push(value(name, "ns", per_event(elapsed_ns(t), events)));
    }
    let timer_ns = timer_cost_ns();
    for kind in CALL_KINDS {
        out.extend(call_costs(kind, &traces, timer_ns, spans));
    }

    let (wire, wire_ok) = wire_costs(&traces);
    out.extend(wire);
    if !wire_ok {
        failures.push("wire decode did not reproduce the encoded events".to_string());
    }

    let feed_traces = feed.unwrap_or(&traces);
    let steps = stepper_ns_per_event(&Feed::new(feed_traces, shape.streams), shape);
    out.push(value("stepper.ns_per_event", "ns", steps));
    match snapshot_costs(&Feed::new(feed_traces, crate::serve::FLEET.streams)) {
        Ok(values) => out.extend(values),
        Err(e) => failures.push(e),
    }
    (out, failures)
}

/// The median cost of one `Instant::now()` / `elapsed()` pair.
fn timer_cost_ns() -> f64 {
    let mut samples: Vec<f64> = (0..10_001)
        .map(|_| {
            let t = Instant::now();
            black_box(t.elapsed().as_nanos()) as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    crate::stats::median(&samples)
}

/// Mean nanoseconds per `predict`, `update` and `observe` call through
/// the `IndirectPredictor` trait, timing one call in
/// [`CALL_SAMPLING`] and subtracting the timer's own cost. The calls
/// follow the runner's protocol exactly; only the clock reads are
/// added.
fn call_costs(kind: PredictorKind, traces: &[Trace], timer_ns: f64, spans: &Spans) -> Vec<Value> {
    let mut predictor = kind.build_with_entries(ENTRIES as usize);
    let p: &mut dyn IndirectPredictor = predictor.as_mut();
    let mut totals = [(0u64, 0u64); 3];
    let (mut seen, mut predicted) = (0u64, 0u64);
    for trace in traces {
        for e in trace.iter() {
            if e.class().is_predicted_indirect() {
                if predicted % CALL_SAMPLING == 0 {
                    let t = Instant::now();
                    black_box(p.predict(e.pc()));
                    totals[0] = (totals[0].0 + 1, totals[0].1 + elapsed_ns(t));
                    let t = Instant::now();
                    p.update(e.pc(), e.target());
                    totals[1] = (totals[1].0 + 1, totals[1].1 + elapsed_ns(t));
                } else {
                    black_box(p.predict(e.pc()));
                    p.update(e.pc(), e.target());
                }
                predicted += 1;
            }
            if seen % CALL_SAMPLING == 0 {
                let t = Instant::now();
                p.observe(e);
                totals[2] = (totals[2].0 + 1, totals[2].1 + elapsed_ns(t));
            } else {
                p.observe(e);
            }
            seen += 1;
        }
    }
    let name = kind_name(kind);
    ["predict", "update", "observe"]
        .iter()
        .zip(totals)
        .map(|(call, (count, total))| {
            spans.aggregate(&format!("predictors.{name}.{call}"), count, total);
            let mean = total as f64 / count.max(1) as f64 - timer_ns;
            value(format!("predictors.{name}.{call}_ns"), "ns", mean)
        })
        .collect()
}

/// Encode then decode every trace in 512-event batches with the wire
/// codec the serve protocol uses. Returns the per-event costs and
/// whether decoding gave back exactly the encoded events.
fn wire_costs(traces: &[Trace]) -> (Vec<Value>, bool) {
    let mut encoded: Vec<Vec<u8>> = Vec::new();
    let t = Instant::now();
    for trace in traces {
        let mut state = EventDeltaState::new();
        for batch in trace.events().chunks(BATCH) {
            let mut buf = Vec::with_capacity(batch.len() * 4);
            for e in batch {
                put_event(&mut state, e, &mut buf);
            }
            encoded.push(buf);
        }
    }
    let encode_ns = elapsed_ns(t);
    let mut decoded: Vec<BranchEvent> = Vec::with_capacity(traces.iter().map(Trace::len).sum());
    let mut ok = true;
    let t = Instant::now();
    let mut bufs = encoded.iter();
    for trace in traces {
        let mut state = EventDeltaState::new();
        for _ in trace.events().chunks(BATCH) {
            let Some(buf) = bufs.next() else { break };
            let mut reader = WireReader::new(buf);
            while !reader.is_empty() {
                match get_event(&mut state, &mut reader) {
                    Ok(e) => decoded.push(e),
                    Err(_) => {
                        ok = false;
                        break;
                    }
                }
            }
        }
    }
    let decode_ns = elapsed_ns(t);
    ok &= traces
        .iter()
        .flat_map(|t| t.iter().copied())
        .eq(decoded.iter().copied());
    let events = decoded.len() as u64;
    (
        vec![
            value(
                "trace.wire_encode_ns_per_event",
                "ns",
                per_event(encode_ns, events),
            ),
            value(
                "trace.wire_decode_ns_per_event",
                "ns",
                per_event(decode_ns, events),
            ),
        ],
        ok,
    )
}

fn sessions(shape: &Shape, n: usize) -> Vec<Box<dyn SessionStepper>> {
    if shape.compact {
        let tier = BaseTier::warm(KIND, ENTRIES as usize, TableEncoding::Compact, &[]);
        (0..n).map(|_| tier.session()).collect()
    } else {
        (0..n)
            .map(|_| KIND.session_stepper(ENTRIES as usize))
            .collect()
    }
}

/// `SessionStepper::step_counted` in process, over the workload's own
/// batch sequence and session count — what the server does per batch
/// minus sockets, framing, decode and the reactor. The first
/// [`STEPPER_BATCHES`] batches only warm the sessions, as the server's
/// are warm for most of a run.
fn stepper_ns_per_event(feed: &Feed, shape: &Shape) -> f64 {
    let mut sessions = sessions(shape, shape.streams);
    let mut batch = Vec::with_capacity(BATCH);
    let mut ns = 0u64;
    for b in 0..2 * STEPPER_BATCHES {
        let s = feed.batch(b, &mut batch);
        let t = Instant::now();
        sessions[s].step_counted(&batch);
        if b >= STEPPER_BATCHES {
            ns += elapsed_ns(t);
        }
    }
    per_event(ns, STEPPER_BATCHES * BATCH as u64)
}

/// Save and restore of fleet-shaped sessions (compact tables forked
/// from a sealed base tier, 16K events each), the way the server spills
/// and revives them.
fn snapshot_costs(feed: &Feed) -> Result<Vec<Value>, String> {
    let tier = BaseTier::warm(KIND, ENTRIES as usize, TableEncoding::Compact, &[]);
    let streams = crate::serve::FLEET.streams as u64;
    let mut batch = Vec::with_capacity(BATCH);
    let (mut save, mut restore, mut bytes) = (Vec::new(), Vec::new(), 0u64);
    for s in 0..SNAPSHOT_SESSIONS as u64 {
        let mut session = tier.session();
        for k in 0..SNAPSHOT_BATCHES {
            feed.batch(k * streams + s, &mut batch);
            session.step_counted(&batch);
        }
        let t = Instant::now();
        let blob = snapshot_session(
            KIND,
            ENTRIES as usize,
            TableEncoding::Compact,
            session.as_ref(),
        );
        save.push(elapsed_ns(t) as f64 / 1e3);
        let t = Instant::now();
        let revived = tier
            .restore(&blob)
            .map_err(|e| format!("snapshot restore failed: {e}"))?;
        restore.push(elapsed_ns(t) as f64 / 1e3);
        if revived.run_result() != session.run_result() || revived.events() != session.events() {
            return Err(format!("session {s} restored with different state"));
        }
        bytes += blob.len() as u64;
    }
    Ok(vec![
        value("snapshot.save_us", "us", crate::stats::median(&save)),
        value("snapshot.restore_us", "us", crate::stats::median(&restore)),
        value(
            "snapshot.blob_bytes",
            "bytes",
            bytes as f64 / SNAPSHOT_SESSIONS as f64,
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_probe_round_trips() {
        let traces: Vec<Trace> = crate::inputs::suite(0)[..2]
            .iter()
            .map(|s| s.generate_scaled(0.01))
            .collect();
        let (values, ok) = wire_costs(&traces);
        assert!(ok);
        assert_eq!(values.len(), 2);
    }
}
