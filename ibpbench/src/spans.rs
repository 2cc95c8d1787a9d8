//! The traced run's span recorder.
//!
//! Spans are recorded from the benchmark's own files, around its calls
//! into each layer's public functions; nothing inside the program is
//! instrumented. A span carries an id, its parent's id, a request id
//! (the serve batch both halves of a round trip belong to), a dotted
//! name whose first segment is the layer, and start/end nanoseconds
//! since the recorder was created. Per-event predictor calls are far
//! too frequent for spans and are kept as `(count, total ns)`
//! aggregates instead. Everything stays in memory until the run ends.
//!
//! With tracing off, [`Spans::span`] only calls its closure: no clock
//! reads, no lock, no allocation.

use ibp_sim::Json;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Aggregate {
    pub name: String,
    pub count: u64,
    pub total_ns: u64,
}

/// One layer's row of the traced run's table.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerRow {
    pub layer: String,
    pub spans: u64,
    pub total_s: f64,
    pub self_s: f64,
}

pub struct Spans {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    aggregates: Mutex<Vec<Aggregate>>,
}

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
            aggregates: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name` (layer = text before the
    /// first `.`), handing it the new span's id for its children.
    pub fn span<R>(
        &self,
        parent: u64,
        request: u64,
        name: &'static str,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        if !self.enabled {
            return f(0);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        let start_ns = self.now_ns();
        let r = f(id);
        let end_ns = self.now_ns();
        self.spans
            .lock()
            .expect("span recorder poisoned by a panicking task")
            .push(Span {
                id,
                parent,
                request,
                name,
                start_ns,
                end_ns,
            });
        r
    }

    /// Adds `count` calls totalling `total_ns` to the aggregate `name`.
    pub fn aggregate(&self, name: &str, count: u64, total_ns: u64) {
        if !self.enabled {
            return;
        }
        let mut aggs = self.aggregates.lock().expect("aggregate recorder poisoned");
        match aggs.iter_mut().find(|a| a.name == name) {
            Some(a) => {
                a.count += count;
                a.total_ns += total_ns;
            }
            None => aggs.push(Aggregate {
                name: name.to_string(),
                count,
                total_ns,
            }),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn snapshot(&self) -> (Vec<Span>, Vec<Aggregate>) {
        let spans = self.spans.lock().expect("span recorder poisoned").clone();
        let aggs = self
            .aggregates
            .lock()
            .expect("aggregate recorder poisoned")
            .clone();
        (spans, aggs)
    }

    /// Writes every span and aggregate as one JSON document.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        let (spans, aggs) = self.snapshot();
        let mut out = String::with_capacity(spans.len() * 96 + 64);
        out.push_str("{\"spans\":[");
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
            ));
        }
        out.push_str("],\"aggregates\":");
        let aggs = Json::Arr(
            aggs.iter()
                .map(|a| {
                    Json::obj([
                        ("name", Json::Str(a.name.clone())),
                        ("count", Json::UInt(a.count)),
                        ("total_ns", Json::UInt(a.total_ns)),
                    ])
                })
                .collect(),
        );
        out.push_str(&aggs.emit());
        out.push('}');
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }

    /// Per-layer totals and self times. A span's self time is its
    /// duration minus the part of it its children cover; children on
    /// other threads may overlap, so coverage is the union of their
    /// intervals clipped to the parent.
    pub fn layer_table(&self) -> Vec<LayerRow> {
        let (spans, aggs) = self.snapshot();
        layer_rows(&spans, &aggs)
    }
}

fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

fn layer_rows(spans: &[Span], aggs: &[Aggregate]) -> Vec<LayerRow> {
    let mut children: std::collections::BTreeMap<u64, Vec<(u64, u64)>> = Default::default();
    for s in spans {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut rows: Vec<LayerRow> = Vec::new();
    for s in spans {
        let dur = s.end_ns - s.start_ns;
        let covered = children
            .get(&s.id)
            .map_or(0, |kids| union_within(kids, s.start_ns, s.end_ns));
        let row = row_of(&mut rows, layer_of(s.name));
        row.spans += 1;
        row.total_s += dur as f64 / 1e9;
        row.self_s += dur.saturating_sub(covered) as f64 / 1e9;
    }
    for a in aggs {
        let row = row_of(&mut rows, layer_of(&a.name));
        row.total_s += a.total_ns as f64 / 1e9;
        row.self_s += a.total_ns as f64 / 1e9;
    }
    rows
}

fn row_of<'a>(rows: &'a mut Vec<LayerRow>, layer: &str) -> &'a mut LayerRow {
    let i = match rows.iter().position(|r| r.layer == layer) {
        Some(i) => i,
        None => {
            rows.push(LayerRow {
                layer: layer.to_string(),
                spans: 0,
                total_s: 0.0,
                self_s: 0.0,
            });
            rows.len() - 1
        }
    };
    &mut rows[i]
}

fn union_within(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|&(a, b)| a < b)
        .collect();
    clipped.sort_unstable();
    let mut total = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in clipped {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = cur {
        total += cb - ca;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: 0,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        // A 100 ns parent with two children overlapping on 40..60 on
        // different threads: covered = 20..80 = 60 ns, self = 40 ns.
        let spans = [
            span(1, 0, "bench.rep", 0, 100),
            span(2, 1, "sim.cell", 20, 60),
            span(3, 1, "sim.cell", 40, 80),
        ];
        let rows = layer_rows(&spans, &[]);
        let bench = rows.iter().find(|r| r.layer == "bench").expect("bench row");
        let sim = rows.iter().find(|r| r.layer == "sim").expect("sim row");
        assert!((bench.self_s - 40e-9).abs() < 1e-15);
        assert_eq!(sim.spans, 2);
        assert!((sim.self_s - 80e-9).abs() < 1e-15);
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let spans = Spans::new(false);
        assert_eq!(spans.span(0, 0, "bench.rep", |id| id), 0);
        spans.aggregate("predictors.btb.predict", 1, 10);
        assert_eq!(spans.snapshot(), (Vec::new(), Vec::new()));
    }
}
