//! Metric declarations, the per-run report, and the tools that read
//! reports back: `--check`, `compare`, `spread`, `overhead` and
//! `golden`.

use crate::inputs::Pool;
use crate::spans::Spans;
use crate::stats::{median, quartiles};
use ibp_sim::{Json, PredictorKind};
use ibp_trace::Trace;
use std::path::Path;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// An end-to-end metric: what a user of the system sees, with the share
/// of the parent's median by which it may worsen before a change counts
/// as a regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "events_per_s",
        unit: "events/s",
        better: Better::Higher,
        bound: 0.2,
    },
    EndToEnd {
        name: "latency_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.2,
    },
    EndToEnd {
        name: "latency_p95_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.2,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.1,
    },
];

/// Every per-layer metric a traced run emits, in report order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = [
        ("workloads.generate_ns_per_event", "ns"),
        ("workloads.stream_ns_per_event", "ns"),
        ("exec.busy_s", "s"),
        ("exec.idle_s", "s"),
        ("exec.tasks", "count"),
        ("sim.loop_ns_per_event", "ns"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for kind in PredictorKind::serve_lineup() {
        v.push((
            format!("predictors.{}.ns_per_event", crate::probes::kind_name(kind)),
            "ns",
        ));
    }
    for kind in crate::probes::CALL_KINDS {
        for call in ["predict", "update", "observe"] {
            v.push((
                format!("predictors.{}.{call}_ns", crate::probes::kind_name(kind)),
                "ns",
            ));
        }
    }
    for (n, u) in [
        ("simpoint.signature_s", "s"),
        ("simpoint.cluster_s", "s"),
        ("simpoint.checkpoint_s", "s"),
        ("simpoint.window_sim_s", "s"),
        ("simpoint.events_simulated", "count"),
        ("simpoint.units", "count"),
        ("simpoint.sampled_fraction", "ratio"),
        ("trace.wire_encode_ns_per_event", "ns"),
        ("trace.wire_decode_ns_per_event", "ns"),
        ("stepper.ns_per_event", "ns"),
        ("snapshot.save_us", "us"),
        ("snapshot.restore_us", "us"),
        ("snapshot.blob_bytes", "bytes"),
        ("client.send_us", "us"),
        ("client.wait_us", "us"),
        ("serve.service_us", "us"),
        ("serve.overhead_us", "us"),
        ("serve.frames", "count"),
        ("serve.frame_bytes", "bytes"),
        ("serve.spilled", "count"),
        ("serve.restored", "count"),
        ("serve.spill_bytes", "bytes"),
        ("serve.restore_bytes", "bytes"),
        ("serve.peak_resident_bytes", "bytes"),
    ] {
        v.push((n.to_string(), u));
    }
    v
}

/// A named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    pub name: String,
    pub unit: String,
    pub value: f64,
}

pub fn value(name: impl Into<String>, unit: &str, value: f64) -> Value {
    Value {
        name: name.into(),
        unit: unit.to_string(),
        value,
    }
}

pub fn find<'a>(values: &'a [Value], name: &str) -> Option<&'a Value> {
    values.iter().find(|v| v.name == name)
}

/// What a workload run is given.
pub struct Ctx<'a> {
    pub seed: u64,
    /// How long the timed phase should last.
    pub budget: Duration,
    /// Size multiplier: 1 normally, 1/20 for `--smoke`.
    pub factor: f64,
    pub spans: &'a Spans,
    pub pool: &'a Pool,
    pub started: Instant,
}

/// One slice of a timed phase: a rep, or a run of consecutive requests.
/// Every timing metric is computed per window first.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Window {
    pub events: u64,
    pub wall_ns: u64,
    pub latency_ns: Vec<u64>,
}

/// What a workload run hands back for reporting.
pub struct Outcome {
    /// The input size, part of the golden-digest key.
    pub size: String,
    /// What one latency sample times.
    pub latency_of: &'static str,
    pub digest: String,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub setup_s: Vec<f64>,
    /// Process start to the first timed operation.
    pub startup_s: f64,
    pub windows: Vec<Window>,
    pub extra: Vec<Value>,
    /// Per-layer values measured on the workload's own path.
    pub layers: Vec<Value>,
    /// The traces a serving workload replayed, for the stepper probes.
    pub feed_traces: Vec<Trace>,
}

impl Outcome {
    pub fn new(size: String, latency_of: &'static str) -> Self {
        Outcome {
            size,
            latency_of,
            digest: String::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            setup_s: Vec::new(),
            startup_s: 0.0,
            windows: Vec::new(),
            extra: Vec::new(),
            layers: Vec::new(),
            feed_traces: Vec::new(),
        }
    }
}

/// One run's report: the result line's four keys plus what `compare`,
/// `spread`, `overhead` and `golden` need.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    pub size: String,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Value>,
    pub extra: Vec<Value>,
    pub digest: String,
    pub golden: String,
    pub failures: Vec<String>,
}

fn values_json(values: &[Value]) -> Json {
    Json::Obj(
        values
            .iter()
            .map(|v| {
                let body = Json::obj([
                    ("value", Json::Num(v.value)),
                    ("unit", Json::Str(v.unit.clone())),
                ]);
                (v.name.clone(), body)
            })
            .collect(),
    )
}

fn values_from(json: Option<&Json>, what: &str) -> Result<Vec<Value>, String> {
    let Some(Json::Obj(pairs)) = json else {
        return Err(format!("`{what}` is not an object"));
    };
    pairs
        .iter()
        .map(|(name, body)| {
            let unit = body.get("unit").and_then(Json::as_str);
            let v = body.get("value").and_then(Json::as_f64);
            match (unit, v) {
                (Some(unit), Some(v)) => Ok(value(name.clone(), unit, v)),
                (None, _) => Err(format!("{what}.{name} has no unit")),
                (_, None) => Err(format!("{what}.{name} has no numeric value")),
            }
        })
        .collect()
}

impl Report {
    /// The line the benchmark prints last: exactly `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::UInt(self.attempted)),
            ("failed", Json::UInt(self.failed)),
            ("metrics", values_json(&self.metrics)),
        ])
        .emit()
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::UInt(self.attempted)),
            ("failed", Json::UInt(self.failed)),
            ("metrics", values_json(&self.metrics)),
            ("workload", Json::Str(self.workload.clone())),
            ("seed", Json::UInt(self.seed)),
            ("seconds", Json::UInt(self.seconds)),
            ("traced", Json::Bool(self.traced)),
            ("size", Json::Str(self.size.clone())),
            ("digest", Json::Str(self.digest.clone())),
            ("golden", Json::Str(self.golden.clone())),
            ("extra", values_json(&self.extra)),
            (
                "failures",
                Json::Arr(self.failures.iter().cloned().map(Json::Str).collect()),
            ),
        ])
    }

    pub fn from_json(json: &Json) -> Result<Report, String> {
        let str_of = |k: &str| {
            json.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or(format!("missing `{k}`"))
        };
        let u64_of = |k: &str| {
            json.get(k)
                .and_then(Json::as_u64)
                .ok_or(format!("missing `{k}`"))
        };
        let bool_of = |k: &str| match json.get(k) {
            Some(Json::Bool(b)) => Ok(*b),
            _ => Err(format!("missing `{k}`")),
        };
        Ok(Report {
            workload: str_of("workload")?,
            seed: u64_of("seed")?,
            seconds: u64_of("seconds")?,
            traced: bool_of("traced")?,
            size: str_of("size")?,
            correct: bool_of("correct")?,
            attempted: u64_of("attempted")?,
            failed: u64_of("failed")?,
            metrics: values_from(json.get("metrics"), "metrics")?,
            extra: values_from(json.get("extra"), "extra")?,
            digest: str_of("digest")?,
            golden: str_of("golden")?,
            failures: json
                .get("failures")
                .and_then(Json::as_arr)
                .unwrap_or(&[])
                .iter()
                .filter_map(|f| f.as_str().map(str::to_string))
                .collect(),
        })
    }
}

/// Where a run's digest sits in the golden file.
pub fn golden_key(workload: &str, size: &str, seed: u64) -> String {
    format!("{workload}/{size}/seed{seed}")
}

/// Validates a report (or a bare result line): the four result keys,
/// and every declared metric present, named, with its declared unit and
/// a finite value. Traced reports are held to the per-layer list,
/// others to the end-to-end list.
pub fn check(text: &str) -> Result<String, String> {
    let json = Json::parse(
        text.lines()
            .rev()
            .find(|l| !l.trim().is_empty())
            .unwrap_or(""),
    )
    .or_else(|_| Json::parse(text))
    .map_err(|e| format!("not JSON: {e}"))?;
    let correct = match json.get("correct") {
        Some(Json::Bool(b)) => *b,
        _ => return Err("`correct` is missing or not a boolean".to_string()),
    };
    let attempted = json
        .get("attempted")
        .and_then(Json::as_u64)
        .ok_or("`attempted` is missing or not a whole number")?;
    let failed = json
        .get("failed")
        .and_then(Json::as_u64)
        .ok_or("`failed` is missing or not a whole number")?;
    if attempted == 0 || failed > attempted {
        return Err(format!(
            "attempted {attempted} / failed {failed} is not a valid count"
        ));
    }
    let Some(Json::Obj(metrics)) = json.get("metrics") else {
        return Err("`metrics` is missing or not an object".to_string());
    };
    let traced = match json.get("traced") {
        Some(Json::Bool(b)) => *b,
        _ => !metrics.iter().any(|(n, _)| n == END_TO_END[0].name),
    };
    let declared: Vec<(String, &str)> = if traced {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), m.unit))
            .collect()
    };
    for (name, unit) in &declared {
        let body = metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, b)| b)
            .ok_or(format!("metric {name} is missing"))?;
        match body.get("unit").and_then(Json::as_str) {
            Some(u) if u == *unit => {}
            Some(u) => return Err(format!("metric {name} has unit {u:?}, declared {unit:?}")),
            None => return Err(format!("metric {name} has no unit")),
        }
        match body.get("value").and_then(Json::as_f64) {
            Some(v) if v.is_finite() => {}
            _ => return Err(format!("metric {name} has no finite value")),
        }
    }
    Ok(format!(
        "ok: {} {} metrics, correct={correct}, {failed}/{attempted} failed",
        declared.len(),
        if traced { "per-layer" } else { "end-to-end" }
    ))
}

/// Every report under `dir` (subdirectories included), in path order.
pub fn load_dir(dir: &Path) -> Result<Vec<Report>, String> {
    let mut paths = Vec::new();
    let mut dirs = vec![dir.to_path_buf()];
    while let Some(d) = dirs.pop() {
        for entry in
            std::fs::read_dir(&d).map_err(|e| format!("cannot read {}: {e}", d.display()))?
        {
            let path = entry
                .map_err(|e| format!("cannot read {}: {e}", d.display()))?
                .path();
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|x| x == "json") {
                paths.push(path);
            }
        }
    }
    paths.sort();
    paths.iter().map(|p| load(p)).collect()
}

pub fn load(path: &Path) -> Result<Report, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let json = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    Report::from_json(&json).map_err(|e| format!("{}: {e}", path.display()))
}

fn metric_values(reports: &[&Report], name: &str) -> Vec<f64> {
    reports
        .iter()
        .filter_map(|r| find(&r.metrics, name).map(|v| v.value))
        .collect()
}

fn workloads_of(reports: &[Report]) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    for r in reports {
        if !names.contains(&r.workload) {
            names.push(r.workload.clone());
        }
    }
    names
}

/// `compare PARENT CHANGE`: the paired rule, per workload row and
/// end-to-end metric. Runs are paired in path order (the i-th parent
/// run of a workload with its i-th change run), so each side's runs
/// should sit in matching `run-NN/` directories or carry matching
/// seeds, and the two commits' runs should have alternated.
pub fn compare(parent: &[Report], change: &[Report]) -> String {
    let mut out = String::new();
    for workload in workloads_of(parent) {
        let p: Vec<&Report> = parent
            .iter()
            .filter(|r| r.workload == workload && !r.traced)
            .collect();
        let c: Vec<&Report> = change
            .iter()
            .filter(|r| r.workload == workload && !r.traced)
            .collect();
        if !p.is_empty() && !c.is_empty() {
            out.push_str(&compare_e2e(&workload, &p, &c));
        }
        let p: Vec<&Report> = parent
            .iter()
            .filter(|r| r.workload == workload && r.traced)
            .collect();
        let c: Vec<&Report> = change
            .iter()
            .filter(|r| r.workload == workload && r.traced)
            .collect();
        if !p.is_empty() && !c.is_empty() {
            out.push_str(&compare_counts(&workload, &p, &c));
        }
    }
    out
}

fn compare_e2e(workload: &str, parent: &[&Report], change: &[&Report]) -> String {
    let pairs = parent.len().min(change.len());
    let mut out = format!(
        "{workload}: {pairs} pairs{}\n",
        if pairs < 10 {
            " (fewer than 10: no claim)"
        } else {
            ""
        }
    );
    out.push_str(&format!(
        "  {:<16} {:>36} {:>36} {:>7} {:>8} {:>6}  verdict\n",
        "metric", "parent q1 / median / q3", "change q1 / median / q3", "wins", "Δmedian", "bound"
    ));
    for m in END_TO_END {
        let p = metric_values(&parent[..pairs], m.name);
        let c = metric_values(&change[..pairs], m.name);
        if p.len() != pairs || c.len() != pairs || pairs == 0 {
            out.push_str(&format!("  {:<16} missing in some reports\n", m.name));
            continue;
        }
        let (p1, pm, p3) = quartiles(&p);
        let (c1, cm, c3) = quartiles(&c);
        let better = |a: f64, b: f64| match m.better {
            Better::Higher => a > b,
            Better::Lower => a < b,
        };
        let wins = p
            .iter()
            .zip(&c)
            .filter(|(pv, cv)| better(**cv, **pv))
            .count();
        let win_frac = wins as f64 / pairs as f64;
        let delta = (cm - pm) / pm;
        let worse_by = match m.better {
            Better::Higher => -delta,
            Better::Lower => delta,
        };
        let all_better = c.iter().all(|cv| p.iter().all(|pv| better(*cv, *pv)));
        let verdict = if (p3 - p1) / pm > m.bound && !all_better {
            "unresolved (parent spread exceeds the bound)"
        } else if pairs >= 10 && win_frac >= 0.9 && (cm - pm).abs() > p3 - p1 && worse_by < 0.0 {
            "gain"
        } else if worse_by > m.bound {
            "regression"
        } else {
            "within bound"
        };
        out.push_str(&format!(
            "  {:<16} {:>11.4e} {:>11.4e} {:>11.4e}  {:>11.4e} {:>11.4e} {:>11.4e} {:>6.0}% {:>+7.2}% {:>5.0}%  {verdict}\n",
            m.name,
            p1,
            pm,
            p3,
            c1,
            cm,
            c3,
            win_frac * 100.0,
            delta * 100.0,
            m.bound * 100.0
        ));
    }
    out
}

/// Per-layer counters compared exactly; per-layer times by median.
fn compare_counts(workload: &str, parent: &[&Report], change: &[&Report]) -> String {
    let mut out = format!(
        "{workload} (traced): {} parent / {} change runs\n",
        parent.len(),
        change.len()
    );
    for (name, unit) in per_layer() {
        let p = metric_values(parent, &name);
        let c = metric_values(change, &name);
        if p.is_empty() || c.is_empty() {
            continue;
        }
        let (pm, cm) = (median(&p), median(&c));
        let verdict = if !matches!(unit, "count" | "bytes") {
            format!(
                "median {pm:.4e} -> {cm:.4e} ({:+.1}%)",
                (cm - pm) / pm * 100.0
            )
        } else if p.iter().chain(&c).all(|v| *v == p[0]) {
            format!("same ({pm})")
        } else {
            format!("differs: median {pm} -> {cm}, parent {p:?}, change {c:?}")
        };
        out.push_str(&format!("  {name:<40} {unit:<6} {verdict}\n"));
    }
    out
}

/// `spread DIR`: per workload and end-to-end metric, the distance
/// between the first and third quartile as a share of the median, next
/// to the metric's bound.
pub fn spread(reports: &[Report]) -> String {
    let mut out = String::new();
    for workload in workloads_of(reports) {
        let rs: Vec<&Report> = reports
            .iter()
            .filter(|r| r.workload == workload && !r.traced)
            .collect();
        out.push_str(&format!(
            "{workload}: {} runs, seeds {:?}\n",
            rs.len(),
            rs.iter().map(|r| r.seed).collect::<Vec<_>>()
        ));
        for m in END_TO_END {
            let v = metric_values(&rs, m.name);
            if v.is_empty() {
                continue;
            }
            let (q1, med, q3) = quartiles(&v);
            let s = (q3 - q1) / med;
            let status = if s < m.bound / 3.0 {
                "ok (< bound/3)"
            } else if s <= m.bound {
                "within bound"
            } else {
                "WIDER THAN BOUND"
            };
            out.push_str(&format!(
                "  {:<16} median {med:>12.5e} {:<9} spread {:>6.2}%  bound {:>4.0}%  {status}\n",
                m.name,
                m.unit,
                s * 100.0,
                m.bound * 100.0
            ));
        }
    }
    out
}

/// `overhead UNTRACED TRACED`: the traced run's end-to-end numbers
/// against the untraced run's.
pub fn overhead(untraced: &Report, traced: &Report) -> String {
    let mut out = format!(
        "{}: tracing overhead (traced − untraced)\n",
        untraced.workload
    );
    for m in END_TO_END {
        let (Some(u), Some(t)) = (
            find(&untraced.metrics, m.name),
            find(&traced.extra, &format!("traced.{}", m.name)),
        ) else {
            continue;
        };
        out.push_str(&format!(
            "  {:<16} untraced {:>12.5e}  traced {:>12.5e}  {:>+7.2}%\n",
            m.name,
            u.value,
            t.value,
            (t.value - u.value) / u.value * 100.0
        ));
    }
    out
}

/// `golden DIR`: the golden-digest file for every untraced report.
pub fn golden(reports: &[Report]) -> String {
    let mut entries: Vec<(String, String)> = reports
        .iter()
        .filter(|r| !r.traced && r.correct)
        .map(|r| (golden_key(&r.workload, &r.size, r.seed), r.digest.clone()))
        .collect();
    entries.sort();
    entries.dedup();
    let lines: Vec<String> = entries
        .into_iter()
        .map(|(k, d)| format!("  {}: {}", Json::Str(k).emit(), Json::Str(d).emit()))
        .collect();
    format!("{{\"digests\": {{\n{}\n}}}}\n", lines.join(",\n"))
}

/// The pinned digest for `key`, from the committed golden file.
pub fn golden_digest(key: &str) -> Option<String> {
    let json = Json::parse(include_str!("../golden.json")).expect("golden.json is valid JSON");
    json.get("digests")?.get(key)?.as_str().map(str::to_string)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(traced: bool) -> Report {
        let metrics = if traced {
            per_layer()
                .into_iter()
                .map(|(n, u)| value(n, u, 1.5))
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|m| value(m.name, m.unit, 2.5))
                .collect()
        };
        Report {
            workload: "grid".into(),
            seed: 3,
            seconds: 10,
            traced,
            size: "scale=1".into(),
            correct: true,
            attempted: 10,
            failed: 0,
            metrics,
            extra: vec![value("grid.rep_s", "s", 3.25)],
            digest: "0123456789abcdef".into(),
            golden: "missing".into(),
            failures: vec!["none really".into()],
        }
    }

    #[test]
    fn report_round_trips_through_json() {
        for traced in [false, true] {
            let r = sample(traced);
            let back = Report::from_json(&Json::parse(&r.to_json().emit()).expect("parses"))
                .expect("loads");
            assert_eq!(back, r);
            assert!(check(&r.to_json().emit()).is_ok());
            assert!(
                check(&r.result_line()).is_ok(),
                "{:?}",
                check(&r.result_line())
            );
        }
    }

    #[test]
    fn check_rejects_a_missing_metric_or_unit() {
        let mut r = sample(false);
        r.metrics.retain(|v| v.name != "latency_p95_us");
        assert!(check(&r.to_json().emit())
            .unwrap_err()
            .contains("latency_p95_us is missing"));

        let r = sample(false);
        let text = r
            .result_line()
            .replace("\"unit\":\"MiB\"", "\"units\":\"MiB\"");
        assert!(check(&text)
            .unwrap_err()
            .contains("peak_rss_mb has no unit"));

        let mut r = sample(true);
        r.metrics.retain(|v| v.name != "serve.frames");
        assert!(check(&r.to_json().emit())
            .unwrap_err()
            .contains("serve.frames is missing"));

        let mut r = sample(false);
        r.metrics[0].unit = "ev/s".into();
        assert!(check(&r.to_json().emit()).unwrap_err().contains("declared"));
    }

    /// BENCHMARK.json declares exactly the metrics this binary emits.
    #[test]
    fn benchmark_json_matches_the_declarations() {
        let json =
            Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let e2e = json
            .get("end_to_end")
            .and_then(Json::as_arr)
            .expect("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (entry, m) in e2e.iter().zip(END_TO_END) {
            assert_eq!(entry.get("name").and_then(Json::as_str), Some(m.name));
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(m.unit));
            let better = match m.better {
                Better::Higher => "higher",
                Better::Lower => "lower",
            };
            assert_eq!(entry.get("better").and_then(Json::as_str), Some(better));
            assert_eq!(entry.get("bound").and_then(Json::as_f64), Some(m.bound));
        }
        let layers = json
            .get("per_layer")
            .and_then(Json::as_arr)
            .expect("per_layer");
        // Every per-layer metric is a cost: lower is better.
        assert!(layers
            .iter()
            .all(|e| e.get("better").and_then(Json::as_str) == Some("lower")));
        let declared: Vec<(String, String)> = layers
            .iter()
            .map(|e| {
                (
                    e.get("name")
                        .and_then(Json::as_str)
                        .unwrap_or("")
                        .to_string(),
                    e.get("unit")
                        .and_then(Json::as_str)
                        .unwrap_or("")
                        .to_string(),
                )
            })
            .collect();
        let ours: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(declared, ours);
    }

    #[test]
    fn golden_file_parses() {
        assert!(Json::parse(include_str!("../golden.json")).is_ok());
    }
}
