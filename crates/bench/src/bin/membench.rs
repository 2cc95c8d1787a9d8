//! membench — per-session predictor memory footprint across the full
//! serve lineup, as a byte-deterministic report (committed as
//! `results/BENCH_memory.json`).
//!
//! For every predictor kind on the serve plane, measures what one tenant
//! session actually costs resident, three ways:
//!
//! * **private plain** — the pre-memory-plane baseline: a private
//!   stepper with plain (unquantized) tables, warmed through the shared
//!   prefix and its own per-session slice;
//! * **private compact** — the same session on quantized-counter,
//!   slot-packed tables;
//! * **tier fork** — the multi-tenant path: a [`BaseTier`] warmed once
//!   through the shared prefix, the session forked from it (compact
//!   encoding) and stepped only through its own slice, so it is charged
//!   for its copy-on-write delta rather than the whole table.
//!
//! It also records the fork's snapshot blob size (delta-sized, not
//! base-sized) and checks that the blob restores with the fork's event
//! count. Codec speed is measured by ibpbench's `snapshot.*` layer.
//!
//! Prints the per-kind table on stderr and the JSON report on stdout.
//! Exits 1 if a blob fails to restore, or unless the summed tier forks
//! undercut the summed private plain sessions.
//!
//! Usage: `cargo run --release -p ibp-bench --bin membench > BENCH_memory.json`

use ibp_sim::{snapshot_session, BaseTier, Json, PredictorKind, TableEncoding};
use ibp_trace::BranchEvent;
use ibp_workloads::paper_suite;

/// Table entries per session.
const ENTRIES: usize = 2048;
/// Events of the shared prefix every tenant sees.
const WARMUP: usize = 4096;
/// Events of each session's own slice.
const SESSION_EVENTS: usize = 512;

/// The deterministic workload: the paper suite's `gs.tig` run, the same
/// source the serve load generator replays.
fn load_events(total: usize) -> Vec<BranchEvent> {
    let run = paper_suite()
        .into_iter()
        .find(|r| r.label() == "gs.tig")
        .unwrap_or_else(|| {
            eprintln!("paper suite lost its gs.tig run");
            std::process::exit(1);
        });
    let trace = run.generate();
    trace.iter().copied().cycle().take(total).collect()
}

struct KindRow {
    label: String,
    private_plain: usize,
    private_compact: usize,
    tier_fork: usize,
    tier_base: usize,
    snapshot_bytes: usize,
}

fn measure(kind: PredictorKind, events: &[BranchEvent]) -> Result<KindRow, String> {
    let (warmup, session) = events.split_at(WARMUP.min(events.len()));

    // The private baselines see warmup + session: one tenant owning the
    // whole table must learn everything itself.
    let mut plain = kind.session_stepper_with(ENTRIES, TableEncoding::Plain);
    plain.step_counted(warmup);
    plain.step_counted(session);
    let mut compact = kind.session_stepper_with(ENTRIES, TableEncoding::Compact);
    compact.step_counted(warmup);
    compact.step_counted(session);

    // The tier fork shares the warmup through the sealed base and is
    // charged only for the delta its own slice wrote.
    let tier = BaseTier::warm(kind, ENTRIES, TableEncoding::Compact, warmup);
    let mut fork = tier.session();
    fork.step_counted(session);

    let blob = snapshot_session(kind, ENTRIES, tier.encoding(), fork.as_ref());
    let restored = tier
        .restore(&blob)
        .map_err(|e| format!("{}: restore failed: {e:?}", kind.label()))?;
    if restored.events() != fork.events() {
        return Err(format!(
            "{}: restored session carries {} events, the fork {}",
            kind.label(),
            restored.events(),
            fork.events()
        ));
    }

    Ok(KindRow {
        label: kind.label(),
        private_plain: plain.resident_bytes(),
        private_compact: compact.resident_bytes(),
        tier_fork: fork.resident_bytes(),
        tier_base: tier.prototype_resident_bytes(),
        snapshot_bytes: blob.len(),
    })
}

fn main() {
    let events = load_events(WARMUP + SESSION_EVENTS);
    let mut rows = Vec::new();
    for kind in PredictorKind::serve_lineup() {
        let row = measure(kind, &events).unwrap_or_else(|msg| {
            eprintln!("{msg}");
            std::process::exit(1);
        });
        eprintln!(
            "{:<16} private {:>9} B plain / {:>9} B compact | tier fork {:>8} B (base {:>9} B) | snapshot {:>7} B",
            row.label,
            row.private_plain,
            row.private_compact,
            row.tier_fork,
            row.tier_base,
            row.snapshot_bytes,
        );
        rows.push(row);
    }

    let sum_plain: usize = rows.iter().map(|r| r.private_plain).sum();
    let sum_compact: usize = rows.iter().map(|r| r.private_compact).sum();
    let sum_fork: usize = rows.iter().map(|r| r.tier_fork).sum();
    eprintln!(
        "lineup sum: private plain {} B, private compact {} B, tier fork {} B ({:.1}x smaller than plain)",
        sum_plain,
        sum_compact,
        sum_fork,
        sum_plain as f64 / sum_fork.max(1) as f64,
    );

    let json = Json::obj([
        ("bench", Json::Str("memory".to_string())),
        ("entries", Json::UInt(ENTRIES as u64)),
        ("warmup_events", Json::UInt(WARMUP as u64)),
        ("session_events", Json::UInt(SESSION_EVENTS as u64)),
        (
            "kinds",
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::obj([
                            ("kind", Json::Str(r.label.clone())),
                            ("private_plain_bytes", Json::UInt(r.private_plain as u64)),
                            ("private_compact_bytes", Json::UInt(r.private_compact as u64)),
                            ("tier_fork_bytes", Json::UInt(r.tier_fork as u64)),
                            ("tier_base_bytes", Json::UInt(r.tier_base as u64)),
                            ("snapshot_bytes", Json::UInt(r.snapshot_bytes as u64)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "summary",
            Json::obj([
                ("sum_private_plain_bytes", Json::UInt(sum_plain as u64)),
                ("sum_private_compact_bytes", Json::UInt(sum_compact as u64)),
                ("sum_tier_fork_bytes", Json::UInt(sum_fork as u64)),
                (
                    "plain_over_fork",
                    Json::Num(sum_plain as f64 / sum_fork.max(1) as f64),
                ),
            ]),
        ),
    ]);
    println!("{}", json.emit());
    if sum_fork >= sum_plain {
        eprintln!(
            "tier forks ({sum_fork} B summed) do not undercut private plain sessions \
             ({sum_plain} B summed)"
        );
        std::process::exit(1);
    }
}
