#!/usr/bin/env bash
# Tier-1 verification: hermetic offline build + full test suite, gated by
# the in-tree static-analysis pass.
#
# The workspace is deliberately dependency-free (see README "Building &
# testing"): every dependency section in every Cargo.toml may only name
# in-tree path crates. That invariant — plus determinism, unsafe
# discipline, thread discipline, and the call-graph certifications
# (panic-, allocation- and blocking-freedom of the hot and serve
# planes, wire exhaustiveness) — is enforced mechanically by
# ibp-analyze (rules L001-L010; see DESIGN.md §9), which replaced the
# awk dependency guard that used to live here. This script is the CI
# entry point and must pass with no network access and no pre-populated
# registry cache.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== committed inputs are tracked =="
# Every committed file a later stage or --check reads must be in git:
# an untracked (e.g. gitignored) artifact passes on the machine that made
# it and fails on every fresh clone.
git ls-files --error-unmatch \
  DESIGN.md \
  results/analyze_report.json \
  results/BENCH_memory.json \
  results/BENCH_serve.json \
  results/BENCH_simpoint.json \
  results/BENCH_throughput.json \
  results/simpoint_validation.txt \
  results/storage_bits.json \
  ibpbench/golden.json > /dev/null

echo "== static analysis (ibp-analyze --deny, L001-L010) =="
# One denied run producing the machine-readable report, a second run
# proving the report is byte-deterministic, the schema/threshold gate
# on both the fresh and the committed report, and a wall-clock guard:
# the semantic pass (parse + call graph + reachability over the whole
# workspace) must stay under 10 seconds or it is too slow for CI.
analyze_dir=$(mktemp -d)
trap 'rm -rf "$analyze_dir"' EXIT
# Build first so the clock below times the pass, not a cold compile.
cargo build -q --release --offline -p ibp-analyze
analyze_t0=$(date +%s)
cargo run -q --release --offline -p ibp-analyze -- --deny --json "$analyze_dir/a.json"
cargo run -q --release --offline -p ibp-analyze -- --json "$analyze_dir/b.json"
analyze_t1=$(date +%s)
cmp "$analyze_dir/a.json" "$analyze_dir/b.json" \
  || { echo "verify: analyze report is not byte-deterministic"; exit 1; }
cargo run -q --release --offline -p ibp-analyze -- --check "$analyze_dir/a.json"
cargo run -q --release --offline -p ibp-analyze -- --check results/analyze_report.json
if [ $((analyze_t1 - analyze_t0)) -ge 10 ]; then
  echo "verify: ibp-analyze took $((analyze_t1 - analyze_t0))s (budget <10s)"
  exit 1
fi

echo "== release build (offline) =="
cargo build --release --offline

echo "== tests (offline) =="
cargo test -q --offline --workspace

echo "== benchmark unit tests (ibpbench) =="
# ibpbench is a package of its own that builds against the workspace
# crates by path, so this also proves their public APIs still serve it.
cargo test -q --offline --manifest-path ibpbench/Cargo.toml

echo "== benchmark smoke (all four workloads at 1/20 size) =="
# Every workload must run clean and reproduce its golden digest.
bash ibpbench/run.sh --smoke

echo "== throughput bench (quick) + report validation =="
# One cheap rep at a tiny trace scale: this gates that the bench runs,
# emits a report, and the report passes its own --check validator — not
# that any particular speed is reached (wall time is machine-dependent).
bench_dir=$(mktemp -d)
trap 'rm -rf "$bench_dir" "$analyze_dir"' EXIT
IBP_BENCH_DIR="$bench_dir" IBP_BENCH_REPS=1 IBP_BENCH_MIN_MS=1 IBP_BENCH_SCALE=0.005 \
  cargo bench -q --offline -p ibp-bench --bench throughput
cargo bench -q --offline -p ibp-bench --bench throughput -- \
  --check "$bench_dir/BENCH_throughput.json"
# Bench binaries run from the package directory: pass absolute paths.
cargo bench -q --offline -p ibp-bench --bench throughput -- \
  --check "$PWD/results/BENCH_throughput.json"

echo "== multi-tenant memory differential (delta ≡ private, snapshot round-trip) =="
# The memory plane's two correctness walls, run by name so a failure is
# unmistakable even though the workspace pass above already ran them:
# sealed base+delta sessions must produce byte-identical RunResult JSON
# to private tables for every zoo predictor, and snapshot → restore →
# continue must be bit-identical including mid-window interruptions.
cargo test -q --offline -p ibp-sim --test memory_differential
cargo test -q --offline -p ibp-sim --test snapshot_roundtrip

echo "== memory bench (quick) + report validation =="
# Per-session footprint (private plain vs compact vs tier fork) and
# snapshot-codec throughput over the full serve lineup. The --check gate
# holds the headline claim: summed tier forks undercut summed private
# sessions. The committed results/BENCH_memory.json must pass too.
IBP_BENCH_DIR="$bench_dir" \
  cargo run -q --release --offline -p ibp-bench --bin membench -- --quick
cargo run -q --release --offline -p ibp-bench --bin membench -- \
  --check "$bench_dir/BENCH_memory.json"
cargo run -q --release --offline -p ibp-bench --bin membench -- \
  --check results/BENCH_memory.json

echo "== storage-bit audit (bitreport) + 1% divergence gate =="
# Two independent derivations of every zoo predictor's storage
# footprint — config-declared cost() vs the allocated-state
# report_storage() audit — must agree within 1%, declared bit budgets
# must be honored (filled to ≥99%, never exceeded), and the report must
# be byte-identical to the committed copy (it is integer-only and
# config-derived, so any drift means a predictor's storage changed).
IBP_BENCH_DIR="$bench_dir" \
  cargo run -q --release --offline -p ibp-bench --bin bitreport > /dev/null
cargo run -q --release --offline -p ibp-bench --bin bitreport -- \
  --check "$bench_dir/storage_bits.json"
cmp "$bench_dir/storage_bits.json" results/storage_bits.json \
  || { echo "verify: storage-bit report drifted from committed copy"; exit 1; }
cargo run -q --release --offline -p ibp-bench --bin bitreport -- \
  --check results/storage_bits.json

echo "== phase-sampling property + differential suites =="
# The estimator's two correctness walls, run by name (DESIGN.md §13):
# byte-identical sampled runs across executor pool sizes and repeats,
# signature/weight invariants and degenerate-input clamps; then the
# weighted-vs-full differential over all fifteen suite runs with the
# ≤0.5 pp absolute misprediction-ratio gate.
cargo test -q --offline -p ibp-sim --test simpoint_prop
cargo test -q --offline -p ibp-sim --test simpoint_differential

echo "== phase-sampling validation report (15-run error gate) =="
# Regenerates the weighted-vs-full validation table (PPM-hyb, full
# trace scale, all fifteen runs) and diffs it byte-for-byte against the
# committed copy: the report carries no timings, so any drift means the
# estimator pipeline changed. simbench itself exits 1 if a run misses
# the ≤0.5 pp gate.
cargo run -q --release --offline -p ibp-bench --bin simbench -- \
  --validate --out "$bench_dir/simpoint_validation.txt" > /dev/null
cmp "$bench_dir/simpoint_validation.txt" results/simpoint_validation.txt \
  || { echo "verify: simpoint validation report drifted from committed copy"; exit 1; }

echo "== phase-sampling bench (quick) + report validation =="
# A quick sampled-vs-full round on a scaled stream: gates that simbench
# runs, that its report passes the schema + error-gate --check, and that
# the committed full-size report (1e9-event streams, ≥10x speedup,
# ≤0.5 pp worst error) still validates.
IBP_BENCH_DIR="$bench_dir" \
  cargo run -q --release --offline -p ibp-bench --bin simbench -- --quick
cargo run -q --release --offline -p ibp-bench --bin simbench -- \
  --check "$bench_dir/BENCH_simpoint.json"
cargo run -q --release --offline -p ibp-bench --bin simbench -- \
  --check results/BENCH_simpoint.json

echo "== serve 10k-stream mux smoke (loadgen) =="
# Starts an in-process ibp-serve server and drives the v3 mux plane with
# 16 connections x 640 streams — 10,240 predictor sessions held open
# concurrently (rendezvous barriers pin full peak occupancy). Asserts a
# clean drain, zero protocol errors, an exact open/close stream ledger
# and exact event totals. Also refreshes BENCH_serve.json in the scratch
# dir and validates it with the report's own --check gate (shape,
# positive throughput, clean server section); the committed
# results/BENCH_serve.json must pass the same gate.
IBP_BENCH_DIR="$bench_dir" \
  cargo run -q --release --offline -p ibp-bench --bin loadgen -- --smoke
test -s "$bench_dir/BENCH_serve.json"
cargo run -q --release --offline -p ibp-bench --bin loadgen -- \
  --check "$bench_dir/BENCH_serve.json"
cargo run -q --release --offline -p ibp-bench --bin loadgen -- \
  --check results/BENCH_serve.json

echo "== serve eviction smoke (resident budget far below demand) =="
# The same 10,240-stream fleet with a 64 KiB resident budget and compact
# tables: the server must spill and restore sessions under load while
# every smoke assertion above still holds exactly (clean drain, exact
# ledgers, full peak occupancy), plus at least one evict/restore cycle
# and zero spill failures. Eviction must be invisible to correctness.
cargo run -q --release --offline -p ibp-bench --bin loadgen -- \
  --smoke --resident-budget 65536 --compact

echo "== observability overhead gate (NullProbe vs raw loop) =="
# An in-process interleaved paired measurement: the probed hot loop
# (NullProbe, the production path) against an in-file verbatim copy of
# the pre-observability loop, alternating sides back-to-back. Under fat
# LTO the probe must compile away — the gate requires the best-window
# throughput ratio to stay within 3% of raw. Up to three attempts: each
# process gets a fresh address-space layout, and a rare unlucky layout
# can bias one loop by far more than the probe could (a real regression
# fails in every layout).
gate_ok=0
for attempt in 1 2 3; do
  if cargo bench -q --offline -p ibp-bench --bench throughput -- --gate-overhead; then
    gate_ok=1
    break
  fi
  echo "overhead gate attempt $attempt failed; retrying in a fresh process"
done
[ "$gate_ok" = 1 ]

echo "verify: OK"
