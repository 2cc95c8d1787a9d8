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

# The experiment binaries whose stdout is committed as results/<bin>.txt.
figure_bins="table1 fig6 fig7 markov_dist oracle_photon sweep_size sweep_pathlen
  ablate_tags ablate_ideal ablate_hash ext_future_work cond_ppm epilogue_ittage
  trace_entropy sweep_delay"
# Every deterministic results/ artifact the regenerate-and-cmp stage
# rebuilds (storage_bits.json has its own stage).
regenerated="metrics_fig6.json simpoint_validation.txt BENCH_memory.json"
for bin in $figure_bins; do regenerated="$regenerated $bin.txt"; done

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

echo "== committed inputs are tracked =="
# Every committed file a later stage or --check reads must be in git:
# an untracked (e.g. gitignored) artifact passes on the machine that made
# it and fails on every fresh clone.
git ls-files --error-unmatch \
  DESIGN.md \
  results/analyze_report.json \
  results/storage_bits.json \
  $(for f in $regenerated; do echo "results/$f"; done) \
  ibpbench/golden.json > /dev/null

echo "== static analysis (ibp-analyze --deny, L001-L010) =="
# One denied run producing the machine-readable report, a second run
# proving the report is byte-deterministic, the schema/threshold gate
# on both the fresh and the committed report, and a wall-clock guard:
# the semantic pass (parse + call graph + reachability over the whole
# workspace) must stay under 10 seconds or it is too slow for CI.
analyze_dir="$work/analyze"
mkdir "$analyze_dir"
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

echo "== clippy (every crate and target, warnings denied) =="
# A deny-level error in one crate stops clippy before it lints anything
# that depends on it, so the whole workspace is linted in one pass and
# any warning fails. Each `#[allow(clippy::...)]` carries a one-line
# reason.
cargo clippy -q --offline --workspace --all-targets -- -D warnings

echo "== release build (offline) =="
# The root manifest's default-members cover the root package and every
# crate, so this builds every binary the stages below run.
cargo build --release --offline

echo "== tests (offline) =="
cargo test -q --offline

echo "== benchmark unit tests (ibpbench) =="
# ibpbench is a package of its own that builds against the workspace
# crates by path, so this also proves their public APIs still serve it.
# --locked: a dependency edge added or dropped in a crate it builds fails
# here instead of silently rewriting ibpbench/Cargo.lock.
cargo test -q --offline --locked --manifest-path ibpbench/Cargo.toml

echo "== benchmark smoke (all four workloads at 1/20 size) =="
# Every workload must run clean and reproduce its golden digest.
bash ibpbench/run.sh --smoke

echo "== multi-tenant memory differential (delta ≡ private, snapshot round-trip) =="
# The memory plane's two correctness walls, run by name so a failure is
# unmistakable even though the workspace pass above already ran them:
# sealed base+delta sessions must produce byte-identical RunResult JSON
# to private tables for every zoo predictor, and snapshot → restore →
# continue must be bit-identical including mid-window interruptions.
# Every predictor's blobs, resident bytes and audited storage keep their
# pinned digests, reset equals a fresh build, and corrupt snapshot blobs
# end in a typed error, never a panic.
cargo test -q --offline -p ibp-sim --test memory_differential
cargo test -q --offline -p ibp-sim --test snapshot_roundtrip
cargo test -q --offline -p ibp-sim --test predictor_state
cargo test -q --offline -p ibp-sim --test snapshot_hostile

echo "== PPM reference models (every prediction vs a plain model) =="
# PPM-hyb (normal and PIB-biased) and PPM-PIB against a model that keeps
# plain history rings, rescans the SFSXS signature on every predict,
# reduces with % and writes out Figure 5: every prediction and the final
# telemetry must agree, on generated streams and all fifteen suite runs.
cargo test -q --offline -p ibp-ppm --test reference_model

echo "== ITTAGE64 reference model (every prediction vs a plain model) =="
# The 8/16/64 KB presets and an 8 KB config with a short aging period
# against a model that keeps the path history as a plain deque, refolds
# every index and tag from scratch on each lookup and reduces with %.
cargo test -q --offline -p ibp-predictors --test ittage64_reference

echo "== storage-bit audit (bitreport) + 1% divergence gate =="
# Two independent derivations of every zoo predictor's storage
# footprint — config-declared cost() vs the allocated-state
# report_storage() audit — must agree within 1%, declared bit budgets
# must be honored (filled to ≥99%, never exceeded), and the report must
# be byte-identical to the committed copy (it is integer-only and
# config-derived, so any drift means a predictor's storage changed).
IBP_BENCH_DIR="$work" \
  cargo run -q --release --offline -p ibp-bench --bin bitreport > /dev/null
cargo run -q --release --offline -p ibp-bench --bin bitreport -- \
  --check "$work/storage_bits.json"
cmp "$work/storage_bits.json" results/storage_bits.json \
  || { echo "verify: storage-bit report drifted from committed copy"; exit 1; }
cargo run -q --release --offline -p ibp-bench --bin bitreport -- \
  --check results/storage_bits.json

echo "== phase-sampling property + differential suites =="
# The estimator's two correctness walls, run by name (DESIGN.md §13):
# the streamed clustering equal to the materialized trace's, repeat-
# stable estimates, never more events simulated than the stream holds,
# the full run exactly when every window is its own unit, signature/
# weight invariants and degenerate-input clamps; then the weighted-vs-
# full differential over all fifteen suite runs' streams with the
# ≤0.5 pp absolute misprediction-ratio gate.
cargo test -q --offline -p ibp-sim --test simpoint_prop
cargo test -q --offline -p ibp-sim --test simpoint_differential

echo "== serve 10k-stream mux smoke (loadgen) =="
# Starts an in-process ibp-serve server and drives the v3 mux plane with
# 16 connections x 640 streams — 10,240 predictor sessions held open
# concurrently (rendezvous barriers pin full peak occupancy). Asserts a
# clean drain, zero protocol errors, an exact open/close stream ledger
# and exact event totals.
cargo run -q --release --offline -p ibp-bench --bin loadgen

echo "== serve eviction smoke (resident budget far below demand) =="
# The same 10,240-stream fleet with a 64 KiB resident budget and compact
# tables: the server must spill and restore sessions under load while
# every smoke assertion above still holds exactly (clean drain, exact
# ledgers, full peak occupancy), plus at least one evict/restore cycle
# and zero spill failures. Eviction must be invisible to correctness.
cargo run -q --release --offline -p ibp-bench --bin loadgen -- --evict

echo "== regenerate every deterministic results/ artifact and cmp =="
# Each committed artifact below carries no timing, so it is a pure
# function of the code: regenerate it into a scratch dir and compare it
# byte for byte with the committed copy. Any drift means a result
# changed. Beyond the cmp, two generators gate on their own:
# - simbench exits 1 unless the weighted phase-sampled estimate is
#   within 0.5 pp of the full run for PPM-hyb on all 15 suite runs and
#   for all 7 Figure 6 kinds on a ~2M-event streamed gs.tig run;
# - membench exits 1 unless every tier fork's snapshot blob restores
#   with the fork's event count, and unless summed tier forks undercut
#   summed private plain sessions.
regen_dir="$work/results"
mkdir "$regen_dir"
for bin in $figure_bins; do
  cargo run -q --release --offline -p ibp-bench --bin "$bin" > "$regen_dir/$bin.txt"
done
# --metrics prints the same table as a plain run.
cargo run -q --release --offline -p ibp-bench --bin fig6 -- \
  --metrics "$regen_dir/metrics_fig6.json" > "$regen_dir/fig6-metrics.txt"
cmp "$regen_dir/fig6-metrics.txt" results/fig6.txt \
  || { echo "verify: fig6 --metrics printed a different table"; exit 1; }
cargo run -q --release --offline -p ibp-bench --bin simbench > "$regen_dir/simpoint_validation.txt"
cargo run -q --release --offline -p ibp-bench --bin membench > "$regen_dir/BENCH_memory.json"
for f in $regenerated; do
  cmp "$regen_dir/$f" "results/$f" \
    || { echo "verify: results/$f drifted from its regeneration"; exit 1; }
done

echo "== observability overhead gate (NullProbe vs raw loop) =="
# An in-process interleaved paired measurement (25 pairs): the probed
# hot loop (NullProbe, the production path) against an in-file verbatim
# copy of the pre-observability loop, alternating sides back-to-back.
# Under fat LTO the probe must compile away — the gate requires the
# best-window throughput ratio to stay within 3% of raw. Up to three
# attempts: each process gets a fresh address-space layout, and a rare
# unlucky layout can bias one loop by far more than the probe could (a
# real regression fails in every layout).
gate_ok=0
for attempt in 1 2 3; do
  if cargo bench -q --offline -p ibp-bench --bench probe_overhead; then
    gate_ok=1
    break
  fi
  echo "overhead gate attempt $attempt failed; retrying in a fresh process"
done
[ "$gate_ok" = 1 ]

echo "verify: OK"
