#!/usr/bin/env bash
# ibpbench: build the benchmark from source, then run it.
#
#   ibpbench/run.sh --workload W [--seed N] [--seconds S] [--trace 0|1]
#                                    one run; the last stdout line is its JSON
#   ibpbench/run.sh [ARGS...]        all four workloads, untraced
#   ibpbench/run.sh --traced [ARGS...]
#                                    each workload untraced, then traced, then
#                                    the tracing overhead between the two
#   ibpbench/run.sh --smoke [ARGS...]
#                                    all four workloads at 1/20 size
#   ibpbench/run.sh --check REPORT | compare A B | spread DIR |
#                   overhead U T | golden DIR
#
# Every workload runs in its own process, one at a time. Exits non-zero
# if the build or any check fails.
set -euo pipefail

cd "$(dirname "$0")/.."
export IBP_THREADS=2
# A fixed mmap threshold: every large buffer is mapped on allocation and
# unmapped on free, so peak RSS tracks live data instead of the timing
# of two threads' reallocations (which moves glibc's dynamic threshold
# and left VmHWM varying by 10% between identical runs).
export MALLOC_MMAP_THRESHOLD_=1048576
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path ibpbench/Cargo.toml >&2
bin="$CARGO_TARGET_DIR/release/ibpbench"

case "${1:-}" in
  --workload|--check|compare|spread|overhead|golden)
    exec "$bin" "$@"
    ;;
esac

mode=plain
case "${1:-}" in
  --traced) mode=traced; shift ;;
  --smoke) mode=smoke; shift ;;
esac

status=0
for w in grid longrun serve fleet; do
  case "$mode" in
    plain) "$bin" --workload "$w" "$@" || status=1 ;;
    smoke) "$bin" --workload "$w" --smoke "$@" || status=1 ;;
    traced)
      dir=target/ibpbench/overhead
      "$bin" --workload "$w" --out-dir "$dir/untraced" "$@" || status=1
      "$bin" --workload "$w" --trace 1 --out-dir "$dir/traced" "$@" || status=1
      for u in "$dir/untraced/$w"-*.json; do
        "$bin" overhead "$u" "$dir/traced/$(basename "${u%.json}")-traced.json" || status=1
      done
      ;;
  esac
done
exit "$status"
