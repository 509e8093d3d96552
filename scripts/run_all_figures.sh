#!/usr/bin/env sh
# Regenerates every paper figure, ablation and extension table: `figures`
# once for Figures 2-5, then each abl_* and ext_* bench. Stdout is the report;
# redirect it to bench_output.txt to keep it.
#
# usage: run_all_figures.sh [BUILD_DIR]
#
# Environment:
#   WEBCACHE_BENCH_SCALE   scales the request volume (e.g. 0.1 for quick runs)
#   WEBCACHE_THREADS       run_sweep worker threads, forwarded to every bench
#                          (results are bitwise identical regardless)
#   WEBCACHE_METRICS_OUT_DIR  when set, the benches also write their
#                          "webcache-metrics/1" JSON exports into this
#                          directory, as figures.metrics.<figure>[.<label>].json
#                          and <bench>.metrics[.<label>].json
set -eu

BUILD_DIR="${1:-build}"

if [ ! -x "$BUILD_DIR/bench/figures" ]; then
  echo "error: '$BUILD_DIR/bench/figures' does not exist." >&2
  echo "Build the bench harnesses first:" >&2
  echo "  cmake -B $BUILD_DIR -S . -DCMAKE_BUILD_TYPE=Release && cmake --build $BUILD_DIR -j" >&2
  exit 1
fi

found=0
for b in "$BUILD_DIR"/bench/figures "$BUILD_DIR"/bench/abl_* "$BUILD_DIR"/bench/ext_*; do
  [ -x "$b" ] && [ -f "$b" ] || continue
  found=$((found + 1))
  echo "===== $b ====="
  if [ -n "${WEBCACHE_METRICS_OUT_DIR:-}" ]; then
    mkdir -p "$WEBCACHE_METRICS_OUT_DIR"
    # Benches without an export path (the ablations) ignore it.
    WEBCACHE_THREADS="${WEBCACHE_THREADS:-0}" "$b" \
      --metrics-out "$WEBCACHE_METRICS_OUT_DIR/$(basename "$b").metrics.json"
  else
    WEBCACHE_THREADS="${WEBCACHE_THREADS:-0}" "$b"
  fi
done
echo "ran $found bench binaries from $BUILD_DIR/bench"
