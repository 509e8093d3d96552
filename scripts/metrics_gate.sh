#!/usr/bin/env bash
# Metrics-export gate (run as a ctest entry): webcache_cli simulate/sweep and
# `figures fig2a_cache_size` must emit documents that validate against
# scripts/check_metrics_schema.py — the executable contract behind the
# "webcache-metrics/1" schema documented in README.md.
#
# usage: metrics_gate.sh CLI_BINARY SCHEMA_CHECKER [FIGURES_BINARY]
set -euo pipefail

if [[ $# -lt 2 ]]; then
  echo "usage: $0 CLI_BINARY SCHEMA_CHECKER [FIGURES_BINARY]" >&2
  exit 2
fi
cli=$1
checker=$2
figures=${3:-}

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# Single-run document + event-trace CSV from the CLI.
"$cli" simulate --scheme Hier-GD --requests 30000 --objects 3000 \
  --metrics-out "$work/sim.json" --trace-out "$work/sim_trace.csv" \
  --trace-capacity 2000 --snapshot-interval 5000 >/dev/null
# Sweep document from the CLI.
"$cli" sweep --schemes NC,SC,Hier-GD --cache-pcts 20,60 \
  --requests 30000 --objects 3000 --metrics-out "$work/sweep.json" >/dev/null

python3 "$checker" "$work/sim.json" "$work/sweep.json"

if ! head -1 "$work/sim_trace.csv" | grep -q '^seq,time,code,value,aux$'; then
  echo "error: trace CSV header mismatch in $work/sim_trace.csv" >&2
  exit 1
fi

# The flagship figure must emit a valid sweep document too.
if [[ -n "$figures" ]]; then
  WEBCACHE_BENCH_SCALE=0.05 "$figures" fig2a_cache_size --metrics-out "$work/fig2a.json" >/dev/null
  python3 "$checker" "$work/fig2a.json"
fi

echo "metrics gate OK"
