#!/usr/bin/env python3
"""Name every metric that differs between two "webcache-metrics/1" exports.

Accepts both document shapes the repo emits (see check_metrics_schema.py):
  * single-registry documents (webcache_cli simulate --metrics-out);
  * sweep documents (webcache_cli sweep --metrics-out, the fig benches),
    whose runs are matched by (cache_percent, scheme).

For every counter, gauge, stat field, histogram bucket and snapshot cell
whose value differs, prints the metric's name, both values, the absolute
delta (B - A) and the relative delta (against A), then lists the names
present in only one file. Snapshot cells are named by the row's trace
position and the column.

Exit codes: 0 when every metric is identical, 1 when any differs or is
present in one file only, 2 when an input is unreadable or not a
"webcache-metrics/1" document.

Usage: metrics_diff.py A.json B.json
"""

import json
import sys

SCHEMA = "webcache-metrics/1"


class InputError(Exception):
    pass


def flatten_body(body, prefix, out):
    """Adds every value of one registry body to `out`, keyed by name."""
    try:
        for name, value in body["counters"].items():
            out[f"{prefix}counter {name}"] = value
        for name, value in body["gauges"].items():
            out[f"{prefix}gauge {name}"] = value
        for name, stat in body["stats"].items():
            for field, value in stat.items():
                out[f"{prefix}stat {name}.{field}"] = value
        for name, hist in body["histograms"].items():
            for field in ("lo", "hi", "total"):
                out[f"{prefix}histogram {name}.{field}"] = hist[field]
            for i, count in enumerate(hist["buckets"]):
                out[f"{prefix}histogram {name}[{i}]"] = count
        snaps = body["snapshots"]
        out[f"{prefix}snapshot interval"] = snaps["interval"]
        columns = list(snaps["columns"]) + list(snaps["gauge_columns"])
        for row in snaps["rows"]:
            for column, value in zip(columns, row[1:]):
                out[f"{prefix}snapshot @{row[0]} {column}"] = value
    except (AttributeError, KeyError, TypeError, IndexError) as e:
        raise InputError(f"malformed metrics body ({e!r})") from e


def flatten(path):
    """Reads one export into an insertion-ordered {name: value} dict."""
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as e:
        raise InputError(f"{path}: cannot read a JSON document ({e})") from e
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA:
        raise InputError(f"{path}: not a {SCHEMA} document")
    out = {}
    try:
        if "metrics" in doc:
            flatten_body(doc["metrics"], "", out)
        elif "runs" in doc:
            for field in ("infinite_cache_size", "client_cache_capacity"):
                out[f"sweep {field}"] = doc[field]
            for run in doc["runs"]:
                prefix = f"[{run['cache_percent']}% {run['scheme']}] "
                out[f"{prefix}latency_gain_percent"] = run["latency_gain_percent"]
                flatten_body(run["metrics"], prefix, out)
        else:
            raise InputError(f"{path}: neither a 'metrics' nor a 'runs' document")
    except InputError as e:
        raise InputError(f"{path}: {e}") from e
    except (KeyError, TypeError) as e:
        raise InputError(f"{path}: malformed document ({e!r})") from e
    return out


def relative(a, b):
    if not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
        return "n/a"
    if a == 0:
        return "n/a" if b != 0 else "+0%"
    return f"{(b - a) / abs(a):+.4%}"


def absolute(a, b):
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return f"{b - a:+}"
    return "n/a"


def main(argv):
    if len(argv) != 3:
        print("usage: metrics_diff.py A.json B.json", file=sys.stderr)
        return 2
    try:
        a = flatten(argv[1])
        b = flatten(argv[2])
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    changed = [name for name in a if name in b and a[name] != b[name]]
    only_a = [name for name in a if name not in b]
    only_b = [name for name in b if name not in a]
    for name in changed:
        print(f"{name}: {a[name]} -> {b[name]} "
              f"(abs {absolute(a[name], b[name])}, rel {relative(a[name], b[name])})")
    for path, names in ((argv[1], only_a), (argv[2], only_b)):
        if names:
            print(f"only in {path}:")
            for name in names:
                print(f"  {name}")
    if not (changed or only_a or only_b):
        print(f"identical: {len(a)} metrics")
        return 0
    print(f"{len(changed)} of {len(a)} metrics differ; "
          f"{len(only_a)} only in {argv[1]}, {len(only_b)} only in {argv[2]}")
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
