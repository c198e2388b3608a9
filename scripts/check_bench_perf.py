#!/usr/bin/env python3
"""Check that BENCH_perf.json parses and speaks BENCHMARK.json's terms.

BENCH_perf.json keeps the perfbench trajectory: one row per perf change
and workload, with the parent's and the change's medians of the
end-to-end metrics over alternating parent/change pairs. This check
fails when a row names a workload or a metric that BENCHMARK.json does
not declare, or when a row misses a field or holds a non-number where a
median belongs.

Run from the repository root:

    python3 scripts/check_bench_perf.py
"""

import json
import sys

ROW_FIELDS = ("change", "workload", "parent_commit", "change_commit", "pairs",
              "seeds", "seconds", "host", "steal_pct", "parent_median",
              "change_median")


def check(bench, perf):
    workloads = {w["name"] for w in bench["workloads"]}
    metrics = {m["name"] for m in bench["end_to_end"]}
    errors = []
    rows = perf.get("rows")
    if not isinstance(rows, list) or not rows:
        return ["BENCH_perf.json: no rows"]
    for i, row in enumerate(rows):
        where = f"row {i} ({row.get('change')}, {row.get('workload')})"
        for field in ROW_FIELDS:
            if field not in row:
                errors.append(f"{where}: missing field {field!r}")
        if row.get("workload") not in workloads:
            errors.append(f"{where}: workload not in BENCHMARK.json")
        if not isinstance(row.get("pairs"), int) or row.get("pairs", 0) < 1:
            errors.append(f"{where}: pairs must be a positive integer")
        if len(row.get("seeds", [])) != row.get("pairs"):
            errors.append(f"{where}: one seed per pair")
        for side in ("parent_median", "change_median"):
            medians = row.get(side, {})
            for name, value in medians.items():
                if name not in metrics:
                    errors.append(f"{where}: {side} names metric {name!r}, "
                                  "not a BENCHMARK.json end-to-end metric")
                if not isinstance(value, (int, float)):
                    errors.append(f"{where}: {side}.{name} is not a number")
    return errors


def main():
    try:
        with open("BENCHMARK.json") as f:
            bench = json.load(f)
        with open("BENCH_perf.json") as f:
            perf = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"check_bench_perf: {e}", file=sys.stderr)
        return 1
    errors = check(bench, perf)
    for e in errors:
        print(f"check_bench_perf: {e}", file=sys.stderr)
    if errors:
        return 1
    print(f"check_bench_perf: {len(perf['rows'])} rows OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
