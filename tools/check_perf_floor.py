#!/usr/bin/env python3
"""Checks perfbench results against the speed floors in baselines/perf_floor.json.

    python3 tools/check_perf_floor.py FLOOR_FILE RESULT_FILE...

Each RESULT_FILE holds the stdout of `perfbench/run.py --workload W ...
--trace 0` runs: a manifest line naming the workload, then its result line.
Floors are keyed "<workload>/<metric>". Exits 1, naming each problem, when a
result is not correct or has failed jobs, when a floored workload or metric is
missing or a key is malformed, or when a value is below
floor x (1 - max_regression_pct / 100); exits 0 otherwise.
"""

import json
import sys


def read_results(paths):
    results = {}
    for path in paths:
        workload = None
        for line in open(path):
            try:
                record = json.loads(line)
            except ValueError:
                continue  # the table perfbench prints above its JSON lines
            if isinstance(record, dict) and "manifest" in record:
                workload = record["manifest"]["workload"]
            elif isinstance(record, dict) and "correct" in record and workload:
                results[workload] = record
    return results


def main(argv):
    if len(argv) < 3:
        sys.exit(__doc__)
    floor = json.load(open(argv[1]))
    results = read_results(argv[2:])
    band = 1 - floor["max_regression_pct"] / 100
    problems = [f"{w}: correct {r.get('correct')}, failed {r.get('failed')}"
                for w, r in results.items() if r.get("correct") is not True or r.get("failed")]

    def value(key):
        workload, _, metric = key.partition("/")
        if not workload or not metric or "/" in metric:
            raise LookupError(f"malformed key {key!r}")
        if workload not in results:
            raise LookupError(f"no result for workload {workload}")
        if metric not in results[workload]["metrics"]:
            raise LookupError(f"{workload} reports no {metric}")
        return results[workload]["metrics"][metric]["value"]

    floors = floor.get("floors", {})
    if not floors:
        problems.append(f"{argv[1]} sets no floors")
    for key, f in floors.items():
        try:
            if not isinstance(f, (int, float)) or f <= 0:
                raise LookupError(f"floor {f!r} is not a positive number")
            fresh = value(key)
        except LookupError as e:
            problems.append(f"{key}: {e}")
            continue
        verdict = "ok" if fresh >= f * band else "BELOW"
        print(f"{verdict:5} {key}: {fresh:.4g} (floor {f:g}, fails below {f * band:.4g})")
        if verdict != "ok":
            problems.append(f"{key}: {fresh:.4g} is below {f * band:.4g}")
    for p in problems:
        print(f"FAIL: {p}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
