#!/usr/bin/env python3
"""Checks perfbench results against the limits in baselines/perf_floor.json.

    python3 tools/check_perf_floor.py FLOOR_FILE RESULT_FILE...

Each RESULT_FILE holds the stdout of `perfbench/run.py --workload W ...
--trace 0` runs: a manifest line naming the workload, then its result line.
Limits are keyed "<workload>/<metric>": `floors` for higher-is-better
metrics, `ceilings` for lower-is-better ones. Exits 1, naming each problem,
when a result is not correct or has failed jobs, when the file sets no
floors, when a limited workload or metric is missing, a key is malformed or
a limit is not a positive number, when a value is below
floor x (1 - max_regression_pct / 100), or when a value is above
ceiling x (1 + max_regression_pct / 100); exits 0 otherwise.
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
    band = floor["max_regression_pct"] / 100
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
    # (kind, limits, edge of the band, is the fresh value inside it, verdict word)
    checks = [
        ("floor", floors, 1 - band, lambda fresh, edge: fresh >= edge, "below"),
        ("ceiling", floor.get("ceilings", {}), 1 + band, lambda fresh, edge: fresh <= edge,
         "above"),
    ]
    for kind, limits, scale, inside, word in checks:
        for key, limit in limits.items():
            try:
                if not isinstance(limit, (int, float)) or limit <= 0:
                    raise LookupError(f"{kind} {limit!r} is not a positive number")
                fresh = value(key)
            except LookupError as e:
                problems.append(f"{key}: {e}")
                continue
            edge = limit * scale
            verdict = "ok" if inside(fresh, edge) else word.upper()
            print(f"{verdict:5} {key}: {fresh:.4g} ({kind} {limit:g}, fails {word} {edge:.4g})")
            if verdict != "ok":
                problems.append(f"{key}: {fresh:.4g} is {word} {edge:.4g}")
    for p in problems:
        print(f"FAIL: {p}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
