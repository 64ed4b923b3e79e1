#!/usr/bin/env python3
"""Compare two sets of perfbench runs, parent against change.

    python3 ci/ab.py parent.jsonl change.jsonl [--claim METRIC] \
        [--bench BENCHMARK.json]
    python3 ci/ab.py --self-test

Each input file holds one perfbench JSON result line per run, of one
workload. Line i of the parent file and line i of the change file form
pair i, so run the two sides alternately. The bounds and the better
direction of each metric come from BENCHMARK.json, which is only read.

For every metric present on both sides it prints the median and the
quartiles of each side, the change/parent ratio of the medians, and the
pairs the change won out of the pairs run. A metric is flagged when:

  WORSE   an end-to-end metric is worse than the parent by more than its
          bound (ratio above 1 + bound, or below 1 - bound if higher is
          better);
  SPREAD  an end-to-end metric's quartile spread, (q3 - q1) / median, is
          above its bound on either side, so the runs cannot tell;
  CLAIM   a --claim metric did not win at least 9 pairs in 10, or its
          median gain is not larger than the parent's quartile distance.

A larger share of failed operations on the change side is flagged as
FAILED. The exit code is 1 when anything is flagged, else 0.
"""

import argparse
import json
import os
import statistics
import sys

DEFAULT_BENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json")


def load_runs(path):
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip().startswith("{")]


def load_bench(path):
    with open(path, encoding="utf-8") as f:
        bench = json.load(f)
    specs = {}
    for entry in bench.get("per_layer", []):
        specs[entry["name"]] = (entry["better"], None)
    for entry in bench.get("end_to_end", []):
        specs[entry["name"]] = (entry["better"], entry["bound"])
    return specs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def failed_share(runs):
    attempted = sum(run["attempted"] for run in runs)
    return sum(run["failed"] for run in runs) / attempted if attempted else 0.0


def compare(parent, change, specs, claims=()):
    """Returns (rows, flags): one row per metric, and the flag lines."""
    rows, flags = [], []
    pairs = min(len(parent), len(change))
    names = [name for name in parent[0]["metrics"] if name in change[0]["metrics"]]
    for name in names:
        better, bound = specs.get(name, ("lower", None))
        p = [run["metrics"][name]["value"] for run in parent]
        c = [run["metrics"][name]["value"] for run in change]
        p_med, c_med = statistics.median(p), statistics.median(c)
        (p_q1, p_q3), (c_q1, c_q3) = quartiles(p), quartiles(c)
        ratio = c_med / p_med if p_med else (1.0 if c_med == p_med else float("inf"))
        sign = 1 if better == "lower" else -1
        won = sum(1 for a, b in zip(p[:pairs], c[:pairs]) if sign * (b - a) < 0)
        marks = []
        if bound is not None:
            if (ratio - 1) * sign > bound:
                marks.append("WORSE")
            spreads = [(q3 - q1) / med for q1, q3, med in ((p_q1, p_q3, p_med), (c_q1, c_q3, c_med)) if med]
            if any(spread > bound for spread in spreads):
                marks.append("SPREAD")
        if name in claims:
            gain = sign * (p_med - c_med)
            if won * 10 < pairs * 9 or gain <= p_q3 - p_q1:
                marks.append("CLAIM")
        rows.append((name, parent[0]["metrics"][name]["unit"], p_med, p_q1, p_q3, c_med, c_q1, c_q3, ratio, won, pairs, marks))
        flags.extend(f"{mark} {name}" for mark in marks)
    missing = [name for name in claims if name not in names]
    flags.extend(f"CLAIM {name} (not measured)" for name in missing)
    if failed_share(change) > failed_share(parent):
        flags.append(f"FAILED share {failed_share(parent):.3g} -> {failed_share(change):.3g}")
    return rows, flags


def print_report(rows, flags, parent, change):
    print(f"parent {len(parent)} runs, change {len(change)} runs, pairs {min(len(parent), len(change))}")
    print(f"failed share: parent {failed_share(parent):.3g}, change {failed_share(change):.3g}")
    print(f"{'metric':<44} {'unit':<5} {'parent median [q1, q3]':<32} {'change median [q1, q3]':<32} {'ratio':>6}   won")
    for name, unit, p_med, p_q1, p_q3, c_med, c_q1, c_q3, ratio, won, pairs, marks in rows:
        p_cell = f"{p_med:.4g} [{p_q1:.4g}, {p_q3:.4g}]"
        c_cell = f"{c_med:.4g} [{c_q1:.4g}, {c_q3:.4g}]"
        print(f"{name:<44} {unit:<5} {p_cell:<32} {c_cell:<32} {ratio:>6.3f} {won:>2}/{pairs:<3} {' '.join(marks)}")
    for flag in flags:
        print(f"flag: {flag}")


def self_test():
    specs = {"solve_s": ("lower", 0.25), "rps": ("higher", 0.25), "kernel_ns": ("lower", None)}

    def run(solve, rps, kernel, failed=0):
        metrics = {"solve_s": solve, "rps": rps, "kernel_ns": kernel}
        return {
            "attempted": 100,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": "x"} for k, v in metrics.items()},
        }

    parent = [run(1.0 + 0.01 * i, 100 + i, 20) for i in range(10)]
    faster = [run(0.7 + 0.01 * i, 100 + i, 15) for i in range(10)]
    rows, flags = compare(parent, faster, specs, claims=("solve_s",))
    by_name = {row[0]: row for row in rows}
    assert flags == [], flags
    assert by_name["solve_s"][9] == 10, by_name["solve_s"]
    assert abs(by_name["solve_s"][8] - 0.745 / 1.045) < 1e-9
    # A higher-is-better metric that fell by more than its bound.
    slower = [run(1.0, 60 + i, 20) for i in range(10)]
    _, flags = compare(parent, slower, specs)
    assert flags == ["WORSE rps"], flags
    # A claimed gain inside the parent's spread fails the claim.
    noisy = [run(1.0 + 0.2 * (i % 5), 100, 20) for i in range(10)]
    almost = [run(0.99 + 0.2 * (i % 5), 100, 20) for i in range(10)]
    _, flags = compare(noisy, almost, specs, claims=("solve_s",))
    assert "CLAIM solve_s" in flags and "SPREAD solve_s" in flags, flags
    # A larger failed share is flagged; per-layer metrics carry no bound.
    broken = [run(1.0 + 0.01 * i, 100 + i, 40, failed=1) for i in range(10)]
    _, flags = compare(parent, broken, specs)
    assert flags == ["FAILED share 0 -> 0.01"], flags
    print("ab.py self-test passed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", nargs="?")
    parser.add_argument("change", nargs="?")
    parser.add_argument("--bench", default=DEFAULT_BENCH, help="BENCHMARK.json (read only)")
    parser.add_argument("--claim", action="append", default=[], help="a metric the change claims to improve")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        self_test()
        return 0
    if not (args.parent and args.change):
        parser.error("parent and change files are required")
    parent, change = load_runs(args.parent), load_runs(args.change)
    if not parent or not change:
        parser.error("each file needs at least one perfbench result line")
    rows, flags = compare(parent, change, load_bench(args.bench), args.claim)
    print_report(rows, flags, parent, change)
    return 1 if flags else 0


if __name__ == "__main__":
    sys.exit(main())
