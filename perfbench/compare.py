#!/usr/bin/env python3
"""Compare benchmark results of two commits, one row per workload and end-to-end metric.

    python3 perfbench/compare.py RUNS.jsonl PARENT_CHECKOUT CHANGE_CHECKOUT

``RUNS.jsonl`` holds the JSON lines that ``series.py --root PARENT_CHECKOUT
--root CHANGE_CHECKOUT`` wrote; each line names its checkout. The untraced
runs of the two checkouts are paired by workload and seed. A row reads:

* ``improved`` when the change wins at least nine tenths of the pairs (ties
  count for neither side) and its median is better than the parent's by more
  than the parent's interquartile range;
* ``unresolved`` when the parent's own spread (interquartile range over
  median) is wider than the metric's bound and not every run of the change
  beats every run of the parent;
* ``worse`` when the change's median is worse than the parent's by more than
  the bound set in ``BENCHMARK.json``;
* ``unchanged`` otherwise.

Each ratio is printed with its base, the parent's median.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path, root):
    """The untraced metrics of one checkout's runs, by (workload, seed)."""
    root = str(Path(root).resolve())
    runs = {}
    for line in Path(path).read_text().splitlines():
        row = json.loads(line)
        if row["trace"] == 0 and row["root"] == root:
            key = (row["workload"], row["seed"])
            if key in runs:
                sys.exit(f"{path} holds two untraced runs of {key} in {root}")
            runs[key] = row["result"]["metrics"]
    if not runs:
        sys.exit(f"{path} holds no untraced runs of {root}")
    return runs


def verdict(parent, change, better, bound):
    sign = 1 if better == "lower" else -1
    pairs = [(a, b) for a, b in zip(parent, change) if a != b]
    wins = sum(1 for a, b in pairs if sign * (b - a) < 0)
    med_a, med_b = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4) if len(parent) > 1 else (med_a,) * 3
    gain = sign * (med_a - med_b)
    if pairs and wins >= 0.9 * len(parent) and gain > q3 - q1:
        return "improved", wins
    beats_all = all(sign * (b - a) < 0 for a in parent for b in change)
    if (q3 - q1) > bound * abs(med_a) and not beats_all:
        return "unresolved", wins
    if -gain > bound * abs(med_a):
        return "worse", wins
    return "unchanged", wins


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__)
    parent, change = load(argv[0], argv[1]), load(argv[0], argv[2])
    bench = json.loads(BENCHMARK.read_text())
    print(f"{'workload':<20} {'metric':<12} {'verdict':<10} {'wins':>7}  ratio (base: parent median)")
    for workload in sorted({w for w, _ in parent}):
        seeds = sorted(s for w, s in parent if w == workload and (w, s) in change)
        if not seeds:
            continue
        for m in bench["end_to_end"]:
            name = m["name"]
            a = [parent[(workload, s)][name]["value"] for s in seeds]
            b = [change[(workload, s)][name]["value"] for s in seeds]
            result, wins = verdict(a, b, m["better"], m["bound"])
            med_a = statistics.median(a)
            ratio = statistics.median(b) / med_a if med_a else float("nan")
            print(f"{workload:<20} {name:<12} {result:<10} {wins:>3}/{len(seeds):<3}  "
                  f"{ratio:.3f} x {med_a:.6g} {m['unit']}")


if __name__ == "__main__":
    main(sys.argv[1:])
