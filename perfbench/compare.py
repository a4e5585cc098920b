#!/usr/bin/env python3
"""Compare two sets of benchmark runs.

Usage: python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Both files are written by ``run.py --results``, one line per run.  For
each workload and end-to-end metric in BENCHMARK.json this prints each
side's median and quartiles over its ``--trace 0`` runs, and the ratio of
the medians with its base.  The verdict is "unresolved" when either
side's spread (quartile distance over median) is wider than the metric's
bound, unless every NEW run beats every BASE run; "worse" when NEW's
median is worse than BASE's by more than the bound; "ok" otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str) -> dict[str, dict[str, list[float]]]:
    """workload -> metric -> values over the file's untraced runs."""
    runs: dict[str, dict[str, list[float]]] = {}
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            if rec["trace"]:
                continue
            metrics = runs.setdefault(rec["workload"], {})
            for name, m in rec["result"]["metrics"].items():
                metrics.setdefault(name, []).append(m["value"])
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: list[float], new: list[float], bound: float,
            lower_better: bool) -> str:
    spreads = []
    for values in (base, new):
        q1, q2, q3 = quartiles(values)
        spreads.append((q3 - q1) / abs(q2))
    if max(spreads) > bound:
        if lower_better and max(new) < min(base) or \
                not lower_better and min(new) > max(base):
            return "better (every run)"
        return "unresolved"
    change = statistics.median(new) / statistics.median(base) - 1.0
    if (change if lower_better else -change) > bound:
        return "worse"
    return "ok"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    base, new = load(argv[0]), load(argv[1])
    print(f"{'workload':18s} {'metric':13s} {'base median [q1, q3]':>34s} "
          f"{'new median [q1, q3]':>34s} {'new/base':>9s}  verdict")
    worse = False
    for workload in sorted(set(base) & set(new)):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b, n = base[workload].get(name), new[workload].get(name)
            if not b or not n:
                continue
            cells = []
            for values in (b, n):
                q1, q2, q3 = quartiles(values)
                cells.append(f"{q2:.5g} [{q1:.5g}, {q3:.5g}] n={len(values)}")
            ratio = statistics.median(n) / statistics.median(b)
            v = verdict(b, n, metric["bound"], metric["better"] == "lower")
            worse |= v == "worse"
            print(f"{workload:18s} {name:13s} {cells[0]:>34s} {cells[1]:>34s} "
                  f"{ratio:9.4f}  {v} (bound {metric['bound']})")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
