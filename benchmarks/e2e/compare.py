#!/usr/bin/env python3
"""Compare two result sets of the benchmark, or show one set's spread.

    python3 benchmarks/e2e/compare.py BEFORE.jsonl AFTER.jsonl
    python3 benchmarks/e2e/compare.py RUNS.jsonl

A result set is what ``run.py --out FILE`` appends to: one JSON line
per run.  With two sets, prints one row per (end-to-end metric,
workload) with both medians, both quartile pairs and the bound from
``BENCHMARK.json``, and a verdict:

* ``ok`` — AFTER's median is no worse than BEFORE's by more than the
  bound (or every AFTER run beats every BEFORE run);
* ``regression`` — it is worse by more than the bound;
* ``unresolved`` — the run-to-run spread of either side (distance
  between its quartiles over BEFORE's median) exceeds the bound, so
  the medians cannot tell; unless every run of one side beats every
  run of the other, which settles it whatever the spread.

With one set, prints each pair's spread as a share of its median next
to the bound — the steadiness check the benchmark itself must pass
(every spread below the bound, aim for a third of it).

Exit status is 1 when any row is a regression (two sets) or any spread
exceeds its bound (one set; ``setup_s`` excepted), else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

SPEC = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load(path: str) -> Dict[Tuple[str, str], List[float]]:
    """(metric, workload) → values, one per untraced run in the file."""
    out: Dict[Tuple[str, str], List[float]] = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            run = json.loads(line)
            if run.get("trace"):
                continue
            for metric, cell in run["metrics"].items():
                out.setdefault((metric, run["workload"]), []) \
                    .append(float(cell["value"]))
    return out


def quartiles(values: List[float]) -> Tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def spread(values: List[float], base: float) -> float:
    q1, q3 = quartiles(values)
    return (q3 - q1) / abs(base)


def verdict(before: List[float], after: List[float], better: str,
            bound: float) -> Tuple[str, float]:
    """(``ok`` | ``regression`` | ``unresolved``, worsening of the
    median as a share of BEFORE's median; negative = improved)."""
    sign = 1.0 if better == "lower" else -1.0
    base = statistics.median(before)
    worse_by = sign * (statistics.median(after) - base) / abs(base)
    if sign * (max(after) - min(before)) < 0:
        return "ok", worse_by               # every AFTER run beats BEFORE
    if sign * (min(after) - max(before)) > 0 and worse_by > bound:
        return "regression", worse_by       # every AFTER run is worse
    if max(spread(before, base), spread(after, base)) > bound:
        return "unresolved", worse_by
    return ("regression" if worse_by > bound else "ok"), worse_by


def fmt(x: float) -> str:
    return f"{x:.4g}"


def bracket(pair: Tuple[float, float]) -> str:
    return f"[{fmt(pair[0])},{fmt(pair[1])}]"


def compare(before_path: str, after_path: str, spec: dict) -> int:
    before, after = load(before_path), load(after_path)
    print(f"{'metric':<20}{'workload':<22}{'before':>10}{'[q1,q3]':>22}"
          f"{'after':>10}{'[q1,q3]':>22}{'bound':>7}{'worse':>9}  verdict")
    bad = 0
    for metric in spec["end_to_end"]:
        for wl in spec["workloads"]:
            key = (metric["name"], wl["name"])
            if key not in before or key not in after:
                continue
            b, a = before[key], after[key]
            word, worse_by = verdict(b, a, metric["better"],
                                     metric["bound"])
            bad += word == "regression"
            print(f"{key[0]:<20}{key[1]:<22}"
                  f"{fmt(statistics.median(b)):>10}"
                  f"{bracket(quartiles(b)):>22}"
                  f"{fmt(statistics.median(a)):>10}"
                  f"{bracket(quartiles(a)):>22}"
                  f"{metric['bound']:>7}{worse_by:>+9.1%}  {word}"
                  f"  (n={len(b)},{len(a)})")
    return 1 if bad else 0


def spreads(path: str, spec: dict) -> int:
    runs = load(path)
    print(f"{'metric':<20}{'workload':<22}{'n':>4}{'median':>10}"
          f"{'[q1,q3]':>22}{'spread':>9}{'bound':>7}")
    bad = 0
    for metric in spec["end_to_end"]:
        for wl in spec["workloads"]:
            key = (metric["name"], wl["name"])
            if key not in runs:
                continue
            values = runs[key]
            med = statistics.median(values)
            share = spread(values, med)
            wide = share > metric["bound"] and key[0] != "setup_s"
            bad += wide
            note = "  WIDE" if wide else \
                ("  (above bound/3)" if share > metric["bound"] / 3 else "")
            print(f"{key[0]:<20}{key[1]:<22}{len(values):>4}{fmt(med):>10}"
                  f"{bracket(quartiles(values)):>22}"
                  f"{share:>9.1%}{metric['bound']:>7}{note}")
    return 1 if bad else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2) or argv[0] in ("-h", "--help"):
        print(__doc__)
        return 2
    spec = json.loads(SPEC.read_text())
    if len(argv) == 1:
        return spreads(argv[0], spec)
    return compare(argv[0], argv[1], spec)


if __name__ == "__main__":
    raise SystemExit(main())
