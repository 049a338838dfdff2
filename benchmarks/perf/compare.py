"""``run.py compare A.json B.json`` — did B move against A?

A and B are result sets written by ``run.py --out`` (A the parent, B the
change), each holding several untraced runs per workload.  For every
(workload, end-to-end metric) the verdict follows the choosing-metrics
rules:

``regressed``
    B's median is worse than A's by more than the metric's bound in
    ``BENCHMARK.json``.
``improved``
    B beats A in at least nine tenths of the run pairs (ties count for
    neither side) *and* the medians differ by more than A's own
    interquartile spread.
``unresolved``
    neither of the above, but A's spread is wider than the bound, so
    "no change" cannot be told from a change the bound would catch —
    unless every run of B reads better than every run of A.
``unchanged``
    everything else.

Exit code 1 on any regression or a higher failed fraction.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def _quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def load(path) -> dict:
    """``{workload: {"metrics": {name: [values]}, "failed": n,
    "attempted": n}}`` of the untraced runs in a result set."""
    out: dict = {}
    for run in json.loads(Path(path).read_text())["runs"]:
        if run["trace"]:
            continue
        row = out.setdefault(
            run["workload"], {"metrics": {}, "failed": 0, "attempted": 0}
        )
        row["failed"] += run["failed"]
        row["attempted"] += run["attempted"]
        for name, cell in run["metrics"].items():
            if cell["value"] is not None:
                row["metrics"].setdefault(name, []).append(cell["value"])
    return out


def verdict(a: list, b: list, better: str, bound: float) -> dict:
    """Compare one metric's parent runs ``a`` with the change's ``b``."""
    sign = 1.0 if better == "lower" else -1.0     # positive = worse
    q1, med_a, q3 = _quartiles(a)
    _, med_b, _ = _quartiles(b)
    worse = sign * (med_b - med_a) / abs(med_a)
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    all_better = max(sign * y for y in b) < min(sign * x for x in a)
    spread = (q3 - q1) / abs(med_a)
    if worse > bound:
        label = "regressed"
    elif (pairs and wins >= 0.9 * len(pairs)
          and abs(med_b - med_a) > q3 - q1):
        label = "improved"
    elif spread > bound and not all_better:
        label = "unresolved"
    else:
        label = "unchanged"
    return {"verdict": label, "median_a": med_a, "median_b": med_b,
            "change": (med_b - med_a) / abs(med_a), "spread_a": spread,
            "wins": wins, "pairs": len(pairs)}


def main(argv: list, spec: dict) -> int:
    if len(argv) != 2:
        print("usage: run.py compare A.json B.json", file=sys.stderr)
        return 2
    a, b = load(argv[0]), load(argv[1])
    bad = 0
    print(f"{'workload':<22}{'metric':<16}{'median A':>12}{'median B':>12}"
          f"{'change':>9}{'IQR A':>8}{'wins':>7}  verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        if workload not in a or workload not in b:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            va = a[workload]["metrics"].get(name)
            vb = b[workload]["metrics"].get(name)
            if not va or not vb:
                continue
            v = verdict(va, vb, metric["better"], metric["bound"])
            bad += v["verdict"] == "regressed"
            print(f"{workload:<22}{name:<16}{v['median_a']:>12.5g}"
                  f"{v['median_b']:>12.5g}{v['change']:>+9.1%}"
                  f"{v['spread_a']:>8.1%}"
                  f"{v['wins']:>4}/{v['pairs']:<2}  {v['verdict']}")
        frac_a = a[workload]["failed"] / max(a[workload]["attempted"], 1)
        frac_b = b[workload]["failed"] / max(b[workload]["attempted"], 1)
        if frac_b > frac_a:
            bad += 1
            print(f"{workload:<22}failed_frac     {frac_a:>12.5g}"
                  f"{frac_b:>12.5g}  regressed")
    return 1 if bad else 0
