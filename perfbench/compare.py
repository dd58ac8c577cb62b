"""Compare two result sets written by run.py --results.

For every (metric, workload) pair it prints each side's median and
quartiles and a verdict against the bound BENCHMARK.json gives the metric:

  REGRESSED      the new median is worse than the old by more than the bound
  improved       better by more than the old runs' own spread (quartile
                 distance); a claimed gain also needs the paired-run rule
  within bound   neither of the above
  unresolved     a side's spread exceeds the bound, and neither side's runs
                 all beat the other's
  no bound       per-layer metric: the change is shown, no verdict

Exits 1 when any end-to-end metric regressed.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path


def load(path: Path) -> dict:
    """(workload, metric) -> (unit, [values]) over the records in a file."""
    groups = {}
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        for name, metric in record["metrics"].items():
            unit, values = groups.setdefault((record["workload"], name), (metric["unit"], []))
            if metric["value"] is not None:
                values.append(metric["value"])
    return groups


def summary(values):
    """(median, first quartile, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def verdict(old, new, better: str, bound) -> str:
    if bound is None:
        return "no bound"
    sign = 1.0 if better == "lower" else -1.0
    (m_old, q1_old, q3_old), (m_new, q1_new, q3_new) = summary(old), summary(new)
    if m_old == 0:
        return "unresolved (old median is 0)"
    worse = sign * (m_new - m_old) / abs(m_old)
    spread_old = (q3_old - q1_old) / abs(m_old)
    spread_new = (q3_new - q1_new) / abs(m_new) if m_new else float("inf")
    if max(spread_old, spread_new) > bound:
        if all(sign * (n - o) < 0 for n in new for o in old):
            return "improved (every run)"
        if all(sign * (n - o) > 0 for n in new for o in old):
            return "REGRESSED (every run)"
        return "unresolved (spread > bound)"
    if worse > bound:
        return "REGRESSED"
    if -worse > spread_old:
        return "improved"
    return "within bound"


def main(old_path: Path, new_path: Path, benchmark_json: Path) -> int:
    spec = json.loads(benchmark_json.read_text())
    rules = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    rules.update({m["name"]: (m["better"], None) for m in spec["per_layer"]})
    old, new = load(old_path), load(new_path)
    regressed = False
    header = f"{'workload':<20} {'metric':<42} {'old median [q1, q3] n':>34} {'new median [q1, q3] n':>34} {'change':>8}  verdict"
    print(header)
    for key in sorted(old.keys() | new.keys()):
        workload, name = key
        unit, a = old.get(key, ("", []))
        unit, b = new.get(key, (unit, []))
        better, bound = rules.get(name, ("lower", None))
        if not a or not b:
            print(f"{workload:<20} {name:<42} {'(missing on one side)':>34}")
            continue
        (ma, qa1, qa3), (mb, qb1, qb3) = summary(a), summary(b)
        change = f"{100 * (mb - ma) / abs(ma):+.1f}%" if ma else "n/a"
        v = verdict(a, b, better, bound)
        regressed |= v.startswith("REGRESSED")
        print(f"{workload:<20} {name:<42} "
              f"{f'{ma:.4g} [{qa1:.4g}, {qa3:.4g}] {len(a)}':>34} "
              f"{f'{mb:.4g} [{qb1:.4g}, {qb3:.4g}] {len(b)}':>34} {change:>8}  {v} ({unit})")
    return 1 if regressed else 0
