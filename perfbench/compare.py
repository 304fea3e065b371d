"""Compare two sets of runs written with ``run.py --out``, workload by workload.

For every metric it prints each side's median and quartiles and the change
of the median as a share of the first side's.  A metric with a bound in
BENCHMARK.json is marked:

    worse       the second median is worse than the first by more than the bound
    better      it is better by more than the first side's quartile spread
    same        neither
    unresolved  either side's quartile spread, as a share of its median, exceeds
                the bound, and not every run of one side beats every run of the other
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path


def _load(path: str) -> dict[str, dict[str, list[float]]]:
    runs: dict[str, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
    for line in Path(path).read_text().splitlines():
        if line.strip():
            record = json.loads(line)
            for name, metric in record["metrics"].items():
                runs[record["workload"]][name].append(metric["value"])
    return runs


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _status(a: list[float], b: list[float], spec: dict) -> str:
    if "bound" not in spec:
        return ""
    sign = 1 if spec["better"] == "lower" else -1
    (a1, am, a3), (b1, bm, b3) = _quartiles(a), _quartiles(b)
    if am == 0:
        return "same" if bm == 0 else "unresolved"
    spread = max((a3 - a1) / abs(am), (b3 - b1) / abs(bm) if bm else 0)
    if spread > spec["bound"]:
        if all(sign * (y - x) < 0 for x in a for y in b):
            return "better"
        if all(sign * (y - x) > 0 for x in a for y in b):
            return "worse"
        return "unresolved"
    change = sign * (bm - am) / abs(am)
    if change > spec["bound"]:
        return "worse"
    if -change > (a3 - a1) / abs(am):
        return "better"
    return "same"


def compare(before: str, after: str, spec: dict) -> int:
    specs = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    a, b = _load(before), _load(after)
    for workload in sorted(set(a) & set(b)):
        print(f"== {workload}: {before} -> {after}")
        print(f"{'metric':<30} {'median A':>12} {'q1..q3 A':>23} {'median B':>12} "
              f"{'q1..q3 B':>23} {'change':>8}  status")
        extra = sorted((set(a[workload]) | set(b[workload])) - set(specs))
        for name in list(specs) + extra:
            va, vb = a[workload].get(name), b[workload].get(name)
            if not va or not vb:
                continue
            (a1, am, a3), (b1, bm, b3) = _quartiles(va), _quartiles(vb)
            change = f"{(bm - am) / abs(am):+.1%}" if am else "n/a"
            print(f"{name:<30} {am:>12.6g} {a1:>11.5g}..{a3:<11.5g} {bm:>12.6g} "
                  f"{b1:>11.5g}..{b3:<11.5g} {change:>8}  {_status(va, vb, specs.get(name, {}))}")
    only = sorted(set(a) ^ set(b))
    if only:
        print("workloads on one side only: " + ", ".join(only))
    return 0
