"""Compare two result sets, metric by metric and workload by workload.

A result set is a directory of the records ``run.py`` writes (one JSON file
per run). For each workload and metric found in both sets, prints both
medians with their run counts and spreads, and the ratio new / base. An
end-to-end metric is judged against its bound from BENCHMARK.json: it is
*unresolved* when either set's spread (interquartile range over median)
exceeds the bound, unless every new run reads better than every base run.
Per-layer metrics have no bound and get a ratio only.
"""

from __future__ import annotations

import json
import math
import statistics
from collections import defaultdict
from pathlib import Path


def load(directory: Path) -> dict[tuple[str, str], list[float]]:
    values: dict[tuple[str, str], list[float]] = defaultdict(list)
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text())
        for name, metric in record["metrics"].items():
            values[(record["workload"], name)].append(metric["value"])
    return values


def spread(values: list[float]) -> float:
    """Interquartile range over median; infinite with fewer than two runs."""
    middle = statistics.median(values)
    if len(values) < 2 or middle == 0:
        return math.inf
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(middle)


def verdict(base: list[float], new: list[float], bound: float,
            better: str) -> str:
    sign = 1.0 if better == "lower" else -1.0
    if all(sign * n < sign * b for n in new for b in base):
        return "better in every run"
    if max(spread(base), spread(new)) > bound:
        return "unresolved"
    change = sign * (statistics.median(new) / statistics.median(base) - 1.0)
    if change > bound:
        return "REGRESSED"
    return "better" if change < -bound else "within bound"


def _describe(values: list[float]) -> str:
    sp = spread(values)
    return (f"{statistics.median(values):.6g} (n={len(values)}, spread "
            f"{f'{sp:.1%}' if math.isfinite(sp) else 'n/a'})")


def compare(base_dir: Path, new_dir: Path, benchmark: Path) -> int:
    spec = json.loads(benchmark.read_text())
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    base, new = load(base_dir), load(new_dir)
    for key in sorted(base.keys() & new.keys()):
        workload, name = key
        b, n = base[key], new[key]
        b_mid = statistics.median(b)
        ratio = f"{statistics.median(n) / b_mid:.3f}" if b_mid else "n/a"
        line = (f"{workload:14s} {name:38s} base {_describe(b)}  "
                f"new {_describe(n)}  ratio {ratio}")
        if name in bounds:
            bound, better = bounds[name]
            line += f"  [{verdict(b, n, bound, better)}, bound {bound:.1%}]"
        print(line)
    return 0
