#!/usr/bin/env python3
"""Diff two sets of benchmark results with the benchmark's own bounds.

    python3 perfbench/compare.py BASE NEW

``BASE`` and ``NEW`` are result files or directories of them (each run
of ``perfbench/run.py`` stores one under ``.perfbench/results/``); only
untraced runs count.  Every workload x end-to-end metric pair is
classified, one row per workload:

* ``improved``  — the new median is better by more than the base's own
  inter-quartile spread and the new side wins at least 9 in 10 of all
  base/new pairs (or every new run beats every base run);
* ``worse``     — the new median is worse by more than the metric's
  bound;
* ``unresolved`` — either side spreads wider than the bound, so the runs
  cannot tell, unless every new run reads better (or worse) than every
  base run;
* ``within``    — none of the above: no change beyond the bound.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, Iterable, List

import stats

ROOT = Path(__file__).resolve().parent.parent
WIN_SHARE = 0.9


def load(path: Path) -> Dict[str, Dict[str, List[float]]]:
    """workload -> metric -> values, from untraced result records."""
    files = sorted(path.rglob("*.json")) if path.is_dir() else [path]
    values: Dict[str, Dict[str, List[float]]] = {}
    for file in files:
        record = json.loads(file.read_text(encoding="utf-8"))
        if record.get("trace") != 0 or "end_to_end" not in record:
            continue
        per_metric = values.setdefault(record["workload"], {})
        for name, value in record["end_to_end"].items():
            per_metric.setdefault(name, []).append(float(value))
    return values


def _wins(new: Iterable[float], base: Iterable[float], higher: bool) -> float:
    """Share of (base, new) pairs the new side wins; ties count for none."""
    base = list(base)
    new = list(new)
    won = sum((n > b) if higher else (n < b) for n in new for b in base)
    return won / (len(new) * len(base))


def classify(base: List[float], new: List[float], better: str,
             bound: float) -> Dict[str, object]:
    """Classify one workload x metric pair; see the module docstring."""
    higher = better == "higher"
    base_mid = stats.median(base)
    new_mid = stats.median(new)
    change = (new_mid - base_mid) / abs(base_mid) if base_mid else 0.0
    worse_by = -change if higher else change
    spread = max(stats.spread(base), stats.spread(new))
    wins = _wins(new, base, higher)
    losses = _wins(base, new, higher)
    if wins == 1.0 and worse_by < 0:
        label = "improved"
    elif losses == 1.0 and worse_by > bound:
        label = "worse"
    elif spread > bound:
        label = "unresolved"
    elif worse_by > bound:
        label = "worse"
    elif -worse_by > stats.spread(base) and wins >= WIN_SHARE:
        label = "improved"
    else:
        label = "within"
    return {"label": label, "change": change, "spread": spread,
            "base_median": base_mid, "new_median": new_mid,
            "wins": wins, "base_runs": len(base), "new_runs": len(new)}


def compare(base: Dict[str, Dict[str, List[float]]],
            new: Dict[str, Dict[str, List[float]]],
            metrics: List[dict]) -> Dict[str, Dict[str, dict]]:
    """workload -> metric -> classification, for workloads on both sides."""
    table: Dict[str, Dict[str, dict]] = {}
    for workload in sorted(set(base) & set(new)):
        row = table.setdefault(workload, {})
        for metric in metrics:
            name = metric["name"]
            if name in base[workload] and name in new[workload]:
                row[name] = classify(base[workload][name],
                                     new[workload][name],
                                     metric["better"], metric["bound"])
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--benchmark", type=Path,
                        default=ROOT / "BENCHMARK.json",
                        help="where the metric bounds are read from")
    args = parser.parse_args(argv)
    metrics = json.loads(args.benchmark.read_text(encoding="utf-8"))[
        "end_to_end"]
    table = compare(load(args.base), load(args.new), metrics)
    if not table:
        print("compare: no workload has untraced results on both sides",
              file=sys.stderr)
        return 2
    names = [m["name"] for m in metrics]
    print("workload".ljust(12) + "".join(n.rjust(22) for n in names))
    for workload, row in table.items():
        cells = []
        for name in names:
            cell = row.get(name)
            cells.append("-" if cell is None else
                         f"{cell['label']} {cell['change']:+.1%}")
        print(workload.ljust(12) + "".join(c.rjust(22) for c in cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())
