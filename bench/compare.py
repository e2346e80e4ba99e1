"""``python -m bench compare PARENT.jsonl CHANGE.jsonl``.

Each file is a run-set: the lines ``python -m bench run --out`` appends,
several seeds per workload.  Both run-sets must have been measured at
the same ``--seconds``.  For every workload and end-to-end metric the
table shows both medians and quartiles, the parent's spread (the
distance between its quartiles, as a share of its median) and the
metric's bound, and gives a verdict:

* ``within``: the change's median is no worse than the parent's by more
  than the bound, or every change run reads better than every parent run;
* ``regressed``: it is worse by more than the bound;
* ``unresolved``: the parent's own spread is wider than the bound, so
  neither can be told apart from noise.

``failed_frac`` is compared absolutely: any rise is a regression.  A
percentile that some run took with fewer than ten samples beyond it is
marked ``(unreportable)``.  The exit status is 1 when anything regressed.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from typing import Any, Dict, List, Set, Tuple

from bench.stats import quartiles


class RunSet:
    """The untraced runs of one ``--out`` file."""

    def __init__(self, path: Path):
        #: ``(workload, metric) -> values``, one per run.
        self.values: Dict[Tuple[str, str], List[float]] = defaultdict(list)
        #: ``(workload, metric)`` pairs some run could not report.
        self.unreportable: Set[Tuple[str, str]] = set()
        self.seconds: Set[float] = set()
        for line in path.read_text().splitlines():
            if not line.strip():
                continue
            record = json.loads(line)
            if record.get("trace"):
                continue
            workload = record["workload"]
            self.seconds.add(record["seconds"])
            for name, entry in record["metrics"].items():
                self.values[(workload, name)].append(entry["value"])
            self.values[(workload, "failed_frac")].append(
                record["failed"] / max(record["attempted"], 1)
            )
            self.unreportable.update(
                (workload, name) for name in record.get("unreportable", ())
            )


def verdict(parent: List[float], change: List[float], better: str,
            bound: float) -> Tuple[str, float, float]:
    """``(verdict, relative worsening, parent spread)``."""
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (cm - pm) / pm if pm else 0.0
    spread = (p3 - p1) / pm if pm else 0.0
    if (max(change) < min(parent)) if better == "lower" else (
            min(change) > max(parent)):
        return "within", worse, spread
    if spread > bound:
        return "unresolved", worse, spread
    return ("regressed" if worse > bound else "within"), worse, spread


def compare(parent_path: Path, change_path: Path,
            benchmark: Dict[str, Any]) -> int:
    parent = RunSet(parent_path)
    change = RunSet(change_path)
    lengths = parent.seconds | change.seconds
    if len(lengths) > 1:
        raise SystemExit(
            "bench: the run-sets were measured at different --seconds "
            f"({', '.join(f'{s:g}' for s in sorted(lengths))}); "
            "compare runs of one length only"
        )
    specs = {m["name"]: m for m in benchmark["end_to_end"]}
    header = (f"{'workload':13s} {'metric':12s} {'parent median [q1, q3]':>30s}"
              f" {'change median [q1, q3]':>30s} {'spread':>7s} {'bound':>6s}"
              f" {'worse':>7s}  verdict")
    print(header)
    regressed = False
    for workload in [w["name"] for w in benchmark["workloads"]]:
        for name in [*specs, "failed_frac"]:
            key = (workload, name)
            a = parent.values.get(key)
            b = change.values.get(key)
            if not a or not b:
                continue
            if name == "failed_frac":
                result = "regressed" if max(b) > max(a) else "within"
                worse, spread, bound = max(b) - max(a), 0.0, 0.0
            else:
                spec = specs[name]
                bound = spec["bound"]
                result, worse, spread = verdict(a, b, spec["better"], bound)
            regressed |= result == "regressed"
            if key in parent.unreportable | change.unreportable:
                result += " (unreportable)"
            cells = []
            for values in (a, b):
                q1, median, q3 = quartiles(values)
                cells.append(f"{median:.4g} [{q1:.4g}, {q3:.4g}] n={len(values)}")
            print(f"{workload:13s} {name:12s} {cells[0]:>30s} {cells[1]:>30s}"
                  f" {spread:7.1%} {bound:6.0%} {worse:+7.1%}  {result}")
    return 1 if regressed else 0
