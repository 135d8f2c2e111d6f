"""Compare two sets of benchmark runs metric by metric, workload by workload.

Usage::

    python3 benchmarks/harness/compare.py PARENT.json CHANGE.json
    python3 benchmarks/harness/compare.py SET.json        # spreads only
    python3 benchmarks/harness/compare.py --raw SET.json  # unscaled timings

A set file is what ``sweep.py`` writes: ``{"runs": [record, ...]}``,
each record holding ``workload``, ``seed`` and the run's printed result.
For every workload and end-to-end metric of ``BENCHMARK.json`` this
prints each set's median and quartiles, the relative spread
(interquartile range over median) and a verdict for the change:

* ``gain`` - at least 10 pairs (matched by seed), the change wins at
  least 9 in 10 of them (ties count for neither), and the medians differ
  by more than the parent's interquartile range;
* ``regression`` - the change's median is worse than the parent's by
  more than the metric's bound;
* ``unresolved`` - either set's spread is wider than the bound, unless
  every run of the change reads better than every run of the parent;
* ``ok`` - none of the above.

``--raw`` reads the timings before they were scaled to the reference
host speed, as ``sweep.py`` records them beside each result.

It also compares the share of failed operations.  A run that ended
without a result (``sweep.py`` records it with an ``error`` and no
metrics) is errored: it counts as a run whose every operation failed,
with as many operations as its side's median run.  The exit status is 1
when any metric regressed, the change fails a larger share of operations
or has more errored runs, or, given one set, when any of its runs
errored; else 0.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[2]
MIN_PAIRS = 10
WIN_SHARE = 0.9


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else math.inf


def load_runs(path: Path) -> Tuple[Dict[str, Dict[int, dict]], Dict[str, int]]:
    """``({workload: {seed: record}}, {workload: errored runs})`` of a set."""
    payload = json.loads(path.read_text(encoding="utf-8"))
    runs: Dict[str, Dict[int, dict]] = {}
    errored: Dict[str, int] = {}
    for record in payload["runs"]:
        workload = record["workload"]
        if "metrics" in record:
            runs.setdefault(workload, {})[record["seed"]] = record
        else:
            errored[workload] = errored.get(workload, 0) + 1
    return runs, errored


def verdict(
    parent: Dict[int, float], change: Dict[int, float], better: str, bound: float
) -> Tuple[str, int, int]:
    """``(verdict, wins, pairs)`` for one metric on one workload."""
    sign = 1.0 if better == "higher" else -1.0
    seeds = sorted(set(parent) & set(change))
    wins = sum(1 for s in seeds if sign * (change[s] - parent[s]) > 0)
    a, b = list(parent.values()), list(change.values())
    q1, median_a, q3 = quartiles(a)
    median_b = statistics.median(b)
    improvement = sign * (median_b - median_a)
    if (
        len(seeds) >= MIN_PAIRS
        and wins >= WIN_SHARE * len(seeds)
        and improvement > q3 - q1
    ):
        return "gain", wins, len(seeds)
    if -improvement > bound * abs(median_a):
        return "regression", wins, len(seeds)
    if max(spread(a), spread(b)) > bound:
        every_better = min(sign * v for v in b) > max(sign * v for v in a)
        return ("better" if every_better else "unresolved"), wins, len(seeds)
    return "ok", wins, len(seeds)


def failed_share(runs: Dict[int, dict], errored: int) -> float:
    """Failed operations over attempted ones; an errored run fails all of its."""
    attempted = [r["attempted"] for r in runs.values()]
    lost = errored * (statistics.median(attempted) if attempted else 1)
    total = sum(attempted) + lost
    return (sum(r["failed"] for r in runs.values()) + lost) / total if total else 0.0


def _cell(values: List[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:.5g} [{q1:.5g}, {q3:.5g}]"


def value(record: dict, name: str, raw: bool) -> float:
    """One metric of one run; with ``raw``, its unscaled timing if it has one."""
    if raw and name in record.get("raw", {}):
        return record["raw"][name]
    return record["metrics"][name]["value"]


def compare(
    benchmark: dict, parent_path: Path, change_path: Optional[Path], raw: bool = False
) -> int:
    parent, parent_errored = load_runs(parent_path)
    change, change_errored = load_runs(change_path) if change_path else (None, {})
    status = 0
    for workload in (w["name"] for w in benchmark["workloads"]):
        a_runs = parent.get(workload, {})
        b_runs = change.get(workload, {}) if change is not None else {}
        a_errored = parent_errored.get(workload, 0)
        b_errored = change_errored.get(workload, 0)
        header = (
            f"\n{workload}: {len(a_runs)} runs, {a_errored} errored, "
            f"failed share {failed_share(a_runs, a_errored):.4%}"
        )
        if change is not None:
            header += (
                f" | change: {len(b_runs)} runs, {b_errored} errored, "
                f"failed share {failed_share(b_runs, b_errored):.4%}"
            )
            if b_errored > a_errored:
                header += "  <- more runs error"
                status = 1
            if failed_share(b_runs, b_errored) > failed_share(a_runs, a_errored):
                header += "  <- more operations fail"
                status = 1
        elif a_errored:
            header += "  <- runs errored"
            status = 1
        if not a_runs or (change is not None and not b_runs):
            print(header + "  <- no runs to compare")
            status = 1
            continue
        print(header)
        for metric in benchmark["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = {s: value(r, name, raw) for s, r in a_runs.items()}
            row = (
                f"  {name:<26}{metric['unit']:>9}  {_cell(list(a.values())):<36}"
                f"spread {spread(list(a.values())):7.2%} bound {bound:6.2%}"
            )
            if change is None:
                if spread(list(a.values())) > bound:
                    row += "  spread wider than bound"
                print(row)
                continue
            b = {s: value(r, name, raw) for s, r in b_runs.items()}
            median_a = statistics.median(a.values())
            delta = (statistics.median(b.values()) - median_a) / abs(median_a)
            result, wins, pairs = verdict(a, b, metric["better"], bound)
            if result == "regression":
                status = 1
            row += (
                f" | {_cell(list(b.values())):<36}spread {spread(list(b.values())):7.2%}"
                f"  delta {delta:+7.2%}  wins {wins}/{pairs}  {result}"
            )
            print(row)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path, nargs="?")
    parser.add_argument("--benchmark", type=Path, default=ROOT / "BENCHMARK.json")
    parser.add_argument("--raw", action="store_true", help="compare unscaled timings")
    args = parser.parse_args(argv)
    benchmark = json.loads(args.benchmark.read_text(encoding="utf-8"))
    return compare(benchmark, args.parent, args.change, args.raw)


if __name__ == "__main__":
    sys.exit(main())
