"""Run workloads x seeds, one fresh process per run, into set files.

Usage, from the root of a checkout::

    python3 benchmarks/harness/sweep.py --out DIR [--workloads all]
        [--seeds 0-9] [--seconds N] [--trace 0] [NAME=TREE ...]

``--seconds`` defaults to ``run_seconds`` of ``BENCHMARK.json``.

Each ``TREE`` is the root of a checkout that holds this benchmark
(default: this checkout, named ``current``).  Every (workload, seed)
runs once per tree; with two trees the order alternates from one pair to
the next, so slow drift of the host hits both sides alike.  Each tree's
runs land in ``DIR/NAME.json``, the input of ``compare.py``, with each
run's unscaled timings (``raw``) and host probe time beside its printed
result; the runs' full records land in ``DIR/runs/NAME/``.  To compare
against a parent commit, give it an identical copy of
``benchmarks/harness`` and ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def parse_seeds(text: str) -> List[int]:
    """``"0-9"`` or ``"1,4,7"`` to a list of seeds."""
    seeds: List[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run_once(
    tree: Path, out: Path, workload: str, seed: int, seconds: float, trace: int
) -> Dict:
    """One run in a fresh process: its printed result plus the unscaled timings.

    The run's full record lands in ``out``.
    """
    command = [
        sys.executable, "benchmarks/harness/run.py",
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--out", str(out),
    ]
    start = time.perf_counter()
    completed = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    record: Dict = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "wall_s": time.perf_counter() - start,
    }
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        record["error"] = completed.stderr[-2000:]
        return record
    record.update(json.loads(lines[-1]))
    details = json.loads(
        (out / f"{workload}.seed{seed}.trace{trace}.json").read_text(encoding="utf-8")
    )["details"]
    record["raw"] = details["raw"]
    record["host_probe_us"] = details["host.probe_us"]
    return record


def main(argv=None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    all_workloads = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs="*", default=[f"current={ROOT}"])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--workloads", default="all")
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    args.out = args.out.resolve()  # runs start in their tree
    workloads = all_workloads if args.workloads == "all" else args.workloads.split(",")
    trees = {}
    for spec in args.trees:
        name, _, path = spec.rpartition("=")
        path = Path(path).resolve()
        trees[name or path.name] = path

    runs: Dict[str, List[Dict]] = {name: [] for name in trees}
    pair = 0
    for workload in workloads:
        for seed in parse_seeds(args.seeds):
            names = list(trees)
            if pair % 2:
                names.reverse()
            pair += 1
            for name in names:
                record = run_once(
                    trees[name], args.out / "runs" / name, workload, seed, args.seconds, args.trace
                )
                runs[name].append(record)
                if "error" in record:
                    status = "ERROR"
                else:
                    status = f"attempted={record['attempted']} failed={record['failed']}"
                print(f"{name} {workload} seed={seed} {record['wall_s']:.1f}s {status}", flush=True)

    args.out.mkdir(parents=True, exist_ok=True)
    for name, records in runs.items():
        payload = {"seconds": args.seconds, "trace": args.trace, "runs": records}
        (args.out / f"{name}.json").write_text(
            json.dumps(payload, indent=1) + "\n", encoding="utf-8"
        )
    return int(any("error" in r for records in runs.values() for r in records))


if __name__ == "__main__":
    sys.exit(main())
