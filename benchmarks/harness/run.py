"""Run one benchmark workload for one seed, in this fresh process.

Usage, from the root of a checkout::

    python3 benchmarks/harness/run.py --workload serve-browse --seed 0 \\
        --seconds 15 --trace 0 [--out DIR] [--smoke]

The program under test is the checkout's ``src/repro``; the benchmark
exits with an error, printing no result, when it is missing.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: with ``--trace 0`` every
end-to-end metric, with ``--trace 1`` every per-layer metric (the traced
run wraps each layer's public calls and also prints its self-time table).
``--out DIR`` additionally writes the full run record, and for a traced
run the layer table and a Chrome trace, into ``DIR``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
# One BLAS/OpenMP thread: the load generator and the program share one
# thread and one core, so results do not depend on how many cores the
# host lends the BLAS pool.  Must be set before numpy is imported.
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny sizes, for self-tests only"
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"error: the program's source {source}/repro is missing", file=sys.stderr)
        return 2
    for variable in THREAD_VARIABLES:
        os.environ[variable] = "1"
    sys.path.insert(0, str(source))

    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; choose from "
            f"{sorted(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    workload = workloads.WORKLOADS[args.workload]
    scale = workloads.SMOKE if args.smoke else workloads.FULL

    if args.trace:
        recorder = spans.SpanRecorder()
        with spans.installed(recorder):
            outcome = workloads.run_workload(workload, args.seed, args.seconds, recorder, scale)
        metrics = spans.layer_metrics(recorder, spans.per_span_cost())
        metrics["engine.busy_share"] = (outcome.details["engine.busy_share"], "fraction")
        metrics["host.probe_us"] = (outcome.details["host.probe_us"], "us")
        table = spans.layer_table(recorder)
        print(table)
    else:
        recorder = spans.NullRecorder()
        outcome = workloads.run_workload(workload, args.seed, args.seconds, recorder, scale)
        metrics = outcome.metrics

    for error in outcome.details["errors"]:
        print(error, file=sys.stderr)
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        stem = f"{args.workload}.seed{args.seed}.trace{args.trace}"
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "smoke": args.smoke,
            **result,
            "details": outcome.details,
        }
        (args.out / f"{stem}.json").write_text(
            json.dumps(record, indent=1) + "\n", encoding="utf-8"
        )
        if args.trace:
            (args.out / f"{stem}.layers.txt").write_text(table + "\n", encoding="utf-8")
            recorder.write_chrome_trace(args.out / f"{stem}.chrome.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
