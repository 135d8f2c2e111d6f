"""Machine-readable MIPS retrieval benchmark (``BENCH_retrieval.json``).

Measures the partitioned IVF index against the brute-force oracle on
gaussian-mixture corpora (the shape two-tower item embeddings take):

* recall@k vs ``nprobe`` curves, per corpus size;
* build throughput, append-only insert throughput (``insert``: new
  vectors go to their nearest partition; ``splits`` counts any local
  partition split the batch triggered) and the explicit full retrain
  (``repartition``) as a separate arm;
* single-query top-k latency (p50/p99) for both indexes, and the
  brute-vs-IVF speedup at the *serving* ``nprobe`` — the smallest probe
  count on the curve whose recall clears the floor.

Run from the repository root::

    PYTHONPATH=src python benchmarks/test_mips_index.py --preset smoke

The regression check compares dimensionless quantities (recall and the
speedup *ratio* measured in the same run), so a committed baseline stays
meaningful across machines::

    PYTHONPATH=src python benchmarks/test_mips_index.py --preset smoke \
        --baseline benchmarks/results/BENCH_retrieval_smoke.json \
        --max-regression 2.0 --recall-slack 0.05

The module is also collectable by pytest (``test_mips_bench_smoke``)
so the harness can exercise the smoke preset end to end.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.retrieval import BruteForceIndex, IVFIndex, recall_at_k

RESULTS_DIR = Path(__file__).parent / "results"

PRESETS = {
    # Smoke: tens of seconds, for CI. Default: the committed reference
    # numbers (100k + 1M corpora), minutes on one core.
    "smoke": {
        "dim": 32,
        "sizes": [50_000],
        "clusters": 64,
        "spread": 0.2,
        "queries": 64,
        "k": 100,
        "nlist": {50_000: 128},
        "nprobe_curve": [1, 2, 4, 8, 16, 32, 128],
        "recall_floor": 0.95,
        "timing_queries": 50,
        "insert_batch": 2_000,
        "train_sample": 20_000,
    },
    "default": {
        "dim": 64,
        "sizes": [100_000, 1_000_000],
        "clusters": 256,
        "spread": 0.2,
        "queries": 256,
        "k": 100,
        "nlist": {100_000: 256, 1_000_000: 1_024},
        "nprobe_curve": [1, 2, 4, 8, 16, 32, 64, 128],
        "recall_floor": 0.95,
        "timing_queries": 200,
        "insert_batch": 10_000,
        "train_sample": 65_536,
    },
}

# Serving embeddings are float32; the engine's dtype discipline (ATN002)
# exists precisely so this benchmark measures the mode that serves.
DTYPE = np.float32


def _mixture(rng, n, dim, n_clusters, spread):
    """Gaussian-mixture vectors, generated blockwise to bound temporaries."""
    centers = rng.normal(size=(n_clusters, dim)).astype(DTYPE)
    out = np.empty((n, dim), dtype=DTYPE)
    for start in range(0, n, 131_072):
        stop = min(start + 131_072, n)
        assignment = rng.integers(0, n_clusters, size=stop - start)
        noise = rng.normal(size=(stop - start, dim)).astype(DTYPE)
        out[start:stop] = centers[assignment] + spread * noise
    return out


def _single_query_latencies(index, queries, k, repetitions):
    """Per-query wall times (seconds) over ``repetitions`` single searches."""
    index.search(queries[0], k)  # warm caches / lazy allocations
    times = np.empty(repetitions)
    for i in range(repetitions):
        query = queries[i % queries.shape[0]]
        start = time.perf_counter()
        index.search(query, k)
        times[i] = time.perf_counter() - start
    return {
        "p50_ms": float(np.percentile(times, 50) * 1e3),
        "p99_ms": float(np.percentile(times, 99) * 1e3),
        "mean_ms": float(times.mean() * 1e3),
        "repetitions": int(repetitions),
    }


def _bench_size(n, config, seed):
    rng = np.random.default_rng(seed)
    dim, k = config["dim"], config["k"]
    print(f"[mips-bench] corpus n={n} dim={dim} (generating) ...")
    data = _mixture(rng, n, dim, config["clusters"], config["spread"])
    queries = _mixture(
        rng, config["queries"], dim, config["clusters"], config["spread"]
    )

    start = time.perf_counter()
    brute = BruteForceIndex(dim, dtype=DTYPE)
    brute.add(data)
    brute_build = time.perf_counter() - start

    nlist = config["nlist"][n]
    ivf = IVFIndex(
        dim,
        nlist=nlist,
        nprobe=1,
        dtype=DTYPE,
        train_sample=config["train_sample"],
        seed=0,
    )
    start = time.perf_counter()
    ivf.rebuild(data)
    ivf_build = time.perf_counter() - start
    print(
        f"[mips-bench]   build: brute {brute_build:.2f}s, "
        f"ivf {ivf_build:.2f}s (nlist={nlist})"
    )

    reference, _ = brute.search(queries, k)
    curve = []
    for nprobe in config["nprobe_curve"]:
        if nprobe > nlist:
            continue
        ivf.nprobe = nprobe
        start = time.perf_counter()
        candidates, _ = ivf.search(queries, k)
        elapsed = time.perf_counter() - start
        recall = recall_at_k(reference, candidates)
        curve.append(
            {
                "nprobe": int(nprobe),
                "recall_at_k": float(recall),
                "batch_queries_per_second": float(queries.shape[0] / elapsed),
            }
        )
        print(
            f"[mips-bench]   nprobe={nprobe:>4}: recall@{k}={recall:.4f} "
            f"({queries.shape[0] / elapsed:,.0f} q/s batched)"
        )

    floor = config["recall_floor"]
    serving = next(
        (p for p in curve if p["recall_at_k"] >= floor), curve[-1]
    )
    serving_nprobe = serving["nprobe"]

    repetitions = config["timing_queries"]
    brute_latency = _single_query_latencies(brute, queries, k, repetitions)
    ivf.nprobe = serving_nprobe
    ivf_latency = _single_query_latencies(ivf, queries, k, repetitions)
    speedup = brute_latency["p50_ms"] / max(ivf_latency["p50_ms"], 1e-9)
    print(
        f"[mips-bench]   latency p50: brute {brute_latency['p50_ms']:.3f} ms "
        f"vs ivf {ivf_latency['p50_ms']:.3f} ms @ nprobe={serving_nprobe} "
        f"({speedup:.1f}x)"
    )

    extra = _mixture(
        rng, config["insert_batch"], dim, config["clusters"], config["spread"]
    )
    splits_before = ivf.repartitions
    start = time.perf_counter()
    ivf.add(extra)
    insert_seconds = time.perf_counter() - start
    splits = ivf.repartitions - splits_before
    assert len(ivf) == n + config["insert_batch"]

    start = time.perf_counter()
    ivf.repartition()
    repartition_seconds = time.perf_counter() - start
    print(
        f"[mips-bench]   insert {config['insert_batch'] / insert_seconds:,.0f}"
        f" vectors/s ({splits} splits); repartition {repartition_seconds:.2f}s"
    )

    return {
        "n": int(n),
        "nlist": int(nlist),
        "serving_nprobe": int(serving_nprobe),
        "recall_at_serving_nprobe": float(serving["recall_at_k"]),
        "build": {
            "brute_seconds": float(brute_build),
            "ivf_seconds": float(ivf_build),
            "ivf_vectors_per_second": float(n / ivf_build),
        },
        "insert": {
            "batch": int(config["insert_batch"]),
            "seconds": float(insert_seconds),
            "vectors_per_second": float(
                config["insert_batch"] / insert_seconds
            ),
            "splits": int(splits),
        },
        "repartition": {
            "vectors": int(len(ivf)),
            "seconds": float(repartition_seconds),
            "vectors_per_second": float(len(ivf) / repartition_seconds),
        },
        "recall_curve": curve,
        "latency": {
            "brute": brute_latency,
            "ivf": ivf_latency,
            "speedup_p50": float(speedup),
        },
    }


def run_suite(preset: str) -> dict:
    config = PRESETS[preset]
    print(
        f"[mips-bench] preset={preset} dim={config['dim']} "
        f"k={config['k']} sizes={config['sizes']} dtype={DTYPE.__name__}"
    )
    sizes = [
        _bench_size(n, config, seed=7 + i)
        for i, n in enumerate(config["sizes"])
    ]
    return {
        "preset": preset,
        "dtype": DTYPE.__name__,
        "k": int(config["k"]),
        "recall_floor": float(config["recall_floor"]),
        "config": {
            key: config[key]
            for key in ("dim", "clusters", "spread", "queries", "train_sample")
        },
        "sizes": sizes,
    }


def check_regression(
    report: dict,
    baseline_path: Path,
    max_regression: float,
    recall_slack: float,
) -> bool:
    """True when neither recall nor the speedup ratio has collapsed.

    Gates the *largest* corpus in the report against the same corpus in
    the baseline: recall@k at the serving nprobe may drop at most
    ``recall_slack`` absolute, and the brute-vs-IVF p50 speedup at most a
    ``max_regression`` factor (ratio comparison, robust to runner speed).
    """
    baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
    measured = report["sizes"][-1]
    reference = next(
        (s for s in baseline["sizes"] if s["n"] == measured["n"]), None
    )
    if reference is None:
        print(
            f"[mips-bench] FAIL: baseline has no corpus n={measured['n']}"
        )
        return False
    ok = True
    recall_floor = reference["recall_at_serving_nprobe"] - recall_slack
    if measured["recall_at_serving_nprobe"] < recall_floor:
        print(
            f"[mips-bench] FAIL: recall@{report['k']} "
            f"{measured['recall_at_serving_nprobe']:.4f} < floor "
            f"{recall_floor:.4f}"
        )
        ok = False
    speedup_floor = reference["latency"]["speedup_p50"] / max_regression
    if measured["latency"]["speedup_p50"] < speedup_floor:
        print(
            f"[mips-bench] FAIL: speedup "
            f"{measured['latency']['speedup_p50']:.2f}x < floor "
            f"{speedup_floor:.2f}x"
        )
        ok = False
    if ok:
        print(
            f"[mips-bench] regression check: recall "
            f"{measured['recall_at_serving_nprobe']:.4f} "
            f"(floor {recall_floor:.4f}), speedup "
            f"{measured['latency']['speedup_p50']:.2f}x "
            f"(floor {speedup_floor:.2f}x)"
        )
    return ok


def test_mips_bench_smoke(save_report):
    """Harness entry: the smoke preset must clear its own quality bars."""
    report = run_suite("smoke")
    largest = report["sizes"][-1]
    save_report(
        "mips_index_smoke",
        json.dumps(
            {k: largest[k] for k in ("n", "recall_at_serving_nprobe", "latency")},
            indent=2,
        ),
    )
    assert largest["recall_at_serving_nprobe"] >= report["recall_floor"]
    assert largest["latency"]["speedup_p50"] > 1.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--preset", choices=sorted(PRESETS), default="default")
    parser.add_argument(
        "--output", type=Path, default=RESULTS_DIR / "BENCH_retrieval.json"
    )
    parser.add_argument(
        "--baseline", type=Path, default=None,
        help="Committed BENCH_retrieval*.json to check for regressions against.",
    )
    parser.add_argument(
        "--max-regression", type=float, default=2.0,
        help="Fail when the speedup ratio drops below baseline / this factor.",
    )
    parser.add_argument(
        "--recall-slack", type=float, default=0.05,
        help="Allowed absolute recall drop vs the baseline.",
    )
    args = parser.parse_args(argv)

    report = run_suite(args.preset)

    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"[mips-bench] wrote {args.output}")

    if args.baseline is not None:
        if not args.baseline.exists():
            print(f"[mips-bench] FAIL: baseline {args.baseline} not found")
            return 1
        if not check_regression(
            report, args.baseline, args.max_regression, args.recall_slack
        ):
            return 1
        print("[mips-bench] regression check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
