"""Does a smaller process heap make ``recommend_for_user``'s search slower?

The search a recommendation runs -- the brute-force index scan for the
request's query -- is timed in one process at two heap sizes, in
interleaved rounds.  (The engine serves a repeat user from a cached
top-k, so timing ``recommend_for_user`` itself would time cache hits.)

* ``lean``: the heap the program leaves now, where a Tmall world's
  interactions are row indices into its user and item tables;
* ``ballast``: the same process plus the materialised feature columns the
  interactions and their 80/20 split used to keep live (one float64 or
  int64 array per column, about 72 MB for the default world).

Each round runs both arms, in an order that alternates from round to
round, and each arm serves the same requests: the queries of users drawn
by activity, a 20 000-item brute-force catalogue and the telemetry
session the ``serve-browse`` benchmark workload arms.  An arm reports the median call
time of each round, and the minor page faults (``ru_minflt``) per call.
The verdict is the median over rounds of ``ballast / lean`` of the same
round, with a bootstrap 95% CI.

Run from the repository root::

    PYTHONPATH=src python benchmarks/recommend_heap.py [--preset smoke]

The table lands in ``benchmarks/results/recommend_heap.txt`` at the
default preset and ``recommend_heap.<preset>.txt`` otherwise.
"""

from __future__ import annotations

import argparse
import gc
import os
import resource
import sys
import time
from pathlib import Path
from typing import Dict, List

# One BLAS thread, as the end-to-end benchmark runs; set before numpy loads.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_variable, "1")

import numpy as np  # noqa: E402

from repro.core import ATNN
from repro.data import GROUP_ITEM_PROFILE, GROUP_USER, FeatureTable, train_test_split
from repro.data.synthetic import TmallConfig, generate_tmall_world
from repro.experiments import get_preset
from repro.nn.tensor import no_grad
from repro.obs import TelemetrySession
from repro.serving import EngineConfig, RealTimeEngine

RESULTS_DIR = Path(__file__).parent / "results"

PRESETS = {
    # Smoke: seconds, for CI.  Default: the committed table.
    "smoke": {"world": "smoke", "catalogue": 2_000, "base_items": 400,
              "rounds": 6, "calls": 50},
    "default": {"world": "default", "catalogue": 20_000, "base_items": 4_000,
                "rounds": 40, "calls": 400},
}
ARMS = ("lean", "ballast")
K = 10


def _engine(preset: dict) -> tuple:
    """An untrained ATNN serving a resampled catalogue, and its requests'
    queries."""
    world_preset = get_preset(preset["world"])
    source = generate_tmall_world(
        TmallConfig(n_users=500, n_items=100, n_new_items=preset["base_items"],
                    n_interactions=100, seed=world_preset.tmall.seed)
    )
    rng = np.random.default_rng(0)
    rows = rng.integers(0, len(source.new_items), size=preset["catalogue"])
    columns = {name: col[rows] for name, col in source.new_items.columns.items()}
    for name in source.schema.numeric_names(GROUP_ITEM_PROFILE):
        columns[name] = columns[name] + rng.normal(0.0, 0.05, size=rows.size)
    model = ATNN(source.schema, world_preset.tower, rng=np.random.default_rng(1))
    engine = RealTimeEngine(
        model, FeatureTable(columns), source.active_user_group(0.25), EngineConfig()
    )
    engine.refresh()
    users = np.minimum(
        np.searchsorted(np.cumsum(source.user_activity), rng.random(preset["calls"])),
        len(source.users) - 1,
    )
    names = source.schema.all_column_names(GROUP_USER)
    model.eval()
    queries = []
    with no_grad():  # one row at a time, as the engine runs the tower
        for user in users.tolist():
            row = {name: source.users[name][user : user + 1] for name in names}
            vector = model.user_vectors(row).data[0]
            queries.append(model.scoring_head.weight.data * vector)
    return engine, queries


def _ballast(world_preset_name: str):
    """The materialised interaction columns, whole and split, as they were kept."""
    world = generate_tmall_world(get_preset(world_preset_name).tmall)
    train, test = train_test_split(world.interactions, 0.2, np.random.default_rng(0))

    def materialise():
        return [dict(data.features) for data in (world.interactions, train, test)]

    return materialise


def _timed(engine, queries) -> tuple:
    """Per-call seconds of one pass over ``queries`` and its minor faults."""
    clock = time.perf_counter
    seconds = np.empty(len(queries))
    gc.collect()
    gc.disable()
    try:
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        search = engine.index.search
        for i, query in enumerate(queries):
            start = clock()
            search(query, K)
            seconds[i] = clock() - start
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    finally:
        gc.enable()
    return seconds, faults / len(queries)


def run(preset_name: str) -> str:
    preset = PRESETS[preset_name]
    engine, queries = _engine(preset)
    materialise = _ballast(preset["world"])
    medians: Dict[str, List[float]] = {arm: [] for arm in ARMS}
    faults: Dict[str, List[float]] = {arm: [] for arm in ARMS}
    with TelemetrySession(profile_autograd=False, monitor=True, slo=True, flight=True):
        _timed(engine, queries)  # warm the first-call paths
        _, first_faults = _timed(engine, queries)  # before any ballast existed
        ballast_mb = 0.0
        for round_index in range(preset["rounds"]):
            order = ARMS if round_index % 2 == 0 else ARMS[::-1]
            for arm in order:
                held = materialise() if arm == "ballast" else []
                ballast_mb = max(ballast_mb, sum(
                    col.nbytes for columns in held for col in columns.values()
                ) / 2**20)
                seconds, per_call = _timed(engine, queries)
                del held
                medians[arm].append(float(np.median(seconds)))
                faults[arm].append(per_call)
    lean, ballast = np.array(medians["lean"]), np.array(medians["ballast"])
    ratios = ballast / lean
    rounds = ratios.size
    resample = np.random.default_rng(0).integers(0, rounds, size=(2_000, rounds))
    low, high = np.percentile(np.median(ratios[resample], axis=1), (2.5, 97.5))
    lines = [
        f"recommend_for_user's index search at two heap sizes ({preset_name} "
        f"preset: {preset['catalogue']} items, k={K}, {len(queries)} calls per arm, "
        f"{rounds} rounds, arm order alternating)",
        f"  lean    : {np.median(lean) * 1e3:.3f} ms median of round medians, "
        f"{np.median(faults['lean']):.2f} minor faults per call",
        f"  ballast : {np.median(ballast) * 1e3:.3f} ms median of round medians, "
        f"{np.median(faults['ballast']):.2f} minor faults per call "
        f"(+{ballast_mb:.1f} MB live)",
        f"  ratio ballast/lean: {np.median(ratios):.4f} median, "
        f"bootstrap 95% CI {low:.4f}-{high:.4f}",
        f"  lean before any ballast existed: {first_faults:.2f} minor faults per call",
    ]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--preset", choices=sorted(PRESETS), default="default")
    args = parser.parse_args(argv)
    report = run(args.preset)
    suffix = "" if args.preset == "default" else f".{args.preset}"
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"recommend_heap{suffix}.txt"
    path.write_text(report + "\n", encoding="utf-8")
    print(f"{report}\n[saved to {path}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
