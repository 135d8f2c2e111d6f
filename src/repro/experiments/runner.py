"""Experiment registry: run any paper table (or all of them) by name."""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional

from repro.obs.logging import get_logger, kv

from repro.experiments.ablations import (
    run_cross_depth_ablation,
    run_embedding_sharing_ablation,
    run_lambda_ablation,
)
from repro.experiments.complexity import run_complexity
from repro.experiments.extended_baselines import run_extended_baselines
from repro.experiments.pipeline import build_eleme_artifacts, build_tmall_artifacts
from repro.experiments.retrieval import run_retrieval
from repro.experiments.segmentation import run_segmentation
from repro.experiments.serving_eval import run_monitored_serving, run_serving_eval
from repro.experiments.slo_smoke import run_slo_smoke
from repro.experiments.training_curves import run_training_curves
from repro.experiments.transfer import run_transfer
from repro.experiments.table1 import run_table1
from repro.experiments.table2 import run_table2
from repro.experiments.table3 import run_table3
from repro.experiments.table4 import run_table4
from repro.experiments.table5 import run_table5

__all__ = ["EXPERIMENTS", "run_experiment", "run_all", "available_experiments"]

_LOGGER = get_logger("experiments")

EXPERIMENTS: Dict[str, Callable] = {
    "table1": run_table1,
    "table2": run_table2,
    "table3": run_table3,
    "table4": run_table4,
    "table5": run_table5,
    "complexity": run_complexity,
    "extended-baselines": run_extended_baselines,
    "serving-warmup": run_serving_eval,
    "serving-monitor": run_monitored_serving,
    "slo-smoke": run_slo_smoke,
    "retrieval": run_retrieval,
    "segmentation": run_segmentation,
    "training-curves": run_training_curves,
    "transfer-movies": run_transfer,
    "ablation-lambda": run_lambda_ablation,
    "ablation-sharing": run_embedding_sharing_ablation,
    "ablation-cross-depth": run_cross_depth_ablation,
}


def available_experiments() -> List[str]:
    """Names accepted by :func:`run_experiment`."""
    return sorted(EXPERIMENTS)


def run_experiment(name: str, preset: str = "default"):
    """Run one experiment by registry name and return its result object.

    Raises
    ------
    ValueError
        If the name is not registered.
    """
    try:
        runner = EXPERIMENTS[name]
    except KeyError:
        raise ValueError(
            f"unknown experiment {name!r}; choose from {available_experiments()}"
        ) from None
    _LOGGER.info(kv("experiment started", experiment=name, preset=preset))
    start = time.perf_counter()
    result = runner(preset=preset)
    _LOGGER.info(
        kv(
            "experiment finished",
            experiment=name,
            preset=preset,
            elapsed_s=time.perf_counter() - start,
        )
    )
    return result


def run_all(
    preset: str = "default",
    verbose: bool = True,
    include_supplementary: bool = False,
) -> Dict[str, object]:
    """Run every table experiment, sharing trained artifacts where possible.

    Parameters
    ----------
    preset:
        Size preset name.
    verbose:
        Print each rendered table as it completes.
    include_supplementary:
        Also run the beyond-the-paper studies (extended baselines,
        retrieval, serving warm-up, segmentation, movie transfer) —
        roughly doubles the runtime.

    Returns a mapping from experiment name to its result object.
    """
    results: Dict[str, object] = {}
    started = time.perf_counter()
    _LOGGER.info(
        kv(
            "run_all started",
            preset=preset,
            include_supplementary=include_supplementary,
        )
    )

    tmall = build_tmall_artifacts(preset, keep_individual_users=True)
    results["table1"] = run_table1(preset, world=tmall.world)
    results["table2"] = run_table2(preset, artifacts=tmall)
    results["table3"] = run_table3(preset, artifacts=tmall)
    results["complexity"] = run_complexity(preset, artifacts=tmall)

    eleme = build_eleme_artifacts(preset, adversarial=True)
    results["table4"] = run_table4(preset, world=eleme.world, atnn_artifacts=eleme)
    results["table5"] = run_table5(preset, world=eleme.world, artifacts=eleme)

    order = ["table1", "table2", "table3", "table4", "table5", "complexity"]
    if include_supplementary:
        results["extended-baselines"] = run_extended_baselines(
            preset, world=tmall.world
        )
        results["retrieval"] = run_retrieval(preset, artifacts=tmall)
        results["serving-warmup"] = run_serving_eval(preset, artifacts=tmall)
        results["segmentation"] = run_segmentation(preset, artifacts=tmall)
        results["transfer-movies"] = run_transfer(preset)
        order += [
            "extended-baselines",
            "retrieval",
            "serving-warmup",
            "segmentation",
            "transfer-movies",
        ]

    if verbose:
        for name in order:
            print(results[name].render())
            print()
    _LOGGER.info(
        kv(
            "run_all finished",
            preset=preset,
            experiments=len(results),
            elapsed_s=time.perf_counter() - started,
        )
    )
    return results
