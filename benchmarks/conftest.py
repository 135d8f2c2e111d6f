"""Shared fixtures for the benchmark harness.

Every paper table gets one benchmark module.  Heavy artifacts (trained
models over the default-preset worlds) are built once per session and
shared.  Set ``REPRO_BENCH_PRESET=smoke`` to run the whole harness in
about a minute (at reduced statistical fidelity); the default preset takes
on the order of 15 minutes and reproduces the paper's shapes.

Each benchmark renders its table to stdout and writes it under
``benchmarks/results/`` so the reproduced tables survive pytest's output
capture: ``<name>.txt`` for the default preset (the committed tables) and
``<name>.<preset>.txt`` for any other preset (git-ignored), so a smoke
run never overwrites a committed table.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.experiments import build_eleme_artifacts, build_tmall_artifacts

RESULTS_DIR = Path(__file__).parent / "results"


def bench_preset_name() -> str:
    """Preset used by the harness (env-overridable)."""
    return os.environ.get("REPRO_BENCH_PRESET", "default")


@pytest.fixture(scope="session")
def bench_preset() -> str:
    return bench_preset_name()


@pytest.fixture(scope="session")
def tmall_artifacts(bench_preset):
    """One trained e-commerce stack shared by Tables II/III + complexity."""
    return build_tmall_artifacts(bench_preset, keep_individual_users=True)


@pytest.fixture(scope="session")
def eleme_artifacts(bench_preset):
    """One trained food-delivery stack shared by Tables IV/V."""
    return build_eleme_artifacts(bench_preset, adversarial=True)


@pytest.fixture(scope="session")
def save_report(bench_preset):
    """Callable writing a rendered table to benchmarks/results/<name>[.<preset>].txt."""
    RESULTS_DIR.mkdir(exist_ok=True)
    suffix = "" if bench_preset == "default" else f".{bench_preset}"

    def _save(name: str, content: str) -> None:
        path = RESULTS_DIR / f"{name}{suffix}.txt"
        path.write_text(content + "\n", encoding="utf-8")
        print(f"\n{content}\n[saved to {path}]")

    return _save
