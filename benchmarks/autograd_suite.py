"""Machine-readable autograd benchmark suite (``BENCH_autograd.json``).

Times an embedding-heavy train step (large id vocabularies, batch 512,
row-sparse embedding gradients) in float64 and in float32 inside one
process, plus the runtime sanitizer's on-vs-off overhead and the serving
engine's incremental refresh.  Every arm runs the fused layers
(``FeatureEmbeddings`` is one fused embedding-bag node).  Emits a JSON
report consumed by the CI smoke job and the float64 step's per-op
breakdown via the ``repro.obs`` autograd profiler.

Run from the repository root::

    PYTHONPATH=src python benchmarks/autograd_suite.py --preset smoke

The regression check compares the float32-vs-float64 *speedup ratio*
(measured inside one run) rather than absolute wall-time, so a committed
baseline remains meaningful across machines::

    PYTHONPATH=src python benchmarks/autograd_suite.py --preset smoke \
        --baseline benchmarks/results/BENCH_autograd_smoke.json --max-regression 1.10
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.nn import Tensor, default_dtype
from repro.nn.layers.embedding import FeatureEmbeddings
from repro.nn.layers.linear import Linear
from repro.nn.losses import binary_cross_entropy_with_logits
from repro.nn.module import Module
from repro.nn.optim import Adam
from repro.obs import AutogradProfiler

RESULTS_DIR = Path(__file__).parent / "results"

PRESETS = {
    # Smoke: seconds, for CI. Default: the committed reference numbers.
    "smoke": {
        "vocab_sizes": {"user_id": 50_000, "item_id": 30_000, "category": 500},
        "embedding_dims": {"user_id": 16, "item_id": 16, "category": 8},
        "batch_size": 512,
        "steps": 40,
        "warmup_steps": 5,
        "engine": {"n_users": 200, "n_items": 300, "n_new_items": 400,
                   "n_interactions": 4_000},
    },
    "default": {
        "vocab_sizes": {"user_id": 200_000, "item_id": 100_000, "category": 1_000},
        "embedding_dims": {"user_id": 32, "item_id": 32, "category": 8},
        "batch_size": 512,
        "steps": 30,
        "warmup_steps": 5,
        "engine": {"n_users": 400, "n_items": 600, "n_new_items": 2_000,
                   "n_interactions": 8_000},
    },
}


class _EmbeddingHeavyModel(Module):
    """Wide embedding bank + a thin head: the shape that stresses the
    embedding backward and the optimizer sweep."""

    def __init__(self, vocab_sizes, embedding_dims, rng) -> None:
        super().__init__()
        self.embeddings = FeatureEmbeddings(vocab_sizes, embedding_dims, rng=rng)
        self.head = Linear(self.embeddings.output_dim, 1, rng=rng)

    def forward(self, features) -> Tensor:
        return self.head(self.embeddings(features)).reshape((-1,))


def _make_batch(vocab_sizes, batch_size, rng):
    return {
        name: rng.integers(0, size, size=batch_size)
        for name, size in vocab_sizes.items()
    }


def _timed_steps(model, optimizer, batches, labels):
    """Run one train step per batch, returning per-step wall times."""
    times = []
    for features in batches:
        start = time.perf_counter()
        optimizer.zero_grad()
        loss = binary_cross_entropy_with_logits(model(features), labels)
        loss.backward()
        optimizer.step()
        times.append(time.perf_counter() - start)
    return times


def _build_arm(preset, dtype, seed=0):
    """Model, optimizer, batches (warm-up first) and labels of one arm."""
    config = PRESETS[preset]
    rng = np.random.default_rng(seed)
    with default_dtype(dtype):
        model = _EmbeddingHeavyModel(
            config["vocab_sizes"], config["embedding_dims"], rng
        )
        model.to_dtype(dtype)
        optimizer = Adam(model.parameters(), lr=1e-3)
    labels = (rng.random(config["batch_size"]) < 0.3).astype(float)
    batches = [
        _make_batch(config["vocab_sizes"], config["batch_size"], rng)
        for _ in range(config["warmup_steps"] + config["steps"])
    ]
    return model, optimizer, batches, labels


def _timings(times):
    return {
        "seconds_per_step": float(np.mean(times)),
        "seconds_per_step_median": float(np.median(times)),
        "seconds_per_step_std": float(np.std(times)),
        "steps": len(times),
    }


def _interleaved_dtypes(preset, dtypes, seed=0):
    """Time the train step in each of ``dtypes``, one step of each per round.

    The order of the arms rotates from round to round, so drift of a
    shared host and the cost of going first hit every dtype alike.  Timed
    one arm after the other (10 smoke steps each), the ratio swung from
    0.85 to 1.84 over 30 runs on a 2-vCPU host.
    """
    warmup = PRESETS[preset]["warmup_steps"]
    arms = [(dtype, *_build_arm(preset, dtype, seed)) for dtype in dtypes]
    times = [[] for _ in arms]
    for step in range(warmup + PRESETS[preset]["steps"]):
        for offset in range(len(arms)):
            index = (step + offset) % len(arms)
            dtype, model, optimizer, batches, labels = arms[index]
            with default_dtype(dtype):
                elapsed = _timed_steps(model, optimizer, [batches[step]], labels)
            if step >= warmup:
                times[index] += elapsed
    return [_timings(arm_times) for arm_times in times]


def _interleaved_sanitizer(preset, seed=0):
    """Time the float64 step with the sanitizer off, on and deep, per round.

    ``"on"`` is the standard mode (version checks + NaN/Inf taint),
    ``"deep"`` additionally fingerprints every saved buffer
    (``check_content=True``).  One model runs every arm: each round
    takes one step per arm, enabling or disabling the sanitizer between
    steps outside the timed region, and the arm order rotates from round
    to round as in :func:`_interleaved_dtypes`.
    """
    from repro.analysis import GradSanitizer

    dtype = np.float64  # repro-lint: disable=ATN002 -- the bench matrix compares dtypes explicitly; float64 is this variant's subject, not a default
    warmup = PRESETS[preset]["warmup_steps"]
    sanitizers = {
        "off": None,
        "on": GradSanitizer(track_nonfinite=True),
        "deep": GradSanitizer(track_nonfinite=True, check_content=True),
    }
    arms = list(sanitizers)
    model, optimizer, batches, labels = _build_arm(preset, dtype, seed)
    times = {arm: [] for arm in arms}
    with default_dtype(dtype):
        for step in range(warmup + PRESETS[preset]["steps"]):
            for offset in range(len(arms)):
                arm = arms[(step + offset) % len(arms)]
                sanitizer = sanitizers[arm]
                if sanitizer is not None:
                    sanitizer.enable()
                try:
                    elapsed = _timed_steps(
                        model, optimizer, [batches[step]], labels
                    )
                finally:
                    if sanitizer is not None:
                        sanitizer.disable()
                if step >= warmup:
                    times[arm] += elapsed
    return {arm: _timings(arm_times) for arm, arm_times in times.items()}


def _profiled_step(preset, dtype, seed=0):
    """The train step's per-op breakdown under the autograd profiler."""
    warmup = PRESETS[preset]["warmup_steps"]
    model, optimizer, batches, labels = _build_arm(preset, dtype, seed)
    profiler = AutogradProfiler()
    with default_dtype(dtype):
        _timed_steps(model, optimizer, batches[:warmup], labels)
        with profiler:
            _timed_steps(model, optimizer, batches[warmup:], labels)
    return list(profiler.iter_records()), profiler.to_text()


def _bench_engine_refresh(preset):
    """Full vs incremental serving refresh after a small event burst."""
    from repro.core import ATNN, TowerConfig
    from repro.data.synthetic import TmallConfig, generate_tmall_world
    from repro.serving import EngineConfig, RealTimeEngine, generate_event_stream

    sizes = PRESETS[preset]["engine"]
    world = generate_tmall_world(TmallConfig(seed=2, **sizes))
    model = ATNN(
        world.schema,
        TowerConfig(vector_dim=16, deep_dims=(32, 16), head_dims=(32,),
                    num_cross_layers=1),
        rng=np.random.default_rng(0),
    )
    engine = RealTimeEngine(
        model, world.new_items, world.active_user_group(0.25),
        EngineConfig(warm_view_threshold=5),
    )
    engine.refresh()
    rng = np.random.default_rng(3)
    touched = np.arange(10)

    def ingest():
        engine.ingest(
            generate_event_stream(world, touched, n_events=200, rng=rng)
        )

    ingest()
    start = time.perf_counter()
    engine.refresh(full=True)
    full_seconds = time.perf_counter() - start

    ingest()
    start = time.perf_counter()
    engine.refresh()
    incremental_seconds = time.perf_counter() - start
    return {
        "catalogue_slots": int(len(world.new_items)),
        "touched_slots": int(touched.size),
        "full_seconds": full_seconds,
        "incremental_seconds": incremental_seconds,
        "speedup": full_seconds / max(incremental_seconds, 1e-12),
    }


def run_suite(preset: str) -> dict:
    config = PRESETS[preset]
    print(f"[autograd-suite] preset={preset} "
          f"vocab={sum(config['vocab_sizes'].values())} "
          f"batch={config['batch_size']} steps={config['steps']}")

    print("[autograd-suite] sparse float64 and float32, interleaved ...")
    sparse_f64, sparse_f32 = _interleaved_dtypes(preset, (np.float64, np.float32))  # repro-lint: disable=ATN002 -- the bench matrix compares dtypes explicitly; float64 is this variant's subject, not a default
    print(f"  float64 {sparse_f64['seconds_per_step_median'] * 1e3:.2f} ms/step, "
          f"float32 {sparse_f32['seconds_per_step_median'] * 1e3:.2f} ms/step (medians)")

    # Sanitizer overhead; the gated ratio above never runs under it.
    print("[autograd-suite] sparse float64, sanitizer off/on/deep, interleaved ...")
    sanitizer = _interleaved_sanitizer(preset)
    print("  " + ", ".join(
        f"{arm} {timings['seconds_per_step_median'] * 1e3:.2f} ms/step"
        for arm, timings in sanitizer.items()
    ) + " (medians)")

    # The per-op breakdown comes from its own run: the profiler's hooks
    # would otherwise inflate the float64 time every ratio divides.
    print("[autograd-suite] sparse float64 under the autograd profiler ...")
    per_op, breakdown_text = _profiled_step(preset, dtype=np.float64)  # repro-lint: disable=ATN002 -- the bench matrix compares dtypes explicitly; float64 is this variant's subject, not a default

    print("[autograd-suite] serving refresh full vs incremental ...")
    engine = _bench_engine_refresh(preset)
    print(f"  full {engine['full_seconds'] * 1e3:.2f} ms vs incremental "
          f"{engine['incremental_seconds'] * 1e3:.2f} ms "
          f"({engine['speedup']:.1f}x)")

    off_median = sanitizer["off"]["seconds_per_step_median"]
    speedup = (
        sparse_f64["seconds_per_step_median"] / sparse_f32["seconds_per_step_median"]
    )
    report = {
        "preset": preset,
        "config": {k: config[k] for k in
                   ("vocab_sizes", "embedding_dims", "batch_size", "steps")},
        "train_step": {
            "sparse_f64": sparse_f64,
            "sparse_f32": sparse_f32,
            "speedup_f32_vs_f64": speedup,
        },
        "sanitizer": {
            **sanitizer,
            "overhead_on_vs_off": (
                sanitizer["on"]["seconds_per_step_median"] / off_median
            ),
            "overhead_deep_vs_off": (
                sanitizer["deep"]["seconds_per_step_median"] / off_median
            ),
        },
        "per_op": {"sparse_f64": per_op},
        "serving_refresh": engine,
    }
    print(f"[autograd-suite] float32-vs-float64 speedup: {speedup:.2f}x")
    return report, breakdown_text


def check_regression(report: dict, baseline_path: Path, max_regression: float) -> bool:
    """True when no measured speedup ratio has collapsed vs the baseline.

    Compares dimensionless in-run ratios (float32 vs float64) so the check
    is stable across machines of different absolute speed.  Ratios the
    baseline file predates are skipped with a note.
    """
    baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
    gates = [("speedup_f32_vs_f64", "float32-vs-float64")]
    passed = True
    for key, label in gates:
        reference = baseline["train_step"].get(key)
        if reference is None:
            print(f"[autograd-suite] {label}: no baseline ratio, skipped")
            continue
        measured = report["train_step"][key]
        floor = reference / max_regression
        verdict = "ok" if measured >= floor else "FAIL"
        print(f"[autograd-suite] regression check [{label}]: measured "
              f"{measured:.2f}x vs baseline {reference:.2f}x "
              f"(floor {floor:.2f}x) {verdict}")
        passed = passed and measured >= floor

    return passed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--preset", choices=sorted(PRESETS), default="default")
    parser.add_argument(
        "--output", type=Path, default=None,
        help="Report path; defaults to BENCH_autograd.json "
             "(BENCH_autograd_smoke.json for --preset smoke).",
    )
    parser.add_argument(
        "--baseline", type=Path, default=None,
        help="Committed BENCH_autograd.json to check for regressions against.",
    )
    parser.add_argument(
        "--max-regression", type=float, default=2.0,
        help="Fail when the speedup ratio drops below baseline / this factor.",
    )
    parser.add_argument(
        "--skip-breakdown-artifacts", action="store_true",
        help="Do not (re)write the per-op breakdown text artifacts.",
    )
    args = parser.parse_args(argv)
    if args.output is None:
        name = (
            "BENCH_autograd_smoke.json" if args.preset == "smoke"
            else "BENCH_autograd.json"
        )
        args.output = RESULTS_DIR / name

    report, breakdown = run_suite(args.preset)

    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"[autograd-suite] wrote {args.output}")

    if not args.skip_breakdown_artifacts:
        path = RESULTS_DIR / "autograd_sparse_op_breakdown.txt"
        path.write_text(
            "sparse (SparseGrad) float64 embedding-heavy train step\n"
            f"{breakdown}\n",
            encoding="utf-8",
        )
        print(f"[autograd-suite] wrote {path}")

    if args.baseline is not None:
        if not args.baseline.exists():
            print(f"[autograd-suite] FAIL: baseline {args.baseline} not found")
            return 1
        if not check_regression(report, args.baseline, args.max_regression):
            print("[autograd-suite] FAIL: speedup regressed beyond the "
                  f"allowed {args.max_regression}x factor")
            return 1
        print("[autograd-suite] regression check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
