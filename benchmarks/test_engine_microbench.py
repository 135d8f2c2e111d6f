"""Micro-benchmarks of the substrate kernels.

These time the hot loops that dominate the table pipelines — tower
forward/backward passes, the O(1) scoring kernel, exact AUC and GBDT
fitting — with proper repetition (they are cheap enough to run many
rounds, unlike the table pipelines).
"""

import numpy as np
import pytest

from repro.core import ATNN, TowerConfig
from repro.data.synthetic import TmallConfig, generate_tmall_world
from repro.gbdt import GBDTClassifier
from repro.metrics import roc_auc
from repro.nn.losses import binary_cross_entropy
from repro.nn.optim import Adam


@pytest.fixture(scope="module")
def micro_world():
    return generate_tmall_world(
        TmallConfig(
            n_users=400, n_items=600, n_new_items=200, n_interactions=8_000, seed=2
        )
    )


@pytest.fixture(scope="module")
def micro_model(micro_world):
    return ATNN(
        micro_world.schema,
        TowerConfig(vector_dim=16, deep_dims=(32, 16), head_dims=(32,),
                    num_cross_layers=2),
        rng=np.random.default_rng(0),
    )


def _batch(world, n=512):
    return {name: col[:n] for name, col in world.interactions.features.items()}


def test_bench_forward_pass(benchmark, micro_world, micro_model):
    """Encoder-path forward over a 512-row batch."""
    features = _batch(micro_world)
    micro_model.eval()
    benchmark(lambda: micro_model.predict_proba(features))


def test_bench_train_step(benchmark, micro_world, micro_model):
    """One full L_i forward + backward + Adam step."""
    features = _batch(micro_world)
    labels = micro_world.interactions.label("ctr")[:512]
    optimizer = Adam(micro_model.parameters(), lr=1e-3)
    micro_model.train()

    def step():
        optimizer.zero_grad()
        loss = binary_cross_entropy(micro_model(features), labels)
        loss.backward()
        optimizer.step()
        return loss.item()

    benchmark(step)


def test_bench_train_step_profiled(benchmark, micro_world, micro_model, save_report):
    """The L_i train step under the per-op autograd profiler.

    Besides timing the profiled step, this writes a per-op time breakdown
    artifact (``benchmarks/results/autograd_op_breakdown.txt``) so a
    regression can be localised to one operator instead of the step as a
    whole.
    """
    from repro.obs import AutogradProfiler

    features = _batch(micro_world)
    labels = micro_world.interactions.label("ctr")[:512]
    optimizer = Adam(micro_model.parameters(), lr=1e-3)
    micro_model.train()

    def step():
        optimizer.zero_grad()
        loss = binary_cross_entropy(micro_model(features), labels)
        loss.backward()
        optimizer.step()
        return loss.item()

    profiler = AutogradProfiler()
    with profiler:
        benchmark.pedantic(step, rounds=5, iterations=1)
    report = profiler.report()
    assert "matmul" in report and report["matmul"].backward_calls > 0
    save_report("autograd_op_breakdown", profiler.to_text())


def test_bench_o1_scoring_kernel(benchmark, micro_world, micro_model):
    """The pure serving kernel: score 10k pre-encoded item vectors."""
    from repro.core import PopularityPredictor

    predictor = PopularityPredictor(micro_model)
    predictor.fit_user_group(micro_world.active_user_group(0.25))
    item_vectors = np.random.default_rng(0).normal(
        size=(10_000, micro_model.config.vector_dim)
    )
    result = benchmark(lambda: predictor.score_item_vectors(item_vectors))
    assert result.shape == (10_000,)


def test_bench_exact_auc(benchmark):
    """Exact midrank AUC over 100k scored samples."""
    rng = np.random.default_rng(0)
    labels = (rng.random(100_000) < 0.3).astype(float)
    scores = rng.normal(size=100_000) + labels
    value = benchmark(lambda: roc_auc(labels, scores))
    assert value > 0.7


def test_bench_monitor_overhead(micro_world, micro_model, save_report):
    """Serving loop with observability armed vs off: <5% overhead.

    The monitor's contract is that it rides the serving hot path on
    vectorised batch updates; this times the identical loop — a
    production-shaped traffic mix of event ingestion, score refreshes
    and personalised queries (2 000 views per batch come from the order
    of two hundred k=10 recommendation requests) — bare, with the
    quality monitor, and with the full stack (monitor + tracer + SLO
    tracker + flight recorder).  Each round runs every arm once, in an
    order rotated from round to round, and divides each armed arm's time
    by the baseline of the same round, so load that drifts across a run
    cancels out of the ratio.  The gate is the median ratio over rounds
    (reported with a bootstrap 95% CI), which must stay under the shared
    1.05 budget for each armed layer.  Each default-preset run rewrites
    all of ``benchmarks/results/monitor_overhead.txt``: the file is fully
    generated, so notes about past runs belong in docs/performance.md.
    """
    import gc
    import time as _time

    from repro.data.schema import GROUP_USER
    from repro.obs import (
        FlightRecorder,
        QualityMonitor,
        SLOTracker,
        Telemetry,
        Tracer,
        default_serving_slos,
        use_telemetry,
    )
    from repro.serving import EngineConfig, RealTimeEngine, generate_event_stream

    rng = np.random.default_rng(7)
    catalogue = np.arange(len(micro_world.new_items))
    batches = [
        generate_event_stream(micro_world, catalogue, n_events=2_000, rng=rng)
        for _ in range(5)
    ]
    user_group = micro_world.active_user_group(0.25)
    user_names = micro_model.schema.all_column_names(GROUP_USER)
    query_rows = [
        {name: user_group.columns[name][i : i + 1] for name in user_names}
        for i in range(8)
    ]
    queries_per_batch = 192
    micro_model.eval()

    def serving_loop():
        """One round of one arm; returns the wall time of its batches."""
        engine = RealTimeEngine(
            micro_model,
            micro_world.new_items,
            user_group,
            EngineConfig(warm_view_threshold=20),
        )
        engine.refresh()
        elapsed = 0.0
        for events in batches:
            start = _time.perf_counter()
            engine.ingest(events)
            engine.refresh()
            engine.top_k(10)
            for query in range(queries_per_batch):
                engine.recommend_for_user(
                    query_rows[query % len(query_rows)], 10
                )
            elapsed += _time.perf_counter() - start
        return elapsed

    ARMS = ("baseline", "monitored", "flight")
    ROUNDS = 21  # a multiple of len(ARMS): every arm order runs equally often

    def telemetry_for(arm):
        # sinks=() keeps rare-event alert I/O (measured in the alert
        # tests) and pytest's log capture out of the compute timing.
        # The flight arm uses a latency SLO far above real latencies and
        # an AUC floor far below the untrained model's, so no burn-rate
        # alert (and thus no alert log I/O) fires mid-bench.
        if arm == "baseline":
            return Telemetry()
        monitor = QualityMonitor(sinks=())
        if arm == "monitored":
            return Telemetry(monitor=monitor)
        return Telemetry(
            monitor=monitor,
            tracer=Tracer(),
            slo=SLOTracker(
                default_serving_slos(latency_p99_seconds=60.0, auc_floor=0.01),
                sinks=(),
            ),
            flight=FlightRecorder(capacity=256, auto_dump=False),
        )

    def timed(arm):
        # GC is paused so collection pauses don't land on one arm.
        gc.collect()
        gc.disable()
        try:
            with use_telemetry(telemetry_for(arm)):
                return serving_loop()
        finally:
            gc.enable()

    for arm in ARMS:  # warm every path (first-call caches, allocator)
        timed(arm)
    times = {arm: [] for arm in ARMS}
    for round_index in range(ROUNDS):
        shift = round_index % len(ARMS)
        for arm in ARMS[shift:] + ARMS[:shift]:
            times[arm].append(timed(arm))
    baseline = np.array(times["baseline"])
    resample = np.random.default_rng(0).integers(
        0, ROUNDS, size=(2_000, ROUNDS)
    )
    lines = [
        "observability-armed serving overhead "
        f"({ROUNDS} rounds, arm order rotated each round; ratio = arm / "
        "baseline of the same round, median over rounds, bootstrap 95% CI)",
        f"  baseline                  : {np.median(baseline) * 1e3:.2f} ms median",
    ]
    medians = {}
    for arm, label in (
        ("monitored", "monitored                 "),
        ("flight", "monitor+tracer+slo+flight "),
    ):
        ratios = np.array(times[arm]) / baseline
        medians[arm] = float(np.median(ratios))
        low, high = np.percentile(np.median(ratios[resample], axis=1), (2.5, 97.5))
        lines.append(
            f"  {label}: {np.median(times[arm]) * 1e3:.2f} ms median "
            f"(ratio {medians[arm]:.4f}, 95% CI {low:.4f}-{high:.4f})"
        )
    lines.append("  budget                    : median ratio < 1.05 per armed layer")
    save_report("monitor_overhead", "\n".join(lines))
    assert medians["monitored"] < 1.05, (
        f"quality monitor costs {100 * (medians['monitored'] - 1):.1f}% on "
        "the serving loop (median over rounds; budget 5%)"
    )
    assert medians["flight"] < 1.05, (
        f"full observability stack costs {100 * (medians['flight'] - 1):.1f}% "
        "on the serving loop (median over rounds; budget 5%)"
    )


def test_bench_monitor_refresh_scaling(save_report):
    """An incremental refresh costs the monitor O(changed slots).

    Times the monitor calls of one incremental refresh -- the score-drift
    update for 10 re-scored slots and 2 arrivals, the divergence sample
    for the 10 slots and the alert evaluation -- on a 20k and a 200k
    catalogue, interleaved, best of each.  The 200k catalogue may cost
    at most twice the 20k one.  The numbers land in
    ``benchmarks/results/monitor_refresh_scaling.txt``.
    """
    import time as _time

    from repro.obs import QualityMonitor

    sizes = (20_000, 200_000)
    rounds, calls = 7, 200

    def setup(size):
        rng = np.random.default_rng(size)
        # Room for every arrival; each call hands the monitor a longer
        # view of the same buffer, as the engine hands it a new array.
        buf = rng.beta(2, 5, size + 2 * rounds * calls)
        monitor = QualityMonitor(sinks=())
        monitor.attach_catalogue(size)
        monitor.observe_scores(buf[:size])  # freezes the reference
        scores = buf[:size]
        monitor.observe_scores(scores)  # keeps the catalogue's bins
        return {"monitor": monitor, "buf": buf, "scores": scores, "rng": rng}

    def refresh(state):
        monitor, buf, previous = state["monitor"], state["buf"], state["scores"]
        rng = state["rng"]
        slots = np.unique(rng.integers(0, previous.size, 10))
        scores = buf[: previous.size + 2]
        scores[slots] = rng.beta(2, 5, slots.size)
        vectors = rng.normal(size=(slots.size, 16))
        start = _time.perf_counter()
        monitor.attach_catalogue(scores.size)
        monitor.observe_rescored(scores, slots, previous)
        monitor.observe_divergence(slots, vectors, vectors + 0.1)
        monitor.evaluate()
        state["scores"] = scores
        return _time.perf_counter() - start

    states = {size: setup(size) for size in sizes}
    best = {size: np.inf for size in sizes}
    for _ in range(rounds):
        for size in sizes:
            seconds = sum(refresh(states[size]) for _ in range(calls))
            best[size] = min(best[size], seconds / calls)
    ratio = best[sizes[1]] / best[sizes[0]]
    save_report(
        "monitor_refresh_scaling",
        "monitor cost of one incremental refresh (10 re-scored slots, "
        f"2 arrivals; best of {rounds} rounds of {calls})\n"
        + "".join(
            f"  {size:>7,} slots: {best[size] * 1e6:7.1f} us\n"
            for size in sizes
        )
        + f"  ratio           : {ratio:.3f} (bound 2.0)",
    )
    assert ratio < 2.0, (
        f"the monitor's incremental refresh grew {ratio:.2f}x from "
        f"{sizes[0]:,} to {sizes[1]:,} slots"
    )


def test_bench_gbdt_fit(benchmark):
    """Fit a 10-tree GBDT on 10k x 20 features."""
    rng = np.random.default_rng(0)
    X = rng.normal(size=(10_000, 20))
    y = (X[:, 0] + X[:, 1] * X[:, 2] > 0).astype(float)

    def fit():
        model = GBDTClassifier(n_estimators=10, max_depth=4, random_state=0)
        model.fit(X, y)
        return model

    benchmark.pedantic(fit, rounds=3, iterations=1)
