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


def test_bench_monitor_overhead(micro_world, micro_model, save_report, tmp_path):
    """Serving loop with observability armed vs off: <5% overhead.

    The monitor's contract is that it rides the serving hot path on
    vectorised batch updates; this times the identical loop — a
    production-shaped traffic mix of event ingestion, score refreshes
    and personalised queries (2 000 views per batch come from the order
    of two hundred k=10 recommendation requests) — bare, with the
    quality monitor, with the full stack (monitor + tracer + SLO
    tracker + flight recorder), and with the full stack plus a
    :class:`~repro.obs.agg.TelemetryShipper` spooling snapshot frames,
    asserting each armed layer keeps its min-of-rounds ratio under the
    shared 1.05 budget (the shipper is judged against the flight arm it
    rides on).  The measured numbers land in
    ``benchmarks/results/monitor_overhead.txt``.
    """
    import gc
    import time as _time
    from contextlib import ExitStack

    from repro.data.schema import GROUP_USER
    from repro.obs import (
        FlightRecorder,
        QualityMonitor,
        SLOTracker,
        TelemetryShipper,
        Tracer,
        default_serving_slos,
        register_request_observer,
        unregister_request_observer,
        use_flight_recorder,
        use_monitor,
        use_slo_tracker,
        use_tracer,
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
        """One round; returns the wall time of each batch segment."""
        engine = RealTimeEngine(
            micro_model,
            micro_world.new_items,
            user_group,
            EngineConfig(warm_view_threshold=20),
        )
        engine.refresh()
        durations = []
        for events in batches:
            start = _time.perf_counter()
            engine.ingest(events)
            engine.refresh()
            engine.top_k(10)
            for query in range(queries_per_batch):
                engine.recommend_for_user(
                    query_rows[query % len(query_rows)], 10
                )
            durations.append(_time.perf_counter() - start)
        return durations

    ARMS = ("baseline", "monitored", "flight", "shipped")
    spool_dir = tmp_path / "spool"

    def timed(arm):
        # sinks=() keeps rare-event alert I/O (measured in the alert
        # tests) and pytest's log capture out of the compute timing;
        # GC is paused so collection pauses don't land on one arm.  The
        # flight arm uses a latency SLO far above real latencies and an
        # AUC floor far below the untrained model's, so no burn-rate
        # alert (and thus no alert log I/O) fires mid-bench.
        gc.collect()
        gc.disable()
        try:
            with ExitStack() as stack:
                if arm in ("monitored", "flight", "shipped"):
                    stack.enter_context(use_monitor(QualityMonitor(sinks=())))
                if arm in ("flight", "shipped"):
                    stack.enter_context(use_tracer(Tracer()))
                    stack.enter_context(
                        use_slo_tracker(
                            SLOTracker(
                                default_serving_slos(
                                    latency_p99_seconds=60.0,
                                    auc_floor=0.01,
                                ),
                                sinks=(),
                            )
                        )
                    )
                    stack.enter_context(
                        use_flight_recorder(
                            FlightRecorder(capacity=256, auto_dump=False)
                        )
                    )
                if arm == "shipped":
                    # The flight stack plus snapshot shipping, so the
                    # shipped-vs-flight gap isolates the shipper itself:
                    # every request pays the observer pump (one clock
                    # read) and real frame flushes (monitor + SLO +
                    # tracer state serialised to the spool) land inside
                    # the timed segments.  No registry is activated —
                    # metrics recording is its own, independently
                    # chargeable cost and the flight arm runs without
                    # one.  The interval is far under the production
                    # default (2 s) so flushes actually occur, without
                    # modelling a flush rate no deployment would run.
                    shipper = TelemetryShipper(
                        spool_dir,
                        process_label="bench",
                        interval_seconds=0.25,
                    )
                    register_request_observer(shipper)
                    stack.callback(unregister_request_observer, shipper)
                return serving_loop()
        finally:
            gc.enable()

    for arm in ARMS:  # warm every path (first-call caches, allocator)
        timed(arm)
    # Per-segment minima across alternating rounds: background load can
    # only inflate a timing, so each segment's floor converges to the
    # true cost of that arm — a quiet window for any single round of a
    # segment suffices, and extra sampling can never hide a genuine
    # regression (the floors only move down, and all arms share them).
    floors = {arm: [np.inf] * len(batches) for arm in ARMS}

    def sample():
        for arm in ARMS:
            floors[arm] = [
                min(floor, duration)
                for floor, duration in zip(floors[arm], timed(arm))
            ]
        base = sum(floors["baseline"])
        return {
            arm: sum(floors[arm]) / base for arm in ARMS[1:]
        }

    for _ in range(5):
        ratios = sample()
    extra_rounds = 0
    while max(ratios.values()) >= 1.05 and extra_rounds < 10:
        ratios = sample()  # keep sampling while noisy
        extra_rounds += 1
    baseline = sum(floors["baseline"])
    monitored = sum(floors["monitored"])
    flight = sum(floors["flight"])
    shipped = sum(floors["shipped"])
    # The shipper rides an already-armed stack, so its own budget is
    # judged against the flight arm: shipped/flight isolates the pump +
    # flush cost from the (independently asserted) stack overhead.
    shipper_ratio = shipped / flight
    save_report(
        "monitor_overhead",
        "observability-armed serving overhead "
        f"(per-segment floors over {5 + extra_rounds} alternating rounds)\n"
        f"  baseline                     : {baseline * 1e3:.2f} ms\n"
        f"  monitored                    : {monitored * 1e3:.2f} ms "
        f"(ratio {ratios['monitored']:.4f})\n"
        f"  monitor+tracer+slo+flight    : {flight * 1e3:.2f} ms "
        f"(ratio {ratios['flight']:.4f})\n"
        f"  full stack + snapshot shipping: {shipped * 1e3:.2f} ms "
        f"(vs baseline {ratios['shipped']:.4f}, "
        f"vs flight {shipper_ratio:.4f})\n"
        f"  budget                       : ratio < 1.05 per armed layer",
    )
    assert ratios["monitored"] < 1.05, (
        f"quality monitor costs {100 * (ratios['monitored'] - 1):.1f}% on "
        f"the serving loop (budget 5%): baseline {baseline:.4f}s vs "
        f"{monitored:.4f}s"
    )
    assert ratios["flight"] < 1.05, (
        f"full observability stack costs {100 * (ratios['flight'] - 1):.1f}% "
        f"on the serving loop (budget 5%): baseline {baseline:.4f}s vs "
        f"{flight:.4f}s"
    )
    assert shipper_ratio < 1.05, (
        f"snapshot shipping costs {100 * (shipper_ratio - 1):.1f}% on top "
        f"of the armed stack (budget 5%): flight {flight:.4f}s vs "
        f"shipped {shipped:.4f}s"
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
