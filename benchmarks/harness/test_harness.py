"""Self-tests of the benchmark harness.

Run from the root of the repository::

    PYTHONPATH=src python -m pytest benchmarks/harness -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import compare
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_self_times_of_nested_spans_partition_the_root():
    # run [0, 10] > a [1, 8] > (b [2, 4], a [5, 6])
    times = iter([0.0, 1.0, 2.0, 4.0, 5.0, 6.0, 8.0, 10.0])
    recorder = spans.SpanRecorder(clock=lambda: next(times))
    for step in ("run", "a", "b", None, "a", None, None, None):
        if step is None:
            recorder.close()
        else:
            recorder.open(step)
    assert recorder.self_s == {"b": 2.0, "a": 5.0, "run": 3.0}
    assert recorder.calls == {"b": 1, "a": 2, "run": 1}
    assert recorder.total_s["a"] == 7.0  # the nested call is not counted twice
    assert sum(recorder.self_s.values()) == recorder.total_s["run"]


def test_percentile_needs_ten_samples_beyond_it():
    with pytest.raises(ValueError):
        workloads.percentile(list(range(199)), 95)
    with pytest.raises(ValueError):
        workloads.percentile(list(range(999)), 99)
    assert workloads.percentile(list(range(200)), 95) == pytest.approx(189.05)
    assert workloads.percentile(list(range(1000)), 99) == pytest.approx(989.01)
    assert workloads.percentile([1.0, 2.0, 3.0], 99, enforce=False) == pytest.approx(2.98)


def test_open_loop_queues_behind_a_busy_server():
    due = np.array([0.0, 0.0, 1.0, 5.0])
    service = np.array([2.0, 1.0, 1.0, 1.0])
    # ends at 2, 3 (waits for the first), 4 (waits for the second), 6
    assert workloads.open_loop(due, service).tolist() == [2.0, 3.0, 3.0, 1.0]


def test_step_timer_rates_each_batch_between_draws():
    class Rows:
        def iter_batches(self, batch_size):
            return (SimpleNamespace(size=size) for size in (4, 4, 2))

    # At every draw the clock ends the last step, stamps a host probe and
    # starts the next step: steps [0, 1], [1, 3], [3, 4], probes at 0, 1,
    # 3 and 4.  The host runs at the reference speed until 1, then at half.
    times = iter([0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 3.0, 3.0, 3.0, 4.0, 4.0])
    clock = lambda: next(times)
    reference = workloads.REFERENCE_PROBE_SECONDS
    probes = iter([reference, reference, 2 * reference, 2 * reference])
    host = workloads.HostProbes(clock=clock, probe=lambda: next(probes))
    dataset = Rows()
    timer = workloads.StepTimer(dataset, host, clock=clock)
    assert [batch.size for batch in dataset.iter_batches(4)] == [4, 4, 2]
    assert timer.raw_rates().tolist() == [4.0, 2.0, 2.0]
    # Each step is scaled by the probes within its own length of it: the
    # first by the probes at 0 and 1, the second by all four (1.5 times
    # the reference on average), the third by those at 3 and 4.
    assert timer.rates() == pytest.approx([4.0, 3.0, 4.0])


def test_wrappers_are_restored_to_the_original_objects():
    targets = [
        (owner, attr)
        for layer in spans.LAYERS + spans.BENCH_LAYERS
        for target in layer.targets
        for owner, attr in spans.resolve(target)
    ]
    missing = object()
    originals = [vars(owner).get(attr, missing) for owner, attr in targets]
    recorder = spans.SpanRecorder()
    with spans.installed(recorder):
        for (owner, attr), original in zip(targets, originals):
            assert vars(owner)[attr] is not original, (owner, attr)
        from repro.core import trainer

        trainer.roc_auc(np.array([0.0, 1.0]), np.array([0.2, 0.7]))
    assert recorder.calls["metrics.auc"] == 1
    for (owner, attr), original in zip(targets, originals):
        assert vars(owner).get(attr, missing) is original, (owner, attr)


def test_corrupted_promo_list_is_counted_as_failed():
    scores = np.random.default_rng(0).random(500)
    top = np.argsort(scores)[::-1][: workloads.PROMO_K]
    assert workloads.promo_checks([(0, top, scores)], exact=True) == ([], 1.0)

    swapped_in = top.copy()
    swapped_in[50] = int(np.argmin(scores))
    duplicated = top.copy()
    duplicated[1] = duplicated[0]
    reordered = top.copy()
    reordered[[0, 1]] = reordered[[1, 0]]
    samples = [(10, swapped_in, scores), (20, duplicated, scores), (30, reordered, scores)]
    failed, recall = workloads.promo_checks(samples, exact=True)
    assert failed == [10, 20, 30]
    # An approximate index may miss items without failing; the miss shows in recall.
    failed, recall = workloads.promo_checks([(10, swapped_in, scores)], exact=False)
    assert failed == [] and recall == pytest.approx(0.99)


def test_gain_rule_and_bounds():
    parent = {seed: 100.0 + seed % 3 for seed in range(10)}
    faster = {seed: value * 0.8 for seed, value in parent.items()}
    assert compare.verdict(parent, faster, "lower", 0.05)[0] == "gain"
    slower = {seed: value * 1.1 for seed, value in parent.items()}
    assert compare.verdict(parent, slower, "lower", 0.05)[0] == "regression"
    noisy = {seed: 100.0 * (1 + (seed % 2)) for seed in range(10)}
    assert compare.verdict(noisy, noisy, "lower", 0.05)[0] == "unresolved"
    assert compare.verdict(parent, dict(parent), "lower", 0.05)[0] == "ok"


def test_errored_runs_count_as_failed(tmp_path):
    def record(workload, seed):
        metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in BENCHMARK["end_to_end"]}
        return {"workload": workload, "seed": seed, "attempted": 100, "failed": 0, "metrics": metrics}

    names = [w["name"] for w in BENCHMARK["workloads"]]
    parent = [record(name, seed) for name in names for seed in range(10)]
    crashed = [
        {"workload": name, "seed": seed, "error": "Traceback"} if seed < 3 else record(name, seed)
        for name in names
        for seed in range(10)
    ]
    paths = {}
    for side, runs in (("parent", parent), ("change", crashed)):
        paths[side] = tmp_path / f"{side}.json"
        paths[side].write_text(json.dumps({"runs": runs}), encoding="utf-8")

    runs, errored = compare.load_runs(paths["change"])
    assert errored == {name: 3 for name in names}
    assert compare.failed_share(runs[names[0]], errored[names[0]]) == pytest.approx(0.3)
    assert compare.compare(BENCHMARK, paths["parent"], paths["parent"]) == 0
    assert compare.compare(BENCHMARK, paths["parent"], paths["change"]) == 1
    assert compare.compare(BENCHMARK, paths["change"], None) == 1


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    completed = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"),
            "--workload", workload, "--seed", "0", "--seconds", "1",
            "--trace", str(trace), "--smoke",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
