"""Autograd profiler: per-op forward/backward accounting and clean unpatching."""

import numpy as np
import pytest

from repro.analysis import GradSanitizer, GraphTracer, sanitizer_active
from repro.nn import concat, embedding_lookup
from repro.nn.layers.linear import Linear
from repro.nn.module import Module
from repro.nn.tensor import Tensor
from repro.obs import AutogradProfiler
from repro.obs.autograd import PROFILED_OPS


def _small_graph():
    w = Tensor(np.ones((3, 2)), requires_grad=True)
    x = Tensor(np.array([[1.0, 2.0, 3.0]]))
    return w, ((x @ w).sigmoid().sum())


class TestProfiling:
    def test_forward_and_backward_recorded(self):
        with AutogradProfiler() as profiler:
            _, loss = _small_graph()
            loss.backward()
        report = profiler.report()
        for op in ("matmul", "sigmoid", "sum"):
            assert report[op].calls == 1
            assert report[op].forward_seconds >= 0.0
            assert report[op].backward_calls == 1
            assert report[op].backward_seconds >= 0.0

    def test_by_value_imports_are_profiled(self):
        """Ops imported by value elsewhere still dispatch through the hook."""
        with AutogradProfiler() as profiler:
            w = Tensor(np.ones((4, 2)), requires_grad=True)
            gathered = embedding_lookup(w, np.array([0, 1, 1]))
            joined = concat([gathered, gathered], axis=1)
            joined.sum().backward()
        report = profiler.report()
        assert report["embedding_lookup"].calls == 1
        assert report["embedding_lookup"].backward_calls == 1
        assert report["concat"].calls == 1

    def test_no_grad_paths_record_forward_only(self):
        from repro.nn.tensor import no_grad

        with AutogradProfiler() as profiler:
            with no_grad():
                Tensor(np.ones((2, 2)), requires_grad=True).relu()
        stats = profiler.report()["relu"]
        assert stats.calls == 1
        assert stats.backward_calls == 0

    def test_gradients_unchanged_under_profiling(self):
        w_plain, loss_plain = _small_graph()
        loss_plain.backward()
        with AutogradProfiler():
            w_profiled, loss_profiled = _small_graph()
            loss_profiled.backward()
        np.testing.assert_allclose(w_plain.grad, w_profiled.grad)

    def test_reset_clears_stats(self):
        with AutogradProfiler() as profiler:
            _, loss = _small_graph()
            profiler.reset()
            assert profiler.report() == {}


class TestPatchLifecycle:
    def test_disable_restores_original_methods(self):
        original_add = Tensor.__dict__["__add__"]
        original_concat = Tensor.__dict__["_concat"]
        profiler = AutogradProfiler()
        profiler.enable()
        assert Tensor.__dict__["__add__"] is not original_add
        profiler.disable()
        assert Tensor.__dict__["__add__"] is original_add
        assert Tensor.__dict__["_concat"] is original_concat

    def test_ops_after_disable_not_recorded(self):
        profiler = AutogradProfiler()
        with profiler:
            pass
        Tensor(np.ones(2)) + Tensor(np.ones(2))
        assert "add" not in profiler.report()

    def test_double_enable_is_idempotent(self):
        profiler = AutogradProfiler()
        with profiler:
            assert profiler.enable() is profiler
        assert not profiler.enabled

    def test_two_profilers_rejected(self):
        with AutogradProfiler():
            with pytest.raises(RuntimeError):
                AutogradProfiler().enable()

    def test_disable_without_enable_is_noop(self):
        AutogradProfiler().disable()


def _ops_seen(tool) -> int:
    if isinstance(tool, AutogradProfiler):
        return sum(stats.calls for stats in tool.report().values())
    if isinstance(tool, GradSanitizer):
        return tool.stats["forward_ops"]
    return len(tool.records)


class TestStacking:
    """Tools enabled together each keep exactly their own wrappers."""

    @pytest.mark.parametrize("enable_order", ["profiler-first", "sanitizer-first"])
    @pytest.mark.parametrize("disable_order", ["fifo", "lifo"])
    def test_profiler_and_sanitizer(self, enable_order, disable_order):
        originals = {name: Tensor.__dict__[name] for name in PROFILED_OPS}
        tools = [AutogradProfiler(), GradSanitizer()]
        if enable_order == "sanitizer-first":
            tools.reverse()
        first, second = tools if disable_order == "fifo" else tools[::-1]
        try:
            for tool in tools:
                tool.enable()
            _, loss = _small_graph()
            loss.backward()
            assert _ops_seen(first) > 0 and _ops_seen(second) > 0

            first.disable()
            assert sanitizer_active() == isinstance(second, GradSanitizer)
            before = (_ops_seen(first), _ops_seen(second))
            _, loss = _small_graph()
            loss.backward()
            assert _ops_seen(first) == before[0]
            assert _ops_seen(second) > before[1]

            second.disable()
            before = (_ops_seen(first), _ops_seen(second))
            _small_graph()
            assert (_ops_seen(first), _ops_seen(second)) == before
            assert not sanitizer_active()
            for name, original in originals.items():
                assert Tensor.__dict__[name] is original, name
        finally:
            for tool in tools:
                tool.disable()

    @pytest.mark.parametrize("profiler_off_first", [False, True])
    def test_graph_tracer_inside_profiler(self, profiler_off_first):
        originals = {name: Tensor.__dict__[name] for name in PROFILED_OPS}
        original_call = Module.__dict__["__call__"]
        layer = Linear(3, 2, rng=np.random.default_rng(0))
        profiler = AutogradProfiler()
        tracer = GraphTracer({id(layer): "layer"})
        first, second = (profiler, tracer) if profiler_off_first else (tracer, profiler)
        try:
            profiler.enable()
            tracer.enable()
            layer(Tensor(np.ones((1, 3)))).sum()
            assert _ops_seen(profiler) > 0
            assert {r.module_path for r in tracer.records} >= {"layer"}

            first.disable()
            before = (_ops_seen(first), _ops_seen(second))
            layer(Tensor(np.ones((1, 3)))).sum()
            assert _ops_seen(first) == before[0]
            assert _ops_seen(second) > before[1]

            second.disable()
            before = (_ops_seen(first), _ops_seen(second))
            _small_graph()
            assert (_ops_seen(first), _ops_seen(second)) == before
            assert Module.__dict__["__call__"] is original_call
            for name, original in originals.items():
                assert Tensor.__dict__[name] is original, name
        finally:
            profiler.disable()
            tracer.disable()


class TestReporting:
    def test_records_ranked_by_total_time(self):
        with AutogradProfiler() as profiler:
            _, loss = _small_graph()
            loss.backward()
        records = list(profiler.iter_records())
        totals = [record["total_seconds"] for record in records]
        assert totals == sorted(totals, reverse=True)

    def test_text_table_mentions_every_op(self):
        with AutogradProfiler() as profiler:
            _, loss = _small_graph()
            loss.backward()
        text = profiler.to_text()
        for op in ("matmul", "sigmoid", "sum"):
            assert op in text
