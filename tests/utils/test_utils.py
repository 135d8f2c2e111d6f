"""Utility module tests: rng, tables, timer, serialization, validation,
growable buffers."""

import json

import numpy as np
import pytest

from repro.nn.layers import Linear
from repro.utils import (
    Timer,
    derive_seed,
    format_table,
    format_value,
    load_json,
    load_model,
    make_rng,
    save_json,
    save_model,
    spawn,
    time_callable,
)
from repro.utils.buffers import grow_rows
from repro.utils.validation import (
    as_1d_float,
    as_1d_int,
    require_in_range,
    require_positive,
    require_probability,
    require_same_length,
)


class TestRng:
    def test_make_rng_deterministic(self):
        assert make_rng(7).random() == make_rng(7).random()

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            make_rng(-1)

    def test_derive_seed_depends_on_label(self):
        assert derive_seed(1, "users") != derive_seed(1, "items")

    def test_derive_seed_depends_on_parent(self):
        assert derive_seed(1, "users") != derive_seed(2, "users")

    def test_derive_seed_deterministic(self):
        assert derive_seed(5, "x") == derive_seed(5, "x")

    def test_spawn_independent_streams(self):
        a, b = spawn(0, ["alpha", "beta"])
        assert a.random() != b.random()


class TestTabulate:
    def test_format_value(self):
        assert format_value(None) == "-"
        assert format_value(1.23456, precision=2) == "1.23"
        assert format_value("text") == "text"
        assert format_value(7) == "7"
        assert format_value(True) == "True"

    def test_table_structure(self):
        table = format_table(["a", "bb"], [[1, 2.5], [3, 4.5]])
        lines = table.splitlines()
        assert lines[0].startswith("+")
        assert "| a" in lines[1]
        assert len({len(line) for line in lines}) == 1  # aligned

    def test_title(self):
        table = format_table(["a"], [[1]], title="My Table")
        assert table.splitlines()[0] == "My Table"

    def test_row_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])


@pytest.fixture
def fake_clock(monkeypatch):
    """Drive ``repro.utils.timer``'s clock: each read returns the next reading."""
    import repro.utils.timer as timer_module

    readings = []
    monkeypatch.setattr(
        timer_module.time, "perf_counter", lambda: readings.pop(0)
    )
    return readings


class TestTimer:
    def test_context_manager_measures(self, fake_clock):
        fake_clock += [10.0, 10.25]
        with Timer() as timer:
            pass
        assert timer.elapsed == 0.25

    def test_exit_without_enter_is_noop(self):
        timer = Timer()
        timer.__exit__(None, None, None)  # must not raise
        assert timer.elapsed == 0.0

    def test_reenterable(self, fake_clock):
        fake_clock += [1.0, 3.0, 5.0, 5.5]
        timer = Timer()
        with timer:
            pass
        first = timer.elapsed
        with timer:
            pass
        assert first == 2.0
        assert timer.elapsed < first  # second run overwrote the first
        assert timer.elapsed == 0.5

    def test_double_exit_keeps_first_measurement(self, fake_clock):
        fake_clock += [1.0, 1.5]
        timer = Timer()
        with timer:
            pass
        first = timer.elapsed
        timer.__exit__(None, None, None)  # reads no clock: the list is empty
        assert timer.elapsed == first == 0.5

    def test_named_timer_reports_to_active_registry(self):
        from repro.obs import MetricsRegistry, Telemetry, use_telemetry

        registry = MetricsRegistry()
        with use_telemetry(Telemetry(registry=registry)):
            with Timer("step"):
                pass
            with Timer("step"):
                pass
        assert registry.histogram("timer.step").count == 2

    def test_unnamed_timer_registers_nothing(self):
        from repro.obs import MetricsRegistry, Telemetry, use_telemetry

        registry = MetricsRegistry()
        with use_telemetry(Telemetry(registry=registry)):
            with Timer():
                pass
        assert not registry.names()

    def test_time_callable_returns_minimum(self, fake_clock):
        fake_clock += [0.0, 3.0, 10.0, 11.0, 20.0, 22.0]
        calls = []
        value = time_callable(lambda: calls.append(1), repeats=3)
        assert value == 1.0
        assert len(calls) == 3

    def test_invalid_repeats_rejected(self):
        with pytest.raises(ValueError):
            time_callable(lambda: None, repeats=0)


class TestSerialization:
    def test_model_roundtrip(self, tmp_path, rng):
        layer = Linear(3, 2, rng=rng)
        path = tmp_path / "model.npz"
        save_model(layer, path)
        other = Linear(3, 2, rng=np.random.default_rng(99))
        load_model(other, path)
        np.testing.assert_allclose(layer.weight.data, other.weight.data)

    def test_load_missing_file_rejected(self, tmp_path, rng):
        with pytest.raises(FileNotFoundError):
            load_model(Linear(2, 2, rng=rng), tmp_path / "nope.npz")

    def test_json_roundtrip_with_numpy_types(self, tmp_path):
        path = tmp_path / "out.json"
        save_json(
            {
                "int": np.int64(3),
                "float": np.float64(1.5),
                "bool": np.bool_(True),
                "array": np.array([1.0, 2.0]),
            },
            path,
        )
        loaded = load_json(path)
        assert loaded == {"int": 3, "float": 1.5, "bool": True, "array": [1.0, 2.0]}

    def test_json_creates_parent_dirs(self, tmp_path):
        path = tmp_path / "a" / "b" / "out.json"
        save_json({"x": 1}, path)
        assert path.exists()


class TestValidation:
    def test_require_positive(self):
        require_positive(1.0, "x")
        with pytest.raises(ValueError):
            require_positive(0.0, "x")

    def test_require_in_range(self):
        require_in_range(0.5, 0.0, 1.0, "x")
        with pytest.raises(ValueError):
            require_in_range(1.5, 0.0, 1.0, "x")

    def test_require_probability(self):
        require_probability(1.0, "p")
        with pytest.raises(ValueError):
            require_probability(-0.1, "p")

    def test_require_same_length(self):
        require_same_length([1, 2], [3, 4])
        with pytest.raises(ValueError):
            require_same_length([1], [2, 3])

    def test_as_1d_float(self):
        out = as_1d_float([1, 2], "x")
        assert out.dtype == np.float64
        with pytest.raises(ValueError):
            as_1d_float([[1.0]], "x")

    def test_as_1d_int(self):
        out = as_1d_int([1.0, 2.0], "x")
        assert out.dtype == np.int64
        with pytest.raises(ValueError):
            as_1d_int([1.5], "x")
        with pytest.raises(ValueError):
            as_1d_int([[1]], "x")


class TestGrowRows:
    def test_room_left_returns_the_same_buffer(self):
        buf = np.arange(10)
        assert grow_rows(buf, 4, 10) is buf

    def test_grows_by_doubling_and_keeps_live_rows(self):
        buf = np.arange(160).reshape(80, 2)
        grown = grow_rows(buf, 30, 81)
        assert grown.shape == (160, 2) and grown.dtype == buf.dtype
        np.testing.assert_array_equal(grown[:30], buf[:30])
        np.testing.assert_array_equal(grown[30:], 0)

    def test_small_buffers_start_at_the_minimum_capacity(self):
        assert grow_rows(np.zeros(0), 0, 3).shape == (64,)

    def test_grows_along_a_later_axis(self):
        buf = np.ones((3, 5), dtype=np.int64)
        grown = grow_rows(buf, 5, 70, axis=1)
        assert grown.shape == (3, 128)
        np.testing.assert_array_equal(grown[:, :5], 1)
        np.testing.assert_array_equal(grown[:, 5:], 0)
