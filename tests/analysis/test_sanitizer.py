"""Runtime sanitizer: stale buffers, unsanctioned writes, taint, integration."""

import numpy as np
import pytest

from repro.analysis import GradSanitizer, SanitizerError, sanitizer_active
from repro.nn import Tensor
from repro.nn.layers.embedding import FeatureEmbeddings
from repro.nn.layers.linear import Linear
from repro.nn.optim import Adam
from repro.obs import MetricsRegistry, Telemetry, use_telemetry


def test_stale_saved_buffer_fires_on_assign_between_forward_and_backward():
    x = Tensor(np.ones(3), requires_grad=True)
    with GradSanitizer() as sanitizer:
        y = (x * x).sum()
        x.assign_(np.zeros(3))
        with pytest.raises(SanitizerError) as excinfo:
            y.backward()
    assert excinfo.value.diagnostic.code == "stale-saved-buffer"
    assert sanitizer.stats["stale_buffers"] == 1


def test_optimizer_step_before_backward_fires():
    """Regression: the PR2 in-place optimizer update invalidates buffers
    a pending backward still needs; the sanitizer must make that loud."""
    model = Linear(4, 1, rng=np.random.default_rng(0))
    optimizer = Adam(model.parameters(), lr=0.1)
    x = Tensor(np.ones((2, 4)))
    model(x).sum().backward()  # prime .grad so step() has work to do
    with GradSanitizer():
        pending = model(x).sum()
        optimizer.step()  # mutates the weights the backward closure saved
        with pytest.raises(SanitizerError) as excinfo:
            pending.backward()
    assert excinfo.value.diagnostic.code == "stale-saved-buffer"


def test_lazy_sparse_optimizer_row_update_before_backward_fires():
    """Same regression on the sparse-gradient embedding path: the lazy
    per-row Adam update mutates the table in place."""
    rng = np.random.default_rng(0)
    model = FeatureEmbeddings({"item_id": 20}, {"item_id": 4}, rng=rng)
    optimizer = Adam(model.parameters(), lr=0.1)
    batch = {"item_id": np.array([1, 3, 3, 7])}
    model(batch).sum().backward()  # prime sparse .grad
    with GradSanitizer():
        pending = model(batch).sum()
        optimizer.step()
        with pytest.raises(SanitizerError) as excinfo:
            pending.backward()
    assert excinfo.value.diagnostic.code == "stale-saved-buffer"


def test_unsanctioned_raw_data_write_caught_by_content_check():
    x = Tensor(np.ones(3), requires_grad=True)
    with GradSanitizer(check_content=True) as sanitizer:
        y = (x * x).sum()
        x.data[0] = 5.0  # repro-lint: disable=ATN001 -- bypass the version counter on purpose; deep mode must still catch it
        with pytest.raises(SanitizerError) as excinfo:
            y.backward()
    assert excinfo.value.diagnostic.code == "unsanctioned-mutation"
    assert sanitizer.stats["unsanctioned_mutations"] == 1


def test_clean_train_loop_reports_nothing():
    rng = np.random.default_rng(0)
    model = Linear(4, 1, rng=rng)
    optimizer = Adam(model.parameters(), lr=0.1)
    x = Tensor(rng.standard_normal((8, 4)))
    with GradSanitizer(track_nonfinite=True, check_content=True) as sanitizer:
        for _ in range(3):
            optimizer.zero_grad()
            loss = (model(x) ** 2).mean()
            loss.backward()
            optimizer.step()
    assert sanitizer.diagnostics == []
    assert sanitizer.stats["stale_buffers"] == 0
    assert sanitizer.stats["backward_checks"] > 0


def test_taint_names_the_op_that_created_nonfinite_values():
    with GradSanitizer(track_nonfinite=True) as sanitizer:
        with np.errstate(divide="ignore"):
            bad = Tensor(np.array([0.0])).log()
        downstream = bad + 1.0
    assert bad.taint is not None
    assert bad.taint.op == "log"
    assert bad.taint.nonfinite_count == 1
    # Downstream ops inherit the origin instead of re-reporting themselves.
    assert downstream.taint is bad.taint
    assert sanitizer.stats["nonfinite_ops"] == 1
    codes = [d.code for d in sanitizer.diagnostics]
    assert codes == ["nonfinite"]


def test_raise_on_nonfinite_escalates():
    with GradSanitizer(track_nonfinite=True, raise_on_nonfinite=True):
        with np.errstate(divide="ignore"):
            with pytest.raises(SanitizerError) as excinfo:
                Tensor(np.array([0.0])).log()
    assert excinfo.value.diagnostic.code == "nonfinite"


def test_aliased_accumulation_check_raises():
    sanitizer = GradSanitizer()
    buffer = np.zeros(8)
    holder = Tensor(np.zeros(4), name="weights")
    with pytest.raises(SanitizerError) as excinfo:
        sanitizer.check_inplace_accumulate(buffer, buffer[:4], holder)
    assert excinfo.value.diagnostic.code == "aliased-grad-accumulation"
    # Disjoint buffers pass.
    sanitizer.check_inplace_accumulate(buffer, np.ones(8), holder)
    assert sanitizer.stats["accumulate_checks"] == 2


def test_tensor_methods_restored_after_disable():
    originals = {name: Tensor.__dict__[name] for name in ("__mul__", "sum")}
    sanitizer = GradSanitizer()
    with sanitizer:
        assert sanitizer_active()
        assert Tensor.__dict__["__mul__"] is not originals["__mul__"]
    assert not sanitizer_active()
    for name, original in originals.items():
        assert Tensor.__dict__[name] is original


def test_only_one_sanitizer_at_a_time():
    with GradSanitizer():
        with pytest.raises(RuntimeError):
            GradSanitizer().enable()


def test_events_increment_obs_counters():
    registry = MetricsRegistry()
    x = Tensor(np.ones(3), requires_grad=True)
    with use_telemetry(Telemetry(registry=registry)):
        with GradSanitizer():
            y = (x * x).sum()
            x.assign_(np.zeros(3))
            with pytest.raises(SanitizerError):
                y.backward()
    assert registry.counter("analysis.sanitizer.stale_buffers").value == 1.0
