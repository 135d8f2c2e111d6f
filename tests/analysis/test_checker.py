"""Static graph checker: registry-wide passes and per-failure-class fixtures."""

import numpy as np
import pytest

from repro.analysis import (
    GraphTracer,
    check_model,
    default_paths,
    demo_schema,
    schema_inputs,
)
from repro.core.registry import available_models, build_model
from repro.core.towers import TowerConfig
from repro.data.schema import GROUP_USER, FeatureSchema, NumericFeature
from repro.nn import Tensor, default_dtype
from repro.nn.layers.linear import Linear
from repro.nn.layers.mlp import MLP
from repro.nn.module import Module, Parameter

SMALL_CONFIG = TowerConfig(
    vector_dim=8, deep_dims=(16, 8), head_dims=(16,), num_cross_layers=1
)


def _numeric_schema():
    return FeatureSchema(
        categorical=[], numeric=[NumericFeature("x", GROUP_USER)]
    )


def _column(features):
    return Tensor(np.asarray(features["x"]).reshape(-1, 1))


# ----------------------------------------------------------------------
# Every shipped model must pass the checker
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", available_models())
def test_registry_model_passes(name):
    schema = demo_schema()
    model = build_model(name, schema, SMALL_CONFIG, rng=np.random.default_rng(0))
    report = check_model(model, schema, model_name=name)
    assert report.ok, report.format()
    # Every parameter is reachable, so no grad-less findings at all.
    assert not report.diagnostics, report.format()


def test_atnn_passes_in_float32():
    with default_dtype(np.float32):
        schema = demo_schema()
        model = build_model(
            "atnn", schema, SMALL_CONFIG, rng=np.random.default_rng(0)
        )
        report = check_model(model, schema)
    assert report.ok, report.format()


def test_atnn_traces_both_paths_with_symbolic_batch():
    schema = demo_schema()
    model = build_model("atnn", schema, SMALL_CONFIG, rng=np.random.default_rng(0))
    paths = default_paths(model)
    assert [p.name for p in paths] == ["forward", "forward_generator"]
    report = check_model(model, schema)
    traced_paths = {row[0] for row in report.shape_table}
    assert traced_paths == {"forward", "forward_generator"}
    # The batch dimension must have been symbolised away from the
    # concrete trace sizes: leading dims read "B", never 7 or 13.
    outputs = [row[4] for row in report.shape_table]
    assert any(sym.startswith("(B") for sym in outputs)
    assert not any(sym.startswith(("(7,", "(7)", "(13,")) for sym in outputs)


# ----------------------------------------------------------------------
# One intentionally broken model per failure class
# ----------------------------------------------------------------------
class ShapeBroken(Module):
    """Second layer expects 5 inputs but receives 8."""

    def __init__(self, rng):
        super().__init__()
        self.first = Linear(1, 8, rng=rng)
        self.second = Linear(5, 1, rng=rng)

    def forward(self, features):
        return self.second(self.first(_column(features))).reshape((-1,))


def test_shape_error_names_the_failing_module():
    model = ShapeBroken(np.random.default_rng(0))
    report = check_model(model, _numeric_schema())
    assert not report.ok
    codes = {d.code for d in report.errors()}
    assert "shape-error" in codes
    shape_errors = [d for d in report.errors() if d.code == "shape-error"]
    assert all("forward@second" in d.location for d in shape_errors)


class PromotionBroken(Module):
    """Float64-parameterised head fed float32 activations.

    The classic leak: the model is constructed under the default float64
    mode, then run in a float32 pipeline — every op touching its weights
    silently promotes back to float64.
    """

    def __init__(self, rng):
        super().__init__()
        self.head = Linear(1, 1, rng=rng)

    def forward(self, features):
        return self.head(_column(features)).reshape((-1,))


def test_dtype_promotion_detected_in_float32_mode():
    model = PromotionBroken(np.random.default_rng(0))  # float64 weights
    with default_dtype(np.float32):  # float32 inputs at check time
        report = check_model(model, _numeric_schema())
    assert not report.ok
    promotions = [d for d in report.errors() if d.code == "dtype-promotion"]
    assert promotions, report.format()
    assert any("head" in d.location for d in promotions)


class FusedPromotionBroken(Module):
    """A fused Linear/ReLU stack whose weights stay float64."""

    def __init__(self, rng):
        super().__init__()
        self.mlp = MLP(1, [4, 1], rng=rng)

    def forward(self, features):
        return self.mlp(_column(features)).reshape((-1,))


def test_fused_mlp_record_lists_weights_and_flags_mixed_inputs():
    model = FusedPromotionBroken(np.random.default_rng(0))  # float64 weights
    with default_dtype(np.float32):
        features = schema_inputs(_numeric_schema(), 3)
        with GraphTracer() as tracer:
            model(features)
        report = check_model(model, _numeric_schema())
    [record] = [r for r in tracer.records if r.op == "fused_mlp"]
    # Input, then (weight, bias) per layer, from the nested layer triples.
    assert record.input_shapes == ((3, 1), (1, 4), (4,), (4, 1), (1,))
    assert record.input_dtypes == ("float32",) + ("float64",) * 4
    fused = [
        d for d in report.errors()
        if d.code == "dtype-promotion" and d.location.endswith("::fused_mlp")
    ]
    assert [d.message for d in fused] == [
        "op mixes float32 and float64 inputs; numpy promotes the whole "
        "computation to float64"
    ], report.format()


class DetachedBroken(Module):
    """Runs a side branch whose output is computed and discarded."""

    def __init__(self, rng):
        super().__init__()
        self.trunk = Linear(1, 4, rng=rng)
        self.head = Linear(4, 1, rng=rng)
        self.side = Linear(1, 3, rng=rng)

    def forward(self, features):
        x = _column(features)
        self.side(x)  # dead differentiable subgraph
        return self.head(self.trunk(x)).reshape((-1,))


def test_detached_subgraph_and_its_gradless_parameters():
    model = DetachedBroken(np.random.default_rng(0))
    report = check_model(model, _numeric_schema())
    assert not report.ok
    codes = {d.code for d in report.errors()}
    assert "detached-subgraph" in codes
    gradless = {d.location for d in report.errors() if d.code == "grad-less-parameter"}
    assert gradless == {"side.bias", "side.weight"}


class GradlessBroken(Module):
    """Registers a parameter no forward path ever touches."""

    def __init__(self, rng):
        super().__init__()
        self.head = Linear(1, 1, rng=rng)
        self.unused = Parameter(np.zeros(3), name="unused")

    def forward(self, features):
        return self.head(_column(features)).reshape((-1,))


def test_gradless_parameter_reported():
    model = GradlessBroken(np.random.default_rng(0))
    report = check_model(model, _numeric_schema())
    assert not report.ok
    errors = report.errors()
    assert [d.code for d in errors] == ["grad-less-parameter"]
    assert errors[0].location == "unused"


class BroadcastBlowup(Module):
    """(B,) * (B, 1) silently builds a (B, B) matrix."""

    def forward(self, features):
        flat = Tensor(np.asarray(features["x"]))
        col = Tensor(np.asarray(features["x"]).reshape(-1, 1))
        return (flat * col).mean()


def test_batch_broadcast_blowup_warns_but_does_not_fail():
    model = BroadcastBlowup()
    report = check_model(model, _numeric_schema())
    assert report.ok  # warning severity only
    warnings = [d for d in report.diagnostics if d.code == "batch-broadcast-blowup"]
    assert warnings, report.format()


def test_equal_batch_sizes_rejected():
    model = GradlessBroken(np.random.default_rng(0))
    with pytest.raises(ValueError):
        check_model(model, _numeric_schema(), batch_sizes=(7, 7))
