"""The fused layers must match their op-chain references, gradient for gradient.

``MLP``, ``CrossLayer`` and ``FeatureEmbeddings`` run as fused tape nodes
(as does BCE-with-logits); ``tests/nn/reference_ops.py`` rebuilds each as
a chain of elementary ops over the same parameters.  Forward values must
be bit-identical; gradients match at tight tolerances in both precisions,
per layer and over every path of every registry model.  A guard on a
default ATNN training step keeps the towers on the fused kernels.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.analysis import GradSanitizer
from repro.analysis.checker import default_paths, demo_schema, schema_inputs
from repro.core import ATNN, TowerConfig
from repro.core.registry import available_models, build_model
from repro.core.trainer import ATNNTrainer
from repro.nn import (
    Tensor,
    check_gradients,
    concat,
    default_dtype,
    embedding_lookup,
    fused_cross,
    fused_embedding_bag,
)
from repro.nn.layers import (
    MLP,
    CrossLayer,
    CrossNetwork,
    FeatureEmbeddings,
    Linear,
)
from repro.nn.losses import binary_cross_entropy_with_logits
from repro.nn.module import Module, Parameter
from repro.nn.optim import Adam
from repro.nn.sparse import SparseGrad
from repro.obs.autograd import AutogradProfiler
from tests.nn.reference_ops import (
    bce_logits_chain,
    cross_chain,
    cross_network_chain,
    dense_embedding_lookup,
    embedding_bank_chain,
    mlp_chain,
)

DTYPES = [np.float64, np.float32]  # repro-lint: disable=ATN002 -- parity matrix runs both precisions on purpose


def _tolerances(dtype):
    return (
        {"rtol": 1e-12, "atol": 1e-12}
        if np.dtype(dtype) == np.float64
        else {"rtol": 1e-5, "atol": 1e-6}
    )


def _forward_and_grads(module, run, inputs):
    """Run ``run()`` (sum-reduced) and collect output plus every gradient."""
    for tensor in [*module.parameters(), *inputs]:
        tensor.zero_grad()
    out = run()
    out.sum().backward()
    grads = [np.asarray(t.grad) for t in [*module.parameters(), *inputs]]
    return out.data, grads


def _assert_parity(fused, reference, dtype):
    fused_out, fused_grads = fused
    plain_out, plain_grads = reference
    np.testing.assert_array_equal(fused_out, plain_out)
    assert len(fused_grads) == len(plain_grads)
    for fused_grad, plain_grad in zip(fused_grads, plain_grads):
        np.testing.assert_allclose(fused_grad, plain_grad, **_tolerances(dtype))


# ----------------------------------------------------------------------
# MLP: one fused_mlp node for Linear/(ReLU|Identity) stacks
# ----------------------------------------------------------------------
class TestFusedMLP:
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_matches_unfused(self, rng, dtype):
        x_data = rng.standard_normal((8, 6)).astype(dtype)
        for output_activation in ("relu", "identity"):
            with default_dtype(dtype):
                mlp = MLP(
                    6, (5, 4), output_activation=output_activation,
                    rng=np.random.default_rng(7),
                )
                mlp.to_dtype(dtype)
                x = Tensor(x_data.copy(), requires_grad=True)
                fused = _forward_and_grads(mlp, lambda: mlp(x), [x])
                reference = _forward_and_grads(
                    mlp, lambda: mlp_chain(mlp, x), [x]
                )
            _assert_parity(fused, reference, dtype)

    def test_records_one_fused_node(self, rng):
        mlp = MLP(4, (6, 5, 3), output_activation="identity", rng=rng)
        with AutogradProfiler() as profiler:
            mlp(Tensor(rng.standard_normal((3, 4))))
        assert {op: s.calls for op, s in profiler.report().items()} == {
            "fused_mlp": 1
        }

    @pytest.mark.parametrize(
        "kwargs",
        [{"dropout": 0.5}, {"output_activation": "sigmoid"}, {"activation": "tanh"}],
        ids=["dropout", "sigmoid", "tanh"],
    )
    def test_stacks_the_kernel_cannot_express_run_the_chain(self, rng, kwargs):
        mlp = MLP(4, (6, 3), rng=np.random.default_rng(2), **kwargs)
        mlp.eval()
        x = Tensor(rng.standard_normal((5, 4)))
        with AutogradProfiler() as profiler:
            out = mlp(x)
        assert "fused_mlp" not in profiler.report()
        np.testing.assert_array_equal(out.data, mlp_chain(mlp, x).data)

    def test_rejects_non_2d_input(self, rng):
        mlp = MLP(4, (3,), rng=rng)
        with pytest.raises(ValueError, match="2-D input with 4 features"):
            mlp(Tensor(rng.standard_normal((2, 3, 4))))
        with pytest.raises(ValueError, match="2-D input with 4 features"):
            mlp(Tensor(rng.standard_normal((2, 5))))

    def test_numerical_gradcheck(self, rng):
        mlp = MLP(3, (4, 2), output_activation="identity", rng=rng)
        x = Tensor(rng.standard_normal((5, 3)), requires_grad=True)
        check_gradients(
            lambda: (mlp(x) ** 2).sum(), [x] + mlp.parameters(),
            rtol=1e-3, atol=1e-5,
        )

    def test_state_dict_paths_unchanged(self):
        mlp = MLP(4, (3, 2), rng=np.random.default_rng(0))
        assert list(mlp.state_dict()) == [
            "layers.0.weight", "layers.0.bias", "layers.2.weight", "layers.2.bias"
        ]
        # A checkpoint written by any MLP of this shape loads, and the
        # fused forward then runs on the loaded weights.
        donor = MLP(4, (3, 2), rng=np.random.default_rng(1))
        mlp.load_state_dict(donor.state_dict())
        x = Tensor(np.random.default_rng(2).standard_normal((3, 4)))
        np.testing.assert_array_equal(mlp(x).data, donor(x).data)


# ----------------------------------------------------------------------
# CrossLayer / CrossNetwork: one fused_cross node per layer
# ----------------------------------------------------------------------
class TestFusedCross:
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_network_matches_unfused(self, rng, dtype):
        with default_dtype(dtype):
            network = CrossNetwork(5, 3, rng=np.random.default_rng(4))
            network.to_dtype(dtype)
            # Non-zero biases so every parent gradient is exercised.
            for layer in network.layers:
                layer.bias.assign_(rng.standard_normal(5).astype(dtype))
            x = Tensor(rng.standard_normal((7, 5)).astype(dtype), requires_grad=True)
            fused = _forward_and_grads(network, lambda: network(x), [x])
            reference = _forward_and_grads(
                network, lambda: cross_network_chain(network, x), [x]
            )
        _assert_parity(fused, reference, dtype)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_layer_with_distinct_inputs_matches_unfused(self, rng, dtype):
        with default_dtype(dtype):
            layer = CrossLayer(4, rng=np.random.default_rng(6))
            layer.to_dtype(dtype)
            x0 = Tensor(rng.standard_normal((6, 4)).astype(dtype), requires_grad=True)
            x = Tensor(rng.standard_normal((6, 4)).astype(dtype), requires_grad=True)
            fused = _forward_and_grads(layer, lambda: layer(x0, x), [x0, x])
            reference = _forward_and_grads(
                layer, lambda: cross_chain(layer, x0, x), [x0, x]
            )
        _assert_parity(fused, reference, dtype)

    def test_numerical_gradcheck(self, rng):
        x0 = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        x = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 1)), requires_grad=True)
        b = Tensor(rng.standard_normal(3), requires_grad=True)
        check_gradients(
            lambda: (fused_cross(x0, x, w, b) ** 2).sum(), [x0, x, w, b]
        )


# ----------------------------------------------------------------------
# fused BCE-with-logits
# ----------------------------------------------------------------------
class TestFusedBCELogits:
    def test_forward_matches_stable_formula_exactly(self, rng):
        z_data = rng.standard_normal(64) * 8.0
        targets = (rng.random(64) < 0.5).astype(float)
        loss = binary_cross_entropy_with_logits(
            Tensor(z_data, requires_grad=True), targets
        )
        expected = np.mean(
            np.maximum(z_data, 0.0)
            - z_data * targets
            + np.log(1.0 + np.exp(-np.abs(z_data)))
        )
        assert loss.item() == expected

    def test_backward_is_sigmoid_minus_target(self, rng):
        z = Tensor(rng.standard_normal(32), requires_grad=True)
        targets = (rng.random(32) < 0.3).astype(float)
        binary_cross_entropy_with_logits(z, targets).backward()
        sigmoid = 1.0 / (1.0 + np.exp(-z.data))
        np.testing.assert_allclose(
            z.grad, (sigmoid - targets) / z.shape[0], rtol=1e-12, atol=1e-14
        )

    def test_extreme_logits_stay_finite(self):
        z = Tensor(np.array([800.0, -800.0, 0.0]), requires_grad=True)
        loss = binary_cross_entropy_with_logits(z, np.array([1.0, 0.0, 1.0]))
        loss.backward()
        assert np.isfinite(loss.item())
        assert np.all(np.isfinite(z.grad))

    def test_numerical_gradcheck(self, rng):
        z = Tensor(rng.standard_normal(10), requires_grad=True)
        targets = (rng.random(10) < 0.5).astype(float)
        check_gradients(
            lambda: binary_cross_entropy_with_logits(z, targets), [z]
        )

    @settings(max_examples=30, deadline=None)
    @given(
        arrays(
            np.float64,
            st.integers(1, 16),
            elements=st.floats(
                min_value=-30.0, max_value=30.0,
                allow_nan=False, allow_infinity=False,
            ),
        ),
        st.integers(0, 2**32 - 1),
    )
    def test_gradient_matches_unfused_chain(self, z_data, label_seed):
        targets = (
            np.random.default_rng(label_seed).random(z_data.size) < 0.5
        ).astype(float)

        fused_z = Tensor(z_data.copy(), requires_grad=True)
        fused_loss = binary_cross_entropy_with_logits(fused_z, targets)
        fused_loss.backward()

        plain_z = Tensor(z_data.copy(), requires_grad=True)
        plain_loss = bce_logits_chain(plain_z, targets)
        plain_loss.backward()

        np.testing.assert_allclose(
            fused_loss.item(), plain_loss.item(), rtol=1e-12, atol=1e-12
        )
        np.testing.assert_allclose(
            fused_z.grad, plain_z.grad, rtol=1e-9, atol=1e-12
        )


# ----------------------------------------------------------------------
# FeatureEmbeddings: one fused_embedding_bag node for multi-feature banks
# ----------------------------------------------------------------------
class TestFusedEmbeddingBag:
    VOCABS = {"user": 50, "item": 30, "cat": 7}
    DIMS = {"user": 4, "item": 3, "cat": 2}

    def _features(self, rng, batch=16):
        return {
            name: rng.integers(0, size, size=batch)
            for name, size in self.VOCABS.items()
        }

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("sparse_chain", [True, False])
    def test_matches_unfused_bank(self, rng, dtype, sparse_chain):
        """Against lookup chains with the sparse backward, and with the
        dense scatter oracle."""
        features = self._features(rng)
        upstream = rng.standard_normal((16, sum(self.DIMS.values()))).astype(dtype)

        with default_dtype(dtype):
            bank = FeatureEmbeddings(
                self.VOCABS, self.DIMS, rng=np.random.default_rng(3)
            )
            bank.to_dtype(dtype)

        def run(forward, sparse):
            bank.zero_grad()
            out = forward(features)
            (out * Tensor(upstream)).sum().backward()
            grads = [p.grad for p in bank.parameters()]
            assert all(isinstance(g, SparseGrad) == sparse for g in grads)
            return out.data, [np.asarray(g) for g in grads]

        lookup = embedding_lookup if sparse_chain else dense_embedding_lookup
        _assert_parity(
            run(bank, True),
            run(lambda f: embedding_bank_chain(bank, f, lookup), sparse_chain),
            dtype,
        )

    def test_records_one_fused_node(self, rng):
        bank = FeatureEmbeddings(self.VOCABS, self.DIMS, rng=rng)
        with AutogradProfiler() as profiler:
            bank(self._features(rng))
        assert {op: s.calls for op, s in profiler.report().items()} == {
            "fused_embedding_bag": 1
        }

    def test_single_feature_bank_is_a_plain_lookup(self, rng):
        bank = FeatureEmbeddings({"user": 40}, {"user": 4}, rng=rng)
        with AutogradProfiler() as profiler:
            bank({"user": rng.integers(0, 40, size=8)})
        assert {op: s.calls for op, s in profiler.report().items()} == {
            "embedding_lookup": 1
        }

    def test_numerical_gradcheck(self, rng):
        bank = FeatureEmbeddings(self.VOCABS, self.DIMS, rng=rng)
        features = self._features(rng, batch=5)
        upstream = rng.standard_normal((5, sum(self.DIMS.values())))
        check_gradients(
            lambda: (bank(features) * Tensor(upstream)).sum(),
            bank.parameters(),
        )

    def test_sparse_backward_emits_sparse_grads(self, rng):
        bank = FeatureEmbeddings(self.VOCABS, self.DIMS, rng=rng)
        bank(self._features(rng)).sum().backward()
        for param in bank.parameters():
            assert isinstance(param.grad, SparseGrad)

    def test_shared_table_accumulates_both_contributions(self, rng):
        weight = Parameter(rng.standard_normal((20, 3)))
        first = rng.integers(0, 20, size=8)
        second = rng.integers(0, 20, size=8)
        fused_embedding_bag([weight, weight], [first, second]).sum().backward()
        got = np.asarray(weight.grad)
        weight.zero_grad()
        concat(
            [dense_embedding_lookup(weight, first), dense_embedding_lookup(weight, second)]
        ).sum().backward()
        np.testing.assert_allclose(got, weight.grad, rtol=1e-12, atol=1e-12)

    def test_duplicate_indices_segment_sum(self, rng):
        weight = Parameter(rng.standard_normal((10, 2)))
        indices = np.array([3, 3, 3, 7, 0, 7])
        upstream = rng.standard_normal((6, 2))
        out = fused_embedding_bag([weight], [indices])
        (out * Tensor(upstream)).sum().backward()
        expected = np.zeros_like(weight.data)
        np.add.at(expected, indices, upstream)  # repro-lint: disable=ATN003 -- reference dense scatter
        np.testing.assert_allclose(
            np.asarray(weight.grad), expected, rtol=1e-12, atol=1e-12
        )

    def test_rejects_bad_inputs(self, rng):
        weight = Parameter(rng.standard_normal((10, 2)))
        with pytest.raises(ValueError):
            fused_embedding_bag([], [])
        with pytest.raises(ValueError):
            fused_embedding_bag([weight], [])
        with pytest.raises(TypeError):
            fused_embedding_bag([weight], [np.array([0.5, 1.5])])
        with pytest.raises(IndexError):
            fused_embedding_bag([weight], [np.array([0, 10])])
        # The bounds check covers every table at once, whatever the
        # integer dtypes; the message names the first bad table's range.
        small = Parameter(rng.standard_normal((3, 2)))
        with pytest.raises(IndexError, match=r"\[0, 3\): min=-1, max=0"):
            fused_embedding_bag(
                [weight, small],
                [np.array([9, 0], dtype=np.int32), np.array([-1, 0])],
            )
        with pytest.raises(IndexError, match=r"\[0, 3\): min=0, max=3"):
            fused_embedding_bag(
                [weight, small],
                [np.array([9, 0], dtype=np.uint64), np.array([0, 3])],
            )
        out = fused_embedding_bag(
            [weight, small],
            [np.array([9, 0], dtype=np.uint64), np.array([2, 0], dtype=np.int8)],
        )
        np.testing.assert_array_equal(out.data[:, 2:], small.data[[2, 0]])
        with pytest.raises(ValueError):
            fused_embedding_bag(
                [weight, weight], [np.array([0, 1]), np.array([0])]
            )


# ----------------------------------------------------------------------
# training on the fused layers
# ----------------------------------------------------------------------
class _BankAndHead(Module):
    def __init__(self, vocabs, dims, rng):
        super().__init__()
        self.embeddings = FeatureEmbeddings(vocabs, dims, rng=rng)
        self.head = Linear(self.embeddings.output_dim, 1, rng=rng)

    def forward(self, features):
        return self.head(self.embeddings(features)).reshape((-1,))

    def forward_chain(self, features):
        return self.head(embedding_bank_chain(self.embeddings, features)).reshape(
            (-1,)
        )


class TestFusedUnderSanitizer:
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_fused_train_steps_stay_clean(self, rng, dtype):
        vocabs = {"user": 60, "item": 40, "cat": 9}
        dims = {"user": 4, "item": 4, "cat": 2}
        with default_dtype(dtype):
            model = _BankAndHead(vocabs, dims, np.random.default_rng(11))
            model.to_dtype(dtype)
            optimizer = Adam(model.parameters(), lr=1e-3)
            labels = (rng.random(32) < 0.4).astype(dtype)
            sanitizer = GradSanitizer(track_nonfinite=True)
            with sanitizer:
                for _ in range(4):
                    optimizer.zero_grad()
                    features = {
                        name: rng.integers(0, size, size=32)
                        for name, size in vocabs.items()
                    }
                    loss = binary_cross_entropy_with_logits(
                        model(features), labels
                    )
                    loss.backward()
                    optimizer.step()
                    assert np.isfinite(loss.item())

    def test_fused_and_unfused_training_match(self, rng):
        """Four optimizer steps, fused vs op chain: same final weights."""
        vocabs = {"user": 30, "item": 20}
        dims = {"user": 3, "item": 2}
        batches = [
            {name: rng.integers(0, size, size=16) for name, size in vocabs.items()}
            for _ in range(4)
        ]
        labels = (rng.random(16) < 0.5).astype(float)

        def train(chain):
            model = _BankAndHead(vocabs, dims, np.random.default_rng(21))
            forward = model.forward_chain if chain else model
            optimizer = Adam(model.parameters(), lr=1e-2)
            for features in batches:
                optimizer.zero_grad()
                loss = binary_cross_entropy_with_logits(
                    forward(features), labels
                )
                loss.backward()
                optimizer.step()
            return model.state_dict()

        fused_state = train(chain=False)
        plain_state = train(chain=True)
        assert fused_state.keys() == plain_state.keys()
        for key, fused_value in fused_state.items():
            np.testing.assert_allclose(
                fused_value, plain_state[key], rtol=1e-9, atol=1e-12
            )


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("name", available_models())
def test_registry_model_matches_op_chains(monkeypatch, name, dtype):
    """Every path of every registry model, fused layers vs op chains."""
    schema = demo_schema()
    config = TowerConfig(
        vector_dim=8, deep_dims=(16, 8), head_dims=(16,), num_cross_layers=2
    )
    with default_dtype(dtype):
        model = build_model(name, schema, config, rng=np.random.default_rng(3))
        model.to_dtype(dtype)
        features = schema_inputs(schema, 12, np.random.default_rng(4))

    def run_paths():
        results = []
        with default_dtype(dtype):
            for path in default_paths(model):
                model.zero_grad()
                out = path.run(model, features)
                out.sum().backward()
                grads = [
                    np.zeros_like(p.data) if p.grad is None else np.asarray(p.grad)
                    for p in model.parameters()
                ]
                results.append((out.data, grads))
        return results

    fused = run_paths()
    monkeypatch.setattr(MLP, "forward", mlp_chain)
    monkeypatch.setattr(CrossLayer, "forward", cross_chain)
    monkeypatch.setattr(FeatureEmbeddings, "forward", embedding_bank_chain)
    for fused_path, reference_path in zip(fused, run_paths()):
        _assert_parity(fused_path, reference_path, dtype)


def test_default_atnn_training_step_runs_fused(tiny_tmall_world):
    """The DCN towers must not silently fall back to the op chain."""
    world = tiny_tmall_world
    model = ATNN(world.schema, TowerConfig(), rng=np.random.default_rng(0))
    step = world.interactions.subset(np.arange(64))
    with AutogradProfiler() as profiler:
        ATNNTrainer(epochs=1, batch_size=64).fit(model, step)
    ops = profiler.report()
    for op in ("fused_mlp", "fused_cross", "fused_embedding_bag"):
        assert ops[op].calls > 0, op
    # ATNN's only MLPs are the tower MLPs, and its head is a weighted dot
    # product: a relu or matmul node here means a tower layer ran its
    # op chain.
    assert "relu" not in ops
    assert "matmul" not in ops
