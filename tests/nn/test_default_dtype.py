"""The configurable default dtype and float32 training mode."""

import numpy as np
import pytest

from repro.core import ATNN, ATNNTrainer, TwoTowerModel, TwoTowerTrainer
from repro.data import train_test_split
from repro.nn import (
    Tensor,
    default_dtype,
    get_default_dtype,
    init,
    set_default_dtype,
)
from repro.nn.layers.embedding import EmbeddingBag
from repro.nn.layers.linear import Linear
from repro.nn.losses import binary_cross_entropy, mean_squared_error
from repro.nn.module import Module, Parameter
from repro.obs.callbacks import TrainerCallback


@pytest.fixture(autouse=True)
def _restore_default_dtype():
    previous = get_default_dtype()
    yield
    set_default_dtype(previous)


class TestDefaultDtypeSwitch:
    def test_default_is_float64(self):
        assert get_default_dtype() == np.float64
        assert Tensor([1.0, 2.0]).data.dtype == np.float64

    def test_set_and_restore(self):
        previous = set_default_dtype(np.float32)
        assert previous == np.float64
        assert Tensor([1.0]).data.dtype == np.float32
        set_default_dtype(previous)
        assert Tensor([1.0]).data.dtype == np.float64

    def test_context_manager(self):
        with default_dtype(np.float32):
            assert get_default_dtype() == np.float32
        assert get_default_dtype() == np.float64

    def test_unsupported_dtype_rejected(self):
        with pytest.raises(ValueError):
            set_default_dtype(np.int64)

    def test_initializers_follow_default(self):
        rng = np.random.default_rng(0)
        with default_dtype(np.float32):
            assert init.normal(rng, (3, 2)).dtype == np.float32
            assert init.zeros((3,)).dtype == np.float32
            assert init.ones((3,)).dtype == np.float32
        assert init.xavier_uniform(rng, (3, 2)).dtype == np.float64

    def test_initializer_explicit_dtype_wins(self):
        rng = np.random.default_rng(0)
        assert init.he_normal(rng, (2, 2), dtype=np.float32).dtype == np.float32

    def test_initializer_draws_match_across_dtypes(self):
        high = init.normal(np.random.default_rng(7), (4, 3))
        low = init.normal(np.random.default_rng(7), (4, 3), dtype=np.float32)
        np.testing.assert_allclose(low, high, rtol=1e-6)


class TestFloat32Compute:
    def test_forward_backward_preserve_dtype(self):
        rng = np.random.default_rng(0)
        with default_dtype(np.float32):
            layer = Linear(4, 3, rng=rng)
            x = Tensor(rng.normal(size=(5, 4)))
            assert x.data.dtype == np.float32
            out = layer(x).relu()
            assert out.data.dtype == np.float32
            out.sum().backward()
        assert layer.weight.grad.dtype == np.float32

    def test_losses_follow_prediction_dtype(self):
        with default_dtype(np.float32):
            predictions = Tensor(np.full(8, 0.3))
            loss = binary_cross_entropy(predictions, np.zeros(8))
            assert loss.data.dtype == np.float32
            mse = mean_squared_error(Tensor(np.ones(4)), np.zeros(4))
            assert mse.data.dtype == np.float32

    def test_bce_extreme_probabilities_stay_finite(self):
        """float32 clip must be wide enough that log(1-p) never hits -inf."""
        with default_dtype(np.float32):
            predictions = Tensor(np.array([1.0, 0.0, 1.0 - 1e-9]))
            loss = binary_cross_entropy(predictions, np.array([0.0, 1.0, 0.0]))
            assert np.isfinite(loss.item())
            loss.backward()

    def test_embedding_bag_mask_follows_weight_dtype(self):
        rng = np.random.default_rng(0)
        with default_dtype(np.float32):
            bag = EmbeddingBag(6, 3, rng=rng)
            out = bag(np.array([[0, 1]]), np.array([[1, 1]]))
            assert out.data.dtype == np.float32


class TestModuleToDtype:
    def test_casts_parameters_and_clears_grads(self):
        rng = np.random.default_rng(0)

        class Net(Module):
            def __init__(self):
                super().__init__()
                self.layer = Linear(3, 2, rng=rng)
                self.scale = Parameter(np.ones(2))

        net = Net()
        net.layer.weight.grad = np.zeros_like(net.layer.weight.data)
        net.to_dtype(np.float32)
        for param in net.parameters():
            assert param.data.dtype == np.float32
            assert param.grad is None
        net.to_dtype(np.float64)
        assert net.scale.data.dtype == np.float64


class TestFloat32Trainer:
    def test_two_tower_float32_fit(self, tiny_tmall_world, tiny_tower_config):
        rng = np.random.default_rng(0)
        train, _ = train_test_split(tiny_tmall_world.interactions, 0.2, rng)
        train = train.subset(np.arange(1500))
        model = TwoTowerModel(
            tiny_tmall_world.schema, tiny_tower_config,
            rng=np.random.default_rng(1),
        )
        trainer = TwoTowerTrainer(
            epochs=2, batch_size=256, lr=3e-3, dtype=np.float32
        )
        history = trainer.fit(model, train)
        assert history.series("loss")[-1] < history.series("loss")[0]
        # Parameters come back in their entry dtype, and the global
        # default is restored once fit returns.
        assert all(p.data.dtype == np.float64 for p in model.parameters())
        assert get_default_dtype() == np.float64


class _SeesDtypes(TrainerCallback):
    """Records the parameter and default dtypes at every batch."""

    def __init__(self, fail_at_batch=None):
        self.fail_at_batch = fail_at_batch
        self.model = None
        self.seen = set()

    def on_train_begin(self, trainer, model):
        self.model = model

    def on_batch_end(self, stats):
        self.seen |= {p.data.dtype for p in self.model.parameters()}
        self.seen.add(get_default_dtype())
        if stats.step == self.fail_at_batch:
            raise RuntimeError("callback failed mid-fit")


class TestFloat32ByDefault:
    @pytest.fixture
    def atnn_fit(self, tiny_tmall_world, tiny_tower_config):
        train = tiny_tmall_world.interactions.subset(np.arange(1024))

        def fit(callback):
            model = ATNN(
                tiny_tmall_world.schema, tiny_tower_config,
                rng=np.random.default_rng(1),
            )
            trainer = ATNNTrainer(epochs=1, batch_size=256, callbacks=[callback])
            return model, lambda: trainer.fit(model, train)

        return fit

    def test_default_atnn_fit_computes_in_float32(self, atnn_fit):
        callback = _SeesDtypes()
        _, fit = atnn_fit(callback)
        fit()
        assert callback.seen == {np.dtype(np.float32)}

    def test_fit_hands_back_float64_parameters(self, atnn_fit):
        model, fit = atnn_fit(_SeesDtypes())
        fit()
        assert {p.data.dtype for p in model.parameters()} == {np.dtype(np.float64)}
        assert all(p.grad is None for p in model.parameters())

    def test_fit_that_raises_restores_dtypes(self, atnn_fit):
        callback = _SeesDtypes(fail_at_batch=3)
        model, fit = atnn_fit(callback)
        with pytest.raises(RuntimeError, match="callback failed mid-fit"):
            fit()
        assert callback.seen == {np.dtype(np.float32)}
        assert get_default_dtype() == np.float64
        assert {p.data.dtype for p in model.parameters()} == {np.dtype(np.float64)}
