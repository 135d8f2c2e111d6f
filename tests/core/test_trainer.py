"""Trainer tests: loss descent, alternation semantics, history records."""

import gc
import warnings

import numpy as np
import pytest

from repro.core import (
    ATNN,
    ATNNTrainer,
    MultiTaskATNN,
    MultiTaskTrainer,
    TowerConfig,
    TwoTowerModel,
    TwoTowerTrainer,
)
from repro.data import train_test_split


@pytest.fixture
def small_split(tiny_tmall_world):
    rng = np.random.default_rng(0)
    train, test = train_test_split(tiny_tmall_world.interactions, 0.2, rng)
    return train.subset(np.arange(3000)), test.subset(np.arange(800))


@pytest.fixture
def eleme_split(tiny_eleme_world):
    rng = np.random.default_rng(0)
    return train_test_split(tiny_eleme_world.samples, 0.2, rng)


class TestTwoTowerTrainer:
    def test_loss_decreases(self, tiny_tmall_world, tiny_tower_config, small_split):
        train, _ = small_split
        model = TwoTowerModel(
            tiny_tmall_world.schema, tiny_tower_config,
            rng=np.random.default_rng(1),
        )
        history = TwoTowerTrainer(epochs=3, batch_size=256, lr=3e-3).fit(model, train)
        assert history.series("loss")[-1] < history.series("loss")[0]

    def test_validation_auc_recorded(
        self, tiny_tmall_world, tiny_tower_config, small_split
    ):
        train, test = small_split
        model = TwoTowerModel(
            tiny_tmall_world.schema, tiny_tower_config,
            rng=np.random.default_rng(1),
        )
        history = TwoTowerTrainer(epochs=4, batch_size=256, lr=3e-3).fit(
            model, train, valid=test
        )
        aucs = history.series("valid_auc")
        assert len(aucs) == 4
        assert aucs[-1] > 0.55  # beats chance

    def test_model_left_in_eval_mode(
        self, tiny_tmall_world, tiny_tower_config, small_split
    ):
        train, _ = small_split
        model = TwoTowerModel(
            tiny_tmall_world.schema, tiny_tower_config,
            rng=np.random.default_rng(1),
        )
        TwoTowerTrainer(epochs=1, batch_size=512).fit(model, train)
        assert not model.training

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            TwoTowerTrainer(epochs=0)
        with pytest.raises(ValueError):
            TwoTowerTrainer(batch_size=0)

    def test_epoch_callback_invoked(
        self, tiny_tmall_world, tiny_tower_config, small_split
    ):
        train, _ = small_split
        seen = []
        model = TwoTowerModel(
            tiny_tmall_world.schema, tiny_tower_config,
            rng=np.random.default_rng(1),
        )
        TwoTowerTrainer(
            epochs=2, batch_size=512, on_epoch_end=lambda e, r: seen.append(e)
        ).fit(model, train)
        assert seen == [0, 1]


class TestATNNTrainer:
    def test_records_three_losses(
        self, tiny_tmall_world, tiny_tower_config, small_split
    ):
        train, _ = small_split
        model = ATNN(
            tiny_tmall_world.schema, tiny_tower_config,
            rng=np.random.default_rng(1),
        )
        history = ATNNTrainer(epochs=1, batch_size=256, lr=3e-3).fit(model, train)
        record = history.records[0]
        assert {"loss_i", "loss_g", "loss_s"} <= set(record)

    def test_similarity_loss_decreases(
        self, tiny_tmall_world, tiny_tower_config, small_split
    ):
        """The adversarial game must pull generated vectors toward encoded."""
        train, _ = small_split
        model = ATNN(
            tiny_tmall_world.schema, tiny_tower_config,
            rng=np.random.default_rng(1),
        )
        history = ATNNTrainer(
            lambda_similarity=0.5, epochs=3, batch_size=256, lr=3e-3
        ).fit(model, train)
        losses = history.series("loss_s")
        assert losses[-1] < losses[0]

    def test_both_paths_beat_chance(
        self, tiny_tmall_world, tiny_tower_config, small_split
    ):
        train, test = small_split
        model = ATNN(
            tiny_tmall_world.schema, tiny_tower_config,
            rng=np.random.default_rng(1),
        )
        history = ATNNTrainer(epochs=3, batch_size=256, lr=3e-3).fit(
            model, train, valid=test
        )
        assert history.last("valid_auc_encoder") > 0.55
        assert history.last("valid_auc_generator") > 0.55

    def test_lambda_zero_disables_distillation_pressure(
        self, tiny_tmall_world, tiny_tower_config, small_split
    ):
        """With lambda=0 the similarity loss is reported but not optimised;
        it should stay clearly higher than with a strong lambda."""
        train, _ = small_split
        results = {}
        for lam in (0.0, 1.0):
            model = ATNN(
                tiny_tmall_world.schema, tiny_tower_config,
                rng=np.random.default_rng(2),
            )
            history = ATNNTrainer(
                lambda_similarity=lam, epochs=2, batch_size=256, lr=3e-3,
                seed=3,
            ).fit(model, train)
            results[lam] = history.last("loss_s")
        assert results[1.0] < results[0.0]

    def test_fit_leaves_no_cyclic_garbage(
        self, tiny_tmall_world, tiny_tower_config, small_split
    ):
        # Each step's graph is freed by reference counting alone: the tape
        # holds no cycle, so nothing waits for the cyclic collector.
        train, test = small_split
        model = ATNN(
            tiny_tmall_world.schema, tiny_tower_config,
            rng=np.random.default_rng(1),
        )
        trainer = ATNNTrainer(epochs=1, batch_size=256, lr=3e-3)
        gc.collect()
        gc.disable()
        try:
            trainer.fit(model, train, valid=test)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            ATNNTrainer(lambda_similarity=-0.1)


class TestMultiTaskTrainer:
    def test_losses_decrease(self, tiny_eleme_world, tiny_tower_config, eleme_split):
        train, _ = eleme_split
        model = MultiTaskATNN(
            tiny_eleme_world.schema, tiny_tower_config,
            rng=np.random.default_rng(1),
        )
        history = MultiTaskTrainer(epochs=4, batch_size=128, lr=3e-3).fit(model, train)
        assert history.series("loss_r")[-1] < history.series("loss_r")[0]

    def test_validation_maes_recorded(
        self, tiny_eleme_world, tiny_tower_config, eleme_split
    ):
        train, test = eleme_split
        model = MultiTaskATNN(
            tiny_eleme_world.schema, tiny_tower_config,
            rng=np.random.default_rng(1),
        )
        history = MultiTaskTrainer(epochs=2, batch_size=128, lr=3e-3).fit(
            model, train, valid=test
        )
        assert "valid_mae_vppv" in history.records[-1]
        assert "valid_mae_gmv" in history.records[-1]

    def test_non_adversarial_skips_generator(
        self, tiny_eleme_world, tiny_tower_config, eleme_split
    ):
        train, _ = eleme_split
        model = MultiTaskATNN(
            tiny_eleme_world.schema, tiny_tower_config,
            rng=np.random.default_rng(1),
        )
        history = MultiTaskTrainer(
            adversarial=False, epochs=1, batch_size=128
        ).fit(model, train)
        assert "loss_g" not in history.records[0]

    def test_head_bias_initialised_to_label_mean(
        self, tiny_eleme_world, tiny_tower_config, eleme_split
    ):
        train, _ = eleme_split
        model = MultiTaskATNN(
            tiny_eleme_world.schema, tiny_tower_config,
            rng=np.random.default_rng(1),
        )
        MultiTaskTrainer(epochs=1, batch_size=128).fit(model, train)
        predictions = model.predict(train.features, "gmv")
        assert abs(predictions.mean() - train.label("gmv").mean()) < 1.5

    def test_invalid_weights_rejected(self):
        with pytest.raises(ValueError):
            MultiTaskTrainer(lambda_vppv=-1.0)


class TestSharedLoop:
    """Behaviour every trainer gets from the one epoch loop."""

    @pytest.mark.parametrize(
        "trainer_class, model_class",
        [(TwoTowerTrainer, TwoTowerModel), (ATNNTrainer, ATNN)],
    )
    def test_empty_training_set_raises(
        self, trainer_class, model_class, tiny_tmall_world, tiny_tower_config,
        small_split,
    ):
        train, _ = small_split
        model = model_class(
            tiny_tmall_world.schema, tiny_tower_config,
            rng=np.random.default_rng(1),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no "Mean of empty slice"
            with pytest.raises(ValueError, match="0 training rows at batch_size=512"):
                trainer_class(epochs=1).fit(model, train.subset(np.arange(0)))

    def test_empty_multitask_training_set_raises(
        self, tiny_eleme_world, tiny_tower_config, eleme_split
    ):
        train, _ = eleme_split
        model = MultiTaskATNN(
            tiny_eleme_world.schema, tiny_tower_config,
            rng=np.random.default_rng(1),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="0 training rows at batch_size=128"):
                MultiTaskTrainer(epochs=1, batch_size=128).fit(
                    model, train.subset(np.arange(0))
                )


class TestTrainingHistory:
    def test_series_and_last(self):
        from repro.core import TrainingHistory

        history = TrainingHistory(records=[{"loss": 1.0}, {"loss": 0.5}])
        assert history.series("loss") == [1.0, 0.5]
        assert history.last("loss") == 0.5
        assert history.n_epochs == 2

    def test_last_missing_key_rejected(self):
        from repro.core import TrainingHistory

        with pytest.raises(KeyError):
            TrainingHistory(records=[{"loss": 1.0}]).last("auc")
