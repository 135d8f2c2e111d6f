"""Early stopping, best-weight restore and divergence-guard tests."""

import numpy as np
import pytest

from repro.core import (
    ATNN,
    ATNNTrainer,
    EarlyStopping,
    TwoTowerModel,
    TwoTowerTrainer,
)
from repro.data import train_test_split
from repro.metrics import roc_auc


@pytest.fixture
def split(tiny_tmall_world):
    rng = np.random.default_rng(0)
    train, test = train_test_split(tiny_tmall_world.interactions, 0.2, rng)
    return train.subset(np.arange(2000)), test.subset(np.arange(600))


class TestEarlyStoppingPolicy:
    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            EarlyStopping(metric="valid_auc", mode="best")

    def test_invalid_patience_rejected(self):
        with pytest.raises(ValueError):
            EarlyStopping(metric="valid_auc", patience=0)

    def test_improved_semantics(self):
        maximise = EarlyStopping(metric="auc", mode="max")
        assert maximise.improved(0.7, None)
        assert maximise.improved(0.7, 0.6)
        assert not maximise.improved(0.5, 0.6)
        minimise = EarlyStopping(metric="mae", mode="min")
        assert minimise.improved(0.5, 0.6)
        assert not minimise.improved(0.7, 0.6)


class TestTrainerIntegration:
    def test_stops_before_epoch_budget(self, tiny_tmall_world, tiny_tower_config, split):
        """Patience 1 with a plateauing metric must cut training short."""
        train, test = split
        model = TwoTowerModel(
            tiny_tmall_world.schema, tiny_tower_config,
            rng=np.random.default_rng(1),
        )
        # Watching the *training loss* as a maximisation target plateaus
        # immediately (loss decreases), forcing the earliest possible stop.
        trainer = TwoTowerTrainer(
            epochs=6, batch_size=256, lr=3e-3,
            early_stopping=EarlyStopping(metric="loss", mode="max", patience=1,
                                         restore_best=False),
        )
        history = trainer.fit(model, train, valid=test)
        assert history.n_epochs == 2  # epoch 1 sets best, epoch 2 exhausts patience

    def test_reused_trainer_starts_each_fit_fresh(
        self, tiny_tmall_world, tiny_tower_config, split
    ):
        """Early-stopping state from one fit must not leak into the next."""
        train, test = split

        def model(seed):
            return TwoTowerModel(
                tiny_tmall_world.schema, tiny_tower_config,
                rng=np.random.default_rng(seed),
            )

        def trainer():
            return TwoTowerTrainer(
                epochs=4, batch_size=256, lr=3e-3,
                early_stopping=EarlyStopping(metric="valid_auc", patience=1),
            )

        # The first fit improves every epoch, so a leaked best value would
        # stop the identically initialised second fit after one epoch.
        reused = trainer()
        reused.fit(model(2), train, valid=test)
        second = model(2)
        reused_history = reused.fit(second, train, valid=test)
        fresh = model(2)
        fresh_history = trainer().fit(fresh, train, valid=test)
        assert reused_history.n_epochs == 4
        assert reused_history.to_dict() == fresh_history.to_dict()
        for key, value in fresh.state_dict().items():
            np.testing.assert_array_equal(second.state_dict()[key], value)

    def test_missing_metric_raises(self, tiny_tmall_world, tiny_tower_config, split):
        train, _ = split
        model = TwoTowerModel(
            tiny_tmall_world.schema, tiny_tower_config,
            rng=np.random.default_rng(1),
        )
        trainer = TwoTowerTrainer(
            epochs=2, batch_size=512,
            early_stopping=EarlyStopping(metric="valid_auc"),
        )
        with pytest.raises(KeyError):
            trainer.fit(model, train)  # no validation set -> metric absent

    def test_best_weights_restored(self, tiny_tmall_world, tiny_tower_config, split):
        """After training, the model must score exactly its best epoch."""
        train, test = split
        model = ATNN(
            tiny_tmall_world.schema, tiny_tower_config,
            rng=np.random.default_rng(1),
        )
        trainer = ATNNTrainer(
            epochs=3, batch_size=256, lr=3e-3,
            early_stopping=EarlyStopping(
                metric="valid_auc_encoder", mode="max", patience=3,
                restore_best=True,
            ),
        )
        history = trainer.fit(model, train, valid=test)
        best = max(history.series("valid_auc_encoder"))
        restored = roc_auc(test.label("ctr"), model.predict_proba(test.features))
        assert restored == pytest.approx(best, abs=1e-12)

    def test_divergence_guard(self, tiny_tmall_world, tiny_tower_config, split):
        """A non-finite loss must raise a clear divergence error instead of
        silently corrupting all weights (failure injection: poison one
        parameter with NaN)."""
        train, _ = split
        model = TwoTowerModel(
            tiny_tmall_world.schema, tiny_tower_config,
            rng=np.random.default_rng(1),
        )
        model.scoring_head.weight.data[0] = np.nan  # repro-lint: disable=ATN001 -- deliberate failure injection: poison a weight to prove the trainer aborts
        trainer = TwoTowerTrainer(epochs=1, batch_size=64)
        with pytest.raises(RuntimeError, match="diverged"):
            trainer.fit(model, train)
