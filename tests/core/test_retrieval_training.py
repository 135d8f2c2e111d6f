"""Retrieval-training tests: in-batch softmax fit + corpus recall."""

import numpy as np
import pytest

from repro.core import (
    EarlyStopping,
    RetrievalTrainer,
    TowerConfig,
    TwoTowerModel,
    recall_against_corpus,
)
from repro.obs import Telemetry, TrainerCallback, Tracer, use_telemetry


@pytest.fixture(scope="module")
def retrieval_setup(tiny_tmall_world):
    """Held-out positive pairs plus a training set excluding them."""
    world = tiny_tmall_world
    labels = world.interactions.label("ctr")
    positives = np.flatnonzero(labels == 1.0)
    holdout = positives[-300:]
    train_rows = np.setdiff1d(np.arange(len(world.interactions)), holdout)
    train = world.interactions.subset(train_rows)
    train_items = world.interaction_item_indices[train_rows]
    user_rows = {
        name: world.interactions.features[name][holdout]
        for name in world.schema.all_column_names("user")
    }
    true_items = world.interaction_item_indices[holdout]
    return world, train, train_items, user_rows, true_items


class TestRetrievalTrainer:
    def test_loss_decreases(self, tiny_tmall_world, tiny_tower_config):
        model = TwoTowerModel(
            tiny_tmall_world.schema, tiny_tower_config,
            rng=np.random.default_rng(1),
        )
        trainer = RetrievalTrainer(
            temperature=0.2, epochs=3, batch_size=128, lr=3e-3
        )
        history = trainer.fit(model, tiny_tmall_world.interactions)
        losses = history.series("loss")
        assert losses[-1] < losses[0]

    @pytest.fixture(scope="class")
    def trained_model(self, retrieval_setup, tiny_tower_config):
        """Trained with the Yi et al. sampling-bias correction."""
        world, train, train_items, _, _ = retrieval_setup
        model = TwoTowerModel(
            world.schema, tiny_tower_config, rng=np.random.default_rng(1)
        )
        RetrievalTrainer(temperature=0.2, epochs=6, batch_size=128, lr=3e-3).fit(
            model, train, item_indices=train_items
        )
        return model

    def test_training_beats_untrained_recall(
        self, retrieval_setup, tiny_tower_config, trained_model
    ):
        world, _, _, user_rows, true_items = retrieval_setup
        untrained = TwoTowerModel(
            world.schema, tiny_tower_config, rng=np.random.default_rng(1)
        )
        base = recall_against_corpus(
            untrained, user_rows, true_items, world.items, k=40
        )
        better = recall_against_corpus(
            trained_model, user_rows, true_items, world.items, k=40
        )
        assert better > base

    def test_trained_recall_beats_chance(self, retrieval_setup, trained_model):
        world, _, _, user_rows, true_items = retrieval_setup
        k = 40
        recall = recall_against_corpus(
            trained_model, user_rows, true_items, world.items, k=k
        )
        chance = k / len(world.items)
        assert recall > 1.4 * chance

    def test_bias_correction_improves_recall(
        self, retrieval_setup, tiny_tower_config, trained_model
    ):
        """The log-frequency correction must beat the uncorrected loss —
        popular items are otherwise over-penalised as in-batch negatives
        (the effect Yi et al. correct)."""
        world, train, _, user_rows, true_items = retrieval_setup
        uncorrected = TwoTowerModel(
            world.schema, tiny_tower_config, rng=np.random.default_rng(1)
        )
        RetrievalTrainer(temperature=0.2, epochs=6, batch_size=128, lr=3e-3).fit(
            uncorrected, train
        )
        base = recall_against_corpus(
            uncorrected, user_rows, true_items, world.items, k=40
        )
        corrected = recall_against_corpus(
            trained_model, user_rows, true_items, world.items, k=40
        )
        assert corrected > base

    def test_misaligned_item_indices_rejected(
        self, retrieval_setup, tiny_tower_config
    ):
        world, train, train_items, _, _ = retrieval_setup
        model = TwoTowerModel(
            world.schema, tiny_tower_config, rng=np.random.default_rng(1)
        )
        with pytest.raises(ValueError):
            RetrievalTrainer(epochs=1).fit(
                model, train, item_indices=train_items[:-1]
            )

    def test_invalid_temperature_rejected(self):
        with pytest.raises(ValueError):
            RetrievalTrainer(temperature=0.0)

    def test_trains_in_the_configured_dtype(
        self, tiny_tmall_world, tiny_tower_config
    ):
        model = TwoTowerModel(
            tiny_tmall_world.schema, tiny_tower_config,
            rng=np.random.default_rng(1),
        )
        seen = set()

        class _Dtypes(TrainerCallback):
            def on_batch_end(self, stats):
                seen.update(p.data.dtype for p in model.parameters())

        RetrievalTrainer(
            epochs=1, batch_size=256, dtype=np.float32, callbacks=[_Dtypes()]
        ).fit(model, tiny_tmall_world.interactions)
        assert seen == {np.dtype(np.float32)}
        # fit hands the parameters back in their entry dtype.
        assert {p.data.dtype for p in model.parameters()} == {
            np.dtype(np.float64)
        }

    def test_callbacks_see_every_batch(self, tiny_tmall_world, tiny_tower_config):
        class _Recorder(TrainerCallback):
            def __init__(self):
                self.events = []

            def on_train_begin(self, trainer, model):
                self.events.append("begin")

            def on_batch_end(self, stats):
                self.events.append((stats.path, sorted(stats.losses)))

            def on_train_end(self, history):
                self.events.append("end")

        model = TwoTowerModel(
            tiny_tmall_world.schema, tiny_tower_config,
            rng=np.random.default_rng(1),
        )
        recorder = _Recorder()
        RetrievalTrainer(epochs=1, batch_size=256, callbacks=[recorder]).fit(
            model, tiny_tmall_world.interactions
        )
        batches = recorder.events[1:-1]
        assert recorder.events[0] == "begin" and recorder.events[-1] == "end"
        assert batches and all(event == ("encoder", ["loss"]) for event in batches)

    def test_too_few_positives_rejected(self, tiny_tmall_world, tiny_tower_config):
        model = TwoTowerModel(
            tiny_tmall_world.schema, tiny_tower_config,
            rng=np.random.default_rng(1),
        )
        # A dataset slice with (almost surely) a single positive row.
        labels = tiny_tmall_world.interactions.label("ctr")
        one_positive = np.flatnonzero(labels == 1.0)[:1]
        one_negative = np.flatnonzero(labels == 0.0)[:5]
        subset = tiny_tmall_world.interactions.subset(
            np.concatenate([one_positive, one_negative])
        )
        with pytest.raises(ValueError):
            RetrievalTrainer(epochs=1).fit(model, subset)

    def test_epoch_without_a_trainable_batch_raises(
        self, tiny_tmall_world, tiny_tower_config
    ):
        """Single-row batches have no in-batch negative, so no step runs."""
        model = TwoTowerModel(
            tiny_tmall_world.schema, tiny_tower_config,
            rng=np.random.default_rng(1),
        )
        labels = tiny_tmall_world.interactions.label("ctr")
        subset = tiny_tmall_world.interactions.subset(
            np.flatnonzero(labels == 1.0)[:5]
        )
        with pytest.raises(ValueError, match="5 training rows at batch_size=1"):
            RetrievalTrainer(epochs=1, batch_size=1).fit(model, subset)

    def _model(self, world, config):
        return TwoTowerModel(world.schema, config, rng=np.random.default_rng(1))

    def test_early_stopping_on_a_missing_metric_raises(
        self, tiny_tmall_world, tiny_tower_config
    ):
        trainer = RetrievalTrainer(
            epochs=2, batch_size=256, early_stopping=EarlyStopping("valid_auc")
        )
        with pytest.raises(KeyError, match="valid_auc"):
            trainer.fit(
                self._model(tiny_tmall_world, tiny_tower_config),
                tiny_tmall_world.interactions,
            )

    def test_early_stopping_on_the_loss(self, tiny_tmall_world, tiny_tower_config):
        world = tiny_tmall_world
        minimise = RetrievalTrainer(
            epochs=3, batch_size=256, lr=3e-3,
            early_stopping=EarlyStopping("loss", mode="min", patience=1),
        )
        assert minimise.fit(
            self._model(world, tiny_tower_config), world.interactions
        ).n_epochs == 3  # the loss falls every epoch

        # The falling loss watched for "max" stops after epoch 2 and
        # restores epoch 1's weights: those of a one-epoch fit.
        stopped = self._model(world, tiny_tower_config)
        history = RetrievalTrainer(
            epochs=4, batch_size=256, lr=3e-3,
            early_stopping=EarlyStopping("loss", mode="max", patience=1),
        ).fit(stopped, world.interactions)
        assert history.n_epochs == 2
        one_epoch = self._model(world, tiny_tower_config)
        RetrievalTrainer(epochs=1, batch_size=256, lr=3e-3).fit(
            one_epoch, world.interactions
        )
        for key, value in one_epoch.state_dict().items():
            np.testing.assert_array_equal(stopped.state_dict()[key], value)

    def test_epochs_open_the_train_epoch_span(
        self, tiny_tmall_world, tiny_tower_config
    ):
        tracer = Tracer()
        with use_telemetry(Telemetry(tracer=tracer)):
            RetrievalTrainer(epochs=2, batch_size=256).fit(
                self._model(tiny_tmall_world, tiny_tower_config),
                tiny_tmall_world.interactions,
            )
        assert tracer.stats("train.epoch").calls == 2


class TestRecallEvaluation:
    def test_validation(self, retrieval_setup, tiny_tower_config):
        world, _, _, user_rows, true_items = retrieval_setup
        model = TwoTowerModel(
            world.schema, tiny_tower_config, rng=np.random.default_rng(1)
        )
        with pytest.raises(ValueError):
            recall_against_corpus(model, user_rows, true_items[:-1], world.items, k=5)
        with pytest.raises(ValueError):
            recall_against_corpus(
                model, user_rows, true_items, world.items, k=len(world.items) + 1
            )

    def test_recall_monotone_in_k(self, retrieval_setup, tiny_tower_config):
        world, _, _, user_rows, true_items = retrieval_setup
        model = TwoTowerModel(
            world.schema, tiny_tower_config, rng=np.random.default_rng(1)
        )
        recall_small = recall_against_corpus(
            model, user_rows, true_items, world.items, k=10
        )
        recall_large = recall_against_corpus(
            model, user_rows, true_items, world.items, k=100
        )
        assert recall_large >= recall_small

    def test_full_corpus_recall_is_one(self, retrieval_setup, tiny_tower_config):
        world, _, _, user_rows, true_items = retrieval_setup
        model = TwoTowerModel(
            world.schema, tiny_tower_config, rng=np.random.default_rng(1)
        )
        recall = recall_against_corpus(
            model, user_rows, true_items, world.items, k=len(world.items)
        )
        assert recall == 1.0

    def test_index_path_matches_dense_path(
        self, retrieval_setup, tiny_tower_config
    ):
        """Serving-stack eval: a brute-force index reproduces the dense
        matmul recall exactly (same scores, same top-k sets)."""
        from repro.retrieval import BruteForceIndex

        world, _, _, user_rows, true_items = retrieval_setup
        model = TwoTowerModel(
            world.schema, tiny_tower_config, rng=np.random.default_rng(1)
        )
        dense = recall_against_corpus(
            model, user_rows, true_items, world.items, k=25
        )
        indexed = recall_against_corpus(
            model,
            user_rows,
            true_items,
            world.items,
            k=25,
            index=BruteForceIndex(tiny_tower_config.vector_dim),
        )
        assert indexed == pytest.approx(dense)

    def test_ivf_full_probe_matches_dense_path(
        self, retrieval_setup, tiny_tower_config
    ):
        from repro.retrieval import IVFIndex

        world, _, _, user_rows, true_items = retrieval_setup
        model = TwoTowerModel(
            world.schema, tiny_tower_config, rng=np.random.default_rng(1)
        )
        dense = recall_against_corpus(
            model, user_rows, true_items, world.items, k=25
        )
        indexed = recall_against_corpus(
            model,
            user_rows,
            true_items,
            world.items,
            k=25,
            index=IVFIndex(
                tiny_tower_config.vector_dim, nlist=8, nprobe=8, seed=0
            ),
        )
        assert indexed == pytest.approx(dense)

    def test_batch_size_does_not_change_recall(
        self, retrieval_setup, tiny_tower_config
    ):
        world, _, _, user_rows, true_items = retrieval_setup
        model = TwoTowerModel(
            world.schema, tiny_tower_config, rng=np.random.default_rng(1)
        )
        small = recall_against_corpus(
            model, user_rows, true_items, world.items, k=20, batch_size=37
        )
        large = recall_against_corpus(
            model, user_rows, true_items, world.items, k=20, batch_size=100_000
        )
        assert small == pytest.approx(large)
