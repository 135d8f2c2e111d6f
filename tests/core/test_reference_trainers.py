"""The shared epoch loop against the reference loops, bit for bit.

Every trainer now runs ``_BaseTrainer.fit``; ``reference_trainers`` keeps
the hand-written loop each trainer ran before.  Histories and final
weights must match exactly, in float64 and float32.
"""

import numpy as np
import pytest

from repro.core import (
    ATNN,
    ATNNTrainer,
    EarlyStopping,
    MultiTaskATNN,
    MultiTaskTrainer,
    RetrievalTrainer,
    TwoTowerModel,
    TwoTowerTrainer,
    build_model,
)
from repro.data import train_test_split
from repro.nn.tensor import get_default_dtype
from tests.core.reference_trainers import (
    reference_atnn_fit,
    reference_multitask_fit,
    reference_retrieval_fit,
    reference_two_tower_fit,
)

DTYPES = [np.float64, np.float32]


@pytest.fixture(scope="module")
def tmall_split(tiny_tmall_world):
    train, valid = train_test_split(
        tiny_tmall_world.interactions, 0.2, np.random.default_rng(0)
    )
    return train.subset(np.arange(1500)), valid.subset(np.arange(500))


@pytest.fixture(scope="module")
def eleme_split(tiny_eleme_world):
    train, valid = train_test_split(
        tiny_eleme_world.samples, 0.2, np.random.default_rng(0)
    )
    return train.subset(np.arange(800)), valid


def _assert_same_fit(fit, reference, build):
    """Run ``fit`` and ``reference`` on twin models; compare bit for bit."""
    model, twin = build(), build()
    before = get_default_dtype()
    history = fit(model)
    expected = reference(twin)
    assert get_default_dtype() == before
    assert history.records == expected
    state, expected_state = model.state_dict(), twin.state_dict()
    assert state.keys() == expected_state.keys()
    for key, value in expected_state.items():
        assert state[key].dtype == value.dtype, key
        np.testing.assert_array_equal(state[key], value, err_msg=key)


def _kwargs(dtype, **overrides):
    kwargs = {"epochs": 2, "batch_size": 256, "lr": 3e-3, "seed": 5, "dtype": dtype}
    kwargs.update(overrides)
    return kwargs


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("name", ["tnn-dcn", "tnn-fc"])
def test_two_tower_matches_reference(
    name, dtype, tiny_tmall_world, tiny_tower_config, tmall_split
):
    train, valid = tmall_split
    trainer = TwoTowerTrainer(**_kwargs(dtype))
    _assert_same_fit(
        lambda model: trainer.fit(model, train, valid=valid),
        lambda model: reference_two_tower_fit(trainer, model, train, valid),
        lambda: build_model(
            name, tiny_tmall_world.schema, tiny_tower_config,
            rng=np.random.default_rng(11),
        ),
    )


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("lambda_similarity", [0.1, 0.0])
def test_atnn_matches_reference(
    lambda_similarity, dtype, tiny_tmall_world, tiny_tower_config, tmall_split
):
    train, valid = tmall_split
    trainer = ATNNTrainer(lambda_similarity=lambda_similarity, **_kwargs(dtype))
    _assert_same_fit(
        lambda model: trainer.fit(model, train, valid=valid),
        lambda model: reference_atnn_fit(trainer, model, train, valid),
        lambda: ATNN(
            tiny_tmall_world.schema, tiny_tower_config,
            rng=np.random.default_rng(11),
        ),
    )


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("adversarial", [True, False])
def test_multitask_matches_reference(
    adversarial, dtype, tiny_eleme_world, tiny_tower_config, eleme_split
):
    train, valid = eleme_split
    trainer = MultiTaskTrainer(adversarial=adversarial, **_kwargs(dtype, batch_size=128))
    _assert_same_fit(
        lambda model: trainer.fit(model, train, valid=valid),
        lambda model: reference_multitask_fit(trainer, model, train, valid),
        lambda: MultiTaskATNN(
            tiny_eleme_world.schema, tiny_tower_config,
            rng=np.random.default_rng(11),
        ),
    )


@pytest.mark.parametrize("dtype", DTYPES)
def test_early_stopping_restore_matches_reference(
    dtype, tiny_tmall_world, tiny_tower_config, tmall_split
):
    """A rising loss watched for "max" stops at epoch 2 and restores epoch 1."""
    train, valid = tmall_split
    policy = EarlyStopping("loss_i", mode="max", patience=1, restore_best=True)
    trainer = ATNNTrainer(**_kwargs(dtype, epochs=4, early_stopping=policy))
    _assert_same_fit(
        lambda model: trainer.fit(model, train, valid=valid),
        lambda model: reference_atnn_fit(trainer, model, train, valid),
        lambda: ATNN(
            tiny_tmall_world.schema, tiny_tower_config,
            rng=np.random.default_rng(11),
        ),
    )


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("with_items", [False, True])
def test_retrieval_matches_reference(
    with_items, dtype, tiny_tmall_world, tiny_tower_config
):
    """One epoch: later epochs reshuffle differently (see reference_trainers)."""
    world = tiny_tmall_world
    item_indices = world.interaction_item_indices if with_items else None
    trainer = RetrievalTrainer(**_kwargs(dtype, epochs=1, batch_size=128))
    _assert_same_fit(
        lambda model: trainer.fit(model, world.interactions, item_indices=item_indices),
        lambda model: reference_retrieval_fit(
            trainer, model, world.interactions, item_indices=item_indices
        ),
        lambda: TwoTowerModel(
            world.schema, tiny_tower_config, rng=np.random.default_rng(11)
        ),
    )
