"""Shared fixtures for the ATNN reproduction test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.core import TowerConfig
from repro.data.synthetic import (
    ElemeConfig,
    TmallConfig,
    generate_eleme_world,
    generate_tmall_world,
)

# Tier-1 replays the same hypothesis examples on every run and host, so a
# failure reproduces from a clean checkout; ``--hypothesis-profile=explore``
# draws fresh random examples, ten times as many, to find new failures
# (pin each with ``@example(...)``).
settings.register_profile("ci", derandomize=True, database=None)
settings.register_profile(
    "explore", database=None, max_examples=10 * settings.get_profile("ci").max_examples
)
settings.load_profile("ci")


def _example_scale() -> int:
    """How many times the ``ci`` profile's examples the loaded profile runs."""
    return settings.default.max_examples // settings.get_profile("ci").max_examples


def pytest_collection_modifyitems(items) -> None:
    """Scale each test's own ``@settings(max_examples=...)`` by the profile.

    A test's explicit ``max_examples`` overrides any profile, and
    hypothesis offers no public hook to scale it, so this rewrites the
    settings ``@given`` attached to the test.
    """
    scale = _example_scale()
    if scale == 1:
        return
    for item in items:
        test = getattr(item, "obj", None)
        test = getattr(test, "__func__", test)
        own = getattr(test, "_hypothesis_internal_use_settings", None)
        if own is not None:
            test._hypothesis_internal_use_settings = settings(
                own, max_examples=own.max_examples * scale
            )


@pytest.fixture(scope="session")
def example_scale() -> int:
    """The profile's example multiplier, for tests that build settings inline."""
    return _example_scale()


@pytest.fixture
def rng() -> np.random.Generator:
    """A fresh deterministic generator per test."""
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def tiny_tmall_world():
    """A very small Tmall world shared (read-only) across tests."""
    return generate_tmall_world(
        TmallConfig(
            n_users=300,
            n_items=400,
            n_new_items=150,
            n_interactions=8_000,
            n_categories=8,
            n_subcategories=16,
            n_brands=40,
            n_sellers=60,
            seed=3,
        )
    )


@pytest.fixture(scope="session")
def tiny_eleme_world():
    """A very small Ele.me world shared (read-only) across tests."""
    return generate_eleme_world(
        ElemeConfig(
            n_restaurants=300,
            n_new_restaurants=120,
            n_zones=10,
            n_brands=30,
            samples_per_restaurant=5,
            seed=5,
        )
    )


@pytest.fixture(scope="session")
def tiny_tower_config() -> TowerConfig:
    """A tower small enough for per-test training."""
    return TowerConfig(
        vector_dim=8, deep_dims=(16, 8), head_dims=(16,), num_cross_layers=1
    )
