"""IVF maintenance on the serving path: no quantizer retrain after set-up.

An IVF engine probing every partition must serve exactly what the
brute-force engine serves through any interleaving of ingests, partial
and full refreshes and arrival floods, and none of those may retrain the
k-means quantizer.
"""

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
    run_state_machine_as_test,
)

import repro.retrieval.ivf as ivf_module
from repro.core import ATNN, TowerConfig
from repro.data.synthetic.common import sigmoid
from repro.nn.tensor import no_grad
from repro.serving import EngineConfig, Event, EventKind, RealTimeEngine

NLIST = 4


@pytest.fixture(scope="module")
def serving_model(tiny_tmall_world):
    return ATNN(
        tiny_tmall_world.schema,
        TowerConfig(vector_dim=8, deep_dims=(16, 8), head_dims=(16,),
                    num_cross_layers=1),
        rng=np.random.default_rng(5),
    )


def _engine(world, model, **index):
    return RealTimeEngine(
        model,
        world.new_items,
        world.active_user_group(0.2),
        EngineConfig(warm_view_threshold=5, **index),
    )


def _arrivals(world, rows):
    names = world.schema.all_column_names("item_profile")
    return type(world.new_items)(
        {name: world.items[name][np.asarray(rows)] for name in names}
    )


def _user_row(world, row):
    names = world.schema.all_column_names("user")
    return {name: world.users[name][row : row + 1] for name in names}


def _personal_scores(engine, user_row):
    engine.model.eval()
    with no_grad():
        user_vector = engine.model.user_vectors(user_row).data[0]
    head = engine.model.scoring_head
    return sigmoid(
        engine._item_vectors @ (head.weight.data * user_vector)
        + head.bias.data[0]
    )


def test_ivf_engine_tracks_bruteforce_engine(
    tiny_tmall_world, serving_model, example_scale
):
    """Stateful: full-probe IVF and brute force serve the same rankings."""
    world = tiny_tmall_world
    splits = []

    class EngineMachine(RuleBasedStateMachine):
        @initialize()
        def build(self):
            self.exact = _engine(world, serving_model)
            self.ivf = _engine(
                world,
                serving_model,
                index_kind="ivf",
                ivf_nlist=NLIST,
                ivf_nprobe=NLIST,  # full probe: exact
            )
            self.clock = 0.0
            for engine in (self.exact, self.ivf):
                engine.refresh()
            # Split eagerly so arrival floods exercise the local split.
            self.ivf.index.imbalance_factor = 2.0

        @rule(
            slots=st.lists(st.integers(0, 10_000), min_size=1, max_size=40),
            clicks=st.booleans(),
        )
        def ingest(self, slots, clicks):
            n = len(self.exact.catalogue)
            events = []
            for user, slot in enumerate(slots):
                self.clock += 1.0
                events.append(Event(EventKind.VIEW, slot % n, user, self.clock))
                if clicks:
                    events.append(
                        Event(EventKind.CLICK, slot % n, user, self.clock)
                    )
            for engine in (self.exact, self.ivf):
                engine.ingest(events)

        @rule(full=st.booleans())
        def refresh(self, full):
            np.testing.assert_array_equal(
                self.exact.refresh(full=full), self.ivf.refresh(full=full)
            )

        @rule(
            rows=st.lists(
                st.integers(0, len(world.items) - 1), min_size=1, max_size=60
            ),
        )
        def add_arrivals(self, rows):
            self._arrive(_arrivals(world, rows))

        @rule(row=st.integers(0, len(world.items) - 1), copies=st.integers(50, 200))
        def flood(self, row, copies):
            # Copies of one item pile into one partition and split it.
            self._arrive(_arrivals(world, np.full(copies, row)))

        def _arrive(self, arrivals):
            np.testing.assert_array_equal(
                self.exact.add_arrivals(arrivals),
                self.ivf.add_arrivals(arrivals),
            )
            splits.append(self.ivf.index.repartitions)

        @rule(k=st.integers(1, 60))
        def top_k(self, k):
            scores = self.exact.scores()
            exact = scores[self.exact.top_k(k)]
            # The cached order (merged across arrivals) is the dense
            # top-k; IVF matching exact alone would miss a stale merge.
            np.testing.assert_allclose(exact, np.sort(scores)[::-1][:k])
            np.testing.assert_allclose(scores[self.ivf.top_k(k)], exact)

        @rule(user=st.integers(0, 50), k=st.integers(1, 30))
        def recommend_for_user(self, user, k):
            row = _user_row(world, user)
            personal = _personal_scores(self.exact, row)
            np.testing.assert_allclose(
                np.sort(personal[self.ivf.recommend_for_user(row, k)]),
                np.sort(personal[self.exact.recommend_for_user(row, k)]),
            )

        @invariant()
        def index_covers_catalogue(self):
            if self.ivf.index is not None:
                assert len(self.ivf.index) == len(self.ivf.catalogue)
                assert self.ivf.index.probe_count() >= len(
                    self.ivf.index.partition_sizes
                )

    run_state_machine_as_test(
        EngineMachine,
        settings=settings(
            max_examples=12 * example_scale, stateful_step_count=20, deadline=None
        ),
    )
    assert max(splits) > 0, "no arrival flood ever split a partition"


def test_full_refreshes_and_floods_never_retrain_the_quantizer(
    tiny_tmall_world, serving_model, monkeypatch
):
    """After set-up, k-means only runs as a local 2-means split."""
    world = tiny_tmall_world
    engine = _engine(world, serving_model, index_kind="ivf")
    engine.refresh()  # engine set-up: the one quantizer training
    index = engine.index
    assert index.trained

    splits = []

    def guard(points, k, **kwargs):
        if k != 2 or points.shape[0] > index.partition_sizes.max():
            raise AssertionError(
                f"quantizer retrain on the serving path: k={k}, "
                f"{points.shape[0]} rows of {index.ntotal}"
            )
        splits.append(points.shape[0])
        return real_kmeans(points, k, **kwargs)

    real_kmeans = ivf_module.kmeans
    monkeypatch.setattr(ivf_module, "kmeans", guard)
    rng = np.random.default_rng(0)
    for round_ in range(4):
        engine.ingest(
            [
                Event(EventKind.VIEW, int(slot), user, float(user))
                for user, slot in enumerate(
                    rng.integers(0, len(engine.catalogue), size=300)
                )
            ]
        )
        engine.refresh(full=True)
        # A realistic batch, then a flood of one item's copies that
        # overfills a single partition.
        engine.add_arrivals(_arrivals(world, rng.integers(0, 400, size=50)))
        engine.add_arrivals(_arrivals(world, np.full(120, round_)))
        engine.refresh(full=True)
    assert engine.index is index  # never replaced, never rebuilt
    # Every split attempt went through the guard; identical copies make
    # some attempts fail, which count no repartition.
    assert 0 < index.repartitions <= len(splits)
    assert len(index) == len(engine.catalogue)
