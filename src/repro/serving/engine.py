"""Real-time popularity engine (the paper's Section IV-D deployment).

ATNN has been deployed on a real-time data engine since August 2019; the
engine ingests live user behaviours, keeps item statistics fresh, and
recomputes new-arrival popularity for two downstream applications:
personalised search & recommendation, and smart selection of items for
promotions.  :class:`RealTimeEngine` simulates that serving loop:

* a catalogue of new arrivals enters with profiles only;
* behaviour events stream into an :class:`ItemStatisticsStore`;
* ``refresh()`` re-scores the catalogue — *cold* items through the
  generator path against the stored mean user vector (O(1) per item),
  *warm* items (enough traffic) through the statistics-aware encoder;
* ``top_promotion_candidates`` serves the smart-selection application and
  ``recommend_for_user`` the personalised one.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.atnn import ATNN
from repro.core.popularity import PopularityPredictor
from repro.data.dataset import FeatureTable
from repro.data.schema import GROUP_ITEM_PROFILE, GROUP_ITEM_STAT, GROUP_USER
from repro.nn.tensor import get_default_dtype, no_grad
from repro.obs.context import current_telemetry, request_scope
from repro.obs.tracing import maybe_span
from repro.retrieval import BruteForceIndex, MIPSIndex, exact_scores, make_index
from repro.serving.events import KIND_CODES, Event, EventKind, event_columns
from repro.serving.feature_store import ItemStatisticsStore
from repro.utils.buffers import grow_rows

__all__ = ["EngineConfig", "RealTimeEngine"]

_VIEW = KIND_CODES[EventKind.VIEW]

# Most users one engine keeps (a user vector and its cached top-k each);
# the cache is cleared when full.  The benchmark's workloads see at most
# about 1.5k distinct users.
_USER_VECTOR_CACHE_SIZE = 4096

# A cached top-k takes in the rows appended since it was filled by a
# merge while they are at most this share of the catalogue; past it the
# engine searches the index again.  Merging an eighth costs about half a
# search (dim 16, k 10: 60 vs 135 us at 20k rows, 24 vs 30 us at 1.5k);
# docs/performance.md, "Repeat users cost a merge".
_MAX_MERGE_SHARE = 1 / 8


@contextmanager
def _inference(model: ATNN) -> Iterator[None]:
    """``no_grad`` with ``model`` in eval mode, restoring train mode after.

    The mode switch walks the whole module tree, so it is skipped when
    the model is already in eval mode (``ATNNTrainer.fit`` leaves it so).
    """
    training = model.training
    if training:
        model.eval()
    try:
        with no_grad():
            yield
    finally:
        if training:
            model.train(True)


def _append_rows(buf: np.ndarray, size: int, rows: np.ndarray) -> np.ndarray:
    """``buf`` (grown if full) with ``rows`` written after its first ``size``."""
    stop = size + len(rows)
    buf = grow_rows(buf, size, stop)
    buf[size:stop] = rows
    return buf


@dataclass
class _TopK:
    """One query's top-k ids, kept for reuse (see ``RealTimeEngine._search``).

    ``scores`` are the float64 :func:`~repro.retrieval.exact_scores` of
    ``ids`` against ``query`` as the index rounds it.  ``size`` is the
    index's row count and ``epoch`` the engine's index-write epoch when
    the entry was filled.
    """

    query: np.ndarray
    ids: np.ndarray
    scores: np.ndarray
    size: int
    epoch: int


@dataclass
class _User:
    """A cached user: the tower's output and the top-k of its query."""

    vector: np.ndarray
    top: Optional[_TopK] = None


@dataclass(frozen=True)
class EngineConfig:
    """Serving-loop knobs.

    Attributes
    ----------
    warm_view_threshold:
        Views required before an item switches from the generator path to
        the statistics-aware encoder path.
    batch_size:
        Tower inference chunk size.
    index_kind:
        MIPS index backing ``top_k`` / ``recommend_for_user``:
        ``"bruteforce"`` (exact, the default) or ``"ivf"`` (approximate,
        for million-item catalogues — see ``docs/retrieval.md``).
    ivf_nlist:
        IVF partition count; ``None`` sizes it to ``~sqrt(catalogue)``.
    ivf_nprobe:
        IVF partitions probed per query.
    """

    warm_view_threshold: int = 50
    batch_size: int = 4096
    index_kind: str = "bruteforce"
    ivf_nlist: Optional[int] = None
    ivf_nprobe: int = 8

    def __post_init__(self) -> None:
        if self.warm_view_threshold < 1:
            raise ValueError(
                f"warm_view_threshold must be >= 1, got {self.warm_view_threshold}"
            )
        if self.index_kind not in ("bruteforce", "ivf"):
            raise ValueError(
                "index_kind must be 'bruteforce' or 'ivf', got "
                f"{self.index_kind!r}"
            )
        if self.ivf_nprobe < 1:
            raise ValueError(f"ivf_nprobe must be >= 1, got {self.ivf_nprobe}")


class RealTimeEngine:
    """Streaming popularity service over a new-arrival catalogue.

    Parameters
    ----------
    model:
        A trained :class:`~repro.core.atnn.ATNN`.
    catalogue:
        Feature table of the new arrivals being served (profile columns;
        statistic columns, if present, are ignored in favour of the live
        store).
    user_group:
        The active-user group whose mean vector anchors the O(1) scores.
    config:
        Serving knobs.
    """

    def __init__(
        self,
        model: ATNN,
        catalogue: FeatureTable,
        user_group: FeatureTable,
        config: EngineConfig = EngineConfig(),
    ) -> None:
        self.model = model
        # Catalogue columns live in capacity-doubling buffers and
        # ``catalogue`` is a table of ``[:n]`` views over them.  The first
        # buffers are the caller's own arrays at exactly their length, so
        # the first arrival copies them and the engine never writes into
        # the caller's arrays.
        self.catalogue = catalogue
        self._columns: Dict[str, np.ndarray] = dict(catalogue.columns)
        self.config = config
        self.store = ItemStatisticsStore(len(catalogue))
        self.predictor = PopularityPredictor(model, batch_size=config.batch_size)
        self.predictor.fit_user_group(user_group)
        # Handed to callers by scores()/last_scores: copy-on-write.
        self._scores: Optional[np.ndarray] = None
        # ``_scores`` as the last refresh left it, which tells the monitor
        # what its incremental score-drift update starts from.
        self._refreshed_scores: Optional[np.ndarray] = None
        # Engine-private ``[:n]`` views of capacity-doubling buffers; the
        # index copies rows on add/update, so refreshes write in place.
        self._item_buf: Optional[np.ndarray] = None
        self._item_vectors: Optional[np.ndarray] = None
        # Generator-path vectors depend only on the (append-only)
        # catalogue profiles and the model weights, so a full refresh
        # reuses them while ``_generator_key`` -- the (id, version) of
        # every parameter they were computed under -- still matches.
        self._generator_buf: Optional[np.ndarray] = None
        self._generator_vectors: Optional[np.ndarray] = None
        self._generator_params: List = []
        self._generator_key: Optional[list] = None
        self._fresh = False
        self._dirty: set = set()
        # Slots at or past warm_view_threshold, counted as ingest sees
        # them cross it (views only grow, and arrivals start at zero).
        self._n_warm = 0
        # The popularity query's cached top-k (see ``_search``), and the
        # index-write epoch: it advances whenever an index row is
        # rewritten or the index replaced, never on an append.
        self._popular: Optional[_TopK] = None
        self._index: Optional[MIPSIndex] = None
        self._index_epoch = 0
        self._events_seen = 0
        self._refreshes = 0
        # Exact user cache: user row key -> user tower output and the
        # cached top-k of its query.  The vectors are valid while
        # ``_user_stamp`` -- the default dtype the tower assembles
        # numerics in and the version of every user-tower parameter --
        # still matches.  The parameters are held from here on, so a
        # request never walks the module tree.
        self._user_columns = model.schema.all_column_names(GROUP_USER)
        self._user_params = model.user_tower.parameters()
        self._users: Dict[tuple, _User] = {}
        self._user_stamp: Optional[tuple] = None

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def ingest(self, events: Sequence[Event]) -> int:
        """Apply a batch of behaviour events; scores become stale."""
        with request_scope("ingest") as ctx, maybe_span("engine.ingest"):
            # One columnar pass over the python event objects, shared by
            # the store, the dirty-slot bookkeeping, and the monitor.
            columns = event_columns(events)
            applied = self.store.ingest(events, columns=columns)
            self._events_seen += applied
            if applied:
                kinds, items = columns[0], columns[1]
                touched, inverse = np.unique(items, return_inverse=True)
                views = self.store.views(touched)
                viewed = np.bincount(
                    inverse[kinds == _VIEW], minlength=touched.size
                )
                threshold = self.config.warm_view_threshold
                self._n_warm += int(
                    np.count_nonzero(
                        (views >= threshold) & (views - viewed < threshold)
                    )
                )
                self._dirty.update(touched.tolist())
            self._fresh = False
            # Cached top-k lists stay: only a refresh that rewrites index
            # rows ends them (events on cold slots leave generator vectors
            # -- and the rows -- intact).
            ctx.note("events_applied", applied)
            ctx.note("dirty_slots", len(self._dirty))
            telemetry = current_telemetry()
            if telemetry.registry is not None:
                telemetry.registry.counter("engine.events_ingested").inc(applied)
            monitor = telemetry.monitor
            if monitor is not None:
                # The scores these outcomes were served against are the
                # ones from the last refresh (None before the first
                # refresh, in which case only cohorts/lifecycle update).
                monitor.attach_catalogue(
                    len(self.catalogue), self.config.warm_view_threshold
                )
                monitor.observe_serving_batch(
                    events, scores=self._scores, columns=columns
                )
            return applied

    @property
    def events_seen(self) -> int:
        """Total events ingested."""
        return self._events_seen

    @property
    def last_scores(self) -> Optional[np.ndarray]:
        """Scores from the most recent refresh (None before the first);
        never triggers a refresh, unlike :meth:`scores`."""
        return self._scores

    @property
    def refreshes(self) -> int:
        """How many times popularity has been recomputed."""
        return self._refreshes

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def _profile_features(self, slots: np.ndarray) -> Dict[str, np.ndarray]:
        names = self.model.schema.all_column_names(GROUP_ITEM_PROFILE)
        return {name: self.catalogue[name][slots] for name in names}

    def _generator_vectors_for(self, slots: np.ndarray) -> np.ndarray:
        """Generator-path vectors for ``slots`` (profiles + zero stats)."""
        features = self._profile_features(slots)
        for name in self.model.schema.numeric_names(GROUP_ITEM_STAT):
            features[name] = np.zeros(slots.size)
        with _inference(self.model), maybe_span("generator"):
            return self.model.generated_item_vectors(features).data

    def _refresh_generator_vectors(self, n: int) -> None:
        """Recompute the generator vectors unless the weights are unchanged.

        Every sanctioned weight write (optimizer steps, ``assign_``,
        ``load_state_dict``, ``to_dtype``) bumps ``Tensor.version``, so
        the same parameter objects at the same versions produce the same
        vectors.  Holding the parameters keeps their ids from being reused.
        """
        params = self.model.parameters()
        key = [(id(param), param.version) for param in params]
        if key == self._generator_key:
            return
        self._generator_buf = self._generator_vectors_for(np.arange(n))
        self._generator_vectors = self._generator_buf
        self._generator_params = params
        self._generator_key = key

    def _make_index(self, dim: int, dtype) -> MIPSIndex:
        return make_index(
            self.config.index_kind,
            dim,
            dtype=dtype,
            **(
                {
                    "nlist": self.config.ivf_nlist,
                    "nprobe": self.config.ivf_nprobe,
                    "expected_size": len(self.catalogue),
                }
                if self.config.index_kind == "ivf"
                else {}
            ),
        )

    def _popularity_query(self) -> np.ndarray:
        """The MIPS query whose top-k *is* the popularity top-k.

        The scoring head's logit is ``item · (weight ⊙ user) + bias`` and
        the sigmoid is monotone, so ranking by inner product against the
        transformed mean user vector reproduces the score ranking.
        """
        head = self.model.scoring_head
        return head.weight.data * self.predictor.mean_user_vector

    def refresh(self, full: bool = False) -> np.ndarray:
        """Recompute popularity, re-scoring only stale slots when possible.

        Cold slots score through the generator (profiles + mean user
        vector); warm slots additionally run the encoder with their live
        statistics, which the paper's engine uses once behaviour data
        accumulates.

        The first call (and any call with ``full=True``) scores the whole
        catalogue.  Subsequent calls reuse the cached generator vectors —
        profiles are static — and run the encoder only for *stale* slots:
        warm slots that received events since the last refresh (a slot
        crossing the warm threshold is by construction dirty).  Stale
        slots are found from the set of slots ingested since the last
        refresh, and the warm count is kept as ``ingest`` sees slots cross
        the threshold, so an incremental refresh costs O(touched slots),
        not O(catalogue).  Because the statistics store standardises
        columns over all trafficked slots, incremental refreshes
        approximate untouched warm slots with their previous vectors;
        call ``refresh(full=True)`` for an exact pass.

        A full pass re-standardises and re-encodes every warm slot and
        re-scores the catalogue.  It runs the generator over the whole
        catalogue only when the model's weights changed since the cached
        generator vectors were computed (any optimizer step, ``assign_``,
        ``load_state_dict`` or ``to_dtype``); otherwise it reuses them.

        Only the first call builds the MIPS index (training the IVF
        quantizer); a later full pass writes just the index rows whose
        vector changed, in place, so no refresh stalls on k-means.  After
        swapping the model, call ``index.repartition()`` to retrain the
        quantizer.
        """
        with request_scope("refresh") as ctx:
            return self._refresh(ctx, full)

    def _refresh(self, ctx, full: bool) -> np.ndarray:
        start = time.perf_counter()
        n = len(self.catalogue)
        full = full or self._generator_vectors is None

        threshold = self.config.warm_view_threshold
        with _inference(self.model), maybe_span("engine.refresh"):
            if full:
                # Statistic columns default to zero (cold) ...
                self._refresh_generator_vectors(n)
                item_vectors = self._generator_vectors.copy()
                stale = self.store.warm_slots(threshold)
            else:
                dirty = np.fromiter(self._dirty, np.int64, len(self._dirty))
                stale = np.sort(dirty[self.store.views(dirty) >= threshold])
                item_vectors = self._item_vectors
            if stale.size:
                # ... and stale warm slots get live statistics + encoder
                # vectors.
                with maybe_span("encoder"):
                    warm_features = self._profile_features(stale)
                    warm_features.update(self.store.feature_columns(stale))
                    item_vectors[stale] = self.model.encoded_item_vectors(
                        warm_features
                    ).data

        with maybe_span("engine.score"):
            if full:
                self._scores = self.predictor.score_item_vectors(item_vectors)
            elif stale.size:
                scores = self._scores.copy()
                scores[stale] = self.predictor.score_item_vectors(
                    item_vectors[stale]
                )
                self._scores = scores
        if full:
            # The index rows equal the previous ``_item_vectors``, so only
            # rows whose vector changed need writing, to both.
            previous = self._item_vectors
            if (
                previous is not None
                and previous.shape == item_vectors.shape
                and previous.dtype == item_vectors.dtype
            ):
                changed = np.flatnonzero(
                    np.any(item_vectors != previous, axis=1)
                )
                previous[changed] = item_vectors[changed]
            else:
                changed = np.arange(n)
                self._item_buf = self._item_vectors = item_vectors
        # Index maintenance: only the first build trains a quantizer.  A
        # later full pass rewrites just the changed rows of the live index
        # in place, and a dirty-slot pass just the touched rows.  Every
        # row write advances the epoch, which ends the cached top-k lists.
        if full and (
            self._index is None or self._index.dim != item_vectors.shape[1]
        ):
            self._index = self._make_index(
                item_vectors.shape[1], item_vectors.dtype
            )
            self._index.rebuild(item_vectors)
            self._index_epoch += 1
        elif full and changed.size:
            self._index.update(changed, item_vectors[changed])
            self._index_epoch += 1
        elif not full and stale.size:
            self._index.update(stale, item_vectors[stale])
            self._index_epoch += 1
        self._dirty.clear()
        self._fresh = True
        self._refreshes += 1
        ctx.note("full_refresh", bool(full))
        ctx.note("warm_items", self._n_warm)
        ctx.note("slots_rescored", int(stale.size))
        telemetry = current_telemetry()
        registry = telemetry.registry
        if registry is not None:
            registry.counter("engine.refreshes").inc()
            registry.counter("engine.warm_path_items").inc(self._n_warm)
            registry.counter("engine.cold_path_items").inc(n - self._n_warm)
            registry.counter("engine.slots_rescored").inc(int(stale.size))
            registry.histogram("engine.refresh_seconds").observe(
                time.perf_counter() - start
            )
        monitor = telemetry.monitor
        if monitor is not None:
            monitor.attach_catalogue(n, self.config.warm_view_threshold)
            if full:
                monitor.observe_scores(self._scores)
            else:
                # Since the last refresh only the stale slots were
                # re-scored, and arrivals appended.
                monitor.observe_rescored(
                    self._scores, stale, self._refreshed_scores
                )
            if stale.size:
                monitor.observe_divergence(
                    stale, self._generator_vectors[stale], item_vectors[stale]
                )
            monitor.evaluate()
        self._refreshed_scores = self._scores
        tracker = telemetry.slo
        if tracker is not None:
            # Quality SLOs ride the snapshot the monitor's rules just
            # read; the explicit evaluate keeps SLO alerting on the
            # refresh cadence even in quiet traffic (below the tracker's
            # auto-evaluate stride).
            if monitor is not None:
                tracker.observe_quality(monitor.last_snapshot)
            tracker.evaluate()
        return self._scores

    def scores(self) -> np.ndarray:
        """Current popularity scores, refreshing lazily when stale."""
        if self._scores is None or not self._fresh:
            self.refresh()
        return self._scores

    # ------------------------------------------------------------------
    # Downstream applications
    # ------------------------------------------------------------------
    def top_k(self, k: int) -> np.ndarray:
        """The ``k`` most popular catalogue slots, best first.

        Served through the MIPS index (``config.index_kind``): exact with
        the brute-force index, approximate-but-fast with IVF.  The engine
        keeps the last answer and serves any ``k`` no larger than the
        cached one from it, merging in the slots :meth:`add_arrivals`
        appended since, until a refresh rewrites an index row or the
        scoring head changes.  With the brute-force index the answer
        equals ``index.search(popularity query, k)`` bit for bit (see
        :meth:`recommend_for_user`); with IVF it is the search's answer
        when the entry was filled plus the exactly ranked arrivals, so
        the merge can only add recall.
        """
        with request_scope("top_k") as ctx:
            scores = self.scores()
            if not 1 <= k <= scores.size:
                raise ValueError(f"k must be in [1, {scores.size}], got {k}")
            ctx.note("k", int(k))
            with maybe_span("engine.rank"):
                served, self._popular, hit = self._search(
                    self._popularity_query(), k, self._popular, approximate=True
                )
            ctx.note("order_cache_hit", hit)
            ctx.note("served_slots", int(served.size))
            return served

    def top_promotion_candidates(self, k: int) -> np.ndarray:
        """Smart selection: the k most popular catalogue slots."""
        return self.top_k(k)

    @property
    def index(self) -> Optional[MIPSIndex]:
        """The live MIPS index (None before the first refresh)."""
        return self._index

    # ------------------------------------------------------------------
    # Catalogue growth (new-arrival flood)
    # ------------------------------------------------------------------
    def add_arrivals(self, arrivals: FeatureTable) -> np.ndarray:
        """Append brand-new items to the live catalogue; returns their slots.

        The paper's setting is a *constant flood* of new arrivals.  This
        path makes them servable without a catalogue rebuild: profiles are
        appended, the statistics store grows, generator-path vectors are
        encoded for the new slots and **inserted incrementally into the
        MIPS index**, so the items are retrievable by ``top_k`` /
        ``recommend_for_user`` immediately — no full refresh required.

        ``arrivals`` must carry every item-profile column; statistic
        columns are ignored (new items are cold by definition).

        The work is proportional to the batch, not the catalogue:
        profiles, generator and item vectors and store counters append
        into capacity-doubling buffers (amortised O(batch)), and
        ``catalogue`` is rebuilt as a table of views in O(columns).  Only
        the score vector is copied, because earlier ``scores()`` results
        must not change.  A :class:`FeatureTable` taken from ``catalogue``
        before the call keeps its rows and length.

        Cached top-k lists survive: an append writes no existing index
        row.  The promotion list merges the new rows in here; a cached
        user takes them in at their next request.
        """
        with request_scope("add_arrivals") as ctx:
            n_new = len(arrivals)
            if n_new < 1:
                raise ValueError("add_arrivals needs at least one item")
            profile_names = self.model.schema.all_column_names(
                GROUP_ITEM_PROFILE
            )
            missing = [name for name in profile_names if name not in arrivals]
            if missing:
                raise KeyError(f"missing item profile columns: {missing}")
            start_slot = len(self.catalogue)
            stop = start_slot + n_new
            for name, buf in self._columns.items():
                if name in arrivals:
                    buf = _append_rows(buf, start_slot, np.asarray(arrivals[name]))
                else:
                    # Grown buffers start zeroed: the column reads zero.
                    buf = grow_rows(buf, start_slot, stop)
                self._columns[name] = buf
            self.catalogue = FeatureTable(
                {name: buf[:stop] for name, buf in self._columns.items()}
            )
            self.store.grow(n_new)
            slots = np.arange(start_slot, stop)
            if self._generator_vectors is not None:
                # Live engine: score + index the new slots right away.
                vectors = self._generator_vectors_for(slots)
                self._generator_buf = _append_rows(
                    self._generator_buf, start_slot, vectors
                )
                self._generator_vectors = self._generator_buf[:stop]
                self._item_buf = _append_rows(self._item_buf, start_slot, vectors)
                self._item_vectors = self._item_buf[:stop]
                self._scores = np.concatenate(
                    [
                        self._scores,
                        self.predictor.score_item_vectors(vectors),
                    ]
                )
                assigned = self._index.add(vectors)
                if assigned[0] != start_slot:  # pragma: no cover - invariant
                    raise RuntimeError(
                        "index ids drifted from catalogue slots: "
                        f"{assigned[0]} != {start_slot}"
                    )
                popular = self._popular
                if popular is not None:
                    # The promotion list takes the arrivals in here, so
                    # the next tick serves it as a slice.
                    self._popular = (
                        self._merge_appended(popular)
                        if self._serves(
                            popular, self._popularity_query(), popular.ids.size
                        )
                        else None
                    )
            ctx.note("items_added", int(n_new))
            ctx.note("catalogue_size", len(self.catalogue))
            telemetry = current_telemetry()
            if telemetry.registry is not None:
                telemetry.registry.counter("engine.items_added").inc(n_new)
            monitor = telemetry.monitor
            if monitor is not None:
                monitor.attach_catalogue(
                    len(self.catalogue), self.config.warm_view_threshold
                )
            return slots

    def _search(
        self,
        query: np.ndarray,
        k: int,
        cached: Optional[_TopK],
        approximate: bool = False,
    ) -> Tuple[np.ndarray, Optional[_TopK], bool]:
        """The top-``k`` ids for ``query``, the entry to keep for it, and
        whether ``cached`` served them.

        An entry serves a request while its query is equal, the
        index-write epoch is unchanged and ``k`` is no larger than the
        cached one.  No row it ranked has changed since, so the top-k is
        among its ids and the rows appended since.  Those rows get the
        brute-force index's ranking score (:func:`exact_scores` against
        the query as the index rounds it) and are merged in by its tie
        rule, higher score then lower id: with the brute-force index the
        result is ``index.search(query, k)`` bit for bit.  Past
        ``_MAX_MERGE_SHARE`` of the catalogue appended, the index is
        searched again.  An IVF answer is cached only when
        ``approximate`` allows it, since its merge is not IVF's search.
        A miss keeps the float64 scores a brute-force search returned.
        """
        index = self._index
        exact = isinstance(index, BruteForceIndex)
        if not (exact or approximate):
            return index.search(query, k)[0], None, False
        hit = self._serves(cached, query, k)
        if hit:
            entry = self._merge_appended(cached)
        else:
            ids, scores = index.search(query, k)
            if not exact or scores.dtype != np.float64:
                # IVF scores by BLAS, and a float32 index rounds its scores.
                scores = exact_scores(
                    self._item_vectors[ids], np.asarray(query, dtype=index.dtype)
                )
            entry = _TopK(query, ids, scores, index.ntotal, self._index_epoch)
        # A copy: the caller owns what it is handed, the cache its entry.
        return entry.ids[:k].copy(), entry, hit

    def _serves(self, cached: Optional[_TopK], query: np.ndarray, k: int) -> bool:
        """Whether ``cached`` answers ``query`` for ``k`` once the rows
        appended since are merged in."""
        n = self._index.ntotal
        return (
            cached is not None
            and cached.epoch == self._index_epoch
            and k <= cached.ids.size
            and n - cached.size <= _MAX_MERGE_SHARE * n
            and np.array_equal(cached.query, query)
        )

    def _merge_appended(self, cached: _TopK) -> _TopK:
        """``cached`` with the rows appended since it was filled merged in."""
        n = self._index.ntotal
        if cached.size == n:
            return cached
        # The engine's item vectors are the index rows, in its dtype.
        fresh = exact_scores(
            self._item_vectors[cached.size :],
            np.asarray(cached.query, dtype=self._index.dtype),
        )
        # A row below the cached k-th score cannot enter.
        enter = np.flatnonzero(fresh >= cached.scores[-1])
        ids = np.concatenate([cached.ids, enter + cached.size])
        scores = np.concatenate([cached.scores, fresh[enter]])
        # Cached ids are below every appended one and tied ones are in id
        # order, as are the appended: a stable sort gives a tie to the
        # lower id.
        best = np.argsort(-scores, kind="stable")[: cached.ids.size]
        return _TopK(cached.query, ids[best], scores[best], n, cached.epoch)

    def _user_row(
        self, user_features: Dict[str, np.ndarray]
    ) -> Tuple[Dict[str, np.ndarray], Optional[tuple]]:
        """The validated one-row user columns and their cache key.

        The key is each ``GROUP_USER`` column's dtype, shape and bytes in
        schema order, so two rows share it only when the tower sees the
        same input.  It is ``None`` -- never cached -- for an object
        column, whose bytes are pointers rather than values.
        """
        columns: Dict[str, np.ndarray] = {}
        shapes: Dict[str, tuple] = {}
        key: list = []
        for name in self._user_columns:
            if name not in user_features:
                missing = [n for n in self._user_columns if n not in user_features]
                raise KeyError(f"missing user features: {missing}")
            column = columns[name] = np.asarray(user_features[name])
            if column.shape[:1] != (1,):
                shapes[name] = column.shape
            key.append((column.dtype, column.shape, column.tobytes()))
        if shapes:
            raise ValueError(
                f"user features must be exactly one row, got shapes {shapes}"
            )
        if any(dtype.hasobject for dtype, _, _ in key):
            return columns, None
        return columns, tuple(key)

    def recommend_for_user(
        self, user_features: Dict[str, np.ndarray], k: int
    ) -> np.ndarray:
        """Personalised recommendation: top-k slots for one user.

        Parameters
        ----------
        user_features:
            Single-row feature dict for the user (each column length 1).
        k:
            Number of recommendations.

        A ``k`` outside ``[1, catalogue size]`` and a column that is not
        exactly one row are a ``ValueError``, and a missing column is a
        ``KeyError``, all raised before the user tower runs.

        A user row served before, under the same user-tower weights and
        default dtype, reuses its user vector instead of running the
        tower again.  With the brute-force index it also reuses its last
        answer while no refresh rewrote an index row: for any ``k`` no
        larger than the cached one, a repeat user costs a merge of the
        slots appended since.  Both reuses are exact: the result equals
        the uncached ``index.search`` bit for bit.
        """
        # No enclosing engine.recommend span: the request scope already
        # times the whole request, and this path runs hot enough that a
        # redundant span shows up in the monitor-overhead bench.
        with request_scope("recommend") as ctx:
            start = time.perf_counter()
            self.scores()  # ensure vectors are fresh
            if not 1 <= k <= len(self._index):
                raise ValueError(
                    f"k must be in [1, {len(self._index)}], got {k}"
                )
            columns, key = self._user_row(user_features)
            ctx.note("k", int(k))
            stamp = (
                get_default_dtype(),
                [param.version for param in self._user_params],
            )
            if stamp != self._user_stamp:
                self._users.clear()
                self._user_stamp = stamp
            user = self._users.get(key)
            vector_hit = user is not None
            ctx.note("user_vector_cache_hit", vector_hit)
            if user is None:
                with _inference(self.model), maybe_span("user_tower"):
                    user = _User(self.model.user_vectors(columns).data[0])
                if key is not None:
                    if len(self._users) >= _USER_VECTOR_CACHE_SIZE:
                        self._users.clear()
                    self._users[key] = user
            head = self.model.scoring_head
            # Personalised top-k is a MIPS against this user's transformed
            # vector; bias + sigmoid are monotone so ranking by raw inner
            # product is the ranking by probability.
            top, user.top, hit = self._search(
                head.weight.data * user.vector, k, user.top
            )
            ctx.note("result_cache_hit", hit)
            registry = current_telemetry().registry
            if registry is not None:
                registry.counter("engine.recommend_requests").inc()
                if vector_hit:
                    registry.counter("engine.user_vector_hits").inc()
                if hit:
                    registry.counter("engine.recommend_result_hits").inc()
                registry.histogram("engine.recommend_seconds").observe(
                    time.perf_counter() - start
                )
            return top
