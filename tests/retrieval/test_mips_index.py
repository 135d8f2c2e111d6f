"""MIPS index interface + brute-force oracle tests."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.nn.tensor import default_dtype
from repro.obs import MetricsRegistry, Telemetry, use_telemetry
from repro.retrieval import (
    BruteForceIndex,
    IVFIndex,
    exact_scores,
    make_index,
    recall_at_k,
)


def _naive_top_k(data: np.ndarray, query: np.ndarray, k: int) -> np.ndarray:
    """Reference: full argsort by descending inner product."""
    return np.argsort(data @ query)[::-1][:k]


def _lexsort_top_k(rows: np.ndarray, query: np.ndarray, k: int):
    """Oracle: rank rows by :func:`exact_scores`, then by lower id."""
    scores = exact_scores(rows, query)
    ids = np.lexsort((np.arange(scores.size), -scores))[:k]
    return ids, scores[ids]


def _pairwise_scores(rows: np.ndarray, query: np.ndarray) -> np.ndarray:
    """The same float64 inner products, rounded by a pairwise sum."""
    return (rows.astype(np.float64) * query.astype(np.float64)).sum(axis=1)


def _spread_rows(rng, n, dim):
    """Random directions with norms spread over 1e-3 .. 1e3."""
    rows = rng.normal(size=(n, dim))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    return rows * 10.0 ** rng.uniform(-3, 3, size=(n, 1))


def _with_near_ties(rng, rows, copies):
    """Append duplicates and relative perturbations of 1e-9 .. 1e-5.

    The perturbed copies score within float32's resolution of their
    source row, so a float32 ranking alone orders them arbitrarily.
    """
    source = rows[rng.integers(0, rows.shape[0], size=copies)]
    scale = 10.0 ** rng.uniform(-9, -5, size=(copies, 1))
    scale[rng.random(copies) < 0.3] = 0.0  # exact duplicates
    noise = rng.normal(size=source.shape) * np.abs(source) * scale
    return np.concatenate([rows, source + noise])


class TestBruteForceParity:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 300),
        dim=st.integers(1, 24),
    )
    def test_search_matches_naive_argsort(self, seed, n, dim):
        """Property: the oracle's top-k set and score order are exact."""
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(n, dim))
        query = rng.normal(size=dim)
        k = int(rng.integers(1, n + 1))

        index = BruteForceIndex(dim)
        index.add(data)
        ids, scores = index.search(query, k)

        reference = _naive_top_k(data, query, k)
        exact = data @ query
        # Score sequences must match exactly (tie order may differ).
        np.testing.assert_allclose(scores, exact[reference])
        np.testing.assert_allclose(exact[ids], exact[reference])
        # Away from ties the id sets agree.
        if np.unique(exact).size == exact.size:
            assert set(ids.tolist()) == set(reference.tolist())

    def test_batch_queries_match_single_queries(self, rng):
        data = rng.normal(size=(100, 8))
        queries = rng.normal(size=(5, 8))
        index = BruteForceIndex(8)
        index.add(data)
        batch_ids, batch_scores = index.search(queries, 7)
        assert batch_ids.shape == (5, 7) and batch_scores.shape == (5, 7)
        for row in range(5):
            one_ids, one_scores = index.search(queries[row], 7)
            np.testing.assert_array_equal(one_ids, batch_ids[row])
            np.testing.assert_allclose(one_scores, batch_scores[row])


def _assert_orders_differ_by_rounding(rows, query, pairwise, tolerance):
    """Rows the pairwise sum orders unlike the oracle score within rounding.

    Rows ``j`` before ``l`` by :func:`exact_scores` but after it by the
    pairwise sum can only be a near-tie: their pairwise scores differ by
    at most the two rows' rounding tolerances.
    """
    n = rows.shape[0]
    exact_rank = np.empty(n, dtype=np.int64)
    exact_rank[_lexsort_top_k(rows, query, n)[0]] = np.arange(n)
    pairwise_rank = np.empty(n, dtype=np.int64)
    pairwise_rank[np.lexsort((np.arange(n), -pairwise))] = np.arange(n)
    swapped = (exact_rank[:, None] < exact_rank[None, :]) & (
        pairwise_rank[:, None] > pairwise_rank[None, :]
    )
    j, l = np.nonzero(swapped)
    assert np.all(
        np.abs(pairwise[j] - pairwise[l]) <= tolerance[j] + tolerance[l]
    )


class TestExactSearch:
    """The two-pass search returns the float64 lexsort oracle's top-k.

    Rows are stored in the index dtype, so the oracle scores those
    stored rows (and the query cast to the index dtype) in float64.
    """

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(1, 24),
        dtype=st.sampled_from([np.float32, np.float64]),
        ops=st.lists(
            st.sampled_from(["add", "update", "rebuild", "shrink", "grow"]),
            max_size=6,
        ),
    )
    # Rows 95 and 57 are 2.6e-15 apart: a pairwise-sum oracle rounds them
    # to one score and ranked them the wrong way round.
    @example(seed=1836, dim=9, dtype=np.float64, ops=["add", "grow", "shrink"])
    def test_matches_lexsort_oracle(self, seed, dim, dtype, ops):
        rng = np.random.default_rng(seed)
        index = BruteForceIndex(dim, dtype=dtype)
        stored = np.empty((0, dim), dtype=dtype)

        def fresh_rows():
            rows = _spread_rows(rng, int(rng.integers(1, 60)), dim)
            if stored.shape[0] and rng.random() < 0.5:
                # Near-ties and duplicates of rows already in the index.
                base = stored[rng.integers(0, stored.shape[0], size=4)]
                rows = np.concatenate([rows, base])
            return _with_near_ties(rng, rows, int(rng.integers(0, 40)))

        def check():
            queries = rng.normal(size=(int(rng.integers(1, 4)), dim))
            if rng.random() < 0.5:
                # Queries along a stored row make its near-ties the top-k.
                picks = stored[rng.integers(0, stored.shape[0], size=2)]
                queries = np.concatenate([queries, picks])
            queries *= 10.0 ** rng.uniform(-3, 3, size=(queries.shape[0], 1))
            n = stored.shape[0]
            for k in {1, int(rng.integers(1, n + 1)), n}:
                ids, scores = index.search(queries, k)
                assert ids.shape == scores.shape == (queries.shape[0], k)
                assert scores.dtype == dtype
                for row, query in enumerate(queries):
                    query = query.astype(dtype)
                    expected, _ = _lexsort_top_k(stored, query, k)
                    np.testing.assert_array_equal(ids[row], expected)
                    # A pairwise sum rounds in another order: scores agree
                    # to rounding relative to sum |x_i q_i|.
                    pairwise = _pairwise_scores(stored, query)
                    scale = np.abs(stored) @ np.abs(query)
                    tolerance = (dim + 4) * np.finfo(dtype).eps * scale
                    assert np.all(
                        np.abs(scores[row] - pairwise[expected])
                        <= tolerance[expected]
                    )
                    _assert_orders_differ_by_rounding(
                        stored, query, pairwise, tolerance
                    )
                single_ids, _ = index.search(queries[0], k)
                np.testing.assert_array_equal(single_ids, ids[0])

        index.add(fresh_rows())
        stored = index.vectors.copy()
        check()
        for op in ops:
            n = stored.shape[0]
            if op == "add":
                index.add(fresh_rows())
            elif op == "rebuild":
                index.rebuild(fresh_rows())
            elif op == "update":
                ids = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
                index.update(ids, _spread_rows(rng, ids.size, dim))
            else:
                # Shrink or grow the largest-norm row: the norm bound must
                # stay an upper bound after the first and grow after the
                # second.
                top = int(np.argmax(np.linalg.norm(stored, axis=1)))
                factor = 1e-3 if op == "shrink" else 1e3
                index.update([top], stored[top : top + 1] * factor)
            stored = index.vectors.copy()
            check()

    def test_near_ties_below_float32_resolution(self, rng):
        """Entries 1e-7 apart, relatively: float32 cannot order the rows."""
        base = rng.normal(size=16)
        rows = base * (1.0 + 1e-7 * rng.normal(size=(200, 16)))
        index = BruteForceIndex(16, dtype=np.float64)
        index.add(rows)
        query = np.ones(16)
        for k in (1, 5, 40):
            ids, _ = index.search(query, k)
            np.testing.assert_array_equal(ids, _lexsort_top_k(rows, query, k)[0])

    def test_zero_query_ranks_by_id(self, rng):
        index = BruteForceIndex(4, dtype=np.float64)
        index.add(rng.normal(size=(10, 4)))
        ids, scores = index.search(np.zeros(4), 3)
        np.testing.assert_array_equal(ids, [0, 1, 2])
        np.testing.assert_array_equal(scores, 0.0)

    def test_extreme_magnitudes_stay_exact(self, rng):
        """Rows near float32 limits neither overflow the scan nor lose ties."""
        for magnitude in (1e-37, 1e37):
            rows = rng.normal(size=(50, 8)) * magnitude
            rows = np.concatenate([rows, rows[:5]])
            index = BruteForceIndex(8, dtype=np.float64)
            index.add(rows)
            for query in (rng.normal(size=8), rng.normal(size=8) * 1e30):
                ids, _ = index.search(query, 7)
                np.testing.assert_array_equal(
                    ids, _lexsort_top_k(rows, query, 7)[0]
                )

    def test_rescored_counter(self, rng):
        index = BruteForceIndex(8, dtype=np.float64)
        index.add(rng.normal(size=(500, 8)))
        registry = MetricsRegistry()
        with use_telemetry(Telemetry(registry=registry)):
            index.search(rng.normal(size=(3, 8)), 10)
        assert registry.counter("index.searches").value == 3
        rescored = registry.counter("index.rescored").value
        assert 30 <= rescored < 500


def test_exact_scores_depend_on_the_row_alone(rng):
    """A row scores the same bits wherever it sits and whatever surrounds it."""
    rows = rng.normal(size=(97, 29)) * 10.0 ** rng.uniform(-3, 3, size=(97, 1))
    query = rng.normal(size=29)
    whole = exact_scores(rows, query)
    for start, stop in [(0, 1), (5, 6), (3, 40), (13, 97)]:
        np.testing.assert_array_equal(
            exact_scores(rows[start:stop], query), whole[start:stop]
        )
    shuffled = rng.permutation(97)
    np.testing.assert_array_equal(exact_scores(rows[shuffled], query), whole[shuffled])
    np.testing.assert_array_equal(
        exact_scores(np.asfortranarray(rows), query), whole
    )
    copies = exact_scores(np.repeat(rows[:1], 37, axis=0), query)
    assert np.unique(copies).size == 1


class TestTieRule:
    """Equal scores go to the lower id, at the cut-off and in the list."""

    ROWS = np.array(
        [[1.0, 0.0], [2.0, 0.0], [2.0, 0.0], [1.0, 0.0], [2.0, 0.0], [0.5, 0.0]]
    )

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bruteforce_orders_ties_by_lower_id(self, dtype):
        index = BruteForceIndex(2, dtype=dtype)
        index.add(self.ROWS)
        query = np.array([1.0, 0.0])
        np.testing.assert_array_equal(index.search(query, 2)[0], [1, 2])
        np.testing.assert_array_equal(index.search(query, 4)[0], [1, 2, 4, 0])
        np.testing.assert_array_equal(
            index.search(query, 6)[0], [1, 2, 4, 0, 3, 5]
        )

    def test_ivf_orders_ties_by_lower_id(self, rng):
        rows = np.concatenate([rng.normal(size=(60, 2)), self.ROWS * 10])
        index = IVFIndex(2, nlist=4, nprobe=4, train_floor=8, seed=0)
        index.add(rows)
        assert index.trained
        ids, _ = index.search(np.array([1.0, 0.0]), 4)
        np.testing.assert_array_equal(ids, [61, 62, 64, 60])


class TestRejectsNonFinite:
    """NaN, infinities and float32-overflowing entries are refused."""

    BAD = [np.nan, np.inf, -np.inf, 1e39, -1e39]

    @pytest.mark.parametrize("bad", BAD)
    def test_bruteforce_add_rejects(self, bad):
        index = BruteForceIndex(4, dtype=np.float64)
        index.add(np.diag([1.0, 2.0, 3.0, 4.0]))
        with pytest.raises(ValueError, match="finite"):
            index.add(np.array([[bad, 0.0, 0.0, 0.0]]))
        # The rejected row was never served as a hit.
        ids, scores = index.search(np.ones(4), 2)
        np.testing.assert_array_equal(ids, [3, 2])
        np.testing.assert_array_equal(scores, [4.0, 3.0])

    @pytest.mark.parametrize("bad", BAD)
    def test_update_and_rebuild_reject(self, bad):
        row = np.array([[0.0, bad, 0.0, 0.0]])
        for index in (
            BruteForceIndex(4, dtype=np.float64),
            IVFIndex(4, nlist=2, nprobe=2, train_floor=4, dtype=np.float64),
        ):
            index.add(np.eye(4))
            with pytest.raises(ValueError, match="finite"):
                index.update([1], row)
            with pytest.raises(ValueError, match="finite"):
                index.rebuild(np.concatenate([np.eye(4), row]))
            assert len(index) == 4

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_bruteforce_rejects_non_finite_queries(self, bad):
        index = BruteForceIndex(4, dtype=np.float64)
        index.add(np.eye(4))
        with pytest.raises(ValueError, match="finite"):
            index.search(np.array([0.0, bad, 0.0, 0.0]), 1)
        with pytest.raises(ValueError, match="finite"):
            index.search(np.array([[1.0, 0.0, 0.0, 0.0], [0.0, bad, 0.0, 0.0]]), 1)

    def test_bruteforce_ranks_queries_beyond_float32_range(self):
        index = BruteForceIndex(4, dtype=np.float64)
        index.add(np.diag([1.0, 2.0, 3.0, 4.0]))
        ids, scores = index.search(np.array([0.0, 0.0, 1e39, 2e39]), 2)
        np.testing.assert_array_equal(ids, [3, 2])
        np.testing.assert_array_equal(scores, [8e39, 3e39])

    def test_ivf_add_rejects(self):
        index = IVFIndex(4, nlist=2, nprobe=2, train_floor=4, dtype=np.float64)
        with pytest.raises(ValueError, match="finite"):
            index.add(np.array([[np.nan, 0.0, 0.0, 0.0]]))

    def test_float32_limit_itself_is_accepted(self):
        limit = float(np.finfo(np.float32).max)
        index = BruteForceIndex(2, dtype=np.float64)
        index.add(np.array([[limit, 0.0], [0.0, -limit]]))
        np.testing.assert_array_equal(index.search(np.array([1.0, 0.0]), 2)[0], [0, 1])


class TestIndexContract:
    def test_ids_assigned_densely_across_adds(self, rng):
        index = BruteForceIndex(4)
        first = index.add(rng.normal(size=(3, 4)))
        second = index.add(rng.normal(size=(5, 4)))
        np.testing.assert_array_equal(first, [0, 1, 2])
        np.testing.assert_array_equal(second, [3, 4, 5, 6, 7])
        assert len(index) == 8

    def test_update_overwrites_in_place(self, rng):
        index = BruteForceIndex(4)
        index.add(rng.normal(size=(10, 4)))
        spike = np.full((1, 4), 50.0)
        index.update(np.array([7]), spike)
        ids, _ = index.search(spike[0], 1)
        assert ids[0] == 7

    def test_rebuild_resets_contents(self, rng):
        index = BruteForceIndex(4)
        index.add(rng.normal(size=(10, 4)))
        index.rebuild(rng.normal(size=(3, 4)))
        assert len(index) == 3

    def test_validation_errors(self, rng):
        index = BruteForceIndex(4)
        with pytest.raises(ValueError):
            index.add(rng.normal(size=(3, 5)))  # wrong dim
        index.add(rng.normal(size=(3, 4)))
        with pytest.raises(ValueError):
            index.search(rng.normal(size=4), 0)  # k too small
        with pytest.raises(ValueError):
            index.search(rng.normal(size=4), 4)  # k > ntotal
        with pytest.raises(ValueError):
            index.search(rng.normal(size=5), 1)  # query dim mismatch
        with pytest.raises(IndexError):
            index.update(np.array([3]), rng.normal(size=(1, 4)))
        with pytest.raises(ValueError):
            index.update(np.array([0, 1]), rng.normal(size=(1, 4)))
        with pytest.raises(ValueError):
            BruteForceIndex(0)

    def test_empty_index_rejects_search(self, rng):
        with pytest.raises(ValueError):
            BruteForceIndex(4).search(rng.normal(size=4), 1)

    def test_empty_query_batch(self, rng):
        index = BruteForceIndex(4)
        index.add(rng.normal(size=(6, 4)))
        ids, scores = index.search(np.empty((0, 4)), 3)
        assert ids.shape == scores.shape == (0, 3)

    def test_single_row_index(self, rng):
        index = BruteForceIndex(4)
        index.add(rng.normal(size=(1, 4)))
        ids, scores = index.search(rng.normal(size=4), 1)
        assert ids.shape == (1,) and ids[0] == 0


class TestDtype:
    """The ATN002-class invariant: no silent float64 promotion."""

    def test_storage_honors_default_dtype(self, rng):
        with default_dtype(np.float32):
            index = BruteForceIndex(4)
            index.add(rng.normal(size=(6, 4)))  # float64 input is cast
            assert index.dtype == np.float32
            assert index.vectors.dtype == np.float32
            _, scores = index.search(rng.normal(size=4), 3)
            assert scores.dtype == np.float32

    def test_ivf_storage_honors_default_dtype(self, rng):
        with default_dtype(np.float32):
            index = IVFIndex(4, nlist=2, nprobe=2, train_floor=4)
            index.add(rng.normal(size=(32, 4)))
            assert index.trained
            assert index._centroids.dtype == np.float32
            for part in index._part_vectors:
                assert part.dtype == np.float32
            _, scores = index.search(rng.normal(size=4), 3)
            assert scores.dtype == np.float32

    def test_explicit_dtype_overrides_default(self, rng):
        index = BruteForceIndex(4, dtype=np.float32)
        index.add(rng.normal(size=(6, 4)))
        assert index.vectors.dtype == np.float32


class TestFactory:
    def test_bruteforce_kind(self):
        assert isinstance(make_index("bruteforce", 8), BruteForceIndex)

    def test_ivf_kind_auto_nlist(self):
        index = make_index("ivf", 8, expected_size=10_000)
        assert isinstance(index, IVFIndex)
        assert index.nlist == 100  # ~sqrt(expected_size)

    def test_ivf_kind_explicit_nlist(self):
        assert make_index("ivf", 8, nlist=17).nlist == 17

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            make_index("annoy", 8)

    def test_nlist_rejected_for_bruteforce(self):
        with pytest.raises(ValueError):
            make_index("bruteforce", 8, nlist=4)


class TestRecallAtK:
    def test_perfect_and_partial_recall(self):
        reference = np.array([[1, 2, 3], [4, 5, 6]])
        assert recall_at_k(reference, reference) == 1.0
        half = np.array([[1, 2, 9], [4, 5, 9]])
        assert recall_at_k(reference, half) == pytest.approx(4 / 6)

    def test_single_query_vectors(self):
        assert recall_at_k(np.array([1, 2]), np.array([2, 3])) == 0.5

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            recall_at_k(np.array([[1, 2]]), np.array([[1, 2, 3]]))


def test_retrieval_package_is_dtype_lint_scoped_and_clean():
    """The new package sits inside ATN002's scope and lints clean."""
    from pathlib import Path

    from repro.analysis.lint import run_lint
    from repro.analysis.lint.rules import Float64LiteralRule

    rule = Float64LiteralRule()
    assert rule.applies_to("src/repro/retrieval/index.py")
    assert rule.applies_to("src/repro/retrieval/ivf.py")

    repo_root = Path(__file__).resolve().parents[2]
    diagnostics = run_lint(
        [str(repo_root / "src" / "repro" / "retrieval")], root=repo_root
    )
    assert diagnostics == [], "\n".join(d.format() for d in diagnostics)
