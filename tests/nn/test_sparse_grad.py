"""Tests for the row-sparse embedding-gradient fast path."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.nn import check_gradients, embedding_lookup
from repro.nn.layers.embedding import Embedding, EmbeddingBag
from repro.nn.module import Parameter
from repro.nn.optim import Optimizer
from repro.nn.sparse import SparseGrad
from repro.nn.tensor import Tensor
from tests.nn.reference_ops import dense_embedding_lookup


class TestSparseGradRepresentation:
    def test_dedup_matches_scatter_add_reference(self, rng):
        indices = rng.integers(0, 10, size=40)
        rows = rng.normal(size=(40, 3))
        grad = SparseGrad.from_rows(indices, rows, (10, 3))
        reference = np.zeros((10, 3))
        np.add.at(reference, indices, rows)  # repro-lint: disable=ATN003 -- builds the dense scatter reference the segment-sum kernel is checked against
        np.testing.assert_allclose(grad.to_dense(), reference)
        # Compacted: unique sorted ids.
        assert np.all(np.diff(grad.indices) > 0)

    def test_compact_is_idempotent(self, rng):
        grad = SparseGrad.from_rows([2, 2, 5], rng.normal(size=(3, 2)), (6, 2))
        dense = grad.to_dense()
        grad.compact()
        np.testing.assert_allclose(grad.to_dense(), dense)

    def test_empty_gradient(self):
        grad = SparseGrad.from_rows(
            np.array([], dtype=np.int64), np.zeros((0, 4)), (7, 4)
        )
        assert grad.nnz_rows == 0
        np.testing.assert_allclose(grad.to_dense(), np.zeros((7, 4)))

    def test_merge_sums_contributions(self, rng):
        a = SparseGrad.from_rows([1, 3], rng.normal(size=(2, 2)), (5, 2))
        b = SparseGrad.from_rows([3, 4], rng.normal(size=(2, 2)), (5, 2))
        merged = a.merge(b)
        np.testing.assert_allclose(merged.to_dense(), a.to_dense() + b.to_dense())

    def test_add_dense_scatter(self, rng):
        sparse = SparseGrad.from_rows([0, 2], rng.normal(size=(2, 3)), (4, 3))
        dense = rng.normal(size=(4, 3))
        np.testing.assert_allclose(sparse + dense, sparse.to_dense() + dense)
        np.testing.assert_allclose(dense + sparse, sparse.to_dense() + dense)

    def test_scalar_arithmetic_stays_sparse(self, rng):
        grad = SparseGrad.from_rows([1, 2], rng.normal(size=(2, 2)), (4, 2))
        doubled = grad * 2.0
        assert isinstance(doubled, SparseGrad)
        np.testing.assert_allclose(doubled.to_dense(), 2.0 * grad.to_dense())
        squared = grad ** 2
        assert isinstance(squared, SparseGrad)
        np.testing.assert_allclose(squared.to_dense(), grad.to_dense() ** 2)
        assert grad.sum() == pytest.approx(grad.to_dense().sum())
        grad *= 0.5
        np.testing.assert_allclose(grad.to_dense(), 0.25 * doubled.to_dense())

    def test_getitem_and_array_protocol(self, rng):
        grad = SparseGrad.from_rows([1], rng.normal(size=(1, 2)), (3, 2))
        np.testing.assert_allclose(grad[1], grad.to_dense()[1])
        np.testing.assert_allclose(np.asarray(grad), grad.to_dense())

    def test_non_scalar_multiply_rejected(self, rng):
        grad = SparseGrad.from_rows([0], rng.normal(size=(1, 2)), (2, 2))
        with pytest.raises(TypeError):
            grad * np.ones((2, 2))


def _bits(array: np.ndarray) -> np.ndarray:
    """The raw bit patterns, so ``-0.0`` and ``0.0`` compare unequal."""
    return array.view(np.uint32 if array.dtype == np.float32 else np.uint64)


def _compact_both_ways(ids, rows, vocab):
    """``compact`` on the dense-table path and on the sort path."""
    table = SparseGrad((vocab, rows.shape[1]), ids.copy(), rows.copy()).compact()
    # The same lookups against a taller table take the sort path; the
    # rows it keeps are the same ids with the same sums.
    tall = SparseGrad((ids.size + 1, rows.shape[1]), ids.copy(), rows.copy()).compact()
    return table, tall


class TestCompactPaths:
    """The dense-table path of ``compact`` equals the sort path bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([np.float32, np.float64]),
        st.integers(1, 12),
        st.integers(1, 4),
        st.integers(0, 24),
        st.data(),
    )
    def test_matches_sort_path(self, dtype, vocab, dim, extra, data):
        lookups = vocab + extra  # never fewer lookups than table rows
        ids = data.draw(arrays(np.int64, lookups, elements=st.integers(0, vocab - 1)))
        width = 32 if dtype == np.float32 else 64
        rows = data.draw(
            arrays(
                dtype,
                (lookups, dim),
                elements=st.one_of(
                    st.sampled_from([-0.0, 0.0]), st.floats(-1e3, 1e3, width=width)
                ),
            )
        )
        table, tall = _compact_both_ways(ids, rows, vocab)
        assert table.compacted
        assert table.rows.dtype == dtype and table.indices.dtype == ids.dtype
        np.testing.assert_array_equal(table.indices, tall.indices)
        np.testing.assert_array_equal(_bits(table.rows), _bits(tall.rows))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equal_lookups_unsorted_negative_zero(self, dtype):
        ids = np.array([2, 0, 2])
        rows = np.array([[-0.0, 1.5], [-0.0, -0.0], [0.0, -2.0]], dtype=dtype)
        table, tall = _compact_both_ways(ids, rows, vocab=3)
        np.testing.assert_array_equal(table.indices, [0, 2])
        np.testing.assert_array_equal(_bits(table.rows), _bits(tall.rows))
        assert np.signbit(table.rows[0]).all()  # -0.0 + -0.0 stays -0.0

    def test_dense_table_path_sums_repeats(self):
        ids = np.array([1, 0, 1, 1])
        rows = np.array([[1.0], [2.0], [3.0], [-0.0]])
        grad = SparseGrad((2, 1), ids, rows).compact()
        np.testing.assert_array_equal(grad.indices, [0, 1])
        np.testing.assert_array_equal(grad.rows, [[2.0], [4.0]])


class TestSparseBackward:
    def test_embedding_backward_emits_sparse(self, rng):
        weight = Parameter(rng.normal(size=(20, 4)))
        out = embedding_lookup(weight, np.array([3, 3, 7]))
        out.sum().backward()
        grad = weight.grad
        assert isinstance(grad, SparseGrad)
        assert grad.nnz_rows == 2

    def test_sparse_matches_dense_backward(self, rng):
        data = rng.normal(size=(30, 5))
        indices = rng.integers(0, 30, size=64)
        coeff = rng.normal(size=(64, 5))

        def run(lookup):
            weight = Parameter(data.copy())
            out = lookup(weight, indices)
            (out * Tensor(coeff)).sum().backward()
            return weight.grad

        sparse = run(embedding_lookup)
        dense = run(dense_embedding_lookup)
        np.testing.assert_allclose(sparse.to_dense(), dense)

    def test_shared_table_two_lookups_accumulate(self, rng):
        """sparse + sparse accumulation on a table shared by two branches."""
        data = rng.normal(size=(15, 3))

        def run(lookup):
            weight = Parameter(data.copy())
            a = lookup(weight, np.array([0, 1, 1]))
            b = lookup(weight, np.array([1, 9]))
            (a.sum() + 2.0 * b.sum()).backward()
            return weight.grad

        sparse = run(embedding_lookup)
        assert isinstance(sparse, SparseGrad)
        dense = run(dense_embedding_lookup)
        np.testing.assert_allclose(sparse.to_dense(), dense)

    def test_mixed_sparse_and_dense_contributions(self, rng):
        """A table used via lookup *and* a dense op accumulates correctly."""
        data = rng.normal(size=(6, 4))
        coeff = rng.normal(size=(6, 4))

        def run(lookup):
            weight = Parameter(data.copy())
            rows = lookup(weight, np.array([2, 2, 4]))
            dense_use = (weight * Tensor(coeff)).sum()
            (rows.sum() + dense_use).backward()
            return weight.grad

        got = run(embedding_lookup)
        expected = run(dense_embedding_lookup)
        np.testing.assert_allclose(np.asarray(got), np.asarray(expected))

    def test_clip_gradients_handles_sparse(self, rng):
        weight = Parameter(rng.normal(size=(25, 4)))
        out = embedding_lookup(weight, np.array([1, 2, 2, 3]))
        (out * out).sum().backward()
        expected_norm = float(
            np.sqrt((np.asarray(weight.grad) ** 2).sum())
        )
        norm = Optimizer.clip_gradients([weight], max_norm=expected_norm / 2)
        assert norm == pytest.approx(expected_norm)
        clipped_norm = float(np.sqrt((np.asarray(weight.grad) ** 2).sum()))
        assert clipped_norm == pytest.approx(expected_norm / 2)


class TestSparseGradcheck:
    def test_embedding_repeated_indices(self, rng):
        table = Embedding(8, 3, rng=rng)
        indices = np.array([0, 5, 5, 2, 5])
        coeff = Tensor(rng.normal(size=(5, 3)))

        def fn():
            return (table(indices) * coeff).sum()

        check_gradients(fn, [table.weight])

    def test_embedding_bag_repeated_indices(self, rng):
        bag = EmbeddingBag(8, 3, rng=rng)
        indices = np.array([[1, 1, 4], [2, 0, 0]])
        mask = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0]])
        coeff = Tensor(rng.normal(size=(2, 3)))

        def fn():
            return (bag(indices, mask) * coeff).sum()

        check_gradients(fn, [bag.embedding.weight])
