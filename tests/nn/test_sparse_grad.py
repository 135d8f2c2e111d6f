"""Tests for the row-sparse embedding-gradient fast path."""

import numpy as np
import pytest

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
