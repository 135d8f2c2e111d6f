"""The engine-aware lint rules (codes ``ATN001``–``ATN005``).

Each rule encodes one invariant of this repo's autograd engine — they are
not generic style checks.  ``ATN000`` (suppression without a reason) is
emitted by the engine itself in :mod:`repro.analysis.lint.engine`.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Tuple

import numpy as np

from repro.analysis.lint.engine import Finding, LintRule
from repro.nn.sparse import SparseGrad

__all__ = [
    "TensorDataMutationRule",
    "Float64LiteralRule",
    "DenseScatterAddRule",
    "SparseGradDuckTypingRule",
    "GlobalRngRule",
    "default_rules",
]


def _matches_path(relpath: str, fragments: Tuple[str, ...]) -> bool:
    return any(fragment in relpath for fragment in fragments)


def _is_np_attr(node: ast.AST, *chain: str) -> bool:
    """Whether ``node`` is ``np.<chain>`` / ``numpy.<chain>``."""
    for attr in reversed(chain):
        if not isinstance(node, ast.Attribute) or node.attr != attr:
            return False
        node = node.value
    return isinstance(node, ast.Name) and node.id in ("np", "numpy")


class TensorDataMutationRule(LintRule):
    """ATN001: no raw writes to ``tensor.data`` outside the engine.

    Raw ``x.data[...] = ...`` / ``x.data += ...`` bypasses the version
    counter the runtime sanitizer relies on, so a buffer saved for
    backward can go stale invisibly.  Model and experiment code must use
    ``Tensor.assign_`` (or optimizer steps), which bump the version.
    The engine modules that *implement* those sanctioned channels are
    exempt.
    """

    code = "ATN001"
    name = "tensor-data-mutation"
    description = "raw mutation of Tensor.data outside whitelisted engine modules"

    _EXEMPT = (
        "repro/nn/tensor.py",
        "repro/nn/module.py",
        "repro/nn/optim/",
        "repro/nn/gradcheck.py",
    )

    def applies_to(self, relpath: str) -> bool:
        return not _matches_path(relpath, self._EXEMPT)

    @staticmethod
    def _is_data_target(node: ast.AST) -> bool:
        if isinstance(node, ast.Attribute) and node.attr == "data":
            return True
        if isinstance(node, ast.Subscript):
            value = node.value
            return isinstance(value, ast.Attribute) and value.attr == "data"
        return False

    def run(self, tree: ast.AST, relpath: str) -> Iterator[Finding]:
        message = (
            "raw mutation of a .data buffer bypasses the engine's version "
            "tracking; use Tensor.assign_(...) or an optimizer step"
        )
        for node in ast.walk(tree):
            targets: List[ast.AST] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, ast.AugAssign):
                targets = [node.target]
            for target in targets:
                if self._is_data_target(target):
                    yield Finding(self.code, node.lineno, node.col_offset, message)


class Float64LiteralRule(LintRule):
    """ATN002: no ``np.float64`` literals in dtype-configurable paths.

    The engine has a configurable default dtype
    (:func:`repro.nn.tensor.set_default_dtype`); a hard-coded
    ``np.float64`` silently promotes every downstream op in float32 mode
    and doubles its memory traffic.  Scoped to the engine/model layers;
    ``tensor.py`` itself (which defines the default) is exempt.
    """

    code = "ATN002"
    name = "float64-literal"
    description = "np.float64 literal in a dtype-configurable code path"

    _SCOPE = (
        "repro/nn/",
        "repro/core/",
        "repro/baselines/",
        "repro/retrieval/",
        "benchmarks/",
    )
    _EXEMPT = ("repro/nn/tensor.py",)

    def applies_to(self, relpath: str) -> bool:
        return _matches_path(relpath, self._SCOPE) and not _matches_path(
            relpath, self._EXEMPT
        )

    def run(self, tree: ast.AST, relpath: str) -> Iterator[Finding]:
        message = (
            "hard-coded np.float64 defeats the engine's configurable dtype; "
            "use repro.nn.tensor.get_default_dtype()"
        )
        for node in ast.walk(tree):
            if _is_np_attr(node, "float64"):
                yield Finding(self.code, node.lineno, node.col_offset, message)


class DenseScatterAddRule(LintRule):
    """ATN003: no ``np.add.at`` scatter-adds outside the engine.

    ``np.add.at`` is an order of magnitude slower than the engine's
    sort/segment-sum kernel and materialises dense embedding-table
    gradients; the one sanctioned use is the legacy dense fallback inside
    ``tensor.py``.  Everything else should route through
    :class:`repro.nn.sparse.SparseGrad`.
    """

    code = "ATN003"
    name = "dense-scatter-add"
    description = "np.add.at scatter-add outside the engine's dense fallback"

    _EXEMPT = ("repro/nn/tensor.py",)

    def applies_to(self, relpath: str) -> bool:
        return not _matches_path(relpath, self._EXEMPT)

    def run(self, tree: ast.AST, relpath: str) -> Iterator[Finding]:
        message = (
            "np.add.at materialises dense scatter updates; use the "
            "SparseGrad segment-sum path (SparseGrad.from_rows / add_into)"
        )
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _is_np_attr(node.func, "add", "at"):
                yield Finding(self.code, node.lineno, node.col_offset, message)


def _grad_attr_partition() -> Tuple[frozenset, frozenset]:
    """Public attrs on exactly one of ``np.ndarray`` / ``SparseGrad``.

    Computed from the live classes, so the rule tracks the engine: adding
    a method to ``SparseGrad`` automatically unflags it.
    """
    ndarray_attrs = {a for a in dir(np.ndarray) if not a.startswith("_")}
    sparse_attrs = {a for a in dir(SparseGrad) if not a.startswith("_")}
    return (
        frozenset(ndarray_attrs - sparse_attrs),
        frozenset(sparse_attrs - ndarray_attrs),
    )


class SparseGradDuckTypingRule(LintRule):
    """ATN004: ``.grad`` consumers must stick to the shared ndarray/SparseGrad API.

    A parameter's ``.grad`` is an ``np.ndarray`` *or* a
    :class:`~repro.nn.sparse.SparseGrad` depending on the layer and the
    sparse-grads switch.  Accessing an attribute that exists on only one
    of the two (``.astype`` is dense-only, ``.nnz_rows`` sparse-only) is a
    latent crash on the other path; the engine internals that branch on
    ``isinstance`` first are exempt.
    """

    code = "ATN004"
    name = "sparse-grad-duck-typing"
    description = "attribute on .grad that only one gradient representation has"

    _EXEMPT = ("repro/nn/",)

    def __init__(self) -> None:
        self._dense_only, self._sparse_only = _grad_attr_partition()

    def applies_to(self, relpath: str) -> bool:
        return not _matches_path(relpath, self._EXEMPT)

    def run(self, tree: ast.AST, relpath: str) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Attribute)
                and node.value.attr == "grad"
            ):
                continue
            if node.attr in self._dense_only:
                which = "np.ndarray"
            elif node.attr in self._sparse_only:
                which = "SparseGrad"
            else:
                continue
            yield Finding(
                self.code,
                node.lineno,
                node.col_offset,
                f".grad.{node.attr} exists only on {which}; .grad may be a "
                "dense array or a SparseGrad — guard with isinstance or use "
                "the shared API (dtype/ndim/size/sum/__array__)",
            )


class GlobalRngRule(LintRule):
    """ATN005: no sampling through numpy's process-global RNG.

    ``np.random.rand`` / ``np.random.seed`` and friends share one hidden
    RNG across the whole process, so test order and benchmark warm-up
    change results invisibly.  Everything must thread an explicit
    ``np.random.default_rng(seed)`` generator — that is what keeps
    tier-1 and bench-smoke runs reproducible.
    """

    code = "ATN005"
    name = "global-rng"
    description = "call through numpy's process-global RNG instead of default_rng"

    _ALLOWED = ("default_rng", "Generator", "SeedSequence")

    def run(self, tree: ast.AST, relpath: str) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (
                isinstance(func, ast.Attribute)
                and func.attr not in self._ALLOWED
                and _is_np_attr(func.value, "random")
            ):
                continue
            yield Finding(
                self.code,
                node.lineno,
                node.col_offset,
                f"np.random.{func.attr} uses the shared process-global RNG; "
                "thread a seeded np.random.default_rng(seed) generator "
                "instead",
            )


def default_rules() -> List[LintRule]:
    """The rule set ``python -m repro.analysis lint`` runs."""
    return [
        TensorDataMutationRule(),
        Float64LiteralRule(),
        DenseScatterAddRule(),
        SparseGradDuckTypingRule(),
        GlobalRngRule(),
    ]
