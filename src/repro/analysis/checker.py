"""Static graph checker: shape/dtype inference over abstract batches.

The checker runs a model's forward paths on *abstract* inputs — synthetic
feature columns drawn from the model's :class:`FeatureSchema` at two
co-prime batch sizes — and aligns the two traces to recover symbolic
shapes (``(B, 32)`` instead of ``(7, 32)``).  Anything that does not
scale with the batch the way it should is reported as a
:class:`~repro.analysis.diagnostics.Diagnostic`:

* ``shape-error`` — an op raised during tracing (mismatched widths,
  bad matmul operands); the diagnostic names the deepest module that was
  executing.
* ``dtype-promotion`` — an op consumed mixed float32/float64 inputs, or
  silently widened its output dtype; the classic way a float32 run
  quietly pays float64 memory traffic.
* ``batch-broadcast-blowup`` — an op output carries more batch-sized
  axes than any input, the ``(B,) + (B,1) -> (B, B)`` accident.
* ``detached-subgraph`` — a gradient-requiring op output is unreachable
  from the path's final output: computed, differentiable, and thrown
  away.
* ``grad-less-parameter`` — a registered parameter is unreachable from
  *every* traced path, so no optimizer step can ever touch it.

Tracing patches the ops through the profiler's and sanitizer's
:class:`~repro.obs.autograd.OpPatcher`, plus a ``Module.__call__`` hook
that maintains the dotted module path so findings point at
``item_encoder.head.layers.2`` rather than a bare op name.

Entry points: :func:`check_model` for one model and
``python -m repro.analysis check-model`` for the whole registry.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.analysis.diagnostics import ERROR, WARNING, Diagnostic, has_errors
from repro.data.schema import (
    GROUP_ITEM_PROFILE,
    GROUP_ITEM_STAT,
    GROUP_USER,
    CategoricalFeature,
    FeatureSchema,
    NumericFeature,
    SequenceFeature,
)
from repro.nn.module import Module
from repro.nn.tensor import Tensor, get_default_dtype
from repro.obs.autograd import OpPatcher, _tensor_args

__all__ = [
    "OpRecord",
    "PathSpec",
    "GraphTracer",
    "CheckReport",
    "check_model",
    "default_paths",
    "schema_inputs",
    "demo_schema",
]

# The two abstract batch sizes.  Co-prime and larger than any plausible
# feature width multiplier, so a dimension equals both only if it is the
# batch dimension (and equals ``k*B`` in both runs only if it genuinely
# scales with the batch).
ABSTRACT_BATCH_SIZES: Tuple[int, int] = (7, 13)


@dataclass(frozen=True)
class OpRecord:
    """One traced autograd op."""

    op: str
    module_path: str
    out: Tensor
    input_shapes: Tuple[Tuple[int, ...], ...]
    input_dtypes: Tuple[str, ...]

    @property
    def out_shape(self) -> Tuple[int, ...]:
        return tuple(self.out.shape)

    @property
    def out_dtype(self) -> str:
        return str(self.out.dtype)

    @property
    def location(self) -> str:
        return f"{self.module_path or '<root>'}::{self.op}"


@dataclass(frozen=True)
class PathSpec:
    """A named forward path of a model (e.g. the generator path)."""

    name: str
    run: Callable[[Module, Dict[str, np.ndarray]], Tensor]


class GraphTracer(OpPatcher):
    """Records every autograd op and the module that issued it."""

    def __init__(self, module_names: Optional[Dict[int, str]] = None) -> None:
        self.records: List[OpRecord] = []
        self.module_names = module_names or {}
        self.module_stack: List[str] = []
        self.error_path: Optional[str] = None
        self._call_original = None

    # ------------------------------------------------------------------
    def _wrap(self, label: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inputs = _tensor_args(args)
            out = fn(*args, **kwargs)
            if isinstance(out, Tensor):
                tracer.records.append(
                    OpRecord(
                        op=label,
                        module_path=(
                            tracer.module_stack[-1] if tracer.module_stack else ""
                        ),
                        out=out,
                        input_shapes=tuple(tuple(t.shape) for t in inputs),
                        input_dtypes=tuple(str(t.dtype) for t in inputs),
                    )
                )
            return out

        return wrapper

    def _wrap_call(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(module, *args, **kwargs):
            name = tracer.module_names.get(id(module), type(module).__name__)
            tracer.module_stack.append(name)
            try:
                return fn(module, *args, **kwargs)
            except Exception:
                # Remember the *deepest* module that failed: the first
                # wrapper to see the exception is the innermost call.
                if tracer.error_path is None:
                    tracer.error_path = name
                raise
            finally:
                tracer.module_stack.pop()

        return wrapper

    # ------------------------------------------------------------------
    def enable(self) -> "GraphTracer":
        """Install the op wrappers, then the ``Module.__call__`` hook."""
        if not self.enabled:
            super().enable()
            self._call_original = Module.__dict__["__call__"]
            Module.__call__ = self._wrap_call(self._call_original)
        return self

    def disable(self) -> None:
        """Remove both (idempotent)."""
        if self.enabled:
            super().disable()
            Module.__call__ = self._call_original
            self._call_original = None


# ----------------------------------------------------------------------
# Abstract inputs
# ----------------------------------------------------------------------
def schema_inputs(
    schema: FeatureSchema,
    batch_size: int,
    rng: Optional[np.random.Generator] = None,
) -> Dict[str, np.ndarray]:
    """Synthetic feature columns for every column the schema declares.

    Categorical ids are drawn uniformly from each vocabulary, numerics
    from a unit normal in the engine's default dtype, and sequence
    features get padded id matrices with a validity mask whose first slot
    is always on (so mean-pooling never divides by zero).
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    dtype = get_default_dtype()
    features: Dict[str, np.ndarray] = {}
    for feature in schema.categorical:
        features[feature.name] = rng.integers(
            0, feature.vocab_size, size=batch_size, dtype=np.int64
        )
    for feature in schema.numeric:
        features[feature.name] = rng.standard_normal(batch_size).astype(dtype)
    for feature in schema.sequence:
        features[feature.name] = rng.integers(
            0, feature.vocab_size, size=(batch_size, feature.max_len), dtype=np.int64
        )
        mask = (rng.random((batch_size, feature.max_len)) < 0.7).astype(dtype)
        mask[:, 0] = 1.0
        features[feature.mask_name] = mask
    return features


def demo_schema() -> FeatureSchema:
    """A small but structurally complete schema for registry-wide checks.

    Covers every feature kind the towers consume: categoricals, numerics
    and a sequence feature, spread over all three paper groups.
    """
    return FeatureSchema(
        categorical=[
            CategoricalFeature("user_id", 50, 8, GROUP_USER),
            CategoricalFeature("user_segment", 6, 4, GROUP_USER),
            CategoricalFeature("item_category", 12, 6, GROUP_ITEM_PROFILE),
            CategoricalFeature("item_brand", 20, 6, GROUP_ITEM_PROFILE),
        ],
        numeric=[
            NumericFeature("user_activity", GROUP_USER),
            NumericFeature("item_price", GROUP_ITEM_PROFILE),
            NumericFeature("item_ctr_7d", GROUP_ITEM_STAT),
            NumericFeature("item_clicks_7d", GROUP_ITEM_STAT),
        ],
        sequence=[
            SequenceFeature("user_pref_categories", 12, 6, 5, GROUP_USER),
        ],
    )


# ----------------------------------------------------------------------
# Path discovery
# ----------------------------------------------------------------------
def default_paths(model: Module) -> List[PathSpec]:
    """The forward paths to union when checking parameter reachability.

    Adversarial models have a generator path whose parameters never
    appear in plain ``forward``; multi-task models additionally have one
    head per task.  Checking only ``forward`` would flag those parameters
    as grad-less, so the default spec enumerates every training path the
    repo's trainers actually differentiate.
    """
    tasks = getattr(model, "TASKS", None)
    has_generator = hasattr(model, "forward_generator")
    if tasks and has_generator:
        paths = [
            PathSpec(f"forward[{task}]", lambda m, f, t=task: m.forward(f, task=t))
            for task in tasks
        ]
        paths += [
            PathSpec(
                f"forward_generator[{task}]",
                lambda m, f, t=task: m.forward_generator(f, task=t),
            )
            for task in tasks
        ]
        return paths
    paths = [PathSpec("forward", lambda m, f: m.forward(f))]
    if has_generator:
        paths.append(
            PathSpec("forward_generator", lambda m, f: m.forward_generator(f))
        )
    return paths


# ----------------------------------------------------------------------
# Report
# ----------------------------------------------------------------------
@dataclass
class CheckReport:
    """Outcome of :func:`check_model` for one model."""

    model: str
    diagnostics: List[Diagnostic] = field(default_factory=list)
    # Rows: (path, module_path, op, symbolic inputs, symbolic output, dtype)
    shape_table: List[Tuple[str, str, str, str, str, str]] = field(
        default_factory=list
    )

    @property
    def ok(self) -> bool:
        return not has_errors(self.diagnostics)

    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.is_error]

    def format(self, show_table: bool = False) -> str:
        status = "OK" if self.ok else "FAIL"
        lines = [f"check-model {self.model}: {status}"]
        for diagnostic in sorted(self.diagnostics, key=Diagnostic.sort_key):
            lines.append("  " + diagnostic.format())
        if show_table and self.shape_table:
            lines.append(f"  {'path':<24}{'module::op':<44}{'in -> out':<36}dtype")
            for path, module, op, sym_in, sym_out, dtype in self.shape_table:
                where = f"{module or '<root>'}::{op}"
                lines.append(
                    f"  {path:<24}{where:<44}{sym_in + ' -> ' + sym_out:<36}{dtype}"
                )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Shape symbolization
# ----------------------------------------------------------------------
def _symbolize_dim(d1: int, d2: int, b1: int, b2: int) -> str:
    if d1 == d2:
        return str(d1)
    if d1 % b1 == 0 and d2 % b2 == 0 and d1 // b1 == d2 // b2:
        k = d1 // b1
        return "B" if k == 1 else f"{k}B"
    return "?"


def _symbolize_shape(
    s1: Tuple[int, ...], s2: Tuple[int, ...], b1: int, b2: int
) -> str:
    if len(s1) != len(s2):
        return str(s1)
    return "(" + ", ".join(_symbolize_dim(a, b, b1, b2) for a, b in zip(s1, s2)) + ")"


def _batch_dim_count(shape: Tuple[int, ...], batch: int) -> int:
    return sum(1 for d in shape if d == batch)


def _reachable_ids(root: Tensor) -> Set[int]:
    """Ids of every tensor reachable from ``root`` via parent links."""
    seen: Set[int] = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(node._parents)
    return seen


_FLOAT_DTYPES = ("float32", "float64")


def _float_dtypes(dtypes: Sequence[str]) -> List[str]:
    return [d for d in dtypes if d in _FLOAT_DTYPES]


# ----------------------------------------------------------------------
# The checker
# ----------------------------------------------------------------------
def check_model(
    model: Module,
    schema: FeatureSchema,
    paths: Optional[Sequence[PathSpec]] = None,
    batch_sizes: Tuple[int, int] = ABSTRACT_BATCH_SIZES,
    seed: int = 0,
    model_name: Optional[str] = None,
) -> CheckReport:
    """Trace every forward path of ``model`` and report graph defects.

    The model is put in eval mode for the duration (dropout off, so the
    two abstract traces align op-for-op) and restored afterwards.
    Parameters must require gradients for reachability analysis, which
    :class:`~repro.nn.module.Parameter` guarantees.
    """
    b1, b2 = batch_sizes
    if b1 == b2:
        raise ValueError("batch_sizes must differ to identify the batch dim")
    report = CheckReport(model=model_name or type(model).__name__)
    path_specs = list(paths) if paths is not None else default_paths(model)

    module_names = {
        id(module): name for name, module in model.named_modules() if name
    }
    param_names: Dict[int, str] = {}
    for name, param in model.named_parameters():
        param_names.setdefault(id(param), name)

    was_training = model.training
    model.eval()
    reachable_param_ids: Set[int] = set()
    try:
        for spec in path_specs:
            traces: List[Optional[Tuple[List[OpRecord], Tensor]]] = []
            for batch in (b1, b2):
                rng = np.random.default_rng(seed + batch)
                features = schema_inputs(schema, batch, rng)
                tracer = GraphTracer(module_names)
                try:
                    with tracer:
                        out = spec.run(model, features)
                except Exception as error:  # noqa: BLE001 - reported, not hidden
                    report.diagnostics.append(
                        Diagnostic.make(
                            "shape-error",
                            ERROR,
                            f"{type(error).__name__}: {error}",
                            location=f"{spec.name}@{tracer.error_path or '<root>'}",
                            batch_size=batch,
                        )
                    )
                    traces.append(None)
                    continue
                traces.append((tracer.records, out))

            trace1 = traces[0]
            if trace1 is None:
                continue
            records, out = trace1
            reachable = _reachable_ids(out)
            reachable_param_ids |= reachable & set(param_names)

            # Per-op structural checks on the first trace.
            for record in records:
                floats = _float_dtypes(record.input_dtypes)
                if len(set(floats)) > 1:
                    report.diagnostics.append(
                        Diagnostic.make(
                            "dtype-promotion",
                            ERROR,
                            "op mixes float32 and float64 inputs; numpy "
                            "promotes the whole computation to float64",
                            location=f"{spec.name}@{record.location}",
                            input_dtypes=",".join(record.input_dtypes),
                        )
                    )
                elif floats and record.out_dtype in _FLOAT_DTYPES and (
                    record.out_dtype != floats[0]
                ):
                    report.diagnostics.append(
                        Diagnostic.make(
                            "dtype-promotion",
                            ERROR,
                            "op widened its output dtype relative to its "
                            "inputs (a float64 constant or literal leaked in)",
                            location=f"{spec.name}@{record.location}",
                            input_dtype=floats[0],
                            output_dtype=record.out_dtype,
                        )
                    )
                out_b = _batch_dim_count(record.out_shape, b1)
                in_b = max(
                    (_batch_dim_count(s, b1) for s in record.input_shapes),
                    default=0,
                )
                # A single new batch axis is a legitimate gather (embedding
                # lookup indexes a (vocab, dim) table with B ids); two or
                # more batch axes in one output is the (B,)+(B,1) -> (B,B)
                # broadcast accident.
                if out_b > max(in_b, 1):
                    report.diagnostics.append(
                        Diagnostic.make(
                            "batch-broadcast-blowup",
                            WARNING,
                            "op output has more batch-sized axes than any "
                            "input; a broadcast likely built a (B, B) matrix",
                            location=f"{spec.name}@{record.location}",
                            input_shapes=str(record.input_shapes),
                            output_shape=str(record.out_shape),
                        )
                    )
                if record.out.requires_grad and id(record.out) not in reachable:
                    report.diagnostics.append(
                        Diagnostic.make(
                            "detached-subgraph",
                            ERROR,
                            "differentiable op output is unreachable from "
                            "the path output: computed and discarded, its "
                            "parameters receive no gradient from this path",
                            location=f"{spec.name}@{record.location}",
                            output_shape=str(record.out_shape),
                        )
                    )

            # Symbolic shape table needs both traces, aligned op-for-op.
            trace2 = traces[1]
            if trace2 is not None:
                records2 = trace2[0]
                if len(records2) == len(records) and all(
                    a.op == b.op for a, b in zip(records, records2)
                ):
                    for rec1, rec2 in zip(records, records2):
                        sym_in = ", ".join(
                            _symbolize_shape(s1, s2, b1, b2)
                            for s1, s2 in zip(rec1.input_shapes, rec2.input_shapes)
                        )
                        sym_out = _symbolize_shape(
                            rec1.out_shape, rec2.out_shape, b1, b2
                        )
                        report.shape_table.append(
                            (
                                spec.name,
                                rec1.module_path,
                                rec1.op,
                                sym_in or "()",
                                sym_out,
                                rec1.out_dtype,
                            )
                        )
    finally:
        model.train(was_training)

    missing = sorted(
        name
        for pid, name in param_names.items()
        if pid not in reachable_param_ids
    )
    for name in missing:
        report.diagnostics.append(
            Diagnostic.make(
                "grad-less-parameter",
                ERROR,
                "parameter is unreachable from every traced forward path; "
                "no optimizer step can ever update it",
                location=name,
                paths=",".join(spec.name for spec in path_specs),
            )
        )
    return report
