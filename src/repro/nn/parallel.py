"""Multi-process data-parallel training.

The numpy autograd engine is single-threaded by construction (see
``docs/thread_hostility.md``: tape state and the metrics registry are
process-ambient), so scaling out means *processes*, not threads.  This
module implements a synchronous worker-pool trainer:

* **Shared parameter slab** — every model parameter is re-bound onto a
  view of one named ``SharedMemory`` block.  Fork workers inherit the
  mapping; spawn workers attach by name.  The parent's optimizer updates
  parameters *in place* (the optimizers already do), so workers observe
  each step the moment it lands — which is what preserves the ATNN
  alternation semantics: the generator path's forward in a worker sees
  the encoder-path update the parent just applied.
* **Sharded data** — worker ``i`` of ``N`` trains on the strided shard
  ``rows[i::N]`` of the ``InteractionDataset``; a single worker gets the
  full dataset so ``n_workers=1`` reproduces the in-process trainer
  bit for bit.  Workers iterate with ``prefetch=True`` so batch
  assembly overlaps the parent hand-off wait.
* **Synchronous gradient aggregation** — per step, every worker computes
  gradients on its own batch and ships them over a pipe; the parent
  merges them (dense: weighted sum; row-sparse: index-union merge of
  :class:`~repro.nn.sparse.SparseGrad`, never densified), installs the
  merged gradients on the shared parameters, clips, and applies one
  optimizer step.
* **Worker telemetry** — when a spool directory is configured each
  worker runs its own :class:`~repro.obs.metrics.MetricsRegistry` and
  ships frames via :class:`~repro.obs.agg.TelemetryShipper`, so the
  PR-9 collector merges a training fleet exactly like a serving fleet.

The protocol is deliberately lock-step (the parent broadcasts one
message, then waits for every worker's reply) — simple to reason about,
deterministic under fixed seeds, and all the paper-scale models are far
from saturating it.
"""

from __future__ import annotations

import math
import multiprocessing as mp
import time
import traceback
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.dataset import Batch, InteractionDataset
from repro.nn.losses import (
    binary_cross_entropy,
    mean_squared_error,
    similarity_loss,
)
from repro.nn.sparse import SparseGrad
from repro.nn.tensor import Tensor, no_grad

__all__ = [
    "WorkerError",
    "TwoTowerStepProgram",
    "ATNNStepProgram",
    "MultiTaskStepProgram",
    "ParameterSlab",
    "WorkerPool",
    "default_start_method",
]


class WorkerError(RuntimeError):
    """A worker process failed; carries the worker's traceback text."""


def default_start_method() -> str:
    """``fork`` where available (cheap, inherits the slab), else ``spawn``."""
    return "fork" if "fork" in mp.get_all_start_methods() else "spawn"


# ----------------------------------------------------------------------
# Step programs: the picklable per-batch recipe each worker executes
# ----------------------------------------------------------------------
class TwoTowerStepProgram:
    """One path: binary cross-entropy on the click label."""

    def __init__(self, label: str = "ctr") -> None:
        self.label = label

    def paths(self) -> Tuple[str, ...]:
        return ("encoder",)

    def loss(self, model, batch: Batch, path: str):
        probabilities = model(batch.features)
        loss = binary_cross_entropy(probabilities, batch.label(self.label))
        return loss, {"loss": float(loss.item())}


class ATNNStepProgram:
    """Algorithm 1's alternation: encoder ``L_i``, then ``L_g + λ·L_s``.

    The generator path recomputes the detached encoder targets at step
    time, so (like the in-process trainer) it distils against the
    encoder weights *after* the encoder-path update — the parent applies
    that update to the shared slab before broadcasting this path.
    """

    def __init__(self, label: str = "ctr", lambda_similarity: float = 0.1) -> None:
        self.label = label
        self.lambda_similarity = lambda_similarity

    def paths(self) -> Tuple[str, ...]:
        return ("encoder", "generator")

    def loss(self, model, batch: Batch, path: str):
        targets = batch.label(self.label)
        if path == "encoder":
            probabilities = model(batch.features)
            loss = binary_cross_entropy(probabilities, targets)
            return loss, {"loss_i": float(loss.item())}
        with no_grad():
            encoder_targets = model.encoded_item_vectors(batch.features)
        generated = model.generated_item_vectors(batch.features)
        user_vectors = model.user_vectors(batch.features)
        probabilities = model.scoring_head(generated, user_vectors)
        loss_g = binary_cross_entropy(probabilities, targets)
        loss_s = similarity_loss(generated, Tensor(encoder_targets.data))
        combined = loss_g + self.lambda_similarity * loss_s
        return combined, {
            "loss_g": float(loss_g.item()),
            "loss_s": float(loss_s.item()),
        }


class MultiTaskStepProgram:
    """Algorithm 2's alternation with ``L^GMV + λ₁·L^VpPV`` on each path."""

    def __init__(
        self,
        lambda_vppv: float = 100.0,
        lambda_similarity: float = 10.0,
        adversarial: bool = True,
    ) -> None:
        self.lambda_vppv = lambda_vppv
        self.lambda_similarity = lambda_similarity
        self.adversarial = adversarial

    def paths(self) -> Tuple[str, ...]:
        return ("encoder", "generator") if self.adversarial else ("encoder",)

    def _task_loss(self, model, batch: Batch, item_vectors):
        group_vectors = model.group_vectors(batch.features)
        gmv_prediction = model.gmv_head(item_vectors, group_vectors)
        vppv_prediction = model.vppv_head(item_vectors, group_vectors)
        return mean_squared_error(
            gmv_prediction, batch.label("gmv")
        ) + self.lambda_vppv * mean_squared_error(
            vppv_prediction, batch.label("vppv")
        )

    def loss(self, model, batch: Batch, path: str):
        if path == "encoder":
            item_vectors = model.encoded_item_vectors(batch.features)
            loss = self._task_loss(model, batch, item_vectors)
            return loss, {"loss_r": float(loss.item())}
        with no_grad():
            encoder_targets = model.encoded_item_vectors(batch.features)
        generated = model.generated_item_vectors(batch.features)
        loss_g = self._task_loss(model, batch, generated)
        loss_s = similarity_loss(generated, Tensor(encoder_targets.data))
        combined = loss_g + self.lambda_similarity * loss_s
        return combined, {
            "loss_g": float(loss_g.item()),
            "loss_s": float(loss_s.item()),
        }


# ----------------------------------------------------------------------
# Shared parameter slab
# ----------------------------------------------------------------------
_SLAB_ALIGN = 64  # cache-line alignment between parameter segments


class ParameterSlab:
    """All model parameters re-bound onto one shared-memory block.

    The parent creates the slab and copies every parameter in; from then
    on ``param.data`` *is* the shared view, so the optimizers' in-place
    updates are immediately visible to every attached process.
    :meth:`release` copies the weights back into private arrays and
    destroys the block, leaving the model usable after pool teardown.
    """

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        layout: List[Tuple[int, Tuple[int, ...], str]],
        parameters: List,
    ) -> None:
        self.shm = shm
        self.layout = layout
        self.parameters = parameters

    @classmethod
    def create(cls, parameters: Sequence) -> "ParameterSlab":
        parameters = list(parameters)
        layout: List[Tuple[int, Tuple[int, ...], str]] = []
        offset = 0
        for param in parameters:
            data = np.ascontiguousarray(param.data)
            layout.append((offset, tuple(data.shape), data.dtype.str))
            offset += data.nbytes
            offset = (offset + _SLAB_ALIGN - 1) & ~(_SLAB_ALIGN - 1)
        shm = shared_memory.SharedMemory(create=True, size=max(offset, 1))
        slab = cls(shm, layout, parameters)
        for param, (start, shape, dtype) in zip(parameters, layout):
            view = np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf, offset=start)
            np.copyto(view, param.data)
            param.data = view  # repro-lint: disable=ATN001 -- storage rebind onto the slab, version bumped below
            param.bump_version()
        return slab

    @property
    def name(self) -> str:
        return self.shm.name

    def release(self) -> None:
        """Rebind parameters to private copies, then destroy the block."""
        for param, (start, shape, dtype) in zip(self.parameters, self.layout):
            param.data = np.array(param.data, copy=True)  # repro-lint: disable=ATN001 -- storage rebind off the dying slab, version bumped below
            param.bump_version()
        self.parameters = []
        self.shm.close()
        try:
            self.shm.unlink()
        except FileNotFoundError:
            pass


def _attach_parameters(model, shm_name: str, layout) -> shared_memory.SharedMemory:
    """Rebind a (spawned) worker's parameters onto the parent's slab.

    Python 3.11's ``SharedMemory`` has no ``track=`` parameter, so this
    attach re-registers the name with the (family-shared) resource
    tracker.  That is harmless — registration is idempotent set
    insertion, and the parent's ``unlink()`` unregisters once for
    everyone; unregistering here instead would race between workers.
    """
    shm = shared_memory.SharedMemory(name=shm_name)
    for param, (start, shape, dtype) in zip(model.parameters(), layout):
        view = np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf, offset=start)
        param.data = view  # repro-lint: disable=ATN001 -- storage rebind onto the parent's slab, version bumped below
        param.bump_version()
    return shm


# ----------------------------------------------------------------------
# Gradient wire encoding and merge
# ----------------------------------------------------------------------
def _encode_grad(grad):
    if grad is None:
        return None
    if isinstance(grad, SparseGrad):
        compacted = grad.compact()
        return ("s", compacted.shape, compacted.indices, compacted.rows)
    return ("d", np.ascontiguousarray(grad))


def _decode_grad(encoded, weight: float):
    if encoded[0] == "d":
        dense = encoded[1]
        if weight != 1.0:
            dense = dense * weight
        return dense
    _, shape, indices, rows = encoded
    if weight != 1.0:
        rows = rows * weight
    return SparseGrad(shape, indices, rows, compacted=True)

def _accumulate_grad(total, grad):
    """Merge one decoded gradient into the running total (both owned)."""
    if total is None:
        return grad
    if isinstance(total, SparseGrad):
        if isinstance(grad, SparseGrad):
            return total.merge(grad)  # index-union, dedup deferred
        return total.add_into(grad)
    if isinstance(grad, SparseGrad):
        return grad.add_into(total)
    total += grad
    return total


def merge_worker_grads(encoded_per_worker: Sequence, weight: float):
    """Weighted merge of one parameter's gradients across workers.

    ``weight`` scales each worker's contribution (``1/N`` for equal full
    batches; exactly ``1.0`` — no scaling, bit-for-bit — for a single
    worker).  Dense gradients sum in place over the wire copies;
    row-sparse gradients stay sparse via index-union
    :meth:`SparseGrad.merge`.
    """
    total = None
    for encoded in encoded_per_worker:
        if encoded is None:
            continue
        total = _accumulate_grad(total, _decode_grad(encoded, weight))
    if isinstance(total, SparseGrad):
        total.compact()
    return total


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------
@dataclass
class _WorkerInit:
    """Everything a worker needs; picklable for the spawn start method."""

    worker_id: int
    n_workers: int
    model: Any
    program: Any
    dataset: InteractionDataset
    batch_size: int
    seed: int
    drop_last: bool
    prefetch: bool
    attach_shm: Optional[str]  # slab name; None under fork (inherited)
    layout: Any
    spool_dir: Optional[str]
    process_label: str
    flush_interval: float


def _worker_main(conn, init: _WorkerInit) -> None:
    """Lock-step worker loop: recv one message, reply once, repeat."""
    import contextlib

    shm = None  # kept alive for the process lifetime
    stack = contextlib.ExitStack()
    try:
        if init.attach_shm is not None:
            shm = _attach_parameters(init.model, init.attach_shm, init.layout)
        model = init.model
        model.train()
        parameters = list(model.parameters())
        rng = np.random.default_rng(init.seed)
        registry = None
        shipper = None
        if init.spool_dir is not None:
            from repro.obs.agg import TelemetryShipper
            from repro.obs.metrics import MetricsRegistry, use_registry

            registry = MetricsRegistry()
            stack.enter_context(use_registry(registry))
            registry.gauge(
                "parallel.worker.id", help="data-parallel worker index"
            ).set(init.worker_id)
            shipper = TelemetryShipper(
                init.spool_dir,
                process_label=init.process_label,
                interval_seconds=init.flush_interval,
                registry=registry,
            )
        batches = None
        batch: Optional[Batch] = None
        while True:
            message = conn.recv()
            kind = message[0]
            if kind == "epoch":
                batches = init.dataset.iter_batches(
                    init.batch_size,
                    rng=rng,
                    drop_last=init.drop_last,
                    prefetch=init.prefetch,
                )
                conn.send(("ok",))
            elif kind == "step":
                _, path, advance = message
                started = time.perf_counter()
                if advance:
                    batch = next(batches)
                for param in parameters:
                    param.grad = None
                loss, logs = init.program.loss(model, batch, path)
                value = float(loss.item())
                loss.backward()
                encoded = [_encode_grad(param.grad) for param in parameters]
                conn.send(("grads", value, logs, encoded))
                # The reply is fully pickled before send returns, so the
                # gradient buffers can be dropped before the next step.
                for param in parameters:
                    param.grad = None
                if registry is not None:
                    registry.counter(
                        "parallel.worker.steps",
                        help="gradient steps computed by this worker",
                    ).inc()
                    registry.histogram(
                        "parallel.worker.step_seconds",
                        help="per-step compute time in this worker",
                    ).observe(time.perf_counter() - started)
                if shipper is not None:
                    shipper.maybe_flush()
            elif kind == "stop":
                if shipper is not None:
                    shipper.flush()
                conn.send(("bye",))
                return
            else:  # pragma: no cover - protocol bug
                raise RuntimeError(f"unknown message kind {kind!r}")
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        except Exception:
            pass
    finally:
        stack.close()
        if shm is not None:
            # Views into the slab die with the process; closing here would
            # raise BufferError while they are still alive.
            pass


# ----------------------------------------------------------------------
# Parent-side pool
# ----------------------------------------------------------------------
class WorkerPool:
    """Synchronous data-parallel worker pool over a shared parameter slab.

    Parameters
    ----------
    model:
        Model whose parameters will be re-bound onto the slab (in place).
    program:
        A picklable step program (``paths()`` + ``loss(model, batch,
        path)``), e.g. :class:`ATNNStepProgram`.
    dataset:
        Training interactions; worker ``i`` trains on ``rows[i::N]``.
    n_workers:
        Pool size.  ``1`` keeps the full dataset on the single worker
        (no rows dropped) so the run is bit-for-bit identical to the
        in-process trainer; ``N > 1`` shards with ``drop_last`` so every
        step aggregates ``N`` equal-sized batches.
    batch_size, seed:
        Per-worker batch size and the shared shuffle seed.
    start_method:
        ``"fork"`` (default where available) or ``"spawn"``.
    spool_dir:
        When set, workers ship telemetry frames here (one
        ``<label>-w<i>.jsonl`` spool per worker).
    shard_label:
        Prefix for worker spool labels; defaults to ``"train"``.
    prefetch:
        Double-buffer batch assembly in the workers (on by default).

    Usage: ``begin_epoch()`` once per epoch, then ``steps_per_epoch``
    rounds of ``step(path, advance=...)`` per program path; each round
    leaves merged gradients on the parameters for the caller to clip and
    apply.  Call :meth:`close` (or use as a context manager) to tear
    down — it restores private parameter storage.
    """

    def __init__(
        self,
        model,
        program,
        dataset: InteractionDataset,
        *,
        n_workers: int,
        batch_size: int,
        seed: int = 0,
        start_method: Optional[str] = None,
        spool_dir=None,
        shard_label: Optional[str] = None,
        prefetch: bool = True,
        flush_interval: float = 2.0,
    ) -> None:
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        n = len(dataset)
        if n == 0:
            raise ValueError("dataset is empty")
        self.model = model
        self.program = program
        self.n_workers = n_workers
        self.batch_size = batch_size
        self.parameters = list(model.parameters())
        self.weight = 1.0 if n_workers == 1 else 1.0 / n_workers
        if n_workers == 1:
            shards = [dataset]
            self.steps_per_epoch = math.ceil(n / batch_size)
            drop_last = False
        else:
            shards = [
                dataset.subset(np.arange(i, n, n_workers)) for i in range(n_workers)
            ]
            self.steps_per_epoch = min(len(s) // batch_size for s in shards)
            drop_last = True
            if self.steps_per_epoch == 0:
                raise ValueError(
                    f"dataset of {n} rows is too small for {n_workers} workers "
                    f"x batch_size {batch_size}"
                )
        method = start_method or default_start_method()
        context = mp.get_context(method)
        self._slab = ParameterSlab.create(self.parameters)
        label = shard_label or "train"
        self._conns = []
        self._processes = []
        try:
            for worker_id, shard in enumerate(shards):
                parent_conn, child_conn = context.Pipe()
                init = _WorkerInit(
                    worker_id=worker_id,
                    n_workers=n_workers,
                    model=model,
                    program=program,
                    dataset=shard,
                    batch_size=batch_size,
                    seed=seed,
                    drop_last=drop_last,
                    prefetch=prefetch,
                    attach_shm=None if method == "fork" else self._slab.name,
                    layout=self._slab.layout,
                    spool_dir=str(spool_dir) if spool_dir is not None else None,
                    process_label=f"{label}-w{worker_id}",
                    flush_interval=flush_interval,
                )
                process = context.Process(
                    target=_worker_main,
                    args=(child_conn, init),
                    daemon=True,
                    name=f"repro-train-w{worker_id}",
                )
                process.start()
                child_conn.close()
                self._conns.append(parent_conn)
                self._processes.append(process)
        except Exception:
            self.close()
            raise
        self._publish_gauge()

    # ------------------------------------------------------------------
    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, exc_type, exc_value, tb) -> None:
        self.close()

    def _publish_gauge(self) -> None:
        from repro.obs.metrics import get_active_registry

        registry = get_active_registry()
        if registry is not None:
            registry.gauge(
                "parallel.workers", help="data-parallel worker pool size"
            ).set(self.n_workers)

    def _recv(self, worker_id: int):
        conn = self._conns[worker_id]
        process = self._processes[worker_id]
        while not conn.poll(0.2):
            if not process.is_alive():
                raise WorkerError(
                    f"worker {worker_id} (pid {process.pid}) died without "
                    f"replying, exit code {process.exitcode}"
                )
        try:
            reply = conn.recv()
        except EOFError as error:
            raise WorkerError(
                f"worker {worker_id} closed its pipe mid-protocol"
            ) from error
        if reply[0] == "error":
            raise WorkerError(f"worker {worker_id} failed:\n{reply[1]}")
        return reply

    def begin_epoch(self) -> None:
        """Start a fresh (re-shuffled) epoch on every worker."""
        for conn in self._conns:
            conn.send(("epoch",))
        for worker_id in range(self.n_workers):
            self._recv(worker_id)

    def step(self, path: str, advance: bool) -> Tuple[float, Dict[str, float]]:
        """Run one synchronous gradient step on every worker.

        Broadcasts ``(path, advance)``, waits for every worker's
        gradients, merges them onto ``model``'s parameters (``.grad``),
        and returns the worker-averaged loss value and log dict.  The
        caller owns clipping and the optimizer step.
        """
        started = time.perf_counter()
        for conn in self._conns:
            conn.send(("step", path, advance))
        replies = [self._recv(worker_id) for worker_id in range(self.n_workers)]
        loss_value = float(np.mean([reply[1] for reply in replies]))
        logs: Dict[str, float] = {}
        for key in replies[0][2]:
            logs[key] = float(np.mean([reply[2][key] for reply in replies]))
        for position, param in enumerate(self.parameters):
            encoded = [reply[3][position] for reply in replies]
            param.grad = merge_worker_grads(encoded, self.weight)
        from repro.obs.metrics import get_active_registry

        registry = get_active_registry()
        if registry is not None:
            registry.counter(
                "parallel.steps", help="aggregated data-parallel steps"
            ).inc()
            registry.histogram(
                "parallel.step_seconds",
                help="wall time per aggregated step (compute + merge)",
            ).observe(time.perf_counter() - started)
        return loss_value, logs

    def close(self) -> None:
        """Stop workers and restore private parameter storage."""
        for conn in self._conns:
            try:
                conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for conn in self._conns:
            try:
                if conn.poll(5.0):
                    conn.recv()
            except (EOFError, OSError):
                pass
            finally:
                conn.close()
        for process in self._processes:
            process.join(timeout=5.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=5.0)
        self._conns = []
        self._processes = []
        if self._slab is not None:
            self._slab.release()
            self._slab = None
