"""Maximum-inner-product retrieval over two-tower item embeddings.

The serving engine and the retrieval-training evaluator share this one
subsystem: :class:`BruteForceIndex` is the exactness oracle (a float32
scan, then float64 re-scoring of a certified candidate set),
:class:`IVFIndex` the approximate partitioned index that scales top-k
to million-item catalogues.  See ``docs/retrieval.md`` for the design
and the measured recall/latency trade-off.
"""

from typing import Optional

from repro.retrieval.index import (
    BruteForceIndex,
    MIPSIndex,
    exact_scores,
    recall_at_k,
)
from repro.retrieval.ivf import IVFIndex

__all__ = [
    "MIPSIndex",
    "BruteForceIndex",
    "IVFIndex",
    "exact_scores",
    "make_index",
    "recall_at_k",
]


def make_index(
    kind: str,
    dim: int,
    *,
    nlist: Optional[int] = None,
    nprobe: int = 8,
    expected_size: Optional[int] = None,
    **kwargs,
) -> MIPSIndex:
    """Build a MIPS index by name (``"bruteforce"`` or ``"ivf"``).

    Parameters
    ----------
    kind:
        ``"bruteforce"`` for the exact oracle, ``"ivf"`` for the
        partitioned approximate index.
    dim:
        Embedding dimensionality.
    nlist:
        IVF partition count; when omitted it defaults to
        ``~sqrt(expected_size)`` (the classic IVF sizing rule), or 64
        when no expected size is given either.
    nprobe:
        IVF partitions probed per query.
    expected_size:
        Approximate corpus size, used only to size ``nlist``.
    kwargs:
        Passed through to the index constructor (``dtype``, ``seed``,
        ``imbalance_factor``, ...).
    """
    if kind == "bruteforce":
        if nlist is not None:
            raise ValueError("nlist only applies to the ivf index")
        return BruteForceIndex(dim, **kwargs)
    if kind == "ivf":
        if nlist is None:
            nlist = (
                max(1, int(round(expected_size ** 0.5)))
                if expected_size
                else 64
            )
        return IVFIndex(dim, nlist=nlist, nprobe=nprobe, **kwargs)
    raise ValueError(
        f"unknown index kind {kind!r}; expected 'bruteforce' or 'ivf'"
    )
