"""Rule packs over propagated effect signatures (codes ``EFF001``–``EFF005``).

Each rule is an invariant the repo's runtime layers depend on but cannot
check themselves:

``EFF001`` view-escape
    A caller mutates the result of a call whose callee returns a view of
    its own parameter or attribute — the write lands in the owner's
    buffer (the feature-store / retrieval aliasing class of bug).
``EFF002`` saved-buffer mutation
    A local captured by a ``backward`` closure is written — directly or
    by a parameter-mutating callee — after the closure is defined.  This
    is the static complement to the runtime GradSanitizer.
``EFF003`` thread-hostility
    A module-global or ambient write is reachable from a
    ``RealTimeEngine`` serving entry point.  Every finding is state that
    concurrent engines in one process would share, unless the baseline
    accepts it; the full set renders as ``docs/thread_hostility.md``.
``EFF004`` ambient-discipline
    The ``_ACTIVE_*`` scope stacks may only be written by their module's
    own scoping constructs (``use_*`` / ``set_active_*`` /
    ``__enter__``/``__exit__``) and only read from other modules through
    the ``get_active_*`` accessors.
``EFF005`` interprocedural dtype promotion
    A function in ATN002's dtype-configurable scope calls an
    out-of-scope helper whose signature carries float64 taint — the
    promotion ATN002 cannot see because the literal lives in the helper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.diagnostics import ERROR, Diagnostic
from repro.analysis.effects.model import EffectAnalysis, FunctionInfo

__all__ = [
    "ENGINE_CLASS",
    "HostileChannel",
    "engine_entry_points",
    "thread_hostility_channels",
    "run_rules",
]

ENGINE_CLASS = "repro.serving.engine.RealTimeEngine"

# ATN002's scope and exemption, reused so the interprocedural extension
# agrees with the per-file rule about where dtype discipline applies.
_DTYPE_SCOPE = (
    "repro/nn/",
    "repro/core/",
    "repro/baselines/",
    "repro/retrieval/",
)
_DTYPE_EXEMPT = ("repro/nn/tensor.py",)


def _in_dtype_scope(relpath: str) -> bool:
    return any(f in relpath for f in _DTYPE_SCOPE) and not any(
        f in relpath for f in _DTYPE_EXEMPT
    )


def _is_backward_closure(name: str) -> bool:
    return "backward" in name


# ----------------------------------------------------------------------
# EFF001 — view-escape
# ----------------------------------------------------------------------
def _view_escape(analysis: EffectAnalysis) -> List[Diagnostic]:
    out: List[Diagnostic] = []
    for qualname, info in analysis.functions.items():
        edges = analysis.calls.get(qualname, [])
        by_site: Dict[int, List[str]] = {}
        for site_index, callee in edges:
            by_site.setdefault(site_index, []).append(callee)
        for site_index, line in info.result_mutations:
            for callee in by_site.get(site_index, ()):
                views = analysis.signatures[callee].returns_views
                if not views:
                    continue
                sources = ", ".join(
                    f"{kind} '{name}'" for kind, name in sorted(views)
                )
                out.append(
                    Diagnostic.make(
                        "EFF001",
                        ERROR,
                        f"mutating the result of {callee}() writes through "
                        f"a view of its {sources}; copy before writing "
                        "(or have the callee return a copy)",
                        location=f"{info.relpath}:{line}",
                        symbol=qualname,
                        channel=callee,
                    )
                )
    return out


# ----------------------------------------------------------------------
# EFF002 — saved-buffer mutation
# ----------------------------------------------------------------------
def _saved_buffer(analysis: EffectAnalysis) -> List[Diagnostic]:
    out: List[Diagnostic] = []
    for qualname, info in analysis.functions.items():
        for closure, def_line, var, line in info.closure_mutations:
            if not _is_backward_closure(closure):
                continue
            out.append(
                Diagnostic.make(
                    "EFF002",
                    ERROR,
                    f"'{var}' is captured by the backward closure "
                    f"'{closure}' (defined at line {def_line}) and mutated "
                    "afterwards; the gradient will read the clobbered "
                    "buffer — save a copy for backward instead",
                    location=f"{info.relpath}:{line}",
                    symbol=qualname,
                    channel=f"{closure}:{var}",
                )
            )
        edges: Dict[int, List[str]] = {}
        for site_index, callee in analysis.calls.get(qualname, []):
            edges.setdefault(site_index, []).append(callee)
        seen: Set[Tuple[str, str, str]] = set()
        for var, closure, site_index in info.closure_escapes:
            if not _is_backward_closure(closure):
                continue
            site = info.call_sites[site_index]
            for callee in edges.get(site_index, ()):
                mutated = analysis.signatures[callee].mutated_params
                if not mutated:
                    continue
                callee_info = analysis.functions[callee]
                hit = _binds_mutated_param(site, var, callee_info, mutated)
                if hit is None:
                    continue
                key = (var, closure, callee)
                if key in seen:
                    continue
                seen.add(key)
                out.append(
                    Diagnostic.make(
                        "EFF002",
                        ERROR,
                        f"'{var}' is captured by the backward closure "
                        f"'{closure}' but later passed to {callee}(), "
                        f"which mutates its parameter '{hit}' in place; "
                        "the saved buffer goes stale — pass a copy",
                        location=f"{info.relpath}:{site.lineno}",
                        symbol=qualname,
                        channel=f"{closure}:{var}->{callee}",
                    )
                )
    return out


def _binds_mutated_param(
    site, var: str, callee_info: FunctionInfo, mutated: Set[str]
) -> Optional[str]:
    """Name of the mutated callee parameter ``var`` binds to, if any."""
    for position, (kind, name) in enumerate(site.args):
        if kind in ("param", "local") and name == var:
            if position < len(callee_info.params):
                param = callee_info.params[position]
                if param in mutated:
                    return param
    for keyword, (kind, name) in site.kwargs:
        if kind in ("param", "local") and name == var and keyword in mutated:
            return keyword
    return None


# ----------------------------------------------------------------------
# EFF003 — thread-hostility
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class HostileChannel:
    """One global/ambient write reachable from serving entry points."""

    kind: str  # "global-write" | "ambient-write" | "global-rng"
    channel: str  # fully qualified global name or ambient channel
    origin: str  # qualname of the function whose local fact introduced it
    line: int  # line of the write inside the origin function
    entries: Tuple[str, ...]  # entry-point method names that reach it
    path: Tuple[str, ...]  # example call path entry -> origin


def engine_entry_points(analysis: EffectAnalysis) -> List[str]:
    """Public ``RealTimeEngine`` methods, as qualnames."""
    cls = analysis.classes.get(ENGINE_CLASS)
    if cls is None:
        return []
    return [
        info.qualname
        for name, info in sorted(cls.methods.items())
        if not name.startswith("_")
    ]


def _origin_line(info: FunctionInfo, kind: str, channel: str) -> int:
    if kind == "global-write":
        return info.global_writes.get(channel, info.lineno)
    if kind == "ambient-write":
        return info.ambient_writes.get(channel, info.lineno)
    return info.rng_global.get(channel, info.lineno)


def thread_hostility_channels(
    analysis: EffectAnalysis,
) -> List[HostileChannel]:
    """Every (channel, origin) pair reachable from engine entry points."""
    entries = engine_entry_points(analysis)
    found: Dict[Tuple[str, str, str], Dict] = {}
    for entry in entries:
        signature = analysis.signatures.get(entry)
        if signature is None:
            continue
        paths = analysis.reachable([entry])
        tables = (
            ("global-write", signature.global_writes),
            ("ambient-write", signature.ambient_writes),
            ("global-rng", signature.rng_global),
        )
        entry_method = entry.rsplit(".", 1)[-1]
        for kind, table in tables:
            for channel, origin in table.items():
                key = (kind, channel, origin)
                record = found.setdefault(
                    key, {"entries": [], "path": paths.get(origin, (entry,))}
                )
                record["entries"].append(entry_method)
    out: List[HostileChannel] = []
    for (kind, channel, origin), record in sorted(found.items()):
        info = analysis.functions[origin]
        out.append(
            HostileChannel(
                kind=kind,
                channel=channel,
                origin=origin,
                line=_origin_line(info, kind, channel),
                entries=tuple(sorted(set(record["entries"]))),
                path=tuple(record["path"]),
            )
        )
    return out


def _thread_hostility(analysis: EffectAnalysis) -> List[Diagnostic]:
    out: List[Diagnostic] = []
    for hostile in thread_hostility_channels(analysis):
        info = analysis.functions[hostile.origin]
        noun = {
            "global-write": "module global",
            "ambient-write": "ambient channel",
            "global-rng": "process-global RNG",
        }[hostile.kind]
        out.append(
            Diagnostic.make(
                "EFF003",
                ERROR,
                f"write to {noun} '{hostile.channel}' is reachable from "
                f"RealTimeEngine.{'/'.join(hostile.entries)}; engines "
                "cannot run concurrently until this is per-engine or "
                "accepted in the baseline",
                location=f"{info.relpath}:{hostile.line}",
                symbol=hostile.origin,
                channel=hostile.channel,
                entries=",".join(hostile.entries),
            )
        )
    return out


# ----------------------------------------------------------------------
# EFF004 — ambient-context discipline
# ----------------------------------------------------------------------
_SCOPE_METHOD_NAMES = ("__enter__", "__exit__")
_SCOPE_FUNC_PREFIXES = ("use_", "set_active_", "get_active_", "push_", "pop_")


def _is_scoping_construct(info: FunctionInfo) -> bool:
    if info.name in _SCOPE_METHOD_NAMES:
        return True
    return info.name.startswith(_SCOPE_FUNC_PREFIXES)


def _ambient_discipline(analysis: EffectAnalysis) -> List[Diagnostic]:
    out: List[Diagnostic] = []
    for qualname, info in analysis.functions.items():
        flagged_writes = set()
        for channel, line in sorted(info.global_writes.items()):
            owner, _, leaf = channel.rpartition(".")
            if not leaf.startswith("_ACTIVE"):
                continue
            if owner == info.module and _is_scoping_construct(info):
                continue
            flagged_writes.add(channel)
            out.append(
                Diagnostic.make(
                    "EFF004",
                    ERROR,
                    f"'{leaf}' is a scope stack; only {owner}'s own "
                    "use_*/set_active_* constructs may write it — wrap "
                    "the mutation in the module's context manager",
                    location=f"{info.relpath}:{line}",
                    symbol=qualname,
                    channel=channel,
                )
            )
        for channel, line in sorted(info.global_reads.items()):
            owner, _, leaf = channel.rpartition(".")
            if not leaf.startswith("_ACTIVE"):
                continue
            if owner == info.module or channel in flagged_writes:
                continue
            out.append(
                Diagnostic.make(
                    "EFF004",
                    ERROR,
                    f"cross-module read of scope stack '{leaf}'; go "
                    f"through {owner}'s get_active_* accessor so scoping "
                    "stays observable in one place",
                    location=f"{info.relpath}:{line}",
                    symbol=qualname,
                    channel=channel,
                )
            )
    return out


# ----------------------------------------------------------------------
# EFF005 — interprocedural dtype promotion
# ----------------------------------------------------------------------
def _dtype_promotion(analysis: EffectAnalysis) -> List[Diagnostic]:
    out: List[Diagnostic] = []
    for qualname, info in analysis.functions.items():
        if not _in_dtype_scope(info.relpath):
            continue
        seen: Set[str] = set()
        for site_index, callee in analysis.calls.get(qualname, []):
            callee_info = analysis.functions[callee]
            if _in_dtype_scope(callee_info.relpath):
                continue  # the callee is ATN002/EFF005's own problem
            taint = analysis.signatures[callee].float64_taint
            if taint is None or callee in seen:
                continue
            seen.add(callee)
            site = info.call_sites[site_index]
            out.append(
                Diagnostic.make(
                    "EFF005",
                    ERROR,
                    f"call to {callee}() promotes to float64 (literal in "
                    f"{taint}); ATN002's scope keeps this path "
                    "dtype-configurable — take/return "
                    "get_default_dtype() arrays across this boundary",
                    location=f"{info.relpath}:{site.lineno}",
                    symbol=qualname,
                    channel=callee,
                    origin=taint,
                )
            )
    return out


def run_rules(analysis: EffectAnalysis) -> List[Diagnostic]:
    """All rule packs over one propagated analysis, unsorted."""
    out: List[Diagnostic] = []
    out.extend(_view_escape(analysis))
    out.extend(_saved_buffer(analysis))
    out.extend(_thread_hostility(analysis))
    out.extend(_ambient_discipline(analysis))
    out.extend(_dtype_promotion(analysis))
    return out
