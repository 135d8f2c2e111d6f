"""Signature propagation: compose local facts through the call graph.

Float64 taint propagates context-insensitively: a caller inherits it
from any callee, tagged with the qualname of the function whose *local*
literal introduced it, so diagnostics can always name the origin.
Module-global reads and writes are not propagated: ``EFF004`` judges
each access in the function that makes it.

Parameter-mutation effects propagate with argument binding: when ``g``
mutates its parameter ``buf`` and ``f`` calls ``g(x)`` with its own
parameter ``x`` in that position, ``f`` mutates ``x`` too.  Run to a
fixpoint this composes through arbitrarily deep chains of direct
parameter forwarding (the common helper idiom); anything fancier
(captured in a container, re-sliced, ...) is out of scope and covered
by the runtime GradSanitizer instead.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from repro.analysis.effects.callgraph import CallGraphBuilder
from repro.analysis.effects.harvest import harvest_module
from repro.analysis.effects.model import (
    EffectAnalysis,
    EffectSignature,
    FunctionInfo,
    ModuleInfo,
)

__all__ = ["analyze", "propagate"]

_MAX_PASSES = 64


def _filter_globals(
    modules: Dict[str, ModuleInfo], functions: Dict[str, FunctionInfo]
) -> None:
    """Drop recorded global refs that are not repo module data globals.

    The harvester records a candidate for every imported dotted name; a
    reference only counts when its target module was parsed and the leaf
    is genuine module-level data (this is what separates
    ``from x import _ACTIVE_TELEMETRY`` from ``from x import kmeans``).
    """
    for info in functions.values():
        for table in (info.global_writes, info.global_reads):
            for target in list(table):
                mod, _, leaf = target.rpartition(".")
                if mod == info.module:
                    continue
                owner = modules.get(mod)
                if owner is None or leaf not in owner.data_globals:
                    del table[target]


def propagate(
    modules: Dict[str, ModuleInfo],
) -> EffectAnalysis:
    """Resolve calls and run the effect fixpoint over harvested modules."""
    builder = CallGraphBuilder(modules)
    functions = builder.functions
    _filter_globals(modules, functions)
    calls = builder.build()

    signatures: Dict[str, EffectSignature] = {
        qualname: EffectSignature(
            mutated_params=set(info.mutated_params),
            float64_taint=qualname if info.float64_sites else None,
            returns_views=set(info.returns_views),
        )
        for qualname, info in functions.items()
    }

    for _ in range(_MAX_PASSES):
        changed = False
        for qualname, info in functions.items():
            signature = signatures[qualname]
            for site_index, callee in calls.get(qualname, ()):
                callee_sig = signatures.get(callee)
                if callee_sig is None:
                    continue
                if signature.merge_channels(callee_sig):
                    changed = True
                # Parameter-mutation binding through direct forwarding.
                if callee_sig.mutated_params:
                    site = info.call_sites[site_index]
                    callee_info = functions[callee]
                    bound: List[Tuple[str, str]] = []
                    for position, arg in enumerate(site.args):
                        if position < len(callee_info.params):
                            bound.append((callee_info.params[position], arg))
                    for keyword, arg in site.kwargs:
                        bound.append((keyword, arg))
                    for callee_param, (kind, name) in bound:
                        if (
                            kind == "param"
                            and callee_param in callee_sig.mutated_params
                            and name not in signature.mutated_params
                        ):
                            signature.mutated_params.add(name)
                            changed = True
        if not changed:
            break

    return EffectAnalysis(
        modules=modules,
        functions=functions,
        classes=builder.classes,
        calls=calls,
        signatures=signatures,
    )


def iter_source_files(src_root: Path) -> Iterable[Path]:
    for path in sorted(src_root.rglob("*.py")):
        if any(part.startswith(".") for part in path.parts):
            continue
        yield path


def analyze(
    src_root: Path, package: Optional[str] = None
) -> EffectAnalysis:
    """Harvest + resolve + propagate everything under ``src_root``.

    ``src_root`` is the import root (the directory on ``sys.path``);
    ``package`` optionally restricts the scan to one top-level package
    beneath it (e.g. ``"repro"``).
    """
    scan_root = src_root / package if package else src_root
    modules: Dict[str, ModuleInfo] = {}
    for path in iter_source_files(scan_root):
        module = harvest_module(path, src_root)
        if module is not None:
            modules[module.name] = module
    return propagate(modules)
