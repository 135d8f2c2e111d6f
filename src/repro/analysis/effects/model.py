"""Data model for the interprocedural effect & aliasing analyzer.

The analyzer (see :mod:`repro.analysis.effects`) works in three stages:

1. **Harvest** (:mod:`repro.analysis.effects.harvest`) parses every
   module under a source root and extracts *local* facts per function —
   which parameters it writes in place, which module-level globals it
   reads or writes, whether it returns a view of a parameter or
   attribute, where it names a float64 literal, and every call site
   with its argument bindings.
2. **Resolution** (:mod:`repro.analysis.effects.callgraph`) turns the
   symbolic call references into function qualnames using the module
   import tables, ``self.attr`` type inference, parameter / return
   annotations, and the class hierarchy (a call through a base type
   conservatively reaches every override).
3. **Propagation** (:mod:`repro.analysis.effects.propagate`) composes
   the local facts through the resolved call graph to a fixpoint so an
   :class:`EffectSignature` describes the *transitive* behaviour of
   each function.

Everything here is a plain container; the stages own the logic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

__all__ = [
    "ArgRef",
    "CallSite",
    "ViewSource",
    "FunctionInfo",
    "ClassInfo",
    "ModuleInfo",
    "EffectSignature",
    "EffectAnalysis",
]

# How a call argument relates to the caller's own state:
#   ("param", name)  — the caller's parameter, verbatim
#   ("local", name)  — a caller local
#   ("attr", name)   — ``self.<name>``
#   ("other", "")    — anything more complex
ArgRef = Tuple[str, str]

# What a returned value aliases:
#   ("param", name) — (a slice/index of) a parameter
#   ("attr", name)  — (a slice/index of) ``self.<name>``
ViewSource = Tuple[str, str]


@dataclass
class CallSite:
    """One call expression inside a function body.

    ``ref`` is the unresolved callee reference produced by the harvester:

    * ``("name", n)`` — bare-name call ``n(...)``
    * ``("self", m)`` — ``self.m(...)``
    * ``("obj", base, m)`` — ``base.m(...)`` where ``base`` is a local,
      parameter, or module alias
    * ``("self_attr", a, m)`` — ``self.a.m(...)``
    """

    ref: Tuple[str, ...]
    args: Tuple[ArgRef, ...]
    kwargs: Tuple[Tuple[str, ArgRef], ...]
    lineno: int
    # Local name the result is bound to (``x = f(...)``), when simple.
    result_local: Optional[str] = None
    # True when the call appears as a ``with``-statement item, in which
    # case the resolver also adds ``__enter__`` / ``__exit__`` edges.
    is_with_item: bool = False


@dataclass
class FunctionInfo:
    """Local (intraprocedural) facts about one function or method."""

    module: str
    qualname: str
    name: str
    relpath: str
    lineno: int
    class_name: Optional[str] = None
    params: Tuple[str, ...] = ()
    # Parameter name -> annotation text (resolved later against imports).
    param_annotations: Dict[str, str] = field(default_factory=dict)
    return_annotation: Optional[str] = None

    # --- local effects -------------------------------------------------
    # Parameter name -> first line where it is written in place.
    mutated_params: Dict[str, int] = field(default_factory=dict)
    # ``self.<attr>`` names assigned anywhere in the body.
    attr_writes: Set[str] = field(default_factory=set)
    # ``self.<attr>`` -> textual type hint (constructor name, annotation,
    # or ``@return:<method>``), consumed by ClassInfo.attr_types.
    attr_type_hints: Dict[str, str] = field(default_factory=dict)
    # Fully qualified module-global name -> first write line.
    global_writes: Dict[str, int] = field(default_factory=dict)
    # Fully qualified module-global name -> first read line.
    global_reads: Dict[str, int] = field(default_factory=dict)
    # Lines with an (unsuppressed) np.float64 literal.
    float64_sites: List[int] = field(default_factory=list)
    # What ``return`` statements may alias.
    returns_views: Set[ViewSource] = field(default_factory=set)
    # Every call expression, in source order.
    call_sites: List[CallSite] = field(default_factory=list)
    # (call_sites index, mutation line) — the bound result of that call
    # was later written in place by this function.
    result_mutations: List[Tuple[int, int]] = field(default_factory=list)
    # Nested closures: (closure name, def line, captured local -> line of
    # a mutation of that local occurring *after* the def).
    closure_mutations: List[Tuple[str, int, str, int]] = field(
        default_factory=list
    )
    # Captured local -> (closure name, call_sites index) for captures
    # passed to a callee after the closure definition (the callee may
    # mutate them — resolved during rule evaluation).
    closure_escapes: List[Tuple[str, str, int]] = field(default_factory=list)

    def location(self) -> str:
        return f"{self.relpath}:{self.lineno}"


@dataclass
class ClassInfo:
    """One class definition: methods, bases, inferred attribute types."""

    module: str
    qualname: str
    name: str
    bases: List[str] = field(default_factory=list)  # unresolved base refs
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    # ``self.<attr>`` -> annotation/constructor text inferred from
    # ``__init__`` and friends (resolved against imports later).
    attr_types: Dict[str, str] = field(default_factory=dict)


@dataclass
class ModuleInfo:
    """One parsed module: imports, globals, classes, functions."""

    name: str
    relpath: str
    # Local alias -> fully qualified target ("np" -> "numpy",
    # "kmeans" -> "repro.core.clustering.kmeans").
    imports: Dict[str, str] = field(default_factory=dict)
    # Module-level data names (assignments that are not defs/imports).
    data_globals: Set[str] = field(default_factory=set)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)


@dataclass
class EffectSignature:
    """Transitive effect summary of one function after propagation.

    ``float64_taint`` names the function whose *local* literal
    introduced the taint, so diagnostics can name the origin even when
    it arrived through a call chain.
    """

    mutated_params: Set[str] = field(default_factory=set)
    float64_taint: Optional[str] = None  # origin qualname or None
    returns_views: Set[ViewSource] = field(default_factory=set)

    def merge_channels(self, other: "EffectSignature") -> bool:
        """Fold ``other``'s dtype taint in; returns True on change.

        The taint composes context-insensitively: if a callee promotes
        to float64, so does the caller.
        """
        if self.float64_taint is None and other.float64_taint is not None:
            self.float64_taint = other.float64_taint
            return True
        return False


@dataclass
class EffectAnalysis:
    """The fully propagated analysis over one source root."""

    modules: Dict[str, ModuleInfo]
    functions: Dict[str, FunctionInfo]  # qualname -> info
    classes: Dict[str, ClassInfo]  # qualname -> info
    # Resolved call graph: caller qualname -> list of
    # (call_sites index, callee qualname).
    calls: Dict[str, List[Tuple[int, str]]]
    signatures: Dict[str, EffectSignature]
