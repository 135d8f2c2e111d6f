"""AST harvesting: per-function local effect facts.

One pass over every module under a source root produces
:class:`~repro.analysis.effects.model.ModuleInfo` records whose
functions carry *intraprocedural* facts only — parameter writes, global
state access, float64 literals, returned views, and symbolic call
sites.  Nothing here follows a call; composition is the propagation
stage's job.

The harvester is deliberately a *may*-analysis: an ``x[i] = v`` or
``x += v`` on a name is treated as an in-place write of whatever object
the name denotes (for an ndarray it is; for an int it is a rebind), and
a basic ``Subscript`` of a parameter or attribute is treated as a view
(for an ndarray a slice is; fancy indexing copies).  Rules that consume
these facts are gated by a reason-mandatory baseline, so the occasional
conservative over-approximation is recorded rather than fatal.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.effects.model import (
    ArgRef,
    CallSite,
    ClassInfo,
    FunctionInfo,
    ModuleInfo,
)
from repro.analysis.lint.engine import _parse_suppressions

__all__ = ["harvest_module", "harvest_tree", "module_name_for"]

# In-place container/array mutators: calling one of these on a name is
# treated as a write to the object the name denotes.
_MUTATOR_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "remove",
        "pop",
        "popitem",
        "clear",
        "add",
        "discard",
        "update",
        "setdefault",
        "sort",
        "reverse",
        "fill",
        "setflags",
        "assign_",
        "resize",
        "put",
        "partial_fit",
    }
)

# Attribute accesses that preserve view-ness on ndarrays.
_VIEW_ATTRS = frozenset({"T", "data", "real", "imag", "flat"})

# Suppression codes that mute a float64 literal as an EFF005 taint
# source (a reasoned ATN002 suppression documents the promotion).
_FLOAT64_SUPPRESSORS = ("ATN002", "EFF005")


def module_name_for(relpath: str) -> str:
    """``repro/obs/tracing.py`` -> ``repro.obs.tracing`` (posix relpath)."""
    parts = Path(relpath).with_suffix("").parts
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _self_attr(node: ast.AST) -> Optional[str]:
    """``attr`` when ``node`` is ``self.<attr>``, else None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _is_np_float64(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "float64"
        and isinstance(node.value, ast.Name)
        and node.value.id in ("np", "numpy")
    )


def _assigned_names(tree: ast.AST) -> Set[str]:
    """Every Name bound anywhere in a function body (locals pre-scan)."""
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(
            node.ctx, (ast.Store, ast.Del)
        ):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(node.name)
        elif isinstance(node, ast.comprehension):
            for target in ast.walk(node.target):
                if isinstance(target, ast.Name):
                    names.add(target.id)
    return names


def _free_reads(func: ast.AST, enclosing_locals: Set[str]) -> Set[str]:
    """Names a nested function reads that are locals of its parent."""
    own = _assigned_names(func)
    own.update(
        arg.arg
        for arg in ast.walk(func)
        if isinstance(arg, ast.arg)
    )
    reads: Set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id in enclosing_locals and node.id not in own:
                reads.add(node.id)
    return reads


class _FunctionHarvester:
    """Walks one function body in statement order, filling FunctionInfo."""

    def __init__(
        self,
        info: FunctionInfo,
        node: ast.FunctionDef,
        module_globals: Set[str],
        imports: Dict[str, str],
        suppressed_float64: Set[int],
    ) -> None:
        self.info = info
        self.node = node
        self.module_globals = module_globals
        self.imports = imports
        self.suppressed_float64 = suppressed_float64
        self.locals: Set[str] = set(info.params) | _assigned_names(node)
        self.declared_globals: Set[str] = set()
        # Aliasing state, updated in statement order.
        self.param_aliases: Dict[str, str] = {p: p for p in info.params}
        self.view_locals: Dict[str, Tuple[str, str]] = {}
        self.call_results: Dict[str, int] = {}  # local -> call_sites index
        # Closures seen so far: name -> (def line, captured names).
        self.closures: Dict[str, Tuple[int, Set[str]]] = {}

    # -- name classification -------------------------------------------
    def _global_target(self, name: str) -> Optional[str]:
        """Fully qualified global this name denotes, or None."""
        if name in self.declared_globals:
            return f"{self.info.module}.{name}"
        if name in self.locals:
            return None
        if name in self.module_globals:
            return f"{self.info.module}.{name}"
        target = self.imports.get(name)
        if target is not None and "." in target:
            # Cross-module data reference; the analyzer validates that
            # the target really is a data global after all modules parse.
            return target
        return None

    def _note_global_write(self, name: str, line: int) -> None:
        target = self._global_target(name)
        if target is not None:
            self.info.global_writes.setdefault(target, line)

    def _note_global_read(self, name: str, line: int) -> None:
        target = self._global_target(name)
        if target is not None:
            self.info.global_reads.setdefault(target, line)

    def _note_name_mutation(self, name: str, line: int) -> None:
        """An in-place write through ``name`` — classify the object."""
        if name in self.param_aliases:
            self.info.mutated_params.setdefault(self.param_aliases[name], line)
        if name in self.call_results:
            self.info.result_mutations.append((self.call_results[name], line))
        self._note_global_write(name, line)
        for closure, (def_line, captured) in self.closures.items():
            if name in captured and line > def_line:
                self.info.closure_mutations.append(
                    (closure, def_line, name, line)
                )

    # -- expression classification -------------------------------------
    def _arg_ref(self, node: ast.AST) -> ArgRef:
        if isinstance(node, ast.Name):
            if node.id in self.param_aliases:
                return ("param", self.param_aliases[node.id])
            return ("local", node.id)
        if _self_attr(node) is not None:
            return ("attr", node.attr)
        if isinstance(node, ast.Starred):
            return self._arg_ref(node.value)
        return ("other", "")

    def _view_source(self, node: ast.AST) -> Optional[Tuple[str, str]]:
        """What ``node`` may alias: a param or a self attribute."""
        if isinstance(node, ast.Name):
            if node.id in self.param_aliases:
                return ("param", self.param_aliases[node.id])
            return self.view_locals.get(node.id)
        if isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) and node.value.id == "self":
                return ("attr", node.attr)
            if node.attr in _VIEW_ATTRS:
                return self._view_source(node.value)
            return None
        if isinstance(node, ast.Subscript):
            return self._view_source(node.value)
        return None

    def _call_ref(self, func: ast.AST) -> Optional[Tuple[str, ...]]:
        if isinstance(func, ast.Name):
            return ("name", func.id)
        if isinstance(func, ast.Attribute):
            base = func.value
            if isinstance(base, ast.Name):
                if base.id == "self":
                    return ("self", func.attr)
                return ("obj", base.id, func.attr)
            if _self_attr(base) is not None:
                return ("self_attr", base.attr, func.attr)
        return None

    # -- call handling --------------------------------------------------
    def _handle_call(
        self,
        node: ast.Call,
        result_local: Optional[str] = None,
        is_with_item: bool = False,
    ) -> Optional[int]:
        """Record one call site; returns its index (None if opaque)."""
        ref = self._call_ref(node.func)
        if ref is None:
            return None
        line = node.lineno
        if ref[0] == "obj" and ref[2] in _MUTATOR_METHODS:
            self._note_name_mutation(ref[1], line)
        elif ref[0] == "self_attr" and ref[2] in _MUTATOR_METHODS:
            # self.attr.mutator(...) is an attr write, not a call edge we
            # lose: the edge is recorded below via the resolver.
            self.info.attr_writes.add(ref[1])

        args = tuple(self._arg_ref(arg) for arg in node.args)
        kwargs = tuple(
            (kw.arg, self._arg_ref(kw.value))
            for kw in node.keywords
            if kw.arg is not None
        )
        site = CallSite(
            ref=ref,
            args=args,
            kwargs=kwargs,
            lineno=line,
            result_local=result_local,
            is_with_item=is_with_item,
        )
        self.info.call_sites.append(site)
        index = len(self.info.call_sites) - 1

        # Captured locals handed to a callee after a closure definition.
        for position, (kind, name) in enumerate(args):
            if kind not in ("param", "local"):
                continue
            for closure, (def_line, captured) in self.closures.items():
                if name in captured and line > def_line:
                    self.info.closure_escapes.append((name, closure, index))
        return index

    # -- statement walk -------------------------------------------------
    def run(self) -> None:
        for statement in self.node.body:
            self._visit(statement)

    def _visit(self, node: ast.AST) -> None:
        method = getattr(self, f"_visit_{type(node).__name__}", None)
        if method is not None:
            method(node)
            return
        self._generic(node)

    def _generic(self, node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            self._visit(child)

    # Nested defs become closure records; we do not descend.
    def _visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        captured = _free_reads(node, self.locals | set(self.info.params))
        self.closures[node.name] = (node.lineno, captured)

    _visit_AsyncFunctionDef = _visit_FunctionDef

    def _visit_Lambda(self, node: ast.Lambda) -> None:
        captured = _free_reads(node, self.locals | set(self.info.params))
        self.closures[f"<lambda:{node.lineno}>"] = (node.lineno, captured)

    def _visit_Global(self, node: ast.Global) -> None:
        self.declared_globals.update(node.names)

    def _visit_Assign(self, node: ast.Assign) -> None:
        sole_name = (
            node.targets[0].id
            if len(node.targets) == 1 and isinstance(node.targets[0], ast.Name)
            else None
        )
        if isinstance(node.value, ast.Call):
            # Visit the call's children only (nested calls in arguments
            # record themselves), rebind the targets, then record the
            # call with its result binding — in that order, so the
            # rebind does not clear the binding the call establishes.
            for child in ast.iter_child_nodes(node.value):
                self._visit(child)
            for target in node.targets:
                self._assign_target(target, node.value, node.lineno)
            call_index = self._handle_call(node.value, result_local=sole_name)
            if sole_name is not None and call_index is not None:
                self.call_results[sole_name] = call_index
        else:
            self._visit(node.value)
            for target in node.targets:
                self._assign_target(target, node.value, node.lineno)

    def _visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is None:
            return
        if isinstance(node.value, ast.Call):
            for child in ast.iter_child_nodes(node.value):
                self._visit(child)
            self._assign_target(node.target, node.value, node.lineno)
            self._handle_call(node.value)
        else:
            self._visit(node.value)
            self._assign_target(node.target, node.value, node.lineno)

    def _assign_target(
        self, target: ast.AST, value: ast.AST, line: int
    ) -> None:
        if isinstance(target, ast.Name):
            name = target.id
            if name in self.declared_globals:
                self._note_global_write(name, line)
            # Rebinding kills previous alias classifications.
            self.param_aliases.pop(name, None)
            self.view_locals.pop(name, None)
            self.call_results.pop(name, None)
            if isinstance(value, ast.Name) and value.id in self.param_aliases:
                self.param_aliases[name] = self.param_aliases[value.id]
            else:
                source = self._view_source(value)
                if source is not None:
                    self.view_locals[name] = source
        elif isinstance(target, ast.Tuple):
            if isinstance(value, ast.Tuple) and len(value.elts) == len(
                target.elts
            ):
                for sub_target, sub_value in zip(target.elts, value.elts):
                    self._assign_target(sub_target, sub_value, line)
            else:
                for sub_target in target.elts:
                    if isinstance(sub_target, ast.Name):
                        self._assign_target(
                            sub_target, ast.Constant(value=None), line
                        )
        elif isinstance(target, ast.Subscript):
            if isinstance(target.value, ast.Name):
                self._note_name_mutation(target.value.id, line)
            else:
                source = self._view_source(target.value)
                if source is not None and source[0] == "param":
                    self.info.mutated_params.setdefault(source[1], line)
                elif _self_attr(target.value) is not None:
                    self.info.attr_writes.add(target.value.attr)
            self._visit(target.value)
            self._visit(target.slice)
        elif isinstance(target, ast.Attribute):
            base = target.value
            if isinstance(base, ast.Name):
                if base.id == "self":
                    self.info.attr_writes.add(target.attr)
                    self._infer_attr_type(target.attr, value)
                elif base.id in self.param_aliases:
                    self.info.mutated_params.setdefault(
                        self.param_aliases[base.id], line
                    )
                else:
                    self._note_name_mutation(base.id, line)
            self._visit(base)

    def _infer_attr_type(self, attr: str, value: ast.AST) -> None:
        """Record a type hint for ``self.<attr>`` (textual, resolved later)."""
        hint: Optional[str] = None
        if isinstance(value, ast.Call):
            if isinstance(value.func, ast.Name):
                hint = value.func.id
            elif _self_attr(value.func) is not None:
                hint = f"@return:{value.func.attr}"
        elif isinstance(value, ast.Name):
            annotation = self.info.param_annotations.get(value.id)
            if annotation is not None:
                hint = annotation
        if hint is not None:
            self.info.attr_type_hints.setdefault(attr, hint)

    def _visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._visit(node.value)
        target = node.target
        if isinstance(target, ast.Name):
            self._note_name_mutation(target.id, node.lineno)
        elif isinstance(target, ast.Subscript) and isinstance(
            target.value, ast.Name
        ):
            self._note_name_mutation(target.value.id, node.lineno)
        elif isinstance(target, ast.Attribute):
            base = target.value
            if isinstance(base, ast.Name):
                if base.id == "self":
                    self.info.attr_writes.add(target.attr)
                elif base.id in self.param_aliases:
                    self.info.mutated_params.setdefault(
                        self.param_aliases[base.id], node.lineno
                    )
        elif isinstance(target, ast.Subscript):
            source = self._view_source(target.value)
            if source is not None and source[0] == "param":
                self.info.mutated_params.setdefault(source[1], node.lineno)

    def _visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            if isinstance(target, ast.Subscript) and isinstance(
                target.value, ast.Name
            ):
                self._note_name_mutation(target.value.id, node.lineno)
            self._visit(target)

    def _visit_Return(self, node: ast.Return) -> None:
        if node.value is None:
            return
        self._visit(node.value)
        values = (
            node.value.elts
            if isinstance(node.value, ast.Tuple)
            else [node.value]
        )
        for value in values:
            source = self._view_source(value)
            if source is not None:
                self.info.returns_views.add(source)

    def _visit_With(self, node: ast.With) -> None:
        for item in node.items:
            if isinstance(item.context_expr, ast.Call):
                result = (
                    item.optional_vars.id
                    if isinstance(item.optional_vars, ast.Name)
                    else None
                )
                for arg in item.context_expr.args:
                    self._visit(arg)
                self._handle_call(
                    item.context_expr, result_local=result, is_with_item=True
                )
            else:
                self._visit(item.context_expr)
        for statement in node.body:
            self._visit(statement)

    _visit_AsyncWith = _visit_With

    def _visit_Call(self, node: ast.Call) -> None:
        for child in ast.iter_child_nodes(node):
            self._visit(child)
        self._handle_call(node)

    def _visit_Attribute(self, node: ast.Attribute) -> None:
        if _is_np_float64(node):
            if node.lineno not in self.suppressed_float64:
                self.info.float64_sites.append(node.lineno)
        self._generic(node)

    def _visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            self._note_global_read(node.id, node.lineno)


def _harvest_function(
    node: ast.FunctionDef,
    module: ModuleInfo,
    qualname: str,
    class_name: Optional[str],
    suppressed_float64: Set[int],
) -> FunctionInfo:
    params: List[str] = []
    annotations: Dict[str, str] = {}
    all_args = (
        list(node.args.posonlyargs)
        + list(node.args.args)
        + list(node.args.kwonlyargs)
    )
    for arg in all_args:
        if arg.arg in ("self", "cls"):
            continue
        params.append(arg.arg)
        if arg.annotation is not None:
            annotations[arg.arg] = ast.unparse(arg.annotation)
    info = FunctionInfo(
        module=module.name,
        qualname=qualname,
        name=node.name,
        relpath=module.relpath,
        lineno=node.lineno,
        class_name=class_name,
        params=tuple(params),
        param_annotations=annotations,
        return_annotation=(
            ast.unparse(node.returns) if node.returns is not None else None
        ),
    )
    harvester = _FunctionHarvester(
        info, node, module.data_globals, module.imports, suppressed_float64
    )
    harvester.run()
    return info


def harvest_tree(
    tree: ast.Module, name: str, relpath: str, source: str = ""
) -> ModuleInfo:
    """Harvest one parsed module (``source`` enables suppression parsing)."""
    module = ModuleInfo(name=name, relpath=relpath)

    suppressed: Set[int] = set()
    if source:
        for suppression in _parse_suppressions(source).values():
            if suppression.reason and any(
                suppression.covers(code) for code in _FLOAT64_SUPPRESSORS
            ):
                suppressed.add(suppression.line)

    # Imports and module-level data globals.
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    module.imports[alias.asname] = alias.name
                else:
                    root = alias.name.split(".")[0]
                    module.imports[root] = root
        elif isinstance(node, ast.ImportFrom):
            if node.module is None or node.level:
                continue  # relative imports are not used in this repo
            for alias in node.names:
                local = alias.asname or alias.name
                module.imports[local] = f"{node.module}.{alias.name}"
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if isinstance(target, ast.Name):
                    module.data_globals.add(target.id)

    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            qualname = f"{name}.{node.name}"
            module.functions[node.name] = _harvest_function(
                node, module, qualname, None, suppressed
            )
        elif isinstance(node, ast.ClassDef):
            cls = ClassInfo(
                module=name,
                qualname=f"{name}.{node.name}",
                name=node.name,
                bases=[
                    ast.unparse(base)
                    for base in node.bases
                    if not isinstance(base, ast.Subscript)
                ],
            )
            for member in node.body:
                if isinstance(member, ast.FunctionDef):
                    qualname = f"{name}.{node.name}.{member.name}"
                    info = _harvest_function(
                        member, module, qualname, node.name, suppressed
                    )
                    cls.methods[member.name] = info
                    for attr, hint in info.attr_type_hints.items():
                        cls.attr_types.setdefault(attr, hint)
            module.classes[node.name] = cls
    return module


def harvest_module(path: Path, src_root: Path) -> Optional[ModuleInfo]:
    """Parse and harvest one file; returns None when it does not parse."""
    relpath = path.relative_to(src_root).as_posix()
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError:
        return None
    return harvest_tree(tree, module_name_for(relpath), relpath, source)
