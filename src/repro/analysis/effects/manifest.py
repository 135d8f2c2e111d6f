"""Metrics/span name manifest: every instrument name the code can emit.

Instrument names are stringly-typed (``registry.counter("engine.refreshes")``,
``maybe_span("index.search")``) so nothing stops two call sites from
registering the same name as different kinds — which raises at runtime
only when both paths execute — or the docs from drifting.  This pass
extracts every literal (and f-string-prefixed) name from the
``counter(`` / ``histogram(`` / ``gauge(`` / span call sites, then:

* lints kind conflicts (one name, two instrument kinds) and
  metric/span collisions — ``EFF006``;
* checks drift against the metric tables in ``docs/observability.md``
  (a documented name that no call site can emit, or whose documented
  kind disagrees with the code) — ``EFF007``;
* renders ``docs/metrics_manifest.md``, the generated inventory the
  observability docs link to.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from repro.analysis.diagnostics import ERROR, Diagnostic
from repro.analysis.lint.engine import iter_python_files

__all__ = [
    "ManifestEntry",
    "NameManifest",
    "build_manifest",
    "manifest_diagnostics",
    "render_manifest",
]

_METRIC_METHODS = ("counter", "gauge", "histogram")
# ``maybe_span(...)`` anywhere; ``.span(...)`` only on a receiver named as
# a tracer or span recorder (``tracer.span``, ``self._recorder.span``,
# ``Tracer().span``), so another class's ``span`` method is no span.
_SPAN_FUNCTION = "maybe_span"
_SPAN_RECEIVER = re.compile(r"tracer|recorder", re.IGNORECASE)


@dataclass
class ManifestEntry:
    """One instrument/span name (or dynamic-name pattern) in the code."""

    name: str  # literal name, or pattern like "trainer.grad_norm.*"
    kind: str  # "counter" | "gauge" | "histogram" | "span"
    dynamic: bool  # True when the name has a non-literal component
    # (relpath, line, module-qualified enclosing function) per call site.
    sites: List[Tuple[str, int, str]] = field(default_factory=list)


@dataclass
class NameManifest:
    # (name, kind) -> entry; one name may appear under several kinds,
    # which is exactly what the conflict lint reports.
    entries: Dict[Tuple[str, str], ManifestEntry] = field(default_factory=dict)

    def add(
        self,
        name: str,
        kind: str,
        dynamic: bool,
        relpath: str,
        line: int,
        scope: str,
    ) -> None:
        entry = self.entries.setdefault(
            (name, kind), ManifestEntry(name=name, kind=kind, dynamic=dynamic)
        )
        entry.sites.append((relpath, line, scope))

    def kinds_for(self, name: str) -> List[str]:
        return sorted(kind for (n, kind) in self.entries if n == name)

    def names(self) -> List[str]:
        return sorted({name for (name, _) in self.entries})

    def site_count(self) -> int:
        return sum(len(e.sites) for e in self.entries.values())

    def can_emit(self, name: str, kind: str) -> bool:
        """Whether some call site emits ``name`` as ``kind`` (patterns count)."""
        if (name, kind) in self.entries:
            return True
        for (candidate, entry_kind), entry in self.entries.items():
            if entry_kind != kind or not entry.dynamic:
                continue
            prefix = candidate[:-1] if candidate.endswith("*") else candidate
            if name.startswith(prefix):
                return True
        return False


def _name_from_arg(node: ast.AST) -> Optional[Tuple[str, bool]]:
    """Extract ``(name, dynamic)`` from a name argument expression."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value, False
    if isinstance(node, ast.JoinedStr):
        prefix = ""
        for value in node.values:
            if isinstance(value, ast.Constant) and isinstance(value.value, str):
                prefix += value.value
            else:
                break
        return prefix + "*", True
    if isinstance(node, ast.Name):
        return f"<{node.id}>", True
    return None


def _receiver_name(node: ast.expr) -> str:
    """The last name in a call's receiver: ``self._tracer`` -> ``_tracer``,
    ``Tracer()`` -> ``Tracer``; empty for anything else."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


def _classify_call(node: ast.Call) -> Optional[str]:
    func = node.func
    if isinstance(func, ast.Attribute):
        if func.attr in _METRIC_METHODS:
            return func.attr
        if func.attr == "span" and _SPAN_RECEIVER.search(
            _receiver_name(func.value)
        ):
            return "span"
        if func.attr == _SPAN_FUNCTION:
            return "span"
        return None
    if isinstance(func, ast.Name) and func.id == _SPAN_FUNCTION:
        return "span"
    return None


def _module_name(relpath: str) -> str:
    """``src/repro/obs/flight.py`` -> ``repro.obs.flight``."""
    parts = Path(relpath).with_suffix("").parts
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _scoped_calls(tree: ast.Module, module: str) -> Iterable[Tuple[ast.Call, str]]:
    """Every call in ``tree`` with the qualname of its enclosing def/class."""
    stack: List[Tuple[ast.AST, str]] = [(tree, module)]
    while stack:
        node, scope = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                stack.append((child, f"{scope}.{child.name}"))
                continue
            if isinstance(child, ast.Call):
                yield child, scope
            stack.append((child, scope))


def build_manifest(paths: Iterable[Path], root: Path) -> NameManifest:
    """Scan python files for instrument/span registrations."""
    manifest = NameManifest()
    for path in iter_python_files(paths):
        relpath = path.relative_to(root).as_posix()
        try:
            tree = ast.parse(path.read_text(encoding="utf-8"))
        except SyntaxError:
            continue
        for node, scope in _scoped_calls(tree, _module_name(relpath)):
            kind = _classify_call(node)
            if kind is None or not node.args:
                continue
            extracted = _name_from_arg(node.args[0])
            if extracted is None:
                continue
            name, dynamic = extracted
            manifest.add(name, kind, dynamic, relpath, node.lineno, scope)
    return manifest


# ----------------------------------------------------------------------
# Lint: kind conflicts and metric/span collisions (EFF006)
# ----------------------------------------------------------------------
def _conflict_diagnostics(manifest: NameManifest) -> List[Diagnostic]:
    out: List[Diagnostic] = []
    for name in manifest.names():
        if name.endswith("*") or name.startswith("<"):
            continue  # dynamic patterns cannot be compared reliably
        kinds = manifest.kinds_for(name)
        metric_kinds = [k for k in kinds if k != "span"]
        if len(metric_kinds) > 1:
            sites = manifest.entries[(name, metric_kinds[0])].sites
            relpath, line, _ = sites[0]
            out.append(
                Diagnostic.make(
                    "EFF006",
                    ERROR,
                    f"'{name}' is registered as {' and '.join(metric_kinds)};"
                    " re-registering a name as a different kind raises at"
                    " runtime — rename one of them",
                    location=f"{relpath}:{line}",
                    symbol=name,
                    channel=",".join(metric_kinds),
                )
            )
        if "span" in kinds and metric_kinds:
            sites = manifest.entries[(name, "span")].sites
            relpath, line, _ = sites[0]
            out.append(
                Diagnostic.make(
                    "EFF006",
                    ERROR,
                    f"'{name}' names both a span and a "
                    f"{'/'.join(metric_kinds)}; shared names make traces "
                    "and metrics impossible to correlate — rename one",
                    location=f"{relpath}:{line}",
                    symbol=name,
                    channel="span," + ",".join(metric_kinds),
                )
            )
    return out


# ----------------------------------------------------------------------
# Docs drift (EFF007)
# ----------------------------------------------------------------------
_BACKTICK_RE = re.compile(r"`([^`]+)`")
_DOC_KINDS = {"counter", "gauge", "histogram"}


def documented_metrics(doc_text: str) -> List[Tuple[str, str, int]]:
    """``(name, kind, line)`` rows from markdown metric tables.

    A table row counts when its second column is purely instrument
    kinds (``counter``, ``histogram / gauge``, ...); names come from the
    backticked entries of the first column, paired positionally with
    the kinds (a single kind covers every name in the row).
    """
    rows: List[Tuple[str, str, int]] = []
    for lineno, line in enumerate(doc_text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped.startswith("|"):
            continue
        cells = [c.strip() for c in stripped.strip("|").split("|")]
        if len(cells) < 2:
            continue
        kinds = [k.strip().lower() for k in cells[1].split("/")]
        if not kinds or any(k not in _DOC_KINDS for k in kinds):
            continue
        names = _BACKTICK_RE.findall(cells[0])
        if not names:
            continue
        for index, name in enumerate(names):
            kind = kinds[index] if index < len(kinds) else kinds[-1]
            rows.append((name, kind, lineno))
    return rows


def _drift_diagnostics(
    manifest: NameManifest, docs_path: Path, docs_relpath: str
) -> List[Diagnostic]:
    if not docs_path.exists():
        return []
    out: List[Diagnostic] = []
    for name, kind, line in documented_metrics(
        docs_path.read_text(encoding="utf-8")
    ):
        if manifest.can_emit(name, kind):
            continue
        actual = [k for k in manifest.kinds_for(name) if k != "span"]
        if actual:
            problem = f"the code registers it as a {'/'.join(actual)}"
        else:
            problem = "no call site can emit it"
        out.append(
            Diagnostic.make(
                "EFF007",
                ERROR,
                f"docs list '{name}' as a {kind} but {problem}; "
                "update the table or the instrumentation",
                location=f"{docs_relpath}:{line}",
                symbol=name,
                channel=kind,
            )
        )
    return out


def manifest_diagnostics(
    manifest: NameManifest, docs_path: Path, docs_relpath: str
) -> List[Diagnostic]:
    out = _conflict_diagnostics(manifest)
    out.extend(_drift_diagnostics(manifest, docs_path, docs_relpath))
    return out


# ----------------------------------------------------------------------
# Rendering (docs/metrics_manifest.md)
# ----------------------------------------------------------------------
_MANIFEST_HEADER = """\
# Metrics & span name manifest

<!-- Generated by `python -m repro.analysis effects --write-reports`.
     Do not edit by hand; CI fails when this file drifts from the
     analyzer's output. -->

Every instrument and span name the code can emit, extracted from the
`counter(` / `gauge(` / `histogram(` / span call sites by
[`repro.analysis.effects.manifest`](../src/repro/analysis/effects/manifest.py).
Each call site is named by its enclosing function, so the inventory
changes only when the set of emitting functions does, not when lines
move.  Dynamic names (f-strings, variables) appear as `prefix.*`
patterns.
The narrative docs live in [observability.md](observability.md); the
analyzer cross-checks its metric tables against this inventory.
"""


def render_manifest(manifest: NameManifest) -> str:
    lines: List[str] = [_MANIFEST_HEADER]
    lines.append(
        f"**{len(manifest.names())} name(s)** across "
        f"{manifest.site_count()} call site(s).\n"
    )
    for kind in ("counter", "gauge", "histogram", "span"):
        entries = sorted(
            (e for (_, k), e in manifest.entries.items() if k == kind),
            key=lambda e: e.name,
        )
        if not entries:
            continue
        lines.append(f"## {kind}\n")
        lines.append("| name | call sites |")
        lines.append("| --- | --- |")
        for entry in entries:
            sites = ", ".join(
                f"[`{scope}`](../{relpath})"
                for scope, relpath in sorted(
                    {(scope, relpath) for relpath, _, scope in entry.sites}
                )
            )
            label = f"`{entry.name}`" + (" *(dynamic)*" if entry.dynamic else "")
            lines.append(f"| {label} | {sites} |")
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"
