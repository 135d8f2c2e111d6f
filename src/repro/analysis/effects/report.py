"""Render the thread-hostility report (``docs/thread_hostility.md``).

One row per (channel, origin) pair that a ``RealTimeEngine`` entry point
can reach, with an example call path so a reader can audit the claim
without re-running the analyzer.  Origins are named by function, never
by line, so the report changes only when the effects do.  CI regenerates
it and fails on drift, so the committed copy always matches the code.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.analysis.effects.model import EffectAnalysis
from repro.analysis.effects.rules import (
    HostileChannel,
    engine_entry_points,
    thread_hostility_channels,
)

__all__ = ["render_thread_hostility"]

_HEADER = """\
# Thread-hostility report

<!-- Generated by `python -m repro.analysis effects --write-reports`.
     Do not edit by hand; CI fails when this file drifts from the
     analyzer's output. -->

Every module-global and ambient write the interprocedural effect
analyzer ([`repro.analysis.effects`](../src/repro/analysis/effects/))
proves reachable from a public `RealTimeEngine` entry point.  Each row
is state that two engines in one process share: running engines
concurrently would first need it per-engine (or lock-protected), and
the corresponding `EFF003` baseline entry documents why sharing it is
acceptable today.  Origins are named by function, not line, so this
file changes only when the effects do.

Kinds: **global-write** — assignment to a module-level name;
**ambient-write** — a write through an ambient `get_active_*` handle or
scope stack; **global-rng** — use of numpy's process-global RNG.
"""


def _short(qualname: str) -> str:
    return qualname[len("repro."):] if qualname.startswith("repro.") else qualname


def _render_path(path: Tuple[str, ...]) -> str:
    if len(path) <= 1:
        return "(direct)"
    return " → ".join(f"`{_short(q)}`" for q in path)


def render_thread_hostility(analysis: EffectAnalysis) -> str:
    channels = thread_hostility_channels(analysis)
    entries = engine_entry_points(analysis)
    lines: List[str] = [_HEADER]

    distinct = sorted({(c.kind, c.channel) for c in channels})
    lines.append(
        f"**{len(distinct)} distinct channel(s)** reachable from "
        f"{len(entries)} entry point(s).\n"
    )

    by_entry: Dict[str, List[HostileChannel]] = {}
    for channel in channels:
        for entry in channel.entries:
            by_entry.setdefault(entry, []).append(channel)

    for entry_qualname in entries:
        method = entry_qualname.rsplit(".", 1)[-1]
        rows = by_entry.get(method, [])
        lines.append(f"## `RealTimeEngine.{method}`\n")
        if not rows:
            lines.append("No reachable global or ambient writes.\n")
            continue
        # Paths rooted at *this* entry point, not whichever entry the
        # deduplicated channel record happened to come from.
        entry_paths = analysis.reachable([entry_qualname])
        lines.append("| kind | channel | origin | example path |")
        lines.append("| --- | --- | --- | --- |")
        rendered = {
            (row.kind, row.channel, row.origin): (
                f"| {row.kind} | `{row.channel}` | "
                f"[`{_short(row.origin)}`]"
                f"(../src/{analysis.functions[row.origin].relpath}) "
                f"| {_render_path(entry_paths.get(row.origin, row.path))} |"
            )
            for row in rows
        }
        lines.extend(rendered[key] for key in sorted(rendered))
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"
