"""Reason-mandatory baseline for the effects pass.

The effects analyzer is a *may* analysis: it over-approximates, and some
findings are deliberate (the ambient telemetry slot exists precisely to
be process-global).  Those accepted findings live in a checked-in JSON
baseline instead of inline suppressions because they are properties of
call *chains*, not single lines.

Baseline semantics are strict in both directions:

* every entry MUST carry a non-empty ``reason`` — an entry without one
  is itself an error (mirrors the lint's ``ATN000`` rule);
* an entry that no longer matches any finding is *stale* and is also an
  error — the baseline may only shrink as findings get fixed, never
  accumulate dead weight.

Entries are keyed ``(code, symbol, detail)`` — the diagnostic's rule
code, the qualname of the function it is attached to, and its channel /
callee detail — so the baseline survives line-number churn.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Tuple

from repro.analysis.diagnostics import ERROR, Diagnostic

__all__ = ["BaselineEntry", "Baseline", "apply_baseline"]

# Key fields a diagnostic must expose (via ``details``) to be
# baseline-addressable.
Key = Tuple[str, str, str]


@dataclass(frozen=True)
class BaselineEntry:
    code: str
    symbol: str
    detail: str
    reason: str = ""

    @property
    def key(self) -> Key:
        return (self.code, self.symbol, self.detail)


@dataclass
class Baseline:
    entries: Dict[Key, BaselineEntry]

    @staticmethod
    def empty() -> "Baseline":
        return Baseline(entries={})

    @staticmethod
    def load(path: Path) -> "Baseline":
        """Parse a baseline file; malformed structure raises ValueError."""
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from exc
        if not isinstance(payload, dict) or "entries" not in payload:
            raise ValueError(f"{path}: expected an object with 'entries'")
        entries: Dict[Key, BaselineEntry] = {}
        for raw in payload["entries"]:
            if not isinstance(raw, dict):
                raise ValueError(f"{path}: entry is not an object: {raw!r}")
            entry = BaselineEntry(
                code=str(raw.get("code", "")),
                symbol=str(raw.get("symbol", "")),
                detail=str(raw.get("detail", "")),
                reason=str(raw.get("reason", "")),
            )
            if not entry.code or not entry.symbol:
                raise ValueError(
                    f"{path}: entry missing code/symbol: {raw!r}"
                )
            if entry.key in entries:
                raise ValueError(
                    f"{path}: duplicate baseline entry {entry.key}"
                )
            entries[entry.key] = entry
        return Baseline(entries=entries)


def _diagnostic_key(diagnostic: Diagnostic) -> Key:
    return (
        diagnostic.code,
        diagnostic.detail("symbol"),
        diagnostic.detail("channel"),
    )


def apply_baseline(
    diagnostics: Iterable[Diagnostic], baseline: Baseline
) -> Tuple[List[Diagnostic], List[Diagnostic]]:
    """Split findings against the baseline.

    Returns ``(kept, suppressed)``.  ``kept`` additionally contains one
    synthetic ``EFF000`` error per reason-less matching entry and per
    stale entry, so a drifting baseline fails CI exactly like a new
    finding would.
    """
    kept: List[Diagnostic] = []
    suppressed: List[Diagnostic] = []
    used: Dict[Key, bool] = {key: False for key in baseline.entries}
    for diagnostic in diagnostics:
        entry = baseline.entries.get(_diagnostic_key(diagnostic))
        if entry is None:
            kept.append(diagnostic)
            continue
        used[entry.key] = True
        if not entry.reason.strip():
            kept.append(
                Diagnostic.make(
                    "EFF000",
                    ERROR,
                    "baseline entry suppresses a finding without a reason",
                    location=diagnostic.location,
                    symbol=entry.symbol,
                    channel=entry.detail,
                    suppressed_code=entry.code,
                )
            )
            continue
        suppressed.append(diagnostic)
    for key, was_used in sorted(used.items()):
        if was_used:
            continue
        code, symbol, detail = key
        kept.append(
            Diagnostic.make(
                "EFF000",
                ERROR,
                "stale baseline entry no longer matches any finding"
                " — delete it",
                symbol=symbol,
                channel=detail,
                suppressed_code=code,
            )
        )
    return kept, suppressed
