"""Interprocedural effect & aliasing analysis (``python -m repro.analysis effects``).

The pipeline (see the stage modules for the details):

1. :mod:`~repro.analysis.effects.harvest` — per-function local facts;
2. :mod:`~repro.analysis.effects.callgraph` — call resolution;
3. :mod:`~repro.analysis.effects.propagate` — fixpoint signatures;
4. :mod:`~repro.analysis.effects.rules` — ``EFF001``–``EFF005`` packs
   (``EFF003`` is retired; the module docstring says why);
5. :mod:`~repro.analysis.effects.manifest` — instrument-name inventory
   (``EFF006``/``EFF007``) and its committed report;
6. :mod:`~repro.analysis.effects.baseline` — reason-mandatory accepted
   findings (``EFF000`` on drift).

:func:`run_effects` is the single entry point the CLI, CI gate and
tests share.  It returns an :class:`EffectsResult` whose
``diagnostics`` are the *unsuppressed* findings (plus baseline/report
drift), i.e. non-empty means the gate fails.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional

from repro.analysis.diagnostics import ERROR, Diagnostic
from repro.analysis.effects.baseline import Baseline, apply_baseline
from repro.analysis.effects.manifest import (
    NameManifest,
    build_manifest,
    manifest_diagnostics,
    render_manifest,
)
from repro.analysis.effects.model import EffectAnalysis
from repro.analysis.effects.propagate import analyze
from repro.analysis.effects.rules import run_rules

__all__ = [
    "EffectsResult",
    "run_effects",
    "analyze",
    "Baseline",
    "apply_baseline",
    "DEFAULT_BASELINE",
    "REPORT_PATHS",
]

# Repo-relative defaults shared by the CLI, CI and tests.
DEFAULT_BASELINE = "effects_baseline.json"
MANIFEST_REPORT = "docs/metrics_manifest.md"
REPORT_PATHS = (MANIFEST_REPORT,)
OBSERVABILITY_DOC = "docs/observability.md"


@dataclass
class EffectsResult:
    analysis: EffectAnalysis
    manifest: NameManifest
    diagnostics: List[Diagnostic]  # unsuppressed — non-empty fails the gate
    suppressed: List[Diagnostic]  # accepted via the baseline
    # Report relpath -> regenerated content (written by --write-reports).
    reports: Dict[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.diagnostics


def _report_drift(
    repo_root: Path, reports: Dict[str, str]
) -> List[Diagnostic]:
    out: List[Diagnostic] = []
    for relpath, content in reports.items():
        path = repo_root / relpath
        committed = path.read_text(encoding="utf-8") if path.exists() else None
        if committed == content:
            continue
        problem = "missing" if committed is None else "stale"
        out.append(
            Diagnostic.make(
                "EFF008",
                ERROR,
                f"committed report is {problem}; regenerate with "
                "'python -m repro.analysis effects --write-reports'",
                location=relpath,
                symbol=relpath,
                channel="report-drift",
            )
        )
    return out


def run_effects(
    repo_root: Path,
    baseline_path: Optional[Path] = None,
    write_reports: bool = False,
) -> EffectsResult:
    """Run the full effects pass rooted at ``repo_root``.

    ``write_reports`` regenerates the committed reports in place;
    otherwise drift between the committed copies and the analyzer's
    output is itself a finding (``EFF008``) so CI keeps them honest.
    """
    repo_root = repo_root.resolve()
    analysis = analyze(repo_root / "src", "repro")
    manifest = build_manifest([repo_root / "src" / "repro"], repo_root)

    # Rule locations are src-root-relative (that is what the harvester
    # sees); rebase to repo-relative so editors and CI annotations agree
    # with the lint's paths.
    findings = [
        replace(d, location=f"src/{d.location}")
        if d.location.startswith("repro/")
        else d
        for d in run_rules(analysis)
    ]
    findings.extend(
        manifest_diagnostics(
            manifest, repo_root / OBSERVABILITY_DOC, OBSERVABILITY_DOC
        )
    )

    if baseline_path is None:
        baseline_path = repo_root / DEFAULT_BASELINE
    baseline = (
        Baseline.load(baseline_path)
        if baseline_path.exists()
        else Baseline.empty()
    )
    kept, suppressed = apply_baseline(findings, baseline)

    reports = {MANIFEST_REPORT: render_manifest(manifest)}
    if write_reports:
        for relpath, content in reports.items():
            target = repo_root / relpath
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(content, encoding="utf-8")
    else:
        kept.extend(_report_drift(repo_root, reports))

    kept.sort(key=Diagnostic.sort_key)
    return EffectsResult(
        analysis=analysis,
        manifest=manifest,
        diagnostics=kept,
        suppressed=suppressed,
        reports=reports,
    )
