"""Effects analyzer: fixtures per rule pack, baseline semantics, repo gate."""

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.effects import run_effects
from repro.analysis.effects.baseline import (
    Baseline,
    BaselineEntry,
    apply_baseline,
)
from repro.analysis.effects.manifest import (
    build_manifest,
    documented_metrics,
    manifest_diagnostics,
    render_manifest,
)
from repro.analysis.effects.propagate import analyze
from repro.analysis.effects.report import render_thread_hostility
from repro.analysis.effects.rules import engine_entry_points, run_rules

REPO_ROOT = Path(__file__).resolve().parents[2]


def _analyze(tmp_path, files):
    """Write a fake ``repro`` package under a tmp src root and analyze it."""
    for relpath, source in files.items():
        path = tmp_path / "src" / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
    return analyze(tmp_path / "src", "repro")


def _rule_codes(tmp_path, files):
    return sorted(d.code for d in run_rules(_analyze(tmp_path, files)))


# ----------------------------------------------------------------------
# EFF001: view-escape
# ----------------------------------------------------------------------
def test_eff001_fires_on_mutated_returned_view(tmp_path):
    codes = _rule_codes(tmp_path, {
        "repro/store.py": """
            def head(buf):
                return buf[:4]

            def caller(buf):
                window = head(buf)
                window += 1.0
                return window
        """,
    })
    assert codes == ["EFF001"]


def test_eff001_passes_when_callee_copies(tmp_path):
    codes = _rule_codes(tmp_path, {
        "repro/store.py": """
            def head(buf):
                return buf[:4].copy()

            def caller(buf):
                window = head(buf)
                window += 1.0
                return window
        """,
    })
    assert codes == []


# ----------------------------------------------------------------------
# EFF002: saved-buffer mutation
# ----------------------------------------------------------------------
def test_eff002_fires_on_capture_mutated_after_closure(tmp_path):
    codes = _rule_codes(tmp_path, {
        "repro/ops.py": """
            def forward(x):
                saved = x * 1.0
                def backward(grad):
                    return grad * saved
                saved += 1.0
                return backward
        """,
    })
    assert codes == ["EFF002"]


def test_eff002_fires_when_capture_escapes_to_mutating_callee(tmp_path):
    codes = _rule_codes(tmp_path, {
        "repro/ops.py": """
            def scale_(buf):
                buf += 1.0

            def forward(x):
                saved = x * 1.0
                def backward(grad):
                    return grad * saved
                scale_(saved)
                return backward
        """,
    })
    assert codes == ["EFF002"]


def test_eff002_passes_when_mutation_precedes_closure(tmp_path):
    codes = _rule_codes(tmp_path, {
        "repro/ops.py": """
            def forward(x):
                saved = x * 1.0
                saved += 1.0
                def backward(grad):
                    return grad * saved
                return backward
        """,
    })
    assert codes == []


# ----------------------------------------------------------------------
# EFF003: thread-hostility (+ the report rendering)
# ----------------------------------------------------------------------
_ENGINE_HOSTILE = {
    "repro/serving/engine.py": """
        from repro.serving.cache import remember

        class RealTimeEngine:
            def ingest(self, events):
                remember(events)
    """,
    "repro/serving/cache.py": """
        _CACHE = []

        def remember(events):
            _CACHE.append(events)
    """,
}


def test_eff003_fires_on_global_write_reachable_from_entry(tmp_path):
    analysis = _analyze(tmp_path, _ENGINE_HOSTILE)
    diagnostics = [d for d in run_rules(analysis) if d.code == "EFF003"]
    assert len(diagnostics) == 1
    diagnostic = diagnostics[0]
    assert diagnostic.detail("channel") == "repro.serving.cache._CACHE"
    assert diagnostic.detail("symbol") == "repro.serving.cache.remember"
    assert diagnostic.detail("entries") == "ingest"


def test_eff003_report_names_entry_and_path(tmp_path):
    analysis = _analyze(tmp_path, _ENGINE_HOSTILE)
    assert engine_entry_points(analysis) == [
        "repro.serving.engine.RealTimeEngine.ingest"
    ]
    report = render_thread_hostility(analysis)
    assert "## `RealTimeEngine.ingest`" in report
    assert "repro.serving.cache._CACHE" in report
    assert "serving.cache.remember" in report  # the example path


def test_eff003_passes_when_state_is_per_engine(tmp_path):
    codes = _rule_codes(tmp_path, {
        "repro/serving/engine.py": """
            class RealTimeEngine:
                def __init__(self):
                    self._cache = []

                def ingest(self, events):
                    self._cache.append(events)
        """,
    })
    assert codes == []


# ----------------------------------------------------------------------
# EFF004: ambient-context discipline
# ----------------------------------------------------------------------
def test_eff004_fires_on_cross_module_stack_write_and_read(tmp_path):
    diagnostics = run_rules(_analyze(tmp_path, {
        "repro/obs/context.py": """
            _ACTIVE_THINGS = []

            def use_thing(thing):
                _ACTIVE_THINGS.append(thing)
        """,
        "repro/serving/sneaky.py": """
            from repro.obs.context import _ACTIVE_THINGS

            def push(thing):
                _ACTIVE_THINGS.append(thing)

            def peek():
                return _ACTIVE_THINGS[-1]
        """,
    }))
    codes = sorted(d.code for d in diagnostics)
    assert codes == ["EFF004", "EFF004"]
    symbols = sorted(d.detail("symbol") for d in diagnostics)
    assert symbols == [
        "repro.serving.sneaky.peek",
        "repro.serving.sneaky.push",
    ]


def test_eff004_passes_for_owner_module_scoping_constructs(tmp_path):
    codes = _rule_codes(tmp_path, {
        "repro/obs/context.py": """
            _ACTIVE_THINGS = []

            def get_active_thing():
                return _ACTIVE_THINGS[-1] if _ACTIVE_THINGS else None

            class use_thing:
                def __init__(self, thing):
                    self.thing = thing

                def __enter__(self):
                    _ACTIVE_THINGS.append(self.thing)
                    return self.thing

                def __exit__(self, *exc):
                    _ACTIVE_THINGS.pop()
        """,
    })
    assert codes == []


# ----------------------------------------------------------------------
# EFF005: interprocedural dtype promotion
# ----------------------------------------------------------------------
_DTYPE_HELPER_BROKEN = """
    import numpy as np

    def scale(values):
        return np.asarray(values, dtype=np.float64)
"""


def test_eff005_fires_on_out_of_scope_float64_helper(tmp_path):
    diagnostics = run_rules(_analyze(tmp_path, {
        "repro/metrics/helper.py": _DTYPE_HELPER_BROKEN,
        "repro/core/model.py": """
            from repro.metrics.helper import scale

            def score(values):
                return scale(values)
        """,
    }))
    codes = [d.code for d in diagnostics]
    assert codes == ["EFF005"]
    assert diagnostics[0].detail("origin") == "repro.metrics.helper.scale"


def test_eff005_sees_through_call_chains(tmp_path):
    codes = _rule_codes(tmp_path, {
        "repro/metrics/helper.py": _DTYPE_HELPER_BROKEN,
        "repro/metrics/outer.py": """
            from repro.metrics.helper import scale

            def normalise(values):
                return scale(values)
        """,
        "repro/core/model.py": """
            from repro.metrics.outer import normalise

            def score(values):
                return normalise(values)
        """,
    })
    assert codes == ["EFF005"]


def test_eff005_respects_reasoned_suppression_at_origin(tmp_path):
    codes = _rule_codes(tmp_path, {
        "repro/metrics/helper.py": """
            import numpy as np

            def scale(values):
                return np.asarray(values, dtype=np.float64)  # repro-lint: disable=EFF005 -- exact metric math
        """,
        "repro/core/model.py": """
            from repro.metrics.helper import scale

            def score(values):
                return scale(values)
        """,
    })
    assert codes == []


# ----------------------------------------------------------------------
# Manifest: EFF006 conflicts and EFF007 docs drift
# ----------------------------------------------------------------------
def _manifest_for(tmp_path, source, docs=None):
    src = tmp_path / "src" / "repro" / "mod.py"
    src.parent.mkdir(parents=True, exist_ok=True)
    src.write_text(textwrap.dedent(source), encoding="utf-8")
    docs_path = tmp_path / "docs" / "observability.md"
    if docs is not None:
        docs_path.parent.mkdir(parents=True, exist_ok=True)
        docs_path.write_text(textwrap.dedent(docs), encoding="utf-8")
    manifest = build_manifest([tmp_path / "src"], tmp_path)
    diagnostics = manifest_diagnostics(
        manifest, docs_path, "docs/observability.md"
    )
    return manifest, diagnostics


def test_eff006_flags_kind_conflict_and_span_collision(tmp_path):
    _, diagnostics = _manifest_for(tmp_path, """
        def report(registry):
            registry.counter("jobs.done").inc()
            registry.gauge("jobs.done").set(1.0)
            with maybe_span("jobs.done"):
                pass
    """)
    assert [d.code for d in diagnostics] == ["EFF006", "EFF006"]


def test_eff007_flags_documented_name_with_wrong_kind_or_gone(tmp_path):
    _, diagnostics = _manifest_for(
        tmp_path,
        """
            def report(registry):
                registry.counter("engine.refreshes").inc()
        """,
        docs="""
            | metric | kind | meaning |
            |--------|------|---------|
            | `engine.refreshes` | histogram | wrong kind |
            | `engine.gone` | counter | removed |
        """,
    )
    assert [d.code for d in diagnostics] == ["EFF007", "EFF007"]


def test_manifest_dynamic_prefix_covers_documented_names(tmp_path):
    manifest, diagnostics = _manifest_for(
        tmp_path,
        """
            def report(registry, group):
                registry.histogram(f"trainer.grad_norm.{group}").observe(1.0)
        """,
        docs="""
            | metric | kind |
            |--------|------|
            | `trainer.grad_norm.encoder` | histogram |
        """,
    )
    assert diagnostics == []
    assert manifest.entries[("trainer.grad_norm.*", "histogram")].dynamic
    text = render_manifest(manifest)
    assert "`trainer.grad_norm.*` *(dynamic)*" in text


def test_documented_metrics_parses_combined_rows():
    rows = documented_metrics(
        "| `a.x` / `a.y` | counter / histogram | two |\n"
        "| `b.z` | gauge | one |\n"
        "| `Counter` | monotone accumulator | not a metric row |\n"
    )
    assert rows == [("a.x", "counter", 1), ("a.y", "histogram", 1),
                    ("b.z", "gauge", 2)]


# ----------------------------------------------------------------------
# Diagnostic JSON round-trip
# ----------------------------------------------------------------------
def test_diagnostic_json_round_trip():
    original = Diagnostic.make(
        "EFF003", "error", "write reachable from entry point",
        location="src/repro/serving/engine.py:150",
        symbol="repro.serving.engine.RealTimeEngine.ingest",
        channel="registry.counter",
    )
    payload = json.loads(json.dumps(original.to_json()))
    assert Diagnostic.from_json(payload) == original


def test_diagnostic_from_json_rejects_bad_details():
    with pytest.raises(ValueError):
        Diagnostic.from_json({
            "code": "X", "severity": "error", "message": "m",
            "details": ["not", "a", "dict"],
        })


# ----------------------------------------------------------------------
# Baseline semantics
# ----------------------------------------------------------------------
def _finding():
    return Diagnostic.make(
        "EFF003", "error", "msg", location="src/x.py:1",
        symbol="repro.x.f", channel="registry.counter",
    )


def test_baseline_suppresses_matching_finding_with_reason(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps({"version": 1, "entries": [{
        "code": "EFF003", "symbol": "repro.x.f",
        "detail": "registry.counter", "reason": "shared telemetry",
    }]}))
    kept, suppressed = apply_baseline([_finding()], Baseline.load(path))
    assert kept == []
    assert len(suppressed) == 1


def test_baseline_reasonless_entry_is_an_error(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps({"version": 1, "entries": [{
        "code": "EFF003", "symbol": "repro.x.f",
        "detail": "registry.counter", "reason": "  ",
    }]}))
    kept, suppressed = apply_baseline([_finding()], Baseline.load(path))
    assert suppressed == []
    assert [d.code for d in kept] == ["EFF000"]


def test_baseline_stale_entry_is_an_error():
    baseline = Baseline(entries={
        ("EFF003", "repro.gone.f", "registry.counter"): BaselineEntry(
            "EFF003", "repro.gone.f", "registry.counter", "obsolete"
        ),
    })
    kept, suppressed = apply_baseline([], baseline)
    assert [d.code for d in kept] == ["EFF000"]
    assert "stale" in kept[0].message


def test_baseline_merge_prefers_self_and_unions(tmp_path):
    a = Baseline(entries={
        ("C", "s", "d"): BaselineEntry("C", "s", "d", "mine"),
    })
    b = Baseline(entries={
        ("C", "s", "d"): BaselineEntry("C", "s", "d", "theirs"),
        ("C", "t", "d"): BaselineEntry("C", "t", "d", "extra"),
    })
    merged = a.merge(b)
    assert merged.entries[("C", "s", "d")].reason == "mine"
    assert ("C", "t", "d") in merged.entries
    round_tripped = Baseline.load(_save(tmp_path, merged))
    assert round_tripped.entries == merged.entries


def _save(tmp_path, baseline):
    path = tmp_path / "merged.json"
    baseline.save(path)
    return path


def test_baseline_load_rejects_duplicates_and_garbage(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text("not json")
    with pytest.raises(ValueError):
        Baseline.load(path)
    path.write_text(json.dumps({"version": 1, "entries": [
        {"code": "C", "symbol": "s", "detail": "d", "reason": "r"},
        {"code": "C", "symbol": "s", "detail": "d", "reason": "r2"},
    ]}))
    with pytest.raises(ValueError):
        Baseline.load(path)


# ----------------------------------------------------------------------
# The repo gate (mirrors test_repo_lints_clean)
# ----------------------------------------------------------------------
def test_repo_effects_clean():
    result = run_effects(REPO_ROOT)
    assert result.ok, "\n".join(d.format() for d in result.diagnostics)
    # The acceptance surface: the committed report enumerates the writes
    # reachable from every serving entry point.
    report = result.reports["docs/thread_hostility.md"]
    for entry in ("ingest", "refresh", "top_k", "recommend_for_user"):
        assert f"## `RealTimeEngine.{entry}`" in report


def test_repo_baseline_entries_all_carry_reasons():
    baseline = Baseline.load(REPO_ROOT / "effects_baseline.json")
    assert baseline.entries, "baseline unexpectedly empty"
    for entry in baseline.entries.values():
        assert entry.reason.strip(), f"reason-less baseline entry {entry.key}"


# ----------------------------------------------------------------------
# Generated reports are keyed by symbol, not line
# ----------------------------------------------------------------------
def _rendered_reports(src_root):
    analysis = analyze(src_root, "repro")
    manifest = build_manifest([src_root / "repro"], src_root.parent)
    return render_thread_hostility(analysis), render_manifest(manifest)


def test_reports_survive_lines_moving(tmp_path):
    import shutil

    src_root = tmp_path / "src"
    shutil.copytree(
        REPO_ROOT / "src" / "repro",
        src_root / "repro",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    before = _rendered_reports(src_root)
    for relpath in ("serving/engine.py", "obs/tracing.py"):
        module = src_root / "repro" / relpath
        module.write_text("\n" * 7 + module.read_text(encoding="utf-8"),
                          encoding="utf-8")
    after = _rendered_reports(src_root)
    assert "RealTimeEngine" in before[0] and "engine.refreshes" in before[1]
    assert after == before
