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
from repro.analysis.effects.rules import run_rules

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
# EFF004: ambient-context discipline
# ----------------------------------------------------------------------
def test_eff004_guards_the_real_telemetry_slot_shape(tmp_path):
    # The slot as repro.obs.context defines it: a module global rebound
    # with ``global`` by use_telemetry, and read through an accessor.
    diagnostics = run_rules(_analyze(tmp_path, {
        "repro/obs/context.py": """
            class Telemetry:
                registry = None

            _ACTIVE_TELEMETRY = Telemetry()

            def current_telemetry():
                return _ACTIVE_TELEMETRY

            class use_telemetry:
                def __init__(self, telemetry):
                    self.telemetry = telemetry

                def __enter__(self):
                    global _ACTIVE_TELEMETRY
                    self._outer = _ACTIVE_TELEMETRY
                    _ACTIVE_TELEMETRY = self.telemetry
                    return self.telemetry

                def __exit__(self, *exc):
                    global _ACTIVE_TELEMETRY
                    _ACTIVE_TELEMETRY = self._outer

            def reset_telemetry():
                global _ACTIVE_TELEMETRY
                _ACTIVE_TELEMETRY = Telemetry()
        """,
        "repro/serving/sneaky.py": """
            from repro.obs.context import _ACTIVE_TELEMETRY

            def registry():
                return _ACTIVE_TELEMETRY.registry
        """,
        "repro/serving/engine.py": """
            from repro.obs.context import current_telemetry

            class RealTimeEngine:
                def ingest(self, events):
                    telemetry = current_telemetry()
                    telemetry.registry.counter("engine.events").inc()
                    monitor = telemetry.monitor
                    monitor.observe(events)

                def refresh(self):
                    registry = current_telemetry().registry
                    registry.histogram("engine.refresh_seconds")
                    current_telemetry().slo.evaluate()
        """,
    }))
    slot = "repro.obs.context._ACTIVE_TELEMETRY"
    found = sorted(
        (d.code, d.detail("symbol"), d.detail("channel")) for d in diagnostics
    )
    # A rebind outside the scoping constructs and a direct cross-module
    # import fire; use_telemetry and the engine's accessor reads do not.
    assert found == [
        ("EFF004", "repro.obs.context.reset_telemetry", slot),
        ("EFF004", "repro.serving.sneaky.registry", slot),
    ]


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


def test_manifest_counts_span_only_on_a_tracer_or_recorder(tmp_path):
    manifest, diagnostics = _manifest_for(tmp_path, """
        class Side:
            def span(self, start, stop):
                return stop - start

        def report(side, tracer, self, start):
            side.span(start, 2)
            Side().span("not.a.span", 3)
            with tracer.span("work.tracer"):
                pass
            with self._recorder.span("work.recorder"):
                pass
            with Tracer().span("work.fresh"):
                pass
            with maybe_span("work.maybe"):
                pass
    """)
    assert diagnostics == []
    assert sorted(name for name, _ in manifest.entries) == [
        "work.fresh", "work.maybe", "work.recorder", "work.tracer",
    ]


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
        "EFF004", "error", "cross-module read of ambient slot",
        location="src/repro/serving/engine.py:150",
        symbol="repro.serving.engine.RealTimeEngine.ingest",
        channel="repro.obs.context._ACTIVE_TELEMETRY",
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
        "EFF004", "error", "msg", location="src/x.py:1",
        symbol="repro.x.f", channel="repro.y._ACTIVE_X",
    )


def test_baseline_suppresses_matching_finding_with_reason(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps({"version": 1, "entries": [{
        "code": "EFF004", "symbol": "repro.x.f",
        "detail": "repro.y._ACTIVE_X", "reason": "shared telemetry",
    }]}))
    kept, suppressed = apply_baseline([_finding()], Baseline.load(path))
    assert kept == []
    assert len(suppressed) == 1


def test_baseline_reasonless_entry_is_an_error(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps({"version": 1, "entries": [{
        "code": "EFF004", "symbol": "repro.x.f",
        "detail": "repro.y._ACTIVE_X", "reason": "  ",
    }]}))
    kept, suppressed = apply_baseline([_finding()], Baseline.load(path))
    assert suppressed == []
    assert [d.code for d in kept] == ["EFF000"]


def test_baseline_stale_entry_is_an_error():
    baseline = Baseline(entries={
        ("EFF004", "repro.gone.f", "repro.y._ACTIVE_X"): BaselineEntry(
            "EFF004", "repro.gone.f", "repro.y._ACTIVE_X", "obsolete"
        ),
    })
    kept, suppressed = apply_baseline([], baseline)
    assert [d.code for d in kept] == ["EFF000"]
    assert "stale" in kept[0].message


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


def test_repo_baseline_entries_all_carry_reasons():
    baseline = Baseline.load(REPO_ROOT / "effects_baseline.json")
    assert baseline.entries, "baseline unexpectedly empty"
    for entry in baseline.entries.values():
        assert entry.reason.strip(), f"reason-less baseline entry {entry.key}"


# ----------------------------------------------------------------------
# The generated manifest is keyed by name, not line
# ----------------------------------------------------------------------
def _rendered_manifest(src_root):
    manifest = build_manifest([src_root / "repro"], src_root.parent)
    return render_manifest(manifest)


def test_reports_survive_lines_moving(tmp_path):
    import shutil

    src_root = tmp_path / "src"
    shutil.copytree(
        REPO_ROOT / "src" / "repro",
        src_root / "repro",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    before = _rendered_manifest(src_root)
    for relpath in ("serving/engine.py", "obs/tracing.py"):
        module = src_root / "repro" / relpath
        module.write_text("\n" * 7 + module.read_text(encoding="utf-8"),
                          encoding="utf-8")
    after = _rendered_manifest(src_root)
    assert "engine.refreshes" in before
    assert after == before
