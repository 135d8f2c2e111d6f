"""Engine-aware lint: rule hits, scoping, suppressions, repo cleanliness."""

from pathlib import Path

import pytest

from repro.analysis.lint import default_rules, lint_file, run_lint

REPO_ROOT = Path(__file__).resolve().parents[2]


def _lint_source(tmp_path, relpath, source):
    """Write ``source`` at ``relpath`` under a tmp root and lint it."""
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source, encoding="utf-8")
    return lint_file(path, default_rules(), root=tmp_path)


def _codes(diagnostics):
    return [d.code for d in diagnostics]


# ----------------------------------------------------------------------
# ATN001: raw Tensor.data mutation
# ----------------------------------------------------------------------
def test_atn001_flags_data_assignment_and_augassign(tmp_path):
    source = "x.data[0] = 1.0\nx.data += 2.0\nx.data = y\n"
    diagnostics = _lint_source(tmp_path, "src/repro/core/foo.py", source)
    assert _codes(diagnostics) == ["ATN001", "ATN001", "ATN001"]


def test_atn001_exempts_engine_modules(tmp_path):
    source = "x.data[0] = 1.0\n"
    for exempt in ("src/repro/nn/tensor.py", "src/repro/nn/optim/adam.py"):
        assert _lint_source(tmp_path, exempt, source) == []


def test_atn001_reads_are_fine(tmp_path):
    source = "y = x.data[0]\nz = x.data.copy()\n"
    assert _lint_source(tmp_path, "src/repro/core/foo.py", source) == []


# ----------------------------------------------------------------------
# ATN002: np.float64 literals in dtype-configurable paths
# ----------------------------------------------------------------------
def test_atn002_flags_float64_in_scoped_paths(tmp_path):
    source = "import numpy as np\nx = np.zeros(3, dtype=np.float64)\n"
    diagnostics = _lint_source(tmp_path, "src/repro/core/foo.py", source)
    assert _codes(diagnostics) == ["ATN002"]


def test_atn002_ignores_out_of_scope_and_tensor_py(tmp_path):
    source = "import numpy as np\nx = np.float64(1.0)\n"
    for relpath in ("tests/test_foo.py", "src/repro/nn/tensor.py",
                    "src/repro/serving/engine.py"):
        assert _lint_source(tmp_path, relpath, source) == []


# ----------------------------------------------------------------------
# ATN003: np.add.at scatter-adds
# ----------------------------------------------------------------------
def test_atn003_flags_add_at_everywhere_but_tensor_py(tmp_path):
    source = "import numpy as np\nnp.add.at(table, ids, grads)\n"
    diagnostics = _lint_source(tmp_path, "src/repro/core/foo.py", source)
    assert _codes(diagnostics) == ["ATN003"]
    assert _lint_source(tmp_path, "src/repro/nn/tensor.py", source) == []


# ----------------------------------------------------------------------
# ATN004: .grad duck-typing violations
# ----------------------------------------------------------------------
def test_atn004_flags_single_representation_attrs(tmp_path):
    source = "a = p.grad.astype(float)\nb = p.grad.nnz_rows\n"
    diagnostics = _lint_source(tmp_path, "src/repro/core/foo.py", source)
    assert _codes(diagnostics) == ["ATN004", "ATN004"]
    messages = " | ".join(sorted(d.message for d in diagnostics))
    assert ".grad.astype exists only on np.ndarray" in messages
    assert ".grad.nnz_rows exists only on SparseGrad" in messages


def test_atn004_shared_api_and_engine_internals_pass(tmp_path):
    shared = "a = p.grad.sum()\nb = p.grad.dtype\nc = p.grad.ndim\n"
    assert _lint_source(tmp_path, "src/repro/core/foo.py", shared) == []
    dense_only = "a = p.grad.copy()\n"
    assert _lint_source(tmp_path, "src/repro/nn/optim/adam.py", dense_only) == []


# ----------------------------------------------------------------------
# ATN005: numpy's process-global RNG
# ----------------------------------------------------------------------
def test_atn005_flags_global_rng_calls(tmp_path):
    source = (
        "import numpy as np\n"
        "np.random.seed(0)\n"
        "x = np.random.rand(3)\n"
    )
    diagnostics = _lint_source(tmp_path, "tests/test_foo.py", source)
    assert _codes(diagnostics) == ["ATN005", "ATN005"]


def test_atn005_allows_seeded_generators(tmp_path):
    source = (
        "import numpy as np\n"
        "rng = np.random.default_rng(0)\n"
        "x = rng.random(3)\n"
    )
    assert _lint_source(tmp_path, "benchmarks/bench_foo.py", source) == []


# ----------------------------------------------------------------------
# benchmarks/ in the dtype scope (ATN002)
# ----------------------------------------------------------------------
def test_atn002_covers_benchmarks(tmp_path):
    source = "import numpy as np\nx = np.zeros(3, dtype=np.float64)\n"
    diagnostics = _lint_source(tmp_path, "benchmarks/bench_foo.py", source)
    assert _codes(diagnostics) == ["ATN002"]


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------
def test_suppression_with_reason_drops_finding(tmp_path):
    source = (
        "x.data[0] = 1.0  "
        "# repro-lint: disable=ATN001 -- test fixture needs a raw write\n"
    )
    assert _lint_source(tmp_path, "src/repro/core/foo.py", source) == []


def test_suppression_without_reason_is_atn000(tmp_path):
    source = "x.data[0] = 1.0  # repro-lint: disable=ATN001\n"
    diagnostics = _lint_source(tmp_path, "src/repro/core/foo.py", source)
    assert _codes(diagnostics) == ["ATN000"]


def test_suppression_covers_only_named_codes(tmp_path):
    source = (
        "import numpy as np\n"
        "x.data = np.float64(1.0)  # repro-lint: disable=ATN001 -- only 001\n"
    )
    diagnostics = _lint_source(tmp_path, "src/repro/core/foo.py", source)
    assert _codes(diagnostics) == ["ATN002"]


def test_suppression_all_wildcard(tmp_path):
    source = (
        "import numpy as np\n"
        "x.data = np.float64(1.0)  # repro-lint: disable=ALL -- fixture line\n"
    )
    assert _lint_source(tmp_path, "src/repro/core/foo.py", source) == []


def test_parse_error_reported(tmp_path):
    diagnostics = _lint_source(tmp_path, "src/repro/core/foo.py", "def broken(:\n")
    assert _codes(diagnostics) == ["parse-error"]


# ----------------------------------------------------------------------
# The acceptance gate: the repo itself lints clean
# ----------------------------------------------------------------------
def test_repo_lints_clean():
    diagnostics = run_lint(
        [
            str(REPO_ROOT / "src"),
            str(REPO_ROOT / "tests"),
            str(REPO_ROOT / "benchmarks"),
        ],
        root=REPO_ROOT,
    )
    assert diagnostics == [], "\n".join(d.format() for d in diagnostics)
