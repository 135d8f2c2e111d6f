"""CLI driver: ``python -m repro.analysis {lint,effects,check-model,sanitize-smoke}``.

Sub-commands
------------
``lint [paths...]``
    Run the engine-aware AST rules (``ATN001``–``ATN005``) over the
    given paths (default ``src tests benchmarks``).  Exit 1 on any
    finding.
``effects``
    Run the interprocedural effect & aliasing analyzer
    (``EFF001``–``EFF008``) over ``src/repro``, apply the
    reason-mandatory baseline, and check the generated report for
    drift.  ``--write-reports`` regenerates ``docs/metrics_manifest.md``.
``check-model [names...]``
    Run the static graph checker over registry models (default: all)
    against a structurally complete demo schema, optionally under both
    float dtypes.  Exit 1 if any model fails.
``sanitize-smoke``
    Train a small ATNN for a few steps with the runtime sanitizer fully
    armed (version checks, content fingerprints, NaN/Inf taint).  Exit 1
    on any sanitizer finding or non-finite loss — the CI proof that the
    engine's buffer discipline holds on the real training path.

``lint`` and ``effects`` take ``--format {text,json,github}``;
``github`` emits workflow-command annotations so CI failures render
inline on the diff.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

import numpy as np

__all__ = ["main"]


def _split_location(location: str):
    """``path:line:col`` / ``path:line`` / ``path`` -> (path, line, col)."""
    parts = location.split(":")
    path, line, col = parts[0], 0, 0
    if len(parts) > 1 and parts[1].isdigit():
        line = int(parts[1])
    if len(parts) > 2 and parts[2].isdigit():
        col = int(parts[2])
    return path, line, col


def _emit_diagnostics(diagnostics, fmt: str) -> None:
    from repro.analysis.diagnostics import Diagnostic, render_diagnostics

    ordered = sorted(diagnostics, key=Diagnostic.sort_key)
    if fmt == "json":
        print(json.dumps([d.to_json() for d in ordered], indent=2))
    elif fmt == "github":
        for d in ordered:
            path, line, _ = _split_location(d.location)
            anchor = f" file={path},line={max(line, 1)}," if path else " "
            # https://docs.github.com/actions: workflow commands render
            # ::error/::warning lines as inline annotations on the diff.
            print(f"::{d.severity}{anchor}title={d.code}::{d.message}")
    else:
        print(render_diagnostics(ordered))


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.lint import run_lint

    diagnostics = run_lint(args.paths)
    if diagnostics:
        _emit_diagnostics(diagnostics, args.format)
        print(f"lint: {len(diagnostics)} finding(s)", file=sys.stderr)
        return 1
    if args.format == "json":
        # An empty array, not empty output: consumers parse stdout either way.
        _emit_diagnostics([], args.format)
    else:
        print(f"lint: clean ({', '.join(args.paths)})")
    return 0


def _cmd_effects(args: argparse.Namespace) -> int:
    from repro.analysis.effects import run_effects

    result = run_effects(
        Path(args.root),
        baseline_path=Path(args.baseline) if args.baseline else None,
        write_reports=args.write_reports,
    )
    summary = (
        f"effects: {len(result.analysis.modules)} modules, "
        f"{len(result.analysis.functions)} functions, "
        f"{len(result.manifest.names())} instrument names, "
        f"{len(result.suppressed)} baselined finding(s)"
    )
    if result.diagnostics:
        _emit_diagnostics(result.diagnostics, args.format)
        print(
            f"{summary}, {len(result.diagnostics)} unsuppressed finding(s)",
            file=sys.stderr,
        )
        return 1
    if args.format == "json":
        _emit_diagnostics([], args.format)
    else:
        written = " (reports written)" if args.write_reports else ""
        print(f"{summary} — clean{written}")
    return 0


def _cmd_check_model(args: argparse.Namespace) -> int:
    from repro.analysis.checker import check_model, demo_schema
    from repro.core.registry import available_models, build_model
    from repro.core.towers import TowerConfig
    from repro.nn.tensor import default_dtype

    names = args.models or available_models()
    dtypes = {
        "float64": [np.float64],
        "float32": [np.float32],
        "both": [np.float64, np.float32],
    }[args.dtype]
    config = TowerConfig(
        vector_dim=8, deep_dims=(16, 8), head_dims=(16,), num_cross_layers=1
    )
    schema = demo_schema()
    failures = 0
    for dtype in dtypes:
        with default_dtype(dtype):
            for name in names:
                model = build_model(
                    name, schema, config, rng=np.random.default_rng(args.seed)
                )
                report = check_model(
                    model,
                    schema,
                    seed=args.seed,
                    model_name=f"{name}[{np.dtype(dtype).name}]",
                )
                print(report.format(show_table=args.table))
                if not report.ok:
                    failures += 1
    if failures:
        print(f"check-model: {failures} model(s) failed")
        return 1
    return 0


def _cmd_sanitize_smoke(args: argparse.Namespace) -> int:
    from repro.analysis.checker import demo_schema, schema_inputs
    from repro.analysis.sanitizer import GradSanitizer
    from repro.core.atnn import ATNN
    from repro.core.towers import TowerConfig
    from repro.nn.optim import Adam
    from repro.nn.tensor import Tensor, get_default_dtype

    rng = np.random.default_rng(args.seed)
    schema = demo_schema()
    model = ATNN(
        schema,
        TowerConfig(vector_dim=8, deep_dims=(16, 8), head_dims=(16,), num_cross_layers=1),
        rng=rng,
    )
    optimizer = Adam(model.parameters(), lr=1e-2)
    losses: List[float] = []
    sanitizer = GradSanitizer(track_nonfinite=True, check_content=True)
    with sanitizer:
        for step in range(args.steps):
            features = schema_inputs(schema, args.batch_size, rng)
            labels = Tensor(
                (rng.random(args.batch_size) < 0.3).astype(get_default_dtype())
            )
            forward = model.forward if step % 2 == 0 else model.forward_generator
            optimizer.zero_grad()
            loss = ((forward(features) - labels) ** 2).mean()
            loss.backward()
            optimizer.step()
            losses.append(loss.item())
    print(
        f"sanitize-smoke: {args.steps} steps, "
        f"loss {losses[0]:.4f} -> {losses[-1]:.4f}, stats={sanitizer.stats}"
    )
    if sanitizer.diagnostics:
        for diagnostic in sanitizer.diagnostics:
            print("  " + diagnostic.format())
        return 1
    if not all(np.isfinite(losses)):
        print("sanitize-smoke: non-finite loss")
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Static and runtime analysis passes for the ATNN repo.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    lint = sub.add_parser("lint", help="run the engine-aware AST lint rules")
    lint.add_argument("paths", nargs="*", default=["src", "tests", "benchmarks"])
    lint.add_argument(
        "--format", default="text", choices=["text", "json", "github"]
    )
    lint.set_defaults(func=_cmd_lint)

    effects = sub.add_parser(
        "effects", help="interprocedural effect & aliasing analysis"
    )
    effects.add_argument("--root", default=".", help="repo root (default: cwd)")
    effects.add_argument(
        "--baseline",
        default=None,
        help="baseline file (default: <root>/effects_baseline.json)",
    )
    effects.add_argument(
        "--write-reports",
        action="store_true",
        help="regenerate docs/metrics_manifest.md",
    )
    effects.add_argument(
        "--format", default="text", choices=["text", "json", "github"]
    )
    effects.set_defaults(func=_cmd_effects)

    check = sub.add_parser("check-model", help="static graph checks over models")
    check.add_argument("models", nargs="*", help="registry names (default: all)")
    check.add_argument(
        "--dtype", default="float64", choices=["float64", "float32", "both"]
    )
    check.add_argument("--table", action="store_true", help="print symbolic shapes")
    check.add_argument("--seed", type=int, default=0)
    check.set_defaults(func=_cmd_check_model)

    smoke = sub.add_parser(
        "sanitize-smoke", help="short sanitizer-armed ATNN training run"
    )
    smoke.add_argument("--steps", type=int, default=6)
    smoke.add_argument("--batch-size", type=int, default=32)
    smoke.add_argument("--seed", type=int, default=0)
    smoke.set_defaults(func=_cmd_sanitize_smoke)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # Downstream consumer (e.g. ``... | head``) closed the pipe;
        # redirect stdout to devnull so the interpreter shutdown does
        # not print a second traceback, and exit with the shell's
        # SIGPIPE convention.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(141)
