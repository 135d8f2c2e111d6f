"""Command-line interface: ``atnn-repro <experiment> [--preset NAME]``.

Examples
--------
::

    atnn-repro list
    atnn-repro table1 --preset smoke
    atnn-repro table1 --preset smoke --telemetry out.jsonl
    atnn-repro all --preset default --output results/ --log-level info
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.experiments import available_experiments, run_all, run_experiment
from repro.obs import TelemetrySession, configure_logging
from repro.utils.serialization import save_json

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="atnn-repro",
        description=(
            "Reproduce the experiments of 'ATNN: Adversarial Two-Tower "
            "Neural Network for New Item's Popularity Prediction in "
            "E-commerce' (ICDE 2021)."
        ),
    )
    parser.add_argument(
        "experiment",
        help=(
            "experiment name ('list' to enumerate, 'all' to run every "
            "table): " + ", ".join(available_experiments())
        ),
    )
    parser.add_argument(
        "--preset",
        default="default",
        choices=["smoke", "default", "paper"],
        help="size preset (smoke: seconds, default: minutes, paper: hours)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="directory for JSON result dumps (optional)",
    )
    parser.add_argument(
        "--telemetry",
        type=Path,
        default=None,
        help=(
            "write a JSONL telemetry report of the run (metrics, per-epoch "
            "losses, per-op autograd timings, spans) to this path"
        ),
    )
    parser.add_argument(
        "--monitor",
        action="store_true",
        help=(
            "arm the online model-quality monitor for the run: streaming "
            "AUC/calibration over serving outcomes, score-drift detection "
            "(PSI/KL), cold-start cohort tracking and threshold alerts; "
            "the summary prints at the end and quality/drift/coldstart/"
            "alert records land in the --telemetry report"
        ),
    )
    parser.add_argument(
        "--slo",
        action="store_true",
        help=(
            "arm the serving SLO tracker for the run: rolling error "
            "budgets and multi-window burn-rate alerts over request "
            "latency, availability and the streaming-AUC floor; the "
            "budget summary prints at the end and slo.* gauges land in "
            "--prometheus-out / --telemetry exports"
        ),
    )
    parser.add_argument(
        "--flight-out",
        type=Path,
        default=None,
        help=(
            "arm the serving flight recorder with this postmortem "
            "directory: recent per-request span trees are retained "
            "(slowest kept as tail exemplars) and a postmortem bundle "
            "is dumped when an alert fires or a request errors; replay "
            "bundles with 'python -m repro.obs.flight <bundle>'"
        ),
    )
    parser.add_argument(
        "--spool-dir",
        type=Path,
        default=None,
        help=(
            "spool this run's mergeable telemetry snapshot frames to "
            "this directory while it executes; a fleet collector "
            "(python -m repro.obs.agg <dir>) merges the spools of several "
            "runs, one per --shard-label, into one fleet-level view"
        ),
    )
    parser.add_argument(
        "--shard-label",
        default=None,
        help=(
            "name this process's shard for the run: stamped on request "
            "records, postmortem bundle names and spooled snapshot "
            "frames so merged fleet views can attribute state"
        ),
    )
    parser.add_argument(
        "--prometheus-out",
        type=Path,
        default=None,
        help=(
            "write the final metrics registry in Prometheus text "
            "exposition format to this path"
        ),
    )
    parser.add_argument(
        "--trace-out",
        type=Path,
        default=None,
        help=(
            "write a Chrome Trace Event Format file (load in "
            "chrome://tracing or ui.perfetto.dev) of spans and autograd "
            "ops to this path"
        ),
    )
    parser.add_argument(
        "--log-level",
        default=None,
        choices=["debug", "info", "warning", "error"],
        help="enable structured logging to stderr at this level",
    )
    parser.add_argument(
        "--sanitize",
        action="store_true",
        help=(
            "arm the runtime autograd sanitizer for the whole run "
            "(saved-buffer version checks + NaN/Inf taint tracking); "
            "a buffer-discipline violation aborts with a diagnostic"
        ),
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)

    if args.log_level is not None:
        configure_logging(args.log_level)

    if args.experiment == "list":
        for name in available_experiments():
            print(name)
        return 0

    session: Optional[TelemetrySession] = None
    needs_session = (
        args.telemetry is not None
        or args.monitor
        or args.slo
        or args.flight_out is not None
        or args.trace_out is not None
        or args.prometheus_out is not None
        or args.spool_dir is not None
    )
    if needs_session:
        session = TelemetrySession(
            label=f"{args.experiment}:{args.preset}",
            monitor=args.monitor,
            trace_events=args.trace_out is not None,
            slo=args.slo,
            flight=args.flight_out is not None,
            postmortem_dir=args.flight_out,
            spool_dir=args.spool_dir,
            shard_label=args.shard_label,
        )
        session.start()
    sanitizer = None
    if args.sanitize:
        from repro.analysis import GradSanitizer

        sanitizer = GradSanitizer(track_nonfinite=True).enable()
    try:
        if args.experiment == "all":
            results = run_all(args.preset, verbose=True)
            if args.output is not None:
                for name, result in results.items():
                    if hasattr(result, "as_dict"):
                        save_json(result.as_dict(), args.output / f"{name}.json")
            return 0

        try:
            result = run_experiment(args.experiment, preset=args.preset)
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        print(result.render())
        if args.output is not None and hasattr(result, "as_dict"):
            save_json(result.as_dict(), args.output / f"{args.experiment}.json")
        return 0
    finally:
        if sanitizer is not None:
            sanitizer.disable()
            print(
                "[sanitizer: "
                f"{sanitizer.stats['forward_ops']} ops checked, "
                f"{len(sanitizer.diagnostics)} finding(s)]"
            )
        if session is not None:
            session.stop()
            if session.monitor is not None:
                print(session.monitor.to_text())
            if session.slo is not None:
                print(session.slo.to_text())
            if session.flight is not None:
                print(session.flight.to_text())
                for bundle in session.flight.dumps:
                    print(f"[postmortem bundle written to {bundle}]")
            if args.telemetry is not None:
                session.write_jsonl(args.telemetry)
                print(f"[telemetry report written to {args.telemetry}]")
            if session.shipper is not None:
                print(
                    f"[telemetry snapshots spooled to {session.shipper.spool_path}]"
                )
            if args.prometheus_out is not None:
                args.prometheus_out.parent.mkdir(parents=True, exist_ok=True)
                args.prometheus_out.write_text(
                    session.registry.to_prometheus_text(), encoding="utf-8"
                )
                print(f"[prometheus metrics written to {args.prometheus_out}]")
            if args.trace_out is not None:
                session.write_chrome_trace(args.trace_out)
                print(f"[chrome trace written to {args.trace_out}]")


if __name__ == "__main__":
    sys.exit(main())
