"""Command-line driver for single runs, ablation sweeps and plotting.

Exit codes: 0 on success, 2 on configuration errors, 3 when a non-sweep
single run diverges numerically.  Every run writes its fully resolved
config next to its outputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .estimator import DivergenceError
from .harness import (
    ConfigError,
    ExperimentReport,
    RunConfig,
    emit_plots,
    run_ablation_n,
    run_ablation_rho,
    run_adjoint_comparison,
    run_single_sample,
    run_window_and_repeats_study,
)

_RUNNERS = {
    "sample": run_single_sample,
    "ablate-n": run_ablation_n,
    "ablate-rho": run_ablation_rho,
    "study-window": run_window_and_repeats_study,
    "compare-adjoint": run_adjoint_comparison,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="symguide", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("sample", "run one guided sample"),
        ("ablate-n", "sweep the estimate-step count n"),
        ("ablate-rho", "sweep the guidance strength rho"),
        ("study-window", "sweep guidance windows and time-travel repeats"),
        ("compare-adjoint", "gradient accuracy and memory table per backward method"),
        ("plot", "render SVG figures from an existing report.json"),
    ]:
        p = sub.add_parser(name, help=help_text)
        if name != "plot":
            p.add_argument("--config", required=True, help="path to the JSON run config")
            p.add_argument("--seed", type=int, default=None, help="override the base seed")
        else:
            p.add_argument("--report", default=None, help="report.json path (default: OUT/report.json)")
        p.add_argument("--out", default=None, help="override the output directory")
    return parser


def _load_config(args: argparse.Namespace) -> RunConfig:
    config = RunConfig.from_json_file(args.config)
    overrides = {}
    if args.seed is not None:
        overrides["base_seed"] = args.seed
    if args.out is not None:
        overrides["out_dir"] = str(args.out)
    return dataclasses.replace(config, **overrides) if overrides else config


def _write_outputs(report: ExperimentReport, config: RunConfig) -> Path:
    out = Path(config.out_dir)
    report.write(out)
    resolved = json.dumps(config.to_resolved_dict(), sort_keys=True, indent=2) + "\n"
    (out / "config.resolved.json").write_text(resolved)
    return out


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "plot":
            if args.out is None and args.report is None:
                raise ConfigError("plot needs --report and/or --out")
            out = Path(args.out) if args.out else Path(args.report).parent
            report_path = Path(args.report) if args.report else out / "report.json"
            try:
                report = ExperimentReport(**json.loads(report_path.read_text()))
                paths = emit_plots(report, out)
            except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
                raise ConfigError(f"cannot plot {report_path}: {exc!r}") from exc
            for path in paths:
                print(path)
            return 0
        config = _load_config(args)
        out = _write_outputs(_RUNNERS[args.command](config), config)
        print(out / "report.json")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"numerical divergence: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
