"""Command-line driver for single runs, ablation sweeps and plotting.

Exit codes: 0 on success, 2 on configuration errors (an output directory
that cannot be written among them), 3 when a non-sweep single run diverges
numerically.  Every run writes its config next to its outputs, with --seed
and --out applied and the top-level defaults filled in; keys left out of a
section stay out.
"""

from __future__ import annotations

import argparse
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


def _write_outputs(report: ExperimentReport, config: RunConfig) -> Path:
    out = Path(config.out_dir)
    resolved = json.dumps(config.to_resolved_dict(), sort_keys=True, indent=2) + "\n"
    try:
        report.write(out)
        (out / "config.resolved.json").write_text(resolved)
    except OSError as exc:
        raise ConfigError(f"cannot write outputs to {out}: {exc}") from exc
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
        overrides = {"base_seed": args.seed, "out_dir": args.out}
        config = RunConfig.from_json_file(args.config, **{k: v for k, v in overrides.items() if v is not None})
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
