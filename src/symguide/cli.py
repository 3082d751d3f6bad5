"""Command-line driver for single runs, ablation sweeps and plotting.

Exit codes: 0 on success, 2 on configuration errors (an output directory
that cannot be written among them), 3 when a single run, compare-adjoint,
the M-curve of ablate-n or an unguided rollout of study-window diverges
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
    _json_text,
    _rejected_as,
    emit_plots,
    run_ablation_n,
    run_ablation_rho,
    run_adjoint_comparison,
    run_single_sample,
    run_window_and_repeats_study,
)


def _plot(out: Path) -> list[Path]:
    """Render SVG figures from the report.json in a run directory."""
    report_path = out / "report.json"
    with _rejected_as(f"cannot plot {report_path}: "):
        return emit_plots(ExperimentReport(**json.loads(report_path.read_text())), out)


# Each command and the function that runs it.  The first line of its
# docstring is the command's help text, read once on import: perfbench's
# tracer later swaps runners here for wrappers without docstrings.
_RUNNERS = {
    "sample": run_single_sample,
    "ablate-n": run_ablation_n,
    "ablate-rho": run_ablation_rho,
    "study-window": run_window_and_repeats_study,
    "compare-adjoint": run_adjoint_comparison,
    "plot": _plot,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="symguide", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, runner in _RUNNERS.items():
        p = sub.add_parser(name, help=runner.__doc__.splitlines()[0])
        if runner is _plot:
            p.add_argument("--out", required=True, help="run directory holding report.json")
        else:
            p.add_argument("--config", required=True, help="path to the JSON run config")
            p.add_argument("--seed", type=int, default=None, help="override the base seed")
            p.add_argument("--out", default=None, help="override the output directory")
    return parser


_PARSER = _build_parser()


def _write_outputs(report: ExperimentReport, config: RunConfig) -> Path:
    out = Path(config.out_dir)
    resolved = _json_text(config.to_resolved_dict())
    try:
        report.write(out)
        (out / "config.resolved.json").write_text(resolved)
    except OSError as exc:
        raise ConfigError(f"cannot write outputs to {out}: {exc}") from exc
    return out


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    runner = _RUNNERS[args.command]
    try:
        if runner is _plot:
            paths = _plot(Path(args.out))
        else:
            overrides = {"base_seed": args.seed, "out_dir": args.out}
            config = RunConfig.from_json_file(args.config, **{k: v for k, v in overrides.items() if v is not None})
            paths = [_write_outputs(runner(config), config) / "report.json"]
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"numerical divergence: {exc}", file=sys.stderr)
        return 3
    for path in paths:
        print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
