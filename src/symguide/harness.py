"""Experiment driver: config loading, ablation sweeps and report emission.

All report payloads (report.csv / report.json) are deterministic functions
of the resolved config and base seed; wall-clock measurements go to a
separate timing.json so byte-identical reproducibility holds.  Diverged
sweep cells are flagged rows, never dropped.
"""

from __future__ import annotations

import contextlib
import json
import numbers
import sys
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Any, Callable

import numpy as np

from . import __version__
from .adjoint import (
    AdjointStats,
    direct_backprop_grad,
    rk_direct_backprop_grad,
    symplectic_euler_grad,
    symplectic_rk_grad,
    vanilla_adjoint_grad,
)
from .estimator import (
    MIN_ERROR_SAMPLES,
    ButcherTableau,
    DivergenceError,
    estimate_clean,
    estimate_clean_rk,
    estimation_error_curve,
)
from .guidance import (
    MAX_SIZE,
    GramStyleLoss,
    GuidanceConfig,
    GuidanceLoss,
    L2TargetLoss,
    SampleRecord,
    ddim_rollout,
    sag_sample,
)
from .models import AffineModel, GmmModel, MlpModel, ScoreModel
from .schedule import NoiseSchedule, build_linear_schedule
from .svgplot import line_plot_svg, table_svg

__all__ = [
    "ConfigError",
    "RunConfig",
    "ExperimentReport",
    "run_single_sample",
    "run_ablation_n",
    "run_ablation_rho",
    "run_window_and_repeats_study",
    "run_adjoint_comparison",
    "emit_plots",
]


class ConfigError(ValueError):
    """Invalid or unreadable run configuration."""


def _require(obj: dict, key: str, where: str) -> Any:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} section must be a JSON object, got {type(obj).__name__}")
    if key not in obj:
        raise ConfigError(f"missing key '{key}' in {where}")
    return obj[key]


@contextlib.contextmanager
def _rejected_as(prefix: str):
    """Raise what a malformed spec makes the block raise as ConfigError, its message after prefix."""
    try:
        yield
    except (OSError, ValueError, KeyError, TypeError, OverflowError) as exc:
        raise ConfigError(f"{prefix}{exc}") from exc


def build_schedule(spec: dict) -> NoiseSchedule:
    with _rejected_as("bad schedule spec: "):
        if "alpha" in spec:
            return NoiseSchedule(_real_array(spec["alpha"], "schedule alpha"))
        return build_linear_schedule(
            _integer(_require(spec, "T", "schedule"), 2, "schedule T", MAX_SIZE),
            _real(_require(spec, "beta_min", "schedule"), "schedule beta_min"),
            _real(_require(spec, "beta_max", "schedule"), "schedule beta_max"),
        )


def build_model(spec: dict) -> ScoreModel:
    kind = _require(spec, "kind", "model")
    with _rejected_as("bad model spec: "):
        if kind == "gmm":
            return GmmModel(
                _real_array(_require(spec, "weights", "model"), "gmm weights"),
                _real_array(_require(spec, "means", "model"), "gmm means"),
            )
        if kind == "mlp":
            if "weights_file" in spec:
                path = Path(spec["weights_file"])
                if not path.exists():
                    raise ConfigError(f"mlp weights file not found: {path}")
                obj = json.loads(path.read_text())
                for w in obj["widths"]:
                    _integer(w, 1, "mlp width", MAX_SIZE)
                for layer in obj["layers"]:
                    _real_array(layer["W"], "mlp layer W")
                    _real_array(layer["b"], "mlp layer b")
                return MlpModel.from_json_dict(obj)
            widths = [_integer(w, 1, "mlp width", MAX_SIZE) for w in _require(spec, "widths", "model")]
            return MlpModel.random(widths, _integer(spec.get("seed", 0), 0, "mlp seed"))
        if kind == "affine":
            offset = spec.get("offset")
            return AffineModel(
                _real_array(_require(spec, "matrix", "model"), "affine matrix"),
                None if offset is None else _real_array(offset, "affine offset"),
            )
    raise ConfigError(f"unknown model kind '{kind}'")


def build_loss(spec: dict) -> GuidanceLoss:
    kind = _require(spec, "kind", "loss")
    with _rejected_as("bad loss spec: "):
        if kind == "l2_target":
            return L2TargetLoss(_real_array(_require(spec, "target", "loss"), "loss target"))
        if kind == "gram_style":
            return GramStyleLoss(
                _real_array(_require(spec, "target_gram", "loss"), "loss target_gram"),
                _real_array(_require(spec, "feature_map", "loss"), "loss feature_map"),
            )
    raise ConfigError(f"unknown loss kind '{kind}'")


_GUIDANCE_KEYS = [f.name for f in fields(GuidanceConfig)]
# Guidance keys of earlier versions.  Resolved configs those versions wrote
# carry them at their defaults (null, {} or false), which still load.
_RETIRED_GUIDANCE_KEYS = ("rho_by_t", "repeats_by_t", "n_by_t", "grad_normalize")


def build_guidance(spec: dict, schedule: NoiseSchedule) -> GuidanceConfig:
    """The guidance a config section describes, checked against the schedule.

    Keys the section leaves out take their GuidanceConfig defaults.
    """
    with _rejected_as("bad guidance spec: "):
        window = tuple(_require(spec, "window", "guidance"))
        if len(window) != 2:
            raise ConfigError(f"guidance window must be a [K1, K2] pair, got {list(window)}")
        window = tuple(_integer(k, 1, "guidance window step") for k in window)
        at_default = {k for k in _RETIRED_GUIDANCE_KEYS if spec.get(k) in (None, {}, False)}
        unknown = sorted(set(spec) - set(_GUIDANCE_KEYS) - at_default)
        if unknown:
            raise ConfigError(f"unknown guidance key(s) {unknown}; known: {_GUIDANCE_KEYS}")
        guidance = GuidanceConfig(
            window=window,
            rho=_real(_require(spec, "rho", "guidance"), "guidance rho"),
            **{
                k: _integer(spec[k], 1, f"guidance {k}", MAX_SIZE)
                for k in ("repeats", "n_steps")
                if k in spec
            },
        )
        guidance.validate_for(schedule)
        return guidance


def _integer(value: Any, least: int, what: str, most: int = sys.maxsize) -> int:
    """A JSON integer in [least, most]; integral floats such as 2.0 count, booleans do not.

    The default upper bound keeps every count a machine-sized integer that
    numpy and range() accept.
    """
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or not least <= value <= most:
        raise ConfigError(f"{what} must be an integer in [{least}, {most}], got {value!r}")
    return int(value)


def _real(value: Any, what: str) -> float:
    """A finite JSON number; booleans, strings and null do not count."""
    # NaN fails the bound too.
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{what} must be a finite number, got {value!r}")
    return float(value)


def _real_array(value: Any, what: str) -> np.ndarray:
    """A JSON number or (nested) list of them, each checked by _real, as a float64 array."""
    stack = [value]
    while stack:
        v = stack.pop()
        if isinstance(v, list):
            stack.extend(v)
        else:
            _real(v, what)
    return np.asarray(value, dtype=np.float64)


# Every sweep axis: the default a runner sweeps when the config leaves it out
# (windows: the thirds of the step range), and the check that turns one JSON
# value into the value swept.  A guidance axis's check builds that guidance
# against the schedule.
_SWEEP_AXES: dict[str, tuple[list | None, Callable[["RunConfig", Any], Any]]] = {
    "n_list": ([1, 2, 4, 8], lambda config, v: config.with_guidance(n_steps=v).n_steps),
    "rho_list": ([0.0, 0.05, 0.2, 1.0], lambda config, v: config.with_guidance(rho=v).rho),
    "repeats_list": ([1, 2, 3], lambda config, v: config.with_guidance(repeats=v).repeats),
    "windows": (None, lambda config, v: config.with_guidance(window=v).window),
    "d_list": ([2, 4], lambda config, v: _integer(v, 1, "d", MAX_SIZE)),
    "m_curve_samples": (
        [200], lambda config, v: _integer(v, MIN_ERROR_SAMPLES, "m_curve_samples", MAX_SIZE)
    ),
}


# A config's required sections, each held as RunConfig.<name>_spec, and its
# optional top-level keys, each a RunConfig field with a default.
_SECTIONS = ("schedule", "model", "loss", "guidance")
_OPTIONAL_KEYS = ("sweep", "num_seeds", "base_seed", "out_dir")


@dataclass(frozen=True)
class RunConfig:
    """Fully validated experiment configuration.

    Construction builds the schedule, model, loss and guidance once, which
    build() returns, and parses every sweep axis the config sets, checking
    each guidance value against the schedule, so config errors surface as
    ConfigError before any computation.  sweep stays the raw JSON object.
    """

    schedule_spec: dict
    model_spec: dict
    loss_spec: dict
    guidance_spec: dict
    sweep: dict = field(default_factory=dict)
    num_seeds: int = 10
    base_seed: int = 0
    out_dir: str = "runs/out"

    def __post_init__(self) -> None:
        # Frozen: parsed values and built objects bypass the dataclass guard.
        object.__setattr__(self, "num_seeds", _integer(self.num_seeds, 1, "num_seeds", MAX_SIZE))
        object.__setattr__(self, "base_seed", _integer(self.base_seed, 0, "base_seed"))
        if not isinstance(self.out_dir, str):
            raise ConfigError(f"out_dir must be a string, got {self.out_dir!r}")
        if not isinstance(self.sweep, dict):
            raise ConfigError(f"sweep section must be a JSON object, got {type(self.sweep).__name__}")
        schedule = build_schedule(self.schedule_spec)
        model = build_model(self.model_spec)
        loss = build_loss(self.loss_spec)
        guidance = build_guidance(self.guidance_spec, schedule)
        try:
            grad = loss.grad(np.zeros(model.dim))
        except Exception as exc:
            raise ConfigError(
                f"loss incompatible with model dimension {model.dim}: {exc}"
            ) from exc
        if np.shape(grad) != (model.dim,):
            raise ConfigError(
                f"loss gradient has shape {np.shape(grad)} for model dimension {model.dim}"
            )
        object.__setattr__(self, "_built", (schedule, model, loss, guidance))
        object.__setattr__(
            self, "_axes", {key: self._parse_axis(key, vals) for key, vals in self.sweep.items()}
        )

    def _parse_axis(self, key: str, vals: Any) -> list:
        if key not in _SWEEP_AXES:
            raise ConfigError(f"unknown sweep axis '{key}'; known axes: {list(_SWEEP_AXES)}")
        if not isinstance(vals, list) or not vals:
            raise ConfigError(f"sweep axis '{key}' must be a non-empty list")
        if key == "m_curve_samples" and len(vals) != 1:
            raise ConfigError(f"sweep axis '{key}' takes exactly one value, got {len(vals)}")
        check = _SWEEP_AXES[key][1]
        with _rejected_as(f"bad sweep axis '{key}': "):
            return [check(self, v) for v in vals]

    @classmethod
    def from_dict(cls, obj: dict) -> "RunConfig":
        """Keys the object leaves out take their field defaults."""
        if not isinstance(obj, dict):
            raise ConfigError("config root must be a JSON object")
        sections = {f"{name}_spec": _require(obj, name, "config") for name in _SECTIONS}
        return cls(**sections, **{k: obj[k] for k in _OPTIONAL_KEYS if k in obj})

    @classmethod
    def from_json_file(cls, path: str | Path, **overrides: Any) -> "RunConfig":
        """The config a JSON file holds; `overrides` replace its top-level keys before any check."""
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            obj = json.loads(path.read_text())
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except ValueError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        return cls.from_dict({**obj, **overrides} if isinstance(obj, dict) else obj)

    def to_resolved_dict(self) -> dict:
        sections = {name: getattr(self, f"{name}_spec") for name in _SECTIONS}
        return {**sections, **{k: getattr(self, k) for k in _OPTIONAL_KEYS}}

    def build(self) -> tuple[NoiseSchedule, ScoreModel, GuidanceLoss, GuidanceConfig]:
        return self._built

    def with_guidance(self, **overrides) -> GuidanceConfig:
        """The guidance with some keys overridden, checked against the schedule."""
        return build_guidance({**self.guidance_spec, **overrides}, self._built[0])

    def axis(self, key: str) -> list | None:
        """A sweep axis's parsed values, or its default if the config leaves it out."""
        return self._axes.get(key, _SWEEP_AXES[key][0])


def _env_fingerprint() -> dict:
    return {
        "package_version": __version__,
        "numpy_version": np.__version__,
        "python_version": sys.version.split()[0],
        "dtype": "float64",
        "machine_eps": repr(float(np.finfo(np.float64).eps)),
    }


def _json_row(row: dict) -> dict:
    """The row with each non-finite float as null."""
    return {k: None if isinstance(v, float) and not np.isfinite(v) else v for k, v in row.items()}


def _json_text(obj: Any) -> str:
    """Sorted, indented, strict JSON: a non-finite number raises ValueError."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _csv_cell(v: Any) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return "" if not np.isfinite(v) else repr(v)
    return str(v)


def _csv_text(columns: list[str], rows: list[dict]) -> str:
    lines = [",".join(columns)]
    lines += [",".join(_csv_cell(row[c]) for c in columns) for row in rows]
    return "\n".join(lines) + "\n"


@dataclass
class ExperimentReport:
    """Rows plus optional curves; serialization is fully deterministic."""

    kind: str
    columns: list[str]
    rows: list[dict]
    curves: dict[str, dict] = field(default_factory=dict)
    meta: dict = field(default_factory=dict)
    timings: list[dict] = field(default_factory=list)  # never serialized into report.*

    def __post_init__(self) -> None:
        self.meta.setdefault("env", _env_fingerprint())
        self.meta["kind"] = self.kind
        for i, row in enumerate(self.rows):
            if set(row) != set(self.columns):
                raise ValueError(f"row {i} keys {sorted(row)} do not match columns {self.columns}")

    def to_csv_text(self) -> str:
        return _csv_text(self.columns, self.rows)

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "columns": self.columns,
            "rows": [_json_row(row) for row in self.rows],
            "curves": self.curves,
            "meta": self.meta,
        }

    def to_json_text(self) -> str:
        return _json_text(self.to_json_dict())

    def write(self, out_dir: str | Path) -> dict[str, Path]:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        paths = {
            "csv": out / "report.csv",
            "json": out / "report.json",
            "timing": out / "timing.json",
        }
        paths["csv"].write_text(self.to_csv_text())
        paths["json"].write_text(self.to_json_text())
        paths["timing"].write_text(_json_text({"rows": [_json_row(row) for row in self.timings]}))
        m = self.curves.get("m_curve")
        if m:
            samples, seed = self.meta.get("m_curve_samples", 0), self.meta.get("m_curve_seed", 0)
            rows = [
                {"n": n, "mean_error": e, "stderr": se, "num_samples": samples, "seed": seed}
                for n, e, se in zip(m["n"], m["mean_error"], m["stderr"])
            ]
            paths["m_curve"] = out / "m_curve.csv"
            paths["m_curve"].write_text(_csv_text(["n", "mean_error", "stderr", "num_samples", "seed"], rows))
        return paths


def _run_fields(seed: int, gcfg: GuidanceConfig, rec: SampleRecord | None) -> dict:
    """One run's fields, from its seed, guidance and record (None if it diverged)."""
    return {
        "seed": seed,
        "n": gcfg.n_steps,
        "rho": gcfg.rho,
        "window": f"{gcfg.window[0]}-{gcfg.window[1]}",
        "repeats": gcfg.repeats,
        "final_loss": rec.final_loss if rec else None,
        "steps_guided": rec.steps_guided if rec else 0,
        "diverged": rec is None,
        "wall_time_ns": rec.wall_time_ns if rec else None,
    }


def _mean_loss_trajectory(records: list[SampleRecord]) -> tuple[list[int], list[float]]:
    """Average guided-step loss per t over completed runs (descending t)."""
    by_t: dict[int, list[float]] = {}
    for rec in records:
        for step in rec.guided_steps:
            by_t.setdefault(step["t"], []).append(step["loss"])
    ts = sorted(by_t, reverse=True)
    return ts, [float(np.mean(by_t[t])) for t in ts]


def _sweep(
    config: RunConfig, cells: list[tuple[dict, GuidanceConfig]], columns: list[str]
) -> tuple[list[dict], list[dict], list[tuple[list[int], list[float]]]]:
    """Run every seed on each (labels, guidance) cell, in cell then seed order.

    One run yields a report row (its columns, picked from its _run_fields
    and the cell's labels) and a timing entry (that row plus its wall time
    and error); a diverged run is a flagged row.  A distance_to_unguided
    column measures each final sample against the unguided rollout with the
    same seed, rolled out once, when a run with that seed first completes.
    Returns the rows, the timings and each cell's mean guided-loss
    trajectory over its completed runs.
    """
    schedule, model, loss, _ = config.build()
    seeds = [config.base_seed + i for i in range(config.num_seeds)]
    unguided: dict[int, np.ndarray] = {}
    rows: list[dict] = []
    timings: list[dict] = []
    loss_curves: list[tuple[list[int], list[float]]] = []
    for labels, gcfg in cells:
        done = []
        for seed in seeds:
            try:
                rec, err = sag_sample(model, schedule, loss, gcfg, seed), ""
            except DivergenceError as exc:
                rec, err = None, str(exc)
            run = {**_run_fields(seed, gcfg, rec), **labels, "error": err or None}
            if "distance_to_unguided" in columns:
                if rec is not None and seed not in unguided:
                    unguided[seed] = ddim_rollout(model, schedule, seed)
                run["distance_to_unguided"] = (
                    float(np.linalg.norm(rec.final_state - unguided[seed])) if rec else None
                )
            rows.append({c: run[c] for c in columns})
            timings.append({**rows[-1], "wall_time_ns": run["wall_time_ns"], "error": run["error"]})
            if rec is not None:
                done.append(rec)
        loss_curves.append(_mean_loss_trajectory(done))
    return rows, timings, loss_curves


_RUN_COLUMNS = ["seed", "n", "rho", "window", "final_loss", "steps_guided", "diverged"]


def run_single_sample(config: RunConfig) -> ExperimentReport:
    """One guided run at the base seed; raises DivergenceError rather than flagging."""
    schedule, model, loss, gcfg = config.build()
    record = sag_sample(model, schedule, loss, gcfg, config.base_seed)
    run = _run_fields(config.base_seed, gcfg, record)
    row = {c: run[c] for c in _RUN_COLUMNS}
    ts, losses = _mean_loss_trajectory([record])
    return ExperimentReport(
        kind="sample",
        columns=_RUN_COLUMNS,
        rows=[row],
        curves={"guided_loss": {"label": f"n={gcfg.n_steps}", "t": ts, "loss": losses}},
        meta={"record": record.to_json_dict()},
        timings=[{**row, "wall_time_ns": run["wall_time_ns"]}],
    )


def run_ablation_n(config: RunConfig) -> ExperimentReport:
    """Sweep the estimate-step count with everything else fixed."""
    schedule, model, _, _ = config.build()
    n_list = config.axis("n_list")
    cells = [({}, config.with_guidance(n_steps=n)) for n in n_list]
    rows, timings, loss_curves = _sweep(config, cells, _RUN_COLUMNS)
    curves = {f"n={n}": {"t": ts, "loss": losses} for n, (ts, losses) in zip(n_list, loss_curves)}
    m_samples = config.axis("m_curve_samples")[0]
    m_curve = estimation_error_curve(
        model,
        schedule,
        t=max(1, int(round(0.7 * schedule.num_steps))),
        n_list=n_list,
        n_ref=8 * max(n_list),
        num_samples=m_samples,
        seed=config.base_seed,
    )
    curves["m_curve"] = {
        "n": [p.n for p in m_curve],
        "mean_error": [p.mean_error for p in m_curve],
        "stderr": [p.stderr for p in m_curve],
    }
    return ExperimentReport(
        kind="ablation_n",
        columns=_RUN_COLUMNS,
        rows=rows,
        curves=curves,
        meta={"m_curve_samples": m_samples, "m_curve_seed": config.base_seed},
        timings=timings,
    )


def run_ablation_rho(config: RunConfig) -> ExperimentReport:
    """Sweep the guidance strength; diverged runs become flagged rows."""
    rho_list = config.axis("rho_list")
    columns = ["seed", "rho", "n", "window", "final_loss", "steps_guided", "diverged"]
    rows, timings, _ = _sweep(config, [({}, config.with_guidance(rho=rho)) for rho in rho_list], columns)
    return ExperimentReport(kind="ablation_rho", columns=columns, rows=rows, timings=timings)


def default_window_thirds(T: int) -> dict[str, tuple[int, int]]:
    """Late/middle/early thirds of the step range (early = noisiest steps)."""
    t1, t2 = T // 3, (2 * T) // 3
    return {"late": (1, t1), "middle": (t1 + 1, t2), "early": (t2 + 1, T - 1)}


def run_window_and_repeats_study(config: RunConfig) -> ExperimentReport:
    """Grid over window placement and time-travel repeats.

    Also records the distance of each guided final sample to the unguided
    rollout with the same seed (content-preservation proxy).
    """
    windows = config.axis("windows")
    if windows:
        named = {f"w{i}": window for i, window in enumerate(windows)}
    else:
        T = config.build()[0].num_steps
        named = default_window_thirds(T)
        for name, window in named.items():
            try:
                config.with_guidance(window=list(window))
            except ConfigError as exc:
                raise ConfigError(
                    f"{exc}; that is the default {name} third of steps 1..{T - 1}, "
                    "and sweep.windows sets explicit windows"
                ) from exc
    repeats_list = config.axis("repeats_list")
    columns = [
        "seed", "window_name", "window", "repeats", "final_loss",
        "distance_to_unguided", "steps_guided", "diverged",
    ]
    rows, timings, _ = _sweep(
        config,
        [
            ({"window_name": name}, config.with_guidance(window=list(window), repeats=r))
            for name, window in named.items()
            for r in repeats_list
        ],
        columns,
    )
    return ExperimentReport(kind="window_study", columns=columns, rows=rows, timings=timings)


def _timed(fn: Callable, *args, **kwargs) -> tuple[Any, int]:
    """fn's result and its wall time in nanoseconds."""
    t_ns = time.perf_counter_ns()
    out = fn(*args, **kwargs)
    return out, time.perf_counter_ns() - t_ns


def _rel_err(a: np.ndarray, b: np.ndarray) -> float:
    denom = float(np.linalg.norm(b))
    return float(np.linalg.norm(a - b)) / denom if denom > 0 else float(np.linalg.norm(a - b))


@np.errstate(over="ignore", invalid="ignore")
def run_adjoint_comparison(config: RunConfig) -> ExperimentReport:
    """Gradient accuracy and memory accounting per backward method.

    For each (model, d, n) cell: relative error of symplectic Euler,
    symplectic RK2 (Heun + conjugate coefficients) and the vanilla adjoint
    against the matching stored-activation oracle, plus checkpoint and tape
    counters.  As in sag_sample, an overflow raises no numpy warning: a
    relative error that is not finite raises DivergenceError.
    """
    schedule, _, _, _ = config.build()
    n_list = config.axis("n_list")
    d_list = config.axis("d_list")
    t = max(1, int(round(0.7 * schedule.num_steps)))
    heun = ButcherTableau.heun()
    rng = np.random.default_rng(config.base_seed)
    columns = [
        "model", "d", "n", "method", "rel_error_vs_oracle",
        "checkpoints_read", "tape_arrays", "peak_state_vectors",
    ]
    rows: list[dict] = []
    timings: list[dict] = []
    for d in d_list:
        models = {
            "gmm": GmmModel([0.5, 0.5], np.vstack([np.ones(d), -np.ones(d)])),
            "mlp": MlpModel.random([d, 16, 16, d], seed=config.base_seed + d),
        }
        for model_name, model in models.items():
            for n in n_list:
                x_t = rng.standard_normal(d)
                g0 = rng.standard_normal(d)
                traj = estimate_clean(model, schedule, x_t, t, n)
                (oracle, o_stats), oracle_ns = _timed(
                    direct_backprop_grad, model, traj, g0, schedule, t, return_stats=True
                )
                (sym, s_stats), sym_ns = _timed(
                    symplectic_euler_grad, model, traj, g0, schedule, t, return_stats=True
                )
                rk_traj = estimate_clean_rk(model, schedule, x_t, t, n, heun)
                rk_oracle = rk_direct_backprop_grad(model, rk_traj, g0, schedule, t)
                (rk, rk_stats), rk_ns = _timed(
                    symplectic_rk_grad, model, rk_traj, g0, schedule, t, return_stats=True
                )
                van, van_ns = _timed(
                    vanilla_adjoint_grad, model, traj.clean_output, g0, schedule, t, n_back=n
                )
                # The vanilla adjoint stores nothing: it recomputes n+1 states with two work vectors.
                entries = [
                    ("symplectic_euler", _rel_err(sym, oracle), s_stats, sym_ns),
                    ("symplectic_rk2", _rel_err(rk, rk_oracle), rk_stats, rk_ns),
                    ("vanilla", _rel_err(van, oracle), AdjointStats(n + 1, 0, 2), van_ns),
                    ("oracle_backprop", 0.0, o_stats, oracle_ns),
                ]
                for method, err, stats, ns in entries:
                    cell = {"model": model_name, "d": d, "n": n, "method": method}
                    if not np.isfinite(err):
                        raise DivergenceError(f"non-finite rel_error_vs_oracle ({err}) at {cell}")
                    rows.append({**cell, "rel_error_vs_oracle": err, **asdict(stats)})
                    timings.append({**rows[-1], "wall_time_ns": ns})
    return ExperimentReport(kind="adjoint_comparison", columns=columns, rows=rows, timings=timings)


def emit_plots(report: ExperimentReport, out_dir: str | Path) -> list[Path]:
    """Render the report's figures as deterministic standalone SVG files."""
    if not report.rows:
        raise ValueError("cannot plot an empty report: it contains no rows")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths: list[Path] = []

    def _write(name: str, svg: str) -> None:
        p = out / name
        p.write_text(svg)
        paths.append(p)

    if report.kind in ("ablation_n", "sample"):
        series = []
        for label, curve in sorted(report.curves.items()):
            if "t" in curve and curve["t"]:
                lbl = curve.get("label", label)
                series.append((lbl, [float(v) for v in curve["t"]], [float(v) for v in curve["loss"]]))
        if series:
            _write("loss_curves.svg", line_plot_svg(
                "guided loss per step", "sampling step t", "guidance loss", series))
        m = report.curves.get("m_curve")
        if m:
            _write("m_curve.svg", line_plot_svg(
                "clean-estimate error vs steps", "estimate steps n", "mean error",
                [("m(n)", [float(v) for v in m["n"]], [float(v) for v in m["mean_error"]])]))
    elif report.kind == "ablation_rho":
        by_rho: dict[float, list[float]] = {}
        for row in report.rows:
            if not row["diverged"] and row["final_loss"] is not None:
                by_rho.setdefault(float(row["rho"]), []).append(float(row["final_loss"]))
        rhos = sorted(by_rho)
        if rhos:
            _write("rho_curve.svg", line_plot_svg(
                "final loss vs guidance strength", "rho", "mean final loss",
                [("mean final loss", rhos, [float(np.mean(by_rho[r])) for r in rhos])]))
    elif report.kind in ("window_study", "adjoint_comparison"):
        cells = [[_csv_cell(row[c]) for c in report.columns] for row in report.rows]
        _write(f"{report.kind}.svg", table_svg(report.kind.replace("_", " "), report.columns, cells))
    if not paths:
        raise ValueError(f"report of kind '{report.kind}' produced no plottable data")
    return paths
