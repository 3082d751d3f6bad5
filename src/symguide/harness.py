"""Experiment driver: config loading, ablation sweeps and report emission.

All report payloads (report.csv / report.json) are deterministic functions
of the resolved config and base seed; wall-clock measurements go to a
separate timing.json so byte-identical reproducibility holds.  A report row
holds every report column and may hold more: report.* get the columns, and
timing.json gets the columns plus the _TIMING_KEYS the row has.  Diverged
sweep cells are flagged rows, never dropped.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path
from typing import Any, Callable, Collection

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
from .models import AffineModel, GmmModel, MlpModel, ScoreModel, _layer_shapes
from .schedule import NoiseSchedule, _count, _real, build_linear_schedule
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


def _keys(spec: Any, where: str, required: Collection[str], optional: Collection[str] = ()) -> dict:
    """spec, checked to be a JSON object with every required key and no key but the optional ones."""
    if not isinstance(spec, dict):
        raise ConfigError(f"{where} must be a JSON object, got {type(spec).__name__}")
    for key in required:
        if key not in spec:
            raise ConfigError(f"missing key '{key}' in {where}")
    unknown = [key for key in spec if key not in required and key not in optional]
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in {where}; known: {[*required, *optional]}")
    return spec


@contextlib.contextmanager
def _rejected_as(prefix: str):
    """Raise what malformed JSON input makes the block raise as ConfigError, its message after prefix.

    Every config file and section, MLP weights file and report.json is read inside one.
    """
    try:
        yield
    except KeyError as exc:
        raise ConfigError(f"{prefix}missing key {exc}") from exc
    except (OSError, ValueError, TypeError, AttributeError, OverflowError) as exc:
        raise ConfigError(f"{prefix}{exc}") from exc


def build_schedule(spec: dict) -> NoiseSchedule:
    with _rejected_as("bad schedule spec: "):
        if "alpha" in _keys(spec, "schedule", (), spec):  # each kind then checks its own keys
            _keys(spec, "explicit schedule", ("alpha",))
            return NoiseSchedule(_real_array(spec["alpha"], "schedule alpha"))
        _keys(spec, "linear schedule", ("T", "beta_min", "beta_max"))
        T = _count(_json_int(spec["T"]), "schedule T", 2, MAX_SIZE)
        return build_linear_schedule(T, spec["beta_min"], spec["beta_max"])


# The most weights and biases an MLP may hold (512 MiB of float64).
MAX_MLP_PARAMETERS = 4 * MAX_SIZE**2


def _mlp_widths(widths: Any) -> list[int]:
    """The widths, checked before any weight array is allocated."""
    widths = [_count(_json_int(w), "mlp widths entry", 1, MAX_SIZE) for w in widths]
    params = sum((fan_in + 1) * fan_out for fan_out, fan_in in _layer_shapes(widths))
    if params > MAX_MLP_PARAMETERS:
        raise ConfigError(f"mlp widths hold {params} parameters, over MAX_MLP_PARAMETERS = {MAX_MLP_PARAMETERS}")
    return widths


def build_model(spec: dict) -> ScoreModel:
    with _rejected_as("bad model spec: "):
        kind = _keys(spec, "model", ("kind",), spec)["kind"]  # each kind then checks its own keys
        if kind == "gmm":
            _keys(spec, "gmm model", ("kind", "weights", "means"))
            return GmmModel(_real_array(spec["weights"], "gmm weights"), _real_array(spec["means"], "gmm means"))
        if kind == "mlp":
            if "weights_file" in spec:
                path = Path(_keys(spec, "mlp model", ("kind", "weights_file"))["weights_file"])
                if not path.exists():
                    raise ConfigError(f"mlp weights file not found: {path}")
                obj = _keys(json.loads(path.read_text()), "mlp weights file", ("widths", "layers"), ("seed",))
                widths = _mlp_widths(obj["widths"])
                layers = []
                for layer in obj["layers"]:
                    _keys(layer, "mlp weights layer", ("W", "b"))
                    layers.append((_real_array(layer["W"], "mlp layer W"), _real_array(layer["b"], "mlp layer b")))
                seed = obj.get("seed")
                return MlpModel(widths, layers, None if seed is None else _json_int(seed))
            _keys(spec, "mlp model", ("kind", "widths"), ("seed",))
            return MlpModel.random(_mlp_widths(spec["widths"]), _json_int(spec.get("seed", 0)))
        if kind == "affine":
            _keys(spec, "affine model", ("kind", "matrix"), ("offset",))
            offset = None if spec.get("offset") is None else _real_array(spec["offset"], "affine offset")
            return AffineModel(_real_array(spec["matrix"], "affine matrix"), offset)
        raise ConfigError(f"unknown model kind '{kind}'")


def build_loss(spec: dict) -> GuidanceLoss:
    with _rejected_as("bad loss spec: "):
        kind = _keys(spec, "loss", ("kind",), spec)["kind"]  # each kind then checks its own keys
        if kind == "l2_target":
            _keys(spec, "l2_target loss", ("kind", "target"))
            return L2TargetLoss(_real_array(spec["target"], "loss target"))
        if kind == "gram_style":
            _keys(spec, "gram_style loss", ("kind", "target_gram", "feature_map"))
            return GramStyleLoss(
                _real_array(spec["target_gram"], "loss target_gram"),
                _real_array(spec["feature_map"], "loss feature_map"),
            )
        raise ConfigError(f"unknown loss kind '{kind}'")


# GuidanceConfig's fields are the guidance keys: required without a default, counts otherwise.
_GUIDANCE_REQUIRED = [f.name for f in fields(GuidanceConfig) if f.default is MISSING]
_GUIDANCE_OPTIONAL = [f.name for f in fields(GuidanceConfig) if f.default is not MISSING]


def build_guidance(spec: dict, schedule: NoiseSchedule) -> GuidanceConfig:
    """The guidance a config section describes, checked against the schedule.

    Keys the section leaves out take their GuidanceConfig defaults.  Each count
    is checked by GuidanceConfig alone, after _json_int's 2.0 allowance.
    """
    with _rejected_as("bad guidance spec: "):
        _keys(spec, "guidance", _GUIDANCE_REQUIRED, _GUIDANCE_OPTIONAL)
        guidance = GuidanceConfig(
            window=tuple(_json_int(k) for k in spec["window"]),
            rho=spec["rho"],
            **{k: _json_int(spec[k]) for k in _GUIDANCE_OPTIONAL if k in spec},
        )
        guidance.validate_for(schedule)
        return guidance


def _json_int(value: Any) -> Any:
    """JSON's allowance for an integer: an integral float such as 2.0 reads as 2; any other value is kept.

    A value kept as it is meets the check of the constructor it is passed to.
    """
    return int(value) if isinstance(value, float) and value.is_integer() else value


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
    "d_list": ([2, 4], lambda config, v: _count(_json_int(v), "d", 1, MAX_SIZE)),
    "m_curve_samples": (
        [200], lambda config, v: _count(_json_int(v), "m_curve_samples", MIN_ERROR_SAMPLES, MAX_SIZE)
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
        with _rejected_as(""):
            object.__setattr__(self, "num_seeds", _count(_json_int(self.num_seeds), "num_seeds", 1, MAX_SIZE))
            object.__setattr__(self, "base_seed", _count(_json_int(self.base_seed), "base_seed"))
        if not isinstance(self.out_dir, str):
            raise ConfigError(f"out_dir must be a string, got {self.out_dir!r}")
        _keys(self.sweep, "sweep", (), _SWEEP_AXES)
        schedule = build_schedule(self.schedule_spec)
        model = build_model(self.model_spec)
        loss = build_loss(self.loss_spec)
        guidance = build_guidance(self.guidance_spec, schedule)
        if loss.dim != model.dim:
            raise ConfigError(
                f"loss dimension {loss.dim} (an l2_target's target length, a gram_style's "
                f"feature_map columns) does not match model dimension {model.dim}"
            )
        object.__setattr__(self, "_built", (schedule, model, loss, guidance))
        object.__setattr__(
            self, "_axes", {key: self._parse_axis(key, vals) for key, vals in self.sweep.items()}
        )

    def _parse_axis(self, key: str, vals: Any) -> list:
        if not isinstance(vals, list) or not vals:
            raise ConfigError(f"sweep axis '{key}' must be a non-empty list")
        if key == "m_curve_samples" and len(vals) != 1:
            raise ConfigError(f"sweep axis '{key}' takes exactly one value, got {len(vals)}")
        check = _SWEEP_AXES[key][1]
        with _rejected_as(f"bad sweep axis '{key}': "):
            parsed = [check(self, v) for v in vals]
        seen = set()
        for v in parsed:
            if v in seen:  # a repeated value would run its cells twice and draw one curve
                raise ConfigError(f"sweep axis '{key}' repeats the value {v!r}")
            seen.add(v)
        return parsed

    @classmethod
    def from_dict(cls, obj: dict) -> "RunConfig":
        """Keys the object leaves out take their field defaults."""
        _keys(obj, "config", _SECTIONS, _OPTIONAL_KEYS)
        sections = {f"{name}_spec": obj[name] for name in _SECTIONS}
        return cls(**sections, **{k: obj[k] for k in _OPTIONAL_KEYS if k in obj})

    @classmethod
    def from_json_file(cls, path: str | Path, **overrides: Any) -> "RunConfig":
        """The config a JSON file holds; `overrides` replace its top-level keys before any check."""
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        with _rejected_as(f"config file {path} is not readable JSON: "):
            obj = json.loads(path.read_text())
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


def _json_row(row: dict, keys: Collection[str]) -> dict:
    """The row's keys, each non-finite float as null."""
    picked = {k: row[k] for k in keys}
    return {k: None if isinstance(v, float) and not np.isfinite(v) else v for k, v in picked.items()}


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


# What a timing.json row adds to the report columns, where the row has it:
# the run's wall time and, in a sweep, its divergence error.
_TIMING_KEYS = ("wall_time_ns", "error")


@dataclass
class ExperimentReport:
    """Rows plus optional curves; serialization is fully deterministic.

    Each row holds every column; keys beyond the columns reach only
    timing.json, and only those in _TIMING_KEYS.
    """

    kind: str
    columns: list[str]
    rows: list[dict]
    curves: dict[str, dict] = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.meta.setdefault("env", _env_fingerprint())
        self.meta["kind"] = self.kind
        for i, row in enumerate(self.rows):
            missing = [c for c in self.columns if c not in row]
            if missing:
                raise ValueError(f"row {i} lacks column(s) {missing} of {self.columns}")

    def to_csv_text(self) -> str:
        return _csv_text(self.columns, self.rows)

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "columns": self.columns,
            "rows": [_json_row(row, self.columns) for row in self.rows],
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
        timing = [_json_row(row, [*self.columns, *(k for k in _TIMING_KEYS if k in row)]) for row in self.rows]
        paths["timing"].write_text(_json_text({"rows": timing}))
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


def _seed_runs(config: RunConfig, guidance: GuidanceConfig) -> list[tuple[dict, SampleRecord | None]]:
    """Every seed's run on one guidance cell, in seed order.

    Each run is its _run_fields plus its divergence error (None when it
    completed), paired with its record (None when it diverged).
    """
    schedule, model, loss, _ = config.build()
    runs = []
    for seed in range(config.base_seed, config.base_seed + config.num_seeds):
        try:
            rec, err = sag_sample(model, schedule, loss, guidance, seed), None
        except DivergenceError as exc:
            rec, err = None, str(exc)
        runs.append(({**_run_fields(seed, guidance, rec), "error": err}, rec))
    return runs


_RUN_COLUMNS = ["seed", "n", "rho", "window", "final_loss", "steps_guided", "diverged"]


def run_single_sample(config: RunConfig) -> ExperimentReport:
    """One guided run at the base seed; raises DivergenceError rather than flagging."""
    schedule, model, loss, gcfg = config.build()
    record = sag_sample(model, schedule, loss, gcfg, config.base_seed)
    ts, losses = _mean_loss_trajectory([record])
    return ExperimentReport(
        kind="sample",
        columns=_RUN_COLUMNS,
        rows=[_run_fields(config.base_seed, gcfg, record)],
        curves={"guided_loss": {"label": f"n={gcfg.n_steps}", "t": ts, "loss": losses}},
        meta={"record": record.to_json_dict()},
    )


def _probe_step(schedule: NoiseSchedule) -> int:
    """The step at which ablate-n's M-curve and compare-adjoint probe the n-step estimate."""
    return max(1, int(round(0.7 * schedule.num_steps)))


def run_ablation_n(config: RunConfig) -> ExperimentReport:
    """Sweep the estimate-step count with everything else fixed.

    Diverged runs become flagged rows; the M-curve, drawn at _probe_step,
    raises DivergenceError as compare-adjoint does.
    """
    schedule, model, _, _ = config.build()
    n_list = config.axis("n_list")
    rows: list[dict] = []
    curves: dict[str, dict] = {}
    for n in n_list:
        runs = _seed_runs(config, config.with_guidance(n_steps=n))
        rows += [run for run, _ in runs]
        ts, losses = _mean_loss_trajectory([rec for _, rec in runs if rec])
        curves[f"n={n}"] = {"t": ts, "loss": losses}
        del runs  # release this cell's records before the next cell runs
    m_samples = config.axis("m_curve_samples")[0]
    m_curve = estimation_error_curve(
        model,
        schedule,
        t=_probe_step(schedule),
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
    )


def run_ablation_rho(config: RunConfig) -> ExperimentReport:
    """Sweep the guidance strength; diverged runs become flagged rows."""
    columns = ["seed", "rho", "n", "window", "final_loss", "steps_guided", "diverged"]
    cells = [config.with_guidance(rho=rho) for rho in config.axis("rho_list")]
    rows = [run for guidance in cells for run, _ in _seed_runs(config, guidance)]
    return ExperimentReport(kind="ablation_rho", columns=columns, rows=rows)


def default_window_thirds(T: int) -> dict[str, tuple[int, int]]:
    """Late/middle/early thirds of the step range (early = noisiest steps)."""
    t1, t2 = T // 3, (2 * T) // 3
    return {"late": (1, t1), "middle": (t1 + 1, t2), "early": (t2 + 1, T - 1)}


def run_window_and_repeats_study(config: RunConfig) -> ExperimentReport:
    """Grid over window placement and time-travel repeats.

    Also records the distance of each guided final sample to the unguided
    rollout with the same seed (content-preservation proxy).  Each seed is
    rolled out once, when a run with that seed first completes.
    """
    schedule, model, _, _ = config.build()
    windows = config.axis("windows")
    if windows:
        named = {f"w{i}": window for i, window in enumerate(windows)}
    else:
        T = schedule.num_steps
        named = default_window_thirds(T)
        for name, window in named.items():
            try:
                config.with_guidance(window=list(window))
            except ConfigError as exc:
                raise ConfigError(
                    f"{exc}; that is the default {name} third of steps 1..{T - 1}, "
                    "and sweep.windows sets explicit windows"
                ) from exc
    columns = [
        "seed", "window_name", "window", "repeats", "final_loss",
        "distance_to_unguided", "steps_guided", "diverged",
    ]
    cells = [
        (name, config.with_guidance(window=list(window), repeats=r))
        for name, window in named.items()
        for r in config.axis("repeats_list")
    ]
    unguided: dict[int, np.ndarray] = {}
    rows: list[dict] = []
    for name, guidance in cells:
        runs = _seed_runs(config, guidance)
        for run, rec in runs:
            seed = run["seed"]
            if rec is not None and seed not in unguided:
                unguided[seed] = ddim_rollout(model, schedule, seed)
            distance = float(np.linalg.norm(rec.final_state - unguided[seed])) if rec else None
            rows.append({**run, "window_name": name, "distance_to_unguided": distance})
        del runs  # release this cell's records before the next cell runs
    return ExperimentReport(kind="window_study", columns=columns, rows=rows)


def _timed(fn: Callable, *args, **kwargs) -> tuple[Any, int]:
    """fn's result and its wall time in nanoseconds."""
    t_ns = time.perf_counter_ns()
    out = fn(*args, **kwargs)
    return out, time.perf_counter_ns() - t_ns


def _rel_err(a: np.ndarray, b: np.ndarray) -> float:
    denom = float(np.linalg.norm(b))
    return float(np.linalg.norm(a - b)) / denom if denom > 0 else float(np.linalg.norm(a - b))


# The overflow rule of the estimator module docstring: the relative errors can overflow too.
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
    t = _probe_step(schedule)
    heun = ButcherTableau.heun()
    rng = np.random.default_rng(config.base_seed)
    columns = [
        "model", "d", "n", "method", "rel_error_vs_oracle",
        "checkpoints_read", "tape_arrays", "peak_state_vectors",
    ]
    rows: list[dict] = []
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
                    rows.append({**cell, "rel_error_vs_oracle": err, **asdict(stats), "wall_time_ns": ns})
    return ExperimentReport(kind="adjoint_comparison", columns=columns, rows=rows)


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
