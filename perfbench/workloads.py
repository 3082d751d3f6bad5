"""The benchmark's three closed-loop workloads on symguide's public API.

Each workload is built from the repository checkout and a workload seed,
and exposes:

* `op(op_seed)`      -- one operation, the only code inside the timed region;
* `outcome(result)`  -- the op's correctness errors and a digest of its
                        outputs, computed outside the timed region;
* `run_gates(seed)`  -- run-level correctness gates beyond the re-run of a seed;
* `traced(tracer)`   -- a context in which the workload's own model and loss
                        are wrapped in tracing proxies;
* `close()`          -- removal of anything the workload wrote.

The program only ever receives the seeds and states generated here.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
from pathlib import Path

import numpy as np

from symguide import adjoint, cli, estimator, guidance
from symguide.harness import RunConfig, build_schedule
from symguide.models import MlpModel

DEFAULT_CONFIG = "configs/default.json"


def op_seeds(seed: int):
    """Endless deterministic stream of op seeds derived from the workload seed."""
    rng = np.random.default_rng(seed)
    while True:
        yield int(rng.integers(0, 2**31 - 1))


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()


def _rel_err(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


class Workload:
    """What the workloads share: no run-level gates, nothing to release, and
    tracing that wraps the workload's own model and loss in proxies."""

    def run_gates(self, seed: int) -> list[str]:
        return []

    @contextlib.contextmanager
    def traced(self, tracer):
        from tracing import TracedLoss, TracedModel

        saved = dict(vars(self))
        self.model = TracedModel(self.model, tracer)
        if hasattr(self, "loss"):
            self.loss = TracedLoss(self.loss, tracer)
        try:
            yield
        finally:
            vars(self).update(saved)

    def close(self) -> None:
        pass


class GuidedGmm(Workload):
    """One op is one `sag_sample` on the default config (GMM d=2, n=4, 21 guided steps)."""

    name = "guided-gmm"
    op_label, op_unit = "sample", "ms"
    reference, reference_calls = "gmm", 1
    tail_percentile = 99
    warmup_ops = 20
    min_ops = 50
    trace_ops = 200

    def __init__(self, root: Path, seed: int, scratch: Path) -> None:
        config = RunConfig.from_json_file(root / DEFAULT_CONFIG)
        self.schedule, self.model, self.loss, self.gcfg = config.build()
        self.plain_gcfg = config.with_guidance(rho=0.0)
        self.expected_steps = sum(
            self.gcfg.repeats_at(t)
            for t in range(1, self.schedule.num_steps + 1)
            if self.gcfg.rho_at(t) > 0.0
        )

    def op(self, op_seed: int):
        return guidance.sag_sample(self.model, self.schedule, self.loss, self.gcfg, op_seed)

    def outcome(self, record) -> tuple[list[str], str]:
        errors = []
        values = [s["loss"] for s in record.guided_steps] + [s["grad_norm"] for s in record.guided_steps]
        if not np.all(np.isfinite(record.final_state)) or not np.all(np.isfinite(values)):
            errors.append(f"seed {record.seed}: non-finite sample")
        if record.steps_guided != self.expected_steps:
            errors.append(f"seed {record.seed}: {record.steps_guided} guided steps, expected {self.expected_steps}")
        steps = json.dumps(record.guided_steps, sort_keys=True).encode()
        return errors, _digest(record.final_state.tobytes(), steps, repr(record.final_loss).encode())

    def run_gates(self, seed: int) -> list[str]:
        """Guidance off must reproduce the plain DDIM rollout bitwise."""
        plain = guidance.sag_sample(self.model, self.schedule, self.loss, self.plain_gcfg, seed)
        rollout = guidance.ddim_rollout(self.model, self.schedule, seed)
        if plain.final_state.tobytes() != rollout.tobytes():
            return [f"seed {seed}: rho=0 sample differs from ddim_rollout"]
        return []


class AblateN(Workload):
    """One op is the full `symguide ablate-n` command on the default config."""

    name = "ablate-n"
    op_label, op_unit = "sweep", "s"
    reference, reference_calls = "gmm", 8
    tail_percentile = 90
    warmup_ops = 1
    min_ops = 3
    trace_ops = 2

    def __init__(self, root: Path, seed: int, scratch: Path) -> None:
        self.config_path = root / DEFAULT_CONFIG
        config = RunConfig.from_json_file(self.config_path)
        self.expected_rows = len(config.sweep["n_list"]) * config.num_seeds
        self.out = scratch / f"{self.name}-{os.getpid()}"

    def op(self, op_seed: int) -> int:
        argv = ["ablate-n", "--config", str(self.config_path), "--seed", str(op_seed), "--out", str(self.out)]
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def outcome(self, code: int) -> tuple[list[str], str]:
        if code != 0:
            return [f"ablate-n exited with code {code}"], ""
        raw = (self.out / "report.json").read_bytes()
        report = json.loads(raw)
        errors = []
        rows = report["rows"]
        if len(rows) != self.expected_rows:
            errors.append(f"{len(rows)} rows, expected {self.expected_rows}")
        if any(row["diverged"] for row in rows):
            errors.append(f"{sum(row['diverged'] for row in rows)} diverged rows")
        m = report["curves"]["m_curve"]["mean_error"]
        if any(later > earlier for earlier, later in zip(m, m[1:])):
            errors.append(f"M-curve mean_error increases with n: {m}")
        return errors, _digest(raw)

    @contextlib.contextmanager
    def traced(self, tracer):
        yield  # the harness builds the model and loss; tracing.installed wraps them

    def close(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)


class AdjointMlp(Workload):
    """One op is one compare-adjoint cell on MlpModel [16, 256, 256, 16] at t=35, n=32."""

    name = "adjoint-mlp"
    op_label, op_unit = "cell", "ms"
    reference, reference_calls = "mlp", 2
    tail_percentile = 90
    warmup_ops = 5
    min_ops = 20
    trace_ops = 50
    widths = [16, 256, 256, 16]
    t = 35
    n = 32

    def __init__(self, root: Path, seed: int, scratch: Path) -> None:
        config = json.loads((root / DEFAULT_CONFIG).read_text())
        self.schedule = build_schedule(config["schedule"])
        self.model = MlpModel.random(self.widths, seed)
        self.heun = adjoint.ButcherTableau.heun()
        self.flops_per_eps = sum(
            2 * (self.widths[l] + (1 if l == 0 else 0)) * self.widths[l + 1]
            for l in range(len(self.widths) - 1)
        )

    def op(self, op_seed: int) -> dict[str, np.ndarray]:
        model, schedule, t, n = self.model, self.schedule, self.t, self.n
        rng = np.random.default_rng(op_seed)
        x_t = rng.standard_normal(model.dim)
        g0 = rng.standard_normal(model.dim)
        traj = estimator.estimate_clean(model, schedule, x_t, t, n)
        rk_traj = adjoint.estimate_clean_rk(model, schedule, x_t, t, n, self.heun)
        return {
            "clean": traj.clean_output,
            "rk_clean": rk_traj.clean_output,
            "sym": adjoint.symplectic_euler_grad(model, traj, g0, schedule, t),
            "oracle": adjoint.direct_backprop_grad(model, traj, g0, schedule, t),
            "rk": adjoint.symplectic_rk_grad(model, rk_traj, g0, schedule, t),
            "rk_oracle": adjoint.rk_direct_backprop_grad(model, rk_traj, g0, schedule, t),
            "vanilla": adjoint.vanilla_adjoint_grad(model, traj.clean_output, g0, schedule, t, n_back=n),
        }

    def outcome(self, out: dict[str, np.ndarray]) -> tuple[list[str], str]:
        errors = []
        if not all(np.all(np.isfinite(v)) for v in out.values()):
            errors.append("non-finite gradient or estimate")
        for method, oracle in (("sym", "oracle"), ("rk", "rk_oracle")):
            err = _rel_err(out[method], out[oracle])
            if not err <= 1e-9:
                errors.append(f"{method} relative error {err:.3e} against {oracle} exceeds 1e-9")
        return errors, _digest(*(out[k].tobytes() for k in sorted(out)))


WORKLOADS = {w.name: w for w in (GuidedGmm, AblateN, AdjointMlp)}


def build(name: str, root: Path, seed: int, scratch: Path):
    """Set up the named workload: config, schedule, model, loss and inputs."""
    return WORKLOADS[name](root, seed, scratch)
