"""Guided deterministic sampling with n-step adjoint gradient guidance.

The sampler walks t = T..1 with deterministic DDIM updates.  Inside a
configured window it estimates the clean output in n sub-steps, pulls the
loss gradient back to x_t with the symplectic Euler adjoint, and subtracts
rho times that gradient from x_{t-1}.  Each step in the window repeats r
times, renoising x_{t-1} back to step t between repeats (time travel).  A
run is fully deterministic for a fixed seed: one RNG stream drawn in loop
order.
"""

from __future__ import annotations

import abc
import math
import time
from dataclasses import dataclass

import numpy as np

from .adjoint import symplectic_euler_grad
from .estimator import DivergenceError, estimate_clean
from .models import ScoreModel
from .schedule import NoiseSchedule

__all__ = [
    "GuidanceLoss",
    "L2TargetLoss",
    "GramStyleLoss",
    "GuidanceConfig",
    "SampleRecord",
    "ddim_step",
    "time_travel_renoise",
    "ddim_rollout",
    "sag_sample",
]

# Ceiling on every size and count: n_steps here, and in a run config
# (symguide.harness) T, each MLP width and d_list value, num_seeds,
# m_curve_samples and repeats.  Past it numpy would be asked for terabytes,
# or a run would take hours.
MAX_SIZE = 2**12


class GuidanceLoss(abc.ABC):
    """Differentiable objective on the estimated clean output."""

    @abc.abstractmethod
    def value(self, x0: np.ndarray) -> float: ...

    @abc.abstractmethod
    def grad(self, x0: np.ndarray) -> np.ndarray: ...


class L2TargetLoss(GuidanceLoss):
    """value = |x0 - target|^2 / 2, grad = x0 - target."""

    def __init__(self, target: np.ndarray) -> None:
        target = np.array(target, dtype=np.float64)
        if not np.all(np.isfinite(target)):
            raise ValueError("target must be finite")
        target.setflags(write=False)
        self.target = target

    def value(self, x0: np.ndarray) -> float:
        diff = np.asarray(x0, dtype=np.float64) - self.target
        return 0.5 * float(diff @ diff)

    def grad(self, x0: np.ndarray) -> np.ndarray:
        return np.asarray(x0, dtype=np.float64) - self.target


class GramStyleLoss(GuidanceLoss):
    """Squared Frobenius gap between feature Gram matrices.

    Features are F @ x0 reshaped to (r, k) rows; the loss compares their
    Gram matrix Y Y^T against a fixed r x r symmetric target.
    """

    def __init__(self, target_gram: np.ndarray, feature_map: np.ndarray) -> None:
        c = np.array(target_gram, dtype=np.float64)
        F = np.array(feature_map, dtype=np.float64)
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise ValueError("target Gram matrix must be square")
        if not (np.all(np.isfinite(c)) and np.all(np.isfinite(F))):
            raise ValueError("target Gram matrix and feature map must be finite")
        if not np.allclose(c, c.T):
            raise ValueError("target Gram matrix must be symmetric")
        r = c.shape[0]
        if F.ndim != 2 or F.shape[0] % r != 0:
            raise ValueError(f"feature map must have a multiple of r = {r} rows, got {F.shape}")
        c.setflags(write=False)
        F.setflags(write=False)
        self.target_gram = c
        self.feature_map = F
        self.rows = r
        self.cols = F.shape[0] // r

    def _gram(self, x0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        Y = (self.feature_map @ np.asarray(x0, dtype=np.float64)).reshape(self.rows, self.cols)
        return Y, Y @ Y.T

    def value(self, x0: np.ndarray) -> float:
        _, gram = self._gram(x0)
        diff = gram - self.target_gram
        return float(np.sum(diff * diff))

    def grad(self, x0: np.ndarray) -> np.ndarray:
        Y, gram = self._gram(x0)
        dY = 4.0 * (gram - self.target_gram) @ Y
        return self.feature_map.T @ dY.ravel()


@dataclass(frozen=True)
class GuidanceConfig:
    """Guidance window, strength, time-travel repeats and estimate-step count.

    Guidance is active for t in [window[0], window[1]] (inclusive), with
    0 < K1 < K2 < T.  Inside the window each step applies strength rho,
    repeats `repeats` times and estimates the clean output in n_steps
    sub-steps, at most MAX_SIZE; outside it rho is 0 and each step
    runs once.  Steps whose rho is 0 skip the gradient computation
    entirely (output-equivalent, and keeps guidance-off runs bitwise equal
    to plain rollouts).
    """

    window: tuple[int, int]
    rho: float
    repeats: int = 1
    n_steps: int = 1

    def __post_init__(self) -> None:
        k1, k2 = (int(self.window[0]), int(self.window[1]))
        if not 0 < k1 < k2:
            raise ValueError(f"window must satisfy 0 < K1 < K2, got ({k1}, {k2})")
        object.__setattr__(self, "window", (k1, k2))
        if not (math.isfinite(self.rho) and self.rho >= 0.0):
            raise ValueError(f"rho must be finite and non-negative, got {self.rho!r}")
        if self.repeats < 1 or self.n_steps < 1:
            raise ValueError("repeats and n_steps must be >= 1")
        if self.n_steps > MAX_SIZE:
            raise ValueError(f"n_steps must be at most MAX_SIZE = {MAX_SIZE}, got {self.n_steps}")

    def validate_for(self, schedule: NoiseSchedule) -> None:
        if self.window[1] >= schedule.num_steps:
            raise ValueError(
                f"window {self.window} must sit strictly inside (0, T = {schedule.num_steps})"
            )

    def in_window(self, t: int) -> bool:
        return self.window[0] <= t <= self.window[1]

    def rho_at(self, t: int) -> float:
        return float(self.rho) if self.in_window(t) else 0.0

    def repeats_at(self, t: int) -> int:
        return self.repeats if self.in_window(t) else 1


@dataclass(frozen=True, eq=False)
class SampleRecord:
    """Everything one guided run produced, serializable for reports.

    guided_steps holds one entry per gradient application:
    {"t", "repeat", "n", "rho", "loss", "grad_norm"}.  wall_time_ns covers
    the guided-step region only (estimate + adjoint + update) and is kept
    out of deterministic serializations.  Records compare by identity.
    """

    final_state: np.ndarray
    guided_steps: list[dict]
    seed: int
    wall_time_ns: int
    final_loss: float

    def __post_init__(self) -> None:
        self.final_state.setflags(write=False)

    @property
    def steps_guided(self) -> int:
        return len(self.guided_steps)

    @property
    def checkpoints_stored(self) -> int:
        """Forward states the guided steps' n-step estimates stored, n + 1 each."""
        return sum(step["n"] + 1 for step in self.guided_steps)

    def to_json_dict(self) -> dict:
        return {
            "final_state": [float(v) for v in self.final_state],
            "final_loss": self.final_loss,
            "guided_steps": self.guided_steps,
            "seed": self.seed,
            "checkpoints_stored": self.checkpoints_stored,
        }


def ddim_step(model: ScoreModel, schedule: NoiseSchedule, x_t: np.ndarray, t: int) -> np.ndarray:
    """Deterministic denoising update.

    x_{t-1} = sqrt(a_{t-1}) xhat_0 + sqrt(1 - a_{t-1}) eps(x_t, t) with
    xhat_0 the one-step clean estimate.
    """
    t = schedule._check_step(t, 1)
    sqrt_a, sqrt_1ma = schedule.sqrt_alpha, schedule.sqrt_one_minus_alpha
    eps = model.eps(schedule.to_scaled(x_t, t), schedule.sigmas[t])
    xhat0 = (np.asarray(x_t, dtype=np.float64) - sqrt_1ma[t] * eps) / sqrt_a[t]
    return sqrt_a[t - 1] * xhat0 + sqrt_1ma[t - 1] * eps


def time_travel_renoise(
    x_prev: np.ndarray, schedule: NoiseSchedule, t: int, rng: np.random.Generator
) -> np.ndarray:
    """Stochastically lift x_{t-1} back to step t.

    x_t = sqrt(a_t / a_{t-1}) x_{t-1} + sqrt((a_{t-1} - a_t) / a_{t-1}) eps',
    eps' standard normal from the run's stream.
    """
    t = schedule._check_step(t, 1)
    a_t = schedule.alpha[t]
    a_prev = schedule.alpha[t - 1]
    x_prev = np.asarray(x_prev, dtype=np.float64)
    noise = rng.standard_normal(x_prev.shape)
    return math.sqrt(a_t / a_prev) * x_prev + math.sqrt((a_prev - a_t) / a_prev) * noise


def ddim_rollout(model: ScoreModel, schedule: NoiseSchedule, seed: int) -> np.ndarray:
    """Plain unguided rollout from a seeded Gaussian start."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(model.dim)
    for t in range(schedule.num_steps, 0, -1):
        x = ddim_step(model, schedule, x, t)
    return x


# A sampler state whose norm passes this bound counts as diverged.
_NORM_GUARD = 1e9


# An overflow or invalid operation ends in one of the non-finite checks
# below, as a DivergenceError, never in a floating-point warning.
@np.errstate(over="ignore", invalid="ignore")
def sag_sample(
    model: ScoreModel,
    schedule: NoiseSchedule,
    loss: GuidanceLoss,
    config: GuidanceConfig,
    seed: int,
) -> SampleRecord:
    """Run the full guided sampling loop and record per-step metrics.

    Raises DivergenceError (with step diagnostics) if a state, estimate,
    loss value, gradient or its norm leaves the finite range or the state
    norm passes _NORM_GUARD (1e9).  No numpy floating-point warning escapes.
    """
    config.validate_for(schedule)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(model.dim)
    guided_steps: list[dict] = []
    guided_ns = 0
    for t in range(schedule.num_steps, 0, -1):
        r_t = config.repeats_at(t)
        rho_t = config.rho_at(t)
        for rep in range(r_t):
            x_prev = ddim_step(model, schedule, x, t)
            if not np.isfinite(x_prev).all() or math.sqrt(x_prev.dot(x_prev)) > _NORM_GUARD:
                raise DivergenceError(
                    f"sampler state diverged at t={t} repeat={rep} "
                    f"(norm {np.linalg.norm(x_prev[np.isfinite(x_prev)]):.3e})"
                )
            if rho_t > 0.0:
                t0 = time.perf_counter_ns()
                traj = estimate_clean(model, schedule, x, t, config.n_steps)
                value = loss.value(traj.clean_output)
                if not math.isfinite(value):
                    raise DivergenceError(f"non-finite guidance loss at t={t} repeat={rep}")
                grad = symplectic_euler_grad(
                    model, traj, loss.grad(traj.clean_output), schedule, t
                )
                gnorm = math.sqrt(grad.dot(grad))  # NaN or inf if any entry is, or if it overflows
                if not math.isfinite(gnorm):
                    raise DivergenceError(f"non-finite guidance gradient at t={t} repeat={rep}")
                x_prev = x_prev - rho_t * grad
                guided_ns += time.perf_counter_ns() - t0
                guided_steps.append(
                    {
                        "t": t,
                        "repeat": rep,
                        "n": config.n_steps,
                        "rho": rho_t,
                        "loss": value,
                        "grad_norm": gnorm,
                    }
                )
                if not np.isfinite(x_prev).all() or math.sqrt(x_prev.dot(x_prev)) > _NORM_GUARD:
                    raise DivergenceError(
                        f"guided state diverged at t={t} repeat={rep} (rho={rho_t})"
                    )
            if rep < r_t - 1:
                x = time_travel_renoise(x_prev, schedule, t, rng)
            else:
                x = x_prev
    final_loss = loss.value(x)
    if not math.isfinite(final_loss):
        raise DivergenceError(f"non-finite final loss (final-state norm {math.sqrt(x.dot(x)):.3e})")
    return SampleRecord(
        final_state=x,
        guided_steps=guided_steps,
        seed=seed,
        wall_time_ns=guided_ns,
        final_loss=final_loss,
    )
