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
from .estimator import DivergenceError, _finite_norm, estimate_clean
from .models import ScoreModel
from .schedule import NoiseSchedule, _count, _frozen, _real, _vector

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

# Ceiling on every size and count: repeats and n_steps here, and in a run
# config (symguide.harness) T, each MLP width and d_list value, num_seeds and
# m_curve_samples.  Past it numpy would be asked for terabytes, or a run would
# take hours.
MAX_SIZE = 2**12


class GuidanceLoss(abc.ABC):
    """Differentiable objective on the estimated clean output, a vector of length dim."""

    dim: int

    @abc.abstractmethod
    def value(self, x0: np.ndarray) -> float: ...

    @abc.abstractmethod
    def grad(self, x0: np.ndarray) -> np.ndarray: ...


class L2TargetLoss(GuidanceLoss):
    """value = |x0 - target|^2 / 2, grad = x0 - target."""

    def __init__(self, target: np.ndarray) -> None:
        target = _frozen(target, "target")
        if target.ndim != 1:
            raise ValueError(f"target must be a vector, got shape {target.shape}")
        self.target = target
        self.dim = len(target)

    def __reduce__(self):
        # Copies and pickles rebuild through __init__, which freezes a copy of the target.
        return type(self), (self.target,)

    def value(self, x0: np.ndarray) -> float:
        diff = _vector(x0, self.dim, "x0") - self.target
        return 0.5 * float(diff.dot(diff))

    def grad(self, x0: np.ndarray) -> np.ndarray:
        return _vector(x0, self.dim, "x0") - self.target


class GramStyleLoss(GuidanceLoss):
    """Squared Frobenius gap between feature Gram matrices.

    Features are F @ x0 reshaped to (r, k) rows; the loss compares their
    Gram matrix Y Y^T against a fixed r x r symmetric target.  x0 has one
    entry per feature-map column.
    """

    def __init__(self, target_gram: np.ndarray, feature_map: np.ndarray) -> None:
        c = _frozen(target_gram, "target Gram matrix")
        F = _frozen(feature_map, "feature map")
        if c.ndim != 2 or c.shape[0] != c.shape[1] or c.shape[0] < 1:
            raise ValueError(f"target Gram matrix must be square and non-empty, got shape {c.shape}")
        with np.errstate(over="ignore", invalid="ignore"):  # c - c.T may overflow to inf: not close
            symmetric = np.allclose(c, c.T)
        if not symmetric:
            raise ValueError("target Gram matrix must be symmetric")
        r = c.shape[0]
        if F.ndim != 2 or F.shape[0] % r != 0:
            raise ValueError(f"feature map must have a multiple of r = {r} rows, got {F.shape}")
        self.target_gram = c
        self.feature_map = F
        self.rows = r
        self.cols = F.shape[0] // r
        self.dim = F.shape[1]

    def __reduce__(self):
        return type(self), (self.target_gram, self.feature_map)

    def _gram(self, x0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        Y = self.feature_map.dot(_vector(x0, self.dim, "x0")).reshape(self.rows, self.cols)
        return Y, Y.dot(Y.T)

    def value(self, x0: np.ndarray) -> float:
        _, gram = self._gram(x0)
        diff = gram - self.target_gram
        return float(np.sum(diff * diff))

    def grad(self, x0: np.ndarray) -> np.ndarray:
        Y, gram = self._gram(x0)
        dY = (4.0 * (gram - self.target_gram)).dot(Y)
        return self.feature_map.T.dot(dY.ravel())


@dataclass(frozen=True)
class GuidanceConfig:
    """Guidance window, strength, time-travel repeats and estimate-step count.

    Guidance is active for t in [window[0], window[1]] (inclusive), with
    0 < K1 < K2 < T.  Inside the window each step applies strength rho,
    repeats `repeats` times and estimates the clean output in n_steps
    sub-steps, each count at most MAX_SIZE; outside it rho is 0 and each step
    runs once.  Steps whose rho is 0 skip the gradient computation
    entirely (output-equivalent, and keeps guidance-off runs bitwise equal
    to plain rollouts).  The window steps, repeats and n_steps are
    integers and rho a finite real; a bool, a string or a float count
    (2.0 too) is rejected, never truncated or parsed.
    """

    window: tuple[int, int]
    rho: float
    repeats: int = 1
    n_steps: int = 1

    def __post_init__(self) -> None:
        window = tuple(_count(k, "window step", 1) for k in self.window)
        if len(window) != 2 or not window[0] < window[1]:
            raise ValueError(f"window must be a pair (K1, K2) with 0 < K1 < K2, got {self.window!r}")
        object.__setattr__(self, "window", window)
        object.__setattr__(self, "rho", _real(self.rho, "rho"))
        if self.rho < 0.0:
            raise ValueError(f"rho must be non-negative, got {self.rho!r}")
        object.__setattr__(self, "repeats", _count(self.repeats, "repeats", 1, MAX_SIZE))
        object.__setattr__(self, "n_steps", _count(self.n_steps, "n_steps", 1, MAX_SIZE))

    def validate_for(self, schedule: NoiseSchedule) -> None:
        if self.window[1] >= schedule.num_steps:
            raise ValueError(
                f"window {self.window} must sit strictly inside (0, T = {schedule.num_steps})"
            )

    def in_window(self, t: int) -> bool:
        return self.window[0] <= t <= self.window[1]

    def rho_at(self, t: int) -> float:
        return self.rho if self.in_window(t) else 0.0

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

    def __reduce__(self):
        return type(self), (self.final_state, self.guided_steps, self.seed, self.wall_time_ns, self.final_loss)

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
    x_t = np.asarray(x_t, dtype=np.float64)
    eps = model.eps(schedule.to_scaled(x_t, t), schedule.sigmas[t])
    xhat0 = (x_t - sqrt_1ma[t] * eps) / sqrt_a[t]
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


# A sampler state whose norm passes this bound counts as diverged.  The check is
# one comparison, `not norm <= _NORM_GUARD`: a NaN or inf entry, or a dot
# product that overflows, makes the norm NaN or inf, which fails it too.
_NORM_GUARD = 1e9


def _diverged(x: np.ndarray) -> bool:
    return not math.sqrt(x.dot(x)) <= _NORM_GUARD


# Both samplers follow the overflow rule of the estimator module docstring: an
# overflow ends in a state or non-finite check, as a DivergenceError.
@np.errstate(over="ignore", invalid="ignore")
def ddim_rollout(model: ScoreModel, schedule: NoiseSchedule, seed: int) -> np.ndarray:
    """Plain unguided rollout from a seeded Gaussian start.

    Checks each state as sag_sample does and raises DivergenceError when
    one diverges, so a guidance-off sample and its rollout fail alike.
    """
    rng = np.random.default_rng(_count(seed, "seed"))
    x = rng.standard_normal(model.dim)
    for t in range(schedule.num_steps, 0, -1):
        x = ddim_step(model, schedule, x, t)
        if _diverged(x):
            raise DivergenceError(f"unguided rollout diverged at t={t} (norm {_finite_norm(x):.3e})")
    return x


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
    Raises ValueError if the loss and the model differ in dimension.
    """
    seed = _count(seed, "seed")
    config.validate_for(schedule)
    if loss.dim != model.dim:
        raise ValueError(f"loss dimension {loss.dim} does not match model dimension {model.dim}")
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(model.dim)
    n = config.n_steps
    guided_steps: list[dict] = []
    guided_ns = 0
    for t in range(schedule.num_steps, 0, -1):
        r_t = config.repeats_at(t)
        rho_t = config.rho_at(t)
        for rep in range(r_t):
            x_prev = ddim_step(model, schedule, x, t)
            if _diverged(x_prev):
                raise DivergenceError(
                    f"sampler state diverged at t={t} repeat={rep} (norm {_finite_norm(x_prev):.3e})"
                )
            if rho_t > 0.0:
                t0 = time.perf_counter_ns()
                traj = estimate_clean(model, schedule, x, t, n)
                x0 = traj.clean_output
                value = loss.value(x0)
                if not math.isfinite(value):
                    raise DivergenceError(f"non-finite guidance loss at t={t} repeat={rep}")
                grad = symplectic_euler_grad(model, traj, loss.grad(x0), schedule, t)
                gnorm = math.sqrt(grad.dot(grad))  # NaN or inf if any entry is, or if it overflows
                if not math.isfinite(gnorm):
                    raise DivergenceError(f"non-finite guidance gradient at t={t} repeat={rep}")
                x_prev = x_prev - rho_t * grad
                del traj, x0  # else the next step's estimate is built while this one's checkpoints live
                guided_ns += time.perf_counter_ns() - t0
                guided_steps.append(
                    {
                        "t": t,
                        "repeat": rep,
                        "n": n,
                        "rho": rho_t,
                        "loss": value,
                        "grad_norm": gnorm,
                    }
                )
                if _diverged(x_prev):
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
