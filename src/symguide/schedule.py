"""Discrete noise schedules for deterministic diffusion sampling.

A schedule is the sequence of cumulative signal coefficients alpha[t] for
t = 0..T, with alpha[0] = 1 and alpha strictly decreasing.  The forward
corruption is x_t = sqrt(alpha_t) x_0 + sqrt(1 - alpha_t) eps.

Everything downstream works in the reparameterized coordinates

    sigma_t = sqrt(1 - alpha_t) / sqrt(alpha_t),
    x_bar   = x_t / sqrt(alpha_t),

in which the deterministic sampler becomes an ODE d x_bar = eps_bar d sigma.
sigma is strictly increasing in t and sigma(0) = 0.  All arithmetic is
float64.  This module owns the step geometry: the step range, the pull-back
to scaled coordinates, and the sub-step sigma grids of the n-step estimate
(make_sub_schedule).  A schedule's values are immutable after
construction; its only mutable part is a memo of the read-only sub-step
grids, at most one per (t, n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["NoiseSchedule", "build_linear_schedule", "make_sub_schedule"]


@dataclass(frozen=True, eq=False)
class NoiseSchedule:
    """Cumulative signal coefficients alpha[0..T] and derived sigma values.

    sigmas, sqrt_alpha and sqrt_one_minus_alpha hold the per-step values as
    Python floats, computed once, so per-step callers do no numpy-scalar
    arithmetic.  _sub_grids memoises the read-only sigma grid that
    make_sub_schedule builds for each (t, n): each schedule owns its own
    dict, and a grid never changes once stored.  Schedules compare by
    identity.
    """

    alpha: np.ndarray
    log_alpha: np.ndarray = field(repr=False)
    sigmas: tuple[float, ...] = field(repr=False)
    sqrt_alpha: tuple[float, ...] = field(repr=False)
    sqrt_one_minus_alpha: tuple[float, ...] = field(repr=False)
    _sub_grids: dict[tuple[int, int], np.ndarray] = field(repr=False)

    def __init__(self, alpha: np.ndarray) -> None:
        alpha = np.asarray(alpha, dtype=np.float64)
        _validate_alpha(alpha)
        alpha = alpha.copy()
        alpha.setflags(write=False)
        log_alpha = np.log(alpha)
        log_alpha.setflags(write=False)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "log_alpha", log_alpha)
        with np.errstate(over="ignore"):
            sigmas = np.sqrt((1.0 - alpha) / alpha)
        if not np.all(np.isfinite(sigmas)):
            raise ValueError("alpha too small: sigma = sqrt((1 - alpha) / alpha) overflows float64")
        object.__setattr__(self, "sigmas", tuple(sigmas.tolist()))
        object.__setattr__(self, "sqrt_alpha", tuple(math.sqrt(a) for a in alpha.tolist()))
        object.__setattr__(
            self, "sqrt_one_minus_alpha", tuple(math.sqrt(1.0 - a) for a in alpha.tolist())
        )
        object.__setattr__(self, "_sub_grids", {})

    @property
    def num_steps(self) -> int:
        return len(self.alpha) - 1

    def _check_step(self, t: int, least: int = 0) -> int:
        """t as an int in [least, T]; a step that starts an update needs least = 1."""
        t = int(t)
        if not least <= t <= self.num_steps:
            raise ValueError(f"step index {t} outside [{least}, {self.num_steps}]")
        return t

    def sigma(self, t: int) -> float:
        """sqrt(1 - alpha_t) / sqrt(alpha_t); exactly 0 at t = 0."""
        return self.sigmas[self._check_step(t)]

    def to_scaled(self, x: np.ndarray, t: int) -> np.ndarray:
        """x_bar = x / sqrt(alpha_t).  Identity at t = 0.

        The same division pulls a gradient in scaled coordinates back to
        x_t: d x_bar / d x_t = 1 / sqrt(alpha_t).
        """
        return np.asarray(x, dtype=np.float64) / self.sqrt_alpha[self._check_step(t)]


def make_sub_schedule(schedule: NoiseSchedule, t: int, n: int) -> np.ndarray:
    """The read-only (n+1,) sigma grid of n sub-steps between step t and 0.

    Sub-steps are placed uniformly in step-index space and alpha is
    interpolated in log space, exact at integer knots, so sigma[0] = 0,
    sigma[n] = sigma(t), integer knots reproduce the parent schedule, and
    the grid is strictly increasing in tau.  t and n are checked on every
    call; the grid is built once per (t, n) and memoised on the schedule,
    so every later call for the same (t, n) returns that same read-only
    array.
    """
    t = schedule._check_step(t, 1)
    n = int(n)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    sigma = schedule._sub_grids.get((t, n))
    if sigma is not None:
        return sigma
    grid = np.arange(n + 1) * t / n  # fractional step indices, tau = 0..n; exact at integers
    log_alpha = schedule.log_alpha
    sub_alpha = np.exp(np.interp(grid, np.arange(len(log_alpha)), log_alpha))
    # Exact values at integer knots (endpoints included) beat the exp/log trip.
    on_knot = grid == np.round(grid)
    sub_alpha[on_knot] = schedule.alpha[np.round(grid[on_knot]).astype(int)]
    sigma = np.sqrt((1.0 - sub_alpha) / sub_alpha)
    if np.any(np.diff(sigma) <= 0.0):
        raise ValueError("sub-schedule sigma values are not strictly increasing")
    sigma.setflags(write=False)
    schedule._sub_grids[t, n] = sigma
    return sigma


def _validate_alpha(alpha: np.ndarray) -> None:
    if alpha.ndim != 1 or len(alpha) < 3:
        raise ValueError("alpha must be a 1-d array with T >= 2 (length >= 3)")
    if not np.all(np.isfinite(alpha)):
        raise ValueError("alpha contains non-finite values")
    if alpha[0] != 1.0:
        raise ValueError(f"alpha[0] must be exactly 1, got {alpha[0]!r}")
    if np.any(alpha <= 0.0):
        raise ValueError("alpha underflowed to <= 0; schedule too aggressive")
    if np.any(alpha > 1.0):
        raise ValueError("alpha values must lie in (0, 1]")
    if np.any(np.diff(alpha) >= 0.0):
        raise ValueError("alpha must be strictly decreasing")


def build_linear_schedule(T: int, beta_min: float, beta_max: float) -> NoiseSchedule:
    """Cumulative-product schedule with per-step rates linear in the step index.

    beta_s runs linearly from beta_min (s=1) to beta_max (s=T) and
    alpha[t] = prod_{s<=t} (1 - beta_s), alpha[0] = 1.
    """
    T = int(T)
    if T < 2:
        raise ValueError(f"T must be >= 2, got {T}")
    beta_min = float(beta_min)
    beta_max = float(beta_max)
    for name, b in (("beta_min", beta_min), ("beta_max", beta_max)):
        if not 0.0 < b < 1.0:
            raise ValueError(f"{name} must lie in (0, 1), got {b}")
    if beta_min > beta_max:
        raise ValueError(f"beta_min > beta_max ({beta_min} > {beta_max})")
    betas = np.linspace(beta_min, beta_max, T)
    alpha = np.empty(T + 1, dtype=np.float64)
    alpha[0] = 1.0
    alpha[1:] = np.cumprod(1.0 - betas)
    if alpha[-1] <= 0.0:
        raise ValueError("schedule underflows alpha to 0 in float64")
    return NoiseSchedule(alpha)
