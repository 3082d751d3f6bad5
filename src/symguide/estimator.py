"""n-step estimation of the clean output from a noisy state.

Starting from x_t, the clean output is predicted by integrating the
sampling ODE d x_bar = eps_bar d sigma down to sigma = 0 in n sub-steps of
an explicit Runge-Kutta method, given by its ButcherTableau (a, b, c).
Explicit Euler is the one-stage tableau of the same loop:

    x_bar[tau-1] = x_bar[tau] + (sigma[tau-1] - sigma[tau]) * eps(x_bar[tau], sigma[tau])

for tau = n..1, with x_bar[n] = x_t / sqrt(alpha_t).  Sub-steps are placed
uniformly in continuous step-index space and alpha is interpolated in log
space, so endpoints are exact and integer knots reproduce the parent
schedule.  The scaled trajectory is recorded with its sigma grid: the n+1
checkpoints plus, for s > 1 stages, the stage points 1..s-1 of every step
(stage 0 of an explicit step is its start checkpoint).  That is exactly what
the symplectic adjoint solvers consume; for Euler it is the n+1 checkpoints
alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .models import ScoreModel
from .schedule import NoiseSchedule

__all__ = [
    "DivergenceError",
    "ButcherTableau",
    "CheckpointTrajectory",
    "MCurvePoint",
    "make_sub_schedule",
    "estimate_clean",
    "estimate_clean_rk",
    "one_step_estimate",
    "estimation_error_curve",
]


class DivergenceError(RuntimeError):
    """A state or gradient left the finite range during integration."""


@dataclass(frozen=True)
class ButcherTableau:
    """An explicit forward RK method (a, b, c); its costate coefficients are derived.

    a is strictly lower triangular (explicit forward method) and every
    weight b[i] is nonzero.  The costate sweep (see the adjoint module)
    weights its stages by b itself, evaluates them at the forward stage
    points, and couples them by A[i][j] = b[j] a[j][i] / b[i], the solution
    of the conjugacy identity.  A is strictly upper triangular, so the
    backward stage sweep stays explicit.  All arrays are read-only, so the
    identity checked here holds for the tableau's lifetime.  A zero weight
    stays rejected: A divides by b[i], and such tableaux need a separate
    costate formulation (Sanz-Serna 2016; Matsubara et al. 2021) that no
    caller needs.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    name: str = field(default="", compare=False)
    A: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        s = np.size(self.b)
        for name, shape in (("a", (s, s)), ("b", (s,)), ("c", (s,))):
            arr = np.array(getattr(self, name), dtype=np.float64)
            if arr.shape != shape:
                raise ValueError(f"tableau field {name} has shape {arr.shape}, expected {shape}")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if np.any(np.triu(self.a) != 0.0):
            raise ValueError("forward tableau must be strictly lower triangular")
        if np.any(self.b == 0.0):
            raise ValueError("all forward weights b[i] must be nonzero")
        A = np.triu(self.b[None, :] * self.a.T / self.b[:, None], 1)
        A.setflags(write=False)
        object.__setattr__(self, "A", A)
        res = self.conjugacy_residual()
        if not res <= 1e-15:  # NaN coefficients fail too
            raise ValueError(f"conjugacy condition violated: max residual {res:.3e}")

    @property
    def stages(self) -> int:
        return len(self.b)

    def conjugacy_residual(self) -> float:
        """max |b_i A_ij + b_j a_bwd_ji - b_i b_j| over all i, j.

        a_bwd is the state half of the backward pass, the reflection
        b[j] - a[i][j] of the forward tableau.
        """
        a_bwd = self.b[None, :] - self.a
        res = self.b[:, None] * self.A + (self.b[None, :] * a_bwd.T) - self.b[:, None] * self.b[None, :]
        return float(np.abs(res).max())

    @classmethod
    def euler(cls) -> "ButcherTableau":
        return cls(np.zeros((1, 1)), np.array([1.0]), np.array([0.0]), name="euler")

    @classmethod
    def heun(cls) -> "ButcherTableau":
        return cls(
            np.array([[0.0, 0.0], [1.0, 0.0]]),
            np.array([0.5, 0.5]),
            np.array([0.0, 1.0]),
            name="heun",
        )


_EULER = ButcherTableau.euler()


@dataclass(frozen=True)
class CheckpointTrajectory:
    """Stored forward states of one n-step estimate, in scaled coordinates.

    sigma is the (n+1,) sub-step grid of make_sub_schedule.  states[tau] is
    x_bar at sub-step tau (states[n] = to_scaled(x_t)); at tau = 0,
    sqrt(alpha) = 1, so states[0] is the clean output itself.  Step record
    k (k = 0..n-1) is the step that produced states[k] from states[k+1];
    stage_states[k, i - 1] holds its stage point i >= 1.  Stage 0 is
    states[k+1] itself, so a one-stage (Euler) trajectory stores the n+1
    checkpoints and nothing else.
    """

    sigma: np.ndarray
    tableau: ButcherTableau
    states: np.ndarray        # (n+1, d)
    stage_states: np.ndarray  # (n, s-1, d)

    def __post_init__(self) -> None:
        for arr in (self.sigma, self.states, self.stage_states):
            arr.setflags(write=False)

    @property
    def n(self) -> int:
        return len(self.sigma) - 1

    @property
    def clean_output(self) -> np.ndarray:
        """The estimate x'_0 = states[0], a read-only view."""
        return self.states[0]

    def stage(self, k: int, i: int) -> tuple[np.ndarray, float]:
        """Point and sigma at which step record k evaluated its stage i."""
        hi = float(self.sigma[k + 1])
        sigma = hi + float(self.tableau.c[i]) * (float(self.sigma[k]) - hi)
        return (self.states[k + 1] if i == 0 else self.stage_states[k, i - 1]), sigma


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
    t = schedule._check_step(t)
    if t < 1:
        raise ValueError("sub-schedules require t >= 1")
    n = int(n)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    sigma = schedule._sub_grids.get((t, n))
    if sigma is not None:
        return sigma
    grid = np.arange(n + 1) * (t / n)  # fractional step indices, tau = 0..n
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


def _check_finite(x: np.ndarray, tau: int, what: str = "state") -> None:
    if not np.isfinite(x).all():
        norm = float(np.linalg.norm(x[np.isfinite(x)]))
        raise DivergenceError(
            f"non-finite {what} at sub-step tau={tau} (finite-part norm {norm:.3e})"
        )


def _integrate(
    model: ScoreModel,
    schedule: NoiseSchedule,
    x_t: np.ndarray,
    t: int,
    n: int,
    tableau: ButcherTableau,
) -> CheckpointTrajectory:
    """The forward loop: n explicit RK sub-steps of the estimate ODE, stage by stage."""
    x_t = np.asarray(x_t, dtype=np.float64)
    if x_t.shape != (model.dim,):
        raise ValueError(f"x_t has shape {x_t.shape}, expected ({model.dim},)")
    sigma = make_sub_schedule(schedule, t, n)
    sig = sigma.tolist()
    s = tableau.stages
    a, b, c = tableau.a.tolist(), tableau.b.tolist(), tableau.c.tolist()
    states = np.empty((n + 1, model.dim))
    stage_states = np.empty((n, s - 1, model.dim))
    states[n] = schedule.to_scaled(x_t, t)
    _check_finite(states[n], n)
    slopes: list[np.ndarray | None] = [None] * s
    for tau in range(n, 0, -1):
        y = states[tau]
        h = sig[tau - 1] - sig[tau]  # signed, negative
        for i in range(s):
            x = y
            for j in range(i):
                if a[i][j] != 0.0:
                    x = x + h * a[i][j] * slopes[j]
            if i:
                stage_states[tau - 1, i - 1] = x
            slopes[i] = model.eps(x, sig[tau] + c[i] * h)
        for i in range(s):
            y = y + h * b[i] * slopes[i]
        states[tau - 1] = y
        _check_finite(y, tau - 1)
    return CheckpointTrajectory(sigma=sigma, tableau=tableau, states=states, stage_states=stage_states)


def estimate_clean(
    model: ScoreModel, schedule: NoiseSchedule, x_t: np.ndarray, t: int, n: int
) -> CheckpointTrajectory:
    """Integrate the estimate ODE from x_t down to sigma = 0 in n Euler steps."""
    return _integrate(model, schedule, x_t, t, n, _EULER)


def estimate_clean_rk(
    model: ScoreModel,
    schedule: NoiseSchedule,
    x_t: np.ndarray,
    t: int,
    n: int,
    tableau: ButcherTableau,
) -> CheckpointTrajectory:
    """s-stage explicit RK integration of the estimate ODE, stage points recorded."""
    return _integrate(model, schedule, x_t, t, n, tableau)


def one_step_estimate(
    model: ScoreModel, schedule: NoiseSchedule, x_t: np.ndarray, t: int
) -> np.ndarray:
    """Closed-form single-step clean estimate.

    Written in scaled coordinates, x_bar - sigma_t * eps, which is the n = 1
    estimate verbatim; unscaled it reads (x_t - sqrt(1-a_t) eps) / sqrt(a_t).
    """
    t = schedule._check_step(t)
    x_bar = schedule.to_scaled(x_t, t)
    sigma_t = schedule.sigma(t)
    return x_bar + (0.0 - sigma_t) * model.eps(x_bar, sigma_t)


@dataclass(frozen=True)
class MCurvePoint:
    n: int
    mean_error: float
    stderr: float


MIN_ERROR_SAMPLES = 50


def estimation_error_curve(
    model: ScoreModel,
    schedule: NoiseSchedule,
    t: int,
    n_list: list[int],
    n_ref: int,
    num_samples: int,
    seed: int,
) -> list[MCurvePoint]:
    """Mean distance between n-step and reference clean estimates.

    Draws x_t from the model's noisy marginal at step t (models without a
    data distribution fall back to standard-normal draws), solves the same
    estimate at every n in n_list and at a high-resolution reference n_ref,
    and averages the l2 gap per n.  Deterministic for a fixed seed.
    """
    n_list = [int(n) for n in n_list]
    if min(n_list) < 1:
        raise ValueError("all n must be >= 1")
    if n_ref < 8 * max(n_list):
        raise ValueError(f"n_ref = {n_ref} too coarse; need >= 8 * max(n_list) = {8 * max(n_list)}")
    if num_samples < MIN_ERROR_SAMPLES:
        raise ValueError(f"num_samples must be >= {MIN_ERROR_SAMPLES}, got {num_samples}")
    rng = np.random.default_rng(seed)
    if hasattr(model, "sample_marginal"):
        xs = model.sample_marginal(rng, schedule, t, num_samples)
    else:
        xs = rng.standard_normal((num_samples, model.dim))
    errors = {n: np.empty(num_samples) for n in n_list}
    for i in range(num_samples):
        ref = estimate_clean(model, schedule, xs[i], t, n_ref).clean_output
        for n in n_list:
            est = estimate_clean(model, schedule, xs[i], t, n).clean_output
            errors[n][i] = np.linalg.norm(est - ref)
    out = []
    for n in n_list:
        e = errors[n]
        out.append(
            MCurvePoint(
                n=n,
                mean_error=float(e.mean()),
                stderr=float(e.std(ddof=1) / math.sqrt(num_samples)),
            )
        )
    return out
