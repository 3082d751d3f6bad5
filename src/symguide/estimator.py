"""n-step estimation of the clean output from a noisy state.

Starting from x_t, the clean output is predicted by integrating the
sampling ODE d x_bar = eps_bar d sigma down to sigma = 0 in n sub-steps of
an explicit Runge-Kutta method, given by its ButcherTableau (a, b, c).
Explicit Euler is the one-stage tableau of the same loop:

    x_bar[tau-1] = x_bar[tau] + (sigma[tau-1] - sigma[tau]) * eps(x_bar[tau], sigma[tau])

for tau = n..1, with x_bar[n] = x_t / sqrt(alpha_t), on the sub-step sigma
grid of schedule.make_sub_schedule.  The scaled trajectory is recorded with
its sigma grid: the n+1 checkpoints plus, for s > 1 stages, the stage points
1..s-1 of every step (stage 0 of an explicit step is its start checkpoint).
That is exactly what the symplectic adjoint solvers consume; for Euler it is
the n+1 checkpoints alone.

Grid rule.  The read-only make_sub_schedule array is the one form of the
grid any loop reads, here and in the adjoint module: each step reads its
knots in place with ndarray.item and carries the knot it shares with the
next step, and no loop copies the grid into a list or indexes it into
numpy scalars.  A forward estimate and a symplectic sweep together thus
hold what the trajectory stores and O(1) more, whatever n.

Overflow rule.  Every public estimator and solver, and every sampler, runs
under its own np.errstate(over="ignore", invalid="ignore") and checks the
states it steps and the value it returns, so a blow-up ends in a
DivergenceError whether or not the caller set an errstate, and never in a
floating-point warning or a returned inf or NaN.  Each check screens a
vector with one dot product, whose finite sum of squares proves every entry
finite; only an inf or NaN sum runs the elementwise test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .models import ScoreModel
# Imported by name: perfbench traces make_sub_schedule through this module's attribute.
from .schedule import NoiseSchedule, _count, _frozen, _vector, make_sub_schedule

__all__ = [
    "DivergenceError",
    "ButcherTableau",
    "CheckpointTrajectory",
    "MCurvePoint",
    "estimate_clean",
    "estimate_clean_rk",
    "estimation_error_curve",
]


class DivergenceError(RuntimeError):
    """A state or gradient left the finite range (see the overflow rule above)."""


@dataclass(frozen=True, eq=False)
class ButcherTableau:
    """An explicit forward RK method (a, b, c); its costate coefficients are derived.

    a, b and c are finite, a is strictly lower triangular (explicit forward
    method) and every weight b[i] is nonzero.  The costate sweep (see the
    adjoint module) weights its stages by b itself, evaluates them at the
    forward stage points, and couples them by A[i][j] = b[j] a[j][i] / b[i],
    the solution of the conjugacy identity.  A is strictly upper triangular,
    so the backward stage sweep stays explicit.  All arrays are read-only, so the
    identity checked here holds for the tableau's lifetime.  A zero weight
    stays rejected: A divides by b[i], and such tableaux need a separate
    costate formulation (Sanz-Serna 2016; Matsubara et al. 2021) that no
    caller needs.  Tableaux compare by identity.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    name: str = ""
    A: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        s = np.size(self.b)
        for name, shape in (("a", (s, s)), ("b", (s,)), ("c", (s,))):
            arr = _frozen(getattr(self, name), f"tableau field {name}")
            if arr.shape != shape:
                raise ValueError(f"tableau field {name} has shape {arr.shape}, expected {shape}")
            object.__setattr__(self, name, arr)
        if np.any(np.triu(self.a) != 0.0):
            raise ValueError("forward tableau must be strictly lower triangular")
        if np.any(self.b == 0.0):
            raise ValueError("all forward weights b[i] must be nonzero")
        # An A that overflows fails _frozen's finite check, and a residual that does fails the bound.
        with np.errstate(over="ignore", invalid="ignore"):
            A = np.triu(self.b[None, :] * self.a.T / self.b[:, None], 1)
            object.__setattr__(self, "A", _frozen(A, "tableau field A"))
            res = self.conjugacy_residual()
        if not res <= 1e-15:  # a residual that overflows to NaN fails too
            raise ValueError(f"conjugacy condition violated: max residual {res:.3e}")

    def __reduce__(self):
        # Copies and pickles rebuild through __post_init__, which freezes the copied arrays.
        return type(self), (self.a, self.b, self.c, self.name)

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


@dataclass(frozen=True, eq=False)
class CheckpointTrajectory:
    """Stored forward states of one n-step estimate, in scaled coordinates.

    sigma is the (n+1,) sub-step grid of make_sub_schedule.  states[tau] is
    x_bar at sub-step tau (states[n] = to_scaled(x_t)); at tau = 0,
    sqrt(alpha) = 1, so states[0] is the clean output itself.  Step record
    k (k = 0..n-1) is the step that produced states[k] from states[k+1];
    stage_states[k, i - 1] holds its stage point i >= 1, read through
    stage().  Stage 0 is states[k+1] itself, so a one-stage (Euler)
    trajectory stores the n+1 checkpoints and nothing else.  Trajectories
    compare by identity.
    """

    sigma: np.ndarray
    tableau: ButcherTableau
    states: np.ndarray        # (n+1, d)
    stage_states: np.ndarray  # (n, s-1, d)

    def __post_init__(self) -> None:
        for arr in (self.sigma, self.states, self.stage_states):
            arr.setflags(False)  # write=False, passed by position: the keyword parse costs as much as the call

    def __reduce__(self):
        return type(self), (self.sigma, self.tableau, self.states, self.stage_states)

    @property
    def n(self) -> int:
        return len(self.sigma) - 1

    @property
    def clean_output(self) -> np.ndarray:
        """The estimate x'_0 = states[0], a read-only view."""
        return self.states[0]

    def stage(self, k: int, i: int) -> tuple[np.ndarray, float]:
        """Point and sigma at which step record k evaluated its stage i."""
        hi = self.sigma.item(k + 1)
        sigma = hi + self.tableau.c.item(i) * (self.sigma.item(k) - hi)
        return (self.states[k + 1] if i == 0 else self.stage_states[k, i - 1]), sigma


def _check_finite(x: np.ndarray, tau: int, what: str = "state") -> None:
    """Raise DivergenceError unless every entry of the float64 vector x is finite.

    x.dot(x) screens first: squares are >= 0, so a finite sum proves every
    entry finite.  Only an inf or NaN sum (a non-finite entry, or finite
    entries whose squares overflow) runs the elementwise test.  Callers run
    under the overflow rule's errstate, which the screen's overflow needs.
    """
    if not math.isfinite(x.dot(x)) and not np.isfinite(x).all():
        raise DivergenceError(f"non-finite {what} at sub-step tau={tau} (finite-part norm {_finite_norm(x):.3e})")


def _finite_norm(x: np.ndarray) -> float:
    """The 2-norm of x's finite entries, scaled by their largest magnitude first: inf only past float64's range."""
    finite = np.abs(x[np.isfinite(x)])
    top = float(finite.max(initial=0.0))
    return top * float(np.linalg.norm(finite / top)) if top else 0.0


def _walk(y0: np.ndarray, sig: np.ndarray, tableau: ButcherTableau, slope, what: str = "state"):
    """The forward RK loop from y0 at sig[n] down to sig[0]; slope(x, sigma) is a stage's slope.

    Returns the n+1 step values, each checked finite, and the (n, s-1, d) stage points 1..s-1.
    Each sub-step does its numpy work and little else: s slope calls, the scaled sums of its
    stage points and of its update (one array product and one sum per nonzero coefficient), one
    store of the new value and one _check_finite screen of it.  The running value stays in a
    local, each step reads its lower sigma once, and the update adds b_i h slope_i as each slope
    arrives, in the order i = 0..s-1 of the weighted sum.
    """
    n, s = len(sig) - 1, tableau.stages
    a, b, c = tableau.a.tolist(), tableau.b.tolist(), tableau.c.tolist()
    ys = np.empty((n + 1, len(y0)))
    stage_states = np.empty((n, s - 1, len(y0)))
    _check_finite(y0, n, what)
    ys[n] = y = y0
    slopes: list[np.ndarray | None] = [None] * s
    hi = sig.item(n)
    for k in range(n - 1, -1, -1):
        lo = sig.item(k)
        h = lo - hi  # signed, negative
        y_next = y
        for i in range(s):
            x = y
            for j in range(i):
                if a[i][j] != 0.0:
                    x = x + h * a[i][j] * slopes[j]
            if i:
                stage_states[k, i - 1] = x
            slopes[i] = slope_i = slope(x, hi + c[i] * h)
            y_next = y_next + h * b[i] * slope_i
        ys[k] = y = y_next
        _check_finite(y, k, what)
        hi = lo
    return ys, stage_states


def estimate_clean(
    model: ScoreModel, schedule: NoiseSchedule, x_t: np.ndarray, t: int, n: int
) -> CheckpointTrajectory:
    """estimate_clean_rk with the Euler tableau: n Euler steps of the estimate ODE down to sigma = 0."""
    return estimate_clean_rk(model, schedule, x_t, t, n, _EULER)


@np.errstate(over="ignore", invalid="ignore")
def estimate_clean_rk(
    model: ScoreModel,
    schedule: NoiseSchedule,
    x_t: np.ndarray,
    t: int,
    n: int,
    tableau: ButcherTableau,
) -> CheckpointTrajectory:
    """s-stage explicit RK integration of the estimate ODE, stage points recorded."""
    x_t = _vector(x_t, model.dim, "x_t")
    sigma = make_sub_schedule(schedule, t, n)  # checks t
    states, stage_states = _walk(schedule._to_scaled(x_t, t), sigma, tableau, model.eps)
    return CheckpointTrajectory(sigma, tableau, states, stage_states)


@dataclass(frozen=True)
class MCurvePoint:
    n: int
    mean_error: float
    stderr: float


MIN_ERROR_SAMPLES = 50


# The overflow rule of the module docstring: the norms and means here can overflow too.
@np.errstate(over="ignore", invalid="ignore")
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

    Raises DivergenceError if an estimate leaves the finite range, or if a
    point's mean error or stderr is not finite.
    """
    seed = _count(seed, "seed")
    n_list = [_count(n, "n", 1) for n in n_list]
    n_ref, num_samples = _count(n_ref, "n_ref"), _count(num_samples, "num_samples", MIN_ERROR_SAMPLES)
    if not n_list:
        raise ValueError("n_list must hold at least one n")
    if n_ref < 8 * max(n_list):
        raise ValueError(f"n_ref = {n_ref} too coarse; need >= 8 * max(n_list) = {8 * max(n_list)}")
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
        point = MCurvePoint(
            n=n, mean_error=float(e.mean()), stderr=float(e.std(ddof=1) / math.sqrt(num_samples))
        )
        if not (math.isfinite(point.mean_error) and math.isfinite(point.stderr)):
            raise DivergenceError(f"non-finite M-curve point at n={n}: {point}")
        out.append(point)
    return out
