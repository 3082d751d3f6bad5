"""Backward gradient solvers for the n-step clean-output estimate.

Given grad_at_clean = dL/dx'_0, these solvers return dL/dx_t through the
discrete forward map of the estimator.  Sign conventions: the forward pass
steps sigma DOWN with h[tau] = sigma[tau+1] - sigma[tau] > 0, so the
costate recursion runs sigma UP.  For explicit Euler it reads

    lambda[tau+1] = lambda[tau] - h[tau] * J(x_bar[tau+1], sigma[tau+1])^T lambda[tau],

with the Jacobian evaluated at the RESTORED forward checkpoint, never at a
recomputed backward state.  That evaluation choice is what makes the
computed gradient exactly the transpose chain rule of the discrete forward
map; the vanilla adjoint (which re-integrates the state alongside lambda
and evaluates at the current backward iterate) is kept as the approximate
comparison solver.

One costate sweep serves every explicit Runge-Kutta tableau (a, b, c), and
Euler is its one-stage case.  Every costate coefficient is derived from the
forward tableau: the costate stages take the forward weights b, are
evaluated at the restored forward stage points (abscissae c), and are
coupled by A[i][j] = b[j] a[j][i] / b[i] (strictly upper triangular, so the
stage sweep is explicit in reverse order).  With the state half of the
backward pass -- the reflection a_bwd[i][j] = b[j] - a[i][j] of the forward
tableau, whose stages are free because they are restored from checkpoints
-- this A satisfies the conjugacy identity

    b[i] A[i][j] + b[j] a_bwd[j][i] - b[i] b[j] = 0,

which is the symplecticity condition guaranteeing the costate pairing
lambda^T delta is conserved step by step (see conservation_probe).  With
b = [1] the sweep's arithmetic is the Euler recursion above, bit for bit.
One stored-activation reference, backing both direct_backprop_grad (Euler)
and rk_direct_backprop_grad (any tableau), checks the sweep independently:
it holds a tape for every stage point, as backpropagation does, and uses
the forward a and b, never the derived A.  Every solver follows the overflow
rule of the estimator module, its gradient after the pull-back to x_t included.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# perfbench resolves ButcherTableau and estimate_clean_rk as adjoint attributes.
from .estimator import ButcherTableau, CheckpointTrajectory, _check_finite, _walk, estimate_clean_rk
from .models import ScoreModel
from .schedule import NoiseSchedule, _count, _vector, make_sub_schedule

__all__ = [
    "AdjointStats",
    "symplectic_euler_grad",
    "direct_backprop_grad",
    "vanilla_adjoint_grad",
    "symplectic_rk_grad",
    "rk_direct_backprop_grad",
    "conservation_probe",
]


@dataclass(frozen=True)
class AdjointStats:
    """Allocation accounting for the memory claims of the backward solvers."""

    checkpoints_read: int   # stored forward states consumed
    tape_arrays: int        # activation arrays held live for the backward sweep
    peak_state_vectors: int # simultaneously-live state-sized work buffers


def _check_traj(model: ScoreModel, traj: CheckpointTrajectory, schedule: NoiseSchedule, t: int) -> int:
    """The checked step index t, at which traj's sigma grid must end on the schedule's sigma(t)."""
    if traj.states.shape[1] != model.dim:
        raise ValueError(
            f"trajectory dimension {traj.states.shape[1]} does not match model dimension {model.dim}"
        )
    t = schedule._check_step(t)
    end, sigma_t = traj.sigma.item(-1), schedule.sigmas[t]
    if end != sigma_t:
        raise ValueError(
            f"trajectory sigma grid ends at {end!r}, but sigma({t}) = {sigma_t!r}; wrong schedule or step"
        )
    return t


def _require_euler(traj: CheckpointTrajectory, solver: str) -> None:
    if traj.tableau.stages != 1:
        raise ValueError(
            f"{solver} differentiates the explicit Euler map, but the trajectory was "
            f"integrated with the {traj.tableau.stages}-stage tableau '{traj.tableau.name}'"
        )


def _costate_start(model: ScoreModel, lam0: np.ndarray, what: str = "grad_at_clean") -> np.ndarray:
    """The costate a sweep starts from, checked: every solver's and the probe's one entry."""
    lam = _vector(lam0, model.dim, what)
    _check_finite(lam, 0, "costate")
    return lam


def _costate_sweep(
    model: ScoreModel, traj: CheckpointTrajectory, lam: np.ndarray, trace: np.ndarray | None = None
) -> np.ndarray:
    """The costate loop: pull lam from sigma = 0 up to sigma_t through every step.

    Costate stages run in reverse order (A is strictly upper) and every
    transpose-Jacobian product is evaluated at a RESTORED stage point.
    trace, if given, receives lam after each step at rows 1..n.  Each
    sub-step does its numpy work and little else: s model.vjp calls at the
    points traj.stage restores, the scaled sums of the costate stages and
    of the update (one array product and one difference per nonzero
    coefficient), and one _check_finite screen of the new costate.  model.vjp
    and traj.stage are bound once, and each step reads its upper sigma and
    keeps it as the next step's lower one (the estimator's grid rule).
    """
    tb = traj.tableau
    s = tb.stages
    A, b = tb.A.tolist(), tb.b.tolist()
    sig, stage, vjp = traj.sigma, traj.stage, model.vjp
    vjps: list[np.ndarray | None] = [None] * s
    lo = sig.item(0)
    for tau in range(len(sig) - 1):
        hi = sig.item(tau + 1)
        H = hi - lo  # positive backward step
        for i in range(s - 1, -1, -1):
            lam_i = lam
            for j in range(i + 1, s):
                if A[i][j] != 0.0:
                    lam_i = lam_i - H * A[i][j] * vjps[j]
            x, sigma = stage(tau, i)
            vjps[i] = vjp(x, sigma, lam_i)
        for i in range(s):
            lam = lam - H * b[i] * vjps[i]
        _check_finite(lam, tau + 1, "costate")
        if trace is not None:
            trace[tau + 1] = lam
        lo = hi
    return lam


@np.errstate(over="ignore", invalid="ignore")
def _symplectic_grad(
    model: ScoreModel,
    traj: CheckpointTrajectory,
    grad_at_clean: np.ndarray,
    schedule: NoiseSchedule,
    t: int,
    return_stats: bool,
):
    """Both symplectic solvers; their stats follow from the trajectory and its tableau.

    They read all the trajectory holds (n+1 checkpoints, n(s-1) stage points)
    and keep the costate and s transpose-Jacobian products live, plus one
    costate stage when A couples the stages.
    """
    t = _check_traj(model, traj, schedule, t)
    grad = schedule._to_scaled(_costate_sweep(model, traj, _costate_start(model, grad_at_clean)), t)
    _check_finite(grad, traj.n, "gradient")
    if not return_stats:
        return grad
    n, s = traj.n, traj.tableau.stages
    return grad, AdjointStats(n + 1 + n * (s - 1), 0, 1 + s + bool(traj.tableau.A.any()))


def symplectic_euler_grad(
    model: ScoreModel,
    traj: CheckpointTrajectory,
    grad_at_clean: np.ndarray,
    schedule: NoiseSchedule,
    t: int,
    return_stats: bool = False,
):
    """Exact dL/dx_t via the costate recursion over restored checkpoints.

    Consumes the n+1 stored states of an Euler trajectory and keeps O(1)
    extra state vectors alive (the costate and the current
    transpose-Jacobian product).
    """
    _require_euler(traj, "symplectic_euler_grad")
    return _symplectic_grad(model, traj, grad_at_clean, schedule, t, return_stats)


@np.errstate(over="ignore", invalid="ignore")
def _taped_backprop(
    model: ScoreModel,
    traj: CheckpointTrajectory,
    grad_at_clean: np.ndarray,
    schedule: NoiseSchedule,
    t: int,
) -> tuple[np.ndarray, int]:
    """The stored-activation reference; returns dL/dx_t and the tape arrays it held.

    Tapes every stage point of every step first and holds all n*s tapes
    live, the memory profile of backpropagation.  Then, per step with
    h = sigma[tau] - sigma[tau+1] < 0 and J_i the Jacobian at stage i,
    w_i = b_i g + h sum_{m>i} a_mi J_m^T w_m and g += h sum_i J_i^T w_i.
    With b = [1] that is g + h J^T g.
    """
    t = _check_traj(model, traj, schedule, t)
    g = _costate_start(model, grad_at_clean)
    s = traj.tableau.stages
    a, b = traj.tableau.a.tolist(), traj.tableau.b.tolist()
    tapes = [model.eps_with_tape(*traj.stage(tau, i))[1] for tau in range(traj.n) for i in range(s)]
    sig = traj.sigma
    w: list[np.ndarray | None] = [None] * s
    lo = sig.item(0)
    for tau in range(traj.n):
        hi = sig.item(tau + 1)
        h = lo - hi  # signed forward step, negative
        step_tapes = tapes[tau * s : (tau + 1) * s]
        for i in range(s - 1, -1, -1):
            w[i] = b[i] * g
            for m in range(i + 1, s):
                if a[m][i] != 0.0:
                    w[i] = w[i] + h * a[m][i] * model.vjp_from_tape(step_tapes[m], w[m])
        pulled = model.vjp_from_tape(step_tapes[0], w[0])
        for i in range(1, s):
            pulled = pulled + model.vjp_from_tape(step_tapes[i], w[i])
        g = g + h * pulled
        _check_finite(g, tau + 1, "costate")
        lo = hi
    grad = schedule._to_scaled(g, t)
    _check_finite(grad, traj.n, "gradient")
    return grad, sum(len(tape) for tape in tapes)


def direct_backprop_grad(
    model: ScoreModel,
    traj: CheckpointTrajectory,
    grad_at_clean: np.ndarray,
    schedule: NoiseSchedule,
    t: int,
    return_stats: bool = False,
):
    """Ground-truth gradient oracle: the stored-activation reference on an Euler trajectory.

    Holds all n tapes live; its stats count the arrays in them.
    """
    _require_euler(traj, "direct_backprop_grad")
    grad, tape_arrays = _taped_backprop(model, traj, grad_at_clean, schedule, t)
    if not return_stats:
        return grad
    return grad, AdjointStats(traj.n + 1, tape_arrays, tape_arrays + 2)


@np.errstate(over="ignore", invalid="ignore")
def vanilla_adjoint_grad(
    model: ScoreModel,
    x_clean: np.ndarray,
    grad_at_clean: np.ndarray,
    schedule: NoiseSchedule,
    t: int,
    n_back: int,
) -> np.ndarray:
    """Checkpoint-free adjoint: re-integrate state and costate jointly.

    Explicit Euler from sigma = 0 up to sigma_t, with the model and its
    transpose Jacobian evaluated at the CURRENT recomputed backward state
    and the current grid sigma -- deliberately reproducing the
    discretization error the symplectic solver avoids.
    """
    n_back = _count(n_back, "n_back", 1)
    sig = make_sub_schedule(schedule, t, n_back)  # checks t
    x_bar = _vector(x_clean, model.dim, "x_clean")  # sqrt(alpha_0) = 1
    _check_finite(x_bar, 0)
    lam = _costate_start(model, grad_at_clean)
    lo = sig.item(0)
    for tau in range(n_back):
        hi = sig.item(tau + 1)
        h = hi - lo
        e = model.eps(x_bar, lo)
        g = model.vjp(x_bar, lo, lam)
        x_bar = x_bar + h * e
        lam = lam - h * g
        _check_finite(x_bar, tau + 1)
        _check_finite(lam, tau + 1, "costate")
        lo = hi
    grad = schedule._to_scaled(lam, t)
    _check_finite(grad, n_back, "gradient")
    return grad


def symplectic_rk_grad(
    model: ScoreModel,
    traj: CheckpointTrajectory,
    grad_at_clean: np.ndarray,
    schedule: NoiseSchedule,
    t: int,
    return_stats: bool = False,
):
    """Exact dL/dx_t through the RK forward map via conjugate coefficients."""
    return _symplectic_grad(model, traj, grad_at_clean, schedule, t, return_stats)


def rk_direct_backprop_grad(
    model: ScoreModel,
    traj: CheckpointTrajectory,
    grad_at_clean: np.ndarray,
    schedule: NoiseSchedule,
    t: int,
) -> np.ndarray:
    """The stored-activation reference through the RK forward map; holds all n*s tapes."""
    return _taped_backprop(model, traj, grad_at_clean, schedule, t)[0]


@np.errstate(over="ignore", invalid="ignore")
def conservation_probe(
    model: ScoreModel,
    traj: CheckpointTrajectory,
    v0: np.ndarray,
    lambda0: np.ndarray,
) -> np.ndarray:
    """Stepwise invariant S_tau = lambda_tau . delta_tau of the forward map and its costate sweep.

    delta is pushed forward (tau = n..0) by the estimator's forward walk
    through the exact linearisation of each RK step, its stage slopes taken
    at the restored stage points: d_i = delta + h sum_{j<i} a_ij K_j,
    K_i = J(X_i, sigma_i) d_i and delta' = delta + h sum_i b_i K_i.  Each
    stage Jacobian J is built from its rows e_k^T J, one model.vjp call each,
    so a stage point costs d vjp calls and the probe n*s*d, plus the n*s of
    the costate sweep that pulls lambda back (tau = 0..n): both sides of the
    pairing read the one Jacobian route.  For every tableau whose costate
    coefficients satisfy the conjugacy identity, S is constant up to roundoff.
    """
    lambda0 = _costate_start(model, lambda0, "lambda0")
    v0 = _vector(v0, model.dim, "v0")
    rows = np.eye(model.dim)
    # The walk asks for its slopes in step order k = n-1..0, stage by stage: so are the points read.
    points = (traj.stage(k, i) for k in range(traj.n - 1, -1, -1) for i in range(traj.tableau.stages))

    def slope(d_i, _):
        x, sigma = next(points)
        return np.array([model.vjp(x, sigma, e) for e in rows]).dot(d_i)

    deltas, _ = _walk(v0, traj.sigma, traj.tableau, slope, "tangent")
    lams = np.empty((traj.n + 1, len(lambda0)))
    lams[0] = lambda0
    _costate_sweep(model, traj, lambda0, trace=lams)
    pairing = np.einsum("td,td->t", lams, deltas)
    _check_finite(pairing, int(np.argmin(np.isfinite(pairing))), "pairing")
    return pairing
