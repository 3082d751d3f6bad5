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
The stored-activation oracles direct_backprop_grad (Euler) and
rk_direct_backprop_grad (any tableau) stay separate, as independent
references.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# perfbench resolves ButcherTableau and estimate_clean_rk as adjoint attributes.
from .estimator import (
    ButcherTableau,
    CheckpointTrajectory,
    _check_finite,
    estimate_clean_rk,
    make_sub_schedule,
)
from .models import ScoreModel
from .schedule import NoiseSchedule

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


def _check_traj(model: ScoreModel, traj: CheckpointTrajectory, schedule: NoiseSchedule, t: int) -> None:
    if traj.states.shape[1] != model.dim:
        raise ValueError(
            f"trajectory dimension {traj.states.shape[1]} does not match model dimension {model.dim}"
        )
    sigma_t = schedule.sigma(t)
    if traj.sigma[-1] != sigma_t:
        raise ValueError(
            f"trajectory sigma grid ends at {traj.sigma[-1]!r}, "
            f"but sigma({t}) = {sigma_t!r}; wrong schedule or step"
        )


def _require_euler(traj: CheckpointTrajectory, solver: str) -> None:
    if traj.tableau.stages != 1:
        raise ValueError(
            f"{solver} differentiates the explicit Euler map, but the trajectory was "
            f"integrated with the {traj.tableau.stages}-stage tableau '{traj.tableau.name}'"
        )


def _costate_start(model: ScoreModel, grad_at_clean: np.ndarray) -> np.ndarray:
    lam = np.array(grad_at_clean, dtype=np.float64)
    if lam.shape != (model.dim,):
        raise ValueError(f"grad_at_clean has shape {lam.shape}, expected ({model.dim},)")
    return lam


def _costate_sweep(
    model: ScoreModel, traj: CheckpointTrajectory, lam: np.ndarray, trace: np.ndarray | None = None
) -> np.ndarray:
    """The costate loop: pull lam from sigma = 0 up to sigma_t through every step.

    Costate stages run in reverse order (A is strictly upper) and every
    transpose-Jacobian product is evaluated at a RESTORED stage point.
    trace, if given, receives lam after each step at rows 1..n.
    """
    tb = traj.tableau
    s = tb.stages
    A, b, c = tb.A.tolist(), tb.b.tolist(), tb.c.tolist()
    sig = traj.sigma
    vjps: list[np.ndarray | None] = [None] * s
    for tau in range(traj.n):
        lo, hi = float(sig[tau]), float(sig[tau + 1])
        H = hi - lo  # positive backward step
        for i in range(s - 1, -1, -1):
            lam_i = lam
            for j in range(i + 1, s):
                if A[i][j] != 0.0:
                    lam_i = lam_i - H * A[i][j] * vjps[j]
            # traj.stage(tau, i), inlined: this loop runs on every guided step.
            x = traj.states[tau + 1] if i == 0 else traj.stage_states[tau, i - 1]
            vjps[i] = model.vjp(x, hi + c[i] * (lo - hi), lam_i)
        for i in range(s):
            lam = lam - H * b[i] * vjps[i]
        _check_finite(lam, tau + 1, "costate")
        if trace is not None:
            trace[tau + 1] = lam
    return lam


def _symplectic_grad(
    model: ScoreModel,
    traj: CheckpointTrajectory,
    grad_at_clean: np.ndarray,
    schedule: NoiseSchedule,
    t: int,
) -> np.ndarray:
    _check_traj(model, traj, schedule, t)
    lam = _costate_sweep(model, traj, _costate_start(model, grad_at_clean))
    return lam / math.sqrt(schedule.alpha[t])


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
    grad = _symplectic_grad(model, traj, grad_at_clean, schedule, t)
    if return_stats:
        return grad, AdjointStats(checkpoints_read=traj.n + 1, tape_arrays=0, peak_state_vectors=2)
    return grad


def direct_backprop_grad(
    model: ScoreModel,
    traj: CheckpointTrajectory,
    grad_at_clean: np.ndarray,
    schedule: NoiseSchedule,
    t: int,
    return_stats: bool = False,
):
    """Ground-truth gradient oracle: stored-activation reverse mode.

    Re-evaluates the model at every stored state of an Euler trajectory
    with tape recording, holds all n tapes live (the memory profile of
    conventional backpropagation), then applies each step's exact transpose
    Jacobian (I + h_signed J)^T with h_signed = sigma[tau] - sigma[tau+1] < 0.
    """
    _require_euler(traj, "direct_backprop_grad")
    _check_traj(model, traj, schedule, t)
    sig = traj.sigma
    n = traj.n
    tapes = [model.eps_with_tape(traj.states[tau + 1], float(sig[tau + 1]))[1] for tau in range(n)]
    lam = _costate_start(model, grad_at_clean)
    for tau in range(n):
        lam = lam + (sig[tau] - sig[tau + 1]) * model.vjp_from_tape(tapes[tau], lam)
        _check_finite(lam, tau + 1, "costate")
    grad = lam / math.sqrt(schedule.alpha[t])
    if return_stats:
        tape_arrays = sum(len(tp) for tp in tapes)
        stats = AdjointStats(
            checkpoints_read=n + 1,
            tape_arrays=tape_arrays,
            peak_state_vectors=tape_arrays + 2,
        )
        return grad, stats
    return grad


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
    if int(n_back) < 1:
        raise ValueError(f"n_back must be >= 1, got {n_back}")
    sig = make_sub_schedule(schedule, t, int(n_back))
    x_bar = np.asarray(x_clean, dtype=np.float64).copy()  # sqrt(alpha_0) = 1
    lam = np.array(grad_at_clean, dtype=np.float64)
    for tau in range(int(n_back)):
        h = sig[tau + 1] - sig[tau]
        e = model.eps(x_bar, float(sig[tau]))
        g = model.vjp(x_bar, float(sig[tau]), lam)
        x_bar = x_bar + h * e
        lam = lam - h * g
        _check_finite(x_bar, tau + 1)
        _check_finite(lam, tau + 1, "costate")
    return lam / math.sqrt(schedule.alpha[t])


def symplectic_rk_grad(
    model: ScoreModel,
    traj: CheckpointTrajectory,
    grad_at_clean: np.ndarray,
    schedule: NoiseSchedule,
    t: int,
    return_stats: bool = False,
):
    """Exact dL/dx_t through the RK forward map via conjugate coefficients."""
    grad = _symplectic_grad(model, traj, grad_at_clean, schedule, t)
    if return_stats:
        n, s = traj.n, traj.tableau.stages
        return grad, AdjointStats(checkpoints_read=n + 1 + n * s, tape_arrays=0, peak_state_vectors=2 + s)
    return grad


def rk_direct_backprop_grad(
    model: ScoreModel,
    traj: CheckpointTrajectory,
    grad_at_clean: np.ndarray,
    schedule: NoiseSchedule,
    t: int,
) -> np.ndarray:
    """Stored-activation reverse mode through the RK forward map.

    Independent of the conjugate-coefficient formulation: backpropagates
    through the stage graph directly (per step, u_i = h b_i g + h sum_{m>i}
    a_mi J_m^T u_m; g += sum_i J_i^T u_i), with taped model evaluations.
    """
    _check_traj(model, traj, schedule, t)
    tb = traj.tableau
    sig = traj.sigma
    n = traj.n
    s = tb.stages
    g = _costate_start(model, grad_at_clean)
    for tau in range(n):
        h = sig[tau] - sig[tau + 1]  # signed forward step, negative
        tapes = [model.eps_with_tape(*traj.stage(tau, i))[1] for i in range(s)]
        u: list[np.ndarray | None] = [None] * s
        for i in range(s - 1, -1, -1):
            acc = h * tb.b[i] * g
            for m in range(i + 1, s):
                if tb.a[m, i] != 0.0:
                    acc = acc + h * tb.a[m, i] * model.vjp_from_tape(tapes[m], u[m])
            u[i] = acc
        for i in range(s):
            g = g + model.vjp_from_tape(tapes[i], u[i])
        _check_finite(g, tau + 1, "costate")
    return g / math.sqrt(schedule.alpha[t])


def conservation_probe(
    model: ScoreModel,
    traj: CheckpointTrajectory,
    v0: np.ndarray,
    lambda0: np.ndarray,
) -> np.ndarray:
    """Stepwise invariant S_tau = lambda_tau . delta_tau of the Euler pair.

    delta is pushed forward (tau = n..0) by exact Jacobian-vector products
    of the discrete forward steps; lambda is pulled back (tau = 0..n) by the
    costate sweep.  Both use the restored checkpoints, so S is constant
    up to roundoff.
    """
    _require_euler(traj, "conservation_probe")
    sig = traj.sigma
    n = traj.n
    d = traj.states.shape[1]
    v0 = np.asarray(v0, dtype=np.float64)
    lambda0 = np.asarray(lambda0, dtype=np.float64)
    if v0.shape != (d,) or lambda0.shape != (d,):
        raise ValueError("v0 and lambda0 must match the trajectory dimension")
    deltas = np.empty((n + 1, d))
    lams = np.empty((n + 1, d))
    deltas[n] = v0
    for tau in range(n, 0, -1):
        jv = model.jvp(traj.states[tau], float(sig[tau]), deltas[tau])
        deltas[tau - 1] = deltas[tau] + (sig[tau - 1] - sig[tau]) * jv
    lams[0] = lambda0
    _costate_sweep(model, traj, lambda0, trace=lams)
    return np.einsum("td,td->t", lams, deltas)
