"""Peak allocation of each backward solver, measured with tracemalloc.

This pass is kept apart from every timed pass because tracemalloc slows
allocation.  The forward trajectories are built before the measurement:
the caller holds those n+1 checkpoints, so a solver's peak is what it
allocates on top of them.
"""

from __future__ import annotations

import tracemalloc

import numpy as np

from symguide import adjoint, estimator

SOLVERS = (
    "symplectic_euler_grad",
    "direct_backprop_grad",
    "symplectic_rk_grad",
    "rk_direct_backprop_grad",
    "vanilla_adjoint_grad",
)
N_VALUES = (8, 32, 128)


def solver_peaks(model, schedule, t: int, n: int, seed: int) -> dict[str, float]:
    """Peak KiB allocated by each solver for one (x_t, g0) draw at this n."""
    rng = np.random.default_rng(seed)
    x_t = rng.standard_normal(model.dim)
    g0 = rng.standard_normal(model.dim)
    traj = estimator.estimate_clean(model, schedule, x_t, t, n)
    rk_traj = adjoint.estimate_clean_rk(model, schedule, x_t, t, n, adjoint.ButcherTableau.heun())
    calls = {
        "symplectic_euler_grad": lambda: adjoint.symplectic_euler_grad(model, traj, g0, schedule, t),
        "direct_backprop_grad": lambda: adjoint.direct_backprop_grad(model, traj, g0, schedule, t),
        "symplectic_rk_grad": lambda: adjoint.symplectic_rk_grad(model, rk_traj, g0, schedule, t),
        "rk_direct_backprop_grad": lambda: adjoint.rk_direct_backprop_grad(model, rk_traj, g0, schedule, t),
        "vanilla_adjoint_grad": lambda: adjoint.vanilla_adjoint_grad(
            model, traj.clean_output, g0, schedule, t, n_back=n
        ),
    }
    peaks = {}
    tracemalloc.start()
    try:
        for name in SOLVERS:
            calls[name]()  # first call settles any lazily allocated state
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            calls[name]()
            peaks[name] = (tracemalloc.get_traced_memory()[1] - base) / 1024.0
    finally:
        tracemalloc.stop()
    return peaks


def memory_metrics(model, schedule, t: int, seed: int) -> dict[str, float]:
    """adjoint.<solver>.peak_kib at n = 32, _n8 and _n128, and peak_growth."""
    by_n = {n: solver_peaks(model, schedule, t, n, seed) for n in N_VALUES}
    out = {}
    for name in SOLVERS:
        out[f"adjoint.{name}.peak_kib_n8"] = by_n[8][name]
        out[f"adjoint.{name}.peak_kib"] = by_n[32][name]
        out[f"adjoint.{name}.peak_kib_n128"] = by_n[128][name]
        out[f"adjoint.{name}.peak_growth"] = by_n[128][name] / by_n[8][name]
    return out
