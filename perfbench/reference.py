"""Fixed reference kernels that measure how fast the host is running right now.

The benchmark's host is a shared VM whose speed changes by up to ~1.8x in
phases from seconds to minutes long, and process CPU time changes with it.
Each timed op is therefore paired with a burst of a reference kernel, timed
just before and just after the op. The op's cost is its latency divided by
that reference time. The kernels copy the instruction mix of the workloads
(small numpy calls driven from Python for the GMM workloads, 256-wide matvecs
for the MLP one), so host slowdowns scale both sides of the ratio alike. They
import nothing from symguide and must not change: a change to them moves
every `*_vs_ref` figure and needs a new baseline.
"""

from __future__ import annotations

import time

import numpy as np

_MEANS = np.array([[-3.0, 0.0], [3.0, 0.0]])
_LOG_W = np.log(np.array([0.5, 0.5]))
_W = np.random.default_rng(0).uniform(-1.0 / 16.0, 1.0 / 16.0, size=(256, 256))


def gmm_kernel() -> float:
    """60 Euler steps of a two-component GMM denoiser on a 2-d state."""
    x = np.array([0.3, -0.2])
    acc = 0.0
    for i in range(60):
        s = 0.5 + 0.01 * i
        a = 1.0 / (1.0 + s * s)
        diffs = x[None, :] - _MEANS
        logits = _LOG_W - 0.5 * a * np.einsum("kd,kd->k", diffs, diffs)
        logits -= logits.max()
        r = np.exp(logits)
        r /= r.sum()
        x = x - 0.01 * (s * a) * (r @ diffs)
        if not np.all(np.isfinite(x)):
            raise FloatingPointError("reference kernel diverged")
        acc += float(np.linalg.norm(x))
    return acc


def mlp_kernel() -> np.ndarray:
    """30 forward/backward pairs of 256 x 256 tanh matvecs."""
    v = np.full(256, 0.1)
    for _ in range(30):
        v = np.tanh(_W @ v + 0.01)
        v = _W.T @ (v * (1.0 - v * v))
    return v


KERNELS = {"gmm": gmm_kernel, "mlp": mlp_kernel}


def time_burst(kernel, calls: int) -> float:
    """Milliseconds taken by `calls` back-to-back calls of kernel."""
    start = time.perf_counter_ns()
    for _ in range(calls):
        kernel()
    return (time.perf_counter_ns() - start) / 1e6
