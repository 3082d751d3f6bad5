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
to scaled coordinates, the sub-step sigma grids of the n-step estimate
(make_sub_schedule), and the one rule for every count, step index and seed
(_count), for every real parameter and every sigma a model is given
(_real), for every state-sized vector (_vector) and for every array an
object keeps (_frozen).  A sub-step grid is linear in sigma, the ODE's
variable, between the schedule's integer steps, so each tableau keeps its
order down to t = 1.  A public call checks its step index once: to_scaled
checks t, and a function that has checked t already, itself or through
make_sub_schedule, pulls back through _to_scaled.
A schedule's values are immutable after construction; its only mutable part
is a bounded memo of the read-only sub-step grids, at most one per (t, n).

Bounded memos.  A schedule's sub-step grids and a GmmModel's mixture
responsibilities are each kept in a dict of at most _MEMO_CAPACITY entries,
evicted first in, first out.  _memo_insert is the one insert rule of both,
and the only code that takes _MEMO_LOCK, so a shared schedule or model stays
safe under concurrency.  An evicted entry is rebuilt on its next use, to the
same bits.

_count(value, what, least, most) is the only check of an integer's type
and range, configs included: a bool, a float (2.0 too), a string or None
raises ValueError: <what> must be an integer, got <value>, and an integer
outside [least, most] (by default [0, sys.maxsize]) raises ValueError:
<what> must be in [<least>, <most>], got <value>.

Every array an object keeps (a schedule's alpha and sub-step grids, a
tableau's a, b, c and A, a loss's target or Gram matrix and feature map,
and every model parameter) is stored by _frozen: a read-only
float64 copy, checked finite, whose data starts on a 64-byte boundary.  An
inf or NaN entry raises ValueError: <what> must be finite.  OpenBLAS's gemv
is faster on that boundary: with numpy 2.4 and OpenBLAS 0.3.31 on one
thread of a 2-core Xeon VM, a 256x256 float64 W.dot(h) takes about 4.5 us
at offset 0 against 6.5 us at 16 bytes past the boundary, and W.T.dot(h)
about 3.6 us against 6.7 us.  Those products give the same bits at every
offset, so no output bit depends on where an array lies.
"""

from __future__ import annotations

import math
import numbers
import sys
import threading
from dataclasses import dataclass, field

import numpy as np

__all__ = ["NoiseSchedule", "build_linear_schedule", "make_sub_schedule"]

# numpy's native float64 dtype: an identity test against it is cheaper than dtype ==.  Any other
# dtype object takes np.asarray's conversion; for an equal one (an unpickled array's) that is a view
# of the same values.
_DOUBLE = np.dtype(np.float64)

# Entries a bounded memo keeps.  A guided step computes n mixture points (ddim_step's and n - 1
# sub-steps) and its costate sweep revisits all n, so any n <= 64 finds them.  A default sample
# reads 21 sub-step grids; an ablate-n command reads 85 of its schedule's and builds 2 of them twice.
_MEMO_CAPACITY = 64
# One lock for every bounded memo's inserts and evictions: held for a dict update, and kept off
# the objects that own the memos so that they still copy and pickle.
_MEMO_LOCK = threading.Lock()


def _count(value: object, what: str, least: int = 0, most: int = sys.maxsize) -> int:
    """value as an int in [least, most]; a bool, a float (2.0 too), a string or None is rejected, not truncated."""
    if type(value) is not int:
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{what} must be an integer, got {_shown(value)}")
        value = int(value)
    if not least <= value <= most:
        raise ValueError(f"{what} must be in [{least}, {most}], got {_shown(value)}")
    return value


def _shown(value: object) -> str:
    """repr(value), which raises past sys.get_int_max_str_digits(): such an int is shown by its size in bits."""
    try:
        return repr(value)
    except ValueError:
        if isinstance(value, int):
            return f"an integer of {value.bit_length()} bits"
        return f"a {type(value).__name__} too long to print"


def _real(value: object, what: str) -> float:
    """value as a float; a bool, a string, None, an inf or a NaN is rejected.

    A finite float is returned as it is.  Another real is bounded as the float64 it converts to, not
    in its own dtype (an np.float32 bound overflows), and an int exactly, so 10**400 is rejected.
    """
    x = value
    if type(x) is not float and isinstance(x, numbers.Real) and not isinstance(x, bool):
        x = float(x) if not isinstance(x, int) or abs(x) <= sys.float_info.max else x
    if type(x) is not float or not math.isfinite(x):
        raise ValueError(f"{what} must be a finite number, got {_shown(value)}")
    return x


def _vector(x: object, dim: int, what: str) -> np.ndarray:
    """x as a float64 (dim,) array, converted only if it is not one; another shape is rejected, never broadcast."""
    if type(x) is not np.ndarray or x.dtype is not _DOUBLE:
        x = np.asarray(x, dtype=np.float64)
    if x.shape != (dim,):
        raise ValueError(f"{what} has shape {x.shape}, expected ({dim},)")
    return x


def _memo_insert(memo: dict, key: object, value: object) -> None:
    """Store value under key, evicting the oldest entry first when memo holds _MEMO_CAPACITY other keys."""
    with _MEMO_LOCK:
        if len(memo) >= _MEMO_CAPACITY and key not in memo:
            del memo[next(iter(memo))]
        memo[key] = value


def _frozen(a: object, what: str) -> np.ndarray:
    """a as a read-only float64 copy whose data starts on a 64-byte boundary; an inf or NaN entry is rejected."""
    a = np.asarray(a, dtype=np.float64)
    buf = np.empty(a.size + 8)
    start = (-buf.ctypes.data % 64) // 8
    out = buf[start : start + a.size].reshape(a.shape)
    out[...] = a
    if not np.isfinite(out).all():
        raise ValueError(f"{what} must be finite")
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class NoiseSchedule:
    """Cumulative signal coefficients alpha[0..T] and derived sigma values.

    sigmas, sqrt_alpha and sqrt_one_minus_alpha hold the per-step values as
    Python floats, computed once, so per-step callers do no numpy-scalar
    arithmetic.  _sub_grids memoises the read-only sigma grid that
    make_sub_schedule builds for each (t, n), for the last _MEMO_CAPACITY
    pairs: each schedule owns its own dict, and a grid never changes once
    stored.  Schedules compare by identity.
    """

    alpha: np.ndarray
    sigmas: tuple[float, ...] = field(repr=False)
    sqrt_alpha: tuple[float, ...] = field(repr=False)
    sqrt_one_minus_alpha: tuple[float, ...] = field(repr=False)
    _sub_grids: dict[tuple[int, int], np.ndarray] = field(repr=False)

    def __init__(self, alpha: np.ndarray) -> None:
        alpha = _frozen(alpha, "alpha")
        _validate_alpha(alpha)
        object.__setattr__(self, "alpha", alpha)
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

    def __reduce__(self):
        # Copies and pickles rebuild through __init__: a read-only alpha and an empty grid memo.
        return type(self), (self.alpha,)

    @property
    def num_steps(self) -> int:
        return len(self.alpha) - 1

    def _check_step(self, t: int, least: int = 0) -> int:
        """t as an int in [least, T]; a step that starts an update needs least = 1."""
        return _count(t, "step index", least, len(self.alpha) - 1)

    def sigma(self, t: int) -> float:
        """sqrt(1 - alpha_t) / sqrt(alpha_t); exactly 0 at t = 0."""
        return self.sigmas[self._check_step(t)]

    def to_scaled(self, x: np.ndarray, t: int) -> np.ndarray:
        """x_bar = x / sqrt(alpha_t).  Identity at t = 0.

        The same division pulls a gradient in scaled coordinates back to
        x_t: d x_bar / d x_t = 1 / sqrt(alpha_t).
        """
        return self._to_scaled(np.asarray(x, dtype=np.float64), self._check_step(t))

    def _to_scaled(self, x: np.ndarray, t: int) -> np.ndarray:
        """to_scaled of a float64 array at a step index its caller has checked: one check per public call."""
        return x / self.sqrt_alpha[t]


def make_sub_schedule(schedule: NoiseSchedule, t: int, n: int) -> np.ndarray:
    """The read-only (n+1,) sigma grid of n sub-steps between step t and 0.

    Knot tau sits at step tau * t / n, where sigma is linear between the
    schedule's sigmas at the integer steps around it.  So sigma[0] = 0,
    sigma[n] = sigma(t), each integer knot k is schedule.sigmas[k] bit for
    bit, and the grid is strictly increasing in tau.  t and n are checked on
    every call; the grid is built once per (t, n) and memoised on the
    schedule, so a later call for the same (t, n) returns that same read-only
    array while the memo holds it, and an equal one after its eviction.
    """
    t = schedule._check_step(t, 1)
    n = _count(n, "n", 1)
    sigma = schedule._sub_grids.get((t, n))
    if sigma is not None:
        return sigma
    # Fractional step indices tau * t / n, exact at integers, where np.interp returns the knot itself.
    steps = np.arange(n + 1) * t / n
    sigma = _frozen(np.interp(steps, np.arange(len(schedule.sigmas)), schedule.sigmas), "sub-step sigma grid")
    if np.any(np.diff(sigma) <= 0.0):
        raise ValueError("sub-schedule sigma values are not strictly increasing")
    _memo_insert(schedule._sub_grids, (t, n), sigma)
    return sigma


def _validate_alpha(alpha: np.ndarray) -> None:
    if alpha.ndim != 1 or len(alpha) < 3:
        raise ValueError("alpha must be a 1-d array with T >= 2 (length >= 3)")
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
    T = _count(T, "T", 2)
    beta_min, beta_max = _real(beta_min, "beta_min"), _real(beta_max, "beta_max")
    for name, b in (("beta_min", beta_min), ("beta_max", beta_max)):
        if not 0.0 < b < 1.0:
            raise ValueError(f"{name} must lie in (0, 1), got {b}")
    if beta_min > beta_max:
        raise ValueError(f"beta_min > beta_max ({beta_min} > {beta_max})")
    betas = np.linspace(beta_min, beta_max, T)
    alpha = np.empty(T + 1, dtype=np.float64)
    alpha[0] = 1.0
    alpha[1:] = np.cumprod(1.0 - betas)
    return NoiseSchedule(alpha)
