"""Noise predictors (denoisers) with exact vector-Jacobian products.

Every model implements the scaled-coordinate interface

    eps(x_bar, sigma)            -> predicted corruption noise
    eps_with_tape(x_bar, sigma)  -> (eps, tape)
    vjp_from_tape(tape, v)       -> v^T (d eps / d x_bar), exact
    vjp(x_bar, sigma, v)         -> the tape pair in one call

evaluated at any finite sigma (schedule._real checks it) so the n-step
estimator queries sub-steps.  Every derivative is a vector-Jacobian product,
the only kind the symplectic adjoint takes; a caller that needs J v builds J
from its rows e_k^T J, as conservation_probe does.  Every output is a pure
function of the model's parameters and the call's arguments.  MlpModel and
AffineModel keep no state between calls.  GmmModel keeps one bounded
memo: the mixture responsibilities of its last 64 points, keyed on the exact bits
of (x_bar, sigma) and evicted first in, first out by schedule._memo_insert,
the insert rule and lock that NoiseSchedule's sub-step grid memo shares.
Entries are read-only, so a shared instance stays safe under concurrency.
A hit skips only the responsibility computation: the same points give the same
bits whether the memo served them or not.  Every model copies and pickles by
rebuilding through its constructor, as every class that freezes its arrays
does, so a copy's arrays stay read-only and a GmmModel copy starts with an
empty memo.  Every parameter array (an MLP's W and b, a mixture's weights
and means, an affine map's matrix and offset) is stored by schedule._frozen:
read-only, finite and 64-byte aligned.

Every matrix and vector product here and in the guidance losses is
ndarray.dot, never `@`.  Over an axis of length 2 or more, dot makes the
BLAS call `@` makes (ddot for two vectors, gemv for a matrix and a vector,
syrk or gemm for two matrices) on the same operands, so it gives the same
bits, and it skips the matmul gufunc's dispatch: with numpy 2.4 and one
OpenBLAS thread on a 2-core Xeon VM, the GMM's (2,) by (2, 2) product
takes about 0.28 us against 0.57 us, and the MLP's 256x256 W.dot(h) 4.5 us
against 4.8 us.  Over an axis of length 1 a product is one multiplication,
which `@` adds to +0.0 and dot does not, so there a zero product can keep a
negative sign; the values compare equal.

_mixture shifts the logits by max(logits.tolist()), a Python max, not
np.maximum.reduce: a max is exact in any order, and a NaN logit makes the
normalising sum NaN, so r is all-NaN either way; the list skips a ufunc
reduction's dispatch.  The squared distances stay np.einsum and the
normaliser np.add.reduce, because each cheaper form changes bits.  Over
K in {1, 2, 3, 8} and d in {1, 2, 3, 4, 5, 8, 16, 64}, 500 draws each,
np.vecdot and a stacked np.matmul differ from einsum from d = 2 on, and a
multiply then sum(1) from d = 3 on; a Python sum adds in another order
than numpy's unrolled reduce from K = 8 on.

MLP kernel rule.  Each layer pass of MlpModel writes only into the array it
has just allocated: the input is np.empty(d + 1) filled with x_bar and
the checked sigma, a hidden layer is z = W.dot(a); z += b; np.tanh(z, out=z),
the output layer W.dot(a) then += b, and the reverse pass forms
tanh' = 1 - a * a in one scratch array and multiplies it with its vector
in place.  Each element gets the IEEE operations of the plain expressions
(tanh(W.dot(a) + b), g * (1.0 - a * a)) with their operands in the same
order, so the bits are theirs, without a temporary for each bias add, tanh
or product.  A tape array is never written after it is appended, so a tape
can be replayed any number of times.

The tape pair serves stored-activation backpropagation: the tape is the
list of arrays a conventional reverse pass has to keep alive, and
vjp_from_tape replays it.
vjp is defined once, in ScoreModel, as that pair, so the adjoint and the
stored-activation oracle get the same bits from every family; GmmModel
reaches them from its memo, without building a tape and an unused eps.

Three families ship:

* GmmModel -- Bayes-optimal denoiser of a mixture of unit-covariance
  Gaussians; closed-form eps and (symmetric) Jacobian, so it doubles as
  a ground-truth generator.
* MlpModel -- tanh multilayer perceptron with sigma appended as an input
  feature; nonlinear, nonsymmetric Jacobian, manual reverse mode.
* AffineModel -- eps(x_bar) = A x_bar + offset, sigma-independent; the
  closed-form workhorse for linear-recurrence oracles (A = 0 gives the
  zero model).
"""

from __future__ import annotations

import abc
import struct
from typing import Sequence

import numpy as np

from .schedule import NoiseSchedule, _count, _frozen, _memo_insert, _real, _vector

__all__ = [
    "ScoreModel",
    "GmmModel",
    "MlpModel",
    "AffineModel",
    "vjp_at_step",
    "finite_diff_vjp",
]

_F64 = struct.Struct("<d")


class ScoreModel(abc.ABC):
    """Interface for noise predictors in scaled (x_bar, sigma) coordinates."""

    dim: int

    @abc.abstractmethod
    def eps(self, x_bar: np.ndarray, sigma: float) -> np.ndarray: ...

    def vjp(self, x_bar: np.ndarray, sigma: float, v: np.ndarray) -> np.ndarray:
        """v^T (d eps / d x_bar) as a fresh tape, replayed: defined once, for every family.

        GmmModel overrides it only to contract its memo entry instead, to the same bits.
        """
        _, tape = self.eps_with_tape(x_bar, sigma)
        return self.vjp_from_tape(tape, v)

    @abc.abstractmethod
    def eps_with_tape(self, x_bar: np.ndarray, sigma: float) -> tuple[np.ndarray, list[np.ndarray]]: ...

    @abc.abstractmethod
    def vjp_from_tape(self, tape: list[np.ndarray], v: np.ndarray) -> np.ndarray: ...


class GmmModel(ScoreModel):
    """Optimal denoiser for data drawn from sum_k w_k N(mu_k, I).

    Under the corruption x_t = sqrt(a) x_0 + sqrt(1-a) eps the noisy
    marginal is sum_k w_k N(x; sqrt(a) mu_k, I), so with a = 1/(1+sigma^2)
    and responsibilities r_k = softmax_k(log w_k - a |x_bar - mu_k|^2 / 2):

        eps(x_bar, sigma) = sigma/(1+sigma^2) * sum_k r_k (x_bar - mu_k)

    which equals -sqrt(1-a) * grad_x log p_t(x).  The Jacobian
    d eps/d x_bar = c (I - a Cov_r(mu)) is symmetric.
    """

    def __init__(self, weights: Sequence[float], means: Sequence[Sequence[float]]) -> None:
        weights = _frozen(weights, "mixture weights")
        means = _frozen(means, "mixture means")
        if means.ndim != 2 or len(weights) != len(means):
            raise ValueError("means must be (K, d) with one row per weight")
        if means.shape[1] < 1:
            raise ValueError("mixture dimension d must be positive")
        if np.any(weights <= 0.0):
            raise ValueError("mixture weights must be positive")
        if abs(weights.sum() - 1.0) > 1e-12:
            raise ValueError(f"mixture weights sum to {weights.sum()!r}, expected 1")
        self.weights = weights
        self.means = means
        self.log_weights = _frozen(np.log(weights), "mixture log weights")
        self.dim = means.shape[1]
        self._memo: dict[bytes, tuple[np.ndarray, np.ndarray, float, float]] = {}

    def __reduce__(self):
        # Copies and pickles rebuild through __init__: read-only arrays and a cold memo.
        return type(self), (self.weights, self.means)

    def _responsibilities(self, x_bar: np.ndarray, sigma: float) -> tuple[np.ndarray, np.ndarray, float, float]:
        """(r, diffs, a, c) at a float64 (d,) x_bar, served from the memo when these bits came before.

        The key is x_bar's bytes and sigma's bits, so -0.0 and 0.0 differ.  Any sigma but
        a Python float is converted by _real first, so it shares its float value's entry; a
        float sigma is checked on a miss only, as a hit's key holds the bits of one that passed.
        """
        if type(sigma) is not float:
            sigma = _real(sigma, "sigma")
        key = x_bar.tobytes() + _F64.pack(sigma)
        out = self._memo.get(key)
        if out is None:
            out = self._mixture(x_bar, _real(sigma, "sigma"))
            _memo_insert(self._memo, key, out)
        return out

    def _mixture(self, x_bar: np.ndarray, sigma: float) -> tuple[np.ndarray, np.ndarray, float, float]:
        """Read-only r_k and x_bar - mu_k at x_bar, with a = 1/(1+sigma^2) and c = sigma/(1+sigma^2)."""
        a = 1.0 / (1.0 + sigma * sigma)
        c = sigma / (1.0 + sigma * sigma)
        diffs = x_bar - self.means  # (K, d)
        logits = self.log_weights - 0.5 * a * np.einsum("kd,kd->k", diffs, diffs)
        logits -= max(logits.tolist())
        r = np.exp(logits, out=logits)
        r /= np.add.reduce(r)
        r.setflags(False)  # write=False, passed by position: the keyword parse costs as much as the call
        diffs.setflags(False)
        return r, diffs, a, c

    def eps(self, x_bar: np.ndarray, sigma: float) -> np.ndarray:
        r, diffs, _, c = self._responsibilities(_vector(x_bar, self.dim, "x"), sigma)
        return c * r.dot(diffs)

    def _jtv(self, v: np.ndarray, r: np.ndarray, diffs: np.ndarray, a: float, c: float) -> np.ndarray:
        """v^T (d eps / d x_bar) for a checked v, by rank-one contractions over r_k and x_bar - mu_k: O(K d)."""
        per_k = diffs.dot(v)
        mean_dot = float(r.dot(per_k))
        dr_v = a * r * (mean_dot - per_k)  # (d r_k / d x_bar) . v contribution
        return c * (v + dr_v.dot(diffs))

    def vjp(self, x_bar: np.ndarray, sigma: float, v: np.ndarray) -> np.ndarray:
        # The tape pair's bits, contracted straight from the memo entry.
        v = _vector(v, self.dim, "v")
        return self._jtv(v, *self._responsibilities(_vector(x_bar, self.dim, "x"), sigma))

    def eps_with_tape(self, x_bar: np.ndarray, sigma: float) -> tuple[np.ndarray, list[np.ndarray]]:
        r, diffs, a, c = self._responsibilities(_vector(x_bar, self.dim, "x"), sigma)
        tape = [r, diffs, np.array([a, c])]
        return c * r.dot(diffs), tape

    def vjp_from_tape(self, tape: list[np.ndarray], v: np.ndarray) -> np.ndarray:
        r, diffs, ac = tape
        return self._jtv(_vector(v, self.dim, "v"), r, diffs, float(ac[0]), float(ac[1]))

    def sample_marginal(
        self, rng: np.random.Generator, schedule: NoiseSchedule, t: int, size: int
    ) -> np.ndarray:
        """Draw data samples and forward-corrupt them to step t."""
        a = schedule.alpha[schedule._check_step(t)]
        size = _count(size, "size")
        comps = rng.choice(len(self.weights), size=size, p=self.weights)
        x0 = self.means[comps] + rng.standard_normal((size, self.dim))
        noise = rng.standard_normal((size, self.dim))
        return np.sqrt(a) * x0 + np.sqrt(1.0 - a) * noise


def _layer_shapes(widths: Sequence[int]) -> list[tuple[int, int]]:
    """Each layer's W shape (fan_out, fan_in); sigma is one more input to layer 0."""
    return [(w_out, w + (l == 0)) for l, (w, w_out) in enumerate(zip(widths, widths[1:]))]


class MlpModel(ScoreModel):
    """tanh MLP noise predictor; sigma enters as an extra input feature.

    widths = [d, h1, ..., d]; layer l computes z_l = W_l a_{l-1} + b_l with
    a_l = tanh(z_l) on hidden layers and identity on the output layer.
    The input is concat(x_bar, sigma), so W_1 has d+1 columns.  vjp is
    manual reverse mode through the recorded layer inputs, exact for the
    same arithmetic eps performs.  seed, the one random() drew the weights
    from, is None or a non-negative integer, as the weights file holds it.
    """

    def __init__(
        self,
        widths: Sequence[int],
        layers: Sequence[tuple[np.ndarray, np.ndarray]],
        seed: int | None = None,
    ) -> None:
        widths = [_count(w, "width", 1) for w in widths]
        if len(widths) < 2 or widths[0] != widths[-1]:
            raise ValueError("widths must have first == last == data dimension")
        if len(layers) != len(widths) - 1:
            raise ValueError(f"expected {len(widths) - 1} layers, got {len(layers)}")
        self.widths = widths
        self.dim = widths[0]
        self.seed = None if seed is None else _count(seed, "seed")
        frozen = []
        for l, ((W, b), (fan_out, fan_in)) in enumerate(zip(layers, _layer_shapes(widths))):
            W, b = _frozen(W, f"layer {l} W"), _frozen(b, f"layer {l} b")
            if W.shape != (fan_out, fan_in) or b.shape != (fan_out,):
                raise ValueError(f"layer {l}: W is {W.shape}, b is {b.shape}; "
                                 f"expected ({fan_out}, {fan_in}) and ({fan_out},)")
            frozen.append((W, b))
        # The (W, b) pairs the forward pass applies tanh after, and the linear output layer.
        *self._hidden, self._out = frozen

    def __reduce__(self):
        return type(self), (self.widths, [*self._hidden, self._out], self.seed)

    @classmethod
    def random(cls, widths: Sequence[int], seed: int) -> "MlpModel":
        """Uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) init from a recorded seed, a non-negative integer."""
        seed = _count(seed, "seed")
        rng = np.random.default_rng(seed)
        widths = [_count(w, "width", 1) for w in widths]
        layers = []
        for fan_out, fan_in in _layer_shapes(widths):
            bound = 1.0 / np.sqrt(fan_in)
            W = rng.uniform(-bound, bound, size=(fan_out, fan_in))
            b = rng.uniform(-bound, bound, size=fan_out)
            layers.append((W, b))
        return cls(widths, layers, seed=seed)

    @property
    def num_layers(self) -> int:
        return len(self._hidden) + 1

    def _tape(self, x_bar: np.ndarray, sigma: float) -> list[np.ndarray]:
        """The inputs to every linear layer: concat(x_bar, sigma), then each hidden layer's output."""
        d = self.dim
        a = np.empty(d + 1)
        a[:d] = x_bar
        a[d] = _real(sigma, "sigma")
        tape = [a]
        for W, b in self._hidden:
            a = W.dot(a)
            a += b
            np.tanh(a, out=a)
            tape.append(a)
        return tape

    def _output(self, a: np.ndarray) -> np.ndarray:
        W, b = self._out
        out = W.dot(a)
        out += b
        return out

    def eps(self, x_bar: np.ndarray, sigma: float) -> np.ndarray:
        x_bar = _vector(x_bar, self.dim, "x")
        return self._output(self._tape(x_bar, sigma)[-1])

    def eps_with_tape(self, x_bar: np.ndarray, sigma: float) -> tuple[np.ndarray, list[np.ndarray]]:
        x_bar = _vector(x_bar, self.dim, "x")
        tape = self._tape(x_bar, sigma)
        return self._output(tape[-1]), tape

    def vjp_from_tape(self, tape: list[np.ndarray], v: np.ndarray) -> np.ndarray:
        g = self._out[0].T.dot(_vector(v, self.dim, "v"))
        # Hidden layer l's output is tape[l + 1]; tanh'(z) = 1 - tanh(z)^2, formed in a scratch array.
        for (W, _), a in zip(reversed(self._hidden), reversed(tape)):
            t = a * a
            np.subtract(1.0, t, out=t)
            np.multiply(g, t, out=t)
            g = W.T.dot(t)
        return g[: self.dim]

    def to_json_dict(self) -> dict:
        return {
            "widths": list(self.widths),
            "layers": [
                {"W": [[float(v) for v in row] for row in W], "b": [float(v) for v in b]}
                for W, b in [*self._hidden, self._out]
            ],
            "seed": self.seed,
        }


class AffineModel(ScoreModel):
    """eps(x_bar, sigma) = A x_bar + offset, independent of sigma."""

    def __init__(self, matrix: np.ndarray, offset: np.ndarray | None = None) -> None:
        A = _frozen(matrix, "matrix")
        if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] < 1:
            raise ValueError(f"matrix must be square and non-empty, got shape {A.shape}")
        self.dim = A.shape[0]
        b = np.zeros(self.dim) if offset is None else _vector(offset, self.dim, "offset")
        self.matrix, self.offset = A, _frozen(b, "offset")

    def __reduce__(self):
        return type(self), (self.matrix, self.offset)

    @classmethod
    def zero(cls, dim: int) -> "AffineModel":
        return cls(np.zeros((_count(dim, "dim", 1),) * 2))

    def eps(self, x_bar: np.ndarray, sigma: float) -> np.ndarray:
        x_bar = _vector(x_bar, self.dim, "x")
        _real(sigma, "sigma")  # unread, but checked as every family checks it
        return self.matrix.dot(x_bar) + self.offset

    def eps_with_tape(self, x_bar: np.ndarray, sigma: float) -> tuple[np.ndarray, list[np.ndarray]]:
        # Linear map: the backward pass needs no stored activations.
        return self.eps(x_bar, sigma), []

    def vjp_from_tape(self, tape: list[np.ndarray], v: np.ndarray) -> np.ndarray:
        return self.matrix.T.dot(_vector(v, self.dim, "v"))


def vjp_at_step(
    model: ScoreModel, x: np.ndarray, schedule: NoiseSchedule, t: int, v: np.ndarray
) -> np.ndarray:
    """v^T (d eps / d x) in unscaled coordinates.

    The scaled-coordinate Jacobian picks up a 1/sqrt(alpha_t) factor under
    the chain rule, so this pulls model.vjp(...) back with to_scaled.
    """
    t = schedule._check_step(t)
    x_bar = schedule._to_scaled(np.asarray(x, dtype=np.float64), t)
    return schedule._to_scaled(model.vjp(x_bar, schedule.sigmas[t], v), t)


def finite_diff_vjp(
    model: ScoreModel,
    x: np.ndarray,
    schedule: NoiseSchedule,
    t: int,
    v: np.ndarray,
    h: float,
) -> np.ndarray:
    """Central-difference estimate of v^T (d eps / d x), unscaled coordinates.

    Test oracle: differentiates x -> v . eps(x / sqrt(a_t), sigma_t) one
    coordinate at a time; agreement with vjp_at_step is O(h^2).
    """
    h = _real(h, "h")
    if not h > 0.0:
        raise ValueError(f"finite-difference step must be positive, got {h}")
    x = _vector(x, model.dim, "x")
    v = _vector(v, model.dim, "v")
    t = schedule._check_step(t)
    sigma = schedule.sigmas[t]
    out = np.empty_like(x)
    for j in range(len(x)):
        xp = x.copy()
        xm = x.copy()
        xp[j] += h
        xm[j] -= h
        fp = float(v.dot(model.eps(schedule._to_scaled(xp, t), sigma)))
        fm = float(v.dot(model.eps(schedule._to_scaled(xm, t), sigma)))
        out[j] = (fp - fm) / (2.0 * h)
    return out
