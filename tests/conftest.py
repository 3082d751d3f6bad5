import tracemalloc

import numpy as np
import pytest

from symguide import GmmModel, L2TargetLoss, MlpModel, ScoreModel, build_linear_schedule

# The default desk-scale task: well-separated bimodal mixture in d=2 with an
# L2 pull toward one component mean.  All statistical-trend tests were
# calibrated against pilot runs of this exact configuration.
TASK_T = 50
TASK_BETAS = (0.004, 0.35)
TASK_MEANS = [[-3.0, 0.0], [3.0, 0.0]]
TASK_TARGET = [-3.0, 0.0]
TASK_WINDOW = (15, 35)
TASK_RHO = 0.1


class NanModel(ScoreModel):
    """Zero model that turns NaN after a set number of calls; for divergence tests.

    From call healthy_calls + 1 on, eps (and eps_with_tape) put NaN in the
    components nan_dims; vjp does the same from call healthy_vjp_calls + 1
    (never, when None).  calls and vjp_calls count every call, the bad one
    included, so a test can check that no call ran after the first NaN.
    """

    def __init__(self, dim, healthy_calls=0, healthy_vjp_calls=None, nan_dims=slice(None)):
        self.dim = dim
        self.calls = 0
        self.vjp_calls = 0
        self.healthy_calls = healthy_calls
        self.healthy_vjp_calls = healthy_vjp_calls
        self.nan_dims = nan_dims

    def _output(self, calls, healthy):
        out = np.zeros(self.dim)
        if healthy is not None and calls > healthy:
            out[self.nan_dims] = np.nan
        return out

    def eps(self, x_bar, sigma):
        self.calls += 1
        return self._output(self.calls, self.healthy_calls)

    def vjp(self, x_bar, sigma, v):
        self.vjp_calls += 1
        return self._output(self.vjp_calls, self.healthy_vjp_calls)

    def jvp(self, x_bar, sigma, v):
        return np.zeros(self.dim)

    def eps_with_tape(self, x_bar, sigma):
        return self.eps(x_bar, sigma), []

    def vjp_from_tape(self, tape, v):
        return np.zeros(self.dim)


class CountingModel(ScoreModel):
    """Wraps a model and counts the calls of each of its five methods, by method name."""

    def __init__(self, inner):
        self.inner = inner
        self.dim = inner.dim
        self.calls = dict.fromkeys(("eps", "vjp", "jvp", "eps_with_tape", "vjp_from_tape"), 0)

    def _call(self, name, *args):
        self.calls[name] += 1
        return getattr(self.inner, name)(*args)

    def eps(self, x_bar, sigma):
        return self._call("eps", x_bar, sigma)

    def vjp(self, x_bar, sigma, v):
        return self._call("vjp", x_bar, sigma, v)

    def jvp(self, x_bar, sigma, v):
        return self._call("jvp", x_bar, sigma, v)

    def eps_with_tape(self, x_bar, sigma):
        return self._call("eps_with_tape", x_bar, sigma)

    def vjp_from_tape(self, tape, v):
        return self._call("vjp_from_tape", tape, v)


def at_offset(a: np.ndarray, offset: int) -> np.ndarray:
    """A copy of a whose data starts offset bytes past a 64-byte boundary."""
    buf = np.empty(a.size + 16)
    start = (-buf.ctypes.data % 64 + offset) // 8
    out = buf[start : start + a.size].reshape(a.shape)
    out[...] = a
    assert out.ctypes.data % 64 == offset
    return out


def traced_peak(call):
    """Peak bytes traced during call(), above those live when it started; its second run counts."""
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        call()  # the first call settles any lazily allocated state
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not was_tracing:
            tracemalloc.stop()


def rel_err(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.linalg.norm(b)
    return float(np.linalg.norm(a - b)) / (denom if denom > 0 else 1.0)


@pytest.fixture(scope="session")
def schedule():
    return build_linear_schedule(TASK_T, *TASK_BETAS)


@pytest.fixture(scope="session")
def gmm2():
    return GmmModel([0.5, 0.5], TASK_MEANS)


@pytest.fixture(scope="session")
def mlp3():
    return MlpModel.random([3, 16, 16, 3], seed=5)


@pytest.fixture(scope="session")
def task_loss():
    return L2TargetLoss(np.array(TASK_TARGET))
