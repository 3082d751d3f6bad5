import copy
import json
import math
import pickle
import re
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import at_offset, rel_err
from symguide import models
from symguide.harness import build_model
from symguide.schedule import _MEMO_CAPACITY, _vector
from symguide import (
    AffineModel,
    ButcherTableau,
    CheckpointTrajectory,
    GmmModel,
    GramStyleLoss,
    GuidanceConfig,
    L2TargetLoss,
    MlpModel,
    NoiseSchedule,
    SampleRecord,
    ScoreModel,
    build_linear_schedule,
    estimate_clean_rk,
    finite_diff_vjp,
    make_sub_schedule,
    sag_sample,
    symplectic_rk_grad,
    vjp_at_step,
)


def log_density_oracle(model: GmmModel, x, alpha_t):
    """Closed-form noisy-marginal log density, independent of the model code."""
    comps = []
    for w, mu in zip(model.weights, model.means):
        diff = x - math.sqrt(alpha_t) * mu
        comps.append(math.log(w) - 0.5 * float(diff @ diff) - 0.5 * len(x) * math.log(2 * math.pi))
    m = max(comps)
    return m + math.log(sum(math.exp(c - m) for c in comps))


def first_gmm_eps_vjp(model: GmmModel, x_bar, sigma, v):
    """GmmModel.eps as first written (log(weights) and the reductions per call), and .vjp
    as rank-one contractions: v^T J = c (v + sum_k a r_k (sum_j r_j diffs_j.v - diffs_k.v) diffs_k)."""
    a = 1.0 / (1.0 + sigma * sigma)
    c = sigma / (1.0 + sigma * sigma)
    diffs = x_bar[None, :] - model.means
    logits = np.log(model.weights) - 0.5 * a * np.einsum("kd,kd->k", diffs, diffs)
    logits -= logits.max()
    r = np.exp(logits)
    r /= r.sum()
    per_k = diffs @ v
    dr_v = a * r * (float(r @ per_k) - per_k)
    return c * (r @ diffs), c * (v + dr_v @ diffs)


@st.composite
def gmm_cases(draw):
    """A mixture of K components in d dimensions, a point, a sigma and a cotangent."""
    k = draw(st.integers(1, 6))
    d = draw(st.integers(1, 5))
    coord = st.floats(-20.0, 20.0)
    weights = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k)))
    means = draw(st.lists(st.lists(coord, min_size=d, max_size=d), min_size=k, max_size=k))
    x_bar = np.array(draw(st.lists(coord, min_size=d, max_size=d)))
    v = np.array(draw(st.lists(coord, min_size=d, max_size=d)))
    return GmmModel(weights / weights.sum(), means), x_bar, draw(st.floats(0.0, 80.0)), v


def eps_at_step(model, x, schedule, t):
    """The model's noise prediction at an unscaled grid state x at step t."""
    return model.eps(schedule.to_scaled(x, t), schedule.sigma(t))


def numeric_score(model, x, alpha_t, h=1e-6):
    out = np.empty_like(x)
    for j in range(len(x)):
        xp, xm = x.copy(), x.copy()
        xp[j] += h
        xm[j] -= h
        out[j] = (log_density_oracle(model, xp, alpha_t) - log_density_oracle(model, xm, alpha_t)) / (2 * h)
    return out


class TestGmm:
    def test_single_centered_component_is_linear(self, schedule):
        m = GmmModel([1.0], [[0.0]])
        sch = NoiseSchedule(np.array([1.0, 0.9, 0.75]))
        out = eps_at_step(m, np.array([2.0]), sch, 2)
        assert out == pytest.approx([1.0], rel=1e-14)  # sqrt(1-0.75)*2

    def test_zero_at_scaled_mode(self):
        m = GmmModel([1.0], [[1.7, -0.4]])
        sch = NoiseSchedule(np.array([1.0, 0.8, 0.5]))
        x = math.sqrt(0.5) * np.array([1.7, -0.4])
        assert np.abs(eps_at_step(m, x, sch, 2)).max() < 1e-14

    def test_matches_numeric_score_k2(self, schedule):
        m = GmmModel([0.5, 0.5], [[-1.0], [1.0]])
        sch = NoiseSchedule(np.array([1.0, 0.8, 0.5]))
        x = np.array([0.3])
        expected = -math.sqrt(1.0 - 0.5) * numeric_score(m, x, 0.5)
        assert rel_err(eps_at_step(m, x, sch, 2), expected) < 1e-6

    def test_score_consistency_small_mixtures(self, schedule):
        rng = np.random.default_rng(11)
        for K, d in [(1, 1), (2, 2), (3, 4), (2, 3)]:
            w = rng.uniform(0.5, 1.5, K)
            w /= w.sum()
            m = GmmModel(w, rng.normal(0, 1.5, (K, d)))
            for t in (5, 20, 35):
                a = schedule.alpha[t]
                x = rng.standard_normal(d) * 1.5
                expected = -math.sqrt(1.0 - a) * numeric_score(m, x, a)
                assert rel_err(eps_at_step(m, x, schedule, t), expected) < 1e-6

    def test_eps_zero_at_t0(self, schedule, gmm2):
        x = np.array([0.4, -1.1])
        assert np.array_equal(eps_at_step(gmm2, x, schedule, 0), np.zeros(2))

    def test_vjp_affine_case(self):
        m = GmmModel([1.0], [[0.0, 0.0]])
        sch = NoiseSchedule(np.array([1.0, 0.9, 0.36]))
        v = np.array([1.5, -2.0])
        out = vjp_at_step(m, np.array([0.7, 0.2]), sch, 2, v)
        assert out == pytest.approx(math.sqrt(1.0 - 0.36) * v, rel=1e-13)

    def test_vjp_matches_finite_difference(self, schedule):
        m = GmmModel([0.5, 0.5], [[-1.0], [1.0]])
        sch = NoiseSchedule(np.array([1.0, 0.8, 0.5]))
        rng = np.random.default_rng(2)
        x = np.array([0.3])
        v = rng.standard_normal(1)
        fd = finite_diff_vjp(m, x, sch, 2, v, h=1e-6)
        assert rel_err(vjp_at_step(m, x, sch, 2, v), fd) < 1e-6

    def test_vjp_zero_cotangent(self, schedule, gmm2):
        out = vjp_at_step(gmm2, np.array([0.5, 0.5]), schedule, 10, np.zeros(2))
        assert np.array_equal(out, np.zeros(2))

    def test_weights_must_normalize(self):
        with pytest.raises(ValueError):
            GmmModel([0.5, 0.6], [[0.0], [1.0]])
        with pytest.raises(ValueError):
            GmmModel([1.2, -0.2], [[0.0], [1.0]])

    def test_dimension_mismatch(self, schedule, gmm2):
        with pytest.raises(ValueError):
            gmm2.eps(np.zeros(3), 1.0)

    def test_zero_dimension_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            GmmModel([1.0], [[]])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            GmmModel([0.5, 0.5], [[0.0], [np.nan]])
        with pytest.raises(ValueError, match="finite"):
            GmmModel([np.inf, 0.5], [[0.0], [1.0]])

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(case=gmm_cases())
    def test_bitwise_equal_to_first_expressions(self, case):
        model, x_bar, sigma, v = case
        eps, vjp = first_gmm_eps_vjp(model, x_bar, sigma, v)
        assert model.eps(x_bar, sigma).tobytes() == eps.tobytes()
        assert model.vjp(x_bar, sigma, v).tobytes() == vjp.tobytes()
        assert model.eps_with_tape(x_bar, sigma)[0].tobytes() == eps.tobytes()
        assert model.vjp_from_tape(model.eps_with_tape(x_bar, sigma)[1], v).tobytes() == vjp.tobytes()
        # Inputs that are not float64 ndarrays are converted first, to the same bits.
        assert model.eps(x_bar.tolist(), sigma).tobytes() == eps.tobytes()
        assert model.vjp(x_bar.tolist(), sigma, v.tolist()).tobytes() == vjp.tobytes()


def max_reduce_gmm_eps_vjp(model: GmmModel, x_bar, sigma, v):
    """GmmModel.eps and .vjp with the logits shifted by np.maximum.reduce and exponentiated into
    a new array, as _mixture did before it took the Python max of their list."""
    a = 1.0 / (1.0 + sigma * sigma)
    c = sigma / (1.0 + sigma * sigma)
    diffs = x_bar - model.means
    logits = model.log_weights - 0.5 * a * np.einsum("kd,kd->k", diffs, diffs)
    logits -= np.maximum.reduce(logits)
    r = np.exp(logits)
    r /= np.add.reduce(r)
    per_k = diffs.dot(v)
    dr_v = a * r * (float(r.dot(per_k)) - per_k)
    return c * r.dot(diffs), c * (v + dr_v.dot(diffs))


@st.composite
def shift_cases(draw):
    """A mixture, a point, a sigma and a cotangent; far points underflow some r_k to 0, and a
    non-finite point makes every output NaN."""
    k, d = draw(st.sampled_from([1, 2, 3, 8])), draw(st.sampled_from([1, 2, 16, 64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = rng.uniform(0.05, 1.0, k)
    model = GmmModel(w / w.sum(), rng.standard_normal((k, d)) * 3.0)
    x_bar = rng.standard_normal(d) * draw(st.sampled_from([0.1, 1.0, 30.0, 3000.0]))
    if draw(st.booleans()):
        x_bar[rng.integers(d)] = draw(st.sampled_from([np.inf, -np.inf, np.nan]))
    return model, x_bar, draw(st.sampled_from([0.0, 0.05, 1.3, 40.0])), rng.standard_normal(d)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(case=shift_cases())
def test_python_max_shift_gives_the_bits_of_the_ufunc_reduce(case):
    model, x_bar, sigma, v = case
    with np.errstate(over="ignore", invalid="ignore"):
        want = max_reduce_gmm_eps_vjp(model, x_bar, sigma, v)
        eps, tape = model.eps_with_tape(x_bar, sigma)
        got = [model.eps(x_bar, sigma), model.vjp(x_bar, sigma, v), eps, model.vjp_from_tape(tape, v)]
    if np.isfinite(x_bar).all():
        assert [g.tobytes() for g in got] == [want[0].tobytes(), want[1].tobytes()] * 2
    else:
        assert all(np.isnan(out).all() for out in [*got, *want])


def test_far_points_underflow_responsibilities_to_zero():
    # The far draws of shift_cases reach this case: one r_k is exactly 0 and the other is 1.
    model = GmmModel([0.5, 0.5], [[-3.0, 0.0], [3.0, 0.0]])
    x_bar, v = np.array([3000.0, 1.0]), np.array([0.3, -0.7])
    r = model._mixture(x_bar, 1.3)[0]
    assert r.tolist() == [0.0, 1.0]
    want = max_reduce_gmm_eps_vjp(model, x_bar, 1.3, v)
    assert model.eps(x_bar, 1.3).tobytes() == want[0].tobytes()
    assert model.vjp(x_bar, 1.3, v).tobytes() == want[1].tobytes()


@pytest.mark.parametrize("form", ["byte-swapped", "unpickled"])
def test_float64_arrays_with_another_dtype_object_keep_their_values(form):
    # _vector tests the dtype by identity with np.dtype(np.float64); an array whose float64 dtype is
    # another object takes np.asarray's conversion and must give the same values and shape error.
    native = np.array([0.3, -0.7])
    x = native.astype(">f8") if form == "byte-swapped" else pickle.loads(pickle.dumps(native))
    assert x.dtype is not np.dtype(np.float64)
    got = _vector(x, 2, "x")
    assert got.dtype is np.dtype(np.float64) and got.tobytes() == native.tobytes()
    with pytest.raises(ValueError, match=r"^x has shape \(2,\), expected \(3,\)$"):
        _vector(x, 3, "x")
    model = GmmModel([0.5, 0.5], [[-1.0, 2.0], [1.0, -0.5]])
    assert model.eps(x, 0.7).tobytes() == model.eps(native, 0.7).tobytes()
    assert model.vjp(native, 0.7, x).tobytes() == model.vjp(native, 0.7, native).tobytes()


def _fresh(model: GmmModel) -> GmmModel:
    """A cold copy of a mixture: same parameters, empty memo."""
    return GmmModel(model.weights, model.means)


def _all_calls(model: GmmModel, x_bar, sigma, v) -> list[bytes]:
    """The bits of all four model methods at one point, taped vjp included."""
    eps, tape = model.eps_with_tape(x_bar, sigma)
    return [
        model.eps(x_bar, sigma).tobytes(),
        model.vjp(x_bar, sigma, v).tobytes(),
        eps.tobytes(),
        *(arr.tobytes() for arr in tape),
        model.vjp_from_tape(tape, v).tobytes(),
    ]


@st.composite
def memo_cases(draw):
    """A gmm_cases draw whose point and sigma come in the shapes and types a caller may pass."""
    model, x_bar, sigma, v = draw(gmm_cases())
    form = draw(st.sampled_from(["plain", "strided", "integer", "list"]))
    if form == "strided":
        x_bar = np.repeat(x_bar, 2)[::2]  # a non-contiguous view
    elif form == "integer":
        x_bar = np.round(x_bar).astype(np.int64)
    elif form == "list":
        x_bar = x_bar.tolist()
    sigma = draw(st.sampled_from([sigma, np.float64(sigma), 0.0, -0.0]))
    return model, x_bar, sigma, v


class TestGmmMemo:
    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(case=memo_cases(), other_sigma=st.floats(0.0, 80.0))
    def test_warm_calls_equal_cold_calls_bitwise(self, case, other_sigma):
        model, x_bar, sigma, v = case
        warm = _fresh(model)
        # Warm the memo at the same point under every sigma spelling, the other zero included.
        for s in (sigma, float(sigma), np.float64(sigma), -sigma, other_sigma):
            _all_calls(warm, x_bar, s, v)
        assert _all_calls(warm, x_bar, sigma, v) == _all_calls(_fresh(model), x_bar, sigma, v)

    def test_signed_zero_sigmas_keep_their_own_bits(self):
        model = GmmModel([0.5, 0.5], [[-1.0, 2.0], [1.0, -0.5]])
        x_bar = np.array([0.3, -0.7])
        plus, minus = _fresh(model).eps(x_bar, 0.0), _fresh(model).eps(x_bar, -0.0)
        assert plus.tobytes() != minus.tobytes()  # c = sigma / (1 + sigma^2) keeps the sign
        model.eps(x_bar, -0.0)
        assert model.eps(x_bar, 0.0).tobytes() == plus.tobytes()
        assert model.eps(x_bar, -0.0).tobytes() == minus.tobytes()

    def test_instances_never_share_entries(self):
        x_bar, v = np.array([0.4, -1.2]), np.array([1.0, 0.5])
        a = GmmModel([0.5, 0.5], [[-1.0, 0.0], [1.0, 0.0]])
        b = GmmModel([0.5, 0.5], [[-3.0, 1.0], [2.0, 0.0]])
        for model in (a, b):
            _all_calls(model, x_bar, 1.3, v)
        assert a._memo is not b._memo
        for model in (a, b):
            assert _all_calls(model, x_bar, 1.3, v) == _all_calls(_fresh(model), x_bar, 1.3, v)
        assert a.eps(x_bar, 1.3).tobytes() != b.eps(x_bar, 1.3).tobytes()

    def test_bounded_first_in_first_out_and_evictions_recompute_the_same_bits(self):
        model = GmmModel([0.3, 0.7], [[-1.0, 0.5], [2.0, -0.5]])
        computed = []
        mixture = model._mixture
        model._mixture = lambda x_bar, sigma: computed.append(1) or mixture(x_bar, sigma)
        cap = _MEMO_CAPACITY
        points = np.random.default_rng(4).standard_normal((3 * cap, 2))
        first = [model.eps(x, 0.9).tobytes() for x in points[:cap]]
        for x in points[cap:]:
            model.eps(x, 0.9)
            assert len(model._memo) == cap
        assert len(computed) == 3 * cap
        for x in points[-cap:]:  # the last cap points stay
            model.vjp(x, 0.9, x)
        assert len(computed) == 3 * cap
        assert [model.eps(x, 0.9).tobytes() for x in points[:cap]] == first
        assert len(computed) == 4 * cap

    def test_entries_are_read_only(self):
        model = GmmModel([0.5, 0.5], [[-1.0], [1.0]])
        _, tape = model.eps_with_tape(np.array([0.2]), 0.5)
        with pytest.raises(ValueError):
            tape[0][0] = 1.0
        with pytest.raises(ValueError):
            tape[1][0, 0] = 1.0

    def test_a_non_float_sigma_shares_its_float_values_entry(self):
        # schedule._real converts an np.float32, np.float64 or int sigma before the key is built, so
        # it meets the entry of its float value and is computed, once, in float64.
        model = GmmModel([0.5, 0.5], [[-1.0, 0.0], [1.0, 0.0]])
        x_bar = np.array([0.2, 0.1])
        computed = []
        mixture = model._mixture
        model._mixture = lambda x_bar, sigma: computed.append(type(sigma)) or mixture(x_bar, sigma)
        cold = _fresh(model).eps(x_bar, float(np.float32(0.7))).tobytes()
        for sigma in (np.float32(0.7), float(np.float32(0.7)), np.float64(np.float32(0.7))):
            assert model.eps(x_bar, sigma).tobytes() == cold
        three = _fresh(model).eps(x_bar, 3.0).tobytes()
        assert model.eps(x_bar, 3).tobytes() == model.eps(x_bar, 3.0).tobytes() == three
        assert computed == [float, float] and len(model._memo) == 2

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, lambda m: pickle.loads(pickle.dumps(m))])
    def test_a_copy_starts_cold_and_keeps_its_bits(self, clone):
        model = GmmModel([0.5, 0.5], [[-1.0, 0.0], [1.0, 0.0]])
        x_bar, v = np.array([0.2, 0.1]), np.array([1.0, -1.0])
        _all_calls(model, x_bar, 0.6, v)
        twin = clone(model)
        assert twin._memo == {} and len(model._memo) == 1
        assert _all_calls(twin, x_bar, 0.6, v) == _all_calls(_fresh(model), x_bar, 0.6, v)
        with pytest.raises(ValueError):
            twin.eps_with_tape(x_bar, 0.6)[1][0][0] = 1.0

    def test_shared_instance_under_threads(self):
        # More threads than cores and a short switch interval, so inserts and evictions interleave.
        model = GmmModel([0.5, 0.5], [[-1.0, 0.0], [1.0, 0.0]])
        points = np.random.default_rng(5).standard_normal((4, 3 * _MEMO_CAPACITY, 2))
        cold = _fresh(model)
        expected = [[cold.eps(x, 0.4).tobytes() for x in rows] for rows in points]
        got = [None] * len(points)

        def worker(i):
            got[i] = [model.eps(x, 0.4).tobytes() for x in points[i]]

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(points))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert got == expected
        assert len(model._memo) == _MEMO_CAPACITY


class TestMlp:
    def test_zero_weights_dead_network(self, schedule):
        widths = [2, 4, 2]
        layers = [
            (np.zeros((4, 3)), np.array([0.3, -0.2, 0.1, 0.5])),
            (np.zeros((2, 4)), np.array([0.7, -0.4])),
        ]
        m = MlpModel(widths, layers)
        out = m.eps(np.array([1.0, 2.0]), 0.5)
        assert np.array_equal(out, [0.7, -0.4])  # bias path only
        v = np.array([1.0, 1.0])
        assert np.array_equal(m.vjp(np.array([1.0, 2.0]), 0.5, v), np.zeros(2))

    def test_single_linear_layer(self):
        rng = np.random.default_rng(3)
        W = rng.standard_normal((3, 4))
        m = MlpModel([3, 3], [(W, np.zeros(3))])
        x = rng.standard_normal(3)
        v = rng.standard_normal(3)
        assert np.allclose(m.vjp(x, 0.7, v), (W.T @ v)[:3], rtol=1e-15)
        assert np.allclose(m.eps(x, 0.7), W @ np.concatenate([x, [0.7]]), rtol=1e-15)

    def test_vjp_matches_finite_difference(self, schedule, mlp3):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(3)
        v = rng.standard_normal(3)
        h = 1e-5 * (1.0 + np.abs(x).max())
        fd = finite_diff_vjp(mlp3, x, schedule, 20, v, h=h)
        assert rel_err(vjp_at_step(mlp3, x, schedule, 20, v), fd) < 1e-5

    def test_bad_widths_rejected(self):
        with pytest.raises(ValueError):
            MlpModel.random([3, 8, 4], seed=0)  # first != last
        with pytest.raises(ValueError):
            MlpModel.random([3], seed=0)
        with pytest.raises(ValueError):
            MlpModel([2, 2], [(np.zeros((2, 2)), np.zeros(2))])  # missing sigma column
        with pytest.raises(ValueError, match=rf"^width must be in \[1, {sys.maxsize}\], got 0$"):
            MlpModel([2, 0, 2], [])
        with pytest.raises(ValueError, match="expected 2 layers, got 1"):
            MlpModel([2, 4, 2], [(np.zeros((4, 3)), np.zeros(4))])

    @pytest.mark.parametrize("seed", ["x", True, -1, 2.5, 3.0], ids=repr)
    def test_seed_other_than_none_or_a_non_negative_integer_rejected(self, seed):
        with pytest.raises(ValueError, match=f"seed must be .*, got {seed!r}"):
            MlpModel([2, 2], [(np.zeros((2, 3)), np.zeros(2))], seed=seed)

    @pytest.mark.parametrize("seed", ["x", 2.5, True, -1, None], ids=repr)
    def test_random_draws_only_from_a_non_negative_integer_seed(self, monkeypatch, seed):
        # random records the seed its weights came from, so None (OS entropy) is rejected too.
        drawn = []
        monkeypatch.setattr(np.random, "default_rng", lambda *args: drawn.append(args))
        with pytest.raises(ValueError, match=rf"^seed must be .*, got {re.escape(repr(seed))}$"):
            MlpModel.random([2, 2], seed)
        assert drawn == []

    @pytest.mark.parametrize("seed", [None, np.int64(3)], ids=repr)
    def test_stored_seed_loads_from_its_weights_file(self, tmp_path, seed):
        # What the library stores, its weights file loads: build_model takes a null or non-negative integer seed.
        mlp = MlpModel([2, 2], [(np.zeros((2, 3)), np.zeros(2))], seed=seed)
        assert mlp.seed == seed and (seed is None or type(mlp.seed) is int)
        path = tmp_path / "weights.json"
        path.write_text(json.dumps(mlp.to_json_dict()))
        assert build_model({"kind": "mlp", "weights_file": str(path)}).seed == mlp.seed

    def test_non_finite_layers_rejected(self):
        for bad in (np.nan, np.inf):
            W = np.zeros((2, 3))
            W[1, 2] = bad
            with pytest.raises(ValueError, match="finite"):
                MlpModel([2, 2], [(W, np.zeros(2))])
            with pytest.raises(ValueError, match="finite"):
                MlpModel([2, 2], [(np.zeros((2, 3)), np.full(2, bad))])


def test_affine_zero_dimension_rejected():
    with pytest.raises(ValueError, match="non-empty"):
        AffineModel(np.zeros((0, 0)))


def test_affine_non_finite_rejected():
    with pytest.raises(ValueError, match="finite"):
        AffineModel([[np.nan]])
    with pytest.raises(ValueError, match="finite"):
        AffineModel([[1.0]], [np.inf])


class TestFiniteDiff:
    def test_exact_for_affine(self, schedule):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((3, 3)) * 0.3
        m = AffineModel(A)
        x = rng.standard_normal(3)
        v = rng.standard_normal(3)
        fd = finite_diff_vjp(m, x, schedule, 12, v, h=1e-4)
        assert rel_err(vjp_at_step(m, x, schedule, 12, v), fd) < 1e-10

    def test_halving_h_quarters_error(self, schedule, gmm2):
        x = np.array([0.4, -0.6])
        v = np.array([1.0, 0.5])
        exact = vjp_at_step(gmm2, x, schedule, 20, v)
        e1 = np.linalg.norm(finite_diff_vjp(gmm2, x, schedule, 20, v, h=2e-3) - exact)
        e2 = np.linalg.norm(finite_diff_vjp(gmm2, x, schedule, 20, v, h=1e-3) - exact)
        assert 3.5 < e1 / e2 < 4.5

    def test_rejects_zero_step(self, schedule, gmm2):
        with pytest.raises(ValueError):
            finite_diff_vjp(gmm2, np.zeros(2), schedule, 5, np.ones(2), h=0.0)


class TestSharedInvariants:
    def _models(self):
        rng = np.random.default_rng(6)
        return [
            GmmModel([0.5, 0.5], [[-1.0, 0.5], [1.0, -0.5]]),
            MlpModel.random([2, 12, 12, 2], seed=9),
            AffineModel(rng.standard_normal((2, 2)) * 0.4, rng.standard_normal(2)),
        ]

    def test_vjp_against_finite_difference_100_triples(self, schedule):
        rng = np.random.default_rng(7)
        for model in self._models():
            for _ in range(100):
                x = rng.standard_normal(2) * 1.5
                t = int(rng.integers(1, schedule.num_steps))
                v = rng.standard_normal(2)
                fd = finite_diff_vjp(model, x, schedule, t, v, h=1e-6 * (1 + np.abs(x).max()))
                exact = vjp_at_step(model, x, schedule, t, v)
                err = np.linalg.norm(exact - fd)
                assert err <= 1e-5 * np.linalg.norm(fd) + 1e-10

    def test_vjp_linearity(self, schedule):
        rng = np.random.default_rng(8)
        for model in self._models():
            x_bar = rng.standard_normal(2)
            v1, v2 = rng.standard_normal(2), rng.standard_normal(2)
            a, b = 1.7, -0.43
            lhs = model.vjp(x_bar, 1.2, a * v1 + b * v2)
            rhs = a * model.vjp(x_bar, 1.2, v1) + b * model.vjp(x_bar, 1.2, v2)
            assert np.abs(lhs - rhs).max() < 1e-12

    def test_determinism_bitwise(self, schedule):
        rng = np.random.default_rng(9)
        for model in self._models():
            x_bar = rng.standard_normal(2)
            v = rng.standard_normal(2)
            assert np.array_equal(model.eps(x_bar, 0.9), model.eps(x_bar, 0.9))
            assert np.array_equal(model.vjp(x_bar, 0.9, v), model.vjp(x_bar, 0.9, v))

    def test_taped_vjp_matches_fresh(self, schedule):
        # Bitwise: every family's vjp is its taped reverse pass.
        rng = np.random.default_rng(12)
        for model in self._models():
            for _ in range(20):
                x_bar = rng.standard_normal(2)
                v = rng.standard_normal(2)
                eps_fresh = model.eps(x_bar, 1.1)
                eps_taped, tape = model.eps_with_tape(x_bar, 1.1)
                assert np.array_equal(eps_fresh, eps_taped)
                assert model.vjp_from_tape(tape, v).tobytes() == model.vjp(x_bar, 1.1, v).tobytes()


def _arrays(obj, seen=None):
    """Every ndarray an object holds: its attributes, their containers and nested symguide objects."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return []
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, dict):
        items = list(obj.values())
    elif isinstance(obj, (list, tuple)):
        items = list(obj)
    elif type(obj).__module__.startswith("symguide."):
        items = list(vars(obj).values())
    else:
        return []
    return [arr for item in items for arr in _arrays(item, seen)]


def _copy_cases():
    """(object, outputs) pairs: outputs(obj) gives the bytes a copy must reproduce."""
    sch = build_linear_schedule(20, 0.01, 0.3)
    x_bar, v = np.array([0.2, -0.4]), np.array([1.0, -0.5])

    def model_bits(model):
        return _all_calls(model, x_bar, 0.7, v)

    heun = ButcherTableau.heun()
    gmm = GmmModel([0.5, 0.5], [[-1.0, 0.0], [1.0, 0.0]])
    traj = estimate_clean_rk(gmm, sch, x_bar, 12, 3, heun)
    record = sag_sample(
        gmm, sch, L2TargetLoss([-1.0, 0.0]), GuidanceConfig(window=(5, 10), rho=0.1, n_steps=2), 0
    )
    return [
        (gmm, model_bits),
        (MlpModel.random([2, 6, 2], seed=3), model_bits),
        (AffineModel([[0.5, 0.1], [0.0, -1.0]], [0.2, 0.3]), model_bits),
        (sch, lambda s: [make_sub_schedule(s, 12, 3).tobytes(), s.to_scaled(x_bar, 12).tobytes()]),
        (heun, lambda tb: [tb.A.tobytes(), estimate_clean_rk(gmm, sch, x_bar, 12, 3, tb).states.tobytes()]),
        (traj, lambda tr: [symplectic_rk_grad(gmm, tr, v, sch, 12).tobytes()]),
        (L2TargetLoss([1.0, -2.0]), lambda loss: [loss.value(x_bar), loss.grad(x_bar).tobytes()]),
        (GramStyleLoss([[2.0]], [[1.0, 0.5]]), lambda loss: [loss.value(x_bar), loss.grad(x_bar).tobytes()]),
        (record, lambda rec: [rec.final_state.tobytes(), json.dumps(rec.to_json_dict())]),
    ]


_CLONES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda obj: pickle.loads(pickle.dumps(obj)),
}


@pytest.mark.parametrize("clone", _CLONES.values(), ids=_CLONES.keys())
def test_copies_keep_every_array_read_only_and_every_output_bit(clone):
    # Each class that freezes its arrays at construction rebuilds a copy through its constructor.
    for obj, outputs in _copy_cases():
        expected = outputs(obj)  # warms the GMM memo and the schedule's grid memo first
        twin = clone(obj)
        assert type(twin) is type(obj)
        assert outputs(twin) == expected, type(obj).__name__
        arrays = _arrays(twin)  # the copied ones and those its outputs memoised
        assert arrays and not any(arr.flags.writeable for arr in arrays), type(obj).__name__
        if not isinstance(twin, (CheckpointTrajectory, SampleRecord)):
            # What schedule._frozen stored; the two per-call records freeze their own arrays in place.
            assert all(arr.ctypes.data % 64 == 0 for arr in _kept(twin)), type(obj).__name__
        if isinstance(twin, NoiseSchedule):
            assert len(twin._sub_grids) == 1  # the grid its outputs memoised is checked too


def _kept(obj) -> list[np.ndarray]:
    """Every array an object keeps: all it holds but a GmmModel's memo entries."""
    return _arrays({name: value for name, value in vars(obj).items() if name != "_memo"})


def test_a_loaded_weights_file_is_read_only_on_64_byte_boundaries(tmp_path):
    path = tmp_path / "weights.json"
    path.write_text(json.dumps(MlpModel.random([2, 6, 2], seed=3).to_json_dict()))
    params = _kept(build_model({"kind": "mlp", "weights_file": str(path)}))
    assert len(params) == 4
    assert all(arr.ctypes.data % 64 == 0 and not arr.flags.writeable for arr in params)


def _per_layer_mlp(layers, x_bar, sigma, v):
    """MlpModel's eps, tape and taped vjp as first written, one indexed layer at a time."""
    Ws, bs = [W for W, _ in layers], [b for _, b in layers]
    L = len(Ws)
    acts = [np.concatenate([x_bar, [float(sigma)]])]
    for l in range(L):
        z = Ws[l] @ acts[l] + bs[l]
        acts.append(np.tanh(z) if l < L - 1 else z)
    g = v
    for l in range(L - 1, -1, -1):
        g = Ws[l].T @ g
        if l > 0:
            g = g * (1.0 - acts[l] * acts[l])
    return acts[-1], acts[:-1], g[: len(x_bar)]


@pytest.mark.parametrize("seed", [0, 7])
def test_mlp_bits_match_per_layer_expressions_on_misaligned_weights(seed):
    # The (W, b) loops, the in-place layer passes and the aligned weights change speed, not bits:
    # the model gives the bytes of the per-layer expressions applied to copies 16 bytes past a
    # 64-byte boundary, for a float, np.float64 or int sigma.  A tape is distinct arrays that no
    # pass writes after it is appended, so replaying it (the RK oracle does, up to 3 times) gives
    # the same bits and leaves it as it was.
    mlp = MlpModel.random([16, 256, 256, 16], seed)
    layers = [(at_offset(W, 16), at_offset(b, 16)) for W, b in [*mlp._hidden, mlp._out]]
    rng = np.random.default_rng(seed)
    for sigma in (0.01, 0.8, 35.0, np.float64(2.5), 3):
        x_bar, _, v = rng.standard_normal((3, 16))  # x_bar and v are rows 0 and 2 of the draw
        eps, tape, g = _per_layer_mlp(layers, x_bar, sigma, v)
        got_eps, got_tape = mlp.eps_with_tape(x_bar, sigma)
        taped = [a.tobytes() for a in got_tape]
        assert len({id(a) for a in [*got_tape, got_eps]}) == len(got_tape) + 1
        assert got_eps.tobytes() == mlp.eps(x_bar, sigma).tobytes() == eps.tobytes()
        assert taped == [a.tobytes() for a in tape]
        replays = [mlp.vjp_from_tape(got_tape, v).tobytes() for _ in range(2)]
        assert replays == [mlp.vjp(x_bar, sigma, v).tobytes(), g.tobytes()]
        assert [a.tobytes() for a in got_tape] == taped


def _matmul_reference(obj, x, sigma, v):
    """Every output obj gives at (x, sigma, v), computed with the `@` expressions the models and
    losses used before their products went through ndarray.dot."""
    if isinstance(obj, GmmModel):
        r, diffs, a, c = obj._mixture(x, sigma)
        per_k = diffs @ v
        dr_v = a * r * (float(r @ per_k) - per_k)
        eps, jtv = c * (r @ diffs), c * (v + dr_v @ diffs)
        return [eps, jtv, eps, r, diffs, np.array([a, c]), jtv]
    if isinstance(obj, MlpModel):
        *hidden, (W_out, b_out) = [*obj._hidden, obj._out]
        acts = [np.concatenate([x, [float(sigma)]])]
        for W, b in hidden:
            acts.append(np.tanh(W @ acts[-1] + b))
        eps = W_out @ acts[-1] + b_out
        g = W_out.T @ v
        for (W, _), act in zip(reversed(hidden), reversed(acts)):
            g = W.T @ (g * (1.0 - act * act))
        return [eps, g[: obj.dim], eps, *acts, g[: obj.dim]]
    if isinstance(obj, AffineModel):
        eps, jtv = obj.matrix @ x + obj.offset, obj.matrix.T @ v
        return [eps, jtv, eps, jtv]
    if isinstance(obj, L2TargetLoss):
        diff = x - obj.target
        return [np.float64(0.5 * float(diff @ diff)), x - obj.target]
    Y = (obj.feature_map @ x).reshape(obj.rows, obj.cols)
    gram = Y @ Y.T
    diff = gram - obj.target_gram
    dY = 4.0 * (gram - obj.target_gram) @ Y
    return [np.float64(float(np.sum(diff * diff))), obj.feature_map.T @ dY.ravel()]


def _outputs(obj, x, sigma, v):
    """What _matmul_reference writes out, from obj's own methods."""
    if isinstance(obj, ScoreModel):
        eps, tape = obj.eps_with_tape(x, sigma)
        return [obj.eps(x, sigma), obj.vjp(x, sigma, v), eps, *tape, obj.vjp_from_tape(tape, v)]
    return [np.float64(obj.value(x)), obj.grad(x)]


def _contracted_lengths(obj) -> list[int]:
    """The length of every axis a product in obj's methods sums over."""
    if isinstance(obj, GmmModel):
        return list(obj.means.shape)
    if isinstance(obj, MlpModel):
        return [obj.dim + 1, *obj.widths]
    if isinstance(obj, GramStyleLoss):
        return [obj.dim, obj.rows, obj.cols]
    return [obj.dim]


@st.composite
def product_cases(draw):
    """A GMM, MLP, affine model or loss with a point, a sigma and a cotangent; exact zeros of
    either sign, and points on a mixture mean, are drawn often, since the products' sign of zero
    is where `@` and ndarray.dot could part."""
    kind = draw(st.sampled_from(["gmm", "mlp", "affine", "l2", "gram"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "mlp":
        d = draw(st.integers(1, 64))
        hidden = [draw(st.integers(1, 128)), draw(st.integers(1, 64))][: draw(st.integers(0, 2))]
        obj = MlpModel.random([d, *hidden, d], seed=int(rng.integers(2**31)))
    elif kind == "gram":
        rows, cols, d = draw(st.integers(1, 6)), draw(st.integers(1, 6)), draw(st.integers(1, 64))
        c = rng.standard_normal((rows, rows))
        obj = GramStyleLoss(c + c.T, rng.standard_normal((rows * cols, d)))
    else:
        d = draw(st.integers(1, 64))
        if kind == "gmm":
            k = draw(st.integers(1, 8))
            w = rng.uniform(0.05, 1.0, k)
            means = rng.standard_normal((k, d)) * 3.0
            means[rng.random((k, d)) < draw(st.sampled_from([0.0, 0.5]))] = 0.0
            obj = GmmModel(w / w.sum(), means)
        elif kind == "affine":
            obj = AffineModel(rng.standard_normal((d, d)), rng.standard_normal(d))
        else:
            obj = L2TargetLoss(rng.standard_normal(d))
    d = obj.dim
    x, v = rng.standard_normal((2, d)) * draw(st.sampled_from([0.1, 1.0, 30.0]))
    if kind == "gmm" and draw(st.booleans()):
        x = obj.means[draw(st.integers(0, len(obj.means) - 1))].copy()
    for arr in (x, v):
        arr[rng.random(d) < draw(st.sampled_from([0.0, 0.3, 1.0]))] = draw(st.sampled_from([0.0, -0.0]))
    return obj, x, draw(st.floats(0.05, 40.0)), v


@settings(derandomize=True, deadline=None, max_examples=400)
@given(case=product_cases())
def test_products_give_the_bits_of_the_matmul_expressions(case):
    # Every product goes through ndarray.dot, which reaches the same BLAS routine as `@` with
    # less dispatch.  Where the contracted axis has length 2 or more, the bytes are the same; over
    # a length-1 axis `@` adds the single term to +0.0 and dot does not, so a zero product keeps
    # its sign there.  Adding 0.0, which maps -0.0 to +0.0 and leaves every other value as it is,
    # makes the bytes equal in every case.
    obj, x, sigma, v = case
    got, want = _outputs(obj, x, sigma, v), _matmul_reference(obj, x, sigma, v)
    assert len(got) == len(want)
    assert [(g + 0.0).tobytes() for g in got] == [(w + 0.0).tobytes() for w in want]
    if min(_contracted_lengths(obj)) > 1:
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
