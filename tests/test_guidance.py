import copy
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import TASK_BETAS, TASK_RHO, TASK_WINDOW, CountingModel, NanModel, at_offset, rel_err, traced_peak
from symguide import (
    AffineModel,
    ButcherTableau,
    DivergenceError,
    GmmModel,
    GramStyleLoss,
    GuidanceConfig,
    L2TargetLoss,
    NoiseSchedule,
    build_linear_schedule,
    ddim_rollout,
    ddim_step,
    estimate_clean,
    estimate_clean_rk,
    sag_sample,
    symplectic_euler_grad,
    symplectic_rk_grad,
    time_travel_renoise,
)
from symguide.guidance import MAX_SIZE
from symguide.schedule import _MEMO_CAPACITY


def loss_fd_grad(loss, x0, h=1e-6):
    out = np.empty_like(x0)
    for j in range(len(x0)):
        xp, xm = x0.copy(), x0.copy()
        xp[j] += h
        xm[j] -= h
        out[j] = (loss.value(xp) - loss.value(xm)) / (2 * h)
    return out


class ZeroNoiseRng:
    def standard_normal(self, shape):
        return np.zeros(shape)


def numpy_scalar_ddim_step(model, schedule, x_t, t):
    """ddim_step as first written: numpy-scalar schedule arithmetic on every call."""
    a_t = schedule.alpha[t]
    a_prev = schedule.alpha[t - 1]
    x_t = np.asarray(x_t, dtype=np.float64)
    eps = model.eps(x_t / np.sqrt(a_t), float(np.sqrt((1.0 - a_t) / a_t)))
    xhat0 = (x_t - math.sqrt(1.0 - a_t) * eps) / math.sqrt(a_t)
    return math.sqrt(a_prev) * xhat0 + math.sqrt(1.0 - a_prev) * eps


class TestDdimStep:
    def test_bitwise_equal_to_numpy_scalar_formula(self, schedule, gmm2, mlp3):
        rng = np.random.default_rng(7)
        for model in (gmm2, mlp3):
            for t in range(1, schedule.num_steps + 1):
                x = rng.standard_normal(model.dim) * 3.0
                out = ddim_step(model, schedule, x, t)
                assert out.tobytes() == numpy_scalar_ddim_step(model, schedule, x, t).tobytes()

    def test_zero_model_rescales(self, schedule):
        zero = AffineModel.zero(2)
        x = np.array([1.2, -0.6])
        out = ddim_step(zero, schedule, x, 20)
        expected = math.sqrt(schedule.alpha[19] / schedule.alpha[20]) * x
        assert rel_err(out, expected) < 1e-15

    def test_frozen_scalar_example(self):
        # alpha_t = 0.25, alpha_{t-1} = 0.64, x = [2], eps = [1]
        sch = NoiseSchedule(np.array([1.0, 0.64, 0.25]))
        const_one = AffineModel(np.zeros((1, 1)), np.array([1.0]))
        out = ddim_step(const_one, sch, np.array([2.0]), 2)
        assert out == pytest.approx([2.4143593539448984], rel=1e-12)

    def test_final_step_returns_clean_estimate(self, schedule, gmm2):
        x = np.array([0.8, -0.3])
        out = ddim_step(gmm2, schedule, x, 1)
        a1 = schedule.alpha[1]
        eps = gmm2.eps(schedule.to_scaled(x, 1), schedule.sigma(1))
        xhat0 = (x - math.sqrt(1 - a1) * eps) / math.sqrt(a1)
        assert rel_err(out, xhat0) < 1e-15

    def test_rejects_t0(self, schedule, gmm2):
        with pytest.raises(ValueError):
            ddim_step(gmm2, schedule, np.zeros(2), 0)


class TestLosses:
    def test_l2_at_target(self):
        loss, x = L2TargetLoss(np.array([1.0, 2.0])), np.array([1.0, 2.0])
        assert loss.value(x) == 0.0
        assert np.array_equal(loss.grad(x), np.zeros(2))

    def test_l2_scalar_example(self):
        loss, x = L2TargetLoss(np.array([1.0])), np.array([3.0])
        assert loss.value(x) == 2.0
        assert np.array_equal(loss.grad(x), [2.0])

    def test_l2_target_must_be_a_finite_vector(self):
        assert L2TargetLoss([1.0, 2.0, 3.0]).dim == 3
        for target in (1.0, [[1.0, 2.0]]):
            with pytest.raises(ValueError, match="vector"):
                L2TargetLoss(target)
        with pytest.raises(ValueError, match="finite"):
            L2TargetLoss([np.nan, 0.0])

    def test_l2_fd(self):
        rng = np.random.default_rng(0)
        loss = L2TargetLoss(rng.standard_normal(4))
        x = rng.standard_normal(4)
        assert rel_err(loss.grad(x), loss_fd_grad(loss, x, h=1e-6)) < 1e-8

    def test_gram_zero_features(self):
        c = np.array([[2.0, 1.0], [1.0, 3.0]])
        F = np.zeros((6, 4))
        loss, x = GramStyleLoss(c, F), np.array([1.0, -1.0, 2.0, 0.5])
        assert loss.dim == 4
        assert loss.value(x) == float(np.sum(c * c))
        assert np.array_equal(loss.grad(x), np.zeros(4))

    def test_gram_at_target_is_zero(self):
        rng = np.random.default_rng(1)
        F = rng.standard_normal((6, 6))
        x = rng.standard_normal(6)
        Y = (F @ x).reshape(2, 3)
        loss = GramStyleLoss(Y @ Y.T, F)
        assert loss.value(x) == pytest.approx(0.0, abs=1e-24)
        assert np.abs(loss.grad(x)).max() < 1e-10

    def test_gram_fd(self):
        rng = np.random.default_rng(2)
        F = rng.standard_normal((6, 6))
        c = rng.standard_normal((2, 2))
        c = c + c.T
        loss = GramStyleLoss(c, F)
        x = rng.standard_normal(6)
        assert rel_err(loss.grad(x), loss_fd_grad(loss, x, h=1e-6)) < 1e-6

    def test_gram_shape_validation(self):
        square = r"^target Gram matrix must be square and non-empty, got shape "
        with pytest.raises(ValueError, match=square + r"\(2, 3\)$"):
            GramStyleLoss(np.zeros((2, 3)), np.zeros((6, 4)))
        with pytest.raises(ValueError, match=square + r"\(0, 0\)$"):  # r = 0 rows: no feature map fits
            GramStyleLoss(np.zeros((0, 0)), np.zeros((6, 4)))
        with pytest.raises(ValueError):
            GramStyleLoss(np.zeros((2, 2)), np.zeros((5, 4)))  # 5 rows not divisible by 2
        with pytest.raises(ValueError):
            GramStyleLoss(np.array([[1.0, 2.0], [0.0, 1.0]]), np.zeros((6, 4)))  # asymmetric
        with pytest.raises(ValueError, match="^target Gram matrix must be symmetric$"):
            GramStyleLoss([[1.0, 1e308], [-1e308, 1.0]], np.eye(2))  # c - c.T overflows
        with pytest.raises(ValueError, match="finite"):
            GramStyleLoss(np.full((2, 2), np.inf), np.zeros((6, 4)))
        with pytest.raises(ValueError, match="finite"):
            GramStyleLoss(np.eye(2), np.full((6, 4), np.nan))

    @pytest.mark.parametrize("seed", [0, 7])
    def test_gram_bits_match_its_expressions_on_misaligned_copies(self, seed):
        # The loss keeps its arrays on 64-byte boundaries (schedule._frozen); that changes
        # no bit: value and grad equal their expressions on copies 16 bytes past a boundary.
        rng = np.random.default_rng(seed)
        c = rng.standard_normal((4, 4))
        loss = GramStyleLoss(c + c.T, rng.standard_normal((32, 64)))
        assert all(arr.ctypes.data % 64 == 0 for arr in (loss.target_gram, loss.feature_map))
        gram_target, F = at_offset(loss.target_gram, 16), at_offset(loss.feature_map, 16)
        for x in rng.standard_normal((5, 64)):
            Y = (F @ x).reshape(4, 8)
            diff = Y @ Y.T - gram_target
            assert loss.value(x) == float(np.sum(diff * diff))
            assert loss.grad(x).tobytes() == (F.T @ (4.0 * diff @ Y).ravel()).tobytes()


class TestRenoise:
    def test_deterministic_part(self, schedule):
        x = np.array([2.0, -1.0])
        t = 20
        out = time_travel_renoise(x, schedule, t, ZeroNoiseRng())
        expected = math.sqrt(schedule.alpha[t] / schedule.alpha[t - 1]) * x
        assert rel_err(out, expected) < 1e-15

    def test_moments(self, schedule):
        t = 25
        x = np.array([1.5, -0.5, 3.0])
        rng = np.random.default_rng(99)
        n_draws = 100_000
        a_t, a_prev = schedule.alpha[t], schedule.alpha[t - 1]
        draws = np.stack([time_travel_renoise(x, schedule, t, rng) for _ in range(n_draws)])
        mean_true = math.sqrt(a_t / a_prev) * x
        var_true = (a_prev - a_t) / a_prev
        se_mean = math.sqrt(var_true / n_draws)
        assert np.abs(draws.mean(axis=0) - mean_true).max() < 4 * se_mean
        se_var = var_true * math.sqrt(2.0 / (n_draws - 1))
        assert np.abs(draws.var(axis=0, ddof=1) - var_true).max() < 4 * se_var


class TestGuidanceConfig:
    def test_window_bounds(self):
        with pytest.raises(ValueError):
            GuidanceConfig(window=(0, 10), rho=0.1)
        with pytest.raises(ValueError):
            GuidanceConfig(window=(10, 10), rho=0.1)
        with pytest.raises(ValueError):
            GuidanceConfig(window=(12, 10), rho=0.1)

    def test_window_must_fit_schedule(self, schedule):
        cfg = GuidanceConfig(window=(10, 50), rho=0.1)
        with pytest.raises(ValueError):
            cfg.validate_for(schedule)

    def test_positivity(self):
        with pytest.raises(ValueError):
            GuidanceConfig(window=(1, 5), rho=-0.1)
        for rho in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                GuidanceConfig(window=(1, 5), rho=rho)
        with pytest.raises(ValueError):
            GuidanceConfig(window=(1, 5), rho=0.1, repeats=0)
        with pytest.raises(ValueError):
            GuidanceConfig(window=(1, 5), rho=0.1, n_steps=0)

    @pytest.mark.parametrize("name", ["repeats", "n_steps"])
    @pytest.mark.parametrize("value", [1.5, 2.5, 2.0, True, "2"])
    def test_counts_must_be_integers(self, name, value):
        # A non-integer count would otherwise fail later, inside the sampler's loop.
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value!r}$"):
            GuidanceConfig(window=(1, 5), rho=0.1, **{name: value})

    @pytest.mark.parametrize("window", [(1.5, 5), (1, 5.9), ("1", 5), (1, True)])
    def test_window_steps_must_be_integers(self, window):
        # A float step is rejected, not truncated: (1, 5.9) does not become (1, 5).
        with pytest.raises(ValueError, match="^window step must be an integer"):
            GuidanceConfig(window=window, rho=0.1)

    def test_window_must_be_a_pair(self):
        with pytest.raises(ValueError, match=r"^window must be a pair \(K1, K2\)"):
            GuidanceConfig(window=(1, 5, 9), rho=0.1)

    def test_numpy_counts_become_ints(self):
        cfg = GuidanceConfig(window=(np.int64(1), 5), rho=0.1, repeats=np.int64(2), n_steps=np.int32(3))
        assert cfg.window == (1, 5) and type(cfg.window[0]) is int
        assert (type(cfg.repeats), type(cfg.n_steps), cfg.repeats, cfg.n_steps) == (int, int, 2, 3)

    @pytest.mark.parametrize("name", ["repeats", "n_steps"])
    def test_count_ceiling(self, name):
        # A config's guidance counts are range-checked here alone, so the ceiling holds for library callers too.
        assert getattr(GuidanceConfig(window=(1, 5), rho=0.1, **{name: MAX_SIZE}), name) == MAX_SIZE
        with pytest.raises(ValueError, match=rf"^{name} must be in \[1, {MAX_SIZE}\], got 5000$"):
            GuidanceConfig(window=(1, 5), rho=0.1, **{name: 5000})

    def test_rho_zero_outside_window(self):
        cfg = GuidanceConfig(window=(10, 20), rho=0.3, repeats=2)
        assert cfg.rho_at(5) == 0.0
        assert cfg.rho_at(25) == 0.0
        assert cfg.rho_at(12) == 0.3
        assert cfg.repeats_at(12) == 2 and cfg.repeats_at(5) == 1  # one pass outside the window


def test_value_types_compare_by_identity(schedule, gmm2, task_loss):
    cfg = GuidanceConfig(window=(20, 24), rho=0.05, repeats=1, n_steps=2)
    values = [
        schedule,
        ButcherTableau.heun(),
        estimate_clean(gmm2, schedule, np.array([0.5, -0.2]), 30, 4),
        sag_sample(gmm2, schedule, task_loss, cfg, 5),
    ]
    for x in values:
        twin = copy.copy(x)
        assert x == x
        assert x != twin
        assert hash(x) == hash(x)
        assert len({x, twin}) == 2


@st.composite
def sample_cases(draw):
    """A small schedule length T, a window (K1, K2) inside it, repeats r, n and rho."""
    T = draw(st.integers(3, 12))
    k1 = draw(st.integers(1, T - 2))
    k2 = draw(st.integers(k1 + 1, T - 1))
    rho = draw(st.sampled_from([0.0, 0.01, TASK_RHO]))
    return T, k1, k2, draw(st.integers(1, 3)), draw(st.integers(1, 5)), rho


class TestSagSample:
    def test_guidance_off_is_plain_rollout_bitwise(self, schedule, gmm2, task_loss):
        cfg = GuidanceConfig(window=TASK_WINDOW, rho=0.0, repeats=1, n_steps=4)
        for seed in (0, 7, 1234):
            rec = sag_sample(gmm2, schedule, task_loss, cfg, seed)
            assert np.array_equal(rec.final_state, ddim_rollout(gmm2, schedule, seed))
            assert rec.steps_guided == 0

    def test_loss_of_another_dimension_rejected(self, schedule, gmm2):
        # A 1-d target would broadcast against the 2-d state and guide toward (0, 0).
        model = CountingModel(gmm2)
        cfg = GuidanceConfig(window=TASK_WINDOW, rho=TASK_RHO)
        with pytest.raises(ValueError, match="^loss dimension 1 does not match model dimension 2$"):
            sag_sample(model, schedule, L2TargetLoss([0.0]), cfg, 0)
        assert not any(model.calls.values())

    def test_peak_memory_grows_by_one_steps_checkpoints(self, schedule, gmm2, task_loss):
        # A warm sample holds one guided step's trajectory at a time and no copy of its grid, so
        # from n = 128 to 1024 its peak grows by the extra checkpoints of one step, 896 x d floats,
        # plus under 1 KiB measured at several seeds and windows.
        peaks = {}
        for n in (128, 1024):
            cfg = GuidanceConfig(window=(20, 22), rho=TASK_RHO, n_steps=n)
            peaks[n] = traced_peak(lambda: sag_sample(gmm2, schedule, task_loss, cfg, 0))
        checkpoints = (1024 - 128) * gmm2.dim * 8
        assert peaks[1024] - peaks[128] <= checkpoints + 2048, (peaks, checkpoints)

    @pytest.mark.parametrize("scale, t", [(1e3, 48), (1e40, 50)])
    def test_guidance_off_and_rollout_diverge_alike(self, schedule, scale, t):
        # The state grows past the norm guard, or overflows, with no numpy warning.
        model = AffineModel(-scale * np.eye(2))
        cfg = GuidanceConfig(window=TASK_WINDOW, rho=0.0)
        with pytest.raises(DivergenceError, match=f"sampler state diverged at t={t} "):
            sag_sample(model, schedule, L2TargetLoss([0.0, 0.0]), cfg, 0)
        with pytest.raises(DivergenceError, match=f"unguided rollout diverged at t={t} "):
            ddim_rollout(model, schedule, 0)

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(case=sample_cases())
    @example(case=(50, 15, 35, 1, 4, TASK_RHO))  # configs/default.json: 134 eps and 84 vjp calls
    def test_model_call_counts(self, gmm2, task_loss, case):
        # T ddim_step calls, (r-1)*W more for the window's repeats, and, when rho > 0,
        # an n-call estimate and an n-call costate sweep at each of the G = r*W guided steps.
        T, k1, k2, r, n, rho = case
        model = CountingModel(gmm2)
        cfg = GuidanceConfig(window=(k1, k2), rho=rho, repeats=r, n_steps=n)
        sag_sample(model, build_linear_schedule(T, *TASK_BETAS), task_loss, cfg, 0)
        W = k2 - k1 + 1
        G = r * W if rho > 0.0 else 0
        expected = {"eps": T + (r - 1) * W + G * n, "vjp": G * n}
        assert model.calls == {**dict.fromkeys(model.calls, 0), **expected}

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(case=sample_cases())
    @example(case=(50, 15, 35, 1, 4, TASK_RHO))  # configs/default.json: 92 checks
    def test_each_public_call_checks_its_step_once(self, gmm2, task_loss, case):
        # ddim_step checks t once for its T + (r-1)*W calls and time_travel_renoise once for its
        # (r-1)*W; each of the G guided steps checks it in estimate_clean's make_sub_schedule and in
        # symplectic_euler_grad's _check_traj.  Every pull-back after those goes through _to_scaled.
        T, k1, k2, r, n, rho = case
        checks = []
        check = NoiseSchedule._check_step

        def counted(self, t, least=0):
            checks.append(t)
            return check(self, t, least)

        cfg = GuidanceConfig(window=(k1, k2), rho=rho, repeats=r, n_steps=n)
        sch = build_linear_schedule(T, *TASK_BETAS)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(NoiseSchedule, "_check_step", counted)
            sag_sample(gmm2, sch, task_loss, cfg, 0)
        W = k2 - k1 + 1
        G = r * W if rho > 0.0 else 0
        assert len(checks) == T + 2 * (r - 1) * W + 2 * G

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(case=sample_cases())
    @example(case=(50, 15, 35, 1, 4, TASK_RHO))  # configs/default.json: 113 of 218 evaluated
    def test_each_point_is_evaluated_once(self, gmm2, task_loss, case):
        # The calls above stay; the mixture is evaluated once per distinct point. A guided
        # step's first eps meets ddim_step's point and its costate sweep meets the n forward
        # points, so each of the G guided steps adds n - 1 points to the T + (r-1)*W steps.
        T, k1, k2, r, n, rho = case
        assert n + 1 <= _MEMO_CAPACITY
        model = GmmModel(gmm2.weights, gmm2.means)
        evaluated = []
        mixture = model._mixture
        model._mixture = lambda x_bar, sigma: evaluated.append(1) or mixture(x_bar, sigma)
        cfg = GuidanceConfig(window=(k1, k2), rho=rho, repeats=r, n_steps=n)
        sag_sample(model, build_linear_schedule(T, *TASK_BETAS), task_loss, cfg, 0)
        W = k2 - k1 + 1
        G = r * W if rho > 0.0 else 0
        assert len(evaluated) == T + (r - 1) * W + G * (n - 1)

    def test_more_sub_steps_than_the_memo_holds_match_the_memo_free_run(self, schedule, gmm2, task_loss):
        # Past the capacity the sweep recomputes the evicted points, to the same bits.
        memo_free = GmmModel(gmm2.weights, gmm2.means)
        memo_free._responsibilities = memo_free._mixture
        cfg = GuidanceConfig(window=TASK_WINDOW, rho=TASK_RHO, repeats=2, n_steps=_MEMO_CAPACITY + 36)
        records = [sag_sample(m, schedule, task_loss, cfg, 3) for m in (GmmModel(gmm2.weights, gmm2.means), memo_free)]
        assert records[0].final_state.tobytes() == records[1].final_state.tobytes()
        assert records[0].guided_steps == records[1].guided_steps
        assert records[0].final_loss.hex() == records[1].final_loss.hex()

    def test_single_step_mode_matches_independent_baseline_bitwise(self, schedule, gmm2, task_loss):
        def one_step_guided_sample(model, sch, loss, window, rho, seed):
            # independent rewrite of the guided loop from the closed forms
            rng = np.random.default_rng(seed)
            x = rng.standard_normal(model.dim)
            for t in range(sch.num_steps, 0, -1):
                a_t, a_prev = sch.alpha[t], sch.alpha[t - 1]
                sigma_t = sch.sigma(t)
                x_bar = x / math.sqrt(a_t)
                eps = model.eps(x_bar, sigma_t)
                xhat0 = (x - math.sqrt(1.0 - a_t) * eps) / math.sqrt(a_t)
                x_prev = math.sqrt(a_prev) * xhat0 + math.sqrt(1.0 - a_prev) * eps
                if window[0] <= t <= window[1] and rho > 0.0:
                    g = loss.grad(x_bar + (0.0 - sigma_t) * eps)
                    grad = (g - sigma_t * model.vjp(x_bar, sigma_t, g)) / math.sqrt(a_t)
                    x_prev = x_prev - rho * grad
                x = x_prev
            return x

        cfg = GuidanceConfig(window=TASK_WINDOW, rho=TASK_RHO, repeats=1, n_steps=1)
        for seed in (0, 7, 42):
            rec = sag_sample(gmm2, schedule, task_loss, cfg, seed)
            baseline = one_step_guided_sample(gmm2, schedule, task_loss, TASK_WINDOW, TASK_RHO, seed)
            assert np.array_equal(rec.final_state, baseline)

    def test_n1_gradient_equals_closed_form(self, schedule, gmm2, mlp3):
        rng = np.random.default_rng(3)
        for model in (gmm2, mlp3):
            for _ in range(50):
                x = rng.standard_normal(model.dim)
                t = int(rng.integers(1, schedule.num_steps))
                g = rng.standard_normal(model.dim)
                traj = estimate_clean(model, schedule, x, t, 1)
                grad = symplectic_euler_grad(model, traj, g, schedule, t)
                sigma_t = schedule.sigma(t)
                x_bar = schedule.to_scaled(x, t)
                closed = (g - sigma_t * model.vjp(x_bar, sigma_t, g)) / math.sqrt(schedule.alpha[t])
                assert rel_err(grad, closed) <= 1e-12

    def test_seed_determinism(self, schedule, gmm2, task_loss):
        cfg = GuidanceConfig(window=TASK_WINDOW, rho=TASK_RHO, repeats=2, n_steps=2)
        a = sag_sample(gmm2, schedule, task_loss, cfg, 11)
        b = sag_sample(gmm2, schedule, task_loss, cfg, 11)
        assert np.array_equal(a.final_state, b.final_state)
        assert a.guided_steps == b.guided_steps
        assert a.final_loss == b.final_loss

    def test_window_respected(self, schedule, gmm2, task_loss):
        cfg = GuidanceConfig(window=(20, 30), rho=0.1, repeats=1, n_steps=2)
        rec = sag_sample(gmm2, schedule, task_loss, cfg, 5)
        ts = [s["t"] for s in rec.guided_steps]
        assert ts and all(20 <= t <= 30 for t in ts)
        assert rec.steps_guided == 11

    def test_repeats_recorded_per_application(self, schedule, gmm2, task_loss):
        cfg = GuidanceConfig(window=(20, 22), rho=0.05, repeats=2, n_steps=2)
        rec = sag_sample(gmm2, schedule, task_loss, cfg, 5)
        assert rec.steps_guided == 6  # 3 window steps x 2 repeats
        assert [s["repeat"] for s in rec.guided_steps] == [0, 1, 0, 1, 0, 1]

    def test_checkpoint_accounting(self, schedule, gmm2, task_loss):
        cfg = GuidanceConfig(window=(20, 24), rho=0.05, repeats=1, n_steps=4)
        rec = sag_sample(gmm2, schedule, task_loss, cfg, 5)
        assert rec.checkpoints_stored == rec.steps_guided * (4 + 1)

    def test_divergence_raises_with_diagnostics(self, schedule, gmm2, task_loss):
        cfg = GuidanceConfig(window=TASK_WINDOW, rho=50.0, repeats=1, n_steps=4)
        with pytest.raises(DivergenceError, match="t="):
            sag_sample(gmm2, schedule, task_loss, cfg, 0)

    def test_sampler_state_divergence_text_and_no_call_after_it(self, schedule, task_loss):
        # ddim_step makes one eps call per step from t = 50; the eleventh
        # (t = 40, before the window) is NaN in component 0, and component 1
        # follows the zero model's rollout.
        model = NanModel(2, healthy_calls=10, nan_dims=[0])
        cfg = GuidanceConfig(window=TASK_WINDOW, rho=TASK_RHO, repeats=1, n_steps=4)
        with pytest.raises(DivergenceError) as info:
            sag_sample(model, schedule, task_loss, cfg, 0)
        x = np.random.default_rng(0).standard_normal(2)
        for t in range(50, 39, -1):
            x = numpy_scalar_ddim_step(AffineModel.zero(2), schedule, x, t)
        assert str(info.value) == f"sampler state diverged at t=40 repeat=0 (norm {abs(x[1]):.3e})"
        assert (model.calls, model.vjp_calls) == (11, 0)

    def test_guided_state_divergence_text_and_no_call_after_it(self, schedule):
        # A zero model leaves the costate at the loss gradient, about -1e12,
        # so the first guided update (t = 35) passes the 1e9 norm guard.
        model = NanModel(2, healthy_calls=None)
        cfg = GuidanceConfig(window=TASK_WINDOW, rho=1.0, repeats=1, n_steps=4)
        with pytest.raises(DivergenceError) as info:
            sag_sample(model, schedule, L2TargetLoss(np.array([1e12, 0.0])), cfg, 0)
        assert str(info.value) == "guided state diverged at t=35 repeat=0 (rho=1.0)"
        # ddim_step for t = 50..35, then the one estimate (4 eps) and sweep (4 vjp).
        assert (model.calls, model.vjp_calls) == (16 + 4, 4)

    def test_overflowing_loss_value_is_a_divergence(self, schedule, gmm2):
        # |x0 - target|^2 overflows at the first guided step (t = 35).
        cfg = GuidanceConfig(window=TASK_WINDOW, rho=1e-300, repeats=1, n_steps=4)
        with pytest.raises(DivergenceError) as info:
            sag_sample(gmm2, schedule, L2TargetLoss(np.array([1e200, 0.0])), cfg, 0)
        assert str(info.value) == "non-finite guidance loss at t=35 repeat=0"

    def test_overflowing_gradient_norm_is_a_divergence(self, schedule, gmm2):
        class HugeGradLoss(L2TargetLoss):
            def grad(self, x0):
                return np.full(2, 1e200)

        cfg = GuidanceConfig(window=TASK_WINDOW, rho=1e-300, repeats=1, n_steps=4)
        loss = HugeGradLoss(np.zeros(2))
        with pytest.raises(DivergenceError) as info:
            sag_sample(gmm2, schedule, loss, cfg, 0)
        assert str(info.value) == "non-finite guidance gradient at t=35 repeat=0"

    def test_overflowing_final_loss_is_a_divergence(self, schedule, gmm2):
        cfg = GuidanceConfig(window=TASK_WINDOW, rho=0.0, repeats=1, n_steps=4)
        with pytest.raises(DivergenceError, match="non-finite final loss"):
            sag_sample(gmm2, schedule, L2TargetLoss(np.array([1e200, 0.0])), cfg, 0)

    def test_record_serialization_excludes_timing_by_default(self, schedule, gmm2, task_loss):
        cfg = GuidanceConfig(window=(20, 24), rho=0.05, repeats=1, n_steps=2)
        rec = sag_sample(gmm2, schedule, task_loss, cfg, 5)
        payload = rec.to_json_dict()
        assert "wall_time_ns" not in payload


def test_guidance_gradient_error_halves_with_n_and_is_largest_early(schedule, gmm2, task_loss):
    # SAG's claim where guidance acts: a one-step estimate makes the guidance gradient inaccurate,
    # most of all early, and n sub-steps fix it.  On configs/default.json's task, 50 marginal points
    # at each t in the window are scored by the symplectic Euler gradient at n sub-steps against a
    # reference, the RK4 gradient at n = 64.  As in sag_sample, each gradient starts from the loss
    # gradient at its own clean output.  This draw reads median errors at n = 1, 2, 4, 8, 16 of
    # 0.391/0.203/0.105/0.054/0.027 at t = 15, 0.653/0.393/0.211/0.113/0.059 at t = 25 and
    # 0.799/0.672/0.296/0.163/0.073 at t = 35.  Each halving is scored per point, as the median of
    # err(n) / err(2n): a ratio of medians pairs different points, and reads 1.19 at t = 35 for
    # n = 1 -> 2 on this draw.  The paired ratios read 1.60-1.96 here, and 1.60-2.38 over seeds 0-7.
    rk4 = ButcherTableau(
        np.array([[0.0, 0.0, 0.0, 0.0], [0.5, 0.0, 0.0, 0.0], [0.0, 0.5, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]]),
        np.array([1.0, 2.0, 2.0, 1.0]) / 6.0,
        np.array([0.0, 0.5, 0.5, 1.0]),
        name="rk4",
    )
    rng = np.random.default_rng(0)
    ns = (1, 2, 4, 8, 16)
    medians = {}
    for t in (15, 25, 35):
        errors = []
        for x in gmm2.sample_marginal(rng, schedule, t, 50):
            ref = estimate_clean_rk(gmm2, schedule, x, t, 64, rk4)
            exact = symplectic_rk_grad(gmm2, ref, task_loss.grad(ref.clean_output), schedule, t)
            row = []
            for n in ns:
                traj = estimate_clean(gmm2, schedule, x, t, n)
                grad = symplectic_euler_grad(gmm2, traj, task_loss.grad(traj.clean_output), schedule, t)
                row.append(rel_err(grad, exact))
            errors.append(row)
        errors = np.array(errors)
        medians[t] = np.median(errors, axis=0)
        ratios = np.median(errors[:, :-1] / errors[:, 1:], axis=0)
        assert np.all((1.5 <= ratios) & (ratios <= 2.5)), (t, ratios)
    assert medians[35][0] > medians[15][0]
