import contextlib
import sys

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import TASK_MEANS, CountingModel, NanModel, rel_err, traced_peak
from symguide import (
    AdjointStats,
    AffineModel,
    ButcherTableau,
    DivergenceError,
    GmmModel,
    MlpModel,
    NoiseSchedule,
    build_linear_schedule,
    conservation_probe,
    direct_backprop_grad,
    estimate_clean,
    estimate_clean_rk,
    make_sub_schedule,
    rk_direct_backprop_grad,
    symplectic_euler_grad,
    symplectic_rk_grad,
    vanilla_adjoint_grad,
)


def pipeline_fd_grad(model, schedule, x_t, t, n, grad_at_clean, h=1e-6):
    """Central differences of g . clean_output(x_t) through the full estimate."""
    out = np.empty_like(x_t)
    for j in range(len(x_t)):
        xp, xm = x_t.copy(), x_t.copy()
        xp[j] += h
        xm[j] -= h
        fp = float(grad_at_clean @ estimate_clean(model, schedule, xp, t, n).clean_output)
        fm = float(grad_at_clean @ estimate_clean(model, schedule, xm, t, n).clean_output)
        out[j] = (fp - fm) / (2.0 * h)
    return out


@st.composite
def explicit_tableaux(draw):
    """(a, b, c) of an s-stage explicit method: a strictly lower, |b_i| in [0.1, 1]."""
    s = draw(st.integers(1, 4))
    a = np.zeros((s, s))
    lower = np.tril_indices(s, -1)
    a[lower] = draw(st.lists(st.floats(-1.0, 1.0), min_size=len(lower[0]), max_size=len(lower[0])))
    b = [draw(st.floats(0.1, 1.0)) * draw(st.sampled_from([-1.0, 1.0])) for _ in range(s)]
    c = draw(st.lists(st.floats(0.0, 1.0), min_size=s, max_size=s))
    return a, np.array(b), np.array(c)


@st.composite
def scheduled_steps(draw):
    """(schedule, t): a linear schedule of drawn T and betas, or an explicit alpha, and a step of it.

    The explicit alpha is a cumulative product of drawn per-step factors in
    [0.3, 0.99], so it falls strictly while its betas follow no line.
    """
    if draw(st.booleans()):
        beta_min = draw(st.floats(1e-3, 0.1))
        schedule = build_linear_schedule(draw(st.integers(2, 60)), beta_min, beta_min + draw(st.floats(0.0, 0.4)))
    else:
        schedule = NoiseSchedule(np.cumprod([1.0, *draw(st.lists(st.floats(0.3, 0.99), min_size=2, max_size=12))]))
    return schedule, draw(st.integers(1, schedule.num_steps))


@st.composite
def mlps(draw):
    """A random MLP of drawn data dimension, hidden widths and seed."""
    d = draw(st.integers(1, 4))
    hidden = draw(st.lists(st.integers(1, 16), min_size=1, max_size=2))
    return MlpModel.random([d, *hidden, d], seed=draw(st.integers(0, 2**32 - 1)))


class TestTableau:
    def test_euler_and_heun_satisfy_conditions(self):
        assert ButcherTableau.euler().conjugacy_residual() == 0.0
        assert ButcherTableau.heun().conjugacy_residual() <= 1e-15

    def test_heun_conjugate_coefficients(self):
        tb = ButcherTableau.heun()
        assert np.array_equal(tb.A, [[0.0, 1.0], [0.0, 0.0]])

    @settings(derandomize=True, deadline=None)
    @given(
        abc=explicit_tableaux(), schedule_t=scheduled_steps(), n=st.integers(1, 8),
        mlp=mlps(), seed=st.integers(0, 2**32 - 1),
    )
    def test_drawn_tableaux_are_conjugate_and_exact(self, gmm2, abc, schedule_t, n, mlp, seed):
        tb = ButcherTableau(*abc)
        assert np.all(np.tril(tb.A) == 0.0)
        assert tb.conjugacy_residual() <= 1e-15
        schedule, t = schedule_t
        rng = np.random.default_rng(seed)
        for model in (gmm2, mlp):
            x = rng.standard_normal(model.dim)
            g = rng.standard_normal(model.dim)
            traj = estimate_clean_rk(model, schedule, x, t, n, tb)
            sym = symplectic_rk_grad(model, traj, g, schedule, t)
            assert rel_err(sym, rk_direct_backprop_grad(model, traj, g, schedule, t)) <= 1e-9
            S = conservation_probe(model, traj, rng.standard_normal(model.dim), g)
            assert np.abs(S - S[0]).max() <= 1e-10 * abs(S[0])

    def test_rejects_non_explicit_forward(self):
        with pytest.raises(ValueError, match="lower triangular"):
            ButcherTableau(np.array([[0.5]]), np.array([1.0]), np.array([0.0]))

    def test_rejects_misshapen_fields(self):
        with pytest.raises(ValueError, match="field a has shape"):
            ButcherTableau(np.zeros((2, 2)), np.array([1.0]), np.array([0.0]))

    def test_rejects_non_finite_weight(self):
        with pytest.raises(ValueError, match="^tableau field b must be finite$"):
            ButcherTableau(np.zeros((1, 1)), np.array([np.nan]), np.array([0.0]))

    def test_rejects_zero_weight(self):
        with pytest.raises(ValueError, match="nonzero"):
            ButcherTableau(
                np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([1.0, 0.0]), np.array([0.0, 1.0])
            )


class TestSymplecticEuler:
    def test_zero_model_passes_gradient_through(self, schedule):
        zero = AffineModel.zero(3)
        g = np.array([1.0, -2.0, 0.5])
        traj = estimate_clean(zero, schedule, np.zeros(3), 30, 4)
        out = symplectic_euler_grad(zero, traj, g, schedule, 30)
        assert np.array_equal(out, g / np.sqrt(schedule.alpha[30]))

    def test_affine_transpose_product_oracle(self, schedule):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((3, 3)) * 0.3
        model = AffineModel(A, rng.standard_normal(3) * 0.2)
        x = rng.standard_normal(3)
        g = rng.standard_normal(3)
        t, n = 35, 5
        traj = estimate_clean(model, schedule, x, t, n)
        out = symplectic_euler_grad(model, traj, g, schedule, t)
        # independent oracle: explicit transpose-matrix products
        sig = make_sub_schedule(schedule, t, n)
        lam = g.copy()
        eye = np.eye(3)
        for tau in range(n):
            h = sig[tau + 1] - sig[tau]
            lam = (eye - h * A.T) @ lam
        expected = lam / np.sqrt(schedule.alpha[t])
        assert rel_err(out, expected) < 1e-13

    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_matches_direct_backprop(self, schedule, gmm2, mlp3, n):
        rng = np.random.default_rng(n)
        for model in (gmm2, mlp3):
            x = rng.standard_normal(model.dim)
            g = rng.standard_normal(model.dim)
            traj = estimate_clean(model, schedule, x, 30, n)
            sym = symplectic_euler_grad(model, traj, g, schedule, 30)
            oracle = direct_backprop_grad(model, traj, g, schedule, 30)
            assert rel_err(sym, oracle) <= 1e-9

    def test_rejects_mismatched_trajectory(self, schedule, gmm2, mlp3):
        traj = estimate_clean(gmm2, schedule, np.zeros(2), 30, 2)
        with pytest.raises(ValueError, match="dimension"):
            symplectic_euler_grad(mlp3, traj, np.zeros(3), schedule, 30)
        # Both ends print as plain floats, the grid's too (not as np.float64(...)).
        end, wrong = "5.508370156107347", "sigma(31) = 6.242507370297454"
        for t in (31, np.int64(31)):
            with pytest.raises(ValueError) as info:
                symplectic_euler_grad(gmm2, traj, np.zeros(2), schedule, t)
            assert str(info.value) == f"trajectory sigma grid ends at {end}, but {wrong}; wrong schedule or step"
        with pytest.raises(ValueError, match="grad_at_clean has shape"):
            symplectic_euler_grad(gmm2, traj, np.zeros(3), schedule, 30)
        with pytest.raises(ValueError, match=r"^v0 has shape \(3,\), expected \(2,\)$"):
            conservation_probe(gmm2, traj, np.zeros(3), np.zeros(2))

    def test_costate_divergence_text_and_no_call_after_it(self, schedule):
        # The costate sweep runs tau = 0..5; the fourth vjp (tau = 3) is NaN in
        # component 0, so the costate after it, at tau = 4, is the first bad one.
        model = NanModel(2, healthy_calls=None, healthy_vjp_calls=3, nan_dims=[0])
        traj = estimate_clean(model, schedule, np.array([0.5, -1.0]), 30, 6)
        with pytest.raises(DivergenceError) as info:
            symplectic_euler_grad(model, traj, np.array([1.0, -4.0]), schedule, 30)
        assert str(info.value) == "non-finite costate at sub-step tau=4 (finite-part norm 4.000e+00)"
        assert model.vjp_calls == 4


class TestDirectBackprop:
    def test_zero_model(self, schedule):
        zero = AffineModel.zero(2)
        g = np.array([0.3, -0.7])
        traj = estimate_clean(zero, schedule, np.zeros(2), 20, 3)
        out = direct_backprop_grad(zero, traj, g, schedule, 20)
        assert np.array_equal(out, g / np.sqrt(schedule.alpha[20]))

    def test_matches_pipeline_finite_differences(self, schedule, gmm2, mlp3):
        rng = np.random.default_rng(1)
        for model in (gmm2, mlp3):
            x = rng.standard_normal(model.dim) * 0.8
            g = rng.standard_normal(model.dim)
            t, n = 25, 4
            traj = estimate_clean(model, schedule, x, t, n)
            grad = direct_backprop_grad(model, traj, g, schedule, t)
            fd = pipeline_fd_grad(model, schedule, x, t, n, g)
            assert rel_err(grad, fd) < 1e-5

    def test_is_the_taped_euler_recurrence_bitwise(self, schedule, gmm2, mlp3):
        # The oracle and the symplectic adjoint alike: every family's vjp is its taped reverse pass.
        t, n = 30, 4
        affine4 = AffineModel(np.random.default_rng(0).standard_normal((4, 4)) * 0.3, np.ones(4))
        for model in (gmm2, mlp3, affine4):
            rng = np.random.default_rng(model.dim + 2)
            g = rng.standard_normal(model.dim)
            traj = estimate_clean(model, schedule, rng.standard_normal(model.dim), t, n)
            # hand-written stored-activation reverse mode through the Euler map
            sig = traj.sigma
            lam = g.copy()
            for k in range(n):
                tape = model.eps_with_tape(traj.states[k + 1], float(sig[k + 1]))[1]
                lam = lam + (sig[k] - sig[k + 1]) * model.vjp_from_tape(tape, lam)
            expected = lam / np.sqrt(schedule.alpha[t])
            assert direct_backprop_grad(model, traj, g, schedule, t).tobytes() == expected.tobytes()
            assert symplectic_euler_grad(model, traj, g, schedule, t).tobytes() == expected.tobytes()


class TestVanillaAdjoint:
    def test_zero_model_is_exact(self, schedule):
        zero = AffineModel.zero(2)
        g = np.array([1.0, 2.0])
        out = vanilla_adjoint_grad(zero, np.zeros(2), g, schedule, 30, 4)
        assert np.array_equal(out, g / np.sqrt(schedule.alpha[30]))

    def test_error_dominates_symplectic(self, schedule, gmm2, mlp3):
        rng = np.random.default_rng(2)
        for model in (gmm2, mlp3):
            x = rng.standard_normal(model.dim)
            g = rng.standard_normal(model.dim)
            t, n = 30, 4
            traj = estimate_clean(model, schedule, x, t, n)
            oracle = direct_backprop_grad(model, traj, g, schedule, t)
            sym_err = np.linalg.norm(symplectic_euler_grad(model, traj, g, schedule, t) - oracle)
            van_err = np.linalg.norm(
                vanilla_adjoint_grad(model, traj.clean_output, g, schedule, t, n) - oracle
            )
            assert van_err >= 10.0 * sym_err
            assert van_err > 1e-8  # the separation is real, not two zeros

    def test_first_order_convergence_on_affine(self, schedule):
        # against the analytic continuous gradient expm(-A^T sigma_t) g
        A = np.array([[0.25, 0.1], [-0.05, 0.3]])
        model = AffineModel(A)
        t = 35
        sigma_t = schedule.sigma(t)
        g = np.array([1.0, 0.5])
        x_clean = np.array([0.7, -0.4])
        analytic = scipy.linalg.expm(-A.T * sigma_t) @ g / np.sqrt(schedule.alpha[t])
        errs = {
            nb: np.linalg.norm(vanilla_adjoint_grad(model, x_clean, g, schedule, t, nb) - analytic)
            for nb in (16, 32, 64)
        }
        assert 1.4 < errs[16] / errs[32] < 2.6
        assert 1.4 < errs[32] / errs[64] < 2.6

    def test_step_doubling_order(self, schedule, gmm2, mlp3):
        t = 25
        for model in (gmm2, mlp3):
            x = np.full(model.dim, 0.3)
            g = np.ones(model.dim)
            traj = estimate_clean(model, schedule, x, t, 4)
            ref = vanilla_adjoint_grad(model, traj.clean_output, g, schedule, t, 512)
            e8 = np.linalg.norm(vanilla_adjoint_grad(model, traj.clean_output, g, schedule, t, 8) - ref)
            e16 = np.linalg.norm(vanilla_adjoint_grad(model, traj.clean_output, g, schedule, t, 16) - ref)
            assert 0.7 <= np.log2(e8 / e16) <= 1.3

    def test_rejects_bad_n_back(self, schedule, gmm2):
        with pytest.raises(ValueError):
            vanilla_adjoint_grad(gmm2, np.zeros(2), np.ones(2), schedule, 30, 0)


class TestRkForward:
    def test_single_stage_matches_euler_bitwise(self, schedule, mlp3):
        x = np.array([0.4, -0.9, 0.2])
        t, n = 30, 4
        rk_traj = estimate_clean_rk(mlp3, schedule, x, t, n, ButcherTableau.euler())
        # hand-written explicit Euler recurrence
        sig = make_sub_schedule(schedule, t, n)
        states = [None] * (n + 1)
        states[n] = schedule.to_scaled(x, t)
        for tau in range(n, 0, -1):
            e = mlp3.eps(states[tau], float(sig[tau]))
            states[tau - 1] = states[tau] + (sig[tau - 1] - sig[tau]) * e
        assert np.array_equal(rk_traj.states, np.array(states))
        assert np.array_equal(rk_traj.clean_output, states[0])
        assert rk_traj.stage_states.shape == (n, 0, 3)  # the n+1 checkpoints are all it stores

    def test_zero_model_any_tableau(self, schedule):
        zero = AffineModel.zero(2)
        x = np.array([1.5, -0.5])
        traj = estimate_clean_rk(zero, schedule, x, 25, 3, ButcherTableau.heun())
        assert np.array_equal(traj.clean_output, schedule.to_scaled(x, 25))

    def test_heun_affine_two_stage_oracle(self, schedule):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((2, 2)) * 0.3
        b = rng.standard_normal(2) * 0.3
        model = AffineModel(A, b)
        x = rng.standard_normal(2)
        t, n = 30, 3
        traj = estimate_clean_rk(model, schedule, x, t, n, ButcherTableau.heun())
        # independent two-stage recurrence with explicit matrices
        sig = make_sub_schedule(schedule, t, n)
        state = schedule.to_scaled(x, t)
        for tau in range(n, 0, -1):
            h = sig[tau - 1] - sig[tau]
            k1 = A @ state + b
            k2 = A @ (state + h * k1) + b
            state = state + 0.5 * h * (k1 + k2)
        assert rel_err(traj.clean_output, state) < 1e-13

    def test_stage_replay_is_bitwise(self, schedule, gmm2):
        x = np.array([0.6, -0.2])
        tb = ButcherTableau.heun()
        traj = estimate_clean_rk(gmm2, schedule, x, 28, 4, tb)
        assert traj.stage_states.shape == (4, tb.stages - 1, 2)
        sig = traj.sigma
        for tau in range(4, 0, -1):
            y = traj.states[tau]
            h = sig[tau - 1] - sig[tau]
            rec = tau - 1
            slopes = []
            for i in range(tb.stages):
                Xi = y.copy()
                for j in range(i):
                    if tb.a[i, j] != 0.0:
                        Xi = Xi + h * tb.a[i, j] * slopes[j]
                sig_i = sig[tau] + tb.c[i] * h
                point, sigma = traj.stage(rec, i)
                assert np.array_equal(Xi, point)
                assert sig_i == sigma
                if i > 0:
                    assert np.array_equal(Xi, traj.stage_states[rec, i - 1])
                slopes.append(gmm2.eps(Xi, float(sig_i)))
            y_next = y.copy()
            for i in range(tb.stages):
                y_next = y_next + h * tb.b[i] * slopes[i]
            assert np.array_equal(y_next, traj.states[tau - 1])


class TestSymplecticRk:
    def test_single_stage_matches_euler_grad_bitwise(self, schedule, gmm2, mlp3):
        t, n = 30, 4
        for model in (gmm2, mlp3):
            rng = np.random.default_rng(model.dim)
            x = rng.standard_normal(model.dim)
            g = rng.standard_normal(model.dim)
            traj = estimate_clean(model, schedule, x, t, n)
            # hand-written symplectic Euler costate recurrence
            sig = traj.sigma
            lam = g.copy()
            for tau in range(n):
                lam = lam - (sig[tau + 1] - sig[tau]) * model.vjp(traj.states[tau + 1], float(sig[tau + 1]), lam)
            expected = lam / np.sqrt(schedule.alpha[t])
            assert np.array_equal(symplectic_euler_grad(model, traj, g, schedule, t), expected)
            assert np.array_equal(symplectic_rk_grad(model, traj, g, schedule, t), expected)

    def test_zero_model(self, schedule):
        zero = AffineModel.zero(2)
        g = np.array([0.5, -1.5])
        traj = estimate_clean_rk(zero, schedule, np.zeros(2), 20, 3, ButcherTableau.heun())
        out = symplectic_rk_grad(zero, traj, g, schedule, 20)
        assert np.array_equal(out, g / np.sqrt(schedule.alpha[20]))

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_heun_matches_rk_reverse_mode(self, schedule, gmm2, mlp3, n):
        rng = np.random.default_rng(n + 10)
        for model in (gmm2, mlp3):
            x = rng.standard_normal(model.dim)
            g = rng.standard_normal(model.dim)
            traj = estimate_clean_rk(model, schedule, x, 30, n, ButcherTableau.heun())
            sym = symplectic_rk_grad(model, traj, g, schedule, 30)
            oracle = rk_direct_backprop_grad(model, traj, g, schedule, 30)
            assert rel_err(sym, oracle) <= 1e-9

    def test_heun_matches_pipeline_finite_differences(self, schedule, mlp3):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(3) * 0.6
        g = rng.standard_normal(3)
        t, n = 25, 3
        tb = ButcherTableau.heun()
        traj = estimate_clean_rk(mlp3, schedule, x, t, n, tb)
        grad = symplectic_rk_grad(mlp3, traj, g, schedule, t)
        h = 1e-6
        fd = np.empty(3)
        for j in range(3):
            xp, xm = x.copy(), x.copy()
            xp[j] += h
            xm[j] -= h
            fp = float(g @ estimate_clean_rk(mlp3, schedule, xp, t, n, tb).clean_output)
            fm = float(g @ estimate_clean_rk(mlp3, schedule, xm, t, n, tb).clean_output)
            fd[j] = (fp - fm) / (2 * h)
        assert rel_err(grad, fd) < 1e-5


class TestEulerOnlyReferences:
    def test_reject_multi_stage_trajectory(self, schedule, mlp3):
        traj = estimate_clean_rk(mlp3, schedule, np.full(3, 0.5), 30, 4, ButcherTableau.heun())
        g = np.ones(3)
        with pytest.raises(ValueError, match="Euler.*heun"):
            direct_backprop_grad(mlp3, traj, g, schedule, 30)
        with pytest.raises(ValueError, match="Euler.*heun"):
            symplectic_euler_grad(mlp3, traj, g, schedule, 30)

    def test_rk_solvers_accept_euler_trajectory(self, schedule, mlp3):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(3)
        g = rng.standard_normal(3)
        traj = estimate_clean(mlp3, schedule, x, 30, 4)
        oracle = direct_backprop_grad(mlp3, traj, g, schedule, 30)
        # One stored-activation reference: on an Euler trajectory both oracles give the same bits.
        assert np.array_equal(rk_direct_backprop_grad(mlp3, traj, g, schedule, 30), oracle)
        assert rel_err(symplectic_rk_grad(mlp3, traj, g, schedule, 30), oracle) <= 1e-9
        # On an Euler trajectory both symplectic solvers give the same bits and the same stats.
        rk = symplectic_rk_grad(mlp3, traj, g, schedule, 30, return_stats=True)
        euler = symplectic_euler_grad(mlp3, traj, g, schedule, 30, return_stats=True)
        assert np.array_equal(rk[0], euler[0])
        assert rk[1] == euler[1] == AdjointStats(5, 0, 2)


class TestConservation:
    def test_zero_model_constant_exactly(self, schedule):
        zero = AffineModel.zero(2)
        traj = estimate_clean(zero, schedule, np.zeros(2), 30, 5)
        v0 = np.array([0.3, -0.6])
        lam0 = np.array([1.1, 0.7])
        S = conservation_probe(zero, traj, v0, lam0)
        assert np.all(S == S[0])  # exactly constant
        assert S[0] == pytest.approx(float(lam0 @ v0), rel=1e-15)

    def test_affine_constant_to_roundoff(self, schedule):
        rng = np.random.default_rng(5)
        model = AffineModel(rng.standard_normal((2, 2)) * 0.3)
        traj = estimate_clean(model, schedule, rng.standard_normal(2), 35, 6)
        S = conservation_probe(model, traj, rng.standard_normal(2), rng.standard_normal(2))
        assert np.abs(S - S[0]).max() <= 1e-12 * abs(S[0])

    def test_mlp_invariant(self, schedule, mlp3):
        rng = np.random.default_rng(6)
        traj = estimate_clean(mlp3, schedule, rng.standard_normal(3), 30, 5)
        v0 = rng.standard_normal(3)
        lam0 = rng.standard_normal(3)
        S = conservation_probe(mlp3, traj, v0, lam0)
        assert np.abs(S - S[0]).max() <= 1e-10 * abs(S[0])

    @pytest.mark.parametrize("tableau", ["euler", "heun"])
    @pytest.mark.parametrize("family", ["gmm", "mlp", "affine"])
    def test_probe_reads_every_jacobian_through_vjp_alone(self, schedule, gmm2, mlp3, family, tableau):
        # The tangent builds each stage point's Jacobian from its d rows e_k^T J, one vjp each, and
        # the costate sweep makes one vjp per stage point: n*s*d + n*s calls, and no other method.
        affine = AffineModel(np.array([[-0.1, 0.2], [0.0, -0.3]]), np.array([0.5, -0.5]))
        model = CountingModel({"gmm": gmm2, "mlp": mlp3, "affine": affine}[family])
        tb = getattr(ButcherTableau, tableau)()
        n, s, d = 5, tb.stages, model.dim
        traj = estimate_clean_rk(model.inner, schedule, np.ones(d), 30, n, tb)
        conservation_probe(model, traj, np.ones(d), np.ones(d))
        assert model.calls == {"eps": 0, "vjp": n * s * d + n * s, "eps_with_tape": 0, "vjp_from_tape": 0}


def _symplectic_rest(model, schedule, solver, n):
    """Peak bytes of an n-step estimate and its symplectic gradient, less the states its trajectory stores."""
    rng = np.random.default_rng(8)
    x, g = rng.standard_normal(model.dim), rng.standard_normal(model.dim)
    stored = []

    def forward_and_backward():
        if solver == "euler":
            traj = estimate_clean(model, schedule, x, 35, n)
            symplectic_euler_grad(model, traj, g, schedule, 35)
        else:
            traj = estimate_clean_rk(model, schedule, x, 35, n, ButcherTableau.heun())
            symplectic_rk_grad(model, traj, g, schedule, 35)
        stored.append(traj.states.nbytes + traj.stage_states.nbytes)

    return traced_peak(forward_and_backward) - stored[-1]


class TestMemoryAccounting:
    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_symplectic_is_constant_extra_state(self, schedule, mlp3, n):
        traj = estimate_clean(mlp3, schedule, np.zeros(3), 30, n)
        _, stats = symplectic_euler_grad(mlp3, traj, np.ones(3), schedule, 30, return_stats=True)
        assert stats.checkpoints_read == n + 1
        assert stats.tape_arrays == 0
        assert stats.peak_state_vectors == 2

    def test_oracle_tape_grows_with_n_times_layers(self, schedule, mlp3):
        counts = {}
        for n in (1, 2, 4, 8):
            traj = estimate_clean(mlp3, schedule, np.zeros(3), 30, n)
            _, stats = direct_backprop_grad(mlp3, traj, np.ones(3), schedule, 30, return_stats=True)
            counts[n] = stats.tape_arrays
        assert counts[1] == mlp3.num_layers
        assert all(counts[n] == n * counts[1] for n in counts)
        assert counts[8] > counts[4] > counts[2] > counts[1]

    def test_rk_consumes_stage_records(self, schedule, mlp3):
        # The n+1 checkpoints and n(s-1) stage points; the costate, s products and one coupled stage.
        tb = ButcherTableau.heun()
        for n in (1, 2, 4):
            traj = estimate_clean_rk(mlp3, schedule, np.zeros(3), 30, n, tb)
            _, stats = symplectic_rk_grad(mlp3, traj, np.ones(3), schedule, 30, return_stats=True)
            assert stats == AdjointStats(checkpoints_read=2 * n + 1, tape_arrays=0, peak_state_vectors=4)

    def test_peaks_oracles_grow_with_n_symplectic_do_not(self, schedule):
        # Peak bytes a backward pass allocates on top of its trajectory, as perfbench measures it.
        mlp = MlpModel.random([8, 64, 64, 8], seed=3)
        rng = np.random.default_rng(8)
        x, g = rng.standard_normal(8), rng.standard_normal(8)
        t = 35
        euler, heun = ButcherTableau.euler(), ButcherTableau.heun()
        solvers = [
            (direct_backprop_grad, euler),
            (rk_direct_backprop_grad, heun),
            (symplectic_euler_grad, euler),
            (symplectic_rk_grad, heun),
        ]
        peaks = {}
        for n in (8, 64):
            for solver, tableau in solvers:
                traj = estimate_clean_rk(mlp, schedule, x, t, n, tableau)
                peaks[solver.__name__, n] = traced_peak(lambda: solver(mlp, traj, g, schedule, t))
        for name in ("direct_backprop_grad", "rk_direct_backprop_grad"):
            assert peaks[name, 64] >= 4 * peaks[name, 8], peaks
        # Less than one extra state vector at 8x the sub-steps: an O(n) solver would add >= 56.
        vector = sys.getsizeof(np.empty(8))
        for name in ("symplectic_euler_grad", "symplectic_rk_grad"):
            assert peaks[name, 64] - peaks[name, 8] < vector, peaks

    @pytest.mark.parametrize(
        "model", [AffineModel(-0.1 * np.eye(2)), MlpModel.random([2, 16, 16, 2], seed=1)], ids=["affine", "mlp"]
    )
    def test_symplectic_forward_and_backward_keep_the_trajectory_and_o1_more(self, schedule, model):
        # The rest stays flat in n.  One float per sub-step of any extra term (a list of the grid,
        # a second trajectory) would add 15 KiB between n = 128 and n = 2048.
        for solver in ("euler", "heun"):
            rest = [_symplectic_rest(model, schedule, solver, n) for n in (128, 512, 2048)]
            assert max(rest) - min(rest) < 1024, (solver, rest)

    def test_gmm_symplectic_memory_is_bounded_by_its_memo(self, schedule):
        # A GmmModel also keeps up to 64 memo entries, whose bytes bound its rest at every n.
        def fill_a_memo():
            model = GmmModel([0.5, 0.5], TASK_MEANS)
            for i in range(64):
                model.eps(np.full(2, 0.1 * i), 0.5)

        memo = traced_peak(fill_a_memo)
        model = GmmModel([0.5, 0.5], TASK_MEANS)
        for solver in ("euler", "heun"):
            rest = [_symplectic_rest(model, schedule, solver, n) for n in (128, 512, 2048)]
            assert max(rest) < memo + 4096, (solver, rest, memo)


# The eight public estimators and solvers, each called so that its own arithmetic
# overflows: the model AffineModel(-1e200 I) at t = 35 and n = 4, the solvers over
# the trajectories of AffineModel(-0.1 I) with a cotangent of 1e308 per component.
OVERFLOWING = {
    "estimate_clean": lambda m, sch, euler, heun, g: estimate_clean(m, sch, np.ones(2), 35, 4),
    "estimate_clean_rk": lambda m, sch, euler, heun, g: estimate_clean_rk(
        m, sch, np.ones(2), 35, 4, ButcherTableau.heun()
    ),
    "symplectic_euler_grad": lambda m, sch, euler, heun, g: symplectic_euler_grad(m, euler, g, sch, 35),
    "symplectic_rk_grad": lambda m, sch, euler, heun, g: symplectic_rk_grad(m, heun, g, sch, 35),
    "direct_backprop_grad": lambda m, sch, euler, heun, g: direct_backprop_grad(m, euler, g, sch, 35),
    "rk_direct_backprop_grad": lambda m, sch, euler, heun, g: rk_direct_backprop_grad(m, heun, g, sch, 35),
    "vanilla_adjoint_grad": lambda m, sch, euler, heun, g: vanilla_adjoint_grad(
        m, euler.clean_output, g, sch, 35, 4
    ),
    "conservation_probe": lambda m, sch, euler, heun, g: conservation_probe(m, euler, g, g),
}

# The five gradient solvers on a finite costate whose pull-back to x_t overflows.
PULLED_BACK = {name: call for name, call in OVERFLOWING.items() if name.endswith("_grad")}


# The five gradient solvers and the probe, handed the costate g to start from.
COSTATE_ENTRIES = {
    **PULLED_BACK,
    "conservation_probe": lambda m, sch, euler, heun, g: conservation_probe(m, euler, np.ones(2), g),
}


def _trajectories(model, schedule):
    euler = estimate_clean(model, schedule, np.ones(2), 35, 4)
    return euler, estimate_clean_rk(model, schedule, np.ones(2), 35, 4, ButcherTableau.heun())


class TestOverflowRule:
    """Each public estimator and solver guards itself: DivergenceError, never a warning or an inf."""

    @pytest.mark.parametrize("entry", sorted(OVERFLOWING))
    def test_overflow_is_a_divergence(self, schedule, entry):
        euler, heun = _trajectories(AffineModel(-0.1 * np.eye(2)), schedule)
        with pytest.raises(DivergenceError):
            OVERFLOWING[entry](AffineModel(-1e200 * np.eye(2)), schedule, euler, heun, np.full(2, 1e308))

    @pytest.mark.parametrize("outer", ["bare", "errstate"])
    @pytest.mark.parametrize("solver", sorted(PULLED_BACK))
    def test_overflowing_pull_back_names_the_gradient(self, schedule, solver, outer):
        # The zero model leaves the costate at 1e308; dividing by sqrt(alpha_35) ~ 0.093 overflows.
        zero = AffineModel.zero(2)
        euler, heun = _trajectories(zero, schedule)
        guard = np.errstate(over="ignore", invalid="ignore") if outer == "errstate" else contextlib.nullcontext()
        with guard, pytest.raises(DivergenceError) as info:
            PULLED_BACK[solver](zero, schedule, euler, heun, np.array([1e308, -1e308]))
        assert str(info.value) == "non-finite gradient at sub-step tau=4 (finite-part norm 0.000e+00)"

    def test_overflowing_pairing_is_a_divergence(self, schedule):
        # Each delta and costate stays at 1e200, so only the pairing itself overflows.
        zero = AffineModel.zero(2)
        euler, _ = _trajectories(zero, schedule)
        with pytest.raises(DivergenceError) as info:
            conservation_probe(zero, euler, np.full(2, 1e200), np.full(2, 1e200))
        assert str(info.value) == "non-finite pairing at sub-step tau=0 (finite-part norm 0.000e+00)"

    @pytest.mark.parametrize("tableau, tau", [("euler", 2), ("heun", 3)])
    def test_probe_stops_at_the_first_non_finite_tangent(self, schedule, tableau, tau):
        # delta turns inf after the second stage Jacobian, two vjp rows each; no vjp runs after it,
        # so the costate sweep never starts.
        euler, heun = _trajectories(AffineModel(-0.1 * np.eye(2)), schedule)
        model = CountingModel(AffineModel(-1e200 * np.eye(2)))
        with pytest.raises(DivergenceError, match=rf"^non-finite tangent at sub-step tau={tau} "):
            conservation_probe(model, {"euler": euler, "heun": heun}[tableau], np.ones(2), np.ones(2))
        assert model.calls == {"eps": 0, "vjp": 2 * 2, "eps_with_tape": 0, "vjp_from_tape": 0}

    @pytest.mark.parametrize("entry", sorted(COSTATE_ENTRIES))
    def test_non_finite_costate_is_rejected_before_any_model_call(self, schedule, entry):
        euler, heun = _trajectories(AffineModel(-0.1 * np.eye(2)), schedule)
        model = CountingModel(AffineModel(-0.1 * np.eye(2)))
        with pytest.raises(DivergenceError, match=r"^non-finite costate at sub-step tau=0 "):
            COSTATE_ENTRIES[entry](model, schedule, euler, heun, np.array([np.inf, 0.0]))
        assert model.calls == dict.fromkeys(model.calls, 0)

    def test_vanilla_rejects_a_non_finite_clean_state_before_any_model_call(self, schedule):
        model = CountingModel(AffineModel(-0.1 * np.eye(2)))
        with pytest.raises(DivergenceError, match=r"^non-finite state at sub-step tau=0 "):
            vanilla_adjoint_grad(model, np.array([np.nan, 0.0]), np.ones(2), schedule, 35, 4)
        assert model.calls == dict.fromkeys(model.calls, 0)

    @pytest.mark.parametrize("x_clean", [np.zeros(3), np.full((2, 2), np.inf), np.zeros((2, 3)), 1.0])
    def test_vanilla_rejects_a_misshapen_clean_state_before_any_model_call(self, schedule, x_clean):
        # The finiteness screen takes a vector; any other shape is rejected before it runs.
        model = CountingModel(AffineModel(-0.1 * np.eye(2)))
        with pytest.raises(ValueError, match=r"^x_clean has shape .*, expected \(2,\)$"):
            vanilla_adjoint_grad(model, x_clean, np.ones(2), schedule, 35, 4)
        assert model.calls == dict.fromkeys(model.calls, 0)

