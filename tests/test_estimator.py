import math
import re
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import TASK_BETAS, TASK_T, CountingModel, NanModel, rel_err
from symguide import (
    AffineModel,
    ButcherTableau,
    DivergenceError,
    ExperimentReport,
    GmmModel,
    NoiseSchedule,
    build_linear_schedule,
    estimate_clean,
    estimate_clean_rk,
    estimation_error_curve,
    make_sub_schedule,
    symplectic_euler_grad,
    symplectic_rk_grad,
)
from symguide import estimator


class TestSubSchedule:
    def test_single_step_uses_endpoints_only(self, schedule):
        sigma = make_sub_schedule(schedule, 17, 1)
        assert np.array_equal(sigma, [0.0, schedule.sigma(17)])
        assert not sigma.flags.writeable

    def test_integer_knots_reproduce_parent(self, schedule):
        T = schedule.num_steps
        sigma = make_sub_schedule(schedule, T, T)
        assert sigma.tobytes() == np.array(schedule.sigmas).tobytes()

    @settings(derandomize=True, deadline=None)
    @given(T=st.integers(2, 200), t_share=st.floats(0.0, 1.0), n=st.integers(1, 256))
    @example(T=TASK_T, t_share=0.13, n=25)  # t = 7: 25 * (7 / 25) is 7.000000000000001
    def test_knots_are_exact_for_every_n(self, T, t_share, n):
        sch = build_linear_schedule(T, *TASK_BETAS)
        t = 1 + int(t_share * (T - 1))
        sigma = make_sub_schedule(sch, t, n)
        assert sigma[n].hex() == sch.sigma(t).hex()
        for tau in range(n + 1):
            if tau * t % n == 0:
                assert sigma[tau].hex() == sch.sigmas[tau * t // n].hex()

    def test_interior_interpolation_invariants(self, schedule):
        sigma = make_sub_schedule(schedule, 50, 4)
        assert sigma.shape == (5,)
        assert sigma[0] == 0.0
        assert sigma[4] == schedule.sigma(50)
        assert np.all(np.diff(sigma) > 0)

    def test_rejects_bad_arguments(self, schedule):
        with pytest.raises(ValueError):
            make_sub_schedule(schedule, 10, 0)
        with pytest.raises(ValueError):
            make_sub_schedule(schedule, 0, 2)
        with pytest.raises(ValueError):
            make_sub_schedule(schedule, schedule.num_steps + 1, 2)


class TestSubScheduleMemo:
    def test_memoised_grid_equals_a_fresh_build_bitwise(self, schedule):
        for t in (1, 17, 35, 50):
            for n in (1, 3, 4, 8, 64):
                grid = make_sub_schedule(schedule, t, n)
                assert make_sub_schedule(schedule, t, n) is grid
                fresh = make_sub_schedule(NoiseSchedule(schedule.alpha), t, n)
                assert grid.tobytes() == fresh.tobytes()
                assert not grid.flags.writeable
                with pytest.raises(ValueError):
                    grid[0] = 1.0

    def test_checks_run_before_the_memo(self):
        sch = build_linear_schedule(TASK_T, *TASK_BETAS)
        grid = make_sub_schedule(sch, 10, 2)
        T = sch.num_steps
        # Memo entries that no valid call could store: every call must still fail.
        for t, n in ((0, 2), (-1, 2), (T + 1, 2), (10, 0), (10, -3)):
            sch._sub_grids[t, n] = grid
            with pytest.raises(ValueError):
                make_sub_schedule(sch, t, n)

    def test_schedules_never_share_grids(self):
        a = build_linear_schedule(TASK_T, *TASK_BETAS)
        b = build_linear_schedule(TASK_T, *TASK_BETAS)
        c = build_linear_schedule(TASK_T, 0.01, 0.2)
        grid_a, grid_b, grid_c = (make_sub_schedule(s, 25, 4) for s in (a, b, c))
        assert grid_a is not grid_b
        assert grid_a.tobytes() == grid_b.tobytes()
        assert grid_c.tobytes() != grid_a.tobytes()
        assert grid_c.tobytes() == make_sub_schedule(NoiseSchedule(c.alpha), 25, 4).tobytes()


# The two-stage family a21 = c2 = theta, b = [1 - 1/(2 theta), 1/(2 theta)] has order 2 for every
# theta != 1/2.  At theta = 1/2 the first weight is 0, which ButcherTableau rejects, and close to
# it the h^2 error term of the oracle's flow passes through zero for t near 50 (observed order
# -2.35 from n = 4 to 8 at theta = 0.51, t = 50), so theta keeps 0.1 away from 1/2.
THETAS = st.one_of(st.floats(0.25, 0.4), st.floats(0.6, 1.0))


def order_cases(theta):
    """Each tableau of the order tests: (tableau, the n doubled, and the band its observed order keeps).

    On the oracle the error is one scalar times x_bar_t - mu, so the observed orders depend on t,
    the tableau and n alone.  Over every t in [10, 50] they read 0.97-1.00 (Euler), 1.90-1.99
    (Heun), 1.90-2.08 (theta in the drawn ranges) and 3.98-4.30 (RK4, from n = 2, where its
    errors stay above 1e-12).
    """
    rk4 = ButcherTableau(
        np.array([[0.0, 0.0, 0.0, 0.0], [0.5, 0.0, 0.0, 0.0], [0.0, 0.5, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]]),
        np.array([1.0, 2.0, 2.0, 1.0]) / 6.0,
        np.array([0.0, 0.5, 0.5, 1.0]),
        name="rk4",
    )
    two_stage = ButcherTableau(
        np.array([[0.0, 0.0], [theta, 0.0]]),
        np.array([1.0 - 0.5 / theta, 0.5 / theta]),
        np.array([0.0, theta]),
        name=f"theta={theta!r}",
    )
    return {
        "euler": (ButcherTableau.euler(), (4, 8, 16, 32), 0.9, 1.1),
        "heun": (ButcherTableau.heun(), (4, 8, 16, 32), 1.8, 2.2),
        "theta": (two_stage, (4, 8, 16, 32), 1.8, 2.2),
        "rk4": (rk4, (2, 4, 8, 16), 3.8, 4.4),
    }


class TestEstimateClean:
    def test_zero_model_rescales_only(self, schedule):
        zero = AffineModel.zero(3)
        x = np.array([0.5, -1.0, 2.0])
        for n in (1, 3, 8):
            traj = estimate_clean(zero, schedule, x, 30, n)
            assert np.array_equal(traj.clean_output, schedule.to_scaled(x, 30))

    def test_n1_equals_closed_form(self, schedule, gmm2):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.standard_normal(2) * 2
            t = int(rng.integers(1, schedule.num_steps + 1))
            a = schedule.alpha[t]
            x_bar = schedule.to_scaled(x, t)
            eps = gmm2.eps(x_bar, schedule.sigma(t))
            closed = (x - math.sqrt(1.0 - a) * eps) / math.sqrt(a)
            traj = estimate_clean(gmm2, schedule, x, t, 1)
            # the two routes differ only in op order; ulp-level gaps get
            # amplified by the x_bar - sigma*eps cancellation at large t,
            # so compare against the pre-cancellation magnitude
            scale = max(1.0, float(np.abs(x_bar).max()))
            assert np.abs(traj.clean_output - closed).max() < 1e-13 * scale

    def test_affine_matches_matrix_product_oracle(self, schedule):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((3, 3)) * 0.25
        b = rng.standard_normal(3) * 0.5
        model = AffineModel(A, b)
        x = rng.standard_normal(3)
        t, n = 35, 5
        traj = estimate_clean(model, schedule, x, t, n)
        sig = make_sub_schedule(schedule, t, n)
        # independent linear-recurrence oracle with explicit matrices
        state = schedule.to_scaled(x, t)
        eye = np.eye(3)
        for tau in range(n, 0, -1):
            h_signed = sig[tau - 1] - sig[tau]
            state = (eye + h_signed * A) @ state + h_signed * b
        assert rel_err(traj.clean_output, state) < 1e-13
        # per-step recurrence holds for every stored pair
        for tau in range(n, 0, -1):
            h_signed = sig[tau - 1] - sig[tau]
            step = (eye + h_signed * A) @ traj.states[tau] + h_signed * b
            assert rel_err(traj.states[tau - 1], step) < 1e-13

    def test_replay_is_bitwise(self, schedule, mlp3):
        x = np.array([0.2, -0.8, 1.1])
        traj = estimate_clean(mlp3, schedule, x, 28, 6)
        sig = traj.sigma
        state = traj.states[6]
        for tau in range(6, 0, -1):
            e = mlp3.eps(traj.states[tau], float(sig[tau]))
            state = traj.states[tau] + (sig[tau - 1] - sig[tau]) * e
            assert np.array_equal(state, traj.states[tau - 1])

    def test_checkpoint_count(self, schedule, gmm2):
        for n in (1, 2, 4, 8):
            traj = estimate_clean(gmm2, schedule, np.zeros(2), 20, n)
            assert traj.n == n
            assert traj.states.shape == (n + 1, 2)

    def test_divergence_aborts_with_diagnostics(self, schedule):
        with pytest.raises(DivergenceError, match="tau"):
            estimate_clean(NanModel(2, healthy_calls=2), schedule, np.zeros(2), 30, 5)

    def test_divergence_text_and_no_call_after_it(self, schedule):
        # Sub-steps run tau = 5..1; the third eps call (tau = 3) is NaN in
        # component 0, so the state at tau = 2 is the first non-finite one.
        model = NanModel(2, healthy_calls=2, nan_dims=[0])
        with pytest.raises(DivergenceError) as info:
            estimate_clean(model, schedule, np.array([0.0, 2.0]), 30, 5)
        finite_part = 2.0 / math.sqrt(schedule.alpha[30])
        assert str(info.value) == f"non-finite state at sub-step tau=2 (finite-part norm {finite_part:.3e})"
        assert model.calls == 3

    def test_dimension_mismatch(self, schedule, gmm2):
        with pytest.raises(ValueError):
            estimate_clean(gmm2, schedule, np.zeros(3), 30, 2)

    # A one-component GMM with unit covariance has x_t ~ N(sqrt(alpha_t) mu, I), so its flow
    # d x_bar / d sigma = sigma (x_bar - mu) / (1 + sigma^2) ends exactly at
    # x_0 = x_t + (1 - sqrt(alpha_t)) mu: an oracle that shares no code with the integrator.
    # Doubling n must shrink the error by 2^order.  For t < 10 the orders read lower at these n
    # (0.83 and 1.73 at t = 1), so t starts at 10.
    @settings(derandomize=True, deadline=None, max_examples=50)
    @given(
        mu=st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=2),
        x_t=st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=2),
        t=st.integers(10, 50),
        theta=THETAS,
    )
    @example(mu=[0.7, -1.3], x_t=[0.4, 2.0], t=40, theta=1.0)  # errors 1.17e-1 -> 1.48e-2 and 4.26e-3 -> 7.30e-5
    def test_error_falls_at_the_tableau_order(self, mu, x_t, t, theta):
        sch = build_linear_schedule(50, 1e-4, 0.02)
        mu, x_t = np.array(mu), np.array(x_t)
        assume(np.linalg.norm(x_t - math.sqrt(sch.alpha[t]) * mu) > 0.1)
        model = GmmModel([1.0], [mu])
        exact = x_t + (1.0 - math.sqrt(sch.alpha[t])) * mu
        for name, (tableau, ns, low, high) in order_cases(theta).items():
            errors = [np.linalg.norm(estimate_clean_rk(model, sch, x_t, t, n, tableau).clean_output - exact) for n in ns]
            orders = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
            assert all(low <= p <= high for p in orders), (name, orders)

    # The same oracle for the gradient: x_0 - x_t does not depend on x_t, so dL/dx_t is
    # grad_at_clean itself, and both symplectic solvers must reach it at the tableau's order.
    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(
        mu=st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=2),
        x_t=st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=2),
        g=st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=2),
        t=st.integers(10, 50),
        theta=THETAS,
    )
    def test_gradient_falls_at_the_tableau_order(self, mu, x_t, g, t, theta):
        sch = build_linear_schedule(50, 1e-4, 0.02)
        mu, x_t, g = np.array(mu), np.array(x_t), np.array(g)
        assume(np.linalg.norm(x_t - math.sqrt(sch.alpha[t]) * mu) > 0.1 and np.linalg.norm(g) > 0.1)
        model = GmmModel([1.0], [mu])
        for name, (tableau, ns, low, high) in order_cases(theta).items():
            solver = symplectic_euler_grad if tableau.stages == 1 else symplectic_rk_grad
            trajs = [estimate_clean_rk(model, sch, x_t, t, n, tableau) for n in ns]
            errors = [np.linalg.norm(solver(model, traj, g, sch, t) - g) for traj in trajs]
            orders = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
            assert all(low <= p <= high for p in orders), (name, orders)


def _elementwise_check(x, tau, what):
    """The guard without its dot-product screen: the verdict the screen must keep."""
    if not np.isfinite(x).all():
        norm = estimator._finite_norm(x)
        raise DivergenceError(f"non-finite {what} at sub-step tau={tau} (finite-part norm {norm:.3e})")


def _outcome(check, x):
    try:
        check(x, 7, "state")
    except DivergenceError as err:
        return str(err)
    return None


# Entries that stress the screen: squares that overflow, subnormals, signed zeros, inf and NaN.
_SCREEN_VALUES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([1e160, -1e160, 1.4e154, 1e200, -1e300, 1.7976931348623157e308, -1e308]),
    st.sampled_from([5e-324, -5e-324, 2.2e-308, 0.0, -0.0, np.inf, -np.inf, np.nan]),
)


class TestFiniteScreen:
    """estimator._check_finite screens with x.dot(x) and must keep the elementwise verdict."""

    @settings(derandomize=True, deadline=None, max_examples=400)
    @given(
        values=st.lists(_SCREEN_VALUES, min_size=0, max_size=12),
        start=st.integers(0, 3),
        step=st.integers(1, 3),
    )
    @example(values=[1e200, -1e200], start=0, step=1)  # finite, but the squares overflow
    @example(values=[np.inf, -np.inf, 1.0], start=0, step=1)
    @example(values=[1e300, np.nan, 1e300], start=0, step=2)  # the view skips the NaN
    def test_same_verdict_and_text_as_the_elementwise_test(self, values, start, step):
        base = np.array(values, dtype=np.float64)
        for x in (base, base[start::step]):
            with np.errstate(over="ignore", invalid="ignore"):
                assert _outcome(estimator._check_finite, x) == _outcome(_elementwise_check, x)

    @settings(derandomize=True, deadline=None, max_examples=400)
    @given(values=st.lists(_SCREEN_VALUES, min_size=0, max_size=12))
    def test_finite_norm_does_not_overflow_or_underflow(self, values):
        # math.hypot scales as it sums too, so it is an independent reference in the whole range.
        x = np.array(values, dtype=np.float64)
        expected = math.hypot(*x[np.isfinite(x)].tolist())
        assert math.isclose(estimator._finite_norm(x), expected, rel_tol=1e-14)

    def test_finite_part_past_the_square_root_of_the_maximum_is_sized(self):
        # np.linalg.norm squares before it sums, so it sized this finite part as inf.
        with pytest.raises(DivergenceError) as info, np.errstate(over="ignore", invalid="ignore"):
            estimator._check_finite(np.array([1e200, np.nan]), 3)
        assert str(info.value) == "non-finite state at sub-step tau=3 (finite-part norm 1.000e+200)"

    def test_overflowing_squares_fall_back_end_to_end(self, schedule):
        # Finite states whose sums of squares overflow: a screen without the elementwise
        # fallback would call both of these divergent.
        x = np.array([1e200, -1e200])
        traj = estimate_clean(AffineModel.zero(2), schedule, x, 35, 4)
        assert np.isfinite(traj.states).all()
        assert np.array_equal(traj.clean_output, schedule.to_scaled(x, 35))
        assert 1.0e201 < traj.clean_output[0] < 1.1e201
        grad = symplectic_euler_grad(AffineModel.zero(2), traj, np.array([1e200, 1e200]), schedule, 35)
        assert np.array_equal(grad, schedule.to_scaled(np.array([1e200, 1e200]), 35))
        assert 1.0e201 < grad[0] < 1.1e201


class TestOneStep:
    def test_zero_model(self, schedule):
        x = np.array([1.0, -2.0])
        out = estimate_clean(AffineModel.zero(2), schedule, x, 25, 1).clean_output
        assert np.array_equal(out, schedule.to_scaled(x, 25))

    def test_frozen_scalar_example(self):
        # alpha_t = 0.25, x = [2], eps = [1] -> (2 - sqrt(0.75)) / 0.5
        sch = NoiseSchedule(np.array([1.0, 0.64, 0.25]))
        const_one = AffineModel(np.zeros((1, 1)), np.array([1.0]))
        out = estimate_clean(const_one, sch, np.array([2.0]), 2, 1).clean_output
        assert out == pytest.approx([2.267949192431123], rel=1e-12)

    def test_bitwise_consistent_with_n1_estimate(self, schedule, gmm2, mlp3):
        # The closed form x_bar - sigma_t * eps, written as the n = 1 Euler step from sigma_t to 0.
        rng = np.random.default_rng(2)
        for model in (gmm2, mlp3):
            for _ in range(100):
                x = rng.standard_normal(model.dim)
                t = int(rng.integers(1, schedule.num_steps + 1))
                x_bar, sigma_t = schedule.to_scaled(x, t), schedule.sigma(t)
                a = x_bar + (0.0 - sigma_t) * model.eps(x_bar, sigma_t)
                b = estimate_clean(model, schedule, x, t, 1).clean_output
                assert np.array_equal(a, b)


class TestErrorCurve:
    def test_zero_model_curve_is_zero(self, schedule):
        curve = estimation_error_curve(
            AffineModel.zero(2), schedule, 30, [1, 2, 4], 64, 50, seed=0
        )
        assert all(p.mean_error == 0.0 for p in curve)

    def test_affine_strictly_decreasing(self, schedule):
        A = np.array([[0.3, 0.05], [-0.02, 0.2]])
        curve = estimation_error_curve(AffineModel(A), schedule, 35, [1, 2, 4, 8], 64, 50, seed=1)
        errs = [p.mean_error for p in curve]
        assert all(errs[i + 1] < errs[i] for i in range(len(errs) - 1))

    def test_deterministic_per_seed(self, schedule, gmm2):
        a = estimation_error_curve(gmm2, schedule, 35, [1, 2], 16, 50, seed=3)
        b = estimation_error_curve(gmm2, schedule, 35, [1, 2], 16, 50, seed=3)
        assert [(p.n, p.mean_error, p.stderr) for p in a] == [
            (p.n, p.mean_error, p.stderr) for p in b
        ]

    def test_validation_errors(self, schedule, gmm2):
        with pytest.raises(ValueError, match=rf"^n must be in \[1, {sys.maxsize}\], got 0$"):
            estimation_error_curve(gmm2, schedule, 35, [0, 1], 16, 50, seed=0)
        with pytest.raises(ValueError, match="n_ref"):
            estimation_error_curve(gmm2, schedule, 35, [1, 2, 4], 16, 50, seed=0)
        with pytest.raises(ValueError, match="num_samples"):
            estimation_error_curve(gmm2, schedule, 35, [1, 2], 16, 10, seed=0)

    def test_empty_n_list_is_named_before_any_model_call(self, schedule, gmm2):
        model = CountingModel(gmm2)
        with pytest.raises(ValueError, match="^n_list must hold at least one n$"):
            estimation_error_curve(model, schedule, 35, [], 8, 50, seed=0)
        assert not any(model.calls.values())

    def test_overflowing_errors_are_a_divergence(self, schedule):
        # Each estimate is finite, but its distance to the reference overflows.
        model = AffineModel(-1e10 * np.eye(2))
        with pytest.raises(DivergenceError, match=r"non-finite M-curve point at n=1: "):
            estimation_error_curve(model, schedule, 35, [1, 2], 16, 50, seed=0)

    def test_csv_emission(self, schedule, gmm2, tmp_path):
        curve = estimation_error_curve(gmm2, schedule, 35, [1, 2], 16, 50, seed=3)
        report = ExperimentReport(
            kind="m_curve",
            columns=[],
            rows=[],
            curves={"m_curve": {
                "n": [p.n for p in curve],
                "mean_error": [p.mean_error for p in curve],
                "stderr": [p.stderr for p in curve],
            }},
            meta={"m_curve_samples": 50, "m_curve_seed": 3},
        )
        lines = report.write(tmp_path)["m_curve"].read_text().strip().split("\n")
        assert lines[0] == "n,mean_error,stderr,num_samples,seed"
        assert len(lines) == 3
        assert all(len(line.split(",")) == 5 for line in lines)
        for line, p in zip(lines[1:], curve):
            assert line.split(",") == [repr(p.n), repr(p.mean_error), repr(p.stderr), "50", "3"]


@pytest.mark.parametrize(
    "a, b, message",
    [
        # b[0] is so small that A[0][1] = b[1] a[1][0] / b[0] overflows in the division.
        ([[0.0, 0.0], [1e300, 0.0]], [1e-300, 1.0], "tableau field A must be finite"),
        # A is zero, but the residual's b_i b_j overflows and inf - inf is NaN.
        ([[0.0, 0.0], [0.0, 0.0]], [1e200, 1e200], "conjugacy condition violated: max residual nan"),
    ],
    ids=["A-overflows", "residual-overflows"],
)
def test_tableau_whose_derivation_overflows_is_rejected_without_a_warning(a, b, message):
    # Under -W error (pyproject.toml) an overflow warning would escape before the ValueError.
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ButcherTableau(a, b, [0.0, 1.0])
