import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import TASK_BETAS, TASK_T, NanModel, rel_err
from symguide import (
    AffineModel,
    DivergenceError,
    ExperimentReport,
    GmmModel,
    NoiseSchedule,
    build_linear_schedule,
    estimate_clean,
    estimation_error_curve,
    make_sub_schedule,
    one_step_estimate,
)


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


class TestOneStep:
    def test_zero_model(self, schedule):
        x = np.array([1.0, -2.0])
        out = one_step_estimate(AffineModel.zero(2), schedule, x, 25)
        assert np.array_equal(out, schedule.to_scaled(x, 25))

    def test_frozen_scalar_example(self):
        # alpha_t = 0.25, x = [2], eps = [1] -> (2 - sqrt(0.75)) / 0.5
        sch = NoiseSchedule(np.array([1.0, 0.64, 0.25]))
        const_one = AffineModel(np.zeros((1, 1)), np.array([1.0]))
        out = one_step_estimate(const_one, sch, np.array([2.0]), 2)
        assert out == pytest.approx([2.267949192431123], rel=1e-12)

    def test_bitwise_consistent_with_n1_estimate(self, schedule, gmm2, mlp3):
        rng = np.random.default_rng(2)
        for model in (gmm2, mlp3):
            for _ in range(100):
                x = rng.standard_normal(model.dim)
                t = int(rng.integers(1, schedule.num_steps + 1))
                a = one_step_estimate(model, schedule, x, t)
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
        with pytest.raises(ValueError, match="n_ref"):
            estimation_error_curve(gmm2, schedule, 35, [1, 2, 4], 16, 50, seed=0)
        with pytest.raises(ValueError, match="num_samples"):
            estimation_error_curve(gmm2, schedule, 35, [1, 2], 16, 10, seed=0)

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
