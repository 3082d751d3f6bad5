import json
import math
import re
import sys
from fractions import Fraction

import numpy as np
import pytest

from conftest import TASK_BETAS, TASK_MEANS, TASK_T, TASK_TARGET, CountingModel
from symguide.estimator import MIN_ERROR_SAMPLES
from symguide.guidance import MAX_SIZE
from symguide.schedule import _count, _real
from symguide import (
    AffineModel,
    ButcherTableau,
    GmmModel,
    GramStyleLoss,
    GuidanceConfig,
    L2TargetLoss,
    MlpModel,
    NoiseSchedule,
    build_linear_schedule,
    conservation_probe,
    ddim_rollout,
    ddim_step,
    direct_backprop_grad,
    finite_diff_vjp,
    estimate_clean,
    estimate_clean_rk,
    estimation_error_curve,
    make_sub_schedule,
    rk_direct_backprop_grad,
    sag_sample,
    symplectic_euler_grad,
    symplectic_rk_grad,
    time_travel_renoise,
    vanilla_adjoint_grad,
)

# Cumulative product for T=1000, betas 1e-4..0.02, computed by an
# independent pure-python loop before the build.
ALPHA_1000_LAST = 4.0358297653756754e-05


def test_constant_beta_cumulative_product():
    sch = build_linear_schedule(2, 0.5, 0.5)
    assert np.allclose(sch.alpha, [1.0, 0.5, 0.25], rtol=0, atol=0)


def test_linear_schedule_frozen_value():
    sch = build_linear_schedule(1000, 1e-4, 0.02)
    assert sch.alpha[1000] == pytest.approx(ALPHA_1000_LAST, rel=1e-12)
    # independent oracle re-derivation
    a = 1.0
    for s in range(1, 1001):
        a *= 1.0 - (1e-4 + (s - 1) * (0.02 - 1e-4) / 999)
    assert sch.alpha[1000] == pytest.approx(a, rel=1e-12)


@pytest.mark.parametrize(
    "args",
    [
        (1, 0.1, 0.2),        # T too small
        (2, 0.5, 1.5),        # beta above 1
        (2, 0.0, 0.5),        # beta at 0
        (2, -0.1, 0.5),       # negative beta
        (10, 0.6, 0.5),       # min above max
    ],
)
def test_build_rejects_bad_arguments(args):
    with pytest.raises(ValueError):
        build_linear_schedule(*args)


def test_build_rejects_underflow():
    with pytest.raises(ValueError, match="underflow"):
        build_linear_schedule(5000, 0.5, 0.9)


def test_sigma_values():
    sch = NoiseSchedule(np.array([1.0, 0.5, 0.2]))
    assert sch.sigma(0) == 0.0
    assert sch.sigma(1) == pytest.approx(1.0, rel=1e-15)   # sqrt(0.5/0.5)
    assert sch.sigma(2) == pytest.approx(2.0, rel=1e-15)   # sqrt(0.8/0.2)


def test_sigma_rejects_out_of_range(schedule):
    with pytest.raises(ValueError):
        schedule.sigma(-1)
    with pytest.raises(ValueError):
        schedule.sigma(schedule.num_steps + 1)


def test_sigma_strictly_increasing(schedule):
    assert np.all(np.diff(schedule.sigmas) > 0)
    big = build_linear_schedule(1000, 1e-4, 0.02)
    assert np.all(np.diff(big.sigmas) > 0)


def test_to_scaled_divides_by_sqrt_alpha():
    sch = NoiseSchedule(np.array([1.0, 0.64, 0.25]))
    out = sch.to_scaled(np.array([2.0, -4.0]), 2)
    assert np.array_equal(out, [4.0, -8.0])


@pytest.mark.parametrize("alpha", [None, [1.0, 0.9, 0.7, 0.3, 0.05, 1e-4]])
def test_per_step_floats_equal_numpy_scalar_arithmetic(schedule, alpha):
    sch = schedule if alpha is None else NoiseSchedule(np.array(alpha))
    x = np.array([0.3, -1.7, 2.5])
    for t in range(sch.num_steps + 1):
        a_t = sch.alpha[t]
        assert sch.sigma(t).hex() == float(np.sqrt((1.0 - a_t) / a_t)).hex()
        assert sch.sqrt_alpha[t].hex() == float(np.sqrt(a_t)).hex()
        assert sch.to_scaled(x, t).tobytes() == (x / np.sqrt(a_t)).tobytes()


def test_to_scaled_identity_at_zero(schedule):
    x = np.array([1.3, -0.7, 2.9])
    assert np.array_equal(schedule.to_scaled(x, 0), x)


def test_scaled_round_trip(schedule):
    rng = np.random.default_rng(42)
    for d in [1, 2, 3, 7, 16, 64]:
        x = rng.standard_normal(d)
        t = int(rng.integers(0, schedule.num_steps + 1))
        back = schedule.to_scaled(x, t) * np.sqrt(schedule.alpha[t])
        assert np.abs(back - x).max() <= 1e-14 * max(1.0, np.abs(x).max())


@pytest.mark.parametrize(
    "alpha",
    [
        [0.9, 0.5, 0.25],          # alpha[0] != 1
        [1.0, 0.5, 0.5],           # not strictly decreasing
        [1.0, 0.5, -0.1],          # non-positive
        [1.0, 0.5, float("nan")],
        [1.0, 0.5, 1e-310, 1e-320],  # sigma overflows float64
        [1.0, 1.5, 0.5],           # above 1
    ],
)
def test_rejects_invalid_alpha(alpha):
    with pytest.raises(ValueError):
        NoiseSchedule(np.array(alpha))


def test_alpha_is_immutable(schedule):
    with pytest.raises(ValueError):
        schedule.alpha[0] = 0.5


def _mlp_eps(widths, layers=None):
    mlp = MlpModel.random(widths, 0) if layers is None else MlpModel(widths, layers)
    return mlp.eps(np.ones(2), 1.0)


# Two layers for widths [2, 3, 2]; the first also takes sigma.
MLP_LAYERS = [(np.full((3, 3), 0.1), np.zeros(3)), (np.full((2, 3), 0.1), np.zeros(2))]


HEUN = ButcherTableau.heun()


def _traj(model, schedule, tableau=ButcherTableau.euler()):
    return estimate_clean_rk(model.inner, schedule, np.ones(2), 35, 4, tableau)


def _curve(model, schedule, n, n_ref, num_samples, seed=0):
    points = estimation_error_curve(model, schedule, 35, [n], n_ref, num_samples, seed)
    return [(p.mean_error, p.stderr) for p in points]


def _sample(model, schedule, seed):
    # The record as JSON: a numpy seed must be recorded as the int it equals.
    config = GuidanceConfig(window=(15, 35), rho=0.1, n_steps=2)
    return json.dumps(sag_sample(model, schedule, L2TargetLoss(TASK_TARGET), config, seed).to_json_dict())


MAX = sys.maxsize

# Every count, step index and seed of the public API: a call that puts v in that one
# argument, on a model m and the task schedule, the value it runs with, and the bounds
# [least, most] the argument must lie in.
INTEGER_ARGUMENTS = {
    "sigma t": (lambda m, sch, v: sch.sigma(v), 35, 0, TASK_T),
    "to_scaled t": (lambda m, sch, v: sch.to_scaled(np.ones(2), v), 35, 0, TASK_T),
    "make_sub_schedule t": (lambda m, sch, v: make_sub_schedule(sch, v, 4), 35, 1, TASK_T),
    "make_sub_schedule n": (lambda m, sch, v: make_sub_schedule(sch, 35, v), 4, 1, MAX),
    "build_linear_schedule T": (lambda m, sch, v: build_linear_schedule(v, *TASK_BETAS).alpha, TASK_T, 2, MAX),
    "MlpModel.random width": (lambda m, sch, v: _mlp_eps([2, v, 2]), 8, 1, MAX),
    "MlpModel.random seed": (lambda m, sch, v: MlpModel.random([2, 3, 2], v).eps(np.ones(2), 1.0), 5, 0, MAX),
    "MlpModel width": (lambda m, sch, v: _mlp_eps([2, v, 2], MLP_LAYERS), 3, 1, MAX),
    "AffineModel.zero dim": (lambda m, sch, v: AffineModel.zero(v).matrix, 2, 1, MAX),
    "GmmModel.sample_marginal t": (
        lambda m, sch, v: m.inner.sample_marginal(np.random.default_rng(0), sch, v, 50), 35, 0, TASK_T
    ),
    "GmmModel.sample_marginal size": (
        lambda m, sch, v: m.inner.sample_marginal(np.random.default_rng(0), sch, 35, v), 50, 0, MAX
    ),
    "GuidanceConfig window step": (lambda m, sch, v: GuidanceConfig(window=(v, 35), rho=0.1).window, 15, 1, MAX),
    "GuidanceConfig repeats": (
        lambda m, sch, v: GuidanceConfig(window=(15, 35), rho=0.1, repeats=v).repeats, 2, 1, MAX_SIZE
    ),
    "GuidanceConfig n_steps": (
        lambda m, sch, v: GuidanceConfig(window=(15, 35), rho=0.1, n_steps=v).n_steps, 4, 1, MAX_SIZE
    ),
    "ddim_step t": (lambda m, sch, v: ddim_step(m, sch, np.ones(2), v), 35, 1, TASK_T),
    "ddim_rollout seed": (lambda m, sch, v: ddim_rollout(m, sch, v), 3, 0, MAX),
    "sag_sample seed": (lambda m, sch, v: _sample(m, sch, v), 3, 0, MAX),
    "time_travel_renoise t": (
        lambda m, sch, v: time_travel_renoise(np.ones(2), sch, v, np.random.default_rng(0)), 35, 1, TASK_T
    ),
    "estimate_clean t": (lambda m, sch, v: estimate_clean(m, sch, np.ones(2), v, 4).states, 35, 1, TASK_T),
    "estimate_clean n": (lambda m, sch, v: estimate_clean(m, sch, np.ones(2), 35, v).states, 4, 1, MAX),
    "estimation_error_curve n": (lambda m, sch, v: _curve(m, sch, v, 8, 50), 1, 1, MAX),
    "estimation_error_curve n_ref": (lambda m, sch, v: _curve(m, sch, 1, v, 50), 8, 0, MAX),
    "estimation_error_curve num_samples": (lambda m, sch, v: _curve(m, sch, 1, 8, v), 50, MIN_ERROR_SAMPLES, MAX),
    "estimation_error_curve seed": (lambda m, sch, v: _curve(m, sch, 1, 8, 50, v), 3, 0, MAX),
    "symplectic_euler_grad t": (
        lambda m, sch, v: symplectic_euler_grad(m, _traj(m, sch), np.ones(2), sch, v), 35, 0, TASK_T
    ),
    "symplectic_rk_grad t": (
        lambda m, sch, v: symplectic_rk_grad(m, _traj(m, sch, HEUN), np.ones(2), sch, v), 35, 0, TASK_T
    ),
    "direct_backprop_grad t": (
        lambda m, sch, v: direct_backprop_grad(m, _traj(m, sch), np.ones(2), sch, v), 35, 0, TASK_T
    ),
    "rk_direct_backprop_grad t": (
        lambda m, sch, v: rk_direct_backprop_grad(m, _traj(m, sch, HEUN), np.ones(2), sch, v), 35, 0, TASK_T
    ),
    "vanilla_adjoint_grad t": (
        lambda m, sch, v: vanilla_adjoint_grad(m, np.ones(2), np.ones(2), sch, v, 4), 35, 1, TASK_T
    ),
    "vanilla_adjoint_grad n_back": (
        lambda m, sch, v: vanilla_adjoint_grad(m, np.ones(2), np.ones(2), sch, 35, v), 4, 1, MAX
    ),
}


@pytest.mark.parametrize("value", [2.5, True, "3", None])
@pytest.mark.parametrize("argument", sorted(INTEGER_ARGUMENTS))
def test_non_integer_count_is_rejected_before_any_model_call(schedule, gmm2, argument, value):
    # A fraction is never truncated, a bool never counts as 1, a string is never parsed.
    model = CountingModel(gmm2)
    with pytest.raises(ValueError, match=rf"must be an integer, got {re.escape(repr(value))}$"):
        INTEGER_ARGUMENTS[argument][0](model, schedule, value)
    assert model.calls == dict.fromkeys(model.calls, 0)


@pytest.mark.parametrize("side", ["least - 1", "most + 1"])
@pytest.mark.parametrize("argument", sorted(INTEGER_ARGUMENTS))
def test_count_out_of_range_is_rejected_before_any_model_call(schedule, gmm2, argument, side):
    # Each bound is one argument to schedule._count: a width of 0 never reaches 1/sqrt(fan_in),
    # a negative size or seed never reaches numpy, and a step index past T is never looked up.
    call, _, least, most = INTEGER_ARGUMENTS[argument]
    value = least - 1 if side == "least - 1" else most + 1
    model = CountingModel(gmm2)
    with pytest.raises(ValueError, match=rf"must be in \[{least}, {most}\], got {value}$"):
        call(model, schedule, value)
    assert model.calls == dict.fromkeys(model.calls, 0)


@pytest.mark.parametrize("argument", sorted(INTEGER_ARGUMENTS))
def test_numpy_integer_count_gives_the_same_bits(schedule, gmm2, argument):
    call, value, _, _ = INTEGER_ARGUMENTS[argument]
    model = CountingModel(gmm2)
    expected = np.asarray(call(model, schedule, value))
    for numpy_value in (np.int64(value), np.int32(value)):
        got = np.asarray(call(model, schedule, numpy_value))
        assert (got.dtype, got.shape, got.tobytes()) == (expected.dtype, expected.shape, expected.tobytes())


REAL_ARGUMENTS = {
    "beta_min": lambda v: build_linear_schedule(TASK_T, v, TASK_BETAS[1]).alpha,
    "beta_max": lambda v: build_linear_schedule(TASK_T, TASK_BETAS[0], v).alpha,
    "rho": lambda v: GuidanceConfig(window=(1, 5), rho=v).rho_at(3),
    "h": lambda v: finite_diff_vjp(
        AffineModel(np.eye(2)), np.ones(2), build_linear_schedule(TASK_T, *TASK_BETAS), 35, np.ones(2), v
    ),
}


@pytest.mark.parametrize(
    "value",
    [
        True, np.bool_(True), "0.1", None, math.nan, math.inf, np.float32("inf"), np.float16("nan"), 10**400,
        Fraction(10**400), Fraction(-(10**400), 3),
    ],
)
@pytest.mark.parametrize("name", sorted(REAL_ARGUMENTS))
def test_non_real_parameter_is_rejected(name, value):
    # rho=True guided at strength 1.0, and float("0.004") parsed a string.  A numpy float is bounded
    # as the float64 it converts to, since the bound overflows in float16 or float32, and an int or
    # a Fraction exactly, so 10**400 fails the bound rather than overflowing float().
    with pytest.raises(ValueError, match=rf"^{name} must be a finite number, got {re.escape(repr(value))}$"):
        REAL_ARGUMENTS[name](value)


def test_fraction_converts_to_its_nearest_float():
    assert _real(Fraction(1, 3), "rho").hex() == (1 / 3).hex()


# Each check handed a number too long for repr (Python's int-to-string limit is 4300 digits),
# and how its message shows the number.
TOO_LONG_FOR_REPR = {
    "rho": (lambda: REAL_ARGUMENTS["rho"](10**5000), "an integer of 16610 bits"),
    "n": (lambda: _count(10**5000, "n", 1, 10), "an integer of 16610 bits"),
    "seed": (lambda: _count(-10**5000, "seed"), "an integer of 16610 bits"),
    "window step": (lambda: GuidanceConfig(window=(1, 10**5000), rho=0.1), "an integer of 16610 bits"),
    "size": (lambda: _count(Fraction(10**5000), "size"), "a Fraction too long to print"),
}


@pytest.mark.parametrize("what", sorted(TOO_LONG_FOR_REPR))
def test_a_number_too_long_for_repr_keeps_its_message(what):
    call, shown = TOO_LONG_FOR_REPR[what]
    with pytest.raises(ValueError, match=rf"^{what} must be .*, got {shown}$"):
        call()


@pytest.mark.parametrize("kind", [np.float64, np.float32, np.float16])
@pytest.mark.parametrize("name", sorted(REAL_ARGUMENTS))
def test_numpy_real_parameter_gives_the_same_bits(name, kind):
    value = kind({"beta_min": 0.004, "beta_max": 0.35, "rho": 0.1, "h": 1e-3}[name])
    expected = np.asarray(REAL_ARGUMENTS[name](float(value)))
    got = np.asarray(REAL_ARGUMENTS[name](value))
    assert (got.dtype, got.tobytes()) == (expected.dtype, expected.tobytes())


X_BAR = np.array([0.3, -0.7])


def _model_methods(name, model):
    """The vector arguments of one model's methods: a call that puts v in that argument, and its name."""
    calls = {
        "eps x": (lambda m, sch, v: model.eps(v, 0.7), "x"),
        "eps_with_tape x": (lambda m, sch, v: model.eps_with_tape(v, 0.7)[0], "x"),
        "vjp v": (lambda m, sch, v: model.vjp(X_BAR, 0.7, v), "v"),
        "vjp_from_tape v": (lambda m, sch, v: model.vjp_from_tape(model.eps_with_tape(X_BAR, 0.7)[1], v), "v"),
        "vjp x": (lambda m, sch, v: model.vjp(v, 0.7, X_BAR), "x"),
        "vjp_from_tape x": (lambda m, sch, v: model.vjp_from_tape(model.eps_with_tape(v, 0.7)[1], X_BAR), "x"),
    }
    return {f"{name}.{key}": call for key, call in calls.items()}


# Every state-sized input of the public API, on a model m of dimension 2 and the task
# schedule: a call that puts v in that one input, and the name its message gives it.
VECTOR_ARGUMENTS = {
    "ddim_step x_t": (lambda m, sch, v: ddim_step(m, sch, v, 35), "x_t"),
    "estimate_clean x_t": (lambda m, sch, v: estimate_clean(m, sch, v, 35, 4).states, "x_t"),
    "estimate_clean_rk x_t": (lambda m, sch, v: estimate_clean_rk(m, sch, v, 35, 4, HEUN).states, "x_t"),
    "symplectic_euler_grad grad_at_clean": (
        lambda m, sch, v: symplectic_euler_grad(m, _traj(m, sch), v, sch, 35), "grad_at_clean"
    ),
    "direct_backprop_grad grad_at_clean": (
        lambda m, sch, v: direct_backprop_grad(m, _traj(m, sch), v, sch, 35), "grad_at_clean"
    ),
    "symplectic_rk_grad grad_at_clean": (
        lambda m, sch, v: symplectic_rk_grad(m, _traj(m, sch, HEUN), v, sch, 35), "grad_at_clean"
    ),
    "rk_direct_backprop_grad grad_at_clean": (
        lambda m, sch, v: rk_direct_backprop_grad(m, _traj(m, sch, HEUN), v, sch, 35), "grad_at_clean"
    ),
    "vanilla_adjoint_grad grad_at_clean": (
        lambda m, sch, v: vanilla_adjoint_grad(m, np.ones(2), v, sch, 35, 4), "grad_at_clean"
    ),
    "vanilla_adjoint_grad x_clean": (
        lambda m, sch, v: vanilla_adjoint_grad(m, v, np.ones(2), sch, 35, 4), "x_clean"
    ),
    "conservation_probe v0": (lambda m, sch, v: conservation_probe(m, _traj(m, sch, HEUN), v, np.ones(2)), "v0"),
    "conservation_probe lambda0": (
        lambda m, sch, v: conservation_probe(m, _traj(m, sch, HEUN), np.ones(2), v), "lambda0"
    ),
    "AffineModel offset": (lambda m, sch, v: AffineModel(np.eye(2), v).offset, "offset"),
    "L2TargetLoss.value x0": (lambda m, sch, v: L2TargetLoss(TASK_TARGET).value(v), "x0"),
    "L2TargetLoss.grad x0": (lambda m, sch, v: L2TargetLoss(TASK_TARGET).grad(v), "x0"),
    "GramStyleLoss.value x0": (lambda m, sch, v: GramStyleLoss([[1.0]], [[1.0, 2.0], [0.5, -1.0]]).value(v), "x0"),
    "GramStyleLoss.grad x0": (lambda m, sch, v: GramStyleLoss([[1.0]], [[1.0, 2.0], [0.5, -1.0]]).grad(v), "x0"),
    "finite_diff_vjp x": (lambda m, sch, v: finite_diff_vjp(m, v, sch, 35, np.ones(2), 1e-3), "x"),
    "finite_diff_vjp v": (lambda m, sch, v: finite_diff_vjp(m, np.ones(2), sch, 35, v, 1e-3), "v"),
    **_model_methods("GmmModel", GmmModel([0.5, 0.5], TASK_MEANS)),
    **_model_methods("MlpModel", MlpModel.random([2, 8, 2], seed=0)),
    **_model_methods("AffineModel", AffineModel(np.array([[0.5, -1.0], [0.25, 2.0]]), np.array([0.1, -0.2]))),
}


# Each model family, built fresh for each test so that no GmmModel memo entry carries over, and
# each method that takes sigma, called at X_BAR with sigma s.
SIGMA_MODELS = {
    "GmmModel": lambda: GmmModel([0.5, 0.5], TASK_MEANS),
    "MlpModel": lambda: MlpModel.random([2, 8, 2], seed=0),
    "AffineModel": lambda: AffineModel(np.array([[0.5, -1.0], [0.25, 2.0]]), np.array([0.1, -0.2])),
}
SIGMA_METHODS = {
    "eps": lambda m, s: m.eps(X_BAR, s),
    "vjp": lambda m, s: m.vjp(X_BAR, s, np.array([1.0, -2.0])),
    "eps_with_tape": lambda m, s: m.eps_with_tape(X_BAR, s)[0],
    "vjp_from_tape": lambda m, s: m.vjp_from_tape(m.eps_with_tape(X_BAR, s)[1], np.array([1.0, -2.0])),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, True, "2.5", None])
@pytest.mark.parametrize("method", sorted(SIGMA_METHODS))
@pytest.mark.parametrize("family", sorted(SIGMA_MODELS))
def test_malformed_sigma_is_rejected(family, method, value):
    # No NaN or inf sigma reaches the arithmetic to return [nan nan]; True and "2.5" are not 1.0 and 2.5.
    with pytest.raises(ValueError, match=rf"^sigma must be a finite number, got {re.escape(repr(value))}$"):
        SIGMA_METHODS[method](SIGMA_MODELS[family](), value)


@pytest.mark.parametrize("value", [0.7, np.float64(0.7), np.float32(0.7), 3, np.int64(3), -0.0], ids=repr)
@pytest.mark.parametrize("method", sorted(SIGMA_METHODS))
@pytest.mark.parametrize("family", sorted(SIGMA_MODELS))
def test_real_sigma_gives_the_bits_of_its_float_value(family, method, value):
    # Every family computes in float64, also at a float32 sigma.
    call, make = SIGMA_METHODS[method], SIGMA_MODELS[family]
    assert call(make(), value).tobytes() == call(make(), float(value)).tobytes()


def test_negative_zero_sigma_keeps_its_sign():
    # The MLP's input feature; TestGmmMemo checks that a mixture gives -0.0 and 0.0 their own bits.
    mlp_input = SIGMA_MODELS["MlpModel"]().eps_with_tape(X_BAR, -0.0)[1][0]
    assert math.copysign(1.0, mlp_input[-1]) == -1.0


@pytest.mark.parametrize("value", [1.0, np.ones(1), np.ones((2, 1))], ids=["scalar", "short", "column"])
@pytest.mark.parametrize("argument", sorted(VECTOR_ARGUMENTS))
def test_misshapen_vector_is_rejected_before_any_model_call(schedule, gmm2, argument, value):
    # A state is a (d,) vector: a scalar, a shorter vector or a (d, 1) column is never broadcast.
    call, what = VECTOR_ARGUMENTS[argument]
    model = CountingModel(gmm2)
    shape = re.escape(str(np.shape(value)))
    with pytest.raises(ValueError, match=rf"^{what} has shape {shape}, expected \(2,\)$"):
        call(model, schedule, value)
    assert model.calls == dict.fromkeys(model.calls, 0)


@pytest.mark.parametrize("argument", sorted(VECTOR_ARGUMENTS))
def test_list_vector_gives_the_same_bits(schedule, gmm2, argument):
    call = VECTOR_ARGUMENTS[argument][0]
    model = CountingModel(gmm2)
    expected = np.asarray(call(model, schedule, np.array([0.4, -1.2])))
    got = np.asarray(call(model, schedule, [0.4, -1.2]))
    assert (got.dtype, got.shape, got.tobytes()) == (expected.dtype, expected.shape, expected.tobytes())


GUIDED = GuidanceConfig(window=(15, 35), rho=0.01, n_steps=2)


def _with_entry(valid, bad):
    """A float64 copy of valid whose last entry is bad."""
    out = np.array(valid, dtype=np.float64)
    out.flat[-1] = bad
    return out


# Every array a constructor keeps: a call that builds the object with v in that one argument and
# would then run the model m, the valid value v replaces, and the name its message gives it.
ARRAY_ARGUMENTS = {
    "NoiseSchedule alpha": (
        lambda m, sch, v: ddim_step(m, NoiseSchedule(v), np.ones(2), 2), [1.0, 0.5, 0.25], "alpha"
    ),
    "ButcherTableau a": (
        lambda m, sch, v: estimate_clean_rk(m, sch, np.ones(2), 35, 4, ButcherTableau(v, HEUN.b, HEUN.c)),
        HEUN.a, "tableau field a",
    ),
    "ButcherTableau b": (
        lambda m, sch, v: estimate_clean_rk(m, sch, np.ones(2), 35, 4, ButcherTableau(HEUN.a, v, HEUN.c)),
        HEUN.b, "tableau field b",
    ),
    "ButcherTableau c": (
        lambda m, sch, v: estimate_clean_rk(m, sch, np.ones(2), 35, 4, ButcherTableau(HEUN.a, HEUN.b, v)),
        HEUN.c, "tableau field c",
    ),
    "L2TargetLoss target": (
        lambda m, sch, v: sag_sample(m, sch, L2TargetLoss(v), GUIDED, 0), TASK_TARGET, "target"
    ),
    "GramStyleLoss target_gram": (
        lambda m, sch, v: sag_sample(m, sch, GramStyleLoss(v, np.eye(2)), GUIDED, 0), [[1.0]], "target Gram matrix"
    ),
    "GramStyleLoss feature_map": (
        lambda m, sch, v: sag_sample(m, sch, GramStyleLoss([[1.0]], v), GUIDED, 0), np.eye(2), "feature map"
    ),
    "GmmModel weights": (lambda m, sch, v: GmmModel(v, TASK_MEANS), [0.5, 0.5], "mixture weights"),
    "GmmModel means": (lambda m, sch, v: GmmModel([0.5, 0.5], v), TASK_MEANS, "mixture means"),
    "MlpModel W": (
        lambda m, sch, v: MlpModel([2, 3, 2], [(v, MLP_LAYERS[0][1]), MLP_LAYERS[1]]), MLP_LAYERS[0][0], "layer 0 W"
    ),
    "MlpModel b": (
        lambda m, sch, v: MlpModel([2, 3, 2], [MLP_LAYERS[0], (MLP_LAYERS[1][0], v)]), MLP_LAYERS[1][1], "layer 1 b"
    ),
    "AffineModel matrix": (lambda m, sch, v: AffineModel(v), np.eye(2), "matrix"),
    "AffineModel offset": (lambda m, sch, v: AffineModel(np.eye(2), v), [0.1, -0.2], "offset"),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("argument", sorted(ARRAY_ARGUMENTS))
def test_non_finite_array_is_rejected_before_any_model_call(schedule, gmm2, argument, bad):
    # schedule._frozen checks every array an object keeps: a NaN abscissa c used to reach the model.
    call, valid, what = ARRAY_ARGUMENTS[argument]
    model = CountingModel(gmm2)
    call(model, schedule, valid)
    model.calls = dict.fromkeys(model.calls, 0)
    with pytest.raises(ValueError, match=rf"^{what} must be finite$"):
        call(model, schedule, _with_entry(valid, bad))
    assert model.calls == dict.fromkeys(model.calls, 0)
