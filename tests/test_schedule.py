import math

import numpy as np
import pytest

from symguide import NoiseSchedule, build_linear_schedule

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
        assert sch.sqrt_one_minus_alpha[t].hex() == math.sqrt(1.0 - a_t).hex()
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
    ],
)
def test_rejects_invalid_alpha(alpha):
    with pytest.raises(ValueError):
        NoiseSchedule(np.array(alpha))


def test_alpha_is_immutable(schedule):
    with pytest.raises(ValueError):
        schedule.alpha[0] = 0.5
