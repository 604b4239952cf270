import warnings

import mpmath as mp
import numpy as np
import pytest

from lshapearc.families import build_adjusted
from lshapearc.fold import (
    CORNER_ANGLE,
    fold_closed_form,
    fold_oracle,
    fold_prime,
    fold_sister,
    unfold,
)


def test_fixed_points():
    # the corner is a point of test_oracle_against_mpmath; pi itself is not
    assert fold_closed_form(np.pi) == 0.0


def _mp_sister(x, seed):
    # 50-digit root y near seed of the defining relation divided by its
    # trivial factor 2 sin((y - x)/2), which is symmetric in x and y; the
    # solvers under test only seed the secant steps
    with mp.workdps(50):
        xm = mp.mpf(float(x))
        return mp.findroot(lambda y: mp.cos((y + xm) / 2) - mp.cos(y + xm) * mp.cos((y - xm) / 2), mp.mpf(seed))


def test_oracle_against_mpmath():
    # t spaced geometrically toward both ends of [2pi/3, pi], densely at
    # pi - t in [1e-7, 1e-4], where cos^2(t/2) formed as 1 - sin^2(t/2)
    # cancels, and at 1e-4..1e-2 above the corner, where a Newton step on
    # the flat profile amplifies rounding (2.095479478555677 is a raw
    # n = 6759 angle there), and pi - 8.1e-12, where a bracketing solver
    # stopped at xtol 1e-14 was off by 4.7e-13; j toward both ends of
    # [0, 2pi/3], at 1e-4..1e-2 below the corner, and at the unfold targets
    # of adjusted families, which crowd toward the corner
    ends = np.geomspace(1e-15, 0.5, 49)
    pi_side = np.pi - np.geomspace(1e-7, 1e-4, 100)
    corner_side = np.geomspace(1e-4, 1e-2, 50)
    ts = np.concatenate([[CORNER_ANGLE], CORNER_ANGLE + ends, np.pi - ends, [np.nextafter(np.pi, 0.0)], pi_side,
                         CORNER_ANGLE + corner_side, [2.095479478555677, np.pi - 8.1e-12]])
    oracle = fold_oracle(ts)
    for t, jo in zip(ts, oracle):
        ref = _mp_sister(t, fold_closed_form(t))
        assert jo == fold_oracle(t) and fold_oracle(-t) == -jo
        assert abs(jo - ref) < 1e-14, t
        assert abs(fold_closed_form(t) - ref) < 1e-14, t
    assert fold_oracle(np.pi) == 0.0  # float pi stands for exact pi
    fams = [build_adjusted(n) for n in (32, 1000, 3826, 7804)]
    js = np.concatenate([[0.0, CORNER_ANGLE], ends, CORNER_ANGLE - ends, CORNER_ANGLE - corner_side]
                        + [f.folded[[k for k, _ in f.adjusted_pairs]] for f in fams])
    for j, t in zip(js, unfold(js)):
        assert abs(t - _mp_sister(j, t)) < 1e-14, j


def test_round_trip():
    # geometric toward both ends of [2pi/3, pi], densely at t - 2pi/3 in
    # [1e-6, 2.3e-6], where a solver that matches profiles loses half its
    # digits, and at [5e-4, 5e-3], where a Newton step on the flat profile
    # amplifies rounding
    d = np.concatenate([np.geomspace(1e-9, 0.5, 60), np.geomspace(1e-6, 2.3e-6, 100), np.geomspace(5e-4, 5e-3, 100)])
    t = np.concatenate([CORNER_ANGLE + d, np.pi - d[:60]])
    js = np.append(np.outer([1.0, -1.0, 0.5], fold_closed_form(t)), [0.0, CORNER_ANGLE])
    ts = unfold(js)
    assert np.all(ts == [unfold(float(x)) for x in js])
    assert np.all(np.abs(ts[: 2 * t.size] - np.concatenate([t, -t])) < 1e-14)


def test_round_trip_near_corner():  # where the profile is quadratically flat
    t = CORNER_ANGLE + 10.0 ** -np.arange(6.0, 10.0)
    ts = unfold(fold_closed_form(t))
    assert np.all(ts == [unfold(fold_closed_form(x)) for x in t])
    assert np.all(np.abs(ts - t) < 1e-14)


def test_unfold_values():
    assert abs(unfold(0.760171) - 32.0 * np.pi / 33.0) < 1e-5
    assert unfold(0.0) == unfold(-0.0) == np.pi
    assert unfold(CORNER_ANGLE) == CORNER_ANGLE and unfold(-CORNER_ANGLE) == -CORNER_ANGLE
    js = np.array([1e-7, 0.5, 1.5, CORNER_ANGLE - 1e-6])
    assert np.all(unfold(-js) == -unfold(js))
    assert unfold(js.reshape(4, 1)).shape == (4, 1)


def test_fold_prime_endpoints():
    assert fold_prime(CORNER_ANGLE) == -1.0
    assert fold_prime(np.pi) == -np.inf
    # the range check's slack: t is clamped onto [2pi/3, pi], not evaluated outside it
    assert fold_prime(CORNER_ANGLE - 5e-10) == -1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert fold_prime(np.pi + 5e-10) == -np.inf
        # an array keeps the end rules, and each value is that of its scalar call
        t = np.array([CORNER_ANGLE, 0.8 * np.pi, np.pi, 0.9 * np.pi])
        assert np.array_equal(fold_prime(t), [fold_prime(x) for x in t])
        assert fold_prime(t.reshape(2, 2)).shape == (2, 2)


def test_fold_prime_bound_and_fd():
    # the bound J' < -1 is the invariant check fold_derivative_bound
    t = 0.9 * np.pi
    h = 1e-6
    fd = (fold_closed_form(t + h) - fold_closed_form(t - h)) / (2.0 * h)
    assert abs(fold_prime(t) - fd) / abs(fd) < 1e-5


def test_fold_prime_near_pi_asymptote():
    eps = 1e-4
    approx = -(4.0 ** (1.0 / 3.0)) / 3.0 * eps ** (-2.0 / 3.0)
    assert abs(fold_prime(np.pi - eps) / approx - 1.0) < 1e-2


def test_domain_errors():
    with pytest.raises(ValueError):
        fold_closed_form(0.5)
    with pytest.raises(ValueError):
        fold_oracle(0.5)
    with pytest.raises(ValueError):
        unfold(2.5)
    with pytest.raises(ValueError):
        fold_prime(0.5)


def test_fold_sister():
    t = 0.9 * np.pi
    assert fold_sister(t) == fold_closed_form(t)
    j = 0.4
    assert fold_sister(j) == unfold(j)
    assert abs(fold_sister(fold_sister(0.4)) - 0.4) < 1e-10


def test_fold_sister_of_an_array_is_its_scalar_calls():
    rng = np.random.default_rng(20221020)
    t = np.concatenate([[CORNER_ANGLE, -CORNER_ANGLE, 0.0, np.pi, -np.pi], rng.uniform(-np.pi, np.pi, 200)])
    out = fold_sister(t)
    assert isinstance(out, np.ndarray) and out.shape == t.shape
    assert np.array_equal(out, [fold_sister(float(x)) for x in t])
