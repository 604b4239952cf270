import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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


def test_oracle_against_mpmath():
    # 50-digit roots of the defining relation divided by its trivial factor
    # 2 sin((j - t)/2), at points spaced geometrically toward both ends of
    # [2pi/3, pi], and densely where the closed form hands over to its
    # near-pi branch; the closed form only seeds the secant steps
    ends = np.geomspace(1e-15, 0.5, 49)
    handover = np.pi - np.geomspace(1e-7, 1e-4, 100)
    ts = np.concatenate([[CORNER_ANGLE], CORNER_ANGLE + ends, np.pi - ends, [np.nextafter(np.pi, 0.0)], handover])
    with mp.workdps(50):
        for t in ts:
            tm = mp.mpf(float(t))
            ref = mp.findroot(lambda j: mp.cos((j + tm) / 2) - mp.cos(j + tm) * mp.cos((j - tm) / 2),
                              mp.mpf(fold_closed_form(t)))
            assert abs(fold_oracle(t) - ref) < 1e-11, t
            assert abs(fold_closed_form(t) - ref) < 1e-12, t
    assert fold_oracle(np.pi) == 0.0  # float pi stands for exact pi


@settings(deadline=None, max_examples=150)
@given(st.floats(min_value=CORNER_ANGLE + 1e-6, max_value=np.pi - 1e-9))
def test_round_trip(t):
    assert abs(unfold(fold_closed_form(t)) - t) < 1e-10
    js = np.array([fold_closed_form(t), -fold_closed_form(t), 0.5 * fold_closed_form(t)])
    ts = unfold(js)
    assert isinstance(ts, np.ndarray) and ts.shape == js.shape
    assert np.all(ts == [unfold(float(j)) for j in js])
    assert np.all(np.abs(unfold(fold_closed_form(np.array([t, -t]))) - [t, -t]) < 1e-10)


def test_round_trip_near_corner():
    # the matched profile is quadratically flat at the corner, so the
    # achievable round-trip accuracy there is ~sqrt(eps), not eps
    for d in (1e-9, 1e-8, 1e-7, 1e-6):
        t = CORNER_ANGLE + d
        assert abs(unfold(fold_closed_form(t)) - t) < 5e-8


def test_unfold_values():
    assert unfold(CORNER_ANGLE) == pytest.approx(CORNER_ANGLE, abs=1e-9)
    assert unfold(0.0) == pytest.approx(np.pi, abs=1e-12)
    assert abs(unfold(0.760171) - 32.0 * np.pi / 33.0) < 1e-5
    assert unfold(-0.5) == -unfold(0.5)

    js = np.array([0.0, 1e-7, 0.5, 0.760171, 1.5, CORNER_ANGLE - 1e-6, CORNER_ANGLE])
    ts = unfold(js)
    assert np.all(ts == [unfold(float(j)) for j in js])
    assert np.all(unfold(-js)[1:] == -ts[1:])
    assert unfold(-0.0) == np.pi
    assert unfold(CORNER_ANGLE) == CORNER_ANGLE
    assert ts[-1] == CORNER_ANGLE and unfold(-js)[-1] == -CORNER_ANGLE
    assert unfold(js.reshape(7, 1)).shape == (7, 1)


def test_fold_prime_endpoints():
    assert fold_prime(CORNER_ANGLE) == -1.0
    assert fold_prime(np.pi) == -np.inf


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
