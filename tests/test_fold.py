import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lshapearc.conformal import psi
from lshapearc.fold import (
    CORNER_ANGLE,
    fold_closed_form,
    fold_oracle,
    fold_prime,
    fold_sister,
    unfold,
)

T_RANGE = st.floats(min_value=CORNER_ANGLE, max_value=np.pi)


def test_fixed_points():
    assert fold_closed_form(CORNER_ANGLE) == pytest.approx(CORNER_ANGLE, abs=1e-12)
    assert fold_closed_form(np.pi) == 0.0
    assert fold_oracle(CORNER_ANGLE) == pytest.approx(CORNER_ANGLE, abs=1e-7)
    assert fold_oracle(np.pi) == 0.0


def test_printed_value():
    assert abs(fold_closed_form(32.0 * np.pi / 33.0) - 0.760171) < 5e-6


def test_near_pi_asymptote():
    eps = 1e-3
    approx = 4.0 ** (1.0 / 3.0) * eps ** (1.0 / 3.0) + eps / 3.0
    assert abs(fold_closed_form(np.pi - eps) - approx) < 1e-4


@settings(deadline=None, max_examples=300)
@given(T_RANGE)
def test_defining_relation(t):
    j = fold_closed_form(t)
    assert 0.0 <= j <= CORNER_ANGLE + 1e-12
    lhs = np.sin(j) * np.sin(j / 2.0) ** 2
    rhs = np.sin(t) * np.sin(t / 2.0) ** 2
    assert abs(lhs - rhs) < 1e-12


@settings(deadline=None, max_examples=200)
@given(T_RANGE)
def test_closed_form_vs_oracle(t):
    assert abs(fold_closed_form(t) - fold_oracle(t)) < 1e-10


@settings(deadline=None, max_examples=100)
@given(T_RANGE, T_RANGE)
def test_monotone_decreasing(t1, t2):
    if t1 > t2:
        t1, t2 = t2, t1
    assert fold_closed_form(t1) >= fold_closed_form(t2)


@settings(deadline=None, max_examples=100)
@given(T_RANGE)
def test_oddness(t):
    assert fold_closed_form(-t) == -fold_closed_form(t)


@settings(deadline=None, max_examples=100)
@given(st.floats(min_value=CORNER_ANGLE + 1e-6, max_value=np.pi))
def test_conformal_consistency(t):
    j = fold_closed_form(t)
    assert abs(psi(np.exp(1j * t)) - psi(np.exp(1j * j))) < 1e-10


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
