import mpmath as mp
import numpy as np
import pytest

from lshapearc.conformal import (
    CORNER_ANGLE,
    ENDPOINT_RADIUS,
    LevelCurve,
    arc_length,
    arm_point,
    boundary_point,
    dist_to_level,
    level_point,
    psi,
    psi_prime,
)
from lshapearc.families import build_adjusted
from lshapearc.fold import fold_sister

def test_zeros_at_pm_one():
    assert psi(1.0 + 0j) == 0
    assert psi(-1.0 + 0j) == 0


def test_value_at_i():
    # (i-1)/(i+1) = i, sqrt(i) = e^{i pi/4}, so psi(i) = 2 e^{i 3pi/4}
    assert abs(psi(1j) - 2.0 * np.exp(3j * np.pi / 4.0)) < 1e-12


def test_normalized_at_infinity():
    # psi(w)/w -> 1 with an O(1/w) correction
    for r in (1e3, 1e4, 1e5):
        w = r + 0j
        assert abs(psi(w) / w - 1.0) < 1.01 / r
        assert abs(psi_prime(w) - 1.0) < 1.01 / r


def test_domain_errors():
    with pytest.raises(ValueError):
        psi(0.0 + 0j)
    with pytest.raises(ValueError):
        psi(0.5 + 0j)
    with pytest.raises(ValueError):
        psi_prime(-1.0 + 0j)
    with pytest.raises(ValueError):
        psi_prime(0.5 + 0j)


def test_derivative_zero_at_endpoint_preimage():
    assert abs(psi_prime(np.exp(2j * np.pi / 3.0))) < 1e-12


def test_boundary_point_values():
    assert abs(abs(boundary_point(2.0 * np.pi / 3.0)) - ENDPOINT_RADIUS) < 1e-12
    assert abs(abs(boundary_point(np.pi / 2.0)) - 2.0) < 1e-12
    assert abs(boundary_point(0.0)) == 0.0


def test_arm_point():
    for sign in (1.0, -1.0):
        assert abs(arm_point(sign, 1.0) - boundary_point(sign * 2.0 * np.pi / 3.0)) < 1e-12
        assert arm_point(sign, 0.0) == 0
        s = np.linspace(0.0, 1.0, 7)
        zs = arm_point(sign, s)
        assert isinstance(zs, np.ndarray) and zs.shape == s.shape
        assert np.array_equal(zs, [arm_point(sign, float(x)) for x in s])
    assert abs(arc_length() - 2.0 * 27.0**0.25) < 1e-14


def test_level_curve_conventions():
    assert LevelCurve(8, "one_over_n").rho == pytest.approx(1.125)
    assert LevelCurve(8, "one_over_n_plus_1").rho == pytest.approx(10.0 / 9.0)
    with pytest.raises(ValueError):
        LevelCurve(8, "bogus")
    with pytest.raises(ValueError):
        LevelCurve(0, "one_over_n")


def test_level_point_approaches_boundary():
    t = 0.9
    for n in [10, 100, 1000, 10000]:
        gap = abs(level_point(LevelCurve(n), t) - boundary_point(t))
        assert gap < 10.0 / n


def test_dist_to_level_matches_brute_force():
    n = 256
    curve = LevelCurve(n)
    z = complex(boundary_point(np.pi / 3.0))
    d = dist_to_level(z, curve, [np.pi / 3.0, fold_sister(np.pi / 3.0)])
    tt = np.linspace(-np.pi, np.pi, 100_000)
    brute = np.min(np.abs(z - psi(curve.rho * np.exp(1j * tt))))
    assert d <= brute + 1e-12
    assert abs(d - brute) / brute < 1e-6


def test_dist_to_level_corner_positive():
    d = dist_to_level(0j, LevelCurve(64), [0.0, np.pi, -np.pi])
    assert d > 0


def test_dist_to_level_endpoint_bounded_by_seed_value():
    n = 64
    curve = LevelCurve(n)
    z = complex(boundary_point(CORNER_ANGLE))
    d = dist_to_level(z, curve, [CORNER_ANGLE])
    assert d <= abs(psi(curve.rho * np.exp(1j * CORNER_ANGLE)) - z) + 1e-15


def test_dist_to_level_requires_seed():
    with pytest.raises(ValueError):
        dist_to_level(0j, LevelCurve(8), [])


def _mp_dist(z, rho, seeds):
    """50-digit min of |z - psi(rho e^{it})| over t within 0.75 of a seed.

    Each window is sampled at 4001 float angles; every sampled local
    minimum within 10% of the best sample is refined to the root of the
    t-derivative of the squared distance between its neighbours, and a
    best sample at a window's end counts as it is.
    """
    zc, r = mp.mpc(z.real, z.imag), mp.mpf(rho)

    def dist(t):
        w = r * mp.expj(t)
        return abs((w - 1 / w) * mp.sqrt((w - 1) / (w + 1)) - zc)

    def slope(t):  # half the t-derivative of the squared distance
        w = r * mp.expj(t)
        sq = mp.sqrt((w - 1) / (w + 1))
        return mp.re(mp.conj((w - 1 / w) * sq - zc) * sq * (w * w + w + 1) / (w * w) * 1j * w)

    best = mp.inf
    for seed in seeds:
        ts = seed + np.linspace(-0.75, 0.75, 4001)
        g = np.abs(z - psi(rho * np.exp(1j * ts)))
        for i in np.flatnonzero(g <= 1.1 * g.min()):
            if i in (0, len(ts) - 1):
                best = min(best, dist(mp.mpf(ts[i])))
            elif g[i] <= min(g[i - 1], g[i + 1]):
                t = mp.findroot(slope, (mp.mpf(ts[i - 1]), mp.mpf(ts[i + 1])), solver="anderson")
                assert ts[i - 1] <= t <= ts[i + 1]
                best = min(best, dist(t))
    return best


def test_dist_to_level_against_mpmath():
    # every adjusted node at n <= 32, with both seeds
    worst = 0.0
    with mp.workdps(50):
        for n in range(33):
            fam, curve = build_adjusted(n), LevelCurve(n)
            for z, t in zip(fam.points, fam.angles):
                seeds = [float(t), fold_sister(float(t))]
                ref = _mp_dist(complex(z), curve.rho, seeds)
                worst = max(worst, abs(dist_to_level(complex(z), curve, seeds) - ref) / ref)
    assert worst <= 1e-12


def test_dist_to_level_takes_an_array_of_nodes():
    n = 64
    fam, curve = build_adjusted(n), LevelCurve(n)
    ks = [5, 0, 40, 5]
    seeds = [[float(fam.angles[k]), fold_sister(float(fam.angles[k]))] for k in ks]
    d = dist_to_level(fam.points[ks], curve, seeds)
    assert isinstance(d, np.ndarray) and d.shape == (4,)
    # each node's distance is the one it gets alone
    assert d.tolist() == [dist_to_level(complex(fam.points[k]), curve, s) for k, s in zip(ks, seeds)]
    with pytest.raises(ValueError):
        dist_to_level(fam.points[ks], curve, seeds[:3])
