import numpy as np
import pytest

from lshapearc.conformal import psi
from lshapearc.families import (
    build_adjusted,
    build_level_nodes,
    build_raw,
    k1_k2_locate,
    mirror_index,
    separation_margin,
    theta_grid,
)

DELTA_32 = 2.0 * np.pi / 99.0


def test_grid_small_even():
    assert theta_grid(2) == pytest.approx([0.0, 2 * np.pi / 3, -2 * np.pi / 3])


def test_grid_small_odd():
    assert theta_grid(3) == pytest.approx([np.pi / 4, 3 * np.pi / 4, -3 * np.pi / 4, -np.pi / 4])


def test_grid_printed_angle():
    assert theta_grid(32)[4] == pytest.approx(8.0 * np.pi / 33.0)
    assert abs(theta_grid(32)[4] - 0.761598) < 1e-6


def test_grid_mirror_rule():
    for n in range(301):
        th = theta_grid(n)
        m = n // 2
        for k in range(m + 1, n + 1):
            assert th[k] == -th[2 * m + 1 - k]
        assert np.all(th > -np.pi) and np.all(th <= np.pi)
        if n % 2 == 1:
            assert not np.any(np.isclose(np.abs(th), np.pi))


def test_raw_points_conjugate_symmetric():
    fam = build_raw(40)
    for k in range(41):
        mk = mirror_index(40, k)
        assert fam.points[k] == pytest.approx(np.conj(fam.points[mk]), abs=1e-12)
    for n in (40, 41):
        ks = np.arange(n + 1)
        mk = mirror_index(n, ks)
        assert mk.tolist() == [mirror_index(n, int(k)) for k in ks]
        assert np.array_equal(mirror_index(n, mk), ks)


def test_raw_n2_hits_corner_and_endpoints():
    fam = build_raw(2)
    assert abs(fam.points[0]) < 1e-14
    assert abs(abs(fam.points[1]) - 27.0**0.25) < 1e-12
    assert abs(abs(fam.points[2]) - 27.0**0.25) < 1e-12


def test_adjusted_n32_collision_pair():
    fam = build_adjusted(32)
    assert (16, 4) in fam.adjusted_pairs
    # folded representative of the moved node sits exactly delta below
    # theta_{32,4}, and node 4 absorbs the rest of the pair average
    assert fam.folded[16] == pytest.approx(8.0 * np.pi / 33.0 - DELTA_32, abs=1e-12)
    assert abs(fam.folded[16] - 0.698131) < 1e-6
    assert abs(fam.angles[4] - 0.823638) < 1e-6


def test_adjusted_n2_is_raw():
    raw = build_raw(2)
    adj = build_adjusted(2)
    assert adj.adjusted_pairs == []
    assert np.allclose(raw.angles, adj.angles)


def test_separation_margins():
    raw_margin = separation_margin(build_raw(32))
    assert raw_margin == pytest.approx(33 * 0.001427, rel=1e-2)
    assert separation_margin(build_raw(0)) == np.inf


def test_points_agree_except_adjusted():
    raw = build_raw(128)
    adj = build_adjusted(128)
    moved = set()
    for k, j in adj.adjusted_pairs:
        moved |= {k, j, mirror_index(128, k), mirror_index(128, j)}
    for i in range(129):
        if i in moved:
            continue
        assert raw.points[i] == adj.points[i]


def test_folded_point_consistency():
    adj = build_adjusted(64)
    direct = psi(np.exp(1j * adj.angles))
    via_fold = psi(np.exp(1j * adj.folded))
    assert np.max(np.abs(direct - via_fold)) < 1e-10
    assert np.max(np.abs(direct - adj.points)) == 0.0


def test_locator_examples():
    assert k1_k2_locate(32, 0.76) == (4, 16)
    assert k1_k2_locate(32, 0.0)[0] == 0
    assert k1_k2_locate(33, theta_grid(33)[2])[0] == 2


def test_level_nodes():
    lvl = build_level_nodes(8, "one_over_n")
    assert lvl.curve.rho == pytest.approx(1.125)
    lvl = build_level_nodes(8, "one_over_n_plus_1")
    assert lvl.curve.rho == pytest.approx(10.0 / 9.0)
    th = theta_grid(8)
    assert np.allclose(lvl.points, psi(lvl.curve.rho * np.exp(1j * th)))
    # conjugate symmetry of the set
    assert np.allclose(np.sort(lvl.points.imag), -np.sort(lvl.points.imag)[::-1])
