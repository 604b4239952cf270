"""mpmath oracles for the pair kernel behind every nodal quantity, for
the MZ basis integral built on it, and for the premises of the pruned
Lebesgue search: its Bernstein and Szego bounds, and arc points whose
bits do not depend on the call shape.

The float64 nodes are taken as exact inputs; the oracle evaluates the
same sums of log|z - x_k| in 50-digit arithmetic, and the basis integral
in 25-digit arithmetic, so any disagreement beyond 1e-12 relative is an
error of the kernel or the quadrature, not of the nodes.
"""

import mpmath as mp
import numpy as np
import pytest

from lshapearc.conformal import CORNER_ANGLE, LevelCurve, arm_point, boundary_point, level_point, psi_prime
from lshapearc.families import build_adjusted, build_raw, theta_grid
from lshapearc.metrics import _arm_angle, lower_bound_witness, mz_ratio
from lshapearc.nodal import (
    build_derivative_table,
    lebesgue_function,
    lebesgue_function_grid,
    log_abs_omega,
)

DEGREES = (6, 16, 33, 64)
REL = 1e-12
# angles off every node of both families at these degrees
ANGLES = np.array([-2.05, -1.3, -0.37, 0.011, 0.52, 1.71, 2.09])


def _mp_logs(z, pts):
    """log|z - x_k| for every node, in 50-digit arithmetic."""
    zc = mp.mpc(z.real, z.imag)
    return [mp.log(abs(zc - mp.mpc(x.real, x.imag))) for x in pts]


def _mp_derivative_logs(pts):
    return [mp.fsum(v for j, v in enumerate(_mp_logs(x, pts)) if j != k) for k, x in enumerate(pts)]


def _mp_lebesgue(z, pts, dlogs, upto=None):
    ld = _mp_logs(z, pts)
    s = mp.fsum(ld)
    return mp.fsum(mp.exp(s - a - b) for a, b in list(zip(ld, dlogs))[:upto])


def _close_log(value, ref):
    # relative 1e-12 on the magnitude |omega| = exp(log|omega|)
    return abs(value - float(ref)) <= REL


def _close(value, ref):
    return abs(value - float(ref)) <= REL * abs(float(ref))


def _family(kind, n):
    return build_raw(n) if kind == "raw" else build_adjusted(n)


@pytest.mark.parametrize("kind", ["raw", "adjusted"])
@pytest.mark.parametrize("n", DEGREES)
def test_kernel_against_mpmath(kind, n):
    with mp.workdps(50):
        f = _family(kind, n)
        pts = f.points
        table = build_derivative_table(f)
        dlogs = _mp_derivative_logs(pts)
        assert all(_close_log(v, r) for v, r in zip(table.logs, dlogs))

        arc = boundary_point(ANGLES)
        level = level_point(LevelCurve(n), ANGLES)
        zs = np.concatenate([arc, level])
        grid = log_abs_omega(f, zs)
        lam = lebesgue_function_grid(f, table, arc)
        for i, z in enumerate(zs):
            ref = mp.fsum(_mp_logs(z, pts))
            assert _close_log(grid[i], ref)
            assert _close_log(log_abs_omega(f, complex(z)), ref)
        for i, z in enumerate(arc):
            ref = _mp_lebesgue(z, pts, dlogs)
            assert _close(lam[i], ref)
            assert _close(lebesgue_function(f, table, complex(z)), ref)


@pytest.mark.parametrize("n", DEGREES)
def test_witness_against_mpmath(n):
    with mp.workdps(50):
        rec = lower_bound_witness(n)
        pts = build_raw(n).points
        dlogs = _mp_derivative_logs(pts)
        th = theta_grid(n)
        z0 = complex(boundary_point((th[0] + th[1]) / 2.0))
        assert _close(rec.value, _mp_lebesgue(z0, pts, dlogs))
        assert _close(rec.settings["partial_sum"], _mp_lebesgue(z0, pts, dlogs, upto=n // 6 + 1))


def _mp_basis_integral(pts, k, p):
    """Integral over both arms of |l_k(z)|^p |dz| in 25-digit arithmetic.

    Each arm is the float segment 27^(1/4) * e^{+-3i*pi/4} * s, s in [0, 1],
    taken as exact; tanh-sinh quadrature runs between breakpoints at every
    node's arm position, where |l_k|^p has its |s - s_j|^p kinks.
    """
    radius = 27.0**0.25
    nodes = [mp.mpc(x.real, x.imag) for x in pts]
    others = [x for j, x in enumerate(nodes) if j != k]
    scale = mp.fprod(abs(nodes[k] - x) for x in others)
    breaks = sorted({0.0, 1.0} | {abs(x) / radius for x in pts if 0.0 < abs(x) / radius < 1.0})
    total = 0
    for sign in (1.0, -1.0):
        d = complex(radius * np.exp(sign * 3j * np.pi / 4.0))
        arm = mp.mpc(d.real, d.imag)
        total += mp.quad(lambda s: (mp.fprod(abs(arm * s - x) for x in others) / scale) ** p, breaks)
    return total * radius


@pytest.mark.parametrize("p", [1.5, 2.0, 3.5, 4.0])
def test_mz_integral_against_mpmath(p):
    # n = 8: node 2 is inside the upper arm, node 3 at its end
    fam = build_adjusted(8)
    with mp.workdps(25):
        for k in (2, 3):
            rec = mz_ratio(8, p, k=k, family=fam)
            assert _close(rec.settings["integral"], _mp_basis_integral(fam.points, k, p))


@pytest.mark.parametrize("kind", ["raw", "adjusted"])
def test_lebesgue_function_is_bernstein_lipschitz_in_theta(kind):
    # the premise of the pruned Lebesgue search: on the upper arm
    # z = 27^(1/4) e^{3pi i/4} (1 + cos theta)/2 the Lebesgue function is
    # (n max)-Lipschitz in theta; the grid max is at most the true max
    theta = np.linspace(0.0, np.pi, 20001)
    zs = arm_point(1, np.cos(theta / 2.0) ** 2)
    i, j = np.random.default_rng(5).integers(0, len(theta), (2, 20000))
    for n in range(33):
        f = _family(kind, n)
        lam = lebesgue_function_grid(f, build_derivative_table(f), zs)
        lip, slop = n * lam.max(), REL * lam.max()
        assert np.all(np.abs(np.diff(lam)) <= lip * np.diff(theta) + slop), n
        assert np.all(np.abs(lam[i] - lam[j]) <= lip * np.abs(theta[i] - theta[j]) + slop), n

    # the float64 Lebesgue function on the arm, against 50-digit sums at n = 32
    theta = np.array([0.0, 1e-9, 1e-4, 0.05, 0.4, 1.0, 1.5, 2.2, 2.9, 3.1, np.pi - 1e-6, np.pi])
    f = _family(kind, 32)
    zs = arm_point(1, np.cos(theta / 2.0) ** 2)
    lam = lebesgue_function_grid(f, build_derivative_table(f), zs)
    with mp.workdps(50):
        dlogs = _mp_derivative_logs(f.points)
        assert all(_close(v, _mp_lebesgue(z, f.points, dlogs)) for v, z in zip(lam, zs))


@pytest.mark.parametrize("kind", ["raw", "adjusted"])
def test_arccos_of_lebesgue_function_is_szego_lipschitz_in_theta(kind):
    # the premise of the Szego cell bound: with M at or above the max,
    # arccos(lambda/M) is n-Lipschitz in theta on the upper arm.  The grid
    # max is within 1 - cos(n pi/40000) < 4e-6 of the max at n <= 32
    theta = np.linspace(0.0, np.pi, 20001)
    zs = arm_point(1, np.cos(theta / 2.0) ** 2)
    i, j = np.random.default_rng(7).integers(0, len(theta), (2, 20000))
    for n in range(33):
        f = _family(kind, n)
        lam = lebesgue_function_grid(f, build_derivative_table(f), zs)
        phi = np.arccos(lam / (lam.max() * (1.0 + 1e-5)))
        slop = 1e-9  # rounding of lam, amplified by arccos' slope near 1 (< 300 here)
        assert np.all(np.abs(np.diff(phi)) <= n * np.diff(theta) + slop), n
        assert np.all(np.abs(phi[i] - phi[j]) <= n * np.abs(theta[i] - theta[j]) + slop), n


def _assert_bits_do_not_depend_on_the_call_shape(f, xs, name):
    """f of each 0-d xs[i], of each one-element slice and of batches of 5 has the bits of f(xs)."""
    full = f(xs)
    shapes = {
        "0-d": [f(x) for x in xs],
        "1 element": np.concatenate([f(xs[i : i + 1]) for i in range(len(xs))]),
        "batch of 5": np.concatenate([f(xs[i : i + 5]) for i in range(0, len(xs), 5)]),
    }
    for shape, zs in shapes.items():
        zs = np.asarray(zs)
        assert np.array_equal(zs.real, full.real) and np.array_equal(zs.imag, full.imag), (name, shape)


def test_boundary_point_bits_do_not_depend_on_the_call_shape():
    # the Lebesgue chain evaluates its samples, the corner and the endpoint in
    # arrays, the lockstep polishes their points in batches of five down to
    # one, and single points are mapped in 0-d calls; all must see the same
    # points, bit for bit.  So must the level polish, whose searches are
    # locksteps of one, and the distance search, which maps psi and psi_prime
    # on the level curve in arrays of any length
    ends = np.geomspace(1e-15, 0.5, 50000)
    ts = np.unique(np.concatenate([[0.0, CORNER_ANGLE], ends, CORNER_ANGLE - ends, np.linspace(0.0, CORNER_ANGLE, 160001)]))
    assert len(ts) >= 250000
    _assert_bits_do_not_depend_on_the_call_shape(boundary_point, ts, "boundary_point")
    rng = np.random.default_rng(20221021)
    for n in (16, 256):
        curve, angles = LevelCurve(n), rng.uniform(-np.pi, np.pi, 5000)
        _assert_bits_do_not_depend_on_the_call_shape(lambda t: level_point(curve, t), angles, ("level_point", n))
        ws = curve.rho * np.exp(1j * angles)
        _assert_bits_do_not_depend_on_the_call_shape(psi_prime, ws, ("psi_prime", n))


def test_arm_angle_against_mpmath():
    # theta of boundary_point(t), from 50-digit s = |z|/27^(1/4), to a few ulps of pi at both ends
    ts = np.concatenate([[0.0, 1e-12, 1e-6], np.linspace(0.01, 2.09, 50), CORNER_ANGLE - np.array([1e-6, 1e-12, 0.0])])
    with mp.workdps(50):
        for t, th in zip(ts, _arm_angle(ts)):
            s = mp.sqrt(8 * mp.sin(t) * mp.sin(mp.mpf(t) / 2) ** 2 / mp.sqrt(27))
            assert abs(th - mp.acos(2 * s - 1)) <= 1e-15, t
