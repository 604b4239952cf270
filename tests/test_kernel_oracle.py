"""mpmath oracles for the pair kernel behind every nodal quantity and for
the MZ basis integral built on it.

The float64 nodes are taken as exact inputs; the oracle evaluates the
same sums of log|z - x_k| in 50-digit arithmetic, and the basis integral
in 25-digit arithmetic, so any disagreement beyond 1e-12 relative is an
error of the kernel or the quadrature, not of the nodes.
"""

import mpmath as mp
import numpy as np
import pytest

from lshapearc.conformal import LevelCurve, boundary_point, level_point
from lshapearc.families import build_adjusted, build_raw, theta_grid
from lshapearc.metrics import lower_bound_witness, mz_ratio
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
