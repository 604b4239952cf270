import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from lshapearc import nodal
from lshapearc.conformal import boundary_point
from lshapearc.families import build_adjusted, build_raw, theta_grid
from lshapearc.nodal import (
    asymptotic_omega_estimate,
    build_derivative_table,
    lebesgue_function,
    lebesgue_function_grid,
    log_abs_omega,
)


def test_neg_infinity_at_node():
    fam = build_raw(8)
    assert np.isneginf(log_abs_omega(fam, complex(fam.points[3])))


def test_grid_and_scalar_agree():
    fam = build_raw(12)
    zs = boundary_point(np.linspace(-0.5, 0.5, 37))
    grid = log_abs_omega(fam, zs)
    for z, v in zip(zs, grid):
        assert v == pytest.approx(log_abs_omega(fam, complex(z)), abs=1e-12)


def test_derivative_table_n1():
    fam = build_raw(1)
    table = build_derivative_table(fam)
    gap = np.log(abs(fam.points[0] - fam.points[1]))
    assert table.logs[0] == pytest.approx(gap)
    assert table.logs[1] == pytest.approx(gap)


def test_duplicate_nodes_rejected(monkeypatch):
    fam = build_raw(8)
    fam.points = fam.points.copy()
    fam.points[5] = fam.points[2]
    # the first duplicate pair in row order, also when rows 2 and 5 fail in different blocks
    for cells in (1, 7, 1 << 16):
        monkeypatch.setattr(nodal, "_CHUNK_CELLS", cells)
        with pytest.raises(ValueError, match=r"^duplicate nodes at indices 2 and 5$"):
            build_derivative_table(fam)


def test_derivative_row_matches_table(monkeypatch):
    # mz_ratio computes its one row alone; it must be the table's row, bit for bit
    for cells in (7, 1 << 17):
        monkeypatch.setattr(nodal, "_CHUNK_CELLS", cells)
        for fam in (build_raw(1), build_raw(40), build_adjusted(64), build_adjusted(257)):
            logs = build_derivative_table(fam).logs
            for k in (0, fam.n // 3, fam.n // 2, fam.n):
                assert nodal._derivative_logs(fam.points, [k])[0] == logs[k]
    pts = build_raw(8).points.copy()
    pts[5] = pts[2]
    with pytest.raises(ValueError, match=r"^duplicate nodes at indices 5 and 2$"):
        nodal._derivative_logs(pts, [5])


def _kernel_outputs():
    """Every reduction of the pair kernel, on multi-block inputs with rows that hit a node."""
    out = []
    for fam in (build_raw(40), build_adjusted(64)):
        table = build_derivative_table(fam)
        zs = np.concatenate([boundary_point(np.linspace(-2.09, 2.09, 301)), fam.points[::5]])
        grid = lebesgue_function_grid(fam, table, zs)
        assert np.all(grid[301:] == 1.0)
        z = complex(zs[17])
        out += [table.logs, grid, log_abs_omega(fam, zs), [log_abs_omega(fam, z)],
                [lebesgue_function(fam, table, z, upto=k) for k in (1, fam.n // 6 + 1, None)]]
    return [np.asarray(a, dtype=float).tobytes() for a in out]


def test_blocking_cannot_change_a_number(monkeypatch):
    runs = []
    for cells in (1, 7, 1 << 10, 1 << 16, 1 << 17, 1 << 22):
        monkeypatch.setattr(nodal, "_CHUNK_CELLS", cells)
        runs.append(_kernel_outputs())
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # frequent thread switches, with more threads than cores
    try:
        for threads in (1, 8):
            with ThreadPoolExecutor(max_workers=threads) as pool:
                monkeypatch.setattr(nodal, "_pool", pool)
                for cells in (7, 1 << 10):
                    monkeypatch.setattr(nodal, "_CHUNK_CELLS", cells)
                    runs.append(_kernel_outputs())
    finally:
        sys.setswitchinterval(interval)
    assert all(run == runs[0] for run in runs[1:])


def test_surrogate_vanishes_at_nodes():
    n = 64
    th = theta_grid(n)
    assert asymptotic_omega_estimate(n, float(th[3])) == 0.0


def test_surrogate_symmetric_and_bounded():
    n = 256
    th = theta_grid(n)
    t = (th[0] + th[1]) / 2.0
    est = asymptotic_omega_estimate(n, t)
    assert est == asymptotic_omega_estimate(n, -t)
    fam = build_raw(n)
    true = np.exp(log_abs_omega(fam, complex(boundary_point(t))))
    assert 1e-2 <= true / est <= 1e2
