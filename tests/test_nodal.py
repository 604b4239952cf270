import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from lshapearc import metrics, nodal
from lshapearc.conformal import LevelCurve, arm_point, boundary_point, level_point
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


def test_kernel_columns_match_one_value_reductions(monkeypatch):
    # mz_ratio_worst reduces to a row of K values per point; each column must
    # have the bits of the one-value reduction of its own, at any block size
    runs = []
    for cells in (7, 1 << 17):
        monkeypatch.setattr(nodal, "_CHUNK_CELLS", cells)
        for fam in (build_raw(40), build_adjusted(64)):
            zs = boundary_point(np.linspace(-2.09, 2.09, 300))  # no node among them
            ks = [0, fam.n // 3, fam.n, fam.n // 3]
            block = nodal._pair_logs(zs, fam.points,
                                     lambda ld, rows: np.exp(2.0 * (ld.sum(axis=1)[:, None] - ld[:, ks])))
            assert block.shape == (len(zs), len(ks))
            for c, k in enumerate(ks):
                col = nodal._pair_logs(zs, fam.points, lambda ld, rows: np.exp(2.0 * (ld.sum(axis=1) - ld[:, k])))
                assert col.shape == (len(zs),)
                assert np.array_equal(block[:, c], col)
            runs.append(block.tobytes())
    assert runs[:2] == runs[2:]


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


def _direct(zs, pts, diagonal=False):
    """Each row's log|omega| by a loop over the points: one row of logs, summed (its own column
    skipped where the points are the nodes)."""
    out = np.empty(len(zs))
    with np.errstate(divide="ignore"):
        for i, z in enumerate(zs):
            ld = np.log(np.abs(z - pts))
            if diagonal:
                ld[i] = 0.0
            out[i] = ld.sum()
    return out


class _SpyPool:
    """The kernel's pool, recording the row starts of the tasks of each call it maps."""

    def __init__(self, starts):
        self.starts = starts

    def map(self, fn, items):
        self.starts.append(list(items))
        return [fn(i) for i in items]


def _twin_starts(zs, pts):
    """The task starts of a twin call: evaluated rows below p = m - h only, half a block each."""
    chunk = max(1, nodal._CHUNK_CELLS // len(pts))
    m, kz = len(zs), nodal._twin_start(zs)
    return [list(range(0, m - (m - kz) // 2, max(1, chunk // 2)))] if m > chunk else []


def _mirrored_scan(n):
    """The level scan's angles and points at degree n."""
    curve = LevelCurve(n)
    tg = np.linspace(-np.pi, np.pi, 64 * (n + 1), endpoint=False)
    tg[1 : len(tg) // 2] = -tg[: len(tg) // 2 : -1]
    return level_point(curve, tg)


def test_twin_rows_match_a_direct_loop(monkeypatch):
    # copied twin rows must hold the bits direct evaluation gives
    starts = []
    monkeypatch.setattr(nodal, "_pool", _SpyPool(starts))
    for cells in (7, 1 << 17):
        monkeypatch.setattr(nodal, "_CHUNK_CELLS", cells)
        for n in list(range(65)) + [255, 256, 1025]:
            for fam in (build_raw(n), build_adjusted(n)):
                starts.clear()
                assert np.array_equal(build_derivative_table(fam).logs, _direct(fam.points, fam.points, True))
                # every call of more than one block copies twin rows
                assert starts == _twin_starts(fam.points, fam.points)
        for n in (0, 1, 16, 17, 255):
            pts, zs = build_raw(n).points, _mirrored_scan(n)
            starts.clear()
            assert np.array_equal(log_abs_omega(pts, zs), _direct(zs, pts))
            assert starts == _twin_starts(zs, pts)


def test_twin_rows_of_the_lebesgue_and_column_reductions(monkeypatch):
    monkeypatch.setattr(nodal, "_CHUNK_CELLS", 1 << 10)
    u = np.linspace(0.01, 1.0, 150)
    s = np.concatenate([-u[::-1], u])  # conjugate points on the two arms, no node among them
    zs = arm_point(np.sign(s), np.abs(s))
    assert np.array_equal(zs[::-1], zs.conj())
    for fam in (build_raw(40), build_adjusted(64)):
        pts, logs = fam.points, build_derivative_table(fam).logs
        with np.errstate(divide="ignore"):
            lam = [np.exp(np.log(np.abs(z - pts)).sum() - np.log(np.abs(z - pts)) - logs).sum() for z in zs]
        assert np.array_equal(lebesgue_function_grid(fam, build_derivative_table(fam), zs), lam)
        ks = [0, fam.n // 3, fam.n, 1]
        func, _ = metrics._basis_powers(fam, 2.0, ks)
        log_dk = nodal._derivative_logs(pts, ks)
        cols = [np.exp(2.0 * (np.log(np.abs(z - pts)).sum() - log_dk - np.log(np.abs(z - pts))[ks])) for z in zs]
        assert np.array_equal(func(s), cols)


def test_a_node_off_its_twin_falls_back_and_a_point_off_its_twin_is_evaluated(monkeypatch):
    starts = []
    monkeypatch.setattr(nodal, "_pool", _SpyPool(starts))
    fam, zs = build_raw(64), _mirrored_scan(64)
    chunk = nodal._CHUNK_CELLS // len(fam.points)
    for k, moved in ((3, lambda x: complex(np.nextafter(x.real, np.inf), x.imag)),
                     (0, lambda x: complex(x.real, np.nextafter(x.imag, np.inf)))):  # node 0 is its own twin
        starts.clear()
        pts = fam.points.copy()
        pts[k] = moved(pts[k])
        assert np.array_equal(log_abs_omega(pts, zs), _direct(zs, pts))
        assert starts == [list(range(0, len(zs), chunk))]  # every row evaluated, in whole blocks
    moved = zs.copy()
    r = len(zs) - 5  # the twin of row 5, in the copied half
    moved[r] = complex(np.nextafter(moved[r].real, np.inf), moved[r].imag)
    # a copy of row 5 would give the unmoved point's value
    assert _direct(moved[r : r + 1], fam.points)[0] != _direct(zs[r : r + 1], fam.points)[0]
    starts.clear()
    assert np.array_equal(log_abs_omega(fam, moved), _direct(moved, fam.points))
    assert starts == _twin_starts(moved, fam.points)


def test_duplicate_nodes_in_copied_rows_are_refused_as_before(monkeypatch):
    # a conjugate-symmetric node set with two duplicate pairs, (2, 5) and their twins (7, 4)
    pts = build_raw(8).points.copy()
    pts[5], pts[4] = pts[2], pts[7]
    cases = [(np.arange(9), "2 and 5"),  # the first failing row is evaluated, its twin copied
             # rows 3 and 4 are twin rows whose partners are not their conjugates: evaluated, in
             # different blocks, and the first of them in row order names the pair
             ([1, 3, 0, 7, 2, 8], "7 and 4"),
             ([1, 3, 6, 2, 8], "2 and 5")]
    for ks, pair in cases:
        for cells in (1, 18, 36, 1 << 17):
            monkeypatch.setattr(nodal, "_CHUNK_CELLS", cells)
            with pytest.raises(ValueError, match=rf"^duplicate nodes at indices {pair}$"):
                nodal._derivative_logs(pts, ks)


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
