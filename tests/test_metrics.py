import time

import numpy as np
import pytest

from lshapearc import metrics
from lshapearc.conformal import (
    CORNER_ANGLE,
    LevelCurve,
    arc_length,
    arm_point,
    boundary_point,
    dist_to_level,
    level_point,
)
from lshapearc.families import build_adjusted, build_raw
from lshapearc.metrics import (
    choose_ratio_index,
    fit_growth,
    lebesgue_constant,
    level_minmax,
    lower_bound_witness,
    muckenhoupt_constant,
    mz_ratio,
    mz_ratio_worst,
    separation_ok,
)
from lshapearc.nodal import build_derivative_table, lebesgue_function, lebesgue_function_grid, log_abs_omega


def test_lebesgue_constant_degree_zero():
    for build in (build_raw, build_adjusted):
        rec = lebesgue_constant(build(0))
        assert (rec.value, rec.location) == (1.0, 0.0)


def test_lebesgue_constant_refuses_asymmetric_nodes():
    f = build_raw(16)
    f.points[3] += 1e-9
    with pytest.raises(ValueError, match="conjugate-symmetric"):
        lebesgue_constant(f)


@pytest.mark.parametrize("n", [1, 2, 15, 16, 33, 64])
@pytest.mark.parametrize("build", [build_raw, build_adjusted])
def test_lebesgue_function_mirror_symmetric_on_full_grid(build, n):
    # the upper-arm search rests on lambda(conj z) = lambda(z) over the whole arc
    f = build(n)
    table = build_derivative_table(f)
    ts = metrics._arc_samples(f, 64)
    lam = lebesgue_function_grid(f, table, boundary_point(ts))
    mirror = lebesgue_function_grid(f, table, boundary_point(-ts))
    assert np.allclose(mirror, lam, rtol=1e-13, atol=0.0)
    assert lebesgue_constant(f).value >= lam.max()


def test_lebesgue_constant_stays_on_upper_arm(monkeypatch):
    seen = []

    def grid(f, table, zs):
        seen.append(np.asarray(zs))
        return lebesgue_function_grid(f, table, zs)

    def point(f, table, z, upto=None):
        seen.append(np.asarray([z]))
        return lebesgue_function(f, table, z, upto)

    monkeypatch.setattr(metrics, "lebesgue_function_grid", grid)
    monkeypatch.setattr(metrics, "lebesgue_function", point)
    for build in (build_raw, build_adjusted):
        for n in range(1, 65):
            seen.clear()
            rec = lebesgue_constant(build(n))
            assert all(np.all(zs.imag >= 0.0) for zs in seen), (build.__name__, n)
            assert 0.0 <= rec.location <= CORNER_ANGLE


def _dense_lebesgue_constant(f, grid_per_gap):
    """(value, location, bracket) of the search with every chain point
    evaluated, in one kernel call, and then the same zoom."""
    table = build_derivative_table(f)
    ts = metrics._arc_samples(f, grid_per_gap)
    theta, t, _ = metrics._arm_chain(f.n, ts[ts >= 0.0])

    def evaluate(th, tt):  # boundary_point's bits do not depend on the call shape
        on = ~np.isnan(tt)
        zs = np.where(on, boundary_point(np.where(on, tt, 0.0)), arm_point(1, np.cos(th / 2.0) ** 2))
        return lebesgue_function_grid(f, table, zs)

    value, location, cap = metrics._zoom(f.n, theta, t, evaluate(theta, t), evaluate)
    return value, location, [value, cap]


@pytest.mark.parametrize("grid_per_gap", [8, 64, 128])
def test_pruned_lebesgue_search_is_the_dense_chain_and_zoom(monkeypatch, grid_per_gap):
    chains, prune = [], metrics._pruned_chain
    monkeypatch.setattr(metrics, "_pruned_chain", lambda *args: chains.append(args) or prune(*args))
    for build in (build_raw, build_adjusted):
        for n in range(97):
            f = build(n)
            rec = lebesgue_constant(f, grid_per_gap)
            dense = _dense_lebesgue_constant(f, grid_per_gap)
            assert (rec.value, rec.location, rec.settings["bracket"]) == dense, (build.__name__, n)

            # and every point the chain skipped lies below the bound of its final cell
            values, _, evaluate, bound = chains.pop()
            known = np.flatnonzero(values > -np.inf)
            skipped = np.flatnonzero(values == -np.inf)
            if len(skipped):
                a, b = known[:-1], known[1:]
                cell = np.searchsorted(known, skipped) - 1
                assert np.all(evaluate(skipped) <= bound(a, b, values[a], values[b])[cell]), (build.__name__, n)


def test_pruned_lebesgue_search_at_1024_skips_half_the_grid():
    f = build_adjusted(1024)
    rec = lebesgue_constant(f)
    assert (rec.value, rec.location, rec.settings["bracket"]) == _dense_lebesgue_constant(f, 64)
    assert rec.settings["grid_evaluated"] <= rec.settings["grid_samples"] / 2


def test_lebesgue_constant_makes_no_minimize_scalar_call(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("lebesgue_constant called minimize_scalar")

    monkeypatch.setattr(metrics, "minimize_scalar", refuse)
    for build in (build_raw, build_adjusted):
        for n in (0, 1, 16, 69, 132):
            lebesgue_constant(build(n))


def test_prune_margin_covers_twice_the_point_rounding():
    # 1e-6 up to 2^15; above, the point rounding 2n^2 eps alone passes 1e-6, and the margin grows with it
    eps = np.finfo(float).eps
    assert [metrics._prune_margin(n) for n in (0, 1, 64, 8192, 2**15)] == [1e-6] * 5
    for n in (2**15, 2**16, 2**17, 10**6):
        assert metrics._prune_margin(n) >= 2.0 * (2.0 * n * n * eps)


def _fine_arm_max(f):
    """Max of the Lebesgue function on the upper arm, searched apart from
    lebesgue_constant: 2^14 + 1 equal steps in theta over [0, pi] through
    arm_point, then twice a 1025-point grid around each of the eight best
    local maxima, each 512 times finer than the last."""
    table = build_derivative_table(f)
    theta, step = np.linspace(0.0, np.pi, 2**14 + 1), np.pi / 2**14
    best = -np.inf
    for _ in range(3):
        lam = lebesgue_function_grid(f, table, arm_point(1, np.cos(theta / 2.0) ** 2))
        best = max(best, lam.max())
        pad = np.r_[-np.inf, lam, -np.inf]
        peaks = np.flatnonzero((lam >= pad[:-2]) & (lam >= pad[2:]))
        top = theta[peaks[np.argsort(lam[peaks])[::-1][:8]]]
        theta = np.unique(np.clip(top[:, None] + step * np.linspace(-1.0, 1.0, 1025), 0.0, np.pi))
        step /= 512
    return best


@pytest.mark.parametrize("build", [build_raw, build_adjusted])
def test_lebesgue_bracket_holds_the_fine_grid_max(build):
    for n in range(65):
        rec = lebesgue_constant(build(n))
        lo, hi = rec.settings["bracket"]
        ref = _fine_arm_max(build(n))
        assert lo == rec.value and np.isfinite(hi), n
        # the value is the max to rounding, and U is above it, by at most the margin on each
        assert abs(ref - lo) <= 1e-12 * lo and ref <= hi <= lo * (1.0 + 2.0 * metrics._prune_margin(n)), n


def test_adjusted_n32_band():
    # restates criterion 05's n = 32 row, which cannot carry it: the criterion fails on other rows
    # two published values exist for this entry (3.92 and 5.291439);
    # accept anything in the band covering both
    rec = lebesgue_constant(build_adjusted(32))
    assert 3.5 <= rec.value <= 5.8


def test_adjusted_below_raw():
    for n in [32, 100, 128]:
        raw = lebesgue_constant(build_raw(n)).value
        adj = lebesgue_constant(build_adjusted(n)).value
        assert adj <= raw


def test_grid_independence_small():
    # kept beside criterion 05's grid-doubling check, which cannot carry it: the criterion fails on other rows
    f = build_adjusted(64)
    a = lebesgue_constant(f, grid_per_gap=32).value
    b = lebesgue_constant(f, grid_per_gap=64).value
    assert abs(a - b) / b < 1e-3


def test_witness_requires_degree():
    with pytest.raises(ValueError):
        lower_bound_witness(4)


@pytest.mark.parametrize("n", [1, 5, 7, 29, 69])
def test_level_max_grid_sample_wins_a_tie(n):
    # the polished maximum here only ties the grid sample at angle 0
    assert level_minmax(n)[1].location == 0.0


def test_level_scan_grid_is_mirror_symmetric(monkeypatch):
    passed = []  # the points the scan hands the kernel; the grid alone, no kernel
    monkeypatch.setattr(metrics, "log_abs_omega", lambda pts, zs: passed.append(zs) or np.zeros(len(zs)))
    for n in list(range(301)) + [2 ** k for k in range(9, 13)]:
        curve = LevelCurve(n)
        tg, _ = metrics._level_scan(None, curve)
        big, mid = len(tg), len(tg) // 2
        assert big == 64 * (n + 1)
        # linspace's samples from the middle on, -pi first, and every other sample its twin's negative
        assert np.array_equal(tg[mid:], np.linspace(-np.pi, np.pi, big, endpoint=False)[mid:])
        assert tg[0] == -np.pi and np.array_equal(tg[1:mid], -tg[:mid:-1])
        zs = level_point(curve, tg)
        assert np.array_equal(zs[1:mid], zs[:mid:-1].conj())
        assert np.array_equal(passed.pop(), zs)  # the scan's conjugated points are level_point's own


def _linspace_ratio_index(n, family):
    """choose_ratio_index on the scan grid np.linspace(-pi, pi, 64(n+1), endpoint=False)."""
    curve = LevelCurve(n)
    tg = np.linspace(-np.pi, np.pi, 64 * (n + 1), endpoint=False)
    t0 = abs(float(tg[np.argmin(log_abs_omega(family.points, level_point(curve, tg)))]))
    return int(np.argmin(np.abs(family.points - complex(level_point(curve, t0)))))


def test_ratio_index_is_that_of_the_linspace_scan():
    for n in range(1, 301):
        fam = build_adjusted(n)
        assert choose_ratio_index(n, fam) == _linspace_ratio_index(n, fam)
    # the linspace scan's indices at 2^9..2^12, where it takes seconds
    for n in (512, 1024, 2048, 4096):
        assert choose_ratio_index(n, build_adjusted(n)) == n // 2


def test_muckenhoupt_n16():
    # restates criterion 07's (16, 2) cell, which cannot carry it: the criterion fails on the (64, 2) cell
    (rec,) = muckenhoupt_constant(16, [2.0])
    assert abs(rec.value - 1.59) / 1.59 < 0.15
    assert rec.value >= 1.0


def test_muckenhoupt_monotone_in_window_max():
    (small,) = muckenhoupt_constant(16, [2.0], window_max=64)
    (big,) = muckenhoupt_constant(16, [2.0], window_max=512)
    assert big.value >= small.value - 1e-12


def test_muckenhoupt_refuses_a_negative_window_max():
    with pytest.raises(ValueError, match="window_max"):
        muckenhoupt_constant(16, [2.0], window_max=-3)


def _window_sup_loop(n, p, t0, m_max):
    """The nested-window sup as a plain loop over m, from public functions.

    Each window's q-power sum is taken relative to the window's smallest
    magnitude, so that it stays finite for p near 1.
    """
    q = p / (p - 1.0)
    k = np.arange(-m_max, m_max + 2)
    zs = level_point(LevelCurve(n), t0 + k * np.pi / (128 * (n + 1)))
    lv = log_abs_omega(build_raw(n), zs)[:-1]
    lv = lv - lv.mean()
    w = np.abs(np.diff(zs))
    best = 1.0
    for m in range(1, m_max + 1):
        sl = slice(m_max - m, m_max + m)
        length, low = w[sl].sum(), lv[sl].min()
        val = ((w[sl] * np.exp(p * lv[sl])).sum() / length) ** (1.0 / p) * (
            (w[sl] * np.exp(-q * (lv[sl] - low))).sum() / length
        ) ** (1.0 / q) * np.exp(-low)
        best = max(best, float(val))
    return best


@pytest.mark.parametrize("n", [16, 33])
@pytest.mark.parametrize("p", [2.0, 4.0, 8.0, 1.01, 1.001])
def test_muckenhoupt_matches_window_loop(n, p):
    # one call per degree covers all the exponents; check the record for p,
    # which must stay finite near p = 1, where q = p/(p-1) is large
    ps = (2.0, 4.0, 8.0, 1.01, 1.001)
    rec = muckenhoupt_constant(n, ps, window_max=300)[ps.index(p)]
    assert rec.p == p
    ref = _window_sup_loop(n, p, rec.location, rec.settings["window_max"])
    # the loop sums each window directly instead of differencing cumsums
    assert rec.value == pytest.approx(ref, rel=1e-12)
    assert [r.value for r in muckenhoupt_constant(n, ps, window_max=0)] == [1.0] * len(ps)


@pytest.mark.parametrize("n", [16, 512])
def test_muckenhoupt_centre_is_the_upper_twin(n):
    # the scan minimum comes as a pair of twin samples +-t, and rounding makes the one at t < 0
    # smaller at n = 512 and the one at t > 0 at n = 16; the centre is t >= 0 either way
    curve = LevelCurve(n)
    tg, lw = metrics._level_scan(build_raw(n).points, curve)
    i = np.argmin(lw)
    assert tg[len(tg) - i] == -tg[i] and (tg[i] < 0) == (n == 512)
    (rec,) = muckenhoupt_constant(n, [2.0], window_max=0)
    assert rec.location == abs(tg[i])


def test_muckenhoupt_records_follow_ps_and_match_single_calls():
    ps = (8.0, 2.0, 1.5)
    recs = muckenhoupt_constant(33, ps, window_max=300)
    assert [rec.p for rec in recs] == list(ps)
    for p, rec in zip(ps, recs):
        (single,) = muckenhoupt_constant(33, [p], window_max=300)
        assert rec.value.hex() == single.value.hex()
        assert rec.location.hex() == single.location.hex()
        assert rec.settings == single.settings


@pytest.mark.parametrize("ps", [[2.0], [8.0, 2.0, 1.5, 4.0, 3.0]])
def test_muckenhoupt_one_scan_and_one_window_for_all_ps(monkeypatch, ps):
    calls = []
    real = metrics.log_abs_omega

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(metrics, "log_abs_omega", counted)
    assert len(muckenhoupt_constant(16, ps, window_max=64)) == len(ps)
    assert len(calls) == 2  # the level scan and the window


def test_muckenhoupt_domain_error():
    for ps in ([1.0], [], [2.0, 1.0], [np.inf], [2.0, np.nan]):
        with pytest.raises(ValueError):
            muckenhoupt_constant(16, ps)
    for p in (1.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            mz_ratio(16, p)


def test_mz_ratio_degree_zero():
    rec = mz_ratio(0, 2.0)
    d = dist_to_level(0j, LevelCurve(0), [0.0, np.pi, -np.pi])
    assert rec.value == pytest.approx(arc_length() / d, rel=1e-6)


def test_mz_ratio_finite_and_worst_dominates():
    fam_n = 16
    rec = mz_ratio(fam_n, 2.0)
    assert np.isfinite(rec.value) and rec.value > 0
    worst = mz_ratio_worst(fam_n, 2.0, [int(rec.location), 0, 3])
    assert worst.value >= rec.value - 1e-12


@pytest.mark.parametrize("n", [16, 33])
@pytest.mark.parametrize("p", [2.0, 4.0])
def test_mz_ratio_worst_is_the_first_max_of_mz_ratio(n, p):
    ks = [3, 0, n // 2, 3, n]
    fam = build_adjusted(n)
    first = max((mz_ratio(n, p, k=k, family=fam) for k in ks), key=lambda rec: rec.value)  # the first of equal maxima
    worst = mz_ratio_worst(n, p, ks)
    assert (worst.value, worst.location) == (first.value, first.location)
    assert worst.settings == dict(first.settings, k_subset=ks)


def test_quad_one_level_for_low_degrees():
    # c_14 = c_15 = 0 up to rounding for degree <= 13: 16 points per interval; the 1e-16 gap is skipped
    val, points = metrics.quad(lambda s: 1.0 + 3.0 * s**2 + s**13, np.array([-1.0, -1.0 + 1e-16, 0.5, 2.0]), 1e-8)
    assert val == pytest.approx(3.0 + 9.0 + (2.0**14 - 1.0) / 14.0, rel=1e-14)
    assert points == 32


def test_quad_refines_toward_a_kink():
    # |s|^1.5 has the kink that |P_{n,k}|^p has at a node for p = 1.5
    val, points = metrics.quad(lambda s: np.abs(s) ** 1.5, np.array([-1.0, 0.0, 1.0]), 1e-8)
    assert val == pytest.approx(0.8, rel=1e-13)
    assert 32 < points < 2000


def test_quad_stops_on_an_integrand_it_cannot_resolve():
    rng = np.random.default_rng(0)
    val, points = metrics.quad(lambda s: rng.random(len(s)), np.array([0.0, 0.5, 1.0]), 1e-20)
    assert 0.4 < val < 0.6
    assert points <= 16 * 2 * (1 + metrics._MAX_PANELS)


def test_quad_columns_match_scalar_quad():
    # each column of one quad has the (integral, points) of a quad of that column alone
    def check(func, breaks, rtol, cols):
        vals, counts = metrics.quad(func, breaks, rtol)
        assert vals.shape == counts.shape == (len(cols),)
        for c, col in enumerate(cols):
            assert (vals[c], counts[c]) == metrics.quad(col, breaks, rtol)
        return counts

    def smooth(s):
        return 1.0 + 3.0 * s**2 + s**13

    def kink(s):
        return np.abs(s) ** 1.5

    def unresolved(s):
        return np.sin(1e7 * s)

    counts = check(lambda s: np.stack([smooth(s), kink(s)], axis=1), np.array([-1.0, 0.0, 1.0]), 1e-8, [smooth, kink])
    assert counts[0] == 32 < counts[1]  # one level next to several
    # every panel of the oscillating column fails until its 400 halvings run out at the level of 128 panels
    counts = check(lambda s: np.stack([kink(s), unresolved(s)], axis=1), np.array([0.0, 0.5, 1.0]), 1e-20,
                   [kink, unresolved])
    assert counts[1] == 16 * (2 + 4 + 8 + 16 + 32 + 64 + 128)
    for n in (16, 33, 64):
        fam = build_adjusted(n)
        ks = [3, 0, n // 2, 3, n]
        func, breaks = metrics._basis_powers(fam, 3.5, ks)
        cols = [lambda s, k=k: metrics._basis_powers(fam, 3.5, [k])[0](s)[:, 0] for k in ks]
        check(func, breaks, 1e-8, cols)


def test_mz_ratio_any_tolerance_terminates():
    ref = mz_ratio(16, 3.5, k=5)
    start = time.perf_counter()
    tight = mz_ratio(16, 3.5, k=5, quad_tol=1e-20)
    assert time.perf_counter() - start < 1.0
    assert tight.value == pytest.approx(ref.value, rel=1e-12)
    assert ref.settings["quad_points"] <= tight.settings["quad_points"] < 4 * ref.settings["quad_points"]


def test_mz_ratio_counts_its_points_and_evaluates_them_in_blocks(monkeypatch):
    sizes = []
    kernel = metrics._pair_logs

    def counted(zs, pts, reduce):  # only the integrand reaches the kernel through metrics
        sizes.append(len(zs))
        return kernel(zs, pts, reduce)

    monkeypatch.setattr(metrics, "_pair_logs", counted)
    rec = mz_ratio(16, 3.5)
    assert rec.settings["quad_points"] == sum(sizes)
    assert len(sizes) < 10  # one kernel call per level of panels


def test_mz_ratio_refuses_a_node_index_out_of_range():
    for k in (17, -1):
        with pytest.raises(ValueError, match=r"outside 0\.\.16"):
            mz_ratio(16, 2.0, k=k)
    with pytest.raises(ValueError, match=r"outside 0\.\.16"):
        mz_ratio_worst(16, 2.0, [3, -1])


def test_lone_node_is_separated():
    assert separation_ok(0, build_adjusted(0), 0)


def test_separation_refuses_an_index_outside_the_nodes():
    fam = build_adjusted(16)
    for k in (17, -1):  # numpy would raise IndexError at 17 and answer for node 16 at -1
        with pytest.raises(ValueError, match=rf"node index k = {k} is outside 0\.\.16"):
            separation_ok(16, fam, k)
    assert [type(separation_ok(16, fam, k)) for k in (0, 16)] == [bool, bool]


def test_family_of_another_degree_is_refused():
    fam = build_adjusted(32)
    for call in (lambda: mz_ratio(16, 2.0, family=fam), lambda: choose_ratio_index(16, fam),
                 lambda: separation_ok(16, fam, 3)):
        with pytest.raises(ValueError, match="degree 32, not n = 16"):
            call()


def test_fit_affine_recovery():
    ns = [16, 32, 64, 128, 256]
    vals = [(0.4 + 0.11 * np.log(n)) * np.log(n) for n in ns]
    fit = fit_growth(list(zip(ns, vals)), "affine_in_logn")
    assert fit.a == pytest.approx(0.4, abs=1e-9)
    assert fit.b == pytest.approx(0.11, abs=1e-9)
    assert fit.residual_rms < 1e-10


def test_fit_power_law_recovery():
    rng = np.random.default_rng(4)
    ns = np.array([16, 32, 64, 128, 256, 512, 1024])
    vals = 3.0 + 0.5 * ns**0.65 + rng.normal(scale=1e-3, size=len(ns))
    fit = fit_growth(list(zip(ns, vals)), "power_law")
    assert abs(fit.beta - 0.65) < 0.05
    assert abs(fit.a - 3.0) < 0.2
    assert abs(fit.b - 0.5) < 0.1


def test_fit_errors():
    with pytest.raises(ValueError):
        fit_growth([(16, 1.0), (32, 2.0)], "power_law")
    with pytest.raises(ValueError):
        fit_growth([(16, 1.0), (32, 2.0), (64, 3.0)], "parabola")
    with pytest.raises(ValueError, match="n = 1"):
        fit_growth([(1, 1.0), (16, 2.0), (32, 3.0)], "affine_in_logn")
    # one degree observed twice, as in an A_p table at several exponents: one fit would pool the series
    with pytest.raises(ValueError, match="n = 16 is in more than one record"):
        fit_growth([(16, 1.0), (16, 2.0), (32, 3.0), (64, 4.0)], "power_law")
