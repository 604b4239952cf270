"""Headline metrics: Lebesgue constants, level-curve extrema, Muckenhoupt
A_p constants, Marcinkiewicz-Zygmund ratios, and growth-law fits.

No scipy runs here: every polish and the power-law fit use the port of
scipy's bounded Brent in `_brent`, and `mz_ratio` integrates with the
panel Gauss-Legendre rule `quad`.  The two keep the module-level names
`minimize_scalar` and `quad`, and are called through them, because
bench/tracer.py wraps those names to count polish evaluations and
integrand calls (until its counters move into the program, ROADMAP
item 1(b)).
"""

import functools
from dataclasses import dataclass, field

import numpy as np

from ._brent import minimize_bounded as minimize_scalar
from .conformal import (
    CORNER_ANGLE,
    ENDPOINT_RADIUS,
    LevelCurve,
    arm_point,
    boundary_point,
    dist_to_level,
    level_point,
)
from .families import NodeFamily, build_adjusted, build_raw, theta_grid
from .fold import fold_sister
from .nodal import (
    _pair_logs,
    build_derivative_table,
    lebesgue_function,
    lebesgue_function_grid,
    log_abs_omega,
)


@dataclass
class MetricRecord:
    """One experiment outcome, with the settings needed to reproduce it."""

    metric_name: str
    n: int
    family_kind: str
    value: float
    p: float = None
    location: float = None
    settings: dict = field(default_factory=dict)


@dataclass
class FitResult:
    """Coefficients and residual of a growth-law regression."""

    model: str  # "affine_in_logn" or "power_law"
    a: float
    b: float
    beta: float = None
    residual_rms: float = 0.0
    n_range: tuple = ()

    def predict(self, n) -> float:
        """The fitted value at degree n: (a + b*log n)*log n or a + b*n^beta."""
        if self.model == "affine_in_logn":
            return float((self.a + self.b * np.log(n)) * np.log(n))
        return float(self.a + self.b * n**self.beta)


# ---------------------------------------------------------------------------
# Lebesgue constant
# ---------------------------------------------------------------------------


def _polish(g, t, v, lo, hi, xatol):
    """(value, location) of the bounded-Brent minimum of g on [lo, hi], or
    of the grid sample v = g(t) unless the minimum is strictly below it."""
    res = minimize_scalar(g, (lo, hi), xatol=xatol)
    return (float(res.fun), float(res.x)) if res.fun < v else (float(v), float(t))


def _arc_samples(f: NodeFamily, grid_per_gap: int):
    """grid_per_gap folded angles inside every gap between the nodes and the
    arc's ends, over the whole arc [-2pi/3, 2pi/3], and their mean step."""
    knots = np.unique(np.concatenate([[-CORNER_ANGLE, CORNER_ANGLE], np.sort(f.folded)]))
    gap = np.diff(knots)
    keep = gap >= 1e-14
    frac = np.arange(1, grid_per_gap + 1) / (grid_per_gap + 1.0)
    ts = (knots[:-1][keep, None] + gap[keep, None] * frac).ravel()
    return ts, (knots[-1] - knots[0]) / len(ts)


REFINE_TOL = 1e-9  # Brent's tolerance on the angle of a polished Lebesgue maximum


def lebesgue_constant(f: NodeFamily, grid_per_gap: int = 64) -> MetricRecord:
    """Max of the Lebesgue function over the arc, searched on the upper arm.

    The node set must be conjugate-symmetric (ValueError otherwise), so
    the Lebesgue function takes the same value at z and at its conjugate
    and the max over the arc is the max over the upper arm, folded
    t in [0, 2pi/3].  Samples grid_per_gap points inside every
    folded-angle gap of the whole arc, keeps the samples with t >= 0,
    then polishes the five best within two grid steps, inside the upper
    arm, to REFINE_TOL in the angle; the corner t = 0 is a candidate too.
    """
    settings = {"grid_per_gap": grid_per_gap, "refine_tol": REFINE_TOL}
    if grid_per_gap < 8:
        raise ValueError("grid_per_gap must be >= 8")
    if not np.array_equal(np.sort_complex(f.points), np.sort_complex(f.points.conj())):
        raise ValueError("the upper-arm search needs a conjugate-symmetric node set")
    table = build_derivative_table(f)

    ts, h = _arc_samples(f, grid_per_gap)
    ts = ts[ts >= 0.0]
    lam = lebesgue_function_grid(f, table, boundary_point(ts))

    def neg(t):
        return -lebesgue_function(f, table, complex(boundary_point(t)))

    # Brent never evaluates a bracket's ends, so the corner t = 0, where
    # the clamped brackets end, is a candidate of its own
    best_val, best_t = -neg(0.0), 0.0
    for i in np.argsort(lam)[::-1][:5]:
        lo, hi = max(ts[i] - 2 * h, 0.0), min(ts[i] + 2 * h, CORNER_ANGLE)
        v, t = _polish(neg, ts[i], -lam[i], lo, hi, REFINE_TOL)
        if -v > best_val:
            best_val, best_t = -v, t
    return MetricRecord("lebesgue_constant", f.n, f.kind, best_val, location=best_t, settings=settings)


def lower_bound_witness(n: int) -> MetricRecord:
    """Lebesgue sum of the raw family at the midpoint of the first gap.

    The evaluation point t0 = (theta_0 + theta_1)/2 sits where the basis
    magnitudes pile up; both the full sum and the partial sum over the
    nodes k = 0..n//6 grow like log^2(n).  settings["partial_upto"] is
    n//6, the last index the partial sum includes.
    """
    if n < 6:
        raise ValueError("witness needs n >= 6")
    f = build_raw(n)
    table = build_derivative_table(f)
    th = theta_grid(n)
    t0 = (th[0] + th[1]) / 2.0
    z0 = complex(boundary_point(t0))
    full = lebesgue_function(f, table, z0)
    partial = lebesgue_function(f, table, z0, upto=n // 6 + 1)
    return MetricRecord("lower_bound_witness", n, "raw", full, location=t0,
                        settings={"partial_sum": partial, "partial_upto": n // 6})


# ---------------------------------------------------------------------------
# Level-curve extrema
# ---------------------------------------------------------------------------


def _level_scan(points, curve: LevelCurve):
    """64(n+1) uniform angles on [-pi, pi) and log|omega| at the level-curve points there.

    The one scan behind the level-curve extrema, the A_p window centre
    and the ratio index.
    """
    tg = np.linspace(-np.pi, np.pi, 64 * (curve.n + 1), endpoint=False)
    return tg, log_abs_omega(points, level_point(curve, tg))


def _level_min_angle(points, curve: LevelCurve) -> float:
    """The angle t0 >= 0 of the level-scan minimum: |t| for the scan's argmin t.

    The node sets are conjugate-symmetric, so the minimum comes as a pair
    +-t0 that ties up to rounding; taking |t| keeps every result built on
    t0 independent of which twin rounding makes smaller.
    """
    tg, lw = _level_scan(points, curve)
    return abs(float(tg[np.argmin(lw)]))


def level_minmax(n: int, convention: str = "one_over_n_plus_1"):
    """Min and max of the raw-family nodal magnitude over the level curve.

    Uniform angle sampling, then `_polish` at both extremal samples.
    Returns a (min_record, max_record) pair.
    """
    fam = build_raw(n)
    curve = LevelCurve(n, convention)
    tg, lw = _level_scan(fam.points, curve)
    h = 2.0 * np.pi / len(tg)

    imin, imax = int(np.argmin(lw)), int(np.argmax(lw))

    def log_omega(t):
        return log_abs_omega(fam.points, complex(level_point(curve, t)))

    lw_min, t_min = _polish(log_omega, tg[imin], lw[imin], tg[imin] - h, tg[imin] + h, 1e-12)
    neg_max, t_max = _polish(lambda t: -log_omega(t), tg[imax], -lw[imax], tg[imax] - h, tg[imax] + h, 1e-12)
    settings = {"samples": len(tg), "rho_convention": convention}
    rec_min = MetricRecord("level_min", n, fam.kind, float(np.exp(lw_min)), location=t_min, settings=settings)
    rec_max = MetricRecord("level_max", n, fam.kind, float(np.exp(-neg_max)), location=t_max, settings=settings)
    return rec_min, rec_max


# ---------------------------------------------------------------------------
# Muckenhoupt A_p constant
# ---------------------------------------------------------------------------


WINDOW_STEP_DENOM = 128  # window step pi/(128(n+1)) on the level curve


def muckenhoupt_constant(n: int, ps, window_max: int = None) -> list:
    """Discrete sups of the A_p window functional of |omega_n| on the level curve.

    Returns one record per exponent in ps, in the order of ps: the
    window does not depend on p, so it is evaluated once for all of them.
    The window centre is the level-scan minimum t0 (`_level_min_angle`).
    The level curve of the raw family is stepped by
    pi/(WINDOW_STEP_DENOM*(n+1)) around t0; the sup runs over nested
    windows centered at t0, up to window_max steps per side.  Arc-length
    weights |z_{k+1} - z_k| discretize the integrals, and the log of the
    magnitude is mean-centered first (the functional is scale invariant)
    to keep the powers representable; the q-power sums are taken relative
    to the smallest magnitude, so that they cannot overflow as p
    approaches 1.
    """
    ps = list(ps)
    if not ps or not all(1 < p < np.inf for p in ps):
        raise ValueError("need at least one exponent, each finite and exceeding 1")
    fam = build_raw(n)
    curve = LevelCurve(n)
    t0 = _level_min_angle(fam.points, curve)

    step = np.pi / (WINDOW_STEP_DENOM * (n + 1))
    cap = min(8192, WINDOW_STEP_DENOM * (n + 1) // 2)
    m_max = cap if window_max is None else min(window_max, cap)
    k = np.arange(-m_max, m_max + 2)
    zs = level_point(curve, t0 + k * step)
    lv = log_abs_omega(fam.points, zs)
    w = np.abs(np.diff(zs))
    lv = lv[:-1] - lv[:-1].mean()
    cw = np.concatenate([[0.0], np.cumsum(w)])

    # nested windows m = 1..m_max steps per side; the sup starts at 1 and,
    # like max(best, val), skips NaN windows
    lo, hi = m_max - np.arange(1, m_max + 1), m_max + np.arange(1, m_max + 1)
    length = cw[hi] - cw[lo]
    settings = {"window_step_denom": WINDOW_STEP_DENOM, "window_max": m_max, "rho_convention": curve.convention}
    low = lv.min()
    records = []
    for p in ps:
        q = p / (p - 1.0)
        with np.errstate(over="ignore"):
            cp = np.concatenate([[0.0], np.cumsum(w * np.exp(p * lv))])
        cq = np.concatenate([[0.0], np.cumsum(w * np.exp(-q * (lv - low)))])
        with np.errstate(invalid="ignore", over="ignore"):
            val = ((cp[hi] - cp[lo]) / length) ** (1.0 / p) * ((cq[hi] - cq[lo]) / length) ** (1.0 / q)
        best = float(np.fmax.reduce(val * np.exp(-low), initial=1.0))
        records.append(MetricRecord("muckenhoupt_constant", n, fam.kind, best, p=p, location=t0, settings=dict(settings)))
    return records


# ---------------------------------------------------------------------------
# Marcinkiewicz-Zygmund ratios
# ---------------------------------------------------------------------------


_ABS_TOL = 1e-12  # absolute error target of one quad call, shared among its panels by length
_MAX_PANELS = 200  # panels that halving may add per break interval, as scipy's quad limit


@functools.cache
def _gauss_legendre():
    """The 16-point rule on [-1, 1], and the (16, 2) matrix mapping its samples
    to their Legendre coefficients c_14 and c_15; built on first use."""
    from numpy.polynomial.legendre import leggauss, legvander

    x, w = leggauss(16)
    return x, w, w[:, None] * legvander(x, 15)[:, 14:] * np.array([14.5, 15.5])  # c_j = (j + 1/2) sum w P_j f


def quad(func, breaks, rtol):
    """(integral, points) of func over [breaks[0], breaks[-1]] by 16-point
    Gauss-Legendre panels between the breaks, halved where needed.

    Each level calls func once, on the points of every open panel.  A
    panel's error estimate is its length times |c_14| + |c_15| of its own
    samples; it is accepted once that is at most max(rtol, 64 ulp) times
    its integral or its length's share of _ABS_TOL, or once halving has
    added _MAX_PANELS per break interval.  Gaps under 1e-15 are skipped.
    """
    x, w, tail = _gauss_legendre()
    keep = np.diff(breaks) >= 1e-15
    lo, half = breaks[:-1][keep], np.diff(breaks)[keep] / 2.0
    rtol, atol = max(rtol, 64 * np.finfo(float).eps), 2.0 * _ABS_TOL / (breaks[-1] - breaks[0])
    budget, total, points = _MAX_PANELS * len(lo), 0.0, 0
    while len(lo):
        f = func(((lo + half)[:, None] + half[:, None] * x).ravel()).reshape(len(lo), -1)
        points += f.size
        val = half * (f @ w)
        done = 2.0 * half * np.abs(f @ tail).sum(axis=1) <= np.maximum(rtol * val, atol * half)
        budget -= 2 * np.count_nonzero(~done)
        done |= budget < 0
        total += val[done].sum()
        lo, half = np.concatenate([lo[~done], lo[~done] + half[~done]]), np.tile(half[~done] / 2.0, 2)
    return total, points


def _check_degree(n: int, family: NodeFamily):
    """Refuse a family of another degree, whose result would be right for neither."""
    if family.n != n:
        raise ValueError(f"the family has degree {family.n}, not n = {n}")


def choose_ratio_index(n: int, family: NodeFamily) -> int:
    """Node index nearest the level-curve minimum of the nodal magnitude,
    at the level-scan minimum t0 (`_level_min_angle`), the A_p window centre."""
    _check_degree(n, family)
    curve = LevelCurve(n)
    zmin = complex(level_point(curve, _level_min_angle(family.points, curve)))
    return int(np.argmin(np.abs(family.points - zmin)))


def mz_ratio(n: int, p: float, k: int = None, quad_tol: float = 1e-8, family: NodeFamily = None) -> MetricRecord:
    """Arc integral of |P_{n,k}|^p divided by the node's level-curve distance.

    P_{n,k} is the canonical Lagrange basis element of `family`, by
    default the adjusted family of degree n.  The integral runs over both
    arm segments with `quad`, on panels between the node positions, each
    level of panels in one call of the pair kernel; quad_tol is the
    relative error target per panel and settings["quad_points"] counts
    the points evaluated.
    """
    if not 1 < p < np.inf:
        raise ValueError("p must be finite and exceed 1")
    fam = family if family is not None else build_adjusted(n)
    _check_degree(n, fam)
    if k is None:
        k = choose_ratio_index(n, fam)
    pts = fam.points
    log_dk = build_derivative_table(fam).logs[k]

    def basis_power(ld, rows):  # |P_{n,k}|^p at the rows' points
        return np.exp(p * (ld.sum(axis=1) - log_dk - ld[:, k]))

    # s in [-1, 0] is the lower arm and s in [0, 1] the upper one, each at fraction |s| of its length
    breaks = np.unique(np.concatenate([[-1.0, 0.0, 1.0], np.sign(fam.folded) * np.abs(pts) / ENDPOINT_RADIUS]))
    total, points = quad(lambda s: _pair_logs(arm_point(np.sign(s), np.abs(s)), pts, basis_power), breaks, quad_tol)
    total *= ENDPOINT_RADIUS  # |dz| = 27^(1/4) ds on each segment

    curve, t = LevelCurve(n), float(fam.angles[k])
    d = dist_to_level(complex(pts[k]), curve, [t, fold_sister(t)])
    settings = {"integral": total, "dist": d, "quad_tol": quad_tol, "quad_points": points,
                "rho_convention": curve.convention}
    return MetricRecord("mz_ratio", n, fam.kind, total / d, p=p, location=k, settings=settings)


def mz_ratio_worst(n: int, p: float, k_subset) -> MetricRecord:
    """Max of mz_ratio over a subset of node indices; the first of equal maxima."""
    k_subset = list(k_subset)
    if not k_subset:
        raise ValueError("k_subset must be nonempty")
    fam = build_adjusted(n)
    best = max((mz_ratio(n, p, k=k, family=fam) for k in k_subset), key=lambda rec: rec.value)
    return MetricRecord("mz_ratio_worst", n, fam.kind, best.value, p=p, location=best.location,
                        settings=dict(best.settings, k_subset=k_subset))


def separation_ok(n: int, family: NodeFamily, k: int) -> bool:
    """Whether node k keeps the full folded separation from its neighbors.

    Ratios at poorly separated indices spike by orders of magnitude and
    drown any growth-law fit; sweeps filter on this predicate.
    """
    _check_degree(n, family)
    gaps = np.abs(np.delete(family.folded, k) - family.folded[k])
    return (n + 1) * gaps.min() >= 2.0 * np.pi / 3.0 - 1e-9


# ---------------------------------------------------------------------------
# Growth-law fits
# ---------------------------------------------------------------------------


def _affine_lstsq(x, y):
    """Least-squares (a, b) of y ~ a + b*x, and the residuals."""
    design = np.column_stack([np.ones_like(x), x])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    return coef, y - design @ coef


def fit_growth(records, model: str) -> FitResult:
    """Least-squares growth law through (n, value) observations.

    affine_in_logn fits value/log(n) = a + b*log(n); power_law fits
    value = a + b*n^beta with a scalar search over beta and linear least
    squares inside.
    """
    ns, vals = np.asarray(records, dtype=float).reshape(-1, 2).T
    bad = ~(np.isfinite(ns) & np.isfinite(vals))
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"non-finite observation (n, value) = ({ns[i]:g}, {vals[i]:g}) cannot be fitted")
    repeated = [n for i, n in enumerate(ns) if n in ns[:i]]
    if repeated:  # e.g. one degree at several exponents, which one fit would pool
        raise ValueError(f"degree n = {repeated[0]:g} is in more than one record; fit one series at a time")
    if len(ns) < 3:
        raise ValueError("need at least 3 records to fit")
    n_range = (int(ns.min()), int(ns.max()))

    if model == "affine_in_logn":
        if ns.min() < 2:
            raise ValueError(f"affine_in_logn divides by log(n) and needs n >= 2, got n = {int(ns.min())}")
        x = np.log(ns)
        y, beta = vals / x, None
    elif model == "power_law":
        def sse(beta):
            r = _affine_lstsq(ns**beta, vals)[1]
            return float(r @ r)

        res = minimize_scalar(sse, (0.05, 2.0), xatol=1e-6)
        beta = float(res.x)
        x, y = ns**beta, vals
    else:
        raise ValueError(f"unknown model {model!r}")
    (a, b), resid = _affine_lstsq(x, y)
    return FitResult(model, float(a), float(b), beta=beta,
                     residual_rms=float(np.sqrt(np.mean(resid**2))), n_range=n_range)
