"""Headline metrics: Lebesgue constants, level-curve extrema, Muckenhoupt
A_p constants, Marcinkiewicz-Zygmund ratios, and growth-law fits.

No scipy runs here: the level polish and the power-law fit use the port
of scipy's bounded Brent in `_brent`, under the module-level name
`minimize_scalar`, and `mz_ratio` integrates with the panel
Gauss-Legendre rule `quad`; bench/tracer.py wraps both names to count
their evaluations.  The Lebesgue maximum is not polished: its sample
chain zooms until the maximum is bracketed (`lebesgue_constant`).
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
    _derivative_logs,
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


def _arc_samples(f: NodeFamily, grid_per_gap: int):
    """grid_per_gap folded angles inside every gap between the nodes and the
    arc's ends, over the whole arc [-2pi/3, 2pi/3]."""
    knots = np.unique(np.concatenate([[-CORNER_ANGLE, CORNER_ANGLE], np.sort(f.folded)]))
    gap = np.diff(knots)
    keep = gap >= 1e-14
    frac = np.arange(1, grid_per_gap + 1) / (grid_per_gap + 1.0)
    return (knots[:-1][keep, None] + gap[keep, None] * frac).ravel()


_PRUNE_STRIDES = (16, 8, 4, 2, 1)  # chain points evaluated first, then in each open cell per level
_PRUNE_SLACK = 0.25  # widest n*delta/2 between neighbouring chain points; wider gaps get extra points
_NARROW = 0.8  # widest n*delta/2 of a cell that enters U and gets a finite bound
_ZOOM_TOL = 1e-13  # a cell is zoomed while its bound on the max exceeds the best value by this, relatively
_ZOOM_PARTS = 8  # pieces of a zoomed cell


def _prune_margin(n):
    """Relative margin on each cell bound and on U at degree n.

    It covers the rounding of a Lebesgue sample: the kernel's logs, ~n eps,
    and its point's own rounding, which Markov's inequality amplifies by at
    most ~2n^2 eps near the arm's end, and the rounding of theta.  It is
    1e-6 up to n = 2^15 (4n^2 eps = 9.5e-7 there), and 4n^2 eps, twice that
    point rounding, above, where 2n^2 eps alone passes 1e-6 near n = 2^16.
    """
    return max(1e-6, 4.0 * n * n * np.finfo(float).eps)


def _pruned_chain(values, ranked, evaluate, bound):
    """values of a chain of samples, evaluated only where they may exceed its largest ranked value.

    `values` holds the chain in order, NaN where not yet evaluated, and
    `ranked` marks the points that compete; evaluate(idx) gives the
    values at chain indices idx.  A cell lies between two evaluated
    neighbours a < b, and bound(a, b, va, vb) gives, for each cell, a
    bound on every value inside it.  A cell is open while it has an
    unevaluated point and its bound reaches the largest ranked value so
    far.  The last point and every _PRUNE_STRIDES[0]-th one are
    evaluated first, then, for each further stride s, the next multiple
    of s in each open cell; after the last stride every open cell is
    evaluated whole until none is open, so each point left out is below
    its final cell's bound, which is below the largest ranked value.
    The points left out are -inf in the result.
    """
    known = ~np.isnan(values)

    def run(idx):
        idx = idx[~known[idx]]
        if len(idx):
            values[idx] = evaluate(idx)
            known[idx] = True

    def open_cells():
        k = np.flatnonzero(known)
        a, b = k[:-1], k[1:]
        best = np.max(values[ranked & known], initial=-np.inf)
        shut = (b - a == 1) | (bound(a, b, values[a], values[b]) < best)
        return a[~shut], b[~shut]

    run(np.unique(np.r_[0 : len(values) : _PRUNE_STRIDES[0], len(values) - 1]))
    for s in _PRUNE_STRIDES[1:]:
        a, b = open_cells()
        nxt = (a // s + 1) * s
        run(nxt[nxt < b])
    while len((cells := open_cells())[0]):
        run(np.concatenate([np.arange(a + 1, b) for a, b in zip(*cells)]))
    values[~known] = -np.inf
    return values


def _arm_angle(t):
    """theta in [0, pi] of boundary_point(t) for folded t in [0, 2pi/3]:
    the upper-arm point 27^(1/4) e^{3pi i/4} (1 + cos theta)/2.

    s = (1 + cos theta)/2 = |z|/27^(1/4) is sqrt(8 sin t sin^2(t/2)/sqrt(27)),
    and 1 - s^2 is a sum in w = 2pi/3 - t with no cancelling terms, so
    theta = 2 atan2(sqrt(1 - s), sqrt(s)) is good to a few ulps of pi,
    also at both ends, where theta from |z| alone loses 1e-11.
    """
    w = CORNER_ANGLE - t
    sh = np.sin(w / 2.0) ** 2
    s = np.sqrt(8.0 * np.sin(t) * np.sin(t / 2.0) ** 2 / np.sqrt(27.0))
    one_minus_s2 = (4.0 * sh + 2.0 * np.sin(w) ** 2) / 3.0 - 4.0 / np.sqrt(27.0) * np.sin(w) * sh
    return 2.0 * np.arctan2(np.sqrt(one_minus_s2 / (1.0 + s)), np.sqrt(s))


def _arm_chain(n, ts):
    """Arm angles theta, folded angles t and a sample mask of the chain from
    the corner t = 0 through the upper-arm samples ts (ascending) to the
    endpoint t = 2pi/3.

    Gaps wider than n delta/2 = _PRUNE_SLACK, next to the corner, where
    theta is steep in t, get equispaced extra points in theta, whose t is NaN.
    """
    tt = np.concatenate([[0.0], ts, [CORNER_ANGLE]])
    th = _arm_angle(tt)
    parts = np.ceil(n * -np.diff(th) / (2.0 * _PRUNE_SLACK)).astype(int).clip(1)
    gap = np.repeat(np.arange(len(parts)), parts)
    j = np.arange(len(gap)) - np.repeat(np.cumsum(parts) - parts, parts)  # rank in its gap
    theta = np.append(th[gap] - (th[gap] - th[gap + 1]) * j / parts[gap], th[-1])
    sample = np.append(j == 0, True)
    t = np.full(len(theta), np.nan)
    t[sample] = tt
    return theta, t, sample


def _szego(half, va, vb, margin):
    """U, and a bound on the Lebesgue function in each cell of the upper-arm chain.

    A cell has half-width half = n delta/2 in theta and the values va, vb
    at its ends.  For every sign pattern c, Re sum c_k l_k is a real
    cosine polynomial of degree n in theta, bounded by U >= max of the
    Lebesgue function, so by Szego's T'^2 + n^2 T^2 <= n^2 U^2 each
    arccos(Re sum c_k l_k / U) is n-Lipschitz in theta, and so is their
    min, arccos(lambda/U).  Inside the cell lambda therefore stays below
    U cos(max(0, (arccos(va/U) + arccos(vb/U))/2 - half)).  In the cell
    holding the max, one end lies within half of it in arccos(lambda/U),
    so the max is at most max(va, vb)/cos(half) there: U is the max of
    that over the narrow cells, half < _NARROW.  The other cells are
    bounded by inf.  U and each bound carry the relative margin for
    rounding (`_prune_margin`).
    """
    narrow = half < _NARROW
    half, va, vb = half[narrow], va[narrow], vb[narrow]
    u = (1.0 + margin) * np.max(np.maximum(va, vb) / np.cos(half), initial=0.0)
    bound = np.full(len(narrow), np.inf)
    phi = (np.arccos(va / u) + np.arccos(vb / u)) / 2.0
    bound[narrow] = (1.0 + margin) * u * np.cos(np.maximum(0.0, phi - half))
    return u, bound


def _zoom(n, theta, t, v, evaluate):
    """(L, its t, U) of the evaluated chain points theta, t, v: its cells zoomed until U meets L.

    A cell between neighbours a and b is split into _ZOOM_PARTS equal
    pieces while max(va, vb)/cos(half), its bound on a max inside it,
    exceeds the best value by more than _ZOOM_TOL relative: in t where
    both ends carry a t, in theta otherwise.  Each round's new points go
    through one call evaluate(theta, t), t NaN at theta-only points.  L
    is the best t-sample; the theta-only points bound cells but are not
    reported.  U is `_szego`'s over the final cells, at most
    L (1 + _ZOOM_TOL)(1 + _prune_margin(n)) unless a theta-only point
    exceeds L.
    """
    frac = np.arange(1, _ZOOM_PARTS) / _ZOOM_PARTS
    while True:
        half = n * (theta[:-1] - theta[1:]) / 2.0
        a = np.flatnonzero(np.maximum(v[:-1], v[1:]) / np.cos(half) > v.max() * (1.0 + _ZOOM_TOL))
        if not len(a):
            break
        ts = (t[a, None] + (t[a + 1] - t[a])[:, None] * frac).ravel()  # NaN in the cells split in theta
        th = (theta[a, None] + (theta[a + 1] - theta[a])[:, None] * frac).ravel()
        on = ~np.isnan(ts)
        th[on] = _arm_angle(ts[on])
        at = np.repeat(a + 1, len(frac))
        theta, t, v = np.insert(theta, at, th), np.insert(t, at, ts), np.insert(v, at, evaluate(th, ts))
    i = np.argmax(np.where(np.isnan(t), -np.inf, v))
    return float(v[i]), float(t[i]), float(_szego(half, v[:-1], v[1:], _prune_margin(n))[0])


def lebesgue_constant(f: NodeFamily, grid_per_gap: int = 64) -> MetricRecord:
    """Max of the Lebesgue function over the arc, searched on the upper arm.

    The node set must be conjugate-symmetric (ValueError otherwise), so
    the Lebesgue function takes the same value at z and at its conjugate
    and the max over the arc is the max over the upper arm, folded
    t in [0, 2pi/3].  The search runs on a chain (`_arm_chain`) from the
    corner t = 0 through grid_per_gap samples inside every folded-angle
    gap of the whole arc, those with t >= 0, to the endpoint t = 2pi/3.

    On the arm z = 27^(1/4) e^{3pi i/4} s with s = (1 + cos theta)/2,
    every sum of c_k l_k(z) with |c_k| = 1 is a cosine polynomial of
    degree n in theta, so by the Bernstein-Szego inequality
    arccos(lambda/U) is n-Lipschitz in theta for any U above the max,
    which bounds lambda inside each cell between evaluated points
    (`_szego`).  Only the chain points that may exceed the best sample
    are evaluated (`_pruned_chain`); then every cell that may still hold
    a max above it is zoomed (`_zoom`).  The value is the best t-sample,
    and settings["bracket"] is [value, U], U a certified bound on the
    max, at most (1 + 2 _prune_margin(n)) times the value.
    settings["grid_samples"] and settings["grid_evaluated"] count the
    grid samples and the evaluated ones.
    """
    if grid_per_gap < 8:
        raise ValueError("grid_per_gap must be >= 8")
    if not np.array_equal(np.sort_complex(f.points), np.sort_complex(f.points.conj())):
        raise ValueError("the upper-arm search needs a conjugate-symmetric node set")
    table = build_derivative_table(f)
    ts = _arc_samples(f, grid_per_gap)
    ts = ts[ts >= 0.0]
    theta, t, sample = _arm_chain(f.n, ts)

    def evaluate(th, tt):  # the points are made per call: the chain holds 8 bytes per point, not 16
        on = ~np.isnan(tt)
        zs = np.empty(len(tt), dtype=complex)
        zs[on] = boundary_point(tt[on])
        zs[~on] = arm_point(1, np.cos(th[~on] / 2.0) ** 2)
        return lebesgue_function_grid(f, table, zs)

    def bound(a, b, va, vb):
        return _szego(f.n * (theta[a] - theta[b]) / 2.0, va, vb, _prune_margin(f.n))[1]

    values = _pruned_chain(np.full(len(theta), np.nan), sample, lambda idx: evaluate(theta[idx], t[idx]), bound)
    known = values > -np.inf
    value, location, cap = _zoom(f.n, theta[known], t[known], values[known], evaluate)
    settings = {"grid_per_gap": grid_per_gap, "grid_samples": len(ts),
                "grid_evaluated": int(np.count_nonzero(known[sample][1:-1])), "bracket": [value, cap]}
    return MetricRecord("lebesgue_constant", f.n, f.kind, value, location=location, settings=settings)


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
    and the ratio index.  The grid is mirror-symmetric: linspace's
    samples from the middle one on, and each earlier sample but -pi the
    exact negative of its twin, tg[N - i] == -tg[i], so that the pair
    kernel evaluates one row of each conjugate pair of level points and
    copies the other.  Those earlier points are taken as the exact
    conjugates of their twins' points, which `level_point` gives them
    anyway, so the map runs only at -pi and from the middle on.
    """
    tg = np.linspace(-np.pi, np.pi, 64 * (curve.n + 1), endpoint=False)
    mid = len(tg) // 2
    tg[1:mid] = -tg[:mid:-1]
    upper = level_point(curve, tg[mid:])
    return tg, log_abs_omega(points, np.concatenate([level_point(curve, tg[:1]), upper[:0:-1].conj(), upper]))


def _level_min_angle(points, curve: LevelCurve) -> float:
    """The angle t0 >= 0 of the level-scan minimum: |t| for the scan's argmin t.

    The node sets are conjugate-symmetric, so the minimum comes as a pair
    +-t0 that ties up to rounding; taking |t| keeps every result built on
    t0 independent of which twin rounding makes smaller.
    """
    tg, lw = _level_scan(points, curve)
    return abs(float(tg[np.argmin(lw)]))


def _polish(g, t, v, lo, hi, xatol):
    """(value, location): the bounded-Brent minimum of g on [lo, hi], or the
    start t, v = g(t) unless that minimum is strictly below v.  g takes an
    array of points: `minimize_scalar` runs the search as a lockstep of one."""
    (r,) = minimize_scalar(g, [(lo, hi)], xatol=xatol).runs
    return (float(r.fun), float(r.x)) if r.fun < v else (float(v), float(t))


def level_minmax(n: int, convention: str = "one_over_n_plus_1"):
    """Min and max of the raw-family nodal magnitude over the level curve.

    Uniform angle sampling, then `_polish` with one start at each
    extremal sample.  Returns a (min_record, max_record) pair.
    """
    fam = build_raw(n)
    curve = LevelCurve(n, convention)
    tg, lw = _level_scan(fam.points, curve)
    h = 2.0 * np.pi / len(tg)

    def polish(sign, i):  # one start, at the scan sample i, on sign * log|omega|
        t = tg[i]
        return _polish(lambda ts: sign * log_abs_omega(fam.points, level_point(curve, ts)),
                       t, sign * lw[i], t - h, t + h, 1e-12)

    lw_min, t_min = polish(1.0, np.argmin(lw))
    neg_max, t_max = polish(-1.0, np.argmax(lw))
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
    if window_max is not None and window_max < 0:
        raise ValueError(f"window_max must be nonnegative, got {window_max}")
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

    func gives one value per point, or a row of K values per point (an
    integrand with K columns); then integral and points are arrays of K.
    Each column keeps its own panels and gets the integral and point
    count that a quad of that column alone gives, bit for bit.  Each level
    calls func once, on the points of every panel open in some column,
    each panel once.  A panel's error estimate is its length times
    |c_14| + |c_15| of its own samples; it is accepted once that is at
    most max(rtol, 64 ulp) times its integral or its length's share of
    _ABS_TOL, or once its column's halving has added _MAX_PANELS per
    break interval.  Gaps under 1e-15 are skipped.
    """
    x, w, tail = _gauss_legendre()
    keep = np.diff(breaks) >= 1e-15
    lo, half = breaks[:-1][keep], np.diff(breaks)[keep] / 2.0
    rtol, atol = max(rtol, 64 * np.finfo(float).eps), 2.0 * _ABS_TOL / (breaks[-1] - breaks[0])
    cols = rows = None  # per column: its open panels' (lo, half), and their rows among the level's panels
    scalar, total, points = True, [0.0], [0]
    while len(lo):
        f = func(((lo + half)[:, None] + half[:, None] * x).ravel())
        scalar = f.ndim == 1
        f = f.reshape(len(lo), len(x), -1).transpose(2, 0, 1)  # (column, panel, point)
        if cols is None:  # every column starts on the same panels
            cols, rows = [(lo, half)] * len(f), [np.arange(len(lo))] * len(f)
            budget, total, points = [_MAX_PANELS * len(lo)] * len(f), [0.0] * len(f), [0] * len(f)
        for c, ((clo, chalf), r) in enumerate(zip(cols, rows)):
            fc = f[c][r]
            points[c] += fc.size
            val = chalf * (fc @ w)
            done = 2.0 * chalf * np.abs(fc @ tail).sum(axis=1) <= np.maximum(rtol * val, atol * chalf)
            budget[c] -= 2 * np.count_nonzero(~done)
            done |= budget[c] < 0
            total[c] += val[done].sum()
            cols[c] = np.concatenate([clo[~done], clo[~done] + chalf[~done]]), np.tile(chalf[~done] / 2.0, 2)
        # the next level's panels: every column's open (lo, half) once, keyed by the complex lo + i half (exact)
        key, inverse = np.unique(np.concatenate([clo + 1j * chalf for clo, chalf in cols]), return_inverse=True)
        lo, half = key.real, key.imag
        rows = np.split(inverse, np.cumsum([len(clo) for clo, _ in cols])[:-1])
    if scalar:
        return total[0], points[0]
    return np.array(total), np.array(points)


def _check_degree(n: int, family: NodeFamily):
    """Refuse a family of another degree, whose result would be right for neither."""
    if family.n != n:
        raise ValueError(f"the family has degree {family.n}, not n = {n}")


def _check_index(n: int, k):
    """Refuse a node index outside 0..n, which numpy would wrap or reject."""
    if not 0 <= k <= n:
        raise ValueError(f"node index k = {k} is outside 0..{n}")


def choose_ratio_index(n: int, family: NodeFamily) -> int:
    """Node index nearest the level-curve minimum of the nodal magnitude,
    at the level-scan minimum t0 (`_level_min_angle`), the A_p window centre."""
    _check_degree(n, family)
    curve = LevelCurve(n)
    zmin = complex(level_point(curve, _level_min_angle(family.points, curve)))
    return int(np.argmin(np.abs(family.points - zmin)))


def _basis_powers(fam: NodeFamily, p: float, ks):
    """The integrand of the MZ integrals of the basis elements ks of fam, and its breaks.

    The integrand takes s in [-1, 0] to the lower arm and s in [0, 1] to the
    upper one, each at fraction |s| of its length, and gives |P_{n,k}|^p
    there for every k in ks: one column per k, from one derivative row set
    and one call of the pair kernel.  The breaks are the node positions.
    """
    pts = fam.points
    ks = np.asarray(ks)
    log_dk = _derivative_logs(pts, ks)

    def reduce(ld, rows):
        return np.exp(p * (ld.sum(axis=1)[:, None] - log_dk - ld[:, ks]))

    breaks = np.unique(np.concatenate([[-1.0, 0.0, 1.0], np.sign(fam.folded) * np.abs(pts) / ENDPOINT_RADIUS]))
    return (lambda s: _pair_logs(arm_point(np.sign(s), np.abs(s)), pts, reduce)), breaks


_QUAD_TOL = 1e-8  # default relative error target per panel of the MZ integrals


def _mz_ratios(n: int, p: float, ks, quad_tol: float, fam: NodeFamily) -> list:
    """The mz_ratio records of fam at the node indices ks, in order.

    One `quad` of an integrand with a column per index, and one
    `dist_to_level` for all the nodes; an index may repeat.
    """
    if not 1 < p < np.inf:
        raise ValueError("p must be finite and exceed 1")
    for k in ks:
        _check_index(n, k)
    func, breaks = _basis_powers(fam, p, ks)
    totals, points = quad(func, breaks, quad_tol)
    totals *= ENDPOINT_RADIUS  # |dz| = 27^(1/4) ds on each segment
    curve, ts = LevelCurve(n), fam.angles[ks]
    dists = dist_to_level(fam.points[ks], curve, np.column_stack([ts, fold_sister(ts)]))
    return [MetricRecord("mz_ratio", n, fam.kind, float(total / d), p=p, location=k,
                         settings={"integral": float(total), "dist": float(d), "quad_tol": quad_tol,
                                   "quad_points": int(count), "rho_convention": curve.convention})
            for k, total, count, d in zip(ks, totals, points, dists)]


def mz_ratio(n: int, p: float, k: int = None, quad_tol: float = _QUAD_TOL, family: NodeFamily = None) -> MetricRecord:
    """Arc integral of |P_{n,k}|^p divided by the node's level-curve distance.

    P_{n,k} is the canonical Lagrange basis element of `family`, by
    default the adjusted family of degree n.  The integral runs over both
    arm segments with `quad`, on panels between the node positions, each
    level of panels in one call of the pair kernel; quad_tol is the
    relative error target per panel and settings["quad_points"] counts
    the points evaluated.  This is `mz_ratio_worst`'s path for one index.
    """
    fam = family if family is not None else build_adjusted(n)
    _check_degree(n, fam)
    if k is None:
        k = choose_ratio_index(n, fam)
    return _mz_ratios(n, p, [k], quad_tol, fam)[0]


def mz_ratio_worst(n: int, p: float, k_subset) -> MetricRecord:
    """Max of mz_ratio over a subset of node indices; the first of equal maxima.

    One pass for the whole subset: one derivative row set, one `quad`
    whose integrand has a column per index and whose levels each make one
    kernel call for all of them, and one distance search.  Each index gets
    the record mz_ratio gives it alone.
    """
    k_subset = list(k_subset)
    if not k_subset:
        raise ValueError("k_subset must be nonempty")
    fam = build_adjusted(n)
    best = max(_mz_ratios(n, p, k_subset, _QUAD_TOL, fam), key=lambda rec: rec.value)
    return MetricRecord("mz_ratio_worst", n, fam.kind, best.value, p=p, location=best.location,
                        settings=dict(best.settings, k_subset=k_subset))


def separation_ok(n: int, family: NodeFamily, k: int) -> bool:
    """Whether node k keeps the full folded separation from its neighbors.

    Ratios at poorly separated indices spike by orders of magnitude and
    drown any growth-law fit; sweeps filter on this predicate.
    """
    _check_degree(n, family)
    _check_index(n, k)
    gaps = np.abs(np.delete(family.folded, k) - family.folded[k])
    return bool((n + 1) * gaps.min(initial=np.inf) >= 2.0 * np.pi / 3.0 - 1e-9)  # a lone node has no neighbour


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

        beta = float(minimize_scalar(lambda bs: [sse(b) for b in bs], [(0.05, 2.0)], xatol=1e-6).runs[0].x)
        x, y = ns**beta, vals
    else:
        raise ValueError(f"unknown model {model!r}")
    (a, b), resid = _affine_lstsq(x, y)
    return FitResult(model, float(a), float(b), beta=beta,
                     residual_rms=float(np.sqrt(np.mean(resid**2))), n_range=n_range)
