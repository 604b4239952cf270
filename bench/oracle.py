"""Independent reference computations for the benchmark's output checks.

Everything here is written from the definitions and imports nothing from
lshapearc: the exterior map of the arc, the raw node grid, the Lebesgue
function, the distance to a level curve, the nested-window A_p
functional and the Lagrange basis integral.  Float64 sums run in log
space; at small degrees the point evaluations and the quadrature use
mpmath instead.
"""

import math

import mpmath
import numpy as np

ARM = 27.0 ** 0.25  # length of each of the two segments of the arc
ARM_DIRS = (np.exp(3j * np.pi / 4.0), np.exp(-3j * np.pi / 4.0))  # unit vectors of the two arms
MP_MAX_N = 32  # degrees at or below which mpmath evaluates points and integrals
_BLOCK = 1 << 16  # cells per float64 block of the pairwise sums

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def psi(w):
    """psi(w) = (w - 1/w) * sqrt((w - 1)/(w + 1)), principal square root."""
    w = np.asarray(w, dtype=complex)
    return (w - 1.0 / w) * np.sqrt((w - 1.0) / (w + 1.0))


def raw_angles(n):
    """Equally spaced circle angles of the raw family, wrapped into (-pi, pi].

    2k*pi/(n+1) for even n and (2k+1)*pi/(n+1) for odd n, k = 0..n.
    """
    k = np.arange(n + 1, dtype=float)
    t = (2.0 * k if n % 2 == 0 else 2.0 * k + 1.0) * np.pi / (n + 1)
    return np.where(t > np.pi, t - 2.0 * np.pi, t)


def raw_nodes(n):
    return psi(np.exp(1j * raw_angles(n)))


def arc_points(s, arm):
    """Points at fraction s of the arm length from the corner, on arm 0 or 1."""
    return ARM * ARM_DIRS[arm] * np.asarray(s, dtype=float)


def _log_dist_rows(zs, x):
    """Yields (slice, log|z - x_j|) blocks of the evaluation points."""
    step = max(1, _BLOCK // len(x))
    for i in range(0, len(zs), step):
        with np.errstate(divide="ignore"):
            yield slice(i, i + step), np.log(np.abs(zs[i : i + step, None] - x[None, :]))


def log_node_products(x):
    """D_k = sum over j != k of log|x_k - x_j|."""
    out = np.empty(len(x))
    for sl, ld in _log_dist_rows(x, x):
        rows = np.arange(sl.start, sl.start + ld.shape[0])
        ld[rows - sl.start, rows] = 0.0
        out[sl] = ld.sum(axis=1)
    return out


def log_abs_omega(x, zs):
    """log|prod_j (z - x_j)| at every z."""
    zs = np.atleast_1d(np.asarray(zs, dtype=complex))
    out = np.empty(len(zs))
    for sl, ld in _log_dist_rows(zs, x):
        out[sl] = ld.sum(axis=1)
    return out


def lebesgue(x, zs, logd=None):
    """Lambda(z) = sum_k prod_{j != k} |z - x_j| / |x_k - x_j|, in log space."""
    if logd is None:
        logd = log_node_products(x)
    zs = np.atleast_1d(np.asarray(zs, dtype=complex))
    out = np.empty(len(zs))
    for sl, ld in _log_dist_rows(zs, x):
        with np.errstate(invalid="ignore"):
            terms = np.exp(ld.sum(axis=1)[:, None] - ld - logd[None, :])
        hit = np.isneginf(ld).any(axis=1)
        out[sl] = np.where(hit, 1.0, terms.sum(axis=1))
    return out


def lebesgue_mp(x, z):
    """The same sum as lebesgue() for one point, as plain products in mpmath."""
    xs = [mpmath.mpc(v.real, v.imag) for v in x]
    zm = mpmath.mpc(complex(z).real, complex(z).imag)
    total = mpmath.mpf(0)
    for k, xk in enumerate(xs):
        num = mpmath.mpf(1)
        den = mpmath.mpf(1)
        for j, xj in enumerate(xs):
            if j != k:
                num *= abs(zm - xj)
                den *= abs(xk - xj)
        total += num / den
    return float(total)


def golden_max(f, a, b, tol=1e-13):
    """Maximizer and max of a unimodal f on [a, b] by golden-section search."""
    c, d = b - _INV_PHI * (b - a), a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    cands = [(f(a), a), (fc, c), (fd, d), (f(b), b)]
    v, t = max(cands)
    return t, v


def _refined_max(values, grid, f, top):
    """Golden-refines the `top` largest local maxima of sampled values."""
    v = np.asarray(values)
    inner = np.r_[True, v[1:] >= v[:-1]] & np.r_[v[:-1] >= v[1:], True]
    idx = np.flatnonzero(inner)
    idx = idx[np.argsort(v[idx])[::-1][:top]]
    best = float(v.max())
    for i in idx:
        lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]
        best = max(best, golden_max(f, lo, hi)[1])
    return best


def lebesgue_arc_max(x, samples=20001, top=8):
    """Max of the Lebesgue function over both arms: fine grid, then golden refinement."""
    logd = log_node_products(x)
    s = np.linspace(0.0, 1.0, samples)
    best = 0.0
    for arm in (0, 1):
        vals = lebesgue(x, arc_points(s, arm), logd)
        best = max(best, _refined_max(vals, s, lambda u: float(lebesgue(x, arc_points(u, arm), logd)[0]), top))
    return best


def dist_to_level(z, rho, samples=200001, top=4):
    """min over t of |z - psi(rho e^{it})|: dense scan of the whole curve, then golden refinement."""
    t = np.linspace(-np.pi, np.pi, samples)
    neg = -np.abs(psi(rho * np.exp(1j * t)) - z)
    best = _refined_max(neg, t, lambda u: -abs(complex(psi(rho * np.exp(1j * u))) - z), top)
    return -best


def ap_constant(x, n, p, step_denom, m_max, t0):
    """Sup over nested windows about t0 of (mean |w|^p)^(1/p) (mean |w|^-q)^(1/q).

    The level curve rho = 1 + 1/(n+1) is sampled at t0 + j*pi/(step_denom*(n+1)),
    j = -m_max..m_max+1; window m covers the 2m left-point cells from
    j = -m to j = m, each weighted by its chord length.
    """
    q = p / (p - 1.0)
    rho = 1.0 + 1.0 / (n + 1)
    j = np.arange(-m_max, m_max + 2)
    zs = psi(rho * np.exp(1j * (t0 + j * np.pi / (step_denom * (n + 1)))))
    mag = np.exp(log_abs_omega(x, zs[:-1]))
    w = np.abs(np.diff(zs))
    best = 1.0
    for m in range(1, m_max + 1):
        sl = slice(m_max - m, m_max + m)
        ww = w[sl]
        length = ww.sum()
        val = (np.dot(ww, mag[sl] ** p) / length) ** (1.0 / p) * (np.dot(ww, mag[sl] ** (-q)) / length) ** (1.0 / q)
        best = max(best, float(val))
    return best


def level_min_angles(x, n):
    """The coarse-grid angles, of the 64(n+1) uniform samples on [-pi, pi), where |omega| is least.

    Returns the sampled minimizer and its mirror sample: the raw nodes are
    conjugate-symmetric, so the two tie up to rounding.
    """
    samples = 64 * (n + 1)
    t = np.linspace(-np.pi, np.pi, samples, endpoint=False)
    lw = log_abs_omega(x, psi((1.0 + 1.0 / (n + 1)) * np.exp(1j * t)))
    i = int(np.argmin(lw))
    return float(t[i]), float(t[(samples - i) % samples])


def basis_integral_mp(x, k, p):
    """Integral over both arms of |l_k(z)|^p |dz| in mpmath, l_k the k-th Lagrange basis polynomial.

    For even p the integrand is a polynomial in the arm parameter, so
    Gauss-Legendre quadrature on each arm is exact once its degree is high
    enough; mpmath raises the degree until two successive ones agree.
    """
    xk = complex(x[k])
    others = [complex(v) for j, v in enumerate(x) if j != k]
    scale = mpmath.mpf(1)
    for v in others:
        scale *= abs(mpmath.mpc(xk.real, xk.imag) - mpmath.mpc(v.real, v.imag))
    half = mpmath.mpf(p) / 2
    total = mpmath.mpf(0)
    for u in ARM_DIRS:
        # |s*ARM*u - v|^2 = (s*ARM - a)^2 + b^2 with a + ib = v * conj(u)
        ab = [(mpmath.mpf((v * np.conj(u)).real), mpmath.mpf((v * np.conj(u)).imag)) for v in others]
        arm = mpmath.mpf(ARM)

        def f(s, ab=ab, arm=arm):
            r = s * arm
            prod = mpmath.mpf(1)
            for a, b in ab:
                prod *= (r - a) ** 2 + b * b
            return prod**half

        total += mpmath.quad(f, [0, 1], method="gauss-legendre")
    return float(total * ARM / scale**p)
