"""Exterior conformal map of the L-shape arc and level-curve geometry.

The arc Gamma is the union of two equal line segments (arms) meeting at
a right angle at the origin; `arm_point` parametrises them.  The map psi
sends the exterior of the unit disk onto the complement of Gamma, fixing
infinity, with psi(w)/w -> 1 as |w| -> oo.

`dist_to_level` searches every seed window of every node at once: a
coarse sample of each window, then safeguarded Newton steps on the
squared distance with the analytic derivatives of psi.
"""

import functools
from dataclasses import dataclass

import numpy as np

# endpoint magnitude of the arc: |psi(e^{i*2pi/3})| = 27^(1/4)
ENDPOINT_RADIUS = 27.0 ** 0.25
CORNER_ANGLE = 2.0 * np.pi / 3.0


def psi(w):
    """Exterior conformal map psi(w) = (w - 1/w) * sqrt((w - 1)/(w + 1)).

    Accepts a complex scalar or array with |w| >= 1 (boundary values are
    the continuous extension).  The principal square root is used; the
    product has a removable 0*inf limit at w = -1 where the value is 0.
    """
    w = np.asarray(w, dtype=complex)
    if np.any(w == 0):
        raise ValueError("psi is undefined at w = 0")
    if np.any(np.abs(w) < 1.0 - 1e-9):
        raise ValueError("psi requires |w| >= 1")
    # inputs within machine rounding of -1 (e.g. exp(i*pi)) are snapped
    # to the removable limit: the map is sqrt-sensitive there and the
    # value is below the representable resolution of the preimage anyway
    at_pole = np.abs(w + 1.0) <= 4e-16
    with np.errstate(invalid="ignore", divide="ignore"):
        out = (w - 1.0 / w) * np.sqrt((w - 1.0) / (w + 1.0))
    out = np.where(at_pole, 0.0 + 0.0j, out)
    if out.ndim == 0:
        return complex(out)
    return out


def psi_prime(w):
    """Analytic derivative psi'(w) = sqrt((w-1)/(w+1)) * (w^2 + w + 1)/w^2.

    Vanishes at w = exp(+-i*2pi/3) (the endpoint preimages) and has a
    pole at w = -1.
    """
    w = np.asarray(w, dtype=complex)
    if np.any(w == -1.0):
        raise ValueError("psi_prime has a singularity at w = -1")
    if np.any(w == 0):
        raise ValueError("psi_prime is undefined at w = 0")
    if np.any(np.abs(w) < 1.0 - 1e-9):
        raise ValueError("psi_prime requires |w| >= 1")
    out = np.sqrt((w - 1.0) / (w + 1.0)) * (w * w + w + 1.0) / (w * w)
    if out.ndim == 0:
        return complex(out)
    return out


def boundary_point(t):
    """Point of Gamma at unit-circle angle t: psi(e^{it}).

    Satisfies |boundary_point(t)|^2 = 8 sin(t) sin^2(t/2) for t in [0, pi].
    """
    t = np.asarray(t, dtype=float)
    return psi(np.exp(1j * t))


def arm_point(sign, s):
    """Point of Gamma on the arm with sign +-1 at fraction s of its length from the corner.

    27^(1/4) * e^{sign*i*3pi/4} * s: the upper arm (sign +1) ends at
    boundary_point(2pi/3), the lower one at its conjugate, and |dz/ds| is
    27^(1/4) on both.  Scalar s gives a complex scalar, an array of s an
    array.
    """
    return ENDPOINT_RADIUS * np.exp(sign * 3j * np.pi / 4.0) * s


def arc_length() -> float:
    """Total length of Gamma: two segments of length 27^(1/4)."""
    return 2.0 * ENDPOINT_RADIUS


@dataclass(frozen=True)
class LevelCurve:
    """The level curve of the map at radius rho_n > 1.

    Two radius conventions are used in practice: rho = 1 + 1/(n+1)
    (the default here) and rho = 1 + 1/n.
    """

    n: int
    convention: str = "one_over_n_plus_1"

    def __post_init__(self):
        if self.convention not in ("one_over_n", "one_over_n_plus_1"):
            raise ValueError(f"unknown rho convention {self.convention!r}")
        if self.convention == "one_over_n" and self.n < 1:
            raise ValueError("convention one_over_n requires n >= 1")
        if self.n < 0:
            raise ValueError("n must be nonnegative")

    @property
    def rho(self) -> float:
        if self.convention == "one_over_n":
            return 1.0 + 1.0 / self.n
        return 1.0 + 1.0 / (self.n + 1)


def level_point(curve: LevelCurve, t):
    """Point of the level curve at angle t: psi(rho * e^{it})."""
    t = np.asarray(t, dtype=float)
    return psi(curve.rho * np.exp(1j * t))


_WINDOW = 0.75  # half-width of the search window around each seed angle
_XTOL = 1e-12  # a window's search ends once its Newton step or its bracket is this short


@functools.cache
def _coarse_offsets():
    """The coarse sample of a window, as sorted offsets from its seed; built on first use.

    33 even steps across the window (among them 2^0..2^-4 of its
    half-width), and steps halving on down to 2^-30 of it on both sides,
    for the narrow basins next to the endpoint and corner preimages.  The
    seed itself is one of them.
    """
    halvings = _WINDOW * 2.0 ** -np.arange(5.0, 31.0)
    return np.sort(np.concatenate([_WINDOW * np.linspace(-1.0, 1.0, 33), halvings, -halvings]))


def dist_to_level(z, curve: LevelCurve, seed_angles):
    """Euclidean distance from z to the level curve.

    Minimizes |z - level_point(t)| within 0.75 of each seed angle
    (typically a node's own angle and its fold sister's), then takes the
    smallest.  The nearest point can sit on either sheet near the corner,
    which is why both seeds matter.  A scalar z takes a list of seeds and
    gives a float; an array of nodes takes one row of seeds per node and
    gives an array.

    Every window is searched at once.  In its coarse sample
    (`_coarse_offsets`), each sample no larger than its neighbours opens
    a bracket between them, so a window's every sampled basin is
    searched.  Safeguarded Newton steps on h(t) = |z - psi(rho e^{it})|^2
    shrink each bracket by the sign of h', taking the midpoint wherever
    the step would leave the bracket, point uphill or not halve the last
    one, until every bracket's step or width is within _XTOL.  The result
    is the smallest distance evaluated, so it is never above the one at a
    seed.
    """
    z = np.asarray(z, dtype=complex)
    seeds = np.asarray(seed_angles, dtype=float)
    if z.ndim == 0:
        seeds = np.atleast_1d(seeds)
    if seeds.shape[:-1] != z.shape or seeds.shape[-1] == 0:
        raise ValueError("seed_angles must hold a nonempty row of seeds for each point")
    zs, offsets = z.reshape(-1), _coarse_offsets()
    ts = seeds.reshape(len(zs), -1, 1) + offsets  # (point, seed, offset)
    g = np.abs(zs[:, None, None] - level_point(curve, ts))
    gp = np.pad(g, ((0, 0), (0, 0), (1, 1)), constant_values=np.inf)
    node, seed, i = np.nonzero((g <= gp[..., :-2]) & (g <= gp[..., 2:]))
    best, x = g[node, seed, i], ts[node, seed, i]
    a, b = ts[node, seed, np.maximum(i - 1, 0)], ts[node, seed, np.minimum(i + 1, len(offsets) - 1)]
    step, live = b - a, np.arange(len(x))
    while len(live):
        w = curve.rho * np.exp(1j * x)
        e = psi(w) - zs[node[live]]
        best[live] = np.minimum(best[live], np.abs(e))
        dp = psi_prime(w)
        d2 = dp * (1.0 / (w * w - 1.0) - (w + 2.0) / (w * (w * w + w + 1.0)))  # psi''
        u = 1j * w * dp  # d psi(rho e^{it}) / dt; its t-derivative is -w (w psi'' + psi')
        h1 = (e.conj() * u).real  # h'/2
        h2 = (u * u.conj()).real - (e.conj() * w * (w * d2 + dp)).real  # h''/2
        up = h1 > 0.0
        a, b = np.where(up, a, x), np.where(up, x, b)
        newton = x - h1 / h2
        ok = (h2 > 0.0) & (newton > a) & (newton < b) & (np.abs(newton - x) <= np.abs(step) / 2.0)
        nxt = np.where(ok, newton, (a + b) / 2.0)
        open_ = ~((h2 > 0.0) & (np.abs(newton - x) <= _XTOL)) & (b - a > _XTOL)
        live, step, x, a, b = live[open_], (nxt - x)[open_], nxt[open_], a[open_], b[open_]
    # every point has a bracket (its smallest sample), and the brackets come in point order
    out = np.minimum.reduceat(best, np.searchsorted(node, np.arange(len(zs)))).reshape(z.shape)
    return float(out) if out.ndim == 0 else out
