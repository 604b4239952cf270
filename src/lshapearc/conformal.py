"""Exterior conformal map of the L-shape arc and level-curve geometry.

The arc Gamma is the union of two equal line segments (arms) meeting at
a right angle at the origin; `arm_point` parametrises them.  The map psi
sends the exterior of the unit disk onto the complement of Gamma, fixing
infinity, with psi(w)/w -> 1 as |w| -> oo.

`dist_to_level` minimises with `_brent.minimize_bounded`, the
in-package port of scipy's bounded Brent, so this module loads no scipy.
"""

from dataclasses import dataclass

import numpy as np

from ._brent import minimize_bounded

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


def dist_to_level(z: complex, curve: LevelCurve, seed_angles) -> float:
    """Euclidean distance from z to the level curve.

    Minimizes |z - level_point(t)| within 0.75 of each seed angle
    (typically a node's own angle and its fold sister's), then takes the
    smallest.  The nearest point can sit on either sheet near the corner,
    which is why both seeds matter.
    """
    seeds = np.atleast_1d(np.asarray(seed_angles, dtype=float))
    if seeds.size == 0:
        raise ValueError("seed_angles must be nonempty")

    def g(t):
        return abs(z - level_point(curve, t))

    best = np.inf
    for s in seeds:
        res = minimize_bounded(g, (s - 0.75, s + 0.75), xatol=1e-12)
        best = min(best, float(res.fun), g(s))
    return best
