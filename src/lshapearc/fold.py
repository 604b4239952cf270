"""Corner-fold function of the L-shape arc.

Every interior point of the arc has exactly two unit-circle preimages
under the boundary extension of the exterior map.  The fold function J
pairs them: for t in [2pi/3, pi] it returns the angle j in [0, 2pi/3]
with psi(e^{ij}) = psi(e^{it}), characterized by

    sin(j) sin^2(j/2) = sin(t) sin^2(t/2).

J is strictly decreasing with J(2pi/3) = 2pi/3 and J(pi) = 0, and
J'(t) < -1 on the open interval.  Negative angles fold by oddness,
J(-t) = -J(t).

Only the reference solver `fold_oracle` uses scipy (`brentq`), and it
imports it when called, so the closed form, `unfold` and everything
built on them load no scipy.
"""

import numpy as np

from .conformal import CORNER_ANGLE

# magnitude profile along the unit circle: |psi(e^{it})|^2 / 8
_CBRT4 = 4.0 ** (1.0 / 3.0)


def _profile(t):
    """sin(t) * sin^2(t/2), the quantity matched by fold sisters."""
    # s * s, not s ** 2: a numpy float64 scalar squares through C pow, which
    # can differ by one ulp from the array path, and unfold must give the
    # same bits for a scalar and for the same value inside an array
    s = np.sin(t / 2.0)
    return np.sin(t) * (s * s)


def _profile_deriv(j):
    return (np.cos(j) - np.cos(2.0 * j)) / 2.0


_PROFILE_PEAK = _profile(CORNER_ANGLE)  # maximum over [0, pi], attained at 2pi/3


def _check_range(t, lo, hi, what):
    if np.any(t < lo - 1e-9) or np.any(t > hi + 1e-9):
        raise ValueError(f"{what} must lie in [{lo:.6f}, {hi:.6f}]")


def fold_closed_form(t):
    """Fold angle J(t) by the closed-form solution of the cubic.

    Accepts a scalar or array with |t| in [2pi/3, pi]; negative t folds
    by oddness.  The algebraic branch loses precision very close to pi,
    where an asymptotic seed J ~ cbrt(4)*(pi-t)^(1/3) + (pi-t)/3 refined
    by three Newton steps takes over.
    """
    t = np.asarray(t, dtype=float)
    scalar = t.ndim == 0
    t = np.atleast_1d(t)
    sign = np.where(t < 0, -1.0, 1.0)
    ta = np.abs(t)
    _check_range(ta, CORNER_ANGLE, np.pi, "|t|")
    ta = np.clip(ta, CORNER_ANGLE, np.pi)

    s2 = np.sin(ta / 2.0) ** 2
    c2 = 1.0 - s2
    disc = np.sqrt(27.0 * (3.0 + 8.0 * s2 + 16.0 * s2 * s2))
    r = np.cbrt(c2 * (2.0 + 5.0 * s2 + 20.0 * s2 * s2 + s2 * disc) / 2.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        js = (c2 * (1.0 + (1.0 + 2.0 * s2) / r) + r) / 3.0
        out = 2.0 * np.arcsin(np.sqrt(np.clip(js, 0.0, 1.0)))

    # one Newton polish where the profile derivative is well away from
    # its zeros at 0 and 2pi/3; takes the algebraic branch to machine noise
    safe = (out < CORNER_ANGLE - 1e-3) & (out > 1e-6)
    if np.any(safe):
        j = out[safe]
        out[safe] = j - (_profile(j) - _profile(ta[safe])) / _profile_deriv(j)

    near_pi = ((np.pi - ta) < 1e-6) & (ta < np.pi)
    if np.any(near_pi):
        eps = np.pi - ta[near_pi]
        j = _CBRT4 * np.cbrt(eps) + eps / 3.0
        target = _profile(ta[near_pi])
        # three steps: the seed can be several percent off within the last
        # few ulps of pi, and the cubic-flat profile slows Newton there
        for _ in range(3):
            j = j - (_profile(j) - target) / _profile_deriv(j)
        out[near_pi] = j
    out[ta == np.pi] = 0.0

    out = sign * out
    if scalar:
        return float(out[0])
    return out


def fold_oracle(t: float) -> float:
    """Fold angle by bracketed root finding on the defining relation.

    Independent of the closed form; serves as its correctness oracle.
    """
    from scipy.optimize import brentq

    _check_range(np.asarray(abs(t)), CORNER_ANGLE, np.pi, "|t|")
    sign = -1.0 if t < 0 else 1.0
    ta = min(max(abs(t), CORNER_ANGLE), np.pi)
    if ta == np.pi:
        # the stored float stands for exact pi, where the fold vanishes;
        # sin(float(pi)) is rounding noise, not signal
        return 0.0
    target = min(_profile(ta), _PROFILE_PEAK)
    # solve in cube-root scale: the profile is cubic-flat at j = 0, and
    # the cube root restores full conditioning there
    cb = np.cbrt(target)
    j = brentq(lambda x: np.cbrt(_profile(x)) - cb, 0.0, CORNER_ANGLE, xtol=1e-14)
    return sign * j


def fold_prime(t: float) -> float:
    """Derivative J'(t) = (cos t - cos 2t) / (cos J - cos 2J).

    Equals -1 at t = 2pi/3 and diverges to -inf at t = pi (returned as
    -inf); strictly below -1 in between.
    """
    _check_range(np.asarray(t), CORNER_ANGLE, np.pi, "t")
    if abs(t - CORNER_ANGLE) < 1e-15:
        return -1.0
    if abs(t - np.pi) < 1e-15:
        return -np.inf
    j = fold_closed_form(t)
    return (np.cos(t) - np.cos(2.0 * t)) / (np.cos(j) - np.cos(2.0 * j))


def unfold(j):
    """The unique t with |t| in [2pi/3, pi] and fold(t) = j.

    Inverse of the fold on [0, 2pi/3]; negative j unfolds by oddness.
    Scalar or array in, same kind out.  Bisection on the profile, which
    strictly decreases on [2pi/3, pi]; 64 halvings reach machine resolution.
    """
    j = np.asarray(j, dtype=float)
    _check_range(np.abs(j), 0.0, CORNER_ANGLE, "|j|")
    want = np.minimum(_profile(np.minimum(np.abs(j), CORNER_ANGLE)), _PROFILE_PEAK)
    lo, hi = np.full(want.shape, CORNER_ANGLE), np.full(want.shape, np.pi)
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        above = _profile(mid) > want
        lo = np.where(above, mid, lo)
        hi = np.where(above, hi, mid)
    # the profile is flat at its peak, where bisection stops short of the
    # corner; below the rounding noise of the profile at float pi the true
    # preimage is within one ulp of pi (fold's float-pi-is-exact-pi rule)
    t = np.where(want >= _PROFILE_PEAK, CORNER_ANGLE, np.where(want <= _profile(np.pi), np.pi, 0.5 * (lo + hi)))
    t = np.where(j < 0, -t, t)
    return float(t) if t.ndim == 0 else t


def fold_sister(t: float) -> float:
    """The other unit-circle angle mapping to the same arc point.

    Folds angles beyond the endpoint preimage and unfolds those inside;
    fixed points are t = +-2pi/3.
    """
    if abs(t) >= CORNER_ANGLE:
        return fold_closed_form(t)
    return unfold(t)
