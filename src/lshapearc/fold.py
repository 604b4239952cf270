"""Corner-fold function of the L-shape arc.

Every interior point of the arc has exactly two unit-circle preimages
under the boundary extension of the exterior map.  The fold function J
pairs them: for t in [2pi/3, pi] it returns the angle j in [0, 2pi/3]
with psi(e^{ij}) = psi(e^{it}), characterized by

    sin(j) sin^2(j/2) = sin(t) sin^2(t/2).

J is strictly decreasing with J(2pi/3) = 2pi/3 and J(pi) = 0, and
J'(t) < -1 on the open interval.  Negative angles fold by oddness,
J(-t) = -J(t).

Both directions solve one cubic in closed form (`_sister`): the fold
`fold_closed_form` as it stands, and the inverse `unfold` with one
Newton step near pi.  Only the reference solver `fold_oracle` uses
scipy (`brentq`), and it imports it when called, so the closed form,
`unfold` and everything built on them load no scipy.
"""

import numpy as np

from .conformal import CORNER_ANGLE


def _profile(t):
    """sin(t) * sin^2(t/2), the quantity matched by fold sisters (an array)."""
    return np.sin(t) * np.sin(t / 2.0) ** 2


def _profile_deriv(j):
    return (np.cos(j) - np.cos(2.0 * j)) / 2.0


def _sister(x):
    """The other angle in [0, pi] with the profile of x in [0, pi] (an array).

    With u = sin^2(x/2) the squared profile is 4 u^3 (1 - u), so the
    sister's u is the one positive root of the cubic left after the root
    u is divided out; Cardano's formula, real for every u in [0, 1].
    Taking c2 = cos^2(x/2) itself, not 1 - s2, leaves every term positive,
    so nothing cancels anywhere on [0, pi].
    """
    s2 = np.sin(x / 2.0) ** 2
    c2 = np.cos(x / 2.0) ** 2
    disc = np.sqrt(27.0 * (3.0 + 8.0 * s2 + 16.0 * s2 * s2))
    r = np.cbrt(c2 * (2.0 + 5.0 * s2 + 20.0 * s2 * s2 + s2 * disc) / 2.0)
    js = (c2 * (1.0 + (1.0 + 2.0 * s2) / r) + r) / 3.0
    return 2.0 * np.arcsin(np.sqrt(np.minimum(js, 1.0)))


def _check_range(t, lo, hi, what):
    if np.any(t < lo - 1e-9) or np.any(t > hi + 1e-9):
        raise ValueError(f"{what} must lie in [{lo:.6f}, {hi:.6f}]")


def fold_closed_form(t):
    """Fold angle J(t) by the closed-form solution of the cubic.

    Accepts a scalar or array with |t| in [2pi/3, pi]; negative t folds
    by oddness.  Float pi stands for exact pi and folds to 0.
    """
    t = np.asarray(t, dtype=float)
    _check_range(np.abs(t), CORNER_ANGLE, np.pi, "|t|")
    ta = np.atleast_1d(np.clip(np.abs(t), CORNER_ANGLE, np.pi))
    out = np.where(ta == np.pi, 0.0, _sister(ta)).reshape(t.shape)
    out = np.where(t < 0, -out, out)
    return float(out) if out.ndim == 0 else out


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

    # the defining relation divided by its trivial factor 2 sin((j - t)/2):
    # its root is simple at 2pi/3, where the profile is quadratically flat
    def reduced(j):
        return np.cos((j + ta) / 2.0) - np.cos(j + ta) * np.cos((j - ta) / 2.0)

    if reduced(CORNER_ANGLE) >= 0.0:  # t at the corner, up to rounding
        return sign * CORNER_ANGLE
    return sign * brentq(reduced, 0.0, CORNER_ANGLE, xtol=1e-14)


def fold_prime(t: float) -> float:
    """Derivative J'(t) = (cos t - cos 2t) / (cos J - cos 2J).

    Equals -1 at t = 2pi/3 and diverges to -inf at t = pi (returned as
    -inf); strictly below -1 in between.
    """
    _check_range(np.asarray(t), CORNER_ANGLE, np.pi, "t")
    t = min(max(t, CORNER_ANGLE), np.pi)
    if abs(t - CORNER_ANGLE) < 1e-15:
        return -1.0
    if abs(t - np.pi) < 1e-15:
        return -np.inf
    j = fold_closed_form(t)
    return (np.cos(t) - np.cos(2.0 * t)) / (np.cos(j) - np.cos(2.0 * j))


def unfold(j):
    """The unique t with |t| in [2pi/3, pi] and fold(t) = j.

    Inverse of the fold on [0, 2pi/3]; negative j unfolds by oddness.
    Scalar or array in, same kind out.  The closed-form sister angle of
    |j|, with one Newton step on the profile where |j| < 1.7.  There t
    is read off arcsin(sqrt(u)) with u near 1, which is off by up to
    3e-8 at j in [1e-4, 1e-2], and the step brings it within 1 ulp.
    Above 1.7 the sister is within 3 ulp already, and the step no longer
    lowers the worst error; toward the corner, where the profile is
    flat, it amplifies rounding.
    """
    j = np.asarray(j, dtype=float)
    _check_range(np.abs(j), 0.0, CORNER_ANGLE, "|j|")
    ja = np.atleast_1d(np.minimum(np.abs(j), CORNER_ANGLE))
    t = _sister(ja)
    near_pi = ja < 1.7
    t[near_pi] -= (_profile(t[near_pi]) - _profile(ja[near_pi])) / _profile_deriv(t[near_pi])
    t = np.where(ja >= CORNER_ANGLE, CORNER_ANGLE, t).reshape(j.shape)
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
