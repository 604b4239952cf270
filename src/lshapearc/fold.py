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
Newton step near pi.  The reference solver `fold_oracle` shares no code
with `_sister`: it bisects the defining relation, written without
cancellation in the distance from pi.  Every function here takes a
scalar or an array and returns the same kind, and needs numpy alone.
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


def _fold_by(solve, t):
    """solve(|t|) with the range check, float pi -> 0 and oddness; scalar or array in, same kind out."""
    t = np.asarray(t, dtype=float)
    _check_range(np.abs(t), CORNER_ANGLE, np.pi, "|t|")
    ta = np.atleast_1d(np.clip(np.abs(t), CORNER_ANGLE, np.pi))
    out = np.where(ta == np.pi, 0.0, solve(ta)).reshape(t.shape)
    out = np.where(t < 0, -out, out)
    return float(out) if out.ndim == 0 else out


def fold_closed_form(t):
    """Fold angle J(t) by the closed-form solution of the cubic.

    Accepts a scalar or array with |t| in [2pi/3, pi]; negative t folds
    by oddness.  Float pi stands for exact pi and folds to 0.
    """
    return _fold_by(_sister, t)


_PI_LO = 1.2246467991473532e-16  # pi - float(pi), the part of exact pi that float pi drops


def fold_oracle(t):
    """Fold angle by bisection of the defining relation; scalar or array in, same kind out.

    Independent of the closed form; serves as its correctness oracle.
    With eps = pi - t, the relation divided by its trivial factor
    2 sin((j - t)/2) reads

        r(j) = 2 cos(j/2) sin(eps/2) - 2 sin^2((j - eps)/2) sin((j + eps)/2),

    a difference of two products, so nothing cancels before the root; its
    root is simple even at 2pi/3, where the profile is quadratically flat.
    r(0) > 0 > r(2pi/3) inside the interval, and the bracket [0, 2pi/3]
    is halved until its midpoint equals an end, so the root is found to
    the ulp.  eps is formed as (pi - t) + `_PI_LO`: float pi - t is
    exact, but exact pi is 1.2e-16 more, and since J grows as eps^(1/3)
    near pi, dropping that 1.2e-16 would move J by 1e-6 at the float
    below pi.  Float pi itself stands for exact pi and folds to 0, and a
    t where r(2pi/3) >= 0 (the corner, up to rounding) folds to 2pi/3.
    Negative t folds by oddness.
    """
    return _fold_by(_bisect, t)


def _bisect(ta):
    """The root of `fold_oracle`'s r in [0, 2pi/3] for each ta in [2pi/3, pi] (an array)."""
    eps = (np.pi - ta) + _PI_LO

    def reduced(j):
        return 2.0 * np.cos(j / 2.0) * np.sin(eps / 2.0) - 2.0 * np.sin((j - eps) / 2.0) ** 2 * np.sin((j + eps) / 2.0)

    lo, hi = np.zeros_like(ta), np.full_like(ta, CORNER_ANGLE)
    while True:
        mid = (lo + hi) / 2.0
        if np.all((mid == lo) | (mid == hi)):
            break
        above = reduced(mid) > 0.0
        lo, hi = np.where(above, mid, lo), np.where(above, hi, mid)
    return np.where(reduced(np.full_like(ta, CORNER_ANGLE)) >= 0.0, CORNER_ANGLE, mid)


def fold_prime(t):
    """Derivative J'(t) = (cos t - cos 2t) / (cos J - cos 2J); scalar or array in, same kind out.

    Equals -1 at t = 2pi/3 and diverges to -inf at t = pi (returned as
    -inf); strictly below -1 in between.
    """
    t = np.asarray(t, dtype=float)
    _check_range(t, CORNER_ANGLE, np.pi, "t")
    tc = np.clip(t, CORNER_ANGLE, np.pi)
    j = fold_closed_form(tc)
    with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 and -2/0 at the ends, replaced below
        out = (np.cos(tc) - np.cos(2.0 * tc)) / (np.cos(j) - np.cos(2.0 * j))
    out = np.where(np.abs(tc - CORNER_ANGLE) < 1e-15, -1.0, out)
    out = np.where(np.abs(tc - np.pi) < 1e-15, -np.inf, out)
    return float(out) if out.ndim == 0 else out


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


def fold_sister(t):
    """The other unit-circle angle mapping to the same arc point.

    Folds angles with |t| >= 2pi/3 and unfolds those inside; fixed
    points are t = +-2pi/3.  Scalar or array in, same kind out.
    """
    t = np.asarray(t, dtype=float)
    ta = np.atleast_1d(t)
    outer = np.abs(ta) >= CORNER_ANGLE
    out = np.empty_like(ta)
    out[outer], out[~outer] = fold_closed_form(ta[outer]), unfold(ta[~outer])
    out = out.reshape(t.shape)
    return float(out) if out.ndim == 0 else out
