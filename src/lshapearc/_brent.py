"""Bounded scalar minimisation without scipy.

`minimize_bounded` is Brent's golden-section search with parabolic steps
(Brent, *Algorithms for Minimization without Derivatives*, 1973, ch. 5),
ported statement for statement from scipy 1.17.1's
`scipy.optimize._optimize._minimize_scalar_bounded`.  It keeps that
code's numpy scalar operations, so for the same function, bounds and
xatol it evaluates the same points in the same order and returns the
same x, fun and nfev, bit for bit; tests/test_brent.py checks that
against scipy.  The port keeps scipy.optimize off the import path of
the Lebesgue, level-curve and power-fit computations.
"""

from collections import namedtuple

import numpy as np

Bounded = namedtuple("Bounded", "x fun nfev")

MAXFUN = 500  # scipy's default maxiter: the evaluation cap

# numpy scalars, as in scipy: the first evaluation point is then an np.float64 too
_SQRT_EPS = np.sqrt(2.2e-16)
_GOLDEN_MEAN = 0.5 * (3.0 - np.sqrt(5.0))


def minimize_bounded(func, bounds, xatol=1e-5) -> Bounded:
    """Minimum of func on [bounds[0], bounds[1]] to an absolute tolerance xatol in x.

    Brent never evaluates the bounds themselves.  Stops after MAXFUN
    evaluations at the latest, returning the best point found.
    """
    a, b = bounds
    if not all(np.size(v) == 1 and np.isfinite(v) for v in (a, b)):
        raise ValueError("Optimization bounds must be finite scalars.")
    if a > b:
        raise ValueError("The lower bound exceeds the upper bound.")

    fulc = a + _GOLDEN_MEAN * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    x = xf
    fx = func(x)
    num = 1

    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * np.abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while np.abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = 1
        # parabolic fit through the three best points
        if np.abs(e) > tol1:
            golden = 0
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = np.abs(q)
            r = e
            e = rat

            # accept the parabola only inside the bracket and shrinking
            if (np.abs(p) < np.abs(0.5 * q * r)) and (p > q * (a - xf)) and (p < q * (b - xf)):
                rat = (p + 0.0) / q
                x = xf + rat
                if ((x - a) < tol2) or ((b - x) < tol2):
                    si = np.sign(xm - xf) + ((xm - xf) == 0)
                    rat = tol1 * si
            else:
                golden = 1

        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = _GOLDEN_MEAN * e

        si = np.sign(rat) + (rat == 0)
        x = xf + si * np.maximum(np.abs(rat), tol1)
        fu = func(x)
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if (fu <= fnfc) or (nfc == xf):
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif (fu <= ffulc) or (fulc == xf) or (fulc == nfc):
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * np.abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1

        if num >= MAXFUN:
            break

    return Bounded(xf, fx, num)
