"""Bounded scalar minimisation without scipy, in lockstep.

`minimize_bounded` is Brent's golden-section search with parabolic steps
(Brent, *Algorithms for Minimization without Derivatives*, 1973, ch. 5),
ported statement for statement from scipy 1.17.1's
`scipy.optimize._optimize._minimize_scalar_bounded` into the generator
`_search`, which yields each point to evaluate where scipy calls func.
It keeps that code's numpy scalar operations, so each search evaluates
the same points in the same order and returns the same x, fun and nfev
as scipy on the same function, bounds and xatol, bit for bit;
tests/test_brent.py checks that.  Every call is a lockstep of one search
per bracket: each step evaluates the next point of every live search in
one call of func.  One bracket is a lockstep of one.  The port keeps
scipy.optimize off the import path of the Lebesgue, level-curve and
power-fit computations.
"""

from collections import namedtuple

import numpy as np

Bounded = namedtuple("Bounded", "x fun nfev")
Lockstep = namedtuple("Lockstep", "runs nfev")  # runs: one Bounded per bracket; nfev: their total

MAXFUN = 500  # scipy's default maxiter: the evaluation cap

# numpy scalars, as in scipy: the first evaluation point is then an np.float64 too
_SQRT_EPS = np.sqrt(2.2e-16)
_GOLDEN_MEAN = 0.5 * (3.0 - np.sqrt(5.0))


def minimize_bounded(func, bounds, xatol=1e-5):
    """Minima of func on K brackets (a, b), each to an absolute tolerance xatol in x.

    func takes an array of points, one per live search, and returns their
    values.  The result is a Lockstep(runs, nfev) with each bracket's
    Bounded(x, fun, nfev) in order.  Brent never evaluates the bounds
    themselves.  Each search stops after MAXFUN evaluations at the latest,
    returning the best point found.
    """
    for a, b in bounds:
        if not (np.isfinite(a) and np.isfinite(b)):
            raise ValueError("Optimization bounds must be finite scalars.")
        if a > b:
            raise ValueError("The lower bound exceeds the upper bound.")
    searches = [_search(a, b, xatol) for a, b in bounds]
    xs = [next(s) for s in searches]
    runs, live = [None] * len(searches), list(range(len(searches)))
    while live:
        fs, still = func(np.array([xs[i] for i in live])), []
        for i, fx in zip(live, fs):
            try:
                xs[i] = searches[i].send(fx)
                still.append(i)
            except StopIteration as stop:
                runs[i] = stop.value
        live = still
    return Lockstep(tuple(runs), sum(r.nfev for r in runs))


def _search(a, b, xatol):
    """The bounded Brent search on [a, b] as a generator: yields each point
    to evaluate, is sent its value, and returns the Bounded result."""
    fulc = a + _GOLDEN_MEAN * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    x = xf
    fx = yield x
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
        fu = yield x
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
