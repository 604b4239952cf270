"""The in-package bounded minimiser against scipy's, bit for bit.

`_brent.minimize_bounded` is a port of scipy's bounded Brent; scipy stays
the independent reference.  Equal means `==` on x, fun and nfev, and the
same evaluation points in the same order, on a seeded set of functions
and at the two call sites of the program.  Every call of the port is a
lockstep; one bracket runs as a lockstep of one (`_alone`), and a call
with several brackets gives each bracket the run it gets alone.
"""

import numpy as np
import pytest
from scipy.optimize import minimize_scalar as scipy_minimize_scalar

from lshapearc import _brent, metrics


def _alone(func, bounds, xatol):
    """The port's Bounded on one bracket, as a lockstep of one, through a scalar func."""
    return _brent.minimize_bounded(lambda xs: [func(x) for x in xs], [bounds], xatol=xatol).runs[0]


def _both(func, bounds, xatol):
    """(result, evaluation points) of the port and of scipy on the same problem."""
    runs = []
    for solve in (lambda g: _alone(g, bounds, xatol),
                  lambda g: scipy_minimize_scalar(g, bounds=bounds, method="bounded", options={"xatol": xatol})):
        seen = []

        def g(x):
            seen.append(x)
            return func(x)

        runs.append((solve(g), seen))
    return runs


def _assert_same(func, bounds, xatol):
    (ours, ours_seen), (ref, ref_seen) = _both(func, bounds, xatol)
    assert ours_seen == ref_seen
    assert [type(x) for x in ours_seen] == [type(x) for x in ref_seen]
    assert (ours.x, ours.fun, ours.nfev) == (ref.x, ref.fun, ref.nfev)
    return ours


def _cases():
    rng = np.random.default_rng(20221009)
    cases = [
        ("constant", lambda x: 1.0, (-1.0, 2.0), 1e-5),
        ("min at lower bound", lambda x: 3.0 * x, (0.5, 4.0), 1e-9),
        ("min at upper bound", lambda x: -np.exp(x), (-2.0, 0.25), 1e-12),
        ("flat then rising", lambda x: max(x, 0.0) ** 2, (-1.0, 1.0), 1e-12),
        ("plateaus", lambda x: float(np.floor(3.0 * x) ** 2), (-2.0, 1.7), 1e-9),
        ("finer plateaus", lambda x: float(np.floor(4.0 * x) ** 2), (-2.0, 1.7), 1e-9),
        ("ties across the minimum", lambda x: float(np.floor(8.0 * abs(x - 0.2))), (-1.0, 1.0), 1e-9),
        # a minimum at 0 to 1e-300 in x takes more than MAXFUN steps
        ("evaluation cap", lambda x: abs(x), (-1.0, 2.0), 1e-300),
    ]
    for i in range(24):
        c, w = rng.uniform(-3, 3), rng.uniform(0.1, 2.0)
        lo = c - rng.uniform(0.05, 4.0)
        hi = c + rng.uniform(0.05, 4.0)
        xatol = float(rng.choice([1e-5, 1e-9, 1e-12]))
        cases.append((f"smooth {i}", lambda x, c=c, w=w: w * (x - c) ** 2 + np.cos(x), (lo, hi), xatol))
        amp, freq, phase = rng.uniform(0.2, 2.0, 3), rng.uniform(1.0, 12.0, 3), rng.uniform(0, 2 * np.pi, 3)
        cases.append((f"multimodal {i}",
                      lambda x, a=amp, f=freq, p=phase: float(np.sum(a * np.sin(f * x + p))) + 0.05 * x * x,
                      (lo, hi), xatol))
    return cases


@pytest.mark.parametrize("name,func,bounds,xatol", _cases(), ids=[c[0] for c in _cases()])
def test_matches_scipy_bitwise(name, func, bounds, xatol):
    res = _assert_same(func, bounds, xatol)
    if name == "evaluation cap":
        assert res.nfev == _brent.MAXFUN
    # Brent never evaluates a bound; it stops a few sqrt(eps)*|x| inside
    if name == "min at lower bound":
        assert bounds[0] < res.x < bounds[0] + 1e-7
    if name == "min at upper bound":
        assert bounds[1] - 1e-7 < res.x < bounds[1]


def test_refuses_bad_bounds():
    with pytest.raises(ValueError, match="finite"):
        _alone(abs, (0.0, np.inf), 1e-5)
    with pytest.raises(ValueError, match="exceeds"):
        _alone(abs, (1.0, 0.0), 1e-5)
    with pytest.raises(ValueError, match="exceeds"):  # any bracket of a lockstep call
        _brent.minimize_bounded(np.abs, [(0.0, 1.0), (1.0, 0.0)])


def _checking(monkeypatch, module, name):
    """Replace module.name by a minimiser that runs the port and scipy on every call and compares them.

    Every call is a lockstep (func taking an array of points), compared
    bracket by bracket through a scalar view of func: each run's x, fun
    and nfev are `==` to those of the port alone, which matches scipy.
    """
    calls = []

    def checked(func, bounds, xatol):
        calls.append(bounds)
        res = _brent.minimize_bounded(func, bounds, xatol)
        for run, pair in zip(res.runs, bounds, strict=True):
            alone = _assert_same(lambda x: func(np.array([x]))[0], tuple(pair), xatol)
            assert (run.x, run.fun, run.nfev) == (alone.x, alone.fun, alone.nfev)
        assert res.nfev == sum(run.nfev for run in res.runs)
        return res

    monkeypatch.setattr(module, name, checked)
    return calls


def test_lockstep_runs_each_bracket_as_alone():
    # one objective of + and * only (bitwise the same on a scalar and in an array),
    # on brackets whose searches end after different numbers of steps
    def g(x):
        return (x * x - 1.0) * (x * x - 1.0) + 0.3 * x + 0.05 * np.floor(3.0 * x)

    brackets = [(-2.0, 1.7), (0.5, 4.0), (-1.0, 1.0), (1.0, 1.0), (-3.0, 3.0), (0.2, 0.3)]
    sizes = []

    def batch(xs):
        sizes.append(len(xs))
        return g(xs)

    res = _brent.minimize_bounded(batch, brackets, xatol=1e-9)
    assert len(res.runs) == len(brackets)
    for pair, run in zip(brackets, res.runs):
        alone = _alone(g, pair, 1e-9)
        assert (run.x, run.fun, run.nfev) == (alone.x, alone.fun, alone.nfev), pair
    # one call per step, each with one point per live search
    assert res.nfev == sum(run.nfev for run in res.runs) == sum(sizes)
    assert len(sizes) == max(run.nfev for run in res.runs)
    assert sizes == sorted(sizes, reverse=True) and sizes[0] == len(brackets)


def test_level_polish_matches_scipy(monkeypatch):
    want = metrics.level_minmax(16)
    calls = _checking(monkeypatch, metrics, "minimize_scalar")
    got = metrics.level_minmax(16)
    assert [len(c) for c in calls] == [1, 1]  # one search for the min, one for the max
    assert [(r.value, r.location) for r in got] == [(r.value, r.location) for r in want]


def test_power_fit_matches_scipy(monkeypatch):
    ns = np.array([16, 32, 64, 128, 256, 512])
    vals = 0.3 + 1.7 * ns**0.41 + np.random.default_rng(5).normal(0.0, 0.01, ns.size)
    records = list(zip(ns, vals))
    want = metrics.fit_growth(records, "power_law")
    calls = _checking(monkeypatch, metrics, "minimize_scalar")
    assert metrics.fit_growth(records, "power_law") == want
    assert calls == [[(0.05, 2.0)]]
