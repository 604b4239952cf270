"""The three workloads: the program calls of one round, and the checks of their outputs.

A round is one fixed set of operations.  `run` times rounds; `check`
runs afterwards, outside the timed region, and returns the failures of
one operation of a round's outputs.  An operation is one checked
computation: one CSV row of a table command, one MZ ratio, one witness,
one fit.  Every comparison is written so that NaN fails it.

Nothing here compares against a saved copy of earlier output: every
check is a required property or an independent computation from
`oracle`.
"""

import csv
import io
import json
import math
import os

import numpy as np

import oracle

SWEEP_KS = (4, 10)  # lebesgue-sweep degrees 2^4..2^10
LEVEL_KS = (4, 9)  # level-tables degrees 2^4..2^9
AP_PS = (2.0, 4.0, 8.0)
MZ_NS = (16, 32, 64, 128, 256)
MZ_PS = (2.0, 4.0)
MZ_DRAW = 4  # node indices drawn per degree
WITNESS_NS = (256, 1024, 4096)
ARC_CHECK_POINTS = 256  # seeded arc points per degree, float64 evaluator
MP_CHECK_POINTS = 12  # of which, at n <= oracle.MP_MAX_N, also in mpmath
LEVEL_CHECK_POINTS = 512  # seeded level-curve points per degree
CSV_HALF_ULP = 5e-7  # the CLI writes six decimals


def _close(a, b, rel, abs_=0.0):
    return abs(a - b) <= abs_ + rel * max(abs(a), abs(b))


def _rows(text):
    return list(csv.DictReader(io.StringIO(text)))


def _floats(row, cols):
    """The row's values in `cols` as floats, or None when one is not finite."""
    vals = [float(row[c]) for c in cols]
    return vals if all(math.isfinite(v) for v in vals) else None


class _Workload:
    """A workload: `prepare` draws the seeded inputs, `round` runs the program, `collect` reads its outputs."""

    def __init__(self, lshapearc, outdir, rng):
        self.L = lshapearc
        self.outdir = outdir
        self.rng = rng

    def _cli(self, argv):
        self.L.cli.main(argv)

    def _nodes(self, n, family):
        path = os.path.join(self.outdir, f"nodes-{family}-{n}.json")
        self._cli(["nodes", "--n", str(n), "--family", family, "--out", path])
        with open(path) as fh:
            doc = json.load(fh)
        pts = np.array([complex(a, b) for a, b in doc["points"]])
        return np.array(doc["angles"]), np.array(doc["folded"]), pts


class LebesgueSweep(_Workload):
    name = "lebesgue-sweep"

    def prepare(self):
        self.ns = [2**k for k in range(SWEEP_KS[0], SWEEP_KS[1] + 1)]
        self.keys = [("L", n) for n in self.ns]
        self.path = os.path.join(self.outdir, "table_lebesgue.csv")
        self.points = {
            n: (self.rng.random(ARC_CHECK_POINTS), self.rng.integers(0, 2, ARC_CHECK_POINTS)) for n in self.ns
        }

    def round(self):
        self._cli(["sweep", "--sweep", f"{SWEEP_KS[0]}..{SWEEP_KS[1]}", "--family", "adjusted",
                   "--jobs", "1", "--out", self.path])

    def collect(self):
        with open(self.path) as fh:
            return {("L", int(r["n"])): r for r in _rows(fh.read())}

    def check(self, key, row):
        n = key[1]
        bad = []
        vals = _floats(row, ["L_n"])
        if vals is None:
            return [f"L_n = {row['L_n']} is not finite"]
        lval = vals[0]
        angles, folded, x = self._nodes(n, "adjusted")
        law = 8.0 * np.abs(np.sin(angles)) * np.sin(angles / 2.0) ** 2
        if not np.max(np.abs(np.abs(x) ** 2 - law)) <= 1e-12:
            bad.append("a node violates |z|^2 = 8 sin t sin^2(t/2)")
        if not np.max(np.abs(oracle.psi(np.exp(1j * folded)) - x)) <= 1e-10:
            bad.append("folded angle does not map to its node")
        if not np.max(np.abs(np.sort_complex(x) - np.sort_complex(np.conj(x)))) <= 1e-12:
            bad.append("nodes are not conjugate-symmetric")
        gap = float(np.min(np.diff(np.sort(folded))))
        if not gap >= 2.0 * np.pi / (3.0 * (n + 1)) - 1e-12:
            bad.append(f"folded separation {gap:.3e} < 2pi/(3(n+1))")
        if not lval >= 1.0:
            bad.append(f"L_n = {lval} < 1")
        s, arm = self.points[n]
        zs = np.where(arm == 0, oracle.arc_points(s, 0), oracle.arc_points(s, 1))
        lam = oracle.lebesgue(x, zs)
        if n <= oracle.MP_MAX_N:
            lam_mp = np.array([oracle.lebesgue_mp(x, z) for z in zs[:MP_CHECK_POINTS]])
            if not np.allclose(lam_mp, lam[:MP_CHECK_POINTS], rtol=1e-12, atol=0.0):
                bad.append("float64 and mpmath Lebesgue evaluations disagree")
            lam = np.concatenate([lam_mp, lam[MP_CHECK_POINTS:]])
        if not lam.max() <= lval + CSV_HALF_ULP + 1e-9 * lval:
            bad.append(f"Lebesgue function {lam.max():.9f} at a seeded arc point exceeds L_n = {lval}")
        if n <= oracle.MP_MAX_N:
            own = oracle.lebesgue_arc_max(x)
            if not _close(own, lval, 1e-9, 2 * CSV_HALF_ULP):
                bad.append(f"L_n = {lval} but the fine-grid maximum is {own:.9f}")
        return bad


class LevelTables(_Workload):
    name = "level-tables"

    def prepare(self):
        self.ns = [2**k for k in range(LEVEL_KS[0], LEVEL_KS[1] + 1)]
        self.keys = [("minmax", n) for n in self.ns] + [("M", n, p) for n in self.ns for p in AP_PS]
        self.paths = {c: os.path.join(self.outdir, f"table_{c}.csv") for c in ("minmax", "apweight")}
        self.angles = {n: self.rng.uniform(-np.pi, np.pi, LEVEL_CHECK_POINTS) for n in self.ns}

    def round(self):
        sweep = ["--sweep", f"{LEVEL_KS[0]}..{LEVEL_KS[1]}", "--jobs", "1"]
        self._cli(["minmax"] + sweep + ["--out", self.paths["minmax"]])
        self._cli(["apweight", "--p", ",".join(f"{p:g}" for p in AP_PS)] + sweep + ["--out", self.paths["apweight"]])

    def collect(self):
        out = {}
        with open(self.paths["minmax"]) as fh:
            for r in _rows(fh.read()):
                out[("minmax", int(r["n"]))] = r
        with open(self.paths["apweight"]) as fh:
            for r in _rows(fh.read()):
                out[("M", int(r["n"]), float(r["p"]))] = r
        return out

    def check(self, key, row):
        if key[0] == "minmax":
            return self._check_minmax(key[1], row)
        return self._check_ap(key[1], key[2], row)

    def _check_minmax(self, n, row):
        bad = []
        cols = ("min", "max", "ratio", "rho")
        vals = _floats(row, cols)
        if vals is None or not vals[0] > 0.0:
            return [f"(min, max, ratio, rho) = {tuple(row[c] for c in cols)} are not finite with min > 0"]
        lo, hi, ratio, rho = vals
        if not _close(rho, 1.0 + 1.0 / (n + 1), 0.0, CSV_HALF_ULP):
            bad.append(f"rho = {rho} is not 1 + 1/(n+1)")
        # the ratio is printed from unrounded min and max
        slack = CSV_HALF_ULP * (1.0 + hi / lo**2 + 1.0 / lo) * 1.01
        if not abs(ratio - hi / lo) <= slack:
            bad.append(f"ratio {ratio} != max/min = {hi / lo:.6f}")
        z = oracle.psi((1.0 + 1.0 / (n + 1)) * np.exp(1j * self.angles[n]))
        mag = np.exp(oracle.log_abs_omega(oracle.raw_nodes(n), z))
        if not mag.min() >= lo - CSV_HALF_ULP - 1e-9 * lo:
            bad.append(f"|omega| = {mag.min():.9f} on the level curve is below min = {lo}")
        if not mag.max() <= hi + CSV_HALF_ULP + 1e-9 * hi:
            bad.append(f"|omega| = {mag.max():.9f} on the level curve is above max = {hi}")
        return bad

    def _check_ap(self, n, p, row):
        bad = []
        vals = _floats(row, ["M_n"])
        if vals is None:
            return [f"M_n = {row['M_n']} is not finite"]
        m = vals[0]
        if not m >= 1.0:
            bad.append(f"M_n = {m} < 1 contradicts Hoelder's inequality")
        if n <= oracle.MP_MAX_N:
            x = oracle.raw_nodes(n)
            step_denom, m_max = int(row["step_denom"]), int(row["window_max"])
            own = [oracle.ap_constant(x, n, p, step_denom, m_max, t0) for t0 in oracle.level_min_angles(x, n)]
            if not any(_close(v, m, 1e-9, CSV_HALF_ULP * 1.01) for v in own):
                bad.append(f"M_n = {m} but the nested-window sup at the level minimum is {own}")
        return bad


class MzGrowth(_Workload):
    name = "mz-growth"

    def prepare(self):
        L = self.L
        self.draw = {}
        for n in MZ_NS:
            fam = L.build_adjusted(n)
            ok = [k for k in range(n + 1) if L.separation_ok(n, fam, k)]
            self.draw[n] = sorted(int(k) for k in self.rng.choice(ok, size=MZ_DRAW, replace=False))
        self.keys = ([("R", n) for n in MZ_NS] + [("worst", n, p) for n in MZ_NS for p in MZ_PS]
                     + [("witness", n) for n in WITNESS_NS] + [("fit",)])
        self._integrals = {}

    def round(self):
        L = self.L
        out = {}
        kept = []
        for n in MZ_NS:
            fam = L.build_adjusted(n)
            k = L.choose_ratio_index(n, fam)
            if L.separation_ok(n, fam, k):
                rec = L.mz_ratio(n, 2.0, k=k, family=fam)
                kept.append((n, rec.value))
                out[("R", n)] = (int(rec.location), rec.value, rec.settings["integral"], rec.settings["dist"])
            for p in MZ_PS:
                rec = L.mz_ratio_worst(n, p, self.draw[n])
                out[("worst", n, p)] = (int(rec.location), rec.value, rec.settings["integral"], rec.settings["dist"])
        for n in WITNESS_NS:
            rec = L.lower_bound_witness(n)
            out[("witness", n)] = (rec.location, rec.value, rec.settings["partial_sum"])
        fit = L.fit_growth(kept, "power_law")
        out[("fit",)] = (fit.a, fit.b, fit.beta, fit.residual_rms, tuple(kept))
        self.last = out

    def collect(self):
        return self.last

    def check(self, key, out):
        if key[0] == "R":
            return self._check_ratio(key[1], 2.0, [out[0]], out)
        if key[0] == "worst":
            return self._check_ratio(key[1], key[2], self.draw[key[1]], out)
        if key[0] == "witness":
            return self._check_witness(key[1], out)
        return self._check_fit(out)

    def _own_ratio(self, n, k, p, x):
        if (n, k, p) not in self._integrals:
            integral = oracle.basis_integral_mp(x, k, p)
            dist = oracle.dist_to_level(complex(x[k]), 1.0 + 1.0 / (n + 1))
            self._integrals[(n, k, p)] = integral / dist
        return self._integrals[(n, k, p)]

    def _check_ratio(self, n, p, subset, out):
        k, value, integral, dist = out
        bad = []
        if k not in subset:
            bad.append(f"index {k} is not among {subset}")
        if not (value > 0.0 and math.isfinite(value) and integral > 0.0 and dist > 0.0):
            bad.append(f"ratio {value}, integral {integral} or distance {dist} is not positive and finite")
        elif not _close(value, integral / dist, 1e-12):
            bad.append("ratio is not integral/distance")
        if n <= oracle.MP_MAX_N and not bad:
            x = self.L.build_adjusted(n).points
            own = {j: self._own_ratio(n, j, p, x) for j in subset}
            if not _close(value, own[k], 1e-6):
                bad.append(f"R = {value} at k = {k}, independent quadrature gives {own[k]}")
            if not max(own.values()) <= value * (1.0 + 1e-6):
                bad.append(f"R = {value} is not the largest over {subset}: {own}")
        return bad

    def _check_witness(self, n, out):
        t0, value, partial = out
        bad = []
        if not value >= partial > 0.0:
            bad.append(f"witness {value} and partial sum {partial} violate witness >= partial > 0")
        if not _close(t0, math.pi / (n + 1), 1e-14):
            bad.append(f"t0 = {t0} is not the first-gap midpoint pi/(n+1)")
        own = float(oracle.lebesgue(oracle.raw_nodes(n), oracle.psi(np.exp(1j * t0)))[0])
        if not _close(value, own, 1e-9):
            bad.append(f"witness {value} but the independent evaluator gives {own}")
        return bad

    def _check_fit(self, out):
        a, b, beta, rms, kept = out
        ns = np.array([n for n, _ in kept], dtype=float)
        vals = np.array([v for _, v in kept])
        bad = []
        if not 0.05 <= beta <= 2.0:
            bad.append(f"beta = {beta} outside the search range [0.05, 2]")
        # the linear least-squares step at the reported beta, in centred form
        u = ns**beta
        du = u - u.mean()
        b_own = float(du @ (vals - vals.mean()) / (du @ du))
        a_own = float(vals.mean() - b_own * u.mean())
        resid = vals - (a_own + b_own * u)
        if not (_close(a, a_own, 1e-8, 1e-10) and _close(b, b_own, 1e-8, 1e-12)):
            bad.append(f"fit (a, b) = ({a}, {b}) is not the least-squares solution ({a_own}, {b_own}) at beta")
        if not _close(rms, math.sqrt(float(np.mean(resid**2))), 1e-6, 1e-12):
            bad.append(f"residual rms {rms} does not match the fit")
        return bad


WORKLOADS = {w.name: w for w in (LebesgueSweep, LevelTables, MzGrowth)}
