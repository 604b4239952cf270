"""Acceptance gate: one test per headline criterion.

Each test prints a single PASS/FAIL line (visible with `pytest -s` or on
failure) and asserts the criterion at its stated tolerance.  Expensive
intermediate results are shared across criteria through module caches.
"""

import time

import numpy as np

import lshapearc as L
from lshapearc.cli import main as cli_main
from lshapearc.verify import CHECKS

# published reference tables ------------------------------------------------

TABLE2_L = {
    16: 4.838368, 32: 5.291439, 64: 6.618634, 128: 8.423336, 256: 11.747927,
    512: 12.597528, 1024: 14.007973, 2048: 15.57379, 4096: 17.093169,
}

TABLE1_MINMAX = {
    16: (1.09441, 5.31, 4.85),
    32: (0.43913, 5.59, 12.73),
    64: (0.38920, 5.68, 14.59),
    128: (0.43848, 6.14, 14.01),
    256: (0.16583, 6.41, 38.64),
    512: (0.10636, 6.62, 62.27),
    1024: (0.08630, 6.78, 78.54),
    2048: (0.04561, 6.90, 151.21),
    4096: (0.02644, 6.98, 264.17),
}

TABLE3_AP = {
    2.0: {16: 1.59, 32: 2.47, 64: 2.24, 128: 2.65, 256: 3.92, 512: 4.88,
          1024: 5.71, 2048: 7.73, 4096: 10.05},
    4.0: {16: 1.66, 32: 2.41, 64: 2.30, 128: 2.69, 256: 3.57, 512: 3.93,
          1024: 4.36, 2048: 5.24, 4096: 6.11},
    8.0: {16: 1.81, 32: 2.58, 64: 2.70, 128: 3.09, 256: 3.92, 512: 4.19,
          1024: 4.52, 2048: 5.24, 4096: 5.89},
}

_L_CACHE = {}


def adjusted_lebesgue(n: int) -> float:
    if n not in _L_CACHE:
        _L_CACHE[n] = L.lebesgue_constant(L.build_adjusted(n)).value
    return _L_CACHE[n]


def report(num, name, ok, elapsed, detail):
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({elapsed:.1f}s) {detail}"
    print(line)
    assert ok, line


def test_criterion_01_conformal_identities():
    t0 = time.perf_counter()
    checks = dict(CHECKS)
    results = {name: checks[name]() for name in ("endpoint_identity", "magnitude_law")}
    el = time.perf_counter() - t0
    ok = all(passed for passed, _ in results.values()) and el < 1.0
    report(1, "conformal identities", ok, el, "; ".join(f"{name}: {detail}" for name, (_, detail) in results.items()))


def test_criterion_02_fold_function():
    t0 = time.perf_counter()
    checks = dict(CHECKS)
    results = {name: checks[name]() for name in ("fold_vs_oracle", "fold_derivative_bound")}
    printed = abs(L.fold_closed_form(32.0 * np.pi / 33.0) - 0.760171)
    eps = 1e-3
    asym = abs(L.fold_closed_form(np.pi - eps) - (4.0 ** (1.0 / 3.0) * eps ** (1.0 / 3.0) + eps / 3.0))
    el = time.perf_counter() - t0
    ok = all(passed for passed, _ in results.values()) and printed < 5e-6 and asym < 1e-4 and el < 5.0
    report(2, "fold function", ok, el, "; ".join(f"{name}: {detail}" for name, (_, detail) in results.items())
           + f"; printed-value err {printed:.1e}, asymptote err {asym:.1e}")


def test_criterion_03_adjustment_separation():
    t0 = time.perf_counter()
    worst_gap_deficit = -np.inf
    worst_avg = 0.0
    pair32_ok = False
    for n in range(4097):
        raw = L.build_raw(n)
        fam = L.build_adjusted(n)
        if n >= 1:
            delta = 2.0 * np.pi / (3.0 * (n + 1))
            gap = np.min(np.diff(np.sort(fam.folded)))
            worst_gap_deficit = max(worst_gap_deficit, delta - gap)
        if fam.adjusted_pairs:
            ks = np.array([k for k, _ in fam.adjusted_pairs])
            js = np.array([j for _, j in fam.adjusted_pairs])
            drift = np.abs(
                (L.fold_closed_form(raw.angles[ks]) + raw.angles[js])
                - (L.fold_closed_form(fam.angles[ks]) + fam.angles[js])
            )
            worst_avg = max(worst_avg, float(drift.max()))
        if n == 32:
            pair32_ok = (16, 4) in fam.adjusted_pairs
    el = time.perf_counter() - t0
    ok = worst_gap_deficit <= 1e-12 and worst_avg < 1e-10 and pair32_ok and el < 120.0
    report(3, "adjustment & separation", ok, el,
           f"worst gap deficit {worst_gap_deficit:.1e}, worst pair-average drift {worst_avg:.1e}, "
           f"n=32 pair (16,4) {'found' if pair32_ok else 'missing'}")


def test_criterion_04_raw_spike():
    t0 = time.perf_counter()
    val = L.lebesgue_constant(L.build_raw(32)).value
    el = time.perf_counter() - t0
    dev = abs(val - 102.02) / 102.02
    ok = dev < 0.01 and el < 5.0
    report(4, "raw Lebesgue spike", ok, el, f"L_32(raw) = {val:.3f}, deviation {dev * 100:.2f}%")


def test_criterion_05_lebesgue_table():
    t0 = time.perf_counter()
    rows = []
    all_ok = True
    for n, ref in TABLE2_L.items():
        val = adjusted_lebesgue(n)
        if n == 32:
            ok = 3.5 <= val <= 5.8
            rows.append(f"n=32: {val:.3f} in [3.5, 5.8] {'ok' if ok else 'OUT'}")
        else:
            dev = abs(val - ref) / ref
            ok = dev <= 0.10
            rows.append(f"n={n}: {val:.3f} vs {ref} ({dev * 100:.1f}%)")
        all_ok &= ok
    fam = L.build_adjusted(256)
    a = L.lebesgue_constant(fam, grid_per_gap=64).value
    b = L.lebesgue_constant(fam, grid_per_gap=128).value
    grid_dev = abs(a - b) / a
    all_ok &= grid_dev < 1e-3
    el = time.perf_counter() - t0
    all_ok &= el < 1800.0
    report(5, "Lebesgue table", all_ok, el, "; ".join(rows) + f"; grid doubling moves {grid_dev * 100:.4f}%")


def test_criterion_06_minmax_table():
    t0 = time.perf_counter()
    rows = []
    all_ok = True
    for n, (ref_min, ref_max, ref_ratio) in TABLE1_MINMAX.items():
        lo, hi = L.level_minmax(n)
        ratio = hi.value / lo.value
        devs = (
            abs(lo.value - ref_min) / ref_min,
            abs(hi.value - ref_max) / ref_max,
            abs(ratio - ref_ratio) / ref_ratio,
        )
        ok = max(devs) <= 0.05
        all_ok &= ok
        rows.append(f"n={n}: ({lo.value:.5f}, {hi.value:.2f}, {ratio:.2f}) max dev {max(devs) * 100:.1f}%")
    el = time.perf_counter() - t0
    all_ok &= el < 600.0
    report(6, "level min/max table", all_ok, el, "; ".join(rows))


def test_criterion_07_ap_table():
    t0 = time.perf_counter()
    rows = []
    all_ok = True
    for n in TABLE3_AP[2.0]:
        for rec in L.muckenhoupt_constant(n, TABLE3_AP.keys()):
            ref = TABLE3_AP[rec.p][n]
            dev = abs(rec.value - ref) / ref
            ok = dev <= 0.15 and rec.value >= 1.0
            all_ok &= ok
            if dev > 0.10:
                rows.append(f"n={n},p={rec.p:g}: {rec.value:.3f} vs {ref} ({dev * 100:.1f}%)")
    el = time.perf_counter() - t0
    all_ok &= el < 1200.0
    report(7, "A_p constant table", all_ok, el,
           "cells above 10%: " + ("; ".join(rows) if rows else "none"))


def test_criterion_08_growth_laws():
    t0 = time.perf_counter()
    # (a) witness scales like log^2
    ratios = [L.lower_bound_witness(n).value / np.log(n) ** 2 for n in (256, 1024, 4096)]
    spread = max(ratios) / min(ratios)
    ok_a = spread < 2.0

    # (b) affine slope of L_n/log n over n = 2^8..2^13
    pairs = [(n, adjusted_lebesgue(n)) for n in (256, 512, 1024, 2048, 4096, 8192)]
    fit_b = L.fit_growth(pairs, "affine_in_logn")
    ok_b = 0.05 <= fit_b.b <= 0.20

    # (c) power-law growth of the p=2 ratio over n = 2^4..2^10
    seq = []
    for n in (16, 32, 64, 128, 256, 512, 1024):
        fam = L.build_adjusted(n)
        k = L.choose_ratio_index(n, fam)
        assert L.separation_ok(n, fam, k)
        rec = L.mz_ratio(n, 2.0, k=k, family=fam)
        seq.append((n, rec.value))
    fit_c = L.fit_growth(seq, "power_law")
    ok_c = fit_c.beta > 0.3

    el = time.perf_counter() - t0
    ok = ok_a and ok_b and ok_c and el < 2700.0
    report(8, "growth laws", ok, el,
           f"witness/log^2 spread {spread:.2f}; affine slope {fit_b.b:.3f}; "
           f"ratio beta {fit_c.beta:.3f} over {len(seq)} degrees")


def test_criterion_09_oracle_suites():
    t0 = time.perf_counter()
    checks = dict(CHECKS)
    results = {name: checks[name]() for name in ("log_product_oracle", "level_product_containment", "lebesgue_basics")}
    el = time.perf_counter() - t0
    ok = all(passed for passed, _ in results.values()) and el < 120.0
    report(9, "oracle suites", ok, el, "; ".join(f"{name}: {detail}" for name, (_, detail) in results.items()))


def test_criterion_10_determinism(tmp_path):
    t0 = time.perf_counter()
    commands = {
        "sweep": ["sweep", "--list", "16,32", "--family", "adjusted"],
        "minmax": ["minmax", "--list", "16,32"],
        "apweight": ["apweight", "--n", "16", "--p", "2,4"],
        "mzratio": ["mzratio", "--n", "16", "--p", "2"],
        "nodes": ["nodes", "--n", "32", "--family", "adjusted"],
    }
    ok = True
    for name, args in commands.items():
        outputs = []
        for run, jobs in enumerate((1, 2, 1)):
            out = tmp_path / f"{name}-{run}.out"
            extra = [] if name == "nodes" else ["--jobs", str(jobs)]
            cli_main(args + extra + ["--out", str(out)])
            outputs.append(out.read_bytes())
        ok &= outputs[0] == outputs[1] == outputs[2]
    el = time.perf_counter() - t0
    report(10, "determinism", ok, el, f"{len(commands)} commands byte-identical across reruns and --jobs")
