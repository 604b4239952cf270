#!/usr/bin/env python3
"""Empirical growth-law experiments.

Three studies, each printed and written to results/growth_fits.json:

1. The pointwise witness for the log^2 lower bound of the Lebesgue
   constant (raw family, evaluation between the first two nodes).
2. An affine fit of L_n/log(n) against log(n) for the adjusted family,
   and the same fit to each end of the certified brackets [L_n, U].
3. A power-law fit a + b*n^beta of the p = 2 basis-integral ratio over a
   geometric sweep of even degrees, restricted to degrees whose selected
   node keeps the full folded separation (collisions produce spikes that
   are orders of magnitude off-trend and say nothing about growth).

Keys of growth_fits.json:
- "witness": per degree n, the witness, its partial sum and witness/log^2 n;
- "lebesgue": per degree n, "L" = L_n and "bracket" = [L_n, U], U the
  certified bound on the max that `lebesgue_constant` reports;
- "affine_fit": a, b and residual_rms of the fit to L_n;
- "affine_fit_bracket": "b_L" and "b_U", the slope b fitted to the lower
  ends L_n and to the upper ends U of the brackets;
- "ratio", "ratio_skipped" and "power_fit": study 3's kept (n, R) pairs,
  its skipped degrees and its fit.
"""

import argparse
import json
import os
import sys

import numpy as np

import lshapearc as L


def witness_study(ks):
    rows = []
    for k in ks:
        n = 2**k
        rec = L.lower_bound_witness(n)
        rows.append({
            "n": n,
            "witness": rec.value,
            "partial": rec.settings["partial_sum"],
            "witness_over_log2": rec.value / np.log(n) ** 2,
        })
        print(f"witness n={n}: {rec.value:.3f} (over log^2: {rows[-1]['witness_over_log2']:.4f})")
    return rows


def lebesgue_study(ks):
    brackets = []
    for k in ks:
        n = 2**k
        lo, hi = L.lebesgue_constant(L.build_adjusted(n)).settings["bracket"]
        brackets.append((n, lo, hi))
        print(f"L_{n} (adjusted) = {lo:.6f}  L/log = {lo / np.log(n):.6f}  U/L - 1 = {hi / lo - 1:.2e}")
    fit = L.fit_growth([(n, lo) for n, lo, _ in brackets], "affine_in_logn")
    b_upper = L.fit_growth([(n, hi) for n, _, hi in brackets], "affine_in_logn").b
    print(f"affine fit: L/log(n) = {fit.b:.4f}*log(n) + {fit.a:.4f}  (rms {fit.residual_rms:.4f}); "
          f"b over the brackets: [{fit.b:.6f}, {b_upper:.6f}]")
    return brackets, fit, b_upper


def ratio_study(n_lo, n_hi, p):
    kept, skipped = [], []
    n = n_lo
    while n <= n_hi:
        fam = L.build_adjusted(n)
        k = L.choose_ratio_index(n, fam)
        if L.separation_ok(n, fam, k):
            rec = L.mz_ratio(n, p, k=k, family=fam)
            kept.append((n, rec.value))
            print(f"R_{n} (p={p:g}, k={k}) = {rec.value:.4f}")
        else:
            skipped.append(n)
        n *= 2
    fit = L.fit_growth(kept, "power_law")
    print(f"power fit over {len(kept)} degrees ({len(skipped)} skipped for poor separation): "
          f"a={fit.a:.4f} b={fit.b:.4f} beta={fit.beta:.4f}")
    return kept, skipped, fit


def run(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--witness-ks", default="8,10,12")
    ap.add_argument("--lebesgue-ks", default="8,9,10,11,12,13")
    ap.add_argument("--ratio-range", default="16..1024")
    ap.add_argument("--p", type=float, default=2.0)
    ap.add_argument("--outdir", default="results")
    args = ap.parse_args(argv)

    w = witness_study([int(k) for k in args.witness_ks.split(",")])
    brackets, affine, b_upper = lebesgue_study([int(k) for k in args.lebesgue_ks.split(",")])
    lo, hi = (int(x) for x in args.ratio_range.split(".."))
    kept, skipped, power = ratio_study(lo, hi, args.p)

    os.makedirs(args.outdir, exist_ok=True)
    doc = {
        "witness": w,
        "lebesgue": [{"n": n, "L": lo, "bracket": [lo, hi]} for n, lo, hi in brackets],
        "affine_fit": {"a": affine.a, "b": affine.b, "residual_rms": affine.residual_rms},
        "affine_fit_bracket": {"b_L": affine.b, "b_U": b_upper},
        "ratio": [{"n": n, "R": v} for n, v in kept],
        "ratio_skipped": skipped,
        "power_fit": {"a": power.a, "b": power.b, "beta": power.beta,
                      "residual_rms": power.residual_rms},
    }
    path = os.path.join(args.outdir, "growth_fits.json")
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(run())
