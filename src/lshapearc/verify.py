"""Cross-module invariant suite behind the `verify` CLI command.

Each check returns (name, passed, detail).  The suite is deterministic:
all randomness is drawn from fixed-seed generators.
"""

import numpy as np

from . import fold
from .conformal import CORNER_ANGLE, arm_point, boundary_point, psi, psi_prime
from .families import build_adjusted, build_raw, build_level_nodes, k1_k2_locate, separation_margin, theta_grid
from .metrics import (
    lebesgue_constant,
    lower_bound_witness,
    muckenhoupt_constant,
)
from .nodal import (
    asymptotic_omega_estimate,
    build_derivative_table,
    lebesgue_function,
    lebesgue_function_grid,
    log_abs_omega,
)

ENDPOINT = arm_point(1.0, 1.0)

# numeric containment band for the level-node product at rho = 1 + 1/n
OMEGA_STAR_LO = np.exp(-3.0) * (np.e - 1.0) ** 2
OMEGA_STAR_HI = np.e**5 * (1.0 + 2.0 * np.e) / (np.e - 1.0)


def _check_endpoint():
    err = abs(psi(np.exp(2j * np.pi / 3.0)) - ENDPOINT)
    err2 = abs(psi(np.exp(-2j * np.pi / 3.0)) - np.conj(ENDPOINT))
    return max(err, err2) < 1e-12, f"max endpoint error {max(err, err2):.2e}"


def _check_magnitude_law():
    t = np.linspace(0.0, np.pi, 512)
    lhs = np.abs(boundary_point(t)) ** 2
    rhs = 8.0 * np.sin(t) * np.sin(t / 2.0) ** 2
    err = np.max(np.abs(lhs - rhs))
    return err < 1e-12, f"max law error {err:.2e}"


def _check_symmetry():
    rng = np.random.default_rng(7)
    r = np.concatenate([np.ones(101), rng.uniform(1.0, 3.0, 200)])  # the arc's preimage r = 1, and out to r = 3
    t = np.concatenate([np.linspace(-np.pi, np.pi, 101), rng.uniform(-np.pi, np.pi, 200)])
    w = r * np.exp(1j * t)
    err = np.max(np.abs(psi(np.conj(w)) - np.conj(psi(w))))
    return err < 1e-12, f"max symmetry error {err:.2e}"


def _check_derivative():
    rng = np.random.default_rng(11)
    worst = 0.0
    count = 0
    while count < 100:
        w = (1.01 + 1.99 * rng.random()) * np.exp(1j * rng.uniform(-np.pi, np.pi))
        if abs(w + 1.0) <= 0.1:
            continue
        count += 1
        h = 1e-6
        fd = (psi(w + h) - psi(w - h)) / (2.0 * h)
        worst = max(worst, abs(psi_prime(w) - fd) / abs(fd))
    return worst < 1e-6, f"worst relative derivative error {worst:.2e}"


def _check_fold_residual():
    t = np.linspace(CORNER_ANGLE, np.pi, 10_000)
    j = fold.fold_closed_form(t)
    err = np.max(np.abs(np.sin(j) * np.sin(j / 2.0) ** 2 - np.sin(t) * np.sin(t / 2.0) ** 2))
    ok = err < 1e-12 and j.min() >= 0.0 and j.max() <= CORNER_ANGLE + 1e-12
    return ok, f"max defining-relation residual {err:.2e}, J in [{j.min():.6f}, {j.max():.6f}]"


def _check_fold_vs_oracle():
    ends = np.geomspace(1e-12, 1e-2, 100)  # toward both ends, where the defining relation is flat
    t = np.concatenate([np.linspace(CORNER_ANGLE, np.pi, 10_000), CORNER_ANGLE + ends, np.pi - ends])
    err = np.max(np.abs(fold.fold_closed_form(t) - fold.fold_oracle(t)))
    return err < 1e-10, f"max closed-form vs oracle gap {err:.2e}"


def _check_fold_monotone():
    t = np.linspace(CORNER_ANGLE, np.pi, 5000)
    j = fold.fold_closed_form(t)
    ok = bool(np.all(np.diff(j) < 0))
    return ok, "J strictly decreasing" if ok else "monotonicity violated"


def _check_fold_oddness():
    t = np.linspace(CORNER_ANGLE, np.pi, 100)
    err = np.max(np.abs(fold.fold_closed_form(-t) + fold.fold_closed_form(t)))
    return err == 0.0, f"oddness error {err:.2e}"


def _check_fold_conformal():
    t = np.linspace(CORNER_ANGLE + 1e-6, np.pi, 500)
    j = fold.fold_closed_form(t)
    err = np.max(np.abs(psi(np.exp(1j * t)) - psi(np.exp(1j * j))))
    return err < 1e-10, f"max fold-image gap {err:.2e}"


def _check_fold_prime():
    a, b = CORNER_ANGLE + 1e-3, np.pi - 1e-3
    t = np.concatenate([np.linspace(a, b, 10_000), np.linspace(a, b, 2000)])  # the latter is criterion 02's grid
    vals = fold.fold_prime(t)
    ok = bool(np.all(vals < -1.0))
    return ok, f"max J' = {vals.max():.6f}" if ok else f"J' reached {vals.max():.6f}"


def _check_adjustment():
    worst = np.inf
    for n in [4, 16, 32, 33, 100, 128, 256, 512, 1024]:
        fam = build_adjusted(n)
        worst = min(worst, separation_margin(fam))
    ok = worst >= 2.0 * np.pi / 3.0 - 1e-9
    return ok, f"min separation margin {worst:.6f} (target {2*np.pi/3:.6f})"


def _check_pair_average():
    worst = 0.0
    for n in [32, 100, 256, 512]:
        raw = build_raw(n)
        adj = build_adjusted(n)
        for k, j in adj.adjusted_pairs:
            before = fold.fold_closed_form(raw.angles[k]) + raw.angles[j]
            after = fold.fold_closed_form(adj.angles[k]) + adj.angles[j]
            worst = max(worst, abs(before - after))
    return worst < 1e-10, f"max pair-average drift {worst:.2e}"


def _check_move_bounds():
    ok = True
    for n in [32, 100, 256, 512]:
        delta = 2.0 * np.pi / (3.0 * (n + 1))
        raw = build_raw(n)
        adj = build_adjusted(n)
        for k, j in adj.adjusted_pairs:
            dk = abs(fold.fold_closed_form(raw.angles[k]) - fold.fold_closed_form(adj.angles[k]))
            dj = abs(raw.angles[j] - adj.angles[j])
            ok = ok and dk <= delta + 1e-12 and dj <= delta + 1e-12
    return ok, "all adjustment moves within 2pi/(3(n+1))"


def _check_locator():
    rng = np.random.default_rng(3)
    for n in [16, 32, 33, 64, 100, 256, 511, 512]:
        th = theta_grid(n)
        m = n // 2
        inner = np.array([i for i in range(m + 1) if th[i] <= CORNER_ANGLE + 1e-12])
        outer = np.array([i for i in range(m + 1) if th[i] > CORNER_ANGLE + 1e-12])
        grid = th[inner]
        # every inner grid angle and midpoint; pi/5 ties theta_6 and theta_7 to the last bit at n = 64
        ts = np.concatenate([[0.0, np.pi / 5.0, CORNER_ANGLE], grid, (grid[:-1] + grid[1:]) / 2.0,
                             rng.uniform(0.0, CORNER_ANGLE, 100)])
        for t, u in zip(ts, fold.unfold(ts)):
            # argmin takes the first of equal distances, so ties go to the smaller index
            b1 = inner[np.argmin(np.abs(th[inner] - t))]
            b2 = outer[np.argmin(np.abs(th[outer] - u))]
            if k1_k2_locate(n, t) != (b1, b2):
                return False, f"locator mismatch at n={n}, t={t}"
    return True, "locator matches brute force"


def _check_omega_oracle():
    rng = np.random.default_rng(5)
    worst = 0.0
    for n in range(1, 25):
        fam = build_raw(n)
        for _ in range(20):
            z = rng.normal(scale=2.0) + 1j * rng.normal(scale=2.0)
            direct = np.prod(np.abs(z - fam.points))
            rel = abs(np.exp(log_abs_omega(fam, z)) - direct) / direct
            worst = max(worst, rel)
    return worst < 1e-10, f"worst product mismatch {worst:.2e}"


def _check_lemma_containment():
    rng = np.random.default_rng(9)
    lo, hi = np.inf, 0.0
    for n in [16, 64, 256, 1024]:
        lvl = build_level_nodes(n, "one_over_n")
        t = rng.uniform(-CORNER_ANGLE, CORNER_ANGLE, 1000)
        vals = np.exp(log_abs_omega(lvl.points, boundary_point(t)))
        lo, hi = min(lo, vals.min()), max(hi, vals.max())
    ok = lo >= OMEGA_STAR_LO and hi <= OMEGA_STAR_HI
    return ok, f"observed [{lo:.4f}, {hi:.2f}] within [{OMEGA_STAR_LO:.4f}, {OMEGA_STAR_HI:.2f}]"


def _check_lebesgue_basics():
    for kind, build in [("raw", build_raw), ("adjusted", build_adjusted)]:
        fam = build(32)
        table = build_derivative_table(fam)
        for k, z in enumerate(fam.points):
            if lebesgue_function(fam, table, complex(z)) != 1.0:
                return False, f"lambda != 1 at node {k} ({kind})"
        t = np.linspace(-CORNER_ANGLE, CORNER_ANGLE, 1000)
        lam = lebesgue_function_grid(fam, table, boundary_point(t))
        if np.any(lam < 1.0 - 1e-10):
            return False, f"lambda < 1 on the arc ({kind})"
    rec = lebesgue_constant(build_raw(0))
    if rec.value != 1.0:
        return False, "L_0 != 1"
    return True, "lambda = 1 exactly at every node, >= 1 on the arc, L_0 = 1"


def _check_witness_bounds():
    w = lower_bound_witness(64)
    fam = build_raw(64)
    L = lebesgue_constant(fam).value
    ok = 1.0 <= w.settings["partial_sum"] <= w.value <= L + 1e-9
    return ok, f"1 <= partial {w.settings['partial_sum']:.3f} <= full {w.value:.3f} <= L {L:.3f}"


def _check_muckenhoupt_floor():
    vals = [rec.value for rec in muckenhoupt_constant(16, (2.0, 4.0))]
    ok = all(v >= 1.0 - 1e-9 for v in vals)
    return ok, f"M_16 values {[round(v, 3) for v in vals]}"


def _check_permutation_invariance():
    rng = np.random.default_rng(13)
    fam = build_raw(48)
    perm = rng.permutation(len(fam.points))
    shuffled = build_raw(48)
    shuffled.angles = fam.angles[perm]
    shuffled.folded = fam.folded[perm]
    shuffled.points = fam.points[perm]
    t1 = build_derivative_table(fam)
    t2 = build_derivative_table(shuffled)
    z = complex(boundary_point(0.5))
    v1 = lebesgue_function(fam, t1, z)
    v2 = lebesgue_function(shuffled, t2, z)
    ok = abs(v1 - v2) < 1e-12
    return ok, f"lambda drift under permutation {abs(v1 - v2):.2e}"


def _check_surrogate_band():
    ratios = {}
    for n in [64, 128, 256, 512, 1024]:
        raw = build_raw(n)
        th = theta_grid(n)
        band = []
        for k in range(3):
            t = (th[k] + th[k + 1]) / 2.0
            est = asymptotic_omega_estimate(n, t)
            true = np.exp(log_abs_omega(raw, complex(boundary_point(t))))
            band.append(true / est)
        ratios[n] = (min(band), max(band))
    spreads = [hi / lo for lo, hi in ratios.values()]
    growth = max(spreads) / min(spreads)
    ok = growth < 2.0
    return ok, f"band spread growth {growth:.3f} across n=64..1024"


CHECKS = [
    ("endpoint_identity", _check_endpoint),
    ("magnitude_law", _check_magnitude_law),
    ("conjugate_symmetry", _check_symmetry),
    ("derivative_consistency", _check_derivative),
    ("fold_defining_relation", _check_fold_residual),
    ("fold_vs_oracle", _check_fold_vs_oracle),
    ("fold_monotone", _check_fold_monotone),
    ("fold_oddness", _check_fold_oddness),
    ("fold_conformal_consistency", _check_fold_conformal),
    ("fold_derivative_bound", _check_fold_prime),
    ("adjusted_separation", _check_adjustment),
    ("pair_average_preservation", _check_pair_average),
    ("adjustment_move_bounds", _check_move_bounds),
    ("index_locator", _check_locator),
    ("log_product_oracle", _check_omega_oracle),
    ("level_product_containment", _check_lemma_containment),
    ("lebesgue_basics", _check_lebesgue_basics),
    ("witness_bounds", _check_witness_bounds),
    ("ap_constant_floor", _check_muckenhoupt_floor),
    ("permutation_invariance", _check_permutation_invariance),
    ("surrogate_band", _check_surrogate_band),
]


def run_all():
    """Run every invariant check; returns list of (name, ok, detail)."""
    return [(name, *check()) for name, check in CHECKS]
