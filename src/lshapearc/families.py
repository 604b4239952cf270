"""Interpolation node families on the L-shape arc.

The raw family maps equally spaced unit-circle angles through the
exterior map.  Because the map folds the circle onto the arc, two raw
nodes can land almost on top of each other; the adjusted family moves
each colliding pair apart symmetrically (preserving the pair's folded
average) so that all folded angles are separated by at least
2pi/(3(n+1)).
"""

from dataclasses import dataclass, field

import numpy as np

from .conformal import CORNER_ANGLE, LevelCurve, boundary_point, level_point
from .fold import fold_closed_form, unfold

_CLASSIFY_TOL = 1e-12


def theta_grid(n: int) -> np.ndarray:
    """The n+1 base angles in (-pi, pi].

    Positive angles are 2k*pi/(n+1) for even n and (2k+1)*pi/(n+1) for
    odd n, k = 0..floor(n/2); the rest mirror to negative angles.  The
    odd offset keeps both +-pi out of the grid so the corner is never
    hit twice.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    m = n // 2
    k = np.arange(m + 1)
    if n % 2 == 0:
        pos = 2.0 * k * np.pi / (n + 1)
    else:
        pos = (2.0 * k + 1.0) * np.pi / (n + 1)
    th = np.empty(n + 1)
    th[: m + 1] = pos
    th[m + 1 :] = -th[mirror_index(n, np.arange(m + 1, n + 1))]
    return th


def mirror_index(n: int, k):
    """Index of the angle-negated partner of node k (k itself at angle 0).

    k may be an integer or an integer array; the result has the same kind.
    """
    k = np.asarray(k)
    m = n // 2
    mk = 2 * m + 1 - k
    if n % 2 == 0:
        mk = np.where(k == 0, 0, mk)
    return int(mk) if mk.ndim == 0 else mk


@dataclass
class NodeFamily:
    """A degree-n node set: circle angles, folded representatives, points.

    folded[k] lies in [-2pi/3, 2pi/3] and satisfies
    psi(e^{i*folded[k]}) = psi(e^{i*angles[k]}); points[k] is that value.
    adjusted_pairs lists (k, j) index pairs moved by the adjustment.
    """

    n: int
    kind: str
    angles: np.ndarray
    folded: np.ndarray
    points: np.ndarray
    adjusted_pairs: list = field(default_factory=list)


def _fold_angles(angles: np.ndarray) -> np.ndarray:
    """Folded representative of each circle angle."""
    folded = angles.copy()
    outer = np.abs(angles) > CORNER_ANGLE + _CLASSIFY_TOL
    folded[outer] = fold_closed_form(angles[outer])
    return folded


def build_raw(n: int) -> NodeFamily:
    """The unadjusted family at degree n."""
    th = theta_grid(n)
    return NodeFamily(
        n=n,
        kind="raw",
        angles=th,
        folded=_fold_angles(th),
        points=boundary_point(th),
    )


def build_adjusted(n: int) -> NodeFamily:
    """The separation-adjusted family at degree n.

    For every positive angle theta_k beyond the endpoint preimage, find
    the nearest grid angle theta_j inside [0, 2pi/3] to the fold value
    J(theta_k) (ties to the smaller index).  If they are closer than
    delta = 2pi/(3(n+1)), node k's folded angle is pushed to exactly
    delta away from theta_j on its own side, and theta_j is moved so the
    pair's folded average is preserved.  Mirrored to negative angles.
    """
    th = theta_grid(n)
    folded = _fold_angles(th)
    m = n // 2
    delta = 2.0 * np.pi / (3.0 * (n + 1))
    k_corner = _corner_index(th, n)
    outer = np.arange(k_corner + 1, m + 1)
    pairs = []
    if outer.size:
        jk = folded[outer]
        j = _nearest_grid_index(th, jk, 0, k_corner)
        hit = np.abs(jk - th[j]) < delta
        ks, js, jk = outer[hit], j[hit], jk[hit]
        if len(set(js.tolist())) != len(js):
            raise RuntimeError(f"cascading fold collision at n={n}")
        target = np.where(th[js] >= jk, th[js] - delta, th[js] + delta)
        if np.any(target < 0.0) or np.any(target > CORNER_ANGLE):
            raise RuntimeError(f"adjustment target leaves [0, 2pi/3] at n={n}")
        new_j = th[js] + jk - target  # folded pair averages preserved
        th[ks] = unfold(target)
        folded[ks] = target
        th[js] = new_j
        folded[js] = new_j
        pairs = [(int(a), int(b)) for a, b in zip(ks, js)]
        moved = np.concatenate([ks, js])
        mi = mirror_index(n, moved)
        th[mi] = -th[moved]
        folded[mi] = -folded[moved]
    fam = NodeFamily(
        n=n,
        kind="adjusted",
        angles=th,
        folded=folded,
        points=boundary_point(th),
        adjusted_pairs=pairs,
    )
    if pairs and separation_margin(fam) < 2.0 * np.pi / 3.0 - 1e-9 * (n + 1):
        raise RuntimeError(f"adjustment left a residual collision at n={n}")
    return fam


def separation_margin(f: NodeFamily) -> float:
    """(n+1) times the minimum pairwise folded-angle gap (inf for n=0)."""
    if f.n == 0:
        return np.inf
    s = np.sort(f.folded)
    return (f.n + 1) * float(np.min(np.diff(s)))


def _corner_index(th: np.ndarray, n: int) -> int:
    """Index of the last nonnegative grid angle inside [0, 2pi/3]."""
    return int(np.searchsorted(th[: n // 2 + 1], CORNER_ANGLE + _CLASSIFY_TOL, side="right")) - 1


def _nearest_grid_index(th: np.ndarray, angle, lo: int, hi: int):
    """Index i in [lo, hi] of the grid angle th[i] nearest `angle`.

    A binary search of th[lo : hi + 1], which increases on the nonnegative
    half of theta_grid; ties go to the smaller index.
    """
    i = np.minimum(np.searchsorted(th[lo : hi + 1], angle), hi - lo) + lo
    below = np.maximum(i - 1, lo)
    return np.where(np.abs(angle - th[below]) <= np.abs(th[i] - angle), below, i)


def k1_k2_locate(n: int, t: float):
    """Indices of the grid angles nearest t on both sheets.

    k1 indexes the nearest base angle inside [0, 2pi/3]; k2 the nearest
    one in (2pi/3, pi], measured at the unfolded angle, each by a binary
    search of the grid; ties go to the smaller index.
    """
    if not 0.0 <= t <= CORNER_ANGLE + _CLASSIFY_TOL:
        raise ValueError("t must lie in [0, 2pi/3]")
    th = theta_grid(n)
    m = n // 2
    k_corner = _corner_index(th, n)
    if k_corner == m:
        raise ValueError(f"no grid angle beyond the endpoint preimage at n={n}")
    k1 = int(_nearest_grid_index(th, t, 0, k_corner))
    k2 = int(_nearest_grid_index(th, unfold(min(t, CORNER_ANGLE)), k_corner + 1, m))
    return k1, k2


@dataclass
class LevelNodes:
    """The raw angle grid mapped at level-curve radius rho_n."""

    n: int
    curve: LevelCurve
    points: np.ndarray


def build_level_nodes(n: int, convention: str = "one_over_n_plus_1") -> LevelNodes:
    curve = LevelCurve(n, convention)
    th = theta_grid(n)
    return LevelNodes(n=n, curve=curve, points=level_point(curve, th))
