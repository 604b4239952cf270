"""Overflow-safe evaluation of the nodal polynomial and Lebesgue function.

All magnitude arithmetic lives in natural-log space: a "log magnitude"
is a plain float holding log|x|, with -inf standing for magnitude zero.
The Lebesgue sum exponentiates per-term differences, which stay O(1)
even when the product itself under- or overflows.
"""

from dataclasses import dataclass

import numpy as np

from .conformal import boundary_point
from .families import LevelNodes, NodeFamily, build_level_nodes, build_raw, k1_k2_locate

# cap on rows*columns of any pairwise-distance block held in memory
_CHUNK_CELLS = 1 << 22


def _pair_logs(zs, pts, reduce) -> np.ndarray:
    """reduce(ld, rows) over row blocks ld[i, k] = log|zs[rows][i] - pts[k]|.

    The one pair kernel under every nodal quantity.  Each block is built,
    reduced to one value per row and released before the next one is
    built, so at most one block of _CHUNK_CELLS cells is alive at a time.
    """
    out = np.empty(len(zs))
    chunk = max(1, _CHUNK_CELLS // max(1, len(pts)))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for i0 in range(0, len(zs), chunk):
            rows = slice(i0, i0 + chunk)
            d = np.abs(zs[rows, None] - pts[None, :])
            out[rows] = reduce(np.log(d, out=d), rows)
            del d  # hold no block while the next one is built
    return out


def log_abs_omega(nodes, z):
    """log of |product of (z - node_k)|; -inf iff z hits a node.

    `nodes` may be a NodeFamily, LevelNodes, or a plain complex array.
    Scalar z returns a float; an array of z returns an array, evaluated
    in chunks to bound memory.
    """
    z = np.asarray(z, dtype=complex)
    out = _pair_logs(np.atleast_1d(z), getattr(nodes, "points", nodes), lambda ld, rows: ld.sum(axis=1))
    return float(out[0]) if z.ndim == 0 else out


@dataclass
class DerivativeTable:
    """Per-node log|omega'(node_k)| = sum over j != k of log|node_k - node_j|."""

    logs: np.ndarray


def build_derivative_table(f: NodeFamily) -> DerivativeTable:
    def skip_diagonal(ld, rows):
        r = np.arange(len(ld))
        ld[r, rows.start + r] = 0.0  # skip the j == k factor
        if np.any(ld == -np.inf):
            i, j = np.argwhere(ld == -np.inf)[0]
            raise ValueError(f"duplicate nodes at indices {rows.start + i} and {j}")
        return ld.sum(axis=1)

    return DerivativeTable(logs=_pair_logs(f.points, f.points, skip_diagonal))


def _lebesgue_sums(logs, upto=None):
    """Row reduction: the sum over k < upto of |l_k(z)| (exactly 1 at a node)."""

    def reduce(ld, rows):
        hit = (ld == -np.inf).any(axis=1)
        lam = np.exp(ld.sum(axis=1)[:, None] - ld - logs[None, :])[:, :upto].sum(axis=1)
        lam[hit] = 1.0
        return lam

    return reduce


def lebesgue_function(f: NodeFamily, table: DerivativeTable, z: complex, upto: int = None) -> float:
    """Sum of canonical Lagrange basis magnitudes at z.

    Exactly 1 when z is a node (the matching basis element is 1 there
    and every other one vanishes with the nodal polynomial).  With
    `upto`, only the first `upto` basis magnitudes are summed.
    """
    zs = np.asarray([z], dtype=complex)
    return float(_pair_logs(zs, f.points, _lebesgue_sums(table.logs, upto))[0])


def lebesgue_function_grid(f: NodeFamily, table: DerivativeTable, zs: np.ndarray) -> np.ndarray:
    """Vectorized Lebesgue function over an array of evaluation points."""
    return _pair_logs(np.asarray(zs, dtype=complex), f.points, _lebesgue_sums(table.logs))


def asymptotic_omega_estimate(n: int, t: float, raw: NodeFamily = None, level: LevelNodes = None) -> float:
    """Four-factor surrogate for |omega_n| on the arc.

    At z = boundary_point(t) the nodal magnitude is comparable to
    |(z - z_k1)(z - z_k2)| / |(z - z*_k1)(z - z*_k2)| where k1, k2 index
    the nearest nodes on the two sheets and z* are their counterparts on
    the level curve rho = 1 + 1/n.  Symmetric in t by conjugation.
    """
    ta = abs(t)
    if raw is None:
        raw = build_raw(n)
    if level is None:
        level = build_level_nodes(n, "one_over_n")
    k1, k2 = k1_k2_locate(n, ta)
    z = boundary_point(ta)
    num = abs((z - raw.points[k1]) * (z - raw.points[k2]))
    den = abs((z - level.points[k1]) * (z - level.points[k2]))
    return num / den
