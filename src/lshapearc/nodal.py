"""Overflow-safe evaluation of the nodal polynomial and Lebesgue function.

All magnitude arithmetic lives in natural-log space: a "log magnitude"
is a plain float holding log|x|, with -inf standing for magnitude zero.
The Lebesgue sum exponentiates per-term differences, which stay O(1)
even when the product itself under- or overflows.

Every quantity here comes from one pair kernel, `_pair_logs`, which
cuts the (evaluation point, node) matrix into blocks of whole rows of
at most _CHUNK_CELLS cells, small enough to stay in cache, and reduces
each block to one value per row, or one row of values, before it is
released.  A call with more than one block spreads its blocks over a
thread pool with one thread per CPU the process may run on (numpy
releases the interpreter lock inside its ufuncs); a call with one
block, such as a scalar refinement step, runs inline.  Each row is
reduced whole, by the same operations in the same order, inside one
block, so every result is bitwise independent of the block size, the
thread count and the order in which the threads run.

Conjugate twin rows are evaluated once.  Both node families are
exactly conjugate-symmetric, pts[(s - j) mod N] == conj(pts[j]) with
s = 0 or -1, and so are the level-curve scan and a derivative table's
own rows.  IEEE subtraction rounds symmetrically, so
|conj(z) - x| == |z - conj(x)| bit for bit: where zs[r] == conj(zs[i])
exactly, the logs of row r are those of row i with the columns mirrored.
A call with more than one block, whose nodes all have their exact twin,
evaluates only the first half of the rows of zs (pairing i with
(s' - i) mod M, s' = 0 or -1 as zs[-1] is the exact conjugate of zs[1]
or of zs[0]) and copies each twin row from its partner, column by
column; a row whose partner is not its exact conjugate is evaluated.
The copied row holds the values direct evaluation gives, and the same
reduction sums it in the same order, so the result keeps its bits.
Every other call runs the same task with no twin rows.
"""

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .conformal import boundary_point
from .families import NodeFamily, build_level_nodes, build_raw, k1_k2_locate

# cap on rows*columns of one block, so that its complex differences (2 MB)
# and logs (1 MB) stay in cache: of 2^12..2^22 cells, the fastest or near it
# at 256..8192 nodes with 1 and 2 threads (BENCH_kernel-blocks.json)
_CHUNK_CELLS = 1 << 17


def _new_pool():
    """Build the kernel's thread pool, which starts no thread before its first
    task.  Run again in a forked child: the parent's pool threads do not exist
    there, so a task sent to its pool would never run."""
    global _pool
    _pool = ThreadPoolExecutor(max_workers=len(os.sched_getaffinity(0)))


_new_pool()
os.register_at_fork(after_in_child=_new_pool)


def _twin_start(a):
    """Where a pairs up as a[k + j] == conj(a[-1 - j]), the k that a[-1] shows: 1 if it is the exact
    conjugate of a[1] (a[0] is then its own twin), else 0 if it is that of a[0], else None."""
    if len(a) > 1 and a[-1] == a[1].conjugate():
        return 1
    return 0 if a[-1] == a[0].conjugate() else None


def _pair_logs(zs, pts, reduce) -> np.ndarray:
    """reduce(ld, rows) over row blocks ld[i, k] = log|zs[rows][i] - pts[k]|.

    The one pair kernel under every nodal quantity.  Each block is built,
    reduced to one value per row or to a row of K values (reduce may
    overwrite ld) and released inside one task, so each thread holds at
    most one block of _CHUNK_CELLS cells.  The result has one entry, or
    one row of K, per point of zs.  A failure raises from the first
    failing row.  One task serves every call: on conjugate-symmetric
    nodes a call of more than one block copies twin rows (module
    docstring), and a task holds half a block of evaluated rows and
    their twins; any other call is that task with no twins, one whole
    block of evaluated rows per task.
    """
    chunk = max(1, _CHUNK_CELLS // max(1, len(pts)))
    out = None
    sized = threading.Lock()

    def store(rows, r):
        nonlocal out
        with sized:  # the first block done fixes the shape: one value, or a row of K, per point
            if out is None:
                out = np.empty((len(zs),) + r.shape[1:])
        out[rows] = r

    def logs(z, spare=0):
        """A fresh array of len(z) + spare rows, the first len(z) of them the logs of the points z."""
        c = z[:, None] - pts[None, :]
        d = np.empty((len(z) + spare, len(pts)))  # after c, as np.abs(c) would allocate it
        np.log(np.abs(c, out=d[: len(z)]), out=d[: len(z)])
        return d

    m = len(zs)
    kp = _twin_start(pts) if m > chunk else None
    # every node has its exact twin, checked before zs is read
    symmetric = kp is not None and (kp == 0 or pts[0].imag == 0) and np.array_equal(pts[kp:][::-1], pts[kp:].conj())
    kz = _twin_start(zs) if symmetric else None
    # row kz + j pairs with row m-1-j for j < h; rows 0..p-1 are evaluated, rows p..m-1 are twins;
    # a call without twins has h = 0 and steps of whole blocks
    kz, h, step = (0, 0, chunk) if kz is None else (kz, (m - kz) // 2, max(1, chunk // 2))
    p = m - h

    def task(a):
        """Evaluate rows a..b-1, copy the twins of those in kz..kz+h-1, and reduce both; a failure
        of the twins is returned, not raised, as their rows come after every evaluated row."""
        b = min(a + step, p)
        lo, hi = max(a, kz), max(a, kz, min(b, kz + h))
        twins = slice(m - hi + kz, m - lo + kz)  # ascending: the twins of rows hi-1 down to lo
        # errstate is context-local: each worker thread enters its own
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            # the twins share one array with the evaluated rows, allocated after the complex differences;
            # it is held until stored, so the result, allocated by the first store, fills the hole of those
            d = logs(zs[a:b], spare=hi - lo)
            ld, tw = d[: b - a], d[b - a :]
            if hi > lo:
                src = ld[lo - a : hi - a][::-1]
                tw[:, :kp], tw[:, kp:] = src[:, :kp], src[:, kp:][:, ::-1]
                odd = np.flatnonzero(zs[twins] != zs[lo:hi][::-1].conj())
                if len(odd):  # not an exact twin: evaluated
                    tw[odd] = logs(zs[twins][odd])
            store(slice(a, b), reduce(ld, slice(a, b)))
            if hi > lo:
                try:
                    store(twins, reduce(tw, twins))
                except Exception as e:
                    return e

    starts = range(0, p, step)
    # read every result, so that a failure raises here; a call of one block runs inline
    failed = [e for e in (_pool.map(task, starts) if len(starts) > 1 else map(task, starts)) if e is not None]
    if failed:
        raise failed[-1]  # the twins of later blocks come first in row order
    return np.empty(0) if out is None else out


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


def _derivative_logs(pts, nodes=slice(None)) -> np.ndarray:
    """log|omega'(pts[k])| for k in arange(len(pts))[nodes]; a row alone has the bits it has in the whole table."""
    ks = np.arange(len(pts))[nodes]

    def skip_diagonal(ld, rows):
        k = ks[rows]
        ld[np.arange(len(ld)), k] = 0.0  # skip the j == k factor
        s = ld.sum(axis=1)
        if np.any(s == -np.inf):  # a row sum is -inf iff the row holds a zero distance
            i, j = np.argwhere(ld == -np.inf)[0]
            raise ValueError(f"duplicate nodes at indices {k[i]} and {j}")
        return s

    return _pair_logs(pts[ks], pts, skip_diagonal)


def build_derivative_table(f: NodeFamily) -> DerivativeTable:
    return DerivativeTable(logs=_derivative_logs(f.points))


def _lebesgue_sums(logs, upto=None):
    """Row reduction: the sum over k < upto of |l_k(z)| (exactly 1 at a node)."""

    def reduce(ld, rows):
        s = ld.sum(axis=1)
        # log|l_k(z)| = s - ld[:, k] - logs[k], evaluated in place in that order
        np.subtract(s[:, None], ld, out=ld)
        ld -= logs[None, :]
        lam = np.exp(ld, out=ld)[:, :upto].sum(axis=1)
        lam[s == -np.inf] = 1.0  # z hits a node
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


def asymptotic_omega_estimate(n: int, t: float) -> float:
    """Four-factor surrogate for |omega_n| on the arc.

    At z = boundary_point(t) the nodal magnitude is comparable to
    |(z - z_k1)(z - z_k2)| / |(z - z*_k1)(z - z*_k2)| where k1, k2 index
    the nearest nodes on the two sheets and z* are their counterparts on
    the level curve rho = 1 + 1/n.  Symmetric in t by conjugation.
    """
    ta = abs(t)
    raw, level = build_raw(n), build_level_nodes(n, "one_over_n")
    k1, k2 = k1_k2_locate(n, ta)
    z = boundary_point(ta)
    num = abs((z - raw.points[k1]) * (z - raw.points[k2]))
    den = abs((z - level.points[k1]) * (z - level.points[k2]))
    return num / den
