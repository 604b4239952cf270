"""Command-line front end: sweeps, caching, CSV/JSON emission, verification.

Every command is a pure function of its configuration: re-running with
the same flags (at any parallelism degree) produces byte-identical
output files.  A sweep's CSV rows at each degree are cached as JSON keyed
by a hash of the schema version, the command's algorithm version and the
exact settings that produced them.  Bad arguments get a one-line error
and exit code 2.
"""

import argparse
import dataclasses
import json
import os
import sys
from collections import namedtuple

import numpy as np

from .conformal import LevelCurve
from .families import build_adjusted, build_raw
from .metrics import (
    fit_growth,
    lebesgue_constant,
    level_minmax,
    muckenhoupt_constant,
    mz_ratio,
)

SCHEMA_VERSION = "2"  # of a cache entry; 2: it holds its degree's finished CSV rows
DOC_VERSION = "1"  # of the nodes and fit JSON documents
CACHE_ENV_VAR = "LSHAPEARC_CACHE_DIR"


def _fmt(v) -> str:
    v = float(v)
    if v != v:
        return "nan"
    if v != 0.0 and abs(v) < 1e-4:
        return f"{v:.6e}"
    return f"{v:.6f}"


# ---------------------------------------------------------------------------
# caching
# ---------------------------------------------------------------------------


def _cache_key(cfg: dict) -> str:
    """Hash of the cache schema, the command's algorithm version and every setting of cfg but its cache_dir."""
    import hashlib  # on use: a run without a cache never needs it
    payload = {k: v for k, v in cfg.items() if k != "cache_dir"}
    version = SWEEPS[cfg["command"]].version
    blob = json.dumps({"schema_version": SCHEMA_VERSION, "algorithm_version": version, **payload}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:24]


def _cached(cfg, compute):
    """compute(cfg), or its stored result for the same command, version and settings."""
    cache_dir = cfg["cache_dir"]
    if cache_dir is None:
        return compute(cfg)
    path = os.path.join(cache_dir, f"{cfg['command']}-{_cache_key(cfg)}.json")
    if os.path.exists(path):
        try:
            with open(path) as fh:
                return json.load(fh)
        except (json.JSONDecodeError, OSError) as exc:
            print(f"warning: discarding corrupt cache entry {path}: {exc}", file=sys.stderr)
    result = compute(cfg)
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(result, fh, sort_keys=True)
    os.replace(tmp, path)
    return result


def _emit(text: str, args):
    if not args.out:
        sys.stdout.write(text)
        return
    try:
        with open(args.out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        _refuse(f"lshapearc {args.command}", f"cannot write {args.out}: {exc.strerror}")


def _parse_ns(args) -> list:
    if args.n is not None:
        return [args.n]
    if args.sweep:
        k0, k1 = args.sweep
        return [2**k for k in range(k0, k1 + 1)]
    return sorted(args.list)


def _map_jobs(fn, tasks, jobs):
    """Order-preserving map; results identical at any parallelism degree."""
    if jobs <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    from concurrent.futures import ProcessPoolExecutor  # on use: it loads multiprocessing
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, tasks))


# ---------------------------------------------------------------------------
# sweep commands: each maps (n, its own options) to its CSV rows at degree n
# ---------------------------------------------------------------------------


def _build(n, family_kind):
    return build_adjusted(n) if family_kind == "adjusted" else build_raw(n)


def _lebesgue_rows(n, family, grid_per_gap):
    rec = lebesgue_constant(_build(n, family), grid_per_gap=grid_per_gap)
    over = rec.value / np.log(n) if n >= 2 else float("nan")
    return [f"{n},{family},{_fmt(rec.value)},{_fmt(over)},{_fmt(rec.location)},{grid_per_gap}"]


def _minmax_rows(n, rho):
    convention = "one_over_n_plus_1" if rho == "n+1" else "one_over_n"
    lo, hi = level_minmax(n, convention=convention)
    return [f"{n},{_fmt(LevelCurve(n, convention).rho)},{_fmt(lo.value)},{_fmt(hi.value)},{_fmt(hi.value / lo.value)}"]


def _apweight_rows(n, p):
    # one window per degree covers every --p; its rows come back in --p order
    return [f"{n},{rec.p:g},{_fmt(rec.value)},{rec.settings['window_step_denom']},{rec.settings['window_max']}"
            for rec in muckenhoupt_constant(n, p)]


def _mzratio_rows(n, p, quad_tol):
    rec = mz_ratio(n, p, quad_tol=quad_tol)
    return [f"{n},{p:g},{int(rec.location)},{_fmt(rec.value)},{_fmt(rec.settings['dist'])}"]


# header: the CSV's first line; value: the column `fit` reads; options: the argument names passed to rows;
# version: the algorithm version in the cache key, bumped whenever the command's numbers may change
_Sweep = namedtuple("_Sweep", "header value rows options version")
SWEEPS = {
    # version 3: max bracketed by zooming the upper-arm chain, no polish; no refine_tol column
    "lebesgue": _Sweep("n,family,L_n,L_over_log,argmax_t,grid_per_gap", "L_n", _lebesgue_rows,
                       ("family", "grid_per_gap"), "3"),
    "minmax": _Sweep("n,rho,min,max,ratio", "ratio", _minmax_rows, ("rho",), "1"),
    # version 3: window centred at |t0|, q-power sums shifted to stay finite
    "apweight": _Sweep("n,p,M_n,step_denom,window_max", "M_n", _apweight_rows, ("p",), "3"),
    # version 3: ratio index nearest the level minimum at |t0|
    "mzratio": _Sweep("n,p,k,R,dist", "R", _mzratio_rows, ("p", "quad_tol"), "3"),
}


def _task(cfg):
    """One sweep entry {command, cache_dir, n, own options}: its CSV rows, through the cache."""
    rows = SWEEPS[cfg["command"]].rows
    return _cached(cfg, lambda c: rows(**{k: v for k, v in c.items() if k not in ("command", "cache_dir")}))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_nodes(args):
    fam = _build(args.n, args.family)
    doc = {
        "schema_version": DOC_VERSION,
        "config": {"n": args.n, "family": args.family},
        "n": fam.n,
        "family": fam.kind,
        "angles": list(fam.angles),
        "folded": list(fam.folded),
        "points": [[z.real, z.imag] for z in fam.points],
        "adjusted_pairs": [list(p) for p in fam.adjusted_pairs],
    }
    _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", args)
    return 0


def cmd_sweep(args):
    """The CSV of a sweep command: its header, then its rows at each degree in increasing order."""
    prog, sweep = f"lshapearc {args.command}", SWEEPS[args.metric]
    ns = _parse_ns(args)
    if args.metric == "minmax" and args.rho == "n" and 0 in ns:
        _refuse(prog, "--rho n needs degrees of at least 1")
    cache_dir = args.cache_dir or os.environ.get(CACHE_ENV_VAR) or None
    try:  # an unusable path is refused before anything is computed
        if args.out:
            open(args.out, "a").close()
        if cache_dir:
            os.makedirs(cache_dir, exist_ok=True)
    except OSError as exc:
        _refuse(prog, f"cannot use {exc.filename}: {exc.strerror}")
    own = {o: getattr(args, o) for o in sweep.options}
    configs = [dict(own, command=args.metric, cache_dir=cache_dir, n=n) for n in ns]
    rows = [row for rs in _map_jobs(_task, configs, args.jobs) for row in rs]
    _emit("\n".join([sweep.header] + rows) + "\n", args)
    return 0


def cmd_fit(args):
    prog = "lshapearc fit"
    try:
        with open(args.input) as fh:
            header = fh.readline().strip().split(",")
            rows = [line.strip().split(",") for line in fh if line.strip()]
    except OSError as exc:
        _refuse(prog, f"cannot read {args.input}: {exc.strerror}")
    col = args.value_col or next((s.value for s in SWEEPS.values() if s.value in header), None)
    if col is None:
        _refuse(prog, f"no known value column in {header}; use --value-col")
    model = "affine_in_logn" if args.model == "affine" else "power_law"
    try:
        i_n, i_v = header.index("n"), header.index(col)
        pairs = [(int(r[i_n]), float(r[i_v])) for r in rows]
        fit = fit_growth(pairs, model)
    except (ValueError, IndexError) as exc:
        _refuse(prog, f"{args.input}: {exc}")
    doc = {
        "schema_version": DOC_VERSION,
        **dataclasses.asdict(fit),
        "value_column": col,
        "predictions": [{"n": n, "value": v, "fitted": fit.predict(n)} for n, v in pairs],
    }
    _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", args)
    return 0


def cmd_verify(args):
    from .verify import run_all

    results = run_all()
    width = max(len(name) for name, _, _ in results)
    lines = [f"{'PASS' if ok else 'FAIL'}  {name:<{width}}  {detail}" for name, ok, detail in results]
    failures = sum(not ok for _, ok, _ in results)
    lines.append(f"{len(results) - failures}/{len(results)} invariant checks passed")
    _emit("\n".join(lines) + "\n", args)
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _refuse(prog, message):
    """Bad input: one line on stderr and exit code 2, before any computation."""
    sys.stderr.write(f"{prog}: error: {message}\n")
    raise SystemExit(2)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        _refuse(self.prog, message)  # one line, without the usage block


def _checked(parse, ok, what):
    """An argparse type: parse the text, then refuse values failing `ok`."""

    def convert(text):
        try:
            if ok(value := parse(text)):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {what}, not {text!r}")

    return convert


_DEGREE = _checked(int, lambda n: n >= 0, "a nonnegative integer")
_DEGREES = _checked(lambda s: [int(x) for x in s.split(",")], lambda ns: min(ns) >= 0 and len(set(ns)) == len(ns),
                    "comma-separated distinct nonnegative integers")
_SWEEP = _checked(lambda s: [int(x) for x in s.split("..")], lambda ks: len(ks) == 2 and 0 <= ks[0] <= ks[1],
                  "k0..k1 with integers 0 <= k0 <= k1")
_POSITIVE = _checked(int, lambda m: m >= 1, "a positive integer")
_EXPONENT = _checked(float, lambda p: 1 < p < float("inf"), "a finite exponent > 1")
_EXPONENTS = _checked(lambda s: [float(x) for x in s.split(",")],
                      lambda ps: all(1 < p < float("inf") for p in ps) and len(set(ps)) == len(ps),
                      "comma-separated distinct finite exponents > 1")
_TOLERANCE = _checked(float, lambda x: 0 < x < float("inf"), "a positive finite number")


def _add_common(sp, metric):
    """The options every sweep command shares; `metric` names its SWEEPS entry."""
    sp.set_defaults(func=cmd_sweep, metric=metric)
    degrees = sp.add_mutually_exclusive_group(required=True)
    degrees.add_argument("--n", type=_DEGREE, default=None, help="single degree")
    degrees.add_argument("--sweep", type=_SWEEP, help="powers-of-two range k0..k1 (degrees 2^k0..2^k1)")
    degrees.add_argument("--list", type=_DEGREES, help="comma-separated explicit degrees")
    sp.add_argument("--out", default=None, help="output path (default stdout)")
    sp.add_argument("--cache-dir", default=None,
                    help=f"cache directory (default ${CACHE_ENV_VAR} if set)")
    sp.add_argument("--jobs", type=_POSITIVE, default=1, help="parallel workers")


def build_parser():
    ap = _Parser(prog="lshapearc", description="Interpolation-node experiments on the L-shape arc")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("nodes", help="dump a node family as JSON")
    sp.add_argument("--n", type=_DEGREE, required=True)
    sp.add_argument("--family", choices=["raw", "adjusted"], default="adjusted")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_nodes)

    for name in ("lebesgue", "sweep"):
        sp = sub.add_parser(name, help="Lebesgue constants (CSV)")
        _add_common(sp, "lebesgue")
        sp.add_argument("--family", choices=["raw", "adjusted"], default="adjusted")
        sp.add_argument("--grid-per-gap", type=_checked(int, lambda g: g >= 8, "an integer >= 8"), default=64)

    sp = sub.add_parser("minmax", help="level-curve extrema of the nodal magnitude (CSV)")
    _add_common(sp, "minmax")
    sp.add_argument("--rho", choices=["n", "n+1"], default="n+1")

    sp = sub.add_parser("apweight", help="Muckenhoupt A_p constants (CSV)")
    _add_common(sp, "apweight")
    sp.add_argument("--p", type=_EXPONENTS, default="2", help="comma-separated exponents > 1")

    sp = sub.add_parser("mzratio", help="basis-integral to level-distance ratios (CSV)")
    _add_common(sp, "mzratio")
    sp.add_argument("--p", type=_EXPONENT, default="2")
    sp.add_argument("--quad-tol", type=_TOLERANCE, default=1e-8, help="relative error target per node-to-node panel")

    sp = sub.add_parser("fit", help="growth-law fit of a sweep CSV (JSON)")
    sp.add_argument("input", help="CSV produced by a sweep command")
    sp.add_argument("--model", choices=["affine", "power"], required=True)
    sp.add_argument("--value-col", default=None)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_fit)

    sp = sub.add_parser("verify", help="run the cross-module invariant suite")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_verify)

    return ap


def main(argv=None):
    args, extra = build_parser().parse_known_args(argv)
    if extra:  # refused in the subcommand's name, as its other errors are
        _refuse(f"lshapearc {args.command}", f"unrecognized arguments: {' '.join(extra)}")
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
