"""Command-line front end: sweeps, caching, CSV/JSON emission, verification.

Every command is a pure function of its configuration: re-running with
the same flags (at any parallelism degree) produces byte-identical
output files.  Per-n results are cached as JSON keyed by a hash of the
schema version, the command's algorithm version and the exact settings
that produced them.  Bad arguments get a one-line error and exit code 2.
"""

import argparse
import hashlib
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

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

SCHEMA_VERSION = "1"
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


def _cache_dir(args) -> str:
    return args.cache_dir or os.environ.get(CACHE_ENV_VAR) or None


def _cache_key(payload: dict, version: str) -> str:
    blob = json.dumps({"schema_version": SCHEMA_VERSION, "algorithm_version": version, **payload}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:24]


def _cached(cfg, compute):
    """compute(cfg), or its stored result for the same command, version and settings."""
    cache_dir = cfg["cache_dir"]
    if cache_dir is None:
        return compute(cfg)
    command = cfg["command"]
    payload = {k: v for k, v in cfg.items() if k != "cache_dir"}
    os.makedirs(cache_dir, exist_ok=True)
    path = os.path.join(cache_dir, f"{command}-{_cache_key(payload, VERSIONS[command])}.json")
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


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_ns(args) -> list:
    if args.n is not None:
        return [args.n]
    if args.sweep:
        k0, k1 = args.sweep
        return [2**k for k in range(k0, k1 + 1)]
    if args.list:
        return args.list
    _refuse(f"lshapearc {args.command}", "one of --n, --sweep, --list is required")


def _map_jobs(fn, tasks, jobs):
    """Order-preserving map; results identical at any parallelism degree."""
    if jobs <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, tasks))


# ---------------------------------------------------------------------------
# workers (module-level for pickling)
# ---------------------------------------------------------------------------


def _build(n, family_kind):
    return build_adjusted(n) if family_kind == "adjusted" else build_raw(n)


# bump a command's algorithm version whenever its numbers may change
VERSIONS = {
    "lebesgue": "1",
    "minmax": "1",
    "apweight": "3",  # 3: window centred at |t0|, q-power sums shifted to stay finite
    "mzratio": "3",  # 3: ratio index nearest the level minimum at |t0|
}


def _lebesgue(cfg):
    fam = _build(cfg["n"], cfg["family"])
    rec = lebesgue_constant(fam, grid_per_gap=cfg["grid_per_gap"], refine_tol=cfg["refine_tol"])
    return {"n": cfg["n"], "family": cfg["family"], "L": rec.value, "argmax_t": rec.location}


def _minmax(cfg):
    lo, hi = level_minmax(cfg["n"], convention=cfg["convention"])
    return {"n": cfg["n"], "rho": LevelCurve(cfg["n"], cfg["convention"]).rho, "min": lo.value, "max": hi.value}


def _apweight(cfg):
    recs = muckenhoupt_constant(cfg["n"], cfg["ps"], window_max=cfg["window_max"])
    return [{"n": cfg["n"], "p": rec.p, "M": rec.value,
             "step_denom": rec.settings["window_step_denom"], "window_max": rec.settings["window_max"]} for rec in recs]


def _mzratio(cfg):
    rec = mz_ratio(cfg["n"], cfg["p"], quad_tol=cfg["quad_tol"])
    return {"n": cfg["n"], "p": cfg["p"], "k": int(rec.location), "R": rec.value, "dist": rec.settings["dist"]}


def _task(cfg):
    """One sweep entry: the result of cfg's command for cfg, through the cache."""
    compute = {"lebesgue": _lebesgue, "minmax": _minmax, "apweight": _apweight, "mzratio": _mzratio}
    return _cached(cfg, compute[cfg["command"]])


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_nodes(args):
    fam = _build(args.n, args.family)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "config": {"n": args.n, "family": args.family},
        "n": fam.n,
        "family": fam.kind,
        "angles": list(fam.angles),
        "folded": list(fam.folded),
        "points": [[z.real, z.imag] for z in fam.points],
        "adjusted_pairs": [list(p) for p in fam.adjusted_pairs],
    }
    _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.out)
    return 0


def _sweep(args, command, configs, header, row):
    """Run `command` over `configs` in order and emit a CSV: the header, then row(result) for each."""
    cache_dir = _cache_dir(args)
    results = _map_jobs(_task, [dict(c, command=command, cache_dir=cache_dir) for c in configs], args.jobs)
    _emit("\n".join([header] + [row(r) for r in results]) + "\n", args.out)
    return 0


def cmd_lebesgue(args):
    def row(r):
        over = r["L"] / np.log(r["n"]) if r["n"] >= 2 else float("nan")
        return f"{r['n']},{r['family']},{_fmt(r['L'])},{_fmt(over)},{_fmt(r['argmax_t'])},{args.grid_per_gap},{args.refine_tol:g}"

    configs = [{"n": n, "family": args.family, "grid_per_gap": args.grid_per_gap, "refine_tol": args.refine_tol}
               for n in sorted(_parse_ns(args))]
    return _sweep(args, "lebesgue", configs, "n,family,L_n,L_over_log,argmax_t,grid_per_gap,refine_tol", row)


def cmd_minmax(args):
    ns = sorted(_parse_ns(args))
    if args.rho == "n" and 0 in ns:
        _refuse("lshapearc minmax", "--rho n needs degrees of at least 1")
    convention = "one_over_n_plus_1" if args.rho == "n+1" else "one_over_n"
    configs = [{"n": n, "convention": convention} for n in ns]
    return _sweep(args, "minmax", configs, "n,rho,min,max,ratio",
                  lambda r: f"{r['n']},{_fmt(r['rho'])},{_fmt(r['min'])},{_fmt(r['max'])},{_fmt(r['max'] / r['min'])}")


def cmd_apweight(args):
    # one config per degree covers every --p; its rows come back in --p order
    configs = [{"n": n, "ps": args.p, "window_max": args.window_max} for n in sorted(_parse_ns(args))]
    return _sweep(args, "apweight", configs, "n,p,M_n,step_denom,window_max",
                  lambda rs: "\n".join(f"{r['n']},{r['p']:g},{_fmt(r['M'])},{r['step_denom']},{r['window_max']}"
                                       for r in rs))


def cmd_mzratio(args):
    configs = [{"n": n, "p": args.p, "quad_tol": args.quad_tol} for n in sorted(_parse_ns(args))]
    return _sweep(args, "mzratio", configs, "n,p,k,R,dist",
                  lambda r: f"{r['n']},{r['p']:g},{r['k']},{_fmt(r['R'])},{_fmt(r['dist'])}")


def cmd_fit(args):
    prog = "lshapearc fit"
    try:
        with open(args.input) as fh:
            header = fh.readline().strip().split(",")
            rows = [line.strip().split(",") for line in fh if line.strip()]
    except OSError as exc:
        _refuse(prog, f"cannot read {args.input}: {exc.strerror}")
    col = args.value_col or next((c for c in ("L_n", "M_n", "R", "ratio") if c in header), None)
    if col is None:
        _refuse(prog, f"no known value column in {header}; use --value-col")
    model = "affine_in_logn" if args.model == "affine" else "power_law"
    try:
        i_n, i_v = header.index("n"), header.index(col)
        pairs = [(int(r[i_n]), float(r[i_v])) for r in rows]
        fit = fit_growth(pairs, model)
    except (ValueError, IndexError) as exc:
        _refuse(prog, f"{args.input}: {exc}")
    preds = []
    for n, v in pairs:
        if model == "affine_in_logn":
            fitted = (fit.a + fit.b * np.log(n)) * np.log(n)
        else:
            fitted = fit.a + fit.b * n**fit.beta
        preds.append({"n": n, "value": v, "fitted": float(fitted)})
    doc = {
        "schema_version": SCHEMA_VERSION,
        "model": fit.model,
        "a": fit.a,
        "b": fit.b,
        "beta": fit.beta,
        "residual_rms": fit.residual_rms,
        "n_range": list(fit.n_range),
        "value_column": col,
        "predictions": preds,
    }
    _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.out)
    return 0


def cmd_verify(args):
    from .verify import run_all

    results = run_all(flip_branch=args.debug_flip_branch)
    width = max(len(name) for name, _, _ in results)
    failures = 0
    lines = []
    for name, ok, detail in results:
        status = "PASS" if ok else "FAIL"
        failures += 0 if ok else 1
        lines.append(f"{status}  {name:<{width}}  {detail}")
    lines.append(f"{len(results) - failures}/{len(results)} invariant checks passed")
    _emit("\n".join(lines) + "\n", args.out)
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
_DEGREES = _checked(lambda s: [int(x) for x in s.split(",")], lambda ns: min(ns) >= 0,
                    "comma-separated nonnegative integers")
_SWEEP = _checked(lambda s: [int(x) for x in s.split("..")], lambda ks: len(ks) == 2 and 0 <= ks[0] <= ks[1],
                  "k0..k1 with integers 0 <= k0 <= k1")
_POSITIVE = _checked(int, lambda m: m >= 1, "a positive integer")
_EXPONENT = _checked(float, lambda p: p > 1, "an exponent > 1")
_EXPONENTS = _checked(lambda s: [float(x) for x in s.split(",")], lambda ps: min(ps) > 1,
                      "comma-separated exponents > 1")
_TOLERANCE = _checked(float, lambda x: 0 < x < float("inf"), "a positive finite number")


def _add_common(sp):
    sp.add_argument("--n", type=_DEGREE, default=None, help="single degree")
    sp.add_argument("--sweep", type=_SWEEP, help="powers-of-two range k0..k1 (degrees 2^k0..2^k1)")
    sp.add_argument("--list", type=_DEGREES, help="comma-separated explicit degrees")
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
        _add_common(sp)
        sp.add_argument("--family", choices=["raw", "adjusted"], default="adjusted")
        sp.add_argument("--grid-per-gap", type=_checked(int, lambda g: g >= 8, "an integer >= 8"), default=64)
        sp.add_argument("--refine-tol", type=_TOLERANCE, default=1e-9)
        sp.set_defaults(func=cmd_lebesgue)

    sp = sub.add_parser("minmax", help="level-curve extrema of the nodal magnitude (CSV)")
    _add_common(sp)
    sp.add_argument("--rho", choices=["n", "n+1"], default="n+1")
    sp.set_defaults(func=cmd_minmax)

    sp = sub.add_parser("apweight", help="Muckenhoupt A_p constants (CSV)")
    _add_common(sp)
    sp.add_argument("--p", type=_EXPONENTS, default="2", help="comma-separated exponents > 1")
    sp.add_argument("--window-max", type=_POSITIVE, default=None)
    sp.set_defaults(func=cmd_apweight)

    sp = sub.add_parser("mzratio", help="basis-integral to level-distance ratios (CSV)")
    _add_common(sp)
    sp.add_argument("--p", type=_EXPONENT, default="2")
    sp.add_argument("--quad-tol", type=_TOLERANCE, default=1e-8)
    sp.set_defaults(func=cmd_mzratio)

    sp = sub.add_parser("fit", help="growth-law fit of a sweep CSV (JSON)")
    sp.add_argument("input", help="CSV produced by a sweep command")
    sp.add_argument("--model", choices=["affine", "power"], required=True)
    sp.add_argument("--value-col", default=None)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_fit)

    sp = sub.add_parser("verify", help="run the cross-module invariant suite")
    sp.add_argument("--out", default=None)
    sp.add_argument("--debug-flip-branch", action="store_true",
                    help="negative control: check the endpoint against the reflected branch")
    sp.set_defaults(func=cmd_verify)

    return ap


def main(argv=None):
    args, extra = build_parser().parse_known_args(argv)
    if extra:  # refused in the subcommand's name, as its other errors are
        _refuse(f"lshapearc {args.command}", f"unrecognized arguments: {' '.join(extra)}")
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
