#!/usr/bin/env python3
"""Benchmark of lshapearc's Lebesgue, level-curve and MZ-quadrature paths.

One run, from the root of a source checkout:

    python3 bench/run.py --workload lebesgue-sweep --seed 1 --seconds 20 --trace 0

repeats whole rounds of the workload's program calls for --seconds,
checks the outputs, and prints as its last line one JSON object with
`correct`, `attempted`, `failed` and `metrics`.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 rounds alternate
between untraced and traced, and the metrics are the per-layer ones of
the traced rounds plus the tracing overhead.

    python3 bench/run.py --all

runs every workload once for each of the seeds 1..10, each run in its
own process, then one traced run per workload, and prints every metric
with its median and quartile spread.  Workloads, run length, units and
bounds are read from BENCHMARK.json at the root of the checkout.

The program is imported from ./src of the checkout, never from an
installed copy; the CLI cache is off.  Results and spans go to
bench/out/.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# no more BLAS threads than the CPUs this process may run on
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, str(len(os.sched_getaffinity(0))))

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
with open(ROOT / "BENCHMARK.json") as _fh:
    SPEC = json.load(_fh)
SRC = ROOT / "src"
OUT = HERE / "out"
CACHE_ENV_VAR = "LSHAPEARC_CACHE_DIR"
SETUP_SAMPLES = 3  # timed cold imports per run, after one untimed import that fills __pycache__
MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 2  # of each kind, in a traced run
SUITE_SEEDS = range(1, 11)
CHILD_TIMEOUT = 170

_IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import lshapearc, lshapearc.cli\n"
    "print(time.perf_counter() - t)\n"
)


def nproc():
    return len(os.sched_getaffinity(0))


def host_record():
    try:
        blas = {k: v for k, v in np.show_config(mode="dicts")["Build Dependencies"]["blas"].items()
                if k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True,
                              timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "lshapearc").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    import scipy
    import mpmath

    return {
        "nproc": nproc(),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas": blas,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def measure_setup():
    """Median time of a cold `import lshapearc, lshapearc.cli` in a fresh interpreter."""
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(SRC)], capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"importing lshapearc failed:\n{proc.stderr}")
        if i > 0:
            samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def import_program():
    sys.path.insert(0, str(SRC))
    import lshapearc
    import lshapearc.cli

    if Path(lshapearc.__file__).resolve().parent != SRC / "lshapearc":
        raise RuntimeError(f"imported lshapearc from {lshapearc.__file__}, not from {SRC}")
    return lshapearc


def run_rounds(workload, seconds, trace, modules):
    """Rounds until `seconds` have passed; in a traced run every second round is traced."""
    import tracer as tracing

    rounds = []
    start = time.perf_counter()
    while True:
        tracer = tracing.Tracer() if trace and len(rounds) % 2 == 1 else None
        if tracer is not None:
            tracer.install(modules)
        error = None
        t0 = time.perf_counter()
        try:
            workload.round()
        except Exception as exc:  # the round's operations fail; the run goes on
            error = f"round raised {exc!r}"
        finally:
            wall = time.perf_counter() - t0
            if tracer is not None:
                tracer.uninstall()
        rounds.append({"wall_s": wall, "t0": t0, "spans": tracer.spans if tracer is not None else None,
                       "error": error, "outputs": {} if error else workload.collect()})
        n_traced = sum(r["spans"] is not None for r in rounds)
        if trace:
            enough = min(n_traced, len(rounds) - n_traced) >= MIN_TRACED_ROUNDS
        else:
            enough = len(rounds) >= MIN_ROUNDS
        if enough and time.perf_counter() - start >= seconds:
            return rounds


def tally(workload, rounds):
    """Checks the first round's outputs; later rounds must repeat them exactly."""
    messages = []
    failed = 0
    for key in workload.keys:
        first = rounds[0]["outputs"].get(key)
        try:
            failures = workload.check(key, first) if first is not None else ["output missing"]
        except Exception as exc:  # a check that raises fails its operation
            failures = [f"check raised {exc!r}"]
        for r, rnd in enumerate(rounds):
            problems = list(failures)
            if rnd["error"]:
                problems.append(rnd["error"])
            elif r > 0 and rnd["outputs"].get(key) != first:
                problems.append(f"round {r + 1} output differs from round 1")
            if problems:
                failed += 1
                messages.extend(f"{workload.name} {key} round {r + 1}: {p}" for p in problems)
    return len(workload.keys) * len(rounds), failed, messages


def single_run(args):
    if not (SRC / "lshapearc" / "__init__.py").is_file():
        print(f"error: no lshapearc source at {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    os.environ.pop(CACHE_ENV_VAR, None)
    OUT.mkdir(exist_ok=True)
    outdir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    outdir.mkdir(exist_ok=True)

    setup_s = None if args.trace else measure_setup()
    lshapearc = import_program()
    import workloads

    modules = [lshapearc] + [sys.modules[f"lshapearc.{m}"] for m in ("families", "nodal", "metrics", "conformal", "cli")]
    host = host_record()
    print("host: " + json.dumps(host, sort_keys=True))

    workload = workloads.WORKLOADS[args.workload](lshapearc, str(outdir), np.random.default_rng(args.seed))
    workload.prepare()

    rounds = run_rounds(workload, args.seconds, bool(args.trace), modules)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted, failed, messages = tally(workload, rounds)
    for m in messages:
        print("FAIL " + m, file=sys.stderr)

    plain = [r["wall_s"] for r in rounds if r["spans"] is None]
    traced = [r for r in rounds if r["spans"] is not None]
    if not args.trace:
        metrics = {
            "wall_s": statistics.median(plain),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }
    else:
        import tracer as tracing

        per_round = [tracing.layer_metrics(r["spans"]) for r in traced]
        metrics = {k: statistics.median(m[k] for m in per_round) for k in per_round[0]}
        overhead = statistics.median(r["wall_s"] for r in traced) / statistics.median(plain) - 1.0
        metrics["trace.overhead_pct"] = 100.0 * overhead
        with open(OUT / f"{args.workload}-seed{args.seed}-spans.json", "w") as fh:
            json.dump({"fields": ["name", "parent", "start_s", "end_s", "attrs"],
                       "rounds": [[[s[0], s[1], s[2] - r["t0"], s[3] - r["t0"], s[4]] for s in r["spans"]]
                                  for r in traced]}, fh)

    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    result = {
        "correct": not messages,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"host": host, "args": vars(args), "rounds_wall_s": [r["wall_s"] for r in rounds],
                   "rounds_traced": [r["spans"] is not None for r in rounds], "failures": messages, **result}, fh, indent=1)
    print(json.dumps(result))
    return 0


def _quartile_spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def suite(args):
    """Every workload over SUITE_SEEDS, each run in its own process, then one traced run each."""
    names = [w["name"] for w in SPEC["workloads"]]
    seeds = list(SUITE_SEEDS)
    report = {"host": None, "workloads": {}}
    ok = True
    for name in names:
        runs = []
        for seed in seeds + [None]:
            trace = seed is None
            argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seeds[0] if trace else seed),
                    "--seconds", str(args.seconds), "--trace", "1" if trace else "0"]
            t = time.perf_counter()
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=CHILD_TIMEOUT, cwd=ROOT)
            elapsed = time.perf_counter() - t
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name}: run failed (exit {proc.returncode})\n{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            report["host"] = json.loads(lines[0][len("host: "):])
            result["run_elapsed_s"] = elapsed
            result["trace"] = trace
            runs.append(result)
            ok &= result["correct"]
            print(f"{name} seed={seed if not trace else str(seeds[0]) + ' traced'} elapsed={elapsed:.1f}s "
                  f"attempted={result['attempted']} failed={result['failed']} correct={result['correct']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items() if not trace),
                  flush=True)
        plain = [r for r in runs if not r["trace"]]
        summary = {}
        for m in SPEC["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in plain]
            med, spread = _quartile_spread(vals)
            summary[m["name"]] = {"unit": m["unit"], "median": med, "spread": spread, "bound": m["bound"],
                                  "values": vals}
        traced = runs[-1]["metrics"]
        report["workloads"][name] = {"end_to_end": summary, "per_layer": traced,
                                     "failed_share": [r["failed"] / r["attempted"] for r in plain],
                                     "run_elapsed_s": [r["run_elapsed_s"] for r in runs]}
        print(f"\n== {name}: {len(plain)} runs")
        for metric, s in summary.items():
            print(f"  {metric:<12} median {s['median']:.4f} {s['unit']:<3} spread {100 * s['spread']:.1f}% "
                  f"(bound {100 * s['bound']:.0f}%)")
        for metric, v in traced.items():
            print(f"  {metric:<34} {v['value']:.6g} {v['unit']}")
        print()
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"suite-{time.strftime('%Y%m%dT%H%M%S')}.json", "w") as fh:
        json.dump(report, fh, indent=1)
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=[w["name"] for w in SPEC["workloads"]])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--all", action="store_true", help="run every workload over the seeds 1..10")
    args = ap.parse_args(argv)
    if args.all:
        return suite(args)
    if args.workload is None:
        ap.error("--workload is required")
    return single_run(args)


if __name__ == "__main__":
    sys.exit(main())
