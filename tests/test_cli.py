import json
import os
import signal
import subprocess
import sys

import numpy as np
import pytest

from lshapearc import cli, verify
from lshapearc.cli import main
from lshapearc.metrics import FitResult

# subprocesses import lshapearc from where this process found it, installed or not
_SRC = os.path.dirname(os.path.dirname(cli.__file__))
_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p))


def run_cli(args):
    return main(args)


def test_nodes_n32_lists_collision_pair(tmp_path):
    out = tmp_path / "nodes.json"
    run_cli(["nodes", "--n", "32", "--family", "adjusted", "--out", str(out)])
    doc = json.loads(out.read_text())
    assert [16, 4] in doc["adjusted_pairs"]
    assert len(doc["angles"]) == 33


def test_nodes_n2_trivial(tmp_path):
    out = tmp_path / "nodes.json"
    run_cli(["nodes", "--n", "2", "--family", "adjusted", "--out", str(out)])
    doc = json.loads(out.read_text())
    assert doc["adjusted_pairs"] == []
    assert len(doc["points"]) == 3
    # at n = 0 the adjusted family is the raw grid, reported as adjusted
    raw = tmp_path / "raw0.json"
    run_cli(["nodes", "--n", "0", "--out", str(out)])
    run_cli(["nodes", "--n", "0", "--family", "raw", "--out", str(raw)])
    doc, raw_doc = json.loads(out.read_text()), json.loads(raw.read_text())
    assert doc["family"] == "adjusted" and raw_doc["family"] == "raw"
    assert doc["points"] == raw_doc["points"] and doc["angles"] == raw_doc["angles"]


def test_sweep_schema_and_values(tmp_path):
    out = tmp_path / "sweep.csv"
    run_cli(["sweep", "--list", "0,16", "--family", "adjusted", "--out", str(out)])
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,family,L_n,L_over_log,argmax_t,grid_per_gap"
    row0 = lines[1].split(",")
    assert row0[0] == "0" and float(row0[2]) == 1.0 and row0[3] == "nan"
    row16 = lines[2].split(",")
    # frozen regression value; the published figure for this entry is
    # 4.838368, about 12.5% above what the documented adjustment yields
    assert float(row16[2]) == pytest.approx(4.235814, rel=1e-4)
    assert float(row16[3]) == pytest.approx(float(row16[2]) / np.log(16), abs=1e-5)


def test_sweep_jobs_after_kernel_pool_started(tmp_path):
    # the forked sweep workers inherit a started kernel thread pool, whose
    # threads they lack; a subprocess with a timeout turns a hang into a failure
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli(["sweep", "--list", "16,32,64", "--jobs", "1", "--out", str(a)])
    code = (
        "import sys, threading, numpy as np\n"
        "from lshapearc import cli, nodal\n"
        "from lshapearc.families import build_raw\n"
        "nodal.log_abs_omega(build_raw(64), np.zeros(4 * nodal._CHUNK_CELLS // 65, complex))\n"
        "assert threading.active_count() > 1\n"
        "cli.main(['sweep', '--list', '16,32,64', '--jobs', '2', '--out', sys.argv[1]])\n"
    )
    # its own process group, so that a hang is killed with the forked workers
    proc = subprocess.Popen([sys.executable, "-c", code, str(b)], stderr=subprocess.PIPE, text=True,
                            start_new_session=True, env=_ENV)
    try:
        _, err = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("sweep --jobs 2 hung after the kernel's thread pool had started")
    assert proc.returncode == 0, err
    assert a.read_bytes() == b.read_bytes()


def _bump_version(monkeypatch, command):
    sweep = cli.SWEEPS[command]
    monkeypatch.setitem(cli.SWEEPS, command, sweep._replace(version=sweep.version + "-bumped"))


def test_sweep_cache_replay(tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["sweep", "--list", "16,32", "--family", "raw", "--cache-dir", str(cache)]
    run_cli(args + ["--out", str(a)])
    entries = sorted(cache.glob("lebesgue-*.json"))
    assert len(entries) == 2
    run_cli(args + ["--out", str(b)])
    assert a.read_bytes() == b.read_bytes()
    # corrupt one entry: the sweep recomputes and still matches
    entries[0].write_text("{not json")
    c = tmp_path / "c.csv"
    run_cli(args + ["--out", str(c)])
    assert a.read_bytes() == c.read_bytes()
    # a bumped algorithm version misses every old entry and writes its own
    _bump_version(monkeypatch, "lebesgue")
    run_cli(args + ["--out", str(c)])
    assert len(sorted(cache.glob("lebesgue-*.json"))) == 4
    assert a.read_bytes() == c.read_bytes()


@pytest.mark.parametrize(
    "command, own, key",
    [
        ("lebesgue", {"family": "adjusted", "grid_per_gap": 64}, "9c52079b94ff94684e8bfeac"),
        ("minmax", {"rho": "n+1"}, "17d22964c6c035124e7682b9"),
        ("apweight", {"p": [2.0, 4.0]}, "c84aee0ce95eba3c72fc17c4"),
        ("mzratio", {"p": 2.0, "quad_tol": 1e-8}, "01af803b1f6a1c4d55153828"),
    ],
)
def test_cache_key_pinned(command, own, key):
    # entries written before stay valid; a version bump must change the literal on purpose
    assert cli._cache_key(dict(own, command=command, cache_dir="cache", n=16)) == key


def _refused_in_one_line(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert err.startswith(f"lshapearc {argv[0]}: error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["lebesgue", "--n", "-1"],
        ["sweep", "--sweep", "4..x"],
        ["apweight", "--n", "16", "--p", "1"],
        ["sweep", "--n", "16", "--grid-per-gap", "4"],
        ["minmax", "--n", "0", "--rho", "n"],
        ["apweight", "--n", "4", "--window-max", "-5"],
        ["mzratio"],
        ["sweep", "--n", "16", "--list", "32,64"],
        ["minmax", "--sweep", "4..5", "--list", "7"],
        ["lebesgue", "--n", "16", "--refine-tol", "nan"],  # no such option: refused as unknown
        ["lebesgue", "--n", "16", "--refine-tol", "-1e-9"],
        ["mzratio", "--n", "16", "--quad-tol", "-1e-8"],
        ["sweep", "--n", "16", "--jobs", "0"],
        ["minmax", "--n", "16", "--jobs", "-3"],
        ["sweep", "--sweep", "3..2"],
        ["apweight", "--n", "16", "--window-step-denom", "64"],
        ["apweight", "--n", "16", "--p", "inf"],
        ["mzratio", "--n", "16", "--p", "inf"],
        ["minmax", "--list", "16,16,16,16"],
        ["sweep", "--list", "0,16,0"],
        ["apweight", "--n", "16", "--p", "2,2"],
        ["apweight", "--n", "16", "--p", "2,2.0,4"],
    ],
)
def test_bad_input_is_one_line_exit_2(argv, capsys):
    _refused_in_one_line(capsys, argv)


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("option", ["--out", "--cache-dir"])
def test_sweep_refuses_unusable_path_before_computing(tmp_path, capsys, monkeypatch, option, jobs):
    blocker = tmp_path / "file"
    blocker.write_text("")
    path = tmp_path / "missing" / "x.csv" if option == "--out" else blocker / "sub"

    def computed(*args, **kwargs):
        raise AssertionError("computed before the path was refused")

    monkeypatch.setattr(cli, "lebesgue_constant", computed)
    _refused_in_one_line(capsys, ["sweep", "--list", "4,8", "--jobs", jobs, option, str(path)])


def test_nodes_refuses_unusable_out(tmp_path, capsys):
    _refused_in_one_line(capsys, ["nodes", "--n", "4", "--out", str(tmp_path / "missing" / "nodes.json")])


def test_minmax_csv(tmp_path):
    out = tmp_path / "minmax.csv"
    run_cli(["minmax", "--n", "16", "--out", str(out)])
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,rho,min,max,ratio"
    # the columns hold the record's values; criterion 06 holds the values themselves
    lo, hi = cli.level_minmax(16)
    assert lines[1].split(",")[2:4] == [cli._fmt(lo.value), cli._fmt(hi.value)]


def test_apweight_csv(tmp_path):
    out = tmp_path / "ap.csv"
    run_cli(["apweight", "--n", "16", "--p", "2,4", "--out", str(out)])
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,p,M_n,step_denom,window_max"
    # the values restate criterion 07's n = 16 cells, which cannot carry them: the criterion fails on the (64, 2) cell
    vals = {float(r.split(",")[1]): float(r.split(",")[2]) for r in lines[1:]}
    assert abs(vals[2.0] - 1.59) / 1.59 < 0.15
    assert abs(vals[4.0] - 1.66) / 1.66 < 0.15


def test_mzratio_csv(tmp_path):
    out = tmp_path / "mz.csv"
    run_cli(["mzratio", "--n", "16", "--p", "2", "--out", str(out)])
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,p,k,R,dist"
    row = lines[1].split(",")
    assert float(row[3]) > 0 and float(row[4]) > 0


def test_fit_power_roundtrip(tmp_path):
    csv = tmp_path / "mz.csv"
    rows = ["n,p,k,R,dist"]
    for n in [16, 32, 64, 128, 256]:
        rows.append(f"{n},2,0,{4.5 + 0.4 * n ** 0.65:.6f},0.01")
    csv.write_text("\n".join(rows) + "\n")
    out = tmp_path / "fit.json"
    run_cli(["fit", str(csv), "--model", "power", "--out", str(out)])
    doc = json.loads(out.read_text())
    assert abs(doc["beta"] - 0.65) < 0.05
    assert doc["value_column"] == "R"
    _assert_predictions(doc)


def test_fit_affine_on_lebesgue_csv(tmp_path):
    csv = tmp_path / "lb.csv"
    rows = ["n,family,L_n,L_over_log,argmax_t,grid_per_gap"]
    for n in [256, 512, 1024, 2048]:
        L = (1.0 + 0.1 * np.log(n)) * np.log(n)
        rows.append(f"{n},adjusted,{L:.6f},{L / np.log(n):.6f},0.0,64")
    csv.write_text("\n".join(rows) + "\n")
    out = tmp_path / "fit.json"
    run_cli(["fit", str(csv), "--model", "affine", "--out", str(out)])
    doc = json.loads(out.read_text())
    assert doc["a"] == pytest.approx(1.0, abs=1e-6)
    assert doc["b"] == pytest.approx(0.1, abs=1e-6)
    _assert_predictions(doc)


@pytest.mark.parametrize("command, column", [("lebesgue", "L_n"), ("minmax", "ratio"), ("apweight", "M_n"),
                                             ("mzratio", "R")])
def test_fit_finds_value_column_of_each_sweep_csv(tmp_path, command, column):
    header = cli.SWEEPS[command].header.split(",")
    rows = [[str(n) if c == "n" else f"{2.0 * n ** 0.5:.6f}" if c == column else "0" for c in header]
            for n in (16, 32, 64, 128)]
    csv, out = tmp_path / f"{command}.csv", tmp_path / "fit.json"
    csv.write_text("\n".join(",".join(r) for r in [header] + rows) + "\n")
    run_cli(["fit", str(csv), "--model", "power", "--out", str(out)])
    doc = json.loads(out.read_text())
    assert doc["value_column"] == column
    assert doc["beta"] == pytest.approx(0.5, abs=1e-6)
    _assert_predictions(doc)


def _assert_predictions(doc):
    fit = FitResult(doc["model"], doc["a"], doc["b"], beta=doc["beta"])
    for row in doc["predictions"]:
        assert row["fitted"] == fit.predict(row["n"])
        assert abs(row["fitted"] - row["value"]) < 1e-6


def _fit_refused(tmp_path, capsys, text, extra=()):
    csv = tmp_path / "in.csv"
    if text is not None:
        csv.write_text(text)
    with pytest.raises(SystemExit) as exc:
        run_cli(["fit", str(csv), "--model", "power", "--out", str(tmp_path / "f.json"), *extra])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and err.startswith("lshapearc fit: error: ")
    return err


def test_fit_too_few_points(tmp_path, capsys):
    _fit_refused(tmp_path, capsys, "n,p,k,R,dist\n16,2,0,1.0,0.1\n")


_ROWS = "16,2,0,1.0,0.1\n32,2,0,2.0,0.1\n64,2,0,3.0,0.1\n"


@pytest.mark.parametrize(
    "text, extra",
    [
        ("n,p,k,R,dist\n16,2,0,1.0,0.1\n32,2,0,x,0.1\n64,2,0,3.0,0.1\n", ()),
        ("n,p,k,R,dist\n" + _ROWS, ("--value-col", "Q")),
        (None, ()),
        ("n,p,k,S,dist\n" + _ROWS, ()),
        ("deg,p,k,R,dist\n" + _ROWS, ()),
        ("n,p,M_n\n" + "".join(f"{n},{p},{n / p}\n" for n in (16, 32, 64) for p in (2, 4)), ()),
    ],
    ids=["non_numeric_cell", "unknown_value_col", "missing_file", "no_known_value_col", "no_n_col",
         "repeated_degree"],
)
def test_fit_bad_input_is_one_line_exit_2(tmp_path, capsys, text, extra):
    _fit_refused(tmp_path, capsys, text, extra)


def test_fit_refuses_non_finite_value(tmp_path, capsys):
    # L_over_log is nan at n = 0 and n = 1: the fit names the first such row
    header = "n,family,L_n,L_over_log,argmax_t,grid_per_gap\n"
    rows = "".join(f"{n},adjusted,{L:.6f},{over},0.0,64\n"
                   for n, L, over in [(1, 1.414214, "nan"), (16, 4.2, "1.5"), (32, 4.6, "1.3"), (64, 5.0, "1.2")])
    err = _fit_refused(tmp_path, capsys, header + rows, ("--value-col", "L_over_log"))
    assert "(n, value) = (1, nan)" in err


def test_fit_affine_refuses_degree_zero_before_any_log(tmp_path):
    # LAPACK warnings go straight to file descriptor 2, so run a subprocess
    csv = tmp_path / "lb.csv"
    rows = ["n,family,L_n,L_over_log,argmax_t,grid_per_gap", "0,adjusted,1.000000,nan,0.0,64"]
    rows += [f"{n},adjusted,{n:.6f},1.0,0.0,64" for n in (16, 32, 64)]
    csv.write_text("\n".join(rows) + "\n")
    proc = subprocess.run(
        [sys.executable, "-m", "lshapearc.cli", "fit", str(csv), "--model", "affine"],
        capture_output=True,
        text=True,
        env=_ENV,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert len(proc.stderr.strip().splitlines()) == 1
    assert proc.stderr.startswith("lshapearc fit: error: ") and "n = 0" in proc.stderr


def test_apweight_cache_one_entry_per_degree(tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["apweight", "--list", "16,32", "--p", "2,4", "--cache-dir", str(cache)]
    run_cli(args + ["--out", str(a)])
    entries = sorted(cache.glob("apweight-*.json"))
    assert len(entries) == 2
    stamps = [e.stat().st_mtime_ns for e in entries]
    run_cli(args + ["--out", str(b)])
    assert sorted(cache.glob("apweight-*.json")) == entries
    assert [e.stat().st_mtime_ns for e in entries] == stamps
    assert a.read_bytes() == b.read_bytes()
    assert len(a.read_text().splitlines()) == 5
    # a bumped algorithm version misses both entries and writes its own
    _bump_version(monkeypatch, "apweight")
    run_cli(args + ["--out", str(b)])
    assert len(sorted(cache.glob("apweight-*.json"))) == 4
    assert a.read_bytes() == b.read_bytes()


def test_verify_negative_control(tmp_path, monkeypatch):
    ok, _ = verify._check_endpoint()
    assert ok
    # the reflected branch: the check must see the endpoint of the other arm
    monkeypatch.setattr(verify, "ENDPOINT", np.conj(verify.ENDPOINT))
    ok, _ = verify._check_endpoint()
    assert not ok
    out = tmp_path / "verify.txt"
    assert main(["verify", "--out", str(out)]) == 1
    lines = out.read_text().splitlines()
    assert [line.split()[1] for line in lines if line.startswith("FAIL")] == ["endpoint_identity"]
    assert lines[-1] == "20/21 invariant checks passed"


def test_cli_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "lshapearc.cli", "nodes", "--n", "4"],
        capture_output=True,
        text=True,
        env=_ENV,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["n"] == 4


def test_commands_without_quadrature_load_no_scipy(tmp_path):
    # scipy costs most of a cold start, and no command loads it, verify included.
    # multiprocessing and hashlib load only with --jobs above 1 and with a cache;
    # verify's seeded draws load numpy.random, which loads hashlib, so it runs last
    fit_in = tmp_path / "fit.csv"
    fit_in.write_text("n,R\n16,3.0\n32,3.9\n64,5.1\n128,6.6\n")
    code = (
        "import sys\n"
        "import lshapearc, lshapearc.cli\n"
        "d = sys.argv[1]\n"
        "for argv in (['lebesgue', '--n', '16'], ['minmax', '--n', '16'], ['apweight', '--n', '16', '--p', '2'],\n"
        "             ['nodes', '--n', '16'], ['fit', d + '/fit.csv', '--model', 'power'],\n"
        "             ['mzratio', '--n', '16', '--p', '2']):\n"
        "    assert lshapearc.cli.main(argv + ['--out', d + '/' + argv[0] + '.out']) == 0\n"
        "lshapearc.mz_ratio_worst(16, 4.0, [0, 3])\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'multiprocessing', 'hashlib')))\n"
        "assert lshapearc.cli.main(['verify', '--out', d + '/verify.out']) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = {k: v for k, v in _ENV.items() if k != cli.CACHE_ENV_VAR}
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]", "[]"]
    assert json.loads((tmp_path / "fit.out").read_text())["model"] == "power_law"
    assert (tmp_path / "lebesgue.out").read_text().splitlines()[1].startswith("16,adjusted,")
    assert (tmp_path / "mzratio.out").read_text().splitlines()[1].startswith("16,2,")
    assert (tmp_path / "verify.out").read_text().splitlines()[-1] == "21/21 invariant checks passed"
