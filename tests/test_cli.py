import json
import subprocess
import sys

import numpy as np
import pytest

from lshapearc import cli
from lshapearc.cli import main
from lshapearc.verify import _check_endpoint


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


def test_nodes_rerun_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_cli(["nodes", "--n", "16", "--family", "adjusted", "--out", str(a)])
    run_cli(["nodes", "--n", "16", "--family", "adjusted", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_sweep_schema_and_values(tmp_path):
    out = tmp_path / "sweep.csv"
    run_cli(["sweep", "--list", "0,16", "--family", "adjusted", "--out", str(out)])
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,family,L_n,L_over_log,argmax_t,grid_per_gap,refine_tol"
    row0 = lines[1].split(",")
    assert row0[0] == "0" and float(row0[2]) == 1.0 and row0[3] == "nan"
    row16 = lines[2].split(",")
    assert float(row16[2]) == pytest.approx(4.235814, rel=1e-4)
    assert float(row16[3]) == pytest.approx(float(row16[2]) / np.log(16), abs=1e-5)


def test_sweep_jobs_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli(["sweep", "--list", "16,32,64", "--family", "adjusted", "--jobs", "1", "--out", str(a)])
    run_cli(["sweep", "--list", "16,32,64", "--family", "adjusted", "--jobs", "3", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


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
    monkeypatch.setitem(cli.VERSIONS, "lebesgue", cli.VERSIONS["lebesgue"] + "-bumped")
    run_cli(args + ["--out", str(c)])
    assert len(sorted(cache.glob("lebesgue-*.json"))) == 4
    assert a.read_bytes() == c.read_bytes()


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
        ["lebesgue", "--n", "16", "--refine-tol", "nan"],
        ["lebesgue", "--n", "16", "--refine-tol", "-1e-9"],
        ["mzratio", "--n", "16", "--quad-tol", "-1e-8"],
        ["sweep", "--n", "16", "--jobs", "0"],
        ["minmax", "--n", "16", "--jobs", "-3"],
        ["sweep", "--sweep", "3..2"],
        ["apweight", "--n", "16", "--window-step-denom", "64"],
    ],
)
def test_bad_input_is_one_line_exit_2(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "lshapearc.cli", *argv],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert len(proc.stderr.strip().splitlines()) == 1
    assert proc.stderr.startswith(f"lshapearc {argv[0]}: error: ")


def test_minmax_csv(tmp_path):
    out = tmp_path / "minmax.csv"
    run_cli(["minmax", "--n", "16", "--out", str(out)])
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,rho,min,max,ratio"
    row = lines[1].split(",")
    assert abs(float(row[2]) - 1.09441) / 1.09441 < 0.05
    assert abs(float(row[3]) - 5.31) / 5.31 < 0.05


def test_apweight_csv(tmp_path):
    out = tmp_path / "ap.csv"
    run_cli(["apweight", "--n", "16", "--p", "2,4", "--out", str(out)])
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,p,M_n,step_denom,window_max"
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


def test_fit_affine_on_lebesgue_csv(tmp_path):
    csv = tmp_path / "lb.csv"
    rows = ["n,family,L_n,L_over_log,argmax_t,grid_per_gap,refine_tol"]
    for n in [256, 512, 1024, 2048]:
        L = (1.0 + 0.1 * np.log(n)) * np.log(n)
        rows.append(f"{n},adjusted,{L:.6f},{L / np.log(n):.6f},0.0,64,1e-09")
    csv.write_text("\n".join(rows) + "\n")
    out = tmp_path / "fit.json"
    run_cli(["fit", str(csv), "--model", "affine", "--out", str(out)])
    doc = json.loads(out.read_text())
    assert doc["a"] == pytest.approx(1.0, abs=1e-6)
    assert doc["b"] == pytest.approx(0.1, abs=1e-6)


def _fit_refused(tmp_path, capsys, text, extra=()):
    csv = tmp_path / "in.csv"
    if text is not None:
        csv.write_text(text)
    with pytest.raises(SystemExit) as exc:
        run_cli(["fit", str(csv), "--model", "power", "--out", str(tmp_path / "f.json"), *extra])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and err.startswith("lshapearc fit: error: ")


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
    ],
    ids=["non_numeric_cell", "unknown_value_col", "missing_file", "no_known_value_col", "no_n_col"],
)
def test_fit_bad_input_is_one_line_exit_2(tmp_path, capsys, text, extra):
    _fit_refused(tmp_path, capsys, text, extra)


def test_fit_affine_refuses_degree_zero_before_any_log(tmp_path):
    # LAPACK warnings go straight to file descriptor 2, so run a subprocess
    csv = tmp_path / "lb.csv"
    rows = ["n,family,L_n,L_over_log,argmax_t,grid_per_gap,refine_tol", "0,adjusted,1.000000,nan,0.0,64,1e-09"]
    rows += [f"{n},adjusted,{n:.6f},1.0,0.0,64,1e-09" for n in (16, 32, 64)]
    csv.write_text("\n".join(rows) + "\n")
    proc = subprocess.run(
        [sys.executable, "-m", "lshapearc.cli", "fit", str(csv), "--model", "affine"],
        capture_output=True,
        text=True,
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
    monkeypatch.setitem(cli.VERSIONS, "apweight", cli.VERSIONS["apweight"] + "-bumped")
    run_cli(args + ["--out", str(b)])
    assert len(sorted(cache.glob("apweight-*.json"))) == 4
    assert a.read_bytes() == b.read_bytes()


def test_verify_negative_control(tmp_path):
    ok, _ = _check_endpoint(flip_branch=False)
    assert ok
    ok, _ = _check_endpoint(flip_branch=True)
    assert not ok
    out = tmp_path / "verify.txt"
    assert main(["verify", "--debug-flip-branch", "--out", str(out)]) == 1
    lines = out.read_text().splitlines()
    assert [line.split()[1] for line in lines if line.startswith("FAIL")] == ["endpoint_identity"]
    assert lines[-1] == "20/21 invariant checks passed"


def test_cli_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "lshapearc.cli", "nodes", "--n", "4"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["n"] == 4
