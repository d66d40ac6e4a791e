"""Command-line interface: commands, exit-status contract, file schemas."""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import koopeq
from koopeq import serialize
from koopeq.cli import main
from koopeq.errors import ParseError
from koopeq.trajectory import TrajectoryStatus


def run_cli(*args):
    return main(list(args))


def read_spectrum(path):
    return serialize.spectrum_from_dict(serialize.read_json(path))


def test_run_algo4(tmp_path, capsys):
    out = tmp_path / "s4.json"
    assert run_cli("run", "--algo", "4", "--oracle", "quad", "--x0", "1.0",
                   "--out", str(out)) == 0
    stdout = capsys.readouterr().out
    assert "principal eigenvalues" in stdout
    spec = read_spectrum(out)
    assert min(abs(spec.eigenvalues - 0.6)) < 1e-9


def test_run_algo1_complex_pair(tmp_path):
    out = tmp_path / "s1.json"
    assert run_cli("run", "--algo", "1", "--oracle", "quad", "--x0", "1,1",
                   "--out", str(out)) == 0
    spec = read_spectrum(out)
    assert min(abs(spec.eigenvalues - (0.8 + 0.4j))) < 1e-8
    assert min(abs(spec.eigenvalues - (0.8 - 0.4j))) < 1e-8


def test_run_external_trajectory(tmp_path):
    csv = tmp_path / "ext.csv"
    csv.write_text("k,x0\n0,1.0\n1,0.5\n2,0.25\n3,0.125\n")
    out = tmp_path / "ext.json"
    assert run_cli("run", "--traj", str(csv), "--method", "dmd",
                   "--out", str(out)) == 0
    spec = read_spectrum(out)
    assert abs(spec.eigenvalues[0] - 0.5) < 1e-12


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_run_traj_non_finite_cell_exit_102(tmp_path, capsys, cell):
    csv = tmp_path / "ext.csv"
    csv.write_text(f"k,x0\n0,1.0\n1,0.5\n2,{cell}\n3,0.125\n")
    assert run_cli("run", "--traj", str(csv), "--out", str(tmp_path / "s.json")) == 102
    err = capsys.readouterr().err
    assert err.startswith("error: kind=parse line=4 ")
    assert err.count("\n") == 1


def test_cli_import_defers_scipy():
    # optimize and ndimage serve one call site each; `koopeq run` needs neither
    src = str(Path(koopeq.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    code = ("import sys, koopeq.cli; print(sorted(m for m in sys.modules "
            "if m in ('scipy.optimize', 'scipy.ndimage')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_spectrum_round_trip_full_precision(tmp_path):
    out = tmp_path / "s.json"
    run_cli("run", "--algo", "1", "--oracle", "negcos", "--x0", "0.3,0.7",
            "--out", str(out))
    d = serialize.read_json(out)
    spec = serialize.spectrum_from_dict(d)
    d2 = serialize.spectrum_to_dict(spec, principal=np.array(
        [complex(re, im) for re, im in d["principal"]]))
    assert d == d2  # shortest round-trip floats survive a parse/serialize loop


def test_compare_self_is_conjugate(tmp_path):
    s = tmp_path / "s.json"
    run_cli("run", "--algo", "4", "--oracle", "quad", "--x0", "1.0", "--out", str(s))
    out = tmp_path / "cmp.json"
    assert run_cli("compare", str(s), str(s), "--out", str(out)) == 0
    cmp = json.loads(out.read_text())
    assert cmp["verdict"] == "conjugate" and cmp["wasserstein"] == 0.0


def test_compare_semi_exit_10(tmp_path):
    s4 = tmp_path / "s4.json"
    s3 = tmp_path / "s3.json"
    run_cli("run", "--algo", "4", "--oracle", "quad", "--x0", "1.0", "--out", str(s4))
    run_cli("run", "--algo", "3", "--oracle", "quad", "--x0", "1,1",
            "--max-iters", "25", "--centering", "none", "--out", str(s3))
    assert run_cli("compare", str(s4), str(s3),
                   "--out", str(tmp_path / "c.json")) == 10


def test_compare_distinct_exit_20(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path, lam in ((a, 0.5), (b, 0.9)):
        serialize.write_json(path, {
            "method": "dmd", "dictionary": "identity", "rank": 1,
            "reconstruction_error": 0.0, "eigenvalues": [[lam, 0.0]],
            "modes": [[[1.0, 0.0]]], "principal": [[lam, 0.0]]})
    assert run_cli("compare", str(a), str(b),
                   "--out", str(tmp_path / "c.json")) == 20


def test_compare_schema_violation_exit_102(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"method": "dmd"}')
    good = tmp_path / "good.json"
    serialize.write_json(good, {
        "method": "dmd", "dictionary": "identity", "rank": 1,
        "reconstruction_error": 0.0, "eigenvalues": [[0.5, 0.0]],
        "modes": [[[1.0, 0.0]]], "principal": [[0.5, 0.0]]})
    assert run_cli("compare", str(bad), str(good)) == 102
    assert "kind=parse" in capsys.readouterr().err


def test_usage_error_exit_101(capsys):
    assert run_cli("run", "--algo", "9") == 101
    assert "kind=configuration" in capsys.readouterr().err
    assert run_cli("run") == 101  # neither --algo nor --traj
    assert run_cli("run", "--algo", "4", "--oracle", "quad") == 101  # no x0
    assert run_cli("compare", "/no/such/a.json", "/no/such/b.json") == 101


def test_config_file_strict(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"algo": 4, "oracle": "quad", "x0": "1.0",
                               "out": str(tmp_path / "s.json")}))
    assert run_cli("run", "--config", str(cfg)) == 0
    assert (tmp_path / "s.json").exists()
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"algo": 4, "banana": 1}))
    assert run_cli("run", "--config", str(bad)) == 101
    assert "banana" in capsys.readouterr().err


def test_config_flag_overrides_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"algo": 4, "oracle": "quad", "x0": "1.0"}))
    out = tmp_path / "override.json"
    assert run_cli("run", "--config", str(cfg), "--out", str(out)) == 0
    assert out.exists()


def test_reproduce_fig1(tmp_path, capsys):
    assert run_cli("reproduce", "fig1", "--outdir", str(tmp_path)) == 0
    assert "fig1" in capsys.readouterr().out
    manifest = json.loads((tmp_path / "fig1_manifest.json").read_text())
    assert len(manifest["files"]) == 10


def test_reproduce_fig2_custom_resolution(tmp_path):
    assert run_cli("reproduce", "fig2", "--outdir", str(tmp_path),
                   "--resolution", "4") == 0
    rows = (tmp_path / "fig2_quad_grid.csv").read_text().splitlines()
    assert len(rows) == 1 + 16


def test_sweep_command(tmp_path, capsys):
    assert run_cli("sweep", "--oracle", "quad", "--resolution", "3",
                   "--outdir", str(tmp_path)) == 0
    assert "9 cells" in capsys.readouterr().out
    assert (tmp_path / "fig2_quad_grid.csv").exists()


def test_outdir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("KOOPEQ_OUTDIR", str(tmp_path))
    assert run_cli("run", "--algo", "4", "--oracle", "quad", "--x0", "1.0") == 0
    assert (tmp_path / "spectrum.json").exists()


# ---------------------------------------------------------------------------
# external trajectory ingestion


def test_ingest_basic(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("k,x0\n0,1.0\n1,0.5\n2,0.25\n")
    traj = serialize.ingest_external_trajectory(p)
    assert len(traj) == 3
    assert traj.status is TrajectoryStatus.BUDGET_EXHAUSTED


def test_ingest_gap_rejected(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("k,x0\n0,1.0\n2,0.5\n")
    with pytest.raises(ParseError) as exc:
        serialize.ingest_external_trajectory(p)
    assert exc.value.line == 3


def test_ingest_duplicate_rejected(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("k,x0\n0,1.0\n0,0.5\n")
    with pytest.raises(ParseError):
        serialize.ingest_external_trajectory(p)


def test_ingest_ragged_rejected(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("k,x0,x1\n0,1.0,2.0\n1,0.5\n")
    with pytest.raises(ParseError) as exc:
        serialize.ingest_external_trajectory(p)
    assert exc.value.line == 3


def test_ingest_non_numeric_rejected(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("k,x0\n0,1.0\n1,abc\n")
    with pytest.raises(ParseError):
        serialize.ingest_external_trajectory(p)


def test_ingest_bad_header(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("step,x0\n0,1.0\n")
    with pytest.raises(ParseError):
        serialize.ingest_external_trajectory(p)
    p.write_text("k,a,b\n0,1.0,2.0\n")
    with pytest.raises(ParseError):
        serialize.ingest_external_trajectory(p)


def test_ingest_converged_when_final_rows_coincide(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("k,x0\n0,1.0\n1,0.5\n2,0.5\n")
    traj = serialize.ingest_external_trajectory(p)
    assert traj.status is TrajectoryStatus.CONVERGED
