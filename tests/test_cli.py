"""Command-line interface: commands, exit-status contract, file schemas."""
import dataclasses
import functools
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import koopeq
from koopeq import cli, serialize
from koopeq.cli import main
from koopeq.compare import DecompositionSettings
from koopeq.corpus import AlgorithmId, make_algorithm
from koopeq.errors import (CardinalityMismatchError, ConfigurationError, DegenerateDataError,
                           InsufficientDataError, InvalidObservableError, KoopeqError,
                           NumericFailureError, ParseError)
from koopeq.oracles import Oracle, OracleKind
from koopeq.spectral import Dictionary
from koopeq.trajectory import Centering, RunConfig, Trajectory, TrajectoryStatus, iterate


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


@pytest.mark.parametrize("scale", [1e200, 1e-170])
def test_run_traj_far_from_one_writes_a_finite_error(tmp_path, scale):
    # the data's squares overflow (1e200) or underflow (1e-170): the error
    # used to read NaN, and the run exited 103, or to read 0.0
    csv = tmp_path / "far.csv"
    csv.write_text("k,x0,x1\n" + "".join(f"{k},{scale * 0.9 ** k!r},{scale * 2 * 0.5 ** k!r}\n"
                                         for k in range(40)))
    out = tmp_path / "s.json"
    assert run_cli("run", "--traj", str(csv), "--centering", "none", "--out", str(out)) == 0
    spec = read_spectrum(out)
    np.testing.assert_allclose(spec.eigenvalues, [0.9, 0.5], rtol=1e-12)
    assert 0.0 < spec.reconstruction_error < 1e-12


@pytest.mark.parametrize("x0", ["-1", "0"])
def test_run_algo5_outside_its_domain_exit_101(tmp_path, capsys, x0):
    # algorithm 5 takes the log of its state; such a start used to end as a
    # numeric failure mid-run (103)
    out = tmp_path / "s.json"
    assert run_cli("run", "--algo", "5", "--oracle", "quad", f"--x0={x0}", "--out", str(out)) == 101
    err = capsys.readouterr().err
    assert err == "error: kind=configuration message=ALGO5 acts on states > 0 only\n"
    assert not out.exists()


def test_runtime_without_scipy(tmp_path):
    # scipy is a test-only dependency: with it blocked, run, compare (which
    # assigns) and fig2 (which sweeps and flood-fills) all succeed
    src = str(Path(koopeq.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from koopeq import cli\n"
        "out = sys.argv[1]\n"
        "codes = [cli.main(['run', '--algo', '4', '--oracle', 'quad', '--x0', '1.0',\n"
        "                   '--out', out + '/a.json']),\n"
        "         cli.main(['compare', out + '/a.json', out + '/a.json',\n"
        "                   '--out', out + '/c.json']),\n"
        "         cli.main(['reproduce', 'fig2', '--resolution', '7', '--outdir', out + '/fig2'])]\n"
        "print(codes, sorted(m for m, mod in sys.modules.items()\n"
        "                    if m.partition('.')[0] == 'scipy' and mod is not None))\n")
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip().splitlines()[-1] == "[0, 0, 0] []"
    assert json.loads((tmp_path / "c.json").read_text())["verdict"] == "conjugate"
    assert (tmp_path / "fig2" / "fig2_negcos_summary.json").exists()


def test_presets_load_only_for_the_commands_that_run_them(tmp_path):
    # the presets and their SVG plots are imported by sweep and reproduce
    # alone; an unknown preset is the presets' own configuration error
    src = str(Path(koopeq.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    code = ("import sys\n"
            "import koopeq.cli\n"
            "print(sorted(m for m in ('koopeq.experiments', 'koopeq.svgplot') "
            "if m in sys.modules))\n"
            "sys.exit(koopeq.cli.main(['reproduce', 'fig9', '--outdir', sys.argv[1]]))\n")
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                          capture_output=True, text=True)
    assert proc.stdout == "[]\n"
    assert proc.returncode == 101
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: kind=configuration "), proc.stderr
    assert "unknown preset 'fig9'" in lines[0]
    assert list(tmp_path.iterdir()) == []


NON_FINITE_LINE = "error: kind=numeric message=non-finite value produced mid-run"


@pytest.mark.parametrize("argv,code,message", [
    (["--traj", "{big}", "--method", "edmd", "--degree", "2"], 103, "kind=numeric"),
    (["--algo", "4", "--oracle", "quad", "--x0", "1e308"], 103, "kind=numeric"),
    # the step overflows, and its next oracle rejects the non-finite value:
    # a numeric failure of the run, not a bad configuration
    (["--algo", "1", "--oracle", "negcos", "--x0", "1e308,1e308"], 103, "kind=numeric"),
    # the log-det prox of a block near the float limit is not finite, and the
    # l2 prox it feeds rejects it: after a floating-point event (3x3), or
    # with none, LAPACK's eigenvalue being inf (2x2)
    (["--algo", "6", "--oracle", "logdet", "--oracle-g", "l2", "--matrix-dim", "3",
      "--x0", ",".join(["0"] * 12 + ["1e308"] * 6)], 103, NON_FINITE_LINE),
    (["--algo", "6", "--oracle", "logdet", "--oracle-g", "l2", "--matrix-dim", "2",
      "--x0", ",".join(["0"] * 6 + ["1e308"] * 3)], 103, NON_FINITE_LINE),
    # a relative threshold above 1 drops every singular value
    (["--algo", "4", "--oracle", "quad", "--x0", "1.0", "--svd-tol", "2"], 103,
     "every singular value falls below the threshold"),
], ids=["edmd_lift_overflow", "quad_overflow", "negcos_overflow", "logdet_limit",
        "logdet_limit_2x2", "svd_tol_above_every_value"])
def test_overflow_prints_only_the_error_line(tmp_path, argv, code, message):
    # NumPy's RuntimeWarning lines go to stderr apart from pytest's capture,
    # so only a separate process shows them
    big = tmp_path / "big.csv"
    big.write_text("k,x0,x1\n" + "".join(f"{k},{1e300 * 0.9 ** k!r},{2e300 * 0.5 ** k!r}\n"
                                         for k in range(40)))
    src = str(Path(koopeq.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    cmd = [sys.executable, "-m", "koopeq.cli", "run"] + [a.format(big=big) for a in argv]
    proc = subprocess.run(cmd + ["--out", str(tmp_path / "s.json")], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == code
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
    assert message in lines[0]


def test_spectrum_round_trip_full_precision(tmp_path):
    out = tmp_path / "s.json"
    run_cli("run", "--algo", "1", "--oracle", "negcos", "--x0", "0.3,0.7",
            "--out", str(out))
    d = serialize.read_json(out)
    spec = serialize.spectrum_from_dict(d)
    d2 = serialize.spectrum_to_dict(spec)
    assert d == d2  # shortest round-trip floats survive a parse/serialize loop


@st.composite
def decomposed_spectra(draw):
    """DMD or EDMD spectra of a seeded linear map's states: real-typed when
    every eigenvalue is real, complex otherwise, with -0.0 entries on demand."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    dim = draw(st.integers(1, 3))
    A = np.diag(rng.uniform(-0.95, 0.95, dim))
    if dim > 1 and draw(st.booleans()):  # a rotation block: a complex pair
        r, t = rng.uniform(0.3, 0.95), rng.uniform(0.2, 3.0)
        A[:2, :2] = r * np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
    states = [rng.uniform(-1.0, 1.0, dim)]
    for _ in range(30):
        states.append(A @ states[-1])
    traj = Trajectory(states=np.array(states), status=TrajectoryStatus.BUDGET_EXHAUSTED)
    method = draw(st.sampled_from(["dmd", "edmd"]))
    dct = Dictionary.monomials(dim, 2) if method == "edmd" else None
    spec = DecompositionSettings(method=method, dictionary=dct,
                                 centering=Centering.NONE).spectrum(traj)
    if draw(st.booleans()):
        arrays = {}
        for name in ("eigenvalues", "modes", "eigfn_coeffs"):
            a = getattr(spec, name).copy()
            for part in (a.real, a.imag) if np.iscomplexobj(a) else (a,):
                part[rng.random(part.shape) < 0.3] = -0.0
            arrays[name] = a
        spec = dataclasses.replace(spec, **arrays)
    return spec


PAIRS = st.lists(st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)).map(list), max_size=4)


@st.composite
def bare_spectrum_dicts(draw):
    """Reader-accepted spectrum dicts without modes or coefficients."""
    d = {"method": draw(st.sampled_from(["dmd", "edmd"])), "dictionary": "identity",
         "rank": draw(st.integers(1, 4)), "reconstruction_error": draw(st.floats(0.0, 1.0)),
         "eigenvalues": draw(PAIRS), "modes": [], "principal": draw(PAIRS)}
    if draw(st.booleans()):
        d["eigfn_coeffs"] = None
    return d


def assert_same_spectrum(a, b):
    for name in ("eigenvalues", "modes", "eigfn_coeffs", "reconstruction_error"):
        x, y = np.asarray(getattr(a, name)), np.asarray(getattr(b, name))
        assert x.shape == y.shape
        assert np.array_equal(np.ascontiguousarray(x, complex).view(np.uint64),
                              np.ascontiguousarray(y, complex).view(np.uint64))
    assert (a.method, a.rank, a.dictionary_tag, a.centering_tag) == \
        (b.method, b.rank, b.dictionary_tag, b.centering_tag)


def through_json(spec):
    return serialize.spectrum_from_dict(json.loads(json.dumps(serialize.spectrum_to_dict(spec))))


@settings(max_examples=60, deadline=None)
@given(decomposed_spectra())
def test_spectrum_json_round_trip_is_bitwise(spec):
    assert_same_spectrum(spec, through_json(spec))


@settings(max_examples=60, deadline=None)
@given(bare_spectrum_dicts())
def test_bare_spectrum_json_round_trip_is_bitwise(d):
    spec = serialize.spectrum_from_dict(d)
    assert spec.modes.shape == (0, 0) and spec.eigfn_coeffs.shape == (spec.eigenvalues.size, 0)
    assert_same_spectrum(spec, through_json(spec))


def reference_spectrum_dict(spec):
    """The writer's former per-pair form: one [re, im] pair per entry, modes
    column by column and coefficients row by row."""
    def vec(v):
        return [[float(np.real(z)), float(np.imag(z))] for z in np.asarray(v).ravel()]
    n = spec.eigenvalues.size
    return {"method": spec.method, "dictionary": spec.dictionary_tag, "rank": int(spec.rank),
            "reconstruction_error": float(spec.reconstruction_error),
            "eigenvalues": vec(spec.eigenvalues),
            "modes": [vec(spec.modes[:, r]) for r in range(n)],
            "principal": vec(koopeq.principal_eigenvalues(spec)),
            "eigfn_coeffs": [vec(spec.eigfn_coeffs[r]) for r in range(n)],
            "meta": {"centering": spec.centering_tag}}


@settings(max_examples=60, deadline=None)
@given(decomposed_spectra())
def test_spectrum_writer_bytes_match_the_per_pair_form(spec):
    def dumps(d):
        return json.dumps(d, indent=2, sort_keys=True, allow_nan=False)
    assert dumps(serialize.spectrum_to_dict(spec)) == dumps(reference_spectrum_dict(spec))


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
    array = tmp_path / "array.json"
    array.write_text("[]")
    assert run_cli("compare", str(array), str(good)) == 102
    assert_one_error_line(capsys.readouterr().err, "parse")
    assert run_cli("compare", str(good), str(good), "--config", str(array)) == 102
    assert_one_error_line(capsys.readouterr().err, "parse")


@pytest.mark.parametrize("key, index, value", [
    ("eigenvalues", (0, 0), math.nan),
    ("eigenvalues", (0, 1), math.inf),
    ("modes", (0, 0, 1), -math.inf),
    ("eigfn_coeffs", (0, 0, 0), math.nan),
    ("reconstruction_error", (), math.inf)])
def test_compare_non_finite_spectrum_exit_102(tmp_path, capsys, key, index, value):
    a = tmp_path / "a.json"
    run_cli("run", "--algo", "4", "--oracle", "quad", "--x0", "1.0", "--out", str(a))
    d = json.loads(a.read_text())
    if index:
        *outer, last = index
        functools.reduce(lambda node, i: node[i], outer, d[key])[last] = value
    else:
        d[key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(d))  # NaN, Infinity and -Infinity tokens
    capsys.readouterr()
    assert run_cli("compare", str(a), str(bad), "--out", str(tmp_path / "c.json")) == 102
    err = capsys.readouterr().err
    assert err.startswith("error: kind=parse ") and key in err
    assert err.count("\n") == 1


def test_usage_error_exit_101(capsys):
    assert run_cli("run", "--algo", "9") == 101
    assert "kind=configuration" in capsys.readouterr().err
    assert run_cli("run") == 101  # neither --algo nor --traj
    assert run_cli("run", "--algo", "4", "--oracle", "quad") == 101  # no x0
    assert run_cli("compare", "/no/such/a.json", "/no/such/b.json") == 101
    assert run_cli("run", "--algo", "4", "--oracle", "quad", "--x0", "abc") == 101
    assert run_cli("run", "--algo", "4", "--x0", "1") == 101  # no --oracle
    assert run_cli("run", "--config", "/no/such/cfg.json") == 101
    err = capsys.readouterr().err
    assert err.count("error: kind=configuration ") == err.count("\n") == 6


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


RUN_ALGO4 = ("--algo", "4", "--oracle", "quad", "--x0", "1.0")


@pytest.mark.parametrize("cfg, flags, code", [
    ({"algo": 4, "oracle": "quad", "x0": 5}, (), 0),
    ({"algo": 4, "oracle": "quad", "x0": "-1.0"}, (), 0),
    ({"algo": 9, "oracle": "quad", "x0": "1.0"}, (), 101),
    ({"algo": 4, "oracle": "nope", "x0": "1.0"}, (), 101),
    ({"eps": None}, RUN_ALGO4, 101),
    ({"method": "edmd", "degree": 2.5}, RUN_ALGO4, 101),
    ({"x0": ["1.0"]}, RUN_ALGO4, 101),
    ({"max_iters": True}, RUN_ALGO4, 101)])
def test_config_values_parse_like_flags(tmp_path, capsys, cfg, flags, code):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "s.json"
    assert run_cli("run", *flags, "--config", str(path), "--out", str(out)) == code
    err = capsys.readouterr().err
    if code:
        assert err.startswith("error: kind=configuration ") and err.count("\n") == 1
    else:
        assert out.exists() and err == ""


@pytest.mark.parametrize("keep_unit, code", [(True, 0), (False, 0), ("yes", 101), (1, 101)])
def test_config_switch_takes_only_booleans(tmp_path, capsys, keep_unit, code):
    s = tmp_path / "s.json"
    run_cli("run", *RUN_ALGO4, "--out", str(s))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"keep_unit": keep_unit}))
    out = tmp_path / "c.json"
    assert run_cli("compare", str(s), str(s), "--config", str(path), "--out", str(out)) == code
    if code:
        assert "keep_unit" in capsys.readouterr().err
    else:
        notes = json.loads(out.read_text())["notes"]
        assert any("unit-constant" in n for n in notes) is not keep_unit


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


@pytest.mark.parametrize("last", ["1e300", "1.7e308"])
def test_ingest_rows_far_apart_raise_no_warning(tmp_path, last):
    # the last two rows' distance overflows: not converged, and no NumPy warning
    p = tmp_path / "t.csv"
    p.write_text(f"k,x0\n0,-{last}\n1,{last}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = serialize.ingest_external_trajectory(p)
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


@pytest.mark.parametrize("k", ["1.0", "1.5", "-0.0", "1e0", "0.7", ".5", "5e-324"])
@pytest.mark.parametrize("row", [0, 1])
def test_ingest_float_k_rejected(tmp_path, k, row):
    # k is an integer: int() refuses "1.0", so the file is the row loop's to reject
    cells = ["0", "1"]
    cells[row] = k
    p = tmp_path / "t.csv"
    p.write_text(f"k,x0\n{cells[0]},1.0\n{cells[1]},0.5\n")
    with pytest.raises(ParseError, match=f"non-numeric cell in row {row + 2}") as exc:
        serialize.ingest_external_trajectory(p)
    assert exc.value.line == row + 2


def test_ingest_float_k_rejected_when_numpy_truncates(tmp_path, monkeypatch):
    # NumPy releases before the float-to-int deprecation expired read "0.7"
    # as k = 0 with only a DeprecationWarning; that warning sends the body to
    # the row loop
    real_loadtxt = np.loadtxt

    def truncating_loadtxt(fname, **kwargs):
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                      DeprecationWarning, stacklevel=2)
        dtype = kwargs["dtype"]
        table = real_loadtxt(fname, **{**kwargs, "dtype": [("k", np.float64), dtype[1]]})
        return table.astype(dtype)

    monkeypatch.setattr(serialize.np, "loadtxt", truncating_loadtxt)
    p = tmp_path / "t.csv"
    p.write_text("k,x0\n0.7,1.0\n1.9,0.5\n")
    with pytest.raises(ParseError, match="non-numeric cell in row 2") as exc:
        serialize.ingest_external_trajectory(p)
    assert exc.value.line == 2
    p.write_text("k,x0\n0,1.0\n1,0.5\n")  # a clean file still parses
    assert serialize.ingest_external_trajectory(p).states.tolist() == [[1.0], [0.5]]


def test_ingest_astral_cell_takes_the_row_loop(tmp_path, monkeypatch):
    # numpy 2.4.6's structured loadtxt intermittently segfaulted on this body
    # (U+BA58B in a k cell), so a non-ASCII body never reaches it. The mock
    # only records calls: an exception raised inside it would be swallowed
    # as an ordinary parse failure
    loadtxt = mock.Mock(wraps=np.loadtxt)
    monkeypatch.setattr(serialize.np, "loadtxt", loadtxt)
    p = tmp_path / "t.csv"
    p.write_bytes(b"k,x0\r\n0,1.257302210933933e-117\r\n"
                  b"1\xf2\xba\x96\x8b\xc2\x94&,-1.3210486329130189e-277\r\n,")
    with pytest.raises(ParseError, match="non-numeric cell in row 3") as exc:
        serialize.ingest_external_trajectory(p)
    assert exc.value.line == 3
    assert loadtxt.call_count == 0
    p.write_bytes(b"k,x0\r\n0,1.0\r\n1,0.5\r\n")  # an ASCII body still takes it
    assert serialize.ingest_external_trajectory(p).states.tolist() == [[1.0], [0.5]]
    assert loadtxt.call_count == 1


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


@pytest.mark.parametrize("eps", [1e-12, 1e-6])
@pytest.mark.parametrize("rows", [None, -1], ids=["whole", "last_row_dropped"])
def test_ingest_reads_converged_as_the_run_loop_does(tmp_path, eps, rows):
    imap = make_algorithm(AlgorithmId.ALGO4, Oracle(OracleKind.GRAD_QUADRATIC))
    run = iterate(imap, (1.0,), RunConfig(max_iters=400, eps=eps))
    assert run.status is TrajectoryStatus.CONVERGED
    states = run.states[:rows]
    p = tmp_path / "t.csv"
    p.write_text("k,x0\n" + "".join(f"{k},{float(x[0])!r}\n" for k, x in enumerate(states)))
    want = TrajectoryStatus.CONVERGED if rows is None else TrajectoryStatus.BUDGET_EXHAUSTED
    assert serialize.ingest_external_trajectory(p, eps=eps).status is want


def test_ingest_scales_a_last_step_whose_square_underflows(tmp_path):
    # the step's squared norm, 4e-600, underflows to 0: np.linalg.norm read
    # this log converged at eps 1e-300, the run loop's norm reads 2e-300
    p = tmp_path / "t.csv"
    p.write_text("k,x0\n0,1.0\n1,2e-300\n2,0.0\n")
    traj = serialize.ingest_external_trajectory(p, eps=1e-300)
    assert traj.status is TrajectoryStatus.BUDGET_EXHAUSTED
    assert serialize.ingest_external_trajectory(p, eps=3e-300).status is TrajectoryStatus.CONVERGED


@pytest.mark.parametrize("eps", [-1, 0, math.nan, math.inf, "x"])
def test_ingest_rejects_bad_eps(tmp_path, eps):
    # "x" used to raise NumPy's UFuncTypeError from the norm comparison
    p = tmp_path / "t.csv"
    p.write_text("k,x0\n0,1.0\n1,0.5\n2,0.5\n")
    with pytest.raises(ConfigurationError, match="eps must be finite and positive"):
        serialize.ingest_external_trajectory(p, eps=eps)


@pytest.mark.parametrize("text, line", [("k," + "x" * 200_000 + "\n0,1\n1,2\n", 1),
                                        ("k,x0\n0,1\n1," + "a" * 200_000 + "\n", 3)],
                         ids=["header", "body"])
def test_ingest_overlong_field_exit_102(tmp_path, capsys, text, line):
    # csv refuses a field above its size limit; that is a parse error too
    p = tmp_path / "t.csv"
    p.write_text(text)
    assert run_cli("run", "--traj", str(p), "--out", str(tmp_path / "s.json")) == 102
    err = capsys.readouterr().err
    assert err.startswith(f"error: kind=parse line={line} ") and err.count("\n") == 1


def test_ingest_round_trip_takes_the_fast_path(tmp_path, monkeypatch):
    # a clean file never reaches the row loop; a silent fallback would hide
    # the cost of the NumPy parse behind correct results
    rng = np.random.default_rng(7)
    states = rng.standard_normal((50, 3))
    p = tmp_path / "t.csv"
    serialize.write_trajectory_csv(p, [("x", states)])
    p.write_text(p.read_text().replace("x_", "x"))

    def row_loop(body, dim):
        raise AssertionError("the row loop ran on a clean file")

    monkeypatch.setattr(serialize, "_states_by_row", row_loop)
    traj = serialize.ingest_external_trajectory(p)
    np.testing.assert_array_equal(traj.states.view(np.uint64), states.view(np.uint64))
    assert traj.states.flags.c_contiguous


def write_log(path, states, bad_row=None):
    """A trajectory log of `states`; the k cell of `bad_row` gets U+BA58B."""
    lines = [b"k," + ",".join(f"x{i}" for i in range(states.shape[1])).encode()]
    for k, row in enumerate(states):
        cell = f"{k}".encode() + (b"\xf2\xba\x96\x8b\xc2\x94&" if k == bad_row else b"")
        lines.append(b",".join([cell, *(repr(float(v)).encode() for v in row)]))
    path.write_bytes(b"\n".join(lines) + b"\n")


def test_ingest_memory_is_about_twice_the_states(tmp_path):
    # the log is streamed into the parse: neither it nor its text is held whole
    states = np.random.default_rng(3).standard_normal((20_000, 3))
    p = tmp_path / "t.csv"
    write_log(p, states)
    tracemalloc.start()
    try:
        traj = serialize.ingest_external_trajectory(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(traj.states, states)
    assert peak < 3 * states.nbytes + 1_000_000


def test_ingest_non_ascii_past_the_first_chunk_takes_the_row_loop(tmp_path, monkeypatch):
    # the ASCII decoder fails the chunk holding the byte, so the parse stops
    # before any of its lines, and the row loop reports the row
    seen = []
    real_loadtxt = np.loadtxt

    def recording_loadtxt(fname, **kwargs):
        def lines():
            for line in fname:
                seen.append(line.isascii())
                yield line
        return real_loadtxt(lines(), **kwargs)

    monkeypatch.setattr(serialize.np, "loadtxt", recording_loadtxt)
    p = tmp_path / "t.csv"
    write_log(p, np.linspace(1.0, 0.0, 6000)[:, None], bad_row=5000)
    with pytest.raises(ParseError, match="non-numeric cell in row 5002") as exc:
        serialize.ingest_external_trajectory(p)
    assert exc.value.line == 5002
    assert len(seen) > 1000 and all(seen)


def test_ingest_reads_a_fifo_as_its_file(tmp_path, capsys):
    states = np.random.default_rng(4).standard_normal((3000, 2))
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)

    def feed(bad_row=None):
        log = tmp_path / "log.csv"
        write_log(log, states, bad_row)
        writer = threading.Thread(target=fifo.write_bytes, args=(log.read_bytes(),),
                                  daemon=True)
        writer.start()
        return log, writer

    log, writer = feed()
    traj = serialize.ingest_external_trajectory(fifo)
    writer.join(timeout=10)
    assert not writer.is_alive()
    want = serialize.ingest_external_trajectory(log)
    np.testing.assert_array_equal(traj.states.view(np.uint64), want.states.view(np.uint64))
    assert traj.status is want.status
    log, writer = feed(bad_row=7)
    assert run_cli("run", "--traj", str(fifo), "--out", str(tmp_path / "s.json")) == 102
    writer.join(timeout=10)
    assert not writer.is_alive()
    err = capsys.readouterr().err
    assert err.startswith("error: kind=parse line=9 ") and err.count("\n") == 1


def test_main_twice_in_one_process_parses_each_call(tmp_path, capsys):
    # the parser is built once per process; no state may leak between calls
    s = tmp_path / "s.json"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"eps_conj": 0.5, "keep_unit": True}))
    assert run_cli("run", *RUN_ALGO4, "--out", str(s)) == 0
    c1 = tmp_path / "c1.json"
    assert run_cli("compare", str(s), str(s), "--config", str(cfg), "--out", str(c1)) == 0
    c2 = tmp_path / "c2.json"
    assert run_cli("compare", str(s), str(s), "--out", str(c2)) == 0
    first, second = json.loads(c1.read_text()), json.loads(c2.read_text())
    assert first["tolerances"]["eps_conj"] == 0.5
    assert second["tolerances"]["eps_conj"] == 1e-3
    assert not any("unit-constant" in n for n in first["notes"])
    assert any("unit-constant" in n for n in second["notes"])
    s2 = tmp_path / "s2.json"
    assert run_cli("run", "--algo", "1", "--oracle", "quad", "--x0", "1,1",
                   "--out", str(s2)) == 0
    assert read_spectrum(s2).eigenvalues.size == 2
    assert run_cli("compare", str(s), str(s), "--out", str(c2)) == 0
    assert json.loads(c2.read_text())["tolerances"]["eps_conj"] == 1e-3


def assert_one_error_line(err, kind):
    assert err.startswith(f"error: kind={kind} ") and err.count("\n") == 1
    assert "Traceback" not in err


NOT_UTF8 = b"\xff\xfe{not text"


@pytest.mark.parametrize("argv", [("run", "--traj", "{bad}"), ("compare", "{s}", "{bad}"),
                                  ("compare", "{s}", "{s}", "--config", "{bad}"),
                                  ("run", *RUN_ALGO4, "--config", "{bad}")],
                         ids=["csv", "spectrum", "compare_config", "run_config"])
def test_non_utf8_file_exit_102(tmp_path, capsys, argv):
    bad = tmp_path / "bad"
    bad.write_bytes(NOT_UTF8)
    s = tmp_path / "s.json"
    assert run_cli("run", *RUN_ALGO4, "--out", str(s)) == 0
    capsys.readouterr()
    argv = [a.format(bad=bad, s=s) for a in argv]
    assert run_cli(*argv, "--out", str(tmp_path / "o.json")) == 102
    err = capsys.readouterr().err
    assert_one_error_line(err, "parse")
    assert "UTF-8" in err


@pytest.mark.parametrize("edit", [
    lambda d: d.update(rank=math.inf),  # written as Infinity; 1e400 reads the same
    lambda d: d.update(meta=[]),
    lambda d: d.update(eigenvalues=[[0.6, 0.0, 3.0]]),
    lambda d: d.update(eigenvalues=[[0.6]]),
    lambda d: d["modes"][0].__setitem__(0, [1.0, 0.0, 0.0]),
    lambda d: d.update(eigenvalues=[{"re": 0.6, "im": 0.0}, 1]),
    lambda d: d.update(rank=2.7),  # int() read it as 2
    lambda d: d.update(rank=True),
    lambda d: d.update(rank=-3),
    lambda d: d.update(rank="2"),
    lambda d: d.update(eigenvalues=[[0.6, 0.0], [0.5, 0.0]], modes=[[[1.0, 0.0]]] * 2,
                       eigfn_coeffs=[[[1.0, 0.0]]] * 3),
    lambda d: d.update(dictionary=5),
    lambda d: d["modes"].append(d["modes"][0]),
    lambda d: d.update(reconstruction_error=True),  # float() read it as 1.0
    lambda d: d.update(reconstruction_error=-1),
    lambda d: d.update(reconstruction_error="0.5"),
    lambda d: d.update(meta={"centering": 5}),
    lambda d: d.update(principal=5),
    lambda d: d.update(principal={}),
    lambda d: d.update(principal=[[0.6]]),
    lambda d: d.update(principal=[[math.inf, 0.0]]),
    lambda d: d.update(modes=None),  # modes were only iterated, or tested for truth
    lambda d: d.update(modes=0),
    lambda d: d.update(modes=False),
    lambda d: d.update(modes={}),
    lambda d: d.update(modes=""),
    lambda d: d.update(eigenvalues={}, modes=[], eigfn_coeffs=None),
    lambda d: d.update(eigenvalues="", modes=[], eigfn_coeffs=None),
    lambda d: d.update(eigenvalues=[], modes=[], principal=[], eigfn_coeffs={}),
    lambda d: d.update(modes=[[]]),  # read as no modes: a (0, 1) array
    lambda d: d.update(modes=[{}]),
    lambda d: d.update(eigfn_coeffs=[[]]),  # read as one row of width 0
    lambda d: d.update(eigenvalues=[[0.6, 0.0], [0.5, 0.0]],
                       modes=[[[1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]], eigfn_coeffs=None),
    lambda d: d.update(eigenvalues=[["0.6", "0.0"]]),
    lambda d: d.update(eigenvalues=[[2 ** 64, 0]]),  # complex() read it; NumPy holds an object
    lambda d: d.update(reconstruction_error=10 ** 400),  # float() overflows
], ids=["rank_overflow", "meta_list", "pair_of_3", "pair_of_1", "mode_pair_of_3", "not_pairs",
        "rank_fraction", "rank_bool", "rank_negative", "rank_string", "coeff_rows_3_of_2",
        "dictionary_number", "modes_2_of_1", "error_bool", "error_negative", "error_string",
        "centering_number", "principal_number", "principal_object", "principal_pair_of_1",
        "principal_overflow", "modes_null", "modes_zero", "modes_false", "modes_object",
        "modes_string", "eigenvalues_object", "eigenvalues_string", "coeffs_object",
        "modes_empty_column", "modes_object_column", "coeffs_empty_row", "modes_ragged",
        "pair_of_strings", "pair_past_int64", "error_past_float"])
def test_malformed_spectrum_exit_102(tmp_path, capsys, edit):
    a = tmp_path / "a.json"
    run_cli("run", *RUN_ALGO4, "--out", str(a))
    d = json.loads(a.read_text())
    edit(d)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(d).replace("Infinity", "1e400"))
    capsys.readouterr()
    assert run_cli("compare", str(a), str(bad), "--out", str(tmp_path / "c.json")) == 102
    assert_one_error_line(capsys.readouterr().err, "parse")


def test_spectrum_without_modes_or_coeffs_compares(tmp_path, capsys):
    a = tmp_path / "a.json"
    run_cli("run", *RUN_ALGO4, "--out", str(a))
    d = json.loads(a.read_text())
    d.update(modes=[], eigfn_coeffs=None)
    b = tmp_path / "b.json"
    b.write_text(json.dumps(d))
    assert run_cli("compare", str(a), str(b), "--out", str(tmp_path / "c.json")) == 0


@pytest.mark.parametrize("eigenvalues, against", [
    ([[1.7e308, 1.7e308]], "a.json"),  # its distance to 0.6
    ([[1.7e308, 0.0], [-1.7e308, 0.0]], "bad.json"),  # the distance between the two
], ids=["modulus", "difference"])
def test_compare_overflowing_distance_exit_103(tmp_path, capsys, eigenvalues, against):
    # every number is finite, but the distance between two eigenvalues is not
    a = tmp_path / "a.json"
    run_cli("run", *RUN_ALGO4, "--out", str(a))
    d = json.loads(a.read_text())
    d.update(eigenvalues=eigenvalues, modes=[], eigfn_coeffs=None)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(d))
    capsys.readouterr()
    out = tmp_path / "c.json"
    assert run_cli("compare", str(bad), str(tmp_path / against), "--out", str(out)) == 103
    assert_one_error_line(capsys.readouterr().err, "numeric")


@pytest.mark.parametrize("config", [False, True], ids=["spectrum", "config"])
def test_deeply_nested_json_exit_102(tmp_path, capsys, config):
    s = tmp_path / "s.json"
    run_cli("run", *RUN_ALGO4, "--out", str(s))
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    capsys.readouterr()
    argv = (str(s), str(s), "--config", str(deep)) if config else (str(s), str(deep))
    assert run_cli("compare", *argv, "--out", str(tmp_path / "c.json")) == 102
    assert_one_error_line(capsys.readouterr().err, "parse")


def test_compare_integer_past_the_digit_limit_exit_102(tmp_path, capsys):
    # json.load raises a plain ValueError, not a JSONDecodeError, for an
    # integer literal longer than Python's int-to-string digit limit
    s = tmp_path / "s.json"
    run_cli("run", *RUN_ALGO4, "--out", str(s))
    d = json.loads(s.read_text())
    d["reconstruction_error"] = "@"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(d).replace('"@"', "9" * 5001))
    capsys.readouterr()
    out = tmp_path / "c.json"
    assert run_cli("compare", str(s), str(bad), "--out", str(out)) == 102
    err = capsys.readouterr().err
    assert_one_error_line(err, "parse")
    assert "not valid JSON" in err
    assert not out.exists()


def test_run_config_integer_past_the_digit_limit_exit_102(tmp_path, capsys):
    config = tmp_path / "c.json"
    config.write_text('{"max_iters": ' + "1" * 5000 + "}")
    out = tmp_path / "s.json"
    assert run_cli("run", *RUN_ALGO4, "--config", str(config), "--out", str(out)) == 102
    err = capsys.readouterr().err
    assert_one_error_line(err, "parse")
    assert "config file is not valid JSON" in err
    assert not out.exists()


@pytest.mark.parametrize("flags", [("--eps-conj", "nan"), ("--eps-conj=inf",),
                                   ("--eps-semi", "-0.1"), ("--lattice-tol", "nan"),
                                   ("--lattice-tol=-1e-3",), ("--max-power", "0"),
                                   ("--max-power=-2",)],
                         ids=["eps_conj_nan", "eps_conj_inf", "eps_semi_negative",
                              "lattice_tol_nan", "lattice_tol_negative", "max_power_zero",
                              "max_power_negative"])
def test_compare_rejects_bad_tolerances_exit_101(tmp_path, capsys, flags):
    s = tmp_path / "s.json"
    run_cli("run", *RUN_ALGO4, "--out", str(s))
    out = tmp_path / "c.json"
    capsys.readouterr()
    assert run_cli("compare", str(s), str(s), *flags, "--out", str(out)) == 101
    assert_one_error_line(capsys.readouterr().err, "configuration")
    assert not out.exists()


@pytest.mark.parametrize("argv, cfg", [
    (("--gamma", "nan"), {}), (("--gamma=inf",), {}), ((), {"gamma": "inf"}),
    ((), {"gamma": "nan"})], ids=["flag_nan", "flag_inf", "config_inf", "config_nan"])
def test_run_rejects_non_finite_gamma_exit_101(tmp_path, capsys, argv, cfg):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(cfg))
    out = tmp_path / "s.json"
    assert run_cli("run", "--algo", "6", "--oracle", "l2", "--oracle-g", "l2",
                   "--x0", "0,0,2", *argv, "--config", str(config), "--out", str(out)) == 101
    assert_one_error_line(capsys.readouterr().err, "configuration")
    assert not out.exists()


@pytest.mark.parametrize("tol", ["nan", "inf", "-1e-10"])
def test_run_rejects_bad_svd_tol_exit_101(tmp_path, capsys, tol):
    assert run_cli("run", *RUN_ALGO4, f"--svd-tol={tol}",
                   "--out", str(tmp_path / "s.json")) == 101
    assert_one_error_line(capsys.readouterr().err, "configuration")


def test_run_rejects_negative_discard_exit_101(tmp_path, capsys):
    out = tmp_path / "s.json"
    assert run_cli("run", *RUN_ALGO4, "--discard", "-4", "--out", str(out)) == 101
    assert_one_error_line(capsys.readouterr().err, "configuration")
    assert not out.exists()


def subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from subclasses(sub)


# the README's exit-code table; every other error is a configuration error
README_EXITS = {ParseError: ("parse", 102), NumericFailureError: ("numeric", 103),
                DegenerateDataError: ("numeric", 103), InsufficientDataError: ("numeric", 103),
                InvalidObservableError: ("numeric", 103), CardinalityMismatchError: ("numeric", 103)}


def raise_from_run(monkeypatch, exc):
    def handler(args):
        raise exc
    monkeypatch.setattr(cli, "cmd_run", handler)


@pytest.mark.parametrize("cls", sorted(set(subclasses(KoopeqError)), key=lambda c: c.__name__),
                         ids=lambda c: c.__name__)
def test_every_error_class_exits_with_the_readme_code(monkeypatch, capsys, cls):
    raise_from_run(monkeypatch, cls("boom"))
    kind, code = README_EXITS.get(cls, ("configuration", 101))
    assert run_cli("run") == code
    err = capsys.readouterr().err
    assert_one_error_line(err, kind)
    assert err.endswith(" message=boom\n")


@pytest.mark.parametrize("base, kind, code", [(KoopeqError, "configuration", 101),
                                              (ParseError, "parse", 102),
                                              (NumericFailureError, "numeric", 103)],
                         ids=["koopeq", "parse", "numeric"])
def test_a_new_error_class_exits_as_its_base(monkeypatch, capsys, base, kind, code):
    # the command line names no error class: a new one takes its base's code
    class NewError(base):
        pass
    raise_from_run(monkeypatch, NewError("boom"))
    assert run_cli("run") == code
    assert_one_error_line(capsys.readouterr().err, kind)


@pytest.mark.parametrize("eps", ["-1", "0", "nan", "inf"])
def test_run_traj_rejects_bad_eps_exit_101(tmp_path, capsys, eps):
    # --eps inf used to mark the log converged and centre it on its last row
    csv = tmp_path / "t.csv"
    csv.write_text("k,x0\n" + "".join(f"{k},{0.9 ** k!r}\n" for k in range(40)))
    out = tmp_path / "s.json"
    assert run_cli("run", "--traj", str(csv), f"--eps={eps}", "--out", str(out)) == 101
    err = capsys.readouterr().err
    assert_one_error_line(err, "configuration")
    assert "eps must be finite and positive" in err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (RUN_ALGO4 + ("--oracle-g", "l2"), "ALGO4 takes a single oracle"),
    (("--algo", "6", "--oracle", "l2", "--x0", "0,0,2"), "ALGO6 needs two proximal oracles"),
    (("--traj", "{csv}", "--method", "edmd", "--dict", "log"),
     "dictionary expects dim 1, data has 2"),
    (("--algo", "6", "--oracle", "l2", "--oracle-g", "logdet", "--x0", "0,0,1"),
     "oracle_f and oracle_g act on blocks of different size"),
], ids=["second_oracle_unused", "second_oracle_missing", "log_dictionary_of_two_columns",
        "prox_blocks_of_different_size"])
def test_run_leaves_oracle_and_dictionary_checks_to_the_library_exit_101(
        tmp_path, capsys, argv, message):
    csv = tmp_path / "t.csv"
    csv.write_text("k,x0,x1\n" + "".join(f"{k},{0.9 ** k!r},{0.5 ** k!r}\n" for k in range(40)))
    out = tmp_path / "s.json"
    assert run_cli("run", *[a.format(csv=csv) for a in argv], "--out", str(out)) == 101
    err = capsys.readouterr().err
    assert_one_error_line(err, "configuration")
    assert err.endswith(f" message={message}\n")
    assert not out.exists()


def test_write_json_strict_and_atomic(tmp_path, monkeypatch):
    p = tmp_path / "out.json"
    serialize.write_json(p, {"a": 1.5})
    before = p.read_bytes()
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(NumericFailureError, match="out.json"):
            serialize.write_json(p, {"a": [1.0, value]})
        assert p.read_bytes() == before
    assert sorted(tmp_path.iterdir()) == [p]

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(serialize.os, "replace", failing_replace)
    with pytest.raises(OSError, match="disk full"):
        serialize.write_json(p, {"a": 2.5})
    assert p.read_bytes() == before
    assert sorted(tmp_path.iterdir()) == [p]


def _grid(distances):
    return SimpleNamespace(axis1=np.array([0.0, 1.0]), axis2=np.array([0.0]),
                           distances=np.array(distances, dtype=object).reshape(2, 1),
                           flags=np.zeros((2, 1), dtype=int))


# writer: (content, the bytes it writes, content whose generation fails)
WRITERS = {
    "write_text": (serialize.write_text, "k\n", b"k\n", "\ud800"),
    "write_json": (serialize.write_json, {"a": 1.5}, b'{\n  "a": 1.5\n}\n',
                   {"a": object()}),
    "write_trajectory_csv": (serialize.write_trajectory_csv,
                             [("x", np.array([[1.0], [2.0]]))],
                             b"k,x_0\r\n0,1.0\r\n1,2.0\r\n",
                             [("x", np.array([[1.0], [object()]], dtype=object))]),
    "write_grid_csv": (serialize.write_grid_csv, _grid([0.5, 0.25]),
                       b"xi1_0,xi2_0,distance,flag\r\n0.0,0.0,0.5,0\r\n1.0,0.0,0.25,0\r\n",
                       _grid([0.5, object()])),
}


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_every_writer_is_atomic(tmp_path, monkeypatch, name):
    write, content, expected, bad = WRITERS[name]
    p = tmp_path / "new_dir" / "out"
    assert write(p, content) == expected == p.read_bytes()
    p.write_bytes(b"previous\n")
    with pytest.raises((TypeError, ValueError)):  # UnicodeEncodeError is a ValueError
        write(p, bad)
    assert p.read_bytes() == b"previous\n"
    assert sorted(p.parent.iterdir()) == [p]

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(serialize.os, "replace", failing_replace)
    with pytest.raises(OSError, match="disk full"):
        write(p, content)
    assert p.read_bytes() == b"previous\n"
    assert sorted(p.parent.iterdir()) == [p]


@pytest.mark.parametrize("argv", [
    ("run", *RUN_ALGO4, "--out", "{f}/a.json"),
    ("reproduce", "fig1", "--outdir", "{f}"),
])
def test_output_under_a_regular_file_exit_101(tmp_path, capsys, argv):
    f = tmp_path / "f"
    f.write_bytes(b"keep\n")
    assert run_cli(*(a.format(f=f) for a in argv)) == 101
    assert_one_error_line(capsys.readouterr().err, "configuration")
    assert f.read_bytes() == b"keep\n"
    assert sorted(tmp_path.iterdir()) == [f]


def test_sweep_with_every_cell_failed_exit_103(tmp_path, capsys, monkeypatch):
    # the fig2 summary has no statistic (and no finite mean) to write then
    from koopeq import experiments

    real_sweep = experiments.sweep

    def all_failed(*args, **kwargs):
        result = real_sweep(*args, **kwargs)
        result.distances[:] = np.nan
        return result

    monkeypatch.setattr(experiments, "sweep", all_failed)
    assert run_cli("sweep", "--resolution", "2", "--outdir", str(tmp_path)) == 103
    assert_one_error_line(capsys.readouterr().err, "numeric")
    assert not (tmp_path / "fig2_quad_summary.json").exists()


def two_column_log(tmp_path):
    csv = tmp_path / "t.csv"
    csv.write_text("k,x0,x1\n" + "".join(f"{k},{0.9 ** k!r},{0.5 ** k!r}\n" for k in range(40)))
    return csv


RUN_ALGO6_L2 = ("--algo", "6", "--oracle", "l2", "--oracle-g", "l2", "--x0", "0,0,2")

# (flags, the flag named, its route): each flag is one its route never reads
ROUTE_FOREIGN = [
    (("--traj", "{csv}", "--x0", "5"), "--x0", "--traj"),
    (("--traj", "{csv}", "--oracle", "quad"), "--oracle", "--traj"),
    (("--traj", "{csv}", "--oracle-g", "l2"), "--oracle-g", "--traj"),
    (("--traj", "{csv}", "--gamma", "-1"), "--gamma", "--traj"),
    (("--traj", "{csv}", "--matrix-dim", "0"), "--matrix-dim", "--traj"),
    (("--traj", "{csv}", "--max-iters", "3"), "--max-iters", "--traj"),
    (("--traj", "{csv}", "--cap", "-1"), "--cap", "--traj"),
    (("--traj", "{csv}", "--method", "dmd", "--dict", "log"), "--dict", "--method dmd"),
    (("--traj", "{csv}", "--dict", "monomials"), "--dict", "--method dmd"),
    (("--traj", "{csv}", "--degree", "-3"), "--degree", "--method dmd"),
    (RUN_ALGO4 + ("--degree", "2"), "--degree", "--method dmd"),
    (("--traj", "{csv}", "--method", "edmd", "--dict", "identity", "--degree", "-3"),
     "--degree", "--dict identity"),
    (("--traj", "{csv}", "--method", "edmd", "--dict", "log", "--degree", "2"),
     "--degree", "--dict log"),
    # a gradient oracle takes no proximal step, only log-det a matrix side
    (RUN_ALGO4 + ("--gamma", "-1"), "--gamma", "--oracle quad"),
    (RUN_ALGO4 + ("--matrix-dim", "3"), "--matrix-dim", "--oracle quad"),
    (RUN_ALGO6_L2 + ("--matrix-dim", "0"), "--matrix-dim", "--oracle l2 --oracle-g l2"),
]


@pytest.mark.parametrize("config", [False, True], ids=["argv", "config"])
@pytest.mark.parametrize("argv, flag, route", ROUTE_FOREIGN,
                         ids=[f"{route}:{flag}" for _, flag, route in ROUTE_FOREIGN])
def test_run_rejects_a_flag_its_route_never_reads_exit_101(tmp_path, capsys, argv, flag,
                                                           route, config):
    csv = two_column_log(tmp_path)
    argv = [a.format(csv=csv) for a in argv]
    if config:  # the foreign flag comes from the config file
        at = argv.index(flag)
        key = {"--dict": "dictionary"}.get(flag, flag[2:].replace("-", "_"))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: argv[at + 1]}))
        argv = argv[:at] + argv[at + 2:] + ["--config", str(cfg)]
    out = tmp_path / "s.json"
    assert run_cli("run", *argv, "--out", str(out)) == 101
    err = capsys.readouterr().err
    assert_one_error_line(err, "configuration")
    assert err.endswith(f" message={flag} does not apply to {route}\n")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ("--traj", "{csv}", "--x0", "5", "--oracle", "quad", "--max-iters", "3", "--cap", "-1"),
    ("--traj", "{csv}", "--method", "dmd", "--dict", "log", "--degree", "-3"),
    ("--traj", "{csv}", "--method", "edmd", "--dict", "identity", "--degree", "-3"),
    ("--traj", "{csv}", "--gamma", "-1", "--matrix-dim", "0"),
    RUN_ALGO4 + ("--gamma", "-1", "--matrix-dim", "0"),
], ids=["traj_algo_flags", "dmd_dict_degree", "identity_degree", "traj_oracle_sizes",
        "gradient_oracle_sizes"])
def test_run_with_several_foreign_flags_exits_101_with_one_line(tmp_path, capsys, argv):
    # each of these wrote a spectrum and exited 0, its foreign flags unread
    csv = two_column_log(tmp_path)
    out = tmp_path / "s.json"
    assert run_cli("run", *[a.format(csv=csv) for a in argv], "--out", str(out)) == 101
    assert_one_error_line(capsys.readouterr().err, "configuration")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ("--traj", "{csv}", "--method", "dmd"),  # the benchmark's blackbox argv
    ("--traj", "{csv}", "--method", "edmd", "--degree", "3"),
    ("--traj", "{csv}", "--method", "edmd", "--dict", "monomials", "--degree", "3"),
    ("--traj", "{csv}", "--method", "edmd", "--dict", "identity"),
    RUN_ALGO4 + ("--max-iters", "50", "--cap", "1e6"),
    ("--algo", "6", "--oracle", "l2", "--oracle-g", "l2", "--x0", "1,2,3", "--gamma", "0.5"),
    ("--algo", "6", "--oracle", "logdet", "--oracle-g", "l2", "--matrix-dim", "2",
     "--gamma", "0.5", "--x0", "1,0,1,0,0,0,1,0,1"),
], ids=["traj_dmd", "traj_edmd_degree", "traj_monomials_degree", "traj_identity",
        "algo_run_flags", "l2_gamma", "logdet_gamma_matrix_dim"])
def test_run_takes_the_flags_its_route_reads(tmp_path, argv):
    csv = two_column_log(tmp_path)
    out = tmp_path / "s.json"
    assert run_cli("run", *[a.format(csv=csv) for a in argv], "--out", str(out)) == 0
    assert out.exists()
