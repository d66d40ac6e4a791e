"""Generated input: trajectory CSV ingest against its row loop, and `main()`
on arbitrary CSV, spectrum JSON and config text."""
import contextlib
import io
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from koopeq import serialize
from koopeq.cli import main
from koopeq.errors import ParseError

EXIT_CODES = {0, 10, 20, 101, 102, 103}

# cells the row loop and NumPy may read differently: int() and float() take
# "1_0", Unicode digits and Unicode spaces; csv strips quotes; `#` is a row;
# a character above U+FFFF once crashed NumPy's parse
ODD_CELLS = ["1.0", "+1", "01", "-0", " 2 ", " 3", "1_0", "١", '"2.5"', "nan",
             "-inf", "Infinity", "1e400", "1e-400", "", " ", "#", "#1", "0x1", "1d5",
             "9" * 25, "1e", ".5", "5.", "\t4\t", "\x00", "1,5", "-0.0", "5e-324",
             "1.7976931348623157e+308", "2.2250738585072014e-308", "1\U000ba58b"]
LINE_ENDS = ["\n", "\r\n", "\r"]


@st.composite
def trajectory_text(draw):
    """A trajectory CSV: a well-formed one with up to three faults, each an
    odd or non-finite cell, a changed k, an odd line, a short or long row or
    a changed line end, and sometimes a few arbitrary characters or a bad
    header."""
    dim = draw(st.integers(1, 3))
    header = "k," + ",".join(f"x{i}" for i in range(dim))
    header = draw(st.sampled_from([header] * 20 + [f'"k",{header[2:]}', " k , x0",
                                                    "k,x1", "step," + header[2:], ""]))
    n = draw(st.sampled_from([0, 1] + [2, 3, 5, 8] * 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.standard_normal((n, dim)) * 10.0 ** rng.integers(-300, 300, (n, dim))
    rows = [[str(k)] + [repr(float(v)) for v in values[k]] for k in range(n)]
    ends = [draw(st.sampled_from(LINE_ENDS))] * (n + 1)
    extra = {}  # odd lines, by the row they follow
    for _ in range(draw(st.integers(0, 3)) if n else 0):
        r = draw(st.integers(0, n - 1))
        fault = draw(st.sampled_from(["cell", "non-finite", "k", "line", "width", "end"]))
        if not rows[r] and fault in ("cell", "non-finite", "k"):
            continue  # two width faults can leave a one-dimensional row empty
        if fault == "non-finite":
            rows[r][-1] = draw(st.sampled_from(["nan", "-inf", "Infinity", "1e400"]))
        elif fault == "cell":
            rows[r][draw(st.integers(0, len(rows[r]) - 1))] = draw(st.sampled_from(ODD_CELLS))
        elif fault == "k":
            rows[r][0] = str(draw(st.integers(-1, n + 1)))
        elif fault == "line":
            extra[r] = draw(st.sampled_from(["", " ", "\t", ",", "#", "#1,2", "\ufeff"]))
        elif fault == "width":
            rows[r] = rows[r][:-1] if draw(st.booleans()) else rows[r] + ["0"]
        else:
            ends[r + 1] = draw(st.sampled_from(LINE_ENDS))
    text = header + ends[0]
    for r, row in enumerate(rows):
        text += ",".join(row) + ends[r + 1]
        if r in extra:
            text += extra[r] + ends[r + 1]
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    if draw(st.integers(0, 9)) == 0:
        pos = draw(st.integers(0, len(text)))
        text = text[:pos] + draw(st.text(max_size=3)) + text[pos:]
    return text


def ingest_outcome(path):
    try:
        traj = serialize.ingest_external_trajectory(path)
    except ParseError as exc:
        return ("error", str(exc), exc.line)
    fpe = traj.fixed_point_estimate
    return ("ok", traj.states.shape, traj.states.tobytes(), traj.status,
            None if fpe is None else fpe.tobytes())


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(text=trajectory_text())
def test_ingest_matches_row_loop(scratch, text):
    # the NumPy parse may only accept what the row loop accepts, to the same
    # bits; anything else must come out as the row loop's own ParseError
    path = scratch / "t.csv"
    path.write_bytes(text.encode("utf-8", "surrogatepass"))
    fast = ingest_outcome(path)
    with mock.patch.object(serialize, "_states_by_loadtxt", return_value=None):
        loop = ingest_outcome(path)
    assert fast == loop


# --- main() on arbitrary files -------------------------------------------------

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 8) | st.floats()
    | st.sampled_from(["nan", "1e400", "-1", "0.5", "dmd", "edmd", "x"]) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=12)


def call_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    err = err.getvalue()
    assert code in EXIT_CODES, (code, err)
    assert "Traceback" not in err
    if code > 100:
        assert err.startswith("error: kind=") and err.count("\n") == 1, err
        assert err.count("error:") == 1
    return code


@pytest.fixture(scope="module")
def good_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("good")
    spec = d / "s.json"
    assert main(["run", "--algo", "1", "--oracle", "quad", "--x0", "1,0.5",
                 "--out", str(spec)]) == 0
    csv = d / "t.csv"
    csv.write_text("k,x0,x1\n" + "".join(f"{k},{0.9 ** k},{0.5 ** k + 0.1 * k}\n"
                                           for k in range(12)))
    return spec, csv, json.loads(spec.read_text())


fuzz_settings = settings(max_examples=60, deadline=None,
                         suppress_health_check=[HealthCheck.too_slow])


@fuzz_settings
@given(text=trajectory_text() | st.text(max_size=60))
def test_main_on_arbitrary_csv(scratch, good_files, text):
    path = scratch / "in.csv"
    path.write_bytes(text.encode("utf-8", "surrogatepass"))
    call_main(["run", "--traj", path, "--out", scratch / "o.json"])
    call_main(["run", "--traj", path, "--method", "edmd", "--degree", "2",
               "--out", scratch / "o.json"])


SPECTRUM_FIELDS = ["method", "dictionary", "rank", "reconstruction_error", "eigenvalues",
                   "modes", "principal", "eigfn_coeffs", "meta"]
parts = st.floats() | st.integers(-3, 3) | st.sampled_from([1.7e308, -1.7e308])
pair_lists = st.lists(st.lists(parts, min_size=1, max_size=3), max_size=4)


@st.composite
def spectrum_text(draw, good):
    kind = draw(st.sampled_from(["edit", "edit", "text", "bytes"]))
    if kind == "text":
        return draw(st.text(max_size=60)).encode("utf-8", "surrogatepass")
    if kind == "bytes":
        return draw(st.binary(max_size=40))
    d = json.loads(json.dumps(good))
    for key in draw(st.lists(st.sampled_from(SPECTRUM_FIELDS), max_size=3)):
        if draw(st.booleans()):
            d.pop(key, None)
        elif key in ("eigenvalues", "principal"):
            d[key] = draw(pair_lists | json_values)
        elif key in ("modes", "eigfn_coeffs"):
            d[key] = draw(st.lists(pair_lists, max_size=3) | json_values)
        else:
            d[key] = draw(json_values)
    return json.dumps(d).encode("utf-8")


@fuzz_settings
@given(data=st.data())
def test_main_on_arbitrary_spectrum(scratch, good_files, data):
    spec, _, good = good_files
    path = scratch / "in.json"
    path.write_bytes(data.draw(spectrum_text(good)))
    call_main(["compare", spec, path, "--out", scratch / "c.json"])
    call_main(["compare", path, path, "--out", scratch / "c.json"])


# flags whose value names a path are left out: a fuzzed config must not write
# or read files elsewhere; numbers stay small so a run stays cheap
COMPARE_KEYS = ["eps_conj", "eps_semi", "lattice_tol", "max_power", "keep_unit"]
RUN_KEYS = ["method", "dictionary", "degree", "eps", "centering", "discard", "rank",
            "svd_tol", "algo", "oracle", "x0", "max_iters"]


@st.composite
def config_text(draw, keys):
    kind = draw(st.sampled_from(["dict", "dict", "dict", "text"]))
    if kind == "text":
        return draw(st.text(max_size=40)).encode("utf-8", "surrogatepass")
    cfg = draw(st.dictionaries(st.sampled_from(keys + ["banana"]), json_values, max_size=4))
    return json.dumps(cfg).encode("utf-8")


@fuzz_settings
@given(data=st.data())
def test_main_on_arbitrary_config(scratch, good_files, data):
    spec, csv, _ = good_files
    path = scratch / "cfg.json"
    path.write_bytes(data.draw(config_text(COMPARE_KEYS)))
    call_main(["compare", spec, spec, "--config", path, "--out", scratch / "c.json"])
    path.write_bytes(data.draw(config_text(RUN_KEYS)))
    call_main(["run", "--traj", csv, "--config", path, "--out", scratch / "s.json"])
