"""File formats: spectrum and comparison JSON, trajectory CSV, external
trajectory ingestion, and the one atomic writer behind every output file.

Floats are serialized with Python's shortest round-trip representation, so a
re-parsed file reproduces the in-memory values bit for bit.
"""
from __future__ import annotations

import csv
import io
import json
import math
import os
import warnings
from typing import TYPE_CHECKING, Optional

import numpy as np

from .errors import NumericFailureError, ParseError, count, tolerance
from .spectral import KoopmanSpectrum, principal_eigenvalues
from .trajectory import RunConfig, Trajectory, TrajectoryStatus, _stop

if TYPE_CHECKING:
    from .compare import SpectrumComparison

SPECTRUM_REQUIRED_KEYS = {"method", "dictionary", "rank", "reconstruction_error",
                          "eigenvalues", "modes", "principal"}


def _cvec(v) -> list:
    """A complex array as [re, im] pairs, nested one list per axis."""
    v = np.asarray(v)
    return np.stack((v.real, v.imag), -1, dtype=float).tolist()


def _complex(d: dict, key: str, depth: int) -> np.ndarray:
    """Field `key` of a spectrum dict as a complex array of `depth` axes, read
    from `depth` nested lists of finite [re, im] number pairs; `[]` is none."""
    rule = (f"spectrum file field {key!r} must hold a list of "
            + "equal-length lists of " * (depth - 1) + "finite [re, im] number pairs")
    try:
        a = np.array(d[key])
    except ValueError:  # ragged lists
        raise ParseError(rule) from None
    if a.shape == (0,):
        return np.empty((0,) * depth, complex)
    if (a.dtype.kind not in "biuf" or a.ndim != depth + 1 or a.shape[-1] != 2
            or not np.isfinite(a).all()):
        raise ParseError(rule)
    return a.astype(float).view(complex)[..., 0]  # complex(re, im)'s bits


def spectrum_to_dict(spec: KoopmanSpectrum) -> dict:
    """JSON-ready form of a spectrum. Eigenvalues are [re, im] pairs to avoid
    complex-number format ambiguity; `principal` is the extraction with the
    module defaults. Absent modes are written `[]` and a coefficient block of
    width 0 `null`, as `spectrum_from_dict` reads them."""
    return {
        "method": spec.method,
        "dictionary": spec.dictionary_tag,
        "rank": int(spec.rank),
        "reconstruction_error": float(spec.reconstruction_error),
        "eigenvalues": _cvec(spec.eigenvalues),
        "modes": _cvec(spec.modes.T) if spec.modes.size else [],
        "principal": _cvec(principal_eigenvalues(spec)),
        "eigfn_coeffs": _cvec(spec.eigfn_coeffs) if spec.eigfn_coeffs.size else None,
        "meta": {"centering": spec.centering_tag},
    }


def spectrum_from_dict(d: dict) -> KoopmanSpectrum:
    """Parse a spectrum dict back into a KoopmanSpectrum (strict schema)."""
    if not isinstance(d, dict):
        raise ParseError("spectrum file must hold a JSON object")
    missing = SPECTRUM_REQUIRED_KEYS - d.keys()
    if missing:
        raise ParseError(f"spectrum file missing keys: {sorted(missing)}")
    if d["method"] not in ("dmd", "edmd"):
        raise ParseError(f"unknown method {d['method']!r}")
    lam = _complex(d, "eigenvalues", 1)
    _complex(d, "principal", 1)  # checked but not read: compare extracts its own
    modes = _complex(d, "modes", 2).T
    coeffs = (np.empty((lam.size, 0), complex) if d.get("eigfn_coeffs") is None
              else _complex(d, "eigfn_coeffs", 2))
    if modes.shape[1] not in (0, lam.size) or coeffs.shape[0] != lam.size:
        raise ParseError("modes and eigfn_coeffs must hold one column and one row "
                         "per eigenvalue, or none")
    rank = count("spectrum file field 'rank'", d["rank"], 1, ParseError)
    if not isinstance(d["dictionary"], str):
        raise ParseError("spectrum file field 'dictionary' must hold a string")
    tolerance("spectrum file field 'reconstruction_error'", d["reconstruction_error"],
              ParseError)
    err = float(d["reconstruction_error"])
    meta = d.get("meta", {})
    if not isinstance(meta, dict):
        raise ParseError("spectrum file field 'meta' must hold a JSON object")
    centering = meta.get("centering", "identity")
    if not isinstance(centering, str):
        raise ParseError("spectrum file field 'meta.centering' must hold a string")
    return KoopmanSpectrum(eigenvalues=lam, modes=modes, eigfn_coeffs=coeffs,
                           method=d["method"], rank=rank,
                           dictionary_tag=d["dictionary"],
                           reconstruction_error=err, centering_tag=centering)


def write_text(path, text: str) -> bytes:
    """Write `text` as UTF-8, creating the parent directory, through a sibling
    temporary file, so `path` holds its previous content or all of `text`.
    Returns the bytes written; every file koopeq writes goes through here."""
    data = text.encode("utf-8")
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise
    return data


def write_json(path, payload: dict) -> bytes:
    """Write strict JSON (no NaN or Infinity) with `write_text`."""
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise NumericFailureError(f"cannot write {path}: {exc}") from None
    return write_text(path, text)


def read_json(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except UnicodeDecodeError as exc:
        raise ParseError(f"not valid UTF-8: {exc}") from exc
    # a plain ValueError: an integer literal past Python's digit limit
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"not valid JSON: {exc}") from exc


def comparison_to_dict(cmp: SpectrumComparison) -> dict:
    return {
        "verdict": cmp.verdict.value,
        "wasserstein": cmp.wasserstein,
        "directed_hausdorff_ab": cmp.directed_hausdorff_ab,
        "directed_hausdorff_ba": cmp.directed_hausdorff_ba,
        "matching": [list(p) for p in cmp.matching],
        "principal_a": _cvec(cmp.principal_a),
        "principal_b": _cvec(cmp.principal_b),
        "tolerances": {"eps_conj": cmp.tolerances_used.eps_conj,
                       "eps_semi": cmp.tolerances_used.eps_semi},
        "notes": list(cmp.notes),
    }


def write_trajectory_csv(path, states) -> bytes:
    """One run's states, shape (K+1, dim), as the log
    `ingest_external_trajectory` reads: header `k,x0,...`, one row per state."""
    rows = [["k", *(f"x{i}" for i in range(np.shape(states)[1]))]]
    rows += [[str(k), *(repr(float(v)) for v in row)] for k, row in enumerate(states)]
    return _write_csv(path, rows)


def write_grid_csv(path, result) -> bytes:
    """Sweep output: one row per grid cell, row-major over (axis1, axis2)."""
    cells = [[repr(float(a)), repr(float(b)), repr(float(result.distances[i, j])),
              str(int(result.flags[i, j]))]
             for i, a in enumerate(result.axis1) for j, b in enumerate(result.axis2)]
    return _write_csv(path, [["xi1_0", "xi2_0", "distance", "flag"], *cells])


def _write_csv(path, rows) -> bytes:
    """`write_text` of the rows as the csv module writes them, CRLF-ended."""
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return write_text(path, buf.getvalue())


def ingest_external_trajectory(path, eps: float = 1e-12) -> Trajectory:
    """Read a trajectory produced outside this package.

    Expected format: UTF-8 text, header `k,x0,x1,...`, one row per iterate
    with k counting up from 0 without gaps and finite state cells; blank lines
    are skipped. Status CONVERGED when the last step passes the run loop's
    test under `eps`, which RunConfig checks, else BUDGET_EXHAUSTED.
    """
    cfg = RunConfig(eps=eps, overflow_cap=math.inf)
    with open(path, "rb") as raw:
        if not raw.seekable():
            # a pipe is read whole: the row loop may have to read it again
            raw = io.BytesIO(raw.read())
        states = _states_by_loadtxt(raw)
        if states is None:
            raw.seek(0)
            fh = io.TextIOWrapper(raw, encoding="utf-8", newline="")
            try:
                header = _header(fh)
                body = fh.read()
            except UnicodeDecodeError as exc:
                raise ParseError(f"trajectory file is not valid UTF-8: {exc}") from None
            # the header is checked after the body is decoded: a file that
            # is not UTF-8 says so, whatever its header holds
            states = _states_by_row(body, _state_count(header))
    status = TrajectoryStatus.BUDGET_EXHAUSTED
    if _stop(states[-1], states[-2], cfg) is TrajectoryStatus.CONVERGED:
        status = TrajectoryStatus.CONVERGED
    return Trajectory(states=states, status=status)


def _header(fh) -> list:
    """The header row of a trajectory file, read with the csv module."""
    try:
        return next(csv.reader(fh))
    except StopIteration:
        raise ParseError("empty trajectory file", line=1) from None
    except csv.Error as exc:
        raise ParseError(f"malformed CSV: {exc}", line=1) from None


def _state_count(header: list) -> int:
    """The number of state columns a `k,x0,x1,...` header names."""
    header = [h.strip() for h in header]
    if len(header) < 2 or header[0] != "k":
        raise ParseError("header must be of the form k,x0,x1,...", line=1)
    expected = ["x" + str(i) for i in range(len(header) - 1)]
    if header[1:] != expected:
        raise ParseError(f"state columns must be named {','.join(expected)}", line=1)
    return len(expected)


def _states_by_loadtxt(raw) -> Optional[np.ndarray]:
    """The state block of a trajectory file in one NumPy parse of its text,
    streamed from the binary file `raw`, or None when the row loop has to
    decide. NumPy reads a subset of what `int()` and `float()` read, to the
    same values, so every file accepted here is one `_states_by_row` accepts
    with the same states."""
    # numpy 2.4.6's structured-dtype parse can crash the interpreter on a
    # character above U+FFFF: the ASCII decoder fails the 8 KB chunk holding
    # any non-ASCII byte before NumPy sees it, and the row loop reads the file
    fh = io.TextIOWrapper(raw, encoding="ascii", newline="")
    try:
        dim = _state_count(_header(fh))
        # a warning is an error here: NumPy releases that still read an
        # integer through a float ("1.0", "-0.0", "1.9") only warn, then
        # truncate; loadtxt also warns on input without data
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # comments=None: the loop rejects a `#` row, loadtxt would skip it
            table = np.loadtxt(fh, delimiter=",", comments=None, ndmin=1,
                               dtype=[("k", np.int64), ("x", np.float64, (dim,))])
    except Exception:  # any failure is the row loop's to report, with its line
        return None
    finally:
        fh.detach()  # leaves `raw` open for the row loop
    states = table["x"]
    if (len(table) < 2 or not np.array_equal(table["k"], np.arange(len(table)))
            or not np.isfinite(states).all()):
        return None
    return np.ascontiguousarray(states)


def _states_by_row(body: str, dim: int) -> np.ndarray:
    """The state block of a trajectory body, read row by row with the csv
    module; raises the ParseError, with its line, of the first bad row."""
    reader = csv.reader(io.StringIO(body, newline=""))
    rows = []
    try:
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != dim + 1:
                raise ParseError(f"expected {dim + 1} cells, got {len(row)}", line=lineno)
            try:
                k = int(row[0])
                vals = [float(c) for c in row[1:]]
            except ValueError:
                raise ParseError(f"non-numeric cell in row {lineno}", line=lineno) from None
            if not all(map(math.isfinite, vals)):
                raise ParseError(f"non-finite cell in row {lineno}", line=lineno)
            if k != len(rows):
                kind = "duplicate" if k < len(rows) else "gap in"
                raise ParseError(f"{kind} iteration index k={k}", line=lineno)
            rows.append(vals)
    except csv.Error as exc:
        raise ParseError(f"malformed CSV: {exc}", line=reader.line_num + 1) from None
    if len(rows) < 2:
        raise ParseError("need at least two states")
    return np.array(rows, dtype=float)
