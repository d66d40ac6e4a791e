"""Oracle tests. Derived expectations are checked against brute-force
grid/scan minimizers of the defining objectives, never against the closed
forms themselves."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from koopeq import (AlgorithmId, Oracle, OracleKind, grad_negcos, grad_quadratic,
                    make_algorithm, prox_l2, prox_neglogdet, sym_flatten, sym_unflatten)
from koopeq.cli import main
from koopeq.errors import ConfigurationError, InvalidInputError, NumericFailureError
from koopeq.oracles import _prox_neglogdet
from koopeq.trajectory import RunConfig, TrajectoryStatus, iterate


# ---------------------------------------------------------------------------
# brute-force oracles for the proximal objectives


def l2_objective(u, v, gamma):
    return np.linalg.norm(u) + np.linalg.norm(u - v) ** 2 / (2 * gamma)


def grid_argmin_l2(v, gamma, lo=-1.0, hi=5.0, n=201):
    """Exhaustive 2-D grid minimizer of the prox_l2 objective."""
    axis = np.linspace(lo, hi, n)
    best, best_u = np.inf, None
    for a in axis:
        for b in axis:
            u = np.array([a, b])
            val = l2_objective(u, v, gamma)
            if val < best:
                best, best_u = val, u
    return best_u, best


def neglogdet_objective(x, v, gamma):
    return -np.log(x) + (x - v) ** 2 / (2 * gamma)


def scan_argmin_neglogdet(v, gamma, lo=1e-3, hi=6.0, n=60001):
    xs = np.linspace(lo, hi, n)
    vals = neglogdet_objective(xs, v, gamma)
    i = int(np.argmin(vals))
    return xs[i], vals[i]


# ---------------------------------------------------------------------------
# gradients


def test_grad_quadratic_examples():
    assert grad_quadratic(0.0) == 0.0
    assert grad_quadratic(3.0) == 6.0
    np.testing.assert_allclose(grad_quadratic(np.array([-1.5, 0.5])), [-3.0, 1.0])


def test_grad_negcos_examples():
    assert grad_negcos(0.0) == 0.0
    assert grad_negcos(np.pi / 2) == pytest.approx(1.0, abs=1e-15)
    assert abs(grad_negcos(np.pi)) < 1e-15


@pytest.mark.parametrize("fn, x", [
    (grad_quadratic, [1.0, 2.0]),
    (grad_negcos, [1.0, 2.0]),
    (grad_quadratic, 1.0),
    (grad_negcos, 1.0),
    (lambda v: prox_l2(v, 1.0), [1.0, 2.0]),
    (lambda V: prox_neglogdet(V, 1.0), [[2.0, 0.5], [0.5, 3.0]]),
    (Oracle(OracleKind.GRAD_QUADRATIC, domain_dim=2).apply, [1.0, 2.0]),
    (Oracle(OracleKind.GRAD_NEGCOS, domain_dim=2).apply, [1.0, 2.0]),
    (Oracle(OracleKind.PROX_L2, gamma=1.0, domain_dim=2).apply, [1.0, 2.0]),
    (Oracle(OracleKind.PROX_L2, gamma=1.0, domain_dim=4).apply, [[1.0, 2.0], [3.0, 4.0]]),
    (Oracle(OracleKind.PROX_NEGLOGDET, gamma=1.0, domain_dim=2).apply, [2.0, 0.5, 3.0]),
], ids=["grad_quadratic", "grad_negcos", "grad_quadratic_scalar", "grad_negcos_scalar",
        "prox_l2", "prox_neglogdet", "apply_grad_quadratic", "apply_grad_negcos",
        "apply_prox_l2", "apply_prox_l2_2d", "apply_prox_neglogdet"])
def test_grad_rejects_nonfinite(fn, x):
    # Oracle.apply of the log-det prox skips the public checks that cannot fail
    # there; finiteness is the one it must keep
    for bad in (np.nan, np.inf):
        y = np.array(x, dtype=float)
        y.flat[-1] = bad
        with pytest.raises(InvalidInputError):
            fn(y)


SCALARS = [0.0, -0.0, 5e-324, -2.2e-308, 1e300, -1e300,
           *np.random.default_rng(16).normal(0.0, 10.0, 20)]


@pytest.mark.parametrize("fn", [grad_quadratic, grad_negcos,
                                Oracle(OracleKind.GRAD_QUADRATIC).apply,
                                Oracle(OracleKind.GRAD_NEGCOS).apply],
                         ids=["grad_quadratic", "grad_negcos", "apply_quad", "apply_negcos"])
def test_grad_of_a_numpy_scalar_matches_its_0d_array(fn):
    # x[0] of a state is an np.float64: it must give the bits and the type
    # that the same value as a 0-d array gives
    for v in SCALARS:
        got, want = fn(np.float64(v)), fn(np.array(v))
        assert type(got) is type(want) is np.float64
        assert bits(got) == bits(want)
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(InvalidInputError, match="^input contains non-finite entries$"):
            fn(np.float64(bad))


# ---------------------------------------------------------------------------
# prox_l2


def test_prox_l2_shrinks_34():
    # frozen from the grid oracle below: argmin of ||u|| + ||u-(3,4)||^2/2
    out = prox_l2(np.array([3.0, 4.0]), 1.0)
    np.testing.assert_allclose(out, [2.4, 3.2], atol=1e-12)
    u_grid, val_grid = grid_argmin_l2(np.array([3.0, 4.0]), 1.0)
    assert np.linalg.norm(u_grid - out) < 2 * (6.0 / 200)  # within grid spacing
    assert l2_objective(out, np.array([3.0, 4.0]), 1.0) <= val_grid + 1e-12
    # first-order optimality: u/||u|| + (u - v)/gamma = 0
    resid = out / np.linalg.norm(out) + (out - np.array([3.0, 4.0]))
    assert np.linalg.norm(resid) < 1e-12


def test_prox_l2_zero_input():
    np.testing.assert_array_equal(prox_l2(np.zeros(2), 1.0), np.zeros(2))


def test_prox_l2_collapses_small_input():
    # gamma >= ||v|| sends v to the origin; confirmed by the grid oracle
    out = prox_l2(np.array([1.0, 0.0]), 2.0)
    np.testing.assert_array_equal(out, [0.0, 0.0])
    u_grid, val_grid = grid_argmin_l2(np.array([1.0, 0.0]), 2.0, lo=-0.5, hi=1.5)
    assert np.linalg.norm(u_grid) < 2 * (2.0 / 200)
    assert l2_objective(out, np.array([1.0, 0.0]), 2.0) <= val_grid + 1e-12


NON_POSITIVE_OR_NON_FINITE_GAMMAS = [0.0, -1.0, np.nan, np.inf, -np.inf]


def test_prox_l2_needs_positive_gamma():
    # NaN compares false, so a plain `gamma <= 0` guard would let it through
    for gamma in NON_POSITIVE_OR_NON_FINITE_GAMMAS:
        with pytest.raises(InvalidInputError):
            prox_l2(np.array([3.0, 4.0]), gamma)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=1, max_size=4),
       st.lists(st.floats(-50, 50), min_size=1, max_size=4),
       st.floats(0.01, 10))
def test_prox_l2_firmly_nonexpansive(u, v, gamma):
    n = min(len(u), len(v))
    u, v = np.array(u[:n]), np.array(v[:n])
    pu, pv = prox_l2(u, gamma), prox_l2(v, gamma)
    assert np.linalg.norm(pu - pv) <= np.linalg.norm(u - v) + 1e-12


# ---------------------------------------------------------------------------
# prox_neglogdet


def test_prox_neglogdet_scalar_v2():
    # stationarity of -log x + (x-2)^2/2 gives x^2 - 2x - 1 = 0, x = 1+sqrt(2);
    # the 1-D scan oracle agrees
    out = prox_neglogdet(np.array([[2.0]]), 1.0)
    assert out[0, 0] == pytest.approx(1.0 + np.sqrt(2.0), abs=1e-12)
    x_scan, val_scan = scan_argmin_neglogdet(2.0, 1.0)
    assert abs(x_scan - out[0, 0]) < 2e-4
    assert neglogdet_objective(out[0, 0], 2.0, 1.0) <= val_scan + 1e-12


def test_prox_neglogdet_scalar_v1_gamma2():
    out = prox_neglogdet(np.array([[1.0]]), 2.0)
    assert out[0, 0] == pytest.approx(2.0, abs=1e-12)
    x_scan, val_scan = scan_argmin_neglogdet(1.0, 2.0)
    assert abs(x_scan - 2.0) < 2e-4
    assert neglogdet_objective(out[0, 0], 1.0, 2.0) <= val_scan + 1e-12


def test_prox_neglogdet_identity_limit():
    V = np.array([[2.0, 0.3], [0.3, 1.0]])
    out = prox_neglogdet(V, 1e-12)
    np.testing.assert_allclose(out, V, atol=1e-6)


def test_prox_neglogdet_matrix_case_matches_eigen_scan():
    V = np.array([[2.0, 0.5], [0.5, 3.0]])
    out = prox_neglogdet(V, 1.0)
    np.testing.assert_allclose(out, out.T, atol=1e-14)
    w_in = np.linalg.eigvalsh(V)
    w_out = np.sort(np.linalg.eigvalsh(out))
    for t_in, t_out in zip(np.sort(w_in), w_out):
        x_scan, _ = scan_argmin_neglogdet(t_in, 1.0)
        assert abs(t_out - x_scan) < 2e-4


def test_prox_neglogdet_eigenvalue_floor():
    # every output eigenvalue strictly exceeds sqrt(gamma)
    rng = np.random.default_rng(3)
    for _ in range(20):
        A = rng.standard_normal((3, 3))
        V = A @ A.T + 0.1 * np.eye(3)
        gamma = float(rng.uniform(0.1, 4.0))
        w = np.linalg.eigvalsh(prox_neglogdet(V, gamma))
        assert np.all(w > np.sqrt(gamma))


def test_prox_neglogdet_rejects_bad_input():
    with pytest.raises(InvalidInputError):
        prox_neglogdet(np.array([[1.0, 2.0], [0.0, 1.0]]), 1.0)  # not symmetric
    with pytest.raises(InvalidInputError):
        prox_neglogdet(np.ones((2, 3)), 1.0)  # not square
    for gamma in NON_POSITIVE_OR_NON_FINITE_GAMMAS:
        with pytest.raises(InvalidInputError):
            prox_neglogdet(np.eye(2), gamma)


def test_prox_neglogdet_indefinite_input(tmp_path):
    # the prox is defined on every symmetric V: each eigenvalue t maps to the
    # minimizer of -log x + (x - t)^2 / (2 gamma), which is positive for t <= 0 too
    out = prox_neglogdet(np.diag([-1.0, 2.0]), 1.0)
    np.testing.assert_allclose(out, np.diag([(np.sqrt(5.0) - 1) / 2, 1 + np.sqrt(2.0)]),
                               atol=1e-12)
    Q = np.array([[np.cos(0.4), -np.sin(0.4)], [np.sin(0.4), np.cos(0.4)]])
    for t_in, gamma in (((-1.0, 2.0), 1.0), ((-3.0, 0.0), 0.5), ((-0.2, -4.0), 2.0)):
        V = Q @ np.diag(t_in) @ Q.T
        V = (V + V.T) / 2
        w_out = np.linalg.eigvalsh(prox_neglogdet(V, gamma))
        for t, x in zip(np.sort(np.linalg.eigvalsh(V)), w_out):
            x_scan, _ = scan_argmin_neglogdet(t, gamma)
            assert abs(x - x_scan) < 2e-4
    # algorithm 6 started from an indefinite logdet block runs instead of exiting 101
    assert main(["run", "--algo", "6", "--oracle", "logdet", "--oracle-g", "l2",
                 "--x0=0,0,0,0,0,0,-1,0,2", "--max-iters", "60",
                 "--out", str(tmp_path / "a6.json")]) == 0


def test_subgradient_optimality_random_inputs():
    # both prox maps satisfy their stationarity conditions to 1e-8
    rng = np.random.default_rng(11)
    for _ in range(25):
        v = rng.uniform(-4, 4, size=2)
        gamma = float(rng.uniform(0.2, 3.0))
        p = prox_l2(v, gamma)
        if np.linalg.norm(p) > 1e-12:
            resid = gamma * p / np.linalg.norm(p) + p - v
            assert np.linalg.norm(resid) < 1e-8
        else:
            assert np.linalg.norm(v) <= gamma + 1e-8  # 0 optimal iff ||v|| <= gamma
        t = float(rng.uniform(0.2, 5.0))
        x = prox_neglogdet(np.array([[t]]), gamma)[0, 0]
        assert abs(-gamma / x + x - t) < 1e-8


# ---------------------------------------------------------------------------
# flattening and the Oracle record


def test_sym_flatten_round_trip():
    V = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 5.0], [3.0, 5.0, 6.0]])
    np.testing.assert_array_equal(sym_unflatten(sym_flatten(V), 3), V)
    np.testing.assert_array_equal(sym_flatten(V), [1, 2, 3, 4, 5, 6])


def test_sym_unflatten_matches_triu_reference():
    # reference: fill the upper triangle, then mirror it with np.triu, which
    # also turns every -0.0 into +0.0; the result must agree bit for bit
    rng = np.random.default_rng(5)
    for n in (1, 2, 3, 4):
        v = rng.standard_normal(n * (n + 1) // 2)
        v[rng.random(v.size) < 0.4] = -0.0
        ref = np.zeros((n, n))
        ref[np.triu_indices(n)] = v
        ref = ref + np.triu(ref, 1).T
        out = sym_unflatten(v, n)
        np.testing.assert_array_equal(out.view(np.uint64), ref.view(np.uint64))


@pytest.mark.parametrize("fn, arg", [
    (sym_flatten, np.ones((2, 3))),
    (sym_flatten, np.ones(3)),
    (sym_flatten, np.ones((2, 2, 2))),
    (lambda v: sym_unflatten(v, 1), np.ones((3, 1))[:1]),
    (lambda v: sym_unflatten(v, 2), np.ones((3, 1))),
    (lambda v: sym_unflatten(v, 1), np.float64(1.0)),
], ids=["flatten_2x3", "flatten_1d", "flatten_3d", "unflatten_1x1", "unflatten_3x1",
        "unflatten_scalar"])
def test_sym_flatten_rejects_malformed_input(fn, arg):
    with pytest.raises(InvalidInputError):
        fn(arg)


@pytest.mark.parametrize("call", [
    lambda: prox_neglogdet(np.zeros((0, 0)), 1.0),
    lambda: sym_unflatten([], -1),
    lambda: sym_unflatten([1.0], 1.5),
    lambda: sym_unflatten([1.0], "1"),
], ids=["prox_empty", "unflatten_negative_n", "unflatten_float_n", "unflatten_str_n"])
def test_public_oracle_entries_reject_malformed_input(call):
    with pytest.raises(InvalidInputError):
        call()


@pytest.mark.parametrize("V", [np.full((2, 2), 1e308), np.diag([1e308, -1e308]),
                               np.full((3, 3), 1e200), np.full((3, 3), 1e308)],
                         ids=["sum", "diag", "square", "no_convergence"])
def test_prox_neglogdet_overflow_is_numeric_failure(V, recwarn):
    # finite input whose prox overflows is an error, not a silent NaN matrix;
    # on the last, whose symmetrised entries are inf, eigh does not converge
    with pytest.raises(NumericFailureError):
        prox_neglogdet(V, 1.0)
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_oracle_apply_near_the_float_limit_is_not_a_linalg_error():
    # the block itself is exactly symmetric, so the oracle eigendecomposes it
    # as it is; what LAPACK makes of it fails numerically, as a non-finite
    # block or a NumericFailureError, and never as NumPy's LinAlgError
    oracle = Oracle(OracleKind.PROX_NEGLOGDET, gamma=1.0, domain_dim=3)
    with np.errstate(all="ignore"):
        try:
            out = oracle.apply(sym_flatten(np.full((3, 3), 1e308)))
        except NumericFailureError:
            return
    assert not np.isfinite(out).all()


def bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


@pytest.mark.parametrize("gamma", [0.1, 1.0, 3.7])
def test_oracle_apply_logdet_matches_public_prox(gamma):
    # the lean path inside Oracle.apply is the public prox, bit for bit, also
    # on blocks holding -0.0 entries
    rng = np.random.default_rng(int(gamma * 10))
    for n in (1, 2, 3, 4):
        oracle = Oracle(OracleKind.PROX_NEGLOGDET, gamma=gamma, domain_dim=n)
        for shift in (2.0, 0.0, -2.0):  # definite, indefinite, mostly negative
            A = rng.standard_normal((n, n))
            v = sym_flatten((A + A.T) / 2 + shift * np.eye(n))
            for block in (v, np.where(rng.random(v.size) < 0.4, -0.0, v)):
                expected = sym_flatten(prox_neglogdet(sym_unflatten(block, n), gamma))
                np.testing.assert_array_equal(bits(oracle.apply(block)), bits(expected))


@pytest.mark.parametrize("v", [[3.0, 4.0], [-0.5, 1e-3, 2.0], [[1.0, -2.0], [0.5, 3.0]],
                               [0.0, 0.0], [[0.0, -0.0]], [0.3, -0.4], [1e-170, 1e-170],
                               [1e200, -1e200], [-0.0, 0.5]],
                         ids=["1d", "1d_3", "2d", "zero", "zero_2d", "inside_gamma",
                              "norm_underflows", "norm_overflows", "minus_zero"])
@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.5])
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_oracle_apply_l2_matches_public_prox(v, gamma):
    # the lean path inside Oracle.apply is the public prox, bit for bit: any
    # ndim, the zero vector, and gamma >= ||v||, where the block shrinks to 0
    v = np.array(v)
    oracle = Oracle(OracleKind.PROX_L2, gamma=gamma, domain_dim=v.size)
    out = oracle.apply(v)
    assert out.shape == v.shape
    np.testing.assert_array_equal(bits(out), bits(prox_l2(v, gamma)))
    np.testing.assert_array_equal(bits(out), bits(reference_apply(oracle, v)))


@pytest.mark.parametrize("v", [np.ones(2), np.ones(4), np.ones((1, 3)), np.ones((3, 1)),
                               np.float64(1.0), np.array([np.nan, 1.0])],
                         ids=["short", "long", "row", "column", "scalar", "short_nan"])
def test_oracle_apply_logdet_rejects_blocks_of_the_wrong_shape(v):
    # the same error sym_unflatten raises, before any finiteness test
    with pytest.raises(InvalidInputError) as expected:
        sym_unflatten(v, 2)
    with pytest.raises(InvalidInputError) as got:
        Oracle(OracleKind.PROX_NEGLOGDET, gamma=1.0, domain_dim=2).apply(v)
    assert str(got.value) == str(expected.value)


def reference_apply(oracle, v):
    """Oracle.apply of the proximal kinds as it read before the one
    finiteness test and the cached index tables: the norm by np.linalg.norm,
    and the symmetric matrix filled by index assignment, then mapped
    -0.0 -> +0.0."""
    gamma, n = oracle.gamma, oracle.domain_dim
    if oracle.kind is OracleKind.PROX_L2:
        v = np.asarray(v, dtype=float)
        if not np.all(np.isfinite(v)):
            raise InvalidInputError("input contains non-finite entries")
        n = np.linalg.norm(v)
        if n == 0.0:
            return np.zeros_like(v)
        return max(0.0, 1.0 - gamma / n) * v
    rows, cols = np.triu_indices(n)
    M = np.zeros((n, n))
    M[rows, cols] = v
    M[cols, rows] = v
    M = M + 0.0
    if not np.all(np.isfinite(M)):
        raise InvalidInputError("input contains non-finite entries")
    w, Q = np.linalg.eigh((M + M.T) / 2.0)
    m = (w + np.sqrt(w * w + 4.0 * gamma)) / 2.0
    R = (Q * m) @ Q.T
    return ((R + R.T) / 2.0)[rows, cols]


BELOW_LIMIT = np.nextafter(2.0 ** 1023, 0.0)  # the largest x with x + x finite


@pytest.mark.parametrize("block", [
    [-0.0, 2.0, -0.0], [-0.0, -0.0, -0.0], [0.5, -0.0, -3.0],
    [2.0 ** 1022, -0.0, 1.0], [BELOW_LIMIT, 0.0, -BELOW_LIMIT], [8e307, 8e307, 8e307],
], ids=["minus_zero", "all_minus_zero", "indefinite_minus_zero",
        "near_limit", "below_limit", "sum_overflows"])
@pytest.mark.parametrize("kind", [OracleKind.PROX_NEGLOGDET, OracleKind.PROX_L2])
def test_oracle_apply_edge_blocks_match_the_reference(kind, block):
    # a block the finiteness screen passes, or whose sum overflows and which
    # the exact test then accepts, gives reference_apply's bits; where those
    # are finite, the public prox's too, and where not, the public prox fails
    block = np.array(block)
    oracle = Oracle(kind, gamma=1.0, domain_dim=2 if kind is OracleKind.PROX_NEGLOGDET else 3)
    with np.errstate(all="ignore"):
        out = oracle.apply(block)
        np.testing.assert_array_equal(bits(out), bits(reference_apply(oracle, block)))
        if kind is OracleKind.PROX_L2:
            np.testing.assert_array_equal(bits(out), bits(prox_l2(block, 1.0)))
        elif np.isfinite(out).all():
            expected = sym_flatten(prox_neglogdet(sym_unflatten(block, 2), 1.0))
            np.testing.assert_array_equal(bits(out), bits(expected))
        else:
            with pytest.raises(NumericFailureError):
                prox_neglogdet(sym_unflatten(block, 2), 1.0)


@pytest.mark.parametrize("block", [
    [np.inf, -np.inf, 1.0], [1.0, np.nan, 2.0], [1.0, 2.0, np.inf], [-np.inf, 0.0, 1e308],
    [1.0] * 40 + [np.nan] + [1.0] * 4,
], ids=["inf_pair", "nan", "inf", "minus_inf", "long_nan"])
@pytest.mark.parametrize("kind", [OracleKind.PROX_NEGLOGDET, OracleKind.PROX_L2])
def test_oracle_apply_rejects_non_finite_blocks_as_the_reference(kind, block):
    # the screen's sum is not finite, and the exact test rejects the block
    # with the reference's error
    block = np.array(block)
    n = {3: 2, 45: 9}[block.size] if kind is OracleKind.PROX_NEGLOGDET else block.size
    oracle = Oracle(kind, gamma=1.0, domain_dim=n)
    with pytest.raises(InvalidInputError) as expected:
        reference_apply(oracle, block)
    with pytest.raises(InvalidInputError) as got:
        oracle.apply(block)
    assert str(got.value) == str(expected.value) == "input contains non-finite entries"


def eigh_prox(V, gamma):
    """_prox_neglogdet as it read with np.linalg.eigh, the wrapper around the
    LAPACK gufunc the oracle calls."""
    try:
        w, Q = np.linalg.eigh(V)
    except np.linalg.LinAlgError as exc:
        raise NumericFailureError(f"log-det prox failed: {exc}") from None
    g4 = 4.0 * gamma
    m = np.array([(t + math.sqrt(t * t + g4)) / 2.0 for t in w.tolist()])
    return (Q * m) @ Q.T


def prox_outcome(prox, V, gamma):
    with np.errstate(all="ignore"):
        try:
            return bits(prox(V, gamma)).tobytes()
        except NumericFailureError as exc:
            return str(exc)


def test_the_log_det_eigensolver_gives_eigh_bits():
    # the oracle calls eigh's gufunc under eigh's errstate: the same bits on
    # definite, indefinite, -0.0 and near-limit blocks, and the same failure
    # where eigh does not converge; a NumPy that changes the gufunc fails here
    rng = np.random.default_rng(29)
    blocks = []
    for n in (1, 2, 3, 4):
        for shift in (2.0, 0.0, -2.0):
            A = rng.standard_normal((n, n))
            V = (A + A.T) / 2 + shift * np.eye(n)
            zeros = np.triu(rng.random((n, n)) < 0.4)
            blocks += [V, np.where(zeros | zeros.T, -0.0, V),
                       V / np.abs(V).max() * BELOW_LIMIT]
        blocks += [np.diag(([BELOW_LIMIT, -BELOW_LIMIT] * 2)[:n]), np.full((n, n), -0.0)]
    # what Oracle.apply and the public prox hand it for a block near the limit
    blocks += [np.full((3, 3), 1e308), np.full((3, 3), np.inf)]
    outcomes = []
    for V in blocks:
        assert V.flags.c_contiguous and (V == V.T).all()
        for gamma in (0.3, 1.0):
            got = prox_outcome(_prox_neglogdet, V, gamma)
            assert got == prox_outcome(eigh_prox, V, gamma)
            outcomes.append(got)
    assert "log-det prox failed: Eigenvalues did not converge" in outcomes
    with pytest.raises(NumericFailureError) as info:
        prox_neglogdet(np.full((3, 3), 1e308), 1.0)
    assert str(info.value) == "log-det prox failed: Eigenvalues did not converge"


def run_outcome(imap, x0):
    try:
        traj = iterate(imap, x0, RunConfig(max_iters=60))
    except NumericFailureError as exc:  # a NaN state, or a NaN block the step's next oracle rejects
        return str(exc), bits(exc.partial.states).tobytes()
    return traj.status, bits(traj.states).tobytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("algo", [AlgorithmId.ALGO6, AlgorithmId.ALGO7])
def test_algorithms_6_and_7_run_as_with_the_reference_apply(algo, monkeypatch):
    # every state and status, over SPD, indefinite and -0.0 starts and one
    # whose prox overflows, as uint64 against reference_apply
    rng = np.random.default_rng(14)
    runs = []
    for n in (2, 3):
        for gamma in (1.0, 0.3):
            logdet = Oracle(OracleKind.PROX_NEGLOGDET, gamma=gamma, domain_dim=n)
            l2 = Oracle(OracleKind.PROX_L2, gamma=gamma, domain_dim=logdet.state_dim)
            for pair in ((logdet, l2), (l2, logdet)):
                dim = make_algorithm(algo, *pair).dim
                for shift in (3.0, 0.0, -1.0, 1e300):
                    A = rng.standard_normal((n, n))
                    block = sym_flatten((A + A.T) / 2 + shift * np.eye(n))
                    x0 = np.concatenate([rng.standard_normal(dim - block.size), block])
                    if shift == 0.0:
                        x0[rng.random(dim) < 0.3] = -0.0
                    runs.append((pair, x0))
    got = [run_outcome(make_algorithm(algo, *pair), x0) for pair, x0 in runs]
    monkeypatch.setattr(Oracle, "apply", reference_apply)
    expected = [run_outcome(make_algorithm(algo, *pair), x0) for pair, x0 in runs]
    assert got == expected
    assert {status for status, _ in got} == {"NaN produced mid-run",
                                             "non-finite value produced mid-run",
                                             TrajectoryStatus.BUDGET_EXHAUSTED}


def test_oracle_record():
    ql2 = Oracle(OracleKind.PROX_L2, gamma=0.5, domain_dim=3)
    assert ql2.is_proximal and not ql2.is_gradient
    assert ql2.state_dim == 3
    logdet = Oracle(OracleKind.PROX_NEGLOGDET, gamma=1.0, domain_dim=2)
    assert logdet.state_dim == 3  # upper triangle of a 2x2
    flat = sym_flatten(np.diag([2.0, 3.0]))
    out = sym_unflatten(logdet.apply(flat), 2)
    assert out[0, 0] == pytest.approx(1 + np.sqrt(2.0))
    for kind in (OracleKind.PROX_L2, OracleKind.PROX_NEGLOGDET):
        for gamma in NON_POSITIVE_OR_NON_FINITE_GAMMAS:
            with pytest.raises(ConfigurationError):
                Oracle(kind, gamma=gamma, domain_dim=2)
    # gradient oracles ignore gamma
    assert Oracle(OracleKind.GRAD_QUADRATIC, gamma=np.nan).apply(np.array([1.5])) == 3.0
    grad = Oracle(OracleKind.GRAD_QUADRATIC)
    np.testing.assert_allclose(grad.apply(np.array([2.0])), [4.0])


@pytest.mark.parametrize("kind", [OracleKind.PROX_L2, OracleKind.PROX_NEGLOGDET])
def test_oracle_tag_is_one_per_gamma_value(kind):
    # a NumPy gamma used to tag as gamma=np.float64(1.0)
    tags = {Oracle(kind, gamma=g, domain_dim=2).tag for g in (1.0, np.float64(1.0), 1)}
    assert tags == {f"{kind.value}(gamma=1.0)"}
    algos = {make_algorithm(AlgorithmId.ALGO6, Oracle(kind, gamma=g, domain_dim=2),
                            Oracle(kind, gamma=g, domain_dim=2)).tag
             for g in (0.5, np.float64(0.5))}
    assert len(algos) == 1
