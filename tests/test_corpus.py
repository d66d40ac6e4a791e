"""Benchmark algorithm corpus: single-step values, conjugacy maps, and the
commutation identity h(T(x)) == S(h(x))."""
import numpy as np
import pytest

from koopeq import (AlgorithmId, ConjugacyKind, Oracle, OracleKind,
                    conjugacy_map, make_algorithm, verify_commutation)
from koopeq.errors import ConfigurationError, InvalidInputError, UnsupportedPairError

QUAD = Oracle(OracleKind.GRAD_QUADRATIC)
NEGCOS = Oracle(OracleKind.GRAD_NEGCOS)
L2 = Oracle(OracleKind.PROX_L2, gamma=1.0, domain_dim=1)
LOGDET = Oracle(OracleKind.PROX_NEGLOGDET, gamma=1.0, domain_dim=2)
L2_MAT = Oracle(OracleKind.PROX_L2, gamma=1.0, domain_dim=3)


def algo(n, oracle_f=QUAD, oracle_g=None):
    return make_algorithm(AlgorithmId(n), oracle_f, oracle_g)


# ---------------------------------------------------------------------------
# single steps


def test_algo4_one_step():
    # xi - (1/5) * 2 xi = 0.6 xi
    out = algo(4).step(np.array([1.0]))
    np.testing.assert_allclose(out, [0.6], atol=1e-15)


def test_algo1_one_step():
    # reduced linear update x1' = 1.6 x1 - 0.8 x2, x2' = x1
    out = algo(1).step(np.array([1.0, 1.0]))
    np.testing.assert_allclose(out, [0.8, 1.0], atol=1e-15)


def test_algo5_one_step():
    # x * exp(-0.4 log x) = x ** 0.6
    out = algo(5).step(np.array([np.e]))
    np.testing.assert_allclose(out, [np.exp(0.6)], rtol=1e-15)


def test_dimensions():
    assert algo(1).dim == algo(2).dim == algo(3).dim == 2
    assert algo(4).dim == algo(5).dim == 1
    assert algo(6, L2, L2).dim == 3
    assert algo(7, L2, L2).dim == 2
    assert algo(6, LOGDET, L2_MAT).dim == 9
    assert algo(7, LOGDET, L2_MAT).dim == 6


def test_incompatible_oracles_rejected():
    with pytest.raises(ConfigurationError):
        algo(1, L2)
    with pytest.raises(ConfigurationError):
        algo(6, QUAD, QUAD)
    with pytest.raises(ConfigurationError):
        algo(6, L2)  # missing second oracle
    with pytest.raises(ConfigurationError):
        algo(4, QUAD, QUAD)  # extra oracle


# ---------------------------------------------------------------------------
# conjugacy maps


def test_map_12_example():
    h = conjugacy_map(AlgorithmId.ALGO1, AlgorithmId.ALGO2)
    assert h.kind is ConjugacyKind.LINEAR_INVERTIBLE
    np.testing.assert_allclose(h.h(np.array([0.1, 0.1])), [0.1, 0.0], atol=1e-16)


def test_map_34_example():
    h = conjugacy_map(AlgorithmId.ALGO3, AlgorithmId.ALGO4)
    assert h.kind is ConjugacyKind.LINEAR_EMBEDDED
    assert h.h_inverse is None
    np.testing.assert_allclose(h.h(np.array([1.0, 1.0])), [1.0])


def test_map_45_example():
    h = conjugacy_map(AlgorithmId.ALGO4, AlgorithmId.ALGO5)
    assert h.kind is ConjugacyKind.NONLINEAR_INVERTIBLE
    assert h.h(0.0) == 1.0


def test_inverse_round_trip():
    rng = np.random.default_rng(5)
    h12 = conjugacy_map(AlgorithmId.ALGO1, AlgorithmId.ALGO2)
    for _ in range(50):
        x = rng.uniform(-3, 3, 2)
        np.testing.assert_allclose(h12.h_inverse(h12.h(x)), x, atol=1e-12)
    h45 = conjugacy_map(AlgorithmId.ALGO4, AlgorithmId.ALGO5)
    for _ in range(50):
        x = rng.uniform(-2, 2, 1)
        np.testing.assert_allclose(h45.h_inverse(h45.h(x)), x, atol=1e-12)


def test_unsupported_pair():
    with pytest.raises(UnsupportedPairError):
        conjugacy_map(AlgorithmId.ALGO1, AlgorithmId.ALGO3)
    with pytest.raises(UnsupportedPairError):
        conjugacy_map(AlgorithmId.ALGO4, AlgorithmId.ALGO3)  # embedding not invertible


# ---------------------------------------------------------------------------
# commutation h o T = S o h


def test_commutation_12_quad():
    rng = np.random.default_rng(1)
    samples = rng.uniform(-1, 1, size=(100, 2))
    rep = verify_commutation(conjugacy_map(AlgorithmId.ALGO1, AlgorithmId.ALGO2),
                             algo(1), algo(2), samples, tol=1e-12)
    assert rep.passed and rep.max_deviation < 1e-12


def test_commutation_45_quad():
    rep = verify_commutation(conjugacy_map(AlgorithmId.ALGO4, AlgorithmId.ALGO5),
                             algo(4), algo(5), [[0.5], [1.0], [2.0]], tol=1e-12)
    assert rep.passed and rep.max_deviation < 1e-12


def test_commutation_all_pairs_1000_samples():
    rng = np.random.default_rng(2)
    cases = [
        (AlgorithmId.ALGO1, AlgorithmId.ALGO2, QUAD, rng.uniform(-1, 1, (1000, 2))),
        (AlgorithmId.ALGO1, AlgorithmId.ALGO2, NEGCOS, rng.uniform(-1, 1, (1000, 2))),
        (AlgorithmId.ALGO3, AlgorithmId.ALGO4, QUAD, rng.uniform(-1, 1, (1000, 2))),
        (AlgorithmId.ALGO3, AlgorithmId.ALGO4, NEGCOS, rng.uniform(-1, 1, (1000, 2))),
        (AlgorithmId.ALGO4, AlgorithmId.ALGO5, QUAD, rng.uniform(-2, 2, (1000, 1))),
        (AlgorithmId.ALGO4, AlgorithmId.ALGO5, NEGCOS, rng.uniform(-2, 2, (1000, 1))),
    ]
    for src, tgt, oracle, samples in cases:
        rep = verify_commutation(conjugacy_map(src, tgt),
                                 make_algorithm(src, oracle),
                                 make_algorithm(tgt, oracle), samples, tol=1e-10)
        assert rep.passed, f"{src} -> {tgt} with {oracle.kind}: {rep.max_deviation}"


def test_shift_identity_l2_horizon_20():
    T, S = algo(6, L2, L2), algo(7, L2, L2)
    cmap = conjugacy_map(AlgorithmId.ALGO6, AlgorithmId.ALGO7)
    rep = verify_commutation(cmap, T, S, [np.array([0.0, 0.0, 2.0])],
                             tol=0.0, horizon=20)
    assert rep.kind is ConjugacyKind.SHIFT
    assert rep.max_deviation == 0.0  # iterate identity is exact


def test_shift_identity_logdet():
    from koopeq import sym_flatten
    T, S = algo(6, LOGDET, L2_MAT), algo(7, LOGDET, L2_MAT)
    cmap = conjugacy_map(AlgorithmId.ALGO6, AlgorithmId.ALGO7)
    x0 = np.concatenate([np.zeros(6), sym_flatten(np.diag([2.0, 3.0]))])
    rep = verify_commutation(cmap, T, S, [x0], tol=0.0, horizon=20)
    assert rep.max_deviation == 0.0


@pytest.mark.parametrize("src, tgt, T, S", [
    (AlgorithmId.ALGO1, AlgorithmId.ALGO2, algo(1), algo(2)),
    (AlgorithmId.ALGO6, AlgorithmId.ALGO7, algo(6, L2, L2), algo(7, L2, L2)),
], ids=["linear", "shift"])
@pytest.mark.parametrize("samples", [[], np.empty((0, 2)), iter(())],
                         ids=["list", "array", "iterator"])
def test_commutation_without_samples_is_rejected(src, tgt, T, S, samples):
    # passed=True on no evidence would read as a verified conjugacy
    with pytest.raises(InvalidInputError, match="at least one sample"):
        verify_commutation(conjugacy_map(src, tgt), T, S, samples)


def test_commutation_dimension_mismatch():
    cmap = conjugacy_map(AlgorithmId.ALGO3, AlgorithmId.ALGO4)
    with pytest.raises(ConfigurationError):
        verify_commutation(cmap, algo(3), algo(2), [np.array([1.0, 1.0])])


# ---------------------------------------------------------------------------
# structural invariants


def _one_step_matrix(imap):
    """Probe the opaque linear step on basis vectors."""
    z = imap.step(np.zeros(imap.dim))
    cols = [imap.step(e) - z for e in np.eye(imap.dim)]
    return np.column_stack(cols)


def test_characteristic_polynomial_12():
    M1 = _one_step_matrix(algo(1))
    M2 = _one_step_matrix(algo(2))
    for M in (M1, M2):
        assert abs(np.trace(M) - 1.6) < 1e-14
        assert abs(np.linalg.det(M) - 0.8) < 1e-14


def test_fixed_points_map_to_fixed_points():
    # origin is fixed for algorithms 1-4 under both gradient oracles; the
    # conjugate image must be fixed for the partner
    for src, tgt in [(AlgorithmId.ALGO1, AlgorithmId.ALGO2),
                     (AlgorithmId.ALGO3, AlgorithmId.ALGO4),
                     (AlgorithmId.ALGO4, AlgorithmId.ALGO5)]:
        for oracle in (QUAD, NEGCOS):
            T = make_algorithm(src, oracle)
            S = make_algorithm(tgt, oracle)
            x_star = np.zeros(T.dim)
            np.testing.assert_allclose(T.step(x_star), x_star, atol=1e-15)
            h = conjugacy_map(src, tgt).h
            y = np.atleast_1d(h(x_star))
            np.testing.assert_allclose(S.step(y), y, atol=1e-15)
