"""Decompositions: DMD, EDMD, principal extraction, reconstruction from the
triplets. The stack-of-one aliases `dmd`, `edmd`, `snapshots` and
`multi_snapshots` are these tests' subject, so they come from their modules."""
import functools
import itertools
import operator
import warnings

import numpy as np
import pytest

from koopeq import (AlgorithmId, Centering, Dictionary, Oracle, OracleKind,
                    RankPolicy, RunConfig, Trajectory, TrajectoryStatus, custom_map,
                    iterate, make_algorithm, principal_eigenvalues)
from koopeq import spectral
from koopeq.errors import (ConfigurationError, DegenerateDataError, InvalidInputError,
                           InvalidObservableError, NumericFailureError)
from koopeq.spectral import dmd, edmd
from koopeq.trajectory import SnapshotPair, multi_snapshots, snapshots

QUAD = Oracle(OracleKind.GRAD_QUADRATIC)


# ---------------------------------------------------------------------------
# DMD


def test_dmd_scalar_halving():
    spec = dmd(SnapshotPair(X=np.array([[1.0, 0.5, 0.25]]),
                            Y=np.array([[0.5, 0.25, 0.125]])))
    assert spec.eigenvalues.size == 1
    assert abs(spec.eigenvalues[0] - 0.5) < 1e-12
    assert spec.method == "dmd" and spec.rank == 1


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_dmd_non_finite_data_is_numeric_failure(bad):
    X = np.array([[bad, 1.0, 0.5], [0.0, 0.2, 0.1]])
    with pytest.raises(NumericFailureError):
        dmd(SnapshotPair(X=X, Y=0.5 * X))
    with pytest.raises(NumericFailureError):
        dmd(SnapshotPair(X=0.5 * X[:, ::-1], Y=X))


@pytest.mark.parametrize("rank", [0, -1, 2.5, True])
def test_rank_policy_checks_rank_when_built(rank):
    with pytest.raises(InvalidInputError, match="rank"):
        RankPolicy(rank=rank)


def test_dmd_algo1_centered_default_budget():
    imap = make_algorithm(AlgorithmId.ALGO1, QUAD)
    traj = iterate(imap, (0.1, 0.1))  # default 200 iterations
    spec = dmd(snapshots(traj, Centering.FIXED_POINT))
    lam = spec.eigenvalues
    assert abs(lam[0] - (0.8 + 0.4j)) < 1e-8
    assert abs(lam[1] - (0.8 - 0.4j)) < 1e-8


def test_dmd_algo3_growing_and_decaying():
    imap = make_algorithm(AlgorithmId.ALGO3, QUAD)
    traj = iterate(imap, (1.0, 1.0), RunConfig(max_iters=25))
    spec = dmd(snapshots(traj, Centering.NONE))
    lam = np.sort_complex(spec.eigenvalues)
    assert abs(lam[0] - 0.6) < 1e-6
    assert abs(lam[1] - 2.0) < 1e-6


def test_dmd_recovers_random_stable_maps():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 6))
        M = rng.standard_normal((d, d))
        M *= 0.9 / max(abs(np.linalg.eigvals(M)))
        imap = custom_map(lambda x, M=M: M @ x, dim=d)
        traj = iterate(imap, rng.standard_normal(d), RunConfig(max_iters=3 * d + 12))
        spec = dmd(snapshots(traj, Centering.NONE))
        assert spec.eigenvalues.size == d
        err = np.max(np.abs(np.sort_complex(spec.eigenvalues)
                            - np.sort_complex(np.linalg.eigvals(M))))
        worst = max(worst, float(err))
    assert worst < 1e-8, f"worst eigenvalue error {worst}"


def test_dmd_degenerate_data():
    with pytest.raises(DegenerateDataError):
        dmd(SnapshotPair(X=np.zeros((2, 4)), Y=np.zeros((2, 4))))


def test_dmd_rank_cap():
    imap = make_algorithm(AlgorithmId.ALGO1, QUAD)
    snap = snapshots(iterate(imap, (1.0, 1.0), RunConfig(max_iters=30)), Centering.NONE)
    spec = dmd(snap, RankPolicy.fixed(1))
    assert spec.rank == 1
    # requested rank beyond the available one is capped, not an error
    spec5 = dmd(snap, RankPolicy.fixed(5))
    assert spec5.rank == 2


def test_reconstruction_error_small_on_linear_data():
    imap = make_algorithm(AlgorithmId.ALGO2, QUAD)
    snap = snapshots(iterate(imap, (1.0, 0.5), RunConfig(max_iters=40)), Centering.NONE)
    assert dmd(snap).reconstruction_error < 1e-10


def test_conjugate_pairs_within_tolerance():
    imap = make_algorithm(AlgorithmId.ALGO1, QUAD)
    spec = dmd(snapshots(iterate(imap, (0.3, 1.0), RunConfig(max_iters=40)),
                         Centering.NONE))
    lam = spec.eigenvalues
    assert abs(lam[0] - np.conj(lam[1])) < 1e-10


def test_canonical_sorting():
    spec = dmd(SnapshotPair(X=np.array([[1.0, 0.5, 0.25]]),
                            Y=np.array([[0.5, 0.25, 0.125]])))
    lam = spec.eigenvalues
    assert np.all(np.abs(lam[:-1]) >= np.abs(lam[1:]) - 1e-15)


def test_centered_vs_uncentered_differ_by_unit_eigenvalue():
    # affine dynamics toward a nonzero fixed point, one mode excited: the raw
    # fit carries the constant direction as an extra eigenvalue 1
    M = np.diag([0.5, 0.7])
    x_star = np.array([1.0, 2.0])
    imap = custom_map(lambda x: M @ (x - x_star) + x_star, dim=2)
    traj = iterate(imap, x_star + np.array([1.0, 0.0]), RunConfig(max_iters=60))
    lam_raw = dmd(snapshots(traj, Centering.NONE)).eigenvalues
    lam_cen = dmd(snapshots(traj, Centering.FIXED_POINT)).eigenvalues
    assert lam_cen.size == 1 and abs(lam_cen[0] - 0.5) < 1e-8
    assert lam_raw.size == 2
    assert min(abs(lam_raw - 1.0)) < 1e-8
    assert min(abs(lam_raw - 0.5)) < 1e-8


# ---------------------------------------------------------------------------
# EDMD


def test_edmd_log_dictionary_exact_eigenfunction():
    imap = custom_map(lambda x: x ** 0.6, dim=1, tag="pow06")
    traj = iterate(imap, np.e, RunConfig(max_iters=40))
    dct = Dictionary.custom(1, [("log", lambda s: float(np.log(s[0])))])
    spec = edmd(snapshots(traj, Centering.NONE), dct)
    assert abs(spec.eigenvalues[0] - 0.6) < 1e-10
    assert spec.method == "edmd"


def test_edmd_monomials_lattice_on_linear_map():
    imap = custom_map(lambda x: 0.6 * x, dim=1)
    traj = iterate(imap, 1.0, RunConfig(max_iters=30))
    spec = edmd(snapshots(traj, Centering.NONE), Dictionary.monomials(1, 3))
    lam = np.sort_complex(spec.eigenvalues)
    np.testing.assert_allclose(lam.real, [0.216, 0.36, 0.6, 1.0], atol=1e-8)
    np.testing.assert_allclose(lam.imag, 0.0, atol=1e-8)
    # principal extraction collapses the lattice to the generator
    p = principal_eigenvalues(spec, ignore_unit=True)
    assert p.size == 1 and abs(p[0] - 0.6) < 1e-8


def test_edmd_lattice_many_rates():
    rng = np.random.default_rng(42)
    for _ in range(10):
        rate = float(rng.uniform(0.1, 0.95))
        imap = custom_map(lambda x, r=rate: r * x, dim=1)
        traj = iterate(imap, 1.0, RunConfig(max_iters=30))
        spec = edmd(snapshots(traj, Centering.NONE), Dictionary.monomials(1, 3))
        target = np.sort([1.0, rate, rate ** 2, rate ** 3])
        got = np.sort_complex(spec.eigenvalues)
        np.testing.assert_allclose(got.real, target, atol=1e-8)


def test_edmd_constant_dictionary_degenerate():
    imap = custom_map(lambda x: 0.5 * x, dim=1)
    traj = iterate(imap, 1.0, RunConfig(max_iters=20))
    dct = Dictionary.custom(1, [("one", lambda s: 1.0)])
    with pytest.raises(DegenerateDataError):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            edmd(snapshots(traj, Centering.NONE), dct)


def test_edmd_invalid_observable():
    states = np.array([[1.0], [-0.5], [0.25], [-0.125]])
    traj = Trajectory(states, TrajectoryStatus.BUDGET_EXHAUSTED)
    dct = Dictionary.custom(1, [("log", lambda s: float(np.log(s[0])))])
    with pytest.raises(InvalidObservableError):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            edmd(snapshots(traj, Centering.NONE), dct)


def test_edmd_warns_on_short_data():
    imap = custom_map(lambda x: 0.5 * x, dim=1)
    traj = iterate(imap, 1.0, RunConfig(max_iters=3))
    with pytest.warns(UserWarning):
        edmd(snapshots(traj, Centering.NONE), Dictionary.monomials(1, 5))


def test_monomial_dictionary_shape():
    d = Dictionary.monomials(2, 3)
    assert d.output_dim == 10  # C(2+3, 2)
    vals = d.lift(np.array([[2.0], [3.0]]))
    assert vals.shape == (10, 1)
    assert vals[0, 0] == 1.0  # constant first
    assert set(np.round(vals[:, 0], 9)) >= {1.0, 2.0, 3.0, 4.0, 6.0, 9.0, 8.0, 27.0}
    ident = Dictionary.identity(3)
    assert ident.output_dim == 3
    assert ident.tag == "identity"


MAX_DEGREE, DIM = "max_degree must be a positive integer", "dim must be a positive integer"


@pytest.mark.parametrize("build, message", [
    (lambda: Dictionary.monomials(2, 2.5), MAX_DEGREE),
    (lambda: Dictionary.monomials(2, True), MAX_DEGREE),
    (lambda: Dictionary.monomials(2, 0), MAX_DEGREE),
    (lambda: Dictionary.monomials(2, None), MAX_DEGREE),
    (lambda: Dictionary.monomials(0, 2), DIM),
    (lambda: Dictionary.monomials(2.0, 2), DIM),
    (lambda: Dictionary.identity(0), DIM),
    (lambda: Dictionary.identity(True), DIM),
    (lambda: Dictionary.custom(0, [("one", lambda s: 1.0)]), DIM),
    (lambda: Dictionary.monomials(2, "3"), MAX_DEGREE),
    (lambda: Dictionary.monomials(2, np.nan), MAX_DEGREE),
    (lambda: Dictionary.monomials(np.inf, 2), DIM),
    (lambda: Dictionary.identity("3"), DIM),
    (lambda: Dictionary.custom(1, []), "custom dictionary needs at least one function")],
    ids=["degree_2.5", "degree_True", "degree_0", "degree_None", "dim_0", "dim_2.0",
         "identity_0", "identity_True", "custom_0", "degree_str", "degree_nan", "dim_inf",
         "identity_str", "custom_empty"])
def test_dictionary_checks_its_sizes_when_built(build, message):
    # a fractional degree used to build, then raise TypeError in lift; True
    # gave the tag degree=True; dim 0 built an empty lift
    with pytest.raises(ConfigurationError, match=message):
        build()


@pytest.mark.parametrize("scale", [1e200, 1e-170])
def test_dmd_error_of_data_far_from_one(scale):
    # the data's squares overflow (1e200) or underflow (1e-170): the error
    # used to read NaN, with an overflow warning, or 0.0
    k = np.arange(40)
    S = scale * np.array([0.9 ** k, 2 * 0.5 ** k])
    spec = dmd(SnapshotPair(X=S[:, :-1], Y=S[:, 1:]))
    np.testing.assert_allclose(spec.eigenvalues, [0.9, 0.5], rtol=1e-12)
    assert 0.0 < spec.reconstruction_error < 1e-12


def test_dictionary_takes_numpy_integer_sizes():
    # NumPy integers used to be rejected
    X = np.array([[1.0, 0.5, 0.25], [0.2, 0.1, 0.05]])
    dct = Dictionary.monomials(np.int64(2), np.int64(3))
    assert dct.tag == Dictionary.monomials(2, 3).tag
    np.testing.assert_array_equal(dct.lift(X), Dictionary.monomials(2, 3).lift(X))
    np.testing.assert_array_equal(Dictionary.identity(np.int32(2)).lift(X), X)


def test_decomposition_rejects_a_malformed_snapshot_pair():
    # X and Y of two shapes used to raise a raw matmul ValueError, a 1-D X
    # IndexError, and list data AttributeError
    X = np.array([[1.0, 0.5, 0.25], [0.2, 0.1, 0.05]])
    dct = Dictionary.monomials(2, 1)
    for snap in (SnapshotPair(X=X, Y=X[:, :2]), SnapshotPair(X=X[0], Y=X[0] / 2)):
        with pytest.raises(InvalidInputError, match="2-D and of one shape"):
            dmd(snap)
        with pytest.raises(InvalidInputError, match="2-D and of one shape"):
            edmd(snap, dct)
    lists = SnapshotPair(X=X.tolist(), Y=(0.5 * X).tolist())
    assert_same_spectrum(dmd(lists), dmd(SnapshotPair(X=X, Y=0.5 * X)))
    assert_same_spectrum(edmd(lists, dct), edmd(SnapshotPair(X=X, Y=0.5 * X), dct))
    # integer data decomposes as its float copy does, bit for bit
    A = np.array([[2, 1], [0, 3]])
    S = np.array([[1, 2]]).T
    for _ in range(4):
        S = np.hstack([S, A @ S[:, -1:]])
    ints = SnapshotPair(X=S[:, :-1], Y=S[:, 1:])
    floats = SnapshotPair(X=ints.X.astype(float), Y=ints.Y.astype(float))
    assert_same_spectrum(dmd(ints), dmd(floats))
    assert_same_spectrum(edmd(ints, dct), edmd(floats, dct))


def _per_monomial_lift(states, dim, degree):
    # the lift as one np.prod over states.T ** e per exponent vector e
    return np.array([np.prod(states.T ** np.array(tuple(e)), axis=1)
                     for e in spectral._monomial_exponents(dim, degree)])


@pytest.mark.parametrize("dim", range(1, 7))
def test_monomial_lift_bit_identical_to_per_monomial_form(dim):
    rng = np.random.default_rng(dim)
    for degree, m, order in itertools.product(range(1, 7), (1, 2, 17, 400), "CF"):
        states = np.asarray(rng.standard_normal((dim, m))
                            * rng.choice([1e-3, 1.0, 7.0, 1e20], size=(dim, m)), order=order)
        want = _per_monomial_lift(states, dim, degree)
        got = Dictionary.monomials(dim, degree).lift(states)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (degree, m, order)


def test_monomial_lift_keeps_the_scalar_square_at_dim_1():
    # at dim 1 the per-monomial form squares by x*x, and NumPy's vector pow
    # can be 1 ulp off it (on 36 of these 2,000 values with numpy 2.4 on an
    # AVX-512 x86-64 CPU), so a power table whose exponent array has another
    # shape, such as np.arange(degree + 1), does not reproduce it
    x = np.random.default_rng(1).standard_normal((1, 2000)) * 3.0
    for degree in range(1, 7):
        want = _per_monomial_lift(x, 1, degree)
        got = Dictionary.monomials(1, degree).lift(x)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), degree


def _pow_table_lift(states, dim, degree):
    # the lift with every row of its power table, e = 0 and 1 included, from pow
    powers = np.array([states.T ** np.full(dim, e) for e in range(degree + 1)])
    exps = spectral._monomial_exponents(dim, degree)
    out = powers[exps[:, 0], :, 0]
    for i in range(1, dim):
        out *= powers[exps[:, i], :, i]
    return out


@pytest.mark.parametrize("dim", range(1, 9))
def test_monomial_lift_power_rows_0_and_1_bit_identical_to_pow(dim):
    # the e = 0 row is ones and the e = 1 row the states, with no pow: the
    # same bits as x ** 0 and x ** 1 on signed zeros, subnormals, the largest
    # float and magnitudes from 1e-300 to 1e300
    rng = np.random.default_rng(dim)
    edge = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
    for _ in range(200):
        states = (rng.standard_normal((dim, 7))
                  * 10.0 ** rng.integers(-300, 301, size=(dim, 7)))
        states.flat[rng.integers(0, states.size, 3)] = rng.choice(edge, 3)
        want = _pow_table_lift(states, dim, 1)
        got = Dictionary.monomials(dim, 1).lift(states)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    small = np.resize(edge[:4], (dim, 5))  # signed zeros and subnormals mixed
    for degree in (2, 3):
        want = _pow_table_lift(small, dim, degree)
        got = Dictionary.monomials(dim, degree).lift(small)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), degree


def test_monomial_exponents_read_only():
    exps = spectral._monomial_exponents(3, 2)
    assert exps.shape == (10, 3) and not exps.flags.writeable
    with pytest.raises(ValueError):
        exps[0, 0] = 1
    want = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [2, 0, 0],
            [1, 1, 0], [1, 0, 1], [0, 2, 0], [0, 1, 1], [0, 0, 2]]
    assert exps.tolist() == want
    assert spectral._monomial_exponents(3, 2) is exps  # enumerated once


def test_decompositions_take_one_svd(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    def no_pinv(*args, **kwargs):
        raise AssertionError("the EDMD state recovery reuses the SVD of PX")

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(np.linalg, "pinv", no_pinv)
    imap = custom_map(lambda x: np.array([0.8 * x[0], 0.5 * x[1] + 0.1 * x[0] ** 2]), dim=2)
    snap = snapshots(iterate(imap, (1.0, 0.5), RunConfig(max_iters=60)), Centering.NONE)
    for degree in (1, 2, 3):
        calls.clear()
        edmd(snap, Dictionary.monomials(2, degree))
        assert len(calls) == 1, degree
    calls.clear()
    dmd(snap)
    assert len(calls) == 1


@pytest.mark.parametrize("shape,rank", [((28, 192), None), ((10, 5), None), ((5, 10), None),
                                        ((28, 192), 9), ((12, 40), 1), ((40, 12), 7)])
def test_pinv_from_shared_factors_matches_numpy(shape, rank):
    rng = np.random.default_rng(sum(shape) + (rank or 0))
    for _ in range(20):
        if rank is None:
            A = rng.standard_normal(shape)
        else:
            A = rng.standard_normal((shape[0], rank)) @ rng.standard_normal((rank, shape[1]))
        got = spectral._pinv(*np.linalg.svd(A, full_matrices=False))
        want = np.linalg.pinv(A, rcond=1e-12)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


# ---------------------------------------------------------------------------
# principal eigenvalues


def test_principal_collapses_powers():
    p = principal_eigenvalues(np.array([0.6, 0.36, 0.216]))
    np.testing.assert_allclose(p, [0.6])


def test_principal_singleton():
    np.testing.assert_allclose(principal_eigenvalues(np.array([0.5])), [0.5])


def test_principal_conjugate_pairs_together():
    z = 0.8 + 0.4j
    spectrum = np.array([z, np.conj(z), z * z, np.conj(z * z)])
    p = principal_eigenvalues(spectrum)
    assert p.size == 2
    assert {np.round(v, 12) for v in p} == {np.round(z, 12), np.round(np.conj(z), 12)}


def test_principal_cross_products_of_pairs():
    # the product of a conjugate pair is real and must be pruned too
    z = 0.8 + 0.4j
    spectrum = np.array([z, np.conj(z), abs(z) ** 2])
    p = principal_eigenvalues(spectrum)
    assert p.size == 2


def test_principal_ignore_unit():
    p = principal_eigenvalues(np.array([1.0, 0.6, 0.36]), ignore_unit=True)
    np.testing.assert_allclose(p, [0.6])


def test_principal_nan_products_hide_no_finite_product():
    # the pair's products of three and more are NaN (its square's real part
    # is inf - inf); 0.25 = 0.5**2 is pruned all the same, as without the pair
    pair = [1e200 + 1e200j, 1e200 - 1e200j]
    assert principal_eigenvalues(pair + [0.5, 0.25], 1e-6, 4).tolist() == pair + [0.5]
    assert principal_eigenvalues([0.5, 0.25], 1e-6, 4).tolist() == [0.5]


def test_principal_empty():
    assert principal_eigenvalues(np.empty(0, complex)).size == 0


def test_principal_lattice_shaped_spectrum():
    # four generators (one conjugate pair) and every product of two to four
    gens = [0.9, 0.5 + 0.4j, 0.5 - 0.4j, -0.6]
    lam = [np.prod(c) for k in range(1, 5)
           for c in itertools.combinations_with_replacement(gens, k)]
    p = principal_eigenvalues(np.array(lam))
    assert len(lam) == 69
    np.testing.assert_allclose(np.sort_complex(p), np.sort_complex(gens), atol=1e-12)


def _reference_principal(lam, lattice_tol, max_power, ignore_unit):
    """The same walk, with every lattice product of the retained set
    enumerated afresh, each multiplied left to right, whenever it grows."""
    lam = np.asarray(lam, dtype=complex)
    lam = lam[np.lexsort((-lam.imag, -lam.real, -np.abs(lam)))]
    if ignore_unit:
        lam = lam[np.abs(lam - 1.0) > lattice_tol]
    retained, keep, decided, products = [], [], set(), np.empty(0)
    for i in range(lam.size):
        if i in decided:
            continue
        group = [i]
        if abs(lam[i].imag) > spectral.PAIR_TOL:
            group += [j for j in range(i + 1, lam.size) if j not in decided
                      and abs(lam[j] - np.conj(lam[i])) <= spectral.PAIR_TOL][:1]
        decided.update(group)
        if np.any(np.abs(products - lam[i]) <= lattice_tol):
            continue
        retained += [lam[j] for j in group]
        keep += group
        products = np.array([functools.reduce(operator.mul, combo, 1.0 + 0.0j)
                             for total in range(2, max_power + 1)
                             for combo in itertools.combinations_with_replacement(
                                 retained, total)])
    return lam[sorted(keep)]


def _random_lattice_spectrum(rng):
    """Products of one to four generators up to degree three, perturbed,
    plus up to two free eigenvalues (or pairs) and sometimes the unit one."""
    def draw():
        z = rng.uniform(0.1, 1.0) * np.exp(1j * rng.choice([0.0, np.pi, rng.uniform(0.1, 3.0)]))
        return [z.real + 0j] if abs(z.imag) < 1e-9 else [z, np.conj(z)]
    gens, count = [], rng.integers(1, 4)
    while len(gens) < count:
        gens += draw()
    lam = [np.prod(c) for k in range(1, rng.integers(2, 4) + 1)
           for c in itertools.combinations_with_replacement(gens, k)]
    lam = np.array(lam) * (1 + rng.normal(0.0, 10.0 ** rng.uniform(-9, -2.5), len(lam)))
    for _ in range(rng.integers(0, 3)):
        lam = np.append(lam, draw())
    return np.append(lam, 1.0) if rng.random() < 0.3 else lam


# the rule sets callers use: koopeq run and spectrum JSON, classify on DMD,
# classify with EDMD
@pytest.mark.parametrize("lattice_tol, max_power, ignore_unit",
                         [(1e-6, 4, False), (1e-3, 4, True), (0.05, 6, True)])
def test_principal_matches_brute_force_lattice(lattice_tol, max_power, ignore_unit):
    rng = np.random.default_rng(20221)
    pruned = several = 0
    for _ in range(100):
        lam = _random_lattice_spectrum(rng)
        p = principal_eigenvalues(lam, lattice_tol=lattice_tol, max_power=max_power,
                                  ignore_unit=ignore_unit)
        ref = _reference_principal(lam, lattice_tol, max_power, ignore_unit)
        assert np.array_equal(p, ref), lam
        pruned += p.size < lam.size
        several += p.size > 1
    assert pruned > 40 and several > 40  # some drop eigenvalues, some keep several


# test_compare's sweep cells of more than two eigenvalues
MANY_EIGENVALUES = [[0.8, 0.64, 0.3], [0.5 + 0.5j, 0.5 - 0.5j, 0.25, 1.0],
                    [0.9, 0.6 + 0.3j, 0.6 - 0.3j], [0.7, 0.49, 0.343]]


@pytest.mark.parametrize("lattice_tol, max_power, ignore_unit",
                         [(1e-6, 4, False), (1e-3, 4, True), (0.05, 6, True)])
def test_principal_sets_of_longer_rows_match_principal_eigenvalues(lattice_tol, max_power,
                                                                   ignore_unit):
    # stacks of rows of three to six eigenvalues, one stack per length, bit
    # for bit as each row alone
    rng = np.random.default_rng(20222)
    rows = list(MANY_EIGENVALUES)
    while len(rows) < 100:
        lam = _random_lattice_spectrum(rng)
        if 3 <= lam.size <= 6:
            rows.append(lam)
    stacks = {}
    for row in rows:
        stacks.setdefault(len(row), []).append(row)
    assert sorted(stacks) == [3, 4, 5, 6]
    pruned = 0
    for same in stacks.values():
        P, size = spectral.principal_sets(np.array(same, dtype=complex), lattice_tol,
                                          max_power, ignore_unit)
        for row, p, n in zip(same, P, size):
            want = principal_eigenvalues(np.asarray(row), lattice_tol=lattice_tol,
                                         max_power=max_power, ignore_unit=ignore_unit)
            assert n == want.size, row
            assert np.array_equal(p[:n].view(np.uint64), want.view(np.uint64)), row
            pruned += n < len(row)
    assert pruned > 20


def test_principal_keeps_thirty_independent_eigenvalues():
    # 15 conjugate pairs, none a product of the others, all kept at max power 6
    z = np.linspace(0.9, 0.99, 15) * np.exp(1j * np.linspace(0.2, 2.9, 15))
    lam = np.concatenate([z, np.conj(z)])
    p = principal_eigenvalues(lam, max_power=6)
    assert p.size == 30
    np.testing.assert_array_equal(np.sort_complex(p), np.sort_complex(lam))


# ---------------------------------------------------------------------------
# reconstruction from the triplets


def reconstruct(spec, x0, k):
    """The state k steps from x0 by the triplets: sum_r lambda_r**k *
    (coeffs_r . x0) * mode_r."""
    return (spec.modes * spec.eigenvalues ** k) @ (spec.eigfn_coeffs @ x0)


def test_reconstruct_scalar_halving():
    spec = dmd(SnapshotPair(X=np.array([[1.0, 0.5, 0.25]]),
                            Y=np.array([[0.5, 0.25, 0.125]])))
    out = reconstruct(spec, np.array([1.0]), 3)
    assert abs(out[0] - 0.125) < 1e-12


def test_reconstruct_k0_is_identity():
    imap = make_algorithm(AlgorithmId.ALGO2, QUAD)
    snap = snapshots(iterate(imap, (0.7, -0.2), RunConfig(max_iters=40)), Centering.NONE)
    spec = dmd(snap)
    x0 = snap.X[:, 0]
    out = reconstruct(spec, x0, 0)
    assert np.linalg.norm(out - x0) <= max(1e-12, spec.reconstruction_error)


def test_reconstruct_algo4_five_steps():
    imap = make_algorithm(AlgorithmId.ALGO4, QUAD)
    spec = dmd(snapshots(iterate(imap, 1.0, RunConfig(max_iters=30)), Centering.NONE))
    out = reconstruct(spec, np.array([1.0]), 5)
    assert abs(out[0] - 0.6 ** 5) < 1e-8


def test_multi_trajectory_edmd():
    imap = custom_map(lambda x: 0.6 * x, dim=1)
    trajs = [iterate(imap, a, RunConfig(max_iters=25)) for a in (1.0, -1.0)]
    snap = multi_snapshots(trajs, Centering.NONE)
    spec = edmd(snap, Dictionary.monomials(1, 3))
    got = np.sort_complex(spec.eigenvalues)
    np.testing.assert_allclose(got.real, [0.216, 0.36, 0.6, 1.0], atol=1e-10)


# ---------------------------------------------------------------------------
# stacked decomposition


def assert_same_spectrum(got, want):
    for name in ("eigenvalues", "modes", "eigfn_coeffs"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.strides == b.strides, name  # the same layout for later BLAS calls
        assert np.array_equal(np.ascontiguousarray(a).view(np.uint64),
                              np.ascontiguousarray(b).view(np.uint64)), name
    assert (np.float64(got.reconstruction_error).view(np.uint64)
            == np.float64(want.reconstruction_error).view(np.uint64))
    for name in ("method", "rank", "dictionary_tag", "centering_tag"):
        assert getattr(got, name) == getattr(want, name), name


def single_cell_core(PX, PY, Xstate, Ystate, policy, method):
    """The decomposition core as it ran one cell at a time before stacks,
    kept as the bit-for-bit reference."""
    if not (np.all(np.isfinite(PX)) and np.all(np.isfinite(PY))):
        raise NumericFailureError(f"{method} failed: the data holds non-finite values")
    try:
        U_full, s_full, Vh_full = np.linalg.svd(PX, full_matrices=False)
        if s_full[0] <= 0.0:
            raise DegenerateDataError("all singular values vanish; no dynamics in the data")
        r = int(np.sum(s_full > policy.rel_tol * s_full[0]))
        if r == 0:
            raise DegenerateDataError("every singular value falls below the threshold")
        r = r if policy.rank is None else min(policy.rank, r)
        U, s, Vh = U_full[:, :r], s_full[:r], Vh_full[:r]
        lam, W = np.linalg.eig(U.conj().T @ PY @ Vh.conj().T / s)
        if method == "dmd":
            B = np.eye(Xstate.shape[0])
        else:
            B = Xstate @ np.linalg.pinv(PX, rcond=1e-12)
        modes = B @ (U @ W)
        coeffs = np.linalg.solve(W, U.conj().T)
    except np.linalg.LinAlgError as exc:
        raise NumericFailureError(f"{method} failed: {exc}") from exc
    order = np.lexsort((-lam.imag, -lam.real, -np.abs(lam)))
    lam, modes, coeffs = lam[order], modes[:, order], coeffs[order]
    Yhat = (modes * lam) @ (coeffs @ PX)
    ynorm = scaled_norm(Ystate)
    err = float(scaled_norm(Yhat - Ystate) / ynorm) if ynorm > 0 else 0.0
    return lam, modes, coeffs, err


def scaled_norm(a):
    """np.linalg.norm(a), or, where its sum of squares overflows or falls
    below the smallest normal float, the norm of a scaled by its largest
    modulus."""
    with np.errstate(all="ignore"):
        norm, top = np.linalg.norm(a), np.abs(a).max(initial=0.0)
        if (norm == np.inf or norm < np.sqrt(np.finfo(float).tiny)) and 0 < top < np.inf:
            return top * np.linalg.norm(a / top)
    return norm


def reference(snaps, dictionary=None, policy=RankPolicy()):
    """Per pair, what the single-cell core returns or raises."""
    out = []
    for snap in snaps:
        try:
            if snap.X.size == 0:
                raise DegenerateDataError("empty snapshot pair")
            PX, PY = ((snap.X, snap.Y) if dictionary is None
                      else (dictionary.lift(snap.X), dictionary.lift(snap.Y)))
            method = "dmd" if dictionary is None else "edmd"
            lam, modes, coeffs, err = single_cell_core(PX, PY, snap.X, snap.Y, policy, method)
            out.append(spectral.KoopmanSpectrum(
                lam, modes, coeffs, method, lam.size,
                "identity" if dictionary is None else dictionary.tag, err, snap.observable_tag))
        except (DegenerateDataError, NumericFailureError, InvalidObservableError) as exc:
            out.append(exc)
    return out


def looped(decompose, snaps):
    """One single-cell call per pair, keeping what it raises."""
    out = []
    for snap in snaps:
        try:
            out.append(decompose(snap))
        except (DegenerateDataError, NumericFailureError, InvalidObservableError) as exc:
            out.append(exc)
    return out


def assert_same_cells(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert type(a) is type(b)
        if isinstance(b, Exception):
            assert str(a) == str(b)
        else:
            assert_same_spectrum(a, b)


def _linear_pair(A, x0, m, tag="identity"):
    states = [np.asarray(x0, dtype=float)]
    for _ in range(m):
        states.append(A @ states[-1])
    S = np.array(states).T
    return SnapshotPair(X=S[:, :-1].copy(), Y=S[:, 1:].copy(), observable_tag=tag)


def _rotation(rho, theta):
    return rho * np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])


def _mixed_cells(m=20, tag="identity"):
    """Equal-shaped cells, all in the observable `tag`, that hit every trap
    of a stacked decomposition."""
    rng = np.random.default_rng(7)
    P = np.array([[1.0, 0.4], [-0.3, 1.0]])
    real_map = P @ np.diag([0.9, 0.5]) @ np.linalg.inv(P)
    cells = {
        "real": _linear_pair(real_map, (1.0, -0.7), m, tag),
        "complex": _linear_pair(_rotation(0.8, 0.4), (0.3, 1.1), m, tag),
        "real_2": _linear_pair(np.diag([0.95, -0.6]), rng.uniform(-1, 1, 2), m, tag),
        # a start on an eigenvector: one singular value survives, rank 1
        "rank_1": _linear_pair(np.diag([0.7, 0.3]), (1.0, 0.0), m, tag),
        "complex_2": _linear_pair(_rotation(0.95, 2.0), rng.uniform(-1, 1, 2), m, tag),
    }
    bad = _linear_pair(real_map, (0.5, 0.5), m, tag)
    bad.X[1, 7] = np.nan
    cells["non_finite"] = bad
    cells["vanishing"] = SnapshotPair(X=np.zeros((2, m)), Y=np.zeros((2, m)), observable_tag=tag)
    # X selects the first two columns of Y, so the reduced operator is the
    # Jordan block [[1, 1e308], [0, 1]], whose eigenvector matrix eig
    # returns exactly singular
    X, Y = np.zeros((2, m)), np.zeros((2, m))
    X[:, :2] = np.eye(2)
    Y[:, :2] = [[1.0, 1e308], [0.0, 1.0]]
    cells["singular_eigenvectors"] = SnapshotPair(X=X, Y=Y, observable_tag=tag)
    return cells


def stacked(snaps, dictionary=None, policy=RankPolicy(), eigenvalues_only=False):
    """`decompose_stack` of equal-shaped pairs in one observable."""
    tag, = {snap.observable_tag for snap in snaps}
    return spectral.decompose_stack(np.stack([snap.X for snap in snaps]),
                                    np.stack([snap.Y for snap in snaps]), tag, dictionary, policy,
                                    eigenvalues_only)


def test_stacked_dmd_matches_single_cells_bit_for_bit():
    cells = _mixed_cells(tag="identity(centered)")
    snaps = list(cells.values())
    got = stacked(snaps)
    assert_same_cells(got, reference(snaps))
    assert_same_cells(looped(dmd, snaps), reference(snaps))
    by_name = dict(zip(cells, got))
    assert by_name["real"].eigenvalues.dtype == float
    assert by_name["complex"].eigenvalues.dtype == complex
    assert by_name["rank_1"].rank == 1 and by_name["real"].rank == 2
    assert isinstance(by_name["non_finite"], NumericFailureError)
    assert isinstance(by_name["vanishing"], DegenerateDataError)
    assert isinstance(by_name["singular_eigenvectors"], NumericFailureError)
    assert "Singular matrix" in str(by_name["singular_eigenvectors"])


@pytest.mark.parametrize("trap", ["non_finite", "vanishing", "singular_eigenvectors"])
def test_a_failing_cell_leaves_its_neighbours_alone(trap):
    cells = _mixed_cells()
    clean = [cells[name] for name in ("real", "complex", "rank_1", "complex_2")]
    alone = stacked(clean)
    mixed = stacked(clean[:2] + [cells[trap]] + clean[2:])
    assert isinstance(mixed[2], (NumericFailureError, DegenerateDataError))
    assert_same_cells(mixed[:2] + mixed[3:], alone)


@pytest.mark.filterwarnings("ignore:only .* snapshot pairs")
@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the 1e308 cell overflows
@pytest.mark.parametrize("degree", [1, 2, 3])
def test_stacked_edmd_matches_single_cells_bit_for_bit(degree):
    dct = Dictionary.monomials(2, degree)
    cells = _mixed_cells(m=30)
    # on the axis x[1] = 0 every monomial in x[1] vanishes: a lower rank
    cells["on_axis"] = _linear_pair(np.diag([0.8, 0.4]), (0.9, 0.0), 30)
    # the pseudo-inverse cut-off is 1e-12 of each cell's own largest
    # singular value: a large cell beside a small one must not move it
    cells["large"] = _linear_pair(np.diag([0.9, 0.7]), (1e3, -2e3), 30)
    cells["small"] = _linear_pair(_rotation(0.97, 0.3), (1e-4, 2e-4), 30)
    snaps = list(cells.values())
    got = stacked(snaps, dct)
    assert_same_cells(got, reference(snaps, dct))
    assert_same_cells(looped(lambda s: edmd(s, dct), snaps), reference(snaps, dct))
    ranks = {spec.rank for spec in got if not isinstance(spec, Exception)}
    assert len(ranks) > 1
    kinds = {spec.eigenvalues.dtype for spec in got if not isinstance(spec, Exception)}
    assert kinds == {np.dtype(float), np.dtype(complex)}


@pytest.mark.filterwarnings("ignore:only .* snapshot pairs")
@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the 1e308 cell overflows
@pytest.mark.parametrize("degree", [None, 1, 3])
@pytest.mark.parametrize("policy", [RankPolicy(), RankPolicy.fixed(1)], ids=["auto", "rank_1"])
def test_eigenvalues_only_gives_each_cells_eigenvalues_or_its_error(degree, policy, monkeypatch):
    dct = None if degree is None else Dictionary.monomials(2, degree)
    cells = _mixed_cells(m=30)
    cells["on_axis"] = _linear_pair(np.diag([0.8, 0.4]), (0.9, 0.0), 30)
    snaps = list(cells.values())
    full = stacked(snaps, dct, policy)
    # the modes, and EDMD's recovery of the state that they take, are never formed
    monkeypatch.setattr(spectral, "_pinv", None)
    got = stacked(snaps, dct, policy, eigenvalues_only=True)
    assert len(got) == len(full)
    for name, spec, lam in zip(cells, full, got):
        if isinstance(spec, Exception):
            assert type(lam) is type(spec) and str(lam) == str(spec), name
        else:
            assert lam.dtype == spec.eigenvalues.dtype, name
            assert lam.tobytes() == spec.eigenvalues.tobytes(), name
    if degree is None and policy.rank is None:  # the solve still tells a failed cell
        assert isinstance(dict(zip(cells, got))["singular_eigenvectors"], NumericFailureError)


def test_stacked_cells_of_other_shapes_and_settings():
    # one stack per shape: runs of several lengths grouped into stacks are
    # tests/test_compare.py::test_stacked_spectra_match_each_run_decomposed_alone
    cells = _mixed_cells()
    empty = SnapshotPair(X=np.zeros((2, 0)), Y=np.zeros((2, 0)))
    stacks = [[cells["real"], cells["complex"]],
              [_linear_pair(np.diag([0.9, 0.2]), (1.0, 1.0), 12)], [empty, empty],
              [_linear_pair(np.diag([0.9, 0.2, -0.4]), (1.0, 1.0, 0.5), 20)]]
    for policy in (RankPolicy(), RankPolicy.fixed(1), RankPolicy(rel_tol=0.5)):
        for snaps in stacks:
            assert_same_cells(stacked(snaps, policy=policy), reference(snaps, policy=policy))


def test_one_stack_takes_one_svd_eig_and_solve(monkeypatch):
    calls = {"svd": 0, "eig": 0, "solve": 0}
    for name in calls:
        def counting(*args, _fn=getattr(np.linalg, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counting)
    cells = _mixed_cells()
    # one rank and eigenvalue type: one call each; a second type adds eig's
    # split, not a second eig
    stacked([cells["complex"], cells["complex_2"]] * 3)
    assert calls == {"svd": 1, "eig": 1, "solve": 1}
    stacked([cells["complex"], cells["real"], cells["complex_2"], cells["real_2"],
             cells["rank_1"]])
    assert calls == {"svd": 2, "eig": 3, "solve": 4}


def test_stacked_norms_sum_as_single_norms():
    # np.linalg.norm over an axis sums in another order than the dot that a
    # single norm takes, and on generic data the two part in the last bit
    rng = np.random.default_rng(11)
    snaps = [SnapshotPair(X=rng.standard_normal((3, 100)), Y=rng.standard_normal((3, 100)))
             for _ in range(8)]
    assert_same_cells(stacked(snaps), reference(snaps))
    dct = Dictionary.monomials(3, 2)
    assert_same_cells(stacked(snaps, dct), reference(snaps, dct))
