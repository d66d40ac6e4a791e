"""Decompositions: DMD, EDMD, principal extraction, reconstruction."""
import itertools
import warnings

import numpy as np
import pytest

from koopeq import (AlgorithmId, Centering, Dictionary, Oracle, OracleKind,
                    RankPolicy, RunConfig, SnapshotPair, Trajectory,
                    TrajectoryStatus, custom_map, dmd, edmd, iterate,
                    make_algorithm, multi_snapshots, principal_eigenvalues,
                    reconstruct, snapshots)
from koopeq import spectral
from koopeq.errors import (DegenerateDataError, InvalidInputError,
                           InvalidObservableError, NumericFailureError)

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


def test_principal_empty():
    assert principal_eigenvalues(np.empty(0, complex)).size == 0


def test_principal_builds_lattice_once_per_retained_group(monkeypatch):
    # a lattice-shaped spectrum: four generators (one conjugate pair, so
    # three groups) and every product of two to four of them
    gens = [0.9, 0.5 + 0.4j, 0.5 - 0.4j, -0.6]
    lam = [np.prod(c) for k in range(1, 5)
           for c in itertools.combinations_with_replacement(gens, k)]
    calls = []
    build = spectral._lattice_products

    def counted(retained, max_power):
        calls.append(len(retained))
        return build(retained, max_power)

    monkeypatch.setattr(spectral, "_lattice_products", counted)
    p = principal_eigenvalues(np.array(lam))
    assert len(lam) == 69
    np.testing.assert_allclose(np.sort_complex(p), np.sort_complex(gens), atol=1e-12)
    assert len(calls) <= 3


# ---------------------------------------------------------------------------
# reconstruction


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


def test_reconstruct_validates_input():
    spec = dmd(SnapshotPair(X=np.array([[1.0, 0.5]]), Y=np.array([[0.5, 0.25]])))
    with pytest.raises(InvalidInputError):
        reconstruct(spec, np.array([1.0, 2.0]), 1)
    with pytest.raises(InvalidInputError):
        reconstruct(spec, np.array([1.0]), -1)


def test_multi_trajectory_edmd():
    imap = custom_map(lambda x: 0.6 * x, dim=1)
    trajs = [iterate(imap, a, RunConfig(max_iters=25)) for a in (1.0, -1.0)]
    snap = multi_snapshots(trajs, Centering.NONE)
    spec = edmd(snap, Dictionary.monomials(1, 3))
    got = np.sort_complex(spec.eigenvalues)
    np.testing.assert_allclose(got.real, [0.216, 0.36, 0.6, 1.0], atol=1e-10)
