"""Spectral distances, verdicts, and the initial-condition sweep."""
import dataclasses
import itertools

import numpy as np
import pytest
import scipy.optimize
from hypothesis import example, given, settings, strategies as st

from koopeq import (AlgorithmId, Centering, DecompositionSettings, Oracle,
                    OracleKind, RunConfig, Trajectory, TrajectoryStatus,
                    Verdict, classify,
                    conjugacy_map, custom_map, directed_hausdorff, iterate,
                    make_algorithm, sweep, wasserstein_distance)
from koopeq import compare, spectral
from koopeq.compare import CELL_FAILED, CELL_FIXED_POINT, CELL_HAUSDORFF, CELL_OK
from koopeq.errors import (CardinalityMismatchError, DegenerateDataError,
                           InsufficientDataError, InvalidInputError, KoopeqError,
                           NumericFailureError)
from koopeq.spectral import (PAIR_TOL, KoopmanSpectrum, RankPolicy, _canonical_order,
                             _lattice_free, decompose_stack, dmd, edmd,
                             principal_eigenvalues, principal_sets)
from koopeq.trajectory import SnapshotPair, snapshots

QUAD = Oracle(OracleKind.GRAD_QUADRATIC)
NEGCOS = Oracle(OracleKind.GRAD_NEGCOS)


def brute_force_wasserstein(A, B):
    # enumerates every permutation of the shared cost matrix (the assignment
    # step is what is being cross-checked; |a - b| itself is common ground)
    A, B = np.asarray(A, complex), np.asarray(B, complex)
    n = len(A)
    cost = np.abs(A[:, None] - B[None, :])
    return min(cost[np.arange(n), list(p)].sum()
               for p in itertools.permutations(range(n))) / n


def synthetic_spectrum(eigenvalues, method="dmd", dtype=complex):
    lam = np.asarray(eigenvalues, dtype=dtype)
    r = lam.size
    return KoopmanSpectrum(eigenvalues=lam, modes=np.eye(r, dtype=complex),
                           eigfn_coeffs=np.eye(r, dtype=complex), method=method,
                           rank=r, dictionary_tag="identity",
                           reconstruction_error=0.0)


# ---------------------------------------------------------------------------
# distances


def test_wasserstein_identity():
    A = np.array([0.3 + 0.1j, -0.5, 0.9j])
    assert wasserstein_distance(A, A) == 0.0


def test_wasserstein_single_pair():
    assert wasserstein_distance([0.6], [0.5]) == pytest.approx(0.1)


def test_wasserstein_crossing_assignment(monkeypatch):
    # both pairings enumerated: optimum pairs (0, 0.1) and (1, 0.9)
    assert wasserstein_distance([0.0, 1.0], [0.1, 0.9]) == pytest.approx(0.1)
    # classify solves the assignment once, by the 2x2 rule, and reports it as
    # a permutation whose mean pair distance is the Wasserstein distance
    calls = []
    solve = compare._swapped
    monkeypatch.setattr(compare, "_swapped", lambda *cost: calls.append(cost) or solve(*cost))
    cmp = classify(synthetic_spectrum([0.9, -0.85]), synthetic_spectrum([-0.88, 0.86]))
    assert len(calls) == 1
    assert sorted(cmp.matching) == [(0, 1), (1, 0)]
    pa, pb = cmp.principal_a, cmp.principal_b
    mean = sum(abs(pa[i] - pb[j]) for i, j in cmp.matching) / len(cmp.matching)
    assert mean == pytest.approx(cmp.wasserstein, rel=1e-12)
    assert cmp.wasserstein == pytest.approx(0.035)


def _scipy_matching(A, B):
    # optimal_matching with scipy's solver, the independent reference
    A, B = np.asarray(A, complex), np.asarray(B, complex)
    cost = np.abs(A[:, None] - B[None, :])
    rows, cols = scipy.optimize.linear_sum_assignment(cost)
    return float(cost[rows, cols].sum() / A.size), [(int(i), int(j)) for i, j in zip(rows, cols)]


def _assert_same_as_scipy(cost):
    want = scipy.optimize.linear_sum_assignment(cost)[1].tolist()
    assert compare._assignment(cost.tolist()) == want, cost


@pytest.mark.parametrize("n", range(1, 9))
def test_assignment_matches_scipy(n):
    rng = np.random.default_rng(1100 + n)
    for _ in range(300):
        _assert_same_as_scipy(rng.random((n, n)) * 10.0 ** rng.integers(-3, 4))
        _assert_same_as_scipy(rng.integers(0, 3, (n, n)) / 4)  # exact ties
        A = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        B = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        assert compare.optimal_matching(A, B) == _scipy_matching(A, B)
    for _ in range(100):
        # conjugate-pair sets matched against their own permutations, exact
        # and perturbed: the principal sets classify and sweep meet
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        A = np.concatenate([z, z.conj()])[:n]
        for B in (A[rng.permutation(n)], A[rng.permutation(n)] + 1e-9 * rng.standard_normal(n)):
            assert compare.optimal_matching(A, B) == _scipy_matching(A, B)


def test_assignment_two_by_two_closed_form_matches_scipy():
    for vals in itertools.product(range(4), repeat=4):
        cost = np.array(vals, float).reshape(2, 2)
        _assert_same_as_scipy(cost)
        want = scipy.optimize.linear_sum_assignment(cost)[1].tolist()
        assert ([1, 0] if compare._swapped(*vals) else [0, 1]) == want, cost


def test_wasserstein_cardinality_error():
    with pytest.raises(CardinalityMismatchError):
        wasserstein_distance([0.5], [0.5, 0.6])


def test_wasserstein_matches_brute_force_200():
    rng = np.random.default_rng(20240811)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        A = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        B = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        assert wasserstein_distance(A, B) == brute_force_wasserstein(A, B)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.complex_numbers(max_magnitude=2, allow_nan=False,
                                   allow_infinity=False), min_size=5, max_size=5),
       st.lists(st.complex_numbers(max_magnitude=2, allow_nan=False,
                                   allow_infinity=False), min_size=5, max_size=5),
       st.lists(st.complex_numbers(max_magnitude=2, allow_nan=False,
                                   allow_infinity=False), min_size=5, max_size=5))
def test_wasserstein_metric_properties(A, B, C):
    dab = wasserstein_distance(A, B)
    dba = wasserstein_distance(B, A)
    assert dab == pytest.approx(dba, abs=1e-12)  # symmetry
    assert wasserstein_distance(A, A) <= 1e-12  # identity of indiscernibles
    dac = wasserstein_distance(A, C)
    dcb = wasserstein_distance(C, B)
    assert dab <= dac + dcb + 1e-9  # triangle inequality


def test_directed_hausdorff_subset():
    assert directed_hausdorff([0.6], [2.0, 0.6]) == 0.0
    A = [0.1 + 0.2j, -0.3]
    assert directed_hausdorff(A, A) == 0.0
    assert directed_hausdorff([0.7], [0.6, 2.0]) == pytest.approx(0.1)


def test_directed_hausdorff_empty():
    with pytest.raises(InvalidInputError):
        directed_hausdorff([], [0.5])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("A, B", [([1.5e308], [-1.5e308]), ([0.5, 1e308], [-1e308, 0.5j])],
                         ids=["single", "pair"])
def test_directed_hausdorff_overflow_is_numeric_failure(A, B):
    # the distance fails as the scorer fails it, with no RuntimeWarning
    with pytest.raises(NumericFailureError):
        directed_hausdorff(A, B)


# ---------------------------------------------------------------------------
# classify


def spectrum_of(algo_id, oracle, x0, iters, centering=Centering.NONE):
    imap = make_algorithm(algo_id, oracle)
    traj = iterate(imap, x0, RunConfig(max_iters=iters))
    return DecompositionSettings(centering=centering).spectrum(traj)


def test_classify_algo1_algo2_conjugate():
    sa = spectrum_of(AlgorithmId.ALGO1, QUAD, (0.1, 0.1), 60)
    sb = spectrum_of(AlgorithmId.ALGO2, QUAD, (0.1, 0.0), 60)
    cmp = classify(sa, sb)
    assert cmp.verdict is Verdict.CONJUGATE
    assert cmp.wasserstein < 1e-8
    assert len(cmp.matching) == 2


def test_classify_algo4_into_algo3():
    sa = spectrum_of(AlgorithmId.ALGO4, QUAD, (1.0,), 25)
    sb = spectrum_of(AlgorithmId.ALGO3, QUAD, (1.0, 1.0), 25)
    cmp = classify(sa, sb)
    assert cmp.verdict is Verdict.SEMI_CONJUGATE_A_INTO_B
    assert cmp.wasserstein is None  # cardinality mismatch


def test_classify_distinct():
    cmp = classify(synthetic_spectrum([0.5]), synthetic_spectrum([0.9]),
                   eps_conj=1e-6, eps_semi=1e-6)
    assert cmp.verdict is Verdict.DISTINCT


def test_classify_symmetry_up_to_relabel():
    cases = [
        (synthetic_spectrum([0.5 + 0.1j, 0.5 - 0.1j]),
         synthetic_spectrum([0.5 + 0.1j, 0.5 - 0.1j])),
        (synthetic_spectrum([0.6]), synthetic_spectrum([2.0, 0.6])),
        (synthetic_spectrum([0.5]), synthetic_spectrum([0.9])),
    ]
    mirror = {Verdict.SEMI_CONJUGATE_A_INTO_B: Verdict.SEMI_CONJUGATE_B_INTO_A,
              Verdict.SEMI_CONJUGATE_B_INTO_A: Verdict.SEMI_CONJUGATE_A_INTO_B}
    for sa, sb in cases:
        v_ab = classify(sa, sb).verdict
        v_ba = classify(sb, sa).verdict
        assert v_ba == mirror.get(v_ab, v_ab)


def test_classify_drops_unit_constant():
    sa = synthetic_spectrum([1.0, 0.6])
    sb = synthetic_spectrum([0.6])
    assert classify(sa, sb).verdict is Verdict.CONJUGATE
    assert classify(sa, sb, ignore_unit_constant=False).verdict is not Verdict.CONJUGATE


def test_classify_edmd_gets_loose_tolerance():
    sa = synthetic_spectrum([0.6], method="edmd")
    sb = synthetic_spectrum([0.61])
    cmp = classify(sa, sb)
    assert cmp.tolerances_used.eps_conj == pytest.approx(5e-2)
    assert cmp.verdict is Verdict.CONJUGATE
    cmp_tight = classify(synthetic_spectrum([0.6]), synthetic_spectrum([0.61]))
    assert cmp_tight.tolerances_used.eps_conj == pytest.approx(1e-3)
    assert cmp_tight.verdict is Verdict.DISTINCT


def test_settings_edmd_needs_dictionary():
    traj = iterate(make_algorithm(AlgorithmId.ALGO4, QUAD), (1.0,), RunConfig(max_iters=20))
    with pytest.raises(InvalidInputError):
        DecompositionSettings(method="edmd").spectrum(traj)


@pytest.mark.parametrize("kwargs", [
    dict(method="EDMD", dictionary=compare.Dictionary.monomials(1, 2)),
    dict(method="dmd", dictionary=compare.Dictionary.monomials(1, 2)),
    dict(discard=-1), dict(discard=True), dict(discard=2.0)],
    ids=["method_upper_case", "dmd_with_dictionary", "discard_negative", "discard_bool",
         "discard_float"])
def test_settings_are_checked_when_built(kwargs):
    with pytest.raises(InvalidInputError):
        DecompositionSettings(**kwargs)


@pytest.mark.parametrize("max_power", [0, -2, 2.5, True, "3", np.nan, np.inf])
def test_classify_rejects_a_max_power_that_is_not_a_positive_int(max_power):
    sa = synthetic_spectrum([0.6, 0.36])
    with pytest.raises(InvalidInputError, match="max_power must be a positive integer"):
        classify(sa, sa, max_power=max_power)
    with pytest.raises(InvalidInputError, match="max_power must be a positive integer"):
        principal_eigenvalues(sa, max_power=max_power)


def test_classify_takes_a_numpy_integer_max_power():
    # NumPy integers used to be rejected
    sa, sb = synthetic_spectrum([0.6, 0.36, 0.3]), synthetic_spectrum([0.6, 0.3])
    for power in (1, 2, 4):
        np.testing.assert_array_equal(principal_eigenvalues(sa, max_power=np.int64(power)),
                                      principal_eigenvalues(sa, max_power=power))
        assert (classify(sa, sb, max_power=np.int64(power)).verdict
                is classify(sa, sb, max_power=power).verdict)


@pytest.mark.parametrize("lattice_tol", [-1.0, np.nan, np.inf])
def test_principal_sets_reject_a_lattice_tol_that_is_not_finite_and_non_negative(lattice_tol):
    sa = synthetic_spectrum([0.6, 0.36])
    for extract in (lambda: classify(sa, sa, lattice_tol=lattice_tol),
                    lambda: principal_eigenvalues(sa, lattice_tol=lattice_tol)):
        with pytest.raises(InvalidInputError, match="lattice_tol must be finite"):
            extract()


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.5, np.nan), -np.inf * 1j])
def test_classify_rejects_non_finite_eigenvalues(bad):
    # a NaN is no constant mode to drop, and an infinity no eigenvalue to
    # multiply: both fail, with no RuntimeWarning, whichever side holds them
    good = synthetic_spectrum([0.5])
    for lam in ([0.5, bad], [bad, 0.5, 0.25, 0.7j, -0.7j]):
        with pytest.raises(NumericFailureError, match="not finite"):
            classify(synthetic_spectrum(lam), good)
        with pytest.raises(NumericFailureError, match="not finite"):
            classify(good, synthetic_spectrum(lam), ignore_unit_constant=False)
        with pytest.raises(NumericFailureError, match="not finite"):
            principal_eigenvalues(np.array(lam))


def test_classify_degenerate_spectra_distinct():
    sa = synthetic_spectrum([1.0])  # only the constant mode
    sb = synthetic_spectrum([0.5])
    cmp = classify(sa, sb)
    assert cmp.verdict is Verdict.DISTINCT
    assert any("degenerate" in n for n in cmp.notes)


def test_lemma_inclusion_for_embedded_pair():
    # the embedded pair (algo3 -> algo4): the smaller spectrum sits inside the
    # larger one within the semi-conjugacy tolerance, for both oracles
    for oracle, x0a in ((QUAD, (1.0, 1.0)), (NEGCOS, (1.0, 1.0))):
        h = conjugacy_map(AlgorithmId.ALGO3, AlgorithmId.ALGO4).h
        s3 = spectrum_of(AlgorithmId.ALGO3, oracle, x0a, 25)
        s4 = spectrum_of(AlgorithmId.ALGO4, oracle, tuple(h(np.array(x0a))), 25)
        assert directed_hausdorff(s4.eigenvalues, s3.eigenvalues) <= 1e-3


def two_ladder_verdict(pa, pb, eps_conj, eps_semi):
    """The verdict as two ladders, one for equal and one for unequal principal
    cardinalities: the reference that classify's single ladder must match.
    Returns the verdict, the Wasserstein distance and whether the
    cardinality note applies."""
    dab = directed_hausdorff(pa, pb)
    dba = directed_hausdorff(pb, pa)
    if pa.size == pb.size:
        wass = wasserstein_distance(pa, pb)
        if wass <= eps_conj:
            verdict = Verdict.CONJUGATE
        elif dab <= eps_semi:
            verdict = Verdict.SEMI_CONJUGATE_A_INTO_B
        elif dba <= eps_semi:
            verdict = Verdict.SEMI_CONJUGATE_B_INTO_A
        else:
            verdict = Verdict.DISTINCT
        return verdict, wass, False
    smaller_is_a = pa.size < pb.size
    if smaller_is_a and dab <= eps_semi:
        verdict = Verdict.SEMI_CONJUGATE_A_INTO_B
    elif not smaller_is_a and dba <= eps_semi:
        verdict = Verdict.SEMI_CONJUGATE_B_INTO_A
    else:
        verdict = Verdict.DISTINCT
    return verdict, None, True


CARDINALITY_NOTE = "principal cardinalities differ; Wasserstein undefined"


def assert_one_ladder_matches_two(A, B, eps_conj, eps_semi):
    sa, sb = synthetic_spectrum(A), synthetic_spectrum(B)
    cmp = classify(sa, sb, eps_conj=eps_conj, eps_semi=eps_semi, lattice_tol=1e-6)
    verdict, wass, noted = two_ladder_verdict(cmp.principal_a, cmp.principal_b,
                                              eps_conj, eps_semi)
    assert cmp.verdict is verdict
    assert cmp.wasserstein == wass
    assert cmp.notes[1:] == ([CARDINALITY_NOTE] if noted else [])  # after the unit note
    return cmp


@pytest.mark.parametrize("A, B, expected", [
    ([0.5], [0.5], Verdict.CONJUGATE),
    ([0.5, 0.52], [0.5, 0.9], Verdict.SEMI_CONJUGATE_A_INTO_B),
    ([0.5, 0.9], [0.5, 0.52], Verdict.SEMI_CONJUGATE_B_INTO_A),
    ([0.5], [0.5, 0.9], Verdict.SEMI_CONJUGATE_A_INTO_B),
    ([0.5, 0.9], [0.5], Verdict.SEMI_CONJUGATE_B_INTO_A),
    ([0.5, 0.9], [0.3], Verdict.DISTINCT),
    ([0.5], [0.3], Verdict.DISTINCT)])
def test_one_ladder_covers_every_verdict(A, B, expected):
    # both semi-conjugate directions, with equal and with unequal cardinalities
    cmp = assert_one_ladder_matches_two(A, B, eps_conj=1e-3, eps_semi=5e-2)
    assert cmp.verdict is expected


EIGENVALUE = st.builds(lambda r, t: r * np.exp(1j * t),
                       st.floats(0.1, 0.95), st.sampled_from([0.0, 0.4, 1.1, 2.0, np.pi]))


@settings(max_examples=300, deadline=None)
@given(st.lists(EIGENVALUE, min_size=1, max_size=5),
       st.lists(st.tuples(st.sampled_from(["shared", "perturbed", "unrelated"]),
                          st.integers(0, 4), st.sampled_from([1e-4, 1e-2, -3e-2]),
                          EIGENVALUE), min_size=1, max_size=5),
       st.sampled_from(["0", "1e-3", "5e-2", "wass", "dab", "dba"]),
       st.sampled_from(["0", "1e-3", "5e-2", "wass", "dab", "dba"]))
@example(A=[0.5], B=[("shared", 0, 1e-4, 0.9), ("unrelated", 0, 1e-4, 0.7)],
         conj="0", semi="dab")
@example(A=[0.5, 0.7], B=[("perturbed", 0, 1e-2, 0.9), ("unrelated", 0, 1e-4, 0.3)],
         conj="1e-3", semi="dba")
def test_one_ladder_equals_two_ladders(A, B, conj, semi):
    # B draws each eigenvalue from A (exactly or perturbed) or independently;
    # a tolerance is a fixed value or one of the pair's own distances, which
    # puts that distance exactly on its tolerance
    B = [lam if kind == "unrelated" else A[i % len(A)] * (1.0 + d if kind == "perturbed" else 1.0)
         for kind, i, d, lam in B]
    probe = classify(synthetic_spectrum(A), synthetic_spectrum(B), lattice_tol=1e-6)
    pa, pb = probe.principal_a, probe.principal_b
    if pa.size == 0 or pb.size == 0:
        return
    ties = {"wass": probe.wasserstein if probe.wasserstein is not None else 0.0,
            "dab": probe.directed_hausdorff_ab, "dba": probe.directed_hausdorff_ba}
    eps_conj, eps_semi = (ties[e] if e in ties else float(e) for e in (conj, semi))
    assert_one_ladder_matches_two(A, B, eps_conj, eps_semi)


# ---------------------------------------------------------------------------
# sweep


def test_sweep_single_cell_at_conjugate_image():
    map_a = make_algorithm(AlgorithmId.ALGO1, QUAD)
    map_b = make_algorithm(AlgorithmId.ALGO2, QUAD)
    cfg = RunConfig(max_iters=40)
    settings = DecompositionSettings(centering=Centering.NONE)
    res = sweep(map_a, (0.1, 0.1), map_b, (np.array([0.1]), np.array([0.0])),
                cfg=cfg, settings=settings)
    assert res.distances.shape == (1, 1)
    assert res.distances[0, 0] < 1e-12
    assert res.flags[0, 0] == 0
    # the cell is scored by classify's rules
    cmp = classify(res.spectrum_a, settings.spectrum(iterate(map_b, (0.1, 0.0), cfg)))
    assert res.distances[0, 0] == cmp.wasserstein
    assert np.array_equal(res.principal_a, cmp.principal_a)


def test_sweep_fixed_point_cell_flagged():
    map_a = make_algorithm(AlgorithmId.ALGO1, QUAD)
    map_b = make_algorithm(AlgorithmId.ALGO2, QUAD)
    res = sweep(map_a, (0.1, 0.1), map_b, (np.array([0.0]), np.array([0.0])),
                cfg=RunConfig(max_iters=40),
                settings=DecompositionSettings(centering=Centering.NONE))
    assert res.distances[0, 0] == 0.0
    assert res.flags[0, 0] == CELL_FIXED_POINT


def test_sweep_row_major_and_flags():
    map_a = make_algorithm(AlgorithmId.ALGO1, QUAD)
    map_b = make_algorithm(AlgorithmId.ALGO2, QUAD)
    axis = np.array([-1.0, 0.0, 1.0])
    res = sweep(map_a, (0.1, 0.1), map_b, (axis, axis),
                cfg=RunConfig(max_iters=40),
                settings=DecompositionSettings(centering=Centering.NONE))
    assert res.distances.shape == (3, 3)
    assert res.flags[1, 1] == CELL_FIXED_POINT  # the origin cell
    others = np.delete(res.distances.ravel(), 4)
    assert np.all(others < 1e-10)


def test_sweep_empty_grid_rejected():
    map_a = make_algorithm(AlgorithmId.ALGO1, QUAD)
    map_b = make_algorithm(AlgorithmId.ALGO2, QUAD)
    with pytest.raises(InvalidInputError):
        sweep(map_a, (0.1, 0.1), map_b, (np.array([]), np.array([1.0])))


def test_sweep_hausdorff_fallback_flag():
    # compare a 1-dimensional reference against 2-dimensional cells: principal
    # cardinalities differ, so cells fall back to symmetric Hausdorff
    map_a = make_algorithm(AlgorithmId.ALGO4, QUAD)
    map_b = make_algorithm(AlgorithmId.ALGO2, QUAD)
    cfg = RunConfig(max_iters=40)
    settings = DecompositionSettings(centering=Centering.NONE)
    res = sweep(map_a, (1.0,), map_b, (np.array([0.5]), np.array([0.2])),
                cfg=cfg, settings=settings)
    assert res.flags[0, 0] == CELL_HAUSDORFF
    assert res.distances[0, 0] > 0
    cmp = classify(res.spectrum_a, settings.spectrum(iterate(map_b, (0.5, 0.2), cfg)))
    assert cmp.wasserstein is None
    assert res.distances[0, 0] == max(cmp.directed_hausdorff_ab, cmp.directed_hausdorff_ba)


def test_sweep_rejects_reference_without_principal_eigenvalues():
    # a shear has only unit eigenvalues, which classify's rules drop
    shear = np.array([[1.0, 1.0], [0.0, 1.0]])
    imap = custom_map(lambda x: shear @ x, dim=2)
    with pytest.raises(DegenerateDataError):
        sweep(imap, (0.0, 1.0), imap, (np.array([0.5]), np.array([1.0])),
              cfg=RunConfig(max_iters=20),
              settings=DecompositionSettings(centering=Centering.NONE))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_sweep_linalg_failure_is_failed_cell():
    # the cell with x[0] > 0 reaches x[0] > 1 and steps to an infinite state,
    # which np.linalg rejects; that cell fails alone, the other keeps its value
    M = np.diag([2.0, 0.5])
    map_a = custom_map(lambda x: M @ x, dim=2)
    map_b = custom_map(lambda x: np.array([np.inf, 1.0]) if x[0] > 1.0 else M @ x, dim=2)
    res = sweep(map_a, (-0.3, 0.2), map_b, (np.array([-0.3, 0.3]), np.array([0.2])),
                cfg=RunConfig(max_iters=60),
                settings=DecompositionSettings(centering=Centering.NONE))
    assert res.flags[1, 0] == CELL_FAILED
    assert np.isnan(res.distances[1, 0])
    assert res.flags[0, 0] == 0
    assert res.distances[0, 0] < 1e-12


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_sweep_non_finite_data_is_failed_cell():
    # centred on the infinite final state, the data holds inf and NaN: a
    # numeric failure, not a cell that sits on a fixed point
    M = np.diag([2.0, 0.5])
    map_a = custom_map(lambda x: M @ x, dim=2)
    map_b = custom_map(lambda x: np.array([np.inf, 1.0]) if x[0] > 1.0 else M @ x, dim=2)
    res = sweep(map_a, (-0.3, 0.2), map_b, (np.array([0.3, 0.6]), np.array([0.2])),
                cfg=RunConfig(max_iters=60),
                settings=DecompositionSettings(centering=Centering.FIXED_POINT))
    assert list(res.flags[:, 0]) == [CELL_FAILED, CELL_FAILED]
    assert np.all(np.isnan(res.distances))


def test_sweep_rejects_map_b_not_on_the_plane():
    map_a = make_algorithm(AlgorithmId.ALGO1, QUAD)
    map_b = make_algorithm(AlgorithmId.ALGO4, QUAD)
    with pytest.raises(InvalidInputError):
        sweep(map_a, (0.1, 0.1), map_b, (np.array([0.5]), np.array([0.2])),
              cfg=RunConfig(max_iters=40))


def test_sweep_block_rows_match_serial_rows():
    map_a = make_algorithm(AlgorithmId.ALGO1, NEGCOS)
    map_b = make_algorithm(AlgorithmId.ALGO2, NEGCOS)
    assert map_b.columnwise
    axis = np.linspace(-2.0, 2.0, 5)  # the origin cell sits on a fixed point
    cfg = RunConfig(max_iters=200)
    settings = DecompositionSettings(centering=Centering.FIXED_POINT, discard=150)
    block = sweep(map_a, (0.1, 0.1), map_b, (axis, axis), cfg=cfg, settings=settings)
    serial_b = custom_map(map_b.step, 2)
    assert not serial_b.columnwise
    serial = sweep(map_a, (0.1, 0.1), serial_b, (axis, axis), cfg=cfg, settings=settings)
    assert block.flags[2, 2] == CELL_FIXED_POINT
    assert np.array_equal(block.flags, serial.flags)
    assert np.array_equal(block.distances, serial.distances, equal_nan=True)


@pytest.mark.parametrize("row_length", [1, 9])
def test_sweep_steps_a_row_as_one_block(row_length):
    imap = make_algorithm(AlgorithmId.ALGO2, QUAD)
    calls = []

    def step(x):
        calls.append(1)
        return imap.step(x)

    counted = dataclasses.replace(imap, step=step)
    cfg = RunConfig(max_iters=40)
    sweep(counted, (0.1, 0.1), counted,
          (np.array([0.5]), np.linspace(-1.0, 1.0, row_length)), cfg=cfg,
          settings=DecompositionSettings(centering=Centering.NONE))
    assert len(calls) <= 2 * cfg.max_iters


def scored_by_classify(map_a, x0_a, map_b, grid, cfg, settings):
    """Each cell run alone and scored from a full classify(spec_a, spec_b):
    the per-cell rule sweep must reproduce bit for bit."""
    spec_a = settings.spectrum(iterate(map_a, x0_a, cfg))
    distances = np.zeros((len(grid[0]), len(grid[1])))
    flags = np.zeros(distances.shape, dtype=int)
    for (i, a), (j, b) in itertools.product(enumerate(grid[0]), enumerate(grid[1])):
        try:
            spec_b = settings.spectrum(iterate(map_b, (a, b), cfg))
        except (InsufficientDataError, DegenerateDataError):
            distances[i, j], flags[i, j] = 0.0, CELL_FIXED_POINT
            continue
        except KoopeqError:
            distances[i, j], flags[i, j] = np.nan, CELL_FAILED
            continue
        distances[i, j], flags[i, j] = score_by_classify(spec_a, spec_b)
    return distances, flags, classify(spec_a, spec_a).principal_a


def score_by_classify(spec_a, spec_b):
    """A decomposed cell's distance and flag from a full classify(spec_a, spec_b)."""
    cmp = classify(spec_a, spec_b)
    if cmp.principal_b.size == 0:
        return 0.0, CELL_FIXED_POINT
    if cmp.wasserstein is not None:
        return cmp.wasserstein, CELL_OK
    return max(cmp.directed_hausdorff_ab, cmp.directed_hausdorff_ba), CELL_HAUSDORFF


M_GROW = np.diag([2.0, 0.5])
SWEEP_CASES = {
    "quad": (make_algorithm(AlgorithmId.ALGO1, QUAD), (0.1, 0.1),
             make_algorithm(AlgorithmId.ALGO2, QUAD), np.linspace(-2.0, 2.0, 5),
             np.linspace(-2.0, 2.0, 5), RunConfig(max_iters=40),
             DecompositionSettings(centering=Centering.NONE)),
    "negcos": (make_algorithm(AlgorithmId.ALGO1, NEGCOS), (0.1, 0.1),
               make_algorithm(AlgorithmId.ALGO2, NEGCOS), np.linspace(-2.0, 2.0, 7),
               np.linspace(-2.0, 2.0, 7), RunConfig(max_iters=200),
               DecompositionSettings(centering=Centering.FIXED_POINT, discard=150)),
    # a start on an axis gives one eigenvalue (Hausdorff), the origin is a
    # fixed point, and x[0] > 1 steps to an infinite state (failed)
    "custom": (custom_map(lambda x: M_GROW @ x, dim=2), (-0.3, 0.2),
               custom_map(lambda x: np.array([np.inf, 1.0]) if x[0] > 1.0 else M_GROW @ x,
                          dim=2),
               np.array([-0.3, 0.0, 0.3]), np.array([0.0, 0.2]), RunConfig(max_iters=60),
               DecompositionSettings(centering=Centering.NONE)),
    # truncated at 1e-4, EDMD cells keep from two to nine eigenvalues: rows
    # mix cells scored alone and cells scored together
    "edmd": (make_algorithm(AlgorithmId.ALGO1, NEGCOS), (1.0, 0.3),
             make_algorithm(AlgorithmId.ALGO2, NEGCOS), np.linspace(-2.0, 2.0, 5),
             np.linspace(-2.0, 2.0, 5), RunConfig(max_iters=200),
             DecompositionSettings(method="edmd", dictionary=compare.Dictionary.monomials(2, 3),
                                   rank_policy=RankPolicy(rel_tol=1e-4),
                                   centering=Centering.FIXED_POINT, discard=150)),
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("case", sorted(SWEEP_CASES))
def test_sweep_scores_each_cell_as_classify_does(case):
    map_a, x0_a, map_b, axis1, axis2, cfg, settings = SWEEP_CASES[case]
    res = sweep(map_a, x0_a, map_b, (axis1, axis2), cfg=cfg, settings=settings)
    distances, flags, principal_a = scored_by_classify(map_a, x0_a, map_b, (axis1, axis2),
                                                       cfg, settings)
    assert np.array_equal(res.distances.view(np.uint64), distances.view(np.uint64))
    assert np.array_equal(res.flags, flags)
    assert np.array_equal(res.principal_a.view(np.uint64), principal_a.view(np.uint64))
    if case == "custom":
        assert {CELL_OK, CELL_HAUSDORFF, CELL_FIXED_POINT, CELL_FAILED} <= set(flags.ravel())


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("case", sorted(SWEEP_CASES))
def test_sweep_extracts_the_reference_principal_set_once(case, monkeypatch):
    map_a, x0_a, map_b, axis1, axis2, cfg, settings = SWEEP_CASES[case]
    calls = {"classify": 0, "principal": 0, "sets": 0, "spectrum": 0, "cells": 0,
             "many": 0, "groups": 0, "matching": 0, "full": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            calls[name] += 1  # counts only calls that return
            return out
        return wrapper

    spectrum, spectra = DecompositionSettings.spectrum, DecompositionSettings.spectra
    matching = compare.optimal_matching

    def counted_cells(self, trajs, eigenvalues_only=False):
        out = spectra(self, trajs, eigenvalues_only)
        counts = [lam.size if eigenvalues_only else lam.eigenvalues.size
                  for lam in out if not isinstance(lam, KoopeqError)]
        calls["full"] += not eigenvalues_only
        calls["cells"] += len(counts)
        calls["many"] += sum(n > 2 for n in counts)
        calls["groups"] += len(set(counts))
        return out

    def counted_matching(A, B):
        calls["matching"] += 1
        return matching(A, B)

    def counted_reference(self, traj):
        counts = dict(calls)
        out = spectrum(self, traj)
        calls["spectrum"] += 1
        # `spectrum` runs through `spectra`; the reference is no cell
        for name in ("cells", "many", "groups", "full"):
            calls[name] = counts[name]
        return out

    monkeypatch.setattr(compare, "classify", counted("classify", compare.classify))
    monkeypatch.setattr(compare, "principal_eigenvalues",
                        counted("principal", compare.principal_eigenvalues))
    monkeypatch.setattr(compare, "principal_sets", counted("sets", compare.principal_sets))
    monkeypatch.setattr(DecompositionSettings, "spectrum", counted_reference)
    monkeypatch.setattr(DecompositionSettings, "spectra", counted_cells)
    monkeypatch.setattr(compare, "optimal_matching", counted_matching)
    sweep(map_a, x0_a, map_b, (axis1, axis2), cfg=cfg, settings=settings)
    assert calls["classify"] == 0
    assert calls["spectrum"] == 1  # the reference; the cells decompose by rows
    assert calls["full"] == 0  # to their eigenvalues only
    # the reference's principal set once; the cells' sets by one call per
    # row and eigenvalue count, and the scorer in place of optimal_matching
    assert calls["principal"] == 1
    assert calls["sets"] == calls["groups"]
    assert calls["cells"] > 0
    assert calls["matching"] == 0
    if case == "edmd":
        assert 0 < calls["many"] < calls["cells"]
    else:
        assert calls["many"] == 0


def lattice_powers(l0, max_power):
    """l0**2 .. l0**max_power as principal_eigenvalues builds them."""
    p, out = (1 + 0j) * np.complex128(l0), []
    for _ in range(max_power - 1):
        p = p * l0
        out.append(p)
    return out


# (l0, l1): l1 a rounding away from lattice_tol of a power of l0, the power
# formed by complex scalar products; NumPy's array product, which may fuse a
# multiply-add, can land on the other side of lattice_tol
FUSED_EDGE = [
    (0.513965469412426 + 0.4753110860032741j, 0.037912794697193296 + 0.4895319673233889j),
    (0.20015274656746707 + 0.6355420815513209j, -0.23435983962659326 - 0.1793346997803152j),
    (-0.3197339441420393 + 0.597685512634019j, -0.08005384636842544 + 0.19495403656502536j),
    (0.7485248816781143 - 0.45599354023059196j, 0.3287591265758884 - 0.7267248079918234j),
    (-0.2831418459868694 - 0.559680433487277j, 0.20704752239291216 + 0.07506193062871186j),
    (-0.3545190206387627 - 0.3922086597534007j, -0.12359460075790135 + 0.0012612181664030317j),
    (0.5876374201157695 + 0.6287164131052634j, -0.24656510386027256 - 0.34262948366818324j),
    (-0.4555060828230417 - 0.5436607458274487j, 0.11224296752451775 - 0.09633675739704689j),
]
# (l0, l1): |l1 - conj(l0)| a rounding away from PAIR_TOL, where hypot (the
# abs of a complex scalar) and NumPy's array abs fall on opposite sides; l0
# is so small that l1, unpaired, is a lattice product
HYPOT_EDGE = [
    (1.5e-10 + 1.5e-10j, 6.608511042060887e-11 - 9.560982343401893e-11j),
    (1.5e-10 + 1.5e-10j, 5.823762998997277e-11 - 1.1025496949123253e-10j),
]


def few_eigenvalue_rows(lattice_tol, max_power):
    """Rows of one or two eigenvalues at the edges of principal_eigenvalues'
    tests; rows of reals stay real."""
    def ulps(x, k):
        return x + k * np.spacing(x)

    rows = [[0.7], [1.0], [-0.2 + 0.5j], [0.0], [1.0, 1.0], [1.0, 0.5], [0.5, 1.0],
            [1.2, 1.0], [0.3, 1.0], [0.3, 0.3], [0.9375, -0.9375], [-0.9375, -0.875]]
    for k in range(-2, 3):  # either side of lattice_tol from the unit eigenvalue
        rows += [[ulps(1.0 + lattice_tol, k), 0.4], [0.4, ulps(1.0 - lattice_tol, k)],
                 [ulps(1.0 - lattice_tol, k)]]
    # conjugate pairs, and second eigenvalues either side of PAIR_TOL from
    # the partner; the pair decides whether a lattice product of l0 stays
    for z in (0.8 + 0.4j, -0.3 + 0.6j, 0.5 + 2e-10j, 0.9999j,
              0.9999 * np.exp(2j * np.pi / 3), 3e-10 + 2e-10j):
        rows.append([z, z.conjugate()])
        for g in (0.5, 0.999, 1.001, 1.5):
            rows += [[z, z.conjugate() + g * PAIR_TOL], [z, z.conjugate() + 1j * g * PAIR_TOL]]
    rows += [list(edge) for edge in HYPOT_EDGE + FUSED_EDGE]
    # second eigenvalues a few roundings either side of lattice_tol from each
    # power of the first
    for l0 in (0.6, -0.7, 0.55 + 0.3j, -0.4 + 0.5j, 0.35 + 0.1j):
        for p in lattice_powers(l0, max_power):
            for k in range(-3, 4):
                l1 = ulps(p.real + lattice_tol, k)
                rows.append([l0, l1] if isinstance(l0, float) else [l0, complex(l1, p.imag)])
    return rows


def walked(row, lattice_tol, max_power, ignore_unit):
    """The principal set of one row by the walk alone, sorted and rid of the
    unit eigenvalues first."""
    row = np.asarray(row, dtype=complex)
    row = row[_canonical_order(row)]
    if ignore_unit:
        row = row[np.abs(row - 1.0) > lattice_tol]
    return _lattice_free(row, lattice_tol, max_power)


@pytest.mark.parametrize("lattice_tol, max_power", [(1e-3, 4), (5e-2, 6), (1e-3, 1)])
def test_principal_sets_of_few_match_principal_eigenvalues(lattice_tol, max_power):
    # the closed form of rows of one or two against the walk
    for ignore_unit in (True, False):
        sizes = set()
        for k in (1, 2):
            rows = [row for row in few_eigenvalue_rows(lattice_tol, max_power) if len(row) == k]
            P, size = principal_sets(np.array(rows, dtype=complex), lattice_tol, max_power,
                                     ignore_unit)
            for row, p, n in zip(rows, P, size):
                want = walked(row, lattice_tol, max_power, ignore_unit)
                assert n == want.size, row
                assert np.array_equal(p[:n].view(np.uint64), want.view(np.uint64)), row
            sizes |= set(size.tolist())
        assert sizes == ({0, 1, 2} if ignore_unit else {1, 2})


def test_principal_sets_of_two_see_past_nan_powers():
    # l0's square is finite and within lattice_tol of l1, and its fifth and
    # sixth powers are NaN; the closed form (a stack of two rows) and the
    # walk both drop l1
    lattice_tol, max_power = 1e308, 6
    rows = [[5e153 + 5e153j, 1.0], [0.5, 0.25]]
    P, size = principal_sets(np.array(rows, dtype=complex), lattice_tol, max_power, False)
    assert size.tolist() == [1, 1]
    for row, p, n in zip(rows, P, size):
        with np.errstate(all="ignore"):  # as principal_sets walks
            want = walked(row, lattice_tol, max_power, False)
        assert np.array_equal(p[:n].view(np.uint64), want.view(np.uint64)), row


def test_a_lone_row_of_few_takes_the_walk(monkeypatch):
    # a stack of one row of two eigenvalues takes the walk, a stack of two
    # or more such rows the closed form, and a row of one neither
    calls = []
    walk = spectral._lattice_free
    monkeypatch.setattr(spectral, "_lattice_free", lambda *a: calls.append(a) or walk(*a))
    for rows, walks in (([[0.5, 0.25]], 1), ([[0.7]], 0), ([[0.5, 0.25], [0.6, 0.36]], 0)):
        calls.clear()
        P, size = principal_sets(np.array(rows, dtype=complex), 1e-6, 4, False)
        assert len(calls) == walks
        assert size.tolist() == [1] * len(rows)


# cells of more than two eigenvalues, whose principal sets take the walk
MANY_EIGENVALUES = [[0.8, 0.64, 0.3], [0.5 + 0.5j, 0.5 - 0.5j, 0.25, 1.0],
                    [0.9, 0.6 + 0.3j, 0.6 - 0.3j], [0.7, 0.49, 0.343]]
FEW_REFERENCES = {"one": [0.6], "pair": [0.8 + 0.4j, 0.8 - 0.4j],
                  "ties": [-0.9375, -0.9375], "three": [0.9, 0.6 + 0.3j, 0.6 - 0.3j]}


def sweep_of_spectra(monkeypatch, reference, rows, method):
    """`sweep` with the reference's spectrum and the cells' spectra replaced:
    grid row i holds the cells whose eigenvalues are rows[i]."""
    spec_a = synthetic_spectrum(reference, method)
    grid_rows = iter(rows)
    monkeypatch.setattr(DecompositionSettings, "spectrum", lambda self, traj: spec_a)
    # the cells decompose to their eigenvalues only
    monkeypatch.setattr(
        DecompositionSettings, "spectra", lambda self, trajs, eigenvalues_only: [
            synthetic_spectrum(lam, method, dtype=None).eigenvalues for lam in next(grid_rows)])
    imap = custom_map(lambda x: 0.5 * x, dim=2)
    grid = (np.arange(len(rows), dtype=float), np.arange(len(rows[0]), dtype=float))
    return sweep(imap, (1.0, 1.0), imap, grid, cfg=RunConfig(max_iters=2))


@pytest.mark.parametrize("method", ["dmd", "edmd"])
@pytest.mark.parametrize("reference", sorted(FEW_REFERENCES))
def test_sweep_scores_cells_together_as_classify_scores_each(reference, method, monkeypatch):
    lattice_tol, max_power = (1e-3, 4) if method == "dmd" else (5e-2, 6)
    cells = few_eigenvalue_rows(lattice_tol, max_power) + MANY_EIGENVALUES
    cells = [cells[i] for i in np.random.default_rng(19).permutation(len(cells))]
    width = 11
    cells += [[0.5]] * (-len(cells) % width)
    rows = [cells[i:i + width] for i in range(0, len(cells), width)]
    res = sweep_of_spectra(monkeypatch, FEW_REFERENCES[reference], rows, method)
    spec_a = synthetic_spectrum(FEW_REFERENCES[reference], method)
    want = [score_by_classify(spec_a, synthetic_spectrum(lam, method, dtype=None))
            for lam in cells]
    distances = np.array([d for d, _ in want]).reshape(res.distances.shape)
    assert np.array_equal(res.distances.view(np.uint64), distances.view(np.uint64))
    assert res.flags.ravel().tolist() == [flag for _, flag in want]
    assert res.principal_a.size == {"one": 1, "pair": 2, "ties": 2, "three": 3}[reference]


def test_two_by_two_ties_in_the_scored_rows():
    # the "ties" reference meets both tie breaks of the 2x2 closed form
    pa = np.array(FEW_REFERENCES["ties"])
    costs = [np.abs(pa[:, None] - np.array(pb)[None, :]).ravel().tolist()
             for pb in ([0.9375, -0.9375], [-0.9375, -0.875])]
    for (c00, c01, c10, c11), swapped in zip(costs, (True, False)):
        assert c00 + c11 == c01 + c10
        assert compare._swapped(c00, c01, c10, c11) is swapped
    assert compare._swapped(*np.array(costs).T).tolist() == [True, False]


def test_sweep_cells_whose_matching_overflows_are_flagged(monkeypatch):
    # classify raises; a sweep fails the cell, of two eigenvalues, of three
    # (the unit one ignored) or of one (the Hausdorff fallback overflows),
    # and scores the rest
    reference = [-1.5e308, 0.5]
    few, many, one = [1.5e308, 0.25], [1.5e308, 0.25, 1.0], [1.5e308]
    for cell in (few, many, one):
        with pytest.raises(NumericFailureError, match="overflows"):
            classify(synthetic_spectrum(reference), synthetic_spectrum(cell))
    res = sweep_of_spectra(monkeypatch, reference,
                           [[few, [0.5], many, [0.5, 0.3], one]], "dmd")
    assert res.flags.tolist() == [[CELL_FAILED, CELL_HAUSDORFF, CELL_FAILED, CELL_OK,
                                   CELL_FAILED]]
    assert np.isnan(res.distances[0, [0, 2, 4]]).all()
    assert np.isfinite(res.distances[0, [1, 3]]).all()


@pytest.mark.filterwarnings("ignore:only .* snapshot pairs")
def test_settings_spectra_match_spectrum_per_trajectory():
    imap = make_algorithm(AlgorithmId.ALGO2, NEGCOS)
    trajs = [iterate(imap, x0, RunConfig(max_iters=60))
             for x0 in [(0.3, -1.2), (1.1, 0.4), (0.0, 0.0), (-1.5, 0.9)]]
    trajs.insert(2, InsufficientDataError("passed through"))
    trajs.append(iterate(imap, (0.5, 0.5), RunConfig(max_iters=2)))  # too short
    with pytest.raises(InvalidInputError, match="edmd needs a dictionary"):
        DecompositionSettings(method="edmd")
    for settings in (DecompositionSettings(centering=Centering.FIXED_POINT, discard=20),
                     DecompositionSettings(method="edmd", dictionary=compare.Dictionary.monomials(2, 2))):
        got = settings.spectra(trajs)
        assert got[2] is trajs[2]
        for traj, spec in zip(trajs, got):
            if isinstance(traj, KoopeqError):
                continue
            try:
                want = settings.spectrum(traj)
            except KoopeqError as exc:
                assert type(spec) is type(exc) and str(spec) == str(exc)
                continue
            for name in ("eigenvalues", "modes", "eigfn_coeffs"):
                a, b = getattr(spec, name), getattr(want, name)
                assert a.strides == b.strides
                assert np.array_equal(np.ascontiguousarray(a).view(np.uint64),
                                      np.ascontiguousarray(b).view(np.uint64))
            assert spec.reconstruction_error == want.reconstruction_error
            assert spec.centering_tag == want.centering_tag


def reference_snapshots(traj, centering, discard):
    """The reference: one run's snapshot pair built on its own, as `snapshots`
    of `discard_prefix` built it one run at a time."""
    states = traj.states[max(0, min(discard, len(traj) - 3)):]
    if len(states) < 3:
        raise InsufficientDataError(f"need at least 3 states, got {len(states)}")
    if centering is None:
        converged = traj.status is TrajectoryStatus.CONVERGED
        centering = Centering.FIXED_POINT if converged else Centering.NONE
    tag = "identity"
    if centering is Centering.FIXED_POINT:
        states = states - states[-1]
        tag = "identity(centered)"
    return SnapshotPair(X=states[:-1].T.copy(), Y=states[1:].T.copy(), observable_tag=tag)


def assert_same_spectrum(got, want):
    """Spectra, or errors, that agree bit for bit, layout included."""
    assert type(got) is type(want)
    if isinstance(want, KoopeqError):
        assert str(got) == str(want)
        return
    for name in ("eigenvalues", "modes", "eigfn_coeffs"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.strides == b.strides
        assert np.array_equal(np.ascontiguousarray(a).view(np.uint64),
                              np.ascontiguousarray(b).view(np.uint64))
    assert np.float64(got.reconstruction_error).view(np.uint64) == \
        np.float64(want.reconstruction_error).view(np.uint64)
    for name in ("method", "rank", "dictionary_tag", "centering_tag"):
        assert getattr(got, name) == getattr(want, name)


@pytest.mark.filterwarnings("ignore:only .* snapshot pairs")
@pytest.mark.parametrize("centering", [None, Centering.NONE, Centering.FIXED_POINT],
                         ids=["default", "none", "fixed_point"])
@pytest.mark.parametrize("discard", [0, 5, 37, 500])
def test_stacked_spectra_match_each_run_decomposed_alone(centering, discard):
    # runs of mixed lengths and stops: converged and diverged ones of
    # several lengths, budgets of 40 and 60 steps, runs of 2 and 3 states,
    # and an error passed in; discards above len - 3 keep each run's last 3
    quad, negcos = make_algorithm(AlgorithmId.ALGO2, QUAD), make_algorithm(AlgorithmId.ALGO2, NEGCOS)
    trajs = [iterate(imap, x0, cfg) for imap, x0, cfg in [
        (negcos, (0.3, -1.2), RunConfig(max_iters=60)),
        (negcos, (1.1, 0.4), RunConfig(max_iters=60)),
        (negcos, (-1.5, 0.9), RunConfig(max_iters=40)),
        (quad, (0.5, 0.5), RunConfig(max_iters=200, eps=1e-6)),
        (quad, (-0.4, 0.2), RunConfig(max_iters=200, eps=1e-6)),
        (quad, (2.0, 2.0), RunConfig(max_iters=60, overflow_cap=3.0)),
        (negcos, (0.7, 0.1), RunConfig(max_iters=2)),
        (negcos, (0.7, 0.1), RunConfig(max_iters=60, eps=0.5)),
        (negcos, (0.2, 0.6), RunConfig(max_iters=60))]]
    trajs.insert(3, InsufficientDataError("passed through"))
    statuses = {t.status for t in trajs if isinstance(t, Trajectory)}
    assert statuses == set(TrajectoryStatus) and {2, 3} <= {len(t) for t in trajs[4:]}
    for dictionary in (None, compare.Dictionary.monomials(2, 2)):
        settings = DecompositionSettings(method="dmd" if dictionary is None else "edmd",
                                         dictionary=dictionary, centering=centering,
                                         discard=discard, rank_policy=RankPolicy(rel_tol=1e-8))
        got = settings.spectra(trajs)
        assert got[3] is trajs[3]
        for traj, spec in zip(trajs, got):
            if isinstance(traj, KoopeqError):
                continue
            try:
                snap = reference_snapshots(traj, centering, discard)
                if discard == 0:
                    alone = snapshots(traj, centering)
                    for a, b in ((alone.X, snap.X), (alone.Y, snap.Y)):
                        assert a.strides == b.strides
                        assert np.array_equal(a.view(np.uint64), b.view(np.uint64))
                    assert alone.observable_tag == snap.observable_tag
                want = (dmd(snap, settings.rank_policy) if dictionary is None
                        else edmd(snap, dictionary, settings.rank_policy))
            except KoopeqError as exc:
                want = exc
            assert_same_spectrum(spec, want)


SHORT = RunConfig(max_iters=6)  # 6 snapshot pairs against 10 monomials
EDMD3 = DecompositionSettings(method="edmd", dictionary=compare.Dictionary.monomials(2, 3))


def _short_traj():
    return iterate(make_algorithm(AlgorithmId.ALGO2, QUAD), (0.5, -0.3), SHORT)


def _short_stack():
    snap = snapshots(_short_traj())
    return snap.X[None], snap.Y[None]


@pytest.mark.parametrize("entry", [
    lambda: EDMD3.spectrum(_short_traj()),
    lambda: EDMD3.spectra([_short_traj(), _short_traj()]),
    lambda: decompose_stack(*_short_stack(), "identity", EDMD3.dictionary),
    lambda: edmd(snapshots(_short_traj()), EDMD3.dictionary),
    lambda: sweep(make_algorithm(AlgorithmId.ALGO1, QUAD), (0.1, 0.1),
                  make_algorithm(AlgorithmId.ALGO2, QUAD), ([0.5, 1.0], [-0.5, 0.5]),
                  cfg=SHORT, settings=EDMD3)],
    ids=["spectrum", "spectra", "decompose_stack", "edmd", "sweep"])
def test_underdetermined_fit_warning_names_the_callers_line(entry):
    with pytest.warns(UserWarning, match="snapshot pairs") as record:
        entry()
    assert {(w.filename, w.lineno) for w in record} == {(__file__, entry.__code__.co_firstlineno)}
