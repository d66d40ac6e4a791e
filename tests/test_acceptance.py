"""Acceptance suite: the ten exit criteria, each at its stated tolerance and
runtime budget. One pass line is printed per criterion (run with -s to see
them live)."""
import itertools
import time

import numpy as np
import pytest
from scipy import ndimage

from koopeq import (AlgorithmId, Centering, DecompositionSettings, Dictionary,
                    Oracle, OracleKind, RankPolicy, RunConfig, Verdict,
                    classify, conjugacy_map, custom_map, iterate,
                    make_algorithm, principal_eigenvalues, sweep,
                    sym_flatten, verify_commutation, wasserstein_distance)
from koopeq.experiments import FIG2_DEFAULTS, FIG2_X0_A, largest_component, run_all

QUAD = Oracle(OracleKind.GRAD_QUADRATIC)
NEGCOS = Oracle(OracleKind.GRAD_NEGCOS)
L2 = Oracle(OracleKind.PROX_L2, gamma=1.0, domain_dim=1)
LOGDET = Oracle(OracleKind.PROX_NEGLOGDET, gamma=1.0, domain_dim=2)
L2_MAT = Oracle(OracleKind.PROX_L2, gamma=1.0, domain_dim=3)


def spectrum(algo_id, oracle, x0, iters, centering=Centering.NONE, **kw):
    imap = make_algorithm(algo_id, oracle) if not isinstance(oracle, tuple) else \
        make_algorithm(algo_id, *oracle)
    traj = iterate(imap, x0, RunConfig(max_iters=iters))
    return DecompositionSettings(centering=centering, **kw).spectrum(traj)


def report(n, label, t0, budget):
    elapsed = time.perf_counter() - t0
    assert elapsed < budget, f"criterion {n} took {elapsed:.2f}s (budget {budget}s)"
    print(f"ACCEPTANCE {n} ({label}): PASS in {elapsed:.2f}s")


def test_criterion_1_conjugacy_linear_case():
    t0 = time.perf_counter()
    s1 = spectrum(AlgorithmId.ALGO1, QUAD, (0.1, 0.1), 60)
    s2 = spectrum(AlgorithmId.ALGO2, QUAD, (0.1, 0.0), 60)
    for s in (s1, s2):
        assert min(abs(s.eigenvalues - (0.8 + 0.4j))) < 1e-6
        assert min(abs(s.eigenvalues - (0.8 - 0.4j))) < 1e-6
    cmp = classify(s1, s2)
    assert cmp.verdict is Verdict.CONJUGATE
    assert cmp.wasserstein < 1e-8
    report(1, "conjugacy, linear case", t0, 1.0)


def _run_fig2_sweep(oracle_name, resolution):
    cfg = FIG2_DEFAULTS[oracle_name]["cfg"]
    settings = FIG2_DEFAULTS[oracle_name]["settings"]
    kind = OracleKind.GRAD_QUADRATIC if oracle_name == "quad" else OracleKind.GRAD_NEGCOS
    map_a = make_algorithm(AlgorithmId.ALGO1, Oracle(kind))
    map_b = make_algorithm(AlgorithmId.ALGO2, Oracle(kind))
    axis = np.linspace(-2.0, 2.0, resolution)
    return sweep(map_a, FIG2_X0_A, map_b, (axis, axis), cfg=cfg, settings=settings)


def test_criterion_2_sweep_global_conjugacy():
    t0 = time.perf_counter()
    res = _run_fig2_sweep("quad", 21)
    assert res.distances.shape == (21, 21)
    assert np.all(np.isfinite(res.distances))
    assert np.all(res.distances < 1e-10)
    report(2, "sweep, global conjugacy", t0, 30.0)


def test_criterion_3_sweep_local_conjugacy():
    t0 = time.perf_counter()
    res = _run_fig2_sweep("negcos", 41)
    F = res.distances
    assert np.all(np.isfinite(F))
    fmax, fmin = F.max(), F.min()
    ratio = np.inf if fmin == 0 else fmax / fmin
    assert ratio > 100
    med = np.median(F)
    high = F > 10 * med
    assert high.sum() >= 0.05 * F.size
    labels, n_comp = ndimage.label(high)
    biggest = max(np.sum(labels == k) for k in range(1, n_comp + 1))
    assert biggest >= 0.05 * F.size  # the high region is one contiguous blob
    assert largest_component(high) == biggest  # fig2's summary agrees
    report(3, "sweep, local conjugacy", t0, 120.0)


def test_criterion_4_semi_conjugacy():
    t0 = time.perf_counter()
    s3 = spectrum(AlgorithmId.ALGO3, QUAD, (1.0, 1.0), 25)
    s4 = spectrum(AlgorithmId.ALGO4, QUAD, (1.0,), 25)
    assert min(abs(s3.eigenvalues - 2.0)) < 1e-6
    assert min(abs(s3.eigenvalues - 0.6)) < 1e-6
    assert s4.eigenvalues.size == 1 and abs(s4.eigenvalues[0] - 0.6) < 1e-6
    cmp = classify(s4, s3)
    assert cmp.verdict is Verdict.SEMI_CONJUGATE_A_INTO_B
    assert all(abs(z) < 1 for z in cmp.principal_a)
    assert any(abs(z) > 1 for z in cmp.principal_b)
    report(4, "semi-conjugacy", t0, 1.0)


def test_criterion_5_nonlinear_conjugacy():
    t0 = time.perf_counter()
    s4 = spectrum(AlgorithmId.ALGO4, QUAD, (1.0,), 60)
    dmd_value = s4.eigenvalues[np.argmax(np.abs(s4.eigenvalues))].real
    imap5 = make_algorithm(AlgorithmId.ALGO5, QUAD)
    traj5 = iterate(imap5, (np.e,), RunConfig(max_iters=60))
    s5 = DecompositionSettings(method="edmd", dictionary=Dictionary.monomials(1, 5),
                               centering=Centering.NONE).spectrum(traj5)
    nonunit = s5.eigenvalues[np.abs(s5.eigenvalues - 1.0) > 5e-2]
    dominant = nonunit[np.argmax(np.abs(nonunit))]
    assert abs(dominant - dmd_value) < 5e-3
    cmp = classify(s4, s5)
    assert cmp.tolerances_used.eps_conj == pytest.approx(5e-2)
    assert cmp.verdict is Verdict.CONJUGATE
    report(5, "nonlinear conjugacy via EDMD", t0, 5.0)


def test_criterion_6_shift_equivalence():
    t0 = time.perf_counter()
    cmap = conjugacy_map(AlgorithmId.ALGO6, AlgorithmId.ALGO7)
    for label, of, og, x0, discard in (
            ("l2", L2, L2, np.array([0.0, 0.0, 2.0]), (1, 0)),
            ("logdet", LOGDET, L2_MAT,
             np.concatenate([np.zeros(6), sym_flatten(np.diag([2.0, 3.0]))]), (20, 20))):
        T = make_algorithm(AlgorithmId.ALGO6, of, og)
        S = make_algorithm(AlgorithmId.ALGO7, of, og)
        # iterate identity over 20 steps, exact to the last bit
        rep = verify_commutation(cmap, T, S, [x0], tol=0.0, horizon=20)
        assert rep.max_deviation == 0.0, f"{label}: shift identity not bitwise"
        # post-shift spectra classify as conjugate
        cfg = RunConfig(max_iters=60)
        traj6 = iterate(T, x0, cfg)
        traj7 = iterate(S, cmap.h(x0, T.step(x0)), cfg)
        policy = RankPolicy.fixed(2)
        s6 = DecompositionSettings(rank_policy=policy, centering=Centering.FIXED_POINT,
                                   discard=discard[0]).spectrum(traj6)
        s7 = DecompositionSettings(rank_policy=policy, centering=Centering.FIXED_POINT,
                                   discard=discard[1]).spectrum(traj7)
        cmp = classify(s6, s7)
        assert cmp.verdict is Verdict.CONJUGATE, f"{label}: {cmp.verdict}"
    report(6, "shift equivalence", t0, 5.0)


def test_criterion_7_decomposition_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 6))
        M = rng.standard_normal((d, d))
        M *= 0.9 / max(abs(np.linalg.eigvals(M)))
        imap = custom_map(lambda x, M=M: M @ x, dim=d)
        traj = iterate(imap, rng.standard_normal(d), RunConfig(max_iters=3 * d + 12))
        spec = DecompositionSettings(centering=Centering.NONE).spectrum(traj)
        err = np.max(np.abs(np.sort_complex(spec.eigenvalues)
                            - np.sort_complex(np.linalg.eigvals(M))))
        worst = max(worst, float(err))
    assert worst < 1e-8
    pow06 = custom_map(lambda x: x ** 0.6, dim=1)
    traj = iterate(pow06, np.e, RunConfig(max_iters=40))
    spec = DecompositionSettings(
        method="edmd", dictionary=Dictionary.custom(1, [("log", lambda s: float(np.log(s[0])))]),
        centering=Centering.NONE).spectrum(traj)
    assert abs(spec.eigenvalues[0] - 0.6) < 1e-10
    report(7, "decomposition oracle", t0, 30.0)


def test_criterion_8_principal_extraction():
    t0 = time.perf_counter()
    rng = np.random.default_rng(8)
    for _ in range(50):
        rate = float(rng.uniform(0.1, 0.95))
        imap = custom_map(lambda x, r=rate: r * x, dim=1)
        traj = iterate(imap, 1.0, RunConfig(max_iters=30))
        spec = DecompositionSettings(method="edmd", dictionary=Dictionary.monomials(1, 3),
                                     centering=Centering.NONE).spectrum(traj)
        principal = principal_eigenvalues(spec, ignore_unit=True)
        assert principal.size == 1, f"rate {rate}: got {principal}"
        assert abs(principal[0] - rate) < 1e-6
    report(8, "principal extraction collapses lattices", t0, 30.0)


def test_criterion_9_assignment_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240811)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        A = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        B = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        cost = np.abs(A[:, None] - B[None, :])
        brute = min(cost[np.arange(n), list(p)].sum()
                    for p in itertools.permutations(range(n))) / n
        assert wasserstein_distance(A, B) == brute
    report(9, "assignment equals brute force", t0, 30.0)


def test_criterion_10_determinism(tmp_path):
    t0 = time.perf_counter()
    dir1, dir2 = tmp_path / "a", tmp_path / "b"
    run_all(dir1)
    run_all(dir2)
    names1 = sorted(p.name for p in dir1.iterdir())
    names2 = sorted(p.name for p in dir2.iterdir())
    assert names1 == names2
    for name in names1:
        assert (dir1 / name).read_bytes() == (dir2 / name).read_bytes(), name
    report(10, "presets are byte-deterministic", t0, 120.0)
