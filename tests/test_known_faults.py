"""Known verdict faults, each asserting the right answer as a strict expected
failure. A change that mends one turns it into an unexpected pass, which
fails the suite until its marker goes: the mend then shows in the diff.
Each reason names its ROADMAP item."""
import numpy as np
import pytest

from koopeq import (AlgorithmId, Centering, DecompositionSettings, Dictionary, Oracle,
                    OracleKind, RunConfig, Verdict, classify, custom_map, iterate,
                    make_algorithm, serialize, sym_flatten)
from koopeq.experiments import _FIG5_SETTINGS_LOGDET, FIG2_DEFAULTS, FIG2_X0_A

NONE = DecompositionSettings(centering=Centering.NONE)


def linear_run(M, x0, steps=40):
    M = np.array(M, dtype=float)
    return iterate(custom_map(lambda x: M @ x, dim=2), x0, RunConfig(max_iters=steps))


@pytest.mark.xfail(strict=True, reason="item 1: FIXED_POINT centres a run that did not "
                   "converge on its last state, and the negcos reference reads "
                   "0.89736576 +- 0.28853894j")
def test_negcos_reference_centres_on_the_fixed_point():
    traj = iterate(make_algorithm(AlgorithmId.ALGO1, Oracle(OracleKind.GRAD_NEGCOS)),
                   FIG2_X0_A, FIG2_DEFAULTS["negcos"]["cfg"])
    lam = FIG2_DEFAULTS["negcos"]["settings"].spectrum(traj).eigenvalues
    assert np.sort_complex(lam) == pytest.approx([0.9 - 0.3j, 0.9 + 0.3j], abs=1e-8)


@pytest.mark.xfail(strict=True, reason="item 1: ingest's absolute eps reads the 1e-170 "
                   "log converged, so it is centred and reads 0.895817 for 0.9")
def test_log_eigenvalues_do_not_depend_on_its_scale(tmp_path):
    def eigenvalues(scale):
        path = tmp_path / f"{scale}.csv"
        path.write_text("k,x0,x1\n" + "".join(
            f"{k},{scale * 0.9 ** k!r},{scale * 2 * 0.5 ** k!r}\n" for k in range(40)))
        return DecompositionSettings().spectrum(
            serialize.ingest_external_trajectory(path)).eigenvalues
    assert eigenvalues(1e-170) == pytest.approx(eigenvalues(1.0), abs=1e-9)


@pytest.mark.xfail(strict=True, reason="item 2: the 0.05 lattice tolerance prunes the "
                   "genuine EDMD eigenvalue 0.56, 0.033 from (-0.77)^2, and the pair reads "
                   "semi_conjugate_a_into_b")
def test_dmd_and_edmd_of_one_diagonal_map_are_conjugate():
    traj = linear_run(np.diag([-0.77, 0.56]), (0.5, 0.4))
    edmd = DecompositionSettings(method="edmd", dictionary=Dictionary.monomials(2, 4),
                                 centering=Centering.NONE)
    assert classify(NONE.spectrum(traj), edmd.spectrum(traj)).verdict is Verdict.CONJUGATE


@pytest.mark.xfail(strict=True, reason="items 3 and 7: algorithm 6 from PROX_FAULT_START "
                   "against its exact shift image for algorithm 7 reads distinct "
                   "(0.4952 against 0.5417)")
def test_logdet_fault_start_is_conjugate_to_its_shift_image():
    c, s = np.cos(0.5), np.sin(0.5)
    R = np.array([[c, -s], [s, c]])
    start = R @ np.diag([2.9, 3.0]) @ R.T  # perfbench's PROX_FAULT_START
    logdet = Oracle(OracleKind.PROX_NEGLOGDET, gamma=1.0, domain_dim=2)
    m = logdet.state_dim
    l2 = Oracle(OracleKind.PROX_L2, gamma=1.0, domain_dim=m)
    alg6 = make_algorithm(AlgorithmId.ALGO6, logdet, l2)
    alg7 = make_algorithm(AlgorithmId.ALGO7, logdet, l2)
    x0 = np.concatenate([np.zeros(2 * m), sym_flatten(start)])
    y0 = np.concatenate([x0[2 * m:], alg6.step(x0)[:m]])
    cfg = RunConfig(max_iters=60)  # fig5's logdet variant
    spec6 = _FIG5_SETTINGS_LOGDET.spectrum(iterate(alg6, x0, cfg))
    spec7 = _FIG5_SETTINGS_LOGDET.spectrum(iterate(alg7, y0, cfg))
    assert classify(spec6, spec7).verdict is Verdict.CONJUGATE


@pytest.mark.xfail(strict=True, reason="item 13: the critical heavy ball's Jordan block "
                   "reads conjugate to diag(0.5, 0.5004)")
def test_jordan_block_is_not_conjugate_to_a_diagonal_map():
    heavy_ball = NONE.spectrum(linear_run([[1.0, -0.25], [1.0, 0.0]], (0.3, 0.2)))
    diagonal = NONE.spectrum(linear_run(np.diag([0.5, 0.5004]), (0.3, 0.2)))
    assert classify(heavy_ball, diagonal).verdict is not Verdict.CONJUGATE
