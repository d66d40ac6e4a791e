"""Tests of the benchmark's own checks: each feeds a check a deliberately wrong
output and expects it flagged, and the program's real outputs pass.

    python3 -m pytest perfbench -q
"""
import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402

LAM = np.array([0.8, -0.5 + 0.3j, -0.5 - 0.3j])


def test_quad_block_flags_a_nonzero_cell_and_a_moved_pair():
    good = np.zeros((1, 21))
    assert checks.check_quad_block(good, checks.QUAD_JACOBIAN_EIGS) == []
    bad = good.copy()
    bad[0, 3] = 1e-9
    assert checks.check_quad_block(bad, checks.QUAD_JACOBIAN_EIGS)
    bad[0, 3] = np.nan
    assert checks.check_quad_block(bad, checks.QUAD_JACOBIAN_EIGS)
    assert checks.check_quad_block(good, checks.QUAD_JACOBIAN_EIGS + 1e-3)
    assert checks.check_quad_block(good, checks.QUAD_JACOBIAN_EIGS[:1])


def _landscape():
    F = np.full((20, 20), 1e-4)
    basin = np.zeros((20, 20), bool)
    basin[:, 8:12] = True
    F[basin] = 1e-9
    F[:, :3] = 0.5  # one contiguous high strip, 15% of the cells
    return F, basin


def test_negcos_grid_structure_flags():
    F, basin = _landscape()
    assert checks.check_negcos_grid(F, 0, basin) == []
    assert checks.check_negcos_grid(F, 1, basin)
    nan = F.copy()
    nan[5, 5] = np.nan
    assert checks.check_negcos_grid(nan, 0, basin)
    hot_basin = F.copy()
    hot_basin[10, 9] = 1e-3
    assert checks.check_negcos_grid(hot_basin, 0, basin)
    scattered = np.full((20, 20), 1e-4)
    scattered[basin] = 1e-9
    scattered[::2, 0] = 0.5  # high cells that touch no other high cell
    assert checks.check_negcos_grid(scattered, 0, basin)
    assert checks.check_negcos_grid(F, 0, np.zeros_like(basin))


def test_largest_component_is_four_connected():
    mask = np.eye(4, dtype=bool)
    assert checks.largest_component(mask) == 1
    mask[0, 1] = mask[1, 2] = True
    assert checks.largest_component(mask) == 5


def test_shift_check_is_bitwise():
    rng = np.random.default_rng(0)
    m = 3
    s6 = rng.standard_normal((12, 3 * m))
    s7 = np.hstack([s6[:-1, 2 * m:], s6[1:, :m]])
    assert checks.check_shift_bitwise(s6, s7, m) == []
    s7[4, 1] = np.nextafter(s7[4, 1], np.inf)
    assert checks.check_shift_bitwise(s6, s7, m)


def test_lattice_check_flags_a_moved_eigenvalue():
    lattice = checks.exact_lattice(LAM, 3)
    assert lattice.size == 20  # comb(3 + 3, 3) monomials
    assert checks.check_lattice_set(lattice[::-1], LAM, LAM, 3) == []
    moved = lattice.copy()
    moved[7] += 1e-3
    assert checks.check_lattice_set(moved, LAM, LAM, 3)
    assert checks.check_lattice_set(lattice, LAM[:2], LAM, 3)
    assert checks.check_lattice_set(lattice, LAM + 1e-3, LAM, 3)
    products = checks.exact_lattice(LAM, 3, lo=2)
    assert products.size == 16  # the 20 less 1 and the 3 eigenvalues themselves
    assert checks.match_error(products, lattice[4:]) == 0.0


def test_exp_pair_check():
    good = [1.0, 0.6004, 0.36]
    assert checks.check_exp_pair([0.6], good) == []
    assert checks.check_exp_pair([0.601], good)
    assert checks.check_exp_pair([0.6], [1.0, 0.62, 0.36])


def _spectrum_text(lam):
    return json.dumps({"principal": [[z.real, z.imag] for z in np.asarray(lam, complex)]})


def test_blackbox_check_flags_flipped_verdict_moved_eigenvalue_and_truncation():
    a, b = _spectrum_text(LAM), _spectrum_text(LAM[::-1])
    cmp = json.dumps({"verdict": "conjugate"})
    good = checks.check_blackbox_pair((0, 0, 0), "conjugate", a, b, cmp, LAM, LAM)
    assert good == []
    assert checks.check_blackbox_pair((0, 0, 20), "conjugate", a, b, cmp, LAM, LAM)
    assert checks.check_blackbox_pair((0, 0, 10), "semi_conjugate_a_into_b", a, b, cmp,
                                      LAM, LAM)
    assert checks.check_blackbox_pair((0, 103, 0), "conjugate", a, b, cmp, LAM, LAM)
    assert checks.check_blackbox_pair((0, 0, 0), "conjugate", a[:-7], b, cmp, LAM, LAM)
    assert checks.check_blackbox_pair((0, 0, 0), "conjugate", a, b, cmp[:-2], LAM, LAM)
    moved = _spectrum_text(LAM + np.array([0, 1e-3, 1e-3]))
    assert checks.check_blackbox_pair((0, 0, 0), "conjugate", a, moved, cmp, LAM, LAM)


def test_blackbox_check_flags_a_reversed_semi_conjugate_direction():
    a, b = _spectrum_text(LAM), _spectrum_text(LAM)
    into_b = json.dumps({"verdict": "semi_conjugate_a_into_b"})
    into_a = json.dumps({"verdict": "semi_conjugate_b_into_a"})
    assert checks.check_blackbox_pair((0, 0, 10), "semi_conjugate_a_into_b", a, b, into_b,
                                      LAM, LAM) == []
    # both directions exit 10, so only the written verdict tells them apart
    assert checks.check_blackbox_pair((0, 0, 10), "semi_conjugate_a_into_b", a, b, into_a,
                                      LAM, LAM)


def test_wrong_verdict_is_a_problem_except_on_a_known_fault():
    assert workloads._verdict_outcome("conjugate", False, []) == workloads.Outcome(0, [])
    seeded = workloads._verdict_outcome("distinct", False, [])
    assert seeded.failed == 0 and seeded.problems
    fault = workloads._verdict_outcome("distinct", True, [])
    assert fault.failed == 1 and fault.problems == []


def test_seeded_eigenvalues_are_separated():
    rng = np.random.default_rng(5)
    for dim in (2, 6):
        lam = workloads.sample_eigenvalues(rng, dim, (0.3, 0.92), 6, 0.06)
        assert workloads._separated(lam, 6, 0.06, ())
        A = workloads.real_matrix(rng, lam)
        assert checks.match_error(np.linalg.eigvals(A), lam) < 1e-10
    assert not workloads._separated(workloads.LATTICE_FAULT_EIGS, 6, 0.06, ())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_program_outputs_pass(name, tmp_path):
    """The first piece of round 0 of each workload, run on the program."""
    rnd = workloads.WORKLOADS[name](3, tmp_path).round(0)
    for op in rnd.passes[0][0]:
        outcome = op.check(op.run())
        assert outcome.problems == []
        assert outcome.failed == 0
