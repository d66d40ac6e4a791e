"""Checks of the program's outputs against separate computations.

Nothing here imports koopeq. Each check takes plain values (arrays, verdict
strings, exit codes, file text) and returns a list of problems; an empty list
means the output passed. The expected values come from the benchmark's own
arithmetic: hand-derived Jacobian eigenvalues, an own simulation of
algorithm 2, exact eigenvalue lattices built from the seeded eigenvalues, and
the index shift that relates algorithms 6 and 7.
"""
from __future__ import annotations

import itertools
import json
from collections import deque

import numpy as np

# eigenvalues of algorithm 1's Jacobian at the origin with f(x) = x^2: the step
# is x -> (u - 0.1 * 2u, x0) with u = 2 x0 - x1, so J = [[1.6, -0.8], [1, 0]],
# with trace 1.6 and determinant 0.8, hence eigenvalues 0.8 +- 0.4j
QUAD_JACOBIAN_EIGS = np.array([0.8 + 0.4j, 0.8 - 0.4j])
QUAD_CELL_MAX = 1e-10
QUAD_PAIR_TOL = 1e-8
LATTICE_TOL = 1e-6
NEGCOS_BASIN_RADIUS = 0.1
# the exponential pair: the DMD side sees exact geometric data, the EDMD side
# a dictionary-induced approximation (acceptance criterion 5's tolerance)
EXP_RATE = 0.6
EXP_DMD_TOL = 1e-9
EXP_EDMD_TOL = 5e-3
VERDICT_EXIT = {"conjugate": 0, "semi_conjugate_a_into_b": 10,
                "semi_conjugate_b_into_a": 10, "distinct": 20}
# the CLI's exit codes above this one report errors (101 and up)
MAX_VERDICT_EXIT = max(VERDICT_EXIT.values())


def match_error(found, expected) -> float:
    """Largest distance in a greedy one-to-one matching of two multisets of
    complex numbers; infinite when their sizes differ. Exact when the true
    errors are far smaller than the gaps between expected values."""
    found = np.asarray(found, dtype=complex).ravel()
    expected = np.asarray(expected, dtype=complex).ravel()
    if found.size != expected.size:
        return float("inf")
    free = np.ones(found.size, dtype=bool)
    worst = 0.0
    for z in expected:
        d = np.where(free, np.abs(found - z), np.inf)
        j = int(np.argmin(d))
        free[j] = False
        worst = max(worst, float(d[j]))
    return worst


def exact_lattice(lam, degree: int, lo: int = 0) -> np.ndarray:
    """All products prod(lam_i ** k_i) with lo <= sum(k_i) <= degree. With
    lo = 0 (the empty product 1 included) this is the spectrum of the Koopman
    operator of x -> A x on the monomials of degree <= degree, when A has
    eigenvalues lam."""
    lam = np.asarray(lam, dtype=complex).ravel()
    return np.array([np.prod(lam[list(combo)])
                     for total in range(lo, degree + 1)
                     for combo in itertools.combinations_with_replacement(range(lam.size), total)],
                    dtype=complex)


def largest_component(mask) -> int:
    """Cell count of the largest 4-connected region of True cells."""
    mask = np.asarray(mask, dtype=bool)
    seen = np.zeros_like(mask)
    best = 0
    rows, cols = mask.shape
    for start in zip(*np.nonzero(mask)):
        if seen[start]:
            continue
        seen[start] = True
        queue = deque([start])
        size = 0
        while queue:
            i, j = queue.popleft()
            size += 1
            for a, b in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)):
                if 0 <= a < rows and 0 <= b < cols and mask[a, b] and not seen[a, b]:
                    seen[a, b] = True
                    queue.append((a, b))
        best = max(best, size)
    return best


def negcos_origin_basin(axis1, axis2, steps: int):
    """Grid cells from which algorithm 2 with f(x) = -cos(x) ends within
    NEGCOS_BASIN_RADIUS of the origin after `steps` steps, by the benchmark's
    own vectorised run of its update
    (x1, x2) -> (x1 - x2 - 0.2 sin x1, x2 + 0.1 sin x1)."""
    x1, x2 = np.meshgrid(np.asarray(axis1, float), np.asarray(axis2, float),
                         indexing="ij")
    for _ in range(steps):
        g = np.sin(x1)
        x1, x2 = x1 - x2 - 0.2 * g, x2 + 0.1 * g
    return np.hypot(x1, x2) < NEGCOS_BASIN_RADIUS


def check_quad_block(distances, principal_a) -> list:
    """fig2 quad: algorithms 1 and 2 are globally conjugate, so every cell is
    (numerically) zero, and the reference's principal pair is the Jacobian's."""
    problems = []
    d = np.asarray(distances, dtype=float)
    if not np.all(np.isfinite(d)):
        problems.append("quad sweep has non-finite cells")
    elif d.max() >= QUAD_CELL_MAX:
        problems.append(f"quad sweep cell {d.max():.3e} is not below {QUAD_CELL_MAX:g}")
    err = match_error(principal_a, QUAD_JACOBIAN_EIGS)
    if not err <= QUAD_PAIR_TOL:
        problems.append(f"quad reference principal pair is {err:.3e} from 0.8+-0.4j")
    return problems


def check_negcos_grid(distances, failed_cells, basin) -> list:
    """fig2 negcos (acceptance criterion 3): no failed cell, small distances
    throughout the origin's basin, and one contiguous high region (cells above
    ten times the median) holding at least 5% of the grid."""
    problems = []
    F = np.asarray(distances, dtype=float)
    basin = np.asarray(basin, dtype=bool)
    if failed_cells or not np.all(np.isfinite(F)):
        problems.append(f"negcos sweep has {int(failed_cells)} failed cells")
        return problems
    med = float(np.median(F))
    if basin.sum() < 0.05 * F.size:
        problems.append(f"origin's basin holds only {int(basin.sum())} cells")
    elif not F[basin].max() <= 0.01 * med:
        problems.append(f"basin cell distance {F[basin].max():.3e} is not small "
                        f"against the median {med:.3e}")
    high = F > 10 * med
    if largest_component(high) < 0.05 * F.size:
        problems.append("no contiguous high region holds 5% of the cells")
    return problems


def check_shift_bitwise(states6, states7, m: int) -> list:
    """Algorithm 7's state k is (block 3 of algorithm 6's state k, block 1 of
    its state k + 1), bit for bit."""
    s6 = np.asarray(states6)
    s7 = np.asarray(states7)
    n = min(len(s6) - 1, len(s7))
    if n < 2:
        return ["trajectories too short to compare"]
    lhs = s7[:n]
    rhs = np.hstack([s6[:n, 2 * m:], s6[1:n + 1, :m]])
    if lhs.shape != rhs.shape or not np.array_equal(lhs, rhs):
        return ["algorithm 7's iterates differ from algorithm 6's shifted blocks"]
    return []


def check_lattice_set(edmd_eigs, principal, lam, degree: int) -> list:
    """EDMD of data from x -> A x on monomials of degree <= degree: its
    eigenvalues are the exact lattice of A's eigenvalues, and the principal
    set at max_power = degree is A's eigenvalues."""
    problems = []
    err = match_error(edmd_eigs, exact_lattice(lam, degree))
    if not err <= LATTICE_TOL:
        problems.append(f"EDMD eigenvalues are {err:.3e} from the exact lattice")
    err = match_error(principal, lam)
    if not err <= LATTICE_TOL:
        problems.append(f"principal set is {err:.3e} from the seeded eigenvalues")
    return problems


def check_exp_pair(dmd_eigs, edmd_eigs) -> list:
    """Algorithms 4 and 5 on f(x) = x^2: x_k = 0.6^k x0 and its image under
    exp. DMD of the first is exactly {0.6}; EDMD of the second has its dominant
    eigenvalue other than the constant's 1 near 0.6."""
    problems = []
    if match_error(dmd_eigs, [EXP_RATE]) > EXP_DMD_TOL:
        problems.append(f"DMD of the geometric data is not {{{EXP_RATE}}}")
    lam = np.asarray(edmd_eigs, dtype=complex)
    nonunit = lam[np.abs(lam - 1.0) > 5e-2]
    if nonunit.size == 0 or abs(nonunit[np.argmax(np.abs(nonunit))] - EXP_RATE) > EXP_EDMD_TOL:
        problems.append("EDMD's dominant eigenvalue is not near 0.6")
    return problems


def _principal_of(text: str):
    data = json.loads(text)
    return np.array([complex(p[0], p[1]) for p in data["principal"]], dtype=complex)


def check_blackbox_pair(codes, expected_verdict: str, spectrum_a: str,
                        spectrum_b: str, comparison: str, lam_a, lam_b) -> list:
    """The CLI's logged-data path: both runs succeed, compare exits with the
    code of the verdict built into the pair and writes that verdict (the exit
    code alone does not tell the two semi-conjugate directions apart), and
    each written spectrum's principal eigenvalues are the seeded ones."""
    problems = []
    run_a, run_b, cmp_code = codes
    if run_a != 0 or run_b != 0:
        problems.append(f"koopeq run exited {run_a} and {run_b}")
    if cmp_code != VERDICT_EXIT[expected_verdict]:
        problems.append(f"koopeq compare exited {cmp_code} for a {expected_verdict} pair")
    for label, text, lam in (("a", spectrum_a, lam_a), ("b", spectrum_b, lam_b)):
        try:
            err = match_error(_principal_of(text), lam)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            problems.append(f"spectrum {label} is not a readable spectrum file: {exc}")
            continue
        if not err <= LATTICE_TOL:
            problems.append(f"spectrum {label} principal set is {err:.3e} from the seeded one")
    try:
        verdict = json.loads(comparison)["verdict"]
    except (ValueError, KeyError, TypeError) as exc:
        problems.append(f"comparison is not a readable comparison file: {exc}")
    else:
        if verdict != expected_verdict:
            problems.append(f"comparison file says {verdict!r} for a {expected_verdict} pair")
    return problems
