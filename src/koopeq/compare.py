"""Distances between Koopman spectra and the conjugacy verdict.

Two algorithms are declared conjugate when their principal eigenvalue sets
match (equal size, small Wasserstein distance); semi-conjugate when the
smaller set embeds in the larger one (small directed Hausdorff distance);
distinct otherwise.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from .corpus import IterativeMap
from .errors import (CardinalityMismatchError, DegenerateDataError,
                     InsufficientDataError, InvalidInputError, KoopeqError,
                     NumericFailureError, count, result_or_raise, tolerance)
from .spectral import (Dictionary, KoopmanSpectrum, RankPolicy, decompose_stack,
                       principal_eigenvalues, principal_sets)
from .trajectory import (Centering, RunConfig, Trajectory, centred, iterate, iterate_many,
                         snapshot_stack)

# conjugacy tolerances: tight for plain DMD on both sides, loose when a
# dictionary lifting is involved (dictionary-induced eigenvalue error)
EPS_DMD = 1e-3
EPS_EDMD = 5e-2
# lattice product depth: default monomial dictionaries reach degree 5, so
# EDMD spectra carry lattice members (and sub-resolvable strays) past depth 4
MAX_POWER_DMD = 4
MAX_POWER_EDMD = 6


class Verdict(Enum):
    CONJUGATE = "conjugate"
    SEMI_CONJUGATE_A_INTO_B = "semi_conjugate_a_into_b"
    SEMI_CONJUGATE_B_INTO_A = "semi_conjugate_b_into_a"
    DISTINCT = "distinct"


def _swapped(c00, c01, c10, c11):
    """Whether the minimum-cost assignment of the 2x2 cost matrix
    [[c00, c01], [c10, c11]] pairs row 0 with column 1, a tie going to the
    cheaper entry of row 0; on floats, or elementwise on arrays of them."""
    kept, swapped = c00 + c11, c01 + c10
    return (swapped < kept) | ((swapped == kept) & (c01 < c00))


def _assignment(cost: list) -> list[int]:
    """The column assigned to each row of a square cost matrix (a list of
    rows of finite floats) by a minimum-cost assignment.

    The shortest augmenting path form of Crouse ("On implementing 2D
    rectangular assignment algorithms", IEEE TAES 52(4), 2016) as scipy's
    linear_sum_assignment implements it: rows are added in order, each by a
    Dijkstra search over a list of the remaining columns that starts in
    reverse order, breaking a tie in favour of an unassigned column. The same
    arithmetic in the same order picks the same permutation as scipy, ties
    included. The scorer takes it for sets of more than two.
    """
    n = len(cost)
    u, v = [0.0] * n, [0.0] * n  # dual variables of rows and columns
    col4row, row4col, path = [-1] * n, [-1] * n, [-1] * n
    for cur in range(n):
        dist = [math.inf] * n  # shortest reduced path cost to each column
        remaining = list(range(n - 1, -1, -1))
        rows_seen, cols_seen = [], []
        i, min_val, sink = cur, 0.0, -1
        while sink < 0:
            rows_seen.append(i)
            row, ui = cost[i], u[i]
            index, lowest = -1, math.inf
            for it, j in enumerate(remaining):
                r = min_val + row[j] - ui - v[j]
                if r < dist[j]:
                    path[j] = i
                    dist[j] = r
                if dist[j] < lowest or (dist[j] == lowest and row4col[j] < 0):
                    lowest = dist[j]
                    index = it
            min_val = lowest
            j = remaining[index]
            if row4col[j] < 0:
                sink = j
            else:
                i = row4col[j]
            cols_seen.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
        u[cur] += min_val
        for i in rows_seen[1:]:  # rows_seen[0] is cur
            u[i] += min_val - dist[col4row[i]]
        for j in cols_seen:
            v[j] -= min_val - dist[j]
        j = sink  # flip the assignments along the path back to row cur
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return col4row


# score flags: a sweep cell's flag, and what classify reads from its pair
CELL_OK = 0
CELL_HAUSDORFF = 1  # cardinality mismatch, symmetric Hausdorff fallback
CELL_FIXED_POINT = 2  # initial condition sits on a fixed point; distance 0
CELL_FAILED = 3  # decomposition failed or a distance overflows; value is NaN


def _score(P: np.ndarray, size: np.ndarray, pa: np.ndarray):
    """Score each set P[c, :size[c]] of a stack against the one set `pa`,
    from one cost array cost[c, i, j] = |pa[i] - pb[j]| per set size, with
    floating-point events ignored. Returns per set its flag, its distance,
    the directed Hausdorff distances from `pa` and to it, and the columns
    matched to pa's elements. A set of pa's size is CELL_OK at the mean
    matched cost of the minimum-cost assignment (`_swapped` for at most two,
    `_assignment` beyond), another CELL_HAUSDORFF at the larger Hausdorff
    distance, an empty one (or any, for an empty `pa`) CELL_FIXED_POINT at
    0, and one with a non-finite cost CELL_FAILED at NaN."""
    m, N = pa.size, len(P)
    flags, distance = np.full(N, CELL_FIXED_POINT), np.zeros(N)
    dab, dba = np.full((2, N), np.nan)
    cols = np.zeros((N, m), dtype=int)
    with np.errstate(all="ignore"):
        for n in sorted(set(size.tolist()) - {0}) if m else ():
            at = np.flatnonzero(size == n)
            if at.size == N:  # every set: slices, not copies
                at = slice(None)
            cost = np.abs(pa[None, :, None] - P[at, None, :n])
            finite = np.isfinite(cost).all(axis=(1, 2))
            ab, ba = cost.min(axis=2).max(axis=1), cost.min(axis=1).max(axis=1)
            dab[at], dba[at] = ab, ba
            if n != m:
                distance[at], flags[at] = np.maximum(ab, ba), CELL_HAUSDORFF
            else:
                picked = cols[at]
                if n == 2:
                    picked[:, 0] = _swapped(*cost.reshape(-1, 4).T)
                    picked[:, 1] = 1 - picked[:, 0]
                elif n > 2:
                    for k in np.flatnonzero(finite).tolist():
                        picked[k] = _assignment(cost[k].tolist())
                cols[at] = picked
                # NumPy's sum of the matched costs in row order, per set
                matched = cost[np.arange(len(cost))[:, None], np.arange(n), picked]
                distance[at], flags[at] = matched.sum(axis=1) / n, CELL_OK
            if not finite.all():
                failed = np.arange(N)[at][~finite]
                distance[failed], flags[failed] = np.nan, CELL_FAILED
    return flags, distance, dab, dba, cols


def _scored(A, B, equal_sizes: bool):
    """The scorer's stack of one, the set B against the set A, both
    non-empty (and of one size, with equal_sizes): the distance, the directed
    Hausdorff distance from A to B and the columns matched to A's elements.
    A distance that overflows raises NumericFailureError."""
    A = np.asarray(A, dtype=complex).ravel()
    B = np.asarray(B, dtype=complex).ravel()
    if A.size == 0 or B.size == 0:
        raise InvalidInputError("eigenvalue sets must be non-empty")
    if equal_sizes and A.size != B.size:
        raise CardinalityMismatchError(f"set sizes differ: {A.size} vs {B.size}")
    flags, distance, dab, _, cols = _score(B[None], np.array([B.size]), A)
    if flags[0] == CELL_FAILED:
        raise NumericFailureError("a distance between eigenvalues overflows")
    return float(distance[0]), float(dab[0]), cols[0]


def optimal_matching(A, B) -> tuple[float, list[tuple[int, int]]]:
    """Order-1 Wasserstein distance between equal-size eigenvalue multisets
    with uniform weights (the minimum over pairings of the mean |a - b|) and
    the index pairs of the optimal assignment that attains it: the scorer's
    stack of one. A distance that overflows raises NumericFailureError."""
    distance, _, cols = _scored(A, B, equal_sizes=True)
    return distance, list(enumerate(cols.tolist()))


def wasserstein_distance(A, B) -> float:
    """The distance part of optimal_matching."""
    return optimal_matching(A, B)[0]


def directed_hausdorff(A, B) -> float:
    """max over a in A of the distance from a to its nearest element of B:
    the scorer's, of its stack of one. Zero means A is a subset of B up to
    rounding. A distance that overflows raises NumericFailureError."""
    return _scored(A, B, equal_sizes=False)[1]


@dataclass
class ComparisonTolerances:
    eps_conj: float
    eps_semi: float


@dataclass
class SpectrumComparison:
    """Distances, matching and verdict for a pair of spectra."""

    wasserstein: Optional[float]
    directed_hausdorff_ab: Optional[float]
    directed_hausdorff_ba: Optional[float]
    matching: list
    verdict: Verdict
    tolerances_used: ComparisonTolerances
    principal_a: np.ndarray = field(default_factory=lambda: np.empty(0, complex))
    principal_b: np.ndarray = field(default_factory=lambda: np.empty(0, complex))
    notes: list = field(default_factory=list)


def _rules(spec_a, spec_b, eps_conj=None, eps_semi=None, lattice_tol=None,
           max_power=None):
    """classify's defaults for the tolerances a caller leaves unset; looser
    tolerances and deeper lattice products when either side is EDMD.
    eps_conj and eps_semi must be non-negative tolerances."""
    edmd_involved = "edmd" in (spec_a.method, spec_b.method)
    eps = EPS_EDMD if edmd_involved else EPS_DMD
    eps_conj = eps if eps_conj is None else eps_conj
    eps_semi = eps if eps_semi is None else eps_semi
    tolerance("eps_conj", eps_conj, InvalidInputError)
    tolerance("eps_semi", eps_semi, InvalidInputError)
    lattice_tol = max(1e-6, eps_conj) if lattice_tol is None else lattice_tol
    if max_power is None:
        max_power = MAX_POWER_EDMD if edmd_involved else MAX_POWER_DMD
    return eps_conj, eps_semi, lattice_tol, max_power


def classify(spec_a: KoopmanSpectrum, spec_b: KoopmanSpectrum,
             eps_conj: Optional[float] = None, eps_semi: Optional[float] = None,
             ignore_unit_constant: bool = True,
             lattice_tol: Optional[float] = None,
             max_power: Optional[int] = None) -> SpectrumComparison:
    """Issue a conjugacy verdict for two spectra.

    Principal sets are extracted first (raw spectra contain lattice products
    that would corrupt the cardinality match); the constant-mode eigenvalue 1
    from uncentered or dictionary-lifted runs is excluded by default. The
    pair is then scored as `sweep` scores a cell, by the one scorer: the
    Wasserstein distance and matching for equal cardinalities, and both
    directed Hausdorff distances. Verdicts: CONJUGATE for equal cardinality
    with Wasserstein <= eps_conj, otherwise a SEMI_CONJUGATE direction when
    one set embeds in the other within eps_semi, otherwise DISTINCT. A
    non-finite eigenvalue or a distance that overflows raises
    NumericFailureError.
    """
    eps_conj, eps_semi, lattice_tol, max_power = _rules(
        spec_a, spec_b, eps_conj, eps_semi, lattice_tol, max_power)
    tols = ComparisonTolerances(eps_conj=eps_conj, eps_semi=eps_semi)
    notes = []

    pa = principal_eigenvalues(spec_a, lattice_tol=lattice_tol, max_power=max_power,
                               ignore_unit=ignore_unit_constant)
    pb = principal_eigenvalues(spec_b, lattice_tol=lattice_tol, max_power=max_power,
                               ignore_unit=ignore_unit_constant)
    if ignore_unit_constant:
        notes.append(f"unit-constant eigenvalues excluded (tol {lattice_tol:g})")
    flags, distance, dab, dba, cols = _score(pb[None], np.array([pb.size]), pa)
    if flags[0] == CELL_FIXED_POINT:
        notes.append("degenerate principal set; verdict forced to distinct")
        return SpectrumComparison(None, None, None, [], Verdict.DISTINCT, tols,
                                  pa, pb, notes)
    if flags[0] == CELL_FAILED:
        raise NumericFailureError("a distance between eigenvalues overflows")
    dab, dba = float(dab[0]), float(dba[0])
    wass, matching = None, []
    if flags[0] == CELL_OK:
        wass, matching = float(distance[0]), list(enumerate(cols[0].tolist()))
    if wass is not None and wass <= eps_conj:
        verdict = Verdict.CONJUGATE
    elif pa.size <= pb.size and dab <= eps_semi:
        verdict = Verdict.SEMI_CONJUGATE_A_INTO_B
    elif pb.size <= pa.size and dba <= eps_semi:
        verdict = Verdict.SEMI_CONJUGATE_B_INTO_A
    else:
        verdict = Verdict.DISTINCT
    if pa.size != pb.size:
        notes.append("principal cardinalities differ; Wasserstein undefined")
    return SpectrumComparison(wass, dab, dba, matching, verdict, tols, pa, pb, notes)


@dataclass(frozen=True)
class DecompositionSettings:
    """How a trajectory turns into a spectrum: the one path shared by sweeps,
    presets and the command line. The fields are checked when built: `method`
    is "dmd" or "edmd", a dictionary is given exactly for "edmd", and
    `discard` is a non-negative count."""

    method: str = "dmd"
    dictionary: Optional[Dictionary] = None
    rank_policy: RankPolicy = RankPolicy()
    centering: Optional[Centering] = None  # None = per-trajectory default
    discard: int = 0  # leading transient states dropped before pairing

    def __post_init__(self):
        if self.method not in ("dmd", "edmd"):
            raise InvalidInputError(f"method must be 'dmd' or 'edmd', got {self.method!r}")
        if (self.dictionary is None) == (self.method == "edmd"):
            raise InvalidInputError("edmd needs a dictionary" if self.method == "edmd"
                                    else "dmd takes no dictionary")
        count("discard", self.discard, 0, InvalidInputError)

    def spectrum(self, traj: Trajectory) -> KoopmanSpectrum:
        """`spectra` of the one trajectory: its spectrum, or its error raised."""
        return result_or_raise(self.spectra([traj])[0])

    def spectra(self, trajs, eigenvalues_only: bool = False) -> list:
        """Drop each trajectory's transient, pair its snapshots and decompose
        them; a KoopeqError given in place of a trajectory is passed through.
        Returns, per trajectory, its KoopmanSpectrum or the KoopeqError that
        pairing or decomposing it gave, an InvalidInputError when its states
        are not a 2-D integer or float ndarray. The runs of one states shape, dtype
        and centring are paired and decomposed as one stack, each cell bit
        for bit as it would be alone. With eigenvalues_only, a spectrum comes
        as its eigenvalues alone (`decompose_stack`'s)."""
        out = list(trajs)
        groups = {}
        for i, traj in enumerate(out):
            if isinstance(traj, KoopeqError):
                continue
            states = traj.states
            if not (isinstance(states, np.ndarray) and states.ndim == 2
                    and states.dtype.kind in "iuf"):
                got = (f"a {states.ndim}-D {states.dtype} array"
                       if isinstance(states, np.ndarray) else f"a {type(states).__name__}")
                out[i] = InvalidInputError("a trajectory's states must be a 2-D array of "
                                           f"real numbers (integer or float), got {got}")
                continue
            key = (states.shape, states.dtype, centred(traj, self.centering))
            groups.setdefault(key, []).append(i)
        for (_, _, centre), cells in groups.items():
            try:
                X, Y, tag = snapshot_stack([out[i].states for i in cells], centre, self.discard)
            except KoopeqError as exc:  # runs too short to pair
                done = [exc] * len(cells)
            else:
                done = decompose_stack(X, Y, tag, self.dictionary, self.rank_policy,
                                       eigenvalues_only)
            for i, res in zip(cells, done):
                out[i] = res
        return out


@dataclass
class SweepResult:
    axis1: np.ndarray
    axis2: np.ndarray
    distances: np.ndarray  # shape (len(axis1), len(axis2)), row-major
    flags: np.ndarray
    spectrum_a: KoopmanSpectrum
    principal_a: np.ndarray


def sweep(map_a: IterativeMap, x0_a, map_b: IterativeMap, grid,
          cfg: RunConfig = RunConfig(),
          settings: DecompositionSettings = DecompositionSettings()) -> SweepResult:
    """Distance field between map_a's spectrum at a fixed initial condition
    and map_b's spectrum at every point of a rectangular grid.

    `grid` is a pair of 1-D axis arrays; cell (i, j) starts map_b, which must
    act on R^2, at (axis1[i], axis2[j]). The cells of a grid row run through
    one `iterate_many` call, as one block for a columnwise map_b, and
    decompose through one `DecompositionSettings.spectra` call, to their
    eigenvalues only: a cell's distance reads nothing else, so its modes and
    training error are never formed. The reference's principal set is
    extracted once. A row's decomposed cells of one eigenvalue count take
    one `principal_sets` call and one call of the scorer `classify` uses, so
    each cell scores bit for bit as `classify` scores it: the Wasserstein
    distance between principal sets, or the larger directed Hausdorff
    distance when their cardinalities differ (flagged). A grid point whose
    data has no principal eigenvalues (it sits on a fixed point) scores 0
    (flagged): the vacuous limit of its neighbours. Genuine per-cell
    failures (a decomposition that fails, a distance that overflows) become
    NaN cells and never abort the sweep. A reference without principal
    eigenvalues has nothing to compare against and is rejected.
    """
    axis1 = np.asarray(grid[0], dtype=float)
    axis2 = np.asarray(grid[1], dtype=float)
    if axis1.size == 0 or axis2.size == 0:
        raise InvalidInputError("grid axes must be non-empty")
    if map_b.dim != 2:
        raise InvalidInputError(f"the grid holds 2-D starts, map_b expects {map_b.dim}")
    spec_a = settings.spectrum(iterate(map_a, x0_a, cfg))
    # both sides decompose by `settings`, so classify's rules hold for every cell
    _, _, lattice_tol, max_power = _rules(spec_a, spec_a)
    pa = principal_eigenvalues(spec_a, lattice_tol=lattice_tol, max_power=max_power,
                               ignore_unit=True)
    if pa.size == 0:
        raise DegenerateDataError("the reference spectrum has no principal eigenvalues")

    distances = np.zeros((axis1.size, axis2.size))
    flags = np.zeros((axis1.size, axis2.size), dtype=int)
    for i, a in enumerate(axis1):
        starts = np.column_stack([np.full(axis2.size, a), axis2])
        groups = {}  # eigenvalue count -> the cells, their eigenvalues
        runs = iterate_many(map_b, starts, cfg)
        for j, lam in enumerate(settings.spectra(runs, eigenvalues_only=True)):
            if isinstance(lam, (InsufficientDataError, DegenerateDataError)):
                flags[i, j] = CELL_FIXED_POINT  # its distance stays 0
            elif isinstance(lam, KoopeqError):
                distances[i, j], flags[i, j] = np.nan, CELL_FAILED
            elif lam.size in groups:
                groups[lam.size][0].append(j)
                groups[lam.size][1].append(lam)
            else:
                groups[lam.size] = [j], [lam]
        for cells, lams in groups.values():
            P, size = principal_sets(np.array(lams, dtype=complex), lattice_tol, max_power,
                                     ignore_unit=True)
            flags[i, cells], distances[i, cells] = _score(P, size, pa)[:2]
    return SweepResult(axis1=axis1, axis2=axis2, distances=distances, flags=flags,
                       spectrum_a=spec_a, principal_a=pa)
