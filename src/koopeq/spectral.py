"""Finite Koopman mode decompositions from snapshot data.

`decompose_stack`, which a trajectory reaches through
`DecompositionSettings.spectrum`, fits a linear operator to each snapshot
pair (DMD) or to its lift through a dictionary of observables (EDMD). Each
result is a KoopmanSpectrum holding triplets (eigenvalue, mode, eigenfunction
coefficients) such that the state at step k is approximated by

    sum_r  lambda_r**k * (coeffs_r . psi(x_0)) * mode_r

where psi is the dictionary (the identity for plain DMD).
"""
from __future__ import annotations

import functools
import itertools
import math
import sys
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (ConfigurationError, DegenerateDataError, InvalidInputError,
                     InvalidObservableError, KoopeqError, NumericFailureError, count,
                     result_or_raise, tolerance)
from .trajectory import SnapshotPair, _norm

PAIR_TOL = 1e-10  # conjugate-partner detection


class DictionaryKind(Enum):
    IDENTITY = "identity"
    MONOMIALS = "monomials"
    CUSTOM = "custom"


@functools.lru_cache
def _monomial_exponents(dim: int, max_degree: int) -> np.ndarray:
    """Read-only (K, dim) array of every exponent vector with total degree
    <= max_degree, constant first, graded lexicographic within each degree."""
    out = []
    for total in range(max_degree + 1):
        for combo in itertools.combinations_with_replacement(range(dim), total):
            e = [0] * dim
            for i in combo:
                e[i] += 1
            out.append(e)
    exps = np.array(out, dtype=int)
    exps.flags.writeable = False
    return exps


@dataclass(frozen=True)
class Dictionary:
    """An ordered set of scalar observables used as the EDMD lifting basis.
    `dim`, and `max_degree` for monomials, are positive counts."""

    kind: DictionaryKind
    dim: int
    max_degree: Optional[int] = None
    functions: Optional[tuple] = None  # tuple of (name, callable state -> scalar)

    def __post_init__(self):
        count("dim", self.dim, 1, ConfigurationError)
        if self.kind is DictionaryKind.MONOMIALS:
            count("max_degree", self.max_degree, 1, ConfigurationError)

    @staticmethod
    def identity(dim: int) -> "Dictionary":
        return Dictionary(DictionaryKind.IDENTITY, dim=dim)

    @staticmethod
    def monomials(dim: int, max_degree: int) -> "Dictionary":
        """All monomials of total degree <= max_degree, constant included."""
        return Dictionary(DictionaryKind.MONOMIALS, dim=dim, max_degree=max_degree)

    @staticmethod
    def custom(dim: int, functions: Sequence[tuple[str, Callable]]) -> "Dictionary":
        if not functions:
            raise ConfigurationError("custom dictionary needs at least one function")
        return Dictionary(DictionaryKind.CUSTOM, dim=dim, functions=tuple(functions))

    @property
    def output_dim(self) -> int:
        if self.kind is DictionaryKind.IDENTITY:
            return self.dim
        if self.kind is DictionaryKind.MONOMIALS:
            return math.comb(self.dim + self.max_degree, self.dim)
        return len(self.functions)

    @property
    def tag(self) -> str:
        if self.kind is DictionaryKind.IDENTITY:
            return "identity"
        if self.kind is DictionaryKind.MONOMIALS:
            return f"monomials(dim={self.dim},degree={self.max_degree})"
        names = ",".join(name for name, _ in self.functions)
        return f"custom[{names}]"

    def lift(self, states: np.ndarray) -> np.ndarray:
        """Evaluate every dictionary function on every column of `states`
        (shape (dim, m)), returning the lifted (output_dim, m) matrix."""
        states = np.asarray(states, dtype=float)
        if states.ndim == 1:
            states = states.reshape(-1, 1)
        if states.shape[0] != self.dim:
            raise ConfigurationError(
                f"dictionary expects dim {self.dim}, data has {states.shape[0]}")
        if self.kind is DictionaryKind.IDENTITY:
            return states.copy()
        if self.kind is DictionaryKind.MONOMIALS:
            # powers[e][:, i] = x_i**e. x**0 is 1 and x**1 is x exactly, so
            # those rows take no pow. For e >= 2 a dim-length exponent makes
            # NumPy pick the kernel it picks for x ** exponent_vector (at dim 1
            # its scalar path, x*x for e = 2, 1 ulp off its vector pow on some
            # x); rows multiply left to right, so each entry is
            # np.prod(x ** exponents)
            powers = np.empty((self.max_degree + 1,) + states.T.shape)
            powers[0] = 1.0
            powers[1] = states.T
            for e in range(2, self.max_degree + 1):
                powers[e] = states.T ** np.full(self.dim, e)
            exps = _monomial_exponents(self.dim, self.max_degree)
            out = powers[exps[:, 0], :, 0]
            for i in range(1, self.dim):
                out *= powers[exps[:, i], :, i]
        else:
            rows = []
            for name, fn in self.functions:
                try:
                    with np.errstate(all="raise"):
                        vals = np.array([float(fn(c)) for c in states.T])
                except (FloatingPointError, ValueError, ArithmeticError) as exc:
                    raise InvalidObservableError(f"observable {name!r} failed: {exc}") from exc
                rows.append(vals)
            out = np.array(rows)
        if not np.all(np.isfinite(out)):
            raise InvalidObservableError("dictionary produced non-finite values on the data")
        return out


@dataclass(frozen=True)
class RankPolicy:
    """SVD truncation rule: keep every singular value above
    rel_tol * sigma_max, at most `rank` of them when set (a positive count)."""

    rank: Optional[int] = None
    rel_tol: float = 1e-10

    def __post_init__(self):
        if self.rank is not None:
            count("rank", self.rank, 1, InvalidInputError)
        tolerance("rel_tol", self.rel_tol, InvalidInputError)

    @staticmethod
    def fixed(rank: int) -> "RankPolicy":
        return RankPolicy(rank=rank)


@dataclass
class KoopmanSpectrum:
    """Finite list of Koopman triplets plus method metadata.

    eigenvalues[r] pairs with modes[:, r] (state-space direction) and
    eigfn_coeffs[r, :] (the eigenfunction expressed in the lifted basis, so
    phi_r(x) = eigfn_coeffs[r] @ psi(x)). Triplets are sorted by descending
    |eigenvalue|, ties broken by descending real then imaginary part, so
    serialized spectra are stable across runs.
    """

    eigenvalues: np.ndarray
    modes: np.ndarray
    eigfn_coeffs: np.ndarray
    method: str
    rank: int
    dictionary_tag: str
    reconstruction_error: float
    centering_tag: str = "identity"


def _canonical_order(lam: np.ndarray, *first) -> np.ndarray:
    """The canonical triplet order of each row of `lam`, within the order of
    the sort keys `first` when given."""
    return np.lexsort((-lam.imag, -lam.real, -np.abs(lam)) + first)


def _ranks(s: np.ndarray, policy: RankPolicy) -> list:
    """How many of each row of singular values `s` (descending) policy keeps,
    or the KoopeqError for a row it cannot keep any of."""
    kept = (s > policy.rel_tol * s[:, :1]).sum(axis=1)
    out = []
    for top, r in zip(s[:, 0].tolist(), kept.tolist()):
        if top <= 0.0:
            out.append(DegenerateDataError("all singular values vanish; no dynamics in the data"))
        elif r == 0:
            out.append(DegenerateDataError("every singular value falls below the threshold"))
        else:
            out.append(r if policy.rank is None else min(policy.rank, r))
    return out


def _pinv(U: np.ndarray, s: np.ndarray, Vh: np.ndarray) -> np.ndarray:
    """np.linalg.pinv(A, rcond=1e-12) of a real A, or of each matrix of a
    stack of them, from its thin SVD factors, by pinv's own steps, so the
    result is bit-identical to it."""
    large = s > 1e-12 * s.max(axis=-1, keepdims=True)
    sinv = np.divide(1, s, where=large, out=np.zeros_like(s))
    return Vh.swapaxes(-1, -2) @ (sinv[..., :, None] * U.swapaxes(-1, -2))


def _take(a: np.ndarray, cells: list) -> np.ndarray:
    """The cells of the stack `a`; `a` itself, layout and all, when they are
    all of it."""
    return a if len(cells) == len(a) else a[cells]


def _by_type(lam: np.ndarray, W: np.ndarray):
    """Split a stacked eig's eigenvalues and eigenvectors into the cells whose
    eigenvalues are all real, as real arrays, and the rest, as a single eig
    returns them; a stacked eig returns real arrays only when every cell's
    eigenvalues are real. Yields (positions in the stack, or None for all of
    it, lam, W)."""
    real = np.all(lam.imag == 0, axis=1) if lam.dtype.kind == "c" and len(lam) > 1 else None
    if real is None or not real.any():
        yield None, lam, W
        return
    part = np.flatnonzero(real)
    yield part, lam[part].real, W[part].real
    part = np.flatnonzero(~real)
    yield part, lam[part], W[part]


def _decompose(PX, PY, Xstate, Ystate, policy, method, dict_tag, obs_tag,
               eigenvalues_only=False) -> list:
    """Shared DMD/EDMD core over a stack of N cells: PX and PY of shape
    (N, k, m) in the decomposition space, Xstate and Ystate of shape
    (N, dim, m), and the cells' one observable tag. Returns per cell its
    reduced operator's eigentriplets and training error as a KoopmanSpectrum,
    or its KoopeqError. Non-finite data and a LAPACK failure are a
    NumericFailureError. With eigenvalues_only, a cell's result is its
    spectrum's eigenvalues alone, the modes and training error not formed;
    the eigenvector solve still runs, so each cell fails as it would in full.

    The stack takes one call each to svd, eig, solve and every matmul, one per
    rank and eigenvalue type. NumPy's stacked linalg and matmul calls run
    LAPACK and BLAS matrix by matrix, so each cell with the per-matrix layout
    of a single decomposition gets a single decomposition's bits. A stack
    that holds non-finite data or that LAPACK fails on is redone cell by
    cell, so each cell meets its own failure."""
    out = [None] * len(PX)
    try:
        if not (np.isfinite(PX).all() and np.isfinite(PY).all()):
            raise np.linalg.LinAlgError("the data holds non-finite values")
        U_full, s_full, Vh_full = np.linalg.svd(PX, full_matrices=False)
        if method != "dmd" and not eigenvalues_only:
            # least-squares recovery of the state from the lifted basis
            B_full = Xstate @ _pinv(U_full, s_full, Vh_full)
        by_rank = {}
        for c, r in enumerate(_ranks(s_full, policy)):
            if isinstance(r, KoopeqError):
                out[c] = r
            else:
                by_rank.setdefault(r, []).append(c)
        for r, cells in by_rank.items():
            U = _take(U_full, cells)[:, :, :r]
            Vh = _take(Vh_full, cells)[:, :r]
            reduced = (U.conj().swapaxes(-1, -2) @ _take(PY, cells)
                       @ Vh.conj().swapaxes(-1, -2) / _take(s_full, cells)[:, None, :r])
            lam_all, W_all = np.linalg.eig(reduced)
            for part, lam, W in _by_type(lam_all, W_all):
                sub = cells if part is None else [cells[i] for i in part]
                U = _take(U_full, sub)[:, :, :r]
                coeffs = np.linalg.solve(W, U.conj().swapaxes(-1, -2))
                order = _canonical_order(lam)
                at = np.arange(len(sub))[:, None]
                lam = lam[at, order]
                if eigenvalues_only:
                    for i, c in enumerate(sub):
                        out[c] = lam[i]
                    continue
                B = np.eye(Xstate.shape[1]) if method == "dmd" else _take(B_full, sub)
                modes = B @ (U @ W)
                coeffs = coeffs[at, order]
                # column-major per cell, as a single modes[:, order] leaves them
                modes = modes.swapaxes(1, 2)[at, order].swapaxes(1, 2)
                Y = _take(Ystate, sub)
                resid = (modes * lam[:, None, :]) @ (coeffs @ _take(PX, sub)) - Y
                with np.errstate(all="ignore"):  # as _norm asks
                    for i, c in enumerate(sub):
                        # per cell: a norm over an axis sums in another order
                        ynorm = _norm(Y[i])
                        err = _norm(resid[i]) / ynorm if ynorm > 0 else 0.0
                        out[c] = KoopmanSpectrum(
                            eigenvalues=lam[i], modes=modes[i], eigfn_coeffs=coeffs[i],
                            method=method, rank=r, dictionary_tag=dict_tag,
                            reconstruction_error=err, centering_tag=obs_tag)
    except np.linalg.LinAlgError as exc:
        if len(PX) > 1:
            return [_decompose(PX[c:c + 1], PY[c:c + 1], Xstate[c:c + 1], Ystate[c:c + 1],
                               policy, method, dict_tag, obs_tag, eigenvalues_only)[0]
                    for c in range(len(PX))]
        err = NumericFailureError(f"{method} failed: {exc}")
        err.__cause__ = exc
        return [err]
    return out


def _caller_level() -> int:
    """The `stacklevel` at which a warning issued by this function's caller
    names the first frame outside the koopeq package: the user's line, by
    whichever entry point it came in."""
    frame, level = sys._getframe(1), 1
    while frame is not None and frame.f_globals.get("__name__", "").partition(".")[0] == "koopeq":
        frame, level = frame.f_back, level + 1
    return level


def _lifted(X: np.ndarray, Y: np.ndarray, dictionary: Dictionary):
    """The lift of the snapshot pair (X, Y) through `dictionary`, checked to
    show dynamics; warns when the pairs underdetermine the fit."""
    m = X.shape[1]
    if m < dictionary.output_dim:
        warnings.warn(f"only {m} snapshot pairs for a dictionary of size "
                      f"{dictionary.output_dim}; the fit is underdetermined",
                      stacklevel=_caller_level())
    PX = dictionary.lift(X)
    PY = dictionary.lift(Y)
    state_spread = np.max(np.abs(X - X[:, :1])) if m > 1 else 0.0
    lifted_spread = np.max(np.abs(PX - PX[:, :1])) if m > 1 else 0.0
    if m > 1 and state_spread > 0 and lifted_spread <= 1e-14 * max(1.0, np.abs(PX).max()):
        raise DegenerateDataError("observables are constant on the data; "
                                  "no dynamics representable")
    return PX, PY


def decompose_stack(X: np.ndarray, Y: np.ndarray, tag: str,
                    dictionary: Optional[Dictionary] = None,
                    rank_policy: RankPolicy = RankPolicy(),
                    eigenvalues_only: bool = False) -> list:
    """Per snapshot pair (X[i], Y[i]) of the stacks X and Y (shape
    (N, dim, m)), all in the observable `tag`: its KoopmanSpectrum, by DMD,
    or by EDMD through `dictionary` when one is given, or its KoopeqError.
    DMD decomposes the pairs as one stack; EDMD lifts each pair on its own,
    then decomposes the lifts as one stack. Each pair gets the bits of its
    stack of one. With eigenvalues_only, a pair's result is its spectrum's
    eigenvalues, bit for bit, or the same KoopeqError, without the modes and
    training error. X and Y that are not stacks of one shape raise
    InvalidInputError."""
    X, Y = np.asarray(X, dtype=float), np.asarray(Y, dtype=float)
    if X.ndim != 3 or X.shape != Y.shape:
        raise InvalidInputError("a snapshot pair's X and Y must be 2-D and of one shape, "
                                f"got {X.shape[1:]} and {Y.shape[1:]}")
    if X.size == 0:
        return [DegenerateDataError("empty snapshot pair") for _ in range(len(X))]
    if dictionary is None:
        return _decompose(X, Y, X, Y, rank_policy, "dmd", "identity", tag, eigenvalues_only)
    out = [None] * len(X)
    PX = np.empty((len(X), dictionary.output_dim, X.shape[2]))
    PY = np.empty_like(PX)
    for i in range(len(X)):
        try:
            PX[i], PY[i] = _lifted(X[i], Y[i], dictionary)
        except KoopeqError as exc:
            out[i] = exc
    cells = [i for i, res in enumerate(out) if res is None]
    if cells:
        done = _decompose(_take(PX, cells), _take(PY, cells), _take(X, cells), _take(Y, cells),
                          rank_policy, "edmd", dictionary.tag, tag, eigenvalues_only)
        for i, res in zip(cells, done):
            out[i] = res
    return out


def dmd(snap: SnapshotPair, rank_policy: RankPolicy = RankPolicy()) -> KoopmanSpectrum:
    """The benchmark's stack-of-one DMD alias of `DecompositionSettings.spectrum`,
    its error raised; it goes with ROADMAP item 9."""
    X, Y = np.asarray(snap.X)[None], np.asarray(snap.Y)[None]
    return result_or_raise(decompose_stack(X, Y, snap.observable_tag, None, rank_policy)[0])


def edmd(snap: SnapshotPair, dictionary: Dictionary,
         rank_policy: RankPolicy = RankPolicy()) -> KoopmanSpectrum:
    """The benchmark's stack-of-one EDMD alias of `DecompositionSettings.spectrum`,
    its error raised; it goes with ROADMAP item 9."""
    if dictionary is None:
        raise InvalidInputError("edmd needs a dictionary")
    X, Y = np.asarray(snap.X)[None], np.asarray(snap.Y)[None]
    return result_or_raise(decompose_stack(X, Y, snap.observable_tag, dictionary,
                                           rank_policy)[0])


def _lattice_free(lam: np.ndarray, lattice_tol: float, max_power: int) -> np.ndarray:
    """The walk of principal_sets over one row `lam`, in canonical order
    and rid of its unit eigenvalues: the row's principal set."""
    decided = np.zeros(lam.size, dtype=bool)
    keep = np.zeros(lam.size, dtype=bool)
    # levels[d]: every product of d retained eigenvalues; `joining` enters at the next test
    levels = [[1.0 + 0.0j]] + [[] for _ in range(max_power)]
    joining: list[complex] = []
    products = np.empty(0, dtype=complex)
    for i in range(lam.size):
        if decided[i]:
            continue
        group = [i]
        if abs(lam[i].imag) > PAIR_TOL:
            for j in range(i + 1, lam.size):
                if not decided[j] and abs(lam[j] - np.conj(lam[i])) <= PAIR_TOL:
                    group.append(j)
                    break
        if joining:
            for r, d in itertools.product(joining, range(1, max_power + 1)):
                levels[d] += [p * r for p in levels[d - 1]]
            joining = []
            products = np.array([p for level in levels[2:] for p in level], dtype=complex)
        # a NaN product (an overflowing pair's square) is near nothing and
        # hides no other product
        is_product = products.size > 0 and (np.abs(products - lam[i]) <= lattice_tol).any()
        for j in group:
            decided[j] = True
            keep[j] = not is_product
        if not is_product:
            joining.extend(lam[j] for j in group)
    return lam[keep]


def principal_sets(lam, lattice_tol: float, max_power: int, ignore_unit: bool):
    """Reduce each row of `lam`, an (N, k) stack of eigenvalues, to its
    generating set, as (P, size): row i's set is P[i, :size[i]].

    Walking a row in canonical order (descending modulus), an eigenvalue is
    dropped when it lies within lattice_tol of a product of 2 to max_power
    retained eigenvalues, repeats allowed; a conjugate pair is kept or
    dropped together. With ignore_unit, eigenvalues within lattice_tol of 1,
    the constant-observable mode, are removed first. Rows of more than two,
    and a lone row of two, take the walk one at a time; in a stack of two or
    more, rows of two take its tests in closed form, all at once, bit for
    bit: the pair test by hypot and the powers l0**2 .. l0**max_power by
    non-fused products, as the walk's complex scalar arithmetic gives them
    and NumPy's array loops do not. Rows of one need no test. A NaN product
    is near no eigenvalue. Floating-point events are ignored. A lattice_tol
    that is not a non-negative tolerance, or a max_power that is not a
    positive count, raises InvalidInputError; a non-finite eigenvalue raises
    NumericFailureError."""
    tolerance("lattice_tol", lattice_tol, InvalidInputError)
    count("max_power", max_power, 1, InvalidInputError)
    lam = np.asarray(lam, dtype=complex)
    if not np.isfinite(lam).all():
        raise NumericFailureError("an eigenvalue is not finite")
    with np.errstate(all="ignore"):
        live = np.abs(lam - 1.0) > lattice_tol if ignore_unit else np.ones(lam.shape, bool)
        size = live.sum(axis=1)
        lam = lam[np.arange(len(lam))[:, None], _canonical_order(lam, ~live)]  # unit ones last
        if lam.shape[1] > 2 or lam.shape == (1, 2):
            for i, n in enumerate(size.tolist()):
                kept = _lattice_free(lam[i, :n], lattice_tol, max_power)
                lam[i, :kept.size], size[i] = kept, kept.size
        elif lam.shape[1] == 2 and max_power >= 2:
            l0, l1 = lam[:, 0], lam[:, 1]
            gap = l1 - np.conj(l0)
            paired = (np.abs(l0.imag) > PAIR_TOL) & (np.hypot(gap.real, gap.imag) <= PAIR_TOL)
            re, im = a, b = l0.real, l0.imag  # (1 + 0j) * l0, up to the sign of a zero
            powers = np.empty((len(lam), max_power - 1, 2))
            for d in range(max_power - 1):
                re, im = re * a - im * b, re * b + im * a
                powers[:, d, 0], powers[:, d, 1] = re, im
            near = (np.abs(powers.view(complex)[:, :, 0] - l1[:, None]) <= lattice_tol).any(axis=1)
            size[(size == 2) & ~paired & near] = 1
    return lam, size


def principal_eigenvalues(spectrum, lattice_tol: float = 1e-6, max_power: int = 4,
                          ignore_unit: bool = False) -> np.ndarray:
    """Reduce a spectrum, or an array of eigenvalues, to its generating set:
    principal_sets of the one row, with its rule and its checks."""
    lam = np.asarray(getattr(spectrum, "eigenvalues", spectrum), dtype=complex).ravel()
    P, size = principal_sets(lam[None], lattice_tol, max_power, ignore_unit)
    return P[0, :size[0]]
