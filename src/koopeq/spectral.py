"""Finite Koopman mode decompositions from snapshot data.

`dmd` fits a linear operator to the raw snapshots; `edmd` first lifts them
through a dictionary of observables. Both return a KoopmanSpectrum holding
triplets (eigenvalue, mode, eigenfunction coefficients) such that the state
at step k is approximated by

    sum_r  lambda_r**k * (coeffs_r . psi(x_0)) * mode_r

where psi is the dictionary (the identity for plain DMD).
"""
from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (ConfigurationError, DegenerateDataError, InvalidInputError,
                     InvalidObservableError, NumericFailureError)
from .trajectory import SnapshotPair

PAIR_TOL = 1e-10  # conjugate-partner detection


class DictionaryKind(Enum):
    IDENTITY = "identity"
    MONOMIALS = "monomials"
    CUSTOM = "custom"


def _monomial_exponents(dim: int, max_degree: int):
    """All exponent tuples with total degree <= max_degree, constant first,
    graded lexicographic within each degree."""
    out = []
    for total in range(max_degree + 1):
        for combo in itertools.combinations_with_replacement(range(dim), total):
            e = [0] * dim
            for i in combo:
                e[i] += 1
            out.append(tuple(e))
    return out


@dataclass(frozen=True)
class Dictionary:
    """An ordered set of scalar observables used as the EDMD lifting basis."""

    kind: DictionaryKind
    dim: int
    max_degree: Optional[int] = None
    functions: Optional[tuple] = None  # tuple of (name, callable state -> scalar)

    @staticmethod
    def identity(dim: int) -> "Dictionary":
        return Dictionary(DictionaryKind.IDENTITY, dim=dim)

    @staticmethod
    def monomials(dim: int, max_degree: int) -> "Dictionary":
        """All monomials of total degree <= max_degree, constant included."""
        if max_degree < 1:
            raise ConfigurationError("max_degree must be a positive integer")
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
            rows = [np.prod(states.T ** np.array(e), axis=1) for e in
                    _monomial_exponents(self.dim, self.max_degree)]
            out = np.array(rows)
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
    """SVD truncation rule: keep `rank` modes when set, otherwise every
    singular value above rel_tol * sigma_max."""

    rank: Optional[int] = None
    rel_tol: float = 1e-10

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


def _canonical_order(lam: np.ndarray) -> np.ndarray:
    return np.lexsort((-lam.imag, -lam.real, -np.abs(lam)))


def _truncated_svd(X: np.ndarray, policy: RankPolicy):
    U, s, Vh = np.linalg.svd(X, full_matrices=False)
    if s.size == 0 or s[0] <= 0.0:
        raise DegenerateDataError("all singular values vanish; no dynamics in the data")
    r = int(np.sum(s > policy.rel_tol * s[0]))
    if r == 0:
        raise DegenerateDataError("every singular value falls below the threshold")
    if policy.rank is not None:
        if policy.rank < 1:
            raise ConfigurationError("rank must be a positive integer")
        r = min(policy.rank, r)
    return U[:, :r], s[:r], Vh[:r]


def _decompose(PX, PY, Xstate, Ystate, policy, method, dict_tag, obs_tag):
    """Shared DMD/EDMD core: reduced operator, eigentriplets, training error.
    Non-finite data and a LAPACK failure are a NumericFailureError."""
    if not (np.all(np.isfinite(PX)) and np.all(np.isfinite(PY))):
        raise NumericFailureError(f"{method} failed: the data holds non-finite values")
    try:
        U, s, Vh = _truncated_svd(PX, policy)
        reduced = U.conj().T @ PY @ Vh.conj().T / s
        lam, W = np.linalg.eig(reduced)
        if method == "dmd":
            B = np.eye(Xstate.shape[0])
        else:
            # least-squares recovery of the state from the lifted basis
            B = Xstate @ np.linalg.pinv(PX, rcond=1e-12)
        modes = B @ (U @ W)
        coeffs = np.linalg.solve(W, U.conj().T)
    except np.linalg.LinAlgError as exc:
        raise NumericFailureError(f"{method} failed: {exc}") from exc
    order = _canonical_order(lam)
    lam, modes, coeffs = lam[order], modes[:, order], coeffs[order]
    Yhat = (modes * lam) @ (coeffs @ PX)
    ynorm = np.linalg.norm(Ystate)
    err = float(np.linalg.norm(Yhat - Ystate) / ynorm) if ynorm > 0 else 0.0
    return KoopmanSpectrum(eigenvalues=lam, modes=modes, eigfn_coeffs=coeffs,
                           method=method, rank=lam.size, dictionary_tag=dict_tag,
                           reconstruction_error=err, centering_tag=obs_tag)


def dmd(snap: SnapshotPair, rank_policy: RankPolicy = RankPolicy()) -> KoopmanSpectrum:
    """Dynamic mode decomposition of the snapshot pair.

    SVD-truncates X per rank_policy, eigendecomposes the reduced operator and
    lifts eigenvectors back to state-space modes.
    """
    if snap.X.size == 0:
        raise DegenerateDataError("empty snapshot pair")
    return _decompose(snap.X, snap.Y, snap.X, snap.Y, rank_policy,
                      "dmd", "identity", snap.observable_tag)


def edmd(snap: SnapshotPair, dictionary: Dictionary,
         rank_policy: RankPolicy = RankPolicy()) -> KoopmanSpectrum:
    """Extended DMD: lift the snapshots through `dictionary`, fit the
    least-squares Koopman matrix in the lifted space, and recover state-space
    modes by projecting the identity observable onto the eigenvectors."""
    if snap.X.size == 0:
        raise DegenerateDataError("empty snapshot pair")
    m = snap.X.shape[1]
    if m < dictionary.output_dim:
        warnings.warn(f"only {m} snapshot pairs for a dictionary of size "
                      f"{dictionary.output_dim}; the fit is underdetermined",
                      stacklevel=2)
    PX = dictionary.lift(snap.X)
    PY = dictionary.lift(snap.Y)
    state_spread = np.max(np.abs(snap.X - snap.X[:, :1])) if m > 1 else 0.0
    lifted_spread = np.max(np.abs(PX - PX[:, :1])) if m > 1 else 0.0
    if m > 1 and state_spread > 0 and lifted_spread <= 1e-14 * max(1.0, np.abs(PX).max()):
        raise DegenerateDataError("observables are constant on the data; "
                                  "no dynamics representable")
    return _decompose(PX, PY, snap.X, snap.Y, rank_policy,
                      "edmd", dictionary.tag, snap.observable_tag)


def _lattice_products(retained: list, max_power: int) -> np.ndarray:
    """Products prod(lam_i ** k_i) over 2 <= sum(k_i) <= max_power."""
    out = []
    n = len(retained)
    for total in range(2, max_power + 1):
        for combo in itertools.combinations_with_replacement(range(n), total):
            p = 1.0 + 0.0j
            for i in combo:
                p *= retained[i]
            out.append(p)
    return np.array(out) if out else np.empty(0, dtype=complex)


def principal_eigenvalues(spectrum, lattice_tol: float = 1e-6, max_power: int = 4,
                          ignore_unit: bool = False,
                          unit_tol: Optional[float] = None) -> np.ndarray:
    """Reduce a spectrum to its generating set.

    Walking the eigenvalues in descending modulus, an eigenvalue is dropped
    when it lies within lattice_tol of some product of already-retained
    eigenvalues with integer exponents summing to between 2 and max_power.
    Conjugate pairs are kept or dropped together. With ignore_unit, eigenvalues
    within unit_tol (default lattice_tol) of 1 are removed first: they are the
    constant-observable mode, not dynamics.
    """
    lam = np.asarray(getattr(spectrum, "eigenvalues", spectrum), dtype=complex).ravel()
    if lam.size == 0:
        return lam
    lam = lam[_canonical_order(lam)]
    if ignore_unit:
        tol1 = lattice_tol if unit_tol is None else unit_tol
        lam = lam[np.abs(lam - 1.0) > tol1]
    decided = np.zeros(lam.size, dtype=bool)
    keep = np.zeros(lam.size, dtype=bool)
    retained: list[complex] = []
    products = np.empty(0, dtype=complex)  # lattice of `retained`; None when stale
    for i in range(lam.size):
        if decided[i]:
            continue
        group = [i]
        if abs(lam[i].imag) > PAIR_TOL:
            for j in range(i + 1, lam.size):
                if not decided[j] and abs(lam[j] - np.conj(lam[i])) <= PAIR_TOL:
                    group.append(j)
                    break
        if products is None:
            products = _lattice_products(retained, max_power)
        is_product = products.size > 0 and np.min(np.abs(products - lam[i])) <= lattice_tol
        for j in group:
            decided[j] = True
            keep[j] = not is_product
        if not is_product:
            retained.extend(lam[j] for j in group)
            products = None
    return lam[keep]


def reconstruct(spectrum: KoopmanSpectrum, x0_lifted, k: int) -> np.ndarray:
    """Predict the (possibly lifted) initial condition k steps ahead:
    sum_r lambda_r**k * phi_r(x0) * mode_r."""
    x0 = np.asarray(x0_lifted)
    if x0.size != spectrum.eigfn_coeffs.shape[1]:
        raise InvalidInputError(
            f"x0_lifted has length {x0.size}, decomposition space is "
            f"{spectrum.eigfn_coeffs.shape[1]}")
    if k < 0:
        raise InvalidInputError("k must be nonnegative")
    amps = spectrum.eigfn_coeffs @ x0
    return (spectrum.modes * spectrum.eigenvalues ** k) @ amps
