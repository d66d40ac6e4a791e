"""Closed-form gradient and proximal oracles used by the benchmark algorithms.

All operations are pure functions of their inputs and safe to call
concurrently.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError, InvalidInputError, NumericFailureError


class OracleKind(Enum):
    GRAD_QUADRATIC = "grad_quadratic"
    GRAD_NEGCOS = "grad_negcos"
    PROX_L2 = "prox_l2"
    PROX_NEGLOGDET = "prox_neglogdet"


_GRAD_KINDS = {OracleKind.GRAD_QUADRATIC, OracleKind.GRAD_NEGCOS}
_PROX_KINDS = {OracleKind.PROX_L2, OracleKind.PROX_NEGLOGDET}


def _check_finite(x, what="input"):
    if not np.all(np.isfinite(x)):
        raise InvalidInputError(f"{what} contains non-finite entries")


def grad_quadratic(x):
    """Gradient of x**2 applied elementwise: returns 2*x."""
    x = np.asarray(x, dtype=float)
    _check_finite(x)
    return 2.0 * x


def grad_negcos(x):
    """Gradient of -cos(x) applied elementwise: returns sin(x)."""
    x = np.asarray(x, dtype=float)
    _check_finite(x)
    return np.sin(x)


def prox_l2(v, gamma):
    """Proximal operator of the Euclidean norm (block soft threshold).

    Minimizes ||u||_2 + ||u - v||**2 / (2*gamma); the minimizer is
    max(0, 1 - gamma/||v||) * v, with 0 at v = 0.
    """
    if gamma <= 0:
        raise InvalidInputError("gamma must be positive")
    v = np.asarray(v, dtype=float)
    _check_finite(v)
    n = np.linalg.norm(v)
    if n == 0.0:
        return np.zeros_like(v)
    return max(0.0, 1.0 - gamma / n) * v


def prox_neglogdet(V, gamma):
    """Proximal operator of -log(det(.)) on a symmetric matrix.

    Eigendecomposes V and maps each eigenvalue t to (t + sqrt(t*t + 4*gamma))/2,
    which solves the per-eigenvalue stationarity condition of
    -log(det(U)) + ||U - V||_F**2 / (2*gamma). The map is positive for every
    real t, so V need not be positive definite; the result always is.
    """
    if gamma <= 0:
        raise InvalidInputError("gamma must be positive")
    V = np.asarray(V, dtype=float)
    _check_finite(V)
    if V.ndim != 2 or V.shape[0] != V.shape[1] or V.size == 0:
        raise InvalidInputError("expected a non-empty square matrix")
    scale = max(1.0, float(np.abs(V).max()))
    if not np.allclose(V, V.T, atol=1e-10 * scale):
        raise InvalidInputError("matrix is not symmetric")
    with np.errstate(all="ignore"):
        R = _prox_neglogdet(V, gamma)
    # entries near the float limit overflow; Oracle.apply leaves this to iterate
    if not np.all(np.isfinite(R)):
        raise NumericFailureError("log-det prox overflowed to a non-finite matrix")
    return R


def _prox_neglogdet(V, gamma):
    """The log-det prox of a finite, square, symmetric V with gamma > 0, unchecked."""
    w, Q = np.linalg.eigh((V + V.T) / 2.0)
    m = (w + np.sqrt(w * w + 4.0 * gamma)) / 2.0
    R = (Q * m) @ Q.T
    return (R + R.T) / 2.0


@lru_cache(maxsize=8)
def _triu(n):
    """Row and column indices of the upper triangle of an n x n matrix, read-only."""
    idx = np.triu_indices(n)
    for a in idx:
        a.flags.writeable = False
    return idx


def sym_flatten(V):
    """Upper-triangle flattening of a symmetric n x n matrix to length n(n+1)/2."""
    V = np.asarray(V, dtype=float)
    if V.ndim != 2 or V.shape[0] != V.shape[1]:
        raise InvalidInputError("expected a square matrix")
    return V[_triu(V.shape[0])]


def sym_unflatten(v, n):
    """Inverse of sym_flatten."""
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise InvalidInputError(f"n must be a non-negative integer, got {n!r}")
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise InvalidInputError("expected a 1-D array of upper-triangle entries")
    if v.size != n * (n + 1) // 2:
        raise InvalidInputError(f"expected {n*(n+1)//2} entries for a {n}x{n} symmetric matrix")
    rows, cols = _triu(n)
    V = np.zeros((n, n))
    V[rows, cols] = v
    V[cols, rows] = v
    return V + 0.0  # -0.0 entries (prox_l2 can emit them) become +0.0


@dataclass(frozen=True)
class Oracle:
    """A gradient or proximal oracle with its parameters.

    `gamma` is the proximal step (ignored by gradient kinds). `domain_dim` is
    the side length n of the symmetric matrix argument for PROX_NEGLOGDET and
    the vector length otherwise.
    """

    kind: OracleKind
    gamma: float = 1.0
    domain_dim: int = 1

    def __post_init__(self):
        if self.kind in _PROX_KINDS and self.gamma <= 0:
            raise ConfigurationError("proximal oracles need gamma > 0")
        if self.domain_dim < 1:
            raise ConfigurationError("domain_dim must be a positive integer")

    @property
    def is_gradient(self) -> bool:
        return self.kind in _GRAD_KINDS

    @property
    def is_proximal(self) -> bool:
        return self.kind in _PROX_KINDS

    @property
    def state_dim(self) -> int:
        """Length of the flattened state block this oracle acts on."""
        if self.kind is OracleKind.PROX_NEGLOGDET:
            n = self.domain_dim
            return n * (n + 1) // 2
        return self.domain_dim

    def apply(self, v):
        """Evaluate the oracle on a flattened state block."""
        if self.kind is OracleKind.GRAD_QUADRATIC:
            return grad_quadratic(v)
        if self.kind is OracleKind.GRAD_NEGCOS:
            return grad_negcos(v)
        if self.kind is OracleKind.PROX_L2:
            return prox_l2(v, self.gamma)
        # sym_unflatten builds an exactly symmetric square matrix and
        # __post_init__ enforced gamma > 0, so only finiteness is left to check.
        M = sym_unflatten(v, self.domain_dim)
        _check_finite(M)
        return _prox_neglogdet(M, self.gamma)[_triu(self.domain_dim)]

    @property
    def tag(self) -> str:
        if self.is_gradient:
            return self.kind.value
        return f"{self.kind.value}(gamma={self.gamma!r})"
