"""Closed-form gradient and proximal oracles used by the benchmark algorithms.

All operations are pure functions of their inputs and safe to call
concurrently.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import (ConfigurationError, InvalidInputError, NonFiniteInputError,
                     NumericFailureError, count, tolerance)


class OracleKind(Enum):
    GRAD_QUADRATIC = "grad_quadratic"
    GRAD_NEGCOS = "grad_negcos"
    PROX_L2 = "prox_l2"
    PROX_NEGLOGDET = "prox_neglogdet"


_GRAD_KINDS = {OracleKind.GRAD_QUADRATIC, OracleKind.GRAD_NEGCOS}
_PROX_KINDS = {OracleKind.PROX_L2, OracleKind.PROX_NEGLOGDET}
# the kinds as module globals for Oracle.apply's dispatch: reading a member
# off the Enum class costs about 0.1 us
_GRAD_QUADRATIC, _GRAD_NEGCOS, _PROX_L2 = (
    OracleKind.GRAD_QUADRATIC, OracleKind.GRAD_NEGCOS, OracleKind.PROX_L2)


# the Python sum beats NumPy's exact test up to about 30 entries; proximal
# blocks hold 3 to 6, a sweep row's gradient blocks 21 or 41
_SCREENED = 16


def _check_finite(x, what="input"):
    """Raise NonFiniteInputError unless every entry of the float array x is
    finite. A block of at most _SCREENED entries passes with no NumPy call
    when the Python sum of its entries is finite, as it is only when every
    entry is; a sum that is not (a non-finite entry, or finite entries whose
    sum overflows) and a larger block take NumPy's exact test."""
    if x.size <= _SCREENED and math.isfinite(sum(x.ravel().tolist())):
        return
    if np.count_nonzero(np.isfinite(x)) != x.size:
        raise NonFiniteInputError(f"{what} contains non-finite entries")


def _finite(x):
    """x as a float array, checked finite; an np.float64 scalar stays one,
    since NumPy gives it the same bits and type as its 0-d array."""
    if type(x) is np.float64:
        if not math.isfinite(x):
            raise NonFiniteInputError("input contains non-finite entries")
        return x
    x = np.asarray(x, dtype=float)
    _check_finite(x)
    return x


def grad_quadratic(x):
    """Gradient of x**2 applied elementwise: returns 2*x."""
    return 2.0 * _finite(x)


def grad_negcos(x):
    """Gradient of -cos(x) applied elementwise: returns sin(x)."""
    return np.sin(_finite(x))


def prox_l2(v, gamma):
    """Proximal operator of the Euclidean norm (block soft threshold).

    Minimizes ||u||_2 + ||u - v||**2 / (2*gamma); the minimizer is
    max(0, 1 - gamma/||v||) * v, with 0 at v = 0.
    """
    tolerance("gamma", gamma, InvalidInputError, positive=True)
    v = np.asarray(v, dtype=float)
    _check_finite(v)
    return _prox_l2(v, gamma)


def _prox_l2(v, gamma):
    """The l2 prox of a finite float array v with finite gamma > 0, unchecked.
    The norm is the square root of a dot, np.linalg.norm's own steps."""
    r = v.ravel(order="K")
    n = math.sqrt(r.dot(r))
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
    tolerance("gamma", gamma, InvalidInputError, positive=True)
    V = np.asarray(V, dtype=float)
    _check_finite(V)
    if V.ndim != 2 or V.shape[0] != V.shape[1] or V.size == 0:
        raise InvalidInputError("expected a non-empty square matrix")
    scale = max(1.0, float(np.abs(V).max()))
    if not np.allclose(V, V.T, atol=1e-10 * scale):
        raise InvalidInputError("matrix is not symmetric")
    with np.errstate(all="ignore"):
        R = _prox_neglogdet((V + V.T) / 2.0, gamma)
        R = (R + R.T) / 2.0
    # entries near the float limit overflow; Oracle.apply leaves this to iterate
    if not np.all(np.isfinite(R)):
        raise NumericFailureError("log-det prox overflowed to a non-finite matrix")
    return R


def _eig_failed(err, flag):
    # np.linalg.eig's and eigh's handler: the gufunc flags a failed solve as
    # invalid
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


def _lapack(call):
    """The errstate np.linalg's eig, eigh and solve set around their
    gufuncs, `call` their handler of a failed solve."""
    return np.errstate(call=call, invalid="call", over="ignore", divide="ignore",
                       under="ignore")


def _prox_neglogdet(V, gamma):
    """The log-det prox of a finite, square, exactly symmetric V with finite
    gamma > 0, unchecked and not yet symmetrised: each caller makes V
    symmetric and takes (R + R.T) / 2 in its own shape. eigh failing to
    converge, as on entries near the float limit, is a NumericFailureError.

    V goes straight to the LAPACK gufunc behind np.linalg.eigh, under the
    errstate eigh sets: for such a V, eigh's checks, type casts and result
    tuple do nothing but add time to every call.

    The eigenvalue map runs on Python floats, NumPy's IEEE operations in its
    order; an eigenvalue whose square overflows maps to inf with no
    floating-point event of its own, and R is then not finite."""
    try:
        with _lapack(_eig_failed):
            w, Q = _umath_linalg.eigh_lo(V, signature="d->dd")
    except np.linalg.LinAlgError as exc:
        raise NumericFailureError(f"log-det prox failed: {exc}") from None
    g4 = 4.0 * gamma
    m = np.array([(t + math.sqrt(t * t + g4)) / 2.0 for t in w.tolist()])
    return (Q * m) @ Q.T


@lru_cache(maxsize=8)
def _sym_index(n):
    """Read-only flat indices for n x n symmetric matrices: `full` gathers a
    matrix from its upper-triangle flattening, and the two rows of `pair`
    read the upper triangle of a matrix and of its transpose, in flattening
    order."""
    rows, cols = np.triu_indices(n)
    full = np.empty((n, n), dtype=np.intp)
    full[rows, cols] = full[cols, rows] = np.arange(rows.size)
    pair = np.stack([rows * n + cols, cols * n + rows])
    for a in (full, pair):
        a.flags.writeable = False
    return full, pair


def sym_flatten(V):
    """Upper-triangle flattening of a symmetric n x n matrix to length n(n+1)/2."""
    V = np.asarray(V, dtype=float)
    if V.ndim != 2 or V.shape[0] != V.shape[1]:
        raise InvalidInputError("expected a square matrix")
    return V.take(_sym_index(V.shape[0])[1][0])


def sym_unflatten(v, n):
    """Inverse of sym_flatten."""
    count("n", n, 0, InvalidInputError)
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise InvalidInputError("expected a 1-D array of upper-triangle entries")
    if v.size != n * (n + 1) // 2:
        raise InvalidInputError(f"expected {n*(n+1)//2} entries for a {n}x{n} symmetric matrix")
    return v.take(_sym_index(n)[0]) + 0.0  # -0.0 entries (prox_l2 can emit them) become +0.0


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
        if self.kind in _PROX_KINDS:
            tolerance("gamma", self.gamma, ConfigurationError, positive=True)
        count("domain_dim", self.domain_dim, 1, ConfigurationError)

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
        kind = self.kind
        if kind is _GRAD_QUADRATIC:
            return grad_quadratic(v)
        if kind is _GRAD_NEGCOS:
            return grad_negcos(v)
        # __post_init__ enforced a finite gamma > 0, so the proximal kinds only
        # check the block itself before their kernels
        v = np.asarray(v, dtype=float)
        if kind is _PROX_L2:
            _check_finite(v)
            return _prox_l2(v, self.gamma)
        full, pair = _sym_index(self.domain_dim)
        if v.shape != pair.shape[1:]:
            # raises its own error for a block of the wrong shape
            sym_unflatten(v, self.domain_dim)
        _check_finite(v)
        M = v.take(full)  # sym_unflatten(v, n) past its checks: exactly symmetric
        M += 0.0
        R = _prox_neglogdet(M, self.gamma)
        T = R.take(pair)
        return (T[0] + T[1]) / 2.0  # sym_flatten((R + R.T) / 2.0)

    @property
    def tag(self) -> str:
        if self.is_gradient:
            return self.kind.value
        return f"{self.kind.value}(gamma={float(self.gamma)!r})"
