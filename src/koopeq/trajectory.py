"""Run a map from an initial state, detect convergence or blow-up, and
assemble the paired snapshot matrices consumed by the spectral module."""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .corpus import IterativeMap
from .errors import (ConfigurationError, InsufficientDataError, InvalidInputError,
                     KoopeqError, NumericFailureError, result_or_raise)


class TrajectoryStatus(Enum):
    CONVERGED = "converged"
    BUDGET_EXHAUSTED = "budget_exhausted"
    DIVERGED = "diverged"


class Centering(Enum):
    NONE = "none"
    FIXED_POINT = "fixed_point"


@dataclass(frozen=True)
class RunConfig:
    """Iteration budget, fixed-point tolerance and blow-up threshold."""

    max_iters: int = 200
    eps: float = 1e-12
    overflow_cap: float = 1e8

    def __post_init__(self):
        n = self.max_iters
        if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 2:
            raise ConfigurationError(f"max_iters must be an integer of at least 2, got {n!r}")
        for name in ("eps", "overflow_cap"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, numbers.Real):
                raise ConfigurationError(f"{name} must be a real number, got {v!r}")
        if not self.eps > 0:
            raise ConfigurationError("eps must be positive")
        if not self.overflow_cap > self.eps:
            raise ConfigurationError("overflow_cap must exceed eps")


@dataclass
class Trajectory:
    """States x_0..x_K stacked row-wise, with the stop reason; x_K stands in
    for a converged run's fixed point."""

    states: np.ndarray  # shape (K+1, dim)
    status: TrajectoryStatus

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    def __len__(self) -> int:
        return self.states.shape[0]

    def discard_prefix(self, k: int) -> "Trajectory":
        """Drop the first k states (transient removal); keeps at least 3."""
        k = max(0, min(k, len(self) - 3))
        return Trajectory(self.states[k:], self.status)


@dataclass
class SnapshotPair:
    """Column-paired data matrices: column j of Y is the one-step image of
    column j of X under the map, in the identity observable."""

    X: np.ndarray  # shape (dim, m)
    Y: np.ndarray
    observable_tag: str = "identity"


_NAN = "nan"  # _stop's verdict on a state that holds a NaN


def _stop(xn: np.ndarray, x: np.ndarray, cfg: RunConfig):
    """How a run ends at the state xn that follows x: None while it runs on,
    _NAN for a NaN, else CONVERGED or DIVERGED. Both tests are the square
    root of a dot, np.linalg.norm's own steps."""
    v = xn.ravel(order="K")
    sq = v.dot(v)  # NaN exactly when xn holds a NaN
    if sq != sq:
        return _NAN
    d = (xn - x).ravel(order="K")
    if math.sqrt(d.dot(d)) <= cfg.eps:
        return TrajectoryStatus.CONVERGED
    if math.sqrt(sq) >= cfg.overflow_cap:
        return TrajectoryStatus.DIVERGED
    return None


def _result(states: np.ndarray, stop):
    """A run's result from its states, short of a NaN state, and how it
    stopped (`_stop`'s verdict, or None when the budget ran out): a
    Trajectory, or for a NaN the NumericFailureError carrying the states."""
    if stop is _NAN:
        partial = Trajectory(states, TrajectoryStatus.BUDGET_EXHAUSTED)
        return NumericFailureError("NaN produced mid-run", partial=partial)
    return Trajectory(states, TrajectoryStatus.BUDGET_EXHAUSTED if stop is None else stop)


def iterate(imap: IterativeMap, x0, cfg: RunConfig = RunConfig()) -> Trajectory:
    """Apply imap.step repeatedly from x0.

    Stops at the first of: successive-iterate distance <= eps (CONVERGED),
    max_iters steps taken (BUDGET_EXHAUSTED), or state norm >= overflow_cap
    (DIVERGED; the crossing state is retained since growing modes are data).
    A NaN mid-run raises NumericFailureError carrying the partial trajectory.
    """
    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    if x.size != imap.dim:
        raise InvalidInputError(f"x0 has length {x.size}, map expects {imap.dim}")
    if not np.isfinite(x).all():
        raise InvalidInputError("x0 contains non-finite entries")
    states = [x]
    step, dim = imap.step, imap.dim
    for _ in range(cfg.max_iters):
        xn = np.asarray(step(x), dtype=float)
        if xn.ndim == 0:
            xn = xn.reshape(1)
        if xn.size != dim:
            raise ConfigurationError("step changed the state dimension")
        stop = _stop(xn, x, cfg)
        if stop is _NAN:
            break
        states.append(xn)
        if stop is not None:
            break
        x = xn
    return result_or_raise(_result(np.array(states), stop))


def iterate_many(imap: IterativeMap, X0, cfg: RunConfig = RunConfig()) -> list:
    """`iterate` from every row of X0 (shape (N, dim)).

    Returns, per row, the Trajectory that `iterate` returns or the KoopeqError
    it raises, bit for bit. A columnwise map steps the finite starts together
    as one (dim, N) block, a chunk of steps at a time, stepping only the
    columns still running at the chunk's start; after each chunk one stacked
    screen clears the steps far from both stop thresholds, and the others
    take `iterate`'s stop rules in order. Its history buffer grows with the
    longest run, not with `cfg.max_iters`. Other maps, other starts, and the
    columns still running when a block step raises a KoopeqError that no
    stop explains run through `iterate` itself.
    """
    X0 = np.asarray(X0, dtype=float)
    if X0.ndim != 2:
        raise InvalidInputError("X0 must hold one initial state per row")
    out = [None] * X0.shape[0]
    serial = range(X0.shape[0])
    if imap.columnwise and X0.shape[1] == imap.dim:
        finite = np.all(np.isfinite(X0), axis=1)
        rows = np.flatnonzero(finite)
        serial = [*np.flatnonzero(~finite), *_iterate_block(imap, X0[rows], rows, cfg, out)]
    for j in serial:
        try:
            out[j] = iterate(imap, X0[j], cfg)
        except KoopeqError as exc:
            out[j] = exc
    return out


# steps a block takes between two screens: a column runs at most _CHUNK - 1
# steps past its stop, and none of those states reaches a result
_CHUNK = 16
# relative margin of the block screen, far above the rounding of a sum of
# squares taken in another order; its bounds stay inside [_TINY, 1 / _TINY]
# (_HUGE squared), clear of subnormals and overflow
_MARGIN = 1e-9
_TINY = 1e-290
_HUGE = 1e145


def _screen(T: np.ndarray, cfg: RunConfig) -> np.ndarray:
    """For the states T (shape (c + 1, dim, N)) of N columns over c steps,
    the (c, N) mask of the steps that end their run by neither of `_stop`'s
    tests: the squared step length lies above (eps (1 + margin))**2 and the
    squared norm below (overflow_cap (1 - margin))**2. A NaN or an infinity
    fails the screen; a column stepped past its stop may hold them, so their
    arithmetic here raises no warning."""
    lo = cfg.eps * (1 + _MARGIN)
    lo = max(lo * lo, _TINY) if lo < _HUGE else math.inf
    hi = min(cfg.overflow_cap * (1 - _MARGIN), _HUGE)
    hi = hi * hi if hi * hi >= _TINY else 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        S = np.stack((T[1:] - T[:-1], T[1:]))
        S *= S
        sq = S.sum(axis=2)
    return (sq[0] > lo) & (sq[1] < hi)


def _iterate_block(imap: IterativeMap, X0: np.ndarray, rows: np.ndarray,
                   cfg: RunConfig, out: list) -> list:
    """Step the finite starts X0 (shape (n, dim)) as columns of one block and
    store the result of start c in out[rows[c]].

    The block takes `_CHUNK` steps between screens. Each `_screen` clears
    the chunk's steps far from both stop thresholds; a column with a step
    it does not clear takes `_stop`'s exact tests on those steps in order,
    and the first stop ends its run there. When a block step raises a
    KoopeqError, the steps before it are resolved the same way, and the
    block goes on without the columns they stopped; if they stopped none,
    the rows still running are returned, for `iterate` to redo."""
    n, dim = X0.shape
    # H[k, :, c]: state k of start c; doubled as the longest run needs it
    H = np.empty((min(cfg.max_iters, 63) + 1, dim, n))
    H[0] = X0.T
    run, k = np.arange(n), 0
    while run.size and k < cfg.max_iters:
        k0, end = k, min(k + _CHUNK, cfg.max_iters)
        if end >= len(H):
            H = np.concatenate([H, np.empty((min(len(H), cfg.max_iters + 1 - len(H)), dim, n))])
        # B[j]: state k0 + j of the running columns; H itself while all run
        full = run.size == n
        B = H[k0:end + 1] if full else np.empty((end - k0 + 1, dim, run.size))
        if not full:
            B[0] = H[k0][:, run]
        failed = False
        try:
            while k < end:
                B[k + 1 - k0] = imap.step(B[k - k0])
                k += 1
        except KoopeqError:
            failed = True
        if not full:
            H[k0 + 1:k + 1, :, run] = B[1:k + 1 - k0]
        clear = _screen(B[:k + 1 - k0], cfg)
        stopped = []
        for i in np.flatnonzero(~clear.all(axis=0)):
            c = run[i]
            for j in k0 + np.flatnonzero(~clear[:, i]):
                stop = _stop(H[j + 1, :, c], H[j, :, c], cfg)
                if stop is not None:
                    break
            else:
                continue
            end = j + 1 if stop is _NAN else j + 2
            out[rows[c]] = _result(H[:end, :, c].copy(), stop)
            stopped.append(i)
        if failed and not stopped:
            return list(rows[run])
        if stopped:
            run = np.delete(run, stopped)
    for c in run:
        out[rows[c]] = _result(H[:k + 1, :, c].copy(), None)
    return []


def snapshots(traj: Trajectory, centering: Optional[Centering] = None) -> SnapshotPair:
    """Pair consecutive states into (X, Y) columns.

    FIXED_POINT subtracts the final state from every column; centering=None
    does so for a converged run and leaves any other run uncentred.
    """
    if len(traj) < 3:
        raise InsufficientDataError(f"need at least 3 states, got {len(traj)}")
    if centering is None:
        converged = traj.status is TrajectoryStatus.CONVERGED
        centering = Centering.FIXED_POINT if converged else Centering.NONE
    data = traj.states
    tag = "identity"
    if centering is Centering.FIXED_POINT:
        data = data - data[-1]
        tag = "identity(centered)"
    return SnapshotPair(X=data[:-1].T.copy(), Y=data[1:].T.copy(), observable_tag=tag)


def multi_snapshots(trajs, centering: Optional[Centering] = None) -> SnapshotPair:
    """Column-concatenate per-trajectory snapshot pairs.

    Pairing never crosses trajectory boundaries; `snapshots` centres each
    trajectory on its own final state.
    """
    trajs = list(trajs)
    if not trajs:
        raise InsufficientDataError("no trajectories given")
    dims = {t.dim for t in trajs}
    if len(dims) != 1:
        raise ConfigurationError(f"trajectories have mixed dimensions {sorted(dims)}")
    parts = [snapshots(t, centering) for t in trajs]
    return SnapshotPair(X=np.hstack([p.X for p in parts]),
                        Y=np.hstack([p.Y for p in parts]),
                        observable_tag=parts[0].observable_tag)
