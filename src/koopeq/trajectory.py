"""Run a map from an initial state, detect convergence or blow-up, and
assemble the paired snapshot matrices consumed by the spectral module."""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional

import numpy as np

from .corpus import IterativeMap
from .errors import (ConfigurationError, InsufficientDataError, InvalidInputError,
                     KoopeqError, NumericFailureError)


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
        if self.max_iters < 2:
            raise ConfigurationError("max_iters must be at least 2")
        if not self.eps > 0:
            raise ConfigurationError("eps must be positive")
        if not self.overflow_cap > self.eps:
            raise ConfigurationError("overflow_cap must exceed eps")


@dataclass
class Trajectory:
    """States x_0..x_K stacked row-wise, with the stop reason."""

    states: np.ndarray  # shape (K+1, dim)
    status: TrajectoryStatus
    fixed_point_estimate: Optional[np.ndarray] = None

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    def __len__(self) -> int:
        return self.states.shape[0]

    def discard_prefix(self, k: int) -> "Trajectory":
        """Drop the first k states (transient removal); keeps at least 3."""
        k = max(0, min(k, len(self) - 3))
        return replace(self, states=self.states[k:])


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
    status = TrajectoryStatus.BUDGET_EXHAUSTED
    fpe = None
    step, dim = imap.step, imap.dim
    for _ in range(cfg.max_iters):
        xn = np.asarray(step(x), dtype=float)
        if xn.ndim == 0:
            xn = xn.reshape(1)
        if xn.size != dim:
            raise ConfigurationError("step changed the state dimension")
        stop = _stop(xn, x, cfg)
        if stop is _NAN:
            partial = Trajectory(np.array(states), TrajectoryStatus.BUDGET_EXHAUSTED)
            raise NumericFailureError("NaN produced mid-run", partial=partial)
        states.append(xn)
        x = xn
        if stop is not None:
            status = stop
            fpe = xn if stop is TrajectoryStatus.CONVERGED else None
            break
    return Trajectory(states=np.array(states), status=status, fixed_point_estimate=fpe)


def iterate_many(imap: IterativeMap, X0, cfg: RunConfig = RunConfig()) -> list:
    """`iterate` from every row of X0 (shape (N, dim)).

    Returns, per row, the Trajectory that `iterate` returns or the KoopeqError
    it raises, bit for bit. A columnwise map steps the finite starts together
    as one (dim, N) block, applying `iterate`'s stop rules to each column and
    stepping only the columns still running; its history buffer grows with
    the longest run, not with `cfg.max_iters`. Other maps, other starts, and
    the columns of a block step that raises a KoopeqError run through
    `iterate` itself.
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


# relative margin of the block screen, far above the rounding of a sum of
# squares taken in another order; its bounds stay inside [_TINY, 1 / _TINY],
# clear of subnormals and overflow
_MARGIN = 1e-9
_TINY = 1e-290


def _screen(dim: int, cfg: RunConfig):
    """(w, bounds) such that, with S the squares of a block's steps (dim, N)
    stacked on its new states, column c of `w @ S > bounds` all true marks a
    state that ends its run by neither of `_stop`'s tests: its squared step
    length lies above (eps (1 + margin))**2 and its squared norm below
    (overflow_cap (1 - margin))**2. A NaN fails the screen."""
    w = np.ones((2, 1, dim))
    w[1] = -1.0
    lo = max((cfg.eps * (1 + _MARGIN)) ** 2, _TINY)
    hi = (cfg.overflow_cap * (1 - _MARGIN)) ** 2
    hi = min(hi, 1 / _TINY) if hi >= _TINY else 0.0
    return w, np.array([lo, -hi]).reshape(2, 1, 1)


def _iterate_block(imap: IterativeMap, X0: np.ndarray, rows: np.ndarray,
                   cfg: RunConfig, out: list) -> list:
    """Step the finite starts X0 (shape (n, dim)) as columns of one block and
    store the result of start c in out[rows[c]]. A cheap screen clears the
    columns far from both stop thresholds; the rest take `iterate`'s own
    tests. Returns the rows still running when a block step failed, for
    `iterate` to redo."""
    n = X0.shape[0]
    # H[k, :, c]: state k of start c; doubled as the longest run needs it
    H = np.empty((min(cfg.max_iters, 63) + 1, imap.dim, n))
    H[0] = X0.T
    w, bounds = _screen(imap.dim, cfg)
    run = np.arange(n)
    for k in range(cfg.max_iters):
        if run.size == 0:
            return []
        X = H[k] if run.size == n else H[k][:, run]
        try:
            Xn = np.asarray(imap.step(X), dtype=float)
        except KoopeqError:
            return list(rows[run])
        if k + 1 == len(H):
            H = np.concatenate([H, np.empty((min(len(H), cfg.max_iters + 1 - len(H)),
                                             imap.dim, n))])
        H[k + 1][:, run] = Xn
        S = np.concatenate((Xn - X, Xn)).reshape(2, imap.dim, -1)
        S *= S
        clear = w @ S > bounds
        if clear.all():
            continue
        stopped = []
        for i in np.flatnonzero(~clear.all(axis=(0, 1))):
            stop = _stop(Xn[:, i], X[:, i], cfg)
            if stop is None:
                continue
            c = run[i]
            if stop is _NAN:
                partial = Trajectory(H[:k + 1, :, c].copy(), TrajectoryStatus.BUDGET_EXHAUSTED)
                out[rows[c]] = NumericFailureError("NaN produced mid-run", partial=partial)
            else:
                fpe = H[k + 1, :, c].copy() if stop is TrajectoryStatus.CONVERGED else None
                out[rows[c]] = Trajectory(H[:k + 2, :, c].copy(), stop, fixed_point_estimate=fpe)
            stopped.append(i)
        run = np.delete(run, stopped)
    for c in run:
        out[rows[c]] = Trajectory(H[:, :, c].copy(), TrajectoryStatus.BUDGET_EXHAUSTED)
    return []


def default_centering(traj: Trajectory) -> Centering:
    """FIXED_POINT for converged runs, NONE otherwise."""
    if traj.status is TrajectoryStatus.CONVERGED:
        return Centering.FIXED_POINT
    return Centering.NONE


def snapshots(traj: Trajectory, centering: Optional[Centering] = None) -> SnapshotPair:
    """Pair consecutive states into (X, Y) columns.

    centering=None applies the default policy. FIXED_POINT subtracts the
    fixed-point estimate (the final state when no estimate exists) from every
    column.
    """
    if len(traj) < 3:
        raise InsufficientDataError(f"need at least 3 states, got {len(traj)}")
    if centering is None:
        centering = default_centering(traj)
    data = traj.states
    tag = "identity"
    if centering is Centering.FIXED_POINT:
        ref = traj.fixed_point_estimate
        if ref is None:
            ref = data[-1]
        data = data - ref
        tag = "identity(centered)"
    return SnapshotPair(X=data[:-1].T.copy(), Y=data[1:].T.copy(), observable_tag=tag)


def multi_snapshots(trajs, centering: Optional[Centering] = None) -> SnapshotPair:
    """Column-concatenate per-trajectory snapshot pairs.

    Pairing never crosses trajectory boundaries; each trajectory is centered
    against its own fixed-point estimate.
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
