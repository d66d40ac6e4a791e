"""Run a map from an initial state, detect convergence or blow-up, and
assemble the paired snapshot matrices consumed by the spectral module."""
from __future__ import annotations

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
    if not np.all(np.isfinite(x)):
        raise InvalidInputError("x0 contains non-finite entries")
    states = [x]
    status = TrajectoryStatus.BUDGET_EXHAUSTED
    fpe = None
    for _ in range(cfg.max_iters):
        xn = np.atleast_1d(np.asarray(imap.step(states[-1]), dtype=float))
        if xn.size != imap.dim:
            raise ConfigurationError("step changed the state dimension")
        if np.any(np.isnan(xn)):
            partial = Trajectory(np.array(states), TrajectoryStatus.BUDGET_EXHAUSTED)
            raise NumericFailureError("NaN produced mid-run", partial=partial)
        states.append(xn)
        if np.linalg.norm(xn - states[-2]) <= cfg.eps:
            status = TrajectoryStatus.CONVERGED
            fpe = xn
            break
        if np.linalg.norm(xn) >= cfg.overflow_cap:
            status = TrajectoryStatus.DIVERGED
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


def _column_norms(D: np.ndarray, threshold: float) -> np.ndarray:
    """Euclidean norm of each column of D. A norm within rounding of
    `threshold` is taken again by np.linalg.norm, as `iterate` takes it, so
    that comparing it with the threshold comes out the same."""
    v = np.sqrt((D * D).sum(axis=0))
    for c in (np.abs(v - threshold) <= 1e-9 * threshold).nonzero()[0]:
        v[c] = np.linalg.norm(D[:, c])
    return v


def _iterate_block(imap: IterativeMap, X0: np.ndarray, rows: np.ndarray,
                   cfg: RunConfig, out: list) -> list:
    """Step the finite starts X0 (shape (n, dim)) as columns of one block and
    store the result of start c in out[rows[c]]. Returns the rows still
    running when a block step failed, for `iterate` to redo."""
    n = X0.shape[0]
    # H[k, :, c]: state k of start c; doubled as the longest run needs it
    H = np.empty((min(cfg.max_iters, 63) + 1, imap.dim, n))
    H[0] = X0.T
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
        nan = np.isnan(Xn).any(axis=0)
        conv = ~nan & (_column_norms(Xn - X, cfg.eps) <= cfg.eps)
        div = ~nan & ~conv & (_column_norms(Xn, cfg.overflow_cap) >= cfg.overflow_cap)
        for c in run[nan]:
            partial = Trajectory(H[:k + 1, :, c].copy(), TrajectoryStatus.BUDGET_EXHAUSTED)
            out[rows[c]] = NumericFailureError("NaN produced mid-run", partial=partial)
        for c in run[conv]:
            out[rows[c]] = Trajectory(H[:k + 2, :, c].copy(), TrajectoryStatus.CONVERGED,
                                      fixed_point_estimate=H[k + 1, :, c].copy())
        for c in run[div]:
            out[rows[c]] = Trajectory(H[:k + 2, :, c].copy(), TrajectoryStatus.DIVERGED)
        run = run[~(nan | conv | div)]
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
