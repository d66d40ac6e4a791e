"""Run a map from an initial state, detect convergence or blow-up, and
assemble the paired snapshot matrices consumed by the spectral module."""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .corpus import IterativeMap
from .errors import (ConfigurationError, InsufficientDataError, InvalidInputError,
                     KoopeqError, NonFiniteInputError, NumericFailureError, count,
                     result_or_raise, tolerance)


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
        count("max_iters", self.max_iters, 2, ConfigurationError)
        tolerance("eps", self.eps, ConfigurationError, positive=True)
        cap = self.overflow_cap
        if not (isinstance(cap, float) and cap == math.inf):  # inf is a cap too
            tolerance("overflow_cap", cap, ConfigurationError)
        if not cap > self.eps:
            raise ConfigurationError(f"overflow_cap must be a real number > eps, got {cap!r}")


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
        return Trajectory(self.states[_first_kept(len(self), k):], self.status)


def _first_kept(length: int, k: int) -> int:
    """The first state that dropping k of `length` states keeps: at least 3
    are kept, and a shorter run keeps all."""
    return max(0, min(k, length - 3))


@dataclass
class SnapshotPair:
    """Column-paired data matrices: column j of Y is the one-step image of
    column j of X under the map. Only `snapshots`, `multi_snapshots`, `dmd`
    and `edmd` pass it; it goes with them (ROADMAP item 9)."""

    X: np.ndarray  # shape (dim, m)
    Y: np.ndarray
    observable_tag: str = "identity"


_NAN = "NaN produced mid-run"  # _stop's verdict on a state that holds a NaN
_NON_FINITE = "non-finite value produced mid-run"  # see _run
_SMALLEST_NORMAL = float(np.finfo(float).tiny)
_FLOAT = np.dtype(float)


def _norm(v: np.ndarray) -> float:
    """The l2 norm of the real or complex array v, np.linalg.norm's steps:
    the square root of a dot over v in index order, or of the dots over its
    real and imaginary parts. A sum that overflows, or one below the smallest
    normal float, falls back to a norm scaled by the largest modulus, as
    LAPACK's dnrm2 does; a NaN entry gives NaN. Call it with floating-point
    events ignored."""
    v = v.ravel(order="K")
    sq = v.dot(v) if v.dtype.kind != "c" else v.real.dot(v.real) + v.imag.dot(v.imag)
    if sq == math.inf or sq < _SMALLEST_NORMAL:
        top = float(np.abs(v).max())
        if 0.0 < top < math.inf:
            return top * _norm(v / top)
    return math.sqrt(sq)


def _stop(xn: np.ndarray, x: np.ndarray, cfg: RunConfig):
    """How a run ends at the state xn that follows x: None while it runs on,
    _NAN for a NaN, else CONVERGED or DIVERGED, by the norms of xn - x and
    of xn. Only steps that `_screen` does not clear take it, so it can
    afford its errstate."""
    with np.errstate(all="ignore"):
        norm = _norm(xn)
        if norm != norm:
            return _NAN
        if _norm(xn - x) <= cfg.eps:
            return TrajectoryStatus.CONVERGED
    if norm >= cfg.overflow_cap:
        return TrajectoryStatus.DIVERGED
    return None


def _result(states: np.ndarray, stop):
    """A run's result from its states, short of a NaN state, and how it
    stopped (`_stop`'s verdict, _NON_FINITE, or None when the budget ran
    out): a Trajectory, or for _NAN and _NON_FINITE the NumericFailureError
    carrying the states."""
    if stop is _NAN or stop is _NON_FINITE:
        partial = Trajectory(states, TrajectoryStatus.BUDGET_EXHAUSTED)
        return NumericFailureError(stop, partial=partial)
    return Trajectory(states, TrajectoryStatus.BUDGET_EXHAUSTED if stop is None else stop)


def _raising():
    """np.errstate's settings for a run's steps: raise an overflow, an
    invalid operation and a division by zero, and an underflow unless the
    caller's settings ignore it. A step past its stop so shows no event of
    its own; a step before it whose event so raised is taken again under the
    caller's settings, whatever they are, as the step that made a non-finite
    value."""
    return {kind: "ignore" if how == "ignore" and kind == "under" else "raise"
            for kind, how in np.geterr().items()}


# steps of a run's first chunk; chunk ends then double (see _run), so a run
# that stops at step s is stepped at most max(_CHUNK, 2 s) times
_CHUNK = 16
# relative margin of the screen, far above the rounding of a sum of squares
# taken in another order; its bounds stay inside [_TINY, 1 / _TINY] (_HUGE
# squared), clear of subnormals and overflow
_MARGIN = 1e-9
_TINY = 1e-290
_HUGE = 1e145


def _screen(T: np.ndarray, cfg: RunConfig) -> np.ndarray:
    """For the states T (shape (c + 1, dim, N)) of N columns over c steps,
    the (c, N) mask of the steps that end their run by neither of `_stop`'s
    tests: the squared step length lies above (eps (1 + margin))**2 and the
    squared norm below (overflow_cap (1 - margin))**2. A NaN or an infinity
    fails the screen; a column stepped past its stop may hold them, so their
    arithmetic here, like the squares that underflow, raises no
    floating-point event."""
    lo = cfg.eps * (1 + _MARGIN)
    lo = max(lo * lo, _TINY) if lo < _HUGE else math.inf
    hi = min(cfg.overflow_cap * (1 - _MARGIN), _HUGE)
    hi = hi * hi if hi * hi >= _TINY else 0.0
    with np.errstate(all="ignore"):
        S = np.empty((2,) + T[1:].shape)
        np.subtract(T[1:], T[:-1], out=S[0])
        S[1] = T[1:]
        S *= S
        sq = S.sum(axis=2)
    return (sq[0] > lo) & (sq[1] < hi)


def _stops(T: np.ndarray, cfg: RunConfig):
    """The first stop of each column of the states T (shape (c + 1, dim,
    N)), as (column, states of T its run keeps, `_stop`'s verdict), in
    column order. `_screen` clears the steps far from both thresholds; the
    others take `_stop`'s exact tests in order."""
    clear = _screen(T, cfg)
    if clear.all():
        return
    for i in np.flatnonzero(~clear.all(axis=0)):
        for j in np.flatnonzero(~clear[:, i]):
            stop = _stop(T[j + 1, :, i], T[j, :, i], cfg)
            if stop is not None:
                yield i, (j + 1 if stop is _NAN else j + 2), stop
                break


def _state(xn, shape: tuple) -> np.ndarray:
    """A step's output as a state of the given shape; a 0-d output is the
    state of a one-dimensional map."""
    xn = np.asarray(xn, dtype=float)
    if xn.ndim == 0:
        xn = xn.reshape(1)
    if xn.shape != shape:
        raise ConfigurationError(f"step changed the state shape from {shape} to {xn.shape}")
    return xn


def iterate(imap: IterativeMap, x0, cfg: RunConfig = RunConfig()) -> Trajectory:
    """Apply imap.step repeatedly from x0: `_run`'s block of one.

    Stops at the first of: successive-iterate distance <= eps (CONVERGED),
    max_iters steps taken (BUDGET_EXHAUSTED), or state norm >= overflow_cap
    (DIVERGED; the crossing state is retained since growing modes are data).
    A NaN mid-run raises NumericFailureError carrying the partial trajectory.

    A run that stops at step s is stepped to its chunk's end, at most
    max(16, 2 s) times (`step` must be pure); an exception a step raises
    there is discarded. One raised before any stop propagates, and a
    floating-point event before it warns or raises by the caller's settings.
    """
    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    if x.ndim != 1:
        raise InvalidInputError(f"x0 must be a flat state vector, got shape {x.shape}")
    if x.size != imap.dim:
        raise InvalidInputError(f"x0 has length {x.size}, map expects {imap.dim}")
    if not np.isfinite(x).all():
        raise InvalidInputError("x0 contains non-finite entries")
    return result_or_raise(_run(imap.step, x[None], cfg)[0])


def iterate_many(imap: IterativeMap, X0, cfg: RunConfig = RunConfig()) -> list:
    """`iterate` from every row of X0 (shape (N, dim)).

    Returns, per row, the Trajectory that `iterate` returns or the KoopeqError
    it raises, bit for bit. A columnwise map's finite starts, when there are
    two or more, run as one `_run` block, whose history buffer grows with the
    longest run, not with `cfg.max_iters`. Every other row, and each row that
    a raising block step leaves unresolved, runs through `iterate`.
    """
    X0 = np.asarray(X0, dtype=float)
    if X0.ndim != 2:
        raise InvalidInputError("X0 must hold one initial state per row")
    out = [None] * X0.shape[0]
    if imap.columnwise and X0.shape[1] == imap.dim:
        rows = np.flatnonzero(np.all(np.isfinite(X0), axis=1))
        if rows.size > 1:
            for j, result in zip(rows, _run(imap.step, X0[rows], cfg)):
                out[j] = result
    for j, result in enumerate(out):
        if result is None:
            try:
                out[j] = iterate(imap, X0[j], cfg)
            except KoopeqError as exc:
                out[j] = exc
    return out


def _run(step, X0: np.ndarray, cfg: RunConfig) -> list:
    """The result (`_result`) of the run from each finite start X0[c] (X0 of
    shape (n, dim)), the starts stepped together as the columns of one block.

    The history starts with room for `_CHUNK` steps; each chunk steps the
    block to its end under `_raising`'s errstate, `_stops` finds each
    column's stop there, and the full history doubles, up to the budget. A
    block of one steps its state flat, `step(x)`, an output other than a
    float64 array of the state's shape going through `_state`'s conversion
    and shape check; a larger block calls `step` on the (dim, running
    columns) block the history stores. Each output is copied into the
    history as it comes.
    When a step raises, the steps before it are resolved the same way, and
    the block goes on without the columns they stopped. If they stopped
    none, a larger block gives None for each column still running, and a
    block of one ends in _NON_FINITE when the step raised
    NonFiniteInputError: an oracle rejected a non-finite value that the step
    made from a finite state with no floating-point event (an inf out of
    LAPACK, say). It takes a floating-point event's step again under the
    caller's settings, ending in _NON_FINITE too when that raises
    InvalidInputError, and re-raises any other exception."""
    n, dim = X0.shape
    # H[k, :, c]: state k of start c
    H = np.empty((min(cfg.max_iters, _CHUNK) + 1, dim, n))
    H[0] = X0.T
    x, shape, raising = X0[0], (dim,), _raising()
    out, run = [None] * n, np.arange(n)
    k = k0 = 0  # states H[:k + 1] taken, those past H[k0] not yet screened
    while k0 < cfg.max_iters:
        if k0 == len(H) - 1:  # full: double, up to the budget
            H = np.concatenate([H, np.empty((min(k0, cfg.max_iters - k0),) + H.shape[1:])])
        end = len(H) - 1
        # B[j]: state k0 + j of the running columns; H itself while all run
        full = run.size == n
        B = H[k0:end + 1] if full else np.empty((end - k0 + 1, dim, run.size))
        if not full:
            B[0] = H[k0][:, run]
        error = None
        try:
            with np.errstate(**raising):
                if n == 1:
                    h = H[:, :, 0]
                    while k < end:
                        xn = step(x)
                        # a float64 ndarray of the state's shape is _state's own
                        if not (type(xn) is np.ndarray and xn.dtype is _FLOAT
                                and xn.shape == shape):
                            xn = _state(xn, shape)
                        h[k + 1] = x = xn
                        k += 1
                else:
                    while k < end:
                        B[k + 1 - k0] = step(B[k - k0])
                        k += 1
        except Exception as exc:
            error = exc
        if not full:
            H[k0 + 1:k + 1, :, run] = B[1:k + 1 - k0]
        stopped = []
        for i, kept, stop in _stops(B[:k + 1 - k0], cfg):
            out[run[i]] = _result(H[:k0 + kept, :, run[i]].copy(), stop)
            stopped.append(i)
        if len(stopped) == run.size:
            return out
        if stopped:
            run = np.delete(run, stopped)
        k0 = k
        if error is not None and not stopped:
            if n > 1:
                return out
            if isinstance(error, NonFiniteInputError):
                return [_result(H[:k + 1, :, 0].copy(), _NON_FINITE)]
            if not isinstance(error, FloatingPointError):
                raise error
            try:
                x = _state(step(x), shape)
            except InvalidInputError:
                return [_result(H[:k + 1, :, 0].copy(), _NON_FINITE)]
            h[k + 1] = x
            k += 1
    # one copy gives each running column its states, C-contiguous
    T = H[:k + 1].transpose(2, 0, 1)
    for c, states in zip(run.tolist(), T.copy() if run.size == n else T[run]):
        out[c] = _result(states, None)
    return out


def centred(traj: Trajectory, centering: Optional[Centering] = None) -> bool:
    """Whether snapshot assembly centres traj on its final state: always for
    FIXED_POINT, never for NONE, and for centering=None when it converged."""
    if centering is None:
        return traj.status is TrajectoryStatus.CONVERGED
    return centering is Centering.FIXED_POINT


def snapshot_stack(runs, centre: bool, discard: int = 0):
    """The snapshot pairs of runs of one states shape (L, dim), built in one
    pass: drop each run's first `discard` states as
    `Trajectory.discard_prefix` does, stack the states kept, subtract each
    run's final state when `centre`, and pair consecutive states. Returns X
    and Y of shape (N, dim, m), each cell C-contiguous, and their observable
    tag."""
    length, dim = runs[0].shape
    if length < 3:
        raise InsufficientDataError(f"need at least 3 states, got {length}")
    first = _first_kept(length, discard)
    # one copy of the states kept, seen in the (N, dim, L) layout
    data = np.concatenate([states[first:] for states in runs])
    data = data.reshape(len(runs), length - first, dim).transpose(0, 2, 1)
    tag = "identity"
    if centre:
        # in that layout the subtraction runs along each run, not along a
        # state's few entries
        data = np.subtract(data, data[:, :, -1:], out=np.empty(data.shape, data.dtype))
        tag = "identity(centered)"
    return data[:, :, :-1].copy(), data[:, :, 1:].copy(), tag


def snapshots(traj: Trajectory, centering: Optional[Centering] = None) -> SnapshotPair:
    """The benchmark's stack-of-one alias of `snapshot_stack`, the pairing
    behind `DecompositionSettings.spectrum`; it goes with ROADMAP item 9."""
    X, Y, tag = snapshot_stack([traj.states], centred(traj, centering))
    return SnapshotPair(X=X[0], Y=Y[0], observable_tag=tag)


def multi_snapshots(trajs, centering: Optional[Centering] = None) -> SnapshotPair:
    """The benchmark's pool of `snapshots` of each run, column-concatenated;
    it goes with ROADMAP item 9. Runs of mixed dimensions, or of which some
    are centred and some not, raise ConfigurationError."""
    trajs = list(trajs)
    if not trajs:
        raise InsufficientDataError("no trajectories given")
    dims = {t.dim for t in trajs}
    if len(dims) != 1:
        raise ConfigurationError(f"trajectories have mixed dimensions {sorted(dims)}")
    centre = {centred(t, centering) for t in trajs}
    if len(centre) != 1:
        raise ConfigurationError("trajectories mix centred and uncentred runs; "
                                 "give a centering")
    X, Y, tag = zip(*(snapshot_stack([t.states], *centre) for t in trajs))
    return SnapshotPair(X=np.concatenate(X, 2)[0], Y=np.concatenate(Y, 2)[0],
                        observable_tag=tag[0])
