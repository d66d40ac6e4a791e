"""The seven benchmark algorithms as opaque state-update maps, plus the exact
coordinate changes that relate equivalent pairs (used as ground-truth oracles
in tests and experiments).

Downstream modules treat an IterativeMap as a black box: they only call
`step`, never inspect the update formulas.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .errors import ConfigurationError, UnsupportedPairError
from .oracles import Oracle

Array = np.ndarray


class AlgorithmId(Enum):
    ALGO1 = 1
    ALGO2 = 2
    ALGO3 = 3
    ALGO4 = 4
    ALGO5 = 5
    ALGO6 = 6
    ALGO7 = 7
    CUSTOM = 0


@dataclass(frozen=True)
class IterativeMap:
    """A state-update map x -> step(x) on R^dim.

    Immutable after construction; `step` must be pure. The step of a
    `columnwise` map must also accept a (dim, N) block of states.
    """

    id: AlgorithmId
    dim: int
    step: Callable[[Array], Array]
    oracle_f: Optional[Oracle] = None
    oracle_g: Optional[Oracle] = None
    tag: str = ""

    @property
    def columnwise(self) -> bool:
        """Whether the map acts on each state on its own: given a (dim, N)
        block of states, one per column, its step returns their images bit
        for bit as N single steps would. True for algorithms 1-5, whose
        gradient oracles act element by element; not for the proximal ones of
        6 and 7 (a whole-vector norm, an eigendecomposition) or for black-box
        maps, whose output shape cannot show whether they mix columns."""
        return self.oracle_f is not None and self.oracle_f.is_gradient


def custom_map(step: Callable[[Array], Array], dim: int, tag: str = "custom") -> IterativeMap:
    """Wrap a user-supplied step function as a black-box map."""
    if dim < 1:
        raise ConfigurationError("dim must be a positive integer")
    return IterativeMap(id=AlgorithmId.CUSTOM, dim=dim, step=step, tag=tag)


def _require_gradient(oracle_f: Oracle, oracle_g, algo_id: AlgorithmId):
    if not oracle_f.is_gradient:
        raise ConfigurationError(f"{algo_id.name} needs a gradient oracle, got {oracle_f.kind.value}")
    if oracle_g is not None:
        raise ConfigurationError(f"{algo_id.name} takes a single oracle")


def _require_proximal(oracle_f: Oracle, oracle_g, algo_id: AlgorithmId):
    if oracle_g is None:
        raise ConfigurationError(f"{algo_id.name} needs two proximal oracles")
    if not (oracle_f.is_proximal and oracle_g.is_proximal):
        raise ConfigurationError(f"{algo_id.name} needs proximal oracles")
    if oracle_f.state_dim != oracle_g.state_dim:
        raise ConfigurationError("oracle_f and oracle_g act on blocks of different size")


def make_algorithm(algo_id: AlgorithmId, oracle_f: Oracle,
                   oracle_g: Optional[Oracle] = None) -> IterativeMap:
    """Build one of the seven benchmark maps around the given oracle(s).

    Each step evaluates its oracles on exactly the arguments the update rule
    prescribes, with every right-hand side read from the current state.
    """
    g = oracle_f.apply

    if algo_id is AlgorithmId.ALGO1:
        _require_gradient(oracle_f, oracle_g, algo_id)

        def step(x):
            u = 2.0 * x[0] - x[1]
            return np.array([u - 0.1 * g(u), x[0]])

        dim = 2
    elif algo_id is AlgorithmId.ALGO2:
        _require_gradient(oracle_f, oracle_g, algo_id)

        def step(x):
            gv = g(x[0])
            return np.array([x[0] - x[1] - 0.2 * gv, x[1] + 0.1 * gv])

        dim = 2
    elif algo_id is AlgorithmId.ALGO3:
        _require_gradient(oracle_f, oracle_g, algo_id)

        def step(x):
            u = -x[0] + 2.0 * x[1]
            return np.array([3.0 * x[0] - 2.0 * x[1] + 0.2 * g(u), x[0]])

        dim = 2
    elif algo_id is AlgorithmId.ALGO4:
        _require_gradient(oracle_f, oracle_g, algo_id)

        def step(x):
            return x - 0.2 * g(x)

        dim = 1
    elif algo_id is AlgorithmId.ALGO5:
        _require_gradient(oracle_f, oracle_g, algo_id)

        def step(x):
            return x * np.exp(-0.2 * g(np.log(x)))

        dim = 1
    elif algo_id is AlgorithmId.ALGO6:
        _require_proximal(oracle_f, oracle_g, algo_id)
        m = oracle_f.state_dim
        pf, pg = oracle_f.apply, oracle_g.apply

        def step(s):
            x3 = s[2 * m:]
            x1n = pf(x3)
            x2n = pg(2.0 * x1n - x3)
            x3n = x3 + x2n - x1n
            return np.concatenate([x1n, x2n, x3n])

        dim = 3 * m
    elif algo_id is AlgorithmId.ALGO7:
        _require_proximal(oracle_f, oracle_g, algo_id)
        m = oracle_f.state_dim
        pf, pg = oracle_f.apply, oracle_g.apply

        def step(s):
            xi1, xi2 = s[:m], s[m:]
            xi1n = pg(-xi1 + 2.0 * xi2) + xi1 - xi2
            xi2n = pf(xi1n)
            return np.concatenate([xi1n, xi2n])

        dim = 2 * m
    else:
        raise ConfigurationError(f"make_algorithm does not build {algo_id.name}")

    tag = f"{algo_id.name.lower()}[{oracle_f.tag}" + (f",{oracle_g.tag}]" if oracle_g else "]")
    return IterativeMap(id=algo_id, dim=dim, step=step,
                        oracle_f=oracle_f, oracle_g=oracle_g, tag=tag)


class ConjugacyKind(Enum):
    LINEAR_INVERTIBLE = "linear_invertible"
    LINEAR_EMBEDDED = "linear_embedded"
    NONLINEAR_INVERTIBLE = "nonlinear_invertible"
    SHIFT = "shift"


@dataclass(frozen=True)
class ConjugacyMap:
    """Exact coordinate change between a source and a target algorithm.

    For SHIFT maps, trajectories rather than single states are related:
    `h(state_k, state_next)` builds the target state at step k from two
    consecutive source states, because the target reads one source block a
    step ahead.
    """

    pair: tuple[AlgorithmId, AlgorithmId]
    kind: ConjugacyKind
    h: Callable
    h_inverse: Optional[Callable] = None


def _h12(x):
    return np.array([2.0 * x[0] - x[1], -x[0] + x[1]])


def _h12_inv(xi):
    return np.array([xi[0] + xi[1], xi[0] + 2.0 * xi[1]])


def _h34(x):
    return np.atleast_1d(-x[0] + 2.0 * x[1])


def conjugacy_map(source: AlgorithmId, target: AlgorithmId) -> ConjugacyMap:
    """Return the exact map relating the outputs of two benchmark algorithms.

    Supported pairs: (1,2) and (2,1), (3,4), (4,5) and (5,4), (6,7).
    """
    A = AlgorithmId
    pair = (source, target)
    if pair == (A.ALGO1, A.ALGO2):
        return ConjugacyMap(pair, ConjugacyKind.LINEAR_INVERTIBLE, _h12, _h12_inv)
    if pair == (A.ALGO2, A.ALGO1):
        return ConjugacyMap(pair, ConjugacyKind.LINEAR_INVERTIBLE, _h12_inv, _h12)
    if pair == (A.ALGO3, A.ALGO4):
        return ConjugacyMap(pair, ConjugacyKind.LINEAR_EMBEDDED, _h34)
    if pair == (A.ALGO4, A.ALGO5):
        return ConjugacyMap(pair, ConjugacyKind.NONLINEAR_INVERTIBLE, np.exp, np.log)
    if pair == (A.ALGO5, A.ALGO4):
        return ConjugacyMap(pair, ConjugacyKind.NONLINEAR_INVERTIBLE, np.log, np.exp)
    if pair == (A.ALGO6, A.ALGO7):
        def h_shift(state_k, state_next):
            m = state_k.size // 3
            return np.concatenate([state_k[2 * m:], state_next[:m]])

        return ConjugacyMap(pair, ConjugacyKind.SHIFT, h_shift)
    raise UnsupportedPairError(f"no conjugacy map for ({source.name}, {target.name})")


@dataclass
class CommutationReport:
    max_deviation: float
    tol: float
    passed: bool
    n_samples: int
    kind: ConjugacyKind = field(default=ConjugacyKind.LINEAR_INVERTIBLE)


def verify_commutation(cmap: ConjugacyMap, T: IterativeMap, S: IterativeMap,
                       samples, tol: float = 1e-10, horizon: int = 20) -> CommutationReport:
    """Check h(T(x)) == S(h(x)) over sample states, reporting the worst deviation.

    SHIFT maps are index relations, so for them the check runs both
    algorithms and verifies that the target iterates reproduce the shifted
    source blocks for `horizon` steps.
    """
    worst = 0.0
    n = 0
    if cmap.kind is ConjugacyKind.SHIFT:
        m = T.dim // 3
        for x0 in samples:
            src = [np.asarray(x0, dtype=float)]
            for _ in range(horizon + 1):
                src.append(T.step(src[-1]))
            tgt = [cmap.h(src[0], src[1])]
            for _ in range(horizon):
                tgt.append(S.step(tgt[-1]))
            for k in range(horizon):
                dev = max(np.max(np.abs(tgt[k][:m] - src[k][2 * m:])),
                          np.max(np.abs(tgt[k][m:] - src[k + 1][:m])))
                worst = max(worst, float(dev))
            n += 1
    else:
        for x0 in samples:
            x = np.atleast_1d(np.asarray(x0, dtype=float))
            hx = np.atleast_1d(cmap.h(x))
            if hx.size != S.dim:
                raise ConfigurationError(
                    f"h maps into R^{hx.size} but target expects R^{S.dim}")
            lhs = np.atleast_1d(cmap.h(T.step(x)))
            rhs = S.step(hx)
            worst = max(worst, float(np.linalg.norm(lhs - rhs)))
            n += 1
    return CommutationReport(max_deviation=worst, tol=tol, passed=worst <= tol,
                             n_samples=n, kind=cmap.kind)
