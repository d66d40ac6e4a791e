"""The benchmark's four workloads.

A workload turns `--seed` into inputs and issues rounds of operations. A round
is a list of passes, a pass a list of pieces, a piece a list of operations;
the harness times each piece as a whole. An operation calls the program
through its public module attributes (so the traced run can wrap them) and
has a check that runs outside the timed piece. Every round of a workload
attempts the same operations on freshly seeded inputs, except for one fixed,
seed-independent input in `prox` and in `lattice` that fails every time
through a known fault.

An operation counts as failed when it errors (an exception, a non-finite sweep
cell, a CLI error exit) or when it is one of those fixed inputs and gives the
wrong verdict. No workload expects an error, so an error is also a problem,
and so is a wrong output on any other input.
"""
from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from koopeq import cli, compare, corpus, spectral, trajectory
from koopeq.corpus import AlgorithmId
from koopeq.oracles import Oracle, OracleKind
from koopeq.trajectory import Centering, RunConfig, Trajectory, TrajectoryStatus

import checks


@dataclass
class Outcome:
    failed: int = 0
    problems: list = field(default_factory=list)


@dataclass
class Op:
    """One call into the program and the check of what it returned."""

    run: Callable[[], object]
    check: Callable[[object], Outcome]
    items: int = 1


@dataclass
class Round:
    passes: list  # passes -> pieces -> Ops
    finish: Callable[[], list] = list  # checks that need the whole round


def _verdict_outcome(verdict: str, known_fault: bool, problems: list) -> Outcome:
    """A pair built to be conjugate: a fixed input with a known fault fails
    when its verdict is wrong; any other input is wrong."""
    if verdict == "conjugate":
        return Outcome(0, problems)
    if known_fault:
        return Outcome(1, problems)
    return Outcome(0, problems + [f"a conjugate pair classified {verdict!r}"])


# --- seeded inputs -----------------------------------------------------------

# least distance between two seeded eigenvalues, and from one of a distinct
# pair's other side
EIG_GAP = 1e-2


def _separated(lam, max_power: int, margin: float, avoid) -> bool:
    """True when no eigenvalue lies within `margin` of a product (2 to
    max_power factors) of eigenvalues of larger modulus, none lies within
    EIG_GAP of another or of `avoid`, and only conjugate partners share a
    modulus. Such a set is its own principal set under every lattice
    tolerance below `margin`."""
    lam = np.asarray(lam, dtype=complex)
    for j, z in enumerate(lam):
        others = np.delete(lam, j)
        if np.min(np.abs(others - z), initial=np.inf) < EIG_GAP:
            return False
        if np.min(np.abs(np.asarray(avoid, dtype=complex) - z), initial=np.inf) < EIG_GAP:
            return False
        ties = np.abs(np.abs(others) - abs(z)) < 1e-3
        if np.any(ties & (np.abs(others - np.conj(z)) > 1e-12)):
            return False
        larger = others[np.abs(others) > abs(z)]
        if larger.size and np.min(np.abs(checks.exact_lattice(larger, max_power, lo=2) - z)) < margin:
            return False
    return True


def sample_eigenvalues(rng, count: int, modulus: tuple, max_power: int,
                       margin: float, avoid=()) -> np.ndarray:
    """Eigenvalues of a real matrix, reals and conjugate pairs, drawn until
    they are separated in the sense of `_separated`."""
    for _ in range(100000):
        lam = []
        while len(lam) < count:
            r = rng.uniform(*modulus)
            if count - len(lam) >= 2 and rng.random() < 0.5:
                z = r * np.exp(1j * rng.uniform(0.1, 2.5))
                lam += [z, np.conj(z)]
            else:
                lam.append(r * rng.choice([-1.0, 1.0]) + 0j)
        if _separated(lam, max_power, margin, avoid):
            return np.array(lam)
    raise RuntimeError("could not draw separated eigenvalues")


def _well_conditioned(rng, dim: int) -> np.ndarray:
    while True:
        V = rng.standard_normal((dim, dim))
        if np.linalg.cond(V) < 50:
            return V


def real_matrix(rng, lam) -> np.ndarray:
    """A real matrix with eigenvalues lam (conjugate pairs adjacent after a
    real one or at the start), in a random well-conditioned basis."""
    lam = list(lam)
    B = np.zeros((len(lam), len(lam)))
    i = 0
    while i < len(lam):
        z = lam[i]
        if abs(z.imag) > 0:
            B[i:i + 2, i:i + 2] = [[z.real, -z.imag], [z.imag, z.real]]
            i += 2
        else:
            B[i, i] = z.real
            i += 1
    V = _well_conditioned(rng, len(lam))
    return V @ B @ np.linalg.inv(V)


def linear_states(A, x0, length: int) -> np.ndarray:
    states = [np.asarray(x0, dtype=float)]
    for _ in range(length - 1):
        states.append(A @ states[-1])
    return np.array(states)


# --- sweep ---------------------------------------------------------------------

# fig2's two sweeps of algorithm 2 against algorithm 1, as the preset runs them
SWEEP_SETTINGS = {
    "quad": (OracleKind.GRAD_QUADRATIC, 21, RunConfig(max_iters=40),
             compare.DecompositionSettings(method="dmd", centering=Centering.NONE)),
    "negcos": (OracleKind.GRAD_NEGCOS, 41, RunConfig(max_iters=200),
               compare.DecompositionSettings(method="dmd", centering=Centering.FIXED_POINT,
                                             discard=150)),
}


class Sweep:
    """fig2's initial-condition sweeps over [-2, 2]^2, shifted by the seed.

    A pass is one quad row and two negcos rows, so the 21 passes of a round
    cover both grids; each row is one `compare.sweep` call. An item is a cell.
    """

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 0])
        self.x0_a = tuple(0.1 + rng.uniform(-0.01, 0.01, 2))
        shift = rng.uniform(-0.02, 0.02, 2)
        self.axes = {name: (np.linspace(-2.0, 2.0, res) + shift[0],
                            np.linspace(-2.0, 2.0, res) + shift[1])
                     for name, (_, res, _, _) in SWEEP_SETTINGS.items()}
        self.basin = checks.negcos_origin_basin(*self.axes["negcos"],
                                                steps=SWEEP_SETTINGS["negcos"][2].max_iters)

    def _op(self, name: str, row: int, grid=None) -> Op:
        """One grid row. Negcos rows fill `grid`, which is checked once the
        round is whole; quad rows are checked on their own."""
        kind, _, cfg, settings = SWEEP_SETTINGS[name]
        axis1, axis2 = self.axes[name]
        rows = axis1[row:row + 1]

        def run():
            map_a = corpus.make_algorithm(AlgorithmId.ALGO1, Oracle(kind))
            map_b = corpus.make_algorithm(AlgorithmId.ALGO2, Oracle(kind))
            return compare.sweep(map_a, self.x0_a, map_b, (rows, axis2), cfg=cfg,
                                 settings=settings)

        def check(result):
            failed = int(np.sum(~np.isfinite(result.distances)))
            if grid is None:
                return Outcome(failed, checks.check_quad_block(result.distances,
                                                               result.principal_a))
            grid["F"][row] = result.distances[0]
            grid["failed"][row] = failed
            return Outcome(failed)

        return Op(run, check, items=rows.size * axis2.size)

    def round(self, index: int) -> Round:
        n_quad = SWEEP_SETTINGS["quad"][1]
        n_neg = SWEEP_SETTINGS["negcos"][1]
        grid = {"F": np.full((n_neg, n_neg), np.nan), "failed": np.zeros(n_neg, int)}
        passes = []
        for j in range(n_quad):
            pieces = [[self._op("quad", j), self._op("negcos", 2 * j, grid)]]
            if 2 * j + 1 < n_neg:
                pieces.append([self._op("negcos", 2 * j + 1, grid)])
            passes.append(pieces)
        return Round(passes, lambda: checks.check_negcos_grid(
            grid["F"], int(grid["failed"].sum()), self.basin))


# --- prox ----------------------------------------------------------------------

PROX_CFG = RunConfig(max_iters=60)  # fig5's logdet variant
PROX_RANK = 2
PROX_DISCARD = 20
PROX_SIDES = (2, 2, 2, 3, 3, 3, 2, 3)


def _rotated(eigs, angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    R = np.array([[c, -s], [s, c]])
    return R @ np.diag(eigs) @ R.T


# close eigenvalues 2.9 and 3.0: a shift-equivalent pair that classifies as
# distinct every time
PROX_FAULT_START = _rotated([2.9, 3.0], 0.5)


def spd_start(rng, n: int) -> np.ndarray:
    """A symmetric positive-definite matrix with eigenvalues in [1, 4]: the
    smallest in [1, 1.5], the rest at least 0.3 above it. Starts with close
    eigenvalues, or with a smaller one above about 1.9, classify as distinct
    on some seeds only (the fault PROX_FAULT_START shows on every round), so
    the draw keeps clear of them and every seed fails the same share."""
    low = rng.uniform(1.0, 1.5)
    w = np.concatenate([[low], rng.uniform(low + 0.3, 4.0, n - 1)])
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (Q * w) @ Q.T


class Prox:
    """Algorithm 6 against algorithm 7 with the logdet and matrix-l2 proximal
    oracles, fig5's settings, from seeded SPD starts. An item is a classified
    pair; a round is eight seeded pairs and the fixed failing one."""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    @staticmethod
    def _op(V, known_fault: bool = False) -> Op:
        n = V.shape[0]
        flat = V[np.triu_indices(n)]

        def run():
            logdet = Oracle(OracleKind.PROX_NEGLOGDET, gamma=1.0, domain_dim=n)
            m = logdet.state_dim
            l2 = Oracle(OracleKind.PROX_L2, gamma=1.0, domain_dim=m)
            alg6 = corpus.make_algorithm(AlgorithmId.ALGO6, logdet, l2)
            alg7 = corpus.make_algorithm(AlgorithmId.ALGO7, logdet, l2)
            x0 = np.concatenate([np.zeros(2 * m), flat])
            y0 = np.concatenate([x0[2 * m:], alg6.step(x0)[:m]])
            t6 = trajectory.iterate(alg6, x0, PROX_CFG)
            t7 = trajectory.iterate(alg7, y0, PROX_CFG)
            policy = spectral.RankPolicy.fixed(PROX_RANK)
            s6 = spectral.dmd(trajectory.snapshots(t6.discard_prefix(PROX_DISCARD),
                                                   Centering.FIXED_POINT), policy)
            s7 = spectral.dmd(trajectory.snapshots(t7.discard_prefix(PROX_DISCARD),
                                                   Centering.FIXED_POINT), policy)
            return t6.states, t7.states, m, compare.classify(s6, s7).verdict.value

        def check(out):
            states6, states7, m, verdict = out
            return _verdict_outcome(verdict, known_fault,
                                    checks.check_shift_bitwise(states6, states7, m))

        return Op(run, check)

    def round(self, index: int) -> Round:
        rng = np.random.default_rng([self.seed, 1, index])
        ops = [self._op(spd_start(rng, n)) for n in PROX_SIDES]
        ops.append(self._op(PROX_FAULT_START, known_fault=True))
        return Round([[ops[0:3], ops[3:6], ops[6:9]]])


# --- lattice -------------------------------------------------------------------

LATTICE_SHAPES = ((1, 5), (2, 4), (2, 3), (3, 3), (3, 2), (4, 2), (5, 2), (6, 2))
LATTICE_TRAJECTORIES = 8
LATTICE_LENGTH = 25
# classify prunes with a lattice tolerance of 0.05 and max power 6 once EDMD
# is involved; seeded eigenvalues keep clear of that
LATTICE_MARGIN = 0.06
LATTICE_MAX_POWER = 6
EXP_LENGTH = 50
# fixed data from diag(-0.77, 0.56): 0.56 lies 0.033 from (-0.77)^2, so the
# 0.05 lattice tolerance prunes a genuine eigenvalue every time
LATTICE_FAULT_EIGS = np.array([-0.77 + 0j, 0.56 + 0j])
LATTICE_FAULT_DEGREE = 4


def _logged(states_list):
    return [Trajectory(states=s, status=TrajectoryStatus.BUDGET_EXHAUSTED)
            for s in states_list]


def lattice_data(rng, lam, A=None):
    """Logged trajectories of x -> A x from seeded starts in [-1, 1]^dim."""
    A = real_matrix(rng, lam) if A is None else A
    dim = len(lam)
    return _logged([linear_states(A, rng.uniform(-1.0, 1.0, dim), LATTICE_LENGTH)
                    for _ in range(LATTICE_TRAJECTORIES)])


class Lattice:
    """Spectral workload: DMD against EDMD on logged data from seeded linear
    maps with known eigenvalues, plus the exponential pair 4 <-> 5. An item is
    a data set; a round is every shape twice, the exponential pair and the
    fixed failing set."""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        fixed = np.random.default_rng(20221709)
        self.fault_data = lattice_data(fixed, LATTICE_FAULT_EIGS,
                                       A=np.diag(LATTICE_FAULT_EIGS.real))

    @staticmethod
    def _linear_op(trajs, lam, degree: int, known_fault: bool = False) -> Op:
        dim = len(lam)

        def run():
            snap = trajectory.multi_snapshots(trajs, Centering.NONE)
            spec_d = spectral.dmd(snap)
            spec_e = spectral.edmd(snap, spectral.Dictionary.monomials(dim, degree))
            verdict = compare.classify(spec_d, spec_e).verdict.value
            principal = spectral.principal_eigenvalues(spec_e, max_power=degree,
                                                       ignore_unit=True)
            return spec_e.eigenvalues, principal, verdict

        def check(out):
            eigs, principal, verdict = out
            return _verdict_outcome(verdict, known_fault,
                                    checks.check_lattice_set(eigs, principal, lam, degree))

        return Op(run, check)

    @staticmethod
    def _exp_op(x0s) -> Op:
        rate = checks.EXP_RATE
        geometric = [x0 * rate ** np.arange(EXP_LENGTH)[:, None] for x0 in x0s]
        trajs4 = _logged(geometric)
        trajs5 = _logged([np.exp(s) for s in geometric])

        def run():
            spec4 = spectral.dmd(trajectory.multi_snapshots(trajs4, Centering.NONE))
            spec5 = spectral.edmd(trajectory.multi_snapshots(trajs5, Centering.NONE),
                                  spectral.Dictionary.monomials(1, 5))
            return spec4.eigenvalues, spec5.eigenvalues, compare.classify(spec4, spec5).verdict.value

        def check(out):
            eigs4, eigs5, verdict = out
            return _verdict_outcome(verdict, False, checks.check_exp_pair(eigs4, eigs5))

        return Op(run, check)

    def round(self, index: int) -> Round:
        rng = np.random.default_rng([self.seed, 2, index])
        ops = []
        for dim, degree in LATTICE_SHAPES + LATTICE_SHAPES:
            lam = sample_eigenvalues(rng, dim, (0.3, 0.92), LATTICE_MAX_POWER,
                                     LATTICE_MARGIN)
            ops.append(self._linear_op(lattice_data(rng, lam), lam, degree))
        ops.append(self._exp_op(rng.uniform(0.8, 1.2, 2)))
        ops.append(self._linear_op(self.fault_data, LATTICE_FAULT_EIGS, LATTICE_FAULT_DEGREE,
                                   known_fault=True))
        half = len(ops) // 2
        return Round([[ops[:half], ops[half:]]])


# --- blackbox ------------------------------------------------------------------

BLACKBOX_ROWS = 1500
# (built-in verdict, dimension of b); a semi-conjugate a has two fewer states
BLACKBOX_PAIRS = (("conjugate", 3), ("semi_conjugate_a_into_b", 5), ("distinct", 4),
                  ("conjugate", 6), ("semi_conjugate_a_into_b", 8), ("distinct", 7))
BLACKBOX_MODULUS = (0.9, 0.995)
BLACKBOX_MAX_POWER = 4  # classify's and run's lattice depth for DMD
BLACKBOX_MARGIN = 5e-3  # above classify's 1e-3 lattice tolerance for DMD


def write_trajectory_csv(path: Path, states) -> None:
    """The documented external format: header k,x0,x1,..., one row a state."""
    lines = ["k," + ",".join(f"x{i}" for i in range(states.shape[1]))]
    lines += [f"{k}," + ",".join(repr(float(v)) for v in row) for k, row in enumerate(states)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def blackbox_pair(rng, verdict: str, dim: int):
    """States of a and b whose relation is the given verdict, with the
    eigenvalues each should show."""
    def sample(count, avoid=()):
        return sample_eigenvalues(rng, count, BLACKBOX_MODULUS, BLACKBOX_MAX_POWER,
                                  BLACKBOX_MARGIN, avoid=avoid)

    if verdict == "semi_conjugate_a_into_b":
        lam_b = sample(dim)
        # a keeps the leading real eigenvalues or whole conjugate pairs
        lam_a, extra = _split_off_two(lam_b)
        xa = linear_states(real_matrix(rng, lam_a), rng.standard_normal(dim - 2), BLACKBOX_ROWS)
        z = linear_states(real_matrix(rng, extra), rng.standard_normal(2), BLACKBOX_ROWS)
        xb = np.hstack([xa, z]) @ _well_conditioned(rng, dim).T
        return xa, xb, lam_a, lam_b
    lam_a = sample(dim)
    xa = linear_states(real_matrix(rng, lam_a), rng.standard_normal(dim), BLACKBOX_ROWS)
    if verdict == "conjugate":
        return xa, xa @ _well_conditioned(rng, dim).T, lam_a, lam_a
    lam_b = sample(dim, avoid=lam_a)
    xb = linear_states(real_matrix(rng, lam_b), rng.standard_normal(dim), BLACKBOX_ROWS)
    return xa, xb, lam_a, lam_b


def _split_off_two(lam):
    """Split off two eigenvalues that a real block can carry: a conjugate
    pair, or two reals."""
    lam = list(lam)
    for i, z in enumerate(lam):
        if abs(z.imag) > 0:
            j = i + 1
            rest = lam[:i] + lam[j + 1:]
            return np.array(rest), np.array(lam[i:j + 1])
    return np.array(lam[2:]), np.array(lam[:2])


class Blackbox:
    """The CLI's logged-data path, in process: `koopeq run --traj` on a and on
    b, then `koopeq compare`. An item is a compared pair. The CSVs are written
    once per pool half; rounds alternate between the two halves."""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.halves = {}

    def _half(self, h: int):
        if h not in self.halves:
            rng = np.random.default_rng([self.seed, 3, h])
            pairs = []
            for p, (verdict, dim) in enumerate(BLACKBOX_PAIRS):
                xa, xb, lam_a, lam_b = blackbox_pair(rng, verdict, dim)
                stem = self.workdir / f"h{h}p{p}"
                paths = {k: Path(f"{stem}-{k}") for k in ("a.csv", "b.csv", "a.json",
                                                         "b.json", "cmp.json")}
                write_trajectory_csv(paths["a.csv"], xa)
                write_trajectory_csv(paths["b.csv"], xb)
                pairs.append((verdict, paths, lam_a, lam_b))
            self.halves[h] = pairs
        return self.halves[h]

    @staticmethod
    def _op(verdict, paths, lam_a, lam_b) -> Op:
        argv_a = ["run", "--traj", str(paths["a.csv"]), "--method", "dmd",
                  "--out", str(paths["a.json"])]
        argv_b = ["run", "--traj", str(paths["b.csv"]), "--method", "dmd",
                  "--out", str(paths["b.json"])]
        argv_c = ["compare", str(paths["a.json"]), str(paths["b.json"]),
                  "--out", str(paths["cmp.json"])]

        def run():
            with contextlib.redirect_stdout(io.StringIO()):
                return cli.main(argv_a), cli.main(argv_b), cli.main(argv_c)

        def check(codes):
            errored = int(max(codes) > checks.MAX_VERDICT_EXIT)
            try:
                texts = [paths[k].read_text(encoding="utf-8")
                         for k in ("a.json", "b.json", "cmp.json")]
            except OSError as exc:
                return Outcome(errored, [f"output file missing: {exc}"])
            return Outcome(errored,
                           checks.check_blackbox_pair(codes, verdict, *texts, lam_a, lam_b))

        return Op(run, check)

    def round(self, index: int) -> Round:
        ops = [self._op(*pair) for pair in self._half(index % 2)]
        return Round([[ops[:3], ops[3:]]])


WORKLOADS = {"sweep": Sweep, "prox": Prox, "lattice": Lattice, "blackbox": Blackbox}
