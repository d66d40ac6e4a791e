"""Iteration harness and snapshot assembly."""
import dataclasses
import itertools
import warnings

import numpy as np
import pytest

from koopeq import (AlgorithmId, Centering, Oracle, OracleKind, RunConfig,
                    Trajectory, TrajectoryStatus, custom_map, iterate,
                    iterate_many, make_algorithm)
from koopeq import serialize, trajectory
from koopeq.trajectory import multi_snapshots, snapshots
from koopeq.compare import CELL_FAILED, sweep
from koopeq.errors import (ConfigurationError, InsufficientDataError,
                           InvalidInputError, KoopeqError, NonFiniteInputError,
                           NumericFailureError)
from koopeq.experiments import FIG2_DEFAULTS, FIG2_RANGE, FIG2_X0_A

QUAD = Oracle(OracleKind.GRAD_QUADRATIC)
NEGCOS = Oracle(OracleKind.GRAD_NEGCOS)


def test_run_config_validation():
    with pytest.raises(ConfigurationError):
        RunConfig(max_iters=1)
    with pytest.raises(ConfigurationError):
        RunConfig(eps=0.0)
    with pytest.raises(ConfigurationError):
        RunConfig(overflow_cap=1e-15)
    cfg = RunConfig(max_iters=np.int64(5), eps=np.float64(1e-3), overflow_cap=np.inf)
    assert len(iterate(make_algorithm(AlgorithmId.ALGO4, QUAD), 1.0, cfg)) == 6


@pytest.mark.parametrize("field, value", [
    ("max_iters", 10.5), ("max_iters", float("nan")), ("max_iters", np.float64(3.0)),
    ("max_iters", "10"), ("eps", "x"), ("eps", None), ("overflow_cap", "1e8"),
    ("overflow_cap", [1e8]), ("overflow_cap", True), ("overflow_cap", np.nan),
    ("overflow_cap", -np.inf), ("overflow_cap", 1e-13)])
def test_run_config_checks_field_types_when_built(field, value):
    # these used to build, or to raise TypeError, and then fail inside iterate
    with pytest.raises(ConfigurationError, match=field):
        RunConfig(**{field: value})


def test_algo4_geometric_trajectory():
    imap = make_algorithm(AlgorithmId.ALGO4, QUAD)
    traj = iterate(imap, 1.0, RunConfig(eps=1e-12))
    assert traj.status is TrajectoryStatus.CONVERGED
    ks = np.arange(min(10, len(traj)))
    np.testing.assert_allclose(traj.states[:10, 0], 0.6 ** ks, rtol=1e-12)
    assert np.linalg.norm(traj.states[-1] - traj.states[-2]) <= 1e-12


def test_identity_map_converges_after_one_step():
    imap = custom_map(lambda x: x, dim=2, tag="identity")
    traj = iterate(imap, (3.0, -1.0))
    assert traj.status is TrajectoryStatus.CONVERGED
    assert len(traj) == 2


def test_algo3_diverges_at_cap():
    imap = make_algorithm(AlgorithmId.ALGO3, QUAD)
    traj = iterate(imap, (1.0, 1.0), RunConfig(max_iters=200, overflow_cap=1e8))
    assert traj.status is TrajectoryStatus.DIVERGED
    assert np.linalg.norm(traj.states[-1]) >= 1e8
    assert np.all(np.linalg.norm(traj.states[:-1], axis=1) < 1e8)


def test_nan_raises_with_partial():
    calls = []

    def step(x):
        calls.append(1)
        return x * 2.0 if len(calls) < 4 else np.array([np.nan])

    imap = custom_map(step, dim=1)
    with pytest.raises(NumericFailureError) as exc:
        iterate(imap, 1e-3, RunConfig(overflow_cap=1e12))
    assert exc.value.partial is not None
    assert len(exc.value.partial) == 4  # states before the NaN step


def test_iterate_validates_x0():
    imap = make_algorithm(AlgorithmId.ALGO1, QUAD)
    with pytest.raises(Exception):
        iterate(imap, (1.0,))  # wrong length


@pytest.mark.parametrize("x0", [np.ones((2, 1)), [[1.0, 1.0]], np.ones((1, 1, 2))])
def test_iterate_rejects_an_x0_that_is_not_flat(x0):
    # the right number of entries in another shape used to run, stacking
    # states of that shape into a states array of three or more dimensions
    imap = custom_map(lambda x: 0.5 * x, dim=2)
    with pytest.raises(InvalidInputError, match=r"x0 must be a flat state vector"):
        iterate(imap, x0)


@pytest.mark.parametrize("dim, out_shape", [(2, (1, 2)), (2, (2, 1)), (1, (1, 1))])
def test_step_output_of_another_shape_is_a_configuration_error(dim, out_shape):
    # the right number of entries in another shape used to run on and then
    # fail in np.array(states) with a raw ValueError ("inhomogeneous shape")
    imap = custom_map(lambda x: np.reshape(0.5 * x, out_shape), dim=dim)
    x0 = np.ones(dim)
    with pytest.raises(ConfigurationError, match=r"step changed the state shape"):
        iterate(imap, x0)
    got = iterate_many(imap, np.stack([x0, 2 * x0]))
    assert [type(r) for r in got] == [ConfigurationError] * 2
    assert str(got[0]) == f"step changed the state shape from ({dim},) to {out_shape}"


def test_a_0d_step_output_is_a_state_of_a_one_dimensional_map():
    imap = custom_map(lambda x: 0.5 * x[0], dim=1)
    traj = iterate(imap, 1.0, RunConfig(max_iters=3))
    assert traj.states.shape == (4, 1)
    assert traj.states[:, 0].tolist() == [1.0, 0.5, 0.25, 0.125]


STEP_OUTPUTS = {
    "list": lambda x: [0.5 * v for v in x],
    # float32 arithmetic would round 0.1 otherwise than the float64 state's
    "float32": lambda x: (0.5 * x + 0.1).astype(np.float32),
    "fortran_order": lambda x: np.asfortranarray(0.5 * x),
    "reversed_view": lambda x: (0.5 * x[::-1])[::-1],
    "subclass": lambda x: np.ma.masked_array(0.5 * x),
    "wrong_shape": lambda x: np.concatenate([0.5 * x, x[:1]]),
}


@pytest.mark.parametrize("output", list(STEP_OUTPUTS))
def test_a_step_output_other_than_a_float64_state_takes_the_old_path(output):
    # a block of one takes a float64 array of the state's shape as the state;
    # any other output is converted, or rejected, as it always was, there and
    # in a larger block of a columnwise map (a 0-d output:
    # test_a_0d_step_output_is_a_state_of_a_one_dimensional_map)
    step = STEP_OUTPUTS[output]
    imap = dataclasses.replace(make_algorithm(AlgorithmId.ALGO1, QUAD), step=step)
    assert imap.columnwise
    X0 = np.array([[0.7, -0.3], [1.5, 0.25], [-2.0, 1e-3]])
    cfg = RunConfig(max_iters=40)
    want = looped_iterate(imap, X0, cfg)
    assert_same_results([_run_one(imap, x0, cfg) for x0 in X0], want)
    assert_same_results(iterate_many(imap, X0, cfg), want)
    if output == "wrong_shape":
        assert all(isinstance(r, ConfigurationError) for r in want)
    else:
        assert all(isinstance(r, Trajectory) for r in want)


def _run_one(imap, x0, cfg):
    try:
        return iterate(imap, x0, cfg)
    except KoopeqError as exc:
        return exc


@pytest.mark.parametrize("cfg", [RunConfig(max_iters=40), RunConfig(max_iters=300, eps=1e-6)],
                         ids=["budget", "mixed_stops"])
def test_the_runs_of_one_block_share_no_memory(cfg):
    # each run's states come out of one copy of the block's history, as
    # disjoint, writable, C-contiguous arrays
    imap = make_algorithm(AlgorithmId.ALGO2, NEGCOS)
    X0 = np.column_stack([np.full(6, 0.4), np.linspace(-1.5, 1.5, 6)])
    got = iterate_many(imap, X0, cfg)
    assert (len({len(t) for t in got}) > 1) == (cfg.max_iters > 40)
    for a, b in itertools.combinations(got, 2):
        assert not np.shares_memory(a.states, b.states)
    for t in got:
        assert t.states.flags.c_contiguous and t.states.flags.writeable
        assert not np.shares_memory(t.states, X0)
    want = [t.states.copy() for t in got]
    got[0].states[:] = np.nan
    for t, w in zip(got[1:], want[1:]):
        np.testing.assert_array_equal(t.states, w)


# ---------------------------------------------------------------------------
# iterate_many


def stepwise_iterate(imap, x0, cfg):
    """The reference: `iterate` as it ran one step at a time, taking
    `_stop`'s tests after every step and no step past the stop."""
    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    if x.ndim != 1:
        raise InvalidInputError(f"x0 must be a flat state vector, got shape {x.shape}")
    if x.size != imap.dim:
        raise InvalidInputError(f"x0 has length {x.size}, map expects {imap.dim}")
    if not np.isfinite(x).all():
        raise InvalidInputError("x0 contains non-finite entries")
    states = [x]
    for _ in range(cfg.max_iters):
        try:
            xn = np.asarray(imap.step(x), dtype=float)
        except NonFiniteInputError:
            # an oracle rejected a non-finite value that the step made from
            # this finite state
            partial = Trajectory(np.array(states), TrajectoryStatus.BUDGET_EXHAUSTED)
            raise NumericFailureError("non-finite value produced mid-run",
                                      partial=partial) from None
        except InvalidInputError:
            # an oracle rejected a non-finite value: the run's own, when the
            # step meets a floating-point event
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                try:
                    imap.step(x)
                except FloatingPointError:
                    partial = Trajectory(np.array(states), TrajectoryStatus.BUDGET_EXHAUSTED)
                    raise NumericFailureError("non-finite value produced mid-run",
                                              partial=partial) from None
                except InvalidInputError:
                    pass
            raise
        if xn.ndim == 0:
            xn = xn.reshape(1)
        if xn.shape != x.shape:
            raise ConfigurationError(
                f"step changed the state shape from {x.shape} to {xn.shape}")
        stop = trajectory._stop(xn, x, cfg)
        if stop is trajectory._NAN:
            partial = Trajectory(np.array(states), TrajectoryStatus.BUDGET_EXHAUSTED)
            raise NumericFailureError("NaN produced mid-run", partial=partial)
        states.append(xn)
        if stop is not None:
            return Trajectory(np.array(states), stop)
        x = xn
    return Trajectory(np.array(states), TrajectoryStatus.BUDGET_EXHAUSTED)


def looped_iterate(imap, X0, cfg):
    """The reference: `stepwise_iterate` row by row, keeping the error it
    raises."""
    out = []
    for x0 in X0:
        try:
            out.append(stepwise_iterate(imap, x0, cfg))
        except KoopeqError as exc:
            out.append(exc)
    return out


def assert_same_trajectory(a, b):
    assert a.status is b.status
    assert a.states.shape == b.states.shape
    assert np.array_equal(a.states, b.states)


def assert_same_results(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert type(a) is type(b)
        if isinstance(b, KoopeqError):
            assert str(a) == str(b)
            if isinstance(b, NumericFailureError):
                assert_same_trajectory(a.partial, b.partial)
        else:
            assert_same_trajectory(a, b)


@pytest.mark.parametrize("oracle", [QUAD, NEGCOS], ids=["quad", "negcos"])
@pytest.mark.parametrize("algo", [1, 2, 3, 4, 5])
def test_iterate_many_matches_iterate(algo, oracle):
    imap = make_algorithm(AlgorithmId(algo), oracle)
    assert imap.columnwise
    rng = np.random.default_rng(algo)
    X0 = rng.uniform(-2.0, 2.0, (25, imap.dim))
    if algo == 5:
        X0 = np.abs(X0) + 0.05  # algorithm 5 acts on the positive reals
    for cfg in (RunConfig(max_iters=40), RunConfig(max_iters=300, eps=1e-8, overflow_cap=50.0)):
        assert_same_results(iterate_many(imap, X0, cfg), looped_iterate(imap, X0, cfg))


def test_iterate_many_mixed_stops_in_one_block():
    imap = make_algorithm(AlgorithmId.ALGO1, QUAD)
    cfg = RunConfig(max_iters=40, eps=1e-3, overflow_cap=2.5)
    X0 = np.array([[0.01, 0.01], [1.0, 0.5], [2.0, 2.0], [np.nan, 0.0],
                   [0.0, np.inf], [-0.02, 0.01], [0.0, 0.0]])
    got = iterate_many(imap, X0, cfg)
    assert_same_results(got, looped_iterate(imap, X0, cfg))
    assert [getattr(t, "status", None) for t in got] == [
        TrajectoryStatus.CONVERGED, TrajectoryStatus.BUDGET_EXHAUSTED,
        TrajectoryStatus.DIVERGED, None, None, TrajectoryStatus.CONVERGED,
        TrajectoryStatus.CONVERGED]
    assert isinstance(got[3], InvalidInputError) and isinstance(got[4], InvalidInputError)


def test_iterate_many_history_grows_with_the_run_not_the_budget():
    # a budget whose full history would not fit in memory: starts that stop
    # early must not pay for it, and a run past the first buffer still matches
    imap = make_algorithm(AlgorithmId.ALGO1, QUAD)
    X0 = np.array([[1e-3, 0.0], [1.0, -0.5]])
    got = iterate_many(imap, X0, RunConfig(max_iters=10**12, eps=1e-9))
    assert_same_results(got, looped_iterate(imap, X0, RunConfig(max_iters=10**12, eps=1e-9)))
    assert all(t.status is TrajectoryStatus.CONVERGED for t in got)
    assert len(got[1]) > 64


def test_iterate_many_nan_error_carries_partial():
    # x -> x * x, NaN past 100: a column that squares past 100 fails with
    # the states before the NaN step, the others converge
    imap = dataclasses.replace(make_algorithm(AlgorithmId.ALGO4, QUAD),
                               step=lambda x: np.where(x > 100.0, np.nan, x * x))
    assert imap.columnwise
    X0 = np.array([[0.5], [3.0], [1.0], [20.0]])
    cfg = RunConfig(overflow_cap=1e12)
    got = iterate_many(imap, X0, cfg)
    assert_same_results(got, looped_iterate(imap, X0, cfg))
    assert isinstance(got[1], NumericFailureError)
    np.testing.assert_array_equal(got[1].partial.states[:, 0], [3.0, 9.0, 81.0, 6561.0])
    assert len(got[3].partial) == 2
    assert got[0].status is got[2].status is TrajectoryStatus.CONVERGED


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_iterate_many_block_step_error_falls_back():
    # algorithm 5 rejects a state outside its domain x > 0, for the whole
    # block; the rows then run one by one and only that start fails, with
    # the step's error
    imap = make_algorithm(AlgorithmId.ALGO5, QUAD)
    X0 = np.array([[0.5], [-1.0], [2.0]])
    cfg = RunConfig(max_iters=60)
    with pytest.raises(InvalidInputError, match="states > 0"):
        imap.step(X0.T)
    got = iterate_many(imap, X0, cfg)
    assert_same_results(got, looped_iterate(imap, X0, cfg))
    assert isinstance(got[1], InvalidInputError) and "states > 0" in str(got[1])
    assert got[0].status is got[2].status is TrajectoryStatus.CONVERGED


LOGDET_3 = Oracle(OracleKind.PROX_NEGLOGDET, gamma=1.0, domain_dim=3)
L2_6 = Oracle(OracleKind.PROX_L2, gamma=1.0, domain_dim=6)
LOGDET_2 = Oracle(OracleKind.PROX_NEGLOGDET, gamma=1.0, domain_dim=2)
L2_3 = Oracle(OracleKind.PROX_L2, gamma=1.0, domain_dim=3)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("errstate", ["warn", "ignore"])
@pytest.mark.parametrize("imap, x0, states", [
    (make_algorithm(AlgorithmId.ALGO1, NEGCOS), (1e308, 1e308), 1),
    # 2 * 1.6e308 overflows in the second step
    (make_algorithm(AlgorithmId.ALGO1, NEGCOS), (8e307, 0.0), 2),
    # the log-det prox of a block near the float limit is not finite
    (make_algorithm(AlgorithmId.ALGO6, LOGDET_3, L2_6), (0.0,) * 12 + (1e308,) * 6, 1),
    # the same at n = 2, where LAPACK's eigenvalue is inf with no event
    (make_algorithm(AlgorithmId.ALGO6, LOGDET_2, L2_3), (0.0,) * 6 + (1e308,) * 3, 1)],
    ids=["negcos_at_start", "negcos_mid_run", "logdet_limit", "logdet_limit_2x2"])
def test_a_step_that_overflows_ends_the_run_as_a_numeric_failure(imap, x0, states, errstate):
    # the step makes a non-finite value from a finite state and its next
    # oracle rejects it: the run fails numerically, with its states so far
    cfg = RunConfig(overflow_cap=np.inf)
    with np.errstate(all=errstate):
        with pytest.raises(NumericFailureError, match="non-finite value produced mid-run") as info:
            iterate(imap, x0, cfg)
        partial = info.value.partial.states
        assert len(partial) == states and partial[0].tolist() == list(x0)
        assert np.isfinite(partial).all()
        got = iterate_many(imap, np.array([x0, x0]), cfg)
        assert_same_results(got, [info.value] * 2)
        assert_same_results(got, looped_iterate(imap, np.array([x0]), cfg) * 2)
    # the oracles still reject non-finite input that a caller passes in
    for oracle in (NEGCOS, LOGDET_3, L2_6):
        with pytest.raises(InvalidInputError, match="non-finite"):
            oracle.apply(np.full(oracle.state_dim, np.inf))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_sweep_cell_whose_run_overflows_is_a_failed_cell():
    negcos = make_algorithm(AlgorithmId.ALGO1, NEGCOS)
    res = sweep(negcos, (0.1, 0.1), negcos, ([0.1, 1e308], [0.1, 1e308]))
    assert res.flags[1].tolist() == [CELL_FAILED] * 2 and np.isnan(res.distances[1]).all()
    assert res.flags[0, 0] != CELL_FAILED


def test_iterate_many_serial_for_non_columnwise_maps():
    l2 = Oracle(OracleKind.PROX_L2, gamma=0.3, domain_dim=2)
    alg6 = make_algorithm(AlgorithmId.ALGO6, l2, l2)
    assert not alg6.columnwise
    rng = np.random.default_rng(6)
    X0 = rng.uniform(-1.0, 1.0, (4, alg6.dim))
    cfg = RunConfig(max_iters=60)
    assert_same_results(iterate_many(alg6, X0, cfg), looped_iterate(alg6, X0, cfg))

    shapes = []

    def step(x):
        shapes.append(x.shape)
        return 0.5 * x

    imap = custom_map(step, dim=2)
    assert not imap.columnwise
    X0 = np.array([[1.0, 2.0], [0.0, 0.0], [-1.0, 3.0]])
    assert_same_results(iterate_many(imap, X0, cfg), looped_iterate(imap, X0, cfg))
    assert set(shapes) == {(2,)}
    with pytest.raises(InvalidInputError):
        iterate_many(imap, np.array([1.0, 2.0]), cfg)



def norm_loop_iterate(imap, x0, cfg):
    """The reference: `iterate` as it ran with one np.isnan and two
    np.linalg.norm calls a step."""
    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    states = [x]
    status = TrajectoryStatus.BUDGET_EXHAUSTED
    for _ in range(cfg.max_iters):
        xn = np.atleast_1d(np.asarray(imap.step(states[-1]), dtype=float))
        if np.any(np.isnan(xn)):
            partial = Trajectory(np.array(states), TrajectoryStatus.BUDGET_EXHAUSTED)
            raise NumericFailureError("NaN produced mid-run", partial=partial)
        states.append(xn)
        if np.linalg.norm(xn - states[-2]) <= cfg.eps:
            status = TrajectoryStatus.CONVERGED
            break
        if np.linalg.norm(xn) >= cfg.overflow_cap:
            status = TrajectoryStatus.DIVERGED
            break
    return Trajectory(np.array(states), status)


def assert_same_bits(a, b):
    """Trajectories or raised errors that agree bit for bit."""
    assert type(a) is type(b)
    if isinstance(b, KoopeqError):
        assert str(a) == str(b)
        if not isinstance(b, NumericFailureError):
            return
        a, b = a.partial, b.partial
    assert a.status is b.status
    assert a.states.shape == b.states.shape
    assert np.array_equal(a.states.view(np.uint64), b.states.view(np.uint64))


def _block_map(step, dim):
    """A columnwise map on R^dim with the given block-capable step."""
    base = make_algorithm(AlgorithmId.ALGO4 if dim == 1 else AlgorithmId.ALGO1, QUAD)
    return dataclasses.replace(base, dim=dim, step=step)


def _halving(c):
    c = np.asarray(c, dtype=float)
    return lambda x: x + (c.reshape(-1, *([1] * (x.ndim - 1))) - x) / 2


def _strided_contraction(dim):
    A = np.random.default_rng(dim).uniform(-1.0, 1.0, (dim, dim))
    A *= 0.9 / np.abs(np.linalg.eigvals(A)).max()

    def step(x):
        buf = np.empty(2 * dim)
        buf[::2] = A @ x
        return buf[::2]  # not contiguous
    return step


E = 2.0 ** -40
STOP_CASES = {
    # the step shrinks by halves through exactly eps: 2**-40 (1-D) and
    # 5 * 2**-40, the norm of (3, 4) * 2**-40
    "eps_exact_1d": (_halving([1.0]), 1, [[1.0 + 2.0 ** -30], [1.0 - 2.0 ** -31]],
                     [RunConfig(max_iters=60, eps=E),
                      RunConfig(max_iters=60, eps=np.nextafter(E, 0.0))]),
    "eps_exact_2d": (_halving([1.0, 1.0]), 2,
                     [[1.0 + 3 * 2.0 ** -30, 1.0 + 4 * 2.0 ** -30], [1.0, 1.0 - 2.0 ** -33]],
                     [RunConfig(max_iters=60, eps=5 * E),
                      RunConfig(max_iters=60, eps=np.nextafter(5 * E, 0.0))]),
    # doubling from (3, 4) * 2**-3 reaches norm 5 * 2**7 exactly
    "cap_exact": (lambda x: 2.0 * x, 2, [[0.375, 0.5], [-0.375, 0.5], [0.0, 1.0]],
                  [RunConfig(max_iters=60, overflow_cap=640.0),
                   RunConfig(max_iters=60, overflow_cap=np.nextafter(640.0, 1e3))]),
    "cap_exact_1d": (lambda x: -2.0 * x, 1, [[1.0], [-3.0]],
                     [RunConfig(max_iters=60, overflow_cap=2.0 ** 20)]),
    "inf_state": (lambda x: np.where(np.abs(x) > 1e3, np.inf, 3.0 * x), 2,
                  [[1.0, 0.5], [0.0, 1e-3], [0.1, 0.0]],
                  [RunConfig(max_iters=60, overflow_cap=np.inf), RunConfig(max_iters=60)]),
    "nan_mid_run": (lambda x: np.where(x > 100.0, np.nan, x * x), 2,
                    [[3.0, 0.5], [0.5, 0.25], [1.5, 20.0]],
                    [RunConfig(max_iters=60, overflow_cap=1e12)]),
}


@pytest.mark.parametrize("case", sorted(STOP_CASES))
def test_iterate_and_iterate_many_stop_as_the_norm_loop(case):
    step, dim, X0, cfgs = STOP_CASES[case]
    X0 = np.array(X0)
    block = _block_map(step, dim)
    serial = custom_map(step, dim)
    assert block.columnwise and not serial.columnwise
    statuses = set()
    for cfg in cfgs:
        want = []
        for x0 in X0:
            try:
                want.append(norm_loop_iterate(serial, x0, cfg))
            except NumericFailureError as exc:
                want.append(exc)
        for imap in (block, serial):
            got = iterate_many(imap, X0, cfg)
            for x0, a, b in zip(X0, got, want):
                assert_same_bits(a, b)
                try:
                    single = iterate(imap, x0, cfg)
                except NumericFailureError as exc:
                    single = exc
                assert_same_bits(single, b)
        statuses |= {getattr(t, "status", None) for t in want}
    expected = {"eps_exact_1d": TrajectoryStatus.CONVERGED,
                "eps_exact_2d": TrajectoryStatus.CONVERGED,
                "cap_exact": TrajectoryStatus.DIVERGED,
                "cap_exact_1d": TrajectoryStatus.DIVERGED,
                "inf_state": TrajectoryStatus.DIVERGED,
                "nan_mid_run": None}[case]
    assert expected in statuses


def test_exact_thresholds_stop_on_the_step_that_meets_them():
    # <= eps and >= overflow_cap: meeting the bound exactly stops the run
    imap = _block_map(_halving([1.0]), 1)
    at = iterate(imap, 1.0 + 2.0 ** -30, RunConfig(max_iters=60, eps=E))
    below = iterate(imap, 1.0 + 2.0 ** -30, RunConfig(max_iters=60, eps=np.nextafter(E, 0.0)))
    assert at.status is below.status is TrajectoryStatus.CONVERGED
    assert len(at) == 11 and len(below) == 12
    grow = _block_map(lambda x: 2.0 * x, 2)
    got = iterate_many(grow, np.array([[0.375, 0.5]]), RunConfig(overflow_cap=640.0))[0]
    assert got.status is TrajectoryStatus.DIVERGED
    assert np.linalg.norm(got.states[-1]) == 640.0 and len(got) == 11


def test_nan_mid_run_keeps_its_partial():
    imap = _block_map(lambda x: np.where(x > 100.0, np.nan, x * x), 2)
    got = iterate_many(imap, np.array([[3.0, 0.5]]), RunConfig(overflow_cap=1e12))[0]
    assert isinstance(got, NumericFailureError)
    np.testing.assert_array_equal(got.partial.states[:, 0], [3.0, 9.0, 81.0, 6561.0])


@pytest.mark.parametrize("dim", [2, 24])
def test_non_contiguous_steps_match_the_norm_loop(dim):
    # a step that returns a strided view: the stop tests read it as
    # np.linalg.norm does, in index order, whatever its strides
    imap = custom_map(_strided_contraction(dim), dim)
    rng = np.random.default_rng(dim)
    for cfg in (RunConfig(max_iters=300, eps=1e-9), RunConfig(max_iters=40)):
        for x0 in rng.uniform(-1.0, 1.0, (4, dim)):
            assert_same_bits(iterate(imap, x0, cfg), norm_loop_iterate(imap, x0, cfg))


def test_one_dimensional_maps_match_the_norm_loop():
    # a scalar step output is taken as a 1-vector, as np.atleast_1d takes it
    imap = custom_map(lambda x: 0.5 * x[0] + 0.25, dim=1)
    for x0 in (0.0, 3.0, -1e6):
        assert_same_bits(iterate(imap, x0), norm_loop_iterate(imap, x0, RunConfig()))
    algo4 = make_algorithm(AlgorithmId.ALGO4, QUAD)
    X0 = np.array([[1.0], [-2.0], [0.0], [1e-13]])
    cfg = RunConfig(max_iters=80)
    for x0, got in zip(X0, iterate_many(algo4, X0, cfg)):
        assert_same_bits(got, norm_loop_iterate(algo4, x0, cfg))


# ---------------------------------------------------------------------------
# the block loop's chunks of steps between screens


def assert_same_bits_each(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert_same_bits(a, b)


def _rates(x):
    # state (x, r): x -> |r| x, and a NaN once a column with r < 0 passes 1e3
    y = x[0] * np.abs(x[1])
    return np.array([np.where((x[1] < 0) & (np.abs(y) > 1e3), np.nan, y), x[1]])


# starts 2**-s apart, so that the columns that converge (r = 1/2), diverge
# (r = 2) or turn NaN (r = -2) stop at every offset within a chunk, beside
# columns that run on (r close to 1) and one that is a fixed point at once
RATE_STARTS = np.array(
    [[2.0 ** -s, r] for s in range(0, 20) for r in (0.5, 2.0, -2.0)]
    + [[1.0, 1.0 - 2.0 ** -10], [-3.0, 1.0 - 2.0 ** -12], [5.0, 1.0]])
RATE_CFG = dict(eps=2.0 ** -30, overflow_cap=2.0 ** 14)
C = trajectory._CHUNK


@pytest.mark.parametrize("max_iters", [2, 3, C - 1, C, C + 1, 31, 32, 33, 63, 64, 65,
                                       127, 128, 129, 200])
def test_chunked_block_matches_iterate(max_iters):
    cfg = RunConfig(max_iters=max_iters, **RATE_CFG)
    imap = _block_map(_rates, 2)
    got = iterate_many(imap, RATE_STARTS, cfg)
    assert_same_bits_each(got, looped_iterate(imap, RATE_STARTS, cfg))
    if max_iters == 200:
        kinds = {getattr(t, "status", type(t)) for t in got}
        assert kinds == {TrajectoryStatus.CONVERGED, TrajectoryStatus.DIVERGED,
                         TrajectoryStatus.BUDGET_EXHAUSTED, NumericFailureError}
        stops = {len(t) % C for t in got if isinstance(t, Trajectory)}
        assert len(stops) == C  # runs end at every offset within a chunk
    for oracle in (QUAD, NEGCOS):
        imap = make_algorithm(AlgorithmId.ALGO2, oracle)
        axis = np.linspace(-2.0, 2.0, 9)
        X0 = np.column_stack([np.repeat(axis, 9), np.tile(axis, 9)])
        assert_same_bits_each(iterate_many(imap, X0, cfg), looped_iterate(imap, X0, cfg))


def test_a_first_chunk_longer_than_its_history_matches_iterate(monkeypatch):
    # a first chunk of 256 steps used to outrun a history of 64 rows and
    # raise IndexError or ValueError; the history now starts with room for
    # the first chunk
    monkeypatch.setattr(trajectory, "_CHUNK", 256)
    for max_iters in (2, 200, 300, 600):
        cfg = RunConfig(max_iters=max_iters, **RATE_CFG)
        for imap in (_block_map(_rates, 2), custom_map(_rates, 2)):
            assert_same_bits_each(iterate_many(imap, RATE_STARTS, cfg),
                                  looped_iterate(imap, RATE_STARTS, cfg))


def _chunk_end(s, max_iters):
    """The steps a run stopping at step s takes: the first chunk end (C,
    2 C, 4 C, ...) at or past s, within the budget."""
    end = C
    while end < s:
        end *= 2
    return min(end, max_iters)


@pytest.mark.parametrize("max_iters", [40, 200])
@pytest.mark.parametrize("block", [True, False], ids=["block", "single"])
def test_a_converging_run_is_stepped_to_the_chunk_end_past_its_stop(block, max_iters):
    # halving from 2**j takes a step of 2**(j - s) at step s, so eps = 2**-s
    # stops the runs from 1, 2 and 4 at steps s, s + 1 and s + 2; the block
    # steps until the chunk that holds its last stop ends
    for s in (1, 2, 14, 15, 16, 17, 30, 31, 32, 33, 38, 39, 40, 64, 65, 100, 198):
        calls = []

        def step(x):
            calls.append(1)
            return x / 2

        cfg = RunConfig(max_iters=max_iters, eps=2.0 ** -s)
        if block:
            X0 = np.array([[1.0], [2.0], [4.0]])
            got = iterate_many(_block_map(step, 1), X0, cfg)
        else:
            X0 = np.array([[1.0]])
            got = [iterate(custom_map(step, 1), 1.0, cfg)]
        stops = [s + j for j in range(len(X0))]
        last = min(stops[-1], max_iters)
        assert len(calls) == _chunk_end(last, max_iters) <= max(C, 2 * last)
        for t, stop in zip(got, stops):
            if stop <= max_iters:
                assert t.status is TrajectoryStatus.CONVERGED and len(t) == stop + 1
            else:
                assert t.status is TrajectoryStatus.BUDGET_EXHAUSTED
                assert len(t) == max_iters + 1


@pytest.fixture
def fallbacks(monkeypatch):
    """The calls of `trajectory.iterate`, which `iterate_many` falls back to."""
    calls = []
    single = trajectory.iterate
    monkeypatch.setattr(trajectory, "iterate",
                        lambda *a, **k: calls.append(1) or single(*a, **k))
    return calls


def _raising(limit):
    def step(x):
        if np.any(np.abs(x[0]) > limit):
            raise InvalidInputError(f"state past {limit}")
        return _rates(x)
    return step


@pytest.mark.parametrize("limit, serial", [(100.0, 4), (2.0 ** 16, 0)],
                         ids=["running_column", "stopped_column"])
def test_chunked_block_step_error(limit, serial, fallbacks):
    # row 1 doubles until a step raises for it mid-chunk: below the cap, while
    # every row still runs, they all redo their runs in `iterate`; past the
    # cap, where it stopped earlier in the chunk, the block goes on without it
    imap = _block_map(_raising(limit), 2)
    X0 = np.array([[1.0, 0.5], [2.0 ** -6, 2.0], [1.0, 1.0 - 2.0 ** -10], [3.0, 0.75]])
    cfg = RunConfig(max_iters=60, **RATE_CFG)
    got = iterate_many(imap, X0, cfg)
    assert len(fallbacks) == serial
    assert_same_bits_each(got, looped_iterate(imap, X0, cfg))
    assert isinstance(got[1], InvalidInputError) == (serial > 0)


@pytest.mark.parametrize("case", sorted(STOP_CASES))
def test_stop_cases_through_the_block_raise_no_warning(case):
    step, dim, X0, cfgs = STOP_CASES[case]
    imap = _block_map(step, dim)
    for cfg in cfgs:
        want = looped_iterate(custom_map(step, dim), np.array(X0), cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = iterate_many(imap, np.array(X0), cfg)
        assert_same_bits_each(got, want)


def test_block_thresholds_near_the_float_limit():
    # squared thresholds past the float range used to overflow in the screen;
    # `_stop` takes the 1e200 state's norm scaled, where its square overflows
    imap = _block_map(_rates, 2)
    X0 = np.array([[1e150, 2.0], [1.0, 0.5], [1e-170, 0.5], [1e200, 1.0]])
    for cfg in (RunConfig(overflow_cap=1e200), RunConfig(eps=1e160, overflow_cap=1e300),
                RunConfig(eps=1e-200, overflow_cap=1e-100)):
        assert_same_bits_each(iterate_many(imap, X0, cfg), looped_iterate(imap, X0, cfg))


@pytest.mark.parametrize("case", sorted(STOP_CASES))
def test_iterate_and_iterate_many_match_the_stepwise_loop(case):
    # the chunked runs of both against the one-step-at-a-time loop, for a
    # block map and a black box, at budgets that end inside and at the end
    # of a chunk
    step, dim, X0, cfgs = STOP_CASES[case]
    X0 = np.array(X0)
    for cfg in cfgs:
        for max_iters in (C - 1, C, 2 * C + 3, cfg.max_iters):
            cfg = dataclasses.replace(cfg, max_iters=max_iters)
            for imap in (_block_map(step, dim), custom_map(step, dim)):
                want = looped_iterate(imap, X0, cfg)
                assert_same_bits_each(iterate_many(imap, X0, cfg), want)
                got = []
                for x0 in X0:
                    try:
                        got.append(iterate(imap, x0, cfg))
                    except KoopeqError as exc:
                        got.append(exc)
                assert_same_bits_each(got, want)


def _halving_until(floor, error):
    """x -> x / 2, raising `error` for a state below `floor`."""
    def step(x):
        if np.any(np.abs(x) < floor):
            raise error
        return x / 2
    return step


@pytest.mark.parametrize("block", [True, False], ids=["block", "serial"])
def test_a_step_that_raises_past_a_stop_leaves_the_stopped_run(block):
    # halving from 1 converges at state 5 (a step of 2**-5 meets eps); the
    # step from state 5 raises, inside the chunk that stopped the run
    step = _halving_until(0.04, ValueError("past the stop"))
    imap = _block_map(step, 1) if block else custom_map(step, 1)
    cfg = RunConfig(eps=2.0 ** -5)
    got = iterate(imap, 1.0, cfg)
    assert got.status is TrajectoryStatus.CONVERGED and len(got) == 6
    assert_same_bits(got, stepwise_iterate(imap, 1.0, cfg))
    assert_same_bits(iterate_many(imap, np.array([[1.0]]), cfg)[0], got)


@pytest.mark.parametrize("block", [True, False], ids=["block", "serial"])
def test_a_step_that_raises_before_any_stop_propagates(block):
    step = _halving_until(0.2, ValueError("before the stop"))
    imap = _block_map(step, 1) if block else custom_map(step, 1)
    cfg = RunConfig(eps=2.0 ** -5)
    with pytest.raises(ValueError, match="before the stop"):
        iterate(imap, 1.0, cfg)
    with pytest.raises(ValueError, match="before the stop"):
        iterate_many(imap, np.array([[1.0]]), cfg)


@pytest.mark.parametrize("block", [True, False], ids=["block", "serial"])
def test_norms_whose_squares_overflow_stop_at_the_thresholds(block):
    # a squared norm past the float range used to stop the run DIVERGED
    # near 1.3e154, with a RuntimeWarning from the dot
    make = (lambda step: _block_map(step, 1)) if block else (lambda step: custom_map(step, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grow = iterate(make(lambda x: 10.0 * x), 1e150, RunConfig(overflow_cap=1e300))
        fixed = iterate(make(lambda x: np.minimum(x + 1e155, 1e155)), 0.0,
                        RunConfig(eps=1e160, overflow_cap=1e300))
        many = iterate_many(make(lambda x: 10.0 * x), np.array([[1e150], [1e290]]),
                            RunConfig(overflow_cap=1e300))
    assert grow.status is TrajectoryStatus.DIVERGED and len(grow) == 151
    assert 1e300 <= grow.states[-1, 0] < 1e301
    assert fixed.status is TrajectoryStatus.CONVERGED and len(fixed) == 2
    assert_same_bits(many[0], grow)
    assert many[1].status is TrajectoryStatus.DIVERGED and len(many[1]) == 11


@pytest.mark.parametrize("block", [True, False], ids=["block", "serial"])
def test_norms_whose_squares_underflow_stop_at_the_thresholds(block):
    # a squared step of 1e-340 underflows to 0, which used to read CONVERGED
    # under any eps; the scaled norm of a 1e-170 step is 1e-170
    make = (lambda step: _block_map(step, 1)) if block else (lambda step: custom_map(step, 1))
    imap = make(lambda x: x + 1e-170)
    X0 = np.array([[0.0], [1e-300]])
    for eps, status, length in ((1e-200, TrajectoryStatus.BUDGET_EXHAUSTED, 201),
                                (1e-160, TrajectoryStatus.CONVERGED, 2)):
        cfg = RunConfig(eps=eps, overflow_cap=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            single = iterate(imap, 0.0, cfg)
            many = iterate_many(imap, X0, cfg)
        assert single.status is status and len(single) == length
        assert_same_bits(many[0], single)
        assert many[1].status is status and len(many[1]) == length


def test_steps_past_a_stop_show_no_floating_point_event():
    # the chunk that stops the 10x run at the cap steps on to inf; a step
    # before the stop still shows its event, by the caller's settings
    imap = custom_map(lambda x: 10.0 * x, 1)
    with warnings.catch_warnings(record=True) as shown:
        warnings.simplefilter("always")
        got = iterate(imap, 1e295, RunConfig(overflow_cap=1e300))
        many = iterate_many(_block_map(lambda x: 10.0 * x, 1), np.array([[1e295], [1e-3]]),
                            RunConfig(overflow_cap=1e300))
    assert got.status is TrajectoryStatus.DIVERGED and len(got) == 6 and shown == []
    assert_same_bits(many[0], got)
    with pytest.warns(RuntimeWarning, match="overflow"):
        got = iterate(imap, 1e300, RunConfig(overflow_cap=np.inf))
    assert got.status is TrajectoryStatus.DIVERGED and np.isinf(got.states[-1, 0])
    assert len(got) == 10
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        iterate(imap, 1e300, RunConfig(overflow_cap=np.inf))


def test_a_block_step_event_before_any_stop_redoes_the_rows():
    # the block step that overflows row 0 to inf raises before its chunk
    # shows a stop, so both rows run again one by one: the event shows once,
    # by the caller's settings, and each row gets `iterate`'s result
    imap = _block_map(lambda x: 10.0 * x, 1)
    X0 = np.array([[1e300], [1.0]])
    cfg = RunConfig(overflow_cap=np.inf)
    with warnings.catch_warnings(record=True) as shown:
        warnings.simplefilter("always")
        got = iterate_many(imap, X0, cfg)
    assert [(w.category, "overflow" in str(w.message)) for w in shown] == [(RuntimeWarning, True)]
    assert got[0].status is TrajectoryStatus.DIVERGED and len(got[0]) == 10
    assert got[1].status is TrajectoryStatus.BUDGET_EXHAUSTED and len(got[1]) == 201
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert_same_bits_each(got, [iterate(imap, x0, cfg) for x0 in X0])
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        iterate_many(imap, X0, cfg)


@pytest.mark.parametrize("block", [True, False], ids=["block", "serial"])
def test_stop_tests_raise_no_floating_point_event_of_their_own(block):
    # squares of a coordinate near 1e-160 underflow in the screen; the stop
    # tests raise nothing under a caller's all="raise", as the dot did
    step = lambda x: 0.5 * x
    imap = _block_map(step, 2) if block else custom_map(step, 2)
    cfg = RunConfig(max_iters=60, eps=1e-9)
    with np.errstate(all="raise"):
        got = iterate_many(imap, np.array([[1e-160, 1.0], [1e-200, 1e-200]]), cfg)
    assert [t.status for t in got] == [TrajectoryStatus.CONVERGED] * 2
    assert_same_bits_each(got, looped_iterate(imap, np.array([[1e-160, 1.0], [1e-200, 1e-200]]), cfg))


@pytest.mark.parametrize("oracle", ["quad", "negcos"])
def test_fig2_rows_never_fall_back_to_iterate(oracle, fallbacks):
    defaults = FIG2_DEFAULTS[oracle]
    kind = OracleKind.GRAD_QUADRATIC if oracle == "quad" else OracleKind.GRAD_NEGCOS
    axis = np.linspace(*FIG2_RANGE, defaults["resolution"])
    result = sweep(make_algorithm(AlgorithmId.ALGO1, Oracle(kind)), FIG2_X0_A,
                   make_algorithm(AlgorithmId.ALGO2, Oracle(kind)), (axis, axis),
                   cfg=defaults["cfg"], settings=defaults["settings"])
    assert fallbacks == []
    assert np.isfinite(result.distances).all()


# ---------------------------------------------------------------------------
# snapshots


def test_snapshots_plain_pairing():
    traj = Trajectory(np.array([[1.0], [0.6], [0.36]]), TrajectoryStatus.BUDGET_EXHAUSTED)
    snap = snapshots(traj, Centering.NONE)
    np.testing.assert_allclose(snap.X, [[1.0, 0.6]])
    np.testing.assert_allclose(snap.Y, [[0.6, 0.36]])


def test_snapshots_fixed_point_centering():
    traj = Trajectory(np.array([[2.0], [1.5], [1.25], [1.125]]),
                      TrajectoryStatus.CONVERGED)
    snap = snapshots(traj, Centering.FIXED_POINT)  # centred on the final state
    np.testing.assert_allclose(snap.X, [[0.875, 0.375, 0.125]])
    np.testing.assert_allclose(snap.Y, [[0.375, 0.125, 0.0]])
    assert "centered" in snap.observable_tag


def test_snapshots_constant_trajectory_centers_to_zero():
    traj = Trajectory(np.full((3, 2), 7.0), TrajectoryStatus.CONVERGED)
    snap = snapshots(traj, Centering.FIXED_POINT)
    assert np.all(snap.X == 0.0) and np.all(snap.Y == 0.0)


def test_snapshots_too_few_states():
    traj = Trajectory(np.array([[1.0], [0.5]]), TrajectoryStatus.CONVERGED)
    with pytest.raises(InsufficientDataError):
        snapshots(traj, Centering.NONE)


def test_default_centering_policy():
    conv = Trajectory(np.zeros((3, 1)), TrajectoryStatus.CONVERGED)
    div = Trajectory(np.ones((3, 1)), TrajectoryStatus.DIVERGED)
    assert "centered" in snapshots(conv).observable_tag
    assert snapshots(div).observable_tag == "identity"


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def test_fixed_point_centering_subtracts_the_final_state(tmp_path):
    # FIXED_POINT centring is `states - states[-1]` bit for bit for runs from
    # `iterate`, the block loop and CSV ingest; centering=None centres exactly
    # the converged runs
    converged = iterate(make_algorithm(AlgorithmId.ALGO4, QUAD), 1.0)
    path = tmp_path / "t.csv"
    rows = enumerate(converged.states[:, 0].tolist())
    path.write_text("k,x0\n" + "".join(f"{k},{x!r}\n" for k, x in rows))
    ingested = serialize.ingest_external_trajectory(path)
    block = [t for t in iterate_many(_block_map(_rates, 2), RATE_STARTS,
                                     RunConfig(max_iters=200, **RATE_CFG))
             if isinstance(t, Trajectory) and len(t) >= 3]
    assert converged.status is ingested.status is TrajectoryStatus.CONVERGED
    assert {t.status for t in block} == set(TrajectoryStatus)
    for traj in [converged, ingested, *block]:
        want = traj.states - traj.states[-1]
        snap = snapshots(traj, Centering.FIXED_POINT)
        assert np.array_equal(_bits(snap.X), _bits(want[:-1].T))
        assert np.array_equal(_bits(snap.Y), _bits(want[1:].T))
        auto = snapshots(traj)
        centred = traj.status is TrajectoryStatus.CONVERGED
        if not centred:
            want = traj.states
        assert ("centered" in auto.observable_tag) == centred
        assert np.array_equal(_bits(auto.X), _bits(want[:-1].T))
        assert np.array_equal(_bits(auto.Y), _bits(want[1:].T))


def test_multi_snapshots():
    t1 = Trajectory(np.array([[1.0], [2.0], [3.0]]), TrajectoryStatus.BUDGET_EXHAUSTED)
    t2 = Trajectory(np.array([[5.0], [6.0], [7.0]]), TrajectoryStatus.BUDGET_EXHAUSTED)
    snap = multi_snapshots([t1, t2], Centering.NONE)
    assert snap.X.shape == (1, 4)
    # pairing never crosses the trajectory boundary
    np.testing.assert_allclose(snap.X, [[1.0, 2.0, 5.0, 6.0]])
    np.testing.assert_allclose(snap.Y, [[2.0, 3.0, 6.0, 7.0]])
    single = multi_snapshots([t1], Centering.NONE)
    np.testing.assert_array_equal(single.X, snapshots(t1, Centering.NONE).X)
    with pytest.raises(InsufficientDataError):
        multi_snapshots([])
    bad = Trajectory(np.zeros((3, 2)), TrajectoryStatus.BUDGET_EXHAUSTED)
    with pytest.raises(ConfigurationError):
        multi_snapshots([t1, bad])


def test_multi_snapshots_rejects_a_pool_of_centred_and_uncentred_runs():
    # under the default centring a converged run is centred and a running one
    # is not; such a pool took its first run's tag, whichever order it came in
    imap = make_algorithm(AlgorithmId.ALGO4, QUAD)
    converged = iterate(imap, 1.0)
    running = iterate(imap, 1.0, RunConfig(max_iters=20))
    assert converged.status is TrajectoryStatus.CONVERGED
    assert running.status is TrajectoryStatus.BUDGET_EXHAUSTED
    for pool in ([converged, running], [running, converged]):
        with pytest.raises(ConfigurationError, match="centred and uncentred"):
            multi_snapshots(pool)
        for centering in Centering:  # a centring given decides for every run
            snap = multi_snapshots(pool, centering)
            assert snap.X.shape[1] == len(converged) + len(running) - 2
            assert snap.observable_tag == snapshots(converged, centering).observable_tag
    for pool in ([converged, converged], [running, running]):
        assert multi_snapshots(pool).observable_tag == snapshots(pool[0]).observable_tag


def test_snapshot_columns_are_step_images():
    imap = make_algorithm(AlgorithmId.ALGO1, QUAD)
    traj = iterate(imap, (0.3, -0.7), RunConfig(max_iters=30))
    snap = snapshots(traj, Centering.NONE)
    for j in range(snap.X.shape[1]):
        np.testing.assert_allclose(imap.step(snap.X[:, j]), snap.Y[:, j], atol=1e-14)


def test_contraction_rates():
    # spectral radii of the linear updates: sqrt(0.8) for algos 1-2, 0.6 for
    # 4-5. The rotating pair of algos 1-2 contracts at that rate on average
    # (single steps oscillate above it because the updates are non-normal);
    # the scalar algos contract at every step.
    for algo_id, x0 in [(AlgorithmId.ALGO1, (1.0, 1.0)),
                        (AlgorithmId.ALGO2, (1.0, 0.0))]:
        imap = make_algorithm(algo_id, QUAD)
        traj = iterate(imap, x0, RunConfig(max_iters=200))
        norms = np.linalg.norm(traj.states, axis=1)
        K = len(norms) - 1
        mean_rate = (norms[-1] / norms[0]) ** (1.0 / K)
        assert mean_rate <= np.sqrt(0.8) + 5e-3, f"{algo_id}: rate {mean_rate}"
    imap4 = make_algorithm(AlgorithmId.ALGO4, QUAD)
    traj4 = iterate(imap4, (1.0,), RunConfig(max_iters=60))
    n4 = np.abs(traj4.states[:, 0])
    assert np.all(n4[1:] <= n4[:-1] * (0.6 + 1e-9))
    imap5 = make_algorithm(AlgorithmId.ALGO5, QUAD)
    traj5 = iterate(imap5, (np.e,), RunConfig(max_iters=60))
    dists = np.abs(traj5.states[:, 0] - 1.0)  # fixed point at 1
    ratios = dists[1:][dists[:-1] > 1e-10] / dists[:-1][dists[:-1] > 1e-10]
    assert np.all(ratios <= 0.6 + 1e-2)


def test_discard_prefix_keeps_minimum():
    traj = Trajectory(np.arange(10, dtype=float).reshape(-1, 1),
                      TrajectoryStatus.BUDGET_EXHAUSTED)
    assert len(traj.discard_prefix(4)) == 6
    assert len(traj.discard_prefix(100)) == 3
    np.testing.assert_allclose(traj.discard_prefix(4).states[0], [4.0])
