"""The one rule for count and tolerance arguments, at every site that takes
one: a count is a Python or NumPy integer, not a bool, of at least its
minimum; a tolerance is a finite real number, not a bool, >= 0 (or > 0).
Each site raises its own error class, which the command line maps to 101.

Rows whose id ends in "-parent" passed when each site wrote its check out
by hand; every other row failed then: a NumPy integer was rejected, a bool,
a fraction, a NaN or an infinity was accepted, a raw TypeError escaped, or
the message read otherwise. The 10**400 rows, an integer past float range,
failed when the tolerance rule took it for finite."""
import numpy as np
import pytest

from koopeq import (AlgorithmId, Centering, DecompositionSettings, Oracle, OracleKind,
                    RankPolicy, RunConfig, Trajectory, TrajectoryStatus, classify,
                    custom_map, iterate, make_algorithm, principal_eigenvalues, prox_l2,
                    prox_neglogdet, sym_unflatten)
from koopeq.errors import ConfigurationError, InvalidInputError
from koopeq.experiments import run_sweep_preset

_TRAJ = Trajectory(np.array([0.9 ** np.arange(12), 0.5 ** np.arange(12)]).T,
                   TrajectoryStatus.BUDGET_EXHAUSTED)
_SPEC = DecompositionSettings(centering=Centering.NONE).spectrum(_TRAJ)
_QUAD = Oracle(OracleKind.GRAD_QUADRATIC)

# site: (error class, minimum: an int for a count, "> 0" or ">= 0" for a
# tolerance, the call that takes the value)
SITES = {
    "RunConfig.max_iters": (ConfigurationError, 2, lambda v: iterate(
        make_algorithm(AlgorithmId.ALGO4, _QUAD), 1.0, RunConfig(max_iters=v))),
    "RunConfig.eps": (ConfigurationError, "> 0", lambda v: RunConfig(eps=v)),
    "RankPolicy.rank": (InvalidInputError, 1, lambda v: DecompositionSettings(
        rank_policy=RankPolicy(rank=v)).spectrum(_TRAJ)),
    "RankPolicy.rel_tol": (InvalidInputError, ">= 0", lambda v: RankPolicy(rel_tol=v)),
    "DecompositionSettings.discard": (InvalidInputError, 0,
                                      lambda v: DecompositionSettings(discard=v)),
    "principal_eigenvalues.lattice_tol": (InvalidInputError, ">= 0",
                                          lambda v: principal_eigenvalues(_SPEC, lattice_tol=v)),
    "classify.eps_conj": (InvalidInputError, ">= 0", lambda v: classify(_SPEC, _SPEC, eps_conj=v)),
    "classify.eps_semi": (InvalidInputError, ">= 0", lambda v: classify(_SPEC, _SPEC, eps_semi=v)),
    "prox_l2.gamma": (InvalidInputError, "> 0", lambda v: prox_l2(np.array([3.0, 4.0]), v)),
    "prox_neglogdet.gamma": (InvalidInputError, "> 0", lambda v: prox_neglogdet(np.eye(2), v)),
    "Oracle.gamma": (ConfigurationError, "> 0",
                     lambda v: Oracle(OracleKind.PROX_L2, gamma=v, domain_dim=2)),
    "Oracle.domain_dim": (ConfigurationError, 1, lambda v: Oracle(
        OracleKind.PROX_NEGLOGDET, domain_dim=v).apply(np.ones(v * (v + 1) // 2))),
    "sym_unflatten.n": (InvalidInputError, 0, lambda v: sym_unflatten(np.zeros(0), v)),
    "custom_map.dim": (ConfigurationError, 1,
                       lambda v: iterate(custom_map(lambda x: x / 2, v), np.ones(v))),
    "run_sweep_preset.resolution": (ConfigurationError, 2,
                                    lambda v: run_sweep_preset(v, "quad", "out")),
}


def _rows():
    """(site, value, accepted) for every site: a count rejects 2.5, True,
    "3", one below its minimum, NaN and inf and accepts np.int64 of its
    minimum; a tolerance rejects True, "3", a value below its range (0.0 for
    > 0, -1.0 for >= 0), NaN, inf and 10**400 and accepts np.int64(1)."""
    for site, (_, least, _) in SITES.items():
        if isinstance(least, int):
            bad, good = [2.5, True, "3", least - 1, np.nan, np.inf], np.int64(least)
        else:
            bad = [True, "3", 0.0 if least == "> 0" else -1.0, np.nan, np.inf, 10**400]
            good = np.int64(1)
        yield from ((site, value, False) for value in bad)
        yield site, good, True


ROWS = list(_rows())
# the rows that passed when each site wrote its check out by hand
PARENT = {(site, shown) for site, values in {
    "RunConfig.max_iters": ("2.5", "True", "'3'", "1", "nan", "inf", "np.int64(2)"),
    "RunConfig.eps": ("np.int64(1)",),
    "RankPolicy.rel_tol": ("-1.0", "nan", "inf", "np.int64(1)"),
    "DecompositionSettings.discard": ("2.5", "True", "'3'", "-1", "nan", "inf"),
    "principal_eigenvalues.lattice_tol": ("-1.0", "nan", "inf", "np.int64(1)"),
    "classify.eps_conj": ("-1.0", "nan", "inf", "np.int64(1)"),
    "classify.eps_semi": ("-1.0", "nan", "inf", "np.int64(1)"),
    "prox_l2.gamma": ("0.0", "nan", "inf", "np.int64(1)"),
    "prox_neglogdet.gamma": ("0.0", "nan", "inf", "np.int64(1)"),
    "Oracle.gamma": ("np.int64(1)",),
    "Oracle.domain_dim": ("np.int64(1)",),
    "sym_unflatten.n": ("2.5", "'3'", "-1", "nan", "inf", "np.int64(0)"),
    "custom_map.dim": ("np.int64(1)",),
}.items() for shown in values}


def _id(site, value):
    shown = (f"np.int64({value})" if isinstance(value, np.int64)
             else "10**400" if value == 10**400 else repr(value))
    return f"{site}-{shown}" + ("-parent" if (site, shown) in PARENT else "")


@pytest.mark.parametrize("site, value, accepted", ROWS,
                         ids=[_id(site, value) for site, value, _ in ROWS])
def test_every_count_and_tolerance_takes_one_rule(site, value, accepted, monkeypatch, tmp_path):
    error, least, call = SITES[site]
    monkeypatch.chdir(tmp_path)  # the sweep preset writes its files here
    if accepted:
        call(value)
        return
    name = site.rpartition(".")[2]
    rule = ({0: "a non-negative integer", 1: "a positive integer"}.get(
        least, f"an integer of at least {least}") if isinstance(least, int)
        else "finite and positive" if least == "> 0" else "finite and non-negative")
    with pytest.raises(error, match=f"^{name} must be {rule}, got "):
        call(value)


def test_an_integer_too_long_to_print_takes_the_rule():
    # past Python's 4300-digit limit, repr itself raised a bare ValueError
    with pytest.raises(InvalidInputError, match="got <int too long to print>$"):
        RankPolicy(rel_tol=10**5000)
    with pytest.raises(InvalidInputError, match="got <int too long to print>$"):
        DecompositionSettings(discard=-10**5000)
