"""Command-line entry point.

Commands: `run` (trajectory -> spectrum file), `compare` (two spectrum files
-> verdict), `sweep` (initial-condition distance grid), `reproduce` (figure
presets). Exit status encodes the verdict for scripting: 0 conjugate, 10
semi-conjugate, 20 distinct; errors use codes above 100 (101 configuration,
102 parse, 103 numeric/degenerate), each stated by the error's class in
`errors.py`, with a single-line diagnostic on stderr.
"""
from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

import numpy as np

from . import serialize
from .compare import DecompositionSettings, classify
from .corpus import AlgorithmId, make_algorithm
from .errors import ConfigurationError, KoopeqError, ParseError, count
from .oracles import Oracle, OracleKind
from .spectral import Dictionary, RankPolicy
from .trajectory import Centering, RunConfig, iterate

OUTDIR_ENV = "KOOPEQ_OUTDIR"

_ORACLES = {
    "quad": OracleKind.GRAD_QUADRATIC,
    "negcos": OracleKind.GRAD_NEGCOS,
    "l2": OracleKind.PROX_L2,
    "logdet": OracleKind.PROX_NEGLOGDET,
}


class CliUsageError(KoopeqError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliUsageError(message)


def _parse_x0(text: str) -> tuple:
    try:
        return tuple(float(p) for p in text.split(","))
    except ValueError:
        raise CliUsageError(f"--x0 expects comma-separated numbers, got {text!r}") from None


def _default_outdir() -> str:
    return os.environ.get(OUTDIR_ENV, ".")


@functools.lru_cache(maxsize=1)
def _build_parser():
    """The parser and its subparsers, built once per process: parsing only
    reads them."""
    parser = _Parser(prog="koopeq",
                     description="Koopman-spectrum equivalence analysis of "
                                 "iterative algorithms")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)
    subparsers = {}

    run = sub.add_parser("run", help="run an algorithm (or ingest a trajectory) "
                                     "and write its spectrum")
    run.add_argument("--algo", type=int, choices=range(1, 8), help="benchmark algorithm id")
    run.add_argument("--oracle", choices=sorted(_ORACLES), help="oracle for the algorithm")
    run.add_argument("--oracle-g", choices=["l2", "logdet"], default=None,
                     help="second oracle (algorithms 6 and 7)")
    # the flags one route reads default to None, so a route can tell which
    # of the others were given; the route applies the stated default
    run.add_argument("--gamma", type=float, help="proximal step (default 1)")
    run.add_argument("--matrix-dim", type=int,
                     help="side length for the log-det oracle (default 2)")
    run.add_argument("--x0", type=str, help="initial state, comma separated")
    run.add_argument("--traj", type=str, help="external trajectory CSV instead of an algorithm")
    run.add_argument("--method", choices=["dmd", "edmd"], default="dmd")
    run.add_argument("--dict", dest="dictionary", choices=["identity", "monomials", "log"],
                     help="edmd dictionary (default monomials)")
    run.add_argument("--degree", type=int, help="monomial total degree (default 5)")
    run.add_argument("--max-iters", type=int, help="step budget (default 200)")
    run.add_argument("--eps", type=float, default=1e-12)
    run.add_argument("--cap", type=float, help="overflow cap (default 1e8)")
    run.add_argument("--centering", choices=["auto", "none", "fixed-point"], default="auto")
    run.add_argument("--discard", type=int, default=0,
                     help="leading states to drop before decomposition")
    run.add_argument("--rank", type=int, default=None, help="fixed SVD rank")
    run.add_argument("--svd-tol", type=float, default=1e-10,
                     help="relative singular-value threshold (default 1e-10)")
    run.add_argument("--out", type=str, default=None, help="spectrum output path")
    run.add_argument("--config", type=str, default=None)
    subparsers["run"] = run

    comp = sub.add_parser("compare", help="classify two spectrum files")
    comp.add_argument("path_a")
    comp.add_argument("path_b")
    comp.add_argument("--eps-conj", type=float, default=None)
    comp.add_argument("--eps-semi", type=float, default=None)
    comp.add_argument("--lattice-tol", type=float, default=None)
    comp.add_argument("--max-power", type=int, default=None)
    comp.add_argument("--keep-unit", action="store_true",
                      help="keep constant-mode eigenvalues near 1")
    comp.add_argument("--out", type=str, default=None, help="comparison output path")
    comp.add_argument("--config", type=str, default=None)
    subparsers["compare"] = comp

    sw = sub.add_parser("sweep", help="initial-condition sweep of algorithm 2 "
                                      "against algorithm 1")
    sw.add_argument("--oracle", choices=["quad", "negcos"], default="quad")
    sw.add_argument("--resolution", type=int, default=None)
    sw.add_argument("--outdir", type=str, default=None)
    sw.add_argument("--config", type=str, default=None)
    subparsers["sweep"] = sw

    rep = sub.add_parser("reproduce", help="run experiment presets")
    rep.add_argument("figure", help="a preset name, or all")
    rep.add_argument("--outdir", type=str, default=None)
    rep.add_argument("--resolution", type=int, default=None,
                     help="override the sweep grid resolution (fig2)")
    rep.add_argument("--config", type=str, default=None)
    subparsers["reproduce"] = rep
    return parser, subparsers


def _apply_config(parser, subparsers, argv, args):
    """Strictly merge a JSON config file: its keys mirror the flag names of
    the chosen command, each value parsed by its flag like its string form
    (switches take true or false); unknown keys are rejected; flags win."""
    if not getattr(args, "config", None):
        return args
    try:
        cfg = serialize.read_json(args.config)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file: {exc}") from exc
    except ParseError as exc:
        raise ParseError(f"config file is {exc}") from None
    if not isinstance(cfg, dict):
        raise ParseError("config file must hold a JSON object")
    actions = {a.dest: a for a in subparsers[args.command]._actions
               if a.option_strings and a.dest not in ("help", "config")}
    unknown = set(cfg) - set(actions)
    if unknown:
        raise ConfigurationError(f"unknown config fields: {sorted(unknown)}")
    given = []
    for key, value in cfg.items():
        flag, switch = actions[key].option_strings[-1], actions[key].nargs == 0
        if isinstance(value, bool) is not switch or not isinstance(value, (str, int, float)):
            kind = "true or false" if switch else "a string or a number"
            raise ConfigurationError(f"config field {key} takes {kind}")
        if value or not switch:
            given.append(flag if switch else f"{flag}={value}")
    return parser.parse_args([args.command] + given + argv[argv.index(args.command) + 1:])


def _make_oracle(name, args, dim):
    """The oracle `name` on blocks of `dim` entries; log-det on --matrix-dim."""
    kind = _ORACLES[name]
    if kind is OracleKind.PROX_NEGLOGDET:
        dim = 2 if args.matrix_dim is None else args.matrix_dim
    return Oracle(kind, domain_dim=dim, **_given(gamma=args.gamma))


def _given(**kwargs):
    """The keyword arguments whose flags were given; the library's defaults
    stand for the rest."""
    return {k: v for k, v in kwargs.items() if v is not None}


def _unread(args, dests, route):
    """Reject the first given run flag among `dests`: `route` never reads it."""
    for action in _build_parser()[1]["run"]._actions:
        if action.dest in dests and getattr(args, action.dest) is not None:
            raise ConfigurationError(f"{action.option_strings[-1]} does not apply to {route}")


def _centering_of(args):
    return {"auto": None, "none": Centering.NONE,
            "fixed-point": Centering.FIXED_POINT}[args.centering]


def cmd_run(args) -> int:
    if (args.traj is None) == (args.algo is None):
        raise ConfigurationError("give exactly one of --algo or --traj")
    if args.method == "dmd":
        _unread(args, ("dictionary", "degree"), "--method dmd")
    elif args.dictionary not in (None, "monomials"):
        _unread(args, ("degree",), f"--dict {args.dictionary}")
    if args.traj is not None:
        _unread(args, ("x0", "oracle", "oracle_g", "gamma", "matrix_dim", "max_iters", "cap"),
                "--traj")
        traj = serialize.ingest_external_trajectory(args.traj, eps=args.eps)
    else:
        if args.oracle is None:
            raise ConfigurationError("--oracle is required when --algo is given")
        route = f"--oracle {args.oracle}"
        kinds = {_ORACLES[args.oracle]}
        if args.oracle_g is not None:
            route += f" --oracle-g {args.oracle_g}"
            kinds.add(_ORACLES[args.oracle_g])
        if not kinds & {OracleKind.PROX_L2, OracleKind.PROX_NEGLOGDET}:
            _unread(args, ("gamma",), route)
        if OracleKind.PROX_NEGLOGDET not in kinds:
            _unread(args, ("matrix_dim",), route)
        oracle_f = _make_oracle(args.oracle, args, 1)
        # make_algorithm decides whether the algorithm takes a second oracle
        oracle_g = (None if args.oracle_g is None
                    else _make_oracle(args.oracle_g, args, oracle_f.state_dim))
        imap = make_algorithm(AlgorithmId(args.algo), oracle_f, oracle_g)
        if args.x0 is None:
            raise ConfigurationError("--x0 is required when --algo is given")
        cfg = RunConfig(eps=args.eps, **_given(max_iters=args.max_iters, overflow_cap=args.cap))
        traj = iterate(imap, _parse_x0(args.x0), cfg)
    dct = None
    if args.method == "edmd":
        if args.dictionary == "identity":
            dct = Dictionary.identity(traj.dim)
        elif args.dictionary in (None, "monomials"):
            dct = Dictionary.monomials(traj.dim, 5 if args.degree is None else args.degree)
        else:  # scalar: its lift rejects data of any other dimension
            dct = Dictionary.custom(1, [("log", lambda s: float(np.log(s[0])))])
    settings = DecompositionSettings(method=args.method, dictionary=dct,
                                     rank_policy=RankPolicy(rank=args.rank,
                                                            rel_tol=args.svd_tol),
                                     centering=_centering_of(args), discard=args.discard)
    spec = settings.spectrum(traj)
    out = Path(args.out) if args.out else Path(_default_outdir()) / "spectrum.json"
    d = serialize.spectrum_to_dict(spec)
    serialize.write_json(out, d)
    pretty = ", ".join(f"{re:.12g}{im:+.12g}j" for re, im in d["principal"])
    print(f"principal eigenvalues: [{pretty}]")
    print(f"spectrum written to {out}")
    return 0


_VERDICT_EXIT = {"conjugate": 0, "semi_conjugate_a_into_b": 10,
                 "semi_conjugate_b_into_a": 10, "distinct": 20}


def cmd_compare(args) -> int:
    spec_a = serialize.spectrum_from_dict(serialize.read_json(args.path_a))
    spec_b = serialize.spectrum_from_dict(serialize.read_json(args.path_b))
    cmp = classify(spec_a, spec_b, eps_conj=args.eps_conj, eps_semi=args.eps_semi,
                   ignore_unit_constant=not args.keep_unit,
                   lattice_tol=args.lattice_tol, max_power=args.max_power)
    out = Path(args.out) if args.out else Path(_default_outdir()) / "comparison.json"
    serialize.write_json(out, serialize.comparison_to_dict(cmp))
    print(f"verdict: {cmp.verdict.value}")
    print(f"comparison written to {out}")
    return _VERDICT_EXIT[cmp.verdict.value]


def cmd_sweep(args) -> int:
    from . import experiments  # the presets and their plots: sweep and reproduce only
    outdir = args.outdir or _default_outdir()
    part = experiments.run_sweep_preset(args.resolution, args.oracle, outdir)
    s = part["summary"]
    print(f"sweep {args.oracle}: {s['cells']} cells, min={s['min']:.3e} "
          f"median={s['median']:.3e} max={s['max']:.3e}")
    return 0


def cmd_reproduce(args) -> int:
    from . import experiments
    if args.resolution is not None:  # checked before any preset writes a file
        if args.figure in experiments.PRESET_NAMES and args.figure != "fig2":
            raise ConfigurationError(f"--resolution does not apply to {args.figure}")
        count("resolution", args.resolution, 2, ConfigurationError)
    outdir = args.outdir or _default_outdir()
    names = experiments.PRESET_NAMES if args.figure == "all" else (args.figure,)
    for name in names:
        manifest = experiments.run_preset(name, outdir, resolution=args.resolution)
        verdicts = manifest.get("verdicts", {})
        summary = ", ".join(f"{k}={v}" for k, v in sorted(verdicts.items())) or "see summaries"
        print(f"{name}: {len(manifest['files'])} files; {summary}")
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, subparsers = _build_parser()
    try:
        args = parser.parse_args(argv)
        args = _apply_config(parser, subparsers, argv, args)
        handler = {"run": cmd_run, "compare": cmd_compare,
                   "sweep": cmd_sweep, "reproduce": cmd_reproduce}[args.command]
        # an overflow ends in a finiteness check and its one error line, so
        # NumPy's RuntimeWarning lines would only precede it on stderr
        with np.errstate(all="ignore"):
            return handler(args)
    except KoopeqError as exc:  # its class states its kind and exit code
        line = getattr(exc, "line", None)  # a ParseError's first bad line
        loc = f" line={line}" if line is not None else ""
        print(f"error: kind={exc.kind}{loc} message={exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:  # reported as the base class reports
        print(f"error: kind={KoopeqError.kind} message={exc}", file=sys.stderr)
        return KoopeqError.exit_code


if __name__ == "__main__":
    sys.exit(main())
