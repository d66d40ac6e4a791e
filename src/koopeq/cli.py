"""Command-line entry point.

Commands: `run` (trajectory -> spectrum file), `compare` (two spectrum files
-> verdict), `sweep` (initial-condition distance grid), `reproduce` (figure
presets). Exit status encodes the verdict for scripting: 0 conjugate, 10
semi-conjugate, 20 distinct; errors use codes above 100 (101 configuration,
102 parse, 103 numeric/degenerate) with a single-line diagnostic on stderr.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import experiments, serialize
from .compare import DecompositionSettings, classify
from .corpus import AlgorithmId, make_algorithm
from .errors import (CardinalityMismatchError, ConfigurationError,
                     DegenerateDataError, InsufficientDataError,
                     InvalidInputError, InvalidObservableError, KoopeqError,
                     NumericFailureError, ParseError, UnsupportedPairError)
from .oracles import Oracle, OracleKind
from .spectral import Dictionary, RankPolicy, principal_eigenvalues
from .trajectory import Centering, RunConfig, iterate

EXIT_CONJUGATE = 0
EXIT_SEMI = 10
EXIT_DISTINCT = 20
EXIT_CONFIG = 101
EXIT_PARSE = 102
EXIT_NUMERIC = 103

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


def _build_parser():
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
    run.add_argument("--gamma", type=float, default=1.0, help="proximal step (default 1)")
    run.add_argument("--matrix-dim", type=int, default=2,
                     help="side length for the log-det oracle (default 2)")
    run.add_argument("--x0", type=str, help="initial state, comma separated")
    run.add_argument("--traj", type=str, help="external trajectory CSV instead of an algorithm")
    run.add_argument("--method", choices=["dmd", "edmd"], default="dmd")
    run.add_argument("--dict", dest="dictionary", choices=["identity", "monomials", "log"],
                     default="monomials", help="edmd dictionary (default monomials)")
    run.add_argument("--degree", type=int, default=5, help="monomial total degree (default 5)")
    run.add_argument("--max-iters", type=int, default=200)
    run.add_argument("--eps", type=float, default=1e-12)
    run.add_argument("--cap", type=float, default=1e8, help="overflow cap (default 1e8)")
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
    rep.add_argument("figure", choices=list(experiments.PRESET_NAMES) + ["all"])
    rep.add_argument("--outdir", type=str, default=None)
    rep.add_argument("--resolution", type=int, default=None,
                     help="override the sweep grid resolution (fig2)")
    rep.add_argument("--config", type=str, default=None)
    subparsers["reproduce"] = rep
    return parser, subparsers


def _apply_config(parser, subparsers, argv, args):
    """Strictly merge a JSON config file: its keys mirror the flag names of
    the chosen command; unknown keys are rejected; explicit flags win."""
    if not getattr(args, "config", None):
        return args
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ParseError("config file must hold a JSON object")
    allowed = {k for k in vars(args) if k not in ("command", "config")}
    unknown = set(cfg) - allowed
    if unknown:
        raise ConfigurationError(f"unknown config fields: {sorted(unknown)}")
    subparsers[args.command].set_defaults(**cfg)
    return parser.parse_args(argv)


def _make_oracles(args):
    if args.oracle is None:
        raise ConfigurationError("--oracle is required when --algo is given")
    kind = _ORACLES[args.oracle]
    dim = args.matrix_dim if kind is OracleKind.PROX_NEGLOGDET else 1
    oracle_f = Oracle(kind, gamma=args.gamma, domain_dim=dim)
    oracle_g = None
    if args.algo in (6, 7):
        if args.oracle_g is None:
            raise ConfigurationError("algorithms 6 and 7 need --oracle-g")
        gkind = _ORACLES[args.oracle_g]
        gdim = args.matrix_dim if gkind is OracleKind.PROX_NEGLOGDET else oracle_f.state_dim
        oracle_g = Oracle(gkind, gamma=args.gamma, domain_dim=gdim)
    return oracle_f, oracle_g


def _centering_of(args):
    return {"auto": None, "none": Centering.NONE,
            "fixed-point": Centering.FIXED_POINT}[args.centering]


def cmd_run(args) -> int:
    if (args.traj is None) == (args.algo is None):
        raise ConfigurationError("give exactly one of --algo or --traj")
    if args.traj is not None:
        traj = serialize.ingest_external_trajectory(args.traj, eps=args.eps)
    else:
        oracle_f, oracle_g = _make_oracles(args)
        imap = make_algorithm(AlgorithmId(args.algo), oracle_f, oracle_g)
        if args.x0 is None:
            raise ConfigurationError("--x0 is required when --algo is given")
        cfg = RunConfig(max_iters=args.max_iters, eps=args.eps, overflow_cap=args.cap)
        traj = iterate(imap, _parse_x0(args.x0), cfg)
    dct = None
    if args.method == "edmd":
        if args.dictionary == "identity":
            dct = Dictionary.identity(traj.dim)
        elif args.dictionary == "monomials":
            dct = Dictionary.monomials(traj.dim, args.degree)
        else:
            if traj.dim != 1:
                raise ConfigurationError("the log dictionary is scalar only")
            dct = Dictionary.custom(1, [("log", lambda s: float(np.log(s[0])))])
    settings = DecompositionSettings(method=args.method, dictionary=dct,
                                     rank_policy=RankPolicy(rank=args.rank,
                                                            rel_tol=args.svd_tol),
                                     centering=_centering_of(args), discard=args.discard)
    spec = settings.spectrum(traj)
    principal = principal_eigenvalues(spec)
    out = Path(args.out) if args.out else Path(_default_outdir()) / "spectrum.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    serialize.write_json(out, serialize.spectrum_to_dict(spec, principal))
    pretty = ", ".join(f"{z.real:.12g}{z.imag:+.12g}j" for z in principal)
    print(f"principal eigenvalues: [{pretty}]")
    print(f"spectrum written to {out}")
    return 0


_VERDICT_EXIT = {"conjugate": EXIT_CONJUGATE,
                 "semi_conjugate_a_into_b": EXIT_SEMI,
                 "semi_conjugate_b_into_a": EXIT_SEMI,
                 "distinct": EXIT_DISTINCT}


def cmd_compare(args) -> int:
    spec_a = serialize.spectrum_from_dict(serialize.read_json(args.path_a))
    spec_b = serialize.spectrum_from_dict(serialize.read_json(args.path_b))
    cmp = classify(spec_a, spec_b, eps_conj=args.eps_conj, eps_semi=args.eps_semi,
                   ignore_unit_constant=not args.keep_unit,
                   lattice_tol=args.lattice_tol, max_power=args.max_power)
    out = Path(args.out) if args.out else Path(_default_outdir()) / "comparison.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    serialize.write_json(out, serialize.comparison_to_dict(cmp))
    print(f"verdict: {cmp.verdict.value}")
    print(f"comparison written to {out}")
    return _VERDICT_EXIT[cmp.verdict.value]


def cmd_sweep(args) -> int:
    outdir = args.outdir or _default_outdir()
    part = experiments.run_sweep_preset(args.resolution, args.oracle, outdir)
    s = part["summary"]
    print(f"sweep {args.oracle}: {s['cells']} cells, min={s['min']:.3e} "
          f"median={s['median']:.3e} max={s['max']:.3e}")
    return 0


def cmd_reproduce(args) -> int:
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
        return handler(args)
    except (CliUsageError, ConfigurationError, UnsupportedPairError,
            InvalidInputError, OSError) as exc:
        print(f"error: kind=configuration message={exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ParseError as exc:
        loc = f" line={exc.line}" if exc.line is not None else ""
        print(f"error: kind=parse{loc} message={exc}", file=sys.stderr)
        return EXIT_PARSE
    except (NumericFailureError, DegenerateDataError, InsufficientDataError,
            InvalidObservableError, CardinalityMismatchError) as exc:
        print(f"error: kind=numeric message={exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
