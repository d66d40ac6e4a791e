"""Preset pipelines that reproduce the five benchmark experiments end to end
and emit their data files, plots, and a manifest with content digests.

Every preset is self-contained and deterministic: re-running one produces
byte-identical files. Parameter choices that the underlying experiments leave
open (initial conditions, budgets, transient discards) are recorded in the
manifest.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import serialize, svgplot
from .compare import DecompositionSettings, classify, sweep
from .corpus import AlgorithmId, ConjugacyKind, conjugacy_map, make_algorithm
from .errors import ConfigurationError, NumericFailureError, count
from .oracles import Oracle, OracleKind, sym_flatten
from .spectral import Dictionary, RankPolicy
from .trajectory import Centering, RunConfig, iterate

PRESET_NAMES = ("fig1", "fig2", "fig3", "fig4", "fig5")


@dataclass(frozen=True)
class VariantConfig:
    """One oracle variant of a preset: who runs, from where, and how the
    trajectories are decomposed and compared."""

    label: str
    oracle_f: Oracle
    oracle_g: Optional[Oracle]
    x0_a: tuple
    run_cfg: RunConfig
    settings_a: DecompositionSettings
    settings_b: DecompositionSettings
    compare_swapped: bool = False  # classify(spec_b, spec_a) instead


@dataclass(frozen=True)
class ExperimentPreset:
    name: str
    algo_a: AlgorithmId
    algo_b: AlgorithmId
    variants: tuple


def _quad():
    return Oracle(OracleKind.GRAD_QUADRATIC)


def _negcos():
    return Oracle(OracleKind.GRAD_NEGCOS)


_DMD_PLAIN = DecompositionSettings(method="dmd", centering=Centering.NONE)
_FIG5_SETTINGS_A = DecompositionSettings(method="dmd", rank_policy=RankPolicy.fixed(2),
                                         centering=Centering.FIXED_POINT, discard=1)
_FIG5_SETTINGS_B = DecompositionSettings(method="dmd", rank_policy=RankPolicy.fixed(2),
                                         centering=Centering.FIXED_POINT, discard=0)
_FIG5_SETTINGS_LOGDET = DecompositionSettings(method="dmd", rank_policy=RankPolicy.fixed(2),
                                              centering=Centering.FIXED_POINT, discard=20)


def _presets() -> dict:
    fig1 = ExperimentPreset(
        "fig1", AlgorithmId.ALGO1, AlgorithmId.ALGO2,
        variants=tuple(
            VariantConfig(label, oracle, None, (0.1, 0.1),
                          RunConfig(max_iters=60), _DMD_PLAIN, _DMD_PLAIN)
            for label, oracle in (("quad", _quad()), ("negcos", _negcos()))))
    fig3 = ExperimentPreset(
        "fig3", AlgorithmId.ALGO3, AlgorithmId.ALGO4,
        variants=tuple(
            VariantConfig(label, oracle, None, (1.0, 1.0),
                          RunConfig(max_iters=25), _DMD_PLAIN, _DMD_PLAIN,
                          compare_swapped=True)
            for label, oracle in (("quad", _quad()), ("negcos", _negcos()))))
    fig4 = ExperimentPreset(
        "fig4", AlgorithmId.ALGO4, AlgorithmId.ALGO5,
        variants=(VariantConfig(
            "quad", _quad(), None, (1.0,), RunConfig(max_iters=60),
            _DMD_PLAIN,
            DecompositionSettings(method="edmd",
                                  dictionary=Dictionary.monomials(1, 5),
                                  centering=Centering.NONE)),))
    l2 = Oracle(OracleKind.PROX_L2, gamma=1.0, domain_dim=1)
    logdet = Oracle(OracleKind.PROX_NEGLOGDET, gamma=1.0, domain_dim=2)
    l2_mat = Oracle(OracleKind.PROX_L2, gamma=1.0, domain_dim=3)
    x0_logdet = tuple(np.concatenate([np.zeros(6), sym_flatten(np.diag([2.0, 3.0]))]))
    fig5 = ExperimentPreset(
        "fig5", AlgorithmId.ALGO6, AlgorithmId.ALGO7,
        variants=(
            VariantConfig("l2", l2, l2, (0.0, 0.0, 2.0), RunConfig(max_iters=60),
                          _FIG5_SETTINGS_A, _FIG5_SETTINGS_B),
            VariantConfig("logdet", logdet, l2_mat, x0_logdet, RunConfig(max_iters=60),
                          _FIG5_SETTINGS_LOGDET, _FIG5_SETTINGS_LOGDET),
        ))
    return {"fig1": fig1, "fig3": fig3, "fig4": fig4, "fig5": fig5}


PRESETS = _presets()

# fig2 sweep: the quadratic oracle is globally conjugate, so a coarse short
# run suffices; the -cos oracle needs the transient discarded and the data
# centered so basin cells read near zero against the escaping region
FIG2_DEFAULTS = {
    "quad": dict(resolution=21, cfg=RunConfig(max_iters=40),
                 settings=DecompositionSettings(method="dmd", centering=Centering.NONE)),
    "negcos": dict(resolution=41, cfg=RunConfig(max_iters=200),
                   settings=DecompositionSettings(method="dmd",
                                                  centering=Centering.FIXED_POINT,
                                                  discard=150)),
}
FIG2_X0_A = (0.1, 0.1)
FIG2_RANGE = (-2.0, 2.0)


def _written(outdir, name: str, kind: str, write, content) -> dict:
    """Write `outdir/name` by `write(path, content)`; its manifest record."""
    data = write(Path(outdir) / name, content)
    return {"path": name, "kind": kind, "sha256": hashlib.sha256(data).hexdigest()}


def _run_record(cfg: RunConfig) -> dict:
    return {"max_iters": cfg.max_iters, "eps": cfg.eps, "overflow_cap": cfg.overflow_cap}


def _settings_record(s: DecompositionSettings) -> dict:
    return {
        "method": s.method,
        "dictionary": s.dictionary.tag if s.dictionary is not None else None,
        "rank": s.rank_policy.rank,
        "svd_rel_tol": s.rank_policy.rel_tol,
        "centering": s.centering.value if s.centering is not None else "auto",
        "discard": s.discard,
    }


def _derive_x0_b(preset: ExperimentPreset, variant: VariantConfig, map_a):
    """Initial condition for algorithm B through the exact coordinate change."""
    cmap = conjugacy_map(preset.algo_a, preset.algo_b)
    x0 = np.asarray(variant.x0_a, dtype=float)
    if cmap.kind is ConjugacyKind.SHIFT:
        return cmap.h(x0, map_a.step(x0))
    return np.atleast_1d(cmap.h(x0))


def run_preset(name: str, outdir, resolution: Optional[int] = None) -> dict:
    """Run one preset, write its files under outdir, return the manifest."""
    if name == "fig2":
        return _run_fig2(outdir, resolution)
    if name not in PRESETS:
        raise ConfigurationError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    preset = PRESETS[name]
    files = []
    verdicts = {}
    parameters = {}

    a_tag = preset.algo_a.name.lower()
    b_tag = preset.algo_b.name.lower()
    for variant in preset.variants:
        map_a = make_algorithm(preset.algo_a, variant.oracle_f, variant.oracle_g)
        map_b = make_algorithm(preset.algo_b, variant.oracle_f, variant.oracle_g)
        x0_b = _derive_x0_b(preset, variant, map_a)
        traj_a = iterate(map_a, variant.x0_a, variant.run_cfg)
        traj_b = iterate(map_b, x0_b, variant.run_cfg)
        spec_a = variant.settings_a.spectrum(traj_a)
        spec_b = variant.settings_b.spectrum(traj_b)
        if variant.compare_swapped:
            cmp = classify(spec_b, spec_a)
        else:
            cmp = classify(spec_a, spec_b)
        verdicts[variant.label] = cmp.verdict.value
        if preset.algo_a is AlgorithmId.ALGO6 and variant.settings_a.discard >= 1:
            cmp.notes.append("raw first iterate of algorithm 6 excluded from "
                             "spectral data (arbitrary pre-shift components)")

        stem = f"{name}_{variant.label}"
        files += [
            _written(outdir, f"{stem}_trajectories.csv", "trajectory",
                     serialize.write_trajectory_csv, [(a_tag, traj_a), (b_tag, traj_b)]),
            _written(outdir, f"{stem}_spectrum_{a_tag}.json", "spectrum",
                     serialize.write_json, serialize.spectrum_to_dict(spec_a)),
            _written(outdir, f"{stem}_spectrum_{b_tag}.json", "spectrum",
                     serialize.write_json, serialize.spectrum_to_dict(spec_b)),
            _written(outdir, f"{stem}_comparison.json", "comparison",
                     serialize.write_json, serialize.comparison_to_dict(cmp)),
            _written(outdir, f"{stem}_spectra.svg", "plot", serialize.write_text,
                     svgplot.spectra_scatter_svg(
                         [(f"algorithm {preset.algo_a.value}", spec_a.eigenvalues),
                          (f"algorithm {preset.algo_b.value}", spec_b.eigenvalues)],
                         title=f"{name} / {variant.label}: Koopman spectra")),
        ]
        parameters[variant.label] = {
            "oracle_f": variant.oracle_f.tag,
            "oracle_g": variant.oracle_g.tag if variant.oracle_g else None,
            "x0_a": list(map(float, variant.x0_a)),
            "x0_b": [float(v) for v in x0_b],
            **_run_record(variant.run_cfg),
            "decomposition_a": _settings_record(variant.settings_a),
            "decomposition_b": _settings_record(variant.settings_b),
            "comparison_tolerances": {"eps_conj": cmp.tolerances_used.eps_conj,
                                      "eps_semi": cmp.tolerances_used.eps_semi},
        }
    manifest = {"preset": name,
                "algorithms": [preset.algo_a.value, preset.algo_b.value],
                "parameters": parameters, "verdicts": verdicts,
                "files": files, "notes": []}
    serialize.write_json(Path(outdir) / f"{name}_manifest.json", manifest)
    return manifest


def largest_component(mask: np.ndarray) -> int:
    """Cell count of the largest 4-connected component of a 2-D boolean
    grid's True cells; 0 when there are none."""
    todo = set(zip(*(axis.tolist() for axis in np.nonzero(mask))))
    biggest = 0
    while todo:
        stack, size = [todo.pop()], 0
        while stack:
            i, j = stack.pop()
            size += 1
            for cell in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)):
                if cell in todo:
                    todo.remove(cell)
                    stack.append(cell)
        biggest = max(biggest, size)
    return biggest


def run_sweep_preset(resolution: Optional[int], oracle: str, outdir) -> dict:
    """One oracle variant of the initial-condition sweep: algorithm 1 fixed at
    (0.1, 0.1), algorithm 2 started from every node of a square grid on
    [-2, 2]^2. Emits the distance grid, summary statistics, a heatmap, and the
    reference spectrum; returns the manifest fragment."""
    if oracle not in FIG2_DEFAULTS:
        raise ConfigurationError(f"unknown sweep oracle {oracle!r}; use quad or negcos")
    defaults = FIG2_DEFAULTS[oracle]
    if resolution is None:
        resolution = defaults["resolution"]
    resolution = count("resolution", resolution, 2, ConfigurationError)  # written to JSON

    kind = OracleKind.GRAD_QUADRATIC if oracle == "quad" else OracleKind.GRAD_NEGCOS
    map_a = make_algorithm(AlgorithmId.ALGO1, Oracle(kind))
    map_b = make_algorithm(AlgorithmId.ALGO2, Oracle(kind))
    axis = np.linspace(FIG2_RANGE[0], FIG2_RANGE[1], resolution)
    result = sweep(map_a, FIG2_X0_A, map_b, (axis, axis),
                   cfg=defaults["cfg"], settings=defaults["settings"])

    F = result.distances
    finite = F[np.isfinite(F)]
    if finite.size == 0:  # every statistic below would be NaN or raise
        raise NumericFailureError(f"every cell of the {oracle} sweep failed")
    med = float(np.median(finite))
    high = np.isfinite(F) & (F > 10 * med) if med > 0 else np.zeros_like(F, bool)
    biggest = largest_component(high)
    fmin, fmax = float(finite.min()), float(finite.max())
    positive = finite[finite > 0]
    summary = {
        "oracle": oracle,
        "resolution": resolution,
        "cells": int(F.size),
        "failed_cells": int(np.sum(~np.isfinite(F))),
        "min": fmin,
        "min_positive": float(positive.min()) if positive.size else None,
        "max": fmax,
        "median": med,
        "mean": float(finite.mean()),
        "max_over_min": (fmax / fmin) if fmin > 0 else None,
        "high_cells_over_10x_median": int(high.sum()),
        "high_fraction": float(high.mean()),
        "largest_high_component_fraction": biggest / F.size,
        "parameters": {
            "x0_a": list(FIG2_X0_A),
            "range": list(FIG2_RANGE),
            **_run_record(defaults["cfg"]),
            "decomposition": _settings_record(defaults["settings"]),
        },
    }

    stem = f"fig2_{oracle}"
    files = [
        _written(outdir, f"{stem}_grid.csv", "grid", serialize.write_grid_csv, result),
        _written(outdir, f"{stem}_summary.json", "summary", serialize.write_json, summary),
        _written(outdir, f"{stem}_spectrum_algo1.json", "spectrum", serialize.write_json,
                 serialize.spectrum_to_dict(result.spectrum_a)),
        _written(outdir, f"{stem}_heatmap.svg", "plot", serialize.write_text,
                 svgplot.heatmap_svg(F, result.axis1, result.axis2,
                                     title=f"fig2 / {oracle}: spectral distance "
                                           "over initial conditions")),
    ]
    return {"oracle": oracle, "summary": summary, "files": files}


def _run_fig2(outdir, resolution: Optional[int] = None) -> dict:
    parts = [run_sweep_preset(resolution, oracle, outdir)
             for oracle in ("quad", "negcos")]
    manifest = {
        "preset": "fig2",
        "algorithms": [AlgorithmId.ALGO1.value, AlgorithmId.ALGO2.value],
        "parameters": {p["oracle"]: p["summary"]["parameters"] for p in parts},
        "summaries": {p["oracle"]: {k: v for k, v in p["summary"].items()
                                    if k != "parameters"} for p in parts},
        "verdicts": {},
        "files": [f for p in parts for f in p["files"]],
        "notes": [],
    }
    serialize.write_json(Path(outdir) / "fig2_manifest.json", manifest)
    return manifest


def run_all(outdir) -> list:
    """Run every preset; returns the five manifests."""
    return [run_preset(name, outdir) for name in PRESET_NAMES]
