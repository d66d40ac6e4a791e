"""Span tracing for the traced run, from the benchmark's side of the program.

`Tracer.install` replaces the public functions of each koopeq module by
wrappers that record a span (name, start, end, parent) in memory, and restores
them on `uninstall`. A function is wrapped under every module attribute that
holds it, because callers such as `compare.sweep` (which calls `iterate` and
`dmd`) and `cli.main` (which calls `serialize.write_json`) look the name up
themselves. Steps are wrapped where `corpus.make_algorithm` hands out a map,
and `Oracle.apply` and `Dictionary.lift` on their classes, so maps must be
built while the tracer is installed. Self times are derived after each traced
pass, when the spans are folded into per-name totals and cleared.
"""
from __future__ import annotations

import dataclasses
import os
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

from koopeq import cli, compare, corpus, oracles, serialize, spectral, trajectory

SAMPLE_SPANS = 2000  # raw spans kept for the trace file


def _count_lift(c, args, kwargs, result):
    c["spectral.lift.columns"] += np.shape(result)[-1]


def _count_principal(c, args, kwargs, result):
    c["spectral.principal.eigs_in"] += np.asarray(getattr(args[0], "eigenvalues", args[0])).size
    c["spectral.principal.eigs_kept"] += np.asarray(result).size


def _count_sweep(c, args, kwargs, result):
    c["compare.sweep.cells"] += result.distances.size


def _count_ingest(c, args, kwargs, result):
    c["serialize.ingest.rows"] += len(result)


def _count_write(c, args, kwargs, result):
    c["serialize.write.bytes"] += os.path.getsize(args[0])


def _count_read(c, args, kwargs, result):
    c["serialize.read.bytes"] += os.path.getsize(args[0])


# (owner, attribute, span name, counter)
FUNCTIONS = [
    (trajectory, "iterate", "trajectory.iterate", None),
    (trajectory, "snapshots", "trajectory.snapshots", None),
    (trajectory, "multi_snapshots", "trajectory.snapshots", None),
    (oracles.Oracle, "apply", "oracles.apply", None),
    (spectral.Dictionary, "lift", "spectral.lift", _count_lift),
    (spectral, "dmd", "spectral.decompose", None),
    (spectral, "edmd", "spectral.decompose", None),
    (spectral, "principal_eigenvalues", "spectral.principal", _count_principal),
    (compare, "classify", "compare.classify", None),
    (compare, "wasserstein_distance", "compare.assignment", None),
    (compare, "optimal_matching", "compare.assignment", None),
    (compare, "sweep", "compare.sweep", _count_sweep),
    (serialize, "ingest_external_trajectory", "serialize.ingest", _count_ingest),
    (serialize, "spectrum_to_dict", "serialize.write", None),
    (serialize, "comparison_to_dict", "serialize.write", None),
    (serialize, "write_json", "serialize.write", _count_write),
    (serialize, "read_json", "serialize.read", _count_read),
    (serialize, "spectrum_from_dict", "serialize.read", None),
    (cli, "main", "cli.main", None),
]
STEP = "corpus.step"

# layer of each span name, for the self-time shares in the trace file
LAYERS = {"trajectory.iterate": "trajectory", "trajectory.snapshots": "trajectory",
          STEP: "corpus", "oracles.apply": "oracles", "spectral.lift": "spectral",
          "spectral.decompose": "spectral", "spectral.principal": "spectral",
          "compare.classify": "compare", "compare.assignment": "compare",
          "compare.sweep": "compare", "serialize.ingest": "serialize",
          "serialize.write": "serialize", "serialize.read": "serialize",
          "cli.main": "cli"}


def _holders(fn):
    """Every (koopeq module, attribute) pair that holds fn."""
    mods = [m for name, m in sys.modules.items()
            if m is not None and (name == "koopeq" or name.startswith("koopeq."))]
    return [(m, attr) for m in mods for attr, v in vars(m).items() if v is fn]


class Tracer:
    def __init__(self):
        self.names = sorted(set(LAYERS))
        self.ids = {n: i for i, n in enumerate(self.names)}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.counts = defaultdict(float)
        self.calls = np.zeros(len(self.names))
        self.self_s = np.zeros(len(self.names))
        self.total_s = np.zeros(len(self.names))
        self.steps_in_iterate = 0
        self.sample = []
        self._saved = []

    def wrap(self, name: str, fn, counter=None):
        nid = self.ids[name]
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self.stack
        counts = self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for owner, attr, name, counter in FUNCTIONS:
            fn = vars(owner)[attr]
            wrapped = self.wrap(name, fn, counter)
            holders = [(owner, attr)] if isinstance(owner, type) else _holders(fn)
            for holder, hattr in holders:
                self._saved.append((holder, hattr, fn))
                setattr(holder, hattr, wrapped)
        make = corpus.make_algorithm
        wrap = self.wrap

        def make_algorithm(*args, **kwargs):
            imap = make(*args, **kwargs)
            return dataclasses.replace(imap, step=wrap(STEP, imap.step))

        for holder, hattr in _holders(make):
            self._saved.append((holder, hattr, make))
            setattr(holder, hattr, make_algorithm)

    def uninstall(self) -> None:
        for holder, attr, fn in reversed(self._saved):
            setattr(holder, attr, fn)
        self._saved.clear()

    def fold(self) -> None:
        """Derive self times from the recorded spans, add them to the per-name
        totals, and clear the spans."""
        n = len(self.span_start)
        if n == 0:
            return
        if not self.sample:  # parent indices stay valid within the first batch
            self.sample = [(self.names[self.span_name[i]], self.span_start[i],
                            self.span_end[i], self.span_parent[i])
                           for i in range(min(n, SAMPLE_SPANS))]
        names = np.array(self.span_name, dtype=np.int64)
        parents = np.array(self.span_parent, dtype=np.int64)
        dur = np.array(self.span_end) - np.array(self.span_start)
        nested = parents >= 0
        child = np.bincount(parents[nested], weights=dur[nested], minlength=n)
        own = dur - child
        size = len(self.names)
        self.calls += np.bincount(names, minlength=size)
        self.self_s += np.bincount(names, weights=own, minlength=size)
        self.total_s += np.bincount(names, weights=dur, minlength=size)
        step = names == self.ids[STEP]
        in_iterate = step & nested
        in_iterate[in_iterate] = names[parents[in_iterate]] == self.ids["trajectory.iterate"]
        self.steps_in_iterate += int(in_iterate.sum())
        for buf in (self.span_name, self.span_parent, self.span_start, self.span_end):
            del buf[:]

    def stat(self, name: str, what: str) -> float:
        return float(getattr(self, what)[self.ids[name]])

    def metrics(self, rounds: int) -> dict:
        """Per-layer metrics: counts and seconds per round, microseconds per
        call or step."""
        s = self.stat
        per = 1.0 / rounds
        iterate_calls = s("trajectory.iterate", "calls")
        steps = self.steps_in_iterate

        def us(total, count):
            return 1e6 * total / count if count else 0.0

        c = self.counts
        values = {
            "trajectory.iterate.calls": (iterate_calls * per, "count"),
            "trajectory.iterate.steps": (steps * per, "count"),
            "trajectory.iterate.self_us_per_step": (
                us(s("trajectory.iterate", "self_s"), steps), "us"),
            "trajectory.snapshots.s": (s("trajectory.snapshots", "self_s") * per, "s"),
            "corpus.step.calls": (s(STEP, "calls") * per, "count"),
            "corpus.step.us_per_call": (us(s(STEP, "self_s"), s(STEP, "calls")), "us"),
            "oracles.apply.calls": (s("oracles.apply", "calls") * per, "count"),
            "oracles.apply.us_per_call": (
                us(s("oracles.apply", "self_s"), s("oracles.apply", "calls")), "us"),
            "spectral.lift.columns": (c["spectral.lift.columns"] * per, "count"),
            "spectral.lift.s": (s("spectral.lift", "self_s") * per, "s"),
            "spectral.decompose.calls": (s("spectral.decompose", "calls") * per, "count"),
            "spectral.decompose.s": (s("spectral.decompose", "self_s") * per, "s"),
            "spectral.principal.calls": (s("spectral.principal", "calls") * per, "count"),
            "spectral.principal.eigs_in": (c["spectral.principal.eigs_in"] * per, "count"),
            "spectral.principal.eigs_kept": (c["spectral.principal.eigs_kept"] * per, "count"),
            "spectral.principal.s": (s("spectral.principal", "self_s") * per, "s"),
            "compare.classify.calls": (s("compare.classify", "calls") * per, "count"),
            "compare.classify.self_s": (s("compare.classify", "self_s") * per, "s"),
            "compare.assignment.calls": (s("compare.assignment", "calls") * per, "count"),
            "compare.sweep.cells": (c["compare.sweep.cells"] * per, "count"),
            "compare.sweep.self_s": (s("compare.sweep", "self_s") * per, "s"),
            "serialize.ingest.rows": (c["serialize.ingest.rows"] * per, "count"),
            "serialize.ingest.s": (s("serialize.ingest", "self_s") * per, "s"),
            "serialize.write.bytes": (c["serialize.write.bytes"] * per, "bytes"),
            "serialize.write.s": (s("serialize.write", "self_s") * per, "s"),
            "serialize.read.bytes": (c["serialize.read.bytes"] * per, "bytes"),
            "serialize.read.s": (s("serialize.read", "self_s") * per, "s"),
            "cli.main.self_s": (s("cli.main", "self_s") * per, "s"),
        }
        return {k: {"value": float(v), "unit": u} for k, (v, u) in values.items()}

    def shares(self, traced_piece_s: float) -> dict:
        """Each layer's share of the traced pieces' time, by self time; the
        rest is the benchmark's own code inside the pieces and untraced
        program code called from it."""
        out = defaultdict(float)
        for name in self.names:
            out[LAYERS[name]] += self.stat(name, "self_s") / traced_piece_s
        out["unattributed"] = 1.0 - sum(out.values())
        out["iterate_with_steps_and_oracle"] = self.stat("trajectory.iterate", "total_s") / traced_piece_s
        return dict(out)

    def summary(self) -> dict:
        return {name: {"calls": int(self.stat(name, "calls")),
                       "total_s": self.stat(name, "total_s"),
                       "self_s": self.stat(name, "self_s")} for name in self.names}
