"""Measurement loop, set-up probes and the result line of one benchmark run.

A run attempts whole rounds of its workload until starting another would
overrun `--seconds` (at least one round). Each timed piece is divided by the
mean of the reference kernel's times measured just before and just after it;
a pass's cost is the sum of these ratios over its items, and `item_cost` is the
median over the run's passes. The traced run times every pass twice, plain and
traced, in alternating order, and reports per-layer metrics from the traced
copies and the tracing overhead from the pairs.
"""
from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from refkernel import reference_kernel
from tracing import Tracer
from workloads import WORKLOADS, Outcome

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
OUT = HERE / "out"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 150


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, op, out) -> None:
        if isinstance(out, Exception):
            outcome = Outcome(op.items, [f"{type(out).__name__}: {out}"])
        else:
            outcome = op.check(out)
        self.attempted += op.items
        self.failed += outcome.failed
        self.problems += outcome.problems


def _call(op):
    try:
        return op.run()
    except Exception as exc:  # recorded as a failed operation and a problem
        return exc


def _time_ref(ref_times: list) -> float:
    t0 = time.perf_counter()
    reference_kernel()
    dt = time.perf_counter() - t0
    ref_times.append(dt)
    return dt


def run_pass(pieces, tally: Tally, ref_times: list, tracer=None):
    """Time one pass; return (items, cost in reference units, raw seconds)."""
    items = 0
    cost = 0.0
    raw = 0.0
    ref_before = _time_ref(ref_times)
    if tracer is not None:
        tracer.install()
    try:
        for piece in pieces:
            t0 = time.perf_counter()
            outs = [_call(op) for op in piece]
            dt = time.perf_counter() - t0
            ref_after = _time_ref(ref_times)
            cost += dt / (0.5 * (ref_before + ref_after))
            raw += dt
            ref_before = ref_after
            for op, out in zip(piece, outs):
                items += op.items
                tally.add(op, out)
    finally:
        if tracer is not None:
            tracer.uninstall()
            tracer.fold()
    return items, cost, raw


def measure(workload, first_round, seconds: float, tracer=None, probes=None) -> dict:
    """Time whole rounds until another would overrun `seconds` of measuring;
    set-up probes run between passes, outside that time."""
    tally = Tally()
    ref_times = []
    plain_cost, plain_raw, overhead = [], [], []
    traced_s = 0.0
    rounds = 0
    rnd = first_round
    active = 0.0  # seconds spent measuring, without probes
    while True:
        round_active = 0.0
        for p, pieces in enumerate(rnd.passes):
            if probes is not None:
                probes.run_due(active)
            t0 = time.perf_counter()
            if tracer is None:
                items, cost, raw = run_pass(pieces, tally, ref_times)
            else:
                order = (False, True) if p % 2 == 0 else (True, False)
                got = {}
                for traced in order:
                    got[traced] = run_pass(pieces, tally, ref_times,
                                           tracer if traced else None)
                items, cost, raw = got[False]
                overhead.append(got[True][1] / cost - 1.0)
                traced_s += got[True][2]
            plain_cost.append(cost / items)
            plain_raw.append(raw / items)
            dt = time.perf_counter() - t0
            active += dt
            round_active += dt
        tally.problems += rnd.finish()
        rounds += 1
        if active + round_active > seconds:
            break
        rnd = workload.round(rounds)
    if probes is not None:
        probes.run_due(float("inf"))
    return {"tally": tally, "rounds": rounds, "item_cost": statistics.median(plain_cost),
            "item_s": statistics.median(plain_raw), "ref_s": statistics.median(ref_times),
            "overhead": statistics.median(overhead) if overhead else None,
            "traced_s": traced_s, "passes": len(plain_cost), "measured_s": active}


def _first_op(rnd):
    return rnd.passes[0][0][0]


def probe(args, workdir: Path) -> int:
    """Set-up probe, run in a fresh interpreter: report the time from the
    interpreter's start to the end of the first item, less input generation."""
    t0 = time.perf_counter()
    workload = WORKLOADS[args.workload](args.seed, workdir)
    rnd = workload.round(0)
    inputs_s = time.perf_counter() - t0
    op = _first_op(rnd)
    out = _call(op)
    setup_s = time.monotonic() - args.probe_start - inputs_s
    tally = Tally()
    tally.add(op, out)
    print(json.dumps({"setup_s": setup_s, "problems": tally.problems}))
    return 0


# A reference set-up: a fresh interpreter that imports a fixed list of
# standard-library modules. It is the same kind of work as koopeq's import, so
# dividing each probe by the mean of two reference set-ups timed just before
# and just after it cancels the machine's speed, which moved raw set-up time by
# 60% between quiet and busy periods.
REF_SETUP_MODULES = ("asyncio", "decimal", "sqlite3", "ctypes", "xml.etree.ElementTree",
                     "email.mime.multipart", "http.client", "unittest", "tarfile",
                     "zipfile", "difflib", "xmlrpc.client", "smtplib", "imaplib",
                     "ftplib", "pydoc", "logging", "multiprocessing", "csv", "json",
                     "argparse", "statistics", "fractions")
REF_SETUP_CODE = ("import sys, time\n"
                  f"import {', '.join(REF_SETUP_MODULES)}\n"
                  "print(time.monotonic() - float(sys.argv[1]))\n")
# the reference set-up's time on this machine when it is quiet; it converts
# set-up time in reference units back to seconds
REF_SETUP_NOMINAL_S = 0.125


def _timed_child(cmd) -> str:
    """Start cmd with the monotonic clock reading appended; return the last
    line it prints."""
    start = time.monotonic()
    proc = subprocess.run(cmd + [repr(start)], cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd[1]} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return proc.stdout.strip().splitlines()[-1]


def reference_setup() -> float:
    return float(_timed_child([sys.executable, "-c", REF_SETUP_CODE]))


class SetupProbes:
    """Set-up probes spread over the measuring time, so that their median
    samples the machine's slow and fast phases alike."""

    def __init__(self, args, seconds: float):
        self.args = args
        self.due = [seconds * k / SETUP_PROBES for k in range(SETUP_PROBES)]
        self.raw_s = []
        self.ratios = []

    def run_due(self, active: float) -> None:
        while self.due and self.due[0] <= active:
            self.due.pop(0)
            before = reference_setup()
            raw = self._probe()
            after = reference_setup()
            self.raw_s.append(raw)
            self.ratios.append(raw / (0.5 * (before + after)))

    def setup_s(self) -> float:
        """Median probe time, in seconds at the quiet machine's speed."""
        return statistics.median(self.ratios) * REF_SETUP_NOMINAL_S

    def _probe(self) -> float:
        a = self.args
        result = json.loads(_timed_child(
            [sys.executable, str(HERE / "run.py"), "--workload", a.workload,
             "--seed", str(a.seed), "--probe-start"]))
        if result["problems"]:
            raise RuntimeError(f"set-up probe's first item is wrong: {result['problems'][:3]}")
        return result["setup_s"]


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def run(args, import_s: float) -> int:
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    try:
        if args.probe_start is not None:
            return probe(args, workdir)
        workload = WORKLOADS[args.workload](args.seed, workdir)
        first_round = workload.round(0)
        warm = Tally()
        op = _first_op(first_round)
        warm.add(op, _call(op))  # the first, untimed item ends set-up
        tracer = Tracer() if args.trace else None
        probes = None if tracer else SetupProbes(args, args.seconds)
        res = measure(workload, first_round, args.seconds, tracer, probes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    tally = res["tally"]
    problems = warm.problems + tally.problems
    for line in problems[:20]:
        print(f"problem: {line}", file=sys.stderr)
    if tracer is None:
        metrics = {
            "setup_s": _metric(probes.setup_s(), "s"),
            "item_cost": _metric(res["item_cost"], "ref"),
            "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        metrics = tracer.metrics(res["rounds"])
        metrics["cli.import_s"] = _metric(import_s, "s")
        metrics["wall.item_s"] = _metric(res["item_s"], "s")
        metrics["wall.ref_s"] = _metric(res["ref_s"], "s")
        metrics["trace.overhead"] = _metric(res["overhead"], "ratio")
        OUT.mkdir(exist_ok=True)
        trace = {"workload": args.workload, "seed": args.seed, "rounds": res["rounds"],
                 "passes": res["passes"], "metrics": metrics,
                 "layer_self_share": tracer.shares(res["traced_s"]),
                 "spans": tracer.summary(),
                 "sample_spans": [dict(zip(("name", "start", "end", "parent"), s))
                                  for s in tracer.sample]}
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps(trace, indent=1) + "\n", encoding="utf-8")
    print(f"{args.workload}: {res['rounds']} rounds, {res['passes']} passes, "
          f"{res['measured_s']:.2f} s measured, wall {res['item_s']:.6g} s/item, "
          f"reference {res['ref_s']:.6g} s")
    if probes is not None:
        print(f"set-up: raw median {statistics.median(probes.raw_s):.6g} s, "
              f"{statistics.median(probes.ratios):.6g} reference set-ups")
    print(json.dumps({"correct": not problems, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0
