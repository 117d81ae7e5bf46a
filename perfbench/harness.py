"""Set-up, rounds, checks and the metrics one run reports."""

from __future__ import annotations

import bisect
import contextlib
import dataclasses
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict

import numpy as np
from scipy import special

import workloads as wl
from spans import LAYERS, Tracer, layer_metrics

WORK_DIR = ".perfbench_work"   # scratch files of the command-line steps

# The shared host's speed swings by up to 1.9x over 5-30 s, in every kind
# of code alike, so raw seconds of runs a minute apart differ by far more
# than any change to seqtest.  Every round therefore also times a fixed
# calibration kernel, spread evenly through the round, and each timed
# sample is scaled by the kernel's time around it: end-to-end times are
# *reference seconds*, the time the operation takes when the kernel takes
# CALIBRATION_REF_S.  The kernel shares no code with seqtest, so a change
# to seqtest moves the scaled figures exactly as it moves the raw ones.
CALIBRATION = "calibration"
CALIBRATION_REF_S = 0.01       # the kernel on a quiet 2-vCPU reference machine
CALIBRATION_NEAR = 4           # kernel samples around each timed sample
_CAL_RNG = np.random.default_rng(12345)
_CAL_ARRAYS = [_CAL_RNG.random(n) for n in (50, 200, 800)]


def calibration_kernel() -> float:
    """About 10 ms of the work seqtest's loops are made of, without seqtest:
    small numpy convolutions and reductions, scipy special functions and
    interpreted dict arithmetic."""
    total = 0.0
    for _ in range(120):
        for x in _CAL_ARRAYS:
            total += float(np.convolve(x, x[:40]).sum())
            total += float(special.gammaln(x * 50.0 + 1.0).sum())
        counts = {}
        for i in range(300):
            counts[i % 17] = counts.get(i % 17, 0.0) + i * 0.5
        total += sum(counts.values())
    return total


def canonical(obj):
    """A comparable form of an output, for the round-to-round identity check."""
    if isinstance(obj, np.ndarray):
        return ("array", obj.dtype.str, obj.shape, obj.tobytes())
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return (type(obj).__name__,
                tuple(canonical(getattr(obj, f.name)) for f in dataclasses.fields(obj)))
    if isinstance(obj, (list, tuple)):
        return tuple(canonical(x) for x in obj)
    if isinstance(obj, dict):
        return tuple(sorted((repr(k), canonical(v)) for k, v in obj.items()))
    if isinstance(obj, (bool, int, float, str, np.generic)) or obj is None:
        return repr(obj)
    return type(obj).__name__


def schedule(ops):
    """Every op's reps, each metric's share spread evenly over the round.

    The machine's speed drifts over seconds, so each metric's work is
    interleaved with every other's instead of run in one block; within a
    metric the ops keep their order (the command-line steps depend on it).
    """
    by_metric = defaultdict(list)
    for op in ops:
        by_metric[op.metric].append(op)
    slots = []
    for seq in by_metric.values():
        runs = [op for r in range(max(op.reps for op in seq)) for op in seq if r < op.reps]
        slots += [((j + 0.5) / len(runs), op) for j, op in enumerate(runs)]
    slots.sort(key=lambda slot: slot[0])
    return [op for _, op in slots]


class Run:
    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first: dict = {}
        self.faulty: set[str] = set()   # ops whose output shows a known fault
        # op name -> (midpoint, seconds) of every sample of the run
        self.samples = defaultdict(list)

    def round(self, ops, traced: bool):
        """Run every op ``reps`` times, spread evenly over the round.

        Returns per-metric seconds (each op's mean over its reps, summed),
        per-metric work, and each op's samples in this round; the samples
        are also kept for the whole run.
        """
        samples = defaultdict(list)
        for op in schedule(ops):
            self.attempted += 1
            self.tracer.active = traced
            span = self.tracer.span("bench", op.name)
            try:
                with span:
                    t0 = time.perf_counter()
                    result = op.fn()
                    t1 = time.perf_counter()
                    samples[op.name].append(t1 - t0)
                    self.samples[op.name].append((0.5 * (t0 + t1), t1 - t0))
            except Exception as exc:  # counted, reported, and the round goes on
                self.failed += 1
                print(f"perfbench: {op.name} failed: {exc!r}", file=sys.stderr)
                continue
            finally:
                self.tracer.active = False
            self._check(op, result)
            if op.name in self.faulty:
                self.failed += 1
        seconds = defaultdict(float)
        work = defaultdict(int)
        for op in ops:
            if samples[op.name]:
                seconds[op.metric] += statistics.fmean(samples[op.name])
                work[op.metric] += op.work
        return seconds, work, samples

    def reference_seconds(self, name) -> list[float]:
        """The op's samples, each scaled to the reference speed by the
        median of the CALIBRATION_NEAR kernel samples nearest it in time."""
        cal = sorted(self.samples[CALIBRATION])
        mids = [t for t, _ in cal]
        out = []
        for t, secs in self.samples[name]:
            i = bisect.bisect_left(mids, t)
            window = cal[max(0, i - CALIBRATION_NEAR):i + CALIBRATION_NEAR]
            near = sorted(window, key=lambda c: abs(c[0] - t))[:CALIBRATION_NEAR]
            out.append(secs * CALIBRATION_REF_S / statistics.median(d for _, d in near))
        return out

    def medians(self, ops):
        """Per-metric reference seconds and work over the whole run.

        A metric's seconds are the sum, over its ops, of each op's median
        over every sample of the run, in reference seconds.  A median over
        samples spread through the run passes over what scaling leaves of
        the machine's swings, where a mean or a sum would not.
        """
        seconds = defaultdict(float)
        work = defaultdict(int)
        for op in ops:
            if op.metric != CALIBRATION and self.samples[op.name]:
                seconds[op.metric] += statistics.median(self.reference_seconds(op.name))
                work[op.metric] += op.work
        return seconds, work

    def _check(self, op, result):
        form = canonical(result)
        if op.name not in self.first:
            self.first[op.name] = form
            if op.check is not None:
                for problem in op.check(result):
                    if op.fault and op.fault in problem:
                        self.faulty.add(op.name)
                    else:
                        self.problems.append(problem)
            if op.name in self.faulty:
                print(f"perfbench: {op.name} fails on a known fault: {op.fault}",
                      file=sys.stderr)
        elif form != self.first[op.name]:
            self.problems.append(f"{op.name}: output differs from the first round")


def _e2e(seconds, work):
    """End-to-end figures from per-metric seconds and work."""
    out = {m: seconds[m] for m in wl.E2E_TIMES}
    for m in wl.E2E_RATES:
        out[m] = work[m] / seconds[m] if seconds[m] > 0 else 0.0
    return out


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def _child_seconds(root, code, reps=3) -> float:
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def rounds(seconds: float):
    """Yield until ``seconds`` have passed, at least once.

    A round is begun only if, at the pace of the last one, it ends less
    than half a round past the deadline, so a run lasts ``seconds`` give
    or take half a round.
    """
    start = time.perf_counter()
    last = 0.0
    done = 0
    while done == 0 or time.perf_counter() - start + last / 2 < seconds:
        began = time.perf_counter()
        yield done
        last = time.perf_counter() - began
        done += 1


def _medians(rows: list[dict]) -> dict:
    out = {}
    for key in rows[0]:
        values = [r[key] for r in rows]
        med = statistics.median(values)
        # Work counts repeat exactly from round to round; keep them integers.
        out[key] = int(med) if all(isinstance(v, int) for v in values) and \
            med == int(med) else med
    return out


def run(root: str, workload: str, seed: int, seconds: float, traced: bool) -> dict:
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if traced else spec["end_to_end"]
    base = os.path.join(root, WORK_DIR)
    os.makedirs(base, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=base)
    tracer = Tracer()
    try:
        ctx = wl.setup(workload, seed, wl.Cli(root, workdir, tracer))
        ops = wl.round_ops(workload, ctx, inprocess=traced)
        ops.append(wl.Op(CALIBRATION, CALIBRATION, calibration_kernel,
                         reps=wl.CALIBRATION_REPS[workload]))
        state = Run(tracer)
        if traced:
            metrics = _traced(root, state, ops, seconds)
        else:
            for _ in rounds(seconds):
                state.round(ops, traced=False)
            metrics = _e2e(*state.medians(ops))
            metrics["setup_s"] = statistics.median(state.reference_seconds("setup"))
            metrics["peak_rss_mb"] = _peak_rss_mb()
        state.problems += wl.crn_check(ctx)
    finally:
        tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(base)
    for problem in state.problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise RuntimeError(f"metrics not produced: {missing}")
    return {
        "correct": not state.problems,
        "attempted": state.attempted,
        "failed": state.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }


def _traced(root, state: Run, ops, seconds) -> dict:
    """One untraced reference round, then traced rounds; per-layer medians."""
    tracer = state.tracer
    _, _, samples = state.round(ops, traced=False)
    wall_ref = sum(sum(v) for v in samples.values())
    tracer.install()
    rows = []
    for _ in rounds(seconds):
        first = len(tracer.spans)
        state.round(ops, traced=True)
        spans = list(enumerate(tracer.spans))[first:]
        row = layer_metrics(spans, tracer.spans)
        row["trace.overhead_s"] = row["trace.wall_s"] - wall_ref
        accounted = sum(row[f"{layer}.self_s"] for layer in LAYERS + ("bench",))
        if abs(accounted - row["trace.wall_s"]) > 1e-6 * max(1.0, row["trace.wall_s"]):
            state.problems.append("trace: layer self times do not add up to the wall time")
        rows.append(row)
    tracer.uninstall()
    metrics = _medians(rows)
    metrics["bench.calibration_s"] = statistics.median(
        d for _, d in state.samples[CALIBRATION])
    metrics["cli.interpreter_s"] = _child_seconds(root, "pass")
    metrics["cli.import_s"] = _child_seconds(root, "import seqtest")
    return metrics
