"""The four workloads: their set-up, their timed operations and checks.

Every round walks the whole user journey once: tabulate limits, design,
tune, evaluate exactly, evaluate two-sample plans, certify, simulate,
compare and run the command line.  Each workload runs its own stage of
that journey at full size and every other stage at a small probe size,
so every end-to-end metric is measured on every workload while the
workload's own stage takes nearly all of its time.

An ``Op`` is one timed call.  Its ``check`` returns the problems found
in its output by the oracles in ``oracles.py``; it runs on the first
round, and later rounds must reproduce the first round's output exactly.
"""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

# The library is reached through its modules at call time, so that the
# spans installed in traced runs see every call the harness makes.
import seqtest as st
import seqtest.cli
from seqtest import Bernoulli, ChernoffLimits, ExactLimits, Poisson, SprtSpec

import oracles as orc

BERN, POIS = Bernoulli(), Poisson()
EXACT, CHER = ExactLimits(), ChernoffLimits()

E2E_TIMES = ("limits_s", "design_s", "tune_s", "oc_grid_s", "oc_large_s",
             "twoprop_oc_s", "certify_s", "compare_s", "cli_workflow_s")
E2E_RATES = ("plan_trials_per_s", "sprt_trials_per_s")

# The fixed ladder of 5-stage exact one-sided plans (zeta 0.5).  Their
# stage sizes, as the builder's own search finds them, are the ladder the
# design workload rebuilds each round; the evaluate workload builds the two
# large plans at these sizes directly so that its set-up stays short.
LADDER = ((0.4, 0.6), (0.45, 0.55), (0.48, 0.52), (0.49, 0.51))
LARGE_SIZES = {(0.48, 0.52): (6, 27, 120, 536, 2399),
               (0.49, 0.51): (6, 38, 240, 1518, 9603)}
ZONES3 = ([0.1, 0.55], [0.45, 0.9])
TWO_PROP_DELTA = 0.22
# The zeta ``tune_two_prop`` finds for the zone -0.2..0.2 plan with stages
# 10, 20, 40 at budgets 0.22 (tolerance 0.05).  The evaluate set-up builds
# the plan at it directly, so that set-up does not repeat a 4-second tuning
# no evaluate operation times; the document is byte-identical to the tuned
# plan's.
TUNED_TWO_PROP_ZETA = 0.34140624999999997


@dataclass
class Op:
    metric: str
    name: str
    fn: object
    check: object = None
    reps: int = 1
    work: int = 0          # trials, for the per-second metrics
    fault: str = ""        # a known program fault: problems naming it fail the op


def _jittered(rng, lo, hi, count):
    step = (hi - lo) / count
    return lo + step * (np.arange(count) + rng.uniform(0.05, 0.95))


def _one_sided(model, family, t0, t1, **kw):
    return st.build_one_sided_plan(model, family, t0, t1, 0.05, 0.05, 0.5, **kw)


def _three_hyp(**kw):
    return st.build_multihyp_plan(BERN, EXACT, *ZONES3, 0.5, [0.1, 0.1],
                                  base_betas=[0.1, 0.1], stages=3, **kw)


def _limits_op(metric, name, family, model, n, delta, ks, reps=1):
    """Lower and upper limits for the sum counts ``ks`` of n samples."""
    def run():
        return [(family.lower(model, n, k / n, delta),
                 family.upper(model, n, k / n, delta)) for k in ks]
    return Op(metric, name, run,
              lambda values: orc.check_limits(family.tag, model.name, n, delta, ks,
                                              values, name), reps)


def _plan_op(metric, name, build, reps=1):
    return Op(metric, name, build, lambda plan: orc.check_plan(plan, name), reps)


def _tune_op(metric, name, tune, deltas, reps=1):
    def check(res):
        return orc.check_plan(res.plan, name) + orc.check_budgets(res.plan, deltas, name)
    return Op(metric, name, tune, check, reps)


def _oc_op(metric, name, plan, thetas, reps=1, fault=""):
    return Op(metric, name, lambda: st.oc_curve(plan, thetas),
              lambda rep: orc.check_oc_rows(plan, rep, name), reps, fault=fault)


def _split_op(metric, name, splits, reps=1):
    """``rejection_split`` for each (plan, arguments) pair."""
    def check(values):
        return [p for (plan, args), v in zip(splits, values)
                for p in orc.check_split(plan, args, v, name)]
    return Op(metric, name,
              lambda: [st.ocexact.rejection_split(plan, *args) for plan, args in splits],
              check, reps)


def _two_prop_op(metric, name, plan, points, reps=1):
    def check(results):
        return orc.check_two_prop_rows(plan, points, results, name)
    return Op(metric, name,
              lambda: [st.twoprop.exact_oc(plan, px, py) for px, py in points],
              check, reps)


def _certify_op(metric, name, plan, hyp, delta, seed, reps=1):
    def check(cert):
        out = orc.check_certificate(plan, hyp, delta, cert,
                                    np.random.default_rng(seed), name)
        if cert.verdict != "proved":
            out.append(f"{name}: verdict {cert.verdict}, expected proved")
        return out
    return Op(metric, name, lambda: st.certify_risk(plan, hyp, delta), check, reps)


def _sim_op(metric, name, runner, theta, trials, seed, reps=1):
    if isinstance(runner, SprtSpec):
        check = lambda rep: orc.check_sim_sprt(runner, rep, name)
    else:
        check = lambda rep: orc.check_sim_plan(runner, rep, name)
    return Op(metric, name, lambda: st.simulate(runner, theta, trials, seed), check,
              reps, work=trials)


def _compare_op(metric, name, plan, spec, grid, trials, seed, reps=1):
    def check(report):
        out = []
        for (runner_name, rep) in report.rows:
            if runner_name == "plan":
                out += orc.check_sim_plan(plan, rep, name)
            else:
                out += orc.check_sim_sprt(spec, rep, name)
        return out
    return Op(metric, name,
              lambda: st.compare([plan, spec], grid, trials, seed, names=["plan", "sprt"]),
              check, reps)


# ----------------------------------------------------------------------
# the command line

def cli_steps(seed: int, theta: float, small=False) -> list[tuple[str, list[str]]]:
    """The README workflow at small sizes, as (step name, argv) pairs.

    ``small`` cuts the simulation trials fivefold, for the in-process probe.
    """
    sim_trials, compare_trials = (400, 100) if small else (2000, 500)
    return [
        ("design", ["design", "--model", "bernoulli", "--limits", "exact",
                    "--theta0", "0.4", "--theta1", "0.6", "--alpha", "0.05",
                    "--beta", "0.05", "--zeta", "0.5", "--stages", "5",
                    "--out", "plan.json"]),
        ("oc", ["oc", "--plan", "plan.json", "--grid", "0.2:0.8:0.02",
                "--out", "oc.csv"]),
        ("tune", ["tune", "--plan", "plan.json", "--deltas", "0.05,0.05",
                  "--out", "tuned.json"]),
        ("simulate", ["simulate", "--plan", "tuned.json", "--theta", repr(theta),
                      "--trials", str(sim_trials), "--seed", str(seed), "--out", "sim.csv"]),
        ("compare", ["compare", "--plan", "tuned.json", "--grid", "0.3:0.7:0.1",
                     "--trials", str(compare_trials), "--seed", str(seed), "--sprt",
                     "--out", "compare.csv"]),
        ("design_two_prop", ["design", "--kind", "two-prop", "--zones=-0.3:0.3",
                             "--zeta", "0.5", "--stage-ns", "4,8",
                             "--out", "twoprop.json"]),
        ("certify", ["certify", "--plan", "twoprop.json", "--deltas", "0.15,0.35"]),
    ]


class Cli:
    """Runs workflow steps in ``workdir`` as child processes or in-process."""

    def __init__(self, root: str, workdir: str, tracer):
        self.workdir = workdir
        self.tracer = tracer
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))

    def child(self, args):
        return subprocess.run([sys.executable, *args], cwd=self.workdir,
                              env=self.env, capture_output=True, text=True,
                              timeout=150)

    def in_process(self, name, argv):
        buf = io.StringIO()
        cwd = os.getcwd()
        os.chdir(self.workdir)
        try:
            with contextlib.redirect_stdout(buf), self.tracer.span("cli", name):
                rc = st.cli.main(argv)
        finally:
            os.chdir(cwd)
        return rc, buf.getvalue()

    def step(self, name, argv, inprocess):
        if inprocess:
            rc, out = self.in_process(name, argv)
        else:
            proc = self.child(["-m", "seqtest.cli", *argv])
            rc, out = proc.returncode, proc.stdout
        if rc != 0:
            raise RuntimeError(f"seqtest {name} exited with {rc}")
        return rc, out

    def read(self, name):
        with open(os.path.join(self.workdir, name), encoding="utf-8") as fh:
            return fh.read()


def _csv(text):
    lines = text.strip().splitlines()
    head = lines[0].split(",")
    return [dict(zip(head, line.split(","))) for line in lines[1:]]


def _sim_row(row):
    hyps = sorted(k for k in row if k.startswith("accept_h"))
    return SimpleNamespace(theta=float(row["theta"]), trials=int(row["trials"]),
                           accept_freq=tuple(float(row[k]) for k in hyps),
                           asn=float(row["asn"]), max_samples=int(row["max_samples"]))


def check_cli_outputs(cli_runner: Cli, certify_stdout: str, label: str) -> list[str]:
    """The workflow's documents and tables against the oracles."""
    out = []
    plan, _ = st.load_plan(os.path.join(cli_runner.workdir, "plan.json"))
    out += orc.check_plan(plan, f"{label} design")
    rows = _csv(cli_runner.read("oc.csv"))
    report = SimpleNamespace(
        thetas=np.array([float(r["theta"]) for r in rows]),
        accept=np.array([[float(r[f"accept_h{i}"]) for i in range(plan.m)] for r in rows]),
        asn=np.array([float(r["asn"]) for r in rows]),
        stage_stop=np.array([[float(r[f"stop_stage_{j + 1}"]) for j in range(plan.s)]
                             for r in rows]),
        truncation_bound=np.array([float(r["truncation_bound"]) for r in rows]))
    out += orc.check_oc_rows(plan, report, f"{label} oc")
    tuned, _ = st.load_plan(os.path.join(cli_runner.workdir, "tuned.json"))
    out += orc.check_plan(tuned, f"{label} tune")
    out += orc.check_budgets(tuned, (0.05, 0.05), f"{label} tune")
    for row in _csv(cli_runner.read("sim.csv")):
        out += orc.check_sim_plan(tuned, _sim_row(row), f"{label} simulate")
    spec = SprtSpec(tuned.model, tuned.theta0, tuned.theta1, tuned.alpha, tuned.beta)
    for row in _csv(cli_runner.read("compare.csv")):
        if row["runner"] == "plan":
            out += orc.check_sim_plan(tuned, _sim_row(row), f"{label} compare")
        else:
            out += orc.check_sim_sprt(spec, _sim_row(row), f"{label} compare")
    two, _ = st.load_plan(os.path.join(cli_runner.workdir, "twoprop.json"))
    out += orc.check_two_prop_plan(two, f"{label} two-prop design")
    verdicts = [line.split(":")[1].split()[0] for line in certify_stdout.splitlines()
                if line.startswith("hypothesis")]
    for hyp, (verdict, delta) in enumerate(zip(verdicts, (0.15, 0.35))):
        cert = SimpleNamespace(verdict=verdict, trace=[])
        out += orc.check_certificate(two, hyp, delta, cert, None, f"{label} certify")
    if verdicts != ["proved", "proved"]:
        out.append(f"{label} certify: verdicts {verdicts}, expected proved")
    return out


def _files(cli_runner):
    return [cli_runner.read(f) for f in ("plan.json", "oc.csv", "tuned.json",
                                         "sim.csv", "compare.csv", "twoprop.json")]


# ----------------------------------------------------------------------
# set-up and rounds

def common_setup(seed, cli_runner) -> SimpleNamespace:
    """Inputs every workload's probes use, all drawn from ``seed``."""
    rng = np.random.default_rng([seed, 0])
    ctx = SimpleNamespace(seed=seed, cli=cli_runner)
    ctx.sim_seed = int(rng.integers(2**31))
    ctx.probe_plan = _one_sided(BERN, EXACT, 0.4, 0.6, stages=5)
    ctx.probe_large = _one_sided(BERN, EXACT, 0.45, 0.55, stages=5)
    ctx.readme_two_prop = st.build_two_prop_plan([-0.3], [0.3], 0.5, stage_ns=[4, 8])
    ctx.probe_sprt = SprtSpec(BERN, 0.4, 0.6, 0.05, 0.05)
    ctx.probe_delta = float(rng.choice([0.01, 0.025, 0.05, 0.1]))
    ctx.probe_grid = _jittered(rng, 0.2, 0.8, 201)
    ctx.probe_points = _jittered(rng, 0.44, 0.56, 48)
    g = _jittered(rng, 0.0, 1.0, 12)
    ctx.probe_pairs = [(float(x), float(y)) for x in g for y in g]
    ctx.cli_theta = round(float(rng.uniform(0.45, 0.55)), 3)
    return ctx


def setup_design(ctx):
    rng = np.random.default_rng([ctx.seed, 1])
    ctx.limit_delta = float(rng.choice([0.01, 0.025, 0.05, 0.1]))
    # Every second count at n = 50, every eighth exact and every second
    # Chernoff count at n = 200, and every third Poisson count, each from a
    # seeded offset: the full tables took 3 s, too long for the several
    # rounds a run needs.
    ctx.counts = {(fam, n): list(range(int(rng.integers(step)), top + 1, step))
                  for fam, n, top, step in (("exact", 50, 50, 2), ("chernoff", 50, 50, 2),
                                            ("exact", 200, 200, 8),
                                            ("chernoff", 200, 200, 2),
                                            ("poisson", 10, 60, 3))}


def setup_evaluate(ctx):
    rng = np.random.default_rng([ctx.seed, 2])
    ctx.fs = _one_sided(BERN, EXACT, 0.4, 0.6, fully_sequential=True)
    ctx.pois = _one_sided(POIS, EXACT, 1.0, 1.5, stages=5)
    ctx.three = _three_hyp()
    ctx.large = {z: _one_sided(BERN, EXACT, *z, stage_ns=LARGE_SIZES[z])
                 for z in LARGE_SIZES}
    ctx.tuned_two_prop = st.build_two_prop_plan([-0.2], [0.2], TUNED_TWO_PROP_ZETA,
                                                 stage_ns=[10, 20, 40])
    ctx.grids = {"fully_sequential": _jittered(rng, 0.2, 0.8, 201),
                 "poisson": _jittered(rng, 0.5, 2.0, 201),
                 "3hyp": _jittered(rng, 0.02, 0.98, 201)}
    ctx.large_points = {z: _jittered(rng, z[0] - 0.02, z[1] + 0.02, 12)
                        for z in LARGE_SIZES}
    g = _jittered(rng, 0.0, 1.0, 11)
    ctx.pairs = [(float(x), float(y)) for x in g for y in g]
    ctx.split_thetas = _jittered(rng, 0.3, 0.7, 4)


def setup_simulate(ctx):
    ctx.tuned = {
        "p46": st.tune_one_sided(BERN, EXACT, 0.4, 0.6, 0.05, 0.05, stages=5).plan,
        "p4555": st.tune_one_sided(BERN, EXACT, 0.45, 0.55, 0.05, 0.05, stages=5).plan,
        "pois": st.tune_one_sided(POIS, EXACT, 1.0, 1.5, 0.05, 0.05, stages=5).plan,
    }
    ctx.sprts = {k: SprtSpec(p.model, p.theta0, p.theta1, 0.05, 0.05)
                 for k, p in ctx.tuned.items()}


def setup_cli(ctx):
    pass


SETUPS = {"design": setup_design, "evaluate": setup_evaluate,
          "simulate": setup_simulate, "cli": setup_cli}
# Set-ups per round, on top of the untimed one before the first round.
SETUP_REPS = {"design": 3, "evaluate": 2, "simulate": 1, "cli": 3}
# Calibration kernels per round (see harness.py): about one per 0.25 s.
CALIBRATION_REPS = {"design": 16, "evaluate": 12, "simulate": 12, "cli": 36}
# The cli round is mostly child processes and a run holds only one to three
# of them, so its probes are repeated more to give each enough samples.
PROBE_REPS = {"design": 1, "evaluate": 1, "simulate": 1, "cli": 2}


def setup(workload: str, seed: int, cli_runner) -> SimpleNamespace:
    ctx = common_setup(seed, cli_runner)
    SETUPS[workload](ctx)
    return ctx


def _parts(make, name, seq, parts, reps):
    """One op per interleaved part of ``seq``; every part spans its range."""
    return [make(f"{name}_{i}", seq[i::parts], reps) for i in range(parts)]


def probe_ops(ctx) -> dict[str, list[Op]]:
    """Small instances of every stage, each repeated a few times a round."""
    three_tune = (lambda: st.tune_multihyp(BERN, EXACT, *ZONES3, [0.1] * 3,
                                           base_alphas=[0.1, 0.1],
                                           base_betas=[0.1, 0.1], stages=3, tol=1e-2))
    return {
        "limits_s": [_limits_op("limits_s", f"probe_limits_{fam.tag}", fam, BERN, 20,
                                ctx.probe_delta, range(0, 21, 5), 3)
                     for fam in (EXACT, CHER)],
        "design_s": [_plan_op("design_s", "probe_design",
                              lambda: _one_sided(BERN, EXACT, 0.4, 0.6, stages=5), 3),
                     _plan_op("design_s", "probe_design_3hyp", _three_hyp, 3)],
        "tune_s": [_tune_op("tune_s", "probe_tune_3hyp", three_tune, [0.1] * 3, 3)],
        "oc_grid_s": [_oc_op("oc_grid_s", "probe_oc_grid", ctx.probe_plan,
                             ctx.probe_grid[::2], 2),
                      _split_op("oc_grid_s", "probe_rejection_split",
                                [(ctx.probe_plan, (0, 0.5, 0.5, side))
                                 for side in ("low", "high")], 2)],
        "oc_large_s": [_oc_op("oc_large_s", "probe_oc_large", ctx.probe_large,
                              ctx.probe_points, 4)],
        "twoprop_oc_s": _parts(lambda name, pts, reps: _two_prop_op(
                                   "twoprop_oc_s", name, ctx.readme_two_prop, pts, reps),
                               "probe_two_prop_oc", ctx.probe_pairs, 2, 2),
        "certify_s": [_certify_op("certify_s", "probe_certify", ctx.readme_two_prop,
                                  0, 0.15, ctx.seed, 3)],
        "plan_trials_per_s": [_sim_op("plan_trials_per_s", "probe_sim_plan",
                                      ctx.probe_plan, 0.5, 500, ctx.sim_seed, 3)],
        # The SPRT runs outside its zone, where its walks vary least in
        # length, so the seed moves the work by about 3%.
        "sprt_trials_per_s": [_sim_op("sprt_trials_per_s", "probe_sim_sprt",
                                      ctx.probe_sprt, 0.3, 250, ctx.sim_seed, 3)],
        "compare_s": [_compare_op("compare_s", "probe_compare", ctx.probe_plan,
                                  ctx.probe_sprt, [0.3, 0.7], 100, ctx.sim_seed, 3)],
        "cli_workflow_s": _cli_step_ops(ctx, "probe_cli",
                                        cli_steps(ctx.sim_seed, ctx.cli_theta, small=True),
                                        inprocess=True),
    }


def design_ops(ctx, timed=True):
    """The design workload's own operations.

    With ``timed=False`` the list also holds the two ladder operations no
    round runs, the 0.49/0.51 build (5-10 s) and the 0.48/0.52 tuning
    (10 s): one sample each in a run cannot give a steady figure.
    """
    ops = []
    for (tag, n), counts in ctx.counts.items():
        fam, model = {"exact": (EXACT, BERN), "chernoff": (CHER, BERN),
                      "poisson": (EXACT, POIS)}[tag]
        # Parts of about 0.1 s, each spanning the whole table.
        parts = 1 + len(counts) // (12 if fam is EXACT else 60)
        ops += [_limits_op("limits_s", f"limits_{tag}_n{n}_{i}", fam, model, n,
                           ctx.limit_delta, counts[i::parts]) for i in range(parts)]
    ladder = LADDER if not timed else LADDER[:3]
    for z in ladder:
        ops.append(_plan_op("design_s", f"design_{z[0]}_{z[1]}",
                            lambda z=z: _one_sided(BERN, EXACT, *z, stages=5)))
    ops += [
        _plan_op("design_s", "design_chernoff",
                 lambda: _one_sided(BERN, CHER, 0.4, 0.6, stages=5)),
        _plan_op("design_s", "design_fully_sequential",
                 lambda: _one_sided(BERN, EXACT, 0.4, 0.6, fully_sequential=True)),
        _plan_op("design_s", "design_poisson",
                 lambda: _one_sided(POIS, EXACT, 1.0, 1.5, stages=5)),
        _plan_op("design_s", "design_3hyp", _three_hyp),
    ]
    tunes = [(f"tune_{a}_{b}", BERN, EXACT, a, b, {"stages": 5})
             for a, b in (LADDER[:3] if not timed else LADDER[:2])]
    tunes += [("tune_chernoff", BERN, CHER, 0.4, 0.6, {"stages": 5}),
              ("tune_fully_sequential", BERN, EXACT, 0.4, 0.6, {"fully_sequential": True}),
              ("tune_poisson", POIS, EXACT, 1.0, 1.5, {"stages": 5})]
    for name, model, fam, a, b, kw in tunes:
        ops.append(_tune_op("tune_s", name,
                            lambda m=model, f=fam, a=a, b=b, kw=kw:
                            st.tune_one_sided(m, f, a, b, 0.05, 0.05, **kw),
                            (0.05, 0.05)))
    ops.append(_tune_op("tune_s", "tune_3hyp",
                        lambda: st.tune_multihyp(BERN, EXACT, *ZONES3, [0.1] * 3,
                                              base_alphas=[0.1, 0.1],
                                              base_betas=[0.1, 0.1], stages=3),
                        [0.1] * 3))
    return ops


def _evaluate_ops(ctx):
    # The dense grids are split into interleaved subgrids, each of which
    # still spans the whole range, so a curve's cost spreads over the round
    # and each part can be checked for monotone edges.
    ops = []
    for key, plan, parts in (("fully_sequential", ctx.fs, 16), ("poisson", ctx.pois, 8),
                             ("3hyp", ctx.three, 4)):
        ops += _parts(lambda name, thetas, reps, plan=plan:
                      _oc_op("oc_grid_s", name, plan, thetas, reps),
                      f"oc_grid_{key}", ctx.grids[key], parts, 1)
    ops.append(_split_op("oc_grid_s", "rejection_split",
                         [(plan, (hyp, float(t), bound, side))
                          for plan, hyp, bound in ((ctx.fs, 0, 0.5), (ctx.three, 1, 0.5))
                          for t in ctx.split_thetas for side in ("low", "high")]))
    for z, plan in ctx.large.items():
        if z == (0.49, 0.51):
            # Known fault: the increment pmfs of this plan (up to 8085
            # samples) come from gammaln differences that lose ~1e-11 of
            # relative accuracy, so its acceptances sum to 1 only within
            # ~5e-12 while truncation_bound reports 0.  It shows at every
            # theta near the zone; the points are fixed so the operation
            # fails in every run and round alike.
            ops.append(_oc_op("oc_large_s", "oc_large_0.49_0.51", plan,
                              np.linspace(0.47, 0.53, 12), 3,
                              fault="do not sum to 1"))
        else:
            ops.append(_oc_op("oc_large_s", f"oc_large_{z[0]}_{z[1]}", plan,
                              ctx.large_points[z], 3))
        ops.append(Op("oc_large_s", f"verify_{z[0]}_{z[1]}",
                      lambda plan=plan: st.verify_risk(plan, (0.05, 0.05)),
                      lambda rep, plan=plan, z=z:
                      orc.check_verify(plan, rep, f"verify {z}"), 3))
    for key, plan in (("tuned", ctx.tuned_two_prop), ("readme", ctx.readme_two_prop)):
        ops += _parts(lambda name, pts, reps, plan=plan:
                      _two_prop_op("twoprop_oc_s", name, plan, pts, reps),
                      f"two_prop_oc_{key}", ctx.pairs, 4, 1)
    for hyp, delta, reps in ((0, 0.15, 2), (1, 0.35, 1)):
        ops.append(_certify_op("certify_s", f"certify_readme_h{hyp}",
                               ctx.readme_two_prop, hyp, delta, ctx.seed + hyp, reps))
    for hyp in (0, 1):
        ops.append(_certify_op("certify_s", f"certify_tuned_h{hyp}", ctx.tuned_two_prop,
                               hyp, TWO_PROP_DELTA, ctx.seed + 2 + hyp))
    return ops


def _simulate_ops(ctx):
    ops = []
    for key, plan in ctx.tuned.items():
        mid = 0.5 * (plan.theta0 + plan.theta1)
        for theta in (plan.theta0, mid, plan.theta1):
            ops.append(_sim_op("plan_trials_per_s", f"sim_plan_{key}_{theta:g}", plan,
                               theta, 2_400, ctx.sim_seed))
    for key, spec in ctx.sprts.items():
        mid = 0.5 * (spec.theta0 + spec.theta1)
        for theta in (spec.theta0, mid, spec.theta1):
            ops.append(_sim_op("sprt_trials_per_s", f"sim_sprt_{key}_{theta:g}", spec,
                               theta, 640, ctx.sim_seed))
    ops.append(_compare_op("compare_s", "compare_p46", ctx.tuned["p46"], ctx.sprts["p46"],
                           [0.3, 0.4, 0.5, 0.6, 0.7], 400, ctx.sim_seed, 2))
    return ops


def _cli_step_ops(ctx, prefix, steps, inprocess):
    """One op per workflow step, in order; the last one checks every output."""
    ops = [Op("cli_workflow_s", f"{prefix}_{name}",
              lambda name=name, argv=argv: ctx.cli.step(name, argv, inprocess))
           for name, argv in steps[:-1]]
    name, argv = steps[-1]
    ops.append(Op("cli_workflow_s", f"{prefix}_{name}",
                  lambda: (ctx.cli.step(name, argv, inprocess), _files(ctx.cli)),
                  lambda result: check_cli_outputs(ctx.cli, result[0][1], prefix)))
    return ops


FOCUS = {
    "design": (("limits_s", "design_s", "tune_s"), lambda ctx, ip: design_ops(ctx)),
    "evaluate": (("oc_grid_s", "oc_large_s", "twoprop_oc_s", "certify_s"),
                 lambda ctx, ip: _evaluate_ops(ctx)),
    "simulate": (("plan_trials_per_s", "sprt_trials_per_s", "compare_s"),
                 lambda ctx, ip: _simulate_ops(ctx)),
    # One child process per step, unless traced.
    "cli": (("cli_workflow_s",),
            lambda ctx, ip: _cli_step_ops(ctx, "cli", cli_steps(ctx.sim_seed, ctx.cli_theta),
                                          ip)),
}


def round_ops(workload: str, ctx, inprocess: bool) -> list[Op]:
    """The operations of one round: set-ups, the workload's stage, the probes."""
    own, make = FOCUS[workload]

    def set_up_again():
        setup(workload, ctx.seed, ctx.cli)
    ops = [Op("setup_s", "setup", set_up_again, reps=SETUP_REPS[workload])]
    ops += make(ctx, inprocess)
    for metric, probe in probe_ops(ctx).items():
        if metric not in own:
            for op in probe:
                op.reps *= PROBE_REPS[workload]
            ops += probe
    return ops


def crn_check(ctx) -> list[str]:
    """A repeated seed reproduces the same report, and compare's runners see
    the same observations as separate simulations (common random numbers)."""
    plan, spec = ctx.probe_plan, ctx.probe_sprt
    a = st.simulate(plan, 0.5, 300, ctx.sim_seed)
    b = st.simulate(plan, 0.5, 300, ctx.sim_seed)
    c = st.simulate(spec, 0.5, 300, ctx.sim_seed)
    rep = st.compare([plan, spec], [0.5], 300, ctx.sim_seed, names=["plan", "sprt"])
    out = []
    if a != b:
        out.append("crn: a repeated seed gave a different report")
    if rep.rows[0][1] != a or rep.rows[1][1] != c:
        out.append("crn: compare rows differ from separate simulations")
    return out
