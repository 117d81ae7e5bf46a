"""Spans around seqtest's public functions, recorded from outside the package.

``Tracer.install`` replaces each listed function with a wrapper everywhere
a caller can look it up: the defining module, every other seqtest module
that imported it by name, and the class for methods.  While the tracer is
active a wrapper records one span (group, parent span, start, end and a
small computed fact about the call) in memory; nothing is written until
the run ends.  ``Tracer.uninstall`` puts the original functions back.

``layer_metrics`` turns the spans of one round into the per-layer
figures: calls and inclusive seconds per function group, self seconds per
layer (a span's duration minus what its child spans cover), and the work
counts computed from call arguments and results.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict

import seqtest
from seqtest import (cli, conflimits, models, ocexact, plandoc, plans, sim,
                     sprt, tuning, twoprop)

# Function groups: (owner, attribute names, layer, group).
_TARGETS = [
    (models.Bernoulli, ("tail_lower", "tail_upper"), "models", "tail"),
    (models.Poisson, ("tail_lower", "tail_upper"), "models", "tail"),
    (models.Bernoulli, ("pmf_sum", "log_pmf_sum"), "models", "pmf"),
    (models.Poisson, ("pmf_sum", "log_pmf_sum"), "models", "pmf"),
    (models.Bernoulli, ("log_chernoff",), "models", "rate"),
    (models.Poisson, ("log_chernoff",), "models", "rate"),
    (models.Bernoulli, ("increment_pmf",), "models", "increment_pmf"),
    (models.Poisson, ("increment_pmf",), "models", "increment_pmf"),
    (models.Bernoulli, ("draw",), "models", "draw"),
    (models.Poisson, ("draw",), "models", "draw"),
    (conflimits.ExactLimits, ("lower_detail", "upper_detail"), "conflimits", "limit"),
    (conflimits.ChernoffLimits, ("lower_detail", "upper_detail"), "conflimits", "limit"),
    (conflimits.ApproxLimits, ("lower_detail", "upper_detail"), "conflimits", "limit"),
    (conflimits.ExactLimits, ("support_lower_crossed", "support_upper_crossed"),
     "conflimits", "crossed"),
    (conflimits.ChernoffLimits, ("support_lower_crossed", "support_upper_crossed"),
     "conflimits", "crossed"),
    (conflimits.ApproxLimits, ("support_lower_crossed", "support_upper_crossed"),
     "conflimits", "crossed"),
    (plans, ("build_stage_rule",), "plans", "rule"),
    (plans, ("build_one_sided_plan", "build_multihyp_plan"), "plans", "build"),
    (plans, ("run_plan", "sample_bound"), "plans", "other"),
    (ocexact, ("oc_single",), "ocexact", "oc_single"),
    (ocexact, ("oc_curve",), "ocexact", "oc_curve"),
    (ocexact, ("verify_risk",), "ocexact", "verify"),
    (ocexact, ("rejection_split",), "ocexact", "split"),
    (tuning, ("tune_zeta", "tune_one_sided", "tune_multihyp"), "tuning", "tune"),
    (twoprop, ("build_two_prop_plan", "run_two_prop", "tune_two_prop"),
     "twoprop", "other"),
    (twoprop, ("exact_oc",), "twoprop", "exact_oc"),
    (twoprop, ("rejection_prob_bounds",), "twoprop", "bound"),
    (twoprop, ("certify_risk",), "twoprop", "certify"),
    (sprt.SprtSpec, ("increments",), "sprt", "increments"),
    (sprt, ("run_sprt", "sprt_oc_asn"), "sprt", "other"),
    (sim, ("simulate",), "sim", "simulate"),
    (sim, ("compare",), "sim", "compare"),
    (plandoc, ("plan_to_doc", "dump_doc", "save_plan"), "plandoc", "dump"),
    (plandoc, ("doc_to_plan", "parse_doc", "load_plan"), "plandoc", "load"),
]

LAYERS = ("models", "conflimits", "plans", "ocexact", "tuning", "twoprop",
          "sprt", "sim", "plandoc", "cli")

_MODULES = (seqtest, models, conflimits, plans, ocexact, tuning, twoprop,
            sprt, sim, plandoc, cli)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class _Probes:
    """Feasibility probes seen by one ``tune_zeta`` call."""

    def __init__(self, family):
        self.family = family
        self.zetas = []

    def __call__(self, z):
        self.zetas.append(z)
        return self.family(z)


def _fact(group, name, args, kwargs, result, extra):
    """The computed fact a span carries, read from arguments and results."""
    if group == "crossed":
        return len(_arg(args, kwargs, 3, "ks"))
    if group == "increment_pmf":
        return len(result[0])
    if group == "build":
        return len(result.stages)
    if name == "tune_zeta":
        return len(extra.zetas), sum(z <= result.zeta for z in extra.zetas)
    if group == "certify":
        rects = [entry[0] for entry in result.trace]
        return result.explored, len(rects) - len(set(rects))
    if group == "simulate":
        runner = _arg(args, kwargs, 0, "runner")
        kind = "sprt" if isinstance(runner, sprt.SprtSpec) else "plan"
        return kind, _arg(args, kwargs, 2, "trials")
    if name == "dump_doc":
        return len(result)
    return None


class Tracer:
    def __init__(self):
        self.spans = []       # [layer, group, parent, start, end, fact]
        self.active = False
        self._stack = []
        self._saved = []

    def _wrap(self, fn, layer, group, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            extra = None
            if name == "tune_zeta":
                extra = _Probes(_arg(args, kwargs, 0, "plan_family"))
                args = (extra,) + tuple(args[1:]) if args else args
                if "plan_family" in kwargs:
                    kwargs["plan_family"] = extra
            record = tracer._open(layer, group)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(record)
            record[5] = _fact(group, name, args, kwargs, result, extra)
            return result

        return wrapper

    def install(self):
        for owner, names, layer, group in _TARGETS:
            for name in names:
                orig = owner.__dict__[name]
                wrapped = self._wrap(orig, layer, group, name)
                self._saved.append((owner, name, orig))
                setattr(owner, name, wrapped)
                if isinstance(owner, type):
                    continue
                # Other modules may hold the function under another name
                # (``cli`` imports ``sim.compare`` as ``sim_compare``).
                for mod in _MODULES:
                    if mod is owner:
                        continue
                    for attr, value in list(mod.__dict__.items()):
                        if value is orig:
                            self._saved.append((mod, attr, orig))
                            setattr(mod, attr, wrapped)

    def uninstall(self):
        for owner, name, orig in reversed(self._saved):
            setattr(owner, name, orig)
        self._saved.clear()

    def _open(self, layer, group):
        record = [layer, group, self._stack[-1] if self._stack else -1,
                  0.0, 0.0, None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[3] = time.perf_counter()
        return record

    def _close(self, record):
        record[4] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, layer, group):
        """Record a span opened by the harness itself, while tracing is on."""
        if not self.active:
            yield
            return
        record = self._open(layer, group)
        try:
            yield
        finally:
            self._close(record)


def layer_metrics(spans: list, index: list) -> dict:
    """Per-layer figures of one round's spans.

    ``spans`` holds (id, record) pairs of the round and ``index`` is the
    tracer's list of every record, where a span's id is its position.
    Returns a flat {metric name: value} dict.
    """
    children = defaultdict(list)
    for sid, span in spans:
        children[span[2]].append(sid)

    def dur(sp):
        return sp[4] - sp[3]

    def has_ancestor_in(sid, layer, group):
        parent = index[sid][2]
        while parent != -1:
            if index[parent][0] == layer and index[parent][1] == group:
                return True
            parent = index[parent][2]
        return False

    calls = defaultdict(int)
    incl = defaultdict(float)
    self_s = defaultdict(float)
    for sid, sp in spans:
        key = f"{sp[0]}.{sp[1]}"
        calls[key] += 1
        if not has_ancestor_in(sid, sp[0], sp[1]):
            incl[key] += dur(sp)
        covered = sum(dur(index[c]) for c in children[sid])
        self_s[sp[0]] += dur(sp) - covered

    out = {}
    for group in ("tail", "pmf", "increment_pmf", "draw"):
        out[f"models.{group}_calls"] = calls[f"models.{group}"]
        out[f"models.{group}_s"] = incl[f"models.{group}"]
    out["conflimits.limit_calls"] = calls["conflimits.limit"]
    out["conflimits.limit_s"] = incl["conflimits.limit"]
    out["conflimits.crossed_calls"] = calls["conflimits.crossed"]
    out["conflimits.crossed_s"] = incl["conflimits.crossed"]
    out["conflimits.crossed_points"] = sum(
        sp[5] for _, sp in spans if sp[1] == "crossed" and sp[0] == "conflimits")
    rules = calls["plans.rule"]
    kept = sum(sp[5] for sid, sp in spans
               if sp[0] == "plans" and sp[1] == "build" and sp[5] is not None
               and not has_ancestor_in(sid, "plans", "build"))
    out["plans.rules_built"] = rules
    out["plans.rule_s"] = incl["plans.rule"]
    out["plans.rules_kept_ratio"] = kept / rules if rules else 1.0
    out["plans.build_s"] = incl["plans.build"]

    # DP multiplications of every exact one-sample pass: the running-sum
    # state of length L convolved with an increment pmf of length M costs
    # L * M, and grows to L + M - 1.
    mults = 0
    for sid, sp in spans:
        if sp[0] == "ocexact" and sp[1] in ("oc_single", "split"):
            length = 1
            for c in children[sid]:
                if index[c][1] == "increment_pmf":
                    m = index[c][5]
                    mults += length * m
                    length += m - 1
    out["ocexact.oc_single_calls"] = calls["ocexact.oc_single"]
    out["ocexact.oc_single_s"] = incl["ocexact.oc_single"]
    out["ocexact.dp_mults"] = mults
    out["ocexact.verify_calls"] = calls["ocexact.verify"]
    out["ocexact.verify_s"] = incl["ocexact.verify"]
    out["ocexact.split_s"] = incl["ocexact.split"]

    probes = feasible = 0
    for _, sp in spans:
        if sp[0] == "tuning" and isinstance(sp[5], tuple):
            probes += sp[5][0]
            feasible += sp[5][1]
    out["tuning.probes"] = probes
    out["tuning.feasible_ratio"] = feasible / probes if probes else 1.0
    out["tuning.tune_s"] = incl["tuning.tune"]

    out["twoprop.exact_oc_calls"] = calls["twoprop.exact_oc"]
    out["twoprop.exact_oc_s"] = incl["twoprop.exact_oc"]
    out["twoprop.bound_calls"] = calls["twoprop.bound"]
    out["twoprop.bound_s"] = incl["twoprop.bound"]
    certs = [sp[5] for _, sp in spans if sp[1] == "certify" and sp[0] == "twoprop"]
    out["twoprop.rectangles_explored"] = sum(c[0] for c in certs)
    out["twoprop.eta_halvings"] = sum(c[1] for c in certs)
    out["twoprop.certify_s"] = incl["twoprop.certify"]

    out["sprt.increments_calls"] = calls["sprt.increments"]
    out["sprt.increments_s"] = incl["sprt.increments"]
    trials = {"plan": 0, "sprt": 0}
    busy = {"plan": 0.0, "sprt": 0.0}
    for _, sp in spans:
        if sp[0] == "sim" and sp[1] == "simulate":
            kind, n = sp[5]
            trials[kind] += n
            busy[kind] += dur(sp)
    out["sim.trials"] = trials["plan"] + trials["sprt"]
    for kind in ("plan", "sprt"):
        out[f"sim.{kind}_trial_us"] = (1e6 * busy[kind] / trials[kind]
                                       if trials[kind] else 0.0)

    out["plandoc.dump_s"] = incl["plandoc.dump"]
    out["plandoc.load_s"] = incl["plandoc.load"]
    out["plandoc.doc_bytes"] = sum(sp[5] for _, sp in spans
                                   if sp[0] == "plandoc" and isinstance(sp[5], int))
    for layer in LAYERS + ("bench",):
        out[f"{layer}.self_s"] = self_s[layer]
    out["trace.wall_s"] = sum(dur(sp) for _, sp in spans if sp[2] == -1)
    for _, sp in spans:
        if sp[0] == "cli":
            key = f"cli.{sp[1]}_s"
            out[key] = out.get(key, 0.0) + dur(sp)
    return out
