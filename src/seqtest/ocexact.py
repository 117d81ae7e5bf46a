"""Exact operating characteristic and sample-size distribution of a plan.

The stopping regions of every stage are integer intervals of the running
sum, so the full distribution of (decision, stopping stage) follows from a
forward dynamic program: carry the sub-probability vector of the running
sum over the continuation event, convolve with the pmf of each stage
increment, and sweep the stage's decision windows.

For Bernoulli data every convolution is over a finite support and the
result is exact to float arithmetic.  For Poisson data the increment pmf
is truncated once its tail mass drops below 1e-15; the discarded mass is
accumulated per parameter point and reported as ``truncation_bound`` so
every reported probability is certified to that absolute slack.

``verify_risk`` turns the exact evaluations into a zone-by-zone verdict
using the proved monotonicity structure: the rejection probability of the
edge hypotheses is monotone over their zones, so a single endpoint
evaluation settles them, and the rejection of a middle hypothesis is
bounded by summing wrong-acceptance probabilities at the two zone
endpoints (each wrong acceptance is monotone beyond its own boundary).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .plans import MultiHypPlan

__all__ = ["OCReport", "RiskReport", "oc_single", "oc_curve", "verify_risk",
           "rejection_split"]

_TAIL_MASS = 1e-15


@dataclass
class OCReport:
    """Exact acceptance curves and stopping behaviour over a parameter grid."""

    thetas: np.ndarray                 # (t,)
    accept: np.ndarray                 # (t, m) acceptance probability per hypothesis
    asn: np.ndarray                    # (t,) expected sample number
    stage_stop: np.ndarray             # (t, s) stopping-stage distribution
    truncation_bound: np.ndarray       # (t,) absolute slack from pmf truncation
    stage_ns: tuple[int, ...]

    def to_csv(self) -> str:
        m = self.accept.shape[1]
        cols = ["theta"] + [f"accept_h{i}" for i in range(m)] + ["asn"] \
            + [f"stop_stage_{i+1}" for i in range(len(self.stage_ns))] \
            + ["truncation_bound"]
        lines = [",".join(cols)]
        for t in range(len(self.thetas)):
            row = [repr(float(self.thetas[t]))]
            row += [repr(float(v)) for v in self.accept[t]]
            row.append(repr(float(self.asn[t])))
            row += [repr(float(v)) for v in self.stage_stop[t]]
            row.append(repr(float(self.truncation_bound[t])))
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"


def _stage_masses(plan: MultiHypPlan, theta: float):
    """Yield per-stage (accept_mass[m], stop_mass) while running the DP."""
    model = plan.model
    state = np.array([1.0])  # state[k] = Pr{running sum = k, no decision yet}
    prev_n = 0
    deficit = 0.0
    accept = np.zeros(plan.m)
    stop = np.zeros(plan.s)
    asn = 0.0
    for idx, rule in enumerate(plan.stages):
        inc, inc_deficit = model.increment_pmf(rule.n - prev_n, theta, _TAIL_MASS)
        deficit += inc_deficit * float(state.sum())
        state = np.convolve(state, inc)
        prev_n = rule.n
        top = len(state) - 1
        for i, win in enumerate(rule.windows):
            if win is None:
                continue
            lo, hi = win
            hi = top if hi is None else min(hi, top)
            if hi < lo:
                continue
            seg = float(state[lo:hi + 1].sum())
            accept[i] += seg
            stop[idx] += seg
            state[lo:hi + 1] = 0.0
        asn += rule.n * stop[idx]
    leftover = float(state.sum())
    deficit += leftover  # a closed plan leaves nothing; count residue as slack
    asn += plan.stage_ns[-1] * deficit
    return accept, asn, stop, deficit


def oc_single(plan: MultiHypPlan, theta: float):
    """(accept vector, asn, stopping-stage distribution, truncation bound)."""
    plan.model.validate_theta(theta)
    return _stage_masses(plan, theta)


def oc_curve(plan: MultiHypPlan, thetas) -> OCReport:
    thetas = np.asarray(thetas, dtype=float)
    if thetas.ndim != 1 or len(thetas) == 0:
        raise DomainError("theta grid must be a nonempty 1-D sequence")
    results = [oc_single(plan, t) for t in thetas]
    accept = np.array([r[0] for r in results])
    asn = np.array([r[1] for r in results])
    stop = np.array([r[2] for r in results])
    bound = np.array([r[3] for r in results])
    return OCReport(thetas=thetas, accept=accept, asn=asn, stage_stop=stop,
                    truncation_bound=bound, stage_ns=plan.stage_ns)


def rejection_split(plan: MultiHypPlan, hyp: int, theta: float, bound: float, side: str) -> float:
    """Pr{reject hypothesis ``hyp`` with terminal mean on one side of ``bound``}.

    ``side`` is "low" for terminal mean <= bound, "high" for >= bound.
    Exact up to the same truncation slack as ``oc_single``.
    """
    if side not in ("low", "high"):
        raise DomainError("side must be 'low' or 'high'")
    plan.model.validate_theta(theta)
    model = plan.model
    state = np.array([1.0])
    prev_n = 0
    total = 0.0
    for rule in plan.stages:
        inc, _ = model.increment_pmf(rule.n - prev_n, theta, _TAIL_MASS)
        state = np.convolve(state, inc)
        prev_n = rule.n
        top = len(state) - 1
        for i, win in enumerate(rule.windows):
            if win is None:
                continue
            lo, hi = win
            hi = top if hi is None else min(hi, top)
            if hi < lo:
                continue
            if i != hyp:
                zs = np.arange(lo, hi + 1) / rule.n
                seg = state[lo:hi + 1]
                if side == "low":
                    total += float(seg[zs <= bound + 1e-12].sum())
                else:
                    total += float(seg[zs >= bound - 1e-12].sum())
            state[lo:hi + 1] = 0.0
    return total


@dataclass
class ZoneVerdict:
    zone: int
    budget: float
    bound: float
    endpoints: tuple[float, ...]
    endpoint_rejection: tuple[float, ...]
    satisfied: bool


@dataclass
class RiskReport:
    satisfied: bool
    zones: list[ZoneVerdict]
    analytic_caps: dict
    truncation_bound: float

    def worst(self) -> ZoneVerdict:
        return max(self.zones, key=lambda z: z.bound - z.budget)


def verify_risk(plan: MultiHypPlan, deltas) -> RiskReport:
    """Exact zone-by-zone risk verdict for per-zone rejection budgets.

    ``deltas[i]`` caps Pr{reject hypothesis i} over zone i: parameters
    below ``zone_lo[0]`` for i = 0, above ``zone_hi[-1]`` for the top
    hypothesis, and between ``zone_hi[i-1]`` and ``zone_lo[i]`` for middle
    ones.  Edge zones are settled by one exact evaluation at the inner
    endpoint (rejection there is monotone toward the boundary); middle
    zones by the endpoint sum of wrong-acceptance probabilities, each of
    which is monotone beyond its own zone boundary.
    """
    m = plan.m
    deltas = tuple(float(d) for d in deltas)
    if len(deltas) != m:
        raise DomainError(f"need one rejection budget per hypothesis ({m})")

    cache: dict[float, tuple] = {}

    def at(theta):
        if theta not in cache:
            cache[theta] = oc_single(plan, theta)
        return cache[theta]

    zones: list[ZoneVerdict] = []
    slack = 0.0
    for i in range(m):
        if i == 0:
            th = plan.zone_lo[0]
            acc, _, _, dfct = at(th)
            bound = 1.0 - float(acc[0])
            eps, ths = (bound,), (th,)
        elif i == m - 1:
            th = plan.zone_hi[-1]
            acc, _, _, dfct = at(th)
            bound = 1.0 - float(acc[m - 1])
            eps, ths = (bound,), (th,)
        else:
            a, b = plan.zone_hi[i - 1], plan.zone_lo[i]
            acc_a, _, _, d1 = at(a)
            acc_b, _, _, d2 = at(b)
            bound = float(acc_a[:i].sum() + acc_b[i + 1:].sum())
            dfct = d1 + d2
            eps = (1.0 - float(acc_a[i]), 1.0 - float(acc_b[i]))
            ths = (a, b)
        slack = max(slack, dfct)
        zones.append(ZoneVerdict(zone=i, budget=deltas[i],
                                 bound=bound + dfct, endpoints=ths,
                                 endpoint_rejection=eps,
                                 satisfied=bound + dfct <= deltas[i]))

    alphas, betas = plan.alphas, plan.betas
    caps = {}
    for i in range(m):
        hi_a = max(alphas[i:]) if i < m - 1 else 0.0   # boundaries above hypothesis i
        lo_b = max(betas[:i]) if i > 0 else 0.0        # boundaries at or below it
        caps[i] = plan.s * (hi_a + lo_b)
    if m == 2:
        caps["reject_h0"] = plan.s * alphas[0]
        caps["accept_h0_wrongly"] = plan.s * betas[0]
    return RiskReport(
        satisfied=all(z.satisfied for z in zones),
        zones=zones,
        analytic_caps=caps,
        truncation_bound=slack,
    )
