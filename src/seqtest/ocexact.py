"""Exact operating characteristic and sample-size distribution of a plan.

Every exact evaluator runs one forward recursion, ``propagate`` (Jennison
and Turnbull, *Group Sequential Methods*, 2000, ch. 19).  It carries the
sub-probability array of the running sum over the undecided event: 1-D
over the sum count for one sample, 2-D over the two arms' counts for two.
At each stage it convolves in the pmf of each axis increment (``np.convolve``
in 1-D; in 2-D one banded matrix product per axis), hands the
state and the stage's decision labels (one per sum cell, ``CONTINUE`` for
undecided) to the caller's reduction, and then clears the decided cells.
Mass still undecided after the last stage means the plan is not closed
and raises ``InfeasibleDesignError``.

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

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InfeasibleDesignError
from .plans import CONTINUE, MultiHypPlan

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


def _convolve(state: np.ndarray, probs: np.ndarray, axis: int) -> np.ndarray:
    """Full convolution of ``state`` with ``probs`` along one axis.

    A 1-D state goes through ``np.convolve``.  A 2-D state is multiplied
    by the banded (Toeplitz) matrix ``T[i, j] = probs[i - j]``: ``T @ state``
    along axis 0 and ``state @ T.T`` along axis 1.
    """
    if state.ndim == 1:
        return np.convolve(state, probs)
    n_in = state.shape[axis]
    n_out = n_in + len(probs) - 1
    # Row j of ``band`` starts ``probs`` at column j: each row of the
    # buffer is one entry longer than a row of the view, so the view's
    # rows shift right by one while the buffer's zeros fill the rest.
    buf = np.zeros((n_in, n_out + 1))
    buf[:, :len(probs)] = probs
    band = buf.reshape(-1)[:n_in * n_out].reshape(n_in, n_out)   # T.T
    return band.T @ state if axis == 0 else state @ band


def propagate(stages, pmf):
    """Run the forward recursion over ``stages``, one yield per stage.

    ``stages`` lists (sizes, labels) per stage: the cumulative sample size
    of each axis and the decision label of each sum cell.  A 1-D label
    array may be shorter than the state; its last entry then covers every
    count above it.  ``pmf(axis, m)`` gives (pmf, truncated mass) of an
    m-sample increment on one axis, asked once per distinct (axis, m).
    A 2-D state takes each axis increment as one banded matrix product.
    Yields (stage index, state, labels, truncated mass so far); the caller
    may zero cells of ``state`` before the decided ones are cleared.  Mass
    left after the last stage raises ``InfeasibleDesignError``.
    """
    pmfs = {}
    state = np.ones((1,) * len(stages[0][0]))
    prev = (0,) * state.ndim
    truncated = 0.0
    for idx, (sizes, labels) in enumerate(stages):
        for axis, (n, n_prev) in enumerate(zip(sizes, prev)):
            if n > n_prev:
                key = (axis, n - n_prev)
                if key not in pmfs:
                    pmfs[key] = pmf(*key)
                probs, lost = pmfs[key]
                if lost:
                    truncated += lost * float(state.sum())
                state = _convolve(state, probs, axis)
        prev = sizes
        if len(labels) > len(state):
            labels = labels[:len(state)]
        elif labels.shape != state.shape:
            labels = labels.take(np.arange(len(state)), mode="clip")
        yield idx, state, labels, truncated
        state[labels != CONTINUE] = 0.0
    if state.any():
        raise InfeasibleDesignError("plan leaves mass undecided after its last stage")


def _label_mass(state: np.ndarray, labels: np.ndarray, m: int) -> list[float]:
    """Mass of ``state`` on the cells labelled 0, ..., m - 1, in one pass."""
    return np.bincount(labels + 1, weights=state, minlength=m + 1)[1:].tolist()


def _one_sample(plan: MultiHypPlan, theta: float):
    model = plan.model
    return propagate([((rule.n,), rule.labels) for rule in plan.stages],
                     lambda _, m: model.increment_pmf(m, theta, _TAIL_MASS))


def oc_single(plan: MultiHypPlan, theta: float):
    """(accept vector, asn, stopping-stage distribution, truncation bound)."""
    plan.model.validate_theta(theta)
    accept = [0.0] * plan.m
    stop = [0.0] * plan.s
    asn = 0.0
    for idx, state, labels, truncated in _one_sample(plan, theta):
        for i, seg in enumerate(_label_mass(state, labels, plan.m)):
            accept[i] += seg
            stop[idx] += seg
        asn += plan.stages[idx].n * stop[idx]
    asn += plan.stage_ns[-1] * truncated
    return np.array(accept), asn, np.array(stop), truncated


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
    total = 0.0
    for idx, state, labels, _ in _one_sample(plan, theta):
        zs = np.arange(len(state)) / plan.stages[idx].n
        near = zs <= bound + 1e-12 if side == "low" else zs >= bound - 1e-12
        for i, seg in enumerate(_label_mass(state * near, labels, plan.m)):
            if i != hyp:
                total += seg
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
