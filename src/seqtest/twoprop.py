"""Multistage tests for the difference of two binomial proportions.

The parameter is theta = p_x - p_y.  Each stage takes (N_x, N_y) samples
of the two arms, forms score-interval limits for the difference, and the
stage grid over (count_x, count_y) is partitioned into per-hypothesis
decision regions plus a continuation region by the same inclusion rule as
the scalar plans: stop once some bracket "lower limit clears the zone
floor below, upper limit sits under the zone ceiling above" holds.  When
two consecutive brackets hold at once, the observed difference is
compared against the midpoint of the shared indifference zone.  The
builder gives both arms the same size at every stage and, unless the
sizes are given, finds the first and last in one pass over the sizes;
plan documents whose arms differ in size still load and run.

The exact OC and the risk bounds run the forward recursion of
``ocexact.propagate`` over the 2-D count grid.  Risk verification over a
parameter rectangle uses interval dynamic programming: the same recursion
over both arms' whole supports, with each transition mass replaced by its
pointwise minimum or maximum over the rectangle (binomial mass is unimodal
in p).  The resulting lower/upper rejection bounds hold at every point of
the rectangle and drive a branch-and-bound certificate over the hypothesis
zone.  One certificate computes each pmf bound and stage rejection mask
once and reuses it across its rectangles.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
from scipy.special import ndtri

from .errors import DomainError, InfeasibleDesignError
from .models import Bernoulli
from .ocexact import propagate
from .plans import (CONTINUE, TestOutcome, _ZonedPlan, _check_stage_count, _levels, _take,
                    check_stage_sizes, stage_schedule)

__all__ = [
    "Rectangle", "TwoPropStage", "TwoPropPlan", "RiskCertificate",
    "newcombe_limits", "truncation_bounds", "build_two_prop_plan",
    "run_two_prop", "exact_oc", "rejection_prob_bounds", "certify_risk",
    "tune_two_prop",
]

_BERN = Bernoulli()


def _wilson_roots(phat, n, c):
    """Score-interval roots (low, high) for one arm; vectorized in phat."""
    phat = np.asarray(phat, dtype=float)
    disc = np.sqrt(c * c + 4.0 * c * n * phat * (1.0 - phat))
    low = (c + 2.0 * n * phat - disc) / (2.0 * (c + n))
    high = (c + 2.0 * n * phat + disc) / (2.0 * (c + n))
    # The roots live in [0, 1]; rounding can spill a hair outside, which
    # would put a negative value under the variance square root.
    return np.clip(low, 0.0, 1.0), np.clip(high, 0.0, 1.0)


def newcombe_limits(phat_x, phat_y, n_x: int, n_y: int, delta: float):
    """Score-based (lower, upper) limits for p_x - p_y; vectorized.

    The two arms get individual score intervals at the same level and the
    difference limits combine their inner/outer half-width components.
    The result always brackets the observed difference.
    """
    if not (0.0 < delta < 1.0):
        raise DomainError(f"delta must lie in (0, 1), got {delta}")
    z = float(-ndtri(delta / 2.0))
    c = z * z
    lx, ux = _wilson_roots(phat_x, n_x, c)
    ly, uy = _wilson_roots(phat_y, n_y, c)
    diff = np.asarray(phat_x, dtype=float) - np.asarray(phat_y, dtype=float)
    lower = diff - z * np.sqrt(lx * (1.0 - lx) / n_x + uy * (1.0 - uy) / n_y)
    upper = diff + z * np.sqrt(ux * (1.0 - ux) / n_x + ly * (1.0 - ly) / n_y)
    return lower, upper


def truncation_bounds(theta: float, n: int, eta: float) -> tuple[float, float]:
    """Mean-range window [T_lb, T_ub] losing at most eta of mass per side.

    Both ends are multiples of 1/n by construction (the inner adjustment
    is rounded toward the center before scaling).
    """
    if not (0.0 <= theta <= 1.0):
        raise DomainError(f"theta must lie in [0, 1], got {theta}")
    if not (0.0 < eta < 1.0):
        raise DomainError(f"eta must lie in (0, 1), got {eta}")
    if n < 1:
        raise DomainError(f"n must be a positive integer, got {n}")
    log_term = math.log(2.0 / eta)
    denom = 2.0 / (3.0 * n) + 3.0 / log_term
    root = math.sqrt(1.0 + 18.0 * n * theta * (1.0 - theta) / log_term)
    lb = max(0.0, math.ceil(n * theta + (1.0 - 2.0 * theta - root) / denom) / n)
    ub = min(1.0, math.floor(n * theta + (1.0 - 2.0 * theta + root) / denom) / n)
    return lb, ub


@dataclass(frozen=True)
class Rectangle:
    """Axis-aligned parameter rectangle [px_lo, px_hi] x [py_lo, py_hi]."""

    px_lo: float
    px_hi: float
    py_lo: float
    py_hi: float

    def __post_init__(self):
        if not (0.0 <= self.px_lo <= self.px_hi <= 1.0
                and 0.0 <= self.py_lo <= self.py_hi <= 1.0):
            raise DomainError(f"malformed rectangle {self}")

    @property
    def widths(self) -> tuple[float, float]:
        return self.px_hi - self.px_lo, self.py_hi - self.py_lo

    def diff_range(self) -> tuple[float, float]:
        """Range of p_x - p_y over the rectangle."""
        return self.px_lo - self.py_hi, self.px_hi - self.py_lo

    def intersects_band(self, lo: float, hi: float) -> bool:
        a, b = self.diff_range()
        return a <= hi and lo <= b

    def split(self) -> tuple["Rectangle", "Rectangle"]:
        wx, wy = self.widths
        if wx >= wy:
            mid = 0.5 * (self.px_lo + self.px_hi)
            return (Rectangle(self.px_lo, mid, self.py_lo, self.py_hi),
                    Rectangle(mid, self.px_hi, self.py_lo, self.py_hi))
        mid = 0.5 * (self.py_lo + self.py_hi)
        return (Rectangle(self.px_lo, self.px_hi, self.py_lo, mid),
                Rectangle(self.px_lo, self.px_hi, mid, self.py_hi))


@dataclass(frozen=True, eq=False)
class TwoPropStage:
    n_x: int
    n_y: int
    decision: np.ndarray  # (n_x+1, n_y+1) int8: -1 continue, else hypothesis
    midpoint_used: np.ndarray  # bool grid: decided by the shared-zone midpoint rule

    @property
    def closed(self) -> bool:
        """True when the stage decides every (count_x, count_y) cell."""
        return not (self.decision == CONTINUE).any()


@dataclass(frozen=True, eq=False)
class TwoPropPlan(_ZonedPlan):
    kind: ClassVar[str] = "two-prop"
    zone_lo: tuple[float, ...]   # lower endpoint of each indifference zone
    zone_hi: tuple[float, ...]   # upper endpoint of each indifference zone
    base_alphas: tuple[float, ...]
    base_betas: tuple[float, ...]
    zeta: float
    stages: tuple[TwoPropStage, ...]

    @property
    def stage_sizes(self) -> tuple[tuple[int, int], ...]:
        return tuple((st.n_x, st.n_y) for st in self.stages)

    def zone_band(self, hyp: int) -> tuple[float, float]:
        """Closed theta band of hypothesis ``hyp`` inside (-1, 1)."""
        if not (0 <= hyp < self.m):
            raise DomainError(f"hypothesis index out of range: {hyp}")
        lo = -1.0 if hyp == 0 else self.zone_hi[hyp - 1]
        hi = 1.0 if hyp == self.m - 1 else self.zone_lo[hyp]
        return lo, hi


def _check_two_prop_zones(zone_lo, zone_hi):
    nb = len(zone_lo)
    if nb == 0 or len(zone_hi) != nb:
        raise DomainError("need matching nonempty zone endpoint sequences")
    for lo, hi in zip(zone_lo, zone_hi):
        if not (-1.0 < lo < hi < 1.0):
            raise DomainError(f"zone ({lo}, {hi}) must be ordered inside (-1, 1)")
    for hi, nxt in zip(zone_hi, zone_lo[1:]):
        if not (hi < nxt):
            raise DomainError(
                "indifference zones must be strictly separated so that at most "
                "two brackets can hold at once"
            )


def _build_stage(n, zone_lo, zone_hi, alphas, betas):
    """(stage, overlap): the stage of n samples per arm, and whether at every
    boundary some cell lies in both of its clearing sets.

    The sets over the (count_x, count_y) grid, per boundary: ``above``, the
    lower limit at the boundary's level clears the zone floor; ``below``,
    the upper limit sits at or under the zone ceiling.
    """
    m = len(zone_lo) + 1
    px = np.arange(n + 1) / n
    above = [newcombe_limits(px[:, None], px, n, n, a)[0] >= lo
             for lo, a in zip(zone_lo, alphas)]
    below = [newcombe_limits(px[:, None], px, n, n, b)[1] <= hi
             for hi, b in zip(zone_hi, betas)]
    full = np.ones((n + 1, n + 1), dtype=bool)
    # bracket[b] accepts hypothesis b: needs the boundary below it cleared
    # upward and the boundary above it cleared downward.
    brackets = np.stack([(above[b - 1] if b > 0 else full) & (below[b] if b < m - 1 else full)
                         for b in range(m)])
    counts = brackets.sum(axis=0)
    first = np.argmax(brackets, axis=0).astype(np.int8)
    decision = np.where(counts == 0, np.int8(CONTINUE), first)
    double = counts == 2
    if double.any():
        mids = np.array([(zone_lo[b] + zone_hi[b]) / 2.0 for b in range(m - 1)])
        # shared zone between hypotheses b and b+1 is boundary index b
        shared_mid = mids[np.clip(first, 0, m - 2)]
        decision = np.where(double & (px[:, None] - px > shared_mid), first + 1, decision)
    stage = TwoPropStage(n_x=n, n_y=n, decision=decision.astype(np.int8),
                         midpoint_used=double)
    return stage, all((a & b).any() for a, b in zip(above, below))


def _search_sizes(zone_lo, zone_hi, alphas, betas, max_stage_size):
    """(first, last) stage sizes of ``build_two_prop_plan``'s search, in one pass."""
    first, overlap = None, False
    for n in range(1, max_stage_size + 1):
        stage, ties = _build_stage(n, zone_lo, zone_hi, alphas, betas)
        if first is None and (stage.decision != CONTINUE).any():
            first = n
        overlap = overlap or ties
        if overlap and stage.closed:
            return first, n
    raise InfeasibleDesignError(
        f"no {'closed final stage' if overlap else 'bracketing overlap'} within "
        f"stage size {max_stage_size}"
    )


def build_two_prop_plan(
    zone_lo,
    zone_hi,
    zeta: float,
    base_alphas=None,
    base_betas=None,
    stage_ns=None,
    stages: int = 1,
    schedule: str = "geometric",
    max_stage_size: int = 400,
) -> TwoPropPlan:
    """Build a closed multistage difference-of-proportions plan with equal arms.

    Every stage takes the same number of samples from both arms.  With
    ``stage_ns`` omitted, one pass over the sizes 1..``max_stage_size``
    picks the last size and the first: the last is the smallest whose
    stage decides every grid point, once every boundary has had a nonempty
    bracketing overlap; the first is the smallest whose stage decides any
    point.  ``stages`` sizes are interpolated between them on ``schedule``.
    ``stage_ns`` may also give the sizes explicitly.  Plan documents whose
    arms differ in size still load and run.
    """
    _check_two_prop_zones(zone_lo, zone_hi)
    base_alphas, base_betas, alphas, betas = _levels(base_alphas, base_betas, zeta,
                                                     len(zone_lo))
    _check_stage_count(stages)

    if stage_ns is None:
        first, last = _search_sizes(zone_lo, zone_hi, alphas, betas, max_stage_size)
        stage_ns = stage_schedule(first, last, stages, schedule)
    ns = tuple(int(n) for n in stage_ns)
    check_stage_sizes(ns)
    built = tuple(_build_stage(n, zone_lo, zone_hi, alphas, betas)[0] for n in ns)
    if not built[-1].closed:
        raise InfeasibleDesignError(
            f"final stage of size {ns[-1]} leaves continuation points; "
            "increase the last stage size"
        )
    return TwoPropPlan(
        zone_lo=tuple(zone_lo), zone_hi=tuple(zone_hi),
        base_alphas=base_alphas, base_betas=base_betas, zeta=zeta, stages=built,
    )


def run_two_prop(plan: TwoPropPlan, stream_x, stream_y) -> TestOutcome:
    """Run the plan on two observation streams."""
    it_x, it_y = iter(stream_x), iter(stream_y)
    kx = ky = 0
    used_x = used_y = 0
    for idx, stage in enumerate(plan.stages):
        kx += _take(it_x, stage.n_x - used_x, _BERN, "first-arm")
        ky += _take(it_y, stage.n_y - used_y, _BERN, "second-arm")
        used_x, used_y = stage.n_x, stage.n_y
        d = int(stage.decision[kx, ky])
        if d != CONTINUE:
            return TestOutcome(
                stage_index=idx + 1,
                sample_count=used_x + used_y,
                accepted_index=d,
                terminal_estimate=kx / stage.n_x - ky / stage.n_y,
                tie_occurred=bool(stage.midpoint_used[kx, ky]),
            )
    raise InfeasibleDesignError("closed plan reached its last stage undecided")


def _pmf_max(n: int, p_lo: float, p_hi: float) -> np.ndarray:
    """Pointwise maximum of the binomial pmf over [p_lo, p_hi].

    Each mass is unimodal in p with mode at count/n, so the maximum is at
    the clipped mode.
    """
    ks = np.arange(n + 1)
    return _BERN.pmf_sum(n, ks, (ks / n).clip(p_lo, p_hi))


def _pmf_min(n: int, p_lo: float, p_hi: float) -> np.ndarray:
    """Pointwise minimum of the binomial pmf over [p_lo, p_hi], at an endpoint."""
    return np.minimum(_BERN.increment_pmf(n, p_lo)[0], _BERN.increment_pmf(n, p_hi)[0])


def _propagate(plan: TwoPropPlan, pmf):
    return propagate([((st.n_x, st.n_y), st.decision, None) for st in plan.stages], pmf)


class _IntervalDP:
    """Sandwich bounds for one plan and hypothesis, inputs computed once.

    The pmf bounds per (bound, m, range) are kept for the life of the
    instance, and each stage's "rejects ``hyp``" mask is built with it.
    ``certify_risk`` keeps one for its whole search;
    ``rejection_prob_bounds`` makes a fresh one per call.
    """

    def __init__(self, plan: TwoPropPlan, hyp: int):
        if not (0 <= hyp < plan.m):
            raise DomainError(f"hypothesis index out of range: {hyp}")
        self.plan = plan
        self._rejects = [(st.decision != CONTINUE) & (st.decision != hyp)
                         for st in plan.stages]
        self._pmfs: dict = {}

    def _pmf(self, bound, m: int, lo: float, hi: float) -> np.ndarray:
        key = (bound, m, lo, hi)
        if key not in self._pmfs:
            self._pmfs[key] = bound(m, lo, hi)
        return self._pmfs[key]

    def _rejection(self, ranges, pmf_bound) -> float:
        """Interval-DP mass of the paths that reject the hypothesis.

        Each arm's increments take the pmf ``pmf_bound(m, lo, hi)`` over
        its parameter range in ``ranges``, over the arm's whole support.
        """
        total = 0.0
        for idx, state, _, _, _ in _propagate(
                self.plan, lambda axis, m: (self._pmf(pmf_bound, m, *ranges[axis]), 0.0)):
            total += float(state[self._rejects[idx]].sum())
        return total

    def bounds(self, rect: Rectangle) -> tuple[float, float]:
        """(lower, upper) of ``rejection_prob_bounds``."""
        ranges = ((rect.px_lo, rect.px_hi), (rect.py_lo, rect.py_hi))
        lower = self._rejection(ranges, _pmf_min)
        upper = self._rejection(ranges, _pmf_max)
        return min(1.0, lower), min(1.0, upper)


def rejection_prob_bounds(plan: TwoPropPlan, hyp: int,
                          rect: Rectangle) -> tuple[float, float]:
    """Sandwich bounds on Pr{accept something other than ``hyp``} over ``rect``.

    The exact recursion over both arms' whole supports, with every
    transition mass replaced by its pointwise minimum (lower) or maximum
    (upper) over the rectangle.  A path's probability is a product of
    transition masses, so each bound holds at every parameter point inside
    the rectangle; at a point rectangle both equal the exact rejection.
    """
    return _IntervalDP(plan, hyp).bounds(rect)


def _check_point(p_x: float, p_y: float) -> None:
    for v, name in ((p_x, "p_x"), (p_y, "p_y")):
        if not (0.0 <= v <= 1.0):
            raise DomainError(f"{name} must lie in [0, 1], got {v}")


def exact_oc(plan: TwoPropPlan, p_x: float, p_y: float):
    """Exact (acceptance vector, expected samples per arm) at one point."""
    _check_point(p_x, p_y)
    accept = np.zeros(plan.m)
    asn_x = asn_y = 0.0
    ps = (p_x, p_y)
    for idx, state, labels, _, _ in _propagate(
            plan, lambda axis, m: _BERN.increment_pmf(m, ps[axis])):
        stopped = 0.0
        for b in range(plan.m):
            mass = float(state[labels == b].sum())
            accept[b] += mass
            stopped += mass
        asn_x += plan.stages[idx].n_x * stopped
        asn_y += plan.stages[idx].n_y * stopped
    return accept, asn_x, asn_y


@dataclass
class RiskCertificate:
    verdict: str                      # "proved" | "disproved" | "inconclusive"
    hypothesis: int
    explored: int                     # rectangles examined
    max_upper: float                  # largest upper bound on the final frontier
    witness: Rectangle                # frontier's worst rectangle: the violator if disproved
    # (rectangle, lower, upper, truncation slack) tuples; the bounds run
    # over whole supports, so the slack is always 0.0
    trace: list

    @property
    def budget_used(self) -> int:
        """Bound evaluations spent: one per rectangle in the trace."""
        return len(self.trace)

    @property
    def proved(self) -> bool:
        return self.verdict == "proved"


def certify_risk(plan: TwoPropPlan, hyp: int, delta: float, tol: float = 1e-3,
                 budget: int = 20_000) -> RiskCertificate:
    """Branch-and-bound verdict: is Pr{reject ``hyp``} <= delta on its zone?

    Best-first on the upper bound over rectangles that meet the zone band
    ``plan.zone_band(hyp)``: if the worst remaining rectangle's upper
    bound clears delta the claim is proved; a lower bound above delta on a
    zone-intersecting rectangle disproves it.  Rectangles narrower than
    ``tol`` that still straddle delta end the search as inconclusive.
    Each bound is ``rejection_prob_bounds``'s, but the pmf bounds and
    rejection masks are computed once per call: split children share an
    axis range with their parent.
    """
    if not (0.0 <= delta <= 1.0):
        raise DomainError(f"delta must lie in [0, 1], got {delta}")
    band = plan.zone_band(hyp)
    dp = _IntervalDP(plan, hyp)
    trace: list = []
    heap: list = []

    def push(rect: Rectangle):
        lo, up = dp.bounds(rect)
        heapq.heappush(heap, (-up, len(trace), rect, lo))
        trace.append((rect, lo, up, 0.0))

    root = Rectangle(0.0, 1.0, 0.0, 1.0)
    if not root.intersects_band(*band):
        raise DomainError(f"hypothesis zone {band} is empty")
    push(root)

    # Every split keeps a child on the band, so the frontier never empties.
    explored = 0
    while True:
        neg_up, _, rect, lo = heapq.heappop(heap)
        up = -neg_up
        explored += 1
        # best-first: ``up`` is the largest upper bound on the frontier
        if up <= delta:
            verdict = "proved"
        elif lo > delta:
            verdict = "disproved"
        elif len(trace) >= budget or max(rect.widths) < tol:
            verdict = "inconclusive"
        else:
            for child in rect.split():
                if child.intersects_band(*band):
                    push(child)
            continue
        return RiskCertificate(verdict, hyp, explored, up, rect, trace)


def tune_two_prop(plan_family, deltas, tol: float = 1e-3, zeta_max: float = 1.0,
                  certify_tol: float = 1e-3, budget: int = 20_000):
    """Largest scale whose plan earns a proved certificate for every zone.

    Only a full set of proved verdicts counts as feasible; disproved and
    inconclusive both reject the candidate scale.
    """
    from .tuning import tune_zeta

    deltas = tuple(float(d) for d in deltas)

    def verify(plan):
        certs = []
        for i in range(plan.m):
            cert = certify_risk(plan, i, deltas[i], tol=certify_tol, budget=budget)
            certs.append(cert)
            if not cert.proved:
                return False, certs
        return True, certs

    return tune_zeta(plan_family, requirement=deltas, tol=tol,
                     zeta_max=zeta_max, verify=verify)
