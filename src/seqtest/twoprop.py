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

The exact OC and the risk bounds run this module's forward recursion
over the grid of both arms' counts (``_propagate``), and the bounds rest
on exact values at single points only.  Per hypothesis, where every stage's
decision regions are monotone in the two counts (``_monotone``), a
coupling argument makes each side's wrong acceptance monotone in p_x and
p_y, so exact values at two opposite rectangle corners bound the
rejection over the rectangle (the paper's use of the monotonicity of the
OC function).  Otherwise the exact value at the rectangle's centre bounds
it, widened by a Fisher-Rao radius (``rejection_prob_bounds``).  Either
way the bounds hold at every point of the rectangle and drive a
branch-and-bound certificate over the hypothesis zone.  One certificate
computes each point value, pmf and stage mask once and reuses it across
its rectangles.
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
from .plans import (TestOutcome, _ZonedPlan, _check_stage_count, _levels, _named, _take,
                    check_stage_sizes, stage_schedule)

__all__ = [
    "Rectangle", "TwoPropStage", "TwoPropPlan", "RiskCertificate",
    "newcombe_limits", "build_two_prop_plan",
    "run_two_prop", "exact_oc", "rejection_prob_bounds", "certify_risk",
    "tune_two_prop",
]

_BERN = Bernoulli()
# Label of an undecided cell in a stage's decision grid.
CONTINUE = -1


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
    """A multistage plan over the grid of both arms' counts.  It refuses,
    naming the field: zones and risk levels outside the builder's domain,
    stage sizes that do not strictly increase on each arm, and an open final
    grid.  Grid shapes are not checked against the sizes."""

    kind: ClassVar[str] = "two-prop"
    zone_lo: tuple[float, ...]   # lower endpoint of each indifference zone
    zone_hi: tuple[float, ...]   # upper endpoint of each indifference zone
    base_alphas: tuple[float, ...]
    base_betas: tuple[float, ...]
    zeta: float
    stages: tuple[TwoPropStage, ...]

    def __post_init__(self):
        _named("zone_lo, zone_hi", _check_two_prop_zones, self.zone_lo, self.zone_hi)
        _named("base_alphas, base_betas, zeta", _levels, self.base_alphas, self.base_betas,
               self.zeta, len(self.zone_lo))
        check_stage_sizes(self.stage_sizes, ("n_x", "n_y"))
        last = self.stages[-1]
        if not last.closed:
            size = last.n_x if last.n_x == last.n_y else (last.n_x, last.n_y)
            raise InfeasibleDesignError(f"final stage of size {size} leaves continuation "
                                        "points; increase the last stage size",
                                        f"stages[{len(self.stages) - 1}].decision")

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
    ns = tuple(stage_ns)
    check_stage_sizes(ns)
    ns = tuple(map(int, ns))
    built = tuple(_build_stage(n, zone_lo, zone_hi, alphas, betas)[0] for n in ns)
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
        kx += _take(it_x, used_x, stage.n_x, _BERN, "first-arm")
        ky += _take(it_y, used_y, stage.n_y, _BERN, "second-arm")
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


def _convolve(state: np.ndarray, probs: np.ndarray, axis: int) -> np.ndarray:
    """Full convolution of a 2-D ``state`` with ``probs`` along one axis.

    The state is multiplied by the banded (Toeplitz) matrix
    ``T[i, j] = probs[i - j]``: ``T @ state`` along axis 0 and
    ``state @ T.T`` along axis 1.
    """
    n_in = state.shape[axis]
    n_out = n_in + len(probs) - 1
    # Row j of ``band`` starts ``probs`` at column j: each row of the
    # buffer is one entry longer than a row of the view, so the view's
    # rows shift right by one while the buffer's zeros fill the rest.
    buf = np.zeros((n_in, n_out + 1))
    buf[:, :len(probs)] = probs
    band = buf.reshape(-1)[:n_in * n_out].reshape(n_in, n_out)   # T.T
    return band.T @ state if axis == 0 else state @ band


def _propagate(plan: TwoPropPlan, pmf):
    """Run the forward recursion over the grid of both arms' counts.

    ``pmf(axis, m)`` gives the pmf of an m-sample increment on arm ``axis``
    (0 for x), asked once per distinct (axis, m); each is convolved in by
    one banded matrix product.  Yields (stage index, state), then clears
    the cells the stage decides.  Mass left after the last stage raises
    ``InfeasibleDesignError``.
    """
    pmfs = {}
    state = np.array([[1.0]])
    prev = (0, 0)
    for idx, st in enumerate(plan.stages):
        for axis, n in enumerate((st.n_x, st.n_y)):
            m = n - prev[axis]
            probs = pmfs.get((axis, m))
            if probs is None:
                probs = pmfs[axis, m] = pmf(axis, m)
            state = _convolve(state, probs, axis)
        prev = st.n_x, st.n_y
        yield idx, state
        state[st.decision != CONTINUE] = 0.0
    if state.any():
        raise InfeasibleDesignError("plan leaves mass undecided after its last stage")


def _monotone(plan: TwoPropPlan, b: int) -> bool:
    """True when boundary ``b``, between hypotheses b-1 and b, is monotone.

    At every stage the cells deciding a hypothesis >= b must form an
    up-set in count_x and a down-set in count_y, and the cells deciding one
    below b the reverse: the three-way label (below b, undecided, b or
    above) never falls as count_x grows and never rises as count_y grows.
    Couple each arm's draws as U < p.  A path with larger p_x or smaller
    p_y then has counts at least as far toward "b or above" at every stage,
    so it never decides below b where the original went on and it decides
    b or above wherever the original did: Pr{decide >= b} rises with p_x
    and falls with p_y, and Pr{decide < b} does the reverse.
    """
    for st in plan.stages:
        side = np.where(st.decision == CONTINUE, 0, np.where(st.decision < b, -1, 1))
        if (np.diff(side, axis=0) < 0).any() or (np.diff(side, axis=1) > 0).any():
            return False
    return True


class _RejectionBounds:
    """Bounds on Pr{reject ``hyp``} over rectangles for one plan, inputs computed once.

    Every bound comes from exact values at single points (``_masses``).
    ``path`` is "corner" when the boundaries on both sides of ``hyp`` are
    monotone (``_monotone``).  Then Pr{accept below hyp} is largest at the
    rectangle corner B = (px_lo, py_hi) and smallest at A = (px_hi, py_lo),
    Pr{accept above hyp} the reverse, so exact values at the two corners
    bound the rejection over the whole rectangle.  Otherwise ``path`` is
    "radius": the exact rejection at the rectangle's centre in angle
    coordinates, widened by the Fisher-Rao radius.  Point values (split
    children share two corners with their parent), pmfs per (m, p) and the
    stage masks are kept for the life of the instance.  ``certify_risk``
    keeps one for its whole search; ``rejection_prob_bounds`` makes a fresh
    one per call.
    """

    def __init__(self, plan: TwoPropPlan, hyp: int):
        if not (0 <= hyp < plan.m):
            raise DomainError(f"hypothesis index out of range: {hyp}")
        self.plan = plan
        self._below = [(st.decision != CONTINUE) & (st.decision < hyp) for st in plan.stages]
        self._above = [st.decision > hyp for st in plan.stages]
        self._pmfs: dict = {}
        self._points: dict = {}
        self.path = ("corner" if all(_monotone(plan, b) for b in (hyp, hyp + 1) if 0 < b < plan.m)
                     else "radius")

    def _pmf(self, m: int, p: float) -> np.ndarray:
        key = (m, p)
        if key not in self._pmfs:
            self._pmfs[key] = _BERN.increment_pmf(m, p)[0]
        return self._pmfs[key]

    def _masses(self, px: float, py: float) -> tuple[float, float]:
        """Exact (mass accepting a hypothesis below ``hyp``, mass accepting
        one above) at the point (px, py)."""
        key = (px, py)
        if key not in self._points:
            below = above = 0.0
            for idx, state in _propagate(self.plan, lambda axis, m: self._pmf(m, key[axis])):
                below += float(state[self._below[idx]].sum())
                above += float(state[self._above[idx]].sum())
            self._points[key] = below, above
        return self._points[key]

    def corner(self, rect: Rectangle) -> tuple[float, float]:
        """(lower, upper) from the exact values at corners A and B; sound
        only on the corner path."""
        below_a, above_a = self._masses(rect.px_hi, rect.py_lo)
        below_b, above_b = self._masses(rect.px_lo, rect.py_hi)
        return min(1.0, below_a + above_b), min(1.0, below_b + above_a)

    def radius(self, rect: Rectangle) -> tuple[float, float]:
        """(lower, upper) from the exact rejection at the centre of
        ``rect`` in angle coordinates, widened by the Fisher-Rao radius;
        sound on every plan."""
        u0, u1, v0, v1 = (math.asin(math.sqrt(p))
                          for p in (rect.px_lo, rect.px_hi, rect.py_lo, rect.py_hi))
        n_x, n_y = self.plan.stage_sizes[-1]
        r = 0.5 * math.sqrt(n_x * (u1 - u0) ** 2 + n_y * (v1 - v0) ** 2)
        rej = sum(self._masses(math.sin((u0 + u1) / 2) ** 2, math.sin((v0 + v1) / 2) ** 2))
        angle = math.asin(math.sqrt(min(1.0, rej)))
        return math.sin(max(0.0, angle - r)) ** 2, math.sin(min(math.pi / 2, angle + r)) ** 2

    def bounds(self, rect: Rectangle) -> tuple[float, float]:
        """(lower, upper) of ``rejection_prob_bounds``."""
        return self.corner(rect) if self.path == "corner" else self.radius(rect)


def rejection_prob_bounds(plan: TwoPropPlan, hyp: int,
                          rect: Rectangle) -> tuple[float, float]:
    """Sandwich bounds on Pr{accept something other than ``hyp``} over ``rect``.

    Where the boundaries on both sides of ``hyp`` are monotone at every
    stage (the cells deciding a higher hypothesis form an up-set in
    count_x and a down-set in count_y, the lower ones the reverse), the
    acceptance of the hypotheses below ``hyp`` falls with p_x and rises
    with p_y, and of those above it the reverse.  The bounds are then sums
    of exact values at the corners (px_hi, py_lo) and (px_lo, py_hi).
    Otherwise, writing A = arcsin sqrt(P) for the rejection P, they are
    sin^2(A -/+ r), with A -/+ r clipped to [0, pi/2], from the exact A at
    the rectangle's centre in the arm angles u = arcsin sqrt(p_x) and
    v = arcsin sqrt(p_y).  The radius r = sqrt(n_x h_u^2 + n_y h_v^2), with
    h the half-widths in angle and (n_x, n_y) the last stage's sizes, is
    how far A can move (sequential Cramer-Rao; Rao, 1945; Wolfowitz,
    1947): dP is the covariance of the event with the stopped score, whose
    variance is 4 E[N] per arm angle with E[N] at most the last stage's
    size, so Cauchy-Schwarz gives |dA| <= sqrt(E[N_x] du^2 + E[N_y] dv^2).
    Either way each bound holds at every parameter point inside the
    rectangle, and at a point rectangle both equal the exact rejection.
    """
    return _RejectionBounds(plan, hyp).bounds(rect)


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
    for idx, state in _propagate(plan, lambda axis, m: _BERN.increment_pmf(m, ps[axis])[0]):
        stage = plan.stages[idx]
        stopped = 0.0
        for b in range(plan.m):
            mass = float(state[stage.decision == b].sum())
            accept[b] += mass
            stopped += mass
        asn_x += stage.n_x * stopped
        asn_y += stage.n_y * stopped
    return accept, asn_x, asn_y


@dataclass
class RiskCertificate:
    verdict: str                      # "proved" | "disproved" | "inconclusive"
    hypothesis: int
    explored: int                     # rectangles examined
    max_upper: float                  # largest upper bound on the final frontier
    witness: Rectangle                # frontier's worst rectangle: the violator if disproved
    # (rectangle, lower, upper, truncation slack) tuples; both bounds hold
    # over the whole rectangle, so the slack is always 0.0
    trace: list
    bounds: str                       # "corner" | "radius": how rectangles were bounded

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
    Each bound is ``rejection_prob_bounds``'s, from exact values at two
    corners where the plan's boundaries around ``hyp`` are monotone and
    from the exact value at the centre widened by the Fisher-Rao radius
    otherwise; ``bounds`` names the path.  Point values, pmfs and
    rejection masks are computed once per call: split children share two
    corners with their parent.
    """
    if not (0.0 <= delta <= 1.0):
        raise DomainError(f"delta must lie in [0, 1], got {delta}")
    band = plan.zone_band(hyp)
    dp = _RejectionBounds(plan, hyp)
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
        return RiskCertificate(verdict, hyp, explored, up, rect, trace, dp.path)


def tune_two_prop(plan_family, deltas, tol: float = 1e-3, zeta_max: float = 1.0,
                  certify_tol: float = 1e-3, budget: int = 20_000):
    """A feasible scale at a feasibility edge found by bisection (``tune_zeta``).

    Feasible means a proved certificate for every zone: a disproved or an
    inconclusive verdict rejects the candidate scale.
    """
    from .tuning import tune_zeta

    deltas = tuple(float(d) for d in deltas)

    def verify(plan):
        if len(deltas) != plan.m:
            raise DomainError(f"need one rejection budget per hypothesis ({plan.m})")
        certs = []
        for i in range(plan.m):
            cert = certify_risk(plan, i, deltas[i], tol=certify_tol, budget=budget)
            certs.append(cert)
            if not cert.proved:
                return False, certs
        return True, certs

    return tune_zeta(plan_family, requirement=deltas, tol=tol,
                     zeta_max=zeta_max, verify=verify)
