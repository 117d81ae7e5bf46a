"""Multistage tests for the difference of two binomial proportions.

The parameter is theta = p_x - p_y.  Each stage takes (N_x, N_y) samples
of the two arms, forms score-interval limits for the difference, and the
stage grid over (count_x, count_y) is partitioned into per-hypothesis
decision regions plus a continuation region by the same inclusion rule as
the scalar plans: stop once some bracket "lower limit clears the zone
floor below, upper limit sits under the zone ceiling above" holds.  When
two consecutive brackets hold at once, the observed difference is
compared against the midpoint of the shared indifference zone.

The exact OC and the risk bounds run the forward recursion of
``ocexact.propagate`` over the 2-D count grid.  Risk verification over a
parameter rectangle uses truncated interval dynamic programming: per-stage
transition masses are bounded over the rectangle (binomial mass is
unimodal in p), paths are clipped to mean-range windows that lose at most
eta of probability per stage and side, and the resulting upper/lower
rejection bounds drive a branch-and-bound certificate over the hypothesis
zone.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .errors import DomainError, InfeasibleDesignError
from .models import Bernoulli
from .ocexact import propagate
from .plans import CONTINUE, TestOutcome, _take, stage_schedule

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


@dataclass(frozen=True, eq=False)
class TwoPropPlan:
    zone_lo: tuple[float, ...]   # lower endpoint of each indifference zone
    zone_hi: tuple[float, ...]   # upper endpoint of each indifference zone
    base_alphas: tuple[float, ...]
    base_betas: tuple[float, ...]
    zeta: float
    stages: tuple[TwoPropStage, ...]
    link_name: str = "identity"
    kind: str = "two-prop"

    @property
    def m(self) -> int:
        return len(self.zone_lo) + 1

    @property
    def s(self) -> int:
        return len(self.stages)

    @property
    def stage_sizes(self) -> tuple[tuple[int, int], ...]:
        return tuple((st.n_x, st.n_y) for st in self.stages)

    @property
    def alphas(self) -> tuple[float, ...]:
        return tuple(self.zeta * a for a in self.base_alphas)

    @property
    def betas(self) -> tuple[float, ...]:
        return tuple(self.zeta * b for b in self.base_betas)

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


def _bracket_sets(n_x, n_y, zone_lo, zone_hi, alphas, betas):
    """Per-boundary clearing sets over the (count_x, count_y) grid.

    above[j]: lower limit at the boundary's level clears the zone floor.
    below[j]: upper limit sits at or under the zone ceiling.
    """
    px = np.arange(n_x + 1) / n_x
    py = np.arange(n_y + 1) / n_y
    gx = px[:, None] + np.zeros((1, n_y + 1))
    gy = np.zeros((n_x + 1, 1)) + py[None, :]
    above, below = [], []
    for j in range(len(zone_lo)):
        lower, _ = newcombe_limits(gx, gy, n_x, n_y, alphas[j])
        _, upper = newcombe_limits(gx, gy, n_x, n_y, betas[j])
        above.append(lower >= zone_lo[j])
        below.append(upper <= zone_hi[j])
    return above, below


def _build_stage(n_x, n_y, zone_lo, zone_hi, alphas, betas) -> TwoPropStage:
    m = len(zone_lo) + 1
    above, below = _bracket_sets(n_x, n_y, zone_lo, zone_hi, alphas, betas)
    full = np.ones((n_x + 1, n_y + 1), dtype=bool)
    # bracket[b] accepts hypothesis b: needs the boundary below it cleared
    # upward and the boundary above it cleared downward.
    brackets = np.empty((m, n_x + 1, n_y + 1), dtype=bool)
    for b in range(m):
        lo_ok = above[b - 1] if b > 0 else full
        hi_ok = below[b] if b < m - 1 else full
        brackets[b] = lo_ok & hi_ok
    counts = brackets.sum(axis=0)
    if counts.max() > 2:
        raise InfeasibleDesignError(
            "more than two brackets hold at one grid point; zones are not "
            "strictly separated"
        )
    first = np.argmax(brackets, axis=0).astype(np.int8)
    decision = np.where(counts == 0, np.int8(CONTINUE), first)
    double = counts == 2
    if double.any():
        diff = (np.arange(n_x + 1) / n_x)[:, None] - (np.arange(n_y + 1) / n_y)[None, :]
        mids = np.array([(zone_lo[b] + zone_hi[b]) / 2.0 for b in range(m - 1)])
        # shared zone between hypotheses b and b+1 is boundary index b
        shared_mid = mids[np.clip(first, 0, m - 2)]
        decision = np.where(double & (diff > shared_mid), first + 1, decision)
    return TwoPropStage(n_x=n_x, n_y=n_y, decision=decision.astype(np.int8),
                        midpoint_used=double)


def _identity_link(n: int) -> int:
    return n


def _ties_nonempty(n_x, n_y, zone_lo, zone_hi, alphas, betas) -> bool:
    above, below = _bracket_sets(n_x, n_y, zone_lo, zone_hi, alphas, betas)
    return all((a & b).any() for a, b in zip(above, below))


def _any_decision(n_x, n_y, zone_lo, zone_hi, alphas, betas) -> bool:
    stage = _build_stage(n_x, n_y, zone_lo, zone_hi, alphas, betas)
    return bool((stage.decision != CONTINUE).any())


def build_two_prop_plan(
    zone_lo,
    zone_hi,
    zeta: float,
    base_alphas=None,
    base_betas=None,
    stage_ns=None,
    stages: int = 1,
    schedule: str = "geometric",
    link=None,
    max_stage_size: int = 400,
) -> TwoPropPlan:
    """Build a closed multistage difference-of-proportions plan.

    ``link`` maps each stage's first-arm size to the second-arm size
    (identity when omitted).  With ``stage_ns`` omitted the largest
    first-arm size is the smallest at which every boundary has a
    nonempty bracketing overlap, pushed further until the stage decides
    every grid point; the smallest is the first at which any decision
    exists; ``stages`` sizes are interpolated on ``schedule``.
    ``stage_ns`` may also give the first-arm sizes explicitly.
    """
    _check_two_prop_zones(zone_lo, zone_hi)
    nb = len(zone_lo)
    base_alphas = tuple(base_alphas) if base_alphas is not None else (1.0,) * nb
    base_betas = tuple(base_betas) if base_betas is not None else (1.0,) * nb
    if len(base_alphas) != nb or len(base_betas) != nb:
        raise DomainError("need one risk coefficient pair per zone boundary")
    for v in base_alphas + base_betas:
        if not (v > 0.0 and math.isfinite(v)):
            raise DomainError(f"risk coefficients must be positive, got {v}")
    top = max(max(base_alphas), max(base_betas))
    if not (0.0 < zeta < 1.0 / top):
        raise DomainError(f"zeta must lie in (0, {1.0 / top:g}), got {zeta}")
    link_fn = link if link is not None else _identity_link
    link_name = "identity" if link is None else getattr(link, "__name__", "custom")
    alphas = [zeta * a for a in base_alphas]
    betas = [zeta * b for b in base_betas]

    def sizes_for(n_x):
        n_y = int(link_fn(n_x))
        if n_y < 1:
            raise DomainError(f"arm link maps {n_x} to nonpositive size {n_y}")
        return n_x, n_y

    if stage_ns is None:
        ns_x = None
        for n in range(1, max_stage_size + 1):
            nx, ny = sizes_for(n)
            if _ties_nonempty(nx, ny, zone_lo, zone_hi, alphas, betas):
                ns_x = n
                break
        if ns_x is None:
            raise InfeasibleDesignError(
                f"no bracketing overlap within first-arm size {max_stage_size}"
            )
        # The overlap criterion does not by itself guarantee the stage
        # decides everywhere on the 2-D grid; push until it does.
        while True:
            nx, ny = sizes_for(ns_x)
            if not (_build_stage(nx, ny, zone_lo, zone_hi, alphas, betas).decision
                    == CONTINUE).any():
                break
            ns_x += 1
            if ns_x > max_stage_size:
                raise InfeasibleDesignError(
                    f"no closed final stage within first-arm size {max_stage_size}"
                )
        n1_x = ns_x
        for n in range(1, ns_x + 1):
            nx, ny = sizes_for(n)
            if _any_decision(nx, ny, zone_lo, zone_hi, alphas, betas):
                n1_x = n
                break
        xs = stage_schedule(n1_x, ns_x, stages, schedule)
    else:
        xs = tuple(int(n) for n in stage_ns)
        if any(b <= a for a, b in zip(xs, xs[1:])) or xs[0] < 1:
            raise DomainError("stage sizes must be strictly increasing positive integers")

    pairs = [sizes_for(n) for n in xs]
    for (ax, ay), (bx, by) in zip(pairs, pairs[1:]):
        if not (ax < bx and ay < by):
            raise DomainError("arm link must keep both arms strictly increasing")
    built = tuple(_build_stage(nx, ny, zone_lo, zone_hi, alphas, betas)
                  for nx, ny in pairs)
    if (built[-1].decision == CONTINUE).any():
        raise InfeasibleDesignError(
            f"final stage {pairs[-1]} leaves continuation points; increase the "
            "last stage size"
        )
    return TwoPropPlan(
        zone_lo=tuple(zone_lo), zone_hi=tuple(zone_hi),
        base_alphas=base_alphas, base_betas=base_betas, zeta=zeta,
        stages=built, link_name=link_name,
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
    return np.exp(_BERN.log_pmf_sum(n, ks, np.clip(ks / n, p_lo, p_hi)))


def _pmf_min(n: int, p_lo: float, p_hi: float) -> np.ndarray:
    """Pointwise minimum of the binomial pmf over [p_lo, p_hi], at an endpoint."""
    return np.minimum(_BERN.increment_pmf(n, p_lo)[0], _BERN.increment_pmf(n, p_hi)[0])


def _propagate(plan: TwoPropPlan, pmf):
    return propagate([((st.n_x, st.n_y), st.decision) for st in plan.stages], pmf)


def _window_counts(theta_lo: float, theta_hi: float, n: int, eta: float):
    """Integer count window for a mean window from the truncation bounds."""
    a, _ = truncation_bounds(theta_lo, n, eta)
    _, b = truncation_bounds(theta_hi, n, eta)
    return int(round(a * n)), int(round(b * n))


def _windowed_rejection(plan: TwoPropPlan, hyp: int, ranges, windows, pmf_bound,
                        eta: float) -> float:
    """Interval-DP mass of the windowed paths that reject ``hyp``.

    Each arm's increments take the pmf ``pmf_bound(m, lo, hi)`` over its
    parameter range in ``ranges``, and its counts are cut to the window
    ``_window_counts(lo, hi, n, eta)`` of its pair in ``windows``.
    """
    total = 0.0
    for idx, state, labels, _ in _propagate(
            plan, lambda axis, m: (pmf_bound(m, *ranges[axis]), 0.0)):
        stage = plan.stages[idx]
        for axis, (n, (lo, hi)) in enumerate(zip((stage.n_x, stage.n_y), windows)):
            a, b = _window_counts(lo, hi, n, eta)
            cells = state.swapaxes(0, axis)  # a view: zero the counts outside the window
            cells[:a] = 0.0
            cells[b + 1:] = 0.0
        total += float(state[(labels != CONTINUE) & (labels != hyp)].sum())
    return total


def rejection_prob_bounds(plan: TwoPropPlan, hyp: int, rect: Rectangle,
                          eta: float = 0.01) -> tuple[float, float]:
    """Sandwich bounds on Pr{accept something other than ``hyp``} over ``rect``.

    Upper: 2 s eta plus the interval-DP mass of windowed rejection paths,
    with per-stage windows built from the rectangle's own endpoints.
    Lower: the same path sum under the swapped (inner) windows, no eta
    term.  Both passes bound every transition mass over the rectangle, so
    the sandwich holds at every parameter point inside it.
    """
    if not (0 <= hyp < plan.m):
        raise DomainError(f"hypothesis index out of range: {hyp}")
    ranges = ((rect.px_lo, rect.px_hi), (rect.py_lo, rect.py_hi))
    inner = tuple((hi, lo) for lo, hi in ranges)
    upper = _windowed_rejection(plan, hyp, ranges, ranges, _pmf_max, eta) + 2.0 * plan.s * eta
    lower = _windowed_rejection(plan, hyp, ranges, inner, _pmf_min, eta)
    return min(1.0, max(0.0, lower)), min(1.0, upper)


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
    for idx, state, labels, _ in _propagate(
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
    budget_used: int                  # bound evaluations spent
    explored: int                     # rectangles examined
    max_upper: float                  # largest upper bound seen on the zone
    witness: Rectangle | None         # violator (disproved) or widest straddler
    trace: list                       # (rectangle, lower, upper, eta) tuples

    @property
    def proved(self) -> bool:
        return self.verdict == "proved"


def certify_risk(plan: TwoPropPlan, hyp: int, delta: float,
                 zone_band: tuple[float, float] | None = None,
                 eta: float = 0.01, tol: float = 1e-3,
                 budget: int = 20_000, eta_min: float = 1e-5) -> RiskCertificate:
    """Branch-and-bound verdict: is Pr{reject ``hyp``} <= delta on its zone?

    Best-first on the upper bound: if the worst remaining rectangle's
    upper bound clears delta the claim is proved; a lower bound above
    delta on a zone-intersecting rectangle disproves it.  A rectangle
    whose sandwich gap is dominated by the truncation slack is
    re-evaluated with a halved eta before being split; rectangles
    narrower than ``tol`` that still straddle delta end the search as
    inconclusive.
    """
    if not (0.0 <= delta <= 1.0):
        raise DomainError(f"delta must lie in [0, 1], got {delta}")
    band = plan.zone_band(hyp) if zone_band is None else (float(zone_band[0]),
                                                          float(zone_band[1]))
    evals = 0
    explored = 0
    max_upper = 0.0
    trace: list = []
    heap: list = []
    serial = 0

    def push(rect: Rectangle, cur_eta: float):
        nonlocal evals, serial, max_upper
        evals += 1
        lo, up = rejection_prob_bounds(plan, hyp, rect, cur_eta)
        max_upper = max(max_upper, up)
        trace.append((rect, lo, up, cur_eta))
        heapq.heappush(heap, (-up, serial, rect, lo, cur_eta))
        serial += 1

    root = Rectangle(0.0, 1.0, 0.0, 1.0)
    if not root.intersects_band(*band):
        raise DomainError(f"hypothesis zone {band} is empty")
    push(root, eta)

    while heap:
        neg_up, _, rect, lo, cur_eta = heapq.heappop(heap)
        up = -neg_up
        explored += 1
        if up <= delta:
            # best-first: every remaining rectangle is at least as good
            return RiskCertificate("proved", hyp, evals, explored, max_upper,
                                   rect, trace)
        if lo > delta:
            return RiskCertificate("disproved", hyp, evals, explored, max_upper,
                                   rect, trace)
        if evals >= budget:
            return RiskCertificate("inconclusive", hyp, evals, explored,
                                   max_upper, rect, trace)
        slack = 2.0 * plan.s * cur_eta
        if slack > 0.5 * (up - delta) and cur_eta > eta_min:
            push(rect, 0.5 * cur_eta)
            continue
        if max(rect.widths) < tol:
            return RiskCertificate("inconclusive", hyp, evals, explored,
                                   max_upper, rect, trace)
        for child in rect.split():
            if child.intersects_band(*band):
                push(child, cur_eta)
    # Frontier exhausted: nothing on the zone exceeded delta.
    return RiskCertificate("proved", hyp, evals, explored, max_upper, None, trace)


def tune_two_prop(plan_family, deltas, tol: float = 1e-3, zeta_max: float = 1.0,
                  eta: float = 0.01, certify_tol: float = 1e-3,
                  budget: int = 20_000):
    """Largest scale whose plan earns a proved certificate for every zone.

    Only a full set of proved verdicts counts as feasible; disproved and
    inconclusive both reject the candidate scale.
    """
    from .tuning import tune_zeta

    deltas = tuple(float(d) for d in deltas)

    def verify(plan):
        certs = []
        for i in range(plan.m):
            cert = certify_risk(plan, i, deltas[i], eta=eta, tol=certify_tol,
                                budget=budget)
            certs.append(cert)
            if not cert.proved:
                return False, certs
        return True, certs

    return tune_zeta(plan_family, requirement=deltas, tol=tol,
                     zeta_max=zeta_max, verify=verify)
