"""Construction and execution of multistage test plans.

A plan partitions the parameter line into ``m`` hypotheses by ``m - 1``
indifference zones ``(zone_lo[i], zone_hi[i])``.  At each stage the sample
mean is compared against per-stage acceptance windows derived from the
confidence limits: hypothesis ``i`` (counting from 0, lowest parameter
range first) is accepted at stage ``l`` when the decision variable equals
``i + 1``, i.e. when the mean falls in the half-open window
``(g[l][i], f[l][i+1]]``.

Window edges come from three support sets per zone boundary ``i``:

* the reject-low set, where the lower limit at per-stage level
  ``zeta * base_alphas[i]`` clears ``zone_lo[i]``;
* the accept set, where the upper limit at level ``zeta * base_betas[i]``
  drops below ``zone_hi[i]``;
* their intersection, the tie region, where both crossings hold and a
  preset policy splits the window at a cut value ``c``.

The one-sided two-hypothesis case recovers the classical sequential rule:
continue until the lower limit clears ``theta0`` (reject) or the upper
limit drops below ``theta1`` (accept), with the likelihood-ratio tie rule
by default.  That rule cuts a tie region on the SPRT's count line,
``models.lr_count``, where the endpoints' log ratio meets log(beta / alpha).

Both crossing sets are intervals of the support, so a stage is fixed by
two counts per boundary: the first reject count ``min_a(n)`` and the last
accept count ``max_b(n)``.  A stage rule is made in two steps:
``_crossing_counts`` finds the counts by a sectioning search on the count,
for a whole array of stage sizes at once, and ``_rule_from_counts`` turns
one column of that table into the rule's ties, cuts and windows, never
tabulating the support.  ``build_stage_rule`` takes both steps for one
size; a plan build computes each table once over many sizes.

Plans are closed: the final stage size is chosen (or validated) so that
every count the model reaches at it decides (``stage_is_closed``, read
from the stage's labels like the OC kernel's ``continue_spans``), hence
the sample size never exceeds ``stage_ns[-1]``.  The searches tabulate
the two counts over blocks of sizes (1-16, 17-32, 33-64, ...) up to their
horizon, so their cost tracks the answer rather than the horizon, and
each answer is the one a size-by-size scan gives.  The final size is the
first whose counts close the stage (``_closes``): no count between the
accept and reject-low sets, or, where ties are required, the two sets
overlapping at every boundary.  It makes no rule.  The first size is the
first at which some crossing count lies on the support and the rule made
there has a window.  Every rule of the plan is then made from one more
table over its sizes, which the final ``stage_is_closed`` check reads.

Inside a tuning run (``_size_memo``) the final-size search starts warm.
For exact and Chernoff limits a crossing predicate compares a level-free
value (a tail, or n times a log rate) with the level, so ``min_a`` never
rises as the alpha level grows and ``max_b`` never falls as the beta level
grows, in floating point too.  A stage closed at some levels is then
closed at every componentwise larger levels.  So a final size found at
larger levels bounds the answer from below, one found at smaller levels
bounds it from above, and the search covers only the sizes between: its
answer is still the one a scan from 1 gives.
For fully sequential one-sided plans, ``sample_bound`` gives the analytic
cap derived from the large-deviation rate at the zone midpoint.
"""

from __future__ import annotations

import math
import sys
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from functools import cached_property
from typing import ClassVar, Iterable, Iterator, Sequence

import numpy as np
from .conflimits import ExactLimits, ChernoffLimits
from .errors import DomainError, InfeasibleDesignError, StreamExhaustedError
from .models import Bernoulli, Poisson, _count_floor, _poisson_isf, lr_count

__all__ = [
    "TIEBREAK_LIKELIHOOD_RATIO",
    "TIEBREAK_ALWAYS_ACCEPT",
    "TIEBREAK_ALWAYS_REJECT",
    "C_POLICY_SUPPORT_MIDPOINT",
    "C_POLICY_ZONE_MIDPOINT",
    "StageRule",
    "MultiHypPlan",
    "OneSidedPlan",
    "TestOutcome",
    "sample_bound",
    "build_stage_rule",
    "build_multihyp_plan",
    "build_one_sided_plan",
    "stage_schedule",
    "decision_variable",
    "run_plan",
]

TIEBREAK_LIKELIHOOD_RATIO = "likelihood-ratio"
TIEBREAK_ALWAYS_ACCEPT = "always-accept"
TIEBREAK_ALWAYS_REJECT = "always-reject"
_TIEBREAKS = (TIEBREAK_LIKELIHOOD_RATIO, TIEBREAK_ALWAYS_ACCEPT, TIEBREAK_ALWAYS_REJECT)

_SCHEDULES = ("arithmetic", "geometric")

C_POLICY_SUPPORT_MIDPOINT = "support-midpoint"
C_POLICY_ZONE_MIDPOINT = "zone-midpoint"
_C_POLICIES = (C_POLICY_SUPPORT_MIDPOINT, C_POLICY_ZONE_MIDPOINT)

# Largest count a Poisson crossing search brackets; beyond it float64 no
# longer holds every integer.
_MAX_COUNT = 2**53
# Counts one predicate call probes in the crossing-edge searches.  A call's
# fixed cost is about that of this many exact tails, and one call settles a
# single Bernoulli stage of up to 254 samples.
_PROBES = 256
# Stage sizes 1..16 form the first block of the stage-size search, and each
# later block doubles the sizes it covers.
_FIRST_BLOCK = 16
# Label of an undecided sum cell in a stage's decision array.
CONTINUE = -1
# Final stage sizes found in the open tuning run: per search key, a list of
# ((alphas, betas), final size) records.  None outside a tuning run.
_SIZE_MEMO: ContextVar[dict | None] = ContextVar("seqtest_size_memo", default=None)


@dataclass(frozen=True)
class StageRule:
    """Decision thresholds of one stage, in both mean and sum-count units.

    ``windows[i]`` (0-based over decisions 1..m) is the inclusive integer
    sum-count range deciding ``D = i + 1``, or None when that decision is
    unreachable at this stage.  An upper bound of None means unbounded
    (Poisson top window).  ``ties[i]`` marks the overlap region of zone
    boundary ``i + 1`` where both crossings held and the cut ``c``
    resolved the decision.
    """

    n: int
    f: tuple[float, ...]
    g: tuple[float, ...]
    windows: tuple[tuple[int, int | None] | None, ...]
    ties: tuple[tuple[int, int] | None, ...]

    @cached_property
    def labels(self) -> np.ndarray:
        """Decision per sum count, int8: the 0-based hypothesis or CONTINUE.

        The array ends one past the last finite window edge, and its last
        entry also holds for every count above it.
        """
        spans = [(i, win) for i, win in enumerate(self.windows) if win is not None]
        top = max([0] + [lo if hi is None else hi + 1 for _, (lo, hi) in spans])
        labels = np.full(top + 1, CONTINUE, dtype=np.int8)
        for i, (lo, hi) in reversed(spans):  # the first window holding k decides it
            labels[lo:None if hi is None else hi + 1] = i
        labels.setflags(write=False)  # cached and shared with every caller
        return labels

    def decision_for_sum(self, k: int) -> int:
        """Decision variable for sum count k: 0 = continue, else i in 1..m."""
        labels = self.labels
        if k < 0:
            return 0
        return labels.item(k if k < len(labels) else -1) + 1

    def tie_for_sum(self, k: int) -> bool:
        for tie in self.ties:
            if tie is not None and tie[0] <= k <= tie[1]:
                return True
        return False


def _undecided(rule: StageRule, model) -> tuple[np.ndarray, int | None]:
    """The ``CONTINUE`` counts of ``rule.labels`` that the model reaches at ``rule.n``.

    Returns those counts inside the labels array and the last undecided
    count.  The last label holds for every count above the array, so when
    it continues the last undecided count is the support's end (None for
    an unbounded support).  -1 when every reachable count decides.
    """
    top = model.sum_upper(rule.n)
    labels = rule.labels
    cells = np.flatnonzero(labels[:None if top is None else top + 1] == CONTINUE)
    if not len(cells):
        return cells, -1
    last = int(cells[-1])
    return cells, top if last == len(labels) - 1 else last


@dataclass(frozen=True)
class TestOutcome:
    stage_index: int
    sample_count: int
    accepted_index: int
    terminal_estimate: float
    tie_occurred: bool
    forced: bool = False  # decision imposed by a sample cap, not a crossing


class _ZonedPlan:
    """Hypothesis and stage counts and risk levels of one- and two-sample plans."""

    @property
    def m(self) -> int:
        return len(self.zone_lo) + 1

    @property
    def s(self) -> int:
        return len(self.stages)

    @property
    def alphas(self) -> tuple[float, ...]:
        """Effective per-stage lower-limit levels per zone boundary."""
        return tuple(self.zeta * a for a in self.base_alphas)

    @property
    def betas(self) -> tuple[float, ...]:
        return tuple(self.zeta * b for b in self.base_betas)


@dataclass(frozen=True)
class MultiHypPlan(_ZonedPlan):
    """A fully materialized multistage plan over m hypotheses."""

    kind: ClassVar[str] = "multi"
    model: object
    family: object
    zone_lo: tuple[float, ...]
    zone_hi: tuple[float, ...]
    base_alphas: tuple[float, ...]
    base_betas: tuple[float, ...]
    zeta: float
    stages: tuple[StageRule, ...]
    c_policy: str = C_POLICY_SUPPORT_MIDPOINT

    @property
    def stage_ns(self) -> tuple[int, ...]:
        return tuple(st.n for st in self.stages)

    @cached_property
    def continue_spans(self) -> tuple[tuple[int, int | None, bool], ...]:
        """Each stage's undecided span over the counts its model reaches.

        A span is (lo, hi, holes): the first and last ``CONTINUE`` count
        of ``StageRule.labels`` (hi None when the last label, which holds
        for every count above it, continues on an unbounded support) and
        whether a decided count lies between them.  (0, -1, False) when
        every count is decided.
        """
        spans = []
        for rule in self.stages:
            cells, last = _undecided(rule, self.model)
            if not len(cells):
                spans.append((0, -1, False))
                continue
            lo = int(cells[0])
            spans.append((lo, last, int(cells[-1]) - lo + 1 > len(cells)))
        return tuple(spans)


@dataclass(frozen=True)
class OneSidedPlan(MultiHypPlan):
    """Two-hypothesis plan for H0: theta <= theta0 versus H1: theta >= theta1."""

    kind: ClassVar[str] = "one-sided"
    c_policy: str = field(init=False)
    tiebreak: str = TIEBREAK_LIKELIHOOD_RATIO

    def __post_init__(self):
        object.__setattr__(self, "c_policy", _tie_c_policy(self.tiebreak))

    @property
    def theta0(self) -> float:
        return self.zone_lo[0]

    @property
    def theta1(self) -> float:
        return self.zone_hi[0]

    @property
    def alpha(self) -> float:
        return self.base_alphas[0]

    @property
    def beta(self) -> float:
        return self.base_betas[0]

    @cached_property
    def sample_cap(self) -> int | None:
        """The fully sequential test's hard sample bound, or None for limit
        families it does not hold for."""
        return _sample_cap(self.model, self.family, self.theta0, self.theta1, *self.alphas,
                           *self.betas)


def _tie_c_policy(tiebreak: str) -> str:
    """A one-sided plan's c policy: the tiebreak, or the support midpoint under
    the likelihood-ratio rule, which reads no c policy."""
    return C_POLICY_SUPPORT_MIDPOINT if tiebreak == TIEBREAK_LIKELIHOOD_RATIO else tiebreak


def sample_bound(model, theta0: float, theta1: float, zeta_alpha: float, zeta_beta: float) -> int:
    """Hard sample-size cap for the fully sequential one-sided test.

    Largest integer strictly below
    max(ln(zeta_alpha) / ln C(mid, theta0), ln(zeta_beta) / ln C(mid, theta1))
    where C is the Chernoff function and mid the zone midpoint.
    """
    model.validate_theta(theta0)
    model.validate_theta(theta1)
    if not theta0 < theta1:
        raise DomainError(f"need theta0 < theta1, got {theta0} >= {theta1}")
    for d in (zeta_alpha, zeta_beta):
        if not (0.0 < d < 1.0):
            raise DomainError(f"effective risk level must lie in (0, 1), got {d}")
    mid = 0.5 * (theta0 + theta1)
    lc0 = float(model.log_chernoff(mid, theta0))
    lc1 = float(model.log_chernoff(mid, theta1))
    if lc0 >= 0.0 or lc1 >= 0.0:
        raise DomainError("degenerate zone: rate function is 1 at the midpoint")
    bound = max(math.log(zeta_alpha) / lc0, math.log(zeta_beta) / lc1)
    return max(1, math.ceil(bound) - 1)


def _sample_cap(model, family, theta0, theta1, zeta_alpha, zeta_beta) -> int | None:
    """``sample_bound`` for exact and Chernoff limits; None for approximate ones."""
    if isinstance(family, (ExactLimits, ChernoffLimits)):
        return sample_bound(model, theta0, theta1, zeta_alpha, zeta_beta)
    return None


def _first_true(pred, ns, hi):
    """Per stage size, the smallest count k in [0, hi] where pred(n, k) holds.

    ``pred`` must be monotone in k (false, then true) and hold at ``hi``,
    which may be a virtual count one past a bounded support.  Each round
    probes evenly spaced counts inside every unresolved bracket and keeps
    the section where pred turns true: bisection when many sizes share a
    call, wider sections when few do, about ``_PROBES`` counts per call.
    """
    hi = np.array(hi, dtype=np.int64)
    lo = np.full_like(hi, -1)
    act = np.flatnonzero(hi - lo > 1)
    while act.size:
        a_lo, a_hi = lo[act], hi[act]
        span = (a_hi - a_lo)[:, None]
        sections = min(max(2, _PROBES // act.size), int(span.max()))
        # Section edges a_lo + ceil(j * span / sections), j = 0 .. sections,
        # with the inner ones kept below a_hi: these probe every count
        # strictly inside a bracket that spans at most ``sections``.
        j = np.arange(sections + 1)
        edges = a_lo[:, None] + np.minimum((j * span + sections - 1) // sections, span - 1)
        edges[:, -1] = a_hi
        probes = edges[:, 1:-1]
        hit = pred(np.repeat(ns[act], sections - 1), probes.ravel()).reshape(probes.shape)
        first = np.where(hit.any(axis=1), hit.argmax(axis=1), sections - 1)
        rows = np.arange(act.size)
        lo[act] = edges[rows, first]
        hi[act] = edges[rows, first + 1]
        act = act[hi[act] - lo[act] > 1]
    return hi


def _poisson_bracket(pred, ns, start):
    """Counts where pred holds, doubling ``start`` (a first guess) until it does."""
    hi = np.array(start, dtype=np.int64)
    todo = np.arange(len(ns))
    while todo.size:
        if hi[todo].max() > _MAX_COUNT:
            raise InfeasibleDesignError(
                f"no crossing below {_MAX_COUNT} counts at stage size {int(ns[todo[0]])}")
        hit = pred(ns[todo], hi[todo])
        todo = todo[~hit]
        hi[todo] = 2 * hi[todo] + 1
    return hi


def _poisson_guess(q, mus):
    """Smallest k with Pr{Poisson(mu) >= k} <= q, per mu: where an exact
    crossing search starts bracketing.  Where 1 - q rounds to 1, the quantile
    is out of reach and ceil(mu) + 1 serves as the first guess."""
    if not 1.0 - q < 1.0:
        return np.ceil(mus).astype(np.int64) + 1
    return _poisson_isf(q, mus) + 1


def _crossing_counts(model, family, ns, zone_lo, zone_hi, alphas, betas):
    """First reject count and last accept count of every zone boundary.

    Returns ``(min_a, max_b)``, integer arrays of shape (boundaries,
    len(ns)).  ``min_a[i, j]`` is the smallest sum count at stage size
    ``ns[j]`` whose lower limit at level ``alphas[i]`` clears
    ``zone_lo[i]``, or ``ns[j] + 1`` when no Bernoulli count does (every
    Poisson stage has one).  ``max_b[i, j]`` is the largest count whose
    upper limit at level ``betas[i]`` drops to ``zone_hi[i]``, or -1.
    Both crossing sets are intervals of the support (the reject-low set an
    up-set, the accept set a down-set), so each edge is found by a
    sectioning search on the count (``_first_true``).
    """
    ns = np.asarray(ns, dtype=np.int64)
    bounded = model.sum_upper(1) is not None
    min_a = np.empty((len(zone_lo), len(ns)), dtype=np.int64)
    max_b = np.empty_like(min_a)
    for i in range(len(zone_lo)):
        def reject(n, k, i=i):
            return family.support_lower_crossed(model, n, k, zone_lo[i], alphas[i])

        def not_accept(n, k, i=i):
            return ~family.support_upper_crossed(model, n, k, zone_hi[i], betas[i])

        if bounded:
            hi_a = hi_b = ns + 1
        else:
            hi_a = _poisson_bracket(reject, ns, _poisson_guess(alphas[i], ns * zone_lo[i]))
            hi_b = _poisson_bracket(not_accept, ns,
                                    _poisson_guess(1.0 - betas[i], ns * zone_hi[i]))
        min_a[i] = _first_true(reject, ns, hi_a)
        max_b[i] = _first_true(not_accept, ns, hi_b) - 1
    return min_a, max_b


def build_stage_rule(
    model,
    family,
    n: int,
    zone_lo: Sequence[float],
    zone_hi: Sequence[float],
    alphas: Sequence[float],
    betas: Sequence[float],
    c_policy: str = C_POLICY_SUPPORT_MIDPOINT,
    lr_cut: tuple[float, float, float] | None = None,
) -> StageRule:
    """Materialize the decision windows of a single stage.

    ``lr_cut = (theta0, theta1, log_ratio)`` switches the tie policy of a
    two-hypothesis stage to the likelihood-ratio rule; ``c_policy`` selects
    the midpoint flavour otherwise.  The rule is the crossing counts of
    ``_crossing_counts`` at ``[n]`` turned into windows by
    ``_rule_from_counts``; the plan builders take the same two steps, with
    one count table over many sizes.
    """
    min_a, max_b = _crossing_counts(model, family, [n], zone_lo, zone_hi, alphas, betas)
    return _rule_from_counts(model, n, min_a[:, 0], max_b[:, 0], zone_lo, zone_hi,
                             c_policy, lr_cut)


def _rule_from_counts(model, n, first_a, last_b, zone_lo, zone_hi, c_policy, lr_cut):
    """Stage rule of size ``n`` from one column of ``_crossing_counts``: per zone
    boundary, the first reject count and the last accept count at ``n``.

    One pass over the boundaries.  At each, the tie cut ``c`` or the counts
    give the last count at or below the boundary and the first count above
    it; window i runs from the first count above boundary i - 1 to the last
    count at or below boundary i, and is None when either is missing.
    """
    k_top = model.sum_upper(n)
    f, g, windows, ties = [], [-math.inf], [], []
    lo = 0  # first count above the previous boundary
    for i, (a, b) in enumerate(zip(first_a, last_b)):
        a, b = int(a), int(b)
        if a <= b:
            # Tie region: the reject-low and accept sets (both intervals of
            # the support) overlap, and the cut c splits it.
            if lr_cut is not None:
                theta0, theta1, log_ratio = lr_cut
                line = model.log_lr_line(theta0, theta1)
                k_acc = min(int(lr_count(line, n, -log_ratio)), b)
                c = (k_acc + 0.5) / n if k_acc >= a else (a - 0.5) / n
            elif c_policy == C_POLICY_SUPPORT_MIDPOINT:
                c = (a + b) / (2.0 * n)
            elif c_policy == C_POLICY_ZONE_MIDPOINT:
                c = 0.5 * (zone_lo[i] + zone_hi[i])
            elif c_policy == TIEBREAK_ALWAYS_ACCEPT:
                c = (b + 0.5) / n
            elif c_policy == TIEBREAK_ALWAYS_REJECT:
                c = (a - 0.5) / n
            else:
                raise DomainError(f"unknown tie policy {c_policy!r}")
            ties.append((a, b))
            f.append(c)
            g.append(c)
            below = _count_floor(n * c)
            above = below + 1
        else:
            # No tie: g sits just below the first reject count so that count
            # itself decides (the crossing event is inclusive); f = -inf and
            # g = inf mark an empty accept or reject-low set.
            has_a = k_top is None or a <= k_top
            ties.append(None)
            f.append(b / n if b >= 0 else -math.inf)
            g.append((a - 0.5) / n if has_a else math.inf)
            below = b if b >= 0 else None
            above = a if has_a else None
        windows.append(None if lo is None or below is None or below < lo else (lo, below))
        lo = above
    windows.append(None if lo is None or (k_top is not None and k_top < lo) else (lo, k_top))
    rule = StageRule(n=n, f=tuple(f + [math.inf]), g=tuple(g), windows=tuple(windows),
                     ties=tuple(ties))
    _validate_windows(rule)
    return rule


def _validate_windows(rule: StageRule) -> None:
    """Raise unless the windows are nonempty, ordered and disjoint."""
    cursor = -1
    for win in rule.windows:
        if win is None:
            continue
        lo, hi = win
        if lo <= cursor:
            raise InfeasibleDesignError(f"stage {rule.n}: decision windows overlap")
        if hi is not None and hi < lo:
            raise InfeasibleDesignError(f"stage {rule.n}: empty decision window")
        if hi is None:
            break
        cursor = hi


def stage_is_closed(rule: StageRule, model) -> bool:
    """True when every count the model reaches at the stage's size decides:
    no reachable ``CONTINUE`` in ``rule.labels``."""
    return not len(_undecided(rule, model)[0])


def check_stage_sizes(sizes: Sequence) -> None:
    """Raise unless the stage sizes are positive and strictly increasing on
    every arm.  Each entry is one stage's size, or a tuple of its per-arm sizes."""
    arms = list(zip(*(n if isinstance(n, tuple) else (n,) for n in sizes)))
    if not arms or any(arm[0] < 1 or any(b <= a for a, b in zip(arm, arm[1:]))
                       for arm in arms):
        raise DomainError("stage sizes must be strictly increasing positive integers")


def _check_stage_count(s: int) -> None:
    if s < 1:
        raise DomainError(f"need at least one stage, got {s}")


def stage_schedule(n1: int, ns: int, s: int, kind: str) -> tuple[int, ...]:
    """Strictly increasing stage sizes from n1 to ns (inclusive)."""
    _check_stage_count(s)
    if ns < n1:
        raise DomainError(f"need n1 <= ns, got {n1} > {ns}")
    if s <= 1 or n1 == ns:
        return (ns,)
    if kind == "arithmetic":
        xs = np.linspace(n1, ns, s)
    elif kind == "geometric":
        xs = np.exp(np.linspace(math.log(n1), math.log(ns), s))
    else:
        raise DomainError(f"unknown schedule {kind!r}")
    return tuple(sorted({int(round(x)) for x in xs}))


def _check_zones(model, zone_lo, zone_hi) -> None:
    if len(zone_lo) != len(zone_hi) or not zone_lo:
        raise DomainError("zone endpoint sequences must be nonempty and of equal length")
    for lo, hi in zip(zone_lo, zone_hi):
        model.validate_theta(lo)
        model.validate_theta(hi)
        if not lo < hi:
            raise DomainError(f"zone must be a nonempty open interval, got [{lo}, {hi}]")
    for i in range(len(zone_lo) - 1):
        if not zone_hi[i] <= zone_lo[i + 1]:
            raise DomainError("indifference zones must be ordered and non-overlapping")


def _levels(base_alphas, base_betas, zeta, nb):
    """(base_alphas, base_betas, alphas, betas): the base risk coefficients
    (1.0 per zone boundary where None), checked, and scaled by ``zeta``."""
    base_alphas = tuple(base_alphas) if base_alphas is not None else (1.0,) * nb
    base_betas = tuple(base_betas) if base_betas is not None else (1.0,) * nb
    if len(base_alphas) != nb or len(base_betas) != nb:
        raise DomainError("need one (alpha, beta) base pair per zone boundary")
    for v in (*base_alphas, *base_betas):
        if not v > 0.0 or math.isinf(v):
            raise DomainError(f"base risk coefficients must be positive, got {v}")
    top = max(max(base_alphas), max(base_betas))
    if not (0.0 < zeta < 1.0 / top):
        raise DomainError(f"zeta must lie in (0, {1.0 / top:.6g}), got {zeta}")
    return base_alphas, base_betas, [zeta * a for a in base_alphas], [zeta * b for b in base_betas]


def _size_blocks(start: int, horizon: int):
    """Stage sizes start..horizon in blocks of 16, 16, 32, 64, ... sizes: from
    1, the blocks 1-16, 17-32, 33-64, ..."""
    lo = start
    while lo <= horizon:
        hi = min(horizon, lo - 1 + max(_FIRST_BLOCK, lo - start))
        yield np.arange(lo, hi + 1)
        lo = hi + 1


def _first_size(model, family, zone_lo, zone_hi, alphas, betas, start, horizon, passes):
    """The smallest stage size n in start..horizon that ``passes``, or None.

    ``passes(ns, min_a, max_b)`` takes a block's crossing-count table and
    returns, column by column in order, whether each size passes; the
    search stops at the first that does, so when no size below ``start``
    passes its answer is the one a size-by-size scan from 1 gives.
    """
    for ns in _size_blocks(start, horizon):
        min_a, max_b = _crossing_counts(model, family, ns, zone_lo, zone_hi, alphas, betas)
        for n, ok in zip(ns, passes(ns, min_a, max_b)):
            if ok:
                return int(n)
    return None


@contextmanager
def _size_memo():
    """Share the final stage sizes found by the plan builds inside the block.

    ``tune_zeta`` opens one for the span of its probes; the memo ends with
    the block, on return or on an error.
    """
    token = _SIZE_MEMO.set({})
    try:
        yield
    finally:
        _SIZE_MEMO.reset(token)


def _size_records(model, family, zone_lo, zone_hi, require_ties):
    """The open memo's final-size records of this search, or None outside a
    tuning run and for approximate limits, whose limit is a root formula in
    the level: there the monotonicity holds only in exact arithmetic."""
    memo = _SIZE_MEMO.get()
    if memo is None or type(family) not in (ExactLimits, ChernoffLimits):
        return None
    key = (model, family.tag, tuple(zone_lo), tuple(zone_hi), require_ties)
    return memo.setdefault(key, [])


def _size_range(records, levels, horizon):
    """The final sizes the records leave open at ``levels``: (start, stop).

    No size below a final size found at componentwise larger levels closes
    at ``levels``, and one found at componentwise smaller levels closes.
    """
    start, stop = 1, horizon
    for seen, last in records:
        if all(x >= y for x, y in zip(seen, levels)):
            start = max(start, last)
        if all(x <= y for x, y in zip(seen, levels)):
            stop = min(stop, last)
    return start, stop


def _closes(min_a, max_b, require_ties: bool) -> np.ndarray:
    """Per column of a crossing-count table, whether the stage is closed.

    With one boundary, a stage is closed exactly when no count lies
    between the accept and reject-low sets.  With ties required (the
    multi-hypothesis builder), the two sets must overlap at every
    boundary, and the tie cuts then leave no count undecided.
    """
    return (min_a <= (max_b if require_ties else max_b + 1)).all(axis=0)


def _stage_rules(model, family, zone_lo, zone_hi, alphas, betas, c_policy, lr_cut,
                 stage_ns, stages, schedule, require_ties, horizon, fully_sequential=False):
    """The stage rules of a closed plan at ``stage_ns``, or, when it is None, at sizes
    the searches pick.  The final-size search reads the count tables
    (``_closes``) and makes no rule; inside a tuning run it covers only the
    sizes that the final sizes of earlier builds leave open (``_size_range``)
    and records its own.  The first-stage search makes a rule wherever some
    crossing count lies on the support, since that count test is only a
    necessary condition for a window.  Every rule of the plan is then made
    once, from one count table over its sizes."""
    _check_stage_count(stages)

    def rule(n, min_a, max_b, j):
        return _rule_from_counts(model, n, min_a[:, j], max_b[:, j], zone_lo, zone_hi,
                                 c_policy, lr_cut)

    if stage_ns is None:
        records = _size_records(model, family, zone_lo, zone_hi, require_ties)
        levels = (*alphas, *betas)
        start, stop = _size_range(records or (), levels, horizon)
        last = _first_size(model, family, zone_lo, zone_hi, alphas, betas, start, stop,
                           lambda ns, min_a, max_b: _closes(min_a, max_b, require_ties))
        if last is None:
            raise InfeasibleDesignError(
                f"no closed final stage within {horizon} samples; "
                "widen the zones or increase the risk budget"
            )
        if records is not None:
            records.append((levels, last))
        if fully_sequential:
            stage_ns = range(1, last + 1)
        else:
            def has_window(ns, min_a, max_b):
                # A decision needs some crossing count on the support; only
                # there is a rule made to see whether it reaches one.
                top = model.sum_upper(ns)
                reach = ((min_a <= top if top is not None else True) | (max_b >= 0)).any(axis=0)
                for j, n in enumerate(ns):
                    yield reach[j] and any(w is not None
                                           for w in rule(int(n), min_a, max_b, j).windows)

            first = _first_size(model, family, zone_lo, zone_hi, alphas, betas, 1, last,
                                has_window)
            stage_ns = stage_schedule(first or last, last, stages, schedule)
    else:
        stage_ns = tuple(int(n) for n in stage_ns)
        check_stage_sizes(stage_ns)
    min_a, max_b = _crossing_counts(model, family, stage_ns, zone_lo, zone_hi, alphas, betas)
    rules = tuple(rule(n, min_a, max_b, j) for j, n in enumerate(stage_ns))
    if not stage_is_closed(rules[-1], model):
        raise InfeasibleDesignError(
            f"final stage of size {rules[-1].n} leaves continuation points; "
            "increase the last stage size"
        )
    return rules


def build_multihyp_plan(
    model,
    family,
    zone_lo: Sequence[float],
    zone_hi: Sequence[float],
    zeta: float,
    base_alphas: Sequence[float] | None = None,
    base_betas: Sequence[float] | None = None,
    stage_ns: Sequence[int] | None = None,
    stages: int = 1,
    schedule: str = "geometric",
    c_policy: str = C_POLICY_SUPPORT_MIDPOINT,
    max_stage_size: int = 200_000,
) -> MultiHypPlan:
    """Build a closed m-hypothesis plan.

    When ``stage_ns`` is omitted, the final size is the smallest one whose
    stage has a tie region at every zone boundary (which closes the stage)
    and the first size the smallest at which any decision is reachable;
    ``stages`` sizes are then spread on the requested ``schedule``.
    """
    _check_zones(model, zone_lo, zone_hi)
    base_alphas, base_betas, alphas, betas = _levels(base_alphas, base_betas, zeta,
                                                     len(zone_lo))
    if c_policy not in _C_POLICIES:
        raise DomainError(f"unknown c policy {c_policy!r}")

    rules = _stage_rules(model, family, zone_lo, zone_hi, alphas, betas, c_policy, None,
                         stage_ns, stages, schedule, True, max_stage_size)
    return MultiHypPlan(
        model=model, family=family,
        zone_lo=tuple(zone_lo), zone_hi=tuple(zone_hi),
        base_alphas=base_alphas, base_betas=base_betas, zeta=zeta,
        stages=rules, c_policy=c_policy,
    )


def build_one_sided_plan(
    model,
    family,
    theta0: float,
    theta1: float,
    alpha: float,
    beta: float,
    zeta: float,
    stage_ns: Sequence[int] | None = None,
    stages: int = 1,
    schedule: str = "geometric",
    fully_sequential: bool = False,
    tiebreak: str = TIEBREAK_LIKELIHOOD_RATIO,
    max_stage_size: int = 200_000,
) -> OneSidedPlan:
    """Build a closed one-sided plan for H0: theta <= theta0 vs H1: theta >= theta1.

    The tie rule resolves the case where both crossings hold at once; the
    default accepts H0 exactly when the likelihood ratio of the two zone
    endpoints is at least alpha/beta.
    """
    _check_zones(model, (theta0,), (theta1,))
    if tiebreak not in _TIEBREAKS:
        raise DomainError(f"unknown tiebreak {tiebreak!r}")
    _, _, alphas, betas = _levels((alpha,), (beta,), zeta, 1)
    lr_cut = ((theta0, theta1, math.log(alpha / beta))
              if tiebreak == TIEBREAK_LIKELIHOOD_RATIO else None)
    cap = _sample_cap(model, family, theta0, theta1, alphas[0], betas[0])
    rules = _stage_rules(model, family, (theta0,), (theta1,), alphas, betas,
                         _tie_c_policy(tiebreak), lr_cut, stage_ns, stages, schedule, False,
                         cap + 1 if cap else max_stage_size, fully_sequential)
    return OneSidedPlan(
        model=model, family=family,
        zone_lo=(theta0,), zone_hi=(theta1,),
        base_alphas=(alpha,), base_betas=(beta,), zeta=zeta,
        stages=rules, tiebreak=tiebreak,
    )


def decision_variable(plan: MultiHypPlan, stage_index: int, theta_hat: float) -> int:
    """Decision variable at 1-based stage ``stage_index`` for mean ``theta_hat``."""
    if not 1 <= stage_index <= plan.s:
        raise DomainError(f"stage index must lie in 1..{plan.s}, got {stage_index}")
    rule = plan.stages[stage_index - 1]
    k = int(round(theta_hat * rule.n))
    if abs(theta_hat * rule.n - k) > 1e-6:
        raise DomainError(f"{theta_hat} is not a support point of a size-{rule.n} mean")
    return rule.decision_for_sum(k)


def _take(it: Iterator, count: int, model, label: str = "observation") -> int:
    """Sum of the next ``count`` values of the stream ``label``, checked against the model."""
    total = 0
    for i in range(count):
        try:
            x = next(it)
        except StopIteration:
            raise StreamExhaustedError(
                f"{label} stream ended after {i} of {count} needed samples") from None
        if isinstance(model, Bernoulli) and x not in (0, 1):
            raise DomainError(f"{label} values of a Bernoulli stream must be 0 or 1, got {x!r}")
        # Python ints compare with floats exactly, so a value above the
        # float range fails here rather than as the float terminal estimate.
        if isinstance(model, Poisson) and (
                x < 0 or not (isinstance(x, int) or math.isfinite(x)) or x != int(x)
                or x > sys.float_info.max):
            raise DomainError(
                f"{label} values of a Poisson stream must be nonnegative integers "
                f"within the float range, got {x!r}")
        total += int(x)
    return total


def run_plan(plan: MultiHypPlan, stream: Iterable) -> TestOutcome:
    """Execute the plan on an observation stream, consuming exactly as many
    values as the reached stage requires."""
    it = iter(stream)
    total = 0
    prev_n = 0
    for idx, rule in enumerate(plan.stages, start=1):
        total += _take(it, rule.n - prev_n, plan.model)
        prev_n = rule.n
        d = rule.decision_for_sum(total)
        if d != 0:
            return TestOutcome(
                stage_index=idx,
                sample_count=rule.n,
                accepted_index=d - 1,
                terminal_estimate=total / rule.n,
                tie_occurred=rule.tie_for_sum(total),
            )
    raise InfeasibleDesignError("plan is not closed: no decision at the final stage")
