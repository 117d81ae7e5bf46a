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
by default.

Both crossing sets are intervals of the support, so a stage is fixed by
two counts per boundary: the first reject count ``min_a(n)`` and the last
accept count ``max_b(n)``.  ``_crossing_counts`` finds them by a
sectioning search on the count, for a whole array of stage sizes at once;
the stage rule is built from them and never tabulates the support.

Plans are closed: the final stage size is chosen (or validated) so that
every support point falls in some window, hence the sample size never
exceeds ``stage_ns[-1]``.  The search tabulates the two counts over
blocks of sizes (1-16, 17-32, 33-64, ...) up to its horizon and builds
a stage rule only at sizes whose counts leave no gap between the accept
and reject-low sets (and, where ties are required, overlap them), which
every closed stage does; the first of those that builds a closed rule is
the answer, the same one a size-by-size scan gives, at a cost that tracks
the answer rather than the horizon.  For fully sequential one-sided
plans, ``sample_bound`` gives the analytic cap derived from the
large-deviation rate at the zone midpoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

from .conflimits import ExactLimits, ChernoffLimits, ApproxLimits, family_by_tag
from .errors import DomainError, InfeasibleDesignError, StreamExhaustedError
from .models import Bernoulli, Poisson, _count_floor, _poisson_isf

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

    @property
    def m(self) -> int:
        return len(self.windows)

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

    def continue_gaps(self, k_top: int | None):
        """Integer intervals of the continuation region up to k_top."""
        gaps = []
        cursor = 0
        for win in self.windows:
            if win is None:
                continue
            lo, hi = win
            if lo > cursor:
                gaps.append((cursor, lo - 1))
            cursor = (hi + 1) if hi is not None else None
            if cursor is None:
                return gaps
        if cursor is not None and k_top is not None and cursor <= k_top:
            gaps.append((cursor, k_top))
        elif cursor is not None and k_top is None:
            gaps.append((cursor, None))
        return gaps


@dataclass(frozen=True)
class TestOutcome:
    stage_index: int
    sample_count: int
    accepted_index: int
    terminal_estimate: float
    tie_occurred: bool
    forced: bool = False  # decision imposed by a sample cap, not a crossing


@dataclass(frozen=True)
class MultiHypPlan:
    """A fully materialized multistage plan over m hypotheses."""

    model: object
    family: object
    zone_lo: tuple[float, ...]
    zone_hi: tuple[float, ...]
    base_alphas: tuple[float, ...]
    base_betas: tuple[float, ...]
    zeta: float
    stages: tuple[StageRule, ...]
    c_policy: str = C_POLICY_SUPPORT_MIDPOINT
    kind: str = "multi"

    @property
    def m(self) -> int:
        return len(self.zone_lo) + 1

    @property
    def s(self) -> int:
        return len(self.stages)

    @property
    def stage_ns(self) -> tuple[int, ...]:
        return tuple(st.n for st in self.stages)

    @property
    def alphas(self) -> tuple[float, ...]:
        """Effective per-stage lower-limit levels per zone boundary."""
        return tuple(self.zeta * a for a in self.base_alphas)

    @property
    def betas(self) -> tuple[float, ...]:
        return tuple(self.zeta * b for b in self.base_betas)


@dataclass(frozen=True)
class OneSidedPlan(MultiHypPlan):
    """Two-hypothesis plan for H0: theta <= theta0 versus H1: theta >= theta1."""

    theta0: float = 0.0
    theta1: float = 0.0
    tiebreak: str = TIEBREAK_LIKELIHOOD_RATIO
    sample_cap: int | None = None
    kind: str = "one-sided"

    @property
    def alpha(self) -> float:
        return self.base_alphas[0]

    @property
    def beta(self) -> float:
        return self.base_betas[0]


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
    crossing search starts bracketing.  ``_poisson_isf`` needs 1 - q < 1;
    below that, ceil(mu) + 1 serves as the first guess."""
    if not 1.0 - q < 1.0:
        return np.ceil(mus).astype(np.int64) + 1
    return np.array([_poisson_isf(q, mu) + 1 for mu in mus], dtype=np.int64)


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


def _log_lr_cut(model, n, c_interval, theta0, theta1, log_ratio):
    """Largest accepting count in the tie region under the likelihood-ratio rule.

    The per-path log likelihood ratio log f(X; theta0) - log f(X; theta1)
    depends on the data only through the sum and decreases in it, so the
    rule is a threshold: accept H0 for counts up to the returned value
    (None when the whole region rejects).
    """
    lo, hi = c_interval
    ks = np.arange(lo, hi + 1)
    llr = model.log_pmf_sum(n, ks, theta0) - model.log_pmf_sum(n, ks, theta1)
    acc = np.flatnonzero(llr >= log_ratio)
    if not acc.size:
        return None
    return int(ks[acc[-1]])


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
    the midpoint flavour otherwise.
    """
    nb = len(zone_lo)
    m = nb + 1
    k_top = model.sum_upper(n)
    first_a, last_b = _crossing_counts(model, family, [n], zone_lo, zone_hi, alphas, betas)
    min_a = [int(a) if k_top is None or a <= k_top else None for a in first_a[:, 0]]
    max_b = [int(b) if b >= 0 else None for b in last_b[:, 0]]

    # Tie regions: the reject-low and accept sets overlap exactly when
    # min A <= max B (both are intervals of the support).
    ties: list[tuple[int, int] | None] = []
    cut: list[float | None] = []
    for i in range(nb):
        if min_a[i] is not None and max_b[i] is not None and min_a[i] <= max_b[i]:
            lo_c, hi_c = min_a[i], max_b[i]
            ties.append((lo_c, hi_c))
            if lr_cut is not None:
                theta0, theta1, log_ratio = lr_cut
                k_acc = _log_lr_cut(model, n, (lo_c, hi_c), theta0, theta1, log_ratio)
                c = (k_acc + 0.5) / n if k_acc is not None else (lo_c - 0.5) / n
            elif c_policy == C_POLICY_SUPPORT_MIDPOINT:
                c = (lo_c + hi_c) / (2.0 * n)
            elif c_policy == C_POLICY_ZONE_MIDPOINT:
                c = 0.5 * (zone_lo[i] + zone_hi[i])
            elif c_policy == TIEBREAK_ALWAYS_ACCEPT:
                c = (hi_c + 0.5) / n
            elif c_policy == TIEBREAK_ALWAYS_REJECT:
                c = (lo_c - 0.5) / n
            else:
                raise DomainError(f"unknown tie policy {c_policy!r}")
            cut.append(c)
        else:
            ties.append(None)
            cut.append(None)

    # Window edge values.  g is the exclusive lower edge of the window
    # above boundary i; when there is no tie region it sits just below the
    # smallest crossing count so that count itself decides (the crossing
    # event is inclusive).
    f_vals = []
    g_vals = []
    for i in range(nb):
        if ties[i] is not None:
            f_vals.append(cut[i])
            g_vals.append(cut[i])
        else:
            f_vals.append(max_b[i] / n if max_b[i] is not None else -math.inf)
            g_vals.append((min_a[i] - 0.5) / n if min_a[i] is not None else math.inf)
    f = tuple(f_vals + [math.inf])
    g = tuple([-math.inf] + g_vals)

    windows: list[tuple[int, int | None] | None] = []
    for i in range(m):
        # Window i (deciding D = i + 1) runs over (g[i], f[i]] where the
        # tuples are laid out as g = (g_0..g_{m-1}), f = (f_1..f_m).
        if i == 0:
            klo = 0
        elif math.isinf(g[i]):
            klo = None
        else:
            klo = _count_floor(n * g[i]) + 1
        if i == nb:
            khi = k_top  # None for Poisson: unbounded top window
        elif f[i] == -math.inf:
            khi = None
            klo = None  # unreachable decision: no accept set at this stage
        else:
            khi = _count_floor(n * f[i])
        if klo is None or (khi is not None and khi < max(klo, 0)):
            windows.append(None)
        else:
            windows.append((max(klo, 0), khi))

    rule = StageRule(n=n, f=f, g=g, windows=tuple(windows), ties=tuple(ties))
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


def stage_is_closed(rule: StageRule, model, n: int) -> bool:
    """True when every support point of the stage falls in some window."""
    return not rule.continue_gaps(model.sum_upper(n))


def _all_ties_present(rule: StageRule) -> bool:
    return all(t is not None for t in rule.ties)


def stage_schedule(n1: int, ns: int, s: int, kind: str) -> tuple[int, ...]:
    """Strictly increasing stage sizes from n1 to ns (inclusive)."""
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


def _check_risks(base_alphas, base_betas, zeta, nb) -> None:
    if len(base_alphas) != nb or len(base_betas) != nb:
        raise DomainError("need one (alpha, beta) base pair per zone boundary")
    for v in (*base_alphas, *base_betas):
        if not v > 0.0 or math.isinf(v):
            raise DomainError(f"base risk coefficients must be positive, got {v}")
    top = max(max(base_alphas), max(base_betas))
    if not (0.0 < zeta < 1.0 / top):
        raise DomainError(f"zeta must lie in (0, {1.0 / top:.6g}), got {zeta}")


def _size_blocks(horizon: int):
    """Stage sizes 1..horizon in blocks 1-16, 17-32, 33-64, ..."""
    lo = 1
    while lo <= horizon:
        hi = min(horizon, max(_FIRST_BLOCK, 2 * (lo - 1)))
        yield np.arange(lo, hi + 1)
        lo = hi + 1


def _first_size(model, family, zone_lo, zone_hi, alphas, betas, c_policy, lr_cut,
                horizon, candidates, accept):
    """Stage rule of the smallest n <= horizon that satisfies ``accept``, or None.

    ``candidates(ns, min_a, max_b)`` is a test on the crossing counts that
    every accepted size passes; only sizes passing it are built, in order,
    so the answer is the one a size-by-size scan would give.
    """
    for ns in _size_blocks(horizon):
        min_a, max_b = _crossing_counts(model, family, ns, zone_lo, zone_hi, alphas, betas)
        for n in ns[candidates(ns, min_a, max_b)]:
            rule = build_stage_rule(model, family, int(n), zone_lo, zone_hi, alphas, betas,
                                    c_policy, lr_cut)
            if accept(rule):
                return rule
    return None


def _minimal_last_stage(model, family, zone_lo, zone_hi, alphas, betas, c_policy,
                        lr_cut, require_ties: bool, max_stage_size: int) -> StageRule:
    def candidates(ns, min_a, max_b):
        # With ties required (the multi-hypothesis builder) the accept and
        # reject-low sets of every boundary must overlap.  Otherwise there is
        # one boundary, and its stage is closed exactly when no count lies
        # between the two sets.
        gap = max_b + 1 if not require_ties else max_b
        return (min_a <= gap).all(axis=0)

    def accept(rule):
        if require_ties and not _all_ties_present(rule):
            return False
        return stage_is_closed(rule, model, rule.n)

    rule = _first_size(model, family, zone_lo, zone_hi, alphas, betas, c_policy, lr_cut,
                       max_stage_size, candidates, accept)
    if rule is None:
        raise InfeasibleDesignError(
            f"no closed final stage within {max_stage_size} samples; "
            "widen the zones or increase the risk budget"
        )
    return rule


def _minimal_first_stage(model, family, zone_lo, zone_hi, alphas, betas, c_policy,
                         lr_cut, last: StageRule) -> StageRule:
    def candidates(sizes, min_a, max_b):
        # A reachable decision needs some crossing count on the support.
        top = model.sum_upper(sizes)
        has_a = min_a <= top if top is not None else np.ones_like(min_a, dtype=bool)
        return (has_a | (max_b >= 0)).any(axis=0)

    rule = _first_size(model, family, zone_lo, zone_hi, alphas, betas, c_policy, lr_cut,
                       last.n, candidates, lambda rule: any(w is not None for w in rule.windows))
    return last if rule is None else rule


def _stage_rules(model, family, zone_lo, zone_hi, alphas, betas, c_policy, lr_cut,
                 stage_ns, stages, schedule, require_ties, horizon, fully_sequential=False):
    """The stage rules of a closed plan at ``stage_ns``, or, when it is None, at sizes
    the searches pick; the rules the searches confirmed are kept, not built again."""
    built = {}
    if stage_ns is None:
        last = _minimal_last_stage(model, family, zone_lo, zone_hi, alphas, betas, c_policy,
                                   lr_cut, require_ties, horizon)
        built[last.n] = last
        if fully_sequential:
            stage_ns = range(1, last.n + 1)
        else:
            first = _minimal_first_stage(model, family, zone_lo, zone_hi, alphas, betas,
                                         c_policy, lr_cut, last)
            built[first.n] = first
            stage_ns = stage_schedule(first.n, last.n, stages, schedule)
    else:
        stage_ns = tuple(int(n) for n in stage_ns)
        if any(b <= a for a, b in zip(stage_ns, stage_ns[1:])) or stage_ns[0] < 1:
            raise DomainError("stage sizes must be strictly increasing positive integers")
    rules = tuple(built.get(n) or build_stage_rule(model, family, n, zone_lo, zone_hi, alphas,
                                                   betas, c_policy, lr_cut)
                  for n in stage_ns)
    if not stage_is_closed(rules[-1], model, rules[-1].n):
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
    if isinstance(family, str):
        family = family_by_tag(family)
    _check_zones(model, zone_lo, zone_hi)
    nb = len(zone_lo)
    base_alphas = tuple(base_alphas) if base_alphas is not None else (1.0,) * nb
    base_betas = tuple(base_betas) if base_betas is not None else (1.0,) * nb
    _check_risks(base_alphas, base_betas, zeta, nb)
    if c_policy not in _C_POLICIES:
        raise DomainError(f"unknown c policy {c_policy!r}")
    alphas = [zeta * a for a in base_alphas]
    betas = [zeta * b for b in base_betas]

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
    if isinstance(family, str):
        family = family_by_tag(family)
    _check_zones(model, (theta0,), (theta1,))
    if tiebreak not in _TIEBREAKS:
        raise DomainError(f"unknown tiebreak {tiebreak!r}")
    _check_risks((alpha,), (beta,), zeta, 1)
    alphas = [zeta * alpha]
    betas = [zeta * beta]
    if tiebreak == TIEBREAK_LIKELIHOOD_RATIO:
        lr_cut = (theta0, theta1, math.log(alpha / beta))
        c_policy = C_POLICY_SUPPORT_MIDPOINT  # unused under lr_cut
    else:
        lr_cut = None
        c_policy = tiebreak

    cap = None
    if isinstance(family, (ExactLimits, ChernoffLimits)):
        cap = sample_bound(model, theta0, theta1, alphas[0], betas[0])

    rules = _stage_rules(model, family, (theta0,), (theta1,), alphas, betas, c_policy, lr_cut,
                         stage_ns, stages, schedule, False,
                         cap + 1 if cap else max_stage_size, fully_sequential)
    return OneSidedPlan(
        model=model, family=family,
        zone_lo=(theta0,), zone_hi=(theta1,),
        base_alphas=(alpha,), base_betas=(beta,), zeta=zeta,
        stages=rules, c_policy=c_policy if lr_cut is None else C_POLICY_SUPPORT_MIDPOINT,
        theta0=theta0, theta1=theta1, tiebreak=tiebreak, sample_cap=cap,
    )


def decision_variable(plan: MultiHypPlan, stage_index: int, theta_hat: float) -> int:
    """Decision variable at 1-based stage ``stage_index`` for mean ``theta_hat``."""
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
        if isinstance(model, Poisson) and (x < 0 or x != int(x)):
            raise DomainError(
                f"{label} values of a Poisson stream must be nonnegative integers, got {x!r}")
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
