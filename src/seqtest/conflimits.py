"""One-sided confidence limits for the sample mean, in three families.

``ExactLimits`` inverts the exact tail probabilities of the sum statistic:
the lower limit at confidence level ``1 - delta`` is the largest parameter
value whose upper tail at the observed mean does not exceed ``delta``, and
symmetrically for the upper limit.  For Bernoulli data these are the
classical exact (Clopper-Pearson style) limits; for Poisson data the exact
gamma-type limits.

``ChernoffLimits`` replaces the exact tails by the n-th power of the
large-deviation bound ``chernoff(z, theta)``; the resulting limits are
slightly wider but cost only a closed-form evaluation per bisection probe,
with no tail summation.

``ApproxLimits(w)`` is the normal-approximation family with a variance
blend: the variance is evaluated at ``z + w*(theta - z)``, so ``w = 0``
gives the Wald limits and ``w = 1`` the score (Wilson-type) limits.  Both
Bernoulli and Poisson variance models admit closed-form roots.

Every family also exposes crossing predicates that decide
``lower(z) >= theta_ref`` and ``upper(z) <= theta_ref`` without computing
the limit itself: for the exact family this is a single tail evaluation at
``theta_ref``, for the Chernoff family a rate-function comparison plus a
side condition on which flank of ``theta_ref`` the mean lies.  The
predicates agree exactly with direct limit comparison.  Their
``support_*_crossed`` forms take an array of sum counts, with n either a
scalar or an array broadcast against them, and evaluate each pair on its
own; the plan builders search on them over the counts of many stage sizes
at once to find where each crossing set begins or ends.

All bisections run to absolute tolerance 1e-12 and round to the
conservative side: lower limits round down, upper limits round up.  When a
defining set is empty (e.g. the lower limit at an observed mean of zero)
the corresponding boundary of the parameter space is returned and the
``*_detail`` variants flag it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import ndtri

from .errors import DomainError
from .models import Bernoulli, Poisson

__all__ = [
    "ExactLimits",
    "ChernoffLimits",
    "ApproxLimits",
    "LimitValue",
    "crossing_test",
    "family_by_tag",
]

BISECT_TOL = 1e-12
_MAX_ITER = 200


class LimitValue(NamedTuple):
    value: float
    at_boundary: bool


def _check_delta(delta: float) -> None:
    if not (0.0 < delta < 1.0):
        raise DomainError(f"confidence coefficient delta must lie in (0, 1), got {delta}")


def _bisect(pred, lo: float, hi: float) -> tuple[float, float]:
    """Shrink [lo, hi] with pred(lo) true, pred(hi) false; return the bracket."""
    it = 0
    while hi - lo > BISECT_TOL and it < _MAX_ITER:
        mid = 0.5 * (lo + hi)
        if pred(mid):
            lo = mid
        else:
            hi = mid
        it += 1
    return lo, hi


class _FamilyBase:
    """Shared scalar plumbing; subclasses provide the defining predicates."""

    def lower(self, model, n: int, z: float, delta: float) -> float:
        return self.lower_detail(model, n, z, delta).value

    def upper(self, model, n: int, z: float, delta: float) -> float:
        return self.upper_detail(model, n, z, delta).value

    def lower_crossed(self, model, n: int, z: float, theta_ref: float, delta: float) -> bool:
        return self._lower_crossed_scalar(model, n, z, theta_ref, delta)

    def upper_crossed(self, model, n: int, z: float, theta_ref: float, delta: float) -> bool:
        return self._upper_crossed_scalar(model, n, z, theta_ref, delta)


class ExactLimits(_FamilyBase):
    """Exact tail-inversion limits."""

    tag = "exact"
    w = None

    def lower_detail(self, model, n: int, z: float, delta: float) -> LimitValue:
        _check_delta(delta)
        g = lambda th: model.tail_upper(n, z, th)
        if g(0.0) > delta:
            # The observed mean sits at the bottom of the support: no
            # parameter makes the upper tail small, so the defining set is
            # empty and the lower boundary is returned.
            return LimitValue(0.0, True)
        if isinstance(model, Bernoulli):
            hi = 1.0
        else:
            hi = max(2.0 * max(z, 1.0), 1.0)
            while g(hi) <= delta:
                hi *= 2.0
        lo, _ = _bisect(lambda th: g(th) <= delta, 0.0, hi)
        return LimitValue(lo, False)

    def upper_detail(self, model, n: int, z: float, delta: float) -> LimitValue:
        _check_delta(delta)
        f = lambda th: model.tail_lower(n, z, th)
        if isinstance(model, Bernoulli):
            hi = 1.0
            if f(hi) > delta:
                # z at the top of the support: the set is empty.
                return LimitValue(1.0, True)
        else:
            hi = max(2.0 * max(z, 1.0), 1.0)
            while f(hi) > delta:
                hi *= 2.0
        _, up = _bisect(lambda th: f(th) > delta, 0.0, hi)
        return LimitValue(up, False)

    def _lower_crossed_scalar(self, model, n, z, theta_ref, delta) -> bool:
        return model.tail_upper(n, z, theta_ref) <= delta

    def _upper_crossed_scalar(self, model, n, z, theta_ref, delta) -> bool:
        return model.tail_lower(n, z, theta_ref) <= delta

    def support_lower_crossed(self, model, n, ks, theta_ref, delta):
        """Vector form of the lower crossing; n and ks broadcast."""
        return model.sum_tail(n, ks, theta_ref, upper=True) <= delta

    def support_upper_crossed(self, model, n, ks, theta_ref, delta):
        return model.sum_tail(n, ks, theta_ref) <= delta


class ChernoffLimits(_FamilyBase):
    """Large-deviation-bound limits."""

    tag = "chernoff"
    w = None

    def lower_detail(self, model, n: int, z: float, delta: float) -> LimitValue:
        _check_delta(delta)
        if z <= 0.0:
            return LimitValue(0.0, True)
        log_delta = math.log(delta)
        ok = lambda th: n * float(model.log_chernoff(z, th)) <= log_delta if th > 0.0 else True
        hi = min(z, 1.0) if isinstance(model, Bernoulli) else z
        lo, _ = _bisect(ok, 0.0, hi)
        return LimitValue(lo, False)

    def upper_detail(self, model, n: int, z: float, delta: float) -> LimitValue:
        _check_delta(delta)
        log_delta = math.log(delta)
        if isinstance(model, Bernoulli):
            if z >= 1.0:
                return LimitValue(1.0, True)
            ok = lambda th: (n * float(model.log_chernoff(z, th)) <= log_delta) if th < 1.0 else True
            hi = 1.0
        else:
            ok = lambda th: n * float(model.log_chernoff(z, th)) <= log_delta
            hi = max(2.0 * max(z, 1.0), 1.0)
            while not ok(hi):
                hi *= 2.0
        _, up = _bisect(lambda th: not ok(th), max(z, 0.0), hi)
        return LimitValue(up, False)

    def _lower_crossed_scalar(self, model, n, z, theta_ref, delta) -> bool:
        if z < theta_ref:
            return False
        return n * float(model.log_chernoff(z, theta_ref)) <= math.log(delta)

    def _upper_crossed_scalar(self, model, n, z, theta_ref, delta) -> bool:
        if z > theta_ref:
            return False
        return n * float(model.log_chernoff(z, theta_ref)) <= math.log(delta)

    def support_lower_crossed(self, model, n, ks, theta_ref, delta):
        z = np.asarray(ks, dtype=float) / n
        lc = n * model.log_chernoff(z, theta_ref)
        return (z >= theta_ref) & (lc <= math.log(delta))

    def support_upper_crossed(self, model, n, ks, theta_ref, delta):
        z = np.asarray(ks, dtype=float) / n
        lc = n * model.log_chernoff(z, theta_ref)
        return (z <= theta_ref) & (lc <= math.log(delta))


@dataclass(frozen=True)
class ApproxLimits(_FamilyBase):
    """Normal-approximation limits with variance blend weight w in [0, 1]."""

    w: float = 1.0
    tag = "approx"

    def __post_init__(self):
        if not (0.0 <= self.w <= 1.0):
            raise DomainError(f"blend weight w must lie in [0, 1], got {self.w}")

    def pair(self, model, n: int, z, delta: float):
        """Closed-form (lower, upper) limits; vectorized over z."""
        _check_delta(delta)
        # not ndtri(1 - delta / 2): below delta ~1.1e-16 that argument rounds to 1
        zcrit = float(-ndtri(delta / 2.0))
        w = self.w
        z = np.asarray(z, dtype=float)
        if isinstance(model, Bernoulli):
            # Roots of (theta - z)^2 = zcrit^2 * V(z + w*(theta - z)) with
            # V(u) = u*(1-u)/n; the discriminant collapses to a perfect
            # square, giving the familiar blended score form.
            a = (w * zcrit**2 / (2.0 * n)) * (1.0 - 2.0 * (1.0 - w) * z)
            root = zcrit * np.sqrt(z * (1.0 - z) / n + (w * zcrit / (2.0 * n)) ** 2)
            den = 1.0 + (w * zcrit) ** 2 / n
            lo = np.clip((z + a - root) / den, 0.0, 1.0)
            hi = np.clip((z + a + root) / den, 0.0, 1.0)
        elif isinstance(model, Poisson):
            # Same construction with V(u) = u/n.
            half = zcrit**2 * w / (2.0 * n)
            root = np.sqrt(half**2 + zcrit**2 * z / n)
            lo = np.maximum(z + half - root, 0.0)
            hi = z + half + root
        else:
            raise DomainError(f"unsupported model {model!r}")
        return lo, hi

    def lower_detail(self, model, n, z, delta) -> LimitValue:
        lo, _ = self.pair(model, n, z, delta)
        return LimitValue(float(lo), False)

    def upper_detail(self, model, n, z, delta) -> LimitValue:
        _, hi = self.pair(model, n, z, delta)
        return LimitValue(float(hi), False)

    def _lower_crossed_scalar(self, model, n, z, theta_ref, delta) -> bool:
        lo, _ = self.pair(model, n, z, delta)
        return float(lo) >= theta_ref

    def _upper_crossed_scalar(self, model, n, z, theta_ref, delta) -> bool:
        _, hi = self.pair(model, n, z, delta)
        return float(hi) <= theta_ref

    def support_lower_crossed(self, model, n, ks, theta_ref, delta):
        lo, _ = self.pair(model, n, np.asarray(ks, dtype=float) / n, delta)
        return lo >= theta_ref

    def support_upper_crossed(self, model, n, ks, theta_ref, delta):
        _, hi = self.pair(model, n, np.asarray(ks, dtype=float) / n, delta)
        return hi <= theta_ref


def crossing_test(family, model, n: int, z: float, theta_ref: float, delta: float):
    """(lower_crossed, upper_crossed) without computing the limits."""
    return (
        family.lower_crossed(model, n, z, theta_ref, delta),
        family.upper_crossed(model, n, z, theta_ref, delta),
    )


def family_by_tag(tag: str, w: float | None = None):
    if tag == "exact":
        return ExactLimits()
    if tag == "chernoff":
        return ChernoffLimits()
    if tag == "approx":
        return ApproxLimits(1.0 if w is None else w)
    raise DomainError(f"unknown limit family {tag!r}")
