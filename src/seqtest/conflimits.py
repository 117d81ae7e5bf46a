"""One-sided confidence limits for the sample mean, in three families.

Each family defines its limits and its crossing predicates from one test:
at an observed sum count k out of n, does the lower limit at level
``1 - delta`` reach a parameter value theta, or the upper limit stay at or
below it?  ``support_lower_crossed`` and ``support_upper_crossed`` apply the
test at ``theta_ref`` to an array of counts (n a scalar or an array
broadcast against them); the plan builders search on them over the counts
of many stage sizes at once to find where each crossing set begins or ends.

``ExactLimits`` tests an exact tail of the sum: the lower limit reaches
theta when Pr{S >= k} at theta is at most delta, and symmetrically for the
upper limit.  For Bernoulli data these are the exact limits of Clopper &
Pearson (1934); for Poisson data the exact gamma-type limits.
``ChernoffLimits`` tests the n-th power of the large-deviation bound
``chernoff(k / n, theta)`` instead, with a condition on which flank of
theta the mean lies; its limits are slightly wider and sum no tails.  The
scalar limits of these two families, ``lower_detail``/``upper_detail``, are
the edge in theta of the same test at the observed mean z (the exact test
at the count z maps to, ceil(n z) below and floor(n z) above), bisected by
``_edge`` to absolute tolerance 1e-12 and rounded to the conservative side:
lower limits down, upper limits up.  When a defining set is empty (e.g. the
lower limit at an observed mean of zero) the boundary of the parameter
space is returned and flagged.

``ApproxLimits(w)`` is the normal-approximation family with a variance
blend: the variance is evaluated at ``z + w*(theta - z)``, so ``w = 0``
gives the Wald limits and ``w = 1`` the score (Wilson-type) limits.  Both
models admit closed-form roots, which its predicates compare with theta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import ndtri

from .errors import DomainError
from .models import Bernoulli, Poisson, _count_ceil, _count_floor

__all__ = [
    "ExactLimits",
    "ChernoffLimits",
    "ApproxLimits",
    "LimitValue",
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


def _edge(low_side, model, z: float, lo: float = 0.0, hi: float | None = None,
          upper: bool = False) -> LimitValue:
    """The limit where ``low_side(theta)``, true at ``lo``, turns false.  A
    Bernoulli bracket ends at 1 by default; a Poisson one at 2 max(z, 1),
    doubled while ``low_side`` holds there.  Bisection probes midpoints only
    and returns the conservative end: the upper end for an upper limit."""
    if hi is None and isinstance(model, Bernoulli):
        hi = 1.0
    elif hi is None:
        hi = 2.0 * max(z, 1.0)
        while low_side(hi):
            hi *= 2.0
    it = 0
    while hi - lo > BISECT_TOL and it < _MAX_ITER:
        mid = 0.5 * (lo + hi)
        if low_side(mid):
            lo = mid
        else:
            hi = mid
        it += 1
    return LimitValue(hi if upper else lo, False)


def _tail_crossed(model, n, ks, theta, delta: float, lower: bool):
    """Exact test: the lower limit at count k clears theta when Pr{S >= k}
    at theta is at most delta, the upper limit when Pr{S <= k} is."""
    return model.sum_tail(n, ks, theta, upper=lower) <= delta


def _rate_crossed(model, n, z, theta, delta: float, lower: bool):
    """Chernoff test: n log chernoff(z, theta) <= log delta, with the mean z
    on theta's upper flank for a lower limit and its lower flank for an
    upper limit."""
    flank = z >= theta if lower else z <= theta
    return flank & (n * model.log_chernoff(z, theta) <= math.log(delta))


class _FamilyBase:
    """Shared scalar plumbing; subclasses provide the defining predicates."""

    def lower(self, model, n: int, z: float, delta: float) -> float:
        return self.lower_detail(model, n, z, delta).value

    def upper(self, model, n: int, z: float, delta: float) -> float:
        return self.upper_detail(model, n, z, delta).value


class ExactLimits(_FamilyBase):
    """Exact tail-inversion limits."""

    tag = "exact"
    w = None

    def lower_detail(self, model, n: int, z: float, delta: float) -> LimitValue:
        _check_delta(delta)
        k = _count_ceil(n * z)
        crossed = lambda th: _tail_crossed(model, n, k, th, delta, lower=True)
        if not crossed(0.0):
            # The observed mean sits at the bottom of the support: no
            # parameter makes the upper tail small, so the defining set is
            # empty and the lower boundary is returned.
            return LimitValue(0.0, True)
        return _edge(crossed, model, z)

    def upper_detail(self, model, n: int, z: float, delta: float) -> LimitValue:
        _check_delta(delta)
        k = _count_floor(n * z)
        below = lambda th: not _tail_crossed(model, n, k, th, delta, lower=False)
        if isinstance(model, Bernoulli) and below(1.0):
            # z at the top of the support: the set is empty.
            return LimitValue(1.0, True)
        return _edge(below, model, z, upper=True)

    def support_lower_crossed(self, model, n, ks, theta_ref, delta):
        """Lower crossing at each sum count; n and ks broadcast."""
        return _tail_crossed(model, n, ks, theta_ref, delta, lower=True)

    def support_upper_crossed(self, model, n, ks, theta_ref, delta):
        return _tail_crossed(model, n, ks, theta_ref, delta, lower=False)


class ChernoffLimits(_FamilyBase):
    """Large-deviation-bound limits."""

    tag = "chernoff"
    w = None

    def lower_detail(self, model, n: int, z: float, delta: float) -> LimitValue:
        _check_delta(delta)
        if z <= 0.0:
            return LimitValue(0.0, True)
        crossed = lambda th: _rate_crossed(model, n, z, th, delta, lower=True)
        return _edge(crossed, model, z, hi=min(z, 1.0) if isinstance(model, Bernoulli) else z)

    def upper_detail(self, model, n: int, z: float, delta: float) -> LimitValue:
        _check_delta(delta)
        if isinstance(model, Bernoulli) and z >= 1.0:
            return LimitValue(1.0, True)
        below = lambda th: not _rate_crossed(model, n, z, th, delta, lower=False)
        return _edge(below, model, z, lo=max(z, 0.0), upper=True)

    def support_lower_crossed(self, model, n, ks, theta_ref, delta):
        z = np.asarray(ks, dtype=float) / n
        return _rate_crossed(model, n, z, theta_ref, delta, lower=True)

    def support_upper_crossed(self, model, n, ks, theta_ref, delta):
        z = np.asarray(ks, dtype=float) / n
        return _rate_crossed(model, n, z, theta_ref, delta, lower=False)


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

    def support_lower_crossed(self, model, n, ks, theta_ref, delta):
        lo, _ = self.pair(model, n, np.asarray(ks, dtype=float) / n, delta)
        return lo >= theta_ref

    def support_upper_crossed(self, model, n, ks, theta_ref, delta):
        _, hi = self.pair(model, n, np.asarray(ks, dtype=float) / n, delta)
        return hi <= theta_ref


def family_by_tag(tag: str, w: float | None = None):
    if tag == "exact":
        return ExactLimits()
    if tag == "chernoff":
        return ChernoffLimits()
    if tag == "approx":
        return ApproxLimits(1.0 if w is None else w)
    raise DomainError(f"unknown limit family {tag!r}")
