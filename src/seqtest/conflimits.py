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

The exact limits have closed forms in the inverse incomplete beta and gamma
functions: at count k, ``betaincinv(k, n - k + 1, delta)`` is the Bernoulli
lower limit and ``gammaincinv(k, delta) / n`` the Poisson one.  They are not
the bisection's bits, and at extreme delta not even near them
(``betaincinv(2, 49, 1e-300)`` is NaN, ``betaincinv(170, 31, 1e-300)`` lies
1.3e-3 off the root), so they serve only as a guess.  ``_edge`` evaluates
the unchanged test at the guess and at a few capped steps from it, which
brackets the edge, then runs the bisection's own midpoints and evaluates
only those inside the bracket widened by a margin: plain bisection's
result, bit for bit, in about four tail evaluations instead of about
forty.  A NaN or out-of-range guess leaves plain bisection; a far one
costs at most nine evaluations more.  The margin is there because the
floating-point tail test is not monotone either, though only within a few
ulps of its edge: about one root in ten has such a band, the widest of
12,500 random roots spanned 2.4e-14, and without the margin 26 of 960,000
random limits moved.  It is ``_GUESS_MARGIN`` = 2.5e-13.

The Chernoff limits take no guess.  Their floating-point rate test is not
monotone near its root at about one root in three, over bands up to
4.4e-12 wide, more than the bisection's tolerance, so no margin would be
cheap.  Guesses within 2e-13 of the bisection's own results moved 770 of
15,478 random Chernoff limits, by up to 4.1e-11.  Their probes are cheap
instead: each evaluates the rate alone.  In every family a scalar limit at
a mean off the model's hull raises ``DomainError`` on either side.

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
from scipy.special import betaincinv, gammainccinv, gammaincinv, ndtri

from .errors import DomainError
from .models import _COUNT_EPS, Bernoulli, Poisson, _count_ceil, _count_floor

__all__ = [
    "ExactLimits",
    "ChernoffLimits",
    "ApproxLimits",
    "LimitValue",
    "family_by_tag",
]

BISECT_TOL = 1e-12
_MAX_ITER = 200
# First step from a closed-form guess, and the most steps taken from it.
_GUESS_STEP = BISECT_TOL / 4
_GUESS_STEPS = 8
# How far past the points tested near the edge an answer is taken as
# known: ten times the widest band seen where the exact tail test is not
# monotone in floating point (see the module docstring).
_GUESS_MARGIN = BISECT_TOL / 4


class LimitValue(NamedTuple):
    value: float
    at_boundary: bool


def _check_delta(delta: float) -> None:
    if not (0.0 < delta < 1.0):
        raise DomainError(f"confidence coefficient delta must lie in (0, 1), got {delta}")


def _check_mean(model, z: float) -> None:
    """``model._hull``'s refusal of a mean off the hull, by float compares."""
    top = model.sum_upper(1)
    if z < -_COUNT_EPS or (top is not None and z > top + _COUNT_EPS):
        model._hull(z)  # raises


def _edge(low_side, model, z: float, lo: float = 0.0, hi: float | None = None,
          upper: bool = False, guess: float = math.nan) -> LimitValue:
    """The limit where ``low_side(theta)``, true at ``lo``, turns false.

    A Bernoulli bracket ends at 1 by default; a Poisson one at 2 max(z, 1),
    doubled while ``low_side`` holds there.  Bisection probes midpoints only
    and returns the conservative end: the upper end for an upper limit.

    A finite ``guess`` inside the bracket only saves probes: ``_bracket``
    steps from it to a point where the test holds and a point where it
    fails, and ``yes`` and ``no`` lie ``_GUESS_MARGIN`` beyond these.  The
    doubling and the bisection then run as without a guess, but take the
    answer at or below ``yes`` (at or above ``no``) as known rather than
    evaluate the test there.  For a test monotone in theta outside a band
    narrower than the margin, that gives the same bracket and the same end,
    bit for bit; only points strictly between ``yes`` and ``no`` are
    evaluated, and each narrows the bracket.  A NaN guess, or one outside
    the bracket, is plain bisection.  The exact tails meet that condition,
    the Chernoff rate does not (see the module docstring).
    """
    yes, no = lo, math.inf if hi is None else hi
    if lo < guess < no:
        yes, no = _bracket(low_side, guess, yes, no)
        yes, no = yes - _GUESS_MARGIN, no + _GUESS_MARGIN
    if hi is None and isinstance(model, Bernoulli):
        hi = 1.0
    elif hi is None:
        hi = 2.0 * max(z, 1.0)
        while hi <= yes or (hi < no and low_side(hi)):
            yes = max(yes, hi)
            hi *= 2.0
    it = 0
    while hi - lo > BISECT_TOL and it < _MAX_ITER:
        mid = 0.5 * (lo + hi)
        if mid <= yes or (mid < no and low_side(mid)):
            lo = mid
        else:
            hi = mid
        it += 1
    return LimitValue(hi if upper else lo, False)


def _bracket(low_side, guess: float, yes: float, no: float) -> tuple[float, float]:
    """Narrow (yes, no), where ``low_side`` holds at ``yes`` and fails at
    ``no``, by testing ``guess`` and then points stepping away from it
    toward the other side, ``_GUESS_STEP`` first and doubling, until the
    test flips, a step leaves (yes, no) or ``_GUESS_STEPS`` steps are
    spent."""
    holds = low_side(guess)
    if holds:
        yes = guess
    else:
        no = guess
    step = _GUESS_STEP if holds else -_GUESS_STEP
    for _ in range(_GUESS_STEPS):
        probe = guess + step
        if not yes < probe < no:
            break
        if low_side(probe):
            yes = probe
            if not holds:
                break
        else:
            no = probe
            if holds:
                break
        step *= 2.0
    return yes, no


def _tail_crossed(model, n, ks, theta, delta: float, lower: bool):
    """Exact test: the lower limit at count k clears theta when Pr{S >= k}
    at theta is at most delta, the upper limit when Pr{S <= k} is."""
    return model.sum_tail(n, ks, theta, upper=lower) <= delta


def _rate_crossed(model, n, z, theta, log_delta: float):
    """Chernoff test: n log chernoff(z, theta) <= log delta, for a mean z
    already in the hull (``model._hull``) and a valid theta.  The scalar
    limits apply it without the flank condition: their brackets, below z
    for a lower limit and above it for an upper one, keep every probe on
    the right flank."""
    return n * model._log_rate(z, theta) <= log_delta


def _rate_table(model, n, ks, theta, delta: float, lower: bool):
    """The Chernoff test at counts ks, with the mean k / n on theta's upper
    flank for a lower limit and its lower flank for an upper limit."""
    model.validate_theta(theta)
    z = model._hull(np.asarray(ks, dtype=float) / n)
    flank = z >= theta if lower else z <= theta
    return flank & _rate_crossed(model, n, z, theta, math.log(delta))


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
        _check_mean(model, z)
        k = _count_ceil(n * z)
        crossed = lambda th: _tail_crossed(model, n, k, th, delta, lower=True)
        if not crossed(0.0):
            # The observed mean sits at the bottom of the support: no
            # parameter makes the upper tail small, so the defining set is
            # empty and the lower boundary is returned.
            return LimitValue(0.0, True)
        if isinstance(model, Bernoulli):
            guess = float(betaincinv(k, n - k + 1, delta))
        else:
            guess = float(gammaincinv(k, delta)) / n
        return _edge(crossed, model, z, guess=guess)

    def upper_detail(self, model, n: int, z: float, delta: float) -> LimitValue:
        _check_delta(delta)
        _check_mean(model, z)
        k = _count_floor(n * z)
        below = lambda th: not _tail_crossed(model, n, k, th, delta, lower=False)
        if isinstance(model, Bernoulli):
            if below(1.0):
                # z at the top of the support: the set is empty.
                return LimitValue(1.0, True)
            # not betainccinv(k + 1, n - k, delta), which needs scipy 1.11
            guess = 1.0 - float(betaincinv(n - k, k + 1, delta))
        else:
            guess = float(gammainccinv(k + 1, delta)) / n
        return _edge(below, model, z, upper=True, guess=guess)

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
        z = float(model._hull(z))
        if z == 0.0:
            return LimitValue(0.0, True)
        log_delta = math.log(delta)
        crossed = lambda th: _rate_crossed(model, n, z, th, log_delta)
        return _edge(crossed, model, z, hi=z)

    def upper_detail(self, model, n: int, z: float, delta: float) -> LimitValue:
        _check_delta(delta)
        z = float(model._hull(z))
        if isinstance(model, Bernoulli) and z == 1.0:
            return LimitValue(1.0, True)
        log_delta = math.log(delta)
        below = lambda th: not _rate_crossed(model, n, z, th, log_delta)
        return _edge(below, model, z, lo=z, upper=True)

    def support_lower_crossed(self, model, n, ks, theta_ref, delta):
        return _rate_table(model, n, ks, theta_ref, delta, lower=True)

    def support_upper_crossed(self, model, n, ks, theta_ref, delta):
        return _rate_table(model, n, ks, theta_ref, delta, lower=False)


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
        _check_mean(model, z)
        lo, _ = self.pair(model, n, z, delta)
        return LimitValue(float(lo), False)

    def upper_detail(self, model, n, z, delta) -> LimitValue:
        _check_mean(model, z)
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
