"""Wald's sequential probability ratio test, used as the efficiency baseline.

The statistic is the running log likelihood ratio of the upper hypothesis
mean against the lower one.  Crossing the upper boundary rejects the null,
crossing the lower one accepts it.  The classical closed-form operating
characteristic and expected-sample-number formulas are provided for
reporting; they ignore boundary overshoot and are labeled approximate
wherever they surface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, StreamExhaustedError
from .models import Bernoulli, Poisson
from .plans import TestOutcome

__all__ = ["SprtSpec", "run_sprt", "sprt_oc_asn"]


@dataclass(frozen=True)
class SprtSpec:
    model: object
    theta0: float
    theta1: float
    alpha: float
    beta: float
    cap: int | None = None

    def __post_init__(self):
        self.model.validate_theta(self.theta0)
        self.model.validate_theta(self.theta1)
        if not (self.theta0 < self.theta1):
            raise DomainError("need theta0 < theta1")
        for v in (self.alpha, self.beta):
            if not (0.0 < v < 1.0):
                raise DomainError(f"risk levels must lie in (0, 1), got {v}")
        if self.cap is not None and self.cap < 1:
            raise DomainError("sample cap must be a positive integer")

    @property
    def log_a(self) -> float:
        """Upper (rejection) boundary of the log likelihood ratio."""
        return math.log((1.0 - self.beta) / self.alpha)

    @property
    def log_b(self) -> float:
        """Lower (acceptance) boundary."""
        return math.log(self.beta / (1.0 - self.alpha))

    def increments(self, xs) -> np.ndarray:
        """Per-observation log likelihood ratio contributions."""
        xs = np.asarray(xs)
        return (self.model.log_pmf_sum(1, xs, self.theta1)
                - self.model.log_pmf_sum(1, xs, self.theta0))


def run_sprt(spec: SprtSpec, stream) -> TestOutcome:
    """Consume observations until a boundary is crossed or the cap is hit.

    With a cap, hitting it forces a decision by the sign of the statistic
    (nonpositive accepts the null); the outcome is flagged as forced.
    """
    log_a, log_b = spec.log_a, spec.log_b
    llr = 0.0
    count = 0
    total = 0
    it = iter(stream)
    while True:
        try:
            x = next(it)
        except StopIteration:
            raise StreamExhaustedError(
                f"observation stream ended after {count} samples with no decision"
            ) from None
        count += 1
        total += x
        llr += float(spec.increments(x))
        if llr >= log_a:
            return TestOutcome(stage_index=count, sample_count=count,
                               accepted_index=1, terminal_estimate=total / count,
                               tie_occurred=False)
        if llr <= log_b:
            return TestOutcome(stage_index=count, sample_count=count,
                               accepted_index=0, terminal_estimate=total / count,
                               tie_occurred=False)
        if spec.cap is not None and count >= spec.cap:
            return TestOutcome(stage_index=count, sample_count=count,
                               accepted_index=0 if llr <= 0.0 else 1,
                               terminal_estimate=total / count,
                               tie_occurred=False, forced=True)


def _log_mgf(spec: SprtSpec, theta: float, h: float) -> float:
    """log E[exp(h * increment)] at the true mean ``theta``.

    Written with expm1/log1p near h = 0 and logaddexp elsewhere so the
    root search keeps precision on both ends.
    """
    if isinstance(spec.model, Bernoulli):
        up = math.log(spec.theta1 / spec.theta0)
        dn = math.log((1.0 - spec.theta1) / (1.0 - spec.theta0))
        if abs(h) < 1e-3:
            return math.log1p(theta * math.expm1(h * up)
                              + (1.0 - theta) * math.expm1(h * dn))
        return float(np.logaddexp(math.log(theta) + h * up,
                                  math.log1p(-theta) + h * dn))
    if isinstance(spec.model, Poisson):
        log_r = math.log(spec.theta1 / spec.theta0)
        return theta * math.expm1(h * log_r) - h * (spec.theta1 - spec.theta0)
    raise DomainError(f"no moment generating function for model {spec.model!r}")


def _increment_moments(spec: SprtSpec, theta: float) -> tuple[float, float]:
    """(mean, second moment) of the per-observation statistic increment."""
    if isinstance(spec.model, Bernoulli):
        up = math.log(spec.theta1 / spec.theta0)
        dn = math.log((1.0 - spec.theta1) / (1.0 - spec.theta0))
        mean = theta * up + (1.0 - theta) * dn
        second = theta * up * up + (1.0 - theta) * dn * dn
        return mean, second
    r = math.log(spec.theta1 / spec.theta0)
    shift = spec.theta1 - spec.theta0
    # increment = X log r - shift with X Poisson(theta)
    mean = theta * r - shift
    second = (theta + theta * theta) * r * r - 2.0 * shift * theta * r + shift * shift
    return mean, second


def sprt_oc_asn(spec: SprtSpec, theta: float) -> tuple[float, float]:
    """Wald's approximate (acceptance probability, expected sample count).

    Both values ignore overshoot and any cap.  At the drift-free mean the
    limiting expressions are used.
    """
    from scipy.optimize import brentq

    spec.model.validate_theta(theta)
    log_a, log_b = spec.log_a, spec.log_b
    mean, second = _increment_moments(spec, theta)

    if abs(mean) < 1e-10:
        oc = log_a / (log_a - log_b)
        asn = -(log_a * log_b) / second
        return oc, asn

    # Nonzero root of the log moment generating function: convex, zero at
    # h = 0 with slope ``mean``, so the other root sits on the side where
    # the drift turns the function positive again.
    side = 1.0 if mean < 0.0 else -1.0
    outer = side
    for _ in range(64):
        if _log_mgf(spec, theta, outer) > 0.0:
            break
        outer *= 2.0
    inner = 0.5 * outer
    for _ in range(200):
        if _log_mgf(spec, theta, inner) < 0.0:
            break
        inner *= 0.5
    a, b = sorted((inner, outer))
    h = brentq(lambda t: _log_mgf(spec, theta, t), a, b, xtol=1e-14)

    # Acceptance probability from the boundary-crossing identity, written
    # to stay stable for large |h| * boundary products.
    ea, eb = h * log_a, h * log_b
    if max(abs(ea), abs(eb)) < 1e-4:
        # Tiny drift: the direct identity cancels catastrophically, so use
        # the series of the deviation from the drift-free value instead.
        ab = log_a * log_b
        s = log_a + log_b
        excess = (-(h * ab / (log_a - log_b))
                  * (0.5 + h * s / 6.0) / (1.0 + h * s / 2.0))
        oc = min(1.0, max(0.0, log_a / (log_a - log_b) + excess))
        asn = -excess * (log_a - log_b) / mean
        return oc, asn
    with np.errstate(over="ignore"):
        num = math.expm1(ea)
        den = math.exp(ea) - math.exp(eb)
    if not math.isfinite(num) or not math.isfinite(den) or den == 0.0:
        oc = 1.0 if mean < 0.0 else 0.0
    else:
        oc = num / den
    oc = min(1.0, max(0.0, oc))
    asn = (oc * log_b + (1.0 - oc) * log_a) / mean
    return oc, asn
