"""Wald's sequential probability ratio test, used as the efficiency baseline.

The statistic is the log likelihood ratio of the upper hypothesis mean
against the lower one.  After n observations summing to k it is the line
``k * slope + n * offset``, slope > 0, so at every n its boundaries are
integer count windows, as in a plan stage: the sum k accepts the null at
k <= b_n (ratio <= log B) and rejects it at k >= a_n (ratio >= log A).  A
sample cap closes its stage by the sign of the ratio.  So the test is a
plan with one stage per sample size: its (b_n, a_n) rows form the plans'
count-edge table (``plans._Edges``), handed out in chunks up to the cap,
which ``plans.run_plan`` and the simulator run as they run a plan, and a
path that reaches a boundary exactly stops there whatever its order.
The closed-form OC and ASN are Wald's approximations: they ignore
overshoot and any cap and are labeled approximate wherever they surface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError
from .models import Bernoulli, Poisson, lr_count
from .plans import TestOutcome, _Edges, _is_integer, run_plan

__all__ = ["SprtSpec", "run_sprt", "sprt_oc_asn"]

_SPRT_CHUNK = 64        # sample sizes in the first chunk of count windows
_SPRT_GROWTH = 4        # size factor between chunks
_MAX_DRAWS = 10_000_000  # safety on a runaway uncapped walk


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
        if not (self.alpha + self.beta < 1.0):
            # Otherwise log A <= 0 <= log B and the count windows overlap.
            raise DomainError(
                f"risk levels must sum below 1, got {self.alpha} + {self.beta}")
        if self.cap is not None and not (_is_integer(self.cap) and self.cap >= 1):
            raise DomainError("sample cap must be a positive integer")

    @property
    def log_a(self) -> float:
        """Upper (rejection) boundary of the log likelihood ratio."""
        return math.log((1.0 - self.beta) / self.alpha)

    @property
    def log_b(self) -> float:
        """Lower (acceptance) boundary."""
        return math.log(self.beta / (1.0 - self.alpha))

    @cached_property
    def line(self) -> tuple[float, float]:
        """(slope, offset): n observations summing to k have ratio k * slope + n * offset."""
        return self.model.log_lr_line(self.theta0, self.theta1)

    def _crossings(self, ns) -> tuple[np.ndarray, np.ndarray]:
        """Uncapped count windows: (largest k <= log B, smallest k >= log A) per n."""
        return (lr_count(self.line, ns, self.log_b),
                lr_count(self.line, ns, self.log_a, at_least=True))

    def count_bounds(self, ns) -> tuple[np.ndarray, np.ndarray]:
        """Per sample size in the 1-D array ``ns``: (b_n, a_n).

        A running sum k <= b_n accepts the null, k >= a_n rejects it, both
        read off ``models.lr_count`` as the one-sided tie cut is.  At the
        cap a ratio at most 0 accepts and a_n = b_n + 1.
        """
        ns = np.asarray(ns)
        accept, reject = self._crossings(ns)
        if self.cap is not None:
            at_cap = ns == self.cap
            accept[at_cap] = lr_count(self.line, self.cap, 0.0)
            reject[at_cap] = accept[at_cap] + 1
        return accept, reject

    def _edge_chunks(self):
        """The windows as ``plans._Edges`` of sizes 1..64, 65..256, ... up to
        the cap, whose row's band is the gap its sign rule closes, or up to
        ``_MAX_DRAWS``; asking past the last means the walk is undecided."""
        top = _MAX_DRAWS if self.cap is None else min(self.cap, _MAX_DRAWS)
        stop = 0
        while stop < top:
            ns = np.arange(stop + 1, min(max(_SPRT_CHUNK, stop * _SPRT_GROWTH), top) + 1)
            stop = int(ns[-1])
            below, above = self.count_bounds(ns)
            band = tuple(map(int, self._crossings(stop))) if stop == self.cap else (0, 0)
            yield _Edges(ns, below[:, None], above[:, None], slice(0, 1), band)
        raise DomainError(f"sequential walk still undecided after {top} draws")

    def increments(self, xs) -> np.ndarray:
        """Per-observation log likelihood ratio contributions."""
        slope, offset = self.line
        return np.asarray(xs) * slope + offset


def run_sprt(spec: SprtSpec, stream) -> TestOutcome:
    """Consume observations until a boundary is crossed or the cap is hit.

    With a cap, hitting it forces a decision by the sign of the statistic
    (nonpositive accepts the null); the outcome is flagged as forced.
    """
    return run_plan(spec, stream)


def _log_mgf(spec: SprtSpec, theta: float, h: float) -> float:
    """log E[exp(h * increment)] at the true mean ``theta``.

    That is h * offset plus the cumulant generating function of X at
    t = h * slope, written with expm1/log1p near t = 0 and logaddexp
    elsewhere so the root search keeps precision on both ends.
    """
    slope, offset = spec.line
    t = h * slope
    if isinstance(spec.model, Poisson):
        return h * offset + theta * math.expm1(t)
    if not isinstance(spec.model, Bernoulli):
        raise DomainError(f"no moment generating function for model {spec.model!r}")
    if abs(t) < 1e-3:
        return h * offset + math.log1p(theta * math.expm1(t))
    return h * offset + float(np.logaddexp(math.log(theta) + t, math.log1p(-theta)))


def sprt_oc_asn(spec: SprtSpec, theta: float) -> tuple[float, float]:
    """Wald's approximate (acceptance probability, expected sample count).

    Both values ignore overshoot and any cap.  At the drift-free mean the
    limiting expressions are used.
    """
    from scipy.optimize import brentq

    spec.model.validate_theta(theta)
    log_a, log_b = spec.log_a, spec.log_b
    slope, offset = spec.line
    mean = theta * slope + offset  # of the increment X * slope + offset

    if abs(mean) < 1e-10:
        var_x = theta * (1.0 - theta) if isinstance(spec.model, Bernoulli) else theta
        oc = log_a / (log_a - log_b)
        asn = -(log_a * log_b) / (var_x * slope * slope + mean * mean)
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
