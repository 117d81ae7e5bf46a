"""Observation models whose sample mean drives the sequential tests.

Two discrete families are supported: Bernoulli trials with mean ``theta`` in
(0, 1) and Poisson counts with mean ``theta`` in (0, inf).  In both cases the
n-sample sum is a sufficient statistic (Binomial(n, theta) respectively
Poisson(n*theta)), so every exact computation in the package works on integer
sum counts.  Mass functions are evaluated in log space; the increment pmfs
behind the exact OC use Loader's (2000) saddle-point form, as R's
``dbinom``/``dpois`` do, which keeps full relative accuracy for increments
of thousands of samples where differences of ``gammaln`` values do not.  Tail
probabilities come in closed form from the regularized incomplete beta
and gamma functions (``bdtr``/``bdtrc`` and ``pdtr``/``pdtrc``), the
functions behind the Clopper-Pearson (1934) and Garwood (1936) limits:
``sum_tail`` evaluates Pr{S <= k} or Pr{S >= k} count by count on arrays
of n and k, accurate in relative terms far into either tail, so no upper
tail is ever formed as one minus a lower sum.

The large-deviation rate function appears here as ``chernoff(z, theta)``:
the infimum over the exponential tilt of the moment generating function,
evaluated in closed form for both families.  It lies in (0, 1] and equals 1
exactly when ``z == theta``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import bdtr, bdtrc, gammaln, pdtr, pdtrc, pdtrik, xlog1py, xlogy

from .errors import DomainError

__all__ = ["Bernoulli", "Poisson", "model_by_name"]

# Slack used when mapping a mean-scale threshold z onto integer sum counts.
# Support atoms arrive as k/n floats; n*(k/n) can miss k by a few ulp.
_COUNT_EPS = 1e-9


def _count_floor(x: float) -> int:
    """Largest integer <= x, tolerating float noise just below an integer."""
    if math.isinf(x):
        raise DomainError("threshold must be finite")
    return math.floor(x + _COUNT_EPS)


def _count_ceil(x: float) -> int:
    if math.isinf(x):
        raise DomainError("threshold must be finite")
    return math.ceil(x - _COUNT_EPS)


# stirlerr(k) = log k! - log(sqrt(2 pi k) (k/e)^k) for k = 0..15, exact to
# double precision (Loader 2000; R's sferr_halves at whole k).
_STIRLERR_EXACT = np.array([
    0.0, 0.0810614667953272582196702, 0.0413406959554092940938221,
    0.02767792568499833914878929, 0.02079067210376509311152277,
    0.01664469118982119216319487, 0.01387612882307074799874573,
    0.01189670994589177009505572, 0.010411265261972096497478567,
    0.009255462182712732917728637, 0.008330563433362871256469318,
    0.007573675487951840794972024, 0.006942840107209529865664152,
    0.006408994188004207068439631, 0.005951370112758847735624416,
    0.005554733551962801371038690,
])


def _stirling_series(k: np.ndarray) -> np.ndarray:
    """stirlerr(k) from the Stirling series, accurate to double precision for k >= 16."""
    nn = k * k
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / nn) / nn) / nn) / nn) / k


# stirlerr(k) for k = 0..4095, computed once.  The series would add about
# half to the cost of a pmf of tens of samples, the common increment; past
# a few thousand samples it is a few percent of the convolution it feeds.
_STIRLERR = np.concatenate((_STIRLERR_EXACT, _stirling_series(np.arange(16.0, 4096))))


def _stirlerr(top: int) -> np.ndarray:
    """stirlerr(k) for k = 0..top: the table, then the Stirling series."""
    if top < len(_STIRLERR):
        return _STIRLERR[:top + 1]
    return np.concatenate((_STIRLERR, _stirling_series(np.arange(float(len(_STIRLERR)), top + 1))))


# Smallest normal double: a Bernoulli increment below it is a point mass.
_NORMAL_MIN = float(np.finfo(float).tiny)


def _bd0(x, mu: float):
    """x log(x / mu) + mu - x, i.e. mu ((1 + d) log1p(d) - d) with d = (x - mu) / mu."""
    diff = x - mu
    return xlog1py(x, diff / mu) - diff


def _poisson_isf(q: float, mu: float) -> int:
    """Smallest k with Pr{Poisson(mu) > k} <= q.

    Follows scipy.stats.poisson.isf step for step (the ppf of 1 - q: round
    the inverse of the regularized gamma up, then step back one count if
    that still covers 1 - q), so cut-offs agree with it bit for bit without
    loading scipy.stats.
    """
    p = 1.0 - q
    vals = math.ceil(pdtrik(p, mu))
    vals1 = max(vals - 1, 0)
    return vals1 if pdtr(vals1, mu) >= p else vals


@dataclass(frozen=True)
class Bernoulli:
    """Bernoulli observations; the n-sample sum is Binomial(n, theta)."""

    name = "bernoulli"

    # Open parameter interval and the closed convex hull of the mean support.
    theta_lo = 0.0
    theta_hi = 1.0
    mean_hull = (0.0, 1.0)

    def validate_theta(self, theta: float, closed: bool = False) -> None:
        lo_ok = theta >= 0.0 if closed else theta > 0.0
        hi_ok = theta <= 1.0 if closed else theta < 1.0
        if not (lo_ok and hi_ok):
            raise DomainError(f"Bernoulli mean must lie in (0, 1), got {theta}")

    def sum_upper(self, n: int) -> int:
        """Largest sum count (the support is {0, ..., n})."""
        return n

    def log_pmf_sum(self, n: int, k, theta: float):
        """log Pr{sum = k} for Binomial(n, theta); vectorized over k."""
        k = np.asarray(k)
        valid = (k >= 0) & (k <= n)
        kk = np.where(valid, k, 0)
        out = (
            gammaln(n + 1.0)
            - gammaln(kk + 1.0)
            - gammaln(n - kk + 1.0)
            + xlogy(kk, theta)
            + xlogy(n - kk, 1.0 - theta)
        )
        return np.where(valid, out, -np.inf)

    def pmf_sum(self, n: int, k, theta: float):
        return np.exp(self.log_pmf_sum(n, k, theta))

    def sum_tail(self, n, k, theta: float, upper: bool = False):
        """Pr{sum <= k}, or Pr{sum >= k} when ``upper``; n and k broadcast.

        ``bdtr``/``bdtrc`` return NaN off the support, so counts below 0 and
        above n are clamped or settled here.
        """
        k = np.asarray(k)
        if upper:
            # Pr{S >= k} = Pr{S > k - 1}, which ``bdtrc`` puts at 1 for
            # k - 1 = -1 and at 0 for k - 1 = n
            return bdtrc(np.minimum(np.maximum(k - 1, -1), n), n, theta)
        return np.where(k < 0, 0.0, bdtr(np.minimum(np.maximum(k, 0), n), n, theta))

    def tail_lower(self, n: int, z: float, theta: float) -> float:
        """Pr{sample mean <= z} evaluated exactly."""
        return float(self.sum_tail(n, _count_floor(n * z), theta))

    def tail_upper(self, n: int, z: float, theta: float) -> float:
        """Pr{sample mean >= z} evaluated exactly."""
        return float(self.sum_tail(n, _count_ceil(n * z), theta, upper=True))

    def log_chernoff(self, z, theta: float):
        """log of the tilted-MGF infimum; vectorized over z in [0, 1]."""
        self.validate_theta(theta)
        z = np.asarray(z, dtype=float)
        if np.any((z < -_COUNT_EPS) | (z > 1.0 + _COUNT_EPS)):
            raise DomainError("z must lie in the mean hull [0, 1]")
        z = np.clip(z, 0.0, 1.0)
        out = (
            xlogy(z, theta)
            - xlogy(z, z)
            + xlogy(1.0 - z, 1.0 - theta)
            - xlogy(1.0 - z, 1.0 - z)
        )
        return out

    def chernoff(self, z, theta: float):
        val = np.exp(self.log_chernoff(z, theta))
        out = np.minimum(val, 1.0)
        return float(out) if np.isscalar(z) or np.asarray(z).ndim == 0 else out

    def increment_pmf(self, m: int, theta: float, tail_mass: float = 1e-15):
        """Distribution of a stage increment of m samples.

        Returns (probs, deficit): probs[d] = Pr{increment sum = d} and the
        mass discarded by truncation (always 0 here; the support is finite).
        Theta may be 0 or 1, giving a point mass.
        """
        probs = np.zeros(m + 1)
        if theta < _NORMAL_MIN or theta == 1.0:
            # a point mass; a subnormal theta would overflow bd0's ratio
            probs[0 if theta < 0.5 else m] = 1.0
            return probs, 0.0
        stirl = _stirlerr(m)
        k = np.arange(1.0, m)
        mk = m - k
        dev = _bd0(k, m * theta) + _bd0(mk, m * (1.0 - theta))
        probs[1:m] = (np.exp(stirl[m] - stirl[1:m] - stirl[m - 1:0:-1] - dev)
                      * np.sqrt(m / (2.0 * math.pi) / (k * mk)))
        probs[0] = math.exp(m * math.log1p(-theta))
        probs[m] = math.exp(m * math.log(theta))
        return probs, 0.0

    def draw(self, rng: np.random.Generator, size: int, theta: float):
        return (rng.random(size) < theta).astype(np.int64)


@dataclass(frozen=True)
class Poisson:
    """Poisson observations; the n-sample sum is Poisson(n * theta)."""

    name = "poisson"

    theta_lo = 0.0
    theta_hi = math.inf
    mean_hull = (0.0, math.inf)

    def validate_theta(self, theta: float, closed: bool = False) -> None:
        ok = theta >= 0.0 if closed else theta > 0.0
        if not ok or math.isinf(theta):
            raise DomainError(f"Poisson mean must lie in (0, inf), got {theta}")

    def sum_upper(self, n: int) -> None:
        return None  # unbounded support

    def log_pmf_sum(self, n: int, k, theta: float):
        k = np.asarray(k)
        mu = n * theta
        valid = k >= 0
        kk = np.where(valid, k, 0)
        out = xlogy(kk, mu) - mu - gammaln(kk + 1.0)
        return np.where(valid, out, -np.inf)

    def pmf_sum(self, n: int, k, theta: float):
        return np.exp(self.log_pmf_sum(n, k, theta))

    def sum_tail(self, n, k, theta: float, upper: bool = False):
        """Pr{sum <= k}, or Pr{sum >= k} when ``upper``; n and k broadcast.

        ``pdtr``/``pdtrc`` return NaN at negative counts, so those are
        settled here.
        """
        k = np.asarray(k)
        mu = np.asarray(n) * theta
        if upper:
            # Pr{S >= k} = Pr{S > k - 1}
            return np.where(k <= 0, 1.0, pdtrc(np.maximum(k - 1, 0), mu))
        return np.where(k < 0, 0.0, pdtr(np.maximum(k, 0), mu))

    def tail_lower(self, n: int, z: float, theta: float) -> float:
        return float(self.sum_tail(n, _count_floor(n * z), theta))

    def tail_upper(self, n: int, z: float, theta: float) -> float:
        return float(self.sum_tail(n, _count_ceil(n * z), theta, upper=True))

    def log_chernoff(self, z, theta: float):
        self.validate_theta(theta)
        z = np.asarray(z, dtype=float)
        if np.any(z < -_COUNT_EPS):
            raise DomainError("z must lie in the mean hull [0, inf)")
        z = np.maximum(z, 0.0)
        out = z - theta + xlogy(z, theta) - xlogy(z, z)
        return out

    def chernoff(self, z, theta: float):
        val = np.exp(self.log_chernoff(z, theta))
        out = np.minimum(val, 1.0)
        return float(out) if np.isscalar(z) or np.asarray(z).ndim == 0 else out

    def increment_pmf(self, m: int, theta: float, tail_mass: float = 1e-15):
        mu = m * theta
        # Smallest cutoff whose upper tail is at most tail_mass; the
        # discarded mass is reported analytically so the truncation slack
        # is certified rather than inferred from a float sum.
        k_hi = _poisson_isf(tail_mass, mu)
        k = np.arange(1.0, k_hi + 1)
        probs = np.empty(k_hi + 1)
        probs[0] = math.exp(-mu)
        probs[1:] = np.exp(-_stirlerr(k_hi)[1:] - _bd0(k, mu)) / np.sqrt(2.0 * math.pi * k)
        deficit = float(pdtrc(k_hi, mu))
        return probs, deficit

    def draw(self, rng: np.random.Generator, size: int, theta: float):
        return rng.poisson(theta, size).astype(np.int64)


_MODELS = {"bernoulli": Bernoulli(), "poisson": Poisson()}


def model_by_name(name: str):
    try:
        return _MODELS[name]
    except KeyError:
        raise DomainError(f"unknown model {name!r}; expected one of {sorted(_MODELS)}")
