"""Observation models whose sample mean drives the sequential tests.

Two discrete families are supported: Bernoulli trials with mean ``theta`` in
(0, 1) and Poisson counts with mean ``theta`` in (0, inf).  In both cases the
n-sample sum is a sufficient statistic (Binomial(n, theta) respectively
Poisson(n*theta)), so every exact computation in the package works on integer
sum counts.  Every mass comes from Loader's (2000) saddle-point form, as in
R's ``dbinom``/``dpois`` (``_binom_pmf``, ``_poisson_pmf``), which keeps
full relative accuracy for sums of thousands of samples.  ``increment_pmf``
gives the pmf of an m-sample increment at a scalar theta, or its rows at a
1-D array of thetas from one vectorized call, zero-padded to the widest
row; either way a row holds the same bits.  ``log_lr_line``
is the log likelihood ratio of two means as a line in the observation;
``lr_count`` rounds it to counts, for the SPRT and the one-sided tie rule
alike.  Tail
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
from scipy.special import bdtr, bdtrc, pdtr, pdtrc, pdtrik, xlog1py, xlogy

from .errors import DomainError

__all__ = ["Bernoulli", "Poisson", "lr_count", "model_by_name"]

# Slack used when mapping a mean-scale threshold z onto integer sum counts.
# Support atoms arrive as k/n floats; n*(k/n) can miss k by a few ulp.
_COUNT_EPS = 1e-9
# Upper-tail mass a Poisson increment pmf may drop; the dropped mass is
# reported with the pmf.
_TAIL_MASS = 1e-15


def _count_floor(x: float) -> int:
    """Largest integer <= x, tolerating float noise just below an integer."""
    if math.isinf(x):
        raise DomainError("threshold must be finite")
    return math.floor(x + _COUNT_EPS)


def _count_ceil(x: float) -> int:
    if math.isinf(x):
        raise DomainError("threshold must be finite")
    return math.ceil(x - _COUNT_EPS)


def lr_count(line: tuple[float, float], n, t: float, at_least: bool = False):
    """The largest count k whose ratio ``k * slope + n * offset`` is at most
    t or, ``at_least``, the smallest at least t, with the ``_COUNT_EPS``
    slack; (slope, offset) = ``line`` from ``log_lr_line``, n an int or an
    int array."""
    slope, offset = line
    x = (t - n * offset) / slope
    k = np.ceil(x - _COUNT_EPS) if at_least else np.floor(x + _COUNT_EPS)
    return k.astype(np.int64)


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


def _bd0(x, mu):
    """x log(x / mu) + mu - x, i.e. mu ((1 + d) log1p(d) - d) with d = (x - mu) / mu."""
    diff = x - mu
    return xlog1py(x, diff / mu) - diff


def _binom_pmf(n: int, theta, k):
    """Pr{Binomial(n, theta) = k} in Loader's form, for float counts 0 < k < n;
    k and theta broadcast."""
    stirl = _stirlerr(n)
    at = k.astype(np.intp)
    nk = n - k
    dev = _bd0(k, n * theta) + _bd0(nk, n * (1.0 - theta))
    # stirl[::-1][at] is stirlerr(n - k)
    return (np.exp(stirl[n] - stirl[at] - stirl[::-1][at] - dev)
            * np.sqrt(n / (2.0 * math.pi) / (k * nk)))


def _poisson_pmf(mu, top: int, k):
    """Pr{Poisson(mu) = k} in Loader's form, for float counts 0 < k <= top;
    k and mu broadcast."""
    return np.exp(-_stirlerr(top)[k.astype(np.intp)] - _bd0(k, mu)) / np.sqrt(2.0 * math.pi * k)


def _binom_ends(m: int, theta: float) -> tuple[float, float]:
    """(Pr{S = 0}, Pr{S = m}) for S ~ Binomial(m, theta), 0 < theta < 1, by
    libm: numpy's ``exp`` and ``log1p`` need not round as libm does."""
    return math.exp(m * math.log1p(-theta)), math.exp(m * math.log(theta))


def _poisson_isf(q: float, mu):
    """Smallest k with Pr{Poisson(mu) > k} <= q, per mean in the array ``mu``.

    Follows scipy.stats.poisson.isf step for step (the ppf of 1 - q: round
    the inverse of the regularized gamma up, then step back one count if
    that still covers 1 - q), so cut-offs agree with it bit for bit without
    loading scipy.stats.  Needs 1 - q < 1.
    """
    p = 1.0 - q
    if not p < 1.0:
        raise DomainError(f"tail mass {q} is too small for a Poisson quantile")
    vals = np.ceil(pdtrik(p, mu))
    # pdtr is NaN at -1, so a zero never steps back
    return (vals - (pdtr(vals - 1.0, mu) >= p)).astype(np.int64)


@dataclass(frozen=True)
class Bernoulli:
    """Bernoulli observations; the n-sample sum is Binomial(n, theta)."""

    name = "bernoulli"

    def validate_theta(self, theta: float, closed: bool = False) -> None:
        lo_ok = theta >= 0.0 if closed else theta > 0.0
        hi_ok = theta <= 1.0 if closed else theta < 1.0
        if not (lo_ok and hi_ok):
            hull = "[0, 1]" if closed else "(0, 1)"
            raise DomainError(f"Bernoulli mean must lie in {hull}, got {theta}")

    def sum_upper(self, n: int) -> int:
        """Largest sum count (the support is {0, ..., n})."""
        return n

    def pmf_sum(self, n: int, k, theta):
        """Pr{sum = k} at integer counts k; k and theta broadcast.  Each value is
        the one ``increment_pmf(n, theta)`` holds at k, so theta may be 0, 1
        or subnormal (a point mass)."""
        k, theta = np.asarray(k), np.asarray(theta, dtype=float)
        point = (theta < _NORMAL_MIN) | (theta == 1.0)
        inner = (k > 0) & (k < n)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            out = _binom_pmf(n, np.where(point, 0.5, theta), np.where(inner, k, 0.0))
        # libm raises where numpy gives NaN: past 1, so take NaN there
        lo, hi = np.frompyfunc(lambda t: _binom_ends(n, t), 1, 2)(
            np.where(point | (theta > 1.0), np.nan, theta))
        ends = np.where(k == n, np.asarray(hi, dtype=float), np.asarray(lo, dtype=float))
        out = np.where(inner, out, np.where((k == 0) | (k == n), ends, 0.0))
        return np.where(point, k == np.where(theta < 0.5, 0, n), out)

    def log_pmf_sum(self, n: int, k, theta):
        """log of ``pmf_sum``: -inf where the mass underflows."""
        with np.errstate(divide="ignore"):
            return np.log(self.pmf_sum(n, k, theta))

    def log_lr_line(self, theta0: float, theta1: float) -> tuple[float, float]:
        """(slope, offset): log f(x; theta1) - log f(x; theta0) = x * slope + offset."""
        return (math.log(theta1) - math.log(theta0) + math.log1p(-theta0) - math.log1p(-theta1),
                math.log1p(-theta1) - math.log1p(-theta0))

    def sum_tail(self, n, k, theta: float, upper: bool = False):
        """Pr{sum <= k}, or Pr{sum >= k} when ``upper``; n and k broadcast,
        and scalar n and k give a float64 scalar.

        ``bdtr``/``bdtrc`` return NaN off the support, so counts below 0 and
        above n are clamped or settled here.
        """
        k = np.asarray(k)
        if upper:
            # Pr{S >= k} = Pr{S > k - 1}, which ``bdtrc`` puts at 1 for
            # k - 1 = -1 and at 0 for k - 1 = n
            return bdtrc(np.minimum(np.maximum(k - 1, -1), n), n, theta)
        # [()] turns a 0-d result into a scalar and leaves arrays as they are
        return np.where(k < 0, 0.0, bdtr(np.minimum(np.maximum(k, 0), n), n, theta))[()]

    def tail_lower(self, n: int, z: float, theta: float) -> float:
        """Pr{sample mean <= z} evaluated exactly.  The library no longer
        calls it (the limits test ``sum_tail`` at the count z maps to); it
        stays for tests and the benchmark's tracer."""
        return float(self.sum_tail(n, _count_floor(n * z), theta))

    def tail_upper(self, n: int, z: float, theta: float) -> float:
        """Pr{sample mean >= z} evaluated exactly; no longer called by the
        library, kept like ``tail_lower``."""
        return float(self.sum_tail(n, _count_ceil(n * z), theta, upper=True))

    def log_chernoff(self, z, theta: float):
        """log of the tilted-MGF infimum; vectorized over z in [0, 1]."""
        self.validate_theta(theta)
        return self._log_rate(self._hull(z), theta)

    def _hull(self, z):
        """z clipped to the mean hull [0, 1], a float64 scalar for a scalar
        z; a DomainError past the float noise of a count over n."""
        z = np.asarray(z, dtype=float)
        if np.any((z < -_COUNT_EPS) | (z > 1.0 + _COUNT_EPS)):
            raise DomainError("z must lie in the mean hull [0, 1]")
        return np.clip(z, 0.0, 1.0)[()]

    @staticmethod
    def _log_rate(z, theta: float):
        """``log_chernoff`` without its checks: z in the hull, 0 < theta < 1."""
        return (
            xlogy(z, theta)
            - xlogy(z, z)
            + xlogy(1.0 - z, 1.0 - theta)
            - xlogy(1.0 - z, 1.0 - z)
        )

    def chernoff(self, z, theta: float):
        val = np.exp(self.log_chernoff(z, theta))
        out = np.minimum(val, 1.0)
        return float(out) if np.isscalar(z) or np.asarray(z).ndim == 0 else out

    def increment_pmf(self, m: int, theta):
        """Distribution of a stage increment of m samples.

        For a scalar theta, returns (probs, deficit): probs[d] = Pr{increment
        sum = d} and the mass discarded by truncation (always 0 here; the
        support is finite).  For a 1-D array of thetas, returns a (rows,
        m + 1) array, one row per theta, and a (rows,) array of deficits;
        each row equals the scalar call's bit for bit.  Theta may be 0 or 1,
        giving a point mass.
        """
        if isinstance(theta, np.ndarray) and theta.ndim:
            point = (theta < _NORMAL_MIN) | (theta == 1.0)
            probs = np.zeros((len(theta), m + 1))
            probs[:, 1:m] = _binom_pmf(m, np.where(point, 0.5, theta)[:, None], np.arange(1.0, m))
            probs[point] = 0.0
            # the end masses by libm, row by row, as the scalar call takes them
            probs[:, 0], probs[:, m] = zip(*[(float(t < 0.5), float(t >= 0.5)) if at
                                             else _binom_ends(m, t)
                                             for t, at in zip(theta.tolist(), point.tolist())])
            return probs, np.zeros(len(theta))
        probs = np.zeros(m + 1)
        if theta < _NORMAL_MIN or theta == 1.0:
            # a point mass; a subnormal theta would overflow bd0's ratio
            probs[0 if theta < 0.5 else m] = 1.0
            return probs, 0.0
        probs[1:m] = _binom_pmf(m, theta, np.arange(1.0, m))
        probs[0], probs[m] = _binom_ends(m, theta)
        return probs, 0.0

    def draw(self, rng: np.random.Generator, size: int, theta: float):
        return (rng.random(size) < theta).astype(np.int64)


@dataclass(frozen=True)
class Poisson:
    """Poisson observations; the n-sample sum is Poisson(n * theta)."""

    name = "poisson"

    def validate_theta(self, theta: float, closed: bool = False) -> None:
        ok = theta >= 0.0 if closed else theta > 0.0
        if not ok or math.isinf(theta):
            hull = "[0, inf)" if closed else "(0, inf)"
            raise DomainError(f"Poisson mean must lie in {hull}, got {theta}")

    def sum_upper(self, n: int) -> None:
        return None  # unbounded support

    def pmf_sum(self, n: int, k, theta):
        """Pr{sum = k} at integer counts k; k and theta broadcast."""
        k, mu = np.asarray(k), n * np.asarray(theta, dtype=float)
        pos = k > 0
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            out = _poisson_pmf(mu, int(k.max(initial=1)), np.where(pos, k, 1.0))
        # Pr{sum = 0} by libm, as ``increment_pmf`` takes it
        zero = np.asarray(np.frompyfunc(math.exp, 1, 1)(-mu), dtype=float)
        return np.where(pos, out, np.where(k == 0, zero, 0.0))

    def log_pmf_sum(self, n: int, k, theta):
        """log of ``pmf_sum``: -inf where the mass underflows."""
        with np.errstate(divide="ignore"):
            return np.log(self.pmf_sum(n, k, theta))

    def log_lr_line(self, theta0: float, theta1: float) -> tuple[float, float]:
        """(slope, offset): log f(x; theta1) - log f(x; theta0) = x * slope + offset."""
        return math.log(theta1) - math.log(theta0), theta0 - theta1

    def sum_tail(self, n, k, theta: float, upper: bool = False):
        """Pr{sum <= k}, or Pr{sum >= k} when ``upper``; n and k broadcast,
        and scalar n and k give a float64 scalar.

        ``pdtr``/``pdtrc`` return NaN at negative counts, so those are
        settled here.
        """
        k = np.asarray(k)
        mu = np.asarray(n) * theta
        if upper:
            # Pr{S >= k} = Pr{S > k - 1}
            return np.where(k <= 0, 1.0, pdtrc(np.maximum(k - 1, 0), mu))[()]
        return np.where(k < 0, 0.0, pdtr(np.maximum(k, 0), mu))[()]

    def tail_lower(self, n: int, z: float, theta: float) -> float:
        """Pr{sample mean <= z}; no longer called by the library, kept like
        ``Bernoulli.tail_lower``."""
        return float(self.sum_tail(n, _count_floor(n * z), theta))

    def tail_upper(self, n: int, z: float, theta: float) -> float:
        """Pr{sample mean >= z}; no longer called by the library, kept like
        ``Bernoulli.tail_lower``."""
        return float(self.sum_tail(n, _count_ceil(n * z), theta, upper=True))

    def log_chernoff(self, z, theta: float):
        self.validate_theta(theta)
        return self._log_rate(self._hull(z), theta)

    def _hull(self, z):
        """z clipped to the mean hull [0, inf), like ``Bernoulli._hull``."""
        z = np.asarray(z, dtype=float)
        if np.any(z < -_COUNT_EPS):
            raise DomainError("z must lie in the mean hull [0, inf)")
        return np.maximum(z, 0.0)[()]

    @staticmethod
    def _log_rate(z, theta: float):
        """``log_chernoff`` without its checks: z in the hull, theta > 0."""
        return z - theta + xlogy(z, theta) - xlogy(z, z)

    def chernoff(self, z, theta: float):
        val = np.exp(self.log_chernoff(z, theta))
        out = np.minimum(val, 1.0)
        return float(out) if np.isscalar(z) or np.asarray(z).ndim == 0 else out

    def increment_pmf(self, m: int, theta):
        """Distribution of a stage increment of m samples, truncated at the
        smallest count whose upper tail is at most 1e-15.

        For a scalar theta, returns (probs, deficit): probs[d] = Pr{increment
        sum = d} up to the cut-off and the discarded upper-tail mass, given
        analytically so the truncation slack is certified rather than
        inferred from a float sum.  For a 1-D array of thetas, returns a
        (rows, taps) array, one row per theta zero-padded past its own
        cut-off to the widest row, and a (rows,) array of deficits; each row
        equals the scalar call's bit for bit.
        """
        if isinstance(theta, np.ndarray) and theta.ndim:
            mus = m * theta
            k_his = _poisson_isf(_TAIL_MASS, mus)
            top = int(k_his.max())
            ks = np.arange(1.0, top + 1)
            probs = np.empty((len(mus), top + 1))
            probs[:, 0] = [math.exp(-mu) for mu in mus.tolist()]
            probs[:, 1:] = np.where(ks <= k_his[:, None], _poisson_pmf(mus[:, None], top, ks), 0.0)
            return probs, pdtrc(k_his, mus)
        mu = m * theta
        k_hi = int(_poisson_isf(_TAIL_MASS, mu))
        probs = np.empty(k_hi + 1)
        probs[0] = math.exp(-mu)
        probs[1:] = _poisson_pmf(mu, k_hi, np.arange(1.0, k_hi + 1))
        return probs, float(pdtrc(k_hi, mu))

    def draw(self, rng: np.random.Generator, size: int, theta: float):
        return rng.poisson(theta, size).astype(np.int64)


_MODELS = {"bernoulli": Bernoulli(), "poisson": Poisson()}


def model_by_name(name: str):
    try:
        return _MODELS[name]
    except KeyError:
        raise DomainError(f"unknown model {name!r}; expected one of {sorted(_MODELS)}")
