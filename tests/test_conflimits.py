"""Confidence-limit families and crossing equivalences."""

import math

import numpy as np
import pytest
from scipy import stats
from scipy.optimize import brentq
from scipy.special import betaincinv, ndtri

from seqtest.conflimits import (
    BISECT_TOL,
    ApproxLimits,
    ChernoffLimits,
    ExactLimits,
    LimitValue,
    family_by_tag,
)
from seqtest.errors import DomainError
from seqtest.models import Bernoulli, Poisson, _count_ceil, _count_floor
from seqtest.plans import build_stage_rule

BERN = Bernoulli()
POIS = Poisson()
EXACT = ExactLimits()
CHER = ChernoffLimits()


class TestExactLimits:
    def test_all_successes_closed_form(self):
        # lower limit for 3 successes out of 3 solves p^3 = delta
        assert EXACT.lower(BERN, 3, 1.0, 0.05) == pytest.approx(0.05 ** (1 / 3),
                                                                abs=1e-11)

    def test_single_failure_upper(self):
        assert EXACT.upper(BERN, 1, 0.0, 0.05) == pytest.approx(0.95, abs=1e-11)

    def test_poisson_zero_count_upper(self):
        assert EXACT.upper(POIS, 1, 0.0, 0.05) == pytest.approx(-math.log(0.05),
                                                                abs=1e-10)

    def test_boundary_results_are_flagged(self):
        lo = EXACT.lower_detail(BERN, 5, 0.0, 0.1)
        up = EXACT.upper_detail(BERN, 5, 1.0, 0.1)
        assert (lo.value, lo.at_boundary) == (0.0, True)
        assert (up.value, up.at_boundary) == (1.0, True)
        inner = EXACT.lower_detail(BERN, 5, 0.6, 0.1)
        assert not inner.at_boundary

    def test_matches_beta_quantile_form(self):
        """Bernoulli exact limits equal the classical beta-quantile limits."""
        for n in (4, 11, 25):
            for k in range(n + 1):
                for d in (0.2, 0.05, 0.01):
                    lo = EXACT.lower(BERN, n, k / n, d)
                    up = EXACT.upper(BERN, n, k / n, d)
                    cp_lo = stats.beta.ppf(d, k, n - k + 1) if k > 0 else 0.0
                    cp_up = stats.beta.ppf(1 - d, k + 1, n - k) if k < n else 1.0
                    assert lo == pytest.approx(cp_lo, abs=2e-12)
                    assert up == pytest.approx(cp_up, abs=2e-12)

    def test_matches_chi_square_quantile_form(self):
        """Poisson exact limits equal the classical chi-square limits."""
        for n in (1, 3, 8):
            for k in range(4 * n + 1):
                for d in (0.2, 0.05):
                    lo = EXACT.lower(POIS, n, k / n, d)
                    up = EXACT.upper(POIS, n, k / n, d)
                    g_lo = stats.chi2.ppf(d, 2 * k) / 2 / n if k > 0 else 0.0
                    g_up = stats.chi2.ppf(1 - d, 2 * k + 2) / 2 / n
                    assert lo == pytest.approx(g_lo, abs=2e-12)
                    assert up == pytest.approx(g_up, abs=2e-12)

    def test_rejects_bad_delta(self):
        with pytest.raises(DomainError):
            EXACT.lower(BERN, 5, 0.4, 0.0)
        with pytest.raises(DomainError):
            EXACT.upper(BERN, 5, 0.4, 1.0)


class TestChernoffLimits:
    def test_limits_bracket_the_observation(self):
        for n in (2, 10, 40):
            for k in range(n + 1):
                z = k / n
                lo = CHER.lower(BERN, n, z, 0.1)
                up = CHER.upper(BERN, n, z, 0.1)
                assert lo <= z + 1e-12
                assert up >= z - 1e-12

    def test_against_relative_entropy_root(self):
        """Independent oracle: solve the entropy equation with brentq."""

        def kl(z, t):
            return z * math.log(z / t) + (1 - z) * math.log((1 - z) / (1 - t))

        target = math.log(1 / 0.1) / 10
        lo_oracle = brentq(lambda t: kl(0.5, t) - target, 1e-9, 0.5 - 1e-12,
                           xtol=1e-14)
        up_oracle = brentq(lambda t: kl(0.5, t) - target, 0.5 + 1e-12, 1 - 1e-9,
                           xtol=1e-14)
        assert CHER.lower(BERN, 10, 0.5, 0.1) == pytest.approx(lo_oracle, abs=1e-11)
        assert CHER.upper(BERN, 10, 0.5, 0.1) == pytest.approx(up_oracle, abs=1e-11)

    def test_interval_contains_exact_interval(self):
        """The entropy-bound interval is conservative relative to the exact one."""
        for n in (5, 20):
            for k in range(n + 1):
                z = k / n
                for d in (0.1, 0.01):
                    assert CHER.lower(BERN, n, z, d) <= EXACT.lower(BERN, n, z, d) + 1e-10
                    assert CHER.upper(BERN, n, z, d) >= EXACT.upper(BERN, n, z, d) - 1e-10

    def test_empty_side_returns_flagged_boundary(self):
        lo = CHER.lower_detail(BERN, 5, 0.0, 0.1)
        assert (lo.value, lo.at_boundary) == (0.0, True)

@pytest.mark.parametrize("side", ["lower_detail", "upper_detail"])
@pytest.mark.parametrize("family", [EXACT, CHER, ApproxLimits(0.5)], ids=lambda f: f.tag)
class TestMeanOffTheHull:
    """Every family refuses a mean off the model's hull on either side.
    Chernoff once answered one side with a flagged boundary; the exact
    family gave unflagged values (a Bernoulli 1.5 lower limit of
    0.9999999999990905, a -0.5 upper one of 9.09e-13) and the approximate
    one NaN."""

    @pytest.mark.parametrize("model, z", [(BERN, 1.5), (BERN, -0.5), (POIS, -0.5)],
                             ids=["bernoulli-above", "bernoulli-below", "poisson-below"])
    def test_raises(self, family, side, model, z):
        with pytest.raises(DomainError, match="mean hull"):
            getattr(family, side)(model, 4, z, 0.1)

    def test_float_noise_of_a_count_over_n_is_on_the_hull(self, family, side):
        for model, z in ((BERN, 1.0 + 1e-12), (BERN, -1e-12), (POIS, -1e-12)):
            value, flagged = getattr(family, side)(model, 3, z, 0.1)
            assert math.isfinite(value)
            # the exact and Chernoff limits toward the end the mean sits at
            # return that end, flagged
            if family.tag != "approx" and (side == "upper_detail") == (z > 0.5):
                assert (value, flagged) == (float(z > 0.5), True)

    @pytest.mark.parametrize("model, z, end", [(BERN, 1.0 + 1e-10, 1.0), (BERN, -1e-10, 0.0),
                                               (POIS, -1e-10, 0.0)],
                             ids=["bernoulli-above", "bernoulli-below", "poisson-below"])
    def test_float_noise_off_the_hull_limits_as_the_end(self, family, side, model, z, end):
        # The approximate family once put its roots around the unclipped mean:
        # a Bernoulli upper limit of 0.9999999999 at 1 + 1e-10, below the mean,
        # and a lower one of 1.0e-10 at -1e-10, above it.  The exact family
        # counted n * z past n, and 37 * (1 + 1e-10) gave a lower limit of
        # 0.9999999999990905 for 0.9222252889940137.
        for n in (1, 10, 37):
            assert getattr(family, side)(model, n, z, 0.05) == \
                getattr(family, side)(model, n, end, 0.05)
        if side == ("upper_detail" if end else "lower_detail"):
            assert getattr(family, side)(model, 10, z, 0.05).value == end


def plain_edge(low_side, model, z, lo=0.0, hi=None, upper=False):
    """Bisection from the whole bracket, as the limits ran before they
    started from a closed-form guess: every doubling point and every
    midpoint is evaluated."""
    if hi is None and isinstance(model, Bernoulli):
        hi = 1.0
    elif hi is None:
        hi = 2.0 * max(z, 1.0)
        while low_side(hi):
            hi *= 2.0
    it = 0
    while hi - lo > BISECT_TOL and it < 200:
        mid = 0.5 * (lo + hi)
        if low_side(mid):
            lo = mid
        else:
            hi = mid
        it += 1
    return LimitValue(hi if upper else lo, False)


def plain_limit(family, model, n, z, delta, lower):
    """The oracle limit: each family's test bisected by ``plain_edge``, the
    Chernoff test through the checked ``log_chernoff`` with its flank."""
    bounded = isinstance(model, Bernoulli)
    if isinstance(family, ExactLimits):
        if lower:
            k = _count_ceil(n * z)
            crossed = lambda th: model.sum_tail(n, k, th, upper=True) <= delta
            if not crossed(0.0):
                return LimitValue(0.0, True)
            return plain_edge(crossed, model, z)
        k = _count_floor(n * z)
        below = lambda th: not model.sum_tail(n, k, th) <= delta
        if bounded and below(1.0):
            return LimitValue(1.0, True)
        return plain_edge(below, model, z, upper=True)
    if lower:
        if z <= 0.0:
            return LimitValue(0.0, True)
        crossed = lambda th: z >= th and n * model.log_chernoff(z, th) <= math.log(delta)
        return plain_edge(crossed, model, z, hi=min(z, 1.0) if bounded else z)
    if bounded and z >= 1.0:
        return LimitValue(1.0, True)
    below = lambda th: not (z <= th and n * model.log_chernoff(z, th) <= math.log(delta))
    return plain_edge(below, model, z, lo=max(z, 0.0), upper=True)


DENSE_DELTAS = (1e-300, 1e-15, 1e-12, 0.05, 0.5, 0.999999)


def dense_cases(model, count, seed):
    """(n, mean, delta): n up to 20,000, means on support atoms and between
    them, both ends of the support included."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, 20_001)) if rng.random() < 0.5 else int(
            rng.choice([1, 2, 3, 5, 17, 60, 400, 3000, 20_000]))
        top = n if isinstance(model, Bernoulli) else 4 * n + 3
        k = int(rng.integers(0, top + 1))
        z = k / n if k == top or rng.random() < 0.5 else (k + rng.random()) / n
        yield n, z, float(rng.choice(DENSE_DELTAS))


class TestSameBitsAsPlainBisection:
    """The closed-form bracket of the exact family and the cheap probe of
    the Chernoff family leave every limit where plain bisection puts it."""

    @pytest.mark.parametrize("model", [BERN, POIS], ids=["bernoulli", "poisson"])
    @pytest.mark.parametrize("family", [EXACT, CHER], ids=["exact", "chernoff"])
    def test_dense_random_cases(self, family, model):
        moved = []
        for n, z, delta in dense_cases(model, 2000, seed=20 + 2 * (family is CHER)):
            for lower, detail in ((True, family.lower_detail), (False, family.upper_detail)):
                got, want = detail(model, n, z, delta), plain_limit(family, model, n, z,
                                                                    delta, lower)
                if (got.value.hex(), got.at_boundary) != (want.value.hex(), want.at_boundary):
                    moved.append((n, z, delta, lower, got, want))
        assert moved == []

    # The exact tail test flips back and forth within a few ulps of its
    # edge at about one root in ten.  Each of these limits moved when the
    # answers past the points tested near the guess were taken as known
    # with no margin.
    NOISY_EDGES = [
        (BERN, False, 2956, 0.38227334235453314, 0.46639594307960874),
        (BERN, False, 20000, 0.4786, 0.02726422104899573),
        (BERN, True, 17663, 0.6934269376663081, 2.5102414220942315e-07),
        (POIS, False, 5, 10.576325994971526, 1.003282869243576e-06),
        (POIS, True, 5, 3.0, 0.2495491075709031),
        (POIS, False, 3000, 1.1966666666666668, 1.4918970839362485e-272),
        (POIS, True, 2, 5.5, 0.9142994228297637),
        (POIS, True, 8931, 0.1821744485499944, 1.0351503964004657e-220),
    ]

    @pytest.mark.parametrize("model, lower, n, z, delta", NOISY_EDGES)
    def test_exact_edges_with_a_noisy_test(self, model, lower, n, z, delta):
        detail = EXACT.lower_detail if lower else EXACT.upper_detail
        got, want = detail(model, n, z, delta), plain_limit(EXACT, model, n, z, delta, lower)
        assert (got.value.hex(), got.at_boundary) == (want.value.hex(), want.at_boundary)


def counting_tails(monkeypatch, model):
    """Count ``sum_tail`` calls on the model's class from here on."""
    calls = [0]
    inner = type(model).sum_tail

    def counted(self, *args, **kwargs):
        calls[0] += 1
        return inner(self, *args, **kwargs)

    monkeypatch.setattr(type(model), "sum_tail", counted)
    return calls


class TestProbeBudget:
    """Tail probes per exact limit, counted as ``sum_tail`` calls."""

    # The guess and at most eight steps from it.
    CAP = 9

    def probes(self, calls, run):
        calls[0] = 0
        value = run()
        return calls[0], value

    @pytest.mark.parametrize("model", [BERN, POIS], ids=["bernoulli", "poisson"])
    def test_small_grid_mean(self, monkeypatch, model):
        calls = counting_tails(monkeypatch, model)
        counts = []
        for n in (1, 2, 5, 10, 20, 50, 100):
            for k in range(0, n + 1, max(1, n // 5)):
                for delta in (1e-12, 0.05, 0.5):
                    for detail in (EXACT.lower_detail, EXACT.upper_detail):
                        count, limit = self.probes(calls, lambda: detail(model, n, k / n, delta))
                        if not limit.at_boundary:
                            counts.append(count)
        assert np.mean(counts) <= 6

    @pytest.mark.parametrize("model", [BERN, POIS], ids=["bernoulli", "poisson"])
    def test_never_far_above_plain_bisection(self, monkeypatch, model):
        calls = counting_tails(monkeypatch, model)
        for n, z, delta in dense_cases(model, 300, seed=7):
            for lower, detail in ((True, EXACT.lower_detail), (False, EXACT.upper_detail)):
                new, _ = self.probes(calls, lambda: detail(model, n, z, delta))
                old, _ = self.probes(calls, lambda: plain_limit(EXACT, model, n, z, delta, lower))
                assert new <= old + self.CAP, (n, z, delta, lower)

    def test_nan_and_far_guesses(self, monkeypatch):
        """betaincinv(2, 49, 1e-300) is NaN, so that limit bisects as plain
        bisection does; betaincinv(170, 31, 1e-300) lies 1.3e-3 off the root."""
        calls = counting_tails(monkeypatch, BERN)
        for n, k in ((50, 2), (200, 170)):
            new, _ = self.probes(calls, lambda: EXACT.lower_detail(BERN, n, k / n, 1e-300))
            old, _ = self.probes(calls, lambda: plain_limit(EXACT, BERN, n, k / n, 1e-300, True))
            nan_guess = math.isnan(betaincinv(k, n - k + 1, 1e-300))
            assert new <= old + (0 if nan_guess else self.CAP)


class TestApproxLimits:
    @pytest.mark.parametrize("w", [-0.1, 1.5, math.nan])
    def test_weight_outside_the_unit_interval_is_refused(self, w):
        with pytest.raises(DomainError, match=r"blend weight w must lie in \[0, 1\]"):
            ApproxLimits(w)

    def test_weight_zero_is_wald(self):
        Z = ndtri(1 - 0.05 / 2)
        fam = ApproxLimits(0.0)
        half = Z * math.sqrt(0.25 / 100)
        assert fam.lower(BERN, 100, 0.5, 0.05) == pytest.approx(0.5 - half, abs=1e-12)
        assert fam.upper(BERN, 100, 0.5, 0.05) == pytest.approx(0.5 + half, abs=1e-12)

    def test_weight_one_is_score(self):
        """Full weight reproduces the Wilson quadratic roots."""
        Z = ndtri(1 - 0.05 / 2)
        c = Z * Z
        n, z = 100, 0.5
        disc = math.sqrt(c * c + 4 * c * n * z * (1 - z))
        lo = (c + 2 * n * z - disc) / (2 * (c + n))
        hi = (c + 2 * n * z + disc) / (2 * (c + n))
        fam = ApproxLimits(1.0)
        assert fam.lower(BERN, n, z, 0.05) == pytest.approx(lo, abs=1e-12)
        assert fam.upper(BERN, n, z, 0.05) == pytest.approx(hi, abs=1e-12)

    def test_zero_observation_lower_is_zero(self):
        assert ApproxLimits(1.0).lower(BERN, 20, 0.0, 0.05) == 0.0
        assert ApproxLimits(0.0).lower(BERN, 20, 0.0, 0.05) == 0.0

    def test_limits_clamp_to_parameter_space(self):
        fam = ApproxLimits(0.0)
        assert fam.lower(BERN, 4, 0.0, 0.05) >= 0.0
        assert fam.upper(BERN, 4, 1.0, 0.05) <= 1.0

    def test_intermediate_weight_between_endpoints(self):
        mid = ApproxLimits(0.5).lower(BERN, 100, 0.5, 0.05)
        wald = ApproxLimits(0.0).lower(BERN, 100, 0.5, 0.05)
        score = ApproxLimits(1.0).lower(BERN, 100, 0.5, 0.05)
        assert min(wald, score) <= mid <= max(wald, score)

    def test_tiny_delta_gives_finite_limits(self):
        # 1 - delta / 2 rounds to 1 here, which made the critical value inf
        for model, z in ((BERN, 0.3), (POIS, 2.0)):
            lo, hi = ApproxLimits(0.5).pair(model, 8, z, 1e-20)
            assert 0.0 <= lo <= z <= hi < math.inf
        rule = build_stage_rule(POIS, ApproxLimits(0.5), 8, [1.0], [2.0], [1e-20], [1e-20])
        assert rule.n == 8

    def test_poisson_limits_bracket_observation(self):
        for w in (0.0, 0.5, 1.0):
            fam = ApproxLimits(w)
            for z in (0.5, 2.0, 7.0):
                assert fam.lower(POIS, 9, z, 0.1) <= z
                assert fam.upper(POIS, 9, z, 0.1) >= z

    def test_coverage_reported_not_asserted(self):
        """Empirical coverage of the approximate family, printed for reference."""
        worst = 0.0
        for w in (0.0, 1.0):
            fam = ApproxLimits(w)
            for n in (10, 30):
                ks = np.arange(n + 1)
                los = np.array([fam.lower(BERN, n, k / n, 0.1) for k in ks])
                ups = np.array([fam.upper(BERN, n, k / n, 0.1) for k in ks])
                for theta in np.arange(0.05, 0.96, 0.05):
                    mass = stats.binom.pmf(ks, n, theta)
                    worst = max(worst,
                                mass[los >= theta].sum() - 0.1,
                                mass[ups <= theta].sum() - 0.1)
        # the degenerate all-successes Wald interval makes this large; that is
        # a known limitation of the family, recorded rather than bounded
        print(f"worst approximate-family coverage violation: {worst:.4f}")
        assert 0.0 <= worst <= 1.0


class TestCrossing:
    def test_exact_lower_crossing_example(self):
        assert EXACT.support_lower_crossed(BERN, 3, 3, 0.36, 0.05)
        assert EXACT.lower(BERN, 3, 1.0, 0.05) >= 0.36

    def test_chernoff_side_condition_blocks_lower(self):
        assert not CHER.support_lower_crossed(BERN, 10, 3, 0.5, 0.1)

    def test_tail_value_decides_at_reference(self):
        # with a single observation, the tail at the reference IS the reference
        assert EXACT.support_lower_crossed(BERN, 1, 1, 0.4, 0.5)
        assert not EXACT.support_lower_crossed(BERN, 1, 1, 0.6, 0.5)

    @pytest.mark.parametrize("family", [pytest.param(EXACT, marks=pytest.mark.slow),
                                        pytest.param(CHER, marks=pytest.mark.slow),
                                        ApproxLimits(0.3)])
    def test_agrees_with_direct_comparison(self, family):
        """Crossing answers equal the direct limit comparison on every support
        point, every n up to 50."""
        tol = 0.0
        for n in range(1, 51):
            ks = np.arange(n + 1)
            zs = ks / n
            for theta_ref, delta in ((0.3, 0.05), (0.5, 0.1), (0.62, 0.01)):
                low_fast = family.support_lower_crossed(BERN, n, ks, theta_ref, delta)
                up_fast = family.support_upper_crossed(BERN, n, ks, theta_ref, delta)
                low_direct = np.array(
                    [family.lower(BERN, n, z, delta) >= theta_ref - tol for z in zs])
                up_direct = np.array(
                    [family.upper(BERN, n, z, delta) <= theta_ref + tol for z in zs])
                np.testing.assert_array_equal(low_fast, low_direct)
                np.testing.assert_array_equal(up_fast, up_direct)


class TestSmallDeltaTails:
    """Crossings at risk levels far below the float spacing of 1.

    A tail formed as one minus a cumulative sum cannot go below the
    rounding error of that sum (about 1e-12 at n = 3000), so it reports no
    lower crossing at all there; the closed-form tails place each crossing
    where scipy.stats does.
    """

    N, DELTA = 3000, 1e-12

    def test_bernoulli_crossings_match_scipy_stats(self):
        ks = np.arange(self.N + 1)
        for theta_ref in (0.45, 0.5, 0.55):
            low = EXACT.support_lower_crossed(BERN, self.N, ks, theta_ref, self.DELTA)
            up = EXACT.support_upper_crossed(BERN, self.N, ks, theta_ref, self.DELTA)
            want_low = stats.binom.sf(ks - 1, self.N, theta_ref) <= self.DELTA
            want_up = stats.binom.cdf(ks, self.N, theta_ref) <= self.DELTA
            assert want_low.any() and want_up.any()
            np.testing.assert_array_equal(low, want_low)
            np.testing.assert_array_equal(up, want_up)
        # the lower crossing of the 0.45 reference sits at k = 1543
        low = EXACT.support_lower_crossed(BERN, self.N, ks, 0.45, self.DELTA)
        assert int(np.argmax(low)) == 1543

    def test_poisson_crossings_match_scipy_stats(self):
        ks = np.arange(2 * self.N + 1)
        for theta_ref in (0.5, 1.0):
            mu = self.N * theta_ref
            low = EXACT.support_lower_crossed(POIS, self.N, ks, theta_ref, self.DELTA)
            up = EXACT.support_upper_crossed(POIS, self.N, ks, theta_ref, self.DELTA)
            want_low = stats.poisson.sf(ks - 1, mu) <= self.DELTA
            want_up = stats.poisson.cdf(ks, mu) <= self.DELTA
            assert want_low.any() and want_up.any()
            np.testing.assert_array_equal(low, want_low)
            np.testing.assert_array_equal(up, want_up)

    def test_scalar_tails_agree_with_vector_tails(self):
        for k in (0, 1, 1200, 1543, 2999, 3000):
            z = k / self.N
            assert BERN.tail_upper(self.N, z, 0.45) == BERN.sum_tail(self.N, k, 0.45,
                                                                      upper=True)
            assert BERN.tail_lower(self.N, z, 0.45) == BERN.sum_tail(self.N, k, 0.45)


class TestOrderAndNesting:
    @pytest.mark.parametrize("family", [EXACT, CHER, ApproxLimits(1.0)])
    def test_monotone_in_observation(self, family):
        for n in (7, 23, 50):
            zs = np.arange(n + 1) / n
            los = [family.lower(BERN, n, z, 0.1) for z in zs]
            ups = [family.upper(BERN, n, z, 0.1) for z in zs]
            assert all(b - a >= -1e-12 for a, b in zip(los, los[1:]))
            assert all(b - a >= -1e-12 for a, b in zip(ups, ups[1:]))

    @pytest.mark.parametrize("family", [EXACT, CHER, ApproxLimits(0.5)])
    def test_nested_in_risk_level(self, family):
        """Smaller risk level never narrows the interval."""
        deltas = (0.5, 0.2, 0.1, 0.05, 0.01, 0.001)
        for n, k in ((6, 2), (30, 17), (50, 49)):
            z = k / n
            los = [family.lower(BERN, n, z, d) for d in deltas]
            ups = [family.upper(BERN, n, z, d) for d in deltas]
            assert all(b - a <= 1e-12 for a, b in zip(los, los[1:]))
            assert all(b - a >= -1e-12 for a, b in zip(ups, ups[1:]))


class TestCoverageExact:
    """Exact-tail coverage for the two guaranteed families on a modest grid.

    The full fifty-sample sweep with step 0.01 runs in the acceptance suite.
    """

    @pytest.mark.parametrize("family", [EXACT, CHER])
    def test_guaranteed_coverage(self, family):
        for n in (1, 5, 12):
            ks = np.arange(n + 1)
            for delta in (0.2, 0.05):
                los = np.array([family.lower(BERN, n, k / n, delta) for k in ks])
                ups = np.array([family.upper(BERN, n, k / n, delta) for k in ks])
                for theta in np.arange(0.02, 0.99, 0.02):
                    mass = stats.binom.pmf(ks, n, theta)
                    assert mass[los >= theta].sum() <= delta + 1e-13
                    assert mass[ups <= theta].sum() <= delta + 1e-13


def test_family_registry():
    assert isinstance(family_by_tag("exact"), ExactLimits)
    assert isinstance(family_by_tag("chernoff"), ChernoffLimits)
    fam = family_by_tag("approx", w=0.25)
    assert isinstance(fam, ApproxLimits) and fam.w == 0.25
    with pytest.raises(DomainError):
        family_by_tag("bootstrap")
