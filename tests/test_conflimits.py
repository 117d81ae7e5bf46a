"""Confidence-limit families and crossing equivalences."""

import math

import numpy as np
import pytest
from scipy import stats
from scipy.optimize import brentq
from scipy.special import ndtri

from seqtest.conflimits import (
    ApproxLimits,
    ChernoffLimits,
    ExactLimits,
    crossing_test,
    family_by_tag,
)
from seqtest.errors import DomainError
from seqtest.models import Bernoulli, Poisson
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


class TestApproxLimits:
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
                    mass = BERN.pmf_sum(n, ks, theta)
                    worst = max(worst,
                                mass[los >= theta].sum() - 0.1,
                                mass[ups <= theta].sum() - 0.1)
        # the degenerate all-successes Wald interval makes this large; that is
        # a known limitation of the family, recorded rather than bounded
        print(f"worst approximate-family coverage violation: {worst:.4f}")
        assert 0.0 <= worst <= 1.0


class TestCrossing:
    def test_exact_lower_crossing_example(self):
        lower, upper = crossing_test(EXACT, BERN, 3, 1.0, 0.36, 0.05)
        assert lower is True
        assert EXACT.lower(BERN, 3, 1.0, 0.05) >= 0.36

    def test_chernoff_side_condition_blocks_lower(self):
        lower, _ = crossing_test(CHER, BERN, 10, 0.3, 0.5, 0.1)
        assert lower is False

    def test_tail_value_decides_at_reference(self):
        # with a single observation, the tail at the reference IS the reference
        assert crossing_test(EXACT, BERN, 1, 0.4, 0.4, 0.5)[0] is True
        assert crossing_test(EXACT, BERN, 1, 0.6, 0.6, 0.5)[0] is False

    @pytest.mark.parametrize("family", [EXACT, CHER, ApproxLimits(0.3)])
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

    def test_scalar_and_vector_forms_agree(self):
        # the vector predicates evaluate each count on its own; here they
        # run over the whole support 0..n and are read count by count
        for n in (3, 17):
            ks = np.arange(n + 1)
            low = EXACT.support_lower_crossed(BERN, n, ks, 0.45, 0.08)
            up = EXACT.support_upper_crossed(BERN, n, ks, 0.45, 0.08)
            for k in range(n + 1):
                got = crossing_test(EXACT, BERN, n, k / n, 0.45, 0.08)
                assert got == (bool(low[k]), bool(up[k]))


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
                    mass = BERN.pmf_sum(n, ks, theta)
                    assert mass[los >= theta].sum() <= delta + 1e-13
                    assert mass[ups <= theta].sum() <= delta + 1e-13


def test_family_registry():
    assert isinstance(family_by_tag("exact"), ExactLimits)
    assert isinstance(family_by_tag("chernoff"), ChernoffLimits)
    fam = family_by_tag("approx", w=0.25)
    assert isinstance(fam, ApproxLimits) and fam.w == 0.25
    with pytest.raises(DomainError):
        family_by_tag("bootstrap")
