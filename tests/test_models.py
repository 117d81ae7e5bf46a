"""Distribution models: masses, tails, Chernoff function, sampling."""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy import stats

from seqtest.errors import DomainError
from seqtest.models import Bernoulli, Poisson, model_by_name

BERN = Bernoulli()
POIS = Poisson()


class TestPmfSum:
    def test_fair_coin_pair(self):
        assert BERN.pmf_sum(2, 1, 0.5) == pytest.approx(0.5, abs=1e-15)

    def test_binomial_mass_matches_factorial_form(self):
        oracle = math.comb(10, 3) * 0.3**3 * 0.7**7
        assert BERN.pmf_sum(10, 3, 0.3) == pytest.approx(oracle, rel=1e-13)

    def test_poisson_zero_mass(self):
        assert POIS.pmf_sum(1, 0, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-13)

    def test_bernoulli_rejects_theta_outside_open_interval(self):
        with pytest.raises(DomainError):
            BERN.validate_theta(0.0)
        with pytest.raises(DomainError):
            BERN.validate_theta(1.0)
        BERN.validate_theta(0.0, closed=True)

    def test_poisson_rejects_nonpositive_theta(self):
        with pytest.raises(DomainError):
            POIS.validate_theta(0.0)

    def test_refusals_name_the_interval_checked(self):
        with pytest.raises(DomainError, match=r"must lie in \(0, 1\), got 1.0"):
            BERN.validate_theta(1.0)
        with pytest.raises(DomainError, match=r"must lie in \[0, 1\], got 1.5"):
            BERN.validate_theta(1.5, closed=True)
        with pytest.raises(DomainError, match=r"must lie in \(0, inf\), got 0.0"):
            POIS.validate_theta(0.0)
        with pytest.raises(DomainError, match=r"must lie in \[0, inf\), got -0.5"):
            POIS.validate_theta(-0.5, closed=True)

    def test_vectorized_mass_sums_to_one(self):
        ks = np.arange(26)
        assert BERN.pmf_sum(25, ks, 0.37).sum() == pytest.approx(1.0, abs=1e-14)

    def test_mass_against_scipy(self):
        ks = np.arange(41)
        np.testing.assert_allclose(BERN.pmf_sum(40, ks, 0.83),
                                   stats.binom.pmf(ks, 40, 0.83), atol=1e-14)
        ks = np.arange(80)
        np.testing.assert_allclose(POIS.pmf_sum(7, ks, 1.9),
                                   stats.poisson.pmf(ks, 7 * 1.9), atol=1e-14)


    def test_mass_broadcasts_over_theta_and_settles_the_edges(self):
        ks = np.array([-1, 0, 0, 2, 4, 4, 5])
        thetas = np.array([0.5, 0.0, 1.0, 0.5, 1.0, 0.0, 0.5])
        np.testing.assert_array_equal(BERN.pmf_sum(4, ks, thetas),
                                      [0, 1, 0, 0.375, 1, 0, 0])
        np.testing.assert_allclose(BERN.pmf_sum(30, np.arange(31), np.linspace(0.01, 0.99, 31)),
                                   stats.binom.pmf(np.arange(31), 30, np.linspace(0.01, 0.99, 31)),
                                   rtol=1e-13)
        np.testing.assert_array_equal(POIS.pmf_sum(2, [-1, 0, 3], 0.0), [0, 1, 0])
        np.testing.assert_array_equal(BERN.pmf_sum(0, [-1, 0, 1], 0.3), [0, 1, 0])
        # zero samples sum to 0 surely, also at the closed ends of the mean range
        np.testing.assert_array_equal(BERN.pmf_sum(0, [0, 0, 1, 1], [0.0, 1.0, 0.0, 1.0]), [1, 1, 0, 0])

    @pytest.mark.parametrize("model, ns, thetas", [
        (BERN, [0, 1, 2, 5, 17, 100, 999, 5000],
         [0.0, 5e-324, 1e-310, 2.3e-308, 1e-300, 1e-9, 0.001, 0.3, 0.5, 0.77, 0.999,
          1.0 - 2.0**-53, 1.0]),
        (POIS, [0, 1, 2, 7, 50, 200], [0.0, 5e-324, 1e-300, 1e-9, 0.001, 0.5, 1.9, 7.3]),
    ], ids=["bernoulli", "poisson"])
    def test_mass_equals_the_increment_pmf(self, model, ns, thetas):
        # bit for bit, end cells included: both take them from libm
        for n in ns:
            rows = [model.increment_pmf(n, t)[0] for t in thetas]
            for theta, probs in zip(thetas, rows):
                np.testing.assert_array_equal(
                    model.pmf_sum(n, np.arange(len(probs)), theta), probs, err_msg=f"{n}, {theta}")
            # broadcast over a theta column gives the same rows
            width = min(len(p) for p in rows)
            np.testing.assert_array_equal(
                model.pmf_sum(n, np.arange(width), np.array(thetas)[:, None]),
                [p[:width] for p in rows])

    def test_log_mass_against_scipy(self):
        ks = np.arange(-1, 42)
        np.testing.assert_allclose(BERN.log_pmf_sum(40, ks, 0.3)[1:],
                                   stats.binom.logpmf(ks[1:], 40, 0.3), rtol=1e-13)
        assert BERN.log_pmf_sum(40, -1, 0.3) == -np.inf
        np.testing.assert_allclose(POIS.log_pmf_sum(7, ks[1:], 1.9),
                                   stats.poisson.logpmf(ks[1:], 7 * 1.9), rtol=1e-13)

    @pytest.mark.parametrize("model, top", [(BERN, 1.0), (POIS, 30.0)])
    def test_log_lr_line_against_mpmath(self, model, top):
        rng = np.random.default_rng(3)
        with mp.workdps(40):
            for _ in range(200):
                t0, t1 = sorted(float(x) for x in rng.uniform(0.0, top, 2))
                slope, offset = model.log_lr_line(t0, t1)
                m0, m1 = mp.mpf(t0), mp.mpf(t1)
                if model is BERN:
                    want_offset = mp.log((1 - m1) / (1 - m0))
                    want_slope = mp.log(m1 / m0) - want_offset
                    scale = abs(math.log(t0 * t1)) + abs(math.log((1 - t0) * (1 - t1)))
                else:
                    want_slope, want_offset = mp.log(m1 / m0), m0 - m1
                    scale = abs(math.log(t0 * t1)) + t0 + t1
                # each term is rounded once, so the error scales with the terms
                assert abs(slope - want_slope) <= 4e-16 * scale
                assert abs(offset - want_offset) <= 4e-16 * scale


class TestTails:
    def test_single_fair_coin(self):
        assert BERN.tail_lower(1, 0.0, 0.5) == pytest.approx(0.5, abs=1e-15)
        assert BERN.tail_upper(1, 0.0, 0.5) == pytest.approx(1.0, abs=1e-15)

    def test_lower_tail_is_three_binomial_masses(self):
        oracle = sum(math.comb(5, k) * 0.4**k * 0.6 ** (5 - k) for k in (0, 1, 2))
        assert BERN.tail_lower(5, 0.4, 0.4) == pytest.approx(oracle, rel=1e-13)

    def test_poisson_lower_tail_is_partial_series(self):
        # mean count 6, threshold mean 1 -> sum count 3
        oracle = math.exp(-6.0) * sum(6.0**j / math.factorial(j) for j in range(4))
        assert POIS.tail_lower(3, 1.0, 2.0) == pytest.approx(oracle, rel=1e-12)

    def test_tails_overlap_by_the_atom(self):
        for z in (0.0, 0.2, 0.4, 1.0):
            f = BERN.tail_lower(5, z, 0.3)
            g = BERN.tail_upper(5, z, 0.3)
            atom = stats.binom.pmf(int(round(z * 5)), 5, 0.3)
            assert f + g == pytest.approx(1.0 + atom, abs=1e-13)

    def test_ule_monotonicity_in_theta(self):
        """Upper tail grows and lower tail shrinks as theta grows."""
        thetas = np.linspace(0.05, 0.95, 19)
        for z in (0.2, 0.5, 0.8):
            up = [BERN.tail_upper(12, z, t) for t in thetas]
            lo = [BERN.tail_lower(12, z, t) for t in thetas]
            assert all(b - a >= -1e-12 for a, b in zip(up, up[1:]))
            assert all(b - a <= 1e-12 for a, b in zip(lo, lo[1:]))
        for z in (0.5, 2.0):
            up = [POIS.tail_upper(4, z, t) for t in np.linspace(0.2, 4.0, 20)]
            assert all(b - a >= -1e-12 for a, b in zip(up, up[1:]))


    def test_sum_tail_off_the_support(self):
        """Counts below 0 and above n have the tails of the empty/full event."""
        ks = np.array([-3, -1, 0, 4, 5, 6, 9])
        np.testing.assert_array_equal(BERN.sum_tail(5, ks, 0.3)[[0, 1, 4, 5, 6]],
                                      [0.0, 0.0, 1.0, 1.0, 1.0])
        np.testing.assert_array_equal(BERN.sum_tail(5, ks, 0.3, upper=True)[[0, 1, 2, 5, 6]],
                                      [1.0, 1.0, 1.0, 0.0, 0.0])
        assert POIS.sum_tail(5, -1, 0.3) == 0.0
        assert POIS.sum_tail(5, 0, 0.3, upper=True) == 1.0
        assert not np.isnan(BERN.sum_tail(5, ks, 0.3)).any()
        assert not np.isnan(POIS.sum_tail(5, ks, 0.3, upper=True)).any()

    def test_sum_tail_broadcasts_sizes_against_counts(self):
        ns = np.array([1, 7, 40, 40, 300])
        ks = np.array([0, 3, 12, 33, 150])
        np.testing.assert_allclose(BERN.sum_tail(ns, ks, 0.37),
                                   stats.binom.cdf(ks, ns, 0.37), rtol=1e-12)
        np.testing.assert_allclose(BERN.sum_tail(ns, ks, 0.37, upper=True),
                                   stats.binom.sf(ks - 1, ns, 0.37), rtol=1e-12)
        np.testing.assert_allclose(POIS.sum_tail(ns, ks, 1.3),
                                   stats.poisson.cdf(ks, 1.3 * ns), rtol=1e-12)
        np.testing.assert_allclose(POIS.sum_tail(ns, ks, 1.3, upper=True),
                                   stats.poisson.sf(ks - 1, 1.3 * ns), rtol=1e-12)

    @pytest.mark.parametrize("model", [BERN, POIS])
    @pytest.mark.parametrize("upper", [False, True])
    def test_sum_tail_of_scalar_counts_is_a_scalar(self, model, upper):
        """A scalar count gives a float64 scalar, not a 0-d array, holding
        the value the array call holds at that count."""
        ks = np.array([-1, 0, 3, 5, 6])
        row = model.sum_tail(5, ks, 0.3, upper=upper)
        assert isinstance(row, np.ndarray) and row.shape == ks.shape
        for k, want in zip(ks.tolist(), row.tolist()):
            got = model.sum_tail(5, k, 0.3, upper=upper)
            assert type(got) is np.float64
            assert got == want


class TestChernoff:
    def test_value_one_at_the_mean(self):
        assert BERN.chernoff(0.3, 0.3) == pytest.approx(1.0, abs=1e-14)
        assert POIS.chernoff(1.7, 1.7) == pytest.approx(1.0, abs=1e-14)

    def test_bernoulli_closed_form_against_rho_minimization(self):
        z, theta = 0.5, 0.25
        rhos = np.linspace(-5, 5, 200001)
        oracle = np.min(np.exp(-rhos * z) * (1 - theta + theta * np.exp(rhos)))
        assert BERN.chernoff(z, theta) == pytest.approx(oracle, rel=1e-8)
        assert BERN.chernoff(z, theta) == pytest.approx(0.8660, abs=5e-5)

    def test_poisson_closed_form_against_rho_minimization(self):
        z, theta = 2.0, 1.0
        rhos = np.linspace(-5, 5, 200001)
        oracle = np.min(np.exp(-rhos * z) * np.exp(theta * (np.exp(rhos) - 1.0)))
        assert POIS.chernoff(z, theta) == pytest.approx(oracle, rel=1e-8)
        assert POIS.chernoff(z, theta) == pytest.approx(math.e / 4.0, rel=1e-12)

    def test_support_endpoints(self):
        assert BERN.chernoff(0.0, 0.3) == pytest.approx(0.7, rel=1e-13)
        assert BERN.chernoff(1.0, 0.3) == pytest.approx(0.3, rel=1e-13)
        assert POIS.chernoff(0.0, 2.5) == pytest.approx(math.exp(-2.5), rel=1e-13)

    def test_rejects_z_outside_support_hull(self):
        with pytest.raises(DomainError):
            BERN.chernoff(1.1, 0.5)
        with pytest.raises(DomainError):
            POIS.chernoff(-0.2, 1.0)

    def test_strictly_below_one_off_the_mean(self):
        for z in (0.1, 0.45, 0.9):
            for theta in (0.2, 0.5, 0.8):
                v = BERN.chernoff(z, theta)
                assert 0.0 < v <= 1.0
                if abs(z - theta) > 1e-9:
                    assert v < 1.0


class TestChernoffBoundAndMonotonicity:
    """Tail bound and the four monotonicity directions, tight grids."""

    def test_tail_bound_bernoulli_exhaustive(self):
        for n in (1, 5, 20, 50):
            ks = np.arange(n + 1)
            zs = ks / n
            for theta in np.arange(0.05, 0.96, 0.05):
                cn = BERN.chernoff(zs, theta) ** n
                for k, z, cap in zip(ks, zs, cn):
                    if z <= theta:
                        assert BERN.tail_lower(n, z, theta) <= cap + 1e-12
                    if z >= theta:
                        assert BERN.tail_upper(n, z, theta) <= cap + 1e-12

    def test_tail_bound_poisson(self):
        for n in (1, 4):
            for theta in (0.5, 1.0, 3.0):
                for z in np.arange(0.0, 4.0 * theta + 1e-9, theta / 4):
                    cap = POIS.chernoff(z, theta) ** n
                    if z <= theta:
                        assert POIS.tail_lower(n, z, theta) <= cap + 1e-12
                    if z >= theta:
                        assert POIS.tail_upper(n, z, theta) <= cap + 1e-12

    def test_monotone_in_theta_each_side_of_z(self):
        thetas = np.linspace(0.02, 0.98, 97)
        for z in (0.25, 0.5, 0.75):
            vals = BERN.chernoff(z, thetas[0]), *(BERN.chernoff(z, t) for t in thetas[1:])
            below = [v for t, v in zip(thetas, vals) if t <= z]
            above = [v for t, v in zip(thetas, vals) if t >= z]
            assert all(b - a >= -1e-12 for a, b in zip(below, below[1:]))
            assert all(b - a <= 1e-12 for a, b in zip(above, above[1:]))

    def test_monotone_in_z_each_side_of_theta(self):
        zs = np.linspace(0.0, 1.0, 101)
        for theta in (0.3, 0.6):
            vals = [BERN.chernoff(z, theta) for z in zs]
            below = [v for z, v in zip(zs, vals) if z <= theta]
            above = [v for z, v in zip(zs, vals) if z >= theta]
            assert all(b - a >= -1e-12 for a, b in zip(below, below[1:]))
            assert all(b - a <= 1e-12 for a, b in zip(above, above[1:]))


class TestProbabilityIntegralBound:
    def test_lower_tail_transform_is_superuniform(self):
        """Pr{F(mean) <= a} <= a, exact enumeration over the support."""
        for n in (1, 7, 30):
            for theta in (0.2, 0.5, 0.9):
                ks = np.arange(n + 1)
                mass = stats.binom.pmf(ks, n, theta)
                fvals = np.array([BERN.tail_lower(n, k / n, theta) for k in ks])
                for a in np.arange(0.01, 1.0, 0.01):
                    assert mass[fvals <= a].sum() <= a + 1e-12


class TestIncrementAndDraw:
    def test_bernoulli_increment_is_exact(self):
        probs, deficit = BERN.increment_pmf(6, 0.4)
        assert deficit == 0.0
        np.testing.assert_allclose(probs, stats.binom.pmf(np.arange(7), 6, 0.4),
                                   atol=1e-14)

    @pytest.mark.parametrize("m", [1, 2, 15, 16, 17, 95, 383, 2399, 4095, 4096, 8085, 9603])
    def test_bernoulli_increment_matches_scipy_stats_at_large_sizes(self, m):
        # gammaln differences lost about 1e-11 of relative accuracy here
        for theta in (0.001, 0.3, 0.47, 0.49, 0.5, 0.51, 0.53, 0.9):
            probs, _ = BERN.increment_pmf(m, theta)
            want = stats.binom.pmf(np.arange(m + 1), m, theta)
            np.testing.assert_allclose(probs, want, rtol=0, atol=1e-15)
            assert math.fsum(probs) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("m", [1, 2, 17, 383, 4096, 9603])
    def test_increment_is_the_mass_over_the_support(self, m):
        for theta in (0.001, 0.3, 0.5, 0.9):
            probs, _ = BERN.increment_pmf(m, theta)
            want = BERN.pmf_sum(m, np.arange(m + 1), theta)
            np.testing.assert_array_equal(probs[1:-1], want[1:-1])
            # the end masses exp(m log(1 - theta)) and exp(m log theta) take
            # libm's exp and logs here and numpy's in pmf_sum, which may
            # differ by an ulp, scaled by the size of the exponent
            np.testing.assert_allclose(probs[[0, -1]], want[[0, -1]], rtol=1e-12, atol=0)
        for mu in (1e-4, 0.7, 300.0):
            probs, _ = POIS.increment_pmf(m, mu / m)
            want = POIS.pmf_sum(m, np.arange(len(probs)), mu / m)
            np.testing.assert_array_equal(probs[1:], want[1:])
            assert probs[0] == pytest.approx(want[0], rel=1e-13)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_bernoulli_increment_point_masses(self):
        np.testing.assert_array_equal(BERN.increment_pmf(3, 0.0)[0], [1, 0, 0, 0])
        np.testing.assert_array_equal(BERN.increment_pmf(3, 5e-324)[0], [1, 0, 0, 0])
        np.testing.assert_array_equal(BERN.increment_pmf(3, 1.0)[0], [0, 0, 0, 1])

    @pytest.mark.parametrize("mu", [1e-4, 0.7, 15.0, 16.5, 300.0, 5000.0])
    def test_poisson_increment_sums_to_one_with_its_deficit(self, mu):
        probs, deficit = POIS.increment_pmf(1, mu)
        assert abs(math.fsum(probs) + deficit - 1.0) <= 1e-15
        # scipy.stats' own Poisson pmf is a gammaln difference; near the
        # mode both agree to its accuracy
        ks = np.arange(max(0, int(mu) - 3), int(mu) + 4)
        np.testing.assert_allclose(probs[ks], stats.poisson.pmf(ks, mu), rtol=1e-11)

    def test_poisson_increment_deficit_is_certified(self):
        probs, deficit = POIS.increment_pmf(3, 2.0)
        assert deficit <= 1e-15
        assert probs.sum() + deficit == pytest.approx(1.0, abs=1e-13)
        # the declared deficit equals the analytic upper tail mass
        assert deficit == pytest.approx(stats.poisson.sf(len(probs) - 1, 6.0), rel=1e-9)

    def test_poisson_cutoff_matches_scipy_stats_bit_for_bit(self):
        # mu = m * theta sweeps 1e-4 .. 1e5 for every sample count m
        for m in (1, 17, 400):
            for theta in np.geomspace(1e-4, 1e5, 28) / m:
                mu = m * theta
                probs, deficit = POIS.increment_pmf(m, theta)
                k_hi = len(probs) - 1
                assert k_hi == int(stats.poisson.isf(1e-15, mu))
                assert deficit == stats.poisson.sf(k_hi, mu)

    @staticmethod
    def assert_rows_are_the_scalar_rows(model, m, thetas):
        probs, deficits = model.increment_pmf(m, np.asarray(thetas))
        rows = [model.increment_pmf(m, theta) for theta in thetas]
        taps = max(len(p) for p, _ in rows)
        assert probs.shape == (len(thetas), taps) and deficits.shape == (len(thetas),)
        for row, deficit, (p, lost) in zip(probs, deficits, rows):
            assert row[:len(p)].tobytes() == p.tobytes()
            assert not row[len(p):].any()
            assert deficit == lost
        return [len(p) for p, _ in rows]

    @pytest.mark.parametrize("m", [1, 2, 5, 17, 95, 383, 2399, 4096, 8085])
    def test_bernoulli_rows_are_the_scalar_rows(self, m):
        thetas = [0.3, 0.0, 1.0, 5e-324, 0.5, 1e-310, 1.0 - 2.0**-53, 2.3e-308]
        self.assert_rows_are_the_scalar_rows(BERN, m, thetas)

    def test_poisson_rows_are_the_scalar_rows(self):
        # means m * theta from 1e-4 to 1e3 at every m, to 1e5 at some, in a
        # new order each time
        rng = np.random.default_rng(19)
        for m, top, least in [(m, 1e3, 1_000) for m in range(1, 201)] + [
                (m, 1e5, 100_000) for m in (1, 2, 17, 100, 200)]:
            mus = rng.permutation(np.geomspace(1e-4, top, 10))
            widths = self.assert_rows_are_the_scalar_rows(POIS, m, mus / m)
            assert min(widths) < 10 and max(widths) > least

    def test_draw_matches_model_distribution(self):
        rng = np.random.default_rng(11)
        xs = BERN.draw(rng, 20000, 0.3)
        assert set(np.unique(xs)) <= {0, 1}
        assert abs(xs.mean() - 0.3) < 0.01
        ys = POIS.draw(rng, 20000, 2.5)
        assert ys.min() >= 0
        assert abs(ys.mean() - 2.5) < 0.05


def test_model_registry_round_trip():
    assert isinstance(model_by_name("bernoulli"), Bernoulli)
    assert isinstance(model_by_name("poisson"), Poisson)
    with pytest.raises(DomainError):
        model_by_name("geometric")
