"""Exact operating-characteristic evaluation and risk verification."""

import dataclasses

import numpy as np
import pytest
from scipy import stats

from seqtest.conflimits import ExactLimits
from seqtest.errors import DomainError, InfeasibleDesignError
from seqtest.models import Bernoulli, Poisson
from seqtest.ocexact import OCReport, oc_curve, oc_single, rejection_split, verify_risk
from seqtest.plans import build_multihyp_plan, build_one_sided_plan

BERN = Bernoulli()
POIS = Poisson()
EXACT = ExactLimits()


def classic_plan():
    return build_one_sided_plan(BERN, EXACT, 0.4, 0.6, 0.05, 0.05, 0.5, stages=5)


def wide_plan(stage_ns):
    return build_one_sided_plan(BERN, EXACT, 0.3, 0.7, 0.1, 0.1, 0.5,
                                stage_ns=stage_ns)


def three_zone_plan():
    return build_multihyp_plan(BERN, EXACT, [0.15, 0.55], [0.35, 0.75], 0.5,
                               base_alphas=[0.1, 0.1], base_betas=[0.1, 0.1],
                               stages=2)


def mc_accept_asn(plan, theta, trials, seed):
    """Vectorized Monte Carlo replay, independent of the library's runner."""
    rng = np.random.default_rng(seed)
    n_max = plan.stage_ns[-1]
    accept = np.zeros(plan.m)
    nsum = 0.0
    done_total = 0
    batch = 200_000
    left = trials
    while left > 0:
        b = min(batch, left)
        left -= b
        draws = (rng.random((b, n_max)) < theta)
        undecided = np.ones(b, dtype=bool)
        for rule in plan.stages:
            sums = draws[:, :rule.n].sum(axis=1)
            decided_here = np.zeros(b, dtype=bool)
            for i, win in enumerate(rule.windows):
                if win is None:
                    continue
                lo, hi = win
                hit = undecided & (sums >= lo) & (sums <= (rule.n if hi is None else hi))
                accept[i] += hit.sum()
                decided_here |= hit
            nsum += rule.n * decided_here.sum()
            undecided &= ~decided_here
        done_total += b - undecided.sum()
        assert not undecided.any()
    return accept / trials, nsum / trials


class TestOcSingle:
    def test_single_stage_is_a_binomial_tail(self):
        plan = wide_plan([17])
        assert plan.stages[0].windows == ((0, 8), (9, 17))
        for theta in (0.2, 0.5, 0.65):
            acc, asn, stop, deficit = oc_single(plan, theta)
            assert acc[0] == pytest.approx(stats.binom.cdf(8, 17, theta), abs=1e-13)
            assert acc[1] == pytest.approx(stats.binom.sf(8, 17, theta), abs=1e-13)
            assert asn == pytest.approx(17, abs=1e-12)
            assert stop[0] == pytest.approx(1.0, abs=1e-13)
            assert deficit <= 1e-12

    def test_two_stage_matches_independent_convolution(self):
        """Brute-forced path mass from scipy pmfs, no shared code with the DP."""
        plan = wide_plan([10, 30])
        w1, w2 = plan.stages[0].windows, plan.stages[1].windows

        def decide(windows, n, k):
            for i, win in enumerate(windows):
                if win is None:
                    continue
                lo, hi = win
                if k >= lo and k <= (n if hi is None else hi):
                    return i
            return -1

        for theta in (0.25, 0.5, 0.62):
            want = np.zeros(2)
            want_asn = 0.0
            for k1 in range(11):
                m1 = stats.binom.pmf(k1, 10, theta)
                d = decide(w1, 10, k1)
                if d >= 0:
                    want[d] += m1
                    want_asn += 10 * m1
                    continue
                for k2 in range(21):
                    m2 = m1 * stats.binom.pmf(k2, 20, theta)
                    d2 = decide(w2, 30, k1 + k2)
                    assert d2 >= 0
                    want[d2] += m2
                    want_asn += 30 * m2
            acc, asn, _, _ = oc_single(plan, theta)
            np.testing.assert_allclose(acc, want, atol=1e-10)
            assert asn == pytest.approx(want_asn, abs=1e-10)

    def test_monte_carlo_agreement_large(self):
        """A million simulated runs land within four standard errors."""
        plan = classic_plan()
        theta, trials = 0.5, 1_000_000
        acc, asn, stop, _ = oc_single(plan, theta)
        mc_acc, mc_asn = mc_accept_asn(plan, theta, trials, seed=40)
        se = np.sqrt(acc[0] * (1 - acc[0]) / trials)
        assert abs(mc_acc[0] - acc[0]) < 4 * se
        # spread of the stopping size from the exact stage distribution
        ns = np.array(plan.stage_ns, dtype=float)
        var_n = float(stop @ (ns - asn) ** 2)
        assert abs(mc_asn - asn) < 4 * np.sqrt(var_n / trials)

    def test_acceptance_masses_partition(self):
        plan = classic_plan()
        for theta in (0.1, 0.45, 0.5, 0.55, 0.99):
            acc, asn, stop, deficit = oc_single(plan, theta)
            assert acc.sum() == pytest.approx(1.0, abs=1e-12)
            assert stop.sum() == pytest.approx(1.0, abs=1e-12)
            assert plan.stage_ns[0] <= asn <= plan.stage_ns[-1]

    def test_long_increments_sum_to_one(self):
        # final size 9603, increments up to 8085 samples
        plan = build_one_sided_plan(BERN, EXACT, 0.49, 0.51, 0.05, 0.05, 0.5,
                                    stage_ns=(6, 38, 240, 1518, 9603))
        for theta in np.linspace(0.47, 0.53, 7):
            acc, asn, stop, bound = oc_single(plan, theta)
            assert bound == 0.0
            assert abs(acc.sum() - 1.0) <= 1e-14

    def test_poisson_truncation_is_accounted(self):
        plan = build_one_sided_plan(POIS, EXACT, 1.0, 2.0, 0.1, 0.1, 0.5, stages=2)
        for theta in (0.8, 1.5, 2.4):
            acc, asn, stop, deficit = oc_single(plan, theta)
            assert deficit <= 1e-12
            assert acc.sum() + deficit == pytest.approx(1.0, abs=1e-12)
            assert plan.stage_ns[0] <= asn <= plan.stage_ns[-1] + 1e-9

    def test_unclosed_plan_raises_instead_of_reporting_slack(self):
        # the residue used to be added to truncation_bound
        for plan in (classic_plan(),
                     build_one_sided_plan(POIS, EXACT, 1.0, 2.0, 0.1, 0.1, 0.5, stages=3)):
            cut = dataclasses.replace(plan, stages=plan.stages[:-1])
            with pytest.raises(InfeasibleDesignError):
                oc_single(cut, 1.0 if plan.model is POIS else 0.5)
            with pytest.raises(InfeasibleDesignError):
                rejection_split(cut, 0, 1.0 if plan.model is POIS else 0.5, 0.5, "high")

    def test_rejects_theta_outside_model_domain(self):
        with pytest.raises(DomainError):
            oc_single(classic_plan(), 1.5)


class TestOcCurve:
    def test_matches_pointwise_evaluation(self):
        plan = wide_plan([10, 30])
        grid = np.linspace(0.1, 0.9, 17)
        rep = oc_curve(plan, grid)
        for t, theta in enumerate(grid):
            acc, asn, stop, deficit = oc_single(plan, theta)
            np.testing.assert_allclose(rep.accept[t], acc, atol=0)
            assert rep.asn[t] == asn
            np.testing.assert_allclose(rep.stage_stop[t], stop, atol=0)

    def test_csv_export_round_trips(self):
        plan = wide_plan([10, 30])
        rep = oc_curve(plan, [0.3, 0.5, 0.7])
        text = rep.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == ("theta,accept_h0,accept_h1,asn,"
                            "stop_stage_1,stop_stage_2,truncation_bound")
        assert len(lines) == 4
        row = [float(v) for v in lines[2].split(",")]
        assert row[0] == 0.5
        assert row[1] == rep.accept[1, 0]
        assert row[3] == rep.asn[1]

    def test_grid_validation(self):
        plan = wide_plan([17])
        with pytest.raises(DomainError):
            oc_curve(plan, [])
        with pytest.raises(DomainError):
            oc_curve(plan, [[0.3, 0.5]])

    def test_one_sided_acceptance_monotone_in_theta(self):
        plan = classic_plan()
        rep = oc_curve(plan, np.linspace(0.02, 0.98, 49))
        acc0 = rep.accept[:, 0]
        assert np.all(np.diff(acc0) <= 1e-12)


class TestRiskCaps:
    def test_stage_count_times_scale_caps_hold_exactly(self):
        """Wrong-decision mass at each endpoint never exceeds s * zeta * risk."""
        for plan in (classic_plan(), wide_plan([10, 30]),
                     build_one_sided_plan(BERN, EXACT, 0.4, 0.6, 0.04, 0.04,
                                          0.5, stages=3)):
            s = plan.s
            za, zb = plan.alphas[0], plan.betas[0]
            acc0, *_ = oc_single(plan, plan.theta0)
            acc1, *_ = oc_single(plan, plan.theta1)
            assert 1 - acc0[0] <= s * za
            assert acc1[0] <= s * zb

    def test_three_stage_cap_example(self):
        plan = build_one_sided_plan(BERN, EXACT, 0.4, 0.6, 0.04, 0.04, 0.5,
                                    stages=3)
        assert plan.alphas[0] == pytest.approx(0.02)
        acc, *_ = oc_single(plan, 0.4)
        assert 1 - acc[0] <= 3 * 0.02

    def test_multi_zone_caps_at_every_endpoint(self):
        plan = three_zone_plan()
        cap = plan.s * (max(plan.alphas) + max(plan.betas))
        endpoints = sorted(set(plan.zone_lo) | set(plan.zone_hi))
        hyp_for_endpoint = {0.15: 0, 0.35: 1, 0.55: 1, 0.75: 2}
        for th in endpoints:
            acc, *_ = oc_single(plan, th)
            i = hyp_for_endpoint[th]
            assert 1 - acc[i] <= cap

    def test_edge_zone_rejection_monotone_and_capped(self):
        plan = three_zone_plan()
        low_grid = np.linspace(0.02, 0.15, 14)
        high_grid = np.linspace(0.75, 0.98, 24)
        rej0 = [1 - oc_single(plan, t)[0][0] for t in low_grid]
        rej2 = [1 - oc_single(plan, t)[0][2] for t in high_grid]
        assert all(b >= a - 1e-12 for a, b in zip(rej0, rej0[1:]))
        assert all(b <= a + 1e-12 for a, b in zip(rej2, rej2[1:]))
        assert max(rej0) <= plan.s * max(plan.alphas)
        assert max(rej2) <= plan.s * max(plan.betas)

    def test_scale_ladder_shrinks_risk(self):
        """Endpoint risk falls along a shrinking risk-scale ladder."""
        worst = []
        for zeta in (0.5, 0.3, 0.1, 0.02):
            plan = build_one_sided_plan(BERN, EXACT, 0.4, 0.6, 0.05, 0.05,
                                        zeta, stages=3)
            acc0, *_ = oc_single(plan, 0.4)
            acc1, *_ = oc_single(plan, 0.6)
            worst.append(max(1 - acc0[0], acc1[0]))
        assert all(b < a for a, b in zip(worst, worst[1:]))


class TestSplitBound:
    def test_middle_zone_sandwich(self):
        """Two one-sided split pieces dominate rejection across the zone."""
        plan = three_zone_plan()
        a, b = plan.zone_hi[0], plan.zone_lo[1]
        cut = (a + b) / 2
        cap = (rejection_split(plan, 1, a, cut, "low")
               + rejection_split(plan, 1, b, cut, "high"))
        for theta in np.linspace(a, b, 21):
            acc, *_ = oc_single(plan, theta)
            assert 1 - acc[1] <= cap + 1e-12

    def test_split_pieces_monotone(self):
        plan = three_zone_plan()
        a, b = plan.zone_hi[0], plan.zone_lo[1]
        cut = (a + b) / 2
        grid = np.linspace(a, b, 11)
        lows = [rejection_split(plan, 1, t, cut, "low") for t in grid]
        highs = [rejection_split(plan, 1, t, cut, "high") for t in grid]
        assert all(y <= x + 1e-12 for x, y in zip(lows, lows[1:]))
        assert all(y >= x - 1e-12 for x, y in zip(highs, highs[1:]))

    def test_split_pieces_partition_rejection(self):
        plan = three_zone_plan()
        theta = 0.45
        cut = 0.45
        low = rejection_split(plan, 1, theta, cut, "low")
        high = rejection_split(plan, 1, theta, cut, "high")
        acc, *_ = oc_single(plan, theta)
        # overlap only at terminal estimates equal to the cut, if any decide
        assert low + high >= 1 - acc[1] - 1e-12

    def test_side_validation(self):
        with pytest.raises(DomainError):
            rejection_split(three_zone_plan(), 1, 0.45, 0.45, "middle")


class TestVerifyRisk:
    def test_classic_plan_misses_tight_budget(self):
        rep = verify_risk(classic_plan(), (0.05, 0.05))
        assert not rep.satisfied
        assert rep.zones[0].bound == pytest.approx(0.057614196044240, abs=1e-12)
        assert rep.zones[1].bound == pytest.approx(0.057614196044240, abs=1e-12)
        assert not rep.zones[0].satisfied
        assert rep.worst().bound > 0.05

    def test_loose_budget_passes(self):
        rep = verify_risk(classic_plan(), (0.2, 0.2))
        assert rep.satisfied
        assert all(z.satisfied for z in rep.zones)

    def test_tiny_scale_passes_with_margin(self):
        plan = build_one_sided_plan(BERN, EXACT, 0.4, 0.6, 0.05, 0.05, 0.02,
                                    stages=3)
        rep = verify_risk(plan, (0.05, 0.05))
        assert rep.satisfied
        assert all(z.bound < 0.2 * z.budget for z in rep.zones)

    def test_analytic_caps_reported(self):
        rep = verify_risk(classic_plan(), (0.05, 0.05))
        assert rep.analytic_caps["reject_h0"] == pytest.approx(5 * 0.025)
        assert rep.analytic_caps["accept_h0_wrongly"] == pytest.approx(5 * 0.025)

    def test_zone_count_validated(self):
        with pytest.raises(DomainError):
            verify_risk(classic_plan(), (0.05,))

    def test_middle_zone_budget_uses_both_endpoints(self):
        plan = three_zone_plan()
        rep = verify_risk(plan, (0.2, 0.3, 0.2))
        mid = rep.zones[1]
        assert mid.endpoints == (plan.zone_hi[0], plan.zone_lo[1])
        acc_a, *_ = oc_single(plan, plan.zone_hi[0])
        acc_b, *_ = oc_single(plan, plan.zone_lo[1])
        want = acc_a[:1].sum() + acc_b[2:].sum()
        assert mid.bound == pytest.approx(want, abs=1e-12)

    def test_endpoint_rejection_monotone_outward(self):
        plan = classic_plan()
        inner, *_ = oc_single(plan, 0.4)
        outer, *_ = oc_single(plan, 0.35)
        assert outer[0] >= inner[0]
