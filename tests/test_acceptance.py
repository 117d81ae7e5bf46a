"""Acceptance gate: nine oracle-backed criteria, one test per criterion.

Every test prints one summary line when it passes; the assertions carry
the stated tolerances.  Oracles are computed independently of the code
under test: scipy tail functions, full-path enumeration, dense parameter
grids, and seeded Monte Carlo.
"""

import itertools
import math

import numpy as np
import pytest
from scipy.stats import binom

from seqtest.conflimits import ChernoffLimits, ExactLimits
from seqtest.models import Bernoulli, Poisson
from seqtest.ocexact import oc_curve, oc_single, rejection_split
from seqtest.plans import (build_multihyp_plan, build_one_sided_plan,
                           decision_variable)
from seqtest.sim import compare, simulate
from seqtest.sprt import SprtSpec
from seqtest.tuning import tune_zeta
from seqtest.twoprop import (Rectangle, build_two_prop_plan, certify_risk,
                             exact_oc, rejection_prob_bounds,
                             truncation_bounds)

BERN = Bernoulli()
POIS = Poisson()
EXACT = ExactLimits()
CHER = ChernoffLimits()


def one_sided_test_set():
    """Bernoulli plans with final stage size at most 30, mixed settings."""
    specs = [
        (EXACT, 0.3, 0.7, 0.1, 0.1, 0.5, 1),
        (EXACT, 0.3, 0.7, 0.1, 0.1, 0.5, 2),
        (EXACT, 0.3, 0.7, 0.1, 0.1, 0.5, 3),
        (CHER, 0.25, 0.75, 0.05, 0.05, 0.5, 2),
        (EXACT, 0.2, 0.6, 0.1, 0.2, 0.4, 2),
        (EXACT, 0.35, 0.8, 0.15, 0.05, 0.6, 3),
        (CHER, 0.2, 0.7, 0.1, 0.1, 0.3, 2),
        (EXACT, 0.4, 0.8, 0.05, 0.1, 0.5, 2),
        (EXACT, 0.1, 0.5, 0.1, 0.1, 0.5, 3),
        (CHER, 0.3, 0.75, 0.2, 0.1, 0.5, 1),
        (CHER, 0.25, 0.8, 0.1, 0.1, 0.5, 2),
    ]
    return [build_one_sided_plan(BERN, fam, t0, t1, a, b, z, stages=st)
            for fam, t0, t1, a, b, z, st in specs]


def three_hypothesis_plan():
    return build_multihyp_plan(BERN, EXACT, [0.1, 0.55], [0.45, 0.9], 0.5,
                               [0.1, 0.1], base_betas=[0.1, 0.1], stages=2)


def brute_force_oc(plan, theta):
    """Full-path enumeration over stagewise count increments."""
    ns = plan.stage_ns
    incs = [ns[0]] + [b - a for a, b in zip(ns, ns[1:])]
    accept = np.zeros(plan.m)
    asn = 0.0
    ranges = [range(i + 1) for i in incs]
    for path in itertools.product(*ranges):
        weight = 1.0
        for inc, k in zip(incs, path):
            weight *= binom.pmf(k, inc, theta)
        if weight == 0.0:
            continue
        total = 0
        for stage, k in enumerate(path, start=1):
            total += k
            d = decision_variable(plan, stage, total / ns[stage - 1])
            if d != 0:
                accept[d - 1] += weight
                asn += ns[stage - 1] * weight
                break
        else:
            raise AssertionError("closed plan failed to stop")
    return accept, asn


class TestAcceptance:
    @pytest.mark.slow
    def test_criterion_1_exact_coverage(self):
        # both one-sided limits miss the parameter with probability at
        # most delta, computed by exact tails over the whole support
        thetas = np.round(np.arange(0.01, 0.995, 0.01), 12)
        for family in (EXACT, CHER):
            for n in range(1, 51):
                ks = np.arange(n + 1)
                for delta in (0.5, 0.1, 0.05, 0.01):
                    lows = np.array([family.lower(BERN, n, k / n, delta)
                                     for k in ks])
                    ups = np.array([family.upper(BERN, n, k / n, delta)
                                    for k in ks])
                    assert np.all(np.diff(lows) >= 0)
                    assert np.all(np.diff(ups) >= 0)
                    # a limit exactly at theta is not a miss, so the
                    # violating index sets are strict on both sides
                    k_lo = np.searchsorted(lows, thetas, side="right")
                    k_up = np.searchsorted(ups, thetas, side="left") - 1
                    viol_lo = binom.sf(k_lo - 1, n, thetas)
                    viol_up = np.where(k_up >= 0,
                                       binom.cdf(np.maximum(k_up, 0), n,
                                                 thetas), 0.0)
                    assert np.all(viol_lo <= delta), (family.tag, n, delta)
                    assert np.all(viol_up <= delta), (family.tag, n, delta)
        print("criterion 1 (exact coverage): PASS")

    def test_criterion_2_chernoff_suite(self):
        slack = 1e-12
        # tail inequality on dense grids, both models, both sides
        for n in (1, 5, 20, 50):
            for theta in np.arange(0.05, 0.951, 0.05):
                for z in np.arange(0.0, 1.001, 0.02):
                    z = round(float(z), 10)
                    cap = BERN.chernoff(z, float(theta)) ** n
                    if z >= theta:
                        assert BERN.tail_upper(n, z, float(theta)) <= cap + slack
                    if z <= theta:
                        assert BERN.tail_lower(n, z, float(theta)) <= cap + slack
        for n in (1, 10):
            for theta in (0.5, 1.7, 4.0):
                for z in np.arange(0.0, 4 * theta, 0.1):
                    z = float(z)
                    cap = POIS.chernoff(z, theta) ** n
                    if z >= theta:
                        assert POIS.tail_upper(n, z, theta) <= cap + slack
                    if z <= theta:
                        assert POIS.tail_lower(n, z, theta) <= cap + slack
        # four monotonicity directions around the peak at z == theta
        zs = np.arange(0.02, 0.99, 0.02)
        for theta in (0.2, 0.5, 0.8):
            vals = np.array([BERN.chernoff(float(z), theta) for z in zs])
            left = vals[zs <= theta]
            right = vals[zs >= theta]
            assert np.all(np.diff(left) >= -slack)
            assert np.all(np.diff(right) <= slack)
        thetas = np.arange(0.02, 0.99, 0.02)
        for z in (0.3, 0.6):
            vals = np.array([BERN.chernoff(z, float(t)) for t in thetas])
            below = vals[thetas <= z]
            above = vals[thetas >= z]
            assert np.all(np.diff(below) >= -slack)
            assert np.all(np.diff(above) <= slack)
        print("criterion 2 (large-deviation bound and monotonicity): PASS")

    @pytest.mark.slow
    def test_criterion_3_sample_bound(self):
        rng = np.random.default_rng(2601)
        for i in range(20):
            if i % 2 == 0:
                model = BERN
                t0 = rng.uniform(0.15, 0.45)
                t1 = t0 + rng.uniform(0.15, 0.35)
            else:
                model = POIS
                t0 = rng.uniform(1.0, 4.0)
                t1 = t0 * rng.uniform(1.4, 2.2)
            a = rng.uniform(0.02, 0.1)
            b = rng.uniform(0.02, 0.1)
            z = rng.uniform(0.3, 0.8)
            plan = build_one_sided_plan(model, EXACT, t0, t1, a, b, z,
                                        stages=3)
            cap = plan.sample_cap
            assert cap is not None and plan.stage_ns[-1] <= cap
            # a single stage of exactly the cap size decides everywhere:
            # building it would fail if any continuation point remained
            single = build_one_sided_plan(model, EXACT, t0, t1, a, b, z,
                                          stage_ns=[cap])
            top = cap if model is BERN else int(math.ceil(6 * t1 * cap)) + 30
            for k in range(top + 1):
                assert decision_variable(single, 1, k / cap) != 0
            # seeded runs through the staged plan never pass the bound
            mid = 0.5 * (t0 + t1)
            rep = simulate(plan, mid, 10_000, 1000 + i)
            assert rep.max_samples <= cap
        print("criterion 3 (sample-size bound): PASS")

    def test_criterion_4_stagewise_risk_caps(self):
        for plan in one_sided_test_set():
            cap_a = plan.s * plan.zeta * plan.alpha
            cap_b = plan.s * plan.zeta * plan.beta
            accept0 = oc_single(plan, plan.theta0)[0]
            accept1 = oc_single(plan, plan.theta1)[0]
            assert accept0[1] <= cap_a
            assert accept1[0] <= cap_b
        plan3 = three_hypothesis_plan()
        for j in range(plan3.m - 1):
            up = oc_single(plan3, plan3.zone_lo[j])[0]
            down = oc_single(plan3, plan3.zone_hi[j])[0]
            assert float(np.sum(up[j + 1:])) <= \
                plan3.s * plan3.zeta * plan3.base_alphas[j]
            assert float(np.sum(down[:j + 1])) <= \
                plan3.s * plan3.zeta * plan3.base_betas[j]
        print("criterion 4 (stagewise risk caps): PASS")

    def test_criterion_5_dp_vs_brute_force(self):
        plans = one_sided_test_set()
        plan3 = three_hypothesis_plan()
        plans.append(plan3)
        assert len(plans) >= 10
        assert all(p.stage_ns[-1] <= 30 for p in plans)
        for plan in plans:
            thetas = [0.2, 0.45, 0.7] if plan.m == 2 else [0.1, 0.5, 0.9]
            for theta in thetas:
                accept, asn, _, _ = oc_single(plan, theta)
                want_accept, want_asn = brute_force_oc(plan, theta)
                assert np.max(np.abs(accept - want_accept)) < 1e-10
                assert abs(asn - want_asn) < 1e-10
                assert abs(np.sum(accept) - 1.0) < 1e-10
        # the three-hypothesis plan also honors the zone-endpoint
        # structure: edge acceptance monotone, rejection splits add up
        grid = np.round(np.arange(0.02, 0.99, 0.02), 12)
        curve = oc_curve(plan3, grid)
        assert np.all(np.diff(curve.accept[:, 0]) <= 1e-12)
        assert np.all(np.diff(curve.accept[:, plan3.m - 1]) >= -1e-12)
        for theta in (0.3, 0.5, 0.7):
            total = 1.0 - oc_single(plan3, theta)[0][1]
            low = rejection_split(plan3, 1, theta, 0.453, "low")
            high = rejection_split(plan3, 1, theta, 0.453, "high")
            assert abs(low + high - total) < 1e-10
        print("criterion 5 (dynamic program vs full enumeration): PASS")

    def test_criterion_6_tuning_soundness(self):
        tol = 1e-3

        def family(z):
            return build_one_sided_plan(BERN, EXACT, 0.4, 0.6, 0.05, 0.05, z,
                                        stages=5)

        def feasible(z):
            try:
                plan = family(z)
            except Exception:
                return False
            return (oc_single(plan, 0.4)[0][1] <= 0.05
                    and oc_single(plan, 0.6)[0][0] <= 0.05)

        res = tune_zeta(family, (0.05, 0.05), tol=tol)
        assert feasible(res.zeta)
        # a dense scale grid brackets the true frontier around the result
        step = res.zeta * tol
        for i in range(-3, 4):
            z = res.zeta + i * step
            if z <= res.zeta:
                assert feasible(z), z
            elif z >= res.zeta * (1.0 + tol):
                assert not feasible(z), z
        print("criterion 6 (risk-scale tuning soundness): PASS")

    def test_criterion_7_two_prop_sandwich_and_certificates(self):
        plan = build_two_prop_plan([-0.3], [0.3], 0.5, stage_ns=[4, 8])
        assert all(n <= 15 for pair in plan.stage_sizes for n in pair)
        rng = np.random.default_rng(19)
        rects = [Rectangle(0.0, 1.0, 0.0, 1.0),
                 Rectangle(0.2, 0.6, 0.1, 0.5),
                 Rectangle(0.55, 0.9, 0.05, 0.3),
                 Rectangle(0.05, 0.35, 0.45, 0.85)]
        for rect in rects:
            for hyp in range(plan.m):
                lo, up = rejection_prob_bounds(plan, hyp, rect)
                for _ in range(100):
                    px = rng.uniform(rect.px_lo, rect.px_hi)
                    py = rng.uniform(rect.py_lo, rect.py_hi)
                    rej = 1.0 - exact_oc(plan, px, py)[0][hyp]
                    assert lo - 1e-12 <= rej <= up + 1e-12

        grid = np.linspace(0.0, 1.0, 200)
        grid_max = [0.0, 0.0]
        for hyp in range(plan.m):
            band = plan.zone_band(hyp)
            for px in grid:
                for py in grid:
                    if band[0] <= px - py <= band[1]:
                        rej = 1.0 - exact_oc(plan, float(px), float(py))[0][hyp]
                        grid_max[hyp] = max(grid_max[hyp], rej)
        for hyp, delta, want in [(0, 0.15, "proved"), (0, 0.05, "disproved"),
                                 (1, 0.35, "proved"), (1, 0.20, "disproved")]:
            cert = certify_risk(plan, hyp, delta, budget=8000)
            assert cert.verdict == want
            if want == "proved":
                assert grid_max[hyp] <= delta
            else:
                assert grid_max[hyp] > delta
        print("criterion 7 (two-sample sandwich and certificates): PASS")

    def test_criterion_8_truncation_guarantee(self):
        thetas = np.round(np.arange(0.0, 1.0001, 0.01), 12)
        for n in (10, 50, 100, 200):
            for eta in (0.1, 0.01):
                for theta in thetas:
                    lb, ub = truncation_bounds(float(theta), n, eta)
                    lost = (binom.cdf(round(lb * n) - 1, n, theta)
                            + binom.sf(round(ub * n), n, theta))
                    assert lost <= eta + 1e-12, (n, eta, theta)
        print("criterion 8 (truncation guarantee): PASS")

    @pytest.mark.slow
    def test_criterion_9_efficiency_report(self):
        tol = 1e-3

        def family(z):
            return build_one_sided_plan(BERN, EXACT, 0.4, 0.6, 0.05, 0.05, z,
                                        stages=5)

        tuned = tune_zeta(family, (0.05, 0.05), tol=tol).plan
        walk = SprtSpec(BERN, 0.4, 0.6, 0.05, 0.05)
        thetas = [round(0.3 + 0.05 * i, 2) for i in range(9)]
        report = compare([tuned, walk], thetas, 100_000, 90210,
                         names=["multistage", "walk"])
        print("runner      theta   asn      p99    max")
        for name, rep in report.rows:
            print(f"{name:<11} {rep.theta:<7} {rep.asn:<8.2f} "
                  f"{rep.stop_percentiles[99]:<6.0f} {rep.max_samples}")
        plan_rows = [r for n, r in report.rows if n == "multistage"]
        walk_rows = [r for n, r in report.rows if n == "walk"]
        n_s = tuned.stage_ns[-1]
        assert all(r.max_samples <= n_s for r in plan_rows)
        assert max(r.max_samples for r in plan_rows) == n_s
        assert any(r.max_samples > n_s for r in walk_rows)
        print("criterion 9 (efficiency report): PASS")
