"""Difference-of-proportions pipeline tests.

Oracles: score-equation roots solved independently with brentq, direct
arithmetic for the truncation window, dict-free double-loop enumeration
for operating characteristics, and dense parameter grids for certificates.
"""

import dataclasses
import math
import re

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import ndtri
from scipy.stats import binom

from seqtest.errors import (DomainError, InfeasibleDesignError,
                            StreamExhaustedError)
from seqtest.twoprop import (Rectangle, _monotone, _RejectionBounds,
                             build_two_prop_plan, certify_risk, exact_oc, newcombe_limits,
                             rejection_prob_bounds, run_two_prop, tune_two_prop)

from helpers import without_final_stage


def small_plan():
    """Two zones split at [-0.3, 0.3], scale 0.5, stage sizes (4, 8)."""
    return build_two_prop_plan([-0.3], [0.3], 0.5, stage_ns=[4, 8])


# The scale ``tune_two_prop`` finds for zones [-0.2, 0.2], stages 10, 20, 40
# and budgets 0.22 at tolerance 0.05 (``TestTuning``).
TUNED_ZETA = 0.34140624999999997


def tuned_plan():
    return build_two_prop_plan([-0.2], [0.2], TUNED_ZETA, stage_ns=[10, 20, 40])


def three_hyp_plan():
    """Zones -0.5..-0.1 and 0.1..0.5, scale 0.5, 3 stages: monotone at both boundaries."""
    return build_two_prop_plan([-0.5, 0.1], [-0.1, 0.5], 0.5, stages=3)


def non_monotone_three_hyp_plan():
    """Zones -0.4..-0.1 and 0.1..0.4, scale 0.5, 3 stages.  At stage (3, 3)
    cell (1, 1) accepts the middle hypothesis while (2, 1) continues."""
    return build_two_prop_plan([-0.4, 0.1], [-0.1, 0.4], 0.5, stages=3)


def bent_plan():
    """``small_plan`` with first-stage cell (2, 0) undecided, though (1, 0)
    accepts hypothesis 1: the cells accepting it are no up-set in count_x."""
    plan = small_plan()
    first = plan.stages[0]
    decision = first.decision.copy()
    assert decision[1, 0] == decision[2, 0] == 1
    decision[2, 0] = -1
    return dataclasses.replace(
        plan, stages=(dataclasses.replace(first, decision=decision), *plan.stages[1:]))


def score_roots(phat, n, delta):
    """Interior roots of (p - phat)^2 = z^2 p(1-p)/n, solved numerically."""
    z = float(ndtri(1.0 - delta / 2.0))
    f = lambda p: (p - phat) ** 2 - z * z * p * (1.0 - p) / n
    lo = 0.0 if phat == 0 else brentq(f, 1e-12, phat - 1e-12, xtol=1e-15)
    hi = 1.0 if phat == 1 else brentq(f, phat + 1e-12, 1.0 - 1e-12, xtol=1e-15)
    return lo, hi


class TestNewcombeLimits:
    def test_symmetry_about_zero(self):
        for phat, n in [(0.3, 11), (0.5, 7), (0.0, 4), (1.0, 9)]:
            lo, up = newcombe_limits(phat, phat, n, n, 0.05)
            assert lo == pytest.approx(-up, abs=1e-15)

    def test_extreme_counts_value(self):
        # p_x=1, p_y=0 at equal arms of 10: the upper limit saturates at 1
        # and the lower limit combines the two interior score roots
        lo, up = newcombe_limits(1.0, 0.0, 10, 10, 0.05)
        z = float(ndtri(0.975))
        lx, _ = score_roots(1.0, 10, 0.05)
        _, uy = score_roots(0.0, 10, 0.05)
        want = 1.0 - z * math.sqrt(lx * (1 - lx) / 10 + uy * (1 - uy) / 10)
        assert float(lo) == pytest.approx(want, abs=1e-12)
        assert float(lo) == pytest.approx(0.6075093504305242, abs=1e-12)
        assert float(up) == 1.0

    def test_generic_point_against_root_solver(self):
        lo, up = newcombe_limits(0.3, 0.5, 12, 17, 0.05)
        z = float(ndtri(0.975))
        lx, ux = score_roots(0.3, 12, 0.05)
        ly, uy = score_roots(0.5, 17, 0.05)
        assert float(lo) == pytest.approx(
            -0.2 - z * math.sqrt(lx * (1 - lx) / 12 + uy * (1 - uy) / 17),
            abs=1e-12)
        assert float(up) == pytest.approx(
            -0.2 + z * math.sqrt(ux * (1 - ux) / 12 + ly * (1 - ly) / 17),
            abs=1e-12)

    def test_collapse_as_level_vanishes(self):
        lo, up = newcombe_limits(0.7, 0.2, 9, 13, 1.0 - 1e-12)
        assert float(lo) == pytest.approx(0.5, abs=1e-6)
        assert float(up) == pytest.approx(0.5, abs=1e-6)

    def test_tiny_level_gives_finite_limits(self):
        # 1 - delta / 2 rounds to 1 here, which made the critical value inf
        lo, up = newcombe_limits(0.7, 0.2, 9, 13, 1e-20)
        assert math.isfinite(float(lo)) and math.isfinite(float(up))
        assert float(lo) < 0.5 < float(up)

    def test_always_brackets_the_difference(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            nx, ny = rng.integers(1, 40, size=2)
            kx, ky = rng.integers(0, nx + 1), rng.integers(0, ny + 1)
            delta = rng.uniform(0.001, 0.999)
            lo, up = newcombe_limits(kx / nx, ky / ny, int(nx), int(ny), delta)
            diff = kx / nx - ky / ny
            assert float(lo) <= diff + 1e-12
            assert diff <= float(up) + 1e-12

    def test_level_validation(self):
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(DomainError):
                newcombe_limits(0.5, 0.5, 5, 5, bad)


class TestBuildPlan:
    def test_minimal_sizes_match_scan(self):
        # independent scan: smallest equal-arm size with a bracketing overlap,
        # then the smallest whose grid decides everywhere
        def grids(n, level_a, level_b):
            px = np.arange(n + 1) / n
            gx = px[:, None] + np.zeros((1, n + 1))
            gy = np.zeros((n + 1, 1)) + px[None, :]
            lo, _ = newcombe_limits(gx, gy, n, n, level_a)
            _, up = newcombe_limits(gx, gy, n, n, level_b)
            return lo, up

        first_tie = next(n for n in range(1, 60)
                         if ((lambda g: (g[0] >= -0.1) & (g[1] <= 0.1))
                             (grids(n, 0.5, 0.5))).any())
        assert first_tie == 5
        closed = next(n for n in range(first_tie, 60)
                      if ((lambda g: (g[0] >= -0.1) | (g[1] <= 0.1))
                          (grids(n, 0.5, 0.5))).all())
        assert closed == 23
        plan = build_two_prop_plan([-0.1], [0.1], 0.5, stages=2)
        assert plan.stage_sizes == ((1, 1), (23, 23))

    @pytest.mark.parametrize("stages", [0, -3])
    def test_stage_count_below_one_is_refused(self, stages):
        with pytest.raises(DomainError, match="at least one stage"):
            build_two_prop_plan([-0.3], [0.3], 0.5, stages=stages)

    @pytest.mark.parametrize("stage_ns", [[4.5, 8.2], [True, 8]])
    def test_stage_sizes_must_be_integers(self, stage_ns):
        with pytest.raises(DomainError, match="strictly increasing positive"):
            build_two_prop_plan([-0.3], [0.3], 0.5, stage_ns=stage_ns)

    def test_stage_count_is_refused_with_given_sizes(self):
        with pytest.raises(DomainError, match="at least one stage"):
            build_two_prop_plan([-0.3], [0.3], 0.5, stage_ns=[4, 8], stages=0)

    def test_stage_sizes_out_of_order_are_refused(self):
        """The grid recursion convolves in each arm's increment, so each arm's
        sizes must grow."""
        plan = small_plan()
        for stages in (plan.stages[::-1], plan.stages[:1] * 2, ()):
            with pytest.raises(DomainError, match="strictly increasing positive"):
                dataclasses.replace(plan, stages=stages)

    @pytest.mark.parametrize("zone_lo, zone_hi", [([], []), ([-0.3], [0.3, 0.5])])
    def test_zone_lists_are_nonempty_and_matching(self, zone_lo, zone_hi):
        with pytest.raises(DomainError, match="need matching nonempty zone endpoint"):
            build_two_prop_plan(zone_lo, zone_hi, 0.5)

    @pytest.mark.parametrize("hyp", [-1, 2])
    def test_zone_band_of_a_hypothesis_out_of_range(self, hyp):
        with pytest.raises(DomainError, match=f"hypothesis index out of range: {hyp}"):
            small_plan().zone_band(hyp)

    def test_wide_zone_single_sample(self):
        plan = build_two_prop_plan([-0.45], [0.45], 0.5)
        assert plan.stage_sizes == ((1, 1),)

    def test_partition_and_closure(self):
        plan = small_plan()
        for stage in plan.stages:
            vals = set(np.unique(stage.decision).tolist())
            assert vals <= {-1, 0, 1}
        assert (plan.stages[-1].decision != -1).all()
        assert plan.m == 2 and plan.s == 2
        assert plan.alphas == (0.5,) and plan.betas == (0.5,)

    def test_mirror_symmetry_off_tie_cells(self):
        # symmetric zones with equal arms: swapping the arms flips the
        # accepted index except where the midpoint tie rule fired
        plan = small_plan()
        for stage in plan.stages:
            d = stage.decision
            ties = stage.midpoint_used | stage.midpoint_used.T
            for kx in range(stage.n_x + 1):
                for ky in range(stage.n_y + 1):
                    if ties[kx, ky]:
                        continue
                    a, b = int(d[kx, ky]), int(d[ky, kx])
                    assert (a == -1) == (b == -1)
                    if a != -1:
                        assert b == 1 - a

    def test_validation(self):
        with pytest.raises(DomainError):
            build_two_prop_plan([0.1], [-0.1], 0.5)
        with pytest.raises(DomainError):
            build_two_prop_plan([-0.2, 0.1], [0.15, 0.4], 0.2)
        with pytest.raises(DomainError):
            build_two_prop_plan([-0.1], [0.1], 1.5)
        with pytest.raises(DomainError):
            build_two_prop_plan([-0.1], [0.1], 0.5, stage_ns=[8, 8])
        with pytest.raises(InfeasibleDesignError):
            build_two_prop_plan([-0.1], [0.1], 0.5, stage_ns=[3, 7])
        with pytest.raises(InfeasibleDesignError):
            build_two_prop_plan([-0.02], [0.02], 0.5, max_stage_size=60)


class TestRunPlan:
    def test_extreme_streams(self):
        plan = small_plan()
        out = run_two_prop(plan, [1] * 10, [0] * 10)
        assert out.accepted_index == plan.m - 1
        assert out.terminal_estimate == 1.0
        back = run_two_prop(plan, [0] * 10, [1] * 10)
        assert back.accepted_index == 0
        assert back.terminal_estimate == -1.0

    def test_replay_against_limit_conditions(self):
        # independent replay: re-derive each visited cell's decision from
        # the confidence limits and the shared-zone midpoint rule
        plan = small_plan()
        rng = np.random.default_rng(77)

        def oracle(xs, ys):
            kx = ky = 0
            used_x = used_y = 0
            for idx, stage in enumerate(plan.stages):
                kx += sum(xs[used_x:stage.n_x])
                ky += sum(ys[used_y:stage.n_y])
                used_x, used_y = stage.n_x, stage.n_y
                lo, _ = newcombe_limits(kx / stage.n_x, ky / stage.n_y,
                                        stage.n_x, stage.n_y, plan.alphas[0])
                _, up = newcombe_limits(kx / stage.n_x, ky / stage.n_y,
                                        stage.n_x, stage.n_y, plan.betas[0])
                low_ok = float(lo) >= plan.zone_lo[0]
                high_ok = float(up) <= plan.zone_hi[0]
                if low_ok and high_ok:
                    mid = (plan.zone_lo[0] + plan.zone_hi[0]) / 2.0
                    return (1 if kx / stage.n_x - ky / stage.n_y > mid
                            else 0), idx + 1
                if high_ok:
                    return 0, idx + 1
                if low_ok:
                    return 1, idx + 1
            raise AssertionError("closed plan failed to stop")

        for _ in range(300):
            px, py = rng.uniform(size=2)
            xs = (rng.uniform(size=8) < px).astype(int).tolist()
            ys = (rng.uniform(size=8) < py).astype(int).tolist()
            out = run_two_prop(plan, xs, ys)
            want_index, want_stage = oracle(xs, ys)
            assert (out.accepted_index, out.stage_index) == (want_index,
                                                             want_stage)

    def test_stream_validation(self):
        plan = small_plan()
        with pytest.raises(StreamExhaustedError):
            run_two_prop(plan, [0, 1, 0], [1] * 10)
        with pytest.raises(StreamExhaustedError, match=re.escape(
                "second-arm stream ended after 3 values; the stage of size 4 needs 1 more")):
            run_two_prop(plan, [1] * 10, [0, 1, 0])
        with pytest.raises(DomainError):
            run_two_prop(plan, [0, 1, 2, 0], [1] * 4)


class TestExactOC:
    def test_against_double_loop_enumeration(self):
        plan = build_two_prop_plan([-0.1], [0.1], 0.5, stage_ns=[2, 23])
        s1, s2 = plan.stages

        def brute(px, py):
            accept = [0.0, 0.0]
            asn_x = asn_y = 0.0
            for k1x in range(s1.n_x + 1):
                for k1y in range(s1.n_y + 1):
                    w1 = (binom.pmf(k1x, s1.n_x, px)
                          * binom.pmf(k1y, s1.n_y, py))
                    d = int(s1.decision[k1x, k1y])
                    if d != -1:
                        accept[d] += w1
                        asn_x += s1.n_x * w1
                        asn_y += s1.n_y * w1
                        continue
                    ix, iy = s2.n_x - s1.n_x, s2.n_y - s1.n_y
                    for jx in range(ix + 1):
                        for jy in range(iy + 1):
                            w2 = (w1 * binom.pmf(jx, ix, px)
                                  * binom.pmf(jy, iy, py))
                            accept[int(s2.decision[k1x + jx, k1y + jy])] += w2
                            asn_x += s2.n_x * w2
                            asn_y += s2.n_y * w2
            return accept, asn_x, asn_y

        for px, py in [(0.0, 0.0), (1.0, 0.0), (0.5, 0.5), (0.3, 0.7),
                       (0.85, 0.15)]:
            acc, ax, ay = exact_oc(plan, px, py)
            want_acc, want_ax, want_ay = brute(px, py)
            assert acc == pytest.approx(want_acc, abs=1e-12)
            assert ax == pytest.approx(want_ax, abs=1e-12)
            assert ay == pytest.approx(want_ay, abs=1e-12)
            assert sum(acc) == pytest.approx(1.0, abs=1e-12)

    def test_unclosed_plan_raises(self):
        # no plan type makes such a plan; the recursion still refuses one
        plan = build_two_prop_plan([-0.1], [0.1], 0.5, stage_ns=[2, 23])
        cut = without_final_stage(plan)
        with pytest.raises(InfeasibleDesignError):
            exact_oc(cut, 0.5, 0.5)

    def test_domain_validation(self):
        with pytest.raises(DomainError):
            exact_oc(small_plan(), 1.2, 0.5)


class TestSandwichBounds:
    def test_brackets_exact_probability(self):
        plan = small_plan()
        rng = np.random.default_rng(4)
        rects = [Rectangle(0.0, 1.0, 0.0, 1.0),
                 Rectangle(0.2, 0.6, 0.1, 0.5),
                 Rectangle(0.55, 0.9, 0.05, 0.3)]
        for rect in rects:
            for hyp in (0, 1):
                lo, up = rejection_prob_bounds(plan, hyp, rect)
                assert 0.0 <= lo <= up <= 1.0
                for _ in range(100):
                    px = rng.uniform(rect.px_lo, rect.px_hi)
                    py = rng.uniform(rect.py_lo, rect.py_hi)
                    acc, _, _ = exact_oc(plan, px, py)
                    rej = 1.0 - acc[hyp]
                    assert lo - 1e-12 <= rej <= up + 1e-12

    def test_point_rectangle_collapse(self):
        # at a point both pmf bounds are the pmf, so both bounds pin the
        # exact probability
        plan = build_two_prop_plan([-0.1], [0.1], 0.5, stage_ns=[2, 23])
        acc, _, _ = exact_oc(plan, 0.37, 0.52)
        exact_rej = 1.0 - acc[0]
        lo, up = rejection_prob_bounds(plan, 0, Rectangle(0.37, 0.37, 0.52, 0.52))
        assert lo == pytest.approx(exact_rej, abs=1e-12)
        assert up == pytest.approx(exact_rej, abs=1e-12)

    def test_shrinking_never_loosens(self):
        plan = small_plan()
        parent = Rectangle(0.2, 0.6, 0.1, 0.5)
        plo, pup = rejection_prob_bounds(plan, 0, parent)
        for child in parent.split():
            clo, cup = rejection_prob_bounds(plan, 0, child)
            assert clo >= plo - 1e-12
            assert cup <= pup + 1e-12

    def test_validation(self):
        with pytest.raises(DomainError):
            rejection_prob_bounds(small_plan(), 5, Rectangle(0, 1, 0, 1))
        with pytest.raises(DomainError):
            Rectangle(0.6, 0.4, 0.0, 1.0)


MONOTONE_PLANS = [small_plan, tuned_plan, three_hyp_plan]


def random_rect(rng):
    (x0, x1), (y0, y1) = np.sort(rng.uniform(size=(2, 2)), axis=1)
    return Rectangle(float(x0), float(x1), float(y0), float(y1))


class TestCornerBounds:
    """Bounds from exact values at two corners, where the plan is monotone."""

    @pytest.mark.parametrize("plan_fn", MONOTONE_PLANS)
    def test_monotone_plans_take_the_corner_path(self, plan_fn):
        plan = plan_fn()
        assert all(_monotone(plan, b) for b in range(1, plan.m))
        for hyp in range(plan.m):
            assert _RejectionBounds(plan, hyp).path == "corner"

    @pytest.mark.parametrize("plan_fn", MONOTONE_PLANS)
    def test_bounds_contain_the_exact_rejection(self, plan_fn):
        plan = plan_fn()
        rng = np.random.default_rng(31)
        for hyp in range(plan.m):
            for _ in range(6):
                rect = random_rect(rng)
                lo, up = rejection_prob_bounds(plan, hyp, rect)
                assert 0.0 <= lo <= up <= 1.0
                for _ in range(15):
                    px = rng.uniform(rect.px_lo, rect.px_hi)
                    py = rng.uniform(rect.py_lo, rect.py_hi)
                    rej = 1.0 - exact_oc(plan, px, py)[0][hyp]
                    assert lo - 1e-12 <= rej <= up + 1e-12, (hyp, rect, px, py)

    @pytest.mark.parametrize("plan_fn", MONOTONE_PLANS)
    def test_point_rectangle_gives_the_exact_rejection(self, plan_fn):
        plan = plan_fn()
        for px, py in [(0.37, 0.52), (0.0, 1.0), (0.9, 0.15), (0.5, 0.5)]:
            acc, _, _ = exact_oc(plan, px, py)
            for hyp in range(plan.m):
                lo, up = rejection_prob_bounds(plan, hyp, Rectangle(px, px, py, py))
                assert lo == up
                assert lo == pytest.approx(1.0 - acc[hyp], abs=1e-12)


class TestRadiusBounds:
    """Bounds from the exact value at the centre, widened by the Fisher-Rao radius."""

    @pytest.mark.parametrize("plan_fn", MONOTONE_PLANS + [non_monotone_three_hyp_plan, bent_plan])
    def test_radius_bounds_contain_the_exact_rejection(self, plan_fn):
        # sound on every plan, monotone or not
        plan = plan_fn()
        rng = np.random.default_rng(32)
        for hyp in range(plan.m):
            dp = _RejectionBounds(plan, hyp)
            for rect in [Rectangle(0.0, 1.0, 0.0, 1.0)] + [random_rect(rng) for _ in range(10)]:
                lo, up = dp.radius(rect)
                assert 0.0 <= lo <= up <= 1.0
                for px, py in [(rect.px_lo, rect.py_lo), (rect.px_hi, rect.py_hi)] + [
                        (rng.uniform(rect.px_lo, rect.px_hi), rng.uniform(rect.py_lo, rect.py_hi))
                        for _ in range(8)]:
                    rej = 1.0 - exact_oc(plan, px, py)[0][hyp]
                    assert lo - 1e-12 <= rej <= up + 1e-12, (hyp, rect, px, py)

    def test_non_monotone_three_hyp_plan_takes_the_radius_path(self):
        plan = non_monotone_three_hyp_plan()
        assert plan.stage_sizes[1] == (3, 3)
        decision = plan.stages[1].decision
        assert decision[1, 1] == 1 and decision[2, 1] == -1
        assert not _monotone(plan, 1) and not _monotone(plan, 2)
        # verdicts as the interval DP gave them before the radius path
        for hyp, delta, want in [(0, 0.5, "disproved"), (0, 0.7, "proved"),
                                 (1, 0.5, "disproved"), (1, 0.6, "proved"),
                                 (2, 0.6, "inconclusive")]:
            cert = certify_risk(plan, hyp, delta)
            assert (cert.verdict, cert.bounds) == (want, "radius")

    def test_bent_two_hyp_plan_takes_the_radius_path(self):
        plan = bent_plan()
        assert _monotone(small_plan(), 1) and not _monotone(plan, 1)
        for hyp, delta, want in [(0, 0.1, "disproved"), (0, 0.15, "proved"),
                                 (1, 0.2, "disproved"), (1, 0.35, "proved")]:
            cert = certify_risk(plan, hyp, delta)
            assert (cert.verdict, cert.bounds) == (want, "radius")
        # the radius bounds hold: sample the trace of a proof
        cert = certify_risk(plan, 1, 0.35)
        rng = np.random.default_rng(33)
        for j in rng.choice(len(cert.trace), size=10, replace=False):
            rect, lo, up, _ = cert.trace[int(j)]
            px = rng.uniform(rect.px_lo, rect.px_hi)
            py = rng.uniform(rect.py_lo, rect.py_hi)
            rej = 1.0 - exact_oc(plan, px, py)[0][1]
            assert lo - 1e-12 <= rej <= up + 1e-12


class TestCertificates:
    def zone_grid_max(self, plan, hyp, points=80):
        band = plan.zone_band(hyp)
        grid = np.linspace(0.0, 1.0, points)
        best = 0.0
        for px in grid:
            for py in grid:
                if band[0] <= px - py <= band[1]:
                    acc, _, _ = exact_oc(plan, float(px), float(py))
                    best = max(best, 1.0 - acc[hyp])
        return best

    def test_trivial_verdicts(self):
        plan = small_plan()
        c1 = certify_risk(plan, 0, 1.0)
        assert c1.verdict == "proved" and c1.explored == 1
        c0 = certify_risk(plan, 0, 0.0, budget=3000)
        assert c0.verdict == "disproved"
        assert certify_risk(plan, 0, 0.5, budget=1).verdict == "inconclusive"

    def test_verdicts_agree_with_grid_oracle(self):
        plan = small_plan()
        # grid maxima: ~0.1039 on zone 0, ~0.2895 on zone 1
        m0 = self.zone_grid_max(plan, 0)
        m1 = self.zone_grid_max(plan, 1)
        assert m0 == pytest.approx(0.10389165448921722, abs=1e-12)
        assert m1 == pytest.approx(0.2895258945443826, abs=1e-12)
        for hyp, delta, want in [(0, 0.15, "proved"), (0, 0.05, "disproved"),
                                 (1, 0.35, "proved"), (1, 0.20, "disproved")]:
            cert = certify_risk(plan, hyp, delta, budget=8000)
            assert cert.verdict == want
            if want == "proved":
                assert (m0 if hyp == 0 else m1) <= delta
            else:
                assert cert.witness is not None

    def test_validation(self):
        with pytest.raises(DomainError):
            certify_risk(small_plan(), 0, 1.5)

    @pytest.mark.parametrize("plan_fn, hyp, delta, budget_used, explored", [
        (small_plan, 0, 0.15, 67, 47),
        (small_plan, 1, 0.35, 83, 61),
        (tuned_plan, 0, 0.22, 78, 54),
        (tuned_plan, 1, 0.22, 385, 261),
    ], ids=["small-h0", "small-h1", "tuned-h0", "tuned-h1"])
    def test_search_size_is_pinned(self, plan_fn, hyp, delta, budget_used, explored):
        cert = certify_risk(plan_fn(), hyp, delta)
        assert (cert.verdict, cert.budget_used, cert.explored) == (
            "proved", budget_used, explored)
        assert len(cert.trace) == budget_used

    def test_trace_holds_the_cold_bounds(self):
        # the certificate reuses exact point values (corners, or centres for
        # the radius bound) across its rectangles; a fresh call per
        # rectangle must give the same numbers
        plan = tuned_plan()
        cert = certify_risk(plan, 1, 0.22)
        rng = np.random.default_rng(6)
        picks = rng.choice(len(cert.trace), size=40, replace=False)
        for j in sorted(picks.tolist()) + [len(cert.trace) - 1]:
            rect, lo, up, slack = cert.trace[j]
            assert slack == 0.0
            assert rejection_prob_bounds(plan, 1, rect) == (lo, up)


class TestTuning:
    def test_frozen_tuning_point(self):
        fam = lambda z: build_two_prop_plan([-0.3], [0.3], z, stage_ns=[4, 8])
        res = tune_two_prop(fam, (0.25, 0.25), tol=1e-2)
        assert res.zeta == pytest.approx(0.301640625, abs=1e-12)
        assert res.bracket == pytest.approx((0.301640625, 0.30357421875),
                                            abs=1e-12)
        assert res.iterations == 10
        for hyp in (0, 1):
            assert certify_risk(fam(res.zeta), hyp, 0.25).proved
        # the bracket is tight: just above its top the plan fails a zone
        above = fam(res.bracket[1] * 1.001)
        assert not all(certify_risk(above, h, 0.25).proved for h in (0, 1))

    def test_benchmark_tuned_zeta(self):
        fam = lambda z: build_two_prop_plan([-0.2], [0.2], z, stage_ns=[10, 20, 40])
        res = tune_two_prop(fam, (0.22, 0.22), tol=0.05)
        assert res.zeta == TUNED_ZETA
        assert res.iterations == 7

    def test_budget_count_must_match_the_hypotheses(self):
        fam = lambda z: build_two_prop_plan([-0.3], [0.3], z, stage_ns=[4, 8])
        for deltas in [(0.25,), (0.25, 0.25, 0.25)]:
            with pytest.raises(DomainError, match="need one rejection budget per hypothesis"):
                tune_two_prop(fam, deltas, tol=1e-2)
