"""Plan construction, decision thresholds, and plan execution."""

import dataclasses
import math
import pathlib
import re
import time

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqtest import ocexact, sim
from seqtest.conflimits import ExactLimits
from seqtest.errors import DomainError, InfeasibleDesignError, StreamExhaustedError
from seqtest import plans
from seqtest.models import Bernoulli, Poisson, lr_count
from seqtest.plans import (
    MultiHypPlan,
    OneSidedPlan,
    StageRule,
    TIEBREAK_ALWAYS_ACCEPT,
    TIEBREAK_ALWAYS_REJECT,
    TIEBREAK_LIKELIHOOD_RATIO,
    build_multihyp_plan,
    build_one_sided_plan,
    build_stage_rule,
    check_stage_sizes,
    run_plan,
    sample_bound,
    stage_is_closed,
    stage_schedule,
)
from seqtest.plandoc import doc_to_plan, parse_doc
from seqtest.sprt import SprtSpec
from seqtest.twoprop import CONTINUE, build_two_prop_plan

from helpers import closed_stage, decision_for_sum, zones

GOLDEN = pathlib.Path(__file__).parent / "data" / "plans"
BERN = Bernoulli()
POIS = Poisson()
EXACT = ExactLimits()


def classic_plan(**kw):
    """Five-stage plan used throughout: zone (0.4, 0.6), both risks 0.05."""
    args = dict(stages=5)
    args.update(kw)
    return build_one_sided_plan(BERN, EXACT, 0.4, 0.6, 0.05, 0.05, 0.5, **args)


class TestSampleBound:
    def test_classic_value(self):
        # independent closed form: both log ratios equal 2 ln(0.025)/ln(0.96)
        raw = 2 * math.log(0.025) / math.log(0.96)
        assert 180.7 < raw < 180.8
        assert sample_bound(BERN, 0.4, 0.6, 0.025, 0.025) == 180
        assert sample_bound(BERN, 0.4, 0.6, 0.025, 0.025) == math.ceil(raw) - 1

    def test_symmetric_risks_give_equal_log_ratios(self):
        mid = 0.5
        a = math.log(0.025) / float(BERN.log_chernoff(mid, 0.4))
        b = math.log(0.025) / float(BERN.log_chernoff(mid, 0.6))
        assert a == pytest.approx(b, rel=1e-12)

    def test_grows_without_bound_as_scale_shrinks(self):
        caps = [sample_bound(BERN, 0.4, 0.6, z, z)
                for z in (0.1, 0.01, 1e-4, 1e-8)]
        assert all(b > a for a, b in zip(caps, caps[1:]))
        assert caps[-1] > 4 * caps[0]

    def test_degenerate_zone_rejected(self):
        with pytest.raises(DomainError):
            sample_bound(BERN, 0.5, 0.5, 0.025, 0.025)


class TestStageRule:
    def test_two_hypothesis_rule_matches_support_scan(self):
        """Thirty-draw stage against a direct scan of all 31 support points."""
        rule = build_stage_rule(BERN, EXACT, 30, [0.4], [0.6], [0.025], [0.025])
        accept_low = np.array(
            [EXACT.upper(BERN, 30, k / 30, 0.025) <= 0.6 for k in range(31)])
        accept_high = np.array(
            [EXACT.lower(BERN, 30, k / 30, 0.025) >= 0.4 for k in range(31)])
        assert not (accept_low & accept_high).any()
        for k in range(31):
            want = 1 if accept_low[k] else 2 if accept_high[k] else 0
            assert decision_for_sum(rule, k) == want
        assert rule.windows == ((0, 12), (18, 30))
        assert rule.ties == (None,)
        # threshold in mean units sits at the edge of the accept-low set
        assert rule.f[0] == pytest.approx(12 / 30)
        assert 17 / 30 < rule.g[1] < 18 / 30

    def test_overlap_region_recorded_and_split(self):
        """When both crossings hold the tie window is cut, not dropped."""
        rule = build_stage_rule(BERN, EXACT, 150, [0.4], [0.6], [0.025], [0.025])
        accept_low = np.array(
            [EXACT.upper(BERN, 150, k / 150, 0.025) <= 0.6 for k in range(151)])
        accept_high = np.array(
            [EXACT.lower(BERN, 150, k / 150, 0.025) >= 0.4 for k in range(151)])
        both = np.flatnonzero(accept_low & accept_high)
        assert rule.ties == ((both[0], both[-1]),)
        assert rule.ties == ((73, 77),)
        # every support point with at least one crossing is decided
        for k in range(151):
            d = decision_for_sum(rule, k)
            if accept_low[k] and not accept_high[k]:
                assert d == 1
            elif accept_high[k] and not accept_low[k]:
                assert d == 2
            elif not accept_low[k] and not accept_high[k]:
                assert d == 0
            else:
                assert d in (1, 2)
                assert rule.tie_for_sum(k)

    def test_empty_sets_disable_decisions(self):
        rule = build_stage_rule(BERN, EXACT, 2, [0.4], [0.6], [0.01], [0.01])
        assert rule.windows == (None, None)
        assert rule.f == (-math.inf, math.inf)
        assert rule.g == (-math.inf, math.inf)
        assert all(decision_for_sum(rule, k) == 0 for k in range(3))

    def test_poisson_top_window_unbounded(self):
        rule = build_stage_rule(POIS, EXACT, 8, [1.0], [2.0], [0.05], [0.05])
        assert rule.windows == ((0, 9), (14, None))
        assert decision_for_sum(rule, 9) == 1
        assert decision_for_sum(rule, 11) == 0
        assert decision_for_sum(rule, 500) == 2

    def test_three_zone_rule_windows_are_ordered(self):
        rule = build_stage_rule(BERN, EXACT, 60, [0.2, 0.6], [0.4, 0.8],
                                [0.05, 0.05], [0.05, 0.05])
        spans = [w for w in rule.windows if w is not None]
        for (_, hi), (lo, _) in zip(spans, spans[1:]):
            assert hi < lo


class TestLikelihoodRatioTie:
    """At k = n / 2 the 0.4 and 0.6 likelihoods are equal, and with alpha = beta
    the rule accepts H0 when their ratio is at least 1."""

    def test_exact_tie_accepts(self):
        plan = build_one_sided_plan(BERN, EXACT, 0.4, 0.6, 0.05, 0.05, 0.5,
                                    stage_ns=[104, 105])
        assert plan.stages[0].ties == ((52, 52),)
        assert decision_for_sum(plan.stages[0], 52) == 1

    def test_exact_tie_accepts_at_every_even_size(self):
        ns = np.arange(2, 3001, 2)
        min_a, max_b = plans._crossing_counts(BERN, EXACT, ns, [0.4], [0.6], [0.025], [0.025])
        tied = np.flatnonzero((min_a[0] <= ns // 2) & (ns // 2 <= max_b[0]))
        assert len(tied) == 1449
        wrong = [int(ns[j]) for j in tied
                 if decision_for_sum(plans._rule_from_counts(
                     BERN, int(ns[j]), min_a[:, j], max_b[:, j], [0.4], [0.6], None,
                     (0.4, 0.6, 0.0)), int(ns[j]) // 2) != 1]
        assert wrong == []

    @pytest.mark.parametrize("model, top", [(BERN, 1.0), (POIS, 20.0)])
    def test_cut_is_where_the_exact_ratio_line_meets_the_level(self, model, top):
        """``lr_count``, which the tie cut and the SPRT read, against the exact
        line: the largest count whose ratio is at most the level and the
        smallest whose ratio is at least it, for a scalar n and an array."""
        rng = np.random.default_rng(17)
        with mp.workdps(40):
            for _ in range(300):
                t0, t1 = sorted(float(x) for x in rng.uniform(0.0, top, 2))
                ns = rng.integers(1, 5000, 4)
                level = math.log(rng.uniform(0.001, 0.3) / rng.uniform(0.001, 0.3))
                m0, m1 = mp.mpf(t0), mp.mpf(t1)
                if model is BERN:
                    offset = mp.log((1 - m1) / (1 - m0))
                    slope = mp.log(m1 / m0) - offset
                else:
                    slope, offset = mp.log(m1 / m0), m0 - m1
                crossings = [(level - int(n) * offset) / slope for n in ns]
                line = model.log_lr_line(t0, t1)
                for at_least, rounding in ((False, mp.floor), (True, mp.ceil)):
                    want = [int(rounding(x)) for x in crossings]
                    got = lr_count(line, int(ns[0]), level, at_least)
                    assert np.ndim(got) == 0 and got == want[0]
                    assert lr_count(line, ns, level, at_least).tolist() == want

    def test_a_count_on_the_line_survives_float_noise(self):
        """0.4 against 0.6 has ratio (2k - n) log 1.5, so level 0 lies on the
        count n / 2; without the count slack about 100 of these even sizes
        would round off it on either side."""
        ns = np.arange(2, 3001, 2)
        line = BERN.log_lr_line(0.4, 0.6)
        assert (lr_count(line, ns, 0.0) == ns // 2).all()
        assert (lr_count(line, ns, 0.0, at_least=True) == ns // 2).all()

    @pytest.mark.parametrize("model, t0, t1", [(BERN, 0.4, 0.6), (POIS, 1.0, 1.5)])
    def test_alpha_equal_beta_cuts_ties_at_the_capped_sprt_accept_count(self, model, t0, t1):
        """With alpha = beta the tie rule reads the same count line as an SPRT
        capped at the stage: each tied stage accepts exactly the counts up
        to that SPRT's accept count at its cap."""
        plan = build_one_sided_plan(model, EXACT, t0, t1, 0.05, 0.05, 0.5,
                                    stage_ns=range(50, 251))
        tied = [rule for rule in plan.stages if rule.ties[0] is not None]
        split = 0
        for rule in tied:
            spec = SprtSpec(model, t0, t1, 0.05, 0.05, cap=rule.n)
            accept = int(spec.count_bounds(np.array([rule.n]))[0][0])
            lo, hi = rule.ties[0]
            assert ([decision_for_sum(rule, k) for k in range(lo, hi + 1)]
                    == [1 if k <= accept else 2 for k in range(lo, hi + 1)])
            split += lo <= accept < hi
        assert len(tied) > 10 and split > 0


class TestSchedules:
    def test_geometric_and_arithmetic_fixtures(self):
        assert stage_schedule(5, 95, 5, "geometric") == (5, 10, 22, 46, 95)
        assert stage_schedule(5, 95, 5, "arithmetic") == (5, 28, 50, 72, 95)

    def test_endpoints_and_growth(self):
        for kind in ("geometric", "arithmetic"):
            ns = stage_schedule(7, 400, 6, kind)
            assert ns[0] == 7 and ns[-1] == 400 and len(ns) == 6
            assert all(b > a for a, b in zip(ns, ns[1:]))

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            stage_schedule(5, 95, 5, "fibonacci")

    def test_first_size_past_the_last_is_refused(self):
        with pytest.raises(DomainError, match="need n1 <= ns, got 96 > 95"):
            stage_schedule(96, 95, 5, "geometric")


class TestBuilderRefusals:
    """Each refusal of a builder's inputs, with its message."""

    @pytest.mark.parametrize("levels", [(0.0, 0.025), (0.025, 1.0), (1.5, 0.025)])
    def test_sample_bound_levels_lie_in_the_unit_interval(self, levels):
        with pytest.raises(DomainError, match=r"effective risk level must lie in \(0, 1\)"):
            sample_bound(BERN, 0.4, 0.6, *levels)

    @pytest.mark.parametrize("zone_lo, zone_hi", [([0.15, 0.55], [0.35]), ([], [])])
    def test_zone_lists_are_nonempty_and_of_one_length(self, zone_lo, zone_hi):
        with pytest.raises(DomainError, match="nonempty and of equal length"):
            build_multihyp_plan(BERN, EXACT, zone_lo, zone_hi, 0.5)

    @pytest.mark.parametrize("pairs", [{"base_alphas": [0.1]}, {"base_betas": [0.1] * 3}])
    def test_one_base_pair_per_zone_boundary(self, pairs):
        with pytest.raises(DomainError, match=r"one \(alpha, beta\) base pair per zone"):
            build_multihyp_plan(BERN, EXACT, [0.15, 0.55], [0.35, 0.75], 0.5, **pairs)

    def test_unknown_c_policy(self):
        with pytest.raises(DomainError, match="unknown c policy 'bogus'"):
            build_multihyp_plan(BERN, EXACT, [0.15, 0.55], [0.35, 0.75], 0.5,
                                c_policy="bogus")

    def test_fully_sequential_takes_no_stage_sizes(self):
        with pytest.raises(DomainError, match="picks its own stage sizes; omit stage_ns"):
            build_one_sided_plan(BERN, EXACT, 0.4, 0.6, 0.05, 0.05, 0.5, stage_ns=[50, 150],
                                 fully_sequential=True)

    def test_unknown_tie_policy_where_a_tie_is_cut(self):
        # the stage of 150 samples at levels 0.025 has the tie region 73..77
        args = (BERN, EXACT, 150, [0.4], [0.6], [0.025], [0.025])
        assert build_stage_rule(*args).ties == ((73, 77),)
        with pytest.raises(DomainError, match="unknown tie policy 'bogus'"):
            build_stage_rule(*args, c_policy="bogus")


class TestBuildPlans:
    def test_classic_five_stage_sizing(self):
        plan = classic_plan()
        assert plan.stage_ns == (5, 10, 22, 46, 95)
        assert plan.sample_cap == 180
        assert plan.alphas == (0.025,)
        assert plan.betas == (0.025,)
        assert stage_is_closed(plan.stages[-1], BERN)

    def test_fully_sequential_runs_every_size_to_closure(self):
        plan = build_one_sided_plan(BERN, EXACT, 0.3, 0.7, 0.1, 0.1, 0.5,
                                    fully_sequential=True)
        assert plan.stage_ns == tuple(range(1, 18))
        assert plan.sample_cap == 34
        assert stage_is_closed(plan.stages[-1], BERN)
        # n = 16 still has continuation points, so 17 is minimal
        r16 = build_stage_rule(BERN, EXACT, 16, [0.3], [0.7], [0.05], [0.05])
        assert not stage_is_closed(r16, BERN)

    def test_zone_ordering_enforced(self):
        with pytest.raises(DomainError):
            build_one_sided_plan(BERN, EXACT, 0.6, 0.4, 0.05, 0.05, 0.5, stages=2)
        with pytest.raises(DomainError):
            build_multihyp_plan(BERN, EXACT, [0.4, 0.3], [0.5, 0.6], 0.5, stages=2)

    def test_scale_bounded_by_risk_reciprocals(self):
        with pytest.raises(DomainError):
            build_one_sided_plan(BERN, EXACT, 0.4, 0.6, 0.05, 0.05, 30.0, stages=2)

    @pytest.mark.parametrize("stage_ns", [[10, 10], [95, 46], [0, 95], [], [-5, 95]])
    def test_stage_sizes_must_increase(self, stage_ns, monkeypatch):
        def no_build(*args, **kwargs):
            raise AssertionError("crossing counts were computed")

        # every stage rule is made from crossing counts
        monkeypatch.setattr(plans, "_crossing_counts", no_build)
        with pytest.raises(DomainError, match="strictly increasing positive"):
            build_one_sided_plan(BERN, EXACT, 0.4, 0.6, 0.05, 0.05, 0.5,
                                 stage_ns=stage_ns)

    @pytest.mark.parametrize("stage_ns", [[5.7, 95.2], [True, 95], [10, 95.0], ["10", 95]])
    def test_one_sided_stage_sizes_must_be_integers(self, stage_ns):
        with pytest.raises(DomainError, match="strictly increasing positive"):
            build_one_sided_plan(BERN, EXACT, 0.4, 0.6, 0.05, 0.05, 0.5, stage_ns=stage_ns)
        numpy_sizes = build_one_sided_plan(BERN, EXACT, 0.4, 0.6, 0.05, 0.05, 0.5,
                                           stage_ns=np.array([10, 95]))
        assert numpy_sizes.stage_ns == (10, 95)
        assert all(type(n) is int for n in numpy_sizes.stage_ns)

    @pytest.mark.parametrize("stage_ns", [[2.5, 40.5], [True, 40]])
    def test_multihyp_stage_sizes_must_be_integers(self, stage_ns):
        with pytest.raises(DomainError, match="strictly increasing positive"):
            build_multihyp_plan(BERN, EXACT, [0.15, 0.55], [0.35, 0.75], 0.5,
                                stage_ns=stage_ns)

    @pytest.mark.parametrize("stages", [0, -3])
    def test_one_sided_stage_count_below_one_is_refused(self, stages):
        with pytest.raises(DomainError, match="at least one stage"):
            build_one_sided_plan(BERN, EXACT, 0.4, 0.6, 0.05, 0.05, 0.5, stages=stages)

    def test_stage_count_is_refused_before_the_search(self, monkeypatch):
        def no_build(*args, **kwargs):
            raise AssertionError("crossing counts were computed")

        monkeypatch.setattr(plans, "_crossing_counts", no_build)
        with pytest.raises(DomainError, match="at least one stage"):
            build_one_sided_plan(BERN, EXACT, 0.49, 0.51, 0.05, 0.05, 0.5, stages=0)

    @pytest.mark.parametrize("sizing, stages", [
        ({"stage_ns": [46, 95]}, 0),
        ({"fully_sequential": True}, -2),
    ], ids=["given sizes", "fully sequential"])
    def test_stage_count_is_refused_whatever_the_sizing(self, sizing, stages):
        with pytest.raises(DomainError, match="at least one stage"):
            build_one_sided_plan(BERN, EXACT, 0.4, 0.6, 0.05, 0.05, 0.5, stages=stages,
                                 **sizing)

    def test_multihyp_stage_count_is_refused_with_given_sizes(self):
        with pytest.raises(DomainError, match="at least one stage"):
            # the sizes alone make a closed plan
            build_multihyp_plan(BERN, EXACT, [0.1, 0.55], [0.45, 0.9], 0.2755,
                                base_alphas=[0.1, 0.1], base_betas=[0.1, 0.1],
                                stage_ns=[10, 30], stages=-1)

    def test_multihyp_stage_count_below_one_is_refused(self):
        with pytest.raises(DomainError, match="at least one stage"):
            build_multihyp_plan(BERN, EXACT, [0.15, 0.55], [0.35, 0.75], 0.5,
                                base_alphas=[0.1, 0.1], base_betas=[0.1, 0.1], stages=0)

    def test_unclosable_design_is_reported(self):
        with pytest.raises(InfeasibleDesignError):
            build_multihyp_plan(BERN, EXACT, [0.48], [0.52], 0.04, stages=2,
                                max_stage_size=50)

    def test_one_sided_final_stage_stays_within_max_stage_size(self):
        # the plan closes at 2,399 samples, inside the sample cap of 4,607
        start = time.perf_counter()
        with pytest.raises(InfeasibleDesignError, match="no closed final stage within 1000 samples"):
            build_one_sided_plan(BERN, EXACT, 0.48, 0.52, 0.05, 0.05, 0.5, stages=5,
                                 max_stage_size=1000)
        assert time.perf_counter() - start < 1.0
        plan = build_one_sided_plan(BERN, EXACT, 0.48, 0.52, 0.05, 0.05, 0.5, stages=5,
                                    max_stage_size=2399)
        assert plan.stage_ns[-1] == 2399

    def test_short_final_stage_is_reported(self):
        with pytest.raises(InfeasibleDesignError):
            build_one_sided_plan(BERN, EXACT, 0.4, 0.6, 0.05, 0.05, 0.5,
                                 stage_ns=[5, 8])


class TestPlanFields:
    """A plan takes only its inputs; its kind and a one-sided c policy are derived."""

    def fields(self, plan):
        return dict(model=plan.model, family=plan.family, zone_lo=plan.zone_lo,
                    zone_hi=plan.zone_hi, base_alphas=plan.base_alphas,
                    base_betas=plan.base_betas, zeta=plan.zeta, stages=plan.stages)

    def test_kind_is_not_an_argument(self):
        plan = classic_plan()
        with pytest.raises(TypeError):
            MultiHypPlan(**self.fields(plan), kind="two-prop")
        assert (MultiHypPlan(**self.fields(plan)).kind, plan.kind) == ("multi", "one-sided")

    @pytest.mark.parametrize("kind", [MultiHypPlan, OneSidedPlan])
    def test_stage_sizes_out_of_order_are_refused(self, kind):
        """The exact kernel, the runner and the simulator draw each stage's
        increment as its size less the last, so a plan's sizes must grow."""
        plan = kind(**self.fields(classic_plan()))
        first, second, *rest = plan.stages
        for stages in ((second, first, *rest), (first, first, *rest), ()):
            with pytest.raises(DomainError, match="strictly increasing positive"):
                dataclasses.replace(plan, stages=stages)

    def test_one_sided_c_policy_is_not_an_argument(self):
        with pytest.raises(TypeError):
            OneSidedPlan(**self.fields(classic_plan()), c_policy="zone-midpoint")

    @pytest.mark.parametrize("tiebreak, c_policy", [
        (TIEBREAK_LIKELIHOOD_RATIO, "support-midpoint"),
        (TIEBREAK_ALWAYS_ACCEPT, TIEBREAK_ALWAYS_ACCEPT),
        (TIEBREAK_ALWAYS_REJECT, TIEBREAK_ALWAYS_REJECT),
    ])
    def test_one_sided_c_policy_follows_the_tiebreak(self, tiebreak, c_policy):
        plan = classic_plan(tiebreak=tiebreak)
        assert plan.c_policy == c_policy
        assert OneSidedPlan(**self.fields(plan), tiebreak=tiebreak) == plan


def with_stage(plan, i, **change):
    """``plan.stages`` with stage i changed."""
    stages = list(plan.stages)
    stages[i] = dataclasses.replace(stages[i], **change)
    return tuple(stages)


def with_open_cell(plan):
    """A two-sample plan's stages with one cell of the last grid undecided."""
    decision = plan.stages[-1].decision.copy()
    decision[0, 0] = CONTINUE
    return with_stage(plan, -1, decision=decision)


def three_hypotheses():
    return build_multihyp_plan(BERN, EXACT, [0.15, 0.55], [0.35, 0.75], 0.5,
                               base_alphas=[0.1, 0.1], base_betas=[0.1, 0.1], stages=3)


class TestRefusedWhenMade:
    """A plan refuses, when it is made, what its evaluators cannot read, and
    names the field at fault.  Evaluated anyway, the swapped windows give
    acceptances 0.461 and 0.461 at theta 0.5 and the overlapping ones 0.070
    and 0.930, against 0.5 and 0.5; three windows fail with a numpy shape
    error, and the open grid fails only inside ``exact_oc``."""

    @pytest.mark.parametrize("plan, change, error, text", [
        (classic_plan, lambda p: dict(stages=with_stage(p, 1, windows=((8, 10), (0, 2)))),
         InfeasibleDesignError, "stage of size 10: decision windows overlap (at stages[1].windows)"),
        (classic_plan, lambda p: dict(stages=with_stage(p, 1, windows=((0, 6), (3, 10)))),
         InfeasibleDesignError, "stage of size 10: decision windows overlap (at stages[1].windows)"),
        (classic_plan, lambda p: dict(stages=with_stage(p, 1, windows=((0, 2), (3, 7), (8, 10)))),
         DomainError, "a stage of 2 hypotheses needs 2 windows, 1 ties, 2 f and 2 g "
                      "(at stages[1])"),
        (classic_plan, lambda p: dict(stages=with_stage(p, 1, windows=((0, 2), (8, 12)))),
         InfeasibleDesignError, "window edges must not exceed the largest count 10 "
                                "(at stages[1].windows)"),
        (classic_plan, lambda p: dict(zone_lo=(0.7,)), DomainError,
         "zone must be a nonempty open interval, got [0.7, 0.6] (at zone_lo, zone_hi)"),
        (classic_plan, lambda p: dict(zeta=-1.0), DomainError,
         "zeta must lie in (0, 20), got -1.0 (at base_alphas, base_betas, zeta)"),
        (classic_plan, lambda p: dict(tiebreak="coin-flip"), DomainError,
         "unknown tiebreak 'coin-flip' (at tiebreak)"),
        (three_hypotheses, lambda p: dict(c_policy="coin-flip"), DomainError,
         "unknown c policy 'coin-flip' (at c_policy)"),
        (classic_plan, lambda p: dict(stages=p.stages[:-1]), InfeasibleDesignError,
         "final stage of size 46 leaves continuation points; increase the last stage size "
         "(at stages[3].windows)"),
        (lambda: build_two_prop_plan([-0.2], [0.2], 0.5, stages=3),
         lambda p: dict(stages=with_open_cell(p)), InfeasibleDesignError,
         "final stage of size 6 leaves continuation points; increase the last stage size "
         "(at stages[2].decision)"),
        (lambda: build_two_prop_plan([-0.2], [0.2], 0.5, stages=3),
         lambda p: dict(zone_lo=(0.5,)), DomainError,
         "zone (0.5, 0.2) must be ordered inside (-1, 1) (at zone_lo, zone_hi)"),
    ], ids=["swapped-windows", "overlapping-windows", "three-windows", "past-the-support",
            "zone", "zeta", "tiebreak", "c-policy", "open-final-stage", "open-final-grid",
            "two-sample-zone"])
    def test_through_the_constructor_and_replace(self, plan, change, error, text):
        plan = plan()
        change = change(plan)
        fields = {f.name: getattr(plan, f.name) for f in dataclasses.fields(plan) if f.init}
        with pytest.raises(error, match=re.escape(text) + "$"):
            type(plan)(**{**fields, **change})
        with pytest.raises(error, match=re.escape(text) + "$"):
            dataclasses.replace(plan, **change)


class TestDecisionVariable:
    def test_continuation_between_windows(self):
        plan = classic_plan()
        rule = plan.stages[0]
        (_, last_accept), (first_reject, _) = rule.windows
        assert first_reject - last_accept > 1
        assert all(decision_for_sum(rule, k) == 0 for k in range(last_accept + 1, first_reject))

    def test_all_failures_accept_lowest(self):
        assert decision_for_sum(classic_plan().stages[0], 0) == 1

    def test_last_stage_decides_everywhere(self):
        plan = classic_plan()
        for k in range(plan.stage_ns[-1] + 1):
            assert decision_for_sum(plan.stages[-1], k) != 0

    def test_inclusion_property_exhaustive(self):
        """A nonzero decision always carries its defining limit crossings."""
        plan = build_multihyp_plan(BERN, EXACT, [0.15, 0.55], [0.35, 0.75], 0.5,
                                   base_alphas=[0.1, 0.1], base_betas=[0.1, 0.1],
                                   stages=2)
        za, zb = plan.alphas, plan.betas
        for si, rule in enumerate(plan.stages):
            n = rule.n
            for k in range(n + 1):
                d = decision_for_sum(rule, k)
                if d == 0 or rule.tie_for_sum(k):
                    continue
                z = k / n
                if d - 2 >= 0:  # lower boundary exists at index d-2
                    assert EXACT.lower(BERN, n, z, za[d - 2]) >= plan.zone_lo[d - 2]
                if d - 1 < len(plan.zone_hi):
                    assert EXACT.upper(BERN, n, z, zb[d - 1]) <= plan.zone_hi[d - 1]


class TestRunPlan:
    def test_all_ones_rejects_low_hypothesis(self):
        plan = classic_plan()
        out = run_plan(plan, iter([1] * 200))
        assert out.accepted_index == 1
        assert out.sample_count == plan.stage_ns[out.stage_index - 1]
        assert out.terminal_estimate == 1.0

    def test_all_zeros_accepts_low_hypothesis(self):
        plan = classic_plan()
        out = run_plan(plan, iter([0] * 200))
        assert out.accepted_index == 0
        assert out.stage_index == 1

    def test_replay_matches_manual_crossing_walk(self):
        """Replay oracle: drive the stage rules by hand via the limit family."""
        plan = classic_plan()
        rng = np.random.default_rng(7)
        for _ in range(300):
            theta = rng.uniform(0.05, 0.95)
            draws = (rng.random(200) < theta).astype(int)
            out = run_plan(plan, iter(draws))

            expect = None
            for si, n in enumerate(plan.stage_ns, start=1):
                z = draws[:n].mean()
                low_ok = EXACT.upper(BERN, n, z, 0.025) <= 0.6
                high_ok = EXACT.lower(BERN, n, z, 0.025) >= 0.4
                if low_ok and high_ok:
                    k = round(z * n)
                    # symmetric likelihood-ratio cut accepts at or below n/2
                    expect = (si, 0 if k <= n / 2 else 1)
                    break
                if low_ok or high_ok:
                    expect = (si, 1 if high_ok else 0)
                    break
            assert expect is not None
            assert (out.stage_index, out.accepted_index) == expect

    def test_identical_streams_identical_outcomes(self):
        plan = classic_plan()
        draws = list((np.random.default_rng(3).random(200) < 0.5).astype(int))
        a = run_plan(plan, iter(draws))
        b = run_plan(plan, iter(draws))
        assert a == b

    def test_sampling_never_exceeds_cap(self):
        plan = build_one_sided_plan(BERN, EXACT, 0.3, 0.7, 0.1, 0.1, 0.5,
                                    fully_sequential=True)
        rng = np.random.default_rng(5)
        for _ in range(500):
            theta = rng.uniform(0.01, 0.99)
            draws = (rng.random(40) < theta).astype(int)
            out = run_plan(plan, iter(draws))
            assert out.sample_count <= plan.sample_cap
            assert out.sample_count <= 17

    def test_exhausted_stream_raises(self):
        plan = classic_plan()
        with pytest.raises(StreamExhaustedError):
            run_plan(plan, iter([0, 1, 0]))

    def test_exhausted_stream_names_values_read_and_stage_size(self):
        # a sum of 2 leaves stage 5 undecided, and the stream ends inside stage 10
        with pytest.raises(StreamExhaustedError, match=re.escape(
                "observation stream ended after 7 values; the stage of size 10 needs 3 more")):
            run_plan(classic_plan(), iter([0, 1, 0, 1, 0, 1, 0]))

    def test_values_outside_support_rejected(self):
        plan = classic_plan()
        with pytest.raises(DomainError):
            run_plan(plan, iter([0, 1, 2, 0, 1] * 40))

    def test_tie_policies_change_only_tie_outcomes(self):
        plans = {tb: build_one_sided_plan(BERN, EXACT, 0.4, 0.6, 0.05, 0.05, 0.5,
                                          stage_ns=[150], tiebreak=tb)
                 for tb in (TIEBREAK_LIKELIHOOD_RATIO, TIEBREAK_ALWAYS_ACCEPT,
                            TIEBREAK_ALWAYS_REJECT)}
        tie_lo, tie_hi = plans[TIEBREAK_LIKELIHOOD_RATIO].stages[0].ties[0]
        assert (tie_lo, tie_hi) == (73, 77)
        for k in (tie_lo, (tie_lo + tie_hi) // 2, tie_hi):
            draws = [1] * k + [0] * (150 - k)
            outs = {tb: run_plan(p, iter(draws)) for tb, p in plans.items()}
            assert all(o.tie_occurred for o in outs.values())
            assert outs[TIEBREAK_ALWAYS_ACCEPT].accepted_index == 0
            assert outs[TIEBREAK_ALWAYS_REJECT].accepted_index == 1
            # symmetric risks: ratio cut sits at the midpoint count 75
            assert outs[TIEBREAK_LIKELIHOOD_RATIO].accepted_index == (
                0 if k <= 75 else 1)
        outside = [1] * 90 + [0] * 60
        outs = {tb: run_plan(p, iter(outside)) for tb, p in plans.items()}
        assert len({o.accepted_index for o in outs.values()}) == 1
        assert not any(o.tie_occurred for o in outs.values())


class TestTwoHypothesisEquivalence:
    """m=2 multi-hypothesis construction equals the one-sided rules."""

    def test_same_windows_and_outcomes(self):
        one = classic_plan()
        multi = build_multihyp_plan(BERN, EXACT, [0.4], [0.6], 0.025,
                                    base_alphas=[1.0], base_betas=[1.0],
                                    stage_ns=[5, 10, 22, 46, 95])
        for a, b in zip(one.stages, multi.stages):
            assert a.windows == b.windows
            assert a.ties == b.ties
        rng = np.random.default_rng(21)
        for _ in range(200):
            draws = (rng.random(95) < rng.uniform(0.1, 0.9)).astype(int)
            oa = run_plan(one, iter(draws))
            ob = run_plan(multi, iter(draws))
            assert (oa.stage_index, oa.accepted_index) == (ob.stage_index,
                                                           ob.accepted_index)


class TestThreeHypotheses:
    def test_plan_closes_and_partitions_last_stage(self):
        plan = build_multihyp_plan(BERN, EXACT, [0.15, 0.55], [0.35, 0.75], 0.5,
                                   base_alphas=[0.1, 0.1], base_betas=[0.1, 0.1],
                                   stages=2)
        assert plan.m == 3
        last = plan.stages[-1]
        seen = {decision_for_sum(last, k) for k in range(last.n + 1)}
        assert 0 not in seen
        assert seen == {1, 2, 3}

    def test_runs_decide_into_each_hypothesis(self):
        plan = build_multihyp_plan(BERN, EXACT, [0.15, 0.55], [0.35, 0.75], 0.5,
                                   base_alphas=[0.1, 0.1], base_betas=[0.1, 0.1],
                                   stages=2)
        rng = np.random.default_rng(2)
        got = set()
        for theta in (0.05, 0.45, 0.9):
            for _ in range(50):
                draws = (rng.random(plan.stage_ns[-1]) < theta).astype(int)
                got.add(run_plan(plan, iter(draws)).accepted_index)
        assert got == {0, 1, 2}


class TestStageSizeRule:
    @pytest.mark.parametrize("sizes", [[1], [1, 2, 9], [(1, 3), (2, 4)], [(4, 1), (8, 2)],
                                       [np.int64(2), np.int32(5)]])
    def test_increasing_positive_sizes_pass(self, sizes):
        check_stage_sizes(sizes)

    @pytest.mark.parametrize("sizes", [[], [0], [3, 3], [5, 4], [(1, 3), (2, 3)],
                                       [(2, 3), (1, 4)], [(1, 0)], [(0, 1)], [1.5],
                                       [True, 4], [(1, 2.0)], [np.float64(3)]])
    def test_every_arm_is_checked(self, sizes):
        with pytest.raises(DomainError, match="strictly increasing positive"):
            check_stage_sizes(sizes)


class TestClosure:
    """Closure is read from the windows' gaps over the counts the model reaches."""

    def rule(self, n):
        windows = ((0, 1), (2, 3), (4, 5), (7, 9))
        return StageRule(n=n, f=(0.0,) * 4, g=(0.0,) * 4, windows=windows,
                         ties=(None,) * 3)

    def test_a_gap_past_the_support_leaves_the_stage_closed(self):
        # count 6 continues, but no Bernoulli sample of 2 reaches it
        assert stage_is_closed(self.rule(2), BERN)
        assert stage_is_closed(self.rule(5), BERN)

    def test_a_reachable_gap_opens_the_stage(self):
        assert not stage_is_closed(self.rule(6), BERN)
        assert not stage_is_closed(self.rule(2), POIS)

    def test_a_top_label_that_continues_opens_the_stage(self):
        # count 10 lies past every window, as every count above it does
        assert not stage_is_closed(self.rule(10), BERN)
        assert not stage_is_closed(self.rule(1), POIS)

    def test_closure_agrees_with_the_spans(self):
        for model, n in ((BERN, 2), (BERN, 5), (BERN, 6), (BERN, 10), (POIS, 2)):
            # the windows cut to the support, as a plan takes them, and then
            # a closed final stage
            top = model.sum_upper(n)
            rule = dataclasses.replace(self.rule(n), windows=tuple(
                win if top is None or win[1] <= top else (win[0], top) if win[0] <= top
                else None for win in self.rule(n).windows))
            plan = MultiHypPlan(model=model, family=EXACT, **zones(4),
                                stages=(rule, closed_stage(model, n + 1, 4)))
            closed = plan.continue_spans[0] == (0, -1, False)
            assert stage_is_closed(rule, model) == closed


class TestContinueSpans:
    """The undecided span of each stage, over the counts its model reaches."""

    @staticmethod
    def rule(windows, n):
        m = len(windows)
        return StageRule(n=n, f=(0.0,) * m, g=(0.0,) * m, windows=windows,
                         ties=(None,) * (m - 1))

    def spans(self, model, windows, n=9):
        """The span of a stage of these windows, followed by a closed stage."""
        rule = self.rule(windows, n)
        plan = MultiHypPlan(model=model, family=EXACT, **zones(len(windows)),
                            stages=(rule, closed_stage(model, n + 1, len(windows))))
        return rule, plan.continue_spans[0]

    @pytest.mark.parametrize("windows", [
        ((0, 1), (4, 5), (7, 8)), ((0, 3), None), (None, (4, None)), ((2, 2), (5, None)),
        ((0, 9), None), ((0, 1), (2, None)), ((0, 3), (6, 7)), (None, None)])
    @pytest.mark.parametrize("model, n", [(BERN, 9), (BERN, 6), (POIS, 9)])
    def test_span_holds_the_continue_counts_of_the_windows(self, windows, model, n):
        top, past = model.sum_upper(n), past_the_edges(self.rule(windows, n))
        if top is not None and past > top + 1:
            # a window past the support: no plan takes the stage
            with pytest.raises(InfeasibleDesignError, match="must not exceed the largest count"):
                self.spans(model, windows, n)
            return
        rule, (lo, hi, holes) = self.spans(model, windows, n)
        undecided = [k for k in range(past + 4 if top is None else top + 1)
                     if decision_for_sum(rule, k) == 0]
        if not undecided:
            assert (lo, hi, holes) == (0, -1, False)
            return
        assert lo == undecided[0]
        assert hi == (None if top is None and decision_for_sum(rule, past) == 0
                      else undecided[-1])
        assert holes == (len(undecided) < undecided[-1] - lo + 1)

    def test_bernoulli_sentinel_past_the_support_is_not_undecided(self):
        plan = classic_plan()
        for rule, span in zip(plan.stages[:-1], plan.continue_spans):
            # count n + 1 lies past every window but off the support
            assert past_the_edges(rule) == rule.n + 1
            assert decision_for_sum(rule, rule.n + 1) == 0
            undecided = [k for k in range(rule.n + 1) if decision_for_sum(rule, k) == 0]
            assert span == (undecided[0], undecided[-1], False)
        assert plan.continue_spans[-1] == (0, -1, False)

    def test_a_top_label_that_continues(self):
        """Poisson: no end; Bernoulli: the support's end."""
        assert self.spans(POIS, ((0, 3), None))[1] == (4, None, False)
        assert self.spans(BERN, ((0, 3), None))[1] == (4, 9, False)

    def test_holes_and_reach(self):
        windows = ((0, 1), (4, 5), (7, 8))
        assert self.spans(POIS, windows)[1] == (2, None, True)
        assert self.spans(BERN, windows, n=8)[1] == (2, 6, True)
        assert self.spans(BERN, ((0, 1), (4, 5), None), n=5)[1] == (2, 3, False)


def golden_one_sample_plans():
    docs = {path.stem: parse_doc(path.read_text(encoding="utf-8"))
            for path in sorted(GOLDEN.glob("*.json"))}
    return [pytest.param(doc_to_plan(doc), id=name) for name, doc in docs.items()
            if doc["kind"] != "two-prop"]


def past_the_edges(rule):
    """One past the last finite window edge: every count from there on
    decides alike."""
    return max([0] + [lo if hi is None else hi + 1
                      for lo, hi in filter(None, rule.windows)])


def check_edges_decide_like_the_windows(plan):
    """Each stage's row of the count-edge table decides every count as
    ``decision_for_sum`` does, read the simulator's way, the runner's and
    the exact kernel's.

    The counts run over the support, or for Poisson two past the last
    window edge and on to a sum past int64."""
    edges = plan._edges
    widths, cells = [], []
    for s, rule in enumerate(plan.stages):
        top = plan.model.sum_upper(rule.n)
        ks = list(range(top + 1 if top is not None else past_the_edges(rule) + 3))
        far = [] if top is not None else [10**6, 2**62]
        want = np.array([decision_for_sum(rule, k) for k in ks + far])
        block = np.zeros((len(want), rule.n), dtype=np.int64)
        block[:, 0] = ks + far  # a running sum of k at every size
        row = plans._Edges(edges.ns[s:s + 1], edges.below[s:s + 1], edges.above[s:s + 1],
                           edges.zones)
        done, ns, label, forced = sim._decide_counts(row, block)
        np.testing.assert_array_equal(done, want != 0, err_msg=f"stage {rule.n}")
        np.testing.assert_array_equal(label, want[want != 0] - 1)
        assert (ns == rule.n).all() and not forced.any()
        widths.append(len(ks))
        cells.append(s * (plan.m + 1) + want[:len(ks)])
        # the stage alone, then a stage that decides every count
        alone = dataclasses.replace(
            plan, stages=(rule, closed_stage(plan.model, rule.n + 1, plan.m)))
        for k in far:
            assert ocexact._cell_bins(alone, (k, 0), (1, 1))[0] == decision_for_sum(rule, k)
        for k in ks + far + ([] if top is not None else [2**70]):
            stream = [k] + [0] * (rule.n - 1) if top is None else [1] * k + [0] * (rule.n - k)
            d = decision_for_sum(rule, k)
            out = run_plan(alone, stream + [0])
            if d == 0:
                assert out.stage_index == 2, k
                continue
            assert (out.stage_index, out.accepted_index, out.tie_occurred) == (
                1, d - 1, rule.tie_for_sum(k)), k
    # one state per stage over the counts from 0, labelled in one pass
    np.testing.assert_array_equal(
        ocexact._cell_bins(plan, (0,) * len(widths), tuple(widths)), np.concatenate(cells))


class TestEdgeTable:
    """The runner, the simulator and the exact kernel decide from the gaps
    a plan reads once from its windows; ``decision_for_sum`` is the oracle."""

    @pytest.mark.parametrize("plan", golden_one_sample_plans())
    def test_golden_plans(self, plan):
        check_edges_decide_like_the_windows(plan)

    @pytest.mark.parametrize("make", [
        classic_plan,
        lambda: build_one_sided_plan(BERN, EXACT, 0.4, 0.6, 0.05, 0.05, 0.5,
                                     fully_sequential=True),
        lambda: build_one_sided_plan(BERN, EXACT, 0.4, 0.6, 0.05, 0.05, 0.5,
                                     stage_ns=[150], tiebreak=TIEBREAK_ALWAYS_REJECT),
        lambda: build_multihyp_plan(BERN, EXACT, [0.15, 0.55], [0.35, 0.75], 0.5,
                                    base_alphas=[0.1, 0.1], base_betas=[0.1, 0.1], stages=3),
        lambda: build_one_sided_plan(POIS, EXACT, 1.0, 1.5, 0.05, 0.05, 0.5, stages=4),
        lambda: build_multihyp_plan(POIS, EXACT, [0.5, 1.5], [1.0, 2.0], 0.5, stages=3),
    ], ids=["bernoulli", "fully-sequential", "tied", "three-hypotheses", "poisson",
            "poisson-three-hypotheses"])
    def test_built_plans(self, make):
        plan = make()
        check_edges_decide_like_the_windows(plan)
        # a builder's windows leave no gap under window 0 or over window m - 1:
        # on every stage, gap column 0 and gap column m hold no count, or are
        # their neighbour's gap where that window is missing
        edges, m = plan._edges, plan.m
        for j, nb in ((0, 1), (m, m - 1)):
            below, above = edges.below[:, j], edges.above[:, j]
            assert ((below == edges.below[:, nb]) | (below >= above - 1)).all(), j

    @settings(max_examples=60, deadline=None, database=None)
    @given(st.data())
    def test_any_ordered_disjoint_windows(self, data):
        """Windows no builder makes too: a first window that starts above 0,
        a top window that stops short of the support, missing ones, in
        stages beside others that have none of these, and then a closed
        stage."""
        model = data.draw(st.sampled_from([BERN, POIS]))
        m = data.draw(st.integers(2, 4))
        rules = []
        for n in np.cumsum(data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))):
            top = model.sum_upper(int(n))
            cuts = sorted(data.draw(st.lists(st.integers(0, int(n) + 1), min_size=2 * m,
                                             max_size=2 * m)))
            # window i is [cuts[2i] + i, cuts[2i + 1] + i]: ordered, disjoint, maybe abutting;
            # none lies past the support
            windows = [(lo + i, hi + i) for i, (lo, hi) in enumerate(zip(cuts[::2], cuts[1::2]))]
            windows = [None if data.draw(st.booleans()) or top is not None and w[1] > top
                       else w for w in windows]
            present = [i for i, w in enumerate(windows) if w is not None]
            if present and data.draw(st.booleans()):
                windows[present[-1]] = (windows[present[-1]][0], None)
            rules.append(StageRule(n=int(n), f=(0.0,) * m, g=(0.0,) * m,
                                   windows=tuple(windows), ties=(None,) * (m - 1)))
        rules.append(closed_stage(model, rules[-1].n + 1, m))
        plan = MultiHypPlan(model=model, family=EXACT, **zones(m), stages=tuple(rules))
        check_edges_decide_like_the_windows(plan)
