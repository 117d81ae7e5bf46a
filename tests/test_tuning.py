"""Bisection tuning of the risk scale."""

import numpy as np
import pytest

import seqtest.plans as plans

from seqtest.conflimits import ExactLimits
from seqtest.errors import DomainError, InfeasibleDesignError
from seqtest.models import Bernoulli
from seqtest.ocexact import verify_risk
from seqtest.plans import build_one_sided_plan
from seqtest.tuning import tune_multihyp, tune_one_sided, tune_zeta

BERN = Bernoulli()
EXACT = ExactLimits()


def family(zeta):
    return build_one_sided_plan(BERN, EXACT, 0.3, 0.7, 0.1, 0.1, zeta, stages=2)


class TestBracketing:
    def test_loose_requirement_stops_at_the_cap_edge(self):
        res = tune_zeta(family, (0.99, 0.99), tol=1e-3, zeta_max=1.0)
        assert res.zeta == pytest.approx(0.999)
        assert res.bracket == (res.zeta, 1.0)
        assert res.iterations == 1
        assert res.report.satisfied

    def test_bracket_invariant_on_return(self):
        res = tune_one_sided(BERN, EXACT, 0.4, 0.6, 0.05, 0.05, stages=5)
        lo, hi = res.bracket
        assert lo == res.zeta < hi
        assert res.bracket_width <= 1e-3 * lo + 1e-15
        assert res.report.satisfied
        infeasible_plan = build_one_sided_plan(BERN, EXACT, 0.4, 0.6, 0.05,
                                               0.05, hi, stages=5)
        assert not verify_risk(infeasible_plan, (0.05, 0.05)).satisfied

    def test_infeasible_layout_raises(self):
        def fixed(zeta):
            return build_one_sided_plan(BERN, EXACT, 0.3, 0.7, 0.1, 0.1, zeta,
                                        stage_ns=[17])

        with pytest.raises(InfeasibleDesignError):
            tune_zeta(fixed, (0.01, 0.01), zeta_max=1.0)

    @pytest.mark.parametrize("lo, hi, kwargs, message", [
        (0.6, 0.4, {}, "zone must be a nonempty open interval"),
        (0.4, 0.6, {"tiebreak": "nope"}, "unknown tiebreak 'nope'"),
    ], ids=["swapped-zone", "unknown-tiebreak"])
    def test_a_family_that_never_builds_raises_its_own_error(self, lo, hi, kwargs, message):
        with pytest.raises(DomainError, match=message):
            tune_one_sided(BERN, EXACT, lo, hi, 0.05, 0.05, stages=3, **kwargs)

    def test_a_family_failing_both_ways_is_infeasible(self):
        def mixed(zeta):
            if zeta > 0.5:
                raise DomainError("scale out of range")
            raise InfeasibleDesignError("layout cannot close")

        with pytest.raises(InfeasibleDesignError, match="no feasible scale"):
            tune_zeta(mixed, (0.1, 0.1), zeta_max=1.0)

    def test_argument_validation(self):
        with pytest.raises(DomainError):
            tune_zeta(family, (0.1, 0.1), tol=1.5)
        with pytest.raises(DomainError):
            tune_zeta(family, (0.1, 0.1), zeta_max=1e-9)


class TestClassicTune:
    def test_tuned_scale_and_plan(self):
        res = tune_one_sided(BERN, EXACT, 0.4, 0.6, 0.05, 0.05, stages=5)
        assert res.zeta == pytest.approx(0.4292578125, abs=1e-12)
        assert res.plan.stage_ns == (5, 11, 22, 48, 101)
        rep = verify_risk(res.plan, (0.05, 0.05))
        assert rep.satisfied

    def test_grid_frontier_near_tuned_scale(self):
        """Dense local scan brackets the returned scale within one step."""
        res = tune_one_sided(BERN, EXACT, 0.4, 0.6, 0.05, 0.05, stages=5)
        step = 0.005
        grid = np.arange(0.40, 0.4601, step)

        def ok(z):
            plan = build_one_sided_plan(BERN, EXACT, 0.4, 0.6, 0.05, 0.05, z,
                                        stages=5)
            return verify_risk(plan, (0.05, 0.05)).satisfied

        flags = [ok(z) for z in grid]
        best = max(z for z, f in zip(grid, flags) if f)
        assert abs(best - res.zeta) <= step + 1e-3 * res.zeta
        # every grid point below the returned scale is feasible
        assert all(f for z, f in zip(grid, flags) if z <= res.zeta)
        # and everything beyond the infeasible bracket edge fails
        assert not any(f for z, f in zip(grid, flags) if z > res.bracket[1])

    def test_halving_preserves_feasibility(self):
        for z in (0.42, 0.3, 0.2):
            for zz in (z, z / 2):
                plan = build_one_sided_plan(BERN, EXACT, 0.4, 0.6, 0.05, 0.05,
                                            zz, stages=5)
                assert verify_risk(plan, (0.05, 0.05)).satisfied


class TestMultiZoneTune:
    def test_three_zone_budgets(self):
        res = tune_multihyp(BERN, EXACT, [0.15, 0.55], [0.35, 0.75],
                            (0.2, 0.3, 0.2), stages=2)
        assert res.zeta == pytest.approx(0.15841076660156253, abs=1e-12)
        rep = verify_risk(res.plan, (0.2, 0.3, 0.2))
        assert rep.satisfied
        assert all(z.satisfied for z in rep.zones)


class TestVerifyHook:
    def test_custom_verifier_drives_the_search(self):
        calls = []

        def verify(plan):
            calls.append(plan.zeta)
            return plan.zeta <= 0.3, f"seen {plan.zeta}"

        res = tune_zeta(family, (0.1, 0.1), tol=1e-3, zeta_max=1.0,
                        verify=verify)
        assert res.zeta <= 0.3
        assert res.zeta == pytest.approx(0.3, rel=2e-3)
        assert res.report == f"seen {res.zeta}"
        assert res.iterations == len(calls)


class TestProbes:
    def test_one_probe_per_evaluation_with_its_final_size(self):
        res = tune_one_sided(BERN, EXACT, 0.4, 0.6, 0.05, 0.05, stages=5)
        assert len(res.probes) == res.iterations == 17
        assert res.probes[-1][0] in res.bracket
        for zeta, last, ok in res.probes:
            cold = build_one_sided_plan(BERN, EXACT, 0.4, 0.6, 0.05, 0.05, zeta, stages=5)
            assert last == cold.stage_ns[-1]
            assert ok == verify_risk(cold, (0.05, 0.05)).satisfied == (zeta <= res.zeta)

    def test_failed_builds_have_no_size(self):
        def fixed(zeta):
            return build_one_sided_plan(BERN, EXACT, 0.3, 0.7, 0.1, 0.1, zeta, stage_ns=[17])

        res = tune_zeta(fixed, (0.1, 0.1), tol=1e-2, zeta_max=20.0)
        assert len(res.probes) == res.iterations
        # zeta must stay below 1 / 0.1: above, no plan is built
        assert res.probes[0] == (20.0 * (1 - 1e-2), None, False)
        for zeta, last, ok in res.probes:
            assert (last, ok) == ((None, False) if zeta >= 10.0 else (17, zeta <= res.zeta))


class TestSizeMemo:
    """The final-size memo lives exactly as long as one tune_zeta call."""

    def test_open_during_the_probes_only(self):
        seen = []

        def spying(zeta):
            seen.append(plans._SIZE_MEMO.get())
            return family(zeta)

        assert plans._SIZE_MEMO.get() is None
        tune_zeta(spying, (0.1, 0.1), tol=1e-2, zeta_max=1.0)
        assert plans._SIZE_MEMO.get() is None
        assert all(memo is seen[0] for memo in seen) and isinstance(seen[0], dict)
        assert seen[0]  # the probes recorded their final sizes

    def test_closed_on_an_error(self):
        def failing(zeta):
            raise RuntimeError("no plan")

        with pytest.raises(RuntimeError):
            tune_zeta(failing, (0.1, 0.1), zeta_max=1.0)
        assert plans._SIZE_MEMO.get() is None

        def fixed(zeta):
            return build_one_sided_plan(BERN, EXACT, 0.3, 0.7, 0.1, 0.1, zeta, stage_ns=[17])

        with pytest.raises(InfeasibleDesignError):
            tune_zeta(fixed, (0.01, 0.01), zeta_max=1.0)
        assert plans._SIZE_MEMO.get() is None

    def test_nested_runs_keep_their_own_memo(self):
        inner = []

        def nesting(zeta):
            outer = plans._SIZE_MEMO.get()
            inner.append(tune_zeta(family, (0.1, 0.1), tol=1e-1, zeta_max=1.0).zeta)
            assert plans._SIZE_MEMO.get() is outer
            return family(zeta)

        res = tune_zeta(nesting, (0.1, 0.1), tol=1e-1, zeta_max=1.0)
        assert res.zeta == tune_zeta(family, (0.1, 0.1), tol=1e-1, zeta_max=1.0).zeta
        assert len(set(inner)) == 1
