"""Oracles and stand-ins that several test modules share."""

import dataclasses

from seqtest.plans import MultiHypPlan, StageRule
from seqtest.twoprop import TwoPropPlan


def decision_for_sum(rule: StageRule, k: int) -> int:
    """The decision of a stage at sum count k, read off its windows: 0 to
    continue, else i + 1 for the window i that holds k."""
    return next((i + 1 for i, win in enumerate(rule.windows)
                 if win and win[0] <= k and (win[1] is None or k <= win[1])), 0)


def closed_stage(model, n: int, m: int) -> StageRule:
    """A stage of size n over m hypotheses whose first window takes every count."""
    return StageRule(n=n, f=(0.0,) * m, g=(0.0,) * m,
                     windows=((0, model.sum_upper(n)),) + (None,) * (m - 1),
                     ties=(None,) * (m - 1))


def zones(m: int) -> dict:
    """Ordered zones and risk levels of a plan over m hypotheses."""
    zone_lo = tuple(0.1 + 0.2 * i for i in range(m - 1))
    return dict(zone_lo=zone_lo, zone_hi=tuple(lo + 0.1 for lo in zone_lo),
                base_alphas=(0.1,) * (m - 1), base_betas=(0.1,) * (m - 1), zeta=0.5)


class _Unchecked(MultiHypPlan):
    def __post_init__(self):
        pass


class _UncheckedTwoProp(TwoPropPlan):
    def __post_init__(self):
        pass


def without_final_stage(plan):
    """The plan cut before its final stage, made without the plan type's
    checks, so that it leaves counts undecided: no plan type makes such a
    plan, and the exact kernels, the runners and the simulator must still
    refuse one."""
    kind = _UncheckedTwoProp if isinstance(plan, TwoPropPlan) else _Unchecked
    fields = {f.name: getattr(plan, f.name) for f in dataclasses.fields(kind) if f.init}
    return kind(**{**fields, "stages": plan.stages[:-1]})
