"""Golden plan documents: the builders must keep every plan byte for byte.

Each document under ``tests/data/plans/`` was written by an earlier
version of the builders.  The test rebuilds the plan and compares its
canonical text (``dump_doc``) with the stored one.  A change that means to
move a plan rewrites the documents and names each one that moved:

    PYTHONPATH=src python tests/test_golden_plans.py
"""

import pathlib

import pytest

from seqtest import dump_doc, plan_to_doc
from seqtest.conflimits import ApproxLimits, ChernoffLimits, ExactLimits
from seqtest.models import Bernoulli, Poisson
from seqtest.plans import (TIEBREAK_ALWAYS_ACCEPT, TIEBREAK_ALWAYS_REJECT,
                           TIEBREAK_LIKELIHOOD_RATIO, build_multihyp_plan, build_one_sided_plan)
from seqtest.tuning import tune_one_sided
from seqtest.twoprop import build_two_prop_plan

DATA = pathlib.Path(__file__).parent / "data" / "plans"
BERN, POIS, EXACT = Bernoulli(), Poisson(), ExactLimits()


def _one_sided(model, family, theta0, theta1, **kw):
    return build_one_sided_plan(model, family, theta0, theta1, 0.05, 0.05, 0.5, **kw)


def _tied(tiebreak):
    """Both stages hold a tie region, (58, 60) and (71, 77), and unequal risks
    put the likelihood-ratio cut at a nonzero log ratio."""
    return build_one_sided_plan(BERN, EXACT, 0.4, 0.6, 0.1, 0.05, 0.5, stage_ns=[120, 150],
                                tiebreak=tiebreak)


PLANS = {
    "exact_0.4_0.6_5stage": lambda: _one_sided(BERN, EXACT, 0.4, 0.6, stages=5),
    "exact_0.45_0.55_5stage": lambda: _one_sided(BERN, EXACT, 0.45, 0.55, stages=5),
    "exact_0.4_0.6_fully_sequential":
        lambda: _one_sided(BERN, EXACT, 0.4, 0.6, fully_sequential=True),
    "exact_0.4_0.6_fully_sequential_tuned":
        lambda: tune_one_sided(BERN, EXACT, 0.4, 0.6, 0.05, 0.05,
                               fully_sequential=True).plan,
    "poisson_1.0_1.5_5stage": lambda: _one_sided(POIS, EXACT, 1.0, 1.5, stages=5),
    "chernoff_0.4_0.6_5stage": lambda: _one_sided(BERN, ChernoffLimits(), 0.4, 0.6, stages=5),
    "approx_w0.5_0.4_0.6_5stage":
        lambda: _one_sided(BERN, ApproxLimits(0.5), 0.4, 0.6, stages=5),
    "three_hypotheses_3stage":
        lambda: build_multihyp_plan(BERN, EXACT, [0.1, 0.55], [0.45, 0.9], 0.2755,
                                    [0.1, 0.1], [0.1, 0.1], stages=3),
    "always_accept_0.4_0.6_3stage":
        lambda: _one_sided(BERN, EXACT, 0.4, 0.6, stages=3, tiebreak=TIEBREAK_ALWAYS_ACCEPT),
    "tied_likelihood_ratio_0.4_0.6": lambda: _tied(TIEBREAK_LIKELIHOOD_RATIO),
    "tied_always_accept_0.4_0.6": lambda: _tied(TIEBREAK_ALWAYS_ACCEPT),
    "tied_always_reject_0.4_0.6": lambda: _tied(TIEBREAK_ALWAYS_REJECT),
    "three_hypotheses_zone_midpoint_3stage":
        lambda: build_multihyp_plan(BERN, EXACT, [0.1, 0.55], [0.45, 0.9], 0.2755,
                                    [0.1, 0.1], [0.1, 0.1], stages=3, c_policy="zone-midpoint"),
    "poisson_three_hypotheses_3stage":
        lambda: build_multihyp_plan(POIS, EXACT, [1.0, 3.0], [2.0, 4.5], 0.5,
                                    [0.1, 0.1], [0.1, 0.1], stages=3),
    "two_prop_0.2_3stage": lambda: build_two_prop_plan([-0.2], [0.2], 0.5, stages=3),
    "two_prop_0.1_zeta0.2_3stage": lambda: build_two_prop_plan([-0.1], [0.1], 0.2, stages=3),
    "two_prop_three_hypotheses_3stage":
        lambda: build_two_prop_plan([-0.4, 0.1], [-0.1, 0.4], 0.5, stages=3),
}


def _text(name: str) -> str:
    return dump_doc(plan_to_doc(PLANS[name]()))


@pytest.mark.parametrize("name", sorted(PLANS))
def test_rebuilt_plan_matches_its_document(name):
    stored = (DATA / f"{name}.json").read_text(encoding="utf-8")
    assert _text(name) == stored


if __name__ == "__main__":
    DATA.mkdir(parents=True, exist_ok=True)
    for name in sorted(PLANS):
        (DATA / f"{name}.json").write_text(_text(name), encoding="utf-8", newline="\n")
        print(DATA / f"{name}.json")
