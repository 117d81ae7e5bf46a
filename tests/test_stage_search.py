"""Stage-size search: crossing tables against the size-by-size scan.

The builders find the final and first stage sizes from tables of the first
reject count and last accept count per stage size.  The oracles below are
the linear scans those tables replace: build the stage rule at every size
in turn and keep the first that qualifies.
"""

import math

import numpy as np
import pytest

import seqtest.plans as plans
from seqtest.conflimits import ApproxLimits, ChernoffLimits, ExactLimits
from seqtest.models import Bernoulli, Poisson
from seqtest.plans import (
    TIEBREAK_ALWAYS_ACCEPT,
    TIEBREAK_ALWAYS_REJECT,
    TIEBREAK_LIKELIHOOD_RATIO,
    _crossing_counts,
    build_multihyp_plan,
    build_one_sided_plan,
    build_stage_rule,
    sample_bound,
    stage_is_closed,
)

BERN = Bernoulli()
POIS = Poisson()
FAMILIES = [ExactLimits(), ChernoffLimits(), ApproxLimits(0.0), ApproxLimits(0.5),
            ApproxLimits(1.0)]


def scan_last_stage(model, family, zone_lo, zone_hi, alphas, betas, c_policy,
                    lr_cut, require_ties, max_stage_size):
    for n in range(1, max_stage_size + 1):
        rule = build_stage_rule(model, family, n, zone_lo, zone_hi, alphas, betas,
                                c_policy, lr_cut)
        if require_ties and not all(t is not None for t in rule.ties):
            continue
        if stage_is_closed(rule, model, n):
            return n
    return None


def scan_first_stage(model, family, zone_lo, zone_hi, alphas, betas, c_policy,
                     lr_cut, ns):
    for n in range(1, ns + 1):
        rule = build_stage_rule(model, family, n, zone_lo, zone_hi, alphas, betas,
                                c_policy, lr_cut)
        if any(w is not None for w in rule.windows):
            return n
    return ns


def one_sided_oracle(model, family, theta0, theta1, alpha, beta, zeta, tiebreak):
    """(first, last) stage size of build_one_sided_plan, found by scanning."""
    alphas, betas = [zeta * alpha], [zeta * beta]
    if tiebreak == TIEBREAK_LIKELIHOOD_RATIO:
        lr_cut, c_policy = (theta0, theta1, math.log(alpha / beta)), "support-midpoint"
    else:
        lr_cut, c_policy = None, tiebreak
    horizon = 200_000
    if isinstance(family, (ExactLimits, ChernoffLimits)):
        horizon = sample_bound(model, theta0, theta1, alphas[0], betas[0]) + 1
    args = (model, family, (theta0,), (theta1,), alphas, betas, c_policy, lr_cut)
    last = scan_last_stage(*args, require_ties=False, max_stage_size=horizon)
    return scan_first_stage(*args, last), last


ONE_SIDED_CASES = [
    (BERN, 0.4, 0.6, 0.05, 0.05),
    (BERN, 0.3, 0.45, 0.1, 0.05),
    (POIS, 1.0, 1.5, 0.05, 0.05),
    (POIS, 2.0, 3.0, 0.05, 0.1),
]


class TestLastAndFirstStageAgainstScan:
    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f"{f.tag}-{f.w}")
    @pytest.mark.parametrize("case", ONE_SIDED_CASES,
                             ids=lambda c: f"{c[0].name}-{c[1]}-{c[2]}")
    def test_one_sided_five_stage(self, family, case):
        model, theta0, theta1, alpha, beta = case
        for zeta in (0.2, 0.5, 0.9):
            first, last = one_sided_oracle(model, family, theta0, theta1, alpha, beta,
                                           zeta, TIEBREAK_LIKELIHOOD_RATIO)
            plan = build_one_sided_plan(model, family, theta0, theta1, alpha, beta, zeta,
                                        stages=5)
            assert plan.stage_ns[-1] == last, zeta
            assert plan.stage_ns[0] == first, zeta

    @pytest.mark.parametrize("tiebreak", [TIEBREAK_LIKELIHOOD_RATIO,
                                          TIEBREAK_ALWAYS_ACCEPT,
                                          TIEBREAK_ALWAYS_REJECT])
    @pytest.mark.parametrize("family", FAMILIES[:3], ids=lambda f: f"{f.tag}-{f.w}")
    def test_every_tiebreak(self, family, tiebreak):
        for model, theta0, theta1, alpha, beta in ONE_SIDED_CASES[::2]:
            for zeta in (0.3, 0.7):
                first, last = one_sided_oracle(model, family, theta0, theta1, alpha,
                                               beta, zeta, tiebreak)
                plan = build_one_sided_plan(model, family, theta0, theta1, alpha, beta,
                                            zeta, stages=3, tiebreak=tiebreak)
                assert (plan.stage_ns[0], plan.stage_ns[-1]) == (first, last)

    @pytest.mark.parametrize("family", FAMILIES[:2], ids=lambda f: f.tag)
    def test_fully_sequential(self, family):
        for model, theta0, theta1, alpha, beta in ONE_SIDED_CASES:
            for zeta in (0.25, 0.5):
                _, last = one_sided_oracle(model, family, theta0, theta1, alpha, beta,
                                           zeta, TIEBREAK_LIKELIHOOD_RATIO)
                plan = build_one_sided_plan(model, family, theta0, theta1, alpha, beta,
                                            zeta, fully_sequential=True)
                assert plan.stage_ns == tuple(range(1, last + 1))

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f"{f.tag}-{f.w}")
    def test_three_hypotheses(self, family):
        cases = [(BERN, [0.1, 0.55], [0.45, 0.9], [0.1, 0.1], [0.1, 0.1]),
                 (BERN, [0.15, 0.55], [0.35, 0.75], [0.1, 0.05], [0.05, 0.1]),
                 (POIS, [1.0, 3.0], [2.0, 4.5], [0.1, 0.1], [0.1, 0.1])]
        for model, zone_lo, zone_hi, base_a, base_b in cases:
            for zeta in (0.3, 0.8):
                alphas = [zeta * a for a in base_a]
                betas = [zeta * b for b in base_b]
                args = (model, family, zone_lo, zone_hi, alphas, betas,
                        "support-midpoint", None)
                last = scan_last_stage(*args, require_ties=True, max_stage_size=200_000)
                first = scan_first_stage(*args, last)
                plan = build_multihyp_plan(model, family, zone_lo, zone_hi, zeta,
                                           base_a, base_b, stages=3)
                assert (plan.stage_ns[0], plan.stage_ns[-1]) == (first, last)


def mask_edges(model, family, n, theta_lo, theta_hi, alpha, beta):
    """First reject and last accept count read off the full per-count masks."""
    top = model.sum_upper(n)
    ks = np.arange((top if top is not None else 64 + 8 * n * int(theta_hi + 1)) + 1)
    reject = family.support_lower_crossed(model, n, ks, theta_lo, alpha)
    accept = family.support_upper_crossed(model, n, ks, theta_hi, beta)
    if top is None:
        # the scanned range must reach past both edges
        assert reject[-1] and not accept[-1]
    first = int(np.argmax(reject)) if reject.any() else n + 1
    last = int(len(ks) - 1 - np.argmax(accept[::-1])) if accept.any() else -1
    return first, last


class TestCrossingCounts:
    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f"{f.tag}-{f.w}")
    def test_equal_first_and_last_true_of_the_masks(self, family):
        ns = np.arange(1, 201)
        for model, lo, hi, alpha, beta in ((BERN, 0.4, 0.6, 0.025, 0.025),
                                           (BERN, 0.2, 0.3, 0.3, 0.01),
                                           (POIS, 1.0, 1.5, 0.025, 0.025),
                                           (POIS, 0.2, 0.5, 0.01, 0.2)):
            min_a, max_b = _crossing_counts(model, family, ns, [lo], [hi], [alpha], [beta])
            want = np.array([mask_edges(model, family, int(n), lo, hi, alpha, beta)
                             for n in ns])
            np.testing.assert_array_equal(min_a[0], want[:, 0])
            np.testing.assert_array_equal(max_b[0], want[:, 1])

    @pytest.mark.parametrize("family", FAMILIES[:2], ids=lambda f: f.tag)
    def test_poisson_levels_below_float_spacing_of_one(self, family):
        # 1 - 1e-20 rounds to 1, where the Poisson quantile gives no first
        # guess at the crossing; the edges are still found
        ns = np.arange(1, 41)
        min_a, max_b = _crossing_counts(POIS, family, ns, [1.0], [2.0], [1e-20], [1e-20])
        want = np.array([mask_edges(POIS, family, int(n), 1.0, 2.0, 1e-20, 1e-20)
                         for n in ns])
        np.testing.assert_array_equal(min_a[0], want[:, 0])
        np.testing.assert_array_equal(max_b[0], want[:, 1])
        assert (max_b[0] >= 0).any()


def test_ladder_final_sizes():
    """The exact 5-stage ladder of the benchmark at zeta 0.5."""
    finals = []
    for theta0, theta1 in ((0.4, 0.6), (0.45, 0.55), (0.48, 0.52), (0.49, 0.51)):
        plan = build_one_sided_plan(BERN, ExactLimits(), theta0, theta1, 0.05, 0.05, 0.5,
                                    stages=5)
        finals.append(plan.stage_ns[-1])
    assert finals == [95, 383, 2399, 9603]
    assert plan.stage_ns == (6, 38, 240, 1518, 9603)


class TestSearchedRulesAreKept:
    """A plan keeps the stage rules its size searches confirmed."""

    @pytest.fixture
    def built(self, monkeypatch):
        sizes = []

        def counting(*args, **kwargs):
            rule = build_stage_rule(*args, **kwargs)
            sizes.append(rule.n)
            return rule

        monkeypatch.setattr(plans, "build_stage_rule", counting)
        return sizes

    def test_one_sided(self, built):
        plan = build_one_sided_plan(BERN, ExactLimits(), 0.4, 0.6, 0.05, 0.05, 0.5,
                                    stages=5)
        assert plan.stage_ns == (5, 10, 22, 46, 95)
        assert sorted(built) == [5, 10, 22, 46, 95]
        lr_cut = (0.4, 0.6, 0.0)
        assert plan.stages == tuple(
            build_stage_rule(BERN, ExactLimits(), n, [0.4], [0.6], [0.025], [0.025],
                             lr_cut=lr_cut) for n in plan.stage_ns)

    def test_three_hypotheses(self, built):
        plan = build_multihyp_plan(BERN, ExactLimits(), [0.1, 0.55], [0.45, 0.9], 0.2755,
                                   [0.1, 0.1], [0.1, 0.1], stages=3)
        assert plan.stage_ns == (6, 13, 28)
        # the first-stage search still probes 2..5, which reach no decision
        assert sorted(built) == [2, 3, 4, 5, 6, 13, 28]
        levels = [0.2755 * 0.1] * 2
        assert plan.stages == tuple(
            build_stage_rule(BERN, ExactLimits(), n, [0.1, 0.55], [0.45, 0.9], levels,
                             levels) for n in plan.stage_ns)
