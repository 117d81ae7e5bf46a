"""Stage-size search: crossing tables against the size-by-size scan.

The builders find the final and first stage sizes from tables of the first
reject count and last accept count per stage size.  The oracles below are
the linear scans those tables replace: build the stage rule at every size
in turn and keep the first that qualifies.
"""

import math

import numpy as np
import pytest
from scipy import stats

import seqtest.plans as plans
from seqtest.conflimits import ApproxLimits, ChernoffLimits, ExactLimits
from seqtest.errors import DomainError, InfeasibleDesignError
from seqtest.models import Bernoulli, Poisson, _poisson_isf
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
from seqtest.tuning import tune_zeta

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
        if stage_is_closed(rule, model):
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


def assert_rules_match(plan, model, family, zone_lo, zone_hi, alphas, betas, c_policy,
                       lr_cut):
    """Every stage of a built plan equals build_stage_rule at its size."""
    for rule in plan.stages:
        assert rule == build_stage_rule(model, family, rule.n, zone_lo, zone_hi, alphas,
                                        betas, c_policy, lr_cut), rule.n


def one_sided_rule_args(theta0, theta1, alpha, beta, zeta, tiebreak):
    """(zone_lo, zone_hi, alphas, betas, c_policy, lr_cut) of build_one_sided_plan."""
    if tiebreak == TIEBREAK_LIKELIHOOD_RATIO:
        lr_cut, c_policy = (theta0, theta1, math.log(alpha / beta)), "support-midpoint"
    else:
        lr_cut, c_policy = None, tiebreak
    return (theta0,), (theta1,), [zeta * alpha], [zeta * beta], c_policy, lr_cut


def one_sided_oracle(model, family, theta0, theta1, alpha, beta, zeta, tiebreak):
    """(first, last) stage size of build_one_sided_plan, found by scanning."""
    rule_args = one_sided_rule_args(theta0, theta1, alpha, beta, zeta, tiebreak)
    alphas, betas = rule_args[2], rule_args[3]
    horizon = 200_000
    if isinstance(family, (ExactLimits, ChernoffLimits)):
        horizon = sample_bound(model, theta0, theta1, alphas[0], betas[0]) + 1
    args = (model, family, *rule_args)
    last = scan_last_stage(*args, require_ties=False, max_stage_size=horizon)
    return scan_first_stage(*args, last), last


ONE_SIDED_CASES = [
    (BERN, 0.4, 0.6, 0.05, 0.05),
    (BERN, 0.3, 0.45, 0.1, 0.05),
    (POIS, 1.0, 1.5, 0.05, 0.05),
    (POIS, 2.0, 3.0, 0.05, 0.1),
]

THREE_HYPOTHESIS_CASES = [
    (BERN, [0.1, 0.55], [0.45, 0.9], [0.1, 0.1], [0.1, 0.1]),
    (BERN, [0.15, 0.55], [0.35, 0.75], [0.1, 0.05], [0.05, 0.1]),
    (POIS, [1.0, 3.0], [2.0, 4.5], [0.1, 0.1], [0.1, 0.1]),
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
            assert_rules_match(plan, model, family, *one_sided_rule_args(
                theta0, theta1, alpha, beta, zeta, TIEBREAK_LIKELIHOOD_RATIO))
            # given sizes are built from one count table too
            assert build_one_sided_plan(model, family, theta0, theta1, alpha, beta, zeta,
                                        stage_ns=plan.stage_ns) == plan

    @pytest.mark.parametrize("tiebreak", [TIEBREAK_LIKELIHOOD_RATIO,
                                          TIEBREAK_ALWAYS_ACCEPT,
                                          TIEBREAK_ALWAYS_REJECT])
    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f"{f.tag}-{f.w}")
    def test_every_tiebreak(self, family, tiebreak):
        for model, theta0, theta1, alpha, beta in ONE_SIDED_CASES[::2]:
            for zeta in (0.3, 0.7):
                first, last = one_sided_oracle(model, family, theta0, theta1, alpha,
                                               beta, zeta, tiebreak)
                plan = build_one_sided_plan(model, family, theta0, theta1, alpha, beta,
                                            zeta, stages=3, tiebreak=tiebreak)
                assert (plan.stage_ns[0], plan.stage_ns[-1]) == (first, last)
                assert_rules_match(plan, model, family, *one_sided_rule_args(
                    theta0, theta1, alpha, beta, zeta, tiebreak))

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f"{f.tag}-{f.w}")
    def test_fully_sequential(self, family):
        for model, theta0, theta1, alpha, beta in ONE_SIDED_CASES:
            for zeta in (0.25, 0.5):
                _, last = one_sided_oracle(model, family, theta0, theta1, alpha, beta,
                                           zeta, TIEBREAK_LIKELIHOOD_RATIO)
                plan = build_one_sided_plan(model, family, theta0, theta1, alpha, beta,
                                            zeta, fully_sequential=True)
                assert plan.stage_ns == tuple(range(1, last + 1))
                assert_rules_match(plan, model, family, *one_sided_rule_args(
                    theta0, theta1, alpha, beta, zeta, TIEBREAK_LIKELIHOOD_RATIO))

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
                assert_rules_match(plan, *args)


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

    def test_poisson_quantile_is_scipy_stats_isf(self):
        mus = np.unique(np.concatenate([np.linspace(0.0, 10.0, 1001),
                                        np.linspace(10.0, 2500.0, 2499),
                                        np.geomspace(1e-6, 2500.0, 200)]))
        for q in (1e-15, 1e-12, 1e-9, 1e-6, 1e-3, 0.025, 0.05, 0.5, 0.975):
            want = stats.poisson.isf(q, mus)
            np.testing.assert_array_equal(_poisson_isf(q, mus), want)
            np.testing.assert_array_equal(plans._poisson_guess(q, mus), want + 1)
        # 1 - q rounds to 1, where the quantile is not defined
        np.testing.assert_array_equal(plans._poisson_guess(1e-20, mus), np.ceil(mus) + 1)
        with pytest.raises(DomainError):
            _poisson_isf(1e-20, mus)


def test_ladder_final_sizes():
    """The exact 5-stage ladder of the benchmark at zeta 0.5."""
    finals = []
    for theta0, theta1 in ((0.4, 0.6), (0.45, 0.55), (0.48, 0.52), (0.49, 0.51)):
        plan = build_one_sided_plan(BERN, ExactLimits(), theta0, theta1, 0.05, 0.05, 0.5,
                                    stages=5)
        finals.append(plan.stage_ns[-1])
    assert finals == [95, 383, 2399, 9603]
    assert plan.stage_ns == (6, 38, 240, 1518, 9603)


class TestCountTableCloses:
    """The final-size search reads closure off the count table: at every size
    1-200, ``_closes`` says closed exactly when the rule made there is closed,
    with a tie at every boundary where ties are required."""

    @staticmethod
    def assert_closes_like_rules(model, family, rule_args, require_ties):
        zone_lo, zone_hi, alphas, betas, c_policy, lr_cut = rule_args
        ns = np.arange(1, 201)
        min_a, max_b = _crossing_counts(model, family, ns, zone_lo, zone_hi, alphas, betas)
        closed = []
        for j, n in enumerate(ns):
            rule = plans._rule_from_counts(model, int(n), min_a[:, j], max_b[:, j], zone_lo,
                                           zone_hi, c_policy, lr_cut)
            closed.append(stage_is_closed(rule, model)
                          and not (require_ties and None in rule.ties))
        np.testing.assert_array_equal(plans._closes(min_a, max_b, require_ties), closed)

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f"{f.tag}-{f.w}")
    def test_one_sided(self, family):
        for model, theta0, theta1, alpha, beta in ONE_SIDED_CASES:
            for zeta in (0.2, 0.5, 0.9):
                for tiebreak in (TIEBREAK_LIKELIHOOD_RATIO, TIEBREAK_ALWAYS_ACCEPT,
                                 TIEBREAK_ALWAYS_REJECT):
                    self.assert_closes_like_rules(model, family, one_sided_rule_args(
                        theta0, theta1, alpha, beta, zeta, tiebreak), False)

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f"{f.tag}-{f.w}")
    def test_three_hypotheses(self, family):
        for model, zone_lo, zone_hi, base_a, base_b in THREE_HYPOTHESIS_CASES:
            for zeta in (0.3, 0.8):
                for c_policy in ("support-midpoint", "zone-midpoint"):
                    self.assert_closes_like_rules(model, family, (
                        zone_lo, zone_hi, [zeta * a for a in base_a],
                        [zeta * b for b in base_b], c_policy, None), True)


class TestRulesAreMadeAtKeptSizes:
    """A plan makes each stage rule from one count table over its sizes; the
    final-size search makes none, and the first-stage search only the rules
    it needs to see a window."""

    @pytest.fixture
    def made(self, monkeypatch):
        """Sizes of the stage rules made from crossing counts, in order."""
        sizes = []
        rule_from_counts = plans._rule_from_counts

        def counting(*args, **kwargs):
            rule = rule_from_counts(*args, **kwargs)
            sizes.append(rule.n)
            return rule

        monkeypatch.setattr(plans, "_rule_from_counts", counting)
        return sizes

    def test_one_sided(self, made):
        plan = build_one_sided_plan(BERN, ExactLimits(), 0.4, 0.6, 0.05, 0.05, 0.5,
                                    stages=5)
        assert plan.stage_ns == (5, 10, 22, 46, 95)
        # 1..4 reach no crossing count, so the first-stage search makes only 5
        assert made == [5, 5, 10, 22, 46, 95]
        lr_cut = (0.4, 0.6, 0.0)
        assert plan.stages == tuple(
            build_stage_rule(BERN, ExactLimits(), n, [0.4], [0.6], [0.025], [0.025],
                             lr_cut=lr_cut) for n in plan.stage_ns)

    def test_fully_sequential(self, made):
        plan = build_one_sided_plan(BERN, ExactLimits(), 0.4, 0.6, 0.05, 0.05, 0.5,
                                    fully_sequential=True)
        assert made == list(plan.stage_ns) == list(range(1, 96))

    def test_three_hypotheses(self, made):
        plan = build_multihyp_plan(BERN, ExactLimits(), [0.1, 0.55], [0.45, 0.9], 0.2755,
                                   [0.1, 0.1], [0.1, 0.1], stages=3)
        assert plan.stage_ns == (6, 13, 28)
        # the first-stage search probes 2..5, which reach no decision
        assert made == [2, 3, 4, 5, 6, 6, 13, 28]
        levels = [0.2755 * 0.1] * 2
        assert plan.stages == tuple(
            build_stage_rule(BERN, ExactLimits(), n, [0.1, 0.55], [0.45, 0.9], levels,
                             levels) for n in plan.stage_ns)


class TestOneCountTablePerSearch:
    """Each stage-size search block, and the sizes no search confirmed, take one
    crossing-count table; no stage rule makes one of its own."""

    @pytest.mark.parametrize("build, tables", [
        (lambda: build_one_sided_plan(BERN, ExactLimits(), 0.4, 0.6, 0.05, 0.05, 0.5,
                                      fully_sequential=True), 5),
        (lambda: build_one_sided_plan(BERN, ExactLimits(), 0.4, 0.6, 0.05, 0.05, 0.5,
                                      stages=5), 6),
        (lambda: build_multihyp_plan(BERN, ExactLimits(), [0.1, 0.55], [0.45, 0.9],
                                     0.2755, [0.1, 0.1], [0.1, 0.1], stages=3), 4),
    ], ids=["fully-sequential", "five-stage", "three-hypotheses"])
    def test_crossing_count_calls(self, build, tables, monkeypatch):
        calls = []
        crossing_counts = plans._crossing_counts

        def counting(*args, **kwargs):
            calls.append(len(args[2]))
            return crossing_counts(*args, **kwargs)

        monkeypatch.setattr(plans, "_crossing_counts", counting)
        build()
        assert len(calls) == tables, calls


def outcome(build, zeta):
    """The plan ``build`` makes at ``zeta``, or the text of the error it raises."""
    try:
        return build(zeta)
    except InfeasibleDesignError as exc:
        return str(exc)


class TestWarmFinalSizeSearch:
    """Inside a tuning run the final-size search covers only the sizes that
    earlier builds leave open; every plan equals its cold build."""

    @pytest.fixture
    def starts(self, monkeypatch):
        """(start, horizon) of every size search, in order."""
        calls = []
        first_size = plans._first_size

        def spying(model, family, zone_lo, zone_hi, alphas, betas, start, horizon, passes):
            calls.append((start, horizon))
            return first_size(model, family, zone_lo, zone_hi, alphas, betas, start, horizon,
                              passes)

        monkeypatch.setattr(plans, "_first_size", spying)
        return calls

    @staticmethod
    def assert_warm_equals_cold(build, zeta_max, starts):
        # the tuner's own probe order, with a verdict that moves the bracket
        # through failing and passing builds alike
        built = []

        def family(z):
            built.append((z, outcome(build, z)))
            if isinstance(built[-1][1], str):
                raise InfeasibleDesignError(built[-1][1])
            return built[-1][1]

        tune_zeta(family, None, tol=1e-2, zeta_max=zeta_max,
                  verify=lambda plan: (plan.zeta <= 0.37 * zeta_max, None))
        assert len(built) >= 8
        assert max(start for start, _ in starts) > 1  # some search started warm
        assert plans._SIZE_MEMO.get() is None
        cold = {z: outcome(build, z) for z, _ in built}
        assert all(plan == cold[z] for z, plan in built)
        # any order inside one memo
        order = [z for z, _ in built]
        np.random.default_rng(17).shuffle(order)
        with plans._size_memo():
            assert all(outcome(build, z) == cold[z] for z in order)

    @pytest.mark.parametrize("tiebreak", [TIEBREAK_LIKELIHOOD_RATIO, TIEBREAK_ALWAYS_ACCEPT,
                                          TIEBREAK_ALWAYS_REJECT])
    @pytest.mark.parametrize("family", FAMILIES[:2], ids=lambda f: f.tag)
    @pytest.mark.parametrize("case", ONE_SIDED_CASES, ids=lambda c: f"{c[0].name}-{c[1]}-{c[2]}")
    def test_one_sided(self, case, family, tiebreak, starts):
        model, theta0, theta1, alpha, beta = case
        self.assert_warm_equals_cold(
            lambda z: build_one_sided_plan(model, family, theta0, theta1, alpha, beta, z,
                                           stages=3, tiebreak=tiebreak),
            1.0 / max(alpha, beta), starts)

    @pytest.mark.parametrize("family", FAMILIES[:2], ids=lambda f: f.tag)
    @pytest.mark.parametrize("case", ONE_SIDED_CASES, ids=lambda c: f"{c[0].name}-{c[1]}-{c[2]}")
    def test_fully_sequential(self, case, family, starts):
        model, theta0, theta1, alpha, beta = case
        self.assert_warm_equals_cold(
            lambda z: build_one_sided_plan(model, family, theta0, theta1, alpha, beta, z,
                                           fully_sequential=True),
            1.0 / max(alpha, beta), starts)

    @pytest.mark.parametrize("family", FAMILIES[:2], ids=lambda f: f.tag)
    @pytest.mark.parametrize("case", THREE_HYPOTHESIS_CASES, ids=lambda c: f"{c[0].name}-{c[1]}")
    def test_three_hypotheses(self, case, family, starts):
        model, zone_lo, zone_hi, base_a, base_b = case
        self.assert_warm_equals_cold(
            lambda z: build_multihyp_plan(model, family, zone_lo, zone_hi, z, base_a, base_b,
                                          stages=3),
            1.0 / max(base_a + base_b), starts)

    NEIGHBOURS = {
        "zone": lambda z: build_one_sided_plan(BERN, FAMILIES[0], 0.4, 0.65, 0.05, 0.05, z),
        "model": lambda z: build_one_sided_plan(POIS, FAMILIES[0], 0.4, 0.6, 0.05, 0.05, z),
        "family": lambda z: build_one_sided_plan(BERN, FAMILIES[1], 0.4, 0.6, 0.05, 0.05, z),
        "ties required": lambda z: build_multihyp_plan(BERN, FAMILIES[0], [0.4], [0.6], z,
                                                       [0.05], [0.05]),
    }

    @pytest.mark.parametrize("name", sorted(NEIGHBOURS))
    def test_another_search_key_never_narrows(self, name, starts):
        build = self.NEIGHBOURS[name]
        cold = build(0.5)
        with plans._size_memo():
            # a record of the 0.4/0.6 exact Bernoulli search that pins its
            # final size to 3 at these very levels
            plans._size_records(BERN, ExactLimits(), (0.4,), (0.6,), False).append(
                ((0.025, 0.025), 3))
            with pytest.raises(InfeasibleDesignError):
                build_one_sided_plan(BERN, ExactLimits(), 0.4, 0.6, 0.05, 0.05, 0.5)
            assert starts[-1] == (3, 3)
            del starts[:]
            assert build(0.5) == cold
            assert starts[0][0] == 1

    @pytest.mark.parametrize("family", FAMILIES[2:], ids=lambda f: f"w{f.w}")
    def test_approximate_limits_search_cold(self, family, starts):
        build = lambda z: build_one_sided_plan(BERN, family, 0.4, 0.6, 0.05, 0.05, z, stages=3)
        zetas = (0.9, 0.45, 0.675, 0.5, 0.6)
        cold = [outcome(build, z) for z in zetas]
        del starts[:]
        with plans._size_memo():
            assert [outcome(build, z) for z in zetas] == cold
            assert plans._SIZE_MEMO.get() == {}
        assert all(start == 1 for start, _ in starts)


@pytest.mark.parametrize("start, horizon", [
    (1, 1), (1, 16), (1, 17), (1, 200), (5, 4), (7, 7), (30, 31), (433, 441), (100, 1000),
])
def test_size_blocks_cover_the_range_once(start, horizon):
    blocks = list(plans._size_blocks(start, horizon))
    np.testing.assert_array_equal(np.concatenate(blocks or [np.arange(0)]),
                                  np.arange(start, horizon + 1))
    # blocks of 16, 16, 32, 64, ... sizes, the last cut at the horizon
    full = [16, 16] + [16 * 2**j for j in range(1, len(blocks))]
    sizes = [len(b) for b in blocks]
    if sizes:
        assert sizes[:-1] == full[:len(sizes) - 1]
        assert 0 < sizes[-1] <= full[len(sizes) - 1]


def test_size_blocks_from_one():
    assert [(int(b[0]), int(b[-1])) for b in plans._size_blocks(1, 128)] == [
        (1, 16), (17, 32), (33, 64), (65, 128)]
