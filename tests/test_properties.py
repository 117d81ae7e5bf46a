"""Property tests: the exact evaluators against full-path enumeration.

Random small closed plans are built straight from decision windows (for
two samples, decision grids), so the evaluators also meet label patterns
no builder makes: unreachable decisions, several gaps, windows reaching
past the support.  Each plan is checked against a walk over every sample
path, weighted by scipy.stats pmfs.  Poisson plans get at most three
stages, which keeps that walk short.  The same plans, as documents, must
round-trip byte for byte, and each of a set of mutations must make
loading fail with ``PlanDocumentError``.
"""

import copy
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from seqtest.conflimits import ExactLimits
from seqtest.errors import PlanDocumentError
from seqtest.models import Bernoulli, Poisson
from seqtest.ocexact import oc_curve, oc_single, rejection_split
from seqtest.plandoc import doc_to_plan, dump_doc, parse_doc, plan_to_doc
from seqtest.plans import MultiHypPlan, OneSidedPlan, StageRule
from seqtest.twoprop import (Rectangle, TwoPropPlan, TwoPropStage, exact_oc,
                             rejection_prob_bounds)

from helpers import decision_for_sum

BERN, POIS = Bernoulli(), Poisson()
FEW = settings(max_examples=40, deadline=None, database=None)
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def windows_from_cuts(cuts, top, unbounded, closed):
    """Windows 0..m-1 from 2(m-1) sorted cuts; the gaps between pairs continue."""
    if closed:
        cuts = [c for c in cuts[::2] for _ in (0, 1)]
    edges = [0, *cuts, top + 1]
    wins = []
    for i in range(0, len(edges), 2):
        lo, stop = edges[i], edges[i + 1]
        last = i == len(edges) - 2
        if lo >= stop and not (last and unbounded):
            wins.append(None)
        else:
            wins.append((lo, None if last and unbounded else stop - 1))
    return tuple(wins)


@st.composite
def one_sample_cases(draw):
    model = draw(st.sampled_from([BERN, POIS]))
    m = draw(st.sampled_from([2, 3]))
    incs = draw(st.lists(st.integers(1, 4), min_size=1,
                         max_size=4 if model is BERN else 3))
    stages = []
    for idx, n in enumerate(np.cumsum(incs).tolist()):
        top = n if model is BERN else 2 * n + 2
        cuts = sorted(draw(st.lists(st.integers(0, top + 1), min_size=2 * (m - 1),
                                    max_size=2 * (m - 1))))
        wins = windows_from_cuts(cuts, top, model is POIS, idx == len(incs) - 1)
        stages.append(StageRule(n=n, f=(0.0,) * m, g=(0.0,) * m, windows=wins,
                                ties=(None,) * (m - 1)))
    zones = [0.2, 0.4, 0.6, 0.8][:2 * (m - 1)]
    plan = MultiHypPlan(model=model, family=ExactLimits(), zone_lo=tuple(zones[::2]),
                        zone_hi=tuple(zones[1::2]), base_alphas=(0.1,) * (m - 1),
                        base_betas=(0.1,) * (m - 1), zeta=0.5, stages=tuple(stages))
    theta = draw(thetas(model))
    return plan, theta


def thetas(model):
    return st.floats(0.05, 0.95) if model is BERN else st.floats(0.1, 1.5)


def increment_pmf(model, m, theta):
    if model is BERN:
        return stats.binom.pmf(np.arange(m + 1), m, theta)
    top = int(m * theta + 10 * np.sqrt(m * theta) + 25)  # tail mass below 1e-20
    return stats.poisson.pmf(np.arange(top + 1), m * theta)


def path_ends(plan, theta):
    """(decision, stage size, running sum, probability) of every stopped path."""
    ends = []

    def walk(idx, prev_n, total, prob):
        rule = plan.stages[idx]
        for d, p in enumerate(increment_pmf(plan.model, rule.n - prev_n, theta)):
            dec = decision_for_sum(rule, total + d)
            if dec:
                ends.append((dec - 1, rule.n, total + d, prob * p))
            else:
                assert idx + 1 < plan.s, "a closed plan left a path undecided"
                walk(idx + 1, rule.n, total + d, prob * p)

    walk(0, 0, 0, 1.0)
    return ends


def check_against_paths(plan, theta, acc, asn, stop, bound):
    ends = path_ends(plan, theta)
    want = [sum(p for d, _, _, p in ends if d == i) for i in range(plan.m)]
    np.testing.assert_allclose(acc, want, rtol=0, atol=1e-13 + bound)
    assert asn == pytest.approx(sum(n * p for _, n, _, p in ends),
                                abs=1e-12 + plan.stage_ns[-1] * bound)
    for idx, rule in enumerate(plan.stages):
        assert stop[idx] == pytest.approx(sum(p for _, n, _, p in ends if n == rule.n),
                                          abs=1e-13 + bound)


@FEW
@given(one_sample_cases())
def test_oc_single_matches_path_enumeration(case):
    plan, theta = case
    check_against_paths(plan, theta, *oc_single(plan, theta))
    for rule, (lo, hi, holes) in zip(plan.stages, plan.continue_spans):
        top = plan.model.sum_upper(rule.n)
        undecided = []
        for k in range(rule.n * 3 + 4):
            if not decision_for_sum(rule, k) and (top is None or k <= top):
                undecided.append(k)
        if undecided:
            first, last = undecided[0], undecided[-1]
            end = None if top is None and last == rule.n * 3 + 3 else last
            assert (lo, hi, holes) == (first, end, len(undecided) < last - first + 1)
        else:
            assert (lo, hi, holes) == (0, -1, False)


@FEW
@given(one_sample_cases(), st.data())
def test_oc_curve_matches_path_enumeration(case, data):
    """Grids of 1-4 points: every row against the paths and its own single point."""
    plan, theta = case
    grid = [theta, *data.draw(st.lists(thetas(plan.model), max_size=3))]
    rep = oc_curve(plan, grid)
    for t, th in enumerate(grid):
        check_against_paths(plan, th, rep.accept[t], rep.asn[t], rep.stage_stop[t],
                            rep.truncation_bound[t])
        acc, asn, stop, bound = oc_single(plan, th)
        assert np.array_equal(rep.accept[t], acc) and rep.asn[t] == asn
        assert np.array_equal(rep.stage_stop[t], stop) and rep.truncation_bound[t] == bound


@FEW
@given(one_sample_cases(), st.data())
def test_rejection_split_matches_path_enumeration(case, data):
    plan, theta = case
    hyp = data.draw(st.integers(0, plan.m - 1))
    bound = data.draw(st.floats(0.0, 2.0))
    ends = path_ends(plan, theta)
    slack = 1e-13 + oc_single(plan, theta)[3]
    low = sum(p for d, n, k, p in ends if d != hyp and k / n <= bound + 1e-12)
    high = sum(p for d, n, k, p in ends if d != hyp and k / n >= bound - 1e-12)
    assert rejection_split(plan, hyp, theta, bound, "low") == pytest.approx(low, abs=slack)
    assert rejection_split(plan, hyp, theta, bound, "high") == pytest.approx(high, abs=slack)


@st.composite
def two_sample_cases(draw):
    m = draw(st.sampled_from([2, 3]))
    s = draw(st.integers(1, 3))
    stages, nx, ny = [], 0, 0
    for idx in range(s):
        nx += draw(st.integers(1, 3))
        ny += draw(st.integers(1, 3))
        low = 0 if idx == s - 1 else -1
        cells = draw(st.lists(st.integers(low, m - 1), min_size=(nx + 1) * (ny + 1),
                              max_size=(nx + 1) * (ny + 1)))
        decision = np.array(cells, dtype=np.int8).reshape(nx + 1, ny + 1)
        stages.append(TwoPropStage(n_x=nx, n_y=ny, decision=decision,
                                   midpoint_used=np.zeros_like(decision, dtype=bool)))
    zone_lo, zone_hi = ((-0.1,), (0.1,)) if m == 2 else ((-0.5, 0.3), (-0.3, 0.5))
    plan = TwoPropPlan(zone_lo=zone_lo, zone_hi=zone_hi, base_alphas=(1.0,) * (m - 1),
                       base_betas=(1.0,) * (m - 1), zeta=0.5, stages=tuple(stages))
    edge_or_inner = st.sampled_from([0.0, 5e-324, 1.0]) | st.floats(0.0, 1.0)
    return plan, draw(edge_or_inner), draw(edge_or_inner)


def binom_pmf(k, n, p):
    # closed form: scipy.stats overflows at subnormal p
    return math.comb(n, k) * p**k * (1.0 - p) ** (n - k)


@FEW
@given(two_sample_cases())
def test_exact_oc_matches_double_loop(case):
    plan, p_x, p_y = case
    accept = np.zeros(plan.m)
    asn = np.zeros(2)

    def walk(idx, kx, ky, prob):
        stage = plan.stages[idx]
        prev = plan.stages[idx - 1] if idx else None
        ix = stage.n_x - (prev.n_x if prev else 0)
        iy = stage.n_y - (prev.n_y if prev else 0)
        for jx in range(ix + 1):
            for jy in range(iy + 1):
                q = prob * binom_pmf(jx, ix, p_x) * binom_pmf(jy, iy, p_y)
                d = int(stage.decision[kx + jx, ky + jy])
                if d >= 0:
                    accept[d] += q
                    asn[:] += q * np.array([stage.n_x, stage.n_y])
                else:
                    walk(idx + 1, kx + jx, ky + jy, q)

    walk(0, 0, 0, 1.0)
    acc, asn_x, asn_y = exact_oc(plan, p_x, p_y)
    np.testing.assert_allclose(acc, accept, rtol=0, atol=1e-13)
    np.testing.assert_allclose([asn_x, asn_y], asn, rtol=0, atol=1e-12)


@FEW
@given(two_sample_cases(), st.data())
def test_rejection_bounds_sandwich_the_exact_oc(case, data):
    """The bounds over a rectangle hold at its corners and at an interior
    point, and over a point rectangle both are the exact rejection."""
    plan, p_x, p_y = case
    hyp = data.draw(st.integers(0, plan.m - 1))
    q_x, q_y, f_x, f_y = (data.draw(st.floats(0.0, 1.0)) for _ in range(4))
    rect = Rectangle(min(p_x, q_x), max(p_x, q_x), min(p_y, q_y), max(p_y, q_y))
    lo, up = rejection_prob_bounds(plan, hyp, rect)
    inner = (min(rect.px_hi, rect.px_lo + f_x * rect.widths[0]),
             min(rect.py_hi, rect.py_lo + f_y * rect.widths[1]))
    for x, y in [(x, y) for x in (rect.px_lo, rect.px_hi)
                 for y in (rect.py_lo, rect.py_hi)] + [inner]:
        rej = 1.0 - exact_oc(plan, x, y)[0][hyp]
        assert lo - 1e-12 <= rej <= up + 1e-12
    rej = 1.0 - exact_oc(plan, p_x, p_y)[0][hyp]
    point = rejection_prob_bounds(plan, hyp, Rectangle(p_x, p_x, p_y, p_y))
    assert point == pytest.approx((rej, rej), abs=1e-12)


@st.composite
def any_plans(draw):
    """A random closed plan of any document kind."""
    if draw(st.booleans()):
        return draw(two_sample_cases())[0]
    plan = draw(one_sample_cases())[0]
    if plan.m == 2 and draw(st.booleans()):
        fields = {f.name: getattr(plan, f.name) for f in dataclasses.fields(MultiHypPlan)
                  if f.name != "c_policy"}
        plan = OneSidedPlan(**fields)
    return plan


def nodes(node, path=()):
    """(path, value) of the node and of everything inside it."""
    yield path, node
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from nodes(child, (*path, key))


def with_value(doc, path, value):
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


@FEW
@given(any_plans())
def test_document_round_trip_is_byte_identical(plan):
    text = dump_doc(plan_to_doc(plan))
    assert dump_doc(plan_to_doc(doc_to_plan(parse_doc(text)))) == text


@FEW
@given(any_plans(), st.data())
def test_document_mutations_raise_plan_document_error(plan, data):
    doc = parse_doc(dump_doc(plan_to_doc(plan)))
    found = list(nodes(doc))
    numbers = [p for p, v in found if isinstance(v, (int, float)) and not isinstance(v, bool)]
    lists = [p for p, v in found if isinstance(v, list)]
    mutated = {"string for a number": with_value(doc, data.draw(st.sampled_from(numbers)), "x"),
               "number for a list": with_value(doc, data.draw(st.sampled_from(lists)), 7)}
    stages = doc["stages"]
    last = len(stages) - 1
    if len(stages) > 1:
        i, j = sorted(data.draw(st.lists(st.integers(0, last), min_size=2, max_size=2,
                                         unique=True)))
        swapped = copy.deepcopy(doc)
        swapped["stages"][i], swapped["stages"][j] = stages[j], stages[i]
        key = data.draw(st.sampled_from(["n_x", "n_y"] if plan.kind == "two-prop" else ["n"]))
        mutated["swapped stages"] = swapped
        mutated["repeated size"] = with_value(doc, ("stages", j, key), stages[i][key])
    if plan.kind == "two-prop":
        rows = stages[-1]["decision"]
        r = data.draw(st.integers(0, len(rows) - 1))
        c = data.draw(st.integers(0, len(rows[r]) - 1))
        mutated["undecided final cell"] = with_value(
            doc, ("stages", last, "decision", r), rows[r][:c] + "." + rows[r][c + 1:])
    else:
        w = data.draw(st.sampled_from(
            [w for w, win in enumerate(stages[-1]["windows"]) if win is not None]))
        mutated["null final window"] = with_value(doc, ("stages", last, "windows", w), None)
    for name, bad in mutated.items():
        try:
            doc_to_plan(bad)
        except PlanDocumentError:
            continue
        pytest.fail(f"{name}: the document loaded")
