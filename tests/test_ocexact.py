"""Exact operating-characteristic evaluation and risk verification."""


import numpy as np
import pytest
from scipy import stats

from seqtest.conflimits import ExactLimits
from seqtest.errors import DomainError, InfeasibleDesignError
from seqtest.models import Bernoulli, Poisson
from seqtest import ocexact
from seqtest.ocexact import (OCReport, _cell_bins, _convolve_rows, _one_sample,
                             oc_curve, oc_single, rejection_split, verify_risk)
from seqtest.plans import MultiHypPlan, StageRule, build_multihyp_plan, build_one_sided_plan
from seqtest.twoprop import _convolve

from helpers import without_final_stage

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


class TestConvolve:
    """The 2-D step against ``np.convolve`` on every row or column."""

    @pytest.mark.parametrize("shape", [(1, 1), (1, 6), (7, 1), (5, 9), (21, 11)])
    @pytest.mark.parametrize("probs", [
        np.array([1.0]),
        BERN.increment_pmf(1, 0.3)[0],
        BERN.increment_pmf(10, 0.62)[0],
        BERN.increment_pmf(10, 0.0)[0],
        BERN.increment_pmf(10, 1.0)[0],
    ], ids=["one-entry", "m1", "m10", "theta0", "theta1"])
    def test_matches_one_dimensional_convolutions(self, shape, probs):
        rng = np.random.default_rng(sum(shape) + len(probs))
        state = rng.random(shape)
        state[rng.random(shape) < 0.3] = 0.0
        for axis in (0, 1):
            got = _convolve(state, probs, axis)
            want = np.apply_along_axis(np.convolve, axis, state, probs)
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)



def pmf_rows(m, thetas):
    return np.array([BERN.increment_pmf(m, t)[0] for t in thetas])


class TestConvolveRows:
    """The batched 1-D step: per row it is ``np.convolve`` up to rounding."""

    # (rows, cells, increment): states wider and narrower than the pmf, 1-cell states
    @pytest.mark.parametrize("rows, width, m", [
        (1, 1, 6), (1, 18, 1), (4, 18, 1), (3, 9, 39), (5, 200, 2), (1, 17, 416),
        (2, 60, 299), (1, 100, 199), (3, 47, 1000), (50, 7, 12), (2, 13, 12)])
    def test_each_row_matches_np_convolve(self, rows, width, m):
        rng = np.random.default_rng(rows * width + m)
        state = rng.random((rows, width))
        state[rng.random(state.shape) < 0.3] = 0.0
        probs = pmf_rows(m, rng.uniform(0.05, 0.95, rows))
        got = _convolve_rows(state, probs)
        assert got.shape == (rows, width + m)
        for row, s, p in zip(got, state, probs):
            want = np.convolve(s, p)
            assert np.max(np.abs(row - want)) <= 1e-15 * np.max(want)

    @pytest.mark.parametrize("width, m", [(30, 20), (20, 30)])
    def test_loop_over_cells_and_over_taps_agree_bitwise(self, width, m):
        """Zero padding that swaps which side is shorter swaps the loop, not the bits."""
        rng = np.random.default_rng(5)
        state = rng.random((3, width))
        probs = pmf_rows(m, (0.2, 0.5, 0.9))
        want = _convolve_rows(state, probs)
        pad = np.zeros((3, 2 * (width + m)))
        wide_probs = np.hstack((probs, pad))
        wide_state = np.hstack((state, pad))
        assert np.array_equal(_convolve_rows(state, wide_probs)[:, :width + m], want)
        assert np.array_equal(_convolve_rows(wide_state, probs)[:, :width + m], want)

    def test_a_row_ignores_its_batch_and_padding(self):
        rng = np.random.default_rng(8)
        state = rng.random((3, 16))
        state[0, 14:] = 0.0                    # a row narrower than its batch
        probs = np.zeros((3, 60))
        for row, mu in zip(probs, (0.2, 9.0, 14.0)):
            p, _ = POIS.increment_pmf(4, mu / 4)
            row[:len(p)] = p
        batch = _convolve_rows(state, probs)   # over the 16 cells
        taps = np.flatnonzero(probs[0])[-1] + 1
        assert taps < 14                       # alone, over its taps
        alone = _convolve_rows(state[:1, :14], probs[:1, :taps])
        assert np.array_equal(batch[0, :alone.shape[1]], alone[0])
        assert not batch[0, alone.shape[1]:].any()

    def test_last_stage_convolves_only_the_undecided_span(self, monkeypatch):
        """0.49/0.51: 47 of the 1,519 counts of stage 4 are undecided."""
        plan = build_one_sided_plan(BERN, EXACT, 0.49, 0.51, 0.05, 0.05, 0.5,
                                    stage_ns=(6, 38, 240, 1518, 9603))
        widths = []

        def spy(state, probs):
            widths.append(state.shape[1])
            return _convolve_rows(state, probs)

        monkeypatch.setattr(ocexact, "_convolve_rows", spy)
        stages = list(_one_sample(plan, [0.5]))
        assert widths[-1] == 47
        _, state, offset, _ = stages[-1]
        assert state.shape[1] == 47 + 8085
        assert plan.continue_spans[3][:2] == (offset, offset + 46)
        _, before, before_offset, _ = stages[3]
        assert before.shape[1] + before_offset < 1519
        # the cells of stage 4 are labelled over the state alone, 47 undecided
        sizes = [stage[1].shape[1] for stage in stages]
        cells = _cell_bins(plan, tuple(stage[2] for stage in stages), tuple(sizes))
        assert len(cells) == sum(sizes)
        assert int((cells[sum(sizes[:3]):sum(sizes[:4])] == 3 * 3).sum()) == 47


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
        # the residue used to be added to truncation_bound; no plan type
        # makes such a plan, and the kernel still refuses one
        for plan in (classic_plan(),
                     build_one_sided_plan(POIS, EXACT, 1.0, 2.0, 0.1, 0.1, 0.5, stages=3)):
            cut = without_final_stage(plan)
            with pytest.raises(InfeasibleDesignError):
                oc_single(cut, 1.0 if plan.model is POIS else 0.5)
            with pytest.raises(InfeasibleDesignError):
                rejection_split(cut, 0, 1.0 if plan.model is POIS else 0.5, 0.5, "high")

    def test_a_stage_that_decides_every_count_leaves_an_empty_state(self):
        def rule(n, windows):
            return StageRule(n=n, f=(0.0, 0.0), g=(0.0, 0.0), windows=windows, ties=(None,))

        plan = MultiHypPlan(model=BERN, family=EXACT, zone_lo=(0.4,), zone_hi=(0.6,),
                            base_alphas=(0.1,), base_betas=(0.1,), zeta=0.5,
                            stages=(rule(5, ((0, 2), (3, 5))), rule(8, ((0, 4), (5, 8)))))
        assert plan.continue_spans[0] == (0, -1, False)
        rep = oc_curve(plan, [0.3, 0.5])
        for t, theta in enumerate((0.3, 0.5)):
            assert rep.accept[t, 0] == pytest.approx(stats.binom.cdf(2, 5, theta), abs=1e-15)
            assert rep.stage_stop[t, 1] == 0.0

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


def fully_sequential_plan():
    return build_one_sided_plan(BERN, EXACT, 0.4, 0.6, 0.05, 0.05, 0.5, fully_sequential=True)


def poisson_plan():
    return build_one_sided_plan(POIS, EXACT, 1.0, 1.5, 0.05, 0.05, 0.5, stages=5)


def wide_three_zone_plan():
    return build_multihyp_plan(BERN, EXACT, [0.1, 0.55], [0.45, 0.9], 0.5, [0.1, 0.1],
                               base_betas=[0.1, 0.1], stages=3)


BATCH_CASES = [(fully_sequential_plan, 0.2, 0.8), (poisson_plan, 0.5, 2.0),
               (wide_three_zone_plan, 0.02, 0.98)]


def same_rows(rep, other, rows):
    return (np.array_equal(rep.accept[rows], other.accept)
            and np.array_equal(rep.asn[rows], other.asn)
            and np.array_equal(rep.stage_stop[rows], other.stage_stop)
            and np.array_equal(rep.truncation_bound[rows], other.truncation_bound))


class TestBatchedRows:
    """A row of ``oc_curve`` does not depend on the grid it shares, bit for bit."""

    @pytest.mark.parametrize("make, lo, hi", BATCH_CASES)
    def test_rows_equal_single_points(self, make, lo, hi):
        plan = make()
        grid = np.linspace(lo, hi, 13) + 0.003
        rep = oc_curve(plan, grid)
        if plan.model is POIS:
            assert rep.truncation_bound.min() > 0.0
        for t, theta in enumerate(grid):
            acc, asn, stop, bound = oc_single(plan, theta)
            assert np.array_equal(rep.accept[t], acc)
            assert rep.asn[t] == asn
            assert np.array_equal(rep.stage_stop[t], stop)
            assert rep.truncation_bound[t] == bound

    @pytest.mark.parametrize("make, lo, hi", BATCH_CASES)
    def test_permuted_and_interleaved_grids(self, make, lo, hi):
        plan = make()
        grid = np.linspace(lo, hi, 24) + 0.001
        rep = oc_curve(plan, grid)
        perm = np.random.default_rng(2).permutation(len(grid))
        assert same_rows(rep, oc_curve(plan, grid[perm]), perm)
        for parts in (2, 5):
            for i in range(parts):
                assert same_rows(rep, oc_curve(plan, grid[i::parts]), slice(i, None, parts))

    def test_one_pmf_call_per_increment_per_batch(self, monkeypatch):
        plan = poisson_plan()
        grid = np.linspace(0.5, 2.0, 201)
        calls = []
        pmf = Poisson.increment_pmf

        def spy(model, m, theta):
            calls.append((m, np.array(theta)))
            return pmf(model, m, theta)

        monkeypatch.setattr(Poisson, "increment_pmf", spy)
        oc_curve(plan, grid)
        increments = sorted(set(np.diff((0, *plan.stage_ns))))
        batches = {}
        for m, thetas in calls:
            assert thetas.ndim == 1
            batches.setdefault(thetas.tobytes(), []).append(m)
        assert all(sorted(ms) == increments for ms in batches.values())
        # 1,005 calls when each theta made its own
        assert len(calls) == len(batches) * len(increments) == 3 * 5
        together = np.concatenate([np.frombuffer(key) for key in batches])
        assert np.array_equal(together, grid)

    def test_poisson_rows_equal_single_points_over_a_wide_grid(self):
        """Means from 1e-3 to 50: cut-offs that differ by hundreds of counts in one batch."""
        plan = poisson_plan()
        grid = np.geomspace(1e-3, 50.0, 300)
        rep = oc_curve(plan, grid)
        for t, theta in enumerate(grid):
            acc, asn, stop, bound = oc_single(plan, theta)
            assert np.array_equal(rep.accept[t], acc)
            assert rep.asn[t] == asn
            assert np.array_equal(rep.stage_stop[t], stop)
            assert rep.truncation_bound[t] == bound

    def test_verify_risk_bounds_are_the_single_point_values(self):
        plan = wide_three_zone_plan()
        rep = verify_risk(plan, (0.1, 0.1, 0.1))
        at = {th: oc_single(plan, th) for th in plan.zone_lo + plan.zone_hi}
        low, high = at[plan.zone_lo[0]], at[plan.zone_hi[1]]
        a, b = at[plan.zone_hi[0]], at[plan.zone_lo[1]]
        assert rep.zones[0].bound == (1.0 - float(low[0][0])) + low[3]
        assert rep.zones[2].bound == (1.0 - float(high[0][2])) + high[3]
        assert rep.zones[1].bound == float(a[0][:1].sum() + b[0][2:].sum()) + (a[3] + b[3])


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

    @pytest.mark.parametrize("hyp", [-1, 2])
    def test_hypothesis_index_validation(self, hyp):
        with pytest.raises(DomainError, match="hypothesis index"):
            rejection_split(classic_plan(), hyp, 0.5, 0.5, "low")

    def test_nan_bound_is_refused(self):
        with pytest.raises(DomainError, match="bound must be a number"):
            rejection_split(classic_plan(), 0, 0.5, float("nan"), "low")


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

    @pytest.mark.parametrize("deltas", [(float("nan"), 0.05), (2.0, 2.0), (0.05, -0.01)])
    def test_budgets_outside_the_unit_interval_are_refused(self, deltas):
        with pytest.raises(DomainError, match=r"rejection budgets must lie in \[0, 1\]"):
            verify_risk(classic_plan(), deltas)

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
