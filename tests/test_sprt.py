"""Wald ratio-test baseline: boundaries, execution, approximations."""

import itertools
import math
import re
import sys

import numpy as np
import pytest

import seqtest.sim as sim
from seqtest.conflimits import ExactLimits
from seqtest.errors import DomainError, StreamExhaustedError
from seqtest.models import Bernoulli, Poisson
from seqtest.ocexact import propagate
from seqtest.plans import build_multihyp_plan, build_one_sided_plan, run_plan
from seqtest.sim import simulate
from seqtest.sprt import SprtSpec, run_sprt, sprt_oc_asn
from seqtest.twoprop import build_two_prop_plan, run_two_prop

BERN = Bernoulli()
POIS = Poisson()


def classic_spec(**kw):
    return SprtSpec(BERN, 0.4, 0.6, 0.05, 0.05, **kw)


def exact_walk(spec, theta, horizon=100_000):
    """Exact acceptance/ASN of the ratio walk by banded dynamic programming.

    Independent of the module under test: tracks the undecided
    log-ratio band state by state until its mass is gone.
    """
    up = math.log(spec.theta1 / spec.theta0)
    dn = math.log((1 - spec.theta1) / (1 - spec.theta0))
    state = {0.0: 1.0}
    accept = asn = 0.0
    for n in range(1, horizon + 1):
        nxt = {}
        for llr, p in state.items():
            for inc, pr in ((up, theta), (dn, 1 - theta)):
                v, q = llr + inc, p * pr
                if v >= spec.log_a - 1e-12:
                    asn += n * q
                elif v <= spec.log_b + 1e-12:
                    accept += q
                    asn += n * q
                else:
                    key = round(v, 9)
                    nxt[key] = nxt.get(key, 0.0) + q
        state = nxt
        if sum(state.values()) < 1e-13:
            break
    return accept, asn


class TestBoundaries:
    def test_symmetric_log_boundaries(self):
        spec = classic_spec()
        assert spec.log_a == pytest.approx(math.log(19), abs=1e-15)
        assert spec.log_b == pytest.approx(-math.log(19), abs=1e-15)
        assert spec.log_b < 0 < spec.log_a

    def test_asymmetric_boundaries(self):
        spec = SprtSpec(BERN, 0.4, 0.6, 0.01, 0.2)
        assert spec.log_a == pytest.approx(math.log(0.8 / 0.01), abs=1e-14)
        assert spec.log_b == pytest.approx(math.log(0.2 / 0.99), abs=1e-14)

    def test_bernoulli_increments(self):
        spec = classic_spec()
        assert float(spec.increments(1)) == pytest.approx(math.log(1.5), abs=1e-14)
        assert float(spec.increments(0)) == pytest.approx(math.log(2 / 3), abs=1e-14)

    def test_poisson_increments(self):
        spec = SprtSpec(POIS, 1.0, 2.0, 0.05, 0.05)
        want = lambda x: x * math.log(2.0) - 1.0
        for x in (0, 1, 2, 5):
            assert float(spec.increments(x)) == pytest.approx(want(x), abs=1e-12)

    def test_validation(self):
        with pytest.raises(DomainError):
            SprtSpec(BERN, 0.6, 0.4, 0.05, 0.05)
        with pytest.raises(DomainError):
            SprtSpec(BERN, 0.4, 0.6, 0.0, 0.05)
        with pytest.raises(DomainError):
            SprtSpec(BERN, 0.4, 0.6, 0.05, 0.05, cap=0)

    @pytest.mark.parametrize("cap", [2.5, 3.0, True, "3", 0, -2])
    def test_cap_must_be_a_positive_integer(self, cap):
        with pytest.raises(DomainError, match="sample cap must be a positive integer"):
            SprtSpec(BERN, 0.4, 0.6, 0.05, 0.05, cap=cap)
        assert SprtSpec(BERN, 0.4, 0.6, 0.05, 0.05, cap=np.int64(3)).cap == 3

    @pytest.mark.parametrize("alpha, beta", [(0.6, 0.6), (0.5, 0.5), (0.3, 0.7)])
    def test_risks_must_sum_below_one(self, alpha, beta):
        # at alpha + beta >= 1, log A <= 0 <= log B: the windows would overlap
        with pytest.raises(DomainError, match="sum below 1"):
            SprtSpec(BERN, 0.4, 0.6, alpha, beta)
        SprtSpec(BERN, 0.4, 0.6, alpha / 2, beta / 2)


class TestRunSprt:
    def test_all_ones_rejects_after_eight(self):
        # log(19)/log(1.5) is 7.26..., so the eighth success crosses
        out = run_sprt(classic_spec(), iter([1] * 50))
        assert out.sample_count == 8
        assert out.accepted_index == 1
        assert out.terminal_estimate == 1.0
        assert not out.forced

    def test_all_zeros_accepts_after_eight(self):
        out = run_sprt(classic_spec(), iter([0] * 50))
        assert out.sample_count == 8
        assert out.accepted_index == 0

    def test_replay_matches_hand_walk(self):
        spec = classic_spec()
        rng = np.random.default_rng(17)
        for _ in range(200):
            draws = (rng.random(500) < rng.uniform(0.2, 0.8)).astype(int)
            out = run_sprt(spec, iter(draws))

            llr, stop, decision = 0.0, None, None
            for i, x in enumerate(draws, start=1):
                llr += math.log(1.5) if x else math.log(2 / 3)
                if llr >= math.log(19):
                    stop, decision = i, 1
                    break
                if llr <= -math.log(19):
                    stop, decision = i, 0
                    break
            assert (out.sample_count, out.accepted_index) == (stop, decision)

    def test_cap_forces_decision_by_sign(self):
        spec = classic_spec(cap=20)
        out = run_sprt(spec, iter([1, 0] * 50))
        assert out.forced
        assert out.sample_count == 20
        assert out.accepted_index == 0  # statistic exactly zero, nonpositive
        # alternate inside the band, then finish two up-steps ahead
        up_first = run_sprt(spec, iter([1, 0] * 9 + [1, 1]))
        assert up_first.forced and up_first.accepted_index == 1

    def test_exhausted_stream(self):
        with pytest.raises(StreamExhaustedError, match=re.escape(
                "observation stream ended after 3 values; the stage of size 4 needs 1 more")):
            run_sprt(classic_spec(), iter([1, 0, 1]))

    def test_stops_unaided_in_practice(self):
        spec = classic_spec()
        rng = np.random.default_rng(3)
        sizes = []
        for _ in range(2000):
            draws = (rng.random(4000) < 0.5).astype(int)
            sizes.append(run_sprt(spec, iter(draws)).sample_count)
        assert max(sizes) < 4000
        assert np.mean(sizes) == pytest.approx(64.0, rel=0.1)


class TestApproximations:
    def test_endpoint_values_are_the_textbook_ones(self):
        spec = classic_spec()
        oc0, _ = sprt_oc_asn(spec, 0.4)
        oc1, _ = sprt_oc_asn(spec, 0.6)
        assert oc0 == pytest.approx(0.95, abs=1e-10)
        assert oc1 == pytest.approx(0.05, abs=1e-10)

    def test_drift_free_closed_forms(self):
        spec = classic_spec()
        oc, asn = sprt_oc_asn(spec, 0.5)
        assert oc == pytest.approx(0.5, abs=1e-10)
        assert asn == pytest.approx((math.log(19) / math.log(1.5)) ** 2, rel=1e-9)

    def test_continuous_through_the_drift_free_point(self):
        spec = classic_spec()
        oc_mid, asn_mid = sprt_oc_asn(spec, 0.5)
        for eps in (1e-9, -1e-9):
            oc, asn = sprt_oc_asn(spec, 0.5 + eps)
            assert oc == pytest.approx(oc_mid, abs=1e-6)
            assert asn == pytest.approx(asn_mid, rel=1e-5)

    def test_poisson_drift_free_continuity(self):
        spec = SprtSpec(POIS, 1.0, 2.0, 0.05, 0.05)
        star = 1.0 / math.log(2.0)  # increment mean vanishes here
        oc_mid, asn_mid = sprt_oc_asn(spec, star)
        oc, asn = sprt_oc_asn(spec, star + 1e-9)
        assert oc == pytest.approx(oc_mid, abs=1e-6)
        assert asn == pytest.approx(asn_mid, rel=1e-5)

    def test_oc_decreasing_in_theta(self):
        spec = classic_spec()
        grid = np.linspace(0.1, 0.9, 33)
        ocs = [sprt_oc_asn(spec, t)[0] for t in grid]
        assert all(b <= a + 1e-12 for a, b in zip(ocs, ocs[1:]))

    def test_approximation_error_stays_within_overshoot_scale(self):
        """The closed forms ignore boundary overshoot.  Against the exact
        walk the discrepancy is real but bounded; the true error rates stay
        below their nominal targets."""
        for t0, t1 in ((0.4, 0.6), (0.3, 0.5)):
            spec = SprtSpec(BERN, t0, t1, 0.05, 0.05)
            acc0, _ = exact_walk(spec, t0)
            acc1, _ = exact_walk(spec, t1)
            assert 1 - acc0 <= 0.05  # conservative against nominal alpha
            assert acc1 <= 0.05
            oc0_w, _ = sprt_oc_asn(spec, t0)
            oc1_w, _ = sprt_oc_asn(spec, t1)
            assert abs(oc0_w - acc0) < 0.015
            assert abs(oc1_w - acc1) < 0.015

    def test_exact_symmetric_asn_documents_the_gap(self):
        # the true expected size at the drift-free mean is the ruin value
        # 64; the overshoot-free formula sits about a fifth lower
        spec = classic_spec()
        _, asn_true = exact_walk(spec, 0.5)
        assert asn_true == pytest.approx(64.0, abs=1e-9)
        _, asn_w = sprt_oc_asn(spec, 0.5)
        assert 0.75 < asn_w / asn_true < 0.9

    def test_small_sample_monte_carlo_brackets_the_approximation(self):
        """At modest trial counts the noise allowance covers the overshoot
        bias, which is how the approximate curves are meant to be read."""
        spec = SprtSpec(BERN, 0.3, 0.5, 0.05, 0.05)
        rng = np.random.default_rng(23)
        trials = 1200
        for theta in (0.3, 0.5):
            got = 0
            for _ in range(trials):
                draws = (rng.random(2000) < theta).astype(int)
                got += run_sprt(spec, iter(draws)).accepted_index == 0
            mc = got / trials
            oc_w, _ = sprt_oc_asn(spec, theta)
            se = math.sqrt(max(mc * (1 - mc), 1e-9) / trials)
            assert abs(mc - oc_w) <= 3 * se


# log(2/3) - log(1/3) = log 2, so the exact ratio after n samples summing to
# k is (2k - n) log 2, and the boundaries are +-log 4: every path reaches a
# boundary exactly, at the first n where |2k - n| = 2.
TIE = SprtSpec(BERN, 1 / 3, 2 / 3, 0.2, 0.2)


def tie_paths():
    """Every 0/1 path of length 2..12, padded so that each one crosses."""
    for length in range(2, 13):
        for bits in itertools.product((0, 1), repeat=length):
            yield list(bits) + [1, 1, 1]


def first_tie_crossing(path):
    k = 0
    for n, x in enumerate(path, start=1):
        k += x
        if abs(2 * k - n) == 2:
            return n, int(2 * k > n)


def line_ratio(spec, n, k):
    """The log likelihood ratio from the closed-form coefficients of each model."""
    t0, t1 = spec.theta0, spec.theta1
    if isinstance(spec.model, Bernoulli):
        return (k * math.log(t1 * (1 - t0) / (t0 * (1 - t1)))
                + n * math.log((1 - t1) / (1 - t0)))
    return k * math.log(t1 / t0) - n * (t1 - t0)


def window_stage(spec, n):
    """(n, windows, span) of a Bernoulli stage from count_bounds, as the
    kernel reads a plan stage, and its (b_n, a_n)."""
    b, a = (int(v[0]) for v in spec.count_bounds(np.array([n])))
    windows = ((0, b) if b >= 0 else None, (a, n) if a <= n else None)
    lo, hi = max(b + 1, 0), min(a - 1, n)
    return (n, windows, (lo, hi, False) if lo <= hi else (0, -1, False)), (b, a)


def exact_capped(spec, theta):
    """Acceptance and ASN of a capped Bernoulli SPRT through the plan kernel."""
    stages, bounds = zip(*(window_stage(spec, n) for n in range(1, spec.cap + 1)))
    accept = asn = 0.0
    for idx, state, offset, _ in propagate(stages, lambda m: BERN.increment_pmf(m, theta)):
        b, a = bounds[idx]
        ks = offset + np.arange(state.shape[1])
        accept += float(state[:, ks <= b].sum())
        asn += (idx + 1) * float(state[:, (ks <= b) | (ks >= a)].sum())
    return accept, asn


class TestCountWindows:
    def test_line_coefficients(self):
        for spec in (classic_spec(), SprtSpec(POIS, 1.0, 2.0, 0.05, 0.05)):
            slope, offset = spec.line
            assert slope == pytest.approx(line_ratio(spec, 1, 1) - line_ratio(spec, 1, 0),
                                          rel=1e-14)
            assert offset == pytest.approx(line_ratio(spec, 1, 0), rel=1e-14)

    def test_run_sprt_stops_at_the_first_exact_tie(self):
        for path in tie_paths():
            n, decision = first_tie_crossing(path)
            out = run_sprt(TIE, iter(path))
            assert (out.sample_count, out.accepted_index) == (n, decision), path

    def test_simulate_stops_at_the_first_exact_tie(self, monkeypatch):
        class PathRng:
            """Uniforms that make Bernoulli.draw at theta 0.5 yield ``path``."""

            def __init__(self, path):
                self.left = [0.0 if x else 0.75 for x in path]

            def random(self, size):
                out, self.left = self.left[:size], self.left[size:]
                return np.array(out + [0.0] * (size - len(out)))

        for path in tie_paths():
            monkeypatch.setattr(sim, "_trial_rngs",
                                lambda seed, trials, path=path: iter([PathRng(path)]))
            n, decision = first_tie_crossing(path)
            rep = simulate(TIE, 0.5, 1, 0)
            assert (rep.max_samples, rep.accept_freq[1]) == (n, decision), path

    @pytest.mark.parametrize("spec", [
        SprtSpec(BERN, 0.4, 0.6, 0.05, 0.05),
        SprtSpec(BERN, 0.3, 0.5, 0.01, 0.2),
        SprtSpec(BERN, 0.3, 0.5, 0.01, 0.2, cap=700),
        SprtSpec(POIS, 1.0, 1.5, 0.05, 0.05),
        SprtSpec(POIS, 1.0, 1.5, 0.01, 0.2, cap=1500),
    ], ids=lambda s: f"{s.model.name}-{s.theta0}-{s.alpha}-cap{s.cap}")
    def test_bounds_classify_like_the_ratio(self, spec):
        ns = np.arange(1, 2001)
        if spec.cap is not None:
            ns = ns[ns <= spec.cap]
        b, a = spec.count_bounds(ns)
        for n, b_n, a_n in zip(ns.tolist(), b.tolist(), a.tolist()):
            top = n if isinstance(spec.model, Bernoulli) else a_n + 5
            ks = np.arange(top + 1)
            r = line_ratio(spec, n, ks)
            if n == spec.cap:
                levels, accept, reject = [0.0], r <= 0.0, r > 0.0
            else:
                levels = [spec.log_a, spec.log_b]
                accept, reject = r <= spec.log_b, r >= spec.log_a
            clear = np.all([np.abs(r - v) > 1e-7 for v in levels], axis=0)
            np.testing.assert_array_equal((ks <= b_n)[clear], accept[clear], err_msg=str(n))
            np.testing.assert_array_equal((ks >= a_n)[clear], reject[clear], err_msg=str(n))

    @pytest.mark.parametrize("t0, t1, alpha, beta", [
        (0.4, 0.6, 0.05, 0.05), (0.3, 0.5, 0.01, 0.2), (1 / 3, 2 / 3, 0.2, 0.2)])
    def test_capped_windows_match_the_exact_walk(self, t0, t1, alpha, beta):
        spec = SprtSpec(BERN, t0, t1, alpha, beta, cap=3000)
        for theta in (t0, 0.5 * (t0 + t1), t1):
            accept, asn = exact_capped(spec, theta)
            want_accept, want_asn = exact_walk(spec, theta)
            assert accept == pytest.approx(want_accept, abs=1e-12)
            assert asn == pytest.approx(want_asn, abs=1e-9)


class TestStreamValidation:
    """Every runner reads through the same validated reader."""

    @pytest.mark.parametrize("bad", [2, 0.5])
    def test_off_support_values_raise(self, bad):
        plan = build_one_sided_plan(BERN, ExactLimits(), 0.4, 0.6, 0.05, 0.05, 0.5,
                                    stages=5)
        two = build_two_prop_plan([-0.3], [0.3], 0.5, stage_ns=[4, 8])
        stream = [bad] * 200
        with pytest.raises(DomainError):
            run_plan(plan, iter(stream))
        with pytest.raises(DomainError):
            run_sprt(classic_spec(), iter(stream))
        with pytest.raises(DomainError):
            run_sprt(classic_spec(cap=10), iter(stream))
        with pytest.raises(DomainError, match="first-arm"):
            run_two_prop(two, iter(stream), iter([0] * 8))
        with pytest.raises(DomainError, match="second-arm"):
            run_two_prop(two, iter([0] * 8), iter(stream))

    @pytest.mark.parametrize("bad", [-1, 0.5])
    def test_poisson_off_support_values_raise(self, bad):
        with pytest.raises(DomainError):
            run_sprt(SprtSpec(POIS, 1.0, 2.0, 0.05, 0.05), iter([bad] * 50))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("runner", ["plan", "sprt", "two_prop"])
    def test_non_finite_values_raise(self, runner, bad):
        if runner == "plan":
            plan = build_one_sided_plan(POIS, ExactLimits(), 1.0, 2.0, 0.05, 0.05, 0.5,
                                        stages=2)
            run = lambda stream: run_plan(plan, stream)
        elif runner == "sprt":
            run = lambda stream: run_sprt(SprtSpec(POIS, 1.0, 1.5, 0.05, 0.05), stream)
        else:
            two = build_two_prop_plan([-0.3], [0.3], 0.5, stage_ns=[4, 8])
            run = lambda stream: run_two_prop(two, stream, iter([0] * 8))
        with pytest.raises(DomainError, match="got -?(nan|inf)"):
            run(iter([bad] * 50))

    def test_values_above_the_float_range_raise(self):
        """A Poisson count past float range would overflow the terminal estimate."""
        plan = build_one_sided_plan(POIS, ExactLimits(), 1.0, 2.0, 0.05, 0.05, 0.5, stages=2)
        with pytest.raises(DomainError, match="float range"):
            run_sprt(SprtSpec(POIS, 1.0, 1.5, 0.05, 0.05), iter([10**400] * 100))
        with pytest.raises(DomainError, match="float range"):
            run_plan(plan, iter([10**400] * 100))
        top = int(sys.float_info.max)
        assert run_sprt(SprtSpec(POIS, 1.0, 1.5, 0.05, 0.05),
                        iter([top] * 100)).terminal_estimate == sys.float_info.max
        assert run_plan(plan, iter([top] * 100)).terminal_estimate == sys.float_info.max


class TestStreamReads:
    """Each runner reads exactly the values its outcome counts: the stream's
    next value is the one at index ``sample_count`` (per arm, the reached
    stage's size)."""

    @pytest.mark.parametrize("spec", [
        classic_spec(), classic_spec(cap=40),
        SprtSpec(POIS, 1.0, 1.5, 0.05, 0.05), SprtSpec(POIS, 1.0, 1.5, 0.05, 0.05, cap=30),
    ], ids=["bernoulli", "bernoulli-capped", "poisson", "poisson-capped"])
    def test_run_sprt(self, spec):
        rng = np.random.default_rng(41)
        stops = set()
        for _ in range(100):
            draws = spec.model.draw(rng, 400, 0.5 * (spec.theta0 + spec.theta1)).tolist()
            it = iter(draws)
            out = run_sprt(spec, it)
            assert list(it) == draws[out.sample_count:]
            stops.add(out.sample_count)
        if spec.cap is not None:
            assert spec.cap in stops

    @pytest.mark.parametrize("plan, theta", [
        (build_one_sided_plan(BERN, ExactLimits(), 0.4, 0.6, 0.05, 0.05, 0.5, stages=5), 0.5),
        (build_multihyp_plan(BERN, ExactLimits(), [0.15, 0.55], [0.35, 0.75], 0.5,
                             [0.1, 0.1], stages=3), 0.45),
        (build_one_sided_plan(POIS, ExactLimits(), 1.0, 1.5, 0.05, 0.05, 0.5, stages=4), 1.25),
    ], ids=["bernoulli", "three-hypotheses", "poisson"])
    def test_run_plan(self, plan, theta):
        rng = np.random.default_rng(43)
        stops = set()
        for _ in range(100):
            draws = plan.model.draw(rng, plan.stage_ns[-1] + 20, theta).tolist()
            it = iter(draws)
            out = run_plan(plan, it)
            assert list(it) == draws[out.sample_count:]
            stage = plan.stages[out.stage_index - 1]
            assert out.sample_count == stage.n
            assert out.tie_occurred == stage.tie_for_sum(sum(draws[:stage.n]))
            stops.add(out.sample_count)
        assert len(stops) > 1

    def test_run_two_prop(self):
        plan = build_two_prop_plan([-0.15], [0.15], 0.5, stage_ns=[5, 20, 60])
        rng = np.random.default_rng(47)
        stages = set()
        for _ in range(100):
            xs, ys = (BERN.draw(rng, 70, p).tolist() for p in (0.5, 0.4))
            it_x, it_y = iter(xs), iter(ys)
            out = run_two_prop(plan, it_x, it_y)
            stage = plan.stages[out.stage_index - 1]
            assert list(it_x) == xs[stage.n_x:]
            assert list(it_y) == ys[stage.n_y:]
            stages.add(out.stage_index)
        assert len(stages) > 1
