"""Monte Carlo runner tests: determinism, substreams, and exact cross-checks."""

import dataclasses
import math

import numpy as np
import pytest
from numpy.random import PCG64, Generator, SeedSequence

from seqtest.conflimits import ExactLimits
from seqtest.errors import DomainError, InfeasibleDesignError, UnsupportedModelError
from seqtest.models import Bernoulli
from seqtest.ocexact import oc_single
from seqtest.plans import build_multihyp_plan, build_one_sided_plan, run_plan
from seqtest.sim import compare, simulate, simulate_two_prop
from seqtest.sprt import SprtSpec
from seqtest.twoprop import build_two_prop_plan, run_two_prop


def classic_plan():
    return build_one_sided_plan(Bernoulli(), ExactLimits(), 0.4, 0.6,
                                0.05, 0.05, 0.5, stages=5)


def three_zone_plan():
    return build_multihyp_plan(Bernoulli(), ExactLimits(), [0.15, 0.55],
                               [0.35, 0.75], 0.5, [0.1, 0.1], stages=2)


class TestDeterminism:
    def test_repeat_identical(self):
        plan = classic_plan()
        a = simulate(plan, 0.55, 500, 42)
        b = simulate(plan, 0.55, 500, 42)
        assert a == b

    def test_single_trial(self):
        plan = classic_plan()
        reports = [simulate(plan, 0.55, 1, 17) for _ in range(3)]
        assert reports[0] == reports[1] == reports[2]
        # one trial: the frequency vector is one-hot
        assert sorted(reports[0].accept_freq) == [0.0, 1.0]
        assert reports[0].asn == float(int(reports[0].asn))

    def test_seed_changes_stream(self):
        plan = classic_plan()
        a = simulate(plan, 0.55, 500, 1)
        b = simulate(plan, 0.55, 500, 2)
        assert a != b


class TestSubstreamContract:
    """Each trial draws from a child stream keyed by (seed, trial index)."""

    def _manual_outcomes(self, plan, theta, seed, trials):
        model = plan.model
        n_last = plan.stage_ns[-1]
        outs = []
        for t in range(trials):
            rng = Generator(PCG64(SeedSequence(entropy=seed, spawn_key=(t,))))
            draws = model.draw(rng, n_last, theta)
            outs.append(run_plan(plan, iter(draws.tolist())))
        return outs

    def test_matches_independent_reimplementation(self):
        plan = classic_plan()
        outs = self._manual_outcomes(plan, 0.55, 909, 200)
        counts = [0, 0]
        for o in outs:
            counts[o.accepted_index] += 1
        rep = simulate(plan, 0.55, 200, 909)
        assert [round(f * 200) for f in rep.accept_freq] == counts
        assert rep.asn == pytest.approx(
            sum(o.sample_count for o in outs) / 200, abs=1e-12)
        assert rep.max_samples == max(o.sample_count for o in outs)

    def test_trial_results_independent_of_trial_count(self):
        # trial t sees the same stream whether 100 or 200 trials are run
        plan = classic_plan()
        outs = self._manual_outcomes(plan, 0.55, 909, 100)
        counts = [0, 0]
        for o in outs:
            counts[o.accepted_index] += 1
        rep = simulate(plan, 0.55, 100, 909)
        assert [round(f * 100) for f in rep.accept_freq] == counts
        assert rep.asn == pytest.approx(
            sum(o.sample_count for o in outs) / 100, abs=1e-12)


class TestAgainstExactOC:
    def test_large_sample_agreement(self):
        plan = classic_plan()
        accept, asn, stop, _ = oc_single(plan, 0.55)
        trials = 100_000
        rep = simulate(plan, 0.55, trials, 42)
        for k in range(2):
            se = math.sqrt(accept[k] * (1 - accept[k]) / trials)
            assert abs(rep.accept_freq[k] - accept[k]) < 4 * se
        ns = np.asarray(plan.stage_ns, dtype=float)
        p = np.asarray(stop)
        sd = math.sqrt(float(np.sum(p * ns**2) - np.sum(p * ns) ** 2))
        assert abs(rep.asn - asn) < 4 * sd / math.sqrt(trials)
        # the reported standard error should estimate the same quantity
        assert rep.asn_se == pytest.approx(sd / math.sqrt(trials), rel=0.05)

    def test_frequencies_partition(self):
        rep = simulate(classic_plan(), 0.48, 2_000, 5)
        assert sum(rep.accept_freq) == pytest.approx(1.0, abs=1e-12)
        rep3 = simulate(three_zone_plan(), 0.5, 2_000, 5)
        assert len(rep3.accept_freq) == 3
        assert sum(rep3.accept_freq) == pytest.approx(1.0, abs=1e-12)


class TestReportInvariants:
    def test_standard_errors_and_metadata(self):
        plan = classic_plan()
        trials = 800
        rep = simulate(plan, 0.52, trials, 99)
        for f, se in zip(rep.accept_freq, rep.accept_se):
            assert se == pytest.approx(math.sqrt(f * (1 - f) / trials), abs=1e-15)
        assert rep.theta == 0.52
        assert rep.trials == trials
        assert rep.seed == 99

    def test_percentiles_and_cap(self):
        plan = classic_plan()
        rep = simulate(plan, 0.5, 1_000, 3)
        p50, p90, p99 = (rep.stop_percentiles[q] for q in (50, 90, 99))
        assert p50 <= p90 <= p99 <= rep.max_samples
        # a closed plan can never pass its final stage or force a call
        assert rep.max_samples <= plan.stage_ns[-1]
        assert {p50, p90, p99} <= set(float(n) for n in plan.stage_ns)
        assert rep.forced_rate == 0.0


class TestSprtSimulation:
    def test_drift_free_matches_exact(self):
        # at the midpoint the walk is symmetric: acceptance is exactly 1/2,
        # and the absorbing-walk average stop is exactly 64 draws
        spec = SprtSpec(Bernoulli(), 0.4, 0.6, 0.05, 0.05)
        trials = 20_000
        rep = simulate(spec, 0.5, trials, 7)
        se = math.sqrt(0.25 / trials)
        assert abs(rep.accept_freq[0] - 0.5) < 4 * se
        assert abs(rep.asn - 64.0) < 4 * rep.asn_se
        assert rep.forced_rate == 0.0

    def test_cap_forces_calls(self):
        spec = SprtSpec(Bernoulli(), 0.4, 0.6, 0.05, 0.05, cap=30)
        rep = simulate(spec, 0.5, 20_000, 7)
        assert rep.max_samples == 30
        assert rep.asn <= 30
        # the drift-free walk rarely resolves within 30 draws
        assert 0.5 < rep.forced_rate < 1.0
        assert sum(rep.accept_freq) == pytest.approx(1.0, abs=1e-12)


class TestCompare:
    def test_common_random_numbers(self):
        # twin runners see identical streams, so every row pair must agree
        plan = classic_plan()
        rep = compare([plan, plan], [0.45, 0.55], 500, 11)
        assert rep.names == ("runner_1", "runner_2")
        rows = rep.rows
        assert [r[0] for r in rows] == ["runner_1", "runner_2"] * 2
        for i in range(0, len(rows), 2):
            assert rows[i][1] == rows[i + 1][1]
        assert rows[0][1].theta == 0.45 and rows[2][1].theta == 0.55

    def test_csv_layout(self):
        plan = classic_plan()
        rep = compare([plan], [0.45], 300, 3)
        lines = rep.to_csv().splitlines()
        assert lines[0] == ("runner,theta,trials,seed,accept_h0,accept_h1,"
                            "se_h0,se_h1,asn,asn_se,stop_p50,stop_p90,"
                            "stop_p99,max_samples,forced_rate")
        assert len(lines) == 2
        fields = lines[1].split(",")
        assert fields[0] == "runner_1"
        assert fields[1:4] == ["0.45", "300", "3"]
        # a rerun with the same arguments reproduces the bytes
        assert rep.to_csv() == compare([plan], [0.45], 300, 3).to_csv()

    def test_mixed_widths_pad_with_nan(self):
        spec = SprtSpec(Bernoulli(), 0.4, 0.6, 0.05, 0.05, cap=30)
        rep = compare([three_zone_plan(), spec], [0.5], 300, 5,
                      names=["three", "walk"])
        lines = rep.to_csv().splitlines()
        assert "accept_h2" in lines[0] and "se_h2" in lines[0]
        header = lines[0].split(",")
        walk = dict(zip(header, lines[2].split(",")))
        assert walk["runner"] == "walk"
        assert walk["accept_h2"] == "nan" and walk["se_h2"] == "nan"
        three = dict(zip(header, lines[1].split(",")))
        assert three["runner"] == "three"
        assert float(three["accept_h2"]) >= 0.0

    def test_validation(self):
        plan = classic_plan()
        with pytest.raises(DomainError):
            simulate(plan, 0.5, 0, 1)
        with pytest.raises(UnsupportedModelError):
            simulate(42, 0.5, 10, 1)
        with pytest.raises(DomainError):
            compare([plan], [0.5], 10, 1, names=["a", "b"])

    @pytest.mark.parametrize("trials, seed, what", [
        (10, -1, "seed"), (10, 1.5, "seed"), (10, "1", "seed"), (10, None, "seed"),
        (2.5, 1, "trials"), (0, 1, "trials"), (-3, 1, "trials"), (10.0, 1, "trials"),
    ])
    def test_trials_and_seed_must_be_integers(self, trials, seed, what):
        plan = classic_plan()
        tp = build_two_prop_plan([-0.3], [0.3], 0.5, stage_ns=[4, 8])
        spec = SprtSpec(Bernoulli(), 0.4, 0.6, 0.05, 0.05)
        for call in (lambda: simulate(plan, 0.5, trials, seed),
                     lambda: simulate(spec, 0.5, trials, seed),
                     lambda: simulate_two_prop(tp, 0.5, 0.5, trials, seed),
                     lambda: compare([plan], [0.5], trials, seed),
                     lambda: compare([plan], [], trials, seed)):
            with pytest.raises(DomainError, match=f"{what} must be a"):
                call()

    def test_numpy_integers_are_accepted(self):
        plan = classic_plan()
        assert simulate(plan, 0.5, np.int64(5), np.uint32(3)) == simulate(plan, 0.5, 5, 3)

    @pytest.mark.parametrize("p_x, p_y", [(1.5, -0.2), (0.5, 1.01), (-0.1, 0.5)])
    def test_two_prop_points_outside_the_unit_square(self, p_x, p_y):
        plan = build_two_prop_plan([-0.3], [0.3], 0.5, stage_ns=[4, 8])
        with pytest.raises(DomainError):
            simulate_two_prop(plan, p_x, p_y, 10, 1)


class TestUnclosedPlans:
    """A hand-built plan whose last stage leaves counts undecided is refused
    as the runners and the exact OC refuse it."""

    def test_one_sample(self):
        plan = classic_plan()
        cut = dataclasses.replace(plan, stages=plan.stages[:-1])
        with pytest.raises(InfeasibleDesignError):
            run_plan(cut, [1, 0] * (cut.stage_ns[-1] // 2 + 1))
        with pytest.raises(InfeasibleDesignError):
            simulate(cut, 0.5, 200, 3)

    def test_two_sample(self):
        plan = build_two_prop_plan([-0.1], [0.1], 0.5, stage_ns=[2, 23])
        cut = dataclasses.replace(plan, stages=plan.stages[:-1])
        with pytest.raises(InfeasibleDesignError):
            run_two_prop(cut, [0, 1], [0, 1])
        with pytest.raises(InfeasibleDesignError):
            simulate_two_prop(cut, 0.5, 0.5, 200, 3)
