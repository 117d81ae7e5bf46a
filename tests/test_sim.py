"""Monte Carlo runner tests: determinism, substreams, and exact cross-checks."""

import math
import tracemalloc
from itertools import chain, cycle

import numpy as np
import pytest
from numpy.random import PCG64, Generator, SeedSequence

from seqtest import sim, sprt
from seqtest.conflimits import ExactLimits
from seqtest.errors import DomainError, InfeasibleDesignError, UnsupportedModelError
from seqtest.models import Bernoulli, Poisson
from seqtest.ocexact import oc_single
from seqtest.plans import build_multihyp_plan, build_one_sided_plan, run_plan
from seqtest.sim import compare, simulate, simulate_two_prop
from seqtest.sprt import SprtSpec, run_sprt
from seqtest.twoprop import build_two_prop_plan, run_two_prop

from helpers import without_final_stage


def classic_plan():
    return build_one_sided_plan(Bernoulli(), ExactLimits(), 0.4, 0.6,
                                0.05, 0.05, 0.5, stages=5)


def three_zone_plan():
    return build_multihyp_plan(Bernoulli(), ExactLimits(), [0.15, 0.55],
                               [0.35, 0.75], 0.5, [0.1, 0.1], stages=2)


def numpy_rng(seed, t):
    """Trial t's generator as numpy builds it, one SeedSequence per trial."""
    return Generator(PCG64(SeedSequence(entropy=seed, spawn_key=(t,))))


def oracle_outcomes(runner, theta, trials, seed, p_y=None):
    """Per trial (accepted index, samples, forced) of ``oracle_report``."""
    outs = []
    for t in range(trials):
        rng = numpy_rng(seed, t)
        if p_y is not None:
            last = runner.stages[-1]
            xs = Bernoulli().draw(rng, last.n_x, theta)
            out = run_two_prop(runner, xs.tolist(), Bernoulli().draw(rng, last.n_y, p_y).tolist())
        elif isinstance(runner, SprtSpec):
            # draws in any chunking read the same stream
            chunks = iter(lambda: runner.model.draw(rng, 50, theta).tolist(), None)
            out = run_sprt(runner, chain.from_iterable(chunks))
        else:
            out = run_plan(runner, runner.model.draw(rng, runner.stage_ns[-1], theta).tolist())
        outs.append((out.accepted_index, out.sample_count, out.forced))
    return tuple(np.array(col) for col in zip(*outs))


def oracle_report(runner, theta, trials, seed, p_y=None):
    """``simulate`` (``simulate_two_prop`` when ``p_y`` is given) one trial at
    a time: numpy's own generator per trial and the runners' own loops."""
    accepted, nstop, forced = oracle_outcomes(runner, theta, trials, seed, p_y)
    m = 2 if isinstance(runner, SprtSpec) else runner.m
    return sim._summarize(theta if p_y is None else theta - p_y, trials, seed,
                          accepted, nstop, m, forced if isinstance(runner, SprtSpec) else None)


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

    def test_matches_independent_reimplementation(self):
        plan = classic_plan()
        assert simulate(plan, 0.55, 200, 909) == oracle_report(plan, 0.55, 200, 909)

    def test_trial_results_independent_of_trial_count(self):
        # trial t sees the same stream whether 1, 100 or 200 trials are run
        plan = classic_plan()
        for trials in (1, 100):
            assert simulate(plan, 0.55, trials, 909) == oracle_report(plan, 0.55, trials, 909)

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**70 + 3,
                                      np.uint64(2**63 + 5)])
    def test_bulk_states_are_numpy_seeding(self, seed):
        edge = sim._SEED_CHUNK  # the trial indices hashed in one pass end here
        checked = {0, 1, 2, 777, edge - 1, edge, edge + 1}
        for t, rng in enumerate(sim._trial_rngs(seed, np.arange(edge + 2))):
            if t in checked:
                ref = numpy_rng(seed, t)
                assert rng.bit_generator.state == ref.bit_generator.state, t
                np.testing.assert_array_equal(rng.random(4), ref.random(4))
                np.testing.assert_array_equal(rng.poisson(3.0, 4), ref.poisson(3.0, 4))
        # any index array, as the SPRT rounds pass their undecided trials
        ts = [edge + 1, 7, 2**32 - 1, 0, 7]
        for t, rng in zip(ts, sim._trial_rngs(seed, np.array(ts)), strict=True):
            assert rng.bit_generator.state == numpy_rng(seed, t).bit_generator.state, t

    @pytest.mark.parametrize("make, thetas", [
        (classic_plan, (0.4, 0.5, 0.6)),
        (three_zone_plan, (0.2, 0.45, 0.8)),
        (lambda: build_one_sided_plan(Poisson(), ExactLimits(), 1.0, 1.5, 0.05, 0.05, 0.5,
                                      stages=4), (1.0, 1.25, 1.5)),
    ], ids=["bernoulli", "bernoulli-three-zones", "poisson"])
    def test_plans_match_one_generator_per_trial(self, make, thetas):
        plan = make()
        trials = 2 * (sim._BLOCK_CELLS // plan.stage_ns[-1]) + 3  # three blocks
        for theta in thetas:
            assert simulate(plan, theta, trials, 2**64 + 3) == \
                oracle_report(plan, theta, trials, 2**64 + 3)

    @pytest.mark.parametrize("spec", [
        SprtSpec(Bernoulli(), 0.4, 0.6, 0.05, 0.05),
        SprtSpec(Bernoulli(), 0.3, 0.5, 0.01, 0.2, cap=70),
        SprtSpec(Bernoulli(), 0.4, 0.6, 0.05, 0.05, cap=30),  # inside the first round
        SprtSpec(Bernoulli(), 0.45, 0.55, 0.01, 0.2, cap=700),  # between round widths
        SprtSpec(Poisson(), 1.0, 1.5, 0.05, 0.05),
        SprtSpec(Poisson(), 1.0, 1.5, 0.05, 0.05, cap=150),
    ], ids=["bernoulli", "bernoulli-capped", "bernoulli-cap-30", "bernoulli-cap-700",
            "poisson", "poisson-capped"])
    def test_sprt_matches_one_generator_per_trial(self, spec):
        for theta in (spec.theta0, spec.theta1):
            assert simulate(spec, theta, 300, 11) == oracle_report(spec, theta, 300, 11)

    def test_sprt_rounds_end_where_walks_stop(self):
        # walks that stop on the last draw of a round's width, and past the
        # third round, are decided where they stop
        spec = SprtSpec(Bernoulli(), 0.45, 0.55, 0.01, 0.2)
        _, nstop, _ = oracle_outcomes(spec, 0.5, 400, 0)
        width = sprt._SPRT_CHUNK
        assert {width, sprt._SPRT_GROWTH * width} <= set(nstop.tolist())
        assert nstop.max() > sprt._SPRT_GROWTH ** 2 * width
        assert simulate(spec, 0.5, 400, 0) == oracle_report(spec, 0.5, 400, 0)

    def test_sprt_rounds_span_several_blocks(self):
        spec = SprtSpec(Bernoulli(), 0.4, 0.6, 0.05, 0.05)
        trials = 2 * (sim._BLOCK_CELLS // sprt._SPRT_CHUNK) + 3  # three blocks at first
        assert simulate(spec, 0.5, trials, 2**64 + 3) == \
            oracle_report(spec, 0.5, trials, 2**64 + 3)

    @pytest.mark.parametrize("cap", [None, 700])
    def test_sprt_rows_wider_than_a_block(self, monkeypatch, cap):
        # with narrow blocks the rounds past 256 draws hold one trial's row
        # per block, each drawn again from the start of its stream
        monkeypatch.setattr(sim, "_BLOCK_CELLS", 256)
        spec = SprtSpec(Bernoulli(), 0.45, 0.55, 0.01, 0.2, cap=cap)
        rep = simulate(spec, 0.5, 200, 0)
        assert rep.max_samples > sim._BLOCK_CELLS
        assert rep == oracle_report(spec, 0.5, 200, 0)

    def test_runaway_walk_is_an_error(self, monkeypatch):
        # a drift-free walk between far boundaries outlasts the draw limit
        monkeypatch.setattr(sprt, "_MAX_DRAWS", 1000)
        spec = SprtSpec(Bernoulli(), 0.499, 0.501, 0.001, 0.001)
        with pytest.raises(DomainError, match="still undecided after"):
            simulate(spec, 0.5, 1, 0)
        with pytest.raises(DomainError, match="still undecided after"):
            run_sprt(spec, cycle([0, 1]))

    def test_two_prop_matches_one_generator_per_trial(self):
        plan = build_two_prop_plan([-0.1], [0.1], 0.5, stage_ns=[2, 23, 400])
        trials = sim._BLOCK_CELLS // 800 + 5  # two blocks
        for p_x, p_y in ((0.3, 0.3), (0.5, 0.35), (0.2, 0.45)):
            assert simulate_two_prop(plan, p_x, p_y, trials, 5) == \
                oracle_report(plan, p_x, trials, 5, p_y=p_y)

    def test_memory_stays_in_one_block(self):
        plan = build_one_sided_plan(Bernoulli(), ExactLimits(), 0.45, 0.55, 0.05, 0.05, 0.5,
                                    stages=5)
        trials = 7_000
        assert trials * plan.stage_ns[-1] * 8 > 20e6  # the whole draw matrix
        tracemalloc.start()
        try:
            simulate(plan, 0.5, trials, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    def test_sprt_memory_stays_in_one_block(self):
        spec = SprtSpec(Bernoulli(), 0.4, 0.6, 0.05, 0.05)
        trials = 10_000
        assert trials * sprt._SPRT_CHUNK * 8 > 5e6  # the first round's whole draw matrix
        tracemalloc.start()
        try:
            simulate(spec, 0.5, trials, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4e6


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
        (2**32 + 1, 1, "trials"),  # past the one-word trial index of the substreams
        (True, 1, "trials"), (10, True, "seed"),
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

    @pytest.mark.parametrize("runners, grid", [([classic_plan()], []), ([], [0.5])],
                             ids=["empty-grid", "no-runners"])
    def test_compare_needs_a_runner_and_a_theta(self, runners, grid):
        with pytest.raises(DomainError, match="at least one runner and one theta"):
            compare(runners, grid, 10, 1)

    def test_numpy_integers_are_accepted(self):
        plan = classic_plan()
        assert simulate(plan, 0.5, np.int64(5), np.uint32(3)) == simulate(plan, 0.5, 5, 3)

    @pytest.mark.parametrize("p_x, p_y", [(1.5, -0.2), (0.5, 1.01), (-0.1, 0.5)])
    def test_two_prop_points_outside_the_unit_square(self, p_x, p_y):
        plan = build_two_prop_plan([-0.3], [0.3], 0.5, stage_ns=[4, 8])
        with pytest.raises(DomainError):
            simulate_two_prop(plan, p_x, p_y, 10, 1)


class TestUnclosedPlans:
    """A plan whose last stage leaves counts undecided, which no plan type
    makes, is refused by the simulator as the runners and the exact OC
    refuse it."""

    def test_one_sample(self):
        plan = classic_plan()
        cut = without_final_stage(plan)
        with pytest.raises(InfeasibleDesignError):
            run_plan(cut, [1, 0] * (cut.stage_ns[-1] // 2 + 1))
        with pytest.raises(InfeasibleDesignError):
            simulate(cut, 0.5, 200, 3)

    def test_two_sample(self):
        plan = build_two_prop_plan([-0.1], [0.1], 0.5, stage_ns=[2, 23])
        cut = without_final_stage(plan)
        with pytest.raises(InfeasibleDesignError):
            run_two_prop(cut, [0, 1], [0, 1])
        with pytest.raises(InfeasibleDesignError):
            simulate_two_prop(cut, 0.5, 0.5, 200, 3)
