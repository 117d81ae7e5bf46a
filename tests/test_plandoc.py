"""Plan document serialization: canonical text, lossless round trips."""

import json
import math
import pathlib
import tracemalloc

import numpy as np
import pytest

from seqtest.conflimits import ApproxLimits, ChernoffLimits, ExactLimits
from seqtest.errors import PlanDocumentError
from seqtest.models import Bernoulli, Poisson
from seqtest.plandoc import (SCHEMA_VERSION, doc_to_plan, dump_doc, load_plan,
                             parse_doc, plan_to_doc, save_plan)
from seqtest.plans import build_multihyp_plan, build_one_sided_plan, run_plan
from seqtest.ocexact import oc_single
from seqtest.twoprop import build_two_prop_plan, exact_oc, run_two_prop

from helpers import decision_for_sum


def plan_zoo():
    return {
        "one-sided-exact": build_one_sided_plan(
            Bernoulli(), ExactLimits(), 0.4, 0.6, 0.05, 0.05, 0.5, stages=5),
        "multi-chernoff": build_multihyp_plan(
            Bernoulli(), ChernoffLimits(), [0.15, 0.55], [0.35, 0.75], 0.5,
            [0.1, 0.1], stages=2),
        "poisson": build_one_sided_plan(
            Poisson(), ExactLimits(), 3.0, 5.0, 0.05, 0.05, 0.5, stages=3),
        "two-prop": build_two_prop_plan([-0.3], [0.3], 0.5, stage_ns=[4, 8]),
        "approx-width": build_one_sided_plan(
            Bernoulli(), ApproxLimits(0.3), 0.4, 0.6, 0.05, 0.05, 0.5,
            stages=4),
    }


class TestRoundTrip:
    def test_byte_identical_cycle(self):
        for name, plan in plan_zoo().items():
            text = dump_doc(plan_to_doc(plan))
            again = dump_doc(plan_to_doc(doc_to_plan(parse_doc(text))))
            assert text == again, name
            assert text.endswith("\n")
            assert "\r" not in text

    def test_canonical_text_shape(self):
        text = dump_doc(plan_to_doc(plan_zoo()["one-sided-exact"]))
        doc = json.loads(text)
        assert doc["schema"] == SCHEMA_VERSION
        assert doc["kind"] == "one-sided"
        # canonical form: sorted keys, two-space indent
        assert text == json.dumps(doc, sort_keys=True, indent=2) + "\n"

    def test_infinite_edges_as_strings(self):
        plans = plan_zoo()
        text = dump_doc(plan_to_doc(plans["one-sided-exact"]))
        assert '"-inf"' in text or '"inf"' in text
        assert "Infinity" not in text
        loaded = doc_to_plan(parse_doc(text))
        edges = [x for st in loaded.stages for x in st.f + st.g]
        assert any(math.isinf(x) for x in edges)
        # the unbounded top window of the counting model stores a null
        ptext = dump_doc(plan_to_doc(plans["poisson"]))
        assert "null" in ptext

    def test_provenance_block(self):
        from seqtest import __version__
        doc = plan_to_doc(plan_zoo()["multi-chernoff"],
                          build={"stages": 2, "schedule": "geometric"},
                          tuning={"iterations": 7})
        assert doc["provenance"] == {"tool": "seqtest",
                                     "tool_version": __version__,
                                     "tuning": {"iterations": 7}}
        assert doc["build"] == {"stages": 2, "schedule": "geometric"}
        # provenance is carried, not validated: the cycle keeps it
        text = dump_doc(doc)
        assert dump_doc(plan_to_doc(doc_to_plan(parse_doc(text)),
                                    build=doc["build"],
                                    tuning={"iterations": 7})) == text


class TestBehaviorEquality:
    def test_one_sided_runs_identically(self):
        plan = plan_zoo()["one-sided-exact"]
        loaded = doc_to_plan(parse_doc(dump_doc(plan_to_doc(plan))))
        rng = np.random.default_rng(31)
        for _ in range(100):
            stream = (rng.uniform(size=plan.sample_cap) < 0.5).astype(int)
            assert run_plan(loaded, iter(stream.tolist())) == run_plan(
                plan, iter(stream.tolist()))
        a = oc_single(plan, 0.47)
        b = oc_single(loaded, 0.47)
        assert np.array_equal(a[0], b[0]) and a[1] == b[1]

    def test_multi_decisions_identical(self):
        plan = plan_zoo()["multi-chernoff"]
        loaded = doc_to_plan(parse_doc(dump_doc(plan_to_doc(plan))))
        for got, want in zip(loaded.stages, plan.stages, strict=True):
            for k in range(want.n + 1):
                assert decision_for_sum(got, k) == decision_for_sum(want, k)

    def test_two_prop_runs_identically(self):
        plan = plan_zoo()["two-prop"]
        loaded = doc_to_plan(parse_doc(dump_doc(plan_to_doc(plan))))
        rng = np.random.default_rng(8)
        for _ in range(50):
            xs = (rng.uniform(size=8) < 0.6).astype(int).tolist()
            ys = (rng.uniform(size=8) < 0.4).astype(int).tolist()
            assert run_two_prop(loaded, xs, ys) == run_two_prop(plan, xs, ys)
        a = exact_oc(plan, 0.55, 0.3)
        b = exact_oc(loaded, 0.55, 0.3)
        assert np.array_equal(a[0], b[0]) and a[1:] == b[1:]


class TestFileForms:
    def test_save_then_load(self, tmp_path):
        plan = plan_zoo()["one-sided-exact"]
        path = tmp_path / "plan.json"
        save_plan(plan, path, build={"stages": 5})
        loaded, doc = load_plan(path)
        assert doc["build"] == {"stages": 5}
        assert dump_doc(plan_to_doc(loaded)) == dump_doc(plan_to_doc(plan))
        raw = path.read_bytes()
        assert raw.endswith(b"\n") and b"\r" not in raw


class TestMalformedDocuments:
    def good_doc(self, name="one-sided-exact"):
        return plan_to_doc(plan_zoo()[name])

    def expect(self, doc, fragment):
        with pytest.raises(PlanDocumentError) as err:
            doc_to_plan(doc)
        assert fragment in str(err.value)

    def test_bad_json_reports_position(self):
        with pytest.raises(PlanDocumentError) as err:
            parse_doc('{"schema": 1,\n  "kind": }')
        assert "line 2" in str(err.value)
        with pytest.raises(PlanDocumentError):
            parse_doc("[1, 2]")

    def test_field_context_in_messages(self):
        doc = self.good_doc()
        doc["schema"] = 99
        self.expect(doc, "schema")

        doc = self.good_doc()
        doc["kind"] = "triangular"
        self.expect(doc, "kind")

        doc = self.good_doc()
        del doc["zone_hi"]
        self.expect(doc, "zone_hi")

        doc = self.good_doc()
        doc["zeta"] = True
        self.expect(doc, "zeta")

        doc = self.good_doc()
        doc["stages"] = []
        self.expect(doc, "stages")

        doc = self.good_doc()
        doc["stages"][0]["n"] = 0
        self.expect(doc, "stages[0].n")

        doc = self.good_doc()
        doc["stages"][0]["windows"][0] = [0]
        self.expect(doc, "stages[0].windows[0]")

        doc = self.good_doc()
        doc["stages"][1]["f"][0] = "wide"
        self.expect(doc, "stages[1].f")

        doc = self.good_doc()
        doc["model"] = "triangular"
        self.expect(doc, "model")

        doc = self.good_doc()
        doc["family"] = {"tag": "mystery"}
        self.expect(doc, "family")

        doc = self.good_doc()
        doc["sample_cap"] = "many"
        self.expect(doc, "sample_cap")

    @pytest.mark.parametrize("field, value", [
        ("theta0", "low"), ("theta1", None), ("theta1", [0.6]), ("theta0", True),
        ("tiebreak", "bogus"), ("c_policy", "bogus"), ("c_policy", ["support-midpoint"])])
    def test_one_sided_fields_are_typed(self, field, value):
        doc = self.good_doc()
        doc[field] = value
        self.expect(doc, f"(at {field})")

    @pytest.mark.parametrize("tiebreak, c_policy", [
        ("always-reject", "support-midpoint"), ("likelihood-ratio", "always-accept")])
    def test_one_sided_c_policy_is_the_tiebreaks(self, tiebreak, c_policy):
        doc = self.good_doc()
        doc["tiebreak"], doc["c_policy"] = tiebreak, c_policy
        self.expect(doc, "(at c_policy)")

    def test_multi_c_policy_is_a_builder_policy(self):
        doc = self.good_doc("multi-chernoff")
        doc["c_policy"] = "always-accept"
        self.expect(doc, "(at c_policy)")

    def test_one_sided_tiebreak_policies_load(self):
        for tiebreak in ("always-accept", "always-reject"):
            plan = build_one_sided_plan(Bernoulli(), ExactLimits(), 0.4, 0.6, 0.05, 0.05,
                                        0.5, stages=3, tiebreak=tiebreak)
            text = dump_doc(plan_to_doc(plan))
            assert dump_doc(plan_to_doc(doc_to_plan(parse_doc(text)))) == text

    @pytest.mark.parametrize("key", ["f", "g", "windows", "ties"])
    def test_stage_lists_are_lists(self, key):
        doc = self.good_doc()
        doc["stages"][1][key] = 3
        self.expect(doc, f"(at stages[1].{key})")

    @pytest.mark.parametrize("name", ["one-sided-exact", "multi-chernoff", "poisson",
                                      "two-prop"])
    def test_stage_sizes_increase_on_every_arm(self, name):
        keys = ["n_x", "n_y"] if name == "two-prop" else ["n"]
        doc = self.good_doc(name)
        doc["stages"][:2] = doc["stages"][1::-1]
        self.expect(doc, f"strictly increasing positive integers (at stages[1].{keys[0]})")
        for key in keys:
            doc = self.good_doc(name)
            doc["stages"][1][key] = doc["stages"][0][key]
            self.expect(doc, f"(at stages[1].{key})")
            doc["stages"][0][key] = -1
            self.expect(doc, f"(at stages[0].{key})")

    @pytest.mark.parametrize("reshape", ["three windows", "one window"])
    def test_stage_fields_count_the_hypotheses(self, reshape):
        """The kernel, the runner and the simulator read m windows per stage
        of a plan over m hypotheses."""
        path = pathlib.Path(__file__).parent / "data" / "plans" / "exact_0.4_0.6_5stage.json"
        doc = parse_doc(path.read_text(encoding="utf-8"))
        for sd in doc["stages"]:
            if reshape == "three windows":
                for key, extra in (("windows", None), ("ties", None), ("f", "inf"), ("g", "inf")):
                    sd[key].append(extra)
            else:
                sd.update(windows=[[0, sd["n"]]], ties=[], f=["inf"], g=["-inf"])
        self.expect(doc, "a stage of 2 hypotheses needs 2 windows, 1 ties, 2 f and 2 g "
                         "(at stages[0])")

    def test_three_hypothesis_stage_missing_a_tie(self):
        doc = self.good_doc("multi-chernoff")
        doc["stages"][1]["ties"].pop()
        self.expect(doc, "a stage of 3 hypotheses needs 3 windows, 2 ties, 3 f and 3 g "
                         "(at stages[1])")

    @pytest.mark.parametrize("stage", [[5], "5", None])
    def test_a_stage_is_an_object(self, stage):
        doc = self.good_doc()
        doc["stages"][1] = stage
        self.expect(doc, "expected a stage object (at stages[1])")

    def test_a_document_root_is_an_object(self):
        self.expect([self.good_doc()], "document root must be an object")

    @pytest.mark.parametrize("family", ["exact", ["exact"], {"width": 0.3}])
    def test_a_family_is_an_object_with_a_tag(self, family):
        doc = self.good_doc()
        doc["family"] = family
        self.expect(doc, "expected an object with a 'tag' field (at family)")

    def test_two_prop_grid_context(self):
        doc = self.good_doc("two-prop")
        doc["stages"][0]["decision"][0] = "..."
        self.expect(doc, "stages[0].decision")

        doc = self.good_doc("two-prop")
        rows = doc["stages"][0]["decision"]
        rows[1] = "7" + rows[1][1:]
        self.expect(doc, "decision")

        doc = self.good_doc("two-prop")
        doc["stages"][0]["midpoint"][2] = "x" * 5
        self.expect(doc, "midpoint")

    def test_unclosed_final_stage_rejected(self):
        # Dropping a window of the last stage leaves its counts undecided;
        # evaluated anyway, this plan reports 0.206 of leftover mass at
        # theta = 0.5 as truncation slack, though its truncation is zero.
        doc = self.good_doc()
        doc["stages"][-1]["windows"][1] = None
        self.expect(doc, "stages[4].windows")
        self.expect(doc, "continuation")

        doc = self.good_doc("multi-chernoff")
        doc["stages"] = doc["stages"][:1]
        self.expect(doc, "stages[0].windows")

    @pytest.mark.parametrize("name, field, value, ctx", [
        ("one-sided-exact", "base_alphas", [-0.05], "base_alphas, base_betas, zeta"),
        ("one-sided-exact", "zeta", 20.0, "base_alphas, base_betas, zeta"),
        ("one-sided-exact", "zone_lo", [0.7], "zone_lo, zone_hi"),
        ("multi-chernoff", "zone_hi", [0.35, 1.5], "zone_lo, zone_hi"),
        ("poisson", "base_betas", [0.0], "base_alphas, base_betas, zeta"),
        ("two-prop", "zone_lo", [0.5], "zone_lo, zone_hi"),
        ("two-prop", "base_alphas", [-0.05], "base_alphas, base_betas, zeta"),
    ])
    def test_values_outside_the_builders_domain_rejected(self, name, field, value, ctx):
        doc = self.good_doc(name)
        doc[field] = value
        self.expect(doc, f"(at {ctx})")

    def test_one_sided_thetas_are_the_zone_endpoints(self):
        doc = self.good_doc()
        doc["theta1"] = 0.65
        self.expect(doc, "(at theta0, theta1)")

    @pytest.mark.parametrize("family, cap", [(ExactLimits(), 7), (ExactLimits(), 181),
                                             (ExactLimits(), None), (ChernoffLimits(), 7),
                                             (ApproxLimits(0.3), 180)],
                             ids=["exact-7", "exact-181", "exact-null", "chernoff-7",
                                  "approx-180"])
    def test_sample_cap_is_the_bound_of_the_zone_and_levels(self, family, cap):
        plan = build_one_sided_plan(Bernoulli(), family, 0.4, 0.6, 0.05, 0.05, 0.5,
                                    stage_ns=[50, 300])
        doc = plan_to_doc(plan)
        assert doc_to_plan(doc).sample_cap == plan.sample_cap
        doc["sample_cap"] = cap
        self.expect(doc, "(at sample_cap)")

    def test_bernoulli_window_edges_end_at_the_stage_size(self):
        plan = build_one_sided_plan(Bernoulli(), ExactLimits(), 0.4, 0.6, 0.05, 0.05, 0.5,
                                    stage_ns=[50, 150])
        doc = plan_to_doc(plan)
        # a Bernoulli sum never passes the stage size, so no window may end past it
        for edge in (151, 10**7):
            doc["stages"][1]["windows"][1][1] = edge
            self.expect(doc, "(at stages[1].windows)")
        doc["stages"][1]["windows"][1][1] = 150
        assert doc_to_plan(doc).stages == plan.stages

    def test_poisson_window_edges_far_past_the_counts(self):
        """A Poisson sum has no bound, so a far edge loads; the exact kernel
        labels only the counts its states hold, and the edge costs nothing."""
        path = pathlib.Path(__file__).parent / "data" / "plans" / "poisson_1.0_1.5_5stage.json"
        doc = parse_doc(path.read_text(encoding="utf-8"))
        doc["stages"][-1]["windows"] = [[0, 10**7], [10**7 + 1, None]]
        plan = doc_to_plan(doc)
        tracemalloc.start()
        try:
            accept, _, _, _ = oc_single(plan, 1.2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6
        assert accept.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("name, stage, key, pair", [
        ("one-sided-exact", 0, "windows", [False, 0]),
        ("one-sided-exact", 0, "windows", [0, False]),
        ("multi-chernoff", 1, "ties", [True, 53]),
        ("multi-chernoff", 1, "ties", [53, True]),
    ])
    def test_count_pairs_are_not_booleans(self, name, stage, key, pair):
        doc = self.good_doc(name)
        doc["stages"][stage][key][-1] = pair
        self.expect(doc, f"integer pair, got {pair!r} (at stages[{stage}].{key}[")

    @pytest.mark.parametrize("width", [True, "0.3", None])
    def test_approx_family_needs_a_numeric_width(self, width):
        doc = self.good_doc("approx-width")
        doc["family"]["width"] = width
        self.expect(doc, "(at family.width)")
        del doc["family"]["width"]
        self.expect(doc, "missing field 'width' (at family.width)")

    @pytest.mark.parametrize("name", ["one-sided-exact", "multi-chernoff"])
    def test_only_an_approx_family_takes_a_width(self, name):
        doc = self.good_doc(name)
        doc["family"]["width"] = 0.5
        self.expect(doc, "family takes no width (at family.width)")

    def test_window_below_count_zero_is_named_apart_from_an_overlap(self):
        doc = self.good_doc()
        doc["stages"] = [{"n": 5, "f": [0.5, "inf"], "g": ["-inf", 0.5],
                          "windows": [[-3, 0], [5, 5]], "ties": [None]}]
        self.expect(doc, "stage of size 5: decision window starts below count 0 "
                         "(at stages[0].windows)")

    def test_overlapping_windows_rejected(self):
        # Evaluated anyway, these windows give OC [1, 0] at every theta.
        doc = self.good_doc()
        doc["stages"] = [{"n": 5, "f": [0.5, "inf"], "g": ["-inf", 0.5],
                          "windows": [[0, 5], [5, 5]], "ties": [None]}]
        self.expect(doc, "stage of size 5: decision windows overlap (at stages[0].windows)")
        # an unbounded window overlaps every window after it
        doc["stages"][0]["windows"] = [[0, None], [3, 5]]
        self.expect(doc, "overlap")

        doc = self.good_doc()
        doc["stages"][2]["windows"][1] = [9, 3]
        self.expect(doc, "stages[2].windows")

    def test_two_prop_final_stage_must_decide_every_cell(self):
        doc = self.good_doc("two-prop")
        rows = doc["stages"][-1]["decision"]
        rows[0] = "." + rows[0][1:]
        self.expect(doc, "continuation")
        # an earlier stage may continue
        doc = self.good_doc("two-prop")
        rows = doc["stages"][0]["decision"]
        rows[2] = "." + rows[2][1:]
        assert doc_to_plan(doc).stages[0].decision[2, 0] == -1

    def test_unsupported_shapes_refuse_to_serialize(self):
        # decisions are stored as single digits: 11 hypotheses do not fit
        plan = plan_zoo()["two-prop"]
        zone_lo = tuple(-0.95 + 0.19 * i for i in range(10))
        odd = type(plan)(
            zone_lo=zone_lo, zone_hi=tuple(lo + 0.1 for lo in zone_lo),
            base_alphas=(1.0,) * 10, base_betas=(1.0,) * 10,
            zeta=plan.zeta, stages=plan.stages)
        with pytest.raises(PlanDocumentError, match="at most 10 hypotheses, got 11"):
            plan_to_doc(odd)

    @pytest.mark.parametrize("name, build, ctx", [
        ("one-sided-exact", [3], "build"),
        ("one-sided-exact", {"stages": "three"}, "build.stages"),
        ("one-sided-exact", {"stages": 0}, "build.stages"),
        ("one-sided-exact", {"stages": True}, "build.stages"),
        ("one-sided-exact", {"stage_ns": [5, 3]}, "build.stage_ns"),
        ("one-sided-exact", {"stage_ns": "5,10"}, "build.stage_ns"),
        ("one-sided-exact", {"stage_ns": [5, 10.5]}, "build.stage_ns"),
        ("one-sided-exact", {"schedule": "harmonic"}, "build.schedule"),
        ("one-sided-exact", {"fully_sequential": 1}, "build.fully_sequential"),
        ("multi-chernoff", {"fully_sequential": True}, "build.fully_sequential"),
        ("one-sided-exact", {"stage_ns": [5, 10], "fully_sequential": True},
         "build.fully_sequential"),
        ("two-prop", {"stage_ns": []}, "build.stage_ns"),
    ])
    def test_build_block_is_what_the_builders_accept(self, name, build, ctx):
        doc = plan_to_doc(plan_zoo()[name], build=build)
        self.expect(doc, f"(at {ctx})")

    @pytest.mark.parametrize("build", [
        None, {}, {"stage_ns": [5, 10]}, {"stages": 3, "schedule": "arithmetic"},
        {"stages": 1, "schedule": "geometric", "fully_sequential": True}])
    def test_builder_sizings_load(self, build):
        plan = plan_zoo()["one-sided-exact"]
        assert doc_to_plan(plan_to_doc(plan, build=build)).stages == plan.stages

    @pytest.mark.parametrize("link", [5, None, "doubling", ["identity"]])
    def test_two_prop_link_is_the_identity(self, link):
        doc = self.good_doc("two-prop")
        doc["link"] = link
        self.expect(doc, "(at link)")

    def test_every_loaded_two_prop_document_saves(self):
        doc = self.good_doc("two-prop")
        assert dump_doc(plan_to_doc(doc_to_plan(doc))) == dump_doc(doc)
        del doc["link"]
        assert plan_to_doc(doc_to_plan(doc))["link"] == "identity"
