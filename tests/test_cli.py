"""Command-line front end: flows, artifacts, and exit codes, in process."""

import json
import pathlib
import re

import numpy as np
import pytest

from seqtest.cli import _doc_family, main
from seqtest.conflimits import ExactLimits
from seqtest.models import Bernoulli
from seqtest.ocexact import oc_curve
from seqtest.plandoc import dump_doc, load_plan, plan_to_doc, save_plan
from seqtest.plans import build_multihyp_plan
from seqtest.sim import compare as sim_compare
from seqtest.sim import simulate as sim_simulate

GOLDEN = pathlib.Path(__file__).parent / "data" / "plans"


def run(argv):
    """Invoke the CLI in process, normalizing SystemExit into a code."""
    try:
        return main(argv)
    except SystemExit as err:
        return err.code


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Module-shared directory with pre-designed plan documents."""
    td = tmp_path_factory.mktemp("cli")
    assert main(["design", "--model", "bernoulli", "--theta0", "0.4",
                 "--theta1", "0.6", "--alpha", "0.05", "--beta", "0.05",
                 "--stages", "5", "--schedule", "geometric", "--limits",
                 "exact", "--zeta", "0.5", "--out", str(td / "plan.json")]) == 0
    assert main(["design", "--kind", "two-prop", "--zones=-0.3:0.3",
                 "--zeta", "0.5", "--stage-ns", "4,8",
                 "--out", str(td / "twoprop.json")]) == 0
    return td


class TestDesign:
    def test_one_sided_document(self, workdir, capsys):
        path = workdir / "design2.json"
        code = run(["design", "--model", "bernoulli", "--theta0", "0.4",
                    "--theta1", "0.6", "--alpha", "0.05", "--beta", "0.05",
                    "--stages", "5", "--schedule", "geometric",
                    "--limits", "exact", "--zeta", "0.5", "--out", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "stage sizes [5, 10, 22, 46, 95]" in out
        assert "fully sequential bound 180" in out
        doc = json.loads(path.read_text())
        assert [s["n"] for s in doc["stages"]] == [5, 10, 22, 46, 95]
        assert doc["sample_cap"] == 180
        assert doc["build"] == {"schedule": "geometric", "stages": 5}
        plan, _ = load_plan(path)
        assert plan.stage_ns == (5, 10, 22, 46, 95)

    def test_two_prop_document(self, workdir):
        plan, _ = load_plan(workdir / "twoprop.json")
        assert plan.stage_sizes == ((4, 4), (8, 8))

    def test_two_prop_search_writes_the_golden_stages(self, tmp_path, capsys):
        path = tmp_path / "searched.json"
        code = run(["design", "--kind", "two-prop", "--zones=-0.2:0.2", "--zeta", "0.5",
                    "--stages", "3", "--out", str(path)])
        assert code == 0
        assert "stage sizes [(1, 1), (2, 2), (6, 6)]" in capsys.readouterr().out
        golden = json.loads((GOLDEN / "two_prop_0.2_3stage.json").read_text())
        doc = json.loads(path.read_text())
        assert doc["stages"] == golden["stages"]
        assert doc["build"] == {"schedule": "geometric", "stages": 3}

    def test_infeasible_exits_one(self, tmp_path, capsys):
        code = run(["design", "--theta0", "0.4", "--theta1", "0.6",
                    "--alpha", "0.05", "--beta", "0.05", "--zeta", "0.5",
                    "--stage-ns", "5,8", "--out", str(tmp_path / "x.json")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ")

    def test_missing_required_flag_exits_two(self, tmp_path, capsys):
        code = run(["design", "--theta0", "0.4", "--alpha", "0.05",
                    "--beta", "0.05", "--zeta", "0.5",
                    "--out", str(tmp_path / "x.json")])
        capsys.readouterr()
        assert code == 2


class TestOc:
    def test_matches_library_and_reruns_identically(self, workdir, capsys):
        out1 = workdir / "oc1.csv"
        out2 = workdir / "oc2.csv"
        assert run(["oc", "--plan", str(workdir / "plan.json"),
                    "--grid", "0.3:0.7:0.01", "--out", str(out1)]) == 0
        assert run(["oc", "--plan", str(workdir / "plan.json"),
                    "--grid", "0.3:0.7:0.01", "--out", str(out2)]) == 0
        capsys.readouterr()
        text = out1.read_text()
        assert text == out2.read_text()
        lines = text.splitlines()
        assert lines[0] == ("theta,accept_h0,accept_h1,asn,stop_stage_1,"
                            "stop_stage_2,stop_stage_3,stop_stage_4,"
                            "stop_stage_5,truncation_bound")
        assert len(lines) == 42
        plan, _ = load_plan(workdir / "plan.json")
        want = oc_curve(plan, np.round(np.arange(0.3, 0.7001, 0.01), 12))
        assert text == want.to_csv()

    def test_stdout_when_no_out_flag(self, workdir, capsys):
        assert run(["oc", "--plan", str(workdir / "plan.json"),
                    "--grid", "0.5:0.5:0.1"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("theta,") and len(out.splitlines()) == 2

    def test_two_prop_grid(self, workdir, capsys):
        out = workdir / "oc_tp.csv"
        assert run(["oc", "--plan", str(workdir / "twoprop.json"),
                    "--grid-x", "0.3:0.5:0.1", "--grid-y", "0.3:0.5:0.1",
                    "--out", str(out)]) == 0
        capsys.readouterr()
        lines = out.read_text().splitlines()
        assert lines[0] == "p_x,p_y,accept_h0,accept_h1,asn_x,asn_y"
        assert len(lines) == 10

    def test_usage_errors(self, workdir, capsys):
        assert run(["oc", "--plan", str(workdir / "plan.json")]) == 2
        assert run(["oc", "--plan", str(workdir / "twoprop.json"),
                    "--grid", "0.3:0.7:0.1"]) == 2
        assert run(["oc", "--plan", str(workdir / "plan.json"),
                    "--grid", "0.7:0.3:0.1"]) == 2
        capsys.readouterr()


class TestTune:
    def test_updates_document_with_trace(self, workdir, capsys):
        # tune on a copy so the shared document stays untouched
        path = workdir / "tunable.json"
        path.write_text((workdir / "plan.json").read_text())
        code = run(["tune", "--plan", str(path), "--tol", "1e-3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "tuned zeta 0.4292578125" in out
        assert "17 evaluations" in out
        doc = json.loads(path.read_text())
        trace = doc["provenance"]["tuning"]
        assert trace["zeta"] == 0.4292578125
        assert trace["bracket"] == [0.4292578125, 0.42956268310546875]
        assert trace["iterations"] == 17
        assert trace["deltas"] == [0.05, 0.05]
        assert [s["n"] for s in doc["stages"]] == [5, 11, 22, 48, 101]
        plan, _ = load_plan(path)
        assert plan.zeta == 0.4292578125

    def test_infeasible_layout_exits_one(self, tmp_path, capsys):
        path = tmp_path / "fixed.json"
        assert run(["design", "--theta0", "0.3", "--theta1", "0.7",
                    "--alpha", "0.1", "--beta", "0.1", "--zeta", "0.5",
                    "--stage-ns", "17", "--out", str(path)]) == 0
        code = run(["tune", "--plan", str(path), "--deltas", "0.01,0.01"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ")
        assert "cannot meet the requirement" in err


    def test_sizes_without_a_build_block_come_from_the_plan(self, tmp_path, capsys):
        path = tmp_path / "golden.json"
        path.write_text((GOLDEN / "two_prop_0.2_3stage.json").read_text())
        assert json.loads(path.read_text())["build"] is None
        assert run(["tune", "--plan", str(path), "--deltas", "0.4,0.4", "--tol", "0.05"]) == 0
        capsys.readouterr()
        doc = json.loads(path.read_text())
        assert [(s["n_x"], s["n_y"]) for s in doc["stages"]] == [(1, 1), (2, 2), (6, 6)]
        assert doc["build"] == {"stage_ns": [1, 2, 6]}

    def test_unequal_arms_without_a_build_block_exit_one(self, workdir, tmp_path, capsys):
        """The builder makes equal arms only, so tune would write another design."""
        doc = json.loads((workdir / "twoprop.json").read_text())
        doc["build"] = None
        last = doc["stages"][-1]
        last["n_y"] += 1
        last["decision"] = [row + row[-1] for row in last["decision"]]
        last["midpoint"] = [row + "." for row in last["midpoint"]]
        path = tmp_path / "unequal.json"
        path.write_text(json.dumps(doc))
        assert load_plan(path)[0].stage_sizes == ((4, 4), (8, 9))
        before = path.read_text()
        code = run(["tune", "--plan", str(path), "--deltas", "0.3,0.3", "--tol", "0.05"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "(8, 9)" in err and "(at stages[1].n_y)" in err
        assert path.read_text() == before


class TestCertify:
    def test_proved_set_exits_zero(self, workdir, capsys):
        code = run(["certify", "--plan", str(workdir / "twoprop.json"),
                    "--deltas", "0.15,0.35"])
        out = capsys.readouterr().out
        assert code == 0
        assert "hypothesis 0: proved" in out
        assert "hypothesis 1: proved" in out

    def test_lines_name_the_bounds_path(self, workdir, capsys):
        # the README plan's decision regions are monotone: corner bounds
        assert run(["certify", "--plan", str(workdir / "twoprop.json"),
                    "--deltas", "0.15,0.35"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        for i, line in enumerate(lines):
            assert line.startswith(f"hypothesis {i}: proved (")
            assert line.endswith(" rectangles, corner bounds)")

    def test_non_monotone_plan_takes_the_radius_path(self, capsys):
        # the golden three-hypothesis plan is non-monotone at both boundaries
        path = GOLDEN / "two_prop_three_hypotheses_3stage.json"
        for deltas, verdict, code in [("0.7,0.6,0.7", "proved", 0),
                                      ("0.5,0.5,0.5", "disproved", 1)]:
            assert run(["certify", "--plan", str(path), "--deltas", deltas]) == code
            lines = capsys.readouterr().out.splitlines()
            assert len(lines) == 3
            for i, line in enumerate(lines):
                assert line.startswith(f"hypothesis {i}: {verdict} (")
                assert line.endswith(" rectangles, radius bounds)")

    def test_proved_lines_report_an_upper_bound_within_budget(self, workdir, capsys):
        assert run(["certify", "--plan", str(workdir / "twoprop.json"),
                    "--deltas", "0.15,0.35"]) == 0
        out = capsys.readouterr().out
        proved = re.findall(r"proved \(risk budget ([^,]+), max upper bound ([^,]+),", out)
        assert len(proved) == 2
        for budget, upper in proved:
            assert float(upper) <= float(budget)

    def test_disproof_exits_one(self, workdir, capsys):
        code = run(["certify", "--plan", str(workdir / "twoprop.json"),
                    "--deltas", "0.05,0.35"])
        out = capsys.readouterr().out
        assert code == 1
        assert "hypothesis 0: disproved" in out

    def test_wrong_document_kind_exits_two(self, workdir, capsys):
        assert run(["certify", "--plan", str(workdir / "plan.json"),
                    "--deltas", "0.1,0.1"]) == 2
        capsys.readouterr()


class TestSimulate:
    def test_seed_required(self, workdir, capsys):
        assert run(["simulate", "--plan", str(workdir / "plan.json"),
                    "--theta", "0.5"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [
        ["simulate", "--plan", "twoprop.json", "--theta-x", "0.5", "--theta-y", "0.5",
         "--trials", "10", "--seed", "-1"],
        ["simulate", "--plan", "plan.json", "--theta", "0.5", "--trials", "10", "--seed", "-1"],
        ["simulate", "--plan", "plan.json", "--theta", "0.5", "--trials", "0", "--seed", "1"],
        ["compare", "--plan", "plan.json", "--grid", "0.4:0.6:0.1", "--trials", "10",
         "--seed", "-2"],
    ], ids=["two-prop seed", "seed", "trials", "compare seed"])
    def test_bad_seed_or_trials_exits_one(self, argv, workdir, capsys):
        argv = [str(workdir / a) if a.endswith(".json") else a for a in argv]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "must be a" in err

    def test_csv_matches_library(self, workdir, capsys):
        out = workdir / "sim.csv"
        code = run(["simulate", "--plan", str(workdir / "plan.json"),
                    "--theta", "0.55", "--trials", "500", "--seed", "9",
                    "--out", str(out)])
        stdout = capsys.readouterr().out
        assert code == 0
        assert "500 trials" in stdout
        lines = out.read_text().splitlines()
        assert lines[0] == ("runner,theta,trials,seed,accept_h0,accept_h1,"
                            "se_h0,se_h1,asn,asn_se,stop_p50,stop_p90,"
                            "stop_p99,max_samples,forced_rate")
        fields = lines[1].split(",")
        plan, _ = load_plan(workdir / "plan.json")
        rep = sim_simulate(plan, 0.55, 500, 9)
        assert fields[0] == "plan"
        assert float(fields[4]) == rep.accept_freq[0]
        assert float(fields[8]) == rep.asn
        assert int(fields[13]) == rep.max_samples

    def test_csv_is_the_compare_csv_of_one_runner(self, workdir, capsys):
        out = workdir / "sim_one.csv"
        assert run(["simulate", "--plan", str(workdir / "plan.json"),
                    "--theta", "0.45", "--trials", "200", "--seed", "4",
                    "--out", str(out)]) == 0
        capsys.readouterr()
        plan, _ = load_plan(workdir / "plan.json")
        report = sim_compare([plan], [0.45], 200, 4, names=["plan"])
        assert out.read_text() == report.to_csv()

    def test_two_prop_runs(self, workdir, capsys):
        out = workdir / "sim_tp.csv"
        code = run(["simulate", "--plan", str(workdir / "twoprop.json"),
                    "--theta-x", "0.6", "--theta-y", "0.4",
                    "--trials", "400", "--seed", "9", "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("runner,p_x,p_y,trials,seed,accept_h0")
        assert lines[1].startswith("two-prop,0.6,0.4,400,9,")
        # two-prop documents need both arm parameters
        assert run(["simulate", "--plan", str(workdir / "twoprop.json"),
                    "--theta", "0.5", "--trials", "10", "--seed", "1"]) == 2
        capsys.readouterr()
        # an arm parameter outside [0, 1] is a clean failure
        assert run(["simulate", "--plan", str(workdir / "twoprop.json"),
                    "--theta-x", "1.5", "--theta-y", "0.4",
                    "--trials", "10", "--seed", "1"]) == 1
        assert "p_x must lie in [0, 1]" in capsys.readouterr().err


class TestCompare:
    def test_plan_versus_sprt(self, workdir, capsys):
        out = workdir / "cmp.csv"
        code = run(["compare", "--plan", str(workdir / "plan.json"),
                    "--grid", "0.4:0.6:0.1", "--trials", "300", "--seed", "21",
                    "--sprt", "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 7
        names = [ln.split(",")[0] for ln in lines[1:]]
        assert names == ["plan", "sprt"] * 3
        plan_rows = [ln.split(",") for ln in lines[1:] if ln.startswith("plan,")]
        sprt_rows = [ln.split(",") for ln in lines[1:] if ln.startswith("sprt,")]
        # the plan is capped at its final stage; the uncapped walk is not
        assert all(int(r[13]) <= 95 for r in plan_rows)
        drift_free = next(r for r in sprt_rows if r[1] == "0.5")
        assert int(drift_free[13]) > 95

    @pytest.mark.parametrize("risk", ["0.6", "0.5"])
    def test_sprt_with_risks_summing_to_one_exits_one(self, tmp_path, capsys, risk):
        path = tmp_path / "plan.json"
        assert run(["design", "--theta0", "0.4", "--theta1", "0.6",
                    "--alpha", risk, "--beta", risk, "--stages", "2",
                    "--limits", "exact", "--zeta", "0.5", "--out", str(path)]) == 0
        capsys.readouterr()
        assert run(["compare", "--plan", str(path), "--grid", "0.4:0.6:0.1",
                    "--trials", "10", "--seed", "1", "--sprt"]) == 1
        assert "risk levels must sum below 1" in capsys.readouterr().err

    def test_usage_errors(self, workdir, capsys):
        assert run(["compare", "--plan", str(workdir / "twoprop.json"),
                    "--grid", "0.4:0.6:0.1", "--seed", "1"]) == 2
        assert run(["compare", "--plan", str(workdir / "plan.json"),
                    "--grid", "0.4:0.6:0.1"]) == 2
        capsys.readouterr()


def swap_first_stages(doc):
    doc["stages"][:2] = doc["stages"][1::-1]


def repeat_first_size(doc):
    doc["stages"][1]["n"] = doc["stages"][0]["n"]


def null_final_window(doc):
    doc["stages"][-1]["windows"][0] = None


# Each breaks one rule of a plan document, and the field the loader names.
# Every command must refuse it at loading, with one error line.
MALFORMED = {
    "swapped stages": (swap_first_stages, "stages[1].n"),
    "repeated stage size": (repeat_first_size, "stages[1].n"),
    "text theta0": (lambda doc: doc.update(theta0="low"), "theta0"),
    "number for f": (lambda doc: doc["stages"][0].update(f=3), "stages[0].f"),
    "unknown tiebreak": (lambda doc: doc.update(tiebreak="bogus"), "tiebreak"),
    "unknown c policy": (lambda doc: doc.update(c_policy="bogus"), "c_policy"),
    "null final window": (null_final_window, "stages[4].windows"),
    "negative base alpha": (lambda doc: doc.update(base_alphas=[-0.05]),
                            "base_alphas, base_betas, zeta"),
    "zone out of order": (lambda doc: doc.update(zone_lo=[0.7], theta0=0.7),
                          "zone_lo, zone_hi"),
    "theta0 off the zone": (lambda doc: doc.update(theta0=0.45), "theta0, theta1"),
    "window edge past the stage size": (
        lambda doc: doc["stages"][4]["windows"][1].__setitem__(1, 10**7), "stages[4].windows"),
    # a build block that re-tuning could not rebuild from
    "build not an object": (lambda doc: doc.update(build=[3]), "build"),
    "text stage count": (lambda doc: doc["build"].update(stages="three"), "build.stages"),
    "decreasing build sizes": (lambda doc: doc["build"].update(stage_ns=[5, 3]),
                               "build.stage_ns"),
}


class TestBadDocuments:
    @pytest.fixture(params=sorted(MALFORMED))
    def bad_plan(self, request, workdir, tmp_path):
        doc = json.loads((workdir / "plan.json").read_text())
        mutate, field = MALFORMED[request.param]
        mutate(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        return path, field

    @pytest.mark.parametrize("argv", [
        ["oc", "--grid", "0.3:0.7:0.1"],
        ["simulate", "--theta", "0.5", "--trials", "10", "--seed", "1"],
        ["tune", "--tol", "1e-3"],
    ], ids=["oc", "simulate", "tune"])
    def test_exits_one_with_one_error_line(self, bad_plan, argv, capsys):
        path, field = bad_plan
        before = path.read_text()
        code = run([*argv, "--plan", str(path)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"(at {field})" in err
        assert path.read_text() == before

    def test_swapped_two_prop_stages_exit_one(self, workdir, tmp_path, capsys):
        doc = json.loads((workdir / "twoprop.json").read_text())
        swap_first_stages(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code = run(["oc", "--plan", str(path), "--grid=-0.2:0.2:0.1"])
        err = capsys.readouterr().err
        assert code == 1
        assert err == ("error: stage sizes must be strictly increasing positive "
                       "integers (at stages[1].n_x)\n")


class TestDesignSizing:
    @pytest.mark.parametrize("argv", [
        ["--stages", "0"],
        ["--kind", "multi", "--zones", "0.3:0.4,0.6:0.7", "--fully-sequential"],
        ["--kind", "two-prop", "--zones=-0.3:0.3", "--fully-sequential"],
    ], ids=["no stages", "fully sequential multi", "fully sequential two-prop"])
    def test_sizing_a_document_could_not_keep_is_a_usage_error(self, argv, tmp_path, capsys):
        path = tmp_path / "plan.json"
        code = run(["design", "--theta0", "0.4", "--theta1", "0.6", "--alpha", "0.05",
                    "--beta", "0.05", "--zeta", "0.5", *argv, "--out", str(path)])
        assert code == 2
        assert not path.exists()
        capsys.readouterr()


ONE_SIDED = ["--theta0", "0.4", "--theta1", "0.6", "--alpha", "0.05", "--beta", "0.05",
             "--zeta", "0.5"]
TIED = ["--theta0", "0.4", "--theta1", "0.6", "--alpha", "0.1", "--beta", "0.05",
        "--zeta", "0.5", "--stage-ns", "120,150"]
MULTI = ["--kind", "multi", "--zones", "0.1:0.45,0.55:0.9", "--alphas", "0.1,0.1",
         "--betas", "0.1,0.1", "--zeta", "0.2755"]
TWO_PROP = ["--kind", "two-prop", "--zones=-0.3:0.3", "--zeta", "0.5", "--stage-ns", "4,8"]


class TestDesignTuneRoundTrip:
    """``seqtest tune`` rebuilds a document's plan family from its fields and
    ``build`` block; at the document's own zeta that family must give back
    the document ``seqtest design`` wrote, byte for byte."""

    @staticmethod
    def rebuilt(path):
        plan, doc = load_plan(path)
        return dump_doc(plan_to_doc(_doc_family(plan, doc["build"])(plan.zeta),
                                    build=doc["build"]))

    @pytest.mark.parametrize("argv", [
        [*ONE_SIDED, "--stages", "5"],
        [*ONE_SIDED, "--stages", "4", "--schedule", "arithmetic"],
        [*ONE_SIDED, "--stage-ns", "20,60,120"],
        [*ONE_SIDED, "--fully-sequential"],
        [*TIED, "--tiebreak", "likelihood-ratio"],
        [*TIED, "--tiebreak", "always-accept"],
        [*TIED, "--tiebreak", "always-reject"],
        ["--model", "poisson", "--limits", "chernoff", "--theta0", "1.0", "--theta1", "1.5",
         "--alpha", "0.05", "--beta", "0.05", "--zeta", "0.5", "--fully-sequential",
         "--tiebreak", "always-accept"],
        ["--limits", "approx", "--approx-width", "0.3", *ONE_SIDED, "--stage-ns", "10,30,200"],
        [*MULTI, "--stages", "3"],
        [*MULTI, "--stage-ns", "6,13,28"],
        ["--kind", "two-prop", "--zones=-0.3:0.3", "--zeta", "0.5", "--stage-ns", "4,8"],
        ["--kind", "two-prop", "--zones=-0.2:0.2", "--zeta", "0.5", "--stages", "3"],
    ], ids=["stages", "arithmetic schedule", "stage_ns", "fully sequential",
            "tiebreak likelihood-ratio", "tiebreak always-accept", "tiebreak always-reject",
            "poisson chernoff", "approx", "multi stages", "multi stage_ns",
            "two-prop stage_ns", "two-prop stages"])
    def test_design_document_is_its_family_at_its_zeta(self, argv, tmp_path, capsys):
        path = tmp_path / "plan.json"
        assert run(["design", *argv, "--out", str(path)]) == 0
        capsys.readouterr()
        assert path.read_text() == self.rebuilt(path)

    def test_zone_midpoint_c_policy(self, tmp_path):
        # ``seqtest design`` has no c-policy option: the library writes this one
        path = tmp_path / "plan.json"
        build = {"stages": 3, "schedule": "geometric"}
        save_plan(build_multihyp_plan(Bernoulli(), ExactLimits(), [0.1, 0.55], [0.45, 0.9],
                                      0.2755, [0.1, 0.1], [0.1, 0.1], stages=3,
                                      c_policy="zone-midpoint"), path, build=build)
        assert '"c_policy": "zone-midpoint"' in path.read_text()
        assert path.read_text() == self.rebuilt(path)

    def test_false_fully_sequential_tunes_a_multi_document(self, tmp_path, capsys):
        path = tmp_path / "multi.json"
        assert run(["design", *MULTI, "--stages", "3", "--out", str(path)]) == 0
        doc = json.loads(path.read_text())
        doc["build"]["fully_sequential"] = False
        flagged = tmp_path / "flagged.json"
        flagged.write_text(json.dumps(doc))
        for src in (path, flagged):
            assert run(["tune", "--plan", str(src), "--deltas", "0.1,0.1,0.1"]) == 0
        plain, tuned = json.loads(path.read_text()), json.loads(flagged.read_text())
        assert tuned["stages"] == plain["stages"]
        assert tuned["provenance"] == plain["provenance"]
        capsys.readouterr()


class TestUsageRefusals:
    """Each usage error exits 2 and names what is wrong, and leaves the
    document as it was."""

    @pytest.fixture(scope="class")
    def multi_doc(self, workdir):
        path = workdir / "multi.json"
        assert main(["design", *MULTI, "--out", str(path)]) == 0
        return path

    @pytest.mark.parametrize("argv, message", [
        (["design", "--kind", "multi", "--zeta", "0.5", "--out", "new.json"],
         "design --kind multi requires --zones"),
        (["design", "--kind", "multi", "--zones", "0.1-0.45", "--zeta", "0.5",
          "--out", "new.json"], "zones must look like lo:hi[,lo:hi...], got '0.1-0.45'"),
        (["design", "--kind", "multi", "--zones", "0.1:0.45,0.55:0.9", "--alphas", "0.1,low",
          "--zeta", "0.5", "--out", "new.json"],
         "--alphas must be a comma-separated list of numbers, got '0.1,low'"),
        (["oc", "--plan", "plan.json", "--grid", "0.3:0.7"],
         "--grid must look like start:stop:step, got '0.3:0.7'"),
        (["tune", "--plan", "multi.json"],
         "tune on a multi-hypothesis document requires --deltas"),
        (["tune", "--plan", "multi.json", "--deltas", "0.1,0.1"], "need 3 risk budgets, got 2"),
        (["certify", "--plan", "twoprop.json", "--deltas", "0.1,0.1,0.1"],
         "need 2 risk budgets, got 3"),
        (["simulate", "--plan", "plan.json", "--seed", "1"],
         "simulate requires --theta for one-sample documents"),
        (["compare", "--plan", "multi.json", "--grid", "0.3:0.7:0.1", "--seed", "1", "--sprt"],
         "--sprt requires a one-sided document"),
        # options the command would otherwise ignore
        (["compare", "--plan", "plan.json", "--grid", "0.3:0.7:0.1", "--trials", "10",
          "--seed", "1", "--sprt-cap", "10"], "--sprt-cap requires --sprt"),
        (["simulate", "--plan", "plan.json", "--theta", "0.5", "--theta-x", "0.5",
          "--trials", "10", "--seed", "1"], "--theta-x applies to two-prop documents"),
        (["simulate", "--plan", "plan.json", "--theta", "0.5", "--theta-y", "0.5",
          "--trials", "10", "--seed", "1"], "--theta-y applies to two-prop documents"),
        (["simulate", "--plan", "twoprop.json", "--theta-x", "0.5", "--theta-y", "0.5",
          "--theta", "0.5", "--trials", "10", "--seed", "1"],
         "--theta applies to one-sample documents"),
        (["oc", "--plan", "plan.json", "--grid", "0.3:0.7:0.1", "--grid-x", "0.1:0.9:0.2"],
         "--grid-x applies to two-prop documents"),
        (["oc", "--plan", "plan.json", "--grid", "0.3:0.7:0.1", "--grid-y", "0.1:0.9:0.2"],
         "--grid-y applies to two-prop documents"),
        (["oc", "--plan", "twoprop.json", "--grid-x", "0.1:0.9:0.2", "--grid-y", "0.1:0.9:0.2",
          "--grid", "0.3:0.7:0.1"], "--grid applies to one-sample documents"),
        (["design", *ONE_SIDED, "--zones", "0.1:0.2", "--out", "new.json"],
         "--zones applies to multi and two-prop designs"),
        (["design", *ONE_SIDED, "--alphas", "0.1", "--out", "new.json"],
         "--alphas applies to multi and two-prop designs"),
        (["design", *ONE_SIDED, "--betas", "0.1", "--out", "new.json"],
         "--betas applies to multi and two-prop designs"),
        (["design", *MULTI, "--theta0", "0.4", "--out", "new.json"],
         "--theta0 applies to one-sided designs"),
        (["design", *MULTI, "--theta1", "0.6", "--out", "new.json"],
         "--theta1 applies to one-sided designs"),
        (["design", *TWO_PROP, "--alpha", "0.05", "--out", "new.json"],
         "--alpha applies to one-sided designs"),
        (["design", *TWO_PROP, "--beta", "0.05", "--out", "new.json"],
         "--beta applies to one-sided designs"),
        (["design", *ONE_SIDED, "--stage-ns", "5,10", "--fully-sequential", "--out", "new.json"],
         "--fully-sequential picks its own stage sizes; drop --stage-ns"),
        (["design", *TWO_PROP, "--model", "poisson", "--out", "new.json"],
         "--model applies to one-sample designs"),
        (["design", *TWO_PROP, "--limits", "chernoff", "--out", "new.json"],
         "--limits applies to one-sample designs"),
        (["design", *TWO_PROP, "--approx-width", "0.9", "--out", "new.json"],
         "--approx-width applies to one-sample designs"),
        (["design", *TWO_PROP, "--model", "poisson", "--limits", "chernoff", "--out",
          "new.json"], "--model applies to one-sample designs"),
        (["design", *TWO_PROP, "--tiebreak", "always-accept", "--out", "new.json"],
         "--tiebreak applies to one-sided designs"),
        (["design", *MULTI, "--tiebreak", "always-accept", "--out", "new.json"],
         "--tiebreak applies to one-sided designs"),
        (["design", *ONE_SIDED, "--approx-width", "0.9", "--out", "new.json"],
         "--approx-width applies to --limits approx"),
        (["design", *ONE_SIDED, "--limits", "chernoff", "--approx-width", "0.9", "--out",
          "new.json"], "--approx-width applies to --limits approx"),
        (["design", *ONE_SIDED, "--stage-ns", "10,95", "--stages", "5", "--out", "new.json"],
         "--stages does not apply with --stage-ns"),
        (["design", *ONE_SIDED, "--stage-ns", "10,95", "--schedule", "arithmetic", "--out",
          "new.json"], "--schedule does not apply with --stage-ns"),
        (["design", *ONE_SIDED, "--stage-ns", "10,95", "--stages", "5", "--schedule",
          "arithmetic", "--approx-width", "0.9", "--out", "new.json"],
         "--stages does not apply with --stage-ns"),
        (["design", *ONE_SIDED, "--fully-sequential", "--stages", "5", "--out", "new.json"],
         "--stages does not apply with --fully-sequential"),
        (["design", *ONE_SIDED, "--fully-sequential", "--schedule", "arithmetic", "--out",
          "new.json"], "--schedule does not apply with --fully-sequential"),
    ], ids=["multi without zones", "zones", "alphas", "grid", "tune multi without deltas",
            "tune budgets", "certify budgets", "simulate without theta", "compare sprt multi",
            "compare sprt cap without sprt", "simulate theta-x one-sample",
            "simulate theta-y one-sample", "simulate theta two-prop", "oc grid-x one-sample",
            "oc grid-y one-sample", "oc grid two-prop", "design one-sided zones",
            "design one-sided alphas", "design one-sided betas", "design multi theta0",
            "design multi theta1", "design two-prop alpha", "design two-prop beta",
            "design stage sizes fully sequential", "design two-prop model",
            "design two-prop limits", "design two-prop approx width",
            "design two-prop model and limits", "design two-prop tiebreak",
            "design multi tiebreak", "design approx width exact limits",
            "design approx width chernoff limits", "design stage sizes stages",
            "design stage sizes schedule", "design stage sizes stages schedule approx width",
            "design fully sequential stages", "design fully sequential schedule"])
    def test_exits_two_naming_the_fault(self, argv, message, workdir, multi_doc, capsys):
        argv = [str(workdir / a) if a.endswith(".json") else a for a in argv]
        docs = {p: p.read_text() for p in map(pathlib.Path, argv) if p.suffix == ".json"
                and p.exists()}
        assert run(argv) == 2
        assert message in capsys.readouterr().err
        assert {p: p.read_text() for p in docs} == docs
        assert not (workdir / "new.json").exists()


def test_design_help_names_the_defaults(capsys):
    with pytest.raises(SystemExit):
        main(["design", "--help"])
    out = " ".join(capsys.readouterr().out.split())
    for default in ("bernoulli", "exact", "0.5", "likelihood-ratio", "1", "geometric"):
        assert f"(default: {default})" in out


class TestErrorSurface:
    def test_malformed_document(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": 1,\n')
        code = run(["oc", "--plan", str(bad), "--grid", "0.3:0.7:0.1"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ")
        assert "line 2" in err

    def test_missing_file(self, tmp_path, capsys):
        code = run(["oc", "--plan", str(tmp_path / "nope.json"),
                    "--grid", "0.3:0.7:0.1"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ")

    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == 2
        capsys.readouterr()

    def test_version_banner(self, capsys):
        from seqtest import __version__
        assert run(["--version"]) == 0
        assert __version__ in capsys.readouterr().out
