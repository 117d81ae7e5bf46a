"""Command-line front end: flows, artifacts, and exit codes, in process."""

import json

import numpy as np
import pytest

from seqtest.cli import main
from seqtest.ocexact import oc_curve
from seqtest.plandoc import load_plan
from seqtest.sim import compare as sim_compare
from seqtest.sim import simulate as sim_simulate


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
        assert "sample cap 180" in out
        doc = json.loads(path.read_text())
        assert [s["n"] for s in doc["stages"]] == [5, 10, 22, 46, 95]
        assert doc["sample_cap"] == 180
        assert doc["build"] == {"schedule": "geometric", "stages": 5}
        plan, _ = load_plan(path)
        assert plan.stage_ns == (5, 10, 22, 46, 95)

    def test_two_prop_document(self, workdir):
        plan, _ = load_plan(workdir / "twoprop.json")
        assert plan.stage_sizes == ((4, 4), (8, 8))

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


class TestCertify:
    def test_proved_set_exits_zero(self, workdir, capsys):
        code = run(["certify", "--plan", str(workdir / "twoprop.json"),
                    "--deltas", "0.15,0.35"])
        out = capsys.readouterr().out
        assert code == 0
        assert "hypothesis 0: proved" in out
        assert "hypothesis 1: proved" in out

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

    def test_usage_errors(self, workdir, capsys):
        assert run(["compare", "--plan", str(workdir / "twoprop.json"),
                    "--grid", "0.4:0.6:0.1", "--seed", "1"]) == 2
        assert run(["compare", "--plan", str(workdir / "plan.json"),
                    "--grid", "0.4:0.6:0.1"]) == 2
        capsys.readouterr()


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
