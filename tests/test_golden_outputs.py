"""Golden exact outputs: what the evaluators compute from each golden plan.

Each golden document under ``tests/data/plans/`` has a record under
``tests/data/outputs/`` of the same name, written by an earlier version of
the evaluators.  Floats are stored as ``float.hex`` strings.

- One-sample plans: ``oc_curve`` on a fixed grid that holds the zone
  endpoints (acceptance, ASN, stopping distribution, truncation bound) and
  ``verify_risk``'s zone verdicts at fixed budgets.
- Two-sample plans: ``exact_oc`` at fixed points and ``certify_risk``'s
  verdict, ``budget_used``, ``explored``, ``max_upper`` and path at the
  risk budgets ``tests/test_twoprop.py`` certifies.
- One seeded ``SimReport`` per plan kind.

Seeded SPRT ``SimReport``s are recorded apart, in
``tests/data/sprt_outputs.json``, since an SPRT has no plan document: one
record per spec in ``SPRT_SIMULATIONS``.  Among them are a capped walk
that forces some calls and a drift-free one whose longest walk passes
2**16 draws.

One-sample values and every ``SimReport`` are compared bit for bit: they
come from elementwise numpy and sums taken in a fixed order.  Two-sample
exact values are compared within ``TWO_SAMPLE_ULPS`` units in the last
place, because ``twoprop._convolve`` propagates a two-sample state through
BLAS ``matmul``, whose summation order may differ between CPUs and BLAS
builds.  Verdicts and search sizes of the certificates are compared
exactly.

The benchmark's plans are pinned too.  ``tests/data/bench_plans/`` holds
the documents that ``perfbench/dump_plans.py`` writes, and the test runs
the script once and compares its output with them byte for byte.
``tests/data/bench_outputs.json`` records the 85 ``seqtest`` outputs
written from those documents (``_bench_record`` gives the commands): each
plan's exact OC CSV, a certificate record with its exit status for each
two-sample plan, a seeded ``simulate`` CSV per plan, and a seeded
``compare --sprt`` CSV per one-sided plan.  They are written in one
process through ``seqtest.cli.main``, and every file that differs is
named.  The record keeps a sha256 digest of each file, except the
two-sample OC CSVs and certificate records: it keeps their text, and
their exact values (every column after ``p_x,p_y``, and each ``max upper
bound``) are compared within ``TWO_SAMPLE_ULPS``, the rest of the text
byte for byte.

A change that means to move outputs rewrites the records and names each
file or directory it wrote:

    PYTHONPATH=src python tests/test_golden_outputs.py

rewrites the plan records, the SPRT one, the benchmark's plan documents
and their output record alike.
"""

import contextlib
import hashlib
import io
import json
import pathlib
import re
import subprocess
import sys
import tempfile

import numpy as np
import pytest

from seqtest.cli import main
from seqtest.ocexact import oc_curve, verify_risk
from seqtest.models import Bernoulli, Poisson
from seqtest.plandoc import load_plan
from seqtest.sim import simulate, simulate_two_prop
from seqtest.sprt import SprtSpec
from seqtest.twoprop import TwoPropPlan, certify_risk, exact_oc

PLANS = pathlib.Path(__file__).parent / "data" / "plans"
DATA = pathlib.Path(__file__).parent / "data" / "outputs"
SPRT_DATA = pathlib.Path(__file__).parent / "data" / "sprt_outputs.json"
BENCH_PLANS = pathlib.Path(__file__).parent / "data" / "bench_plans"
BENCH_DATA = pathlib.Path(__file__).parent / "data" / "bench_outputs.json"
DUMP_PLANS = pathlib.Path(__file__).parents[1] / "perfbench" / "dump_plans.py"
NAMES = sorted(p.stem for p in PLANS.glob("*.json"))
TWO_SAMPLE_ULPS = 64

# one seeded simulation per plan kind: plan, parameter point, trials, seed
SIMULATIONS = {
    "exact_0.4_0.6_5stage": ((0.5,), 400, 11),
    "three_hypotheses_3stage": ((0.5,), 400, 12),
    "two_prop_0.2_3stage": ((0.6, 0.5), 400, 13),
}
# seeded SPRT simulations: spec, means, trials, seed
SPRT_SIMULATIONS = {
    "bernoulli_0.4_0.6": (SprtSpec(Bernoulli(), 0.4, 0.6, 0.05, 0.05), (0.4, 0.5, 0.6), 400, 3),
    # forces 4 of 400 calls at the cap
    "bernoulli_0.45_0.55_cap700": (SprtSpec(Bernoulli(), 0.45, 0.55, 0.01, 0.2, cap=700),
                                   (0.5,), 400, 7),
    "poisson_1.0_1.5_cap150": (SprtSpec(Poisson(), 1.0, 1.5, 0.05, 0.05, cap=150),
                               (1.0, 1.25, 1.5), 400, 5),
    # the longest walk takes 119,386 draws
    "bernoulli_0.495_0.505": (SprtSpec(Bernoulli(), 0.495, 0.505, 0.05, 0.05), (0.5,), 400, 1),
}
# risk budgets per hypothesis at which each two-sample plan is certified
CERTIFY_DELTAS = {
    "two_prop_0.2_3stage": ((0.25, 0.35), (0.6, 0.7)),
    "two_prop_0.1_zeta0.2_3stage": ((0.15, 0.25), (0.22, 0.35)),
    "two_prop_three_hypotheses_3stage": ((0.5, 0.7), (0.5, 0.6), (0.7,)),
}
TWO_SAMPLE_POINTS = [(px, py) for px in (0.0, 0.1, 0.3, 0.5, 0.7, 1.0)
                     for py in (0.0, 0.2, 0.5, 0.6, 0.9)]


def _hex(values):
    return [float(v).hex() for v in np.ravel(values)]


def _grid(plan):
    top = 5.0 if plan.model.name == "poisson" else 0.95
    step = 0.25 if plan.model.name == "poisson" else 0.05
    base = np.round(step * np.arange(1, round(top / step) + 1), 12)
    return sorted({*base.tolist(), *plan.zone_lo, *plan.zone_hi})


def _sim_record(rep):
    return {"theta": _hex([rep.theta]), "trials": rep.trials, "seed": rep.seed,
            "accept_freq": _hex(rep.accept_freq), "accept_se": _hex(rep.accept_se),
            "asn": _hex([rep.asn, rep.asn_se]),
            "stop_percentiles": _hex([rep.stop_percentiles[q] for q in (50, 90, 99)]),
            "max_samples": rep.max_samples, "forced_rate": _hex([rep.forced_rate])}


def _one_sample(plan):
    oc = oc_curve(plan, _grid(plan))
    rep = verify_risk(plan, [0.05] * plan.m)
    return {
        "oc": {"thetas": _hex(oc.thetas), "accept": _hex(oc.accept), "asn": _hex(oc.asn),
               "stage_stop": _hex(oc.stage_stop),
               "truncation_bound": _hex(oc.truncation_bound)},
        "verify": {"satisfied": rep.satisfied, "truncation_bound": _hex([rep.truncation_bound]),
                   "zones": [{"bound": _hex([z.bound]),
                              "endpoint_rejection": _hex(z.endpoint_rejection),
                              "satisfied": z.satisfied} for z in rep.zones]},
    }


def _two_sample(name, plan):
    points = []
    for px, py in TWO_SAMPLE_POINTS:
        accept, asn_x, asn_y = exact_oc(plan, px, py)
        points.append(_hex([*accept, asn_x, asn_y]))
    certs = []
    for hyp, deltas in enumerate(CERTIFY_DELTAS[name]):
        for delta in deltas:
            cert = certify_risk(plan, hyp, delta)
            certs.append({"hyp": hyp, "delta": _hex([delta]), "verdict": cert.verdict,
                          "budget_used": cert.budget_used, "explored": cert.explored,
                          "max_upper": _hex([cert.max_upper]), "bounds": cert.bounds})
    return {"exact_oc": points, "certify": certs}


def _record(name):
    plan, _ = load_plan(PLANS / f"{name}.json")
    if isinstance(plan, TwoPropPlan):
        out = _two_sample(name, plan)
    else:
        out = _one_sample(plan)
    if name in SIMULATIONS:
        point, trials, seed = SIMULATIONS[name]
        rep = (simulate_two_prop(plan, *point, trials, seed) if isinstance(plan, TwoPropPlan)
               else simulate(plan, *point, trials, seed))
        out["sim"] = _sim_record(rep)
    return out


def _sprt_records():
    return {name: [_sim_record(simulate(spec, theta, trials, seed)) for theta in thetas]
            for name, (spec, thetas, trials, seed) in SPRT_SIMULATIONS.items()}


def _text(record):
    return json.dumps(record, indent=1, sort_keys=True) + "\n"


def _floats(hexes):
    return np.array([float.fromhex(h) for h in hexes])


def _dump_bench_plans(out):
    """Run the benchmark's plan dump script, writing its documents under ``out``."""
    subprocess.run([sys.executable, str(DUMP_PLANS), "--out", str(out)], check=True,
                   capture_output=True)


def _bench_record(docs, out):
    """The record of each output file written from the benchmark plan documents
    ``docs`` (paths) under ``out``, by name: ``{"sha256": digest}``, or
    ``{"within_ulps": text}`` for a file that holds two-sample exact values.

    One-sample plans are evaluated at 41 points spanning their zones and
    simulated at the midpoint of their outer zone ends.  Two-sample plans are
    evaluated on a 5 x 5 grid of the two arms' means, simulated at p_x 0.5,
    p_y 0.4 and certified at risk budget 0.2 per hypothesis.  Each one-sided
    plan is also compared with the SPRT at its design risks.
    """
    for sub in ("oc", "sim"):
        (out / sub).mkdir(parents=True, exist_ok=True)
    record = {}
    for doc in docs:
        fields = json.loads(doc.read_text(encoding="utf-8"))
        name, plan, two = doc.stem, str(doc), fields["kind"] == "two-prop"
        lo, hi = fields["zone_lo"][0], fields["zone_hi"][-1]
        runs = {f"oc/{name}.csv": ["oc", "--plan", plan, *(
                    ["--grid-x", "0.1:0.9:0.2", "--grid-y", "0.1:0.9:0.2"] if two
                    else ["--grid", f"{lo}:{hi}:{(hi - lo) / 40}"])],
                f"sim/{name}.csv": ["simulate", "--plan", plan, *(
                    ["--theta-x", "0.5", "--theta-y", "0.4"] if two
                    else ["--theta", f"{(lo + hi) / 2}"]), "--trials", "2000", "--seed", "3"]}
        if fields["kind"] == "one-sided":
            runs[f"sim/{name}.compare.csv"] = ["compare", "--plan", plan, "--grid", "0.3:0.7:0.1",
                                               "--trials", "500", "--seed", "3", "--sprt"]
        texts = {}
        for file, argv in runs.items():
            argv = [*argv, "--out", str(out / file)]
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0, argv
            texts[file] = (out / file).read_bytes()
        if two:
            deltas = ",".join(["0.2"] * (len(fields["zone_lo"]) + 1))
            # certify exits 1 when a certificate is not proved: keep the status
            with contextlib.redirect_stdout(io.StringIO()) as printed:
                status = main(["certify", "--plan", plan, "--deltas", deltas, "--budget", "2000"])
            texts[f"cert/{name}.txt"] = f"{printed.getvalue()}exit status {status}\n".encode()
        for file, data in texts.items():
            record[file] = ({"within_ulps": data.decode()} if two and not file.startswith("sim/")
                            else {"sha256": hashlib.sha256(data).hexdigest()})
    return record


_MAX_UPPER = re.compile(r"(?<=max upper bound )[^,]+")


def _exact_values(file, text):
    """A two-sample output's text with its exact values cut out, and those
    values: each ``max upper bound`` of a certificate record, or every column
    after ``p_x,p_y`` of an OC CSV."""
    if file.startswith("cert/"):
        return _MAX_UPPER.sub("", text), _MAX_UPPER.findall(text)
    head, *rows = (line.split(",") for line in text.split("\n"))
    return ([head, *(row[:2] + [None] * (len(row) - 2) for row in rows)],
            [v for row in rows for v in row[2:]])


def _matches(file, got, want):
    if want is None or got.keys() != want.keys() or "sha256" in got:
        return got == want
    (rest, values), (want_rest, want_values) = (_exact_values(file, r["within_ulps"])
                                                for r in (got, want))
    if rest != want_rest or len(values) != len(want_values):
        return False
    try:
        np.testing.assert_array_max_ulp(np.array(values, dtype=float),
                                        np.array(want_values, dtype=float),
                                        maxulp=TWO_SAMPLE_ULPS)
    except AssertionError:
        return False
    return True


def _bench_differences(fresh, stored):
    """The name of each file in ``fresh`` that ``stored`` lacks or records otherwise."""
    return sorted(file for file, got in fresh.items() if not _matches(file, got, stored.get(file)))


def _stored_bench_record():
    return json.loads(BENCH_DATA.read_text(encoding="utf-8"))


def test_every_golden_plan_has_a_record():
    assert sorted(p.stem for p in DATA.glob("*.json")) == NAMES
    kinds = {json.loads((PLANS / f"{n}.json").read_text())["kind"] for n in SIMULATIONS}
    assert kinds == {"one-sided", "multi", "two-prop"}


@pytest.mark.parametrize("name", NAMES)
def test_outputs_match_their_record(name):
    stored = json.loads((DATA / f"{name}.json").read_text(encoding="utf-8"))
    fresh = _record(name)
    if "exact_oc" not in stored:
        assert fresh == stored
        return
    assert fresh.get("sim") == stored.get("sim")
    assert len(fresh["exact_oc"]) == len(stored["exact_oc"])
    for got, want in zip(fresh["exact_oc"], stored["exact_oc"]):
        np.testing.assert_array_max_ulp(_floats(got), _floats(want), maxulp=TWO_SAMPLE_ULPS)
    assert len(fresh["certify"]) == len(stored["certify"])
    for got, want in zip(fresh["certify"], stored["certify"]):
        np.testing.assert_array_max_ulp(_floats(got.pop("max_upper")),
                                        _floats(want.pop("max_upper")),
                                        maxulp=TWO_SAMPLE_ULPS)
        assert got == want


def test_sprt_outputs_match_their_record():
    assert _sprt_records() == json.loads(SPRT_DATA.read_text(encoding="utf-8"))


def test_benchmark_plans_match_their_dump(tmp_path):
    _dump_bench_plans(tmp_path)
    dumped = {p.name: p.read_bytes() for p in tmp_path.glob("*.json")}
    stored = {p.name: p.read_bytes() for p in BENCH_PLANS.glob("*.json")}
    assert sorted(dumped) == sorted(stored)
    assert [name for name in sorted(stored) if dumped[name] != stored[name]] == []


@pytest.mark.slow
def test_benchmark_outputs_match_their_record(tmp_path):
    fresh = _bench_record(sorted(BENCH_PLANS.glob("*.json")), tmp_path)
    stored = _stored_bench_record()
    assert sorted(fresh) == sorted(stored)
    assert _bench_differences(fresh, stored) == []


def test_an_edited_window_names_that_plans_files(tmp_path):
    doc = json.loads((BENCH_PLANS / "design_0.4_0.6.json").read_text(encoding="utf-8"))
    # accept H0 at 3 of the first 10 samples as well as at 0..2
    assert doc["stages"][1]["n"] == 10 and doc["stages"][1]["windows"][0] == [0, 2]
    doc["stages"][1]["windows"][0] = [0, 3]
    (tmp_path / "design_0.4_0.6.json").write_text(json.dumps(doc), encoding="utf-8")
    (tmp_path / "probe_0.4_0.6.json").write_bytes((BENCH_PLANS / "probe_0.4_0.6.json").read_bytes())
    fresh = _bench_record(sorted(tmp_path.glob("*.json")), tmp_path)
    assert _bench_differences(fresh, _stored_bench_record()) == [
        "oc/design_0.4_0.6.csv", "sim/design_0.4_0.6.compare.csv", "sim/design_0.4_0.6.csv"]


def test_a_changed_digest_names_that_file(tmp_path):
    stored = _stored_bench_record()
    stored["oc/probe_0.4_0.6.csv"] = {"sha256": "0" * 64}
    fresh = _bench_record([BENCH_PLANS / "probe_0.4_0.6.json"], tmp_path)
    assert _bench_differences(fresh, stored) == ["oc/probe_0.4_0.6.csv"]


@pytest.mark.parametrize("ulps, named", [(TWO_SAMPLE_ULPS, []),
                                         (TWO_SAMPLE_ULPS + 1, ["cert/two_prop_readme.txt"])])
def test_two_sample_exact_values_move_within_ulps(ulps, named, tmp_path):
    stored = _stored_bench_record()
    text = stored["cert/two_prop_readme.txt"]["within_ulps"]
    moved = float(_MAX_UPPER.search(text).group())
    for _ in range(ulps):
        moved = np.nextafter(moved, np.inf)
    stored["cert/two_prop_readme.txt"]["within_ulps"] = _MAX_UPPER.sub(repr(float(moved)), text,
                                                                        count=1)
    fresh = _bench_record([BENCH_PLANS / "two_prop_readme.json"], tmp_path)
    assert _bench_differences(fresh, stored) == named


if __name__ == "__main__":
    DATA.mkdir(parents=True, exist_ok=True)
    for name in NAMES:
        (DATA / f"{name}.json").write_text(_text(_record(name)), encoding="utf-8",
                                           newline="\n")
        print(DATA / f"{name}.json")
    SPRT_DATA.write_text(_text(_sprt_records()), encoding="utf-8", newline="\n")
    print(SPRT_DATA)
    BENCH_PLANS.mkdir(parents=True, exist_ok=True)
    for stale in BENCH_PLANS.glob("*.json"):
        stale.unlink()
    _dump_bench_plans(BENCH_PLANS)
    print(BENCH_PLANS)
    with tempfile.TemporaryDirectory() as tmp:
        record = _bench_record(sorted(BENCH_PLANS.glob("*.json")), pathlib.Path(tmp))
    BENCH_DATA.write_text(_text(record), encoding="utf-8", newline="\n")
    print(BENCH_DATA)
