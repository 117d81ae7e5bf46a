"""Tuned outputs: the tuner must keep every zeta, bracket and plan bit for bit.

``tests/data/tuned_outputs.json`` holds, per tuning, the returned zeta and
bracket as ``float.hex`` strings, the number of probes spent and the tuned
plan's stage sizes, as an earlier version of the tuner found them.  The
cases are the benchmark's tunings: the six timed ``design`` ones (three of
which the ``simulate`` set-up runs too), the 0.48/0.52 ladder tuning, and
the README's ``seqtest tune`` on its designed plan.  A change that means to
move a tuning rewrites the file and names each case that moved:

    PYTHONPATH=src python tests/test_tuned_outputs.py
"""

import json
import os
import pathlib
import tempfile

import pytest

from seqtest.cli import main
from seqtest.conflimits import ChernoffLimits, ExactLimits
from seqtest.models import Bernoulli, Poisson
from seqtest.plandoc import load_plan
from seqtest.tuning import tune_multihyp, tune_one_sided

DATA = pathlib.Path(__file__).parent / "data" / "tuned_outputs.json"
BERN, POIS, EXACT = Bernoulli(), Poisson(), ExactLimits()


def _one_sided(model, family, theta0, theta1, **kw):
    return lambda: tune_one_sided(model, family, theta0, theta1, 0.05, 0.05, **kw)


def _summary(zeta, bracket, iterations, stage_ns):
    return {"zeta": zeta.hex(), "bracket": [b.hex() for b in bracket],
            "iterations": iterations, "stage_ns": list(stage_ns)}


def _result(tune):
    def run():
        res = tune()
        return _summary(res.zeta, res.bracket, res.iterations, res.plan.stage_ns)
    return run


def _readme_cli_tune():
    """``seqtest design`` then ``seqtest tune`` as the README runs them."""
    with tempfile.TemporaryDirectory() as tmp:
        plan_path, tuned_path = os.path.join(tmp, "plan.json"), os.path.join(tmp, "tuned.json")
        assert main(["design", "--model", "bernoulli", "--limits", "exact",
                     "--theta0", "0.4", "--theta1", "0.6", "--alpha", "0.05",
                     "--beta", "0.05", "--zeta", "0.5", "--stages", "5",
                     "--out", plan_path]) == 0
        assert main(["tune", "--plan", plan_path, "--deltas", "0.05,0.05",
                     "--out", tuned_path]) == 0
        plan, doc = load_plan(tuned_path)
    trace = doc["provenance"]["tuning"]
    return _summary(trace["zeta"], trace["bracket"], trace["iterations"], plan.stage_ns)


CASES = {
    # the design workload's tunings; the simulate set-up tunes the first
    # two and the Poisson one with the same arguments
    "exact_0.4_0.6_5stage": _result(_one_sided(BERN, EXACT, 0.4, 0.6, stages=5)),
    "exact_0.45_0.55_5stage": _result(_one_sided(BERN, EXACT, 0.45, 0.55, stages=5)),
    "chernoff_0.4_0.6_5stage": _result(_one_sided(BERN, ChernoffLimits(), 0.4, 0.6,
                                                  stages=5)),
    "exact_0.4_0.6_fully_sequential": _result(_one_sided(BERN, EXACT, 0.4, 0.6,
                                                         fully_sequential=True)),
    "poisson_1.0_1.5_5stage": _result(_one_sided(POIS, EXACT, 1.0, 1.5, stages=5)),
    "three_hypotheses_3stage": _result(
        lambda: tune_multihyp(BERN, EXACT, [0.1, 0.55], [0.45, 0.9], [0.1] * 3,
                              base_alphas=[0.1, 0.1], base_betas=[0.1, 0.1], stages=3)),
    # the ladder's 0.48/0.52 tuning
    "exact_0.48_0.52_5stage": _result(_one_sided(BERN, EXACT, 0.48, 0.52, stages=5)),
    "readme_cli_tune": _readme_cli_tune,
}


@pytest.fixture(scope="module")
def stored():
    return json.loads(DATA.read_text(encoding="utf-8"))


def test_every_case_is_stored(stored):
    assert sorted(stored) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_tuning_matches_its_record(name, stored):
    assert CASES[name]() == stored[name]


if __name__ == "__main__":
    lines = [f"  {json.dumps(name)}: {json.dumps(CASES[name]())}" for name in sorted(CASES)]
    DATA.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8", newline="\n")
    print(DATA)
