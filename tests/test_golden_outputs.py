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

A change that means to move outputs rewrites the records and names each
value that moved:

    PYTHONPATH=src python tests/test_golden_outputs.py

rewrites the plan records and the SPRT one alike.
"""

import json
import pathlib

import numpy as np
import pytest

from seqtest.ocexact import oc_curve, verify_risk
from seqtest.models import Bernoulli, Poisson
from seqtest.plandoc import load_plan
from seqtest.sim import simulate, simulate_two_prop
from seqtest.sprt import SprtSpec
from seqtest.twoprop import TwoPropPlan, certify_risk, exact_oc

PLANS = pathlib.Path(__file__).parent / "data" / "plans"
DATA = pathlib.Path(__file__).parent / "data" / "outputs"
SPRT_DATA = pathlib.Path(__file__).parent / "data" / "sprt_outputs.json"
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


if __name__ == "__main__":
    DATA.mkdir(parents=True, exist_ok=True)
    for name in NAMES:
        (DATA / f"{name}.json").write_text(_text(_record(name)), encoding="utf-8",
                                           newline="\n")
        print(DATA / f"{name}.json")
    SPRT_DATA.write_text(_text(_sprt_records()), encoding="utf-8", newline="\n")
    print(SPRT_DATA)
