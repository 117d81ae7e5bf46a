"""Golden confidence limits: every family must keep its scalar limits bit for bit.

``tests/data/limits.json`` holds ``lower_detail`` and ``upper_detail`` (the
value as a ``float.hex`` string and the ``at_boundary`` flag) of the exact,
Chernoff and approximate families under both models, written by an earlier
version of ``conflimits``.  The grid covers several sample sizes, sum counts
with both empty-set ends (no successes and all successes), means that fall
between support atoms, and risk levels from 1e-12 to 0.5.  The comparison
is exact: the other limit tests allow 2e-12, so they miss a change of
bisection bracket or rounding side that these records catch.

A change that means to move limits rewrites the record and names each
family that moved:

    PYTHONPATH=src python tests/test_golden_limits.py
"""

import json
import pathlib

import pytest

from seqtest.conflimits import ApproxLimits, ChernoffLimits, ExactLimits
from seqtest.models import Bernoulli, Poisson

DATA = pathlib.Path(__file__).parent / "data" / "limits.json"
FAMILIES = {"exact": ExactLimits(), "chernoff": ChernoffLimits(),
            "approx_w0.5": ApproxLimits(0.5)}
MODELS = {"bernoulli": Bernoulli(), "poisson": Poisson()}
SIZES = (1, 2, 5, 17, 60, 400)
DELTAS = (1e-12, 1e-6, 1e-3, 0.05, 0.3, 0.5)


def _means(model, n):
    """Support atoms k / n, both ends included, and means between atoms."""
    top = n if model.name == "bernoulli" else 4 * n + 3
    counts = sorted({0, 1, n // 3, n // 2, n - 1, n, top - 1, top})
    atoms = [k / n for k in counts]
    between = [(k + 0.37) / n for k in counts if k < top]
    return sorted({*atoms, *between})


def _cases(family, model):
    for n in SIZES:
        for z in _means(model, n):
            for delta in DELTAS:
                lo = family.lower_detail(model, n, z, delta)
                up = family.upper_detail(model, n, z, delta)
                yield [n, z.hex(), delta.hex(), lo.value.hex(), lo.at_boundary,
                       up.value.hex(), up.at_boundary]


KEYS = [f"{tag}/{name}" for tag in FAMILIES for name in MODELS]


def _fresh(key):
    tag, name = key.split("/")
    return list(_cases(FAMILIES[tag], MODELS[name]))


def _text():
    """One case per line: n, mean, delta, lower, lower at boundary, upper,
    upper at boundary."""
    blocks = []
    for key in KEYS:
        rows = ",\n".join("  " + json.dumps(row) for row in _fresh(key))
        blocks.append(f" {json.dumps(key)}: [\n{rows}\n ]")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


@pytest.fixture(scope="module")
def stored():
    return json.loads(DATA.read_text(encoding="utf-8"))


def test_record_covers_every_family_and_model(stored):
    assert sorted(stored) == sorted(KEYS)
    flags = {(row[4], row[6]) for key in KEYS if key.startswith("exact") for row in stored[key]}
    assert flags == {(False, False), (True, False), (False, True)}


@pytest.mark.parametrize("key", KEYS)
def test_limits_match_their_record(stored, key):
    assert _fresh(key) == stored[key]


if __name__ == "__main__":
    DATA.write_text(_text(), encoding="utf-8", newline="\n")
    print(DATA)
