"""The benchmark's tracer finds every function it wraps.

``perfbench/spans.py`` looks each traced name up in its owner's own
``__dict__``, so deleting, renaming or moving one of those functions breaks
``perfbench/run.py --trace 1``; this test makes that a test failure.
"""

import importlib.util
from pathlib import Path

from seqtest.models import Bernoulli

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_records_and_uninstalls():
    spans = load_spans()
    tracer = spans.Tracer()
    try:
        tracer.install()
        tracer.active = True
        Bernoulli().increment_pmf(5, 0.3)
        tracer.active = False
        assert [span[:2] for span in tracer.spans] == [["models", "increment_pmf"]]
    finally:
        tracer.uninstall()
    for owner, names, _, _ in spans._TARGETS:
        for name in names:
            assert not hasattr(owner.__dict__[name], "__wrapped__"), name
