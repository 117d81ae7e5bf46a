"""Import cost: the package loads on numpy and scipy.special alone.

``scipy.stats`` and ``scipy.signal`` each cost about a second to import on
top of numpy and ``scipy.special``, ``scipy.optimize`` about a third of one
and ``scipy.linalg`` less; every ``seqtest`` command pays the package's
import time, so none may be loaded at import.  ``scipy.optimize`` (which
loads ``scipy.linalg``) is loaded by the one function that needs it, on
first call.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import seqtest

# The directory this test session imports seqtest from, so the child
# process sees the same package.
PKG_ROOT = str(Path(seqtest.__file__).resolve().parents[1])

HEAVY = ("scipy.stats", "scipy.optimize", "scipy.linalg", "scipy.signal")


def loaded_after(code):
    """Run ``code`` in a fresh interpreter; return which HEAVY modules it loaded."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (PKG_ROOT, env.get("PYTHONPATH")) if p)
    probe = code + "\nimport sys\nprint(' '.join(m for m in %r if m in sys.modules))" % (HEAVY,)
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    return set(out.split())


@pytest.mark.parametrize("module", ["seqtest", "seqtest.cli"])
def test_import_leaves_heavy_scipy_unloaded(module):
    assert loaded_after(f"import {module}") == set()


def test_sprt_approximation_loads_optimize_on_first_call():
    code = ("from seqtest import Bernoulli, SprtSpec, sprt_oc_asn\n"
            "sprt_oc_asn(SprtSpec(Bernoulli(), 0.4, 0.6, 0.05, 0.05), 0.45)")
    assert loaded_after(code) == {"scipy.optimize", "scipy.linalg"}
