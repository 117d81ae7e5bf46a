"""seqtest benchmark: one command, four workloads, end-to-end and per-layer.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload {design,evaluate,simulate,cli} \
        --seed N --seconds S --trace {0,1}

The program is imported from the checkout's ``src`` directory; no install
is needed.  The run sets the workload up, then runs whole rounds for about
``--seconds`` (at least one), checking the first round's outputs against
the oracles and every later output against the first.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end figures: each operation's
median time over the run, in reference seconds (scaled by a calibration
kernel timed beside it, see ``harness.py``), summed per metric.  With
``--trace 1`` one untraced round is timed first, then the rounds run with
spans around seqtest's public functions, and the metrics are the
per-layer figures (medians over traced rounds, in wall seconds) with
``trace.overhead_s``, the traced round's timed seconds minus the untraced
one's.  See ``README.md`` in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("design", "evaluate", "simulate", "cli")

def import_program():
    """Import seqtest from this checkout, never from anywhere else."""
    # One thread per process: the library workloads are single-threaded and
    # no numerical library may start a pool of its own.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("SEQTEST_THREADS", None)
    if not os.path.isfile(os.path.join(SRC, "seqtest", "__init__.py")):
        sys.exit(f"perfbench: no seqtest sources under {SRC}")
    sys.path.insert(0, SRC)
    import seqtest
    if os.path.dirname(os.path.dirname(os.path.abspath(seqtest.__file__))) != SRC:
        sys.exit(f"perfbench: seqtest was imported from {seqtest.__file__}")


def pin_to_one_cpu():
    """Keep this process and its children on one CPU.

    The virtual CPUs of a shared host need not run at one speed, so a child
    process runs on the CPU where the calibration kernel (see ``harness.py``)
    is timed.  Only one process of the benchmark runs at a time.
    """
    with contextlib.suppress(AttributeError, OSError):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # Let a termination request unwind through the clean-up code.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    pin_to_one_cpu()
    import_program()
    import harness
    result = harness.run(ROOT, args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
