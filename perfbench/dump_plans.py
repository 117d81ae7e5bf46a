"""Write the canonical document of every plan the workloads build.

    python3 perfbench/dump_plans.py --out DIR

Each plan is built anew, exactly as the workloads build it, and written
to ``DIR/<name>.json`` with ``seqtest.plandoc.dump_doc``.  Run it on two
commits and diff the directories to see, byte for byte, which plans a
change to the builders altered.  It checks nothing.
"""

from __future__ import annotations

import argparse
import os

import run


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    run.import_program()
    import seqtest
    import workloads as wl

    # The seed moves evaluation points and simulation seeds, never a plan.
    ctx = wl.common_setup(0, None)
    for setup in wl.SETUPS.values():
        setup(ctx)
    plans = {"probe_0.4_0.6": ctx.probe_plan, "probe_0.45_0.55": ctx.probe_large,
             "two_prop_readme": ctx.readme_two_prop, "evaluate_fully_sequential": ctx.fs,
             "evaluate_poisson": ctx.pois, "evaluate_3hyp": ctx.three,
             "evaluate_two_prop_tuned": ctx.tuned_two_prop}
    plans.update({f"evaluate_{a}_{b}": p for (a, b), p in ctx.large.items()})
    plans.update({f"simulate_tuned_{k}": p for k, p in ctx.tuned.items()})
    probes = wl.probe_ops(ctx)
    for op in wl.design_ops(ctx, timed=False) + probes["design_s"] + probes["tune_s"]:
        if op.metric in ("design_s", "tune_s"):
            result = op.fn()
            plans[op.name] = getattr(result, "plan", result)
    os.makedirs(args.out, exist_ok=True)
    for name, plan in sorted(plans.items()):
        with open(os.path.join(args.out, f"{name}.json"), "w", encoding="utf-8",
                  newline="\n") as fh:
            fh.write(seqtest.dump_doc(seqtest.plan_to_doc(plan)))
    print(f"{len(plans)} plan documents -> {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
