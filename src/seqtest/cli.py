"""Command-line front end.

Subcommands: ``design`` builds a plan and writes its document; ``oc``
evaluates exact operating characteristics onto CSV; ``tune`` re-runs the
risk-scale bisection and updates the document; ``certify`` produces
branch-and-bound risk certificates for two-sample plans; ``simulate``
and ``compare`` run seeded Monte Carlo studies.

Exit codes: 0 on success, 1 when a design is infeasible, a certificate
fails, or a document is invalid, 2 on command-line usage errors.  CSV
output is comma-separated with a header row and LF line endings, and is
byte-identical across runs for the same inputs.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import __version__
from .conflimits import family_by_tag
from .errors import SeqTestError
from .models import model_by_name
from .plans import _SCHEDULES, _TIEBREAKS, TIEBREAK_LIKELIHOOD_RATIO
from .ocexact import _csv_text, oc_curve
from .plandoc import load_plan, plan_to_doc, dump_doc
from .sim import compare as sim_compare
from .sim import reports_csv, simulate_two_prop
from .sim import simulate as sim_simulate
from .sprt import SprtSpec
from .tuning import _plan_family, tune_zeta
from .twoprop import TwoPropPlan, certify_risk, exact_oc, tune_two_prop

_FMT = repr  # shortest round-trip decimals in reports


def _parse_grid(text: str, what: str):
    parts = text.split(":")
    try:
        if len(parts) != 3:
            raise ValueError
        a, b, step = (float(x) for x in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{what} must look like start:stop:step, got {text!r}") from None
    if step <= 0 or b < a:
        raise argparse.ArgumentTypeError(f"bad {what} range {text!r}")
    count = int(np.floor((b - a) / step + 1e-9)) + 1
    return np.round(a + step * np.arange(count), 12)


def _parse_list(text: str, what: str, cast=float):
    try:
        return tuple(cast(x) for x in text.split(","))
    except ValueError:
        noun = "numbers" if cast is float else "integers"
        raise argparse.ArgumentTypeError(
            f"{what} must be a comma-separated list of {noun}, got {text!r}") from None


def _parse_zones(text: str):
    los, his = [], []
    for part in text.split(","):
        ends = part.split(":")
        try:
            if len(ends) != 2:
                raise ValueError
            lo, hi = float(ends[0]), float(ends[1])
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"zones must look like lo:hi[,lo:hi...], got {text!r}") from None
        los.append(lo)
        his.append(hi)
    return tuple(los), tuple(his)


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _family_from_args(args):
    width = args.approx_width if args.limits == "approx" else None
    return family_by_tag(args.limits, width)


def _sizing_from_args(args) -> dict:
    if args.stage_ns is not None:
        return {"stage_ns": list(args.stage_ns)}
    sizing = {"stages": args.stages, "schedule": args.schedule}
    if args.fully_sequential:
        sizing["fully_sequential"] = True
    return sizing


def _cmd_design(args, parser) -> int:
    if args.stages < 1:
        parser.error("--stages must be a positive integer")
    if args.fully_sequential and args.kind != "one-sided":
        parser.error("--fully-sequential applies to one-sided designs")
    if args.kind == "one-sided":
        for flag in ("theta0", "theta1", "alpha", "beta"):
            if getattr(args, flag) is None:
                parser.error(f"design --kind one-sided requires --{flag}")
        spec = (args.theta0,), (args.theta1,), (args.alpha,), (args.beta,)
        kwargs = {"tiebreak": args.tiebreak}
    elif args.zones is None:
        parser.error(f"design --kind {args.kind} requires --zones")
    else:
        spec, kwargs = (*args.zones, args.alphas, args.betas), {}
    model, family = ((None, None) if args.kind == "two-prop"
                     else (model_by_name(args.model), _family_from_args(args)))
    build = _sizing_from_args(args)
    plan = _plan_family(args.kind, *spec, model, family, **kwargs, **build)(args.zeta)
    _write_text(args.out, dump_doc(plan_to_doc(plan, build=build)))
    sizes = plan.stage_sizes if isinstance(plan, TwoPropPlan) else plan.stage_ns
    cap = getattr(plan, "sample_cap", None)
    extra = f", sample cap {cap}" if cap else ""
    print(f"{args.kind} plan, stage sizes {list(sizes)}{extra} -> {args.out}")
    return 0


def _two_prop_oc_csv(plan: TwoPropPlan, grid_x, grid_y) -> str:
    head = ["p_x", "p_y", *(f"accept_h{i}" for i in range(plan.m)), "asn_x", "asn_y"]
    rows = []
    for px in grid_x:
        for py in grid_y:
            acc, ax, ay = exact_oc(plan, float(px), float(py))
            rows.append([px, py, *acc, ax, ay])
    return _csv_text(head, rows)


def _cmd_oc(args, parser) -> int:
    plan, _ = load_plan(args.plan)
    if isinstance(plan, TwoPropPlan):
        if args.grid_x is None or args.grid_y is None:
            parser.error("oc on a two-prop document requires --grid-x and --grid-y")
        text = _two_prop_oc_csv(plan, args.grid_x, args.grid_y)
    else:
        if args.grid is None:
            parser.error("oc requires --grid for one-sample documents")
        text = oc_curve(plan, args.grid).to_csv()
    _write_text(args.out, text)
    if args.out:
        print(f"operating characteristics -> {args.out}")
    return 0


def _doc_family(plan, build: dict):
    """z -> the loaded ``plan`` rebuilt at scale z from its ``build`` sizing block."""
    # a false fully_sequential is every builder's default; only the one-sided one takes it
    kwargs = {k: v for k, v in build.items()
              if k in ("stage_ns", "stages", "schedule", "fully_sequential") and v is not False}
    if plan.kind == "one-sided":
        kwargs["tiebreak"] = plan.tiebreak
    elif plan.kind == "multi":
        kwargs["c_policy"] = plan.c_policy
    return _plan_family(plan.kind, plan.zone_lo, plan.zone_hi, plan.base_alphas,
                        plan.base_betas, getattr(plan, "model", None),
                        getattr(plan, "family", None), **kwargs)


def _cmd_tune(args, parser) -> int:
    plan, doc = load_plan(args.plan)
    build = doc.get("build") or {"stage_ns": [st["n_x"] if "n_x" in st else st["n"]
                                              for st in doc["stages"]]}
    deltas = args.deltas
    if deltas is None:
        if plan.kind != "one-sided":
            what = "multi-hypothesis" if plan.kind == "multi" else plan.kind
            parser.error(f"tune on a {what} document requires --deltas")
        deltas = (plan.alpha, plan.beta)
    if len(deltas) != plan.m:
        parser.error(f"need {plan.m} risk budgets, got {len(deltas)}")
    fam = _doc_family(plan, build)
    zeta_max = args.zeta_max or 1.0 / max(*plan.base_alphas, *plan.base_betas)
    if isinstance(plan, TwoPropPlan):
        res = tune_two_prop(fam, deltas, tol=args.tol, zeta_max=zeta_max,
                            certify_tol=args.certify_tol, budget=args.budget)
    else:
        res = tune_zeta(fam, deltas, tol=args.tol, zeta_max=zeta_max)
    trace = {"zeta": res.zeta, "bracket": list(res.bracket),
             "iterations": res.iterations, "tol": args.tol,
             "deltas": list(deltas)}
    out = args.out or args.plan
    _write_text(out, dump_doc(plan_to_doc(res.plan, build=build, tuning=trace)))
    print(f"tuned zeta {_FMT(res.zeta)} (bracket {_FMT(res.bracket[0])}.."
          f"{_FMT(res.bracket[1])}, {res.iterations} evaluations) -> {out}")
    return 0


def _cmd_certify(args, parser) -> int:
    plan, _ = load_plan(args.plan)
    if not isinstance(plan, TwoPropPlan):
        parser.error("certify applies to two-prop documents")
    if len(args.deltas) != plan.m:
        parser.error(f"need {plan.m} risk budgets, got {len(args.deltas)}")
    all_proved = True
    for i, delta in enumerate(args.deltas):
        cert = certify_risk(plan, i, delta, tol=args.tol, budget=args.budget)
        print(f"hypothesis {i}: {cert.verdict} (risk budget {_FMT(delta)}, "
              f"max upper bound {_FMT(cert.max_upper)}, "
              f"{cert.explored} rectangles, {cert.bounds} bounds)")
        all_proved = all_proved and cert.proved
    return 0 if all_proved else 1


def _cmd_simulate(args, parser) -> int:
    plan, _ = load_plan(args.plan)
    if isinstance(plan, TwoPropPlan):
        if args.theta_x is None or args.theta_y is None:
            parser.error("simulate on a two-prop document requires "
                         "--theta-x and --theta-y")
        rep = simulate_two_prop(plan, args.theta_x, args.theta_y,
                                args.trials, args.seed)
        text = reports_csv([("two-prop", (args.theta_x, args.theta_y), rep)],
                           ("p_x", "p_y"))
    else:
        if args.theta is None:
            parser.error("simulate requires --theta for one-sample documents")
        rep = sim_simulate(plan, args.theta, args.trials, args.seed)
        text = reports_csv([("plan", (args.theta,), rep)])
    _write_text(args.out, text)
    freq = ", ".join(f"h{i}={f:.4f}" for i, f in enumerate(rep.accept_freq))
    print(f"{args.trials} trials: accept {freq}; mean samples {rep.asn:.2f}; "
          f"max {rep.max_samples}")
    return 0


def _cmd_compare(args, parser) -> int:
    plan, _ = load_plan(args.plan)
    if isinstance(plan, TwoPropPlan):
        parser.error("compare runs on one-sample documents")
    runners = [plan]
    names = ["plan"]
    if args.sprt:
        if plan.kind != "one-sided":
            parser.error("--sprt requires a one-sided document")
        runners.append(SprtSpec(model=plan.model, theta0=plan.theta0,
                                theta1=plan.theta1, alpha=plan.alpha,
                                beta=plan.beta, cap=args.sprt_cap))
        names.append("sprt")
    report = sim_compare(runners, args.grid, args.trials, args.seed, names=names)
    _write_text(args.out, report.to_csv())
    if args.out:
        print(f"comparison over {len(args.grid)} parameter points, "
              f"{args.trials} trials each -> {args.out}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqtest",
        description="Design, evaluate, tune, certify, and simulate "
                    "confidence-limit-driven sequential tests.",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    d = sub.add_parser("design", help="build a plan and write its document")
    d.add_argument("--kind", choices=["one-sided", "multi", "two-prop"],
                   default="one-sided")
    d.add_argument("--model", choices=["bernoulli", "poisson"], default="bernoulli")
    d.add_argument("--limits", choices=["exact", "chernoff", "approx"],
                   default="exact")
    d.add_argument("--approx-width", type=float, default=0.5,
                   help="blend weight for the approx limit family")
    d.add_argument("--theta0", type=float)
    d.add_argument("--theta1", type=float)
    d.add_argument("--alpha", type=float)
    d.add_argument("--beta", type=float)
    d.add_argument("--zones", type=_parse_zones,
                   help="indifference zones as lo:hi[,lo:hi...]")
    d.add_argument("--alphas", type=lambda s: _parse_list(s, "--alphas"),
                   help="base risk coefficients per zone boundary")
    d.add_argument("--betas", type=lambda s: _parse_list(s, "--betas"))
    d.add_argument("--zeta", type=float, required=True)
    d.add_argument("--stages", type=int, default=1)
    d.add_argument("--schedule", choices=_SCHEDULES,
                   default="geometric")
    d.add_argument("--stage-ns", type=lambda s: _parse_list(s, "--stage-ns", int),
                   help="explicit stage sizes, overriding --stages/--schedule")
    d.add_argument("--fully-sequential", action="store_true")
    d.add_argument("--tiebreak", default=TIEBREAK_LIKELIHOOD_RATIO, choices=_TIEBREAKS)
    d.add_argument("--out", required=True)
    d.set_defaults(fn=_cmd_design)

    o = sub.add_parser("oc", help="exact operating characteristics to CSV")
    o.add_argument("--plan", required=True)
    o.add_argument("--grid", type=lambda s: _parse_grid(s, "--grid"),
                   help="parameter grid start:stop:step")
    o.add_argument("--grid-x", type=lambda s: _parse_grid(s, "--grid-x"))
    o.add_argument("--grid-y", type=lambda s: _parse_grid(s, "--grid-y"))
    o.add_argument("--out")
    o.set_defaults(fn=_cmd_oc)

    t = sub.add_parser("tune", help="bisect the risk scale, update the document")
    t.add_argument("--plan", required=True)
    t.add_argument("--tol", type=float, default=1e-3)
    t.add_argument("--deltas", type=lambda s: _parse_list(s, "--deltas"),
                   help="risk budget per hypothesis")
    t.add_argument("--zeta-max", type=float)
    t.add_argument("--certify-tol", type=float, default=1e-3)
    t.add_argument("--budget", type=int, default=20_000)
    t.add_argument("--out", help="output path (default: rewrite --plan)")
    t.set_defaults(fn=_cmd_tune)

    c = sub.add_parser("certify", help="branch-and-bound risk certificates")
    c.add_argument("--plan", required=True)
    c.add_argument("--deltas", required=True,
                   type=lambda s: _parse_list(s, "--deltas"))
    c.add_argument("--tol", type=float, default=1e-3)
    c.add_argument("--budget", type=int, default=20_000)
    c.set_defaults(fn=_cmd_certify)

    s = sub.add_parser("simulate", help="seeded Monte Carlo for one plan")
    s.add_argument("--plan", required=True)
    s.add_argument("--theta", type=float)
    s.add_argument("--theta-x", type=float)
    s.add_argument("--theta-y", type=float)
    s.add_argument("--trials", type=int, default=10_000)
    s.add_argument("--seed", type=int, required=True)
    s.add_argument("--out")
    s.set_defaults(fn=_cmd_simulate)

    m = sub.add_parser("compare", help="plan versus probability-ratio test")
    m.add_argument("--plan", required=True)
    m.add_argument("--grid", required=True,
                   type=lambda s: _parse_grid(s, "--grid"))
    m.add_argument("--trials", type=int, default=10_000)
    m.add_argument("--seed", type=int, required=True)
    m.add_argument("--sprt", action="store_true",
                   help="add the probability-ratio test at the design risks")
    m.add_argument("--sprt-cap", type=int)
    m.add_argument("--out")
    m.set_defaults(fn=_cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args, parser)
    except (SeqTestError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
