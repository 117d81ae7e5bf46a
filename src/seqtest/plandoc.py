"""Plan persistence: canonical JSON documents that round-trip losslessly.

A document stores every materialized threshold, so executing a loaded
plan never recomputes confidence limits.  Serialization is canonical
(sorted keys, two-space indent, shortest round-trip floats, LF line
endings, trailing newline), which makes the design -> save -> load ->
save cycle byte-identical and documents diffable.

Loading parses: it refuses fields of the wrong type and checks what only
a document holds (its schema, kind, model, family width, build block and,
for one-sided plans, theta0/theta1, a ``c_policy`` that is the one its
``tiebreak`` gives and a sample cap that is the one its zone and risk
levels give).  Two-sample stage sizes are checked before the grids are read
against them.  What the plan machinery relies on (zones, risk levels, tie
policies, stage sizes, windows, the support bound and a closed final stage)
is checked by the plan types when the plan is made, as for a built plan; a
refusal of theirs becomes a document error at the field it names.

Infinite window edges are stored as the strings "inf" / "-inf" so the
text stays strict JSON.  Two-sample decision grids are stored as row
strings: one character per second-arm count, a digit for the accepted
hypothesis and '.' for continuation ('*' marks midpoint-rule cells in
the companion grid).
"""

from __future__ import annotations

import json
import math

import numpy as np

from .conflimits import ApproxLimits, family_by_tag
from .errors import PlanDocumentError, SeqTestError
from .models import model_by_name
from .plans import _SCHEDULES, MultiHypPlan, OneSidedPlan, StageRule, check_stage_sizes
from .twoprop import CONTINUE, TwoPropPlan, TwoPropStage

__all__ = [
    "SCHEMA_VERSION", "plan_to_doc", "doc_to_plan", "dump_doc", "parse_doc",
    "save_plan", "load_plan",
]

SCHEMA_VERSION = 1
_TOOL = "seqtest"


def _enc_edge(x: float):
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return float(x)


def _dec_edge(v, ctx: str) -> float:
    if v == "inf":
        return math.inf
    if v == "-inf":
        return -math.inf
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        return float(v)
    raise PlanDocumentError(f"expected a number or 'inf'/'-inf', got {v!r}", ctx)


def _stage_to_doc(rule: StageRule) -> dict:
    return {
        "n": rule.n,
        "f": [_enc_edge(x) for x in rule.f],
        "g": [_enc_edge(x) for x in rule.g],
        "windows": [list(w) if w is not None else None for w in rule.windows],
        "ties": [list(t) if t is not None else None for t in rule.ties],
    }


def _grid_to_rows(decision: np.ndarray, midpoint: np.ndarray):
    dec_rows, mid_rows = [], []
    for drow, mrow in zip(decision, midpoint):
        dec_rows.append("".join("." if d < 0 else str(int(d)) for d in drow))
        mid_rows.append("".join("*" if t else "." for t in mrow))
    return dec_rows, mid_rows


def plan_to_doc(plan, build: dict | None = None, tuning: dict | None = None) -> dict:
    """Document dictionary for a plan of any supported kind.

    ``build`` optionally records the sizing inputs (stage count, schedule)
    so re-tuning can regenerate the family; ``tuning`` records a tuner
    trace in the provenance block.
    """
    from . import __version__

    doc = {
        "schema": SCHEMA_VERSION,
        "kind": plan.kind,
        "zone_lo": [float(x) for x in plan.zone_lo],
        "zone_hi": [float(x) for x in plan.zone_hi],
        "base_alphas": [float(x) for x in plan.base_alphas],
        "base_betas": [float(x) for x in plan.base_betas],
        "zeta": float(plan.zeta),
        "build": build,
        "provenance": {"tool": _TOOL, "tool_version": __version__,
                       "tuning": tuning},
    }
    if isinstance(plan, TwoPropPlan):
        if plan.m > 10:
            raise PlanDocumentError(
                "two-sample documents encode decisions as single digits and "
                f"support at most 10 hypotheses, got {plan.m}"
            )
        stages = []
        for st in plan.stages:
            dec_rows, mid_rows = _grid_to_rows(st.decision, st.midpoint_used)
            stages.append({"n_x": st.n_x, "n_y": st.n_y,
                           "decision": dec_rows, "midpoint": mid_rows})
        doc["link"] = "identity"
        doc["stages"] = stages
        return doc

    doc["model"] = plan.model.name
    doc["family"] = {"tag": plan.family.tag}
    if isinstance(plan.family, ApproxLimits):
        doc["family"]["width"] = float(plan.family.w)
    doc["c_policy"] = plan.c_policy
    doc["stages"] = [_stage_to_doc(r) for r in plan.stages]
    if isinstance(plan, OneSidedPlan):
        doc["theta0"] = float(plan.theta0)
        doc["theta1"] = float(plan.theta1)
        doc["tiebreak"] = plan.tiebreak
        doc["sample_cap"] = plan.sample_cap
    return doc


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _need(doc: dict, key: str, ctx: str = ""):
    if key not in doc:
        raise PlanDocumentError(f"missing field {key!r}", ctx or key)
    return doc[key]


def _number(doc: dict, key: str, ctx: str = "") -> float:
    v = _need(doc, key, ctx)
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise PlanDocumentError(f"{key} must be a number, got {v!r}", ctx or key)
    return float(v)


def _list(doc: dict, key: str, ctx: str) -> list:
    v = _need(doc, key, ctx)
    if not isinstance(v, list):
        raise PlanDocumentError(f"expected a list, got {v!r}", ctx)
    return v


def _floats(doc: dict, key: str) -> tuple[float, ...]:
    v = _need(doc, key)
    if not isinstance(v, list) or any(
            isinstance(x, bool) or not isinstance(x, (int, float)) for x in v):
        raise PlanDocumentError("expected a list of numbers", key)
    return tuple(float(x) for x in v)


def _pair_or_none(v, ctx: str, hi_none_ok: bool):
    if v is None:
        return None
    if (not isinstance(v, list) or len(v) != 2
            or not _is_int(v[0])
            or not (_is_int(v[1]) or (hi_none_ok and v[1] is None))):
        raise PlanDocumentError(f"expected null or an integer pair, got {v!r}", ctx)
    return (v[0], v[1])


def _check_sizes(raw_stages: list, keys: tuple[str, ...]) -> None:
    """Raise unless every stage is an object whose size fields ``keys`` are integers."""
    for idx, sd in enumerate(raw_stages):
        if not isinstance(sd, dict):
            raise PlanDocumentError("expected a stage object", f"stages[{idx}]")
        for key in keys:
            n = _need(sd, key, f"stages[{idx}].{key}")
            if not _is_int(n):
                raise PlanDocumentError(f"stage size must be a positive integer, got {n!r}",
                                        f"stages[{idx}].{key}")


def _checked(call, *args, context: str | None = None, **kwargs):
    """``call(*args, **kwargs)``, its refusal a document error at ``context``,
    or else at the field the refusal names."""
    try:
        return call(*args, **kwargs)
    except SeqTestError as exc:
        raise PlanDocumentError(exc.args[0], context or exc.context) from None


def _check_build(build, kind: str) -> None:
    """Raise unless the ``build`` block is null or holds sizing fields the
    builder of ``kind`` accepts, so that re-tuning can rebuild the plan family."""
    if build is None:
        return
    if not isinstance(build, dict):
        raise PlanDocumentError(f"expected null or an object, got {build!r}", "build")
    if "stage_ns" in build:
        ns = build["stage_ns"]
        if not isinstance(ns, list) or not all(map(_is_int, ns)):
            raise PlanDocumentError(f"expected a list of integers, got {ns!r}", "build.stage_ns")
        _checked(check_stage_sizes, ns, context="build.stage_ns")
    stages, schedule = build.get("stages", 1), build.get("schedule", "geometric")
    if not _is_int(stages) or stages < 1:
        raise PlanDocumentError(f"expected a positive integer, got {stages!r}", "build.stages")
    if schedule not in _SCHEDULES:
        raise PlanDocumentError(f"unknown schedule {schedule!r}", "build.schedule")
    fully = build.get("fully_sequential", False)
    if not isinstance(fully, bool) or fully and kind != "one-sided":
        raise PlanDocumentError(f"expected false, or true on a one-sided plan, got {fully!r}",
                                "build.fully_sequential")
    if fully and "stage_ns" in build:
        raise PlanDocumentError("a fully sequential plan picks its own stage sizes, "
                                "so the build holds no stage_ns", "build.fully_sequential")


def _doc_to_stage(sd: dict, idx: int) -> StageRule:
    ctx = f"stages[{idx}]"
    f = tuple(_dec_edge(x, f"{ctx}.f") for x in _list(sd, "f", f"{ctx}.f"))
    g = tuple(_dec_edge(x, f"{ctx}.g") for x in _list(sd, "g", f"{ctx}.g"))
    windows = tuple(_pair_or_none(w, f"{ctx}.windows[{i}]", hi_none_ok=True)
                    for i, w in enumerate(_list(sd, "windows", f"{ctx}.windows")))
    ties = tuple(_pair_or_none(t, f"{ctx}.ties[{i}]", hi_none_ok=False)
                 for i, t in enumerate(_list(sd, "ties", f"{ctx}.ties")))
    return StageRule(n=sd["n"], f=f, g=g, windows=windows, ties=ties)


def _rows_to_grid(rows, n_x: int, n_y: int, m: int, what: str, idx: int):
    ctx = f"stages[{idx}].{what}"
    if not isinstance(rows, list) or len(rows) != n_x + 1:
        raise PlanDocumentError(f"expected {n_x + 1} row strings", ctx)
    dec = np.empty((n_x + 1, n_y + 1), dtype=np.int8)
    mid = np.empty((n_x + 1, n_y + 1), dtype=bool)
    for r, row in enumerate(rows):
        if not isinstance(row, str) or len(row) != n_y + 1:
            raise PlanDocumentError(f"row {r} must be a {n_y + 1}-character string", ctx)
        for cidx, ch in enumerate(row):
            if what == "decision":
                if ch == ".":
                    dec[r, cidx] = CONTINUE
                elif ch.isdigit() and int(ch) < m:
                    dec[r, cidx] = int(ch)
                else:
                    raise PlanDocumentError(f"bad decision character {ch!r}",
                                            f"{ctx}[{r}][{cidx}]")
            else:
                if ch not in ".*":
                    raise PlanDocumentError(f"bad midpoint character {ch!r}",
                                            f"{ctx}[{r}][{cidx}]")
                mid[r, cidx] = ch == "*"
    return dec if what == "decision" else mid


def doc_to_plan(doc: dict):
    """Reconstruct the plan object a document describes; the plan type checks
    it as it checks a built one."""
    if not isinstance(doc, dict):
        raise PlanDocumentError("document root must be an object")
    schema = _need(doc, "schema")
    if schema != SCHEMA_VERSION:
        raise PlanDocumentError(
            f"unsupported schema version {schema!r} (expected {SCHEMA_VERSION})",
            "schema")
    kind = _need(doc, "kind")
    if kind not in ("one-sided", "multi", "two-prop"):
        raise PlanDocumentError(f"unknown plan kind {kind!r}", "kind")
    zone_lo = _floats(doc, "zone_lo")
    zone_hi = _floats(doc, "zone_hi")
    base_alphas = _floats(doc, "base_alphas")
    base_betas = _floats(doc, "base_betas")
    zeta = _number(doc, "zeta")
    raw_stages = _need(doc, "stages")
    if not isinstance(raw_stages, list) or not raw_stages:
        raise PlanDocumentError("expected a nonempty stage list", "stages")
    _check_build(doc.get("build"), kind)
    levels = dict(zone_lo=zone_lo, zone_hi=zone_hi, base_alphas=base_alphas,
                  base_betas=base_betas, zeta=zeta)

    if kind == "two-prop":
        if doc.get("link", "identity") != "identity":
            raise PlanDocumentError(
                f"only the identity arm link is supported, got {doc['link']!r}", "link")
        _check_sizes(raw_stages, ("n_x", "n_y"))
        # the row strings are read against the sizes
        _checked(check_stage_sizes, [(sd["n_x"], sd["n_y"]) for sd in raw_stages], ("n_x", "n_y"))
        m = len(zone_lo) + 1
        stages = []
        for i, sd in enumerate(raw_stages):
            n_x, n_y = sd["n_x"], sd["n_y"]
            dec = _rows_to_grid(_need(sd, "decision", f"stages[{i}].decision"),
                                n_x, n_y, m, "decision", i)
            mid = _rows_to_grid(_need(sd, "midpoint", f"stages[{i}].midpoint"),
                                n_x, n_y, m, "midpoint", i)
            stages.append(TwoPropStage(n_x=n_x, n_y=n_y, decision=dec,
                                       midpoint_used=mid))
        return _checked(TwoPropPlan, **levels, stages=tuple(stages))

    try:
        model = model_by_name(_need(doc, "model"))
    except Exception as exc:
        raise PlanDocumentError(str(exc), "model") from None
    fam_doc = _need(doc, "family")
    if not isinstance(fam_doc, dict) or "tag" not in fam_doc:
        raise PlanDocumentError("expected an object with a 'tag' field", "family")
    # only an approx family reads a width, and it must give one
    width = _number(fam_doc, "width", "family.width") if fam_doc["tag"] == "approx" else None
    if width is None and "width" in fam_doc:
        raise PlanDocumentError(f"a {fam_doc['tag']!r} family takes no width", "family.width")
    try:
        family = family_by_tag(fam_doc["tag"], width)
    except Exception as exc:
        raise PlanDocumentError(str(exc), "family") from None
    c_policy = _need(doc, "c_policy")
    _check_sizes(raw_stages, ("n",))
    stages = tuple(_doc_to_stage(sd, i) for i, sd in enumerate(raw_stages))
    common = dict(model=model, family=family, **levels, stages=stages)
    if kind == "multi":
        return _checked(MultiHypPlan, **common, c_policy=c_policy)
    plan = _checked(OneSidedPlan, **common, tiebreak=_need(doc, "tiebreak"))
    if c_policy != plan.c_policy:
        raise PlanDocumentError(f"c policy must be {plan.c_policy!r}, the one tiebreak "
                                f"{plan.tiebreak!r} gives, got {c_policy!r}", "c_policy")
    theta0, theta1 = _number(doc, "theta0"), _number(doc, "theta1")
    if (theta0,) != zone_lo or (theta1,) != zone_hi:
        raise PlanDocumentError("theta0 and theta1 must be the zone endpoints",
                                "theta0, theta1")
    _checked(lambda: plan.sample_cap, context="zone_lo, zone_hi")
    cap = doc.get("sample_cap")
    if not (cap is None or _is_int(cap)) or cap != plan.sample_cap:
        raise PlanDocumentError(f"sample cap must be {plan.sample_cap}, the bound the "
                                f"zone and risk levels give, got {cap!r}", "sample_cap")
    return plan


def dump_doc(doc: dict) -> str:
    """Canonical text form: sorted keys, 2-space indent, trailing newline."""
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def parse_doc(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PlanDocumentError(exc.msg, f"line {exc.lineno}, column {exc.colno}") from None
    if not isinstance(doc, dict):
        raise PlanDocumentError("document root must be an object")
    return doc


def save_plan(plan, path, build: dict | None = None, tuning: dict | None = None) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dump_doc(plan_to_doc(plan, build=build, tuning=tuning)))


def load_plan(path):
    """Plan object plus raw document from a file path."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = parse_doc(fh.read())
    return doc_to_plan(doc), doc
