"""Plan persistence: canonical JSON documents that round-trip losslessly.

A document stores every materialized threshold, so executing a loaded
plan never recomputes confidence limits.  Serialization is canonical
(sorted keys, two-space indent, shortest round-trip floats, LF line
endings, trailing newline), which makes the design -> save -> load ->
save cycle byte-identical and documents diffable.

Loading checks what the plan machinery relies on, by the builders' rules:
zones, risk coefficients and ``zeta`` lie in the builders' domain, stage
sizes are positive and strictly increasing on every arm, every stage's
windows are ordered and disjoint (and, for Bernoulli stages, end at most
at the stage size), and the final stage decides at every count the model
reaches (every cell, for two-sample grids), so a loaded plan is a closed
plan.  A one-sided document's sample cap must be the one its zone and
risk levels give.  Unknown tie policies and fields of the wrong type are
refused.

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
from .errors import DomainError, InfeasibleDesignError, PlanDocumentError
from .models import model_by_name
from .plans import (_C_POLICIES, _SCHEDULES, _TIEBREAKS, CONTINUE, MultiHypPlan,
                    OneSidedPlan, StageRule, _check_risks, _check_zones, _validate_windows,
                    check_stage_sizes, stage_is_closed)
from .twoprop import TwoPropPlan, TwoPropStage, _check_two_prop_zones

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


def _number(doc: dict, key: str) -> float:
    v = _need(doc, key)
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise PlanDocumentError(f"{key} must be a number, got {v!r}", key)
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
            or not isinstance(v[0], int)
            or not (isinstance(v[1], int) or (hi_none_ok and v[1] is None))):
        raise PlanDocumentError(f"expected null or an integer pair, got {v!r}", ctx)
    return (v[0], v[1])


def _check_sizes(raw_stages: list, keys: tuple[str, ...]) -> None:
    """Raise unless every stage is an object whose size fields ``keys`` are
    integers that pass ``check_stage_sizes`` along each arm."""
    for idx, sd in enumerate(raw_stages):
        if not isinstance(sd, dict):
            raise PlanDocumentError("expected a stage object", f"stages[{idx}]")
        for key in keys:
            ctx = f"stages[{idx}].{key}"
            n = _need(sd, key, ctx)
            if not _is_int(n):
                raise PlanDocumentError(f"stage size must be a positive integer, got {n!r}",
                                        ctx)
            try:
                check_stage_sizes([raw_stages[idx - 1][key], n] if idx else [n])
            except DomainError as exc:
                raise PlanDocumentError(str(exc), ctx) from None


def _check_domain(check, ctx: str, *args) -> None:
    """Run one of the builders' domain checks on document values."""
    try:
        check(*args)
    except DomainError as exc:
        raise PlanDocumentError(str(exc), ctx) from None


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
        _check_domain(check_stage_sizes, "build.stage_ns", ns)
    stages, schedule = build.get("stages", 1), build.get("schedule", "geometric")
    if not _is_int(stages) or stages < 1:
        raise PlanDocumentError(f"expected a positive integer, got {stages!r}", "build.stages")
    if schedule not in _SCHEDULES:
        raise PlanDocumentError(f"unknown schedule {schedule!r}", "build.schedule")
    fully = build.get("fully_sequential", False)
    if not isinstance(fully, bool) or fully and kind != "one-sided":
        raise PlanDocumentError(f"expected false, or true on a one-sided plan, got {fully!r}",
                                "build.fully_sequential")


def _doc_to_stage(sd: dict, idx: int, model) -> StageRule:
    ctx = f"stages[{idx}]"
    f = tuple(_dec_edge(x, f"{ctx}.f") for x in _list(sd, "f", f"{ctx}.f"))
    g = tuple(_dec_edge(x, f"{ctx}.g") for x in _list(sd, "g", f"{ctx}.g"))
    windows = tuple(_pair_or_none(w, f"{ctx}.windows[{i}]", hi_none_ok=True)
                    for i, w in enumerate(_list(sd, "windows", f"{ctx}.windows")))
    ties = tuple(_pair_or_none(t, f"{ctx}.ties[{i}]", hi_none_ok=False)
                 for i, t in enumerate(_list(sd, "ties", f"{ctx}.ties")))
    if len(f) != len(windows) or len(g) != len(windows) or len(ties) != len(windows) - 1:
        raise PlanDocumentError("stage field lengths are inconsistent", ctx)
    rule = StageRule(n=sd["n"], f=f, g=g, windows=windows, ties=ties)
    try:
        _validate_windows(rule)
    except InfeasibleDesignError as exc:
        raise PlanDocumentError(str(exc), f"{ctx}.windows") from None
    # StageRule.labels holds one cell per count up to the last finite edge
    top = model.sum_upper(rule.n)
    if top is not None and any(e is not None and e > top
                               for win in windows if win is not None for e in win):
        raise PlanDocumentError(f"window edges must not exceed the largest count {top}",
                                f"{ctx}.windows")
    return rule


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
    """Reconstruct the plan object a document describes."""
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

    if kind == "two-prop":
        if doc.get("link", "identity") != "identity":
            raise PlanDocumentError(
                f"only the identity arm link is supported, got {doc['link']!r}", "link")
        _check_domain(_check_two_prop_zones, "zone_lo, zone_hi", zone_lo, zone_hi)
        _check_domain(_check_risks, "base_alphas, base_betas, zeta", base_alphas, base_betas,
                      zeta, len(zone_lo))
        _check_sizes(raw_stages, ("n_x", "n_y"))
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
        if not stages[-1].closed:
            raise PlanDocumentError("final stage leaves continuation cells",
                                    f"stages[{len(stages) - 1}].decision")
        return TwoPropPlan(zone_lo=zone_lo, zone_hi=zone_hi, base_alphas=base_alphas,
                           base_betas=base_betas, zeta=zeta, stages=tuple(stages))

    try:
        model = model_by_name(_need(doc, "model"))
    except Exception as exc:
        raise PlanDocumentError(str(exc), "model") from None
    fam_doc = _need(doc, "family")
    if not isinstance(fam_doc, dict) or "tag" not in fam_doc:
        raise PlanDocumentError("expected an object with a 'tag' field", "family")
    try:
        family = family_by_tag(fam_doc["tag"], fam_doc.get("width"))
    except Exception as exc:
        raise PlanDocumentError(str(exc), "family") from None
    _check_domain(_check_zones, "zone_lo, zone_hi", model, zone_lo, zone_hi)
    _check_domain(_check_risks, "base_alphas, base_betas, zeta", base_alphas, base_betas,
                  zeta, len(zone_lo))
    # A one-sided plan records a tiebreak other than the likelihood ratio as its policy.
    c_policies = _C_POLICIES if kind == "multi" else _C_POLICIES + _TIEBREAKS[1:]
    c_policy = _need(doc, "c_policy")
    if c_policy not in c_policies:
        raise PlanDocumentError(f"unknown c policy {c_policy!r}", "c_policy")
    _check_sizes(raw_stages, ("n",))
    stages = tuple(_doc_to_stage(sd, i, model) for i, sd in enumerate(raw_stages))
    if not stage_is_closed(stages[-1], model):
        raise PlanDocumentError("final stage leaves continuation points",
                                f"stages[{len(stages) - 1}].windows")
    common = dict(
        model=model, family=family, zone_lo=zone_lo, zone_hi=zone_hi,
        base_alphas=base_alphas, base_betas=base_betas, zeta=zeta,
        stages=stages, c_policy=c_policy,
    )
    if kind == "multi":
        return MultiHypPlan(**common)
    tiebreak = _need(doc, "tiebreak")
    if tiebreak not in _TIEBREAKS:
        raise PlanDocumentError(f"unknown tiebreak {tiebreak!r}", "tiebreak")
    theta0, theta1 = _number(doc, "theta0"), _number(doc, "theta1")
    if (theta0,) != zone_lo or (theta1,) != zone_hi:
        raise PlanDocumentError("theta0 and theta1 must be the zone endpoints",
                                "theta0, theta1")
    plan = OneSidedPlan(**common, tiebreak=tiebreak)
    _check_domain(lambda: plan.sample_cap, "zone_lo, zone_hi")
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
