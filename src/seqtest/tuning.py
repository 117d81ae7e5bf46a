"""Risk tuning by bracketed bisection on the level scale.

The level scale multiplies every nominal risk coefficient; shrinking it
tightens the per-stage confidence limits and drives the exact error
probabilities toward zero.  The tuner treats feasibility as monotone in
the scale only for bracketing purposes: every candidate is re-verified
with the exact evaluator before it can become the returned value, so a
non-monotone pocket can cost iterations but never soundness.

The final stage size, by contrast, is provably monotone in the levels for
exact and Chernoff limits: each crossing predicate compares a level-free
value with the level, so a stage that closes at some levels closes at
every larger ones.  The probes of one run therefore share their final
sizes (``plans._size_memo``): a probe searches only between the size found
at the nearest larger levels, below which nothing closes, and the one found
at the nearest smaller levels, which closes.  Plans, zetas and brackets are
the ones a cold search from size 1 gives; approximate limits search cold.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError, InfeasibleDesignError
from .ocexact import verify_risk
from .plans import _size_memo, build_multihyp_plan, build_one_sided_plan
from .twoprop import TwoPropPlan, build_two_prop_plan

__all__ = ["TuneResult", "tune_zeta", "tune_one_sided", "tune_multihyp"]

ZETA_FLOOR = 1e-8


@dataclass
class TuneResult:
    zeta: float                   # largest verified-feasible scale found
    plan: object
    report: object                # feasibility report at .zeta
    iterations: int               # feasibility evaluations spent
    bracket: tuple[float, float]  # (feasible, infeasible-or-cap)
    # (zeta, final stage size or None where the build failed, feasible) per
    # probe, in order; a two-sample plan's size is its (n_x, n_y) pair
    probes: tuple[tuple[float, object, bool], ...]

    @property
    def bracket_width(self) -> float:
        return self.bracket[1] - self.bracket[0]


def tune_zeta(plan_family, requirement, tol: float = 1e-3,
              zeta_max: float = 1.0, verify=None) -> TuneResult:
    """Largest scale in (0, zeta_max) whose plan passes exact verification.

    ``plan_family`` maps a scale to a plan; a construction error counts as
    infeasible at that scale.  ``verify`` maps a plan to (ok, report) and
    defaults to the exact zone-endpoint verdict against ``requirement``.
    The bracket starts by geometric probing downward from ``zeta_max`` and
    is then bisected to relative width ``tol``; the feasible endpoint is
    returned.  No feasible scale above ``ZETA_FLOOR`` raises an error: the
    family's first ``DomainError`` where every probe raised one (a zone or
    option no scale can mend), ``InfeasibleDesignError`` otherwise.
    """
    if not (0.0 < tol < 1.0):
        raise DomainError(f"tol must lie in (0, 1), got {tol}")
    if not (ZETA_FLOOR < zeta_max):
        raise DomainError("zeta_max must exceed the search floor")
    if verify is None:
        def verify(plan):
            rep = verify_risk(plan, requirement)
            return rep.satisfied, rep

    probes = []
    domain_errors = []

    def feasible(z):
        try:
            plan = plan_family(z)
        except (InfeasibleDesignError, DomainError) as err:
            if isinstance(err, DomainError):
                domain_errors.append(err)
            probes.append((z, None, False))
            return False, None, None
        ok, rep = verify(plan)
        probes.append((z, _final_size(plan), ok))
        return ok, plan, rep

    def result(zeta, plan, rep, bracket):
        return TuneResult(zeta=zeta, plan=plan, report=rep, iterations=len(probes),
                          bracket=bracket, probes=tuple(probes))

    with _size_memo():
        # The cap itself is usually out of the open domain; probe just inside.
        hi = zeta_max
        z = zeta_max * (1.0 - tol)
        ok, plan, rep = feasible(z)
        if ok:
            return result(z, plan, rep, (z, hi))
        hi = z

        # Geometric probing for a feasible low endpoint.
        lo = None
        z = 0.5 * hi
        while z >= ZETA_FLOOR:
            ok, plan, rep = feasible(z)
            if ok:
                lo = z
                break
            hi = z
            z *= 0.5
        if lo is None:
            if len(domain_errors) == len(probes):
                raise domain_errors[0]
            raise InfeasibleDesignError(
                f"no feasible scale above {ZETA_FLOOR:g}; the stage layout cannot "
                "meet the requirement"
            )
        best_plan, best_rep = plan, rep

        while hi - lo > tol * lo:
            mid = 0.5 * (lo + hi)
            ok, plan, rep = feasible(mid)
            if ok:
                lo, best_plan, best_rep = mid, plan, rep
            else:
                hi = mid
    return result(lo, best_plan, best_rep, (lo, hi))


def _final_size(plan):
    """The last stage's size: n, or (n_x, n_y) for a two-sample plan."""
    last = plan.stages[-1]
    return (last.n_x, last.n_y) if isinstance(plan, TwoPropPlan) else last.n


def _plan_family(kind, zone_lo, zone_hi, base_alphas, base_betas, model=None, family=None,
                 **build_kwargs):
    """z -> the plan of ``kind`` ("one-sided", "multi" or "two-prop") at scale z,
    built with ``build_kwargs``.

    The one place the three plan builders are called.  A one-sided plan's
    zone and risks are the one-element sequences (theta0,), (theta1,),
    (alpha,) and (beta,); a two-prop plan takes no model or family.
    """
    if kind == "one-sided":
        (theta0,), (theta1,), (alpha,), (beta,) = zone_lo, zone_hi, base_alphas, base_betas
        return lambda z: build_one_sided_plan(model, family, theta0, theta1, alpha, beta, z,
                                              **build_kwargs)
    if kind == "multi":
        return lambda z: build_multihyp_plan(model, family, zone_lo, zone_hi, z, base_alphas,
                                             base_betas, **build_kwargs)
    return lambda z: build_two_prop_plan(zone_lo, zone_hi, z, base_alphas, base_betas,
                                         **build_kwargs)


def tune_one_sided(model, family, theta0: float, theta1: float,
                   alpha: float, beta: float, tol: float = 1e-3,
                   **build_kwargs) -> TuneResult:
    """Tune a one-sided plan so both exact error probabilities fit.

    Remaining keyword arguments go to the plan builder (stage layout, tie
    policy and so on).  The requirement is alpha at the lower zone
    endpoint and beta at the upper one.
    """
    return tune_zeta(_plan_family("one-sided", (theta0,), (theta1,), (alpha,), (beta,), model,
                                  family, **build_kwargs),
                     requirement=(alpha, beta), tol=tol, zeta_max=1.0 / max(alpha, beta))


def tune_multihyp(model, family, zone_lo, zone_hi, deltas,
                  base_alphas=None, base_betas=None, tol: float = 1e-3,
                  **build_kwargs) -> TuneResult:
    """Tune an m-hypothesis plan to per-zone rejection budgets ``deltas``."""
    nb = len(zone_lo)
    ba = tuple(base_alphas) if base_alphas is not None else (1.0,) * nb
    bb = tuple(base_betas) if base_betas is not None else (1.0,) * nb
    return tune_zeta(_plan_family("multi", zone_lo, zone_hi, ba, bb, model, family,
                                  **build_kwargs),
                     requirement=deltas, tol=tol, zeta_max=1.0 / max(*ba, *bb))
