"""Seeded Monte Carlo for empirical operating characteristics.

Reproducibility contract: trial t draws from a dedicated substream derived
from (seed, t), so results do not depend on execution order and any two
runners given the same seed and trial index see the same observations.
That per-trial common-random-numbers coupling is what makes the
plan-versus-baseline sample-count contrasts sharp at desk-scale trial
counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InfeasibleDesignError, UnsupportedModelError
from .ocexact import _csv_text
from .plans import CONTINUE, MultiHypPlan
from .sprt import SprtSpec, _Walk
from .twoprop import _BERN, TwoPropPlan, _check_point

__all__ = ["SimReport", "CompareReport", "simulate", "simulate_two_prop", "compare",
           "reports_csv"]

_SPRT_CHUNK = 64


def _check_run(trials, seed) -> None:
    """Raise unless ``trials`` is a positive and ``seed`` a nonnegative integer."""
    if not isinstance(trials, (int, np.integer)) or trials < 1:
        raise DomainError(f"trials must be a positive integer, got {trials!r}")
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise DomainError(f"seed must be a nonnegative integer, got {seed!r}")


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(trial,))
    return np.random.Generator(np.random.PCG64(ss))


@dataclass
class SimReport:
    theta: float
    trials: int
    seed: int
    accept_freq: tuple[float, ...]
    accept_se: tuple[float, ...]
    asn: float
    asn_se: float
    stop_percentiles: dict[int, float]
    max_samples: int
    forced_rate: float = 0.0


def _summarize(theta, trials, seed, accepted, nstop, n_hyp, forced) -> SimReport:
    freq = tuple(float(np.mean(accepted == i)) for i in range(n_hyp))
    se = tuple(float(np.sqrt(f * (1.0 - f) / trials)) for f in freq)
    pct = {q: float(np.percentile(nstop, q, method="inverted_cdf"))
           for q in (50, 90, 99)}
    return SimReport(
        theta=float(theta), trials=trials, seed=seed,
        accept_freq=freq, accept_se=se,
        asn=float(nstop.mean()),
        asn_se=float(nstop.std(ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0,
        stop_percentiles=pct,
        max_samples=int(nstop.max()),
        forced_rate=float(np.mean(forced)) if forced is not None else 0.0,
    )


def _simulate_plan(plan: MultiHypPlan, theta, trials, seed) -> SimReport:
    model = plan.model
    model.validate_theta(theta)
    stage_ns = plan.stage_ns
    n_last = stage_ns[-1]
    accepted = np.empty(trials, dtype=np.int64)
    nstop = np.empty(trials, dtype=np.int64)
    for t in range(trials):
        rng = _trial_rng(seed, t)
        cums = np.cumsum(model.draw(rng, n_last, theta))
        for idx, rule in enumerate(plan.stages):
            d = rule.decision_for_sum(int(cums[rule.n - 1]))
            if d:
                accepted[t] = d - 1
                nstop[t] = rule.n
                break
        else:
            raise InfeasibleDesignError("plan is not closed: no decision at the final stage")
    return _summarize(theta, trials, seed, accepted, nstop, plan.m, None)


def _simulate_sprt(spec: SprtSpec, theta, trials, seed) -> SimReport:
    spec.model.validate_theta(theta)
    walk = _Walk(spec)
    nstop, _, accepted, forced = np.array([
        walk.run(lambda used, n, rng=_trial_rng(seed, t): spec.model.draw(rng, n, theta),
                 _SPRT_CHUNK) for t in range(trials)]).T
    return _summarize(theta, trials, seed, accepted, nstop, 2, forced)


def simulate_two_prop(plan: TwoPropPlan, p_x: float, p_y: float, trials: int,
                      seed: int) -> SimReport:
    """Empirical summary for a two-sample plan; ``theta`` is p_x - p_y."""
    _check_run(trials, seed)
    _check_point(p_x, p_y)
    last = plan.stages[-1]
    accepted = np.empty(trials, dtype=np.int64)
    nstop = np.empty(trials, dtype=np.int64)
    for t in range(trials):
        rng = _trial_rng(seed, t)
        kx = np.cumsum(_BERN.draw(rng, last.n_x, p_x))
        ky = np.cumsum(_BERN.draw(rng, last.n_y, p_y))
        for stage in plan.stages:
            d = int(stage.decision[kx[stage.n_x - 1], ky[stage.n_y - 1]])
            if d != CONTINUE:
                accepted[t] = d
                nstop[t] = stage.n_x + stage.n_y
                break
        else:
            raise InfeasibleDesignError("plan is not closed: no decision at the final stage")
    return _summarize(p_x - p_y, trials, seed, accepted, nstop, plan.m, None)


def simulate(runner, theta: float, trials: int, seed: int) -> SimReport:
    """Empirical acceptance, sample-count, and stopping summary for one mean."""
    _check_run(trials, seed)
    if isinstance(runner, MultiHypPlan):
        return _simulate_plan(runner, theta, trials, seed)
    if isinstance(runner, SprtSpec):
        return _simulate_sprt(runner, theta, trials, seed)
    raise UnsupportedModelError(f"cannot simulate runner of type {type(runner).__name__}")


@dataclass
class CompareReport:
    names: tuple[str, ...]
    thetas: tuple[float, ...]
    trials: int
    seed: int
    rows: list  # (name, SimReport), grid-major order

    def to_csv(self) -> str:
        return reports_csv([(name, (rep.theta,), rep) for name, rep in self.rows])


def reports_csv(rows, label_cols=("theta",)) -> str:
    """CSV of (runner name, label values, SimReport) rows, one line each."""
    n_hyp = max(len(rep.accept_freq) for _, _, rep in rows)
    head = ["runner", *label_cols, "trials", "seed"]
    head += [f"accept_h{i}" for i in range(n_hyp)]
    head += [f"se_h{i}" for i in range(n_hyp)]
    head += ["asn", "asn_se", "stop_p50", "stop_p90", "stop_p99",
             "max_samples", "forced_rate"]
    body = []
    for name, labels, rep in rows:
        pad = [float("nan")] * (n_hyp - len(rep.accept_freq))
        body.append([name, *labels, str(rep.trials), str(rep.seed), *rep.accept_freq, *pad,
                     *rep.accept_se, *pad, rep.asn, rep.asn_se,
                     *(rep.stop_percentiles[q] for q in (50, 90, 99)),
                     str(rep.max_samples), rep.forced_rate])
    return _csv_text(head, body)


def compare(runners, theta_grid, trials: int, seed: int, names=None) -> CompareReport:
    """Side-by-side empirical summaries under common random numbers.

    Every runner replays the same per-trial substreams, so at each grid
    point the runners face identical observation sequences.
    """
    _check_run(trials, seed)
    runners = list(runners)
    if names is None:
        names = [f"runner_{i+1}" for i in range(len(runners))]
    names = [str(x) for x in names]
    if len(names) != len(runners):
        raise DomainError("one name per runner required")
    thetas = [float(t) for t in theta_grid]
    rows = []
    for theta in thetas:
        for name, runner in zip(names, runners):
            rows.append((name, simulate(runner, theta, trials, seed)))
    return CompareReport(names=tuple(names), thetas=tuple(thetas),
                         trials=trials, seed=seed, rows=rows)
