"""Reference computations and property checks, written apart from seqtest.

Nothing here calls a seqtest evaluator, tail or limit function.  A plan is
read only through its declared data (stage sizes, decision windows, tie
regions, two-sample decision grids), and every probability is computed
from ``scipy.stats`` mass functions:

* ``ref_oc``: the one-sample operating characteristic by a forward
  dynamic program on ``scipy.stats.binom`` / ``scipy.stats.poisson`` pmfs,
  with its own Poisson truncation and the discarded mass reported;
* ``ref_two_prop_oc``: two-sample acceptance by a double loop over the
  increment pairs of every stage;
* ``ref_sprt``: the exact probability-ratio random walk on the (n, sum)
  lattice out to a horizon, with the mass still undecided there reported.

Each ``check_*`` function returns a list of problems (empty when the
check passes), so the harness can count and print them.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import stats
from scipy.optimize import brentq
from scipy.special import rel_entr

# Agreement tolerance between two exact computations of one probability,
# on top of the truncation slack each side reports.
ABS_TOL = 1e-9
# Simulated frequencies must lie within this many exact standard errors.
SIM_SIGMAS = 6.0


def _increment(model: str, m: int, theta: float):
    """(pmf of an m-sample sum increment, mass left beyond its support)."""
    if model == "bernoulli":
        return stats.binom.pmf(np.arange(m + 1), m, theta), 0.0
    mu = m * theta
    top = int(math.ceil(mu + 14.0 * math.sqrt(mu) + 40.0))
    return stats.poisson.pmf(np.arange(top + 1), mu), float(stats.poisson.sf(top, mu))


def decision_array(rule, length: int) -> np.ndarray:
    """Decision per sum count 0..length-1 (0 continue, i+1 accept hyp i)."""
    dec = np.zeros(length, dtype=np.int64)
    for i, win in enumerate(rule.windows):
        if win is None:
            continue
        lo, hi = win
        hi = length - 1 if hi is None else min(hi, length - 1)
        if lo <= hi:
            dec[lo:hi + 1] = i + 1
    return dec


def ref_oc(plan, theta: float):
    """Exact (accept[m], asn, stop[s], slack, second moment of N)."""
    model = plan.model.name
    state = np.array([1.0])
    prev = 0
    slack = 0.0
    accept = np.zeros(plan.m)
    stop = np.zeros(plan.s)
    for idx, rule in enumerate(plan.stages):
        inc, lost = _increment(model, rule.n - prev, theta)
        slack += lost * float(state.sum())
        state = np.convolve(state, inc)
        prev = rule.n
        dec = decision_array(rule, len(state))
        for i in range(plan.m):
            mass = float(state[dec == i + 1].sum())
            accept[i] += mass
            stop[idx] += mass
        state = np.where(dec == 0, state, 0.0)
    slack += float(state.sum())
    ns = np.array(plan.stage_ns, dtype=float)
    return accept, float(ns @ stop), stop, slack, float((ns * ns) @ stop)


def ref_two_prop_oc(plan, p_x: float, p_y: float):
    """Exact (accept[m], asn_x, asn_y) by a double loop over increments."""
    accept = np.zeros(plan.m)
    asn_x = asn_y = 0.0
    state = np.ones((1, 1))
    prev_x = prev_y = 0
    for stage in plan.stages:
        ix, iy = stage.n_x - prev_x, stage.n_y - prev_y
        wx = stats.binom.pmf(np.arange(ix + 1), ix, p_x)
        wy = stats.binom.pmf(np.arange(iy + 1), iy, p_y)
        nxt = np.zeros((stage.n_x + 1, stage.n_y + 1))
        rows, cols = state.shape
        for dx in range(ix + 1):
            for dy in range(iy + 1):
                w = wx[dx] * wy[dy]
                if w != 0.0:
                    nxt[dx:dx + rows, dy:dy + cols] += w * state
        prev_x, prev_y = stage.n_x, stage.n_y
        stopped = 0.0
        for b in range(plan.m):
            mass = float(nxt[stage.decision == b].sum())
            accept[b] += mass
            stopped += mass
        asn_x += stage.n_x * stopped
        asn_y += stage.n_y * stopped
        state = np.where(stage.decision == -1, nxt, 0.0)
    return accept, asn_x, asn_y


def ref_sprt(spec, theta: float, horizon: int = 50_000, eps: float = 1e-13):
    """Exact (accept_h0, asn, second moment of N, leftover) of the ratio walk.

    The log likelihood ratio after n observations with sum s is
    ``s * log_r - n * shift`` for both models, so the undecided paths are
    carried as a distribution over s.  Mass still undecided at the
    horizon is returned as ``leftover``; it bounds the error of all three
    moments' acceptance part.
    """
    if spec.cap is not None:
        raise ValueError("the oracle covers uncapped walks only")
    model = spec.model.name
    if model == "bernoulli":
        log_r = math.log(spec.theta1 / spec.theta0) - math.log(
            (1.0 - spec.theta1) / (1.0 - spec.theta0))
        shift = -math.log((1.0 - spec.theta1) / (1.0 - spec.theta0))
        step = np.array([1.0 - theta, theta])
        lost = 0.0
    else:
        log_r = math.log(spec.theta1 / spec.theta0)
        shift = spec.theta1 - spec.theta0
        top = int(math.ceil(theta + 14.0 * math.sqrt(theta) + 40.0))
        step = stats.poisson.pmf(np.arange(top + 1), theta)
        lost = float(stats.poisson.sf(top, theta))
    log_a = math.log((1.0 - spec.beta) / spec.alpha)
    log_b = math.log(spec.beta / (1.0 - spec.alpha))
    state = np.array([1.0])  # state[s]: undecided mass with running sum s
    accept = asn = second = leftover = 0.0
    for n in range(1, horizon + 1):
        leftover += lost * float(state.sum())
        state = np.convolve(state, step)
        llr = np.arange(len(state)) * log_r - n * shift
        up = llr >= log_a
        down = llr <= log_b
        hit = float(state[up].sum()) + float(state[down].sum())
        accept += float(state[down].sum())
        asn += n * hit
        second += n * n * hit
        state = np.where(up | down, 0.0, state)
        if float(state.sum()) < eps:
            break
    leftover += float(state.sum())
    return accept, asn, second, leftover


def ref_split(plan, hyp: int, theta: float, bound: float, side: str) -> float:
    """Pr{a decision other than ``hyp`` with terminal mean on one side of bound}."""
    state = np.array([1.0])
    prev = 0
    total = 0.0
    for rule in plan.stages:
        inc, _ = _increment(plan.model.name, rule.n - prev, theta)
        state = np.convolve(state, inc)
        prev = rule.n
        dec = decision_array(rule, len(state))
        z = np.arange(len(state)) / rule.n
        on_side = z <= bound + 1e-12 if side == "low" else z >= bound - 1e-12
        total += float(state[(dec != 0) & (dec != hyp + 1) & on_side].sum())
        state = np.where(dec == 0, state, 0.0)
    return total


def _kl(model: str, z: float, t: float) -> float:
    if model == "bernoulli":
        return float(rel_entr(z, t) + rel_entr(1.0 - z, 1.0 - t))
    return float(rel_entr(z, t) - z + t)


def ref_limits(tag: str, model: str, n: int, k: int, delta: float):
    """Reference (lower, upper) confidence limits for sum count k of n.

    Exact limits are the beta (Clopper-Pearson) and gamma quantiles; the
    large-deviation limits are roots of ``n * KL(z, theta) = -log delta``.
    """
    z = k / n
    if tag == "exact":
        if model == "bernoulli":
            lo = 0.0 if k == 0 else float(stats.beta.ppf(delta, k, n - k + 1))
            up = 1.0 if k == n else float(stats.beta.isf(delta, k + 1, n - k))
        else:
            lo = 0.0 if k == 0 else float(stats.gamma.ppf(delta, k)) / n
            up = float(stats.gamma.isf(delta, k + 1)) / n
        return lo, up
    f = lambda t: n * _kl(model, z, t) + math.log(delta)
    lo = 0.0 if k == 0 else brentq(f, 1e-300, z, xtol=1e-15)
    if model == "bernoulli":
        up = 1.0 if k == n else brentq(f, z, 1.0 - 1e-16, xtol=1e-15)
    else:
        hi = max(2.0 * z, 1.0)
        while f(hi) < 0.0:
            hi *= 2.0
        up = brentq(f, z, hi, xtol=1e-15)
    return lo, up


def check_limits(tag: str, model: str, n: int, delta: float, ks, values,
                 label: str) -> list[str]:
    """``values[j] = (lower, upper)`` at count ``ks[j]`` against the reference."""
    out = []
    for k, (lo, up) in zip(ks, values):
        rlo, rup = ref_limits(tag, model, n, k, delta)
        if abs(lo - rlo) > 1e-9 or abs(up - rup) > 1e-9 * max(1.0, rup):
            out.append(f"{label}: n={n} k={k} limits ({lo}, {up}) vs ({rlo}, {rup})")
    return out


# ----------------------------------------------------------------------
# property checks on plans

def _support_top(plan, n: int):
    return n if plan.model.name == "bernoulli" else None


def check_windows(plan, label: str) -> list[str]:
    """Windows ordered and disjoint at every stage; the final stage closed."""
    out = []
    for rule in plan.stages:
        cursor = -1
        for win in rule.windows:
            if win is None:
                continue
            lo, hi = win
            if lo <= cursor or (hi is not None and hi < lo):
                out.append(f"{label}: stage {rule.n} windows overlap or are unordered")
                break
            cursor = math.inf if hi is None else hi
    last = plan.stages[-1]
    top = _support_top(plan, last.n)
    spans = [w for w in last.windows if w is not None]
    nxt = 0
    for lo, hi in spans:
        if lo != nxt:
            out.append(f"{label}: final stage leaves counts {nxt}..{lo - 1} undecided")
            break
        nxt = math.inf if hi is None else hi + 1
    else:
        if (top is None and nxt != math.inf) or (top is not None and nxt != top + 1):
            out.append(f"{label}: final stage is not closed at its top")
    return out


def _exact_sets(model: str, n: int, lo_ref: float, hi_ref: float,
                alpha: float, beta: float):
    """Reference (first reject count, last accept count) from scipy tails.

    Returns None entries for empty sets and flags counts whose tail lies
    within a relative 1e-9 of its level, where two correct tail
    evaluations may disagree.
    """
    if model == "bernoulli":
        ks = np.arange(n + 1)
        up_tail = stats.binom.sf(ks - 1, n, lo_ref)
        low_tail = stats.binom.cdf(ks, n, hi_ref)
    else:
        top = int(math.ceil(n * hi_ref + 30.0 * math.sqrt(n * hi_ref + 1.0) + 60.0))
        ks = np.arange(top + 1)
        up_tail = stats.poisson.sf(ks - 1, n * lo_ref)
        low_tail = stats.poisson.cdf(ks, n * hi_ref)
    a_set = up_tail <= alpha
    b_set = low_tail <= beta
    a = int(np.argmax(a_set)) if a_set.any() else None
    b = int(len(b_set) - 1 - np.argmax(b_set[::-1])) if b_set.any() else None
    near = (np.abs(up_tail - alpha) <= 1e-9 * alpha).any() or \
        (np.abs(low_tail - beta) <= 1e-9 * beta).any()
    return a, b, near


def _chernoff_sets(model: str, n: int, lo_ref: float, hi_ref: float,
                   alpha: float, beta: float):
    """Reference sets for the large-deviation family, from the rate function."""
    ks = np.arange(n + 1) if model == "bernoulli" else \
        np.arange(int(math.ceil(8 * n * hi_ref + 64)) + 1)
    z = ks / n

    def rate(t):
        if model == "bernoulli":
            return rel_entr(z, t) + rel_entr(1.0 - z, 1.0 - t)
        return rel_entr(z, t) - z + t

    ra, rb = n * rate(lo_ref), n * rate(hi_ref)
    a_set = (z >= lo_ref) & (ra >= -math.log(alpha))
    b_set = (z <= hi_ref) & (rb >= -math.log(beta))
    a = int(np.argmax(a_set)) if a_set.any() else None
    b = int(len(b_set) - 1 - np.argmax(b_set[::-1])) if b_set.any() else None
    near = (np.abs(ra + math.log(alpha)) <= 1e-9).any() or \
        (np.abs(rb + math.log(beta)) <= 1e-9).any()
    return a, b, near


def check_stage_counts(plan, label: str) -> list[str]:
    """Reject/accept counts of every untied stage, and every tie region,
    against reference tails at the effective per-stage levels."""
    tag = plan.family.tag
    if tag not in ("exact", "chernoff"):
        return []
    sets = _exact_sets if tag == "exact" else _chernoff_sets
    out = []
    for rule in plan.stages:
        for j in range(plan.m - 1):
            a, b, near = sets(plan.model.name, rule.n, plan.zone_lo[j],
                              plan.zone_hi[j], plan.alphas[j], plan.betas[j])
            if near:
                continue
            tie = rule.ties[j]
            if a is not None and b is not None and a <= b:
                if tie != (a, b):
                    out.append(f"{label}: stage {rule.n} tie {tie} != reference {(a, b)}")
                continue
            if tie is not None:
                out.append(f"{label}: stage {rule.n} has tie {tie}, reference has none")
                continue
            # The window below boundary j ends at its last accept count and
            # the window above it starts at its first reject count; an
            # empty reference set leaves that window unreachable.
            below, above = rule.windows[j], rule.windows[j + 1]
            if below is not None and below[1] != b:
                out.append(f"{label}: stage {rule.n} accept edge {below[1]} != {b}")
            if above is not None and above[0] != a:
                out.append(f"{label}: stage {rule.n} reject edge {above[0]} != {a}")
    return out


def check_sample_cap(plan, label: str) -> list[str]:
    """``stage_ns[-1] <= sample_cap`` with the cap recomputed from the rate."""
    if plan.kind != "one-sided" or plan.family.tag not in ("exact", "chernoff"):
        return []
    t0, t1 = plan.theta0, plan.theta1
    mid = 0.5 * (t0 + t1)
    if plan.model.name == "bernoulli":
        kl = lambda t: float(rel_entr(mid, t) + rel_entr(1 - mid, 1 - t))
    else:
        kl = lambda t: float(rel_entr(mid, t) - mid + t)
    cap = max(1, math.ceil(max(math.log(plan.alphas[0]) / -kl(t0),
                               math.log(plan.betas[0]) / -kl(t1))) - 1)
    out = []
    if plan.stage_ns[-1] > cap:
        out.append(f"{label}: final size {plan.stage_ns[-1]} exceeds the cap {cap}")
    if plan.sample_cap is not None and plan.stage_ns[-1] > plan.sample_cap:
        out.append(f"{label}: final size exceeds the plan's own cap")
    return out


def check_plan(plan, label: str) -> list[str]:
    return (check_windows(plan, label) + check_stage_counts(plan, label)
            + check_sample_cap(plan, label))


def check_two_prop_plan(plan, label: str) -> list[str]:
    last = plan.stages[-1]
    if (last.decision == -1).any():
        return [f"{label}: final two-sample stage has continuation cells"]
    return []


def zone_rejections(plan, at) -> list[float]:
    """Per-zone rejection bound in the verify_risk sense, from an OC oracle.

    ``at(theta)`` returns (accept, slack); edge zones are read at their
    inner endpoint and middle zones as the endpoint sum of wrong
    acceptances.
    """
    m = plan.m
    out = []
    for i in range(m):
        if i == 0:
            acc, sl = at(plan.zone_lo[0])
            out.append(1.0 - acc[0] + sl)
        elif i == m - 1:
            acc, sl = at(plan.zone_hi[-1])
            out.append(1.0 - acc[m - 1] + sl)
        else:
            aa, s1 = at(plan.zone_hi[i - 1])
            ab, s2 = at(plan.zone_lo[i])
            out.append(float(aa[:i].sum() + ab[i + 1:].sum()) + s1 + s2)
    return out


def check_budgets(plan, deltas, label: str) -> list[str]:
    """A tuned plan meets each zone's rejection budget by the reference DP."""
    def at(theta):
        acc, _, _, slack, _ = ref_oc(plan, theta)
        return acc, slack
    rej = zone_rejections(plan, at)
    return [f"{label}: zone {i} rejection {r:.3g} exceeds budget {d}"
            for i, (r, d) in enumerate(zip(rej, deltas)) if r > d + ABS_TOL]


def check_oc_rows(plan, report, label: str) -> list[str]:
    """OC rows against the reference DP; rows sum to 1; edges monotone."""
    out = []
    for t, theta in enumerate(report.thetas):
        acc, asn, stop, slack, _ = ref_oc(plan, float(theta))
        tol = ABS_TOL + slack + float(report.truncation_bound[t])
        if np.max(np.abs(report.accept[t] - acc)) > tol:
            out.append(f"{label}: accept at {theta} differs from reference")
        if np.max(np.abs(report.stage_stop[t] - stop)) > tol:
            out.append(f"{label}: stopping distribution at {theta} differs")
        if abs(report.asn[t] - asn) > 1e-9 * max(1.0, asn) + plan.stage_ns[-1] * tol:
            out.append(f"{label}: expected sample number at {theta} differs")
        if abs(float(report.accept[t].sum()) - 1.0) > \
                float(report.truncation_bound[t]) + 1e-12:
            out.append(f"{label}: acceptances at {theta} do not sum to 1")
    order = np.argsort(report.thetas)
    first = report.accept[order, 0]
    last = report.accept[order, -1]
    slack = float(np.max(report.truncation_bound)) + 1e-12
    if np.any(np.diff(first) > slack) or np.any(np.diff(last) < -slack):
        out.append(f"{label}: edge acceptance is not monotone in theta")
    return out


def check_verify(plan, report, label: str) -> list[str]:
    """verify_risk zone bounds against the reference zone rejections."""
    slacks = []

    def at(theta):
        acc, _, _, slack, _ = ref_oc(plan, theta)
        slacks.append(slack)
        return acc, slack
    rej = zone_rejections(plan, at)
    tol = ABS_TOL + 2.0 * max(slacks) + 2.0 * report.truncation_bound
    return [f"{label}: zone {z.zone} bound {z.bound:.6g} vs reference {r:.6g}"
            for z, r in zip(report.zones, rej) if abs(z.bound - r) > tol]


def check_split(plan, args, value, label: str) -> list[str]:
    ref = ref_split(plan, *args)
    if abs(value - ref) > ABS_TOL:
        return [f"{label}: rejection split {args} = {value} vs reference {ref}"]
    return []


def check_two_prop_rows(plan, points, results, label: str) -> list[str]:
    out = []
    for (px, py), (acc, ax, ay) in zip(points, results):
        racc, rax, ray = ref_two_prop_oc(plan, px, py)
        if np.max(np.abs(acc - racc)) > ABS_TOL or \
                abs(ax - rax) > 1e-9 * max(1.0, rax) or \
                abs(ay - ray) > 1e-9 * max(1.0, ray):
            out.append(f"{label}: two-sample OC at ({px}, {py}) differs")
    return out


def check_certificate(plan, hyp: int, delta: float, cert, rng,
                      label: str, grid: int = 15, points: int = 8) -> list[str]:
    """Verdict against a grid oracle; sandwich bounds at seeded points."""
    out = []
    lo_band, hi_band = plan.zone_band(hyp)
    worst = 0.0
    ps = np.linspace(0.0, 1.0, grid)
    for px in ps:
        for py in ps:
            if lo_band - 1e-12 <= px - py <= hi_band + 1e-12:
                acc, _, _ = ref_two_prop_oc(plan, float(px), float(py))
                worst = max(worst, 1.0 - float(acc[hyp]))
    if cert.verdict == "proved" and worst > delta + ABS_TOL:
        out.append(f"{label}: proved, but the grid reaches {worst:.4g} > {delta}")
    if cert.verdict == "disproved":
        w = cert.witness
        acc, _, _ = ref_two_prop_oc(plan, 0.5 * (w.px_lo + w.px_hi),
                                    0.5 * (w.py_lo + w.py_hi))
        if 1.0 - float(acc[hyp]) <= delta:
            out.append(f"{label}: disproved, but the witness centre meets the budget")
    picks = rng.choice(len(cert.trace), size=min(points, len(cert.trace)),
                       replace=False) if cert.trace else []
    for j in picks:
        rect, lo, up, _ = cert.trace[int(j)]
        px = float(rng.uniform(rect.px_lo, rect.px_hi))
        py = float(rng.uniform(rect.py_lo, rect.py_hi))
        acc, _, _ = ref_two_prop_oc(plan, px, py)
        rej = 1.0 - float(acc[hyp])
        if not (lo - ABS_TOL <= rej <= up + ABS_TOL):
            out.append(f"{label}: sandwich [{lo:.4g}, {up:.4g}] misses {rej:.4g}")
    return out


def _within(freq, slack, p, trials) -> bool:
    se = math.sqrt(max(p * (1.0 - p), 0.0) / trials)
    return abs(freq - p) <= SIM_SIGMAS * se + 1e-12 + slack


def check_sim_plan(plan, rep, label: str) -> list[str]:
    """Simulated frequencies and mean sample count within exact errors."""
    acc, asn, _, slack, second = ref_oc(plan, rep.theta)
    out = []
    for i, f in enumerate(rep.accept_freq):
        if not _within(f, slack, float(acc[i]), rep.trials):
            out.append(f"{label}: accept_h{i} {f} vs exact {acc[i]:.6f}")
    sd = math.sqrt(max(second - asn * asn, 0.0) / rep.trials)
    if abs(rep.asn - asn) > SIM_SIGMAS * sd + 1e-9 + plan.stage_ns[-1] * slack:
        out.append(f"{label}: mean samples {rep.asn} vs exact {asn:.4f}")
    if rep.max_samples > plan.stage_ns[-1]:
        out.append(f"{label}: a trial ran past the final stage")
    return out


def check_sim_sprt(spec, rep, label: str) -> list[str]:
    accept, asn, second, left = ref_sprt(spec, rep.theta)
    out = []
    if not _within(rep.accept_freq[0], left, accept, rep.trials):
        out.append(f"{label}: SPRT accept_h0 {rep.accept_freq[0]} vs exact {accept:.6f}")
    sd = math.sqrt(max(second - asn * asn, 0.0) / rep.trials)
    if abs(rep.asn - asn) > SIM_SIGMAS * sd + 1e-9 + left * 1e6:
        out.append(f"{label}: SPRT mean samples {rep.asn} vs exact {asn:.4f}")
    return out
