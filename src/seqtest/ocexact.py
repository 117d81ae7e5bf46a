"""Exact operating characteristic and sample-size distribution of a one-sample plan.

Every exact evaluator here runs one forward recursion, ``propagate``
(Jennison and Turnbull, *Group Sequential Methods*, 2000, ch. 19).  It
carries the sub-probability array of the running sum over the undecided
event.  At each stage it convolves in the increment pmf, hands the state
to the caller's reduction and then drops the decided cells.  Mass still
undecided after the last stage means the plan is not closed and raises
``InfeasibleDesignError``.  Two-sample plans run their own grid recursion
in ``twoprop``.

The state is (rows, cells): a row per parameter point, so a theta grid
goes through together, over the counts from an offset.  After each stage
only the stage's undecided span is kept, from the first to the last
undecided count its model can reach (``MultiHypPlan.continue_spans``,
computed once per plan), so a stage costs span x increment rather than
every count x increment.  The reduction labels the states' cells, and no
other counts, in one pass from the plan's count-edge table (``_cell_bins``).
The pmf rows of a batch come from one ``increment_pmf`` call per distinct
increment, with every theta of the batch at once.  Each row is convolved
with its own pmf row, every output cell adding its products in state-cell
order, and masses are summed cell by cell, so a row's result does not
depend on the other rows of its batch: ``oc_curve`` rows equal
``oc_single`` bit for bit.

For Bernoulli data every convolution is over a finite support and the
result is exact to float arithmetic.  For Poisson data the increment pmf
is truncated once its tail mass drops below 1e-15; the discarded mass is
accumulated per parameter point and reported as ``truncation_bound`` so
every reported probability is certified to that absolute slack.

``verify_risk`` turns the exact evaluations at the zone endpoints into a
zone-by-zone verdict, assuming each wrong acceptance is monotone beyond
its own boundary: then one endpoint evaluation settles an edge zone, and
the wrong-acceptance sum at the two endpoints bounds a middle one.  That
holds for two-hypothesis plans, whose stage windows are ordered along the
count: each increment is stochastically increasing in theta, so a coupling
argument applies (the 1-D case of ``twoprop._monotone``).  A plan with
more hypotheses can have undecided counts on both sides of a middle
window; its verdict is then exact at the endpoints but no proof over the
zones.  All the endpoints go through one batched pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InfeasibleDesignError
from .plans import MultiHypPlan

__all__ = ["OCReport", "RiskReport", "oc_single", "oc_curve", "verify_risk",
           "rejection_split"]

# Cells of the running-sum states one batch of thetas may keep (about 0.5 MB).
_BATCH_CELLS = 1 << 16


@dataclass
class OCReport:
    """Exact acceptance curves and stopping behaviour over a parameter grid."""

    thetas: np.ndarray                 # (t,)
    accept: np.ndarray                 # (t, m) acceptance probability per hypothesis
    asn: np.ndarray                    # (t,) expected sample number
    stage_stop: np.ndarray             # (t, s) stopping-stage distribution
    truncation_bound: np.ndarray       # (t,) absolute slack from pmf truncation
    stage_ns: tuple[int, ...]

    def to_csv(self) -> str:
        head = ["theta", *(f"accept_h{i}" for i in range(self.accept.shape[1])), "asn",
                *(f"stop_stage_{i + 1}" for i in range(len(self.stage_ns))), "truncation_bound"]
        return _csv_text(head, np.column_stack((self.thetas, self.accept, self.asn,
                                                self.stage_stop, self.truncation_bound)))


def _csv_text(head, rows) -> str:
    """CSV lines of the header and each row: strings as they are, numbers as
    the shortest decimals that round-trip their float values."""
    return "".join(",".join(v if isinstance(v, str) else repr(float(v)) for v in row) + "\n"
                   for row in [head, *rows])


def _convolve_rows(state: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Full convolution of each row of ``state`` with the same row of ``probs``.

    One shifted add per state cell, or per pmf tap when there are fewer
    taps, the last tap first; either way every output cell adds its
    products in state-cell order.  Zero cells and taps add exact zeros, so
    a row's result does not depend on the other rows, on the width they
    pad it to or on which loop ran.
    """
    width, taps = state.shape[1], probs.shape[1]
    out = np.zeros((len(probs), width + taps - 1))
    if not width:
        return out
    # The first shifted term is written, not added: 0.0 + x is x.
    if width <= taps:
        np.multiply(state[:, :1], probs, out=out[:, :taps])
        for j in range(1, width):
            out[:, j:j + taps] += state[:, j:j + 1] * probs
    else:
        np.multiply(probs[:, -1:], state, out=out[:, taps - 1:])
        for d in range(taps - 2, -1, -1):
            out[:, d:d + width] += probs[:, d:d + 1] * state
    return out


def _row_mass(state: np.ndarray) -> np.ndarray:
    """Mass of each row, summed in cell order so zero cells leave it unchanged."""
    return np.cumsum(state, axis=1)[:, -1] if state.shape[1] else np.zeros(len(state))


def propagate(stages, pmf):
    """Run the one-sample forward recursion over ``stages``, one yield per stage.

    ``stages`` lists (n, windows, span) per stage: the cumulative sample
    size (strictly increasing), the stage's ``StageRule.windows`` and its
    (lo, hi, holes) span as ``MultiHypPlan.continue_spans`` gives it.
    ``pmf(m)`` gives (pmf, truncated mass) of an m-sample increment, asked
    once per distinct m: a (taps,) array and a float, or a (rows, taps) and
    a (rows,) array, one row per parameter point of a batch as
    ``increment_pmf`` returns them.

    The state is (rows, cells) over the counts offset, offset + 1, ...;
    each row is convolved with its own pmf row by ``_convolve_rows``, and
    after each stage only the span's cells are kept, the windows inside it
    cleared.  The kernel never writes to a state once yielded, so a caller
    may keep it.

    Yields (stage index, state, offset, truncated mass so far), the
    truncated mass per row (0.0 until a pmf truncates).  Mass left after
    the last stage raises ``InfeasibleDesignError``.
    """
    pmfs = {}
    state = np.array([[1.0]])
    offset = prev = 0
    truncated = 0.0
    for idx, (n, windows, span) in enumerate(stages):
        m = n - prev
        entry = pmfs.get(m)
        if entry is None:
            probs, lost = pmf(m)
            entry = pmfs[m] = (
                probs[None] if probs.ndim == 1 else probs,
                lost if (lost.any() if isinstance(lost, np.ndarray) else lost) else None)
        probs, lost = entry
        if lost is not None:
            truncated = truncated + lost * _row_mass(state)
        state = _convolve_rows(state, probs)
        prev = n
        yield idx, state, offset, truncated
        # keep the span's cells, with a copy that clears any decided ones in it
        lo, hi, holes = span
        start = max(lo - offset, 0)
        stop = state.shape[1] if hi is None else max(min(hi + 1 - offset, state.shape[1]), start)
        state = state[:, start:stop]
        offset += start
        if holes:
            state = state.copy()
            for win in filter(None, windows):
                end = state.shape[1] if win[1] is None else win[1] + 1 - offset
                state[:, max(win[0] - offset, 0):max(end, 0)] = 0.0
    if state.any():
        raise InfeasibleDesignError("plan leaves mass undecided after its last stage")


def _cell_bins(plan: MultiHypPlan, offsets, widths) -> np.ndarray:
    """Per cell of a batch's states, stage i holding the counts offsets[i]
    .. offsets[i] + widths[i] - 1, its bin: stage * (m + 1) + 1 + the
    hypothesis its count decides, or stage * (m + 1) where it continues.

    Along the count, gap j of a stage (column j of ``plan._edges``) holds
    below[j] + 1 .. above[j] - 1 and window j above[j] .. below[j + 1]; a
    running maximum over these cuts empties the gap and window a missing
    window leaves.  Each run's bin is repeated over its counts inside the
    state.  The plan keeps the cells of the last layout, which only a
    Poisson plan's pmf truncation changes.
    """
    cells = plan._cell_memo.get((offsets, widths))
    if cells is None:
        below, above, m = plan._edges.below, plan._edges.above, plan.m
        lo = np.array(offsets)[:, None]
        hi = lo + np.array(widths)[:, None]
        cuts = np.empty((len(lo), 2 * m + 2), dtype=np.int64)
        cuts[:, 0:-1:2] = np.minimum(below, above - 1) + 1  # below + 1, kept below _NO_COUNT
        cuts[:, 1:-1:2], cuts[:, -1:] = above[:, :-1], hi
        cuts = np.clip(np.maximum.accumulate(cuts, axis=1), lo, hi)
        run = np.arange(2 * m + 1)
        bins = run % 2 * (run // 2 + 1) + (m + 1) * np.arange(len(lo))[:, None]
        cells = bins.ravel().repeat((cuts[:, 1:] - cuts[:, :-1]).ravel())
        cells.setflags(write=False)  # kept and shared with every later call
        plan._cell_memo.clear()
        plan._cell_memo[offsets, widths] = cells
    return cells


def _label_mass(plan: MultiHypPlan, states, offsets) -> np.ndarray:
    """(stage, row, hypothesis) mass of the decided cells of every stage.

    ``states`` and ``offsets`` list each stage's state and offset as
    ``propagate`` yields them.  One bincount adds the cells, the bin of a
    cell at (row, its ``_cell_bins`` bin); each bin adds its cells in order,
    so zero cells leave it unchanged.
    """
    rows, size = len(states[0]), (plan.m + 1) * len(states)
    bins = _cell_bins(plan, tuple(offsets), tuple(state.shape[1] for state in states))
    mass = np.bincount((bins + size * np.arange(rows)[:, None]).ravel(),
                       np.concatenate(states, axis=1).ravel(), rows * size)
    return mass.reshape(rows, len(states), plan.m + 1).transpose(1, 0, 2)[..., 1:]


def _one_sample(plan: MultiHypPlan, thetas):
    # one theta takes the scalar call, which skips the padding a batch needs
    thetas = thetas[0] if len(thetas) == 1 else np.asarray(thetas, dtype=float)
    return propagate([(rule.n, rule.windows, span)
                      for rule, span in zip(plan.stages, plan.continue_spans)],
                     lambda m: plan.model.increment_pmf(m, thetas))


def _row_cells(plan: MultiHypPlan, theta: float) -> float:
    """About as many cells as one row's states take over all the stages.

    A state after a stage of n samples reaches at most count n for
    Bernoulli data, and for Poisson data about n theta plus the 1e-15 tails
    of its pmfs, each under 8 standard deviations and 10 counts.
    """
    ns = np.array(plan.stage_ns, dtype=float)
    if plan.model.sum_upper(1) is not None:
        return float(ns.sum() + len(ns))
    mu = ns * theta
    return float((mu + 16.0 * np.sqrt(mu) + 20.0).sum())


def _stage_mass(plan: MultiHypPlan, thetas):
    """(stage, theta, hypothesis) mass of the decisions, and each theta's truncation bound.

    The thetas go through in batches of about ``_BATCH_CELLS`` cells, a row
    taken as wide as that of the largest theta; rows do not depend on their
    batch.
    """
    thetas = [float(theta) for theta in thetas]
    for theta in thetas:
        plan.model.validate_theta(theta)
    size = 1 if len(thetas) == 1 else max(1, int(_BATCH_CELLS // _row_cells(plan, max(thetas))))
    masses, bounds = [], []
    for i in range(0, len(thetas), size):
        batch = thetas[i:i + size]
        _, states, offsets, truncated = zip(*_one_sample(plan, batch))
        masses.append(_label_mass(plan, states, offsets))
        bounds.append(truncated[-1] + np.zeros(len(batch)))
    return np.concatenate(masses, axis=1), np.concatenate(bounds)


def _oc_rows(plan: MultiHypPlan, thetas):
    """(accept, asn, stopping-stage distribution, truncation bound), one row per theta."""
    mass, bound = _stage_mass(plan, thetas)
    # Stage by stage and hypothesis by hypothesis, in order.
    accept = np.add.accumulate(mass, axis=0)[-1]
    stop = np.add.accumulate(mass, axis=2)[..., -1]
    ns = np.array(plan.stage_ns, dtype=float)[:, None]
    asn = np.add.accumulate(ns * stop, axis=0)[-1] + ns[-1] * bound
    return accept, asn, stop.T, bound


def oc_single(plan: MultiHypPlan, theta: float):
    """(accept vector, asn, stopping-stage distribution, truncation bound)."""
    accept, asn, stop, bound = _oc_rows(plan, [theta])
    return accept[0], float(asn[0]), stop[0], float(bound[0])


def oc_curve(plan: MultiHypPlan, thetas) -> OCReport:
    """``oc_single`` at every point of a grid, the points propagated together."""
    thetas = np.asarray(thetas, dtype=float)
    if thetas.ndim != 1 or len(thetas) == 0:
        raise DomainError("theta grid must be a nonempty 1-D sequence")
    accept, asn, stop, bound = _oc_rows(plan, thetas)
    return OCReport(thetas=thetas, accept=accept, asn=asn, stage_stop=stop,
                    truncation_bound=bound, stage_ns=plan.stage_ns)


def rejection_split(plan: MultiHypPlan, hyp: int, theta: float, bound: float, side: str) -> float:
    """Pr{reject hypothesis ``hyp`` with terminal mean on one side of ``bound``}.

    ``side`` is "low" for terminal mean <= bound, "high" for >= bound.
    Exact up to the same truncation slack as ``oc_single``.
    """
    if side not in ("low", "high"):
        raise DomainError("side must be 'low' or 'high'")
    if not 0 <= hyp < plan.m:
        raise DomainError(f"hypothesis index out of range: {hyp}")
    plan.model.validate_theta(theta)
    if np.isnan(bound):
        raise DomainError("bound must be a number, got nan")
    states, offsets = [], []
    for idx, state, offset, _ in _one_sample(plan, [theta]):
        zs = (offset + np.arange(state.shape[1])) / plan.stages[idx].n
        near = zs <= bound + 1e-12 if side == "low" else zs >= bound - 1e-12
        states.append(state * near)
        offsets.append(offset)
    total = 0.0
    mass = _label_mass(plan, states, offsets)[:, 0]
    for seg in np.delete(mass, hyp, axis=1).ravel().tolist():
        total += seg
    return total


@dataclass
class ZoneVerdict:
    zone: int
    budget: float
    bound: float
    endpoints: tuple[float, ...]
    endpoint_rejection: tuple[float, ...]
    satisfied: bool


@dataclass
class RiskReport:
    satisfied: bool
    zones: list[ZoneVerdict]
    analytic_caps: dict
    truncation_bound: float

    def worst(self) -> ZoneVerdict:
        return max(self.zones, key=lambda z: z.bound - z.budget)


def verify_risk(plan: MultiHypPlan, deltas) -> RiskReport:
    """Exact zone-by-zone risk verdict for per-zone rejection budgets.

    ``deltas[i]`` caps Pr{reject hypothesis i} over zone i: parameters
    below ``zone_lo[0]`` for i = 0, above ``zone_hi[-1]`` for the top
    hypothesis, and between ``zone_hi[i-1]`` and ``zone_lo[i]`` for middle
    ones.  Edge zones are settled by one exact evaluation at the inner
    endpoint (rejection there is monotone toward the boundary); middle
    zones by the endpoint sum of wrong-acceptance probabilities, each of
    which is monotone beyond its own zone boundary.  That is proved for
    two-hypothesis plans only (see the module docstring); with more
    hypotheses "satisfied" is checked at the endpoints, not proved.
    """
    m = plan.m
    deltas = tuple(float(d) for d in deltas)
    if len(deltas) != m:
        raise DomainError(f"need one rejection budget per hypothesis ({m})")
    if not all(0.0 <= d <= 1.0 for d in deltas):
        raise DomainError(f"rejection budgets must lie in [0, 1], got {deltas}")

    # Every distinct zone endpoint in one pass; rows do not depend on
    # their batch, so each equals its own ``oc_single``.
    ends = list(dict.fromkeys((plan.zone_lo[0], plan.zone_hi[-1],
                               *plan.zone_hi[:-1], *plan.zone_lo[1:])))
    mass, truncated = _stage_mass(plan, ends)
    accept = np.add.accumulate(mass, axis=0)[-1]
    rows = {th: (accept[r], float(truncated[r])) for r, th in enumerate(ends)}

    zones: list[ZoneVerdict] = []
    slack = 0.0
    for i in range(m):
        if i in (0, m - 1):
            th = plan.zone_lo[0] if i == 0 else plan.zone_hi[-1]
            acc, dfct = rows[th]
            bound = 1.0 - float(acc[i])
            eps, ths = (bound,), (th,)
        else:
            a, b = plan.zone_hi[i - 1], plan.zone_lo[i]
            acc_a, d1 = rows[a]
            acc_b, d2 = rows[b]
            bound = float(acc_a[:i].sum() + acc_b[i + 1:].sum())
            dfct = d1 + d2
            eps = (1.0 - float(acc_a[i]), 1.0 - float(acc_b[i]))
            ths = (a, b)
        slack = max(slack, dfct)
        zones.append(ZoneVerdict(zone=i, budget=deltas[i],
                                 bound=bound + dfct, endpoints=ths,
                                 endpoint_rejection=eps,
                                 satisfied=bound + dfct <= deltas[i]))

    alphas, betas = plan.alphas, plan.betas
    caps = {}
    for i in range(m):
        hi_a = max(alphas[i:]) if i < m - 1 else 0.0   # boundaries above hypothesis i
        lo_b = max(betas[:i]) if i > 0 else 0.0        # boundaries at or below it
        caps[i] = plan.s * (hi_a + lo_b)
    if m == 2:
        caps["reject_h0"] = plan.s * alphas[0]
        caps["accept_h0_wrongly"] = plan.s * betas[0]
    return RiskReport(
        satisfied=all(z.satisfied for z in zones),
        zones=zones,
        analytic_caps=caps,
        truncation_bound=slack,
    )
