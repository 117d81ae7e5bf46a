"""Seeded Monte Carlo for empirical operating characteristics.

Reproducibility contract: trial t draws from a dedicated substream derived
from (seed, t), so results do not depend on execution order and any two
runners given the same seed and trial index see the same observations.
That per-trial common-random-numbers coupling is what makes the
plan-versus-baseline sample-count contrasts sharp at desk-scale trial
counts.

Trial t's substream is ``Generator(PCG64(SeedSequence(entropy=seed,
spawn_key=(t,))))``.  Building those one at a time costs more than a short
trial, so ``_trial_rngs`` derives the same states in bulk: it runs numpy's
SeedSequence hash (``mix_entropy`` and ``generate_state``, in uint32
arithmetic) over a chunk of trial indices at once, applies PCG64's
two-step seeding (``pcg64_set_seed``) in Python integers and loads each
state into one reused generator.  One trial loop (``_trials``) then
decides every runner, holding at most ``_BLOCK_CELLS`` draws at once.  A
one-sample runner hands out its count-edge table (``plans._Edges``) in
chunks of sizes: a plan all its stages at once, an SPRT
1..``sprt._SPRT_CHUNK`` and then ``sprt._SPRT_GROWTH``-fold wider rounds.
Each undecided trial draws up to a chunk's last size from the start of its
stream into a row (a row wider than ``_BLOCK_CELLS`` is a block of its own)
and stops at the first of the chunk's sizes that decides.  Two-sample
plans use the same loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InfeasibleDesignError, UnsupportedModelError
from .ocexact import _csv_text
from .plans import MultiHypPlan, _is_integer
from .sprt import SprtSpec
from .twoprop import _BERN, CONTINUE, TwoPropPlan, _check_point

__all__ = ["SimReport", "CompareReport", "simulate", "simulate_two_prop", "compare",
           "reports_csv"]

_BLOCK_CELLS = 1 << 16  # draws a simulation holds at once
_SEED_CHUNK = 1 << 12   # trial states hashed per numpy pass
_MAX_TRIALS = 1 << 32   # trial indices fit the one-word spawn key hashed below

_M32, _M128 = (1 << 32) - 1, (1 << 128) - 1
# numpy's SeedSequence hash constants and PCG64's 128-bit LCG multiplier
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _check_run(trials, seed) -> None:
    """Raise unless ``trials`` is an integer in 1..2**32 and ``seed`` a
    nonnegative one."""
    if not _is_integer(trials) or not 1 <= trials <= _MAX_TRIALS:
        raise DomainError(f"trials must be an integer in 1..2**32, got {trials!r}")
    if not _is_integer(seed) or seed < 0:
        raise DomainError(f"seed must be a nonnegative integer, got {seed!r}")


def _seed_states(seed: int, ts: np.ndarray) -> np.ndarray:
    """``SeedSequence(entropy=seed, spawn_key=(t,)).generate_state(4, np.uint64)``
    for each t < 2**32 of ``ts``, one row each.

    The entropy is the seed's 32-bit words, low first and zero-padded to
    the pool's four, then t's one word.  Only that last word differs
    between trials, so the pool is hashed once and t mixed into it as an
    array.  One-element arrays, not numpy scalars, carry the common words:
    their uint32 products wrap without an overflow warning.
    """
    seed, words = int(seed), []
    while True:
        words.append(np.array([seed & _M32], dtype=np.uint32))
        seed >>= 32
        if not seed:
            break
    words += [np.zeros(1, dtype=np.uint32)] * (4 - len(words))
    words.append(ts.astype(np.uint32))
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * _MULT_A & _M32
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        out = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
        return out ^ (out >> np.uint32(16))

    pool = [hashmix(w) for w in words[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(w))
    state = np.empty((len(ts), 8), dtype=np.uint32)
    const = _INIT_B
    for i in range(8):
        value = pool[i % 4] ^ np.uint32(const)
        const = const * _MULT_B & _M32
        value = value * np.uint32(const)
        state[:, i] = value ^ (value >> np.uint32(16))
    # word pairs read little-endian, as generate_state reads them on any host
    return state.astype("<u4").view("<u8").astype(np.uint64)


def _trial_rngs(seed: int, ts: np.ndarray):
    """Yield trial t's generator for each trial index t of ``ts``, in order.

    Each is in the state of ``Generator(PCG64(SeedSequence(entropy=seed,
    spawn_key=(t,))))``, but one generator is reloaded for every trial:
    finish drawing from one before asking for the next.
    """
    bits = np.random.PCG64(0)
    rng = np.random.Generator(bits)
    for start in range(0, len(ts), _SEED_CHUNK):
        for s_hi, s_lo, i_hi, i_lo in _seed_states(seed, ts[start:start + _SEED_CHUNK]).tolist():
            # pcg64_set_seed: the increment is 2 * initseq + 1, and the state
            # is one LCG step from 0, plus initstate, then one more step
            inc = ((i_hi << 64 | i_lo) << 1 | 1) & _M128
            state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _M128
            bits.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                          "has_uint32": 0, "uinteger": 0}
            yield rng


def _blocks(seed: int, ts: np.ndarray, width: int, fill):
    """(slice of ``ts``, block) for each block of the trials ``ts``, in order.

    A block holds one int64 row of ``width`` per trial, at most
    ``_BLOCK_CELLS`` cells unless one row is wider; ``fill(rng, row)``
    writes a trial's draws from its generator.
    """
    rows = max(1, _BLOCK_CELLS // width)
    rngs = _trial_rngs(seed, ts)
    for start in range(0, len(ts), rows):
        block = np.empty((min(rows, len(ts) - start), width), dtype=np.int64)
        for row, rng in zip(block, rngs):
            fill(rng, row)
        yield slice(start, start + len(block)), block


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


def _trials(seed: int, trials: int, chunks, fill, decide):
    """(accepted, nstop, forced) per trial.  For each (width, chunk) of
    ``chunks``, each undecided trial fills a row of its first ``width``
    draws, and ``decide(chunk, block)`` returns which rows decided and their
    sample counts, hypotheses and forced flags."""
    accepted, nstop = np.empty((2, trials), dtype=np.int64)
    forced = np.zeros(trials, dtype=bool)
    pending = np.arange(trials)
    for width, chunk in chunks:
        undecided = []
        for rows, block in _blocks(seed, pending, width, fill):
            done, n, label, force = decide(chunk, block)
            part = pending[rows]
            ts = part[done]
            nstop[ts], accepted[ts], forced[ts] = n, label, force
            undecided.append(part[~done])
        pending = np.concatenate(undecided)
        if not len(pending):
            return accepted, nstop, forced
    raise InfeasibleDesignError("plan is not closed: no decision at the final stage")


def _decide_counts(edges, block):
    """``_trials``'s ``decide`` for a chunk of a count-edge table."""
    sums, cols = np.cumsum(block, axis=1, out=block), len(edges.ns)
    # consecutive sizes up to the row's end (every SPRT chunk) are read as a view
    sums = sums[:, -cols:] if edges.ns[0] + cols > block.shape[1] else sums[:, edges.ns - 1]
    hit = (sums <= edges.below[:, 0]) | (sums >= edges.above[:, 0])
    for c in range(1, edges.below.shape[1]):
        hit &= (sums <= edges.below[:, c]) | (sums >= edges.above[:, c])
    done = hit.any(axis=1)
    j = hit[done].argmax(axis=1)
    k = sums[done, j]
    return (done, edges.ns[j], (k[:, None] >= edges.above[j, edges.zones]).sum(axis=1),
            (j == len(edges.ns) - 1) & (edges.band[0] < k) & (k < edges.band[1]))


def simulate_two_prop(plan: TwoPropPlan, p_x: float, p_y: float, trials: int,
                      seed: int) -> SimReport:
    """Empirical summary for a two-sample plan; ``theta`` is p_x - p_y."""
    _check_run(trials, seed)
    _check_point(p_x, p_y)
    n_x = plan.stages[-1].n_x
    sizes = np.array([st.n_x + st.n_y for st in plan.stages])

    def fill(rng, row):  # the x arm's draws, then the y arm's, from one stream
        row[:n_x] = _BERN.draw(rng, n_x, p_x)
        row[n_x:] = _BERN.draw(rng, len(row) - n_x, p_y)

    def decide(stages, block):
        kx = np.cumsum(block[:, :n_x], axis=1)
        ky = np.cumsum(block[:, n_x:], axis=1)
        dec = np.stack([st.decision[kx[:, st.n_x - 1], ky[:, st.n_y - 1]] for st in stages],
                       axis=1)
        hit = dec != CONTINUE
        done = hit.any(axis=1)
        j = hit[done].argmax(axis=1)
        return done, sizes[j], dec[done, j], False

    accepted, nstop, _ = _trials(seed, trials, [(int(sizes[-1]), plan.stages)], fill, decide)
    return _summarize(p_x - p_y, trials, seed, accepted, nstop, plan.m, None)


def simulate(runner, theta: float, trials: int, seed: int) -> SimReport:
    """Empirical acceptance, sample-count, and stopping summary for one mean."""
    _check_run(trials, seed)
    if not isinstance(runner, (MultiHypPlan, SprtSpec)):
        raise UnsupportedModelError(f"cannot simulate runner of type {type(runner).__name__}")
    model = runner.model
    model.validate_theta(theta)

    def fill(rng, row):
        row[:] = model.draw(rng, len(row), theta)

    chunks = ((int(edges.ns[-1]), edges) for edges in runner._edge_chunks())
    accepted, nstop, forced = _trials(seed, trials, chunks, fill, _decide_counts)
    m = runner.m if isinstance(runner, MultiHypPlan) else 2
    return _summarize(theta, trials, seed, accepted, nstop, m, forced)


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
    thetas = [float(t) for t in theta_grid]
    if not runners or not thetas:
        raise DomainError("compare needs at least one runner and one theta")
    if names is None:
        names = [f"runner_{i+1}" for i in range(len(runners))]
    names = [str(x) for x in names]
    if len(names) != len(runners):
        raise DomainError("one name per runner required")
    rows = []
    for theta in thetas:
        for name, runner in zip(names, runners):
            rows.append((name, simulate(runner, theta, trials, seed)))
    return CompareReport(names=tuple(names), thetas=tuple(thetas),
                         trials=trials, seed=seed, rows=rows)
