"""Random-walk Metropolis-Hastings baseline over basis weights.

The target is the same linear-Gaussian posterior the conjugate route solves in
closed form, so the sampler exists to validate that route and to demonstrate
its cost.  Its log density is

    -|z - Phi q|^2 / (2 sigma^2) - |q|^2 / 2  =  -q'P q / 2 + b'q + const,

with precision P = Phi'Phi / sigma^2 + I and b = Phi'z / sigma^2, held by a
`GaussianTarget`; the sampler takes no other target.

Proposals perturb a random batch of coordinates (default batch of at most 5)
with isotropic Gaussian noise, the random-walk Metropolis of Metropolis et al.
(1953); the scale is tuned by a doubling/backoff loop to land in the 25-40%
acceptance band (around the 0.234 of Roberts, Gelman & Gilks 1997) before
the main run, over at most TUNE_MAX_ROUNDS probe chains of TUNE_PROBE_STEPS
steps each; a probe reads only its acceptance, so it builds no states.

The proposals are drawn a block of steps at a time: each step's coordinate
set by Floyd's algorithm over `rng.integers`, the increments d, the
log-uniforms, and the state-free term d'P[i,i]d / 2.  The walk keeps the
gradient c = b - P q, so moving coordinates i by d changes the log target by
c[i]'d - d'P[i,i]d / 2: a step costs O(batch) and an accept, which updates c
by P[i]'d, costs O(M batch).  At each block boundary c is recomputed from the
state and the largest drift is reported.

A Metropolis chain repeats its state until a proposal is accepted, so the
chain is kept as its states: the start and then each accepted state once,
`states` of shape (accepts + 1, M), the running sums of the accepted
increments, with the log target of each.  Its memory grows with accepts x M,
not steps x M.  Step t holds state cumsum(accepted_flags)[t]; from a given
step on, each state stands for the run of steps it `holds`.

Diagnostics: batch-means effective sample size and split-chain R-hat (the
chain's two halves as separate chains).  Both, and the chain's moments,
come from one grouped pass over the held states, each counted once per step
it holds and cut at the batch edges and the half split; groups pool by the
pairwise update of Chan, Golub & LeVeque (1979), which moved the summaries
of one pass per statistic by rounding only.  A chain converged when every
R-hat is at most RHAT_MAX.
The trace CSV writes a value only where its bits differ from the row above,
so a rejected step is a line of commas; a reader fills the blanks forward.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .fields import write_hashed

__all__ = [
    "ChainConfig",
    "ChainResult",
    "ChainDiagnostics",
    "GaussianTarget",
    "gaussian_log_target",
    "rw_mh",
    "tune_proposal_scale",
    "chain_diagnostics",
    "chain_to_csv",
]

ACCEPT_LO = 0.25
ACCEPT_HI = 0.40
RHAT_MAX = 1.05  # a chain converged when every split R-hat is at most this
TUNE_PROBE_STEPS = 400  # steps of each probe chain of the scale search
TUNE_MAX_ROUNDS = 40  # probe chains before the search settles for its best scale
BLOCK_STEPS = 4096  # steps whose proposals are drawn together
CSV_CHUNK_ROWS = 256  # trace rows formatted and written together
MOMENT_CHUNK_ROWS = 1024  # states read together for their log targets and moments


@dataclass(frozen=True)
class ChainConfig:
    """Run length and proposal settings for one chain."""

    steps: int
    burn_in: int = 0
    proposal_scale: float = 0.1
    seed: int = 0
    batch_size: int = 5

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be positive")
        if not 0 <= self.burn_in < self.steps:
            raise ValueError("burn_in must lie in [0, steps)")
        if not (math.isfinite(self.proposal_scale) and self.proposal_scale > 0):
            raise ValueError("proposal_scale must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")


@dataclass(frozen=True)
class ChainResult:
    """A chain as its states: `states` (accepts + 1, M) holds the start and
    then each accepted state once, `log_targets` (accepts + 1,) their log
    targets, and `accepted_flags` (steps,) whether each step moved; step t
    holds state cumsum(accepted_flags)[t]."""

    config: ChainConfig
    states: np.ndarray
    log_targets: np.ndarray
    accepted_flags: np.ndarray
    drift: float = 0.0  # largest |c - (b - P q)| found at a block boundary

    @property
    def accepted(self) -> int:
        return int(self.accepted_flags.sum())

    @property
    def acceptance_rate(self) -> float:
        return self.accepted / self.config.steps

    def runs(self, lo: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """(states, holds): the states held by steps lo..steps-1, a view,
        and the number of those steps each one holds."""
        flags = self.accepted_flags
        first = int(np.count_nonzero(flags[:lo + 1]))
        edges = np.concatenate(([lo], lo + 1 + np.flatnonzero(flags[lo + 1:]), [flags.size]))
        return self.states[first:], np.diff(edges)


@dataclass(frozen=True)
class ChainDiagnostics:
    ess: np.ndarray
    rhat: np.ndarray
    degenerate: np.ndarray
    converged: bool
    mean: np.ndarray
    var: np.ndarray  # ddof 1


@dataclass(frozen=True, eq=False)
class GaussianTarget:
    """Log density of the standard-prior linear model z = Phi q + noise,
    -|z - Phi q|^2 / (2 sigma^2) - |q|^2 / 2, with its precision
    P = Phi'Phi / sigma^2 + I and linear term b = Phi'z / sigma^2."""

    phi: np.ndarray
    z: np.ndarray
    sigma: float
    P: np.ndarray
    b: np.ndarray

    @property
    def dim(self) -> int:
        return self.b.size

    def __call__(self, q):
        """The log density at q (M,), a float, or at each row of a stack
        q (K, M), an array (K,); a single q is a stack of one."""
        q = np.asarray(q, dtype=float)
        rows = q.reshape(-1, self.dim)
        resid = self.z - np.matmul(self.phi, rows[:, :, None])[:, :, 0]
        rr = np.matmul(resid[:, None, :], resid[:, :, None])[:, 0, 0]
        qq = np.matmul(rows[:, None, :], rows[:, :, None])[:, 0, 0]
        lp = -(0.5 / self.sigma**2) * rr - 0.5 * qq
        return float(lp[0]) if q.ndim == 1 else lp


def gaussian_log_target(phi, z, sigma: float) -> GaussianTarget:
    """The sampler's target for design matrix `phi` (n, M), readings `z`
    (n,) and noise level `sigma`; n may be 0, leaving the N(0, I) prior."""
    phi = np.asarray(phi, dtype=float)
    z = np.asarray(z, dtype=float).reshape(-1)
    if phi.ndim != 2 or phi.shape[0] != z.size:
        raise ValueError(f"phi of shape {phi.shape} does not match {z.size} readings")
    if not (np.isfinite(phi).all() and np.isfinite(z).all()):
        raise ValueError("phi and z must be finite")
    if not (np.isfinite(sigma) and sigma > 0):
        raise ValueError("sigma must be positive")
    P = phi.T @ phi / sigma**2 + np.eye(phi.shape[1])
    b = phi.T @ z / sigma**2
    P.flags.writeable = False
    b.flags.writeable = False
    return GaussianTarget(phi, z, float(sigma), P, b)


def _draw_indices(rng, dim: int, batch: int, size: int) -> np.ndarray:
    """(size, batch) coordinate sets, each `batch` distinct indices below
    `dim`: Floyd's algorithm, one `rng.integers` draw per slot for all rows."""
    idx = np.empty((size, batch), dtype=np.intp)
    for k, top in enumerate(range(dim - batch, dim)):
        pick = rng.integers(0, top + 1, size=size)
        taken = (idx[:, :k] == pick[:, None]).any(axis=1)
        idx[:, k] = np.where(taken, top, pick)
    return idx


def _block_draws(rng, dim: int, batch: int, size: int, scale: float):
    """One block's proposals: coordinate sets (size, batch), increments
    (size, batch) and log-uniforms (size,)."""
    idx = _draw_indices(rng, dim, batch, size)
    delta = scale * rng.standard_normal((size, batch))
    log_u = -rng.standard_exponential(size)
    return idx, delta, log_u


def _walk(target: GaussianTarget, start, config: ChainConfig):
    """`rw_mh` without its states: (start, accepted_flags, moves, drift); calls the target once."""
    if not isinstance(target, GaussianTarget):
        raise TypeError("rw_mh samples a GaussianTarget (see gaussian_log_target)")
    start = np.array(start, dtype=float).reshape(-1)
    dim = start.size
    if dim != target.dim:
        raise ValueError(f"start has {dim} coordinates, the target {target.dim}")
    if not np.isfinite(start).all():
        raise ValueError("start point is not finite")
    if not math.isfinite(target(start)):
        raise ValueError("log target is not finite at the start point")
    batch = min(config.batch_size, dim)
    rng = np.random.default_rng(config.seed)
    P = target.P
    accepted_flags = np.zeros(config.steps, dtype=bool)
    moves = []  # each block's accepted (coordinates, increments), in step order
    q = start.copy()
    c = target.b - P @ q
    drift = 0.0
    for lo in range(0, config.steps, BLOCK_STEPS):
        hi = min(lo + BLOCK_STEPS, config.steps)
        idx, delta, log_u = _block_draws(rng, dim, batch, hi - lo,
                                         config.proposal_scale)
        # d'P[i,i]d, a row of P[i,i] at a time so that no temporary exceeds
        # (size, batch) whatever the batch
        quad = np.zeros(hi - lo)
        for j in range(batch):
            quad += delta[:, j] * np.einsum("sk,sk->s", P[idx[:, j:j + 1], idx], delta)
        bars = (log_u + 0.5 * quad).tolist()
        flags = accepted_flags[lo:hi]
        for t, (i, d, bar) in enumerate(zip(idx, delta, bars)):
            if d.dot(c[i]) >= bar:
                c -= d.dot(P.take(i, axis=0))
                flags[t] = True
        if lo < 1000 <= hi and not accepted_flags[:1000].any():
            raise NumericalError(
                "no proposals accepted in the first 1000 steps; "
                "proposal_scale is far too large for this target"
            )
        moved = np.flatnonzero(flags)
        moves.append((idx[moved], delta[moved]))
        # q[i] += d one accept at a time, in step order: the sums the states
        # replay below, so q is the block's last state bit for bit
        np.add.at(q, *moves[-1])
        fresh = target.b - P @ q
        drift = max(drift, float(np.max(np.abs(fresh - c))))
        c = fresh
    return start, accepted_flags, moves, drift


def rw_mh(target: GaussianTarget, start, config: ChainConfig) -> ChainResult:
    """Batch-update random-walk Metropolis-Hastings.

    Each step picks `batch_size` coordinates without replacement and
    perturbs them jointly; it is tested against the kept gradient
    c = b - P q, which is recomputed at every block boundary (the result
    carries the largest drift found there).  Zero acceptances across the
    first 1000 steps abort the run: the proposal scale is unusable and
    every later draw would repeat the start point.  The result keeps the
    start and each accepted state once, allocated after the last block,
    and their log targets, evaluated MOMENT_CHUNK_ROWS states at a time.
    """
    start, accepted_flags, moves, drift = _walk(target, start, config)
    # x + (-0.0) is x bit for bit, signed zeros included, so the running sum
    # repeats stepping q[i] += d one accept at a time
    idx, delta = (np.concatenate(part) for part in zip(*moves))
    states = np.full((len(idx) + 1, start.size), -0.0)
    states[np.arange(1, len(idx) + 1)[:, None], idx] = delta
    states[0] += start
    np.cumsum(states, axis=0, out=states)
    log_targets = np.empty(len(states))
    for lo in range(0, len(states), MOMENT_CHUNK_ROWS):
        log_targets[lo:lo + MOMENT_CHUNK_ROWS] = target(states[lo:lo + MOMENT_CHUNK_ROWS])
    return ChainResult(config, states, log_targets, accepted_flags, drift)


def tune_proposal_scale(target: GaussianTarget, start, *, seed: int = 0,
                        batch_size: int = 5) -> float:
    """Multiplicative search for a proposal scale in the acceptance band.

    Runs probe chains of TUNE_PROBE_STEPS steps, growing the scale by 1.6x
    when acceptance is above the band and shrinking by 0.6x when below.
    Returns the first scale landing inside [ACCEPT_LO, ACCEPT_HI]; after
    TUNE_MAX_ROUNDS probes the best scale seen (closest to the band
    midpoint) is returned.  A probe is too short for `rw_mh`'s check of the
    first 1000 steps, so a probe that accepts nothing reads rate 0.
    """
    batch = min(batch_size, np.size(start))
    scale = 2.4 / math.sqrt(batch)
    best = (math.inf, scale)
    for round_idx in range(TUNE_MAX_ROUNDS):
        cfg = ChainConfig(steps=TUNE_PROBE_STEPS, proposal_scale=scale,
                          seed=seed + round_idx, batch_size=batch)
        rate = np.count_nonzero(_walk(target, start, cfg)[1]) / cfg.steps
        if ACCEPT_LO <= rate <= ACCEPT_HI:
            return scale
        gap = abs(rate - 0.5 * (ACCEPT_LO + ACCEPT_HI))
        if gap < best[0]:
            best = (gap, scale)
        scale = scale * 0.6 if rate < ACCEPT_LO else scale * 1.6
    return best[1]


def _chain_stats(draws, holds):
    """The mean, variance, batch-means ESS, degenerate flags and split R-hat
    of n >= 4 draws, row k of `draws` holding holds[k] (one each when `holds`
    is None), from one pass cut at the batch edges and half split."""
    draws = np.asarray(draws, dtype=float).reshape(len(draws), -1)
    bounds = np.cumsum(np.concatenate(([0], np.ones(len(draws), int) if holds is None else holds)))
    n = int(bounds[-1])
    if n < 4:
        raise ValueError("need at least 4 draws")
    b = math.isqrt(n)
    batch_len, half = n // b, n // 2
    used = b * batch_len
    (mean, square), (_, used_square), (batch_means, _), (half_means, half_squares) = (
        _group_moments(draws, bounds, [0, n], [0, used], np.arange(0, used + 1, batch_len),
                       [0, half, 2 * half]))
    var_means = batch_means.var(axis=0, ddof=1)
    # stuck by bits (a mean of copies of 0.1 is not 0.1): the halves' rows, then any last draw
    head, rest = np.split(draws, [np.searchsorted(bounds, 2 * half)])
    lo, hi = head.min(axis=0), head.max(axis=0)
    degenerate = (lo == hi) & (rest == lo).all(axis=0)
    alive = ~degenerate & (var_means > 0.0)
    ess = np.where(degenerate, 0.0, used)  # used where the batch means agree but the chain moved
    ess[alive] = used * used_square[0, alive] / ((used - 1) * batch_len * var_means[alive])
    # split R-hat, the halves compared: 1 where the split draws never move
    # (by bits), inf where constant halves differ
    within, spread = (half_squares / (half - 1)).mean(axis=0), half_means.var(axis=0, ddof=1)
    ratio = np.divide(spread, within, out=np.full(within.size, np.inf), where=within > 0.0)
    rhat = np.where(lo < hi, np.sqrt((half - 1) / half + ratio), 1.0)
    return mean[0], square[0] / (n - 1), np.minimum(ess, n), degenerate, rhat


def _group_moments(draws, bounds, *cuts) -> list:
    """Per-coordinate (means, sums of squared deviations) of the draws
    cut[j]..cut[j+1]-1 of each cut from 0 (one to the end), row k of `draws`
    holding draws bounds[k]..bounds[k+1]-1.  Both passes read the finest cut,
    MOMENT_CHUNK_ROWS pieces of runs at a time; a cut pools its groups by
    Chan, Golub & LeVeque (1979), so a group of one draw divides by nothing."""
    edges, cuts_all = (np.sort(np.concatenate(parts)) for parts in (cuts, (bounds, *cuts)))
    edges, cuts_all = (e[np.diff(e, prepend=-1) != 0] for e in (edges, cuts_all))
    rows = np.searchsorted(bounds, cuts_all[:-1], side="right") - 1
    groups = np.searchsorted(edges, cuts_all[:-1], side="right") - 1
    lengths = np.diff(cuts_all).astype(float)[:, None]
    counts = np.diff(edges)[:, None]

    def weighted_sums(mean=None):
        # per group, the pieces (or their squared deviations from `mean`)
        # summed, each weighted by its length
        out = np.zeros((counts.size, draws.shape[1]))
        for lo in range(0, rows.size, MOMENT_CHUNK_ROWS):
            piece = slice(lo, lo + MOMENT_CHUNK_ROWS)
            g = groups[piece]
            heads = np.flatnonzero(np.diff(g, prepend=-1))  # each group's first piece
            values = draws[rows[piece]]
            if mean is not None:
                values -= mean[g]
                values *= values
            values *= lengths[piece]
            out[g[heads]] += np.add.reduceat(values, heads, axis=0)
        return out

    means = weighted_sums() / counts
    squares = weighted_sums(means)
    pooled = []
    for cut in cuts:
        first = np.searchsorted(edges, cut)
        k, first = first[-1], first[:-1]
        mean = np.add.reduceat(counts[:k] * means[:k], first) / np.diff(cut)[:, None]
        gap = means[:k] - np.repeat(mean, np.diff(first, append=k), axis=0)
        pooled.append((mean, np.add.reduceat(squares[:k] + counts[:k] * gap * gap, first)))
    return pooled


def chain_diagnostics(draws, holds=None) -> ChainDiagnostics:
    """Batch-means ESS, split R-hat, moments (variance ddof 1) and a
    convergence verdict of N >= 4 draws, row k of `draws` standing for
    holds[k] of them (one each when `holds` is None), as `ChainResult.runs`
    gives them; one pass, MOMENT_CHUNK_ROWS rows at a time.  ESS is
    N var / (batch_len var(batch means)) over b = floor(sqrt(N)) batches,
    capped at N; R-hat is sqrt(((n-1)/n W + B/n) / W) over the two halves.
    A coordinate whose draws never move (by bits) is degenerate, with ESS 0
    and R-hat 1; R-hat is inf where the draws differ but each half is
    constant.  Converged when every R-hat is at most RHAT_MAX and no
    coordinate is stuck."""
    mean, var, ess, degenerate, rhat = _chain_stats(draws, holds)
    converged = bool(np.all(rhat <= RHAT_MAX)) and not bool(degenerate.any())
    return ChainDiagnostics(ess, rhat, degenerate, converged, mean, var)


def chain_to_csv(result: ChainResult, path) -> str:
    """Write the trace: a header, then one row per step with its
    coordinates, its log target, and whether its proposal was accepted.
    Returns the SHA-256 of the bytes written.

    After row 0 a coordinate or log target field is left empty when its bits
    equal the row above's (bits, so -0.0 and 0.0 differ); filled forward it
    gives the chain back exactly.  So a rejected step is `t,,...,,0`, and an
    accepted one writes the coordinates it moved and its log target.  One
    compare finds the changes of a chunk of rows, and the chunk is written
    with one call; the trace is never held whole.
    """
    return write_hashed(path, _trace_chunks(result))


def _trace_chunks(result: ChainResult):
    """The text of chain_to_csv: the header and row 0, then CSV_CHUNK_ROWS
    rows at a time, read from the states the rows hold."""
    states, log_targets, steps = result.states, result.log_targets, result.config.steps
    dim = states.shape[1]
    flags = result.accepted_flags.tolist()
    held = np.cumsum(result.accepted_flags)
    header = ",".join(["step"] + [f"q{j}" for j in range(dim)] + ["log_target", "accepted"])
    # repr of builtin float round-trips exactly; numpy scalars do not
    first = ",".join(map(repr, states[held[0]].tolist() + [float(log_targets[held[0]])]))
    yield f"{header}\n0,{first},{int(flags[0])}\n"
    commas = ["," * k for k in range(dim + 3)]
    for lo in range(1, steps, CSV_CHUNK_ROWS):
        hi = min(lo + CSV_CHUNK_ROWS, steps)
        # the state held above the chunk, then each state the chunk accepts;
        # log target last, compared as bits
        a, b = held[lo - 1], held[hi - 1]
        block = np.empty((b - a + 1, dim + 1))
        block[:, :dim], block[:, dim] = states[a:b + 1], log_targets[a:b + 1]
        bits = block.view(np.int64)
        rows, cols = np.nonzero(bits[1:] != bits[:-1])
        bounds = np.searchsorted(rows, np.arange(b - a + 1)).tolist()
        texts = [repr(v) for v in block[rows + 1, cols].tolist()]
        cols = cols.tolist()
        parts = []
        spans = zip(bounds, bounds[1:])
        for t, acc in zip(range(lo, hi), flags[lo:hi]):
            if not acc:  # the state above again: every value field empty
                parts.append(f"{t}{commas[dim + 2]}0\n")
                continue
            parts.append(str(t))
            last = -1  # the step; field j follows j - last commas from the last written
            start, stop = next(spans)
            for j, text in zip(cols[start:stop], texts[start:stop]):
                parts += (commas[j - last], text)
                last = j
            parts.append(f"{commas[dim - last]},1\n")
        yield "".join(parts)
