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
the main run.

The proposals are drawn a block of steps at a time: each step's coordinate
set by Floyd's algorithm over `rng.integers`, the increments d, the
log-uniforms, and the state-free term d'P[i,i]d / 2.  The walk keeps the
gradient c = b - P q, so moving coordinates i by d changes the log target by
c[i]'d - d'P[i,i]d / 2: a step costs O(batch) and an accept, which updates c
by P[i]'d, costs O(M batch).  At each block boundary c is recomputed from the
chain and the largest drift is reported.  The chain rows are the running sums
of the accepted increments, and the log target is evaluated in full on every
row that moved.

Diagnostics: effective sample size via the batch-means estimator and
split-chain R-hat (two halves of each chain treated as separate chains).
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
    "batch_means_ess",
    "split_rhat",
    "chain_moments",
    "column_var",
    "chain_diagnostics",
    "chain_to_csv",
]

ACCEPT_LO = 0.25
ACCEPT_HI = 0.40
BLOCK_STEPS = 4096  # steps whose proposals are drawn together
CSV_CHUNK_ROWS = 256  # trace rows formatted and written together
MOMENT_CHUNK_ROWS = 1024  # draws read together for the chain mean and sd


@dataclass(frozen=True)
class ChainConfig:
    """Run length and proposal settings for one chain."""

    steps: int
    burn_in: int = 0
    proposal_scale: float = 0.1
    seed: int = 0
    batch_size: int | None = None

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be positive")
        if not 0 <= self.burn_in < self.steps:
            raise ValueError("burn_in must lie in [0, steps)")
        if not (math.isfinite(self.proposal_scale) and self.proposal_scale > 0):
            raise ValueError("proposal_scale must be positive")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError("batch_size must be positive when given")


@dataclass(frozen=True)
class ChainResult:
    config: ChainConfig
    chain: np.ndarray
    log_targets: np.ndarray
    accepted_flags: np.ndarray
    drift: float = 0.0  # largest |c - (b - P q)| found at a block boundary

    @property
    def accepted(self) -> int:
        return int(self.accepted_flags.sum())

    @property
    def acceptance_rate(self) -> float:
        return self.accepted / self.config.steps

    @property
    def kept(self) -> np.ndarray:
        """Post burn-in draws."""
        return self.chain[self.config.burn_in:]


@dataclass(frozen=True)
class ChainDiagnostics:
    ess: np.ndarray
    rhat: np.ndarray
    degenerate: np.ndarray
    converged: bool


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

    def __call__(self, q) -> float:
        resid = self.z - self.phi.dot(q)
        return -(0.5 / self.sigma**2) * float(resid.dot(resid)) - 0.5 * float(q.dot(q))


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


def _default_batch(dim: int) -> int:
    return min(dim, 5)


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


def rw_mh(target: GaussianTarget, start, config: ChainConfig) -> ChainResult:
    """Batch-update random-walk Metropolis-Hastings.

    Each step picks `batch_size` coordinates without replacement and
    perturbs them jointly; it is tested against the kept gradient
    c = b - P q, which is recomputed at every block boundary (the result
    carries the largest drift found there).  Zero acceptances across the
    first 1000 steps abort the run: the proposal scale is unusable and
    every later draw would repeat the start point.
    """
    if not isinstance(target, GaussianTarget):
        raise TypeError("rw_mh samples a GaussianTarget (see gaussian_log_target)")
    q = np.array(start, dtype=float).reshape(-1)
    dim = q.size
    if dim != target.dim:
        raise ValueError(f"start has {dim} coordinates, the target {target.dim}")
    if not np.isfinite(q).all():
        raise ValueError("start point is not finite")
    current_lp = target(q)
    if not math.isfinite(current_lp):
        raise ValueError("log target is not finite at the start point")
    batch = config.batch_size if config.batch_size is not None else _default_batch(dim)
    batch = min(batch, dim)
    rng = np.random.default_rng(config.seed)
    P = target.P
    chain = np.empty((config.steps, dim))
    log_targets = np.empty(config.steps)
    accepted_flags = np.zeros(config.steps, dtype=bool)
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
        rows = chain[lo:hi]
        # x + (-0.0) is x bit for bit, signed zeros included, so the running
        # sum repeats stepping q[i] += d one accept at a time
        rows.fill(-0.0)
        rows[moved[:, None], idx[moved]] = delta[moved]
        rows[0] += q
        np.cumsum(rows, axis=0, out=rows)
        q = rows[-1]
        values = [current_lp] + [target(rows[t]) for t in moved.tolist()]
        log_targets[lo:hi] = np.take(values, np.cumsum(flags))
        current_lp = values[-1]
        fresh = target.b - P @ q
        drift = max(drift, float(np.max(np.abs(fresh - c))))
        c = fresh
    return ChainResult(config, chain, log_targets, accepted_flags, drift)


def tune_proposal_scale(target: GaussianTarget, start, *, seed: int = 0,
                        probe_steps: int = 400, max_rounds: int = 40,
                        batch_size: int | None = None) -> float:
    """Multiplicative search for a proposal scale in the acceptance band.

    Runs short probe chains, growing the scale by 1.6x when acceptance is
    above the band and shrinking by 0.6x when below.  Returns the first
    scale landing inside [0.25, 0.40]; after `max_rounds` the best scale
    seen (closest to the band midpoint) is returned.
    """
    start = np.asarray(start, dtype=float).reshape(-1)
    batch = batch_size if batch_size is not None else _default_batch(start.size)
    scale = 2.4 / math.sqrt(batch)
    best = (math.inf, scale)
    for round_idx in range(max_rounds):
        cfg = ChainConfig(steps=probe_steps, proposal_scale=scale,
                          seed=seed + round_idx, batch_size=batch)
        try:
            rate = rw_mh(target, start, cfg).acceptance_rate
        except NumericalError:
            rate = 0.0
        if ACCEPT_LO <= rate <= ACCEPT_HI:
            return scale
        gap = abs(rate - 0.5 * (ACCEPT_LO + ACCEPT_HI))
        if gap < best[0]:
            best = (gap, scale)
        scale = scale * 0.6 if rate < ACCEPT_LO else scale * 1.6
    return best[1]


def batch_means_ess(draws: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Effective sample size per coordinate by the batch-means method.

    Splits the chain into b = floor(sqrt(N)) batches of equal length and
    estimates ESS = N * var(draws) / (batch_len * var(batch means)).  The
    estimate is capped at N.  Coordinates whose chain never moves get
    ESS 0 and are flagged degenerate.
    """
    draws = np.asarray(draws, dtype=float)
    if draws.ndim == 1:
        draws = draws[:, None]
    n = draws.shape[0]
    if n < 4:
        raise ValueError("need at least 4 draws for batch means")
    b = int(math.isqrt(n))
    batch_len = n // b
    used = b * batch_len
    trimmed = draws[:used]
    means = trimmed.reshape(b, batch_len, -1).mean(axis=1)
    var_all = column_var(trimmed)
    var_means = means.var(axis=0, ddof=1)
    degenerate = var_all <= 0.0
    ess = np.zeros(draws.shape[1])
    alive = ~degenerate & (var_means > 0.0)
    ess[alive] = used * var_all[alive] / (batch_len * var_means[alive])
    ess[~degenerate & ~alive] = used  # batch means identical but chain moved
    return np.minimum(ess, n), degenerate


def split_rhat(draws: np.ndarray) -> np.ndarray:
    """Split R-hat per coordinate: each chain is halved and the halves are
    compared, sqrt(((n-1)/n W + B/n) / W).  Accepts (N, dim) for a single
    chain or (chains, N, dim) for several; constant coordinates get R-hat 1.
    """
    draws = np.asarray(draws, dtype=float)
    if draws.ndim == 1:
        draws = draws[None, :, None]
    elif draws.ndim == 2:
        draws = draws[None, :, :]
    chains, n, dim = draws.shape
    half = n // 2
    if half < 2:
        raise ValueError("need at least 4 draws per chain to split")
    # the halves are read as views; only their per-half statistics are stacked
    halves = (draws[:, :half], draws[:, half:2 * half])
    within = np.array([column_var(chain) for h in halves for chain in h]).mean(axis=0)
    between = half * np.concatenate([h.mean(axis=1) for h in halves]).var(axis=0, ddof=1)
    out = np.ones(dim)
    alive = within > 0.0
    out[alive] = np.sqrt(
        ((half - 1) / half * within[alive] + between[alive] / half) / within[alive]
    )
    return out


def column_var(draws: np.ndarray) -> np.ndarray:
    """`draws.var(axis=0, ddof=1)` of a C-ordered (N, dim) array, bit for
    bit, in MOMENT_CHUNK_ROWS row chunks and no (N, dim) temporary: each
    chunk's axis-0 reduce starts from the running sum, so rows are added in
    numpy's order.  numpy sums one column pairwise, so that takes np.var."""
    if draws.shape[1] == 1:
        return draws.var(axis=0, ddof=1)

    def total(chunks):
        acc = next(chunks).sum(axis=0)
        for chunk in chunks:
            acc = np.vstack((acc, chunk)).sum(axis=0)
        return acc

    starts = range(0, len(draws), MOMENT_CHUNK_ROWS)
    mean = total(draws[lo:lo + MOMENT_CHUNK_ROWS] for lo in starts) / len(draws)
    return total((draws[lo:lo + MOMENT_CHUNK_ROWS] - mean) ** 2 for lo in starts) / (len(draws) - 1)


def chain_moments(draws: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-coordinate mean and sd (ddof 1) of N >= 2 draws (N, dim), in two
    passes of MOMENT_CHUNK_ROWS rows, so no chain-sized temporary is made."""
    chunks = [draws[lo:lo + MOMENT_CHUNK_ROWS] for lo in range(0, len(draws), MOMENT_CHUNK_ROWS)]
    mean = sum(chunk.sum(axis=0) for chunk in chunks) / len(draws)
    squares = sum(((chunk - mean) ** 2).sum(axis=0) for chunk in chunks)
    return mean, np.sqrt(squares / (len(draws) - 1))


def chain_diagnostics(result_or_draws, threshold: float = 1.05) -> ChainDiagnostics:
    """ESS, split R-hat, and a convergence verdict for post burn-in draws."""
    if isinstance(result_or_draws, ChainResult):
        draws = result_or_draws.kept
    else:
        draws = np.asarray(result_or_draws, dtype=float)
    ess, degenerate = batch_means_ess(draws)
    rhat = split_rhat(draws)
    converged = bool(np.all(rhat <= threshold)) and not bool(degenerate.any())
    return ChainDiagnostics(ess, rhat, degenerate, converged)


def chain_to_csv(result: ChainResult, path) -> str:
    """Write the full trace: one row per step with every coordinate, the
    log target, and whether that step's proposal was accepted.  Returns the
    SHA-256 of the bytes written.

    A step moves at most a batch of coordinates and a rejected step repeats
    the row, so only coordinates whose bits changed since the previous step
    are formatted again (bits, so that -0.0 and 0.0 stay distinct).  One
    compare finds the changes of a chunk of rows, and the chunk is written
    with one call; the trace is never held whole.
    """
    return write_hashed(path, _trace_chunks(result))


def _trace_chunks(result: ChainResult):
    """The text of chain_to_csv: the header, then CSV_CHUNK_ROWS rows at a time."""
    steps = result.config.steps
    chain = np.ascontiguousarray(result.chain[:steps], dtype=np.float64)
    dim = chain.shape[1]
    bits = chain.view(np.int64)
    header = ["step"] + [f"q{j}" for j in range(dim)] + ["log_target", "accepted"]
    # repr of builtin float round-trips exactly; numpy scalars do not
    texts = [repr(v) for v in chain[0].tolist()]
    coords = ",".join(texts)
    yield ",".join(header) + "\n"
    for lo in range(0, steps, CSV_CHUNK_ROWS):
        hi = min(lo + CSV_CHUNK_ROWS, steps)
        first = max(lo, 1)
        rows, cols = np.nonzero(bits[first:hi] != bits[first - 1:hi - 1])
        rows += first
        changed = {}
        for t, j, v in zip(rows.tolist(), cols.tolist(), chain[rows, cols].tolist()):
            changed.setdefault(t, []).append((j, v))
        parts = []
        for t, lp, acc in zip(range(lo, hi), result.log_targets[lo:hi].tolist(),
                              result.accepted_flags[lo:hi].tolist()):
            if t in changed:
                for j, v in changed[t]:
                    texts[j] = repr(v)
                coords = ",".join(texts)
            parts += (f"{t},", coords, f",{lp!r},{int(acc)}\n")
        yield "".join(parts)
