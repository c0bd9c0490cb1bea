"""Random-walk Metropolis-Hastings baseline over basis weights.

The target is the same linear-Gaussian posterior the conjugate route solves in
closed form, so the sampler exists to validate that route and to demonstrate
its cost: log target (up to a constant)

    -|z - Phi q|^2 / (2 sigma^2) - |q|^2 / 2.

Proposals perturb a random batch of coordinates (default batch of at most 5)
with isotropic Gaussian noise; the scale is tuned by a doubling/backoff loop
to land in the 25-40% acceptance band before the main run.

Diagnostics: effective sample size via the batch-means estimator and
split-chain R-hat (two halves of each chain treated as separate chains).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError

__all__ = [
    "ChainConfig",
    "ChainResult",
    "ChainDiagnostics",
    "gaussian_log_target",
    "rw_mh",
    "tune_proposal_scale",
    "batch_means_ess",
    "split_rhat",
    "chain_diagnostics",
    "chain_to_csv",
]

ACCEPT_LO = 0.25
ACCEPT_HI = 0.40


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


def gaussian_log_target(phi, z, sigma: float):
    """Unnormalized log density of the standard-prior linear model."""
    entries = np.asarray(phi, dtype=float)
    z = np.asarray(z, dtype=float).reshape(-1)
    if not (np.isfinite(sigma) and sigma > 0):
        raise ValueError("sigma must be positive")
    inv_two_s2 = 0.5 / sigma**2

    def log_target(q):
        resid = z - entries @ q
        return -inv_two_s2 * float(resid @ resid) - 0.5 * float(q @ q)

    return log_target


def _default_batch(dim: int) -> int:
    return min(dim, 5)


def rw_mh(log_target, start, config: ChainConfig) -> ChainResult:
    """Batch-update random-walk Metropolis-Hastings.

    Each step picks `batch_size` coordinates without replacement and
    perturbs them jointly.  Zero acceptances across the first 1000 steps
    abort the run: the proposal scale is unusable and every later draw
    would repeat the start point.
    """
    start = np.array(start, dtype=float).reshape(-1)
    dim = start.size
    batch = config.batch_size if config.batch_size is not None else _default_batch(dim)
    batch = min(batch, dim)
    rng = np.random.default_rng(config.seed)
    chain = np.empty((config.steps, dim))
    log_targets = np.empty(config.steps)
    current = start.copy()
    current_lp = float(log_target(current))
    if not math.isfinite(current_lp):
        raise ValueError("log target is not finite at the start point")
    accepted_flags = np.zeros(config.steps, dtype=bool)
    for t in range(config.steps):
        idx = rng.choice(dim, size=batch, replace=False)
        prop = current.copy()
        prop[idx] += config.proposal_scale * rng.standard_normal(batch)
        prop_lp = float(log_target(prop))
        dlp = prop_lp - current_lp
        if dlp >= 0.0 or rng.random() < math.exp(dlp):
            current = prop
            current_lp = prop_lp
            accepted_flags[t] = True
        chain[t] = current
        log_targets[t] = current_lp
        if t == 999 and not accepted_flags[:1000].any():
            raise NumericalError(
                "no proposals accepted in the first 1000 steps; "
                "proposal_scale is far too large for this target"
            )
    return ChainResult(config, chain, log_targets, accepted_flags)


def tune_proposal_scale(log_target, start, *, seed: int = 0,
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
            rate = rw_mh(log_target, start, cfg).acceptance_rate
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
    var_all = trimmed.var(axis=0, ddof=1)
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
    halves = np.concatenate([draws[:, :half], draws[:, half:2 * half]], axis=0)
    within = halves.var(axis=1, ddof=1).mean(axis=0)
    between = half * halves.mean(axis=1).var(axis=0, ddof=1)
    out = np.ones(dim)
    alive = within > 0.0
    out[alive] = np.sqrt(
        ((half - 1) / half * within[alive] + between[alive] / half) / within[alive]
    )
    return out


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


def chain_to_csv(result: ChainResult, path) -> None:
    """Write the full trace: one row per step with every coordinate, the
    log target, and whether that step's proposal was accepted.

    A step moves at most a batch of coordinates and a rejected step repeats
    the row, so only coordinates whose bits changed since the previous step
    are formatted again (bits, so that -0.0 and 0.0 stay distinct).
    """
    steps = result.config.steps
    chain = np.ascontiguousarray(result.chain[:steps], dtype=np.float64)
    dim = chain.shape[1]
    bits = chain.view(np.int64)
    header = ["step"] + [f"q{j}" for j in range(dim)] + ["log_target", "accepted"]
    # repr of builtin float round-trips exactly; numpy scalars do not
    texts = [repr(v) for v in chain[0].tolist()]
    coords = ",".join(texts)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for t in range(steps):
            if t:
                cols = np.flatnonzero(bits[t] != bits[t - 1])
                if cols.size:
                    for j, v in zip(cols.tolist(), chain[t, cols].tolist()):
                        texts[j] = repr(v)
                    coords = ",".join(texts)
            fh.write(f"{t},{coords},{float(result.log_targets[t])!r},"
                     f"{int(result.accepted_flags[t])}\n")
