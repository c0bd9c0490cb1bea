"""Reduction of forcing inference to an exact conjugate Bayesian linear model.

Each observation is a linear functional of the solution, z_i = <h_i, u> + noise.
Solving one adjoint system per observation functional, L* v_i = h_i, turns the
same reading into a functional of the forcing, <v_i, f>, so with the forcing
expanded in M basis features the readings follow the linear model

    z = Phi q + eps,      Phi[i, m] = <v_i, phi_m>,   eps ~ N(0, sigma^2 I).

The design matrix is a plain read-only (n, M) array, projected one time
cell at a time and from the bank rows still live there (`AdjointBank.live`).

Factorization policy.  The prior is q ~ N(0, I): the feature amplitude
carries the kernel variance.  The conjugate posterior takes one Cholesky
factorization, of its precision P = sigma^{-2} Phi^T Phi + I = L L^T,
retried with escalating diagonal jitter (1e-10 up to 1e-6 of the diagonal
scale) before failing.  The mean is two triangular solves with L,

    mu_n = P^{-1} sigma^{-2} Phi^T z,

and the covariance is kept as the square-root factor R = L^{-T}, one more
triangular solve, so that S_n = P^{-1} = R R^T.  Draws, pointwise variances
and predictive moments all read R; the covariance is never factored again.

Maximum likelihood and its ridge variant take one SVD Phi = U diag(s) V^T,
with filter factors s / (s^2 + ridge):

    q_hat = V ((U^T z) s / (s^2 + ridge)),
    cov   = sigma^2 V diag(1 / (s^2 + ridge)) V^T.

Without a ridge it needs n >= M and a squared condition number below 1e12.
"""

from __future__ import annotations

import itertools
import json
import math
import time
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_solve, solve_triangular

from .errors import MisspecificationWarning, NumericalError
from .features import FeatureBasis, KernelParams, _cell_blocks, forcing_from_weights
from .fields import AdjointBank, Field, Grid, GridMismatchError

__all__ = [
    "ObservationSet",
    "PosteriorQ",
    "assemble_phi",
    "ml_estimate",
    "posterior_q",
    "posterior_forcing",
    "predictive_mse",
    "predictive_nll",
    "nll_score",
    "grid_scan",
    "run_pipeline",
    "PipelineResult",
    "PIPELINE_STAGES",
    "posterior_to_json",
    "posterior_from_json",
]

SIGMA_MIN = 1e-6


@dataclass(frozen=True)
class ObservationSet:
    """Observation functionals, their noisy readings, and the noise level."""

    windows: tuple[Field, ...]
    z: np.ndarray
    sigma: float

    def __post_init__(self):
        windows = tuple(self.windows)
        if len(windows) == 0:
            raise ValueError("need at least one observation")
        grid = windows[0].grid
        for w in windows:
            if w.grid != grid:
                raise GridMismatchError("observation windows live on different grids")
        z = np.array(self.z, dtype=float).reshape(-1)
        if z.size != len(windows):
            raise ValueError(f"{len(windows)} windows but {z.size} readings")
        if not np.isfinite(z).all():
            raise ValueError("readings must be finite")
        if not (np.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError("noise level sigma must be positive")
        z.setflags(write=False)
        object.__setattr__(self, "windows", windows)
        object.__setattr__(self, "z", z)

    @property
    def n(self) -> int:
        return len(self.windows)

    @property
    def grid(self) -> Grid:
        return self.windows[0].grid


@dataclass(frozen=True)
class PosteriorQ:
    """Gaussian posterior over basis weights.

    `root` is a square-root factor of the covariance, cov = root @ root.T,
    used for sampling and pointwise variance evaluation.  `numerics`, as
    `posterior_q` fills it: "jitter", the value added to each diagonal
    entry of the precision before it factored (0.0 when none);
    "logdet_precision", 2 sum log diag L of the factored precision; and
    "residual_norm", the standardized residual norm |z - Phi mean| / sigma.
    """

    mean: np.ndarray
    root: np.ndarray
    numerics: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        mean = np.array(self.mean, dtype=float).reshape(-1)
        root = np.array(self.root, dtype=float, order="C")
        if root.shape != (mean.size, mean.size):
            raise ValueError("covariance root shape does not match mean")
        for arr in (mean, root):
            arr.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "root", root)

    @property
    def dim(self) -> int:
        return self.mean.size

    @property
    def cov(self) -> np.ndarray:
        return self.root @ self.root.T


def _chol_with_jitter(mat: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor and the jitter added to the diagonal, retrying
    with jitter scaled to the matrix before giving up."""
    scale = float(np.abs(np.diag(mat)).max())
    if scale == 0.0:
        scale = 1.0
    eye = np.eye(mat.shape[0])
    for jitter in (0.0, 1e-10, 1e-8, 1e-6):
        try:
            return np.linalg.cholesky(mat + (jitter * scale) * eye), jitter * scale
        except np.linalg.LinAlgError:
            continue
    eigs = np.linalg.eigvalsh(0.5 * (mat + mat.T))
    cond = float(eigs.max() / eigs.min()) if eigs.min() != 0 else math.inf
    raise NumericalError(
        "Cholesky factorization of the posterior precision failed even with "
        f"jitter 1e-6; eigenvalue-based condition estimate {cond:.3e}"
    )


# ---------------------------------------------------------------------------
# design matrix


def assemble_phi(bank: AdjointBank, basis: FeatureBasis, *,
                 grid: Grid | None = None) -> np.ndarray:
    """Read-only (n, M) design matrix Phi[i, m] = <v_i, phi_m> over the
    adjoint bank's grid.

    The bank's rows, adjoint solution i in row i as `adjoint_bank` returns
    them, are read in place.  The basis is evaluated one block of cells at
    a time, one time cell on (time, space) grids, so the full
    (M, num_cells) feature matrix is never held at once.  Each block is
    multiplied only with the rows still live there (`bank.live`), and the
    cells after the last window ends are never evaluated.  Passing `grid`
    asserts the bank lives on that grid; a mismatch raises
    GridMismatchError before any work is done.  Non-finite entries raise
    NumericalError.
    """
    if grid is not None and bank.grid != grid:
        raise GridMismatchError("adjoint bank does not live on the expected grid")
    if basis.dim != bank.grid.ndim:
        raise GridMismatchError("basis dimension does not match the grid")
    rows, live = bank.rows, bank.live
    per_time_cell = bank.grid.num_cells // bank.grid.dims[0]
    entries = np.zeros((rows.shape[0], basis.size))
    # an overflow is reported below as an error, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for sl, block in _cell_blocks(basis, bank.grid):
            # blocks come in time order: once no row is live, none will be
            idx = np.flatnonzero(live > sl.start // per_time_cell)
            if idx.size == 0:
                break
            idx = slice(None) if idx.size == live.size else idx
            entries[idx] += rows[idx, sl] @ block.T
        entries *= bank.grid.cell_volume
    if not np.isfinite(entries).all():
        raise NumericalError("design matrix has non-finite entries; the adjoint "
                             "bank or the basis overflowed")
    entries.setflags(write=False)
    return entries


# ---------------------------------------------------------------------------
# estimators


def ml_estimate(phi, z, sigma: float | None = None, ridge: float = 0.0):
    """Maximum-likelihood weights and their covariance, from one SVD.

    Requires at least as many observations as features; without a ridge it
    also requires a squared condition number below 1e12.  Otherwise raises
    NumericalError and points at the Bayesian route.  `ridge` adds an
    optional Tikhonov term to the normal equations (default 0, no
    regularization).  When `sigma` is not given, the noise variance is
    estimated from the residuals (zero when n == M leaves no degrees of
    freedom).
    """
    design = np.asarray(phi, dtype=float)
    z = np.asarray(z, dtype=float).reshape(-1)
    n, m = design.shape
    if z.size != n:
        raise ValueError("reading count does not match design matrix")
    if n < m:
        raise NumericalError(
            f"need n >= M for maximum likelihood (got n={n}, M={m}); "
            "use posterior_q instead"
        )
    if ridge < 0:
        raise ValueError("ridge must be nonnegative")
    u, s, vt = np.linalg.svd(design, full_matrices=False)
    if ridge == 0.0 and (s[-1] == 0.0 or (s[0] / s[-1]) ** 2 >= 1e12):
        raise NumericalError(
            "design matrix is rank deficient or too ill-conditioned for "
            "maximum likelihood; use the Bayesian route (posterior_q)"
        )
    shrunk = s**2 + ridge
    qhat = vt.T @ ((u.T @ z) * s / shrunk)
    inv_gram = (vt.T / shrunk) @ vt
    if sigma is None:
        resid = z - design @ qhat
        sigma2 = float(resid @ resid) / (n - m) if n > m else 0.0
    else:
        sigma2 = float(sigma) ** 2
    cov = sigma2 * 0.5 * (inv_gram + inv_gram.T)
    return qhat, cov


def posterior_q(phi, z, sigma: float) -> PosteriorQ:
    """Exact conjugate posterior over weights under the N(0, I) prior, with
    the jitter, log-determinant and residual norm of its `numerics`."""
    design = np.asarray(phi, dtype=float)
    z = np.asarray(z, dtype=float).reshape(-1)
    n, m = design.shape
    if z.size != n:
        raise ValueError("reading count does not match design matrix")
    if not (np.isfinite(sigma) and sigma > 0):
        raise ValueError("sigma must be positive")
    noise_prec = 1.0 / float(sigma) ** 2
    precision = noise_prec * (design.T @ design) + np.eye(m)
    chol, jitter = _chol_with_jitter(0.5 * (precision + precision.T))
    mean = cho_solve((chol, True), noise_prec * (design.T @ z))
    # P^{-1} = L^{-T} L^{-1}: L^{-T} is a square root of the covariance
    root = solve_triangular(chol, np.eye(m), lower=True).T
    resid_norm = float(np.linalg.norm(z - design @ mean)) / sigma
    post = PosteriorQ(mean, root, {
        "jitter": jitter, "logdet_precision": 2.0 * float(np.log(np.diag(chol)).sum()),
        "residual_norm": resid_norm})
    if m < n / 2 and resid_norm > 3.0 * math.sqrt(n):
        warnings.warn(
            f"standardized residual norm {resid_norm:.1f} "
            f"exceeds 3*sqrt(n)={3 * math.sqrt(n):.1f} with M={m} < n/2: "
            "the basis is too small for the data, increase the feature count",
            MisspecificationWarning,
            stacklevel=2,
        )
    return post


# ---------------------------------------------------------------------------
# pushing the posterior back to function space


def posterior_forcing(post: PosteriorQ, basis: FeatureBasis, grid: Grid):
    """Posterior mean field and pointwise variance field of the forcing."""
    if basis.size != post.dim:
        raise ValueError("posterior dimension does not match basis")
    mean = forcing_from_weights(basis, post.mean, grid)
    var = np.empty(grid.num_cells)
    for sl, block in _cell_blocks(basis, grid):
        # pointwise variance phi(x)^T S phi(x) = |root^T phi(x)|^2
        w = post.root.T @ block
        var[sl] = np.einsum("ij,ij->j", w, w)
    return mean, Field(grid, np.maximum(var, 0.0))


def _predictive_moments(post: PosteriorQ, phi, z) -> tuple[np.ndarray, np.ndarray]:
    """Exact mean Phi mu and variance diag(Phi S Phi^T) of the noise-free
    readings Phi q under the weight posterior."""
    design = np.asarray(phi, dtype=float)
    if design.shape != (np.size(z), post.dim):
        raise ValueError("design matrix does not match the readings and the posterior")
    spread = design @ post.root
    return design @ post.mean, np.einsum("ij,ij->i", spread, spread)


def predictive_mse(post: PosteriorQ, phi, z) -> float:
    """Posterior predictive mean squared error against readings `z`, in
    closed form: the expectation of (Phi q - z)^2 over the posterior,
    averaged over readings.  Row i of `phi` is the design row of reading i."""
    z = np.asarray(z, dtype=float).reshape(-1)
    mean, var = _predictive_moments(post, phi, z)
    return float(np.mean((mean - z) ** 2 + var))


def predictive_nll(post: PosteriorQ, phi, data: ObservationSet) -> float:
    """Negative log likelihood of the readings in `data` under the exact
    Gaussian posterior predictive, whose variance adds the observation noise.
    Row i of `phi` is the design row of reading i.

    The noise floor SIGMA_MIN keeps the score finite as sigma -> 0.
    """
    mean, var = _predictive_moments(post, phi, data.z)
    var = var + max(float(data.sigma), SIGMA_MIN) ** 2
    return float(np.sum(0.5 * np.log(2.0 * np.pi * var) + (data.z - mean) ** 2 / (2.0 * var)))


# ---------------------------------------------------------------------------
# hyperparameter scoring


def nll_score(theta: dict, data: ObservationSet, bank: AdjointBank,
              basis: FeatureBasis) -> float:
    """Score hyperparameters `theta` (must contain `lengthscale` and
    `variance`) by the posterior predictive NLL of the readings in `data`.

    Neither `bank`, the adjoint bank of `data.windows`, nor the frequencies
    and phases of `basis` depend on the kernel; per call the basis takes the
    kernel of `theta`, and the design matrix and posterior are rebuilt.
    """
    kernel = KernelParams(float(theta["lengthscale"]), float(theta["variance"]))
    basis = FeatureBasis(basis.frequencies, basis.phases, kernel, seed=basis.seed)
    phi = assemble_phi(bank, basis, grid=data.grid)
    post = posterior_q(phi, data.z, max(data.sigma, SIGMA_MIN))
    return predictive_nll(post, phi, data)


def grid_scan(bounds: dict, steps, score) -> list:
    """Exhaustive lattice scan.

    `bounds` maps parameter name to (lo, hi); `steps` is an int or a
    per-name dict of lattice sizes; `score` maps a theta dict to a float.
    Returns [(theta, score)] sorted ascending by score, ties broken by the
    lexicographic order of the theta values in `bounds` key order.
    """
    names = list(bounds)
    if isinstance(steps, int):
        steps = {k: steps for k in names}
    axes = []
    for k in names:
        lo, hi = bounds[k]
        cnt = int(steps[k])
        if cnt < 1:
            raise ValueError("lattice needs at least one point per axis")
        axes.append(np.linspace(lo, hi, cnt) if cnt > 1 else np.array([float(lo)]))
    results = []
    for combo in itertools.product(*axes):
        theta = {k: float(v) for k, v in zip(names, combo)}
        results.append((theta, float(score(theta))))
    results.sort(key=lambda item: (item[1],) + tuple(item[0][k] for k in names))
    return results


# ---------------------------------------------------------------------------
# the full adjoint pipeline with stage timings

PIPELINE_STAGES = ("adjoint_solves", "phi_assembly", "posterior_solve")


@dataclass
class PipelineResult:
    posterior: PosteriorQ
    phi: np.ndarray
    phi_heldout: np.ndarray
    timings: dict


def run_pipeline(system, observations: ObservationSet, basis: FeatureBasis,
                 heldout=()) -> PipelineResult:
    """One adjoint solve per observation and per `heldout` functional,
    marched as one bank, the design matrix, split into `phi` and
    `phi_heldout`, and the posterior, with one wall-clock entry per stage
    (monotonic clock)."""
    n = observations.n
    t0 = time.perf_counter()
    bank = system.adjoint_bank(observations.windows + tuple(heldout))
    t1 = time.perf_counter()
    phi = assemble_phi(bank, basis)
    t2 = time.perf_counter()
    post = posterior_q(phi[:n], observations.z, observations.sigma)
    t3 = time.perf_counter()
    timings = dict(zip(PIPELINE_STAGES, (t1 - t0, t2 - t1, t3 - t2)))
    return PipelineResult(post, phi[:n], phi[n:], timings)


def posterior_to_json(post: PosteriorQ, *, basis_seed=None,
                      config_hash: str = "") -> str:
    """Serialize the weight posterior: mean, a square-root factor of the
    covariance under "chol" (cov = chol @ chol.T), and provenance (basis
    seed and config hash)."""
    payload = {
        "mean": post.mean.tolist(),
        "chol": post.root.tolist(),
        "basis_seed": basis_seed,
        "config_hash": config_hash,
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def posterior_from_json(text: str) -> tuple[PosteriorQ, dict]:
    """Inverse of posterior_to_json.

    "chol" is any square-root factor of the covariance, cov = chol @ chol.T,
    and becomes the posterior's `root` as stored.  Files that hold the lower
    Cholesky factor of the covariance load the same way, and the
    "prior_mean" and "prior_cov" keys of older files, always N(0, I), are
    ignored.  Returns the posterior plus the stored provenance
    ("basis_seed", "config_hash").
    """
    payload = json.loads(text)
    post = PosteriorQ(np.array(payload["mean"], dtype=float),
                      np.array(payload["chol"], dtype=float))
    meta = {"basis_seed": payload.get("basis_seed"),
            "config_hash": payload.get("config_hash", "")}
    return post, meta
