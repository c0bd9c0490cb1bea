"""Reduction of forcing inference to an exact conjugate Bayesian linear model.

Each observation is a linear functional of the solution, z_i = <h_i, u> + noise.
Solving one adjoint system per observation functional, L* v_i = h_i, turns the
same reading into a functional of the forcing, <v_i, f>, so with the forcing
expanded in M basis features the readings follow the linear model

    z = Phi q + eps,      Phi[i, m] = <v_i, phi_m>,   eps ~ N(0, sigma^2 I).

Maximum likelihood:   q_hat = (Phi^T Phi)^{-1} Phi^T z,
                      cov   = sigma^2 (Phi^T Phi)^{-1}.

Conjugate posterior with prior q ~ N(mu0, S0):

    S_n  = (sigma^{-2} Phi^T Phi + S0^{-1})^{-1}
    mu_n = S_n (sigma^{-2} Phi^T z + S0^{-1} mu0)

All solves go through Cholesky factorizations of the precision, never an
explicit inverse; factorizations retry with escalating diagonal jitter
(1e-10 up to 1e-6 of the diagonal scale) before failing.
"""

from __future__ import annotations

import itertools
import json
import math
import time
import warnings
from dataclasses import dataclass, field as dataclass_field

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import MisspecificationWarning, NumericalError
from .features import FeatureBasis, KernelParams, _cell_blocks, forcing_from_weights
from .fields import AdjointBank, Field, Grid, GridMismatchError

__all__ = [
    "ObservationSet",
    "PhiMatrix",
    "PosteriorQ",
    "assemble_phi",
    "ml_estimate",
    "posterior_q",
    "posterior_forcing",
    "sample_posterior_forcing",
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
class PhiMatrix:
    """Design matrix of adjoint-feature projections plus provenance."""

    entries: np.ndarray
    basis_seed: int | None = None
    solver_id: str = ""

    def __post_init__(self):
        entries = np.array(self.entries, dtype=float, order="C")
        if entries.ndim != 2:
            raise ValueError("entries must be a 2-D (n, M) array")
        if not np.isfinite(entries).all():
            raise ValueError("design matrix entries must be finite")
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)

    @property
    def shape(self) -> tuple[int, int]:
        return self.entries.shape


@dataclass(frozen=True)
class PosteriorQ:
    """Gaussian posterior over basis weights.

    `chol` is the lower Cholesky factor of the covariance, used for sampling
    and pointwise variance evaluation.
    """

    mean: np.ndarray
    cov: np.ndarray
    prior_mean: np.ndarray
    prior_cov: np.ndarray
    chol: np.ndarray = dataclass_field(init=False)

    def __post_init__(self):
        mean = np.array(self.mean, dtype=float).reshape(-1)
        cov = np.array(self.cov, dtype=float, order="C")
        m = mean.size
        if cov.shape != (m, m):
            raise ValueError("covariance shape does not match mean")
        scale = np.abs(cov).max()
        if scale > 0 and np.abs(cov - cov.T).max() > 1e-10 * scale:
            raise NumericalError("posterior covariance is not symmetric")
        cov = 0.5 * (cov + cov.T)
        chol = _chol_with_jitter(cov, what="posterior covariance")
        prior_mean = np.array(self.prior_mean, dtype=float).reshape(-1)
        prior_cov = np.array(self.prior_cov, dtype=float, order="C")
        for arr in (mean, cov, chol, prior_mean, prior_cov):
            arr.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "chol", chol)
        object.__setattr__(self, "prior_mean", prior_mean)
        object.__setattr__(self, "prior_cov", prior_cov)

    @property
    def dim(self) -> int:
        return self.mean.size


def _chol_with_jitter(mat: np.ndarray, what: str = "matrix") -> np.ndarray:
    """Lower Cholesky factor, retrying with diagonal jitter scaled to the
    matrix before giving up."""
    scale = float(np.abs(np.diag(mat)).max())
    if scale == 0.0:
        scale = 1.0
    eye = np.eye(mat.shape[0])
    for jitter in (0.0, 1e-10, 1e-8, 1e-6):
        try:
            return np.linalg.cholesky(mat + (jitter * scale) * eye)
        except np.linalg.LinAlgError:
            continue
    eigs = np.linalg.eigvalsh(0.5 * (mat + mat.T))
    cond = float(eigs.max() / eigs.min()) if eigs.min() != 0 else math.inf
    raise NumericalError(
        f"Cholesky factorization of the {what} failed even with jitter "
        f"1e-6; eigenvalue-based condition estimate {cond:.3e}"
    )


# ---------------------------------------------------------------------------
# design matrix


def assemble_phi(bank: AdjointBank, basis: FeatureBasis, *, grid: Grid | None = None,
                 solver_id: str = "") -> PhiMatrix:
    """Design matrix Phi[i, m] = <v_i, phi_m> over the adjoint bank's grid.

    The bank's rows, adjoint solution i in row i as `adjoint_bank` returns
    them, are read in place.  The basis is evaluated one block of cells at
    a time, so the full (M, num_cells) feature matrix is never held at
    once.  Passing `grid` asserts the bank lives on that grid; a mismatch
    raises GridMismatchError before any work is done.
    """
    if grid is not None and bank.grid != grid:
        raise GridMismatchError("adjoint bank does not live on the expected grid")
    if basis.dim != bank.grid.ndim:
        raise GridMismatchError("basis dimension does not match the grid")
    rows = bank.rows
    entries = np.zeros((rows.shape[0], basis.size))
    for sl, block in _cell_blocks(basis, bank.grid):
        entries += rows[:, sl] @ block.T
    entries *= bank.grid.cell_volume
    return PhiMatrix(entries, basis_seed=basis.seed, solver_id=solver_id)


def _phi_entries(phi) -> np.ndarray:
    if isinstance(phi, PhiMatrix):
        return phi.entries
    arr = np.asarray(phi, dtype=float)
    if arr.ndim != 2:
        raise ValueError("design matrix must be 2-D")
    return arr


# ---------------------------------------------------------------------------
# estimators


def ml_estimate(phi, z, sigma: float | None = None, ridge: float = 0.0):
    """Maximum-likelihood weights and their covariance.

    Requires at least as many observations as features and a squared
    condition number below 1e12; otherwise raises NumericalError and points
    at the Bayesian route.  `ridge` adds an optional Tikhonov term to the
    normal equations (default 0, no regularization).  When `sigma` is not
    given, the noise variance is estimated from the residuals (zero when
    n == M leaves no degrees of freedom).
    """
    design = _phi_entries(phi)
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
    if ridge == 0.0:
        u, s, vt = np.linalg.svd(design, full_matrices=False)
        if s[-1] == 0.0 or (s[0] / s[-1]) ** 2 >= 1e12:
            raise NumericalError(
                "design matrix is rank deficient or too ill-conditioned for "
                "maximum likelihood; use the Bayesian route (posterior_q)"
            )
        qhat = vt.T @ ((u.T @ z) / s)
        inv_gram = (vt.T * s**-2.0) @ vt
    else:
        gram = design.T @ design + ridge * np.eye(m)
        chol = _chol_with_jitter(gram, what="regularized normal equations")
        qhat = cho_solve((chol, True), design.T @ z)
        inv_gram = cho_solve((chol, True), np.eye(m))
    if sigma is None:
        resid = z - design @ qhat
        sigma2 = float(resid @ resid) / (n - m) if n > m else 0.0
    else:
        sigma2 = float(sigma) ** 2
    cov = sigma2 * 0.5 * (inv_gram + inv_gram.T)
    return qhat, cov


def _default_prior(m: int):
    return np.zeros(m), np.eye(m)


def posterior_q(phi, z, sigma: float, prior=None) -> PosteriorQ:
    """Exact conjugate posterior over weights; prior defaults to N(0, I)."""
    design = _phi_entries(phi)
    z = np.asarray(z, dtype=float).reshape(-1)
    n, m = design.shape
    if z.size != n:
        raise ValueError("reading count does not match design matrix")
    if not (np.isfinite(sigma) and sigma > 0):
        raise ValueError("sigma must be positive")
    sigma = float(sigma)
    if prior is None:
        prior_mean, prior_cov = _default_prior(m)
        prior_prec = np.eye(m)
        prec_mean = np.zeros(m)
    else:
        prior_mean = np.asarray(prior[0], dtype=float).reshape(-1)
        prior_cov = np.asarray(prior[1], dtype=float)
        if prior_mean.size != m or prior_cov.shape != (m, m):
            raise ValueError("prior shapes do not match the feature count")
        pf = cho_factor(prior_cov, lower=True)
        prior_prec = cho_solve(pf, np.eye(m))
        prec_mean = cho_solve(pf, prior_mean)
    noise_prec = 1.0 / sigma**2
    precision = noise_prec * (design.T @ design) + prior_prec
    chol = _chol_with_jitter(0.5 * (precision + precision.T), what="posterior precision")
    mean = cho_solve((chol, True), noise_prec * (design.T @ z) + prec_mean)
    cov = cho_solve((chol, True), np.eye(m))
    post = PosteriorQ(mean, 0.5 * (cov + cov.T), prior_mean, prior_cov)
    if m < n / 2:
        resid = z - design @ mean
        if np.linalg.norm(resid) / sigma > 3.0 * math.sqrt(n):
            warnings.warn(
                f"standardized residual norm {np.linalg.norm(resid) / sigma:.1f} "
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
        # pointwise variance phi(x)^T S phi(x) = |chol^T phi(x)|^2
        w = post.chol.T @ block
        var[sl] = np.einsum("ij,ij->j", w, w)
    return mean, Field(grid, np.maximum(var, 0.0))


def sample_posterior_forcing(post: PosteriorQ, basis: FeatureBasis, grid: Grid,
                             count: int, seed: int):
    """Deterministic (per seed) list of posterior forcing draws."""
    weights = _posterior_weight_draws(post, count, seed)
    return [forcing_from_weights(basis, w, grid) for w in weights]


def _posterior_weight_draws(post: PosteriorQ, count: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(int(seed))
    eta = rng.standard_normal((int(count), post.dim))
    return post.mean + eta @ post.chol.T


def _predictive_moments(post: PosteriorQ, phi, z) -> tuple[np.ndarray, np.ndarray]:
    """Exact mean Phi mu and variance diag(Phi S Phi^T) of the noise-free
    readings Phi q under the weight posterior."""
    design = _phi_entries(phi)
    if design.shape != (np.size(z), post.dim):
        raise ValueError("design matrix does not match the readings and the posterior")
    spread = design @ post.chol
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
    phi: PhiMatrix
    timings: dict


def run_pipeline(system, observations: ObservationSet, basis: FeatureBasis,
                 prior=None) -> PipelineResult:
    """One adjoint solve per observation, marched together as one bank, the
    design matrix, and the posterior, with one wall-clock entry per stage
    (monotonic clock)."""
    t0 = time.perf_counter()
    bank = system.adjoint_bank(observations.windows)
    t1 = time.perf_counter()
    phi = assemble_phi(bank, basis, solver_id=system.name)
    t2 = time.perf_counter()
    post = posterior_q(phi, observations.z, observations.sigma, prior)
    t3 = time.perf_counter()
    timings = dict(zip(PIPELINE_STAGES, (t1 - t0, t2 - t1, t3 - t2)))
    return PipelineResult(post, phi, timings)


def posterior_to_json(post: PosteriorQ, *, basis_seed=None,
                      config_hash: str = "") -> str:
    """Serialize the weight posterior: mean, lower Cholesky factor of the
    covariance, the prior, and provenance (basis seed and config hash)."""
    payload = {
        "mean": post.mean.tolist(),
        "chol": post.chol.tolist(),
        "prior_mean": post.prior_mean.tolist(),
        "prior_cov": post.prior_cov.tolist(),
        "basis_seed": basis_seed,
        "config_hash": config_hash,
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def posterior_from_json(text: str) -> tuple[PosteriorQ, dict]:
    """Inverse of posterior_to_json.

    The covariance is rebuilt as chol @ chol.T, so the stored factor is the
    source of truth.  Returns the posterior plus the stored provenance
    ("basis_seed", "config_hash").
    """
    payload = json.loads(text)
    chol = np.array(payload["chol"], dtype=float)
    post = PosteriorQ(
        mean=np.array(payload["mean"], dtype=float),
        cov=chol @ chol.T,
        prior_mean=np.array(payload["prior_mean"], dtype=float),
        prior_cov=np.array(payload["prior_cov"], dtype=float),
    )
    meta = {"basis_seed": payload.get("basis_seed"),
            "config_hash": payload.get("config_hash", "")}
    return post, meta
