"""Reduction of forcing inference to an exact conjugate Bayesian linear model.

Each observation is a linear functional of the solution, z_i = <h_i, u> + noise.
Solving one adjoint system per observation functional, L* v_i = h_i, turns the
same reading into a functional of the forcing, <v_i, f>, so with the forcing
expanded in M basis features the readings follow the linear model

    z = Phi q + eps,      Phi[i, m] = <v_i, phi_m>,   eps ~ N(0, sigma^2 I).

The design matrix is a plain read-only (n, M) array.  A 1-D bank is
projected from its solved rows; a PDE bank in the pass that marches it:
each time cell, for the bases live there, is copied as the march yields
it into a stack of a few time cells, which one product projects.  Only
the bases are solved (`fields.shift_groups`): functional i
reads its base's solution shifted by each d of its run [d0, d1), so its
row is scale[i] times the sum over the run of cos(w d dt) C_d + sin(w d
dt) S_d, C_d and S_d the base's cosine and sine projections over time
cells >= d and w the features' time frequencies.  On the PDE a window's
base is its box's impulse and the run spans its time cells; elsewhere
the run is one shift of the functional's shape.

Factorization policy.  The conjugate posterior is the one estimator.  The
prior is q ~ N(0, I): the feature amplitude carries the kernel variance.
The posterior takes one Cholesky factorization, of its precision
P = sigma^{-2} Phi^T Phi + I = L L^T, retried with escalating diagonal
jitter (1e-10 up to 1e-6 of the diagonal scale) before failing.  The
covariance is kept as the square-root factor
R = L^{-T}, the inverse of the triangular L^T taken by halves in numpy
alone, S_n = P^{-1} = R R^T, and the mean reads R twice,

    mu_n = P^{-1} sigma^{-2} Phi^T z = R (R^T sigma^{-2} Phi^T z).

Draws, pointwise variances and predictive moments read R; nothing is factored again.
"""

from __future__ import annotations

import itertools
import math
import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import MisspecificationWarning, NumericalError
from .features import FeatureBasis, KernelParams, _axis_tables
from .fields import AdjointBank, Field, Grid, GridMismatchError, Window

__all__ = [
    "ObservationSet",
    "PosteriorQ",
    "assemble_phi",
    "posterior_q",
    "posterior_forcing",
    "predictive_mse",
    "predictive_nll",
    "forcing_calibration",
    "nll_score",
    "grid_scan",
    "run_pipeline",
    "PipelineResult",
    "PIPELINE_STAGES",
    "Clock",
]

SIGMA_MIN = 1e-6
_STACK_BYTES = 2**20  # slab rows copied for one table product: 1 MiB
_PART_SIZE = 2**19  # complex projections of one batch: 8 MiB


@dataclass(frozen=True)
class ObservationSet:
    """Observation functionals, their noisy readings, and the noise level.
    A `sigma` below SIGMA_MIN is kept as SIGMA_MIN, the numerical floor
    that keeps the posterior and its scores finite as sigma -> 0."""

    windows: tuple[Window, ...]
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
        if not (np.isfinite(self.sigma) and self.sigma >= 0):
            raise ValueError("noise level sigma must be finite and non-negative")
        z.setflags(write=False)
        object.__setattr__(self, "windows", windows)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "sigma", max(float(self.sigma), SIGMA_MIN))

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
    "logdet_precision", 2 sum log diag L of the factored precision;
    "residual_norm", the standardized residual norm |z - Phi mean| / sigma;
    and "condition_bounds", [lower, upper] on the condition number of the
    factored precision L L^T in O(M^2): (max diag L / min diag L)^2 (diag L
    are L's eigenvalues) and |L|_F^2 |R|_F^2 (Frobenius norms bound 2-norms).
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

    @property
    def sd(self) -> np.ndarray:
        """Marginal standard deviations, the row norms of `root`: O(M^2),
        where the diagonal of `cov` costs a whole product."""
        return np.sqrt(np.einsum("ij,ij->i", self.root, self.root))


def _chol_with_jitter(mat: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor and the jitter added to the diagonal, retrying
    with jitter scaled to the matrix before giving up.  The matrix is a
    posterior precision Phi'Phi / sigma^2 + I, so its diagonal is at least 1."""
    scale = float(np.abs(np.diag(mat)).max())
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


def _upper_inverse(up: np.ndarray) -> np.ndarray:
    """Inverse of an upper-triangular matrix by halves, [[A, B], [0, D]]^-1 = [[A^-1,
    -A^-1 B D^-1], [0, D^-1]]; LU on <= 32 rows never pivots, so zeros stay exact."""
    if len(up) <= 32:
        return np.linalg.inv(up)
    h, out = len(up) // 2, np.zeros(up.shape)
    out[:h, :h], out[h:, h:] = _upper_inverse(up[:h, :h]), _upper_inverse(up[h:, h:])
    out[:h, h:] = -out[:h, :h] @ (up[:h, h:] @ out[h:, h:])
    return out


# ---------------------------------------------------------------------------
# design matrix


def assemble_phi(bank: AdjointBank, basis: FeatureBasis, *, grid: Grid | None = None,
                 projections: dict | None = None) -> np.ndarray:
    """Read-only (n, M) design matrix Phi[i, m] = <v_i, phi_m> over the
    adjoint bank's grid.

    The slabs (cells, V) the bank yields, one time cell on (time, space)
    grids, are cut into pieces, the outer runs of cells cut at the cells
    where functionals read, and each piece is projected once onto the
    per-axis tables, V^T [cos b | sin b], and added with cos a and sin a of
    its outer row into running cosine and sine sums C and S of its w base
    columns.  Consecutive pieces that read all of the tables, every time
    cell of a PDE bank and the uncut outer runs of a 1-D one, are copied
    into a stack of at most _STACK_BYTES and projected by one product; a
    PDE bank yields its slabs as it marches, so no solution outlives its
    stack, and the time cells after the last window ends are never
    evaluated.  Functional i adds cos(w d dt) C + sin(w d dt) S, w the time
    frequencies, for each shift d of its run runs[i] as the march passes
    cell d, and the sum is scaled by scale[i].  The amplitude scales Phi as the
    last step, so the variance never needs a new projection: `projections`,
    a dict the caller keeps across calls on one bank and one frequency draw,
    holds the unit-amplitude projection per lengthscale, bit for bit what a
    call without it makes.  Passing `grid` asserts the bank lives on that grid; a
    mismatch raises GridMismatchError before any work is done.  Non-finite
    entries raise NumericalError.
    """
    if grid is not None and bank.grid != grid:
        raise GridMismatchError("adjoint bank does not live on the expected grid")
    if basis.dim != bank.grid.ndim:
        raise GridMismatchError("basis dimension does not match the grid")
    projections = {} if projections is None else projections
    # an overflow is reported below as an error, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        if basis.kernel.lengthscale not in projections:
            projections[basis.kernel.lengthscale] = _project(bank, basis)
        phi = projections[basis.kernel.lengthscale] * basis.amplitude
    if not np.isfinite(phi).all():
        raise NumericalError("design matrix has non-finite entries; the adjoint "
                             "bank or the basis overflowed")
    phi.setflags(write=False)
    return phi


def _project(bank: AdjointBank, basis: FeatureBasis) -> np.ndarray:
    """Unit-amplitude (n, M) projections, as `assemble_phi` describes; C and
    S are the real and imaginary parts of one complex sum.  The pieces go
    in batches, in march order: each batch's products, then its turns and
    running sums, then its reads, one add per functional and piece (every
    shift is a piece edge, so a functional reads a piece at most once) in
    march order, which is the order of the pieces one at a time."""
    grid, size = bank.grid, basis.size
    cos_a, sin_a, blocks = _axis_tables(basis, grid)
    inner, lo = -(-grid.num_cells // len(cos_a)), 0  # cells per outer row
    # exp(i a), and exp(i b) filled block by block, as interleaved (cos, sin)
    # columns of one product
    tables, turn_a = np.empty((inner, size), dtype=complex), np.empty(cos_a.shape, dtype=complex)
    turn_a.real, turn_a.imag = cos_a, sin_a
    for cos_b, sin_b in blocks:
        rows = slice(lo, lo := lo + len(cos_b))
        tables.real[rows], tables.imag[rows] = cos_b, sin_b
    del cos_b, sin_b  # views that would keep the last join buffer alive
    tables = tables.view(float)
    # one (functional, shift) pair per read, ordered by shift; a base with
    # no live cell is never marched, and its functionals read 0
    runs = bank.runs
    widths = np.diff(runs, axis=1)[:, 0] * (bank.live[bank.base] > 0)
    reader = np.repeat(np.arange(len(runs)), widths)
    shift = np.arange(len(reader)) + np.repeat(runs[:, 0] - np.cumsum(widths) + widths, widths)
    by_shift = np.argsort(shift, kind="stable")
    reader, shift = reader[by_shift], shift[by_shift]
    distinct = np.diff(shift, prepend=-1) != 0  # each distinct shift's first read
    shifts, which = shift[distinct], np.cumsum(distinct) - 1
    # pieces: the outer runs, cut at the cells where functionals read; piece
    # k reads `lengths[k]` rows of the tables from `heads[k]`, all of them
    # when `whole[k]`, as every piece on a grid with spatial axes does
    per_time = grid.num_cells // grid.dims[0]
    edges = np.sort(np.concatenate((np.arange(0, grid.num_cells, inner), shifts * per_time)))
    edges = edges[np.diff(edges, prepend=-1) != 0]
    bounds = np.append(edges, grid.num_cells)
    outer, heads, lengths = edges // inner, (edges % inner).tolist(), np.diff(bounds)
    whole, lengths, bounds = (lengths == inner).tolist(), lengths.tolist(), bounds.tolist()
    # piece k's reads are [starts[k], starts[k + 1])
    piece = np.searchsorted(edges, shift * per_time)
    starts = np.searchsorted(piece, np.arange(len(bounds))).tolist()
    column, last = bank.columns[reader], runs[reader, 1]
    # exp(-i w d dt), as cos - i sin: the bits of np.exp, whose complex path
    # takes half as long again
    back = np.outer(shifts, basis.frequencies[:, 0] / basis.kernel.lengthscale * grid.spacing[0])
    back = np.cos(back) - 1j * np.sin(back)
    sums = np.zeros((len(bank.order), size), dtype=complex)
    unit = np.zeros((len(runs), size))
    # a batch: its pieces, consecutive and in march order (the last first),
    # their widths, and its products, each (first table row, table rows,
    # height, the piece's rows): whole pieces in a row share one product of
    # their rows, which are copied, transposed, one after another into
    # `stack`, and stand as None; a bank with no whole piece allocates no
    # stack, whose 1 MiB alone made the ode-bundle projection up to a third
    # slower
    budget = _STACK_BYTES // 8
    stack = np.empty(max(budget, len(bank.order) * inner) if any(whole) else 0)
    ks, ws, products = [], [], []

    def flush():
        part, at, row = np.empty((sum(ws), 2 * size)), 0, 0
        for h, n, height, src in products:
            if src is None:
                src = stack[at:(at := at + height * n)].reshape(height, n)
            np.matmul(src, tables[h:h + n], out=part[row:(row := row + height)])
        part, row, i = part.view(complex), 0, 0
        # turned by the outer rows, then running sums at each piece's start
        for w, run in itertools.groupby(ws):
            count = len(list(run))
            seg = part[row:(row := row + w * count)].reshape(count, w, size)
            seg *= turn_a[outer[ks[i] - count + 1:ks[i] + 1][::-1], None]
            i += count
            seg[0] += sums[:w]
            for k in range(1, count):
                seg[k] += seg[k - 1]
            sums[:w] = seg[-1]
        # reads at the start of these pieces; a functional reads a piece at
        # most once, so its reads here, by rank in march order, take one add each
        top, reads = ks[0] + 1, slice(starts[ks[-1]], starts[ks[0] + 1])
        rank = np.minimum(last[reads], bounds[top] // per_time) - 1 - shift[reads]
        got = reads.start + np.argsort(rank, kind="stable")
        read = (part[np.cumsum([0] + ws[:-1])[top - 1 - piece[got]] + column[got]]
                * back[which[got]]).real
        ranks = [0] + np.cumsum(np.bincount(rank)).tolist()
        for lo, hi in itertools.pairwise(ranks):
            unit[reader[got[lo:hi]]] += read[lo:hi]
        del ks[:], ws[:], products[:]

    used = height = 0
    for cells, v in bank.slabs():
        first, stop = np.searchsorted(edges, (cells.start, cells.stop)).tolist()
        for k in range(stop - 1, first - 1, -1):  # the last first
            src = v[bounds[k] - cells.start:bounds[k + 1] - cells.start].T
            w = len(src)
            if ks and (used + src.size > budget or (height + w) * size > _PART_SIZE):
                flush()
                used = height = 0
            if not whole[k]:
                products.append((heads[k], lengths[k], w, src))
            else:
                stack[used:(used := used + src.size)].reshape(src.shape)[...] = src
                if ks and whole[k + 1]:
                    products[-1] = (0, inner, products[-1][2] + w, None)
                else:
                    products.append((0, inner, w, None))
            ks.append(k)
            ws.append(w)
            height += w
    if ks:
        flush()
    return unit * bank.scale[:, None] * grid.cell_volume


# ---------------------------------------------------------------------------
# estimator


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
    # P^{-1} = L^{-T} L^{-1}: L^{-T} is a square root of the covariance
    root = _upper_inverse(chol.T)
    mean = root @ (root.T @ (noise_prec * (design.T @ z)))
    resid_norm = float(np.linalg.norm(z - design @ mean)) / sigma
    diag = np.diag(chol)
    post = PosteriorQ(mean, root, {
        "jitter": jitter, "logdet_precision": 2.0 * float(np.log(diag).sum()),
        "residual_norm": resid_norm, "condition_bounds": [
            float(diag.max() / diag.min()) ** 2,
            float(np.linalg.norm(chol) * np.linalg.norm(root)) ** 2]})
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
    """Posterior mean field and pointwise variance field of the forcing, both
    from one pass over the tables: each block of b's rows and each outer row
    make one unit-amplitude feature block, cos b cos a - sin b sin a."""
    if basis.size != post.dim:
        raise ValueError("posterior dimension does not match basis")
    coef, root = basis.amplitude * post.mean, basis.amplitude * post.root
    mean, var = np.empty(grid.num_cells), np.empty(grid.num_cells)
    cos_a, sin_a, blocks = _axis_tables(basis, grid)
    inner, lo = -(-grid.num_cells // len(cos_a)), 0  # cells per outer row; a last 1-D run is short
    for cos_b, sin_b in blocks:
        block, spread = np.empty_like(cos_b), np.empty_like(cos_b)
        for o, start in enumerate(range(lo, grid.num_cells, inner)):
            n = min(len(cos_b), grid.num_cells - start)
            np.multiply(cos_b[:n], cos_a[o], out=block[:n])
            block[:n] -= np.multiply(sin_b[:n], sin_a[o], out=spread[:n])
            mean[start:start + n] = block[:n] @ coef
            # pointwise variance phi(x)^T S phi(x) = |root^T phi(x)|^2
            w = np.matmul(block[:n], root, out=spread[:n])
            var[start:start + n] = np.einsum("ij,ij->i", w, w)
        lo += len(cos_b)
    del cos_b, sin_b, block, spread, w  # freed before the fields copy mean and var
    return Field(grid, mean), Field(grid, np.maximum(var, 0.0, out=var))


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
    Row i of `phi` is the design row of reading i."""
    mean, var = _predictive_moments(post, phi, data.z)
    var = var + data.sigma ** 2
    return float(np.sum(0.5 * np.log(2.0 * np.pi * var) + (data.z - mean) ** 2 / (2.0 * var)))


def forcing_calibration(mean, var, truth) -> tuple[float, float]:
    """The share of cells whose truth lies within 1.96 posterior sd of the
    mean, and the median over cells of z = |truth - mean| / sd.  A cell of
    zero variance takes the limit of z: 0 where the mean equals the truth,
    inf elsewhere, so it is covered only where its mean is exact."""
    z, sd = np.abs(np.subtract(truth, mean)), np.sqrt(var)
    np.divide(z, sd, out=z, where=sd > 0)
    z[(sd == 0) & (z > 0)] = np.inf
    coverage = np.count_nonzero(z <= 1.96) / z.size
    # np.median's value from one partition, without the numpy.ma it imports
    half = z.size // 2
    z.partition(half)  # the cells before `half` now hold the lower half
    return coverage, float(z[half] if z.size % 2 else 0.5 * (z[:half].max() + z[half]))


# ---------------------------------------------------------------------------
# hyperparameter scoring


def nll_score(theta: dict, data: ObservationSet, bank: AdjointBank,
              basis: FeatureBasis, projections: dict | None = None) -> float:
    """Score hyperparameters `theta` (must contain `lengthscale` and
    `variance`) by the posterior predictive NLL of the readings in `data`.

    Neither `bank`, the adjoint bank of `data.windows`, nor the frequencies
    and phases of `basis` depend on the kernel; per call the basis takes the
    kernel of `theta`, and the design matrix and posterior are rebuilt.
    `projections` is passed to `assemble_phi`, so a lattice scan that keeps
    one dict projects once per lengthscale.
    """
    kernel = KernelParams(float(theta["lengthscale"]), float(theta["variance"]))
    basis = FeatureBasis(basis.frequencies, basis.phases, kernel, seed=basis.seed)
    phi = assemble_phi(bank, basis, grid=data.grid, projections=projections)
    post = posterior_q(phi, data.z, data.sigma)
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


class Clock(dict):
    """The timings of one run: named counts, and named wall-clock seconds
    (monotonic), each the sum of the blocks `stage(name)` timed."""

    def __init__(self):
        super().__init__()
        self.start = time.perf_counter()

    @contextmanager
    def stage(self, name: str):
        begun = time.perf_counter()
        yield
        self[name] = self.get(name, 0.0) + time.perf_counter() - begun

    def elapsed(self) -> float:
        """Seconds since the clock started."""
        return time.perf_counter() - self.start


@dataclass
class PipelineResult:
    posterior: PosteriorQ
    phi: np.ndarray
    phi_heldout: np.ndarray
    timings: Clock


def run_pipeline(system, observations: ObservationSet, basis: FeatureBasis,
                 heldout=(), clock: Clock | None = None) -> PipelineResult:
    """One adjoint solve per observation and per `heldout` functional,
    marched together and projected as the march yields them, the design
    matrix, split into `phi` and `phi_heldout`, and the posterior, each
    stage timed into `clock` (a new one when None), the result's `timings`.
    The march runs inside the projection, so its seconds, `bank.seconds`,
    move from that stage to the solves.  The clock also counts the bank's
    rows, the right-hand sides it marched and the cells they stepped."""
    n, clock = observations.n, Clock() if clock is None else clock
    with clock.stage("adjoint_solves"):
        bank = system.adjoint_march(observations.windows + tuple(heldout))
    with clock.stage("phi_assembly"):
        phi = assemble_phi(bank, basis)
    with clock.stage("posterior_solve"):
        post = posterior_q(phi[:n], observations.z, observations.sigma)
    clock["adjoint_solves"] += bank.seconds
    clock["phi_assembly"] -= bank.seconds
    clock.update(bank_rows_training=n, bank_rows_heldout=len(heldout), bank_solves=bank.solves,
                 bank_cell_steps=bank.cell_steps)
    return PipelineResult(post, phi[:n], phi[n:], clock)
