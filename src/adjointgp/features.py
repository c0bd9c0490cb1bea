"""Random Fourier feature basis for the exponentiated-quadratic kernel.

The kernel  k(x, y) = variance * exp(-|x - y|^2 / (2 * lengthscale^2))  is
approximated by the truncated expansion  k(x, y) ~ sum_m phi_m(x) phi_m(y)
with

    phi_m(x) = sqrt(2 * variance / M) * cos(w_m . x / lengthscale + b_m),
    w_m ~ N(0, I),   b_m ~ U[0, 2*pi),

so a weight vector q ~ N(0, I_M) turns the basis into a Gaussian-process
prior over forcing fields with the truncated covariance.

Randomness policy: features are drawn from PCG64 streams.  A basis seeded
with integer `seed` spawns one child stream per feature via
``numpy.random.SeedSequence(seed).spawn(M)``; feature m draws its frequency
vector first, then its phase, from child m.  The draw for feature m is
therefore independent of M and of every other feature, and a serialized
basis can be reproduced bit-for-bit from (seed, count, dim, kernel).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .fields import Field, Grid

__all__ = [
    "KernelParams",
    "FeatureBasis",
    "eval_basis",
    "forcing_from_weights",
    "sample_prior_forcing",
    "basis_to_json",
    "basis_from_json",
]


@dataclass(frozen=True)
class KernelParams:
    """Exponentiated-quadratic kernel hyperparameters (both positive)."""

    lengthscale: float
    variance: float

    def __post_init__(self):
        if not (np.isfinite(self.lengthscale) and self.lengthscale > 0):
            raise ValueError(f"lengthscale must be positive, got {self.lengthscale}")
        if not (np.isfinite(self.variance) and self.variance > 0):
            raise ValueError(f"variance must be positive, got {self.variance}")


class FeatureBasis:
    """A fixed draw of random Fourier features.

    Attributes
    ----------
    frequencies : (count, dim) array
    phases : (count,) array in [0, 2*pi)
    kernel : KernelParams
    seed : int or None
        Present when the basis was drawn through :meth:`sample`.
    """

    __slots__ = ("frequencies", "phases", "kernel", "seed")

    def __init__(self, frequencies, phases, kernel: KernelParams, seed=None):
        freq = np.array(frequencies, dtype=np.float64, order="C")
        ph = np.array(phases, dtype=np.float64, order="C")
        if freq.ndim != 2:
            raise ValueError("frequencies must be a (count, dim) array")
        if ph.shape != (freq.shape[0],):
            raise ValueError("phases must have one entry per feature")
        if not (np.isfinite(freq).all() and np.isfinite(ph).all()):
            raise ValueError("basis arrays must be finite")
        if ((ph < 0) | (ph >= 2 * np.pi)).any():
            raise ValueError("phases must lie in [0, 2*pi)")
        freq.setflags(write=False)
        ph.setflags(write=False)
        object.__setattr__(self, "frequencies", freq)
        object.__setattr__(self, "phases", ph)
        object.__setattr__(self, "kernel", kernel)
        object.__setattr__(self, "seed", None if seed is None else int(seed))

    def __setattr__(self, name, value):
        raise AttributeError("FeatureBasis is immutable")

    @classmethod
    def sample(cls, count: int, dim: int, kernel: KernelParams, seed: int) -> "FeatureBasis":
        """Draw `count` features via one spawned PCG64 stream per feature."""
        count = int(count)
        dim = int(dim)
        if count < 1 or dim < 1:
            raise ValueError("count and dim must be positive")
        children = np.random.SeedSequence(int(seed)).spawn(count)
        freq = np.empty((count, dim))
        ph = np.empty(count)
        for m, child in enumerate(children):
            rng = np.random.Generator(np.random.PCG64(child))
            freq[m] = rng.standard_normal(dim)
            ph[m] = rng.uniform(0.0, 2.0 * np.pi)
        return cls(freq, ph, kernel, seed=seed)

    @property
    def size(self) -> int:
        return self.frequencies.shape[0]

    @property
    def dim(self) -> int:
        return self.frequencies.shape[1]

    @property
    def amplitude(self) -> float:
        """Common feature amplitude sqrt(2 * variance / count)."""
        return float(np.sqrt(2.0 * self.kernel.variance / self.size))


def _eval_at(basis: FeatureBasis, points: np.ndarray) -> np.ndarray:
    """Feature matrix (count, npoints) at explicit points (npoints, dim)."""
    args = basis.frequencies @ points.T / basis.kernel.lengthscale
    args += basis.phases[:, None]
    np.cos(args, out=args)
    args *= basis.amplitude
    return args


def eval_basis(basis: FeatureBasis, grid: Grid) -> np.ndarray:
    """Dense (count, num_cells) matrix of every feature at every cell center."""
    if basis.dim != grid.ndim:
        raise ValueError(f"basis dim {basis.dim} does not match grid ndim {grid.ndim}")
    return _eval_at(basis, grid.centers())


_BLOCK_ENTRIES = 1 << 23


def _axis_tables(basis: FeatureBasis, grid: Grid):
    """Per-axis cosine and sine tables of the feature arguments on a grid
    with time on axis 0 and at least one spatial axis.

    The argument w_m . x / lengthscale + b_m splits into a time part
    a[m, k] (with the phase) over the nt time centers and a space part
    b[m, s] over the S = num_cells / nt spatial cell centers, so
    phi_m = amplitude * (cos a cos b - sin a sin b) by angle addition.
    Returns (amplitude * cos a, amplitude * sin a, cos b, sin b) with
    shapes (M, nt) and (M, S).
    """
    scale = 1.0 / basis.kernel.lengthscale
    time = np.outer(basis.frequencies[:, 0] * scale, grid.axis_centers(0))
    time += basis.phases[:, None]
    space_grid = Grid(grid.dims[1:], grid.spacing[1:], grid.origin[1:])
    space = (basis.frequencies[:, 1:] * scale) @ space_grid.centers().T
    amp = basis.amplitude
    return amp * np.cos(time), amp * np.sin(time), np.cos(space), np.sin(space)


def _cell_blocks(basis: FeatureBasis, grid: Grid):
    """Yield (cell slice, feature matrix block) in cell order.

    On 1-D grids each block is evaluated directly from the cell centers,
    under a cap of _BLOCK_ENTRIES entries.  With spatial axes each block is
    the (M, S) feature matrix of one time cell, built from the per-axis
    tables of :func:`_axis_tables`, which needs products instead of cosines
    for every entry, into one buffer reused from cell to cell: a block is
    valid until the next one is asked for, and no (M, num_cells) array is
    ever held.
    """
    if grid.ndim == 1:
        centers = grid.centers()
        g = grid.num_cells
        block = max(1, min(g, _BLOCK_ENTRIES // max(1, basis.size)))
        for start in range(0, g, block):
            stop = min(start + block, g)
            yield slice(start, stop), _eval_at(basis, centers[start:stop])
        return
    cos_a, sin_a, cos_b, sin_b = _axis_tables(basis, grid)
    space = cos_b.shape[1]
    block, sines = np.empty_like(cos_b), np.empty_like(sin_b)
    for k in range(cos_a.shape[1]):
        np.multiply(cos_a[:, k, None], cos_b, out=block)
        block -= np.multiply(sin_a[:, k, None], sin_b, out=sines)
        yield slice(k * space, (k + 1) * space), block


def forcing_from_weights(basis: FeatureBasis, weights, grid: Grid) -> Field:
    """Field  f(x) = sum_m weights[m] * phi_m(x)  over the grid.

    With spatial axes the sum factors into two matrix products over the
    per-axis tables, (q cos a)^T cos b - (q sin a)^T sin b, one row per
    time cell.
    """
    weights = np.asarray(weights, dtype=float).reshape(-1)
    if weights.size != basis.size:
        raise ValueError(f"expected {basis.size} weights, got {weights.size}")
    if basis.dim != grid.ndim:
        raise ValueError("basis dim does not match grid")
    if grid.ndim == 1:
        vals = np.empty(grid.num_cells)
        for sl, block in _cell_blocks(basis, grid):
            vals[sl] = weights @ block
        return Field(grid, vals)
    cos_a, sin_a, cos_b, sin_b = _axis_tables(basis, grid)
    vals = (weights[:, None] * cos_a).T @ cos_b
    vals -= (weights[:, None] * sin_a).T @ sin_b
    return Field(grid, vals)


def sample_prior_forcing(basis: FeatureBasis, grid: Grid, seed: int):
    """Draw q ~ N(0, I) and return (q, induced forcing field)."""
    rng = np.random.default_rng(int(seed))
    weights = rng.standard_normal(basis.size)
    return weights, forcing_from_weights(basis, weights, grid)


def basis_to_json(basis: FeatureBasis, include_arrays: bool = True) -> str:
    """Serialize the basis.  With arrays included the JSON replays exactly;
    without them a basis sampled from `seed` reconstructs bit-for-bit."""
    obj = {
        "seed": basis.seed,
        "count": basis.size,
        "dim": basis.dim,
        "lengthscale": basis.kernel.lengthscale,
        "variance": basis.kernel.variance,
    }
    if include_arrays:
        obj["frequencies"] = basis.frequencies.tolist()
        obj["phases"] = basis.phases.tolist()
    return json.dumps(obj, sort_keys=True)


def basis_from_json(text: str) -> FeatureBasis:
    obj = json.loads(text)
    kernel = KernelParams(obj["lengthscale"], obj["variance"])
    if "frequencies" in obj:
        basis = FeatureBasis(obj["frequencies"], obj["phases"], kernel, seed=obj.get("seed"))
        if basis.size != obj["count"] or basis.dim != obj["dim"]:
            raise ValueError("array shapes disagree with declared count/dim")
        return basis
    if obj.get("seed") is None:
        raise ValueError("cannot rebuild basis: no arrays and no seed")
    return FeatureBasis.sample(obj["count"], obj["dim"], kernel, obj["seed"])
