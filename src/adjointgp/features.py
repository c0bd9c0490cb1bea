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
therefore independent of M and of every other feature, and a basis can
be rebuilt bit-for-bit from (seed, count, dim, kernel).  The children are
never built: their PCG64 states follow from numpy's fixed SeedSequence
algorithm in one vectorized pass, and one generator draws each stream.

Evaluation on a grid takes cosines of per-axis arguments only.  The cells
are split into outer rows of `inner` cells, a time cell on grids with
spatial axes and a run of ceil(sqrt(G)) cells on 1-D grids, and the
argument of cell o * inner + i splits into a[o] + b[i], so that by angle
addition phi_m = amplitude * (cos a cos b - sin a sin b).  The tables carry
no amplitude, and b's rows come in blocks joined within a fixed byte budget:
a forcing is two products per block, the posterior mean among them, Phi
projects on the blocks stacked, the posterior variance reads one (rows, M)
feature block per block and outer row, and the amplitude scales each result
last.  The dense reference, `eval_basis`, lives in the tests' oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import Field, Grid, GridMismatchError

__all__ = [
    "KernelParams",
    "FeatureBasis",
    "forcing_from_weights",
    "sample_prior_forcing",
]

_JOIN_BYTES = 2**21  # joined rows of b one table block holds: 2 MiB
_MASK32 = 0xFFFFFFFF
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG64's 128-bit LCG multiplier


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
        count, dim, seed = int(count), int(dim), int(seed)
        if count < 1 or dim < 1:
            raise ValueError("count and dim must be positive")
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        freq = np.empty((count, dim))
        ph = np.empty(count)
        # one generator, set to each child's stream in turn
        bits = np.random.PCG64(0)
        rng = np.random.Generator(bits)
        for m, (state, inc) in enumerate(_spawned_pcg64(seed, count)):
            bits.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                          "has_uint32": 0, "uinteger": 0}
            freq[m] = rng.standard_normal(dim)
            ph[m] = 2.0 * np.pi * rng.random()  # uniform(0, 2 pi)'s bits, minus its checks
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


def _hashed(value, consts):
    """One step of SeedSequence's hash on uint32 arrays: xor the current
    constant, multiply by the next, fold the high half down."""
    old, new = next(consts)
    value = (value ^ old) * new
    return value ^ value >> 16


def _constants(value: int, mult: int):
    while True:
        yield value, (value := value * mult & _MASK32)


def _spawned_pcg64(seed: int, count: int):
    """(state, inc) of PCG64(SeedSequence(seed).spawn(count)[m]) for each m,
    by numpy's fixed SeedSequence algorithm: the child's entropy, the
    seed's uint32 words (at least 4) then its spawn key m, is mixed into a
    4-word pool, which hashes into the 128-bit seed and increment of the
    PCG64.  All uint32 arithmetic is on arrays, where it wraps without a
    warning, and every child's pool is mixed at once: the pool words are
    (1,) arrays until the spawn keys (count,) join them."""
    words = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    entropy = [np.array([w], dtype=np.uint32) for w in words + [0] * (4 - len(words))]
    entropy.append(np.arange(count, dtype=np.uint32))
    mixing = _constants(0x43B0D7E5, 0x931E8875)

    def mix(x, y):
        out = 0xCA01F9DD * x - 0x4973F715 * y
        return out ^ out >> 16

    pool = [_hashed(w, mixing) for w in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], _hashed(pool[src], mixing))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], _hashed(word, mixing))
    seeding = _constants(0x8B51F9DD, 0x58F38DED)
    state = np.stack([_hashed(pool[i % 4], seeding) for i in range(8)], axis=1)
    mask = (1 << 128) - 1
    for s0, s1, i0, i1 in state.astype("<u4").view("<u8").tolist():
        # pcg64_set_seed: state 0, step, add the seed, step
        inc = ((i0 << 64 | i1) << 1 | 1) & mask
        yield ((inc + (s0 << 64 | s1)) * _PCG_MULT + inc) & mask, inc


def _axis_tables(basis: FeatureBasis, grid: Grid):
    """Unit-amplitude tables (cos a, sin a) of shape (outer, M), and (cos b,
    sin b) of shape (inner, M) in blocks of rows.  a holds the phase and the
    time argument, or on 1-D grids the argument at a run's first center; b
    sums the spatial arguments, or the offsets i * dx, joined axis by axis
    by products broadcast over the rows whose scratch fits _JOIN_BYTES / 8,
    at least one.  A block spans the most cells of the first spatial axis
    that fit _JOIN_BYTES, at least one; a 1-D grid's b is one block.  A basis
    of another dimension than the grid raises GridMismatchError, first."""
    if basis.dim != grid.ndim:
        raise GridMismatchError(f"a {basis.dim}-D basis does not fit a {grid.ndim}-D grid")
    scaled = basis.frequencies.T / basis.kernel.lengthscale
    if grid.ndim == 1:
        inner = math.isqrt(grid.num_cells - 1) + 1
        outer, axes = grid.axis_centers(0)[::inner], [(np.arange(inner) * grid.spacing[0], 0)]
    else:
        outer, axes = grid.axis_centers(0), [(grid.axis_centers(k), k) for k in range(1, grid.ndim)]
    time = np.outer(outer, scaled[0]) + basis.phases
    (first, k0), axes = axes[0], axes[1:]
    trig = [(np.cos(arg), np.sin(arg)) for arg in (np.outer(c, scaled[k]) for c, k in axes)]
    rows = len(first) if grid.ndim == 1 else max(
        1, _JOIN_BYTES // (16 * basis.size * math.prod(len(c) for c, _ in axes)))

    def join(lo):
        arg = np.outer(first[lo:lo + rows], scaled[k0])
        cos_b, sin_b = np.cos(arg), np.sin(arg)
        for cos, sin in trig:
            step = max(1, _JOIN_BYTES // 8 // cos.nbytes)
            tmp = np.empty((min(step, len(cos_b)),) + cos.shape)
            joined = np.empty((2, len(cos_b), len(cos), basis.size))
            for j in range(0, len(cos_b), step):
                c, s = cos_b[j:j + step, None], sin_b[j:j + step, None]
                t, (jc, js) = tmp[:len(c)], joined[:, j:j + step]
                np.multiply(cos, c, out=jc)
                jc -= np.multiply(sin, s, out=t)
                np.multiply(cos, s, out=js)
                js += np.multiply(sin, c, out=t)
            cos_b, sin_b = joined.reshape(2, -1, basis.size)
        return cos_b, sin_b
    return np.cos(time), np.sin(time), map(join, range(0, len(first), rows))


def forcing_from_weights(basis: FeatureBasis, weights, grid: Grid) -> Field:
    """Field  f(x) = sum_m weights[m] * phi_m(x), a truth or a posterior
    mean: with c = amplitude * weights, (c cos a) cos b^T - (c sin a) sin b^T
    holds an outer row of cells per row, from _JOIN_BYTES blocks of b's rows."""
    weights = np.asarray(weights, dtype=float).reshape(-1)
    if weights.size != basis.size:
        raise ValueError(f"expected {basis.size} weights, got {weights.size}")
    cos_a, sin_a, blocks = _axis_tables(basis, grid)
    coef = basis.amplitude * weights
    cos_a *= coef
    sin_a *= coef
    # map lets go of each block before the next is joined, so one is held
    vals = np.hstack(list(map(lambda b: cos_a @ b[0].T - sin_a @ b[1].T, blocks)))
    return Field(grid, vals.reshape(-1)[:grid.num_cells])


def sample_prior_forcing(basis: FeatureBasis, grid: Grid, seed: int):
    """Draw q ~ N(0, I) and return (q, induced forcing field)."""
    rng = np.random.default_rng(int(seed))
    weights = rng.standard_normal(basis.size)
    return weights, forcing_from_weights(basis, weights, grid)
