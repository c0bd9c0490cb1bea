"""Uniform grids, cell-centered fields, and the quadrature inner product.

A :class:`Grid` is a uniform rectangular lattice over an axis-aligned box.
Values are attached to cell centers and stored in C (row-major) order with
axis 0 the slowest-varying axis; space-time grids put time on axis 0 so a
solver step touches one contiguous spatial slab.

The inner product is the cell-center Riemann sum

    <a, b> = sum_g a_g * b_g * cell_volume

which is the quadrature used for every observation functional and for the
feature projections downstream.  Fields may carry a boolean mask marking
cells where the field is defined; masked inner products integrate only over
cells where both operands are defined (undefined cells are excluded, not
zero-filled).

Binary serialization format (little-endian throughout):

    bytes 0..7    magic ``b"AGPFLD01"``
    uint32        ndim
    uint8         has_mask (0 or 1)
    bytes         3 zero pad bytes
    uint64[ndim]  dims
    float64[ndim] spacing
    float64[ndim] origin
    float64[G]    values, C order
    uint8[G]      mask, C order (only if has_mask == 1)
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, GridMismatchError

_MAGIC = b"AGPFLD01"


@dataclass(frozen=True)
class Grid:
    """Uniform rectangular grid over an axis-aligned box.

    Parameters
    ----------
    dims : tuple of int
        Cell counts per axis, each at least 2.
    spacing : tuple of float
        Cell widths per axis, each positive.
    origin : tuple of float
        Lower corner of the box (not the first cell center).
    """

    dims: tuple[int, ...]
    spacing: tuple[float, ...]
    origin: tuple[float, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        spacing = tuple(float(s) for s in self.spacing)
        origin = tuple(float(o) for o in self.origin)
        if len(dims) == 0:
            raise ValueError("grid needs at least one axis")
        if not (len(dims) == len(spacing) == len(origin)):
            raise ValueError("dims, spacing and origin must have equal length")
        if any(d < 2 for d in dims):
            raise ValueError(f"every axis needs at least 2 cells, got dims={dims}")
        if any(not np.isfinite(s) or s <= 0.0 for s in spacing):
            raise ValueError(f"cell spacing must be positive and finite, got {spacing}")
        if any(not np.isfinite(o) for o in origin):
            raise ValueError(f"grid origin must be finite, got {origin}")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "spacing", spacing)
        object.__setattr__(self, "origin", origin)

    @classmethod
    def regular(cls, bounds, cells) -> "Grid":
        """Grid with `cells[k]` cells covering `bounds[k] = (lo, hi)` per axis."""
        bounds = [(float(lo), float(hi)) for lo, hi in bounds]
        cells = [int(c) for c in cells]
        if len(bounds) != len(cells):
            raise ValueError("bounds and cells must have equal length")
        for (lo, hi), c in zip(bounds, cells):
            if hi <= lo:
                raise ValueError(f"empty extent ({lo}, {hi})")
        spacing = tuple((hi - lo) / c for (lo, hi), c in zip(bounds, cells))
        origin = tuple(lo for lo, _ in bounds)
        return cls(tuple(cells), spacing, origin)

    @property
    def ndim(self) -> int:
        return len(self.dims)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.dims

    @property
    def num_cells(self) -> int:
        n = 1
        for d in self.dims:
            n *= d
        return n

    @property
    def cell_volume(self) -> float:
        v = 1.0
        for s in self.spacing:
            v *= s
        return v

    def extent(self, axis: int) -> float:
        return self.dims[axis] * self.spacing[axis]

    def bounds(self, axis: int) -> tuple[float, float]:
        return self.origin[axis], self.origin[axis] + self.extent(axis)

    def axis_centers(self, axis: int) -> np.ndarray:
        """Cell-center coordinates along one axis."""
        d = self.dims[axis]
        return self.origin[axis] + (np.arange(d) + 0.5) * self.spacing[axis]

    def centers(self) -> np.ndarray:
        """All cell centers as a (num_cells, ndim) array in C order."""
        axes = [self.axis_centers(k) for k in range(self.ndim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.reshape(-1) for m in mesh], axis=1)


def check_time_grid(grid: Grid, ndim: int, T: float) -> None:
    """Check that `grid` has `ndim` axes and that its time axis, axis 0,
    covers [0, T] to within 1e-9 * max(1, T)."""
    if grid.ndim != ndim:
        raise GridMismatchError(
            f"expected a {ndim}-D grid with time on axis 0, got {grid.ndim}-D")
    lo, hi = grid.bounds(0)
    tol = 1e-9 * max(1.0, T)
    if abs(lo) > tol or abs(hi - T) > tol:
        raise GridMismatchError(f"time axis covers [{lo}, {hi}], expected [0, {T}]")


class Field:
    """Real values at the cell centers of a :class:`Grid`.  Immutable.

    An optional boolean mask marks cells where the field is defined;
    undefined cells hold 0.0 and are excluded from masked inner products.
    """

    __slots__ = ("grid", "values", "mask")

    def __init__(self, grid: Grid, values, mask=None):
        vals = np.array(values, dtype=np.float64, order="C")
        if vals.size != grid.num_cells:
            raise ValueError(
                f"value count {vals.size} does not match grid cell count {grid.num_cells}"
            )
        vals = vals.reshape(grid.shape)
        if mask is not None:
            m = np.array(mask, dtype=bool, order="C")
            if m.size != grid.num_cells:
                raise ValueError("mask size does not match grid cell count")
            m = m.reshape(grid.shape)
            if not np.isfinite(vals[m]).all():
                raise ValueError("field values must be finite on defined cells")
            vals = np.where(m, vals, 0.0)
            m.setflags(write=False)
        else:
            if not np.isfinite(vals).all():
                raise ValueError("field values must be finite")
            m = None
        vals.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "mask", m)

    def __setattr__(self, name, value):
        raise AttributeError("Field is immutable")

    @classmethod
    def zeros(cls, grid: Grid) -> "Field":
        return cls(grid, np.zeros(grid.shape))

    @classmethod
    def full(cls, grid: Grid, value: float) -> "Field":
        return cls(grid, np.full(grid.shape, float(value)))

    @property
    def values_flat(self) -> np.ndarray:
        return self.values.reshape(-1)

    @property
    def mask_flat(self):
        return None if self.mask is None else self.mask.reshape(-1)


def _check_same_grid(a: Field, b: Field):
    if a.grid != b.grid:
        raise GridMismatchError(
            f"fields live on different grids: {a.grid.dims} vs {b.grid.dims}"
        )


def inner_product(a: Field, b: Field) -> float:
    """Cell-center quadrature <a, b> = sum a*b*cell_volume.

    With masks present the sum runs only over cells where both operands are
    defined.
    """
    _check_same_grid(a, b)
    av = a.values_flat
    bv = b.values_flat
    if a.mask is not None or b.mask is not None:
        joint = np.ones(av.size, dtype=bool)
        if a.mask is not None:
            joint &= a.mask_flat
        if b.mask is not None:
            joint &= b.mask_flat
        av = av[joint]
        bv = bv[joint]
    return float(np.dot(av, bv)) * a.grid.cell_volume


def norm(a: Field) -> float:
    return float(np.sqrt(inner_product(a, a)))


def window_indicator(grid: Grid, lo, hi) -> Field:
    """Normalized indicator of the box [lo, hi), snapped to whole cells.

    The window covers every cell whose center falls in the half-open box and
    carries the constant value 1 / (covered measure), so it integrates to 1
    under :func:`inner_product` against the unit field.
    """
    lo = np.asarray(lo, dtype=float).reshape(-1)
    hi = np.asarray(hi, dtype=float).reshape(-1)
    if lo.size != grid.ndim or hi.size != grid.ndim:
        raise GridMismatchError(
            f"window bounds must have {grid.ndim} coordinates, got {lo.size}/{hi.size}"
        )
    if not (lo < hi).all():
        raise ValueError(f"window must satisfy lo < hi componentwise, got {lo} / {hi}")
    index_sets = []
    for k in range(grid.ndim):
        c = grid.axis_centers(k)
        idx = np.nonzero((c >= lo[k]) & (c < hi[k]))[0]
        if idx.size == 0:
            raise DomainError(
                f"window [{lo[k]}, {hi[k]}) contains no cell centers on axis {k}"
            )
        index_sets.append(idx)
    count = 1
    for idx in index_sets:
        count *= idx.size
    value = 1.0 / (count * grid.cell_volume)
    vals = np.zeros(grid.shape)
    vals[np.ix_(*index_sets)] = value
    return Field(grid, vals)


@dataclass(frozen=True)
class AdjointBank:
    """Adjoint solutions of n functionals on one grid, as a solver's
    `adjoint_bank` returns them: row i of the (n, num_cells) array `rows`
    solves functional i, with masked cells holding 0.  The grid travels
    with the rows, so they are never read on a grid of another shape.
    `live[i]`, found once from the rows, counts the time cells (axis 0) up
    to row i's last non-zero one: the row is exactly zero from there on."""

    rows: np.ndarray
    grid: Grid
    live: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.rows.ndim != 2 or self.rows.shape[1] != self.grid.num_cells:
            raise GridMismatchError(
                f"bank rows of shape {self.rows.shape} do not fit a grid of "
                f"{self.grid.num_cells} cells")
        nonzero = (self.rows.reshape(len(self.rows), self.grid.dims[0], -1) != 0).any(axis=2)
        object.__setattr__(self, "live", (nonzero * np.arange(1, nonzero.shape[1] + 1)).max(1))


def bank_rows(fields, grid: Grid, what: str = "functional") -> np.ndarray:
    """One preallocated (n, num_cells) array holding field i in row i.

    Solvers march in place over this array: each step reads a cell's
    right-hand sides and overwrites them with the solution there, so a bank
    of solves needs no second copy of its inputs.  Masked cells hold 0.
    """
    fields = tuple(fields)
    if not fields:
        raise ValueError(f"need at least one {what}")
    rows = np.empty((len(fields), grid.num_cells))
    for i, f in enumerate(fields):
        if f.grid != grid:
            raise GridMismatchError(f"{what} lives on a different grid")
        rows[i] = f.values_flat
    return rows


def dirac_window(grid: Grid, point) -> Field:
    """Point observation as a single-cell window containing `point`."""
    point = np.asarray(point, dtype=float).reshape(-1)
    if point.size != grid.ndim:
        raise GridMismatchError("point dimension does not match grid")
    lo = []
    hi = []
    for k in range(grid.ndim):
        o, s, d = grid.origin[k], grid.spacing[k], grid.dims[k]
        top = o + d * s
        if point[k] < o or point[k] > top:
            raise DomainError(f"point coordinate {point[k]} outside axis {k}")
        # the closed upper edge belongs to the last cell
        i = min(int(np.floor((point[k] - o) / s)), d - 1)
        lo.append(o + i * s)
        hi.append(o + (i + 1) * s)
    return window_indicator(grid, lo, hi)


# ---------------------------------------------------------------------------
# serialization

def field_to_csv(field: Field, path):
    """Write one row per cell: integer indices, center coordinates, value.

    Masked fields gain a trailing ``defined`` column (0/1).
    """
    grid = field.grid
    d = grid.ndim
    header = (
        [f"i{k}" for k in range(d)]
        + [f"x{k}" for k in range(d)]
        + ["value"]
    )
    masked = field.mask is not None
    if masked:
        header.append("defined")
    axes = [grid.axis_centers(k) for k in range(d)]
    idx = np.stack(
        [m.reshape(-1) for m in np.meshgrid(*[np.arange(n) for n in grid.dims], indexing="ij")],
        axis=1,
    )
    vals = field.values_flat
    mask = field.mask_flat
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for g in range(grid.num_cells):
            row = [str(int(idx[g, k])) for k in range(d)]
            row += [repr(float(axes[k][idx[g, k]])) for k in range(d)]
            row.append(repr(float(vals[g])))
            if masked:
                row.append(str(int(mask[g])))
            fh.write(",".join(row) + "\n")


def field_from_csv(grid: Grid, path) -> Field:
    data = np.genfromtxt(path, delimiter=",", names=True)
    if data.size != grid.num_cells:
        raise ValueError("row count does not match grid cell count")
    vals = np.asarray(data["value"], dtype=float)
    names = data.dtype.names
    mask = np.asarray(data["defined"], dtype=bool) if "defined" in names else None
    return Field(grid, vals, mask=mask)


def field_to_binary(field: Field, path):
    """Dump per the documented little-endian layout (see module docstring)."""
    grid = field.grid
    has_mask = field.mask is not None
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<IB3x", grid.ndim, int(has_mask)))
        fh.write(np.asarray(grid.dims, dtype="<u8").tobytes())
        fh.write(np.asarray(grid.spacing, dtype="<f8").tobytes())
        fh.write(np.asarray(grid.origin, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(field.values, dtype="<f8").tobytes())
        if has_mask:
            fh.write(np.ascontiguousarray(field.mask, dtype="u1").tobytes())


def field_from_binary(path) -> Field:
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != _MAGIC:
            raise ValueError(f"bad magic {magic!r}, not a field dump")
        ndim, has_mask = struct.unpack("<IB3x", fh.read(8))
        dims = np.frombuffer(fh.read(8 * ndim), dtype="<u8").astype(int)
        spacing = np.frombuffer(fh.read(8 * ndim), dtype="<f8")
        origin = np.frombuffer(fh.read(8 * ndim), dtype="<f8")
        grid = Grid(tuple(dims), tuple(spacing), tuple(origin))
        vals = np.frombuffer(fh.read(8 * grid.num_cells), dtype="<f8")
        mask = None
        if has_mask:
            mask = np.frombuffer(fh.read(grid.num_cells), dtype="u1").astype(bool)
    return Field(grid, vals.copy(), mask=mask)
