"""Uniform grids, cell-centered fields, observation windows, and the
quadrature inner product.

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

Every observation is a :class:`Window`: the normalized indicator of a box
of whole cells, kept as one slice of cell indices per axis (the cells a
half-open box covers on a uniform axis are one run) and never as a dense
field.  A reading <w, u> is the mean of u over the box, and an adjoint
march adds each box straight into its state.  An :class:`AdjointBank`
holds the solutions of a 1-D solve as (n, G) rows, and yields those of a
PDE march slab by slab, never as one (n, G) array.

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

import hashlib
import struct
import time
from dataclasses import dataclass

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


def _check_same_grid(a, b):
    if a.grid != b.grid:
        raise GridMismatchError(
            f"fields live on different grids: {a.grid.dims} vs {b.grid.dims}"
        )


def inner_product(a: Field | Window, b: Field | Window) -> float:
    """Cell-center quadrature <a, b> = sum a*b*cell_volume.

    With masks present the sum runs only over cells where both operands are
    defined.  Against a :class:`Window` the sum is the mean of the field
    over the window's box; masked cells hold 0 there, which sums the same.
    """
    _check_same_grid(a, b)
    if isinstance(a, Window):
        a, b = b, a
    if isinstance(b, Window):
        return float(a.values[b.box].mean())
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


@dataclass(frozen=True)
class Window:
    """Normalized indicator of a box of whole cells: `value`, which is
    1 / (covered measure), on the cells that `box`, one slice of cell
    indices per axis, selects, and 0 elsewhere.  Immutable; it holds no
    grid-sized array."""

    grid: Grid
    box: tuple[slice, ...]

    @property
    def value(self) -> float:
        count = 1
        for s in self.box:
            count *= s.stop - s.start
        return 1.0 / (count * self.grid.cell_volume)


def window_indicator(grid: Grid, lo, hi) -> Window:
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
    box = []
    for k in range(grid.ndim):
        # the centers are increasing, so those in [lo, hi) are one run
        start, stop = np.searchsorted(grid.axis_centers(k), (lo[k], hi[k])).tolist()
        if start == stop:
            raise DomainError(
                f"window [{lo[k]}, {hi[k]}) contains no cell centers on axis {k}"
            )
        box.append(slice(start, stop))
    return Window(grid, tuple(box))


class AdjointBank:
    """Adjoint solutions of n functionals on one grid, a slab at a time.

    `slabs()` yields (cells, v) in march order: `cells` is a slice of flat
    cell indices, and column j of the (cells, w) array `v` solves
    functional `order[j]` there; the other functionals are zero there.
    `live[i]` counts the time cells (axis 0) up to functional i's last
    non-zero one, as its march reports it, and `order` sorts by it, longest
    first.  A bank built from (n, num_cells) `rows`, as the ODE and shift
    solvers return, yields them as one slab, every row live throughout, and
    `counts` are the (solves, cell_steps) its solver took at the call
    (none for a shift).  A PDE bank marches each time `slabs()` runs,
    adding the seconds spent marching to `seconds`, the columns that join
    to `solves` and the (column, time cell) slabs to `cell_steps`; `kept()`
    marches once and keeps the slabs and counts.  `rows` collects the
    solutions, row i solving functional i."""

    def __init__(self, rows, grid: Grid, live=None, march=None, counts=None):
        if march is None:
            rows = np.asarray(rows)
            if rows.ndim != 2 or rows.shape[1] != grid.num_cells:
                raise GridMismatchError(
                    f"bank rows of shape {rows.shape} do not fit a grid of "
                    f"{grid.num_cells} cells")
            live, march, counts = np.full(len(rows), grid.dims[0]), lambda order: [
                (slice(0, grid.num_cells), rows.T)], counts or (0, 0)
        self.grid, self.live, self._march = grid, np.asarray(live), march
        self.order = np.argsort(-self.live, kind="stable")
        # counts given here were taken once; otherwise each slabs() run counts
        self._counted, self.seconds = counts is not None, 0.0
        self.solves, self.cell_steps = counts or (0, 0)

    def slabs(self):
        start, width = time.perf_counter(), 0
        for cells, v in self._march(self.order):
            self.seconds += time.perf_counter() - start
            if not self._counted:  # the march's state only widens
                self.solves += v.shape[1] - width
                self.cell_steps += (width := v.shape[1])
            yield cells, v
            start = time.perf_counter()
        self.seconds += time.perf_counter() - start

    def kept(self) -> "AdjointBank":
        slabs = list(self.slabs())
        return AdjointBank(None, self.grid, self.live, lambda order: slabs,
                           (self.solves, self.cell_steps))

    @property
    def rows(self) -> np.ndarray:
        rows = np.zeros((len(self.live), self.grid.num_cells))
        for cells, v in self.slabs():
            rows[self.order[:v.shape[1]], cells] = v.T
        return rows


def time_spans(functionals, grid: Grid, what: str = "functional") -> np.ndarray:
    """(n, 2) array of the first time cell on which functional i is non-zero
    and one past its last, (0, 0) when it is zero; a window's is its box."""
    if not functionals:
        raise ValueError(f"need at least one {what}")
    spans = np.zeros((len(functionals), 2), dtype=int)
    for span, f in zip(spans, functionals):
        if f.grid != grid:
            raise GridMismatchError(f"{what} lives on a different grid")
        if isinstance(f, Window):
            span[:] = f.box[0].start, f.box[0].stop
        elif (cells := np.flatnonzero(f.values.reshape(grid.dims[0], -1).any(axis=1))).size:
            span[:] = cells[0], cells[-1] + 1
    return spans


def bank_rows(functionals, grid: Grid) -> np.ndarray:
    """One (n, num_cells) array holding functional i in row i: a field's
    values, or a window's box.  A functional on another grid raises
    GridMismatchError naming its index.  The ODE and shift solvers
    overwrite the array in place with the solutions."""
    if not functionals:
        raise ValueError("need at least one right-hand side")
    rows = np.zeros((len(functionals), grid.num_cells))
    for i, (row, f) in enumerate(zip(rows, functionals)):
        if f.grid != grid:
            raise GridMismatchError(f"right-hand side {i} lives on a different grid")
        if isinstance(f, Window):
            row.reshape(grid.shape)[f.box] = f.value
        else:
            row[:] = f.values_flat
    return rows


def dirac_window(grid: Grid, point) -> Window:
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

def write_hashed(path, chunks) -> str:
    """Write `chunks`, bytes or text (as UTF-8), to `path` in binary mode,
    hashing each as it is written; returns the SHA-256 hex digest.  Every
    file the package writes whole goes through here, so no writer reads its
    output back to hash it and no line end depends on the platform."""
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for chunk in chunks:
            chunk = chunk.encode("utf-8") if isinstance(chunk, str) else chunk
            digest.update(chunk)
            fh.write(chunk)
    return digest.hexdigest()


def field_to_binary(field: Field, path) -> str:
    """Dump per the documented little-endian layout (see module docstring);
    returns the SHA-256 of the bytes written."""
    grid, mask = field.grid, field.mask
    chunks = [_MAGIC, struct.pack("<IB3x", grid.ndim, int(mask is not None)),
              np.asarray(grid.dims, dtype="<u8"), np.asarray(grid.spacing, dtype="<f8"),
              np.asarray(grid.origin, dtype="<f8"), np.ascontiguousarray(field.values, dtype="<f8")]
    if mask is not None:
        chunks.append(np.ascontiguousarray(mask, dtype="u1"))
    return write_hashed(path, chunks)


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
