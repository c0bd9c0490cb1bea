"""Uniform grids, cell-centered fields, observation windows, and the
quadrature inner product.

A :class:`Grid` is a uniform rectangular lattice over an axis-aligned box.
Values are attached to cell centers and stored in C (row-major) order with
axis 0 the slowest-varying axis; space-time grids put time on axis 0 so a
solver step touches one contiguous spatial slab.

The inner product is the cell-center Riemann sum

    <a, b> = sum_g a_g * b_g * cell_volume

which is the quadrature used for every observation functional and for the
feature projections downstream.  A cell a solve leaves undefined (one a
shift brings in from outside the domain) holds 0, so every sum reads it as
contributing nothing.

Every observation is a :class:`Window`: the normalized indicator of a box
of whole cells, kept as one slice of cell indices per axis (the cells a
half-open box covers on a uniform axis are one run) and never as a dense
field.  `window_boxes` decides every box's cells by one rule: on an axis
where lo < hi the cells whose centers lie in [lo, hi), and on an axis where
lo == hi the one cell holding that point, floor((p - origin) / dx), with the
domain's closed upper edge in the last cell.  A point observation is a box
of zero width.  A reading <w, u> is the mean of u over the box, and an adjoint
march adds each box straight into its state.  `shift_groups` gives each
functional a base and the run of time shifts of the base's solution that
sum to its own: on grids with spatial axes a window's base is its box's
impulse, the box on one time cell, and its run the shifts its time cells
span; any other functional reads one shift of its shape.  An
:class:`AdjointBank` yields the base solutions slab by slab, one slab of a
1-D solve's rows or one time cell of a PDE march, never as one (n, G) array.

Binary serialization format (little-endian throughout):

    bytes 0..7    magic ``b"AGPFLD01"``
    uint32        ndim
    uint8         has_mask, written 0
    bytes         3 zero pad bytes
    uint64[ndim]  dims
    float64[ndim] spacing
    float64[ndim] origin
    float64[G]    values, C order
    uint8[G]      mask, C order (only if has_mask == 1; older files set it,
                  over values already 0 where it is 0, and it is skipped)
"""

from __future__ import annotations

import hashlib
import math
import struct
import time
from dataclasses import dataclass
from pathlib import Path

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
        return math.prod(self.dims)

    @property
    def cell_volume(self) -> float:
        return math.prod(self.spacing)

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
    """Real values at the cell centers of a :class:`Grid`.  Immutable."""

    __slots__ = ("grid", "values")

    def __init__(self, grid: Grid, values):
        vals = np.array(values, dtype=np.float64, order="C")
        if vals.size != grid.num_cells:
            raise ValueError(
                f"value count {vals.size} does not match grid cell count {grid.num_cells}"
            )
        vals = vals.reshape(grid.shape)
        if not np.isfinite(vals).all():
            raise ValueError("field values must be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", vals)

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


def _check_same_grid(a, b):
    if a.grid != b.grid:
        raise GridMismatchError(
            f"fields live on different grids: {a.grid.dims} vs {b.grid.dims}"
        )


def inner_product(a: Field | Window, b: Field | Window) -> float:
    """Cell-center quadrature <a, b> = sum a*b*cell_volume.

    Against a :class:`Window` the sum is the mean of the field over the
    window's box; of two windows, both values times their overlap's measure.
    """
    _check_same_grid(a, b)
    if isinstance(a, Window):
        if isinstance(b, Window):
            cells = math.prod(max(0, min(s.stop, t.stop) - max(s.start, t.start))
                              for s, t in zip(a.box, b.box))
            return a.value * b.value * cells * a.grid.cell_volume
        a, b = b, a
    if isinstance(b, Window):
        return float(a.values[b.box].mean())
    return float(np.dot(a.values_flat, b.values_flat)) * a.grid.cell_volume


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
        return 1.0 / (math.prod(s.stop - s.start for s in self.box) * self.grid.cell_volume)


def window_indicator(grid: Grid, lo, hi) -> Window:
    """Normalized indicator of the box [lo, hi), snapped to whole cells.

    On an axis where lo < hi the window covers every cell whose center falls
    in [lo, hi); where lo == hi it is a point there and covers the one cell
    that holds it, the domain's closed upper edge in the last cell.  The
    window carries the constant value 1 / (covered measure), so it
    integrates to 1 under :func:`inner_product` against the unit field.
    """
    return window_boxes(grid, np.reshape(lo, (1, -1)), np.reshape(hi, (1, -1)))[0]


def window_boxes(grid: Grid, lo, hi) -> list[Window]:
    """`window_indicator` of each box [lo[i], hi[i]), lo and hi (n, ndim),
    cut with one search per axis; the first bad box raises as it would."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    if lo.shape[1] != grid.ndim or hi.shape[1] != grid.ndim:
        raise GridMismatchError(
            f"window bounds must have {grid.ndim} coordinates, got {lo.shape[1]}/{hi.shape[1]}"
        )
    origin, step, dims = np.array(grid.origin), np.array(grid.spacing), np.array(grid.dims)
    # NaN == NaN is false, but a NaN point is a point, refused as outside
    point = (lo == hi) | np.isnan(lo) & np.isnan(hi)
    inside = (origin <= lo) & (hi <= origin + dims * step)
    # the cell holding a point; the closed upper edge belongs to the last cell
    cell = np.minimum(np.floor((np.where(point & inside, lo, origin) - origin) / step), dims - 1)
    # the centers are increasing, so those in [lo, hi) are one run
    cuts = np.stack([np.searchsorted(grid.axis_centers(k), (lo[:, k], hi[:, k]))
                     for k in range(grid.ndim)], axis=-1)
    cuts = np.where(point, (cell, cell + 1), cuts).astype(int)
    ordered, missed = (lo < hi) | point, np.where(point, ~inside, cuts[0] == cuts[1])
    bad = np.flatnonzero(~ordered.all(axis=1) | missed.any(axis=1))
    if bad.size:
        i = bad[0]
        if not ordered[i].all():
            raise ValueError(f"window must satisfy lo <= hi componentwise, got {lo[i]} / {hi[i]}")
        k = int(np.argmax(missed[i]))
        if point[i, k]:
            raise DomainError(f"point coordinate {lo[i, k]} outside axis {k}")
        raise DomainError(f"window [{lo[i, k]}, {hi[i, k]}) contains no cell centers on axis {k}")
    return [Window(grid, tuple(map(slice, start, stop)))
            for start, stop in zip(cuts[0].tolist(), cuts[1].tolist())]


class AdjointBank:
    """Adjoint solutions of n functionals on one grid, a slab at a time.

    Functional i reads the solution of base[i]'s right-hand side ended d
    time cells earlier for each shift d of its run runs[i] = [d0, d1), the
    reads summed and times scale[i] (`groups`, as `shift_groups` returns
    them; each its own base over the run [0, 1) at scale 1 without), and
    only the bases are solved.  `live[i]` counts the time cells (axis 0) up
    to functional i's last non-zero one, and `order` sorts the bases by it,
    longest first.  `march(order)` yields (cells, v): `cells` is a slice of
    flat cell indices, and column j of the (cells, w) array `v` solves base
    `order[j]` there; the other bases are zero there.  A 1-D system solves
    at the call and yields its rows as one slab; a PDE bank marches each
    time `slabs()` runs, adding the seconds spent marching to `seconds`, and
    `kept()` marches once and keeps the slabs.  `solves`, the bases with
    `live > 0`, and `cell_steps`, their `live` summed, are fixed here,
    however often the bank is read.  `rows` collects the solutions, row i
    solving functional i: its base's rows shifted over its run and summed."""

    def __init__(self, grid: Grid, live, march, groups=None):
        self.grid, self.live, self._march = grid, np.asarray(live), march
        n = len(self.live)
        if groups is None:
            groups = np.arange(n), np.tile([0, 1], (n, 1)), np.ones(n)
        self.base, self.runs, self.scale = groups
        bases = np.flatnonzero(self.base == np.arange(n))
        self.order = bases[np.argsort(-self.live[bases], kind="stable")]
        self.solves = int(np.count_nonzero(self.live[bases]))
        self.cell_steps, self.seconds = int(self.live[bases].sum()), 0.0

    def slabs(self):
        start = time.perf_counter()
        for slab in self._march(self.order):
            self.seconds += time.perf_counter() - start
            yield slab
            start = time.perf_counter()
        self.seconds += time.perf_counter() - start

    def kept(self) -> "AdjointBank":
        slabs = list(self.slabs())
        return AdjointBank(self.grid, self.live, lambda order: slabs,
                           (self.base, self.runs, self.scale))

    @property
    def columns(self) -> np.ndarray:
        """Column of the march that solves functional i's base."""
        column = np.empty(len(self.live), dtype=int)
        column[self.order] = np.arange(len(self.order))
        return column[self.base]

    @property
    def rows(self) -> np.ndarray:
        cells = self.grid.num_cells
        solved = np.zeros((len(self.order), cells))
        for part, v in self.slabs():
            solved[:v.shape[1], part] = v.T
        rows = np.zeros((len(self.live), cells))
        per_time = cells // self.grid.dims[0]
        for row, j, (d0, d1), scale in zip(rows, self.columns, self.runs.tolist(), self.scale):
            row[:cells - d0 * per_time] = solved[j, d0 * per_time:]
            for d in range(d0 + 1, d1):
                row[:cells - d * per_time] += solved[j, d * per_time:]
            row *= scale
        return rows


def time_spans(functionals, grid: Grid) -> np.ndarray:
    """(n, 2) array of the first time cell on which functional i is non-zero
    and one past its last, (0, 0) when it is zero; a window's is its box.
    A functional on another grid raises GridMismatchError naming its index."""
    if not functionals:
        raise ValueError("need at least one right-hand side")
    spans = np.zeros((len(functionals), 2), dtype=int)
    for i, (span, f) in enumerate(zip(spans, functionals)):
        if f.grid != grid:
            raise GridMismatchError(f"right-hand side {i} lives on a different grid")
        if isinstance(f, Window):
            span[:] = f.box[0].start, f.box[0].stop
        elif (cells := np.flatnonzero(f.values.reshape(grid.dims[0], -1).any(axis=1))).size:
            span[:] = cells[0], cells[-1] + 1
    return spans


def impulse(window: Window, end: int) -> Window:
    """The window's spatial box over the single time cell `end` - 1."""
    return Window(window.grid, (slice(end - 1, end),) + window.box[1:])


def shift_groups(functionals, spans) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(base, runs, scale) as `AdjointBank` reads them.  A base is the first
    functional of its group to end last.  On grids with spatial axes a
    window groups by its spatial box alone and its base solves the box's
    impulse on the last time cell the group covers: the window reads the
    run of shifts its time cells span, scaled by its value over the
    impulse's.  Any other functional reads one shift of its shape, at scale
    1: windows group by time width and value, fields by the bytes of their
    non-zero time segment.  On a 1-D grid a window keeps its shape because
    every shift it reads would cut the projection's outer runs into pieces."""
    spans, keys, n = spans.tolist(), {}, len(spans)
    base, runs, scale = [0] * n, [(0, 1)] * n, [1.0] * n
    for i in sorted(range(n), key=lambda i: -spans[i][1]):
        (a, b), f = spans[i], functionals[i]
        boxed = isinstance(f, Window) and f.grid.ndim > 1
        key = (tuple((s.start, s.stop) for s in f.box[1:]) if boxed
               else (b - a, f.value) if isinstance(f, Window) else f.values[a:b].tobytes())
        if key not in keys:  # a base, with its impulse's value if it has one
            keys[key] = i, impulse(f, b).value if boxed else 1.0
        base[i], unit = keys[key]
        end = spans[base[i]][1]
        runs[i] = end - b, end - a if boxed else end - b + 1
        scale[i] = f.value / unit if boxed else 1.0
    return np.array(base), np.array(runs).reshape(n, 2), np.array(scale)


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
    grid = field.grid
    return write_hashed(path, [
        _MAGIC, struct.pack("<IB3x", grid.ndim, 0),
        np.asarray(grid.dims, dtype="<u8"), np.asarray(grid.spacing, dtype="<f8"),
        np.asarray(grid.origin, dtype="<f8"), np.ascontiguousarray(field.values, dtype="<f8")])


def field_from_binary(source) -> Field:
    """Parse a field dump (see module docstring) from `source`, its path or
    its bytes.  The mask bytes of a file with the flag set are skipped."""
    raw = source if isinstance(source, bytes) else Path(source).read_bytes()
    if raw[:8] != _MAGIC:
        raise ValueError(f"bad magic {raw[:8]!r}, not a field dump")
    (ndim,) = struct.unpack_from("<I", raw, 8)
    dims, spacing, origin = (np.frombuffer(raw, dtype, ndim, 16 + 8 * ndim * k)
                             for k, dtype in enumerate(("<u8", "<f8", "<f8")))
    grid = Grid(tuple(dims.astype(int)), tuple(spacing), tuple(origin))
    return Field(grid, np.frombuffer(raw, "<f8", grid.num_cells, 16 + 24 * ndim))
