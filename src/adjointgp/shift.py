"""Time-shift operator: a non-differential system with an exact adjoint.

The operator maps u to (L_a u)(t) = u(t + a).  Solving L_a u = f gives
u(t) = f(t - a); the adjoint is the opposite shift, so the adjoint system
L_a^* v = h has solution v(t) = h(t + a).  On a uniform grid both solves
are pure index shifts, with no discretization error, provided the offset
`a` is an integer number of cells.

Cells shifted in from outside the domain are undefined: outputs carry a
mask and inner products downstream integrate only over the defined overlap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, GridMismatchError
from .fields import AdjointBank, Field, Grid, bank_rows

__all__ = ["ShiftParams", "ShiftSystem", "shift_forward", "shift_adjoint", "shift_adjoint_bank"]


@dataclass(frozen=True)
class ShiftParams:
    """Shift offset `a` (seconds, may be negative) and horizon T."""

    a: float
    T: float

    def __post_init__(self):
        if not np.isfinite(self.a):
            raise ValueError("shift offset must be finite")
        if not (np.isfinite(self.T) and self.T > 0):
            raise ValueError("T must be positive")
        if abs(self.a) >= self.T:
            raise ValueError(f"|a| = {abs(self.a)} must be smaller than the domain length {self.T}")


def _check_grid(params: ShiftParams, grid: Grid):
    if grid.ndim != 1:
        raise GridMismatchError(f"expected a 1-D time grid, got {grid.ndim}-D")
    lo, hi = grid.bounds(0)
    tol = 1e-9 * max(1.0, params.T)
    if abs(lo) > tol or abs(hi - params.T) > tol:
        raise GridMismatchError(f"grid covers [{lo}, {hi}], expected [0, {params.T}]")


def _offset_cells(params: ShiftParams, grid: Grid) -> int:
    dt = grid.spacing[0]
    k = round(params.a / dt)
    if abs(params.a - k * dt) > 1e-9 * max(dt, abs(params.a)):
        raise ConfigError(
            f"shift offset {params.a} is not an integer number of cells "
            f"(cell width {dt})"
        )
    return int(k)


def _shift_rows(rows: np.ndarray, cells: int) -> np.ndarray:
    """Move every row's entries `cells` positions toward larger t, in place,
    zeroing the exposed cells."""
    g = rows.shape[1]
    k = min(abs(cells), g)
    if cells >= 0:
        rows[:, k:] = rows[:, : g - k]
        rows[:, :k] = 0
    else:
        rows[:, : g - k] = rows[:, k:]
        rows[:, g - k:] = 0
    return rows


def _shift_field(field: Field, grid: Grid, cells: int, what: str) -> Field:
    """Shift a field's values and its mask; exposed cells become undefined."""
    vals = _shift_rows(bank_rows([field], grid, what), cells)[0]
    src_mask = field.mask_flat if field.mask is not None else np.ones(grid.num_cells, dtype=bool)
    mask = _shift_rows(src_mask[None].copy(), cells)[0]
    return Field(grid, vals, mask=mask)


def shift_forward(params: ShiftParams, forcing: Field, grid: Grid) -> Field:
    """Solve L_a u = f, i.e. u(t) = f(t - a)."""
    _check_grid(params, grid)
    return _shift_field(forcing, grid, _offset_cells(params, grid), "forcing")


def shift_adjoint_bank(params: ShiftParams, functionals, grid: Grid) -> AdjointBank:
    """Adjoint solves v_i(t) = h_i(t + a) of every functional at once, as
    the rows of one (n, num_cells) array; cells shifted in from outside the
    domain hold 0."""
    _check_grid(params, grid)
    rows = _shift_rows(bank_rows(functionals, grid), -_offset_cells(params, grid))
    return AdjointBank(rows, grid)


def shift_adjoint(params: ShiftParams, functional: Field, grid: Grid) -> Field:
    """Solve the adjoint system, i.e. v(t) = h(t + a)."""
    _check_grid(params, grid)
    return _shift_field(functional, grid, -_offset_cells(params, grid), "functional")


class ShiftSystem:
    """Forward/adjoint pair bound to a fixed offset and grid."""

    name = "shift"

    def __init__(self, params: ShiftParams, grid: Grid):
        _check_grid(params, grid)
        _offset_cells(params, grid)
        self.params = params
        self._grid = grid

    @property
    def grid(self) -> Grid:
        return self._grid

    def forward(self, forcing: Field) -> Field:
        return shift_forward(self.params, forcing, self._grid)

    def adjoint(self, functional: Field) -> Field:
        return shift_adjoint(self.params, functional, self._grid)

    def adjoint_bank(self, functionals) -> AdjointBank:
        return shift_adjoint_bank(self.params, functionals, self._grid)
