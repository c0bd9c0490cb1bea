"""Time-shift operator: a non-differential system with an exact adjoint.

The operator maps u to (L_a u)(t) = u(t + a).  Solving L_a u = f gives
u(t) = f(t - a); the adjoint is the opposite shift, so the adjoint system
L_a^* v = h has solution v(t) = h(t + a).  On a uniform grid both solves
are pure index shifts, with no discretization error, provided the offset
`a` is an integer number of cells.

`ShiftSystem` is the solver: `forward(f)` and `adjoint_march(windows)`,
which shifts at the call and returns an `AdjointBank` that yields the
solutions as one slab, every row live throughout.
Cells shifted in from outside the domain are undefined and hold 0 in both
solutions, so the identity <h, L f> = <L* h, f> holds over the overlap
to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .fields import AdjointBank, Field, Grid, bank_rows, check_time_grid

__all__ = ["ShiftParams", "ShiftSystem"]


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


class ShiftSystem:
    """Forward and adjoint solver bound to a fixed offset and a 1-D time
    grid.  The constructor checks the grid and resolves the offset to a
    whole number of cells, once per system."""

    def __init__(self, params: ShiftParams, grid: Grid):
        check_time_grid(grid, 1, params.T)
        dt = grid.spacing[0]
        k = round(params.a / dt)
        if abs(params.a - k * dt) > 1e-9 * max(dt, abs(params.a)):
            raise ConfigError(
                f"shift offset {params.a} is not an integer number of cells "
                f"(cell width {dt})"
            )
        self.params = params
        self._grid = grid
        self._cells = int(k)

    @property
    def grid(self) -> Grid:
        return self._grid

    def forward(self, forcing: Field) -> Field:
        """Solve L_a u = f, i.e. u(t) = f(t - a); cells shifted in from
        outside the domain hold 0."""
        grid = self._grid
        return Field(grid, _shift_rows(bank_rows([forcing], grid), self._cells)[0])

    def adjoint_march(self, functionals) -> AdjointBank:
        """Adjoint solves v_i(t) = h_i(t + a) of every functional at once,
        yielded as one slab, row i solving functional i; cells shifted in
        from outside the domain hold 0.  Every row counts as live
        throughout, so the bank reports n solves and n * nt cell steps."""
        grid = self._grid
        rows = _shift_rows(bank_rows(functionals, grid), -self._cells)
        return AdjointBank(grid, np.full(len(rows), grid.dims[0]),
                           lambda order: [(slice(0, grid.num_cells), rows)])
