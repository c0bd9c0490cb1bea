"""Forced linear second-order ODE and its adjoint on [0, T].

Forward system (zero initial state):

    p2 * u'' + p1 * u' + p0 * u = f,     u(0) = u'(0) = 0.

Adjoint system (zero final state, integrated backward):

    p2 * v'' - p1 * v' + p0 * v = h,     v(T) = v'(T) = 0.

Substituting s = T - t turns the adjoint into the forward operator with the
same coefficients acting on the time-reversed right-hand side, so the
adjoint solve is the forward march run from the last cell to the first.
Both solves use explicit (forward Euler) stepping of the first-order
system; node values are averaged in pairs so results line up with cell
centers, where forcing fields and observation windows live.  The
coefficients are constant, so from rest a time-shifted right-hand side has
the same solution shifted, bit for bit: a bank marches one scalar solve per
right-hand-side shape (`fields.shift_groups`, shared with the PDE), the
base that ends last, checks its output once and holds the base rows only;
the bank shifts a copy's row when its rows are read, and `assemble_phi`
rotates its base's projections.

`OdeSystem` is the solver: its constructor checks the grid once, and its
solves are `forward(f)` and `adjoint_march(windows)`, which marches at the
call and returns an `AdjointBank` yielding the base rows as one slab.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import StabilityWarning, check_march
from .fields import (AdjointBank, Field, Grid, bank_rows, check_time_grid, shift_groups,
                     time_spans)

__all__ = ["OdeParams", "OdeSystem", "euler_stability_limit"]


@dataclass(frozen=True)
class OdeParams:
    p0: float
    p1: float
    p2: float
    T: float

    def __post_init__(self):
        for name in ("p0", "p1", "p2", "T"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.p2 == 0.0:
            raise ValueError("p2 must be nonzero (second-order system)")
        if self.T <= 0.0:
            raise ValueError("T must be positive")


def euler_stability_limit(params: OdeParams) -> float:
    """Largest step size for which explicit Euler is linearly stable.

    Based on the characteristic roots of p2 s^2 + p1 s + p0 = 0; returns 0
    when the continuous system itself is not asymptotically stable (explicit
    Euler then amplifies unconditionally).
    """
    disc = complex(params.p1 * params.p1 - 4.0 * params.p0 * params.p2)
    sq = np.sqrt(disc)
    limit = np.inf
    for root in ((-params.p1 + sq) / (2 * params.p2), (-params.p1 - sq) / (2 * params.p2)):
        a, b = root.real, root.imag
        mag2 = a * a + b * b
        if mag2 == 0.0:
            continue
        if a >= 0.0:
            return 0.0
        limit = min(limit, -2.0 * a / mag2)
    return float(limit)


class OdeSystem:
    """Forward and adjoint solver bound to fixed parameters and a 1-D time
    grid, which the constructor checks once."""

    def __init__(self, params: OdeParams, grid: Grid):
        check_time_grid(grid, 1, params.T)
        self.params = params
        self._grid = grid
        self._limit = euler_stability_limit(params)
        # dt / limit: above 1 the march may diverge; infinite if no step is stable
        self.step_margin = grid.spacing[0] / self._limit if self._limit > 0.0 else np.inf

    @property
    def grid(self) -> Grid:
        return self._grid

    def forward(self, forcing: Field) -> Field:
        """Solve the forced system from rest; values reported at cell centers."""
        self._check_step("forward")
        spans = time_spans([forcing], self._grid)
        return Field(self._grid, self._march([forcing], spans)[0])

    def adjoint_march(self, functionals) -> AdjointBank:
        """Solve the adjoint system backward from rest at t = T for the base
        of every window shape, by the forward march run from the last cell
        to the first; `live` are the span ends, the cells a march steps."""
        self._check_step("adjoint")
        functionals = tuple(functionals)
        spans = time_spans(functionals, self._grid)
        bank = AdjointBank(self._grid, spans[:, 1], lambda order: [
            (slice(0, self._grid.num_cells), rows)], shift_groups(functionals, spans))
        # the march solves here, at the call, the bases in the bank's order
        rows = self._march([functionals[i] for i in bank.order], spans[bank.order], bank.order)
        return bank

    def _check_step(self, label: str) -> None:
        # the warning names the line that called the solve
        dt, limit = self._grid.spacing[0], self._limit
        if dt > limit:
            warnings.warn(f"step size {dt:.3e} exceeds the explicit stability limit "
                          f"{limit:.3e}; the {label} solve may diverge",
                          StabilityWarning, stacklevel=3)

    def _march(self, functionals, spans, order=None):
        """Explicit Euler on (u, u'), forcing at cell centers, from the last
        cell when `order`, the caller's index of each row, makes it an
        adjoint march (in reversed time); returns the (n, cells)
        cell-center solutions.  A row steps alone in Python floats (numpy's
        IEEE arithmetic without its per-call overhead) from its first
        non-zero cell in march order, and the cells before it stay +0.0,
        as do all-zero rows, which are not marched.  A non-finite output
        raises SolverError naming the first bad step and right-hand side.
        `spans` are the rows' time_spans."""
        reverse = order is not None
        rows = bank_rows(functionals, self._grid)
        dt, p0, p1, p2 = self._grid.spacing[0], self.params.p0, self.params.p1, self.params.p2
        cells = rows.shape[1]
        # rows and their first non-zero cells in march order
        view = rows[:, ::-1] if reverse else rows
        starts = cells - spans[:, 1] if reverse else spans[:, 0]
        for row, start, (a, b) in zip(view, starts.tolist(), spans.tolist()):
            row[:start if a < b else cells] = 0.0  # zeros that may be -0.0
            if a == b:
                continue
            u = w = 0.0
            solution = []
            for f in row[start:].tolist():
                u_next = u + dt * w
                w_next = w + dt * (f - p1 * w - p0 * u) / p2
                solution.append(0.5 * (u + u_next))
                u, w = u_next, w_next
            row[start:] = solution
        check_march("adjoint" if reverse else "forward", rows, reverse, order)
        return rows
