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
centers, where forcing fields and observation windows live.  The march
steps a whole bank of right-hand sides at once, one state entry per row,
and checks its output for non-finite values once, after the last step.

`OdeSystem` is the solver: its constructor checks the grid once, and its
solves are `forward(f)` and `adjoint_march(windows)`, which marches at the
call and returns the solutions as the rows of an `AdjointBank`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import StabilityWarning, check_march
from .fields import AdjointBank, Field, Grid, bank_rows, check_time_grid

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

    @property
    def grid(self) -> Grid:
        return self._grid

    def forward(self, forcing: Field) -> Field:
        """Solve the forced system from rest; values reported at cell centers."""
        self._check_step("forward")
        return Field(self._grid, self._march(bank_rows([forcing], self._grid), "forward")[0])

    def adjoint_march(self, functionals) -> AdjointBank:
        """Solve the adjoint system backward from rest at t = T for every
        functional at once, by the forward march run from the last cell to
        the first; row i of the bank solves functional i."""
        self._check_step("adjoint")
        rows = bank_rows(functionals, self._grid)
        return AdjointBank(self._march(rows, "adjoint", True), self._grid)

    def _check_step(self, label: str) -> None:
        # the warning names the line that called the solve
        dt, limit = self._grid.spacing[0], euler_stability_limit(self.params)
        if dt > limit:
            warnings.warn(f"step size {dt:.3e} exceeds the explicit stability limit "
                          f"{limit:.3e}; the {label} solve may diverge",
                          StabilityWarning, stacklevel=3)

    def _march(self, rows: np.ndarray, label: str, reverse: bool = False) -> np.ndarray:
        """Explicit Euler on (u, u'), forcing taken at cell centers, for every
        row of `rows` at once and in place.

        On entry row i holds right-hand side i; on return it holds the
        cell-center solution, the average of adjacent node values.  With
        `reverse` the march starts from the last cell, which is the adjoint
        solve in reversed time; every row takes the arithmetic of a single
        solve, so a bank equals its rows solved one at a time bit for bit.
        A non-finite output raises SolverError naming the first bad step
        and, in a bank of several, the first bad row."""
        dt = self._grid.spacing[0]
        p0, p1, p2 = self.params.p0, self.params.p1, self.params.p2
        n, cells = rows.shape
        if n == 1:
            # one right-hand side steps Python floats: the same IEEE arithmetic
            # as a 1-element array without numpy's per-call overhead, which
            # dominates at n = 1 (a 2000-cell forward plus adjoint solve takes
            # 1.2-1.4 ms this way against 38-40 ms on arrays, median CPU time
            # on a shared 2-vCPU x86_64 VM)
            src, out, u = rows[0].tolist(), rows[0], 0.0
        else:
            src, out, u = rows.T, rows.T, np.zeros(n)
        w = u
        # overflow is reported as SolverError below, not as a numpy warning
        with np.errstate(over="ignore", invalid="ignore"):
            for g in (range(cells - 1, -1, -1) if reverse else range(cells)):
                u_next = u + dt * w
                w_next = w + dt * (src[g] - p1 * w - p0 * u) / p2
                out[g] = 0.5 * (u + u_next)
                u, w = u_next, w_next
        check_march(label, rows, reverse)
        return rows
