"""Advection-diffusion equation on a 2-D box and its adjoint.

Forward problem on x in [bounds], t in [0, T], from zero initial state with
zero-Neumann walls:

    du/dt + velocity . grad(u) - diffusivity * laplace(u) = f,
    u(x, 0) = 0,    grad(u) . n = 0 on the walls.

Adjoint problem, terminal condition and Robin walls, integrated backward:

    -dv/dt - velocity . grad(v) - diffusivity * laplace(v) = h,
    v(x, T) = 0,    (velocity . n) v + diffusivity * grad(v) . n = 0.

Discretization: explicit time stepping, first-order upwind advection,
centered diffusion.  The adjoint marches in reversed time s = T - t, where
it becomes conservative advection-diffusion with reversed velocity, in flux
form: donor-cell advective fluxes (upwind against the reversed velocity),
and the wall condition imposed as zero total flux, the discrete form of the
Robin condition (velocity . n) v + diffusivity * (v_ghost - v_in) / dx = 0
with the advective wall flux evaluated at the interior cell.  With constant
coefficients one step is a fixed sparse matrix A over the S = ny * nx
spatial cells.  The forward march applies its transpose A^T, which is the
upwind, centered-diffusion step with walls reflected by one ghost layer;
so the two observation routes are transposes of each other by
construction.  Both solves run one march, x <- B x + dt * rhs, with B = A^T
forward and B = A over reversed time for the adjoint; it steps a whole bank
of right-hand sides at once on an (S, n) state and checks its output for
non-finite values once, after the last step.

`PdeSystem` is the solver: its constructor checks the grid and the CFL
bound and builds A once, and `forward(f)` and `adjoint_bank(windows)` are
its two solves.

Grids are (time, y, x) with time on axis 0.  Forcing fields and solver
output live at cell centers; time-cell values are the average of the two
bracketing node states, matching the ODE solver convention.  Coefficients
are constant over the domain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, GridMismatchError, check_march
from .fields import (AdjointBank, Field, Grid, Window, bank_rows, check_time_grid,
                     window_indicator)

__all__ = ["PdeParams", "PdeSystem", "cfl_limit", "sensor_field"]

_CFL_SAFETY = 0.9


@dataclass(frozen=True)
class PdeParams:
    """Constant coefficients: velocity is (vy, vx) in grid-axis order,
    bounds is ((y_lo, y_hi), (x_lo, x_hi))."""

    velocity: tuple[float, float]
    diffusivity: float
    bounds: tuple[tuple[float, float], tuple[float, float]]
    T: float

    def __post_init__(self):
        vel = tuple(float(v) for v in self.velocity)
        if len(vel) != 2 or not all(np.isfinite(v) for v in vel):
            raise ValueError("velocity must be two finite components")
        if not (np.isfinite(self.diffusivity) and self.diffusivity > 0):
            raise ValueError("diffusivity must be positive")
        bounds = tuple((float(lo), float(hi)) for lo, hi in self.bounds)
        if len(bounds) != 2 or any(hi <= lo for lo, hi in bounds):
            raise ValueError("bounds must be two nonempty intervals")
        if not (np.isfinite(self.T) and self.T > 0):
            raise ValueError("T must be positive")
        object.__setattr__(self, "velocity", vel)
        object.__setattr__(self, "bounds", bounds)


def _check_grid(params: PdeParams, grid: Grid):
    check_time_grid(grid, 3, params.T)
    for axis, (blo, bhi) in zip((1, 2), params.bounds):
        glo, ghi = grid.bounds(axis)
        tol = 1e-9 * max(1.0, abs(bhi - blo))
        if abs(glo - blo) > tol or abs(ghi - bhi) > tol:
            raise GridMismatchError(
                f"axis {axis} covers [{glo}, {ghi}], expected [{blo}, {bhi}]"
            )


def cfl_limit(params: PdeParams, grid: Grid) -> float:
    """Admissible time step: safety * min over spatial axes of
    (dx / |velocity|, dx^2 / (4 * diffusivity))."""
    _check_grid(params, grid)
    candidates = []
    for axis, vel in zip((1, 2), params.velocity):
        dx = grid.spacing[axis]
        if vel != 0.0:
            candidates.append(dx / abs(vel))
        candidates.append(dx * dx / (4.0 * params.diffusivity))
    return _CFL_SAFETY * min(candidates)


def _step_operator(params: PdeParams, grid: Grid):
    """(S, S) CSR matrix A of one adjoint step, S = ny * nx:
    v <- A v + dt * h with A = I + dt * (kron(L_y, I_x) + kron(I_y, L_x)).
    One forward step is u <- A^T u + dt * f."""
    # imported here, not at package import, so ODE-only runs do not pay for it
    import scipy.sparse as sp

    def flux_form(n, h, vel):
        # interior face fluxes kappa * (v[j+1] - v[j]) / h + vel * v_donor,
        # donor cell upwind against the reversed velocity; the walls carry
        # zero total flux; divided by h and differenced onto the cells
        diff = sp.diags([-np.ones(n - 1), np.ones(n - 1)], [0, 1], shape=(n - 1, n))
        donor = sp.eye(n - 1, n, k=1 if vel >= 0.0 else 0)
        return -diff.T @ (params.diffusivity / (h * h) * diff + vel / h * donor)

    _, ny, nx = grid.dims
    dt, dy, dx = grid.spacing
    vy, vx = params.velocity
    lap = (sp.kron(flux_form(ny, dy, vy), sp.identity(nx))
           + sp.kron(sp.identity(ny), flux_form(nx, dx, vx)))
    return (sp.identity(ny * nx) + dt * lap).tocsr()


def sensor_field(grid: Grid, region_lo, region_hi, t_lo: float, t_hi: float) -> Window:
    """Observation window: spatial box (grid-axis order, y then x) crossed
    with a time interval, snapped to whole cells and normalized."""
    region_lo = np.asarray(region_lo, dtype=float).reshape(-1)
    region_hi = np.asarray(region_hi, dtype=float).reshape(-1)
    if region_lo.size != 2 or region_hi.size != 2:
        raise ValueError("region bounds must have two components (y, x)")
    lo = (float(t_lo), region_lo[0], region_lo[1])
    hi = (float(t_hi), region_hi[0], region_hi[1])
    return window_indicator(grid, lo, hi)


class PdeSystem:
    """Forward and adjoint solver bound to fixed coefficients and a
    (time, y, x) grid.  The constructor checks the grid and the CFL bound
    and builds the step operator A and its transpose, once per system."""

    def __init__(self, params: PdeParams, grid: Grid):
        dt = grid.spacing[0]
        limit = cfl_limit(params, grid)
        if dt > limit:
            raise ConfigError(
                f"time step {dt:.6g} violates the CFL bound; "
                f"largest admissible step is {limit:.6g}"
            )
        self.params = params
        self._grid = grid
        self._step = _step_operator(params, grid)
        self._step_t = self._step.T.tocsr()

    @property
    def grid(self) -> Grid:
        return self._grid

    def forward(self, forcing: Field) -> Field:
        """March the forward problem from rest by u <- A^T u + dt f."""
        rows = bank_rows([forcing], self._grid, "forcing")
        return Field(self._grid, self._march(self._step_t, rows, "forward")[0])

    def adjoint_bank(self, functionals) -> AdjointBank:
        """Adjoint solves of every functional at once by v <- A v + dt h,
        marched in reversed time; row i of the bank's (n, num_cells) rows
        solves functional i."""
        rows = bank_rows(functionals, self._grid)
        return AdjointBank(self._march(self._step, rows, "adjoint", reverse=True), self._grid)

    def _march(self, op, rows: np.ndarray, label: str, reverse: bool = False) -> np.ndarray:
        """Step x <- op x + dt * rhs from rest for every row of `rows` at
        once, on an (S, n) state, S = ny * nx, and in place.

        On entry row i holds right-hand side i.  Each step reads the
        right-hand sides of one time cell, from the first cell on (from the
        last with `reverse`), and overwrites them with the solution there,
        the average of the bracketing states.  The sparse product does each
        column's arithmetic independently of the others, so a bank equals
        its rows solved one at a time bit for bit.  A non-finite output
        raises SolverError naming the first bad step.
        """
        nt = self._grid.dims[0]
        dt = self._grid.spacing[0]
        bank = rows.reshape(len(rows), nt, -1)
        state = np.zeros((bank.shape[2], len(rows)))
        # ufuncs over transposed operands are slow; transposing copies are not
        work = np.empty_like(state)
        # overflow is reported as SolverError below, not as a numpy warning
        with np.errstate(over="ignore", invalid="ignore"):
            for k in (range(nt - 1, -1, -1) if reverse else range(nt)):
                cell = bank[:, k]
                np.copyto(work, cell.T)
                work *= dt
                nxt = op @ state
                nxt += work
                np.add(state, nxt, out=work)
                work *= 0.5
                np.copyto(cell, work.T)
                state = nxt
        check_march(label, bank, reverse)
        return rows
