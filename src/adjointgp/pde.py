"""Advection-diffusion equation on a 2-D box and its adjoint.

Forward problem on x in [bounds], t in [0, T], from zero initial state with
zero-Neumann walls:

    du/dt + velocity . grad(u) - diffusivity * laplace(u) = f,
    u(x, 0) = 0,    grad(u) . n = 0 on the walls.

Adjoint problem, terminal condition and Robin walls, integrated backward:

    -dv/dt - velocity . grad(v) - diffusivity * laplace(v) = h,
    v(x, T) = 0,    (velocity . n) v + diffusivity * grad(v) . n = 0.

Discretization: explicit time stepping, first-order upwind advection,
centered diffusion.  Forward walls use one ghost layer by reflection.  The
adjoint marches in reversed time s = T - t, where it becomes conservative
advection-diffusion with reversed velocity; it is stepped in flux form with
donor-cell advective fluxes (upwind against the reversed velocity) and the
wall condition imposed as zero total flux, the discrete form of the Robin
condition (velocity . n) v + diffusivity * (v_ghost - v_in) / dx = 0 with
the advective wall flux evaluated at the interior cell.  With constant
coefficients this stepping is the exact transpose of the interior forward
stencil, which keeps the two observation routes close.  The adjoint march
steps a whole bank of right-hand sides at once on an (n, ny, nx) state.

Grids are (time, y, x) with time on axis 0.  Forcing fields and solver
output live at cell centers; time-cell values are the average of the two
bracketing node states, matching the ODE solver convention.  Coefficients
are constant over the domain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, GridMismatchError, SolverError
from .fields import AdjointBank, Field, Grid, bank_rows, window_indicator

__all__ = ["PdeParams", "PdeSystem", "pde_forward", "pde_adjoint", "pde_adjoint_bank", "cfl_limit",
           "sensor_field"]

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
    if grid.ndim != 3:
        raise GridMismatchError(f"expected a (time, y, x) grid, got {grid.ndim}-D")
    lo, hi = grid.bounds(0)
    tol = 1e-9 * max(1.0, params.T)
    if abs(lo) > tol or abs(hi - params.T) > tol:
        raise GridMismatchError(f"time axis covers [{lo}, {hi}], expected [0, {params.T}]")
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


def _require_cfl(params: PdeParams, grid: Grid):
    dt = grid.spacing[0]
    limit = cfl_limit(params, grid)
    if dt > limit:
        raise ConfigError(
            f"time step {dt:.6g} violates the CFL bound; "
            f"largest admissible step is {limit:.6g}"
        )


def pde_forward(params: PdeParams, forcing: Field, grid: Grid, *, enforce_cfl: bool = True) -> Field:
    """March the forward problem; `enforce_cfl=False` is a diagnostics knob
    so instability can be observed instead of rejected."""
    _check_grid(params, grid)
    if forcing.grid != grid:
        raise GridMismatchError("forcing lives on a different grid")
    if enforce_cfl:
        _require_cfl(params, grid)
    nt, ny, nx = grid.dims
    dt, dy, dx = grid.spacing
    vy, vx = params.velocity
    kappa = params.diffusivity
    f = forcing.values
    state = np.zeros((ny, nx))
    out = np.empty((nt, ny, nx))
    for k in range(nt):
        padded = np.pad(state, 1, mode="edge")
        lap = (
            (padded[2:, 1:-1] - 2.0 * state + padded[:-2, 1:-1]) / (dy * dy)
            + (padded[1:-1, 2:] - 2.0 * state + padded[1:-1, :-2]) / (dx * dx)
        )
        if vy >= 0.0:
            grad_y = (state - padded[:-2, 1:-1]) / dy
        else:
            grad_y = (padded[2:, 1:-1] - state) / dy
        if vx >= 0.0:
            grad_x = (state - padded[1:-1, :-2]) / dx
        else:
            grad_x = (padded[1:-1, 2:] - state) / dx
        nxt = state + dt * (-vy * grad_y - vx * grad_x + kappa * lap + f[k])
        if not np.isfinite(nxt).all():
            raise SolverError.at_step("forward", k, nxt[None])
        out[k] = 0.5 * (state + nxt)
        state = nxt
    return Field(grid, out)


def pde_adjoint_bank(params: PdeParams, functionals, grid: Grid) -> AdjointBank:
    """Adjoint solves of every functional at once, marched together on an
    (n, ny, nx) state; row i of the bank's (n, num_cells) rows solves
    functional i.

    The march runs in place over one (n, num_cells) array: reversed step k
    reads the right-hand sides of time cell nt - 1 - k and overwrites them
    with the solution there.  Every row takes the arithmetic of a single
    solve, so a bank equals its rows solved one at a time bit for bit.
    """
    _check_grid(params, grid)
    _require_cfl(params, grid)
    rows = bank_rows(functionals, grid)
    n = rows.shape[0]
    nt, ny, nx = grid.dims
    dt, dy, dx = grid.spacing
    vy, vx = params.velocity
    kappa = params.diffusivity
    bank = rows.reshape(n, nt, ny, nx)
    state = np.zeros((n, ny, nx))
    div = np.empty_like(state)
    flux_y = np.empty((n, ny - 1, nx))
    flux_x = np.empty((n, ny, nx - 1))
    # overflow is reported as SolverError below, not as a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(nt):
            cell = bank[:, nt - 1 - k]
            # interior total fluxes over dy or dx; wall faces carry zero total flux
            np.subtract(state[:, 1:, :], state[:, :-1, :], out=flux_y)
            flux_y *= kappa
            flux_y /= dy
            flux_y += vy * (state[:, 1:, :] if vy >= 0.0 else state[:, :-1, :])
            flux_y /= dy
            np.subtract(state[:, :, 1:], state[:, :, :-1], out=flux_x)
            flux_x *= kappa
            flux_x /= dx
            flux_x += vx * (state[:, :, 1:] if vx >= 0.0 else state[:, :, :-1])
            flux_x /= dx
            div.fill(0.0)
            div[:, :-1, :] += flux_y
            div[:, 1:, :] -= flux_y
            div[:, :, :-1] += flux_x
            div[:, :, 1:] -= flux_x
            # div becomes the next state, state + dt * (div + rhs)
            div += cell
            div *= dt
            div += state
            if not np.isfinite(div).all():
                raise SolverError.at_step("adjoint", k, div)
            np.add(state, div, out=cell)
            cell *= 0.5
            state, div = div, state
    return AdjointBank(rows, grid)


def pde_adjoint(params: PdeParams, functional: Field, grid: Grid) -> Field:
    """Adjoint solve of one functional: the bank of one."""
    return Field(grid, pde_adjoint_bank(params, [functional], grid).rows[0])


def sensor_field(grid: Grid, region_lo, region_hi, t_lo: float, t_hi: float) -> Field:
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
    """Forward/adjoint solver pair bound to fixed parameters and grid."""

    name = "pde"

    def __init__(self, params: PdeParams, grid: Grid):
        _check_grid(params, grid)
        self.params = params
        self._grid = grid

    @property
    def grid(self) -> Grid:
        return self._grid

    def forward(self, forcing: Field) -> Field:
        return pde_forward(self.params, forcing, self._grid)

    def adjoint(self, functional: Field) -> Field:
        return pde_adjoint(self.params, functional, self._grid)

    def adjoint_bank(self, functionals) -> AdjointBank:
        return pde_adjoint_bank(self.params, functionals, self._grid)
