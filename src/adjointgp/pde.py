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
construction.  The adjoint march steps a whole bank of right-hand sides at
once on an (S, n) state.

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

from .errors import ConfigError, GridMismatchError, SolverError
from .fields import AdjointBank, Field, Grid, bank_rows, window_indicator

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
        grid = self._grid
        if forcing.grid != grid:
            raise GridMismatchError("forcing lives on a different grid")
        nt = grid.dims[0]
        dt = grid.spacing[0]
        f = forcing.values.reshape(nt, -1)
        state = np.zeros(f.shape[1])
        out = np.empty_like(f)
        # overflow is reported as SolverError below, not as a numpy warning
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(nt):
                nxt = self._step_t @ state
                nxt += dt * f[k]
                if not np.isfinite(nxt).all():
                    raise SolverError.at_step("forward", k, nxt[None])
                np.add(state, nxt, out=out[k])
                out[k] *= 0.5
                state = nxt
        return Field(grid, out.reshape(grid.shape))

    def adjoint_bank(self, functionals) -> AdjointBank:
        """Adjoint solves of every functional at once, marched together on
        an (S, n) state, S = ny * nx, by v <- A v + dt h; row i of the
        bank's (n, num_cells) rows solves functional i.

        The march runs in place over one (n, num_cells) array: reversed
        step k reads the right-hand sides of time cell nt - 1 - k and
        overwrites them with the solution there.  The sparse product does
        each column's arithmetic independently of the others, so a bank
        equals its rows solved one at a time bit for bit.
        """
        grid = self._grid
        rows = bank_rows(functionals, grid)
        nt = grid.dims[0]
        dt = grid.spacing[0]
        bank = rows.reshape(rows.shape[0], nt, -1)
        state = np.zeros((bank.shape[2], len(rows)))
        # ufuncs over transposed operands are slow; transposing copies are not
        work = np.empty_like(state)
        # overflow is reported as SolverError below, not as a numpy warning
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(nt):
                cell = bank[:, nt - 1 - k]
                np.copyto(work, cell.T)
                work *= dt
                nxt = self._step @ state
                nxt += work
                if not np.isfinite(nxt).all():
                    raise SolverError.at_step("adjoint", k, nxt.T)
                np.add(state, nxt, out=work)
                work *= 0.5
                np.copyto(cell, work.T)
                state = nxt
        return AdjointBank(rows, grid)
