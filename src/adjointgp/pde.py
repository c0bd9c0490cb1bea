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
coefficients one step is a fixed five-point stencil A over the S = ny * nx
spatial cells: one coefficient per neighbour direction, and a diagonal that
differs from its interior value on the wall cells only.  Each cell adds its
terms from 0.0 in the column order of its row of A, as a row-by-row matrix
product would.  The forward march applies the transpose A^T, which is the
upwind, centered-diffusion step with walls reflected by one ghost layer;
so the two observation routes are transposes of each other by
construction.  Both solves run one march, x <- B x + dt * rhs, with B = A^T
forward and B = A over reversed time for the adjoint.  It steps every
right-hand side at once on a (w, S) state, one plane per column: a column
joins, as a zero plane appended to the state, when its first right-hand
side comes up in march order, so an adjoint column starts at its window's
last time cell and the zero slabs before it are never marched.  The march
yields each time cell's (w, S) solution as it goes, row j solving column
j, and checks it for non-finite values.  A is constant, so a window of
W time cells solves as the sum of W time shifts of its box's impulse, the
box on one time cell: the adjoint marches one impulse per spatial box
(`fields.shift_groups`), ending where the box's last window ends, and a
window's Phi row sums the rotations of that impulse's projections over
the shifts its time cells span.

`PdeSystem` is the solver: its constructor checks the grid and the CFL
bound and builds A's stencil once.  Its solves are `forward(f)` and
`adjoint_march`, whose slabs `assemble_phi` projects as they are marched;
the bank's `kept()` marches once and keeps them.

Grids are (time, y, x) with time on axis 0, so an observation window is
`fields.window_indicator(grid, (t_lo, y_lo, x_lo), (t_hi, y_hi, x_hi))`,
a point on each axis where lo == hi.  Forcing fields and solver
output live at cell centers; time-cell values are the average of the two
bracketing node states, matching the ODE solver convention.  Coefficients
are constant over the domain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, GridMismatchError, check_march
from .fields import (AdjointBank, Field, Grid, Window, check_time_grid, impulse,
                     shift_groups, time_spans)

__all__ = ["PdeParams", "PdeSystem", "cfl_limit"]

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


class _Stencil:
    """One step x <- A x of the five-point stencil over C-contiguous (w, ny,
    nx) states, one plane per right-hand side: `diag`, (ny, nx), and one
    scalar per neighbour, y-1, x-1, x+1, y+1.  `T` is the transposed step,
    its neighbours swapped."""

    def __init__(self, diag, ym, xm, xp, yp):
        self.diag, self.ym, self.xm, self.xp, self.yp = diag, ym, xm, xp, yp

    @property
    def T(self) -> "_Stencil":
        return _Stencil(self.diag, self.yp, self.xp, self.xm, self.ym)

    def apply(self, x, out, tmp) -> None:
        """out <- A x, `tmp` a scratch state.  Each cell adds its terms in the
        order y-1, x-1, self, x+1, y+1 from 0.0, the column order of its row
        of A, and a term across a wall adds nothing.  On the flat states an
        x neighbour is 1 entry away and a y neighbour nx: a shifted term that
        crosses a row or a plane lands on a wall cell, where it is zeroed.
        The y+1 term adds that 0.0 to the y = ny-1 cells, which leaves their
        bits as they are unless a cell holds -0.0."""
        w, ny, nx = x.shape
        xf, of, tf = x.reshape(-1), out.reshape(-1), tmp.reshape(-1)
        np.multiply(xf[:-nx], self.ym, out=of[nx:])
        out[:, 0] = 0.0
        np.multiply(xf[:-1], self.xm, out=tf[1:])
        tmp[..., 0] = 0.0
        of += tf
        np.multiply(x.reshape(w, -1), self.diag.reshape(-1), out=tmp.reshape(w, -1))
        of += tf
        np.multiply(xf[1:], self.xp, out=tf[:-1])
        tmp[..., -1] = 0.0
        of += tf
        np.multiply(xf[nx:], self.yp, out=tf[:-nx])
        tmp[:, -1] = 0.0
        of += tf


def _step_operator(params: PdeParams, grid: Grid) -> _Stencil:
    """Stencil of one adjoint step v <- A v + dt * h over the S = ny * nx
    cells, A = I + dt * (kron(F_y, I_x) + kron(I_y, F_x)) with F the flux
    form of each axis.  One forward step is u <- A^T u + dt * f."""

    def flux_form(n, h, vel):
        # interior face fluxes kappa * (v[j+1] - v[j]) / h + vel * v_donor,
        # donor cell upwind against the reversed velocity, are lower * v[j] +
        # upper * v[j+1]; the walls carry zero total flux; divided by h and
        # differenced onto the cells: F's diagonal and its two off-diagonals
        c, a = params.diffusivity / (h * h), vel / h
        lower, upper = (-c, c + a) if vel >= 0.0 else (-c + a, c)
        diag = np.zeros(n)
        diag[:-1] += lower
        diag[1:] -= upper
        return diag, -lower, upper

    _, ny, nx = grid.dims
    dt, dy, dx = grid.spacing
    vy, vx = params.velocity
    fy, ym, yp = flux_form(ny, dy, vy)
    fx, xm, xp = flux_form(nx, dx, vx)
    diag = 1.0 + dt * (fy[:, None] + fx)
    return _Stencil(diag, dt * ym, dt * xm, dt * xp, dt * yp)


class PdeSystem:
    """Forward and adjoint solver bound to fixed coefficients and a
    (time, y, x) grid.  The constructor checks the grid and the CFL bound,
    keeping `step_margin` = dt / cfl_limit, and builds the stencil of the
    step operator A once per system."""

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
        self.step_margin = dt / limit
        self._step = _step_operator(params, grid)

    @property
    def grid(self) -> Grid:
        return self._grid

    def forward(self, forcing: Field) -> Field:
        """March the forward problem from rest by u <- A^T u + dt f."""
        values = np.zeros(self._grid.num_cells)
        spans = time_spans([forcing], self._grid)
        for cells, v in self._march([forcing], spans):
            values[cells] = v[0]
        return Field(self._grid, values)

    def adjoint_march(self, functionals) -> AdjointBank:
        """Adjoint solves of every base at once by v <- A v + dt h, marched
        in reversed time each time the bank's slabs are asked for: one (w, S)
        slab per time cell, from the last on.  A window's base is its box's
        impulse, on the time cell its base functional ends on."""
        functionals = tuple(functionals)
        spans = time_spans(functionals, self._grid)
        ends = spans[:, 1].tolist()

        def march(order):
            bases = [impulse(functionals[i], ends[i]) if isinstance(functionals[i], Window)
                     else functionals[i] for i in order]
            return self._march(bases, time_spans(bases, self._grid), order)
        return AdjointBank(self._grid, spans[:, 1], march, shift_groups(functionals, spans))

    def _march(self, functionals, spans, order=None):
        """Step x <- B x + dt * rhs from rest and yield (cells, x), x the
        (w, S) solution on a time cell: forward, B = A^T from the first cell
        on, or, when `order`, the caller's index of each row, makes it an
        adjoint march, B = A from the last.  Rows come sorted by the step
        they join at, their first right-hand side.  A non-finite slab raises
        SolverError."""
        reverse = order is not None
        op = self._step if reverse else self._step.T
        nt, ny, nx = self._grid.dims
        dt = self._grid.spacing[0]
        # an all-zero adjoint column never joins; a forward march has one column
        joins = nt - spans[:, 1] if reverse else spans[:, 0]
        # the state, the next state and the stencil's scratch, each laid out
        # (w, ny, nx) at the head of a buffer as wide as every joining
        # column: a column joins as a plane past the head, never yet written
        width = int(np.searchsorted(joins, nt - 1, side="right"))
        cur, spare, scratch = np.zeros((3, width * ny * nx))
        for step, k in enumerate(range(nt - 1, -1, -1) if reverse else range(nt)):
            w = int(np.searchsorted(joins, step, side="right"))
            if w == 0:
                continue
            state, nxt, tmp = (b[:w * ny * nx].reshape(w, ny, nx) for b in (cur, spare, scratch))
            # overflow is reported as SolverError below, not as a numpy warning
            with np.errstate(over="ignore", invalid="ignore"):
                op.apply(state, nxt, tmp)
                # each column with a right-hand side here adds its box or its field
                for j in np.flatnonzero((spans[:w, 0] <= k) & (k < spans[:w, 1])).tolist():
                    f = functionals[j]
                    if isinstance(f, Window):
                        nxt[j][f.box[1:]] += dt * f.value
                    else:
                        nxt[j] += dt * f.values[k]
                out = (state + nxt).reshape(w, ny * nx)
                out *= 0.5
            check_march("adjoint" if reverse else "forward", out[:, None], order=order,
                        step=step)
            yield slice(k * ny * nx, (k + 1) * ny * nx), out
            cur, spare = spare, cur
