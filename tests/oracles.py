"""Finite-difference oracles for the test suite.

Derivatives are evaluated directly from gridded samples with centered
stencils on interior cells and second-order one-sided stencils at the
boundaries, independent of any solver under test.  Operator oracles apply
the differential operators these stencils imply; the solvers never see
them, so agreement between the two routes is evidence, not tautology.

The forward-sampling predictive pushes posterior forcing draws, the weight
posterior's mean plus its covariance root times standard normals, through
the forward solver and reads them off the observation windows.  It never
touches an adjoint solve, so it checks the closed-form predictive scores,
which are built from adjoint design rows, end to end.

The PDE reference marches step the advection-diffusion scheme by hand:
the forward with a reflected ghost layer, the adjoint in flux form with
donor-cell fluxes and zero total flux at the walls.  The package builds
one sparse step operator from the same scheme; these stencils never see it,
so a wrong axis or upwind side in that operator shows as a mismatch.

The trace writer formats every coordinate of every step afresh; the
package's writer reuses unchanged text and must match it byte for byte.

The reference sampler takes the package's proposal draws but tests each
step by evaluating the full target at the proposal and at the current
point, where the package updates a gradient incrementally; on a given
stream the two must accept the same steps and walk the same chain.

The exact kernel and the truncated feature sum at single points check the
random Fourier feature expansion that the package evaluates on grids.

The live-cell check reads an adjoint bank one row and one time cell at a
time, where the bank finds every row's last non-zero time cell at once.
"""

import numpy as np

from adjointgp import FeatureBasis, Field, Grid, KernelParams, forcing_from_weights
from adjointgp.features import _eval_at
from adjointgp.mcmc import BLOCK_STEPS, _block_draws, _default_batch


def fd_d1(values: np.ndarray, dx: float, axis: int = 0) -> np.ndarray:
    """First derivative along `axis`, second order everywhere."""
    v = np.moveaxis(np.asarray(values, dtype=float), axis, 0)
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - v[:-2]) / (2.0 * dx)
    out[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * dx)
    out[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * dx)
    return np.moveaxis(out, 0, axis)


def fd_d2(values: np.ndarray, dx: float, axis: int = 0) -> np.ndarray:
    """Second derivative along `axis`: centered interior, one-sided ends."""
    v = np.moveaxis(np.asarray(values, dtype=float), axis, 0)
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / dx**2
    out[0] = (2.0 * v[0] - 5.0 * v[1] + 4.0 * v[2] - v[3]) / dx**2
    out[-1] = (2.0 * v[-1] - 5.0 * v[-2] + 4.0 * v[-3] - v[-4]) / dx**2
    return np.moveaxis(out, 0, axis)


def ode_apply(params, field: Field) -> Field:
    """p2 u'' + p1 u' + p0 u from finite differences of the samples."""
    dt = field.grid.spacing[0]
    u = field.values_flat
    lu = params.p2 * fd_d2(u, dt) + params.p1 * fd_d1(u, dt) + params.p0 * u
    return Field(field.grid, lu)


def ode_apply_adjoint(params, field: Field) -> Field:
    """The formal adjoint flips the sign of the odd-order term:
    p2 v'' - p1 v' + p0 v."""
    dt = field.grid.spacing[0]
    v = field.values_flat
    lv = params.p2 * fd_d2(v, dt) - params.p1 * fd_d1(v, dt) + params.p0 * v
    return Field(field.grid, lv)


def pde_apply(params, field: Field) -> Field:
    """u_t + velocity . grad(u) - diffusivity * laplacian(u) on a (t, y, x)
    grid, from finite differences of the samples."""
    grid = field.grid
    dt, dy, dx = grid.spacing
    vy, vx = params.velocity
    u = field.values
    lu = (fd_d1(u, dt, axis=0)
          + vy * fd_d1(u, dy, axis=1) + vx * fd_d1(u, dx, axis=2)
          - params.diffusivity * (fd_d2(u, dy, axis=1) + fd_d2(u, dx, axis=2)))
    return Field(grid, lu)


def pde_apply_adjoint(params, field: Field) -> Field:
    """-v_t - velocity . grad(v) - diffusivity * laplacian(v)."""
    grid = field.grid
    dt, dy, dx = grid.spacing
    vy, vx = params.velocity
    v = field.values
    lv = (-fd_d1(v, dt, axis=0)
          - vy * fd_d1(v, dy, axis=1) - vx * fd_d1(v, dx, axis=2)
          - params.diffusivity * (fd_d2(v, dy, axis=1) + fd_d2(v, dx, axis=2)))
    return Field(grid, lv)


def random_smooth_field(grid: Grid, seed, modes: int = 4,
                        band=(0.5, 3.0)) -> Field:
    """Random low-frequency sum of cosine products over the grid box.

    `band` bounds each factor's wavenumber in half-periods per axis extent,
    so the field is well resolved on every grid the tests use.
    """
    rng = np.random.default_rng(seed)
    vals = np.zeros(grid.num_cells)
    axes = [grid.axis_centers(k) for k in range(grid.ndim)]
    lengths = [grid.extent(k) for k in range(grid.ndim)]
    for _ in range(modes):
        amp = rng.normal()
        term = np.full(grid.num_cells, amp)
        factors = []
        for k in range(grid.ndim):
            wave = rng.uniform(band[0], band[1]) * np.pi / lengths[k]
            phase = rng.uniform(0.0, 2.0 * np.pi)
            factors.append(np.cos(wave * (axes[k] - grid.origin[k]) + phase))
        mesh = factors[0]
        for f in factors[1:]:
            mesh = np.multiply.outer(mesh, f)
        vals += term * mesh.reshape(-1)
    return Field(grid, vals)


def window_matrix(windows) -> np.ndarray:
    """Rows apply observation windows to a flat field by dot product."""
    grid = windows[0].grid
    rows = np.stack([w.values_flat for w in windows])
    return rows * grid.cell_volume


def sample_posterior_forcing(post, basis, grid: Grid, count: int, seed: int):
    """Deterministic (per seed) list of posterior forcing draws."""
    weights = _posterior_weight_draws(post, count, seed)
    return [forcing_from_weights(basis, w, grid) for w in weights]


def _posterior_weight_draws(post, count: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(int(seed))
    eta = rng.standard_normal((int(count), post.dim))
    return post.mean + eta @ post.root.T


def forward_predictive_readings(post, basis, system, windows, samples: int,
                                seed: int) -> np.ndarray:
    """(samples, n) readings of posterior forcing draws: each draw is pushed
    through the forward solver and read through the windows."""
    wm = window_matrix(windows)
    draws = sample_posterior_forcing(post, basis, system.grid, samples, seed)
    return np.stack([wm @ system.forward(f).values_flat for f in draws])


def chain_to_csv_every_value(result, path) -> None:
    """MCMC trace with every value formatted on every row: one row per step
    with every coordinate, the log target, and whether the step accepted."""
    dim = result.chain.shape[1]
    header = ["step"] + [f"q{j}" for j in range(dim)] + ["log_target", "accepted"]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for t in range(result.config.steps):
            # repr of builtin float round-trips exactly; numpy scalars do not
            coords = ",".join(repr(float(v)) for v in result.chain[t])
            fh.write(f"{t},{coords},{float(result.log_targets[t])!r},"
                     f"{int(result.accepted_flags[t])}\n")


def rw_mh_full_target(target, start, config):
    """(chain, accepted flags) of the random walk on the package's block
    draws, each step accepted when target(prop) - target(current) >= log u
    and applied as q[i] += delta."""
    q = np.array(start, dtype=float)
    dim = q.size
    batch = config.batch_size if config.batch_size is not None else _default_batch(dim)
    batch = min(batch, dim)
    rng = np.random.default_rng(config.seed)
    chain = np.empty((config.steps, dim))
    flags = np.zeros(config.steps, dtype=bool)
    current_lp = target(q)
    for lo in range(0, config.steps, BLOCK_STEPS):
        size = min(BLOCK_STEPS, config.steps - lo)
        idx, delta, log_u = _block_draws(rng, dim, batch, size, config.proposal_scale)
        for t in range(size):
            prop = q.copy()
            prop[idx[t]] += delta[t]
            prop_lp = target(prop)
            if prop_lp - current_lp >= log_u[t]:
                q, current_lp = prop, prop_lp
                flags[lo + t] = True
            chain[lo + t] = q
    return chain, flags


def pde_forward_stencil(params, forcing: Field) -> Field:
    """Forward march with upwind advection and centered diffusion, the walls
    imposed by an edge-reflected ghost layer on every step."""
    grid = forcing.grid
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
        out[k] = 0.5 * (state + nxt)
        state = nxt
    return Field(grid, out)


def pde_adjoint_flux_bank(params, functionals) -> np.ndarray:
    """(n, num_cells) adjoint solutions marched in reversed time in flux
    form on an (n, ny, nx) state: donor-cell advective fluxes against the
    reversed velocity, centered diffusive fluxes, zero total flux at the
    walls."""
    grid = functionals[0].grid
    nt, ny, nx = grid.dims
    dt, dy, dx = grid.spacing
    vy, vx = params.velocity
    kappa = params.diffusivity
    rhs = np.stack([w.values for w in functionals])
    out = np.empty_like(rhs)
    state = np.zeros((len(functionals), ny, nx))
    for k in range(nt):
        flux_y = (kappa * (state[:, 1:, :] - state[:, :-1, :]) / dy
                  + vy * (state[:, 1:, :] if vy >= 0.0 else state[:, :-1, :])) / dy
        flux_x = (kappa * (state[:, :, 1:] - state[:, :, :-1]) / dx
                  + vx * (state[:, :, 1:] if vx >= 0.0 else state[:, :, :-1])) / dx
        div = np.zeros_like(state)
        div[:, :-1, :] += flux_y
        div[:, 1:, :] -= flux_y
        div[:, :, :-1] += flux_x
        div[:, :, 1:] -= flux_x
        nxt = state + dt * (div + rhs[:, nt - 1 - k])
        out[:, nt - 1 - k] = 0.5 * (state + nxt)
        state = nxt
    return out.reshape(len(functionals), -1)


def eq_kernel(x, y, kernel: KernelParams) -> float:
    """Exact kernel value between two points of equal dimension."""
    x = np.asarray(x, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)
    if x.size != y.size:
        raise ValueError(f"point dimensions differ: {x.size} vs {y.size}")
    d2 = float(np.dot(x - y, x - y))
    return kernel.variance * np.exp(-d2 / (2.0 * kernel.lengthscale**2))


def feature_vector(basis: FeatureBasis, x) -> np.ndarray:
    """All features evaluated at a single point."""
    x = np.asarray(x, dtype=float).reshape(1, -1)
    if x.shape[1] != basis.dim:
        raise ValueError("point dimension does not match basis")
    return _eval_at(basis, x)[:, 0]


def kernel_approx(basis: FeatureBasis, x, y) -> float:
    """Truncated kernel sum_m phi_m(x) phi_m(y)."""
    return float(np.dot(feature_vector(basis, x), feature_vector(basis, y)))


def assert_live_is_tight(bank) -> None:
    """Each row of `bank` is zero on every time cell from `bank.live[i]`
    on and non-zero in time cell `bank.live[i] - 1`."""
    cells = bank.rows.reshape(len(bank.rows), bank.grid.dims[0], -1)
    assert bank.live.shape == (len(bank.rows),)
    assert np.issubdtype(bank.live.dtype, np.integer)
    for row, live in zip(cells, bank.live):
        assert 0 <= live <= len(row)
        assert not row[live:].any()
        assert live == 0 or row[live - 1].any()
