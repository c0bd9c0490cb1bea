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
donor-cell fluxes and zero total flux at the walls.  The package steps
one five-point stencil built from the same scheme; these marches never see
it, so a wrong axis or upwind side in that stencil shows as a mismatch.
`pde_step_matrix` writes the same step as a dense Kronecker sum, and
`row_order_product` applies it row by row in column order, the sum order
the package's stencil keeps, so one step of each must agree bit for bit.

The trace writer formats every coordinate of every step afresh; the
package's writer leaves a field empty where its bits repeat the row above,
and filled forward its text must match the every-value trace byte for byte.
`read_trace` reads the package's trace back by that forward fill.

The reference sampler takes the package's proposal draws but tests each
step by evaluating the full target at the proposal and at the current
point, where the package updates a gradient incrementally; on a given
stream the two must accept the same steps and walk the same chain.
`tune_through_rw_mh` runs the scale search's probes as whole `rw_mh`
chains, states and log targets included, and reads their acceptance rate.

The exact kernel and the truncated feature sum at single points check the
random Fourier feature expansion that the package evaluates on grids.
`eval_basis` takes the cosine of every feature at every cell center
directly, the dense reference for the package's angle-addition tables.
`dense_chain` rebuilds the per-step chain from a chain's accepted states.

The live-cell check reads an adjoint bank one row and one time cell at a
time, where the bank finds every row's last non-zero time cell at once.
`row_bank` wraps given rows as an adjoint bank, each its own base and live
throughout, as the shift system builds its bank, so `assemble_phi` and the
Gram oracles can be fed rows no solver made.

`dense_field` renders an observation window as the whole-grid field it
stands for, the form the package never builds; every oracle that needs a
window's cell values reads them from there.  `cell_box` cuts a window axis
by axis with scalar arithmetic: the cell holding a point, the cells whose
centers fall in a span, where the package cuts all boxes at once.

`exact_gram` is the untruncated discrete GP behind the feature expansion:
on a tensor grid the exponentiated-quadratic kernel is a Kronecker product
of per-axis Gaussian matrices, so the Gram of the adjoint rows follows from
the bank with one small matmul per axis and no feature at all.
`gp_predictive_var` reads the held-out predictive variance off any Gram by
the function-space formula, where the package works in weight space.
"""

import math

import numpy as np

from adjointgp import (AdjointBank, DomainError, FeatureBasis, Field, Grid, KernelParams,
                       Window, forcing_from_weights)
from adjointgp.mcmc import (ACCEPT_HI, ACCEPT_LO, BLOCK_STEPS, TUNE_MAX_ROUNDS,
                            TUNE_PROBE_STEPS, ChainConfig, _block_draws, rw_mh)


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


def dense_field(functional) -> Field:
    """A window as the field holding its value on every cell of its box and
    0 elsewhere; any other functional, a field already, as it is."""
    if not isinstance(functional, Window):
        return functional
    vals = np.zeros(functional.grid.shape)
    vals[functional.box] = functional.value
    return Field(functional.grid, vals)


def cell_box(grid: Grid, lo, hi) -> Window:
    """The window of the box [lo, hi), cut one axis at a time.  Where
    lo == hi the axis holds a point, in cell floor((p - origin) / dx), the
    closed upper edge in the last cell; elsewhere the cells whose centers
    lie in [lo, hi).  A point outside the axis, NaN too, or a span holding
    no center raises DomainError."""
    box = []
    for k, (a, b) in enumerate(zip(np.ravel(lo).tolist(), np.ravel(hi).tolist())):
        o, s, d = grid.origin[k], grid.spacing[k], grid.dims[k]
        if a == b or (math.isnan(a) and math.isnan(b)):
            if not o <= a <= o + d * s:
                raise DomainError(f"point coordinate {a} outside axis {k}")
            i = min(math.floor((a - o) / s), d - 1)
            box.append(slice(i, i + 1))
            continue
        held = [i for i in range(d) if a <= o + (i + 0.5) * s < b]
        if not held:
            raise DomainError(f"window [{a}, {b}) contains no cell centers on axis {k}")
        box.append(slice(held[0], held[-1] + 1))
    return Window(grid, tuple(box))


def window_matrix(windows) -> np.ndarray:
    """Rows apply observation windows to a flat field by dot product."""
    grid = windows[0].grid
    rows = np.stack([dense_field(w).values_flat for w in windows])
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


def dense_chain(result, lo: int = 0) -> np.ndarray:
    """The (steps - lo, M) chain of a `ChainResult` from step lo on, one row
    per step, the steps x M array the package never builds."""
    return result.states[np.cumsum(result.accepted_flags)[lo:]]


def chain_to_csv_every_value(result, path) -> None:
    """MCMC trace with every value formatted on every row: one row per step
    with every coordinate and the log target of the state the step holds,
    and whether the step accepted."""
    dim = result.states.shape[1]
    header = ["step"] + [f"q{j}" for j in range(dim)] + ["log_target", "accepted"]
    held = np.cumsum(result.accepted_flags)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for t in range(result.config.steps):
            # repr of builtin float round-trips exactly; numpy scalars do not
            coords = ",".join(repr(float(v)) for v in result.states[held[t]])
            fh.write(f"{t},{coords},{float(result.log_targets[held[t]])!r},"
                     f"{int(result.accepted_flags[t])}\n")


def filled_trace_text(path) -> str:
    """The text of a trace written by `chain_to_csv` with each empty field
    filled from the same field of the row above.  Line ends are kept: the
    last field, the accepted flag, is never empty."""
    with open(path, encoding="utf-8", newline="") as fh:
        lines = [fh.readline()]
        above = None
        for line in fh:
            fields = line.split(",")
            if above is not None:
                assert len(fields) == len(above), line
                fields = [field or prev for field, prev in zip(fields, above)]
            lines.append(",".join(fields))
            above = fields
    return "".join(lines)


def read_trace(path):
    """(chain, log_targets, accepted) of a trace written by `chain_to_csv`,
    read back by forward fill."""
    header, *lines = filled_trace_text(path).splitlines()
    body = np.array([[float(v) for v in line.split(",")] for line in lines]).reshape(
        len(lines), len(header.split(",")))
    np.testing.assert_array_equal(body[:, 0], np.arange(len(lines)))
    return body[:, 1:-2], body[:, -2], body[:, -1].astype(bool)


def rw_mh_full_target(target, start, config):
    """(chain, accepted flags) of the random walk on the package's block
    draws, each step accepted when target(prop) - target(current) >= log u
    and applied as q[i] += delta."""
    q = np.array(start, dtype=float)
    dim = q.size
    batch = min(config.batch_size, dim)
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


def tune_through_rw_mh(target, start, seed: int, batch_size: int = 5):
    """(scale, probes) of the proposal scale search with each probe a full
    `rw_mh` chain: 1.6x above the acceptance band, 0.6x below, the first
    scale inside it, else the one closest to the band midpoint."""
    batch = min(batch_size, np.size(start))
    scale = 2.4 / math.sqrt(batch)
    best = (math.inf, scale)
    for probe in range(TUNE_MAX_ROUNDS):
        config = ChainConfig(steps=TUNE_PROBE_STEPS, proposal_scale=scale,
                             seed=seed + probe, batch_size=batch)
        rate = rw_mh(target, start, config).acceptance_rate
        if ACCEPT_LO <= rate <= ACCEPT_HI:
            return scale, probe + 1
        gap = abs(rate - 0.5 * (ACCEPT_LO + ACCEPT_HI))
        if gap < best[0]:
            best = (gap, scale)
        scale = scale * 0.6 if rate < ACCEPT_LO else scale * 1.6
    return best[1], TUNE_MAX_ROUNDS


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
    rhs = np.stack([dense_field(w).values for w in functionals])
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


def pde_step_matrix(params, grid: Grid) -> np.ndarray:
    """Dense (S, S) adjoint step A = I + dt * (kron(F_y, I) + kron(I, F_x)),
    F = -D^T (kappa / h^2 D + vel / h E) per axis: D takes each interior
    face's difference, E its donor cell, upwind against the reversed
    velocity.  Each entry of F sums at most two exact products."""
    _, ny, nx = grid.dims
    dt, dy, dx = grid.spacing

    def flux_form(n, h, vel):
        diff = np.eye(n - 1, n, k=1) - np.eye(n - 1, n)
        donor = np.eye(n - 1, n, k=1 if vel >= 0.0 else 0)
        return -diff.T @ (params.diffusivity / (h * h) * diff + vel / h * donor)

    lap = (np.kron(flux_form(ny, dy, params.velocity[0]), np.eye(nx))
           + np.kron(np.eye(ny), flux_form(nx, dx, params.velocity[1])))
    return np.eye(ny * nx) + dt * lap


def row_order_product(matrix: np.ndarray, v: np.ndarray) -> np.ndarray:
    """matrix @ v for an (S, w) v, each row's non-zero terms added one at a
    time from 0.0 in column order, the order of a sparse row product."""
    out = np.zeros((matrix.shape[0], v.shape[1]))
    for r, row in enumerate(matrix):
        for c in np.flatnonzero(row):
            out[r] = out[r] + row[c] * v[c]
    return out


def _eval_at(basis: FeatureBasis, points: np.ndarray) -> np.ndarray:
    """Feature matrix (count, npoints) at explicit points (npoints, dim)."""
    args = basis.frequencies @ points.T / basis.kernel.lengthscale
    args += basis.phases[:, None]
    np.cos(args, out=args)
    args *= basis.amplitude
    return args


def eval_basis(basis: FeatureBasis, grid: Grid) -> np.ndarray:
    """Dense (count, num_cells) matrix of every feature at every cell center."""
    if basis.dim != grid.ndim:
        raise ValueError(f"basis dim {basis.dim} does not match grid ndim {grid.ndim}")
    return _eval_at(basis, grid.centers())


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


def row_bank(rows, grid: Grid) -> AdjointBank:
    """Bank yielding `rows`, one per functional on `grid`, as one slab."""
    rows = np.asarray(rows, dtype=float)
    return AdjointBank(grid, np.full(len(rows), grid.dims[0]),
                       lambda order: [(slice(0, grid.num_cells), rows.T)])


def exact_gram(bank, kernel: KernelParams) -> np.ndarray:
    """(n, n) Gram dV^2 V K V^T of the bank's rows V under the exact kernel
    K on the grid's cell centers, K applied axis by axis: K = s^2 K_0 x K_1
    x ..., K_a[i, j] = exp(-(x_i - x_j)^2 / (2 l^2)) over axis a's centers.
    The feature route's Phi Phi^T tends to it as the feature count grows."""
    grid = bank.grid
    rows = bank.rows
    kv = rows.reshape(len(rows), *grid.dims)
    for axis in range(grid.ndim):
        x = grid.axis_centers(axis)
        k_axis = np.exp(-(x[:, None] - x[None, :]) ** 2 / (2.0 * kernel.lengthscale**2))
        kv = np.moveaxis(np.tensordot(kv, k_axis, axes=([axis + 1], [0])), -1, axis + 1)
    kv = kv.reshape(len(rows), -1)
    return grid.cell_volume**2 * kernel.variance * (rows @ kv.T)


def gp_predictive_var(gram: np.ndarray, n: int, sigma: float) -> np.ndarray:
    """Noise-free predictive variance of readings n, n + 1, ... given
    readings 0 .. n - 1 observed with noise sd `sigma`, from the noise-free
    Gram of all of them: diag(G_hh - G_ht (G_tt + sigma^2 I)^-1 G_th)."""
    cross = gram[n:, :n]
    solved = np.linalg.solve(gram[:n, :n] + sigma**2 * np.eye(n), cross.T)
    return np.diag(gram[n:, n:]) - np.einsum("ij,ji->i", cross, solved)
