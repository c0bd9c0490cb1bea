import warnings

import numpy as np
import pytest

from adjointgp import (
    ConfigError,
    Field,
    Grid,
    GridMismatchError,
    SolverError,
    inner_product,
    norm,
)
from adjointgp import pde
from adjointgp.pde import PdeParams, PdeSystem, cfl_limit, sensor_field
from oracles import (
    assert_live_is_tight,
    pde_adjoint_flux_bank,
    pde_apply,
    pde_apply_adjoint,
    pde_forward_stencil,
    random_smooth_field,
)

BOUNDS = ((0.0, 10.0), (0.0, 10.0))


def _grid(nt, ny, nx, T=10.0):
    return Grid.regular(((0.0, T), BOUNDS[0], BOUNDS[1]), (nt, ny, nx))


def _params(vy=0.4, vx=0.4, kappa=0.01):
    return PdeParams(velocity=(vy, vx), diffusivity=kappa, bounds=BOUNDS, T=10.0)


def _forward(params, forcing):
    return PdeSystem(params, forcing.grid).forward(forcing)


def _adjoint(params, functional):
    grid = functional.grid
    return Field(grid, PdeSystem(params, grid).adjoint_bank([functional]).rows[0])


def _impulse(grid, center=(3.0, 3.0), width=0.8):
    """Forcing concentrated in the first time slab: a Gaussian blob."""
    yy, xx = np.meshgrid(grid.axis_centers(1), grid.axis_centers(2), indexing="ij")
    blob = np.exp(-((yy - center[0]) ** 2 + (xx - center[1]) ** 2) / width)
    vals = np.zeros(grid.shape)
    vals[0] = blob / grid.spacing[0]
    return Field(grid, vals), yy, xx


def test_cfl_limit_formula():
    grid = _grid(40, 16, 16)
    dx = grid.spacing[1]
    # diffusion-only: 0.9 * dx^2 / (4 kappa)
    np.testing.assert_allclose(
        cfl_limit(_params(0.0, 0.0, 0.01), grid),
        0.9 * dx * dx / 0.04, rtol=1e-12)
    # doubling the diffusivity halves the diffusive bound
    np.testing.assert_allclose(
        cfl_limit(_params(0.0, 0.0, 0.02), grid),
        0.45 * dx * dx / 0.04, rtol=1e-12)
    # advection adds dx/|v| candidates
    np.testing.assert_allclose(
        cfl_limit(_params(0.5, 0.25, 1e-4), grid),
        0.9 * dx / 0.5, rtol=1e-12)


def test_cfl_violation_is_rejected_with_guidance():
    params = _params(kappa=2.0)  # diffusive limit far below dt
    grid = _grid(10, 16, 16)
    limit = cfl_limit(params, grid)
    with pytest.raises(ConfigError, match=f"largest admissible step is {limit:.6g}"):
        PdeSystem(params, grid)


def test_step_operator_is_built_once_per_system(monkeypatch):
    calls = []
    build = pde._step_operator

    def counting(params, grid):
        calls.append(grid)
        return build(params, grid)

    monkeypatch.setattr(pde, "_step_operator", counting)
    grid = _grid(20, 12, 12)
    system = PdeSystem(_params(), grid)
    system.forward(random_smooth_field(grid, seed=45))
    system.adjoint_bank([random_smooth_field(grid, seed=46)])
    system.adjoint_bank([random_smooth_field(grid, seed=47), random_smooth_field(grid, seed=48)])
    assert calls == [grid]


def test_diffusion_conserves_mass():
    """Zero-flux walls: with no advection the spatial integral is constant
    once the forcing has stopped."""
    grid = _grid(40, 16, 16)
    forcing, _, _ = _impulse(grid)
    u = _forward(_params(0.0, 0.0, 0.01), forcing)
    sums = u.values.sum(axis=(1, 2))
    np.testing.assert_allclose(sums[5:], sums[5], rtol=1e-10)


def test_blob_advects_at_velocity():
    grid = _grid(40, 16, 16)
    forcing, yy, xx = _impulse(grid)
    u = _forward(_params(0.4, 0.4, 0.01), forcing)
    k = 20
    t = grid.axis_centers(0)[k]
    w = u.values[k]
    cy = float((yy * w).sum() / w.sum())
    cx = float((xx * w).sum() / w.sum())
    # displacement from the source tracks velocity * t within a few percent
    np.testing.assert_allclose(cy - 3.0, 0.4 * t, rtol=0.07)
    np.testing.assert_allclose(cx - 3.0, 0.4 * t, rtol=0.07)


def test_no_new_extrema_after_impulse():
    grid = _grid(40, 16, 16)
    forcing, _, _ = _impulse(grid)
    u = _forward(_params(), forcing)
    assert u.values.min() >= -1e-10
    assert u.values[1:].max() <= forcing.values[0].max()


def test_forward_is_linear():
    grid = _grid(20, 12, 12)
    params = _params()
    f = random_smooth_field(grid, seed=30)
    g = random_smooth_field(grid, seed=31)
    combo = Field(grid, 1.5 * f.values - 0.5 * g.values)
    lhs = _forward(params, combo).values
    rhs = (1.5 * _forward(params, f).values
           - 0.5 * _forward(params, g).values)
    np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-12)


def test_two_route_identity_is_exact():
    # flux-form adjoint is the literal transpose of the forward march,
    # boundary handling included
    grid = _grid(20, 12, 12)
    params = _params()
    for seed in range(4):
        f = random_smooth_field(grid, seed=700 + seed)
        h = random_smooth_field(grid, seed=800 + seed)
        lhs = inner_product(_forward(params, f), h)
        rhs = inner_product(f, _adjoint(params, h))
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)


def test_bilinear_identity_against_fd_oracle():
    """<Lu, v> = <u, L*v> with both operators applied by finite differences.

    The residual mixes solver truncation with the adjoint's boundary layers,
    so the regime keeps the mesh Peclet number near one (layers resolved)
    and asserts first-order decay of the mean residual under refinement.
    """
    params = PdeParams(velocity=(0.05, 0.05), diffusivity=0.05,
                       bounds=BOUNDS, T=10.0)
    stats = {}
    for cells in (20, 40):
        grid = _grid(cells, cells, cells)
        rels = []
        for k in range(4):
            f = random_smooth_field(grid, seed=3000 + k, band=(0.5, 1.5))
            h = random_smooth_field(grid, seed=4000 + k, band=(0.5, 1.5))
            u = _forward(params, f)
            v = _adjoint(params, h)
            lhs = inner_product(pde_apply(params, u), v)
            rhs = inner_product(u, pde_apply_adjoint(params, v))
            rels.append(abs(lhs - rhs) / (norm(u) * norm(v)))
        stats[cells] = np.mean(rels)
        assert max(rels) < 1e-2
    assert stats[20] / stats[40] > 1.74  # ~2^0.8


def test_sensor_field_normalization():
    grid = _grid(40, 16, 16)
    w = sensor_field(grid, (2.0, 2.0), (4.0, 4.0), 1.0, 3.0)
    ones = Field.full(grid, 1.0)
    np.testing.assert_allclose(inner_product(w, ones), 1.0, rtol=1e-12)
    # support stays inside the requested box
    tt = grid.axis_centers(0)
    occupied = np.nonzero(w.values.sum(axis=(1, 2)))[0]
    assert tt[occupied].min() >= 1.0 - grid.spacing[0]
    assert tt[occupied].max() <= 3.0 + grid.spacing[0]


def test_grid_validation():
    params = _params()
    with pytest.raises(GridMismatchError):
        PdeSystem(params, Grid.regular(((0.0, 10.0),), (10,)))
    wrong_box = Grid.regular(((0.0, 10.0), (0.0, 5.0), (0.0, 10.0)), (20, 12, 12))
    with pytest.raises(GridMismatchError):
        PdeSystem(params, wrong_box)


def test_bank_equals_single_solves_and_keeps_the_identity():
    grid = _grid(20, 12, 12)
    params = _params(vy=0.4, vx=-0.3)
    system = PdeSystem(params, grid)
    windows = ([random_smooth_field(grid, seed=820 + k) for k in range(2)]
               + [sensor_field(grid, (2.0 + k, 3.0), (4.0 + k, 5.0), 2.0 * k, 2.0 * k + 3.0)
                  for k in range(3)])
    bank = system.adjoint_bank(windows)
    assert bank.grid == grid and bank.rows.shape == (len(windows), grid.num_cells)
    for w, row in zip(windows, bank.rows):
        assert np.array_equal(row, system.adjoint_bank([w]).rows[0])
        assert np.array_equal(row, PdeSystem(params, grid).adjoint_bank([w]).rows[0])
    f = random_smooth_field(grid, seed=830)
    u = system.forward(f)
    for w, row in zip(windows, bank.rows):
        lhs = inner_product(u, w)
        rhs = float(f.values_flat @ row) * grid.cell_volume
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)


def test_bank_names_the_step_where_one_window_blows_up():
    grid = _grid(20, 12, 12)
    system = PdeSystem(_params(), grid)
    calm = random_smooth_field(grid, seed=840)
    huge = Field.full(grid, 1.7e308)
    with pytest.raises(SolverError, match=r"adjoint solve .* at step \d+ \(right-hand side 1\)"):
        system.adjoint_bank([calm, huge, calm])


@pytest.mark.parametrize("velocity", [(0.4, 0.3), (0.4, -0.3), (-0.4, 0.3), (0.0, 0.3)])
def test_step_operator_matches_hand_written_stencils(velocity):
    """The sparse step operator against the hand-written flux-form adjoint
    and ghost-layer forward marches.  The grid is not square and every
    axis length differs, so swapped axes do not cancel out."""
    grid = Grid.regular(((0.0, 10.0), (0.0, 9.0), (0.0, 13.0)), (15, 9, 13))
    params = PdeParams(velocity=velocity, diffusivity=0.05,
                       bounds=((0.0, 9.0), (0.0, 13.0)), T=10.0)
    f = random_smooth_field(grid, seed=850)
    system = PdeSystem(params, grid)
    u = system.forward(f).values
    ref = pde_forward_stencil(params, f).values
    np.testing.assert_allclose(u, ref, rtol=0, atol=1e-12 * np.abs(ref).max())
    windows = [random_smooth_field(grid, seed=860 + k) for k in range(2)]
    windows.append(sensor_field(grid, (1.0, 2.0), (4.0, 7.0), 3.0, 6.0))
    rows = system.adjoint_bank(windows).rows
    ref = pde_adjoint_flux_bank(params, windows)
    np.testing.assert_allclose(rows, ref, rtol=0, atol=1e-12 * np.abs(ref).max())


def test_forward_overflow_raises_without_a_warning():
    grid = _grid(20, 12, 12)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverError, match=r"forward solve .* at step \d+"):
            PdeSystem(_params(), grid).forward(Field.full(grid, 1.7e308))


def test_bank_live_cells_are_tight():
    grid = _grid(20, 12, 12)
    windows = [sensor_field(grid, (2.0, 3.0), (4.0, 5.0), 1.0, 3.0 + 2.0 * k) for k in range(3)]
    bank = PdeSystem(_params(), grid).adjoint_bank(windows + [Field.zeros(grid)])
    assert_live_is_tight(bank)
    # a window ending at t_hi covers time cells up to t_hi / dt
    assert bank.live.tolist() == [6, 10, 14, 0]
