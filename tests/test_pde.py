import re
import warnings

import numpy as np
import pytest

from adjointgp import (
    ConfigError,
    FeatureBasis,
    Field,
    Grid,
    GridMismatchError,
    KernelParams,
    SolverError,
    Window,
    assemble_phi,
    inner_product,
    norm,
    window_indicator,
)
from adjointgp import pde
from adjointgp.config import parse_config
from adjointgp.experiments import build_heldout, build_windows, make_grid, make_system
from adjointgp.pde import PdeParams, PdeSystem, cfl_limit
from oracles import (
    assert_live_is_tight,
    dense_field,
    eval_basis,
    pde_adjoint_flux_bank,
    pde_apply,
    pde_apply_adjoint,
    pde_forward_stencil,
    pde_step_matrix,
    random_smooth_field,
    row_order_product,
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
    return Field(grid, PdeSystem(params, grid).adjoint_march([functional]).rows[0])


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
    system.adjoint_march([random_smooth_field(grid, seed=46)]).kept()
    system.adjoint_march([random_smooth_field(grid, seed=47), random_smooth_field(grid, seed=48)]).kept()
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


def test_sensor_window_normalization():
    grid = _grid(40, 16, 16)
    w = window_indicator(grid, (1.0, 2.0, 2.0), (3.0, 4.0, 4.0))
    ones = Field.full(grid, 1.0)
    np.testing.assert_allclose(inner_product(w, ones), 1.0, rtol=1e-12)
    # support stays inside the requested box
    tt = grid.axis_centers(0)
    occupied = np.nonzero(dense_field(w).values.sum(axis=(1, 2)))[0]
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
               + [window_indicator(grid, (2.0 * k, 2.0 + k, 3.0), (2.0 * k + 3.0, 4.0 + k, 5.0))
                  for k in range(3)])
    bank = system.adjoint_march(windows).kept()
    assert bank.grid == grid and bank.rows.shape == (len(windows), grid.num_cells)
    for w, row in zip(windows, bank.rows):
        assert np.array_equal(row, system.adjoint_march([w]).rows[0])
        assert np.array_equal(row, PdeSystem(params, grid).adjoint_march([w]).rows[0])
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
        system.adjoint_march([calm, huge, calm]).kept()


def test_bank_names_the_caller_of_a_blow_up_that_joins_the_march_late():
    # the huge field ends at time cell 8, so the reversed march takes it as
    # its second column, after the calm window that ends on the last cell;
    # the error still names the first step it is bad at and its caller's
    # index, whether the march is kept or projected as it goes
    grid = _grid(20, 12, 12)
    system = PdeSystem(_params(), grid)
    values = np.zeros(grid.shape)
    values[:8] = 1.7e308
    functionals = [Field(grid, values), window_indicator(grid, (1.0, 2.0, 3.0), (10.0, 4.0, 5.0))]
    assert system.adjoint_march(functionals).order.tolist() == [1, 0]
    message = r"adjoint solve .* at step \d+ \(right-hand side 0\)$"
    with pytest.raises(SolverError, match=message) as kept:
        system.adjoint_march(functionals).kept()
    basis = FeatureBasis.sample(5, 3, KernelParams(lengthscale=2.0, variance=1.0), seed=3)
    with pytest.raises(SolverError) as streamed:
        assemble_phi(system.adjoint_march(functionals), basis)
    assert str(streamed.value) == str(kept.value)
    # a bank of the huge field alone goes bad at the same step of its march
    with pytest.raises(SolverError) as alone:
        system.adjoint_march(functionals[:1]).kept()
    step = int(re.search(r"step (\d+)", str(alone.value)).group(1))
    assert f"at step {step} " in str(kept.value)


@pytest.mark.parametrize("velocity", [(0.4, 0.3), (0.4, -0.3), (-0.4, 0.3), (0.0, 0.3)])
def test_step_operator_matches_hand_written_stencils(velocity):
    """The stencil step operator against the hand-written flux-form adjoint
    and ghost-layer forward marches, and one step of it against the dense
    step matrix.  The grid is not square and every axis length differs, so
    swapped axes do not cancel out."""
    grid = Grid.regular(((0.0, 10.0), (0.0, 9.0), (0.0, 13.0)), (15, 9, 13))
    params = PdeParams(velocity=velocity, diffusivity=0.05,
                       bounds=((0.0, 9.0), (0.0, 13.0)), T=10.0)
    f = random_smooth_field(grid, seed=850)
    system = PdeSystem(params, grid)
    u = system.forward(f).values
    ref = pde_forward_stencil(params, f).values
    np.testing.assert_allclose(u, ref, rtol=0, atol=1e-12 * np.abs(ref).max())
    windows = [random_smooth_field(grid, seed=860 + k) for k in range(2)]
    windows.append(window_indicator(grid, (3.0, 1.0, 2.0), (6.0, 4.0, 7.0)))
    rows = system.adjoint_march(windows).rows
    ref = pde_adjoint_flux_bank(params, windows)
    np.testing.assert_allclose(rows, ref, rtol=0, atol=1e-12 * np.abs(ref).max())
    # one step of A and of A^T, bit for bit against the dense matrix summed
    # row by row in column order, on states with exact zeros
    matrix = pde_step_matrix(params, grid)
    op = pde._step_operator(params, grid)
    rng = np.random.default_rng(870)
    for w in (1, 5):
        v = rng.standard_normal((9 * 13, w))
        v[rng.random(v.shape) < 0.3] = 0.0
        for stencil, m in ((op, matrix), (op.T, matrix.T)):
            out, tmp = np.empty((2, 9, 13, w))
            stencil.apply(v.reshape(9, 13, w), out, tmp)
            np.testing.assert_array_equal(out.reshape(-1, w).view(np.int64),
                                          row_order_product(m, v).view(np.int64))


def test_forward_overflow_raises_without_a_warning():
    grid = _grid(20, 12, 12)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverError, match=r"forward solve .* at step \d+"):
            PdeSystem(_params(), grid).forward(Field.full(grid, 1.7e308))


def test_bank_live_cells_are_tight():
    grid = _grid(20, 12, 12)
    windows = [window_indicator(grid, (1.0, 2.0, 3.0), (3.0 + 2.0 * k, 4.0, 5.0)) for k in range(3)]
    bank = PdeSystem(_params(), grid).adjoint_march(windows + [Field.zeros(grid)]).kept()
    assert_live_is_tight(bank)
    # a window ending at t_hi covers time cells up to t_hi / dt
    assert bank.live.tolist() == [6, 10, 14, 0]


def test_bank_counts_stay_put_when_the_bank_is_read_again():
    # the counts follow from the live cells, once, however often the bank
    # marches: projected, then read as rows; the three windows share a box,
    # so one impulse is marched, from the last cell any of them covers
    grid = _grid(20, 12, 12)
    windows = [window_indicator(grid, (1.0, 2.0, 3.0), (3.0 + 2.0 * k, 4.0, 5.0)) for k in range(3)]
    bank = PdeSystem(_params(), grid).adjoint_march(windows)
    basis = FeatureBasis.sample(5, 3, KernelParams(lengthscale=2.0, variance=1.0), seed=3)
    assemble_phi(bank, basis)
    assert (bank.solves, bank.cell_steps) == (1, 14)
    assert bank.rows.shape == (3, grid.num_cells)
    assert (bank.solves, bank.cell_steps) == (1, 14)


MIXED = """
[system]
kind = pde
velocity_x = 0.4
velocity_y = -0.3
diffusivity = 0.01
x_min = 0.0
x_max = 10.0
y_min = 0.0
y_max = 10.0
T = 10.0

[grid]
cells_t = 20
cells_y = 12
cells_x = 12

[features]
count = 30

[sensors]
rule = grid
count = 9
time_windows = 4
heldout_count = 4
t_start = 0.5
t_end = 9.5

[kernel]
lengthscale = 2.0
variance = 2.0

[noise]
sigma = 0.05
"""


def test_bank_of_impulse_shifts_equals_a_dense_march_per_window():
    # windows of 4 or 5 time cells on the 3x3 training and 2x2 held-out
    # lattices, a width-1 window and one ending on the last cell, each on a
    # box another window also covers: every row is its box's impulse summed
    # over the shifts its time cells span, against each window marched alone
    # as a dense field
    config = parse_config(MIXED)
    grid = make_grid(config)
    system = make_system(config, grid)
    windows = build_windows(config, grid)[0] + build_heldout(config, grid)[0]
    box = windows[0].box[1:]
    windows += [Window(grid, (slice(4, 5),) + box), Window(grid, (slice(8, 20),) + box)]
    bank = system.adjoint_march(windows)
    assert bank.solves == len({str(w.box[1:]) for w in windows}) == 13
    # the windows end on time cell 19 of 20; the first box's last one on 20
    assert bank.cell_steps == 12 * 19 + 20
    rows = bank.rows
    dense = np.array([system.adjoint_march([dense_field(w)]).rows[0] for w in windows])
    np.testing.assert_allclose(rows, dense, rtol=1e-13, atol=0.0)
    assert np.array_equal(rows == 0.0, dense == 0.0)
    basis = FeatureBasis.sample(30, 3, KernelParams(lengthscale=2.0, variance=2.0), seed=5)
    phi = assemble_phi(bank, basis)
    np.testing.assert_allclose(phi, rows @ eval_basis(basis, grid).T * grid.cell_volume,
                               rtol=1e-12)


def test_bank_of_the_pde_infer_windows_marches_one_impulse_per_box():
    # 25 training and 9 held-out sensors share the centre box: 33 impulses,
    # each marched over all 50 time cells, for 136 windows
    text = MIXED.replace("cells_t = 20\ncells_y = 12\ncells_x = 12",
                         "cells_t = 50\ncells_y = 30\ncells_x = 30")
    text = text.replace("count = 9\ntime_windows = 4\nheldout_count = 4\nt_start = 0.5\n"
                        "t_end = 9.5", "count = 25\ntime_windows = 4\nheldout_count = 9")
    config = parse_config(text)
    grid = make_grid(config)
    windows = build_windows(config, grid)[0] + build_heldout(config, grid)[0]
    bank = make_system(config, grid).adjoint_march(windows)
    assert (len(windows), bank.solves, bank.cell_steps) == (136, 33, 1650)
