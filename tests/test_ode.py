import numpy as np
import pytest

from adjointgp import (
    Field,
    Grid,
    GridMismatchError,
    OdeParams,
    OdeSystem,
    SolverError,
    StabilityWarning,
    euler_stability_limit,
    inner_product,
    norm,
    window_indicator,
)
from oracles import assert_live_is_tight, ode_apply, ode_apply_adjoint, random_smooth_field

PARAMS = OdeParams(p0=5.0, p1=1.0, p2=0.5, T=10.0)


def _grid(cells, T=10.0):
    return Grid.regular(((0.0, T),), (cells,))


def test_step_response_reaches_static_gain():
    """Constant forcing f drives u toward f / p0; the transient envelope
    e^{-t} is negligible by t = 10."""
    grid = _grid(10_000)
    u = OdeSystem(PARAMS, grid).forward(Field.full(grid, 5.0))
    np.testing.assert_allclose(u.values_flat[-1], 1.0, rtol=0.02)


def test_forward_is_linear():
    grid = _grid(400)
    f = random_smooth_field(grid, seed=10)
    g = random_smooth_field(grid, seed=11)
    combo = Field(grid, 2.0 * f.values_flat - 3.0 * g.values_flat)
    system = OdeSystem(PARAMS, grid)
    lhs = system.forward(combo).values_flat
    rhs = (2.0 * system.forward(f).values_flat
           - 3.0 * system.forward(g).values_flat)
    np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-12)


def test_forward_first_order_convergence():
    grid_ref = _grid(100_000)

    def forcing(grid):
        t = grid.axis_centers(0)
        return Field(grid, np.sin(1.2 * t) + 0.5 * np.cos(0.4 * t + 1.0))

    ref = OdeSystem(PARAMS, grid_ref).forward(forcing(grid_ref)).values_flat
    errs = []
    for cells in (1000, 2000):
        grid = _grid(cells)
        u = OdeSystem(PARAMS, grid).forward(forcing(grid)).values_flat
        stride = 100_000 // cells
        # coarse center falls midway between two fine centers
        base = np.arange(cells) * stride + stride // 2
        ref_at = 0.5 * (ref[base - 1] + ref[base])
        errs.append(np.abs(u - ref_at).max())
    assert errs[0] / errs[1] > 1.5


def test_two_route_identity_is_exact():
    # the adjoint is the literal transpose of the forward march, so the two
    # quadrature routes agree to rounding
    grid = _grid(2000)
    system = OdeSystem(PARAMS, grid)
    for seed in range(5):
        f = random_smooth_field(grid, seed=500 + seed)
        h = random_smooth_field(grid, seed=600 + seed)
        lhs = inner_product(system.forward(f), h)
        rhs = inner_product(f, Field(grid, system.adjoint_bank([h]).rows[0]))
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)


def test_bilinear_identity_against_fd_oracle():
    """<Lu, v> = <u, L*v> with L and L* applied by finite differences;
    the residual is solver truncation and shrinks under refinement."""
    params = OdeParams(p0=0.62, p1=0.3, p2=1.0, T=4.0)
    rels = {}
    for cells in (1000, 2000):
        grid = Grid.regular(((0.0, 4.0),), (cells,))
        system = OdeSystem(params, grid)
        worst = 0.0
        for k in range(3):
            f = random_smooth_field(grid, seed=1000 + k, band=(0.6, 1.4))
            h = random_smooth_field(grid, seed=2000 + k, band=(0.6, 1.4))
            u = system.forward(f)
            v = Field(grid, system.adjoint_bank([h]).rows[0])
            lhs = inner_product(ode_apply(params, u), v)
            rhs = inner_product(u, ode_apply_adjoint(params, v))
            worst = max(worst, abs(lhs - rhs) / (norm(u) * norm(v)))
        rels[cells] = worst
    assert rels[1000] < 1e-2
    assert rels[1000] / rels[2000] > 1.5


def test_adjoint_satisfies_adjoint_equation():
    # FD residual of p2 v'' - p1 v' + p0 v - h is first-order in the step
    grid = _grid(20_000)
    h = random_smooth_field(grid, seed=77, band=(0.4, 1.2))
    v = Field(grid, OdeSystem(PARAMS, grid).adjoint_bank([h]).rows[0])
    resid = ode_apply_adjoint(PARAMS, v).values_flat - h.values_flat
    rel = norm(Field(grid, resid)) / norm(h)
    assert rel < 0.02


def test_adjoint_ends_at_rest():
    grid = _grid(5000)
    h = random_smooth_field(grid, seed=4)
    v = OdeSystem(PARAMS, grid).adjoint_bank([h]).rows[0]
    # v(T) = v'(T) = 0: the last cells are small compared to the interior
    assert abs(v[-1]) < 1e-3 * np.abs(v).max()


def test_stability_limit_anchors():
    # p = (5, 1, 0.5): roots -1 +- 3i, |root|^2 = 10, limit 2/10
    np.testing.assert_allclose(euler_stability_limit(PARAMS), 0.2, rtol=1e-12)
    # overdamped (2, 3, 1): roots -1 and -2, binding limit from the faster one
    np.testing.assert_allclose(
        euler_stability_limit(OdeParams(p0=2.0, p1=3.0, p2=1.0, T=1.0)),
        1.0, rtol=1e-12)
    # anti-damped systems admit no stable step
    assert euler_stability_limit(OdeParams(p0=5.0, p1=-1.0, p2=0.5, T=1.0)) == 0.0


def test_coarse_step_warns():
    grid = _grid(25)  # dt = 0.4 > 0.2
    with pytest.warns(StabilityWarning):
        OdeSystem(PARAMS, grid).forward(Field.full(grid, 1.0))


def test_stability_warning_points_at_the_caller():
    # the warning is raised inside the private march; it names the line
    # that called forward or adjoint_bank, not a line of ode.py
    grid = _grid(25)
    system = OdeSystem(PARAMS, grid)
    for solve in (lambda: system.forward(Field.full(grid, 1.0)),
                  lambda: system.adjoint_bank([Field.full(grid, 1.0)])):
        with pytest.warns(StabilityWarning) as record:
            solve()
        assert [w.filename for w in record] == [__file__]


def test_divergent_march_raises():
    params = OdeParams(p0=5.0e5, p1=1.0, p2=0.5, T=10.0)
    grid = _grid(1000)
    with pytest.warns(StabilityWarning):
        with pytest.raises(SolverError):
            OdeSystem(params, grid).forward(Field.full(grid, 1.0))


def test_bank_names_the_right_hand_side_that_blows_up():
    grid = _grid(1000)
    system = OdeSystem(PARAMS, grid)
    calm = random_smooth_field(grid, seed=50)
    huge = Field.full(grid, 1.7e308)
    with pytest.raises(SolverError, match=r"adjoint solve .* at step \d+ \(right-hand side 1\)"):
        system.adjoint_bank([calm, huge, calm])


def test_grid_validation():
    grid = Grid.regular(((0.0, 9.0),), (100,))  # wrong extent
    with pytest.raises(GridMismatchError):
        OdeSystem(PARAMS, grid)
    grid2d = Grid.regular(((0.0, 10.0), (0.0, 1.0)), (10, 10))
    with pytest.raises(GridMismatchError):
        OdeSystem(PARAMS, grid2d)
    good = _grid(100)
    other = _grid(200)
    with pytest.raises(GridMismatchError):
        OdeSystem(PARAMS, good).forward(Field.full(other, 1.0))


def test_bank_equals_single_solves_and_keeps_the_identity():
    # every row of a bank takes the arithmetic of a bank of one, and each
    # row still pairs with the forward march to rounding
    grid = _grid(2000)
    system = OdeSystem(PARAMS, grid)
    windows = ([random_smooth_field(grid, seed=610 + k) for k in range(3)]
               + [window_indicator(grid, [1.0 + 2.0 * k], [2.5 + 2.0 * k]) for k in range(4)])
    bank = system.adjoint_bank(windows)
    assert bank.grid == grid and bank.rows.shape == (len(windows), grid.num_cells)
    for w, row in zip(windows, bank.rows):
        assert np.array_equal(row, system.adjoint_bank([w]).rows[0])
        assert np.array_equal(row, OdeSystem(PARAMS, grid).adjoint_bank([w]).rows[0])
    f = random_smooth_field(grid, seed=620)
    u = system.forward(f)
    for w, row in zip(windows, bank.rows):
        lhs = inner_product(u, w)
        rhs = float(f.values_flat @ row) * grid.cell_volume
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)


def test_bank_live_cells_are_tight():
    # an adjoint marched backward from rest is zero after its window ends;
    # the all-zero functional has no live cell
    grid = _grid(400)
    windows = [window_indicator(grid, [1.0], [2.0 + 2.0 * k]) for k in range(4)]
    bank = OdeSystem(PARAMS, grid).adjoint_bank(windows + [Field.zeros(grid)])
    assert_live_is_tight(bank)
    assert len(set(bank.live[:4].tolist())) == 4 and bank.live.max() < grid.dims[0]
    assert bank.live[-1] == 0
