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
from adjointgp.errors import check_march
from adjointgp.fields import bank_rows
from oracles import ode_apply, ode_apply_adjoint, random_smooth_field

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
        rhs = inner_product(f, Field(grid, system.adjoint_march([h]).rows[0]))
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
            v = Field(grid, system.adjoint_march([h]).rows[0])
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
    v = Field(grid, OdeSystem(PARAMS, grid).adjoint_march([h]).rows[0])
    resid = ode_apply_adjoint(PARAMS, v).values_flat - h.values_flat
    rel = norm(Field(grid, resid)) / norm(h)
    assert rel < 0.02


def test_adjoint_ends_at_rest():
    grid = _grid(5000)
    h = random_smooth_field(grid, seed=4)
    v = OdeSystem(PARAMS, grid).adjoint_march([h]).rows[0]
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
    # that called forward or adjoint_march, not a line of ode.py
    grid = _grid(25)
    system = OdeSystem(PARAMS, grid)
    for solve in (lambda: system.forward(Field.full(grid, 1.0)),
                  lambda: system.adjoint_march([Field.full(grid, 1.0)])):
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
        system.adjoint_march([calm, huge, calm])


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
    bank = system.adjoint_march(windows)
    assert bank.grid == grid and bank.rows.shape == (len(windows), grid.num_cells)
    for w, row in zip(windows, bank.rows):
        assert np.array_equal(row, system.adjoint_march([w]).rows[0])
        assert np.array_equal(row, OdeSystem(PARAMS, grid).adjoint_march([w]).rows[0])
    f = random_smooth_field(grid, seed=620)
    u = system.forward(f)
    for w, row in zip(windows, bank.rows):
        lhs = inner_product(u, w)
        rhs = float(f.values_flat @ row) * grid.cell_volume
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)


def _plain_march(grid, functionals, reverse):
    """Every right-hand side stepped alone over every cell from rest, in
    Python floats: the march with no row skipped and no row shared."""
    dt, p0, p1, p2 = grid.spacing[0], PARAMS.p0, PARAMS.p1, PARAMS.p2
    rows = bank_rows(functionals, grid)
    for row in rows:
        src, u, w = row.tolist(), 0.0, 0.0
        for g in (range(len(src) - 1, -1, -1) if reverse else range(len(src))):
            u_next = u + dt * w
            w_next = w + dt * (src[g] - p1 * w - p0 * u) / p2
            row[g] = 0.5 * (u + u_next)
            u, w = u_next, w_next
    return rows


def _shifted_banks(grid):
    # tiles of two widths, as the tile rule lays out training and held-out
    # windows; point windows at span and list times; windows on the first
    # and last cells; an all-zero field and dense fields among windows
    dt = grid.spacing[0]
    # zeros of either sign solve to +0.0
    partial = Field(grid, np.where(np.arange(grid.num_cells) < 150,
                                   random_smooth_field(grid, seed=630).values_flat, -0.0))
    return {
        "tiles": ([window_indicator(grid, [k * 20 * dt], [(k + 1) * 20 * dt]) for k in range(20)]
                  + [window_indicator(grid, [k * 80 * dt], [(k + 1) * 80 * dt])
                     for k in range(5)]),
        "points": [window_indicator(grid, [t], [t]) for t in
                   [*np.linspace(1.0, 9.0, 12), 0.0, 0.7, 2.5, 7.25, 9.99, 10.0]],
        "edges": [window_indicator(grid, [0.0], [3 * dt]), window_indicator(grid, [0.0], [dt]),
                  window_indicator(grid, [10.0 - 3 * dt], [10.0]),
                  window_indicator(grid, [10.0 - dt], [10.0]),
                  window_indicator(grid, [4 * dt], [7 * dt])],
        "mixed": [window_indicator(grid, [1.0], [2.0]), Field.zeros(grid),
                  random_smooth_field(grid, seed=631), window_indicator(grid, [3.0], [4.0]),
                  partial, Field(grid, np.full(grid.num_cells, -0.0)), partial],
    }


@pytest.mark.parametrize("kind", ["tiles", "points", "edges", "mixed"])
def test_bank_of_shifted_windows_equals_its_rows_solved_alone(kind):
    # the march is time-invariant: each shape is marched once and the rows
    # that are its shifts are copies, equal bit for bit to plain marches
    grid = _grid(400)
    system = OdeSystem(PARAMS, grid)
    functionals = _shifted_banks(grid)[kind]
    bank = system.adjoint_march(functionals)
    plain = _plain_march(grid, functionals, reverse=True)
    assert bank.rows.tobytes() == plain.tobytes()
    assert np.array_equal(bank.rows, [system.adjoint_march([f]).rows[0] for f in functionals])
    for f in functionals:
        assert (system.forward(f).values.tobytes()
                == _plain_march(grid, [f], reverse=False)[0].tobytes())
    # the discrete adjoint identity still holds row by row
    f = random_smooth_field(grid, seed=632)
    u = system.forward(f)
    for h, row in zip(functionals, bank.rows):
        if np.any(row):
            rhs = float(f.values_flat @ row) * grid.cell_volume
            np.testing.assert_allclose(inner_product(u, h), rhs, rtol=1e-12)


def test_bank_counts_one_solve_per_shape():
    # 20 tiles of 20 cells and 5 of 80 are two shapes, each marched from
    # the tile that ends on the last cell
    grid = _grid(400)
    bank = OdeSystem(PARAMS, grid).adjoint_march(_shifted_banks(grid)["tiles"])
    assert (bank.solves, bank.cell_steps) == (2, 800)
    assert bank.rows.shape == (25, 400)  # reading the solved rows marches nothing more
    assert (bank.solves, bank.cell_steps) == (2, 800)
    # zero rows are not marched; the two unit-wide windows are one shape,
    # as are the two copies of `partial`
    mixed = OdeSystem(PARAMS, grid).adjoint_march(_shifted_banks(grid)["mixed"])
    assert mixed.solves == 3


def test_bank_of_windows_ending_before_T_counts_their_span_ends():
    # a base is marched from its last cell down, so its live cells are its
    # span end; the longest is marched first and the steps are their sum
    grid = _grid(400)
    dt = grid.spacing[0]
    windows = [window_indicator(grid, [100 * dt], [120 * dt]),
               window_indicator(grid, [150 * dt], [200 * dt])]
    bank = OdeSystem(PARAMS, grid).adjoint_march(windows)
    assert bank.live.tolist() == [120, 200]
    assert bank.order.tolist() == [1, 0]
    assert (bank.solves, bank.cell_steps) == (2, bank.live[bank.order].sum()) == (2, 320)
    for row, live in zip(bank.rows, bank.live):
        assert not row[live:].any() and row[:live].any()


def test_forward_of_a_delayed_forcing_is_the_delayed_forward():
    grid = _grid(500)
    system = OdeSystem(PARAMS, grid)
    f = random_smooth_field(grid, seed=640).values_flat
    u = system.forward(Field(grid, f)).values_flat
    for k in (1, 37, 250, 499):
        delayed = system.forward(Field(grid, np.concatenate((np.zeros(k), f[:-k])))).values_flat
        assert np.array_equal(delayed[k:], u[:-k])
        assert np.array_equal(delayed[:k], np.zeros(k)) and not np.signbit(delayed[:k]).any()


def test_divergent_shifted_copy_names_the_same_step_and_right_hand_side():
    # the copies of a divergent shape carry its non-finite cells shifted, so
    # the error names the step and right-hand side a plain march would
    grid = _grid(1000)
    system = OdeSystem(PARAMS, grid)
    calm = random_smooth_field(grid, seed=50)

    def huge(lo):
        return Field(grid, np.where((np.arange(1000) >= lo) & (np.arange(1000) < lo + 50),
                                    1.7e308, 0.0))

    for bank in ([calm, huge(100), calm, huge(600)], [calm, huge(100)], [huge(400), huge(400)]):
        with pytest.raises(SolverError) as expected:
            check_march("adjoint", _plain_march(grid, bank, reverse=True), True)
        with pytest.raises(SolverError) as raised:
            system.adjoint_march(bank)
        assert str(raised.value) == str(expected.value)
