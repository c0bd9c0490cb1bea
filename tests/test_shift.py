import numpy as np
import pytest

from adjointgp import (
    ConfigError,
    FeatureBasis,
    Field,
    Grid,
    KernelParams,
    inner_product,
    window_indicator,
)
from adjointgp.shift import ShiftParams, ShiftSystem
from oracles import assert_live_is_tight, random_smooth_field


def _grid(cells=100, T=10.0):
    return Grid.regular(((0.0, T),), (cells,))


def test_zero_offset_is_identity():
    grid = _grid()
    params = ShiftParams(a=0.0, T=10.0)
    f = random_smooth_field(grid, seed=1)
    u = ShiftSystem(params, grid).forward(f)
    np.testing.assert_array_equal(u.values_flat, f.values_flat)
    assert u.mask_flat.all()


def test_single_cell_offset():
    grid = _grid(100)
    dt = grid.spacing[0]
    params = ShiftParams(a=dt, T=10.0)
    f = random_smooth_field(grid, seed=2)
    u = ShiftSystem(params, grid).forward(f)
    np.testing.assert_array_equal(u.values_flat[1:], f.values_flat[:-1])
    # the exposed first cell is undefined, not zero-valued data
    assert not u.mask_flat[0]
    assert u.mask_flat[1:].all()


def test_forward_adjoint_round_trip_on_overlap():
    grid = _grid(200)
    params = ShiftParams(a=2.0, T=10.0)
    f = random_smooth_field(grid, seed=3)
    system = ShiftSystem(params, grid)
    back = system.adjoint_bank([system.forward(f)]).rows[0]
    # the last 2.0 seconds (40 cells) are shifted in from outside the
    # domain, and the bank holds 0 there
    keep = np.arange(200) < 200 - 40
    np.testing.assert_array_equal(back[keep], f.values_flat[keep])
    np.testing.assert_array_equal(back[~keep], 0.0)


def test_adjoint_identity_is_exact():
    # masked inner products integrate over the common overlap, where the
    # index shift makes the identity hold to rounding
    grid = _grid(250)
    params = ShiftParams(a=1.2, T=10.0)
    system = ShiftSystem(params, grid)
    for seed in range(4):
        f = random_smooth_field(grid, seed=900 + seed)
        h = random_smooth_field(grid, seed=950 + seed)
        lhs = inner_product(system.forward(f), h)
        rhs = inner_product(f, Field(grid, system.adjoint_bank([h]).rows[0]))
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)


def test_negative_offset():
    grid = _grid(50)
    params = ShiftParams(a=-0.4, T=10.0)  # two cells leftward
    f = random_smooth_field(grid, seed=5)
    u = ShiftSystem(params, grid).forward(f)
    np.testing.assert_array_equal(u.values_flat[:-2], f.values_flat[2:])
    assert not u.mask_flat[-1]


def test_fractional_offset_is_rejected():
    grid = _grid(100)  # dt = 0.1
    with pytest.raises(ConfigError, match="integer number of cells"):
        ShiftSystem(ShiftParams(a=0.15, T=10.0), grid)


def test_offset_must_fit_domain():
    with pytest.raises(ValueError):
        ShiftParams(a=10.0, T=10.0)


def test_displaced_source_invariant():
    """Translating every feature phase by w . delta / lengthscale turns the
    basis of a forcing into the basis of its translate, and the shifted
    system maps one solution onto the other."""
    grid = _grid(200)
    delta = 1.5
    params = ShiftParams(a=delta, T=10.0)
    kernel = KernelParams(lengthscale=1.0, variance=4.0)
    basis = FeatureBasis.sample(12, 1, kernel, seed=21)
    rng = np.random.default_rng(8)
    q = rng.standard_normal(12)

    from adjointgp import forcing_from_weights

    f = forcing_from_weights(basis, q, grid)
    shifted_phases = np.mod(
        basis.phases - basis.frequencies[:, 0] * delta / kernel.lengthscale,
        2.0 * np.pi)
    moved_basis = FeatureBasis(basis.frequencies, shifted_phases, kernel)
    f_moved = forcing_from_weights(moved_basis, q, grid)

    u = ShiftSystem(params, grid).forward(f)
    keep = u.mask_flat
    np.testing.assert_allclose(u.values_flat[keep], f_moved.values_flat[keep],
                               rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("a", [1.2, -2.0])
def test_bank_equals_single_solves_and_keeps_the_identity(a):
    grid = _grid(250)
    params = ShiftParams(a=a, T=10.0)
    system = ShiftSystem(params, grid)
    masked = random_smooth_field(grid, seed=970)
    masked = Field(grid, masked.values, mask=grid.axis_centers(0) < 7.0)
    windows = [random_smooth_field(grid, seed=960 + k) for k in range(3)] + [masked]
    bank = system.adjoint_bank(windows)
    assert bank.grid == grid and bank.rows.shape == (len(windows), grid.num_cells)
    for w, row in zip(windows, bank.rows):
        assert np.array_equal(row, system.adjoint_bank([w]).rows[0])
        assert np.array_equal(row, ShiftSystem(params, grid).adjoint_bank([w]).rows[0])
    f = random_smooth_field(grid, seed=980)
    u = system.forward(f)
    for w, row in zip(windows, bank.rows):
        lhs = inner_product(u, w)
        rhs = float(f.values_flat @ row) * grid.cell_volume
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)


@pytest.mark.parametrize("a", [1.2, -2.0])
def test_bank_live_cells_are_tight(a):
    grid = _grid(250)
    windows = [window_indicator(grid, [3.0], [4.0 + k]) for k in range(3)]
    bank = ShiftSystem(ShiftParams(a=a, T=10.0), grid).adjoint_bank(windows + [Field.zeros(grid)])
    assert_live_is_tight(bank)
    # v(t) = h(t + a) ends a before the window does
    ends = np.array([4.0, 5.0, 6.0]) - a
    assert bank.live.tolist() == [*np.round(ends / grid.spacing[0]).astype(int), 0]
