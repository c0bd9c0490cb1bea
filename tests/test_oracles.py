"""The finite-difference oracles must be exact on low-order polynomials,
otherwise every solver test built on them is meaningless; the window
quadrature of the forward-sampling oracle must match the inner product,
and its posterior draws must repeat per seed and average to the mean; the
per-axis exact Gram must equal the dense kernel matrix sandwiched by the
rows, and its predictive formula the weight-space posterior's; the dense
chain must hold, at each step, the state that step's flags point to."""

import numpy as np

from adjointgp import (ChainConfig, ChainResult, FeatureBasis, Grid, KernelParams,
                       inner_product, posterior_forcing, posterior_q, window_indicator)
from oracles import (dense_chain, eq_kernel, exact_gram, fd_d1, fd_d2, gp_predictive_var,
                     random_smooth_field, row_bank, sample_posterior_forcing,
                     window_matrix)

KERNEL = KernelParams(lengthscale=1.0, variance=4.0)


def _grid(cells):
    return Grid.regular(((0.0, 10.0),), (cells,))


def test_fd_d1_exact_on_quadratics():
    x = np.linspace(0.0, 2.0, 41)
    dx = x[1] - x[0]
    v = 3.0 * x**2 - 2.0 * x + 1.0
    np.testing.assert_allclose(fd_d1(v, dx), 6.0 * x - 2.0, rtol=0, atol=1e-11)


def test_fd_d2_exact_on_cubics():
    x = np.linspace(-1.0, 1.0, 33)
    dx = x[1] - x[0]
    v = x**3 + 0.5 * x**2 - x
    np.testing.assert_allclose(fd_d2(v, dx), 6.0 * x + 1.0, rtol=0, atol=1e-10)


def test_fd_axis_handling():
    rng = np.random.default_rng(3)
    block = rng.standard_normal((5, 7))
    dx = 0.1
    np.testing.assert_allclose(
        fd_d1(block, dx, axis=1),
        np.stack([fd_d1(row, dx) for row in block]),
        rtol=1e-13,
    )
    np.testing.assert_allclose(
        fd_d2(block, dx, axis=0),
        np.stack([fd_d2(col, dx) for col in block.T], axis=1),
        rtol=1e-13,
    )


def test_fd_second_order_convergence():
    # smooth non-polynomial: halving dx should cut the error ~4x
    errs = []
    for n in (64, 128):
        x = np.linspace(0.0, np.pi, n)
        dx = x[1] - x[0]
        err = np.abs(fd_d1(np.sin(x), dx) - np.cos(x)).max()
        errs.append(err)
    assert errs[0] / errs[1] > 3.0


def test_window_matrix_applies_quadrature():
    grid = Grid.regular(((0.0, 10.0),), (100,))
    windows = [window_indicator(grid, [2.5 * i], [2.5 * (i + 1)]) for i in range(4)]
    f = random_smooth_field(grid, seed=23)
    wm = window_matrix(windows)
    expected = [inner_product(w, f) for w in windows]
    np.testing.assert_allclose(wm @ f.values_flat, expected, rtol=1e-12)


def test_sample_posterior_forcing_contract():
    grid = _grid(40)
    basis = FeatureBasis.sample(5, 1, KERNEL, seed=18)
    rng = np.random.default_rng(19)
    design = rng.standard_normal((8, 5))
    post = posterior_q(design, rng.standard_normal(8), sigma=0.3)
    assert sample_posterior_forcing(post, basis, grid, 0, seed=1) == []
    a = sample_posterior_forcing(post, basis, grid, 3, seed=1)
    b = sample_posterior_forcing(post, basis, grid, 3, seed=1)
    for fa, fb in zip(a, b):
        assert (fa.values == fb.values).all()


def test_sample_posterior_forcing_mean_converges():
    grid = _grid(30)
    basis = FeatureBasis.sample(5, 1, KERNEL, seed=20)
    rng = np.random.default_rng(21)
    design = rng.standard_normal((8, 5))
    post = posterior_q(design, rng.standard_normal(8), sigma=0.3)
    mean_field, var_field = posterior_forcing(post, basis, grid)
    draws = sample_posterior_forcing(post, basis, grid, 2000, seed=22)
    stack = np.stack([d.values_flat for d in draws])
    for g in (0, 15, 29):
        se = stack[:, g].std(ddof=1) / np.sqrt(2000)
        assert abs(stack[:, g].mean() - mean_field.values_flat[g]) < 3 * se


def test_exact_gram_is_the_dense_kernel_between_the_rows():
    grid = Grid.regular(((0.0, 3.0), (0.0, 2.0), (-1.0, 1.0)), (4, 3, 5))
    rows = np.random.default_rng(9).standard_normal((6, grid.num_cells))
    centers = grid.centers()
    dense = np.array([[eq_kernel(x, y, KERNEL) for y in centers] for x in centers])
    expected = grid.cell_volume**2 * rows @ dense @ rows.T
    gram = exact_gram(row_bank(rows, grid), KERNEL)
    np.testing.assert_allclose(gram, expected, rtol=1e-12, atol=1e-12 * np.abs(expected).max())


def test_gp_predictive_var_matches_the_weight_space_posterior():
    # on a Gram Phi Phi^T the function-space formula is the weight posterior's
    phi = np.random.default_rng(10).standard_normal((9, 5))
    post = posterior_q(phi[:6], np.zeros(6), 0.3)
    weight_space = np.sum((phi[6:] @ post.root) ** 2, axis=1)
    np.testing.assert_allclose(gp_predictive_var(phi @ phi.T, 6, 0.3), weight_space,
                               rtol=1e-10)


def test_dense_chain_holds_each_accepted_state_for_its_steps():
    # the start is held until the first accept, each accepted state until the
    # next; from step lo on, the rows are the package's runs expanded
    states = np.array([[0.0, 10.0], [1.0, 11.0], [2.0, 12.0]])
    flags = np.array([False, True, False, False, True, False])
    result = ChainResult(ChainConfig(steps=6), states, np.zeros(3), flags)
    np.testing.assert_array_equal(dense_chain(result)[:, 0], [0, 1, 1, 1, 2, 2])
    np.testing.assert_array_equal(dense_chain(result, 2)[:, 1], [11, 11, 12, 12])
    for lo in range(6):
        held, holds = result.runs(lo)
        np.testing.assert_array_equal(dense_chain(result, lo), np.repeat(held, holds, axis=0))
