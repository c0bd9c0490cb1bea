"""The finite-difference oracles must be exact on low-order polynomials,
otherwise every solver test built on them is meaningless; the window
quadrature of the forward-sampling oracle must match the inner product."""

import numpy as np

from adjointgp import Grid, inner_product, window_indicator
from oracles import fd_d1, fd_d2, random_smooth_field, window_matrix


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
