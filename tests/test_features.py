import tracemalloc

import numpy as np
import pytest

from adjointgp import features
from adjointgp import (
    FeatureBasis,
    Grid,
    KernelParams,
    forcing_from_weights,
    sample_prior_forcing,
)
from oracles import eq_kernel, eval_basis, feature_vector, kernel_approx

KERNEL = KernelParams(lengthscale=1.0, variance=4.0)


def test_eq_kernel_anchors():
    np.testing.assert_allclose(eq_kernel([0.3], [0.3], KERNEL), 4.0, rtol=1e-12)
    # separation of one lengthscale decays by exp(-1/2)
    np.testing.assert_allclose(eq_kernel([0.0], [1.0], KERNEL),
                               4.0 * np.exp(-0.5), rtol=1e-12)
    k2 = KernelParams(lengthscale=np.sqrt(0.6), variance=4.0)
    np.testing.assert_allclose(
        eq_kernel([1.0, 2.0], [1.6, 2.8], k2),
        4.0 * np.exp(-1.0 / 1.2), rtol=1e-12)


def test_eq_kernel_rejects_dim_mismatch():
    with pytest.raises(ValueError):
        eq_kernel([0.0], [0.0, 1.0], KERNEL)


def test_kernel_params_validation():
    with pytest.raises(ValueError):
        KernelParams(0.0, 1.0)
    with pytest.raises(ValueError):
        KernelParams(1.0, -2.0)


def test_sample_is_deterministic_per_seed():
    a = FeatureBasis.sample(16, 2, KERNEL, seed=5)
    b = FeatureBasis.sample(16, 2, KERNEL, seed=5)
    c = FeatureBasis.sample(16, 2, KERNEL, seed=6)
    assert (a.frequencies == b.frequencies).all()
    assert (a.phases == b.phases).all()
    assert (a.frequencies != c.frequencies).any()


def test_feature_draws_do_not_depend_on_count():
    """Feature m comes from spawned child stream m, so growing the basis
    keeps every earlier feature bit-identical."""
    small = FeatureBasis.sample(4, 3, KERNEL, seed=42)
    large = FeatureBasis.sample(64, 3, KERNEL, seed=42)
    assert (large.frequencies[:4] == small.frequencies).all()
    assert (large.phases[:4] == small.phases).all()


@pytest.mark.parametrize("seed, dim", [(0, 1), (31, 3), (2**31 - 1, 2)])
def test_sample_draws_the_uniform_phase_bit_for_bit(seed, dim):
    # the documented draw: per spawned child stream, standard_normal(dim)
    # then uniform(0, 2 pi); the basis holds exactly those bits
    basis = FeatureBasis.sample(500, dim, KERNEL, seed=seed)
    for m, child in enumerate(np.random.SeedSequence(seed).spawn(500)):
        rng = np.random.Generator(np.random.PCG64(child))
        assert basis.frequencies[m].tobytes() == rng.standard_normal(dim).tobytes()
        assert basis.phases[m].tobytes() == np.float64(rng.uniform(0.0, 2.0 * np.pi)).tobytes()


@pytest.mark.parametrize("seed", [0, 12345, 2**32 - 1, 2**32 + 7, 2**62 + 99, 3**60, 2**96 + 3])
@pytest.mark.parametrize("count", [1, 7, 300])
def test_sample_matches_numpy_spawned_streams(seed, count):
    # the spawned children's streams are seeded without building them: each
    # feature still holds the bits of its own SeedSequence(seed).spawn child,
    # for seeds of one, two and three or more 32-bit words
    basis = FeatureBasis.sample(count, 3, KERNEL, seed=seed)
    freq, phases = np.empty((count, 3)), np.empty(count)
    for m, child in enumerate(np.random.SeedSequence(seed).spawn(count)):
        rng = np.random.Generator(np.random.PCG64(child))
        freq[m], phases[m] = rng.standard_normal(3), 2.0 * np.pi * rng.random()
    assert basis.frequencies.tobytes() == freq.tobytes()
    assert basis.phases.tobytes() == phases.tobytes()


def test_sample_refuses_a_negative_seed():
    with pytest.raises(ValueError, match="non-negative"):
        FeatureBasis.sample(3, 1, KERNEL, seed=-1)


def test_single_feature_amplitude():
    basis = FeatureBasis.sample(1, 1, KERNEL, seed=0)
    assert basis.amplitude == np.sqrt(2.0 * 4.0 / 1.0)
    x = np.array([0.7])
    expected = basis.amplitude * np.cos(
        basis.frequencies[0, 0] * 0.7 / KERNEL.lengthscale + basis.phases[0])
    np.testing.assert_allclose(feature_vector(basis, x)[0], expected, rtol=1e-12)


def test_feature_second_moment_matches_variance():
    # E[phi_m(x)^2] summed over m equals the kernel diagonal; with M=2000
    # the empirical mean of cos^2 lands within 3 standard errors of 1/2
    basis = FeatureBasis.sample(2000, 1, KERNEL, seed=9)
    v = feature_vector(basis, [0.41])
    cos_sq = v**2 / basis.amplitude**2
    np.testing.assert_allclose(cos_sq.mean(), 0.5, atol=3.0 / np.sqrt(2000))


def test_eval_basis_matches_pointwise_formula():
    grid = Grid.regular(((0.0, 2.0), (1.0, 3.0)), (5, 4))
    basis = FeatureBasis.sample(7, 2, KERNEL, seed=21)
    mat = eval_basis(basis, grid)
    assert mat.shape == (7, grid.num_cells)
    centers = grid.centers()
    for g in (0, 9, 19):
        for m in (0, 3, 6):
            expected = basis.amplitude * np.cos(
                np.dot(basis.frequencies[m], centers[g]) / KERNEL.lengthscale
                + basis.phases[m])
            np.testing.assert_allclose(mat[m, g], expected, rtol=1e-12)


def test_eval_basis_rejects_dim_mismatch():
    grid = Grid.regular(((0.0, 1.0),), (10,))
    basis = FeatureBasis.sample(3, 2, KERNEL, seed=1)
    with pytest.raises(ValueError):
        eval_basis(basis, grid)


def test_kernel_approx_single_feature_expansion():
    basis = FeatureBasis.sample(1, 1, KERNEL, seed=4)
    x, y = 0.2, 1.1
    w = basis.frequencies[0, 0]
    b = basis.phases[0]
    expected = (basis.amplitude**2
                * np.cos(w * x / KERNEL.lengthscale + b)
                * np.cos(w * y / KERNEL.lengthscale + b))
    np.testing.assert_allclose(kernel_approx(basis, [x], [y]), expected, rtol=1e-12)


def test_kernel_approx_converges_to_exact():
    """Across 50 independent bases the mean truncated kernel sits within
    3 standard errors of the exact value."""
    x, y = np.array([0.3, 0.4]), np.array([1.0, -0.2])
    vals = np.array([
        kernel_approx(FeatureBasis.sample(256, 2, KERNEL, seed=100 + s), x, y)
        for s in range(50)
    ])
    exact = eq_kernel(x, y, KERNEL)
    se = vals.std(ddof=1) / np.sqrt(50)
    assert abs(vals.mean() - exact) < 3 * se


def test_forcing_from_weights_matches_double_loop():
    grid = Grid.regular(((0.0, 1.0),), (20,))
    basis = FeatureBasis.sample(5, 1, KERNEL, seed=8)
    rng = np.random.default_rng(15)
    q = rng.standard_normal(5)
    f = forcing_from_weights(basis, q, grid)
    centers = grid.centers()
    for g in range(20):
        acc = 0.0
        for m in range(5):
            acc += q[m] * basis.amplitude * np.cos(
                basis.frequencies[m, 0] * centers[g, 0] / KERNEL.lengthscale
                + basis.phases[m])
        np.testing.assert_allclose(f.values_flat[g], acc, rtol=1e-12)


def test_forcing_from_weights_holds_no_feature_by_cell_array():
    # 1000 features on 2000 cells: a dense (M, G) feature matrix takes 16 MB,
    # the per-axis tables of 45-cell runs well under a quarter of it
    grid = Grid.regular(((0.0, 10.0),), (2000,))
    basis = FeatureBasis.sample(1000, 1, KERNEL, seed=4)
    q = np.random.default_rng(5).standard_normal(basis.size)
    tracemalloc.start()
    try:
        forcing_from_weights(basis, q, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < basis.size * grid.num_cells * 8 / 4


def test_forcing_from_weights_holds_no_spatial_table_on_a_pde_grid():
    # 1000 features on a 50x30x30 grid: the (900, M) cos b and sin b tables
    # alone take 14.4 MB; the synthesis joins a few rows of y at a time
    grid = Grid.regular(((0.0, 10.0), (0.0, 10.0), (0.0, 10.0)), (50, 30, 30))
    basis = FeatureBasis.sample(1000, 3, KernelParams(2.0, 2.0), seed=4)
    q = np.random.default_rng(5).standard_normal(basis.size)
    tracemalloc.start()
    try:
        forcing_from_weights(basis, q, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20


def test_blockwise_forcing_matches_the_dense_basis():
    # 10 rows of y at 4 per block: two full blocks and a short one
    grid = Grid.regular(((0.0, 2.0), (0.0, 3.0), (-1.0, 1.0)), (6, 10, 30))
    basis = FeatureBasis.sample(1000, 3, KERNEL, seed=21)
    rows = features._JOIN_BYTES // (16 * basis.size * grid.dims[2])
    assert rows < grid.dims[1] and grid.dims[1] % rows
    q = np.random.default_rng(22).standard_normal(basis.size)
    expected = q @ eval_basis(basis, grid)
    np.testing.assert_allclose(forcing_from_weights(basis, q, grid).values_flat, expected,
                               rtol=1e-12, atol=1e-12 * np.abs(expected).max())


def test_joined_tables_equal_the_elementwise_join_bit_for_bit():
    # 25 rows of y at M = 100 on 30 x cells: broadcast runs of 10, 10 and 5
    # rows, each entry one product pair and one sum as an elementwise join
    grid = Grid.regular(((0.0, 2.0), (0.0, 3.0), (-1.0, 1.0)), (4, 25, 30))
    basis = FeatureBasis.sample(100, 3, KERNEL, seed=21)
    cos_a, sin_a, blocks = features._axis_tables(basis, grid)
    scaled = basis.frequencies.T / basis.kernel.lengthscale
    y, x = (np.outer(grid.axis_centers(k), scaled[k]) for k in (1, 2))
    cy, sy, cx, sx = np.cos(y)[:, None], np.sin(y)[:, None], np.cos(x), np.sin(x)
    for joined, reference in zip(map(np.concatenate, zip(*blocks)),
                                 (cy * cx - sy * sx, sy * cx + cy * sx)):
        assert np.array_equal(joined, reference.reshape(-1, basis.size))


def test_forcing_on_a_line_is_the_whole_table_product_bit_for_bit():
    # a 1-D grid's tables are one block: the synthesis is the single product
    grid = Grid.regular(((0.0, 10.0),), (2000,))
    basis = FeatureBasis.sample(1000, 1, KERNEL, seed=4)
    q = np.random.default_rng(5).standard_normal(basis.size)
    cos_a, sin_a, [(cos_b, sin_b)] = features._axis_tables(basis, grid)
    whole = (cos_a * (basis.amplitude * q)) @ cos_b.T
    whole -= (sin_a * (basis.amplitude * q)) @ sin_b.T
    f = forcing_from_weights(basis, q, grid).values_flat
    assert np.array_equal(f, whole.reshape(-1)[:grid.num_cells])


def test_forcing_from_weights_validates_length():
    grid = Grid.regular(((0.0, 1.0),), (10,))
    basis = FeatureBasis.sample(5, 1, KERNEL, seed=8)
    with pytest.raises(ValueError):
        forcing_from_weights(basis, np.zeros(4), grid)


def test_prior_forcing_pointwise_variance():
    # var f(x) = sum_m phi_m(x)^2, estimated over 1000 prior draws
    grid = Grid.regular(((0.0, 4.0),), (30,))
    basis = FeatureBasis.sample(40, 1, KERNEL, seed=2)
    draws = np.stack([
        sample_prior_forcing(basis, grid, seed=5000 + r)[1].values_flat
        for r in range(1000)
    ])
    mat = eval_basis(basis, grid)
    expected = (mat**2).sum(axis=0)
    np.testing.assert_allclose(draws.var(axis=0, ddof=1), expected, rtol=0.15)


def test_prior_forcing_covariance_tracks_kernel():
    """Empirical covariance between two fixed points approaches the
    truncated kernel within 3 standard errors at 2000 draws."""
    grid = Grid.regular(((0.0, 4.0),), (16,))
    basis = FeatureBasis.sample(64, 1, KERNEL, seed=12)
    i, j = 3, 11
    pairs = np.stack([
        sample_prior_forcing(basis, grid, seed=9000 + r)[1].values_flat[[i, j]]
        for r in range(2000)
    ])
    cov = np.cov(pairs.T, ddof=1)[0, 1]
    xi = grid.centers()[i]
    xj = grid.centers()[j]
    truncated = kernel_approx(basis, xi, xj)
    prods = pairs[:, 0] * pairs[:, 1]
    se = prods.std(ddof=1) / np.sqrt(2000)
    assert abs(cov - truncated) < 3 * se


def test_prior_forcing_seed_reproducible():
    grid = Grid.regular(((0.0, 1.0),), (10,))
    basis = FeatureBasis.sample(6, 1, KERNEL, seed=3)
    q1, f1 = sample_prior_forcing(basis, grid, seed=77)
    q2, f2 = sample_prior_forcing(basis, grid, seed=77)
    assert (q1 == q2).all()
    assert (f1.values == f2.values).all()


def test_basis_validation():
    with pytest.raises(ValueError):
        FeatureBasis(np.zeros((2, 1)), np.array([0.0, 7.0]), KERNEL)  # phase range
    with pytest.raises(ValueError):
        FeatureBasis(np.zeros(3), np.zeros(3), KERNEL)  # frequencies not 2-d
    basis = FeatureBasis.sample(2, 1, KERNEL, seed=0)
    with pytest.raises(AttributeError):
        basis.phases = np.zeros(2)
