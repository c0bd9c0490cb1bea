import json
import tracemalloc
import warnings

import numpy as np
import pytest

from adjointgp import (
    AdjointBank,
    FeatureBasis,
    Field,
    Grid,
    GridMismatchError,
    KernelParams,
    MisspecificationWarning,
    NumericalError,
    ObservationSet,
    OdeParams,
    OdeSystem,
    PdeParams,
    PdeSystem,
    PIPELINE_STAGES,
    PosteriorQ,
    assemble_phi,
    eval_basis,
    forcing_from_weights,
    grid_scan,
    inner_product,
    ml_estimate,
    nll_score,
    posterior_forcing,
    posterior_from_json,
    posterior_q,
    posterior_to_json,
    predictive_mse,
    predictive_nll,
    run_pipeline,
    sensor_field,
    window_indicator,
)
from oracles import forward_predictive_readings, kernel_approx

KERNEL = KernelParams(lengthscale=1.0, variance=4.0)
PARAMS = OdeParams(p0=5.0, p1=1.0, p2=0.5, T=10.0)


def _grid(cells=400, T=10.0):
    return Grid.regular(((0.0, T),), (cells,))


def _windows(grid, count):
    lo, hi = grid.bounds(0)
    step = (hi - lo) / count
    return [window_indicator(grid, [lo + i * step], [lo + (i + 1) * step])
            for i in range(count)]


# ---------------------------------------------------------------------------
# observation container


def test_observation_set_validation():
    grid = _grid(50)
    w = _windows(grid, 2)
    ObservationSet(tuple(w), np.zeros(2), 0.1)
    with pytest.raises(ValueError):
        ObservationSet((), np.zeros(0), 0.1)
    with pytest.raises(ValueError):
        ObservationSet(tuple(w), np.zeros(3), 0.1)
    with pytest.raises(ValueError):
        ObservationSet(tuple(w), np.zeros(2), 0.0)
    other = _windows(_grid(60), 1)
    with pytest.raises(GridMismatchError):
        ObservationSet(tuple(w[:1] + other), np.zeros(2), 0.1)


# ---------------------------------------------------------------------------
# design matrix


def test_phi_single_entry_matches_inner_product():
    grid = _grid(300)
    system = OdeSystem(PARAMS, grid)
    basis = FeatureBasis.sample(1, 1, KERNEL, seed=17)
    w = window_indicator(grid, [2.0], [2.5])
    v = Field(grid, system.adjoint_bank([w]).rows[0])
    phi = assemble_phi(AdjointBank(v.values_flat[None], grid), basis)
    feature_field = forcing_from_weights(basis, [1.0], grid)
    np.testing.assert_allclose(phi[0, 0],
                               inner_product(v, feature_field), rtol=1e-12)


def test_phi_zero_adjoint_gives_zero_row():
    grid = _grid(100)
    basis = FeatureBasis.sample(4, 1, KERNEL, seed=2)
    phi = assemble_phi(AdjointBank(np.zeros((1, grid.num_cells)), grid), basis)
    np.testing.assert_array_equal(phi, np.zeros((1, 4)))


def test_phi_is_a_read_only_array():
    grid = _grid(100)
    basis = FeatureBasis.sample(4, 1, KERNEL, seed=2)
    rows = np.random.default_rng(3).standard_normal((2, grid.num_cells))
    phi = assemble_phi(AdjointBank(rows, grid), basis)
    assert type(phi) is np.ndarray and phi.shape == (2, 4)
    with pytest.raises(ValueError):
        phi[0, 0] = 1.0


def test_phi_refuses_overflowing_bank():
    # rows of 1e308 overflow the projection to inf: a numerical failure,
    # not a bad argument
    grid = _grid(100)
    basis = FeatureBasis.sample(4, 1, KERNEL, seed=2)
    bank = AdjointBank(np.full((2, grid.num_cells), 1e308), grid)
    with pytest.raises(NumericalError, match="non-finite"):
        assemble_phi(bank, basis)


def test_phi_spanning_cell_blocks_matches_dense_projection():
    # 300 features x 30000 cells is past the 2^23-entry block cap, so the
    # basis is evaluated in two cell blocks and their projections summed
    grid = _grid(30000)
    basis = FeatureBasis.sample(300, 1, KERNEL, seed=3)
    assert basis.size * grid.num_cells > 1 << 23
    rng = np.random.default_rng(4)
    rows = rng.standard_normal((3, grid.num_cells))
    phi = assemble_phi(AdjointBank(rows, grid), basis)
    dense = rows @ eval_basis(basis, grid).T * grid.cell_volume
    np.testing.assert_allclose(phi, dense, rtol=1e-12)


def test_factored_tables_match_dense_basis_across_time_slabs():
    # 300 features x 28800 cells is past the 2^23-entry cap of the 1-D
    # blocks; the (t, y, x) grid is covered one time cell at a time from
    # the per-axis tables, and each result is checked against the dense
    # direct cosine.  Entries that cancel to near zero keep the rounding of their
    # terms, so the bar is relative to the largest entry of each result.
    grid = Grid.regular(((0.0, 6.0), (0.0, 10.0), (0.0, 8.0)), (24, 30, 40))
    basis = FeatureBasis.sample(300, 3, KernelParams(lengthscale=2.0, variance=2.0), seed=5)
    assert basis.size * grid.num_cells > 1 << 23
    dense = eval_basis(basis, grid)
    rng = np.random.default_rng(6)

    def close(actual, reference):
        np.testing.assert_allclose(actual, reference, rtol=1e-12,
                                   atol=1e-12 * np.abs(reference).max())

    q = rng.standard_normal(basis.size)
    close(forcing_from_weights(basis, q, grid).values_flat, q @ dense)
    rows = rng.standard_normal((3, grid.num_cells))
    close(assemble_phi(AdjointBank(rows, grid), basis), rows @ dense.T * grid.cell_volume)
    design = rng.standard_normal((20, basis.size))
    post = posterior_q(design, rng.standard_normal(20), 0.5)
    _, var = posterior_forcing(post, basis, grid)
    spread = post.root.T @ dense
    close(var.values_flat, np.einsum("ij,ij->j", spread, spread))


def test_one_dimensional_basis_keeps_the_direct_cosine():
    # no spatial axis to factor: Phi and the forcing come from the dense
    # direct cosine bit for bit, which keeps ODE outputs unchanged
    grid = _grid(500)
    basis = FeatureBasis.sample(40, 1, KERNEL, seed=8)
    dense = eval_basis(basis, grid)
    rng = np.random.default_rng(9)
    q = rng.standard_normal(basis.size)
    assert np.array_equal(forcing_from_weights(basis, q, grid).values_flat, q @ dense)
    rows = rng.standard_normal((4, grid.num_cells))
    assert np.array_equal(assemble_phi(AdjointBank(rows, grid), basis),
                          rows @ dense.T * grid.cell_volume)


def test_live_cells_project_like_the_dense_basis():
    # windows ending at different time cells and one zero row: each time
    # cell block multiplies only the rows still live there, and the cells
    # after the last window ends are skipped
    grid = Grid.regular(((0.0, 10.0), (0.0, 10.0), (0.0, 10.0)), (20, 12, 12))
    system = PdeSystem(PdeParams((0.4, 0.4), 0.01, ((0.0, 10.0), (0.0, 10.0)), 10.0), grid)
    windows = [sensor_field(grid, (2.0, 3.0), (4.0, 5.0), 1.0, 3.0 + 2.0 * k)
               for k in range(3)] + [Field.zeros(grid)]
    bank = system.adjoint_bank(windows)
    assert bank.live.tolist() == [6, 10, 14, 0]
    basis = FeatureBasis.sample(30, 3, KernelParams(lengthscale=2.0, variance=2.0), seed=11)
    dense = eval_basis(basis, grid)
    phi = assemble_phi(bank, basis)
    reference = bank.rows @ dense.T * grid.cell_volume
    assert np.abs(phi - reference).max() <= 1e-13 * np.abs(reference).max()
    assert not phi[-1].any()
    post = posterior_q(phi, np.random.default_rng(12).standard_normal(len(windows)), 0.5)
    _, var = posterior_forcing(post, basis, grid)
    dense_var = np.einsum("mg,mk,kg->g", dense, post.cov, dense)
    np.testing.assert_allclose(var.values_flat, dense_var, rtol=1e-12,
                               atol=1e-12 * dense_var.max())


def test_projection_and_push_back_hold_no_full_feature_matrix():
    # 100 features x 45000 cells make a 36 MB feature matrix; on a
    # (time, space) grid the projection and the pointwise variance build
    # one time cell of it at a time
    grid = Grid.regular(((0.0, 10.0), (0.0, 10.0), (0.0, 10.0)), (50, 30, 30))
    basis = FeatureBasis.sample(100, 3, KernelParams(lengthscale=2.0, variance=2.0), seed=13)
    rng = np.random.default_rng(14)
    bank = AdjointBank(rng.standard_normal((10, grid.num_cells)), grid)
    post = posterior_q(rng.standard_normal((10, basis.size)), rng.standard_normal(10), 0.5)
    tracemalloc.start()
    try:
        assemble_phi(bank, basis)
        posterior_forcing(post, basis, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < basis.size * grid.num_cells * 8 / 4


def test_phi_grid_assertion():
    grid = _grid(100)
    basis = FeatureBasis.sample(3, 1, KERNEL, seed=1)
    bank = AdjointBank(np.zeros((1, grid.num_cells)), grid)
    with pytest.raises(GridMismatchError):
        AdjointBank(np.zeros((1, 200)), grid)
    with pytest.raises(GridMismatchError):
        assemble_phi(bank, basis, grid=_grid(200))
    # same cell count, other spacing: the bank's own grid is compared
    with pytest.raises(GridMismatchError):
        assemble_phi(bank, basis, grid=Grid.regular(((0.0, 5.0),), (100,)))
    basis2d = FeatureBasis.sample(3, 2, KERNEL, seed=1)
    with pytest.raises(GridMismatchError):
        assemble_phi(bank, basis2d)


def test_phi_grid_assertion_tells_apart_grids_of_one_cell_count():
    # 50x30x40 cells, the same box split 50x60x20 and the spatial axes
    # swapped all have 60000 cells; a bank solved on the first is refused
    # on the other two
    solved = Grid.regular(((0.0, 5.0), (0.0, 6.0), (0.0, 8.0)), (50, 30, 40))
    basis = FeatureBasis.sample(3, 3, KERNEL, seed=1)
    bank = AdjointBank(np.zeros((2, solved.num_cells)), solved)
    for other in (Grid.regular(((0.0, 5.0), (0.0, 6.0), (0.0, 8.0)), (50, 60, 20)),
                  Grid.regular(((0.0, 5.0), (0.0, 8.0), (0.0, 6.0)), (50, 40, 30))):
        assert other.num_cells == solved.num_cells
        with pytest.raises(GridMismatchError):
            assemble_phi(bank, basis, grid=other)
    assert assemble_phi(bank, basis, grid=solved).shape == (2, 3)


# ---------------------------------------------------------------------------
# maximum likelihood


def test_ml_identity_design_recovers_readings():
    z = np.array([0.3, -1.2, 0.7])
    qhat, cov = ml_estimate(np.eye(3), z, sigma=0.5)
    np.testing.assert_allclose(qhat, z, rtol=1e-12)
    np.testing.assert_allclose(cov, 0.25 * np.eye(3), rtol=1e-12)


def test_ml_noiseless_recovery():
    rng = np.random.default_rng(4)
    design = rng.standard_normal((12, 5))
    qstar = rng.standard_normal(5)
    qhat, _ = ml_estimate(design, design @ qstar, sigma=1.0)
    np.testing.assert_allclose(qhat, qstar, rtol=0, atol=1e-8)


def test_ml_rejects_underdetermined_and_degenerate():
    rng = np.random.default_rng(5)
    with pytest.raises(NumericalError, match="posterior_q"):
        ml_estimate(rng.standard_normal((3, 5)), np.zeros(3))
    col = rng.standard_normal((6, 1))
    dup = np.hstack([col, col])  # rank 1
    with pytest.raises(NumericalError, match="ill-conditioned|rank"):
        ml_estimate(dup, np.zeros(6))


def test_ml_sigma_estimated_from_residuals():
    rng = np.random.default_rng(6)
    design = rng.standard_normal((40, 3))
    qstar = rng.standard_normal(3)
    noise = 0.3 * rng.standard_normal(40)
    z = design @ qstar + noise
    qhat, cov = ml_estimate(design, z)
    resid = z - design @ qhat
    sigma2 = resid @ resid / (40 - 3)
    u, s, vt = np.linalg.svd(design, full_matrices=False)
    expected = sigma2 * (vt.T * s**-2.0) @ vt
    np.testing.assert_allclose(cov, expected, rtol=1e-10)


def test_ml_ridge_matches_regularized_normal_equations():
    rng = np.random.default_rng(8)
    design = rng.standard_normal((15, 4))
    z = rng.standard_normal(15)
    gram = design.T @ design + 0.3 * np.eye(4)
    qhat, cov = ml_estimate(design, z, sigma=0.5, ridge=0.3)
    np.testing.assert_allclose(qhat, np.linalg.solve(gram, design.T @ z), rtol=1e-12)
    np.testing.assert_allclose(cov, 0.25 * np.linalg.inv(gram), rtol=1e-12)


def test_ml_large_ridge_shrinks_toward_zero():
    rng = np.random.default_rng(7)
    design = rng.standard_normal((10, 2))
    z = rng.standard_normal(10)
    qhat, _ = ml_estimate(design, z, sigma=1.0, ridge=1e9)
    assert np.abs(qhat).max() < 1e-6


# ---------------------------------------------------------------------------
# conjugate posterior


def test_posterior_without_evidence_is_the_prior():
    post = posterior_q(np.zeros((4, 3)), np.zeros(4), sigma=0.5)
    np.testing.assert_allclose(post.mean, np.zeros(3), atol=1e-14)
    np.testing.assert_allclose(post.cov, np.eye(3), atol=1e-12)


def test_posterior_matches_brute_force_formula():
    rng = np.random.default_rng(9)
    design = rng.standard_normal((3, 2))
    z = rng.standard_normal(3)
    sigma = 0.7
    post = posterior_q(design, z, sigma=sigma)
    prec = design.T @ design / sigma**2 + np.eye(2)
    cov = np.linalg.inv(prec)
    mean = cov @ (design.T @ z / sigma**2)
    np.testing.assert_allclose(post.cov, cov, rtol=1e-10)
    np.testing.assert_allclose(post.mean, mean, rtol=1e-10)


def test_posterior_never_exceeds_prior_covariance():
    rng = np.random.default_rng(11)
    design = rng.standard_normal((8, 4))
    post = posterior_q(design, rng.standard_normal(8), sigma=0.2)
    gap_eigs = np.linalg.eigvalsh(np.eye(4) - post.cov)
    assert gap_eigs.min() > -1e-8


def test_extra_observation_tightens_every_marginal():
    rng = np.random.default_rng(12)
    design = rng.standard_normal((6, 3))
    z = rng.standard_normal(7)
    small = posterior_q(design, z[:6], sigma=0.3)
    grown = posterior_q(np.vstack([design, rng.standard_normal(3)]), z, sigma=0.3)
    assert (np.diag(grown.cov) <= np.diag(small.cov) + 1e-12).all()


def test_posterior_is_permutation_invariant():
    rng = np.random.default_rng(13)
    design = rng.standard_normal((9, 4))
    z = rng.standard_normal(9)
    perm = rng.permutation(9)
    a = posterior_q(design, z, sigma=0.5)
    b = posterior_q(design[perm], z[perm], sigma=0.5)
    np.testing.assert_allclose(a.mean, b.mean, rtol=1e-10)
    np.testing.assert_allclose(a.cov, b.cov, rtol=1e-10)


def test_posterior_rejects_root_of_wrong_shape():
    for root in (np.eye(3), np.ones((2, 3)), np.ones(2)):
        with pytest.raises(ValueError, match="root"):
            PosteriorQ(np.zeros(2), root)


def _count_cholesky(monkeypatch):
    calls = []
    real = np.linalg.cholesky

    def counted(mat, *args, **kwargs):
        calls.append(mat.shape)
        return real(mat, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    return calls


def test_default_prior_posterior_takes_one_cholesky(monkeypatch):
    rng = np.random.default_rng(16)
    design = rng.standard_normal((12, 5))
    calls = _count_cholesky(monkeypatch)
    post = posterior_q(design, rng.standard_normal(12), sigma=0.3)
    posterior_from_json(posterior_to_json(post))
    assert calls == [(5, 5)]


def test_ml_estimate_takes_no_cholesky(monkeypatch):
    rng = np.random.default_rng(17)
    design = rng.standard_normal((12, 5))
    z = rng.standard_normal(12)
    calls = _count_cholesky(monkeypatch)
    for ridge in (0.0, 0.01):
        ml_estimate(design, z, sigma=0.3, ridge=ridge)
    assert calls == []


def test_misspecification_warning_trigger():
    rng = np.random.default_rng(14)
    n = 40
    design = rng.standard_normal((n, 2))
    z = 50.0 + rng.standard_normal(n)  # constant offset no feature explains
    with pytest.warns(MisspecificationWarning, match="increase the feature count"):
        posterior_q(design, z, sigma=0.1)
    # same misfit with M >= n/2 stays silent: the basis size is not the issue
    design_wide = rng.standard_normal((n, 30))
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        posterior_q(design_wide, z, sigma=0.1)
    assert not any(issubclass(w.category, MisspecificationWarning) for w in rec)


def test_posterior_records_its_numerics():
    rng = np.random.default_rng(15)
    design = rng.standard_normal((30, 5))
    z = rng.standard_normal(30)
    post = posterior_q(design, z, sigma=0.5)
    precision = design.T @ design / 0.25 + np.eye(5)
    assert post.numerics["jitter"] == 0.0
    assert post.numerics["logdet_precision"] == pytest.approx(
        np.linalg.slogdet(precision)[1], rel=1e-12)
    assert post.numerics["residual_norm"] == pytest.approx(
        np.linalg.norm(z - design @ post.mean) / 0.5, rel=1e-12)
    # a rank-one design at a huge scale: the precision factors only with
    # jitter, and the posterior says how much
    flat = posterior_q(1e8 * np.ones((6, 3)), np.ones(6), sigma=1e-6)
    assert flat.numerics["jitter"] > 0.0


# ---------------------------------------------------------------------------
# function-space views


def test_prior_only_variance_equals_truncated_kernel_diag():
    grid = _grid(60)
    basis = FeatureBasis.sample(20, 1, KERNEL, seed=15)
    prior_post = PosteriorQ(np.zeros(20), np.eye(20))
    _, var = posterior_forcing(prior_post, basis, grid)
    for g in (0, 30, 59):
        x = grid.centers()[g]
        np.testing.assert_allclose(var.values_flat[g],
                                   kernel_approx(basis, x, x), rtol=1e-8)


def test_posterior_variance_is_nonnegative():
    rng = np.random.default_rng(16)
    grid = _grid(80)
    basis = FeatureBasis.sample(6, 1, KERNEL, seed=16)
    design = rng.standard_normal((10, 6))
    post = posterior_q(design, rng.standard_normal(10), sigma=0.05)
    _, var = posterior_forcing(post, basis, grid)
    assert (var.values_flat >= 0.0).all()


def test_posterior_forcing_dimension_check():
    grid = _grid(50)
    basis = FeatureBasis.sample(6, 1, KERNEL, seed=1)
    post = PosteriorQ(np.zeros(4), np.eye(4))
    with pytest.raises(ValueError):
        posterior_forcing(post, basis, grid)


# ---------------------------------------------------------------------------
# predictive scores


def _delta_posterior(q):
    m = q.size
    return PosteriorQ(q, 1e-10 * np.eye(m))


def _forward_readings(system, basis, q, windows):
    u = system.forward(forcing_from_weights(basis, q, system.grid))
    return np.array([inner_product(w, u) for w in windows])


def _adjoint_phi(system, basis, windows):
    return assemble_phi(system.adjoint_bank(windows), basis)


def test_predictive_mse_on_exact_readings_is_zero():
    grid = _grid(200)
    system = OdeSystem(PARAMS, grid)
    basis = FeatureBasis.sample(4, 1, KERNEL, seed=24)
    qstar = np.random.default_rng(25).standard_normal(4)
    windows = _windows(grid, 6)
    z = _forward_readings(system, basis, qstar, windows)
    mse = predictive_mse(_delta_posterior(qstar), _adjoint_phi(system, basis, windows), z)
    assert mse < 1e-12


def test_predictive_mse_sees_a_known_offset():
    grid = _grid(200)
    system = OdeSystem(PARAMS, grid)
    basis = FeatureBasis.sample(4, 1, KERNEL, seed=24)
    qstar = np.random.default_rng(26).standard_normal(4)
    windows = _windows(grid, 6)
    z = _forward_readings(system, basis, qstar, windows) + 0.2
    mse = predictive_mse(_delta_posterior(qstar), _adjoint_phi(system, basis, windows), z)
    np.testing.assert_allclose(mse, 0.04, rtol=1e-9)


def test_predictive_nll_finite_at_tiny_sigma():
    grid = _grid(100)
    system = OdeSystem(PARAMS, grid)
    basis = FeatureBasis.sample(3, 1, KERNEL, seed=29)
    windows = _windows(grid, 4)
    data = ObservationSet(tuple(windows), np.zeros(4), 1e-12)
    post = PosteriorQ(np.zeros(3), np.eye(3))
    nll = predictive_nll(post, _adjoint_phi(system, basis, windows), data)
    assert np.isfinite(nll)


def test_predictive_scores_reject_mismatched_shapes():
    post = PosteriorQ(np.zeros(3), np.eye(3))
    with pytest.raises(ValueError):
        predictive_mse(post, np.ones((4, 3)), np.zeros(5))
    with pytest.raises(ValueError):
        predictive_mse(post, np.ones((4, 2)), np.zeros(4))


def _ode_case():
    grid = _grid(150)
    windows = _windows(grid, 9)
    return (OdeSystem(PARAMS, grid), FeatureBasis.sample(6, 1, KERNEL, seed=27),
            windows[::3], windows[1::3])


def _pde_case():
    bounds = ((0.0, 10.0), (0.0, 10.0))
    grid = Grid.regular(((0.0, 10.0),) + bounds, (12, 8, 8))
    params = PdeParams(velocity=(0.4, 0.4), diffusivity=0.01, bounds=bounds, T=10.0)
    boxes = [((1.0, 1.0), (4.0, 4.0)), ((6.0, 1.0), (9.0, 4.0)),
             ((1.0, 6.0), (4.0, 9.0)), ((6.0, 6.0), (9.0, 9.0))]
    windows = [sensor_field(grid, lo, hi, t_lo, t_lo + 5.0)
               for lo, hi in boxes for t_lo in (0.0, 5.0)]
    return (PdeSystem(params, grid), FeatureBasis.sample(8, 3, KERNEL, seed=28),
            windows[::2], windows[1::2])


ORACLE_SAMPLES = 400


@pytest.mark.parametrize("case", [_ode_case, _pde_case], ids=["ode", "pde"])
def test_exact_predictive_matches_forward_sampling_oracle(case):
    """The closed-form scores, built from adjoint design rows, agree with
    Monte Carlo over posterior forcing draws pushed through the forward
    solver.  Tolerance: 4 standard errors of the Monte Carlo estimate; for
    the NLL, first-order (delta-method) errors of the sample mean and
    variance, summed over readings so no independence is assumed."""
    system, basis, train, heldout_windows = case()
    rng = np.random.default_rng(30)
    truth = rng.standard_normal(basis.size)
    sigma = 0.05
    z_train = (_forward_readings(system, basis, truth, train)
               + sigma * rng.standard_normal(len(train)))
    post = posterior_q(_adjoint_phi(system, basis, train), z_train, sigma)
    z = (_forward_readings(system, basis, truth, heldout_windows)
         + sigma * rng.standard_normal(len(heldout_windows)))
    heldout = ObservationSet(tuple(heldout_windows), z, sigma)
    phi_h = _adjoint_phi(system, basis, heldout_windows)

    s = ORACLE_SAMPLES
    readings = forward_predictive_readings(post, basis, system, heldout_windows,
                                           samples=s, seed=31)
    per_draw = np.mean((readings - z) ** 2, axis=1)
    mse_tol = 4.0 * per_draw.std(ddof=1) / np.sqrt(s)
    assert abs(predictive_mse(post, phi_h, z) - per_draw.mean()) <= mse_tol

    spread = readings.var(axis=0, ddof=1)
    var = spread + sigma**2
    resid = z - readings.mean(axis=0)
    nll_mc = np.sum(0.5 * np.log(2.0 * np.pi * var) + resid**2 / (2.0 * var))
    nll_tol = 4.0 * np.sum(np.abs(resid / var) * np.sqrt(spread / s)
                           + np.abs(0.5 / var - resid**2 / (2.0 * var**2))
                           * spread * np.sqrt(2.0 / (s - 1)))
    assert abs(predictive_nll(post, phi_h, heldout) - nll_mc) <= nll_tol
    # the posterior spread is not negligible next to the noise, so the
    # variance term is under test, not only the mean
    assert spread.max() > sigma**2


@pytest.mark.filterwarnings("ignore::adjointgp.MisspecificationWarning")
def test_nll_prefers_the_generating_lengthscale():
    """Posterior predictive NLL ranks the true kernel above one 8x too long
    on most draws."""
    grid = _grid(300)
    windows = _windows(grid, 25)
    system = OdeSystem(PARAMS, grid)
    bank = system.adjoint_bank(windows)
    wins = 0
    for s in range(10):
        basis_true = FeatureBasis.sample(12, 1, KERNEL, seed=400 + s)
        rng = np.random.default_rng(500 + s)
        z = (_forward_readings(system, basis_true, rng.standard_normal(12), windows)
             + 0.01 * rng.standard_normal(25))
        data = ObservationSet(tuple(windows), z, 0.01)

        def score(ell):
            return nll_score({"lengthscale": ell, "variance": KERNEL.variance},
                             data, bank, basis_true)

        if score(1.0) < score(8.0):
            wins += 1
    assert wins >= 8


# ---------------------------------------------------------------------------
# lattice scan


def test_grid_scan_single_point():
    results = grid_scan({"a": (2.0, 5.0)}, {"a": 1},
                        score=lambda theta: theta["a"] ** 2)
    assert results == [({"a": 2.0}, 4.0)]


def test_grid_scan_orders_by_score():
    results = grid_scan({"a": (0.0, 2.0), "b": (1.0, 3.0)}, 3,
                        score=lambda theta: (theta["a"] - 1.0) ** 2 + theta["b"])
    assert results[0][0] == {"a": 1.0, "b": 1.0}
    scores = [r[1] for r in results]
    assert scores == sorted(scores)
    assert len(results) == 9


def test_grid_scan_is_deterministic_under_ties():
    flat = grid_scan({"a": (0.0, 1.0)}, {"a": 5}, score=lambda theta: 0.0)
    assert [r[0]["a"] for r in flat] == [0.0, 0.25, 0.5, 0.75, 1.0]


# ---------------------------------------------------------------------------
# pipeline and serialization


def test_pipeline_matches_manual_route():
    grid = _grid(250)
    system = OdeSystem(PARAMS, grid)
    basis = FeatureBasis.sample(8, 1, KERNEL, seed=31)
    windows = _windows(grid, 10)
    rng = np.random.default_rng(32)
    obs = ObservationSet(tuple(windows), rng.standard_normal(10), 0.2)
    result = run_pipeline(system, obs, basis)
    bank = AdjointBank(np.array([system.adjoint_bank([w]).rows[0] for w in windows]), grid)
    phi = assemble_phi(bank, basis)
    post = posterior_q(phi, obs.z, obs.sigma)
    np.testing.assert_array_equal(result.phi, phi)
    np.testing.assert_array_equal(result.posterior.mean, post.mean)
    assert PIPELINE_STAGES == ("adjoint_solves", "phi_assembly", "posterior_solve")
    assert tuple(result.timings) == PIPELINE_STAGES
    assert all(t >= 0.0 for t in result.timings.values())


def test_posterior_json_round_trip():
    rng = np.random.default_rng(35)
    design = rng.standard_normal((7, 3))
    post = posterior_q(design, rng.standard_normal(7), sigma=1.0)
    text = posterior_to_json(post, basis_seed=9, config_hash="abc123")
    clone, meta = posterior_from_json(text)
    np.testing.assert_allclose(clone.mean, post.mean, rtol=0, atol=0)
    np.testing.assert_allclose(clone.cov, post.cov, rtol=1e-12)
    assert meta == {"basis_seed": 9, "config_hash": "abc123"}
    payload = json.loads(text)
    assert set(payload) == {"mean", "chol", "basis_seed", "config_hash"}
    np.testing.assert_array_equal(clone.root, post.root)


def test_posterior_json_holding_a_cholesky_factor_of_the_covariance_loads():
    # files that store the lower Cholesky factor of the covariance under
    # "chol" load to the same covariance, within 1e-14 of its largest
    # entry: that factor is a square root as well
    rng = np.random.default_rng(36)
    design = rng.standard_normal((7, 3))
    post = posterior_q(design, rng.standard_normal(7), sigma=0.5)
    payload = json.loads(posterior_to_json(post, basis_seed=4, config_hash="f00"))
    payload["chol"] = np.linalg.cholesky(post.cov).tolist()
    clone, meta = posterior_from_json(json.dumps(payload))
    np.testing.assert_allclose(clone.cov, post.cov, rtol=1e-14,
                               atol=1e-14 * np.abs(post.cov).max())
    np.testing.assert_array_equal(clone.mean, post.mean)
    assert meta == {"basis_seed": 4, "config_hash": "f00"}


def test_posterior_json_with_prior_keys_loads():
    # files written while posterior.json still stored the N(0, I) prior
    # load to the same posterior; the prior keys are ignored
    rng = np.random.default_rng(37)
    post = posterior_q(rng.standard_normal((6, 3)), rng.standard_normal(6), sigma=0.5)
    payload = json.loads(posterior_to_json(post, basis_seed=5, config_hash="0ff"))
    payload.update(prior_mean=[0.0] * 3, prior_cov=np.eye(3).tolist())
    clone, meta = posterior_from_json(json.dumps(payload, indent=2, sort_keys=True))
    np.testing.assert_array_equal(clone.mean, post.mean)
    np.testing.assert_array_equal(clone.root, post.root)
    assert meta == {"basis_seed": 5, "config_hash": "0ff"}
