import tracemalloc
import warnings

import numpy as np
import pytest

from adjointgp import (
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
    forcing_from_weights,
    grid_scan,
    inner_product,
    nll_score,
    posterior_forcing,
    posterior_q,
    predictive_mse,
    predictive_nll,
    run_pipeline,
    Window,
    window_indicator,
)
from adjointgp.config import parse_config
from adjointgp.experiments import build_heldout, build_windows, make_grid, make_kernel, make_system
from adjointgp.features import _JOIN_BYTES
from adjointgp import inference
from adjointgp.inference import SIGMA_MIN
from adjointgp.shift import ShiftParams, ShiftSystem
from oracles import (eval_basis, exact_gram, forward_predictive_readings, gp_predictive_var,
                     kernel_approx, random_smooth_field, row_bank)

PDE_INFER_TEXT = """
[system]
kind = pde
velocity_x = 0.4
velocity_y = 0.4
diffusivity = 0.01
x_min = 0.0
x_max = 10.0
y_min = 0.0
y_max = 10.0
T = 10.0

[grid]
cells_t = 50
cells_y = 30
cells_x = 30

[kernel]
lengthscale = 2.0
variance = 2.0

[features]
count = 100

[sensors]
rule = grid
count = 25
time_windows = 4
heldout_count = 9

[noise]
sigma = 0.05
"""

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
    for sigma in (-1e-9, np.nan):
        with pytest.raises(ValueError, match="sigma"):
            ObservationSet(tuple(w), np.zeros(2), sigma)
    assert ObservationSet(tuple(w), np.zeros(2), 0.0).sigma == SIGMA_MIN
    other = _windows(_grid(60), 1)
    with pytest.raises(GridMismatchError):
        ObservationSet(tuple(w[:1] + other), np.zeros(2), 0.1)


def test_sigma_below_the_floor_is_fitted_and_scored_at_the_floor():
    grid = _grid(200)
    system = OdeSystem(PARAMS, grid)
    basis = FeatureBasis.sample(6, 1, KERNEL, seed=3)
    windows = tuple(_windows(grid, 8))
    z = np.linspace(-1.0, 1.0, 8)
    tiny = ObservationSet(windows, z, 1e-9)
    assert tiny.sigma == SIGMA_MIN
    got = run_pipeline(system, tiny, basis)
    floor = run_pipeline(system, ObservationSet(windows, z, SIGMA_MIN), basis)
    np.testing.assert_array_equal(got.posterior.mean, floor.posterior.mean)
    np.testing.assert_array_equal(got.posterior.root, floor.posterior.root)
    # the posterior the pipeline fits is the one the score rebuilds
    theta = {"lengthscale": KERNEL.lengthscale, "variance": KERNEL.variance}
    score = nll_score(theta, tiny, system.adjoint_march(windows), basis)
    assert score == pytest.approx(predictive_nll(got.posterior, got.phi, tiny), rel=1e-12)


# ---------------------------------------------------------------------------
# design matrix


def test_phi_single_entry_matches_inner_product():
    grid = _grid(300)
    system = OdeSystem(PARAMS, grid)
    basis = FeatureBasis.sample(1, 1, KERNEL, seed=17)
    w = window_indicator(grid, [2.0], [2.5])
    v = Field(grid, system.adjoint_march([w]).rows[0])
    phi = assemble_phi(row_bank(v.values_flat[None], grid), basis)
    feature_field = forcing_from_weights(basis, [1.0], grid)
    np.testing.assert_allclose(phi[0, 0],
                               inner_product(v, feature_field), rtol=1e-12)


def test_phi_zero_adjoint_gives_zero_row():
    grid = _grid(100)
    basis = FeatureBasis.sample(4, 1, KERNEL, seed=2)
    phi = assemble_phi(row_bank(np.zeros((1, grid.num_cells)), grid), basis)
    np.testing.assert_array_equal(phi, np.zeros((1, 4)))


def test_phi_is_a_read_only_array():
    grid = _grid(100)
    basis = FeatureBasis.sample(4, 1, KERNEL, seed=2)
    rows = np.random.default_rng(3).standard_normal((2, grid.num_cells))
    phi = assemble_phi(row_bank(rows, grid), basis)
    assert type(phi) is np.ndarray and phi.shape == (2, 4)
    with pytest.raises(ValueError):
        phi[0, 0] = 1.0


def test_phi_refuses_overflowing_bank():
    # rows of 1e308 overflow the projection to inf: a numerical failure,
    # not a bad argument
    grid = _grid(100)
    basis = FeatureBasis.sample(4, 1, KERNEL, seed=2)
    bank = row_bank(np.full((2, grid.num_cells), 1e308), grid)
    with pytest.raises(NumericalError, match="non-finite"):
        assemble_phi(bank, basis)


def test_phi_spanning_cell_blocks_matches_dense_projection():
    # 30000 cells are 173 runs of 174 cells, the last cut short at 72: Phi
    # sums one block per run and matches the dense projection to rounding
    grid = _grid(30000)
    basis = FeatureBasis.sample(300, 1, KERNEL, seed=3)
    rng = np.random.default_rng(4)
    rows = rng.standard_normal((3, grid.num_cells))
    phi = assemble_phi(row_bank(rows, grid), basis)
    dense = rows @ eval_basis(basis, grid).T * grid.cell_volume
    np.testing.assert_allclose(phi, dense, rtol=1e-12, atol=1e-12 * np.abs(dense).max())


def test_factored_tables_match_dense_basis_across_time_slabs():
    # 300 features x 28800 cells: the (t, y, x) grid is covered one time
    # cell at a time from the per-axis tables, and each result is checked
    # against the dense direct cosine.  Entries that cancel to near zero
    # keep the rounding of their terms, so the bar is relative to the
    # largest entry of each result.
    grid = Grid.regular(((0.0, 6.0), (0.0, 10.0), (0.0, 8.0)), (24, 30, 40))
    basis = FeatureBasis.sample(300, 3, KernelParams(lengthscale=2.0, variance=2.0), seed=5)
    dense = eval_basis(basis, grid)
    rng = np.random.default_rng(6)

    def close(actual, reference):
        np.testing.assert_allclose(actual, reference, rtol=1e-12,
                                   atol=1e-12 * np.abs(reference).max())

    q = rng.standard_normal(basis.size)
    close(forcing_from_weights(basis, q, grid).values_flat, q @ dense)
    rows = rng.standard_normal((3, grid.num_cells))
    close(assemble_phi(row_bank(rows, grid), basis), rows @ dense.T * grid.cell_volume)
    design = rng.standard_normal((20, basis.size))
    post = posterior_q(design, rng.standard_normal(20), 0.5)
    _, var = posterior_forcing(post, basis, grid)
    spread = post.root.T @ dense
    close(var.values_flat, np.einsum("ij,ij->j", spread, spread))


@pytest.mark.parametrize("grid", [_grid(500), Grid.regular(((-3.7, 6.3),), (2003,))],
                         ids=["500-cells", "2003-cells-shifted-origin"])
def test_one_dimensional_basis_matches_the_dense_cosine(grid):
    # a 1-D grid is split into runs of ceil(sqrt(G)) cells, a prime count
    # cuts the last run short and the origin moves every argument; Phi, the
    # forcing and both posterior fields agree with the direct cosine of
    # eval_basis to rounding, relative to the largest entry of each result
    basis = FeatureBasis.sample(40, 1, KERNEL, seed=8)
    dense = eval_basis(basis, grid)
    rng = np.random.default_rng(9)

    def close(actual, reference):
        np.testing.assert_allclose(actual, reference, rtol=1e-12,
                                   atol=1e-12 * np.abs(reference).max())

    q = rng.standard_normal(basis.size)
    close(forcing_from_weights(basis, q, grid).values_flat, q @ dense)
    rows = rng.standard_normal((4, grid.num_cells))
    close(assemble_phi(row_bank(rows, grid), basis), rows @ dense.T * grid.cell_volume)
    design = rng.standard_normal((20, basis.size))
    post = posterior_q(design, rng.standard_normal(20), 0.5)
    mean, var = posterior_forcing(post, basis, grid)
    close(mean.values_flat, post.mean @ dense)
    spread = post.root.T @ dense
    close(var.values_flat, np.einsum("ij,ij->j", spread, spread))


def test_wide_bank_is_projected_in_batches_of_pieces():
    # 600 shift windows, every one its own base, against 1000 features: the
    # running sums of one piece already pass 8 MB, so each of the 20 outer
    # runs is its own batch, and the sums carry from batch to batch
    grid = _grid(400)
    system = ShiftSystem(ShiftParams(a=-1.0, T=10.0), grid)
    windows = [window_indicator(grid, [lo], [lo + 0.5]) for lo in np.linspace(0.0, 9.0, 600)]
    basis = FeatureBasis.sample(1000, 1, KERNEL, seed=13)
    bank = system.adjoint_march(windows)
    reference = bank.rows @ eval_basis(basis, grid).T * grid.cell_volume
    phi = assemble_phi(bank, basis)
    assert len(bank.order) == 600 and 2 * basis.size * 600 > 2**20
    assert np.abs(phi - reference).max() <= 1e-13 * np.abs(reference).max()


def test_live_cells_project_like_the_dense_basis():
    # windows ending at different time cells and one zero row: each time
    # cell block multiplies only the rows still live there, and the cells
    # after the last window ends are skipped
    grid = Grid.regular(((0.0, 10.0), (0.0, 10.0), (0.0, 10.0)), (20, 12, 12))
    system = PdeSystem(PdeParams((0.4, 0.4), 0.01, ((0.0, 10.0), (0.0, 10.0)), 10.0), grid)
    windows = [window_indicator(grid, (1.0, 2.0, 3.0), (3.0 + 2.0 * k, 4.0, 5.0))
               for k in range(3)] + [Field.zeros(grid)]
    bank = system.adjoint_march(windows).kept()
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


def test_stacked_pieces_project_bit_for_bit_as_one_piece_per_product(monkeypatch):
    # a PDE bank whose boxes end at different time cells, so that columns
    # join and the width grows from 6 to 9 inside one stack of slabs, and a
    # 1-D bank of 3 window shapes whose reads cut some outer runs and leave
    # the rest whole.  Here BLAS takes the same kernel for a piece alone as
    # for its stack, so the rows keep their bits; a one-row product, or a
    # small one stacked into one past about 1e6 multiply-adds, can round
    # apart from the same rows stacked
    grid = Grid.regular(((0.0, 10.0), (0.0, 10.0), (0.0, 10.0)), (40, 30, 30))
    system = PdeSystem(PdeParams((0.4, 0.4), 0.01, ((0.0, 10.0), (0.0, 10.0)), 10.0), grid)
    boxes = [(1.0 + 2.5 * (b % 3), 1.0 + 2.5 * (b // 3)) for b in range(9)]
    windows = [window_indicator(grid, (1.0 + 0.5 * b, y, x),
                                (10.0 if b < 6 else 4.0 + 0.6 * b, y + 1.5, x + 1.5))
               for b, (y, x) in enumerate(boxes)]
    pde = system.adjoint_march(windows).kept()
    assert sorted({v.shape[1] for _, v in pde.slabs()}) == [6, 7, 8, 9]
    line = Grid.regular(((0.0, 10.0),), (2000,))
    spans = [window_indicator(line, [t], [t + 0.2 + 0.1 * (i % 3)])
             for i, t in enumerate(np.linspace(0.5, 4.5, 24))]
    ode = OdeSystem(OdeParams(5.0, 1.0, 0.5, 10.0), line).adjoint_march(spans)
    assert len(ode.order) == 3
    for bank, basis in ((pde, FeatureBasis.sample(100, 3, KernelParams(2.0, 2.0), seed=11)),
                        (ode, FeatureBasis.sample(100, 1, KernelParams(0.7, 4.0), seed=11))):
        default = assemble_phi(bank, basis)
        with monkeypatch.context() as patch:
            patch.setattr(inference, "_STACK_BYTES", 0)  # one piece per product
            assert np.array_equal(default, assemble_phi(bank, basis))
        reference = bank.rows @ eval_basis(basis, bank.grid).T * bank.grid.cell_volume
        assert np.abs(default - reference).max() <= 1e-13 * np.abs(reference).max()


def test_reads_of_one_piece_by_many_functionals_match_the_dense_basis():
    # two identical windows, and two windows on another box whose time spans
    # overlap: several functionals read one piece of one base, each once
    grid = Grid.regular(((0.0, 10.0), (0.0, 10.0), (0.0, 10.0)), (20, 12, 12))
    system = PdeSystem(PdeParams((0.4, 0.4), 0.01, ((0.0, 10.0), (0.0, 10.0)), 10.0), grid)
    windows = [window_indicator(grid, (1.0, 2.0, 3.0), (6.0, 4.0, 5.0))] * 2 + [
        window_indicator(grid, (t0, 6.0, 6.0), (t1, 8.0, 8.0)) for t0, t1 in ((1.0, 7.0), (4.0, 9.0))]
    bank = system.adjoint_march(windows).kept()
    assert bank.base.tolist() == [0, 0, 3, 3]
    basis = FeatureBasis.sample(30, 3, KernelParams(lengthscale=2.0, variance=2.0), seed=11)
    phi = assemble_phi(bank, basis)
    reference = bank.rows @ eval_basis(basis, grid).T * grid.cell_volume
    assert np.abs(phi - reference).max() <= 1e-13 * np.abs(reference).max()
    assert np.array_equal(phi[0], phi[1])


ODE_RULE_TEXT = """
[system]
kind = ode
p0 = 5.0
p1 = 1.0
p2 = 0.5
T = 10.0

[grid]
cells = 300

[kernel]
lengthscale = 1.0
variance = 4.0

[features]
count = 30

[noise]
sigma = 0.1

[sensors]
"""


def _rule_windows(sensors):
    """Training windows, then held-out ones, of an ODE [sensors] rule on a
    300-cell grid, whose outer runs of 18 cells its shifts fall inside."""
    config = parse_config(ODE_RULE_TEXT + sensors)
    grid = make_grid(config)
    windows, heldout = build_windows(config, grid)[0], build_heldout(config, grid)[0]
    return OdeSystem(PARAMS, grid), windows + heldout, 1, len(windows)


def _march_systems():
    """(system, functionals, dim, training count): PDE functionals ending at
    four time cells, the last one included, with fields mixed in; ODE and
    shift windows and fields (one window shifted out of the domain); PDE
    windows of two spatial boxes and two widths, each shape with copies
    ending at several cells, the last one included, some held out; ODE
    tile, span and list windows, held-out ones after the training ones."""
    pde_grid = Grid.regular(((0.0, 10.0), (0.0, 10.0), (0.0, 10.0)), (20, 12, 12))
    pde = PdeSystem(PdeParams((0.4, -0.3), 0.01, ((0.0, 10.0), (0.0, 10.0)), 10.0), pde_grid)
    early = random_smooth_field(pde_grid, seed=20).values.copy()
    early[9:] = 0.0
    pde_functionals = [window_indicator(pde_grid, (1.0, 2.0 + k, 3.0), (t_hi, 4.0 + k, 5.0))
                       for k, t_hi in enumerate((3.0, 5.5, 8.0, 10.0))]
    pde_functionals[1:1] = [random_smooth_field(pde_grid, seed=21), Field(pde_grid, early)]
    boxes = [((2.0, 3.0), (4.0, 5.0)), ((6.0, 1.0), (8.0, 2.5))]
    copies = [window_indicator(pde_grid, (t_hi - width, *lo), (t_hi, *hi))
              for width, ends in ((2.0, (3.0, 10.0, 5.5)), (7.0, (7.0, 10.0, 9.5)))
              for t_hi in ends for lo, hi in boxes]
    copies += [window_indicator(pde_grid, (6.0, *boxes[1][0]), (8.0, *boxes[1][1])),
               window_indicator(pde_grid, (1.0, *boxes[0][0]), (3.0, *boxes[0][1]))]
    line = _grid(300)
    windows = [window_indicator(line, [lo], [hi]) for lo, hi in
               ((0.5, 2.0), (1.0, 6.0), (4.0, 10.0), (8.0, 9.0), (0.0, 0.5))]
    functionals = windows + [random_smooth_field(line, seed=22)]
    return [(pde, pde_functionals, 3, 6), (OdeSystem(PARAMS, line), functionals, 1, 6),
            (ShiftSystem(ShiftParams(a=-2.0, T=10.0), line), functionals, 1, 6),
            (ShiftSystem(ShiftParams(a=1.2, T=10.0), line), functionals, 1, 6),
            (pde, copies, 3, 8), _rule_windows("rule = tile\ncount = 12\nheldout_count = 5\n"),
            _rule_windows("rule = span\ncount = 9\nheldout_count = 4\n"),
            _rule_windows("rule = list\ntimes = 0.2, 1.7, 3.33, 5.0, 9.95, 10.0\n")]


def _base_count(functionals, rows, grid):
    """The bases a march solves: on a grid with spatial axes one per
    window's spatial box, and for every other functional one per non-zero
    solution that is no longer-lived solution's last time cells: one that
    ends d cells earlier and equals another's last cells is a time-shifted
    copy of it."""
    boxed = [isinstance(f, Window) and grid.ndim > 1 for f in functionals]
    boxes = {tuple((s.start, s.stop) for s in f.box[1:])
             for f, b in zip(functionals, boxed) if b}
    rows = [row for row, b in zip(rows, boxed) if not b]
    cells = np.reshape(rows, (len(rows), grid.dims[0], grid.num_cells // grid.dims[0]))
    live = [np.flatnonzero(c.any(axis=1))[-1] + 1 if c.any() else 0 for c in cells]
    bases = []
    for i in np.argsort(live, kind="stable")[::-1]:
        if live[i] and not any(np.array_equal(cells[b, live[b] - live[i]:live[b]],
                                              cells[i, :live[i]]) for b in bases):
            bases.append(i)
    return len(boxes) + len(bases)


@pytest.mark.parametrize("case", range(8), ids=["pde", "ode", "shift-2", "shift+1.2",
                                                "pde-copies", "ode-tile", "ode-span", "ode-list"])
def test_march_and_project_matches_single_solves_on_the_dense_basis(case):
    # one pass that projects each slab as the march yields it, each shifted
    # copy read from its base's sums, against every functional solved alone
    # and projected on the dense basis; the training and held-out rows of the
    # pipeline are those rows, and a march solves each base once
    system, functionals, dim, n = _march_systems()[case]
    grid = system.grid
    basis = FeatureBasis.sample(30, dim, KernelParams(lengthscale=2.0, variance=2.0), seed=23)
    bank = system.adjoint_march(functionals)
    phi = assemble_phi(bank, basis)
    singles = np.array([system.adjoint_march([f]).rows[0] for f in functionals])
    reference = singles @ eval_basis(basis, grid).T * grid.cell_volume
    assert np.abs(phi - reference).max() <= 1e-13 * np.abs(reference).max()
    assert np.array_equal(system.adjoint_march(functionals).rows, singles)
    result = run_pipeline(system, ObservationSet(tuple(functionals[:n]), np.zeros(n), 1.0), basis,
                          heldout=functionals[n:])
    assert np.array_equal(np.vstack((result.phi, result.phi_heldout)), phi)
    if not isinstance(system, ShiftSystem):  # a shift solves every row alone
        assert bank.solves == result.timings["bank_solves"] == _base_count(functionals, singles,
                                                                           grid)
        assert bank.solves < len(functionals) or case < 2
    if dim == 3:
        # a column is marched from its base's last time cell down
        assert bank.cell_steps == bank.live[bank.order].sum() < len(functionals) * grid.dims[0]
    if case == 0:
        assert sorted(bank.live.tolist()) == [6, 9, 11, 16, 20, 20]
        assert bank.cell_steps == bank.live.sum()


def test_pipeline_on_the_pde_infer_grid_holds_no_bank():
    # 50x30x30 cells with 100 training and 36 held-out windows: a stored
    # bank alone takes 49 MB, the pass about one time cell of the march
    config = parse_config(PDE_INFER_TEXT)
    grid = make_grid(config)
    system = make_system(config, grid)
    windows, _ = build_windows(config, grid)
    heldout, _ = build_heldout(config, grid)
    assert (len(windows), len(heldout)) == (100, 36)
    basis = FeatureBasis.sample(100, 3, make_kernel(config), seed=24)
    obs = ObservationSet(tuple(windows), np.random.default_rng(25).standard_normal(100), 0.05)
    tracemalloc.start()
    try:
        result = run_pipeline(system, obs, basis, heldout=heldout)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 15e6
    assert result.phi_heldout.shape == (36, 100)


def test_projection_and_push_back_hold_no_full_feature_matrix():
    # 100 features x 45000 cells make a 36 MB feature matrix; on a
    # (time, space) grid the projection and the pointwise variance build
    # one time cell of it at a time
    grid = Grid.regular(((0.0, 10.0), (0.0, 10.0), (0.0, 10.0)), (50, 30, 30))
    basis = FeatureBasis.sample(100, 3, KernelParams(lengthscale=2.0, variance=2.0), seed=13)
    rng = np.random.default_rng(14)
    bank = row_bank(rng.standard_normal((10, grid.num_cells)), grid)
    post = posterior_q(rng.standard_normal((10, basis.size)), rng.standard_normal(10), 0.5)
    tracemalloc.start()
    try:
        assemble_phi(bank, basis)
        posterior_forcing(post, basis, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < basis.size * grid.num_cells * 8 / 4


def test_projection_at_a_thousand_features_holds_one_stacked_table():
    # 1000 features on the pde-infer grid: the (900, M) complex exp(i b)
    # table takes 13.7 MiB and the pieces summed at once 8 MB; filled in
    # place, neither has a list of its parts alive beside it, which took
    # the peak to 32.4 MiB
    grid = Grid.regular(((0.0, 10.0), (0.0, 10.0), (0.0, 10.0)), (50, 30, 30))
    basis = FeatureBasis.sample(1000, 3, KernelParams(lengthscale=2.0, variance=2.0), seed=13)
    bank = row_bank(np.random.default_rng(14).standard_normal((10, grid.num_cells)), grid)
    tracemalloc.start()
    try:
        assemble_phi(bank, basis)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 28 * 2**20


def test_posterior_fields_over_uneven_table_blocks_match_the_dense_basis():
    # 10 rows of y at 4 per block: two full blocks and a short one, each
    # read against every outer row
    grid = Grid.regular(((0.0, 2.0), (0.0, 3.0), (-1.0, 1.0)), (6, 10, 30))
    basis = FeatureBasis.sample(1000, 3, KERNEL, seed=21)
    rows = _JOIN_BYTES // (16 * basis.size * grid.dims[2])
    assert rows == 4 and grid.dims[1] % rows == 2
    rng = np.random.default_rng(23)
    post = posterior_q(rng.standard_normal((20, basis.size)), rng.standard_normal(20), 0.5)
    dense = eval_basis(basis, grid)
    mean, var = posterior_forcing(post, basis, grid)
    spread = post.root.T @ dense
    for actual, reference in ((mean, post.mean @ dense),
                              (var, np.einsum("ij,ij->j", spread, spread))):
        np.testing.assert_allclose(actual.values_flat, reference, rtol=1e-12,
                                   atol=1e-12 * np.abs(reference).max())


def test_posterior_fields_hold_one_table_block_at_a_thousand_features():
    # 1000 features on the pde-infer grid: the whole cos b and sin b tables
    # and two feature buffers as tall would take 28.8 MB beside the 8 MB
    # covariance root; blocks of 2 MiB keep the peak under 20 MiB
    grid = Grid.regular(((0.0, 10.0), (0.0, 10.0), (0.0, 10.0)), (50, 30, 30))
    basis = FeatureBasis.sample(1000, 3, KernelParams(lengthscale=2.0, variance=2.0), seed=13)
    rng = np.random.default_rng(14)
    post = posterior_q(rng.standard_normal((10, basis.size)), rng.standard_normal(10), 0.5)
    tracemalloc.start()
    try:
        posterior_forcing(post, basis, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20


def test_phi_grid_assertion():
    grid = _grid(100)
    basis = FeatureBasis.sample(3, 1, KERNEL, seed=1)
    bank = row_bank(np.zeros((1, grid.num_cells)), grid)
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
    bank = row_bank(np.zeros((2, solved.num_cells)), solved)
    for other in (Grid.regular(((0.0, 5.0), (0.0, 6.0), (0.0, 8.0)), (50, 60, 20)),
                  Grid.regular(((0.0, 5.0), (0.0, 8.0), (0.0, 6.0)), (50, 40, 30))):
        assert other.num_cells == solved.num_cells
        with pytest.raises(GridMismatchError):
            assemble_phi(bank, basis, grid=other)
    assert assemble_phi(bank, basis, grid=solved).shape == (2, 3)


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
    np.testing.assert_allclose(post.sd, np.sqrt(np.diag(cov)), rtol=1e-10)


def test_posterior_on_the_identity_design_shrinks_each_reading_alone():
    # Phi = I: each weight sees one reading, mean z / (1 + sigma^2) and
    # variance sigma^2 / (1 + sigma^2)
    z = np.array([0.3, -1.2, 0.7])
    post = posterior_q(np.eye(3), z, sigma=0.5)
    np.testing.assert_allclose(post.mean, z / 1.25, rtol=1e-12)
    np.testing.assert_allclose(post.cov, 0.2 * np.eye(3), rtol=1e-12)


def test_posterior_recovers_noiseless_weights_as_sigma_vanishes():
    rng = np.random.default_rng(4)
    design = rng.standard_normal((12, 5))
    qstar = rng.standard_normal(5)
    post = posterior_q(design, design @ qstar, sigma=1e-6)
    np.testing.assert_allclose(post.mean, qstar, rtol=0, atol=1e-8)


def test_posterior_on_an_underdetermined_design_tends_to_the_minimum_norm_fit():
    # fewer readings than features: the mean is Phi^T (Phi Phi^T + sigma^2 I)^-1 z,
    # which tends to the minimum-norm interpolant as sigma shrinks, and
    # directions no reading sees keep the prior variance
    rng = np.random.default_rng(5)
    design = rng.standard_normal((3, 5))
    z = rng.standard_normal(3)
    unseen = np.linalg.svd(design)[2][3:]
    for sigma in (0.1, 1e-3):
        post = posterior_q(design, z, sigma=sigma)
        dual = design.T @ np.linalg.solve(design @ design.T + sigma**2 * np.eye(3), z)
        np.testing.assert_allclose(post.mean, dual, rtol=1e-8)
        np.testing.assert_allclose(unseen @ post.cov @ unseen.T, np.eye(2), rtol=0, atol=1e-8)
    np.testing.assert_allclose(post.mean, np.linalg.pinv(design) @ z, rtol=0, atol=1e-5)


def test_posterior_splits_weight_evenly_between_duplicate_features():
    # two equal columns: their sum has prior variance 2 and the one-column
    # posterior, and the two weights are equal
    rng = np.random.default_rng(6)
    col = rng.standard_normal(6)
    z = rng.standard_normal(6)
    post = posterior_q(np.column_stack([col, col]), z, sigma=1.0)
    assert post.mean[0] == pytest.approx(post.mean[1], rel=1e-12)
    precision = col @ col + 0.5
    assert post.mean.sum() == pytest.approx((col @ z) / precision, rel=1e-12)
    assert post.cov.sum() == pytest.approx(1.0 / precision, rel=1e-12)


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
    assert calls == [(5, 5)]


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


def test_posterior_is_accurate_on_an_ill_conditioned_precision():
    # columns scaled over four decades and a small sigma: the precision's
    # condition number is about 1e8, yet the mean is the solve of the normal
    # equations and root an exact square root of their inverse.  M = 75 is
    # inverted by halves of 37 and 38 rows, then 18 and 19
    rng = np.random.default_rng(31)
    n, m, sigma = 150, 75, 1e-4
    design = rng.standard_normal((n, m)) * np.logspace(0, -4, m)
    z = design @ rng.standard_normal(m) + sigma * rng.standard_normal(n)
    precision = design.T @ design / sigma**2 + np.eye(m)
    assert 1e7 < np.linalg.cond(precision) < 1e9
    post = posterior_q(design, z, sigma)
    np.testing.assert_allclose(post.mean, np.linalg.solve(precision, design.T @ z / sigma**2),
                               rtol=1e-9)
    assert np.abs(post.root.T @ precision @ post.root - np.eye(m)).max() < 1e-10
    cov = np.linalg.inv(precision)
    np.testing.assert_allclose(post.root @ post.root.T, cov, rtol=0.0,
                               atol=1e-12 * np.abs(cov).max())


@pytest.mark.parametrize("seed", range(5))
def test_condition_bounds_bracket_the_condition_number(seed):
    # (max diag L / min diag L)^2 <= cond(P) <= |L|_F^2 |L^-1|_F^2, for random
    # designs of every shape and for a rank-one design that needs jitter
    rng = np.random.default_rng(seed)
    n, m = rng.integers(1, 80, size=2)
    design = rng.standard_normal((n, m)) * np.logspace(0, -rng.uniform(0, 4), m)
    sigma = 10.0 ** rng.uniform(-4, 0)
    cases = [(design, design @ rng.standard_normal(m), sigma),
             (1e8 * np.ones((6, 3)), np.ones(6), 1e-6)]
    for phi, z, s in cases:
        post = posterior_q(phi, z, s)
        factored = phi.T @ phi / s**2 + (1.0 + post.numerics["jitter"]) * np.eye(phi.shape[1])
        lower, upper = post.numerics["condition_bounds"]
        cond = np.linalg.cond(factored)
        assert 1.0 <= lower <= cond * (1 + 1e-9) and cond <= upper * (1 + 1e-9)


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
    return assemble_phi(system.adjoint_march(windows), basis)


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
    windows = [window_indicator(grid, (t_lo, *lo), (t_lo + 5.0, *hi))
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


TRUNCATION_TEXTS = {
    "ode": ODE_RULE_TEXT.replace("cells = 300", "cells = 400")
    + "rule = tile\ncount = 20\nheldout_count = 6\n",
    "pde": PDE_INFER_TEXT.replace("cells_t = 50\ncells_y = 30\ncells_x = 30",
                                  "cells_t = 20\ncells_y = 12\ncells_x = 12")
    .replace("count = 25\ntime_windows = 4\nheldout_count = 9",
             "count = 9\ntime_windows = 2\nheldout_count = 4"),
}


@pytest.mark.parametrize("name", sorted(TRUNCATION_TEXTS))
def test_truncated_features_approach_the_exact_gp_of_the_same_bank(name):
    """The abstract's claim that a modest basis approximates the forcing
    well, against the exact discrete GP of the same adjoint rows: the Gram
    gap max|Phi Phi^T - G| / max|G| falls at least twofold from M = 100 to
    1600 (1/sqrt(M) predicts fourfold), and at M = 1600 the median held-out
    predictive sd is within 0.1 of the exact one, for each of three basis
    draws."""
    config = parse_config(TRUNCATION_TEXTS[name])
    grid = make_grid(config)
    kernel, sigma = make_kernel(config), config["noise"]["sigma"]
    train = build_windows(config, grid)[0]
    bank = make_system(config, grid).adjoint_march(train + build_heldout(config, grid)[0]).kept()
    n = len(train)
    gram = exact_gram(bank, kernel)
    exact_sd = np.sqrt(gp_predictive_var(gram, n, sigma))
    for seed in (0, 1, 2):
        gaps = {}
        for m in (100, 1600):
            phi = assemble_phi(bank, FeatureBasis.sample(m, grid.ndim, kernel, seed))
            gaps[m] = np.abs(phi @ phi.T - gram).max() / np.abs(gram).max()
        post = posterior_q(phi[:n], np.zeros(n), sigma)
        sd = np.sqrt(np.sum((phi[n:] @ post.root) ** 2, axis=1))
        assert gaps[1600] <= 0.5 * gaps[100], (seed, gaps)
        assert abs(np.median(sd / exact_sd) - 1.0) <= 0.1, (seed, sd / exact_sd)


@pytest.mark.filterwarnings("ignore::adjointgp.MisspecificationWarning")
def test_nll_prefers_the_generating_lengthscale():
    """Posterior predictive NLL ranks the true kernel above one 8x too long
    on most draws."""
    grid = _grid(300)
    windows = _windows(grid, 25)
    system = OdeSystem(PARAMS, grid)
    bank = system.adjoint_march(windows)
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
    # the bank reads shifted copies from their bases; its rows are single solves
    bank = system.adjoint_march(windows)
    assert np.array_equal(bank.rows, [system.adjoint_march([w]).rows[0] for w in windows])
    phi = assemble_phi(bank, basis)
    post = posterior_q(phi, obs.z, obs.sigma)
    np.testing.assert_array_equal(result.phi, phi)
    np.testing.assert_array_equal(result.posterior.mean, post.mean)
    assert PIPELINE_STAGES == ("adjoint_solves", "phi_assembly", "posterior_solve")
    assert tuple(result.timings)[:3] == PIPELINE_STAGES
    assert all(result.timings[stage] >= 0.0 for stage in PIPELINE_STAGES)
    assert {key: result.timings[key] for key in tuple(result.timings)[3:]} == {
        "bank_rows_training": 10, "bank_rows_heldout": 0, "bank_solves": bank.solves,
        "bank_cell_steps": bank.cell_steps}
