"""End-to-end acceptance checks.

Each test prints one summary line (visible under pytest -s) and pins the
numeric bar it enforces.  Scenario constants are frozen: the randomness is
fully seeded, so every number here is reproducible.
"""

import dataclasses
import time
import warnings
from statistics import median

import numpy as np
import pytest

from adjointgp import (
    FeatureBasis,
    Field,
    Grid,
    KernelParams,
    MisspecificationWarning,
    OdeParams,
    OdeSystem,
    PdeParams,
    PdeSystem,
    inner_product,
    norm,
    window_indicator,
)
from adjointgp.config import parse_config
from adjointgp.experiments import (
    run_inference,
    run_mcmc,
    run_shift_demo,
    run_sweep,
    simulate_data,
)
from oracles import (dense_chain, eq_kernel, kernel_approx, ode_apply, ode_apply_adjoint,
                     random_smooth_field)


def _line(num, label, ok, detail):
    print(f"[{num:2d}/10] {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


# ---------------------------------------------------------------------------
# 1. discrete adjoint identity for the ODE operator, with grid refinement


def test_operator_pairing_identity_and_refinement():
    t0 = time.monotonic()
    params = OdeParams(p0=0.62, p1=0.3, p2=1.0, T=4.0)

    def worst_residual(cells):
        # u starts at rest and v ends at rest, so the pairing of the
        # finite-difference operator oracles carries no boundary term
        grid = Grid.regular(((0.0, 4.0),), (cells,))
        system = OdeSystem(params, grid)
        worst = 0.0
        for k in range(20):
            f = random_smooth_field(grid, seed=1000 + k, band=(0.6, 1.4))
            h = random_smooth_field(grid, seed=2000 + k, band=(0.6, 1.4))
            u = system.forward(f)
            v = Field(grid, system.adjoint_march([h]).rows[0])
            lhs = inner_product(ode_apply(params, u), v)
            rhs = inner_product(u, ode_apply_adjoint(params, v))
            worst = max(worst, abs(lhs - rhs) / (norm(u) * norm(v)))
        return worst

    coarse = worst_residual(10_000)
    fine = worst_residual(20_000)
    ratio = coarse / fine
    elapsed = time.monotonic() - t0
    ok = coarse <= 1e-3 and ratio >= 1.6 and elapsed < 10.0
    _line(1, "operator pairing identity", ok,
          f"worst_rel={coarse:.3e}, refine_ratio={ratio:.2f}, {elapsed:.1f}s")
    assert coarse <= 1e-3
    assert ratio >= 1.6
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# 2. the two observation routes agree on both solvers


def test_observation_routes_agree():
    # readings through the forward solution equal readings through the
    # adjoint bank paired with the forcing
    ode_grid = Grid.regular(((0.0, 10.0),), (2000,))
    ode = OdeSystem(OdeParams(p0=5.0, p1=1.0, p2=0.5, T=10.0), ode_grid)
    windows = [window_indicator(ode_grid, [2.0 * i], [2.0 * i + 1.5])
               for i in range(5)]
    bank = [Field(ode_grid, ode.adjoint_march([w]).rows[0]) for w in windows]
    worst_ode = 0.0
    for k in range(20):
        f = random_smooth_field(ode_grid, seed=100 + k)
        u = ode.forward(f)
        for w, v in zip(windows, bank):
            lhs = inner_product(w, u)
            rhs = inner_product(v, f)
            worst_ode = max(worst_ode,
                            abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-12))

    pde_grid = Grid.regular(((0.0, 10.0), (0.0, 10.0), (0.0, 10.0)),
                            (50, 30, 30))
    pde = PdeSystem(PdeParams(velocity=(0.4, 0.4), diffusivity=0.01,
                              bounds=((0.0, 10.0), (0.0, 10.0)), T=10.0),
                    pde_grid)
    spots = [(2.0, 2.0), (5.0, 5.0), (8.0, 3.0), (3.0, 8.0), (7.0, 7.0)]
    pde_windows = [window_indicator(pde_grid, (4.0, y - 0.5, x - 0.5), (6.0, y + 0.5, x + 0.5))
                   for y, x in spots]
    pde_bank = [Field(pde_grid, pde.adjoint_march([w]).rows[0]) for w in pde_windows]
    worst_pde = 0.0
    for k in range(20):
        f = random_smooth_field(pde_grid, seed=4000 + k)
        u = pde.forward(f)
        for w, v in zip(pde_windows, pde_bank):
            lhs = inner_product(w, u)
            rhs = inner_product(v, f)
            worst_pde = max(worst_pde,
                            abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-12))

    ok = worst_ode <= 0.01 and worst_pde <= 0.05
    _line(2, "observation routes agree", ok,
          f"ode_rel={worst_ode:.2e}, pde_rel={worst_pde:.2e}")
    assert worst_ode <= 0.01
    assert worst_pde <= 0.05


# ---------------------------------------------------------------------------
# 3. noiseless weights are recovered as the noise floor drops


C3_TEXT = """
[system]
kind = ode
p0 = 5.0
p1 = 1.0
p2 = 0.5
T = 10.0

[grid]
cells = 2000

[kernel]
lengthscale = 0.15
variance = 4.0

[features]
count = 20

[sensors]
rule = tile
count = 160

[noise]
sigma = {sigma}

[seeds]
data = 11
basis = 2
noise = 33

[inference]
synth = linear
"""


def test_known_weights_recovered_at_vanishing_noise():
    def gap(sigma):
        data = simulate_data(parse_config(C3_TEXT.format(sigma=sigma)))
        outcome = run_inference(data)
        return float(np.max(np.abs(outcome.posterior.mean - data.qstar)))

    gaps = [gap(s) for s in (1e-2, 1e-4, 1e-6)]
    ok = gaps[0] > gaps[1] > gaps[2] and gaps[2] <= 1e-4
    _line(3, "noiseless weight recovery", ok,
          "gaps=" + ", ".join(f"{g:.2e}" for g in gaps))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] <= 1e-4


# ---------------------------------------------------------------------------
# 4. the sampler reproduces the closed-form posterior on a small basis


C4_TEXT = """
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
cells_t = 25
cells_y = 20
cells_x = 20

[kernel]
lengthscale = 2.0
variance = 2.0

[features]
count = 10

[sensors]
rule = grid
count = 25
time_windows = 3

[noise]
sigma = 0.05

[seeds]
data = 5
basis = 105
noise = 205

[mcmc]
steps = 60000
burn_in = 10000
batch_size = 5
seed = 4
"""


@pytest.mark.filterwarnings("ignore::adjointgp.MisspecificationWarning")
def test_sampler_matches_exact_posterior():
    t0 = time.monotonic()
    data = simulate_data(parse_config(C4_TEXT))
    outcome = run_mcmc(data)
    elapsed = time.monotonic() - t0

    kept = dense_chain(outcome.result, outcome.result.config.burn_in).shape[0]
    se = outcome.chain_sd / np.sqrt(outcome.ess)
    z_max = float(np.max(np.abs(outcome.chain_mean - outcome.exact_mean) / se))
    sd_rel = float(np.max(np.abs(outcome.chain_sd / outcome.exact_sd - 1.0)))
    rhat_max = float(outcome.rhat.max())

    ok = (kept >= 50_000 and rhat_max <= 1.05 and z_max <= 2.0
          and sd_rel <= 0.15 and elapsed < 1200.0)
    _line(4, "sampler matches exact posterior", ok,
          f"kept={kept}, rhat={rhat_max:.3f}, mean_gap={z_max:.2f}se, "
          f"sd_rel={sd_rel:.3f}, {elapsed:.0f}s")
    assert kept >= 50_000
    assert rhat_max <= 1.05
    assert z_max <= 2.0
    assert sd_rel <= 0.15
    assert elapsed < 1200.0


# ---------------------------------------------------------------------------
# 5. more sensors reduce held-out error; a larger basis wins at 16 sensors


C5_TEXT = """
[system]
kind = pde
velocity_x = 0.01
velocity_y = 0.01
diffusivity = 0.01
x_min = 0.0
x_max = 10.0
y_min = 0.0
y_max = 10.0
T = 10.0

[grid]
cells_t = 25
cells_y = 20
cells_x = 20

[kernel]
lengthscale = 2.0
variance = 2.0

[features]
count = 10

[sensors]
rule = grid
count = 1
time_windows = 5
heldout_count = 9

[noise]
sigma = 0.05

[seeds]
data = 21
basis = 22
noise = 23

[sweep]
sensors = 1,4,16
features = 200,10
replicates = 10
"""


@pytest.mark.filterwarnings("ignore::adjointgp.MisspecificationWarning")
def test_sensor_count_drives_down_heldout_error(tmp_path):
    t0 = time.monotonic()
    config = parse_config(C5_TEXT)
    ran, skipped, summary = run_sweep(config, tmp_path / "sweep")
    elapsed = time.monotonic() - t0

    med = {key: cell["median"] for key, cell in summary.items()}
    m200 = [med[f"sensors={s},features=200"] for s in (1, 4, 16)]
    m10_at_16 = med["sensors=16,features=10"]
    ok = (m200[0] > m200[1] > m200[2] and m200[2] < m10_at_16
          and elapsed < 1800.0)
    _line(5, "sensors reduce held-out error", ok,
          f"medians_200={m200[0]:.1f}>{m200[1]:.1f}>{m200[2]:.2f}, "
          f"10-feature_at_16={m10_at_16:.2f}, {elapsed:.0f}s")
    assert ran + skipped == 60
    assert m200[0] > m200[1] > m200[2]
    assert m200[2] < m10_at_16
    assert elapsed < 1800.0


# ---------------------------------------------------------------------------
# 6. a too-small basis is overconfident and the diagnostic says so


C6_TEXT = """
[system]
kind = ode
p0 = 5.0
p1 = 1.0
p2 = 0.5
T = 10.0

[grid]
cells = 500

[kernel]
lengthscale = 0.7745966692414834
variance = 4.0

[features]
count = {count}

[sensors]
rule = tile
count = 100

[noise]
sigma = 0.025

[seeds]
data = {data}
basis = {basis}
noise = {noise}
"""


def _band_coverage(seed, count):
    text = C6_TEXT.format(count=count, data=seed, basis=seed + 1000,
                          noise=seed + 2000)
    data = simulate_data(parse_config(text))
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        outcome = run_inference(data)
    fired = any(issubclass(w.category, MisspecificationWarning)
                for w in record)
    mean = outcome.forcing_mean.values_flat
    half = 1.96 * np.sqrt(outcome.forcing_var.values_flat)
    truth = data.truth_forcing.values_flat
    inside = (truth >= mean - half) & (truth <= mean + half)
    return float(inside.mean()), fired


def test_small_basis_is_overconfident_and_flagged():
    wide = [_band_coverage(s, 100) for s in (0, 3, 9)]
    assert not any(fired for _, fired in wide)

    narrow = [_band_coverage(s, 10) for s in range(10)]
    low = sum(cov < 0.60 for cov, _ in narrow)
    fires = sum(fired for _, fired in narrow)

    ok = all(cov >= 0.80 for cov, _ in wide) and low >= 7 and fires >= 7
    _line(6, "small basis flagged as overconfident", ok,
          f"wide_coverage={min(c for c, _ in wide):.2f}min, "
          f"narrow_low={low}/10, diagnostic_fired={fires}/10")
    for cov, _ in wide:
        assert cov >= 0.80
    assert low >= 7
    assert fires >= 7


# ---------------------------------------------------------------------------
# 7. cost grows gently with the number of observations


C7_TEXT = """
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
time_windows = {tw}

[noise]
sigma = 0.05

[seeds]
data = 5
basis = 105
noise = 205
"""


def test_cost_scales_gently_with_observations():
    def timed(tw):
        data = simulate_data(parse_config(C7_TEXT.format(tw=tw)))
        runs = []
        for _ in range(3):
            # CPU time, so that other load on a shared host does not count
            t0 = time.process_time()
            run_inference(data)
            runs.append(time.process_time() - t0)
        return median(runs)

    t50 = timed(2)
    t100 = timed(4)
    ratio = t100 / t50
    ok = ratio <= 2.3 and t100 < 60.0
    _line(7, "cost scales gently with observations", ok,
          f"t_n50={t50:.2f}s, t_n100={t100:.2f}s, ratio={ratio:.2f}")
    assert ratio <= 2.3
    assert t100 < 60.0


# ---------------------------------------------------------------------------
# 8. the feature expansion approximates the kernel it targets


def test_feature_expansion_approximates_kernel():
    kernel = KernelParams(lengthscale=2.0, variance=2.0)
    basis = FeatureBasis.sample(2000, 2, kernel, seed=314)
    rng = np.random.default_rng(2718)
    points = rng.uniform(0.0, 10.0, size=(500, 2, 2))
    errs = [abs(kernel_approx(basis, x, y) - eq_kernel(x, y, kernel))
            for x, y in points]
    mean_err = float(np.mean(errs))
    bar = 0.05 * kernel.variance
    ok = mean_err <= bar
    _line(8, "feature expansion approximates kernel", ok,
          f"mean_abs_err={mean_err:.3f} <= {bar:.2f}")
    assert mean_err <= bar


# ---------------------------------------------------------------------------
# 9. the built-in shift demonstration hits its error target


def test_shift_demo_hits_target():
    t0 = time.monotonic()
    report = run_shift_demo()
    elapsed = time.monotonic() - t0
    ok = report["passed"] and report["mse"] <= 0.01 and elapsed < 5.0
    _line(9, "shift demo hits target", ok,
          f"mse={report['mse']:.4f} <= 0.01, {elapsed:.2f}s")
    assert report["passed"]
    assert report["mse"] <= 0.01
    assert elapsed < 5.0


# ---------------------------------------------------------------------------
# 10. the sampler fails on a large basis where the exact route stays fast


C10_TEXT = C4_TEXT.replace("count = 10", "count = 50").replace(
    "steps = 60000", "steps = 20000").replace(
    "burn_in = 10000", "burn_in = 4000").replace("seed = 4", "seed = {seed}")


@pytest.mark.filterwarnings("ignore::adjointgp.MisspecificationWarning")
def test_large_basis_defeats_sampler_not_exact_route():
    data = simulate_data(parse_config(C10_TEXT.format(seed=0)))
    stuck = 0
    for s in range(10):
        chain_data = dataclasses.replace(
            data, config=parse_config(C10_TEXT.format(seed=s)))
        outcome = run_mcmc(chain_data)
        if float(outcome.rhat.max()) > 1.05:
            stuck += 1

    t0 = time.monotonic()
    run_inference(data)
    exact_elapsed = time.monotonic() - t0

    ok = stuck >= 8 and exact_elapsed < 60.0
    _line(10, "large basis defeats sampler, not exact route", ok,
          f"unconverged={stuck}/10, exact_route={exact_elapsed:.2f}s")
    assert stuck >= 8
    assert exact_elapsed < 60.0
