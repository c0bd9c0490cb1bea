"""End-to-end experiment orchestration: config -> data -> inference -> files.

This module owns the reproducibility contract.  Every random draw flows from
the three seeds in the [seeds] config section through `derive_seed`, which
mixes integers and context strings through numpy's SeedSequence, so rerunning
any command with the same config reproduces every byte of its output.  Data
bundles are directories with a canonical config, truth fields in the binary
field format, readings as CSV, and a manifest of content hashes; loading a
bundle re-verifies the hashes.

Observation synthesis has two modes.  `synth = forward` (the default) draws
the truth forcing from a dense feature basis, runs the forward solver, and
reads the observation windows off the discrete solution.  `synth = linear`
draws truth weights for the inference basis itself and synthesizes readings
through the adjoint design matrix, which makes the linear model exact; this
mode exists to validate the solvers and estimators without a
discretization gap between the two routes.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import _DEFAULTS, Config, canonical_text, config_hash, load_config, parse_config
from .errors import ConfigError
from .features import FeatureBasis, KernelParams, forcing_from_weights, sample_prior_forcing
from .fields import (
    Field,
    Grid,
    dirac_window,
    field_from_binary,
    field_to_binary,
    inner_product,
    window_indicator,
    write_hashed,
)
from .inference import (
    SIGMA_MIN,
    ObservationSet,
    PipelineResult,
    assemble_phi,
    grid_scan,
    ml_estimate,
    nll_score,
    posterior_forcing,
    posterior_to_json,
    predictive_mse,
    predictive_nll,
    run_pipeline,
)
from .mcmc import (
    ChainConfig,
    ChainResult,
    chain_diagnostics,
    chain_moments,
    chain_to_csv,
    gaussian_log_target,
    rw_mh,
    tune_proposal_scale,
)
from .ode import OdeParams, OdeSystem
from .pde import PdeParams, PdeSystem, sensor_field
from .shift import ShiftParams, ShiftSystem

__all__ = [
    "derive_seed",
    "WindowSpec",
    "make_kernel",
    "make_grid",
    "make_system",
    "build_windows",
    "build_heldout",
    "SimulatedData",
    "simulate_data",
    "save_bundle",
    "load_bundle",
    "InferenceOutcome",
    "run_inference",
    "save_inference",
    "McmcOutcome",
    "run_mcmc",
    "save_mcmc",
    "run_sweep",
    "scan_hyper",
    "shift_demo_config",
    "run_shift_demo",
    "SHIFT_DEMO_MSE_TARGET",
]

MCMC_FEATURE_WARN = 50
SHIFT_DEMO_MSE_TARGET = 0.01

_MASK64 = (1 << 64) - 1


def derive_seed(*parts) -> int:
    """Deterministic 64-bit seed from integers and context strings."""
    if not parts:
        raise ValueError("need at least one part")
    entropy = []
    for part in parts:
        if isinstance(part, str):
            digest = hashlib.sha256(part.encode("utf-8")).digest()
            entropy.append(int.from_bytes(digest[:8], "little"))
        elif isinstance(part, (int, np.integer)):
            entropy.append(int(part) & _MASK64)
        else:
            raise TypeError(f"seed parts must be int or str, got {type(part).__name__}")
    state = np.random.SeedSequence(entropy).generate_state(2)
    return (int(state[1]) << 32 | int(state[0])) & _MASK64


@dataclass(frozen=True)
class WindowSpec:
    """Human-readable description of one observation window (for CSV output);
    `lo`/`hi` are per-axis physical bounds, equal for point observations."""

    label: str
    lo: tuple[float, ...]
    hi: tuple[float, ...]


def make_kernel(config: Config) -> KernelParams:
    return KernelParams(config["kernel"]["lengthscale"], config["kernel"]["variance"])


def make_grid(config: Config) -> Grid:
    sys_cfg = config["system"]
    if config.kind == "pde":
        bounds = (
            (0.0, sys_cfg["T"]),
            (sys_cfg["y_min"], sys_cfg["y_max"]),
            (sys_cfg["x_min"], sys_cfg["x_max"]),
        )
        cells = (config["grid"]["cells_t"], config["grid"]["cells_y"],
                 config["grid"]["cells_x"])
        return Grid.regular(bounds, cells)
    return Grid.regular(((0.0, sys_cfg["T"]),), (config["grid"]["cells"],))


def make_system(config: Config, grid: Grid):
    sys_cfg = config["system"]
    if config.kind == "ode":
        params = OdeParams(sys_cfg["p0"], sys_cfg["p1"], sys_cfg["p2"], sys_cfg["T"])
        return OdeSystem(params, grid)
    if config.kind == "pde":
        params = PdeParams(
            velocity=(sys_cfg["velocity_y"], sys_cfg["velocity_x"]),
            diffusivity=sys_cfg["diffusivity"],
            bounds=((sys_cfg["y_min"], sys_cfg["y_max"]),
                    (sys_cfg["x_min"], sys_cfg["x_max"])),
            T=sys_cfg["T"],
        )
        return PdeSystem(params, grid)
    return ShiftSystem(ShiftParams(sys_cfg["a"], sys_cfg["T"]), grid)


def _snap_center(grid: Grid, axis: int, value: float) -> float:
    origin = grid.origin[axis]
    step = grid.spacing[axis]
    idx = int(np.clip(math.floor((value - origin) / step), 0, grid.dims[axis] - 1))
    return origin + (idx + 0.5) * step


def _tile_windows(grid: Grid, count: int, t_start: float, t_end: float):
    edges = np.linspace(t_start, t_end, count + 1)
    windows, specs = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        windows.append(window_indicator(grid, (lo,), (hi,)))
        specs.append(WindowSpec("box", (float(lo),), (float(hi),)))
    return windows, specs


def _span_times(count: int, t_start: float, t_end: float, stagger: bool):
    if stagger:
        # offset lattice for held-out points so they avoid the training times
        gap = (t_end - t_start) / count
        return np.linspace(t_start + 0.5 * gap, t_end - 0.5 * gap, count)
    if count == 1:
        return np.array([0.5 * (t_start + t_end)])
    return np.linspace(t_start, t_end, count)


def _point_windows(grid: Grid, times):
    windows, specs = [], []
    for t in times:
        windows.append(dirac_window(grid, (float(t),)))
        specs.append(WindowSpec("point", (float(t),), (float(t),)))
    return windows, specs


def _grid_windows(grid: Grid, count: int, time_windows: int, size: float,
                  t_start: float, t_end: float):
    """k^2 sensors on a lattice inset half a lattice cell from the walls,
    each observed over `time_windows` equal spans of [t_start, t_end].
    A zero `size` means a single spatial cell per sensor."""
    k = math.isqrt(count)
    y_lo, y_hi = grid.bounds(1)
    x_lo, x_hi = grid.bounds(2)
    rel = (np.arange(k) + 0.5) / k
    ys = y_lo + rel * (y_hi - y_lo)
    xs = x_lo + rel * (x_hi - x_lo)
    edges = np.linspace(t_start, t_end, time_windows + 1)
    windows, specs = [], []
    for y in ys:
        for x in xs:
            if size > 0.0:
                lo_yx = (y - 0.5 * size, x - 0.5 * size)
                hi_yx = (y + 0.5 * size, x + 0.5 * size)
            else:
                cy = _snap_center(grid, 1, y)
                cx = _snap_center(grid, 2, x)
                lo_yx = (cy - 0.5 * grid.spacing[1], cx - 0.5 * grid.spacing[2])
                hi_yx = (cy + 0.5 * grid.spacing[1], cx + 0.5 * grid.spacing[2])
            for w_lo, w_hi in zip(edges[:-1], edges[1:]):
                windows.append(sensor_field(grid, lo_yx, hi_yx, w_lo, w_hi))
                specs.append(WindowSpec(
                    "sensor",
                    (float(w_lo), float(y), float(x)),
                    (float(w_hi), float(y), float(x)),
                ))
    return windows, specs


def _build(config: Config, grid: Grid, count: int, stagger: bool):
    sensors = config["sensors"]
    rule = sensors["rule"]
    t_start, t_end = sensors["t_start"], sensors["t_end"]
    if rule == "tile":
        return _tile_windows(grid, count, t_start, t_end)
    if rule == "span":
        return _point_windows(grid, _span_times(count, t_start, t_end, stagger))
    if rule == "list":
        return _point_windows(grid, sensors["times"])
    return _grid_windows(grid, count, sensors["time_windows"], sensors["size"],
                         t_start, t_end)


def build_windows(config: Config, grid: Grid):
    """Training observation windows and their specs, per the [sensors] rule."""
    count = config["sensors"].get("count", 0)
    return _build(config, grid, count, stagger=False)


def build_heldout(config: Config, grid: Grid):
    """Held-out windows; empty when heldout_count is 0."""
    count = config["sensors"].get("heldout_count", 0)
    if count == 0:
        return [], []
    return _build(config, grid, count, stagger=True)


def _setup(config: Config):
    """Everything a config fixes before any draw: grid, system, kernel,
    training windows and specs, held-out windows and specs."""
    grid = make_grid(config)
    return (grid, make_system(config, grid), make_kernel(config),
            *build_windows(config, grid), *build_heldout(config, grid))


def _inference_basis(config: Config, grid: Grid, kernel: KernelParams) -> FeatureBasis:
    """The feature basis every inference on `config` draws (basis seed)."""
    return FeatureBasis.sample(config["features"]["count"], grid.ndim, kernel,
                               config["seeds"]["basis"])


# ---------------------------------------------------------------------------
# simulation


@dataclass
class SimulatedData:
    config: Config
    grid: Grid
    system: object
    kernel: KernelParams
    windows: list
    window_specs: list
    z: np.ndarray
    heldout_windows: list
    heldout_specs: list
    heldout_z: np.ndarray
    truth_forcing: Field
    truth_solution: Field | None
    truth_weights: np.ndarray | None
    qstar: np.ndarray | None
    seeds: dict

    @property
    def sigma(self) -> float:
        return self.config["noise"]["sigma"]

    def observations(self) -> ObservationSet:
        return ObservationSet(tuple(self.windows), self.z, _clamped_sigma(self.sigma))

    def heldout_observations(self) -> ObservationSet | None:
        if not self.heldout_windows:
            return None
        return ObservationSet(tuple(self.heldout_windows), self.heldout_z,
                              _clamped_sigma(self.sigma))


def _clamped_sigma(sigma: float) -> float:
    return max(float(sigma), SIGMA_MIN)


def _read_windows(windows, solution: Field) -> np.ndarray:
    return np.array([inner_product(w, solution) for w in windows])


def simulate_data(config: Config) -> SimulatedData:
    grid, system, kernel, windows, specs, heldout_windows, heldout_specs = _setup(config)
    seeds = dict(config["seeds"])
    sigma = config["noise"]["sigma"]

    if config["inference"]["synth"] == "linear":
        basis = _inference_basis(config, grid, kernel)
        rng = np.random.default_rng(derive_seed(seeds["data"], "qstar"))
        qstar = rng.standard_normal(basis.size)
        # training and held-out windows are solved as one bank and projected together
        phi = assemble_phi(system.adjoint_march(windows + heldout_windows), basis)
        clean = phi[:len(windows)] @ qstar
        heldout_clean = phi[len(windows):] @ qstar
        truth_forcing = forcing_from_weights(basis, qstar, grid)
        truth_solution = None
        truth_weights = None
    else:
        truth_basis = FeatureBasis.sample(
            config["features"]["truth_count"], grid.ndim, kernel,
            derive_seed(seeds["data"], "truth-basis"),
        )
        truth_weights, truth_forcing = sample_prior_forcing(
            truth_basis, grid, derive_seed(seeds["data"], "truth-weights"))
        truth_solution = system.forward(truth_forcing)
        clean = _read_windows(windows, truth_solution)
        heldout_clean = (_read_windows(heldout_windows, truth_solution)
                         if heldout_windows else np.zeros(0))
        qstar = None

    # noise is drawn even at sigma = 0 so the stream layout never depends on it
    train_rng = np.random.default_rng(derive_seed(seeds["noise"], "train"))
    z = clean + sigma * train_rng.standard_normal(clean.size)
    heldout_rng = np.random.default_rng(derive_seed(seeds["noise"], "heldout"))
    heldout_z = heldout_clean + sigma * heldout_rng.standard_normal(heldout_clean.size)

    return SimulatedData(
        config=config, grid=grid, system=system, kernel=kernel,
        windows=windows, window_specs=specs, z=z,
        heldout_windows=heldout_windows, heldout_specs=heldout_specs,
        heldout_z=heldout_z,
        truth_forcing=truth_forcing, truth_solution=truth_solution,
        truth_weights=truth_weights, qstar=qstar, seeds=seeds,
    )


# ---------------------------------------------------------------------------
# bundle files


def _axis_names(ndim: int):
    return ("t",) if ndim == 1 else ("t", "y", "x")


def _fmt(value) -> str:
    if isinstance(value, float):
        # numpy scalars subclass float but repr as np.float64(...); coerce
        return repr(float(value))
    return str(value)


def _csv_line(row) -> str:
    return ",".join(_fmt(v) for v in row) + "\n"


def _write_csv(path: Path, header, rows) -> str:
    return write_hashed(path, map(_csv_line, [header, *rows]))


def _readings_rows(specs, z):
    rows = []
    for i, (spec, value) in enumerate(zip(specs, z)):
        row = [i, spec.label]
        for lo in spec.lo:
            row.append(lo)
        for hi in spec.hi:
            row.append(hi)
        row.append(float(value))
        rows.append(row)
    return rows


def _readings_header(ndim: int):
    names = _axis_names(ndim)
    return (["index", "label"] + [f"lo_{n}" for n in names]
            + [f"hi_{n}" for n in names] + ["z"])


def _sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_json(path: Path, payload) -> str:
    return write_hashed(path, [json.dumps(payload, sort_keys=True, indent=2) + "\n"])


def _write_manifest(out: Path, files: dict, **fields) -> None:
    """manifest.json: `fields` plus `files`, the {name: SHA-256} of the
    results in `out` as their writers returned them."""
    _write_json(out / "manifest.json", dict(fields, files=files))


def save_bundle(data: SimulatedData, out_dir) -> Path:
    """Write the simulated dataset as a self-describing directory."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    header = _readings_header(data.grid.ndim)

    files = {
        "config.txt": write_hashed(out / "config.txt", [canonical_text(data.config)]),
        "truth_forcing.fld": field_to_binary(data.truth_forcing, out / "truth_forcing.fld"),
        "readings.csv": _write_csv(out / "readings.csv", header,
                                   _readings_rows(data.window_specs, data.z)),
    }
    if data.truth_solution is not None:
        files["truth_solution.fld"] = field_to_binary(data.truth_solution,
                                                      out / "truth_solution.fld")
    if data.heldout_windows:
        files["heldout.csv"] = _write_csv(out / "heldout.csv", header,
                                          _readings_rows(data.heldout_specs, data.heldout_z))
    _write_manifest(
        out, files,
        kind=data.config.kind,
        config_sha256=config_hash(data.config),
        seeds=data.seeds,
        synth=data.config["inference"]["synth"],
        qstar=None if data.qstar is None else data.qstar.tolist(),
        truth_weights=None if data.truth_weights is None else data.truth_weights.tolist(),
    )
    return out


def _read_z_column(path: Path) -> np.ndarray:
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle)
        return np.array([float(row["z"]) for row in reader])


def load_bundle(bundle_dir) -> SimulatedData:
    """Rebuild a SimulatedData from a bundle directory, verifying hashes."""
    bundle = Path(bundle_dir)
    manifest_path = bundle / "manifest.json"
    if not manifest_path.is_file():
        raise ConfigError(f"{bundle} is not a data bundle (no manifest.json)")
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    for name, expected in manifest["files"].items():
        target = bundle / name
        if not target.is_file():
            raise ConfigError(f"bundle file {name} is missing")
        actual = _sha256_file(target)
        if actual != expected:
            raise ConfigError(
                f"bundle file {name} does not match its manifest hash "
                f"(expected {expected[:12]}..., got {actual[:12]}...)")

    config = load_config(bundle / "config.txt")
    if config_hash(config) != manifest["config_sha256"]:
        raise ConfigError("bundle config does not match its manifest hash")
    grid, system, kernel, windows, specs, heldout_windows, heldout_specs = _setup(config)

    z = _read_z_column(bundle / "readings.csv")
    if z.size != len(windows):
        raise ConfigError(
            f"readings.csv has {z.size} rows but the config builds {len(windows)} windows")
    if heldout_windows:
        heldout_z = _read_z_column(bundle / "heldout.csv")
        if heldout_z.size != len(heldout_windows):
            raise ConfigError("heldout.csv row count does not match the config")
    else:
        heldout_z = np.zeros(0)

    truth_forcing = field_from_binary(bundle / "truth_forcing.fld")
    solution_path = bundle / "truth_solution.fld"
    truth_solution = field_from_binary(solution_path) if solution_path.is_file() else None

    qstar = manifest.get("qstar")
    truth_weights = manifest.get("truth_weights")
    return SimulatedData(
        config=config, grid=grid, system=system, kernel=kernel,
        windows=windows, window_specs=specs, z=z,
        heldout_windows=heldout_windows, heldout_specs=heldout_specs,
        heldout_z=heldout_z,
        truth_forcing=truth_forcing, truth_solution=truth_solution,
        truth_weights=None if truth_weights is None else np.array(truth_weights),
        qstar=None if qstar is None else np.array(qstar),
        seeds=dict(config["seeds"]),
    )


# ---------------------------------------------------------------------------
# inference driver


@dataclass
class InferenceOutcome:
    basis: FeatureBasis
    pipeline: PipelineResult
    forcing_mean: Field
    forcing_var: Field
    ml_weights: np.ndarray | None
    ml_forcing: Field | None
    metrics: dict
    # pipeline stage, push-back and held-out scoring seconds, bank counts
    timings: dict

    @property
    def posterior(self):
        return self.pipeline.posterior

    @property
    def phi(self):
        return self.pipeline.phi


def _forcing_mse(estimate: Field, truth: Field) -> float:
    return float(np.mean((estimate.values_flat - truth.values_flat) ** 2))


def run_inference(data: SimulatedData) -> InferenceOutcome:
    """Adjoint pipeline (and optionally maximum likelihood) on simulated data."""
    config = data.config
    sigma_cfg = data.sigma
    if sigma_cfg < SIGMA_MIN:
        warnings.warn(
            f"noise level {sigma_cfg} is below the numerical floor; "
            f"inference uses sigma = {SIGMA_MIN}",
            UserWarning, stacklevel=2)
    basis = _inference_basis(config, data.grid, data.kernel)
    obs = data.observations()
    result = run_pipeline(data.system, obs, basis, heldout=data.heldout_windows)
    t0 = time.perf_counter()
    mean_field, var_field = posterior_forcing(result.posterior, basis, data.grid)
    t1 = time.perf_counter()

    method = config["inference"]["method"]
    ml_weights = ml_forcing = None
    if method in ("ml", "both"):
        ml_weights, _ = ml_estimate(result.phi, data.z, sigma=obs.sigma,
                                    ridge=config["inference"]["ridge"])
        ml_forcing = forcing_from_weights(basis, ml_weights, data.grid)

    metrics = {
        "n": int(len(data.windows)),
        "features": int(basis.size),
        "sigma": float(obs.sigma),
        "train_rms_residual": float(np.sqrt(np.mean(
            (data.z - result.phi @ result.posterior.mean) ** 2))),
        "forcing_mse": _forcing_mse(mean_field, data.truth_forcing),
    }
    if data.qstar is not None:
        metrics["qstar_max_abs_error_bayes"] = float(
            np.max(np.abs(result.posterior.mean - data.qstar)))
        if ml_weights is not None:
            metrics["qstar_max_abs_error_ml"] = float(
                np.max(np.abs(ml_weights - data.qstar)))
    heldout = data.heldout_observations()
    t2 = time.perf_counter()
    if heldout is not None:
        metrics["heldout_mse"] = predictive_mse(result.posterior, result.phi_heldout, heldout.z)
        metrics["heldout_nll"] = predictive_nll(result.posterior, result.phi_heldout, heldout)
    timings = dict(result.timings, posterior_forcing=t1 - t0,
                   heldout_scoring=time.perf_counter() - t2,
                   bank_rows_training=obs.n, bank_rows_heldout=len(data.heldout_windows),
                   bank_solves=result.solves, bank_cell_steps=result.cell_steps)
    return InferenceOutcome(basis, result, mean_field, var_field,
                            ml_weights, ml_forcing, metrics, timings)


def _weights_rows(outcome: InferenceOutcome):
    mean = outcome.posterior.mean
    sd = np.sqrt(np.diag(outcome.posterior.cov))
    rows = []
    for m in range(mean.size):
        row = [m, float(mean[m]), float(sd[m])]
        if outcome.ml_weights is not None:
            row.append(float(outcome.ml_weights[m]))
        rows.append(row)
    return rows


def save_inference(outcome: InferenceOutcome, data: SimulatedData, out_dir) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    header = ["index", "mean", "sd"] + (["ml"] if outcome.ml_weights is not None else [])
    posterior = posterior_to_json(outcome.posterior, basis_seed=outcome.basis.seed,
                                  config_hash=config_hash(data.config))
    files = {
        "weights.csv": _write_csv(out / "weights.csv", header, _weights_rows(outcome)),
        "phi.csv": _write_csv(out / "phi.csv", [f"m{j}" for j in range(outcome.phi.shape[1])],
                              outcome.phi),
        "posterior.json": write_hashed(out / "posterior.json", [posterior, "\n"]),
        "forcing_mean.fld": field_to_binary(outcome.forcing_mean, out / "forcing_mean.fld"),
        "forcing_var.fld": field_to_binary(outcome.forcing_var, out / "forcing_var.fld"),
        "metrics.json": _write_json(out / "metrics.json", outcome.metrics),
    }
    if outcome.ml_forcing is not None:
        files["forcing_ml.fld"] = field_to_binary(outcome.ml_forcing, out / "forcing_ml.fld")
    # timings.json and numerics.json stay out of the manifest: they are
    # diagnostics of the run (wall clocks differ run to run), and the
    # manifest hashes only the results a rerun must reproduce.
    _write_json(out / "timings.json", outcome.timings)
    numerics = dict(outcome.posterior.numerics)
    if hasattr(data.system, "step_margin"):  # a shift has no step limit
        numerics["step_margin"] = data.system.step_margin
    _write_json(out / "numerics.json", numerics)
    _write_manifest(out, files, config_sha256=config_hash(data.config),
                    basis_seed=outcome.basis.seed)
    return out


# ---------------------------------------------------------------------------
# sampling driver


@dataclass
class McmcOutcome:
    result: ChainResult
    chain_mean: np.ndarray
    chain_sd: np.ndarray
    exact_mean: np.ndarray
    exact_sd: np.ndarray
    ess: np.ndarray
    rhat: np.ndarray
    # the run's summary, written as diagnostics.json
    diagnostics: dict
    timings: dict


def _mcmc_settings(config: Config) -> dict:
    if "mcmc" in config:
        return dict(config["mcmc"])
    return {key: value for (section, key), value in _DEFAULTS.items() if section == "mcmc"}


def run_mcmc(data: SimulatedData) -> McmcOutcome:
    """Random-walk sampler on the same posterior the conjugate route solves.

    The chain starts at the conjugate posterior mean, so the run measures
    mixing cost rather than burn-in distance.  `timings` sets the exact
    route's stage seconds beside the sampler's tune and chain seconds and
    its minimum ESS per chain second.
    """
    config = data.config
    basis = _inference_basis(config, data.grid, data.kernel)
    obs = data.observations()
    # infer's bank, held-out rows included: exact_mean equals its mean bit for bit
    pipeline = run_pipeline(data.system, obs, basis, heldout=data.heldout_windows)
    target = gaussian_log_target(pipeline.phi, data.z, obs.sigma)

    settings = _mcmc_settings(config)
    start = pipeline.posterior.mean
    scale = settings["proposal_scale"]
    t0 = time.perf_counter()
    if scale == 0.0:
        scale = tune_proposal_scale(target, start,
                                    seed=derive_seed(settings["seed"], "tune"),
                                    batch_size=settings["batch_size"])
    t1 = time.perf_counter()
    cfg = ChainConfig(steps=settings["steps"], burn_in=settings["burn_in"],
                      proposal_scale=scale, seed=settings["seed"],
                      batch_size=settings["batch_size"])
    result = rw_mh(target, start, cfg)
    t2 = time.perf_counter()
    diag = chain_diagnostics(result)
    chain_mean, chain_sd = chain_moments(result.kept)
    diagnostics = {
        "acceptance_rate": result.acceptance_rate,
        "proposal_scale": scale,
        "steps": cfg.steps,
        "burn_in": cfg.burn_in,
        "min_ess": float(diag.ess.min()),
        "max_rhat": float(diag.rhat.max()),
        "converged": diag.converged,
        "feature_count_warning": basis.size >= MCMC_FEATURE_WARN,
        "max_abs_mean_gap": float(np.max(np.abs(chain_mean - pipeline.posterior.mean))),
        "config_sha256": config_hash(config),
    }
    timings = dict(pipeline.timings, tune=t1 - t0, chain=t2 - t1,
                   ess_per_second=diagnostics["min_ess"] / (t2 - t1),
                   max_c_drift=result.drift)
    return McmcOutcome(result=result, chain_mean=chain_mean, chain_sd=chain_sd,
                       exact_mean=pipeline.posterior.mean,
                       exact_sd=np.sqrt(np.diag(pipeline.posterior.cov)),
                       ess=diag.ess, rhat=diag.rhat, diagnostics=diagnostics, timings=timings)


def save_mcmc(outcome: McmcOutcome, data: SimulatedData, out_dir) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for m in range(outcome.chain_mean.size):
        rows.append([m, float(outcome.chain_mean[m]), float(outcome.chain_sd[m]),
                     float(outcome.exact_mean[m]), float(outcome.exact_sd[m]),
                     float(outcome.ess[m]), float(outcome.rhat[m])])
    files = {
        "chain_summary.csv": _write_csv(out / "chain_summary.csv",
                                        ["index", "mcmc_mean", "mcmc_sd", "exact_mean",
                                         "exact_sd", "ess", "rhat"], rows),
        "trace.csv": chain_to_csv(outcome.result, out / "trace.csv"),
        "diagnostics.json": _write_json(out / "diagnostics.json", outcome.diagnostics),
    }
    # timings.json stays out of the manifest, as infer's does
    _write_json(out / "timings.json", outcome.timings)
    _write_manifest(out, files, config_sha256=config_hash(data.config))
    return out


# ---------------------------------------------------------------------------
# sweeps and scans


def _override(config: Config, updates: dict) -> Config:
    data = {name: dict(body) for name, body in config.data.items()}
    for (section, key), value in updates.items():
        data.setdefault(section, {})[key] = value
    return Config(data)


_SWEEP_HEADER = ["sensors", "features", "replicate", "heldout_mse",
                 "forcing_mse", "seed_data", "seed_basis", "seed_noise"]
_SWEEP_TYPES = (int, int, int, float, float, int, int, int)


def _resume_sweep(path: Path) -> set:
    """(sensors, features, replicate) keys of the rows in an existing
    results.csv, after cutting the file back to its last complete row.

    A kill partway through a write leaves a last line without its newline;
    that torn tail is dropped, so its cell runs again and the next append
    starts on a fresh line.  Every complete row must parse in full.
    """
    if not path.is_file():
        return set()
    raw = path.read_bytes()
    complete = raw[:raw.rfind(b"\n") + 1]
    lines = complete.split(b"\n")[:-1]
    if lines and lines[0] != ",".join(_SWEEP_HEADER).encode():
        raise ConfigError(f"{path} does not start with the sweep results header")
    done = set()
    for number, line in enumerate(lines[1:], start=2):
        fields = line.split(b",")
        try:
            if len(fields) != len(_SWEEP_TYPES):
                raise ValueError(f"{len(fields)} fields")
            row = [kind(value) for kind, value in zip(_SWEEP_TYPES, fields)]
        except ValueError as exc:
            raise ConfigError(f"{path} line {number} is not a sweep row: {exc}") from None
        done.add(tuple(row[:3]))
    if len(complete) < len(raw):
        with open(path, "r+b") as handle:
            handle.truncate(len(complete))
    return done


def run_sweep(config: Config, out_dir, progress=None) -> tuple[int, int, dict]:
    """Sensors-by-features replicate sweep with incremental, resumable output.

    Each replicate redraws the truth (data seed), the feature basis (basis
    seed), and the observation noise (noise seed); the truth draw depends
    only on the replicate index so every lattice cell of the same replicate
    inverts the same ground truth.  Completed (sensors, features, replicate)
    rows found in an existing results.csv are skipped; a torn last row left
    by a killed run is dropped and run again.  Returns
    (rows_run, rows_skipped, summary).
    """
    if "sweep" not in config:
        raise ConfigError("missing [sweep] section for a sweep run")
    if config["sensors"].get("heldout_count", 0) < 1:
        raise ConfigError("a sweep needs 'heldout_count' in [sensors] for scoring")
    sweep = config["sweep"]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    results_path = out / "results.csv"
    done = _resume_sweep(results_path)

    seeds = config["seeds"]
    ran = skipped = 0
    with open(results_path, "a", encoding="utf-8", newline="\n") as handle:
        if handle.tell() == 0:
            handle.write(_csv_line(_SWEEP_HEADER))
            handle.flush()
        for replicate in range(sweep["replicates"]):
            seed_data = derive_seed(seeds["data"], "sweep-truth", replicate)
            seed_basis = derive_seed(seeds["basis"], "sweep-basis", replicate)
            for n_sensors in sweep["sensors"]:
                seed_noise = derive_seed(seeds["noise"], "sweep-noise", replicate,
                                         n_sensors)
                for n_features in sweep["features"]:
                    key = (n_sensors, n_features, replicate)
                    if key in done:
                        skipped += 1
                        continue
                    cfg = _override(config, {
                        ("sensors", "count"): n_sensors,
                        ("features", "count"): n_features,
                        ("seeds", "data"): seed_data,
                        ("seeds", "basis"): seed_basis,
                        ("seeds", "noise"): seed_noise,
                    })
                    data = simulate_data(cfg)
                    outcome = run_inference(data)
                    row = [n_sensors, n_features, replicate,
                           float(outcome.metrics["heldout_mse"]),
                           float(outcome.metrics["forcing_mse"]),
                           seed_data, seed_basis, seed_noise]
                    handle.write(_csv_line(row))
                    handle.flush()
                    ran += 1
                    if progress is not None:
                        progress(key)

    summary = sweep_summary(results_path)
    _write_json(out / "summary.json", summary)
    return ran, skipped, summary


def sweep_summary(results_path) -> dict:
    """Median and central 95% band of held-out MSE per lattice cell."""
    cells: dict[tuple[int, int], list[float]] = {}
    with open(results_path, "r", encoding="utf-8", newline="") as handle:
        for row in csv.DictReader(handle):
            key = (int(row["sensors"]), int(row["features"]))
            cells.setdefault(key, []).append(float(row["heldout_mse"]))
    summary = {}
    for (s, m), values in sorted(cells.items()):
        arr = np.array(values)
        summary[f"sensors={s},features={m}"] = {
            "count": int(arr.size),
            "median": float(np.median(arr)),
            "p2.5": float(np.percentile(arr, 2.5)),
            "p97.5": float(np.percentile(arr, 97.5)),
        }
    return summary


def scan_hyper(data: SimulatedData):
    """Lattice scan of kernel hyperparameters scored by posterior predictive
    negative log likelihood on the training readings.

    The adjoint bank and the feature draw are made once, and the bank is
    projected once per lattice lengthscale (the variance only scales Phi);
    each lattice point then costs one posterior solve, and no forward solve.
    """
    config = data.config
    if "scan" not in config:
        raise ConfigError("missing [scan] section for a hyperparameter scan")
    scan = config["scan"]
    obs = data.observations()
    bank = data.system.adjoint_march(data.windows).kept()
    basis = _inference_basis(config, data.grid, data.kernel)
    axes = ("lengthscale", "variance")
    projections = {}
    return grid_scan(
        {key: scan[key][:2] for key in axes},
        {key: int(scan[key][2]) for key in axes},
        lambda theta: nll_score(theta, obs, bank, basis, projections))


def save_scan(results, out_dir) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = [[theta["lengthscale"], theta["variance"], nll]
            for theta, nll in results]
    _write_csv(out / "scan.csv", ["lengthscale", "variance", "nll"], rows)
    best_theta, best_nll = results[0]
    _write_json(out / "best.json", {"lengthscale": best_theta["lengthscale"],
                                    "variance": best_theta["variance"], "nll": best_nll})
    return out


# ---------------------------------------------------------------------------
# shift demo


def shift_demo_config(seed: int | None = None) -> Config:
    """Built-in shift scenario: offset 2 on a horizon of 10, 20 single-cell
    readings spanning [2, 8], noise sd 0.05, 200 grid cells."""
    base = 7 if seed is None else int(seed)
    text = "\n".join([
        "[system]",
        "kind = shift",
        "a = 2.0",
        "T = 10.0",
        "[grid]",
        "cells = 200",
        "[kernel]",
        "lengthscale = 1.0",
        "variance = 1.0",
        "[features]",
        "count = 200",
        "truth_count = 1000",
        "[sensors]",
        "rule = span",
        "count = 20",
        "t_start = 2.0",
        "t_end = 8.0",
        "[noise]",
        "sigma = 0.05",
        "[seeds]",
        f"data = {derive_seed(base, 'shift-demo-data')}",
        f"basis = {derive_seed(base, 'shift-demo-basis')}",
        f"noise = {derive_seed(base, 'shift-demo-noise')}",
    ])
    return parse_config(text)


def run_shift_demo(out_dir=None, seed: int | None = None) -> dict:
    """Simulate the shift scenario, run inference, and report the mean
    squared error between the noisy readings and the readings implied by
    the posterior mean forcing (its forward solution evaluated through the
    same observation windows).  The forcing-level error over the span the
    observations identify is reported alongside."""
    config = shift_demo_config(seed)
    data = simulate_data(config)
    outcome = run_inference(data)

    u_mean = data.system.forward(outcome.forcing_mean)
    fitted = _read_windows(data.windows, u_mean)
    mse = float(np.mean((fitted - data.z) ** 2))

    a = config["system"]["a"]
    lo = config["sensors"]["t_start"] - a
    hi = config["sensors"]["t_end"] - a
    centers = data.grid.axis_centers(0)
    inside = (centers >= lo) & (centers <= hi)
    diff = outcome.forcing_mean.values_flat[inside] - data.truth_forcing.values_flat[inside]
    forcing_span_mse = float(np.mean(diff ** 2))

    report = {
        "mse": mse,
        "target": SHIFT_DEMO_MSE_TARGET,
        "passed": mse <= SHIFT_DEMO_MSE_TARGET,
        "forcing_span_mse": forcing_span_mse,
        "span": [float(lo), float(hi)],
        "observations": int(len(data.windows)),
        "features": int(outcome.basis.size),
    }
    if out_dir is not None:
        out = Path(out_dir)
        save_bundle(data, out / "bundle")
        save_inference(outcome, data, out / "inference")
        _write_json(out / "demo.json", report)
    return report
