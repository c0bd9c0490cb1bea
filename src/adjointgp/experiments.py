"""End-to-end experiment orchestration: config -> data -> inference -> files.

This module owns the reproducibility contract.  Every random draw flows from
the three seeds in the [seeds] config section through `derive_seed`, which
mixes integers and context strings through numpy's SeedSequence, so rerunning
any command with the same config reproduces every byte of its output.  Each
command's run keeps one `Clock` and writes its directory through one writer,
which ends with a manifest of content hashes; a data bundle holds a
canonical config, truth fields in the binary field format and readings as
CSV, and loading it re-verifies the hashes.  Every CSV row is Python scalars
joined by one formatter, so a float is written as its repr, the shortest
text that reads back to the same bits.

Observation synthesis has two modes.  `synth = forward` (the default) draws
the truth forcing from a dense feature basis, runs the forward solver, and
reads the observation windows off the discrete solution.  `synth = linear`
draws truth weights for the inference basis itself and synthesizes readings
through the adjoint design matrix, which makes the linear model exact; this
mode exists to validate the solvers and the estimator without a
discretization gap between the two routes.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import io
import itertools
import json
import math
import resource
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import _DEFAULTS, Config, canonical_text, config_hash, parse_config
from .errors import ConfigError, DomainError
from .features import FeatureBasis, KernelParams, forcing_from_weights, sample_prior_forcing
from .fields import (
    Field,
    Grid,
    field_from_binary,
    field_to_binary,
    inner_product,
    window_boxes,
    write_hashed,
)
from .inference import (
    SIGMA_MIN,
    Clock,
    ObservationSet,
    PipelineResult,
    assemble_phi,
    forcing_calibration,
    grid_scan,
    nll_score,
    posterior_forcing,
    predictive_mse,
    predictive_nll,
    run_pipeline,
)
from .mcmc import (
    ChainConfig,
    ChainResult,
    chain_diagnostics,
    chain_to_csv,
    gaussian_log_target,
    rw_mh,
    tune_proposal_scale,
)
from .ode import OdeParams, OdeSystem
from .pde import PdeParams, PdeSystem
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
    "ScanOutcome",
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


def _tile_windows(grid: Grid, count: int, t_start: float, t_end: float):
    edges = np.linspace(t_start, t_end, count + 1)
    bounds = edges.tolist()
    specs = [WindowSpec("box", (lo,), (hi,)) for lo, hi in zip(bounds[:-1], bounds[1:])]
    return window_boxes(grid, edges[:-1, None], edges[1:, None]), specs


def _span_times(count: int, t_start: float, t_end: float, stagger: bool):
    if stagger:
        # offset lattice for held-out points so they avoid the training times
        gap = (t_end - t_start) / count
        return np.linspace(t_start + 0.5 * gap, t_end - 0.5 * gap, count)
    if count == 1:
        return np.array([0.5 * (t_start + t_end)])
    return np.linspace(t_start, t_end, count)


def _point_windows(grid: Grid, times):
    points = np.asarray(times, dtype=float).reshape(-1, 1)
    return (window_boxes(grid, points, points),
            [WindowSpec("point", (t,), (t,)) for t in points[:, 0].tolist()])


def _grid_windows(grid: Grid, count: int, time_windows: int, size: float,
                  t_start: float, t_end: float):
    """k^2 sensors on a lattice inset half a lattice cell from the walls,
    each observed over `time_windows` equal spans of [t_start, t_end].
    A zero `size` makes each sensor a point: the one spatial cell holding it."""
    k = math.isqrt(count)
    y_lo, y_hi = grid.bounds(1)
    x_lo, x_hi = grid.bounds(2)
    rel = (np.arange(k) + 0.5) / k
    ys = y_lo + rel * (y_hi - y_lo)
    xs = x_lo + rel * (x_hi - x_lo)
    edges = np.linspace(t_start, t_end, time_windows + 1).tolist()
    lows, highs, specs = [], [], []
    for y in ys.tolist():
        for x in xs.tolist():
            for w_lo, w_hi in zip(edges[:-1], edges[1:]):
                lows.append((w_lo, y - 0.5 * size, x - 0.5 * size))
                highs.append((w_hi, y + 0.5 * size, x + 0.5 * size))
                specs.append(WindowSpec("sensor", (w_lo, y, x), (w_hi, y, x)))
    return window_boxes(grid, lows, highs), specs


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
    qstar: np.ndarray | None
    # simulate's stage seconds; a loaded bundle's clock records nothing
    timings: Clock = field(default_factory=Clock, compare=False, repr=False)

    @property
    def sigma(self) -> float:
        return self.config["noise"]["sigma"]

    def observations(self) -> ObservationSet:
        """The training readings.  A sigma below SIGMA_MIN is kept as
        SIGMA_MIN and warns, at the caller of the command that reads them."""
        if self.sigma < SIGMA_MIN:
            warnings.warn(f"noise level {self.sigma} is below the numerical floor; "
                          f"inference uses sigma = {SIGMA_MIN}", UserWarning, stacklevel=3)
        return ObservationSet(tuple(self.windows), self.z, self.sigma)

    def heldout_observations(self) -> ObservationSet | None:
        if not self.heldout_windows:
            return None
        return ObservationSet(tuple(self.heldout_windows), self.heldout_z, self.sigma)


def _read_windows(windows, solution: Field) -> np.ndarray:
    return np.array([inner_product(w, solution) for w in windows])


def _truth_weights(config: Config) -> np.ndarray | None:
    """The truth weights of a linear-synth config, [features] count normals
    from the data seed; None under forward synthesis."""
    if config["inference"]["synth"] != "linear":
        return None
    rng = np.random.default_rng(derive_seed(config["seeds"]["data"], "qstar"))
    return rng.standard_normal(config["features"]["count"])


def simulate_data(config: Config) -> SimulatedData:
    clock, seeds, sigma = Clock(), config["seeds"], config["noise"]["sigma"]
    with clock.stage("setup"):
        grid, system, kernel, windows, specs, heldout_windows, heldout_specs = _setup(config)
    qstar = _truth_weights(config)
    with clock.stage("truth_draw"):
        if qstar is not None:
            basis = _inference_basis(config, grid, kernel)
            truth_forcing = forcing_from_weights(basis, qstar, grid)
        else:
            truth_basis = FeatureBasis.sample(config["features"]["truth_count"], grid.ndim,
                                              kernel, derive_seed(seeds["data"], "truth-basis"))
            _, truth_forcing = sample_prior_forcing(
                truth_basis, grid, derive_seed(seeds["data"], "truth-weights"))
    with clock.stage("readings"):
        if qstar is not None:
            # training and held-out windows are solved as one bank and projected together
            phi = assemble_phi(system.adjoint_march(windows + heldout_windows), basis)
            clean, heldout_clean = phi[:len(windows)] @ qstar, phi[len(windows):] @ qstar
            truth_solution = None
        else:
            truth_solution = system.forward(truth_forcing)
            clean = _read_windows(windows, truth_solution)
            heldout_clean = _read_windows(heldout_windows, truth_solution)
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
        truth_forcing=truth_forcing, truth_solution=truth_solution, qstar=qstar,
        timings=clock,
    )


# ---------------------------------------------------------------------------
# bundle files


def _csv_line(row) -> str:
    """One CSV line of Python scalars (`str` of a float is its repr)."""
    return ",".join(map(str, row)) + "\n"


def _write_csv(header, rows, path: Path) -> str:
    return write_hashed(path, [_csv_line(header), *map(_csv_line, rows)])


def _readings_rows(specs, z):
    return [[i, spec.label, *spec.lo, *spec.hi, float(value)]
            for i, (spec, value) in enumerate(zip(specs, z))]


def _write_json(payload, path: Path) -> str:
    return write_hashed(path, [json.dumps(payload, sort_keys=True, indent=2) + "\n"])


def _write_chunk(chunk, path: Path) -> str:
    return write_hashed(path, [chunk])


def _write_npy(array, path: Path) -> str:
    buffer = io.BytesIO()
    np.lib.format.write_array(buffer, array, version=(1, 0))
    return write_hashed(path, [buffer.getvalue()])


class _RunWriter:
    """The one writer of a command's output directory.  Opening it removes
    an earlier run's manifest before any file is written, so a directory
    without manifest.json is an unfinished run.  `write` writes a result by
    writer(*args, path), through write_hashed, timed into `stage`.  `close`
    writes timings.json (the clock, `total`, `peak_rss_mb`) and, given
    `system`, numerics.json (`numerics`, and the solver's step margin if it
    has one), both kept out of the manifest, and then the manifest."""

    def __init__(self, out_dir, clock: Clock):
        self.path, self.clock, self.files = Path(out_dir), clock, {}
        with clock.stage("write"):
            self.path.mkdir(parents=True, exist_ok=True)
            (self.path / "manifest.json").unlink(missing_ok=True)

    def write(self, name: str, writer, *args, stage: str = "write") -> None:
        with self.clock.stage(stage):
            self.files[name] = writer(*args, self.path / name)

    def close(self, system=None, numerics=(), **fields) -> Path:
        _write_json(dict(self.clock, total=self.clock.elapsed(), peak_rss_mb=resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024), self.path / "timings.json")  # KiB to MiB
        if system is not None:
            margin = {"step_margin": system.step_margin} if hasattr(system, "step_margin") else {}
            _write_json(dict(numerics, **margin), self.path / "numerics.json")
        _write_json(dict(fields, files=self.files), self.path / "manifest.json")
        return self.path


def save_bundle(data: SimulatedData, out_dir) -> Path:
    """Write the simulated dataset as a self-describing directory."""
    out = _RunWriter(out_dir, data.timings)
    axes = ("t",) if data.grid.ndim == 1 else ("t", "y", "x")
    header = ["index", "label", *(f"lo_{n}" for n in axes), *(f"hi_{n}" for n in axes), "z"]
    out.write("config.txt", _write_chunk, canonical_text(data.config))
    out.write("truth_forcing.fld", field_to_binary, data.truth_forcing)
    out.write("readings.csv", _write_csv, header, _readings_rows(data.window_specs, data.z))
    if data.truth_solution is not None:
        out.write("truth_solution.fld", field_to_binary, data.truth_solution)
    if data.heldout_windows:
        out.write("heldout.csv", _write_csv, header,
                  _readings_rows(data.heldout_specs, data.heldout_z))
    return out.close(system=data.system, kind=data.config.kind,
                     config_sha256=config_hash(data.config), seeds=data.config["seeds"],
                     synth=data.config["inference"]["synth"])


def _read_z_column(raw: bytes) -> np.ndarray:
    reader = csv.DictReader(io.StringIO(raw.decode("utf-8"), newline=""))
    return np.array([float(row["z"]) for row in reader])


def load_bundle(bundle_dir) -> SimulatedData:
    """Rebuild a SimulatedData from a bundle directory, parsing the bytes of
    each file read once and checked against its manifest hash."""
    bundle = Path(bundle_dir)
    manifest_path = bundle / "manifest.json"
    if not manifest_path.is_file():
        raise ConfigError(f"{bundle} is not a data bundle (no manifest.json)")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        listed = [(name, str(digest)) for name, digest in manifest["files"].items()]
        config_sha256 = manifest["config_sha256"]
    except (ValueError, TypeError, KeyError, AttributeError) as exc:
        raise ConfigError(f"{manifest_path} is not a bundle manifest ({exc!r})") from None
    raw = {}
    for name, expected in listed:
        target = bundle / name
        if not target.is_file():
            raise ConfigError(f"bundle file {name} is missing")
        raw[name] = target.read_bytes()
        actual = hashlib.sha256(raw[name]).hexdigest()
        if actual != expected:
            raise ConfigError(
                f"bundle file {name} does not match its manifest hash "
                f"(expected {expected[:12]}..., got {actual[:12]}...)")
    for name in ("config.txt", "readings.csv", "truth_forcing.fld"):
        if name not in raw:
            raise ConfigError(f"bundle manifest does not list {name}")

    config = parse_config(raw["config.txt"].decode("utf-8"))
    if config_hash(config) != config_sha256:
        raise ConfigError("bundle config does not match its manifest hash")
    grid, system, kernel, windows, specs, heldout_windows, heldout_specs = _setup(config)

    z = _read_z_column(raw["readings.csv"])
    if z.size != len(windows):
        raise ConfigError(
            f"readings.csv has {z.size} rows but the config builds {len(windows)} windows")
    if heldout_windows:
        if "heldout.csv" not in raw:
            raise ConfigError("bundle manifest does not list heldout.csv")
        heldout_z = _read_z_column(raw["heldout.csv"])
        if heldout_z.size != len(heldout_windows):
            raise ConfigError("heldout.csv row count does not match the config")
    else:
        heldout_z = np.zeros(0)

    truth_forcing = field_from_binary(raw["truth_forcing.fld"])
    truth_solution = raw.get("truth_solution.fld")
    truth_solution = None if truth_solution is None else field_from_binary(truth_solution)

    # the truth weights are redrawn from the hashed config: a manifest's
    # `qstar`, which older bundles carry, is never read
    return SimulatedData(
        config=config, grid=grid, system=system, kernel=kernel,
        windows=windows, window_specs=specs, z=z,
        heldout_windows=heldout_windows, heldout_specs=heldout_specs,
        heldout_z=heldout_z,
        truth_forcing=truth_forcing, truth_solution=truth_solution,
        qstar=_truth_weights(config),
    )


# ---------------------------------------------------------------------------
# inference driver


@dataclass
class InferenceOutcome:
    basis: FeatureBasis
    pipeline: PipelineResult
    forcing_mean: Field
    forcing_var: Field
    metrics: dict
    # pipeline stage, push-back and held-out scoring seconds, bank counts
    timings: Clock

    @property
    def posterior(self):
        return self.pipeline.posterior

    @property
    def phi(self):
        return self.pipeline.phi


def run_inference(data: SimulatedData) -> InferenceOutcome:
    """Adjoint pipeline and exact posterior on simulated data."""
    clock, config = Clock(), data.config
    with clock.stage("setup"):
        basis, obs = _inference_basis(config, data.grid, data.kernel), data.observations()
    result = run_pipeline(data.system, obs, basis, heldout=data.heldout_windows, clock=clock)
    with clock.stage("posterior_forcing"):
        mean_field, var_field = posterior_forcing(result.posterior, basis, data.grid)
    with clock.stage("forcing_scoring"):
        truth, mean = data.truth_forcing.values_flat, mean_field.values_flat
        coverage, z_median = forcing_calibration(mean, var_field.values_flat, truth)
        metrics = {
            "n": int(len(data.windows)),
            "features": int(basis.size),
            "sigma": float(obs.sigma),
            "train_rms_residual": float(np.sqrt(np.mean(
                (data.z - result.phi @ result.posterior.mean) ** 2))),
            "forcing_mse": float(np.mean((mean - truth) ** 2)),
            "forcing_coverage": coverage,
            "forcing_z_median": z_median,
        }
    if data.qstar is not None:
        metrics["qstar_max_abs_error_bayes"] = float(
            np.max(np.abs(result.posterior.mean - data.qstar)))
    heldout = data.heldout_observations()
    with clock.stage("heldout_scoring"):
        if heldout is not None:
            metrics["heldout_mse"] = predictive_mse(result.posterior, result.phi_heldout,
                                                    heldout.z)
            metrics["heldout_nll"] = predictive_nll(result.posterior, result.phi_heldout, heldout)
    return InferenceOutcome(basis, result, mean_field, var_field, metrics, clock)


def _slice_index(grid, t_value: float) -> int:
    """Time cell of a forcing slice at `t_value` on `grid`, refused unless
    the grid is a PDE's and covers `t_value`."""
    if grid.ndim != 3:
        raise ConfigError("--slice applies only to the pde kind")
    t_lo, t_hi = grid.bounds(0)
    if not t_lo <= t_value <= t_hi:
        raise DomainError(f"slice time {t_value} lies outside [{t_lo}, {t_hi}]")
    return int(np.argmin(np.abs(grid.axis_centers(0) - t_value)))


def save_inference(outcome: InferenceOutcome, data: SimulatedData, out_dir,
                   slice_t: float | None = None) -> Path:
    """Write the inference results and their manifest; with `slice_t`, also
    the spatial slice of the forcing mean at that time, `slice_t<V>.csv`."""
    out = _RunWriter(out_dir, outcome.timings)
    out.write("weights.csv", _write_csv, ["index", "mean", "sd"], (
        [m, *row] for m, row in enumerate(zip(outcome.posterior.mean.tolist(),
                                              outcome.posterior.sd.tolist()))))
    out.write("phi.csv", _write_csv, [f"m{j}" for j in range(outcome.phi.shape[1])],
              (row.tolist() for row in outcome.phi))
    out.write("posterior_root.npy", _write_npy, outcome.posterior.root)
    out.write("forcing_mean.fld", field_to_binary, outcome.forcing_mean)
    out.write("forcing_var.fld", field_to_binary, outcome.forcing_var)
    out.write("metrics.json", _write_json, outcome.metrics)
    if slice_t is not None:
        k = _slice_index(data.grid, slice_t)
        ys, xs = data.grid.axis_centers(1).tolist(), data.grid.axis_centers(2).tolist()
        out.write(f"slice_t{slice_t:g}.csv", _write_csv, ["iy", "ix", "y", "x", "value"], (
            [iy, ix, ys[iy], xs[ix], v]
            for iy, row in enumerate(outcome.forcing_mean.values[k].tolist())
            for ix, v in enumerate(row)))
    return out.close(system=data.system, numerics=outcome.posterior.numerics,
                     config_sha256=config_hash(data.config), basis_seed=outcome.basis.seed)


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
    timings: Clock


def _mcmc_settings(config: Config) -> dict:
    if "mcmc" in config:
        return dict(config["mcmc"])
    return {key: value for (section, key), value in _DEFAULTS.items() if section == "mcmc"}


def run_mcmc(data: SimulatedData) -> McmcOutcome:
    """Random-walk sampler on the same posterior the conjugate route solves.

    The chain starts at the conjugate posterior mean, so the run measures
    mixing cost rather than burn-in distance.  `timings` sets the exact
    route's stage seconds beside the sampler's tune, chain and chain
    statistics seconds and its minimum ESS per chain second.
    """
    clock, config = Clock(), data.config
    with clock.stage("setup"):
        basis, obs = _inference_basis(config, data.grid, data.kernel), data.observations()
    # infer's bank, held-out rows included: exact_mean equals its mean bit for bit
    pipeline = run_pipeline(data.system, obs, basis, heldout=data.heldout_windows, clock=clock)
    target = gaussian_log_target(pipeline.phi, data.z, obs.sigma)

    settings = _mcmc_settings(config)
    start = pipeline.posterior.mean
    scale = settings["proposal_scale"]
    with clock.stage("tune"):
        if scale == 0.0:
            scale = tune_proposal_scale(target, start,
                                        seed=derive_seed(settings["seed"], "tune"),
                                        batch_size=settings["batch_size"])
    cfg = ChainConfig(steps=settings["steps"], burn_in=settings["burn_in"],
                      proposal_scale=scale, seed=settings["seed"],
                      batch_size=settings["batch_size"])
    with clock.stage("chain"):
        result = rw_mh(target, start, cfg)
    with clock.stage("chain_statistics"):
        diag = chain_diagnostics(*result.runs(cfg.burn_in))
    exact_mean, exact_sd = pipeline.posterior.mean, pipeline.posterior.sd
    # e, the chain mean's error in exact sds: an i.i.d. mean of N draws has E[e^2] = 1/N
    error, sd_ratio = (diag.mean - exact_mean) / exact_sd, np.sqrt(diag.var) / exact_sd
    diagnostics = {
        "acceptance_rate": result.acceptance_rate,
        "proposal_scale": scale,
        "steps": cfg.steps,
        "burn_in": cfg.burn_in,
        "min_ess": float(diag.ess.min()),
        "max_rhat": float(diag.rhat.max()),
        "converged": diag.converged,
        "feature_count_warning": basis.size >= MCMC_FEATURE_WARN,
        "max_abs_mean_gap": float(np.max(np.abs(diag.mean - exact_mean))),
        "max_abs_mean_error_sd": float(np.max(np.abs(error))),
        "rms_mean_error_sd": float(np.sqrt(np.mean(error**2))),
        "reference_ess": float(1.0 / np.mean(error**2)),
        "sd_ratio_range": [float(sd_ratio.min()), float(sd_ratio.max())],
        "config_sha256": config_hash(config),
    }
    clock.update(ess_per_second=diagnostics["min_ess"] / clock["chain"],
                 max_c_drift=result.drift)
    return McmcOutcome(result=result, chain_mean=diag.mean, chain_sd=np.sqrt(diag.var),
                       exact_mean=exact_mean, exact_sd=exact_sd, ess=diag.ess, rhat=diag.rhat,
                       diagnostics=diagnostics, timings=clock)


def save_mcmc(outcome: McmcOutcome, data: SimulatedData, out_dir) -> Path:
    out = _RunWriter(out_dir, outcome.timings)
    columns = (outcome.chain_mean, outcome.chain_sd, outcome.exact_mean, outcome.exact_sd,
               outcome.ess, outcome.rhat)
    rows = [[m, *values] for m, values in enumerate(zip(*(c.tolist() for c in columns)))]
    out.write("trace.csv", chain_to_csv, outcome.result, stage="trace_write")
    outcome.timings["trace_bytes"] = (out.path / "trace.csv").stat().st_size
    out.write("chain_summary.csv", _write_csv, ["index", "mcmc_mean", "mcmc_sd", "exact_mean",
                                                "exact_sd", "ess", "rhat"], rows)
    out.write("diagnostics.json", _write_json, outcome.diagnostics)
    return out.close(config_sha256=config_hash(data.config))


# ---------------------------------------------------------------------------
# sweeps and scans


_SWEEP_HEADER = ["sensors", "features", "replicate", "heldout_mse", "forcing_mse",
                 "forcing_coverage", "seed_data", "seed_basis", "seed_noise"]


def _cell_config(config: Config, **updates) -> Config:
    """What a sweep cell's simulate and infer read: `config` without the
    sections they do not read, its other sections updated by `updates`."""
    return Config({name: {**body, **updates.get(name, {})} for name, body in config.data.items()
                   if name not in ("mcmc", "sweep", "scan")})


@functools.cache
def program_hash() -> str:
    """SHA-256 of the package's *.py sources, read in name order, once per
    process: a sweep cell written by other code is not finished."""
    digest = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _finished_metrics(cell: Path, hashes: dict) -> dict | None:
    """A cell's metrics, parsed from the bytes checked against its manifest,
    if that manifest names every one of `hashes` and hashes them; else None."""
    try:
        manifest = json.loads((cell / "manifest.json").read_bytes())
        raw = (cell / "metrics.json").read_bytes()
        if (all(manifest[key] == value for key, value in hashes.items())
                and manifest["files"]["metrics.json"] == hashlib.sha256(raw).hexdigest()):
            return json.loads(raw)
    except (OSError, ValueError, KeyError, TypeError):
        pass
    return None


def run_sweep(config: Config, out_dir, progress=None) -> tuple[int, int, dict]:
    """Sensors-by-features replicate sweep; each lattice cell is a run.

    Each replicate redraws the truth (data seed), the feature basis (basis
    seed) and the noise (noise seed); the truth depends only on the
    replicate, so every cell of a replicate inverts the same ground truth.
    Cell (S, M, R) is written to cells/sS_mM_rR/ by the one writer, and is
    finished while its manifest names its config hash and the program's
    (`program_hash`) and hashes its metrics.json.  results.csv and
    summary.json are written whole from every cell's metrics.  Returns
    (cells_run, cells_skipped, summary)."""
    if "sweep" not in config:
        raise ConfigError("missing [sweep] section for a sweep run")
    if config["sensors"].get("heldout_count", 0) < 1:
        raise ConfigError("a sweep needs 'heldout_count' in [sensors] for scoring")
    sweep, seeds, clock = config["sweep"], config["seeds"], Clock()
    out = _RunWriter(out_dir, clock)
    rows, ran = [], 0
    with clock.stage("cells"):
        for replicate, n_sensors, n_features in itertools.product(
                range(sweep["replicates"]), sweep["sensors"], sweep["features"]):
            cell_seeds = {"data": derive_seed(seeds["data"], "sweep-truth", replicate),
                          "basis": derive_seed(seeds["basis"], "sweep-basis", replicate),
                          "noise": derive_seed(seeds["noise"], "sweep-noise", replicate,
                                               n_sensors)}
            cfg = _cell_config(config, sensors={"count": n_sensors},
                               features={"count": n_features}, seeds=cell_seeds)
            cell = out.path / "cells" / f"s{n_sensors}_m{n_features}_r{replicate}"
            hashes = dict(config_sha256=config_hash(cfg), program_sha256=program_hash())
            metrics = _finished_metrics(cell, hashes)
            if metrics is None:
                data = simulate_data(cfg)
                outcome = run_inference(data)
                for name, value in outcome.timings.items():  # one clock for the cell
                    data.timings[name] = data.timings.get(name, 0) + value
                cell_out = _RunWriter(cell, data.timings)
                cell_out.write("metrics.json", _write_json, outcome.metrics)
                cell_out.close(**hashes)
                metrics, ran = outcome.metrics, ran + 1
                if progress is not None:
                    progress((n_sensors, n_features, replicate))
            rows.append([n_sensors, n_features, replicate, float(metrics["heldout_mse"]),
                         float(metrics["forcing_mse"]), float(metrics["forcing_coverage"]),
                         *cell_seeds.values()])

    out.write("results.csv", _write_csv, _SWEEP_HEADER, rows)
    summary = sweep_summary(rows)
    out.write("summary.json", _write_json, summary)
    clock.update(cells_run=ran, cells_skipped=len(rows) - ran)
    out.close(config_sha256=config_hash(config))
    return ran, len(rows) - ran, summary


def sweep_summary(rows) -> dict:
    """Median and central 95% band of held-out MSE per lattice cell, from
    the results.csv rows, as lists in _SWEEP_HEADER order."""
    cells: dict[tuple[int, int], list[float]] = {}
    for sensors, features, _, heldout_mse, *_ in rows:
        cells.setdefault((sensors, features), []).append(heldout_mse)
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


@dataclass
class ScanOutcome:
    # [(theta, nll)] sorted ascending by score, as grid_scan returns them
    results: list
    config_sha256: str
    timings: Clock


def scan_hyper(data: SimulatedData) -> ScanOutcome:
    """Lattice scan of kernel hyperparameters scored by posterior predictive
    negative log likelihood on the training readings.

    The adjoint bank and the feature draw are made once, and the bank is
    projected once per lattice lengthscale (the variance only scales Phi);
    each lattice point then costs one posterior solve, and no forward solve.
    """
    config = data.config
    if "scan" not in config:
        raise ConfigError("missing [scan] section for a hyperparameter scan")
    scan, clock = config["scan"], Clock()
    with clock.stage("setup"):
        basis, obs = _inference_basis(config, data.grid, data.kernel), data.observations()
    with clock.stage("adjoint_solves"):
        bank = data.system.adjoint_march(data.windows).kept()
    axes = ("lengthscale", "variance")
    projections = {}
    with clock.stage("lattice"):
        results = grid_scan(
            {key: scan[key][:2] for key in axes},
            {key: int(scan[key][2]) for key in axes},
            lambda theta: nll_score(theta, obs, bank, basis, projections))
    clock.update(bank_solves=bank.solves, lattice_points=len(results))
    return ScanOutcome(results, config_hash(config), clock)


def save_scan(outcome: ScanOutcome, out_dir) -> Path:
    out = _RunWriter(out_dir, outcome.timings)
    rows = [[theta["lengthscale"], theta["variance"], nll]
            for theta, nll in outcome.results]
    out.write("scan.csv", _write_csv, ["lengthscale", "variance", "nll"], rows)
    best_theta, best_nll = outcome.results[0]
    out.write("best.json", _write_json, {"lengthscale": best_theta["lengthscale"],
                                         "variance": best_theta["variance"], "nll": best_nll})
    return out.close(config_sha256=outcome.config_sha256)


# ---------------------------------------------------------------------------
# shift demo


def shift_demo_config(seed: int | None = None) -> Config:
    """Built-in shift scenario: offset 2 on a horizon of 10, 20 single-cell
    readings spanning [2, 8], noise sd 0.05, 200 grid cells."""
    base = 7 if seed is None else int(seed)
    text = ("[system]\nkind = shift\na = 2.0\nT = 10.0\n[grid]\ncells = 200\n"
            "[kernel]\nlengthscale = 1.0\nvariance = 1.0\n[features]\ncount = 200\n"
            "truth_count = 1000\n[sensors]\nrule = span\ncount = 20\nt_start = 2.0\n"
            "t_end = 8.0\n[noise]\nsigma = 0.05\n[seeds]\n" + "".join(
                f"{name} = {derive_seed(base, f'shift-demo-{name}')}\n"
                for name in ("data", "basis", "noise")))
    return parse_config(text)


def run_shift_demo(out_dir=None, seed: int | None = None) -> dict:
    """Simulate the shift scenario, run inference, and report the mean
    squared error between the noisy readings and the readings implied by
    the posterior mean forcing (its forward solution evaluated through the
    same observation windows).  The forcing-level error over the span the
    observations identify is reported alongside."""
    config, out = shift_demo_config(seed), None if out_dir is None else Path(out_dir)
    # each directory is written as its run ends, so its `total` times that run alone
    data = simulate_data(config)
    if out is not None:
        save_bundle(data, out / "bundle")
    outcome = run_inference(data)
    if out is not None:
        save_inference(outcome, data, out / "inference")

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
    if out is not None:
        _write_json(report, out / "demo.json")  # the demo's own report, outside both manifests
    return report
