import builtins
import csv
import hashlib
import io
import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from adjointgp import (
    PIPELINE_STAGES,
    ConfigError,
    DomainError,
    FeatureBasis,
    GridMismatchError,
    KernelParams,
    OdeSystem,
    PdeSystem,
    PosteriorQ,
    StabilityWarning,
    assemble_phi,
    cfl_limit,
    euler_stability_limit,
    field_from_binary,
    inner_product,
    nll_score,
    posterior_q,
    predictive_mse,
    predictive_nll,
)
from adjointgp.cli import _build_parser, main
from adjointgp.config import canonical_text, config_hash, parse_config
from adjointgp import experiments, inference
from adjointgp.experiments import (derive_seed, make_grid, make_system, run_inference,
                                   run_mcmc, run_shift_demo, run_sweep, save_scan, scan_hyper,
                                   simulate_data)
from oracles import row_bank

# the deliberately tiny bases used here for speed trip the small-basis
# warning; its trigger condition is pinned in test_inference.py
pytestmark = pytest.mark.filterwarnings(
    "ignore::adjointgp.MisspecificationWarning")

ODE_TEXT = """
[system]
kind = ode
p0 = 5.0
p1 = 1.0
p2 = 0.5
T = 10.0

[grid]
cells = 400

[kernel]
lengthscale = 0.7
variance = 4.0

[features]
count = 8

[sensors]
rule = tile
count = 20
heldout_count = 5

[noise]
sigma = 0.05

[seeds]
data = 0
basis = 1
noise = 2
"""

PDE_TEXT = """
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
cells_y = 12
cells_x = 12

[kernel]
lengthscale = 2.0
variance = 2.0

[features]
count = 10

[sensors]
rule = grid
count = 9
time_windows = 2
heldout_count = 4

[noise]
sigma = 0.05
"""


def _edit(base: str, **replacements) -> str:
    """Replace whole `key = value` lines; value None drops the line."""
    lines = []
    for line in base.splitlines():
        key = line.split("=")[0].strip() if "=" in line else None
        if key in replacements:
            if replacements[key] is not None:
                lines.append(f"{key} = {replacements[key]}")
            replacements.pop(key)
        else:
            lines.append(line)
    assert not replacements, f"keys not found: {set(replacements)}"
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# parsing and canonicalization


def test_canonical_text_round_trips():
    config = parse_config(ODE_TEXT)
    text = canonical_text(config)
    again = parse_config(text)
    assert canonical_text(again) == text
    assert config_hash(again) == config_hash(config)


def test_readme_ode_example_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"A complete ODE example:\n\n```\n(.*?)```", readme, re.S)
    assert block is not None, "README lost its complete ODE example"
    config = parse_config(block.group(1))
    assert config.kind == "ode"
    assert config["grid"]["cells"] == 2000
    assert config["inference"]["synth"] == "forward"
    system = make_system(config, make_grid(config))
    assert isinstance(system, OdeSystem)
    assert system.grid.num_cells == 2000


def test_hash_ignores_cosmetic_differences():
    messy = ODE_TEXT.replace("p0 = 5.0", "p0=5.00")
    messy = "# leading comment\n\n" + messy.replace("\n[grid]", "\n\n\n[grid]")
    assert config_hash(parse_config(messy)) == config_hash(parse_config(ODE_TEXT))


def test_hash_sees_semantic_differences():
    changed = _edit(ODE_TEXT, sigma="0.06")
    assert config_hash(parse_config(changed)) != config_hash(parse_config(ODE_TEXT))


def test_retired_keys_at_their_defaults_keep_the_text_and_hash():
    # method and ridge accept only their defaults, yet canonical_text still
    # writes both: config.txt and the hash of every bundle are what they were
    # while the maximum-likelihood route existed (the digest is pinned from then)
    text = canonical_text(parse_config(ODE_TEXT))
    assert "\n[inference]\nmethod = bayes\n" in text and "\nridge = 0.0\n" in text
    explicit = ODE_TEXT + "\n[inference]\nmethod = bayes\nridge = 0.0\n"
    assert canonical_text(parse_config(explicit)) == text
    assert config_hash(parse_config(ODE_TEXT)) == (
        "52bfc29fb9d983de8b31e2d2198fc346e283711a4ad0889b42747688c01bfea4")


def test_defaults_are_filled():
    config = parse_config(ODE_TEXT)
    assert config["features"]["truth_count"] == 1000
    assert config["sensors"]["size"] == 0.0
    assert config["sensors"]["time_windows"] == 1
    assert config["sensors"]["t_start"] == 0.0
    assert config["sensors"]["t_end"] == 10.0
    assert config["inference"]["method"] == "bayes"
    assert config["inference"]["synth"] == "forward"
    assert config["inference"]["samples"] == 100
    assert config["inference"]["ridge"] == 0.0


def test_seed_defaults_apply_without_section():
    no_seeds = "\n".join(line for line in ODE_TEXT.splitlines()
                         if line.strip() not in
                         ("[seeds]", "data = 0", "basis = 1", "noise = 2"))
    config = parse_config(no_seeds)
    assert config["seeds"] == {"data": 0, "basis": 1, "noise": 2}


def test_optional_sections_stay_absent_without_header():
    config = parse_config(ODE_TEXT)
    assert "mcmc" not in config
    assert "sweep" not in config
    assert "scan" not in config


def test_bare_mcmc_header_pulls_defaults():
    config = parse_config(ODE_TEXT + "\n[mcmc]\n")
    assert config["mcmc"] == {"steps": 20000, "burn_in": 4000, "batch_size": 5,
                              "proposal_scale": 0.0, "seed": 0}
    short = parse_config(ODE_TEXT + "\n[mcmc]\nsteps = 100\n")
    assert short["mcmc"]["burn_in"] == 20
    # four kept draws, the fewest batch means and split R-hat take
    assert parse_config(ODE_TEXT + "\n[mcmc]\nsteps = 4\n")["mcmc"]["burn_in"] == 0


@pytest.mark.parametrize("steps, burn_in", [(20000, 4000), (5000, 4000), (4000, 800), (3, None)])
def test_missing_burn_in_takes_the_one_filled_default(steps, burn_in):
    # the default 4000 below steps, else steps // 5; steps 3 keeps too few draws
    text = ODE_TEXT + f"\n[mcmc]\nsteps = {steps}\n"
    if burn_in is None:
        with pytest.raises(ConfigError, match="at least 4 draws"):
            parse_config(text)
    else:
        assert parse_config(text)["mcmc"]["burn_in"] == burn_in


@pytest.mark.parametrize("text,needle", [
    ("[nosuch]\nx = 1\n", "unknown section"),
    (ODE_TEXT.replace("sigma = 0.05", "sigma = 0.05\nwobble = 1"), "unknown key"),
    (ODE_TEXT.replace("p1 = 1.0", "p1 = 1.0\np1 = 2.0"), "duplicate key"),
    (ODE_TEXT + "\n[noise]\n", "duplicate section"),
    ("kind = ode\n", "outside any section"),
    (ODE_TEXT.replace("sigma = 0.05", "sigma ="), "empty value"),
    (ODE_TEXT.replace("cells = 400", "cells = many"), "must be an integer"),
    (ODE_TEXT.replace("T = 10.0", "T = ten"), "must be a number"),
    (ODE_TEXT.replace("T = 10.0", "T = inf"), "must be finite"),
    (ODE_TEXT.replace("[grid]", "[grid]\njunk line"), "expected 'key = value'"),
])
def test_parse_errors(text, needle):
    with pytest.raises(ConfigError, match=needle):
        parse_config(text)


@pytest.mark.parametrize("text,needle", [
    (_edit(ODE_TEXT, kind="rocket"), "must be one of"),
    (ODE_TEXT.replace("p0 = 5.0", "p0 = 5.0\nvelocity_x = 1.0"), "does not apply"),
    (_edit(ODE_TEXT, p1=None), "missing required key 'p1'"),
    (_edit(ODE_TEXT, p2="0.0"), "must be nonzero"),
    (_edit(ODE_TEXT, T="-1.0"), "must be positive"),
    (PDE_TEXT.replace("cells_t = 25", "cells_t = 25\ncells = 100"),
     "applies only to one-dimensional"),
    (_edit(PDE_TEXT, cells_x=None), "missing required key 'cells_x'"),
    (ODE_TEXT.replace("cells = 400", "cells_t = 400"), "applies only to kind 'pde'"),
    (_edit(PDE_TEXT, x_min="10.0"), "must be below"),
    (_edit(PDE_TEXT, diffusivity="0.0"), "must be positive"),
])
def test_kind_specific_rules(text, needle):
    with pytest.raises(ConfigError, match=needle):
        parse_config(text)


ODE_SENSOR_BLOCK = "rule = tile\ncount = 20\nheldout_count = 5"
PDE_SENSOR_BLOCK = "rule = grid\ncount = 9\ntime_windows = 2\nheldout_count = 4"


def _sensors(base: str, block: str) -> str:
    old = ODE_SENSOR_BLOCK if base is ODE_TEXT else PDE_SENSOR_BLOCK
    assert old in base
    return base.replace(old, block)


@pytest.mark.parametrize("text,needle", [
    (_edit(ODE_TEXT, rule="diagonal"), "must be one of"),
    (_sensors(ODE_TEXT, "rule = list"), "missing required key 'times'"),
    (_sensors(ODE_TEXT, "rule = list\ncount = 20\ntimes = 1.0,2.0"),
     "conflicts with rule 'list'"),
    (_sensors(ODE_TEXT, "rule = list\ntimes = 1.0,2.0\nheldout_count = 5"),
     "requires rule"),
    (_sensors(PDE_TEXT, "rule = list\ntimes = 1.0"), "one-dimensional"),
    (_edit(ODE_TEXT, rule="grid"), "applies only to kind 'pde'"),
    (_edit(PDE_TEXT, rule="tile"), "requires sensor rule 'grid'"),
    (PDE_TEXT.replace("count = 9", "count = 24"), "perfect square"),
    (_edit(PDE_TEXT, heldout_count="5"), "perfect square"),
    (ODE_TEXT.replace("count = 20", "count = 20\nt_start = 7.0\nt_end = 3.0"),
     "t_start < t_end"),
    (ODE_TEXT.replace("count = 20", "count = 0"), "must be positive"),
])
def test_sensor_rules(text, needle):
    with pytest.raises(ConfigError, match=needle):
        parse_config(text)


@pytest.mark.parametrize("text,needle", [
    (ODE_TEXT.replace("variance = 4.0",
                      "variance = 4.0\nlengthscale_per_axis = 1.0,2.0"),
     "reserved"),
    (_edit(ODE_TEXT, lengthscale="0.0"), "must be positive"),
    (_edit(ODE_TEXT, variance="-1.0"), "must be positive"),
    (ODE_TEXT.replace("count = 8", "count = 0"), "must be positive"),
    (ODE_TEXT.replace("count = 8", "count = 8\ntruth_count = -5"), "must be positive"),
    (_edit(ODE_TEXT, sigma="-0.1"), "must be nonnegative"),
    (ODE_TEXT + "\n[inference]\nmethod = magic\n", "must be 'bayes'"),
    (ODE_TEXT + "\n[inference]\nmethod = ml\n", "maximum-likelihood route was removed"),
    (ODE_TEXT + "\n[inference]\nmethod = both\n", "maximum-likelihood route was removed"),
    (ODE_TEXT + "\n[inference]\nsynth = copy\n", "must be one of"),
    (ODE_TEXT + "\n[inference]\nridge = -1.0\n", "must be 0.0"),
    (ODE_TEXT + "\n[inference]\nridge = 0.5\n", "maximum-likelihood route was removed"),
    (ODE_TEXT + "\n[inference]\nsamples = 0\n", "must be positive"),
    (ODE_TEXT + "\n[mcmc]\nsteps = 100\nburn_in = 100\n", "burn_in"),
    (ODE_TEXT + "\n[mcmc]\nproposal_scale = -0.5\n", "must be nonnegative"),
    (ODE_TEXT + "\n[mcmc]\nsteps = 10\nburn_in = 8\n", "at least 4 draws"),
    (ODE_TEXT + "\n[mcmc]\nsteps = 3\n", "at least 4 draws"),
    (ODE_TEXT + "\n[sweep]\nsensors = 10\nfeatures = 5\n",
     "missing required key 'replicates'"),
    (ODE_TEXT + "\n[sweep]\nsensors = 0,10\nfeatures = 5\nreplicates = 2\n",
     "positive integers"),
    (PDE_TEXT + "\n[sweep]\nsensors = 2,4\nfeatures = 5\nreplicates = 2\n",
     "perfect squares"),
    (ODE_TEXT + "\n[sweep]\nsensors = 5,10,5\nfeatures = 5\nreplicates = 1\n",
     "'sensors' in \\[sweep\\] repeats a value"),
    (ODE_TEXT + "\n[sweep]\nsensors = 5\nfeatures = 8,8\nreplicates = 1\n",
     "'features' in \\[sweep\\] repeats a value"),
    (ODE_TEXT + "\n[scan]\nlengthscale = 1.0\nvariance = 1.0,2.0,2\n",
     "lo,hi,steps"),
    (ODE_TEXT + "\n[scan]\nlengthscale = 2.0,1.0,3\nvariance = 1.0,2.0,2\n",
     "lo,hi,steps"),
    (ODE_TEXT + "\n[scan]\nlengthscale = 0.5,2.0,2.5\nvariance = 1.0,2.0,2\n",
     "steps a whole number"),
    (ODE_TEXT + "\n[scan]\nlengthscale = 0.5,2.0,inf\nvariance = 1.0,2.0,2\n",
     "steps a whole number"),
    (ODE_TEXT + "\n[scan]\nlengthscale = 1.0,1.0,3\nvariance = 1.0,2.0,2\n",
     "'lengthscale' in \\[scan\\] has lo == hi"),
    (ODE_TEXT + "\n[scan]\nlengthscale = 1.0,2.0,2\nvariance = 2.0,2.0,2\n",
     "'variance' in \\[scan\\] has lo == hi"),
    (ODE_TEXT + "\n[scan]\nlengthscale = 1.0,2.0,2\nvariance = 1.0,2.0,2\n"
     "samples = 0\n", "must be positive"),
])
def test_value_validation(text, needle):
    with pytest.raises(ConfigError, match=needle):
        parse_config(text)


# ---------------------------------------------------------------------------
# simulation semantics


def test_zero_noise_readings_match_windowed_truth():
    config = parse_config(_edit(ODE_TEXT, sigma="0.0"))
    data = simulate_data(config)
    expected = [inner_product(w, data.truth_solution) for w in data.windows]
    np.testing.assert_allclose(data.z, expected, rtol=1e-12)


def test_truth_forcing_has_prior_scale():
    # spatial mean square over many lengthscales estimates the marginal
    # variance tau^2 = 4
    config = parse_config(_edit(ODE_TEXT, lengthscale="0.2"))
    data = simulate_data(config)
    ms = float(np.mean(data.truth_forcing.values_flat ** 2))
    assert 0.5 * 4.0 < ms < 1.5 * 4.0


def test_simulate_is_deterministic(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(ODE_TEXT, encoding="utf-8")
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", str(cfg), "--out", str(a)]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(b)]) == 0
    names = sorted(p.name for p in a.iterdir())
    assert names == ["config.txt", "heldout.csv", "manifest.json", "numerics.json",
                     "readings.csv", "timings.json", "truth_forcing.fld", "truth_solution.fld"]
    for name in names:
        if name != "timings.json":  # wall clocks differ run to run
            assert (a / name).read_bytes() == (b / name).read_bytes(), name
    timings = json.loads((a / "timings.json").read_text())
    assert {"setup", "truth_draw", "readings", "write", "total", "peak_rss_mb"} == set(timings)


def test_derive_seed_refuses_no_parts_and_float_parts():
    with pytest.raises(ValueError, match="at least one part"):
        derive_seed()
    with pytest.raises(TypeError, match="must be int or str, got float"):
        derive_seed(3, 2.5)
    # a numpy integer is the int it holds; a string is hashed, not read as a number
    assert derive_seed(3, "x") == derive_seed(np.int64(3), "x") != derive_seed(3, "y")
    assert derive_seed(3) != derive_seed("3")


# ---------------------------------------------------------------------------
# command-line pipelines


def _simulate(tmp_path, text, name="exp"):
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(text, encoding="utf-8")
    bundle = tmp_path / f"{name}_bundle"
    assert main(["simulate", "--config", str(cfg), "--out", str(bundle)]) == 0
    return bundle


def test_array_rows_are_written_as_the_per_value_formatter_writes_them(tmp_path):
    # phi.csv: each value as repr of the builtin float, the shortest text
    # that reads back to the same bits, at every exponent and at the edges
    rng = np.random.default_rng(3)
    phi = np.vstack([rng.standard_normal((6, 5)) * 10.0 ** rng.integers(-300, 300, (6, 5)),
                     [0.0, -0.0, 1.0, np.inf, 5e-324]])
    header = [f"m{j}" for j in range(5)]
    digest = experiments._write_csv(header, phi.tolist(), tmp_path / "phi.csv")
    expected = "".join([",".join(header) + "\n"] + [
        ",".join(repr(float(v)) for v in row) + "\n" for row in phi]).encode()
    assert (tmp_path / "phi.csv").read_bytes() == expected
    assert digest == hashlib.sha256(expected).hexdigest()
    assert expected.splitlines()[-1] == b"0.0,-0.0,1.0,inf,5e-324"


LINEAR = "\n[inference]\nsynth = linear\n"


@pytest.mark.parametrize("text", [PDE_TEXT, ODE_TEXT + LINEAR], ids=["pde", "ode-linear"])
def test_infer_scores_the_forcing_band_from_the_fields_it_writes(tmp_path, text):
    # forcing_coverage and forcing_z_median follow from the written mean and
    # variance fields and the bundle's truth field
    bundle, out = _simulate(tmp_path, text), tmp_path / "inferred"
    assert main(["infer", str(bundle), "--out", str(out)]) == 0
    metrics = json.loads((out / "metrics.json").read_text(encoding="utf-8"))
    mean, var, truth = (field_from_binary(path).values_flat for path in (
        out / "forcing_mean.fld", out / "forcing_var.fld", bundle / "truth_forcing.fld"))
    assert (var > 0).all()
    z = np.abs(truth - mean) / np.sqrt(var)
    assert metrics["forcing_coverage"] == np.mean(z <= 1.96)
    assert metrics["forcing_z_median"] == pytest.approx(np.median(z), rel=1e-15)


def _linear_synth_coverage(text: str, seeds: int) -> float:
    """Mean forcing_coverage of `text` plus synth = linear over seeds s <
    `seeds`: data s, basis 1000 + s and noise 2000 + s."""
    return np.mean([run_inference(simulate_data(parse_config(
        text + f"\n[seeds]\ndata = {s}\nbasis = {1000 + s}\nnoise = {2000 + s}\n" + LINEAR)))
        .metrics["forcing_coverage"] for s in range(seeds)])


def test_the_forcing_band_covers_a_linear_synth_truth_drawn_from_its_prior():
    # a linear-synth truth is a draw from the basis's own prior, so the model
    # is exact and each cell's 95% band covers it with probability 0.95.
    # Over seeds 0-399 of this config the mean coverage was 0.952 with a
    # per-seed sd of 0.068, so the mean of 40 seeds has a standard error near
    # 0.011: ten disjoint 40-seed means fell in 0.922-0.970.  The band is
    # about four standard errors; a variance field a quarter of the right
    # one covers 0.70 here
    without_seeds = ODE_TEXT[:ODE_TEXT.index("[seeds]")]
    assert _linear_synth_coverage(without_seeds, 40) == pytest.approx(0.95, abs=0.04)


def test_the_pde_forcing_band_covers_a_linear_synth_truth_drawn_from_its_prior():
    # the same check on the (t, y, x) grid, whose variance is read one time
    # cell and one block of y rows at a time.  Over seeds 0-999 the mean
    # coverage was 0.948 with a per-seed sd of 0.099, 0.6 standard errors
    # from 0.95; ten disjoint 100-seed means fell in 0.932-0.957, and the
    # standard error of one is near 0.010, so the band is about four.  A
    # variance field a quarter of the right one covers 0.68 here
    assert _linear_synth_coverage(PDE_TEXT, 100) == pytest.approx(0.95, abs=0.04)


def test_infer_command_recovers_linear_synth_weights(tmp_path, capsys):
    text = _edit(ODE_TEXT, sigma="1e-6") + LINEAR
    bundle = _simulate(tmp_path, text)
    out = tmp_path / "inferred"
    assert main(["infer", str(bundle), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "outputs ->" in stdout
    for name in ("weights.csv", "phi.csv", "posterior_root.npy", "forcing_mean.fld",
                 "forcing_var.fld", "metrics.json",
                 "timings.json", "manifest.json"):
        assert (out / name).exists(), name

    qstar = experiments.load_bundle(bundle).qstar
    with open(out / "weights.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    mean = np.array([float(r["mean"]) for r in rows])
    np.testing.assert_allclose(mean, qstar, atol=1e-4)

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config_sha256"] == config_hash(parse_config(text))

    # --jobs is gone: every command that once took it now refuses it
    with pytest.raises(SystemExit) as exc:
        main(["infer", str(bundle), "--out", str(tmp_path / "inferred_jobs"), "--jobs", "3"])
    assert exc.value.code == 2
    parser = _build_parser()
    for argv in (["mcmc", "b", "--out", "o"], ["sweep", "--config", "c", "--out", "o"],
                 ["scan-hyper", "b", "--out", "o"], ["shift-demo"]):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(argv + ["--jobs", "3"])
        assert exc.value.code == 2


def test_infer_writes_numerics_and_stage_timings(tmp_path, capsys):
    bundle = _simulate(tmp_path, PDE_TEXT)
    outs = [tmp_path / "first", tmp_path / "second"]
    for out in outs:
        assert main(["infer", str(bundle), "--out", str(out)]) == 0
    assert "bank_rows_training = 18" in capsys.readouterr().out
    numerics = json.loads((outs[0] / "numerics.json").read_text())
    assert set(numerics) == {"jitter", "logdet_precision", "residual_norm", "step_margin",
                             "condition_bounds"}
    assert numerics["jitter"] == 0.0
    assert (outs[0] / "numerics.json").read_bytes() == (outs[1] / "numerics.json").read_bytes()
    timings = json.loads((outs[0] / "timings.json").read_text())
    assert set(timings) == {*PIPELINE_STAGES, "setup", "posterior_forcing", "forcing_scoring",
                            "heldout_scoring", "write", "bank_rows_training",
                            "bank_rows_heldout", "bank_solves", "bank_cell_steps", "total",
                            "peak_rss_mb"}
    assert timings["peak_rss_mb"] > 0
    assert 0 < timings["write"] < timings["total"]
    assert (timings["bank_rows_training"], timings["bank_rows_heldout"]) == (18, 8)
    # a PDE bank marches one impulse per sensor box: 9 training, 4 held out
    assert timings["bank_solves"] == 13
    manifest = json.loads((outs[0] / "manifest.json").read_text())
    assert not {"numerics.json", "timings.json"} & set(manifest["files"])


def test_infer_records_the_step_margin_of_its_solver(tmp_path):
    # dt over the explicit limit, in numerics.json; a shift has no limit
    for name, text in (("ode", ODE_TEXT), ("pde", PDE_TEXT)):
        config = parse_config(text)
        grid = make_grid(config)
        system = make_system(config, grid)
        limit = (euler_stability_limit(system.params) if name == "ode"
                 else cfl_limit(system.params, grid))
        out = tmp_path / f"{name}_inferred"
        assert main(["infer", str(_simulate(tmp_path, text, name)), "--out", str(out)]) == 0
        numerics = json.loads((out / "numerics.json").read_text())
        assert numerics["step_margin"] == grid.spacing[0] / limit < 1.0
    run_shift_demo(tmp_path / "shift")
    assert "step_margin" not in json.loads(
        (tmp_path / "shift" / "inference" / "numerics.json").read_text())


def test_simulate_records_the_step_margin_of_its_solver(tmp_path):
    # dt over the explicit limit, in the bundle's numerics.json and outside
    # its manifest; a shift has no limit, so its bundle omits the key
    for name, text in (("ode", ODE_TEXT), ("pde", PDE_TEXT)):
        config = parse_config(text)
        grid = make_grid(config)
        system = make_system(config, grid)
        limit = (euler_stability_limit(system.params) if name == "ode"
                 else cfl_limit(system.params, grid))
        bundle = _simulate(tmp_path, text, name)
        numerics = json.loads((bundle / "numerics.json").read_text())
        assert numerics == {"step_margin": grid.spacing[0] / limit}
        assert "numerics.json" not in json.loads((bundle / "manifest.json").read_text())["files"]
    run_shift_demo(tmp_path / "shift")
    assert json.loads((tmp_path / "shift" / "bundle" / "numerics.json").read_text()) == {}


def test_ode_infer_counts_the_solves_its_bank_marched(tmp_path):
    # 20 training tiles of 20 cells and 5 held-out tiles of 80 cells are two
    # shapes; each is marched once over all 400 cells, from the last tile
    bundle = _simulate(tmp_path, ODE_TEXT)
    out = tmp_path / "inferred"
    assert main(["infer", str(bundle), "--out", str(out)]) == 0
    timings = json.loads((out / "timings.json").read_text())
    assert (timings["bank_rows_training"], timings["bank_rows_heldout"]) == (20, 5)
    assert (timings["bank_solves"], timings["bank_cell_steps"]) == (2, 800)


def test_infer_records_the_jitter_of_a_singular_design(tmp_path, monkeypatch):
    # identical huge bank rows make Phi rank one at a huge scale, so the
    # posterior precision factors only with jitter
    bundle = _simulate(tmp_path, ODE_TEXT)

    def flat_bank(self, functionals):
        return row_bank(np.full((len(functionals), self.grid.num_cells), 1e8), self.grid)

    monkeypatch.setattr(OdeSystem, "adjoint_march", flat_bank)
    out = tmp_path / "singular"
    assert main(["infer", str(bundle), "--out", str(out)]) == 0
    assert json.loads((out / "numerics.json").read_text())["jitter"] > 0.0


def test_infer_marches_training_and_heldout_windows_as_one_bank(monkeypatch):
    data = simulate_data(parse_config(PDE_TEXT))
    march = PdeSystem.adjoint_march
    calls = []

    def counting_bank(self, functionals):
        calls.append(len(functionals))
        return march(self, functionals)

    monkeypatch.setattr(PdeSystem, "adjoint_march", counting_bank)
    outcome = run_inference(data)
    assert calls == [len(data.windows) + len(data.heldout_windows)]
    # the same scores as a training bank and a held-out bank marched apart
    obs, heldout = data.observations(), data.heldout_observations()
    phi = assemble_phi(march(data.system, obs.windows), outcome.basis)
    post = posterior_q(phi, obs.z, obs.sigma)
    phi_h = assemble_phi(march(data.system, heldout.windows), outcome.basis)
    assert outcome.metrics["heldout_mse"] == pytest.approx(
        predictive_mse(post, phi_h, heldout.z), rel=1e-12, abs=0)
    assert outcome.metrics["heldout_nll"] == pytest.approx(
        predictive_nll(post, phi_h, heldout), rel=1e-12, abs=0)


@pytest.mark.parametrize("text", [ODE_TEXT, PDE_TEXT], ids=["ode", "pde"])
def test_mcmc_exact_mean_is_the_infer_posterior_mean_bit_for_bit(text):
    # both march infer's bank, held-out windows included, and project it the
    # same way; chain_summary.csv and weights.csv then print the same means
    data = simulate_data(parse_config(text + "\n[mcmc]\nsteps = 300\nburn_in = 100\n"))
    assert np.array_equal(run_mcmc(data).exact_mean, run_inference(data).posterior.mean)


def test_sweep_command_is_resumable(tmp_path, capsys):
    text = ODE_TEXT + "\n[sweep]\nsensors = 10\nfeatures = 5\nreplicates = 2\n"
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(text, encoding="utf-8")
    out = tmp_path / "sweep_out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    first = capsys.readouterr().out
    assert "ran 2 cells, skipped 0" in first
    assert "sensors=10,features=5" in first
    with open(out / "results.csv", newline="") as fh:
        assert len(list(csv.reader(fh))) == 3
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    assert "ran 0 cells, skipped 2" in capsys.readouterr().out


LATTICE = "\n[sweep]\nsensors = 10,20\nfeatures = 5\nreplicates = 2\n"


def _sweep_bytes(out):
    return {name: (out / name).read_bytes() for name in ("results.csv", "summary.json")}


def test_sweep_results_carry_each_cell_s_forcing_scores(tmp_path):
    # the sweep reports calibration beside the errors: each row's scores are
    # its cell's metrics.json values, read back to the same bits
    out = tmp_path / "sweep"
    run_sweep(parse_config(ODE_TEXT + LATTICE), out)
    with open(out / "results.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == ["sensors", "features", "replicate", "heldout_mse", "forcing_mse",
                             "forcing_coverage", "seed_data", "seed_basis", "seed_noise"]
    assert len(rows) == 4
    for row in rows:
        cell = out / "cells" / f"s{row['sensors']}_m{row['features']}_r{row['replicate']}"
        metrics = json.loads((cell / "metrics.json").read_bytes())
        for name in ("heldout_mse", "forcing_mse", "forcing_coverage"):
            assert float(row[name]) == metrics[name]


@pytest.mark.parametrize("torn", ["metrics.json", "timings.json", "manifest.json"])
def test_sweep_reruns_exactly_the_cells_an_interruption_left_unfinished(tmp_path, monkeypatch,
                                                                        torn):
    # a kill while the second cell writes `torn` leaves a half-written file
    # and no cell manifest: the rerun runs that cell and the ones after it,
    # and rebuilds the bytes of an uninterrupted run
    config = parse_config(ODE_TEXT + LATTICE)
    whole, out = tmp_path / "whole", tmp_path / "out"
    assert run_sweep(config, whole)[:2] == (4, 0)
    write_hashed = experiments.write_hashed

    def tearing(path, chunks):
        if Path(path).parent.name == "s20_m5_r0" and Path(path).name == torn:
            Path(path).write_bytes(b'{"config_sha256"')
            raise _Interrupted
        return write_hashed(path, chunks)

    monkeypatch.setattr(experiments, "write_hashed", tearing)
    with pytest.raises(_Interrupted):
        run_sweep(config, out)
    monkeypatch.undo()
    assert not (out / "manifest.json").exists()
    ran = []
    assert run_sweep(config, out, progress=ran.append)[:2] == (3, 1)
    assert ran == [(20, 5, 0), (10, 5, 1), (20, 5, 1)]
    assert _sweep_bytes(out) == _sweep_bytes(whole)


def test_sweep_reruns_a_cell_whose_metrics_no_longer_match_its_manifest(tmp_path):
    config, out = parse_config(ODE_TEXT + LATTICE), tmp_path / "sweep"
    run_sweep(config, out)
    expected, metrics = _sweep_bytes(out), out / "cells" / "s10_m5_r1" / "metrics.json"
    kept = metrics.read_bytes()
    metrics.write_bytes(kept.replace(b'"heldout_mse": ', b'"heldout_mse": 1'))
    ran = []
    assert run_sweep(config, out, progress=ran.append)[:2] == (1, 3)
    assert ran == [(10, 5, 1)]
    assert metrics.read_bytes() == kept and _sweep_bytes(out) == expected


def test_a_sweep_cell_written_by_other_code_is_not_finished(tmp_path, monkeypatch):
    # each cell's manifest names the program that wrote it: under another
    # program every cell reruns, to the same bytes, and the same program
    # then finds them all finished
    config, out = parse_config(ODE_TEXT + LATTICE), tmp_path / "sweep"
    run_sweep(config, out)
    expected = _sweep_bytes(out)
    manifest = json.loads((out / "cells" / "s10_m5_r0" / "manifest.json").read_bytes())
    assert manifest["program_sha256"] == experiments.program_hash()
    monkeypatch.setattr(experiments, "program_hash", lambda: "0" * 64)
    assert run_sweep(config, out)[:2] == (4, 0)
    assert _sweep_bytes(out) == expected
    monkeypatch.undo()
    assert run_sweep(config, out)[:2] == (4, 0)
    assert run_sweep(config, out)[:2] == (0, 4)


@pytest.mark.parametrize("edit, counts", [
    (lambda text: _edit(text, sigma="0.5"), (4, 0)),
    (lambda text: text.replace("features = 5", "features = 5,8"), (4, 4)),
    (lambda text: text + "\n[mcmc]\nsteps = 500\n", (0, 4)),
], ids=["sigma", "more-features", "mcmc-section"])
def test_a_sweep_rerun_on_an_edited_config_equals_a_fresh_run(tmp_path, edit, counts):
    # a cell is keyed by the config simulate and infer read: a new noise
    # level reruns every cell, new feature counts run only their own cells,
    # and a section neither reads runs none
    out = tmp_path / "sweep"
    run_sweep(parse_config(ODE_TEXT + LATTICE), out)
    config = parse_config(edit(ODE_TEXT + LATTICE))
    assert run_sweep(config, out)[:2] == counts
    run_sweep(config, tmp_path / "fresh")
    assert _sweep_bytes(out) == _sweep_bytes(tmp_path / "fresh")


def test_sweep_replaces_a_results_file_of_another_program(tmp_path, capsys):
    # results.csv is written whole from the cells, as every command writes
    # its own files: a foreign or journal-format file is replaced
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(ODE_TEXT + LATTICE, encoding="utf-8")
    out, fresh = tmp_path / "sweep_out", tmp_path / "fresh"
    out.mkdir()
    (out / "results.csv").write_bytes(b"index,z\n0,0.5\n1,0.2")
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    assert "ran 4 cells, skipped 0" in capsys.readouterr().out
    run_sweep(parse_config(ODE_TEXT + LATTICE), fresh)
    assert _sweep_bytes(out) == _sweep_bytes(fresh)


def test_sweep_cells_time_simulate_and_infer_on_one_clock(tmp_path):
    out = tmp_path / "sweep"
    run_sweep(parse_config(ODE_TEXT + LATTICE), out)
    sweep = json.loads((out / "timings.json").read_text(encoding="utf-8"))
    assert set(sweep) == {"cells", "write", "cells_run", "cells_skipped", "total",
                          "peak_rss_mb"}
    cells = sorted((out / "cells").iterdir())
    assert [cell.name for cell in cells] == ["s10_m5_r0", "s10_m5_r1", "s20_m5_r0", "s20_m5_r1"]
    for cell in cells:
        timings = json.loads((cell / "timings.json").read_text(encoding="utf-8"))
        assert {"setup", "truth_draw", "readings", "adjoint_solves", "posterior_forcing",
                "heldout_scoring", "write", "total", "peak_rss_mb"} <= set(timings)
        stages = sum(v for k, v in timings.items() if isinstance(v, float)
                     and k not in ("total", "peak_rss_mb"))
        assert 0 < stages <= timings["total"] < sweep["total"]


SWEEP_SECTION = "\n[sweep]\nsensors = 10\nfeatures = 5\nreplicates = 1\n"


@pytest.mark.parametrize("text, needle", [
    (ODE_TEXT, "missing [sweep] section"),
    (_edit(ODE_TEXT, heldout_count=None) + SWEEP_SECTION, "needs 'heldout_count'"),
], ids=["no-sweep-section", "no-heldout"])
def test_sweep_refuses_a_config_it_cannot_score(tmp_path, capsys, text, needle):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(text, encoding="utf-8")
    out = tmp_path / "sweep_out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and needle in err
    assert not out.exists()


def test_mcmc_command_writes_chain_outputs(tmp_path, capsys):
    text = (_edit(ODE_TEXT, heldout_count=None).replace("count = 8", "count = 5")
            + "\n[mcmc]\nsteps = 4000\nburn_in = 500\nseed = 1\n")
    bundle = _simulate(tmp_path, text)
    out = tmp_path / "chain"
    assert main(["mcmc", str(bundle), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "acceptance_rate" in stdout and "max_rhat" in stdout
    for name in ("chain_summary.csv", "trace.csv", "diagnostics.json",
                 "manifest.json"):
        assert (out / name).exists(), name
    diag = json.loads((out / "diagnostics.json").read_text())
    assert {"acceptance_rate", "converged", "proposal_scale"} <= set(diag)
    timings = json.loads((out / "timings.json").read_text())
    assert {"adjoint_solves", "phi_assembly", "posterior_solve", "tune", "chain",
            "chain_statistics", "ess_per_second", "max_c_drift", "trace_write", "trace_bytes",
            "write", "total", "peak_rss_mb"} <= set(timings)
    assert timings["chain_statistics"] > 0
    assert timings["trace_bytes"] == (out / "trace.csv").stat().st_size
    manifest = json.loads((out / "manifest.json").read_text())
    assert "timings.json" not in manifest["files"]
    again = tmp_path / "chain_again"
    assert main(["mcmc", str(bundle), "--out", str(again)]) == 0
    for name in ("trace.csv", "chain_summary.csv", "diagnostics.json", "manifest.json"):
        assert (again / name).read_bytes() == (out / name).read_bytes(), name


def test_mcmc_reports_the_chain_s_error_against_the_exact_answer(tmp_path):
    # e = (chain mean - exact mean) / exact sd per coordinate, recomputed
    # from the repr floats of chain_summary.csv
    text = ODE_TEXT.replace("count = 8", "count = 5") + "\n[mcmc]\nsteps = 3000\nburn_in = 500\n"
    bundle, out = _simulate(tmp_path, text), tmp_path / "chain"
    assert main(["mcmc", str(bundle), "--out", str(out)]) == 0
    with open(out / "chain_summary.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    mean, sd, exact_mean, exact_sd = (np.array([float(row[name]) for row in rows]) for name in
                                      ("mcmc_mean", "mcmc_sd", "exact_mean", "exact_sd"))
    error, ratio = (mean - exact_mean) / exact_sd, sd / exact_sd
    diag = json.loads((out / "diagnostics.json").read_text(encoding="utf-8"))
    assert diag["max_abs_mean_error_sd"] == np.max(np.abs(error))
    assert diag["rms_mean_error_sd"] == np.sqrt(np.mean(error**2))
    assert diag["reference_ess"] == 1.0 / np.mean(error**2)
    assert diag["sd_ratio_range"] == [ratio.min(), ratio.max()]


def test_mcmc_command_warns_on_large_bases(tmp_path, capsys):
    text = ODE_TEXT.replace("count = 8", "count = 50") + "\n[mcmc]\nsteps = 1500\nburn_in = 100\n"
    bundle = _simulate(tmp_path, text)
    assert main(["mcmc", str(bundle), "--out", str(tmp_path / "big")]) == 0
    assert "costly" in capsys.readouterr().err


def test_mcmc_without_its_section_runs_the_default_chain(tmp_path, capsys):
    # a bundle whose config has no [mcmc] samples with that section's defaults
    bundle = _simulate(tmp_path, ODE_TEXT)
    assert "[mcmc]" not in (bundle / "config.txt").read_text(encoding="utf-8")
    out = tmp_path / "chain"
    assert main(["mcmc", str(bundle), "--out", str(out)]) == 0
    capsys.readouterr()
    diag = json.loads((out / "diagnostics.json").read_text())
    assert (diag["steps"], diag["burn_in"]) == (20000, 4000)
    assert diag["proposal_scale"] > 0.0  # the default 0 asks for a tuned scale


def test_scan_command_ranks_lattice(tmp_path, capsys):
    text = ODE_TEXT + ("\n[scan]\nlengthscale = 0.5,1.0,2\n"
                       "variance = 4.0,4.0,1\nsamples = 10\n")
    bundle = _simulate(tmp_path, text)
    out = tmp_path / "scan_out"
    assert main(["scan-hyper", str(bundle), "--out", str(out)]) == 0
    assert "best lengthscale=" in capsys.readouterr().out
    with open(out / "scan.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["lengthscale", "variance", "nll"]
    assert len(rows) == 3
    nlls = [float(r[2]) for r in rows[1:]]
    assert nlls == sorted(nlls)
    best = json.loads((out / "best.json").read_text())
    assert best["nll"] == nlls[0]


def test_scan_command_refuses_a_bundle_without_a_scan_section(tmp_path, capsys):
    bundle = _simulate(tmp_path, ODE_TEXT)
    out = tmp_path / "scan_out"
    assert main(["scan-hyper", str(bundle), "--out", str(out)]) == 2
    assert "missing [scan] section" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text, system", [
    (ODE_TEXT, OdeSystem), (PDE_TEXT.replace("time_windows = 2", "time_windows = 4"), PdeSystem)],
    ids=["ode", "pde"])
def test_scan_marches_the_adjoint_once(text, system, monkeypatch):
    # the four points of a 2x2 lattice project one kept bank; a PDE bank
    # that is not kept marches again for every projection, and the kept
    # bank holds one column per sensor box: 9 of 36 windows
    data = simulate_data(parse_config(
        text + "\n[scan]\nlengthscale = 1.0,2.0,2\nvariance = 1.0,2.0,2\n"))
    march, calls = system._march, []

    def counting(self, *args, **kwargs):
        calls.append(args)
        return march(self, *args, **kwargs)

    monkeypatch.setattr(system, "_march", counting)
    assert len(scan_hyper(data).results) == 4
    assert len(calls) == 1
    if system is PdeSystem:
        boxes = {tuple((b.start, b.stop) for b in w.box[1:]) for w in data.windows}
        assert len(calls[0][1]) == len(boxes) == len(data.windows) // 4


SCAN_2X3 = "\n[scan]\nlengthscale = 1.0,2.0,2\nvariance = 1.0,3.0,3\n"


@pytest.mark.parametrize("text", [ODE_TEXT, PDE_TEXT], ids=["ode", "pde"])
def test_scan_projects_once_per_lengthscale(text, monkeypatch):
    # the variance only scales Phi, so a 2x3 lattice builds the feature
    # tables of two projections, not six
    data = simulate_data(parse_config(text + SCAN_2X3))
    tables, calls = inference._axis_tables, []

    def counting(*args):
        calls.append(args)
        return tables(*args)

    monkeypatch.setattr(inference, "_axis_tables", counting)
    assert len(scan_hyper(data).results) == 6
    assert len(calls) == 2


@pytest.mark.parametrize("text", [ODE_TEXT, PDE_TEXT], ids=["ode", "pde"])
def test_scan_scores_like_stand_alone_projections(text, tmp_path, monkeypatch):
    # reusing a lengthscale's projection changes no bit: the Phi of each
    # lattice point is assemble_phi's at that theta, and each scan.csv NLL
    # is a stand-alone nll_score's there
    data = simulate_data(parse_config(text + SCAN_2X3))
    solve, designs = inference.posterior_q, []

    def recording(phi, *args):
        designs.append(phi)
        return solve(phi, *args)

    monkeypatch.setattr(inference, "posterior_q", recording)
    save_scan(scan_hyper(data), tmp_path)
    monkeypatch.undo()
    obs, bank = data.observations(), data.system.adjoint_march(data.windows).kept()
    basis = experiments._inference_basis(data.config, data.grid, data.kernel)
    lattice = [(ell, var) for ell in (1.0, 2.0) for var in (1.0, 2.0, 3.0)]
    for (ell, var), phi in zip(lattice, designs, strict=True):
        theta_basis = FeatureBasis(basis.frequencies, basis.phases, KernelParams(ell, var))
        assert np.array_equal(phi, assemble_phi(bank, theta_basis))
    with open(tmp_path / "scan.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert sorted((float(r["lengthscale"]), float(r["variance"])) for r in rows) == lattice
    for row in rows:
        theta = {"lengthscale": float(row["lengthscale"]), "variance": float(row["variance"])}
        assert float(row["nll"]) == nll_score(theta, obs, bank, basis)


def test_shift_demo_command(tmp_path, capsys):
    out = tmp_path / "demo"
    assert main(["shift-demo", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "passed = True" in stdout
    report = json.loads((out / "demo.json").read_text())
    assert report["passed"] is True
    assert (out / "bundle" / "manifest.json").exists()
    assert (out / "inference" / "posterior_root.npy").exists()


# ---------------------------------------------------------------------------
# output files


MCMC_SECTION = "\n[mcmc]\nsteps = 1500\nburn_in = 100\nseed = 1\n"


def _assert_manifest_hashes_its_files(out):
    files = json.loads((out / "manifest.json").read_text())["files"]
    assert files == {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()
                     if p.is_file() and p.name not in ("manifest.json", "timings.json",
                                                       "numerics.json")}
    assert {"total", "peak_rss_mb"} <= set(json.loads((out / "timings.json").read_text()))
    return files


@pytest.mark.parametrize("text, command, present, absent", [
    (ODE_TEXT, None, {"heldout.csv", "truth_solution.fld"}, set()),
    (ODE_TEXT + LINEAR, None, {"heldout.csv"}, {"truth_solution.fld"}),
    (ODE_TEXT + LINEAR, ["infer"], {"forcing_mean.fld", "posterior_root.npy"},
     {"posterior.json", "numerics.json", "timings.json"}),
    (ODE_TEXT + MCMC_SECTION, ["mcmc"], {"trace.csv", "diagnostics.json"}, {"timings.json"}),
    (PDE_TEXT, ["infer", "--slice", "t=5"], {"slice_t5.csv", "forcing_mean.fld"},
     {"timings.json"}),
    (ODE_TEXT + SCAN_2X3, ["scan-hyper"], {"scan.csv", "best.json"}, {"timings.json"}),
    (ODE_TEXT + SWEEP_SECTION, ["sweep"], {"results.csv", "summary.json"}, {"timings.json"}),
    (ODE_TEXT + SWEEP_SECTION.replace("replicates = 1", "replicates = 2"), ["sweep", "resumed"],
     {"results.csv", "summary.json"}, {"timings.json"}),
], ids=["forward-bundle", "linear-bundle", "infer-linear", "mcmc", "infer-slice", "scan-hyper",
        "sweep", "sweep-resumed"])
def test_manifest_hashes_the_bytes_on_disk(tmp_path, text, command, present, absent):
    # the manifest lists the digests its writers returned: they are those of
    # the bytes on disk, for every file but the manifest and the diagnostics;
    # a sweep's cells are runs of their own, each with such a manifest, and a
    # resumed sweep writes its results whole again
    out = bundle = _simulate(tmp_path, text)
    if command is not None:
        out = tmp_path / command[0]
        if command[0] == "sweep":
            argv = ["sweep", "--config", str(tmp_path / "exp.cfg"), "--out", str(out)]
        else:
            argv = [command[0], str(bundle), "--out", str(out), *command[1:]]
        assert main(argv) == 0
        if command[1:] == ["resumed"]:
            raw = (out / "results.csv").read_bytes()
            (out / "results.csv").write_bytes(raw[:raw.rindex(b"\n", 0, len(raw) - 1) + 4])
            (out / "cells" / "s10_m5_r1" / "manifest.json").unlink()
            assert main(argv) == 0
            assert (out / "results.csv").read_bytes() == raw
    files = _assert_manifest_hashes_its_files(out)
    assert present <= set(files) and not absent & set(files)
    if command is not None and command[0] == "sweep":
        cells = sorted((out / "cells").iterdir())
        assert len(cells) == int(command[1:] == ["resumed"]) + 1
        for cell in cells:
            assert set(_assert_manifest_hashes_its_files(cell)) == {"metrics.json"}


def test_posterior_root_and_weights_rebuild_the_posterior(tmp_path):
    # the root as an .npy and the mean as weights.csv's repr floats hold the
    # posterior bit for bit, and the manifest hashes the root's bytes on disk
    data = simulate_data(parse_config(ODE_TEXT + LINEAR))
    outcome = run_inference(data)
    out = experiments.save_inference(outcome, data, tmp_path / "infer")
    root = np.load(out / "posterior_root.npy")
    assert root.dtype == np.dtype("<f8") and root.flags.c_contiguous
    with open(out / "weights.csv", newline="") as fh:
        mean = [float(row["mean"]) for row in csv.DictReader(fh)]
    clone, post = PosteriorQ(mean, root), outcome.posterior
    for got, want in ((clone.mean, post.mean), (clone.root, post.root), (clone.sd, post.sd)):
        assert got.shape == want.shape
        assert (got.view(np.int64) == want.view(np.int64)).all()
    files = json.loads((out / "manifest.json").read_text())["files"]
    digest = hashlib.sha256((out / "posterior_root.npy").read_bytes()).hexdigest()
    assert files["posterior_root.npy"] == digest


def test_posterior_root_is_a_version_1_npy_of_little_endian_doubles(tmp_path):
    # NEP 1 header version 1.0, '<f8', C order, the M x M root, then its
    # M * M doubles and nothing after them
    data = simulate_data(parse_config(ODE_TEXT + LINEAR))
    outcome = run_inference(data)
    path = experiments.save_inference(outcome, data, tmp_path / "infer") / "posterior_root.npy"
    count = outcome.posterior.mean.size
    with open(path, "rb") as fh:
        assert np.lib.format.read_magic(fh) == (1, 0)
        shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(fh)
        assert (fh.tell() + count * count * 8) == path.stat().st_size
    assert shape == (count, count) and not fortran_order and dtype.str == "<f8"


@pytest.mark.parametrize("text", [ODE_TEXT, PDE_TEXT], ids=["ode", "pde"])
def test_infer_command_writes_the_library_posterior_root_bit_for_bit(tmp_path, text):
    # the root infer writes from a bundle is the one the library computes
    # from the same config, and it is the posterior's only file
    out = tmp_path / "inferred"
    assert main(["infer", str(_simulate(tmp_path, text)), "--out", str(out)]) == 0
    root = np.load(out / "posterior_root.npy")
    want = run_inference(simulate_data(parse_config(text))).posterior.root
    assert root.shape == want.shape
    assert (root.view(np.int64) == want.view(np.int64)).all()
    assert not (out / "posterior.json").exists()


def test_saves_read_back_nothing_they_wrote(tmp_path, monkeypatch):
    # each writer hashes its bytes as it writes them, so no save_* opens a
    # file under its output directory for reading
    config = parse_config(ODE_TEXT + MCMC_SECTION + "\n[scan]\nlengthscale = 0.5,1.0,2\n"
                          "variance = 4.0,4.0,1\nsamples = 10\n")
    data = simulate_data(config)
    inferred, chain, scanned = run_inference(data), run_mcmc(data), scan_hyper(data)
    out = tmp_path / "out"
    reads = []

    def recording(opener):
        def wrapper(file, mode="r", *args, **kwargs):
            if (isinstance(file, (str, Path)) and str(file).startswith(str(out))
                    and not set(mode) & set("wax+")):
                reads.append((str(file), mode))
            return opener(file, mode, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(builtins, "open", recording(builtins.open))
    monkeypatch.setattr(io, "open", recording(io.open))
    experiments.save_bundle(data, out / "bundle")
    experiments.save_inference(inferred, data, out / "infer")
    experiments.save_mcmc(chain, data, out / "mcmc")
    save_scan(scanned, out / "scan")
    monkeypatch.undo()
    assert reads == []
    assert {p.parent.name for p in out.glob("*/manifest.json")} == {"bundle", "infer", "mcmc",
                                                                    "scan"}
    assert (out / "scan" / "scan.csv").is_file()


class _Interrupted(Exception):
    pass


def _interrupt(*args, **kwargs):
    raise _Interrupted


def test_an_interrupted_rewrite_leaves_no_manifest(tmp_path, monkeypatch):
    # the writer removes an earlier run's manifest before its first file, so
    # a rewrite cut short leaves a directory without one, not the old
    # manifest beside half-rewritten files
    data = simulate_data(parse_config(PDE_TEXT))
    outcome, out = run_inference(data), tmp_path / "infer"
    experiments.save_inference(outcome, data, out)
    assert (out / "manifest.json").is_file()
    monkeypatch.setattr(experiments, "field_to_binary", _interrupt)
    with pytest.raises(_Interrupted):
        experiments.save_inference(outcome, data, out)
    assert (out / "weights.csv").is_file() and not (out / "manifest.json").exists()


def test_a_sweep_interrupted_over_a_finished_one_leaves_no_manifest(tmp_path, monkeypatch):
    config, out = parse_config(ODE_TEXT + SWEEP_SECTION), tmp_path / "sweep"
    assert run_sweep(config, out)[:2] == (1, 0)
    assert (out / "manifest.json").is_file()
    monkeypatch.setattr(experiments, "sweep_summary", _interrupt)
    with pytest.raises(_Interrupted):
        run_sweep(config, out)
    assert (out / "results.csv").is_file() and not (out / "manifest.json").exists()


def test_load_bundle_reads_each_file_once(tmp_path, monkeypatch):
    # the bytes checked against the manifest are the bytes parsed: each
    # file the manifest lists is opened once, the manifest included, and the
    # diagnostics outside it (numerics.json, timings.json) are not read
    bundle = _simulate(tmp_path, ODE_TEXT)
    opened = []

    def recording(opener):
        def wrapper(file, *args, **kwargs):
            if isinstance(file, (str, Path)) and Path(file).parent == bundle:
                opened.append(Path(file).name)
            return opener(file, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(builtins, "open", recording(builtins.open))
    monkeypatch.setattr(io, "open", recording(io.open))
    data = experiments.load_bundle(bundle)
    monkeypatch.undo()
    listed = json.loads((bundle / "manifest.json").read_text())["files"]
    assert sorted(opened) == sorted([*listed, "manifest.json"])
    assert sorted(p.name for p in bundle.iterdir()) == sorted([*listed, "manifest.json",
                                                               "numerics.json", "timings.json"])
    assert data.truth_solution is not None and data.heldout_z.size == 5


# ---------------------------------------------------------------------------
# slice export


def test_infer_slice_writes_plane(tmp_path):
    bundle = _simulate(tmp_path, PDE_TEXT)
    out = tmp_path / "pde_out"
    assert main(["infer", str(bundle), "--out", str(out), "--slice", "t=5"]) == 0
    path = out / "slice_t5.csv"
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["iy", "ix", "y", "x", "value"]
    assert len(rows) == 1 + 12 * 12
    for row in rows[1:]:
        [float(cell) for cell in row]  # every cell must parse


def test_slice_argument_errors(tmp_path, capsys):
    # a refused slice is refused before inference runs: nothing is written
    bundle = _simulate(tmp_path, ODE_TEXT)
    out = tmp_path / "bad_slice"
    assert main(["infer", str(bundle), "--out", str(out),
                 "--slice", "x=3"]) == 2
    assert "t=VALUE" in capsys.readouterr().err
    assert not out.exists()
    assert main(["infer", str(bundle), "--out", str(out),
                 "--slice", "t=5"]) == 2  # ode forcing has no spatial plane
    assert "pde kind" in capsys.readouterr().err
    assert not out.exists()
    pde_bundle = _simulate(tmp_path, PDE_TEXT, name="pde")
    assert main(["infer", str(pde_bundle), "--out", str(tmp_path / "o2"),
                 "--slice", "t=99"]) == 2
    assert "outside" in capsys.readouterr().err
    assert not (tmp_path / "o2").exists()
    assert main(["infer", str(pde_bundle), "--out", str(tmp_path / "o2"),
                 "--slice", "t=abc"]) == 2
    assert "--slice value must be a number (got 'abc')" in capsys.readouterr().err
    assert not (tmp_path / "o2").exists()


# ---------------------------------------------------------------------------
# exit codes


def test_exit_code_config_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(ODE_TEXT + "\n[noise]\n", encoding="utf-8")
    assert main(["simulate", "--config", str(cfg), "--out",
                 str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert main(["infer", str(tmp_path / "missing_bundle"), "--out",
                 str(tmp_path / "o2")]) == 2


@pytest.mark.parametrize("section", ["[mcmc]\nsteps = 10\nburn_in = 8",
                                     "[mcmc]\nsteps = 3",
                                     "[scan]\nlengthscale = 0.5,2.0,2.5\nvariance = 1.0,2.0,2",
                                     "[scan]\nlengthscale = 1.0,1.0,3\nvariance = 2.0,2.0,2"],
                         ids=["burn-in", "short-chain", "fractional-scan", "repeated-scan"])
def test_exit_code_run_length_refused(tmp_path, capsys, section):
    # fewer than 4 kept draws, a fractional lattice step count, or several
    # steps over one point is refused when the config is read, not by a
    # traceback (mcmc), a silent truncation or repeated rows (scan-hyper) later
    cfg = tmp_path / "short.cfg"
    cfg.write_text(ODE_TEXT + "\n" + section + "\n", encoding="utf-8")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("text,needle", [
    (_edit(ODE_TEXT, cells="1"), "at least 2"),
    (_edit(PDE_TEXT, cells_t="1"), "at least 2"),
    (_edit(PDE_TEXT, cells_y="1"), "at least 2"),
    (_edit(PDE_TEXT, cells_x="1"), "at least 2"),
    (ODE_TEXT + "\n[scan]\nlengthscale = nan,1.0,2\nvariance = 1.0,2.0,2\n", "lo,hi,steps"),
    (ODE_TEXT + "\n[scan]\nlengthscale = 0.5,nan,2\nvariance = 1.0,2.0,2\n", "lo,hi,steps"),
    (ODE_TEXT + "\n[scan]\nlengthscale = 0.5,inf,2\nvariance = 1.0,2.0,2\n", "lo,hi,steps"),
    (ODE_TEXT + "\n[scan]\nlengthscale = 1.0,2.0,2\nvariance = 0.5,nan,2\n", "lo,hi,steps"),
    (_sensors(ODE_TEXT, "rule = list\ntimes = 1.0,nan,3.0"), "outside"),
    (_edit(PDE_TEXT, heldout_count="-1"), "must be nonnegative"),
    (_edit(ODE_TEXT, basis="-1"), "'basis' in [seeds] must be nonnegative"),
    (ODE_TEXT + "\n[mcmc]\nseed = -1\n", "'seed' in [mcmc] must be nonnegative"),
    (_edit(ODE_TEXT, sigma="1e300"), "must be at most 1e+100"),
    (_edit(ODE_TEXT, sigma="1e154"), "must be at most 1e+100"),
    (_edit(ODE_TEXT, sigma="1.0000001e100"), "must be at most 1e+100"),
], ids=["cells", "cells_t", "cells_y", "cells_x", "scan-lo-nan", "scan-hi-nan",
        "scan-hi-inf", "scan-variance-nan", "times-nan", "negative-grid-heldout",
        "negative-basis-seed", "negative-mcmc-seed", "sigma-1e300", "sigma-1e154",
        "sigma-above-ceiling"])
def test_configs_that_crashed_later_are_refused_by_simulate(tmp_path, capsys, text, needle):
    # each passed the config and then died with a traceback (exit 1): a
    # 1-cell axis in Grid, which needs 2 cells on every axis, the scans in
    # scan-hyper's KernelParams, the NaN time in its point window, the
    # negative count in the perfect-square rule, a negative seed in numpy's
    # SeedSequence (infer's basis, mcmc's chain), a sigma whose square
    # overflows in infer (1e300) or whose MCMC target is not finite (1e154)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text, encoding="utf-8")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and needle in err
    assert not (tmp_path / "o" / "manifest.json").exists()


def test_sigma_at_its_ceiling_runs_every_command(tmp_path):
    # the largest sigma the config takes leaves every command finite
    text = _edit(ODE_TEXT, sigma="1e100") + "\n[mcmc]\nsteps = 400\nburn_in = 100\n" + SCAN_2X3
    bundle = _simulate(tmp_path, text)
    for command in ("infer", "scan-hyper", "mcmc"):
        assert main([command, str(bundle), "--out", str(tmp_path / command)]) == 0


@pytest.mark.parametrize("sigma", ["0", "0.05"])
def test_sigma_below_the_floor_warns_once_in_every_command(tmp_path, sigma):
    # each command reads its readings once, and the floor under sigma says so
    bundle = _simulate(tmp_path, _edit(ODE_TEXT, sigma=sigma) + MCMC_SECTION + SCAN_2X3)
    for command in ("infer", "scan-hyper", "mcmc"):
        argv = [command, str(bundle), "--out", str(tmp_path / command)]
        if sigma == "0":
            with pytest.warns(UserWarning, match="below the numerical floor") as record:
                assert main(argv) == 0
            assert sum("below the numerical floor" in str(w.message) for w in record) == 1
        else:  # any warning would be an error here
            assert main(argv) == 0


_FUZZ_TAIL = """
[inference]
samples = 100
ridge = 0.0

[mcmc]
steps = 100
burn_in = 20
batch_size = 5
proposal_scale = 0.0
seed = 0

[sweep]
sensors = 4,9
features = 5,10
replicates = 2

[scan]
lengthscale = 0.5,2.0,3
variance = 1.0,4.0,2
samples = 100
"""

_FUZZ_BASES = {
    "ode-tile": _sensors(ODE_TEXT, "rule = tile\ncount = 20\nheldout_count = 5\n"
                         "t_start = 1.0\nt_end = 9.0") + _FUZZ_TAIL,
    "ode-list": _sensors(ODE_TEXT, "rule = list\ntimes = 1.0,2.5,4.0") + _FUZZ_TAIL,
    "pde": _sensors(PDE_TEXT, "rule = grid\ncount = 9\ntime_windows = 2\n"
                    "heldout_count = 4\nsize = 1.0") + _FUZZ_TAIL,
}


def _fuzzed(base: str):
    """(label, text) for `base` with each value replaced by each awkward
    number, and each entry of a list value by each awkward entry."""
    lines = base.splitlines()
    for i, line in enumerate(lines):
        if "=" not in line:
            continue
        key, value = (part.strip() for part in line.split("="))
        entries = value.split(",")
        choices = [(v, v) for v in ("0", "-1", "1", "nan", "inf", "-inf", "0.5")]
        if len(entries) > 1:
            choices += [(f"[{j}]={v}", ",".join(entries[:j] + [v] + entries[j + 1:]))
                        for j in range(len(entries)) for v in ("nan", "inf", "-1", "0")]
        for label, new in choices:
            yield f"{key}={label}", "\n".join(lines[:i] + [f"{key} = {new}"] + lines[i + 1:])


@pytest.mark.parametrize("base", sorted(_FUZZ_BASES))
def test_fuzzed_configs_are_refused_or_build(base):
    # a config is refused with ConfigError, or its grid, system, windows and
    # every scan lattice kernel build; the solvers' own checks (the CFL bound,
    # a window off the grid) may still refuse it, as exit 2 does, but nothing
    # may fail with any other exception
    crashes = []
    for label, text in _fuzzed(_FUZZ_BASES[base]):
        try:
            config = parse_config(text)
        except ConfigError:
            continue
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                experiments._setup(config)
            scan = config["scan"]
            axes = ("lengthscale", "variance")
            inference.grid_scan({key: scan[key][:2] for key in axes},
                                {key: int(scan[key][2]) for key in axes},
                                lambda theta: KernelParams(**theta).variance)
        except (ConfigError, DomainError, GridMismatchError):
            continue
        except Exception as exc:  # noqa: BLE001 - every other kind is the finding
            crashes.append(f"{label}: {type(exc).__name__}: {exc}")
    assert not crashes, "\n".join(crashes)


def test_exit_code_cfl_violation(tmp_path, capsys):
    # the diffusive bound at diffusivity 2 is far below the 0.4 time step
    cfg = tmp_path / "unstable.cfg"
    cfg.write_text(_edit(PDE_TEXT, diffusivity="2.0"), encoding="utf-8")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "largest admissible step" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["ml", "both"])
def test_infer_refuses_a_bundle_written_with_the_removed_ml_route(tmp_path, capsys, method):
    # a bundle simulated while the route existed, its manifest consistent
    bundle = _simulate(tmp_path, ODE_TEXT)
    text = (bundle / "config.txt").read_text(encoding="utf-8")
    assert "method = bayes\n" in text
    text = text.replace("method = bayes\n", f"method = {method}\n")
    (bundle / "config.txt").write_bytes(text.encode("utf-8"))
    manifest = json.loads((bundle / "manifest.json").read_text(encoding="utf-8"))
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    manifest["files"]["config.txt"] = manifest["config_sha256"] = digest
    (bundle / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    out = tmp_path / "o"
    assert main(["infer", str(bundle), "--out", str(out)]) == 2
    assert "maximum-likelihood route was removed" in capsys.readouterr().err
    assert not out.exists()


def _unlisted(name):
    def edit(bundle, manifest):
        del manifest["files"][name]
        return manifest
    return edit


def _without_key(key):
    return lambda bundle, manifest: {k: v for k, v in manifest.items() if k != key}


def _deleted(name):
    def edit(bundle, manifest):
        (bundle / name).unlink()
        return manifest
    return edit


def _rewritten(name, listed):
    """`name` loses its last row; with `listed` the manifest lists its new hash."""
    def edit(bundle, manifest):
        raw = (bundle / name).read_bytes()
        cut = raw[:raw.rindex(b"\n", 0, len(raw) - 1) + 1]
        (bundle / name).write_bytes(cut)
        if listed:
            manifest["files"][name] = hashlib.sha256(cut).hexdigest()
        return manifest
    return edit


def _config_hash_changed(bundle, manifest):
    manifest["config_sha256"] = "0" * 64
    return manifest


def _hash_a_number(bundle, manifest):
    manifest["files"]["readings.csv"] = 5
    return manifest


def _heldout_gone(bundle, manifest):
    (bundle / "heldout.csv").unlink()
    del manifest["files"]["heldout.csv"]
    return manifest


_BROKEN_BUNDLES = {
    "manifest-not-json": (lambda bundle, manifest: "{\"files\": ", "is not a bundle manifest"),
    "manifest-a-list": (lambda bundle, manifest: [manifest], "is not a bundle manifest"),
    "no-files": (_without_key("files"), "is not a bundle manifest (KeyError('files'))"),
    "files-a-list": (lambda bundle, manifest: dict(manifest, files=list(manifest["files"])),
                     "is not a bundle manifest"),
    "hash-a-number": (_hash_a_number,
                      "bundle file readings.csv does not match its manifest hash (expected 5..."),
    "no-config-hash": (_without_key("config_sha256"),
                       "is not a bundle manifest (KeyError('config_sha256'))"),
    "file-missing": (_deleted("truth_forcing.fld"), "bundle file truth_forcing.fld is missing"),
    "file-changed": (_rewritten("readings.csv", listed=False),
                     "bundle file readings.csv does not match its manifest hash"),
    "config-unlisted": (_unlisted("config.txt"), "does not list config.txt"),
    "readings-unlisted": (_unlisted("readings.csv"), "does not list readings.csv"),
    "truth-unlisted": (_unlisted("truth_forcing.fld"), "does not list truth_forcing.fld"),
    "config-hash": (_config_hash_changed, "bundle config does not match its manifest hash"),
    "readings-rows": (_rewritten("readings.csv", listed=True),
                      "readings.csv has 19 rows but the config builds 20 windows"),
    "heldout-missing": (_heldout_gone, "does not list heldout.csv"),
    "heldout-rows": (_rewritten("heldout.csv", listed=True),
                     "heldout.csv row count does not match the config"),
}


@pytest.mark.parametrize("case", list(_BROKEN_BUNDLES))
def test_commands_refuse_a_broken_bundle_and_write_nothing(tmp_path, capsys, case):
    # every refusal of load_bundle exits 2 in each command that reads a
    # bundle, before its output directory is made
    edit, needle = _BROKEN_BUNDLES[case]
    bundle = _simulate(tmp_path, ODE_TEXT + MCMC_SECTION + SCAN_2X3)
    manifest = edit(bundle, json.loads((bundle / "manifest.json").read_text(encoding="utf-8")))
    text = manifest if isinstance(manifest, str) else json.dumps(manifest)
    (bundle / "manifest.json").write_text(text, encoding="utf-8")
    for command in ("infer", "mcmc", "scan-hyper"):
        out = tmp_path / command
        assert main([command, str(bundle), "--out", str(out)]) == 2, command
        err = capsys.readouterr().err
        assert err.startswith("error:") and needle in err, (command, err)
        assert not out.exists(), command


@pytest.mark.parametrize("command, target", [
    *((command, target) for command in ("simulate", "infer", "mcmc", "sweep", "scan-hyper",
                                        "shift-demo") for target in ("file", "under-file")),
    *((command, "bundle") for command in ("infer", "mcmc", "scan-hyper")),
])
def test_commands_refuse_an_out_they_cannot_write_and_write_nothing(tmp_path, capsys, command,
                                                                    target):
    # an --out that is or lies under an existing file, or that is the bundle
    # the command reads, is refused with exit 2 before any work; the bundle
    # still loads as it was
    bundle = _simulate(tmp_path, ODE_TEXT + MCMC_SECTION + SCAN_2X3 + SWEEP_SECTION)
    out = tmp_path / "taken"
    out.write_bytes(b"not a directory")
    out = {"file": out, "under-file": out / "sub", "bundle": tmp_path / "." / bundle.name}[target]
    before = sorted((p, p.read_bytes()) for p in tmp_path.rglob("*") if p.is_file())
    config = ["--config", str(tmp_path / "exp.cfg")]
    args = {"simulate": config, "sweep": config, "shift-demo": []}.get(command, [str(bundle)])
    assert main([command, *args, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    needle = ("is the bundle the command reads" if target == "bundle"
              else "lies under an existing non-directory")
    assert err.startswith("error:") and needle in err, err
    assert sorted((p, p.read_bytes()) for p in tmp_path.rglob("*") if p.is_file()) == before
    experiments.load_bundle(bundle)


def test_bundle_manifest_holds_no_truth_weights_and_old_ones_still_load(tmp_path):
    # a forward-synth manifest once carried the truth's 1000 weights; nothing
    # read them, and a bundle that still carries them infers as one without
    bundle = _simulate(tmp_path, ODE_TEXT)
    manifest = json.loads((bundle / "manifest.json").read_text(encoding="utf-8"))
    assert set(manifest) == {"config_sha256", "files", "kind", "seeds", "synth"}
    assert main(["infer", str(bundle), "--out", str(tmp_path / "new")]) == 0
    manifest["truth_weights"] = np.random.default_rng(0).standard_normal(1000).tolist()
    (bundle / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    assert main(["infer", str(bundle), "--out", str(tmp_path / "old")]) == 0
    for name in ("weights.csv", "posterior_root.npy", "metrics.json", "manifest.json"):
        assert (tmp_path / "old" / name).read_bytes() == (tmp_path / "new" / name).read_bytes()


@pytest.mark.parametrize("edit", [lambda q: q[:-1], lambda q: [0.0] * len(q)],
                         ids=["truncated", "zeroed"])
def test_linear_truth_weights_are_redrawn_not_read_from_the_manifest(tmp_path, edit):
    # an older linear-synth manifest carries `qstar`; the weights are drawn
    # again from the hashed config, so an edited key changes no output
    bundle = _simulate(tmp_path, ODE_TEXT + LINEAR)
    assert main(["infer", str(bundle), "--out", str(tmp_path / "new")]) == 0
    manifest = json.loads((bundle / "manifest.json").read_text(encoding="utf-8"))
    assert "qstar" not in manifest
    manifest["qstar"] = edit(experiments.load_bundle(bundle).qstar.tolist())
    (bundle / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    assert main(["infer", str(bundle), "--out", str(tmp_path / "old")]) == 0
    names = sorted(p.name for p in (tmp_path / "new").iterdir() if p.name != "timings.json")
    assert "metrics.json" in names
    for name in names:
        assert (tmp_path / "old" / name).read_bytes() == (tmp_path / "new" / name).read_bytes()


def test_exit_code_overflowing_design_matrix(tmp_path, capsys, monkeypatch):
    # adjoint rows of 1e308 overflow the design matrix to inf; infer reports
    # a numerical error instead of a traceback
    bundle = _simulate(tmp_path, ODE_TEXT)

    def overflowing_bank(self, functionals):
        rows = np.full((len(functionals), self.grid.num_cells), 1e308)
        return row_bank(rows, self.grid)

    monkeypatch.setattr(OdeSystem, "adjoint_march", overflowing_bank)
    assert main(["infer", str(bundle), "--out", str(tmp_path / "o")]) == 3
    assert "non-finite" in capsys.readouterr().err


def test_exit_code_solver_error(tmp_path, capsys):
    cfg = tmp_path / "stiff.cfg"
    cfg.write_text(_edit(ODE_TEXT, p0="5.0e5").replace("cells = 400", "cells = 1000"),
                   encoding="utf-8")
    with pytest.warns(StabilityWarning):
        code = main(["simulate", "--config", str(cfg), "--out",
                     str(tmp_path / "o")])
    assert code == 4
    assert "solver error:" in capsys.readouterr().err
