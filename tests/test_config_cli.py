import builtins
import csv
import hashlib
import io
import json
import re
from pathlib import Path

import numpy as np
import pytest

from adjointgp import (
    PIPELINE_STAGES,
    AdjointBank,
    ConfigError,
    FeatureBasis,
    KernelParams,
    OdeSystem,
    PdeSystem,
    StabilityWarning,
    assemble_phi,
    cfl_limit,
    euler_stability_limit,
    inner_product,
    nll_score,
    posterior_q,
    predictive_mse,
    predictive_nll,
)
from adjointgp.cli import _build_parser, main
from adjointgp.config import canonical_text, config_hash, parse_config
from adjointgp import experiments, inference
from adjointgp.experiments import (make_grid, make_system, run_inference, run_mcmc,
                                   run_shift_demo, save_scan, scan_hyper, simulate_data)

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
    (ODE_TEXT + "\n[inference]\nmethod = magic\n", "must be one of"),
    (ODE_TEXT + "\n[inference]\nsynth = copy\n", "must be one of"),
    (ODE_TEXT + "\n[inference]\nridge = -1.0\n", "must be nonnegative"),
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
    assert names == ["config.txt", "heldout.csv", "manifest.json",
                     "readings.csv", "truth_forcing.fld", "truth_solution.fld"]
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


# ---------------------------------------------------------------------------
# command-line pipelines


def _simulate(tmp_path, text, name="exp"):
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(text, encoding="utf-8")
    bundle = tmp_path / f"{name}_bundle"
    assert main(["simulate", "--config", str(cfg), "--out", str(bundle)]) == 0
    return bundle


def test_infer_command_recovers_linear_synth_weights(tmp_path, capsys):
    text = _edit(ODE_TEXT, sigma="1e-6") + "\n[inference]\nmethod = both\nsynth = linear\n"
    bundle = _simulate(tmp_path, text)
    out = tmp_path / "inferred"
    assert main(["infer", str(bundle), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "outputs ->" in stdout
    for name in ("weights.csv", "phi.csv", "posterior.json", "forcing_mean.fld",
                 "forcing_var.fld", "forcing_ml.fld", "metrics.json",
                 "timings.json", "manifest.json"):
        assert (out / name).exists(), name

    qstar = json.loads((bundle / "manifest.json").read_text())["qstar"]
    with open(out / "weights.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    ml = np.array([float(r["ml"]) for r in rows])
    np.testing.assert_allclose(ml, qstar, atol=1e-4)

    posterior_meta = json.loads((out / "posterior.json").read_text())
    assert posterior_meta["config_hash"] == config_hash(parse_config(text))

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
    assert set(numerics) == {"jitter", "logdet_precision", "residual_norm", "step_margin"}
    assert numerics["jitter"] == 0.0
    assert (outs[0] / "numerics.json").read_bytes() == (outs[1] / "numerics.json").read_bytes()
    timings = json.loads((outs[0] / "timings.json").read_text())
    assert set(timings) == {*PIPELINE_STAGES, "posterior_forcing", "heldout_scoring",
                            "bank_rows_training", "bank_rows_heldout", "bank_solves",
                            "bank_cell_steps"}
    assert (timings["bank_rows_training"], timings["bank_rows_heldout"]) == (18, 8)
    # every PDE window is marched as its own column
    assert timings["bank_solves"] == 26
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
        return AdjointBank(np.full((len(functionals), self.grid.num_cells), 1e8), self.grid)

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
    assert "ran 2 replicates, skipped 0" in first
    assert "sensors=10,features=5" in first
    with open(out / "results.csv", newline="") as fh:
        assert len(list(csv.reader(fh))) == 3
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    assert "ran 0 replicates, skipped 2" in capsys.readouterr().out


def test_sweep_resumes_over_a_torn_last_row(tmp_path, capsys):
    """A kill partway through a row leaves a torn last line; resuming from
    it must rebuild exactly the file of an uninterrupted run."""
    text = ODE_TEXT + "\n[sweep]\nsensors = 10\nfeatures = 5\nreplicates = 2\n"
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(text, encoding="utf-8")
    whole = tmp_path / "whole"
    assert main(["sweep", "--config", str(cfg), "--out", str(whole)]) == 0
    expected = (whole / "results.csv").read_bytes()
    last = expected.rindex(b"\n", 0, len(expected) - 1) + 1
    heldout_mse = last + len(b",".join(expected[last:].split(b",")[:3])) + 4
    cuts = {"header": 5, "key fields": last + 3, "heldout_mse": heldout_mse,
            "before newline": len(expected) - 1}
    for name, offset in cuts.items():
        out = tmp_path / name.replace(" ", "_")
        out.mkdir()
        (out / "results.csv").write_bytes(expected[:offset])
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0, name
        assert (out / "results.csv").read_bytes() == expected, name
        assert ((out / "summary.json").read_bytes()
                == (whole / "summary.json").read_bytes()), name
    capsys.readouterr()


def test_sweep_refuses_a_malformed_complete_row(tmp_path, capsys):
    text = ODE_TEXT + "\n[sweep]\nsensors = 10\nfeatures = 5\nreplicates = 1\n"
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(text, encoding="utf-8")
    out = tmp_path / "sweep_out"
    out.mkdir()
    header = "sensors,features,replicate,heldout_mse,forcing_mse,seed_data,seed_basis,seed_noise"
    (out / "results.csv").write_text(header + "\n10,5,0,0.1\n", encoding="utf-8")
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
    assert "line 2" in capsys.readouterr().err


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
            "ess_per_second", "max_c_drift"} <= set(timings)
    manifest = json.loads((out / "manifest.json").read_text())
    assert "timings.json" not in manifest["files"]
    again = tmp_path / "chain_again"
    assert main(["mcmc", str(bundle), "--out", str(again)]) == 0
    for name in ("trace.csv", "chain_summary.csv", "diagnostics.json", "manifest.json"):
        assert (again / name).read_bytes() == (out / name).read_bytes(), name


def test_mcmc_command_warns_on_large_bases(tmp_path, capsys):
    text = ODE_TEXT.replace("count = 8", "count = 50") + "\n[mcmc]\nsteps = 1500\nburn_in = 100\n"
    bundle = _simulate(tmp_path, text)
    assert main(["mcmc", str(bundle), "--out", str(tmp_path / "big")]) == 0
    assert "costly" in capsys.readouterr().err


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


@pytest.mark.parametrize("text, system", [(ODE_TEXT, OdeSystem), (PDE_TEXT, PdeSystem)],
                         ids=["ode", "pde"])
def test_scan_marches_the_adjoint_once(text, system, monkeypatch):
    # the four points of a 2x2 lattice project one kept bank; a PDE bank
    # that is not kept marches again for every projection
    data = simulate_data(parse_config(
        text + "\n[scan]\nlengthscale = 1.0,2.0,2\nvariance = 1.0,2.0,2\n"))
    march, calls = system._march, []

    def counting(self, *args, **kwargs):
        calls.append(args)
        return march(self, *args, **kwargs)

    monkeypatch.setattr(system, "_march", counting)
    assert len(scan_hyper(data)) == 4
    assert len(calls) == 1


SCAN_2X3 = "\n[scan]\nlengthscale = 1.0,2.0,2\nvariance = 1.0,3.0,3\n"


@pytest.mark.parametrize("text", [ODE_TEXT, PDE_TEXT], ids=["ode", "pde"])
def test_scan_projects_once_per_lengthscale(text, monkeypatch):
    # the variance only scales Phi, so a 2x3 lattice builds the feature
    # tables of two projections, not six
    data = simulate_data(parse_config(text + SCAN_2X3))
    blocks, calls = inference._feature_blocks, []

    def counting(*args):
        calls.append(args)
        return blocks(*args)

    monkeypatch.setattr(inference, "_feature_blocks", counting)
    assert len(scan_hyper(data)) == 6
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
    assert (out / "inference" / "posterior.json").exists()


# ---------------------------------------------------------------------------
# output files


MCMC_SECTION = "\n[mcmc]\nsteps = 1500\nburn_in = 100\nseed = 1\n"
LINEAR_BOTH = "\n[inference]\nmethod = both\nsynth = linear\n"


@pytest.mark.parametrize("extra, command, present, absent", [
    ("", None, {"heldout.csv", "truth_solution.fld"}, set()),
    (LINEAR_BOTH, None, {"heldout.csv"}, {"truth_solution.fld"}),
    (LINEAR_BOTH, "infer", {"forcing_ml.fld"}, {"numerics.json", "timings.json"}),
    (MCMC_SECTION, "mcmc", {"trace.csv", "diagnostics.json"}, {"timings.json"}),
], ids=["forward-bundle", "linear-bundle", "infer-both", "mcmc"])
def test_manifest_hashes_the_bytes_on_disk(tmp_path, extra, command, present, absent):
    # the manifest lists the digests its writers returned: they are those of
    # the bytes on disk, for every file but the manifest and the diagnostics
    out = bundle = _simulate(tmp_path, ODE_TEXT + extra)
    if command is not None:
        out = tmp_path / command
        assert main([command, str(bundle), "--out", str(out)]) == 0
    files = json.loads((out / "manifest.json").read_text())["files"]
    assert files == {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()
                     if p.name not in ("manifest.json", "timings.json", "numerics.json")}
    assert present <= set(files) and not absent & set(files)


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
    assert {p.parent.name for p in out.glob("*/manifest.json")} == {"bundle", "infer", "mcmc"}
    assert (out / "scan" / "scan.csv").is_file()


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


def test_exit_code_cfl_violation(tmp_path, capsys):
    # the diffusive bound at diffusivity 2 is far below the 0.4 time step
    cfg = tmp_path / "unstable.cfg"
    cfg.write_text(_edit(PDE_TEXT, diffusivity="2.0"), encoding="utf-8")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "largest admissible step" in capsys.readouterr().err


def test_exit_code_numerical_error(tmp_path, capsys):
    # ml needs n >= M; 20 readings cannot fit 30 features
    bundle = _simulate(tmp_path, ODE_TEXT.replace("count = 8", "count = 30")
                       + "\n[inference]\nmethod = ml\n")
    assert main(["infer", str(bundle), "--out", str(tmp_path / "o")]) == 3
    assert "numerical error:" in capsys.readouterr().err


def test_exit_code_overflowing_design_matrix(tmp_path, capsys, monkeypatch):
    # adjoint rows of 1e308 overflow the design matrix to inf; infer reports
    # a numerical error instead of a traceback
    bundle = _simulate(tmp_path, ODE_TEXT)

    def overflowing_bank(self, functionals):
        rows = np.full((len(functionals), self.grid.num_cells), 1e308)
        return AdjointBank(rows, self.grid)

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
