"""One benchmark workload, run in a fresh process by ``run.py``.

The process imports adjointgp from the checkout's ``src``, writes the
workload's configs (every seed derived from the workload seed), prints
``READY <cpu seconds so far>`` on stdout and then acts as one closed-loop
client: it issues each command through the library entry points only after
the previous one has finished, checks every command's outputs outside the
timed region, and writes a JSON record for ``run.py``.  Each command is timed
twice: wall clock, and CPU time of this process (user + system).  The
process runs one thread (BLAS capped at 1, ``jobs`` unset), so its CPU time
is its wall time less the time other tenants of the host kept it off a core.

Untraced runs repeat whole command cycles until the next cycle would end
past ``--seconds``.  Traced runs make one untraced cycle, then one cycle
with the outside-in tracer installed; the per-layer numbers come from that
cycle, and both cycles must write byte-identical outputs.

    python3 perfbench/workload.py --workload pde-infer --seed 1 \\
        --seconds 50 --trace 0 --workdir perfbench/.work/x --out result.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import sys
import time
import traceback
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import adjointgp  # noqa: E402
from adjointgp import experiments as ex  # noqa: E402
from adjointgp.config import config_hash, load_config  # noqa: E402
from adjointgp.inference import SIGMA_MIN  # noqa: E402
from tracer import HOOKS, Tracer, _save_counts, _sweep_counts  # noqa: E402

# Correctness bars.  The posterior mean must match an independent solve of
# its normal equations to WEIGHTS_RTOL (relative to the largest weight).
# Forcing and held-out errors must stay under a fixed share of the error of
# predicting zero everywhere (mean square of the truth, or of the held-out
# readings).  Over 30 seeds the largest shares were: pde-infer forcing 4.7,
# held-out 0.12; ode-bundle forcing 0.12, held-out 0.064.  The bars sit five
# to eight times higher, so a 3-6% move from an exact predictive passes and
# a broken posterior fails.  With 25 sensors the PDE posterior mean over the
# whole 50x30x30 domain is often no better than zero, hence its loose bar.
WEIGHTS_RTOL = 1e-7
ERROR_SHARE_BARS = {  # workload -> (forcing_mse share, heldout_mse share)
    "pde-infer": (25.0, 1.0),
    "ode-bundle": (1.0, 0.5),
}

# ---------------------------------------------------------------------------
# configs

PDE_INFER = """\
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
cells_t = {nt}
cells_y = {ny}
cells_x = {nx}

[kernel]
lengthscale = 2.0
variance = 2.0

[features]
count = {features}

[sensors]
rule = grid
count = {sensors}
time_windows = 4
heldout_count = 9

[noise]
sigma = 0.05

[seeds]
data = {data}
basis = {basis}
noise = {noise}

[inference]
samples = {samples}
"""

ODE_BUNDLE = """\
[system]
kind = ode
p0 = 5.0
p1 = 1.0
p2 = 0.5
T = 10.0

[grid]
cells = {cells}

[kernel]
lengthscale = 0.7
variance = 4.0

[features]
count = {features}

[sensors]
rule = tile
count = {sensors}
heldout_count = {heldout}

[noise]
sigma = 0.05

[seeds]
data = {data}
basis = {basis}
noise = {noise}

[inference]
samples = {samples}

[mcmc]
steps = {steps}
burn_in = {burn_in}
seed = {mcmc}

[scan]
lengthscale = 0.4,1.0,{lattice}
variance = 2.0,8.0,{lattice}
samples = {samples}
"""

PDE_SWEEP = """\
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
cells_t = {nt}
cells_y = {ny}
cells_x = {nx}

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
data = {data}
basis = {basis}
noise = {noise}

[inference]
samples = {samples}

[sweep]
sensors = 1,4,16
features = {features}
replicates = 1
"""

# (template, full-size values, smoke values) per workload
WORKLOADS = {
    "pde-infer": (
        PDE_INFER,
        {"nt": 50, "ny": 30, "nx": 30, "features": 100, "sensors": 25, "samples": 100},
        {"nt": 25, "ny": 12, "nx": 12, "features": 30, "sensors": 16, "samples": 10},
    ),
    "ode-bundle": (
        ODE_BUNDLE,
        {"cells": 2000, "features": 100, "sensors": 100, "heldout": 20,
         "samples": 100, "steps": 20000, "burn_in": 4000, "lattice": 4},
        {"cells": 200, "features": 10, "sensors": 10, "heldout": 5,
         "samples": 5, "steps": 1000, "burn_in": 200, "lattice": 2},
    ),
    "pde-sweep": (
        PDE_SWEEP,
        {"nt": 25, "ny": 20, "nx": 20, "features": "200,10", "samples": 100},
        {"nt": 10, "ny": 8, "nx": 8, "features": "20,5", "samples": 5},
    ),
}

# commands of one cycle, in order
COMMANDS = {
    "pde-infer": ("simulate", "infer"),
    "ode-bundle": ("simulate", "infer", "scan", "mcmc"),
    "pde-sweep": ("sweep", "sweep_rerun"),
}


def derive(seed: int, purpose: str) -> int:
    """31-bit seed for one purpose, fixed by the workload seed."""
    digest = hashlib.sha256(f"perfbench:{seed}:{purpose}".encode()).digest()
    return int.from_bytes(digest[:4], "little") >> 1


def write_config(workload: str, seed: int, smoke: bool, workdir: Path) -> dict:
    """Write the workload's config and return its record (path, seeds, hash)."""
    template, full, tiny = WORKLOADS[workload]
    seeds = {name: derive(seed, name) for name in ("data", "basis", "noise", "mcmc")}
    text = template.format(**(tiny if smoke else full), **seeds)
    path = workdir / f"{workload}.cfg"
    path.write_text(text, encoding="utf-8")
    return {"path": path, "seeds": seeds, "config_hash": config_hash(load_config(path))}


# ---------------------------------------------------------------------------
# host speed reference

# About the CPU seconds reference() takes on a quiet 2-vCPU x86_64 VM (Xeon).
# A CPU time t measured next to a reference run that took r is reported as
# t * REFERENCE_S / r: seconds at that host's speed.  On a shared host the
# speed of one core drifts by a third or more within a minute, with the load
# of other tenants; CPU time follows the drift, the scaled time much less.
REFERENCE_S = 0.3
# Buffers made once, so that the reference allocates no large blocks: it
# must not move the program's heap, or with it the peak RSS.
_REF_CELLS = np.linspace(0.0, 10.0, 4000)
_REF_FEATURES = np.linspace(0.1, 3.0, 100)
_REF_TABLE = np.empty((_REF_CELLS.size, _REF_FEATURES.size))
_REF_VALUES = np.linspace(0.0, 1.0, 200).tolist()


def _reference_work(rounds: int) -> float:
    total = 0.0
    for i in range(rounds):
        np.outer(_REF_CELLS, _REF_FEATURES + 0.01 * i, out=_REF_TABLE)
        total += float(np.cos(_REF_TABLE, out=_REF_TABLE).sum())
    y = 0.0
    for i in range(50000 * rounds):
        y = y * 0.999 + 1e-6 * i
    for _ in range(10 * rounds):
        total += len(",".join(f"{v:.17g}" for v in _REF_VALUES))
    return total + y


# Rounds of one reference run.  The host speed seen by runs of a third of a
# second scatters by 15% from one run to the next, so the PDE workloads,
# whose commands run for 20-30 s, measure it over four times as long.
REFERENCE_ROUNDS = {"pde-infer": 100, "pde-sweep": 100, "ode-bundle": 25}
BASE_ROUNDS = 25


def reference(rounds: int = BASE_ROUNDS) -> float:
    """CPU seconds per BASE_ROUNDS of a fixed piece of work that mixes what
    the program spends its time on: cosine sums over a cells x features table
    (the basis evaluations), a scalar Python loop (the ODE solver and the MCMC
    chain) and float formatting (the CSV writers).  It calls nothing of
    adjointgp, so no change to the program moves it."""
    _reference_work(1)  # warm-up
    start = time.process_time()
    _reference_work(rounds)
    return (time.process_time() - start) * BASE_ROUNDS / rounds


# ---------------------------------------------------------------------------
# output checks (run outside the timed region)


def _csv_columns(path: Path) -> dict:
    with open(path, encoding="utf-8") as handle:
        header = handle.readline().strip().split(",")
    values = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2,
                        usecols=[i for i, name in enumerate(header) if name != "label"])
    names = [name for name in header if name != "label"]
    return {name: values[:, i] for i, name in enumerate(names)}


def output_hashes(directory: Path) -> dict:
    """Content hash of every output file except the wall-clock timings."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.iterdir())
            if p.is_file() and p.name != "timings.json"}


class Cycle:
    """One closed-loop pass over a workload's commands."""

    def __init__(self, workload: str, config_path: Path, directory: Path):
        self.workload = workload
        self.config = load_config(config_path)
        self.dir = directory
        self.data = None
        self.quality = {}

    # commands: each returns the output directory it wrote

    def simulate(self):
        data = ex.simulate_data(self.config)
        return ex.save_bundle(data, self.dir / "bundle")

    def infer(self):
        self.data = ex.load_bundle(self.dir / "bundle")
        outcome = ex.run_inference(self.data)
        return ex.save_inference(outcome, self.data, self.dir / "infer")

    def scan(self):
        results = ex.scan_hyper(self.data)
        return ex.save_scan(results, self.dir / "scan")

    def mcmc(self):
        outcome = ex.run_mcmc(self.data)
        return ex.save_mcmc(outcome, self.data, self.dir / "mcmc")

    def sweep(self):
        self.sweep_counts = ex.run_sweep(self.config, self.dir / "sweep")[:2]
        return self.dir / "sweep"

    def sweep_rerun(self):
        self.rerun_counts = ex.run_sweep(self.config, self.dir / "sweep")[:2]
        return self.dir / "sweep"

    # checks: each returns a list of problems

    def check_simulate(self):
        z = _csv_columns(self.dir / "bundle" / "readings.csv")["z"]
        return [] if np.isfinite(z).all() else ["readings are not finite"]

    def check_infer(self):
        problems = []
        bundle, out = self.dir / "bundle", self.dir / "infer"
        config = load_config(bundle / "config.txt")
        sigma = max(config["noise"]["sigma"], SIGMA_MIN)
        phi = np.loadtxt(out / "phi.csv", delimiter=",", skiprows=1, ndmin=2)
        z = _csv_columns(bundle / "readings.csv")["z"]
        precision = phi.T @ phi / sigma**2 + np.eye(phi.shape[1])
        mean = np.linalg.solve(precision, phi.T @ z / sigma**2)
        written = _csv_columns(out / "weights.csv")["mean"]
        gap = float(np.max(np.abs(mean - written)))
        self.quality["weights_gap"] = gap
        if not gap <= WEIGHTS_RTOL * max(1.0, float(np.max(np.abs(written)))):
            problems.append(f"posterior mean differs from the normal equations by {gap:.3e}")
        metrics = json.loads((out / "metrics.json").read_text(encoding="utf-8"))
        baselines = {
            "forcing_mse": float(np.mean(self.data.truth_forcing.values_flat**2)),
            "heldout_mse": float(np.mean(_csv_columns(bundle / "heldout.csv")["z"]**2)),
        }
        for (key, baseline), bar in zip(baselines.items(), ERROR_SHARE_BARS[self.workload]):
            share = metrics[key] / baseline
            self.quality[f"{key}_share"] = share
            if not share <= bar:
                problems.append(f"{key} is {share:.3g} of predicting zero, above the bar {bar}")
        return problems

    def check_scan(self):
        config = self.config["scan"]
        axes = [np.linspace(lo, hi, int(n)) if int(n) > 1 else np.array([lo])
                for lo, hi, n in (config["lengthscale"], config["variance"])]
        cols = _csv_columns(self.dir / "scan" / "scan.csv")
        expected = {(float(a), float(b)) for a in axes[0] for b in axes[1]}
        got = set(zip(cols["lengthscale"].tolist(), cols["variance"].tolist()))
        problems = []
        if got != expected or cols["nll"].size != len(expected):
            problems.append("scan.csv does not list every lattice point once")
        if not np.isfinite(cols["nll"]).all():
            problems.append("scan scores are not finite")
        elif np.any(np.diff(cols["nll"]) < 0):
            problems.append("scan.csv is not sorted by score")
        return problems

    def check_mcmc(self):
        out = self.dir / "mcmc"
        steps = self.config["mcmc"]["steps"]
        problems = []
        with open(out / "trace.csv", "rb") as handle:
            lines = handle.read().splitlines()
        if len(lines) != steps + 1 or not lines[-1].startswith(f"{steps - 1},".encode()):
            problems.append(f"trace.csv has {len(lines) - 1} steps, expected {steps}")
        diagnostics = json.loads((out / "diagnostics.json").read_text(encoding="utf-8"))
        if diagnostics["steps"] != steps:
            problems.append("diagnostics report a different step count")
        exact = _csv_columns(out / "chain_summary.csv")["exact_mean"]
        infer_mean = _csv_columns(self.dir / "infer" / "weights.csv")["mean"]
        if not np.array_equal(exact, infer_mean):
            problems.append("mcmc exact_mean differs from the infer posterior mean")
        return problems

    def check_sweep(self):
        cols = _csv_columns(self.dir / "sweep" / "results.csv")
        problems = []
        if cols["heldout_mse"].size != 6:
            problems.append(f"results.csv has {cols['heldout_mse'].size} rows, expected 6")
        if not (np.isfinite(cols["heldout_mse"]).all() and np.isfinite(cols["forcing_mse"]).all()):
            problems.append("sweep errors are not finite")
        if self.sweep_counts != (6, 0):
            problems.append(f"fresh sweep ran/skipped {self.sweep_counts}, expected (6, 0)")
        return problems

    def check_sweep_rerun(self):
        if self.rerun_counts != (0, 6):
            return [f"rerun ran/skipped {self.rerun_counts}, expected (0, 6)"]
        return []


# manifests that must repeat byte for byte from cycle to cycle
MANIFESTS = {"simulate": "bundle/manifest.json", "infer": "infer/manifest.json"}


def run_cycle(index, workload, config_path, workdir, tracer=None, rounds=BASE_ROUNDS):
    """Run every command of one cycle, then check their outputs; returns the
    cycle's record.  Untraced cycles run the reference kernel before the
    first command and after each one, so that every command's CPU time can
    be scaled by the host speed measured just around it."""
    cycle = Cycle(workload, config_path, workdir / f"cycle{index}")
    if cycle.dir.exists():
        shutil.rmtree(cycle.dir)
    cycle.dir.mkdir(parents=True)
    record = {"times": {}, "cpu": {}, "scaled": {}, "references": [], "failed": [],
              "hashes": {}, "manifests": {}, "intervals": {}}
    before = reference(rounds) if tracer is None else None
    if before is not None:
        record["references"].append(before)
    done = []
    for name in COMMANDS[workload]:
        if tracer is not None:
            tracer.command = name
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            out = getattr(cycle, name)()
            elapsed = time.perf_counter() - start
            cpu = time.process_time() - cpu_start
        except Exception:  # a failing command is counted, not fatal
            record["failed"].append(f"{name}: {traceback.format_exc(limit=3)}")
            skipped = COMMANDS[workload][len(done) + 1:]
            record["failed"] += [f"{other}: skipped after an earlier failure" for other in skipped]
            break
        finally:
            if tracer is not None:
                tracer.command = None
        record["times"][name] = elapsed
        record["cpu"][name] = cpu
        if tracer is not None:
            record["intervals"][name] = (start, start + elapsed)
        else:
            after = reference(rounds)
            record["references"].append(after)
            record["scaled"][name] = cpu / (0.5 * (before + after)) * REFERENCE_S
            before = after
        done.append((name, out))
    for name, out in done:
        try:
            problems = getattr(cycle, f"check_{name}")()
        except Exception:
            problems = [traceback.format_exc(limit=3)]
        if problems:
            record["failed"].append(f"{name}: " + "; ".join(problems))
        record["hashes"][name] = output_hashes(Path(out))
        if name in MANIFESTS:
            record["manifests"][name] = (cycle.dir / MANIFESTS[name]).read_text(encoding="utf-8")
    record["quality"] = cycle.quality
    shutil.rmtree(cycle.dir)
    return record


def compare_cycles(cycles) -> list:
    """Manifests must be byte-identical across repeats, and (traced against
    untraced) every output file must hash the same."""
    problems = []
    first = cycles[0]
    for index, other in enumerate(cycles[1:], start=1):
        for name, text in other["manifests"].items():
            if name in first["manifests"] and text != first["manifests"][name]:
                problems.append(f"{name}: manifest of cycle {index} differs from cycle 0")
        for name, hashes in other["hashes"].items():
            if name in first["hashes"] and hashes != first["hashes"][name]:
                problems.append(f"{name}: outputs of cycle {index} differ from cycle 0")
    return problems


# ---------------------------------------------------------------------------
# traced-run analysis

# the stages run_pipeline times today, spelled out because the metric list
# is fixed in BENCHMARK.json; a stage the program stops timing reads 0
PIPELINE_STAGES = ("adjoint_solves", "basis_eval", "phi_assembly", "gram", "posterior_solve")

# per-layer metrics: name -> unit (must match BENCHMARK.json's per_layer list)
LAYER_UNITS = {
    "pde.adjoint.calls": "count", "pde.adjoint.s": "s",
    "pde.forward.calls": "count", "pde.forward.s": "s", "pde.cell_steps": "count",
    "ode.adjoint.calls": "count", "ode.adjoint.s": "s",
    "ode.forward.calls": "count", "ode.forward.s": "s",
    "features.sample.calls": "count", "features.sample.s": "s",
    "features.forcing_from_weights.calls": "count",
    "features.forcing_from_weights.s": "s",
    "features.forcing_from_weights.self_s": "s",
    "features.cos_evals": "count",
    "inference.run_pipeline.s": "s", "inference.run_pipeline.self_s": "s",
    **{f"inference.stage.{stage}.s": "s" for stage in PIPELINE_STAGES},
    "inference.assemble_phi.calls": "count", "inference.assemble_phi.s": "s",
    "inference.posterior_q.calls": "count", "inference.posterior_q.s": "s",
    "inference.posterior_forcing.s": "s",
    "inference.predictive.s": "s", "inference.predictive.self_s": "s",
    "inference.predictive.forward_solves": "count",
    "mcmc.rw_mh.s": "s", "mcmc.steps": "count", "mcmc.acceptance": "ratio",
    "mcmc.tune.s": "s", "mcmc.tune.probe_steps": "count",
    "mcmc.chain_diagnostics.s": "s",
    "mcmc.chain_to_csv.s": "s", "mcmc.chain_to_csv.bytes": "B",
    "experiments.simulate_data.s": "s", "experiments.simulate_data.self_s": "s",
    "experiments.load_bundle.s": "s", "experiments.save_bundle.s": "s",
    "experiments.save_inference.s": "s", "experiments.save_scan.s": "s",
    "experiments.save_mcmc.s": "s", "experiments.bytes_written": "B",
    "adjoint_solves_per_obs": "ratio",
    "sweep.adjoint_per_distinct_window": "ratio",
    "trace.coverage": "ratio", "trace.overhead_s": "s",
}

# hooks a derived metric is computed from; any other metric comes from the
# hook whose span name is its longest prefix
SOURCES = {
    "pde.cell_steps": ("pde.adjoint", "pde.forward"),
    "features.cos_evals": ("features.forcing_from_weights", "inference.run_pipeline"),
    "inference.predictive": ("inference.predictive_mse", "inference.predictive_nll"),
    "inference.stage": ("inference.run_pipeline",),
    "mcmc.steps": ("mcmc.rw_mh",),
    "mcmc.acceptance": ("mcmc.rw_mh",),
    "mcmc.tune.probe_steps": ("mcmc.tune", "mcmc.rw_mh"),
    "experiments.bytes_written": tuple(h[0] for h in HOOKS if h[3] in (_save_counts, _sweep_counts)),
    "adjoint_solves_per_obs": ("pde.adjoint", "ode.adjoint"),
    "sweep.adjoint_per_distinct_window": ("pde.adjoint",),
    "trace": (),
}


def sources(metric: str) -> tuple:
    for prefix, hooks in SOURCES.items():
        if metric == prefix or metric.startswith(prefix + "."):
            return hooks
    names = [h[0] for h in HOOKS if metric.startswith(h[0] + ".")]
    return (max(names, key=len),) if names else ()


# metrics that apply to each workload; the rest are reported as 0
_ALL = ("features.", "inference.run_pipeline", "inference.stage.", "inference.predictive",
        "experiments.simulate_data", "experiments.bytes_written",
        "adjoint_solves_per_obs", "trace.")
APPLIES = {
    "pde-infer": _ALL + ("pde.", "inference.posterior_forcing", "experiments.load_bundle",
                         "experiments.save_bundle", "experiments.save_inference"),
    "ode-bundle": _ALL + ("ode.", "inference.assemble_phi", "inference.posterior_q",
                          "inference.posterior_forcing", "mcmc.", "experiments.load_bundle",
                          "experiments.save_"),
    "pde-sweep": _ALL + ("pde.", "inference.posterior_forcing", "sweep."),
}


def layer_metrics(tracer, cycle, untraced) -> tuple[dict, dict]:
    """Per-layer metrics of the traced cycle, and per-command coverage."""
    spans = tracer.spans
    duration = {s.id: s.end - s.start for s in spans}
    child_time = {s.id: 0.0 for s in spans}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += duration[s.id]
    self_time = {i: duration[i] - child_time[i] for i in duration}

    def ancestors(span):
        names = set()
        while span.parent is not None:
            span = spans[span.parent]
            names.add(span.name)
        return names

    def pick(name, inside=None, outside=None):
        out = []
        for s in spans:
            if s.name != name:
                continue
            above = ancestors(s) if (inside or outside) else set()
            if inside and inside not in above:
                continue
            if outside and outside in above:
                continue
            out.append(s)
        return out

    def total(chosen, what="s", count=None):
        if count is not None:
            return float(sum(s.counts.get(count, 0) for s in chosen))
        table = self_time if what == "self_s" else duration
        return float(sum(table[s.id] for s in chosen))

    m = {}
    for layer in ("pde.adjoint", "pde.forward", "ode.adjoint", "ode.forward",
                  "features.sample", "features.forcing_from_weights",
                  "inference.assemble_phi", "inference.posterior_q"):
        m[f"{layer}.calls"] = float(len(pick(layer)))
        m[f"{layer}.s"] = total(pick(layer))
    m["pde.cell_steps"] = total(pick("pde.adjoint") + pick("pde.forward"), count="cell_steps")
    m["features.forcing_from_weights.self_s"] = total(
        pick("features.forcing_from_weights"), "self_s")
    m["features.cos_evals"] = float(sum(s.counts.get("cos_evals", 0) for s in spans))
    pipelines = pick("inference.run_pipeline")
    m["inference.run_pipeline.s"] = total(pipelines)
    m["inference.run_pipeline.self_s"] = total(pipelines, "self_s")
    for stage in PIPELINE_STAGES:
        m[f"inference.stage.{stage}.s"] = total(pipelines, count=f"stage.{stage}")
    m["inference.posterior_forcing.s"] = total(pick("inference.posterior_forcing"))
    predictive = pick("inference.predictive_mse") + pick("inference.predictive_nll")
    m["inference.predictive.s"] = total(predictive)
    m["inference.predictive.self_s"] = total(predictive, "self_s")
    m["inference.predictive.forward_solves"] = float(sum(
        len(pick(solver, inside=scorer)) for solver in ("pde.forward", "ode.forward")
        for scorer in ("inference.predictive_mse", "inference.predictive_nll")))
    chains = pick("mcmc.rw_mh", outside="mcmc.tune")
    m["mcmc.rw_mh.s"] = total(chains)
    m["mcmc.steps"] = total(chains, count="steps")
    m["mcmc.acceptance"] = (total(chains, count="accepted") / m["mcmc.steps"]
                            if m["mcmc.steps"] else 0.0)
    m["mcmc.tune.s"] = total(pick("mcmc.tune"))
    m["mcmc.tune.probe_steps"] = total(pick("mcmc.rw_mh", inside="mcmc.tune"), count="steps")
    m["mcmc.chain_diagnostics.s"] = total(pick("mcmc.chain_diagnostics"))
    m["mcmc.chain_to_csv.s"] = total(pick("mcmc.chain_to_csv"))
    m["mcmc.chain_to_csv.bytes"] = total(pick("mcmc.chain_to_csv"), count="bytes")
    sims = pick("experiments.simulate_data")
    m["experiments.simulate_data.s"] = total(sims)
    m["experiments.simulate_data.self_s"] = total(sims, "self_s")
    for name in ("load_bundle", "save_bundle", "save_inference", "save_scan", "save_mcmc"):
        m[f"experiments.{name}.s"] = total(pick(f"experiments.{name}"))
    writers = [s for s in spans if s.name.startswith("experiments.")]
    m["experiments.bytes_written"] = total(writers, count="bytes")

    # adjoint solves per training observation, in the infer (or sweep) command
    command = "infer" if "infer" in cycle["times"] else "sweep"
    adjoints = [s for s in spans if s.name.endswith(".adjoint") and s.command == command]
    observed = sum(s.counts.get("observations", 0) for s in pipelines if s.command == command)
    m["adjoint_solves_per_obs"] = len(adjoints) / observed if observed else 0.0
    windows = {s.counts["window"] for s in adjoints if "window" in s.counts}
    m["sweep.adjoint_per_distinct_window"] = (
        len(adjoints) / len(windows) if command == "sweep" and windows else 0.0)

    coverage = {}
    for name, (start, end) in cycle["intervals"].items():
        top = sum(duration[s.id] for s in spans if s.parent is None and s.command == name)
        coverage[name] = top / (end - start)
    m["trace.coverage"] = min(coverage.values()) if coverage else 0.0
    m["trace.overhead_s"] = sum(cycle["times"].values()) - sum(untraced["times"].values())
    return m, coverage


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--probe", action="store_true",
                        help="stop once ready (a set-up time sample)")
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    warnings.simplefilter("ignore", adjointgp.MisspecificationWarning)
    args.workdir.mkdir(parents=True, exist_ok=True)
    config = write_config(args.workload, args.seed, args.smoke, args.workdir)
    print(f"READY {time.process_time()!r}", flush=True)
    print(f"REFERENCE {reference()!r}", flush=True)
    if args.probe:
        return 0

    cycles = []
    began = time.perf_counter()
    if args.trace:
        cycles.append(run_cycle(0, args.workload, config["path"], args.workdir))
        tracer = Tracer()
        tracer.install()
        try:
            cycles.append(run_cycle(1, args.workload, config["path"], args.workdir, tracer))
        finally:
            tracer.uninstall()
    else:
        rounds = BASE_ROUNDS if args.smoke else REFERENCE_ROUNDS[args.workload]
        while True:
            cycles.append(run_cycle(len(cycles), args.workload, config["path"], args.workdir,
                                    rounds=rounds))
            if len(cycles) == 1:
                # peak RSS of set-up and one cycle: later cycles in the same
                # process raised the pde-infer peak from 241 to 280 MiB, so
                # the process peak would depend on how many cycles fit a run
                first_peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            elapsed = time.perf_counter() - began
            last = sum(cycles[-1]["times"].values())
            if cycles[-1]["failed"] or elapsed + last > args.seconds:
                break

    failed = [msg for cycle in cycles for msg in cycle["failed"]]
    failed_ops = sum(len(cycle["failed"]) for cycle in cycles)
    mismatch = compare_cycles(cycles)
    failed += mismatch
    failed_ops += len(mismatch)
    times, cpu_times = {}, {}
    for cycle in cycles:
        for name, seconds in cycle["times"].items():
            times.setdefault(name, []).append(seconds)
            cpu_times.setdefault(name, []).append(cycle["cpu"][name])
    whole = [c for c in cycles if len(c["times"]) == len(COMMANDS[args.workload])]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "smoke": args.smoke,
        "config_hash": config["config_hash"],
        "config_seeds": config["seeds"],
        "versions": {"adjointgp": adjointgp.__version__, "numpy": np.__version__,
                     "scipy": scipy.__version__},
        "attempted": sum(len(COMMANDS[args.workload]) for _ in cycles) + len(mismatch),
        "failed_ops": failed_ops,
        "failures": failed,
        "command_times": times,
        "command_cpu_times": cpu_times,
        "cycle_times": [sum(c["times"].values()) for c in whole],
        "cycle_cpu_times": [sum(c["cpu"].values()) for c in whole],
        "cycle_scaled_times": [sum(c["scaled"].values()) for c in whole],
        "reference_s": REFERENCE_S,
        "first_cycle_peak_rss_mb": None if args.trace else first_peak_kb / 1024.0,
        "references": [r for cycle in cycles for r in cycle["references"]],
        "quality": cycles[0]["quality"],
    }
    if args.trace:
        metrics, coverage = layer_metrics(tracer, cycles[1], cycles[0])
        applies = APPLIES[args.workload]
        record["layer_units"] = LAYER_UNITS
        record["layers"] = {name: (metrics[name] if name.startswith(applies) else 0.0)
                            for name in LAYER_UNITS}
        record["not_applicable"] = [n for n in LAYER_UNITS if not n.startswith(applies)]
        # a metric is excused from reading non-zero only if none of its
        # source hooks ran: absent when one of them is gone, else idle
        called = {span.name for span in tracer.spans}
        silent = [n for n in LAYER_UNITS if sources(n) and not called & set(sources(n))]
        record["absent"] = tracer.absent
        record["absent_metrics"] = [n for n in silent if set(sources(n)) & set(tracer.absent)]
        record["idle_metrics"] = [n for n in silent if n.startswith(applies)
                                  and n not in record["absent_metrics"]]
        record["coverage"] = coverage
        record["trace_hashes_match"] = not any("outputs of cycle" in p for p in mismatch)
        spans_path = args.workdir / "spans.json"
        spans_path.write_text(json.dumps([s.as_dict() for s in tracer.spans]), encoding="utf-8")
    if args.out is not None:
        args.out.write_text(json.dumps(record, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
