"""Benchmark of the adjointgp commands, timed end to end.

Each workload runs in a fresh child process (``workload.py``) that acts as
one closed-loop client over the library's command entry points.  This
process reads the child's set-up time and its peak RSS (RUSAGE_CHILDREN),
takes further set-up samples, and prints the result.  It imports nothing
beyond the standard library, so its own footprint stays out of the numbers.

The gated times are CPU times (user + system) of the single-threaded child,
each scaled by a reference kernel run next to it (``workload.reference``):
on a shared host both the wall time and the CPU time of the same work drift
by a third or more with the load of other tenants, and the scaled time is
what stays put.  Wall and raw CPU times are measured too and printed, but
not gated.

    python3 perfbench/run.py --workload pde-infer --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --all --seed 1          # every workload, one table
    python3 perfbench/run.py --all --smoke           # tiny grids, for the self-test

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` they are the per-layer ones from
a traced cycle.  Lines before it print every metric by name and unit and a
``detail`` record (seeds, config hashes, environment, per-command times).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
WORKLOADS = ("pde-infer", "ode-bundle", "pde-sweep")

SETUP_SAMPLES = 5  # the workload child plus four probes
DEADLINE_S = 170.0  # every run ends well inside 180 s

# per-command medians reported on each workload (metric -> command); the
# ode-bundle simulate (about 0.1 s) and the sweep rerun run but are not reported
COMMAND_METRICS = {
    "pde-infer": {"simulate_s": "simulate", "infer_s": "infer"},
    "ode-bundle": {"infer_s": "infer", "scan_s": "scan", "mcmc_s": "mcmc"},
    "pde-sweep": {"sweep_s": "sweep"},
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


# One BLAS thread (the cap may be at most nproc).  On a 2-vCPU x86_64 VM a
# second OpenBLAS thread made ode-bundle cycles 10-20% slower and their
# spread within a run wider, and no workload here has a BLAS-bound layer.
BLAS_THREADS = 1


def child_env() -> dict:
    cap = str(min(BLAS_THREADS, nproc()))
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = cap
    return env


def summarize(samples: list) -> dict:
    """Median with its sample count, plus the highest percentile that has at
    least ten samples beyond it."""
    out = {"median": statistics.median(samples), "n": len(samples)}
    if len(samples) >= 20:
        q = int(100 * (1 - 10 / len(samples)))
        out[f"p{q}"] = statistics.quantiles(samples, n=100)[q - 1]
    return out


def spawn(args: list, deadline: float) -> tuple[float, float, float]:
    """Run workload.py to its end; returns the wall and the CPU seconds the
    child took until it was READY, and the CPU seconds of its reference run."""
    cmd = [sys.executable, str(HERE / "workload.py"), *args]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env(),
                            cwd=ROOT)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        ref_line = proc.stdout.readline()
        proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"workload child overran the {DEADLINE_S:.0f} s deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    word, _, cpu = line.strip().partition(" ")
    ref_word, _, ref = ref_line.strip().partition(" ")
    if word != "READY" or ref_word != "REFERENCE" or proc.returncode != 0:
        raise BenchError(f"workload child failed (exit {proc.returncode})")
    return ready, float(cpu), float(ref)


def run_workload(workload: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    if not (ROOT / "src" / "adjointgp" / "__init__.py").is_file():
        raise BenchError(f"no adjointgp sources under {ROOT / 'src'}")
    deadline = time.monotonic() + DEADLINE_S
    workdir = WORK / f"{workload}-seed{seed}-trace{trace}"
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
              "--workdir", str(workdir)] + (["--smoke"] if smoke else [])
    result_path = workdir / "result.json"
    setup = [spawn(common + ["--trace", str(trace), "--out", str(result_path)], deadline)]
    # RUSAGE_CHILDREN holds the largest child so far: the workload, before any probe
    run_peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    for _ in range(SETUP_SAMPLES - 1):
        setup.append(spawn(common + ["--probe"], deadline))
    record = json.loads(result_path.read_text(encoding="utf-8"))

    commands = {name: summarize(times) for name, times in record["command_times"].items()}
    commands_cpu = {name: summarize(times)
                    for name, times in record["command_cpu_times"].items()}
    # set-up CPU time scaled by the host speed over the whole run: the median
    # of every reference run, one per process and those between commands
    references = [s[2] for s in setup] + record["references"]
    setup_scaled = statistics.median(s[1] for s in setup) * (
        record["reference_s"] / statistics.median(references))
    detail = {
        "workload": workload, "seed": seed, "smoke": smoke, "trace": trace,
        "config_hash": record["config_hash"], "config_seeds": record["config_seeds"],
        "env": {"nproc": nproc(), "blas_threads": min(BLAS_THREADS, nproc()), "jobs": None,
                "python": platform.python_version(), **record["versions"],
                "machine": platform.machine(), "git_commit": git_commit()},
        "ops_attempted": record["attempted"], "ops_failed": record["failed_ops"],
        "failures": record["failures"], "quality": record["quality"],
        "setup_s": setup_scaled, "setup_wall_s": summarize([s[0] for s in setup]),
        "setup_cpu_s": summarize([s[1] for s in setup]),
        "reference_cpu_s": summarize(references),
        "commands": commands, "commands_cpu": commands_cpu,
        "peak_rss_run_mb": run_peak_rss_mb,
    }
    if trace:
        metrics = {name: {"value": value, "unit": record["layer_units"][name]}
                   for name, value in record["layers"].items()}
        detail.update(absent=record["absent"], absent_metrics=record["absent_metrics"],
                      idle_metrics=record["idle_metrics"],
                      not_applicable=record["not_applicable"],
                      coverage=record["coverage"],
                      trace_hashes_match=record["trace_hashes_match"])
    else:
        cycles = record["cycle_scaled_times"]
        metrics = {
            "setup_s": {"value": setup_scaled, "unit": "s"},
            "cycle_scaled_s": {"value": statistics.median(cycles), "unit": "s"}
            if cycles else None,
            "peak_rss_mb": {"value": record["first_cycle_peak_rss_mb"], "unit": "MiB"},
        }
        detail["reported"] = {
            metric: {**commands[command], "unit": "s"}
            for metric, command in COMMAND_METRICS[workload].items() if command in commands}
        detail["cycle_s"] = summarize(record["cycle_times"]) if cycles else None
        detail["cycle_cpu_s"] = summarize(record["cycle_cpu_times"]) if cycles else None
        detail["cycle_scaled_s"] = summarize(cycles) if cycles else None
    return {
        "correct": record["failed_ops"] == 0 and all(metrics.values()),
        "attempted": record["attempted"],
        "failed": record["failed_ops"],
        "metrics": {k: v for k, v in metrics.items() if v is not None},
        "detail": detail,
    }


def print_table(result: dict) -> None:
    detail = result["detail"]
    rows = [(name, m["value"], m["unit"]) for name, m in result["metrics"].items()]
    if detail.get("cycle_s"):
        rows.append((f"cycle_s, wall (median of {detail['cycle_s']['n']})",
                     detail["cycle_s"]["median"], "s"))
    for name, m in detail.get("reported", {}).items():
        rows.append((f"{name}, wall (median of {m['n']})", m["median"], "s"))
    rows += [("ops_attempted", detail["ops_attempted"], "count"),
             ("ops_failed", detail["ops_failed"], "count")]
    for name, value, unit in rows:
        print(f"{detail['workload']:<11} {name:<44} {value:>14.6g} {unit}")
    for failure in detail["failures"]:
        print(f"{detail['workload']:<11} FAILED {failure.strip()}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny grids (self-test)")
    args = parser.parse_args(argv)
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload or --all")

    if args.all:
        return run_all(args)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, args.trace, args.smoke)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print_table(result)
    print(json.dumps({"detail": result["detail"]}, sort_keys=True))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")},
                     sort_keys=True))
    return 0


def run_all(args) -> int:
    """Every workload through its own run.py process, so that RUSAGE_CHILDREN
    (and with it peak_rss_mb) belongs to that workload alone."""
    final = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {name} failed (exit {proc.returncode})", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        final["correct"] = final["correct"] and result["correct"]
        final["attempted"] += result["attempted"]
        final["failed"] += result["failed"]
        final["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(final, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
