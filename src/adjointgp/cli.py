"""Command-line front end.

Subcommands:

    simulate    build a data bundle from a config file
    infer       run the adjoint inference pipeline on a bundle
    mcmc        run the random-walk sampler on a bundle and compare
    sweep       sensors-by-features replicate sweep (resumable)
    scan-hyper  kernel hyperparameter lattice scan on a bundle
    shift-demo  built-in end-to-end shift-system demonstration

Exit codes: 0 success, 2 configuration or domain errors, 3 numerical
failures, 4 solver failures.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import load_config
from .errors import (
    ConfigError,
    DomainError,
    GridMismatchError,
    NumericalError,
    SolverError,
)
from .experiments import (
    MCMC_FEATURE_WARN,
    _slice_index,
    load_bundle,
    run_inference,
    run_mcmc,
    run_shift_demo,
    run_sweep,
    save_bundle,
    save_inference,
    save_mcmc,
    save_scan,
    scan_hyper,
    simulate_data,
)

__all__ = ["main", "entry"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adjointgp",
        description="Infer unknown forcing functions of linear systems "
                    "from noisy observations via adjoint solves.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="build a data bundle from a config")
    p_sim.add_argument("--config", required=True, help="experiment config file")
    p_sim.add_argument("--out", required=True, help="bundle output directory")

    p_inf = sub.add_parser("infer", help="adjoint inference pipeline on a bundle")
    p_inf.add_argument("bundle", help="data bundle directory")
    p_inf.add_argument("--out", required=True, help="output directory")
    p_inf.add_argument("--slice", dest="slice_spec", default=None, metavar="t=VALUE",
                       help="also write a spatial slice of the forcing mean "
                            "at the given time (pde only)")

    p_mc = sub.add_parser("mcmc", help="random-walk sampler baseline on a bundle")
    p_mc.add_argument("bundle", help="data bundle directory")
    p_mc.add_argument("--out", required=True, help="output directory")

    p_sw = sub.add_parser("sweep", help="sensors-by-features replicate sweep")
    p_sw.add_argument("--config", required=True, help="config with a [sweep] section")
    p_sw.add_argument("--out", required=True, help="output directory (resumable)")

    p_sc = sub.add_parser("scan-hyper", help="kernel hyperparameter lattice scan")
    p_sc.add_argument("bundle", help="data bundle directory (config needs [scan])")
    p_sc.add_argument("--out", required=True, help="output directory")

    p_demo = sub.add_parser("shift-demo", help="end-to-end shift-system demo")
    p_demo.add_argument("--out", default=None, help="optional output directory")
    p_demo.add_argument("--seed", type=int, default=None,
                        help="alternate seed for the built-in scenario")

    return parser


def _parse_slice(spec: str) -> float:
    axis, sep, raw = spec.partition("=")
    if axis.strip() != "t" or not sep:
        raise ConfigError(f"--slice expects t=VALUE (got {spec!r})")
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"--slice value must be a number (got {raw!r})") from None


def _check_out(args) -> None:
    """Refuse, before any work, an --out that is or lies under an existing
    file or other non-directory, or that is the bundle the command reads."""
    out = Path(args.out or ".")  # shift-demo's --out is optional
    if any(p.exists() and not p.is_dir() for p in (out, *out.parents)):
        raise ConfigError(f"--out {out} is or lies under an existing non-directory")
    if "bundle" in args and out.resolve() == Path(args.bundle).resolve():
        raise ConfigError(f"--out {out} is the bundle the command reads")


def cmd_simulate(args) -> int:
    config = load_config(args.config)
    data = simulate_data(config)
    out = save_bundle(data, args.out)
    print(f"simulated kind={config.kind} observations={len(data.windows)} "
          f"heldout={len(data.heldout_windows)} -> {out}")
    return 0


def cmd_infer(args) -> int:
    slice_t = _parse_slice(args.slice_spec) if args.slice_spec else None
    data = load_bundle(args.bundle)
    if slice_t is not None:
        _slice_index(data.grid, slice_t)  # refused before any output is written
    outcome = run_inference(data)
    out = save_inference(outcome, data, args.out, slice_t)
    for key in sorted(outcome.metrics):
        print(f"{key} = {outcome.metrics[key]}")
    for key, value in outcome.timings.items():
        print(f"time[{key}] = {value:.4f}s" if isinstance(value, float) else f"{key} = {value}")
    print(f"outputs -> {out}")
    return 0


def cmd_mcmc(args) -> int:
    data = load_bundle(args.bundle)
    features = data.config["features"]["count"]
    if features >= MCMC_FEATURE_WARN:
        print(f"warning: sampling {features} weights by random walk is costly "
              "and may not converge; the adjoint route computes this "
              "posterior exactly", file=sys.stderr)
    outcome = run_mcmc(data)
    out = save_mcmc(outcome, data, args.out)
    for key, spec in (("acceptance_rate", ".3f"), ("proposal_scale", ".4g"), ("min_ess", ".1f"),
                      ("max_rhat", ".4f"), ("converged", ""), ("max_abs_mean_gap", ".4g")):
        print(f"{key} = {outcome.diagnostics[key]:{spec}}")
    print(f"outputs -> {out}")
    return 0


def cmd_sweep(args) -> int:
    config = load_config(args.config)
    ran, skipped, summary = run_sweep(
        config, args.out,
        progress=lambda key: print(f"done sensors={key[0]} features={key[1]} "
                                   f"replicate={key[2]}"))
    print(f"ran {ran} replicates, skipped {skipped} already complete")
    for cell in sorted(summary):
        stats = summary[cell]
        print(f"{cell}: median={stats['median']:.6g} "
              f"band=[{stats['p2.5']:.6g}, {stats['p97.5']:.6g}] n={stats['count']}")
    print(f"outputs -> {args.out}")
    return 0


def cmd_scan(args) -> int:
    data = load_bundle(args.bundle)
    outcome = scan_hyper(data)
    out = save_scan(outcome, args.out)
    best_theta, best_nll = outcome.results[0]
    print(f"best lengthscale={best_theta['lengthscale']:.6g} "
          f"variance={best_theta['variance']:.6g} nll={best_nll:.6g}")
    print(f"outputs -> {out}")
    return 0


def cmd_shift_demo(args) -> int:
    report = run_shift_demo(out_dir=args.out, seed=args.seed)
    print(f"mse = {report['mse']:.6g} (target {report['target']})")
    print(f"passed = {report['passed']}")
    if args.out:
        print(f"outputs -> {args.out}")
    return 0


_COMMANDS = {
    "simulate": cmd_simulate,
    "infer": cmd_infer,
    "mcmc": cmd_mcmc,
    "sweep": cmd_sweep,
    "scan-hyper": cmd_scan,
    "shift-demo": cmd_shift_demo,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _check_out(args)
        return _COMMANDS[args.command](args)
    except (ConfigError, DomainError, GridMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 4


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
