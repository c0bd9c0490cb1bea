"""Outside-in span tracer for the adjointgp modules.

The tracer wraps named public functions and solver methods from outside the
package.  A function is wrapped by object identity: every loaded
``adjointgp`` module namespace that binds the same object gets the wrapper,
so a call is seen whether the caller reached the function through
``features``, ``inference`` or ``experiments``.  Each call becomes a span
(name, start, end, parent span, command id) kept in memory; ``spans`` are
written out once the benchmark ends.  A hook whose target no longer exists
is listed in ``absent`` and never raises.

Counts that describe work done (cells stepped, cosines evaluated, chain
steps, bytes written) are computed from call arguments and results, not
read from hardware counters.
"""

from __future__ import annotations

import functools
import hashlib
import sys
import time
from pathlib import Path


def _num_cells(grid) -> int:
    return int(grid.num_cells)


def _dir_bytes(path) -> int:
    out = Path(path)
    if not out.is_dir():
        return 0
    return sum(p.stat().st_size for p in out.iterdir() if p.is_file())


def _solver_counts(args, kwargs, result):
    system, functional = args[0], args[1]
    return {"cell_steps": _num_cells(system.grid),
            "window": hashlib.sha1(functional.values_flat.tobytes()).hexdigest()}


def _forward_counts(args, kwargs, result):
    return {"cell_steps": _num_cells(args[0].grid)}


def _forcing_counts(args, kwargs, result):
    basis, grid = args[0], args[2]
    return {"cos_evals": int(basis.size) * _num_cells(grid)}


def _posterior_forcing_counts(args, kwargs, result):
    # the mean pass goes through forcing_from_weights and is counted there;
    # this is the variance pass over the same cells
    basis, grid = args[1], args[2]
    return {"cos_evals": int(basis.size) * _num_cells(grid)}


def _assemble_counts(args, kwargs, result):
    adjoints, basis = list(args[0]), args[1]
    return {"cos_evals": int(basis.size) * _num_cells(adjoints[0].grid)}


def _pipeline_counts(args, kwargs, result):
    system, observations, basis = args[0], args[1], args[2]
    counts = {"cos_evals": int(basis.size) * _num_cells(system.grid),
              "observations": int(observations.n)}
    for stage, seconds in result.timings.items():
        counts[f"stage.{stage}"] = float(seconds)
    return counts


def _chain_counts(args, kwargs, result):
    return {"steps": int(result.config.steps), "accepted": int(result.accepted)}


def _csv_counts(args, kwargs, result):
    return {"bytes": Path(args[1]).stat().st_size}


def _save_counts(args, kwargs, result):
    return {"bytes": _dir_bytes(result)}


def _sweep_counts(args, kwargs, result):
    return {"bytes": _dir_bytes(args[1])}


# (span name, module, attribute path, work counter or None)
HOOKS = (
    ("experiments.simulate_data", "adjointgp.experiments", "simulate_data", None),
    ("experiments.save_bundle", "adjointgp.experiments", "save_bundle", _save_counts),
    ("experiments.load_bundle", "adjointgp.experiments", "load_bundle", None),
    ("experiments.run_inference", "adjointgp.experiments", "run_inference", None),
    ("experiments.save_inference", "adjointgp.experiments", "save_inference", _save_counts),
    ("experiments.scan_hyper", "adjointgp.experiments", "scan_hyper", None),
    ("experiments.save_scan", "adjointgp.experiments", "save_scan", _save_counts),
    ("experiments.run_mcmc", "adjointgp.experiments", "run_mcmc", None),
    ("experiments.save_mcmc", "adjointgp.experiments", "save_mcmc", _save_counts),
    ("experiments.run_sweep", "adjointgp.experiments", "run_sweep", _sweep_counts),
    ("inference.run_pipeline", "adjointgp.inference", "run_pipeline", _pipeline_counts),
    ("inference.assemble_phi", "adjointgp.inference", "assemble_phi", _assemble_counts),
    ("inference.posterior_q", "adjointgp.inference", "posterior_q", None),
    ("inference.posterior_forcing", "adjointgp.inference", "posterior_forcing",
     _posterior_forcing_counts),
    ("inference.predictive_mse", "adjointgp.inference", "predictive_mse", None),
    ("inference.predictive_nll", "adjointgp.inference", "predictive_nll", None),
    ("features.sample", "adjointgp.features", "FeatureBasis.sample", None),
    ("features.forcing_from_weights", "adjointgp.features", "forcing_from_weights",
     _forcing_counts),
    ("ode.forward", "adjointgp.ode", "OdeSystem.forward", _forward_counts),
    ("ode.adjoint", "adjointgp.ode", "OdeSystem.adjoint", _solver_counts),
    ("pde.forward", "adjointgp.pde", "PdeSystem.forward", _forward_counts),
    ("pde.adjoint", "adjointgp.pde", "PdeSystem.adjoint", _solver_counts),
    ("mcmc.rw_mh", "adjointgp.mcmc", "rw_mh", _chain_counts),
    ("mcmc.tune", "adjointgp.mcmc", "tune_proposal_scale", None),
    ("mcmc.chain_diagnostics", "adjointgp.mcmc", "chain_diagnostics", None),
    ("mcmc.chain_to_csv", "adjointgp.mcmc", "chain_to_csv", _csv_counts),
)


class Span:
    __slots__ = ("id", "name", "parent", "command", "start", "end", "counts")

    def __init__(self, span_id, name, parent, command, start):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.command = command
        self.start = start
        self.end = start
        self.counts = {}

    def as_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "parent": self.parent,
                "command": self.command, "start": self.start, "end": self.end,
                "counts": self.counts}


class Tracer:
    """Install with ``install()``, name the running command with
    ``command``, and restore the package with ``uninstall()``."""

    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.command: str | None = None
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, name, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(len(tracer.spans), name, parent, tracer.command,
                        time.perf_counter())
            tracer.spans.append(span)
            tracer._stack.append(span.id)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if counter is not None:
                try:
                    span.counts = counter(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, OSError, TypeError, ValueError):
                    # the call's signature or result changed: the span keeps
                    # its time, the work counts read 0, and the program runs on
                    span.counts = {}
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "adjointgp" or key.startswith("adjointgp."))]
        for name, module_name, path, counter in HOOKS:
            module = sys.modules.get(module_name)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            if owner_name and isinstance(owner, type):
                self._wrap_method(name, owner, attr, counter)
            elif not owner_name and module is not None and hasattr(module, attr):
                self._wrap_function(name, getattr(module, attr), modules, counter)
            else:
                self.absent.append(name)

    def _wrap_function(self, name, target, modules, counter):
        wrapper = self._wrap(name, target, counter)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is target:
                    setattr(module, key, wrapper)
                    self._undo.append((module, key, target))

    def _wrap_method(self, name, cls, attr, counter):
        raw = cls.__dict__.get(attr)
        if isinstance(raw, classmethod):
            replacement = classmethod(self._wrap(name, raw.__func__, counter))
        elif callable(raw):
            replacement = self._wrap(name, raw, counter)
        else:
            self.absent.append(name)
            return
        setattr(cls, attr, replacement)
        self._undo.append((cls, attr, raw))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()
