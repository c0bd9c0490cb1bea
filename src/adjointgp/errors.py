"""Exception and warning types shared across the package."""

import numpy as np


class AdjointGPError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(AdjointGPError):
    """Invalid configuration value, unknown key, or violated precondition."""


class DomainError(AdjointGPError):
    """A geometric request (window, region) does not intersect the grid."""


class GridMismatchError(AdjointGPError):
    """Operands live on different grids, or a grid does not fit the operator."""


class NumericalError(AdjointGPError):
    """A linear-algebra or sampling routine failed (rank deficiency,
    factorization failure, degenerate chain)."""


class SolverError(AdjointGPError):
    """A time-stepping solve produced non-finite values."""


def check_march(label: str, rows: np.ndarray, reverse: bool = False, order=None,
                step: int = 0) -> None:
    """Raise SolverError unless a march wrote only finite values.

    `rows` holds the solutions of the first len(rows) columns of a march,
    time cells on axis 1, the first marched at `step`; column j solves the
    caller's right-hand side `order[j]` (default j).  Once a state is
    non-finite every later one is too, so one check after the march, or of
    each slab, finds every divergence.  The error names the first time cell
    in march order (from the last cell with `reverse`) whose solution is
    non-finite as its step and, if there are several or `order` names
    them, the caller's first right-hand side bad there.
    """
    # min and max see every nan and inf without a boolean copy of the rows,
    # which would add an eighth of a bank to the peak memory
    if np.isfinite(rows.min()) and np.isfinite(rows.max()):
        return
    bad = ~np.isfinite(rows).reshape(rows.shape[0], rows.shape[1], -1).all(axis=2)
    if reverse:
        bad = bad[:, ::-1]  # time cells in march order
    first = int(np.flatnonzero(bad.any(axis=0))[0])
    note = ""
    if order is not None or len(rows) > 1:
        order = np.arange(len(rows)) if order is None else np.asarray(order)
        note = f" (right-hand side {int(order[:len(rows)][bad[:, first]].min())})"
    raise SolverError(f"{label} solve produced non-finite values at step {step + first}{note}")


class StabilityWarning(UserWarning):
    """The explicit scheme is predicted to be unstable at this step size."""


class MisspecificationWarning(UserWarning):
    """Posterior residuals are too large for the basis size; the feature
    count is probably too small for the observed data."""
