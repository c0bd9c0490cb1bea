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

    @classmethod
    def at_step(cls, label: str, step: int, state: np.ndarray) -> "SolverError":
        """Error for a march whose state, one row per right-hand side, went
        non-finite at `step`; a bank of several also names the first bad row."""
        note = ""
        if state.shape[0] > 1:
            bad = ~np.isfinite(state.reshape(state.shape[0], -1)).all(axis=1)
            note = f" (right-hand side {int(np.flatnonzero(bad)[0])})"
        return cls(f"{label} solve produced non-finite values at step {step}{note}")


class StabilityWarning(UserWarning):
    """The explicit scheme is predicted to be unstable at this step size."""


class MisspecificationWarning(UserWarning):
    """Posterior residuals are too large for the basis size; the feature
    count is probably too small for the observed data."""
