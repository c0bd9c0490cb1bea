"""Forcing inference for linear systems by adjoint reduction.

The package turns the inverse problem "which forcing produced these noisy
readings of the solution?" into an exact Bayesian linear regression: one
adjoint solve per observation functional converts each reading into a linear
functional of the forcing, and a random Fourier feature expansion of the
forcing prior closes the model in conjugate form.  A random-walk sampler over
the same posterior is included as a validation baseline.
"""

import types

from .errors import (
    AdjointGPError,
    ConfigError,
    DomainError,
    GridMismatchError,
    MisspecificationWarning,
    NumericalError,
    SolverError,
    StabilityWarning,
)
from .fields import (
    AdjointBank,
    Field,
    Grid,
    Window,
    field_from_binary,
    field_to_binary,
    inner_product,
    norm,
    window_indicator,
)
from .features import (
    FeatureBasis,
    KernelParams,
    forcing_from_weights,
    sample_prior_forcing,
)
from .ode import OdeParams, OdeSystem, euler_stability_limit
from .pde import PdeParams, PdeSystem, cfl_limit
from .shift import ShiftParams, ShiftSystem
from .inference import (
    ObservationSet,
    PipelineResult,
    PosteriorQ,
    PIPELINE_STAGES,
    assemble_phi,
    grid_scan,
    nll_score,
    posterior_forcing,
    posterior_q,
    predictive_mse,
    predictive_nll,
    run_pipeline,
)
from .mcmc import (
    ChainConfig,
    ChainDiagnostics,
    ChainResult,
    GaussianTarget,
    chain_diagnostics,
    chain_to_csv,
    gaussian_log_target,
    rw_mh,
    tune_proposal_scale,
)
from .config import Config, canonical_text, config_hash, load_config, parse_config
from .experiments import (
    SimulatedData,
    InferenceOutcome,
    McmcOutcome,
    ScanOutcome,
    build_heldout,
    build_windows,
    derive_seed,
    load_bundle,
    make_grid,
    make_kernel,
    make_system,
    run_inference,
    run_mcmc,
    run_shift_demo,
    run_sweep,
    save_bundle,
    save_inference,
    save_mcmc,
    scan_hyper,
    simulate_data,
)

__version__ = "0.1.0"

# every public name imported above, and the version
__all__ = [name for name, value in list(globals().items())
           if not name.startswith("_") and not isinstance(value, types.ModuleType)]
__all__.append("__version__")
