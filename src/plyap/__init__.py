"""Sensitivity exponents for classical densities and quantum states in ray space."""

__version__ = "0.1.0"

from .errors import (
    BasisMismatchError,
    ConfigError,
    DataFormatError,
    DegeneratePathError,
    DomainError,
    InsufficientDataError,
    InvalidStateError,
    PlyapError,
    SaturationError,
)
from .geometry import (
    DiscreteBasis,
    GridBasis1D,
    GridBasis2D,
    ProjectiveState,
    log_abs_exp_diff,
    log_projective_divergence,
    overlap_magnitude,
)
from .series import (
    DEFAULT_THETA,
    DivergenceSeries,
    ExponentEstimate,
    OverlapSeries,
    series_from_log_overlaps,
)
from .ensembles import (
    GridDensity,
    MapDescriptor,
    baker_map,
    density_overlap,
    evolve_linear_analytic,
    r_adic_map,
    sqrt_embed,
    square_density,
    transfer_step,
)
from .estimators import (
    asymptotic_estimate,
    detect_saturation,
    divergence_series,
    finite_time_p_lyapunov,
    ingest_overlap_series,
    read_overlap_csv,
)
from .quantum import (
    GaussianState,
    QuadraticSystem,
    bvs_baker,
    bvs_coherent_state,
    gaussian_autocorrelation,
)
from .runner import (
    FIGURE_IDS,
    SUMMARY_SCHEMA,
    ExperimentConfig,
    ExperimentResult,
    figure,
    ingest,
    run,
    validate_summary,
)
