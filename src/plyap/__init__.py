"""Sensitivity exponents for classical densities and quantum states in ray space."""

__version__ = "0.1.0"

from .errors import (
    BasisMismatchError,
    ConfigError,
    DataFormatError,
    DegeneratePathError,
    DomainError,
    DomainOverflowError,
    InsufficientDataError,
    InvalidStateError,
    NumericalOverflowError,
    PlyapError,
    SaturationError,
)
from .geometry import (
    DiscreteBasis,
    GridBasis1D,
    GridBasis2D,
    ProjectiveState,
    bounded_euclidean_distance,
    classical_divergence,
    fubini_study_distance,
    hilbert_distance,
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
    apply_map,
    baker_map,
    density_overlap,
    evolve_linear_analytic,
    koopman_step,
    linear_map,
    r_adic_map,
    rotation_map,
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
    trajectory_lyapunov,
)
from .quantum import (
    GaussianState,
    QuadraticSystem,
    barrier_overlap_paper,
    bvs_baker,
    bvs_coherent_state,
    gaussian_autocorrelation,
    gaussian_on_grid,
    plan_split_grid,
    split_operator_propagate,
)
from .runner import (
    SUMMARY_SCHEMA,
    ExperimentConfig,
    ExperimentResult,
    figure,
    ingest,
    run,
    selftest,
    validate_summary,
)
