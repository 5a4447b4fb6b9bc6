"""Lensless ghost imaging with thermal light, plus temporal coincidence
counting: field propagation, coherence kernels, correlation imaging by
Monte Carlo and by the analytic ensemble limit, and an HBT-style photon
stream simulator with a start-stop histogram.
"""

from .errors import (
    ConfigError,
    DegenerateStatisticsError,
    GhostSimError,
    GridMismatchError,
    InvalidArgumentError,
    NotMeasurableError,
    SamplingCriterionError,
    UnsupportedProfileError,
)
from .grid import ComplexField, TransverseGrid, make_grid
from .optics import (
    GaussianProfile,
    OpticalGeometry,
    SourceSpec,
    TransmissionMask,
    UniformProfile,
    apply_mask,
    fresnel_propagate,
    sampling_bound,
)
from .coherence import coherence_kernel_map, mutual_coherence_kernel
from .ensemble import (
    CorrelationProfile,
    EnsembleConfig,
    delta_g2_montecarlo,
    draw_source_realization,
    simulate_realization,
)
from .analytic import (
    PointlikeObject,
    delta_g2_analytic,
    g2_pointlike,
    predicted_speckle_size,
)
from .coincidence import (
    CoincidenceHistogram,
    DetectorSpec,
    G2Estimate,
    estimate_coherence_time,
    estimate_g2,
    g2_zero_standard_error,
    simulate_intensity_trace,
    start_stop_histogram,
    thin_photons,
)
from .scenario import ScenarioConfig, dump_scenario, parse_scenario
from .runner import MetricsReport, profile_metrics, run_scenario, sweep_matrix
from .output import export_results, read_profile_csv

__version__ = "0.1.0"

__all__ = [
    "ComplexField",
    "CoincidenceHistogram",
    "ConfigError",
    "CorrelationProfile",
    "DegenerateStatisticsError",
    "DetectorSpec",
    "EnsembleConfig",
    "G2Estimate",
    "GaussianProfile",
    "GhostSimError",
    "GridMismatchError",
    "InvalidArgumentError",
    "MetricsReport",
    "NotMeasurableError",
    "OpticalGeometry",
    "PointlikeObject",
    "SamplingCriterionError",
    "ScenarioConfig",
    "SourceSpec",
    "TransmissionMask",
    "TransverseGrid",
    "UniformProfile",
    "UnsupportedProfileError",
    "apply_mask",
    "coherence_kernel_map",
    "delta_g2_analytic",
    "delta_g2_montecarlo",
    "draw_source_realization",
    "dump_scenario",
    "estimate_coherence_time",
    "estimate_g2",
    "export_results",
    "fresnel_propagate",
    "g2_pointlike",
    "g2_zero_standard_error",
    "make_grid",
    "mutual_coherence_kernel",
    "parse_scenario",
    "predicted_speckle_size",
    "profile_metrics",
    "read_profile_csv",
    "run_scenario",
    "sampling_bound",
    "simulate_intensity_trace",
    "simulate_realization",
    "start_stop_histogram",
    "sweep_matrix",
    "thin_photons",
    "__version__",
]
