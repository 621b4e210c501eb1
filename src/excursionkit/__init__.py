"""Volume and surface estimation for excursion sets of smooth random fields.

The package samples isotropic Gaussian and chi-square fields, thresholds them
on polytopic honeycombs (hypercubic, hexagonal, Poisson-Voronoi), and studies
the surface-area estimator built from facet crossings: its dimension-dependent
multiplicative bias 2d/beta_d, the corrected estimator, two-point crossing
rates, random-line boundary measures, and joint fluctuation scaling.
"""

from .densities import (
    CovarianceModel,
    beta_d,
    bias_factor,
    chisq_surface_density,
    chisq_volume_density,
    gaussian_l1_limit,
    gaussian_surface_density,
    gaussian_volume_density,
)
from .tessellation import (
    Box,
    FacetSet,
    GridSpec,
    WindowedHoneycomb,
    hexagonal_honeycomb,
    hypercubic_honeycomb,
    pyramid_identity_sum,
    voronoi_honeycomb_2d,
)
from .sampling import (
    covariance_factor,
    sample_chi_square,
    sample_gaussian_grid,
    sample_gaussian_points,
    sample_poisson_process,
)
from .estimators import (
    corrected_surface,
    crossing_frequency,
    exceedance_indicator,
    hypercubic_surface_fast,
    surface_estimate,
    volume_estimate,
)
from .crofton import (
    CroftonEstimate,
    LevelPolyline,
    circle_shape,
    crofton_measure_mc,
    extract_level_polyline_2d,
    l1_weighted_length,
    sphere_l1_average,
    square_shape,
)
from .campaigns import (
    CampaignConfig,
    ConfigError,
    McCampaignResult,
    default_config,
    run_campaign,
    validate_config,
)

__version__ = "0.1.0"

__all__ = [
    "Box",
    "CampaignConfig",
    "ConfigError",
    "CovarianceModel",
    "CroftonEstimate",
    "FacetSet",
    "GridSpec",
    "LevelPolyline",
    "McCampaignResult",
    "WindowedHoneycomb",
    "beta_d",
    "bias_factor",
    "chisq_surface_density",
    "chisq_volume_density",
    "circle_shape",
    "corrected_surface",
    "covariance_factor",
    "crofton_measure_mc",
    "crossing_frequency",
    "default_config",
    "exceedance_indicator",
    "extract_level_polyline_2d",
    "gaussian_l1_limit",
    "gaussian_surface_density",
    "gaussian_volume_density",
    "hexagonal_honeycomb",
    "hypercubic_honeycomb",
    "hypercubic_surface_fast",
    "l1_weighted_length",
    "pyramid_identity_sum",
    "run_campaign",
    "sample_chi_square",
    "sample_gaussian_grid",
    "sample_gaussian_points",
    "sample_poisson_process",
    "sphere_l1_average",
    "square_shape",
    "surface_estimate",
    "validate_config",
    "volume_estimate",
    "voronoi_honeycomb_2d",
    "__version__",
]
