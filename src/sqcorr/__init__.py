"""Broadband photon correlations of multimode squeezed light.

Simulates displaced squeezed thermal states mode by mode, predicts broadband
g2(0)/g3(0) via closed-form Gaussian moments (certified in the tests against a
number-basis oracle), synthesizes pulsed click-detector time tags, and runs
the coincidence-histogram analysis pipeline back to correlation values,
Cauchy-Schwarz tests and hyperparameter fits.
"""
__version__ = "0.1.0"

from .analysis import (
    AnalysisConfig,
    CorrelationEstimate,
    CsiResult,
    csi_r,
    extract_g2,
    extract_g3,
)
from .constants import DEFAULT_REP_RATE_HZ, LASER_PERIOD_PS
from .estimation import (
    CrossoverFit,
    DataSetPoint,
    FitResult,
    crossover_fit,
    fit_parameters,
    model_curve,
    objective,
    read_dataset_csv,
)
from .exceptions import (
    DataFormatError,
    DegenerateFitError,
    DegenerateStateError,
    EmptyChannelError,
    InsufficientSatellitesError,
    InvalidParameterError,
    NoConvergenceError,
    PoorNormalizationError,
    SqcorrError,
    TruncationError,
)
from .histograms import (
    Histogram1D,
    Histogram2D,
    coincidence_histogram_2,
    coincidence_histogram_3,
)
from .simulate import (
    OpticsConfig,
    PairSourceConfig,
    click_expectations,
    generate_timetags,
    pair_source_click_expectations,
    state_photon_pmf,
)
from .states import (
    HyperParams,
    ModeParams,
    MultimodeState,
    NormallyOrderedMoments,
    broadband_moments,
    combine_moments,
    expand_hyperparams,
    mode_moments,
    mode_weights,
    per_mode_moments,
    schmidt_number,
    schmidt_number_mu,
    squeezing_db,
    wick_moments,
)
from .tags import TagStream, load_tags, read_tags, read_tags_csv, write_tags, write_tags_csv

# the number-basis oracle certifies the closed forms in the tests; it is
# imported on first use, so importing the package does not run it
_FOCK_EXPORTS = ("mode_density_matrix", "oracle_moments", "photon_number_pmf",
                 "tensor_broadband_moments")


def __getattr__(name):
    if name in _FOCK_EXPORTS:
        from . import fock

        return getattr(fock, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AnalysisConfig",
    "CorrelationEstimate",
    "CrossoverFit",
    "CsiResult",
    "DEFAULT_REP_RATE_HZ",
    "DataFormatError",
    "DataSetPoint",
    "DegenerateFitError",
    "DegenerateStateError",
    "EmptyChannelError",
    "FitResult",
    "Histogram1D",
    "Histogram2D",
    "HyperParams",
    "InsufficientSatellitesError",
    "InvalidParameterError",
    "LASER_PERIOD_PS",
    "ModeParams",
    "MultimodeState",
    "NoConvergenceError",
    "NormallyOrderedMoments",
    "OpticsConfig",
    "PairSourceConfig",
    "PoorNormalizationError",
    "SqcorrError",
    "TagStream",
    "TruncationError",
    "broadband_moments",
    "click_expectations",
    "coincidence_histogram_2",
    "coincidence_histogram_3",
    "combine_moments",
    "crossover_fit",
    "csi_r",
    "expand_hyperparams",
    "extract_g2",
    "extract_g3",
    "fit_parameters",
    "generate_timetags",
    "load_tags",
    "mode_density_matrix",
    "mode_moments",
    "mode_weights",
    "model_curve",
    "objective",
    "oracle_moments",
    "pair_source_click_expectations",
    "per_mode_moments",
    "photon_number_pmf",
    "read_dataset_csv",
    "read_tags",
    "read_tags_csv",
    "schmidt_number",
    "schmidt_number_mu",
    "squeezing_db",
    "state_photon_pmf",
    "tensor_broadband_moments",
    "wick_moments",
    "write_tags",
    "write_tags_csv",
]
