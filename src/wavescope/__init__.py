"""wavescope: wavelet-based characterization of nonstationary time series.

The package groups nine concerns behind one namespace:

- ``signal_core``: series container, CSV ingest, profile construction
- ``spectral``: Fourier power spectra, power-law fits, regime presets
- ``dwt``: orthogonal Daubechies transforms and detail-kill denoising
- ``mfdfa``: wavelet-detrended multifractal fluctuation analysis
- ``cwt``: Morlet scalograms, significance tests, phase comparison
- ``lyapunov``: delay embedding and largest-exponent estimation
- ``synth``: generators with analytic ground truth for validation
- ``figures``: the paper's figures rebuilt from synthetic stand-ins
- ``cli``: config-driven pipeline runner and command line
"""

from .errors import (
    BoundaryValueError,
    ConfigError,
    EmbeddingError,
    EmbeddingQualityWarning,
    InsufficientBandError,
    InsufficientNeighborsError,
    LengthMismatchError,
    NyquistError,
    OutOfRangeError,
    ParseError,
    PoorFitWarning,
    ScaleOutOfRangeError,
    StageError,
    TooShortError,
    ValidationError,
    WavescopeError,
    ZeroVarianceError,
    ZeroVarianceWarning,
)
from .signal_core import TimeSeries, load_csv, profile, write_csv
from .spectral import (
    DISSIPATION_SLOPE,
    NEUTRAL_CASCADE_SLOPE,
    HeisenbergResult,
    PowerSpectrum,
    SpectrumFit,
    dominant_frequency,
    fit_power_law,
    fractal_dimension,
    heisenberg_fit,
    hurst_from_alpha,
    power_spectrum,
)
from .dwt import (
    WaveletSpec,
    daubechies,
    denoise,
    dwt_decompose,
    dwt_max_level,
    dwt_reconstruct,
    extract_fluctuation,
)
from .mfdfa import (
    FluctuationTable,
    fluctuation_function,
    generalized_hurst,
    segment_variance,
)
from .cwt import (
    GlobalPower,
    PhaseComparison,
    PhaseSeries,
    Scalogram,
    cwt_morlet,
    dominant_periods,
    global_power,
    morlet_fourier_factor,
    phase_at_scale,
    phase_difference,
)
from .lyapunov import (
    EmbeddingConfig,
    LyapunovResult,
    estimate_delay,
    largest_lyapunov,
    map_lyapunov,
)
from .synth import (
    BounceParams,
    CascadeParams,
    bounce_map_jacobian,
    bounce_map_trajectory,
    cascade_hurst,
    gen_binomial_cascade,
    gen_bouncing_ball,
    gen_fbm,
    gen_power_law_noise,
    gen_sine_mix,
)
from .figures import figure_repro
from .cli import RunConfig, RunReport, run, validate_config

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "WavescopeError", "ParseError", "ValidationError", "NyquistError",
    "EmbeddingError", "TooShortError", "InsufficientBandError",
    "OutOfRangeError", "BoundaryValueError", "ZeroVarianceError",
    "ZeroVarianceWarning", "ScaleOutOfRangeError", "LengthMismatchError",
    "InsufficientNeighborsError", "PoorFitWarning", "EmbeddingQualityWarning",
    "ConfigError", "StageError",
    # core
    "TimeSeries", "profile", "load_csv", "write_csv",
    # spectral
    "PowerSpectrum", "SpectrumFit", "HeisenbergResult", "power_spectrum",
    "fit_power_law", "hurst_from_alpha",
    "fractal_dimension", "dominant_frequency", "heisenberg_fit",
    "NEUTRAL_CASCADE_SLOPE", "DISSIPATION_SLOPE",
    # dwt
    "WaveletSpec", "daubechies", "dwt_max_level", "dwt_decompose",
    "dwt_reconstruct", "denoise", "extract_fluctuation",
    # mfdfa
    "FluctuationTable", "segment_variance",
    "fluctuation_function", "generalized_hurst",
    # cwt
    "Scalogram", "GlobalPower", "PhaseSeries", "PhaseComparison",
    "morlet_fourier_factor", "cwt_morlet", "global_power",
    "dominant_periods", "phase_at_scale", "phase_difference",
    # lyapunov
    "EmbeddingConfig", "LyapunovResult", "estimate_delay",
    "largest_lyapunov", "map_lyapunov",
    # synth
    "BounceParams", "CascadeParams", "cascade_hurst",
    "gen_fbm", "gen_power_law_noise", "gen_sine_mix",
    "bounce_map_trajectory", "bounce_map_jacobian", "gen_bouncing_ball",
    "gen_binomial_cascade",
    # cli and figures
    "RunConfig", "RunReport", "validate_config", "run", "figure_repro",
]
