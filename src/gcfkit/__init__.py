"""gcfkit: design and verification of fixed-point generalized comb decimators."""

from .errors import (
    InternalError,
    ParameterError,
    StageOverflowError,
)
from .filters import (
    GcfSpec,
    comb_coefficients,
    expand_full_polynomial,
    normalization_gain,
    polyphase_impulse,
    stage_coefficients,
)
from .spectral import (
    FoldingBandSet,
    comb_response,
    folding_bands,
    gcf_response,
    grid_frequencies,
    worst_case_attenuation,
)
from .wordlength import (
    MonteCarloRun,
    SensitivityResult,
    ToleranceSpec,
    WordLengthReport,
    cascade_derivative_magnitudes,
    design_wordlengths,
    integer_bits,
    monte_carlo_run,
    quantization_error_response,
    quantize_coefficients,
    sensitivity,
    y_from_p,
)
from .sdsim import (
    ModulatorResult,
    SimulationRun,
    decimate_fixed_point,
    export_run,
    generate_bandlimited_signal,
    run_experiment,
    sd_modulate,
    welch_psd,
)

__version__ = "0.1.0"
