"""Cooperative massive MIMO downlink simulator.

Implements a two-stage downlink precoder (statistical inner stage from
the spatial covariance, zero-forcing outer stage on the reduced
effective channel) together with receiver-side cooperation: co-located
users pool their received samples, optionally quantized for transport
over a rate-limited device-to-device link, and decode with a unitary
matrix selected from a shared random codebook. The harness reproduces
the capacity experiments as machine-readable CSV.
"""

from .bounds import (
    BoundInvalidError,
    aligned_cell_distortion,
    cell_distortion,
    expected_cell_distortion,
    ideal_cooperation_snr,
    snr_lower_bound,
    snr_lower_bound_terms,
)
from .channel import (
    ScatteringEnvironment,
    analytic_covariance,
    draw_environment,
    inner_precoder,
    sample_channel,
)
from .codebook import CodebookBudgetError, generate_codebook, select_codeword
from .config import (
    ConfigError,
    ExperimentConfig,
    MODES,
    PRESET_NAMES,
    config_from_dict,
    load_config,
    preset_config,
)
from .harness import (
    GridPoint,
    TrialRecord,
    capacity,
    cell_distortion_audit,
    codebook_for,
    grid_points,
    run_experiment,
    run_trial,
    write_outputs,
)
from .linklevel import empirical_snr
from .precoding import (
    IllConditionedChannelError,
    effective_channel,
    eigen_spectrum,
    gram,
    gram_inverse,
    noncooperative_baseline_snr,
    per_user_snr_gram,
    snr_denominators,
    zf_outer_precoder,
)
from .quantization import (
    CooperationLink,
    QuantizerConfig,
    bits_from_bandwidth,
    expected_overload,
    overload_fraction,
    quantization_noise_variance,
    quantized_snr,
    uniform_quantize,
)

__version__ = "0.1.0"
