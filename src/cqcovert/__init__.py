"""Covert-throughput analysis for finite-dimensional classical-quantum
wiretap channels: regime classification, positive-rate capacity, the
square-root-law scaling constant, perturbative expansion checks, and exact
finite-blocklength simulation of the random-coding construction."""

from .channel import (
    CQWiretapChannel,
    InputDistribution,
    average_output_state,
    product_output_state,
    sanitize,
    validate,
)
from .divergences import (
    chi_squared,
    holevo_information,
    holevo_informations,
    relative_entropies,
    relative_entropy,
    von_neumann_entropy,
)
from .errors import (
    ChannelFormatError,
    CQCovertError,
    DimensionCapError,
    UnusableChannelError,
    WrongRegimeError,
)
from .operators import (
    DensityOperator,
    HermitianOperator,
    tensor_power,
    tensor_product,
)
from .regime import Regime, RegimeReport, check_support_condition, classify
from .scaling import (
    ConverseChainReport,
    RateResult,
    ScalingConstantResult,
    chi_sq_expansion_check,
    chi_sq_gram,
    converse_chain,
    covert_rate,
    divergence_vector,
    holevo_expansion_check,
    scaling_constant,
    scaling_constant_grid_oracle,
)
from .simulate import (
    Codebook,
    SimParams,
    SimulationReport,
    a_hat,
    alpha_n,
    build_input_distribution,
    covertness_divergence,
    pgm_error_probability,
    pinched_test_statistic,
    psi_n,
    sample_codebook,
    sqrt_law_sweep,
)

__version__ = "0.1.0"
