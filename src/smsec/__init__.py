"""Secure spatial modulation: AN-aided precoding, secrecy metrics, optimizers.

The top level holds what the studies, the command line and a library user
need: the config and study runners, the channel model, the secrecy metrics,
the three optimizers with their rounding step, and the FLOP model.
Internals (codebook and detector types, the lifted SCA terms, the
subproblem solver) are imported from their modules.
"""

from .complexity import ComplexityInputs, FlopMethod, flops
from .errors import ConfigError, NumericalError
from .harness import (
    ExperimentConfig,
    Method,
    load_config,
    parse_config_text,
    run_cdf,
    run_complexity_curve,
    run_iteration_pmf,
    run_sr_vs_snr,
    substream,
    write_rows,
)
from .metrics import (
    asr,
    build_cache,
    link_rate_approx,
    mi_lower_bound,
    mi_monte_carlo,
    secrecy_rate_mc,
    whiten,
)
from .model import (
    ChannelPair,
    PowerConfig,
    an_projector,
    make_codebook,
    noise_covariance,
    sample_channel,
)
from .optim import (
    GDParams,
    OptTrace,
    SCAParams,
    asr_gradient,
    default_precoder,
    f1,
    grad_f1,
    max_asr_gd,
    max_asr_sca,
    max_sr_gd,
    power_sweep_rounding,
    project_spectrahedron,
)

__version__ = "0.1.0"

__all__ = [
    "ChannelPair",
    "ComplexityInputs",
    "ConfigError",
    "ExperimentConfig",
    "FlopMethod",
    "GDParams",
    "Method",
    "NumericalError",
    "OptTrace",
    "PowerConfig",
    "SCAParams",
    "an_projector",
    "asr",
    "asr_gradient",
    "build_cache",
    "default_precoder",
    "f1",
    "flops",
    "grad_f1",
    "link_rate_approx",
    "load_config",
    "make_codebook",
    "max_asr_gd",
    "max_asr_sca",
    "max_sr_gd",
    "mi_lower_bound",
    "mi_monte_carlo",
    "noise_covariance",
    "parse_config_text",
    "power_sweep_rounding",
    "project_spectrahedron",
    "run_cdf",
    "run_complexity_curve",
    "run_iteration_pmf",
    "run_sr_vs_snr",
    "sample_channel",
    "secrecy_rate_mc",
    "substream",
    "whiten",
    "write_rows",
]
