"""Link-level simulator and analytic toolkit for differential amplify-and-forward
relaying over time-varying Rayleigh fading channels."""

from .analysis import (
    PepParams,
    PepPoint,
    QuadratureError,
    error_floor,
    gamma_rd,
    gamma_sd,
    pep,
    pep_point,
    pep_points,
    ser_ber_from_pep,
)
from .channel import (
    SCENARIOS,
    CascadedModelKind,
    ChannelStats,
    FadingGenerator,
    FadingSpec,
    Scenario,
    autocorr,
    envelope_pdf_theoretical,
    gen_cascaded,
    gen_fading,
    validate_stats,
)
from .link import Constellation, PowerAllocation, diff_encode, transmit
from .montecarlo import BerEstimate, RunConfig, run_point_schemes, run_sweep
from .receiver import (
    CombinerWeights,
    Scheme,
    weights_cdd,
    weights_opt_genie,
    weights_tvd,
)
from .specials import bessel_j0, bessel_k0, exp_integral_e1, gaussian_q

__version__ = "0.1.0"
