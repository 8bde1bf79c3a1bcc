"""Refined sphere-packing bounds and the information measures behind them."""

from .augustin import (
    AugustinSolution,
    CapacityResult,
    ConstraintSet,
    augustin_capacity,
    augustin_fixed_point,
    augustin_info_derivative,
    augustin_information_grid,
    haroutunian_rate,
    read_constraint,
)
from .errors import (
    ComputationError,
    NonConvergenceError,
    PreconditionError,
    RateOutOfRangeError,
    SpbError,
)
from .gaussian import (
    AwgnParams,
    AwgnPoint,
    ConeQuantities,
    awgn_capacity,
    awgn_parametric,
    awgn_rho_star,
    gaussian_closed_forms,
    shannon_cone,
    theta_of_rho,
)
from .htbe import (
    HtBoundReport,
    HtParams,
    ThresholdTest,
    be_gap,
    ht_params,
    htbe_achievability,
    htbe_converse,
    threshold_gamma,
    threshold_test,
)
from .measures import (
    DiscreteChannel,
    FiniteDist,
    bec,
    bern,
    bsc,
    conditional_renyi_divergence,
    identity_residuals,
    point_mass,
    product_channel,
    read_channel,
    read_distribution,
    renyi_divergence,
    tensor_dist,
    tilted_log_moments,
    tilted_measure,
    uniform_dist,
    zchannel,
)
from .refined import (
    RspbReport,
    rspb_awgn_equality,
    rspb_awgn_inequality,
    rspb_constant_composition,
    rspb_symmetric,
)
from .spe import ConstrainedSpe, SpePoint, spe_constrained, spe_grid_sup, spe_parametric
from .symmetric import (
    SymmetricSpePoint,
    SymmetryReport,
    check_renyi_symmetry,
    parametric_symmetric,
    symmetric_center,
)

__version__ = "0.1.0"
