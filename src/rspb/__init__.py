"""Refined sphere-packing bounds and the information measures behind them.

Every name below, and every submodule, is resolved on first access
(PEP 562), so `import rspb` loads no layer and no numpy: a caller pays only
for the modules it touches.
"""

from importlib import import_module

_EXPORTS = {
    "augustin": (
        "AugustinSolution",
        "CapacityResult",
        "ConstraintSet",
        "augustin_capacity",
        "augustin_fixed_point",
        "augustin_info_derivative",
        "haroutunian_rate",
        "read_constraint",
    ),
    "errors": (
        "ComputationError",
        "NonConvergenceError",
        "PreconditionError",
        "RateOutOfRangeError",
        "SpbError",
    ),
    "gaussian": (
        "AwgnParams",
        "AwgnPoint",
        "ConeQuantities",
        "awgn_capacity",
        "awgn_parametric",
        "awgn_rho_star",
        "gaussian_closed_forms",
        "shannon_cone",
        "theta_of_rho",
    ),
    "htbe": (
        "HtBoundReport",
        "HtParams",
        "ThresholdTest",
        "be_gap",
        "ht_params",
        "htbe_achievability",
        "htbe_converse",
        "threshold_gamma",
        "threshold_test",
    ),
    "measures": (
        "DiscreteChannel",
        "FiniteDist",
        "bec",
        "bern",
        "bsc",
        "conditional_renyi_divergence",
        "identity_residuals",
        "point_mass",
        "product_channel",
        "read_channel",
        "read_distribution",
        "renyi_divergence",
        "tensor_dist",
        "tilted_log_moments",
        "tilted_measure",
        "uniform_dist",
        "zchannel",
    ),
    "refined": (
        "RspbReport",
        "rspb_awgn_equality",
        "rspb_awgn_inequality",
        "rspb_constant_composition",
        "rspb_symmetric",
    ),
    "spe": ("ConstrainedSpe", "SpePoint", "spe_constrained", "spe_parametric"),
    "symmetric": (
        "SymmetricSpePoint",
        "SymmetryReport",
        "check_renyi_symmetry",
        "parametric_symmetric",
        "symmetric_center",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_EXPORTS, *_MODULE_OF]
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name in _MODULE_OF:
        return getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
