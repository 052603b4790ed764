"""Gauss-sum factorization toolkit.

Exact-arithmetic evaluation of truncated, complete, randomized, and
higher-order exponential sums over trial factors; ghost-factor
classification and suppression studies; and a spin-1/2 pulse-sequence
simulator that realizes the same sums physically.
"""
from .numtheory import (
    Epsilon,
    PhaseFraction,
    brute_force_factorize,
    epsilon,
    is_factor,
    phase_fraction,
)
from .rng import SplitMix64, sample_without_replacement
from .sums import (
    COMPLETE_SUM_CAP,
    Complete,
    FullTruncation,
    Randomized,
    SumSpec,
    SumValue,
    complete_gauss_sum,
    curlicue,
    curlicue_equivalence_check,
    curlicue_phase,
    evaluate,
    iter_curlicue_magnitudes,
    randomized_sum,
    residue_magnitudes,
    truncated_sum,
)
from .ghost import (
    DEFAULT_WINDOWS,
    GHOST_THRESHOLD,
    ClassifiedTrial,
    N_SEVENTEEN_DIGIT,
    N_TWELVE_DIGIT,
    ScalingRow,
    TrialClass,
    WINDOW_SEVENTEEN_DIGIT,
    WINDOW_TWELVE_DIGIT,
    classify,
    min_suppression_M,
    randomized_success_fraction,
    scaling_study,
    scan_window,
)
from .spinsim import (
    MagnetizationReading,
    PulseSequence,
    PulseSpec,
    SpinState,
    apply_sequence,
    pulse_propagator,
    simulate_experiment,
    small_angle_error,
    thermal_state,
)

__version__ = "0.1.0"


def __getattr__(name: str):
    """spinsim's SIGMA_X, SIGMA_Y and SIGMA_Z: numpy arrays, so made on first use."""
    if name in ("SIGMA_X", "SIGMA_Y", "SIGMA_Z"):
        return getattr(spinsim, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Epsilon",
    "PhaseFraction",
    "brute_force_factorize",
    "epsilon",
    "is_factor",
    "phase_fraction",
    "SplitMix64",
    "sample_without_replacement",
    "COMPLETE_SUM_CAP",
    "Complete",
    "FullTruncation",
    "Randomized",
    "SumSpec",
    "SumValue",
    "complete_gauss_sum",
    "curlicue",
    "curlicue_equivalence_check",
    "curlicue_phase",
    "evaluate",
    "iter_curlicue_magnitudes",
    "randomized_sum",
    "residue_magnitudes",
    "truncated_sum",
    "DEFAULT_WINDOWS",
    "GHOST_THRESHOLD",
    "ClassifiedTrial",
    "N_SEVENTEEN_DIGIT",
    "N_TWELVE_DIGIT",
    "ScalingRow",
    "TrialClass",
    "WINDOW_SEVENTEEN_DIGIT",
    "WINDOW_TWELVE_DIGIT",
    "classify",
    "min_suppression_M",
    "randomized_success_fraction",
    "scaling_study",
    "scan_window",
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "MagnetizationReading",
    "PulseSequence",
    "PulseSpec",
    "SpinState",
    "apply_sequence",
    "pulse_propagator",
    "simulate_experiment",
    "small_angle_error",
    "thermal_state",
    "__version__",
]
