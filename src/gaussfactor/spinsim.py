"""Spin-1/2 pulse-train simulator for the physical sum readout.

Each sum term becomes one small-flip-angle rf pulse whose phase is the
term's phase; the train is applied to a thermal-equilibrium spin and the
transverse magnetization afterwards encodes the sum magnitude.  When the
flip angle is small the per-pulse rotation generators approximately
commute, so the net transverse signal is proportional to the magnitude of
the mean of the unit phasors.

States are 2x2 density matrices.  The thermal state is the usual
high-temperature deviation along z; the proportionality constant drops out
of the normalized signal, which divides by the exact factor-case response
so a true factor reads exactly 1.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .sums import SumSpec, _residue_phases, evaluate

__all__ = [
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "PulseSpec",
    "PulseSequence",
    "SpinState",
    "MagnetizationReading",
    "thermal_state",
    "pulse_propagator",
    "apply_sequence",
    "simulate_experiment",
    "small_angle_error",
]

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_IDENTITY = np.eye(2, dtype=complex)

# spin-1/2 angular momentum operators
_IX = SIGMA_X / 2
_IY = SIGMA_Y / 2
_IZ = SIGMA_Z / 2

_HERMITIAN_TOL = 1e-12
_TRACE_TOL = 1e-12
_EIGENVALUE_TOL = 1e-10


@dataclass(frozen=True)
class PulseSpec:
    """One rf pulse: flip angle theta and rf phase, both in radians."""

    theta: float
    phase: float

    def __post_init__(self) -> None:
        if not self.theta > 0:
            raise ValueError(f"flip angle must be positive, got {self.theta}")
        object.__setattr__(self, "phase", self.phase % math.tau)


@dataclass(frozen=True)
class PulseSequence:
    """Ordered pulse train; index m runs over the sum's term set."""

    pulses: tuple[PulseSpec, ...]

    def __len__(self) -> int:
        return len(self.pulses)

    @classmethod
    def from_sum_spec(cls, N: int, l: int, spec: SumSpec, theta: float) -> "PulseSequence":
        """Pulse train whose m-th phase is 2*pi*frac(m**n * N / l).

        One pulse per term of the strategy, in its order: m = 0..M for full
        truncation, every residue for the complete sum, and the seeded draw
        order for the randomized strategy.
        """
        phases = _residue_phases(N, l, spec.order, spec.strategy.terms(l))
        return cls(tuple(PulseSpec(theta, phase) for phase in phases))


class SpinState:
    """Validated 2x2 density matrix."""

    __slots__ = ("rho",)

    def __init__(self, rho: np.ndarray):
        rho = np.asarray(rho, dtype=complex)
        if rho.shape != (2, 2):
            raise ValueError(f"density matrix must be 2x2, got shape {rho.shape}")
        if np.abs(rho - rho.conj().T).max() > _HERMITIAN_TOL:
            raise ValueError("density matrix is not Hermitian")
        if abs(np.trace(rho) - 1) > _TRACE_TOL:
            raise ValueError(f"density matrix trace {np.trace(rho)} is not 1")
        evals = np.linalg.eigvalsh(rho)
        if evals.min() < -_EIGENVALUE_TOL or evals.max() > 1 + _EIGENVALUE_TOL:
            raise ValueError(f"density matrix eigenvalues {evals} outside [0, 1]")
        self.rho = rho

    def expectation(self, operator: np.ndarray) -> float:
        return float(np.trace(self.rho @ operator).real)


def thermal_state(polarization: float = 1.0) -> SpinState:
    """High-temperature equilibrium state: identity/2 plus a z deviation.

    The polarization scales the I_z deviation; it cancels out of normalized
    readings, so the default of 1 simply gives the cleanest numerics.
    """
    if not 0 <= polarization <= 1:
        raise ValueError(f"polarization must lie in [0, 1], got {polarization}")
    return SpinState(_IDENTITY / 2 + polarization * _IZ)


def pulse_propagator(pulse: PulseSpec) -> np.ndarray:
    """Unitary for one pulse, by the closed-form spin-1/2 rotation.

    exp(-i*theta*(I_x cos(phase) + I_y sin(phase))) equals
    cos(theta/2)*identity - i*sin(theta/2)*(sigma_x cos(phase) + sigma_y sin(phase)).
    """
    axis = SIGMA_X * math.cos(pulse.phase) + SIGMA_Y * math.sin(pulse.phase)
    return math.cos(pulse.theta / 2) * _IDENTITY - 1j * math.sin(pulse.theta / 2) * axis


def apply_sequence(seq: PulseSequence, initial: SpinState) -> SpinState:
    """Evolve a state through the full train: rho -> U rho U+.

    The propagator is the ordered product with the first pulse applied
    first; inter-pulse delays are treated as inert (on-resonance rotating
    frame).  The returned state is revalidated, so numerical drift past the
    state invariants cannot pass silently.
    """
    if not isinstance(initial, SpinState):
        raise ValueError("initial state must be a SpinState")
    u = _IDENTITY
    for pulse in seq.pulses:
        u = pulse_propagator(pulse) @ u
    return SpinState(u @ initial.rho @ u.conj().T)


@dataclass(frozen=True)
class MagnetizationReading:
    """Transverse readout after a pulse train."""

    mx: float
    my: float
    transverse_magnitude: float
    normalized_signal: float

    def __post_init__(self) -> None:
        # spin-1/2 transverse bound, and composed rotations cannot beat the
        # single-axis response they are normalized against
        if self.transverse_magnitude > 0.5 + 1e-12:
            raise ValueError(
                f"transverse magnitude {self.transverse_magnitude} exceeds 1/2"
            )
        if not -1e-9 <= self.normalized_signal <= 1 + 1e-9:
            raise ValueError(
                f"normalized signal {self.normalized_signal} outside [0, 1]"
            )


def simulate_experiment(
    N: int, l: int, spec: SumSpec, theta: float
) -> MagnetizationReading:
    """Run the pulse-train realization of a sum and read magnetization.

    normalized_signal divides the transverse magnitude by the exact
    factor-case response sin(term_count*theta)/2, so a factor reads 1 to
    machine precision.  The small-angle contract is enforced: total angle
    term_count*theta beyond pi/2 is an error, beyond 0.5 a warning.
    """
    if not theta > 0:
        raise ValueError(f"flip angle must be positive, got {theta}")
    total = theta * len(spec.strategy.terms(l))
    if total > math.pi / 2:
        raise ValueError(
            f"total flip angle {total:.4f} exceeds pi/2; "
            "the small-angle readout is meaningless there"
        )
    if total > 0.5:
        warnings.warn(
            f"total flip angle {total:.4f} above 0.5; "
            "expect visible deviation from the analytic sum",
            stacklevel=2,
        )
    seq = PulseSequence.from_sum_spec(N, l, spec, theta)
    final = apply_sequence(seq, thermal_state())
    mx = final.expectation(_IX)
    my = final.expectation(_IY)
    transverse = math.hypot(mx, my)
    reference = 0.5 * math.sin(total)
    return MagnetizationReading(mx, my, transverse, transverse / reference)


def small_angle_error(N: int, l: int, spec: SumSpec, theta: float) -> float:
    """Gap between the simulated normalized signal and the analytic sum.

    Zero for factors (single-axis trains compose exactly); second order in
    theta for everything else.
    """
    reading = simulate_experiment(N, l, spec, theta)
    return abs(reading.normalized_signal - evaluate(N, l, spec).magnitude)
