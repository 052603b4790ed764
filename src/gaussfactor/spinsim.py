"""Spin-1/2 pulse-train simulator for the physical sum readout.

Each sum term becomes one small-flip-angle rf pulse whose phase is the
term's phase; the train is applied to a thermal-equilibrium spin and the
transverse magnetization afterwards encodes the sum magnitude.  When the
flip angle is small the per-pulse rotation generators approximately
commute, so the net transverse signal is proportional to the magnitude of
the mean of the unit phasors.

Every rotation is carried as its SU(2) Cayley-Klein pair (a, b), the first
column of the propagator [[a, -conj(b)], [b, conj(a)]].  One kernel composes
a train's pairs as a pairwise tree and renormalizes each product, so the
rounding error grows with the depth of the tree, log2 of the train length,
and the composed rotation stays unitary to machine precision however long
the train.  States are 2x2 density matrices.  The thermal state is the usual
high-temperature deviation along z; the proportionality constant drops out
of the normalized signal, which divides by the exact factor-case response
so a true factor reads exactly 1.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable

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

_IZ = SIGMA_Z / 2  # spin-1/2 angular momentum along z

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


def _hermitian_eigenvalues(rho: np.ndarray) -> np.ndarray:
    """Eigenvalues (T - r)/2, (T + r)/2 of a 2x2 Hermitian matrix of trace T.

    r = hypot(rho00 - rho11, 2|rho10|), read from the lower triangle.
    """
    r = math.hypot((rho[0, 0] - rho[1, 1]).real, 2 * abs(rho[1, 0]))
    return (np.trace(rho).real + np.array([-r, r])) / 2


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
        evals = _hermitian_eigenvalues(rho)
        if evals[0] < -_EIGENVALUE_TOL or evals[1] > 1 + _EIGENVALUE_TOL:
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


def _compose(a: complex, b: complex, a1: complex, b1: complex) -> tuple[complex, complex]:
    """Pair of rotation (a1, b1) followed by (a, b), scaled to |a|^2 + |b|^2 = 1."""
    a, b = a * a1 - b.conjugate() * b1, b * a1 + a.conjugate() * b1
    norm = math.hypot(a.real, a.imag, b.real, b.imag)
    return a / norm, b / norm


def _train_rotation(
    pulses: Iterable[tuple[float, float, float]],
) -> tuple[complex, complex]:
    """Cayley-Klein pair of a pulse train, first pulse applied first.

    Each pulse is (cos(theta/2), sin(theta/2), phase), whose pair is
    (cos(theta/2), -i*sin(theta/2)*exp(i*phase)).  The pulses stream into a
    pairwise product tree kept on a binary-counter stack: the n-th pulse
    merges once for every trailing zero bit of n, so the stack holds blocks
    of strictly decreasing power-of-two length, earliest at the bottom, and
    never more than log2(n) + 1 of them.
    """
    stack: list[tuple[complex, complex]] = []
    cos, sin = math.cos, math.sin
    for n, (c, s, phase) in enumerate(pulses, 1):
        pair = c, complex(s * sin(phase), -s * cos(phase))
        while not n & 1:
            pair = _compose(*pair, *stack.pop())
            n >>= 1
        stack.append(pair)
    a, b = 1 + 0j, 0j
    while stack:
        a, b = _compose(a, b, *stack.pop())
    return a, b


def apply_sequence(seq: PulseSequence, initial: SpinState) -> SpinState:
    """Evolve a state through the full train: rho -> U rho U+.

    The propagator is the ordered product with the first pulse applied
    first; inter-pulse delays are treated as inert (on-resonance rotating
    frame).  The returned state is revalidated, so numerical drift past the
    state invariants cannot pass silently.
    """
    if not isinstance(initial, SpinState):
        raise ValueError("initial state must be a SpinState")
    a, b = _train_rotation(
        (math.cos(p.theta / 2), math.sin(p.theta / 2), p.phase) for p in seq.pulses
    )
    u = np.array([[a, -b.conjugate()], [b, a.conjugate()]])
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

    The train acts on the pure thermal state, so the readout comes in closed
    form from the train's Cayley-Klein pair (a, b): mx = Re(a*conj(b)) and
    my = -Im(a*conj(b)).  A pair whose norm, the trace of the final state,
    is not 1 raises ValueError, so drift cannot pass silently.
    """
    if not theta > 0:
        raise ValueError(f"flip angle must be positive, got {theta}")
    terms = spec.strategy.terms(l)
    total = theta * len(terms)
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
    phases = _residue_phases(N, l, spec.order, terms)
    a, b = _train_rotation(
        zip(repeat(math.cos(theta / 2)), repeat(math.sin(theta / 2)), phases)
    )
    # the rotated pure up state is [[|a|^2, a*conj(b)], [conj(a)*b, |b|^2]]:
    # Hermitian by construction, eigenvalues 0 and its trace |a|^2 + |b|^2
    trace = abs(a) ** 2 + abs(b) ** 2
    if abs(trace - 1) > _TRACE_TOL:
        raise ValueError(f"density matrix trace {trace} is not 1")
    coherence = a * b.conjugate()
    mx, my = coherence.real, -coherence.imag
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
