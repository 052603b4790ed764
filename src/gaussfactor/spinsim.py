"""Spin-1/2 pulse-train simulator for the physical sum readout.

Each sum term becomes one small-flip-angle rf pulse whose phase is the
term's phase; the train is applied to a thermal-equilibrium spin and the
transverse magnetization afterwards encodes the sum magnitude.  When the
flip angle is small the per-pulse rotation generators approximately
commute, so the net transverse signal is proportional to the magnitude of
the mean of the unit phasors.

Every rotation is carried as its SU(2) Cayley-Klein pair (a, b), the first
column of the propagator [[a, -conj(b)], [b, conj(a)]].  A train's pairs
compose as a pairwise tree, each product renormalized by math.hypot, so the
rounding error grows with the depth of the tree, log2 of the train length,
and the composed rotation stays unitary to machine precision however long
the train.  Trains of at most _SCALAR_TERMS pulses in all build the tree a
pulse at a time in Python complex numbers (_train_rotation).  Longer ones
build it a level at a time in numpy (_blocks._train_rotations), with the
trains of every trial factor that shares a term set in lockstep, one column
each, and every product spelled as CPython's complex arithmetic evaluates
it, so both give the same bits.
States are 2x2 density matrices.  The thermal state is the usual
high-temperature deviation along z; the proportionality constant drops out
of the normalized signal, which divides by the exact factor-case response
so a true factor reads exactly 1.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Iterable, Iterator, Sequence

from . import _blocks, sums
from .sums import (
    _WALK_TERMS,
    Complete,
    SumSpec,
    _check_phase_args,
    _phases,
    _residue_phases,
    evaluate,
)

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

_HERMITIAN_TOL = 1e-12
_TRACE_TOL = 1e-12
_EIGENVALUE_TOL = 1e-10

# the Pauli matrices and the identity, made as numpy arrays when asked for
_MATRICES = {
    "SIGMA_X": [[0, 1], [1, 0]],
    "SIGMA_Y": [[0, -1j], [1j, 0]],
    "SIGMA_Z": [[1, 0], [0, -1]],
    "IDENTITY": [[1, 0], [0, 1]],
}


def _matrix(name: str):
    return _blocks.np.array(_MATRICES[name], dtype=complex)


def __getattr__(name: str) -> Any:
    """SIGMA_X, SIGMA_Y and SIGMA_Z: numpy arrays, so made when read."""
    if name in ("SIGMA_X", "SIGMA_Y", "SIGMA_Z"):
        return _matrix(name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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


def _hermitian_eigenvalues(rho):
    """Eigenvalues (T - r)/2, (T + r)/2 of a 2x2 Hermitian matrix of trace T.

    r = hypot(rho00 - rho11, 2|rho10|), read from the lower triangle.
    """
    np = _blocks.np
    r = math.hypot((rho[0, 0] - rho[1, 1]).real, 2 * abs(rho[1, 0]))
    return (np.trace(rho).real + np.array([-r, r])) / 2


class SpinState:
    """Validated 2x2 density matrix."""

    __slots__ = ("rho",)

    def __init__(self, rho):
        np = _blocks.np
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

    def expectation(self, operator) -> float:
        return float(_blocks.np.trace(self.rho @ operator).real)


def thermal_state(polarization: float = 1.0) -> SpinState:
    """High-temperature equilibrium state: identity/2 plus a z deviation.

    The polarization scales the I_z deviation; it cancels out of normalized
    readings, so the default of 1 simply gives the cleanest numerics.
    """
    if not 0 <= polarization <= 1:
        raise ValueError(f"polarization must lie in [0, 1], got {polarization}")
    iz = _matrix("SIGMA_Z") / 2  # spin-1/2 angular momentum along z
    return SpinState(_matrix("IDENTITY") / 2 + polarization * iz)


def pulse_propagator(pulse: PulseSpec):
    """Unitary for one pulse, by the closed-form spin-1/2 rotation.

    exp(-i*theta*(I_x cos(phase) + I_y sin(phase))) equals
    cos(theta/2)*identity - i*sin(theta/2)*(sigma_x cos(phase) + sigma_y sin(phase)).
    """
    axis = _matrix("SIGMA_X") * math.cos(pulse.phase) + _matrix("SIGMA_Y") * math.sin(pulse.phase)
    return math.cos(pulse.theta / 2) * _matrix("IDENTITY") - 1j * math.sin(pulse.theta / 2) * axis


def _merge(a, b, a1, b1) -> tuple[complex, complex]:
    """Pair (a1, b1) followed by (a, b), scaled to |a|^2 + |b|^2 = 1."""
    a, b = a * a1 - b.conjugate() * b1, b * a1 + a.conjugate() * b1
    norm = math.hypot(a.real, a.imag, b.real, b.imag)
    return a / norm, b / norm


def _train_rotation(pulses: Iterable[tuple[float, float, float]]) -> tuple[complex, complex]:
    """Cayley-Klein pair of a pulse train, first pulse applied first, a pulse at a time.

    Each pulse is (cos(theta/2), sin(theta/2), phase), whose pair is
    (cos(theta/2), -i*sin(theta/2)*exp(i*phase)).  The pairs stream into a
    pairwise tree kept on a binary-counter stack: the k-th pulse merges
    once for every trailing zero bit of k, so the stack holds runs of
    strictly decreasing power-of-two length, earliest at the bottom.  The
    stack then folds into the identity, latest run first.
    """
    stack: list[tuple[Any, complex]] = []
    for k, (c, s, phase) in enumerate(pulses, 1):
        pair = c, complex(s * math.sin(phase), -s * math.cos(phase))
        while not k & 1:
            pair = _merge(*pair, *stack.pop())
            k >>= 1
        stack.append(pair)
    a, b = 1 + 0j, 0j
    while stack:
        a, b = _merge(a, b, *stack.pop())
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
    np = _blocks.np
    halves = np.fromiter(map(attrgetter("theta"), seq.pulses), float, len(seq))[:, None] / 2
    phases = np.fromiter(map(attrgetter("phase"), seq.pulses), float, len(seq))[:, None]
    blocks = (
        (np.cos(halves[k:k + _WALK_TERMS]), np.sin(halves[k:k + _WALK_TERMS]),
         phases[k:k + _WALK_TERMS])
        for k in range(0, len(seq), _WALK_TERMS)
    )
    (a,), (b,) = _blocks._train_rotations(blocks, 1)
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
    return next(_readings(N, (l,), spec, theta))


def _readings(
    N: int, ls: Sequence[int], spec: SumSpec, theta: float
) -> Iterator[MagnetizationReading]:
    """simulate_experiment at each l of ls, in order, as they are read.

    A term set that is the same for every l, as truncated and randomized
    ones are, runs every l's train through one kernel call; the complete
    sum, whose terms are the residues of l, runs a train per l.  A call of
    at most _SCALAR_TERMS pulses in all composes each train a pulse at a
    time, a larger one composes its trains in lockstep in numpy.  A reading
    that fails its checks raises when it is read, after the readings of
    the l before it.
    """
    if not theta > 0:
        raise ValueError(f"flip angle must be positive, got {theta}")
    runs = ((l,) for l in ls) if isinstance(spec.strategy, Complete) else (ls,)
    for run in runs:
        terms = spec.strategy.terms(run[0])
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
                stacklevel=3,
            )
        _check_phase_args(N, sums._least(run), spec.order)
        cos, sin = math.cos(theta / 2), math.sin(theta / 2)
        ts = list(map(N.__mod__, run))
        if len(run) * len(terms) <= sums._SCALAR_TERMS:
            trains = (_phases(2 * t, l, spec.order, terms) for t, l in zip(ts, run))
            rotations = [_train_rotation((cos, sin, phase) for phase in train) for train in trains]
        else:
            phases = _blocks._lockstep_phases(ts, run, spec.order, terms)
            blocks = ((cos, sin, block) for block in phases)
            rotations = zip(*_blocks._train_rotations(blocks, len(run)))
        reference = 0.5 * math.sin(total)
        for a, b in rotations:
            # the rotated pure up state is [[|a|^2, a*conj(b)], [conj(a)*b, |b|^2]]:
            # Hermitian by construction, eigenvalues 0 and its trace |a|^2 + |b|^2
            trace = abs(a) ** 2 + abs(b) ** 2
            if abs(trace - 1) > _TRACE_TOL:
                raise ValueError(f"density matrix trace {trace} is not 1")
            coherence = a * b.conjugate()
            mx, my = coherence.real, -coherence.imag
            transverse = math.hypot(mx, my)
            yield MagnetizationReading(mx, my, transverse, transverse / reference)


def small_angle_error(N: int, l: int, spec: SumSpec, theta: float) -> float:
    """Gap between the simulated normalized signal and the analytic sum.

    Zero for factors (single-axis trains compose exactly); second order in
    theta for everything else.
    """
    reading = simulate_experiment(N, l, spec, theta)
    return abs(reading.normalized_signal - evaluate(N, l, spec).magnitude)
