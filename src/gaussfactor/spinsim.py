"""Spin-1/2 pulse-train simulator for the physical sum readout.

Each sum term becomes one small-flip-angle rf pulse whose phase is the
term's phase; the train is applied to a thermal-equilibrium spin and the
transverse magnetization afterwards encodes the sum magnitude.  When the
flip angle is small the per-pulse rotation generators approximately
commute, so the net transverse signal is proportional to the magnitude of
the mean of the unit phasors.

Every rotation is carried as its SU(2) Cayley-Klein pair (a, b), the first
column of the propagator [[a, -conj(b)], [b, conj(a)]].  One kernel composes
a train's pairs as a pairwise tree, a level at a time in numpy, with the
trains of every trial factor that shares a term set in lockstep, one column
each.  Each product is spelled as CPython's complex arithmetic evaluates it
and renormalized by math.hypot, so the kernel gives the bits of composing
one pulse at a time in Python complex numbers; the rounding error grows
with the depth of the tree, log2 of the train length, and the composed
rotation stays unitary to machine precision however long the train.
States are 2x2 density matrices.  The thermal state is the usual
high-temperature deviation along z; the proportionality constant drops out
of the normalized signal, which divides by the exact factor-case response
so a true factor reads exactly 1.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import count
from operator import attrgetter
from typing import Any, Iterable, Iterator, Optional, Sequence

import numpy as np

from .sums import (
    _WALK_TERMS,
    Complete,
    SumSpec,
    _check_phase_args,
    _lockstep_phases,
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


# A pair's parts (a.real, a.imag, b.real, b.imag) as arrays of the same
# shape, one element per pair; a.imag is None where a is a float, as a raw
# pulse's cos(theta/2) is
Pairs = tuple[np.ndarray, Optional[np.ndarray], np.ndarray, np.ndarray]

# Merged pairs are normalized this many at a time, so that the Python floats
# math.hypot reads stay small beside a block of pulses
_HYPOT_PAIRS = 1 << 10


def _product(xr, xi, yr, yi):
    """The parts of x * y as CPython evaluates it, elementwise.

    An imaginary part of None is a float's: two floats multiply as floats,
    and a float meets a complex as complex(x, 0.0).
    """
    if xi is None and yi is None:
        return xr * yr, None
    xi = 0.0 if xi is None else xi
    yi = 0.0 if yi is None else yi
    return xr * yr - xi * yi, xr * yi + xi * yr


def _hypots(parts: tuple[np.ndarray, ...]) -> np.ndarray:
    """math.hypot of each element's parts, _HYPOT_PAIRS elements at a time."""
    flat = [np.ravel(part) for part in parts]
    norms = np.empty(flat[0].shape)
    for start in range(0, len(norms), _HYPOT_PAIRS):
        chunk = [part[start:start + _HYPOT_PAIRS].tolist() for part in flat]
        norms[start:start + _HYPOT_PAIRS] = list(map(math.hypot, *chunk))
    return norms.reshape(parts[0].shape)


def _compose(later: Pairs, earlier: Pairs) -> Pairs:
    """Each pair of `earlier` followed by its pair in `later`, scaled to |a|^2 + |b|^2 = 1.

    The bits of CPython's (a, b) = (a * a1 - conj(b) * b1, b * a1 +
    conj(a) * b1), then of a / norm and b / norm, where the norm is
    math.hypot of the four parts and complex / float divides by
    complex(norm, 0.0).  numpy's complex product can round otherwise, so
    every product is spelled out in real arrays.
    """
    ar, ai, br, bi = later
    ar1, ai1, br1, bi1 = earlier
    aa_r, aa_i = _product(ar, ai, ar1, ai1)
    bb_r, bb_i = _product(br, -bi, br1, bi1)
    ba_r, ba_i = _product(br, bi, ar1, ai1)
    ab_r, ab_i = _product(ar, None if ai is None else -ai, br1, bi1)
    parts = (aa_r - bb_r, (0.0 if aa_i is None else aa_i) - bb_i, ba_r + ab_r, ba_i + ab_i)
    norm = _hypots(parts)
    re_a, im_a, re_b, im_b = parts
    return (
        (re_a + im_a * 0.0) / norm, (im_a - re_a * 0.0) / norm,
        (re_b + im_b * 0.0) / norm, (im_b - re_b * 0.0) / norm,
    )


def _rows(pairs: Pairs, index: slice) -> Pairs:
    return tuple(None if part is None else part[index] for part in pairs)


def _stacked(first: Pairs, rest: Pairs) -> Pairs:
    return tuple(None if x is None else np.concatenate([x, y]) for x, y in zip(first, rest))


def _train_rotations(
    blocks: Iterable[tuple[Any, Any, np.ndarray]], trains: int
) -> tuple[list[complex], list[complex]]:
    """Cayley-Klein pairs of pulse trains run in lockstep, first pulse applied first.

    Each block is (cos(theta/2), sin(theta/2), phases): the phases have one
    row per pulse and one column per train, and the cos and sin are floats
    or columns of one value per row.  A pulse's pair is (cos(theta/2),
    -i*sin(theta/2)*exp(i*phase)).  The pairs reduce as a pairwise tree, a
    level at a time: at each level adjacent pairs merge, earlier then
    later, and an odd last pair waits for the next block at that level, so
    any block width builds the same tree, aligned power-of-two runs of
    pulses.  The pairs left waiting, one level each at most, fold into the
    identity latest first.  Every merge is renormalized, so rounding grows
    with the depth of the tree, log2 of the train length, and memory is a
    block plus a pair per train and level.
    """
    waiting: list[Pairs | None] = []
    for cos, sin, phases in blocks:
        level: Pairs = (
            np.broadcast_to(cos, phases.shape), None, sin * np.sin(phases), -sin * np.cos(phases),
        )
        for k in count():
            if k == len(waiting):
                waiting.append(None)
            if waiting[k] is not None:
                level, waiting[k] = _stacked(waiting[k], level), None
            size = len(level[0])
            if size % 2:  # a copy, so that the rest of the level can go
                waiting[k] = tuple(None if p is None else p[-1:].copy() for p in level)
            if size < 2:
                break
            pairs = size - size % 2
            level = _compose(_rows(level, slice(1, pairs, 2)), _rows(level, slice(0, pairs, 2)))
    ones, zeros = np.ones((1, trains)), np.zeros((1, trains))
    rotation: Pairs = (ones, zeros, zeros, zeros)
    for pairs in filter(None, waiting):
        rotation = _compose(rotation, pairs)
    ar, ai, br, bi = (part[0].tolist() for part in rotation)
    return list(map(complex, ar, ai)), list(map(complex, br, bi))


def apply_sequence(seq: PulseSequence, initial: SpinState) -> SpinState:
    """Evolve a state through the full train: rho -> U rho U+.

    The propagator is the ordered product with the first pulse applied
    first; inter-pulse delays are treated as inert (on-resonance rotating
    frame).  The returned state is revalidated, so numerical drift past the
    state invariants cannot pass silently.
    """
    if not isinstance(initial, SpinState):
        raise ValueError("initial state must be a SpinState")
    halves = np.fromiter(map(attrgetter("theta"), seq.pulses), float, len(seq))[:, None] / 2
    phases = np.fromiter(map(attrgetter("phase"), seq.pulses), float, len(seq))[:, None]
    blocks = (
        (np.cos(halves[k:k + _WALK_TERMS]), np.sin(halves[k:k + _WALK_TERMS]),
         phases[k:k + _WALK_TERMS])
        for k in range(0, len(seq), _WALK_TERMS)
    )
    (a,), (b,) = _train_rotations(blocks, 1)
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
    ones are, runs every l's train in lockstep through one kernel call;
    the complete sum, whose terms are the residues of l, runs a train per
    l.  A reading that fails its checks raises when it is read, after the
    readings of the l before it.
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
        _check_phase_args(N, min(run), spec.order)
        cos, sin = math.cos(theta / 2), math.sin(theta / 2)
        phases = _lockstep_phases(N, run, spec.order, terms)
        rotations = _train_rotations(((cos, sin, block) for block in phases), len(run))
        reference = 0.5 * math.sin(total)
        for a, b in zip(*rotations):
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
