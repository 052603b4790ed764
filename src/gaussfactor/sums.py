"""Evaluation of the exponential sums used for trial-factor interference.

All variants share one normalized form: the mean of unit-magnitude terms
exp(2*pi*i * m**n * N / l) over some index set of m.  A trial factor l of N
makes every phase an integer multiple of 2*pi, so the mean has magnitude 1;
non-factors scatter the phases and the mean shrinks.

Every phase is reduced exactly to [0, 1) with integer arithmetic before any
trigonometry happens.  Evaluating 2*pi*m**2*N/l directly in floating point
is catastrophically wrong for 17-digit N (the argument reaches 10**19 where
doubles are spaced thousands apart), and that reduction is the single design
decision everything else here leans on.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from math import fsum
from typing import Iterable, Iterator, Sequence, Union

import numpy as np

from .numtheory import epsilon, phase_fraction
from .rng import sample_without_replacement

__all__ = [
    "FullTruncation",
    "Complete",
    "Randomized",
    "SumSpec",
    "SumValue",
    "complete_gauss_sum",
    "truncated_sum",
    "curlicue",
    "curlicue_phase",
    "randomized_sum",
    "curlicue_equivalence_check",
    "evaluate",
    "residue_magnitudes",
    "iter_curlicue_magnitudes",
    "COMPLETE_SUM_CAP",
]

# Complete sums cost O(l) terms; refuse silly l unless overridden.
COMPLETE_SUM_CAP = 10**7


@dataclass(frozen=True)
class FullTruncation:
    """All terms m = 0..truncation, the truncated-sum strategy."""

    truncation: int

    def __post_init__(self) -> None:
        if self.truncation < 0:
            raise ValueError(f"truncation must be >= 0, got {self.truncation}")

    def terms(self, l: int) -> range:
        """m = 0..truncation, whatever l."""
        return range(self.truncation + 1)


@dataclass(frozen=True)
class Complete:
    """All residues m = 0..l-1, the complete Gauss sum."""

    def terms(self, l: int) -> range:
        """Every residue of l; refuses l above COMPLETE_SUM_CAP."""
        if l > COMPLETE_SUM_CAP:
            raise ValueError(
                f"complete sum over l={l} exceeds the cap {COMPLETE_SUM_CAP}; "
                "pass allow_large=True to force it"
            )
        return range(l)


@dataclass(frozen=True)
class Randomized:
    """`count` distinct m drawn uniformly from {0..m_max} by a seeded stream."""

    count: int
    m_max: int
    seed: int

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")
        if self.m_max < 0:
            raise ValueError(f"m_max must be >= 0, got {self.m_max}")
        if self.count > self.m_max + 1:
            raise ValueError(
                f"count {self.count} exceeds the {self.m_max + 1} available values"
            )

    @cached_property
    def _ms(self) -> tuple[int, ...]:
        # not a field, so eq, hash and repr see only (count, m_max, seed)
        return tuple(sample_without_replacement(self.count, self.m_max, self.seed))

    def terms(self, l: int) -> tuple[int, ...]:
        """The seeded m-set in draw order, drawn once per instance for every l."""
        return self._ms


Strategy = Union[FullTruncation, Complete, Randomized]


@dataclass(frozen=True)
class SumSpec:
    """Which sum to evaluate: order n plus a term-selection strategy."""

    strategy: Strategy
    order: int = 2

    def __post_init__(self) -> None:
        if self.order < 2:
            raise ValueError(f"sum order must be >= 2, got {self.order}")
        if isinstance(self.strategy, Complete) and self.order != 2:
            raise ValueError("complete sums are only defined for order 2")
        if not isinstance(self.strategy, (FullTruncation, Complete, Randomized)):
            raise ValueError(f"unknown strategy {self.strategy!r}")


@dataclass(frozen=True)
class SumValue:
    """A normalized complex sum together with how many terms produced it."""

    real_part: float
    imag_part: float
    term_count: int

    def __post_init__(self) -> None:
        if self.term_count < 1:
            raise ValueError("term_count must be >= 1")
        if self.magnitude > 1.0 + 1e-9:
            raise ValueError(
                f"normalized magnitude {self.magnitude} exceeds 1; "
                "sum was not divided by its term count"
            )

    @property
    def magnitude(self) -> float:
        return math.hypot(self.real_part, self.imag_part)


def _mean_of_phases(phases: Iterable[float], count: int) -> SumValue:
    """Mean of exp(i*phase) over reduced phases, fsum per component."""
    ph = list(phases)
    return SumValue(
        fsum(map(math.cos, ph)) / count, fsum(map(math.sin, ph)) / count, count
    )


def _residue_phases(N: int, l: int, n: int, ms: Iterable[int]) -> Iterator[float]:
    """The phases 2*pi*frac(m**n * N / l) for m in ms, in order.

    This is the one place a residue phase is computed.  N, l and n are
    checked before the first phase is asked for.
    """
    phase_fraction(0, n, N, l)  # validates N, l, n
    t = N % l
    # the integer-over-integer division happens first so nothing larger
    # than tau ever meets a float
    return (math.tau * ((pow(m, n, l) * t) % l / l) for m in ms)


def _residue_mean(N: int, l: int, n: int, ms: Sequence[int]) -> SumValue:
    return _mean_of_phases(_residue_phases(N, l, n, ms), len(ms))


def complete_gauss_sum(N: int, l: int, *, allow_large: bool = False) -> SumValue:
    """Normalized quadratic Gauss sum over all l residues.

    O(l) work; refuses l above COMPLETE_SUM_CAP unless allow_large is set.
    """
    ms = range(l) if allow_large else Complete().terms(l)
    return _residue_mean(N, l, 2, ms)


def truncated_sum(N: int, l: int, n: int, M: int) -> SumValue:
    """Order-n exponential sum truncated at M: mean over m = 0..M."""
    return _residue_mean(N, l, n, FullTruncation(M).terms(l))


def _curlicue_ratio(eps: float) -> tuple[int, int]:
    if not math.isfinite(eps):
        raise ValueError(f"epsilon must be finite, got {eps}")
    return eps.as_integer_ratio()


def curlicue_phase(m: int, n: int, p: int, q: int) -> float:
    """Phase of the curlicue term exp(i*pi*m**n*(p/q)), reduced mod 2*pi.

    The reduction works mod 2q in exact integers and the division is done
    between integers too, so neither m**n * p nor the reduced residue ever
    meets a float until it has been brought below 2.  CPython big-int
    division rounds correctly, which matters for subnormal ratios whose
    denominators exceed the float range.
    """
    return math.pi * ((pow(m, n) * p) % (2 * q) / q)


def curlicue(eps: float, n: int, M: int) -> SumValue:
    """Normalized curlicue sum: mean of exp(i*pi*m**n*eps) for m = 0..M.

    eps is taken at exact float value via its integer ratio, so the phase
    reduction loses nothing even when m**n * eps is astronomically large.
    """
    if n < 2:
        raise ValueError(f"sum order must be >= 2, got {n}")
    if M < 0:
        raise ValueError(f"truncation must be >= 0, got {M}")
    p, q = _curlicue_ratio(eps)
    return _mean_of_phases(
        (curlicue_phase(m, n, p, q) for m in range(M + 1)), M + 1
    )


def randomized_sum(
    N: int, l: int, n: int, count: int, m_max: int, seed: int
) -> SumValue:
    """Mean over `count` distinct random m from {0..m_max}, seeded.

    Identical (seed, count, m_max) give an identical m-set and hence a
    bit-identical result.
    """
    return _residue_mean(N, l, n, Randomized(count, m_max, seed).terms(l))


def curlicue_equivalence_check(N: int, l: int, n: int, M: int) -> bool:
    """Whether the truncated sum and the curlicue of epsilon(N, l) agree.

    Agreement means componentwise difference below 1e-9.  Only the
    quadratic case is accepted; for higher orders the identity is checked
    empirically elsewhere rather than asserted.
    """
    if n != 2:
        raise ValueError(f"equivalence check is defined for order 2, got {n}")
    direct = truncated_sum(N, l, 2, M)
    via_eps = curlicue(epsilon(N, l).value, 2, M)
    return (
        abs(direct.real_part - via_eps.real_part) < 1e-9
        and abs(direct.imag_part - via_eps.imag_part) < 1e-9
    )


def evaluate(N: int, l: int, spec: SumSpec) -> SumValue:
    """Evaluate the sum a SumSpec describes at trial factor l."""
    return _residue_mean(N, l, spec.order, spec.strategy.terms(l))


def residue_magnitudes(l: int, n: int, M: int) -> np.ndarray:
    """Truncated-sum magnitudes for every residue N mod l at once.

    Entry t equals truncated_sum(N, l, n, M).magnitude for any N with
    N mod l = t.  Useful for exhaustive factor-characterization sweeps;
    vectorized, so l is capped where (l-1)**2 still fits in int64.
    """
    if l < 1:
        raise ValueError(f"trial factor must be >= 1, got {l}")
    if n < 2:
        raise ValueError(f"sum order must be >= 2, got {n}")
    if M < 0:
        raise ValueError(f"truncation must be >= 0, got {M}")
    if l > 10**9:
        raise ValueError(f"residue sweep over l={l} would overflow int64 products")
    t = np.arange(l, dtype=np.int64)
    acc_re = np.zeros(l)
    acc_im = np.zeros(l)
    for m in range(M + 1):
        r = (pow(m, n, l) * t) % l
        ph = (math.tau / l) * r
        acc_re += np.cos(ph)
        acc_im += np.sin(ph)
    return np.hypot(acc_re, acc_im) / (M + 1)


def iter_curlicue_magnitudes(eps: float, n: int) -> Iterator[tuple[int, float]]:
    """Yield (M, |s_M|) for M = 0, 1, 2, ... without re-summing.

    Kahan-compensated running sums keep the incremental path as accurate as
    the one-shot evaluation over the term counts this package uses.
    """
    if n < 2:
        raise ValueError(f"sum order must be >= 2, got {n}")
    p, q = _curlicue_ratio(eps)
    re = im = 0.0
    re_c = im_c = 0.0
    m = 0
    while True:
        ph = curlicue_phase(m, n, p, q)
        y = math.cos(ph) - re_c
        tot = re + y
        re_c = (tot - re) - y
        re = tot
        y = math.sin(ph) - im_c
        tot = im + y
        im_c = (tot - im) - y
        im = tot
        yield m, math.hypot(re, im) / (m + 1)
        m += 1
