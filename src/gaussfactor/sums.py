"""Evaluation of the exponential sums used for trial-factor interference.

All variants share one normalized form: the mean of unit-magnitude terms
exp(2*pi*i * m**n * N / l) over some index set of m.  A trial factor l of N
makes every phase an integer multiple of 2*pi, so the mean has magnitude 1;
non-factors scatter the phases and the mean shrinks.

Every phase is reduced exactly, in integer arithmetic, before any
trigonometry happens.  Evaluating 2*pi*m**2*N/l directly in floating point
is catastrophically wrong for 17-digit N (the argument reaches 10**19 where
doubles are spaced thousands apart), and that reduction is the single
design decision everything else here leans on.

Each sum has two executions with the same bits.  A kernel call of at most
_SCALAR_TERMS terms runs here in scalar Python: _phases, math.cos and
math.sin, then math.fsum, or exact prefix sums rounded once per prefix.  A
larger one runs in the numpy blocks of _blocks, and only then is numpy
imported.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator, Sequence, Union

from . import _blocks
from .numtheory import _check_order, _check_trial, epsilon, jacobi
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
    "evaluate_many",
    "residue_magnitudes",
    "iter_curlicue_magnitudes",
    "COMPLETE_SUM_CAP",
]

# A complete pulse train has l pulses, so Complete.terms refuses l above this;
# the closed form takes any l.
COMPLETE_SUM_CAP = 10**7
# A walk block holds at most this many (l, m) terms, so its arrays stay
# near a megabyte however wide the window or long the walk.
_WALK_TERMS = 1 << 13
# A kernel call of at most this many terms runs in scalar Python, a larger
# one in numpy blocks.  Its terms are its l's times its m's for a run of
# one-shot sums, its walks times their length for walks (the first M of a
# search for the first suppressed M), and its trains times their pulses
# for pulse trains.  Near it the two executions cost about the same: in
# Python about 0.3 us a one-shot term, 2 us a walk term and 1.3 us a pulse,
# in numpy about 0.1 to 0.4 ms a call on top of its terms.
_SCALAR_TERMS = 256
# Every float is a whole number of units of 2**-_ULP_BITS, the least
# subnormal, so exact sums of floats are kept as integers in those units.
_ULP_BITS = 1074
_ONE = 1 << _ULP_BITS
# A mean of unit terms may pass 1 by rounding, never by this much.
_MAX_MAGNITUDE = 1.0 + 1e-9


@dataclass(frozen=True)
class FullTruncation:
    """All terms m = 0..truncation, the truncated-sum strategy."""

    truncation: int

    def __post_init__(self) -> None:
        # truncation + 1 terms must fit a len()
        if not 0 <= self.truncation < sys.maxsize:
            raise ValueError(f"truncation must be in [0, {sys.maxsize}), got {self.truncation}")

    def terms(self, l: int) -> range:
        """m = 0..truncation, whatever l."""
        return range(self.truncation + 1)


@dataclass(frozen=True)
class Complete:
    """All residues m = 0..l-1, the complete Gauss sum."""

    def terms(self, l: int) -> range:
        """Every residue of l; refuses l above COMPLETE_SUM_CAP."""
        if l > COMPLETE_SUM_CAP:
            raise ValueError(f"complete sum over l={l} exceeds the cap {COMPLETE_SUM_CAP}")
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
        # SplitMix64 draws below m_max + 1, which must not exceed 2**64
        if not 0 <= self.m_max < 2**64:
            raise ValueError(f"m_max must be in [0, 2**64), got {self.m_max}")
        if self.count > self.m_max + 1:
            raise ValueError(
                f"count {self.count} exceeds the {self.m_max + 1} available values"
            )
        # SplitMix64 masks its seed to 64 bits; a seed outside that range
        # would draw another seed's m-set while reporting its own
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed}")

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
        # worded by field name, like the strategies' range errors
        _check_order(self.order, "order")
        if isinstance(self.strategy, Complete) and self.order != 2:
            raise ValueError(f"order must be 2 for the complete sum, got {self.order}")
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
        if self.magnitude > _MAX_MAGNITUDE:
            raise ValueError(
                f"normalized magnitude {self.magnitude} exceeds 1; "
                "sum was not divided by its term count"
            )

    @property
    def magnitude(self) -> float:
        return math.hypot(self.real_part, self.imag_part)


def _phases(a: int, q: int, n: int, ms: Iterable[int]) -> Iterator[float]:
    """The phases pi*((m**n * a) mod 2q)/q for m in ms, in order.

    The curlicue phase of the exact fraction a/q, and the reference for
    every phase: the block kernels reproduce its bits and fall back on it
    where their own arithmetic could not.  The reduction is exact and the
    integer-over-integer division comes first, so nothing larger than 2
    ever meets a float.
    """
    q2 = 2 * q
    return (math.pi * ((pow(m, n, q2) * a) % q2 / q) for m in ms)


def _check_phase_args(N: int, l: int, n: int) -> None:
    """The checks every residue phase needs: a trial factor l, an order n and N >= 0."""
    _check_trial(l)
    _check_order(n)
    if N < 0:
        raise ValueError(f"N must be >= 0, got {N}")


def _residue_phases(N: int, l: int, n: int, ms: Iterable[int]) -> Iterator[float]:
    """The phases 2*pi*frac(m**n * N / l) for m in ms, in order.

    N, l and n are checked before the first phase is asked for.
    """
    _check_phase_args(N, l, n)
    # pi * 2r/l rounds exactly as tau * (r/l): scaling by 2 is exact
    return _phases(2 * (N % l), l, n, ms)


def _curlicue_ratio(eps: float, n: int) -> tuple[int, int]:
    """eps as its exact ratio p/q, q a power of two, once eps and n pass a walk's checks."""
    if not math.isfinite(eps):
        raise ValueError(f"epsilon must be finite, got {eps}")
    _check_order(n)
    return eps.as_integer_ratio()


def _fsums(phases: Iterable[float]) -> tuple[float, float]:
    """math.fsum of the cos and of the sin of the phases: one sum, rounded once."""
    phases = list(phases)
    return math.fsum(map(math.cos, phases)), math.fsum(map(math.sin, phases))


def _short(ms: Sequence[int]) -> bool:
    """Whether a walk over ms has at most _SCALAR_TERMS terms; len(ms) may pass 2**63."""
    return len(ms[:_SCALAR_TERMS + 1]) <= _SCALAR_TERMS


def _exact_walk(a: int, q: int, n: int, ms: Iterable[int]) -> Iterator[tuple[float, ...]]:
    """(cos, sin, real sum, imaginary sum) at each term of the walk over _phases(a, q, n, ms).

    The sums run through the term, exactly, as integers in units of
    2**-_ULP_BITS, and each is rounded once, by an int true division: the
    fsum of the terms up to it.
    """
    re = im = 0
    for phase in _phases(a, q, n, ms):
        c, s = math.cos(phase), math.sin(phase)
        p, d = c.as_integer_ratio()
        re += p << _ULP_BITS + 1 - d.bit_length()
        p, d = s.as_integer_ratio()
        im += p << _ULP_BITS + 1 - d.bit_length()
        yield c, s, re / _ONE, im / _ONE


def _exact_magnitudes(a: int, q: int, n: int, ms: Iterable[int]) -> Iterator[float]:
    """|s_M| of the walk over _phases(a, q, n, ms), for M = 0, 1, 2, ... in order.

    math.hypot of _exact_walk's correctly rounded sums over M + 1.
    """
    walk = _exact_walk(a, q, n, ms)
    return (math.hypot(re, im) / k for k, (*_, re, im) in enumerate(walk, 1))


def _first_suppressed_M(
    walks: list[tuple[int, int]], n: int, ms: range, blocks: Callable[[], Iterable], bar: float
) -> int | None:
    """First M at which every walk has |s_M| <= bar, or None once ms ends.

    Each walk (a, q) runs over _phases(a, q, n, ms), all of them in
    lockstep, and s_M is the mean of a walk's first M + 1 terms, its
    magnitude math.hypot of the correctly rounded sums over M + 1.  The
    first M, up to _SCALAR_TERMS terms in all, are decided here from
    _exact_magnitudes, a term of each walk at a time.  If none of them is
    the answer, _blocks decides every M by the same rule, from blocks(),
    the numpy phase blocks of the same walks over ms.
    """
    head = ms[:_SCALAR_TERMS // len(walks)]
    if head:
        mags = zip(*(_exact_magnitudes(a, q, n, head) for a, q in walks))
        M = next((M for M, column in enumerate(mags) if max(column) <= bar), None)
        if M is not None or not ms[len(head):]:
            return M
    return _blocks._first_suppressed(_blocks._walk(blocks()), bar)


def _curlicue_suppressed(eps: float, n: int, ms: range, bar: float) -> int | None:
    """_first_suppressed_M of the one curlicue walk over ms; eps and n are checked first."""
    walks = [_curlicue_ratio(eps, n)]
    return _first_suppressed_M(walks, n, ms, lambda: _blocks._curlicue_phases(eps, n, ms), bar)


def _residue_suppressed(N: int, ls: Sequence[int], n: int, ms: range, bar: float) -> int | None:
    """_first_suppressed_M of the residue walks of N over ms, one per l of ls, in lockstep."""
    ts = list(map(N.__mod__, ls))
    walks = [(2 * t, l) for t, l in zip(ts, ls)]
    return _first_suppressed_M(walks, n, ms, lambda: _blocks._lockstep_phases(ts, ls, n, ms), bar)


def _sequence(ls: Iterable[int]) -> Sequence[int]:
    """ls as a sequence: a range or list as it is, any other iterable as a list."""
    return ls if isinstance(ls, (range, list, tuple)) else list(ls)


def _least(ls: Sequence[int]) -> int:
    """The least l of a nonempty ls; a range's is at one of its ends."""
    return min(ls[0], ls[-1]) if isinstance(ls, range) else min(ls)


def _residue_sums(
    N: int, ls: Iterable[int], n: int, ms: Sequence[int]
) -> Iterator[tuple[Sequence[int], list[int], list[float], list[float]]]:
    """The sums of exp(2*pi*i * m**n * N / l) over ms for each l in ls, as columns.

    The one kernel behind every one-shot residue sum.  Runs of
    _WALK_TERMS // len(ms) consecutive l, or one, are summed together, and
    each run yields (its l, N mod l for each, their real sums, their
    imaginary sums).  A run of at most _SCALAR_TERMS terms is summed by
    fsum; a larger one walks in lockstep in numpy, each sum the last prefix
    of its walk.  N, n and the smallest l are checked first.  A range of l
    stays a range, cut into runs, so that no list of the window is made.
    """
    _check_order(n)
    if N < 0:
        raise ValueError(f"N must be >= 0, got {N}")
    ls = _sequence(ls)
    if ls:
        _check_trial(_least(ls))
    step = max(1, _WALK_TERMS // len(ms))
    for start in range(0, len(ls), step):
        run = ls[start:start + step]
        ts = list(map(N.__mod__, run))
        if len(run) * len(ms) <= _SCALAR_TERMS:
            yield (run, ts, *zip(*(_fsums(_phases(2 * t, l, n, ms)) for t, l in zip(ts, run))))
        else:
            yield (run, ts, *_blocks._walk_totals(_blocks._lockstep_phases(ts, run, n, ms)))


def _complete_mean(t: int, l: int) -> tuple[float, float]:
    """Mean of e(t m**2 / l) over m < l as (real, imag), in closed form.

    With d = gcd(t, l), a = t/d and c = l/d the mean is G(a, c)/c, and the
    Gauss sum G has the classical evaluation (Berndt, Evans & Williams,
    Gauss and Jacobi Sums, ch. 1): (a/c) eps_c sqrt(c) for odd c, 0 for
    c = 2 mod 4, and (1 + i) conj(eps_a) (c/a) sqrt(c) for c = 0 mod 4,
    where eps_k is 1 for k = 1 mod 4 and i for k = 3 mod 4.  Integers
    decide the sign and the quarter turn; the one float is 1/sqrt(c).
    """
    d = math.gcd(t, l)
    a, c = t // d, l // d
    if c == 1:
        return 1.0, 0.0
    if c % 4 == 2:
        return 0.0, 0.0
    if c % 2:
        s = jacobi(a, c) / math.sqrt(c)
        return (s, 0.0) if c % 4 == 1 else (0.0, s)
    # c = 0 mod 4 makes a odd; (1 + i) conj(eps_a) is 1 + i or 1 - i
    s = jacobi(c, a) / math.sqrt(c)
    return (s, s) if a % 4 == 1 else (s, -s)


def complete_gauss_sum(N: int, l: int) -> SumValue:
    """Normalized quadratic Gauss sum over all l residues, in closed form.

    O(log l) integer steps (see _complete_mean) for any l; term_count is
    still l.
    """
    return evaluate(N, l, SumSpec(Complete()))


def truncated_sum(N: int, l: int, n: int, M: int) -> SumValue:
    """Order-n exponential sum truncated at M: mean over m = 0..M."""
    return evaluate(N, l, SumSpec(FullTruncation(M), n))


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
    """Normalized curlicue sum: mean of exp(i*pi*m**n*eps) for m = 0..M."""
    ms = FullTruncation(M).terms(0)  # m = 0..M for any l
    p, q = _curlicue_ratio(eps, n)
    if len(ms) <= _SCALAR_TERMS:
        re, im = _fsums(_phases(p, q, n, ms))
    else:
        (re,), (im,) = _blocks._walk_totals(_blocks._curlicue_phases(eps, n, ms))
    return SumValue(re / len(ms), im / len(ms), len(ms))


def randomized_sum(
    N: int, l: int, n: int, count: int, m_max: int, seed: int
) -> SumValue:
    """Mean over `count` distinct random m from {0..m_max}, seeded.

    Identical (seed, count, m_max) give an identical m-set and hence a
    bit-identical result.
    """
    return evaluate(N, l, SumSpec(Randomized(count, m_max, seed), n))


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
    return next(evaluate_many(N, (l,), spec))


def _mean_columns(
    N: int, ls: Iterable[int], spec: SumSpec
) -> Iterator[tuple[Sequence[int], list[int], list[float], list[float], list[int]]]:
    """evaluate_many's sums as columns, a run of l at a time.

    Each run yields (its l, N mod l for each, the real and the imaginary
    parts of their normalized sums, their term counts): the fields of a
    SumValue, with the same bits.  The complete sum is a closed form per l;
    every other strategy averages one m-set over every l, through the
    batched kernel.  A range of l stays a range, cut into runs.
    """
    if not isinstance(spec.strategy, Complete):
        ms = spec.strategy.terms(0)
        size = len(ms)
        for run, ts, re, im in _residue_sums(N, ls, spec.order, ms):
            yield run, ts, [x / size for x in re], [y / size for y in im], [size] * len(run)
        return
    if N < 0:
        raise ValueError(f"N must be >= 0, got {N}")
    ls = _sequence(ls)
    for start in range(0, len(ls), _WALK_TERMS):
        run = ls[start:start + _WALK_TERMS]
        _check_trial(_least(run))
        ts = list(map(N.__mod__, run))
        re, im = zip(*map(_complete_mean, ts, run))
        yield run, ts, list(re), list(im), list(run)


def evaluate_many(N: int, ls: Iterable[int], spec: SumSpec) -> Iterator[SumValue]:
    """evaluate(N, l, spec) for each l in ls, in order, block by block."""
    return (
        SumValue(re, im, count)
        for _, _, res, ims, counts in _mean_columns(N, ls, spec)
        for re, im, count in zip(res, ims, counts)
    )


def residue_magnitudes(l: int, n: int, M: int):
    """Truncated-sum magnitudes for every residue N mod l at once.

    Entry t equals truncated_sum(N, l, n, M).magnitude for any N with
    N mod l = t.  Useful for exhaustive factor-characterization sweeps;
    vectorized over int64, so l is capped at 10**9.  Every phase is
    pi * (k / l) for some k < 2l, so cos and sin are taken of those 2l
    phases once and gathered by k.  A numpy array, so numpy is imported.
    """
    _check_trial(l)
    _check_order(n)
    ms = FullTruncation(M).terms(l)
    if l > 10**9:
        raise ValueError(f"residue sweep over l={l} would overflow int64 products")
    return _blocks.residue_magnitudes(l, n, ms)


def _curlicue_walk(eps: float, n: int, ms: Sequence[int]) -> Iterator[tuple[complex, complex]]:
    """(term, partial sum) of the curlicue walk over ms, one m at a time.

    Each partial sum is rounded correctly when it is read.  eps and n are
    checked on the call.
    """
    p, q = _curlicue_ratio(eps, n)
    if _short(ms):
        walk = _exact_walk(p, q, n, ms)
        return ((complex(c, s), complex(re, im)) for c, s, re, im in walk)
    return _blocks._curlicue_walk(eps, n, ms)


def _curlicue_magnitudes(eps: float, n: int, ms: Sequence[int]) -> Iterator[float]:
    """|s_M| of the curlicue walk over ms, for M = 0, 1, 2, ... in order.

    math.hypot of each partial sum, rounded correctly when it is read, over
    M + 1.  eps and n are checked on the call.
    """
    p, q = _curlicue_ratio(eps, n)
    if _short(ms):
        return _exact_magnitudes(p, q, n, ms)
    partials = _blocks._curlicue_partials(eps, n, ms)
    return (math.hypot(s.real, s.imag) / k for k, s in enumerate(partials, 1))


def iter_curlicue_magnitudes(eps: float, n: int) -> Iterator[tuple[int, float]]:
    """Yield (M, |s_M|) for M = 0, 1, 2, ... without re-summing."""
    return enumerate(_curlicue_magnitudes(eps, n, range(2**64)))
