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
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, count, groupby, tee
from typing import Callable, Iterable, Iterator, Sequence, Union

import numpy as np

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
# A curlicue walk's first block, small so that its first values come early.
_FIRST_TERMS = 1 << 5
# Residues below l multiply to less than 2**64 while l <= 2**32.
_UINT64_BOUND = 1 << 32
# The low half of a uint64: _mul64 forms its products from 32-bit halves.
_LOW32 = (1 << 32) - 1
# A prefix sum is exact in int64 limbs of units 2**-_SHIFTS[j], 55 bits
# apart: a head in units of 8, then 2**-52, 2**-107 and on, down to
# 2**-1097, below the least subnormal.  Limbs of one term are below 2**54,
# so int64 sums over _SUB_TERMS rows cannot overflow.
_SHIFTS = tuple(55 * j - 3 for j in range(21))
_SUB_TERMS = 256
# A mean of unit terms may pass 1 by rounding, never by this much.
_MAX_MAGNITUDE = 1.0 + 1e-9


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


def _square_and_multiply(r, base, n: int, mul: Callable):
    """r * base**n under the product mul, in O(log n) products."""
    while True:
        if n & 1:
            r = mul(r, base)
        if not (n := n >> 1):
            return r
        base = mul(base, base)


def _mul64(a, b) -> tuple[np.ndarray, np.ndarray]:
    """The 128-bit products a * b of uint64s as (high, low) limbs, from 32-bit halves."""
    a0, a1, b0, b1 = a & _LOW32, a >> 32, b & _LOW32, b >> 32
    mid = a1 * b0
    mid += a0 * b0 >> 32  # below (2**32 - 1) * 2**32, so no sum here wraps
    high = a1 * b1
    high += mid >> 32
    mid &= _LOW32
    mid += a0 * b1
    high += mid >> 32
    return high, a * b


def _mul128(a: tuple, b: tuple) -> tuple[np.ndarray, np.ndarray]:
    """The products a * b mod 2**128 of (high, low) uint64 limb pairs."""
    high, low = _mul64(a[1], b[1])
    high += a[0] * b[1]
    high += a[1] * b[0]
    return high, low


def _dyadic_floats(high: np.ndarray, low: np.ndarray, k: int) -> np.ndarray:
    """(high * 2**64 + low) / 2**k for uint64 limbs, each rounded once, for k <= 1022.

    The top 64 bits, above a shift s of high's bit length or one more (its
    float's exponent), with a sticky bit for the rest, round to nearest as
    the whole does: with s > 0 they are at least 2**63, so the sticky bit
    lies below the rounding position.  One conversion, then an exact 2**(s - k).
    numpy's uint64 shift by 64 gives 0, which the ends s = 0 and 64 use.
    """
    s = np.minimum(np.frexp(high.astype(np.float64))[1], 64).astype(np.uint64)
    top = high << (64 - s)
    top |= low >> s
    top |= (low << (64 - s)) != 0
    return np.ldexp(top.astype(np.float64), s.astype(np.int32) - k)


def _dyadic_phases(p: int, k: int, n: int, m: np.ndarray) -> np.ndarray:
    """pi * ((m**n * p) mod 2**(k + 1)) / 2**k for uint64 m, 0 <= p < 2**128 and k < 128.

    The residue is formed mod 2**128 in two uint64 limbs and masked to
    k + 1 bits.  m**n is taken as one limb where its wrap mod 2**64 does
    not matter, k < 64, or cannot happen, n * bit_length(max m) <= 64.
    """
    if k < 64 or n * int(m.max()).bit_length() <= 64:
        m, n = _square_and_multiply(m, m, n - 1, np.multiply), 1
    high, low = _square_and_multiply(divmod(p, 1 << 64), (0, m), n, _mul128)
    mask = (1 << k + 1) - 1
    high &= mask >> 64
    low &= mask % (1 << 64)
    return math.pi * _dyadic_floats(high, low, k)


def _curlicue_phases(eps: float, n: int, ms: Sequence[int]) -> Iterator[np.ndarray]:
    """The phases pi*m**n*eps for m in ms, reduced mod 2*pi, in blocks.

    Bit for bit the phases of _phases on the exact ratio p/2**k of eps:
    the uint64 residues of _dyadic_phases, or _phases in exact ints for a
    block where k >= 128 or some m lies outside [0, 2**64).  The first
    block holds _FIRST_TERMS terms, and each next one twice as many up to
    _WALK_TERMS.  eps and n are checked on the call.
    """
    if not math.isfinite(eps):
        raise ValueError(f"epsilon must be finite, got {eps}")
    _check_order(n)
    n = operator.index(n)
    p, q = eps.as_integer_ratio()
    k = q.bit_length() - 1

    def blocks() -> Iterator[np.ndarray]:
        start, size = 0, min(_FIRST_TERMS, _WALK_TERMS)
        while part := ms[start:start + size]:
            start, size = start + size, min(2 * size, _WALK_TERMS)
            ends = (part[0], part[-1]) if isinstance(part, range) else part
            if k < 128 and 0 <= min(ends) and max(ends) < 2**64:
                yield _dyadic_phases(p % (2 * q), k, n, _uint64s(part))
            else:
                yield np.array(list(_phases(p, q, n, part)))

    return blocks()


def _split(x: np.ndarray, least: int) -> np.ndarray:
    """int64 limbs a_1, a_2, ... with x = sum_j a_j * 2**-_SHIFTS[j] exactly, for x in [-1, 1].

    a_1 = rint(x * 2**52), so |a_1| <= 2**52, and each later limb rounds
    what is left, scaled by 2**55, so |a_j| <= 2**54.  Every step is exact:
    it scales by powers of 2 and takes the bits of a float apart.  There
    are `least` limbs, and more while anything is left: x = 0 and 2**-55 <=
    |x| end at a_2, whose unit 2**-107 is their last bit or below it; a
    tinier x, such as sin of a tiny phase, takes more.  Limbs stack along
    axis 0; x is overwritten.
    """
    rest = x
    rest *= 2.0**52
    limbs = np.empty((least, *x.shape), np.int64)
    for j, limb in enumerate(limbs):
        if j:
            rest *= 2.0**55
        np.rint(rest, out=limb, casting="unsafe")
        rest -= limb
    more = []
    while rest.any():
        rest *= 2.0**55
        more.append(np.rint(rest))
        rest -= more[-1]
    return np.concatenate([limbs, np.array(more, np.int64)]) if more else limbs


def _normalize(limbs: np.ndarray) -> None:
    """Carry each limb past the head into about [0, 2**55) by shifts, in place.

    limbs stack along axis 0 as _SHIFTS lays them out.  One pass leaves
    each limb within 2**8 of that range, so int64 sums of up to 2**7 of
    them cannot overflow; the value stays exact.
    """
    high = limbs[1:] >> 55
    limbs[1:] &= (1 << 55) - 1
    limbs[:-1] += high


def _cumsum(a: np.ndarray) -> None:
    """Inclusive prefix sums of an int64 array along axis 0, in place.

    np.cumsum runs one loop per column, which costs most on short, wide
    arrays, such as lockstep blocks; those take a doubling scan instead,
    log2(rows) whole-array adds.  Both are exact while no sum overflows.
    """
    if 8 * len(a) > a[0].size:
        np.cumsum(a, axis=0, out=a)
        return
    step = 1
    while step < len(a):
        a[step:] += a[:-step]
        step *= 2


# A magnitude formed in numpy from float sums differs from math.hypot's by a
# few ulps at most, so one this many ulps of the bar away from it is on the
# same side whichever one formed it
_BAR_ULPS = 8
# A walk's float prefix sums lie within 2**-51 * (M + 2) + 2**-43 of the
# correctly rounded ones (_Sums.approx), so a magnitude formed from them
# lies within sqrt(2) * (2**-50 + 2**-43) < 2**-42 of the one formed from
# the rounded sums, before the roundings of forming it
_APPROX_SLACK = 2.0**-40


class _Sums:
    """The exact prefix sums of a walk block, M - start along axis 0.

    Columns hold the real parts of the block's walks, then their imaginary
    parts.  Rows come in sub-blocks of equal length.  Row r of sub-block s
    in column c sums, exactly, to heads[j, s, c] * 2**-_SHIFTS[j] over j
    (the sum before the sub-block) plus limbs[j, s, r, c] *
    2**-_SHIFTS[j + 1] over j (the sum within it, through row r).
    """

    def __init__(self, heads: np.ndarray, limbs: np.ndarray, size: int, start: int):
        self.heads, self.limbs, self.size, self.start = heads, limbs, size, start
        self.walks = limbs.shape[-1] // 2

    def approx(self) -> tuple[np.ndarray, np.ndarray]:
        """The real and imaginary prefix sums in float, each of shape (size, walks).

        A row with M terms of its walk before it has a head of magnitude at
        most M, whose float lies within 2**-52 * (M + 22) of it.  Within the
        sub-block, the first limb adds at most 256, rounded within 2**-45,
        and the later limbs add at most 2**-45, left out.  With the final
        rounding and the one of the correctly rounded sum, this lies within
        2**-51 * (M + 2) + 2**-43 of the correctly rounded sum.
        """
        head = self.heads[0] * 8.0 + self.heads[1] * 2.0**-52 + self.heads[2] * 2.0**-107
        v = self.limbs[0] * 2.0**-52
        v += head[:, None]
        v = v.reshape(-1, v.shape[-1])[:self.size]
        return v[:, :self.walks], v[:, self.walks:]

    def rounded(self, i: int, c: int = 0) -> tuple[float, float]:
        """Row i of walk c, its real and imaginary parts rounded correctly."""
        s, r = divmod(i, self.limbs.shape[2])
        return self._rounded(s, r, c), self._rounded(s, r, self.walks + c)

    def last(self) -> tuple[list[float], list[float]]:
        """The last row's real and imaginary parts, one per walk, each rounded correctly."""
        s, r = divmod(self.size - 1, self.limbs.shape[2])
        row = self._rounded(s, r, slice(None)).tolist()
        return row[:self.walks], row[self.walks:]

    def partials(self) -> Iterator[complex]:
        """A one-walk block's prefix sums in order, rounded a sub-block at a time, when read."""
        for s in range(self.limbs.shape[1]):
            parts = self._rounded(s, slice(None), slice(None)).astype(np.float64)
            yield from parts.view(np.complex128)[:, 0].tolist()

    def _rounded(self, s: int, rows: int | slice, cols: int | slice):
        """Rows of sub-block s in columns cols, each rounded once from its exact integer.

        Python's int true division rounds correctly, so each is the fsum of
        the terms it sums.
        """
        unit = _SHIFTS[len(self.heads) - 1]
        lifts = [unit - shift for shift in _SHIFTS[:len(self.heads)]]
        exact = sum(map(operator.lshift, self.heads[:, s, cols].astype(object), lifts))
        for limb, lift in zip(self.limbs[:, s, rows, cols].astype(object), lifts[1:]):
            exact = exact + (limb << lift)  # Python ints, elementwise
        return exact / (1 << unit)


def _first_suppressed(walk: Iterable[_Sums], bar: float) -> int | None:
    """First M at which every walk has |s_M| <= bar, or None once they end.

    walk yields _walk's blocks of prefix sums, M along axis 0 and one
    column per walk run in lockstep.  s_M is the mean of a walk's first
    M + 1 terms, its magnitude math.hypot of the correctly rounded sums over
    M + 1.  Each block is decided on the float approximations of its sums;
    a magnitude within _APPROX_SLACK and _BAR_ULPS of the bar is decided
    again from the exact sums, so the answer is the one the correctly
    rounded sums give.
    """
    near = _APPROX_SLACK + _BAR_ULPS * np.spacing(abs(bar))

    def first(sums: _Sums) -> int | None:
        re, im = sums.approx()  # fresh arrays, squared in place
        mags = np.square(re, out=re)
        mags += np.square(im, out=im)
        np.sqrt(mags, out=mags)
        mags /= np.arange(sums.start + 1, sums.start + len(mags) + 1)[:, None]
        below = mags <= bar
        gap = np.abs(np.subtract(mags, bar, out=im), out=im)
        for M, col in zip(*np.nonzero(gap <= near)):
            below[M, col] = math.hypot(*sums.rounded(M, col)) / (sums.start + M + 1) <= bar
        done = below.all(axis=1)
        return sums.start + int(done.argmax()) if done.any() else None

    # through map, so that no block outlives its turn
    for M in map(first, walk):
        if M is not None:
            return M
    return None


def _prefix_sums(x: np.ndarray, carry: np.ndarray, start: int) -> tuple[_Sums, np.ndarray]:
    """The exact prefix sums of x's columns after carry, and the carry past x.

    x is overwritten.  carry stacks the limbs of one exact value per
    column, as _normalize leaves them.  x's rows are cut into sub-blocks of
    at most _SUB_TERMS, the last one padded with zeros, and the limbs are
    summed through each row of a sub-block, where no int64 sum can
    overflow.  Each sub-block's head is the carry plus the totals of the
    sub-blocks before it.  A fixed number of numpy calls, whatever the
    shape.
    """
    size, width = x.shape
    sub = min(size, _SUB_TERMS)
    pad = -size % sub
    if pad:
        x = np.concatenate([x, np.zeros((pad, width))])
    limbs = _split(x, len(carry) - 1)
    limbs = limbs.reshape(len(limbs), -1, sub, width)
    for limb in limbs:  # one at a time, so that a doubling scan's copies stay small
        _cumsum(limb.swapaxes(0, 1))
    totals = np.concatenate([np.zeros((1, limbs.shape[1], width), np.int64), limbs[:, :, -1]])
    _normalize(totals)
    if len(carry) < len(totals):
        carry = np.concatenate([carry, np.zeros((len(totals) - len(carry), width), np.int64)])
    bases = np.concatenate([carry[:, None], totals], axis=1)
    _cumsum(bases.swapaxes(0, 1))
    _normalize(bases)
    return _Sums(bases[:, :-1], limbs, size, start), bases[:, -1]


def _summed(blocks: Iterable[np.ndarray]) -> Iterator[_Sums]:
    """The exact prefix sums of each block of terms in [-1, 1], which it overwrites.

    The package's one sum: a one-shot sum is the last of its prefix sums.
    A block of terms has shape (k, 2) for
    one walk or (k, 2, walks) for walks run in lockstep: M along axis 0,
    then the real and the imaginary part.  Exact totals carry across
    blocks, so every prefix sum, rounded, is the fsum of the terms up to it.
    """
    carry, start = None, 0

    def summed(terms: np.ndarray) -> _Sums:
        nonlocal carry, start
        x = terms.reshape(len(terms), -1)
        if carry is None:
            carry = np.zeros((3, x.shape[1]), np.int64)
        sums, carry = _prefix_sums(x, carry, start)
        start += len(x)
        return sums

    # map holds no block once it is handed on
    return map(summed, blocks)


def _terms(phases: np.ndarray) -> np.ndarray:
    """cos(phase) and sin(phase) along a new axis 1, as _summed lays terms out.

    np.cos and np.sin keep the bits of math.cos and math.sin.
    """
    terms = np.empty((len(phases), 2, *phases.shape[1:]))
    np.cos(phases, out=terms[:, 0])
    np.sin(phases, out=terms[:, 1])
    return terms


def _walk(blocks: Iterable[np.ndarray]) -> Iterator[_Sums]:
    """The prefix sums of the walk whose terms are exp(i * phase), block by block of phases."""
    return _summed(map(_terms, blocks))


def _walk_totals(blocks: Iterable[np.ndarray]) -> tuple[list[float], list[float]]:
    """The real and imaginary sums of each walk's terms, rounded correctly.

    The walk is drained a block at a time: the loop holds one block while
    the next is formed, where unpacking it as *_, last would hold them all.
    """
    for sums in _walk(blocks):
        pass
    return sums.last()


def _uint64s(ms: Sequence[int]) -> np.ndarray:
    """ms as uint64s: a range by np.arange, a drawn m-set by np.array."""
    if isinstance(ms, range):
        return np.arange(ms.start, ms.stop, ms.step, dtype=np.uint64)
    return np.array(ms, dtype=np.uint64)


def _uint64_residues(ts: list[int], ls: Sequence[int], n: int, ms: Sequence[int]) -> np.ndarray:
    """(m**n * t) mod l for each t = N mod l in ts and l in ls (rows), m in ms (columns).

    Square-and-multiply in uint64, so order n costs O(log n) array steps.
    Every factor is reduced below l <= 2**32, so no product reaches 2**64.
    A range of m is formed by np.arange, a drawn m-set by np.array.
    """
    l = np.asarray(ls, dtype=np.uint64)[:, None]
    r = np.asarray(ts, dtype=np.uint64)[:, None]
    return _square_and_multiply(r, _uint64s(ms) % l, n, lambda a, b: a * b % l)


def _uint64_phases(ts: list[int], ls: Sequence[int], n: int, ms: Sequence[int]) -> np.ndarray:
    """The phases of _residue_phases, one row per l < 2**32, from uint64 residues.

    ts holds N mod l for each l.  pi * (2r / l) has the bits of _phases:
    (m**n * 2t) mod 2l = 2r, and 2r and l convert to float exactly, so the
    one rounding is the division.
    """
    phases = _uint64_residues(ts, ls, n, ms).astype(np.float64)
    phases *= 2.0  # exact, as 2r < 2**33
    phases /= np.asarray(ls, dtype=np.float64)[:, None]
    phases *= math.pi
    return phases


def _bigint_phases(ts: list[int], ls: Sequence[int], n: int, ms: Sequence[int]) -> np.ndarray:
    """The same phases for l >= 2**32, reduced in exact ints by _phases."""
    return np.array([list(_phases(2 * t, l, n, ms)) for t, l in zip(ts, ls)], dtype=np.float64)


def _phase_path(l: int) -> Callable[..., np.ndarray]:
    """The kernel's one choice, made by l alone: uint64 residues or exact ints."""
    return _uint64_phases if l < _UINT64_BOUND else _bigint_phases


def _lockstep_phases(N: int, ls: Sequence[int], n: int, ms: Sequence[int]) -> Iterator[np.ndarray]:
    """The phases of _residue_phases for walks over ms in lockstep, one column per l.

    Each block holds the next _WALK_TERMS // len(ls) values of m, or one,
    along axis 0, as _walk reads them.  Each column is formed on its l's
    kernel path, from N mod l formed once per walk.
    """
    runs = []
    for phases, run in groupby(ls, _phase_path):
        run = list(run)
        ts = [N % l for l in run]
        if phases is _uint64_phases:  # as arrays once per walk, not once per block
            ts, run = np.array(ts, np.uint64), np.array(run, np.uint64)
        runs.append((phases, ts, run))
    columns = max(1, _WALK_TERMS // len(ls))
    for start in count(0, columns):
        part = ms[start:start + columns]
        if not part:
            return
        yield np.concatenate([phases(ts, run, n, part) for phases, ts, run in runs]).T


def _residue_sums(
    N: int, ls: Iterable[int], n: int, ms: Sequence[int]
) -> Iterator[tuple[list[int], list[float], list[float]]]:
    """The sums of exp(2*pi*i * m**n * N / l) over ms for each l in ls, as columns.

    The one kernel behind every one-shot residue sum: each sum is the last
    prefix of a walk over ms.  Runs of _WALK_TERMS // len(ms) consecutive l,
    or one, walk in lockstep, and each run yields (its l, their real sums,
    their imaginary sums).  N, n and the smallest l are checked first.
    """
    _check_order(n)
    if N < 0:
        raise ValueError(f"N must be >= 0, got {N}")
    ls = list(ls)
    if ls:
        _check_trial(min(ls))
    step = max(1, _WALK_TERMS // len(ms))
    for start in range(0, len(ls), step):
        run = ls[start:start + step]
        yield (run, *_walk_totals(_lockstep_phases(N, run, n, ms)))


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
    (re,), (im,) = _walk_totals(_curlicue_phases(eps, n, ms))
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
) -> Iterator[tuple[list[int], list[float], list[float], list[int]]]:
    """evaluate_many's sums as columns, a run of l at a time.

    Each run yields (its l, the real and the imaginary parts of their
    normalized sums, their term counts): the fields of a SumValue, with the
    same bits.  The complete sum is a closed form per l; every other
    strategy averages one m-set over every l, through the batched kernel.
    """
    if not isinstance(spec.strategy, Complete):
        ms = spec.strategy.terms(0)
        size = len(ms)
        for run, re, im in _residue_sums(N, ls, spec.order, ms):
            yield run, [x / size for x in re], [y / size for y in im], [size] * len(run)
        return
    if N < 0:
        raise ValueError(f"N must be >= 0, got {N}")
    ls = list(ls)
    for start in range(0, len(ls), _WALK_TERMS):
        run = ls[start:start + _WALK_TERMS]
        _check_trial(min(run))
        re, im = zip(*[_complete_mean(N % l, l) for l in run])
        yield run, list(re), list(im), run


def evaluate_many(N: int, ls: Iterable[int], spec: SumSpec) -> Iterator[SumValue]:
    """evaluate(N, l, spec) for each l in ls, in order, block by block."""
    return (
        SumValue(re, im, count)
        for _, res, ims, counts in _mean_columns(N, ls, spec)
        for re, im, count in zip(res, ims, counts)
    )


def residue_magnitudes(l: int, n: int, M: int) -> np.ndarray:
    """Truncated-sum magnitudes for every residue N mod l at once.

    Entry t equals truncated_sum(N, l, n, M).magnitude for any N with
    N mod l = t.  Useful for exhaustive factor-characterization sweeps;
    vectorized over int64, so l is capped at 10**9.  Every phase is
    pi * (k / l) for some k < 2l, so cos and sin are taken of those 2l
    phases once and gathered by k.
    """
    _check_trial(l)
    _check_order(n)
    ms = FullTruncation(M).terms(l)
    if l > 10**9:
        raise ValueError(f"residue sweep over l={l} would overflow int64 products")
    # k = pow(m, n, 2l) * 2t mod 2l, with pow(m, n, 2l) * 2t < 4 * l**2 <= 4e18 < 2**63
    t2 = 2 * np.arange(l, dtype=np.int64)
    phases = math.pi * (np.arange(2 * l) / l)
    cos, sin = np.cos(phases), np.sin(phases)
    acc_re = np.zeros(l)
    acc_im = np.zeros(l)
    for m in ms:
        k = pow(m, n, 2 * l) * t2 % (2 * l)
        acc_re += cos[k]
        acc_im += sin[k]
    return np.hypot(acc_re, acc_im) / len(ms)


def _curlicue_walk(eps: float, n: int, ms: Sequence[int]) -> Iterator[tuple[complex, complex]]:
    """(term, partial sum) of the curlicue walk over ms, one m at a time.

    Each partial sum is rounded correctly when it is read.  eps and n are
    checked on the call.
    """
    def pairs(terms: np.ndarray, sums: _Sums) -> Iterator[tuple[complex, complex]]:
        terms, partials = terms.view(np.complex128)[:, 0], sums.partials()
        for start in range(0, len(terms), _SUB_TERMS):
            yield from zip(terms[start:start + _SUB_TERMS].tolist(), partials)

    terms, copies = tee(map(_terms, _curlicue_phases(eps, n, ms)))
    return chain.from_iterable(map(pairs, terms, _summed(t.copy() for t in copies)))


def _curlicue_magnitudes(eps: float, n: int, ms: Sequence[int]) -> Iterator[float]:
    """|s_M| of the curlicue walk over ms, for M = 0, 1, 2, ... in order.

    math.hypot of each partial sum, rounded correctly when it is read, over
    M + 1.  eps and n are checked on the call.
    """
    partials = chain.from_iterable(map(_Sums.partials, _walk(_curlicue_phases(eps, n, ms))))
    return (math.hypot(s.real, s.imag) / k for k, s in enumerate(partials, 1))


def iter_curlicue_magnitudes(eps: float, n: int) -> Iterator[tuple[int, float]]:
    """Yield (M, |s_M|) for M = 0, 1, 2, ... without re-summing."""
    return enumerate(_curlicue_magnitudes(eps, n, range(2**64)))
