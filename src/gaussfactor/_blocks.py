"""The numpy block kernels: residues, curlicue phases, exact prefix sums and pulse trees.

sums and spinsim run a kernel call here when it has more than
sums._SCALAR_TERMS terms.  numpy is imported at the first such call, not
with the package, so a light call loads no numpy.  Each kernel gives the
bits of the scalar arithmetic in sums and spinsim: the phases of
sums._phases, the sums of math.fsum, correctly rounded prefix sums, and the
pulse tree of spinsim._train_rotation.
"""
from __future__ import annotations

import math
import operator
from itertools import chain, count, groupby, tee
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

from . import sums  # which imports this module first; its names are read when a kernel runs

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


class _Numpy:
    """numpy, imported at the first read of one of its names.

    The kernels' one import of numpy, so that a call that runs none of them
    loads no numpy.  The first read copies numpy's names into the instance,
    so later reads are plain attribute lookups, and the object the module
    holds stays the same.  If numpy cannot be imported, the ImportError
    says which calls need it.
    """

    def __getattr__(self, name: str) -> Any:
        try:
            import numpy
        except ImportError as exc:
            raise ImportError(
                f"numpy is needed for kernel calls of more than {sums._SCALAR_TERMS} terms ({exc})"
            ) from exc
        vars(self).update(vars(numpy))
        return getattr(numpy, name)


np = _Numpy()


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


def _dyadic_floats(high: np.ndarray, low: np.ndarray, k) -> np.ndarray:
    """(high * 2**64 + low) / 2**k for uint64 limbs, rounded once where at least 2**-1022.

    k is an int or an int32 array; with k <= 1022 every nonzero result is
    at least 2**-1022.  The top 64 bits, above a shift s of high's bit
    length or one more (its float's exponent), with a sticky bit for the
    rest, round to nearest as the whole does: with s > 0 they are at least
    2**62, so the sticky bit lies below the rounding position.  One
    conversion, then 2**(s - k), exact unless the result is subnormal.
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
    sums._WALK_TERMS.  eps and n are checked on the call.
    """
    p, q = sums._curlicue_ratio(eps, n)
    n = operator.index(n)
    k = q.bit_length() - 1

    def blocks() -> Iterator[np.ndarray]:
        start, size = 0, min(_FIRST_TERMS, sums._WALK_TERMS)
        while part := ms[start:start + size]:
            start, size = start + size, min(2 * size, sums._WALK_TERMS)
            ends = (part[0], part[-1]) if isinstance(part, range) else part
            if k < 128 and 0 <= min(ends) and max(ends) < 2**64:
                yield _dyadic_phases(p % (2 * q), k, n, _uint64s(part))
            else:
                yield np.array(list(sums._phases(p, q, n, part)))

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
        re, im = self._rounded(s, slice(r, r + 1), slice(c, c + self.walks + 1, self.walks))[0]
        return re.item(), im.item()

    def last(self) -> tuple[list[float], list[float]]:
        """The last row's real and imaginary parts, one per walk, each rounded correctly."""
        s, r = divmod(self.size - 1, self.limbs.shape[2])
        row = self._rounded(s, slice(r, r + 1), slice(None))[0].tolist()
        return row[:self.walks], row[self.walks:]

    def partials(self) -> Iterator[complex]:
        """A one-walk block's prefix sums in order, rounded a sub-block at a time, when read."""
        for s in range(self.limbs.shape[1]):
            parts = self._rounded(s, slice(None), slice(None))
            yield from parts.view(np.complex128)[:, 0].tolist()

    def _rounded(self, s: int, rows: slice, cols: slice) -> np.ndarray:
        """Rows of sub-block s in columns cols, each rounded once from its exact limbs.

        Each cell's head and limbs are added limb by limb and carried, then
        negated and carried again where the head is negative, so that every
        limb holds the magnitude's bits (_carried).  The leading nonzero
        limb and the two below it hold at least 111 bits; their top bits,
        cut 46 bits above the lowest, with a sticky bit for everything
        lower, round once by _dyadic_floats' rule to the correctly rounded
        value, the fsum of the terms the cell sums.  Where that value lies
        at or below 2**-1022, ldexp could round a second time, so the cell
        is rounded by int true division instead (_exact_quotient).
        """
        limbs = self.limbs[:, s, rows, cols]
        heads = self.heads[:, s, None, cols]
        shape = limbs.shape[1:]
        v = np.zeros((len(heads) + 2, *shape), np.int64)  # two limbs of zeros past the last
        v[0] = heads[0]
        np.add(limbs, heads[1:], out=v[1:-2])
        _carried(v[:-2])
        sign = np.where(v[0] < 0, -1, 1)
        if (sign < 0).any():
            v *= sign
            _carried(v[:-2])
        u = v.reshape(len(v), -1).view(np.uint64)
        nonzero = u != 0
        lead = nonzero.argmax(axis=0)
        last = len(u) - 1 - nonzero[::-1].argmax(axis=0)
        at = lead * u.shape[1] + np.arange(u.shape[1])
        high, mid, low = (u.take(at + j * u.shape[1]) for j in range(3))
        live = high != 0
        low = low >> 46 | mid << 9 | (low << 18 != 0) | ((last > lead + 2) & live)
        values = _dyadic_floats(high, low, (55 * lead + 61).astype(np.int32))
        for cell in np.nonzero((values <= 2.0**-1022) & live)[0]:
            values[cell] = _exact_quotient(u[:-2, cell].tolist())
        values = values.reshape(shape)
        values *= sign
        return values


def _carried(v: np.ndarray) -> None:
    """Carry each limb below the head into [0, 2**55), the lowest first, in place.

    v stacks limbs along axis 0 as _SHIFTS lays them out.  Each carry
    reaches the limb above before that limb is carried, so one pass leaves
    every limb below the head in range.  The limbs below the head then sum
    to less than 8, its unit, so the head has the value's sign.
    """
    for j in range(len(v) - 1, 0, -1):
        v[j - 1] += v[j] >> 55
        v[j] &= (1 << 55) - 1


def _exact_quotient(limbs: list[int]) -> float:
    """The value of limbs laid out as _SHIFTS lays them out, by one int true division.

    Python's int true division rounds correctly into the subnormals too.
    """
    unit = _SHIFTS[len(limbs) - 1]
    return sum(limb << unit - shift for limb, shift in zip(limbs, _SHIFTS)) / (1 << unit)


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

    def first(block: _Sums) -> int | None:
        re, im = block.approx()  # fresh arrays, squared in place
        mags = np.square(re, out=re)
        mags += np.square(im, out=im)
        np.sqrt(mags, out=mags)
        mags /= np.arange(block.start + 1, block.start + len(mags) + 1)[:, None]
        below = mags <= bar
        gap = np.abs(np.subtract(mags, bar, out=im), out=im)
        for M, col in zip(*np.nonzero(gap <= near)):
            below[M, col] = math.hypot(*block.rounded(M, col)) / (block.start + M + 1) <= bar
        done = below.all(axis=1)
        return block.start + int(done.argmax()) if done.any() else None

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
        block, carry = _prefix_sums(x, carry, start)
        start += len(x)
        return block

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
    for block in _walk(blocks):
        pass
    return block.last()


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
    """The phases of sums._residue_phases, one row per l < 2**32, from uint64 residues.

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
    """The same phases for l >= 2**32, reduced in exact ints by sums._phases."""
    rows = [list(sums._phases(2 * t, l, n, ms)) for t, l in zip(ts, ls)]
    return np.array(rows, dtype=np.float64)


def _lockstep_phases(
    ts: Sequence[int], ls: Sequence[int], n: int, ms: Sequence[int]
) -> Iterator[np.ndarray]:
    """The phases of sums._residue_phases for walks over ms in lockstep, one column per l.

    ts holds N mod l for each l of ls.  Each block holds the next
    sums._WALK_TERMS // len(ls) values of m, or one, along axis 0, as _walk
    reads them.  Each column is formed on its l's kernel path, chosen by l
    alone: uint64 residues below _UINT64_BOUND, exact ints from it on.
    """
    runs, start = [], 0
    for big, run in groupby(ls, _UINT64_BOUND.__le__):
        run = list(run)
        t, start = ts[start:start + len(run)], start + len(run)
        if big:
            runs.append((_bigint_phases, t, run))
        else:  # as arrays once per walk, not once per block
            runs.append((_uint64_phases, np.array(t, np.uint64), np.array(run, np.uint64)))
    columns = max(1, sums._WALK_TERMS // len(ls))
    for start in count(0, columns):
        part = ms[start:start + columns]
        if not part:
            return
        yield np.concatenate([phases(t, run, n, part) for phases, t, run in runs]).T


def _curlicue_walk(eps: float, n: int, ms: Sequence[int]) -> Iterator[tuple[complex, complex]]:
    """(term, partial sum) of the curlicue walk over ms, one m at a time.

    Each partial sum is rounded correctly when it is read.  eps and n are
    checked on the call.
    """
    def pairs(terms: np.ndarray, block: _Sums) -> Iterator[tuple[complex, complex]]:
        terms, partials = terms.view(np.complex128)[:, 0], block.partials()
        for start in range(0, len(terms), _SUB_TERMS):
            yield from zip(terms[start:start + _SUB_TERMS].tolist(), partials)

    terms, copies = tee(map(_terms, _curlicue_phases(eps, n, ms)))
    return chain.from_iterable(map(pairs, terms, _summed(t.copy() for t in copies)))


def _curlicue_partials(eps: float, n: int, ms: Sequence[int]) -> Iterator[complex]:
    """The partial sums of the curlicue walk over ms, each rounded correctly when it is read."""
    return chain.from_iterable(map(_Sums.partials, _walk(_curlicue_phases(eps, n, ms))))


def residue_magnitudes(l: int, n: int, ms: range) -> np.ndarray:
    """The truncated-sum magnitudes over ms of every residue t = N mod l, at once.

    Every phase is pi * (k / l) for some k < 2l, so cos and sin are taken
    of those 2l phases once and gathered by k.  l is at most 10**9, so
    pow(m, n, 2l) * 2t < 4 * l**2 <= 4e18 < 2**63.
    """
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


# A pair's parts (a.real, a.imag, b.real, b.imag) as arrays of the same
# shape, one element per pair; a.imag is None where a is a float, as a raw
# pulse's cos(theta/2) is
Pairs = tuple["np.ndarray", Optional["np.ndarray"], "np.ndarray", "np.ndarray"]

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
    pulses, as spinsim._train_rotation builds a pulse at a time.  The pairs
    left waiting, one level each at most, fold into the identity latest
    first.  Every merge is renormalized, so rounding grows with the depth
    of the tree, log2 of the train length, and memory is a block plus a
    pair per train and level.
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
