"""Exact integer arithmetic behind all phase computations.

Trial-factor sums need the fractional part of m**n * N / l for integers that
reach 17 decimal digits and beyond.  Everything here reduces modulo l first
and only then leaves integer land, so no intermediate ever grows past l**2.
"""
from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "PhaseFraction",
    "Epsilon",
    "phase_fraction",
    "epsilon",
    "is_factor",
    "jacobi",
    "brute_force_factorize",
]


def _check_trial(l: int) -> None:
    if l < 1:
        raise ValueError(f"trial factor must be >= 1, got {l}")


def _check_order(n: int, name: str = "sum order") -> None:
    if n < 2:
        raise ValueError(f"{name} must be >= 2, got {n}")


@dataclass(frozen=True)
class PhaseFraction:
    """Reduced phase (m**n * N) mod l over l, as an exact fraction in [0, 1)."""

    numerator: int
    denominator: int

    def __post_init__(self) -> None:
        if not 0 <= self.numerator < self.denominator:
            raise ValueError(
                f"phase numerator {self.numerator} outside [0, {self.denominator})"
            )

    @property
    def as_real(self) -> float:
        return self.numerator / self.denominator

    @property
    def is_zero(self) -> bool:
        return self.numerator == 0


@dataclass(frozen=True)
class Epsilon:
    """Signed distance of 2N/l from the nearest even integer, in (-1, 1].

    Stored exactly as exact_numerator / exact_denominator with the
    denominator equal to l.  The value is 0 precisely when l divides N;
    classification code must use is_zero for that test, never the float.
    """

    exact_numerator: int
    exact_denominator: int

    def __post_init__(self) -> None:
        if self.exact_denominator < 1:
            raise ValueError("epsilon denominator must be positive")
        # numerator is 2t or 2t - 2l for t = N mod l, hence within (-l, l] doubled
        if not -2 * self.exact_denominator < self.exact_numerator <= 2 * self.exact_denominator:
            raise ValueError("epsilon numerator out of range")

    @property
    def value(self) -> float:
        return self.exact_numerator / self.exact_denominator

    @property
    def is_zero(self) -> bool:
        return self.exact_numerator == 0

    @property
    def magnitude(self) -> float:
        return abs(self.exact_numerator) / self.exact_denominator


def phase_fraction(m: int, n: int, N: int, l: int) -> PhaseFraction:
    """Exact fractional part of m**n * N / l.

    Computed as ((m**n mod l) * (N mod l)) mod l over l.  The full-width
    product m**n * N is never formed; for the 17-digit inputs this package
    targets, a 5th-order term would otherwise exceed 10**70.
    """
    _check_trial(l)
    _check_order(n)
    if m < 0:
        raise ValueError(f"term index must be >= 0, got {m}")
    if N < 0:
        raise ValueError(f"N must be >= 0, got {N}")
    return PhaseFraction((pow(m, n, l) * (N % l)) % l, l)


def epsilon(N: int, l: int) -> Epsilon:
    """Fractional part of 2N/l relative to the nearest even integer.

    With t = N mod l the result is 2t/l when 2t <= l and 2t/l - 2 otherwise,
    so it lies in (-1, 1].  The tie 2t = l maps to +1; sum magnitudes are
    even in epsilon, so the side chosen is observationally irrelevant but
    fixing it keeps results deterministic.
    """
    _check_trial(l)
    if N < 0:
        raise ValueError(f"N must be >= 0, got {N}")
    t = N % l
    if 2 * t <= l:
        return Epsilon(2 * t, l)
    return Epsilon(2 * t - 2 * l, l)


def is_factor(N: int, l: int) -> bool:
    """True iff l divides N."""
    _check_trial(l)
    if N < 0:
        raise ValueError(f"N must be >= 0, got {N}")
    return N % l == 0


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n >= 1: 1, -1, or 0 when gcd(a, n) > 1.

    Exact, in O(log n) steps: strip the factors of 2 from a by the second
    supplement, then swap a and n by quadratic reciprocity.
    """
    if n < 1 or n % 2 == 0:
        raise ValueError(f"Jacobi symbol needs odd n >= 1, got {n}")
    a %= n
    sign = 1
    while a:
        while not a & 1:
            a >>= 1
            if n & 7 in (3, 5):  # (2/n) = -1
                sign = -sign
        if a & n & 2:  # a = n = 3 mod 4
            sign = -sign
        a, n = n % a, a
    return sign if n == 1 else 0


# Increments between consecutive integers coprime to 2*3*5*7, starting at 11.
_WHEEL = (
    2, 4, 2, 4, 6, 2, 6, 4, 2, 4, 6, 6, 2, 6, 4, 2, 6, 4, 6, 8, 4, 2, 4, 2,
    4, 8, 6, 4, 6, 2, 4, 6, 2, 6, 6, 4, 2, 4, 6, 2, 6, 4, 2, 4, 2, 10, 2, 10,
)


def brute_force_factorize(N: int) -> list[int]:
    """Prime factors of N with multiplicity, by wheel trial division.

    Intended as a slow, obviously-correct oracle for testing the sum-based
    procedures; practical up to roughly 18-digit N.
    """
    if N < 2:
        raise ValueError(f"need N >= 2 to factorize, got {N}")
    factors: list[int] = []
    for p in (2, 3, 5, 7):
        while N % p == 0:
            factors.append(p)
            N //= p
    d = 11
    i = 0
    while d * d <= N:
        if N % d == 0:
            factors.append(d)
            N //= d
        else:
            d += _WHEEL[i]
            i = (i + 1) % len(_WHEEL)
    if N > 1:
        factors.append(N)
    return factors
