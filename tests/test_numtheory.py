"""Exact-arithmetic foundations: phases, fractional parts, factor tests."""
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussfactor import (
    Epsilon,
    brute_force_factorize,
    epsilon,
    is_factor,
    phase_fraction,
)
from gaussfactor.numtheory import jacobi

N12 = 1689259081189
N12_FACTORS = (1299709, 1299721)
N17 = 32193216510801043
N17_FACTORS = (179424673, 179424691)


def full_width_phase_oracle(m: int, n: int, N: int, l: int) -> int:
    """Reference evaluation that forms m**n * N in full width first."""
    return (m**n * N) % l


def nearest_even_epsilon_oracle(N: int, l: int) -> Fraction:
    """Reference epsilon by exact search for the even integer within 1."""
    x = Fraction(2 * N, l)
    base = int(x) // 2
    for k in (base - 1, base, base + 1):
        d = x - 2 * k
        if -1 < d <= 1:
            return d
    raise AssertionError("no even integer within distance 1")


class TestPhaseFraction:
    def test_small_hand_case(self):
        fr = phase_fraction(1, 2, 15, 4)
        assert (fr.numerator, fr.denominator) == (3, 4)
        assert fr.as_real == 0.75

    def test_factor_gives_zero_residue(self):
        fr = phase_fraction(5, 2, N12, N12_FACTORS[0])
        assert fr.numerator == 0
        assert fr.is_zero

    def test_agrees_with_full_width_product(self):
        # the production path must never need the 10**70-digit intermediate
        m, n, l = 4999, 5, 179424689
        assert phase_fraction(m, n, N17, l).numerator == full_width_phase_oracle(
            m, n, N17, l
        )

    @given(
        m=st.integers(min_value=0, max_value=10**3),
        n=st.integers(min_value=2, max_value=6),
        N=st.integers(min_value=0, max_value=10**4),
        l=st.integers(min_value=1, max_value=10**4),
    )
    def test_matches_oracle_everywhere(self, m, n, N, l):
        fr = phase_fraction(m, n, N, l)
        assert fr.numerator == full_width_phase_oracle(m, n, N, l)
        assert fr.denominator == l
        assert 0 <= fr.as_real < 1

    @given(
        m=st.integers(min_value=0, max_value=10**6),
        n=st.integers(min_value=2, max_value=8),
        N=st.integers(min_value=0, max_value=10**18),
        l=st.integers(min_value=1, max_value=10**18),
    )
    @settings(max_examples=200)
    def test_matches_oracle_at_scale(self, m, n, N, l):
        assert phase_fraction(m, n, N, l).numerator == full_width_phase_oracle(
            m, n, N, l
        )

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            phase_fraction(1, 2, 15, 0)
        with pytest.raises(ValueError):
            phase_fraction(-1, 2, 15, 4)
        with pytest.raises(ValueError):
            phase_fraction(1, 1, 15, 4)
        with pytest.raises(ValueError):
            phase_fraction(1, 2, -15, 4)


class TestEpsilon:
    def test_factor_is_exact_zero(self):
        e = epsilon(15, 3)
        assert e.is_zero
        assert e.value == 0.0
        assert e.exact_numerator == 0

    def test_hand_case(self):
        e = epsilon(15, 4)
        assert e.value == -0.5
        assert (e.exact_numerator, e.exact_denominator) == (-2, 4)
        assert Fraction(e.exact_numerator, e.exact_denominator) == nearest_even_epsilon_oracle(15, 4)

    def test_half_integer_tie_maps_to_plus_one(self):
        # N = 6, l = 4: 2N/l = 3, exactly halfway between 2 and 4
        e = epsilon(6, 4)
        assert e.value == 1.0

    def test_twelve_digit_window_minimum(self):
        lo, hi = 1299699, 1299731
        vals = {
            l: epsilon(N12, l) for l in range(lo, hi + 1) if not is_factor(N12, l)
        }
        l_min = min(vals, key=lambda l: vals[l].magnitude)
        assert l_min == 1299720
        assert vals[l_min].magnitude == pytest.approx(1.693e-5, abs=0.002e-5)

    @given(
        N=st.integers(min_value=0, max_value=10**6),
        l=st.integers(min_value=1, max_value=10**4),
    )
    def test_matches_nearest_even_search(self, N, l):
        e = epsilon(N, l)
        assert -1 < e.value <= 1
        assert Fraction(e.exact_numerator, e.exact_denominator) == nearest_even_epsilon_oracle(N, l)
        # float view is the correctly rounded exact rational
        assert e.value == float(Fraction(e.exact_numerator, e.exact_denominator))

    @given(
        N=st.integers(min_value=0, max_value=10**9),
        l=st.integers(min_value=1, max_value=10**6),
    )
    def test_zero_iff_factor_and_periodic(self, N, l):
        e = epsilon(N, l)
        assert e.is_zero == is_factor(N, l)
        shifted = epsilon(N + l, l)
        assert (shifted.exact_numerator, shifted.exact_denominator) == (
            e.exact_numerator,
            e.exact_denominator,
        )

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            epsilon(15, 0)
        with pytest.raises(ValueError):
            epsilon(-1, 4)
        with pytest.raises(ValueError):
            Epsilon(9, 4)  # numerator beyond 2*denominator


class TestIsFactor:
    def test_known_factors(self):
        assert is_factor(N12, N12_FACTORS[0])
        assert is_factor(N12, N12_FACTORS[1])
        assert not is_factor(N12, 1299710)
        assert is_factor(N12, 1)

    def test_rejects_zero_divisor(self):
        with pytest.raises(ValueError):
            is_factor(10, 0)


def slow_is_prime(x: int) -> bool:
    """Trial-division primality, the reference for factorization results."""
    if x < 2:
        return False
    d = 2
    while d * d <= x:
        if x % d == 0:
            return False
        d += 1
    return True


class TestBruteForceFactorize:
    def test_small(self):
        assert brute_force_factorize(15) == [3, 5]
        assert brute_force_factorize(2) == [2]
        assert brute_force_factorize(1024) == [2] * 10

    def test_twelve_digit_target(self):
        assert brute_force_factorize(N12) == list(N12_FACTORS)

    def test_seventeen_digit_target(self):
        assert brute_force_factorize(N17) == list(N17_FACTORS)

    @given(N=st.integers(min_value=2, max_value=10**6))
    def test_factors_are_prime_and_multiply_back(self, N):
        fs = brute_force_factorize(N)
        prod = 1
        for f in fs:
            prod *= f
            assert slow_is_prime(f)
        assert prod == N

    def test_rejects_below_two(self):
        with pytest.raises(ValueError):
            brute_force_factorize(1)


class TestJacobi:
    def test_eulers_criterion_at_odd_primes_below_500(self):
        for p in filter(slow_is_prime, range(3, 500, 2)):
            for a in range(-p, 2 * p):
                euler = pow(a, (p - 1) // 2, p)
                assert jacobi(a, p) == (-1 if euler == p - 1 else euler), (a, p)

    def test_multiplicative_in_the_modulus(self):
        for n in range(1, 200, 2):
            for k in range(1, 60, 2):
                for a in (-7, 0, 2, 3, 10, 12345):
                    assert jacobi(a, n * k) == jacobi(a, n) * jacobi(a, k)

    def test_rejects_even_or_nonpositive_modulus(self):
        for n in (0, 2, 10, -3):
            with pytest.raises(ValueError, match="odd n >= 1"):
                jacobi(1, n)
