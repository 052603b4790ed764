"""Sum evaluation: hand values, the curlicue identity, and normalization."""
import cmath
import math
import random
import re
import statistics
import time
import timeit
import weakref
from itertools import islice
from math import fsum

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import complete_sum_by_terms

import gaussfactor.sums as sums
from gaussfactor import (
    COMPLETE_SUM_CAP,
    Complete,
    FullTruncation,
    Randomized,
    SumSpec,
    SumValue,
    classify,
    complete_gauss_sum,
    curlicue,
    curlicue_equivalence_check,
    curlicue_phase,
    epsilon,
    evaluate,
    iter_curlicue_magnitudes,
    randomized_sum,
    residue_magnitudes,
    scan_window,
    truncated_sum,
)

N12 = 1689259081189
ROOT_HALF = math.sqrt(0.5)


def naive_truncated(N: int, l: int, n: int, M: int) -> complex:
    """Full-width naive route, trustworthy only while m**n * N stays exact."""
    acc = sum(cmath.exp(2j * math.pi * ((m**n * N) % l) / l) for m in range(M + 1))
    return acc / (M + 1)


def exact_curlicue(N: int, l: int, n: int, M: int) -> tuple[float, float]:
    # same mean, but phased through the exact fraction of epsilon(N, l)
    e = epsilon(N, l)
    p, q = e.exact_numerator, e.exact_denominator
    re = fsum(math.cos(curlicue_phase(m, n, p, q)) for m in range(M + 1))
    im = fsum(math.sin(curlicue_phase(m, n, p, q)) for m in range(M + 1))
    return re / (M + 1), im / (M + 1)


class TestCompleteSum:
    def test_factor_gives_exact_unity(self):
        v = complete_gauss_sum(15, 3)
        assert v.real_part == 1.0
        assert v.imag_part == 0.0
        assert v.term_count == 3

    def test_15_mod_4_by_hand(self):
        # m*m*15 mod 4 cycles 0,3,0,3 so the sum is (1 - i + 1 - i)/4
        v = complete_gauss_sum(15, 4)
        assert v.real_part == pytest.approx(0.5, abs=1e-15)
        assert v.imag_part == pytest.approx(-0.5, abs=1e-15)
        assert v.magnitude == pytest.approx(ROOT_HALF, abs=1e-12)

    def test_odd_prime_nonfactor_has_root_l_modulus(self):
        v = complete_gauss_sum(15, 7)
        assert v.magnitude == pytest.approx(1 / math.sqrt(7), abs=1e-12)

    def test_cap_refuses_unless_forced(self, monkeypatch):
        # the cap guards the l-pulse train of Complete.terms; the closed
        # form costs O(log l) and takes any l
        monkeypatch.setattr(sums, "COMPLETE_SUM_CAP", 50)
        assert Complete().terms(50) == range(50)
        with pytest.raises(ValueError, match="cap"):
            Complete().terms(51)
        v = complete_gauss_sum(102, 51)
        assert v.magnitude == pytest.approx(1.0, abs=1e-12)


class TestClosedFormCompleteSum:
    def test_every_residue_below_2000_matches_an_fft_oracle(self):
        # the mean of e(t m^2 / l) over m < l is the inverse DFT, at t, of
        # how often each residue m^2 mod l occurs
        for l in range(1, 2000):
            m = np.arange(l, dtype=np.int64)
            want = np.fft.ifft(np.bincount(m * m % l, minlength=l))
            got = np.array([sums._complete_mean(t, l) for t in range(l)]) @ [1, 1j]
            assert np.abs(got - want).max() <= 1e-12, l

    def test_every_residue_below_120_matches_the_sum_by_terms(self):
        for l in range(1, 120):
            for t in range(l):
                for N in (t, t + 10**15 * l):
                    v = complete_gauss_sum(N, l)
                    w = complete_sum_by_terms(N, l)
                    assert v.term_count == w.term_count == l
                    assert abs(v.real_part - w.real_part) <= 1e-12, (N, l)
                    assert abs(v.imag_part - w.imag_part) <= 1e-12, (N, l)

    def test_every_residue_below_120_keeps_its_class(self):
        # FullTruncation(l - 1) takes the same m = 0..l-1 term by term, so
        # threshold cases like (15, 4), at exactly 1/sqrt(2), must agree too
        for l in range(2, 120):
            for t in range(l):
                closed = classify(t, l, SumSpec(Complete()))
                by_terms = classify(t, l, SumSpec(FullTruncation(l - 1)))
                assert closed.trial_class == by_terms.trial_class, (t, l)

    @pytest.mark.parametrize(
        "l", [1299709, 1299701, 1299711, 1299718, 1299716],
        ids=["factor", "c=1mod4", "c=3mod4", "c=2mod4", "c=0mod4"],
    )
    def test_each_branch_at_twelve_digits(self, l):
        # c = l / gcd(N mod l, l) picks the branch
        m = np.arange(l, dtype=np.int64)
        want = np.exp(2j * np.pi * ((m * m % l) * (N12 % l) % l / l)).mean()
        v = complete_gauss_sum(N12, l)
        assert abs(complex(v.real_part, v.imag_part) - want) <= 1e-12

    def test_runs_in_well_under_a_millisecond(self):
        # the term-by-term loop took about 0.5 s at this l
        for l in (1299711, COMPLETE_SUM_CAP - 1):
            best = min(timeit.repeat(lambda: complete_gauss_sum(N12, l), number=1, repeat=5))
            assert best < 1e-3


class TestCurlicue:
    def test_zero_epsilon_is_unity(self):
        v = curlicue(0.0, 2, 100)
        assert (v.real_part, v.imag_part) == (1.0, 0.0)

    def test_half_epsilon_odd_truncation(self):
        # quarter-period phases alternate 1, i in equal counts
        v = curlicue(0.5, 2, 99)
        assert v.real_part == pytest.approx(0.5, abs=1e-12)
        assert v.imag_part == pytest.approx(0.5, abs=1e-12)
        assert v.magnitude == pytest.approx(ROOT_HALF, abs=1e-12)

    def test_unit_epsilon_odd_truncation_cancels(self):
        assert curlicue(1.0, 2, 99).magnitude < 1e-12

    def test_headline_decay_values(self):
        assert curlicue(4e-5, 2, 20).magnitude > 0.99
        assert curlicue(4e-5, 2, 200).magnitude == pytest.approx(0.3155, abs=1e-3)
        assert curlicue(4e-5, 2, 1000).magnitude == pytest.approx(0.0770, abs=1e-3)

    def test_conjugate_symmetry(self):
        for eps in (4e-5, 0.3, 0.9999, 1e-8):
            a = curlicue(eps, 2, 500)
            b = curlicue(-eps, 2, 500)
            assert a.real_part == pytest.approx(b.real_part, abs=1e-12)
            assert a.imag_part == pytest.approx(-b.imag_part, abs=1e-12)

    def test_period_two_exact_on_dyadic_epsilon(self):
        # eps and eps + 2 are both exact dyadic floats, so the reduced
        # phases coincide bit for bit and so do the sums
        for k in (1, 2, 3, 5, 513, 2**19, 2**20):
            eps = k / 2**20
            a = curlicue(eps, 2, 137)
            b = curlicue(eps + 2.0, 2, 137)
            assert (a.real_part, a.imag_part) == (b.real_part, b.imag_part)

    @pytest.mark.parametrize(
        "eps", [4e-5, -4e-5, 0.3, -0.9999, 1.0, 1e-300, 5e-324, -5e-324]
    )
    def test_kernel_phases_match_the_reference_bit_for_bit(self, eps):
        p, q = eps.as_integer_ratio()
        ms = [*range(50), *random.Random(3).sample(range(10**12), 50)]
        for n in range(2, 7):
            got = np.concatenate(list(sums._curlicue_phases(eps, n, ms))).tolist()
            assert got == [curlicue_phase(m, n, p, q) for m in ms]

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            curlicue(float("nan"), 2, 10)
        with pytest.raises(ValueError):
            curlicue(float("inf"), 2, 10)
        with pytest.raises(ValueError):
            curlicue(0.5, 1, 10)
        with pytest.raises(ValueError):
            curlicue(0.5, 2, -1)

    @given(
        eps=st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
        n=st.integers(min_value=2, max_value=6),
        M=st.integers(min_value=0, max_value=400),
    )
    @settings(max_examples=150, deadline=None)
    def test_normalized_magnitude_never_exceeds_one(self, eps, n, M):
        assert curlicue(eps, n, M).magnitude <= 1.0 + 1e-9

    def test_iterator_matches_one_shot(self):
        want = {M: curlicue(4e-5, 2, M).magnitude for M in (0, 20, 200, 1000)}
        for M, mag in iter_curlicue_magnitudes(4e-5, 2):
            if M in want:
                assert mag == pytest.approx(want[M], abs=1e-12)
            if M >= 1000:
                break


class TestTruncatedSum:
    def test_factor_is_exactly_one(self):
        v = truncated_sum(N12, 1299709, 2, 19)
        assert (v.real_part, v.imag_part, v.term_count) == (1.0, 0.0, 20)

    def test_matches_full_width_naive_route(self):
        rng = random.Random(11)
        for _ in range(40):
            N = rng.randrange(0, 10**6)
            l = rng.randrange(2, 10**4)
            n = rng.randrange(2, 5)
            M = rng.randrange(0, 60)
            got = truncated_sum(N, l, n, M)
            want = naive_truncated(N, l, n, M)
            assert got.real_part == pytest.approx(want.real, abs=1e-12)
            assert got.imag_part == pytest.approx(want.imag, abs=1e-12)

    def test_matches_exact_fraction_curlicue_bit_for_bit(self):
        # the two phase reductions round identically, so the identity
        # between the truncated sum and the curlicue of epsilon is exact
        # here, at every order, not merely within tolerance
        rng = random.Random(5)
        for _ in range(120):
            N = rng.randrange(0, 10**18)
            l = rng.randrange(2, 10**7)
            n = rng.randrange(2, 7)
            M = rng.randrange(0, 200)
            d = truncated_sum(N, l, n, M)
            assert exact_curlicue(N, l, n, M) == (d.real_part, d.imag_part)

    def test_rejects_negative_truncation(self):
        with pytest.raises(ValueError):
            truncated_sum(15, 4, 2, -1)


class TestEquivalenceCheck:
    @pytest.mark.parametrize(
        "N,l,M",
        [(15, 4, 50), (N12, 1299713, 19), (10**6 + 3, 997, 100)],
    )
    def test_examples_agree(self, N, l, M):
        assert curlicue_equivalence_check(N, l, 2, M)

    @given(
        N=st.integers(min_value=0, max_value=10**18),
        l=st.integers(min_value=2, max_value=10**6),
        M=st.integers(min_value=0, max_value=600),
    )
    @settings(max_examples=150, deadline=None)
    def test_always_agrees_at_order_two(self, N, l, M):
        assert curlicue_equivalence_check(N, l, 2, M)

    def test_other_orders_rejected(self):
        with pytest.raises(ValueError):
            curlicue_equivalence_check(15, 4, 3, 50)


class TestRandomizedSum:
    def test_bit_identical_across_calls(self):
        a = randomized_sum(N12, 1299711, 2, 10, 1000, 42)
        b = randomized_sum(N12, 1299711, 2, 10, 1000, 42)
        assert a == b

    def test_factor_exact_unity_any_seed(self):
        for seed in (0, 1, 999):
            v = randomized_sum(N12, 1299709, 2, 10, 1000, seed)
            assert (v.real_part, v.imag_part) == (1.0, 0.0)

    def test_small_epsilon_nonfactor_typically_suppressed(self):
        # 7000041 = 7 * 1000003 + 20, so epsilon is 40/1000003 ~ 4e-5;
        # ten random terms up to 1000 land well under the one a short
        # full truncation would give (|s_20| > 0.99)
        e = epsilon(7000041, 1000003)
        assert (e.exact_numerator, e.exact_denominator) == (40, 1000003)
        mags = [
            randomized_sum(7000041, 1000003, 2, 10, 1000, s).magnitude
            for s in range(1000)
        ]
        assert statistics.median(mags) < 0.35

    def test_count_must_fit(self):
        with pytest.raises(ValueError):
            randomized_sum(15, 4, 2, 12, 10, 0)


class TestResidueMagnitudes:
    def test_matches_scalar_evaluation(self):
        for l, n, M in [(97, 2, 5), (101, 3, 12), (9999, 2, 5)]:
            bulk = residue_magnitudes(l, n, M)
            assert len(bulk) == l
            for t in range(0, l, max(1, l // 17)):
                want = truncated_sum(t, l, n, M).magnitude
                assert bulk[t] == pytest.approx(want, abs=1e-12)

    def test_bits_match_the_direct_sweep(self):
        # phases as tau * (r / l), written out apart from the kernel
        def direct(l, n, M):
            t = np.arange(l, dtype=np.int64)
            acc_re, acc_im = np.zeros(l), np.zeros(l)
            for m in range(M + 1):
                ph = math.tau * (((pow(m, n, l) * t) % l) / l)
                acc_re += np.cos(ph)
                acc_im += np.sin(ph)
            return np.hypot(acc_re, acc_im) / (M + 1)

        for l in (1, 2, 97, 360, 4999):
            for n in (2, 3, 6):
                for M in (0, 1, 19, 39):
                    got = residue_magnitudes(l, n, M)
                    assert got.tobytes() == direct(l, n, M).tobytes(), (l, n, M)

    def test_factor_residue_is_unity(self):
        bulk = residue_magnitudes(360, 2, 7)
        assert bulk[0] == pytest.approx(1.0, abs=1e-12)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            residue_magnitudes(0, 2, 5)
        with pytest.raises(ValueError):
            residue_magnitudes(97, 1, 5)
        with pytest.raises(ValueError):
            residue_magnitudes(97, 2, -1)
        with pytest.raises(ValueError):
            residue_magnitudes(10**9 + 1, 2, 5)


class TestResiduePhases:
    @pytest.mark.parametrize(
        "N, l, n, message",
        [
            (5, 0, 2, "trial factor must be >= 1, got 0"),
            (5, 7, 1, "sum order must be >= 2, got 1"),
            (-1, 7, 2, "N must be >= 0, got -1"),
        ],
    )
    def test_checks_before_the_first_phase(self, N, l, n, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            sums._residue_phases(N, l, n, range(3))


def scalar_mean(N: int, l: int, n: int, ms) -> SumValue:
    """One row the scalar way: _phases, math.cos and math.sin, fsum."""
    ph = list(sums._phases(2 * (N % l), l, n, ms))
    count = len(ms)
    return SumValue(fsum(map(math.cos, ph)) / count, fsum(map(math.sin, ph)) / count, count)


def residue_means(N: int, ls, n: int, ms):
    """The batched kernel's one-shot sums, normalized as evaluate_many normalizes them."""
    for _, res, ims in sums._residue_sums(N, ls, n, ms):
        yield from (SumValue(re / len(ms), im / len(ms), len(ms)) for re, im in zip(res, ims))


def bits(value: SumValue) -> tuple[str, str, int]:
    # float.hex tells -0.0 from 0.0, which == does not
    return value.real_part.hex(), value.imag_part.hex(), value.term_count


BOUND = 2**32  # the kernel's uint64 bound on l
trial_factors = st.one_of(
    st.integers(1, 2**12),
    st.integers(BOUND - 2**10, BOUND + 2**10),
    st.integers(2, 2**70),
)


class TestBatchedKernel:
    @given(
        N=st.integers(0, 2**80),
        ls=st.lists(trial_factors, min_size=1, max_size=6),
        n=st.one_of(st.integers(2, 12), st.integers(2, 10**6 + 3)),
        ms=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=30),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_the_scalar_path_bit_for_bit(self, N, ls, n, ms):
        values = list(residue_means(N, ls, n, ms))
        assert [bits(v) for v in values] == [bits(scalar_mean(N, l, n, ms)) for l in ls]
        small = [l for l in ls if l < BOUND]
        if small:
            residues = sums._uint64_residues([N % l for l in small], small, n, ms).tolist()
            assert residues == [[pow(m, n, l) * (N % l) % l for m in ms] for l in small]
            phases = sums._uint64_phases([N % l for l in small], small, n, ms).tolist()
            assert phases == [list(sums._residue_phases(N, l, n, ms)) for l in small]
        large = [l for l in ls if l >= BOUND]
        if large:
            phases = sums._bigint_phases([N % l for l in large], large, n, ms).tolist()
            assert phases == [list(sums._residue_phases(N, l, n, ms)) for l in large]

    @pytest.mark.parametrize(
        "l", [2, 3, 1299711, BOUND - 1, BOUND, BOUND + 1, 2**64 + 13]
    )
    def test_edges_match_the_scalar_path(self, l):
        draws = Randomized(25, 2**64 - 1, 9).terms(l)
        cases = [
            (range(1), 2),  # M = 0
            (range(max(0, l - 5), l + 35), 3),  # m on both sides of l
            ((0, 1, 2**63, 2**64 - 2, 2**64 - 1), 2),
            (draws, 5),
            (range(40), 10**6 + 3),
        ]
        for ms, n in cases:
            got = next(residue_means(N12, (l,), n, ms))
            assert bits(got) == bits(scalar_mean(N12, l, n, ms)), (ms, n)

    def test_selection_depends_on_l_alone(self):
        # a run of l across the bound, in and out of order
        ls = [BOUND - 2, BOUND + 1, BOUND - 1, BOUND, 7, BOUND + 5]
        ms = range(30)
        got = list(residue_means(N12, ls, 3, ms))
        assert [bits(v) for v in got] == [bits(scalar_mean(N12, l, 3, ms)) for l in ls]

    def test_long_rows_are_split_along_m(self):
        # at l = 2**61 - 1 and N = 2**61 the exact-int path gives sin terms
        # below 2**-55, which the sum takes in extra limbs
        M = 2 * sums._WALK_TERMS + 5
        for N, l in ((N12, 1299711), (N12, BOUND + 3), (2**61, 2**61 - 1)):
            got = list(residue_means(N, [l, l + 2], 2, range(M + 1)))
            want = [scalar_mean(N, x, 2, range(M + 1)) for x in (l, l + 2)]
            assert [bits(v) for v in got] == [bits(v) for v in want]

    def test_one_shot_sums_drain_the_walk_a_block_at_a_time(self, monkeypatch):
        # a row read as the last prefix of its walk keeps the block being
        # summed and the one before it alive, never the whole walk
        refs = []
        alive = []

        def spy(blocks, real=sums._summed):
            for block in real(blocks):
                refs.append(weakref.ref(block))
                alive.append(sum(ref() is not None for ref in refs))
                yield block
                del block

        monkeypatch.setattr(sums, "_summed", spy)
        M = 3 * sums._WALK_TERMS
        got = next(residue_means(N12, [1299711], 2, range(M + 1)))
        assert bits(got) == bits(scalar_mean(N12, 1299711, 2, range(M + 1)))
        assert len(refs) >= 3 and max(alive) <= 2
        refs.clear()
        alive.clear()
        curlicue(1e-12, 2, M)
        assert len(refs) >= 3 and max(alive) <= 2

    def test_blocks_hold_at_most_block_terms(self, monkeypatch):
        sizes = []
        for name in ("_uint64_phases", "_bigint_phases"):
            def spy(ts, ls, n, ms, real=getattr(sums, name)):
                sizes.append(len(ls) * len(ms))
                return real(ts, ls, n, ms)

            monkeypatch.setattr(sums, name, spy)
        for l in (1299711, BOUND + 3):
            list(residue_means(N12, range(l, l + 2000), 2, range(20)))
            next(residue_means(N12, [l], 2, range(2 * sums._WALK_TERMS + 6)))
        assert sizes and max(sizes) <= sums._WALK_TERMS

    def test_order_near_a_million_costs_log_n_steps(self):
        # square-and-multiply takes about 40 array steps here; a loop of
        # n - 1 multiplications takes a million and many seconds
        ls, ms, n = range(1299699, 1299732), range(200), 10**6 + 3
        start = time.perf_counter()
        residues = sums._uint64_residues([N12 % l for l in ls], ls, n, ms)
        elapsed = time.perf_counter() - start
        assert residues.tolist() == [[pow(m, n, l) * (N12 % l) % l for m in ms] for l in ls]
        assert elapsed < 0.5

    def test_numpy_trig_matches_math_bit_for_bit(self):
        # the kernel takes np.cos and np.sin where the scalar path takes
        # math.cos and math.sin; on a build where they round differently,
        # the kernel's sums lose their bit-identity with the scalar path
        ls = range(1289709, 1309709)
        kernel = sums._uint64_phases([N12 % l for l in ls], ls, 2, range(20)).ravel()
        uniform = np.random.default_rng(0).uniform(0.0, 2 * math.pi, 200_000)
        for phases in (kernel, uniform):
            listed = phases.tolist()
            assert np.cos(phases).tolist() == list(map(math.cos, listed))
            assert np.sin(phases).tolist() == list(map(math.sin, listed))

    @pytest.mark.parametrize("width", ["block", "block + 1"])
    def test_windows_at_the_block_width_match_per_l_classify(self, width):
        spec = SumSpec(FullTruncation(19))
        rows = sums._WALK_TERMS // 20 + (width == "block + 1")
        lo = 1299709 - rows // 2
        got = scan_window(N12, lo, lo + rows - 1, spec)
        want = [classify(N12, l, spec) for l in range(lo, lo + rows)]
        assert got == want
        assert [bits(r.value) for r in got] == [bits(r.value) for r in want]

    @pytest.mark.parametrize(
        "N, ls, n, message",
        [
            (5, [3, 0], 2, "trial factor must be >= 1, got 0"),
            (5, [7], 1, "sum order must be >= 2, got 1"),
            (-1, [7], 2, "N must be >= 0, got -1"),
        ],
    )
    def test_checks_before_the_first_block(self, N, ls, n, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            next(residue_means(N, ls, n, range(3)))


def hexes(values) -> list[str]:
    return [x.hex() for x in values]


def reference_curlicue_phases(eps: float, n: int, ms) -> list[str]:
    p, q = eps.as_integer_ratio()
    return hexes(curlicue_phase(m, n, p, q) for m in ms)


def blocked_curlicue_phases(eps: float, n: int, ms) -> list[str]:
    return hexes(np.concatenate(list(sums._curlicue_phases(eps, n, ms))).tolist())


def lockstep_partials(N: int, ls, n: int, ms) -> list[list[tuple[float, float]]]:
    """The lockstep walks' correctly rounded partial sums, one list per l."""
    rows = []
    for block in sums._walk(sums._lockstep_phases(N, ls, n, ms)):
        rows += [[block.rounded(i, c) for c in range(len(ls))] for i in range(block.size)]
    return [list(walk) for walk in zip(*rows)]


def fsum_prefixes(terms) -> list[float]:
    """fsum of every prefix of terms, written out apart from the package."""
    terms = list(terms)
    return [fsum(terms[:M + 1]) for M in range(len(terms))]


# edges of the power-of-two residues eps = p / 2**k: subnormal and tiny
# eps, one limb (k < 64) and two (k < 128) on either side of their ends,
# with short and full mantissas, the ends of [-1, 1] and signed zeros
EDGE_EPSILONS = [
    5e-324, -5e-324, 1e-300, -1e-300, 1e-40, -1e-40, 2.0**-63, 2.0**-64, -(2.0**-64),
    2.0**-127, -(2.0**-127), 2.0**-128, math.ldexp(2**53 - 1, -127),
    -math.ldexp(2**53 - 1, -127), math.ldexp(2**53 - 1, -128), math.ldexp(2**53 - 1, -63),
    1.0, -1.0, math.nextafter(1.0, 0.0), 0.0, -0.0, 0.5, 1e-12, -1e-16, 4e-5,
]


@st.composite
def curlicue_walks(draw):
    """(eps, n, ms): m-sets straddling where m**n takes two limbs, seeded draws or any m."""
    eps = draw(st.one_of(st.floats(-1.0, 1.0), st.sampled_from(EDGE_EPSILONS)))
    n = draw(st.integers(2, 6))
    # m**n passes 2**64 near the first; from the second on, the bit length
    # of m no longer bounds m**n below 2**64
    root = int(2 ** (64 / n))
    centre = draw(st.sampled_from([root, 2 ** (64 // n)])) + draw(st.integers(-50, 50))
    width = draw(st.integers(1, 120))
    ms = draw(st.one_of(
        st.just(range(max(0, centre - width), centre + width)),
        st.builds(
            lambda count, m_max, seed: Randomized(count, m_max, seed).terms(0),
            st.integers(1, 30), st.integers(30, 2**64 - 1), st.integers(0, 2**64 - 1),
        ),
        st.lists(st.integers(0, 2 * root), min_size=1, max_size=60),
        # past 2**64, where a block takes the exact path
        st.lists(st.integers(-1, 2**66), min_size=1, max_size=60),
    ))
    return eps, n, ms


class TestBlockedWalks:
    @given(curlicue_walks())
    @settings(derandomize=True, max_examples=300, deadline=None)
    def test_phases_match_the_reference_bit_for_bit(self, walk):
        eps, n, ms = walk
        assert blocked_curlicue_phases(eps, n, ms) == reference_curlicue_phases(eps, n, ms)

    def test_near_midpoint_epsilons_match_the_reference(self):
        # eps next to -2**-53 / m**2 puts m**2 * eps just above -2**-53,
        # where 2 + m**2 * eps lies next to a midpoint of the grid near 2
        for m in range(2, 300):
            eps = 2.0**-53 / m**2
            for _ in range(5):
                ms = [m, m + 1, 0]
                assert blocked_curlicue_phases(-eps, 2, ms) == reference_curlicue_phases(-eps, 2, ms)
                eps = math.nextafter(eps, 1.0)

    def test_walks_straddling_the_bound_at_order_four(self):
        # m**4 crosses 2**53 at m = 9741, inside the walk of the
        # suppression --epsilon 1e-16 --order 4 run, and 2**64 at m = 65536,
        # where the power takes two limbs
        for ms in (range(9000, 10500), range(65000, 66500)):
            for eps in (1e-16, -1e-16, 0.3, -0.7):
                assert blocked_curlicue_phases(eps, 4, ms) == reference_curlicue_phases(eps, 4, ms)

    @pytest.mark.parametrize("n", [53, 64, 65, 1000003, 2**64])
    def test_large_orders_match_the_exact_path(self, n):
        # the CLI takes any order; past 64 no power of m >= 2 fits one limb
        rng = random.Random(n)
        ms = [*range(40), *(rng.getrandbits(64) for _ in range(20))]
        for eps in (0.01, 1e-12, -1e-18, 2.0**-127):
            p, q = eps.as_integer_ratio()
            assert blocked_curlicue_phases(eps, n, ms) == hexes(sums._phases(p, q, n, ms))

    def test_residue_limbs_and_their_floats_match_python_ints(self):
        rng = random.Random(11)
        a = [rng.getrandbits(rng.randint(0, 64)) for _ in range(2000)] + [0, 2**64 - 1]
        b = [rng.getrandbits(rng.randint(0, 64)) for _ in range(2000)] + [2**64 - 1, 0]
        high, low = sums._mul64(np.array(a, np.uint64), np.array(b, np.uint64))
        assert [(h << 64) + l for h, l in zip(high.tolist(), low.tolist())] == [
            x * y for x, y in zip(a, b)
        ]
        # (high, low) pairs of 128-bit values
        x, y = (a[:1000], a[1000:2000]), (b[:1000], b[1000:2000])
        high, low = sums._mul128(*[tuple(np.array(limb, np.uint64) for limb in v) for v in (x, y)])
        assert [(h << 64) + l for h, l in zip(high.tolist(), low.tolist())] == [
            ((xh << 64) + xl) * ((yh << 64) + yl) % 2**128 for xh, xl, yh, yl in zip(*x, *y)
        ]
        # round to nearest, ties to even, from values with long runs of
        # zeros or ones below the rounding position
        values = [rng.getrandbits(rng.randint(0, 128)) for _ in range(3000)]
        ties = [(2**53 + 1) << s for s in range(75)] + [(2**54 - 1) << s for s in range(75)]
        values += ties + [tie + 1 for tie in ties] + [tie - 1 for tie in ties] + [2**128 - 1]
        for k in (0, 63, 64, 127, 1022):
            floats = sums._dyadic_floats(
                np.array([v >> 64 for v in values], np.uint64),
                np.array([v & (2**64 - 1) for v in values], np.uint64), k,
            )
            assert hexes(floats.tolist()) == hexes(v / 2**k for v in values)

    def test_uint64_shifts_by_64_give_zero(self):
        # _dyadic_floats shifts by 64 - s and by s, for s from 0 to 64
        ones = np.full(3, 2**64 - 1, np.uint64)
        by = np.array([64, 0, 64], np.uint64)
        assert (ones << by).tolist() == [0, 2**64 - 1, 0]
        assert (ones >> by).tolist() == [0, 2**64 - 1, 0]

    def test_walk_blocks_hold_walk_terms(self):
        # the first block holds 32 terms, and each next one twice as many
        # up to _WALK_TERMS
        sizes = [len(b) for b in islice(sums._curlicue_phases(1e-12, 2, range(2**64)), 10)]
        assert sizes == [32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 8192]
        assert sums._WALK_TERMS == 8192
        ms = range(32 + 64 + 1)
        assert [len(b) for b in sums._curlicue_phases(1e-12, 2, ms)] == [32, 64, 1]

    def test_numpy_trig_matches_math_on_curlicue_phases(self):
        # walks take np.cos and np.sin where the per-term walk took
        # math.cos and math.sin; tiny eps give tiny phases
        walks = [(1e-12, 2, 200_000), (4e-5, 2, 2000), (1e-6, 5, 2000), (1e-300, 3, 2000),
                 (-1e-16, 4, 20_000), (0.7, 6, 2000)]
        for eps, n, M in walks:
            phases = np.concatenate(list(sums._curlicue_phases(eps, n, range(M + 1))))
            listed = phases.tolist()
            assert np.cos(phases).tolist() == list(map(math.cos, listed))
            assert np.sin(phases).tolist() == list(map(math.sin, listed))

    @pytest.mark.parametrize(
        "lo", [BOUND - 60, BOUND - 10, BOUND + 20], ids=["below", "across", "above"]
    )
    def test_lockstep_sums_match_each_walk_alone(self, lo):
        N, n, ms = 32193216510801043, 3, range(300)
        ls = [l for l in range(lo, lo + 40) if N % l]
        for l, walk in zip(ls, lockstep_partials(N, ls, n, ms)):
            ph = list(sums._residue_phases(N, l, n, ms))
            assert hexes(re for re, _ in walk) == hexes(fsum_prefixes(map(math.cos, ph)))
            assert hexes(im for _, im in walk) == hexes(fsum_prefixes(map(math.sin, ph)))

    def test_lockstep_blocks_hold_at_most_block_terms(self):
        ls = range(1299000, 1300400)
        shapes = [b.shape for b in sums._lockstep_phases(N12, ls, 2, range(100))]
        assert shapes == [(5, 1400)] * 20
        assert 1400 * 5 <= sums._WALK_TERMS < 1400 * 6
        blocks = sums._walk(sums._lockstep_phases(N12, ls, 2, range(100)))
        assert [(b.size, b.walks) for b in blocks] == shapes

    def test_one_walk_streams_python_complex_terms(self):
        ms = range(3000)
        walk = list(sums._curlicue_walk(4e-5, 2, ms))
        assert len(walk) == 3000
        assert all(type(z) is complex and type(s) is complex for z, s in walk)
        p, q = (4e-5).as_integer_ratio()
        phases = [curlicue_phase(m, 2, p, q) for m in ms]
        assert hexes(z.real for z, _ in walk) == hexes(map(math.cos, phases))
        assert hexes(z.imag for z, _ in walk) == hexes(map(math.sin, phases))
        assert hexes(s.real for _, s in walk) == hexes(fsum_prefixes(map(math.cos, phases)))
        assert hexes(s.imag for _, s in walk) == hexes(fsum_prefixes(map(math.sin, phases)))

    @pytest.mark.parametrize("walk", ["one", "lockstep"])
    def test_exact_sums_carry_across_blocks(self, monkeypatch, walk):
        # blocks of 7 terms, and lockstep blocks of 2 rows, must sum as one
        # block does, to fsum of the terms: the exact totals carry from
        # block to block
        N, ls, ms = 32193216510801043, [BOUND - 7, BOUND - 1, BOUND + 3], range(300)

        def partials():
            if walk == "one":
                return [[(s.real, s.imag)] for _, s in sums._curlicue_walk(4e-5, 2, ms)]
            # three walks, on both sides of 2**32
            phases = sums._lockstep_phases(N, ls, 3, ms)
            return [[b.rounded(i, c) for c in range(3)] for b in sums._walk(phases)
                    for i in range(b.size)]

        whole = partials()
        monkeypatch.setattr(sums, "_WALK_TERMS", 7)
        blocked = partials()
        assert len(whole) == len(blocked) == 300
        assert whole == blocked
        if walk == "one":
            p, q = (4e-5).as_integer_ratio()
            columns = [[curlicue_phase(m, 2, p, q) for m in ms]]
        else:
            columns = [list(sums._residue_phases(N, l, 3, ms)) for l in ls]
        for c, ph in enumerate(columns):
            assert hexes(row[c][0] for row in blocked) == hexes(fsum_prefixes(map(math.cos, ph)))
            assert hexes(row[c][1] for row in blocked) == hexes(fsum_prefixes(map(math.sin, ph)))


def fsum_at(terms: np.ndarray, M: int) -> tuple[str, str]:
    """fsum of the real and the imaginary parts of terms[:M + 1], by float.hex."""
    return fsum(terms[:M + 1].real.tolist()).hex(), fsum(terms[:M + 1].imag.tolist()).hex()


def walk_values(blocks, M: int, c: int = 0) -> tuple[str, str]:
    """Row M of walk c through _Block.rounded, by float.hex."""
    for block in blocks:
        if M < block.size:
            return tuple(x.hex() for x in block.rounded(M, c))
        M -= block.size
    raise IndexError(M)


# l on both sides of 2**32, where the phases change kernel path
LOCKSTEP_LS = [BOUND - 7, BOUND - 1, BOUND + 3]


class TestExactPrefixSums:
    """Each walk value is fsum of the terms before it, whatever the blocks."""

    @given(
        eps=st.one_of(st.floats(-1.0, 1.0), st.sampled_from(EDGE_EPSILONS)),
        n=st.integers(2, 6),
        Ms=st.lists(st.integers(0, 2999), min_size=1, max_size=5),
        blocked=st.booleans(),
    )
    @settings(derandomize=True, max_examples=60, deadline=None)
    def test_one_walk_equals_fsum(self, eps, n, Ms, blocked):
        # 3000 terms cross the 256-term sub-blocks and the growing blocks;
        # the blocked case cuts every block and sub-block down to 7 terms
        with pytest.MonkeyPatch.context() as mp:
            if blocked:
                mp.setattr(sums, "_WALK_TERMS", 7)
                mp.setattr(sums, "_SUB_TERMS", 7)
            ms = range(3000)
            walk = list(sums._curlicue_walk(eps, n, ms))
            blocks = list(sums._walk(sums._curlicue_phases(eps, n, ms)))
        p, q = eps.as_integer_ratio()
        phases = [curlicue_phase(m, n, p, q) for m in ms]
        terms = np.array([complex(math.cos(ph), math.sin(ph)) for ph in phases])
        for M in Ms:
            want = fsum_at(terms, M)
            assert (walk[M][1].real.hex(), walk[M][1].imag.hex()) == want
            assert walk_values(blocks, M) == want

    @given(
        n=st.integers(2, 5),
        Ms=st.lists(st.integers(0, 599), min_size=1, max_size=5),
        blocked=st.booleans(),
    )
    @settings(derandomize=True, max_examples=25, deadline=None)
    def test_lockstep_rows_equal_fsum(self, n, Ms, blocked):
        N, ms = 32193216510801043, range(600)
        with pytest.MonkeyPatch.context() as mp:
            if blocked:
                mp.setattr(sums, "_WALK_TERMS", 7)
                mp.setattr(sums, "_SUB_TERMS", 7)
            blocks = list(sums._walk(sums._lockstep_phases(N, LOCKSTEP_LS, n, ms)))
        for c, l in enumerate(LOCKSTEP_LS):
            phases = list(sums._residue_phases(N, l, n, ms))
            terms = np.array([complex(math.cos(ph), math.sin(ph)) for ph in phases])
            for M in Ms:
                assert walk_values(blocks, M, c) == fsum_at(terms, M)

    def test_subnormal_epsilon_takes_the_tiny_term_limbs(self):
        # sin of pi * m**2 * 5e-324 is subnormal: below 2**-55, so its
        # limbs run past 2**-107
        ms = range(1000)
        blocks = list(sums._walk(sums._curlicue_phases(5e-324, 2, ms)))
        assert all(len(b.limbs) > 2 for b in blocks)
        walk = list(sums._curlicue_walk(5e-324, 2, ms))
        p, q = (5e-324).as_integer_ratio()
        phases = [curlicue_phase(m, 2, p, q) for m in ms]
        terms = np.array([complex(math.cos(ph), math.sin(ph)) for ph in phases])
        assert 0 < abs(terms[1].imag) < 2.0**-55
        for M in (0, 1, 2, 255, 256, 999):
            assert (walk[M][1].real.hex(), walk[M][1].imag.hex()) == fsum_at(terms, M)
            assert walk_values(blocks, M) == fsum_at(terms, M)

    def test_lockstep_column_with_a_tiny_term(self):
        # at l = 2**61 - 1 and N = 2**61 the phase of m = 1 is 2*pi / l,
        # whose sine is below 2**-55 and has bits below 2**-107; the column
        # beside it stays ordinary
        N, ls, ms = 2**61, [1299711, 2**61 - 1], range(40)
        blocks = list(sums._walk(sums._lockstep_phases(N, ls, 2, ms)))
        assert len(blocks[0].limbs) > 2
        for c, l in enumerate(ls):
            phases = list(sums._residue_phases(N, l, 2, ms))
            terms = np.array([complex(math.cos(ph), math.sin(ph)) for ph in phases])
            if c == 1:
                assert 0 < abs(terms[1].imag) < 2.0**-55
            for M in range(len(ms)):
                assert walk_values(blocks, M, c) == fsum_at(terms, M)


class TestSpecAndValue:
    def test_evaluate_dispatches(self):
        full = evaluate(15, 4, SumSpec(FullTruncation(50)))
        assert full == truncated_sum(15, 4, 2, 50)
        comp = evaluate(15, 4, SumSpec(Complete()))
        assert comp == complete_gauss_sum(15, 4)
        rand = evaluate(15, 4, SumSpec(Randomized(3, 100, 7)))
        assert rand == randomized_sum(15, 4, 2, 3, 100, 7)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SumSpec(FullTruncation(10), order=1)
        with pytest.raises(ValueError):
            SumSpec(Complete(), order=3)
        with pytest.raises(ValueError):
            SumSpec("full")  # type: ignore[arg-type]
        with pytest.raises(ValueError):
            FullTruncation(-1)
        with pytest.raises(ValueError):
            Randomized(0, 10, 0)

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: truncated_sum(15, 4, 1, 3), "order must be >= 2, got 1"),
            (lambda: randomized_sum(15, 4, 1, 3, 10, 0), "order must be >= 2, got 1"),
            (lambda: SumSpec(Complete(), 3), "order must be 2 for the complete sum, got 3"),
        ],
        ids=["truncated", "randomized", "complete"],
    )
    def test_order_errors_name_the_field(self, call, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()

    def test_sum_value_guards(self):
        with pytest.raises(ValueError):
            SumValue(1.5, 0.0, 3)
        with pytest.raises(ValueError):
            SumValue(0.5, 0.0, 0)
        assert SumValue(0.6, 0.8, 2).magnitude == pytest.approx(1.0, abs=1e-15)
