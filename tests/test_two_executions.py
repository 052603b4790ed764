"""A kernel call gives the same bits in scalar Python as in numpy blocks.

sums._SCALAR_TERMS decides which execution a call takes.  Each test runs
the same call with it at 0, so that every call runs in numpy blocks, at
its default, and so high that every call runs in scalar Python, and
compares the results by float.hex.
"""
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gaussfactor.spinsim as spinsim
import gaussfactor.sums as sums
from gaussfactor import (
    Complete,
    FullTruncation,
    Randomized,
    SumSpec,
    min_suppression_M,
    scaling_study,
)
from gaussfactor.ghost import GHOST_SLACK
from gaussfactor.sums import evaluate_many

N12 = 1689259081189  # 1299709 * 1299721
N17 = 32193216510801043
BOUND = 2**32  # where the numpy residues leave uint64 for exact ints
SIZES = (0, sums._SCALAR_TERMS, 10**18)


def each_execution(call):
    """call() once for each size in SIZES."""
    results = []
    for size in SIZES:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sums, "_SCALAR_TERMS", size)
            results.append(call())
    return results


def hexes(values) -> list[str]:
    return [float(x).hex() for x in values]


def same(results) -> bool:
    return all(result == results[0] for result in results[1:])


trial_factors = st.one_of(
    st.integers(2, 2**12),
    st.integers(BOUND - 2**10, BOUND + 2**10),
    st.integers(2, 2**70),
)
m_sets = st.one_of(
    st.integers(0, 400).map(lambda M: range(M + 1)),
    st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40),
)
# eps = p / 2**k near where the numpy phases take a second uint64 limb (k
# near 64) and leave them for exact ints (k near 128), and ordinary eps
epsilons = st.one_of(
    st.builds(
        lambda p, k, sign: sign * math.ldexp(p, -k),
        st.integers(1, 2**53 - 1), st.sampled_from([62, 63, 64, 65, 126, 127, 128, 129]),
        st.sampled_from([1, -1]),
    ),
    st.floats(-1.0, 1.0).filter(lambda eps: eps != 0),
    st.sampled_from([1e-4, 1e-5, -2e-6, 1e-6, 0.01, -0.3, 0.5, 1.0, 5e-324]),
)


class TestOneShotSums:
    @given(
        N=st.integers(0, 2**80),
        ls=st.lists(trial_factors, min_size=1, max_size=6),
        n=st.one_of(st.integers(2, 7), st.just(10**6 + 3)),
        ms=m_sets,
    )
    @settings(derandomize=True, max_examples=150, deadline=None)
    def test_residue_sums(self, N, ls, n, ms):
        def sums_of():
            runs = sums._residue_sums(N, ls, n, ms)
            return [(run, hexes(re), hexes(im)) for run, _, re, im in runs]

        assert same(each_execution(sums_of))

    @given(
        N=st.sampled_from([N12, N17, 2**61]),
        lo=st.one_of(st.integers(2, 10**7), st.integers(BOUND - 20, BOUND + 20)),
        width=st.integers(1, 40),
        count=st.integers(1, 30),
        seed=st.integers(0, 2**64 - 1),
        n=st.integers(2, 5),
    )
    @settings(derandomize=True, max_examples=60, deadline=None)
    def test_drawn_m_sets_up_to_2_64(self, N, lo, width, count, seed, n):
        spec = SumSpec(Randomized(count, 2**64 - 1, seed), n)

        def values():
            return [(v.real_part.hex(), v.imag_part.hex()) for v in
                    evaluate_many(N, range(lo, lo + width), spec)]

        assert same(each_execution(values))


class TestWalks:
    @given(eps=epsilons, n=st.integers(2, 6), M=st.integers(0, 600))
    @settings(derandomize=True, max_examples=120, deadline=None)
    def test_magnitudes_and_partial_sums(self, eps, n, M):
        def walk():
            ms = range(M + 1)
            partials = [(z.real.hex(), z.imag.hex(), s.real.hex(), s.imag.hex())
                        for z, s in sums._curlicue_walk(eps, n, ms)]
            total = sums.curlicue(eps, n, M)
            return hexes(sums._curlicue_magnitudes(eps, n, ms)), partials, hexes(
                (total.real_part, total.imag_part))

        assert same(each_execution(walk))

    @given(eps=epsilons, n=st.integers(2, 6), m_cap=st.integers(1, 2000))
    @settings(derandomize=True, max_examples=150, deadline=None)
    def test_required_M(self, eps, n, m_cap):
        assert same(each_execution(lambda: min_suppression_M(eps, n, m_cap=m_cap)))

    def test_bar_between_the_float_and_the_rounded_sums(self):
        # for eps = 1e-4, |s_M| falls through M = 5, where the float prefix
        # sums give a magnitude one ulp above the rounded sums'; a bar on
        # the rounded one makes M = 5 the answer, which only the rounded
        # sums give
        p, q = (1e-4).as_integer_ratio()
        phases = [math.pi * (m * m * p % (2 * q) / q) for m in range(6)]
        cos, sin = list(map(math.cos, phases)), list(map(math.sin, phases))
        bar = math.hypot(math.fsum(cos), math.fsum(sin)) / 6
        assert math.hypot(sum(cos), sum(sin)) / 6 > bar
        threshold = bar - GHOST_SLACK
        while threshold + GHOST_SLACK != bar:
            threshold = math.nextafter(threshold, bar if threshold + GHOST_SLACK < bar else 0.0)
        got = each_execution(lambda: min_suppression_M(1e-4, threshold=threshold, m_cap=50))
        assert got == [5] * len(SIZES)

    def test_caps_past_len(self):
        # m = 0..2**64 has no len(); each search still ends at its answer
        def required():
            return (min_suppression_M(1e-6, m_cap=2**64),
                    scaling_study([(10403, (2, 101))], 2, m_cap=2**64)[0].required_M)

        assert each_execution(required) == [(932, 9)] * len(SIZES)

    @given(
        N=st.sampled_from([10403, N12, N17]),
        lo=st.one_of(st.integers(2, 2000), st.integers(1299690, 1299720),
                     st.integers(BOUND - 10, BOUND + 10)),
        width=st.integers(1, 30),
        n=st.integers(2, 4),
        m_cap=st.integers(1, 400),
    )
    @settings(derandomize=True, max_examples=60, deadline=None)
    def test_lockstep_required_M(self, N, lo, width, n, m_cap):
        def required():
            return scaling_study([(N, (lo, lo + width - 1))], n, m_cap=m_cap)[0].required_M

        assert same(each_execution(required))


def readings(N, ls, spec, theta):
    return [tuple(map(float.hex, (r.mx, r.my, r.transverse_magnitude, r.normalized_signal)))
            for r in spinsim._readings(N, ls, spec, theta)]


class TestPulseTrains:
    @given(
        # a window of odd and even l, or one holding the factor 1299709
        lo=st.one_of(st.integers(2, 10**7), st.integers(1299700, 1299709),
                     st.integers(BOUND - 8, BOUND + 8)),
        width=st.integers(1, 8),
        M=st.integers(0, 80),
        n=st.integers(2, 5),
        drawn=st.booleans(),
    )
    @settings(derandomize=True, max_examples=80, deadline=None)
    def test_lockstep_trains(self, lo, width, M, n, drawn):
        strategy = Randomized(M + 1, 2**64 - 1, lo) if drawn else FullTruncation(M)
        spec, theta = SumSpec(strategy, n), 0.4 / (M + 1)
        ls = range(lo, lo + width)
        assert same(each_execution(lambda: readings(N12, ls, spec, theta)))

    @pytest.mark.parametrize("l", [2, 3, 64, 65, 255, 256, 257, 300, 1021])
    def test_complete_trains(self, l):
        # a train per l, of l pulses: odd and even l on either side of the default size
        ls = range(l, l + 3)
        spec = SumSpec(Complete())
        assert same(each_execution(lambda: readings(N12, ls, spec, 0.4 / (l + 2))))

    def test_factor_trains_read_one(self):
        spec = SumSpec(FullTruncation(19))
        got = each_execution(lambda: readings(N12, [1299709, 1299721], spec, 0.0025))
        assert same(got)
        assert [float.fromhex(r[3]) for r in got[0]] == pytest.approx([1.0, 1.0], abs=1e-12)
