"""Deterministic generator: update equations, bounded draws, subset sampling."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussfactor import SplitMix64, sample_without_replacement

MASK = (1 << 64) - 1


def reference_stream(seed: int, count: int) -> list[int]:
    """The documented update equations, transcribed independently."""
    state = seed & MASK
    out = []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4B9B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        out.append(z ^ (z >> 31))
    return out


class TestSplitMix64:
    @pytest.mark.parametrize("seed", [0, 1, 1234567, (1 << 64) - 1, -3])
    def test_matches_documented_equations(self, seed):
        gen = SplitMix64(seed)
        assert [gen.next_u64() for _ in range(5)] == reference_stream(seed, 5)

    def test_outputs_fill_64_bits(self):
        gen = SplitMix64(42)
        draws = [gen.next_u64() for _ in range(512)]
        assert all(0 <= d <= MASK for d in draws)
        assert max(draws) > MASK // 2
        assert min(draws) < MASK // 2

    def test_distinct_seeds_give_distinct_streams(self):
        a = [SplitMix64(s).next_u64() for s in range(100)]
        assert len(set(a)) == 100

    @given(seed=st.integers(min_value=0, max_value=MASK), bound=st.integers(1, 10**9))
    @settings(max_examples=100)
    def test_below_respects_bound(self, seed, bound):
        gen = SplitMix64(seed)
        for _ in range(5):
            assert 0 <= gen.below(bound) < bound

    def test_below_one_is_always_zero(self):
        gen = SplitMix64(9)
        assert all(gen.below(1) == 0 for _ in range(20))

    def test_below_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            SplitMix64(0).below(0)

    def test_below_takes_bounds_up_to_two_to_the_64(self):
        # past 2**64 no multiple of the bound fits in 64 bits, and the
        # rejection loop would never accept a draw
        assert 0 <= SplitMix64(5).below(1 << 64) <= MASK
        with pytest.raises(ValueError):
            SplitMix64(5).below((1 << 64) + 1)

    def test_below_covers_small_range_uniformly(self):
        # deterministic stream, so these counts are fixed; the band just
        # encodes that no residue is starved or doubled by modulo bias
        counts = [0] * 7
        gen = SplitMix64(2024)
        for _ in range(7000):
            counts[gen.below(7)] += 1
        assert all(850 <= c <= 1150 for c in counts)


class TestSampleWithoutReplacement:
    def test_deterministic_and_distinct(self):
        a = sample_without_replacement(10, 1000, 7)
        b = sample_without_replacement(10, 1000, 7)
        assert a == b
        assert len(set(a)) == 10
        assert all(0 <= m <= 1000 for m in a)

    def test_full_draw_is_a_permutation(self):
        got = sample_without_replacement(8, 7, 3)
        assert sorted(got) == list(range(8))

    def test_seed_changes_the_set(self):
        draws = {tuple(sample_without_replacement(10, 5000, s)) for s in range(50)}
        assert len(draws) == 50

    @given(
        m_max=st.integers(min_value=0, max_value=300),
        seed=st.integers(min_value=0, max_value=MASK),
        data=st.data(),
    )
    @settings(max_examples=150)
    def test_contract_holds(self, m_max, seed, data):
        count = data.draw(st.integers(min_value=1, max_value=m_max + 1))
        got = sample_without_replacement(count, m_max, seed)
        assert len(got) == count
        assert len(set(got)) == count
        assert all(0 <= m <= m_max for m in got)
        assert got == sample_without_replacement(count, m_max, seed)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            sample_without_replacement(0, 10, 1)
        with pytest.raises(ValueError):
            sample_without_replacement(5, -1, 1)
        with pytest.raises(ValueError):
            sample_without_replacement(12, 10, 1)

    def test_every_value_reachable(self):
        # over many seeds each candidate appears; guards against an
        # off-by-one that silently drops 0 or m_max
        seen = set()
        for seed in range(400):
            seen.update(sample_without_replacement(3, 9, seed))
        assert seen == set(range(10))
