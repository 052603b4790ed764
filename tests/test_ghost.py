"""Classification, suppression search, and the scaling/randomized studies."""
import math

import pytest

import gaussfactor.sums as sums
from gaussfactor import (
    Complete,
    FullTruncation,
    Randomized,
    SumSpec,
    TrialClass,
    classify,
    curlicue,
    min_suppression_M,
    randomized_success_fraction,
    scaling_study,
    scan_window,
    truncated_sum,
)
from gaussfactor.ghost import (
    GHOST_SLACK,
    GHOST_THRESHOLD,
    N_SEVENTEEN_DIGIT,
    N_TWELVE_DIGIT,
    WINDOW_SEVENTEEN_DIGIT,
    WINDOW_TWELVE_DIGIT,
)

FULL19 = SumSpec(FullTruncation(19))


def naive_first_crossing(eps: float, n: int, threshold: float, cap: int) -> int | None:
    """Re-summing oracle: same predicate, one-shot sums instead of a stream."""
    for M in range(cap + 1):
        if curlicue(eps, n, M).magnitude <= threshold + GHOST_SLACK:
            return M
    return None


class TestClassify:
    def test_factor_by_exact_division(self):
        c = classify(N_TWELVE_DIGIT, 1299709, FULL19)
        assert c.trial_class is TrialClass.FACTOR
        assert c.eps.is_zero
        assert c.value.magnitude == 1.0

    def test_small_epsilon_neighbor_is_a_ghost(self):
        c = classify(N_TWELVE_DIGIT, 1299711, FULL19)
        assert c.trial_class is TrialClass.GHOST_FACTOR
        assert not c.eps.is_zero
        assert c.value.magnitude > GHOST_THRESHOLD

    def test_exact_threshold_magnitude_lands_in_band(self):
        # the complete sum at (15, 4) is (1 - i)/2, magnitude 1/sqrt(2)
        c = classify(15, 4, SumSpec(Complete()))
        assert c.trial_class is TrialClass.THRESHOLD_NON_FACTOR

    def test_scattered_nonfactor_is_typical(self):
        c = classify(15, 7, SumSpec(Complete()))
        assert c.trial_class is TrialClass.TYPICAL_NON_FACTOR

    def test_short_truncation_ghost_despite_large_epsilon(self):
        # (15, 4) at M = 4 averages to (3 - 2i)/5, magnitude 0.721
        c = classify(15, 4, SumSpec(FullTruncation(4)))
        assert c.trial_class is TrialClass.GHOST_FACTOR
        assert c.eps.value == -0.5

    def test_rejects_trivial_trials(self):
        with pytest.raises(ValueError):
            classify(15, 1, FULL19)
        with pytest.raises(ValueError):
            classify(15, 0, FULL19)


class TestMinSuppression:
    def test_unit_epsilon_cancels_at_two_terms(self):
        assert min_suppression_M(1.0) == 1

    def test_half_epsilon_sits_on_threshold_at_two_terms(self):
        # |s_1(1/2)| = |1 + i|/2 = threshold exactly; the slack makes the
        # search terminate instead of chasing the boundary forever
        assert min_suppression_M(0.5) == 1

    @pytest.mark.parametrize("eps,want", [(1e-2, 9), (1e-3, 29), (1e-4, 93)])
    def test_matches_resumming_oracle(self, eps, want):
        got = min_suppression_M(eps)
        assert got == naive_first_crossing(eps, 2, GHOST_THRESHOLD, 200)
        assert got == want

    def test_frozen_small_epsilon_values(self):
        assert min_suppression_M(1e-5) == 295
        assert min_suppression_M(1e-6) == 932

    def test_frozen_order_progression_at_1e6(self):
        assert [min_suppression_M(1e-6, n=n) for n in range(2, 7)] == [
            932, 98, 32, 16, 11,
        ]

    def test_inverse_root_epsilon_scale(self):
        for eps in (1e-2, 1e-3, 1e-4, 1e-5):
            got = min_suppression_M(eps)
            scale = 1 / math.sqrt(eps)
            assert scale / 3 < got < scale * 3

    def test_cap_yields_none(self):
        assert min_suppression_M(1e-8, m_cap=100) is None

    def test_custom_threshold(self):
        got = min_suppression_M(1e-2, threshold=0.3)
        assert got == naive_first_crossing(1e-2, 2, 0.3, 200)
        assert got > min_suppression_M(1e-2)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            min_suppression_M(0.0)
        with pytest.raises(ValueError):
            min_suppression_M(1e-3, m_cap=0)

    def test_suppression_antitone_in_epsilon(self):
        # on a half-decade grid the required M must not drop as epsilon
        # shrinks, within a factor 1.5 to forgive oscillation
        grid = [10 ** (-k / 2) for k in range(2, 13)]
        required = [min_suppression_M(e) for e in grid]
        for bigger_eps_M, smaller_eps_M in zip(required, required[1:]):
            assert bigger_eps_M <= 1.5 * smaller_eps_M

    @pytest.mark.parametrize(
        "eps", [1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2]
    )
    def test_suppression_never_worsens_with_order(self, eps):
        # Known red at eps = 1e-2: the order-5 first crossing needs 5 terms
        # where order 4 needs 3, because m**5 residues straighten out over
        # the first few m.  Kept as stated rather than weakened; the large-M
        # asymptotics behind the expectation simply do not bind at M ~ 3.
        required = [min_suppression_M(eps, n=n, m_cap=10**5) for n in range(2, 7)]
        assert all(r is not None for r in required)
        for earlier, later in zip(required, required[1:]):
            assert later <= earlier, f"order bump raises suppression: {required}"


class TestScanWindow:
    def test_tiny_window_classes(self):
        rows = scan_window(15, 2, 4, SumSpec(FullTruncation(4)))
        assert [r.l for r in rows] == [2, 3, 4]
        assert [r.trial_class for r in rows] == [
            TrialClass.TYPICAL_NON_FACTOR,
            TrialClass.FACTOR,
            TrialClass.GHOST_FACTOR,
        ]

    def test_randomized_scan_pins_both_factors(self):
        for seed in (0, 1, 2):
            spec = SumSpec(Randomized(10, 5000, seed))
            rows = scan_window(N_SEVENTEEN_DIGIT, *WINDOW_SEVENTEEN_DIGIT, spec)
            factors = [r.l for r in rows if r.trial_class is TrialClass.FACTOR]
            assert factors == [179424673, 179424691]
            assert all(
                r.value.magnitude == 1.0
                for r in rows
                if r.trial_class is TrialClass.FACTOR
            )

    def test_deterministic_with_seeded_strategy(self):
        spec = SumSpec(Randomized(10, 1000, 5))
        a = scan_window(N_TWELVE_DIGIT, *WINDOW_TWELVE_DIGIT, spec)
        b = scan_window(N_TWELVE_DIGIT, *WINDOW_TWELVE_DIGIT, spec)
        assert a == b

    def test_randomized_scan_draws_its_m_set_once(self, monkeypatch):
        draws = []
        real = sums.sample_without_replacement

        def counting(*args):
            draws.append(args)
            return real(*args)

        monkeypatch.setattr(sums, "sample_without_replacement", counting)
        spec = SumSpec(Randomized(10, 1000, 5))
        rows = scan_window(N_TWELVE_DIGIT, *WINDOW_TWELVE_DIGIT, spec)
        assert len(rows) == 33
        assert draws == [(10, 1000, 5)]

    def test_rejects_bad_windows(self):
        with pytest.raises(ValueError):
            scan_window(15, 5, 4, FULL19)
        with pytest.raises(ValueError):
            scan_window(15, 1, 4, FULL19)


class TestScalingStudy:
    def test_toy_target_matches_one_shot_oracle(self):
        N = 10403  # 101 * 103
        row = scaling_study([(N, (2, 101))], 2)[0]
        nonfactors = [l for l in range(2, 102) if N % l]

        def all_below(M):
            return all(
                truncated_sum(N, l, 2, M).magnitude <= GHOST_THRESHOLD + GHOST_SLACK
                for l in nonfactors
            )

        def eps_magnitude(l):
            t = N % l
            num = 2 * t if 2 * t <= l else 2 * t - 2 * l
            return abs(num) / l

        want = next(M for M in range(200) if all_below(M))
        assert row.required_M == want == 9
        assert row.worst_epsilon == min(eps_magnitude(l) for l in nonfactors)
        assert row.root_2n == pytest.approx(N**0.25)

    def test_high_order_small_window_never_suppresses(self):
        # m**6 mod 7 only takes values {0, 1}; the mean tends to a fixed
        # point above threshold, so the cap must report None
        row = scaling_study([(10403, (2, 101))], 6, m_cap=500)[0]
        assert row.required_M is None

    def test_twelve_digit_window_frozen_values(self):
        near, far = scaling_study(
            [(N_TWELVE_DIGIT, WINDOW_TWELVE_DIGIT)] * 2, 2
        )
        assert near.required_M == far.required_M == 227
        row6 = scaling_study([(N_TWELVE_DIGIT, WINDOW_TWELVE_DIGIT)], 6)[0]
        assert row6.required_M == 9
        assert row6.root_2n == pytest.approx(N_TWELVE_DIGIT ** (1 / 12))

    def test_window_of_factors_needs_nothing(self):
        row = scaling_study([(6, (2, 3))], 2)[0]
        assert row.required_M == 0
        assert row.worst_epsilon == 0.0

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            scaling_study([], 2)
        with pytest.raises(ValueError):
            scaling_study([(15, (4, 2))], 2)
        with pytest.raises(ValueError):
            scaling_study([(15, (2, 4))], 1)
        with pytest.raises(ValueError, match="m_cap"):
            scaling_study([(15, (2, 4))], 2, m_cap=0)
        with pytest.raises(ValueError, match=f"N={10**309}"):
            scaling_study([(10**309, (2, 3))], 2)


class TestRandomizedSuccessFraction:
    def test_all_factor_window_always_succeeds(self):
        assert randomized_success_fraction(6, 2, 3, 2, 10, range(5)) == 1.0

    def test_deterministic_and_bounded(self):
        a = randomized_success_fraction(
            N_TWELVE_DIGIT, *WINDOW_TWELVE_DIGIT, 10, 1000, range(50)
        )
        b = randomized_success_fraction(
            N_TWELVE_DIGIT, *WINDOW_TWELVE_DIGIT, 10, 1000, range(50)
        )
        assert a == b
        assert 0.5 < a <= 1.0

    def test_agrees_with_scan_window_seed_for_seed(self):
        # one seed succeeds exactly when its seeded scan shows no non-factor
        # above threshold, because both evaluate the same sums
        for seed in range(300):
            fraction = randomized_success_fraction(
                N_TWELVE_DIGIT, *WINDOW_TWELVE_DIGIT, 10, 1000, [seed]
            )
            rows = scan_window(
                N_TWELVE_DIGIT, *WINDOW_TWELVE_DIGIT, SumSpec(Randomized(10, 1000, seed))
            )
            clean = not any(
                r.value.magnitude > GHOST_THRESHOLD + GHOST_SLACK
                for r in rows
                if r.trial_class is not TrialClass.FACTOR
            )
            assert (fraction == 1.0) == clean, seed

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            randomized_success_fraction(15, 4, 2, 2, 10, range(5))
        with pytest.raises(ValueError):
            randomized_success_fraction(15, 2, 4, 2, 10, [])
