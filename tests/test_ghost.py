"""Classification, suppression search, and the scaling/randomized studies."""
import math
import random

import numpy as np
import pytest

import gaussfactor._blocks as _blocks
import gaussfactor.ghost as ghost
import gaussfactor.sums as sums
from gaussfactor import (
    Complete,
    FullTruncation,
    Randomized,
    SumSpec,
    TrialClass,
    classify,
    curlicue,
    epsilon,
    min_suppression_M,
    randomized_success_fraction,
    scaling_study,
    scan_window,
    truncated_sum,
)
from gaussfactor.cli import main
from gaussfactor.ghost import (
    GHOST_SLACK,
    GHOST_THRESHOLD,
    THRESHOLD_BAND,
    N_SEVENTEEN_DIGIT,
    N_TWELVE_DIGIT,
    WINDOW_SEVENTEEN_DIGIT,
    WINDOW_TWELVE_DIGIT,
    iter_scan_window,
)
from gaussfactor.sums import evaluate_many

FULL19 = SumSpec(FullTruncation(19))
N17 = 32193216510801043


def walk_alone_first_crossing(N: int, ls, n: int, threshold: float, cap: int) -> int | None:
    """The per-walk search: each l's walk alone, fsum of every prefix, math.hypot at the bar."""
    walks = []
    for l in ls:
        phases = list(sums._residue_phases(N, l, n, range(cap + 1)))
        re, im = [math.cos(ph) for ph in phases], [math.sin(ph) for ph in phases]
        walks.append([(math.fsum(re[:M + 1]), math.fsum(im[:M + 1])) for M in range(cap + 1)])
    for M in range(cap + 1):
        if all(math.hypot(*w[M]) / (M + 1) <= threshold + GHOST_SLACK for w in walks):
            return M
    return None


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

    def test_cap_is_inclusive(self):
        # eps = 1e-4 first drops below threshold at M = 93
        assert min_suppression_M(1e-4, m_cap=93) == 93
        assert min_suppression_M(1e-4, m_cap=92) is None

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


class TestBarDecision:
    @staticmethod
    def hypot_split():
        """An (re, im) pair on which np.hypot and math.hypot round apart."""
        rng = random.Random(4)
        for _ in range(100_000):
            re, im = rng.uniform(0.3, 0.6), rng.uniform(0.3, 0.6)
            if float(np.hypot(re, im)) != math.hypot(re, im):
                return re, im
        pytest.skip("np.hypot and math.hypot agree on every draw on this build")

    @staticmethod
    def threshold_for(bar: float) -> float:
        """The threshold whose bar, threshold + GHOST_SLACK, is exactly `bar`."""
        t = bar - GHOST_SLACK
        while t + GHOST_SLACK < bar:
            t = math.nextafter(t, math.inf)
        while t + GHOST_SLACK > bar:
            t = math.nextafter(t, -math.inf)
        assert t + GHOST_SLACK == bar
        return t

    @staticmethod
    def blocks(partials: list) -> list:
        """One block of a walk with these partial sums, as _blocks._walk yields it."""
        terms = np.diff(np.array(partials), axis=0, prepend=0)
        return list(_blocks._summed([np.stack([terms.real, terms.imag], axis=1)]))

    def test_math_hypot_decides_at_the_bar(self):
        re, im = self.hypot_split()
        by_numpy, by_math = float(np.hypot(re, im)), math.hypot(re, im)
        # a bar on either value puts it between the two roundings
        for bar in (by_numpy, by_math):
            threshold = self.threshold_for(bar)
            want = 0 if by_math <= bar else None
            walk = self.blocks([complex(re, im)])
            assert _blocks._first_suppressed(walk, threshold + GHOST_SLACK) == want

    def test_math_hypot_decides_in_lockstep_rows(self):
        re, im = self.hypot_split()
        by_math = math.hypot(re, im)
        threshold = self.threshold_for(min(by_math, float(np.hypot(re, im))))
        # two walks in lockstep, both above the bar at M = 0, and at M = 1
        # the split pair in the second row, doubled as a sum of two terms
        walk = [[1 + 1j, 1 + 1j], [0j, complex(2 * re, 2 * im)]]
        want = 1 if by_math <= threshold + GHOST_SLACK else None
        assert _blocks._first_suppressed(self.blocks(walk), threshold + GHOST_SLACK) == want

    def test_exact_sum_decides_inside_the_error_bound(self):
        # 1/2 + (2**-54 + 2**-106) rounds up to 1/2 + 2**-53, but the float
        # approximation leaves out the limb below 2**-52 and reads 1/2; a
        # bar at 1/4 puts |s_1| above it and the approximation on it
        walk = list(_blocks._summed([np.array([[0.5, 0.0], [2.0**-54 + 2.0**-106, 0.0]])]))
        (block,) = walk
        approx = block.approx()[0][1, 0]
        exact = block.rounded(1)[0]
        assert (approx, exact) == (0.5, 0.5 + 2.0**-53)
        assert abs(approx - exact) <= 2.0**-51 * (1 + 2) + 2.0**-43
        threshold = self.threshold_for(0.25)
        assert approx / 2 <= threshold + GHOST_SLACK < exact / 2
        assert _blocks._first_suppressed(walk, threshold + GHOST_SLACK) is None


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

    def test_iterator_yields_the_scan_rows(self):
        spec = SumSpec(Randomized(10, 1000, 5))
        rows = scan_window(N_TWELVE_DIGIT, *WINDOW_TWELVE_DIGIT, spec)
        trials = iter_scan_window(N_TWELVE_DIGIT, *WINDOW_TWELVE_DIGIT, spec)
        assert next(trials) == rows[0]
        assert list(trials) == rows[1:]

    def test_iterator_checks_the_window_on_the_call(self):
        with pytest.raises(ValueError, match="invalid window"):
            iter_scan_window(15, 5, 4, FULL19)

    def test_iterator_raises_when_the_failing_trial_is_read(self):
        # the closed form takes any l: trials past the cap on Complete.terms
        # are classified one at a time as they are read
        cap = sums.COMPLETE_SUM_CAP
        trials = iter_scan_window(10, cap - 1, cap + 1, SumSpec(Complete()))
        assert [next(trials).l, next(trials).l, next(trials).l] == [cap - 1, cap, cap + 1]
        assert next(trials, None) is None
        # a trial that cannot be evaluated raises when it is read, not before
        trials = iter_scan_window(-1, 2, 3, SumSpec(Complete()))
        with pytest.raises(ValueError, match="N must be >= 0"):
            next(trials)

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


def rule_by_row(N: int, l: int, magnitude: float) -> TrialClass:
    """The classification rule one trial at a time, as classify once applied it."""
    if epsilon(N, l).is_zero:
        return TrialClass.FACTOR
    if magnitude > GHOST_THRESHOLD + GHOST_SLACK:
        return TrialClass.GHOST_FACTOR
    if abs(magnitude - GHOST_THRESHOLD) <= THRESHOLD_BAND:
        return TrialClass.THRESHOLD_NON_FACTOR
    return TrialClass.TYPICAL_NON_FACTOR


def around(x: float) -> list[float]:
    return [math.nextafter(x, 0.0), x, math.nextafter(x, 2.0)]


class TestBlockRule:
    BAR = GHOST_THRESHOLD + GHOST_SLACK
    # the ghost bar and the band's edges, each with one ulp either side, the
    # threshold itself, and the ends of the range a magnitude may take
    EDGES = [
        *around(BAR),
        *around(GHOST_THRESHOLD + THRESHOLD_BAND),
        *around(GHOST_THRESHOLD - THRESHOLD_BAND),
        GHOST_THRESHOLD, 0.0, 1.0, 1.0 + 1e-9,
    ]

    @staticmethod
    def fake_sums(monkeypatch, blocks):
        """Give the rule these (real parts, imaginary parts) blocks as its sums."""
        def columns(N, ls, spec):
            ls = iter(ls)
            for re, im in blocks:
                run = [next(ls) for _ in re]
                yield run, [N % l for l in run], re, im, [20] * len(run)

        monkeypatch.setattr(ghost, "_mean_columns", columns)

    def test_edges_classify_as_the_row_rule_does(self, monkeypatch):
        # hypot(m, 0) is m, so each row's magnitude is exactly its edge; no
        # l of this window divides N
        self.fake_sums(monkeypatch, [([m], [0.0]) for m in self.EDGES])
        ls = range(1299730, 1299730 + len(self.EDGES))
        blocks = list(ghost._classified_blocks(N_TWELVE_DIGIT, ls, FULL19))
        got = [(rows.magnitudes[0], TrialClass(rows.classes[0])) for rows in blocks]
        assert got == [(m, rule_by_row(N_TWELVE_DIGIT, l, m)) for l, m in zip(ls, self.EDGES)]
        # the bar itself is no ghost, one ulp past it is
        assert [cls for _, cls in got[:3]] == [
            TrialClass.THRESHOLD_NON_FACTOR, TrialClass.THRESHOLD_NON_FACTOR,
            TrialClass.GHOST_FACTOR,
        ]

    def test_a_factor_is_decided_by_division_not_magnitude(self, monkeypatch):
        self.fake_sums(monkeypatch, [([0.0, 0.0, 0.9], [0.0, 0.0, 0.0])])
        (rows,) = ghost._classified_blocks(N_TWELVE_DIGIT, [1299709, 1299721, 1299711], FULL19)
        classes = list(map(TrialClass, rows.classes))
        assert classes == [TrialClass.FACTOR, TrialClass.FACTOR, TrialClass.GHOST_FACTOR]
        assert rows.eps[:2] == [0.0, 0.0]

    def test_matches_the_row_rule_on_a_window_of_every_class(self):
        ls = range(1299670, 1299761)
        (rows,) = ghost._classified_blocks(N_TWELVE_DIGIT, ls, FULL19)
        values = list(evaluate_many(N_TWELVE_DIGIT, ls, FULL19))
        classes = list(map(TrialClass, rows.classes))
        assert classes == [
            rule_by_row(N_TWELVE_DIGIT, l, v.magnitude) for l, v in zip(ls, values)
        ]
        assert set(classes) == set(TrialClass)
        assert [x.hex() for x in rows.magnitudes] == [v.magnitude.hex() for v in values]
        assert [x.hex() for x in rows.eps] == [epsilon(N_TWELVE_DIGIT, l).value.hex() for l in ls]

    def test_eps_is_one_int_division_on_both_sides_of_half(self):
        # 2t below, at and above l, where 2t = l maps to +1; and a big-int l
        for N, l in ((2, 7), (3, 7), (4, 7), (4, 8), (5, 8), (2**70 + 3, 2**61 - 1)):
            (rows,) = ghost._classified_blocks(N, [l], FULL19)
            assert rows.eps[0].hex() == epsilon(N, l).value.hex()

    def test_a_magnitude_past_one_names_its_l_partway_through_a_block(self, monkeypatch, capsys):
        # the second block's third row reads 1.5
        first, second = [0.1] * 4, [0.2, 0.3, 1.5, 0.4]
        self.fake_sums(monkeypatch, [(first, [0.0] * 4), (second, [0.0] * 4)])
        lo = 1299690
        trials = iter_scan_window(N_TWELVE_DIGIT, lo, lo + 7, FULL19)
        assert [next(trials).l for _ in range(6)] == list(range(lo, lo + 6))
        with pytest.raises(ValueError, match="normalized magnitude 1.5 exceeds 1"):
            next(trials)
        code = main(["scan", "--n", str(N_TWELVE_DIGIT), "--window", f"{lo}:{lo + 7}",
                     "--truncation", "19"])
        out, err = capsys.readouterr()
        assert (code, out) == (3, "")
        assert err.startswith("domain error: normalized magnitude 1.5 exceeds 1")
        assert f"(N={N_TWELVE_DIGIT}, l={lo + 6})" in err


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

    def test_cap_is_inclusive(self):
        # the toy window first clears the threshold at M = 9
        assert scaling_study([(10403, (2, 101))], 2, m_cap=9)[0].required_M == 9
        assert scaling_study([(10403, (2, 101))], 2, m_cap=8)[0].required_M is None

    def test_nan_threshold_never_suppresses(self):
        # both searches count a walk as suppressed only where |s_M| <= threshold
        row = scaling_study([(10403, (2, 101))], 2, threshold=math.nan, m_cap=50)[0]
        assert row.required_M is None
        assert min_suppression_M(1e-3, threshold=math.nan, m_cap=50) is None

    def test_window_of_factors_needs_nothing(self):
        row = scaling_study([(6, (2, 3))], 2)[0]
        assert row.required_M == 0
        assert row.worst_epsilon == 0.0

    @pytest.mark.parametrize(
        "N, window, n, cap",
        [
            (10403, (2, 101), 3, 400),
            (N_TWELVE_DIGIT, (1299699, 1299731), 2, 300),
            (N17, (2**32 - 6, 2**32 + 6), 2, 60),
            (N17, (2**32 - 6, 2**32 + 6), 4, 60),
        ],
        ids=["toy-order-3", "twelve-digit", "across-2**32", "across-2**32-order-4"],
    )
    def test_lockstep_matches_each_walk_alone(self, N, window, n, cap):
        ls = [l for l in range(window[0], window[1] + 1) if N % l]
        row = scaling_study([(N, window)], n, m_cap=cap)[0]
        assert row.required_M == walk_alone_first_crossing(N, ls, n, GHOST_THRESHOLD, cap)

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
