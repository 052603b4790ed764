"""Acceptance gate: one test per release criterion, each printing what it
measured (run with -v -rA to see the values).  Every tolerance and time
budget is stated inline next to its assertion.

Criteria 4 and 5 are known failures and are asserted at their stated bars
anyway: uniform without-replacement sampling fixes the distribution of the
drawn m-sets, so the per-seed joint success probability over a scan window
is a property of the procedure, not of any implementation choice.  Measured
values sit near 0.91 (twelve-digit window) and 0.86 (seventeen-digit
window), below the 0.95 the criteria ask for.  See the README's
reliability note.
"""
import math
import random
import subprocess
import sys
import time
from statistics import linear_regression

import numpy as np
import pytest

from gaussfactor import (
    FullTruncation,
    Randomized,
    SumSpec,
    TrialClass,
    curlicue,
    curlicue_equivalence_check,
    min_suppression_M,
    randomized_success_fraction,
    randomized_sum,
    residue_magnitudes,
    scaling_study,
    scan_window,
    simulate_experiment,
    small_angle_error,
    truncated_sum,
)
from gaussfactor.ghost import (
    GHOST_THRESHOLD,
    N_SEVENTEEN_DIGIT,
    N_TWELVE_DIGIT,
    WINDOW_SEVENTEEN_DIGIT,
    WINDOW_TWELVE_DIGIT,
)
from gaussfactor.spinsim import PulseSequence, pulse_propagator

TWELVE_FACTORS = (1299709, 1299721)
SEVENTEEN_FACTORS = (179424673, 179424691)


def test_criterion_01_curlicue_decay_profile():
    t0 = time.perf_counter()
    m20 = curlicue(4e-5, 2, 20).magnitude
    m200 = curlicue(4e-5, 2, 200).magnitude
    m1000 = curlicue(4e-5, 2, 1000).magnitude
    elapsed = time.perf_counter() - t0
    print(
        f"criterion 1: |s_20|={m20:.6f} |s_200|={m200:.6f} "
        f"|s_1000|={m1000:.6f} elapsed={elapsed:.3f}s"
    )
    assert m20 > 0.99
    assert abs(m200 - 0.3155) <= 0.001
    assert abs(m1000 - 0.0770) <= 0.001
    assert elapsed < 1.0


def test_criterion_02_short_truncation_floods_the_window():
    t0 = time.perf_counter()
    spec = SumSpec(FullTruncation(19))
    rows = scan_window(N_TWELVE_DIGIT, *WINDOW_TWELVE_DIGIT, spec)
    min_mag = min(r.value.magnitude for r in rows)
    min_eps = min(abs(r.eps.value) for r in rows if not r.eps.is_zero)
    elapsed = time.perf_counter() - t0
    print(
        f"criterion 2: min magnitude={min_mag:.6f} "
        f"min nonfactor |eps|={min_eps:.6e} elapsed={elapsed:.3f}s"
    )
    assert min_mag > 1 / math.sqrt(2)
    assert abs(min_eps - 1.693e-5) <= 0.002e-5
    assert elapsed < 1.0


def test_criterion_03_fifth_order_cleans_the_window():
    t0 = time.perf_counter()
    spec = SumSpec(FullTruncation(10), order=5)
    rows = scan_window(N_TWELVE_DIGIT, *WINDOW_TWELVE_DIGIT, spec)
    again = scan_window(N_TWELVE_DIGIT, *WINDOW_TWELVE_DIGIT, spec)
    factors = [r for r in rows if r.trial_class is TrialClass.FACTOR]
    nonfactor_max = max(
        r.value.magnitude for r in rows if r.trial_class is not TrialClass.FACTOR
    )
    elapsed = time.perf_counter() - t0
    print(
        f"criterion 3: factors at l={[r.l for r in factors]} "
        f"max nonfactor magnitude={nonfactor_max:.4f} elapsed={elapsed:.3f}s"
    )
    assert [r.l for r in factors] == list(TWELVE_FACTORS)
    assert all(abs(r.value.magnitude - 1.0) <= 1e-9 for r in factors)
    assert nonfactor_max < 1 / math.sqrt(2)
    assert rows == again
    assert elapsed < 1.0


def test_criterion_04_randomized_twelve_digit_reliability():
    # KNOWN FAILURE, asserted at the stated bar on purpose: the measured
    # joint success fraction is ~0.91, and it is pinned by the sampling
    # distribution itself rather than by anything tunable here.
    t0 = time.perf_counter()
    seeds = range(1000)  # "at least 100 seeds"
    for seed in seeds:
        for l in TWELVE_FACTORS:
            assert randomized_sum(N_TWELVE_DIGIT, l, 2, 10, 1000, seed).magnitude == 1.0
    fraction = randomized_success_fraction(
        N_TWELVE_DIGIT, *WINDOW_TWELVE_DIGIT, 10, 1000, seeds
    )
    elapsed = time.perf_counter() - t0
    print(
        f"criterion 4: factors exact over {len(seeds)} seeds, "
        f"joint success fraction={fraction:.3f} (needs >= 0.95) "
        f"elapsed={elapsed:.3f}s"
    )
    assert elapsed < 10.0
    assert fraction >= 0.95


def test_criterion_05_randomized_seventeen_digit_reliability():
    # KNOWN FAILURE, same cause as criterion 4; measured fraction is 0.86.
    t0 = time.perf_counter()
    seeds = range(100)
    for seed in seeds:
        for l in SEVENTEEN_FACTORS:
            assert (
                randomized_sum(N_SEVENTEEN_DIGIT, l, 2, 10, 5000, seed).magnitude == 1.0
            )
    fraction = randomized_success_fraction(
        N_SEVENTEEN_DIGIT, *WINDOW_SEVENTEEN_DIGIT, 10, 5000, seeds
    )
    elapsed = time.perf_counter() - t0
    print(
        f"criterion 5: factors exact over {len(seeds)} seeds, "
        f"ghost-free fraction={fraction:.3f} (needs >= 0.95) "
        f"elapsed={elapsed:.3f}s"
    )
    assert elapsed < 10.0
    assert fraction >= 0.95


def test_criterion_06_suppression_tracks_inverse_root_epsilon():
    t0 = time.perf_counter()
    measured = {}
    for eps in (1e-2, 1e-3, 1e-4, 1e-5):
        required = min_suppression_M(eps)
        measured[eps] = required
        scale = 1 / math.sqrt(eps)
        assert required is not None
        assert scale / 3 <= required <= scale * 3
    elapsed = time.perf_counter() - t0
    print(f"criterion 6: required M {measured} elapsed={elapsed:.3f}s")
    assert elapsed < 10.0


def test_criterion_07_order_escalation_shrinks_suppression():
    t0 = time.perf_counter()
    required = [min_suppression_M(1e-6, n=n) for n in range(2, 7)]
    elapsed = time.perf_counter() - t0
    print(f"criterion 7: required M by order {required} elapsed={elapsed:.3f}s")
    assert all(r is not None for r in required)
    for earlier, later in zip(required, required[1:]):
        assert later <= earlier
    assert required[-1] <= required[0] / 10
    assert elapsed < 30.0


def test_criterion_08_equivalence_over_random_corpus():
    t0 = time.perf_counter()
    rng = random.Random(8)
    checked = 0
    for _ in range(10_000):
        N = rng.randrange(0, 10**18)
        l = rng.randrange(2, 10**9)
        M = int(10 ** rng.uniform(0, 3))
        assert curlicue_equivalence_check(N, l, 2, M)
        checked += 1
    # pin the corners the log draw rarely hits
    assert curlicue_equivalence_check(10**18 - 1, 10**9 - 1, 2, 1000)
    assert curlicue_equivalence_check(10**18 - 1, 2, 2, 0)
    elapsed = time.perf_counter() - t0
    print(f"criterion 8: {checked} triples agreed within 1e-9, elapsed={elapsed:.3f}s")
    assert elapsed < 10.0


def test_criterion_09_exhaustive_factor_characterization():
    t0 = time.perf_counter()
    worst_factor_err = 0.0
    best_nonfactor = 0.0
    for l in range(2, 10**4):
        mags = residue_magnitudes(l, 2, 5)
        worst_factor_err = max(worst_factor_err, abs(mags[0] - 1.0))
        if l > 2 or mags[1:].size:
            best_nonfactor = max(best_nonfactor, float(mags[1:].max()))
    # tie the vectorized sweep to the scalar path on a random sample
    rng = random.Random(9)
    for _ in range(200):
        N = rng.randrange(2, 10**4)
        l = rng.randrange(2, N + 1)
        scalar = truncated_sum(N, l, 2, 5).magnitude
        vector = residue_magnitudes(l, 2, 5)[N % l]
        assert abs(scalar - vector) < 1e-12
    elapsed = time.perf_counter() - t0
    print(
        f"criterion 9: factor magnitude error={worst_factor_err:.2e}, "
        f"largest nonfactor magnitude={best_nonfactor:.12f}, "
        f"elapsed={elapsed:.3f}s"
    )
    assert worst_factor_err <= 1e-12
    assert best_nonfactor < 1.0 - 1e-9
    assert elapsed < 60.0


def test_criterion_10_spin_readout_matches_analytic_sums():
    t0 = time.perf_counter()
    spec = SumSpec(FullTruncation(19))
    theta = 0.05 / 20  # total flip angle exactly at the 0.05 contract point
    worst = 0.0
    for l in range(WINDOW_TWELVE_DIGIT[0], WINDOW_TWELVE_DIGIT[1] + 1):
        worst = max(worst, small_angle_error(N_TWELVE_DIGIT, l, spec, theta))
    factor_err = abs(
        simulate_experiment(N_TWELVE_DIGIT, 1299709, spec, theta).normalized_signal
        - 1.0
    )
    # spot-check the operator invariants behind those numbers
    seq = PulseSequence.from_sum_spec(N_TWELVE_DIGIT, 1299702, spec, theta)
    for pulse in seq.pulses[:5]:
        u = pulse_propagator(pulse)
        assert np.abs(u @ u.conj().T - np.eye(2)).max() < 1e-12
    elapsed = time.perf_counter() - t0
    print(
        f"criterion 10: worst |normalized - analytic|={worst:.3e}, "
        f"factor deviation={factor_err:.3e}, elapsed={elapsed:.3f}s"
    )
    assert worst < 1e-3
    assert factor_err <= 1e-12
    assert elapsed < 5.0


def test_criterion_11_cli_runs_are_byte_identical(tmp_path):
    argv = [
        sys.executable, "-m", "gaussfactor.cli",
        "scan", "--n", str(N_SEVENTEEN_DIGIT),
        "--count", "10", "--m-max", "5000", "--seed", "11",
    ]
    first = subprocess.run(argv, capture_output=True, check=True)
    second = subprocess.run(argv, capture_output=True, check=True)
    assert first.stdout == second.stdout
    fig = [sys.executable, "-m", "gaussfactor.cli", "reproduce-figure", "4"]
    fig_first = subprocess.run(fig, capture_output=True, check=True)
    fig_second = subprocess.run(fig, capture_output=True, check=True)
    assert fig_first.stdout == fig_second.stdout
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    for path in (out_a, out_b):
        subprocess.run(argv + ["--output", str(path)], capture_output=True, check=True)
    assert out_a.read_bytes() == out_b.read_bytes()
    print(
        f"criterion 11: {len(first.stdout)} stdout bytes and "
        f"{out_a.stat().st_size} file bytes identical across runs"
    )


# the first 12 primes as Miller-Rabin bases decide primality exactly below
# 3.18 * 10**23 (Jiang & Deng 2014), far past every ladder prime here
MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for a in MILLER_RABIN_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(x: float) -> int:
    """The least prime above x."""
    n = math.floor(x) + 1
    while not is_prime(n):
        n += 1
    return n


def scaling_ladder(digits):
    """Three adjacent-prime semiprimes per digit count, each with window [p - 10, q + 10]."""
    for d in digits:
        for k in range(3):
            p = next_prime(10 ** (d / 2) * (1 + 0.1 * k))
            q = next_prime(p)
            yield p * q, (p - 10, q + 10)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_criterion_12_required_M_scales_as_inverse_eps_to_one_over_n(n):
    # orders 3 to 5 climb to 30 digits, whose windows lie past l = 2**32,
    # so the search runs on both residue paths
    digits = [*range(8, 19), *(range(20, 31, 2) if n > 2 else ())]
    cases = list(scaling_ladder(digits))
    t0 = time.perf_counter()
    rows = scaling_study(cases, n, m_cap=10**6)
    elapsed = time.perf_counter() - t0
    assert all(r.required_M is not None for r in rows)
    log_M = [math.log(r.required_M) for r in rows]
    by_eps = linear_regression([math.log(1 / r.worst_epsilon) for r in rows], log_M).slope
    by_N = linear_regression([math.log(r.N) for r in rows], log_M).slope
    print(
        f"criterion 12: order {n}, {len(rows)} rows over {digits[0]}-{digits[-1]} digits, "
        f"slope vs log(1/|eps|)={by_eps:.3f} (needs {1 / n:.3f} +- 0.05), "
        f"slope vs log N={by_N:.3f}, elapsed={elapsed:.3f}s"
    )
    assert abs(by_eps - 1 / n) <= 0.05
    assert elapsed < 60.0
