"""Trial-factor classification and ghost-factor suppression studies.

A truncated sum read above 1/sqrt(2) marks its trial factor as a candidate.
Non-factors that still clear that bar are ghost factors: their fractional
part is so small that the retained terms have not yet fanned out in the
complex plane.  The functions here classify scan windows, find how many
terms a given fractional part needs before it drops below threshold, and
measure how that requirement scales with the sum order.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import hypot, sqrt
from typing import Iterable, Iterator, NamedTuple, Sequence

from .numtheory import Epsilon, _check_order, epsilon, is_factor
from .sums import (
    _MAX_MAGNITUDE,
    Randomized,
    SumSpec,
    SumValue,
    _curlicue_suppressed,
    _mean_columns,
    _residue_suppressed,
)

__all__ = [
    "GHOST_THRESHOLD",
    "GHOST_SLACK",
    "THRESHOLD_BAND",
    "TrialClass",
    "ClassifiedTrial",
    "ScalingRow",
    "classify",
    "min_suppression_M",
    "scan_window",
    "iter_scan_window",
    "scaling_study",
    "randomized_success_fraction",
    "N_TWELVE_DIGIT",
    "WINDOW_TWELVE_DIGIT",
    "N_SEVENTEEN_DIGIT",
    "WINDOW_SEVENTEEN_DIGIT",
    "DEFAULT_WINDOWS",
]

GHOST_THRESHOLD = 1 / sqrt(2)
# finite-M magnitudes land near 1/sqrt(2), not on it; the slack keeps exact
# threshold cases out of the ghost class and the band gives them a home
GHOST_SLACK = 1e-9
THRESHOLD_BAND = 1e-3

# Built-in demonstration targets: products of adjacent primes, with scan
# windows covering both factors.  The second window is the range the
# original experiment scanned; the first is symmetric coverage of its pair.
N_TWELVE_DIGIT = 1689259081189  # 1299709 * 1299721
WINDOW_TWELVE_DIGIT = (1299699, 1299731)
N_SEVENTEEN_DIGIT = 32193216510801043  # 179424673 * 179424691
WINDOW_SEVENTEEN_DIGIT = (179424663, 179424701)
DEFAULT_WINDOWS = {
    N_TWELVE_DIGIT: WINDOW_TWELVE_DIGIT,
    N_SEVENTEEN_DIGIT: WINDOW_SEVENTEEN_DIGIT,
}


class TrialClass(Enum):
    FACTOR = "Factor"
    GHOST_FACTOR = "GhostFactor"
    THRESHOLD_NON_FACTOR = "ThresholdNonFactor"
    TYPICAL_NON_FACTOR = "TypicalNonFactor"


@dataclass(frozen=True)
class ClassifiedTrial:
    """One trial factor with its fractional part, sum value, and verdict."""

    l: int
    eps: Epsilon
    value: SumValue
    trial_class: TrialClass
    spec: SumSpec


# the rule's class column holds the text of each class, so that the CLI
# prints it as it is
_FACTOR, _GHOST, _THRESHOLD, _TYPICAL = (
    TrialClass.FACTOR.value, TrialClass.GHOST_FACTOR.value,
    TrialClass.THRESHOLD_NON_FACTOR.value, TrialClass.TYPICAL_NON_FACTOR.value,
)


class _Rows(NamedTuple):
    """A block of consecutive trial factors with their sums and verdicts, as columns."""

    ls: Sequence[int]
    real_parts: list[float]
    imag_parts: list[float]
    term_counts: list[int]
    eps: list[float]
    magnitudes: list[float]
    classes: list[str]  # TrialClass values


def _classified_blocks(
    N: int, ls: Iterable[int], spec: SumSpec, threshold: float = GHOST_THRESHOLD
) -> Iterator[_Rows]:
    """The one classification rule, applied a block of trial factors at a time.

    Factor status is decided by exact division, t = N mod l being 0, never
    by the float magnitude; t comes with the sums, formed once per l.  eps
    is 2t/l, less 2 when 2t > l, in one int true division: Epsilon.value's
    bits.  Each magnitude is math.hypot of the normalized sum,
    SumValue.magnitude's bits, formed once; it then separates ghosts (above
    threshold + GHOST_SLACK), threshold cases (within THRESHOLD_BAND of
    threshold) and typical non-factors.  Every magnitude is checked as
    SumValue checks it: the rows before the first that fails come as a
    shorter block, and SumValue's error is raised next.
    """
    bar = threshold + GHOST_SLACK
    for ls, ts, re, im, counts in _mean_columns(N, ls, spec):
        eps = [(2 * t if 2 * t <= l else 2 * t - 2 * l) / l for t, l in zip(ts, ls)]
        magnitudes = list(map(hypot, re, im))
        classes = [
            _FACTOR if not t
            else _GHOST if m > bar
            else _THRESHOLD if -THRESHOLD_BAND <= m - threshold <= THRESHOLD_BAND
            else _TYPICAL
            for t, m in zip(ts, magnitudes)
        ]
        rows = _Rows(ls, re, im, counts, eps, magnitudes, classes)
        bad = next((k for k, m in enumerate(magnitudes) if m > _MAX_MAGNITUDE), None)
        if bad is not None:
            yield _Rows(*(column[:bad] for column in rows))
            SumValue(re[bad], im[bad], counts[bad])  # raises SumValue's error
        yield rows


def classify(N: int, l: int, spec: SumSpec) -> ClassifiedTrial:
    """Classify trial factor l of N under the given sum.

    Factor status is decided by exact division, never by the float
    magnitude; the magnitude then separates ghosts (above threshold),
    threshold cases (within the band), and typical non-factors.
    """
    if l < 2:
        raise ValueError(f"trial factors start at 2, got {l}")
    return next(iter_scan_window(N, l, l, spec))


def min_suppression_M(
    eps: float,
    n: int = 2,
    threshold: float = GHOST_THRESHOLD,
    m_cap: int = 10**6,
) -> int | None:
    """Smallest M with |s_M(eps)| <= threshold, or None past m_cap.

    The magnitude oscillates in M, so this walks upward and takes the first
    crossing; a bisection would land on an arbitrary one.  The comparison
    allows GHOST_SLACK, the same grace classify() gives, so magnitudes that
    sit exactly on the threshold (eps = 1/2 lands on it at every odd M)
    count as suppressed instead of chasing float noise forever.
    """
    if eps == 0:
        raise ValueError("eps = 0 is the factor case and never suppresses")
    if m_cap < 1:
        raise ValueError(f"m_cap must be >= 1, got {m_cap}")
    return _curlicue_suppressed(eps, n, range(m_cap + 1), threshold + GHOST_SLACK)


def scan_window(
    N: int, l_min: int, l_max: int, spec: SumSpec
) -> list[ClassifiedTrial]:
    """Classify every integer trial factor in [l_min, l_max], in order."""
    return list(iter_scan_window(N, l_min, l_max, spec))


def iter_scan_window(
    N: int, l_min: int, l_max: int, spec: SumSpec
) -> Iterator[ClassifiedTrial]:
    """scan_window's trials one at a time, their sums evaluated block by block.

    The window is checked on the call; a trial's errors arise when it is read.
    """
    if not 2 <= l_min <= l_max:
        raise ValueError(f"invalid window [{l_min}, {l_max}]")
    return (
        ClassifiedTrial(l, epsilon(N, l), SumValue(re, im, count), TrialClass(cls), spec)
        for rows in _classified_blocks(N, range(l_min, l_max + 1), spec)
        for l, re, im, count, cls in zip(
            rows.ls, rows.real_parts, rows.imag_parts, rows.term_counts, rows.classes
        )
    )


@dataclass(frozen=True)
class ScalingRow:
    """Suppression requirement for one target N at a fixed sum order."""

    N: int
    window: tuple[int, int]
    worst_epsilon: float
    required_M: int | None
    root_2n: float  # N**(1/(2n)), the predicted scale of required_M


def scaling_study(
    cases: Sequence[tuple[int, tuple[int, int]]],
    n: int,
    threshold: float = GHOST_THRESHOLD,
    m_cap: int = 10**5,
) -> list[ScalingRow]:
    """Minimal M pushing every non-factor of each window below threshold.

    All non-factor magnitudes are grown term by term in lockstep, as one
    array of partial sums with an entry per non-factor, and the answer for
    a window is the first M where they are simultaneously below threshold,
    with the same GHOST_SLACK grace the other threshold comparisons use.
    Some orders never get there (residue powers m**n mod l can collapse to
    a handful of values for small l), so required_M is None when m_cap is
    exhausted.
    """
    if not cases:
        raise ValueError("scaling study needs at least one (N, window) case")
    _check_order(n)
    if m_cap < 1:
        raise ValueError(f"m_cap must be >= 1, got {m_cap}")
    rows: list[ScalingRow] = []
    for N, (l_min, l_max) in cases:
        if not 2 <= l_min <= l_max:
            raise ValueError(f"invalid window [{l_min}, {l_max}]")
        nonfactors = [l for l in range(l_min, l_max + 1) if not is_factor(N, l)]
        try:
            root = N ** (1 / (2 * n))
        except OverflowError:
            raise ValueError(f"root_2n of N={N} overflows a float") from None
        if not nonfactors:
            rows.append(ScalingRow(N, (l_min, l_max), 0.0, 0, root))
            continue
        worst = min((epsilon(N, l).magnitude for l in nonfactors))
        bar = threshold + GHOST_SLACK
        required = _residue_suppressed(N, nonfactors, n, range(m_cap + 1), bar)
        rows.append(ScalingRow(N, (l_min, l_max), worst, required, root))
    return rows


def randomized_success_fraction(
    N: int,
    l_min: int,
    l_max: int,
    count: int,
    m_max: int,
    seeds: Iterable[int],
    n: int = 2,
    threshold: float = GHOST_THRESHOLD,
) -> float:
    """Fraction of seeds whose scan shows no non-factor above threshold.

    Each seed draws one m-set shared by every trial factor in the window and
    evaluates it exactly as a seeded scan does.  A seed succeeds when every
    non-factor magnitude stays at or below threshold (plus the ghost slack).
    """
    if not 2 <= l_min <= l_max:
        raise ValueError(f"invalid window [{l_min}, {l_max}]")
    seed_list = list(seeds)
    if not seed_list:
        raise ValueError("need at least one seed")
    successes = 0
    for seed in seed_list:
        spec = SumSpec(Randomized(count, m_max, seed), n)
        blocks = _classified_blocks(N, range(l_min, l_max + 1), spec, threshold)
        successes += not any(_GHOST in rows.classes for rows in blocks)
    return successes / len(seed_list)
