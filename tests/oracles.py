"""Slow, obviously correct references for the package's fast paths.

Nothing in gaussfactor calls these; they live with the tests that hold the
fast paths to them.
"""
from __future__ import annotations

from gaussfactor.sums import SumValue, truncated_sum


def complete_sum_by_terms(N: int, l: int) -> SumValue:
    """The complete quadratic sum term by term: O(l) work.

    The mean of exp(2*pi*i * m**2 * N / l) over every residue m < l, through
    the package's phase kernel and fsum; the loop complete_gauss_sum ran
    before it had a closed form, bit for bit.
    """
    return truncated_sum(N, l, 2, l - 1)
