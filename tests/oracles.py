"""Slow, obviously correct references for the package's fast paths.

Nothing in gaussfactor calls these; they live with the tests that hold the
fast paths to them.
"""
from __future__ import annotations

import json
import math
from typing import Any, Iterable, Sequence

from gaussfactor.cli import ValidationError
from gaussfactor.sums import SumValue, truncated_sum


def complete_sum_by_terms(N: int, l: int) -> SumValue:
    """The complete quadratic sum term by term: O(l) work.

    The mean of exp(2*pi*i * m**2 * N / l) over every residue m < l, through
    the package's phase kernel and fsum; the loop complete_gauss_sum ran
    before it had a closed form, bit for bit.
    """
    return truncated_sum(N, l, 2, l - 1)


def _fmt_real(x: float) -> str:
    """Shortest decimal that round-trips; integral values print as integers."""
    if x == int(x):
        return str(int(x))
    return repr(x)


def _fmt_cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _fmt_real(value)
    return str(value)


def csv_by_rows(header: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    """CSV text a row at a time, each cell through a type ladder.

    cli.emit_csv as it was before it wrote a column at a time.
    """
    if not rows:
        raise ValidationError("refusing to emit an empty table")
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def json_by_dumps(header: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    """The JSON text of json.dumps(..., indent=2): cli.emit_json as it was."""
    if not rows:
        raise ValidationError("refusing to emit an empty table")
    return json.dumps([dict(zip(header, row)) for row in rows], indent=2) + "\n"


def _compose(a: complex, b: complex, a1: complex, b1: complex) -> tuple[complex, complex]:
    """Pair of rotation (a1, b1) followed by (a, b), scaled to |a|^2 + |b|^2 = 1."""
    a, b = a * a1 - b.conjugate() * b1, b * a1 + a.conjugate() * b1
    norm = math.hypot(a.real, a.imag, b.real, b.imag)
    return a / norm, b / norm


def train_rotation(pulses: Iterable[tuple[float, float, float]]) -> tuple[complex, complex]:
    """Cayley-Klein pair of a pulse train, first pulse applied first, one pulse at a time.

    Each pulse is (cos(theta/2), sin(theta/2), phase), whose pair is
    (cos(theta/2), -i*sin(theta/2)*exp(i*phase)).  The pulses stream into a
    pairwise product tree kept on a binary-counter stack: the n-th pulse
    merges once for every trailing zero bit of n, so the stack holds blocks
    of strictly decreasing power-of-two length, earliest at the bottom.
    The stack is then folded into the identity, latest block first.
    _blocks._train_rotations builds the same tree a level at a time, in
    numpy, and must give the same bits.
    """
    stack: list[tuple[complex, complex]] = []
    cos, sin = math.cos, math.sin
    for n, (c, s, phase) in enumerate(pulses, 1):
        pair = c, complex(s * sin(phase), -s * cos(phase))
        while not n & 1:
            pair = _compose(*pair, *stack.pop())
            n >>= 1
        stack.append(pair)
    a, b = 1 + 0j, 0j
    while stack:
        a, b = _compose(a, b, *stack.pop())
    return a, b
