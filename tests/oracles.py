"""Slow, obviously correct references for the package's fast paths.

Nothing in gaussfactor calls these; they live with the tests that hold the
fast paths to them.
"""
from __future__ import annotations

import json
from typing import Any, Sequence

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
