"""How a replayed golden run's stdout must match its recording, numpy or not.

Every non-float cell exactly, and every float cell within FLOAT_TOL,
absolute and relative above 1; CSV cell by cell, JSON value by value.
"""
import csv
import json
import math
import re

FLOAT_TOL = 1e-12  # absolute, and relative for cells above 1


def _same_number(want: float, got: float) -> bool:
    if math.isnan(want) or math.isnan(got):
        return math.isnan(want) and math.isnan(got)
    return want == got or abs(want - got) <= FLOAT_TOL * max(1.0, abs(want), abs(got))


def _same_cell(want: str, got: str) -> bool:
    """Integer and text cells must match exactly, float cells within tolerance."""
    if want == got:
        return True
    if re.fullmatch("-?[0-9]+", want) and re.fullmatch("-?[0-9]+", got):
        return False
    try:
        return _same_number(float(want), float(got))
    except ValueError:
        return False


def _same_json(want, got) -> bool:
    if isinstance(want, dict):
        return (isinstance(got, dict) and want.keys() == got.keys()
                and all(_same_json(want[k], got[k]) for k in want))
    if isinstance(want, list):
        return (isinstance(got, list) and len(want) == len(got)
                and all(map(_same_json, want, got)))
    if type(want) is float or type(got) is float:
        numbers = (int, float)
        return type(want) in numbers and type(got) in numbers and _same_number(want, got)
    return type(want) is type(got) and want == got


def assert_same_table(want: str, got: str, is_json: bool) -> None:
    if is_json:
        assert _same_json(json.loads(want), json.loads(got))
        return
    want_rows = list(csv.reader(want.splitlines()))
    got_rows = list(csv.reader(got.splitlines()))
    assert len(want_rows) == len(got_rows)
    for k, (w, g) in enumerate(zip(want_rows, got_rows)):
        assert len(w) == len(g) and all(map(_same_cell, w, g)), f"line {k + 1}: {g} != {w}"
