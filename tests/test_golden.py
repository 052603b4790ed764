"""Replay the golden CLI corpus: the same argv must give the same output.

Two levels.  Always: the exit code, every non-float cell exactly and every
float cell within 1e-12.  Only on the platform that recorded the corpus
(machine, libc, numpy): the stdout sha256 too, because math.cos and numpy
may round differently on another build.  See tests/golden_corpus.py for
how to regenerate it.
"""
import csv
import json
import math
import re
import shlex
from pathlib import Path

import pytest

import golden_corpus

INDEX = json.loads(golden_corpus.INDEX.read_text(encoding="utf-8"))
SAME_PLATFORM = INDEX["platform"] == golden_corpus.platform_tag()
README = Path(__file__).resolve().parents[1] / "README.md"
FLOAT_TOL = 1e-12  # absolute, and relative for cells above 1


def _readme_examples() -> dict[tuple[str, ...], list[str]]:
    """argv of each `$ gaussfactor ...` README example -> the lines it shows."""
    examples: dict[tuple[str, ...], list[str]] = {}
    in_block, shown = False, None
    for line in README.read_text("utf-8").splitlines():
        if line.startswith("```"):
            in_block, shown = not in_block, None
        elif in_block and line.startswith("$ gaussfactor "):
            shown = examples.setdefault(tuple(shlex.split(line[14:], comments=True)), [])
        elif shown is not None and line != "...":
            shown.append(line)
    return examples


README_EXAMPLES = _readme_examples()


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


def _assert_same_table(want: str, got: str, is_json: bool) -> None:
    if is_json:
        assert _same_json(json.loads(want), json.loads(got))
        return
    want_rows = list(csv.reader(want.splitlines()))
    got_rows = list(csv.reader(got.splitlines()))
    assert len(want_rows) == len(got_rows)
    for k, (w, g) in enumerate(zip(want_rows, got_rows)):
        assert len(w) == len(g) and all(map(_same_cell, w, g)), f"line {k + 1}: {g} != {w}"


@pytest.mark.parametrize("case", INDEX["cases"], ids=lambda case: case["name"])
def test_golden(case):
    want = (golden_corpus.GOLDEN / f"{case['name']}.out").read_bytes().decode("utf-8")
    code, got = golden_corpus.run(case["argv"])
    assert code == case["exit"]
    if want or got:
        _assert_same_table(want, got, "json" in case["argv"])
    if SAME_PLATFORM:
        assert golden_corpus.sha256(got) == case["sha256"]
    # what the README shows of this run must appear in it, in order
    lines = iter(got.splitlines())
    for shown in README_EXAMPLES.get(tuple(case["argv"]), []):
        assert shown in lines, f"README line not in output, in order: {shown}"


def test_every_readme_example_is_recorded():
    recorded = {tuple(case["argv"]) for case in INDEX["cases"]}
    assert README_EXAMPLES
    assert set(README_EXAMPLES) <= recorded
