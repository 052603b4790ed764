"""Replay the golden CLI corpus: the same argv must give the same output.

Two levels.  Always: the exit code, every non-float cell exactly and every
float cell within 1e-12 (golden_rule).  Only on the platform that recorded
the corpus (machine, libc, numpy): the stdout sha256 too, because math.cos
and numpy may round differently on another build.  See
tests/golden_corpus.py for how to regenerate it.
"""
import json
import shlex
from pathlib import Path

import pytest

import golden_corpus
from golden_rule import assert_same_table

INDEX = json.loads(golden_corpus.INDEX.read_text(encoding="utf-8"))
SAME_PLATFORM = INDEX["platform"] == golden_corpus.platform_tag()
README = Path(__file__).resolve().parents[1] / "README.md"


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


@pytest.mark.parametrize("case", INDEX["cases"], ids=lambda case: case["name"])
def test_golden(case):
    want = (golden_corpus.GOLDEN / f"{case['name']}.out").read_bytes().decode("utf-8")
    code, got = golden_corpus.run(case["argv"])
    assert code == case["exit"]
    if want or got:
        assert_same_table(want, got, "json" in case["argv"])
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
