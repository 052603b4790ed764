"""The golden CLI corpus: argv, exit code and stdout of each recorded run.

`tests/golden/index.json` lists every case with its argv, exit code and
stdout sha256, plus the platform tag of the machine that recorded it;
`tests/golden/<name>.out` holds the stdout itself.  `tests/test_golden.py`
replays the cases in-process.

Regenerate the corpus after an intended output change (and list each
changed case in CHANGES.md):

    PYTHONPATH=src python tests/golden_corpus.py
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import platform
from pathlib import Path

import numpy as np

from gaussfactor.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
INDEX = GOLDEN / "index.json"

N12 = "1689259081189"
N17 = "32193216510801043"
_STRATEGIES = {
    "truncation19": ["--truncation", "19"],
    "random10": ["--count", "10", "--m-max", "1000", "--seed", "0"],
    "order5": ["--truncation", "10", "--order", "5"],
}

# name -> argv; the README examples are looked up here by argv
CASES: dict[str, list[str]] = {
    **{f"figure-{k}": ["reproduce-figure", str(k)] for k in range(1, 6)},
    **{
        f"{command}-{digits}-{strategy}": [command, "--n", n, *flags, *extra]
        for command, extra in (("scan", []), ("simulate", ["--theta", "0.0025"]))
        for digits, n in (("12", N12), ("17", N17))
        for strategy, flags in _STRATEGIES.items()
    },
    # one per branch of the closed form, by c = l / gcd(N mod l, l); 1299711
    # has c = 3 mod 4
    "classify-12-complete": ["classify", "--n", N12, "--l", "1299711", "--complete"],
    "classify-12-complete-factor": ["classify", "--n", N12, "--l", "1299709", "--complete"],
    "classify-12-complete-c1mod4": ["classify", "--n", N12, "--l", "1299701", "--complete"],
    "classify-12-complete-c2mod4": ["classify", "--n", N12, "--l", "1299718", "--complete"],
    "classify-12-complete-c0mod4": ["classify", "--n", N12, "--l", "1299716", "--complete"],
    "scan-12-complete": ["scan", "--n", N12, "--window", "1299699:1299731", "--complete"],
    "scan-17-complete": ["scan", "--n", N17, "--complete"],
    "scan-17-json": ["scan", "--n", N17, "--truncation", "19", "--format", "json"],
    "scan-unknown-flag": ["scan", "--n", N12, "--truncation", "19", "--bogus"],
    "classify-12-factor": ["classify", "--n", N12, "--l", "1299709", "--truncation", "19"],
    "suppression-1e-4": ["suppression", "--epsilon", "1e-4"],
    "scaling-readme": [
        "scaling", "--case", "10403:2:101", "--case", f"{N12}:1299699:1299731",
    ],
    "simulate-12-factor": [
        "simulate", "--n", N12, "--l", "1299709", "--truncation", "19", "--theta", "0.0025",
    ],
    "classify-15-4": ["classify", "--n", "15", "--l", "4", "--truncation", "3"],
    # edges of the batched residue kernel: a window of 200 l at 201 terms
    # spans five blocks, l = 2**32 - 1 and 2**32 sit on either side of its
    # uint64 bound, m_max = 2**64 - 1 is the largest m a draw can hold, and
    # order 1000003 needs square-and-multiply
    "scan-12-blocks": ["scan", "--n", N12, "--window", "1299601:1299800", "--truncation", "200"],
    "classify-17-below-bound": ["classify", "--n", N17, "--l", "4294967295", "--truncation", "19"],
    "classify-17-above-bound": ["classify", "--n", N17, "--l", "4294967296", "--truncation", "19"],
    "classify-12-m-max-2e64": [
        "classify", "--n", N12, "--l", "1299711", "--count", "10",
        "--m-max", "18446744073709551615",
    ],
    "classify-12-order-1000003": [
        "classify", "--n", N12, "--l", "1299711", "--order", "1000003", "--truncation", "19",
    ],
    # edges of the blocked walks: m**4 crosses 2**53 at m = 9741 below the
    # answer 10110, eps of either sign, a subnormal eps that never
    # suppresses, 2,000 lockstep walks, and lockstep rows on the exact-int
    # path at l >= 2**32
    "suppression-1e-16-order4": ["suppression", "--epsilon", "1e-16", "--order", "4"],
    "suppression-neg-1e-16-order4": ["suppression", "--epsilon=-1e-16", "--order", "4"],
    "suppression-subnormal": ["suppression", "--epsilon", "5e-324", "--m-cap", "1000"],
    # curlicue phases as power-of-two residues: the order-3 walk of 980,454
    # terms crosses m**3 = 2**53, and the order-4 eps = p / 2**116 needs
    # a second 64-bit limb
    "suppression-1e-18-order3": ["suppression", "--epsilon", "1e-18", "--order", "3"],
    "suppression-neg-3.3e-20-order4": ["suppression", "--epsilon=-3.3e-20", "--order", "4"],
    "scaling-17-order3": ["scaling", "--order", "3", "--case", f"{N17}:179423673:179425673"],
    "scaling-17-above-bound": [
        "scaling", "--case", f"{N17}:4294967290:4294967300", "--m-cap", "50",
    ],
    # one-shot rows read through walk blocks: 200,001 terms at order 5 span
    # 25 blocks, and at l = 2**61 - 1 on the exact-int path the sin terms
    # fall below 2**-55, where the sum takes extra limbs
    "classify-17-order5-200000": [
        "classify", "--n", N17, "--l", "179424673", "--order", "5", "--truncation", "200000",
    ],
    "classify-61-tiny-terms": [
        "classify", "--n", "2305843009213693952", "--l", "2305843009213693951",
        "--truncation", "20000",
    ],
    # every kind of cell the emitters write, in both formats: this window
    # holds all four classes (threshold rows at 1299676 and 1299754, ghosts
    # from 1299677, both factors), a seeded scan has a non-null seed cell, a
    # subnormal eps a null required_M, and figure 2 and scaling mix text,
    # integer and float columns
    "scan-12-four-classes": [
        "scan", "--n", N12, "--window", "1299670:1299760", "--truncation", "19",
    ],
    "scan-12-four-classes-json": [
        "scan", "--n", N12, "--window", "1299670:1299760", "--truncation", "19",
        "--format", "json",
    ],
    "scan-12-random10-json": [
        "scan", "--n", N12, "--count", "10", "--m-max", "1000", "--seed", "0",
        "--format", "json",
    ],
    "suppression-subnormal-json": [
        "suppression", "--epsilon", "5e-324", "--m-cap", "1000", "--format", "json",
    ],
    "figure-2-json": ["reproduce-figure", "2", "--format", "json"],
    "scaling-10403-json": ["scaling", "--case", "10403:2:101", "--format", "json"],
    # pulse trains composed a tree level at a time: the default 33-trial
    # window of 3,000 pulses spans a lockstep block per 248 pulses, the
    # complete train of 65,537 pulses ends one past a power of two, 8,193
    # pulses end one past a 2**13 block, and l = 2**32 takes the exact-int
    # phase path
    "simulate-12-truncation2999": [
        "simulate", "--n", N12, "--truncation", "2999", "--theta", "1e-5",
    ],
    "simulate-12-complete-65537": [
        "simulate", "--n", N12, "--l", "65537", "--complete", "--theta", "1e-6",
    ],
    "simulate-12-truncation8192": [
        "simulate", "--n", N12, "--l", "1299711", "--truncation", "8192", "--theta", "5e-5",
    ],
    "simulate-17-above-bound": [
        "simulate", "--n", N17, "--l", "4294967296", "--truncation", "19", "--theta", "0.0025",
    ],
}


def platform_tag() -> dict[str, str]:
    """What decides the last bits of the floats: machine, libm and numpy."""
    return {
        "machine": platform.machine(),
        "libc": " ".join(platform.libc_ver()),
        "numpy": np.__version__,
    }


def run(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of cli.main(argv), run in this process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for stale in GOLDEN.glob("*.out"):
        stale.unlink()
    cases = []
    for name, argv in CASES.items():
        code, out = run(argv)
        (GOLDEN / f"{name}.out").write_bytes(out.encode("utf-8"))
        cases.append({"name": name, "argv": argv, "exit": code, "sha256": sha256(out)})
    index = {"platform": platform_tag(), "cases": cases}
    INDEX.write_text(json.dumps(index, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    regenerate()
