"""Light runs need no numpy: with numpy blocked, they replay the golden corpus.

A kernel call of at most sums._SCALAR_TERMS terms runs in scalar Python,
and numpy is imported at the first larger one.  One subprocess, whose
sys.modules["numpy"] is None so that any import of numpy raises, imports
the package and replays every golden run whose kernel calls all fall under
that size, then one run that does not.  This module imports neither numpy
nor golden_corpus, so it runs on an interpreter without numpy too.
"""
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

from golden_rule import assert_same_table

GOLDEN = Path(__file__).resolve().parent / "golden"
INDEX = json.loads((GOLDEN / "index.json").read_text(encoding="utf-8"))
CASES = {case["name"]: case for case in INDEX["cases"]}
SRC = Path(__file__).resolve().parents[1] / "src"
# the golden corpus's platform, but for numpy, which light runs never load
SAME_PLATFORM = (
    INDEX["platform"]["machine"] == platform.machine()
    and INDEX["platform"]["libc"] == " ".join(platform.libc_ver())
)

# golden runs whose kernel calls all have at most sums._SCALAR_TERMS terms:
# one-shot sums of 20 terms or fewer, closed-form complete sums, a
# suppression answered within its first terms, a scaling study answered
# within its first 23 prefixes of 11 walks, one-train simulations of 20
# pulses, and a flag error that reaches no kernel
LIGHT = [
    "classify-12-factor",
    "classify-15-4",
    "classify-17-below-bound",
    "classify-17-above-bound",
    "classify-12-m-max-2e64",
    "classify-12-order-1000003",
    "classify-12-complete",
    "classify-12-complete-factor",
    "classify-12-complete-c1mod4",
    "classify-12-complete-c2mod4",
    "classify-12-complete-c0mod4",
    "scan-12-complete",
    "scan-17-complete",
    "scan-unknown-flag",
    "suppression-1e-4",
    "scaling-17-above-bound",
    "simulate-12-factor",
    "simulate-17-above-bound",
]
# 33 trial factors of 20 terms: one kernel call of 660 terms
HEAVY = ["scan", "--n", "1689259081189", "--truncation", "19"]

REPLAY = r"""
import contextlib, io, json, sys

sys.modules["numpy"] = None  # any import of numpy now raises ImportError


def numpy_loaded():
    return sorted(name for name, module in sys.modules.items()
                  if module is not None and (name == "numpy" or name.startswith("numpy.")))


import gaussfactor
after_package = numpy_loaded()
from gaussfactor.cli import main
report = {"after_import": [after_package, numpy_loaded()], "runs": []}
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    report["runs"].append({"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
                           "numpy": numpy_loaded()})
print(json.dumps(report))
"""


@pytest.fixture(scope="module")
def replay() -> dict:
    """The subprocess's report: numpy modules loaded after the imports, and each run."""
    argvs = [CASES[name]["argv"] for name in LIGHT] + [HEAVY]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", REPLAY], input=json.dumps(argvs), capture_output=True,
        text=True, env=env, timeout=120, check=True,
    )
    report = json.loads(done.stdout)
    report["runs"] = dict(zip(LIGHT + ["heavy"], report["runs"]))
    return report


def test_importing_the_package_loads_no_numpy(replay):
    assert replay["after_import"] == [[], []]


@pytest.mark.parametrize("name", LIGHT)
def test_light_run_replays_without_numpy(replay, name):
    case, run = CASES[name], replay["runs"][name]
    want = (GOLDEN / f"{name}.out").read_bytes().decode("utf-8")
    assert run["exit"] == case["exit"], run["stderr"]
    assert "Traceback" not in run["stderr"]
    if want or run["stdout"]:
        assert_same_table(want, run["stdout"], "json" in case["argv"])
    if SAME_PLATFORM:
        assert run["stdout"] == want
    assert run["numpy"] == []


def test_heavy_run_without_numpy_is_a_resource_error(replay):
    run = replay["runs"]["heavy"]
    assert (run["exit"], run["stdout"]) == (2, "")
    assert run["stderr"].startswith("resource error: numpy is needed for kernel calls of more than ")
    assert "Traceback" not in run["stderr"]
    assert run["numpy"] == []
