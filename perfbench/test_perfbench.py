"""Tests of the benchmark's own logic: term counting, output checks, tracer.

    python3 -m pytest perfbench
"""
from __future__ import annotations

import contextlib
import io
import signal
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import gaussfactor  # noqa: E402
import gaussfactor.cli as cli  # noqa: E402
from gaussfactor import ghost, spinsim  # noqa: E402

import reference  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402


def stdout_of(job: wl.Job) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(job.argv)) == 0
    return out.getvalue().encode("ascii")


SCAN = wl.scan(wl.N12, wl.truncation(19))


@pytest.fixture(scope="module")
def scan_output() -> bytes:
    return stdout_of(SCAN)


# --- term counting --------------------------------------------------------


@pytest.mark.parametrize("job, terms", [
    (SCAN, 33 * 20),
    (wl.scan(wl.N12, wl.randomized(10, 1000, 3)), 33 * 10),
    (wl.scan(wl.N12, wl.truncation(4, order=5), (1299700, 1299710), fmt="json"), 11 * 5),
    (wl.classify(10403, 97, wl.COMPLETE), 97),
    (wl.simulate(wl.N12, wl.truncation(99), "1e-3", l=1299709), 100),
    (wl.simulate(wl.N12, wl.truncation(9), "1e-3", window=(1299705, 1299712)), 8 * 10),
    # 10403 = 101 * 103: 99 non-factors in 2..101, each summed for M = 0..9
    (wl.scaling(2, [(10403, 2, 101)]), 10 * 99),
    (wl.figure("1"), 4 * 1001),
    (wl.figure("2"), 21 + 201 + 1001 + 10),
    (wl.figure("5"), 5 * 1001),
], ids=lambda value: value.label if isinstance(value, wl.Job) else str(value))
def test_term_count_from_output(job, terms):
    assert job.check(stdout_of(job)) == terms


def test_suppression_terms_are_the_first_suppressing_M_plus_one():
    job = wl.suppression("0.01")
    assert job.check(stdout_of(job)) == ghost.min_suppression_M(0.01) + 1


def test_seeded_values_leave_the_work_in_place():
    a, b = (wl.workload_jobs("wide_scan", seed) for seed in (0, 1))
    for job_a, job_b in zip(a, b):
        assert len(job_a.argv) == len(job_b.argv)
    va, vb = wl.SeededValues.from_seed(0), wl.SeededValues.from_seed(1)
    assert va != vb and wl.SeededValues.from_seed(0) == va
    for v in (va, vb):
        assert wl.N12 % v.l_complete and 1299709 < v.l_complete < 1299721
        assert abs(v.offset) <= 256


# --- output checks --------------------------------------------------------


def _edit(output: bytes, edit) -> bytes:
    lines = output.decode("ascii").splitlines()
    edit(lines)
    return ("\n".join(lines) + "\n").encode("ascii")


def _set_cell(row: int, column: int, value: str):
    def edit(lines):
        cells = lines[row].split(",")
        cells[column] = value
        lines[row] = ",".join(cells)
    return edit


def _nudge_magnitude(lines):
    cells = lines[1].split(",")
    cells[2] = repr(float(cells[2]) + 1e-6)
    lines[1] = ",".join(cells)


FACTOR_ROW = 1 + 1299709 - 1299699  # header plus offset into the default window

CORRUPTIONS = {
    "magnitude off the reference": _nudge_magnitude,
    "factor reported as a non-factor": _set_cell(FACTOR_ROW, 3, "TypicalNonFactor"),
    "non-factor reported as a factor": _set_cell(2, 3, "Factor"),
    "term count": _set_cell(5, 5, "21"),
    "magnitude above 1": _set_cell(7, 2, "1.5"),
    "epsilon": _set_cell(3, 1, "0.25"),
    "missing row": lambda lines: lines.pop(4),
    "rows out of order": lambda lines: lines.insert(3, lines.pop(4)),
    "bad header": _set_cell(0, 0, "L"),
}


def test_clean_output_passes(scan_output):
    assert SCAN.check(scan_output) == 33 * 20


@pytest.mark.parametrize("name", CORRUPTIONS)
def test_corrupted_row_is_rejected(scan_output, name):
    with pytest.raises(wl.CheckFailed):
        SCAN.check(_edit(scan_output, CORRUPTIONS[name]))


def test_corrupted_simulate_signal_is_rejected():
    job = wl.simulate(wl.N12, wl.truncation(99), "1e-3", window=(1299705, 1299712))
    output = stdout_of(job)
    with pytest.raises(wl.CheckFailed):
        job.check(_edit(output, _set_cell(1, 5, "0.9")))


def test_corrupted_suppression_answer_is_rejected():
    job = wl.suppression("0.01")
    output = stdout_of(job)
    required = int(output.decode().splitlines()[1].split(",")[4])
    with pytest.raises(wl.CheckFailed):
        job.check(_edit(output, _set_cell(1, 4, str(required + 1))))


def test_repetitions_must_be_byte_identical(scan_output):
    log = run.JobLog(SCAN)
    good = run.Execution(0, 1.0, 1.0, scan_output, b"")
    assert log.record(good) and log.record(good)
    assert not log.record(run.Execution(0, 1.0, 1.0, scan_output + b"\n", b""))
    assert log.ok == 2 and log.runs == 3 and log.problems


def test_known_defect_counts_as_failed_but_not_as_a_problem():
    job = wl.workload_jobs("pulse", 0)[-1]
    assert job.known_defect
    log = run.JobLog(job)
    assert not log.record(run.Execution(3, 1.0, 1.0, b"", b"domain error"))
    assert log.runs == 1 and log.ok == 0 and not log.problems and log.failed
    unexpected = run.JobLog(SCAN)
    unexpected.record(run.Execution(3, 1.0, 1.0, b"", b"domain error"))
    assert unexpected.problems


def test_in_process_run_matches_the_console_output(scan_output):
    ex = run.run_in_process(cli, SCAN.argv, SCAN.fmt)
    assert ex.rc == 0 and ex.stdout == scan_output
    assert 0 < ex.first_row_s <= ex.wall_s


def test_first_row_waits_for_a_whole_data_row():
    out = run._Stdout("csv")
    out.write("l,epsilon\n1,")
    assert out.first_row_ns is None
    out.write("0.5\n2,0.25\n")
    assert out.first_row_ns is not None


def test_speed_probe_leaves_out_its_own_time_and_restores_the_alarm():
    handler = signal.getsignal(signal.SIGALRM)
    with reference.SpeedProbe() as probe:
        start = time.perf_counter_ns()
        reference.reference_loop(10 * reference.REF_ITERS)
        end = time.perf_counter_ns()
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert probe.probes and len(probe.samples) == len(probe.probes) + 2
    probing = sum(e - s for s, e in probe.probes)
    speed = sum(probe.samples) / len(probe.samples)
    assert probe.normalize(start, end) == pytest.approx(
        (end - start - probing) / 1e9 * reference.REF_S / speed)


def test_parse_importtime():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:      1874 |      46689 | site",
        "import time:      3302 |      12213 |     gaussfactor.numtheory",
        "import time:      1467 |     140595 |       numpy",
        "import time:       934 |     169999 |   gaussfactor",
        "import time:      7277 |     181674 | gaussfactor.cli",
    ])
    numpy_s, package_s = run.parse_importtime(text)
    assert numpy_s == pytest.approx(0.140595)
    assert package_s == pytest.approx(0.181674 - 0.140595)


# --- tracer ---------------------------------------------------------------


def _package_namespace() -> dict:
    snapshot = {}
    for name, module in list(sys.modules.items()):
        if name == "gaussfactor" or name.startswith("gaussfactor."):
            for key, value in vars(module).items():
                snapshot[(name, key)] = value
    for key, value in vars(spinsim.PulseSequence).items():
        snapshot[("PulseSequence", key)] = value
    return snapshot


def _assert_restored(before: dict) -> None:
    after = _package_namespace()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


TRACED_JOBS = [
    wl.scan(wl.N12, wl.randomized(10, 1000, 3)),
    wl.simulate(wl.N12, wl.truncation(9), "1e-3", window=(1299705, 1299712)),
    wl.suppression("0.01"),
    wl.scaling(2, [(10403, 2, 101)]),
]


def test_tracer_restores_every_function():
    before = _package_namespace()
    tracer = Tracer()
    with tracer.installed():
        assert cli.main is not before[("gaussfactor.cli", "main")]
        assert gaussfactor.phase_fraction is not before[("gaussfactor", "phase_fraction")]
        for job in TRACED_JOBS:
            stdout_of(job)
    _assert_restored(before)
    with pytest.raises(KeyError):
        with tracer.installed():
            raise KeyError("interrupted")
    _assert_restored(before)


def test_tracer_spans_nest_and_account_for_the_wall():
    tracer = Tracer()
    for index, job in enumerate(TRACED_JOBS):
        tracer.job = index
        with tracer.installed():
            stdout_of(job)
    spans = tracer.spans
    roots = [span for span in spans if span[3] == -1]
    assert [span[0] for span in roots] == ["cli.main"] * len(TRACED_JOBS)
    for name, start, end, parent, job in spans:
        assert start <= end
        if parent != -1:
            p_name, p_start, p_end, _, p_job = spans[parent]
            assert p_start <= start and end <= p_end and job == p_job
    assert sum(tracer.self_ns_by_module().values()) == tracer.root_ns()


def test_tracer_layer_metrics():
    tracer = Tracer()
    outputs = {}
    with tracer.installed():
        for job in TRACED_JOBS:
            outputs[job] = stdout_of(job)
    m = tracer.layer_metrics(run._scaling_terms)
    sim, sup, scal = TRACED_JOBS[1], TRACED_JOBS[2], TRACED_JOBS[3]
    assert m["spinsim.simulate_calls"] == 8
    assert m["spinsim.builds_per_trial"] == 2.0
    assert m["spinsim.pulses"] == sim.check(outputs[sim])
    assert m["ghost.suppression_steps"] == sup.check(outputs[sup])
    assert m["ghost.scaling_terms"] == scal.check(outputs[scal])
    assert m["ghost.classify_calls"] == 33 and m["sums.terms"] == 330
    assert m["rng.sample_calls"] == 33 and m["rng.distinct_draw_ratio"] == 1 / 33
    assert m["cli.rows"] == 33 + 8 + 1 + 1
    assert m["cli.emit_bytes"] == sum(len(out) for out in outputs.values())
