"""Benchmark of the gaussfactor CLI, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seconds S

Run it from the root of a checkout; it builds nothing and imports the package
from the checkout's own src/.  Each workload (see workloads.py) is a fixed
list of CLI jobs.  The seed moves only values that leave the amount of work
in place: the randomized-sum seed, the offset of the scan windows and the l
of the complete sums.

Times are normalized to a fixed speed of the machine (see reference.py): a
plain-Python reference loop is timed every few milliseconds while the
measured code runs, and each time is reported in seconds of a machine on
which that loop takes REF_S.  A change to the package moves these figures
as it moves wall time; a change in the speed the shared host gives this
process moves the reference loop with them and cancels.  Each record under
perfbench/out/ keeps the raw seconds as well.

--trace 0 first runs each job once as a subprocess of the console entry
point, for its exit code, its output and its peak RSS.  It then calls
gaussfactor.cli.main in this process, cycling through the job list until
the jobs have run for --seconds (each at least three times), and reports

    setup_s       median time a fresh interpreter takes to import gaussfactor.cli,
                  on its main thread's CPU clock (see TIMED_IMPORT)
    wall_s        sum over jobs of the median time of a job
    terms_per_s   phase terms of the successful jobs per second of wall_s
    first_row_s   sum over jobs of the median time to the first data row
    peak_rss_mib  largest peak RSS of any job, from the subprocess runs
    ok_frac       share of jobs that exit 0 and pass their output check

--trace 1 replays the same jobs in this process, alternating untraced
passes with passes traced by tracer.py, and reports the per-layer metrics
(raw seconds), the tracing overhead and the import-time breakdown.  It also
writes every span of the last traced pass.

Outputs are checked outside the timed region: the first run of each job in
full against the benchmark's own reference arithmetic, later runs for
byte-identical stdout.  An operation is one job of the list: it fails if
any of its runs exits non-zero or fails a check.  The last line of stdout
is one JSON object with the keys correct, attempted, failed and metrics; a
fuller record goes to perfbench/out/.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import importlib.metadata
import io
import itertools
import json
import os
import platform
import selectors
import signal
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import workloads
from reference import REF_S, SpeedProbe
from tracer import MODULES, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_PASSES = 3  # job medians need at least this many runs, whatever --seconds says
SETUP_REPS = 9  # fresh interpreters timed for setup_s, at least
SETUP_EARLY = 3  # of them timed before the jobs, the rest one per pass over the jobs
IMPORT_REPS = 5  # fresh interpreters parsed for the import-time breakdown
RUN_DEADLINE_S = 160  # a run that gets here kills its job and stops

# What the gaussfactor console script runs, plus a last stderr line with the
# child's peak RSS.  The rusage a parent reaps is no use for that: Linux
# carries the forking process's high-water mark into the child's ru_maxrss,
# so every job would read at least as large as this benchmark process.
CLI_ENTRY = (
    "import sys\n"
    "from gaussfactor.cli import main\n"
    "rc = main()\n"
    "with open('/proc/self/status') as fh:\n"
    "    sys.stderr.write(''.join(line for line in fh if line.startswith('VmHWM:')))\n"
    "sys.exit(rc)\n"
)
PEAK_RSS_MARKER = b"VmHWM:"
IMPORT_ONLY = "import gaussfactor.cli"
# A fresh interpreter times its own import of the package on its main
# thread's CPU clock, between reference loops timed on the same clock, and
# prints (normalized, raw wall) seconds.  The CPU clock leaves out the spells
# in which the import waits with the CPU idle; those come and go with the
# shared host in phases of minutes, 0 or 60 ms at a time.
TIMED_IMPORT = (
    "import sys, time\n"
    f"sys.path.insert(0, {str(HERE)!r})\n"
    "from reference import REF_S, cpu_reference\n"
    "before = cpu_reference()\n"
    "wall, cpu = time.perf_counter_ns(), time.thread_time_ns()\n"
    "import gaussfactor.cli\n"
    "cpu, wall = time.thread_time_ns() - cpu, time.perf_counter_ns() - wall\n"
    "after = cpu_reference()\n"
    "print(cpu / 1e9 * REF_S * 2 / (before + after), wall / 1e9)\n"
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "terms_per_s": "1/s",
    "first_row_s": "s",
    "peak_rss_mib": "MiB",
    "ok_frac": "ratio",
}


class BenchError(Exception):
    """The benchmark cannot run here at all."""


@dataclass
class Execution:
    rc: int
    wall_s: float
    first_row_s: float  # the job's wall time when no data row ever arrived
    stdout: bytes
    stderr: bytes
    rss_kib: int = 0
    stamps_ns: tuple[int, int, int] = (0, 0, 0)  # in-process runs: start, first row, end


@dataclass
class JobLog:
    """Every run of one job: timings, and the verdict on its output."""

    job: workloads.Job
    walls: list[float] = field(default_factory=list)  # normalized seconds
    first_rows: list[float] = field(default_factory=list)  # normalized seconds
    raw_walls: list[float] = field(default_factory=list)
    rss_kib: int = 0
    runs: int = 0
    ok: int = 0
    terms: int = 0
    digest: str | None = None
    problems: list[str] = field(default_factory=list)

    def record(self, ex: Execution) -> bool:
        """Account one run; the output check happens here, untimed."""
        self.runs += 1
        if ex.rc != 0:
            if self.job.known_defect is None:
                reason = ex.stderr.decode(errors="replace").strip()[-200:]
                self.problems.append(f"exit {ex.rc}: {reason}")
            return False
        digest = hashlib.sha256(ex.stdout).hexdigest()
        if self.digest is None:
            try:
                self.terms = self.job.check(ex.stdout)
            except (workloads.CheckFailed, ValueError, KeyError, TypeError) as exc:
                self.problems.append(f"output check failed: {exc}")
                return False
            self.digest = digest
        elif digest != self.digest:
            self.problems.append("stdout differs from the first run")
            return False
        self.ok += 1
        return True

    @property
    def failed(self) -> bool:
        return self.ok < self.runs


def spawn(argv: list[str], deadline: float) -> Execution:
    """Run one child to completion and read its peak RSS."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=env,
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    out, err = bytearray(), bytearray()
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ, out)
            sel.register(proc.stderr, selectors.EVENT_READ, err)
            while sel.get_map():
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    proc.kill()
                    break
                for key, _ in sel.select(remaining):
                    chunk = os.read(key.fd, 1 << 16)
                    if not chunk:
                        sel.unregister(key.fileobj)
                        continue
                    key.data.extend(chunk)
    except BaseException:
        proc.kill()
        raise
    finally:
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
    err_text, marker, peak = bytes(err).partition(PEAK_RSS_MARKER)
    rss_kib = int(peak.split()[0]) if marker else usage.ru_maxrss
    return Execution(proc.returncode, wall, wall, bytes(out), err_text, rss_kib)


def time_import(deadline: float) -> tuple[float, float]:
    """(normalized, raw wall) seconds a fresh interpreter takes to import gaussfactor.cli."""
    ex = spawn(["-c", TIMED_IMPORT], deadline)
    if ex.rc != 0:
        raise BenchError(f"importing gaussfactor.cli failed: {ex.stderr.decode(errors='replace')}")
    normalized, raw = map(float, ex.stdout.split())
    return normalized, raw


def parse_importtime(stderr: str) -> tuple[float, float]:
    """(numpy, gaussfactor without numpy) cumulative import seconds.

    Reads the `-X importtime` table: a line per module with self and
    cumulative microseconds, nested by the indentation of the module name.
    """
    numpy_us = package_us = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue  # the header
        depth = len(name) - len(name.lstrip(" "))
        name = name.strip()
        if name == "numpy":
            numpy_us += int(cumulative)
        elif depth == 1 and (name == "gaussfactor" or name.startswith("gaussfactor.")):
            package_us += int(cumulative)
    # the interpreter imports nothing but the package, so numpy, if it is
    # imported at all, is nested inside the package's own cumulative time
    return numpy_us / 1e6, (package_us - numpy_us) / 1e6


def measure_imports(deadline: float) -> tuple[float, float]:
    numpy_s, package_s = [], []
    for _ in range(IMPORT_REPS):
        ex = spawn(["-X", "importtime", "-c", IMPORT_ONLY], deadline)
        numpy, package = parse_importtime(ex.stderr.decode())
        numpy_s.append(numpy)
        package_s.append(package)
    return statistics.median(numpy_s), statistics.median(package_s)


def metadata(seed: int) -> dict:
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    commit = None
    if (ROOT / ".git").exists():  # an exported checkout has no history to name
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {"seed": seed, "nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy, "commit": commit,
            "ref_s": REF_S}


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _load_cli():
    sys.path.insert(0, str(SRC))
    import gaussfactor.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "gaussfactor":
        raise BenchError(f"gaussfactor imported from {cli.__file__}, not from {SRC}")
    return cli


class _Stdout(io.StringIO):
    """Captures a job's stdout and the moment its first data row is complete."""

    def __init__(self, fmt: str) -> None:
        super().__init__()
        self.fmt = fmt
        self.line_ends = 0
        self.first_row_ns: int | None = None

    def write(self, text: str) -> int:
        written = super().write(text)
        if self.first_row_ns is None:
            if self.fmt == "json":
                done = "}" in text
            else:
                self.line_ends += text.count("\n")
                done = self.line_ends >= 2
            if done:
                self.first_row_ns = time.perf_counter_ns()
        return written


def run_in_process(cli, argv: tuple[str, ...], fmt: str = "csv") -> Execution:
    out, err = _Stdout(fmt), io.StringIO()
    start = time.perf_counter_ns()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.main(list(argv))
    end = time.perf_counter_ns()
    first = end if out.first_row_ns is None else out.first_row_ns
    return Execution(rc, (end - start) / 1e9, (first - start) / 1e9,
                     out.getvalue().encode("ascii"), err.getvalue().encode(),
                     stamps_ns=(start, first, end))


def run_untraced(jobs: list[workloads.Job], seconds: float,
                 deadline: float) -> tuple[list[JobLog], dict, list[str]]:
    time_import(deadline)  # warms the file cache and writes bytecode
    setups = [time_import(deadline) for _ in range(SETUP_EARLY)]
    logs = [JobLog(job) for job in jobs]
    # the console entry point, once per job: exit code, output and peak RSS;
    # the full output check runs on these
    for log in logs:
        ex = spawn(["-c", CLI_ENTRY, *log.job.argv], deadline)
        log.rss_kib = ex.rss_kib
        log.record(ex)
    cli = _load_cli()
    # warm-up: first-call costs; the in-process output must equal the console's
    for log in logs:
        log.record(run_in_process(cli, log.job.argv, log.job.fmt))
    measured = 0.0
    # cycle through the jobs until they have run for `seconds`, stopping
    # between jobs; every job still gets at least MIN_PASSES timed runs
    for run_index in itertools.count():
        log = logs[run_index % len(logs)]
        done = run_index >= MIN_PASSES * len(logs) and measured >= seconds
        if done or time.perf_counter() >= deadline:
            break
        if run_index % len(logs) == 0:
            # spread over the run, so that setup_s samples the same spells as the jobs
            setups.append(time_import(deadline))
        gc.collect()
        started = time.perf_counter()
        with SpeedProbe() as probe:
            ex = run_in_process(cli, log.job.argv, log.job.fmt)
        measured += time.perf_counter() - started
        start, first_row, end = ex.stamps_ns
        log.walls.append(probe.normalize(start, end))
        log.first_rows.append(probe.normalize(start, first_row))
        log.raw_walls.append(ex.wall_s)
        log.record(ex)
    while len(setups) < SETUP_REPS:
        setups.append(time_import(deadline))
    setup_s = statistics.median(normalized for normalized, _ in setups)
    setup_raw_s = statistics.median(raw for _, raw in setups)
    wall = sum(_median(log.walls) for log in logs)
    raw_wall = sum(_median(log.raw_walls) for log in logs)
    first_row = sum(_median(log.first_rows) for log in logs)
    terms = sum(log.terms for log in logs if not log.failed)
    metrics = {
        "setup_s": setup_s,
        "wall_s": wall,
        "terms_per_s": terms / wall,
        "first_row_s": first_row,
        "peak_rss_mib": max(log.rss_kib for log in logs) / 1024,
        "ok_frac": sum(not log.failed for log in logs) / len(logs),
    }
    report = [f"raw seconds: setup {setup_raw_s:.4f}  wall {raw_wall:.4f}"
              f"  (normalized to a {REF_S * 1e3:g} ms reference loop: "
              f"setup {setup_s:.4f}  wall {wall:.4f})"]
    return logs, {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                  for name, value in metrics.items()}, report


def _scaling_terms(cases, n, m_cap, rows) -> int:
    return sum(workloads.scaling_terms(row.required_M, m_cap,
                                       len(workloads.nonfactors(N, window)))
               for (N, window), row in zip(cases, rows))


def run_traced(jobs: list[workloads.Job], seconds: float, deadline: float,
               spans_path: Path) -> tuple[list[JobLog], dict, list[str]]:
    import_numpy_s, import_package_s = measure_imports(deadline)
    cli = _load_cli()
    logs = [JobLog(job) for job in jobs]

    def one_pass(tracer: Tracer | None, keep_walls: bool = True) -> float:
        wall = 0.0
        for index, log in enumerate(logs):
            if tracer is None:
                ex = run_in_process(cli, log.job.argv, log.job.fmt)
                if keep_walls:
                    log.raw_walls.append(ex.wall_s)
            else:
                tracer.job = index
                with tracer.installed():
                    ex = run_in_process(cli, log.job.argv, log.job.fmt)
            wall += ex.wall_s
            log.record(ex)
        return wall

    one_pass(None, keep_walls=False)  # warm-up: first-call costs, and the full output checks
    untraced, traced, layers, tracer = [], [], [], None
    report: list[str] = []
    while (len(traced) < 1 or sum(untraced) + sum(traced) < seconds) and time.perf_counter() < deadline:
        untraced.append(one_pass(None))
        tracer = Tracer()
        wall = one_pass(tracer)
        traced.append(wall)
        self_ns = tracer.self_ns_by_module()
        unattributed = wall - tracer.root_ns() / 1e9
        if sum(self_ns.values()) != tracer.root_ns():
            raise BenchError("span self times do not add up to the root spans")
        metrics = tracer.layer_metrics(_scaling_terms)
        metrics.update({"trace.wall_s": wall, "trace.unattributed_s": unattributed})
        layers.append(metrics)
        report.append("traced pass: " + " + ".join(
            f"{m} {self_ns[m] / 1e9:.4f}" for m in MODULES)
            + f" + unattributed {unattributed:.4f} = {sum(self_ns.values()) / 1e9 + unattributed:.4f}"
            f" s; traced wall {wall:.4f} s")
    per_layer = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    per_layer.update({
        "cli.import_numpy_s": import_numpy_s,
        "cli.import_gaussfactor_s": import_package_s,
        "trace.untraced_wall_s": statistics.median(untraced),
        # each traced pass runs right after an untraced one; pairing them
        # keeps the machine's drift out of the difference
        "trace.overhead_s": statistics.median(t - u for u, t in zip(untraced, traced)),
        "fail_frac": sum(log.failed for log in logs) / len(logs),
    })
    write_spans(tracer, spans_path)
    return logs, {name: {"value": value, "unit": _layer_unit(name)}
                  for name, value in per_layer.items()}, report


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith("ns_per_term") or name.endswith("ns_per_pulse"):
        return "ns"
    if name.endswith("_ratio") or name.endswith("_per_trial") or name == "fail_frac":
        return "ratio"
    return "count"


def write_spans(tracer: Tracer, path: Path) -> None:
    """One JSON array per line: name, start_ns, end_ns, parent line index, job index."""
    origin = min((span[1] for span in tracer.spans), default=0)
    with open(path, "w", encoding="ascii") as fh:
        for name, start, end, parent, job in tracer.spans:
            fh.write(json.dumps([name, start - origin, end - origin, parent, job]) + "\n")


def run_workload(name: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    jobs = workloads.workload_jobs(name, seed)
    OUT.mkdir(exist_ok=True)
    stem = f"{name}_seed{seed}_trace{int(trace)}"
    if trace:
        # one span file per workload, overwritten by each traced run
        logs, metrics, report = run_traced(jobs, seconds, deadline, OUT / f"{name}_spans.jsonl")
    else:
        logs, metrics, report = run_untraced(jobs, seconds, deadline)
    result = {
        "correct": not any(log.problems for log in logs) and time.perf_counter() < deadline,
        "attempted": len(logs),
        "failed": sum(log.failed for log in logs),
        "metrics": metrics,
    }
    print(f"== {name}  seed {seed}  trace {int(trace)}")
    for log in logs:
        times = log.walls or log.raw_walls
        print(f"  {_median(times):8.4f} s  runs {log.runs:2d}  ok {log.ok:2d}"
              f"  rss {log.rss_kib / 1024:6.1f} MiB  terms {log.terms:8d}"
              f"  {log.job.label}")
        if log.job.known_defect and log.failed:
            print(f"      known defect: {log.job.known_defect}")
        for problem in dict.fromkeys(log.problems):
            print(f"      FAILED: {problem}")
    for line in report:
        print("  " + line)
    for metric, entry in metrics.items():
        print(f"  {metric:32s} {entry['value']:.6g} {entry['unit']}")
    record = {"workload": name, "trace": int(trace), "meta": metadata(seed), **result,
              "jobs": [{"argv": list(log.job.argv), "walls_s": log.walls,
                        "first_rows_s": log.first_rows, "raw_walls_s": log.raw_walls,
                        "rss_kib": log.rss_kib, "runs": log.runs, "ok": log.ok,
                        "terms": log.terms, "known_defect": log.job.known_defect,
                        "problems": log.problems}
                       for log in logs]}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="ascii")
    return result


def _exit_on_sigterm(signum, frame):
    # unwinds through spawn(), which kills and reaps the running job
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "gaussfactor" / "cli.py").is_file():
        print(f"error: no gaussfactor package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    deadline = time.perf_counter() + RUN_DEADLINE_S
    try:
        if args.workload != "all":
            result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), deadline)
        else:
            results = {(name, trace): run_workload(name, args.seed, args.seconds, trace,
                                                   time.perf_counter() + RUN_DEADLINE_S)
                       for trace in (False, True) for name in workloads.WORKLOADS}
            result = {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {f"{name}.{metric}": entry
                            for (name, trace), r in results.items() if not trace
                            for metric, entry in r["metrics"].items()},
            }
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
