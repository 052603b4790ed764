"""Workloads, term counting and output checks for the gaussfactor benchmark.

A workload is a fixed list of CLI jobs.  Each job knows how to check its own
stdout and how many phase terms its output stands for.  The checks recompute
factor status, fractional parts, term counts, SplitMix64 m-sets and
reference sums here, from the arithmetic the package documents, so that a
broken package cannot vouch for its own output.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Sequence

N12 = 1689259081189  # 1299709 * 1299721
N17 = 32193216510801043  # 179424673 * 179424691
# the CLI's built-in windows for the two demonstration targets
DEFAULT_WINDOWS = {N12: (1299699, 1299731), N17: (179424663, 179424701)}

THRESHOLD = 1 / math.sqrt(2)
GHOST_SLACK = 1e-9
THRESHOLD_BAND = 1e-3
REF_TOL = 1e-9  # reference sum vs reported magnitude
FLOAT_TOL = 1e-12  # values the CLI derives from its own reported numbers
SAMPLE_ROWS = 6  # evenly spaced rows per job checked against a reference sum

RESULT_HEADER = ["l", "epsilon", "magnitude", "class", "seed", "term_count"]
SIMULATE_HEADER = ["l", "epsilon", "mx", "my", "transverse", "normalized_signal", "term_count"]

_MASK64 = (1 << 64) - 1


class CheckFailed(Exception):
    """A job's output disagrees with what the benchmark recomputes."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# --- reference arithmetic -------------------------------------------------


class SplitMix64:
    """The generator the package pins down in its rng module docstring."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4B9B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)


def draw_ms(count: int, m_max: int, seed: int) -> list[int]:
    """Distinct m in first-acceptance order, by unbiased rejection sampling."""
    rng = SplitMix64(seed)
    bound = m_max + 1
    limit = (1 << 64) - ((1 << 64) % bound)
    seen: set[int] = set()
    out: list[int] = []
    while len(out) < count:
        u = rng.next_u64()
        if u >= limit:
            continue
        v = u % bound
        if v not in seen:
            seen.add(v)
            out.append(v)
    return out


def epsilon_value(N: int, l: int) -> float:
    """Signed fractional part of 2N/l in (-1, 1], rounded once from exact ints."""
    t = N % l
    return (2 * t) / l if 2 * t <= l else (2 * t - 2 * l) / l


def _mean_magnitude(re: list[float], im: list[float]) -> float:
    return math.hypot(math.fsum(re) / len(re), math.fsum(im) / len(im))


def residue_terms(N: int, l: int, n: int, ms: Sequence[int]) -> tuple[list[float], list[float]]:
    """cos and sin of 2 pi (m^n N mod l) / l, the residue reduced in integers."""
    t = N % l
    re: list[float] = []
    im: list[float] = []
    for m in ms:
        angle = math.tau * ((pow(m, n, l) * t % l) / l)
        re.append(math.cos(angle))
        im.append(math.sin(angle))
    return re, im


def reference_magnitude(N: int, l: int, n: int, ms: Sequence[int]) -> float:
    """|mean of the residue terms| over ms."""
    return _mean_magnitude(*residue_terms(N, l, n, ms))


def curlicue_terms(eps: float, n: int, ms: Sequence[int]) -> tuple[list[float], list[float]]:
    """cos and sin of pi m^n eps, reduced mod 2 in exact rationals."""
    p, q = eps.as_integer_ratio()
    re: list[float] = []
    im: list[float] = []
    for m in ms:
        angle = math.pi * ((pow(m, n) * p) % (2 * q) / q)
        re.append(math.cos(angle))
        im.append(math.sin(angle))
    return re, im


def curlicue_magnitudes(eps: float, n: int, Ms: Sequence[int]) -> dict[int, float]:
    """Reference |s_M(eps)| at each requested truncation M."""
    re, im = curlicue_terms(eps, n, range(max(Ms) + 1))
    return {M: _mean_magnitude(re[: M + 1], im[: M + 1]) for M in Ms}


def sample_indices(count: int, always: Sequence[int] = ()) -> list[int]:
    """A fixed, evenly spaced sample of row indices plus the ones named."""
    if count == 0:
        return []
    picks = {i * (count - 1) // (SAMPLE_ROWS - 1) for i in range(SAMPLE_ROWS)}
    return sorted(picks | set(always))


# --- output parsing -------------------------------------------------------


def _csv(stdout: bytes, header: Sequence[str]) -> list[list[str]]:
    lines = stdout.decode("ascii").splitlines()
    _require(bool(lines) and lines[0].split(",") == list(header), f"bad header {lines[:1]}")
    rows = [line.split(",") for line in lines[1:]]
    _require(all(len(r) == len(header) for r in rows), "row with the wrong number of cells")
    _require(bool(rows), "no data rows")
    return rows


@dataclass(frozen=True)
class ResultRow:
    l: int
    eps: float
    magnitude: float
    trial_class: str
    seed: int | None
    term_count: int


def _result_row(cells: Sequence) -> ResultRow:
    l, eps, mag, cls, seed, terms = cells
    return ResultRow(int(l), float(eps), float(mag), cls,
                     None if seed in ("", None) else int(seed), int(terms))


def parse_result_rows(stdout: bytes, fmt: str) -> list[ResultRow]:
    if fmt == "json":
        objs = json.loads(stdout)
        _require(isinstance(objs, list) and bool(objs), "JSON output is not a non-empty list")
        _require(all(list(o) == RESULT_HEADER for o in objs), "JSON rows with wrong keys")
        return [_result_row([o[k] for k in RESULT_HEADER]) for o in objs]
    return [_result_row(cells) for cells in _csv(stdout, RESULT_HEADER)]


# --- strategies -----------------------------------------------------------


@dataclass(frozen=True)
class Strategy:
    """Term selection of a sum: all m up to M, a seeded draw, or all residues."""

    kind: str  # "truncation", "randomized" or "complete"
    order: int = 2
    M: int = 0
    count: int = 0
    m_max: int = 0
    seed: int = 0

    def argv(self) -> list[str]:
        order = [] if self.order == 2 else ["--order", str(self.order)]
        if self.kind == "truncation":
            return order + ["--truncation", str(self.M)]
        if self.kind == "randomized":
            return order + ["--count", str(self.count), "--m-max", str(self.m_max),
                            "--seed", str(self.seed)]
        return order + ["--complete"]

    def term_count(self, l: int) -> int:
        if self.kind == "truncation":
            return self.M + 1
        if self.kind == "randomized":
            return self.count
        return l

    def ms(self, l: int) -> Sequence[int]:
        if self.kind == "truncation":
            return range(self.M + 1)
        if self.kind == "randomized":
            return draw_ms(self.count, self.m_max, self.seed)
        return range(l)

    @property
    def seed_cell(self) -> int | None:
        return self.seed if self.kind == "randomized" else None


def truncation(M: int, order: int = 2) -> Strategy:
    return Strategy("truncation", order, M=M)


def randomized(count: int, m_max: int, seed: int, order: int = 2) -> Strategy:
    return Strategy("randomized", order, count=count, m_max=m_max, seed=seed)


COMPLETE = Strategy("complete")


# --- checks ---------------------------------------------------------------


def _expected_class(N: int, l: int, magnitude: float) -> str:
    if N % l == 0:
        return "Factor"
    if magnitude > THRESHOLD + GHOST_SLACK:
        return "GhostFactor"
    if abs(magnitude - THRESHOLD) <= THRESHOLD_BAND:
        return "ThresholdNonFactor"
    return "TypicalNonFactor"


def _covers(ls: Sequence[int], window: tuple[int, int]) -> None:
    _require(list(ls) == list(range(window[0], window[1] + 1)),
             f"rows do not cover the window {window} in order")


def check_result_rows(rows: Sequence[ResultRow], N: int, window: tuple[int, int],
                      strategy: Strategy) -> int:
    """Check scan/classify rows; return the number of terms they evaluated."""
    _covers([r.l for r in rows], window)
    for r in rows:
        _require(r.eps == epsilon_value(N, r.l), f"l={r.l}: epsilon {r.eps} is not exact")
        _require(r.term_count == strategy.term_count(r.l),
                 f"l={r.l}: term_count {r.term_count} does not match the strategy")
        _require(0.0 <= r.magnitude <= 1.0 + FLOAT_TOL, f"l={r.l}: magnitude {r.magnitude} outside [0, 1]")
        _require(r.trial_class == _expected_class(N, r.l, r.magnitude),
                 f"l={r.l}: class {r.trial_class} is wrong")
        _require(r.seed == strategy.seed_cell, f"l={r.l}: seed cell {r.seed} is wrong")
    factors = [i for i, r in enumerate(rows) if N % r.l == 0]
    for i in sample_indices(len(rows), factors):
        r = rows[i]
        ref = reference_magnitude(N, r.l, strategy.order, strategy.ms(r.l))
        _require(abs(ref - r.magnitude) <= REF_TOL,
                 f"l={r.l}: magnitude {r.magnitude} differs from the reference {ref}")
    return sum(r.term_count for r in rows)


def small_angle_tolerance(total_angle: float) -> float:
    """How far a simulated signal may sit from the analytic sum magnitude.

    The per-pulse rotations commute only to second order in the flip angle,
    so the gap grows like the square of the train's total angle.
    """
    return total_angle**2 + REF_TOL


def check_simulate_rows(stdout: bytes, N: int, window: tuple[int, int],
                        strategy: Strategy, theta: float) -> int:
    rows = _csv(stdout, SIMULATE_HEADER)
    ls = [int(r[0]) for r in rows]
    _covers(ls, window)
    for l, cells in zip(ls, rows):
        eps, mx, my, transverse, signal = map(float, cells[1:6])
        terms = int(cells[6])
        _require(eps == epsilon_value(N, l), f"l={l}: epsilon {eps} is not exact")
        _require(terms == strategy.term_count(l), f"l={l}: term_count {terms} does not match the strategy")
        _require(abs(transverse - math.hypot(mx, my)) <= FLOAT_TOL, f"l={l}: transverse is not |(mx, my)|")
        _require(transverse <= 0.5 + FLOAT_TOL, f"l={l}: transverse {transverse} exceeds 1/2")
        _require(-REF_TOL <= signal <= 1 + REF_TOL, f"l={l}: signal {signal} outside [0, 1]")
        if N % l == 0:
            _require(abs(signal - 1) <= REF_TOL, f"factor l={l} reads {signal}, not 1")
    factors = [i for i, l in enumerate(ls) if N % l == 0]
    for i in sample_indices(len(rows), factors):
        l = ls[i]
        signal = float(rows[i][5])
        ref = reference_magnitude(N, l, strategy.order, strategy.ms(l))
        tol = small_angle_tolerance(theta * strategy.term_count(l))
        _require(abs(signal - ref) <= tol, f"l={l}: signal {signal} vs reference {ref} beyond {tol}")
    return sum(int(r[6]) for r in rows)


def check_suppression(stdout: bytes, eps: float, order: int, m_cap: int) -> int:
    (row,) = _csv(stdout, ["epsilon", "order", "threshold", "m_cap", "required_M"])
    _require([float(row[0]), int(row[1]), float(row[2]), int(row[3])]
             == [eps, order, THRESHOLD, m_cap], f"row does not echo the inputs: {row}")
    if row[4] == "":
        return m_cap + 1
    M = int(row[4])
    mags = curlicue_magnitudes(eps, order, [max(M - 1, 0), M])
    _require(mags[M] <= THRESHOLD + GHOST_SLACK + REF_TOL, f"|s_{M}| = {mags[M]} is not suppressed")
    _require(M == 0 or mags[M - 1] > THRESHOLD + GHOST_SLACK - REF_TOL,
             f"|s_{M - 1}| = {mags[M - 1]} is already suppressed, so {M} is not the first M")
    return M + 1


def nonfactors(N: int, window: tuple[int, int]) -> list[int]:
    return [l for l in range(window[0], window[1] + 1) if N % l != 0]


def scaling_terms(required_M: int | None, m_cap: int, nonfactor_count: int) -> int:
    """Terms a lockstep scaling study evaluates: every non-factor, every M up to the answer."""
    steps = m_cap + 1 if required_M is None else required_M + 1
    return steps * nonfactor_count


def check_scaling(stdout: bytes, order: int, cases: Sequence[tuple[int, int, int]],
                  m_cap: int) -> int:
    rows = _csv(stdout, ["N", "l_min", "l_max", "worst_epsilon", "required_M", "root_2n"])
    _require(len(rows) == len(cases), "one row per case expected")
    terms = 0
    for (N, lo, hi), row in zip(cases, rows):
        _require([int(c) for c in row[:3]] == [N, lo, hi], f"row does not echo its case: {row}")
        ls = nonfactors(N, (lo, hi))
        worst = min(abs(epsilon_value(N, l)) for l in ls)
        _require(float(row[3]) == worst, f"worst epsilon {row[3]} is not {worst}")
        _require(float(row[5]) == N ** (1 / (2 * order)), f"root_2n {row[5]} is wrong")
        M = None if row[4] == "" else int(row[4])
        if M is not None:
            above = False
            for l in ls:
                re, im = residue_terms(N, l, order, range(M + 1))
                _require(_mean_magnitude(re, im) <= THRESHOLD + GHOST_SLACK + REF_TOL,
                         f"N={N} l={l} is not suppressed at M={M}")
                if M and _mean_magnitude(re[:-1], im[:-1]) > THRESHOLD + GHOST_SLACK - REF_TOL:
                    above = True
            _require(M == 0 or above, f"N={N}: M={M} is not the first suppressing M")
        terms += scaling_terms(M, m_cap, len(ls))
    return terms


def check_curlicue_figure(stdout: bytes, key: str, series: Sequence[tuple[float, int]],
                          max_truncation: int) -> int:
    """Figures 1 and 5: |s_M| for M = 0..max_truncation per (epsilon, order) series."""
    rows = _csv(stdout, [key, "M", "magnitude"])
    per = max_truncation + 1
    _require(len(rows) == per * len(series), f"{len(rows)} rows, expected {per * len(series)}")
    sample = (0, 1, 10, 100, max_truncation)
    for k, (eps, order) in enumerate(series):
        block = rows[k * per:(k + 1) * per]
        label = eps if key == "epsilon" else order
        _require(all(float(r[0]) == label for r in block), f"series {label} mislabelled")
        _require([int(r[1]) for r in block] == list(range(per)), f"series {label}: M not 0..{max_truncation}")
        mags = [float(r[2]) for r in block]
        _require(all(0.0 <= x <= 1.0 + FLOAT_TOL for x in mags), f"series {label}: magnitude outside [0, 1]")
        for M, ref in curlicue_magnitudes(eps, order, sample).items():
            _require(abs(mags[M] - ref) <= REF_TOL, f"series {label}, M={M}: {mags[M]} vs reference {ref}")
    return len(rows)


def check_walk_figure(stdout: bytes, eps: float, order: int, truncations: Sequence[int],
                      random: tuple[int, int, int]) -> int:
    """Figure 2: term-by-term partial sums of the curlicue walk."""
    rows = _csv(stdout, ["series", "m", "term_real", "term_imag", "partial_real",
                         "partial_imag", "magnitude"])
    count, m_max, seed = random
    walks = [(f"M{M}", list(range(M + 1))) for M in truncations]
    walks.append((f"random{count}", draw_ms(count, m_max, seed)))
    _require(len(rows) == sum(len(ms) for _, ms in walks), "wrong number of rows")
    start = 0
    for name, ms in walks:
        block = rows[start:start + len(ms)]
        start += len(ms)
        _require([r[0] for r in block] == [name] * len(ms), f"series {name} mislabelled")
        _require([int(r[1]) for r in block] == ms, f"series {name}: wrong m sequence")
        re, im = curlicue_terms(eps, order, ms)
        for i, r in enumerate(block):
            term_re, term_im, part_re, part_im, mag = map(float, r[2:])
            _require(abs(term_re - re[i]) <= FLOAT_TOL and abs(term_im - im[i]) <= FLOAT_TOL,
                     f"series {name}, m={ms[i]}: wrong term")
            _require(abs(mag - math.hypot(part_re, part_im) / (i + 1)) <= FLOAT_TOL,
                     f"series {name}, m={ms[i]}: magnitude is not |partial| / count")
        for i in sample_indices(len(ms)):
            ref = _mean_magnitude(re[: i + 1], im[: i + 1])
            _require(abs(float(block[i][6]) - ref) <= REF_TOL,
                     f"series {name}, row {i}: magnitude vs reference {ref}")
    return len(rows)


# --- jobs -----------------------------------------------------------------


@dataclass(frozen=True)
class Job:
    """One CLI call: its argv and a check that returns its term count."""

    argv: tuple[str, ...]
    check: Callable[[bytes], int]
    fmt: str = "csv"
    # a failure the program is known to have; the job stays in its workload
    # so that the failure is counted instead of hidden
    known_defect: str | None = None

    @property
    def label(self) -> str:
        return " ".join(self.argv)


def _window_argv(window: tuple[int, int] | None) -> list[str]:
    return [] if window is None else ["--window", f"{window[0]}:{window[1]}"]


def scan(N: int, strategy: Strategy, window: tuple[int, int] | None = None,
         fmt: str = "csv") -> Job:
    argv = ["scan", "--n", str(N), *_window_argv(window), *strategy.argv()]
    if fmt != "csv":
        argv += ["--format", fmt]
    covered = window or DEFAULT_WINDOWS[N]
    return Job(tuple(argv),
               lambda out: check_result_rows(parse_result_rows(out, fmt), N, covered, strategy),
               fmt)


def classify(N: int, l: int, strategy: Strategy) -> Job:
    argv = ["classify", "--n", str(N), "--l", str(l), *strategy.argv()]
    return Job(tuple(argv),
               lambda out: check_result_rows(parse_result_rows(out, "csv"), N, (l, l), strategy))


def simulate(N: int, strategy: Strategy, theta: str, window: tuple[int, int] | None = None,
             l: int | None = None, known_defect: str | None = None) -> Job:
    where = ["--l", str(l)] if l is not None else _window_argv(window)
    covered = (l, l) if l is not None else (window or DEFAULT_WINDOWS[N])
    argv = ["simulate", "--n", str(N), *where, *strategy.argv(), "--theta", theta]
    return Job(tuple(argv),
               lambda out: check_simulate_rows(out, N, covered, strategy, float(theta)),
               known_defect=known_defect)


def suppression(eps: str) -> Job:
    return Job(("suppression", "--epsilon", eps),
               lambda out: check_suppression(out, float(eps), 2, 10**6))


def scaling(order: int, cases: Sequence[tuple[int, int, int]]) -> Job:
    argv = ["scaling"] + ([] if order == 2 else ["--order", str(order)])
    for N, lo, hi in cases:
        argv += ["--case", f"{N}:{lo}:{hi}"]
    return Job(tuple(argv), lambda out: check_scaling(out, order, cases, 10**5))


# The parameters of the package's figure defaults, restated so that a change
# to the amount of work a figure does fails its check instead of passing
# silently as a speed-up.
_FIG3_WINDOW = (1299699, 1299731)
_FIG3_TRACES = (("upper", truncation(19)), ("middle", randomized(10, 1000, 0)),
                ("lower", truncation(10, order=5)))
_FIG4 = (N17, (179424663, 179424701), randomized(10, 5000, 0))


def _check_figure_3(out: bytes) -> int:
    cells = _csv(out, ["trace"] + RESULT_HEADER)
    per = _FIG3_WINDOW[1] - _FIG3_WINDOW[0] + 1
    _require(len(cells) == per * len(_FIG3_TRACES), "wrong number of rows")
    terms = 0
    for k, (name, strategy) in enumerate(_FIG3_TRACES):
        block = cells[k * per:(k + 1) * per]
        _require(all(c[0] == name for c in block), f"trace {name} mislabelled")
        terms += check_result_rows([_result_row(c[1:]) for c in block], N12, _FIG3_WINDOW, strategy)
    return terms


_FIGURE_CHECKS: dict[str, Callable[[bytes], int]] = {
    "1": lambda out: check_curlicue_figure(
        out, "epsilon", [(e, 2) for e in (0.01, 0.001, 0.0001, 1e-05)], 1000),
    "2": lambda out: check_walk_figure(out, 4e-05, 2, (20, 200, 1000), (10, 1000, 0)),
    "3": _check_figure_3,
    "4": lambda out: check_result_rows(parse_result_rows(out, "csv"), *_FIG4),
    "5": lambda out: check_curlicue_figure(
        out, "order", [(1e-06, n) for n in (2, 3, 4, 5, 6)], 1000),
}


def figure(k: str) -> Job:
    return Job(("reproduce-figure", k), _FIGURE_CHECKS[k])


@dataclass(frozen=True)
class SeededValues:
    """What the workload seed moves.  None of it changes a job's trial count,
    and only the complete-sum l changes a term count: by at most 8 in
    1299711 and 14 in 65537."""

    S: int  # the randomized-sum seed
    offset: int  # shift of every explicit scan or simulate window
    l_complete: int  # classify --complete trial factor, between the two factors of N12
    l_pulse: int  # simulate --complete trial factor; every one of these hits the trace defect

    @classmethod
    def from_seed(cls, seed: int) -> "SeededValues":
        rng = SplitMix64(seed)
        return cls(S=rng.next_u64() >> 32,
                   offset=rng.next_u64() % 513 - 256,
                   l_complete=1299711 + rng.next_u64() % 9,
                   l_pulse=65537 + 2 * (rng.next_u64() % 8))


def _shift(window: tuple[int, int], offset: int) -> tuple[int, int]:
    return window[0] + offset, window[1] + offset


def workload_jobs(name: str, seed: int) -> list[Job]:
    """The job list of a workload, with its seeded values filled in."""
    v = SeededValues.from_seed(seed)
    o = v.offset
    if name == "wide_scan":
        return [
            scan(N12, truncation(19), _shift((1289709, 1309709), o)),
            scan(N17, randomized(10, 5000, v.S), _shift((179414673, 179434673), o)),
            scan(N12, truncation(10, order=5), _shift((1294709, 1304709), o), fmt="json"),
            figure("3"),
            figure("4"),
        ]
    if name == "deep_sum":
        return [
            scan(N17, truncation(30000)),
            classify(N12, v.l_complete, COMPLETE),
            scan(N12, randomized(2000, 1000000, v.S)),
            classify(N17, 179424673, truncation(200000, order=5)),
        ]
    if name == "study":
        return [
            suppression("1e-12"),
            scaling(2, [(10403, 2, 101), (N12, 1299000, 1300400)]),
            scaling(3, [(N12, 1299699, 1299731), (N17, 179423673, 179425673)]),
            figure("1"),
            figure("2"),
            figure("5"),
        ]
    if name == "pulse":
        return [
            simulate(N12, truncation(2999), "1e-5"),
            simulate(N12, truncation(19), "0.0025", window=_shift((1299000, 1300000), o)),
            simulate(N17, randomized(10, 5000, 0), "0.01"),
            simulate(N12, COMPLETE, "1e-6", l=v.l_pulse,
                     known_defect="long pulse trains drift past the density-matrix trace "
                                  "tolerance and exit 3"),
        ]
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("wide_scan", "deep_sum", "study", "pulse")
