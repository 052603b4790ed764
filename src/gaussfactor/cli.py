"""Command-line surface: scans, classification, suppression and scaling
studies, spin simulation, and figure-data reproduction.

Output is CSV (default) or JSON, written to a path or stdout.  Runs with the
same arguments, including seeds, produce byte-identical output.  Exit codes:
0 success, 1 validation failure, 2 I/O failure, 3 numeric domain error.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from importlib import resources
from typing import Any, Sequence

from . import ghost, spinsim
from .numtheory import epsilon
from .rng import sample_without_replacement
from .sums import (
    Complete,
    FullTruncation,
    Randomized,
    SumSpec,
    curlicue_phase,
    iter_curlicue_magnitudes,
)

__all__ = ["main", "ResultRow", "emit_csv", "emit_json", "parse_result_csv"]

RESULT_HEADER = ["l", "epsilon", "magnitude", "class", "seed", "term_count"]


class ValidationError(Exception):
    """Bad flags or config; maps to exit code 1."""


class DomainError(Exception):
    """Numeric domain violation from the computation; maps to exit code 3."""


@dataclass(frozen=True)
class ResultRow:
    """One serialized scan entry."""

    l: int
    eps: float
    magnitude: float
    trial_class: str
    seed: int | None
    term_count: int


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


def emit_csv(header: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    """CSV text with LF endings; reals in shortest round-trip form."""
    if not rows:
        raise ValidationError("refusing to emit an empty table")
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def emit_json(header: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    if not rows:
        raise ValidationError("refusing to emit an empty table")
    objs = [dict(zip(header, row)) for row in rows]
    return json.dumps(objs, indent=2) + "\n"


def _result_cells(r: ResultRow) -> list[Any]:
    # trial-factor sized integers stay strings in JSON so consumers that
    # read numbers as doubles cannot corrupt them
    return [str(r.l), r.eps, r.magnitude, r.trial_class, r.seed, r.term_count]


def parse_result_csv(text: str) -> list[ResultRow]:
    """Inverse of emit_csv for the scan-row schema."""
    lines = text.splitlines()
    if not lines or lines[0] != ",".join(RESULT_HEADER):
        raise ValidationError("not a scan-result CSV: bad header")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(RESULT_HEADER):
            raise ValidationError(f"malformed row: {line!r}")
        rows.append(
            ResultRow(
                l=int(cells[0]),
                eps=float(cells[1]),
                magnitude=float(cells[2]),
                trial_class=cells[3],
                seed=int(cells[4]) if cells[4] else None,
                term_count=int(cells[5]),
            )
        )
    return rows


class _Parser(argparse.ArgumentParser):
    """argparse that reports flag problems as ValidationError, not exit(2)."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise ValidationError(message)


def _parse_natural(text: str, field: str) -> int:
    try:
        value = int(text, 10)
    except ValueError:
        raise ValidationError(f"{field}: {text!r} is not a decimal integer") from None
    if value < 0:
        raise ValidationError(f"{field}: must be non-negative, got {value}")
    return value


def _parse_window(text: str) -> tuple[int, int]:
    lo_text, sep, hi_text = text.partition(":")
    if not sep:
        raise ValidationError(f"--window: expected l_min:l_max, got {text!r}")
    lo = _parse_natural(lo_text, "--window")
    hi = _parse_natural(hi_text, "--window")
    if not 2 <= lo <= hi:
        raise ValidationError(f"--window: need 2 <= l_min <= l_max, got [{lo}, {hi}]")
    return lo, hi


def _window_for(args: argparse.Namespace, n_value: int) -> tuple[int, int]:
    if args.window is not None:
        return _parse_window(args.window)
    if n_value in ghost.DEFAULT_WINDOWS:
        return ghost.DEFAULT_WINDOWS[n_value]
    raise ValidationError(
        "--window: required (built-in defaults exist only for the two "
        "demonstration targets)"
    )


def _strategy_from(args: argparse.Namespace) -> SumSpec:
    chosen = [
        args.truncation is not None,
        args.count is not None or args.m_max is not None,
        args.complete,
    ]
    if sum(chosen) != 1:
        raise ValidationError(
            "exactly one strategy: --truncation M, or --count K with --m-max, "
            "or --complete"
        )
    try:
        if args.truncation is not None:
            strategy = FullTruncation(args.truncation)
        elif args.complete:
            strategy = Complete()
        elif args.count is None or args.m_max is None:
            raise ValidationError("randomized strategy needs both --count and --m-max")
        else:
            strategy = Randomized(args.count, args.m_max, args.seed)
        return SumSpec(strategy, args.order)
    except ValueError as exc:
        raise ValidationError(str(exc)) from None


def _spec_seed(spec: SumSpec) -> int | None:
    return getattr(spec.strategy, "seed", None)


def _trial_to_row(trial: ghost.ClassifiedTrial) -> ResultRow:
    return ResultRow(
        l=trial.l,
        eps=trial.eps.value,
        magnitude=trial.value.magnitude,
        trial_class=trial.trial_class.value,
        seed=_spec_seed(trial.spec),
        term_count=trial.value.term_count,
    )


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _add_common_flags(p: argparse.ArgumentParser, with_strategy: bool = True) -> None:
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output", help="output path (default stdout)")
    if with_strategy:
        p.add_argument("--order", type=int, default=2, help="sum order n (default 2)")
        p.add_argument("--truncation", type=int, help="evaluate all terms m = 0..M")
        p.add_argument("--count", type=int, help="randomized: how many m to draw")
        p.add_argument("--m-max", type=int, help="randomized: draw m from 0..m_max")
        p.add_argument("--seed", type=int, default=0, help="randomized seed (default 0)")
        p.add_argument(
            "--complete", action="store_true", help="sum all l residues (order 2 only)"
        )


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="gaussfactor",
        description="Trial-factor interference scans via exact exponential sums",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_scan = sub.add_parser("scan", help="classify a window of trial factors")
    p_scan.add_argument("--n", required=True, help="target integer, decimal string")
    p_scan.add_argument("--window", help="trial factors l_min:l_max")
    _add_common_flags(p_scan)

    p_cls = sub.add_parser("classify", help="classify one trial factor")
    p_cls.add_argument("--n", required=True, help="target integer, decimal string")
    p_cls.add_argument("--l", required=True, help="trial factor, decimal string")
    _add_common_flags(p_cls)

    p_sup = sub.add_parser(
        "suppression", help="terms needed to fall below threshold"
    )
    p_sup.add_argument("--epsilon", type=float, required=True)
    p_sup.add_argument("--order", type=int, default=2)
    p_sup.add_argument("--threshold", type=float, default=ghost.GHOST_THRESHOLD)
    p_sup.add_argument("--m-cap", type=int, default=10**6)
    p_sup.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sup.add_argument("--output")

    p_scale = sub.add_parser(
        "scaling", help="window suppression vs target size"
    )
    p_scale.add_argument(
        "--case",
        action="append",
        required=True,
        metavar="N:L_MIN:L_MAX",
        help="target and window; repeatable",
    )
    p_scale.add_argument("--order", type=int, default=2)
    p_scale.add_argument("--threshold", type=float, default=ghost.GHOST_THRESHOLD)
    p_scale.add_argument("--m-cap", type=int, default=10**5)
    p_scale.add_argument("--format", choices=("csv", "json"), default="csv")
    p_scale.add_argument("--output")

    p_sim = sub.add_parser(
        "simulate", help="pulse-train readout of a scan"
    )
    p_sim.add_argument("--n", required=True, help="target integer, decimal string")
    p_sim.add_argument("--l", help="single trial factor, decimal string")
    p_sim.add_argument("--window", help="trial factors l_min:l_max")
    p_sim.add_argument("--theta", type=float, required=True, help="flip angle, radians")
    _add_common_flags(p_sim)

    p_fig = sub.add_parser(
        "reproduce-figure", help="emit plot data for figures 1..5"
    )
    p_fig.add_argument("figure", choices=("1", "2", "3", "4", "5"))
    p_fig.add_argument("--config", help="alternate figure-defaults JSON")
    p_fig.add_argument("--format", choices=("csv", "json"), default="csv")
    p_fig.add_argument("--output")

    return parser


def _with_context(compute, N: int, l: int | None = None):
    """Run a computation, tagging any domain violation with its inputs."""
    try:
        return compute()
    except ValueError as exc:
        where = f"N={N}" if l is None else f"N={N}, l={l}"
        raise DomainError(f"{exc} ({where})") from exc


def _run_scan(args: argparse.Namespace) -> tuple[list[str], list[list[Any]]]:
    n_value = _parse_natural(args.n, "--n")
    lo, hi = _window_for(args, n_value)
    spec = _strategy_from(args)
    trials = _with_context(lambda: ghost.scan_window(n_value, lo, hi, spec), n_value)
    return RESULT_HEADER, [_result_cells(_trial_to_row(t)) for t in trials]


def _run_classify(args: argparse.Namespace) -> tuple[list[str], list[list[Any]]]:
    n_value = _parse_natural(args.n, "--n")
    l_value = _parse_natural(args.l, "--l")
    if l_value < 2:
        raise ValidationError(f"--l: trial factors start at 2, got {l_value}")
    spec = _strategy_from(args)
    trial = _with_context(
        lambda: ghost.classify(n_value, l_value, spec), n_value, l_value
    )
    return RESULT_HEADER, [_result_cells(_trial_to_row(trial))]


def _check_study_flags(args: argparse.Namespace) -> None:
    if args.order < 2:
        raise ValidationError(f"--order: must be >= 2, got {args.order}")
    if args.m_cap < 1:
        raise ValidationError(f"--m-cap: must be >= 1, got {args.m_cap}")
    if not math.isfinite(args.threshold):
        raise ValidationError(f"--threshold: must be finite, got {args.threshold}")


def _run_suppression(args: argparse.Namespace) -> tuple[list[str], list[list[Any]]]:
    _check_study_flags(args)
    required = ghost.min_suppression_M(
        args.epsilon, args.order, args.threshold, args.m_cap
    )
    header = ["epsilon", "order", "threshold", "m_cap", "required_M"]
    return header, [[args.epsilon, args.order, args.threshold, args.m_cap, required]]


def _run_scaling(args: argparse.Namespace) -> tuple[list[str], list[list[Any]]]:
    _check_study_flags(args)
    cases = []
    for text in args.case:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValidationError(f"--case: expected N:L_MIN:L_MAX, got {text!r}")
        n_value = _parse_natural(parts[0], "--case")
        lo = _parse_natural(parts[1], "--case")
        hi = _parse_natural(parts[2], "--case")
        if not 2 <= lo <= hi:
            raise ValidationError(f"--case: need 2 <= l_min <= l_max in {text!r}")
        cases.append((n_value, (lo, hi)))
    rows = ghost.scaling_study(cases, args.order, args.threshold, args.m_cap)
    header = ["N", "l_min", "l_max", "worst_epsilon", "required_M", "root_2n"]
    return header, [
        [str(r.N), r.window[0], r.window[1], r.worst_epsilon, r.required_M, r.root_2n]
        for r in rows
    ]


def _run_simulate(args: argparse.Namespace) -> tuple[list[str], list[list[Any]]]:
    n_value = _parse_natural(args.n, "--n")
    if args.l is not None and args.window is not None:
        raise ValidationError("--l and --window are mutually exclusive")
    if args.l is not None:
        l_value = _parse_natural(args.l, "--l")
        if l_value < 2:
            raise ValidationError(f"--l: trial factors start at 2, got {l_value}")
        lo, hi = l_value, l_value
    else:
        lo, hi = _window_for(args, n_value)
    if not args.theta > 0:
        raise ValidationError(f"--theta: must be positive, got {args.theta}")
    spec = _strategy_from(args)
    header = ["l", "epsilon", "mx", "my", "transverse", "normalized_signal", "term_count"]
    rows = []
    for l in range(lo, hi + 1):
        reading = _with_context(
            lambda: spinsim.simulate_experiment(n_value, l, spec, args.theta),
            n_value,
            l,
        )
        rows.append(
            [
                str(l),
                epsilon(n_value, l).value,
                reading.mx,
                reading.my,
                reading.transverse_magnitude,
                reading.normalized_signal,
                len(spec.strategy.terms(l)),
            ]
        )
    return header, rows


def _load_figure_defaults(path: str | None) -> dict[str, Any]:
    if path is None:
        source = resources.files("gaussfactor").joinpath("figure_defaults.json")
        text = source.read_text(encoding="utf-8")
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"--config: not valid JSON ({exc})") from None


def _figure_1(cfg: dict[str, Any]) -> tuple[list[str], list[list[Any]]]:
    rows = []
    for eps in cfg["epsilons"]:
        for m, mag in iter_curlicue_magnitudes(eps, cfg["order"]):
            rows.append([eps, m, mag])
            if m >= cfg["max_truncation"]:
                break
    return ["epsilon", "M", "magnitude"], rows


def _figure_2(cfg: dict[str, Any]) -> tuple[list[str], list[list[Any]]]:
    eps = cfg["epsilon"]
    order = cfg["order"]
    p, q = eps.as_integer_ratio()
    header = [
        "series", "m", "term_real", "term_imag",
        "partial_real", "partial_imag", "magnitude",
    ]
    rows = []

    def walk(series: str, ms: Sequence[int]) -> None:
        total = complex(0.0, 0.0)
        for i, m in enumerate(ms):
            ph = curlicue_phase(m, order, p, q)
            term = complex(math.cos(ph), math.sin(ph))
            total += term
            rows.append(
                [series, m, term.real, term.imag, total.real, total.imag,
                 abs(total) / (i + 1)]
            )

    for M in cfg["truncations"]:
        walk(f"M{M}", range(M + 1))
    walk(
        f"random{cfg['random_count']}",
        sample_without_replacement(
            cfg["random_count"], cfg["random_m_max"], cfg["random_seed"]
        ),
    )
    return header, rows


def _figure_3(cfg: dict[str, Any]) -> tuple[list[str], list[list[Any]]]:
    n_value = _parse_natural(cfg["N"], "figure 3 N")
    lo, hi = cfg["window"]
    traces = {
        "upper": SumSpec(FullTruncation(cfg["upper"]["truncation"]), cfg["upper"]["order"]),
        "middle": SumSpec(
            Randomized(
                cfg["middle"]["count"], cfg["middle"]["m_max"], cfg["middle"]["seed"]
            ),
            cfg["middle"]["order"],
        ),
        "lower": SumSpec(FullTruncation(cfg["lower"]["truncation"]), cfg["lower"]["order"]),
    }
    header = ["trace"] + RESULT_HEADER
    rows = []
    for name, spec in traces.items():
        for trial in ghost.scan_window(n_value, lo, hi, spec):
            rows.append([name] + _result_cells(_trial_to_row(trial)))
    return header, rows


def _figure_4(cfg: dict[str, Any]) -> tuple[list[str], list[list[Any]]]:
    n_value = _parse_natural(cfg["N"], "figure 4 N")
    lo, hi = cfg["window"]
    spec = SumSpec(Randomized(cfg["count"], cfg["m_max"], cfg["seed"]), 2)
    trials = ghost.scan_window(n_value, lo, hi, spec)
    return RESULT_HEADER, [_result_cells(_trial_to_row(t)) for t in trials]


def _figure_5(cfg: dict[str, Any]) -> tuple[list[str], list[list[Any]]]:
    rows = []
    for order in cfg["orders"]:
        for m, mag in iter_curlicue_magnitudes(cfg["epsilon"], order):
            rows.append([order, m, mag])
            if m >= cfg["max_truncation"]:
                break
    return ["order", "M", "magnitude"], rows


_FIGURES = {"1": _figure_1, "2": _figure_2, "3": _figure_3, "4": _figure_4, "5": _figure_5}


def _run_figure(args: argparse.Namespace) -> tuple[list[str], list[list[Any]]]:
    defaults = _load_figure_defaults(args.config)
    if args.figure not in defaults:
        raise ValidationError(f"figure {args.figure}: no defaults entry")
    try:
        return _FIGURES[args.figure](defaults[args.figure])
    except KeyError as exc:
        raise ValidationError(f"figure {args.figure}: defaults missing key {exc}") from None


_COMMANDS = {
    "scan": _run_scan,
    "classify": _run_classify,
    "suppression": _run_suppression,
    "scaling": _run_scaling,
    "simulate": _run_simulate,
    "reproduce-figure": _run_figure,
}


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        header, rows = _COMMANDS[args.command](args)
        text = emit_csv(header, rows) if args.format == "csv" else emit_json(header, rows)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DomainError, ValueError) as exc:
        # numeric domain violations raised by the computation itself
        print(f"domain error: {exc}", file=sys.stderr)
        return 3
    try:
        _write_output(text, args.output)
    except BrokenPipeError:
        # the consumer closed stdout early; not our failure
        devnull = open(os.devnull, "w")
        sys.stdout = devnull
        return 0
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
