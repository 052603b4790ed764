"""Command-line surface: scans, classification, suppression and scaling
studies, spin simulation, and figure-data reproduction.

Output is CSV (default) or JSON, written to a path or stdout.  Runs with the
same arguments, including seeds, produce byte-identical output.  Exit codes:
0 success, 1 validation failure, 2 I/O or resource failure (memory ran out,
or numpy, which runs the heavy kernel calls, could not be imported), 3
numeric domain error.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import warnings
from dataclasses import dataclass
from importlib import resources
from itertools import chain, compress, count, filterfalse, repeat
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, Iterable, Iterator, Sequence

from . import ghost, spinsim
from .numtheory import _check_order, epsilon
from .sums import (
    Complete,
    FullTruncation,
    Randomized,
    SumSpec,
    _curlicue_magnitudes,
    _curlicue_walk,
)

__all__ = ["main", "ResultRow", "Table", "emit_csv", "emit_json", "parse_result_csv"]

RESULT_HEADER = ["l", "epsilon", "magnitude", "class", "seed", "term_count"]


class ValidationError(Exception):
    """Bad flags or config; maps to exit code 1."""


@dataclass(frozen=True)
class ResultRow:
    """One serialized scan entry."""

    l: int
    eps: float
    magnitude: float
    trial_class: str
    seed: int | None
    term_count: int


class Table:
    """A result table as columns, one list of cells per header name.

    The commands fill it a block of rows at a time, and the emitters read
    it a block of rows at a time.  len() is its number of rows.
    """

    def __init__(self, width: int) -> None:
        self.columns: list[list[Any]] = [[] for _ in range(width)]

    @classmethod
    def of_rows(cls, width: int, rows: Iterable[Sequence[Any]]) -> "Table":
        """The table of rows as wide as its header."""
        table = cls(width)
        table.extend(zip(*rows))
        return table

    def extend(self, block: Iterable[Iterable[Any]]) -> None:
        """Append a block of rows, given as its columns."""
        for column, cells in zip(self.columns, block):
            column.extend(cells)

    def __len__(self) -> int:
        return len(self.columns[0]) if self.columns else 0


# the text of a column of cells of one type
Formatter = Callable[[Sequence[Any]], Sequence[str]]
# rows formatted at a time, so that their cells' text stays small beside the table
_EMIT_ROWS = 256


def _csv_reals(xs: Sequence[float]) -> list[str]:
    """Shortest decimals that round-trip; integral values print as integers."""
    texts = list(map(repr, xs))
    for k in compress(count(), map(float.is_integer, xs)):
        texts[k] = str(int(xs[k]))
    for x in filterfalse(math.isfinite, xs):
        int(x)  # nan and the infinities have no integer to compare: raise as int() does
    return texts


def _csv_format(kind: type) -> Formatter:
    if kind is str:
        return lambda xs: xs
    if kind is type(None):
        return lambda xs: [""] * len(xs)
    if kind is bool:
        return lambda xs: ["true" if x else "false" for x in xs]
    return _csv_reals if issubclass(kind, float) else lambda xs: list(map(str, xs))


def _json_reals(xs: Sequence[float]) -> list[str]:
    """Floats as json.dumps writes them, with its spellings of nan and the infinities."""
    texts = list(map(float.__repr__, xs))
    if all(map(math.isfinite, xs)):
        return texts
    return [{"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}.get(t, t) for t in texts]


def _json_format(kind: type) -> Formatter:
    """How json.dumps writes values of this type, or its TypeError."""
    if issubclass(kind, str):
        return lambda xs: list(map(encode_basestring_ascii, xs))
    if kind is type(None):
        return lambda xs: ["null"] * len(xs)
    if kind is bool:
        return lambda xs: ["true" if x else "false" for x in xs]
    if issubclass(kind, int):
        return lambda xs: list(map(int.__repr__, xs))
    if issubclass(kind, float):
        return _json_reals
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _text_blocks(
    table: Table, choose: Callable[[type], Formatter]
) -> Iterator[list[Sequence[str]]]:
    """The text of each column of table, _EMIT_ROWS rows at a time.

    The table has a column per header name, at least one.  In each block
    a column's formatter is chosen once, by the type of its cells; a column
    that mixes types, such as required_M's integers and nulls, takes one
    per type.
    """
    if not len(table):
        raise ValidationError("refusing to emit an empty table")
    for start in range(0, len(table), _EMIT_ROWS):
        texts = []
        for column in table.columns:
            cells = column[start:start + _EMIT_ROWS]
            formats = {kind: choose(kind) for kind in set(map(type, cells))}
            if len(formats) == 1:
                (write,) = formats.values()
                texts.append(write(cells))
            else:
                texts.append([formats[type(x)]((x,))[0] for x in cells])
        yield texts


def emit_csv(header: Sequence[str], table: Table) -> str:
    """CSV text with LF endings; reals in shortest round-trip form."""
    blocks = _text_blocks(table, _csv_format)
    try:
        body = "\n".join("\n".join(map(",".join, zip(*texts))) for texts in blocks)
    except (OverflowError, ValueError):
        # fail on the first unwritable cell in row order, as a row writer would
        for x in chain.from_iterable(zip(*table.columns)):
            _csv_format(type(x))((x,))
        raise
    return "".join([",".join(header), "\n", body, "\n"])  # one copy of the body


def emit_json(header: Sequence[str], table: Table) -> str:
    """The text of json.dumps(objects, indent=2) + "\n", one object per row."""
    keys = [encode_basestring_ascii(key).replace("%", "%%") for key in header]
    template = "  {\n" + ",\n".join(f"    {key}: %s" for key in keys) + "\n  }"
    blocks = _text_blocks(table, _json_format)
    body = ",\n".join(",\n".join(map(template.__mod__, zip(*texts))) for texts in blocks)
    return "".join(["[\n", body, "\n]\n"])


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

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        # argparse's own pattern has no exponent and no inf or nan, so it
        # takes -1e-16 and -inf for flags; any argument that starts
        # "-<digit>" or "-.<digit>", or is -inf, -infinity or -nan in any
        # case, as float() reads them, is a value
        self._negative_number_matcher = re.compile(r"-(\.?\d|(inf|infinity|nan)$)", re.I)

    def error(self, message: str) -> None:  # type: ignore[override]
        raise ValidationError(message)


def _parse_natural(text: str, field: str) -> int:
    if not re.fullmatch("[0-9]+", text):
        raise ValidationError(f"{field}: {text!r} is not a decimal integer")
    return int(text)


def _check_window(lo: int, hi: int, field: str) -> tuple[int, int]:
    if not 2 <= lo <= hi:
        raise ValidationError(f"{field}: need 2 <= l_min <= l_max, got [{lo}, {hi}]")
    return lo, hi


def _parse_window(text: str, field: str) -> tuple[int, int]:
    lo_text, sep, hi_text = text.partition(":")
    if not sep:
        raise ValidationError(f"{field}: expected l_min:l_max, got {text!r}")
    lo, hi = _parse_natural(lo_text, field), _parse_natural(hi_text, field)
    return _check_window(lo, hi, field)


def _config_window(window: Any) -> tuple[int, int]:
    # type(v) is int: JSON 1.5 or true must not pass for an integer
    if not (isinstance(window, list) and len(window) == 2
            and all(type(v) is int for v in window)):
        raise ValidationError(f"window: expected [l_min, l_max], got {window!r}")
    return _check_window(*window, "window")


def _trials(args: argparse.Namespace) -> tuple[int, tuple[int, int]]:
    """N and the trial window that --l, --window or the built-in default name."""
    n_value = _parse_natural(args.n, "--n")
    l_text, window = getattr(args, "l", None), getattr(args, "window", None)
    if l_text is not None and window is not None:
        raise ValidationError("--l and --window are mutually exclusive")
    if l_text is not None:
        l_value = _parse_natural(l_text, "--l")
        if l_value < 2:
            raise ValidationError(f"--l: trial factors start at 2, got {l_value}")
        return n_value, (l_value, l_value)
    if window is not None:
        return n_value, _parse_window(window, "--window")
    if n_value in ghost.DEFAULT_WINDOWS:
        return n_value, ghost.DEFAULT_WINDOWS[n_value]
    raise ValidationError(
        "--window: required (built-in defaults exist only for the two "
        "demonstration targets)"
    )


# what the messages of _sum_spec call each field, by where it was read
_FLAG_NAMES = {
    "order": "--order", "truncation": "--truncation", "count": "--count",
    "m_max": "--m-max", "seed": "--seed", "complete": "--complete",
}
_CONFIG_NAMES = {f: f for f in ("order", "truncation", "count", "m_max", "seed")}


def _sum_spec(names: dict[str, str], order: Any = 2, truncation: Any = None,
              count: Any = None, m_max: Any = None, seed: Any = 0,
              complete: bool = False) -> SumSpec:
    """The SumSpec that strategy flags or config fields name; bad ones exit 1.

    names maps each field to the flag or config key the caller read it
    from; only a caller that can select the complete sum names "complete".
    """
    named = dict(order=order, truncation=truncation, count=count, m_max=m_max, seed=seed)
    for field, value in named.items():
        if value is not None and type(value) is not int:
            raise ValidationError(f"{names[field]} must be an integer, got {value!r}")
    randomized = count is not None or m_max is not None
    if sum([truncation is not None, randomized, complete]) != 1:
        ways = [f"{names['truncation']} M", f"{names['count']} K with {names['m_max']}"]
        ways += [names["complete"]] if "complete" in names else []
        raise ValidationError("exactly one strategy: " + ", or ".join(ways))
    try:
        if truncation is not None:
            strategy = FullTruncation(truncation)
        elif complete:
            strategy = Complete()
        elif count is None or m_max is None:
            raise ValidationError(
                f"randomized strategy needs both {names['count']} and {names['m_max']}"
            )
        else:
            strategy = Randomized(count, m_max, seed)
        return SumSpec(strategy, order)
    except ValueError as exc:
        # the strategies word range errors as "<field> ...": name it as read
        field, _, rest = str(exc).partition(" ")
        message = f"{names[field]} {rest}" if field in named else str(exc)
        raise ValidationError(message) from None


def _flag_spec(args: argparse.Namespace) -> SumSpec:
    return _sum_spec(
        _FLAG_NAMES, args.order, args.truncation, args.count, args.m_max, args.seed,
        args.complete,
    )


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="gaussfactor",
        description="Trial-factor interference scans via exact exponential sums",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    output = _Parser(add_help=False)
    output.add_argument("--format", choices=("csv", "json"), default="csv")
    output.add_argument("--output", help="output path (default stdout)")
    order = _Parser(add_help=False)
    order.add_argument("--order", type=int, default=2, help="sum order n (default 2)")
    strategy = _Parser(add_help=False, parents=[order, output])
    strategy.add_argument("--n", required=True, help="target integer, decimal string")
    strategy.add_argument("--truncation", type=int, help="evaluate all terms m = 0..M")
    strategy.add_argument("--count", type=int, help="randomized: how many m to draw")
    strategy.add_argument("--m-max", type=int, help="randomized: draw m from 0..m_max")
    strategy.add_argument("--seed", type=int, default=0, help="randomized seed (default 0)")
    strategy.add_argument(
        "--complete", action="store_true", help="sum all l residues (order 2 only)"
    )
    study = _Parser(add_help=False, parents=[order, output])
    study.add_argument("--threshold", type=float, default=ghost.GHOST_THRESHOLD)

    p_scan = sub.add_parser("scan", parents=[strategy], help="classify a window of l")
    p_scan.add_argument("--window", help="trial factors l_min:l_max")

    p_cls = sub.add_parser("classify", parents=[strategy], help="classify one l")
    p_cls.add_argument("--l", required=True, help="trial factor, decimal string")

    p_sup = sub.add_parser("suppression", parents=[study], help="terms to fall below threshold")
    p_sup.add_argument("--epsilon", type=float, required=True)
    p_sup.add_argument("--m-cap", type=int, default=10**6)

    p_scale = sub.add_parser("scaling", parents=[study], help="suppression vs target size")
    p_scale.add_argument(
        "--case",
        action="append",
        required=True,
        metavar="N:L_MIN:L_MAX",
        help="target and window; repeatable",
    )
    p_scale.add_argument("--m-cap", type=int, default=10**5)

    p_sim = sub.add_parser("simulate", parents=[strategy], help="pulse-train readout")
    p_sim.add_argument("--l", help="single trial factor, decimal string")
    p_sim.add_argument("--window", help="trial factors l_min:l_max")
    p_sim.add_argument("--theta", type=float, required=True, help="flip angle, radians")

    p_fig = sub.add_parser("reproduce-figure", parents=[output], help="figure 1..5 data")
    p_fig.add_argument("figure", choices=("1", "2", "3", "4", "5"))
    p_fig.add_argument("--config", help="alternate figure-defaults JSON")

    return parser


def _filled(rows: Table | list, N: int, lo: int, blocks: Iterable[Any]) -> Any:
    """rows extended by blocks of the rows of l = lo, lo + 1, ...

    rows is a Table, extended by blocks of columns, or a list, extended by
    blocks of row tuples.  A domain violation names N and the l of the
    next row, from len(rows).
    """
    try:
        for block in blocks:
            rows.extend(block)
    except ValueError as exc:
        raise ValueError(f"{exc} (N={N}, l={lo + len(rows)})") from exc
    return rows


def _classified_table(N: int, lo: int, hi: int, spec: SumSpec) -> Table:
    """A result row per l in [lo, hi], from the rule's columns."""
    # trial-factor sized integers stay strings in JSON so consumers that
    # read numbers as doubles cannot corrupt them
    seed = getattr(spec.strategy, "seed", None)
    blocks = (
        (map(str, b.ls), b.eps, b.magnitudes, b.classes, repeat(seed, len(b.ls)), b.term_counts)
        for b in ghost._classified_blocks(N, range(lo, hi + 1), spec)
    )
    return _filled(Table(len(RESULT_HEADER)), N, lo, blocks)


def _run_scan(args: argparse.Namespace) -> tuple[list[str], Table]:
    """scan over --window, or classify over the one-l window of --l."""
    n_value, (lo, hi) = _trials(args)
    return RESULT_HEADER, _classified_table(n_value, lo, hi, _flag_spec(args))


def _check_study_flags(args: argparse.Namespace) -> None:
    if args.order < 2:
        raise ValidationError(f"--order: must be >= 2, got {args.order}")
    if args.m_cap < 1:
        raise ValidationError(f"--m-cap: must be >= 1, got {args.m_cap}")
    if not 0 <= args.threshold < math.inf:
        raise ValidationError(f"--threshold: must be finite and >= 0, got {args.threshold}")


def _run_suppression(args: argparse.Namespace) -> tuple[list[str], Table]:
    _check_study_flags(args)
    # the range of Epsilon; sums are periodic in eps, but a reported eps of 5
    # would not be a fractional part of any 2N/l
    if not -1 < args.epsilon <= 1:
        raise ValidationError(f"--epsilon: must be in (-1, 1], got {args.epsilon}")
    required = ghost.min_suppression_M(args.epsilon, args.order, args.threshold, args.m_cap)
    header = ["epsilon", "order", "threshold", "m_cap", "required_M"]
    row = [args.epsilon, args.order, args.threshold, args.m_cap, required]
    return header, Table.of_rows(len(header), [row])


def _run_scaling(args: argparse.Namespace) -> tuple[list[str], Table]:
    _check_study_flags(args)
    cases = []
    for text in args.case:
        n_text, _, window = text.partition(":")
        if text.count(":") != 2:
            raise ValidationError(f"--case: expected N:L_MIN:L_MAX, got {text!r}")
        cases.append((_parse_natural(n_text, "--case"), _parse_window(window, "--case")))
    rows = ghost.scaling_study(cases, args.order, args.threshold, args.m_cap)
    header = ["N", "l_min", "l_max", "worst_epsilon", "required_M", "root_2n"]
    return header, Table.of_rows(len(header), (
        [str(r.N), r.window[0], r.window[1], r.worst_epsilon, r.required_M, r.root_2n]
        for r in rows
    ))


def _run_simulate(args: argparse.Namespace) -> tuple[list[str], Table]:
    n_value, (lo, hi) = _trials(args)
    if not 0 < args.theta < math.inf:
        raise ValidationError(f"--theta: must be finite and positive, got {args.theta}")
    spec = _flag_spec(args)
    ls = range(lo, hi + 1)
    # a block of one row each, so that a reading's error names its own l
    blocks = (
        [(str(l), epsilon(n_value, l).value, r.mx, r.my,
          r.transverse_magnitude, r.normalized_signal, len(spec.strategy.terms(l)))]
        for l, r in zip(ls, spinsim._readings(n_value, ls, spec, args.theta))
    )
    header = ["l", "epsilon", "mx", "my", "transverse", "normalized_signal", "term_count"]
    return header, Table.of_rows(len(header), _filled([], n_value, lo, blocks))


def _load_figure_defaults(path: str | None) -> dict[str, Any]:
    if path is None:
        source = resources.files("gaussfactor").joinpath("figure_defaults.json")
        text = source.read_text(encoding="utf-8")
    else:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ValidationError(f"--config: cannot read {path!r} ({exc})") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"--config: not valid JSON ({exc})") from None


def _config_terms(truncation: Any, key: str) -> range:
    """m = 0..truncation for a figure's config key; a truncation out of range exits 1."""
    try:
        return FullTruncation(truncation).terms(0)
    except ValueError as exc:
        # worded as the strategies word range errors, named by its key
        raise ValidationError(f"{key} {str(exc).partition(' ')[2]}") from None


def _magnitude_table(max_truncation: int, series: list[tuple[Any, float, int]]) -> Table:
    """Rows [key, M, |s_M(eps)|] for M = 0..max_truncation of each (key, eps, order)."""
    Ms = _config_terms(max_truncation, "max_truncation")
    table = Table(3)
    for key, eps, order in series:
        table.extend((repeat(key, len(Ms)), Ms, _curlicue_magnitudes(eps, order, Ms)))
    return table


def _config_order(order: Any) -> int:
    """A figure's sum order, checked as SumSpec checks a trace's order."""
    if type(order) is not int:
        raise ValidationError(f"order must be an integer, got {order!r}")
    try:
        _check_order(order, "order")
    except ValueError as exc:
        raise ValidationError(str(exc)) from None
    return order


def _figure_1(cfg: dict[str, Any]) -> tuple[list[str], Table]:
    order = _config_order(cfg["order"])
    series = [(eps, eps, order) for eps in cfg["epsilons"]]
    return ["epsilon", "M", "magnitude"], _magnitude_table(cfg["max_truncation"], series)


def _figure_2(cfg: dict[str, Any]) -> tuple[list[str], Table]:
    walks = [(f"M{M}", _config_terms(M, "truncations")) for M in cfg["truncations"]]
    names = {**_CONFIG_NAMES, "count": "random_count", "m_max": "random_m_max",
             "seed": "random_seed"}
    draw = _sum_spec(
        names, count=cfg["random_count"], m_max=cfg["random_m_max"],
        seed=cfg["random_seed"],
    )
    walks.append((f"random{cfg['random_count']}", draw.strategy.terms(0)))
    header = [
        "series", "m", "term_real", "term_imag",
        "partial_real", "partial_imag", "magnitude",
    ]
    order = _config_order(cfg["order"])
    rows = []
    for series, ms in walks:
        walk = _curlicue_walk(cfg["epsilon"], order, ms)
        for k, (m, (z, part)) in enumerate(zip(ms, walk), 1):
            mag = math.hypot(part.real, part.imag) / k
            rows.append([series, m, z.real, z.imag, part.real, part.imag, mag])
    return header, Table.of_rows(len(header), rows)


def _figure_3(cfg: dict[str, Any]) -> tuple[list[str], Table]:
    n_value = _parse_natural(cfg["N"], "N")
    lo, hi = _config_window(cfg["window"])
    upper, middle, lower = cfg["upper"], cfg["middle"], cfg["lower"]
    traces = {
        "upper": _sum_spec(_CONFIG_NAMES, upper["order"], upper["truncation"]),
        "middle": _sum_spec(
            _CONFIG_NAMES, middle["order"], count=middle["count"], m_max=middle["m_max"],
            seed=middle["seed"],
        ),
        "lower": _sum_spec(_CONFIG_NAMES, lower["order"], lower["truncation"]),
    }
    table = Table(1 + len(RESULT_HEADER))
    for name, spec in traces.items():
        trace = _classified_table(n_value, lo, hi, spec)
        table.extend([repeat(name, len(trace)), *trace.columns])
    return ["trace"] + RESULT_HEADER, table


def _figure_4(cfg: dict[str, Any]) -> tuple[list[str], Table]:
    n_value = _parse_natural(cfg["N"], "N")
    lo, hi = _config_window(cfg["window"])
    spec = _sum_spec(
        _CONFIG_NAMES, count=cfg["count"], m_max=cfg["m_max"], seed=cfg["seed"]
    )
    return RESULT_HEADER, _classified_table(n_value, lo, hi, spec)


def _figure_5(cfg: dict[str, Any]) -> tuple[list[str], Table]:
    orders = [_config_order(order) for order in cfg["orders"]]
    series = [(order, cfg["epsilon"], order) for order in orders]
    return ["order", "M", "magnitude"], _magnitude_table(cfg["max_truncation"], series)


_FIGURES = {"1": _figure_1, "2": _figure_2, "3": _figure_3, "4": _figure_4, "5": _figure_5}


def _run_figure(args: argparse.Namespace) -> tuple[list[str], Table]:
    defaults = _load_figure_defaults(args.config)
    try:
        if args.figure not in defaults:
            raise ValidationError("no defaults entry")
        return _FIGURES[args.figure](defaults[args.figure])
    except ValidationError as exc:
        raise ValidationError(f"figure {args.figure}: {exc}") from None
    except KeyError as exc:
        raise ValidationError(f"figure {args.figure}: defaults missing key {exc}") from None
    except TypeError as exc:
        raise ValidationError(f"figure {args.figure}: bad config value ({exc})") from None


_COMMANDS = {
    "scan": _run_scan,
    "classify": _run_scan,
    "suppression": _run_suppression,
    "scaling": _run_scaling,
    "simulate": _run_simulate,
    "reproduce-figure": _run_figure,
}


def _run_command(args: argparse.Namespace) -> tuple[list[str], Table]:
    """Run a subcommand; each distinct warning it raises is one stderr line."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            return _COMMANDS[args.command](args)
        finally:
            # a warning's default report names a source file and line,
            # which mean nothing to someone running the command
            for message in dict.fromkeys(str(w.message) for w in caught):
                print(f"warning: {message}", file=sys.stderr)


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        header, table = _run_command(args)
        text = emit_csv(header, table) if args.format == "csv" else emit_json(header, table)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        # numeric domain violations raised by the computation itself
        print(f"domain error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        # numpy's _ArrayMemoryError says how much it could not allocate
        print(f"resource error: out of memory{f' ({exc})' if str(exc) else ''}", file=sys.stderr)
        return 2
    except ImportError as exc:
        # the one import a run makes is numpy's, at its first heavy kernel call
        print(f"resource error: {exc}", file=sys.stderr)
        return 2
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
