"""Command-line behavior: schemas, formats, exit codes, determinism."""
import json
import math
import os
import subprocess
import sys
from importlib import resources
from itertools import islice
from pathlib import Path

import golden_corpus
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import csv_by_rows, json_by_dumps

import gaussfactor._blocks as _blocks
import gaussfactor.cli as cli
import gaussfactor.ghost as ghost
import gaussfactor.numtheory as numtheory
import gaussfactor.sums as sums
from gaussfactor import iter_curlicue_magnitudes
from gaussfactor.cli import (
    RESULT_HEADER,
    ResultRow,
    Table,
    ValidationError,
    main,
    parse_result_csv,
)
from gaussfactor.ghost import GHOST_THRESHOLD

N12 = "1689259081189"
N17 = "32193216510801043"
SRC = Path(__file__).resolve().parents[1] / "src"

# the three subcommands that take strategy flags, with everything else valid
STRATEGY_COMMANDS = {
    "scan": ("scan", "--n", N12),
    "classify": ("classify", "--n", N12, "--l", "1299711"),
    "simulate": ("simulate", "--n", N12, "--l", "1299711", "--theta", "0.0025"),
}
BAD_STRATEGY_FLAGS = [
    ("--truncation", "19", "--order", "1"),
    ("--truncation", "-1"),
    ("--count", "0", "--m-max", "5"),
    ("--count", "11", "--m-max", "9"),
    ("--complete", "--order", "3"),
    # SplitMix64 would mask these onto the m-set of another seed
    ("--count", "10", "--m-max", "1000", "--seed", "-1"),
    ("--count", "10", "--m-max", "1000", "--seed", str(2**64)),
    # a bound past 2**64 would leave SplitMix64's rejection loop spinning
    ("--count", "1", "--m-max", str(2**64)),
]


# figure 2's bundled defaults, with fewer terms
FIGURE_2 = {
    "epsilon": 4e-05, "order": 2, "truncations": [20],
    "random_count": 10, "random_m_max": 1000, "random_seed": 0,
}


# the bundled figure configs, as reproduce-figure reads them by default
BUNDLED = json.loads(
    resources.files("gaussfactor").joinpath("figure_defaults.json").read_text("utf-8")
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# each kind of cell a command writes, and floats whose text is special
CELL_KINDS = [
    st.text(),
    st.integers(-(2**64) + 1, 2**64 - 1),
    st.none(),
    st.booleans(),
    st.sampled_from([-0.0, 0.0, 5e-324, 1e-05, 1e16, 1.0, math.inf, -math.inf, math.nan]),
    st.floats(),
]


@st.composite
def tables(draw):
    """A header of distinct names and rows as wide as it, as the commands write them.

    A column holds one kind of cell, as most command columns do, or any
    kinds, as required_M holds integers and nulls.
    """
    header = draw(st.lists(st.text(), min_size=1, max_size=5, unique=True))
    columns = [draw(st.sampled_from([*CELL_KINDS, st.one_of(CELL_KINDS)])) for _ in header]
    return header, draw(st.lists(st.tuples(*columns), max_size=6))


def emit_csv(header, rows):
    """cli.emit_csv of the table of these rows."""
    return cli.emit_csv(header, Table.of_rows(len(header), rows))


def emit_json(header, rows):
    """cli.emit_json of the table of these rows."""
    return cli.emit_json(header, Table.of_rows(len(header), rows))


def outcome(emit, header, rows):
    """emit's text, or the type of the exception it raised."""
    try:
        return emit(header, rows)
    except Exception as exc:
        return type(exc)


class TestSerialization:
    @given(tables())
    @settings(derandomize=True, deadline=None, max_examples=500)
    def test_emitters_match_the_row_writers(self, table):
        header, rows = table
        assert outcome(emit_csv, header, rows) == outcome(csv_by_rows, header, rows)
        assert outcome(emit_json, header, rows) == outcome(json_by_dumps, header, rows)

    def test_emitters_match_the_row_writers_across_row_blocks(self):
        # text is formed a block of rows at a time: a float column, and one
        # whose cells turn from integers to nulls in the last block
        n = 2 * cli._EMIT_ROWS + 3
        rows = [(k / 7, k if k < n - 2 else None, str(k)) for k in range(n)]
        header = ["x", "required_M", "l"]
        assert emit_csv(header, rows) == csv_by_rows(header, rows)
        assert emit_json(header, rows) == json_by_dumps(header, rows)
        # inf in a later column of an earlier row than nan's: inf fails first
        rows[-2:] = [(0.5, math.inf, "a"), (math.nan, 1, "b")]
        assert outcome(emit_csv, header, rows) == outcome(csv_by_rows, header, rows)
        assert outcome(emit_csv, header, rows) is OverflowError

    def test_reals_round_trip_and_integers_stay_integers(self):
        text = emit_csv(["a", "b", "c"], [[0.5, 1.0, None]])
        assert text == "a,b,c\n0.5,1,\n"

    def test_csv_uses_lf_only(self):
        text = emit_csv(["x"], [[1], [2]])
        assert "\r" not in text
        assert text.endswith("\n")

    def test_empty_table_refused(self):
        with pytest.raises(ValidationError):
            emit_csv(["x"], [])
        with pytest.raises(ValidationError):
            emit_json(["x"], [])

    def test_parse_result_csv_round_trip(self, capsys):
        code, out, _ = run(
            capsys, "scan", "--n", N12, "--truncation", "19",
            "--window", "1299699:1299731",
        )
        assert code == 0
        rows = parse_result_csv(out)
        assert len(rows) == 33
        factor_rows = [r for r in rows if r.trial_class == "Factor"]
        assert [r.l for r in factor_rows] == [1299709, 1299721]
        assert all(r.magnitude == 1.0 and r.eps == 0.0 for r in factor_rows)
        assert all(r.seed is None and r.term_count == 20 for r in rows)

    def test_parse_result_csv_rejects_foreign_text(self):
        with pytest.raises(ValidationError):
            parse_result_csv("nope\n1,2,3\n")
        with pytest.raises(ValidationError):
            parse_result_csv(",".join(RESULT_HEADER) + "\n1,2\n")


class TestClassify:
    def test_factor_row_verbatim(self, capsys):
        code, out, _ = run(
            capsys, "classify", "--n", N12, "--l", "1299709", "--truncation", "19"
        )
        assert code == 0
        assert out == (
            "l,epsilon,magnitude,class,seed,term_count\n"
            "1299709,0,1,Factor,,20\n"
        )

    def test_json_keeps_l_as_string_and_null_seed(self, capsys):
        code, out, _ = run(
            capsys, "classify", "--n", N12, "--l", "1299709",
            "--truncation", "19", "--format", "json",
        )
        assert code == 0
        objs = json.loads(out)
        assert objs == [
            {
                "l": "1299709",
                "epsilon": 0.0,
                "magnitude": 1.0,
                "class": "Factor",
                "seed": None,
                "term_count": 20,
            }
        ]

    def test_randomized_row_carries_seed(self, capsys):
        code, out, _ = run(
            capsys, "classify", "--n", N12, "--l", "1299711",
            "--count", "10", "--m-max", "1000", "--seed", "7",
        )
        assert code == 0
        row = parse_result_csv(out)[0]
        assert row.seed == 7
        assert row.term_count == 10

    def test_trivial_trial_rejected(self, capsys):
        code, _, err = run(capsys, "classify", "--n", "15", "--l", "1", "--complete")
        assert code == 1
        assert "trial factors start at 2" in err


class TestScan:
    def test_default_window_for_builtin_target(self, capsys):
        code, out, _ = run(capsys, "scan", "--n", N12, "--truncation", "19")
        assert code == 0
        assert len(parse_result_csv(out)) == 33

    def test_unknown_target_needs_window(self, capsys):
        code, _, err = run(capsys, "scan", "--n", "10403", "--truncation", "19")
        assert code == 1
        assert "--window" in err

    def test_domain_error_names_n_and_l(self, capsys, monkeypatch):
        # the cap binds the complete pulse train, one pulse per residue of l
        monkeypatch.setattr(sums, "COMPLETE_SUM_CAP", 50)
        code, out, err = run(
            capsys, "simulate", "--n", "10", "--window", "51:51", "--complete",
            "--theta", "0.0025",
        )
        assert code == 3
        assert out == ""
        assert "cap" in err and "(N=10, l=51)" in err

    def test_domain_error_inside_a_window_names_its_l(self, capsys, monkeypatch):
        monkeypatch.setattr(sums, "COMPLETE_SUM_CAP", 50)
        code, out, err = run(
            capsys, "simulate", "--n", "10", "--window", "48:53", "--complete",
            "--theta", "0.0025",
        )
        assert code == 3
        assert out == ""
        assert "(N=10, l=51)" in err

    def test_scan_builds_no_per_row_objects(self, capsys, monkeypatch):
        # rows go from the rule's columns to text: no trial, sum value or
        # epsilon object is made for any of them
        want = run(capsys, "scan", "--n", N12, "--truncation", "19")

        def refuse(self, *args, **kwargs):
            raise AssertionError(f"a {type(self).__name__} was made")

        for cls in (ghost.ClassifiedTrial, sums.SumValue, numtheory.Epsilon):
            monkeypatch.setattr(cls, "__init__", refuse)
        for fmt in ("csv", "json"):
            got = run(capsys, "scan", "--n", N12, "--truncation", "19", "--format", fmt)
            assert got[0] == 0
            if fmt == "csv":
                assert got == want

    def test_byte_identical_reruns(self, capsys):
        argv = ("scan", "--n", N17, "--count", "10", "--m-max", "5000", "--seed", "3")
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second
        rows = parse_result_csv(first)
        assert len(rows) == 39
        assert {r.seed for r in rows} == {3}


class TestSuppressionAndScaling:
    def test_suppression_row(self, capsys):
        code, out, _ = run(capsys, "suppression", "--epsilon", "0.01")
        assert code == 0
        header, row = out.splitlines()
        assert header == "epsilon,order,threshold,m_cap,required_M"
        cells = row.split(",")
        assert cells[0] == "0.01"
        assert cells[1] == "2"
        assert float(cells[2]) == GHOST_THRESHOLD
        assert cells[4] == "9"

    def test_suppression_cap_reports_blank(self, capsys):
        code, out, _ = run(
            capsys, "suppression", "--epsilon", "1e-8", "--m-cap", "100"
        )
        assert code == 0
        assert out.splitlines()[1].endswith(",")

    def test_zero_epsilon_is_a_domain_error(self, capsys):
        code, _, err = run(capsys, "suppression", "--epsilon", "0")
        assert code == 3
        assert "factor case" in err

    # -inf and -nan once exited 1 with "expected one argument": argparse
    # took them for flags
    @pytest.mark.parametrize("eps", ["5", "-1", "nan", "inf", "-inf", "-nan", "-Infinity"])
    def test_epsilon_outside_its_range_rejected(self, capsys, eps):
        code, out, err = run(capsys, "suppression", "--epsilon", eps)
        assert code == 1
        assert out == ""
        assert err.startswith("error: --epsilon")

    def test_negative_epsilon_with_an_exponent_is_a_value(self, capsys):
        # argparse's own negative-number pattern has no exponent, so this
        # argv once exited 1 with "expected one argument"
        golden = golden_corpus.GOLDEN / "suppression-neg-1e-16-order4.out"
        code, out, err = run(capsys, "suppression", "--epsilon", "-1e-16", "--order", "4")
        assert (code, out, err) == (0, golden.read_text("utf-8"), "")

    def test_negative_threshold_with_an_exponent_is_a_value(self):
        argv = ["suppression", "--epsilon", "0.01", "--threshold", "-1e-3"]
        assert cli._build_parser().parse_args(argv).threshold == -0.001

    @pytest.mark.parametrize("eps, required", [("1", "1"), ("-0.5", "1")])
    def test_epsilon_range_is_half_open(self, capsys, eps, required):
        code, out, _ = run(capsys, "suppression", "--epsilon", eps)
        assert code == 0
        assert out.splitlines()[1].split(",")[4] == required

    def test_scaling_rows(self, capsys):
        code, out, _ = run(
            capsys, "scaling", "--case", "10403:2:101", "--case", f"{N12}:1299699:1299731"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "N,l_min,l_max,worst_epsilon,required_M,root_2n"
        toy = lines[1].split(",")
        big = lines[2].split(",")
        assert toy[0] == "10403" and toy[4] == "9"
        assert big[0] == N12 and big[4] == "227"
        assert float(big[5]) == pytest.approx(1689259081189 ** 0.25)

    def test_malformed_case_rejected(self, capsys):
        code, _, err = run(capsys, "scaling", "--case", "10403:2")
        assert code == 1
        assert "--case" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("suppression", "--epsilon", "0.01", "--threshold", "inf"),
            ("suppression", "--epsilon", "0.01", "--threshold", "nan"),
            ("scaling", "--case", "10403:2:101", "--threshold", "nan"),
            ("scaling", "--case", "10403:2:101", "--threshold", "inf"),
        ],
        ids=" ".join,
    )
    def test_non_finite_threshold_rejected(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "--threshold" in err

    @pytest.mark.parametrize("threshold", ["-1e-3", "-0.5", "-inf"])
    @pytest.mark.parametrize(
        "argv",
        [("suppression", "--epsilon", "0.01"), ("scaling", "--case", "10403:2:101")],
        ids=" ".join,
    )
    def test_negative_threshold_rejected(self, capsys, argv, threshold):
        # no magnitude lies at or below a bar under 0, so this once walked
        # all 10**6 terms of the default --m-cap to print an empty required_M
        code, out, err = run(capsys, *argv, "--threshold", threshold)
        assert (code, out) == (1, "")
        assert err == f"error: --threshold: must be finite and >= 0, got {float(threshold)}\n"

    @pytest.mark.parametrize("m_cap", ["-1", "0"])
    def test_scaling_cap_must_be_positive(self, capsys, m_cap):
        code, out, err = run(capsys, "scaling", "--case", "10403:2:101", "--m-cap", m_cap)
        assert code == 1
        assert out == ""
        assert "--m-cap" in err

    def test_scaling_target_past_float_range_is_a_domain_error(self, capsys):
        code, out, err = run(capsys, "scaling", "--case", f"{10**309}:2:3")
        assert code == 3
        assert out == ""
        assert f"N={10**309}" in err


class TestSimulate:
    def test_factor_normalized_signal(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "--n", N12, "--l", "1299709",
            "--truncation", "19", "--theta", "0.0025",
        )
        assert code == 0
        header, row = out.splitlines()
        assert header == "l,epsilon,mx,my,transverse,normalized_signal,term_count"
        cells = row.split(",")
        assert cells[0] == "1299709"
        assert float(cells[5]) == pytest.approx(1.0, abs=1e-12)
        assert cells[6] == "20"

    def test_window_and_l_are_exclusive(self, capsys):
        code, _, err = run(
            capsys, "simulate", "--n", N12, "--l", "5", "--window", "2:10",
            "--truncation", "19", "--theta", "0.0025",
        )
        assert code == 1
        assert "mutually exclusive" in err

    def test_small_angle_warning_is_one_plain_line(self, capsys):
        code, out, err = run(
            capsys, "simulate", "--n", "15", "--l", "4",
            "--truncation", "19", "--theta", "0.03",
        )
        assert code == 0
        assert out.startswith("l,epsilon,mx,my")
        assert err.startswith("warning: total flip angle 0.6000 above 0.5; ")
        assert err.count("\n") == 1
        assert "cli.py" not in err and "UserWarning" not in err

    def test_long_train_stays_a_rotation(self, capsys):
        # 65537 pulses: the per-pulse matrix product drifted past the trace
        # check here and exited 3
        code, out, err = run(
            capsys, "simulate", "--n", N12, "--l", "65537", "--complete",
            "--theta", "1e-6",
        )
        assert (code, err) == (0, "")
        assert out.splitlines()[1].endswith(",65537")

    def test_negative_theta_with_an_exponent_is_refused_by_value(self, capsys):
        code, out, err = run(
            capsys, "simulate", "--n", N12, "--l", "1299709",
            "--truncation", "19", "--theta", "-1e-3",
        )
        assert (code, out, err) == (
            1, "", "error: --theta: must be finite and positive, got -0.001\n"
        )

    @pytest.mark.parametrize("theta, shown", [("-inf", "-inf"), ("-nan", "nan")])
    def test_non_finite_negative_theta_is_refused_by_value(self, capsys, theta, shown):
        code, out, err = run(
            capsys, "simulate", "--n", N12, "--l", "1299709",
            "--truncation", "19", "--theta", theta,
        )
        assert (code, out, err) == (
            1, "", f"error: --theta: must be finite and positive, got {shown}\n"
        )

    @pytest.mark.parametrize("theta", ["inf", "Infinity", "+inf"])
    def test_infinite_theta_is_a_bad_flag(self, capsys, theta):
        # as --epsilon inf is: no pulse train is formed to find it too large
        code, out, err = run(
            capsys, "simulate", "--n", N12, "--l", "1299709",
            "--truncation", "19", "--theta", theta,
        )
        assert (code, out, err) == (1, "", "error: --theta: must be finite and positive, got inf\n")

    def test_finite_huge_theta_stays_a_domain_error(self, capsys):
        code, out, err = run(
            capsys, "simulate", "--n", N12, "--l", "1299709",
            "--truncation", "19", "--theta", "1e308",
        )
        assert (code, out) == (3, "")
        assert err.startswith("domain error: total flip angle ")

    def test_oversized_angle_is_a_domain_error(self, capsys):
        code, _, err = run(
            capsys, "simulate", "--n", N12, "--l", "1299709",
            "--truncation", "999", "--theta", "0.01",
        )
        assert code == 3
        assert "pi/2" in err


class TestExitCodes:
    def test_strategy_must_be_single(self, capsys):
        code, _, err = run(
            capsys, "scan", "--n", N12, "--truncation", "19", "--complete"
        )
        assert code == 1
        assert "exactly one strategy" in err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (("--count", "3"), "randomized strategy needs both --count and --m-max"),
            (("--m-max", "3"), "randomized strategy needs both --count and --m-max"),
            (("--complete", "--order", "3"), "--order must be 2 for the complete sum, got 3"),
            ((), "exactly one strategy: --truncation M, or --count K with --m-max, "
                 "or --complete"),
        ],
        ids=["count", "m-max", "complete-order", "none"],
    )
    def test_strategy_errors_name_flags(self, capsys, flags, message):
        code, _, err = run(capsys, "scan", "--n", N12, *flags)
        assert (code, err) == (1, f"error: {message}\n")

    @pytest.mark.parametrize("command", sorted(STRATEGY_COMMANDS))
    def test_order_range_error_names_the_flag(self, capsys, command):
        argv = (*STRATEGY_COMMANDS[command], "--truncation", "3", "--order", "1")
        code, _, err = run(capsys, *argv)
        assert (code, err) == (1, "error: --order must be >= 2, got 1\n")

    def test_backwards_window(self, capsys):
        code, _, err = run(
            capsys, "scan", "--n", N12, "--truncation", "19", "--window", "5:4"
        )
        assert code == 1

    @pytest.mark.parametrize("flags", BAD_STRATEGY_FLAGS, ids=" ".join)
    @pytest.mark.parametrize("command", sorted(STRATEGY_COMMANDS))
    def test_bad_strategy_flags_are_validation_errors(self, capsys, command, flags):
        code, out, err = run(capsys, *STRATEGY_COMMANDS[command], *flags)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")
        assert "Traceback" not in err

    def test_complete_sum_cap_is_a_domain_error(self, capsys, monkeypatch):
        # the closed form takes any l; only the complete pulse train is capped
        monkeypatch.setattr(sums, "COMPLETE_SUM_CAP", 50)
        code, _, err = run(
            capsys, "simulate", "--n", "10", "--l", "51", "--complete", "--theta", "0.0025"
        )
        assert code == 3
        assert "cap" in err
        # the message names no keyword that no flag reaches
        assert "allow_large" not in err

    def test_closed_form_takes_l_past_the_pulse_cap(self, capsys):
        code, out, err = run(capsys, "classify", "--n", "10", "--l", "10000001", "--complete")
        assert (code, err) == (0, "")
        assert out.splitlines()[1].startswith("10000001,")

    def test_unwritable_output_path(self, capsys):
        code, _, err = run(
            capsys, "classify", "--n", "15", "--l", "3", "--complete",
            "--output", "/nonexistent-dir/out.csv",
        )
        assert code == 2
        assert "i/o error" in err

    @pytest.mark.parametrize("text", ["\u0661\u0662", "-12", "+12", " 12", "1_2", ""])
    def test_naturals_are_ascii_digits_only(self, capsys, text):
        code, out, err = run(capsys, "classify", "--n", text, "--l", "3", "--complete")
        assert code == 1
        assert out == ""
        assert "not a decimal integer" in err

    def test_unknown_flag(self, capsys):
        code, _, err = run(capsys, "scan", "--n", N12, "--frobnicate")
        assert code == 1

    def test_numpy_out_of_memory_is_a_resource_error(self, capsys, monkeypatch):
        # numpy refuses an array of 2**60 bytes at once, with _ArrayMemoryError
        def refuse(blocks):
            return _blocks.np.empty(1 << 60, _blocks.np.uint8)

        monkeypatch.setattr(_blocks, "_walk_totals", refuse)
        code, out, err = run(capsys, "scan", "--n", N12, "--truncation", "19")
        assert (code, out) == (2, "")
        assert err.startswith("resource error: out of memory (Unable to allocate ")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_address_space_limit_is_a_resource_error(self):
        # the child's own address space is capped at what importing the CLI
        # and numpy takes, plus 64 MiB; a scan keeps its table until its last
        # row, and a table of 10**8 rows outgrows that long before the end
        resource = pytest.importorskip("resource")
        env = dict(os.environ, PYTHONPATH=str(SRC))
        peak = subprocess.run(
            [sys.executable, "-c", "import gaussfactor.cli, numpy\n"
             "print(next(line.split()[1] for line in open('/proc/self/status')"
             " if line.startswith('VmPeak:')))"],
            capture_output=True, text=True, env=env, check=True,
        )
        limit = int(peak.stdout) * 1024 + (64 << 20)

        def cap() -> None:
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        argv = ["scan", "--n", N12, "--window", "2:100000001", "--truncation", "3"]
        done = subprocess.run(
            [sys.executable, "-m", "gaussfactor.cli", *argv], preexec_fn=cap,
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == "resource error: out of memory\n"


class TestReproduceFigure:
    def test_figure_1_shape(self, capsys):
        code, out, _ = run(capsys, "reproduce-figure", "1")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "epsilon,M,magnitude"
        assert len(lines) == 1 + 4 * 1001

    def test_figure_2_terminal_magnitudes(self, capsys):
        code, out, _ = run(capsys, "reproduce-figure", "2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == (
            "series,m,term_real,term_imag,partial_real,partial_imag,magnitude"
        )
        final = {}
        for line in lines[1:]:
            cells = line.split(",")
            final[cells[0]] = float(cells[-1])  # last row per series wins
        assert final["M20"] > 0.99
        assert final["M200"] == pytest.approx(0.3155, abs=1e-3)
        assert final["M1000"] == pytest.approx(0.0770, abs=1e-3)
        assert 0.0 <= final["random10"] <= 1.0

    def test_figure_2_walks_match_the_magnitude_stream(self, capsys):
        # the truncation series are prefixes of the stream that figure 1 and
        # the suppression search read, so they must agree bit for bit
        code, out, _ = run(capsys, "reproduce-figure", "2")
        assert code == 0
        series: dict[str, list[float]] = {}
        for line in out.splitlines()[1:]:
            cells = line.split(",")
            series.setdefault(cells[0], []).append(float(cells[-1]))
        for M in (20, 200, 1000):
            want = [mag for _, mag in islice(iter_curlicue_magnitudes(4e-5, 2), M + 1)]
            assert series[f"M{M}"] == want

    def test_figure_3_traces(self, capsys):
        code, out, _ = run(capsys, "reproduce-figure", "3")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "trace," + ",".join(RESULT_HEADER)
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 3 * 33
        upper = [r for r in rows if r[0] == "upper"]
        assert all(float(r[3]) > 1 / math.sqrt(2) for r in upper)
        lower = [r for r in rows if r[0] == "lower"]
        factors = [r for r in lower if r[4] == "Factor"]
        assert len(factors) == 2
        assert all(float(r[3]) == 1.0 for r in factors)
        assert all(
            float(r[3]) < 1 / math.sqrt(2) for r in lower if r[4] != "Factor"
        )

    def test_figure_4_shape_and_determinism(self, capsys):
        code, first, _ = run(capsys, "reproduce-figure", "4")
        assert code == 0
        _, second, _ = run(capsys, "reproduce-figure", "4")
        assert first == second
        assert len(first.splitlines()) == 1 + 39

    def test_figure_5_shape(self, capsys):
        code, out, _ = run(capsys, "reproduce-figure", "5")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "order,M,magnitude"
        assert len(lines) == 1 + 5 * 1001

    def test_alternate_config(self, tmp_path, capsys):
        cfg = tmp_path / "fig.json"
        cfg.write_text(
            json.dumps({"1": {"order": 2, "epsilons": [0.01], "max_truncation": 10}})
        )
        code, out, _ = run(capsys, "reproduce-figure", "1", "--config", str(cfg))
        assert code == 0
        assert len(out.splitlines()) == 1 + 11

    def test_malformed_config(self, tmp_path, capsys):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{not json")
        code, _, err = run(capsys, "reproduce-figure", "1", "--config", str(cfg))
        assert code == 1
        assert "not valid JSON" in err

    def test_config_missing_keys(self, tmp_path, capsys):
        cfg = tmp_path / "sparse.json"
        cfg.write_text(json.dumps({"1": {"order": 2}}))
        code, _, err = run(capsys, "reproduce-figure", "1", "--config", str(cfg))
        assert code == 1
        assert "missing key" in err

    @pytest.mark.parametrize(
        "figure, cfg",
        [
            ("1", {"order": 2, "epsilons": [math.inf], "max_truncation": 10}),
            ("2", {**FIGURE_2, "epsilon": math.inf}),
            ("2", {**FIGURE_2, "epsilon": math.nan}),
        ],
        ids=["1-inf", "2-inf", "2-nan"],
    )
    def test_curlicue_config_outside_the_domain(self, tmp_path, capsys, figure, cfg):
        path = tmp_path / "fig.json"
        path.write_text(json.dumps({figure: cfg}))
        code, out, err = run(capsys, "reproduce-figure", figure, "--config", str(path))
        assert code == 3
        assert out == ""
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "figure, cfg",
        [
            ("1", {"order": 1, "epsilons": [0.01], "max_truncation": 10}),
            ("2", {**FIGURE_2, "order": 1}),
            ("5", {"epsilon": 1e-6, "orders": [2, 1], "max_truncation": 10}),
        ],
        ids=["1-order-1", "2-order-1", "5-order-1"],
    )
    def test_curlicue_config_order_below_two(self, tmp_path, capsys, figure, cfg):
        # an order key is config validation, as figure 3's trace orders are
        path = tmp_path / "fig.json"
        path.write_text(json.dumps({figure: cfg}))
        code, out, err = run(capsys, "reproduce-figure", figure, "--config", str(path))
        assert (code, out) == (1, "")
        assert err == f"error: figure {figure}: order must be >= 2, got 1\n"

    @pytest.mark.parametrize("name", ["missing.json", "."])
    def test_unreadable_config(self, tmp_path, capsys, name):
        code, out, err = run(
            capsys, "reproduce-figure", "1", "--config", str(tmp_path / name)
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: --config: cannot read")

    @pytest.mark.parametrize(
        "figure_1",
        [
            {"order": 2, "epsilons": ["0.01"], "max_truncation": 10},
            {"order": 2, "epsilons": [0.01], "max_truncation": 10.5},
        ],
        ids=["string-epsilon", "float-truncation"],
    )
    def test_config_value_of_wrong_type(self, tmp_path, capsys, figure_1):
        cfg = tmp_path / "typed.json"
        cfg.write_text(json.dumps({"1": figure_1}))
        code, out, err = run(capsys, "reproduce-figure", "1", "--config", str(cfg))
        assert code == 1
        assert out == ""
        assert err.startswith("error: figure 1: bad config value")

    @pytest.mark.parametrize(
        "figure, change",
        [
            ("2", {"random_seed": -1}),
            ("4", {"seed": -1}),
            ("3", {"upper": {"order": 2, "truncation": -1}}),
            ("4", {"window": [179424701, 179424663]}),
            ("3", {"window": [1299699, 1299715, 1299731]}),
            ("4", {"count": 1.5}),
            ("2", {"random_count": 1.5}),
            ("3", {"window": [1299699.0, 1299731]}),
        ],
        ids=[
            "2-seed", "4-seed", "3-truncation", "4-reversed-window",
            "3-three-element-window", "4-float-count", "2-float-count",
            "3-float-window",
        ],
    )
    def test_bad_config_values_are_validation_errors(
        self, tmp_path, capsys, figure, change
    ):
        path = tmp_path / "fig.json"
        path.write_text(json.dumps({figure: {**BUNDLED[figure], **change}}))
        code, out, err = run(capsys, "reproduce-figure", figure, "--config", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: figure {figure}: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "figure, change, named",
        [
            ("3", {"middle": {**BUNDLED["3"]["middle"], "m_max": None}}, "m_max"),
            ("2", {"random_count": 1.5}, "random_count"),
            ("2", {"random_m_max": None}, "random_m_max"),
            ("2", {"random_seed": "0"}, "random_seed"),
            # range errors of the strategy itself
            ("2", {"random_count": 0}, "random_count must be >= 1"),
            ("2", {"random_count": 2000}, "random_count 2000 exceeds"),
            ("2", {"random_m_max": -1}, "random_m_max must be in"),
            ("2", {"random_seed": -1}, "random_seed must be in"),
            ("3", {"upper": {"order": 1, "truncation": 19}},
             "figure 3: order must be >= 2, got 1"),
        ],
        ids=[
            "3-m_max", "2-random_count", "2-random_m_max", "2-random_seed",
            "2-random_count-0", "2-random_count-2000", "2-random_m_max-negative",
            "2-random_seed-negative", "3-order",
        ],
    )
    def test_strategy_errors_name_config_fields(
        self, tmp_path, capsys, figure, change, named
    ):
        path = tmp_path / "fig.json"
        path.write_text(json.dumps({figure: {**BUNDLED[figure], **change}}))
        code, _, err = run(capsys, "reproduce-figure", figure, "--config", str(path))
        assert code == 1
        assert named in err
        assert "--" not in err

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "fig4.csv"
        code, out, _ = run(capsys, "reproduce-figure", "4", "--output", str(target))
        assert code == 0
        assert out == ""
        text = target.read_text(encoding="utf-8")
        assert len(text.splitlines()) == 40
        assert "\r" not in text


class TestResultRowModel:
    def test_row_fields(self):
        row = ResultRow(5, -0.5, 0.7, "GhostFactor", None, 20)
        assert row.l == 5 and row.seed is None
