"""Command-line behavior: schemas, formats, exit codes, determinism."""
import json
import math

import pytest

from gaussfactor.cli import (
    RESULT_HEADER,
    ResultRow,
    ValidationError,
    emit_csv,
    emit_json,
    main,
    parse_result_csv,
)
from gaussfactor.ghost import GHOST_THRESHOLD

N12 = "1689259081189"
N17 = "32193216510801043"

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
]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSerialization:
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

    def test_complete_sum_cap_is_a_domain_error(self, capsys):
        code, _, err = run(capsys, "classify", "--n", "10", "--l", "10000001", "--complete")
        assert code == 3
        assert "cap" in err

    def test_unwritable_output_path(self, capsys):
        code, _, err = run(
            capsys, "classify", "--n", "15", "--l", "3", "--complete",
            "--output", "/nonexistent-dir/out.csv",
        )
        assert code == 2
        assert "i/o error" in err

    def test_unknown_flag(self, capsys):
        code, _, err = run(capsys, "scan", "--n", N12, "--frobnicate")
        assert code == 1


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
