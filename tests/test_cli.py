import contextlib
import csv
import io
import json
import logging
import math
import warnings

import pytest
from hypothesis import example, given, settings, strategies as st

from smoothlab import cli, verify
from smoothlab.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def strict_json(text):
    """json.loads refusing the NaN/Infinity tokens that RFC 8259 does not allow."""

    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=refuse)


class TestCorpusCommand:
    def test_lists_entries(self, capsys):
        code, out = run(capsys, "corpus")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["entries"]) >= 8

    def test_csv_format(self, capsys):
        code, out = run(capsys, "corpus", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0].startswith("name,")


class TestModulusCommand:
    def test_plane_wave_value(self, capsys):
        code, out = run(
            capsys, "modulus", "planewave", "--alpha", "1", "--p", "inf",
            "--delta", "0.5", "--quick",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == pytest.approx(0.4948, abs=1e-3)

    def test_large_p_tends_to_the_sup(self, capsys):
        # every |difference|^1000 underflows; the L_1000 norm stays below
        # the sup, by the factor (peak width)^(1/1000), here 2.2e-3
        args = ("modulus", "gaussian", "--alpha", "1", "--delta", "0.1", "--quick")
        sup = json.loads(run(capsys, *args, "--p", "inf")[1])["value"]
        for p, rel in (("1000", 5e-3), ("1e300", 0.0)):
            code, out = run(capsys, *args, "--p", p)
            assert code == 0
            assert json.loads(out)["value"] == pytest.approx(sup, rel=rel, abs=0.0)

    def test_curve_schema(self, capsys):
        code, out = run(
            capsys, "curve", "gaussian", "--alpha", "1", "--p", "2", "--quick"
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["deltas"]) == len(payload["values"])


class TestVerifyCommand:
    def test_single_check_passes(self, capsys):
        code, out = run(
            capsys, "verify", "P1a", "--entry", "gaussian", "--alpha", "1",
            "--p", "2", "--quick",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "pass"

    def test_hypothesis_error_exits_2(self, capsys):
        code, _ = run(
            capsys, "verify", "P1d", "--entry", "gaussian", "--alpha", "1",
            "--p", "2", "--quick",
        )
        assert code == 2

    def test_unknown_property_exits_2(self, capsys):
        code, _ = run(capsys, "verify", "P99", "--quick")
        assert code == 2

    def test_inf_exponent_spelled_out(self, capsys):
        code, out = run(
            capsys, "verify", "P1a", "--entry", "gaussian", "--alpha", "1",
            "--p", "inf", "--quick",
        )
        assert code == 0
        assert json.loads(out)["params"]["p"] == "inf"

    @pytest.mark.parametrize("argv, r", [
        (("P6", "--r", "1.5", "--q", "1"), 1.5),
        (("P6", "--r", "1", "--q", "1"), 1),
        (("P4", "--r", "1.0"), 1),
    ])
    def test_r_takes_a_whole_or_fractional_order(self, capsys, argv, r):
        # --r once parsed as an int, so P6's fractional orders stopped at argparse
        code, out = run(capsys, "verify", *argv, "--entry", "gaussian", "--p", "2", "--quick")
        assert code == 0
        echoed = json.loads(out)["params"]["r"]
        assert echoed == r and type(echoed) is type(r)

    def test_csv_rows(self, capsys):
        code, out = run(
            capsys, "verify", "P1a", "--entry", "gaussian", "--alpha", "1",
            "--p", "2", "--quick", "--format", "csv",
        )
        assert code == 0
        header = out.splitlines()[0]
        assert "ratio" in header and "property_id" in header

    @pytest.mark.parametrize("pid", ["P14", "P17"])
    def test_overflowing_near_best_fails_with_a_report(self, capsys, pid):
        # at p = 0.001 every near-best candidate's error overflows: the
        # check reports inf sides and fails instead of crashing
        code, out = run(capsys, "verify", pid, "--entry", "gaussian", "--alpha", "1",
                        "--p", "0.001", "--quick")
        assert code == 1
        payload = strict_json(out)
        assert payload["verdict"] == "fail"
        assert all(v == "inf" for v in payload["lhs"] + payload["rhs"])
        assert payload["notes"][0].endswith("non-finite points left out of the slope fit")

    @pytest.mark.parametrize("argv", [
        ("P2", "--alpha", "1"),
        ("P5", "--entry2", "bump", "--r", "2", "--q", "2"),
    ])
    def test_overflowing_constant_fails_with_a_report(self, capsys, argv):
        # at p = 0.001 the row's constant, (1 + lambda)^(alpha + d(1/p - 1))
        # or (r + 1)^(1/s - 1), is beyond the double range: it is inf
        code, out = run(capsys, "verify", *argv, "--entry", "gaussian", "--p", "0.001",
                        "--quick")
        assert code == 1
        payload = strict_json(out)
        assert payload["verdict"] == "fail"
        assert "inf" in payload["rhs"]

    @pytest.mark.parametrize("argv", [("BERN", "--alpha", "1"), ("NIK", "--q", "2")])
    def test_overflowing_family_fails_with_a_report(self, capsys, argv):
        # at p = 0.001 BERN's polynomial norms and NIK's factor
        # band^(d(1/p - 1/q)) overflow; each once ended in a traceback
        code, out = run(capsys, "verify", *argv, "--p", "0.001", "--quick")
        assert code == 1
        payload = strict_json(out)
        assert payload["verdict"] == "fail"
        assert "inf" in payload["rhs"]

    @pytest.mark.parametrize("argv", [
        ("P7", "--gamma", "1", "--alpha", "500"),
        ("P9", "--gamma", "1", "--q", "4", "--alpha", "500"),
        ("P10", "--q", "4", "--alpha", "1023"),
    ])
    def test_overflowing_integral_side_fails_with_a_report(self, capsys, argv):
        # at such orders the integral side is beyond the double range: it is
        # inf, and a finite lhs over it (a ratio of 0) must not pass
        code, out = run(capsys, "verify", *argv, "--entry", "gaussian", "--p", "2", "--quick")
        assert code == 1
        payload = strict_json(out)
        assert payload["verdict"] == "fail"
        assert "inf" in payload["rhs"]


class TestVerifyAllCommand:
    def test_quick_run(self, capsys, tmp_path):
        artifact = tmp_path / "report.json"
        code, out = run(capsys, "verify-all", "--quick", "--output", str(artifact))
        assert code == 0
        assert out == ""  # the one artifact went to the file
        payload = json.loads(artifact.read_text())
        assert payload["summary"]["all_pass"]

    def test_thread_count_does_not_change_bytes(self, capsys):
        one = run(capsys, "verify-all", "--quick", "--threads", "1")
        two = run(capsys, "verify-all", "--quick", "--threads", "2")
        assert one == two and one[0] == 0


class TestConfigMerging:
    def test_config_file_with_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"quick": True, "n_quad": 48}))
        code, out = run(
            capsys, "verify", "P1a", "--entry", "gaussian", "--alpha", "1",
            "--p", "2", "--config", str(cfg),
        )
        assert code == 0
        assert json.loads(out)["verdict"] == "pass"

    @pytest.mark.parametrize("side", ["lower", "upper"])
    def test_p14_takes_the_bands_its_grid_holds(self, capsys, tmp_path, side):
        # the bands 1 to 8 give the moduli at delta = 1/sigma, sigma = 1, 2, 4
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(BAND_8))
        code, out = run(capsys, "verify", "P14", "--entry", "gaussian", "--alpha", "1",
                        "--p", "2", "--side", side, "--config", str(cfg))
        assert code == 0
        assert json.loads(out)["grid"] == [1.0, 0.5, 0.25]

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        code, out = run(
            capsys, "modulus", "planewave", "--alpha", "1", "--p", "inf",
            "--delta", "0.5", "--quick", "--output", str(target),
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["value"] > 0


P7_ARGV = ("verify", "P7", "--entry", "gaussian", "--alpha", "1", "--gamma", "1", "--p", "2",
           "--quick")
P12_ARGV = ("verify", "P12", "--entry", "gaussian", "--alpha", "2", "--p", "2", "--quick")
P1A_ARGV = ("verify", "P1a", "--entry", "gaussian", "--alpha", "1", "--p", "2", "--quick")
MODULUS_ARGV = ("modulus", "gaussian", "--alpha", "1", "--delta", "0.5")
#: grids whose band pi N/L is 0.63 (1-D) or 1.26 (2-D), 2.51, which holds
#: one of BERN's dilations, and 10.05, which holds the bands 1 to 8
COARSE_1D = {"scale_1d": {"N": 8, "L": 40}}
COARSE_2D = {"scale_2d": {"N": 8, "L": 20}}
ONE_DILATION = {"scale_1d": {"N": 16, "L": 20}}
BAND_8 = {"scale_1d": {"N": 64, "L": 20}}
#: a period below 2 pi, whose lowest frequency 2 pi/L is beyond band 1
SHORT_PERIOD = {"scale_1d": {"N": 256, "L": 6}}


@pytest.mark.parametrize("argv", [
    ("corpus",),
    ("modulus", "gaussian", "--alpha", "1", "--delta", "0.1", "--quick"),
    ("curve", "gaussian", "--alpha", "1", "--quick"),
    ("approx", "gaussian", "--quick"),
    P1A_ARGV,
    ("verify-all", "--quick"),
])
def test_csv_has_a_header_and_rows(capsys, argv):
    code, out = run(capsys, *argv, "--format", "csv")
    assert code == 0
    header, *rows = list(csv.reader(io.StringIO(out)))
    assert rows and all(len(row) == len(header) for row in rows)
    if argv[0] == "verify-all":
        # the rows of every report, in matrix order
        assert list(dict.fromkeys(row[0] for row in rows)) == [
            "P1a", "P2", "P7", "P12", "P16", "P17", "NSB", "BERN"]


class TestBadInputExitsTwo:
    """Bad input exits 2 with a one-line error; 1 is kept for failed checks."""

    def run_bad(self, capsys, caplog, *argv):
        with caplog.at_level(logging.ERROR, logger="smoothlab"):
            code = main(list(argv))
        captured = capsys.readouterr()
        errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
        assert code == 2
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert len(errors) == 1 and "\n" not in errors[0]
        return errors[0]

    def test_missing_config_file(self, capsys, caplog, tmp_path):
        missing = tmp_path / "missing.json"
        msg = self.run_bad(capsys, caplog, "verify-all", "--quick", "--config", str(missing))
        assert str(missing) in msg

    def test_unreadable_config_path(self, capsys, caplog, tmp_path):
        self.run_bad(capsys, caplog, "verify-all", "--quick", "--config", str(tmp_path))

    def test_malformed_config_json(self, capsys, caplog, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"quick": tru')
        msg = self.run_bad(capsys, caplog, "verify-all", "--quick", "--config", str(cfg))
        assert "JSON" in msg

    def test_config_must_be_an_object(self, capsys, caplog, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        self.run_bad(capsys, caplog, "verify-all", "--quick", "--config", str(cfg))

    def test_non_numeric_exponent(self, capsys, caplog):
        msg = self.run_bad(
            capsys, caplog, "modulus", "gaussian", "--alpha", "1", "--delta", "0.5",
            "--p", "abc", "--quick",
        )
        assert "--p" in msg

    def test_oo_is_no_exponent(self, capsys, caplog):
        # p and q take what float() reads: inf and infinity, not oo
        msg = self.run_bad(
            capsys, caplog, "modulus", "gaussian", "--alpha", "1", "--delta", "0.5",
            "--p", "oo", "--quick",
        )
        assert msg == "error: --p must be a positive number or inf, got 'oo'"

    def test_an_order_below_one_half_is_not_whole(self, capsys, caplog):
        # 1e-13 is a fractional order, inadmissible at p = 1/2: no check runs
        msg = self.run_bad(
            capsys, caplog, "verify", "P1c", "--entry", "gaussian", "--alpha", "1e-13",
            "--p", "0.5", "--quick",
        )
        assert "inadmissible" in msg

    def test_non_numeric_verify_exponent(self, capsys, caplog):
        msg = self.run_bad(
            capsys, caplog, "verify", "P1a", "--entry", "gaussian", "--alpha", "1",
            "--p", "2", "--q", "abc", "--quick",
        )
        assert "--q" in msg

    def test_unwritable_output(self, capsys, caplog, tmp_path):
        target = tmp_path / "missing" / "x.json"
        msg = self.run_bad(capsys, caplog, "corpus", "--output", str(target))
        assert "--output" in msg

    def test_a_parameter_the_check_does_not_take(self, capsys, caplog):
        # P1a reads neither; they were once echoed into a passing report
        msg = self.run_bad(capsys, caplog, *P1A_ARGV, "--gamma", "5", "--q", "4")
        assert "'gamma'" in msg and "'q'" in msg

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_thread_flag_below_one(self, capsys, caplog, count):
        msg = self.run_bad(capsys, caplog, "verify-all", "--quick", "--threads", count)
        assert "threads" in msg

    @pytest.mark.parametrize("content", [{"threads": 0}, {"threads": 2.5}, {"thread": 4},
                                         {"threads": "3"}, {"threads": None}])
    def test_bad_config_values(self, capsys, caplog, tmp_path, content):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(content))
        msg = self.run_bad(capsys, caplog, "verify-all", "--quick", "--config", str(cfg))
        assert "thread" in msg

    @pytest.mark.parametrize("argv, content, key", [
        (P7_ARGV, '{"n_quad": "x"}', "n_quad"),
        (P7_ARGV, '{"n_quad": 0}', "n_quad"),
        (P7_ARGV, '{"n_quad": true}', "n_quad"),
        (P7_ARGV, '{"scale_1d": 5}', "scale_1d"),
        (P7_ARGV, '{"scale_1d": {"N": 256}}', "scale_1d"),
        (P7_ARGV, '{"scale_1d": {"N": 256, "L": "x"}}', "scale_1d"),
        (P7_ARGV, '{"scale_1d": {"N": 256, "L": 20, "M": 1}}', "scale_1d"),
        (P7_ARGV, '{"slope_tol": "x"}', "slope_tol"),
        (P7_ARGV, '{"n_deltas_1d": 2.5}', "n_deltas_1d"),
        (("verify-all",), '{"quick": "no"}', "quick"),
        (P12_ARGV, '{"max_ratio": "a"}', "max_ratio"),
        (P12_ARGV, '{"max_ratio": Infinity}', "max_ratio"),
        (P12_ARGV, '{"k_max_1d": -1}', "k_max_1d"),
        (P1A_ARGV, '{"n_deltas_1d": 0}', "n_deltas_1d"),
        (("verify-all", "--quick"), '{"slope_tol": "x"}', "slope_tol"),
        (P1A_ARGV, '{"scale_1d": {"N": 3, "L": 20}}', "scale_1d"),
        (P1A_ARGV, '{"scale_1d": {"N": 12, "L": 20}}', "scale_1d"),
        # sizes numpy cannot allocate once died with a MemoryError traceback
        (P7_ARGV, '{"n_quad": 1000000000000}', "n_quad"),
        (P7_ARGV, '{"n_deltas_1d": 1000000000000}', "n_deltas_1d"),
        (MODULUS_ARGV, '{"scale_1d": {"N": 1099511627776, "L": 40}}', "scale_1d"),
    ])
    def test_mistyped_config_values(self, capsys, caplog, tmp_path, argv, content, key):
        # each once printed a traceback and exited 1, gave a false verdict,
        # or ran on an empty quadrature or the quick matrix
        cfg = tmp_path / "cfg.json"
        cfg.write_text(content)
        msg = self.run_bad(capsys, caplog, *argv, "--config", str(cfg))
        assert repr(key) in msg

    @pytest.mark.parametrize("scale, argv", [
        (COARSE_1D, ("BERN", "--alpha", "1", "--p", "2")),
        (COARSE_1D, ("NIK", "--p", "1", "--q", "2")),
        (COARSE_1D, ("P12", "--entry", "gaussian", "--alpha", "2", "--p", "2")),
        (COARSE_1D, ("P12", "--entry", "gaussian", "--alpha", "2", "--p", "2",
                     "--form", "sharp")),
        (COARSE_1D, ("P13", "--entry", "gaussian", "--alpha", "1", "--p", "2")),
        (COARSE_1D, ("P14", "--entry", "gaussian", "--alpha", "1", "--p", "2")),
        (COARSE_1D, ("HLN1", "--alpha", "1", "--p", "0.5", "--q", "2")),
        (COARSE_1D, ("HLN3", "--alpha", "1", "--p", "2")),
        (COARSE_2D, ("BERN", "--alpha", "1", "--p", "2", "--d", "2")),
        (COARSE_2D, ("NIK", "--p", "1", "--q", "2", "--d", "2")),
        (COARSE_2D, ("HLN2", "--alpha", "1", "--p", "1", "--q", "2", "--d", "2")),
        (ONE_DILATION, ("BERN", "--alpha", "1", "--p", "2")),
        (ONE_DILATION, ("NIK", "--p", "1", "--q", "2")),
        (SHORT_PERIOD, ("BERN", "--alpha", "1", "--p", "2")),
    ])
    def test_grid_too_coarse_for_the_check(self, capsys, caplog, tmp_path, scale, argv):
        # each once printed a traceback, reported fail on an empty series,
        # or passed on bands beyond the grid's band pi N/L
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(scale))
        msg = self.run_bad(capsys, caplog, "verify", *argv, "--config", str(cfg))
        assert argv[0] in msg

    @pytest.mark.parametrize("key, value", [
        ("max_ratio", 100.0), ("slope_tol", 0.05), ("band_limit", 50.0), ("exact_tol", 1e-9),
        ("k_max_1d", 6), ("k_max_2d", 5),
    ])
    def test_a_removed_config_key_is_unknown(self, capsys, caplog, tmp_path, key, value):
        # the verdict bounds are constants of the rule, and the bands follow the grid
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        msg = self.run_bad(capsys, caplog, *P12_ARGV, "--config", str(cfg))
        assert f"unknown config keys: {key!r}" in msg

    @pytest.mark.parametrize("command", [
        ("modulus", "gaussian", "--alpha", "1", "--delta", "0.1"),
        ("curve", "gaussian", "--alpha", "1"),
        ("approx", "gaussian"),
        P1A_ARGV,
        ("corpus",),
    ])
    def test_threads_belong_to_verify_all(self, capsys, command):
        # only verify-all runs a pool; argparse refuses the flag elsewhere
        with pytest.raises(SystemExit) as exc:
            main([*command, "--threads", "2"])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert "unrecognized arguments: --threads 2" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("flags", [("--quick",), ("--config", "cfg.json")])
    def test_corpus_takes_only_the_output_flags(self, capsys, flags):
        # neither changes the corpus listing; argparse refuses both
        with pytest.raises(SystemExit) as exc:
            main(["corpus", *flags])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert f"unrecognized arguments: {' '.join(flags)}" in captured.err

    @pytest.mark.parametrize("argv", [
        ("P11", "--entry", "gaussian", "--r", "1.7", "--m", "1", "--p", "2"),
        ("P4", "--entry", "gaussian", "--r", "inf", "--p", "2"),
    ])
    def test_fractional_integer_parameter(self, capsys, caplog, argv):
        msg = self.run_bad(capsys, caplog, "verify", *argv, "--quick")
        assert "'r' must be a whole number" in msg

    @pytest.mark.parametrize("argv", [
        ("P4", "--entry", "gaussian", "--r", "200", "--p", "2"),
        ("P11", "--entry", "gaussian", "--r", "1", "--m", "200", "--p", "2"),
    ])
    def test_derivative_order_past_the_double_range(self, capsys, caplog, argv):
        # |w|^200 is beyond the double range on the quick grid, where |w| <= 40.2
        msg = self.run_bad(capsys, caplog, "verify", *argv, "--quick")
        assert "order 200 too large" in msg

    @pytest.mark.parametrize("sigma", ["0.1", "0", "1e-300", "1e300"])
    def test_polynomial_band_outside_grid(self, capsys, caplog, sigma):
        msg = self.run_bad(
            capsys, caplog, "verify", "NSB", "--alpha", "1", "--p", "2", "--sigma", sigma,
            "--quick",
        )
        assert "sigma" in msg

    def test_unknown_form(self, capsys, caplog):
        msg = self.run_bad(
            capsys, caplog, "verify", "P6", "--entry", "gaussian", "--r", "1", "--p", "2",
            "--q", "1", "--form", "bogus", "--quick",
        )
        assert "form" in msg

    @pytest.mark.parametrize("argv", [
        ("modulus", "gaussian", "--alpha", "1", "--delta", "inf"),
        ("modulus", "gaussian", "--alpha", "1", "--delta", "nan"),
        ("verify", "P2", "--entry", "gaussian", "--alpha", "1", "--p", "2", "--lam", "inf"),
    ])
    def test_non_finite_step(self, capsys, caplog, recwarn, argv):
        msg = self.run_bad(capsys, caplog, *argv, "--quick")
        assert "delta" in msg
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("argv", [
        ("verify", "P1a", "--entry", "gaussian", "--alpha", "inf", "--p", "2"),
        ("verify", "HLN1", "--alpha", "nan", "--p", "0.5", "--q", "2"),
        ("modulus", "gaussian", "--alpha", "inf", "--p", "2", "--delta", "0.1"),
        ("curve", "gaussian", "--alpha", "inf", "--p", "2"),
    ])
    def test_non_finite_order(self, capsys, caplog, argv):
        msg = self.run_bad(capsys, caplog, *argv, "--quick")
        assert "order must be positive and finite" in msg


def _numbers(*extra):
    """Option values as typed: non-finite, zero, negative and ordinary floats."""
    special = ["inf", "-inf", "nan", "0", "-0.0", "-1", *extra]
    return st.one_of(st.sampled_from(special), st.floats(-4.0, 4.0).map(repr))


@settings(max_examples=60, deadline=None)
@given(entry=st.sampled_from(["gaussian", "bump", "planewave"]),
       command=st.sampled_from(["modulus", "curve", "approx"]),
       alpha=_numbers("1023", "1024", "1e300"), delta=_numbers("1e-300", "1e300"),
       p=_numbers("1e-300", "1e300"))
def test_bad_numbers_exit_0_or_2_without_traceback(entry, command, alpha, delta, p):
    """Exit 1 means a failed check, so no value of these options may reach it."""
    argv = [command, entry, f"--p={p}", "--quick"]
    if command != "approx":
        argv.append(f"--alpha={alpha}")
    if command == "modulus":
        argv.append(f"--delta={delta}")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2)
    assert "Traceback" not in err.getvalue()
    if code == 0:
        strict_json(out.getvalue())


def exits_0_or_2_without_warning(argv, scale: dict, path) -> int:
    """main(argv) under a config at ``path`` holding ``scale`` exits 0 (with
    strict JSON) or 2, with no traceback and no numpy RuntimeWarning; gives
    the exit code."""
    path.write_text(json.dumps(scale))
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv, "--config", str(path)])
    assert code in (0, 2)
    assert not [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
    assert "Traceback" not in err.getvalue()
    if code == 0:
        strict_json(out.getvalue())
    return code


HUGE_1D = {"scale_1d": {"N": 64, "L": 1e300}}


@pytest.mark.parametrize("scale, argv", [
    (HUGE_1D, ("modulus", "gaussian", "--alpha", "1", "--delta", "0.5")),
    (HUGE_1D, ("approx", "gaussian")),
    (HUGE_1D, ("verify", "P14", "--entry", "gaussian", "--alpha", "1", "--p", "2")),
    (HUGE_1D, ("verify", "P17", "--entry", "gaussian", "--alpha", "1", "--p", "2")),
    (HUGE_1D, ("approx", "cusp15")),
    ({"scale_2d": {"N": 8, "L": 1e300}},
     ("modulus", "gaussian2d", "--alpha", "1", "--delta", "0.5")),
    ({"scale_1d": {"N": 64, "L": 1e154}}, ("curve", "mod_gaussian", "--alpha", "1")),
    ({"scale_1d": {"N": 8, "L": 1e-300}}, ("approx", "fejer")),
    ({"scale_2d": {"N": 8, "L": 1e-300}}, ("approx", "fejer2d")),
    ({"scale_2d": {"N": 8, "L": 5e-154}}, ("curve", "fejer2d", "--alpha", "1")),
    ({"scale_2d": {"N": 16, "L": 1e280}},
     ("modulus", "bump2d", "--alpha", "1.5", "--p", "1", "--delta", "10")),
])
def test_extreme_periods_exit_0_or_2_without_warning(tmp_path, scale, argv):
    # each once raised OverflowError (a traceback and exit 1) or printed a
    # numpy RuntimeWarning: a square of L/2, of a coordinate or of |w|, the
    # area L^2, 1/L^2 or a spectrum's FFT sum was beyond the double range,
    # or a zero row's norm was 0 * inf
    exits_0_or_2_without_warning(argv, scale, tmp_path / "cfg.json")


@pytest.mark.parametrize("p", ["inf", "0.5", "1", "2"])
@pytest.mark.parametrize("alpha", ["1", "2", "1.5"])
def test_a_step_far_past_the_period_exits_0_or_names_its_phase(tmp_path, caplog, alpha, p):
    # h w = 1e100 * 2.3e253 overflowed: numpy RuntimeWarnings and exit 2.  A
    # whole order and every gain take h mod L; a fractional symbol is not
    # L-periodic, so off p = 2 its overflowing phase is refused by name
    scale = {"scale_1d": {"N": 256, "L": 3.47e-251}}
    argv = ("modulus", "fejer", "--alpha", alpha, "--p", p, "--delta", "1e100")
    with caplog.at_level(logging.ERROR, logger="smoothlab"):
        code = exits_0_or_2_without_warning(argv, scale, tmp_path / "cfg.json")
    errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
    if alpha == "1.5" and p != "2":
        assert code == 2 and len(errors) == 1 and "its phase (h, w) overflows" in errors[0]
    else:
        assert code == 0 and errors == []


ENTRIES_1D = ("gaussian", "mod_gaussian", "bump", "cusp05", "fejer")


@settings(max_examples=60, deadline=None)
@given(entry=st.sampled_from([*ENTRIES_1D, "gaussian2d", "fejer2d"]),
       command=st.sampled_from(["modulus", "curve", "approx"]),
       exponent=st.floats(-300.0, 300.0), large_n=st.booleans())
@example(entry="gaussian", command="modulus", exponent=300.0, large_n=True)
@example(entry="fejer2d", command="approx", exponent=-300.0, large_n=False)
def test_config_scales_exit_0_or_2_without_warning(tmp_path_factory, entry, command,
                                                    exponent, large_n):
    """Any period L = 10^exponent in [1e-300, 1e300], at N = 8 or 64 (8 in 2-D)."""
    one_d = entry in ENTRIES_1D
    scale = {"N": 64 if large_n and one_d else 8, "L": 10.0 ** exponent}
    argv = [command, entry]
    if command != "approx":
        argv.append("--alpha=1")
    if command == "modulus":
        argv.append("--delta=0.5")
    exits_0_or_2_without_warning(argv, {"scale_1d" if one_d else "scale_2d": scale},
                                 tmp_path_factory.getbasetemp() / "scale.json")


@pytest.mark.parametrize("argv", [
    ("corpus",),
    (*MODULUS_ARGV, "--quick"),
    ("curve", "gaussian", "--alpha", "1", "--quick"),
    ("approx", "gaussian"),
    P1A_ARGV,
    ("verify-all", "--quick"),
])
def test_main_builds_one_workbench_for_the_command(capsys, monkeypatch, argv):
    """Every command runs on one Workbench, which main builds from the
    config and hands to run_check or verify_all."""
    built, handed = [], []
    init = verify.Workbench.__init__

    def counting_init(wb, *args, **kwargs):
        built.append(wb)
        init(wb, *args, **kwargs)

    monkeypatch.setattr(verify.Workbench, "__init__", counting_init)
    for name in ("run_check", "verify_all"):
        real = getattr(cli, name)
        monkeypatch.setattr(cli, name,
                            lambda *args, real=real: handed.append(args[-1]) or real(*args))
    code, _ = run(capsys, *argv)
    assert code == 0 and len(built) == 1
    assert built[0].cfg["quick"] == ("--quick" in argv)
    assert handed == (built if argv[0].startswith("verify") else [])


#: gaussian rows of ``verify --quick`` and the flags each takes besides --p;
#: P5 takes no order, and its second exponent --q is drawn like --p
VERIFY_ROWS = {
    "P1c": ("--alpha",), "P2": ("--alpha",), "P12": ("--alpha",), "P17": ("--alpha",),
    "P5": ("--entry2", "bump", "--r", "2", "--q"),
    "P7": ("--gamma", "1", "--alpha"), "P9": ("--gamma", "1", "--q", "4", "--alpha"),
    "P10": ("--q", "4", "--alpha"),
}


#: the rows whose --alpha is an order measured in L_p
LP_ORDER_ROWS = ("P1c", "P2", "P7", "P10", "P12", "P17")


def _inadmissible(alpha: str, p: str) -> bool:
    """A positive finite order that is neither whole (at least 1/2 and
    within 1e-12 of an integer) nor above (1/p - 1)_+, at a positive p."""
    a, q = float(alpha), float(p)
    if not (0 < a < math.inf and q > 0):
        return False
    whole = a >= 0.5 and abs(a - round(a)) <= 1e-12
    return not (whole or a > max(1.0 / q - 1.0, 0.0))


@settings(max_examples=40, deadline=None)
@given(pid=st.sampled_from(sorted(VERIFY_ROWS)),
       number=_numbers("1023", "1024", "1e300", "0.001", "1e-13"),
       p=_numbers("1e-300", "1e300", "0.001"))
@example(pid="P1c", number="1e-13", p="0.5")
def test_verify_exits_0_1_or_2_with_strict_json(pid, number, p):
    """A row may fail (exit 1), but with a report, never with a traceback;
    an inadmissible order exits 2, since exit 1 means that a check failed
    on an admissible input."""
    *flags, last = VERIFY_ROWS[pid]
    argv = ["verify", pid, "--entry", "gaussian", f"--p={p}", "--quick", *flags,
            f"{last}={number}"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if pid in LP_ORDER_ROWS and _inadmissible(number, p):
        assert code == 2
    if code in (0, 1):
        strict_json(out.getvalue())
