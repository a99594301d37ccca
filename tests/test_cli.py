import contextlib
import io
import json
import logging

import pytest
from hypothesis import given, settings, strategies as st

from smoothlab.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


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

    def test_csv_rows(self, capsys):
        code, out = run(
            capsys, "verify", "P1a", "--entry", "gaussian", "--alpha", "1",
            "--p", "2", "--quick", "--format", "csv",
        )
        assert code == 0
        header = out.splitlines()[0]
        assert "ratio" in header and "property_id" in header


class TestVerifyAllCommand:
    def test_quick_run(self, capsys, tmp_path):
        artifact = tmp_path / "report.json"
        code, out = run(capsys, "verify-all", "--quick", "--output", str(artifact))
        assert code == 0
        assert out == ""  # the one artifact went to the file
        payload = json.loads(artifact.read_text())
        assert payload["summary"]["all_pass"]


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

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        code, out = run(
            capsys, "modulus", "planewave", "--alpha", "1", "--p", "inf",
            "--delta", "0.5", "--quick", "--output", str(target),
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["value"] > 0


class TestBadInputExitsTwo:
    """Bad input exits 2 with a one-line error; 1 is kept for failed checks."""

    def run_bad(self, capsys, caplog, *argv):
        with caplog.at_level(logging.ERROR, logger="smoothlab"):
            code, out = run(capsys, *argv)
        errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
        assert code == 2
        assert out == ""
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

    def test_non_integer_thread_env(self, capsys, caplog, monkeypatch):
        monkeypatch.setenv("SMOOTHLAB_THREADS", "abc")
        msg = self.run_bad(capsys, caplog, "verify-all", "--quick")
        assert "SMOOTHLAB_THREADS" in msg

    def test_non_numeric_exponent(self, capsys, caplog):
        msg = self.run_bad(
            capsys, caplog, "modulus", "gaussian", "--alpha", "1", "--delta", "0.5",
            "--p", "abc", "--quick",
        )
        assert "--p" in msg

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

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_thread_flag_below_one(self, capsys, caplog, count):
        msg = self.run_bad(capsys, caplog, "verify-all", "--quick", "--threads", count)
        assert "threads" in msg

    @pytest.mark.parametrize("content", [{"threads": 0}, {"threads": 2.5}, {"thread": 4}])
    def test_bad_config_values(self, capsys, caplog, tmp_path, content):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(content))
        msg = self.run_bad(capsys, caplog, "verify-all", "--quick", "--config", str(cfg))
        assert "thread" in msg

    def test_thread_env_below_one(self, capsys, caplog, monkeypatch):
        monkeypatch.setenv("SMOOTHLAB_THREADS", "0")
        msg = self.run_bad(capsys, caplog, "verify-all", "--quick")
        assert "SMOOTHLAB_THREADS" in msg

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
       command=st.sampled_from(["modulus", "curve"]),
       alpha=_numbers("1023", "1024", "1e300"), delta=_numbers("1e-300", "1e300"),
       p=_numbers("1e-300", "1e300"))
def test_bad_numbers_exit_0_or_2_without_traceback(entry, command, alpha, delta, p):
    """Exit 1 means a failed check, so no value of these options may reach it."""
    argv = [command, entry, f"--alpha={alpha}", f"--p={p}", "--quick"]
    if command == "modulus":
        argv.append(f"--delta={delta}")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2)
    assert "Traceback" not in err.getvalue()
