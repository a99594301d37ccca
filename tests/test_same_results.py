"""``tools/same_results.py`` on the quick report: it passes a report against
itself and against round-off in a stat whose true value is 0, and fails
a moved value or a flipped verdict; and the quick report gives the same
results as the pinned ``tests/data/quick_report.json``.  On a ``curve``
output it compares value by value."""

import contextlib
import copy
import io
import json
import pathlib
import subprocess
import sys

import pytest

from smoothlab.cli import main
from smoothlab.verify import Workbench, canonical_json, verify_all

ROOT = pathlib.Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "same_results.py"
PINNED = ROOT / "tests" / "data" / "quick_report.json"


@pytest.fixture(scope="module")
def quick():
    return json.loads(canonical_json(verify_all(Workbench({"quick": True}))))


def same(tmp_path, old, new) -> subprocess.CompletedProcess:
    paths = [tmp_path / "old.json", tmp_path / "new.json"]
    for path, report in zip(paths, (old, new)):
        path.write_text(canonical_json(report))
    return subprocess.run([sys.executable, str(TOOL), *map(str, paths)],
                          capture_output=True, text=True, timeout=60)


def row(report, pid):
    return next(r for r in report["reports"] if r["property_id"] == pid)


def test_a_report_matches_itself(tmp_path, quick):
    assert same(tmp_path, quick, quick).returncode == 0


def test_a_pass_names_its_largest_move(tmp_path, quick):
    moved = copy.deepcopy(quick)
    moved["reports"][1]["rhs"][2] *= 1.0 + 4e-16
    moved["reports"][3]["ratio"][0] *= 1.0 + 3e-11
    result = same(tmp_path, quick, moved)
    assert result.returncode == 0
    pid = quick["reports"][3]["property_id"]
    assert f"largest move 3e-11 relative at row 3 ({pid}) ratio; 2 of " in result.stdout
    assert "largest move 0 relative at no row; 0 of" in same(tmp_path, quick, quick).stdout


def test_a_moved_lhs_fails(tmp_path, quick):
    moved = copy.deepcopy(quick)
    moved["reports"][0]["lhs"][0] *= 1.0 + 1e-9
    result = same(tmp_path, quick, moved)
    assert result.returncode == 1
    assert "lhs" in result.stdout


def test_a_flipped_verdict_fails(tmp_path, quick):
    flipped = copy.deepcopy(quick)
    flipped["reports"][0]["verdict"] = "fail"
    result = same(tmp_path, quick, flipped)
    assert result.returncode == 1
    assert "verdict" in result.stdout


def test_a_round_off_slope_passes(tmp_path, quick):
    old, new = copy.deepcopy(quick), copy.deepcopy(quick)
    row(old, "BERN")["stats"]["slope"] = 9.24e-17
    row(new, "BERN")["stats"]["slope"] = 4.21e-17
    assert same(tmp_path, old, new).returncode == 0


def test_a_curve_output_is_compared_value_by_value(tmp_path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["curve", "gaussian", "--alpha", "1.5", "--p", "0.5",
                     "--method", "series", "--quick"]) == 0
    curve = json.loads(out.getvalue())
    nudged, moved, renamed = (copy.deepcopy(curve) for _ in range(3))
    nudged["values"][3] *= 1.0 + 1e-12
    moved["values"][3] *= 1.0 + 1e-9
    renamed["metadata"]["method"] = "spectral"
    assert same(tmp_path, curve, curve).returncode == 0
    assert same(tmp_path, curve, nudged).returncode == 0
    for new, where in ((moved, "output.values[3]"), (renamed, "output.metadata.method"),
                       ({**curve, "extra": 1}, "keys")):
        result = same(tmp_path, curve, new)
        assert result.returncode == 1 and where in result.stdout


def test_the_quick_report_matches_the_pinned_one(tmp_path, quick):
    # every quick row is p = 2, so the 1e-10 rule holds across machines
    result = same(tmp_path, json.loads(PINNED.read_text()), quick)
    assert result.returncode == 0, (
        f"{result.stdout}if the change of results is meant, regenerate the pinned report"
        " and say so in CHANGES.md:\n"
        "  PYTHONPATH=src python -m smoothlab.cli verify-all --quick --threads 1"
        " > tests/data/quick_report.json"
    )
