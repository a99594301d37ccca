"""``tools/same_results.py`` on the quick report: it passes a report against
itself and against round-off in a stat whose true value is 0, and fails
a moved value or a flipped verdict."""

import copy
import json
import pathlib
import subprocess
import sys

import pytest

from smoothlab.verify import canonical_json, verify_all

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "same_results.py"


@pytest.fixture(scope="module")
def quick():
    return json.loads(canonical_json(verify_all({"quick": True})))


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
