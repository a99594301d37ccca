"""The catalogue over the corpus: a true inequality must not fail.

The paper proves each row below for every f in L_p, 0 < p <= inf, so a
``fail`` on an admissible input is a defect of the harness (or a
counterexample).  A row whose hypotheses exclude the input, such as P16
below p = 1, is refused with a SmoothlabError; any other exception is an
error of the test.
"""

import pytest

from smoothlab import corpus
from smoothlab.errors import SmoothlabError
from smoothlab.verify import Workbench, make_config, run_check

#: the rows of the sweep, each at alpha = 2, with their other parameters;
#: a row is named by its property id ("P14-upper" runs P14's upper side)
ROWS = {
    "P1a": {}, "P2": {}, "P7": {"gamma": 1.0}, "P12": {}, "P13": {},
    "P14": {"side": "lower"}, "P14-upper": {"side": "upper"}, "P16": {}, "P17": {},
}
PS = (0.5, 1.0, 2.0, "inf")
ENTRIES_1D = [e.name for e in corpus.corpus_list() if e.dimension == 1]

SHORT_SERIES = pytest.mark.xfail(
    strict=True,
    reason="the quick grid holds five bands, the ratio climbs over the last two,"
           " and the case passes at full scale",
)
ESCAPES_AT_SMALL_P = pytest.mark.xfail(
    strict=True,
    reason="the ratio escapes over the last two deltas, 1.6 and 0.8 grid cells at full"
           " scale, on a cusp at p <= 1; the case fails at full scale too",
)
#: the quick-scale runs that fail on a true inequality
QUICK_FAILS = {
    ("P14", "cusp05", "inf"): SHORT_SERIES,
    ("P14", "cusp15", 2.0): SHORT_SERIES,
    ("P14", "cusp15", "inf"): SHORT_SERIES,
    ("P14-upper", "cusp03", 0.5): ESCAPES_AT_SMALL_P,
    ("P14-upper", "cusp03", 1.0): ESCAPES_AT_SMALL_P,
    ("P14-upper", "cusp05", 0.5): ESCAPES_AT_SMALL_P,
    ("P14-upper", "cusp05", 1.0): ESCAPES_AT_SMALL_P,
}


def cases(entries, known=None):
    return [
        pytest.param(row, entry, p, marks=(known or {}).get((row, entry, p), ()),
                     id=f"{row}-{entry}-p{p}")
        for row in ROWS for entry in entries for p in PS
    ]


def verdict(wb, row, entry, p):
    try:
        report = run_check(row.split("-")[0], {"entry": entry, "alpha": 2.0, "p": p, **ROWS[row]},
                           workbench=wb)
    except SmoothlabError:
        return "refused"
    return report.verdict


@pytest.fixture(scope="module")
def quick():
    return Workbench(make_config({"quick": True}))


@pytest.fixture(scope="module")
def full():
    return Workbench(make_config())


@pytest.mark.parametrize("row, entry, p", cases(ENTRIES_1D, QUICK_FAILS))
def test_quick_scale(quick, row, entry, p):
    assert verdict(quick, row, entry, p) != "fail"


@pytest.mark.parametrize("row, entry, p", cases(["fejer", "planewave"]))
def test_full_scale_bandlimited(full, row, entry, p):
    # E_sigma is 0 beyond the band of these entries: the Jackson (P12)
    # lhs is round-off there
    assert verdict(full, row, entry, p) != "fail"


def test_jackson_on_a_bandlimited_2d_entry_at_small_p():
    wb = Workbench(make_config({"scale_2d": {"N": 64, "L": 20}}))
    assert verdict(wb, "P12", "fejer2d", 0.5) == "pass"
