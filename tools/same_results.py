"""Check that two ``smoothlab`` outputs give the same results.

    python3 tools/same_results.py OLD.json NEW.json

Two ``verify-all`` reports must hold the same rows in the same order,
with equal report keys, property ids, params, grids and verdicts.  Each
lhs, rhs and ratio value must agree within 1e-10 relative, and a
non-finite value must be spelled the same ("inf", "-inf", "nan").  Each
stat must agree within 1e-10 relative, or both values must be below 1e-14
in absolute value: a stat whose true value is 0 (a flat family's fitted
slope) reports round-off.  Notes that differ are printed but do not fail.
Two reports that pass print their largest relative move over lhs, rhs and
ratio, with its row and key, and how many rows moved.  Any other pair
of outputs (``curve``, ``modulus``, ``approx``) must have the same keys at
every level, equal non-numbers and numbers within 1e-10 relative.  Exits 1
on any violation, printing each one, and 0 otherwise.
"""

import json
import sys

REL, ABS = 1e-10, 1e-14
EQUAL = ("property_id", "params", "grid", "verdict")


def close(a, b, floor=0.0) -> bool:
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return abs(a - b) <= REL * max(abs(a), abs(b)) or max(abs(a), abs(b)) < floor
    return a == b  # a string spelling of a non-finite value, or None


def compare(old: dict, new: dict) -> list:
    """The violations, each a line of text; differing notes are printed."""
    if len(old["reports"]) != len(new["reports"]):
        return [f"{len(old['reports'])} rows against {len(new['reports'])}"]
    bad = []
    for i, (a, b) in enumerate(zip(old["reports"], new["reports"])):
        row = f"row {i} ({a.get('property_id')})"
        if sorted(a) != sorted(b):
            bad.append(f"{row}: report keys {sorted(a)} against {sorted(b)}")
            continue
        bad += [f"{row}: {k} differs" for k in EQUAL if a[k] != b[k]]
        for k in ("lhs", "rhs", "ratio"):
            if len(a[k]) != len(b[k]) or not all(map(close, a[k], b[k])):
                bad.append(f"{row}: {k} differs beyond {REL:g} relative")
        if sorted(a["stats"]) != sorted(b["stats"]):
            bad.append(f"{row}: stats keys differ")
        bad += [f"{row}: stats.{k} {v!r} against {b['stats'][k]!r}"
                for k, v in a["stats"].items()
                if k in b["stats"] and not close(v, b["stats"][k], ABS)]
        if a["notes"] != b["notes"]:
            print(f"note: {row}: notes differ: {a['notes']} against {b['notes']}")
    return bad


def relative_move(a, b) -> float:
    """|a - b| / max(|a|, |b|) of two numbers, 0 where they are equal (also
    two equal spellings of a non-finite value)."""
    if a == b or not all(isinstance(x, (int, float)) for x in (a, b)):
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


def largest_move(old: dict, new: dict) -> str:
    """The largest relative move over lhs, rhs and ratio of two reports of
    the same rows, with its row and key, and the number of rows that moved."""
    move, where, moved = 0.0, "no row", 0
    for i, (a, b) in enumerate(zip(old["reports"], new["reports"])):
        row = max(((relative_move(x, y), k) for k in ("lhs", "rhs", "ratio")
                   for x, y in zip(a[k], b[k])), default=(0.0, ""))
        moved += row[0] > 0.0
        if row[0] > move:
            move, where = row[0], f"row {i} ({a.get('property_id')}) {row[1]}"
    rows = len(old["reports"])
    return f"largest move {move:.3g} relative at {where}; {moved} of {rows} rows moved"


def compare_values(old, new, path="output") -> list:
    """The violations between two single-command outputs, each a line of text."""
    if isinstance(old, dict) and isinstance(new, dict):
        if sorted(old) != sorted(new):
            return [f"{path}: keys {sorted(old)} against {sorted(new)}"]
        return [line for k in old for line in compare_values(old[k], new[k], f"{path}.{k}")]
    if isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            return [f"{path}: {len(old)} items against {len(new)}"]
        return [line for i, (a, b) in enumerate(zip(old, new))
                for line in compare_values(a, b, f"{path}[{i}]")]
    return [] if close(old, new) else [f"{path}: {old!r} against {new!r}"]


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/same_results.py OLD.json NEW.json", file=sys.stderr)
        return 2
    reports = []
    for path in argv:
        with open(path) as fh:
            reports.append(json.load(fh))
    both = all("reports" in r for r in reports)
    bad = (compare if both else compare_values)(*reports)
    for line in bad:
        print(line)
    if both and not bad:
        print(largest_move(*reports))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
