"""Every setting comes from a flag or the config: the package reads no
environment variable."""

import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "smoothlab"


def test_the_package_reads_no_environment_variable():
    hits = [f"{path.name}:{n}" for path in sorted(SRC.glob("*.py"))
            for n, line in enumerate(path.read_text().splitlines(), 1)
            if "os.environ" in line or "getenv" in line]
    assert SRC.is_dir() and hits == []
