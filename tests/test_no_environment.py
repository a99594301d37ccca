"""Every setting comes from a flag or the config: the package reads no
environment variable.  And ``import smoothlab`` binds its modules and
nothing else, as the bench reads them."""

import json
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "smoothlab"


def test_the_package_reads_no_environment_variable():
    hits = [f"{path.name}:{n}" for path in sorted(SRC.glob("*.py"))
            for n, line in enumerate(path.read_text().splitlines(), 1)
            if "os.environ" in line or "getenv" in line]
    assert SRC.is_dir() and hits == []


def test_the_package_namespace_is_its_modules():
    # a fresh interpreter, run in src/: this one may have imported smoothlab.cli
    probe = ("import json, sys, smoothlab; print(json.dumps(["
             "sorted(k for k in vars(smoothlab) if not k.startswith('__')), "
             "smoothlab.__version__, 'smoothlab.cli' in sys.modules]))")
    out = subprocess.run([sys.executable, "-c", probe], cwd=SRC.parent, check=True,
                         capture_output=True, text=True).stdout
    modules = ["approx", "corpus", "errors", "grid", "moduli", "spectral", "verify"]
    assert json.loads(out) == [modules, "0.1.0", False]
