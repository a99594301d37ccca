"""Shared pytest plumbing: collect acceptance-criterion result lines and
print them in the terminal summary, where output capture cannot hide them;
and the transform counter the one-transform tests share."""

import pytest

import smoothlab.approx
import smoothlab.moduli
import smoothlab.spectral
import smoothlab.verify

ACCEPTANCE_LINES = []


def record_line(line: str) -> None:
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def count_transforms(monkeypatch):
    """The list of arguments of every ``transform`` call, through each
    module that calls it."""
    calls = []
    real = smoothlab.spectral.transform

    def counted(f):
        calls.append(f)
        return real(f)

    for module in (smoothlab.spectral, smoothlab.moduli, smoothlab.approx, smoothlab.verify):
        monkeypatch.setattr(module, "transform", counted)
    return calls
