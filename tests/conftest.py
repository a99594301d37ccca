"""Shared pytest plumbing: collect acceptance-criterion result lines and
print them in the terminal summary, where output capture cannot hide them;
and the forward-FFT counter the one-transform tests share."""

import numpy as np
import pytest

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
    """The list of the input arrays of every forward FFT (``np.fft.fftn``).

    A function keeps its spectrum once computed, so a counting test builds
    fresh GridFunctions: a cached corpus function may carry its spectrum
    from an earlier test.
    """
    calls = []
    real = np.fft.fftn

    def counted(a, *args, **kwargs):
        calls.append(a)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "fftn", counted)
    return calls
