import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

# Acceptance-criterion outcomes, printed as one line each at session end.
_criterion_log: dict = {}


def record_criterion(number: int, name: str, ok: bool, detail: str) -> None:
    _criterion_log[number] = (name, ok, detail)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _criterion_log:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_criterion_log):
        name, ok, detail = _criterion_log[number]
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"criterion {number:2d} [{status}] {name}: {detail}")


def pytest_collection_modifyitems(config, items):
    # The session desk corpus takes minutes to build and run; `-m "not slow"`
    # leaves out every test that needs it.
    for item in items:
        if "desk_corpus" in getattr(item, "fixturenames", ()):
            item.add_marker(pytest.mark.slow)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
