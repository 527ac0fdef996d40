import sys
from pathlib import Path

import pytest

# make tests/helpers.py importable regardless of invocation directory
sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def passes(monkeypatch):
    """The slot count of every table pass run while the test runs, in order."""
    from macroreal import scenario

    counted = []
    kernel = scenario._tables

    def spy(initial, evolutions, slots):
        counted.append(len(slots))
        return kernel(initial, evolutions, slots)

    monkeypatch.setattr(scenario, "_tables", spy)
    return counted
