from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from covnum import library
from covnum.cover import SolveBudget, sigma_exact


class SigmaCache:
    """Session-wide cache of exact covering numbers for library groups."""

    def __init__(self):
        self._values: dict[str, int] = {}

    def __call__(self, key: str, budget: SolveBudget = SolveBudget()) -> int:
        if key not in self._values:
            group = library.group(key)
            result = sigma_exact(group, budget, mx=library.maximals(key))
            assert result.optimal, f"sigma({key}) did not close"
            self._values[key] = result.upper
        return self._values[key]


@pytest.fixture(scope="session")
def sigma_of() -> SigmaCache:
    return SigmaCache()


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return Path(__file__).resolve().parents[1] / "src" / "covnum" / "data"
