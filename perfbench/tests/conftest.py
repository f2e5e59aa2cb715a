import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import run  # noqa: E402


@pytest.fixture(scope="session")
def cm():
    return run.import_package()
