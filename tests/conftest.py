import os
from pathlib import Path

import pytest

import anisocheck


@pytest.fixture
def child_env():
    """Environment for a child Python process that imports this checkout's
    anisocheck: pytest's ``pythonpath`` setting does not reach children."""
    src = str(Path(anisocheck.__file__).resolve().parents[1])
    paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
