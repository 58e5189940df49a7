import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import anisocheck


@pytest.fixture(scope="session")
def child_env():
    """Environment for a child Python process that imports this checkout's
    anisocheck: pytest's ``pythonpath`` setting does not reach children."""
    src = str(Path(anisocheck.__file__).resolve().parents[1])
    paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}


@pytest.fixture(scope="session")
def run_all_cli(child_env):
    """Runs ``anisocheck all --seed 1234`` into a directory in a child
    process; returns (exit code, wall time in s, report.json as a dict)."""
    def run(out_dir):
        t0 = time.time()
        proc = subprocess.run(
            [sys.executable, "-m", "anisocheck.cli", "all", "--seed", "1234",
             "--out", str(out_dir)],
            capture_output=True, text=True, timeout=900, env=child_env)
        runtime = time.time() - t0
        report = json.loads((Path(out_dir) / "report.json").read_text())
        return proc.returncode, runtime, report

    return run


@pytest.fixture(scope="session")
def all_run(tmp_path_factory, run_all_cli):
    """One ``anisocheck all --seed 1234`` run shared by the tests that read
    its report."""
    return run_all_cli(tmp_path_factory.mktemp("all_run"))
