import json
import os
import subprocess
import sys
import time
import tracemalloc
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


class AllRun:
    """One ``anisocheck all --seed 1234`` child process writing into
    ``out_dir``, started when built."""

    def __init__(self, out_dir, env):
        self.out_dir = Path(out_dir)
        self.start = time.time()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "anisocheck.cli", "all", "--seed", "1234",
             "--out", str(out_dir)],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=env)
        self._result = None

    def result(self):
        """(exit code, wall time in s up to the first wait that saw it end,
        report.json as a dict); waits for the run to end."""
        if self._result is None:
            code = self.proc.wait(timeout=900)
            runtime = time.time() - self.start
            report = json.loads((self.out_dir / "report.json").read_text())
            self._result = code, runtime, report
        return self._result


@pytest.fixture(scope="session")
def all_runs(tmp_path_factory, child_env):
    """Two ``anisocheck all --seed 1234`` runs, started side by side when a
    test first asks for one: the first is the shared ``all_run``, the
    second the run that criterion 10 compares with it."""
    runs = [AllRun(tmp_path_factory.mktemp(f"all_run{k}"), child_env) for k in range(2)]
    yield runs
    for run in runs:
        if run.proc.poll() is None:
            run.proc.kill()
            run.proc.wait()


@pytest.fixture(scope="session")
def all_run(all_runs):
    """The ``all`` run shared by the tests that read its report: (exit
    code, wall time in s, report.json as a dict)."""
    return all_runs[0].result()


@pytest.fixture
def traced_peak():
    """``traced_peak(call)``: the tracemalloc peak of ``call()`` in bytes,
    above the memory traced before it."""

    def peak(call):
        started = not tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            call()
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            if started:
                tracemalloc.stop()

    return peak
