import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
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


def _strip_wallclock(obj):
    """``obj`` without its wall-clock-dependent values (the 'timestamps' of
    the reports): the runtime keys dropped, runtime records' values 0.0."""
    if isinstance(obj, dict):
        out = {}
        for k, v in obj.items():
            if k in ("runtime_s", "total_runtime_s", "criteria_runtimes"):
                continue
            if (k == "value" and isinstance(obj.get("name"), str)
                    and "runtime" in obj["name"]):
                out[k] = 0.0
                continue
            out[k] = _strip_wallclock(v)
        return out
    if isinstance(obj, list):
        return [_strip_wallclock(v) for v in obj]
    return obj


@pytest.fixture(scope="session")
def stripped_report():
    """``stripped_report(report)``: the report dict as sorted JSON text
    without its wall-clock fields, for byte comparison."""
    return lambda report: json.dumps(_strip_wallclock(report), sort_keys=True)


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


@pytest.fixture
def assert_archive_bits():
    """``assert_archive_bits(path, expected)``: the ``.npz`` archive at
    ``path`` holds exactly the arrays of the dict ``expected``, in its
    order, each with its dtype, shape and bits (so -0.0 and NaN payloads
    count)."""

    def check(path, expected):
        with np.load(path) as archive:
            assert archive.files == list(expected)
            for name, want in expected.items():
                got = archive[name]
                want = np.asarray(want)
                assert got.dtype == want.dtype and got.shape == want.shape, name
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), name

    return check
