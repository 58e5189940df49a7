import importlib.util
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


def _perfbench_run():
    """perfbench/run.py, loaded from its file: its ``strip_wallclock`` is
    the one rule of which report values depend on the wall clock."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # the dataclasses of run.py look it up
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def stripped_report():
    """``stripped_report(report)``: the report dict as sorted JSON text
    without its wall-clock fields, for byte comparison."""
    strip = _perfbench_run().strip_wallclock
    return lambda report: json.dumps(strip(report), sort_keys=True)


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


_WORKER_PROBES = """
import json, math, os, threading, time
import numpy as np
# loading scipy's own OpenBLAS starts its worker, which spins once at start:
# a cost per process, not per solve, so it is paid before any window
import scipy.linalg
from anisocheck import conformal as cf, geometry as geo, schema as sch, variation as va

MAIN = threading.get_native_id()


def worker_ticks():
    # utime + stime, in clock ticks, of every thread but the main one
    ticks = 0
    for tid in os.listdir("/proc/self/task"):
        if int(tid) != MAIN:
            stat = open(f"/proc/self/task/{tid}/stat").read()
            ticks += sum(int(f) for f in stat[stat.rindex(")") + 2:].split()[11:13])
    return ticks


def window(work):
    # worker ticks of ``work`` and of the 0.1 s the main thread spins after
    # it, long enough to catch a worker that spins on once woken; the sleep
    # first lets a worker woken before the window fall idle
    time.sleep(0.5)
    before = worker_ticks()
    work()
    end = time.perf_counter() + 0.1
    while time.perf_counter() < end:
        pass
    return worker_ticks() - before


# cone: the 49^3 refinement companion of the oracles workload's conformal
# qform job, deformed and its quadratic form evaluated
cone = geo.sample_chart(sch.build_chart({"kind": "cone", "n": 3}), 49)


def deform_and_qform():
    cf.qform_identity_check(cone, cf.deform(cone), va.bump_function(cone, "centered"), 0.75)


# spectra: the Dirichlet solves of the spectra workload, three stability
# spectra at 25 nodes and the conformal lambda1 job's flat patch at 21
band = [math.pi / 4, 3 * math.pi / 4]
plane = {"kind": "hyperplane", "n": 3, "offset": 1.0, "box": [[-1.2, 1.2]] * 3}
iso = {"kind": "isotropic", "dim": 4}
mild = {"kind": "quadratic", "dim": 4,
        "matrix": [[1.1, 0, 0, 0], [0, 1.1, 0, 0], [0, 0, 1.1, 0], [0, 0, 0, 1.21]]}
sphere = {"kind": "sphere", "n": 3, "radius": 1.0, "box": [band, band, [0.0, 2 * math.pi]]}
forms = [va.PhiForm(geo.sample_chart(sch.build_chart(chart), 25), sch.build_integrand(integ))
         for chart, integ in (({"kind": "catenoid_3", "n": 3, "theta_range": band}, iso),
                              (plane, iso), (sphere, mild))]
for form in forms:
    form.C, form.V   # the pullback's BLAS products run before the windows
flat = geo.sample_chart(sch.build_chart(plane), 21)
flat_R_tilde = cf.deform(flat)

# the controls wake a worker where one can be seen: a tensordot of a 49^3
# field with a dense 49 x 49 matrix, and numpy's full eigh of a 40 x 40 T
field = np.random.default_rng(0).standard_normal((49, 49, 49))
matrix = np.random.default_rng(1).standard_normal((49, 49))
sym = np.random.default_rng(0).standard_normal((40, 40))
sym += sym.T
ticks = {"cone": {"cold": window(deform_and_qform), "warm": window(deform_and_qform)},
         "spectra": {"solves": window(lambda: ([va.stability_spectrum(f) for f in forms],
                                                cf.lambda1_estimate(flat, flat_R_tilde)))}}
# every control after every measured window, so no worker a control woke
# can spin on into a measured one
ticks["cone"]["control"] = window(lambda: np.tensordot(matrix, field, axes=([1], [0])))
ticks["spectra"]["control"] = window(lambda: np.linalg.eigh(sym))
print(json.dumps(ticks))
"""


@pytest.fixture(scope="session")
def blas_worker_ticks(child_env):
    """The worker ticks of the BLAS-worker probes, by probe ("cone",
    "spectra") and window, from one child process at two OpenBLAS threads
    (`_WORKER_PROBES`): each window holds the CPU ticks of every thread but
    the main one during its work and the 0.1 s after it.  Each probe has a
    "control" window, a BLAS call that wakes a worker; the controls run
    after every measured window.  Skips where /proc/self/task cannot be
    read or one CPU leaves a BLAS worker nothing to run on."""
    if not sys.platform.startswith("linux") or len(os.sched_getaffinity(0)) < 2:
        pytest.skip("reads /proc/self/task; needs two CPUs for a BLAS worker")
    proc = subprocess.run([sys.executable, "-c", _WORKER_PROBES],
                          capture_output=True, text=True, timeout=300,
                          env={**child_env, "OPENBLAS_NUM_THREADS": "2"})
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)
