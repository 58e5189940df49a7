"""Layered benchmark of anisocheck: end-to-end and per-layer timings.

Run from the root of a checkout:

    python3 perfbench/run.py --workload oracles --seed 1 --seconds 15 --trace 0

One run imports the package from ``src/``, builds the workload's JSON jobs
from the seed and runs them through ``anisocheck.cli.run`` in passes until
``--seconds`` have elapsed (at least one pass).  Every job must return
``pass: true`` and write the same outputs on every pass of the run, once
the wall-clock fields are removed from ``report.json``.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, its per-layer metrics with ``--trace 1``.  The exit status
is 0 when every check holds.

See perfbench/README.md for the workloads and the meaning of each metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 60
# a traced pass shorter than this is followed by an untraced twin pass whose
# reports must equal the traced ones (a third of the 180-s run limit)
TWIN_LIMIT_S = 60.0
SWEEP_SEEDS = 2
COUNT_FIELDS = ("calls", "nodes", "points", "iterations", "bytes")
WALLCLOCK_KEYS = ("runtime_s", "total_runtime_s", "criteria_runtimes")


# -- workloads ------------------------------------------------------------------

MILD = {"kind": "quadratic", "dim": 4,
        "matrix": [[1.1, 0, 0, 0], [0, 1.1, 0, 0], [0, 0, 1.1, 0], [0, 0, 0, 1.21]]}


def acceptance_jobs(seed):
    return [{"command": "all", "seed": seed, "inputs": {}}]


def sweeps_jobs(seed):
    inputs = {"suites": ["quadratic_lemma", "curvature_pinch", "ricci_bound", "kato"],
              "samples": 1_000_000, "grids": [200, 200, 720]}
    return [{"command": "verify", "seed": seed + k, "inputs": inputs}
            for k in range(SWEEP_SEEDS)]


def spectra_jobs(seed):
    band = [math.pi / 4, 3 * math.pi / 4]
    plane = {"kind": "hyperplane", "n": 3, "offset": 1.0, "box": [[-1.2, 1.2]] * 3}
    iso = {"kind": "isotropic", "dim": 4}
    charts = [
        ({"kind": "catenoid_3", "n": 3, "theta_range": band}, iso),
        (plane, iso),
        ({"kind": "sphere", "n": 3, "radius": 1.0,
          "box": [band, band, [0.0, 2 * math.pi]]}, MILD),
    ]
    jobs = [{"command": "variation", "seed": seed,
             "inputs": {"chart": chart, "integrand": integ, "resolution": 25,
                        "tests": ["spectrum"]}}
            for chart, integ in charts]
    jobs.append({"command": "conformal", "seed": seed,
                 "inputs": {"chart": plane, "integrand": iso, "lambda": 0.75,
                            "resolution": 21, "tests": ["lambda1"]}})
    for model in ({"profile": "cylinder", "T": 20.0},
                  {"profile": "funnel", "T": 17.0, "params": {"rate": 0.1}},
                  {"profile": "bulge", "T": 17.0,
                   "params": {"amplitude": 0.05, "period": 17.0}},
                  {"profile": "round_cap", "T": 3.0}):
        jobs.append({"command": "mubble", "seed": seed, "inputs": {"model": model}})
    return jobs


def oracles_jobs(seed):
    """The resample-and-difference oracles of acceptance criterion 5 on its
    costliest charts, criterion 7's quadratic-form identity, and the
    integrand and constants layers, at criterion resolutions."""
    band = [math.pi / 4, 3 * math.pi / 4]
    perturbed = {"kind": "perturbed", "dim": 4, "epsilon": 0.1, "profile": "axis2"}
    both = ["first_variation", "second_variation"]
    variation = [
        ({"kind": "catenoid_3", "n": 3, "theta_range": band},
         {"kind": "isotropic", "dim": 4}, 25, both),
        ({"kind": "sphere", "n": 3, "radius": 1.0,
          "box": [band, band, [0.0, 2 * math.pi]]}, MILD, 25, ["first_variation"]),
        ({"kind": "cylinder", "n": 3, "theta_range": band},
         {"kind": "perturbed", "dim": 4, "epsilon": 0.03, "profile": "quartic_saddle"},
         25, ["first_variation"]),
        ({"kind": "graph", "n": 3, "height": "paraboloid"}, MILD, 25,
         ["first_variation"]),
        ({"kind": "hyperplane", "n": 3, "offset": 1.0}, perturbed, 25, both),
        ({"kind": "catenoid_2", "n": 2}, {"kind": "isotropic", "dim": 3}, 33, both),
    ]
    jobs = [{"command": "variation", "seed": seed,
             "inputs": {"chart": chart, "integrand": integ, "resolution": res,
                        "tests": tests}}
            for chart, integ, res, tests in variation]
    jobs += [
        {"command": "conformal", "seed": seed,
         "inputs": {"chart": {"kind": "cone", "n": 3}, "resolution": 25,
                    "tests": ["qform"]}},
        {"command": "integrand", "seed": seed, "inputs": {"integrand": perturbed}},
        {"command": "constants", "seed": seed, "inputs": {}},
    ]
    return jobs


# `acceptance` is not in BENCHMARK.json: one pass takes 65-100 s on two
# cores, so 22 runs of it per benchmark check would not fit the check's
# time budget; it stays runnable by hand for the north-star figure and the
# self-test counts.
WORKLOADS = {"sweeps": sweeps_jobs, "spectra": spectra_jobs,
             "oracles": oracles_jobs, "acceptance": acceptance_jobs}


def known_defect(job):
    """The round_cap model raises inside lambda1_sturm (f(0) = sin 0 = 0) at
    the commit that introduced this benchmark.  Its failure is counted in
    ``failed`` and ``jobs_passed_ratio`` but does not make the run incorrect,
    so the fix shows as a higher ratio."""
    return (job["command"] == "mubble"
            and job["inputs"]["model"]["profile"] == "round_cap")


# -- one pass -------------------------------------------------------------------


@dataclass
class JobResult:
    error: str | None
    passed: bool
    digest: str | None
    out_bytes: int


@dataclass
class Pass:
    wall_s: float
    cpu_s: float
    jobs: list


def strip_wallclock(obj):
    """Drop the wall-clock fields that acceptance criterion 10 exempts from
    report.json's byte-determinism."""
    if isinstance(obj, dict):
        out = {}
        for k, v in obj.items():
            if k in WALLCLOCK_KEYS:
                continue
            if (k == "value" and isinstance(obj.get("name"), str)
                    and "runtime" in obj["name"]):
                out[k] = 0.0
                continue
            out[k] = strip_wallclock(v)
        return out
    if isinstance(obj, list):
        return [strip_wallclock(v) for v in obj]
    return obj


def inspect_outputs(out_dir):
    """(report pass flag, digest of every output file, total bytes)."""
    h = hashlib.sha256()
    passed = False
    size = 0
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        data = path.read_bytes()
        size += len(data)
        if path.name == "report.json":
            report = json.loads(data)
            passed = report.get("pass") is True
            data = json.dumps(strip_wallclock(report), sort_keys=True).encode()
        h.update(path.relative_to(out_dir).as_posix().encode() + b"\0" + data + b"\0")
    return passed, h.hexdigest(), size


def run_pass(cli, jobs, work_dir):
    out = Path(tempfile.mkdtemp(dir=work_dir))
    errors = []
    c0 = time.process_time()
    t0 = time.perf_counter()
    for i, job in enumerate(jobs):
        try:
            cli.run(job, str(out / f"job{i:02d}"))
            errors.append(None)
        except Exception as exc:  # a raising job is a failed operation, not a crash
            errors.append(f"{type(exc).__name__}: {exc}")
            if not known_defect(job):
                traceback.print_exc(file=sys.stderr)
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    results = []
    for i, err in enumerate(errors):
        d = out / f"job{i:02d}"
        passed, digest, size = inspect_outputs(d) if d.is_dir() else (False, None, 0)
        results.append(JobResult(err, passed and err is None,
                                 digest if err is None else None, size))
    shutil.rmtree(out)
    return Pass(wall, cpu, results)


def run_passes(cli, jobs, work_dir, seconds, tracer=None):
    passes = []
    snapshots = []
    deadline = time.perf_counter() + seconds
    if tracer is not None:
        tracer.install()
    try:
        while not passes or time.perf_counter() < deadline:
            if tracer is not None:
                tracer.reset()
            passes.append(run_pass(cli, jobs, work_dir))
            if tracer is not None:
                snapshots.append(layer_snapshot(tracer, passes[-1]))
    finally:
        if tracer is not None:
            tracer.restore()
    return passes, snapshots


# -- checks and metrics --------------------------------------------------------------


def judge(jobs, passes):
    """Count failed job executions; a failure of a job other than the known
    defect makes the run incorrect."""
    attempted = failed = 0
    correct = True
    for i, job in enumerate(jobs):
        first = passes[0].jobs[i].digest
        for p in passes:
            r = p.jobs[i]
            attempted += 1
            ok = r.passed and r.digest == first
            if ok:
                continue
            failed += 1
            why = r.error or ("pass: false" if not r.passed
                              else "outputs differ from the first pass")
            print(f"# job {i} ({job['command']}) failed: {why}")
            if not known_defect(job):
                correct = False
    return attempted, failed, correct


def layer_snapshot(tracer, p):
    """Per-layer figures of one traced pass, keyed '<span>.<field>'."""
    flat = {}
    for span, st in tracer.stats.items():
        for key, value in st.items():
            flat[f"{span}.{key}"] = value
    flat["cli.out_bytes"] = sum(r.out_bytes for r in p.jobs)
    flat["trace.wall_s"] = p.wall_s
    flat["trace.other_self_s"] = p.wall_s - tracer.top_s
    flat["trace.overhead_s"] = tracer.overhead_s
    return flat


def layer_metrics(snapshots, names):
    """Mean over the traced passes; work counts must repeat exactly."""
    ok = True
    values = {}
    for name in names:
        seen = [s.get(name, 0) for s in snapshots]
        if name.rsplit(".", 1)[-1] not in COUNT_FIELDS:
            values[name] = sum(seen) / len(seen)
            continue
        values[name] = seen[0]
        if len(set(seen)) > 1:
            print(f"# work count {name} differs between traced passes: {seen}")
            ok = False
    # self times of every span plus the time outside them make up the pass
    self_sum = sum(sum(v for k, v in s.items() if k.endswith(".self_s"))
                   for s in snapshots) / len(snapshots)
    closure = self_sum + values["trace.other_self_s"] - values["trace.wall_s"]
    if abs(closure) > 1e-6:
        print(f"# span self times do not add up to the pass wall time ({closure:.3g} s)")
        ok = False
    return values, ok


def measure_setup(jobs):
    """Median wall time of a fresh interpreter that imports the package and
    validates the workload's jobs."""
    code = ("import json, sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "from anisocheck import cli, schema\n"
            "errors = [e for job in json.load(sys.stdin) for e in schema.validate_job(job)]\n"
            "sys.exit(1 if errors else 0)\n")
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code, str(SRC)], input=json.dumps(jobs),
                       text=True, check=True, timeout=SETUP_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() or None


def environment(nproc):
    import importlib.util

    import mpmath
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "git_commit": git_commit(),
    }


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "anisocheck" / "__init__.py").is_file():
        print(f"no anisocheck sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(nproc)
    sys.path.insert(0, str(SRC))
    from anisocheck import cli

    sys.path.insert(0, str(HERE))
    from tracer import Tracer

    print("# env " + json.dumps(environment(nproc), sort_keys=True))
    jobs = WORKLOADS[args.workload](args.seed)
    work_dir = ROOT / ".bench_out"
    work_dir.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(dir=work_dir))
    try:
        if args.trace:
            passes, snapshots = run_passes(cli, jobs, work_dir, args.seconds, Tracer())
            if passes[0].wall_s < TWIN_LIMIT_S:
                passes.append(run_pass(cli, jobs, work_dir))
        else:
            setup_s = measure_setup(jobs)
            passes, _ = run_passes(cli, jobs, work_dir, args.seconds)
    finally:
        shutil.rmtree(work_dir)

    attempted, failed, correct = judge(jobs, passes)
    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        values, ok = layer_metrics(snapshots, names)
        correct = correct and ok
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        print(f"# traced passes: {len(snapshots)}, untraced twin pass: "
              f"{'yes' if len(passes) > len(snapshots) else 'no'}")
    else:
        walls = [p.wall_s for p in passes]
        cpus = [p.cpu_s for p in passes]
        values = {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": setup_s,
            "jobs_passed_ratio": (attempted - failed) / attempted,
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        q1, q3 = quartiles(walls)
        print(f"# passes: {len(passes)}, wall_s quartiles: {q1:.4f} .. {q3:.4f}")
    metrics = {}
    for name, unit in units.items():
        metrics[name] = {"value": values[name], "unit": unit}
        if values[name]:
            print(f"{name}: {values[name]} {unit}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
