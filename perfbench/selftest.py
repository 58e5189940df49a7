"""Self-test of the layered benchmark: work counts repeat exactly.

Runs two traced runs of each workload, one after the other, and checks
that every work count (calls, nodes, points, iterations, bytes) agrees
between them.  ``--expect WORKLOAD:NAME=VALUE`` pins a count as well.
Run from the root of a checkout:

    python3 perfbench/selftest.py --workload spectra --expect spectra:variation.splu.calls=9
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from run import COUNT_FIELDS, WORKLOADS  # noqa: E402

RUN_TIMEOUT_S = 180
SEED = 1234


def traced_counts(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"traced run of {workload} failed ({proc.returncode})")
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {name: m["value"] for name, m in metrics.items()
            if name.rsplit(".", 1)[-1] in COUNT_FIELDS}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                    help="repeatable; default: every workload")
    ap.add_argument("--expect", action="append", default=[],
                    metavar="WORKLOAD:NAME=VALUE")
    args = ap.parse_args(argv)
    expected = {}
    for item in args.expect:
        key, _, value = item.partition("=")
        workload, _, name = key.partition(":")
        expected.setdefault(workload, {})[name] = int(value)
    ok = True
    for workload in args.workload or list(WORKLOADS):
        first = traced_counts(workload, SEED)
        second = traced_counts(workload, SEED)
        for name, value in first.items():
            if not value and not second[name]:
                continue
            same = value == second[name]
            ok = ok and same
            print(f"{workload:10s} {name:48s} {value:>12} "
                  f"{'' if same else f'!= {second[name]}'}")
        for name, value in expected.get(workload, {}).items():
            if first.get(name) != value:
                print(f"{workload:10s} {name}: expected {value}, got {first.get(name)}")
                ok = False
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
