"""Start-up cost: importing the package, validating jobs, printing the
schema, rejecting an invalid job and running a ``verify`` job load neither
scipy nor mpmath, which are imported only inside the functions that use
them; importing the package and validating jobs load neither
``concurrent.futures`` nor the ``logging`` it pulls in, which the block pool
of the inequality sweeps imports when it first runs; and a ``mubble`` job
loads no ``scipy.interpolate``."""

import json
import subprocess
import sys
from pathlib import Path

JOBS = Path(__file__).resolve().parents[1] / "jobs"

CHILD = """
import contextlib, io, json, sys
from pathlib import Path

from anisocheck import cli, schema

jobs = [json.loads(Path(p).read_text()) for p in sys.argv[2:]]
assert {job["command"] for job in jobs} == set(schema.COMMANDS)
assert not [e for job in jobs for e in schema.validate_job(job)]
pool = sorted(m for m in sys.modules
              if m.split(".")[0] == "logging" or m.startswith("concurrent.futures"))
out = sys.argv[1]
bad = Path(out, "bad.json")
bad.write_text(json.dumps({"command": "verify", "inputs": {"samples": "x"}}))
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [cli.main(["schema"]), cli.main(["run", "--job", str(bad)]),
             cli.main(["verify", "--suite", "kato", "--samples", "1000", "--out", out])]
loaded = sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "mpmath"))
with contextlib.redirect_stdout(io.StringIO()):
    codes.append(cli.main(["run", "--job", next(p for p in sys.argv[2:]
                                                 if p.endswith("mubble_funnel.json"))]))
interpolate = "scipy.interpolate" in sys.modules

from anisocheck import variation
import scipy.sparse.linalg

print(json.dumps({"codes": codes, "loaded": loaded, "pool": pool,
                  "spla": variation.spla is scipy.sparse.linalg,
                  "interpolate": interpolate}))
"""


def test_startup_loads_neither_scipy_nor_mpmath(tmp_path, child_env):
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(tmp_path), *map(str, sorted(JOBS.glob("*.json")))],
        capture_output=True, text=True, timeout=300, env=child_env)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == [0, 2, 0, 0]
    assert result["loaded"] == []
    assert result["pool"] == []
    assert result["spla"]
    # a mubble job, run after the snapshot above, loads no spline package
    assert not result["interpolate"]
