"""tools/report_diff.py names each record whose value moved, with its
relative change, and ignores the wall-clock fields."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "report_diff.py"


def _report(value, runtime):
    return {"pass": True, "extras": {"criteria_runtimes": {"conformal": runtime}},
            "records": [{"name": "conformal: qform identity order [cylinder n=3]",
                         "value": value, "tolerance": 1.8, "pass": True, "detail": {}},
                        {"name": "conformal: criterion runtime (s)", "value": runtime,
                         "tolerance": 120.0, "pass": True, "detail": {}}]}


def _write(root, value, runtime):
    (root / "all").mkdir(parents=True)
    (root / "all" / "report.json").write_text(json.dumps(_report(value, runtime), indent=2))
    (root / "margins.csv").write_text("name,value\nq,1\n")


def _diff(old, new):
    proc = subprocess.run([sys.executable, str(SCRIPT), str(old), str(new)],
                          capture_output=True, text=True, timeout=60)
    return proc.returncode, proc.stdout


def test_report_diff_names_a_one_ulp_move(tmp_path):
    value = 3.9094213712440093
    moved = float(np.nextafter(value, np.inf))
    _write(tmp_path / "old", value, 1.0)
    _write(tmp_path / "new", moved, 2.5)
    code, out = _diff(tmp_path / "old", tmp_path / "new")
    rel = f"{(moved - value) / value:+.3g}"
    assert code == 1
    assert out.splitlines() == [
        "records added or removed: 0",
        "changed pass flags: 0",
        "moved values: 1",
        f"  all/report.json :: conformal: qform identity order [cylinder n=3] / value: "
        f"{value!r} -> {moved!r} (rel {rel})",
        "other files that differ: 0"]
    # a wall-clock change alone is no difference
    _write(tmp_path / "same", value, 7.0)
    code, out = _diff(tmp_path / "old", tmp_path / "same")
    assert code == 0
    assert out.splitlines() == ["records added or removed: 0", "changed pass flags: 0",
                                "moved values: 0", "other files that differ: 0"]
