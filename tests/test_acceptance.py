"""Release acceptance suite.

One test per criterion; each prints a single PASS/FAIL line and asserts
every record of the criterion at its pinned tolerance.  The final test
drives the end-to-end CLI run twice and checks byte-level determinism
(wall-clock runtime fields excluded), the ten-minute budget, and the exit
status.
"""

import json
import math
import subprocess
import sys
import time

from anisocheck import acceptance as ac
from anisocheck import cli
from anisocheck import geometry as geo
from anisocheck import mubble as mb


def _check(name, records):
    failed = [r for r in records if not r.passed]
    status = "FAIL" if failed else "PASS"
    print(f"ACCEPTANCE [{status}] {name}: "
          f"{len(records) - len(failed)}/{len(records)} records")
    for r in failed:
        print(f"    failing record: {r.name} value={r.value} tol={r.tolerance} "
              f"{r.detail}")
    assert not failed


def test_criterion_01_constants():
    _check("1 explicit constants", ac.criterion_constants())


def test_criterion_02_quadratic_form_sweep():
    _check("2 quadratic form comparison sweep", ac.criterion_quadratic_lemma())


def test_criterion_03_curvature_and_ricci_sweeps():
    _check("3 curvature/Ricci sweeps", ac.criterion_curvature_ricci())


def test_criterion_04_kato_spot_check():
    _check("4 improved Kato spot check", ac.criterion_kato())


def test_criterion_05_variation_oracles():
    _check("5 first/second variation vs oracles", ac.criterion_variation())


def test_criterion_06_vectorfield_isoperimetric():
    _check("6 vector-field identity and isoperimetric comparison",
           ac.criterion_vectorfield_isoperimetric())


def test_criterion_07_conformal_identity_chain():
    _check("7 conformal identity chain", ac.criterion_conformal())


def test_criterion_08_warped_bubbles():
    _check("8 warped bubble models", ac.criterion_mubble())


def test_criterion_09_pinching_pipeline():
    _check("9 pinching pipeline", ac.criterion_pinching())


def _strip_wallclock(obj):
    """Remove wall-clock-dependent values (the 'timestamps' of these
    reports) before byte comparison."""
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


def test_criterion_10_run_all_deterministic_and_timed(tmp_path):
    reports = []
    runtimes = []
    codes = []
    for d in ("r1", "r2"):
        t0 = time.time()
        proc = subprocess.run(
            [sys.executable, "-m", "anisocheck.cli", "all", "--seed", "1234",
             "--out", str(tmp_path / d)],
            capture_output=True, text=True, timeout=900)
        runtimes.append(time.time() - t0)
        codes.append(proc.returncode)
        reports.append(json.loads((tmp_path / d / "report.json").read_text()))
    status = "PASS"
    try:
        assert codes == [0, 0], f"exit codes {codes}"
        assert runtimes[0] <= 600.0, f"runtime {runtimes[0]:.1f}s"
        a = json.dumps(_strip_wallclock(reports[0]), sort_keys=True)
        b = json.dumps(_strip_wallclock(reports[1]), sort_keys=True)
        assert a == b, "reports differ beyond wall-clock fields"
    except AssertionError:
        status = "FAIL"
        raise
    finally:
        print(f"ACCEPTANCE [{status}] 10 end-to-end determinism and budget: "
              f"exit={codes} runtime={runtimes[0]:.1f}s")


def test_record_names_hold_plain_numbers():
    # numpy scalars must not leak their repr (np.float64(...)) into names
    verify = cli.run({"command": "verify", "seed": 1234,
                      "inputs": {"suites": ["quadratic_lemma", "curvature_pinch",
                                            "ricci_bound", "kato"],
                                 "samples": 2000, "grids": [20, 20, 36]}})
    names = [r["name"] for r in verify["records"]]
    names += [r.name for r in ac.run_all(seed=1234)[0]]
    assert any("corner (1.0, 1.0, 1.414214)" in name for name in names)
    assert not [name for name in names if "np." in name or "float64" in name]


def test_cli_runners_and_criteria_share_builders():
    # a CLI conformal job at resolution 13 refines (13, 25), criterion 7's
    # RES_3D, on its catalog cone
    chart = {"kind": "cone", "n": 3, "theta_range": [math.pi / 4, 3 * math.pi / 4]}
    report = cli.run({"command": "conformal", "seed": 1,
                      "inputs": {"chart": chart, "resolution": 13,
                                 "tests": ["laplace_r"]}})
    crit = ac.laplace_r_order_check(
        "radial Laplacian identity order [cone]",
        [geo.sample_chart(geo.catalog(3)["cone"], res) for res in ac.RES_3D])
    assert report["records"][0]["value"] == crit.value
    # a CLI mubble job on the catalog cylinder reports criterion 8's seven
    # shared "cylinder ..." records
    report = cli.run({"command": "mubble", "seed": 1,
                      "inputs": {"model": {"profile": "cylinder", "T": 20,
                                           "lambda": 1.0}}})
    shared, _, _ = ac.bubble_checks(mb.catalog()["cylinder"])
    assert len(shared) == 7
    assert [dict(r, name="cylinder " + r["name"]) for r in report["records"]] \
        == [r.prefixed("cylinder ").as_dict() for r in shared]
