"""Release acceptance suite.

One test per criterion; each reads the criterion's records, its runtime
budget included, from the session's shared ``anisocheck all`` run, prints
a single PASS/FAIL line and asserts every record at its pinned tolerance.
The final test compares it with a second end-to-end CLI run, started
beside it, and checks byte-level determinism (wall-clock runtime fields
excluded), the ten-minute budget, and the exit status.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from anisocheck import acceptance as ac
from anisocheck import cli
from anisocheck import inequalities as iq
from anisocheck import mubble as mb

JOBS = Path(__file__).resolve().parents[1] / "jobs"


def _check(name, all_run, criterion):
    """Judge the records of ``criterion`` in the shared ``all`` report."""
    records = [r for r in all_run[2]["records"] if r["name"].startswith(f"{criterion}: ")]
    failed = [r for r in records if not r["pass"]]
    status = "FAIL" if failed or not records else "PASS"
    print(f"ACCEPTANCE [{status}] {name}: "
          f"{len(records) - len(failed)}/{len(records)} records")
    for r in failed:
        print(f"    failing record: {r['name']} value={r['value']} "
              f"tol={r['tolerance']} {r.get('detail', {})}")
    assert records and not failed
    assert records[-1]["name"] == f"{criterion}: criterion runtime (s)"
    assert records[-1]["tolerance"] == ac.RUNTIME_BUDGETS[criterion]


def test_criterion_01_constants(all_run):
    _check("1 explicit constants", all_run, "constants")


def test_criterion_02_quadratic_form_sweep(all_run):
    _check("2 quadratic form comparison sweep", all_run, "quadratic_lemma")


def test_criterion_03_curvature_and_ricci_sweeps(all_run):
    _check("3 curvature/Ricci sweeps", all_run, "curvature_ricci")


def test_criterion_04_kato_spot_check(all_run):
    _check("4 improved Kato spot check", all_run, "kato")


def test_criterion_05_variation_oracles(all_run):
    _check("5 first/second variation vs oracles", all_run, "variation")


def test_criterion_06_vectorfield_isoperimetric(all_run):
    _check("6 vector-field identity and isoperimetric comparison", all_run,
           "vectorfield_isoperimetric")


def test_criterion_07_conformal_identity_chain(all_run):
    _check("7 conformal identity chain", all_run, "conformal")


def test_criterion_08_warped_bubbles(all_run):
    _check("8 warped bubble models", all_run, "mubble")


def test_criterion_09_pinching_pipeline(all_run):
    _check("9 pinching pipeline", all_run, "pinching")


def test_criterion_10_run_all_deterministic_and_timed(all_runs, all_run,
                                                       stripped_report):
    # the shared session run is the first of the two runs
    runs = [all_run, all_runs[1].result()]
    codes = [code for code, _, _ in runs]
    runtimes = [runtime for _, runtime, _ in runs]
    reports = [report for _, _, report in runs]
    status = "PASS"
    try:
        assert codes == [0, 0], f"exit codes {codes}"
        assert runtimes[0] <= 600.0, f"runtime {runtimes[0]:.1f}s"
        assert stripped_report(reports[0]) == stripped_report(reports[1]), \
            "reports differ beyond wall-clock fields"
    except AssertionError:
        status = "FAIL"
        raise
    finally:
        print(f"ACCEPTANCE [{status}] 10 end-to-end determinism and budget: "
              f"exit={codes} runtime={runtimes[0]:.1f}s")


def test_record_names_hold_plain_numbers(all_run):
    # numpy scalars must not leak their repr (np.float64(...)) into names
    verify = cli.run({"command": "verify", "seed": 1234,
                      "inputs": {"suites": ["quadratic_lemma", "curvature_pinch",
                                            "ricci_bound", "kato"],
                                 "samples": 2000, "grids": [20, 20, 36]}})
    names = [r["name"] for r in verify["records"]]
    names += [r["name"] for r in all_run[2]["records"]]
    assert any("corner (1.0, 1.0, 1.414214)" in name for name in names)
    assert not [name for name in names if "np." in name or "float64" in name]


def _record(all_run, name):
    (rec,) = [r for r in all_run[2]["records"] if r["name"] == name]
    return rec


def _variation_job(chart, integrand, resolution, tests, **inputs):
    return cli.run({"command": "variation", "seed": 1,
                    "inputs": {"chart": chart, "integrand": integrand,
                               "resolution": resolution, "tests": tests, **inputs}})


def test_cli_runners_and_criteria_share_builders(all_run):
    # a CLI conformal job at resolution 13 refines (13, 25), criterion 7's
    # RES_3D, on its catalog cone, and gives its radial Laplacian record
    chart = {"kind": "cone", "n": 3, "theta_range": [math.pi / 4, 3 * math.pi / 4]}
    (rec,) = cli.run({"command": "conformal", "seed": 1,
                      "inputs": {"chart": chart, "resolution": 13,
                                 "tests": ["laplace_r"]}})["records"]
    crit = _record(all_run, "conformal: radial Laplacian identity order [cone]")
    assert rec["name"] == "radial Laplacian identity order"
    assert dict(rec, name=crit["name"]) == crit
    # at 25 it refines (25, 49), the finest pair of criterion 7's qform
    # ladder (13, 25, 49), and gives the value and verdict of its record
    (rec,) = cli.run({"command": "conformal", "seed": 1,
                      "inputs": {"chart": chart, "resolution": 25,
                                 "tests": ["qform"]}})["records"]
    crit = _record(all_run, "conformal: qform identity order [cone n=3]")
    assert rec["name"] == "qform identity order"
    assert (rec["value"], rec["pass"]) == (crit["value"], crit["pass"])
    assert rec["detail"]["discrepancies"] == crit["detail"]["discrepancies"][1:]
    # a CLI mubble job on the catalog cylinder reports criterion 8's seven
    # shared "cylinder ..." records
    report = cli.run({"command": "mubble", "seed": 1,
                      "inputs": {"model": {"profile": "cylinder", "T": 20,
                                           "lambda": 1.0}}})
    cylinder = mb.catalog()["cylinder"]
    shared, _ = ac.bubble_checks(cylinder, mb.build_phi_h(cylinder))
    assert len(shared) == 7
    assert [dict(r, name="cylinder " + r["name"]) for r in report["records"]] \
        == [r.prefixed("cylinder ").as_dict() for r in shared]
    # a CLI variation job on criterion 6's flat ball gives its isoperimetric margin
    iso4 = {"kind": "isotropic", "dim": 4}
    ball = {"kind": "hyperplane", "n": 3, "offset": 0.0, "polar": True,
            "box": [[0.05, 1.0], [0.0, math.pi], [0.0, 2 * math.pi]]}
    (rec,) = _variation_job(ball, iso4, [33, 33, 32], ["isoperimetric"], rho=1.0)["records"]
    crit = _record(all_run, "vectorfield_isoperimetric: flat ball isoperimetric margin")
    assert rec["name"] == "isoperimetric margin"
    assert dict(rec, name=crit["name"]) == crit
    assert rec["tolerance"] == 0.0 and rec["detail"]["stationary"] is True
    # a CLI vector-field job on criterion 6's plane gives its position-field record
    plane = {"kind": "hyperplane", "n": 3, "offset": 0.0, "box": [[-1.0, 1.0]] * 3}
    (rec,) = _variation_job(plane, iso4, 13, ["vectorfield"])["records"]
    crit = _record(all_run, "vectorfield_isoperimetric: plane identity [isotropic x position]")
    assert rec["name"] == "vector-field identity residual"
    assert dict(rec, name=crit["name"]) == crit
    assert rec["tolerance"] == 1e-6 and rec["pass"]
    # on a chart that is not phi-stationary the record is informational
    sphere = {"kind": "sphere", "n": 3, "radius": 1.0}
    (rec,) = _variation_job(sphere, iso4, 9, ["vectorfield"])["records"]
    assert rec["tolerance"] is None and rec["pass"]
    assert rec["detail"]["stationary"] is False and "warning" in rec["detail"]


@pytest.mark.parametrize("job, criteria", [
    ("verify_all_suites.json", ("quadratic_lemma", "curvature_ricci", "kato")),
    ("constants.json", ("constants",)),
])
def test_jobs_report_exactly_the_records_of_their_criteria(all_run, job, criteria):
    # a job file at the criteria's seed and sizes reports the criteria's
    # records, each without its "<criterion>: " prefix, runtimes aside
    expected = []
    for rec in all_run[2]["records"]:
        criterion, _, name = rec["name"].partition(": ")
        if criterion in criteria and name != "criterion runtime (s)":
            expected.append(dict(rec, name=name))
    report = cli.run(json.loads((JOBS / job).read_text()))
    assert json.loads(json.dumps(report["records"])) == expected


def test_isoperimetric_margin_is_reported_only_off_stationary_charts():
    # the round half-band sphere of the example job is not phi-stationary:
    # its margin is reported with a warning, not judged
    job = json.loads((JOBS / "variation_sphere_half_band.json").read_text())
    job["inputs"]["tests"] = ["isoperimetric"]
    (rec,) = cli.run(job)["records"]
    assert rec["name"] == "isoperimetric margin"
    assert rec["tolerance"] is None and rec["pass"]
    assert rec["detail"]["stationary"] is False and "warning" in rec["detail"]
    assert rec["value"] == rec["detail"]["margin"]


def _argmin_record(suite, **sizes):
    """The `argmin reproduction error` record of ``suite`` from the sweep
    builder at seed 1234 and the default sizes, or the given ones."""
    sizes = {"samples": iq.SAMPLES, "points": iq.KATO_POINTS, "grids": iq.GRIDS, **sizes}
    records, _ = ac.sweep_checks([suite], iq.SEED, **sizes)
    (rec,) = [r for r in records if r.name == f"{suite}: argmin reproduction error"]
    return rec


def test_curvature_argmin_record_catches_a_shifted_witness(monkeypatch):
    # criterion 3 on 50 000-sample sweeps; shifting one stored witness
    # angle by 1e-9 moves its re-evaluated margin far beyond 1e-14
    assert _argmin_record("curvature_pinch", samples=50_000).passed
    pinch = iq.verify_curvature_pinch

    def shifted(samples, seed):
        rep = pinch(samples, seed=seed)
        rep.records[0].detail["config"]["psi"] += 1e-9
        return rep

    monkeypatch.setattr(iq, "verify_curvature_pinch", shifted)
    rec = _argmin_record("curvature_pinch", samples=50_000)
    assert not rec.passed and rec.value > 1e-12


def test_ricci_argmin_record_catches_a_shifted_witness(monkeypatch):
    # Ric(y, y) is quadratic in y: a 1e-9 shift of the largest component of
    # the stored direction moves the margin by about 1e-9
    assert _argmin_record("ricci_bound", samples=50_000).passed
    ricci = iq.verify_ricci_bound

    def shifted(samples, seed):
        rep = ricci(samples, seed=seed)
        y = rep.records[0].detail["config"]["y"]
        y[max(range(3), key=lambda i: abs(y[i]))] += 1e-9
        return rep

    monkeypatch.setattr(iq, "verify_ricci_bound", shifted)
    rec = _argmin_record("ricci_bound", samples=50_000)
    assert not rec.passed and rec.value > 1e-12


def test_quadratic_argmin_record_catches_a_shifted_second_witness(monkeypatch):
    # the witness of (3/2 - sqrt2) - (Q1-Q2)/Q1 on a coarse grid sits off
    # the angle that minimizes it, so a 1e-9 shift of theta shows
    assert _argmin_record("quadratic_lemma", grids=[10, 10, 12]).passed
    lemma = iq.verify_quadratic_lemma

    def shifted(*grids):
        rep = lemma(*grids)
        rep.records[1].detail["config"]["theta"] += 1e-9
        return rep

    monkeypatch.setattr(iq, "verify_quadratic_lemma", shifted)
    rec = _argmin_record("quadratic_lemma", grids=[10, 10, 12])
    assert not rec.passed and rec.value > 1e-12


@pytest.mark.parametrize("scale", [1 - 1e-3, 1 - 1e-6])
def test_quadratic_lemma_record_catches_a_scaled_c0(monkeypatch, scale):
    # c0 Q2 - Q1 is sharp at alpha = beta = 1/sqrt2, theta = pi/4, where
    # c0 Q2 = Q1 = 2, so c0 (1 - eps) reads -2 eps there; the floors that
    # skip rows read the scaled c0 too, so the witness at (40, 40, 72) is
    # the argmin of the whole grid
    monkeypatch.setattr(iq, "C0", iq.C0 * scale)
    records, _ = ac.sweep_checks(["quadratic_lemma"], iq.SEED, iq.SAMPLES,
                                 iq.KATO_POINTS, iq.GRIDS)
    (rec,) = [r for r in records if r.name == "quadratic_lemma: c0*Q2 - Q1"]
    assert not rec.passed and rec.value == pytest.approx(-2.0 * (1.0 - scale), rel=1e-6)
    alphas = np.linspace(1.0 / iq.SQRT2, 1.0, 40)
    thetas = np.linspace(0.0, 2.0 * np.pi, 72, endpoint=False)
    a, b = alphas[:, None, None], alphas[None, :, None]
    m1 = np.where(b >= a, iq.quadratic_lemma_point(a, b, thetas)[0], np.inf)
    i, j, k = np.unravel_index(int(np.argmin(m1)), m1.shape)
    (rec, *_) = iq.verify_quadratic_lemma(40, 40, 72).records
    assert rec.value == m1[i, j, k] and not rec.passed
    assert rec.detail["config"] == {"alpha": alphas[i], "beta": alphas[j], "theta": thetas[k]}


def test_kato_record_catches_a_scaled_constant(monkeypatch):
    # |Hess u|^2 >= (3/8) |grad u|^-2 |grad |grad u|^2|^2 is nearly sharp on
    # the catalog's xyz and z(x^2 - y^2) (worst margins 1.6e-5 and 4.1e-4 at
    # 10^4 points), so a constant 1e-3 larger fails their records (about
    # -5.4e-3 and -8.4e-3)
    def failing():
        records, _ = ac.sweep_checks(["kato"], iq.SEED, iq.SAMPLES, iq.KATO_POINTS,
                                     iq.GRIDS)
        return {r.name: r.value for r in records if not r.passed}

    assert failing() == {}
    monkeypatch.setattr(iq, "KATO_CONSTANT", iq.KATO_CONSTANT * (1 + 1e-3))
    margins = failing()
    assert margins["kato: kato[xyz]"] < -1e-3
    assert margins["kato: kato[z_x2_minus_y2]"] < -1e-3


def test_kato_harmonicity_record_catches_a_perturbed_table(monkeypatch):
    # re(z^3) = x^3 - 3 x y^2 with -3 changed to -2.9 has Laplacian 0.2 x
    def record():
        (rec,) = [r for r in ac.criterion_kato()
                  if r.name == "kato: Laplacian of each table is zero (max |coefficient|)"]
        return rec

    assert record().passed and record().value == 0.0
    monkeypatch.setitem(iq.KATO_CATALOG, "re_z3", {(3, 0, 0): 1, (1, 2, 0): -2.9})
    rec = record()
    assert not rec.passed and abs(rec.value - 0.2) <= 1e-12
