import csv
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from anisocheck import cli
from anisocheck import conformal as cf
from anisocheck import constants as co
from anisocheck import geometry as geo
from anisocheck import inequalities as iq
from anisocheck import integrand as ig
from anisocheck import mubble as mb
from anisocheck import schema as sch
from anisocheck import variation as va

JOBS_DIR = Path(__file__).resolve().parent.parent / "jobs"

EXAMPLE_JOBS = [
    {"command": "constants", "seed": 1, "inputs": {"variant": "sqrt-lambda"}},
    {"command": "integrand", "inputs": {"integrand": {"kind": "isotropic", "dim": 4}}},
    {"command": "integrand",
     "inputs": {"integrand": {"kind": "quadratic",
                              "matrix": [[1.0, 0.0], [0.0, 2.0]], "dim": 2}}},
    {"command": "variation",
     "inputs": {"chart": {"kind": "sphere", "n": 3, "radius": 1.0},
                "integrand": {"kind": "perturbed", "dim": 4, "epsilon": 0.1,
                              "profile": "axis2"},
                "tests": ["first_variation"]}},
    {"command": "mubble",
     "inputs": {"model": {"profile": "funnel", "T": 17.0,
                          "params": {"rate": 0.1}, "eps": 0.1}}},
    {"command": "verify", "seed": 7,
     "inputs": {"suites": ["kato"], "samples": 2000}},
]


def test_schema_validates_example_jobs():
    for job in EXAMPLE_JOBS:
        errors = sch.validate_job(job)
        # dim-2 quadratic matrix is structurally fine but dim must be >= 3
        if job["command"] == "integrand" and job["inputs"]["integrand"].get("dim") == 2:
            assert errors
            continue
        assert errors == [], (job, errors)


def test_schema_validates_shipped_job_files():
    paths = sorted(JOBS_DIR.glob("*.json"))
    assert paths, "shipped job files missing"
    for path in paths:
        job = json.loads(path.read_text())
        assert sch.validate_job(job) == [], path.name


def test_shipped_jobs_run_clean(tmp_path):
    # every shipped job except the full acceptance run (covered separately)
    for path in sorted(JOBS_DIR.glob("*.json")):
        if path.name == "all.json":
            continue
        rc = cli.main(["run", "--job", str(path), "--out", str(tmp_path / path.stem)])
        assert rc == 0, path.name


DISTANCE_ONLY = {"command": "conformal", "seed": 7,
                 "inputs": {"chart": {"kind": "cone", "n": 3}, "tests": ["distance"]}}


@pytest.mark.parametrize("job, samples, deforms", [
    ("conformal_cone.json", 2, 2),
    ("conformal_flat_lambda1.json", 2, 2),
    (DISTANCE_ONLY, 0, 0),
])
def test_conformal_runner_samples_each_grid_once(monkeypatch, job, samples, deforms):
    calls = {"sample_chart": 0, "deform": 0}

    def count(module, name):
        inner = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(geo, "sample_chart")
    count(cf, "deform")
    if isinstance(job, str):
        job = json.loads((JOBS_DIR / job).read_text())
    assert cli.run(job)["pass"]
    assert calls == {"sample_chart": samples, "deform": deforms}


def test_conformal_cone_job_holds_one_level_at_a_time():
    # the qform job of the oracles benchmark on the cone at 25 and 49 nodes:
    # its traced peak read 61.1 MiB with one level alive and the derived
    # fields formed on read, and 77.8 MiB with both levels alive and every
    # field stored
    tracemalloc = pytest.importorskip("tracemalloc")
    job = {"command": "conformal", "seed": 1234,
           "inputs": {"chart": {"kind": "cone", "n": 3}, "resolution": 25, "tests": ["qform"]}}
    tracemalloc.start()
    try:
        report = cli.run(job)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report["pass"]
    assert peak <= 66 * 2**20


def test_schema_rejects_unknown_command():
    errors = sch.validate_job({"command": "explode"})
    assert errors and errors[0].startswith("/command")


def test_schema_rejects_asymmetric_matrix():
    job = {"command": "integrand",
           "inputs": {"integrand": {"kind": "quadratic", "dim": 4,
                                    "matrix": [[1, 0.5, 0, 0], [0.4, 1, 0, 0],
                                               [0, 0, 1, 0], [0, 0, 0, 1]]}}}
    errors = sch.validate_job(job)
    assert any("matrix" in e and "symmetric" in e for e in errors)


def test_schema_rejects_bad_paths_with_pointers():
    errors = sch.validate_job({"command": "verify",
                               "inputs": {"suites": ["kato", "bogus"]}})
    assert any(e.startswith("/inputs/suites/1") for e in errors)
    errors = sch.validate_job({"command": "mubble",
                               "inputs": {"model": {"profile": "funnel", "T": -1}}})
    assert any(e.startswith("/inputs/model/T") for e in errors)


def test_emitted_schema_round_trips():
    text = json.dumps(sch.JOB_SCHEMA, indent=2, sort_keys=True)
    parsed = json.loads(text)
    assert parsed["properties"]["command"]["enum"] == list(sch.COMMANDS)


def test_run_rejects_invalid_job():
    with pytest.raises(ValueError):
        cli.run({"command": "nope"})


def test_empty_verify_suite_is_empty_pass(tmp_path):
    report = cli.run({"command": "verify", "seed": 1,
                      "inputs": {"suites": [], "samples": 2000}},
                     out_dir=tmp_path)
    assert report["records"] == []
    assert report["pass"] is True
    assert (tmp_path / "report.json").exists()


def test_cli_end_to_end_constants(tmp_path):
    rc = cli.main(["constants", "--out", str(tmp_path / "c")])
    assert rc == 0
    report = json.loads((tmp_path / "c" / "report.json").read_text())
    assert report["pass"] is True
    assert (tmp_path / "c" / "constants.csv").exists()
    lam = report["extras"]["table"]["lambda"]["value"]
    assert abs(lam - 0.495) < 5e-4
    assert abs(report["extras"]["table"]["c0"]["value"] - 1.09) < 5e-3


def test_cli_verify_deterministic_and_seed_sensitivity(tmp_path):
    # margins stabilize with sample count; the acceptance-scale sweep keeps
    # the seed-to-seed spread inside 1e-3
    job = {"command": "verify", "seed": 99,
           "inputs": {"suites": ["ricci_bound"], "samples": 1000000}}
    (tmp_path / "job.json").write_text(json.dumps(job))
    for d in ("a", "b"):
        rc = cli.main(["run", "--job", str(tmp_path / "job.json"),
                       "--out", str(tmp_path / d)])
        assert rc == 0
    ra = (tmp_path / "a" / "report.json").read_bytes()
    rb = (tmp_path / "b" / "report.json").read_bytes()
    assert ra == rb
    job["seed"] = 100
    (tmp_path / "job2.json").write_text(json.dumps(job))
    rc = cli.main(["run", "--job", str(tmp_path / "job2.json"),
                   "--out", str(tmp_path / "c2")])
    assert rc == 0
    other = json.loads((tmp_path / "c2" / "report.json").read_text())
    base = json.loads(ra)
    assert [r["pass"] for r in other["records"]] == [r["pass"] for r in base["records"]]
    # the report-level worst margin (over the margin records, tolerance
    # -TOL; the argmin reproduction residual is no margin) is pinned by the
    # seed-independent Halton stream and the exact witness, so it moves well
    # under 1e-3
    worst_a = min(r["value"] for r in base["records"] if r["tolerance"] == -iq.TOL)
    worst_b = min(r["value"] for r in other["records"] if r["tolerance"] == -iq.TOL)
    assert abs(worst_a - worst_b) <= 1e-3


def test_margins_csv_tolerance_is_the_record_tolerance(tmp_path):
    job = {"command": "verify", "seed": 3,
           "inputs": {"suites": list(sch.SUITES), "samples": 1000, "points": 200,
                      "grids": [10, 10, 12]}}
    report = cli.run(job, out_dir=tmp_path)
    tolerance = {r["name"]: r["tolerance"] for r in report["records"]}
    with open(tmp_path / "margins.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(tolerance)
    for row in rows:
        assert float(row["tolerance"]) == tolerance[f"{row['suite']}: {row['record']}"], row


def test_verify_job_catches_a_shifted_curvature_witness(monkeypatch, tmp_path):
    # the job judges its witnesses as criterion 3 does: a stored angle
    # shifted by 1e-9 fails the argmin reproduction record
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"command": "verify", "seed": 1234,
                                "inputs": {"samples": 1000, "points": 200,
                                           "grids": [10, 10, 12]}}))
    assert cli.main(["run", "--job", str(path)]) == 0
    sweeps = iq.verify_curvature_ricci

    def shifted(samples, seed, suites=iq.STREAM_SUITES):
        reps = sweeps(samples, seed=seed, suites=suites)
        reps["curvature_pinch"].records[0].detail["config"]["psi"] += 1e-9
        return reps

    # the job lists every suite, so one pass serves curvature and Ricci
    monkeypatch.setattr(iq, "verify_curvature_ricci", shifted)
    assert cli.main(["run", "--job", str(path)]) == 1


def test_verify_records_are_those_of_each_suite_alone(tmp_path):
    # the curvature and Ricci suites listed together share one pass of the
    # stream; each suite's report.json records and extras and margins.csv
    # rows are byte-identical to those of the job that lists it alone, in
    # either order
    outputs = {}
    for suites in (["curvature_pinch", "ricci_bound"], ["ricci_bound", "curvature_pinch"],
                   ["curvature_pinch"], ["ricci_bound"]):
        out = tmp_path / "-".join(suites)
        cli.run({"command": "verify", "seed": 2718,
                 "inputs": {"suites": suites, "samples": 20_000}}, out_dir=out)
        report = json.loads((out / "report.json").read_text())
        rows = (out / "margins.csv").read_bytes().splitlines()[1:]
        for suite in suites:
            records = [json.dumps(r, sort_keys=True) for r in report["records"]
                       if r["name"].startswith(f"{suite}: ")]
            outputs.setdefault(suite, []).append((
                records, [row for row in rows if row.startswith(f"{suite},".encode())],
                json.dumps(report["extras"][suite], sort_keys=True)))
    for suite, seen in outputs.items():
        assert len(seen) == 3 and seen[0][0] and len(seen[0][0]) == len(seen[0][1])
        assert seen[1] == seen[0] and seen[2] == seen[0], suite


def test_cli_mubble_writes_profile_curves(tmp_path, assert_archive_bits):
    job = {"command": "mubble", "seed": 1,
           "inputs": {"model": {"profile": "cylinder", "T": 20.0, "lambda": 1.0,
                                "n_grid": 801}}}
    (tmp_path / "job.json").write_text(json.dumps(job))
    rc = cli.main(["run", "--job", str(tmp_path / "job.json"),
                   "--out", str(tmp_path / "m")])
    assert rc == 0
    out = tmp_path / "m"
    assert sorted(p.name for p in out.iterdir()) == ["band_profiles.npz",
                                                     "model_profiles.npz", "report.json"]
    bands = json.loads((out / "report.json").read_text())["extras"]["profiles"]
    model = mb.make_model("cylinder", T=20.0, lam=1.0, n_grid=801)
    prof = mb.build_phi_h(model, bands["eps"], bands["amplitude"])
    assert_archive_bits(out / "model_profiles.npz",
                        {"t": model.t, "f": model.f, "u": model.u, "R": model.R})
    assert_archive_bits(out / "band_profiles.npz", {"t": prof.t, "phi": prof.phi, "h": prof.h})


def test_cli_variation_exports_geometry_csv(tmp_path, assert_archive_bits):
    chart = {"kind": "hyperplane", "n": 2, "offset": 1.0}
    job = {"command": "variation", "seed": 1,
           "inputs": {"chart": chart,
                      "integrand": {"kind": "isotropic", "dim": 3},
                      "tests": ["first_variation", "vectorfield"],
                      "resolution": 13}}
    (tmp_path / "job.json").write_text(json.dumps(job))
    rc = cli.main(["run", "--job", str(tmp_path / "job.json"),
                   "--out", str(tmp_path / "v")])
    assert rc == 0
    # the names and fields of export_arrays are pinned in tests/test_geometry.py
    expected = geo.export_arrays(geo.sample_chart(sch.build_chart(chart), 13))
    assert_archive_bits(tmp_path / "v" / "geometry.npz", expected)
    report = json.loads((tmp_path / "v" / "report.json").read_text())
    assert report["extras"]["geometry_arrays"] == list(expected)


def test_cli_exit_codes_via_subprocess(tmp_path, child_env):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"command": "integrand",
                               "inputs": {"integrand": {"kind": "quadratic",
                                                        "dim": 3,
                                                        "matrix": [[1, 2], [3, 4]]}}}))
    proc = subprocess.run([sys.executable, "-m", "anisocheck.cli", "run",
                           "--job", str(bad)], capture_output=True, text=True,
                          env=child_env)
    assert proc.returncode == 2
    assert "matrix" in proc.stderr


def test_missing_job_file_exits_2(tmp_path, capsys):
    rc = cli.main(["run", "--job", str(tmp_path / "absent.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "absent.json" in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("text", ['{"command": "verify", ', "5"])
def test_malformed_job_file_exits_2(tmp_path, capsys, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    rc = cli.main(["run", "--job", str(bad)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("cannot load job") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("box, pointer", [
    ([[0.5, 2.5]], "/inputs/chart/box"),
    ([[0.5, 2.5]] * 4, "/inputs/chart/box"),
    ([[0.5, 2.5], [2.5, 0.5], [0.0, 6.0]], "/inputs/chart/box/1"),
    ([[0.5, 2.5], [0.5, 2.5], [0.0, "6"]], "/inputs/chart/box/2"),
    ([[0.5, 2.5], [0.5], [0.0, 6.0]], "/inputs/chart/box/1"),
    # the other chart keys that the constructors read
    ({"kind": "sphere", "n": 3, "center": [0, 0]}, "/inputs/chart/center"),
    ({"kind": "cylinder", "n": 3, "z_range": [1]}, "/inputs/chart/z_range"),
    ({"kind": "cone", "n": 3, "s_range": [1.5, 0.5]}, "/inputs/chart/s_range"),
    ({"kind": "cylinder", "n": 3, "theta_range": [0.5, "2"]},
     "/inputs/chart/theta_range"),
    ({"kind": "catenoid_3", "n": 3, "t_range": 0.8}, "/inputs/chart/t_range"),
    ({"kind": "hyperplane", "n": 3, "offset": "1"}, "/inputs/chart/offset"),
])
def test_schema_rejects_bad_chart_box(box, pointer, capsys):
    # a list is the box of a 3-sphere, a dict the whole chart
    chart = box if isinstance(box, dict) else {"kind": "sphere", "n": 3, "box": box}
    job = {"command": "variation",
           "inputs": {"chart": chart,
                      "integrand": {"kind": "isotropic", "dim": 4}}}
    errors = sch.validate_job(job)
    assert [e.split(":")[0] for e in errors] == [pointer]
    with pytest.raises(ValueError):
        cli.run(job)


@pytest.mark.parametrize("inputs, pointers", [
    ({"grids": ["a", 2, 3]}, ["/inputs/grids/0"]),
    ({"grids": [1, 1, 1]}, ["/inputs/grids/0", "/inputs/grids/1", "/inputs/grids/2"]),
    ({"grids": [10]}, ["/inputs/grids"]),
    ({"grids": [20, True, 36]}, ["/inputs/grids/1"]),
    ({"grids": [2000, 2000, 720]}, ["/inputs/grids"]),
    ({"samples": sch.MAX_SAMPLES + 1}, ["/inputs/samples"]),
    ({"samples": 999}, ["/inputs/samples"]),
    ({"points": 0}, ["/inputs/points"]),
])
def test_schema_rejects_bad_verify_inputs(inputs, pointers):
    job = {"command": "verify", "inputs": {"suites": ["quadratic_lemma"], **inputs}}
    errors = sch.validate_job(job)
    assert [e.split(":")[0] for e in errors] == pointers
    with pytest.raises(cli.InvalidJob):
        cli.run(job)


def test_schema_accepts_verify_caps():
    job = {"command": "verify",
           "inputs": {"samples": sch.MAX_SAMPLES, "points": sch.MAX_SAMPLES,
                      "grids": [100, 100, sch.MAX_GRID_POINTS // 10_000]}}
    assert sch.validate_job(job) == []


@pytest.mark.parametrize("model, pointer", [
    # a round cap ends at its second pole t = pi
    ({"profile": "round_cap", "T": 4.0, "lambda": 100.0}, "/inputs/model/T"),
    ({"profile": "funnel", "T": 17.0, "lambda": 0.0}, "/inputs/model/lambda"),
    ({"profile": "funnel", "T": 17.0, "lambda": -1.0}, "/inputs/model/lambda"),
    ({"profile": "funnel", "T": 17.0, "lambda": "1"}, "/inputs/model/lambda"),
])
def test_schema_rejects_mubble_models_that_cannot_run(model, pointer):
    job = {"command": "mubble", "inputs": {"model": model}}
    assert [e.split(":")[0] for e in sch.validate_job(job)] == [pointer]


@pytest.mark.parametrize("model", [
    # lambda_1 = 3 needs T >= 4 pi/sqrt(3) + 2 eps = 7.455 > pi
    {"profile": "round_cap", "T": 3.0},
    {"profile": "round_cap", "T": 3.0, "lambda": 20.0},
    {"profile": "cylinder", "T": 10.0, "lambda": 1.0},
])
def test_mubble_model_too_short_for_the_band_exits_2(tmp_path, capsys, model):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"command": "mubble", "inputs": {"model": model}}))
    assert cli.main(["run", "--job", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "/inputs/model/T: must be >= 4 pi/sqrt(lambda) + 2 eps" in err


@pytest.mark.parametrize("exc", [ValueError("bad value\nsecond line"),
                                 RuntimeError("solver diverged")])
def test_runner_exception_exits_3_with_one_line(monkeypatch, capsys, exc):
    def broken(inputs, seed, out_dir):
        raise exc

    monkeypatch.setitem(cli._RUNNERS, "verify", broken)
    assert cli.main(["verify", "--samples", "1000"]) == 3
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith(f"internal error: {type(exc).__name__}: ")


def test_conformal_lambda1_uses_the_stability_rule(monkeypatch):
    # theta = 0 passes the old "lambda_stab >= -1e-10" test, but with a
    # positive residual theta - residual < 0, so the chart is not stable
    solve = va.smallest_eigenpair

    def unresolved(K, M):
        _, x, matvecs, _ = solve(K, M)
        return 0.0, x, matvecs, 1e-3

    monkeypatch.setattr(va, "smallest_eigenpair", unresolved)
    job = {"command": "conformal", "seed": 7,
           "inputs": {"chart": {"kind": "hyperplane", "n": 3, "offset": 1.0,
                                "box": [[-1.2, 1.2]] * 3},
                      "lambda": 0.75, "resolution": 9, "tests": ["lambda1"]}}
    rec, = cli.run(job)["records"]
    assert rec["tolerance"] is None
    assert "not a certified stable" in rec["detail"]["warning"]


PLANE = {"kind": "hyperplane", "n": 3, "offset": 1.0}
ISO4 = {"kind": "isotropic", "dim": 4}


def _conformal(**inputs):
    return {"command": "conformal",
            "inputs": {"chart": PLANE, "tests": ["qform"], "resolution": 9, **inputs}}


def _variation(**inputs):
    return {"command": "variation",
            "inputs": {"chart": PLANE, "integrand": ISO4, "resolution": 9,
                       "tests": ["first_variation"], **inputs}}


def _mubble(model=None, **inputs):
    return {"command": "mubble",
            "inputs": {"model": {"profile": "funnel", "T": 17.0, "n_grid": 401,
                                 **(model or {})}, **inputs}}


# jobs whose runners read a value that no validation looked at
UNCHECKED_INPUTS = [
    (_conformal(integrand={"kind": "bogus"}, tests=["lambda1"]), "/inputs/integrand/kind"),
    (_conformal(resolution="x"), "/inputs/resolution"),
    (_conformal(resolution=3), "/inputs/resolution"),
    (_conformal(**{"lambda": "x"}), "/inputs/lambda"),
    (_variation(rho="x", tests=["isoperimetric"]), "/inputs/rho"),
    (_variation(chart={"kind": "graph", "n": 3, "height": "nope"}), "/inputs/chart/height"),
    ({"command": "integrand",
      "inputs": {"integrand": {"kind": "isotropic", "scale": "x"}}}, "/inputs/integrand/scale"),
    (_mubble({"n_grid": "x"}), "/inputs/model/n_grid"),
    (_mubble({"params": {"rate": "x"}}), "/inputs/model/params/rate"),
    (_mubble(amplitude="big"), "/inputs/amplitude"),
    ({"command": "verify", "seed": -1, "inputs": {"suites": ["kato"], "points": 10}}, "/seed"),
    (_variation(resolution=[9, 9]), "/inputs/resolution"),
    (_variation(integrand={"kind": "isotropic", "dim": 3}), "/inputs/integrand/dim"),
    ({"command": "integrand", "inputs": {}}, "/inputs/integrand"),
    ({"command": "variation", "inputs": {"chart": PLANE}}, "/inputs/integrand"),
    ({"command": "conformal", "inputs": {"tests": ["qform"]}}, "/inputs/chart"),
    ({"command": "mubble", "inputs": {}}, "/inputs/model"),
]


# a JSON integer too large for a float: a draft-07 validator takes it as a number
TOO_LARGE = (_variation(chart={"kind": "sphere", "n": 3, "radius": 10**400}),
             "/inputs/chart/radius")
# JSON integers beyond the float range still meet the bounds of their key
BEYOND_FLOAT = [
    ({"command": "verify", "inputs": {"samples": 10**400}}, "/inputs/samples"),
    ({"command": "verify", "inputs": {"points": -10**400}}, "/inputs/points"),
    ({"command": "verify", "inputs": {"grids": [-10**400, 2, 2]}}, "/inputs/grids/0"),
    ({"command": "integrand",
      "inputs": {"integrand": {"kind": "isotropic", "dim": -10**400}}}, "/inputs/integrand/dim"),
    (_conformal(resolution=-10**400), "/inputs/resolution"),
    ({"command": "verify", "seed": -10**400, "inputs": {"suites": ["kato"], "points": 10}},
     "/seed"),
]

# sizes that, uncapped, run out of ndarray dimensions or memory inside the
# runner (exit 3)
UNCAPPED = [
    ({"command": "integrand",
      "inputs": {"integrand": {"kind": "isotropic", "dim": 10**6}}}, "/inputs/integrand/dim"),
    (_mubble({"n_grid": 10**9}), "/inputs/model/n_grid"),
]


# charts and models that the schema admits but a runner cannot take: the
# runner turns the sampling or deformation error into an invalid job
UNRUNNABLE = [
    # det g = s^4 sin^2 theta falls below DET_FLOOR near the inset pole
    (_variation(chart={"kind": "hyperplane", "n": 3, "polar": True}), "/inputs/chart"),
    (_variation(chart={"kind": "sphere", "n": 3, "radius": 1e-12}), "/inputs/chart"),
    (_conformal(chart={"kind": "sphere", "n": 3, "radius": 1e-12}), "/inputs/chart"),
    # the origin is a node: r >= R_MIN fails
    (_conformal(chart={"kind": "hyperplane", "n": 3, "offset": 0.0}), "/inputs/chart"),
    # f = 1 + a cos(omega t) vanishes at |a| = 1
    (_mubble({"profile": "bulge", "params": {"amplitude": 1}}),
     "/inputs/model/params/amplitude"),
    (_mubble({"profile": "bulge", "params": {"amplitude": -1.0}}),
     "/inputs/model/params/amplitude"),
    # lambda_1 <= 0 leaves the band 4 pi/sqrt(lambda) undefined
    (_mubble({"params": {"rate": -10}}), "/inputs/model"),
    (_mubble({"profile": "bulge", "params": {"period": 1e-3}}), "/inputs/model"),
    # f underflows (rate T >= 680) or f'' overflows: the profile is not finite
    (_mubble({"params": {"rate": 40}}), "/inputs/model/params/rate"),
    (_mubble({"params": {"rate": 1e5}}), "/inputs/model/params/rate"),
    (_mubble({"profile": "bulge", "params": {"period": 1e-160}}),
     "/inputs/model/params/period"),
    # h = -amplitude tan(phi) squares past the float range on the band
    (_mubble(amplitude=1e300), "/inputs/amplitude"),
    # the variation bumps vanish on two end layers from 11 nodes per bounded axis
    (_variation(resolution=8), "/inputs/resolution"),
    (_variation(resolution=10, tests=["second_variation"]), "/inputs/resolution"),
    (_variation(resolution=[11, 11, 10]), "/inputs/resolution"),
    (_conformal(chart={"kind": "cone", "n": 3}, resolution=10), "/inputs/resolution"),
]
# a positive rho inside the chart: its boundary reaches radius sqrt(3 + 1) = 2
RHO_INSIDE = (_variation(tests=["isoperimetric"], rho=0.5), "/inputs/rho")
# a size that, uncapped, overflows inside the runner (exit 3): e^T of the
# Clifford cone's annulus (OverflowError); last, so the ids above keep
# their indices
CONE_T_OVERFLOW = (_variation(chart={"kind": "clifford_cone", "T": 800}), "/inputs/chart/T")
# one node of the grid lies inside the band, where minimizing A needs three
# (an IndexError, exit 3, without the check); last, as above
COARSE_BAND = (_mubble({"profile": "cylinder", "n_grid": 3}), "/inputs/model/n_grid")

# integrand norms of a constants table that cannot be built: c1_norm below
# phi_min, or a ratio c1_norm / phi_min at which V0 overflows a double; the
# pointer names the key the job gave
UNBUILDABLE_NORMS = [
    ({"command": "constants", "inputs": {"c1_norm": 0.5}}, "/inputs/c1_norm"),
    ({"command": "constants", "inputs": {"phi_min": 2.0}}, "/inputs/phi_min"),
    ({"command": "constants", "inputs": {"c1_norm": 1e300}}, "/inputs/c1_norm"),
    ({"command": "constants", "inputs": {"phi_min": 1e-12, "variant": "as-printed",
                                         "c1_norm": 1e256}}, "/inputs/c1_norm"),
]


# inputs that are no longer read: an integrand's scale c is the quadratic
# integrand with matrix c^2 I
REMOVED_INPUTS = [
    ({"command": "integrand",
      "inputs": {"integrand": {"kind": "quadratic", "matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                               "scale": 2}}}, "/inputs/integrand/scale"),
]


def _run_pointers(tmp_path, capsys, job):
    """Exit code of ``anisocheck run`` on ``job`` and the pointers it printed."""
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(job))
    code = cli.main(["run", "--job", str(bad)])
    header, *lines = capsys.readouterr().err.strip().splitlines()
    assert header == "invalid job:"
    return code, [line.split(":")[0].strip() for line in lines]


@pytest.mark.parametrize("job, pointer",
                         UNCHECKED_INPUTS + [TOO_LARGE] + BEYOND_FLOAT + UNCAPPED + UNRUNNABLE
                         + REMOVED_INPUTS + UNBUILDABLE_NORMS
                         + [RHO_INSIDE, CONE_T_OVERFLOW, COARSE_BAND])
def test_unchecked_inputs_exit_2_with_their_pointer(tmp_path, capsys, job, pointer):
    assert _run_pointers(tmp_path, capsys, job) == (2, [pointer])


def test_a_chart_error_at_the_refined_level_names_the_chart(tmp_path, capsys):
    # the plane through the origin misses it at 10 nodes, where the bumps
    # lack room, and has it as a node at the refined 19: the chart error is
    # reported, though the coarse level is freed before the fine one is sampled
    job = _conformal(chart={"kind": "hyperplane", "n": 3, "offset": 0.0}, resolution=10)
    assert _run_pointers(tmp_path, capsys, job) == (2, ["/inputs/chart"])


BAND = [math.pi / 4, 3 * math.pi / 4]


@pytest.mark.parametrize("job", [
    # a closed chart has no boundary face to set the default rho
    _variation(chart={"kind": "sphere"}, tests=["isoperimetric"], resolution=13),
    _variation(chart={"kind": "sphere", "n": 2}, integrand={"kind": "isotropic", "dim": 3},
               tests=["isoperimetric"], resolution=21),
    # a periodic axis needs no room for the bumps
    _variation(chart={"kind": "sphere", "box": [BAND, BAND, [0.0, 2 * math.pi]]},
               resolution=[11, 11, 8]),
    # a Clifford cone at either end of its T range, with every test but the
    # conformal lambda1 (about 4 s at T = 100, where it passes; the spectrum
    # of the variation job solves at both ends)
    *(_variation(chart={"kind": "clifford_cone", "T": T}, resolution=[11, 8, 8],
                 tests=["first_variation", "second_variation", "vectorfield",
                        "isoperimetric", "spectrum"]) for T in sch.CONE_T_RANGE),
    *(_conformal(chart={"kind": "clifford_cone", "T": T}, resolution=11,
                 tests=["qform", "laplace_r", "distance"]) for T in sch.CONE_T_RANGE),
])
def test_valid_jobs_run(tmp_path, job):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    assert cli.main(["run", "--job", str(path)]) in (0, 1)


def test_valid_constants_jobs_pass():
    # log-uniform norms over the whole range the schema admits, any variant:
    # a job that validates builds its table and passes every record
    from hypothesis import given, settings
    from hypothesis import strategies as st

    exponent = st.floats(-12.0, 300.0)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(exponent, exponent, st.sampled_from(co.VARIANTS))
    def check(c1, phi, variant):
        job = {"command": "constants",
               "inputs": {"c1_norm": 10.0**c1, "phi_min": 10.0**phi, "variant": variant}}
        if not sch.validate_job(job):
            assert cli.run(job)["pass"], job

    check()


def _runs_or_is_refused(job):
    """Run a schema-valid ``job``: a check may fail (exit 1) and the runner
    may refuse the job (exit 2), but no other exception (exit 3) escapes."""
    if not sch.validate_job(job):
        try:
            cli.run(job)
        except cli.InvalidJob:
            pass


def test_valid_mubble_jobs_run():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    number = st.floats(-1e3, 1e3) | st.floats(-1.0, 1.0)
    params = st.fixed_dictionaries({}, optional={"rate": number, "amplitude": number,
                                                 "period": st.floats(1e-3, 1e3)})
    model = st.fixed_dictionaries(
        {"profile": st.sampled_from(list(mb.PROFILES)), "n_grid": st.integers(3, 501)},
        optional={"T": st.floats(1e-6, 60.0), "params": params,
                  "lambda": st.floats(1e-6, 1e3), "eps": st.floats(1e-9, 0.5 - 1e-9)})
    amplitude = st.sampled_from(["sqrt-lambda", "half"]) | number

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(model, st.none() | amplitude)
    def check(model, amp):
        inputs = {"model": model, **({} if amp is None else {"amplitude": amp})}
        _runs_or_is_refused({"command": "mubble", "inputs": inputs})

    check()


def test_valid_integrand_jobs_run():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @st.composite
    def spec(draw):
        dim = draw(st.integers(3, 5))
        kind = draw(st.sampled_from(["isotropic", "quadratic", "perturbed"]))
        if kind == "quadratic":
            m = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=dim * dim,
                                       max_size=dim * dim))).reshape(dim, dim)
            return {"kind": kind, "matrix": ((m + m.T) / 2 + 2.0 * np.eye(dim)).tolist()}
        if kind == "perturbed":
            return {"kind": kind, "dim": dim, "epsilon": draw(st.floats(-1.0, 1.0)),
                    "profile": draw(st.sampled_from(sorted(ig.PROFILES)))}
        return {"kind": kind, "dim": dim}

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(spec(), st.integers(8, 9))
    def check(integrand, resolution):
        _runs_or_is_refused({"command": "integrand",
                             "inputs": {"integrand": integrand, "resolution": resolution}})

    check()


#: the job chart of each `geometry.catalog` chart, by n and name
CATALOG_CHARTS = {
    2: {"hyperplane": {"kind": "hyperplane", "n": 2, "offset": 1.0},
        "sphere": {"kind": "sphere", "n": 2, "box": [BAND, [0.0, 2 * math.pi]]},
        "cylinder": {"kind": "cylinder", "n": 2, "z_range": [-1.0, 1.0]},
        "catenoid_2": {"kind": "catenoid_2", "s_range": [-1.0, 1.0]},
        "graph": {"kind": "graph", "n": 2, "amplitude": 0.5, "offset": 1.0},
        "cone": {"kind": "cone", "n": 2, "link_ratio": 0.8, "s_range": [0.5, 1.5]}},
    3: {"hyperplane": {"kind": "hyperplane", "n": 3, "offset": 1.0},
        "sphere": {"kind": "sphere", "n": 3, "box": [BAND, BAND, [0.0, 2 * math.pi]]},
        "cylinder": {"kind": "cylinder", "n": 3, "theta_range": BAND},
        "catenoid_3": {"kind": "catenoid_3", "t_range": [-0.8, 0.8], "theta_range": BAND},
        "graph": {"kind": "graph", "n": 3, "amplitude": 0.5, "offset": 1.0},
        "cone": {"kind": "cone", "n": 3, "link_ratio": 0.8, "s_range": [0.5, 1.5],
                 "theta_range": BAND}},
}


@pytest.mark.parametrize("n", [2, 3])
def test_catalog_job_charts_are_the_catalog(n):
    for name, chart in geo.catalog(n).items():
        job_chart = sch.build_chart(CATALOG_CHARTS[n][name])
        assert (type(job_chart), job_chart.box) == (type(chart), chart.box), name


def _chart_jobs(command, tests, extra):
    """The strategy of schema-valid ``command`` jobs on a catalog chart or
    a Clifford cone, at resolution 8 or 9, with a non-empty subset of
    ``tests``, an integrand of the chart's ambient dimension and the
    inputs ``extra`` draws."""
    from hypothesis import strategies as st

    @st.composite
    def jobs(draw):
        n = draw(st.sampled_from([2, 3]))
        names = sorted(CATALOG_CHARTS[n]) + ["clifford_cone"] * (n == 3)
        name = draw(st.sampled_from(names))
        chart = (CATALOG_CHARTS[n][name] if name in CATALOG_CHARTS[n] else
                 {"kind": name, "T": draw(st.floats(*sch.CONE_T_RANGE))})
        integrand = draw(st.sampled_from([
            {"kind": "isotropic", "dim": n + 1},
            {"kind": "quadratic", "matrix": np.diag(np.linspace(1.0, 1.3, n + 1)).tolist()},
            {"kind": "perturbed", "dim": n + 1, "epsilon": 0.05,
             "profile": sorted(ig.PROFILES)[0]}]))
        inputs = {"chart": chart, "integrand": integrand,
                  "resolution": draw(st.integers(8, 9)),
                  "tests": draw(st.lists(st.sampled_from(tests), min_size=1, unique=True)),
                  **draw(extra)}
        return {"command": command, "inputs": inputs}

    return jobs()


def test_valid_variation_and_conformal_jobs_run():
    # every test of both commands, small grids; the bumps of the variation,
    # qform and laplace_r tests need 11 nodes on a non-periodic axis, so
    # about three in four jobs are refused (exit 2).  The tests without a
    # bump come first, where the draws of a list fall most often
    from hypothesis import given, settings
    from hypothesis import strategies as st

    variation = _chart_jobs("variation", ["spectrum", "vectorfield", "isoperimetric",
                                          "first_variation", "second_variation"],
                            st.just({}))
    conformal = _chart_jobs("conformal", ["distance", "lambda1", "laplace_r", "qform"],
                            st.fixed_dictionaries({"lambda": st.floats(-10.0, 10.0)}))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(variation | conformal)
    def check(job):
        _runs_or_is_refused(job)

    check()


def test_valid_verify_jobs_pass():
    # any suites (none, or repeated), small samples, points and grids, any
    # seed: the lemmas hold at every point, so a job that validates passes
    from hypothesis import given, settings
    from hypothesis import strategies as st

    inputs = st.fixed_dictionaries({}, optional={
        "suites": st.lists(st.sampled_from(sch.SUITES), max_size=5),
        "samples": st.integers(1000, 20_000), "points": st.integers(1, 20_000),
        "grids": st.lists(st.integers(2, 40), min_size=3, max_size=3)})

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(inputs, st.integers(0, 2**64))
    def check(inputs, seed):
        # an omitted size takes its default, too slow to draw often
        inputs = {"samples": 1000, "points": 1, "grids": [2, 2, 2], **inputs}
        job = {"command": "verify", "seed": seed, "inputs": inputs}
        if not sch.validate_job(job):
            assert cli.run(job)["pass"], job

    check()


def test_round_cap_without_T_exits_2(tmp_path, capsys):
    # the runner's default T = 20 lies past the cap's second pole, T = pi
    job = {"command": "mubble", "inputs": {"model": {"profile": "round_cap"}}}
    assert _run_pointers(tmp_path, capsys, job) == (2, ["/inputs/model/T"])


def _draft7():
    import jsonschema

    jsonschema.Draft7Validator.check_schema(sch.JOB_SCHEMA)
    formats = jsonschema.FormatChecker(formats=())
    for name, predicate in sch.FORMATS.items():
        formats.checks(name)(lambda v, p=predicate: not isinstance(v, list) or p(v) is None)
    return jsonschema.Draft7Validator(sch.JOB_SCHEMA, format_checker=formats)


def test_jsonschema_agrees_with_the_walker():
    # the cross-value rules of validate_job are the only difference
    validator = _draft7()
    jobs = [json.loads(p.read_text()) for p in sorted(JOBS_DIR.glob("*.json"))]
    jobs += EXAMPLE_JOBS + [job for job, _ in UNCHECKED_INPUTS + BEYOND_FLOAT + UNCAPPED
                            + UNRUNNABLE + REMOVED_INPUTS + UNBUILDABLE_NORMS
                            + [CONE_T_OVERFLOW, COARSE_BAND]]
    jobs.append(RHO_INSIDE[0])
    jobs.append({"command": "mubble", "inputs": {"model": {"profile": "round_cap"}}})
    jobs += [{"command": "integrand",
              "inputs": {"integrand": {"kind": "quadratic", "matrix": m}}}
             for m in ([[1, 2, 0], [0, 1, 0], [0, 0, 1]], [[1, 0, 0], [0, -1, 0], [0, 0, 1]])]
    jobs.append(_variation(chart={"kind": "cone", "n": 3, "s_range": [1.5, 0.5]}))
    for job in jobs:
        walker_ok = sch._walk(sch.JOB_SCHEMA, job) == []
        assert validator.is_valid(job) == walker_ok, job


def _shaped(node, values):
    """JSON values shaped like the schema ``node``, with any part of them
    replaced by an arbitrary value, so that any keyword can be broken."""
    from hypothesis import strategies as st

    options = [values] + [_shaped(sub, values) for sub in node.get("anyOf", ())]
    if "enum" in node:
        options.append(st.sampled_from(node["enum"]))
    if "const" in node:
        options.append(st.just(node["const"]))
    bounds = [node[key] for key in ("minimum", "maximum", "exclusiveMinimum") if key in node]
    if bounds:      # the bounds themselves, and integers beyond the float range
        options.append(st.sampled_from(bounds + [-10**400, 10**400]))
    if "items" in node:
        options.append(st.lists(_shaped(node["items"], values), max_size=4))
    # one object shape per if/then branch, with the branch's condition met
    for branch in ([{}] + node.get("allOf", []) if "properties" in node else ()):
        cond = branch.get("if", {}).get("properties", {})
        props = {**node["properties"], **branch.get("then", {}).get("properties", {})}
        options.append(st.fixed_dictionaries(
            {key: st.just(sub["const"]) for key, sub in cond.items()},
            optional={key: _shaped(sub, values) for key, sub in props.items()
                      if key not in cond}))
    return st.one_of(options)


def _json_values():
    from hypothesis import strategies as st

    values = st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
        lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3),
                                                                    inner, max_size=4),
        max_leaves=20)
    return _shaped(sch.JOB_SCHEMA, values)


def test_validate_job_returns_pointers_on_any_json():
    from hypothesis import given, settings

    validator = _draft7()

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(_json_values())
    def check(job):
        errors = sch.validate_job(job)
        assert all(isinstance(e, str) and e.startswith("/") for e in errors)
        # the walker is never looser than a draft-07 validator of JOB_SCHEMA
        if sch._walk(sch.JOB_SCHEMA, job) == []:
            assert validator.is_valid(job)

    check()


@pytest.mark.parametrize("job, pointers", [
    (_variation(resolution=[sch.MAX_NODES // 2500, 50, 50]), []),
    (_variation(resolution=[sch.MAX_NODES // 2500 + 1, 50, 50]), ["/inputs/resolution"]),
    (_variation(resolution=100_000), ["/inputs/resolution"]),
    # the qform refinement companion samples (2r - 1)^3 nodes: 49^3, then 51^3
    (_conformal(resolution=25), []),
    (_conformal(resolution=26), ["/inputs/resolution"]),
    (_conformal(resolution=50, tests=["lambda1"]), []),
])
def test_resolution_cap(job, pointers):
    assert [e.split(":")[0] for e in sch.validate_job(job)] == pointers


def _integrand(resolution, **spec):
    return {"command": "integrand", "inputs": {"integrand": {"kind": "isotropic", **spec},
                                                "resolution": resolution}}


def _eye(k):
    return [[float(i == j) for j in range(k)] for i in range(k)]


@pytest.mark.parametrize("job, pointers", [
    # m^dim - (m - 2)^dim sphere-grid nodes, m = resolution | 1
    (_integrand(8, dim=sch.MAX_DIM), []),
    (_integrand(10, dim=sch.MAX_DIM), ["/inputs/resolution"]),
    (_integrand(8, dim=sch.MAX_DIM + 1), ["/inputs/integrand/dim"]),
    (_integrand(sch.MAX_SPHERE_RESOLUTION, dim=3), []),
    (_integrand(sch.MAX_SPHERE_RESOLUTION + 1, dim=3), ["/inputs/resolution"]),
    (_integrand(39, dim=4), []),
    (_integrand(40, dim=4), ["/inputs/resolution"]),
    (_integrand(8, kind="quadratic", matrix=_eye(sch.MAX_DIM)), []),
    (_integrand(10, kind="quadratic", matrix=_eye(sch.MAX_DIM)),
     ["/inputs/resolution"]),
    (_integrand(8, kind="quadratic", matrix=_eye(sch.MAX_DIM + 1)),
     ["/inputs/integrand/matrix"]),
    (_mubble({"n_grid": sch.MAX_N_GRID}), []),
    (_mubble({"n_grid": sch.MAX_N_GRID + 1}), ["/inputs/model/n_grid"]),
])
def test_integrand_and_mubble_size_caps(job, pointers):
    assert [e.split(":")[0] for e in sch.validate_job(job)] == pointers


SQRT2 = 1.4142135623730951
# the inputs of a minimal job (required inputs only) of each command, with
# every default filled in: a default that moves fails here
RESOLVED = [
    ({"command": "constants"},
     {"variant": "sqrt-lambda", "c1_norm": SQRT2, "phi_min": 1.0}),
    ({"command": "integrand", "inputs": {"integrand": {"kind": "isotropic"}}},
     {"integrand": {"kind": "isotropic", "dim": 4}, "resolution": 17}),
    ({"command": "integrand", "inputs": {"integrand": {"kind": "quadratic",
                                                       "matrix": _eye(3)}}},
     {"integrand": {"kind": "quadratic", "matrix": _eye(3), "dim": 3}, "resolution": 17}),
    ({"command": "variation", "inputs": {"chart": {"kind": "sphere"},
                                         "integrand": {"kind": "isotropic"}}},
     {"chart": {"kind": "sphere", "n": 3}, "integrand": {"kind": "isotropic", "dim": 4},
      "resolution": 13, "tests": ["first_variation"], "rho": 0.0}),
    ({"command": "variation", "inputs": {"chart": {"kind": "catenoid_2"},
                                         "integrand": {"kind": "isotropic", "dim": 3}}},
     {"chart": {"kind": "catenoid_2", "n": 2}, "integrand": {"kind": "isotropic", "dim": 3},
      "resolution": 21, "tests": ["first_variation"], "rho": 0.0}),
    ({"command": "conformal", "inputs": {"chart": {"kind": "cone"}}},
     {"chart": {"kind": "cone", "n": 3}, "integrand": {"kind": "isotropic", "dim": 4},
      "resolution": 13, "tests": ["qform"], "lambda": 0.75}),
    ({"command": "conformal", "inputs": {"chart": {"kind": "catenoid_2"}}},
     {"chart": {"kind": "catenoid_2", "n": 2}, "integrand": {"kind": "isotropic", "dim": 3},
      "resolution": 21, "tests": ["qform"], "lambda": 0.0}),
    ({"command": "mubble", "inputs": {"model": {"profile": "funnel"}}},
     {"model": {"profile": "funnel", "T": 20.0, "eps": 0.1, "n_grid": 4001},
      "amplitude": "sqrt-lambda"}),
    ({"command": "verify"},
     {"suites": ["quadratic_lemma", "curvature_pinch", "ricci_bound", "kato"],
      "samples": 1_000_000, "points": 10_000, "grids": [200, 200, 720]}),
    ({"command": "all"}, {}),
    # a key that the command does not read stays as given
    ({"command": "constants", "inputs": {"chart": 5, "model": None}},
     {"variant": "sqrt-lambda", "c1_norm": SQRT2, "phi_min": 1.0, "chart": 5, "model": None}),
]


@pytest.mark.parametrize("job, resolved", RESOLVED)
def test_resolve_inputs_fills_every_default(job, resolved):
    given = json.dumps(job, sort_keys=True)
    assert sch.resolve_inputs(job) == resolved
    assert json.dumps(job, sort_keys=True) == given      # the job stays as given
    assert sch.validate_job({**job, "inputs": sch.resolve_inputs(job)}) == []


def test_rules_size_the_resolved_grid(monkeypatch):
    # a qform job without resolution on a chart without n samples its
    # refinement companion at (2 * 13 - 1)^3 nodes
    job = {"command": "conformal", "inputs": {"chart": {"kind": "cone"}}}
    monkeypatch.setattr(sch, "MAX_NODES", 25**3)
    assert sch.validate_job(job) == []
    monkeypatch.setattr(sch, "MAX_NODES", 25**3 - 1)
    assert sch.validate_job(job) == [
        f"/inputs/resolution: samples {25**3} nodes, more than MAX_NODES = {25**3 - 1}"]


def test_cli_defaults_are_the_resolved_ones():
    args = cli._build_parser().parse_args(["verify"])
    assert (args.seed, args.samples) == (1234, 1_000_000)
    assert cli._build_parser().parse_args(["constants"]).variant == "sqrt-lambda"
