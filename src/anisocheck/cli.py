"""Batch CLI: JSON jobs in, machine-readable reports out.

Subcommands mirror the job commands (constants, integrand, variation,
conformal, mubble, verify, all) plus ``schema`` to print the job format
and ``run`` to dispatch a job file directly.  Reports are deterministic
for a fixed seed: report.json (sorted keys, no timestamps), CSV tables
for bulk numbers, and .dat profile curves for plotting.  The exit status
is 0 exactly when every recorded check passes, 1 when a check fails and
2 when the job is invalid or cannot be read.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import acceptance as ac
from . import conformal as cf
from . import constants as co
from . import geometry as geo
from . import inequalities as iq
from . import integrand as ig
from . import mubble as mb
from . import schema as sch
from . import variation as va
from .checks import Check, ge, le


def _provenance(seed, variant=None):
    prov = {"tool": "anisocheck", "version": __version__, "seed": int(seed)}
    if variant is not None:
        prov["variant"] = variant
    return prov


def _write_report(out_dir, report):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "report.json"
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


def _write_csv(out_dir, name, header, rows):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / name, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


# -- command runners -----------------------------------------------------------


def _run_constants(inputs, seed, out_dir):
    variant = inputs.get("variant", "sqrt-lambda")
    c1 = float(inputs.get("c1_norm", math.sqrt(2.0)))
    pm = float(inputs.get("phi_min", 1.0))
    table = co.build_table(c1_norm=c1, phi_min=pm, variant=variant)
    records = []
    for entry in table.entries.values():
        err = entry.rederivation_error()
        records.append(le(f"rederive {entry.name}", err, 1e-14,
                          constant=entry.value, expression=entry.expression))
    if out_dir:
        _write_csv(out_dir, "constants.csv", ["name", "value", "expression"],
                   [(e.name, repr(e.value), e.expression)
                    for e in table.entries.values()])
    return records, {"table": table.as_dict(), "text": table.text_table()}


def _run_integrand(inputs, seed, out_dir):
    integ = sch.build_integrand(inputs["integrand"])
    res = int(inputs.get("resolution", 17))
    rep = ig.analyze(integ, res)
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(1000, integ.dim))
    v /= np.linalg.norm(v, axis=1)[:, None]
    hom = float(np.abs(integ.value(2.0 * v) - 2.0 * integ.value(v)).max())
    euler = float(np.abs(np.einsum("pi,pi->p", integ.gradient(v), v)
                         - integ.value(v)).max())
    radial = float(np.abs(np.einsum("pde,pe->pd", integ.hessian(v), v)).max())
    w = v[0]
    fd_g = ig.fd_gradient(integ.value, w)
    fd_rel = float(np.abs(fd_g - integ.gradient(w)).max()
                   / max(1.0, np.abs(integ.gradient(w)).max()))
    records = [
        le("homogeneity residual", hom, 1e-12),
        le("Euler relation residual", euler, 1e-10),
        le("radial degeneracy residual", radial, 1e-8),
        le("finite-difference gradient (rel)", fd_rel, 1e-6),
        Check("phi positive on grid", rep.phi_min, 0.0, rep.phi_min > 0.0),
    ]
    return records, {"report": rep.as_dict(), "describe": integ.describe()}


def _run_variation(inputs, seed, out_dir):
    chart = sch.build_chart(inputs["chart"])
    integ = sch.build_integrand(inputs["integrand"])
    res = inputs.get("resolution", 21 if chart.n == 2 else 13)
    res = tuple(res) if isinstance(res, (list, tuple)) else int(res)
    tests = inputs.get("tests", ["first_variation"])
    g = geo.sample_chart(chart, res)
    records = []
    extras = {"phi_area": va.phi_area(g, integ)}
    if "first_variation" in tests or "second_variation" in tests:
        # one oracle: the checks share every resampled immersion
        oracle = va.NormalOracle(g, {b: va.bump_function(g, b) for b in va.BUMP_NAMES})
        hphi = va.aniso_mean_curvature(g, integ)
        kinds = ["first"] if "first_variation" in tests else []
        if "second_variation" in tests:
            if va.is_phi_stationary(g, integ, hphi=hphi):
                kinds.append("second")
            else:
                extras["second_variation"] = "skipped: chart is not phi-stationary"
        records += ac.variation_records(oracle, integ, hphi, kinds).values()
    if "vectorfield" in tests:
        resid, interior, boundary, stat = va.vectorfield_first_variation(
            g, integ, va.VectorField.position())
        if stat:
            tol = 1e-6 if float(np.abs(g.shape_op).max()) == 0.0 \
                else 1e-2 * max(1.0, abs(interior))
            records.append(le("vector-field identity residual", resid, tol,
                              interior=interior, boundary=boundary, stationary=True))
        else:
            records.append(Check("vector-field identity residual", resid, None, True,
                                 {"interior": interior, "boundary": boundary,
                                  "stationary": False,
                                  "warning": "chart is not phi-stationary; the "
                                             "identity is not expected to hold"}))
    if "isoperimetric" in tests:
        rho = float(inputs.get("rho", 0.0))
        if rho <= 0.0:
            rho = max(float(np.linalg.norm(f.X, axis=-1).max())
                      for f in geo.boundary_faces(g)) * (1 + 1e-12)
        chk = va.isoperimetric_check(g, integ, rho)
        records.append(ge("isoperimetric margin", chk.margin, 0.0, **chk.as_dict()))
    if "spectrum" in tests:
        rep = va.stability_spectrum(g, integ)
        records.append(Check("stability spectrum converged", rep.lambda_stab, None, True,
                             {"stable": rep.stable, "iterations": rep.iterations}))
        extras["lambda_stab"] = rep.lambda_stab
    if out_dir:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
        geo.export_csv(g, Path(out_dir) / "geometry.csv")
        extras["geometry_csv_columns"] = geo.CSV_COLUMNS_DOC
    return records, extras


def _run_conformal(inputs, seed, out_dir):
    chart = sch.build_chart(inputs["chart"])
    res = int(inputs.get("resolution", 21 if chart.n == 2 else 13))
    # the refinement companions below double a scalar resolution
    tests = inputs.get("tests", ["qform"])
    lam = float(inputs.get("lambda", 0.75 if chart.n == 3 else 0.0))
    g = geo.sample_chart(chart, res)
    cg = cf.deform(g)
    records = []
    if "qform" in tests:
        records.append(ac.qform_order_check(
            "qform identity refinement order",
            [cg, cf.deform(geo.sample_chart(chart, 2 * res - 1))], lam))
    if "laplace_r" in tests:
        records.append(ac.laplace_r_order_check(
            "radial Laplacian identity order", [g, geo.sample_chart(chart, 2 * res - 1)]))
    if "distance" in tests:
        records.append(ac.distance_margin_check("distance comparison worst margin",
                                                [chart], np.random.default_rng(seed),
                                                6, 10, 60))
    if "lambda1" in tests:
        est = cf.lambda1_estimate(cg, lambda_target=lam)
        integ_spec = inputs.get("integrand", {"kind": "isotropic", "dim": chart.dim})
        integ = sch.build_integrand(integ_spec)
        certified = (va.is_phi_stationary(g, integ)
                     and va.stability_spectrum(g, integ).lambda_stab >= -1e-10)
        if certified:
            records.append(ge("lambda1 estimate vs target", est.margin, -1e-3,
                              **est.as_dict()))
        else:
            records.append(Check("lambda1 estimate vs target", est.margin, None, True,
                                 {"warning": "chart is not a certified stable "
                                             "stationary piece; estimate reported only",
                                  **est.as_dict()}))
    return records, {}


def _run_mubble(inputs, seed, out_dir):
    spec = inputs.get("model", {"profile": "cylinder", "T": 20.0})
    model = mb.make_model(spec["profile"], T=float(spec.get("T", 20.0)),
                          params=spec.get("params"), lam=spec.get("lambda"),
                          n_grid=int(spec.get("n_grid", 4001)))
    eps = float(spec.get("eps", 0.1))
    amplitude = inputs.get("amplitude", "sqrt-lambda")
    records, prof, _ = ac.bubble_checks(model, eps, amplitude)
    if out_dir:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        curves = np.column_stack([model.t, model.f, model.u, model.R])
        np.savetxt(out / "model_profiles.dat", curves, header="t f u R")
        np.savetxt(out / "model_profiles.csv", curves, delimiter=",",
                   header="t,f,u,R", comments="")
        np.savetxt(out / "band_profiles.dat",
                   np.column_stack([prof.t, prof.phi, prof.h]),
                   header="t phi h")
    return records, {"model": model.as_dict(), "profiles": prof.as_dict()}


def _run_verify(inputs, seed, out_dir):
    suites = inputs.get("suites", list(sch.SUITES))
    samples = int(inputs.get("samples", 1_000_000))
    points = int(inputs.get("points", 10_000))
    grids = inputs.get("grids", [200, 200, 720])
    records = []
    extras = {}
    rows = []
    for suite in suites:
        if suite == "quadratic_lemma":
            rep = iq.verify_quadratic_lemma(*grids)
        elif suite == "curvature_pinch":
            rep = iq.verify_curvature_pinch(samples, seed=seed)
        elif suite == "ricci_bound":
            rep = iq.verify_ricci_bound(samples, seed=seed)
        elif suite == "kato":
            rep = iq.verify_kato(points, seed=seed)
        else:
            raise ValueError(f"unknown suite {suite!r}")
        extras[suite] = rep.extras
        records += [r.prefixed(f"{suite}: ") for r in rep.records]
        rows += [(suite, r.name, repr(r.value), repr(rep.tolerance), r.passed,
                  json.dumps(r.detail["config"], sort_keys=True)) for r in rep.records]
    if out_dir:
        _write_csv(out_dir, "margins.csv",
                   ["suite", "record", "margin", "tolerance", "pass", "config"], rows)
    return records, extras


def _run_all(inputs, seed, out_dir):
    records, runtimes = ac.run_all(seed=seed)
    return records, {"criteria_runtimes": runtimes}


_RUNNERS = {
    "constants": _run_constants,
    "integrand": _run_integrand,
    "variation": _run_variation,
    "conformal": _run_conformal,
    "mubble": _run_mubble,
    "verify": _run_verify,
    "all": _run_all,
}


def run(job, out_dir=None):
    """Validate and execute one job; returns the report dictionary."""
    errors = sch.validate_job(job)
    if errors:
        raise ValueError("invalid job:\n  " + "\n  ".join(errors))
    seed = int(job.get("seed", 1234))
    inputs = job.get("inputs", {})
    records, extras = _RUNNERS[job["command"]](inputs, seed, out_dir)
    report = {
        "job": job,
        "records": [r.as_dict() for r in records],
        "pass": all(r.passed for r in records),
        "extras": extras,
        "provenance": _provenance(seed, inputs.get("variant")),
    }
    if out_dir:
        _write_report(out_dir, report)
    return report


# -- argument parsing -------------------------------------------------------------


def _build_parser():
    p = argparse.ArgumentParser(
        prog="anisocheck",
        description="numerical checks for anisotropic minimal hypersurfaces")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--job", help="JSON job file (inputs or a full job object)")
        sp.add_argument("--seed", type=int, default=1234)
        sp.add_argument("--out", help="output directory for report.json and tables")

    for name in sch.COMMANDS:
        sp = sub.add_parser(name, help=f"run the {name} command")
        common(sp)
        if name == "constants":
            sp.add_argument("--variant", choices=["sqrt-lambda", "as-printed"],
                            default="sqrt-lambda")
        if name == "verify":
            sp.add_argument("--suite", action="append", choices=list(sch.SUITES),
                            help="repeatable; default: all suites")
            sp.add_argument("--samples", type=int, default=1_000_000)
    sp = sub.add_parser("run", help="dispatch a full job file")
    common(sp)
    sub.add_parser("schema", help="print the JSON job schema")
    return p


def _load_job(args):
    """Build the job from the arguments; raises ValueError (or OSError for an
    unreadable file) on bad input."""
    inputs = {}
    if args.job:
        data = json.loads(Path(args.job).read_text(encoding="utf-8"))
        if not isinstance(data, dict):
            raise ValueError("job file must hold a JSON object")
        if "command" in data:
            if args.command not in ("run", data["command"]):
                raise ValueError(
                    f"job file is a {data['command']!r} job; invoke it via "
                    f"'anisocheck run' or the matching subcommand")
            job = data
            job.setdefault("seed", args.seed)
            return job
        inputs = data
    if args.command == "run":
        raise ValueError("run needs --job pointing at a full job object")
    if args.command == "constants" and getattr(args, "variant", None):
        inputs.setdefault("variant", args.variant)
    if args.command == "verify":
        if getattr(args, "suite", None):
            inputs.setdefault("suites", args.suite)
        inputs.setdefault("samples", args.samples)
    return {"command": args.command, "seed": args.seed, "inputs": inputs}


def main(argv=None):
    args = _build_parser().parse_args(argv)
    if args.command == "schema":
        print(json.dumps(sch.JOB_SCHEMA, indent=2, sort_keys=True))
        return 0
    try:
        job = _load_job(args)
    except (OSError, ValueError) as exc:
        print(f"cannot load job: {exc}", file=sys.stderr)
        return 2
    try:
        report = run(job, out_dir=args.out)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    failed = [r for r in report["records"] if not r["pass"]]
    for rec in report["records"]:
        status = "PASS" if rec["pass"] else "FAIL"
        tol = rec["tolerance"]
        tol_txt = "info" if tol is None else f"{tol:.3g}"
        print(f"[{status}] {rec['name']}: value={rec['value']:.6g} tol={tol_txt}")
    if job["command"] == "constants" and "text" in report["extras"]:
        print(report["extras"]["text"])
    print(f"{len(report['records']) - len(failed)}/{len(report['records'])} checks passed")
    return 0 if report["pass"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
