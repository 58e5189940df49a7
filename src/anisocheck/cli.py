"""Batch CLI: JSON jobs in, machine-readable reports out.

Subcommands mirror the job commands (constants, integrand, variation,
conformal, mubble, verify, all) plus ``schema`` to print the job format
and ``run`` to dispatch a job file directly.  Reports are deterministic
for a fixed seed: report.json (sorted keys, no timestamps), CSV tables
of the constants and sweep margins, and .npz archives of sampled geometry
and bubble profiles.  The exit status is 0 exactly when every recorded
check passes, 1 when a check fails, 2 when the job is invalid or cannot
be read and 3 when a runner raises (an internal error, reported in one
line on stderr).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
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
from .checks import ladder


def _write_csv(out_dir, name, header, rows):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / name, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


class InvalidJob(ValueError):
    """The job is invalid input: it fails `schema.validate_job`, or its
    runner finds that the chart or model it describes cannot be run.  The
    message lists each error with its JSON pointer."""


def _invalid(pointer, message):
    return InvalidJob(f"invalid job:\n  {pointer}: {message}")


@contextlib.contextmanager
def _chart_domain():
    """Turn the ValueError of sampling the job's chart (`geometry.ImmersionError`)
    or of deforming it (`conformal.deform`'s radial floor) into an invalid job."""
    try:
        yield
    except ValueError as exc:
        raise _invalid("/inputs/chart", exc) from exc


def _bump_room(g):
    """Raise an invalid job where a non-periodic axis of the sampled chart
    ``g`` has too few nodes for the bumps of `variation.bump_function`."""
    if any(m < va.BUMP_NODES for m, per in zip(g.shape, g.periodic) if not per):
        raise _invalid("/inputs/resolution", f"the variation bumps need at least "
                       f"{va.BUMP_NODES} nodes on each non-periodic axis")


# -- command runners: each gets the inputs of `schema.resolve_inputs` ----------------


def _run_constants(inputs, seed, out_dir):
    table = co.build_table(c1_norm=float(inputs["c1_norm"]),
                           phi_min=float(inputs["phi_min"]), variant=inputs["variant"])
    if out_dir:
        _write_csv(out_dir, "constants.csv", ["name", "value", "expression"],
                   [(e.name, repr(e.value), e.expression)
                    for e in table.entries.values()])
    return ac.constants_checks(table), {"table": table.as_dict(), "text": table.text_table()}


def _run_integrand(inputs, seed, out_dir):
    integ = sch.build_integrand(inputs["integrand"])
    rep = ig.analyze(integ, int(inputs["resolution"]))
    records = ac.integrand_checks(integ, rep, np.random.default_rng(seed))
    return records, {"report": rep.as_dict(), "describe": integ.describe()}


def _run_variation(inputs, seed, out_dir):
    chart = sch.build_chart(inputs["chart"])
    integ = sch.build_integrand(inputs["integrand"])
    res = inputs["resolution"]
    res = tuple(res) if isinstance(res, list) else int(res)
    tests = inputs["tests"]
    with _chart_domain():
        g = geo.sample_chart(chart, res)
    records = []
    extras = {"phi_area": va.phi_area(g, integ)}
    if "first_variation" in tests or "second_variation" in tests:
        _bump_room(g)
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
        records.append(ac.vectorfield_identity_check(
            "vector-field identity residual", g, integ, va.VectorField(np.eye(g.dim))))
    if "isoperimetric" in tests:
        rho = float(inputs["rho"])
        if rho <= 0.0:
            rho = max((float(np.linalg.norm(f.X, axis=-1).max())
                       for f in geo.boundary_faces(g)), default=0.0) * (1 + 1e-12)
        records.append(ac.isoperimetric_margin_check("isoperimetric margin", g, integ, rho))
    if "spectrum" in tests:
        spec = va.stability_spectrum(g, integ)
        records.append(ac.spectrum_converged_check(spec))
        extras["lambda_stab"] = spec.eigenvalue
    if out_dir:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
        geo.export_csv(g, Path(out_dir) / "geometry.npz")
        extras["geometry_arrays"] = list(geo.export_arrays(g))
    return records, extras


def _run_conformal(inputs, seed, out_dir):
    chart = sch.build_chart(inputs["chart"])
    res = int(inputs["resolution"])
    tests = set(inputs["tests"])
    lam = float(inputs["lambda"])
    with _chart_domain():
        if tests & {"qform", "laplace_r", "lambda1"}:
            g = geo.sample_chart(chart, res)
            cg = cf.deform(g)
        if tests & {"qform", "laplace_r"}:
            # the refinement companion halves the step of a scalar resolution
            fine = geo.sample_chart(chart, ladder(res, 2)[-1])
            cfine = cf.deform(fine)
    records = []
    if "qform" in tests:
        _bump_room(g)
        records.append(ac.qform_order_check(
            "qform identity refinement order", [cg, cfine], lam))
    if "laplace_r" in tests:
        records.append(ac.laplace_r_order_check(
            "radial Laplacian identity order", [g, fine]))
    if "distance" in tests:
        records.append(ac.distance_margin_check("distance comparison worst margin",
                                                [chart], np.random.default_rng(seed),
                                                6, 10, 60))
    if "lambda1" in tests:
        records.append(ac.lambda1_target_check("lambda1 estimate vs target", cg,
                                               sch.build_integrand(inputs["integrand"]),
                                               lam))
    return records, {}


def _run_mubble(inputs, seed, out_dir):
    spec = inputs["model"]
    params = spec.get("params") or {}
    try:
        model = mb.make_model(spec["profile"], T=float(spec["T"]), params=params,
                              lam=spec.get("lambda"), n_grid=int(spec["n_grid"]))
    except mb.ProfileError as exc:
        scale = mb.SCALE_PARAM.get(spec["profile"])
        at = f"params/{scale}" if scale in params else "T"
        raise _invalid(f"/inputs/model/{at}", exc) from exc
    # lambda defaults to the model's lambda_1, known only after the solve
    if model.lam <= 0.0:
        raise _invalid("/inputs/model", f"lambda_1 = {model.lam:.6g} must be > 0 to set "
                       "the band of the phi profile")
    eps = float(spec["eps"])
    t_end = mb.band_end(model.lam, eps)
    if model.T < t_end:
        raise _invalid("/inputs/model/T", f"must be >= 4 pi/sqrt(lambda) + 2 eps = "
                       f"{t_end:.4f} for lambda = {model.lam:.6g}, to hold the band of "
                       "the phi profile")
    amplitude = inputs["amplitude"]
    prof = mb.build_phi_h(model, eps, amplitude)
    with np.errstate(over="ignore"):    # an overflow is the error reported below
        if not np.all(np.isfinite(np.square(prof.h))):
            raise _invalid("/inputs/model" if isinstance(amplitude, str) else
                           "/inputs/amplitude", "h = -amplitude tan(phi) squares past "
                           f"the float range on the band at lambda = {model.lam:.6g}")
    records, _ = ac.bubble_checks(model, prof)
    if out_dir:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        np.savez(out / "model_profiles.npz", t=model.t, f=model.f, u=model.u, R=model.R)
        np.savez(out / "band_profiles.npz", t=prof.t, phi=prof.phi, h=prof.h)
    return records, {"model": model.as_dict(), "profiles": prof.as_dict()}


def _run_verify(inputs, seed, out_dir):
    records, extras = ac.sweep_checks(inputs["suites"], seed, inputs["samples"],
                                      inputs["points"], inputs["grids"])
    if out_dir:
        _write_csv(out_dir, "margins.csv",
                   ["suite", "record", "margin", "tolerance", "pass", "config"],
                   [(*r.name.split(": ", 1), repr(r.value), repr(r.tolerance), r.passed,
                     json.dumps(r.detail.get("config", {}), sort_keys=True))
                    for r in records])
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
    """Validate and execute one job; returns the report dictionary.  Raises
    InvalidJob for an invalid job."""
    errors = sch.validate_job(job)
    if errors:
        raise InvalidJob("invalid job:\n  " + "\n  ".join(errors))
    seed = int(job.get("seed", iq.SEED))
    records, extras = _RUNNERS[job["command"]](sch.resolve_inputs(job), seed, out_dir)
    provenance = {"tool": "anisocheck", "version": __version__, "seed": seed}
    if job.get("inputs", {}).get("variant") is not None:    # as the job gives it
        provenance["variant"] = job["inputs"]["variant"]
    report = {
        "job": job,
        "records": [r.as_dict() for r in records],
        "pass": all(r.passed for r in records),
        "extras": extras,
        "provenance": provenance,
    }
    if out_dir:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
        Path(out_dir, "report.json").write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return report


# -- argument parsing -------------------------------------------------------------


def _build_parser():
    p = argparse.ArgumentParser(
        prog="anisocheck",
        description="numerical checks for anisotropic minimal hypersurfaces")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--job", help="JSON job file (inputs or a full job object)")
        sp.add_argument("--seed", type=int, default=iq.SEED)
        sp.add_argument("--out", help="output directory for report.json and tables")

    for name in sch.COMMANDS:
        sp = sub.add_parser(name, help=f"run the {name} command")
        common(sp)
        if name == "constants":
            sp.add_argument("--variant", choices=co.VARIANTS,
                            default=sch.DEFAULTS["constants"]["variant"])
        if name == "verify":
            sp.add_argument("--suite", action="append", choices=list(sch.SUITES),
                            help="repeatable; default: all suites")
            sp.add_argument("--samples", type=int, default=sch.DEFAULTS["verify"]["samples"])
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
    except InvalidJob as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except Exception as exc:  # a runner fault, never "a check failed" (exit 1)
        msg = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {msg}", file=sys.stderr)
        return 3
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
