"""JSON job schema: validation and object builders for the CLI.

A job is one JSON object

    {"command": <name>, "seed": <int>, "inputs": {...}}

with command-specific inputs.  ``validate_job`` returns a list of error
strings, each prefixed with the JSON-pointer path of the offending value,
and ``emit_schema`` prints a JSON-Schema document describing the format.
"""

from __future__ import annotations

import numpy as np

from . import geometry as geo
from . import integrand as ig
from . import mubble as mb

COMMANDS = ("constants", "integrand", "variation", "conformal", "mubble",
            "verify", "all")
SUITES = ("quadratic_lemma", "curvature_pinch", "ricci_bound", "kato")
VARIATION_TESTS = ("first_variation", "second_variation", "vectorfield",
                   "isoperimetric", "spectrum")
CONFORMAL_TESTS = ("qform", "laplace_r", "distance", "lambda1")
CHART_KINDS = ("hyperplane", "sphere", "cylinder", "catenoid_2", "catenoid_3",
               "graph", "cone")
PROFILES = ("cylinder", "funnel", "bulge", "round_cap")
#: chart keys holding one parameter interval [lo, hi]
RANGE_KEYS = ("theta_range", "z_range", "s_range", "t_range")
#: largest ``samples`` (and Kato ``points``) of a verify job: memory and
#: time grow linearly in it, about 75 MB and 0.2 s per 10^6 curvature samples
MAX_SAMPLES = 10_000_000
#: largest grid product n_alpha * n_beta * n_angle of the quadratic-lemma
#: sweep: about 3.5 times the default 200 x 200 x 720
MAX_GRID_POINTS = 100_000_000


def _err(path, msg):
    return f"{path}: {msg}"


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


_INTERVAL_RULE = "must be a pair of numbers [lo, hi] with lo < hi"


def _is_interval(iv):
    return (isinstance(iv, list) and len(iv) == 2
            and all(_is_number(x) for x in iv) and iv[0] < iv[1])


def _check_number(errors, path, value, lo=None, hi=None):
    if not _is_number(value):
        errors.append(_err(path, "must be a number"))
        return False
    if lo is not None and value < lo:
        errors.append(_err(path, f"must be >= {lo}"))
        return False
    if hi is not None and value > hi:
        errors.append(_err(path, f"must be <= {hi}"))
        return False
    return True


def validate_integrand(spec, path="/inputs/integrand"):
    errors = []
    if not isinstance(spec, dict):
        return [_err(path, "must be an object")]
    kind = spec.get("kind")
    if kind not in ("isotropic", "quadratic", "perturbed"):
        errors.append(_err(f"{path}/kind",
                           "must be one of isotropic, quadratic, perturbed"))
        return errors
    dim = spec.get("dim", 4)
    if not isinstance(dim, int) or dim < 3:
        errors.append(_err(f"{path}/dim", "must be an integer >= 3"))
    if kind == "quadratic":
        m = spec.get("matrix")
        if m is None:
            errors.append(_err(f"{path}/matrix", "required for quadratic integrands"))
        else:
            arr = np.asarray(m, dtype=float) if _is_matrix(m) else None
            if arr is None or arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
                errors.append(_err(f"{path}/matrix", "must be a square matrix"))
            elif not np.allclose(arr, arr.T, atol=1e-12):
                errors.append(_err(f"{path}/matrix", "must be symmetric"))
            elif np.min(np.linalg.eigvalsh(arr)) <= 0:
                errors.append(_err(f"{path}/matrix", "must be positive definite"))
    if kind == "perturbed":
        if spec.get("profile") not in ig.profile_names():
            errors.append(_err(f"{path}/profile",
                               f"must be one of {ig.profile_names()}"))
        _check_number(errors, f"{path}/epsilon", spec.get("epsilon", 0.0), lo=-1.0, hi=1.0)
    return errors


def _is_matrix(m):
    return (isinstance(m, list) and m
            and all(isinstance(row, list) and len(row) == len(m) for row in m)
            and all(isinstance(x, (int, float)) for row in m for x in row))


def build_integrand(spec):
    kind = spec["kind"]
    dim = int(spec.get("dim", 4))
    if kind == "isotropic":
        return ig.Integrand.isotropic(dim, scale=float(spec.get("scale", 1.0)))
    if kind == "quadratic":
        return ig.Integrand.quadratic(np.asarray(spec["matrix"], dtype=float))
    return ig.Integrand.perturbed(dim, float(spec.get("epsilon", 0.0)), spec["profile"])


def validate_chart(spec, path="/inputs/chart"):
    errors = []
    if not isinstance(spec, dict):
        return [_err(path, "must be an object")]
    kind = spec.get("kind")
    if kind not in CHART_KINDS:
        errors.append(_err(f"{path}/kind", f"must be one of {CHART_KINDS}"))
        return errors
    n = spec.get("n", 2 if kind == "catenoid_2" else 3)
    if kind == "catenoid_2" and n != 2:
        errors.append(_err(f"{path}/n", "catenoid_2 is a surface (n = 2)"))
    if kind == "catenoid_3" and n != 3:
        errors.append(_err(f"{path}/n", "catenoid_3 needs n = 3"))
    if not isinstance(n, int) or n not in (2, 3):
        errors.append(_err(f"{path}/n", "must be 2 or 3"))
    for key in ("radius", "scale", "link_radius", "amplitude"):
        if key in spec:
            _check_number(errors, f"{path}/{key}", spec[key], lo=1e-12)
    if kind == "cone":
        _check_number(errors, f"{path}/link_ratio", spec.get("link_ratio", 0.8),
                      lo=1e-6, hi=1 - 1e-6)
    if "offset" in spec:
        _check_number(errors, f"{path}/offset", spec["offset"])
    errors += [_err(f"{path}/{key}", _INTERVAL_RULE) for key in RANGE_KEYS
               if key in spec and not _is_interval(spec[key])]
    if "center" in spec and n in (2, 3):
        c = spec["center"]
        if not (isinstance(c, list) and len(c) == n + 1 and all(_is_number(x) for x in c)):
            errors.append(_err(f"{path}/center", f"must be a list of n + 1 = {n + 1} numbers"))
    if "box" in spec and n in (2, 3):
        errors += _validate_box(spec["box"], n, f"{path}/box")
    return errors


def _validate_box(box, n, path):
    """One [lo, hi] interval with lo < hi per chart parameter."""
    if not isinstance(box, list) or len(box) != n:
        return [_err(path, f"must be a list of n = {n} intervals [lo, hi]")]
    return [_err(f"{path}/{i}", _INTERVAL_RULE)
            for i, iv in enumerate(box) if not _is_interval(iv)]


def build_chart(spec):
    kind = spec["kind"]
    n = int(spec.get("n", 3))
    if kind == "hyperplane":
        return geo.Hyperplane(n, offset=float(spec.get("offset", 1.0)),
                              box=spec.get("box"), polar=bool(spec.get("polar", False)))
    if kind == "sphere":
        return geo.Sphere(n, radius=float(spec.get("radius", 1.0)),
                          center=spec.get("center"), box=spec.get("box"))
    if kind == "cylinder":
        return geo.Cylinder(n, link_radius=float(spec.get("link_radius", 1.0)),
                            z_range=tuple(spec.get("z_range", (-1.0, 1.0))),
                            theta_range=spec.get("theta_range"))
    if kind == "catenoid_2":
        return geo.Catenoid2(scale=float(spec.get("scale", 1.0)),
                             s_range=tuple(spec.get("s_range", (-1.0, 1.0))))
    if kind == "catenoid_3":
        return geo.Catenoid3(scale=float(spec.get("scale", 1.0)),
                             t_range=tuple(spec.get("t_range", (-0.8, 0.8))),
                             theta_range=spec.get("theta_range"))
    if kind == "graph":
        return geo.Graph(n, spec.get("height", "paraboloid"),
                         amplitude=float(spec.get("amplitude", 0.5)),
                         offset=float(spec.get("offset", 1.0)), box=spec.get("box"))
    if kind == "cone":
        return geo.ConePatch(n, link_ratio=float(spec.get("link_ratio", 0.8)),
                             s_range=tuple(spec.get("s_range", (0.5, 1.5))),
                             theta_range=spec.get("theta_range"))
    raise ValueError(f"unknown chart kind {kind!r}")


def _validate_resolution(inputs, scalar_only=False):
    if "resolution" not in inputs:
        return []
    res = inputs["resolution"]
    if isinstance(res, int) and not isinstance(res, bool) and res >= 8:
        return []
    if (not scalar_only and isinstance(res, list) and res
            and all(isinstance(m, int) and m >= 8 for m in res)):
        return []
    kind = "an integer" if scalar_only else "an integer or list of integers"
    return [_err("/inputs/resolution", f"must be {kind} >= 8")]


def _is_int(value, lo, hi):
    return (isinstance(value, int) and not isinstance(value, bool)
            and lo <= value <= hi)


def _validate_grids(grids, path="/inputs/grids"):
    """Exactly three grid sizes n_alpha, n_beta, n_angle >= 2 whose product
    is at most MAX_GRID_POINTS."""
    if not isinstance(grids, list) or len(grids) != 3:
        return [_err(path, "must be a list of 3 integers [n_alpha, n_beta, n_angle]")]
    errors = [_err(f"{path}/{i}", f"must be an integer in [2, {MAX_GRID_POINTS}]")
              for i, n in enumerate(grids) if not _is_int(n, 2, MAX_GRID_POINTS)]
    if not errors and grids[0] * grids[1] * grids[2] > MAX_GRID_POINTS:
        errors.append(_err(path, f"grid product must be <= {MAX_GRID_POINTS}"))
    return errors


def _validate_model(model, path="/inputs/model"):
    """Model fields that can be checked without solving for lambda_1; the
    band length T >= 4 pi/sqrt(lambda) + 2 eps is checked by the runner."""
    errors = []
    profile = model.get("profile")
    if profile not in PROFILES:
        errors.append(_err(f"{path}/profile", f"must be one of {PROFILES}"))
    if _check_number(errors, f"{path}/T", model.get("T", 20.0), lo=1e-6) \
            and profile == "round_cap" and model.get("T", 20.0) > mb.ROUND_CAP_END:
        errors.append(_err(f"{path}/T", "must be <= pi: a round cap ends at its "
                                        "second pole, T = pi"))
    if "eps" in model:
        _check_number(errors, f"{path}/eps", model["eps"], lo=1e-9, hi=0.5 - 1e-9)
    lam = model.get("lambda")
    if lam is not None and not (_is_number(lam) and lam > 0):
        errors.append(_err(f"{path}/lambda", "must be a number > 0"))
    return errors


def validate_job(job):
    """Full job validation; returns a list of '<json-pointer>: message'."""
    errors = []
    if not isinstance(job, dict):
        return ["/: job must be a JSON object"]
    cmd = job.get("command")
    if cmd not in COMMANDS:
        errors.append(_err("/command", f"must be one of {COMMANDS}"))
        return errors
    seed = job.get("seed", 1234)
    if not isinstance(seed, int) or isinstance(seed, bool):
        errors.append(_err("/seed", "must be an integer"))
    inputs = job.get("inputs", {})
    if not isinstance(inputs, dict):
        errors.append(_err("/inputs", "must be an object"))
        return errors
    if cmd == "constants":
        if inputs.get("variant", "sqrt-lambda") not in ("sqrt-lambda", "as-printed"):
            errors.append(_err("/inputs/variant",
                               "must be 'sqrt-lambda' or 'as-printed'"))
        for key in ("c1_norm", "phi_min"):
            if key in inputs:
                _check_number(errors, f"/inputs/{key}", inputs[key], lo=1e-12)
    elif cmd == "integrand":
        errors += validate_integrand(inputs.get("integrand", {}))
        errors += _validate_resolution(inputs, scalar_only=True)
    elif cmd == "variation":
        errors += validate_chart(inputs.get("chart", {}))
        errors += validate_integrand(inputs.get("integrand", {}))
        errors += _validate_resolution(inputs)
        for i, t in enumerate(inputs.get("tests", [])):
            if t not in VARIATION_TESTS:
                errors.append(_err(f"/inputs/tests/{i}",
                                   f"must be one of {VARIATION_TESTS}"))
    elif cmd == "conformal":
        errors += validate_chart(inputs.get("chart", {}))
        for i, t in enumerate(inputs.get("tests", [])):
            if t not in CONFORMAL_TESTS:
                errors.append(_err(f"/inputs/tests/{i}",
                                   f"must be one of {CONFORMAL_TESTS}"))
    elif cmd == "mubble":
        model = inputs.get("model", {})
        if not isinstance(model, dict):
            errors.append(_err("/inputs/model", "must be an object"))
        else:
            errors += _validate_model(model)
    elif cmd == "verify":
        for i, s in enumerate(inputs.get("suites", list(SUITES))):
            if s not in SUITES:
                errors.append(_err(f"/inputs/suites/{i}", f"must be one of {SUITES}"))
        for key, lo in (("samples", 1000), ("points", 1)):
            if key in inputs and not _is_int(inputs[key], lo, MAX_SAMPLES):
                errors.append(_err(f"/inputs/{key}",
                                   f"must be an integer in [{lo}, {MAX_SAMPLES}]"))
        if "grids" in inputs:
            errors += _validate_grids(inputs["grids"])
    return errors


JOB_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "anisocheck job",
    "type": "object",
    "required": ["command"],
    "properties": {
        "command": {"enum": list(COMMANDS)},
        "seed": {"type": "integer"},
        "out": {"type": "string"},
        "inputs": {
            "type": "object",
            "properties": {
                "variant": {"enum": ["sqrt-lambda", "as-printed"]},
                "c1_norm": {"type": "number", "exclusiveMinimum": 0},
                "phi_min": {"type": "number", "exclusiveMinimum": 0},
                "resolution": {
                    "oneOf": [{"type": "integer", "minimum": 8},
                              {"type": "array",
                               "items": {"type": "integer", "minimum": 8}}]},
                "suites": {"type": "array", "items": {"enum": list(SUITES)}},
                "samples": {"type": "integer", "minimum": 1000,
                            "maximum": MAX_SAMPLES},
                "points": {"type": "integer", "minimum": 1, "maximum": MAX_SAMPLES,
                           "description": "Kato sample points"},
                "grids": {"type": "array", "minItems": 3, "maxItems": 3,
                          "items": {"type": "integer", "minimum": 2},
                          "description": "[n_alpha, n_beta, n_angle] of the "
                                         "quadratic-lemma sweep, product <= "
                                         f"{MAX_GRID_POINTS}"},
                "tests": {"type": "array"},
                "integrand": {
                    "type": "object",
                    "required": ["kind"],
                    "properties": {
                        "kind": {"enum": ["isotropic", "quadratic", "perturbed"]},
                        "dim": {"type": "integer", "minimum": 3},
                        "matrix": {"type": "array",
                                   "items": {"type": "array",
                                             "items": {"type": "number"}},
                                   "description": "symmetric positive definite"},
                        "epsilon": {"type": "number"},
                        "profile": {"enum": list(ig.profile_names())},
                    },
                },
                "chart": {
                    "type": "object",
                    "required": ["kind"],
                    "properties": {
                        "kind": {"enum": list(CHART_KINDS)},
                        "n": {"enum": [2, 3]},
                        "offset": {"type": "number"},
                        "radius": {"type": "number", "exclusiveMinimum": 0},
                        "center": {"type": "array", "minItems": 3, "maxItems": 4,
                                   "description": "n + 1 numbers",
                                   "items": {"type": "number"}},
                        "scale": {"type": "number", "exclusiveMinimum": 0},
                        "link_radius": {"type": "number", "exclusiveMinimum": 0},
                        "link_ratio": {"type": "number",
                                       "exclusiveMinimum": 0, "exclusiveMaximum": 1},
                        "polar": {"type": "boolean"},
                        **{key: {"type": "array", "minItems": 2, "maxItems": 2,
                                 "description": "[lo, hi] with lo < hi",
                                 "items": {"type": "number"}} for key in RANGE_KEYS},
                        "box": {"type": "array",
                                "description": "n intervals [lo, hi] with lo < hi",
                                "items": {"type": "array", "minItems": 2,
                                          "maxItems": 2,
                                          "items": {"type": "number"}}},
                    },
                },
                "model": {
                    "type": "object",
                    "required": ["profile"],
                    "properties": {
                        "profile": {"enum": list(PROFILES)},
                        "T": {"type": "number", "exclusiveMinimum": 0,
                              "description": "T >= 4 pi/sqrt(lambda) + 2 eps; "
                                             "round_cap: T <= pi"},
                        "params": {"type": "object"},
                        "lambda": {"type": "number", "exclusiveMinimum": 0,
                                   "description": "default: lambda_1 of the model "
                                                  "(3 for round_cap)"},
                        "eps": {"type": "number",
                                "exclusiveMinimum": 0, "exclusiveMaximum": 0.5},
                        "amplitude": {}},
                },
            },
        },
    },
}
