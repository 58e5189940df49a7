"""JSON job schema: validation and object builders for the CLI.

A job is one JSON object

    {"command": <name>, "seed": <int>, "inputs": {...}}

with command-specific inputs.  ``JOB_SCHEMA`` is the one description of
the format: ``anisocheck schema`` prints it, and ``validate_job`` walks
it, then checks the few rules that relate one value to another.  Each
error string is prefixed with the JSON pointer of the offending value.
"""

from __future__ import annotations

import copy
import math
import operator
import sys

import numpy as np

from . import conformal as cf
from . import constants as co
from . import geometry as geo
from . import inequalities as iq
from . import integrand as ig
from . import mubble as mb
from .checks import ladder

COMMANDS = ("constants", "integrand", "variation", "conformal", "mubble",
            "verify", "all")
SUITES = ("quadratic_lemma", "curvature_pinch", "ricci_bound", "kato")
#: largest ``samples`` (and Kato ``points``) of a verify job: the sweeps
#: stream their samples in blocks, so memory stays constant (4-10 MiB) and
#: time grows linearly, about 0.15 s per 10^6 curvature or Ricci samples
MAX_SAMPLES = 10_000_000
#: largest grid product n_alpha * n_beta * n_angle of the quadratic-lemma
#: sweep: about 3.5 times the default 200 x 200 x 720.  Its memory is
#: constant in the grid (blocks of rows, floors in chunks), and its time is
#: one floors evaluation per (alpha, beta) row plus the rows that survive
MAX_GRID_POINTS = 100_000_000
#: largest grid a variation or conformal job samples: r^n nodes for a
#: resolution r, the product of a resolution list, (2r - 1)^n for the
#: refinement companion of the conformal qform/laplace_r tests.  At the cap
#: (50^3) a catenoid_3 variation job with first/second variation and
#: spectrum peaks at 722 MiB RSS in 22 s on a 2-core x86-64 machine
MAX_NODES = 125_000
#: largest sphere grid the integrand command analyzes: m^dim - (m - 2)^dim
#: nodes for a resolution r, m = r | 1.  Near the cap (dim 6, r = 8: 413 792
#: nodes) the analysis of a perturbed integrand peaks at 815 MiB RSS in
#: 8-10 s on a 2-core x86-64 machine (an isotropic one at 420 MiB)
MAX_SPHERE_NODES = 500_000
#: largest integrand ambient dimension: dim 7 exceeds MAX_SPHERE_NODES at
#: the smallest resolution, 8
MAX_DIM = 6
#: largest integrand resolution: r = 290 exceeds MAX_SPHERE_NODES at dim 3
MAX_SPHERE_RESOLUTION = 289
#: largest mubble ``n_grid``: the solve runs at n_grid and 2 n_grid - 1
#: nodes; a funnel job at the cap peaks at 388 MiB RSS in 4-5 s on the
#: machine above (1.3 GiB in 60 s at 4 * 10^6 + 1, when the cap was set)
MAX_N_GRID = 1_000_000
#: the range of a Clifford cone's T, the log of its annulus s in [1, e^T].
#: From T = 177.8 the quartics of s (det g = s^4 / 4) overflow a double, and
#: below T = 3e-16 the s-step vanishes in the rounding of s = 1; at 1e-15 a
#: first-variation record already reads rounding noise.  Cone jobs at both
#: ends of this range exit 0 or 1 at every resolution
CONE_T_RANGE = (1e-3, 100.0)
#: the chart class of each kind and the keys its constructor reads
CHARTS = {
    "hyperplane": (geo.Hyperplane, ("n", "offset", "box", "polar")),
    "sphere": (geo.Sphere, ("n", "radius", "center", "box")),
    "cylinder": (geo.Cylinder, ("n", "link_radius", "z_range", "theta_range")),
    "catenoid_2": (geo.Catenoid2, ("scale", "s_range")),
    "catenoid_3": (geo.Catenoid3, ("scale", "t_range", "theta_range")),
    "graph": (geo.Graph, ("n", "height", "amplitude", "offset", "box")),
    "cone": (geo.ConePatch, ("n", "link_ratio", "s_range", "theta_range")),
    "clifford_cone": (geo.CliffordCone, ("T",)),
}


# -- the schema ---------------------------------------------------------------------

POSITIVE = {"type": "number", "minimum": 1e-12}
INTERVAL = {"type": "array", "format": "interval", "minItems": 2, "maxItems": 2,
            "items": {"type": "number"}, "description": "[lo, hi] with lo < hi"}
RESOLUTION = {"type": "integer", "minimum": 8}


def _list_of(*values):
    return {"type": "array", "items": {"enum": list(values)}}


def _when(key, value, then):
    """draft-07 conditional: apply ``then`` where ``key`` equals ``value``."""
    return {"if": {"required": [key], "properties": {key: {"const": value}}},
            "then": then}


INTEGRAND = {
    "type": "object",
    "required": ["kind"],
    "properties": {
        "kind": {"enum": ["isotropic", "quadratic", "perturbed"]},
        "dim": {"type": "integer", "minimum": 3, "maximum": MAX_DIM,
                "description": "ambient dimension"},
        "scale": {"not": {}, "description": "absent: the area integrand scaled by c is the "
                                            "quadratic integrand with matrix c^2 I"},
        "matrix": {"type": "array", "format": "spd-matrix", "minItems": 3,
                   "maxItems": MAX_DIM,
                   "items": {"type": "array", "items": {"type": "number"}},
                   "description": "symmetric positive definite; its size is the "
                                  "ambient dimension"},
        "epsilon": {"type": "number", "minimum": -1.0, "maximum": 1.0},
        "profile": {"enum": sorted(ig.PROFILES)},
    },
    "allOf": [_when("kind", "quadratic", {"required": ["matrix"]}),
              _when("kind", "perturbed", {"required": ["profile"]})],
}

CHART = {
    "type": "object",
    "required": ["kind"],
    "properties": {
        "kind": {"enum": list(CHARTS)},
        "n": {"type": "integer", "enum": [2, 3],
              "description": "default 2 for catenoid_2, else 3"},
        "offset": {"type": "number"},
        **{key: POSITIVE for key in ("radius", "scale", "link_radius", "amplitude")},
        "link_ratio": {"type": "number", "minimum": 1e-6, "maximum": 1 - 1e-6},
        "polar": {"type": "boolean"},
        "height": {"enum": list(geo.HEIGHTS)},
        "center": {"type": "array", "items": {"type": "number"},
                   "description": "n + 1 numbers"},
        **{key: INTERVAL for key in ("theta_range", "z_range", "s_range", "t_range")},
        "box": {"type": "array", "items": INTERVAL, "description": "n intervals"},
        "T": {"type": "number", "minimum": CONE_T_RANGE[0], "maximum": CONE_T_RANGE[1],
              "description": "clifford_cone: the annulus s in [1, e^T]"},
    },
    "allOf": [_when("kind", "catenoid_2", {"properties": {"n": {"const": 2}}}),
              *(_when("kind", kind, {"properties": {"n": {"const": 3}}})
                for kind in ("catenoid_3", "clifford_cone"))],
}

MODEL = {
    "type": "object",
    "required": ["profile"],
    "properties": {
        "profile": {"enum": list(mb.PROFILES)},
        "T": {"type": "number", "minimum": 1e-6,
              "description": "T >= 4 pi/sqrt(lambda) + 2 eps, checked by the runner"},
        "params": {"type": "object",
                   "properties": {"rate": {"type": "number"},
                                  "amplitude": {"type": "number", "exclusiveMinimum": -1,
                                                "exclusiveMaximum": 1},
                                  "period": {"type": "number", "exclusiveMinimum": 0}}},
        "lambda": {"type": "number", "exclusiveMinimum": 0,
                   "description": "default: lambda_1 of the model (3 for round_cap)"},
        "eps": {"type": "number", "minimum": 1e-9, "maximum": 0.5 - 1e-9},
        "n_grid": {"type": "integer", "minimum": 3, "maximum": MAX_N_GRID},
    },
    # a round cap ends at its second pole, T = pi; the default T is 20
    "allOf": [_when("profile", "round_cap",
                    {"required": ["T"], "properties": {"T": {"maximum": mb.ROUND_CAP_END}}})],
}

INPUTS = {
    "constants": {"properties": {"variant": {"enum": list(co.VARIANTS)},
                                 "c1_norm": POSITIVE, "phi_min": POSITIVE}},
    "integrand": {"required": ["integrand"],
                  "properties": {"integrand": INTEGRAND,
                                 "resolution": {**RESOLUTION,
                                                "maximum": MAX_SPHERE_RESOLUTION}}},
    "variation": {
        "required": ["chart", "integrand"],
        "properties": {
            "chart": CHART, "integrand": INTEGRAND,
            "resolution": {"anyOf": [RESOLUTION, {"type": "array", "minItems": 1,
                                                  "items": RESOLUTION}],
                           "description": "an integer >= 8 or a list of n of them"},
            "tests": _list_of("first_variation", "second_variation", "vectorfield",
                              "isoperimetric", "spectrum"),
            "rho": {"type": "number", "minimum": 0},
        },
    },
    "conformal": {"required": ["chart"],
                  "properties": {"chart": CHART, "integrand": INTEGRAND,
                                 "resolution": RESOLUTION,
                                 "tests": _list_of("qform", "laplace_r", "distance", "lambda1"),
                                 "lambda": {"type": "number"}}},
    "mubble": {"required": ["model"],
               "properties": {"model": MODEL,
                              "amplitude": {"anyOf": [{"enum": ["sqrt-lambda", "half"]},
                                                      {"type": "number"}],
                                            "description": "'sqrt-lambda', 'half' "
                                                           "or a number"}}},
    "verify": {"properties": {
        "suites": _list_of(*SUITES),
        "samples": {"type": "integer", "minimum": 1000, "maximum": MAX_SAMPLES},
        "points": {"type": "integer", "minimum": 1, "maximum": MAX_SAMPLES,
                   "description": "Kato sample points"},
        "grids": {"type": "array", "minItems": 3, "maxItems": 3,
                  "items": {"type": "integer", "minimum": 2, "maximum": MAX_GRID_POINTS},
                  "description": "[n_alpha, n_beta, n_angle] of the quadratic-lemma "
                                 f"sweep, product <= {MAX_GRID_POINTS}"},
    }},
    "all": {},
}


JOB_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "anisocheck job",
    "description": "variation and conformal jobs also need box = n intervals, "
                   "center = n + 1 numbers, a resolution list of n entries, an "
                   "integrand of ambient dimension n + 1 and a largest sampled "
                   f"grid of at most {MAX_NODES} nodes; the sphere grid of an "
                   f"integrand job holds at most {MAX_SPHERE_NODES} nodes",
    "type": "object",
    "required": ["command"],
    "properties": {
        "command": {"enum": list(COMMANDS)},
        "seed": {"type": "integer", "minimum": 0},
        "out": {"type": "string"},
        "inputs": {"type": "object"},
    },
    # inputs that require a key must be present themselves
    "allOf": [_when("command", cmd, {"required": ["inputs"] if "required" in inputs else [],
                                     "properties": {"inputs": inputs}})
              for cmd, inputs in INPUTS.items()],
}


# -- validation ---------------------------------------------------------------------


def _is_type(value, name):
    if isinstance(value, bool):
        return name == "boolean"
    if name == "number":        # finite as a float
        return (isinstance(value, (int, float))
                and -sys.float_info.max <= value <= sys.float_info.max)
    return isinstance(value, {"integer": int, "string": str, "boolean": bool,
                              "array": list, "object": dict}[name])


def _interval(iv):
    if not (len(iv) == 2 and all(_is_type(x, "number") for x in iv) and iv[0] < iv[1]):
        return "must be a pair of numbers [lo, hi] with lo < hi"


def _spd_matrix(m):
    if not (m and all(isinstance(row, list) and len(row) == len(m)
                      and all(_is_type(x, "number") for x in row) for row in m)):
        return "must be a square matrix of numbers"
    a = np.array(m, dtype=float)
    if not ig.is_symmetric(a):
        return "must be symmetric"
    try:    # the factorization `integrand.Integrand.quadratic` builds
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return "must be positive definite"


_TYPE_NAMES = {"integer": "an integer", "number": "a finite number", "string": "a string",
               "boolean": "a boolean", "array": "an array", "object": "an object"}
#: the ``format`` checks JSON-Schema cannot state: the error of a bad value, else None
FORMATS = {"interval": _interval, "spd-matrix": _spd_matrix}
_BOUNDS = (("minimum", operator.lt, ">="), ("maximum", operator.gt, "<="),
           ("exclusiveMinimum", operator.le, ">"), ("exclusiveMaximum", operator.ge, "<"))


def _walk(schema, value, path=""):
    """Errors of ``value`` (at JSON pointer ``path``) against the draft-07
    keywords of ``schema``.  A failed ``type`` or ``format`` ends the walk
    of that value, so it is reported once."""
    errors = []

    def fail(msg):
        errors.append(f"{path or '/'}: {msg}")

    name = schema.get("type")
    msg = (f"must be {_TYPE_NAMES[name]}" if name and not _is_type(value, name)
           else schema.get("format") and FORMATS[schema["format"]](value))
    if msg:
        fail(msg)
        return errors
    if "enum" in schema and value not in schema["enum"]:
        fail(f"must be one of {schema['enum']}")
    if "const" in schema and value != schema["const"]:
        fail(f"must be {schema['const']!r}")
    if isinstance(value, (int, float)) and not isinstance(value, bool):   # exact for big ints
        for key, violates, rule in _BOUNDS:
            if key in schema and violates(value, schema[key]):
                fail(f"must be {rule} {schema[key]}")
    if isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            fail(f"must hold at least {schema['minItems']} items")
        if len(value) > schema.get("maxItems", len(value)):
            fail(f"must hold at most {schema['maxItems']} items")
        for i, item in enumerate(value if "items" in schema else ()):
            errors += _walk(schema["items"], item, f"{path}/{i}")
    if isinstance(value, dict):
        errors += [f"{path}/{key}: is required"
                   for key in schema.get("required", ()) if key not in value]
        for key, sub in schema.get("properties", {}).items():
            if key in value:
                errors += _walk(sub, value[key], f"{path}/{key}")
    if ("anyOf" in schema and all(_walk(sub, value, path) for sub in schema["anyOf"])
            or "not" in schema and not _walk(schema["not"], value, path)):
        fail(f"must be {schema['description']}")
    if "if" in schema and not _walk(schema["if"], value, path):
        errors += _walk(schema["then"], value, path)
    for sub in schema.get("allOf", ()):
        errors += _walk(sub, value, path)
    return errors


def _rules(job):
    """The rules of a schema-valid job that relate one value to another,
    checked on its resolved inputs."""
    cmd, inputs = job["command"], resolve_inputs(job)
    if cmd == "verify" and math.prod(inputs["grids"]) > MAX_GRID_POINTS:
        return [f"/inputs/grids: grid product must be <= {MAX_GRID_POINTS}"]
    if cmd == "integrand":
        dim, m = inputs["integrand"]["dim"], inputs["resolution"] | 1
        nodes = m**dim - (m - 2)**dim
        if nodes > MAX_SPHERE_NODES:
            return [f"/inputs/resolution: sphere grid of {nodes} nodes in dimension "
                    f"{dim}, more than MAX_SPHERE_NODES = {MAX_SPHERE_NODES}"]
    if cmd == "constants":
        c1, phi = float(inputs["c1_norm"]), float(inputs["phi_min"])
        key = "c1_norm" if "c1_norm" in job.get("inputs", {}) else "phi_min"
        if c1 < phi:
            return [f"/inputs/{key}: c1_norm = {c1!r} must be >= phi_min = {phi!r}"]
        if not all(math.isfinite(co.v0_double(v, c1 / phi)) for v in co.VARIANTS):
            return [f"/inputs/{key}: V0 overflows a double at c1_norm / phi_min = "
                    f"{c1 / phi:.3g}"]
    if cmd not in ("variation", "conformal"):
        return []
    chart, spec, n = inputs["chart"], inputs["integrand"], inputs["chart"]["n"]
    errors = [f"/inputs/chart/{key}: must hold {size} {what} for n = {n}"
              for key, size, what in (("box", n, "intervals"), ("center", n + 1, "numbers"))
              if key in chart and len(chart[key]) != size]
    if spec["dim"] != n + 1:
        key = "matrix" if spec["kind"] == "quadratic" else "dim"
        errors.append(f"/inputs/integrand/{key}: ambient dimension {spec['dim']} must be "
                      f"n + 1 = {n + 1} for the chart")
    res = inputs["resolution"]
    if isinstance(res, list):
        if len(res) != n:
            errors.append(f"/inputs/resolution: must hold n = {n} entries")
        nodes = math.prod(res)
    elif cmd == "conformal" and {"qform", "laplace_r"} & set(inputs["tests"]):
        nodes = ladder(res, 2)[-1] ** n
    else:
        nodes = res ** n
    if nodes > MAX_NODES:
        errors.append(f"/inputs/resolution: samples {nodes} nodes, more than "
                      f"MAX_NODES = {MAX_NODES}")
    return errors


def validate_job(job):
    """Full job validation; returns a list of '<json-pointer>: message'."""
    return _walk(JOB_SCHEMA, job) or _rules(job)


# -- defaults -----------------------------------------------------------------------

#: the default of each optional input that no other input decides
DEFAULTS = {
    "constants": {"variant": co.VARIANTS[0], "c1_norm": co.C1_NORM, "phi_min": co.PHI_MIN},
    "integrand": {"resolution": ig.SPHERE_RESOLUTION},
    "variation": {"tests": ["first_variation"], "rho": 0.0},
    "conformal": {"tests": ["qform"]},
    "mubble": {"amplitude": mb.AMPLITUDE},
    "verify": {"suites": list(SUITES), "samples": iq.SAMPLES, "points": iq.KATO_POINTS,
               "grids": list(iq.GRIDS)},
    "all": {},
}
#: a model's defaults; its lambda defaults to its lambda_1, known after the solve
MODEL_DEFAULTS = {"T": 20.0, "eps": mb.EPS, "n_grid": mb.N_GRID}
#: the default resolution of a variation or conformal chart by its n
CHART_RESOLUTION = {2: 21, 3: 13}


def resolve_inputs(job):
    """The inputs of a valid job with every default filled in, in new dicts
    (the job stays as given).  A chart's n (2 for catenoid_2, else 3) sets
    the default resolution and, in a conformal job, the default isotropic
    integrand and lambda; an integrand's dim defaults to 4."""
    cmd = job["command"]
    named = INPUTS[cmd].get("properties", {})      # a key the schema ignores stays as given
    inputs = {**copy.deepcopy(DEFAULTS[cmd]), **job.get("inputs", {})}
    if "model" in named:
        inputs["model"] = {**MODEL_DEFAULTS, **inputs["model"]}
    if "chart" in named:
        chart = inputs["chart"]
        n = chart.get("n", 2 if chart["kind"] == "catenoid_2" else 3)
        inputs["chart"] = {**chart, "n": n}
        inputs.setdefault("resolution", CHART_RESOLUTION[n])
        if cmd == "conformal":
            inputs.setdefault("integrand", {"kind": "isotropic", "dim": n + 1})
            inputs.setdefault("lambda", cf.LAMBDA_TARGET[n])
    if "integrand" in named:
        spec = inputs["integrand"]
        dim = len(spec["matrix"]) if spec["kind"] == "quadratic" else spec.get("dim", 4)
        inputs["integrand"] = {**spec, "dim": dim}
    return inputs


# -- builders -----------------------------------------------------------------------


def build_integrand(spec):
    """The integrand of a resolved spec (see `resolve_inputs`)."""
    kind = spec["kind"]
    dim = int(spec["dim"])
    if kind == "isotropic":
        return ig.Integrand.isotropic(dim)
    if kind == "quadratic":
        return ig.Integrand.quadratic(np.asarray(spec["matrix"], dtype=float))
    return ig.Integrand.perturbed(dim, float(spec.get("epsilon", 0.0)), spec["profile"])


def build_chart(spec):
    cls, keys = CHARTS[spec["kind"]]
    return cls(**{key: spec[key] for key in keys if key in spec})
