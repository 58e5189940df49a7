"""Wall-clock spans around the public functions of each anisocheck layer.

The benchmark traces the package from outside: it replaces module
attributes such as ``geometry.sample_chart`` with timing wrappers and
puts the originals back afterwards.  Every caller in the package reaches
these functions through a module attribute (``geo.sample_chart``,
``spla.splu``) or through a module global looked up at call time, so one
replacement covers every call site and nothing under ``src/`` changes.

Each span accumulates ``calls``, ``total_s`` (wall time inside the call)
and ``self_s`` (``total_s`` minus the time of the spans it opened), plus
the work counters named in :data:`SPANS`.  The self times of all spans
and the pass time outside every span add up to the pass wall time.
"""

from __future__ import annotations

import functools
import importlib
import os
import time

import numpy as np


def _nodes(args, kwargs, result):
    return {"nodes": int(np.prod(result.shape))}


def _csv_bytes(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


def _points(args, kwargs, result):
    return {"points": int(result.sample_count)}


def _iterations(args, kwargs, result):
    return {"iterations": int(result[2])}


# (module name, attribute, work counter); the span is "<module>.<attribute>"
SPANS = [
    ("geometry", "sample_chart", _nodes),
    ("geometry", "geometry_from_positions", _nodes),
    ("geometry", "export_csv", _csv_bytes),
    ("variation", "first_variation_check", None),
    ("variation", "second_variation_check", None),
    ("variation", "second_variation_form", None),
    ("variation", "aniso_mean_curvature", None),
    ("variation", "assemble_forms", None),
    ("variation", "smallest_eigenpair", _iterations),
    ("variation", "stability_spectrum", None),
    ("inequalities", "verify_quadratic_lemma", _points),
    ("inequalities", "verify_curvature_pinch", _points),
    ("inequalities", "verify_ricci_bound", _points),
    ("inequalities", "verify_kato", _points),
    ("integrand", "analyze", None),
    ("integrand", "pinch_bounds", None),
    ("conformal", "deform", None),
    ("conformal", "qform_identity_check", None),
    ("conformal", "lambda1_estimate", None),
    ("mubble", "lambda1_sturm", None),
    ("mubble", "minimize_A", None),
    ("constants", "build_table", None),
    ("schema", "validate_job", None),
    ("cli", "run", None),
]


class Tracer:
    """Span statistics for one process; install, run, then restore."""

    def __init__(self):
        self.stats = {}
        self.top_s = 0.0        # summed wall time of spans opened outside any span
        self.overhead_s = 0.0   # time spent in the wrappers' own bookkeeping
        self._open = []         # child time accumulated by each open span
        self._patches = []

    def reset(self):
        self.stats = {}
        self.top_s = 0.0
        self.overhead_s = 0.0

    def wrap(self, owner, attr, name, count=None):
        """Replace ``owner.attr`` (or ``owner[attr]`` for a dict) by a span."""
        is_dict = isinstance(owner, dict)
        orig = owner[attr] if is_dict else getattr(owner, attr)

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            entered = time.perf_counter()
            self._open.append(0.0)
            t0 = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = self._open.pop()
                if self._open:
                    self._open[-1] += dt
                else:
                    self.top_s += dt
                st = self.stats.setdefault(name, {"calls": 0, "total_s": 0.0,
                                                  "self_s": 0.0})
                st["calls"] += 1
                st["total_s"] += dt
                st["self_s"] += dt - child
            if count is not None:
                for key, value in count(args, kwargs, result).items():
                    st[key] = st.get(key, 0) + value
            self.overhead_s += time.perf_counter() - entered - dt
            return result

        if is_dict:
            owner[attr] = traced
        else:
            setattr(owner, attr, traced)
        self._patches.append((owner, attr, orig, is_dict))

    def install(self):
        """Wrap every span of :data:`SPANS`, the acceptance criteria and the
        sparse LU factorization that ``variation`` calls."""
        for module, attr, count in SPANS:
            mod = importlib.import_module(f"anisocheck.{module}")
            self.wrap(mod, attr, f"{module}.{attr}", count)
        acceptance = importlib.import_module("anisocheck.acceptance")
        for crit in list(acceptance.CRITERIA):
            self.wrap(acceptance.CRITERIA, crit, f"acceptance.{crit}")
        variation = importlib.import_module("anisocheck.variation")
        self.wrap(variation.spla, "splu", "variation.splu")

    def restore(self):
        for owner, attr, orig, is_dict in reversed(self._patches):
            if is_dict:
                owner[attr] = orig
            else:
                setattr(owner, attr, orig)
        self._patches = []
