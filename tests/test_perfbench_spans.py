"""The benchmark traces the package by module attribute (perfbench/tracer.py)
and wraps the values of ``acceptance.CRITERIA``, so a rename of a traced
function, or a criterion that is not a callable with a runtime budget, must
fail here, not in the benchmark run."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # the dataclasses of run.py look it up
    spec.loader.exec_module(module)
    return module


def _spans():
    return _load("tracer").SPANS


def test_every_traced_attribute_resolves():
    spans = _spans()
    assert spans
    for module, attr, _ in spans:
        mod = importlib.import_module(f"anisocheck.{module}")
        assert callable(getattr(mod, attr, None)), f"anisocheck.{module}.{attr}"
    variation = importlib.import_module("anisocheck.variation")
    assert callable(variation.spla.splu)


def test_every_criterion_is_callable_with_a_runtime_budget():
    acceptance = importlib.import_module("anisocheck.acceptance")
    assert acceptance.CRITERIA
    for name, fn in acceptance.CRITERIA.items():
        assert callable(fn), f"acceptance.CRITERIA[{name!r}]"
        assert acceptance.RUNTIME_BUDGETS.get(name, 0.0) > 0.0, name
    assert set(acceptance.RUNTIME_BUDGETS) == set(acceptance.CRITERIA)


def test_traced_spectra_models_count_one_solve_per_model():
    # the spectra workload reports mubble.lambda1_sturm.calls and
    # mubble.minimize_A.calls; a call that bypasses the module attribute
    # would read 0 there
    cli = importlib.import_module("anisocheck.cli")
    run = _load("run")
    jobs = [job for job in run.spectra_jobs(1) if job["command"] == "mubble"]
    assert len(jobs) == 4
    tracer = _load("tracer").Tracer()
    tracer.install()
    try:
        for job in jobs:
            if run.known_defect(job):
                with pytest.raises(cli.InvalidJob):
                    cli.run(job)
            else:
                assert cli.run(job)["pass"]
    finally:
        tracer.restore()
    assert tracer.stats["mubble.lambda1_sturm"]["calls"] == 4
    assert tracer.stats["mubble.minimize_A"]["calls"] == 3
