"""The benchmark traces the package by module attribute (perfbench/tracer.py)
and wraps the values of ``acceptance.CRITERIA``, so a rename of a traced
function, or a criterion that is not a callable with a runtime budget, must
fail here, not in the benchmark run."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.SPANS


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
