import ast
import math
from pathlib import Path

import pytest

import anisocheck
from anisocheck.checks import ORDER_MIN, Check, ge, ladder, le, order_check


def test_check_as_dict_keys():
    assert Check("a", 1.0, 2.0, True).as_dict() == {
        "name": "a", "value": 1.0, "tolerance": 2.0, "pass": True}
    d = le("b", 3.0, 2.0, where="x").as_dict()
    assert d == {"name": "b", "value": 3.0, "tolerance": 2.0, "pass": False,
                 "detail": {"where": "x"}}
    assert Check("c", 0.5, None, True).as_dict()["tolerance"] is None


def test_le_ge_boundaries_and_detail_names():
    assert le("x", 1e-10, 1e-10).passed and not le("x", 2e-10, 1e-10).passed
    assert ge("x", -1e-10, -1e-10).passed and not ge("x", -2e-10, -1e-10).passed
    assert not le("x", math.nan, 1.0).passed
    # detail entries may reuse the constructor's parameter names
    rec = ge("x", 1.0, 0.0, bound=5.0, value=7.0, tolerance=3.0)
    assert rec.tolerance == 0.0 and rec.detail == {"bound": 5.0, "value": 7.0,
                                                   "tolerance": 3.0}


def test_prefixed_keeps_everything_but_the_name():
    rec = ge("m", 1.0, 0.0, config={"a": 1})
    out = rec.prefixed("suite: ")
    assert out.name == "suite: m" and rec.name == "m"
    assert (out.value, out.tolerance, out.passed, out.detail) == (
        rec.value, rec.tolerance, rec.passed, rec.detail)


def order(coarse, fine, zero):
    return order_check("o", [coarse, fine], zero).value


def test_refinement_order_is_inf_at_or_below_zero():
    assert order(1e-3, 1e-11, 1e-11) == math.inf
    assert order(1e-3, 5e-12, 1e-11) == math.inf
    assert order(1e-3, 0.0, 1e-12) == math.inf
    assert math.isfinite(order(1e-3, 2e-11, 1e-11))


def test_ladder_halves_the_step():
    assert ladder(13, 1) == (13,)
    assert ladder(13, 3) == (13, 25, 49)
    assert ladder(17, 2) == (17, 33)


def test_refinement_order_exact_log2_and_zero_guard():
    assert order(8e-4, 1e-4, 1e-12) == 3.0
    assert order(1e-4, 4e-4, 1e-12) == -2.0
    # a vanishing coarse discrepancy is clamped at 1e-300 instead of log2(0)
    assert order(0.0, 1e-6, 1e-12) == pytest.approx(math.log2(1e-294), rel=1e-15)
    # the order is taken on the finest pair, and the detail keeps every level
    rec = order_check("o", [1.0, 8e-4, 1e-4], 1e-12, stationary=True)
    assert (rec.name, rec.value, rec.tolerance, rec.passed) == ("o", 3.0, ORDER_MIN, True)
    assert rec.detail == {"discrepancies": [1.0, 8e-4, 1e-4], "stationary": True}


def test_order_waiver_at_its_floor():
    def passed(coarse, rel=None, floor=None):
        return order_check("o", [coarse, 1.0], 0.0, rel, floor).passed

    # the smallest coarse discrepancy whose order over 1.0 reaches ORDER_MIN
    at = 2.0**ORDER_MIN
    while math.log2(at) < ORDER_MIN:
        at = math.nextafter(at, math.inf)
    while math.log2(math.nextafter(at, 0.0)) >= ORDER_MIN:
        at = math.nextafter(at, 0.0)
    below = math.nextafter(at, 0.0)
    assert passed(at, 1.0, 1e-4)
    assert not passed(below, 1.0, 1e-4)
    assert passed(below, 1e-4, 1e-4)
    assert not passed(below, math.nextafter(1e-4, 1.0), 1e-4)
    assert not passed(below, 0.0)    # no waiver without a floor
    assert order_check("o", [1.0, 0.0], 0.0, 1.0, 1e-4).passed    # inf order


#: the modules that build check records: the record itself, the criteria
#: and the builders every runner shares, and the sweeps' own -TOL records
RECORD_MODULES = {"checks", "acceptance", "inequalities"}


def record_modules(package_dir):
    """Stems of the modules in ``package_dir`` that call Check, le, ge or
    order_check."""
    out = set()
    for path in Path(package_dir).glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                if name in ("Check", "le", "ge", "order_check"):
                    out.add(path.stem)
    return out


def test_only_acceptance_and_the_sweeps_build_records(tmp_path):
    assert record_modules(Path(anisocheck.__file__).parent) == RECORD_MODULES
    (tmp_path / "runner.py").write_text("from . import checks as ch\n\n\n"
                                        "def run(x):\n    return [ch.le('x', x, 1.0)]\n")
    (tmp_path / "numerics.py").write_text("def le(a, b):\n    return a <= b\n")
    assert record_modules(tmp_path) == {"runner"}
