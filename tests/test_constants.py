import json
import math
from pathlib import Path

import pytest

from anisocheck import acceptance as ac
from anisocheck import cli
from anisocheck import constants as co

JOBS = Path(__file__).resolve().parents[1] / "jobs"

SQRT2 = math.sqrt(2.0)


def test_spectral_lambda_pinched_case_closed_form():
    lam = co.spectral_lambda(3, 1.0 / SQRT2, co.C0)
    assert lam == pytest.approx(3 * (5 + 3 * SQRT2) / 56, rel=1e-14)
    assert lam == pytest.approx(0.495, abs=5e-4)


def test_spectral_lambda_minimal_case_via_pipeline():
    assert co.spectral_lambda(3, 1.0, 1.0) == pytest.approx(0.75, abs=0.0)
    # general n: lambda = n(n-2)/4 when Lambda = 1, c0 = 1
    assert co.spectral_lambda(4, 1.0, 1.0) == pytest.approx(2.0, abs=0.0)


def test_spectral_lambda_domain():
    with pytest.raises(ValueError):
        co.spectral_lambda(3, 0.5, 1.0)
    with pytest.raises(ValueError):
        co.spectral_lambda(3, 0.4, 1.09)
    # a legal but unhelpful combination produces a negative constant
    assert co.spectral_lambda(3, 0.51, 1.09) < 0.0


def test_c0_and_beta_cross_check():
    table = co.build_table()
    c0, beta = table.value("c0"), table.value("beta")
    assert c0 == pytest.approx(1.0 / (SQRT2 - 0.5), rel=1e-15)
    assert abs(c0 - 1.09) < 5e-3
    assert beta == pytest.approx(4 * (1 / SQRT2 - 0.5) / (3 * (c0 - 1)), rel=1e-14)
    assert co.BETA == pytest.approx(beta, rel=1e-15)
    lam = co.spectral_lambda(3, 1.0 / SQRT2, c0)
    assert 1.5 * (0.5 - 0.5 / beta) == pytest.approx(lam, rel=1e-14)


def test_quadratic_lemma_intermediate_identity():
    assert 1.0 - (1.5 - SQRT2) == pytest.approx(SQRT2 - 0.5, rel=1e-15)


def test_remark_constants_relations():
    table = co.build_table(SQRT2, 1.0)
    lam, V0, V1 = (table.value(k) for k in ("lambda", "V0[sqrt-lambda]", "V1"))
    assert table.value("Q") == pytest.approx(math.exp(7 * math.pi / math.sqrt(lam)),
                                             rel=1e-13)
    assert table.value("rho0") == pytest.approx(math.exp(-5 * math.pi / math.sqrt(lam)),
                                                rel=1e-13)
    assert V1 == pytest.approx(8 * SQRT2 * math.pi / (3 * lam), rel=1e-13)
    assert V1 / V0 == pytest.approx(math.exp(-15 * math.pi / math.sqrt(lam)), rel=1e-12)
    # 15 pi / lambda exceeds 15 pi / sqrt(lambda)
    assert table.value("V0[as-printed]") > V0


def test_remark_constants_monotonicity():
    table, more_c1 = co.build_table(SQRT2, 1.0), co.build_table(1.5 * SQRT2, 1.0)
    for name in ("V0[sqrt-lambda]", "V0[as-printed]", "V1"):
        assert more_c1.value(name) > table.value(name)
    for name in ("Q", "rho0"):
        assert more_c1.value(name) == table.value(name)


def test_remark_constants_validation():
    with pytest.raises(ValueError):
        co.build_table(0.5, 1.0)
    with pytest.raises(ValueError):
        co.build_table(SQRT2, 1.0, variant="bogus")


@pytest.mark.parametrize("variant, alternate", [("sqrt-lambda", "as-printed"),
                                                ("as-printed", "sqrt-lambda")])
def test_table_order_puts_the_selected_variant_first(variant, alternate):
    table = co.build_table(variant=variant)
    assert list(table.entries) == [
        "c0", "beta", "lambda", "lambda_closed_form", "Q", "rho0", f"V0[{variant}]",
        f"V0[{alternate}]", "V1", "lambda_min_case", "area_bound_min_case",
        "diameter_bound_min_case", "rho0_min_case", "volume_coefficient",
        "local_volume_coefficient"]
    assert table.entries[f"V0[{variant}]"].description.endswith("(selected)")
    assert table.entries[f"V0[{alternate}]"].description.endswith("(alternate)")


def test_minimal_case_table_consistency():
    mc = co.build_table()
    assert mc.value("area_bound_min_case") == pytest.approx(32 * math.pi / 3,
                                                            rel=1e-14)
    assert mc.value("diameter_bound_min_case") == pytest.approx(
        4 * math.pi / math.sqrt(3.0), rel=1e-14)
    assert mc.value("rho0_min_case") == pytest.approx(
        math.exp(-10 * math.pi / math.sqrt(3.0)), rel=1e-14)
    vol = (32 * math.pi / 3) ** 1.5 * math.exp(30 * math.pi / math.sqrt(3.0)) \
        / (6 * math.sqrt(math.pi))
    assert mc.value("volume_coefficient") == pytest.approx(vol, rel=1e-14)
    assert mc.value("local_volume_coefficient") == pytest.approx(
        (32 * math.pi / 3) ** 1.5 / (6 * math.sqrt(math.pi)), rel=1e-14)
    # 5 pi / sqrt(3/4) = 10 pi / sqrt(3)
    assert 5 * math.pi / math.sqrt(0.75) == pytest.approx(
        10 * math.pi / math.sqrt(3.0), rel=1e-15)


def test_isotropic_entries_keep_their_double_route():
    entry = co.build_table().entries["area_bound_min_case"]
    assert entry.value_double == 8 * math.pi / 0.75


def test_every_entry_rederives_via_extended_precision():
    table = co.build_table()
    for entry in table.entries.values():
        assert entry.value == float(co.eval_expression(entry.expression)), entry.name
        assert abs(entry.value_double - entry.value) <= ac.DOUBLE_ROUTE_TOL * abs(entry.value)


def test_table_add_stores_a_disagreeing_route():
    table = co.ConstantsTable()
    table.add("two", "2", 3.0)
    assert (table.value("two"), table.entries["two"].value_double) == (2.0, 3.0)


def _run_constants_job(tmp_path):
    """Exit code of ``anisocheck run`` on the shipped constants job and the
    names of its failed records."""
    code = cli.main(["run", "--job", str(JOBS / "constants.json"), "--out", str(tmp_path)])
    report = json.loads((tmp_path / "report.json").read_text())
    return code, [r["name"] for r in report["records"] if not r["pass"]]


def test_mutated_expression_fails_its_double_route(monkeypatch, tmp_path):
    monkeypatch.setattr(co, "LAMBDA_CLOSED_EXPR", "3*(5 + 3*sqrt(2))/56*(1 + 1e-9)")
    assert _run_constants_job(tmp_path) == (1, ["double route lambda_closed_form (rel)"])


def test_mutated_double_route_fails_its_record(monkeypatch, tmp_path):
    monkeypatch.setattr(co, "BETA", co.BETA * (1 + 1e-12))
    code, failed = _run_constants_job(tmp_path)
    assert code == 1 and "double route beta (rel)" in failed


def test_expression_evaluator_is_restricted():
    assert float(co.eval_expression("sqrt(2)")) == pytest.approx(SQRT2, rel=1e-15)
    with pytest.raises(Exception):
        co.eval_expression("__import__('os')")


def test_table_text_renders_all_rows():
    table = co.build_table()
    text = table.text_table()
    assert len(text.splitlines()) == 1 + len(table.entries)
    assert "lambda" in text
