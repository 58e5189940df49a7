import numpy as np
import pytest

from anisocheck import inequalities as iq

SQRT2 = np.sqrt(2.0)


def test_c0_closed_form():
    assert iq.C0 == pytest.approx(1.0 / (SQRT2 - 0.5), abs=1e-15)
    assert abs(iq.C0 - 1.09) < 5e-3
    assert 1.0 / (1.0 - iq.C1_MAX) == pytest.approx(iq.C0, abs=1e-15)


def test_quadratic_lemma_equal_coefficients():
    # alpha = beta = 1 means Q1 = Q2 + (k1 + k2 - k1 - k2)^2 ... margin is
    # (c0 - 1) Q2 > 0 on the whole circle
    for theta in np.linspace(0.0, 2 * np.pi, 37):
        m1, m2, ratio = iq.quadratic_lemma_point(1.0, 1.0, theta)
        assert m1 > 0.0
        assert ratio <= iq.C0


def test_quadratic_lemma_sweep_small():
    rep = iq.verify_quadratic_lemma(50, 50, 180)
    assert rep.passed
    assert rep.worst_margin >= -1e-10
    assert rep.extras["q2_nonpositive_count"] == 0
    assert rep.extras["max_ratio_q1_q2"] <= iq.C0 + 1e-12


def test_quadratic_lemma_argmin_reproducible():
    rep = iq.verify_quadratic_lemma(50, 50, 180)
    for rec in rep.records[:2]:
        cfg = rec.detail["config"]
        m1, m2, _ = iq.quadratic_lemma_point(cfg["alpha"], cfg["beta"], cfg["theta"])
        stored = rec.value
        recomputed = m1 if "c0*Q2" in rec.name else m2
        assert abs(recomputed - stored) <= 1e-14


def test_quadratic_lemma_symmetries():
    rng = np.random.default_rng(9)
    for _ in range(100):
        a = 2**-0.5 + rng.random() * (1 - 2**-0.5)
        b = a + rng.random() * (1 - a)
        th = rng.random() * 2 * np.pi
        m1, m2, _ = iq.quadratic_lemma_point(a, b, th)
        m1f, m2f, _ = iq.quadratic_lemma_point(a, b, th + np.pi)  # (k1,k2) -> -(k1,k2)
        assert m1f == pytest.approx(m1, abs=1e-13)
        assert m2f == pytest.approx(m2, abs=1e-13)
        # simultaneous scaling of the coefficient triple leaves margins fixed
        s = 0.5 + rng.random()
        m1s, m2s, _ = iq.quadratic_lemma_point_from_a(s * a, s * b, s * 1.0, th)
        assert m1s == pytest.approx(m1, abs=1e-12)
        assert m2s == pytest.approx(m2, abs=1e-12)


def test_quadratic_lemma_resolution_stability():
    worst_a = iq.verify_quadratic_lemma(50, 50, 180).worst_margin
    worst_b = iq.verify_quadratic_lemma(100, 100, 360).worst_margin
    assert abs(worst_a - worst_b) <= 1e-3


def test_curvature_pinch_minimal_witness():
    # all coefficients equal: the constraint is sum k = 0, so -R = |A|^2 = 1
    mr, m2, A2, cons = iq.curvature_pinch_point([1.0, 1.0, 1.0], 0.7)
    assert cons <= 1e-15
    assert mr == pytest.approx(1.0, abs=1e-12)
    assert A2 == pytest.approx(1.0, abs=1e-12)
    assert m2 == pytest.approx(iq.C0 - 1.0, abs=1e-12)
    k = np.array([1.0, 1.0, -2.0]) / np.sqrt(6.0)
    s = k.sum()
    assert abs(s) <= 1e-15 and (s * s - k @ k) == pytest.approx(-1.0, abs=1e-14)


def test_curvature_pinch_sweep():
    rep = iq.verify_curvature_pinch(100_000, seed=77)
    assert rep.passed
    assert rep.extras["max_constraint_residual"] <= 1e-12
    assert rep.extras["near_sharp"]
    assert rep.extras["max_ratio_A2_over_negR"] <= iq.C0 + 1e-12
    assert rep.extras["max_ratio_A2_over_negR"] >= iq.C0 - 0.05


def test_ricci_equality_witness_and_sweep():
    k = np.array([-SQRT2, 1.0, 1.0]) / 2.0
    assert np.linalg.norm(k) == pytest.approx(1.0, abs=1e-15)
    assert iq.ricci_point(k, [1.0, 0.0, 0.0]) == pytest.approx(0.0, abs=1e-14)
    assert iq.ricci_point([1 / np.sqrt(3)] * 3, [0.0, 1.0, 0.0]) > 0.5
    rep = iq.verify_ricci_bound(100_000, seed=77)
    assert rep.passed and rep.worst_margin >= -1e-10


def test_kato_catalog():
    rep = iq.verify_kato(5_000, seed=77)
    assert rep.passed
    assert iq.kato_point("linear_x", [0.2, 0.3, 0.4]) == pytest.approx(0.0, abs=1e-15)
    assert iq.kato_point("xy", [0.9, -0.4, 0.1]) == pytest.approx(0.5, abs=1e-14)
    assert iq.kato_point("x2_minus_y2", [0.5, 0.5, 0.0]) == pytest.approx(2.0, abs=1e-13)
    assert iq.kato_point("xy", [0.0, 0.0, 0.3]) is None  # critical point skipped


def test_curvature_and_ricci_argmin_reproducible():
    crep = iq.verify_curvature_pinch(50_000, seed=42)
    for rec in crep.records:
        cfg = rec.detail["config"]
        if "a" not in cfg:
            continue
        mr, m2, _, _ = iq.curvature_pinch_point(cfg["a"], cfg["psi"])
        stored = rec.value
        recomputed = mr if rec.name.startswith("-R") else m2
        assert abs(recomputed - stored) <= 1e-14, rec.name
    rrep = iq.verify_ricci_bound(50_000, seed=42)
    for rec in rrep.records:
        cfg = rec.detail["config"]
        margin = iq.ricci_point(cfg["k"], cfg["y"])
        assert abs(margin - rec.value) <= 1e-14, rec.name
    krep = iq.verify_kato(2_000, seed=42)
    for rec in krep.records:
        cfg = rec.detail["config"]
        margin = iq.kato_point(cfg["poly"], cfg["point"])
        assert abs(margin - rec.value) <= 1e-14, rec.name


def test_sweeps_deterministic_under_seed():
    a = iq.verify_curvature_pinch(50_000, seed=123)
    b = iq.verify_curvature_pinch(50_000, seed=123)
    for ra, rb in zip(a.records, b.records):
        assert ra.value == rb.value and ra.detail == rb.detail
    c = iq.verify_ricci_bound(50_000, seed=124)
    d = iq.verify_ricci_bound(50_000, seed=124)
    assert [r.value for r in c.records] == [r.value for r in d.records]


def test_seed_changes_margins_but_not_verdicts():
    a = iq.verify_ricci_bound(50_000, seed=1)
    b = iq.verify_ricci_bound(50_000, seed=2)
    assert a.passed and b.passed
    assert abs(a.worst_margin - b.worst_margin) <= 1e-3


def test_halton_deterministic_and_in_unit_cube():
    pts = iq.halton(1000, 4)
    assert pts.shape == (1000, 4)
    assert pts.min() >= 0.0 and pts.max() < 1.0
    assert np.array_equal(pts, iq.halton(1000, 4))
