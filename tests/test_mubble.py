import math

import numpy as np
import pytest

from anisocheck import acceptance as ac
from anisocheck import constants as co
from anisocheck import integrand as ig
from anisocheck import mubble as mb

CONCLUSIONS = ("boundary area margin", "diameter margin", "containment margin",
               "minimality certificate")


def _conclusions_pass(model, prof):
    """The four conclusion records of `acceptance.bubble_checks` all pass."""
    records, _ = ac.bubble_checks(model, prof)
    concl = [r for r in records if r.name in CONCLUSIONS]
    return len(concl) == len(CONCLUSIONS) and all(r.passed for r in concl)


def test_cylinder_spectrum_closed_form():
    # f = 1: R = 2 and the ground state is constant, so lambda1 = R/2 = 1
    lam1, t, u, *_ = mb.lambda1_sturm(mb.PROFILES["cylinder"]({}), 20.0, 2001)
    assert lam1 == pytest.approx(1.0, abs=1e-9)
    assert np.ptp(u) <= 1e-10


def test_round_cap_spectrum_closed_form():
    # f = sin t: R = 6 everywhere (round 3-sphere); constant ground state
    lam1, _, u, *_ = mb.lambda1_sturm(mb.PROFILES["round_cap"]({}), 2.0, 2001)
    assert lam1 == pytest.approx(3.0, abs=1e-8)
    assert np.ptp(u) <= 1e-9


def test_round_cap_spectrum_from_the_pole():
    # the grid starts on the pole f(0) = 0: R takes its limit 6 there and
    # the massless pole node follows its neighbour
    for T in (1.0, 2.0, 3.0):
        lam1, t, u, *_ = mb.lambda1_sturm(mb.PROFILES["round_cap"]({}), T)
        assert t[0] == 0.0
        assert lam1 == pytest.approx(3.0, abs=1e-6), T
        assert np.ptp(u) <= 1e-9, T
    model = mb.make_model("round_cap", 3.0)
    assert np.all(np.isfinite(model.R)) and model.R[0] == 6.0
    assert mb.supersolution_residual(model) <= 1e-6


@pytest.mark.parametrize("name,params", [
    *((name, {}) for name in mb.PROFILES),
    ("funnel", {"rate": 0.37}),
    ("bulge", {"amplitude": -0.3, "period": 5.0}),
])
def test_profile_derivatives_match_finite_differences(name, params):
    # f', f'' and f''' are written by hand; each must be the derivative of
    # the one below it (f''' enters R only at a pole)
    profile = mb.PROFILES[name](params)
    t = np.linspace(0.3, 2.7, 9)
    derivs = profile(t)
    for k in range(3):
        fd = ig.fd_gradient(lambda v: profile(v[..., 0])[k], t[:, None])[:, 0]
        assert np.allclose(fd, derivs[k + 1], rtol=1e-8, atol=1e-10), (name, k + 1)


def test_make_model_evaluates_its_profile_once(monkeypatch):
    evaluated, solved = [], []
    funnel = mb.PROFILES["funnel"]

    def counted(params):
        profile = funnel(params)
        return lambda t: evaluated.append(np.shape(t)) or profile(t)

    lambda1_sturm = mb.lambda1_sturm
    monkeypatch.setitem(mb.PROFILES, "funnel", counted)
    monkeypatch.setattr(mb, "lambda1_sturm",
                        lambda *a, **kw: solved.append(a) or lambda1_sturm(*a, **kw))
    model = mb.make_model("funnel", 17.0, {"rate": 0.1}, n_grid=401)
    # one solve, one evaluation on its fine grid of 2 n - 1 nodes; the
    # model's f, f' and R are the even nodes of that evaluation
    assert len(solved) == 1 and evaluated == [(801,)]
    f, fp, fpp, fppp = funnel({"rate": 0.1})(np.linspace(0.0, 17.0, 401))
    assert np.array_equal(model.f, f) and np.array_equal(model.fp, fp)
    assert np.array_equal(model.R, mb.scalar_curvature_profile(f, fp, fpp, fppp))
    # the minimizer reads f on the model's grid and evaluates the profile
    # once more, at its scalar t0 alone
    mb.minimize_A(model, mb.build_phi_h(model))
    assert evaluated == [(801,), ()]


def test_scalar_curvature_profile():
    t = np.linspace(0.0, 10.0, 101)
    f = np.exp(-0.1 * t)
    R = mb.scalar_curvature_profile(f, -0.1 * f, 0.01 * f)
    assert np.allclose(R, 2.0 * np.exp(0.2 * t) - 6.0 * 0.01, atol=1e-12)


def test_catalog_models_satisfy_hypotheses():
    for name, m in mb.catalog().items():
        assert m.lam <= m.lambda1 + 1e-9, name
        assert mb.supersolution_residual(m) <= 1e-6, name
        assert m.T >= 5 * math.pi / math.sqrt(m.lam), name
        assert m.R.min() > 0.0, name
        assert m.u.min() > -1e-12, name


def test_lambda1_resolution_convergence():
    m = mb.catalog()["funnel"]
    lam_half = mb.lambda1_sturm(m.profile, m.T, n_grid=m.n_grid // 2 + 1)[0]
    assert abs(lam_half - m.lambda1) <= 1e-6


def test_band_profiles_arithmetic():
    model = mb.make_model("cylinder", T=20.0, lam=1.0, n_grid=801)
    prof = mb.build_phi_h(model, eps=0.1)
    lo, hi = prof.band
    # band edges: phi = -pi/2 at t = eps, +pi/2 at t = 4 pi/sqrt(lam) + 2 eps
    assert lo == pytest.approx(0.1, abs=1e-15)
    assert hi == pytest.approx(4 * math.pi + 0.2, abs=1e-12)
    assert prof.phi[0] == pytest.approx(-math.pi / 2, abs=1e-2)
    assert prof.phi[-1] == pytest.approx(math.pi / 2, abs=1e-2)
    assert prof.lip_phi == pytest.approx(1.0 / (4.0 + 0.1 / math.pi), abs=1e-12)
    assert prof.lip_budget == 0.5
    assert prof.lip_within_budget
    assert prof.t_mid == pytest.approx(0.1 + 0.5 * math.pi * (4.0 + 0.1 / math.pi),
                                       abs=1e-12)


def test_band_needs_room():
    short = mb.make_model("cylinder", T=5.0, lam=1.0, n_grid=401)
    with pytest.raises(ValueError):
        mb.build_phi_h(short, eps=0.1)
    with pytest.raises(ValueError):
        mb.build_phi_h(mb.make_model("cylinder", T=20.0, lam=1.0, n_grid=401), eps=0.7)


def test_slope_condition_margins():
    model = mb.make_model("cylinder", T=20.0, lam=1.0, n_grid=801)
    prof = mb.build_phi_h(model, eps=0.1)
    m_model, cfg = mb.check_h_condition(prof, prof.lip_phi)
    assert m_model > 0.4  # strict positivity with the model Lipschitz
    m_budget, _ = mb.check_h_condition(prof, prof.lip_budget)
    # sqrt(lambda) amplitude sits exactly at equality under the budget
    assert abs(m_budget) <= 1e-10


def test_half_amplitude_counterexample_reproduced():
    lam = co.spectral_lambda(3, 1.0 / math.sqrt(2.0), co.C0)
    assert lam == pytest.approx(0.495, abs=1e-3)
    model = mb.make_model("cylinder", T=20.0, lam=lam, n_grid=801)
    prof = mb.build_phi_h(model, eps=0.1, amplitude="half")
    m_budget, cfg = mb.check_h_condition(prof, prof.lip_budget)
    assert m_budget < -1.0  # fails badly near the band edge
    # with the model's actual slope the half amplitude happens to survive,
    # which is why the counterexample is specifically about the budget
    m_model, _ = mb.check_h_condition(prof, prof.lip_phi)
    assert m_model > 0.0


def test_minimize_cylinder_closed_form():
    model = mb.make_model("cylinder", T=20.0, lam=1.0, n_grid=2001)
    prof = mb.build_phi_h(model, eps=0.1)
    records, sol = ac.bubble_checks(model, prof)
    # f = u = 1: boundary area 4 pi for every competitor, well under 8 pi
    assert sol.boundary_area == pytest.approx(4 * math.pi, abs=1e-9)
    assert sol.boundary_diameter == pytest.approx(math.pi, abs=1e-10)
    assert not sol.boundary_minimizer
    assert sol.stationarity_residual <= 1e-5
    margins = {r.name: r for r in records}
    assert margins["boundary area margin"].value == pytest.approx(4 * math.pi, abs=1e-9)
    assert margins["diameter margin"].value == pytest.approx(math.pi, abs=1e-10)
    assert all(margins[name].passed for name in CONCLUSIONS)


def test_minimizer_moves_to_small_f_on_funnel():
    model = mb.catalog()["funnel"]
    prof = mb.build_phi_h(model, eps=0.1)
    sol = mb.minimize_A(model, prof)
    assert sol.t0 > prof.t_mid  # shrinking profile pulls the bubble outward
    assert _conclusions_pass(model, prof)


def test_conclusions_on_catalog():
    for name, model in mb.catalog().items():
        records, sol = ac.bubble_checks(model, mb.build_phi_h(model, eps=0.1))
        concl = [r for r in records if r.name in CONCLUSIONS]
        assert len(concl) == len(CONCLUSIONS) and all(r.passed for r in concl), name
        assert sol.stationarity_residual <= 1e-5, name


def test_interior_stationarity_residual_under_refinement():
    t0 = {}
    for ng in (1001, 4001, 40001):
        m = mb.make_model("funnel", T=17.0, params={"rate": 0.1}, n_grid=ng)
        sol = mb.minimize_A(m, mb.build_phi_h(m, eps=0.1))
        assert not sol.boundary_minimizer
        assert sol.stationarity_residual <= 1e-6
        t0[ng] = sol.t0
    # the vertex of the three-node parabola converges with the grid
    assert abs(t0[4001] - t0[40001]) <= 2e-5


@pytest.mark.parametrize("name,params,T,lam", [
    ("bulge", {"amplitude": 0.4, "period": 18.0}, 20.0, 1.2),
    ("funnel", {"rate": 0.16}, 35.0, None),
])
def test_positive_amplitude_minimizer_is_interior(name, params, T, lam):
    # with a positive amplitude h u f^2 grows like 1/(distance to the band's
    # end) with the sign that sends A to +infinity at both ends, so the
    # minimizer is interior and its value converges with the grid
    sols = []
    for ng in (2001, 8001):
        m = mb.make_model(name, T, params, lam=lam, n_grid=ng)
        sols.append(mb.minimize_A(m, mb.build_phi_h(m, eps=0.3)))
        assert not sols[-1].boundary_minimizer
    assert sols[0].value == pytest.approx(sols[1].value, abs=1e-7)


def test_minimal_case_thresholds():
    # lambda = 3/4 gives area bound 32 pi/3 and diameter bound 4 pi/sqrt 3
    lam = co.spectral_lambda(3, 1.0, 1.0)
    assert 8 * math.pi / lam == pytest.approx(32 * math.pi / 3, abs=1e-12)
    assert 2 * math.pi / math.sqrt(lam) == pytest.approx(4 * math.pi / math.sqrt(3.0),
                                                         abs=1e-12)


def test_scaling_dimensional_analysis():
    base = mb.make_model("cylinder", T=20.0, lam=1.0, n_grid=801)
    sol = mb.minimize_A(base, mb.build_phi_h(base, eps=0.1))
    s = 2.0
    # scaling lengths by s: areas scale by s^2, lambda by 1/s^2; margins
    # keep their signs (here both shrink by exactly s^2 in the bound)
    scaled_area = sol.boundary_area * s**2
    scaled_lam = base.lam / s**2
    assert 8 * math.pi / scaled_lam - scaled_area == pytest.approx(
        (8 * math.pi / base.lam - sol.boundary_area) * s**2, rel=1e-9)
