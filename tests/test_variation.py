import numpy as np
import pytest

from anisocheck import cli
from anisocheck import geometry as geo
from anisocheck import integrand as ig
from anisocheck import variation as va


@pytest.fixture(scope="module")
def iso3():
    return ig.Integrand.isotropic(3)


@pytest.fixture(scope="module")
def iso4():
    return ig.Integrand.isotropic(4)


def test_phi_area_values(iso3, iso4):
    sq = geo.sample_chart(geo.Hyperplane(2, offset=0.3, box=[(0, 1), (0, 1)]), 17)
    assert va.phi_area(sq, iso3) == pytest.approx(1.0, abs=1e-13)
    s3 = geo.sample_chart(geo.Sphere(3, radius=1.3), 33)
    assert va.phi_area(s3, iso4) == pytest.approx(2 * np.pi**2 * 1.3**3, rel=2e-3)
    # phi(e4) = 2 on the x4 = 1 hyperplane for the strongly anisotropic matrix
    plane = geo.sample_chart(geo.Hyperplane(3, offset=1.0, box=[(0, 1)] * 3), 9)
    quad = ig.Integrand.quadratic(np.diag([1.0, 1.0, 1.0, 4.0]))
    assert va.phi_area(plane, quad) == pytest.approx(2.0, abs=1e-12)
    with pytest.raises(ValueError):
        va.phi_area(plane, iso3)


def test_isotropic_reduction_identities(iso3, iso4):
    for n, iso in ((2, iso3), (3, iso4)):
        for name, chart in geo.catalog(n).items():
            g = geo.sample_chart(chart, 9)
            hphi = va.aniso_mean_curvature(g, iso)
            assert np.abs(hphi - g.mean_curvature).max() <= 1e-10, name
            psi = iso.hessian(g.nu)
            w = g.jac[..., 0]
            assert np.abs(np.einsum("...de,...e->...d", psi, w) - w).max() <= 1e-12


def test_aniso_mean_curvature_nonconstant_on_sphere():
    # direction-dependent integrand on the round sphere: H_phi varies
    quad = ig.Integrand.quadratic(np.diag([1.0, 1.0, 1.0, 1.2]))
    g = geo.sample_chart(geo.catalog(3)["sphere"], 25)
    hphi = va.aniso_mean_curvature(g, quad)
    assert hphi.std() > 1e-2
    oracle = va.NormalOracle(g, {"u": va.bump_function(g, "centered")})
    chk = va.first_variation_check(oracle, quad, "u")
    assert chk.rel_discrepancy <= 1e-3


def test_first_variation_sphere_isotropic(iso4):
    g = geo.sample_chart(geo.Sphere(3, radius=1.0), 17)
    u = va.bump_function(g, "centered")
    chk = va.first_variation_check(va.NormalOracle(g, {"u": u}), iso4, "u")
    # formula side is the integral of (3/rho) u
    assert chk.formula_value == pytest.approx(g.integrate(3.0 * u), rel=1e-12)
    assert chk.rel_discrepancy <= 1e-3


def test_first_variation_flat_identically_zero():
    mild = ig.Integrand.quadratic(1.1 * np.diag([1.0, 1.0, 1.0, 1.1]))
    g = geo.sample_chart(geo.Hyperplane(3, offset=1.0), 13)
    u = va.bump_function(g, "centered")
    chk = va.first_variation_check(va.NormalOracle(g, {"u": u}), mild, "u")
    assert chk.formula_value == 0.0
    assert chk.rel_discrepancy <= 1e-3


def test_boundary_supported_speed_rejected(iso4):
    g = geo.sample_chart(geo.Hyperplane(3, offset=1.0), 13)
    u = np.ones(g.shape)
    with pytest.raises(ValueError):
        va.first_variation_check(va.NormalOracle(g, {"u": u}), iso4, "u")


def test_second_variation_form_sphere_reduction(iso4):
    # isotropic on the sphere: Q(u) = int |grad u|^2 - (3/rho^2) u^2
    g = geo.sample_chart(geo.catalog(3)["sphere"], 13)
    u = va.bump_function(g, "centered")
    manual = g.integrate(g.grad_norm_sq(u) - 3.0 * u * u)
    assert va.second_variation_form(g, iso4, u) == pytest.approx(manual, rel=1e-12)


def test_second_variation_matches_fd_on_stationary_charts(iso3):
    cat = geo.sample_chart(geo.Catenoid2(1.0, (-1, 1)), (25, 50))
    u = va.bump_function(cat, "centered")
    chk = va.second_variation_check(va.NormalOracle(cat, {"u": u}), iso3, "u")
    assert chk.stationary
    assert chk.rel_discrepancy <= 1e-3
    mild = ig.Integrand.quadratic(1.1 * np.diag([1.0, 1.0, 1.1]))
    plane = geo.sample_chart(geo.Hyperplane(2, offset=1.0), 25)
    offset = va.NormalOracle(plane, {"u": va.bump_function(plane, "offset")})
    chk2 = va.second_variation_check(offset, mild, "u")
    assert chk2.rel_discrepancy <= 1e-3
    # flat chart, pinched integrand: Q(u) >= int |grad u|^2 > 0
    assert chk2.formula_value > 0.0


def test_stability_spectrum_flat_rectangle(iso3):
    g = geo.sample_chart(geo.Hyperplane(2, offset=1.0, box=[(0, 1), (0, 2)]), (49, 97))
    rep = va.stability_spectrum(g, iso3)
    exact = np.pi**2 * (1.0 + 0.25)
    assert rep.lambda_stab == pytest.approx(exact, rel=2e-3)
    assert rep.stable


def test_stability_spectrum_catenoid_bands(iso3):
    wide = geo.sample_chart(geo.Catenoid2(1.0, (-1.6, 1.6)), (33, 64))
    rep = va.stability_spectrum(wide, iso3)
    assert rep.lambda_stab < 0.0 and not rep.stable
    narrow = geo.sample_chart(geo.Catenoid2(1.0, (-0.4, 0.4)), (17, 48))
    assert va.stability_spectrum(narrow, iso3).lambda_stab > 0.0
    # ground state of the wide band certifies instability through Q
    u = rep.eigenfunction
    assert rep.q_value(u) < 0.0


def test_cutoff_constant_destabilizes_wide_neck(iso3):
    # u = 1 on the neck, cut off towards the band ends
    wide = geo.sample_chart(geo.Catenoid2(1.0, (-2.4, 2.4)), (41, 48))
    U = np.meshgrid(*wide.params, indexing="ij")
    xi = np.clip((np.abs(U[0]) - 1.5) / (2.4 * 0.92 - 1.5), 0.0, 1.0)
    u = (1.0 - xi**2) ** 2
    u[~wide.interior_mask(2)] = 0.0
    assert va.second_variation_form(wide, iso3, u) < -1.0


def test_stability_spectrum_domain_monotonicity(iso4):
    lams = []
    for tmax in (0.4, 0.8, 1.2):
        cap = geo.sample_chart(
            geo.Sphere(3, 1.0, box=[(0.0, tmax), (0, np.pi), (0, 2 * np.pi)]),
            (13, 13, 12))
        lams.append(va.stability_spectrum(cap, iso4).lambda_stab)
    assert lams[0] > lams[1] > lams[2] > 0.0


def test_assembled_form_bilinearity(iso4):
    mild = ig.Integrand.quadratic(1.1 * np.diag([1.0, 1.0, 1.0, 1.1]))
    g = geo.sample_chart(geo.catalog(3)["sphere"], 13)
    rep = va.stability_spectrum(g, mild)
    u = va.bump_function(g, "centered")
    v = va.bump_function(g, "two_humps")
    resid = rep.q_value(u + v) - rep.q_value(u) - rep.q_value(v) - 2 * rep.bilinear(u, v)
    assert abs(resid) <= 1e-8
    # element route and collocation route agree at the discretization level
    q_int = va.second_variation_form(g, mild, u)
    assert rep.q_value(u) == pytest.approx(q_int, rel=0.2)


def test_stability_inequality_instance_for_ground_state(iso4):
    # stable chart x pinched integrand: the reduced inequality
    # int |grad u|^2 - |A|^2 u^2 / sqrt2 >= 0 holds on the computed ground
    # eigenfunction with margin >= -1e-8
    mild4 = ig.Integrand.quadratic(1.1 * np.diag([1.0, 1.0, 1.0, 1.1]))
    mild3 = ig.Integrand.quadratic(1.1 * np.diag([1.0, 1.0, 1.1]))
    pert4 = ig.Integrand.perturbed(4, 0.1, "axis2")
    cases = [
        (geo.sample_chart(geo.Sphere(3, 1.0, box=[(0.0, 0.5), (0, np.pi),
                                                  (0, 2 * np.pi)]), (13, 13, 12)),
         [iso4, mild4, pert4]),
        (geo.sample_chart(geo.Hyperplane(3, offset=1.0), 13), [iso4, mild4]),
        (geo.sample_chart(geo.Catenoid2(1.0, (-0.4, 0.4)), (13, 36)),
         [ig.Integrand.isotropic(3), mild3]),
    ]
    for g, integrands in cases:
        for integ in integrands:
            rep = va.stability_spectrum(g, integ)
            assert rep.lambda_stab > 0.0, (g.chart_name, integ.describe())
            u = rep.eigenfunction
            reduced = g.integrate(g.grad_norm_sq(u)
                                  - (1 / np.sqrt(2.0)) * g.A2 * u * u)
            assert reduced >= -1e-8, (g.chart_name, integ.describe())


def test_reduced_stability_chain(iso4):
    mild = ig.Integrand.quadratic(1.1 * np.diag([1.0, 1.0, 1.0, 1.1]))
    aniso = ig.Integrand.quadratic(np.diag([1.0, 1.0, 1.0, 4.0]))
    g = geo.sample_chart(geo.catalog(3)["sphere"], 13)
    u = va.bump_function(g, "centered")
    iso_chk = va.reduced_stability_check(g, iso4, u)
    assert iso_chk.lam == pytest.approx(1.0, abs=1e-12)
    assert abs(iso_chk.chain_margin) <= 1e-10 * max(1.0, abs(iso_chk.q_value))
    for integ in (mild, aniso):
        chk = va.reduced_stability_check(g, integ, u)
        assert chk.min_slack_gradient >= -1e-10
        assert chk.min_slack_gradient_upper >= -1e-10
        assert chk.min_slack_potential >= -1e-10
        assert chk.min_slack_potential_lower >= -1e-10
        assert chk.chain_margin >= -1e-10
    assert va.reduced_stability_check(g, aniso, u).lam == pytest.approx(1 / 8, abs=1e-10)


def test_vectorfield_identity_flat_and_catenoid(iso3, iso4):
    plane = geo.sample_chart(geo.Hyperplane(3, offset=0.0, box=[(-1, 1)] * 3), 13)
    for integ in ig.catalog(4).values():
        res, interior, boundary, stat = va.vectorfield_first_variation(
            plane, integ, va.VectorField.position())
        assert stat and res <= 1e-6
        # both sides reduce to n * phi(nu) * area on the flat patch
        phi_val = float(integ.value(plane.nu[0, 0, 0]))
        assert interior == pytest.approx(3 * phi_val * 8.0, rel=1e-12)
    res, _, _, _ = va.vectorfield_first_variation(
        plane, iso4, va.VectorField.constant([1.0, 0, 0, 0]))
    assert res <= 1e-6
    resids = []
    for m in (17, 33):
        cat = geo.sample_chart(geo.Catenoid2(1.0, (-1, 1)), (m, 2 * m))
        r, _, _, stat = va.vectorfield_first_variation(cat, iso3,
                                                       va.VectorField.position())
        assert stat
        resids.append(r)
    assert resids[0] / resids[1] >= 3.5


def test_isoperimetric_flat_ball_and_scaling(iso4):
    s0 = 0.05
    def ball(scale):
        return geo.sample_chart(
            geo.Hyperplane(3, offset=0.0, polar=True,
                           box=[(scale * s0, scale), (0, np.pi), (0, 2 * np.pi)]),
            (25, 25, 24))
    chk1 = va.isoperimetric_check(ball(1.0), iso4, 1.0)
    assert chk1.margin > 0.0
    assert chk1.area == pytest.approx(4 * np.pi / 3 * (1 - s0**3), rel=1e-2)
    assert chk1.bound == pytest.approx(np.sqrt(2.0) * 4 * np.pi / 3 * (1 + s0**2),
                                       rel=1e-2)
    chk2 = va.isoperimetric_check(ball(2.0), iso4, 2.0)
    assert chk2.margin == pytest.approx(8.0 * chk1.margin, rel=1e-12)
    # patch away from the origin: inequality holds with room
    sq = geo.sample_chart(geo.Hyperplane(3, offset=0.5, box=[(-0.4, 0.4)] * 3), 13)
    rho = float(np.sqrt(0.5**2 + 3 * 0.4**2)) + 1e-9
    assert va.isoperimetric_check(sq, iso4, rho).margin > 0.0
    with pytest.raises(ValueError):
        va.isoperimetric_check(sq, iso4, 0.5)


def test_bump_functions_vanish_on_two_layers():
    for n in (2, 3):
        for chart in geo.catalog(n).values():
            g = geo.sample_chart(chart, 11)
            for name in va.BUMP_NAMES:
                u = va.bump_function(g, name)
                outer = ~g.interior_mask(2)
                if outer.any():
                    assert np.abs(u[outer]).max() == 0.0


def _count_resamples(monkeypatch):
    """Record every call of the resampling entry point."""
    calls = []
    build = geo.geometry_from_positions

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return build(*args, **kwargs)

    monkeypatch.setattr(geo, "geometry_from_positions", counting)
    return calls


def test_variation_job_resamples_each_immersion_once(monkeypatch):
    calls = _count_resamples(monkeypatch)
    job = {"command": "variation", "seed": 1,
           "inputs": {"chart": {"kind": "catenoid_2", "n": 2},
                      "integrand": {"kind": "isotropic", "dim": 3}, "resolution": 25,
                      "tests": ["first_variation", "second_variation"]}}
    report = cli.run(job)
    assert report["pass"] and len(report["records"]) == 6
    # 3 bumps x {+-t, +-t/2}, plus the unperturbed base shared by every bump
    assert len(calls) == 13
    calls.clear()
    job["inputs"]["tests"] = ["first_variation"]
    cli.run(job)
    assert len(calls) == 12


def test_oracle_shares_resamples_across_integrands(monkeypatch, iso3):
    calls = _count_resamples(monkeypatch)
    mild = ig.Integrand.quadratic(1.1 * np.diag([1.0, 1.0, 1.1]))
    counts = []
    for integrands in ([iso3], [iso3, mild]):
        calls.clear()
        g = geo.sample_chart(geo.catalog(2)["catenoid_2"], 17)
        oracle = va.NormalOracle(g, {b: va.bump_function(g, b) for b in va.BUMP_NAMES})
        for integ in integrands:
            for bump in va.BUMP_NAMES:
                va.first_variation_check(oracle, integ, bump)
                va.second_variation_check(oracle, integ, bump)
        counts.append(len(calls))
    assert counts == [13, 13]


def test_shared_oracle_matches_one_speed_oracles(iso3):
    # sharing resamples changes no value: each check equals the same check
    # on an oracle built for its speed alone
    g = geo.sample_chart(geo.catalog(2)["catenoid_2"], 17)
    speeds = {b: va.bump_function(g, b) for b in va.BUMP_NAMES}
    shared = va.NormalOracle(g, speeds)
    for bump, u in speeds.items():
        for check in (va.first_variation_check, va.second_variation_check):
            alone = va.NormalOracle(g, {"u": u})
            assert check(shared, iso3, bump).as_dict() == check(alone, iso3, "u").as_dict()
