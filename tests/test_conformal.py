import json
import math

import numpy as np
import pytest
import scipy.linalg

from anisocheck import acceptance as ac
from anisocheck import cli
from anisocheck import conformal as cf
from anisocheck import constants as co
from anisocheck import geometry as geo
from anisocheck import integrand as ig
from anisocheck import variation as va
from anisocheck.checks import ladder, order_check


def test_deform_unit_sphere_is_identity():
    g = geo.sample_chart(geo.Sphere(3, radius=1.0), 13)
    R_tilde = cf.deform(g)
    assert np.abs(1.0 / g.r - 1.0).max() <= 1e-14
    mask = g.interior_mask()
    assert np.abs(R_tilde - 6.0)[mask].max() <= 1e-10


def test_deform_requires_radial_floor():
    g = geo.sample_chart(geo.Hyperplane(3, offset=5e-4, box=[(-0.3, 0.3)] * 3), 9)
    with pytest.raises(ValueError):
        cf.deform(g)


def test_transformation_law_against_plane_closed_form():
    # flat chart at distance 1: Lap log r = -(3 + |u|^2) / r^4 with
    # r^2 = 1 + |u|^2, and |grad log r|^2 = |u|^2 / r^4
    prev = None
    for res in (13, 25):
        g = geo.sample_chart(geo.Hyperplane(3, offset=1.0), res)
        R_tilde, w = cf.deform(g), 1.0 / g.r
        u2 = g.r**2 - 1.0
        lap_exact = -(3.0 + u2) / g.r**4
        Rt_exact = (0.0 - 4.0 * lap_exact - 2.0 * u2 / g.r**4) * g.r**2
        mask = g.interior_mask()
        assert np.abs(R_tilde - Rt_exact)[mask].max() <= (0.1 if res == 13 else 5e-3)
        # residual of the law w^2 R~ = -4 Lap log w - 2|grad log w|^2 (n = 3,
        # R = 0) against the closed-form Laplacian
        resid = np.abs(w**2 * R_tilde - w**2 * Rt_exact)[mask].max()
        if prev is not None:
            assert prev / resid >= 3.5
        prev = resid


def test_cone_deformed_curvature_scale_invariant():
    # r^-2 g on a radial cone is dilation invariant, so R~ must match
    # between the cone and its dilation at corresponding parameters
    cone = geo.catalog(3)["cone"]
    g1 = geo.sample_chart(cone, 13)
    g2 = geo.sample_chart(cone.dilate(2.0), 13)
    mask = g1.interior_mask()
    assert np.abs(cf.deform(g1) - cf.deform(g2))[mask].max() <= 1e-8


def test_qform_identity_sphere_exact_reduction():
    g = geo.sample_chart(geo.Sphere(3, radius=1.0), 13)
    phi = va.bump_function(g, "centered")
    direct, derived, _ = cf.qform_identity_check(g, cf.deform(g), phi, 0.5)
    # w == 1 and grad r == 0: both routes are literally the same integral
    assert abs(direct - derived) <= 1e-12
    manual = g.integrate(g.grad_norm_sq(phi) + (0.5 * 6.0 - 0.5) * phi**2)
    assert direct == pytest.approx(manual, rel=1e-10)


def test_qform_identity_refinement():
    # the middle resolutions of the catenoid band sit at an error-sign
    # crossing, so its pair starts one level higher
    for chart, lam, pair, n in ((geo.Hyperplane(3, offset=1.0), 0.0, (13, 25), 3),
                                (geo.catalog(3)["catenoid_3"], 0.75, (25, 49), 3),
                                (geo.catalog(2)["cone"], 0.0, (17, 33), 2)):
        discs = []
        for res in pair:
            g = geo.sample_chart(chart, res)
            phi = va.bump_function(g, "centered")
            direct, derived, _ = cf.qform_identity_check(g, cf.deform(g), phi, lam)
            discs.append(abs(direct - derived))
        assert order_check("qform", discs, 1e-11).passed


def test_qform_records_read_radial_cos(monkeypatch):
    # the derived side reads H_vec.xhat as -H (xhat.nu): on the cylinder
    # (H != 0) the qform order record at the levels 13 and 25 passes, and
    # fails once radial_cos is scaled by 1 + 1e-3
    chart, lam = geo.catalog(3)["cylinder"], cf.LAMBDA_TARGET[3]
    assert all(rec.passed for rec in ac.conformal_records(chart, ladder(13, 2), {"qform"}, lam))
    monkeypatch.setattr(geo.SampledGeometry, "radial_cos",
                        property(lambda g: g._radial[1] * (1.0 + 1e-3)))
    assert not all(rec.passed
                   for rec in ac.conformal_records(chart, ladder(13, 2), {"qform"}, lam))


@pytest.mark.parametrize("n, res", [(2, 65), (3, 49)])
def test_sphere_qform_rounding_record_sees_a_planted_error(monkeypatch, n, res):
    # the finest sphere level of criterion 7: the two sides agree to a few
    # ulps, far inside the rounding bound of the sums, and a relative error
    # of 1e-10 in the direct side is far outside it
    g = geo.sample_chart(geo.catalog(n)["sphere"], res)
    R_tilde = cf.deform(g)
    lam = cf.LAMBDA_TARGET[n]
    rec = ac.qform_rounding_check("sphere", g, R_tilde, lam)
    assert rec.passed and rec.value <= 4 * np.finfo(float).eps * abs(rec.detail["direct"])
    exact = cf.qform_identity_check

    def planted(*args):
        direct, derived, magnitude = exact(*args)
        return direct * (1.0 + 1e-10), derived, magnitude

    monkeypatch.setattr(cf, "qform_identity_check", planted)
    assert not ac.qform_rounding_check("sphere", g, R_tilde, lam).passed


SPHERE_QFORM_JOB = {"command": "conformal",
                    "inputs": {"chart": {"kind": "sphere"}, "resolution": 13, "tests": ["qform"]}}


def test_conformal_qform_job_on_the_centered_sphere_reads_its_rounding(monkeypatch, tmp_path):
    # the two sides are one sum there, so the job judges the rounding of its
    # finer sample: it exits 0 with a finite record, and a planted relative
    # error of 1e-10 in the direct side fails it
    job = tmp_path / "job.json"
    job.write_text(json.dumps(SPHERE_QFORM_JOB))
    assert cli.main(["run", "--job", str(job), "--out", str(tmp_path / "out")]) == 0
    rec, = json.loads((tmp_path / "out" / "report.json").read_text())["records"]
    assert rec["name"] == "qform identity rounding" and math.isfinite(rec["value"])
    assert ac.qform_one_sum(geo.catalog(3)["sphere"])
    assert not ac.qform_one_sum(geo.Sphere(3, center=[0.2, 0.0, 0.0, 0.0]))
    exact = cf.qform_identity_check

    def planted(*args):
        direct, derived, magnitude = exact(*args)
        return direct * (1.0 + 1e-10), derived, magnitude

    monkeypatch.setattr(cf, "qform_identity_check", planted)
    assert cli.main(["run", "--job", str(job)]) == 1


def test_cone_refinement_companion_wakes_no_blas_worker(blas_worker_ticks):
    # the 49^3 refinement companion of the oracles workload's conformal
    # qform job, in a child at two OpenBLAS threads: its derivatives run no
    # BLAS call, so no worker thread spins.  A tensordot of a 49^3 field
    # with a dense 49 x 49 matrix, the derivative this kernel replaced,
    # wakes one
    ticks = blas_worker_ticks["cone"]
    if ticks["control"] == 0:
        pytest.skip("a 49^3 tensordot woke no BLAS worker here, so the check shows nothing")
    assert ticks["warm"] == 0, ticks


def test_distance_comparison_radial_ray_equality():
    plane = geo.Hyperplane(2, offset=0.0, polar=True,
                           box=[(0.5, 3.0), (0, 2 * np.pi)])
    s = np.linspace(1.0, np.e, 4001)
    ray = np.stack([s, np.zeros_like(s)], axis=-1)
    length, log_ratio, intrinsic = cf.distance_comparison_check(plane, ray)
    assert log_ratio == pytest.approx(1.0, abs=1e-12)
    assert abs(length - log_ratio) <= 1e-8
    assert abs(length - intrinsic) <= 1e-8


def test_distance_comparison_arc_and_random_paths():
    plane = geo.Hyperplane(2, offset=0.0, polar=True,
                           box=[(0.5, 3.0), (0, 2 * np.pi)])
    th = np.linspace(0, np.pi, 600)
    arc = np.stack([np.full_like(th, 1.3), th], axis=-1)
    length, log_ratio, _ = cf.distance_comparison_check(plane, arc)
    assert log_ratio <= 1e-12
    assert length - log_ratio == pytest.approx(np.pi, rel=1e-6)
    rng = np.random.default_rng(4)
    sph = geo.Sphere(3, radius=1.5, center=[0.2, 0, 0, 0])
    lo = np.array([b[0] for b in sph.box])
    hi = np.array([b[1] for b in sph.box])
    for _ in range(10):
        pts = lo + rng.random((10, 3)) * (hi - lo)
        dense = [a + t * (b - a) for a, b in zip(pts[:-1], pts[1:])
                 for t in [np.linspace(0, 1, 50)[:, None]]]
        length, log_ratio, _ = cf.distance_comparison_check(sph, np.concatenate(dense))
        assert length - log_ratio >= -1e-6


def test_curve_through_origin_rejected():
    plane = geo.Hyperplane(3, offset=0.0, box=[(-1, 1)] * 3)
    line = np.stack([np.linspace(-0.5, 0.5, 101)] + [np.zeros(101)] * 2, axis=-1)
    with pytest.raises(ValueError):
        cf.curve_gtilde_length(plane, line)


def test_deformed_length_dilation_invariance():
    cone = geo.catalog(3)["cone"]
    t = np.linspace(0, 1, 150)
    curve = np.stack([0.5 + t, 0.9 + 0.6 * t, 1.0 + 2.0 * t], axis=-1)
    L1 = cf.curve_gtilde_length(cone, curve)
    curve2 = curve.copy()
    curve2[:, 0] *= 5.0
    assert cf.curve_gtilde_length(cone.dilate(5.0), curve2) == pytest.approx(
        L1, abs=1e-12)
    sph = geo.Sphere(3, radius=1.0)
    c = np.stack([0.3 + 0.4 * t, 0.3 + 0.9 * t, 2 * t], axis=-1)
    assert cf.curve_gtilde_length(geo.Sphere(3, radius=2.5), c) == pytest.approx(
        cf.curve_gtilde_length(sph, c), abs=1e-12)


def test_lambda1_flat_patch_meets_spectral_target():
    g = geo.sample_chart(geo.Hyperplane(3, offset=1.0, box=[(-1.2, 1.2)] * 3), 21)
    rec = ac.lambda1_target_check("lambda1", g, cf.deform(g), ig.Integrand.isotropic(4),
                                  0.75)
    assert rec.detail["lambda1"] >= 0.75 - 1e-3
    assert "Dirichlet" in rec.detail["note"]


def test_lambda1_estimate_matches_dense_oracle(monkeypatch):
    forms = []
    solve = va.smallest_eigenpair

    def keep(K, M, **kwargs):
        forms.append((K, M))
        return solve(K, M, **kwargs)

    monkeypatch.setattr(va, "smallest_eigenpair", keep)
    flat = geo.Hyperplane(3, offset=1.0, box=[(-1.2, 1.2)] * 3)
    for chart in (flat, geo.catalog(3)["cone"]):
        g = geo.sample_chart(chart, 9)
        R_tilde = cf.deform(g)
        est = cf.lambda1_estimate(g, R_tilde)
        K, M = forms[-1]
        exact = scipy.linalg.eigh(K.toarray(), M.toarray(), eigvals_only=True)[0]
        assert abs(est.eigenvalue - exact) <= 1e-9 * max(1.0, abs(exact)), chart.name
        assert est.residual <= va.EIG_TOL * max(1.0, abs(est.eigenvalue))
        rec = ac.lambda1_target_check("lambda1", g, R_tilde, ig.Integrand.isotropic(4), 0.75)
        assert rec.detail["lambda1"] == est.eigenvalue
        assert rec.value == est.eigenvalue - est.residual - 0.75


def test_lambda1_record_subtracts_the_residual(monkeypatch, all_run):
    # every residual inflated to theta - 3/4 + 1e-2: theta - residual = 0.74
    # keeps the flat patch certified stable, and lambda1 - residual - 3/4
    # = -1e-2 lies below the slack, so only the residual makes the record fail
    (unpatched,) = [r for r in all_run[2]["records"]
                    if r["name"] == "conformal: flat patch lambda1 estimate vs 3/4"]
    solve = va.smallest_eigenpair

    def inflated(K, M):
        theta, x, matvecs, _ = solve(K, M)
        return theta, x, matvecs, theta - 0.75 + 1e-2

    monkeypatch.setattr(va, "smallest_eigenpair", inflated)
    job = {"command": "conformal", "seed": 7,
           "inputs": {"chart": {"kind": "hyperplane", "n": 3, "offset": 1.0,
                                "box": [[-1.2, 1.2]] * 3},
                      "lambda": 0.75, "resolution": 9, "tests": ["lambda1"]}}
    report = cli.run(job)
    (rec,) = report["records"]
    assert rec["tolerance"] == -1e-3 and rec["value"] == pytest.approx(-1e-2, abs=1e-12)
    assert rec["detail"]["lambda1"] > 0.75 and not rec["pass"] and not report["pass"]
    # criterion 7's rule on criterion 7's 21^3 patch: the eigenvalue is the
    # unpatched one of the `all` record, which passes
    g = geo.sample_chart(geo.Hyperplane(3, offset=1.0, box=[(-1.2, 1.2)] * 3), 21)
    flat = ac.lambda1_target_check("flat patch", g, cf.deform(g), ig.Integrand.isotropic(4),
                                   cf.LAMBDA_TARGET[3])
    assert flat.tolerance == -1e-3 and not flat.passed
    assert flat.detail["lambda1"] == unpatched["detail"]["lambda1"] and unpatched["pass"]


def test_lambda1_dirichlet_monotone_under_enlargement():
    vals = []
    for half in (0.8, 1.2, 1.6):
        g = geo.sample_chart(geo.Hyperplane(3, offset=1.0, box=[(-half, half)] * 3), 17)
        vals.append(cf.lambda1_estimate(g, cf.deform(g)).eigenvalue)
    assert vals[0] > vals[1] > vals[2]


def test_lambda1_hemisphere_matches_first_harmonic():
    # w == 1 on the unit sphere about the origin, so the estimate is the
    # plain Dirichlet value of -Lap + R/2 on the hemisphere; separation of
    # variables (natural at the pole, Dirichlet at the equator) gives the
    # first-harmonic value 3 + R/2 = 6 exactly (eigenfunction cos theta)
    cap = geo.sample_chart(
        geo.Sphere(3, 1.0, box=[(0.0, np.pi / 2), (0, np.pi), (0, 2 * np.pi)]),
        (25, 13, 24))
    est = cf.lambda1_estimate(cap, cf.deform(cap))
    assert est.eigenvalue == pytest.approx(6.0, rel=2e-2)
    # the inset pole nodes stretch the spectrum, so the true residual sits
    # near its tolerance while the Lanczos estimate may pass: the solve must
    # confirm it
    assert est.residual <= va.EIG_TOL * max(1.0, abs(est.eigenvalue))
    # both Lanczos passes take 2819 products; the thick-restart solve with
    # its reorthogonalized 41-vector basis took 3520
    assert est.matvecs < 3520


def test_absorption_step_margin_on_catalog():
    for n in (2, 3):
        for chart in geo.catalog(n).values():
            g = geo.sample_chart(chart, 9)
            assert cf.cauchy_schwarz_step_check(g, co.BETA) >= -1e-10
