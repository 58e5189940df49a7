import warnings

import numpy as np
import pytest

from anisocheck import geometry as geo


def test_hyperplane_is_flat():
    g = geo.sample_chart(geo.Hyperplane(3, offset=1.0), 9)
    assert np.abs(g.shape_op).max() == 0.0
    assert np.abs(g.mean_curvature).max() == 0.0
    assert np.abs(g.scalar_curvature).max() == 0.0


def test_sphere_is_umbilic():
    rho = 2.0
    g = geo.sample_chart(geo.Sphere(3, radius=rho), 17)
    assert np.abs(g.shape_op - np.eye(3) / rho).max() <= 1e-12
    assert np.abs(g.mean_curvature - 3.0 / rho).max() <= 1e-12
    assert np.abs(g.scalar_curvature - 6.0 / rho**2).max() <= 1e-12


def test_cylinder_principal_curvatures():
    g = geo.sample_chart(geo.Cylinder(3, link_radius=1.0), 13)
    ks = geo.principal_curvatures(g.shape_op, g.metric)
    assert np.allclose(ks.reshape(-1, 3), [0.0, 1.0, 1.0], atol=1e-12)


def test_catenoids_minimal_by_finite_difference_oracle():
    # numeric path: all fields rebuilt from node positions alone
    for chart, res, tol in ((geo.Catenoid2(1.0, (-1.0, 1.0)), (65, 128), 1e-6),
                            (geo.catalog(3)["catenoid_3"], 21, 5e-4)):
        g = geo.sample_chart(chart, res)
        gn = geo.geometry_from_positions(g.X, g.box, g.periodic, g.nu,
                                         pole_ends=g.pole_ends)
        mask = g.interior_mask(2)
        assert np.abs(gn.mean_curvature[mask]).max() <= tol
        # analytic parametrizations are minimal to machine precision
        assert np.abs(g.mean_curvature).max() <= 1e-12


def test_gauss_identity_on_catalog():
    for n in (2, 3):
        for name, chart in geo.catalog(n).items():
            g = geo.sample_chart(chart, 9)
            resid = np.abs(g.scalar_curvature
                           - (g.mean_curvature**2 - g.A2)).max()
            assert resid <= 1e-8, name


def test_gauss_scalar_examples():
    assert geo.gauss_scalar(np.zeros((3, 3))) == 0.0
    umb = np.eye(3) / 2.0
    assert geo.gauss_scalar(umb) == pytest.approx(9 / 4 - 3 / 4, abs=1e-15)
    S = np.diag([-np.sqrt(2.0), 1.0, 1.0])
    # H = 2 - sqrt2, |A|^2 = 4: R = H^2 - |A|^2 = 2 - 4 sqrt2
    assert geo.gauss_scalar(S) == pytest.approx(2 - 4 * np.sqrt(2.0), abs=1e-12)
    assert geo.gauss_scalar(S) == pytest.approx(-3.6568542494923806, abs=1e-12)


def test_radial_decomposition_bound():
    for n in (2, 3):
        for chart in geo.catalog(n).values():
            g = geo.sample_chart(chart, 9)
            total = np.einsum("...d,...d->...", g.grad_r, g.grad_r) + g.radial_cos**2
            assert total.max() <= 1.0 + 1e-8
            assert np.abs(total - 1.0).max() <= 1e-10  # exact splitting of xhat


def test_normal_is_unit_and_orthogonal():
    for n in (2, 3):
        for chart in geo.catalog(n).values():
            g = geo.sample_chart(chart, 9)
            assert np.abs(np.linalg.norm(g.nu, axis=-1) - 1.0).max() <= 1e-12
            assert np.abs(np.einsum("...da,...d->...a", g.jac, g.nu)).max() <= 1e-12


def test_sphere_volume_quadrature_and_refinement():
    exact = 2.0 * np.pi**2
    errs = []
    for res in (9, 17, 33):
        g = geo.sample_chart(geo.Sphere(3, radius=1.0), res)
        errs.append(abs(g.integrate() - exact))
    assert errs[0] / errs[1] >= 3.5
    assert errs[1] / errs[2] >= 3.5
    assert errs[2] <= 0.03


def test_unit_square_area():
    g = geo.sample_chart(geo.Hyperplane(2, offset=0.3, box=[(0, 1), (0, 1)]), 17)
    assert g.integrate() == pytest.approx(1.0, abs=1e-13)


def test_inverse_square_density_closed_forms():
    # flat annulus through the origin: int r^-2 dA = 2 pi log(b/a)
    ann = geo.sample_chart(
        geo.Hyperplane(2, offset=0.0, polar=True, box=[(0.5, 2.0), (0, 2 * np.pi)]),
        (33, 48))
    val = ann.integrate(1.0 / ann.r**2)
    assert val == pytest.approx(2 * np.pi * np.log(4.0), abs=1e-4)
    # flat ball slab in the hyperplane: int r^-2 dV = 4 pi (b - a)
    ball = geo.sample_chart(
        geo.Hyperplane(3, offset=0.0, polar=True,
                       box=[(0.05, 1.0), (0, np.pi), (0, 2 * np.pi)]), (33, 33, 32))
    val = ball.integrate(1.0 / ball.r**2)
    assert val == pytest.approx(4 * np.pi * 0.95, rel=3e-3)


def test_laplace_r_identity_converges():
    for chart in (geo.Hyperplane(3, offset=1.0), geo.catalog(3)["cone"],
                  geo.catalog(3)["sphere"]):
        r0 = geo.laplace_r_check(geo.sample_chart(chart, 13))
        r1 = geo.laplace_r_check(geo.sample_chart(chart, 25))
        assert r0 / r1 >= 3.5  # at least second order under h -> h/2


def test_laplace_r_requires_origin_free_chart():
    g = geo.sample_chart(geo.Hyperplane(3, offset=0.0, box=[(-1, 1)] * 3), 9)
    assert g.origin_on_chart
    with pytest.raises(ValueError):
        geo.laplace_r_check(g)


def test_mean_curvature_vector_dictionary_on_sphere():
    # H_vec = Laplace_g X equals -H nu; validated numerically, not assumed
    g = geo.sample_chart(geo.Sphere(3, radius=1.5), 21)
    hvec = g.laplacian_ambient(g.X)
    mask = g.interior_mask(2)
    err = np.linalg.norm(hvec - g.mean_curvature_vec, axis=-1)[mask].max()
    assert err <= 5e-3
    g2 = geo.sample_chart(geo.Sphere(2, radius=1.0), 33)
    hvec2 = g2.laplacian_ambient(g2.X)
    err2 = np.linalg.norm(hvec2 - g2.mean_curvature_vec, axis=-1)[g2.interior_mask(2)].max()
    assert err2 <= 1e-3


def test_immersion_error_reports_location():
    bad = geo.Hyperplane(3, offset=0.0, polar=True,
                         box=[(1e-6, 1.0), (0, np.pi), (0, 2 * np.pi)])
    with pytest.raises(geo.ImmersionError) as err:
        geo.sample_chart(bad, 17)
    assert "det g" in str(err.value)
    # the first degenerate node in C order, located with np.linalg.det
    shape = (17, 17, 17)
    params, _ = geo._grid_for(bad.resolve_box(shape), shape, bad.periodic)
    J = bad.jacobian(np.stack(np.meshgrid(*params, indexing="ij"), axis=-1))
    det = np.linalg.det(np.swapaxes(J, -1, -2) @ J)
    idx = np.unravel_index(np.argmax(det <= geo.DET_FLOOR), shape)
    loc = tuple(float(params[a][idx[a]]) for a in range(3))
    assert f"at parameters {loc}" in str(err.value)
    # resample path: X = (u1, u2, u3 f(u1), 1) has det g = f(u1)^2 exactly,
    # with f = ((1.1 - u1)/2)^6 below the floor from u1 = 5/6 on
    g = geo.sample_chart(geo.Hyperplane(3, offset=1.0), 13)
    X = g.X.copy()
    X[..., 2] *= ((1.1 - X[..., 0]) / 2.0) ** 6
    with pytest.raises(geo.ImmersionError) as err:
        geo.geometry_from_positions(X, g.box, g.periodic, g.nu)
    assert f"at parameters {(float(g.params[0][11]), -1.0, -1.0)}" in str(err.value)
    # with f = ((1 - u1)/2)^6 the last u1 layer has a zero numeric normal:
    # rejected with its location before orientation, and without a warning
    X = g.X.copy()
    X[..., 2] *= ((1.0 - X[..., 0]) / 2.0) ** 6
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(geo.ImmersionError) as err:
            geo.geometry_from_positions(X, g.box, g.periodic, g.nu)
    assert "numeric normal" in str(err.value)
    assert "at parameters (1.0, -1.0, " in str(err.value)


def test_resolution_floor_enforced():
    with pytest.raises(ValueError):
        geo.sample_chart(geo.Hyperplane(2, offset=1.0), 7)


def test_numeric_path_matches_analytic():
    chart = geo.catalog(3)["catenoid_3"]
    g = geo.sample_chart(chart, 17)
    gn = geo.geometry_from_positions(g.X, g.box, g.periodic, g.nu,
                                     pole_ends=g.pole_ends)
    m = g.interior_mask(2)
    assert np.linalg.norm(gn.nu - g.nu, axis=-1)[m].max() <= 1e-4
    assert np.abs(gn.scalar_curvature - g.scalar_curvature)[m].max() <= 1e-2
    rs = geo.resample_normal_graph(g, np.zeros(g.shape), 0.0)
    assert np.abs(rs.mean_curvature - gn.mean_curvature).max() == 0.0


def test_boundary_faces_and_pole_skipping():
    sq = geo.sample_chart(geo.Hyperplane(2, offset=0.0, box=[(-1, 1), (-1, 1)]), 17)
    faces = geo.boundary_faces(sq)
    assert len(faces) == 4
    for f in faces:
        # outward conormal: positive dot with the face-center direction
        center = f.X.mean(axis=0)
        center[2] = 0.0
        assert np.einsum("d,pd->p", center, f.eta.reshape(-1, 3)).min() > 0
    assert geo.boundary_area(sq) == pytest.approx(8.0, abs=1e-12)
    # hemisphere cap keeps the rim, drops the polar inset faces
    cap = geo.sample_chart(
        geo.Sphere(3, radius=1.0, box=[(0.0, np.pi / 2), (0, np.pi), (0, 2 * np.pi)]),
        (17, 17, 16))
    faces = geo.boundary_faces(cap)
    assert [(f.axis, f.side) for f in faces] == [(0, -1)]
    assert sum(f.integrate(1.0) for f in faces) == pytest.approx(4 * np.pi, rel=2e-2)
    assert len(geo.boundary_faces(geo.sample_chart(geo.Sphere(3, 1.0), 13))) == 0


def test_intrinsic_radius_bounds_extrinsic():
    cone = geo.catalog(3)["cone"]
    g = geo.sample_chart(cone, 9)
    U = np.stack(np.meshgrid(*g.params, indexing="ij"), axis=-1)
    rbar = cone.intrinsic_radius(U)
    assert np.all(g.r <= rbar + 1e-12)


def test_export_csv(tmp_path):
    g = geo.sample_chart(geo.Hyperplane(2, offset=1.0), 9)
    path = tmp_path / "geom.csv"
    geo.export_csv(g, path)
    lines = path.read_text().splitlines()
    assert lines[0].split(",")[:3] == ["u1", "u2", "X1"]
    assert len(lines) == 1 + 81


EPS = np.finfo(float).eps


@pytest.mark.parametrize("n", [2, 3])
def test_closed_form_det_and_inverse_match_linalg(n):
    rng = np.random.default_rng(7)
    m = rng.normal(size=(2000, n, n))
    near = m.copy()
    near[:, 1] = 2.0 * m[:, 0] + 10.0 ** rng.uniform(-12, -2, size=(2000, 1)) \
        * rng.normal(size=(2000, n))
    for batch in (m, near):
        det, adj = geo._cofactors(batch)
        inv = adj / det[:, None, None]
        # both routes are backward stable: forward errors scale with cond
        bound = 8.0 * EPS * np.linalg.cond(batch)
        ref = np.linalg.det(batch)
        assert np.all(np.abs(det - ref) <= bound * np.abs(ref))
        ref_inv = np.linalg.inv(batch)
        assert np.all(np.abs(inv - ref_inv).max(axis=(1, 2))
                      <= bound * np.abs(ref_inv).max(axis=(1, 2)))


def test_cofactor_normal_matches_linalg_minors():
    rng = np.random.default_rng(11)
    frames = rng.normal(size=(2000, 4, 3))
    near = frames.copy()
    near[:, :, 2] = frames[:, :, 0] - 0.5 * frames[:, :, 1] \
        + 10.0 ** rng.uniform(-12, -2, size=(2000, 1)) * rng.normal(size=(2000, 4))
    rows = np.arange(4)
    for jac in (frames, near):
        ref = np.stack([(-1.0) ** i * np.linalg.det(jac[:, rows != i, :]) for i in range(4)],
                       axis=-1)
        raw = geo._generalized_cross(jac)
        bound = 8.0 * EPS * np.linalg.cond(jac)
        assert np.all(np.linalg.norm(raw - ref, axis=-1)
                      <= bound * np.linalg.norm(ref, axis=-1))
        # the unit normal is orthogonal to every column of the frame
        unit = raw / np.linalg.norm(raw, axis=-1)[:, None]
        assert np.all(np.abs(np.einsum("pd,pda->pa", unit, jac))
                      <= bound[:, None] * np.linalg.norm(jac, axis=1))


@pytest.mark.parametrize("c", [0.7, 1.0, 2.5])
def test_catenoid3_height_is_an_elliptic_integral(c):
    # z' = cosh(2t/c)^(-1/2) integrates to z = (c/sqrt2) F(beta | 1/2) with
    # theta = gd(2t/c) = 2 arctan(tanh(t/c)) and sin beta = sqrt2 sin(theta/2)
    from scipy.special import ellipkinc

    t = np.linspace(-0.8, 0.8, 161)
    theta = 2.0 * np.arctan(np.tanh(t / c))
    beta = np.arcsin(np.sqrt(2.0) * np.sin(theta / 2.0))
    exact = c / np.sqrt(2.0) * ellipkinc(beta, 0.5)
    assert np.abs(geo._catenoid3_height(t, c) - exact).max() <= 1e-15
    # position evaluates the height once per distinct t and broadcasts it
    chart = geo.Catenoid3(scale=c)
    g = geo.sample_chart(chart, 13)
    assert np.array_equal(g.X[..., 3],
                          np.broadcast_to(geo._catenoid3_height(g.params[0], c)[:, None, None],
                                          g.shape))
