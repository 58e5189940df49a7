import dataclasses
import functools
import math
import platform
import subprocess
import sys
import warnings
import zipfile

import numpy as np
import pytest

from anisocheck import geometry as geo
from anisocheck import integrand as ig
from anisocheck import schema as sch
from anisocheck import variation as va

EPS = np.finfo(float).eps


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


def _metric(g):
    """g_ab = J_da J_db of a sampled geometry's Jacobian, by einsum."""
    return np.einsum("...da,...db->...ab", g.jac, g.jac)


def principal_curvatures(shape_op, metric):
    """Sorted eigenvalues of the g-self-adjoint shape operator (batched)."""
    S = np.asarray(shape_op, dtype=float)
    g = np.asarray(metric, dtype=float)
    h = np.einsum("...ab,...bc->...ac", g, S)
    L = np.linalg.cholesky(g)
    tmp = np.linalg.solve(L, h)
    M = np.linalg.solve(L, np.swapaxes(tmp, -1, -2))
    return np.linalg.eigvalsh(0.5 * (M + np.swapaxes(M, -1, -2)))


def test_cylinder_principal_curvatures():
    g = geo.sample_chart(geo.Cylinder(3, link_radius=1.0), 13)
    ks = principal_curvatures(g.shape_op, _metric(g))
    assert np.allclose(ks.reshape(-1, 3), [0.0, 1.0, 1.0], atol=1e-12)


def test_catenoids_minimal_by_finite_difference_oracle():
    # numeric path: all fields rebuilt from node positions alone
    for chart, res, tol in ((geo.Catenoid2(1.0, (-1.0, 1.0)), (65, 128), 1e-6),
                            (geo.catalog(3)["catenoid_3"], 21, 5e-4)):
        g = geo.sample_chart(chart, res)
        gn = geo.geometry_from_positions(g.X, g.box, g.periodic, g.nu,
                                         pole_ends=g.pole_ends)
        mask = g.interior_mask()
        assert np.abs(gn.mean_curvature[mask]).max() <= tol
        # analytic parametrizations are minimal to machine precision
        assert np.abs(g.mean_curvature).max() <= 1e-12


def _gauss_residual(R, shape_op, metric):
    """max |R - 2 sum_{i<j} k_i k_j| over the nodes, k the principal
    curvatures: an eigenvalue route, independent of the traces that
    `curvature_scalars` takes."""
    ks = principal_curvatures(shape_op, metric)
    n = ks.shape[-1]
    sigma2 = sum(ks[..., i] * ks[..., j] for i in range(n) for j in range(i + 1, n))
    return float(np.abs(R - 2.0 * sigma2).max())


def test_gauss_identity_on_catalog():
    for n in (2, 3):
        for name, chart in geo.catalog(n).items():
            g = geo.sample_chart(chart, 9)
            assert _gauss_residual(g.scalar_curvature, g.shape_op, _metric(g)) <= 1e-12, name
            # closed forms at radius 1: n(n-1) on the sphere, (n-1)(n-2) on
            # the cylinder S^(n-1) x R, 0 on the hyperplane
            exact = {"sphere": n * (n - 1), "cylinder": (n - 1) * (n - 2), "hyperplane": 0}
            if name in exact:
                assert np.abs(g.scalar_curvature - exact[name]).max() <= 1e-10, name
    # negative control: R from a shape operator shifted by 1e-6 fails both
    g = geo.sample_chart(geo.catalog(3)["sphere"], 9)
    shifted = geo.curvature_scalars(g.shape_op + 1e-6 * np.eye(3))[2]
    assert _gauss_residual(shifted, g.shape_op, _metric(g)) > 1e-12
    assert np.abs(shifted - 6.0).max() > 1e-10


def test_gauss_scalar_examples():
    def gauss_scalar(S):
        return geo.curvature_scalars(np.asarray(S))[2]

    assert gauss_scalar(np.zeros((3, 3))) == 0.0
    umb = np.eye(3) / 2.0
    assert gauss_scalar(umb) == pytest.approx(9 / 4 - 3 / 4, abs=1e-15)
    S = np.diag([-np.sqrt(2.0), 1.0, 1.0])
    # H = 2 - sqrt2, |A|^2 = 4: R = H^2 - |A|^2 = 2 - 4 sqrt2
    assert gauss_scalar(S) == pytest.approx(2 - 4 * np.sqrt(2.0), abs=1e-12)
    assert gauss_scalar(S) == pytest.approx(-3.6568542494923806, abs=1e-12)
    H, A2, _ = geo.curvature_scalars(S)
    assert (H, A2) == pytest.approx((2 - np.sqrt(2.0), 4.0), abs=1e-15)


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
    mask = g.interior_mask()
    err = np.linalg.norm(hvec + g.mean_curvature[..., None] * g.nu, axis=-1)[mask].max()
    assert err <= 5e-3
    g2 = geo.sample_chart(geo.Sphere(2, radius=1.0), 33)
    hvec2 = g2.laplacian_ambient(g2.X)
    err2 = np.linalg.norm(hvec2 + g2.mean_curvature[..., None] * g2.nu,
                          axis=-1)[g2.interior_mask()].max()
    assert err2 <= 1e-3


def _positions_error(g, X):
    """ImmersionError text of positions X on the grid of g, raised by
    geometry_from_positions without a warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(geo.ImmersionError) as err:
            geo.geometry_from_positions(X, g.box, g.periodic, g.nu, chart_name=g.chart_name)
    return str(err.value)


def _resample_error(g, u):
    """ImmersionError text of the normal oracle of g with the speed u, the
    same (and raised without a warning) as that of geometry_from_positions
    on the immersion X + tau u nu of the first tau that degenerates."""
    oracle = va.NormalOracle(g, {"u": u})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(geo.ImmersionError) as resampled:
            oracle.phi_areas(ig.Integrand.isotropic(g.dim), "u")
        for tau in oracle.taus:
            try:
                geo.geometry_from_positions(g.X + tau * u[..., None] * g.nu, g.box, g.periodic,
                                            g.nu, chart_name=f"{g.chart_name}+normal")
            except geo.ImmersionError as full:
                assert str(resampled.value) == str(full)
                return tau, str(full)
    raise AssertionError("no immersion of the oracle degenerates")


def test_immersion_error_reports_location():
    bad = geo.Hyperplane(3, offset=0.0, polar=True,
                         box=[(1e-6, 1.0), (0, np.pi), (0, 2 * np.pi)])
    with pytest.raises(geo.ImmersionError) as err:
        geo.sample_chart(bad, 17)
    assert "det g" in str(err.value)
    # the first degenerate node in C order, located with np.linalg.det
    shape = (17, 17, 17)
    params, _ = geo._grid_for(bad.resolve_box(shape), shape, bad.periodic)
    J = bad.frame(np.stack(np.meshgrid(*params, indexing="ij"), axis=-1))[1]
    det = np.linalg.det(np.swapaxes(J, -1, -2) @ J)
    idx = np.unravel_index(np.argmax(det <= geo.DET_FLOOR), shape)
    loc = tuple(float(params[a][idx[a]]) for a in range(3))
    assert f"at parameters {loc}" in str(err.value)
    # resample path: X = (u1, u2, u3 f(u1), 1) has det g = f(u1)^2 exactly,
    # with f = ((1.1 - u1)/2)^6 below the floor from u1 = 5/6 on
    g = geo.sample_chart(geo.Hyperplane(3, offset=1.0), 13)
    X = g.X.copy()
    X[..., 2] *= ((1.1 - X[..., 0]) / 2.0) ** 6
    msg = _positions_error(g, X)
    assert f"at parameters {(float(g.params[0][11]), -1.0, -1.0)}" in msg
    # with f = ((1 - u1)/2)^6 the last u1 layer has a zero numeric normal:
    # rejected with its location before orientation, and without a warning
    X = g.X.copy()
    X[..., 2] *= ((1.0 - X[..., 0]) / 2.0) ** 6
    msg = _positions_error(g, X)
    assert "numeric normal" in msg
    assert "at parameters (1.0, -1.0, " in msg
    # oracle path: on the unit sphere X + tau u nu = (1 + tau u) X, and the
    # speed u = -b / (t max b) of the centered bump b collapses the
    # immersion at the bump's peak for tau = t alone
    for n in (2, 3):
        g = geo.sample_chart(geo.catalog(n)["sphere"], 13)
        b = va.bump_function(g, "centered")
        u = -b / (0.5 * min(g.spacings) * b.max())
        tau, msg = _resample_error(g, u)
        assert tau == 0.5 * min(g.spacings)
        assert "numeric normal" in msg and g.chart_name in msg


def test_resolution_floor_enforced():
    with pytest.raises(ValueError):
        geo.sample_chart(geo.Hyperplane(2, offset=1.0), 7)


def _sample_in_slabs(monkeypatch, chart, shape, layers):
    """sample_chart with slabs of ``layers`` whole layers of grid axis 0."""
    monkeypatch.setattr(geo, "_SLAB_NODES", layers * math.prod(shape[1:]))
    return geo.sample_chart(chart, shape)


def _derived_names(g):
    """The fields that a sampled geometry derives on read: its public
    cached properties."""
    return [name for name, attr in vars(type(g)).items()
            if isinstance(attr, functools.cached_property) and not name.startswith("_")]


def _field_names(g):
    """The fields that a sampled geometry stores, then those it derives."""
    return [f.name for f in dataclasses.fields(g)] + _derived_names(g)


def test_sampled_geometry_stores_seven_fields_and_derives_five():
    g = geo.sample_chart(geo.catalog(3)["cone"], 9)
    stored = [name for name in _field_names(g) if isinstance(getattr(g, name), np.ndarray)]
    assert stored[:7] == ["X", "nu", "jac", "metric_inv", "sqrt_det_g", "shape_op", "r"]
    assert stored[7:] == ["mean_curvature", "A2", "scalar_curvature", "grad_r", "radial_cos"]
    assert not hasattr(g, "metric")


def test_replaced_shape_operator_derives_its_own_curvatures():
    g = geo.sample_chart(geo.catalog(3)["sphere"], 9)
    H, R = g.mean_curvature, g.scalar_curvature
    doubled = dataclasses.replace(g, shape_op=2 * g.shape_op)
    assert np.array_equal(doubled.mean_curvature, 2 * H)
    assert np.array_equal(doubled.scalar_curvature, 4 * R)
    # the derived fields are kept: a second read returns the same arrays
    assert g.mean_curvature is H and doubled.grad_r is doubled.grad_r


def _assert_same_sample(g, ref):
    """Every stored and derived field of two samples holds the same bits in
    the same strides."""
    for name in _field_names(ref):
        a, b = getattr(g, name), getattr(ref, name)
        if isinstance(b, np.ndarray):
            assert (a.shape, a.strides, a.tobytes()) == (b.shape, b.strides, b.tobytes()), name
        elif name == "params":
            assert all(np.array_equal(p, q) for p, q in zip(a, b, strict=True))
        else:
            assert a == b, name


SLAB_CHARTS = {
    **{f"{name}{n}": (chart, (33, 24) if n == 2 else (25, 13, 24))
       for n in (2, 3) for name, chart in geo.catalog(n).items()},
    "polar_annulus3": (geo.Hyperplane(3, offset=0.0, polar=True,
                                      box=[(0.05, 1.0), (0.0, np.pi), (0.0, 2 * np.pi)]),
                       (25, 13, 24)),
    "clifford_cone": (geo.CliffordCone(2.0), (25, 13, 24)),
    "clifford_cone_41": (geo.CliffordCone(2.0), (41, 25, 25)),
}


@pytest.mark.parametrize("name", sorted(SLAB_CHARTS))
def test_sampled_fields_do_not_depend_on_the_slab_size(monkeypatch, name):
    # slabs of one layer, of 7 layers (which do not divide 25, 33 or 41)
    # and of the whole grid give the default's bits and strides; the
    # default cuts the 41 x 25 x 25 cone into slabs of 26 and 15 layers
    chart, shape = SLAB_CHARTS[name]
    ref = geo.sample_chart(chart, shape)
    for layers in (1, 7, shape[0]):
        _assert_same_sample(_sample_in_slabs(monkeypatch, chart, shape, layers), ref)


def test_origin_in_a_middle_slab_is_on_the_chart(monkeypatch):
    # the node u = 0 of the 9^3 plane through the origin lies in layer 4,
    # the middle one of three 3-layer slabs
    chart = geo.Hyperplane(3, offset=0.0, box=[(-1.0, 1.0)] * 3)
    ref = geo.sample_chart(chart, (9, 9, 9))
    for layers in (1, 3, 9):
        g = _sample_in_slabs(monkeypatch, chart, (9, 9, 9), layers)
        assert g.origin_on_chart
        _assert_same_sample(g, ref)
    assert g.r[4, 4, 4] == 0.0 and g.radial_cos[4, 4, 4] == 0.0
    assert not g.grad_r[4, 4, 4].any()


class _PinchedSlab(geo.Chart):
    """X = (u1, u2, f u3, 1) with f = 1 - u1 + 1e-4 (1 - u2)^2, so det g = f^2:
    on [-1, 1]^3 at 13 nodes the metric degenerates only in the last u1
    layer, from u2 = 5/6 on."""

    name = "pinched"

    def __init__(self):
        super().__init__(3, [(-1.0, 1.0)] * 3)

    def frame(self, u):
        u1, u2, u3 = (u[..., a] for a in range(3))
        f, f2 = 1.0 - u1 + 1e-4 * (1.0 - u2) ** 2, -2e-4 * (1.0 - u2)
        X, J, d2, nu = (geo._planes(u.shape[:-1], (4,) + (3,) * k) for k in (0, 1, 2, 0))
        X[..., 0], X[..., 1], X[..., 2], X[..., 3] = u1, u2, f * u3, 1.0
        J[..., 0, 0] = J[..., 1, 1] = 1.0
        J[..., 2, 0], J[..., 2, 1], J[..., 2, 2] = -u3, f2 * u3, f
        d2[..., 2, 1, 1] = 2e-4 * u3
        d2[..., 2, 0, 2] = d2[..., 2, 2, 0] = -1.0
        d2[..., 2, 1, 2] = d2[..., 2, 2, 1] = f2
        nu[..., 3] = 1.0
        return X, J, d2, nu


def test_degenerate_metric_in_the_last_slab_is_located_as_in_one_slab(monkeypatch):
    chart, shape = _PinchedSlab(), (13, 13, 13)
    messages = []
    for layers in (13, 1, 5):
        with pytest.raises(geo.ImmersionError) as err:
            _sample_in_slabs(monkeypatch, chart, shape, layers)
        messages.append(str(err.value))
    assert len(set(messages)) == 1
    params, _ = geo._grid_for(chart.box, shape, chart.periodic)
    assert f"at parameters {(1.0, float(params[1][11]), -1.0)}" in messages[0]


def test_slabbed_sample_holds_little_more_than_its_fields():
    # the 49^3 cone of the conformal qform companion stores 35.9 MiB of
    # fields: its traced peak read 51.4 MiB; with all fourteen fields stored
    # it read 70.3 MiB, and with the frame, d^2X, h and adj g formed over
    # the whole grid the transient alone was 1.05 times the fields
    tracemalloc = pytest.importorskip("tracemalloc")
    chart = geo.catalog(3)["cone"]
    tracemalloc.start()
    try:
        g = geo.sample_chart(chart, 49)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 56 * 2**20
    # sampling derives nothing
    assert not set(_derived_names(g)) & set(vars(g))


def _dense_five_point(m, h, periodic):
    """The five-point first-derivative matrix, built row by row: the
    central row (1, -8, 0, 8, -1) / 12h, wrapped on a periodic axis, and
    the one-sided fourth-order rows and their negated mirror images at the
    ends of a non-periodic one."""
    D = np.zeros((m, m))
    central = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
    for i in range(m):
        if periodic or 2 <= i < m - 2:
            D[i, (i + np.arange(-2, 3)) % m] = central
    if not periodic:
        D[0, :5] = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0
        D[1, :5] = np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / 12.0
        D[-1, -5:] = -D[0, :5][::-1]
        D[-2, -5:] = -D[1, :5][::-1]
    return D / h


def _along(D, f, axis):
    """D applied to f along ``axis`` (a BLAS product: the independent route)."""
    return np.moveaxis(np.tensordot(D, f, axes=([1], [axis])), 0, axis)


def _within_rounding(out, ref, D, f, axis):
    """|out - ref| <= 4 eps (|D| |f|) at every node, the rounding bound of
    a row's sum of products.  4 eps max|f| / h would not cover the
    one-sided rows, whose coefficients sum to 128 / 12h in absolute value."""
    return np.all(np.abs(out - ref) <= 4.0 * EPS * _along(np.abs(D), np.abs(f), axis))


@pytest.mark.parametrize("m", [8, 9, 25])
@pytest.mark.parametrize("periodic", [False, True])
@pytest.mark.parametrize("lead", [(), (4,)], ids=["scalar", "stacked"])
def test_five_point_kernel_matches_the_dense_matrix(m, periodic, lead):
    # a C-order scalar field and an entry-major (4,) + grid stack, each
    # differentiated along every grid axis
    h = 0.3
    f = np.random.default_rng(m).standard_normal(lead + (m, m, m))
    D = _dense_five_point(m, h, periodic)
    for a in range(3):
        axis = len(lead) + a
        out = geo.five_point(f, axis, h, periodic, out=np.empty_like(f))
        assert _within_rounding(out, _along(D, f, axis), D, f, axis)


def _stacked_along(profile, a, m):
    """A (4,) + (m, m, m) stack whose fields vary along grid axis a as
    ``profile`` (one value per node), each times its own weight."""
    shape = [1, 1, 1, 1]
    shape[1 + a] = m
    weight = np.random.default_rng(m).uniform(0.5, 1.5, size=(4, m, m))
    return profile.reshape(shape) * np.moveaxis(weight[..., None], -1, 1 + a)


@pytest.mark.parametrize("m", [8, 9, 25])
def test_five_point_kernel_is_exact_on_quartics(m):
    # fourth order, the one-sided end rows too
    quartic = np.polynomial.Polynomial(np.random.default_rng(m).standard_normal(5))
    u = np.linspace(-1.0, 2.0, m)
    h = u[1] - u[0]
    D = _dense_five_point(m, h, False)
    for a in range(3):
        f = _stacked_along(quartic(u), a, m)
        out = geo.five_point(f, 1 + a, h, False, out=np.empty_like(f))
        assert _within_rounding(out, _stacked_along(quartic.deriv()(u), a, m), D, f, 1 + a)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= EPS,
                    reason="needs a long double wider than a double")
@pytest.mark.parametrize("m", [8, 9, 25])
def test_five_point_kernel_maps_grid_modes_to_their_symbol(m):
    # on a periodic grid, d/du sin(k u) -> sigma_k cos(k u) and
    # cos(k u) -> -sigma_k sin(k u) exactly, sigma_k = (8 sin kh - sin 2kh)/6h;
    # the modes and sigma_k are formed in long double and rounded once, so
    # the rounding of the nodes 2 pi i / m does not enter
    step = 2.0 * np.pi / m
    h = 8 * np.arctan(np.longdouble(1)) / m
    theta = h * np.arange(m)
    D = _dense_five_point(m, step, True)
    for k in (1, 2):
        symbol = (8 * np.sin(k * h) - np.sin(2 * k * h)) / (6 * h)
        for mode, image in ((np.sin(k * theta), symbol * np.cos(k * theta)),
                            (np.cos(k * theta), -symbol * np.sin(k * theta))):
            for a in range(3):
                f = _stacked_along(mode.astype(float), a, m)
                out = geo.five_point(f, 1 + a, step, True, out=np.empty_like(f))
                exact = _stacked_along(image.astype(float), a, m)
                assert _within_rounding(out, exact, D, f, 1 + a)


def test_numeric_path_matches_analytic():
    chart = geo.catalog(3)["catenoid_3"]
    g = geo.sample_chart(chart, 17)
    gn = geo.geometry_from_positions(g.X, g.box, g.periodic, g.nu,
                                     pole_ends=g.pole_ends)
    m = g.interior_mask()
    assert np.linalg.norm(gn.nu - g.nu, axis=-1)[m].max() <= 1e-4
    assert np.abs(gn.scalar_curvature - g.scalar_curvature)[m].max() <= 1e-2


CATALOG_SAMPLES = [pytest.param(n, name, id=f"{name}{n}")
                   for n in (2, 3) for name in geo.catalog(n)]
TAUS = (0.005, -0.005, 0.01, -0.01)


def _perturbed(n, name):
    """A catalog sample and a smooth speed u on it that vanishes on two node
    layers at the boundary."""
    g = geo.sample_chart(geo.catalog(n)[name], 17 if n == 2 else 13)
    u = np.cos(3.0 * g.X[..., 0]) * np.sin(2.0 * g.X[..., -1] + 0.5)
    return g, u * va.bump_function(g, "centered")


@pytest.mark.parametrize("n, name", CATALOG_SAMPLES)
def test_oracle_jacobian_is_linear_in_tau(n, name):
    # finite differences are linear: the Jacobian that the oracle takes of
    # X + tau u nu is J0 + tau J1, J0 and J1 those of X and u nu, to rounding
    g, u = _perturbed(n, name)
    jac0 = geo.fd_jacobian(g.X, g.spacings, g.periodic)
    jac1 = geo.fd_jacobian(u[..., None] * g.nu, g.spacings, g.periodic)
    for tau in TAUS:
        jac = geo.fd_jacobian(g.X + tau * u[..., None] * g.nu, g.spacings, g.periodic)
        assert np.abs(jac0 + tau * jac1 - jac).max() <= 1e-12 * np.abs(jac).max()


@pytest.mark.parametrize("n, name", CATALOG_SAMPLES)
def test_cross_product_norm_is_the_metric_determinant(n, name):
    # the oracle's nu at each tau is the normal that geometry_from_positions
    # builds from the perturbed positions, bit for bit, and its area element
    # |N| has |N|^2 = det(J^T J) (Cauchy-Binet)
    g, u = _perturbed(n, name)
    oracle = va.NormalOracle(g, {"u": u})
    for tau, (nu, norm) in zip(oracle.taus, oracle._resample("u"), strict=True):
        X = g.X + tau * u[..., None] * g.nu
        jac = geo.fd_jacobian(X, g.spacings, g.periodic)
        det = np.linalg.det(np.swapaxes(jac, -1, -2) @ jac)
        assert np.abs(norm * norm - det).max() <= 1e-12 * det.max()
        full = geo.geometry_from_positions(X, g.box, g.periodic, g.nu, pole_ends=g.pole_ends)
        assert np.array_equal(nu, full.nu)


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


def _chart_state(chart, shape, path):
    g = geo.sample_chart(chart, shape)
    geo.export_csv(g, path)
    return chart.box, chart.periodic, chart.pole_ends, g.box, path.read_bytes()


@pytest.mark.parametrize("kind, theta", [("cylinder", 0), ("catenoid_3", 1), ("cone", 1)])
def test_explicit_full_theta_range_is_the_default_chart(tmp_path, kind, theta):
    # a job's [0, pi] theta_range has poles at both ends, as the default has
    explicit = sch.build_chart({"kind": kind, "n": 3, "theta_range": [0.0, math.pi]})
    default = sch.build_chart({"kind": kind, "n": 3})
    assert explicit.pole_ends == ((theta, 0), (theta, -1))
    assert (_chart_state(explicit, 13, tmp_path / "explicit.csv")
            == _chart_state(default, 13, tmp_path / "default.csv"))


def test_half_azimuth_range_is_an_open_seam():
    band = (0.25 * np.pi, 0.75 * np.pi)
    for chart in (geo.Sphere(3, 1.0, box=[band, band, (0.0, np.pi)]),
                  geo.Hyperplane(3, offset=0.0, polar=True,
                                 box=[(0.05, 1.0), (0.0, np.pi), (0.0, np.pi)])):
        g = geo.sample_chart(chart, 13)
        faces = [(f.axis, f.side) for f in geo.boundary_faces(g)]
        assert not any(g.periodic), chart.name
        assert (2, 0) in faces and (2, -1) in faces, chart.name
    # a 2 pi span stays a seam, on the link's first axis too
    assert geo.Cylinder(2).periodic == (True, False)
    # the phi in [0, pi] sphere band: |M| = (pi/4 + 1/2) sqrt2 pi and
    # |dM| = 2 sqrt2 pi (t and phi faces) + 2 pi (theta faces)
    g = geo.sample_chart(geo.Sphere(3, 1.0, box=[band, band, (0.0, np.pi)]), 25)
    assert g.integrate() == pytest.approx((np.pi / 4 + 0.5) * np.sqrt(2) * np.pi, rel=1e-2)
    assert geo.boundary_area(g) == pytest.approx(2 * np.sqrt(2) * np.pi + 2 * np.pi,
                                                 rel=1e-2)


def test_inner_polar_angle_ends_are_boundary():
    # theta in [0.3, 0.6] on the polar ball slab s in [a, 1]: no pole, and
    # |M| = (1 - a^3)/3 dcos 2 pi, |dM| = (1 + a^2) dcos 2 pi (s faces)
    # + (1 - a^2)/2 (sin 0.3 + sin 0.6) 2 pi (theta faces)
    a = 0.05
    chart = geo.Hyperplane(3, offset=0.0, polar=True,
                           box=[(a, 1.0), (0.3, 0.6), (0.0, 2 * np.pi)])
    assert chart.pole_ends == () and chart.periodic == (False, False, True)
    g = geo.sample_chart(chart, 13)
    dcos = np.cos(0.3) - np.cos(0.6)
    assert g.integrate() == pytest.approx((1 - a**3) / 3 * dcos * 2 * np.pi, rel=1e-2)
    assert geo.boundary_area(g) == pytest.approx(
        (1 + a**2) * dcos * 2 * np.pi + (1 - a**2) / 2 * (np.sin(0.3) + np.sin(0.6)) * 2 * np.pi,
        rel=1e-2)


class _TwoLinks(geo.Join):
    """A two-link chart on any box (n = 3): the Clifford cone's profile for
    q = 1, and for q = 2 the cylinder X = (s, eta) over the 2-sphere link."""

    def __init__(self, q, box):
        self.q = q
        super().__init__(3, box)

    def _profile(self, s):
        if self.q == 1:
            return geo.CliffordCone._profile(self, s)
        return (s, 1.0, 0.0, 1.0, 0.0, 0.0), (0.0, 1.0)


@pytest.mark.parametrize("q, box, periodic, pole_ends", [
    # each circle link's azimuth is periodic exactly when it spans 2 pi,
    # and a circle's angle has no pole, even at 0 or pi
    (1, [(1.0, 2.0), (0.0, 2 * np.pi), (0.0, np.pi)], (False, True, False), ()),
    (1, [(1.0, 2.0), (0.0, np.pi), (0.0, 2 * np.pi)], (False, False, True), ()),
    # the theta of a 2-sphere second link has its poles at 0 and pi
    (2, [(0.0, 1.0), (0.0, np.pi), (0.0, 2 * np.pi)], (False, False, True),
     ((1, 0), (1, -1))),
    (2, [(0.0, 1.0), (0.3, np.pi), (0.0, np.pi)], (False, False, False), ((1, -1),)),
])
def test_seam_and_pole_rules_hold_on_both_links(q, box, periodic, pole_ends):
    chart = _TwoLinks(q, box)
    assert chart.periodic == periodic and chart.pole_ends == pole_ends
    g = geo.sample_chart(chart, 13)
    assert g.periodic == periodic and g.pole_ends == pole_ends
    # the cone is minimal with |A|^2 = 2 / s^2; the cylinder over S^2 has
    # principal curvatures 0, 1, 1
    H, A2 = (0.0, 2.0 / g.r**2) if q == 1 else (2.0, 2.0)
    assert np.abs(g.mean_curvature - H).max() <= 1e-13
    assert np.abs(g.A2 - A2).max() <= 1e-13


def test_clifford_cone_curvatures():
    chart = geo.CliffordCone(2.0)
    assert chart.periodic == (False, True, True) and chart.pole_ends == ()
    assert chart.box[0] == (1.0, math.exp(2.0))
    g = geo.sample_chart(chart, (17, 16, 16))
    r2 = g.r**2
    assert np.abs(g.mean_curvature).max() <= 1e-14
    assert np.abs(g.A2 * r2 - 2.0).max() <= 1e-13
    assert np.abs(g.scalar_curvature * r2 + 2.0).max() <= 1e-13


def test_cartesian_charts_have_no_seam_and_no_pole():
    box = [(0.0, np.pi), (0.0, 2 * np.pi), (-np.pi, np.pi)]
    for chart in (geo.Hyperplane(3, offset=1.0, box=box), geo.Graph(3, box=box)):
        assert chart.periodic == (False, False, False) and chart.pole_ends == ()
        assert len(geo.boundary_faces(geo.sample_chart(chart, 9))) == 6


def test_intrinsic_radius_bounds_extrinsic():
    cone = geo.catalog(3)["cone"]
    g = geo.sample_chart(cone, 9)
    U = np.stack(np.meshgrid(*g.params, indexing="ij"), axis=-1)
    rbar = cone.intrinsic_radius(U)
    assert np.all(g.r <= rbar + 1e-12)


# -0.0 beside 0.0, NaNs of both signs and another payload, infinities,
# subnormals and the largest double
SPECIAL = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -2.5e-310,
                    1e-100, 1e100, -1.5e250, 1.7976931348623157e308, 1.0, -np.pi,
                    np.uint64(0x7FF8000000000001).view(np.float64)])


def _synthetic(shape, values):
    """A two-parameter geometry in R^3 over ``shape`` whose parameters and
    fields are drawn from ``values`` (a callable of a size)."""
    base = geo.sample_chart(geo.Hyperplane(2, offset=1.0), 8)
    fields = {key: values(shape + (3,)) for key in ("X", "nu", "grad_r")}
    fields.update({key: values(shape) for key in ("sqrt_det_g", "mean_curvature", "A2",
                                                  "scalar_curvature", "r", "radial_cos")})
    stored = {key: fields.pop(key) for key in ("X", "nu", "sqrt_det_g", "r")}
    geom = dataclasses.replace(base, shape=shape, params=[values(m) for m in shape],
                               **stored)
    # the derived fields, set on the instance in place of their derivation
    for key, value in fields.items():
        setattr(geom, key, value)
    return geom


def _exported(geom):
    """The arrays that a geometry archive must hold, by name."""
    arrays = {f"u{a + 1}": p for a, p in enumerate(geom.params)}
    arrays.update(X=geom.X, nu=geom.nu, sqrt_det_g=geom.sqrt_det_g, H=geom.mean_curvature,
                  A2=geom.A2, R=geom.scalar_curvature, r=geom.r,
                  radial_cos=geom.radial_cos, grad_r=geom.grad_r)
    return arrays


@pytest.mark.parametrize("n, name", [(n, name) for n in (2, 3) for name in geo.catalog(n)]
                         + [pytest.param(None, "special", id="special")])
def test_export_round_trips_bit_for_bit(tmp_path, assert_archive_bits, n, name):
    if n is None:
        rng = np.random.default_rng(3)
        geom = _synthetic((6, 7), lambda size: rng.choice(SPECIAL, size))
        geom.X[0, 0, :2] = 0.0, -0.0     # both zeros, whatever the draw
    else:
        geom = geo.sample_chart(geo.catalog(n)[name], 9)
    geo.export_csv(geom, tmp_path / "geometry.npz")
    assert_archive_bits(tmp_path / "geometry.npz", _exported(geom))


def test_export_csv(tmp_path):
    g = geo.sample_chart(geo.Hyperplane(2, offset=1.0), 9)
    path = tmp_path / "geom.csv"
    geo.export_csv(g, path)
    with np.load(path) as archive:
        assert archive.files[:3] == ["u1", "u2", "X"]
        assert archive["u1"].shape == archive["u2"].shape == (9,)
        assert archive["X"].shape == (9, 9, 3)


def _savetxt_csv(params, fields, path):
    """The old geometry.csv: one row per node (the axes unravelled in C
    order), the columns u, X, nu, sqrt_det_g, H, A2, R, r, radial_cos,
    grad_r, written by np.savetxt."""
    n, d = len(params), fields[0].shape[-1]
    U = np.stack(np.meshgrid(*params, indexing="ij"), axis=-1).reshape(-1, n)
    data = np.column_stack([U] + [f.reshape(len(U), -1) for f in fields])
    header = ([f"u{a+1}" for a in range(n)] + [f"X{i+1}" for i in range(d)]
              + [f"nu{i+1}" for i in range(d)]
              + ["sqrt_det_g", "H", "A2", "R", "r", "radial_cos"]
              + [f"grad_r{i+1}" for i in range(d)])
    np.savetxt(path, data, fmt="%.18e", delimiter=",", header=",".join(header),
               comments="")


def _assert_export_matches_savetxt(geom, tmp_path):
    """The archive carries the old text table: the CSV that np.savetxt
    writes from its arrays equals the one it writes from the geometry."""
    geo.export_csv(geom, tmp_path / "geometry.npz")
    with np.load(tmp_path / "geometry.npz") as archive:
        params = [archive[f"u{a + 1}"] for a in range(geom.n)]
        fields = [archive[k] for k in ("X", "nu", "sqrt_det_g", "H", "A2", "R", "r",
                                       "radial_cos", "grad_r")]
    _savetxt_csv(params, fields, tmp_path / "export.csv")
    _savetxt_csv(geom.params, [geom.X, geom.nu, geom.sqrt_det_g, geom.mean_curvature,
                               geom.A2, geom.scalar_curvature, geom.r, geom.radial_cos,
                               geom.grad_r], tmp_path / "savetxt.csv")
    assert (tmp_path / "export.csv").read_bytes() == (tmp_path / "savetxt.csv").read_bytes()


@pytest.mark.parametrize("n, name", [(n, name) for n in (2, 3) for name in geo.catalog(n)])
def test_export_csv_matches_savetxt_on_the_catalog(tmp_path, n, name):
    _assert_export_matches_savetxt(geo.sample_chart(geo.catalog(n)[name], 9), tmp_path)


def test_export_csv_matches_savetxt_on_special_values(tmp_path):
    rng = np.random.default_rng(3)
    geom = _synthetic((6, 7), lambda size: rng.choice(SPECIAL, size))
    geom.X[0, 0, :2] = 0.0, -0.0     # side by side in one row
    _assert_export_matches_savetxt(geom, tmp_path)
    assert "0.000000000000000000e+00,-0.000000000000000000e+00" in \
        (tmp_path / "export.csv").read_text()


def test_export_csv_matches_savetxt_on_distinct_values(tmp_path):
    rng = np.random.default_rng(4)
    geom = _synthetic((40, 41), lambda size: rng.normal(size=size)
                      * 10.0 ** rng.uniform(-300, 300, size))
    _assert_export_matches_savetxt(geom, tmp_path)


def test_export_writes_the_given_path_with_fixed_bytes(tmp_path):
    geom = geo.sample_chart(geo.catalog(3)["catenoid_3"], 9)
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in paths:
        geo.export_csv(geom, path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv", "b.csv"]
    assert paths[0].read_bytes() == paths[1].read_bytes()
    with zipfile.ZipFile(paths[0]) as archive:
        members = archive.infolist()
    assert [m.filename for m in members] == [f"{k}.npy" for k in _exported(geom)]
    assert {m.date_time for m in members} == {(1980, 1, 1, 0, 0, 0)}
    assert {m.compress_type for m in members} == {zipfile.ZIP_STORED}


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


_KERNEL_PROBES = """
import dataclasses, functools, hashlib
import numpy as np
from anisocheck import acceptance as ac, geometry as geo, integrand as ig, variation as va


def digest(values):
    h = hashlib.sha256()
    for a in values:
        h.update(np.ascontiguousarray(a).tobytes() if isinstance(a, (np.ndarray, np.generic))
                 else repr(a).encode())
    return h.hexdigest()


def fields(g):
    # the stored fields, then the public cached properties derived on read
    derived = [name for name, attr in vars(type(g)).items()
               if isinstance(attr, functools.cached_property) and not name.startswith("_")]
    for name in [f.name for f in dataclasses.fields(g)] + derived:
        value = getattr(g, name)
        yield from value if isinstance(value, list) else [value]


g = geo.sample_chart(geo.Catenoid3(theta_range=(0.25 * np.pi, 0.75 * np.pi)), 25)
cone = geo.sample_chart(geo.CliffordCone(2.0), (17, 16, 16))
print(digest([*fields(g), *fields(cone)]))
oracle = va.NormalOracle(g, {"centered": va.bump_function(g, "centered")})
fd = oracle.first_difference(ig.Integrand.isotropic(4), "centered")
print(digest([geo.fd_jacobian(g.X, g.spacings, g.periodic), g.param_gradient(g.r),
              g.laplacian(np.log(g.r)), np.float64(fd)]))
print(*[repr(r.value) for r in ac.criterion_curvature_ricci()
        if r.name.endswith("argmin reproduction error")])
"""
BLAS_KERNELS = ("Nehalem", "Sandybridge")
x86_only = pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                              reason="OPENBLAS_CORETYPE names x86-64 kernels")


@pytest.fixture(scope="module")
def kernel_probes(child_env):
    """Per OpenBLAS kernel, the lines one child process prints: the digest
    of every sampled field of the catenoid_3 band and the Clifford cone, the
    digest of the band's derivatives and one normal-graph oracle
    difference, and the curvature and Ricci argmin reproduction errors.
    The two children run side by side."""
    procs = {core: subprocess.Popen([sys.executable, "-c", _KERNEL_PROBES],
                                    stdout=subprocess.PIPE, text=True,
                                    env={**child_env, "OPENBLAS_CORETYPE": core})
             for core in BLAS_KERNELS}
    lines = {}
    for core, proc in procs.items():
        out, _ = proc.communicate(timeout=300)
        assert proc.returncode == 0, core
        lines[core] = out.splitlines()
    return lines


@x86_only
def test_sampled_fields_do_not_depend_on_the_blas_kernel(kernel_probes):
    # a per-node BLAS product (g = J^T J and S = g^-1 h by stacked matmul)
    # gave different bits under these two kernels
    digests = [kernel_probes[core][0] for core in BLAS_KERNELS]
    assert digests[0] and digests[0] == digests[1]


@x86_only
def test_derivatives_do_not_depend_on_the_blas_kernel(kernel_probes):
    # the finite-difference Jacobian, gradient, Laplacian and one
    # normal-graph oracle difference: a tensordot with a dense derivative
    # matrix gave different bits under these two kernels
    digests = [kernel_probes[core][1] for core in BLAS_KERNELS]
    assert digests[0] and digests[0] == digests[1]


@x86_only
def test_argmin_reproduction_is_exact_under_another_blas_kernel(kernel_probes):
    # the scalar curvature and Ricci evaluators sum in the sweep kernels'
    # order: with BLAS dots they missed the sweep's witnesses by 1 ulp
    # (2.2e-16 and 1.1e-16) under Nehalem
    for core in BLAS_KERNELS:
        assert kernel_probes[core][2].split() == ["0.0", "0.0"], core


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
        raw = np.stack(geo._generalized_cross(jac), axis=-1)
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


FRAME_CHARTS = {
    **{f"{name}{n}": chart for n in (2, 3) for name, chart in geo.catalog(n).items()},
    "polar_plane2": geo.Hyperplane(2, offset=0.0, polar=True),
    "polar_plane3": geo.Hyperplane(3, offset=0.0, polar=True),
    "sphere3_poles": geo.Sphere(3, radius=1.5, center=[0.1, -0.2, 0.3, 0.5]),
    "graph_sine2": geo.Graph(2, "sine"),
    "graph_sine3": geo.Graph(3, "sine"),
    "clifford_cone": geo.CliffordCone(2.0),
}


def _outward(chart, X):
    """A direction the unit normal must have a positive component along:
    away from the center of a sphere, up for graphs and hyperplanes, and
    for the other two-link charts the first link's part (rho omega, 0)."""
    if isinstance(chart, geo.Sphere):
        return X - chart.center
    if isinstance(chart, (geo.Graph, geo.Hyperplane)):
        return np.broadcast_to(np.eye(chart.dim)[-1], X.shape)
    out = X.copy()
    out[..., chart.n - chart.q:] = 0.0
    return out


@pytest.mark.parametrize("name", sorted(FRAME_CHARTS))
def test_frame_matches_differences_of_its_position(name):
    chart = FRAME_CHARTS[name]
    lo, hi = np.array(chart.box).T
    frac = np.stack(np.meshgrid(*[[0.3, 0.5, 0.7]] * chart.n, indexing="ij"), axis=-1)
    U = lo + frac.reshape(-1, chart.n) * (hi - lo)
    X, J, d2X, nu = chart.frame(U)
    # fourth-order central differences of X alone: truncation h^4 |X^(5)|
    # and roundoff eps |X| / h^2 both lie far below the tolerance
    h, tol = 5e-3, 1e-7
    weights = {-2: 1 / 12, -1: -8 / 12, 1: 8 / 12, 2: -1 / 12}

    def diff(f, a):
        step = h * np.eye(chart.n)[a]
        return lambda V: sum(w * f(V + k * step) for k, w in weights.items()) / h

    def position(V):
        return chart.frame(V)[0]

    for a in range(chart.n):
        assert np.abs(diff(position, a)(U) - J[..., a]).max() <= tol
        for b in range(chart.n):
            assert np.abs(diff(diff(position, a), b)(U) - d2X[..., a, b]).max() <= tol
    assert np.abs(np.linalg.norm(nu, axis=-1) - 1.0).max() <= 1e-14
    assert np.abs(np.einsum("pd,pda->pa", nu, J)).max() <= 1e-14
    assert np.all(np.einsum("pd,pd->p", nu, _outward(chart, X)) > 0.0)
    if name.startswith("polar_plane"):
        assert np.array_equal(nu, np.broadcast_to(np.eye(chart.dim)[-1], nu.shape))
