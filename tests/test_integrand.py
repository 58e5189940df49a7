from types import SimpleNamespace

import numpy as np
import pytest

from anisocheck import cli
from anisocheck import inequalities as iq
from anisocheck import integrand as ig
from anisocheck import schema as sch

SQRT2 = np.sqrt(2.0)


def test_isotropic_derivatives_at_unit_vector():
    iso = ig.Integrand.isotropic(4)
    nu = np.array([0.5, 0.5, 0.5, 0.5])
    phi, grad, hess = iso.value(nu), iso.gradient(nu), iso.hessian(nu)
    assert phi == pytest.approx(1.0, abs=1e-15)
    assert np.allclose(grad, nu, atol=1e-15)
    assert np.allclose(hess, np.eye(4) - np.outer(nu, nu), atol=1e-15)


def test_quadratic_identity_matrix_equals_isotropic():
    iso = ig.Integrand.isotropic(4)
    quad = ig.Integrand.quadratic(np.eye(4))
    rng = np.random.default_rng(3)
    v = rng.normal(size=(50, 4))
    # with L = I the pull L^T v and the push by L are exact
    assert np.array_equal(quad.value(v), iso.value(v))
    assert np.array_equal(quad.gradient(v), iso.gradient(v))
    assert np.array_equal(quad.hessian(v), iso.hessian(v))


def test_rotated_quadratic_matches_closed_forms():
    # A = Q diag(1, 1, 1, 4) Q^T is not diagonal, so its Cholesky factor L is
    # not symmetric and a pull by L in place of L^T shows; the reference is
    # the closed form of sqrt(v^T A v) and its derivatives
    Q, _ = np.linalg.qr(np.random.default_rng(17).normal(size=(4, 4)))
    A = Q @ np.diag([1.0, 1.0, 1.0, 4.0]) @ Q.T
    A = 0.5 * (A + A.T)
    assert np.abs(A - np.diag(np.diag(A))).max() > 0.1
    quad = ig.Integrand.quadratic(A)
    v = np.random.default_rng(4).normal(size=(200, 4))
    Av = v @ A
    phi = np.sqrt(np.einsum("pi,pi->p", v, Av))
    grad = Av / phi[:, None]
    hess = (A / phi[:, None, None]
            - Av[:, :, None] * Av[:, None, :] / phi[:, None, None] ** 3)
    for got, ref in ((quad.value(v), phi), (quad.gradient(v), grad),
                     (quad.hessian(v), hess)):
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


def test_quadratic_rejects_an_indefinite_matrix():
    with pytest.raises(ValueError):
        ig.Integrand.quadratic(np.diag([1.0, 1.0, -1.0, 1.0]))
    with pytest.raises(ValueError):
        ig.Integrand.quadratic(np.array([[1.0, 0.5, 0.0], [0.4, 1.0, 0.0], [0.0, 0.0, 1.0]]))


def test_symmetry_test_is_absolute():
    # an asymmetry of 4e-6, inside numpy's default relative tolerance of
    # allclose, is rejected by the constructor and by the job schema alike
    near = [[1.0, 0.5, 0.0], [0.500004, 1.0, 0.0], [0.0, 0.0, 1.0]]
    with pytest.raises(ValueError, match="symmetric"):
        ig.Integrand.quadratic(near)
    job = {"command": "integrand",
           "inputs": {"integrand": {"kind": "quadratic", "dim": 3, "matrix": near}}}
    assert any("matrix" in e and "symmetric" in e for e in sch.validate_job(job))
    # round-off below the absolute tolerance still counts as symmetric
    ig.Integrand.quadratic(np.eye(3) + 1e-13 * np.triu(np.ones((3, 3)), 1))


def test_describe_keeps_every_digit_of_epsilon():
    eps = 0.123456789
    text = ig.Integrand.perturbed(4, eps, "axis2").describe()
    assert text == "perturbed(eps=0.123456789, axis2)"
    assert float(text.split("eps=")[1].split(",")[0]) == eps
    assert ig.Integrand.perturbed(4, 0.1, "saddle2").describe() == "perturbed(eps=0.1, saddle2)"


def test_quadratic_aniso4_at_first_axis():
    quad = ig.Integrand.quadratic(np.diag([1.0, 1.0, 1.0, 4.0]))
    e1 = np.array([1.0, 0.0, 0.0, 0.0])
    phi, grad, hess = quad.value(e1), quad.gradient(e1), quad.hessian(e1)
    assert phi == pytest.approx(1.0, abs=1e-15)
    assert np.allclose(grad, e1, atol=1e-15)
    assert hess[3, 3] == pytest.approx(4.0, abs=1e-14)


def test_schema_accepts_exactly_the_matrices_the_integrand_factors():
    # rank-2 Gram matrices plus 1e-16 I sit at the edge of positive
    # definiteness, where an eigvalsh sign test and the Cholesky
    # factorization of the quadratic integrand disagree on about a quarter
    # of them: a job that validates must build its integrand
    rng = np.random.default_rng(0)
    built = []
    for _ in range(100):
        B = rng.normal(size=(3, 2))
        A = B @ B.T + 1e-16 * np.eye(3)
        A = 0.5 * (A + A.T)
        job = {"command": "integrand",
               "inputs": {"integrand": {"kind": "quadratic", "matrix": A.tolist()}}}
        try:
            ig.Integrand.quadratic(A)
            built.append(True)
        except ValueError:
            built.append(False)
        assert (sch.validate_job(job) == []) == built[-1]
    assert 0 < sum(built) < len(built)


def test_zero_vector_rejected():
    iso = ig.Integrand.isotropic(4)
    with pytest.raises(ValueError):
        iso.value(np.zeros(4))


def test_homogeneity_euler_radial_invariants():
    rng = np.random.default_rng(11)
    for integ in ig.catalog(4).values():
        v = rng.normal(size=(1000, 4))
        v /= np.linalg.norm(v, axis=1)[:, None]
        assert np.abs(integ.value(2.0 * v) - 2.0 * integ.value(v)).max() <= 1e-12
        euler = np.einsum("pi,pi->p", integ.gradient(v), v) - integ.value(v)
        assert np.abs(euler).max() <= 1e-10
        radial = np.einsum("pde,pe->pd", integ.hessian(v), v)
        assert np.abs(radial).max() <= 1e-8


def test_derivatives_match_finite_differences():
    rng = np.random.default_rng(5)
    for d in (3, 4):
        for integ in ig.catalog(d).values():
            v = rng.normal(size=d)
            v /= np.linalg.norm(v)
            g = integ.gradient(v)
            h = integ.hessian(v)
            g_fd = ig.fd_gradient(integ.value, v, step=1e-3)
            h_fd = ig.fd_hessian(integ.value, v, step=1e-3)
            assert np.abs(g_fd - g).max() / max(1.0, np.abs(g).max()) <= 1e-6
            assert np.abs(h_fd - h).max() / max(1.0, np.abs(h).max()) <= 1e-6


def test_fd_hessian_record_catches_a_scaled_hessian(monkeypatch):
    job = {"command": "integrand", "seed": 7,
           "inputs": {"integrand": {"kind": "perturbed", "dim": 4, "epsilon": 0.1,
                                    "profile": "axis2"}}}

    def record():
        (rec,) = [r for r in cli.run(job)["records"]
                  if r["name"] == "finite-difference Hessian (rel)"]
        return rec

    assert record()["pass"]
    hessian = ig.Integrand.hessian
    monkeypatch.setattr(ig.Integrand, "hessian",
                        lambda self, v: (1.0 + 1e-3) * hessian(self, v))
    rec = record()
    assert not rec["pass"] and rec["value"] >= 1e-4


def test_pinch_bounds_isotropic():
    a_min, a_max = ig.pinch_bounds(ig.Integrand.isotropic(4), 17)
    assert a_min == pytest.approx(1.0, abs=1e-12)
    assert a_max == pytest.approx(1.0, abs=1e-12)


def test_pinch_bounds_aniso4():
    # support function of the ellipsoid with semiaxes (1,1,1,2): principal
    # curvature radii range over [a^2/b, b^2/a] = [1/2, 4]; the grid
    # contains the axis directions so both extremes are hit exactly
    quad = ig.Integrand.quadratic(np.diag([1.0, 1.0, 1.0, 4.0]))
    a_min, a_max = ig.pinch_bounds(quad, 17)
    assert a_min == pytest.approx(0.5, abs=1e-12)
    assert a_max == pytest.approx(4.0, abs=1e-9)
    rep = ig.analyze(quad, 17)
    assert not rep.pinch_satisfied
    assert not rep.pinch_satisfied_scaled
    assert rep.stability_lambda == pytest.approx(1.0 / 8.0, abs=1e-12)


def test_pinch_bounds_mild_quadratic_window():
    # 1.1 * diag(1, 1, 1, 1.1): radii window exactly [1, 1.1^(3/2)]
    mild = ig.Integrand.quadratic(1.1 * np.diag([1.0, 1.0, 1.0, 1.1]))
    a_min, a_max = ig.pinch_bounds(mild, 17)
    assert a_min == pytest.approx(1.0, abs=1e-12)
    assert a_max == pytest.approx(1.1**1.5, abs=1e-12)
    rep = ig.analyze(mild, 17)
    assert rep.pinch_satisfied and rep.pinch_satisfied_scaled


def test_unnormalized_mild_quadratic_needs_scaling():
    # diag(1,1,1,1.1) alone dips below 1 at the pole (a_min = 1.1^-1/2)
    lit = ig.Integrand.quadratic(np.diag([1.0, 1.0, 1.0, 1.1]))
    rep = ig.analyze(lit, 17)
    assert rep.a_min == pytest.approx(1.1**-0.5, abs=1e-12)
    assert rep.a_max == pytest.approx(1.1, abs=1e-12)
    assert not rep.pinch_satisfied
    assert rep.pinch_satisfied_scaled


def test_stability_lambda_scale_invariant():
    quad = ig.Integrand.quadratic(np.diag([1.0, 1.0, 1.0, 4.0]))
    lam = ig.analyze(quad, 9).stability_lambda
    lam_scaled = ig.analyze(ig.Integrand.quadratic(3.7**2 * quad.matrix), 9).stability_lambda
    assert lam_scaled == pytest.approx(lam, rel=1e-12)
    pert = ig.Integrand.perturbed(4, 0.05, "quartic_saddle")
    # 0.2 phi: its value, gradient and Hessian are those of phi times 0.2
    small = SimpleNamespace(dim=4, value=lambda v: 0.2 * pert.value(v),
                            gradient=lambda v: 0.2 * pert.gradient(v),
                            hessian=lambda v: 0.2 * pert.hessian(v))
    assert ig.analyze(small, 9).stability_lambda == pytest.approx(
        ig.analyze(pert, 9).stability_lambda, rel=1e-12)


def test_catalog_pinched_integrands_have_large_lambda():
    for d in (3, 4):
        for name, integ in ig.catalog(d).items():
            rep = ig.analyze(integ, 17)
            if name == "quadratic_aniso4":
                continue
            assert rep.pinch_satisfied_scaled, name
            assert rep.stability_lambda >= 1.0 / SQRT2 - 1e-12, name


def test_c1_norm_values():
    iso = ig.Integrand.isotropic(4)
    assert ig.c1_norm(iso, 17) == pytest.approx(SQRT2, abs=1e-12)
    # 2 |v| is the quadratic integrand with matrix 4 I
    assert ig.c1_norm(ig.Integrand.quadratic(4.0 * np.eye(4)), 17) == pytest.approx(
        2 * SQRT2, abs=1e-12)
    # with the spherical gradient D phi - phi nu in place of D phi the norm is 1
    nu = ig.sphere_grid(4, 17)
    phi = iso.value(nu)
    dphi = iso.gradient(nu) - phi[:, None] * nu
    assert float(np.sqrt(phi**2 + np.sum(dphi**2, axis=-1)).max()) == pytest.approx(
        1.0, abs=1e-12)
    quad = ig.Integrand.quadratic(np.diag([1.0, 1.0, 1.0, 4.0]))
    # at nu = e4: phi = 2 and |D phi| = 2, so the norm is at least 2
    assert ig.c1_norm(quad, 17) >= 2.0


def test_min_phi_values():
    assert ig.min_phi(ig.Integrand.isotropic(4), 17) == pytest.approx(1.0, abs=1e-12)
    quad = ig.Integrand.quadratic(np.diag([1.0, 1.0, 1.0, 4.0]))
    # min over the sphere of sqrt(v^T A v) is the square root of the
    # smallest eigenvalue of A
    assert ig.min_phi(quad, 17) == pytest.approx(1.0, abs=1e-12)
    pert = ig.Integrand.perturbed(4, 0.1, "axis2")
    assert 0.9 <= ig.min_phi(pert, 17) <= 1.0


@pytest.mark.parametrize("dim", range(3, sch.MAX_DIM + 1))
def test_profiles_are_homogeneous_and_bounded_on_the_sphere(dim):
    # the catalog's claim: each table is a homogeneous polynomial in R^dim
    # with |P| <= 1 on the unit sphere; the grid has the default resolution
    # 17 up to dim 4 and the smallest, 8, beyond (at 17 it would hold 0.66
    # million nodes in dim 5 and 12.7 million in dim 6)
    res = ig.SPHERE_RESOLUTION if dim <= 4 else 8
    nu = ig.sphere_grid(dim, res)
    for name, build in ig.PROFILES.items():
        table = build(dim)
        assert all(len(powers) == dim for powers in table), name
        assert len({sum(powers) for powers in table}) == 1, name
        assert np.abs(iq.poly_value(table, nu)).max() <= 1.0, name


def test_sphere_grid_contains_axes_and_rejects_small_resolution():
    grid = ig.sphere_grid(4, 17)
    assert np.allclose(np.linalg.norm(grid, axis=1), 1.0, atol=1e-14)
    for i in range(4):
        e = np.zeros(4)
        e[i] = 1.0
        assert np.min(np.linalg.norm(grid - e, axis=1)) <= 1e-14
    with pytest.raises(ValueError):
        ig.sphere_grid(4, 7)


def _face_by_face_sphere_grid(dim, resolution):
    """The sphere grid built face by face: the 2 dim faces of the cube
    lattice, deduplicated and sorted by `np.unique`, then normalized."""
    axis = np.linspace(-1.0, 1.0, resolution | 1)
    faces = []
    for a in range(dim):
        for side in (-1.0, 1.0):
            grids = np.meshgrid(*([axis] * (dim - 1)), indexing="ij")
            face = np.stack([grid.ravel() for grid in grids], axis=-1)
            col = np.full((face.shape[0], 1), side)
            faces.append(np.concatenate([face[:, :a], col, face[:, a:]], axis=1))
    pts = np.unique(np.concatenate(faces, axis=0), axis=0)
    return pts / np.linalg.norm(pts, axis=1)[:, None]


@pytest.mark.parametrize("dim, resolution", [(3, 8), (3, 17), (3, 40), (4, 9), (4, 17),
                                             (5, 8)])
def test_sphere_grid_equals_the_face_by_face_construction(dim, resolution):
    grid = ig.sphere_grid(dim, resolution)
    ref = _face_by_face_sphere_grid(dim, resolution)
    assert grid.shape == ref.shape and grid.tobytes() == ref.tobytes()


def test_sphere_grid_is_cached_read_only():
    grid = ig.sphere_grid(4, 17)
    assert ig.sphere_grid(4, 17) is grid
    with pytest.raises(ValueError):
        grid[0, 0] = 0.0
    # the shared grid gives the report of a fresh build
    pert = ig.Integrand.perturbed(4, 0.1, "axis2")
    cached = ig.analyze(pert)
    ig.sphere_grid.cache_clear()
    assert ig.analyze(pert) == cached


def test_tangent_basis_orthonormal_to_normal():
    rng = np.random.default_rng(2)
    nu = rng.normal(size=(200, 4))
    nu /= np.linalg.norm(nu, axis=1)[:, None]
    T = ig.tangent_basis(nu)
    assert np.abs(np.einsum("pd,pdi->pi", nu, T)).max() <= 1e-13
    gram = np.einsum("pdi,pdj->pij", T, T)
    assert np.abs(gram - np.eye(3)).max() <= 1e-13


def test_pinch_bounds_resolution_doubling_stable():
    pert = ig.Integrand.perturbed(4, 0.1, "axis2")
    a1 = ig.pinch_bounds(pert, 17)
    a2 = ig.pinch_bounds(pert, 33)
    assert abs(a1[0] - a2[0]) <= 1e-3
    assert abs(a1[1] - a2[1]) <= 1e-3
