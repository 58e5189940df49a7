import json
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from anisocheck import acceptance as ac
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


@pytest.fixture
def solves(monkeypatch):
    """Every (K, M, x) that ``va.smallest_eigenpair`` solves, in call order."""
    seen = []
    solve = va.smallest_eigenpair

    def keep(K, M, **kwargs):
        theta, x, matvecs, resid = solve(K, M, **kwargs)
        seen.append((K, M, x))
        return theta, x, matvecs, resid

    monkeypatch.setattr(va, "smallest_eigenpair", keep)
    return seen


def _on_grid(geom, v):
    """The node scalar that is ``v`` on the Dirichlet-free nodes, 0 elsewhere."""
    full = np.zeros(geom.shape)
    full[geom.dirichlet_mask()] = v
    return full


def _form(K, geom, u, v=None):
    """The assembled form K at node scalars u, v (v defaults to u)."""
    free = geom.dirichlet_mask()
    return float(u[free] @ (K @ (u if v is None else v)[free]))


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
            hphi = va.aniso_mean_curvature(va.PhiForm(g, iso))
            assert np.abs(hphi - g.mean_curvature).max() <= 1e-10, name
            psi = iso.hessian(g.nu)
            w = g.jac[..., 0]
            assert np.abs(np.einsum("...de,...e->...d", psi, w) - w).max() <= 1e-12


def _variation_record(oracle, integ, kind):
    """The acceptance record of ``kind`` for the oracle's speed "u"."""
    return ac.variation_records(oracle, va.PhiForm(oracle.geom, integ), [kind])[kind, "u"]


def test_aniso_mean_curvature_nonconstant_on_sphere():
    # direction-dependent integrand on the round sphere: H_phi varies
    quad = ig.Integrand.quadratic(np.diag([1.0, 1.0, 1.0, 1.2]))
    g = geo.sample_chart(geo.catalog(3)["sphere"], 25)
    assert va.PhiForm(g, quad).hphi.std() > 1e-2
    oracle = va.NormalOracle(g, {"u": va.bump_function(g, "centered")})
    assert _variation_record(oracle, quad, "first").value <= 1e-3


class _LinearImage:
    """The chart L(M) of a chart M: X, dX and d^2X mapped by L, and nu by
    L^-T nu / |L^-T nu|, the unit normal of the image; the rest is M's."""

    def __init__(self, chart, L):
        self.chart, self.L = chart, L

    def __getattr__(self, key):
        return getattr(self.chart, key)

    def frame(self, u):
        X, J, d2X, nu = self.chart.frame(u)
        m = np.einsum("ji,...j->...i", np.linalg.inv(self.L), nu)
        return (np.einsum("ij,...j->...i", self.L, X), np.einsum("ij,...ja->...ia", self.L, J),
                np.einsum("ij,...jab->...iab", self.L, d2X),
                m / np.linalg.norm(m, axis=-1)[..., None])


@pytest.mark.parametrize("name", sorted(geo.catalog(3)))
def test_quadratic_integrand_on_a_linear_image(iso4, name):
    # with A = L L^T, phi(L^-T nu) = 1 / |L^-T nu| and the area element of
    # L(M) is |det L| |L^-T nu| that of M: the phi-area of L(M) is
    # |det L| area(M), node by node, so H_phi at L x is H at x
    L = np.random.default_rng(0).normal(size=(4, 4)) + 3.0 * np.eye(4)
    chart = geo.catalog(3)[name]
    g, image = (geo.sample_chart(c, 13) for c in (chart, _LinearImage(chart, L)))
    quad = ig.Integrand.quadratic(L @ L.T)
    assert np.abs(va.PhiForm(image, quad).hphi - g.mean_curvature).max() <= 1e-12
    ratio = va.phi_area(image, quad) / (abs(np.linalg.det(L)) * va.phi_area(g, iso4))
    assert abs(ratio - 1.0) <= 1e-13


def test_first_variation_sphere_isotropic(iso4):
    g = geo.sample_chart(geo.Sphere(3, radius=1.0), 17)
    u = va.bump_function(g, "centered")
    rec = _variation_record(va.NormalOracle(g, {"u": u}), iso4, "first")
    # formula side is the integral of (3/rho) u
    assert rec.detail["formula_value"] == pytest.approx(g.integrate(3.0 * u), rel=1e-12)
    assert rec.value <= 1e-3


def test_first_variation_flat_identically_zero():
    mild = ig.Integrand.quadratic(1.1 * np.diag([1.0, 1.0, 1.0, 1.1]))
    g = geo.sample_chart(geo.Hyperplane(3, offset=1.0), 13)
    u = va.bump_function(g, "centered")
    rec = _variation_record(va.NormalOracle(g, {"u": u}), mild, "first")
    assert rec.detail["formula_value"] == 0.0
    assert rec.value <= 1e-3


def test_boundary_supported_speed_rejected(iso4):
    g = geo.sample_chart(geo.Hyperplane(3, offset=1.0), 13)
    u = np.ones(g.shape)
    with pytest.raises(ValueError):
        va.first_variation_check(va.NormalOracle(g, {"u": u}), va.PhiForm(g, iso4), "u")


def test_second_variation_form_sphere_reduction(iso4):
    # isotropic on the sphere: Q(u) = int |grad u|^2 - (3/rho^2) u^2
    g = geo.sample_chart(geo.catalog(3)["sphere"], 13)
    u = va.bump_function(g, "centered")
    manual = g.integrate(g.grad_norm_sq(u) - 3.0 * u * u)
    assert va.second_variation_form(va.PhiForm(g, iso4), u) == pytest.approx(manual, rel=1e-12)


def test_second_variation_matches_fd_on_stationary_charts(iso3):
    cat = geo.sample_chart(geo.Catenoid2(1.0, (-1, 1)), (25, 50))
    u = va.bump_function(cat, "centered")
    rec = _variation_record(va.NormalOracle(cat, {"u": u}), iso3, "second")
    assert rec.detail["stationary"]
    assert rec.value <= 1e-3
    mild = ig.Integrand.quadratic(1.1 * np.diag([1.0, 1.0, 1.1]))
    plane = geo.sample_chart(geo.Hyperplane(2, offset=1.0), 25)
    offset = va.NormalOracle(plane, {"u": va.bump_function(plane, "offset")})
    rec2 = _variation_record(offset, mild, "second")
    assert rec2.value <= 1e-3
    # flat chart, pinched integrand: Q(u) >= int |grad u|^2 > 0
    assert rec2.detail["formula_value"] > 0.0


def test_stability_spectrum_flat_rectangle(iso3):
    g = geo.sample_chart(geo.Hyperplane(2, offset=1.0, box=[(0, 1), (0, 2)]), (49, 97))
    rep = va.stability_spectrum(va.PhiForm(g, iso3))
    exact = np.pi**2 * (1.0 + 0.25)
    assert rep.eigenvalue == pytest.approx(exact, rel=2e-3)
    assert ac.certified_stable(rep)


def test_stability_spectrum_catenoid_bands(iso3, solves):
    wide = geo.sample_chart(geo.Catenoid2(1.0, (-1.6, 1.6)), (33, 64))
    rep = va.stability_spectrum(va.PhiForm(wide, iso3))
    assert rep.eigenvalue < 0.0 and not ac.certified_stable(rep)
    K, _, x = solves[-1]
    narrow = geo.sample_chart(geo.Catenoid2(1.0, (-0.4, 0.4)), (17, 48))
    assert va.stability_spectrum(va.PhiForm(narrow, iso3)).eigenvalue > 0.0
    # ground state of the wide band certifies instability through Q
    u = _on_grid(wide, x)
    assert _form(K, wide, u) < 0.0


@pytest.mark.parametrize("T, stable", [(2.0, True), (2.8, False)])
def test_clifford_cone_stability_threshold(iso4, T, stable):
    # Simons: the annulus s in [1, e^T] of the cone over the Clifford torus
    # is stable exactly for T <= 2 pi / sqrt 7 = 2.3748; lambda_1 reads
    # +0.074 at T = 2 and -0.018 at T = 2.8 on this grid
    g = geo.sample_chart(geo.CliffordCone(T), (17, 16, 16))
    rep = va.stability_spectrum(va.PhiForm(g, iso4))
    if stable:
        assert rep.eigenvalue - rep.residual > 0.0
    else:
        assert rep.eigenvalue + rep.residual < 0.0


def test_stability_spectrum_matches_dense_oracle(iso3, iso4, solves):
    # every catalog chart at resolution 9, isotropic and a mild quadratic
    mild = {3: ig.Integrand.quadratic(1.1 * np.diag([1.0, 1.0, 1.1])),
            4: ig.Integrand.quadratic(1.1 * np.diag([1.0, 1.0, 1.0, 1.1]))}
    for n, iso in ((2, iso3), (3, iso4)):
        for name, chart in geo.catalog(n).items():
            g = geo.sample_chart(chart, 9)
            for integ in (iso, mild[n + 1]):
                rep = va.stability_spectrum(va.PhiForm(g, integ))
                K, M, x = solves[-1]
                exact = scipy.linalg.eigh(K.toarray(), M.toarray(), eigvals_only=True)[0]
                assert abs(rep.eigenvalue - exact) <= 1e-9 * max(1.0, abs(exact)), \
                    (name, integ.describe())
                assert rep.residual <= va.EIG_TOL * max(1.0, abs(rep.eigenvalue))
                assert ac.certified_stable(rep) == (rep.eigenvalue - rep.residual >= 0.0)
                assert float(x @ (M @ x)) == pytest.approx(1.0, abs=1e-12)
                assert np.sum(x) > 0.0


def test_smallest_eigenpair_rejects_what_it_cannot_solve():
    K = sp.diags([3.0, 1.0]).tocsc()
    theta, x, _, resid = va.smallest_eigenpair(K, sp.identity(2, format="csc"))
    assert theta == pytest.approx(1.0, abs=1e-14) and resid <= 1e-14
    assert x[1] == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(ValueError, match="diagonal"):
        va.smallest_eigenpair(K, sp.csc_matrix(np.array([[2.0, 1.0], [1.0, 2.0]])))
    with pytest.raises(ValueError, match="at least 2"):
        va.smallest_eigenpair(sp.csc_matrix([[1.0]]), sp.csc_matrix([[1.0]]))


def test_lanczos_goes_on_while_the_true_residual_fails():
    # the estimate alone does not stop a solve: converged() is asked, and a
    # refusal sends pass 1 on from where it stopped, to a second check
    n = 200
    B = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n), format="csr")
    checks = []

    def refuse_once(y):
        checks.append(y)
        return len(checks) > 1

    y, matvecs = va._lanczos(B, np.ones(n), lambda y: True)
    y2, matvecs2 = va._lanczos(B, np.ones(n), refuse_once)
    assert len(checks) == 2 and matvecs2 > matvecs
    theta = float(y @ (B @ y))
    assert theta == pytest.approx(2.0 - 2.0 * np.cos(np.pi / (n + 1)), rel=1e-6)
    assert float(np.linalg.norm(B @ y2 - (y2 @ (B @ y2)) * y2)) <= va.EIG_TOL


class _Recorded:
    """A sparse matrix that keeps a copy of every vector it multiplies."""

    def __init__(self, B):
        self.B, self.seen = B, []

    def __matmul__(self, v):
        self.seen.append(v.copy())
        return self.B @ v


def test_lanczos_second_pass_regenerates_the_first_bit_for_bit():
    # pass 2 multiplies exactly the vectors of pass 1, and y is sum s_i q_i
    # over them in index order, with (alpha, beta) and s formed here from
    # the recorded basis by the operations of the recurrence
    n = 300
    main = 2.0 + np.linspace(0.0, 1.0, n) ** 2
    B = _Recorded(sp.diags([-np.ones(n - 1), main, -np.ones(n - 1)], [-1, 0, 1],
                           format="csr"))
    y, matvecs = va._lanczos(B, np.linspace(1.0, 2.0, n), lambda y: True)
    p = (matvecs + 1) // 2
    assert len(B.seen) == matvecs == 2 * p - 1 and p % va.LANCZOS_STRIDE == 0
    basis = B.seen[:p]
    assert all(np.array_equal(a, b) for a, b in zip(B.seen[p:], basis))
    alpha, beta = [], []
    for j, q in enumerate(basis):
        w = B.B @ q
        if j:
            w -= beta[-1] * basis[j - 1]
        alpha.append(va._dot(q, w))
        w -= alpha[-1] * q
        beta.append(float(np.sqrt(va._dot(w, w))))
        if j + 1 < p:
            assert np.array_equal(w / beta[-1], basis[j + 1])
    _, s = scipy.linalg.eigh_tridiagonal(alpha, beta[:-1], select="i", select_range=(0, 0))
    ref = s[0, 0] * basis[0]
    for coef, q in zip(s[1:, 0], basis[1:]):
        ref += coef * q
    assert np.array_equal(y, ref)


FEM_TEMPLATES = va._fem_templates
BAND = (0.25 * np.pi, 0.75 * np.pi)


def _element_loop_forms(geom, coeff, potential, mass_density):
    """Reference assembly of :func:`va.assemble_forms`: every cell's 2^n x
    2^n element matrix scattered as COO triplets over the whole grid
    (duplicates summed), the two triangles averaged, then the rows and
    columns of the free nodes taken; K in CSR with sorted columns and no
    stored zeros."""
    n, shape = geom.n, geom.shape
    size = int(np.prod(shape))
    ranges = [np.arange(m if per else m - 1) for m, per in zip(shape, geom.periodic)]
    cells = np.meshgrid(*ranges, indexing="ij")
    corners = []
    for corner in range(2**n):
        idx = 0
        for ax in range(n):
            bit = (corner >> (n - 1 - ax)) & 1
            idx = idx * shape[ax] + (cells[ax] + bit) % shape[ax]
        corners.append(idx.ravel())
    corners = np.stack(corners, axis=1)
    dens = geom.sqrt_det_g[..., None, None] * coeff
    cmean = dens.reshape(size, n, n)[corners].mean(axis=1)
    local = np.einsum("eab,abpq->epq", cmean, FEM_TEMPLATES(n, geom.spacings))
    rows = np.repeat(corners, 2**n, axis=1).ravel()
    cols = np.tile(corners, (1, 2**n)).ravel()
    K = sp.coo_matrix((local.ravel(), (rows, cols)), shape=(size, size)).tocsr()
    w = (geom.node_weights() * geom.sqrt_det_g).ravel()
    K = K + sp.diags(w * potential.ravel())
    K = 0.5 * (K + K.T)
    idx = np.flatnonzero(geom.dirichlet_mask().ravel())
    K = K.tocsr()[idx][:, idx].tocsr()
    K.eliminate_zeros()
    K.sort_indices()
    return K, (w * mass_density.ravel())[idx]


def _assembly_cases():
    """(geometry, integrand): a periodic seam (the catenoid_3 band), polar
    inset free rows (the (25, 13, 24) hemisphere), n = 2 (catenoid_2) and a
    non-cubic box."""
    mild = ig.Integrand.quadratic(1.1 * np.diag([1.0, 1.0, 1.0, 1.1]))
    hemi = geo.Sphere(3, 1.0, box=[(0.0, np.pi / 2), (0, np.pi), (0, 2 * np.pi)])
    box = geo.Hyperplane(3, offset=1.0, box=[(0, 1), (0, 2), (-1, 0.5)])
    return [
        (geo.sample_chart(geo.Catenoid3(theta_range=BAND), 13), ig.Integrand.isotropic(4)),
        (geo.sample_chart(hemi, (25, 13, 24)), mild),
        (geo.sample_chart(geo.catalog(2)["catenoid_2"], 33), ig.Integrand.isotropic(3)),
        (geo.sample_chart(box, (9, 14, 11)), mild),
    ]


@pytest.mark.parametrize("scale", [1.0, 1.0 + 1e-9])
def test_stencil_assembly_matches_the_element_loop(monkeypatch, scale):
    # one template entry scaled by 1 + 1e-9 in the stencil assembly only:
    # its entries leave the 1e-14 agreement with the element loop
    def scaled(n, spacings):
        temps = FEM_TEMPLATES(n, spacings)
        temps[0, 0, 0, 0] *= scale
        return temps

    monkeypatch.setattr(va, "_fem_templates", scaled)
    for g, integ in _assembly_cases():
        form = va.PhiForm(g, integ)
        C, V = form.C, form.V
        K, M = va.assemble_forms(g, C, V, np.ones(g.shape))
        K_ref, d_ref = _element_loop_forms(g, C, V, np.ones(g.shape))
        assert (K != K.T).nnz == 0 and K.has_sorted_indices, g.chart_name
        assert np.array_equal(M.diagonal(), d_ref) and (M != sp.diags(d_ref)).nnz == 0
        # relative to the largest entry of the row: summing the same terms
        # in another order leaves up to 1.3e-14 of the small entries of the
        # hemisphere's pole rows themselves
        row_scale = np.repeat(np.maximum.reduceat(np.abs(K_ref.data), K_ref.indptr[:-1]),
                              np.diff(K_ref.indptr))
        same = (np.array_equal(K.indptr, K_ref.indptr)
                and np.array_equal(K.indices, K_ref.indices)
                and bool(np.all(np.abs(K.data - K_ref.data) <= 1e-14 * row_scale)))
        assert same == (scale == 1.0), g.chart_name


def test_assembly_memory_on_the_catenoid_band(traced_peak):
    # the COO triplets of every cell, their CSR round trips and the
    # restriction to the free nodes took a tracemalloc peak of 54 MiB on
    # this 25^3 band; the stencil of the free-node box takes about 13 MiB
    g = geo.sample_chart(geo.Catenoid3(theta_range=BAND), 25)
    form = va.PhiForm(g, ig.Integrand.isotropic(4))
    C, V = form.C, form.V
    one = np.ones(g.shape)
    assert traced_peak(lambda: va.assemble_forms(g, C, V, one)) < 32 * 2**20


def test_eigensolve_memory_on_the_catenoid_band(traced_peak):
    # Lanczos keeps a few vectors of the n = 13225 free nodes (103 KiB each);
    # the mass-scaled copy of K (27 entries a row) and its scaling
    # temporaries make most of the 5.5 MiB peak.  The thick-restart solve
    # with its 41 x n basis peaked at 8.3 MiB, ARPACK's eigsh at 11.6 to
    # 14.5 MiB
    g = geo.sample_chart(geo.Catenoid3(theta_range=BAND), 25)
    form = va.PhiForm(g, ig.Integrand.isotropic(4))
    C, V = form.C, form.V
    K, M = va.assemble_forms(g, C, V, np.ones(g.shape))
    assert traced_peak(lambda: va.smallest_eigenpair(K, M)) < 6.5 * 2**20


_PLANE = {"kind": "hyperplane", "n": 3, "offset": 1.0, "box": [[-1.2, 1.2]] * 3}
_MILD = {"kind": "quadratic", "dim": 4,
         "matrix": [[1.1, 0, 0, 0], [0, 1.1, 0, 0], [0, 0, 1.1, 0], [0, 0, 0, 1.21]]}


@pytest.mark.parametrize("inputs, lam, matvecs", [
    ({"chart": {"kind": "catenoid_3", "n": 3, "theta_range": list(BAND)},
      "integrand": {"kind": "isotropic", "dim": 4}}, 2.9220536460538056, 139),
    ({"chart": _PLANE, "integrand": {"kind": "isotropic", "dim": 4}}, 5.077675326294999, 119),
    ({"chart": {"kind": "sphere", "n": 3, "radius": 1.0,
                "box": [list(BAND), list(BAND), [0.0, 2 * np.pi]]},
      "integrand": _MILD}, 4.0017386778717885, 119),
    ({"chart": _PLANE, "integrand": {"kind": "isotropic", "dim": 4}, "lambda": 0.75,
      "resolution": 21, "tests": ["lambda1"]}, 10.84421910158233, 139),
], ids=["catenoid_3", "hyperplane", "sphere", "conformal_flat"])
def test_benchmark_spectra_are_pinned(inputs, lam, matvecs):
    # the Dirichlet solves of the benchmark's spectra jobs: the eigenvalue
    # of the element-loop assembly to 1e-12, and the products with B of both
    # Lanczos passes: p steps of pass 1 (70 or 60, the first check whose
    # estimate passes) and the p - 1 of pass 2
    command = "conformal" if "lambda" in inputs else "variation"
    job = {"command": command, "seed": 1,
           "inputs": {"resolution": 25, "tests": ["spectrum"], **inputs}}
    (rec,) = cli.run(job)["records"]
    value = rec["detail"]["lambda1" if command == "conformal" else "lambda_stab"]
    assert value == pytest.approx(lam, rel=1e-12) and rec["pass"]
    assert rec["detail"]["matvecs"] == matvecs


SPECTRUM_JOB = {"command": "variation", "seed": 1,
                "inputs": {"chart": {"kind": "hyperplane", "n": 2, "offset": 1.0},
                           "integrand": {"kind": "isotropic", "dim": 3},
                           "resolution": 17, "tests": ["spectrum"]}}


def _converged_record(report):
    (rec,) = [r for r in report["records"] if r["name"] == "stability spectrum converged"]
    return rec


def test_spectrum_record_holds_the_residual():
    report = cli.run(SPECTRUM_JOB)
    rec = _converged_record(report)
    lam = report["extras"]["lambda_stab"]
    assert rec["pass"] and rec["value"] <= rec["tolerance"]
    assert rec["tolerance"] == va.EIG_TOL * max(1.0, abs(lam))
    assert rec["detail"]["lambda_stab"] == lam and rec["detail"]["stable"]
    assert rec["detail"]["matvecs"] > 0


def test_spectrum_record_fails_on_a_perturbed_eigenvector(monkeypatch):
    lanczos = va._lanczos

    def perturbed(*args):
        y, matvecs = lanczos(*args)
        y[::5] *= 1.01
        return y, matvecs

    monkeypatch.setattr(va, "_lanczos", perturbed)
    report = cli.run(SPECTRUM_JOB)
    assert not _converged_record(report)["pass"] and not report["pass"]


def test_spectrum_record_fails_at_the_matvec_cap(monkeypatch):
    # the cap bounds both passes: two steps of pass 1 and the one product of
    # its pass 2 leave an unconverged Ritz pair; the solve returns it, and
    # its residual fails the record without a crash
    monkeypatch.setattr(va, "LANCZOS_MAX_MATVECS", 3)
    report = cli.run(SPECTRUM_JOB)
    rec = _converged_record(report)
    assert not rec["pass"] and not report["pass"]
    assert rec["detail"]["matvecs"] == 3
    assert np.isfinite(rec["value"]) and np.isfinite(rec["detail"]["lambda_stab"])


def test_spectrum_report_is_the_same_at_any_blas_thread_count(tmp_path, child_env,
                                                              stripped_report):
    # the spectra workload's catenoid_3 band job in two child processes, one
    # with one OpenBLAS thread and one with two; ARPACK's BLAS
    # reorthogonalization read residuals 5.942142784829424e-10 and
    # 5.941988611998244e-10 there
    job = {"command": "variation", "seed": 1,
           "inputs": {"chart": {"kind": "catenoid_3", "n": 3, "theta_range": list(BAND)},
                      "integrand": {"kind": "isotropic", "dim": 4},
                      "resolution": 25, "tests": ["spectrum"]}}
    (tmp_path / "job.json").write_text(json.dumps(job))
    runs = {threads: subprocess.Popen(
        [sys.executable, "-m", "anisocheck.cli", "run", "--job",
         str(tmp_path / "job.json"), "--out", str(tmp_path / threads)],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        env={**child_env, "OPENBLAS_NUM_THREADS": threads}) for threads in ("1", "2")}
    try:
        assert [proc.wait(timeout=300) for proc in runs.values()] == [0, 0]
    finally:
        for proc in runs.values():
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    one, two = (stripped_report(json.loads((tmp_path / t / "report.json").read_text()))
                for t in runs)
    assert one == two


SPECTRA_CHILD = """
stability, (flat_chart, flat_res) = json.loads(sys.argv[1])
forms = [va.PhiForm(geo.sample_chart(sch.build_chart(chart), res),
                    sch.build_integrand(integrand)) for chart, integrand, res in stability]
for form in forms:
    form.C, form.V   # the pullback's BLAS products run before the window
flat = cf.deform(geo.sample_chart(sch.build_chart(flat_chart), flat_res))
sym = np.random.default_rng(0).standard_normal((40, 40))
sym += sym.T
print(json.dumps({
    "solves": window(lambda: ([va.stability_spectrum(f) for f in forms],
                              cf.lambda1_estimate(flat))),
    "control": window(lambda: np.linalg.eigh(sym)),
}))
"""


def test_spectral_solves_wake_no_blas_worker(worker_ticks_child):
    # the Dirichlet solves of the spectra workload in a child at two OpenBLAS
    # threads: the Ritz solve of the Lanczos matrix T must leave every worker
    # thread asleep.  numpy's full eigh of a 40 x 40 T wakes one, which then
    # spins on for tens of ms of CPU after each restart
    iso = {"kind": "isotropic", "dim": 4}
    stability = [({"kind": "catenoid_3", "n": 3, "theta_range": list(BAND)}, iso, 25),
                 (_PLANE, iso, 25),
                 ({"kind": "sphere", "n": 3, "radius": 1.0,
                   "box": [list(BAND), list(BAND), [0.0, 2 * np.pi]]}, _MILD, 25)]
    lambda1 = (_PLANE, 21)   # the conformal lambda1 job's flat patch
    ticks = worker_ticks_child(SPECTRA_CHILD, json.dumps([stability, lambda1]))
    if ticks["control"] == 0:
        pytest.skip("numpy's eigh woke no BLAS worker here, so the check shows nothing")
    assert ticks["solves"] == 0, ticks


def test_cutoff_constant_destabilizes_wide_neck(iso3):
    # u = 1 on the neck, cut off towards the band ends
    wide = geo.sample_chart(geo.Catenoid2(1.0, (-2.4, 2.4)), (41, 48))
    U = np.meshgrid(*wide.params, indexing="ij")
    xi = np.clip((np.abs(U[0]) - 1.5) / (2.4 * 0.92 - 1.5), 0.0, 1.0)
    u = (1.0 - xi**2) ** 2
    u[~wide.interior_mask()] = 0.0
    assert va.second_variation_form(va.PhiForm(wide, iso3), u) < -1.0


def test_stability_spectrum_domain_monotonicity(iso4):
    lams = []
    for tmax in (0.4, 0.8, 1.2):
        cap = geo.sample_chart(
            geo.Sphere(3, 1.0, box=[(0.0, tmax), (0, np.pi), (0, 2 * np.pi)]),
            (13, 13, 12))
        lams.append(va.stability_spectrum(va.PhiForm(cap, iso4)).eigenvalue)
    assert lams[0] > lams[1] > lams[2] > 0.0


def test_assembled_form_bilinearity(iso4, solves):
    mild = ig.Integrand.quadratic(1.1 * np.diag([1.0, 1.0, 1.0, 1.1]))
    g = geo.sample_chart(geo.catalog(3)["sphere"], 13)
    va.stability_spectrum(va.PhiForm(g, mild))
    K = solves[-1][0]
    u = va.bump_function(g, "centered")
    v = va.bump_function(g, "two_humps")
    resid = _form(K, g, u + v) - _form(K, g, u) - _form(K, g, v) - 2 * _form(K, g, u, v)
    assert abs(resid) <= 1e-8
    # element route and collocation route agree at the discretization level
    q_int = va.second_variation_form(va.PhiForm(g, mild), u)
    assert _form(K, g, u) == pytest.approx(q_int, rel=0.2)


def test_stability_inequality_instance_for_ground_state(iso4, solves):
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
            rep = va.stability_spectrum(va.PhiForm(g, integ))
            assert rep.eigenvalue > 0.0, (g.chart_name, integ.describe())
            u = _on_grid(g, solves[-1][2])
            reduced = g.integrate(g.grad_norm_sq(u)
                                  - (1 / np.sqrt(2.0)) * g.A2 * u * u)
            assert reduced >= -1e-8, (g.chart_name, integ.describe())


def test_vectorfield_identity_flat_and_catenoid(iso3, iso4):
    plane = geo.sample_chart(geo.Hyperplane(3, offset=0.0, box=[(-1, 1)] * 3), 13)
    for integ in ig.catalog(4).values():
        interior, boundary = va.vectorfield_first_variation(
            plane, integ, va.VectorField(np.eye(4)))
        assert va.PhiForm(plane, integ).stationary and abs(interior - boundary) <= 1e-6
        # both sides reduce to n * phi(nu) * area on the flat patch
        phi_val = float(integ.value(plane.nu[0, 0, 0]))
        assert interior == pytest.approx(3 * phi_val * 8.0, rel=1e-12)
    interior, boundary = va.vectorfield_first_variation(
        plane, iso4, va.VectorField(np.zeros((4, 4)), [1.0, 0, 0, 0]))
    assert abs(interior - boundary) <= 1e-6
    resids = []
    for m in (17, 33):
        cat = geo.sample_chart(geo.Catenoid2(1.0, (-1, 1)), (m, 2 * m))
        interior, boundary = va.vectorfield_first_variation(cat, iso3,
                                                            va.VectorField(np.eye(3)))
        assert va.PhiForm(cat, iso3).stationary
        resids.append(abs(interior - boundary))
    assert resids[0] / resids[1] >= 3.5


def test_isoperimetric_flat_ball_and_scaling(iso4):
    s0 = 0.05
    def ball(scale):
        return geo.sample_chart(
            geo.Hyperplane(3, offset=0.0, polar=True,
                           box=[(scale * s0, scale), (0, np.pi), (0, 2 * np.pi)]),
            (25, 25, 24))
    area1, _, bound1 = va.isoperimetric_check(ball(1.0), iso4, 1.0)
    assert bound1 > area1
    assert area1 == pytest.approx(4 * np.pi / 3 * (1 - s0**3), rel=1e-2)
    assert bound1 == pytest.approx(np.sqrt(2.0) * 4 * np.pi / 3 * (1 + s0**2), rel=1e-2)
    area2, _, bound2 = va.isoperimetric_check(ball(2.0), iso4, 2.0)
    assert bound2 - area2 == pytest.approx(8.0 * (bound1 - area1), rel=1e-12)
    # patch away from the origin: inequality holds with room
    sq = geo.sample_chart(geo.Hyperplane(3, offset=0.5, box=[(-0.4, 0.4)] * 3), 13)
    rho = float(np.sqrt(0.5**2 + 3 * 0.4**2)) + 1e-9
    area, _, bound = va.isoperimetric_check(sq, iso4, rho)
    assert bound > area
    with pytest.raises(ValueError):
        va.isoperimetric_check(sq, iso4, 0.5)


def test_bump_functions_vanish_on_two_layers():
    for n in (2, 3):
        for chart in geo.catalog(n).values():
            g = geo.sample_chart(chart, 11)
            for name in va.BUMP_NAMES:
                u = va.bump_function(g, name)
                outer = ~g.interior_mask()
                if outer.any():
                    assert np.abs(u[outer]).max() == 0.0


def _count_resamples(monkeypatch):
    """Record the grid shape of every immersion whose normal is rebuilt from
    positions (one `geometry._oriented_normal` call each)."""
    calls = []
    build = geo._oriented_normal

    def counting(jac, ref_nu, params, chart_name):
        calls.append(tuple(len(p) for p in params))
        return build(jac, ref_nu, params, chart_name)

    monkeypatch.setattr(geo, "_oriented_normal", counting)
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


def _count_hessians(monkeypatch):
    """Record the (nu, integrand) identities of every D^2 phi evaluation."""
    calls = []
    hessian = ig.Integrand.hessian

    def counting(self, v):
        calls.append((id(v), id(self)))
        return hessian(self, v)

    monkeypatch.setattr(ig.Integrand, "hessian", counting)
    return calls


def test_variation_job_forms_one_pullback(monkeypatch):
    calls = _count_hessians(monkeypatch)
    job = {"command": "variation", "seed": 1,
           "inputs": {"chart": {"kind": "catenoid_2", "n": 2},
                      "integrand": {"kind": "isotropic", "dim": 3}, "resolution": 25,
                      "tests": ["first_variation", "second_variation", "spectrum"]}}
    report = cli.run(job)
    assert report["pass"] and len(report["records"]) == 7
    # H_phi, the stationarity verdict, Q(u) of three bumps and the spectrum
    # read one Psi(nu) and one pullback
    assert len(calls) == 1


def test_variation_cases_form_one_pullback_per_pair(monkeypatch):
    # criterion 5 on catenoid_2 alone: one form per (sample, integrand),
    # though the chart is stationary for the isotropic integrand and so
    # runs the second variation too
    calls = _count_hessians(monkeypatch)
    catalog = geo.catalog
    monkeypatch.setattr(geo, "catalog", lambda n: {"catenoid_2": catalog(2)["catenoid_2"]}
                        if n == 2 else {})
    cases = ac.variation_consistency_cases()
    assert cases["second"]
    assert len(calls) == len(set(calls)) == len(ac.RES_2D) * len(ig.catalog(3))


def test_oracle_shares_resamples_across_integrands(monkeypatch, iso3):
    calls = _count_resamples(monkeypatch)
    jacobians = []
    fd_jacobian = geo.fd_jacobian

    def counting(X, spacings, periodic):
        jacobians.append(X.shape)
        return fd_jacobian(X, spacings, periodic)

    monkeypatch.setattr(geo, "fd_jacobian", counting)
    mild = ig.Integrand.quadratic(1.1 * np.diag([1.0, 1.0, 1.1]))
    counts = []
    for integrands in ([iso3], [iso3, mild]):
        calls.clear()
        jacobians.clear()
        g = geo.sample_chart(geo.catalog(2)["catenoid_2"], 17)
        oracle = va.NormalOracle(g, {b: va.bump_function(g, b) for b in va.BUMP_NAMES})
        for integ in integrands:
            form = va.PhiForm(g, integ)
            for bump in va.BUMP_NAMES:
                va.first_variation_check(oracle, form, bump)
                va.second_variation_check(oracle, form, bump)
        counts.append((len(calls), len(jacobians)))
    # one FD Jacobian per immersion: of X once per oracle, and of each
    # X + tau u nu once per speed and tau
    assert counts == [(13, 1 + 4 * len(va.BUMP_NAMES))] * 2


@pytest.mark.parametrize("scale", [1.0, 1.0 + 1e-3])
def test_first_variation_order_record_catches_a_scaled_speed_jacobian(scale):
    # taus x (1 + 1e-3) make the oracle difference X + 1.001 tau u nu, whose
    # speed Jacobian is scaled by 1.001: the order record of criterion 5 on
    # catenoid_3 stops converging
    integ = ig.catalog(4)["quadratic_aniso4"]
    recs = []
    for res in ac.ladder(25, 2):
        g = geo.sample_chart(geo.catalog(3)["catenoid_3"], res)
        oracle = va.NormalOracle(g, {"centered": va.bump_function(g, "centered")})
        oracle.taus = tuple(scale * tau for tau in oracle.taus)
        recs.append(ac.variation_records(oracle, va.PhiForm(g, integ),
                                         ["first"])["first", "centered"])
    order = ac.order_check("first variation order", [r.detail["discrepancy"] for r in recs],
                           1e-11, recs[-1].value, ac.VARIATION_ORDER_FLOORS["first"])
    assert order.passed == (scale == 1.0)


def test_shared_oracle_matches_one_speed_oracles(iso3):
    # sharing resamples changes no value: each check equals the same check
    # on an oracle built for its speed alone
    g = geo.sample_chart(geo.catalog(2)["catenoid_2"], 17)
    speeds = {b: va.bump_function(g, b) for b in va.BUMP_NAMES}
    shared = va.NormalOracle(g, speeds)
    form = va.PhiForm(g, iso3)
    for bump, u in speeds.items():
        for check in (va.first_variation_check, va.second_variation_check):
            alone = va.NormalOracle(g, {"u": u})
            assert check(shared, form, bump) == check(alone, form, "u")
