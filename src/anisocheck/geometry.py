"""Sampled immersed hypersurface charts with curvature fields.

A chart is an analytic parametrization of a hypersurface patch over a box
in parameter space; sampling it on a structured grid produces a
:class:`SampledGeometry` carrying per-node position, unit normal, metric,
shape operator, curvatures and radial quantities.

Conventions (the sign dictionary):

* shape operator ``S = grad(nu)``; second fundamental form in the
  parameter basis is ``h_ab = - nu . d^2 X / du_a du_b`` so that
  ``S = g^{-1} h``;
* scalar mean curvature ``H = tr S`` (outward-normal round sphere of
  radius rho: H = n / rho);
* mean curvature vector ``H_vec = Laplace_g X = -H nu``; the identity is
  validated numerically rather than assumed where both appear.

Axes may be periodic (full angular revolutions); quadrature and stencils
respect that.  Axes with a coordinate degeneracy at their ends (sphere
poles) are inset by half a grid step so nodes never sit on the
degeneracy; the inset shrinks under refinement, so integrals converge to
the closed (uninset) values at second order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

R_MIN = 1e-3          # radial floor required by conformal operations
DET_FLOOR = 1e-10     # immersion check threshold on det(g)


class ImmersionError(ValueError):
    """Raised when a sampled chart degenerates (det g below threshold)."""


# -- 1D stencils ------------------------------------------------------------


def derivative_matrix(m, h, periodic=False):
    """Dense m x m fourth-order first-derivative matrix.

    One-sided fourth-order rows at the ends of non-periodic axes, circulant
    central stencil for periodic ones.
    """
    D = np.zeros((m, m))
    c = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
    if periodic:
        for k, off in enumerate(range(-2, 3)):
            idx = (np.arange(m) + off) % m
            D[np.arange(m), idx] += c[k]
        return D / h
    for i in range(2, m - 2):
        D[i, i - 2 : i + 3] = c
    D[0, :5] = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0
    D[1, :5] = np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / 12.0
    D[m - 1, -5:] = -D[0, :5][::-1]
    D[m - 2, -5:] = -D[1, :5][::-1]
    return D / h


def quadrature_weights(m, h, periodic=False):
    """Per-axis quadrature weights: uniform for periodic axes (exact for
    smooth periodic data), composite Simpson for odd node counts, trapezoid
    otherwise."""
    if periodic:
        return np.full(m, h)
    w = np.full(m, h)
    if m % 2 == 1:
        w[:] = h / 3.0
        w[1:-1:2] *= 4.0
        w[2:-1:2] *= 2.0
    else:
        w[0] = w[-1] = h / 2.0
    return w


def apply_derivative(values, D, axis):
    out = np.tensordot(D, values, axes=([1], [axis]))
    return np.moveaxis(out, 0, axis)


# -- sampled geometry -------------------------------------------------------


@dataclass
class SampledGeometry:
    """Per-node geometric data of one sampled chart."""

    chart_name: str
    n: int
    dim: int
    box: list
    shape: tuple
    periodic: tuple
    spacings: tuple
    params: list
    X: np.ndarray
    nu: np.ndarray
    jac: np.ndarray
    metric: np.ndarray
    metric_inv: np.ndarray
    sqrt_det_g: np.ndarray
    second_form: np.ndarray
    shape_op: np.ndarray
    mean_curvature: np.ndarray
    mean_curvature_vec: np.ndarray
    A2: np.ndarray
    scalar_curvature: np.ndarray
    r: np.ndarray
    grad_r: np.ndarray
    radial_cos: np.ndarray
    origin_on_chart: bool = False
    pole_ends: tuple = ()
    _deriv_mats: list = field(default_factory=list, repr=False)

    def deriv_matrix(self, axis):
        return self._deriv_mats[axis]

    def interior_mask(self, layers=2):
        """Mask excluding ``layers`` node layers at non-periodic edges."""
        mask = np.ones(self.shape, dtype=bool)
        for a in range(self.n):
            if self.periodic[a]:
                continue
            sl = [slice(None)] * self.n
            sl[a] = slice(0, layers)
            mask[tuple(sl)] = False
            sl[a] = slice(self.shape[a] - layers, self.shape[a])
            mask[tuple(sl)] = False
        return mask

    def dirichlet_mask(self, layers=1):
        """Mask of free nodes for Dirichlet problems: only physical
        boundaries are clamped; polar-inset ends are coordinate artifacts
        where the surface closes smoothly, so their nodes stay free
        (natural condition on a ring that shrinks with the grid step)."""
        mask = np.ones(self.shape, dtype=bool)
        for a in range(self.n):
            if self.periodic[a]:
                continue
            for side in (0, -1):
                if (a, side) in self.pole_ends:
                    continue
                sl = [slice(None)] * self.n
                sl[a] = slice(0, layers) if side == 0 else \
                    slice(self.shape[a] - layers, self.shape[a])
                mask[tuple(sl)] = False
        return mask

    def axis_weights(self):
        return [
            quadrature_weights(self.shape[a], self.spacings[a], self.periodic[a])
            for a in range(self.n)
        ]

    def node_weights(self):
        w = np.ones(self.shape)
        for a, wa in enumerate(self.axis_weights()):
            sh = [1] * self.n
            sh[a] = -1
            w = w * wa.reshape(sh)
        return w

    def integrate(self, density=None):
        """Quadrature of ``density`` (default 1) against the area measure."""
        f = self.sqrt_det_g if density is None else np.asarray(density) * self.sqrt_det_g
        return float(np.sum(self.node_weights() * f))

    def param_gradient(self, f):
        """Per-axis parameter derivatives of a node scalar, shape + (n,)."""
        return np.stack(
            [apply_derivative(f, self._deriv_mats[a], a) for a in range(self.n)], axis=-1
        )

    def ambient_gradient(self, f):
        """Tangential gradient of a node scalar as an ambient vector."""
        df = self.param_gradient(f)
        raised = np.einsum("...ab,...b->...a", self.metric_inv, df)
        return np.einsum("...da,...a->...d", self.jac, raised)

    def grad_norm_sq(self, f):
        df = self.param_gradient(f)
        return np.einsum("...a,...ab,...b->...", df, self.metric_inv, df)

    def laplacian(self, f):
        """Metric-aware Laplacian: (1/sqrt g) d_a (sqrt g g^{ab} d_b f)."""
        df = self.param_gradient(f)
        flux = self.sqrt_det_g[..., None] * np.einsum("...ab,...b->...a", self.metric_inv, df)
        out = np.zeros(self.shape)
        for a in range(self.n):
            out += apply_derivative(flux[..., a], self._deriv_mats[a], a)
        return out / self.sqrt_det_g

    def laplacian_ambient(self, vec):
        """Componentwise Laplacian of an ambient vector field (e.g. X)."""
        return np.stack([self.laplacian(vec[..., d]) for d in range(self.dim)], axis=-1)


def _grid_for(box, shape, periodic):
    params, spacings = [], []
    for a, (lo, hi) in enumerate(box):
        m = shape[a]
        if m < 8:
            raise ValueError("resolution must be at least 8 nodes per axis")
        if periodic[a]:
            h = (hi - lo) / m
            params.append(lo + h * np.arange(m))
        else:
            h = (hi - lo) / (m - 1)
            params.append(np.linspace(lo, hi, m))
        spacings.append(h)
    return params, tuple(spacings)


def _cofactors(m):
    """(det, adjugate) of a stack of 2x2 or 3x3 matrices in closed form.

    The adjugate is the transposed cofactor matrix, so ``adj / det`` is the
    inverse; 3x3 cofactors use cyclic index shifts, which carry their signs.
    """
    if m.shape[-1] == 2:
        a, b = m[..., 0, 0], m[..., 0, 1]
        c, d = m[..., 1, 0], m[..., 1, 1]
        adj = np.stack([np.stack([d, -b], axis=-1), np.stack([-c, a], axis=-1)], axis=-2)
        return a * d - b * c, adj
    if m.shape[-1] == 3:
        adj = np.empty_like(m)
        for i in range(3):
            i1, i2 = (i + 1) % 3, (i + 2) % 3
            for j in range(3):
                j1, j2 = (j + 1) % 3, (j + 2) % 3
                adj[..., j, i] = m[..., i1, j1] * m[..., i2, j2] - m[..., i1, j2] * m[..., i2, j1]
        det = m[..., 0, 0] * adj[..., 0, 0] + m[..., 0, 1] * adj[..., 1, 0] \
            + m[..., 0, 2] * adj[..., 2, 0]
        return det, adj
    raise ValueError("only 2x2 and 3x3 matrices are supported")


def _generalized_cross(jac):
    """Vector orthogonal to the columns of jac, neither normalized nor
    sign-aligned.

    dim 3: plain cross product; dim 4: cofactor expansion of the 3-column
    frame (component i is (-1)^i times the minor without row i), each 3x3
    minor expanded along the third column over the 2x2 minors of the first
    two.
    """
    dim = jac.shape[-2]
    if dim == 3:
        return np.cross(jac[..., :, 0], jac[..., :, 1])
    if dim == 4:
        a, b, c = jac[..., :, 0], jac[..., :, 1], jac[..., :, 2]
        m2 = {(p, q): a[..., p] * b[..., q] - a[..., q] * b[..., p]
              for p in range(4) for q in range(p + 1, 4)}

        def minor(p, q, r):
            return c[..., p] * m2[q, r] - c[..., q] * m2[p, r] + c[..., r] * m2[p, q]

        return np.stack([minor(1, 2, 3), -minor(0, 2, 3), minor(0, 1, 3), -minor(0, 1, 2)],
                        axis=-1)
    raise ValueError("only ambient dimensions 3 and 4 are supported")


def _first_location(bad, params):
    """'at parameters (u1, ..., un)' of the first flagged node in C order."""
    idx = np.unravel_index(np.argmax(bad), bad.shape)
    return f"at parameters {tuple(float(p[i]) for p, i in zip(params, idx))}"


def _assemble(chart_name, n, dim, box, shape, periodic, spacings, params,
              X, jac, d2X, nu, pole_ends=()):
    g = np.ascontiguousarray(np.swapaxes(jac, -1, -2)) @ jac
    det, adj = _cofactors(g)
    bad = det <= DET_FLOOR
    if np.any(bad):
        idx = np.unravel_index(np.argmax(bad), det.shape)
        raise ImmersionError(
            f"degenerate metric on chart {chart_name!r}: det g = {det[idx]:.3e} "
            f"{_first_location(bad, params)}"
        )
    ginv = adj / det[..., None, None]
    hform = -np.einsum("...d,...dab->...ab", nu, d2X)
    S = ginv @ hform
    H = np.einsum("...aa->...", S)
    A2 = np.einsum("...ab,...ba->...", S, S)
    R = H * H - A2
    r = np.linalg.norm(X, axis=-1)
    origin = bool(np.any(r < 1e-12))
    rsafe = np.where(r < 1e-12, 1.0, r)
    xhat = X / rsafe[..., None]
    cosr = np.einsum("...d,...d->...", xhat, nu)
    grad_r = xhat - cosr[..., None] * nu
    if origin:
        mask = r < 1e-12
        cosr = np.where(mask, 0.0, cosr)
        grad_r = np.where(mask[..., None], 0.0, grad_r)
    mats = [derivative_matrix(shape[a], spacings[a], periodic[a]) for a in range(n)]
    return SampledGeometry(
        chart_name=chart_name, n=n, dim=dim, box=box, shape=tuple(shape),
        periodic=tuple(periodic), spacings=spacings, params=params,
        X=X, nu=nu, jac=jac, metric=g, metric_inv=ginv,
        sqrt_det_g=np.sqrt(det), second_form=hform, shape_op=S,
        mean_curvature=H, mean_curvature_vec=-H[..., None] * nu,
        A2=A2, scalar_curvature=R, r=r, grad_r=grad_r, radial_cos=cosr,
        origin_on_chart=origin, pole_ends=tuple(pole_ends), _deriv_mats=mats,
    )


def sample_chart(chart, shape):
    """Sample an analytic chart on a structured grid.

    ``shape`` is one int per parameter axis (or a single int for all).
    Raises :class:`ImmersionError` at degenerate nodes.
    """
    if np.isscalar(shape):
        shape = (int(shape),) * chart.n
    shape = tuple(int(m) for m in shape)
    box = chart.resolve_box(shape)
    params, spacings = _grid_for(box, shape, chart.periodic)
    U = np.stack(np.meshgrid(*params, indexing="ij"), axis=-1)
    X = chart.position(U)
    jac = chart.jacobian(U)
    d2X = chart.second_derivatives(U)
    nu = chart.normal(U)
    return _assemble(chart.name, chart.n, chart.dim, box, shape, chart.periodic,
                     spacings, params, X, jac, d2X, nu, pole_ends=chart.pole_ends)


def geometry_from_positions(X, box, periodic, ref_nu, chart_name="numeric", pole_ends=()):
    """Build a SampledGeometry from node positions alone (all derivatives by
    grid finite differences); the normal sign is aligned with ``ref_nu``.

    This is the oracle-side path used to resample perturbed immersions.
    """
    X = np.asarray(X, dtype=float)
    shape = X.shape[:-1]
    dim = X.shape[-1]
    n = len(shape)
    periodic = tuple(periodic)
    params, spacings = _grid_for(box, shape, periodic)
    mats = [derivative_matrix(shape[a], spacings[a], periodic[a]) for a in range(n)]
    jac = np.stack(
        [np.stack([apply_derivative(X[..., d], mats[a], a) for a in range(n)], axis=-1)
         for d in range(dim)],
        axis=-2,
    )
    raw = _generalized_cross(jac)
    norm = np.linalg.norm(raw, axis=-1)
    bad = ~(np.isfinite(norm) & (norm > 0.0))
    if np.any(bad):
        raise ImmersionError(f"zero or non-finite numeric normal on chart {chart_name!r} "
                             f"{_first_location(bad, params)}")
    nu = raw / norm[..., None]
    flip = np.sign(np.einsum("...d,...d->...", nu, ref_nu))
    if np.any(flip == 0):
        raise ImmersionError("numeric normal orthogonal to reference normal")
    nu = nu * flip[..., None]
    # d2X_ab symmetrized from derivatives of the Jacobian columns
    d2X = np.empty(shape + (dim, n, n))
    for a in range(n):
        for b in range(a, n):
            dab = apply_derivative(jac[..., :, a], mats[b], b)
            if b > a:
                dba = apply_derivative(jac[..., :, b], mats[a], a)
                dab = 0.5 * (dab + dba)
            d2X[..., a, b] = dab
            d2X[..., b, a] = dab
    return _assemble(chart_name, n, dim, list(box), shape, periodic, spacings,
                     params, X, jac, d2X, nu, pole_ends=pole_ends)


def resample_normal_graph(geom, u, t):
    """Geometry of the immersion X + t * u * nu, all fields re-derived by
    finite differences on the same parameter grid."""
    Y = geom.X + t * u[..., None] * geom.nu
    return geometry_from_positions(Y, geom.box, geom.periodic, geom.nu,
                                   chart_name=f"{geom.chart_name}+normal",
                                   pole_ends=geom.pole_ends)


# -- per-node linear algebra -------------------------------------------------


def gauss_scalar(shape_op, metric=None):
    """Scalar curvature from the shape operator: (tr S)^2 - tr(S^2).

    ``metric`` is accepted for signature completeness; traces of an
    endomorphism do not depend on it.
    """
    S = np.asarray(shape_op)
    H = np.einsum("...aa->...", S)
    A2 = np.einsum("...ab,...ba->...", S, S)
    return H * H - A2


def principal_curvatures(shape_op, metric):
    """Sorted eigenvalues of the g-self-adjoint shape operator (batched)."""
    S = np.asarray(shape_op, dtype=float)
    g = np.asarray(metric, dtype=float)
    h = np.einsum("...ab,...bc->...ac", g, S)
    L = np.linalg.cholesky(g)
    tmp = np.linalg.solve(L, h)
    M = np.linalg.solve(L, np.swapaxes(tmp, -1, -2))
    return np.linalg.eigvalsh(0.5 * (M + np.swapaxes(M, -1, -2)))


# -- boundary faces -----------------------------------------------------------


@dataclass
class BoundaryFace:
    """Quadrature data of one face of the parameter box."""

    axis: int
    side: int               # 0 = lower end, -1 = upper end
    X: np.ndarray
    nu: np.ndarray
    eta: np.ndarray         # outward unit conormal, tangent to the chart
    weights: np.ndarray     # quadrature weights including the face area element

    def integrate(self, density):
        return float(np.sum(self.weights * density))


def boundary_faces(geom):
    """Faces of all non-periodic axes with outward conormals.

    Polar-inset ends (sphere poles) are coordinate artifacts, not physical
    boundary, and are skipped.
    """
    faces = []
    axes_w = geom.axis_weights()
    for a in range(geom.n):
        if geom.periodic[a]:
            continue
        for side in (0, -1):
            if (a, side) in geom.pole_ends:
                continue
            sl = [slice(None)] * geom.n
            sl[a] = side
            sl = tuple(sl)
            keep = [b for b in range(geom.n) if b != a]
            gsub = geom.metric[sl][..., keep, :][..., :, keep]
            area = np.sqrt(np.linalg.det(gsub)) if keep else np.ones(geom.X[sl].shape[:-1])
            w = np.ones(area.shape)
            for pos, b in enumerate(keep):
                shp = [1] * len(keep)
                shp[pos] = -1
                w = w * axes_w[b].reshape(shp)
            v = np.einsum("...da,...ab->...db", geom.jac[sl], geom.metric_inv[sl])[..., a]
            v = v / np.linalg.norm(v, axis=-1)[..., None]
            eta = v if side == -1 else -v
            faces.append(BoundaryFace(axis=a, side=side, X=geom.X[sl], nu=geom.nu[sl],
                                      eta=eta, weights=w * area))
    return faces


def boundary_area(geom):
    return sum(f.integrate(1.0) for f in boundary_faces(geom))


# -- radial identity check ----------------------------------------------------


def laplace_r_check(geom, layers=2):
    """Max interior residual of the radial Laplacian identity

        Laplace r = n/r + (Laplace_g X) . xhat - |grad r|^2 / r,

    with both Laplacians taken by metric-aware finite differences.
    Requires the chart to avoid the ambient origin.
    """
    if geom.origin_on_chart or float(geom.r.min()) <= 0.0:
        raise ValueError("radial identity check needs a chart avoiding the origin")
    lap_r = geom.laplacian(geom.r)
    hvec = geom.laplacian_ambient(geom.X)
    xhat = geom.X / geom.r[..., None]
    gr2 = np.einsum("...d,...d->...", geom.grad_r, geom.grad_r)
    rhs = geom.n / geom.r + np.einsum("...d,...d->...", hvec, xhat) - gr2 / geom.r
    res = np.abs(lap_r - rhs)
    mask = geom.interior_mask(layers)
    return float(res[mask].max())


# -- CSV export ---------------------------------------------------------------

CSV_COLUMNS_DOC = (
    "u1..un, X1..Xd, nu1..nud, sqrt_det_g, H, A2, R, r, radial_cos, "
    "grad_r1..grad_rd  (nodes in C order of the grid)"
)


def export_csv(geom, path):
    """One row per node; fixed column order (see CSV_COLUMNS_DOC)."""
    n, d = geom.n, geom.dim
    U = np.stack(np.meshgrid(*geom.params, indexing="ij"), axis=-1)
    cols = [U[..., a].ravel() for a in range(n)]
    cols += [geom.X[..., i].ravel() for i in range(d)]
    cols += [geom.nu[..., i].ravel() for i in range(d)]
    cols += [geom.sqrt_det_g.ravel(), geom.mean_curvature.ravel(), geom.A2.ravel(),
             geom.scalar_curvature.ravel(), geom.r.ravel(), geom.radial_cos.ravel()]
    cols += [geom.grad_r[..., i].ravel() for i in range(d)]
    header = (
        [f"u{a+1}" for a in range(n)]
        + [f"X{i+1}" for i in range(d)]
        + [f"nu{i+1}" for i in range(d)]
        + ["sqrt_det_g", "H", "A2", "R", "r", "radial_cos"]
        + [f"grad_r{i+1}" for i in range(d)]
    )
    data = np.column_stack(cols)
    np.savetxt(path, data, delimiter=",", header=",".join(header), comments="")


# -- chart catalog ------------------------------------------------------------


def _sphere2(angles):
    """S^2 direction and derivatives from (theta, phi): omega, d_omega (3,2),
    d2_omega (3,2,2)."""
    th, ph = angles[..., 0], angles[..., 1]
    st, ct = np.sin(th), np.cos(th)
    sp, cp = np.sin(ph), np.cos(ph)
    omega = np.stack([st * cp, st * sp, ct], axis=-1)
    d = np.empty(omega.shape + (2,))
    d[..., 0, 0], d[..., 1, 0], d[..., 2, 0] = ct * cp, ct * sp, -st
    d[..., 0, 1], d[..., 1, 1], d[..., 2, 1] = -st * sp, st * cp, np.zeros_like(st)
    dd = np.empty(omega.shape + (2, 2))
    dd[..., 0, 0] = -omega
    mixed = np.stack([-ct * sp, ct * cp, np.zeros_like(st)], axis=-1)
    dd[..., 0, 1] = mixed
    dd[..., 1, 0] = mixed
    dd[..., 1, 1] = np.stack([-st * cp, -st * sp, np.zeros_like(st)], axis=-1)
    return omega, d, dd


def _sphere3(angles):
    """S^3 direction and derivatives from (theta1, theta2, theta3)."""
    t1 = angles[..., 0]
    s1, c1 = np.sin(t1), np.cos(t1)
    eta, deta, ddeta = _sphere2(angles[..., 1:])
    omega = np.concatenate([s1[..., None] * eta, c1[..., None]], axis=-1)
    d = np.zeros(omega.shape + (3,))
    d[..., :3, 0] = c1[..., None] * eta
    d[..., 3, 0] = -s1
    d[..., :3, 1] = s1[..., None] * deta[..., 0]
    d[..., :3, 2] = s1[..., None] * deta[..., 1]
    dd = np.zeros(omega.shape + (3, 3))
    dd[..., :, 0, 0] = -omega
    dd[..., :3, 0, 1] = c1[..., None] * deta[..., 0]
    dd[..., :3, 0, 2] = c1[..., None] * deta[..., 1]
    dd[..., :3, 1, 0] = dd[..., :3, 0, 1]
    dd[..., :3, 2, 0] = dd[..., :3, 0, 2]
    dd[..., :3, 1, 1] = s1[..., None] * ddeta[..., 0, 0]
    dd[..., :3, 1, 2] = s1[..., None] * ddeta[..., 0, 1]
    dd[..., :3, 2, 1] = dd[..., :3, 1, 2]
    dd[..., :3, 2, 2] = s1[..., None] * ddeta[..., 1, 1]
    return omega, d, dd


class Chart:
    """Base class: subclasses provide position/jacobian/second/normal."""

    name = "chart"
    #: (axis, side) pairs whose box end sits on a coordinate degeneracy
    #: (sphere pole); that end is inset by half a grid step at sampling
    #: time and its face is not part of the physical boundary.
    pole_ends = ()

    def __init__(self, n, box, periodic):
        self.n = n
        self.dim = n + 1
        self.box = [tuple(map(float, b)) for b in box]
        self.periodic = tuple(periodic)

    def resolve_box(self, shape):
        box = [list(b) for b in self.box]
        for a in range(self.n):
            ends = [s for (ax, s) in self.pole_ends if ax == a]
            if not ends:
                continue
            m = shape[a]
            span = box[a][1] - box[a][0]
            # pad equals half the post-inset grid step
            pad = span / (2 * (m - 1) + len(ends))
            if 0 in ends:
                box[a][0] += pad
            if -1 in ends:
                box[a][1] -= pad
        return [tuple(b) for b in box]

    def dilate(self, factor):
        raise NotImplementedError(f"{self.name} has no dilation rule")

    # subclasses implement: position, jacobian, second_derivatives, normal


class Hyperplane(Chart):
    """Flat chart in the coordinate hyperplane x_d = offset.

    Cartesian by default; ``polar=True`` uses radial coordinates in the
    hyperplane (ball/annulus patches), radial axis first.
    """

    def __init__(self, n=3, offset=1.0, box=None, polar=False):
        self.offset = float(offset)
        self.polar = bool(polar)
        self.supports_intrinsic_radius = bool(polar) and self.offset == 0.0
        if polar:
            if box is None:
                box = [(R_MIN, 1.0)] + ([(0.0, np.pi)] if n == 3 else []) + [(0.0, 2 * np.pi)]
            periodic = [False] * (n - 1) + [True]
            self.pole_ends = ((1, 0), (1, -1)) if n == 3 else ()
        else:
            if box is None:
                box = [(-1.0, 1.0)] * n
            periodic = [False] * n
        super().__init__(n, box, periodic)
        self.name = f"hyperplane{'_polar' if polar else ''}{n}"

    def _plane_point(self, u):
        if not self.polar:
            return u
        if self.n == 2:
            s, th = u[..., 0], u[..., 1]
            return np.stack([s * np.cos(th), s * np.sin(th)], axis=-1)
        s = u[..., 0]
        om, _, _ = _sphere2(u[..., 1:])
        return s[..., None] * om

    def position(self, u):
        p = self._plane_point(u)
        off = np.full(p.shape[:-1] + (1,), self.offset)
        return np.concatenate([p, off], axis=-1)

    def jacobian(self, u):
        shp = u.shape[:-1]
        J = np.zeros(shp + (self.dim, self.n))
        if not self.polar:
            for a in range(self.n):
                J[..., a, a] = 1.0
            return J
        if self.n == 2:
            s, th = u[..., 0], u[..., 1]
            J[..., 0, 0], J[..., 1, 0] = np.cos(th), np.sin(th)
            J[..., 0, 1], J[..., 1, 1] = -s * np.sin(th), s * np.cos(th)
            return J
        s = u[..., 0]
        om, dom, _ = _sphere2(u[..., 1:])
        J[..., :3, 0] = om
        J[..., :3, 1] = s[..., None] * dom[..., 0]
        J[..., :3, 2] = s[..., None] * dom[..., 1]
        return J

    def second_derivatives(self, u):
        shp = u.shape[:-1]
        d2 = np.zeros(shp + (self.dim, self.n, self.n))
        if not self.polar:
            return d2
        if self.n == 2:
            s, th = u[..., 0], u[..., 1]
            d2[..., 0, 0, 1] = -np.sin(th)
            d2[..., 1, 0, 1] = np.cos(th)
            d2[..., :, 1, 0] = d2[..., :, 0, 1]
            d2[..., 0, 1, 1] = -s * np.cos(th)
            d2[..., 1, 1, 1] = -s * np.sin(th)
            return d2
        s = u[..., 0]
        om, dom, ddom = _sphere2(u[..., 1:])
        d2[..., :3, 0, 1] = dom[..., 0]
        d2[..., :3, 0, 2] = dom[..., 1]
        d2[..., :3, 1, 0] = dom[..., 0]
        d2[..., :3, 2, 0] = dom[..., 1]
        for a in range(2):
            for b in range(2):
                d2[..., :3, 1 + a, 1 + b] = s[..., None] * ddom[..., a, b]
        return d2

    def normal(self, u):
        nu = np.zeros(u.shape[:-1] + (self.dim,))
        nu[..., -1] = 1.0
        return nu

    def dilate(self, factor):
        box = [(factor * lo, factor * hi) if (self.polar and a == 0) or not self.polar
               else (lo, hi) for a, (lo, hi) in enumerate(self.box)]
        return Hyperplane(self.n, offset=factor * self.offset, box=box, polar=self.polar)

    def intrinsic_radius(self, u):
        """Exact intrinsic distance to the origin preimage; only defined for
        radial charts of a hyperplane through the origin."""
        if not self.supports_intrinsic_radius:
            raise ValueError("intrinsic radius needs a polar chart through the origin")
        return np.asarray(u, dtype=float)[..., 0]


class Sphere(Chart):
    """Round sphere of radius rho about ``center``, outward normal."""

    def __init__(self, n=3, radius=1.0, center=None, box=None):
        self.radius = float(radius)
        self.center = np.zeros(n + 1) if center is None else np.asarray(center, dtype=float)
        if n == 2:
            default = [(0.0, np.pi), (0.0, 2 * np.pi)]
            periodic = [False, True]
            polar_axes = (0,)
        else:
            default = [(0.0, np.pi), (0.0, np.pi), (0.0, 2 * np.pi)]
            periodic = [False, False, True]
            polar_axes = (0, 1)
        super().__init__(n, box or default, periodic)
        # only box ends landing exactly on a pole get the half-step inset
        ends = []
        for a in polar_axes:
            if abs(self.box[a][0]) < 1e-12:
                ends.append((a, 0))
            if abs(self.box[a][1] - np.pi) < 1e-12:
                ends.append((a, -1))
        self.pole_ends = tuple(ends)
        self.name = f"sphere{n}"

    def _omega(self, u):
        return _sphere2(u) if self.n == 2 else _sphere3(u)

    def position(self, u):
        om, _, _ = self._omega(u)
        return self.center + self.radius * om

    def jacobian(self, u):
        _, dom, _ = self._omega(u)
        return self.radius * dom

    def second_derivatives(self, u):
        _, _, ddom = self._omega(u)
        return self.radius * ddom

    def normal(self, u):
        om, _, _ = self._omega(u)
        return om

    def dilate(self, factor):
        return Sphere(self.n, radius=factor * self.radius, center=factor * self.center,
                      box=self.box)


class Cylinder(Chart):
    """Product of a round sphere of radius ``a`` with a line segment."""

    def __init__(self, n=3, link_radius=1.0, z_range=(-1.0, 1.0), theta_range=None):
        self.a = float(link_radius)
        if n == 2:
            box = [[0.0, 2 * np.pi], list(z_range)]
            periodic = [True, False]
        else:
            th = theta_range or (0.0, np.pi)
            box = [list(th), [0.0, 2 * np.pi], list(z_range)]
            periodic = [False, True, False]
            self.pole_ends = ((0, 0), (0, -1)) if theta_range is None else ()
        super().__init__(n, box, periodic)
        self.name = f"cylinder{n}"

    def _link(self, u):
        if self.n == 2:
            th = u[..., 0]
            om = np.stack([np.cos(th), np.sin(th)], axis=-1)
            dom = np.stack([-np.sin(th), np.cos(th)], axis=-1)[..., None]
            ddom = -om[..., None, None]
            return om, dom, ddom
        return _sphere2(u[..., :2])

    def position(self, u):
        om, _, _ = self._link(u)
        return np.concatenate([self.a * om, u[..., -1:]], axis=-1)

    def jacobian(self, u):
        om, dom, _ = self._link(u)
        shp = u.shape[:-1]
        J = np.zeros(shp + (self.dim, self.n))
        J[..., : self.dim - 1, : self.n - 1] = self.a * dom
        J[..., -1, -1] = 1.0
        return J

    def second_derivatives(self, u):
        _, _, ddom = self._link(u)
        shp = u.shape[:-1]
        d2 = np.zeros(shp + (self.dim, self.n, self.n))
        d2[..., : self.dim - 1, : self.n - 1, : self.n - 1] = self.a * ddom
        return d2

    def normal(self, u):
        om, _, _ = self._link(u)
        z = np.zeros(u.shape[:-1] + (1,))
        return np.concatenate([om, z], axis=-1)


class Catenoid2(Chart):
    """Classical minimal surface of revolution in R^3, neck scale c."""

    def __init__(self, scale=1.0, s_range=(-1.0, 1.0), angular_box=None):
        self.c = float(scale)
        box = [list(s_range), list(angular_box or (0.0, 2 * np.pi))]
        super().__init__(2, box, [False, angular_box is None])
        self.name = "catenoid_2"

    def position(self, u):
        s, th = u[..., 0], u[..., 1]
        rho = self.c * np.cosh(s / self.c)
        return np.stack([rho * np.cos(th), rho * np.sin(th), s], axis=-1)

    def jacobian(self, u):
        s, th = u[..., 0], u[..., 1]
        sh, ch = np.sinh(s / self.c), np.cosh(s / self.c)
        J = np.zeros(u.shape[:-1] + (3, 2))
        J[..., 0, 0] = sh * np.cos(th)
        J[..., 1, 0] = sh * np.sin(th)
        J[..., 2, 0] = 1.0
        J[..., 0, 1] = -self.c * ch * np.sin(th)
        J[..., 1, 1] = self.c * ch * np.cos(th)
        return J

    def second_derivatives(self, u):
        s, th = u[..., 0], u[..., 1]
        sh, ch = np.sinh(s / self.c), np.cosh(s / self.c)
        d2 = np.zeros(u.shape[:-1] + (3, 2, 2))
        d2[..., 0, 0, 0] = ch / self.c * np.cos(th)
        d2[..., 1, 0, 0] = ch / self.c * np.sin(th)
        d2[..., 0, 0, 1] = -sh * np.sin(th)
        d2[..., 1, 0, 1] = sh * np.cos(th)
        d2[..., :, 1, 0] = d2[..., :, 0, 1]
        d2[..., 0, 1, 1] = -self.c * ch * np.cos(th)
        d2[..., 1, 1, 1] = -self.c * ch * np.sin(th)
        return d2

    def normal(self, u):
        s, th = u[..., 0], u[..., 1]
        sh, ch = np.sinh(s / self.c), np.cosh(s / self.c)
        return np.stack([np.cos(th) / ch, np.sin(th) / ch, -sh / ch], axis=-1)

    def dilate(self, factor):
        return Catenoid2(scale=factor * self.c,
                         s_range=(factor * self.box[0][0], factor * self.box[0][1]))


def _catenoid3_height(t, c, panels=40, order=12):
    """z(t) = int_0^t cosh(2 tau / c)^(-1/2) d tau by fixed composite
    Gauss-Legendre quadrature (vectorized, ~machine accurate)."""
    t = np.asarray(t, dtype=float)
    nodes, weights = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(0.0, 1.0, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1] - edges[0])
    taus = (mid[:, None] + half * nodes[None, :]).ravel()     # (panels*order,) in (0,1)
    ws = np.tile(half * weights, panels)
    tt = t[..., None] * taus
    vals = 1.0 / np.sqrt(np.cosh(2.0 * tt / c))
    return np.einsum("...q,q->...", vals, ws) * t


class Catenoid3(Chart):
    """Rotationally symmetric minimal hypersurface in R^4.

    Profile rho(t) = c sqrt(cosh(2t/c)) with height z(t) chosen so that
    (rho')^2 = (rho/c)^4 - 1 along the graph, which makes the chart
    exactly minimal; z needs one smooth quadrature, all derivatives are
    closed form.
    """

    def __init__(self, scale=1.0, t_range=(-0.8, 0.8), theta_range=None):
        self.c = float(scale)
        th = theta_range or (0.0, np.pi)
        box = [list(t_range), list(th), [0.0, 2 * np.pi]]
        super().__init__(3, box, [False, False, True])
        self.pole_ends = ((1, 0), (1, -1)) if theta_range is None else ()
        self.name = "catenoid_3"

    def _profile(self, t):
        ch = np.cosh(2.0 * t / self.c)
        sh = np.sinh(2.0 * t / self.c)
        rho = self.c * np.sqrt(ch)
        drho = sh / np.sqrt(ch)
        ddrho = (ch * ch + 1.0) / (self.c * ch ** 1.5)
        dz = 1.0 / np.sqrt(ch)
        ddz = -sh / (self.c * ch ** 1.5)
        return rho, drho, ddrho, dz, ddz, sh, ch

    def position(self, u):
        t = u[..., 0]
        rho = self._profile(t)[0]
        # the height quadrature runs once per distinct t (one grid axis)
        ts, where = np.unique(t, return_inverse=True)
        z = _catenoid3_height(ts, self.c)[where].reshape(t.shape)
        om, _, _ = _sphere2(u[..., 1:])
        return np.concatenate([rho[..., None] * om, z[..., None]], axis=-1)

    def jacobian(self, u):
        rho, drho, _, dz, _, _, _ = self._profile(u[..., 0])
        om, dom, _ = _sphere2(u[..., 1:])
        J = np.zeros(u.shape[:-1] + (4, 3))
        J[..., :3, 0] = drho[..., None] * om
        J[..., 3, 0] = dz
        J[..., :3, 1] = rho[..., None] * dom[..., 0]
        J[..., :3, 2] = rho[..., None] * dom[..., 1]
        return J

    def second_derivatives(self, u):
        rho, drho, ddrho, _, ddz, _, _ = self._profile(u[..., 0])
        om, dom, ddom = _sphere2(u[..., 1:])
        d2 = np.zeros(u.shape[:-1] + (4, 3, 3))
        d2[..., :3, 0, 0] = ddrho[..., None] * om
        d2[..., 3, 0, 0] = ddz
        for a in range(2):
            d2[..., :3, 0, 1 + a] = drho[..., None] * dom[..., a]
            d2[..., :3, 1 + a, 0] = d2[..., :3, 0, 1 + a]
            for b in range(2):
                d2[..., :3, 1 + a, 1 + b] = rho[..., None] * ddom[..., a, b]
        return d2

    def normal(self, u):
        _, _, _, _, _, sh, ch = self._profile(u[..., 0])
        om, _, _ = _sphere2(u[..., 1:])
        return np.concatenate([om / ch[..., None], (-sh / ch)[..., None]], axis=-1)

    def dilate(self, factor):
        return Catenoid3(scale=factor * self.c,
                         t_range=(factor * self.box[0][0], factor * self.box[0][1]),
                         theta_range=None if self.pole_ends else tuple(self.box[1]))


_HEIGHTS = ("paraboloid", "sine")


class Graph(Chart):
    """Graph chart x_d = offset + F(u) for a catalog height function."""

    def __init__(self, n=3, height="paraboloid", amplitude=0.5, offset=1.0, box=None):
        if height not in _HEIGHTS:
            raise ValueError(f"unknown height {height!r}")
        self.height = height
        self.amplitude = float(amplitude)
        self.offset = float(offset)
        super().__init__(n, box or [(-1.0, 1.0)] * n, [False] * n)
        self.name = f"graph_{height}{n}"

    def _F(self, u):
        if self.height == "paraboloid":
            F = 0.5 * self.amplitude * np.sum(u * u, axis=-1)
            dF = self.amplitude * u
            d2F = self.amplitude * np.broadcast_to(
                np.eye(self.n), u.shape[:-1] + (self.n, self.n)
            ).copy()
            return F, dF, d2F
        sins = np.sin(u)
        coss = np.cos(u)
        prod = np.prod(sins, axis=-1)
        F = self.amplitude * prod
        dF = np.empty_like(u)
        d2F = np.empty(u.shape[:-1] + (self.n, self.n))
        for a in range(self.n):
            rest_a = np.prod(np.delete(sins, a, axis=-1), axis=-1)
            dF[..., a] = self.amplitude * coss[..., a] * rest_a
            for b in range(self.n):
                if a == b:
                    d2F[..., a, a] = -self.amplitude * sins[..., a] * rest_a
                else:
                    rest_ab = np.prod(np.delete(np.delete(sins, max(a, b), axis=-1),
                                                min(a, b), axis=-1), axis=-1)
                    d2F[..., a, b] = self.amplitude * coss[..., a] * coss[..., b] * rest_ab
        return F, dF, d2F

    def position(self, u):
        F, _, _ = self._F(u)
        return np.concatenate([u, (self.offset + F)[..., None]], axis=-1)

    def jacobian(self, u):
        _, dF, _ = self._F(u)
        J = np.zeros(u.shape[:-1] + (self.dim, self.n))
        for a in range(self.n):
            J[..., a, a] = 1.0
        J[..., -1, :] = dF
        return J

    def second_derivatives(self, u):
        _, _, d2F = self._F(u)
        d2 = np.zeros(u.shape[:-1] + (self.dim, self.n, self.n))
        d2[..., -1, :, :] = d2F
        return d2

    def normal(self, u):
        _, dF, _ = self._F(u)
        denom = np.sqrt(1.0 + np.sum(dF * dF, axis=-1))[..., None]
        return np.concatenate([-dF, np.ones(u.shape[:-1] + (1,))], axis=-1) / denom

    def dilate(self, factor):
        if self.height != "paraboloid":
            raise NotImplementedError("only paraboloid graphs dilate within the catalog")
        box = [(factor * lo, factor * hi) for lo, hi in self.box]
        return Graph(self.n, "paraboloid", amplitude=self.amplitude / factor,
                     offset=factor * self.offset, box=box)


class ConePatch(Chart):
    """Truncated cone over a sphere, radial from the ambient origin.

    X(s, angles) = s (a omega, b) with a^2 + b^2 = 1, so r(X) = s exactly
    and the patch is invariant under dilations about the origin.
    """

    def __init__(self, n=3, link_ratio=0.8, s_range=(0.5, 1.5), theta_range=None):
        if not 0 < link_ratio < 1:
            raise ValueError("link ratio must be in (0, 1)")
        self.a = float(link_ratio)
        self.supports_intrinsic_radius = True
        self.b = float(np.sqrt(1.0 - link_ratio**2))
        if n == 2:
            box = [list(s_range), [0.0, 2 * np.pi]]
            periodic = [False, True]
        else:
            th = theta_range or (0.0, np.pi)
            box = [list(s_range), list(th), [0.0, 2 * np.pi]]
            periodic = [False, False, True]
            self.pole_ends = ((1, 0), (1, -1)) if theta_range is None else ()
        super().__init__(n, box, periodic)
        self.name = f"cone{n}"

    def _link(self, u):
        if self.n == 2:
            th = u[..., 1]
            om = np.stack([np.cos(th), np.sin(th)], axis=-1)
            dom = np.stack([-np.sin(th), np.cos(th)], axis=-1)[..., None]
            ddom = -om[..., None, None]
            return om, dom, ddom
        return _sphere2(u[..., 1:])

    def position(self, u):
        om, _, _ = self._link(u)
        s = u[..., 0:1]
        return np.concatenate([self.a * s * om, self.b * s], axis=-1)

    def jacobian(self, u):
        om, dom, _ = self._link(u)
        s = u[..., 0]
        J = np.zeros(u.shape[:-1] + (self.dim, self.n))
        J[..., : self.dim - 1, 0] = self.a * om
        J[..., -1, 0] = self.b
        for a in range(self.n - 1):
            J[..., : self.dim - 1, 1 + a] = self.a * s[..., None] * dom[..., a]
        return J

    def second_derivatives(self, u):
        om, dom, ddom = self._link(u)
        s = u[..., 0]
        d2 = np.zeros(u.shape[:-1] + (self.dim, self.n, self.n))
        for a in range(self.n - 1):
            d2[..., : self.dim - 1, 0, 1 + a] = self.a * dom[..., a]
            d2[..., : self.dim - 1, 1 + a, 0] = self.a * dom[..., a]
            for b in range(self.n - 1):
                d2[..., : self.dim - 1, 1 + a, 1 + b] = self.a * s[..., None] * ddom[..., a, b]
        return d2

    def normal(self, u):
        om, _, _ = self._link(u)
        shape = u.shape[:-1] + (1,)
        return np.concatenate([self.b * om, np.full(shape, -self.a)], axis=-1)

    def dilate(self, factor):
        return ConePatch(self.n, link_ratio=self.a,
                         s_range=(factor * self.box[0][0], factor * self.box[0][1]),
                         theta_range=None if self.pole_ends or self.n == 2
                         else tuple(self.box[1]))

    def intrinsic_radius(self, u):
        """Distance to the apex along the cone (rays are unit speed)."""
        return np.asarray(u, dtype=float)[..., 0]


def catalog(n):
    """Catalog test charts of surface dimension n (all avoid the origin)."""
    if n == 2:
        return {
            "hyperplane": Hyperplane(2, offset=1.0),
            "sphere": Sphere(2, radius=1.0,
                             box=[(0.25 * np.pi, 0.75 * np.pi), (0.0, 2 * np.pi)]),
            "cylinder": Cylinder(2, link_radius=1.0, z_range=(-1.0, 1.0)),
            "catenoid_2": Catenoid2(scale=1.0, s_range=(-1.0, 1.0)),
            "graph": Graph(2, "paraboloid", amplitude=0.5, offset=1.0),
            "cone": ConePatch(2, link_ratio=0.8, s_range=(0.5, 1.5)),
        }
    if n == 3:
        band = (0.25 * np.pi, 0.75 * np.pi)
        return {
            "hyperplane": Hyperplane(3, offset=1.0),
            "sphere": Sphere(3, radius=1.0,
                             box=[band, band, (0.0, 2 * np.pi)]),
            "cylinder": Cylinder(3, link_radius=1.0, z_range=(-1.0, 1.0),
                                 theta_range=band),
            "catenoid_3": Catenoid3(scale=1.0, t_range=(-0.8, 0.8), theta_range=band),
            "graph": Graph(3, "paraboloid", amplitude=0.5, offset=1.0),
            "cone": ConePatch(3, link_ratio=0.8, s_range=(0.5, 1.5), theta_range=band),
        }
    raise ValueError("catalog covers n = 2 and n = 3")
