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

A chart of revolution reads its seam and its poles from its box
(`Revolution`): the link's azimuth is periodic exactly when its range
spans 2 pi, and an end of a polar angle at 0 or pi is a pole.  Quadrature
and stencils wrap across a periodic axis.  Pole ends are inset by half a
grid step so nodes never sit on the degeneracy; the inset shrinks under
refinement, so integrals converge to the closed (uninset) values at second
order.  Every other end of a non-periodic axis is physical boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

R_MIN = 1e-3          # radial floor required by conformal operations
DET_FLOOR = 1e-10     # immersion check threshold on det(g)
ANGLE_TOL = 1e-12     # a box end within this of 0, pi or a 2 pi span sits there


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

    def interior_mask(self):
        """Mask excluding two node layers at non-periodic edges."""
        mask = np.ones(self.shape, dtype=bool)
        for a in range(self.n):
            if not self.periodic[a]:
                for ends in (slice(0, 2), slice(self.shape[a] - 2, None)):
                    mask[(slice(None),) * a + (ends,)] = False
        return mask

    def boundary_ends(self):
        """(axis, side) of each physical boundary end: both ends of every
        non-periodic axis except the polar-inset ones, which are coordinate
        artifacts where the surface closes smoothly."""
        return [(a, side) for a in range(self.n) if not self.periodic[a]
                for side in (0, -1) if (a, side) not in self.pole_ends]

    def dirichlet_mask(self):
        """Mask of free nodes for Dirichlet problems: one node layer of each
        physical boundary end is clamped; the nodes of a polar-inset end stay
        free (natural condition on a ring that shrinks with the grid step)."""
        mask = np.ones(self.shape, dtype=bool)
        for a, side in self.boundary_ends():
            mask[(slice(None),) * a + (side,)] = False
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


def _cofactor(m, i, j):
    """(i, j) cofactor of a stack of 3x3 matrices; the cyclic index shifts
    carry its sign."""
    i1, i2 = (i + 1) % 3, (i + 2) % 3
    j1, j2 = (j + 1) % 3, (j + 2) % 3
    return m[..., i1, j1] * m[..., i2, j2] - m[..., i1, j2] * m[..., i2, j1]


def _cofactors(m):
    """(det, adjugate) of a stack of 2x2 or 3x3 matrices in closed form, a
    3x3 det expanded along the first row.

    The adjugate is the transposed cofactor matrix, so ``adj / det`` is the
    inverse.
    """
    if m.shape[-1] == 2:
        a, b = m[..., 0, 0], m[..., 0, 1]
        c, d = m[..., 1, 0], m[..., 1, 1]
        adj = np.stack([np.stack([d, -b], axis=-1), np.stack([-c, a], axis=-1)], axis=-2)
        return a * d - b * c, adj
    if m.shape[-1] == 3:
        adj = np.empty_like(m)
        for i in range(3):
            for j in range(3):
                adj[..., j, i] = _cofactor(m, i, j)
        det = m[..., 0, 0] * adj[..., 0, 0] + m[..., 0, 1] * adj[..., 1, 0] \
            + m[..., 0, 2] * adj[..., 2, 0]
        return det, adj
    raise ValueError("only 2x2 and 3x3 matrices are supported")


def _generalized_cross(jac):
    """Components (one array per ambient axis) of a vector orthogonal to the
    columns of jac, neither normalized nor sign-aligned.

    dim 3: the cross product in the order of ``np.cross``; dim 4: cofactor
    expansion of the 3-column frame (component i is (-1)^i times the minor
    without row i), each 3x3 minor expanded along the third column over the
    2x2 minors of the first two.
    """
    dim = jac.shape[-2]
    if dim == 3:
        a, b = jac[..., :, 0], jac[..., :, 1]
        return [a[..., 1] * b[..., 2] - a[..., 2] * b[..., 1],
                a[..., 2] * b[..., 0] - a[..., 0] * b[..., 2],
                a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]]
    if dim == 4:
        a, b, c = jac[..., :, 0], jac[..., :, 1], jac[..., :, 2]
        m2 = {(p, q): a[..., p] * b[..., q] - a[..., q] * b[..., p]
              for p in range(4) for q in range(p + 1, 4)}

        def minor(p, q, r):
            return c[..., p] * m2[q, r] - c[..., q] * m2[p, r] + c[..., r] * m2[p, q]

        return [minor(1, 2, 3), -minor(0, 2, 3), minor(0, 1, 3), -minor(0, 1, 2)]
    raise ValueError("only ambient dimensions 3 and 4 are supported")


def _first_location(bad, params):
    """'at parameters (u1, ..., un)' of the first flagged node in C order;
    ``bad`` may stack grids on leading axes."""
    idx = np.unravel_index(np.argmax(bad), bad.shape)[bad.ndim - len(params):]
    return f"at parameters {tuple(float(p[i]) for p, i in zip(params, idx))}"


def _metric(jac, chart_name, params):
    """(g, det g, adj g) of g = J^T J; raises at det g <= DET_FLOOR."""
    g = np.ascontiguousarray(np.swapaxes(jac, -1, -2)) @ jac
    det, adj = _cofactors(g)
    return g, _nondegenerate(det, chart_name, params), adj


def _nondegenerate(det, chart_name, params):
    """``det`` (of g), after raising where it is at most DET_FLOOR."""
    bad = det <= DET_FLOOR
    if np.any(bad):
        idx = np.unravel_index(np.argmax(bad), det.shape)
        raise ImmersionError(
            f"degenerate metric on chart {chart_name!r}: det g = {det[idx]:.3e} "
            f"{_first_location(bad, params)}"
        )
    return det


def curvature_scalars(S):
    """(H, |A|^2, R) of the shape operator S: H = tr S, |A|^2 = tr(S^2) and
    the Gauss equation R = H^2 - |A|^2."""
    H = np.einsum("...aa->...", S)
    A2 = np.einsum("...ab,...ba->...", S, S)
    return H, A2, H * H - A2


def _assemble(chart_name, box, periodic, spacings, params, mats,
              X, jac, d2X, nu, metric, pole_ends=()):
    """The SampledGeometry of node positions X and their derivatives on the
    grid ``params``, whose finite-difference matrices are ``mats``."""
    shape, dim, n = X.shape[:-1], X.shape[-1], X.ndim - 1
    g, det, adj = metric
    ginv = adj / det[..., None, None]
    hform = -np.einsum("...d,...dab->...ab", nu, d2X)
    S = ginv @ hform
    H, A2, R = curvature_scalars(S)
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
    return SampledGeometry(
        chart_name=chart_name, n=n, dim=dim, box=box, shape=tuple(shape),
        periodic=tuple(periodic), spacings=spacings, params=params,
        X=X, nu=nu, jac=jac, metric=g, metric_inv=ginv,
        sqrt_det_g=np.sqrt(det), shape_op=S,
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
    X, jac, d2X, nu = chart.frame(U)
    mats = [derivative_matrix(m, h, per) for m, h, per in zip(shape, spacings, chart.periodic)]
    return _assemble(chart.name, box, chart.periodic, spacings, params, mats, X, jac, d2X,
                     nu, _metric(jac, chart.name, params), pole_ends=chart.pole_ends)


def fd_jacobian(X, mats):
    """J[..., d, a] = dX_d / du_a of node positions X by the finite-difference
    matrices ``mats`` of the grid axes.  Each entry (d, a) is contiguous over
    the grid (the array is a view of one of shape (dim, n) + grid), so the
    entrywise products of :func:`_generalized_cross` read contiguous data."""
    jac = np.stack([np.stack([apply_derivative(X[..., d], D, a) for a, D in enumerate(mats)])
                    for d in range(X.shape[-1])])
    return np.moveaxis(jac, (0, 1), (-2, -1))


def _oriented_normal(jac, ref_nu, params, chart_name):
    """(nu, |N|) of the frames ``jac``: N is their generalized cross product,
    nu = N / |N| with its sign aligned with ``ref_nu``, and |N| is the area
    element, |N|^2 = det(J^T J) by the Cauchy-Binet identity.  ``jac`` may
    stack frames on leading axes before the grid axes of ``params``; each
    component of nu is contiguous over them.  Raises where N is zero or not
    finite, or |N|^2 <= DET_FLOOR."""
    raw = _generalized_cross(jac)
    norm2 = raw[0] * raw[0]
    for comp in raw[1:]:
        norm2 = norm2 + comp * comp            # the order of np.linalg.norm
    norm = np.sqrt(norm2)
    bad = ~(np.isfinite(norm) & (norm > 0.0))
    if np.any(bad):
        raise ImmersionError(f"zero or non-finite numeric normal on chart {chart_name!r} "
                             f"{_first_location(bad, params)}")
    _nondegenerate(norm2, chart_name, params)
    unit = [comp / norm for comp in raw]
    flip = np.sign(sum(comp * ref_nu[..., d] for d, comp in enumerate(unit)))
    if np.any(flip == 0):
        raise ImmersionError("numeric normal orthogonal to reference normal")
    return np.moveaxis(np.stack([comp * flip for comp in unit]), 0, -1), norm


def geometry_from_positions(X, box, periodic, ref_nu, chart_name="numeric", pole_ends=()):
    """Build a SampledGeometry from node positions alone (all derivatives by
    grid finite differences); the normal sign is aligned with ``ref_nu``."""
    X = np.asarray(X, dtype=float)
    shape, dim, n = X.shape[:-1], X.shape[-1], X.ndim - 1
    periodic = tuple(periodic)
    params, spacings = _grid_for(box, shape, periodic)
    mats = [derivative_matrix(shape[a], spacings[a], periodic[a]) for a in range(n)]
    jac = np.ascontiguousarray(fd_jacobian(X, mats))
    nu = np.ascontiguousarray(_oriented_normal(jac, ref_nu, params, chart_name)[0])
    metric = _metric(jac, chart_name, params)
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
    return _assemble(chart_name, list(box), periodic, spacings, params, mats,
                     X, jac, d2X, nu, metric, pole_ends=pole_ends)


def resample_normal_graph(geom, jac0, jac1=None, taus=(0.0,)):
    """(nu, |N|) of the immersions X + tau u nu, one per tau of ``taus``,
    stacked on a leading axis: ``jac0`` is the finite-difference Jacobian
    (:func:`fd_jacobian`) of ``geom.X`` and ``jac1`` that of u nu (omitted
    for tau = 0 alone).  Finite differences are linear, so each immersion's
    Jacobian is jac0 + tau jac1, and its normal and area element |N| =
    sqrt det g come from the generalized cross product N of that frame
    (:func:`_oriented_normal`); the resample-and-difference oracle needs
    nothing else, so neither the metric nor a second derivative is formed."""
    taus = np.asarray(taus, dtype=float)
    if jac1 is None:
        jac = np.broadcast_to(jac0, taus.shape + jac0.shape)
    else:
        jac = jac0 + taus.reshape(taus.shape + (1,) * jac0.ndim) * jac1
    return _oriented_normal(jac, geom.nu, geom.params, f"{geom.chart_name}+normal")


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
    """The faces of the physical boundary ends (`SampledGeometry.boundary_ends`)
    with outward conormals."""
    faces = []
    axes_w = geom.axis_weights()
    for a, side in geom.boundary_ends():
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


def laplace_r_check(geom):
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
    return float(res[geom.interior_mask()].max())


# -- array export -------------------------------------------------------------


def export_arrays(geom):
    """The arrays of `export_csv` by archive name: each parameter axis u1..un
    once, then the sampled fields in their grid shapes."""
    arrays = {f"u{a + 1}": p for a, p in enumerate(geom.params)}
    arrays.update(X=geom.X, nu=geom.nu, sqrt_det_g=geom.sqrt_det_g, H=geom.mean_curvature,
                  A2=geom.A2, R=geom.scalar_curvature, r=geom.r, radial_cos=geom.radial_cos,
                  grad_r=geom.grad_r)
    return arrays


def export_csv(geom, path):
    """Write the arrays of `export_arrays` to exactly ``path`` as an
    uncompressed ``np.savez`` archive (given a file name, ``np.savez``
    would append ``.npz`` to one that lacks it).  Every value keeps its
    bits, and the bytes depend on the arrays only: each member is dated
    1980-01-01.  The name is kept from the CSV table this replaced, because
    ``perfbench/tracer.py`` wraps the function by this attribute and
    ``tests/test_perfbench_spans.py`` requires that it resolve."""
    with open(path, "wb") as fh:
        np.savez(fh, **export_arrays(geom))


# -- chart catalog ------------------------------------------------------------


def _circle(theta):
    """S^1 direction and derivatives from theta: omega (2,), d_omega (2,1),
    d2_omega (2,1,1)."""
    omega = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    d = np.stack([-np.sin(theta), np.cos(theta)], axis=-1)[..., None]
    return omega, d, -omega[..., None, None]


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


class Chart:
    """Base class: subclasses provide ``frame(u)``, which returns the
    position X, the Jacobian dX/du (dim, n), the second derivatives
    d^2X/du^2 (dim, n, n) and the unit normal nu at parameter points u."""

    name = "chart"
    #: (axis, side) pairs whose box end sits on a coordinate degeneracy
    #: (sphere pole); that end is inset by half a grid step at sampling
    #: time and its face is not part of the physical boundary.
    pole_ends = ()

    def __init__(self, n, box):
        self.n = n
        self.dim = n + 1
        self.box = [tuple(map(float, b)) for b in box]
        #: per axis, whether it closes on itself (no axis of a Cartesian chart)
        self.periodic = (False,) * n

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


class Revolution(Chart):
    """Hypersurface of revolution X = (rho(t) omega, z(t)) with omega on the
    unit sphere S^{n-1} (S^1 for n = 2, S^2 for n = 3).

    The profile parameter t is the first axis (the last one where
    ``profile_axis = -1``); the remaining axes parametrize omega.  A family
    supplies ``_profile(t)``, which returns (rho, rho', rho'', z, z', z'')
    and the normal components (n_rho, n_z) with nu = (n_rho omega, n_z).

    The box alone decides the seam and the poles: the last link axis (the
    azimuth) is periodic exactly when its range spans 2 pi, and an end of a
    polar angle (the link's theta for n = 3, and the profile parameter of
    a chart whose ``profile_is_polar``) is a pole when it sits at 0 or pi.
    """

    profile_axis = 0
    profile_is_polar = False

    def __init__(self, n, box):
        super().__init__(n, box)
        p = self.profile_axis % n
        links = [a for a in range(n) if a != p]
        lo, hi = self.box[links[-1]]
        seam = abs(hi - lo - 2 * np.pi) < ANGLE_TOL
        self.periodic = tuple(seam and a == links[-1] for a in range(n))
        polar = sorted(links[:-1] + [p] * self.profile_is_polar)
        self.pole_ends = tuple((a, side) for a in polar for side in (0, -1)
                               if min(abs(self.box[a][side]),
                                      abs(self.box[a][side] - np.pi)) < ANGLE_TOL)

    def frame(self, u):
        n = self.n
        p = self.profile_axis % n
        links = [a for a in range(n) if a != p]
        om, dom, ddom = _circle(u[..., links[0]]) if n == 2 else _sphere2(u[..., links])
        (rho, rho1, rho2, z, z1, z2), (n_rho, n_z) = self._profile(u[..., p])
        rho, rho1, rho2, n_rho = (np.asarray(f, dtype=float)[..., None]
                                  for f in (rho, rho1, rho2, n_rho))
        shp = u.shape[:-1]
        X = np.empty(shp + (n + 1,))
        X[..., :n] = rho * om
        X[..., n] = z
        J = np.zeros(shp + (n + 1, n))
        J[..., :n, p] = rho1 * om
        J[..., n, p] = z1
        d2 = np.zeros(shp + (n + 1, n, n))
        d2[..., :n, p, p] = rho2 * om
        d2[..., n, p, p] = z2
        for i, a in enumerate(links):
            J[..., :n, a] = rho * dom[..., i]
            d2[..., :n, p, a] = d2[..., :n, a, p] = rho1 * dom[..., i]
            for j, b in enumerate(links):
                d2[..., :n, a, b] = rho * ddom[..., i, j]
        nu = np.empty(shp + (n + 1,))
        nu[..., :n] = n_rho * om
        nu[..., n] = n_z
        return X, J, d2, nu


class Hyperplane(Revolution):
    """Flat chart in the coordinate hyperplane x_d = offset.

    Cartesian by default; ``polar=True`` uses radial coordinates in the
    hyperplane (ball/annulus patches), radial axis first.
    """

    def __init__(self, n=3, offset=1.0, box=None, polar=False):
        self.offset = float(offset)
        self.polar = bool(polar)
        self.supports_intrinsic_radius = bool(polar) and self.offset == 0.0
        if box is None:
            box = ([(R_MIN, 1.0)] + [(0.0, np.pi)] * (n - 2) + [(0.0, 2 * np.pi)] if polar
                   else [(-1.0, 1.0)] * n)
        # a Cartesian chart is not a chart of revolution: no seam, no pole
        (Revolution if polar else Chart).__init__(self, n, box)
        self.name = f"hyperplane{'_polar' if polar else ''}{n}"

    def _profile(self, s):
        return (s, 1.0, 0.0, self.offset, 0.0, 0.0), (0.0, 1.0)

    def frame(self, u):
        if self.polar:
            return super().frame(u)
        shp = u.shape[:-1]
        X = np.concatenate([u, np.full(shp + (1,), self.offset)], axis=-1)
        J = np.zeros(shp + (self.dim, self.n))
        J[..., np.arange(self.n), np.arange(self.n)] = 1.0
        nu = np.zeros(shp + (self.dim,))
        nu[..., -1] = 1.0
        return X, J, np.zeros(shp + (self.dim, self.n, self.n)), nu

    def intrinsic_radius(self, u):
        """Exact intrinsic distance to the origin preimage; only defined for
        radial charts of a hyperplane through the origin."""
        if not self.supports_intrinsic_radius:
            raise ValueError("intrinsic radius needs a polar chart through the origin")
        return np.asarray(u, dtype=float)[..., 0]


class Sphere(Revolution):
    """Round sphere of radius rho about ``center``, outward normal; the
    profile parameter is the polar angle."""

    profile_is_polar = True

    def __init__(self, n=3, radius=1.0, center=None, box=None):
        self.radius = float(radius)
        self.center = np.zeros(n + 1) if center is None else np.asarray(center, dtype=float)
        super().__init__(n, box or [(0.0, np.pi)] * (n - 1) + [(0.0, 2 * np.pi)])
        self.name = f"sphere{n}"

    def _profile(self, t):
        st, ct = np.sin(t), np.cos(t)
        R = self.radius
        return (R * st, R * ct, -R * st, R * ct, -R * st, -R * ct), (st, ct)

    def frame(self, u):
        X, J, d2, nu = super().frame(u)
        return self.center + X, J, d2, nu


class Cylinder(Revolution):
    """Product of a round sphere of radius ``a`` with a line segment."""

    profile_axis = -1

    def __init__(self, n=3, link_radius=1.0, z_range=(-1.0, 1.0), theta_range=(0.0, np.pi)):
        self.a = float(link_radius)
        super().__init__(n, [theta_range] * (n - 2) + [(0.0, 2 * np.pi), z_range])
        self.name = f"cylinder{n}"

    def _profile(self, z):
        return (self.a, 0.0, 0.0, z, 1.0, 0.0), (1.0, 0.0)


class Catenoid2(Revolution):
    """Classical minimal surface of revolution in R^3, neck scale c."""

    def __init__(self, scale=1.0, s_range=(-1.0, 1.0)):
        self.c = float(scale)
        super().__init__(2, [s_range, (0.0, 2 * np.pi)])
        self.name = "catenoid_2"

    def _profile(self, s):
        sh, ch = np.sinh(s / self.c), np.cosh(s / self.c)
        return (self.c * ch, sh, ch / self.c, s, 1.0, 0.0), (1.0 / ch, -sh / ch)


def _catenoid3_height(t, c):
    """z(t) = int_0^t cosh(2 tau / c)^(-1/2) d tau by fixed composite
    Gauss-Legendre quadrature, 40 panels of order 12 (vectorized, ~machine
    accurate)."""
    t = np.asarray(t, dtype=float)
    nodes, weights = np.polynomial.legendre.leggauss(12)
    edges = np.linspace(0.0, 1.0, 41)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1] - edges[0])
    taus = (mid[:, None] + half * nodes[None, :]).ravel()     # (40*12,) in (0,1)
    ws = np.tile(half * weights, mid.size)
    tt = t[..., None] * taus
    vals = 1.0 / np.sqrt(np.cosh(2.0 * tt / c))
    return np.einsum("...q,q->...", vals, ws) * t


class Catenoid3(Revolution):
    """Rotationally symmetric minimal hypersurface in R^4.

    Profile rho(t) = c sqrt(cosh(2t/c)) with height z(t) chosen so that
    (rho')^2 = (rho/c)^4 - 1 along the graph, which makes the chart
    exactly minimal; z needs one smooth quadrature, all derivatives are
    closed form.
    """

    def __init__(self, scale=1.0, t_range=(-0.8, 0.8), theta_range=(0.0, np.pi)):
        self.c = float(scale)
        super().__init__(3, [t_range, theta_range, (0.0, 2 * np.pi)])
        self.name = "catenoid_3"

    def _profile(self, t):
        ch = np.cosh(2.0 * t / self.c)
        sh = np.sinh(2.0 * t / self.c)
        # the height quadrature runs once per distinct t (one grid axis)
        ts, where = np.unique(t, return_inverse=True)
        z = _catenoid3_height(ts, self.c)[where].reshape(t.shape)
        return ((self.c * np.sqrt(ch), sh / np.sqrt(ch), (ch * ch + 1.0) / (self.c * ch ** 1.5),
                 z, 1.0 / np.sqrt(ch), -sh / (self.c * ch ** 1.5)),
                (1.0 / ch, -sh / ch))


HEIGHTS = ("paraboloid", "sine")


class Graph(Chart):
    """Graph chart x_d = offset + F(u) for a catalog height function."""

    def __init__(self, n=3, height="paraboloid", amplitude=0.5, offset=1.0, box=None):
        if height not in HEIGHTS:
            raise ValueError(f"unknown height {height!r}")
        self.height = height
        self.amplitude = float(amplitude)
        self.offset = float(offset)
        super().__init__(n, box or [(-1.0, 1.0)] * n)
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

    def frame(self, u):
        F, dF, d2F = self._F(u)
        shp = u.shape[:-1]
        X = np.concatenate([u, (self.offset + F)[..., None]], axis=-1)
        J = np.zeros(shp + (self.dim, self.n))
        J[..., np.arange(self.n), np.arange(self.n)] = 1.0
        J[..., -1, :] = dF
        d2 = np.zeros(shp + (self.dim, self.n, self.n))
        d2[..., -1, :, :] = d2F
        denom = np.sqrt(1.0 + np.sum(dF * dF, axis=-1))[..., None]
        nu = np.concatenate([-dF, np.ones(shp + (1,))], axis=-1) / denom
        return X, J, d2, nu


class ConePatch(Revolution):
    """Truncated cone over a sphere, radial from the ambient origin.

    X(s, angles) = s (a omega, b) with a^2 + b^2 = 1, so r(X) = s exactly
    and the patch is invariant under dilations about the origin.
    """

    def __init__(self, n=3, link_ratio=0.8, s_range=(0.5, 1.5), theta_range=(0.0, np.pi)):
        if not 0 < link_ratio < 1:
            raise ValueError("link ratio must be in (0, 1)")
        self.a = float(link_ratio)
        self.supports_intrinsic_radius = True
        self.b = float(np.sqrt(1.0 - link_ratio**2))
        super().__init__(n, [s_range] + [theta_range] * (n - 2) + [(0.0, 2 * np.pi)])
        self.name = f"cone{n}"

    def _profile(self, s):
        return (self.a * s, self.a, 0.0, self.b * s, self.b, 0.0), (self.b, -self.a)

    def dilate(self, factor):
        (lo, hi), *links = self.box
        return ConePatch(self.n, self.a, (factor * lo, factor * hi), *links[:-1])

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
