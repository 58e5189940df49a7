"""Sampled immersed hypersurface charts with curvature fields.

A chart is an analytic parametrization of a hypersurface patch over a box
in parameter space; sampling it on a structured grid produces a
:class:`SampledGeometry`.  It stores per node what the frame and the
metric give: the position X, the unit normal nu, the Jacobian, g^-1, the
area element sqrt(det g), the shape operator S and r = |X|.  It derives
the rest over the whole grid on first read and keeps it: H, |A|^2 and R
from S, the mean curvature vector from H and nu, and grad r and
xhat . nu from X, r and nu.

Conventions (the sign dictionary):

* shape operator ``S = grad(nu)``; second fundamental form in the
  parameter basis is ``h_ab = - nu . d^2 X / du_a du_b`` so that
  ``S = g^{-1} h``;
* scalar mean curvature ``H = tr S`` (outward-normal round sphere of
  radius rho: H = n / rho);
* mean curvature vector ``H_vec = Laplace_g X = -H nu``; the identity is
  validated numerically rather than assumed where both appear.

Every chart of revolution is the q = 0 instance of one two-link chart
X = (rho(t) omega, z(t) eta) (`Join`; S^0 is the point eta = +1), and the
cone over the Clifford torus its q = 1 instance.  It reads its seam and
its poles from its box, link by link.  Quadrature
and stencils wrap across a periodic axis.  Pole ends are inset by half a
grid step so nodes never sit on the degeneracy; the inset shrinks under
refinement, so integrals converge to the closed (uninset) values at second
order.  Every other end of a non-periodic axis is physical boundary.

Per-node tensors are stored entry-major: X, nu, H_vec and grad r as
(dim,) + grid, the Jacobian as (dim, n) + grid, d^2X as (dim, n, n) + grid
and g, g^-1 and S as (n, n) + grid, each exposed as a grid + entries view
(`_planes`), so every entry is one contiguous plane over the grid.
Sampling and derivation form each sum over an index (g, h, S = g^-1 h, H,
|A|^2, cos) plane by plane, added in index order (`_plane_dot`), and every
elementwise field inherits the storage of its operands.  No per-node
matrix product is formed, so the bits of a sampled chart depend on the
chart and the grid, not on the BLAS kernel the machine selects.

`sample_chart` allocates every stored field once and fills it slab by
slab: a slab is `_SLAB_NODES` nodes rounded down to whole layers of grid
axis 0 (at least one layer), and the chart's frame, the metric and the
fields of each slab are formed and written into that slab's layers
(`_assemble`), so the frame's temporaries, d^2X, g, h and adj g exist at
slab size only.  The frame and every field are pointwise, so their bits
do not depend on the slab size, and a field derived on read holds the
bits that the same operations give slab by slab.

Derivatives along the grid are BLAS-free too: one fourth-order five-point
kernel (`five_point`) of numpy slices, applied along one axis of a field
that may stack components on leading entry axes.  `fd_jacobian`,
`param_gradient`, `laplacian` and `geometry_from_positions` call it once
per grid axis on entry-major storage, so their bits do not depend on the
BLAS kernel either, and no derivative wakes a BLAS worker thread.
`geometry_from_positions` takes the normal and the area element of node
positions from `fd_jacobian` and `_oriented_normal`; the variation oracle
rebuilds each perturbed immersion by these two steps alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

R_MIN = 1e-3          # radial floor required by conformal operations
DET_FLOOR = 1e-10     # immersion check threshold on det(g)
ANGLE_TOL = 1e-12     # a box end within this of 0, pi or a 2 pi span sits there
#: nodes per slab of `sample_chart`, rounded down to whole layers of grid
#: axis 0.  Measured on a 49^3 cone (35.9 MiB of stored fields), the traced
#: transient above its fields is 0.43 times their bytes at this size, 0.22
#: at 2^13 nodes, 0.94 at 2^15 and 2.1 with the grid in one slab.  The
#: conformal qform job on that cone peaks at 61.1 MiB at 2^13 and 2^14
#: alike, in `conformal.deform` and the identity check, not in sampling;
#: the 21^3 and 25^3 samples of the benchmark fit in one slab, and cut into
#: two they take 10-20 % longer
_SLAB_NODES = 1 << 14


class ImmersionError(ValueError):
    """Raised when a sampled chart degenerates (det g below threshold)."""


# -- 1D stencils ------------------------------------------------------------


#: the one-sided fourth-order rows at the lower end of a non-periodic axis,
#: scaled by 12 h; the upper end's rows are their negated mirror images
_END_ROWS = ((-25.0, 48.0, -36.0, 16.0, -3.0), (-3.0, -10.0, 18.0, -6.0, 1.0))


def five_point(f, axis, h, periodic, out):
    """Fourth-order first derivative of ``f`` along ``axis`` (grid step
    ``h``), written into ``out`` and returned.

    Row i is a (f[i+1] - f[i-1]) + b (f[i+2] - f[i-2]), a = 2 / (3 h),
    b = -1 / (12 h); a periodic axis wraps these rows across its seam, and
    the two rows at each end of a non-periodic axis are the one-sided rows
    of `_END_ROWS`.  ``f`` may stack fields on leading entry axes and have
    any strides (it is read as C-contiguous floats, copied if it is not
    stored so); ``out`` is a C-contiguous array of its shape that does not
    overlap it.  Every row is formed by numpy's elementwise loops, so no
    BLAS call is made and the bits do not depend on the BLAS kernel or
    thread count.
    """
    if out.shape != f.shape or not out.flags.c_contiguous:
        raise ValueError("five_point writes into a C-contiguous out of the shape of f")
    f = np.ascontiguousarray(f, dtype=float)
    axis %= f.ndim
    m, size, step = f.shape[axis], f.size, math.prod(f.shape[axis + 1:])

    def at(i):
        return (slice(None),) * axis + (i,)

    # the interior rows of every line at once, as one run over the flattened
    # arrays; the rows within two of a line's ends, which straddle lines
    # there, are written again below
    a, b = 2.0 / (3.0 * h), -1.0 / (12.0 * h)
    flat, inner = f.reshape(-1), out.reshape(-1)[2 * step:size - 2 * step]
    np.subtract(flat[3 * step:size - step], flat[step:size - 3 * step], out=inner)
    inner *= a
    far = flat[4 * step:] - flat[:size - 4 * step]
    far *= b
    inner += far
    if periodic:
        for i in (0, 1, m - 2, m - 1):
            out[at(i)] = a * (f[at((i + 1) % m)] - f[at(i - 1)]) \
                + b * (f[at((i + 2) % m)] - f[at(i - 2)])
        return out
    scale = 1.0 / (12.0 * h)
    for i, row in enumerate(_END_ROWS):
        for first, side in ((0, 1), (m - 1, -1)):
            acc = row[0] * f[at(first)]
            for k in range(1, 5):
                acc += row[k] * f[at(first + side * k)]
            np.multiply(acc, side * scale, out=out[at(first + side * i)])
    return out


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


# -- entry-major storage --------------------------------------------------------


def _grid_view(stored, k):
    """The array ``stored`` of shape entries + grid (k entry axes) seen as
    grid + entries: each entry stays one contiguous plane over the grid."""
    return np.moveaxis(stored, tuple(range(k)), tuple(range(-k, 0)))


def _planes(grid, entries):
    """Zeros of shape grid + entries, stored entry-major (`_grid_view`)."""
    return _grid_view(np.zeros(tuple(entries) + tuple(grid)), len(entries))


def _plane_dot(x, y):
    """sum_k x[..., k] y[..., k], summed in k order over the last axis."""
    return sum(x[..., k] * y[..., k] for k in range(x.shape[-1]))


# -- sampled geometry -------------------------------------------------------


@dataclass
class SampledGeometry:
    """Per-node geometric data of one sampled chart.

    The fields store what the frame and the metric give (X, nu, jac,
    metric_inv, sqrt_det_g, shape_op, r).  The curvatures and radial
    quantities below them are derived over the whole grid on first read,
    stored entry-major (`_planes`) and kept; `dataclasses.replace` gives a
    geometry that derives them afresh from its own fields."""

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
    metric_inv: np.ndarray
    sqrt_det_g: np.ndarray
    shape_op: np.ndarray
    r: np.ndarray
    origin_on_chart: bool = False
    pole_ends: tuple = ()

    @cached_property
    def _curvatures(self):
        """(H, |A|^2, R) of the shape operator (`curvature_scalars`)."""
        return curvature_scalars(self.shape_op)

    @cached_property
    def mean_curvature(self):
        """H = tr S."""
        return self._curvatures[0]

    @cached_property
    def A2(self):
        """|A|^2 = tr(S^2)."""
        return self._curvatures[1]

    @cached_property
    def scalar_curvature(self):
        """R = H^2 - |A|^2 (Gauss equation)."""
        return self._curvatures[2]

    @cached_property
    def mean_curvature_vec(self):
        """H_vec = -H nu."""
        return np.multiply(-self.mean_curvature[..., None], self.nu,
                           out=_planes(self.shape, (self.dim,)))

    @cached_property
    def _radial(self):
        """(grad r, xhat . nu): the tangential and normal parts of xhat =
        X / r, both 0 at a node on the ambient origin."""
        at_origin = self.r < 1e-12
        xhat = self.X / np.where(at_origin, 1.0, self.r)[..., None]
        cosr = _plane_dot(xhat, self.nu)
        grad_r = np.subtract(xhat, cosr[..., None] * self.nu,
                             out=_planes(self.shape, (self.dim,)))
        if self.origin_on_chart:
            cosr[at_origin] = 0.0
            grad_r[at_origin] = 0.0
        return grad_r, cosr

    @cached_property
    def grad_r(self):
        """grad r = xhat - (xhat . nu) nu, tangent to the chart."""
        return self._radial[0]

    @cached_property
    def radial_cos(self):
        """xhat . nu."""
        return self._radial[1]

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
        """Per-axis parameter derivatives of a node field, f.shape + (n,),
        each derivative one contiguous plane."""
        return np.moveaxis(grid_derivatives(f, self.spacings, self.periodic), 0, -1)

    def grad_norm_sq(self, f):
        df = self.param_gradient(f)
        return np.einsum("...a,...ab,...b->...", df, self.metric_inv, df)

    def laplacian(self, f):
        """Metric-aware Laplacian: (1/sqrt g) d_a (sqrt g g^{ab} d_b f), of
        each field that ``f`` stacks on leading entry axes."""
        df = grid_derivatives(f, self.spacings, self.periodic)
        out, term = np.zeros(f.shape), np.empty(f.shape)
        for a in range(self.n):
            flux = self.metric_inv[..., a, 0] * df[0]
            for b in range(1, self.n):
                flux += self.metric_inv[..., a, b] * df[b]
            flux *= self.sqrt_det_g
            out += five_point(flux, f.ndim - self.n + a, self.spacings[a], self.periodic[a],
                              out=term)
        return out / self.sqrt_det_g

    def laplacian_ambient(self, vec):
        """Componentwise Laplacian of an ambient vector field (e.g. X),
        differentiated as one stack of entry-major component planes."""
        return _grid_view(self.laplacian(np.moveaxis(vec, -1, 0)), 1)


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
    inverse.  It is stored like ``m``: entry-major input gives an
    entry-major adjugate.
    """
    if m.shape[-1] not in (2, 3):
        raise ValueError("only 2x2 and 3x3 matrices are supported")
    adj = np.empty_like(m)
    if m.shape[-1] == 2:
        a, b = m[..., 0, 0], m[..., 0, 1]
        c, d = m[..., 1, 0], m[..., 1, 1]
        adj[..., 0, 0], adj[..., 0, 1], adj[..., 1, 0], adj[..., 1, 1] = d, -b, -c, a
        return a * d - b * c, adj
    for i in range(3):
        for j in range(3):
            adj[..., j, i] = _cofactor(m, i, j)
    det = m[..., 0, 0] * adj[..., 0, 0] + m[..., 0, 1] * adj[..., 1, 0] \
        + m[..., 0, 2] * adj[..., 2, 0]
    return det, adj


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
    """'at parameters (u1, ..., un)' of the first flagged node in C order."""
    idx = np.unravel_index(np.argmax(bad), bad.shape)
    return f"at parameters {tuple(float(p[i]) for p, i in zip(params, idx))}"


def _gram(jac, g):
    """Write g_ab = sum_d J_da J_db of the frames ``jac`` into ``g`` and
    return it."""
    n = jac.shape[-1]
    for a in range(n):
        for b in range(a, n):
            g[..., a, b] = g[..., b, a] = _plane_dot(jac[..., :, a], jac[..., :, b])
    return g


def _metric(jac, chart_name, params):
    """(det g, adj g) of the metric g = J^T J of the frames ``jac``; raises
    at det g <= DET_FLOOR."""
    n = jac.shape[-1]
    det, adj = _cofactors(_gram(jac, _planes(jac.shape[:-2], (n, n))))
    return _nondegenerate(det, chart_name, params), adj


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
    n = S.shape[-1]
    H = sum(S[..., a, a] for a in range(n))
    A2 = sum(S[..., a, b] * S[..., b, a] for a in range(n) for b in range(n))
    return H, A2, H * H - A2


def _fields(X, jac, d2X, nu, out, chart_name, params):
    """Write the stored fields of node positions X, their derivatives and
    unit normal nu on the grid ``params`` into ``out``, the arrays of the
    SampledGeometry fields on that grid by field name; return whether a
    node sits at the ambient origin.  Raises at a degenerate metric
    (`_metric`).  h and S = g^-1 h sum contiguous planes in index order."""
    n = X.ndim - 1
    for name, value in (("X", X), ("nu", nu), ("jac", jac)):
        out[name][...] = value
    det, adj = _metric(jac, chart_name, params)
    ginv = np.divide(adj, det[..., None, None], out=out["metric_inv"])
    np.sqrt(det, out=out["sqrt_det_g"])
    hform, S = _planes(X.shape[:-1], (n, n)), out["shape_op"]
    for a in range(n):
        for b in range(a, n):
            hform[..., a, b] = hform[..., b, a] = -_plane_dot(nu, d2X[..., a, b])
    for a in range(n):
        for b in range(n):
            S[..., a, b] = _plane_dot(ginv[..., a, :], hform[..., :, b])
    r = out["r"]
    r[...] = np.linalg.norm(X, axis=-1)
    return bool(np.any(r < 1e-12))


def _assemble(chart_name, box, periodic, spacings, params, slabs, pole_ends=()):
    """The SampledGeometry of the grid ``params`` of steps ``spacings``.

    ``slabs`` yields, in order, one tuple (X, jac, d2X, nu) per run of
    whole layers of grid axis 0, the runs together covering the grid: the
    node positions, their first and second derivatives and the unit
    normal.  Every stored field is allocated once over the whole grid,
    stored entry-major (`_planes`), and each slab's fields are written into
    its layers (`_fields`), checked on its own slice of the parameters of
    axis 0.  Every field is pointwise, so the bits do not depend on how the
    grid is cut."""
    shape = tuple(len(p) for p in params)
    n, dim = len(shape), len(shape) + 1
    entries = {"X": (dim,), "nu": (dim,), "jac": (dim, n), "metric_inv": (n, n),
               "sqrt_det_g": (), "shape_op": (n, n), "r": ()}
    # every entry of every field is written below, so the planes start empty
    out = {name: _grid_view(np.empty(axes + shape), len(axes)) for name, axes in entries.items()}
    origin, start = False, 0
    for X, jac, d2X, nu in slabs:
        layers = slice(start, start + X.shape[0])
        origin |= _fields(X, jac, d2X, nu, {name: field[layers] for name, field in out.items()},
                          chart_name, [params[0][layers]] + params[1:])
        start = layers.stop
    return SampledGeometry(
        chart_name=chart_name, n=n, dim=dim, box=box, shape=shape,
        periodic=tuple(periodic), spacings=spacings, params=params,
        origin_on_chart=origin, pole_ends=tuple(pole_ends), **out)


def sample_chart(chart, shape):
    """Sample an analytic chart on a structured grid.

    ``shape`` is one int per parameter axis (or a single int for all).
    Raises :class:`ImmersionError` at degenerate nodes, naming the first in
    C order.

    The grid is sampled slab by slab, each slab ``_SLAB_NODES`` nodes
    rounded down to whole layers of grid axis 0 (at least one layer): per
    slab, the parameter points, ``chart.frame``, the metric and the
    stored fields are formed and written into that slab of the fields
    (`_assemble`), so the frame's temporaries, d^2X, g, h and adj g exist
    at slab size only.  Every field is pointwise, so its bits do not depend on
    the slab size.  Slabs run in order, each checked on its own slice of
    the first axis's parameters, so a degenerate metric raises at the same
    node, with the same message, as a single-slab sample.
    """
    if np.isscalar(shape):
        shape = (int(shape),) * chart.n
    shape = tuple(int(m) for m in shape)
    box = chart.resolve_box(shape)
    params, spacings = _grid_for(box, shape, chart.periodic)
    layers = max(1, _SLAB_NODES // math.prod(shape[1:]))

    def slabs():
        for start in range(0, shape[0], layers):
            slab = [params[0][start:start + layers]] + params[1:]
            yield chart.frame(_grid_view(np.array(np.meshgrid(*slab, indexing="ij")), 1))

    return _assemble(chart.name, box, chart.periodic, spacings, params, slabs(),
                     pole_ends=chart.pole_ends)


def grid_derivatives(f, spacings, periodic):
    """df[a] = df / du_a of a node field ``f`` on a grid of steps
    ``spacings`` (periodic where ``periodic``), which may stack fields on
    leading entry axes before its len(spacings) grid axes: one
    :func:`five_point` call per grid axis, stacked on a new leading axis a,
    so each derivative is one contiguous block."""
    n = len(spacings)
    lead = f.ndim - n
    df = np.empty((n,) + f.shape)
    for a in range(n):
        five_point(f, lead + a, spacings[a], periodic[a], out=df[a])
    return df


def fd_jacobian(X, spacings, periodic):
    """J[..., d, a] = dX_d / du_a of node positions X by the five-point
    stencil (:func:`five_point`) along grid axis a, of step ``spacings[a]``
    and periodic where ``periodic[a]``: one call per grid axis on the
    entry-major (dim,) + grid storage of X.  J is a view of an array of
    shape (n, dim) + grid, so each column a is one contiguous block, each
    entry (d, a) is contiguous over the grid, and the entrywise products of
    :func:`_generalized_cross` read contiguous data."""
    jac = grid_derivatives(np.moveaxis(X, -1, 0), spacings, periodic)
    return np.moveaxis(jac, (0, 1), (-1, -2))


def _oriented_normal(jac, ref_nu, params, chart_name):
    """(nu, |N|) of the frames ``jac``: N is their generalized cross product,
    nu = N / |N| with its sign aligned with ``ref_nu``, and |N| is the area
    element, |N|^2 = det(J^T J) by the Cauchy-Binet identity; each component
    of nu is contiguous over the grid.  Raises where N is zero or not
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
    periodic = tuple(periodic)
    params, spacings = _grid_for(box, X.shape[:-1], periodic)
    jac = fd_jacobian(X, spacings, periodic)
    nu = _oriented_normal(jac, ref_nu, params, chart_name)[0]
    # d2X = (D + D^T)/2 of the derivatives D[b, a] = d/du_b of the Jacobian
    # columns a, differentiated through their (n, dim) + grid storage; d2X
    # is stored as (n, n, dim) + grid, so that each (a, b) block is contiguous
    D = grid_derivatives(np.moveaxis(jac, (-1, -2), (0, 1)), spacings, periodic)
    d2X = D + D.swapaxes(0, 1)
    d2X *= 0.5
    return _assemble(chart_name, list(box), periodic, spacings, params,
                     [(X, jac, np.moveaxis(d2X, (0, 1, 2), (-2, -1, -3)), nu)],
                     pole_ends=pole_ends)


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
        # the metric of the face, J^T J of its frames
        gsub = _gram(geom.jac[sl][..., keep], _planes(geom.X[sl].shape[:-1], (len(keep),) * 2))
        area = np.sqrt(np.linalg.det(gsub))
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


def boundary_radius(geom):
    """The largest |X| on the physical boundary of ``geom`` (0.0 for a
    chart without one)."""
    return max((float(np.linalg.norm(f.X, axis=-1).max()) for f in boundary_faces(geom)),
               default=0.0)


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


def _link(angles):
    """The unit sphere S^k, k = len(angles) <= 2, and its derivatives:
    omega (k + 1,), d omega (k + 1, k) and d^2 omega (k + 1, k, k), stored
    entry-major.  S^0 is the point +1, S^1 is (cos theta, sin theta) and S^2
    is (sin theta cos phi, sin theta sin phi, cos theta)."""
    if not angles:
        return np.ones(1), np.zeros((1, 0)), np.zeros((1, 0, 0))
    if len(angles) == 1:
        c, s = np.cos(angles[0]), np.sin(angles[0])
        omega, d, dd = [c, s], [[-s], [c]], [[[-c]], [[-s]]]
    else:
        st, ct = np.sin(angles[0]), np.cos(angles[0])
        sp, cp = np.sin(angles[1]), np.cos(angles[1])
        zero = np.zeros_like(st)
        omega = [st * cp, st * sp, ct]
        d = [[ct * cp, -st * sp], [ct * sp, st * cp], [-st, zero]]
        mixed = [-ct * sp, ct * cp, zero]
        dd = [[[-w, m], [m, e]] for w, m, e in zip(omega, mixed, [-st * cp, -st * sp, zero])]
    return (_grid_view(np.array(omega), 1), _grid_view(np.array(d), 2),
            _grid_view(np.array(dd), 3))


class Chart:
    """Base class: subclasses provide ``frame(u)``, which returns the
    position X, the Jacobian dX/du (dim, n), the second derivatives
    d^2X/du^2 (dim, n, n) and the unit normal nu at parameter points u,
    each in the shape of the points plus its entry axes.  The catalog
    charts store them entry-major (`_planes`); `sample_chart` accepts any
    strides.  A node's values depend on its own parameters alone, so
    `sample_chart` may form the frame slab by slab."""

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


class Join(Chart):
    """Hypersurface X = (rho(t) omega, z(t) eta), omega on the unit sphere
    S^p and eta on S^q (`_link`), p + q + 1 = n: the pieces invariant under
    O(p+1) x O(q+1) (Hsiang-Lawson); q = 0 is a hypersurface of revolution.

    The profile parameter t is the first axis (the last one where
    ``profile_axis = -1``), then come the angles of omega and of eta.  A
    family sets ``q`` (default 0) and supplies ``_profile(t)``: (rho, rho',
    rho'', z, z', z'') and (n_rho, n_z), nu = (n_rho omega, n_z eta).  The
    box alone decides the seam and the poles, link by link: a link's last
    angle (its azimuth) is periodic exactly when its range spans 2 pi, and
    an end of a polar angle (a 2-sphere link's theta, and the profile
    parameter where ``profile_is_polar``) is a pole when it sits at 0 or pi.
    """

    profile_axis = 0
    profile_is_polar = False
    q = 0

    def __init__(self, n, box):
        super().__init__(n, box)
        p = self.profile_axis % n
        angles = [a for a in range(n) if a != p]
        self.links = (angles[:n - 1 - self.q], angles[n - 1 - self.q:])
        periodic, polar = [False] * n, [p] * self.profile_is_polar
        for axes in filter(None, self.links):
            lo, hi = self.box[axes[-1]]
            periodic[axes[-1]] = abs(hi - lo - 2 * np.pi) < ANGLE_TOL
            polar += axes[:-1]
        self.periodic = tuple(periodic)
        self.pole_ends = tuple((a, side) for a in sorted(polar) for side in (0, -1)
                               if min(abs(self.box[a][side]),
                                      abs(self.box[a][side] - np.pi)) < ANGLE_TOL)

    def frame(self, u):
        n, p = self.n, self.profile_axis % self.n
        # the links before the outputs: freed below them, their memory serves
        # the next call (formed after, a 49^3 sample page-faulted a fifth more)
        links = [_link([u[..., a] for a in axes]) for axes in self.links]
        profile, normal = self._profile(u[..., p])
        shp = u.shape[:-1]
        X, J, d2, nu = (_planes(shp, (n + 1,) + (n,) * k) for k in (0, 1, 2, 0))
        for k, (axes, (om, dom, ddom)) in enumerate(zip(self.links, links)):
            rows = slice(0, n - self.q) if k == 0 else slice(n - self.q, n + 1)
            f, f1, f2, nf = (np.asarray(v, dtype=float)[..., None]
                             for v in profile[3 * k:3 * k + 3] + (normal[k],))
            for factor, out in ((f, X), (nf, nu), (f1, J[..., p]), (f2, d2[..., p, p])):
                np.multiply(factor, om, out=out[..., rows])
            for i, a in enumerate(axes):
                np.multiply(f, dom[..., i], out=J[..., rows, a])
                np.multiply(f1, dom[..., i], out=d2[..., rows, p, a])
                d2[..., rows, a, p] = d2[..., rows, p, a]
                for j, b in enumerate(axes):
                    np.multiply(f, ddom[..., i, j], out=d2[..., rows, a, b])
        return X, J, d2, nu


class Hyperplane(Join):
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
        (Join if polar else Chart).__init__(self, n, box)
        self.name = f"hyperplane{'_polar' if polar else ''}{n}"

    def _profile(self, s):
        return (s, 1.0, 0.0, self.offset, 0.0, 0.0), (0.0, 1.0)

    def frame(self, u):
        if self.polar:
            return super().frame(u)
        shp = u.shape[:-1]
        X = _planes(shp, (self.dim,))
        X[..., :-1] = u
        X[..., -1] = self.offset
        J = _planes(shp, (self.dim, self.n))
        J[..., np.arange(self.n), np.arange(self.n)] = 1.0
        nu = _planes(shp, (self.dim,))
        nu[..., -1] = 1.0
        return X, J, _planes(shp, (self.dim, self.n, self.n)), nu

    def intrinsic_radius(self, u):
        """Exact intrinsic distance to the origin preimage; only defined for
        radial charts of a hyperplane through the origin."""
        if not self.supports_intrinsic_radius:
            raise ValueError("intrinsic radius needs a polar chart through the origin")
        return np.asarray(u, dtype=float)[..., 0]


class Sphere(Join):
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


class Cylinder(Join):
    """Product of a round sphere of radius ``a`` with a line segment."""

    profile_axis = -1

    def __init__(self, n=3, link_radius=1.0, z_range=(-1.0, 1.0), theta_range=(0.0, np.pi)):
        self.a = float(link_radius)
        super().__init__(n, [theta_range] * (n - 2) + [(0.0, 2 * np.pi), z_range])
        self.name = f"cylinder{n}"

    def _profile(self, z):
        return (self.a, 0.0, 0.0, z, 1.0, 0.0), (1.0, 0.0)


class Catenoid2(Join):
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


class Catenoid3(Join):
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
            d2F = np.broadcast_to(self.amplitude * np.eye(self.n),
                                  u.shape[:-1] + (self.n, self.n))
            return F, dF, d2F
        sins = np.sin(u)
        coss = np.cos(u)
        prod = np.prod(sins, axis=-1)
        F = self.amplitude * prod
        dF = np.empty_like(u)
        d2F = _planes(u.shape[:-1], (self.n, self.n))
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
        X = _planes(shp, (self.dim,))
        X[..., :-1] = u
        X[..., -1] = self.offset + F
        J = _planes(shp, (self.dim, self.n))
        J[..., np.arange(self.n), np.arange(self.n)] = 1.0
        J[..., -1, :] = dF
        d2 = _planes(shp, (self.dim, self.n, self.n))
        d2[..., -1, :, :] = d2F
        denom = np.sqrt(1.0 + np.sum(dF * dF, axis=-1))
        nu = _planes(shp, (self.dim,))
        nu[..., :-1] = -dF / denom[..., None]
        nu[..., -1] = 1.0 / denom
        return X, J, d2, nu


class ConePatch(Join):
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


class CliffordCone(Join):
    """The cone over the Clifford torus, X = s (omega, eta) / sqrt 2 with
    omega and eta on unit circles, on the annulus s in [1, e^T]: H = 0,
    |A|^2 = 2 / s^2, and the annulus is stable exactly for
    T <= 2 pi / sqrt 7 (Simons 1968)."""

    q = 1

    def __init__(self, T=2.0):
        self.T = float(T)
        super().__init__(3, [(1.0, math.exp(self.T)), (0.0, 2 * np.pi), (0.0, 2 * np.pi)])
        self.name = "clifford_cone"

    def _profile(self, s):
        h = math.sqrt(0.5)
        return (h * s, h, 0.0, h * s, h, 0.0), (h, -h)


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
