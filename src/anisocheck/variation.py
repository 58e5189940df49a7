"""First and second variation of the anisotropic area functional.

The functional is the integral of phi(nu) over a sampled chart.  Closed
formulas are paired here with finite-difference oracles obtained by
perturbing the immersion along its normal, resampling every geometric
field from node positions alone, and differencing the functional; each
checker returns both numbers and `acceptance` judges them.

Key formulas (with S = grad(nu), H = tr S, Psi(nu) = D^2 phi(nu)):

* first variation along speed u:      d/dt Phi = int H_phi u dmu,
  H_phi = tr_M(Psi(nu) S);
* second variation at H_phi = 0:      Q(u) = int <grad u, Psi grad u>
                                              - tr_M(Psi S^2) u^2 dmu;
* stationary vector-field identity:   int phi(nu) div_M X + D_{Dphi^T}X . nu
                                      = boundary flux;
* enclosed-boundary area comparison:  |M| <= rho ||phi||_C1 / (n min phi) |dM|.

Every formula that reads Psi reads one :class:`PhiForm` per (geometry,
integrand), which pulls Psi back to the chart once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import geometry as geo
from . import integrand as ig


def __getattr__(name):
    """``variation.spla`` is scipy.sparse.linalg, imported on first access
    like every scipy use of this module."""
    if name == "spla":
        import scipy.sparse.linalg

        return scipy.sparse.linalg
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


STATIONARY_TOL = 1e-4   # max |H_phi| for a chart to count as phi-stationary
EIG_TOL = 1e-8          # eigensolver residual tolerance, relative to max(1, |lambda|)
BALL_SLACK = 1e-9       # relative room of isoperimetric_check's enclosing ball
# Lanczos steps between two checks of the residual estimate.  A check
# solves for the bottom pair of the p x p tridiagonal T_p, 0.1 ms at p = 60
# and about 1 ms at the (25, 13, 24) hemisphere's p = 1410; the steps past
# convergence that a stride adds are paid in both passes.  On the four
# spectra solves strides 5, 10 and 20 take 109-129, 119-139 and 119-159
# matvecs and about the same time; a check at every step takes 109-127 and
# 1.5 times the time, and 1.7 s against 0.7 s on the hemisphere.
LANCZOS_STRIDE = 10
# Matvecs of both passes together after which a solve returns its last
# Ritz pair, more than ten times the polar hemisphere's.
LANCZOS_MAX_MATVECS = 40_000


def _pullback(jac, form):
    """J^T F J at every node: the ambient matrix field ``form`` pulled back
    to the chart by its Jacobian."""
    jac_t = np.ascontiguousarray(np.swapaxes(jac, -1, -2))
    return jac_t @ (form @ jac)


class PhiForm:
    """B_ab = D^2 phi(nu)[dX/du_a, dX/du_b] at every node, formed once; H_phi,
    the stationarity verdict and the coefficients of
    Q(u) = int <du, C du> + V u^2 dmu derive from B on first use."""

    def __init__(self, geom, integrand):
        self.geom, self.integrand = geom, integrand
        self.B = _pullback(geom.jac, integrand.hessian(geom.nu))

    @cached_property
    def hphi(self):
        return aniso_mean_curvature(self)

    @cached_property
    def stationary(self):
        """max |H_phi| <= STATIONARY_TOL."""
        return float(np.abs(self.hphi).max()) <= STATIONARY_TOL

    @cached_property
    def C(self):
        """g^{-1} B g^{-1}."""
        ginv = self.geom.metric_inv
        return ginv @ self.B @ ginv

    @cached_property
    def V(self):
        """-tr(S^2 g^{-1} B), that is -tr_M(Psi S^2)."""
        S = self.geom.shape_op
        return -np.einsum("...ab,...ba->...", S @ S @ self.geom.metric_inv, self.B)


def phi_area(geom, integrand):
    """Quadrature of phi(nu) over the chart."""
    if integrand.dim != geom.dim:
        raise ValueError("integrand and chart ambient dimensions differ")
    return geom.integrate(integrand.value(geom.nu))


def aniso_mean_curvature(form):
    """Per-node H_phi = tr_M(Psi(nu) S) = tr(S g^{-1} B) of a :class:`PhiForm`."""
    return np.einsum("...ab,...ba->...", form.geom.shape_op @ form.geom.metric_inv, form.B)


# -- bump functions ----------------------------------------------------------


def _edge_bump(x):
    """(1 - x^2)^6 on |x| < 1, zero outside: C^5 at the support edge, one
    derivative beyond what the five-point stencils consume, so their
    truncation error stays uniformly fourth order across the edge.

    Values whose base would be below 1e-9 are snapped to exact zero so a
    one-ulp grid rounding cannot leave 1e-90-size residue on the node
    layers that must vanish identically."""
    base = np.clip(1.0 - x * x, 0.0, None)
    return np.where(base < 1e-9, 0.0, base) ** 6


def bump_function(geom, which="centered"):
    """Compactly supported node scalars for variation tests.

    Support stays inside 80% of each non-periodic axis, so the function
    vanishes identically on the outermost two node layers at any
    resolution of at least ``BUMP_NODES`` nodes per axis.
    """
    U = np.meshgrid(*geom.params, indexing="ij")
    out = np.ones(geom.shape)
    first_open = None
    for a in range(geom.n):
        lo, hi = geom.box[a]
        xi = 2.0 * (U[a] - lo) / (hi - lo) - 1.0
        if geom.periodic[a]:
            theta = 2 * np.pi * (U[a] - lo) / (hi - lo)
            if which == "offset":
                out = out * (1.0 + 0.5 * np.cos(theta)) / 1.5
            elif which == "two_humps":
                out = out * np.sin(theta)
            continue
        if first_open is None:
            first_open = a
        if which == "centered":
            out = out * _edge_bump(xi / 0.8)
        elif which == "offset":
            out = out * _edge_bump((xi - 0.1) / 0.7)
        elif which == "two_humps":
            out = out * _edge_bump(xi / 0.8)
            if a == first_open:
                out = out * xi
        else:
            raise ValueError(f"unknown bump {which!r}")
    return out


BUMP_NAMES = ("centered", "offset", "two_humps")
#: nodes per non-periodic axis from which every bump vanishes on the two end layers
BUMP_NODES = 11


def _check_compact_support(geom, u):
    mask = ~geom.interior_mask()
    if np.any(mask) and float(np.abs(u[mask]).max()) > 0.0:
        raise ValueError("variation speed must vanish on two node layers at the boundary")


# -- finite-difference variation oracles --------------------------------------


class NormalOracle:
    """Resample-and-difference oracle for normal variations of one sampled
    geometry.

    ``speeds`` maps names to node scalars u, each vanishing on two node
    layers at the boundary.  The oracle perturbs the immersion to
    X + tau u nu with tau in ``taus`` = (t/2, -t/2, t, -t) (and tau = 0, the
    same immersion for every speed) and rebuilds from node positions alone
    what a phi-area needs, the normal nu and the area element |N|, by the
    first-order steps of :func:`geometry.geometry_from_positions`
    (:func:`geometry.fd_jacobian`, :func:`geometry._oriented_normal`).  Each
    immersion is formed entry-major, one tau at a time; only its (nu, |N|)
    is kept, shared by both variations of a speed and every integrand.  The
    step t is half the smallest grid spacing.
    """

    def __init__(self, geom, speeds):
        for u in speeds.values():
            _check_compact_support(geom, u)
        self.geom = geom
        self.speeds = dict(speeds)
        self.step = 0.5 * min(geom.spacings)
        t = self.step
        self.taus = (t / 2.0, -t / 2.0, t, -t)
        self._weights = geom.node_weights()
        self._resamples = {}

    def _resample(self, speed):
        """(nu, |N|) of each immersion of ``speed``, in the order of
        ``taus``; of the unperturbed immersion alone for ``speed=None``."""
        if speed not in self._resamples:
            geom = self.geom
            if speed is None:
                immersions = [geom.X]
            else:
                X, nu = np.moveaxis(geom.X, -1, 0), np.moveaxis(geom.nu, -1, 0)
                u = self.speeds[speed]
                immersions = (np.moveaxis(X + tau * u * nu, 0, -1) for tau in self.taus)
            self._resamples[speed] = [
                geo._oriented_normal(geo.fd_jacobian(Xt, geom.spacings, geom.periodic),
                                     geom.nu, geom.params, f"{geom.chart_name}+normal")
                for Xt in immersions]
        return self._resamples[speed]

    def phi_areas(self, integrand, speed=None):
        """Phi-areas of the immersions of :meth:`_resample`."""
        return [float(np.sum(self._weights * (integrand.value(nu) * area)))
                for nu, area in self._resample(speed)]

    def first_difference(self, integrand, speed):
        """Central first difference of the phi-area, Richardson across t
        and t/2."""
        half, minus_half, full, minus_full = self.phi_areas(integrand, speed)
        t = self.step
        central_half = (half - minus_half) / (2.0 * (t / 2.0))
        central_full = (full - minus_full) / (2.0 * t)
        return (4.0 * central_half - central_full) / 3.0

    def second_difference(self, integrand, speed):
        """Central second difference of the phi-area, Richardson across t
        and t/2."""
        base, = self.phi_areas(integrand)
        half, minus_half, full, minus_full = self.phi_areas(integrand, speed)
        t = self.step
        second_half = (half - 2.0 * base + minus_half) / ((t / 2.0) * (t / 2.0))
        second_full = (full - 2.0 * base + minus_full) / (t * t)
        return (4.0 * second_half - second_full) / 3.0


def first_variation_check(oracle, form, speed):
    """(fd, formula): the central difference of the functional under
    X -> X + t u nu (Richardson across t and t/2) and the closed formula
    int H_phi u dmu.

    ``oracle`` is a :class:`NormalOracle`, ``form`` the :class:`PhiForm` of
    its geometry and ``speed`` one of its speed names.
    """
    formula = oracle.geom.integrate(form.hphi * oracle.speeds[speed])
    return oracle.first_difference(form.integrand, speed), formula


def second_variation_form(form, u):
    """Q(u) = int <grad u, Psi(nu) grad u> - tr_M(Psi(nu) S^2) u^2 dmu."""
    geom = form.geom
    _check_compact_support(geom, u)
    du = geom.param_gradient(u)
    return geom.integrate(np.einsum("...a,...ab,...b->...", du, form.C, du) + form.V * u * u)


def second_variation_check(oracle, form, speed):
    """(fd, formula): the second central difference of the functional and
    the assembled quadratic form, which it matches on phi-stationary charts
    only.  Arguments as for :func:`first_variation_check`."""
    formula = second_variation_form(form, oracle.speeds[speed])
    return oracle.second_difference(form.integrand, speed), formula


# -- vector fields and the stationary identity --------------------------------


class VectorField:
    """Affine ambient vector field V(x) = A x + b; its Jacobian is A."""

    def __init__(self, A, b=0.0):
        self.A = np.asarray(A, dtype=float)
        self.b = np.asarray(b, dtype=float)

    def value(self, x):
        return np.einsum("ij,...j->...i", self.A, x) + self.b


def vectorfield_first_variation(geom, integrand, field):
    """(interior, boundary): the two sides of the stationary first-variation
    identity for an ambient field X,

        int_M phi(nu) div_M X + D_{Dphi(nu)^T} X . nu
            = int_dM phi(nu) X.eta + (X.nu) Dphi(nu).eta,

    which holds on phi-stationary charts only.
    """
    phi = integrand.value(geom.nu)
    dphi = integrand.gradient(geom.nu)
    dphi_tan = dphi - np.einsum("...d,...d->...", dphi, geom.nu)[..., None] * geom.nu
    DV = field.A
    div_m = np.einsum("...ab,...ba->...", geom.metric_inv, _pullback(geom.jac, DV))
    directional = np.einsum("...de,...e->...d", DV, dphi_tan)
    normal_part = np.einsum("...d,...d->...", directional, geom.nu)
    interior = geom.integrate(phi * div_m + normal_part)

    boundary = 0.0
    for face in geo.boundary_faces(geom):
        phi_f = integrand.value(face.nu)
        dphi_f = integrand.gradient(face.nu)
        Vf = field.value(face.X)
        term = phi_f * np.einsum("...d,...d->...", Vf, face.eta)
        term += (np.einsum("...d,...d->...", Vf, face.nu)
                 * np.einsum("...d,...d->...", dphi_f, face.eta))
        boundary += face.integrate(term)
    return interior, boundary


def isoperimetric_check(geom, integrand, rho):
    """(|M|, |dM|, bound): the two sides of |M| <= bound =
    rho ||phi||_C1 / (n min phi) |dM| and the boundary measure, for a chart
    whose boundary sits inside the ball of radius rho about the origin."""
    if geo.boundary_radius(geom) > rho * (1 + BALL_SLACK):
        raise ValueError("chart boundary leaves the enclosing ball")
    area = geom.integrate()
    bd = geo.boundary_area(geom)
    c1 = ig.c1_norm(integrand)
    pmin = ig.min_phi(integrand)
    return area, bd, rho * c1 / (geom.n * pmin) * bd


# -- Dirichlet spectrum --------------------------------------------------------


# 1D multilinear element matrices on a cell of width h:
#   stiffness _S1/h, mass _M1*h, and the h-free mixed blocks
#   _W1[p,q] = int n_p n_q',  _V1 = _W1^T.
_S1 = np.array([[1.0, -1.0], [-1.0, 1.0]])
_M1 = np.array([[2.0, 1.0], [1.0, 2.0]]) / 6.0
_W1 = np.array([[-0.5, 0.5], [-0.5, 0.5]])
_V1 = _W1.T


def _fem_templates(n, spacings):
    """Exact per-cell stiffness templates for every coefficient slot (a, b),
    tensor products of the 1D blocks; shape (n, n, 2^n, 2^n)."""
    temps = np.empty((n, n, 2**n, 2**n))
    for a in range(n):
        for b in range(n):
            fac = None
            for ax in range(n):
                if ax == a and ax == b:
                    t = _S1 / spacings[ax]
                elif ax == a:
                    t = _V1
                elif ax == b:
                    t = _W1
                else:
                    t = _M1 * spacings[ax]
                fac = t if fac is None else np.kron(fac, t)
            temps[a, b] = fac
    return temps


def _bits(corner, n):
    """Per-axis 0/1 offsets of a cell corner, in the kron order of the
    templates (the first axis is the highest bit)."""
    return [(corner >> (n - 1 - ax)) & 1 for ax in range(n)]


def _free_box(geom):
    """Per-axis node slices of the Dirichlet-free nodes: `dirichlet_mask`
    clamps whole node layers of non-periodic axes only, so they form a box."""
    ends = geom.boundary_ends()
    box = tuple(slice(int((a, 0) in ends), m - int((a, -1) in ends))
                for a, m in enumerate(geom.shape))
    mask = geom.dirichlet_mask()
    assert mask[box].all() and mask.sum() == mask[box].size, "free nodes are not a box"
    return box


def _stencil(geom, coeff):
    """Stiffness stencil of the gradient part, shape (3,)*n + padded grid:
    entry (o_0 + 1, ..., o_(n-1) + 1, x) is the element sum K[x, x + o] at
    node x of the grid padded by one layer on every axis (the pad layers of
    a periodic axis hold its wrapped values, those of the other axes zero).
    The cells average sqrt(g) coeff over their 2^n corners; their element
    matrices come from the templates, and each of the 4^n corner pairs
    adds one slice into its offset."""
    n, shape, periodic = geom.n, geom.shape, geom.periodic
    cells = tuple(m if per else m - 1 for m, per in zip(shape, periodic))
    dens = np.moveaxis(geom.sqrt_det_g[..., None, None] * coeff, (-2, -1), (0, 1))
    dens = np.pad(dens, [(0, 0)] * 2 + [(0, int(per)) for per in periodic], mode="wrap")
    cmean = np.zeros((n, n) + cells)
    for corner in range(2**n):
        cmean += dens[(slice(None),) * 2 + tuple(slice(b, b + c)
                                                 for b, c in zip(_bits(corner, n), cells))]
    cmean /= 2**n
    local = np.einsum("abpq,abe->pqe", _fem_templates(n, geom.spacings),
                      cmean.reshape(n, n, -1)).reshape((2**n, 2**n) + cells)
    S = np.zeros((3,) * n + tuple(m + 2 for m in shape))
    for p in range(2**n):
        bp = _bits(p, n)
        at = tuple(slice(1 + b, 1 + b + c) for b, c in zip(bp, cells))
        for q in range(2**n):
            o = tuple(bq - b + 1 for b, bq in zip(bp, _bits(q, n)))
            S[o + at] += local[p, q]
    for ax, m in enumerate(shape):
        if periodic[ax]:
            # the last cell layer adds to node 0 through pad layer m + 1
            layers = np.moveaxis(S, n + ax, 0)
            layers[1] += layers[m + 1]
            layers[0] = layers[m]
            layers[m + 1] = layers[1]
    return S


def _neighbour_table(lo, hi, m, periodic):
    """(order, position), each (3, hi - lo), for the free nodes lo + x of
    one axis: the neighbour offsets -1, 0, 1 as indices 0, 1, 2 in the
    order of the neighbours' positions x' in the free range (wrapped on a
    periodic axis), and those positions, -1 outside the range."""
    x = np.arange(hi - lo)
    pos = np.stack([x - 1, x, x + 1])
    if periodic:
        pos %= m
    order = np.argsort(pos, axis=0, kind="stable")
    pos = np.take_along_axis(pos, order, axis=0)
    pos[(pos < 0) | (pos >= hi - lo)] = -1
    return order, pos


def assemble_forms(geom, coeff, potential, mass_density):
    """Sparse (K, M) of the quadratic form

        Q(u) = int du^T coeff du + potential u^2   (measure sqrt(g) du)

    against the weighted mass int mass_density u^2, on the free nodes of
    ``geom.dirichlet_mask()`` in C order: K is CSR with sorted columns and
    no stored zeros, exactly symmetric, and M is diagonal.  The gradient
    part is exact multilinear finite elements with cell-averaged
    coefficients (no spurious low-energy modes, unlike collocated
    wide-stencil gradients), summed into a 3^n-point stencil whose two
    triangles are averaged; the potential and mass are collocated and the
    mass is lumped diagonal.  ``coeff`` has shape grid + (n, n).
    """
    import scipy.sparse as sp

    n = geom.n
    box = _free_box(geom)
    lens = tuple(s.stop - s.start for s in box)
    S = _stencil(geom, coeff)
    w = geom.node_weights() * geom.sqrt_det_g
    # V[o + 1, x] = K[x, x + o] at the free nodes x: the mean of the stencil
    # entry and its mirror K[x + o, x], so exactly symmetric, plus the
    # potential on the diagonal
    V = np.empty((3,) * n + lens)
    for o in np.ndindex((3,) * n):
        here = o + tuple(slice(s.start + 1, s.stop + 1) for s in box)
        if all(d == 1 for d in o):
            V[o] = S[here] + (w * potential)[box]
        else:
            there = tuple(2 - d for d in o) + tuple(
                slice(s.start + d, s.stop + d) for s, d in zip(box, o))
            V[o] = 0.5 * (S[here] + S[there])
    # columns: per axis, the neighbours in the order of their positions
    cols = np.zeros(lens + (3,) * n, dtype=np.int32)
    keep = np.ones(lens + (3,) * n, dtype=bool)
    stride = 1
    for ax in reversed(range(n)):
        order, pos = _neighbour_table(box[ax].start, box[ax].stop, geom.shape[ax],
                                      geom.periodic[ax])
        for x in np.flatnonzero(np.any(order != np.arange(3)[:, None], axis=0)):
            at = (slice(None),) * (n + ax) + (x,)
            V[at] = np.take(V[at], order[:, x], axis=ax)
        sh = [1] * (2 * n)
        sh[ax], sh[n + ax] = lens[ax], 3
        cols += (pos.T * stride).reshape(sh).astype(np.int32)
        keep &= (pos.T >= 0).reshape(sh)
        stride *= lens[ax]
    data = V.reshape(3**n, stride).T
    keep = keep.reshape(stride, -1) & (data != 0.0)
    indptr = np.zeros(stride + 1, dtype=np.int32)
    np.cumsum(keep.sum(axis=1), out=indptr[1:])
    K = sp.csr_matrix((data[keep], cols.reshape(stride, -1)[keep], indptr),
                      shape=(stride, stride))
    M = sp.diags((w * mass_density)[box].ravel())
    return K, M


def _dot(a, b):
    """Inner product of two vectors in numpy's own fixed-order loop, never
    BLAS, so its bits do not depend on the BLAS thread count."""
    return np.einsum("i,i->", a, b)


def _lanczos(B, v0, converged):
    """(y, matvecs): the Ritz vector of the smallest Ritz value of the
    symmetric sparse B from a two-pass Lanczos solve started at v0, and the
    products with B that both passes took.

    Pass 1 runs the three-term recurrence

        w = B q_j - beta_(j-1) q_(j-1),  alpha_j = q_j . w,  w -= alpha_j q_j,
        beta_j = |w|,  q_(j+1) = w / beta_j

    without reorthogonalization and keeps alpha, beta and two vectors.
    Every LANCZOS_STRIDE steps, and when the Krylov space is invariant
    (beta = 0), spans every unknown or reaches the matvec cap, it takes the
    bottom pair (theta, s) of the p x p tridiagonal T_p of alpha and beta
    and tests the residual estimate |beta_p s_p| <= EIG_TOL max(1, |theta|).
    Plain Lanczos loses orthogonality only toward Ritz vectors that have
    already converged (Paige 1976), which at worst repeats theta in T_p
    (Cullum and Willoughby 1985).  Once the estimate passes, pass 2 reruns
    the recurrence from q_0 through the same ``step`` with the stored alpha
    and beta, so it regenerates each q_i bit for bit, and sums
    y = sum_i s_i q_i in index order.  The solve stops once
    ``converged(y)`` confirms the estimate, and otherwise pass 1 goes on
    from where it stopped; invariance, a full space or the cap stop it at
    once.  LANCZOS_MAX_MATVECS bounds the products of both passes together:
    pass 1 ends at the last step whose pass 2 keeps the total within it.

    B v is scipy's CSR product, inner products are numpy's fixed-order
    ``einsum`` loops and the updates are elementwise, never BLAS.  The one
    LAPACK call is the bottom pair of T_p by scipy's ``eigh_tridiagonal``
    (bisection and inverse iteration, ``dstebz`` and ``dstein``), which
    wakes no BLAS worker thread.
    """
    import scipy.linalg

    n = v0.size
    alpha, beta = [], []
    matvecs = 0

    def step(j, q, q_prev):
        """beta_j q_(j+1), from q_j and q_(j-1); pass 1 forms alpha_j."""
        nonlocal matvecs
        w = B @ q
        matvecs += 1
        if j:
            w -= beta[j - 1] * q_prev
        if j == len(alpha):
            alpha.append(_dot(q, w))
        w -= alpha[j] * q
        return w

    q0 = v0 / np.sqrt(_dot(v0, v0))
    q_prev, q = None, q0
    while True:
        w = step(len(beta), q, q_prev)
        beta.append(float(np.sqrt(_dot(w, w))))
        p = len(beta)
        last = beta[-1] == 0.0 or p == n or matvecs + p >= LANCZOS_MAX_MATVECS
        if last or p % LANCZOS_STRIDE == 0:
            theta, s = scipy.linalg.eigh_tridiagonal(alpha, beta[:-1], select="i",
                                                     select_range=(0, 0))
            s = s[:, 0]
            if last or abs(beta[-1] * s[-1]) <= EIG_TOL * max(1.0, abs(theta[0])):
                y = s[0] * q0
                r_prev, r = None, q0
                for j in range(p - 1):
                    r_prev, r = r, step(j, r, r_prev) / beta[j]
                    y += s[j + 1] * r
                # after a refusal, one more step and its pass 2 may pass the cap
                if last or converged(y) or matvecs + p >= LANCZOS_MAX_MATVECS:
                    return y, matvecs
        q_prev, q = q, w / beta[-1]


def smallest_eigenpair(K, M):
    """Smallest eigenvalue of K x = lambda M x, K symmetric and M the
    diagonal positive (lumped) mass of :func:`assemble_forms`.

    One two-pass Lanczos solve (:func:`_lanczos`; Paige 1972, 1976) on the
    mass-scaled form B = D^-1/2 K D^-1/2, D = diag(M), from the
    deterministic start sqrt(D), the all-ones vector in scaled
    coordinates.  Stop rule: the residual estimate |beta_p s_p| of the
    smallest Ritz pair is at most EIG_TOL max(1, |theta|), and so is the
    true residual below, computed from that Ritz vector; if the true
    residual fails, the solve goes on.  At LANCZOS_MAX_MATVECS it returns
    its last Ritz pair, whose residual then fails the caller's check.

    Every inner product, in the Lanczos loop and in x^T M x, x^T K x and
    r^T M^-1 r below, is a fixed-order numpy sum, and B v is scipy's
    single-threaded CSR product; the one LAPACK call is the bottom pair of
    the Lanczos tridiagonal T_p, which touches no vector and wakes no BLAS
    worker thread.  So the result does not depend on the BLAS thread count.

    Returns (theta, x, matvecs, residual): x is M-normalized with
    sum(M x) > 0, theta = x^T K x, matvecs counts products with B in both
    Lanczos passes, and residual = ||K x - theta M x|| in the M^-1 norm, so
    an eigenvalue lies within residual of theta.
    """
    import scipy.sparse as sp

    coo = sp.coo_matrix(M)
    if np.any(coo.row != coo.col):
        raise ValueError("mass matrix must be diagonal (lumped)")
    d = M.diagonal()
    if d.size < 2:
        raise ValueError(f"eigenproblem needs at least 2 unknowns, got {d.size}")
    s = 1.0 / np.sqrt(d)
    K = K.tocsr()
    scaled = np.repeat(s, np.diff(K.indptr)) * K.data * s[K.indices]
    B = sp.csr_matrix((scaled, K.indices, K.indptr), shape=K.shape)

    def ritz_pair(y):
        """(theta, x, residual) of the scaled Ritz vector y."""
        x = s * y
        x /= np.sqrt(_dot(x, d * x))
        if np.sum(d * x) < 0.0:
            x = -x
        Kx = K @ x
        theta = float(_dot(x, Kx))
        r = Kx - theta * (d * x)
        return theta, x, float(np.sqrt(_dot(r, r / d)))

    def converged(y):
        theta, _, residual = ritz_pair(y)
        return residual <= EIG_TOL * max(1.0, abs(theta))

    y, matvecs = _lanczos(B, np.sqrt(d), converged)
    theta, x, residual = ritz_pair(y)
    return theta, x, matvecs, residual


@dataclass
class DirichletSpectrum:
    """Bottom of a Dirichlet spectrum: the Ritz value of
    :func:`smallest_eigenpair`, its M^-1-norm residual (an eigenvalue lies
    within it), the matvecs it took and the grid shape."""

    eigenvalue: float
    residual: float
    matvecs: int
    resolution: tuple


def dirichlet_spectrum(geom, coeff, potential, mass_density):
    """Bottom of the spectrum of the form of :func:`assemble_forms` on the
    free nodes of ``geom.dirichlet_mask()``."""
    lam, _, matvecs, resid = smallest_eigenpair(
        *assemble_forms(geom, coeff, potential, mass_density))
    return DirichletSpectrum(eigenvalue=lam, residual=resid, matvecs=matvecs,
                             resolution=geom.shape)


def stability_spectrum(form):
    """Minimal Rayleigh quotient of the second-variation form of the
    :class:`PhiForm` ``form`` against the L^2(dmu) norm under Dirichlet
    conditions on the chart boundary."""
    return dirichlet_spectrum(form.geom, form.C, form.V, np.ones(form.geom.shape))
