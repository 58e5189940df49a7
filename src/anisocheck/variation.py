"""First and second variation of the anisotropic area functional.

The functional is the integral of phi(nu) over a sampled chart.  Closed
formulas are validated here against finite-difference oracles obtained by
perturbing the immersion along its normal, resampling every geometric
field from node positions alone, and differencing the functional.

Key formulas (with S = grad(nu), H = tr S, Psi(nu) = D^2 phi(nu)):

* first variation along speed u:      d/dt Phi = int H_phi u dmu,
  H_phi = tr_M(Psi(nu) S);
* second variation at H_phi = 0:      Q(u) = int <grad u, Psi grad u>
                                              - tr_M(Psi S^2) u^2 dmu;
* stationary vector-field identity:   int phi(nu) div_M X + D_{Dphi^T}X . nu
                                      = boundary flux;
* enclosed-boundary area comparison:  |M| <= rho ||phi||_C1 / (n min phi) |dM|.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import geometry as geo
from . import integrand as ig

STATIONARY_TOL = 1e-4   # max |H_phi| for a chart to count as phi-stationary


def _psi_pullback(geom, integrand):
    """B_ab = D^2 phi(nu)[dX/du_a, dX/du_b] at every node."""
    hess = integrand.hessian(geom.nu)
    jac_t = np.ascontiguousarray(np.swapaxes(geom.jac, -1, -2))
    return jac_t @ (hess @ geom.jac)


def _trace_product(P, Q):
    """Per-node tr(P Q) of two stacks of square matrices."""
    return np.einsum("...ab,...ba->...", P, Q)


def phi_area(geom, integrand):
    """Quadrature of phi(nu) over the chart."""
    if integrand.dim != geom.dim:
        raise ValueError("integrand and chart ambient dimensions differ")
    return geom.integrate(integrand.value(geom.nu))


def aniso_mean_curvature(geom, integrand):
    """Per-node anisotropic mean curvature tr_M(Psi(nu) S) = tr(S g^{-1} B)."""
    B = _psi_pullback(geom, integrand)
    return _trace_product(geom.shape_op @ geom.metric_inv, B)


def is_phi_stationary(geom, integrand, tol=STATIONARY_TOL, hphi=None):
    """max |H_phi| <= tol; ``hphi`` is aniso_mean_curvature(geom, integrand)
    when the caller already holds it."""
    if hphi is None:
        hphi = aniso_mean_curvature(geom, integrand)
    return float(np.abs(hphi).max()) <= tol


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
    resolution of at least 11 nodes per axis.
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


def _check_compact_support(geom, u, layers=2):
    mask = ~geom.interior_mask(layers)
    if np.any(mask) and float(np.abs(u[mask]).max()) > 0.0:
        raise ValueError("variation speed must vanish on two node layers at the boundary")


# -- finite-difference variation oracles --------------------------------------


@dataclass
class VariationCheck:
    fd_value: float
    formula_value: float
    discrepancy: float
    rel_discrepancy: float
    scale: float
    step: float

    def as_dict(self):
        return self.__dict__.copy()


class NormalOracle:
    """Resample-and-difference oracle for normal variations of one sampled
    geometry.

    ``speeds`` maps names to node scalars u, each vanishing on two node
    layers at the boundary.  The oracle perturbs the immersion to
    X + tau u nu with tau in {+-t/2, +-t} (and tau = 0, the same immersion
    for every speed), rebuilds each perturbed geometry from node positions
    alone and keeps only what a phi-area needs: the normal and the area
    density.  Each perturbed immersion is resampled once, on first use, so
    the first and second variation of a speed and every integrand share
    the same resamples.  The step t is half the smallest grid spacing.
    """

    def __init__(self, geom, speeds):
        for u in speeds.values():
            _check_compact_support(geom, u)
        self.geom = geom
        self.speeds = dict(speeds)
        self.step = 0.5 * min(geom.spacings)
        self._weights = geom.node_weights()
        self._resamples = {}

    def _resample(self, speed, tau):
        key = (speed, tau) if tau != 0.0 else (None, 0.0)
        if key not in self._resamples:
            u = self.speeds[speed] if tau != 0.0 else np.zeros(self.geom.shape)
            pert = geo.resample_normal_graph(self.geom, u, tau)
            self._resamples[key] = (pert.nu, pert.sqrt_det_g)
        return self._resamples[key]

    def phi_area(self, integrand, speed, tau):
        """Phi-area of X + tau u nu, u the named speed."""
        nu, sqrt_det_g = self._resample(speed, tau)
        return float(np.sum(self._weights * (integrand.value(nu) * sqrt_det_g)))

    def first_difference(self, integrand, speed):
        """Central first difference of the phi-area, Richardson across t
        and t/2."""
        def central(tau):
            return (self.phi_area(integrand, speed, tau)
                    - self.phi_area(integrand, speed, -tau)) / (2.0 * tau)

        t = self.step
        return (4.0 * central(t / 2.0) - central(t)) / 3.0

    def second_difference(self, integrand, speed):
        """Central second difference of the phi-area, Richardson across t
        and t/2."""
        base = self.phi_area(integrand, speed, 0.0)

        def second(tau):
            return (self.phi_area(integrand, speed, tau) - 2.0 * base
                    + self.phi_area(integrand, speed, -tau)) / (tau * tau)

        t = self.step
        return (4.0 * second(t / 2.0) - second(t)) / 3.0


def _compare(fd, formula, geom, integrand, step):
    """The relative discrepancy is measured against |formula| +
    phi_area/10, an absolute floor that keeps the ratio meaningful when the
    exact value vanishes identically (stationary charts)."""
    scale = abs(phi_area(geom, integrand))
    disc = abs(fd - formula)
    rel = disc / (abs(formula) + 0.1 * scale)
    return VariationCheck(fd_value=fd, formula_value=formula, discrepancy=disc,
                          rel_discrepancy=rel, scale=scale, step=step)


def first_variation_check(oracle, integrand, speed, hphi=None):
    """Central difference of the functional under X -> X + t u nu versus
    the closed formula int H_phi u dmu (Richardson across t and t/2).

    ``oracle`` is a :class:`NormalOracle` and ``speed`` one of its speed
    names; ``hphi`` is aniso_mean_curvature of the oracle's geometry when
    the caller already holds it.
    """
    geom = oracle.geom
    if hphi is None:
        hphi = aniso_mean_curvature(geom, integrand)
    formula = geom.integrate(hphi * oracle.speeds[speed])
    return _compare(oracle.first_difference(integrand, speed), formula, geom,
                    integrand, oracle.step)


def second_variation_form(geom, integrand, u):
    """Q(u) = int <grad u, Psi(nu) grad u> - tr_M(Psi(nu) S^2) u^2 dmu."""
    _check_compact_support(geom, u)
    B = _psi_pullback(geom, integrand)
    ginv = geom.metric_inv
    raised = ginv @ geom.param_gradient(u)[..., None]
    grad_term = (np.swapaxes(raised, -1, -2) @ B @ raised)[..., 0, 0]
    # tr(Psi S^2) = tr(S^2 g^{-1} B) in the parameter basis
    pot = _trace_product(geom.shape_op @ geom.shape_op @ ginv, B)
    return geom.integrate(grad_term - pot * u * u)


def second_variation_check(oracle, integrand, speed, hphi=None,
                           stationary_tol=STATIONARY_TOL):
    """Second central difference of the functional versus the assembled
    quadratic form; only meaningful on phi-stationary charts (flagged).
    Arguments as for :func:`first_variation_check`."""
    geom = oracle.geom
    formula = second_variation_form(geom, integrand, oracle.speeds[speed])
    chk = _compare(oracle.second_difference(integrand, speed), formula, geom,
                   integrand, oracle.step)
    chk.stationary = is_phi_stationary(geom, integrand, stationary_tol, hphi)
    return chk


# -- vector fields and the stationary identity --------------------------------


class VectorField:
    """Ambient vector field with closed-form Jacobian."""

    def __init__(self, kind, data=None):
        self.kind = kind
        self.data = data

    @staticmethod
    def position():
        return VectorField("position")

    @staticmethod
    def constant(direction):
        return VectorField("constant", np.asarray(direction, dtype=float))

    @staticmethod
    def linear(matrix):
        return VectorField("linear", np.asarray(matrix, dtype=float))

    def value(self, x):
        if self.kind == "position":
            return x
        if self.kind == "constant":
            return np.broadcast_to(self.data, x.shape).copy()
        return np.einsum("ij,...j->...i", self.data, x)

    def jacobian(self, x):
        d = x.shape[-1]
        if self.kind == "position":
            J = np.eye(d)
        elif self.kind == "constant":
            J = np.zeros((d, d))
        else:
            J = self.data
        return np.broadcast_to(J, x.shape + (d,)).copy()


def vectorfield_first_variation(geom, integrand, field):
    """Residual of the stationary first-variation identity for an ambient
    field X:

        int_M phi(nu) div_M X + D_{Dphi(nu)^T} X . nu
            = int_dM phi(nu) X.eta + (X.nu) Dphi(nu).eta.

    Returns (residual, interior_value, boundary_value, stationary_flag);
    the identity is only expected to hold when max |H_phi| is small.
    """
    phi = integrand.value(geom.nu)
    dphi = integrand.gradient(geom.nu)
    dphi_tan = dphi - np.einsum("...d,...d->...", dphi, geom.nu)[..., None] * geom.nu
    V = field.value(geom.X)
    DV = field.jacobian(geom.X)
    pull = np.einsum("...da,...de,...eb->...ab", geom.jac, DV, geom.jac)
    div_m = np.einsum("...ab,...ba->...", geom.metric_inv, pull)
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
    residual = abs(interior - boundary)
    return residual, interior, boundary, is_phi_stationary(geom, integrand)


@dataclass
class IsoperimetricCheck:
    area: float
    boundary_measure: float
    bound: float
    margin: float
    stationary: bool

    def as_dict(self):
        return self.__dict__.copy()


def isoperimetric_check(geom, integrand, rho, norm_resolution=17):
    """Verify |M| <= rho ||phi||_C1 / (n min phi) |dM| for a chart whose
    boundary sits inside the ball of radius rho about the origin."""
    for face in geo.boundary_faces(geom):
        rr = np.linalg.norm(face.X, axis=-1)
        if float(rr.max()) > rho * (1 + 1e-9):
            raise ValueError("chart boundary leaves the enclosing ball")
    area = geom.integrate()
    bd = geo.boundary_area(geom)
    c1 = ig.c1_norm(integrand, norm_resolution)
    pmin = ig.min_phi(integrand, norm_resolution)
    bound = rho * c1 / (geom.n * pmin) * bd
    return IsoperimetricCheck(area=area, boundary_measure=bd, bound=bound,
                              margin=bound - area,
                              stationary=is_phi_stationary(geom, integrand))


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


def _element_corners(shape, periodic):
    """Global node indices of every cell's 2^n corners, wrapping periodic
    axes; corner bit order matches the kron order of the templates."""
    n = len(shape)
    ranges = [np.arange(m if per else m - 1) for m, per in zip(shape, periodic)]
    E = np.meshgrid(*ranges, indexing="ij")
    corners = []
    for corner in range(2**n):
        idx = 0
        for ax in range(n):
            bit = (corner >> (n - 1 - ax)) & 1
            idx = idx * shape[ax] + (E[ax] + bit) % shape[ax]
        corners.append(idx.ravel())
    return np.stack(corners, axis=1)


def assemble_forms(geom, coeff, potential, mass_density):
    """Sparse (K, M) of the quadratic form

        Q(u) = int du^T coeff du + potential u^2   (measure sqrt(g) du)

    against the weighted mass int mass_density u^2.  The gradient part is
    exact multilinear finite elements with cell-averaged coefficients (no
    spurious low-energy modes, unlike collocated wide-stencil gradients);
    the potential and mass are collocated and the mass is lumped diagonal.
    ``coeff`` has shape grid + (n, n).
    """
    n = geom.n
    size = int(np.prod(geom.shape))
    dens = geom.sqrt_det_g[..., None, None] * coeff
    corners = _element_corners(geom.shape, geom.periodic)
    cvals = dens.reshape(size, n, n)[corners]          # (E, 2^n, n, n)
    cmean = cvals.mean(axis=1)
    temps = _fem_templates(n, geom.spacings)
    local = np.einsum("eab,abpq->epq", cmean, temps)
    rows = np.repeat(corners, 2**n, axis=1).ravel()
    cols = np.tile(corners, (1, 2**n)).ravel()
    K = sp.coo_matrix((local.ravel(), (rows, cols)), shape=(size, size)).tocsr()
    w = (geom.node_weights() * geom.sqrt_det_g).ravel()
    K = K + sp.diags(w * np.ravel(potential))
    M = sp.diags(w * np.ravel(mass_density))
    K = 0.5 * (K + K.T)
    return K.tocsc(), M.tocsc()


def _interior_indices(geom, layers=1):
    return np.flatnonzero(geom.dirichlet_mask(layers).ravel())


def smallest_eigenpair(K, M, lower_bound, tol=1e-8, max_iter=400):
    """Smallest eigenvalue of K x = lambda M x by shifted inverse iteration.

    ``lower_bound`` must sit at or below the whole spectrum (for forms
    with positive-semidefinite gradient part, the minimum of
    potential/mass density works); the shift then follows the Rayleigh
    quotient with a conservative safeguard.  Deterministic all-ones start.
    """
    sigma = float(lower_bound) - 1.0
    x = np.ones(K.shape[0])
    x /= np.sqrt(x @ (M @ x))
    theta_old = None
    lu = spla.splu((K - sigma * M).tocsc())
    iters = 0
    for it in range(max_iter):
        iters = it + 1
        x = lu.solve(M @ x)
        x /= np.sqrt(x @ (M @ x))
        theta = x @ (K @ x)
        if theta_old is not None and abs(theta - theta_old) <= tol * max(1.0, abs(theta)):
            theta_old = theta
            break
        if theta_old is not None and it % 8 == 7:
            # refresh the shift, staying safely below the current estimate
            new_sigma = theta - max(0.05 * abs(theta), 0.05)
            if new_sigma > sigma:
                sigma = new_sigma
                lu = spla.splu((K - sigma * M).tocsc())
        theta_old = theta
    return float(theta_old), x, iters


@dataclass
class StabilityReport:
    lambda_stab: float
    stable: bool
    eigenfunction: np.ndarray
    resolution: tuple
    iterations: int
    _K: sp.csc_matrix = None
    _M: sp.csc_matrix = None
    _interior: np.ndarray = None
    _shape: tuple = None

    def q_value(self, u):
        """Assembled quadratic form at a full-grid node scalar (must vanish
        on the Dirichlet boundary)."""
        v = np.ravel(u)[self._interior]
        return float(v @ (self._K @ v))

    def bilinear(self, u, v):
        a = np.ravel(u)[self._interior]
        b = np.ravel(v)[self._interior]
        return float(a @ (self._K @ b))

    def mass(self, u):
        v = np.ravel(u)[self._interior]
        return float(v @ (self._M @ v))


def stability_spectrum(geom, integrand, tol=1e-8):
    """Minimal Rayleigh quotient of the second-variation form against the
    L^2(dmu) norm under Dirichlet conditions on the chart boundary."""
    B = _psi_pullback(geom, integrand)
    ginv = geom.metric_inv
    coeff = np.einsum("...ab,...bc,...cd->...ad", ginv, B, ginv)
    S2 = np.einsum("...ab,...bc->...ac", geom.shape_op, geom.shape_op)
    pot = -np.einsum("...ab,...bc,...ca->...", S2, ginv, B)
    K, M = assemble_forms(geom, coeff, pot, np.ones(geom.shape))
    idx = _interior_indices(geom, layers=1)
    Ki = K[idx][:, idx]
    Mi = M[idx][:, idx]
    lam, vec, iters = smallest_eigenpair(Ki, Mi, float(pot.min()), tol=tol)
    full = np.zeros(int(np.prod(geom.shape)))
    full[idx] = vec
    return StabilityReport(lambda_stab=lam, stable=bool(lam >= 0.0),
                           eigenfunction=full.reshape(geom.shape),
                           resolution=geom.shape, iterations=iters,
                           _K=Ki, _M=Mi, _interior=idx, _shape=geom.shape)


@dataclass
class ReducedStabilityCheck:
    reduced_value: float        # int |grad u|^2 - Lambda |A|^2 u^2
    q_value: float
    chain_margin: float         # a_max * reduced - Q >= 0 up to roundoff
    min_slack_gradient: float   # <grad u, Psi grad u> - a_min |grad u|^2
    min_slack_gradient_upper: float  # a_max |grad u|^2 - <grad u, Psi grad u>
    min_slack_potential: float  # a_max |A|^2 - tr(Psi S^2)
    min_slack_potential_lower: float  # tr(Psi S^2) - a_min |A|^2
    lam: float

    def as_dict(self):
        return self.__dict__.copy()


def reduced_stability_check(geom, integrand, u, resolution=17):
    """Pointwise and integrated consistency of the ellipticity chain

        a_min |grad u|^2 <= <grad u, Psi grad u> <= a_max |grad u|^2,
        a_min |A|^2 <= tr(Psi S^2) <= a_max |A|^2,

    which gives Q(u) <= a_max (int |grad u|^2 - Lambda |A|^2 u^2) with
    Lambda = a_min/a_max, so a nonnegative Q forces the reduced form to be
    nonnegative as well.
    """
    _check_compact_support(geom, u)
    a_min, a_max = ig.pinch_bounds(integrand, resolution)
    lam = a_min / a_max
    B = _psi_pullback(geom, integrand)
    du = geom.param_gradient(u)
    ginv = geom.metric_inv
    psi_grad = np.einsum("...a,...ab,...bc,...cd,...d->...", du, ginv, B, ginv, du)
    grad2 = np.einsum("...a,...ab,...b->...", du, ginv, du)
    S2 = np.einsum("...ab,...bc->...ac", geom.shape_op, geom.shape_op)
    psi_pot = np.einsum("...ab,...bc,...ca->...", S2, ginv, B)
    reduced = geom.integrate(grad2 - lam * geom.A2 * u * u)
    q = geom.integrate(psi_grad - psi_pot * u * u)
    return ReducedStabilityCheck(
        reduced_value=reduced,
        q_value=q,
        chain_margin=a_max * reduced - q,
        min_slack_gradient=float((psi_grad - a_min * grad2).min()),
        min_slack_gradient_upper=float((a_max * grad2 - psi_grad).min()),
        min_slack_potential=float((a_max * geom.A2 - psi_pot).min()),
        min_slack_potential_lower=float((psi_pot - a_min * geom.A2).min()),
        lam=lam,
    )
