"""Direction-dependent area integrands and their ellipticity statistics.

An integrand is a positively 1-homogeneous function ``phi`` on ambient
space minus the origin, always of one form, phi(v) = psi(L^T v), where
psi(w) = |w| + eps * P(w) |w|^(1-deg) = |w| (1 + eps * p(w/|w|)) for a
catalog homogeneous polynomial P, or |w| without one, and L is the
Cholesky factor of a symmetric positive definite A = L L^T, or the
identity.  The constructors name three families: ``isotropic`` |v|,
``quadratic`` sqrt(v^T A v) (support function of an ellipsoid) and
``perturbed`` psi.  The chain rule gives the gradient L Dpsi(L^T v) and
the Hessian L D^2psi(L^T v) L^T.  The module also computes the
statistics used downstream: the extreme tangential Hessian eigenvalues
(a_min, a_max) over the unit sphere, the ellipticity ratio
Lambda = a_min / a_max, the C^1 sup-norm on the sphere and the minimum
of phi on the sphere.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import inequalities as iq

SQRT2 = float(np.sqrt(2.0))
#: default nodes per cube edge of the sphere grid of the statistics
SPHERE_RESOLUTION = 17
#: slack of the pinch window a_max <= sqrt(2) a_min on a sphere grid
PINCH_SLACK = 1e-9
#: largest |A_ij - A_ji| of a matrix that counts as symmetric
SYMMETRY_TOL = 1e-12


def is_symmetric(A):
    """Whether the square matrix A has |A_ij - A_ji| <= SYMMETRY_TOL for
    every i, j: an absolute test, whatever the size of the entries."""
    return bool(np.all(np.abs(A - A.T) <= SYMMETRY_TOL))


def _powers(d, *axes):
    """Exponents in R^d of the monomial that multiplies v_a for each a in ``axes``."""
    return tuple(axes.count(a) for a in range(d))


#: Profile catalog for the perturbed family.  Each entry builds, for the
#: ambient dimension d, a homogeneous polynomial P with |P| <= 1 on the unit
#: sphere as a table {exponents: c} of its monomials; `inequalities.derivative`
#: differentiates it by the power rule.
PROFILES = {
    "axis2": lambda d: {_powers(d, d - 1, d - 1): 1},
    "saddle2": lambda d: {_powers(d, 0, 0): 1, _powers(d, 1, 1): -1},
    # sum v_i^4 - |v|^4 / 2, in [1/d - 1/2, 1/2] on the sphere
    "quartic_saddle": lambda d: {
        **{_powers(d, i, i, i, i): 0.5 for i in range(d)},
        **{_powers(d, i, i, j, j): -1 for i in range(d) for j in range(i + 1, d)}},
}


class Integrand:
    """A 1-homogeneous integrand psi(L^T v) with closed-form derivatives.

    Use the constructors :meth:`isotropic`, :meth:`quadratic`,
    :meth:`perturbed`.  ``dim`` is the ambient dimension (n+1 for
    hypersurfaces of dimension n >= 2).  ``factor`` is L, or None for the
    identity, with which no product is formed.
    """

    def __init__(self, kind, dim, matrix=None, epsilon=0.0, profile=None):
        if dim < 3:
            raise ValueError("ambient dimension must be at least 3")
        self.kind = kind
        self.dim = int(dim)
        self.matrix = None if matrix is None else np.asarray(matrix, dtype=float)
        self.epsilon = float(epsilon)
        self.profile = profile
        self.factor = None
        self.table = None
        if kind == "quadratic":
            A = self.matrix
            if A is None or A.shape != (dim, dim):
                raise ValueError("quadratic integrand needs a dim x dim matrix")
            if not is_symmetric(A):
                raise ValueError("quadratic integrand matrix must be symmetric")
            # reads the lower triangle only; raises LinAlgError, a
            # ValueError, unless A is positive definite
            self.factor = np.linalg.cholesky(A)
        elif kind == "perturbed":
            if profile not in PROFILES:
                raise ValueError(f"unknown profile {profile!r}; choose from {sorted(PROFILES)}")
            self.table = PROFILES[profile](self.dim)
            self.degree = sum(next(iter(self.table)))
        elif kind != "isotropic":
            raise ValueError(f"unknown integrand kind {kind!r}")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def isotropic(dim):
        return Integrand("isotropic", dim)

    @staticmethod
    def quadratic(matrix):
        matrix = np.asarray(matrix, dtype=float)
        return Integrand("quadratic", matrix.shape[0], matrix=matrix)

    @staticmethod
    def perturbed(dim, epsilon, profile):
        return Integrand("perturbed", dim, epsilon=epsilon, profile=profile)

    def describe(self):
        if self.kind == "quadratic":
            return f"quadratic({self.matrix.tolist()})"
        if self.kind == "perturbed":
            return f"perturbed(eps={self.epsilon!r}, {self.profile})"
        return "isotropic"

    # -- evaluation: psi and its derivatives at w = L^T v, pushed by L ------

    def _pull(self, v):
        """(w, |w|) with w = L^T v at every point, after raising where w is zero."""
        w = np.asarray(v, dtype=float)
        if self.factor is not None:
            w = np.einsum("ji,...j->...i", self.factor, w)
        s = np.linalg.norm(w, axis=-1)
        if np.any(s == 0.0):
            raise ValueError("integrand evaluated at the zero vector")
        return w, s

    def value(self, v):
        w, s = self._pull(v)
        if self.table is None:
            return s
        return s + self.epsilon * iq.poly_value(self.table, w) * s ** (1 - self.degree)

    def gradient(self, v):
        w, s = self._pull(v)
        s = s[..., None]
        grad = w / s
        if self.table is not None:
            deg = self.degree
            p = iq.poly_value(self.table, w)[..., None]
            gp = iq.poly_gradient(self.table, w)
            grad = grad + self.epsilon * (gp * s ** (1 - deg)
                                          + (1 - deg) * p * s ** (-1 - deg) * w)
        return grad if self.factor is None else np.einsum("ij,...j->...i", self.factor, grad)

    def hessian(self, v):
        w, norm = self._pull(v)
        eye = np.eye(w.shape[-1])
        s = norm[..., None, None]
        w_hat = w / norm[..., None]
        hess = (eye - w_hat[..., :, None] * w_hat[..., None, :]) / s
        if self.table is not None:
            deg = self.degree
            p = iq.poly_value(self.table, w)[..., None, None]
            gp = iq.poly_gradient(self.table, w)
            cross = gp[..., :, None] * w[..., None, :] + w[..., :, None] * gp[..., None, :]
            hess = hess + self.epsilon * (
                iq.poly_hessian(self.table, w) * s ** (1 - deg)
                + (1 - deg) * s ** (-1 - deg) * cross
                + (1 - deg) * p * (s ** (-1 - deg) * eye - (1 + deg) * s ** (-3 - deg)
                                   * w[..., :, None] * w[..., None, :])
            )
        return hess if self.factor is None else self.factor @ hess @ self.factor.T


# -- finite-difference oracles ---------------------------------------------


def fd_gradient(fn, v, step=1e-3):
    """Fourth-order central-difference gradient of a callable; the columns
    are stacked last, so a vector-valued ``fn`` gives its Jacobian."""
    v = np.asarray(v, dtype=float)
    d = v.shape[-1]
    cols = []
    for i in range(d):
        e = np.zeros(d)
        e[i] = 1.0
        cols.append((
            -fn(v + 2 * step * e) + 8 * fn(v + step * e)
            - 8 * fn(v - step * e) + fn(v - 2 * step * e)
        ) / (12 * step))
    return np.stack(cols, axis=-1)


def fd_hessian(fn, v, step=1e-3):
    """Fourth-order Hessian oracle: :func:`fd_gradient` applied twice, then
    symmetrized, so it never consults closed-form derivatives."""
    out = fd_gradient(lambda w: fd_gradient(fn, w, step), v, step)
    return 0.5 * (out + np.swapaxes(out, -1, -2))


# -- sphere sampling and ellipticity statistics ----------------------------


@functools.lru_cache(maxsize=8)
def sphere_grid(dim, resolution):
    """Quasi-uniform deterministic grid on the unit sphere in R^dim.

    Lattice points on the surface of the cube [-1,1]^dim (``resolution``
    nodes per edge, forced odd so that all +-e_i directions are present),
    each once and in C order of the lattice, radially normalized.  Built
    once per (dim, resolution) and returned read-only, since every caller
    shares it.
    """
    if resolution < 8:
        raise ValueError("sphere grid resolution must be at least 8")
    axis = np.linspace(-1.0, 1.0, int(resolution) | 1)
    # the surface of the d-cube in C order: where x_0 sits at an end of the
    # axis the rest is the full (d - 1)-lattice, elsewhere the (d - 1)-surface
    pts = axis[[0, -1], None]
    for d in range(2, dim + 1):
        full = np.stack(np.meshgrid(*([axis] * (d - 1)), indexing="ij"), axis=-1)
        blocks = [pts if 0 < k < axis.size - 1 else full.reshape(-1, d - 1)
                  for k in range(axis.size)]
        pts = np.column_stack([np.repeat(axis, [len(b) for b in blocks]),
                               np.concatenate(blocks)])
    grid = pts / np.linalg.norm(pts, axis=1)[:, None]
    grid.flags.writeable = False
    return grid


def tangent_basis(nu):
    """Orthonormal bases of nu-perp, batched: columns 2..d of the Householder
    reflection exchanging e_1 with -sign(nu_1) nu."""
    nu = np.asarray(nu, dtype=float)
    d = nu.shape[-1]
    sign = np.where(nu[..., 0] >= 0, 1.0, -1.0)
    u = nu.copy()
    u[..., 0] += sign
    nrm2 = np.sum(u * u, axis=-1)
    H = np.eye(d) - 2.0 * u[..., :, None] * u[..., None, :] / nrm2[..., None, None]
    return H[..., :, 1:]


def pinch_bounds(integrand, sphere_grid_resolution=SPHERE_RESOLUTION):
    """Extremes of the tangential Hessian eigenvalues over the sphere.

    Returns (a_min, a_max): the min/max over a quasi-uniform grid of the
    eigenvalues of D^2 phi(nu) restricted to the tangent hyperplane of nu.
    """
    nu = sphere_grid(integrand.dim, sphere_grid_resolution)
    T = tangent_basis(nu)
    hess = integrand.hessian(nu)
    # T^T hess T as two two-operand products, each summed over d in order
    d = T.shape[-2]
    hess_T = sum(hess[..., :, e, None] * T[..., None, e, :] for e in range(d))
    tangential = sum(T[..., k, :, None] * hess_T[..., k, None, :] for k in range(d))
    eigs = np.linalg.eigvalsh(tangential)
    return float(eigs[:, 0].min()), float(eigs[:, -1].max())


def c1_norm(integrand, sphere_grid_resolution=SPHERE_RESOLUTION):
    """Grid maximum over the sphere of sqrt(phi^2 + |D phi|^2), with the
    full ambient gradient D phi."""
    nu = sphere_grid(integrand.dim, sphere_grid_resolution)
    phi = integrand.value(nu)
    dphi = integrand.gradient(nu)
    return float(np.sqrt(phi**2 + np.sum(dphi**2, axis=-1)).max())


def min_phi(integrand, sphere_grid_resolution=SPHERE_RESOLUTION):
    nu = sphere_grid(integrand.dim, sphere_grid_resolution)
    return float(integrand.value(nu).min())


@dataclass
class IntegrandReport:
    """Ellipticity statistics of one integrand on one sphere grid."""

    a_min: float
    a_max: float
    stability_lambda: float
    c1_norm: float
    phi_min: float
    pinch_satisfied: bool          # [a_min, a_max] inside [1, sqrt(2)]
    pinch_satisfied_scaled: bool   # a_max <= sqrt(2) a_min (some rescaling fits)
    resolution: int

    def as_dict(self):
        return self.__dict__.copy()


def analyze(integrand, sphere_grid_resolution=SPHERE_RESOLUTION):
    a_min, a_max = pinch_bounds(integrand, sphere_grid_resolution)
    lam = a_min / a_max if a_min > 0 else float("nan")
    window = a_min >= 1.0 - PINCH_SLACK and a_max <= SQRT2 + PINCH_SLACK
    scaled = a_min > 0 and a_max <= SQRT2 * a_min + PINCH_SLACK
    return IntegrandReport(
        a_min=a_min,
        a_max=a_max,
        stability_lambda=lam,
        c1_norm=c1_norm(integrand, sphere_grid_resolution),
        phi_min=min_phi(integrand, sphere_grid_resolution),
        pinch_satisfied=bool(window),
        pinch_satisfied_scaled=bool(scaled),
        resolution=int(sphere_grid_resolution),
    )


def catalog(dim):
    """Catalog integrands in ambient dimension ``dim`` keyed by name.

    ``quadratic_mild`` is tuned so the tangential Hessian window is exactly
    [1, 1.1^1.5]: positive definite matrix 1.1 * diag(1, ..., 1, 1.1).
    ``quadratic_aniso4`` (dim 4 only) violates the pinch with a_max = 4.
    """
    out = {"isotropic": Integrand.isotropic(dim)}
    mild = 1.1 * np.diag([1.0] * (dim - 1) + [1.1])
    out["quadratic_mild"] = Integrand.quadratic(mild)
    if dim == 4:
        out["quadratic_aniso4"] = Integrand.quadratic(np.diag([1.0, 1.0, 1.0, 4.0]))
        out["perturbed_axis"] = Integrand.perturbed(dim, 0.1, "axis2")
        out["perturbed_quartic"] = Integrand.perturbed(dim, 0.03, "quartic_saddle")
    else:
        out["perturbed_saddle"] = Integrand.perturbed(dim, 0.04, "saddle2")
    return out
