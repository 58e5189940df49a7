"""Inverse-distance conformal deformation g~ = r^-2 g and its identities.

On a chart avoiding the ambient origin, the metric is rescaled by the
inverse squared distance to the origin.  The module computes the deformed
scalar curvature through the conformal transformation law, evaluates the
associated spectral quadratic form two independent ways, estimates the
bottom Dirichlet eigenvalue of -Lap~ + R~/2, and evaluates both sides of
the log-distance comparison along curves (g~-length controls ratios of r
and of the intrinsic radius); `acceptance` judges the numbers.

The deformed metric is dilation-invariant about the origin, which the
catalog cone chart makes directly testable.
"""

from __future__ import annotations

import numpy as np

from . import geometry as geo
from . import variation as va

#: the target of the bottom eigenvalue of the deformed operator by the
#: chart's n: the criteria's targets and a conformal job's default lambda
LAMBDA_TARGET = {2: 0.0, 3: 0.75}


def deform(geom):
    """The scalar curvature R~ of r^-2 g at the nodes of ``geom``; raises
    `geometry.ImmersionError` unless r >= 1e-3 on the chart."""
    rmin = float(geom.r.min())
    if geom.origin_on_chart or rmin < geo.R_MIN:
        raise geo.ImmersionError(
            f"conformal deformation needs r >= {geo.R_MIN} on the chart (min r = {rmin:.2e})")
    n = geom.n
    w = 1.0 / geom.r
    # w^2 R~ = R - 2(n-1) Lap log w - (n-1)(n-2)|grad log w|^2, with the
    # metric-aware FD Laplacian and |grad log w|^2 = |grad r|^2 / r^2
    lap_log_w = geom.laplacian(-np.log(geom.r))
    grad_log_w_sq = np.einsum("...d,...d->...", geom.grad_r, geom.grad_r) / geom.r**2
    return (geom.scalar_curvature - 2.0 * (n - 1) * lap_log_w
            - (n - 1) * (n - 2) * grad_log_w_sq) / w**2


def qform_identity_check(geom, R_tilde, phi, lam):
    """(direct, derived, magnitude): two evaluations of the deformed
    spectral quadratic form on ``geom``, whose deformed scalar curvature is
    ``R_tilde`` (`deform`), with w = 1/r,

    direct:  Q~(phi) = int |grad~ (w^{(2-n)/2} phi)|^2_g~
                       + (R~/2 - lam) (w^{(2-n)/2} phi)^2 dmu~
    derived: int |grad phi|^2 + R/2 phi^2
                 + ( n/2 (n - r H xhat.nu - (n+2)/2 |grad r|^2) - lam )
                   r^-2 phi^2  dmu

    (H_vec.xhat = -H xhat.nu), and the scale of their rounding: the
    quadrature of the absolute values of the node terms that the two sides
    sum (two and three).

    The two agree identically in the continuum; the discrepancy is pure
    discretization and must vanish under refinement.
    """
    va._check_compact_support(geom, phi)
    n = geom.n
    w = 1.0 / geom.r
    psi = w ** ((2.0 - n) / 2.0) * phi
    direct = (w ** (n - 2.0) * geom.grad_norm_sq(psi),
              (0.5 * R_tilde - lam) * w**2 * phi**2)
    hx = -geom.mean_curvature * geom.radial_cos
    gr2 = np.einsum("...d,...d->...", geom.grad_r, geom.grad_r)
    potential = (0.5 * n * (n + geom.r * hx - 0.5 * (n + 2.0) * gr2) - lam) / geom.r**2
    derived = (geom.grad_norm_sq(phi), 0.5 * geom.scalar_curvature * phi**2,
               potential * phi**2)
    magnitude = geom.integrate(sum(np.abs(t) for t in direct + derived))
    return (geom.integrate(direct[0] + direct[1]),
            geom.integrate(derived[0] + derived[1] + derived[2]), magnitude)


def lambda1_estimate(geom, R_tilde):
    """Bottom Dirichlet eigenvalue of -Lap~ + R~/2 on the chart piece
    ``geom`` with deformed scalar curvature ``R_tilde`` (`deform`), a
    :class:`variation.DirichletSpectrum`."""
    n = geom.n
    w = 1.0 / geom.r
    wn = w**n
    coeff = (w ** (n - 2.0))[..., None, None] * geom.metric_inv
    return va.dirichlet_spectrum(geom, coeff, 0.5 * R_tilde * wn, wn)


# -- curve comparisons ---------------------------------------------------------


def curve_gtilde_length(chart, curve_params):
    """g~-length of a parameter-space polyline on an analytic chart,
    per-segment Simpson with midpoint evaluations."""
    pts = np.asarray(curve_params, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 2:
        raise ValueError("curve must be a polyline of parameter points")
    a = pts[:-1]
    b = pts[1:]
    mid = 0.5 * (a + b)
    direction = b - a

    def speed(u):
        X, J, _, _ = chart.frame(u)
        vel = np.einsum("...da,...a->...d", J, direction)
        r = np.linalg.norm(X, axis=-1)
        if np.any(r <= 0.0):
            raise ValueError("curve passes through the ambient origin")
        return np.linalg.norm(vel, axis=-1) / r

    return float(np.sum((speed(a) + 4.0 * speed(mid) + speed(b)) / 6.0))


def distance_comparison_check(chart, curve_params):
    """(length, log ratio, intrinsic log ratio) of the comparison
    |log r(p) - log r(q)| <= g~-length between the ends p, q of a curve;
    the intrinsic log ratio, of the intrinsic radius in place of r, is None
    except on charts exposing an exact intrinsic distance to the origin
    preimage (radial charts)."""
    pts = np.asarray(curve_params, dtype=float)
    D = curve_gtilde_length(chart, pts)
    ends = chart.frame(pts[[0, -1]])[0]
    r0, r1 = np.linalg.norm(ends, axis=-1)
    log_ratio = abs(float(np.log(r1) - np.log(r0)))
    intrinsic = None
    if chart.supports_intrinsic_radius:
        rb = chart.intrinsic_radius(pts[[0, -1]])
        intrinsic = abs(float(np.log(rb[1]) - np.log(rb[0])))
    return D, log_ratio, intrinsic


def cauchy_schwarz_step_check(geom, beta):
    """Pointwise margin of r H_vec.xhat >= -beta r^2 H^2 / 2 - 1/(2 beta),
    with H_vec.xhat = -H xhat.nu, the weighted arithmetic-geometric mean
    step used with the deformed form; holds on every chart for every
    beta > 0."""
    if beta <= 0:
        raise ValueError("beta must be positive")
    hx = -geom.mean_curvature * geom.radial_cos
    margin = geom.r * hx + 0.5 * beta * (geom.r * geom.mean_curvature) ** 2 \
        + 0.5 / beta
    return float(margin.min())
