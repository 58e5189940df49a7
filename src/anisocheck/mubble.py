"""Warped bubble problem on rotationally symmetric model 3-manifolds.

A model is [0, T] x S^2 with metric dt^2 + f(t)^2 g_{S^2}, so

    R(t) = 2 (1 - f'^2) / f^2 - 4 f'' / f,
    Lap u = u'' + 2 (f'/f) u'          (radial functions).

The warping profile f is an entry of ``PROFILES`` at the model's params,
carried by the model (``WarpedModel.profile``) and evaluated once per
model, on the fine grid of the Sturm solve, which also gives f, f' and R.

A spectral witness is a positive u with Lap u <= -(2 lambda - R) u / 2;
here u is the radial ground state of -Lap + R/2 (1D Sturm-Liouville
solver, natural/Neumann ends) and lambda its eigenvalue, so the witness
inequality holds by construction up to discretization noise.

The bubble functional over symmetric regions {t < t0} is

    A(t0) = 4 pi f(t0)^2 u(t0) - 4 pi int_{t_mid}^{t0} h u f^2 dt,

with h = -amplitude * tan(phi) on the band where phi sweeps (-pi/2, pi/2).
Its minimizer must have sphere area at most 8 pi / lambda and intrinsic
diameter at most 2 pi / sqrt(lambda), and the slope condition
lambda + h^2 - 2 |h'| >= 0 holds with amplitude sqrt(lambda) exactly at
the Lipschitz budget; the half amplitude fails it under the budget for
lambda > 1/4, which is reproducible here as a recorded counterexample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

FOUR_PI = 4.0 * math.pi
#: the round cap f = sin t closes at its second pole t = pi
ROUND_CAP_END = math.pi
#: defaults of a bubble run, shared by the mubble job and the criteria: the
#: Sturm grid of a model, the band offset eps and the amplitude of h
N_GRID = 4001
EPS = 0.1
AMPLITUDE = "sqrt-lambda"
#: points across the band, for its profiles
BAND_POINTS = 4001
#: the parameter that sets the length scale of a profile (1/rate, period)
SCALE_PARAM = {"funnel": "rate", "bulge": "period"}


class ProfileError(ValueError):
    """The warping profile or its curvature is not finite on the grid."""


class BandError(ValueError):
    """The model is too short to hold the band of the phi profile."""


class GridError(ValueError):
    """The model's grid has too few nodes inside the band to minimize A."""


# -- profiles -------------------------------------------------------------------


def _cylinder(params):
    return lambda t: (np.ones_like(t), np.zeros_like(t), np.zeros_like(t),
                      np.zeros_like(t))


def _funnel(params):
    a = float(params.get("rate", 0.1))

    def profile(t):
        e = np.exp(-a * t)
        return e, -a * e, a * a * e, -a * a * a * e
    return profile


def _bulge(params):
    amp = float(params.get("amplitude", 0.05))
    period = float(params.get("period", 17.0))
    om = 2.0 * math.pi / period

    def profile(t):
        c, s = np.cos(om * t), np.sin(om * t)
        return 1.0 + amp * c, -amp * om * s, -amp * om * om * c, amp * om * om * om * s
    return profile


def _round_cap(params):
    def profile(t):
        s, c = np.sin(t), np.cos(t)
        return s, c, -s, -c
    return profile


#: the warping profiles by name: each entry maps the ``params`` of a model
#: to its profile, the callable t -> (f, f', f'', f''')
PROFILES = {"cylinder": _cylinder, "funnel": _funnel, "bulge": _bulge,
            "round_cap": _round_cap}


@dataclass
class WarpedModel:
    """Sampled rotationally symmetric model with spectral witness; ``profile``
    is the `PROFILES` entry of ``name`` at ``params``."""

    name: str
    profile: object
    T: float
    t: np.ndarray
    f: np.ndarray
    fp: np.ndarray
    R: np.ndarray
    u: np.ndarray
    lam: float
    lambda1: float
    params: dict = field(default_factory=dict)

    @property
    def n_grid(self):
        return self.t.size

    def as_dict(self):
        return {"name": self.name, "T": self.T, "n_grid": self.n_grid,
                "lambda": self.lam, "lambda1": self.lambda1, "params": self.params}


def scalar_curvature_profile(f, fp, fpp, fppp=None):
    """R = 2 (1 - f'^2) / f^2 - 4 f'' / f.  At a pole (f = 0, where the
    model closes smoothly: f'^2 = 1, f'' = 0) R is its limit -6 f'''/f'."""
    pole = f == 0.0
    fs = np.where(pole, 1.0, f)
    R = 2.0 * (1.0 - fp * fp) / (fs * fs) - 4.0 * fpp / fs
    if np.any(pole):
        R = np.where(pole, -6.0 * fppp / fp, R)
    return R


def lambda1_sturm(profile, T, n_grid=N_GRID):
    """Bottom eigenvalue and positive ground state of -Lap + R/2 over
    radial functions, natural (Neumann) ends.

    1D P1 elements with lumped mass and weight f^2, solved at 2 n_grid - 1
    nodes and at their even nodes (`np.linspace(0, T, n_grid)` bit for bit)
    from one evaluation of ``profile``; returns the Richardson-extrapolated
    eigenvalue and t, u, f, f' and R on the n_grid nodes.
    """
    from scipy.linalg import eigh_tridiagonal

    t = np.linspace(0.0, T, 2 * n_grid - 1)
    with np.errstate(all="ignore"):     # an overflow is caught just below
        f, fp, fpp, fppp = profile(t)
        R = scalar_curvature_profile(f, fp, fpp, fppp)
    del fpp, fppp       # not held through the solves: 32 MiB at the n_grid cap
    if not (np.all(np.isfinite(f)) and np.all(np.isfinite(R))):
        raise ProfileError(f"f or its curvature R is not finite on [0.0, {T}]")

    def solve(t, f, R):
        h = t[1] - t[0]
        # a pole at t = 0 carries no mass; its natural condition gives
        # u_0 = u_1, so the node and its element drop out of the solve
        lo = 1 if f[0] == 0.0 else 0
        fr = f[lo:]
        w_mid = ((fr[:-1] + fr[1:]) / 2.0) ** 2
        mass = fr * fr * h
        if not lo:
            mass[0] *= 0.5
        mass[-1] *= 0.5
        diag = np.zeros(t.size - lo)
        diag[:-1] += w_mid / h
        diag[1:] += w_mid / h
        off = -w_mid / h
        pot = 0.5 * R[lo:] * mass
        d = np.sqrt(mass)
        main = (diag + pot) / (d * d)
        sub = off / (d[:-1] * d[1:])
        vals, vecs = eigh_tridiagonal(main, sub, select="i", select_range=(0, 0))
        v = vecs[:, 0] / d
        v = np.concatenate([v[:lo], v])
        if v[np.argmax(np.abs(v))] < 0:
            v = -v
        return float(vals[0]), v / np.abs(v).max()

    lam_c, _ = solve(t[::2], f[::2], R[::2])
    lam_f, u = solve(t, f, R)
    lam_ext = (4.0 * lam_f - lam_c) / 3.0
    return lam_ext, t[::2], u[::2], f[::2], fp[::2], R[::2]


def make_model(name, T, params=None, lam=None, n_grid=N_GRID):
    """Build a catalog model; ``lam`` defaults to the solver's lambda_1 so
    the witness inequality holds with equality up to discretization."""
    params = dict(params or {})
    profile = PROFILES[name](params)
    try:
        lam1, t, u, f, fp, R = lambda1_sturm(profile, T, n_grid=n_grid)
    except ProfileError as exc:
        raise ProfileError(f"the {name} profile {exc}") from None
    return WarpedModel(name=name, profile=profile, T=float(T), t=t, f=f, fp=fp, R=R,
                       u=u, lam=float(lam1 if lam is None else lam),
                       lambda1=float(lam1), params=params)


def catalog():
    """Catalog models satisfying T >= 5 pi / sqrt(lambda)."""
    return {
        "cylinder": make_model("cylinder", T=20.0, lam=1.0),
        "funnel": make_model("funnel", T=17.0, params={"rate": 0.1}),
        "bulge": make_model("bulge", T=17.0, params={"amplitude": 0.05, "period": 17.0}),
    }


def supersolution_residual(model):
    """Max over interior nodes of Lap u + (2 lambda - R) u / 2 (should be
    <= discretization noise; exactly (lam - lambda1) u in the continuum)."""
    t, u = model.t, model.u
    h = t[1] - t[0]
    inner = slice(1, -1)      # f may vanish at an end (a pole)
    lap = ((u[2:] - 2.0 * u[1:-1] + u[:-2]) / h**2
           + 2.0 * (model.fp[inner] / model.f[inner])
           * np.gradient(u, h, edge_order=2)[inner])
    resid = lap + 0.5 * (2.0 * model.lam - model.R[inner]) * u[inner]
    return float(resid.max())


# -- band profiles and the slope condition ---------------------------------------


@dataclass
class BubbleProfiles:
    """The band of `build_phi_h`: phi sweeps [-pi/2, pi/2] affinely over
    ``band`` with slope 1/denom, and h = -amplitude tan(phi)."""

    lam: float
    eps: float
    amplitude: float
    denom: float
    band: tuple
    t: np.ndarray       # the open band, where tan stays finite

    @property
    def lip_phi(self):
        return 1.0 / self.denom

    @property
    def t_mid(self):
        return self.eps + 0.5 * math.pi * self.denom

    @property
    def lip_budget(self):
        """The full slope allowance sqrt(lambda)/2: the general-manifold bound
        for a Lipschitz-2 smoothed distance."""
        return math.sqrt(self.lam) / 2.0

    @property
    def lip_within_budget(self):
        return bool(self.lip_phi < self.lip_budget)

    def phi_at(self, t):
        return (t - self.eps) / self.denom - math.pi / 2.0

    def h_at(self, t):
        return -self.amplitude * np.tan(self.phi_at(t))

    @property
    def phi(self):
        return self.phi_at(self.t)

    @property
    def h(self):
        return self.h_at(self.t)

    def as_dict(self):
        return {"lambda": self.lam, "eps": self.eps, "amplitude": self.amplitude,
                "lip_phi": self.lip_phi, "band": list(self.band), "t_mid": self.t_mid,
                "lip_within_budget": self.lip_within_budget}


def _amplitude_value(amplitude, lam):
    if amplitude == "sqrt-lambda":
        return math.sqrt(lam)
    if amplitude == "half":
        return 0.5
    return float(amplitude)


def build_phi_h(model, eps=EPS, amplitude=AMPLITUDE):
    """Band profiles over the distance t to the t = 0 boundary (exact in
    the symmetric model): the affine sweep phi mapping
    [eps, 4 pi/sqrt(lam) + 2 eps] onto [-pi/2, pi/2], and
    h = -amplitude * tan(phi)."""
    if not 0.0 < eps < 0.5:
        raise ValueError("eps must lie in (0, 1/2)")
    lam = model.lam
    denom = 4.0 / math.sqrt(lam) + eps / math.pi
    t_hi = eps + math.pi * denom
    if t_hi > model.T:
        raise BandError(f"must be >= 4 pi/sqrt(lambda) + 2 eps = {t_hi:.4f} for "
                        f"lambda = {lam:.6g}, to hold the band of the phi profile")
    return BubbleProfiles(lam=lam, eps=eps, amplitude=_amplitude_value(amplitude, lam),
                          denom=denom, band=(eps, t_hi),
                          t=np.linspace(eps, t_hi, BAND_POINTS)[1:-1])


def check_h_condition(profiles, L):
    """Minimum over the band of lambda + h^2 - 2 |h'| when phi has slope ``L``.

    The model's own slope is ``profiles.lip_phi``; under the full allowance
    ``profiles.lip_budget`` the sqrt(lambda) amplitude sits exactly at
    equality and the half amplitude fails for lambda > 1/4.
    """
    lam = profiles.lam
    amp = profiles.amplitude
    phi = profiles.phi
    tan = np.tan(phi)
    # margin = lam + amp^2 tan^2 - 2 amp L sec^2, grouped so that the
    # sqrt(lambda)-amplitude budget case cancels exactly instead of
    # through sec^2-amplified rounding
    two_LA = (2.0 * L) * amp
    margin = (lam - two_LA) + (amp * amp - two_LA) * (tan * tan)
    k = int(np.argmin(margin))
    return float(margin[k]), {"t": float(profiles.t[k]), "phi": float(phi[k]),
                              "lip": L, "amplitude": amp}


# -- the bubble functional --------------------------------------------------------


@dataclass
class MuBubbleSolution:
    t0: float
    boundary_area: float
    boundary_diameter: float
    value: float
    stationarity_residual: float
    boundary_minimizer: bool
    value_at_reference: float    # A at the t_mid competitor
    lam: float

    def as_dict(self):
        return self.__dict__.copy()


def _quadratic(y, c, s):
    """Value and slope per step, s steps from node c, of the quadratic
    through y[c - 1], y[c] and y[c + 1]."""
    slope, curv = 0.5 * (y[c + 1] - y[c - 1]), y[c + 1] - 2.0 * y[c] + y[c - 1]
    return y[c] + s * (slope + 0.5 * s * curv), slope + s * curv


def minimize_A(model, prof):
    """Minimize A over symmetric regions {t < t0}, t0 in the band of the
    profiles ``prof`` (`build_phi_h` of the model), on the model's Sturm grid.

    A is taken at the grid nodes at least half a step inside the band, with
    h in closed form, and its integral by the cumulative trapezoid rule with
    the Euler-Maclaurin end correction -dt^2/12 (g' - g'_first), g' by
    differences: fourth order in dt.  t0 is the vertex of the parabola
    through the least node and its two neighbours, or that node itself at
    an end (a boundary minimizer); A(t0), u(t0), u'(t0) and A(t_mid) are
    read from three-node quadratics, f and f' at t0 from one call of the
    profile.  Raises `GridError` when fewer than three nodes lie in the band.

    The first-variation condition at an interior minimizer is
    2 (f'/f) u + u' = h u, whose residual is reported.
    """
    # h is singular at both ends of the band: at a node much nearer to one
    # than a step, the end correction would outweigh the trapezoid steps
    half = 0.5 * (model.t[1] - model.t[0])
    nodes = slice(*np.searchsorted(model.t, np.add(prof.band, (half, -half))))
    t, u, f = model.t[nodes], model.u[nodes], model.f[nodes]
    if t.size < 3:
        raise GridError(f"leaves {t.size} node(s) inside the band; minimizing A needs 3")
    dt = t[1] - t[0]
    g = prof.h_at(t) * u * f * f
    dg = np.gradient(g, dt, edge_order=2)
    G = np.cumsum(np.r_[0.0, 0.5 * dt * (g[:-1] + g[1:])]) - dt * dt / 12.0 * (dg - dg[0])
    c_mid = min(max(round((prof.t_mid - t[0]) / dt), 1), t.size - 2)
    s_mid = (prof.t_mid - t[c_mid]) / dt
    A = FOUR_PI * (f * f * u - (G - _quadratic(G, c_mid, s_mid)[0]))
    k = int(np.argmin(A))
    c = min(max(k, 1), t.size - 2)
    curv = A[c + 1] - 2.0 * A[c] + A[c - 1]
    s = 0.5 * (A[c - 1] - A[c + 1]) / curv if k == c and curv > 0.0 else float(k - c)
    t0 = float(t[c] + s * dt)
    u0, du0 = _quadratic(u, c, s)
    f0, fp0 = (float(v) for v in model.profile(t0)[:2])
    resid = abs(2.0 * fp0 / f0 * u0 + du0 / dt - float(prof.h_at(t0)) * u0)
    return MuBubbleSolution(
        t0=t0, boundary_area=FOUR_PI * f0 * f0, boundary_diameter=math.pi * f0,
        value=float(_quadratic(A, c, s)[0]), stationarity_residual=float(resid),
        boundary_minimizer=k != c, lam=prof.lam,
        value_at_reference=float(_quadratic(A, c_mid, s_mid)[0]))
