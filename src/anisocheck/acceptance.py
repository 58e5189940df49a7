"""The release acceptance suite as a library of criterion checks.

Each criterion function returns a list of :class:`~anisocheck.checks.Check`;
the CLI ``all`` command and the pytest acceptance module both consume
these.  The numerics of `variation`, `conformal` and `mubble` return plain
numbers; this module turns them into records and holds every convention
that judges them: relative-discrepancy floors, margins, residuals,
phi-stationarity decisions and tolerances.  The check families that the
other CLI runners share with the criteria (variation oracles, conformal
refinement levels, random-path distance margins, vector-field identities,
isoperimetric margins, integrand identities, warped-bubble models) come
from one builder each, below: criterion 7 and the `conformal` job drive
every deformed level through :func:`conformal_records`.  The `constants`
and `verify` jobs report exactly what criteria 1-4 report
(`constants_checks`, `sweep_checks`), so the two entry points cannot
drift apart.
:func:`run_all` judges each criterion's runtime against its budget in
:data:`RUNTIME_BUDGETS`.

Numerical conventions decided during calibration:

* first/second-variation relative discrepancy is measured against
  |formula| + Phi-area/10 (an absolute floor; stationary charts have an
  identically zero first variation, so a bare relative test is vacuous);
* observed refinement order must reach 1.8 unless the baseline
  discrepancy is already at the floor (rel <= 1e-4), where slopes are
  noise;
* catalog baselines: 33^2 (n=2, partner 17^2), 25^3 (n=3, partner 13^3).
"""

from __future__ import annotations

import math
import time

import numpy as np

from . import conformal as cf
from . import constants as co
from . import geometry as geo
from . import inequalities as iq
from . import integrand as ig
from . import mubble as mb
from . import variation as va
from .checks import Check, ge, ladder, le, order_check

SQRT2 = math.sqrt(2.0)

RES_2D = ladder(17, 2)
RES_3D = ladder(13, 2)
REL_TOL = 1e-3
ORDER_FLOOR_REL = 1e-4
LAMBDA1_SLACK = 1e-3
#: relative tolerance of a constant's double route against its 50-digit value.
#: The worst amplification of rounding is exp(E) in V0: its relative error is
#: the absolute error of E = 15 pi / lambda ~ 95.2 (as-printed V0), a few ulps
#: of E at 1.4e-14 each.  The largest reading is 3.6e-14; a 1e-12 fault fails.
DOUBLE_ROUTE_TOL = 5e-13
LAMBDA1_NOTE = ("Dirichlet value on a compact chart piece; upper bounds the chart's "
                "own bottom eigenvalue only, quoted for consistency with the target "
                "on stable catalog charts")


# -- builders shared with the CLI runners ---------------------------------------


def variation_records(oracle, form, kinds):
    """Per-speed variation records of one oracle, keyed by (kind, speed) in
    the order of ``kinds`` ("first", "second") and of the oracle's speeds:
    the discrepancy of the difference quotient from the formula, relative
    to |formula| + Phi-area/10 (the first convention above).

    ``form`` is the `variation.PhiForm` of the oracle's geometry.  The
    caller decides stationarity, that is whether "second" is among
    ``kinds``; a "second" record states it.
    """
    scale = abs(va.phi_area(oracle.geom, form.integrand))
    recs = {}
    for kind in kinds:
        detail = {}
        if kind == "second":
            detail["stationary"] = form.stationary
        for speed in oracle.speeds:
            check = va.first_variation_check if kind == "first" else va.second_variation_check
            fd, formula = check(oracle, form, speed)
            disc = abs(fd - formula)
            rel = disc / (abs(formula) + 0.1 * scale)
            recs[kind, speed] = le(
                f"{kind} variation rel discrepancy [{speed}]", rel, REL_TOL, fd_value=fd,
                formula_value=formula, discrepancy=disc, rel_discrepancy=rel, scale=scale,
                step=oracle.step, **detail)
    return recs


def qform_one_sum(chart):
    """Whether the two qform sides are one sum on ``chart``, judged by
    `qform_rounding_check`: a `geometry.Sphere` about the origin, where
    grad r = 0 and w = 1/r is constant (1 at radius 1)."""
    return isinstance(chart, geo.Sphere) and not np.any(chart.center)


def qform_rounding_check(name, geom, R_tilde, lam):
    """The two-way quadratic-form discrepancy on the centered bump of one
    sample ``geom``, deformed to ``R_tilde``, on which the two sides are one
    sum (`qform_one_sum`), so that only rounding tells them apart.

    The bound is the rounding of the sums, taking the node terms as given:
    a node adds at most three terms (two roundings), the product of the n
    axis weights and the area element scale it (n + 1), and the N nodes
    are added in some order (N - 1), so each computed side lies within
    gamma_m = m u / (1 - m u), m = N + n + 2 and u = 2^-53, of its exact
    sum times the quadrature of its absolute node terms (Higham, *Accuracy
    and Stability of Numerical Algorithms*, 2nd ed., Lemma 3.1 and (4.4)).
    The discrepancy is then at most gamma_m times the magnitude of
    `conformal.qform_identity_check`, which sums both sides.  Off radius 1
    the node terms differ by a few roundings of w, far fewer than m."""
    direct, derived, magnitude = cf.qform_identity_check(
        geom, R_tilde, va.bump_function(geom, "centered"), lam)
    m = geom.r.size + geom.n + 2
    u = 2.0 ** -53
    return le(name, abs(direct - derived), m * u / (1.0 - m * u) * magnitude,
              direct=direct, derived=derived, magnitude=magnitude)


def conformal_records(chart, levels, tests, lam, integrand=None, label=""):
    """The records of the conformal ``tests`` ("qform", "laplace_r",
    "lambda1") on ``chart`` deformed at the grid ``levels``, coarse to fine,
    in that order and each name followed by ``label``: the order rule on
    the centered-bump quadratic-form discrepancies of every level (waived
    when the finest relative to max(1, |derived|) sits at ORDER_FLOOR_REL),
    or on a chart whose two sides are one sum (`qform_one_sum`) their
    rounding at the finest level alone; the order rule on the radial
    Laplacian identity residuals of every level; `lambda1_target_check` of
    the first level against ``lam`` for ``integrand``.  A level is sampled
    and deformed only when a test reads it, and freed before the next is
    sampled.  A chart that fails to sample or to deform raises
    `geometry.ImmersionError`."""
    one_sum = "qform" in tests and qform_one_sum(chart)
    discs, residuals, recs = [], [], {}
    for k, level in enumerate(levels):
        qform = "qform" in tests and (not one_sum or k == len(levels) - 1)
        lambda1 = "lambda1" in tests and k == 0
        if not (qform or lambda1 or "laplace_r" in tests):
            continue
        geom = geo.sample_chart(chart, level)
        R_tilde = cf.deform(geom)
        if qform and one_sum:
            recs["qform"] = qform_rounding_check("qform identity rounding" + label, geom,
                                                 R_tilde, lam)
        elif qform:
            direct, derived, _ = cf.qform_identity_check(
                geom, R_tilde, va.bump_function(geom, "centered"), lam)
            discs.append(abs(direct - derived))
        if "laplace_r" in tests:
            residuals.append(geo.laplace_r_check(geom))
        if lambda1:
            recs["lambda1"] = lambda1_target_check("lambda1 estimate vs target" + label,
                                                   geom, R_tilde, integrand, lam)
        del geom, R_tilde    # freed before the next level is sampled
    if discs:    # ``derived`` is the finest level's
        recs["qform"] = order_check("qform identity order" + label, discs, 1e-11,
                                    discs[-1] / max(1.0, abs(derived)), ORDER_FLOOR_REL)
    if residuals:
        recs["laplace_r"] = order_check("radial Laplacian identity order" + label,
                                        residuals, 1e-12)
    return [recs[test] for test in ("qform", "laplace_r", "lambda1") if test in recs]


def distance_margin_check(name, charts, rng, batches, points, samples):
    """Worst margin D - log ratio of the log-distance comparison, and of its
    intrinsic variant where a chart has one, along random broken lines: per chart,
    ``batches`` lines through ``points`` uniform parameter points drawn
    from ``rng``, each segment sampled at ``samples`` points."""
    tt = np.linspace(0, 1, samples)[:, None]
    worst = math.inf
    for chart in charts:
        lo = [b[0] for b in chart.box]
        hi = [b[1] for b in chart.box]
        for _ in range(batches):
            pts = lo + rng.random((points, chart.n)) * (np.array(hi) - lo)
            path = np.concatenate([a + tt * (b - a) for a, b in zip(pts[:-1], pts[1:])])
            length, log_ratio, intrinsic = cf.distance_comparison_check(chart, path)
            worst = min(worst, length - log_ratio)
            if intrinsic is not None:
                worst = min(worst, length - intrinsic)
    return ge(name, worst, -1e-6)


def certified_stable(spec):
    """The stability verdict on a stability spectrum: lambda - residual >= 0."""
    return spec.eigenvalue - spec.residual >= 0.0


def spectrum_converged_check(spec):
    """The residual rule of a stability spectrum: residual <= EIG_TOL max(1, |lambda|)."""
    lam = spec.eigenvalue
    return le("stability spectrum converged", spec.residual, va.EIG_TOL * max(1.0, abs(lam)),
              lambda_stab=lam, stable=certified_stable(spec), matvecs=spec.matvecs)


def lambda1_target_check(name, geom, R_tilde, integrand, target):
    """Margin lambda1 - residual - target >= -LAMBDA1_SLACK of the bottom
    Dirichlet eigenvalue of -Lap~ + R~/2 on the piece ``geom`` deformed to
    ``R_tilde`` (`conformal.deform`), judged only where the piece is
    certified phi-stationary and stable for ``integrand`` (the target
    follows from stability); else reported only."""
    est = cf.lambda1_estimate(geom, R_tilde)
    margin = est.eigenvalue - est.residual - target
    detail = {"lambda1": est.eigenvalue, "lambda_target": target, "margin": margin,
              "matvecs": est.matvecs, "residual": est.residual,
              "resolution": list(est.resolution), "note": LAMBDA1_NOTE}
    form = va.PhiForm(geom, integrand)
    if form.stationary and certified_stable(va.stability_spectrum(form)):
        return ge(name, margin, -LAMBDA1_SLACK, **detail)
    return Check(name, margin, None, True,
                 {"warning": "chart is not a certified stable stationary piece; "
                             "estimate reported only", **detail})


def vectorfield_identity_check(name, form, field):
    """Residual of the stationary first-variation identity for the ambient
    ``field`` on the chart of ``form``: at most 1e-6 on a flat chart and
    1e-2 max(1, |interior|) on a curved one; reported only where the chart
    is not phi-stationary, since the identity is not expected to hold there."""
    geom = form.geom
    interior, boundary = va.vectorfield_first_variation(geom, form.integrand, field)
    resid = abs(interior - boundary)
    stat = form.stationary
    detail = {"interior": interior, "boundary": boundary, "stationary": stat}
    if not stat:
        return Check(name, resid, None, True,
                     {**detail, "warning": "chart is not phi-stationary; the "
                                           "identity is not expected to hold"})
    tol = 1e-6 if float(np.abs(geom.shape_op).max()) == 0.0 else 1e-2 * max(1.0, abs(interior))
    return le(name, resid, tol, **detail)


def isoperimetric_margin_check(name, form, rho):
    """Margin of |M| <= rho ||phi||_C1 / (n min phi) |dM| for the chart of
    ``form`` inside the ball of radius ``rho``; the detail holds both sides.
    Reported only where the chart is not phi-stationary, since the
    comparison is claimed for stationary pieces alone."""
    area, boundary, bound = va.isoperimetric_check(form.geom, form.integrand, rho)
    margin = bound - area
    stat = form.stationary
    detail = {"area": area, "boundary_measure": boundary, "bound": bound,
              "margin": margin, "stationary": stat}
    if not stat:
        return Check(name, float(margin), None, True,
                     {**detail, "warning": "chart is not phi-stationary; the "
                                           "comparison is not expected to hold"})
    return ge(name, margin, 0.0, **detail)


def integrand_checks(integrand, rep, rng):
    """Records of an integrand job: the homogeneity, Euler relation and
    radial degeneracy residuals of the closed forms on 1000 unit vectors
    drawn from ``rng``, the closed gradient and Hessian against
    `integrand.fd_gradient` and `fd_hessian` at the first of them, and phi
    positive on the sphere grid of ``rep`` (`integrand.analyze`)."""
    v = rng.normal(size=(1000, integrand.dim))
    v /= np.linalg.norm(v, axis=1)[:, None]
    phi = integrand.value(v)
    euler = np.einsum("pi,pi->p", integrand.gradient(v), v) - phi
    radial = np.einsum("pde,pe->pd", integrand.hessian(v), v)
    w = v[0]

    def fd_rel(fd, exact):
        return float(np.abs(fd - exact).max() / max(1.0, np.abs(exact).max()))

    return [
        le("homogeneity residual",
           float(np.abs(integrand.value(2.0 * v) - 2.0 * phi).max()), 1e-12),
        le("Euler relation residual", float(np.abs(euler).max()), 1e-10),
        le("radial degeneracy residual", float(np.abs(radial).max()), 1e-8),
        le("finite-difference gradient (rel)",
           fd_rel(ig.fd_gradient(integrand.value, w), integrand.gradient(w)), 1e-6),
        le("finite-difference Hessian (rel)",
           fd_rel(ig.fd_hessian(integrand.value, w), integrand.hessian(w)), 1e-6),
        Check("phi positive on grid", rep.phi_min, 0.0, rep.phi_min > 0.0),
    ]


def bubble_checks(model, prof):
    """Warped-bubble records of one model with its band profiles ``prof``
    (`mubble.build_phi_h`): the spectral witness residual, the slope
    condition under the model's phi slope and under the Lipschitz budget,
    and the four conclusion margins of the minimizer of A: 8 pi/lambda and
    2 pi/sqrt(lambda) less its boundary area and diameter, 5 pi/sqrt(lambda)
    less its t0, and A at the reference t_mid less A at the minimizer.
    Returns the records and the minimizer."""
    records = [le("witness residual", mb.supersolution_residual(model), 1e-6)]
    m_model, cfg = mb.check_h_condition(prof, prof.lip_phi)
    m_budget, _ = mb.check_h_condition(prof, prof.lip_budget)
    records.append(ge("slope condition margin (model lip)", m_model, -1e-10, **cfg))
    records.append(ge("slope condition margin (lip budget)", m_budget, -1e-10))
    sol = mb.minimize_A(model, prof)
    root = math.sqrt(sol.lam)
    records += [ge("boundary area margin", 8.0 * math.pi / sol.lam - sol.boundary_area,
                   -1e-8, solution=sol.as_dict()),
                ge("diameter margin", 2.0 * math.pi / root - sol.boundary_diameter, -1e-8),
                ge("containment margin", 5.0 * math.pi / root - sol.t0, -1e-8),
                ge("minimality certificate", sol.value_at_reference - sol.value, -1e-8)]
    return records, sol


# -- criteria 1-4: explicit constants and the inequality sweeps ------------------


def constants_checks(table):
    """Criterion 1's records on the constants ``table``: closed forms of the
    pinched lambda and c0 and of its isotropic-case entries, then for each
    entry the relative difference of its double route from its 50-digit
    value (``double route <name> (rel)``)."""
    lam = co.LAMBDA
    lam_closed = 3.0 * (5.0 + 3.0 * SQRT2) / 56.0
    vol_ref = (32.0 * math.pi / 3.0) ** 1.5 * math.exp(30.0 * math.pi / math.sqrt(3.0)) \
        / (6.0 * math.sqrt(math.pi))
    rho0 = table.value("rho0_min_case")
    recs = [
        le("lambda vs 3(5+3sqrt2)/56 (rel)", abs(lam - lam_closed) / lam_closed, 1e-14),
        le("c0 vs 1/(sqrt2 - 1/2) (rel)", abs(co.C0 - 1.0 / (SQRT2 - 0.5)) / co.C0, 1e-14),
        le("c0 approximately 1.09", abs(co.C0 - 1.09), 5e-3),
        le("minimal volume coefficient (rel)",
           abs(table.value("volume_coefficient") - vol_ref) / vol_ref, 1e-14),
        le("minimal rho0 vs e^(-10pi/sqrt3) (rel)",
           abs(rho0 - math.exp(-10 * math.pi / math.sqrt(3.0))) / rho0, 1e-14),
        le("minimal area bound vs 32pi/3 (rel)",
           abs(table.value("area_bound_min_case") - 32 * math.pi / 3) / (32 * math.pi / 3),
           1e-14),
        le("minimal diameter bound vs 4pi/sqrt3 (rel)",
           abs(table.value("diameter_bound_min_case") - 4 * math.pi / math.sqrt(3.0))
           / (4 * math.pi / math.sqrt(3.0)), 1e-14),
        le("lambda pipeline uses no hand-entered minimal value",
           abs(co.spectral_lambda(3, 1.0, 1.0) - table.value("lambda_min_case")), 0.0),
        le("beta route cross-check residual", abs(0.5 * 3 * (0.5 - 0.5 / co.BETA) - lam),
           1e-14)]
    return recs + [le(f"double route {e.name} (rel)",
                      abs(e.value_double - e.value) / max(abs(e.value), 1e-300),
                      DOUBLE_ROUTE_TOL, constant=e.value, expression=e.expression)
                   for e in table.entries.values()]


def sweep_checks(suites, seed, samples, points, grids):
    """Records of the inequality sweeps ``suites`` (`schema.SUITES`) at
    ``seed``, each named ``"<suite>: <record>"``: the sweep's records
    (curvature and Ricci on ``samples`` points, Kato on ``points``, the
    quadratic lemma on the grid ``grids``), then its judgments; and the
    extras of each sweep by suite.  Each stored quadratic, curvature and
    Ricci witness re-evaluates through its scalar `*_point` reference to
    1e-14; Kato's do not, since |Hess u|^2 reaches about 288 on [-1, 1]^3,
    where 1e-14 is below one ulp."""
    records, extras = [], {}
    # a job that lists both stream suites walks the 4-D stream once for both
    shared = iq.verify_curvature_ricci(samples, seed=seed) \
        if set(iq.STREAM_SUITES) <= set(suites) else {}
    for suite in suites:
        if suite == "quadratic_lemma":
            rep = iq.verify_quadratic_lemma(*grids)
            errs = [abs(iq.quadratic_lemma_point(**r.detail["config"])[k] - r.value)
                    for k, r in enumerate(rep.records[:2])]
            bad = rep.extras["q2_nonpositive_count"]
            judged = [le("max Q1/Q2 vs c0", rep.extras["max_ratio_q1_q2"] - iq.C0, 1e-12),
                      le("argmin reproduction error", max(errs), 1e-14),
                      Check("q2 positive everywhere", bad, 0.0, bad == 0)]
        elif suite == "curvature_pinch":
            rep = shared.get(suite) or iq.verify_curvature_pinch(samples, seed=seed)
            errs = [abs(iq.curvature_pinch_point(**r.detail["config"])[
                        0 if r.name.startswith("-R") else 1] - r.value)
                    for r in rep.records if "a" in r.detail["config"]]
            ratio = rep.extras["max_ratio_A2_over_negR"]
            judged = [le("curvature constraint residual",
                         rep.extras["max_constraint_residual"], 1e-12),
                      ge("near-sharp ratio >= c0 - 0.05", ratio, iq.NEAR_SHARP_RATIO),
                      le("ratio stays below c0", ratio - iq.C0, 1e-12),
                      le("argmin reproduction error", max(errs), 1e-14)]
        elif suite == "ricci_bound":
            rep = shared.get(suite) or iq.verify_ricci_bound(samples, seed=seed)
            errs = [abs(iq.ricci_point(**r.detail["config"]) - r.value) for r in rep.records]
            judged = [le("argmin reproduction error", max(errs), 1e-14)]
        else:
            rep = iq.verify_kato(points, seed=seed)
            judged = [le("xy closed form margin = 1/2",
                         abs(iq.kato_point("xy", [0.37, -0.61, 0.11]) - 0.5), 1e-12),
                      le("Laplacian of each table is zero (max |coefficient|)",
                         max((abs(c) for poly in iq.KATO_CATALOG.values()
                              for c in iq.laplacian(poly).values()), default=0), 0.0)]
        extras[suite] = rep.extras
        records += [r.prefixed(f"{suite}: ") for r in rep.records + judged]
    return records, extras


def criterion_constants():
    return constants_checks(co.build_table())


def criterion_quadratic_lemma():
    return sweep_checks(["quadratic_lemma"], iq.SEED, iq.SAMPLES, iq.KATO_POINTS,
                        iq.GRIDS)[0]


def criterion_curvature_ricci(seed=iq.SEED):
    return sweep_checks(["curvature_pinch", "ricci_bound"], seed, iq.SAMPLES,
                        iq.KATO_POINTS, iq.GRIDS)[0]


def criterion_kato(seed=iq.SEED):
    return sweep_checks(["kato"], seed, iq.SAMPLES, iq.KATO_POINTS, iq.GRIDS)[0]


# -- criterion 5: first/second variation vs oracles -------------------------------


#: noise floor of the order waiver of each variation kind: the
#: second-difference oracle has a higher one (t^4 times the fourth
#: time-derivative of the functional)
VARIATION_ORDER_FLOORS = {"first": ORDER_FLOOR_REL, "second": 5e-4}


def variation_consistency_cases():
    """All (catalog chart x catalog integrand x bump) discrepancy pairs by
    kind: ``first`` for every combination, ``second`` for the
    phi-stationary ones, where the second-variation formula applies.  Each
    case is its order record, waived at the floor of
    :data:`VARIATION_ORDER_FLOORS`, whose detail names the case and holds
    the relative discrepancy ``rel`` of its finest level.

    Each chart is sampled once per resolution, and one oracle per sample
    serves every integrand, bump and both kinds, so each perturbed
    immersion is resampled once.
    """
    cases = {"first": [], "second": []}
    for n, d, res_pair in ((2, 3, RES_2D), (3, 4, RES_3D)):
        for cname, chart in geo.catalog(n).items():
            oracles = []
            for res in res_pair:
                g = geo.sample_chart(chart, res)
                oracles.append(va.NormalOracle(
                    g, {bump: va.bump_function(g, bump) for bump in va.BUMP_NAMES}))
            for iname, integ in ig.catalog(d).items():
                forms = [va.PhiForm(o.geom, integ) for o in oracles]
                kinds = ["first", "second"] if forms[0].stationary else ["first"]
                levels = [variation_records(o, f, kinds) for o, f in zip(oracles, forms)]
                for (kind, bump), fine in levels[-1].items():
                    discs = [recs[kind, bump].detail["discrepancy"] for recs in levels]
                    cases[kind].append(order_check(
                        f"{kind} variation order [{cname} x {iname} x {bump}]", discs,
                        1e-11, fine.value, VARIATION_ORDER_FLOORS[kind], n=n, chart=cname,
                        integrand=iname, bump=bump, rel=fine.value))
    return cases


def criterion_variation():
    recs = []
    for kind, cases in variation_consistency_cases().items():
        worst_rel = max(c.detail["rel"] for c in cases)
        violations = [{**c.detail, "order": c.value} for c in cases
                      if not (c.detail["rel"] <= REL_TOL and c.passed)]
        recs.append(le(f"{kind} variation worst relative discrepancy",
                       worst_rel, REL_TOL, cases=len(cases)))
        recs.append(Check(f"{kind} variation order rule violations",
                          len(violations), 0.0, not violations,
                          {"violations": violations[:5]}))
    # isotropic reduction identities
    worst_h = 0.0
    worst_psi = 0.0
    for n, d in ((2, 3), (3, 4)):
        iso = ig.Integrand.isotropic(d)
        for chart in geo.catalog(n).values():
            g = geo.sample_chart(chart, 11)
            worst_h = max(worst_h, float(np.abs(va.PhiForm(g, iso).hphi - g.mean_curvature).max()))
            psi = iso.hessian(g.nu)
            for a in range(n):
                w = g.jac[..., a]
                worst_psi = max(worst_psi, float(np.abs(
                    np.einsum("...de,...e->...d", psi, w) - w).max()))
    recs.append(le("isotropic reduction |H_phi - tr S|", worst_h, 1e-10))
    recs.append(le("isotropic reduction |Psi w - w|", worst_psi, 1e-12))
    return recs


# -- criterion 6: vector-field identity and isoperimetric comparison --------------


def criterion_vectorfield_isoperimetric():
    recs = []
    plane0 = geo.sample_chart(geo.Hyperplane(3, offset=0.0, box=[(-1, 1)] * 3), 13)
    fields = {"position": va.VectorField(np.eye(4)),
              "constant_e1": va.VectorField(np.zeros((4, 4)), [1.0, 0, 0, 0]),
              "linear_diag": va.VectorField(np.diag([1.0, 2.0, 0.5, 1.0]))}
    for iname, integ in ig.catalog(4).items():
        form = va.PhiForm(plane0, integ)
        for fname, fld in fields.items():
            recs.append(vectorfield_identity_check(f"plane identity [{iname} x {fname}]",
                                                   form, fld))
    # refinement of the residual on curved stationary charts
    for label, chart, integ, pair in (
            ("catenoid_2", geo.catalog(2)["catenoid_2"], ig.Integrand.isotropic(3), RES_2D),
            ("catenoid_3", geo.catalog(3)["catenoid_3"], ig.Integrand.isotropic(4), RES_3D)):
        resids = []
        for res in pair:
            g = geo.sample_chart(chart, res)
            interior, boundary = va.vectorfield_first_variation(
                g, integ, va.VectorField(np.eye(g.dim)))
            resids.append(abs(interior - boundary))
        recs.append(order_check(f"{label} position-field residual order", resids, 1e-12,
                                stationary=va.PhiForm(g, integ).stationary))
    # flat-ball isoperimetric instance with closed-form sides
    s0 = 0.05
    ball = geo.sample_chart(
        geo.Hyperplane(3, offset=0.0, polar=True,
                       box=[(s0, 1.0), (0, math.pi), (0, 2 * math.pi)]), (33, 33, 32))
    iso = isoperimetric_margin_check("flat ball isoperimetric margin",
                                     va.PhiForm(ball, ig.Integrand.isotropic(4)), 1.0)
    chk = iso.detail
    lhs_exact = 4.0 * math.pi / 3.0 * (1.0 - s0**3)
    rhs_exact = SQRT2 / 3.0 * 4.0 * math.pi * (1.0 + s0**2)
    recs.append(iso)
    recs.append(le("flat ball |M| vs closed form (rel)",
                   abs(chk["area"] - lhs_exact) / lhs_exact, 1e-2))
    recs.append(le("flat ball bound vs closed form (rel)",
                   abs(chk["bound"] - rhs_exact) / rhs_exact, 1e-2))
    recs.append(Check("flat ball is phi-stationary", float(chk["stationary"]), 1.0,
                      chk["stationary"]))
    return recs


# -- criterion 7: conformal identity chain ----------------------------------------


def criterion_conformal(seed=iq.SEED):
    recs = []
    # three refinement levels; the order is taken on the finest pair (the
    # coarsest pair can sit pre-asymptotically where error terms cross)
    levels = {2: ladder(RES_2D[0], 3), 3: ladder(RES_3D[0], 3)}
    for n in (2, 3):
        for cname, chart in geo.catalog(n).items():
            recs += conformal_records(chart, levels[n], {"qform"}, cf.LAMBDA_TARGET[n],
                                      label=f" [{cname} n={n}]")
    for label, chart in (("plane", geo.Hyperplane(3, offset=1.0)),
                         ("cone", geo.catalog(3)["cone"]),
                         ("sphere_origin", geo.catalog(3)["sphere"])):
        recs += conformal_records(chart, RES_3D, {"laplace_r"}, cf.LAMBDA_TARGET[3],
                                  label=f" [{label}]")
    # distance comparison margins
    plane0 = geo.Hyperplane(2, offset=0.0, polar=True, box=[(0.5, 3.0), (0, 2 * math.pi)])
    s = np.linspace(1.0, math.e, 4001)
    ray = np.stack([s, np.zeros_like(s)], axis=-1)
    length, log_ratio, intrinsic = cf.distance_comparison_check(plane0, ray)
    recs.append(le("radial ray equality |D - log ratio|", abs(length - log_ratio), 1e-8))
    recs.append(le("radial ray intrinsic equality", abs(length - intrinsic), 1e-8))
    charts = [geo.Sphere(3, radius=1.5, center=[0.2, 0, 0, 0]),
              geo.catalog(3)["cone"], plane0]
    recs.append(distance_margin_check("random path comparison worst margin", charts,
                                      np.random.default_rng(seed), 8, 12, 80))
    # flat patch spectral estimate against the closed-form target 3/4
    g = geo.sample_chart(geo.Hyperplane(3, offset=1.0, box=[(-1.2, 1.2)] * 3), 21)
    recs.append(lambda1_target_check("flat patch lambda1 estimate vs 3/4", g, cf.deform(g),
                                     ig.Integrand.isotropic(4), cf.LAMBDA_TARGET[3]))
    # pointwise absorption step margins on the catalog
    worst_cs = math.inf
    for n in (2, 3):
        for chart in geo.catalog(n).values():
            g = geo.sample_chart(chart, 11)
            worst_cs = min(worst_cs, cf.cauchy_schwarz_step_check(g, co.BETA))
    recs.append(ge("absorption step worst margin", worst_cs, -1e-10))
    # dilation invariance of deformed lengths
    cone = geo.catalog(3)["cone"]
    t = np.linspace(0, 1, 200)
    curve = np.stack([0.5 + t, 0.9 + 0.7 * t, 1.0 + 2.0 * t], axis=-1)
    L1 = cf.curve_gtilde_length(cone, curve)
    curve2 = curve.copy()
    curve2[:, 0] *= 3.7
    L2 = cf.curve_gtilde_length(cone.dilate(3.7), curve2)
    recs.append(le("dilation invariance of deformed length", abs(L1 - L2), 1e-12))
    return recs


# -- criterion 8: warped bubble models ---------------------------------------------


def criterion_mubble():
    recs = []
    for name, model in mb.catalog().items():
        shared, sol = bubble_checks(model, mb.build_phi_h(model))
        recs += [r.prefixed(f"{name} ") for r in shared]
        lam_half = mb.lambda1_sturm(model.profile, model.T, n_grid=model.n_grid // 2 + 1)[0]
        recs.append(le(f"{name} lambda1 2x-resolution drift",
                       abs(lam_half - model.lambda1), 1e-6))
        recs.append(ge(f"{name} satisfies the distance hypothesis",
                       model.T, 5 * math.pi / math.sqrt(model.lam)))
        recs.append(le(f"{name} stationarity residual",
                       sol.stationarity_residual, 1e-5))
    # recorded counterexample: half amplitude under the Lipschitz budget
    lam_pinched = co.spectral_lambda(3, 1.0 / SQRT2, co.C0)
    witness = mb.make_model("cylinder", T=20.0, lam=lam_pinched, n_grid=501)
    prof_half = mb.build_phi_h(witness, amplitude="half")
    m_bad, cfg = mb.check_h_condition(prof_half, prof_half.lip_budget)
    recs.append(Check("half-amplitude budget counterexample margin", float(m_bad),
                      0.0, m_bad < 0.0, cfg))
    return recs


# -- criterion 9: pinching pipeline -------------------------------------------------


def criterion_pinching():
    recs = []
    for d in (3, 4):
        for name, integ in ig.catalog(d).items():
            rep = ig.analyze(integ)
            if name == "quadratic_aniso4":
                recs.append(le("aniso4 a_max equals 4", abs(rep.a_max - 4.0), 1e-9))
                recs.append(Check("aniso4 reported as pinch violation",
                                  float(rep.pinch_satisfied_scaled), 0.0,
                                  not rep.pinch_satisfied_scaled
                                  and not rep.pinch_satisfied))
            else:
                recs.append(Check(
                    f"{name} (d={d}) satisfies the pinch up to scaling",
                    rep.a_max / rep.a_min, SQRT2 + ig.PINCH_SLACK,
                    rep.pinch_satisfied_scaled))
                recs.append(ge(f"{name} (d={d}) Lambda >= 1/sqrt2",
                               rep.stability_lambda, 1.0 / SQRT2 - 1e-12))
    return recs


CRITERIA = {
    "constants": criterion_constants,
    "quadratic_lemma": criterion_quadratic_lemma,
    "curvature_ricci": criterion_curvature_ricci,
    "kato": criterion_kato,
    "variation": criterion_variation,
    "vectorfield_isoperimetric": criterion_vectorfield_isoperimetric,
    "conformal": criterion_conformal,
    "mubble": criterion_mubble,
    "pinching": criterion_pinching,
}
#: wall-time budget of each criterion in seconds
RUNTIME_BUDGETS = {"constants": 1.0, "quadratic_lemma": 30.0, "curvature_ricci": 60.0,
                   "kato": 10.0, "variation": 300.0, "vectorfield_isoperimetric": 60.0,
                   "conformal": 120.0, "mubble": 60.0, "pinching": 30.0}


def run_all(seed=iq.SEED):
    """Run every criterion; returns its records, each name prefixed with
    ``"<criterion>: "`` and each criterion's closed by the record of its
    runtime budget, then the record of the 600-s budget, and the runtime
    of each criterion in seconds.

    The inequality sweeps take the seed; everything else is deterministic
    by construction.
    """
    t0 = time.perf_counter()
    seeded = {"curvature_ricci", "kato", "conformal"}
    records = []
    runtimes = {}
    for name, fn in CRITERIA.items():
        t1 = time.perf_counter()
        recs = fn(seed=seed) if name in seeded else fn()
        elapsed = time.perf_counter() - t1
        runtimes[name] = round(elapsed, 3)
        recs.append(le("criterion runtime (s)", elapsed, RUNTIME_BUDGETS[name]))
        records += [r.prefixed(f"{name}: ") for r in recs]
    records.append(le("total runtime within 600 s",
                      round(time.perf_counter() - t0, 3), 600.0))
    return records, runtimes
