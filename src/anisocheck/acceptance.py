"""The release acceptance suite as a library of criterion checks.

Each criterion function returns a list of :class:`~anisocheck.checks.Check`;
the CLI ``all`` command and the pytest acceptance module both consume
these.  The check families that the other CLI runners share with the
criteria (variation oracles, refinement orders, random-path distance
margins, warped-bubble models) come from one builder each, below, so the
two entry points cannot drift apart.  Tolerances are fixed here, not at
call sites.

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
from .checks import ORDER_MIN, Check, ge, le, order_ok, refinement_order

SQRT2 = math.sqrt(2.0)

RES_2D = (17, 33)
RES_3D = (13, 25)
REL_TOL = 1e-3
ORDER_FLOOR_REL = 1e-4


# -- builders shared with the CLI runners ---------------------------------------


def variation_records(oracle, integrand, hphi, kinds):
    """Per-bump variation records of one oracle, keyed by (kind, bump) in
    the order of ``kinds`` ("first", "second") and BUMP_NAMES.

    ``hphi`` is aniso_mean_curvature of the oracle's geometry.  The caller
    decides stationarity, that is whether "second" is among ``kinds``.
    """
    checks = {"first": va.first_variation_check, "second": va.second_variation_check}
    recs = {}
    for kind in kinds:
        for bump in va.BUMP_NAMES:
            chk = checks[kind](oracle, integrand, bump, hphi)
            recs[kind, bump] = le(f"{kind} variation rel discrepancy [{bump}]",
                                  chk.rel_discrepancy, REL_TOL, **chk.as_dict())
    return recs


def qform_order_check(name, cgeoms, lam):
    """Refinement order of the two-way quadratic-form discrepancy on the
    centered bump, over the deformed samples ``cgeoms`` of one chart from
    coarse to fine (any iterable, so a generator samples one at a time).
    The order is taken on the finest pair; it is waived when the finest
    discrepancy relative to max(1, |derived|) sits at ORDER_FLOOR_REL."""
    discs = []
    for cg in cgeoms:
        chk = cf.qform_identity_check(cg, va.bump_function(cg.base, "centered"), lam)
        discs.append(chk.discrepancy)
    order = refinement_order(discs[-2], discs[-1], 1e-11)
    ok = order_ok(order, discs[-1] / max(1.0, abs(chk.derived)), ORDER_FLOOR_REL)
    return Check(name, order, ORDER_MIN, ok, {"discrepancies": discs})


def laplace_r_order_check(name, geoms):
    """Refinement order of the radial Laplacian identity residual over the
    samples ``geoms`` of one chart from coarse to fine (any iterable);
    taken on the finest pair."""
    resids = [geo.laplace_r_check(g) for g in geoms]
    return ge(name, refinement_order(resids[-2], resids[-1], 1e-12), ORDER_MIN,
              residuals=resids)


def distance_margin_check(name, charts, rng, batches, points, samples):
    """Worst margin of the log-distance comparison, and of its intrinsic
    variant where a chart has one, along random broken lines: per chart,
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
            c = cf.distance_comparison_check(chart, path)
            worst = min(worst, c.margin)
            if c.intrinsic_margin is not None:
                worst = min(worst, c.intrinsic_margin)
    return ge(name, worst, -1e-6)


def bubble_checks(model, eps=0.1, amplitude="sqrt-lambda"):
    """Warped-bubble records of one model: the spectral witness residual,
    the slope condition under the model's phi slope and under the
    Lipschitz budget, and the four conclusion margins of the minimizer of
    A.  Returns the records, the band profiles and the minimizer."""
    records = [le("witness residual", mb.supersolution_residual(model), 1e-6)]
    prof = mb.build_phi_h(model, eps=eps, amplitude=amplitude)
    m_model, cfg = mb.check_h_condition(prof, "model")
    m_budget, _ = mb.check_h_condition(prof, "budget")
    records.append(ge("slope condition margin (model lip)", m_model, -1e-10, **cfg))
    records.append(ge("slope condition margin (lip budget)", m_budget, -1e-10))
    sol = mb.minimize_A(model, eps=eps, amplitude=amplitude)
    concl = mb.verify_conclusions(sol)
    records += [ge("boundary area margin", concl.area_margin, -1e-8,
                   solution=sol.as_dict()),
                ge("diameter margin", concl.diameter_margin, -1e-8),
                ge("containment margin", concl.containment_margin, -1e-8),
                ge("minimality certificate", concl.minimality_slack, -1e-8)]
    return records, prof, sol


# -- criterion 1: explicit constants --------------------------------------------


def criterion_constants():
    t0 = time.perf_counter()
    recs = []
    lam = co.spectral_lambda(3, 1.0 / SQRT2, co.C0)
    lam_closed = 3.0 * (5.0 + 3.0 * SQRT2) / 56.0
    recs.append(le("lambda vs 3(5+3sqrt2)/56 (rel)",
                   abs(lam - lam_closed) / lam_closed, 1e-14))
    recs.append(le("c0 vs 1/(sqrt2 - 1/2) (rel)",
                   abs(co.C0 - 1.0 / (SQRT2 - 0.5)) / co.C0, 1e-14))
    recs.append(le("c0 approximately 1.09", abs(co.C0 - 1.09), 5e-3))
    mc = co.minimal_case_constants()
    vol_ref = (32.0 * math.pi / 3.0) ** 1.5 * math.exp(30.0 * math.pi / math.sqrt(3.0)) \
        / (6.0 * math.sqrt(math.pi))
    recs.append(le("minimal volume coefficient (rel)",
                   abs(mc.value("volume_coefficient") - vol_ref) / vol_ref, 1e-14))
    recs.append(le("minimal rho0 vs e^(-10pi/sqrt3) (rel)",
                   abs(mc.value("rho0_min_case") - math.exp(-10 * math.pi / math.sqrt(3.0)))
                   / mc.value("rho0_min_case"), 1e-14))
    recs.append(le("minimal area bound vs 32pi/3 (rel)",
                   abs(mc.value("area_bound_min_case") - 32 * math.pi / 3)
                   / (32 * math.pi / 3), 1e-14))
    recs.append(le("minimal diameter bound vs 4pi/sqrt3 (rel)",
                   abs(mc.value("diameter_bound_min_case") - 4 * math.pi / math.sqrt(3.0))
                   / (4 * math.pi / math.sqrt(3.0)), 1e-14))
    table = co.build_table()
    recs.append(le("worst expression rederivation error",
                   max(e.rederivation_error() for e in table.entries.values()), 1e-14))
    recs.append(le("lambda pipeline uses no hand-entered minimal value",
                   abs(co.spectral_lambda(3, 1.0, 1.0) - mc.value("lambda_min_case")), 0.0))
    c0, beta = co.c0_and_beta()
    recs.append(le("beta route cross-check residual",
                   abs(0.5 * 3 * (0.5 - 0.5 / beta) - lam), 1e-14))
    recs.append(le("criterion runtime (s)", time.perf_counter() - t0, 1.0))
    return recs


# -- criterion 2: quadratic form comparison sweep -------------------------------


def criterion_quadratic_lemma():
    t0 = time.perf_counter()
    rep = iq.verify_quadratic_lemma(200, 200, 720)
    recs = [r.prefixed("sweep ") for r in rep.records]
    recs.append(le("max Q1/Q2 vs c0", rep.extras["max_ratio_q1_q2"] - iq.C0, 1e-12))
    cfg = rep.records[0].detail["config"]
    m1, _, _ = iq.quadratic_lemma_point(cfg["alpha"], cfg["beta"], cfg["theta"])
    recs.append(le("argmin reproduction error", abs(m1 - rep.records[0].value), 1e-14))
    recs.append(Check("q2 positive everywhere", rep.extras["q2_nonpositive_count"], 0.0,
                      rep.extras["q2_nonpositive_count"] == 0))
    recs.append(le("criterion runtime (s)", time.perf_counter() - t0, 30.0))
    return recs


# -- criterion 3: curvature and Ricci sweeps -------------------------------------


def criterion_curvature_ricci(samples=1_000_000, seed=1234):
    t0 = time.perf_counter()
    crep = iq.verify_curvature_pinch(samples, seed=seed)
    recs = [r.prefixed("curvature ") for r in crep.records]
    recs.append(le("curvature constraint residual",
                   crep.extras["max_constraint_residual"], 1e-12))
    recs.append(ge("near-sharp ratio >= c0 - 0.05",
                   crep.extras["max_ratio_A2_over_negR"], iq.C0 - 0.05))
    recs.append(le("ratio stays below c0",
                   crep.extras["max_ratio_A2_over_negR"] - iq.C0, 1e-12))
    rrep = iq.verify_ricci_bound(samples, seed=seed)
    recs += [r.prefixed("ricci ") for r in rrep.records]
    recs.append(le("criterion runtime (s)", time.perf_counter() - t0, 60.0))
    return recs


# -- criterion 4: improved Kato spot check ----------------------------------------


def criterion_kato(points=10_000, seed=1234):
    t0 = time.perf_counter()
    rep = iq.verify_kato(points, seed=seed)
    recs = list(rep.records)
    m = iq.kato_point("xy", [0.37, -0.61, 0.11])
    recs.append(le("xy closed form margin = 1/2", abs(m - 0.5), 1e-12))
    recs.append(le("criterion runtime (s)", time.perf_counter() - t0, 10.0))
    return recs


# -- criterion 5: first/second variation vs oracles -------------------------------


def variation_consistency_cases():
    """All (catalog chart x catalog integrand x bump) discrepancy pairs by
    kind: ``first`` for every combination, ``second`` for the
    phi-stationary ones, where the second-variation formula applies.

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
                hphis = [va.aniso_mean_curvature(o.geom, integ) for o in oracles]
                kinds = ["first"]
                if va.is_phi_stationary(oracles[0].geom, integ, hphi=hphis[0]):
                    kinds.append("second")
                levels = [variation_records(o, integ, h, kinds)
                          for o, h in zip(oracles, hphis)]
                for (kind, bump), fine in levels[-1].items():
                    discs = [recs[kind, bump].detail["discrepancy"] for recs in levels]
                    order = refinement_order(discs[0], discs[1], 1e-11)
                    cases[kind].append({"n": n, "chart": cname, "integrand": iname,
                                        "bump": bump, "rel": fine.value,
                                        "order": order, "discrepancies": discs})
    return cases


def criterion_variation():
    t0 = time.perf_counter()
    recs = []
    all_cases = variation_consistency_cases()
    # the second-difference oracle has a higher noise floor (t^4 times the
    # fourth time-derivative of the functional), so its order waiver sits
    # at 5e-4 instead of 1e-4
    for kind, floor in (("first", ORDER_FLOOR_REL), ("second", 5e-4)):
        cases = all_cases[kind]
        worst_rel = max(c["rel"] for c in cases)
        violations = [c for c in cases
                      if not (c["rel"] <= REL_TOL
                              and order_ok(c["order"], c["rel"], floor))]
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
            worst_h = max(worst_h, float(np.abs(
                va.aniso_mean_curvature(g, iso) - g.mean_curvature).max()))
            psi = iso.hessian(g.nu)
            for a in range(n):
                w = g.jac[..., a]
                worst_psi = max(worst_psi, float(np.abs(
                    np.einsum("...de,...e->...d", psi, w) - w).max()))
    recs.append(le("isotropic reduction |H_phi - tr S|", worst_h, 1e-10))
    recs.append(le("isotropic reduction |Psi w - w|", worst_psi, 1e-12))
    recs.append(le("criterion runtime (s)", time.perf_counter() - t0, 300.0))
    return recs


# -- criterion 6: vector-field identity and isoperimetric comparison --------------


def criterion_vectorfield_isoperimetric():
    t0 = time.perf_counter()
    recs = []
    plane0 = geo.sample_chart(geo.Hyperplane(3, offset=0.0, box=[(-1, 1)] * 3), 13)
    fields = {"position": va.VectorField.position(),
              "constant_e1": va.VectorField.constant([1.0, 0, 0, 0]),
              "linear_diag": va.VectorField.linear(np.diag([1.0, 2.0, 0.5, 1.0]))}
    for iname, integ in ig.catalog(4).items():
        for fname, fld in fields.items():
            res, _, _, _ = va.vectorfield_first_variation(plane0, integ, fld)
            recs.append(le(f"plane identity [{iname} x {fname}]", res, 1e-6))
    # refinement of the residual on curved stationary charts
    for label, chart, integ, pair in (
            ("catenoid_2", geo.catalog(2)["catenoid_2"], ig.Integrand.isotropic(3), RES_2D),
            ("catenoid_3", geo.catalog(3)["catenoid_3"], ig.Integrand.isotropic(4), RES_3D)):
        resids = []
        for res in pair:
            g = geo.sample_chart(chart, res)
            r, interior, _, stat = va.vectorfield_first_variation(
                g, integ, va.VectorField.position())
            resids.append(r)
        order = refinement_order(resids[0], resids[1], 1e-12)
        recs.append(ge(f"{label} position-field residual order", order, ORDER_MIN,
                       residuals=resids, stationary=stat))
    # flat-ball isoperimetric instance with closed-form sides
    s0 = 0.05
    ball = geo.sample_chart(
        geo.Hyperplane(3, offset=0.0, polar=True,
                       box=[(s0, 1.0), (0, math.pi), (0, 2 * math.pi)]), (33, 33, 32))
    iso4 = ig.Integrand.isotropic(4)
    chk = va.isoperimetric_check(ball, iso4, 1.0)
    lhs_exact = 4.0 * math.pi / 3.0 * (1.0 - s0**3)
    rhs_exact = SQRT2 / 3.0 * 4.0 * math.pi * (1.0 + s0**2)
    recs.append(ge("flat ball isoperimetric margin", chk.margin, 0.0))
    recs.append(le("flat ball |M| vs closed form (rel)",
                   abs(chk.area - lhs_exact) / lhs_exact, 1e-2))
    recs.append(le("flat ball bound vs closed form (rel)",
                   abs(chk.bound - rhs_exact) / rhs_exact, 1e-2))
    recs.append(Check("flat ball is phi-stationary", float(chk.stationary), 1.0,
                      chk.stationary))
    recs.append(le("criterion runtime (s)", time.perf_counter() - t0, 60.0))
    return recs


# -- criterion 7: conformal identity chain ----------------------------------------


def criterion_conformal(seed=1234):
    t0 = time.perf_counter()
    recs = []
    lam_table = {2: 0.0, 3: 0.75}
    # three refinement levels; the order is taken on the finest pair (the
    # coarsest pair can sit pre-asymptotically where error terms cross)
    levels = {2: (17, 33, 65), 3: (13, 25, 49)}
    for n in (2, 3):
        for cname, chart in geo.catalog(n).items():
            recs.append(qform_order_check(
                f"qform identity order [{cname} n={n}]",
                (cf.deform(geo.sample_chart(chart, res)) for res in levels[n]),
                lam_table[n]))
    for label, chart in (("plane", geo.Hyperplane(3, offset=1.0)),
                         ("cone", geo.catalog(3)["cone"]),
                         ("sphere_origin", geo.catalog(3)["sphere"])):
        recs.append(laplace_r_order_check(
            f"radial Laplacian identity order [{label}]",
            (geo.sample_chart(chart, res) for res in RES_3D)))
    # distance comparison margins
    plane0 = geo.Hyperplane(2, offset=0.0, polar=True, box=[(0.5, 3.0), (0, 2 * math.pi)])
    s = np.linspace(1.0, math.e, 4001)
    ray = np.stack([s, np.zeros_like(s)], axis=-1)
    chk = cf.distance_comparison_check(plane0, ray)
    recs.append(le("radial ray equality |D - log ratio|",
                   abs(chk.length - chk.log_ratio), 1e-8))
    recs.append(le("radial ray intrinsic equality",
                   abs(chk.length - chk.intrinsic_log_ratio), 1e-8))
    charts = [geo.Sphere(3, radius=1.5, center=[0.2, 0, 0, 0]),
              geo.catalog(3)["cone"], plane0]
    recs.append(distance_margin_check("random path comparison worst margin", charts,
                                      np.random.default_rng(seed), 8, 12, 80))
    # flat patch spectral estimate against the closed-form target 3/4
    g = geo.sample_chart(geo.Hyperplane(3, offset=1.0, box=[(-1.2, 1.2)] * 3), 21)
    est = cf.lambda1_estimate(cf.deform(g), lambda_target=0.75)
    recs.append(ge("flat patch lambda1 >= 3/4 - 1e-3", est.lambda1, 0.75 - 1e-3))
    # pointwise absorption step margins on the catalog
    beta = co.c0_and_beta()[1]
    worst_cs = math.inf
    for n in (2, 3):
        for chart in geo.catalog(n).values():
            g = geo.sample_chart(chart, 11)
            worst_cs = min(worst_cs, cf.cauchy_schwarz_step_check(g, beta))
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
    recs.append(le("criterion runtime (s)", time.perf_counter() - t0, 120.0))
    return recs


# -- criterion 8: warped bubble models ---------------------------------------------


def criterion_mubble():
    t0 = time.perf_counter()
    recs = []
    for name, model in mb.catalog().items():
        shared, _, sol = bubble_checks(model)
        recs += [r.prefixed(f"{name} ") for r in shared]
        lam_half, _, _ = mb.lambda1_sturm(model.name, model.params, model.T,
                                          n_grid=model.n_grid // 2 + 1)
        recs.append(le(f"{name} lambda1 2x-resolution drift",
                       abs(lam_half - model.lambda1), 1e-6))
        recs.append(ge(f"{name} satisfies the distance hypothesis",
                       model.T, 5 * math.pi / math.sqrt(model.lam)))
        recs.append(le(f"{name} stationarity residual",
                       sol.stationarity_residual, 1e-5))
    # recorded counterexample: half amplitude under the Lipschitz budget
    lam_pinched = co.spectral_lambda(3, 1.0 / SQRT2, co.C0)
    witness = mb.make_model("cylinder", T=20.0, lam=lam_pinched, n_grid=501)
    prof_half = mb.build_phi_h(witness, eps=0.1, amplitude="half")
    m_bad, cfg = mb.check_h_condition(prof_half, "budget")
    recs.append(Check("half-amplitude budget counterexample margin", float(m_bad),
                      0.0, m_bad < 0.0, cfg))
    recs.append(le("criterion runtime (s)", time.perf_counter() - t0, 60.0))
    return recs


# -- criterion 9: pinching pipeline -------------------------------------------------


def criterion_pinching():
    t0 = time.perf_counter()
    recs = []
    for d in (3, 4):
        for name, integ in ig.catalog(d).items():
            rep = ig.analyze(integ, 17)
            if name == "quadratic_aniso4":
                recs.append(le("aniso4 a_max equals 4", abs(rep.a_max - 4.0), 1e-9))
                recs.append(Check("aniso4 reported as pinch violation",
                                  float(rep.pinch_satisfied_scaled), 0.0,
                                  not rep.pinch_satisfied_scaled
                                  and not rep.pinch_satisfied))
            else:
                recs.append(Check(
                    f"{name} (d={d}) satisfies the pinch up to scaling",
                    rep.a_max / rep.a_min, SQRT2 + 1e-9, rep.pinch_satisfied_scaled))
                recs.append(ge(f"{name} (d={d}) Lambda >= 1/sqrt2",
                               rep.stability_lambda, 1.0 / SQRT2 - 1e-12))
    recs.append(le("criterion runtime (s)", time.perf_counter() - t0, 30.0))
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


def run_all(seed=1234):
    """Run every criterion; returns its records, each name prefixed with
    ``"<criterion>: "`` and followed by the record of the 600-s budget,
    and the runtime of each criterion in seconds.

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
        runtimes[name] = round(time.perf_counter() - t1, 3)
        records += [r.prefixed(f"{name}: ") for r in recs]
    records.append(le("total runtime within 600 s",
                      round(time.perf_counter() - t0, 3), 600.0))
    return records, runtimes
