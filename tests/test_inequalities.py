import sys
import threading
import time

import numpy as np
import pytest

from anisocheck import inequalities as iq
from anisocheck import integrand as ig
from anisocheck import schema as sch

SQRT2 = np.sqrt(2.0)


def passed(rep):
    return all(r.passed for r in rep.records)


def worst_margin(rep):
    return min(r.value for r in rep.records)


def test_c0_closed_form():
    assert iq.C0 == pytest.approx(1.0 / (SQRT2 - 0.5), abs=1e-15)
    assert abs(iq.C0 - 1.09) < 5e-3
    assert 1.0 / (1.0 - iq.C1_MAX) == pytest.approx(iq.C0, abs=1e-15)


def test_quadratic_lemma_equal_coefficients():
    # alpha = beta = 1 means Q1 = Q2 + (k1 + k2 - k1 - k2)^2 ... margin is
    # (c0 - 1) Q2 > 0 on the whole circle
    for theta in np.linspace(0.0, 2 * np.pi, 37):
        m1, m2, ratio = iq.quadratic_lemma_point(1.0, 1.0, theta)
        assert m1 > 0.0
        assert ratio <= iq.C0


def test_quadratic_lemma_sweep_small():
    rep = iq.verify_quadratic_lemma(50, 50, 180)
    assert passed(rep)
    assert worst_margin(rep) >= -1e-10
    assert rep.extras["q2_nonpositive_count"] == 0
    assert rep.extras["max_ratio_q1_q2"] <= iq.C0 + 1e-12


def test_quadratic_lemma_argmin_reproducible():
    rep = iq.verify_quadratic_lemma(50, 50, 180)
    for rec in rep.records[:2]:
        cfg = rec.detail["config"]
        m1, m2, _ = iq.quadratic_lemma_point(cfg["alpha"], cfg["beta"], cfg["theta"])
        stored = rec.value
        recomputed = m1 if "c0*Q2" in rec.name else m2
        assert abs(recomputed - stored) <= 1e-14


def test_quadratic_lemma_symmetries():
    rng = np.random.default_rng(9)
    for _ in range(100):
        a = 2**-0.5 + rng.random() * (1 - 2**-0.5)
        b = a + rng.random() * (1 - a)
        th = rng.random() * 2 * np.pi
        m1, m2, _ = iq.quadratic_lemma_point(a, b, th)
        m1f, m2f, _ = iq.quadratic_lemma_point(a, b, th + np.pi)  # (k1,k2) -> -(k1,k2)
        assert m1f == pytest.approx(m1, abs=1e-13)
        assert m2f == pytest.approx(m2, abs=1e-13)
        # simultaneous scaling of the coefficient triple leaves margins fixed
        s = 0.5 + rng.random()
        m1s, m2s, _ = iq.quadratic_lemma_point(s * a / (s * 1.0), s * b / (s * 1.0), th)
        assert m1s == pytest.approx(m1, abs=1e-12)
        assert m2s == pytest.approx(m2, abs=1e-12)


def test_quadratic_lemma_resolution_stability():
    worst_a = worst_margin(iq.verify_quadratic_lemma(50, 50, 180))
    worst_b = worst_margin(iq.verify_quadratic_lemma(100, 100, 360))
    assert abs(worst_a - worst_b) <= 1e-3


def test_curvature_pinch_minimal_witness():
    # all coefficients equal: the constraint is sum k = 0, so -R = |A|^2 = 1
    mr, m2, A2, cons = iq.curvature_pinch_point([1.0, 1.0, 1.0], 0.7)
    assert cons <= 1e-15
    assert mr == pytest.approx(1.0, abs=1e-12)
    assert A2 == pytest.approx(1.0, abs=1e-12)
    assert m2 == pytest.approx(iq.C0 - 1.0, abs=1e-12)
    k = np.array([1.0, 1.0, -2.0]) / np.sqrt(6.0)
    s = k.sum()
    assert abs(s) <= 1e-15 and (s * s - k @ k) == pytest.approx(-1.0, abs=1e-14)


def test_curvature_pinch_sweep():
    rep = iq.verify_curvature_pinch(100_000, seed=77)
    assert passed(rep)
    assert rep.extras["max_constraint_residual"] <= 1e-12
    assert rep.extras["near_sharp"]
    assert rep.extras["max_ratio_A2_over_negR"] <= iq.C0 + 1e-12
    assert rep.extras["max_ratio_A2_over_negR"] >= iq.C0 - 0.05


def test_ricci_equality_witness_and_sweep():
    k = np.array([-SQRT2, 1.0, 1.0]) / 2.0
    assert np.linalg.norm(k) == pytest.approx(1.0, abs=1e-15)
    assert iq.ricci_point(k, [1.0, 0.0, 0.0]) == pytest.approx(0.0, abs=1e-14)
    assert iq.ricci_point([1 / np.sqrt(3)] * 3, [0.0, 1.0, 0.0]) > 0.5
    rep = iq.verify_ricci_bound(100_000, seed=77)
    assert passed(rep) and worst_margin(rep) >= -1e-10


def test_kato_catalog():
    rep = iq.verify_kato(5_000, seed=77)
    assert passed(rep)
    assert iq.kato_point("linear_x", [0.2, 0.3, 0.4]) == pytest.approx(0.0, abs=1e-15)
    assert iq.kato_point("xy", [0.9, -0.4, 0.1]) == pytest.approx(0.5, abs=1e-14)
    assert iq.kato_point("x2_minus_y2", [0.5, 0.5, 0.0]) == pytest.approx(2.0, abs=1e-13)
    assert iq.kato_point("xy", [0.0, 0.0, 0.3]) is None  # critical point skipped


#: every coefficient table: the Kato harmonics, and each integrand profile in
#: the ambient dimensions an integrand job admits
TABLES = {**iq.KATO_CATALOG,
          **{f"{name}@{d}": build(d) for name, build in sorted(ig.PROFILES.items())
             for d in range(3, sch.MAX_DIM + 1)}}


@pytest.mark.parametrize("name", sorted(TABLES))
def test_kato_tables_differentiate_by_finite_differences(name):
    # the power rule against the fourth-order differences of the table's
    # own value and gradient at a seeded point
    poly = TABLES[name]
    x = np.random.default_rng(5).uniform(-1.0, 1.0, len(next(iter(poly))))
    grad = iq.poly_gradient(poly, x)
    fd = ig.fd_gradient(lambda q: iq.poly_value(poly, q), x)
    assert np.abs(fd - grad).max() <= 1e-8
    fd = ig.fd_gradient(lambda q: iq.poly_gradient(poly, q), x)
    assert np.abs(fd - iq.poly_hessian(poly, x)).max() <= 1e-8


def test_table_powers_are_products_of_lower_powers():
    # p^e is (p^(e-1)) p, as quartic_saddle's v_i^4 terms need, not libm pow,
    # whose correctly rounded x^3 and x^4 differ in the last bits
    p = np.random.default_rng(9).uniform(-1.0, 1.0, (1000, 3))
    x, y = p[:, 0], p[:, 1]
    assert np.array_equal(iq.poly_value({(4, 0, 0): 1.0}, p), ((x * x) * x) * x)
    assert np.array_equal(iq.poly_value({(3, 2, 0): 2.0}, p), (2.0 * ((x * x) * x)) * (y * y))


def test_curvature_and_ricci_argmin_reproducible():
    crep = iq.verify_curvature_pinch(50_000, seed=42)
    for rec in crep.records:
        cfg = rec.detail["config"]
        if "a" not in cfg:
            continue
        mr, m2, _, _ = iq.curvature_pinch_point(cfg["a"], cfg["psi"])
        stored = rec.value
        recomputed = mr if rec.name.startswith("-R") else m2
        assert abs(recomputed - stored) <= 1e-14, rec.name
    rrep = iq.verify_ricci_bound(50_000, seed=42)
    for rec in rrep.records:
        cfg = rec.detail["config"]
        margin = iq.ricci_point(cfg["k"], cfg["y"])
        assert abs(margin - rec.value) <= 1e-14, rec.name
    krep = iq.verify_kato(2_000, seed=42)
    for rec in krep.records:
        cfg = rec.detail["config"]
        margin = iq.kato_point(cfg["poly"], cfg["point"])
        assert abs(margin - rec.value) <= 1e-14, rec.name


def test_sweeps_deterministic_under_seed():
    a = iq.verify_curvature_pinch(50_000, seed=123)
    b = iq.verify_curvature_pinch(50_000, seed=123)
    for ra, rb in zip(a.records, b.records):
        assert ra.value == rb.value and ra.detail == rb.detail
    c = iq.verify_ricci_bound(50_000, seed=124)
    d = iq.verify_ricci_bound(50_000, seed=124)
    assert [r.value for r in c.records] == [r.value for r in d.records]


def test_seed_changes_margins_but_not_verdicts():
    a = iq.verify_ricci_bound(50_000, seed=1)
    b = iq.verify_ricci_bound(50_000, seed=2)
    assert passed(a) and passed(b)
    assert abs(worst_margin(a) - worst_margin(b)) <= 1e-3


def test_halton_deterministic_and_in_unit_cube():
    pts = iq.halton(1000, 4)
    assert pts.shape == (1000, 4)
    assert pts.min() >= 0.0 and pts.max() < 1.0
    assert np.array_equal(pts, iq.halton(1000, 4))


# -- bit-exact pins ------------------------------------------------------------------
#
# The sweeps hoist and tabulate terms but keep every floating-point operation
# in its order, so their output is pinned repr-exactly.  The literals were
# produced by the row-by-row kernels (one full numpy expression per alpha,
# digit-by-digit Halton sums) under numpy 2.4 on x86-64; numpy builds whose
# cos/sin or einsum round differently change the last bits.

GOLDEN = {
    "quadratic_lemma": {"sample_count": 59040,
     "records": [("c0*Q2 - Q1",
                  -4.440892098500626e-16,
                  -1e-10,
                  True,
                  {"config": {"alpha": 0.7071067811865475,
                              "beta": 0.7071067811865475,
                              "theta": 0.7853981633974483}}),
                 ("(3/2 - sqrt2) - (Q1-Q2)/Q1",
                  -2.220446049250313e-16,
                  -1e-10,
                  True,
                  {"config": {"alpha": 0.7071067811865475,
                              "beta": 0.7071067811865475,
                              "theta": 0.7853981633974483}}),
                 ("identity 1/(1-c1_max) = c0",
                  -0.0,
                  -1e-10,
                  True,
                  {"config": {"residual": np.float64(0.0)}})],
     "extras": {"max_ratio_q1_q2": 1.0938363213560545,
                "max_ratio_config": {"alpha": 0.7071067811865475,
                                     "beta": 0.7071067811865475,
                                     "theta": 0.7853981633974483},
                "q2_nonpositive_count": 0,
                "c0": np.float64(1.0938363213560542)}},
    "curvature_pinch": {"sample_count": 20000,
     "records": [("-R >= 0 [halton]",
                  0.9274122255686273,
                  -1e-10,
                  True,
                  {"config": {"a": [1.0127738470944707,
                                    1.0318911305942293,
                                    1.4116095586545632],
                              "psi": 5.478674402137016}}),
                 ("c0*(-R) - |A|^2 [halton]",
                  0.0144371771966183,
                  -1e-10,
                  True,
                  {"config": {"a": [1.0127738470944707,
                                    1.0318911305942293,
                                    1.4116095586545632],
                              "psi": 5.478674402137016}}),
                 ("-R >= 0 [prng]",
                  0.9274950310644159,
                  -1e-10,
                  True,
                  {"config": {"a": [1.0085696335929069,
                                    1.0461299983623884,
                                    1.4121843713663713],
                              "psi": 5.640971927699846}}),
                 ("c0*(-R) - |A|^2 [prng]",
                  0.014527752855519882,
                  -1e-10,
                  True,
                  {"config": {"a": [1.0085696335929069,
                                    1.0461299983623884,
                                    1.4121843713663713],
                              "psi": 5.640971927699846}}),
                 ("|A|^2 + R >= 0",
                  0.0,
                  -1e-10,
                  True,
                  {"config": {"identity": "(sum k)^2"}}),
                 ("c0*(-R) - |A|^2 [corner (1.0, 1.0, 1.0)]",
                  0.09383632135605413,
                  -1e-10,
                  True,
                  {"config": {"a": [1.0, 1.0, 1.0], "psi": 0.0015707963267948964}}),
                 ("c0*(-R) - |A|^2 [corner (1.0, 1.0, 1.414214)]",
                  1.6323231655235304e-10,
                  -1e-10,
                  True,
                  {"config": {"a": [1.0, 1.0, np.float64(1.4142135623730951)],
                              "psi": 2.526154652751553}}),
                 ("c0*(-R) - |A|^2 [corner (1.0, 1.414214, 1.414214)]",
                  0.01876726427121067,
                  -1e-10,
                  True,
                  {"config": {"a": [1.0,
                                    np.float64(1.4142135623730951),
                                    np.float64(1.4142135623730951)],
                              "psi": 4.71238898038469}}),
                 ("c0*(-R) - |A|^2 [corner (1.414214, 1.414214, 1.414214)]",
                  0.09383632135605413,
                  -1e-10,
                  True,
                  {"config": {"a": [np.float64(1.4142135623730951),
                                    np.float64(1.4142135623730951),
                                    np.float64(1.4142135623730951)],
                              "psi": 0.010367255756846317}})],
     "extras": {"max_ratio_A2_over_negR": 1.0938363211775048,
                "max_ratio_config": {"a": [1.0, 1.0, np.float64(1.4142135623730951)],
                                     "psi": 2.526154652751553},
                "near_sharp": True,
                "max_constraint_residual": 4.440892098500626e-16,
                "c0": np.float64(1.0938363213560542)}},
    "ricci_bound": {"sample_count": 20000,
     "records": [("Ric + |A|^2/sqrt2 [halton]",
                  0.009497846567372958,
                  -1e-10,
                  True,
                  {"config": {"k": [-0.41568058215952935,
                                    0.7444758037721144,
                                    -0.5224609375],
                              "y": [-0.03073670415632349,
                                    0.999297543986578,
                                    0.021439999999999904]}}),
                 ("Ric + |A|^2/sqrt2 [prng]",
                  0.006341869122414634,
                  -1e-10,
                  True,
                  {"config": {"k": [0.4887201515534437,
                                    0.47381615869185123,
                                    -0.7325645781964054],
                              "y": [0.02453837380772675,
                                    0.08243640080521453,
                                    0.9962941874934101]}}),
                 ("equality witness k=(-sqrt2,1,1)/2, y=e1",
                  -1.1102230246251565e-16,
                  -1e-10,
                  True,
                  {"config": {"k": [-0.7071067811865476, 0.5, 0.5],
                              "y": [1.0, 0.0, 0.0]}})],
     "extras": {"equality_witness_margin": -1.1102230246251565e-16}},
    "kato": {"sample_count": 12000,
     "records": [("kato[linear_x]",
                  0.0,
                  -1e-10,
                  True,
                  {"config": {"poly": "linear_x",
                              "point": [-0.6875,
                                        0.4814814814814814,
                                        -0.6799999999999999]}}),
                 ("kato[re_z3]",
                  0.0029700764859799077,
                  -1e-10,
                  True,
                  {"config": {"poly": "re_z3",
                              "point": [0.005859375,
                                        -0.011431184270690453,
                                        0.8438400000000001]}}),
                 ("kato[x2_minus_y2]",
                  1.9999999999999991,
                  -1e-10,
                  True,
                  {"config": {"poly": "x2_minus_y2",
                              "point": [0.3125, -0.6296296296296297, -0.28]}}),
                 ("kato[xy]",
                  0.4999999999999998,
                  -1e-10,
                  True,
                  {"config": {"poly": "xy",
                              "point": [0.3125, -0.6296296296296297, -0.28]}}),
                 ("kato[xyz]",
                  8.628038447477948e-05,
                  -1e-10,
                  True,
                  {"config": {"poly": "xyz",
                              "point": [0.7319070546477038,
                                        0.7401845793162523,
                                        -0.7323637363298141]}}),
                 ("kato[z_x2_minus_y2]",
                  0.003430880915415102,
                  -1e-10,
                  True,
                  {"config": {"poly": "z_x2_minus_y2",
                              "point": [0.01953125,
                                        -0.355281207133059,
                                        -0.24160000000000004]}})],
     "extras": {"skipped_points": {"linear_x": 0,
                                   "re_z3": 0,
                                   "x2_minus_y2": 0,
                                   "xy": 0,
                                   "xyz": 0,
                                   "z_x2_minus_y2": 0}}},
}


def _sweep_outputs(rep):
    return {"sample_count": rep.sample_count,
            "records": [(r.name, r.value, r.tolerance, r.passed, r.detail)
                        for r in rep.records],
            "extras": rep.extras}


PINNED = [
    ("quadratic_lemma", lambda: iq.verify_quadratic_lemma(40, 40, 72)),
    ("curvature_pinch", lambda: iq.verify_curvature_pinch(20_000, seed=1234)),
    ("ricci_bound", lambda: iq.verify_ricci_bound(20_000, seed=1234)),
    ("kato", lambda: iq.verify_kato(2_000, seed=1234)),
]


@pytest.mark.parametrize("suite, sweep", PINNED)
def test_sweep_records_are_pinned(suite, sweep):
    assert repr(_sweep_outputs(sweep())) == repr(GOLDEN[suite])


@pytest.mark.parametrize("block", [7, 4096, 10_000])
@pytest.mark.parametrize("suite, sweep", PINNED)
def test_sweep_records_are_pinned_in_any_block_size(monkeypatch, suite, sweep, block):
    # a stream of 10 000 points in blocks with ragged tails, and one block
    # of the whole stream, on a pool of one to three workers; the quadratic
    # grid in one beta row per block up to a whole alpha row per block
    monkeypatch.setattr(iq, "_BLOCK", block)
    monkeypatch.setattr(iq, "_STREAM_BLOCK", block)
    for workers in (1, 2, 3):
        monkeypatch.setattr(iq, "_workers", lambda: workers)
        assert repr(_sweep_outputs(sweep())) == repr(GOLDEN[suite]), workers


@pytest.mark.parametrize("block", [1000, 10_000])
def test_shared_stream_pass_is_pinned(monkeypatch, block):
    # one walk of the stream for both sweeps gives each the records of its
    # own sweep, at any block size and worker count, also with more workers
    # than cores and threads switched every microsecond
    monkeypatch.setattr(iq, "_STREAM_BLOCK", block)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (1, 2, 3):
            monkeypatch.setattr(iq, "_workers", lambda: workers)
            reps = iq.verify_curvature_ricci(20_000, seed=1234)
            assert list(reps) == list(iq.STREAM_SUITES)
            for suite, rep in reps.items():
                assert repr(_sweep_outputs(rep)) == repr(GOLDEN[suite]), (suite, workers)
    finally:
        sys.setswitchinterval(interval)


def test_stream_blocks_concatenate_to_the_one_call_stream(monkeypatch):
    # blocks of 5000 Halton points: the first builds smaller digit tables
    # than one call, and one straddles index 2^14 = _HALTON_TABLE, where the
    # base-2 table's high digit changes; the PRNG blocks are successive draws
    monkeypatch.setattr(iq, "_BLOCK", 5000)
    count = 40_001
    streams = {label: np.concatenate(list(blocks))
               for label, blocks in iq._sample_streams(count, len(iq._PRIMES), 7)}
    halton = iq.halton(count // 2, len(iq._PRIMES))
    assert np.array_equal(streams["halton"].view(np.int64), halton.view(np.int64))
    prng = np.random.default_rng(7).random((count - count // 2, len(iq._PRIMES)))
    assert np.array_equal(streams["prng"].view(np.int64), prng.view(np.int64))


def test_a_nan_margin_in_a_later_stream_block_is_reported(monkeypatch):
    # Halton point 2500 gets a NaN fourth coordinate (the curvature angle,
    # a Ricci direction), so its margins are NaN; in blocks of 1000 it lies
    # in the third block, and the records of each sweep alone and of the
    # shared pass, on a pool of one to three workers, report it as one
    # argmin over the whole stream does, so they fail
    halton, bad = iq.halton, 20 + 2500

    def poisoned(count, dims, skip=20):
        pts = halton(count, dims, skip)
        if skip <= bad < skip + count:
            pts[bad - skip, 3] = np.nan
        return pts

    monkeypatch.setattr(iq, "halton", poisoned)
    sweeps = {"curvature_pinch": (iq.verify_curvature_pinch, "-R >= 0 [halton]"),
              "ricci_bound": (iq.verify_ricci_bound, "Ric + |A|^2/sqrt2 [halton]")}
    for suite, (sweep, name) in sweeps.items():
        outputs = set()
        for block, workers in ((1000, 1), (1000, 2), (1000, 3), (10_000, 1)):
            monkeypatch.setattr(iq, "_STREAM_BLOCK", block)
            monkeypatch.setattr(iq, "_workers", lambda: workers)
            for rep in (sweep(20_000, seed=5), iq.verify_curvature_ricci(20_000, seed=5)[suite]):
                outputs.add(repr(_sweep_outputs(rep)))
                rec = next(r for r in rep.records if r.name == name)
                assert np.isnan(rec.value) and not rec.passed
        assert len(outputs) == 1


def test_block_pool_folds_in_block_order_one_block_per_worker_ahead(monkeypatch):
    # kernels that finish out of order still fold in block order, which the
    # first-occurrence rule of ties needs, and a block is built only when at
    # most one block per worker is unfolded, counting it
    for workers in (1, 2, 3):
        monkeypatch.setattr(iq, "_workers", lambda: workers)
        built, folded = [], []

        def blocks():
            for k in range(40):
                built.append(k)
                assert len(built) - len(folded) <= workers
                yield k

        def kernel(k):
            time.sleep(0.001 * (k * 7 % 5))
            return k

        iq._map_blocks(kernel, blocks(), folded.append)
        assert folded == list(range(40)), workers


def test_a_raising_block_kernel_ends_the_sweep_and_its_pool(monkeypatch):
    # the pool's kernel raises on the fourth Halton block: the sweep raises
    # that exception, builds at most one block per worker past it, starts
    # no kernel of a block it cancelled, and joins every thread of its pool
    halton, kernel = iq.halton, iq._cos_sin
    err = RuntimeError("block 3")
    monkeypatch.setattr(iq, "_STREAM_BLOCK", 1200)
    for workers in (1, 2, 3):
        built, started = [], []

        def building(count, dims, skip=20):
            built.append(halton(count, dims, skip))
            return built[-1]

        def failing(block):
            started.append(block)
            if len(built) > 3 and block[0] is built[3]:
                raise err
            return kernel(block)

        monkeypatch.setattr(iq, "halton", building)
        monkeypatch.setattr(iq, "_cos_sin", failing)
        monkeypatch.setattr(iq, "_workers", lambda: workers)
        threads = threading.active_count()
        with pytest.raises(RuntimeError) as raised:
            iq.verify_curvature_ricci(120_000, seed=5)
        assert raised.value is err
        assert threading.active_count() == threads
        assert 4 <= len(built) <= 4 + workers and len(started) <= len(built)


@pytest.mark.parametrize("sweep, count, mib", [
    (iq.verify_curvature_pinch, 10**6, 8),
    (iq.verify_ricci_bound, 10**6, 8),
    (iq.verify_kato, 200_000, 16),
    (iq.verify_curvature_ricci, 10**6, 8),
])
def test_streamed_sweep_memory_is_constant_in_the_sample_count(sweep, count, mib,
                                                              traced_peak):
    # whole-stream arrays took a tracemalloc peak of 69 and 65 MiB for the
    # curvature and Ricci sweeps at 10^6 samples and of 51 MiB for Kato at
    # 2 x 10^5 points, growing linearly; Kato's blocks of _BLOCK points take
    # about 10 MiB at any count, and the blocks of _STREAM_BLOCK points, one
    # per worker in flight, about 4, 2 and 2.5 MiB for the curvature sweep
    # (its corner pass), the Ricci sweep and the shared pass
    assert traced_peak(lambda: sweep(count)) < mib * 2**20


@pytest.mark.parametrize("grids", [(2, 1000, 5000), iq.GRIDS])
def test_quadratic_sweep_memory_is_constant_in_the_grid(grids, traced_peak):
    # tabulated beta terms, two (n_beta, n_angle) arrays, took a tracemalloc
    # peak of 114.6 MiB at (2, 1000, 5000); the floors in chunks of _BLOCK
    # rows and the kernel's buffers of _BLOCK points take 1.7 and 4.7 MiB
    assert traced_peak(lambda: iq.verify_quadratic_lemma(*grids)) < 8 * 2**20


def test_quadratic_sweep_runs_the_kernel_on_few_rows(monkeypatch):
    # of the 20 100 rows beta >= alpha at GRIDS the floors keep only the
    # corner alpha = beta = 1/sqrt2, which the kernel sweeps twice: for the
    # thresholds and in grid order
    kernel, rows = iq._quadratic_block, []

    def counting(a, b, *args):
        rows.append(b.size)
        return kernel(a, b, *args)

    monkeypatch.setattr(iq, "_quadratic_block", counting)
    assert passed(iq.verify_quadratic_lemma(*iq.GRIDS))
    assert sum(rows) <= 10


def test_quadratic_sweep_evaluates_each_rows_floors_once(monkeypatch):
    # the floors of a row are three 2x2 eigenvalues (c0 B2 - B1, L^-1 B2 L^-T
    # and B2), each evaluated once on each of the 20 100 rows beta >= alpha
    # at GRIDS; a threshold pre-pass that recomputes two of them reads 5
    lambda_min, entries = iq._lambda_min, [0]

    def counting(p, q, r):
        value = lambda_min(p, q, r)
        entries[0] += np.size(value)
        return value

    monkeypatch.setattr(iq, "_lambda_min", counting)
    assert passed(iq.verify_quadratic_lemma(*iq.GRIDS))
    assert entries[0] == 3 * 20_100


def _radical_inverse(index, base):
    """Scalar reference: integer digits, lowest first, summed left to right."""
    f, denom = 0.0, 1.0
    while index:
        denom *= base
        index, digit = divmod(index, base)
        f += digit / denom
    return f


@pytest.mark.parametrize("count, skip", [(20_000, 20), (2_000, 123_456_789),
                                         (300, 2**40 + 12_345)])
def test_halton_matches_scalar_radical_inverse(count, skip):
    pts = iq.halton(count, len(iq._PRIMES), skip=skip)
    ref = np.array([[_radical_inverse(skip + i, b) for b in iq._PRIMES]
                    for i in range(count)])
    assert np.array_equal(pts.view(np.int64), ref.view(np.int64))


@pytest.mark.parametrize("block", [3, 48, 1 << 15])
@pytest.mark.parametrize("alphas, betas", [
    # reaches alpha, beta < 0, where Q2 <= 0 occurs
    (np.linspace(-0.5, 1.0, 9), np.linspace(-0.5, 1.0, 11)),
    # identical rows, and theta -> theta + pi repeats every value: ties
    # within and across blocks, where the first occurrence must win
    (np.full(3, 0.8), np.full(4, 0.8)),
    # beta = 1e200 overflows 1 + beta^2: at theta = 0, Q1 = inf * 0 is NaN
    # while Q2 = 2 alpha stays positive, so all three margins are NaN in the
    # last beta row (a later block), and NaN must win as in one argmin
    (np.array([0.8, 0.9]), np.array([0.8, 0.9, 1e200])),
])
def test_quadratic_sweep_matches_full_grid_reference(monkeypatch, block, alphas, betas):
    # swept in chunks of three rows (one row per kernel block, thresholds
    # that tighten chunk by chunk), in blocks of two rows and in whole grids
    monkeypatch.setattr(iq, "_BLOCK", block)
    thetas = np.linspace(0.0, 2.0 * np.pi, 24, endpoint=False)
    coss, sins = np.cos(thetas), np.sin(thetas)
    a, b = alphas[:, None, None], betas[None, :, None]
    k1, k2 = coss[None, None, :], sins[None, None, :]
    with np.errstate(all="ignore"):
        m1, m2, r = iq.quadratic_lemma_point(a, b, thetas[None, None, :])
        q2 = 2.0 * a * k1 * k1 + 2.0 * (a + b - 1.0) * k1 * k2 + 2.0 * b * k2 * k2
        swept = iq._quadratic_sweep(alphas, betas, coss, sins)
    keep = (b >= a) & (q2 > 0.0)
    expected = []
    for arr, fill, pick in ((m1, np.inf, np.argmin), (m2, np.inf, np.argmin),
                            (r, -np.inf, np.argmax)):
        masked = np.where(keep, arr, fill)
        f = int(pick(masked))
        expected += [float(masked.flat[f]), *np.unravel_index(f, masked.shape)]
    expected.append(int(np.sum((b >= a) & ~keep)))
    # equal element by element, a NaN equal to a NaN
    np.testing.assert_equal(swept, tuple(expected))


def test_curvature_and_ricci_kernels_match_stacked_reference():
    # each sample swept alone gives its own margins, compared bit for bit
    # with the stacked (n, 3) evaluation of the whole batch
    rng = np.random.default_rng(11)
    n = 400
    aa = 1.0 + (SQRT2 - 1.0) * np.sort(rng.random((n, 3)), axis=1)
    psis = 2.0 * np.pi * rng.random(n)
    b1 = np.stack([np.zeros(n), aa[:, 2], -aa[:, 1]], axis=-1)
    b1 /= np.linalg.norm(b1, axis=-1)[:, None]
    b2 = np.cross(aa, b1)
    b2 /= np.linalg.norm(b2, axis=-1)[:, None]
    k = np.cos(psis)[:, None] * b1 + np.sin(psis)[:, None] * b2
    A2 = np.einsum("pi,pi->p", k, k)
    s = k.sum(axis=1)
    R = s * s - A2
    cons = np.abs(np.einsum("pi,pi->p", aa, k))
    ks = rng.normal(size=(n, 3))
    ys = rng.normal(size=(n, 3))
    sk = ks.sum(axis=1)
    ric = np.einsum("pi,pi->p", ks * (sk[:, None] - ks), ys * ys)
    ricci = ric + np.einsum("pi,pi->p", ks, ks) / SQRT2
    for p in range(n):
        mR, _, m2, _, ratio, _, c = iq._curvature_sweep(
            tuple(aa[p:p + 1, i] for i in range(3)), np.cos(psis[p:p + 1]),
            np.sin(psis[p:p + 1]))
        assert (mR, m2, ratio, c) == (-R[p], -iq.C0 * R[p] - A2[p], A2[p] / -R[p],
                                      cons[p]), p
        worst, _ = iq._ricci_sweep(tuple(ks[p:p + 1, i] for i in range(3)),
                                   tuple(ys[p:p + 1, i] for i in range(3)))
        assert worst == ricci[p], p


def _random_quadratic_grid(rng):
    """A small (alphas, betas) grid: values in [-0.5, 1.5] drawn from a pool
    of five (so rows repeat), betas ascending, at times a near-overflow
    +-1e154 or the 1e200 row of the reference test."""
    pool = rng.uniform(-0.5, 1.5, 5)
    alphas = rng.choice(pool, rng.integers(1, 6))
    betas = np.sort(np.append(rng.choice(pool, rng.integers(1, 7)), alphas.max()))
    extreme = rng.choice([0.0, 1e154, -1e154, 1e200], p=[0.85, 0.05, 0.05, 0.05])
    if extreme > 0.0:
        betas = np.append(betas, extreme)
    elif extreme < 0.0:
        alphas = np.append(alphas, extreme)
    return alphas, betas


def test_quadratic_floors_bound_the_kernel_and_pruning_keeps_the_full_grid(monkeypatch):
    # on every row of 300 seeded grids each floor less its slack lies at or
    # below the kernel's own minimum of that quantity over the angle grid
    # (and the cap plus its slack at or above the largest Q1/Q2), and the
    # pruned sweep equals the full-grid reference in chunks of three rows,
    # in blocks of two rows and in whole grids.  The second margin is
    # c1_max - 1 + Q2/Q1, so it and Q1/Q2 peak at the same point but for
    # rounding: dropping either of their skip conditions alone leaves the
    # sweep exact, dropping both fails here
    thetas = np.linspace(0.0, 2.0 * np.pi, 24, endpoint=False)
    coss, sins = np.cos(thetas), np.sin(thetas)
    k1, k2 = coss[None, :], sins[None, :]
    eta = float(np.max(np.abs(coss * coss + sins * sins - 1.0))) + 4.0 * iq._U
    kernel, swept_rows, finite_rows, all_rows = iq._quadratic_block, [0], 0, 0

    def counting(a, b, *args):
        swept_rows[0] += b.size
        return kernel(a, b, *args)

    rng = np.random.default_rng(2024)
    for _ in range(300):
        alphas, betas = _random_quadratic_grid(rng)
        out = np.empty((6, betas.size, thetas.size))
        for a in alphas:
            with np.errstate(all="ignore"):
                m1, m2, r, _ = kernel(np.full(betas.size, a), betas, k1, k2, out)
                q2 = 2.0 * a * k1 * k1 + 2.0 * (a + betas[:, None] - 1.0) * k1 * k2 \
                    + 2.0 * betas[:, None] * k2 * k2
            f1, f2, cap, fq2, slack = iq._quadratic_floors(np.full(betas.size, a), betas, eta)
            rows = np.isfinite(slack)
            finite_rows += int(np.count_nonzero(rows))
            assert np.all(f1[rows] - slack[rows] <= m1[rows].min(axis=1))
            assert np.all(f2[rows] - slack[rows] <= m2[rows].min(axis=1))
            assert np.all(cap[rows] + slack[rows] >= r[rows].max(axis=1))
            assert np.all(fq2[rows] - slack[rows] <= q2[rows].min(axis=1))
        all_rows += int(np.sum(betas.size - np.searchsorted(betas, alphas)))
        for block in (3, 48, 1 << 15):
            monkeypatch.setattr(iq, "_quadratic_block", kernel if block == 3 else counting)
            test_quadratic_sweep_matches_full_grid_reference(monkeypatch, block, alphas, betas)
        monkeypatch.setattr(iq, "_quadratic_block", kernel)
    # the bounds are not vacuous, and the sweeps in blocks of 48 and 2^15
    # points skip rows (in chunks of three rows the threshold rows alone
    # take up to two kernel rows per chunk, so those sweeps are not counted)
    assert finite_rows > 1000
    assert swept_rows[0] / 2 < 0.8 * all_rows
