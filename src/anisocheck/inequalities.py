"""Brute-force certification sweeps for the pointwise algebraic inequalities.

Every sweep samples the full parameter domain of one inequality, records
the worst margin together with the exact configuration achieving it, and
a standalone evaluator re-evaluates any stored configuration so reports
are reproducible.  Sampling is deterministic: a Halton low-discrepancy
stream and a fixed-seed PRNG stream, both reported, plus closed-form
witness configurations where an equality case is known.

Every sweep runs in blocks of at most ``_BLOCK`` points, one constant
sized so that a block's temporaries fit in L2: the quadratic-lemma grid in
blocks of (alpha, beta) rows, the curvature, Ricci and Kato sample streams
in blocks built on demand, so their memory is constant in the grid and the
sample count.  The stream sweeps take time linear in their count.  The
quadratic-lemma sweep walks its rows once and runs its kernel only on the
rows that can hold or tie an extreme: closed-form 2x2 eigenvalue floors of
each row's margins over the unit circle, evaluated once per row, skip the
rows beyond running thresholds (`_quadratic_sweep`), so its time is one
floors evaluation per row plus the rows that survive (one of the 20 100 at
`GRIDS`).  The sweep kernels are vectorized numpy over one block, and one
rule (:class:`_Extreme`) combines the blocks' extremes: a NaN margin
propagates and otherwise the first occurrence of the extreme value wins,
exactly as one ``np.argmin``/``np.argmax`` over the whole sweep, so the
stored witness is deterministic and independent of the block size and of
the rows skipped.
The curvature and Ricci sweeps read the same 4-D stream, so they share one
pass over it (`verify_curvature_ricci`; `verify_curvature_pinch` and
`verify_ricci_bound` are its one-suite calls).  The calling thread builds
each block once, in stream order (the PRNG state is sequential), and one
cos/sin of 2 pi pts[:, 3] serves as the curvature angle psi and as the
azimuth of the Ricci direction y.  A pool of one thread per available core
(`_map_blocks`) fills in the blocks' cosines and sines, almost half of the
work, while the calling thread runs the margin kernels on the blocks
already filled and folds their extremes in block order, so every record is
independent of the worker count.  The blocks hold ``_STREAM_BLOCK`` points,
so that the margin kernels' temporaries fit in L2, and at most one block
per worker is in flight (one ``_BLOCK`` of points at four workers).  The
pool writes only into arrays the calling thread allocated: each thread's
own malloc arena would add its temporaries to the process's peak memory
instead of reusing the calling thread's (the margin kernels on the pool
raised the peak RSS of a ``verify`` job by a tenth).
The kernels hoist and tabulate terms but never reorder floating-point
operations: the quadratic-lemma kernel keeps the operation order of
`quadratic_lemma_point`, so its witnesses re-evaluate to the bit, and the
curvature and Ricci kernels keep the order of the stacked (n, 3) numpy
evaluation (`np.cross`, `np.linalg.norm`, `np.einsum`) written out per
component, so a given numpy build reproduces every margin and witness
bit for bit.  `halton` takes its digits as exact integers, so it is exact
for every index (in particular every index below 2^53, where float digit
arithmetic would still be exact), and sums them in the digit-by-digit
order.
Each record is a :class:`~anisocheck.checks.Check` whose value is the
margin, whose bound is ``-TOL`` and whose ``detail["config"]`` holds the
witness configuration.
"""

from __future__ import annotations

import collections
import functools
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .checks import ge

SQRT2 = np.sqrt(2.0)
C0 = 1.0 / (SQRT2 - 0.5)
C1_MAX = 1.5 - SQRT2
#: a curvature-pinch sweep counts as near-sharp when its largest ratio
#: |A|^2 / (-R) reaches this
NEAR_SHARP_RATIO = C0 - 0.05
TOL = 1e-10             # each record passes at margin >= -TOL
#: default sizes of the sweeps, shared by the verify job and the criteria:
#: samples of the curvature and Ricci sweeps, Kato points per polynomial and
#: the (n_alpha, n_beta, n_angle) grid of the quadratic lemma
SAMPLES = 1_000_000
KATO_POINTS = 10_000
GRIDS = (200, 200, 720)
#: default seed of the PRNG streams, and of every job and criterion
SEED = 1234

_PRIMES = (2, 3, 5, 7, 11, 13)
#: largest table of low-digit sums that `halton` builds per dimension
_HALTON_TABLE = 1 << 14
#: points per block of every sweep (a few blocks fit in L2).  The blocks
#: pay: with this and _STREAM_BLOCK at 2^20 points, one block per stream, the
#: ``sweeps`` benchmark read 0.59 s and 143.5 MiB against 0.25 s and 48.4 MiB
#: in 5 of 5 alternating pairs (BENCH_39.json, row ``streamed_blocks``)
_BLOCK = 1 << 15
#: points per block of the curvature and Ricci stream: the two margin
#: kernels hold about 20 block-sized arrays, 1.3 MiB at 2^13 points, which
#: fit in L2 (at _BLOCK points they take 5 MiB and run about a fifth slower)
_STREAM_BLOCK = 1 << 13
#: unit roundoff of float64
_U = 2.0 ** -53


@functools.lru_cache(maxsize=None)
def _halton_table(b):
    """(sums, b^k): the digit-by-digit sums of the low k digits of every
    residue below b^k in base ``b``, for the largest b^k up to
    ``_HALTON_TABLE``; built once per base and read-only."""
    low = np.zeros(1)
    denom = 1.0
    while low.size * b <= _HALTON_TABLE:
        denom *= b
        low = (low + (np.arange(b) / denom)[:, None]).ravel()
    low.flags.writeable = False
    return low, denom


def halton(count, dims, skip=20):
    """Deterministic Halton points in [0,1)^dims (radical inverse).

    Point ``i`` of dimension ``d`` is the radical inverse of ``skip + i`` in
    base ``_PRIMES[d]``, summed digit by digit from the lowest digit:
    ``((d0/b + d1/b^2) + d2/b^3) + ...``.  The sums of the low ``k`` digits
    are tabulated once for every residue below ``b^k`` (at most
    ``_HALTON_TABLE`` entries), and each run of consecutive indices that
    shares its high digits copies a slice of that table and adds the high
    digits in the same order.  The digits are exact integers and the sums
    keep their order, so every point equals the digit-by-digit sum to the bit.
    """
    out = np.empty((count, dims))
    stop = skip + count
    col = np.empty(count)
    for d in range(dims):
        b = _PRIMES[d]
        low, denom = _halton_table(b)
        span = low.size
        for high in range(skip // span, (stop - 1) // span + 1):
            lo, hi = max(skip, high * span), min(stop, (high + 1) * span)
            seg = col[lo - skip:hi - skip]
            seg[:] = low[lo - high * span:hi - high * span]
            rest, den = high, denom
            while rest:
                den *= b
                rest, digit = divmod(rest, b)
                if digit:
                    seg += digit / den
        out[:, d] = col
    return out


def _sample_streams(count, dims, seed, size=None):
    """The two labelled point streams of a sweep in [0,1)^dims, each an
    iterator over blocks of at most ``size`` points (default ``_BLOCK``)
    built when the caller reaches them: the first ``count // 2`` points from
    the Halton stream, the rest from the PRNG seeded with ``seed``.

    `halton` is exact for every skip and successive draws of one generator
    equal a single draw, so the blocks of a stream concatenate to its
    one-call build bit for bit, whatever their size.
    """
    size = size or _BLOCK
    half = count // 2
    rng = np.random.default_rng(seed)
    yield "halton", (halton(m, dims, skip=20 + lo) for lo, m in _blocks(half, size))
    yield "prng", (rng.random((m, dims)) for _, m in _blocks(count - half, size))


def _blocks(count, size):
    """(offset, size) of the consecutive blocks of at most ``size`` points
    that cover ``count`` points."""
    return ((lo, min(size, count - lo)) for lo in range(0, count, size))


def _workers():
    """Threads of the block pool: one per core this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_blocks(kernel, blocks, fold):
    """``fold(kernel(block))`` for every block of the iterator ``blocks``, in
    block order.

    The kernels run on a pool of `_workers` threads (numpy's ufuncs release
    the GIL), while this thread builds the blocks in stream order (the PRNG
    state is sequential) and folds the results.  At most one block per
    worker is in flight: this thread folds the oldest before it builds the
    next.  When a kernel raises, no further block is built, the blocks not
    yet started are cancelled, the pool's threads are joined and the
    kernel's exception propagates.  On 2 x86-64 vCPUs the pool cuts the
    ``sweeps`` benchmark's wall time from 0.195 to 0.154 s (median of 10
    alternating 15-s runs), for 0.03 s more CPU time and 0.6 MiB more RSS.
    """
    from concurrent.futures import ThreadPoolExecutor   # pulls in logging

    workers = _workers()
    pool = ThreadPoolExecutor(workers)
    pending = collections.deque()
    try:
        for block in blocks:
            pending.append(pool.submit(kernel, block))
            if len(pending) == workers:
                fold(pending.popleft().result())
        while pending:
            fold(pending.popleft().result())
    finally:
        pool.shutdown(cancel_futures=True)


class _Extreme:
    """The running minimum (or, with ``largest``, maximum) of one margin over
    the blocks of a sweep, and the witness of the point that attains it.

    Blocks are offered in sweep order, each with its own extreme and the
    index at which ``np.argmin``/``np.argmax`` finds it.  The running extreme
    changes exactly as one ``np.argmin``/``np.argmax`` over the whole sweep
    would pick: the first block sets it, a NaN then beats every number and
    stays, and otherwise only a strictly better value replaces, so the first
    occurrence wins.
    """

    def __init__(self, largest=False):
        self.largest = largest
        self.value = self.witness = None

    def offer(self, value, index, witness):
        """Fold in a block whose extreme ``value`` sits at ``index``;
        ``witness(index)`` is called only when the block sets the extreme."""
        old = self.value
        if old is not None and (math.isnan(old) or not (
                math.isnan(value) or (value > old if self.largest else value < old))):
            return
        self.value, self.witness = value, witness(index)


@dataclass
class SweepReport:
    sample_count: int
    records: list = field(default_factory=list)
    extras: dict = field(default_factory=dict)


# -- quadratic form comparison -------------------------------------------------


def quadratic_lemma_point(alpha, beta, theta):
    """Margins (c0 Q2 - Q1, c1_max - (Q1-Q2)/Q1, Q1/Q2) at one configuration."""
    k1, k2 = np.cos(theta), np.sin(theta)
    q1 = (1.0 + alpha * alpha) * k1 * k1 + 2.0 * alpha * beta * k1 * k2 \
        + (1.0 + beta * beta) * k2 * k2
    q2 = 2.0 * alpha * k1 * k1 + 2.0 * (alpha + beta - 1.0) * k1 * k2 \
        + 2.0 * beta * k2 * k2
    return C0 * q2 - q1, C1_MAX - (q1 - q2) / q1, q1 / q2


def _quadratic_block(a, b, k1, k2, out):
    """The margins (c0 Q2 - Q1, c1_max - (Q1-Q2)/Q1, Q1/Q2) of the rows
    (a[r], b[r]), one alpha per row, on the angle grid ``(k1, k2)`` (each of
    shape (1, n)), as views of the six (rows, n) buffers ``out``, with inf,
    inf and -inf where Q2 <= 0, and the count of those points.

    Each term is evaluated in the operation order of `quadratic_lemma_point`
    and every sum left to right, so each margin equals its scalar value.
    """
    Q1, Q2, M1, M2, R, T = (buf[:b.size] for buf in out)
    aa, bb = a[:, None], b[:, None]
    np.multiply(2.0 * aa * bb, k1, out=Q1)
    Q1 *= k2
    Q1 += (1.0 + aa * aa) * k1 * k1
    np.multiply(1.0 + bb * bb, k2, out=T)
    T *= k2
    Q1 += T
    np.multiply(2.0 * (aa + bb - 1.0), k1, out=Q2)
    Q2 *= k2
    Q2 += 2.0 * aa * k1 * k1
    np.multiply(2.0 * bb, k2, out=T)
    T *= k2
    Q2 += T
    np.multiply(Q2, C0, out=M1)
    M1 -= Q1
    np.subtract(Q1, Q2, out=M2)
    M2 /= Q1
    np.subtract(C1_MAX, M2, out=M2)
    np.divide(Q1, Q2, out=R)
    bad = 0
    if not Q2.min() > 0.0:
        nonpositive = ~(Q2 > 0.0)
        bad = int(np.count_nonzero(nonpositive))
        M1[nonpositive] = np.inf
        M2[nonpositive] = np.inf
        R[nonpositive] = -np.inf
    return M1, M2, R, bad


def _lambda_min(p, q, r):
    """The smaller eigenvalue of [[p, q], [q, r]]: (p + r)/2 - hypot((p - r)/2, q),
    with no cancellation under the root."""
    return (p + r) / 2.0 - np.hypot((p - r) / 2.0, q)


def _quadratic_floors(a, b, eta):
    """Per row (a, b): the floors over the unit circle of c0 Q2 - Q1 and of
    c1_max - (Q1-Q2)/Q1, the cap on Q1/Q2 (inf unless Q2/Q1 has a positive
    floor), the floor of Q2 and the slack of `_quadratic_sweep`, for an
    angle grid with |k|^2 within ``eta`` of 1."""
    with np.errstate(all="ignore"):
        p1, q1, d = 1.0 + a * a, a * b, b * b
        p2, q2, r2 = 2.0 * a, a + b - 1.0, 2.0 * b
        floor1 = _lambda_min(C0 * p2 - p1, C0 * q2 - q1, C0 * r2 - (1.0 + d))
        # mu = lambda_min(L^-1 B2 L^-T), L the Cholesky factor of B1, det B1 = d
        d += p1
        t = q1 / p1
        mu = _lambda_min(p2 / p1, (q2 - p2 * t) / np.sqrt(d),
                         (p2 * t * t - 2.0 * q2 * t + r2) * (p1 / d))
        floor_q2 = _lambda_min(p2, q2, r2)
        cap = np.where(mu > 0.0, 1.0 / mu, np.inf)
        w = (d + np.abs(a) + np.abs(b)) * (1.0 + cap)
        bound = (1024.0 * _U + 64.0 * eta) * w * w
        slack = 1e3 * np.where(bound <= 0.5, bound, np.inf)
    return floor1, (C1_MAX - 1.0) + mu, cap, floor_q2, slack


def _quadratic_pairs(starts, n_beta):
    """(alpha, beta) index arrays of the rows j >= starts[i], in grid order,
    in chunks of at most ``_BLOCK`` rows."""
    ends = np.cumsum(n_beta - starts)
    total = int(ends[-1]) if ends.size else 0
    for lo in range(0, total, _BLOCK):
        p = np.arange(lo, min(lo + _BLOCK, total))
        i = np.searchsorted(ends, p, side="right")
        yield i, p - ends[i] + n_beta


def _quadratic_sweep(alphas, betas, coss, sins):
    """Extremes of the three margins over beta >= alpha and the angle grid,
    with their grid indices, and the count of points where Q2 <= 0.

    ``betas`` is ascending, so beta >= alpha is a suffix of each alpha's
    rows.  On a row (alpha, beta) the margins are quadratic forms in
    k = (cos theta, sin theta): Q1 = k^T B1 k and Q2 = k^T B2 k with
    B1 = [[1 + a^2, ab], [ab, 1 + b^2]] = I + (a, b)(a, b)^T and
    B2 = [[2a, a + b - 1], [a + b - 1, 2b]].  Over the unit circle the
    Rayleigh quotient (Courant-Fischer) bounds them in closed form
    (`_quadratic_floors`): c0 Q2 - Q1 >= lambda_min(c0 B2 - B1),
    Q2 >= lambda_min(B2), and Q2/Q1 >= mu = lambda_min(L^-1 B2 L^-T) for the
    Cholesky factor L of B1, so c1_max - (Q1-Q2)/Q1 >= c1_max - 1 + mu and,
    when mu > 0, Q1/Q2 <= 1/mu, the cap.

    One pass walks the rows in grid order, in chunks of at most ``_BLOCK``
    rows, and evaluates each chunk's floors once.  The block kernel
    `_quadratic_block` first runs on the chunk's rows of lowest first and
    second floor, whose extremes lower the running thresholds u1 and u2
    (from inf) and raise r_max (from -inf); then, in grid order, on every
    row except those whose floors of the two margins exceed u1 and u2, and
    whose cap falls short of r_max, each by more than the row's slack, whose
    Q2 floor exceeds the slack and whose floors are all finite.  The slack
    bounds the distance between a computed floor and any margin the kernel
    computes on the row (below).  Each threshold is a margin of a swept grid
    row, so u1 and u2 never fall below the final minima and r_max never
    exceeds the final maximum (a NaN threshold skips nothing): a skipped row
    has no margin that reaches or ties an extreme, no NaN and no Q2 <= 0,
    and the extremes, their first-occurrence witnesses, NaN propagation and
    the Q2 count are those of the whole grid.  The kept rows run in blocks
    of at most ``_BLOCK`` points, which may span several alphas, and the
    blocks combine as :class:`_Extreme`, so the extremes and their indices
    are those of a single argmin/argmax over the domain.

    The slack.  Let u = 2^-53, S = 1 + a^2 + b^2 + |a| + |b|, cap = 1/mu and
    eta >= ||k|^2 - 1| on the grid (its measured deviation plus 4u).  On the
    unit circle q1 is in [1, S] (B1 >= I) and |q2| <= ||B2|| <= 3S.
    - The kernel computes Q1 and Q2 within 16uS of the forms at k (at most
      six roundings per term), which lie within 3 eta S of the forms at
      k/|k|: within E = (16u + 3 eta) S of q1 and q2.
    - The computed lambda_min(c0 B2 - B1) and lambda_min(B2) are within
      64uS of their values, and mu within 128uS^2 (the entries of
      L^-1 B2 L^-T reach S^(3/2)).
    - So c0 Q2 - Q1 and Q2 reach at most (128u + 8 eta) S below their
      floors; Q2/Q1 moves by at most 2E(1 + 3S) as q1 >= 1, so the second
      margin reaches at most (288u + 24 eta) S^2 below its floor; and
      q2 >= mu q1 >= mu, so Q1/Q2 moves by at most 2E cap (1 + cap), which
      with the error of the cap is at most (290u + 6 eta) (S (1 + cap))^2.
    Each is below (512u + 32 eta) W^2 for W = S (1 + cap), and twice that,
    bound = (1024u + 64 eta) W^2 with the computed cap (within a quarter of
    the exact one), bounds them all where bound <= 1/2, which also keeps Q1,
    Q2 and mu away from zero in the steps above.  The slack is 10^3 bound,
    which also covers the rounding of the comparisons, and infinite where
    bound > 1/2.
    """
    n = coss.size
    k1, k2 = coss[None, :], sins[None, :]
    rows = max(1, _BLOCK // n)
    out = np.empty((6, max(2, rows), n))    # room for the two threshold rows
    eta = float(np.max(np.abs(coss * coss + sins * sins - 1.0))) + 4.0 * _U
    u1, u2, r_max = np.inf, np.inf, -np.inf
    min1, min2, maxr = _Extreme(), _Extreme(), _Extreme(largest=True)
    bad_q2 = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        for i, j in _quadratic_pairs(np.searchsorted(betas, alphas), betas.size):
            a, b = alphas[i], betas[j]
            f1, f2, cap, fq2, slack = _quadratic_floors(a, b, eta)
            low = sorted({int(np.argmin(np.fmin(f, np.inf))) for f in (f1, f2)})
            M1, M2, R, _ = _quadratic_block(a[low], b[low], k1, k2, out)
            u1, u2 = np.minimum(u1, M1.min()), np.minimum(u2, M2.min())
            r_max = np.maximum(r_max, R.max())
            skip = ((f1 - slack > u1) & (f2 - slack > u2) & (cap + slack < r_max)
                    & (fq2 > slack) & np.isfinite(f1) & np.isfinite(f2)
                    & np.isfinite(cap) & np.isfinite(fq2))
            i, j = i[~skip], j[~skip]
            for lo in range(0, i.size, rows):
                si, sj = i[lo:lo + rows], j[lo:lo + rows]
                M1, M2, R, bad = _quadratic_block(alphas[si], betas[sj], k1, k2, out)
                bad_q2 += bad

                def at(f):
                    return int(si[f // n]), int(sj[f // n]), f % n
                for ext, arr, pick in ((min1, M1, np.argmin), (min2, M2, np.argmin),
                                       (maxr, R, np.argmax)):
                    f = int(pick(arr))
                    ext.offer(float(arr.flat[f]), f, at)
    return (min1.value, *min1.witness, min2.value, *min2.witness,
            maxr.value, *maxr.witness, bad_q2)


def verify_quadratic_lemma(n_alpha, n_beta, n_angle):
    """Sweep a <= b in [1/sqrt2, 1] x unit circle and certify

        Q1 <= c0 Q2   and   (Q1 - Q2)/Q1 <= 3/2 - sqrt(2),

    together with the closed-form identity 1/(1 - (3/2 - sqrt2)) = c0.
    """
    alphas = np.linspace(1.0 / SQRT2, 1.0, n_alpha)
    betas = np.linspace(1.0 / SQRT2, 1.0, n_beta)
    thetas = np.linspace(0.0, 2.0 * np.pi, n_angle, endpoint=False)
    coss, sins = np.cos(thetas), np.sin(thetas)
    (m1, i1, j1, k1, m2, i2, j2, k2, maxr, ir, jr, krr, bad) = _quadratic_sweep(
        alphas, betas, coss, sins)
    count = int(np.sum(n_beta - np.searchsorted(betas, alphas))) * n_angle
    rep = SweepReport(sample_count=count)
    rep.records.append(ge(
        "c0*Q2 - Q1", m1, -TOL,
        config={"alpha": float(alphas[i1]), "beta": float(betas[j1]),
                "theta": float(thetas[k1])}))
    rep.records.append(ge(
        "(3/2 - sqrt2) - (Q1-Q2)/Q1", m2, -TOL,
        config={"alpha": float(alphas[i2]), "beta": float(betas[j2]),
                "theta": float(thetas[k2])}))
    c0_identity = abs(1.0 / (1.0 - C1_MAX) - C0)
    rep.records.append(ge("identity 1/(1-c1_max) = c0", -c0_identity, -TOL,
                          config={"residual": c0_identity}))
    rep.extras["max_ratio_q1_q2"] = float(maxr)
    rep.extras["max_ratio_config"] = {
        "alpha": float(alphas[ir]), "beta": float(betas[jr]), "theta": float(thetas[krr])}
    rep.extras["q2_nonpositive_count"] = int(bad)
    rep.extras["c0"] = C0
    return rep


# -- curvature pinch -----------------------------------------------------------


def curvature_pinch_point(a, psi):
    """(-R, c0 * (-R) - |A|^2, |A|^2, constraint residual) for the principal
    curvature direction psi in the plane sum a_i k_i = 0, |k| = 1, spanned
    by b1 = (0, a3, -a2)/|.| and b2 = a x b1/|.|.  Norms and sums run in
    the order of `_curvature_sweep`, with no BLAS dot, so a stored witness
    re-evaluates to the sweep's bits."""
    a = np.asarray(a, dtype=float)
    b1 = np.array([0.0, a[2], -a[1]]) / np.sqrt(a[2] * a[2] + a[1] * a[1])
    b2 = np.cross(a, b1)
    b2 /= np.sqrt((b2[0] * b2[0] + b2[1] * b2[1]) + b2[2] * b2[2])
    k0, k1, k2 = np.cos(psi) * b1 + np.sin(psi) * b2
    A2 = float((k0 * k0 + k2 * k2) + k1 * k1)
    s = float((k0 + k1) + k2)
    R = s * s - A2
    return -R, -C0 * R - A2, A2, abs(float((a[0] * k0 + a[2] * k2) + a[1] * k1))


def _curvature_coefficients(pts):
    """Sorted coefficient columns a1 <= a2 <= a3 in [1, sqrt2] of points
    ``pts`` in [0,1)^4."""
    # sort the first three coordinates of each point with min/max selections
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    lo, hi = np.minimum(x, y), np.maximum(x, y)
    mid = np.maximum(lo, z)
    aa = (np.minimum(lo, z), np.minimum(hi, mid), np.maximum(hi, mid))
    return tuple(1.0 + (SQRT2 - 1.0) * c for c in aa)


def _curvature_sweep(aa, cp, sp):
    """Worst margins of -R and c0 (-R) - |A|^2 with their sample indices,
    the largest ratio |A|^2 / (-R) and the largest constraint residual.

    ``aa`` holds the coefficient columns (a1, a2, a3) and ``cp``, ``sp`` the
    cosines and sines of the angles psi, which this kernel only reads, so
    the shared pass hands the same pair to the Ricci kernel.  For unit k
    orthogonal to a (componentwise in [1, sqrt 2], sorted), with
    |A|^2 = |k|^2 = 1 and R = (sum k)^2 - 1; the constraint-plane basis
    b1 = (0, a3, -a2)/|.|, b2 = a x b1/|.| never degenerates on
    [1, sqrt2]^3.  The basis is written out per component in the order of
    `np.cross` and of `np.linalg.norm`, and the dot products in the order of
    ``np.einsum("pi,pi->p")`` for three terms, ``(x0 + x2) + x1``, so the
    margins equal those of the stacked (n, 3) evaluation to the bit.
    """
    a1, a2, a3 = aa
    # b1 = (0, c, -s): (0, a3, -a2) over its norm
    norm = a3 * a3
    norm += a2 * a2
    np.sqrt(norm, out=norm)
    c, s = a3 / norm, a2 / norm
    # a x b1 = (-(a2 s + a3 c), a1 s, a1 c), over its norm, is b2
    k0 = a2 * s
    k0 += a3 * c
    np.negative(k0, out=k0)
    k1, k2 = a1 * s, a1 * c
    np.multiply(k0, k0, out=norm)
    norm += k1 * k1
    norm += k2 * k2
    np.sqrt(norm, out=norm)
    # k = cos(psi) b1 + sin(psi) b2
    for kc in (k0, k1, k2):
        kc /= norm
        kc *= sp
    k1 += cp * c
    k2 -= cp * s
    dot = np.multiply(a1, k0, out=norm)
    dot += a3 * k2
    dot += a2 * k1
    cons = float(np.abs(dot, out=dot).max())
    A2 = k0 * k0
    A2 += k2 * k2
    A2 += k1 * k1
    R = k0 + k1
    R += k2
    R *= R
    R -= A2
    mR = -R
    m2 = R
    m2 *= -C0
    m2 -= A2
    pos = mR > 1e-15
    ratio = np.divide(A2, np.where(pos, mR, 1.0), out=A2)
    ratio[~pos] = -np.inf
    p1 = int(np.argmin(mR))
    p2 = int(np.argmin(m2))
    pr = int(np.argmax(ratio))
    return (float(mR[p1]), p1, float(m2[p2]), p2, float(ratio[pr]), pr, cons)


# -- Ricci lower bound ----------------------------------------------------------


def ricci_point(k, y):
    """Margin of Ric(y,y) + |A|^2/sqrt(2) for principal curvatures k and a
    unit direction y, summed in the order of `_ricci_sweep` with no BLAS
    dot, so a stored witness re-evaluates to the sweep's bits."""
    k = np.asarray(k, dtype=float)
    s = (k[0] + k[1]) + k[2]
    w0, w1, w2 = (c * (s - c) * (v * v) for c, v in zip(k, np.asarray(y, dtype=float)))
    return float(((w0 + w2) + w1) + ((k[0] * k[0] + k[2] * k[2]) + k[1] * k[1]) / SQRT2)


def _unit_sphere_points(u, cos, sin):
    """Coordinate columns (x, y, z) of the area-uniform map of [0,1)^2 onto
    the unit sphere at heights from ``u`` and azimuths th = 2 pi v, given
    by ``cos`` and ``sin`` of th."""
    z = 2.0 * u - 1.0
    s = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return s * cos, s * sin, z


def _ricci_sweep(ks, ys):
    """Worst margin of Ric(y) + |A|^2/sqrt2, Ric(y) = sum_i k_i (s - k_i) y_i^2,
    and its sample index.

    ``ks`` and ``ys`` are coordinate columns: in the shared pass k on the
    sphere of pts[:, 0:2] and y on that of pts[:, 2:4], whose azimuth is the
    curvature sweep's angle psi.  The three-term sums keep the order of
    ``np.einsum("pi,pi->p")``, ``(x0 + x2) + x1``, and of ``sum(axis=1)``,
    ``(x0 + x1) + x2``, so the margins equal those of the stacked (n, 3)
    evaluation to the bit.
    """
    k0, k1, k2 = ks
    s = (k0 + k1) + k2
    w0, w1, w2 = (k * (s - k) * (y * y) for k, y in zip(ks, ys))
    ric = (w0 + w2) + w1
    A2 = (k0 * k0 + k2 * k2) + k1 * k1
    m = ric + A2 / SQRT2
    p = int(np.argmin(m))
    return float(m[p]), p


# -- one pass of the 4-D stream for both sweeps -----------------------------------


#: the sweeps of the 4-D sample stream, in the order of their reports
STREAM_SUITES = ("curvature_pinch", "ricci_bound")


def _angles(pts, suites):
    """The angle columns of a block ``pts`` of the 4-D stream that the
    kernels of ``suites`` read, each as (angle, cos, sin) with empty arrays
    for its cosine and sine: psi = 2 pi pts[:, 3], the curvature angle and
    the azimuth of the Ricci direction y, then for the Ricci suite the
    azimuth 2 pi pts[:, 1] of k."""
    columns = (3, 1) if "ricci_bound" in suites else (3,)
    return [(th, np.empty_like(th), np.empty_like(th))
            for th in (2.0 * np.pi * pts[:, c] for c in columns)]


def _cos_sin(block):
    """Fill in the cosines and sines of the `_angles` of a block
    ``(pts, angles)`` and return it: the pool's kernel, almost half of the
    work of a block.  It writes into arrays that the building thread
    allocated, so the pool's threads allocate no block-sized memory of
    their own (a thread's own malloc arena would add its temporaries to the
    process's peak instead of reusing those of the building thread)."""
    for th, cos, sin in block[1]:
        np.cos(th, out=cos)
        np.sin(th, out=sin)
    return block


def verify_curvature_ricci(samples=SAMPLES, seed=SEED, suites=STREAM_SUITES):
    """The curvature-pinch and Ricci-bound sweeps of ``suites`` in one walk
    of the 4-D sample stream, as {suite: SweepReport}.

    ``samples`` are split between the Halton stream and the seeded PRNG
    stream.  Each block of ``_STREAM_BLOCK`` points is built once with its
    `_angles`; `_map_blocks` fills in their cosines and sines on the block
    pool while this thread runs the margin kernels of the blocks already
    filled, in block order, and folds their extremes, so every margin and
    witness is that of the one-suite sweep and of one argmin over the
    stream, whatever the block size and the worker count.  One cos/sin of
    psi serves both kernels.  The one walk pays: a walk per suite made the
    ``sweeps`` benchmark read 0.34 s against 0.27 s (CPU 0.48 s against
    0.36 s) in 5 of 5 alternating pairs (BENCH_39.json, row
    ``shared_curvature_ricci``).
    """
    reps = {suite: SweepReport(sample_count=samples) for suite in suites}
    max_ratio, max_cons = _Extreme(largest=True), 0.0
    for sampler, stream in _sample_streams(samples, 4, seed, _STREAM_BLOCK):
        min_R, min_2, worst = _Extreme(), _Extreme(), _Extreme()

        def fold(block):
            # the margin kernels of one block, on this thread
            nonlocal max_cons
            pts, ((psis, cp, sp), *azimuth) = block
            if "curvature_pinch" in reps:
                aa = _curvature_coefficients(pts)
                mR, pR, m2, p2, ratio, pr, cons = _curvature_sweep(aa, cp, sp)

                def config(p):
                    return {"a": [float(c[p]) for c in aa], "psi": float(psis[p])}
                min_R.offer(mR, pR, config)
                min_2.offer(m2, p2, config)
                max_ratio.offer(ratio, pr, config)
                max_cons = float(np.maximum(max_cons, cons))
            if "ricci_bound" in reps:
                (_, ck, sk), = azimuth
                ks = _unit_sphere_points(pts[:, 0], ck, sk)
                ys = _unit_sphere_points(pts[:, 2], cp, sp)
                m, p = _ricci_sweep(ks, ys)
                worst.offer(m, p, lambda p: {"k": [float(c[p]) for c in ks],
                                             "y": [float(c[p]) for c in ys]})
        _map_blocks(_cos_sin, ((pts, _angles(pts, suites)) for pts in stream), fold)
        if "curvature_pinch" in reps:
            reps["curvature_pinch"].records += [
                ge(f"-R >= 0 [{sampler}]", min_R.value, -TOL, config=min_R.witness),
                ge(f"c0*(-R) - |A|^2 [{sampler}]", min_2.value, -TOL, config=min_2.witness)]
        if "ricci_bound" in reps:
            reps["ricci_bound"].records.append(ge(
                f"Ric + |A|^2/sqrt2 [{sampler}]", worst.value, -TOL, config=worst.witness))
    if "curvature_pinch" in reps:
        _curvature_corners(reps["curvature_pinch"], max_ratio, max_cons)
    if "ricci_bound" in reps:
        _ricci_equality(reps["ricci_bound"])
    return reps


def _curvature_corners(rep, max_ratio, max_cons):
    """Close the curvature report ``rep`` of the streams, whose largest
    ratio and constraint residual are ``max_ratio`` and ``max_cons``: the
    identity record, a deterministic near-sharpness pass over the corner
    triples of [1, sqrt2]^3 on a fine angle grid, and the extras."""
    # |A|^2 >= -R is (sum k)^2 >= 0: record the identity margin at the
    # moment R is most negative (trivially nonnegative, kept for the table)
    rep.records.append(ge("|A|^2 + R >= 0", 0.0, -TOL, config={"identity": "(sum k)^2"}))
    corners = [(1.0, 1.0, 1.0), (1.0, 1.0, SQRT2), (1.0, SQRT2, SQRT2),
               (SQRT2, SQRT2, SQRT2)]
    psis = np.linspace(0.0, 2.0 * np.pi, 20001)
    cp, sp = np.cos(psis), np.sin(psis)
    for a in corners:
        aa = tuple(np.full(psis.size, c) for c in a)
        mR, pR, m2, p2, ratio, pr, cons = _curvature_sweep(aa, cp, sp)
        rep.records.append(ge(
            f"c0*(-R) - |A|^2 [corner {tuple(round(float(x), 6) for x in a)}]", m2, -TOL,
            config={"a": list(a), "psi": float(psis[p2])}))
        max_cons = float(np.maximum(max_cons, cons))
        max_ratio.offer(ratio, pr, lambda p: {"a": list(a), "psi": float(psis[p])})
    rep.extras["max_ratio_A2_over_negR"] = float(max_ratio.value)
    rep.extras["max_ratio_config"] = max_ratio.witness
    rep.extras["near_sharp"] = bool(max_ratio.value >= NEAR_SHARP_RATIO)
    rep.extras["max_constraint_residual"] = float(max_cons)
    rep.extras["c0"] = C0


def _ricci_equality(rep):
    """Close the Ricci report ``rep`` of the streams with the closed-form
    equality witness k = (-sqrt2, 1, 1)/2, y = e1."""
    k_eq = np.array([-SQRT2, 1.0, 1.0]) / 2.0
    y_eq = np.array([1.0, 0.0, 0.0])
    m_eq = ricci_point(k_eq, y_eq)
    rep.records.append(ge("equality witness k=(-sqrt2,1,1)/2, y=e1", m_eq, -TOL,
                          config={"k": k_eq.tolist(), "y": y_eq.tolist()}))
    rep.extras["equality_witness_margin"] = float(m_eq)


def verify_curvature_pinch(samples=SAMPLES, seed=SEED):
    """Certify R <= 0, -R <= |A|^2 <= -c0 R on the constrained domain: the
    curvature suite alone of `verify_curvature_ricci`, whose corner pass
    probes near-sharpness of c0."""
    return verify_curvature_ricci(samples, seed, ("curvature_pinch",))["curvature_pinch"]


def verify_ricci_bound(samples=SAMPLES, seed=SEED):
    """Certify Ric(y,y) >= -|A|^2/sqrt(2) over unit (k, y), including the
    closed-form equality witness: the Ricci suite alone of
    `verify_curvature_ricci`."""
    return verify_curvature_ricci(samples, seed, ("ricci_bound",))["ricci_bound"]


# -- improved Kato spot-check ----------------------------------------------------
#
# Harmonic polynomials u on flat R^3 satisfy
# |Hess u|^2 >= KATO_CONSTANT |grad u|^-2 |grad |grad u|^2|^2; their derivatives are exact,
# by the power rule on coefficient tables (in any dimension: the profiles of
# `integrand.PROFILES` are tables too).

#: the improved Kato constant of harmonic functions on flat R^3; since
#: grad |grad u|^2 = 2 H grad u, the margins weigh |H grad u|^2 by
#: 4 KATO_CONSTANT, exactly 1.5
KATO_CONSTANT = 3.0 / 8.0

#: the catalog: each polynomial a table {(i, j, k): c} of its monomials c x^i y^j z^k
KATO_CATALOG = {
    "linear_x": {(1, 0, 0): 1},
    "re_z3": {(3, 0, 0): 1, (1, 2, 0): -3},
    "x2_minus_y2": {(2, 0, 0): 1, (0, 2, 0): -1},
    "xy": {(1, 1, 0): 1},
    "xyz": {(1, 1, 1): 1},
    "z_x2_minus_y2": {(2, 0, 1): 1, (0, 2, 1): -1},
}


def derivative(poly, axis):
    """The power rule: the table of d poly / dx_axis."""
    return {tuple(e - (a == axis) for a, e in enumerate(powers)): c * powers[axis]
            for powers, c in poly.items() if powers[axis]}


def laplacian(poly):
    """The table of the Laplacian of ``poly``: the power rule applied twice
    per axis, summed (a harmonic table has only zero coefficients)."""
    out = {}
    for axis in range(len(next(iter(poly)))):
        for powers, c in derivative(derivative(poly, axis), axis).items():
            out[powers] = out.get(powers, 0) + c
    return out


def _poly_values(polys, p):
    """Each table of ``polys`` at points ``p`` (..., d), stacked first: its
    terms in table order, each the coefficient times the powers p_a^e of its
    nonzero exponents e, in turn.  The points are taken in blocks of
    ``_BLOCK``; in each block every coordinate column is made contiguous and
    every power p_a^e up to the highest exponent of axis a in the tables is
    computed once for all of them, as the product p_a^(e-1) p_a of the
    lower power (p_a p_a for e = 2), never by ``pow``."""
    d = p.shape[-1]
    flat = p.reshape(-1, d)
    out = np.empty((len(polys), flat.shape[0]))
    top = [max((powers[a] for poly in polys for powers in poly), default=0) for a in range(d)]
    for lo in range(0, flat.shape[0], _BLOCK):
        block = flat[lo:lo + _BLOCK]
        power = {}
        for a in range(d):
            column = np.ascontiguousarray(block[:, a])
            for e in range(1, top[a] + 1):
                power[a, e] = column if e == 1 else power[a, e - 1] * column
        term = np.empty(len(block))
        for poly, value in zip(polys, out[:, lo:lo + _BLOCK]):
            value.fill(0.0)
            for powers, c in poly.items():
                factors = [power[axis, e] for axis, e in enumerate(powers) if e]
                if not factors:
                    value += c
                    continue
                np.multiply(c, factors[0], out=term)
                for factor in factors[1:]:
                    term *= factor
                value += term
    return out.reshape((len(polys),) + p.shape[:-1])


def poly_value(poly, p):
    """``poly`` at points ``p`` (..., d), as `_poly_values` evaluates it."""
    return _poly_values([poly], p)[0]


def poly_gradient(poly, p):
    """Gradient of ``poly`` at points ``p``, stacked last."""
    return np.stack(list(_poly_values([derivative(poly, a) for a in range(p.shape[-1])], p)),
                    axis=-1)


def poly_hessian(poly, p):
    """Hessian of ``poly`` at points ``p``, in the last two axes: the upper
    triangle, mirrored, with zero where the derivative table is empty."""
    d = p.shape[-1]
    pairs = [(a, b) for a in range(d) for b in range(a, d)]
    values = _poly_values([derivative(derivative(poly, a), b) for a, b in pairs], p)
    out = np.empty(p.shape[:-1] + (d, d))
    for (a, b), value in zip(pairs, values):
        out[..., a, b] = out[..., b, a] = value
    return out


def kato_point(poly, point):
    """Margin |Hess u|^2 - KATO_CONSTANT |grad u|^-2 |grad|grad u|^2|^2 at one point,
    or None when |grad u| is below 1e-8 (critical point skipped)."""
    p = np.asarray(point, dtype=float)
    g = poly_gradient(KATO_CATALOG[poly], p)
    H = poly_hessian(KATO_CATALOG[poly], p)
    g2 = float(np.sum(g * g))
    if g2 < 1e-8**2:
        return None
    lhs = float(np.sum(H * H))
    hg = H @ g
    rhs = KATO_CONSTANT * 4.0 * float(hg @ hg) / g2
    return lhs - rhs


def verify_kato(points=KATO_POINTS, seed=SEED):
    """Sweep the harmonic polynomial catalog on points of [-1, 1]^3 with
    exact derivatives (points with |grad u| below 1e-8 are skipped and
    counted)."""
    rep = SweepReport(sample_count=points * len(KATO_CATALOG))
    names = sorted(KATO_CATALOG)
    worst = {name: _Extreme() for name in names}
    skipped = dict.fromkeys(names, 0)
    for _, blocks in _sample_streams(points, 3, seed):
        for block in blocks:
            pts = 2.0 * block - 1.0
            for name in names:
                poly = KATO_CATALOG[name]
                g = poly_gradient(poly, pts)
                H = poly_hessian(poly, pts)
                g2 = np.sum(g * g, axis=-1)
                ok = g2 >= 1e-16
                skipped[name] += int(np.sum(~ok))
                lhs = np.sum(H * H, axis=(-2, -1))
                hg = np.einsum("...ij,...j->...i", H, g)
                rhs = 4.0 * KATO_CONSTANT * np.sum(hg * hg, axis=-1) / np.where(ok, g2, 1.0)
                margin = np.where(ok, lhs - rhs, np.inf)
                p = int(np.argmin(margin))
                worst[name].offer(float(margin[p]), p,
                                  lambda p: {"poly": name, "point": pts[p].tolist()})
    for name in names:
        rep.records.append(ge(f"kato[{name}]", worst[name].value, -TOL,
                              config=worst[name].witness))
    rep.extras["skipped_points"] = skipped
    return rep
