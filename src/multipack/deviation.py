"""Large-deviation engine for the spread of uniform lists.

The central object is the lower tail of the average squared radius of L
points drawn uniformly on [-K, K]^n, whose per-coordinate summand is the
centering form t'At scaled by K^2.  The module evaluates the log moment
generating function of that summand, the Cramer rate of the tail, the
Laplace asymptotic used by the closed-form exponent, and a direct Monte
Carlo estimate with an exact binomial confidence interval.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bounds import BoundQuery, lambda_star
from .errors import ConvergenceWarning
from .rng import _clopper_pearson, check_count, check_positive, check_seed, chunk_sum

# coordinates are generated in blocks of this many dimensions per chunk;
# fixed constant, part of the (seed, index) -> draw mapping
NBLOCK = 128
# a block is drawn in slices of at most this many floats (256 KB); the slices
# follow the block's sample-major order, so they do not change the draws
SLICE = 2**15

LOG2 = math.log(2.0)

# Newton/bisection steps of the rate search, its only cap; bisection alone
# narrows its first bracket [0, 4 lambda_s] to the step tolerance in fewer
# while lambda_s < 1e19
RATE_MAX_STEPS = 100


@dataclass(frozen=True)
class RateFunctionResult:
    rate: float
    lambda_opt: float
    mgf_log_at_opt: float
    iterations: int


@dataclass(frozen=True)
class LaplaceCheck:
    numeric: float
    asymptotic: float
    ratio: float


@dataclass(frozen=True)
class TailEstimate:
    """Monte Carlo lower-tail estimate with a 95% Clopper-Pearson interval."""

    L: int
    n: int
    K: float
    N: float
    samples: int
    hits: int
    p_hat: float
    exponent_hat: float
    ci_low: float
    ci_high: float
    seed: int

    CSV_HEADER = "L,n,K,N,samples,hits,p_hat,exponent_hat,ci_low,ci_high,seed"

    def csv_row(self) -> str:
        return ",".join(repr(getattr(self, name)) for name in self.CSV_HEADER.split(","))


def cube_form_mean(L: int, K: float) -> float:
    """Mean of the per-coordinate form K^2 * t'At under uniform t."""
    return K * K * (L - 1) / 3.0


def _validate_quad_args(L, K, quad_order):
    return check_count("L", L, 2), check_positive("K", K), check_count("quad_order", quad_order, 16)


@lru_cache(maxsize=64)
def _gauss_nodes(order: int):
    """The order and 2*order Gauss-Legendre nodes, concatenated, and the weights (shared, read-only)."""
    x1, w1 = np.polynomial.legendre.leggauss(order)
    x2, w2 = np.polynomial.legendre.leggauss(2 * order)
    X = np.concatenate([x1, x2])
    X.flags.writeable = w1.flags.writeable = w2.flags.writeable = False
    return X, w1, w2


def mgf_log(L: int, K: float, lam: float, quad_order: int = 64) -> float:
    """Log moment generating function of the scaled centering form.

    Returns ln of the [-1,1]^L cube average of exp(-K^2*lam*t'At) with
    A = I - J/L.  The form is flat along the all-ones direction (the kernel
    of A), and a Gaussian auxiliary-variable identity decouples that rank-one
    term exactly, leaving

        avg = 2^-L * (pi/c)^((L-1)/2) * sqrt(L) * J(c),    c = K^2 * lam,
        J(c) = integral G(mu)^L dmu,
        G(mu) = (erf(sqrt(c)(1-mu)) + erf(sqrt(c)(1+mu))) / 2,

    which holds for every c > 0.  J is evaluated by composite Gauss-Legendre
    with ``quad_order`` and with twice as many nodes per panel in one pass;
    every call compares the two and raises a ConvergenceWarning if they differ
    by more than 1e-9 (the doubled-order value is returned either way).
    """
    L, K, quad_order = _validate_quad_args(L, K, quad_order)
    if not 0 <= lam < math.inf:
        raise ValueError(f"lam must be nonnegative and finite, got {lam}")
    if lam == 0.0:
        return 0.0
    return _mgf_log_derivatives(L, K, float(lam), quad_order)[0]


def laplace_check(L: int, K: float, lam: float, quad_order: int = 64) -> LaplaceCheck:
    """Raw integral of exp(-K^2*lam*t'At) over the cube against its
    large-c saddle value (pi/c)^((L-1)/2) * 2*sqrt(L)."""
    lam = check_positive("lam", lam)
    L, K, quad_order = _validate_quad_args(L, K, quad_order)
    c = K * K * lam
    log_numeric = _mgf_log_derivatives(L, K, lam, quad_order)[0] + L * LOG2
    log_asym = 0.5 * (L - 1) * math.log(math.pi / c) + math.log(2.0 * math.sqrt(L))
    return LaplaceCheck(
        numeric=math.exp(log_numeric),
        asymptotic=math.exp(log_asym),
        ratio=math.exp(log_numeric - log_asym),
    )


@lru_cache(maxsize=1)
def _shoulder_derivatives(L: int, c: float, order: int) -> tuple[float, float, float, float]:
    """The integral of G(mu)^L by composite Gauss-Legendre at ``order`` and
    at ``2 * order`` nodes per panel, (j1, j2), and, on the 2*order nodes,
    J'(c) and J''(c) of J = j2, from one erf pass and one exp pair.  This is
    the only sum over the panels: mgf_log, laplace_check and rate_function
    all take their integrals from it.  It keeps its last result, which
    laplace_check at rate_function's lambda_opt asks for again: the search
    has just integrated at that c.

    G(mu) = (erf(sqrt(c)(1-mu)) + erf(sqrt(c)(1+mu)))/2 is a smoothed
    indicator of [-1, 1] with shoulder width 1/sqrt(c), so the panels are
    pinned to the shoulders; the integrands are negligible beyond 8 widths
    outside.  Each panel's row of nodes holds the order rule's nodes first.
    With a = 1 - mu, b = 1 + mu and E(x) = x exp(-c x^2),
        dG/dc   = (E(a) + E(b)) / (2 sqrt(pi c)),
        d2G/dc2 = -(E(a)(1/(2c) + a^2) + E(b)(1/(2c) + b^2)) / (2 sqrt(pi c)),
        J'  = integral L G^(L-1) dG/dc,
        J'' = integral L(L-1) G^(L-2) (dG/dc)^2 + L G^(L-1) d2G/dc2.
    """
    from scipy.special import erf

    rc = math.sqrt(c)
    w = 8.0 / rc
    if w < 0.5:
        edges = np.array([-1.0 - w, -1.0 + w, 1.0 - w, 1.0 + w])
    else:
        edges = np.linspace(-(1.0 + w), 1.0 + w, 5)
    X, w1, w2 = _gauss_nodes(order)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[:-1] + edges[1:])
    mu = mid[:, None] + half[:, None] * X
    g = 0.5 * (erf(rc * (1.0 - mu)) + erf(rc * (1.0 + mu)))
    gpow = g**L
    mu, g = mu[:, order:], g[:, order:]
    a, b = 1.0 - mu, 1.0 + mu
    ea = a * np.exp(-c * a * a)
    eb = b * np.exp(-c * b * b)
    scale = 1.0 / (2.0 * math.sqrt(math.pi * c))
    gc = (ea + eb) * scale
    gcc = -(ea * (0.5 / c + a * a) + eb * (0.5 / c + b * b)) * scale
    gl1 = L * g ** (L - 1)
    d1 = gl1 * gc
    d2 = L * (L - 1) * g ** (L - 2) * gc * gc + gl1 * gcc
    j1 = j2 = dj = d2j = 0.0
    for h, row, r1, r2 in zip(half, gpow, d1, d2):
        j1 += h * float(w1 @ row[:order])
        j2 += h * float(w2 @ row[order:])
        dj += h * float(w2 @ r1)
        d2j += h * float(w2 @ r2)
    return j1, j2, dj, d2j


def _mgf_log_derivatives(L: int, K: float, lam: float, quad_order: int) -> tuple[float, float, float]:
    """mgf_log at lam > 0 and its first and second derivatives in lam, from
    one quadrature pass, for arguments that passed _validate_quad_args:
        d/dlam   = K^2 (-(L-1)/(2c) + J'/J),
        d2/dlam2 = K^4 ((L-1)/(2c^2) + J''/J - (J'/J)^2).
    Warns when the two rules' integrals disagree.
    """
    c = K * K * lam
    if not 0.0 < c < math.inf:
        raise ValueError(
            f"c = K^2 * lam must be a positive finite float, got {c!r} (K = {K!r}, lam = {lam!r})"
        )
    j1, j2, dj, d2j = _shoulder_derivatives(L, c, quad_order)
    if abs(j2 - j1) > 1e-9 * max(1.0, abs(j2)):
        warnings.warn(
            f"quadrature not converged at order {quad_order}: "
            f"delta = {abs(j2 - j1):.3e}",
            ConvergenceWarning,
        )
    value = (
        -L * LOG2
        + 0.5 * (L - 1) * (math.log(math.pi) - math.log(c))
        + 0.5 * math.log(L)
        + math.log(j2)
    )
    r1 = float(dj / j2)
    k2 = K * K
    return (
        min(value, 0.0),
        k2 * (-0.5 * (L - 1) / c + r1),
        k2 * k2 * (0.5 * (L - 1) / (c * c) + float(d2j / j2) - r1 * r1),
    )


def rate_function(L: int, K: float, N: float, quad_order: int = 64) -> RateFunctionResult:
    """Cramer rate of the event {average squared radius <= n*N} per dimension.

    Maximizes psi(lam) = -lam*L*N - mgf_log(lam) over lam >= 0.  mgf_log is
    a log moment generating function, hence convex, so psi is concave and its
    maximizer is the unique root of psi'.  Each evaluation takes psi, psi'
    and psi'' from one quadrature pass (_mgf_log_derivatives).

    The maximizer lies at or below the Gaussian-limit tilt
    lambda_s = (L-1)/(2LN) (bounds.lambda_star).  G_c is the indicator of
    [-1, 1] smoothed by a normal of variance 1/(2c); a smaller c smooths
    it further, and x^L is convex on [0, 1], so by Jensen J(c) = int G_c^L
    is nondecreasing and J' >= 0.  At c = K^2 lambda_s the (L-1)/(2c) term
    of mgf_log' cancels L*N, so psi'(lambda_s) = -K^2 J'/J <= 0, and psi'
    at lam0 = 4 lambda_s is at most -(3/4) L*N < 0.  The search starts
    there with the bracket [0, inf), which its first sign test closes to
    [0, lam0]: Newton steps on psi' = 0, with a bisection whenever a step
    would leave the bracket, until a step is at most 1e-10 * max(1, lam);
    more than RATE_MAX_STEPS steps warn.  The rate is psi at that last
    iterate, capped by Jensen's bound lam * (mean - L*N), and
    ``mgf_log_at_opt`` is derived from it, so no quadrature follows the
    search.  ``iterations`` counts the psi evaluations, the one at lam0
    included.  The tail must be rare: L*N may not exceed the mean of the
    per-coordinate form; at the mean (within 1e-12 relative) Jensen gives
    psi <= 0, and the rate is exactly 0.
    """
    L, K, quad_order = _validate_quad_args(L, K, quad_order)
    N = check_positive("N", N)
    mean = cube_form_mean(L, K)
    if L * N > mean * (1.0 + 1e-12):
        raise ValueError(
            f"tail is not rare: L*N = {L * N!r} exceeds the cube mean "
            f"{mean!r} of the form; need N <= {mean / L!r}"
        )
    if L * N >= mean * (1.0 - 1e-12):
        return RateFunctionResult(rate=0.0, lambda_opt=0.0, mgf_log_at_opt=0.0, iterations=0)

    def psi(lam):
        m, dm, d2m = _mgf_log_derivatives(L, K, lam, quad_order)
        return -lam * L * N - m, -L * N - dm, -d2m

    lo, hi, lam = 0.0, math.inf, 4.0 * lambda_star(BoundQuery(N, L))
    evaluations = 1
    value, d1, d2 = psi(lam)
    for _ in range(RATE_MAX_STEPS):
        if d1 > 0.0:
            lo = lam
        elif d1 < 0.0:
            hi = lam
        else:
            break
        # a NaN step (d2 = 0) fails the bracket test too
        step = -d1 / d2 if d2 < 0.0 else math.nan
        if not lo < lam + step < hi:
            step = 0.5 * (lo + hi) - lam
        if abs(step) <= 1e-10 * max(1.0, lam):
            break
        lam += step
        evaluations += 1
        value, d1, d2 = psi(lam)
    else:
        warnings.warn(
            f"rate search did not converge in {RATE_MAX_STEPS} steps: bracket [{lo!r}, {hi!r}]",
            ConvergenceWarning,
        )
    # Jensen: psi(lam) <= lam * (mean - L*N); near the mean this is below
    # the rounding of psi, which the search can otherwise end on
    rate = min(value, lam * (mean - L * N))
    if rate <= 0.0:
        return RateFunctionResult(rate=0.0, lambda_opt=0.0, mgf_log_at_opt=0.0, iterations=evaluations)
    return RateFunctionResult(
        rate=rate,
        lambda_opt=lam,
        mgf_log_at_opt=-rate - lam * L * N,
        iterations=evaluations,
    )


def _spreads(L, n, rng, count, K=None):
    """Each list's spread sum_j sum_l (x_lj - xbar_j)^2 for ``count`` lists
    drawn from ``rng``.  Each coordinate block is filled sample-major, in
    slices of at most SLICE floats (or one sample's block, if longer), so the
    stream is consumed in the same order as one fill of the whole block.

    With K = None the statistic is taken on standard uniforms, no scale
    applied: the spread is unchanged by translation and grows by (2K)^2
    under scaling.  At L = 2 it is half the squared distance of the two
    points, which depends only on the n gaps |u_1j - u_2j|; each gap has
    the triangular density 2(1 - d) on [0, 1], so it is drawn as 1 - sqrt(v)
    from one uniform v (inverse transform), one draw per coordinate, and the
    statistic is (1/2) sum_j d_j^2.  At L >= 3 it is sum u^2 - |sum_l u_l|^2/L
    on L uniforms per coordinate.  With a float K (L >= 3 only) it is taken
    on the coordinates of rng.uniform(-K, K), -K + 2K u scaled in place, by
    the same two sums, with each list's coordinate sums added point by point
    (the order of x.sum(axis=1), save that numpy adds a one-coordinate block
    of L >= 8 points pairwise)."""
    q = np.zeros(count)
    s2 = np.zeros(count)
    b = min(n, NBLOCK)
    pair = L == 2
    width = 1 if pair else L
    rows = max(1, SLICE // (width * b))
    buf = np.empty(min(count, rows) * width * b)
    for j0 in range(0, n, NBLOCK):
        nb = min(NBLOCK, n - j0)
        for r0 in range(0, count, rows):
            r1 = min(count, r0 + rows)
            if pair:
                d = buf[: (r1 - r0) * nb].reshape(r1 - r0, nb)
                rng.random(out=d)
                np.sqrt(d, out=d)
                np.subtract(1.0, d, out=d)
                q[r0:r1] += np.einsum("ij,ij->i", d, d)
                continue
            x = buf[: (r1 - r0) * L * nb].reshape(r1 - r0, L, nb)
            rng.random(out=x)
            if K is not None:
                x *= 2.0 * K
                x -= K
            q[r0:r1] += np.einsum("ilj,ilj->i", x, x)
            s = x[:, 0] + x[:, 1]
            for l in range(2, L):
                s += x[:, l]
            s2[r0:r1] += np.einsum("ij,ij->i", s, s)
    return 0.5 * q if pair else q - s2 / L


def _tail_delta(L, n, K):
    """A bound delta, exact, on |(2K)^2 s_u - s_x| for every list of L >= 3
    points in n dimensions, where s_u is _spreads' statistic on the standard
    uniforms u and s_x the one it computes at a float K, on the coordinates
    x = fl(fl(2K u) - K) that rng.uniform(-K, K) gives.

    Notation (Higham, Accuracy and Stability of Numerical Algorithms, 2nd
    ed.: the model of arithmetic of section 2.2, Lemmas 3.1 and 3.3, and the
    error of a sum in any order, chapter 4): u = 2^-53 is the unit roundoff,
    gamma_k = k u/(1 - k u), and eta = 2^-1075 bounds the absolute error a
    product or quotient adds when it underflows; sums and differences never
    do.  S(y) = ||A y||^2,
    with A = I - J/L the centering projection applied coordinate by
    coordinate, is the exact spread, so S(x^) = (2K)^2 S(u) for the exact
    uniforms x^ = 2K(u - 1/2).

    (i) Each kernel forms q - s2/L, q the sum of squares and s2 the sum over
    coordinates of the squared list sums.  With b = min(n, NBLOCK) and m
    blocks, a term x_l x_l' of the expansion passes through at most
    k = L b + 2L + m roundings whatever order numpy adds in: a square, L b - 1
    adds in its block's einsum, m - 1 across blocks and the final subtraction
    for q; 2(L - 1) list adds, the square, b - 1 and m - 1 adds, the division
    by L and the subtraction for s2.  By Lemmas 3.1 and 3.3 the computed
    value is then the sum of the terms, each times some 1 + theta_k with
    |theta_k| <= gamma_k, so it is within gamma_k (sum y^2 + sum_j
    (sum_l |y_lj|)^2 / L) <= 2 gamma_k L n max|y|^2 of S(y).  For u in
    [0, 1) that is 2 gamma_k L n; no product of uniforms underflows (u = 0
    or u >= 2^-53).  For x, with |x| <= K, it is 2 gamma_k L n K^2, plus
    (L n + n + 1)(1 + gamma_k) eta for the underflows of the L n + n
    products and the division.

    (ii) 2K is exact, fl(2K u) = 2K u (1 + e1) + eta1 and x = fl(fl(2K u) - K)
    = (fl(2K u) - K)(1 + e2), so |x - x^| <= K u (3 + 2u) + 2 eta; as A is
    an orthogonal projection, |S(x) - S(x^)| <= ||x - x^|| (||x|| + ||x^||)
    <= 2 L n K^2 u (3 + 2u) + 4 L n K eta.

    Adding (2K)^2 times (i) for u, (i) for x and (ii):
        delta = L n K^2 (10 gamma_k + 6u + 4u^2)
                + eta (4 L n K + (L n + n + 1)(1 + gamma_k)).
    k u < 1 for every L whose one list of one block fits in memory.
    """
    from fractions import Fraction

    u, eta, K = Fraction(1, 2**53), Fraction(1, 2**1075), Fraction(K)
    k = L * min(n, NBLOCK) + 2 * L + -(-n // NBLOCK)
    g = k * u / (1 - k * u)
    return (L * n * K * K * (10 * g + 6 * u + 4 * u * u)
            + eta * (4 * L * n * K + (L * n + n + 1) * (1 + g)))


def _round_toward(x, toward):
    """The double nearest the rational x on the side of ``toward`` (-inf:
    the largest double at most x; inf: the smallest double at least x), with
    x first clamped to the finite doubles, which compare alike with every
    finite statistic."""
    from fractions import Fraction

    big = Fraction(sys.float_info.max)
    x = min(max(x, -big), big)
    f = float(x)
    if (Fraction(f) > x) if toward < 0 else (Fraction(f) < x):
        f = math.nextafter(f, toward)
    return f


def _scaled_threshold(K, threshold):
    """threshold/(2K)^2 in exact rationals: the threshold on the statistic
    of the standard uniforms.  An infinite threshold, where L*n*N
    overflowed, is taken as the largest double."""
    from fractions import Fraction

    return Fraction(min(threshold, sys.float_info.max)) / (4 * Fraction(K) ** 2)


def _tail_band(L, n, K, threshold):
    """The floats (lo, hi), for L >= 3, outside which _spreads' statistic
    s_u on the standard uniforms decides a list as its statistic s_x on
    rng.uniform(-K, K)'s coordinates does, s_x <= threshold: s_u <= lo is a
    hit and s_u > hi a miss, since lo <= (threshold - delta)/(2K)^2 and
    hi >= (threshold + delta)/(2K)^2 exactly (_tail_delta); a list between
    them is in the rounding band.  The edges are rounded outward from exact
    rationals (_round_toward)."""
    from fractions import Fraction

    t = _scaled_threshold(K, threshold)
    d = _tail_delta(L, n, K) / (4 * Fraction(K) ** 2)
    return _round_toward(t - d, -math.inf), _round_toward(t + d, math.inf)


def _tail_chunk(L, n, K, threshold, band, rng, count):
    """Hits, lists whose spread is at most ``threshold``, in one chunk of
    ``count`` lists of L >= 3 points drawn from ``rng``, as
    rng.uniform(-K, K)'s coordinates give them.  The lists are decided on
    the standard uniforms against ``band`` (_tail_band); a chunk holding any
    list in the rounding band is drawn again from the generator's state at
    its start and counted on rng.uniform(-K, K)'s coordinates."""
    lo, hi = band
    state = rng.bit_generator.state
    s = _spreads(L, n, rng, count)
    if np.any((s > lo) & (s <= hi)):
        rng.bit_generator.state = state
        return int((_spreads(L, n, rng, count, K) <= threshold).sum())
    return int((s <= lo).sum())


def mc_tail(L: int, n: int, K: float, N: float, samples: int, seed) -> TailEstimate:
    """Monte Carlo estimate of P(average squared radius <= n*N).

    Draws ``samples`` independent L-lists with coordinates uniform on
    [-K, K]^n and counts hits of the closed event, accumulating the
    quadratic form coordinate-block by coordinate-block so full lists are
    never materialized for large n.  Each block of NBLOCK coordinates is
    drawn in slices of at most SLICE = 2^15 floats (256 KB), so a worker
    holds one slice, not a chunk's whole block.  The lists are drawn chunk by
    chunk through rng.chunk_sum, on the workers MULTIPACK_THREADS sets, so
    the hit count is a pure function of (seed, sample index) and
    bit-identical for every worker count and slice size.

    At L = 2 a list is drawn as its n coordinate gaps, one uniform each
    (_spreads), and is a hit when half its squared distance on the unit
    scale is at most the largest double at or below threshold/(2K)^2, taken
    in exact rationals: a single float comparison, with no band and no
    recount.  The hits follow the law of two uniform points; they are not
    those of any one draw of the points' coordinates.  At L >= 3 each list
    is decided on the standard uniforms behind its coordinates, and a chunk
    holding a list within the rounding bound delta of the threshold
    (_tail_delta) is counted again with rng.uniform(-K, K)'s coordinates,
    so the hits are those of that arithmetic, bit for bit.  K above 2^400,
    where squared coordinates overflow, is refused for every L.
    """
    L, n = check_count("L", L, 2), check_count("n", n, 1)
    K, N = check_positive("K", K), check_positive("N", N)
    if K > 2.0**400:
        raise ValueError(f"K must be at most 2^400, where squared coordinates overflow, got {K!r}")
    samples = check_count("samples", samples, 1000)
    seed = check_seed(seed)
    threshold = L * n * N
    if L == 2:
        edge = _round_toward(_scaled_threshold(K, threshold), -math.inf)
        hits = chunk_sum(seed, samples, lambda rng, m: int((_spreads(L, n, rng, m) <= edge).sum()))
    else:
        band = _tail_band(L, n, K, threshold)
        hits = chunk_sum(seed, samples, lambda rng, m: _tail_chunk(L, n, K, threshold, band, rng, m))
    p_hat = hits / samples
    ci_low, ci_high = _clopper_pearson(hits, samples)
    # with no hits the exponent is the lower bound the interval's ceiling gives
    exponent_hat = -math.log(p_hat if hits else ci_high) / n
    return TailEstimate(
        L=L,
        n=n,
        K=K,
        N=N,
        samples=samples,
        hits=hits,
        p_hat=p_hat,
        exponent_hat=exponent_hat,
        ci_low=ci_low,
        ci_high=ci_high,
        seed=seed,
    )
