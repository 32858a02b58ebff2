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
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConvergenceWarning
from .rng import _clopper_pearson, check_count, check_positive, check_seed, chunk_sum

# coordinates are generated in blocks of this many dimensions per chunk;
# fixed constant, part of the (seed, index) -> draw mapping
NBLOCK = 128
# a block is drawn in slices of at most this many floats (256 KB); the slices
# follow the block's sample-major order, so they do not change the draws
SLICE = 2**15

LOG2 = math.log(2.0)

# Newton/bisection steps of the rate search after its bracket; bisection
# alone closes any bracket the doubling leaves in fewer
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


def _shoulder_nodes(c: float, order: int):
    """The panel half-widths, the nodes mu of the order and 2*order
    Gauss-Legendre rules on every panel (one row per panel, the order rule's
    nodes first), G at those nodes from one erf pass, and the two rules'
    weights.

    G(mu) = (erf(sqrt(c)(1-mu)) + erf(sqrt(c)(1+mu)))/2 is a smoothed
    indicator of [-1, 1] with shoulder width 1/sqrt(c), so the panels are
    pinned to the shoulders; the integrands are negligible beyond 8 widths
    outside.
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
    return half, mu, g, w1, w2


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

    With a = 1 - mu, b = 1 + mu and E(x) = x exp(-c x^2),
        dG/dc   = (E(a) + E(b)) / (2 sqrt(pi c)),
        d2G/dc2 = -(E(a)(1/(2c) + a^2) + E(b)(1/(2c) + b^2)) / (2 sqrt(pi c)),
        J'  = integral L G^(L-1) dG/dc,
        J'' = integral L(L-1) G^(L-2) (dG/dc)^2 + L G^(L-1) d2G/dc2.
    """
    half, mu, g, w1, w2 = _shoulder_nodes(c, order)
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
    and psi'' from one quadrature pass (_mgf_log_derivatives).  The bracket
    [lo, hi] is doubled until psi' < 0 at hi; then Newton steps on psi' = 0
    follow, with a bisection whenever a step would leave the bracket, until a
    step is at most 1e-10 * max(1, lam); more than RATE_MAX_STEPS steps
    warn.  The rate is psi at that last iterate, capped by Jensen's bound
    lam * (mean - L*N), and ``mgf_log_at_opt`` is derived from it, so no
    quadrature follows the search.  ``iterations`` counts the psi
    evaluations of bracket and search together.  The tail must be rare: L*N
    may not exceed the mean of the per-coordinate form; at the mean (within
    1e-12 relative) Jensen gives psi <= 0, and the rate is exactly 0.
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

    lo, lam = 0.0, 4.0 * (L - 1) / (2.0 * L * N)
    evaluations = 1
    value, d1, d2 = psi(lam)
    while d1 >= 0.0 and evaluations < 70:
        lo, lam = lam, 2.0 * lam
        evaluations += 1
        value, d1, d2 = psi(lam)
    hi = lam
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


def _tail_chunk(L, n, K, threshold, rng, count):
    """Hits in one chunk of ``count`` lists drawn from ``rng``.  Each
    coordinate block is filled sample-major, in slices of at most SLICE
    floats (or one sample's block, if longer), so the stream is consumed in
    the same order as one fill of the whole block."""
    q = np.zeros(count)
    s2 = np.zeros(count)
    rows = max(1, SLICE // (L * min(n, NBLOCK)))
    buf = np.empty(min(count, rows) * L * min(n, NBLOCK))
    for j0 in range(0, n, NBLOCK):
        nb = min(NBLOCK, n - j0)
        for r0 in range(0, count, rows):
            r1 = min(count, r0 + rows)
            x = buf[: (r1 - r0) * L * nb].reshape(r1 - r0, L, nb)
            # the draws and arithmetic of rng.uniform(-K, K, size=x.shape):
            # -K + (K - (-K)) * U, with U the standard uniform stream
            rng.random(out=x)
            x *= 2.0 * K
            x -= K
            q[r0:r1] += np.einsum("ilj,ilj->i", x, x)
            # each list's coordinate sums, added point by point: the order of
            # x.sum(axis=1), which is slow on short blocks, save that it adds
            # a one-coordinate block of L >= 8 points pairwise
            s = x[:, 0] + x[:, 1]
            for l in range(2, L):
                s += x[:, l]
            s2[r0:r1] += np.einsum("ij,ij->i", s, s)
    stat = q - s2 / L
    return int((stat <= threshold).sum())


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
    """
    L, n = check_count("L", L, 2), check_count("n", n, 1)
    K, N = check_positive("K", K), check_positive("N", N)
    samples = check_count("samples", samples, 1000)
    seed = check_seed(seed)
    hits = chunk_sum(seed, samples, lambda rng, m: _tail_chunk(L, n, K, L * n * N, rng, m))
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
