"""Closed-form density and exponent curves for (N, L-1) list packings.

All rates are natural-log based and per dimension.  The lower bounds may be
negative; no clamping is applied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .rng import check_count, check_positive

TWO_PI_E = 2.0 * math.pi * math.e


@dataclass(frozen=True)
class BoundQuery:
    """Noise level N > 0 and list size L >= 2."""

    N: float
    L: int

    def __post_init__(self):
        object.__setattr__(self, "N", check_positive("N", self.N))
        object.__setattr__(self, "L", check_count("L", self.L, 2))


@dataclass(frozen=True)
class ExponentQuery:
    """Bound query plus the cube half-width K > 0."""

    N: float
    L: int
    K: float

    def __post_init__(self):
        object.__setattr__(self, "N", check_positive("N", self.N))
        object.__setattr__(self, "L", check_count("L", self.L, 2))
        object.__setattr__(self, "K", check_positive("K", self.K))

    @property
    def query(self) -> BoundQuery:
        return BoundQuery(self.N, self.L)


def lb_ppp(q: BoundQuery) -> float:
    """Random-coding achievability rate with pair expurgation."""
    N, L = q.N, q.L
    return 0.5 * math.log((L - 1) / (TWO_PI_E * N * L)) - math.log(L) / (2 * (L - 1))


def lb_blachman_few(q: BoundQuery) -> float:
    """Classical achievability rate; weaker than lb_ppp by half a bit or so."""
    N, L = q.N, q.L
    return 0.5 * math.log((L - 1) / (2.0 * TWO_PI_E * N * L))


def ub_elias_bassalygo(q: BoundQuery) -> float:
    """Converse rate; meets lb_ppp up to the ln(L)/(2(L-1)) defect."""
    N, L = q.N, q.L
    return 0.5 * math.log((L - 1) / (TWO_PI_E * N * L))


def ld_capacity(N: float) -> float:
    """Large-list limit of both curves at noise level N."""
    return 0.5 * math.log(1.0 / (TWO_PI_E * check_positive("N", N)))


def exponent_E(q: ExponentQuery) -> float:
    """Decay exponent of the probability that L uniform points on [-K, K]^n
    form a list of average squared radius at most n*N."""
    N, L, K = q.N, q.L, q.K
    return (
        (L - 1) / 2.0 * math.log((L - 1) / (TWO_PI_E * N * L))
        - 0.5 * math.log(L)
        + (L - 1) * math.log(2.0 * K)
    )


def lambda_star(q: BoundQuery) -> float:
    """Maximizer of -L*N*lam + ((L-1)/2) ln(lam): the tilt used by the
    Gaussian-limit exponent."""
    return (q.L - 1) / (2.0 * q.L * q.N)


def lambda_n_prefactor(L: int) -> float:
    """(L!/2)^(1/(L-1)), the factor of lambda_n_threshold that does not
    grow with n."""
    return (math.factorial(L) / 2.0) ** (1.0 / (L - 1))


def lambda_n_threshold(q: ExponentQuery, n: int) -> float:
    """Point density above which expurgation removes half the code, at block
    length n.  K cancels from the exponent and does not affect the value.
    math.exp raises OverflowError once n * lb_ppp passes about 709."""
    n = check_count("n", n, 1)
    return lambda_n_prefactor(q.L) * math.exp(n * lb_ppp(q.query))


def log_threshold_size(q: ExponentQuery, n: int, rate_margin: float) -> float:
    """ln(lambda_n_threshold * e^(n*rate_margin) * (2K)^n), the code size the
    construction samples, summed from logs so that no factor leaves the doubles."""
    n = check_count("n", n, 1)
    return math.log(lambda_n_prefactor(q.L)) + n * (lb_ppp(q.query) + rate_margin + math.log(2.0 * q.K))


def accounting_target(q: ExponentQuery, n: int, rate_margin: float) -> float:
    """(ln M - ln 2)/n - ln 2K at ln M = log_threshold_size: the rate that
    survives when expurgation removes at most half of the sampled code (the
    alteration method), as `multipack construct` and the pipeline demo
    print it.  It is taken from the log, so it exists at any n."""
    return (log_threshold_size(q, n, rate_margin) - math.log(2.0)) / n - math.log(2.0 * q.K)


def ball_log_volume_rate(N: float) -> float:
    """Asymptotic (1/n) log-volume of the n-ball of radius sqrt(n*N)."""
    return 0.5 * math.log(TWO_PI_E * check_positive("N", N))


def ball_log_volume_rate_finite(N: float, n: int) -> float:
    """Exact (1/n) log-volume of the n-ball of radius sqrt(n*N).

    log Gamma(n/2 + 1) comes from scipy's gammaln, not math.lgamma: the two
    differ in the last bits for 11059 of n = 1..20000, so a swap would change
    the bits of DensityReport.predicted_delta."""
    from scipy.special import gammaln

    N = check_positive("N", N)
    n = check_count("n", n, 1)
    return 0.5 * math.log(n * N) + 0.5 * math.log(math.pi) - float(gammaln(n / 2.0 + 1.0)) / n
