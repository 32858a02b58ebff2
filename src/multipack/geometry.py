"""Radius calculus for L-point lists in R^n.

Average squared radius in four algebraically equal forms, the Chebyshev
(smallest enclosing ball) squared radius via an active-set solver with a
duality-gap certificate, power-mean relaxations between the two (damped
Newton), and the spectral decomposition of the centering quadratic form.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceWarning
from .rng import check_count, check_positive

AVG_FORMULAS = ("centroid", "norm_minus_center", "correlation", "pairwise")

# both radius solvers' relative stopping tolerance; the cap on the
# enclosing-ball solver's major steps, per point and per e-fold of 1/TOL
# (21 of them), and on rad_p's damped Newton steps over all its stages
TOL = 1e-9
CHEB_STEPS = 100
RAD_P_STEPS = 20000


@dataclass(frozen=True)
class PointList:
    """An ordered list of L >= 2 points in R^n, one per row of ``points``."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)
        if pts.ndim != 2:
            raise ValueError("points must be a 2-D array of shape (L, n)")
        if pts.shape[0] < 2:
            raise ValueError(f"need at least 2 points, got {pts.shape[0]}")
        if pts.shape[1] < 1:
            raise ValueError("points must have at least one coordinate")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    @property
    def L(self) -> int:
        return self.points.shape[0]

    @property
    def n(self) -> int:
        return self.points.shape[1]

    def centroid(self) -> np.ndarray:
        return self.points.mean(axis=0)


@dataclass(frozen=True)
class SimplexWeights:
    """A probability vector over list indices."""

    z: np.ndarray

    def __post_init__(self):
        z = np.array(self.z, dtype=float)
        if z.ndim != 1:
            raise ValueError("weights must be a 1-D vector")
        if (z < 0).any():
            raise ValueError("weights must be nonnegative")
        if abs(z.sum() - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1, got {float(z.sum())!r}")
        z.flags.writeable = False
        object.__setattr__(self, "z", z)


@dataclass(frozen=True)
class ChebResult:
    """Output of the enclosing-ball solver.

    ``radius_sq`` reports ``upper``, the squared covering radius around the
    returned center, so it is always a valid radius for the whole list.
    ``lower`` is the dual objective value; ``gap = upper - lower`` bounds the
    distance to optimality.
    """

    radius_sq: float
    center: np.ndarray
    weights: SimplexWeights
    lower: float
    upper: float
    gap: float
    iterations: int
    converged: bool


@dataclass(frozen=True)
class SpectralPair:
    """Eigen-structure A = U D U^T of the centering matrix A = I - J/L."""

    A: np.ndarray
    U: np.ndarray
    D: np.ndarray


def pairwise_sq_dists(X: np.ndarray) -> np.ndarray:
    """Dense matrix of squared Euclidean distances between rows of X."""
    sq = np.einsum("ij,ij->i", X, X)
    D2 = sq[:, None] + sq[None, :] - 2.0 * (X @ X.T)
    np.maximum(D2, 0.0, out=D2)
    np.fill_diagonal(D2, 0.0)
    return D2


def avg_sq_radius(pl: PointList, formula: str = "centroid") -> float:
    """Mean squared distance from the points to their centroid.

    ``formula`` picks one of four algebraically equal evaluations, kept
    separate so they can cross-check each other: direct centroid distances,
    mean squared norm minus squared centroid norm, the norm/correlation
    split, and the mean pairwise squared distance.
    """
    X = pl.points
    L = pl.L
    if formula == "centroid":
        diff = X - X.mean(axis=0)
        return float(np.einsum("ij,ij->", diff, diff) / L)
    if formula == "norm_minus_center":
        xbar = X.mean(axis=0)
        return float(np.einsum("ij,ij->", X, X) / L - xbar @ xbar)
    if formula == "correlation":
        G = X @ X.T
        tr = float(np.trace(G))
        off = float(G.sum()) - tr
        return (L - 1) / L**2 * tr - off / L**2
    if formula == "pairwise":
        return float(pairwise_sq_dists(X).sum() / (2.0 * L**2))
    raise ValueError(f"unknown formula {formula!r}; options: {AVG_FORMULAS}")


def avg_sq_radius_spherical(pl: PointList, P: float) -> float:
    """Average squared radius of an equal-norm list: n*P - ||centroid||^2.

    Every point must satisfy ||x_i||^2 = n*P to relative 1e-9.
    """
    nP = pl.n * check_positive("P", P)
    sq = np.einsum("ij,ij->i", pl.points, pl.points)
    off = np.abs(sq - nP) > 1e-9 * nP
    if off.any():
        i = int(np.argmax(off))
        raise ValueError(
            f"point {i} is off the sphere: ||x||^2 = {float(sq[i])!r}, expected n*P = {float(nP)!r}"
        )
    xbar = pl.centroid()
    return float(nP - xbar @ xbar)


def quadratic_form_g(t) -> float:
    """Centered second-moment form: sum(t_i^2) - (sum t_i)^2 / L."""
    t = np.asarray(t, dtype=float).ravel()
    if t.size < 2:
        raise ValueError("need at least 2 entries")
    s = float(t.sum())
    return float(t @ t - s * s / t.size)


def spectral_pair(L: int) -> SpectralPair:
    """Orthonormal eigenbasis of the centering matrix.

    Columns 1..L-1 of U span the zero-mean subspace (eigenvalue 1, each
    column starts with a negative entry); the last column is the normalized
    all-ones kernel vector, whose l1 norm sqrt(L) sets the width 2*sqrt(L)
    of the slab the cube maps to along that direction.
    """
    L = check_count("L", L, 2)
    U = np.zeros((L, L))
    U[:, L - 1] = 1.0 / math.sqrt(L)
    for k in range(1, L):
        col = k - 1
        head = L - k
        U[0, col] = -1.0 / math.sqrt(k * (k + 1))
        U[head, col] = math.sqrt(k / (k + 1))
        U[head + 1 :, col] = -1.0 / math.sqrt(k * (k + 1))
    A = np.eye(L) - np.full((L, L), 1.0 / L)
    D = np.diag([1.0] * (L - 1) + [0.0])
    return SpectralPair(A=A, U=U, D=D)


def _support_factor(P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """B = (P[1:] - P[0]).T, the edges of the support P from its first row,
    and the triangular factor R of the QR decomposition of B: one
    factorization serves both the hull test and the circumcentre of P."""
    B = (P[1:] - P[0]).T
    return B, np.linalg.qr(B, mode="r")


def _circumcentre_weights(B: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Affine weights (summing to 1) over the rows of the support P whose
    _support_factor is (B, R), of the point in their affine hull that is
    equidistant from all of them.  The rows must be affinely independent."""
    if B.shape[1] == 0:
        return np.ones(1)
    # c = P[0] + B beta with 2 b_j.(c - P[0]) = |b_j|^2 for every column b_j
    # of B: (R^T R) beta = |b|^2 / 2, through the triangular factor so the
    # conditioning is that of B, not of its Gram matrix
    beta = np.linalg.solve(R, np.linalg.solve(R.T, 0.5 * np.einsum("ij,ij->j", B, B)))
    return np.concatenate(([1.0 - beta.sum()], beta))


def _hull_dependence(B: np.ndarray, R: np.ndarray) -> np.ndarray | None:
    """When the last row of the support P whose _support_factor is (B, R)
    lies in the affine hull of the others (which must be affinely
    independent), the vector v with v[-1] = 1, sum(v) = 0 and
    sum_i v_i P_i = 0; otherwise None.

    The last row counts as in the hull when its distance from it is at most
    1e-10 of its distance from P[0], or when the other rows already span
    every axis.
    """
    k = B.shape[1] - 1
    if k < B.shape[0] and abs(R[k, k]) > 1e-10 * math.sqrt(float(B[:, k] @ B[:, k])):
        return None
    gamma = np.linalg.solve(R[:k, :k], R[:k, k])
    return np.concatenate(([gamma.sum() - 1.0], -gamma, [1.0]))


def _step_to_face(z: np.ndarray, S: list, dz: np.ndarray, cap: float) -> list:
    """Moves z[S] by t * dz for the largest t <= cap that keeps z >= 0, sets
    the weight that reaches 0 first (when t < cap) to exactly 0, and returns
    the indices of S whose weight stays positive."""
    zS = z[S]
    out = np.flatnonzero(dz < 0)
    ratios = zS[out] / -dz[out]
    t = min(cap, float(ratios.min(initial=math.inf)))
    z[S] = np.maximum(zS + t * dz, 0.0)
    if t < cap:
        z[S[out[np.argmin(ratios)]]] = 0.0
    return [i for i in S if z[i] > 0]


def chebyshev_radius(pl: PointList) -> ChebResult:
    """Squared radius of the smallest ball enclosing the list.

    Maximizes the concave dual f(z) = sum_i z_i ||x_i||^2 - ||sum_i z_i x_i||^2
    over the simplex by a Wolfe-style active-set method, on the points less
    their centroid (the centroid is added back to ``center``), so the
    certificate does not cancel far from the origin.  The support S starts
    as the point farthest from the centroid.  Each major step adds the point
    s farthest from the current center y = sum_i z_i x_i.  If s lies in the
    affine hull of S, weight moves along the affine dependence, which keeps
    y and raises f, until a point of S reaches weight 0 and leaves.  Minor
    cycles then step from z toward the exact optimum over the affine hull of
    S (the circumcentre of S), stopping where a weight reaches 0 and dropping
    that point, until the optimum has all weights positive.  Weights off S
    are exactly 0, and ties break to the lowest index.

    Stops once the duality gap upper - lower drops to TOL * max(1, lower),
    a test that scales with the list as the certificate's round-off (about
    3 * eps * upper) does; lower <= upper keeps it at least as strict as
    TOL * max(1, upper).  f rises at every major step, so no support recurs
    in exact arithmetic, and the farthest point is never one of S, which y
    is equidistant from.  When either happens (round-off) or the
    CHEB_STEPS * L * 21 major steps run out first, the solver stops, a
    ConvergenceWarning is raised and the gap is reported as-is.
    """
    xbar = pl.centroid()
    X = pl.points - xbar
    L = pl.L
    max_steps = CHEB_STEPS * L * 21
    S = [int(np.argmax(np.einsum("ij,ij->i", X, X)))]
    z = np.zeros(L)
    z[S[0]] = 1.0
    seen = set()
    iterations = 0
    for iterations in range(max_steps + 1):
        y = z @ X
        diff = X - y
        d = np.einsum("ij,ij->i", diff, diff)
        lower = float(z @ d)  # equals f(z)
        s = int(np.argmax(d))
        upper = float(d[s])
        gap = upper - lower
        converged = gap <= TOL * max(1.0, lower)
        # f rises at every major step, so a support met again means round-off;
        # so does a farthest point s in S, as y is equidistant from all of S
        if converged or iterations == max_steps or s in S or frozenset(S) in seen:
            break
        seen.add(frozenset(S))
        S.append(s)
        # each support is factored once; only a face step changes it
        factor = _support_factor(X[S])
        v = _hull_dependence(*factor)
        if v is not None:
            # f rises by (d_s - lower) per unit moved along v, y stays put
            S = _step_to_face(z, S, v, math.inf)
            factor = _support_factor(X[S])
        w = _circumcentre_weights(*factor)
        while (w <= 0).any():
            # f is concave and w maximizes it over the affine hull of S, so f
            # rises along the segment from z to w
            S = _step_to_face(z, S, w - z[S], 1.0)
            w = _circumcentre_weights(*_support_factor(X[S]))
        z[S] = w
    if not converged:
        warnings.warn(
            f"enclosing-ball solver stopped at gap {gap:.3e} (tol {TOL:.1e} * max(1, lower)) "
            f"after {iterations} iterations",
            ConvergenceWarning,
        )
    return ChebResult(
        radius_sq=upper,
        center=y + xbar,
        weights=SimplexWeights(z),
        lower=lower,
        upper=upper,
        gap=gap,
        iterations=iterations,
        converged=converged,
    )


def rad_p(pl: PointList, p: float) -> float:
    """Power-mean relaxation of the squared list radius.

    Minimizes F(y) = mean_i ||x_i - y||^(2p) over the center y and returns
    F^(1/p) at the minimum.  With r_i^2 = ||x_i - y||^2, d_i = y - x_i,
    m = max_i r_i^2 and w_i = (r_i^2/m)^(q-1), the power-q objective has
    grad F = (2q/(Lm)) sum_i w_i d_i and Hessian (2q/(Lm)) [sum_i w_i I +
    2(q-1) curv], curv = sum_i (w_i / r_i^2) d_i d_i^T, both in units of
    m^q, which keeps (r_i^2/m)^q <= 1 at any q.  The farthest point has
    w = 1, so sum_i w_i >= 1, and |d_i|^2 = r_i^2 gives 0 <= curv <=
    sum_i w_i I, hence

        sum_i w_i I  <=  (Lm/(2q)) Hessian  <=  (2q - 1) sum_i w_i I:

    the Hessian is positive definite with condition number at most 2q - 1,
    so every Newton direction descends and F is convex.  Damped Newton steps
    with Armijo backtracking follow the power by continuation: q starts at
    min(p, 4) from the centroid, and each stage that converges sets
    q = min(p, 4q) and starts from the last stage's minimizer.  The factor 4
    makes every p <= 4 one stage from the centroid; at larger p a stage
    starts where the previous power's minimizer already balances the
    farthest points, which Newton on F alone (it moves only 1/(2q-1) of the
    way wherever one point dominates) cannot reach from the centroid.

    A stage below p ends once the relative gradient sqrt(m) ||grad F|| /
    (q F) is at most 1e-3, or when a step lowers F by no more than 1e-18 F
    (round-off).  The last stage, q = p, stops once the relative gradient is
    at most TOL, a test independent of the scale of the list, or at the
    round-off stop, which counts as converged when the Newton decrement
    -grad F . direction, about 2(F - min F), is at most 2*TOL*p*F: F^(1/p)
    is then within a relative TOL of its minimum.  At p > 4 the last stage
    also ends at that decrement: (r_i^2/m)^p amplifies the rounding of
    r_i^2/m about p-fold, so steps can keep "lowering" F by far more than
    1e-18 F while circling the minimum.  When RAD_P_STEPS steps
    run out first, a ConvergenceWarning is raised and the smaller of the
    value at the last iterate and at chebyshev_radius's centre is returned,
    so an unconverged value too stays at most the squared Chebyshev radius.
    The result is m * mean((r_i^2/m)^p)^(1/p).  p = 1 gives avg_sq_radius
    up to round-off; the value is nondecreasing in p, at most the squared
    Chebyshev radius, and approaches it as p grows.
    """
    if not 1 <= p < math.inf:
        raise ValueError(f"p must be finite and >= 1, got {p}")
    X = pl.points
    L = pl.L
    if (X == X[0]).all():
        return 0.0
    eye = np.eye(pl.n)

    def radii(yv):
        diff = yv - X
        return diff, np.einsum("ij,ij->i", diff, diff)

    def value(r2v):
        m = float(r2v.max())
        return m * float(((r2v / m) ** p).sum() / L) ** (1.0 / p)

    y = pl.centroid()
    diff, r2 = radii(y)
    # every p <= 4 is one stage from the centroid
    q = min(p, 4.0)
    converged = False
    rel_grad, slope = math.inf, -math.inf
    # (r2/m)^q at a trial point of the line search may overflow to inf, which
    # the Armijo test rejects
    with np.errstate(over="ignore"):
        for _ in range(RAD_P_STEPS):
            m = float(r2.max())
            w = (r2 / m) ** (q - 1.0)
            obj = float(((r2 / m) ** q).sum() / L)  # F / m^q
            grad = (2.0 * q / (L * m)) * (w @ diff)  # grad F / m^q
            rel_grad = math.sqrt(float(grad @ grad) * m) / (q * obj)
            stage_done = rel_grad <= (TOL if q == p else 1e-3)
            if not stage_done:
                curv = (diff.T * (w / np.maximum(r2, 1e-300))) @ diff
                H = (2.0 * q / (L * m)) * (w.sum() * eye + 2.0 * (q - 1.0) * curv)
                direction = -np.linalg.solve(H, grad)
                slope = float(grad @ direction)
                t = 1.0
                while True:
                    diff_new, r2_new = radii(y + t * direction)
                    obj_new = float(((r2_new / m) ** q).sum() / L)
                    if obj_new <= obj + 1e-4 * t * slope or t < 1e-300:
                        break
                    t *= 0.5
                # progress below round-off ends the stage too, and at p > 4
                # so does a last-stage Newton decrement within TOL
                stage_done = obj - obj_new <= 1e-18 * obj or (
                    q == p and p > 4.0 and -slope <= 2.0 * TOL * q * obj
                )
                if obj_new < obj:
                    y = y + t * direction
                    diff, r2 = diff_new, r2_new
            if stage_done:
                if q == p:
                    # the gradient's round-off floor grows with p, so a
                    # round-off stop is judged by the Newton decrement
                    converged = rel_grad <= TOL or -slope <= 2.0 * TOL * q * obj
                    break
                q = min(p, 4.0 * q)
    if not converged:
        warnings.warn(
            f"rad_p Newton iteration left relative gradient norm {rel_grad:.3e} at p = {p}",
            ConvergenceWarning,
        )
        # a stopped descent can lie above the squared Chebyshev radius, which
        # the value at the enclosing ball's centre never exceeds
        return min(value(r2), value(radii(chebyshev_radius(pl).center)[1]))
    return value(r2)
