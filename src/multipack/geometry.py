"""Radius calculus for L-point lists in R^n.

Average squared radius in four algebraically equal forms, the Chebyshev
(smallest enclosing ball) squared radius via an away-step conditional
gradient solver with a duality-gap certificate, power-mean relaxations
between the two, and the spectral decomposition of the centering quadratic form.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceWarning

AVG_FORMULAS = ("centroid", "norm_minus_center", "correlation", "pairwise")


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
    if P <= 0:
        raise ValueError("P must be positive")
    nP = pl.n * P
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
    if not isinstance(L, (int, np.integer)) or L < 2:
        raise ValueError("L must be an integer >= 2")
    L = int(L)
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


def chebyshev_radius(pl: PointList, tol: float = 1e-9, max_iters: int | None = None) -> ChebResult:
    """Squared radius of the smallest ball enclosing the list.

    Maximizes the concave dual f(z) = sum_i z_i ||x_i||^2 - ||sum_i z_i x_i||^2
    over the simplex by conditional gradient with away steps and exact line
    search on the 1-D quadratic.  Initial weights are uniform and argmax /
    argmin ties break to the lowest index.  Stops once the duality gap
    upper - lower drops to ``tol``; non-convergence within ``max_iters``
    (by default 100 * L * max(1, ceil(ln(1/tol)))) raises a
    ConvergenceWarning and the gap is reported as-is.
    """
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    X = pl.points
    L = pl.L
    if max_iters is None:
        max_iters = 100 * L * max(1, math.ceil(math.log(1.0 / tol)))
    sq = np.einsum("ij,ij->i", X, X)
    z = np.full(L, 1.0 / L)
    iterations = 0
    for iterations in range(max_iters + 1):
        y = z @ X
        yy = float(y @ y)
        d = sq - 2.0 * (X @ y) + yy
        np.maximum(d, 0.0, out=d)
        lower = float(z @ d)  # equals f(z) = z.sq - yy
        s = int(np.argmax(d))
        upper = float(d[s])
        gap = upper - lower
        if gap <= tol or iterations == max_iters:
            break
        fw_gain = gap
        a = int(np.argmin(np.where(z > 0, d, np.inf)))
        aw_gain = lower - float(d[a])
        if fw_gain >= aw_gain:
            step_dir = X[s] - y
            denom = 2.0 * float(step_dir @ step_dir)
            gamma = 1.0 if denom <= 0 else min(1.0, fw_gain / denom)
            z *= 1.0 - gamma
            z[s] += gamma
        else:
            # away step: push weight off the worst active vertex
            gmax = z[a] / max(1.0 - z[a], 1e-300)
            step_dir = y - X[a]
            denom = 2.0 * float(step_dir @ step_dir)
            gamma = gmax if denom <= 0 else min(gmax, aw_gain / denom)
            z *= 1.0 + gamma
            z[a] -= gamma
            if z[a] < 0:
                z[a] = 0.0
    z = np.maximum(z, 0.0)
    z /= z.sum()
    y = z @ X
    yy = float(y @ y)
    d = sq - 2.0 * (X @ y) + yy
    np.maximum(d, 0.0, out=d)
    lower = float(z @ d)
    upper = float(d.max())
    gap = upper - lower
    converged = gap <= tol
    if not converged:
        warnings.warn(
            f"enclosing-ball solver stopped at gap {gap:.3e} (tol {tol:.1e}) "
            f"after {iterations} iterations",
            ConvergenceWarning,
        )
    return ChebResult(
        radius_sq=upper,
        center=y,
        weights=SimplexWeights(z),
        lower=lower,
        upper=upper,
        gap=gap,
        iterations=iterations,
        converged=converged,
    )


def rad_p(pl: PointList, p: float, tol: float = 1e-9, max_iters: int = 20000) -> float:
    """Power-mean relaxation of the squared list radius.

    Minimizes mean_i ||x_i - y||^(2p) over the center y (convex for p >= 1)
    by gradient descent with backtracking from the centroid, then returns
    the minimum to the power 1/p.  p = 1 reproduces avg_sq_radius exactly;
    the value is nondecreasing in p and approaches the squared Chebyshev
    radius as p grows.
    """
    if not 1 <= p < math.inf:
        raise ValueError(f"p must be finite and >= 1, got {p}")
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    X = pl.points
    L = pl.L
    y = pl.centroid()

    def value_grad(yv):
        diff = yv - X
        r2 = np.einsum("ij,ij->i", diff, diff)
        np.maximum(r2, 1e-300, out=r2)
        obj = float((r2**p).sum() / L)
        grad = (2.0 * p / L) * (r2 ** (p - 1.0)) @ diff
        return obj, grad

    obj, grad = value_grad(y)
    step = 1.0
    converged = False
    for _ in range(max_iters):
        gn2 = float(grad @ grad)
        if math.sqrt(gn2) <= tol * (1.0 + obj):
            converged = True
            break
        step *= 2.0
        while True:
            y_new = y - step * grad
            obj_new, grad_new = value_grad(y_new)
            if obj_new <= obj - 0.5 * step * gn2 or step < 1e-300:
                break
            step *= 0.5
        if obj - obj_new <= 1e-18 * (1.0 + obj):
            # progress below round-off; keep the better iterate and stop
            if obj_new < obj:
                y, obj, grad = y_new, obj_new, grad_new
            converged = math.sqrt(gn2) <= 1e-6 * (1.0 + obj)
            break
        y, obj, grad = y_new, obj_new, grad_new
    if not converged:
        warnings.warn(
            f"rad_p descent left gradient norm {math.sqrt(float(grad @ grad)):.3e} "
            f"at p = {p}",
            ConvergenceWarning,
        )
    return obj ** (1.0 / p)
