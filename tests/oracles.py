"""Exhaustive references for the near-pair list engine, the verifier, the
coverage Monte Carlo, the enclosing-ball solver and the 1-D mgf_log
quadrature.

They scan every L-subset, every window pair or tile, every tile of the 3^n
ring, every circumscribed ball or a dense tensor grid, so they are only for
small inputs.
"""

import itertools
import math

import numpy as np
from scipy.spatial import cKDTree

from multipack import BudgetError, construction, enumerate_window
from multipack.deviation import LOG2, _leggauss, _validate_quad_args

COMBO_CHUNK = 200_000


def _combo_batches(M, L):
    it = itertools.combinations(range(M), L)
    while True:
        batch = list(itertools.islice(it, COMBO_CHUNK))
        if not batch:
            return
        yield np.array(batch, dtype=np.intp)


def scan_subsets(points, L, threshold):
    """Every L-subset in lexicographic order: the index tuples with average
    squared radius <= threshold, and (minimum, first minimiser).

    The radius is the mean pairwise squared distance, summed over the pairs
    in combinations order from exact differences.
    """
    X = np.asarray(points, dtype=float)
    diff = X[:, None, :] - X[None, :, :]
    D2 = np.einsum("ijk,ijk->ij", diff, diff)
    pair_cols = list(itertools.combinations(range(L), 2))
    best = (math.inf, None)
    bad = []
    for C in _combo_batches(len(X), L):
        S = np.zeros(len(C))
        for a, b in pair_cols:
            S += D2[C[:, a], C[:, b]]
        avg = S / (L * L)
        i = int(np.argmin(avg))
        if avg[i] < best[0]:
            best = (float(avg[i]), tuple(int(v) for v in C[i]))
        for row in np.flatnonzero(avg <= threshold):
            bad.append(tuple(int(v) for v in C[row]))
    return bad, best


def window_bad_lists(c, window_radius):
    """The window points around the origin and every L-subset of them with
    average squared radius <= n*N, same-tile or not."""
    code = c.base
    pts = enumerate_window(c, np.zeros(code.n), window_radius)
    bad, _ = scan_subsets(pts, code.L, code.n * code.N)
    return pts, bad


def same_tile_min_per_tile(c, window_radius):
    """The same-tile pass of verify_packing, one tile at a time: the smallest
    average squared radius over the L-subsets of each tile's window points,
    the base indices of the first subset attaining it (in tile order), and
    the same-tile list count sum C(tile size, L)."""
    code = c.base
    pts, tiles, base_idx = construction._window(c, np.zeros(code.n), window_radius)
    best, best_rows, lists = math.inf, None, 0
    for t in np.unique(tiles):
        rows = np.flatnonzero(tiles == t)
        lists += math.comb(len(rows), code.L)
        value, subset = construction._min_list(pts[rows], code.L)
        if value < best:
            best, best_rows = value, rows[list(subset)]
    indices = None if best_rows is None else tuple(int(i) for i in base_idx[best_rows])
    return best, indices, lists


def cross_tile_min_sq_gram(c, window_radius):
    """The smallest squared distance between window points of different
    tiles, over all W^2 pairs in 512-row blocks of the Gram form
    |x|^2 + |y|^2 - 2 x.y (inf with fewer than two tiles)."""
    pts, tiles, _ = construction._window(c, np.zeros(c.base.n), window_radius)
    best = math.inf
    for start in range(0, len(pts), 512):
        stop = min(start + 512, len(pts))
        d2 = (
            np.einsum("ij,ij->i", pts[start:stop], pts[start:stop])[:, None]
            + np.einsum("ij,ij->i", pts, pts)[None, :]
            - 2.0 * pts[start:stop] @ pts.T
        )
        cross = tiles[start:stop, None] != tiles[None, :]
        if cross.any():
            best = min(best, float(d2[cross].min()))
    return best


def ring_covered(c, P, mc_samples, seed):
    """density_report's covered count, tested against the base code and all
    3^n - 1 neighbour translates of it."""
    code = c.base
    n = code.n
    ring = np.array(list(itertools.product((-1.0, 0.0, 1.0), repeat=n))) * c.period
    tree = cKDTree((ring[:, None, :] + code.points[None, :, :]).reshape(-1, n))
    r_cov = math.sqrt(n * code.N)
    samples = construction._cell_samples(n, c.period, math.sqrt(n * P), mc_samples, seed)
    return sum(int((tree.query(y, k=1)[0] <= r_cov).sum()) for y in samples)


def _circumcenter(P: np.ndarray):
    """Center equidistant from the rows of P within their affine hull.

    Returns None when the points are affinely dependent (singular system).
    """
    if len(P) == 1:
        return P[0]
    V = P[1:] - P[0]
    G = V @ V.T
    b = 0.5 * np.einsum("ij,ij->i", V, V)
    try:
        alpha = np.linalg.solve(G, b)
    except np.linalg.LinAlgError:
        return None
    c = P[0] + alpha @ V
    if not np.all(np.isfinite(c)):
        return None
    return c


def chebyshev_radius_exact(pl) -> tuple[float, np.ndarray]:
    """Exhaustive smallest-enclosing-ball oracle for small lists.

    The optimal ball is the circumscribed ball of some affinely independent
    subset of at most min(L, n+1) points, so enumerating every subset's
    circumcenter and taking the smallest covering radius is exact up to
    linear-solve round-off.  Refuses instances beyond L = 12 or subset size
    6.  Returns (radius_sq, center).
    """
    X = pl.points
    L, n = X.shape
    m_max = min(L, n + 1)
    if L > 12 or m_max > 6:
        raise BudgetError(
            f"oracle budget exceeded: L = {L}, subset size = {m_max} "
            "(limits: L <= 12, min(L, n+1) <= 6)"
        )
    best = math.inf
    best_center = X[0]
    for m in range(1, m_max + 1):
        for idx in itertools.combinations(range(L), m):
            c = _circumcenter(X[list(idx)])
            if c is None:
                continue
            diff = X - c
            r2 = float(np.einsum("ij,ij->i", diff, diff).max())
            if r2 < best:
                best = r2
                best_center = c
    return best, np.array(best_center)


def mgf_log_tensor(L: int, K: float, lam: float, quad_order: int = 64) -> float:
    """Reference evaluation of mgf_log on the dense tensor product grid.

    Accurate only while the Gaussian ridge width 1/sqrt(K^2*lam) is resolved
    by the per-axis rule, so this serves as an independent cross-check at
    moderate K^2*lam, not as the production path.
    """
    L, K, lam, quad_order = _validate_quad_args(L, K, lam, quad_order)
    if quad_order**L > 2 * 10**7:
        raise BudgetError(f"tensor grid {quad_order}^{L} exceeds the 2e7 budget")
    if lam == 0.0:
        return 0.0
    c = K * K * lam
    x, w = _leggauss(quad_order)
    grids = np.meshgrid(*([x] * L), indexing="ij")
    T = np.stack([g.ravel() for g in grids], axis=1)
    wgrids = np.meshgrid(*([w] * L), indexing="ij")
    wprod = np.ones(T.shape[0])
    for g in wgrids:
        wprod *= g.ravel()
    form = np.einsum("ij,ij->i", T, T) - T.sum(axis=1) ** 2 / L
    total = float(wprod @ np.exp(-c * form))
    return min(math.log(total) - L * LOG2, 0.0)
