"""Exhaustive references for the near-pair list engine, the verifier and the
coverage Monte Carlo.

They scan every L-subset, every window pair or every tile of the 3^n ring,
so they are only for small inputs.
"""

import itertools
import math

import numpy as np
from scipy.spatial import cKDTree

from multipack import construction, enumerate_window

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
