"""Exhaustive references for the near-pair list engine and the verifier.

Both scan every L-subset, so they are only for small inputs.
"""

import itertools
import math

import numpy as np

from multipack import enumerate_window

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
