"""Exhaustive references for the near-pair list engine, the verifier (and
its listing grown from every row, then cut to the base rows), the
coverage Monte Carlo, the enclosing-ball solver and the 1-D mgf_log
quadrature, the Counter-rebuilding expurgation greedy, the golden-section
rate search, the first-order radius solvers (away-step conditional gradient
for the enclosing ball, gradient descent for rad_p), the depth-band search
over a whole window, the straightforward forms of the analysis kernels, the
Clopper-Pearson interval through scipy.stats' beta quantile, a new
Philox generator for every chunk of a keyed stream, and the point-file
writer with one repr per coordinate.

The exhaustive ones scan every L-subset, every window pair, every tile of
the window's bounding box, every base pair against every neighbour
translate, every tile of the 3^n ring, every (point, offset) of a padded
offset box,
every circumscribed ball or a dense tensor grid, so they are only for small
inputs.  The straightforward ones (a Counter over every surviving list per
removal, one quadrature per order and panel, two
coordinate sums per tail block, the away step over the active indices, the
mean in rad_p, a tree query for every coverage sample) do the same
arithmetic as the production kernels, or as the first-order radius solvers,
and must match them exactly (the tail block in its hits, which mc_tail
decides at L >= 3 on the standard uniforms and recounts near the threshold
with rng.uniform's coordinates); so must the L = 2 tail oracle, which sums
each list's squared coordinate gaps correctly rounded and compares them
with the threshold in rationals, on every list outside the rounding bound
of mc_tail's float sums, and the lattice scan, whose cross-tile
minimum the verifier's base-translate search reproduces.  The window
oracles bound the verifier from the other side: a finite window holds only
some of the constellation's lists and pairs.
"""

import itertools
import math
import sys
import warnings
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import numpy as np
from scipy.spatial import cKDTree
from scipy.special import erf
from scipy.stats import beta as beta_dist

from multipack import BudgetError, ConvergenceWarning, construction, enumerate_window
from multipack.deviation import (
    LOG2,
    NBLOCK,
    RateFunctionResult,
    _validate_quad_args,
    cube_form_mean,
    mgf_log,
)
from multipack.geometry import ChebResult, SimplexWeights
from multipack.rng import CHUNK

COMBO_CHUNK = 200_000


def philox_chunk_rng(seed, chunk):
    """A new generator for one chunk of a keyed stream: Philox keyed by
    (seed, chunk) with its counter at 0, the state the re-keyed generators
    of chunk_rngs must reproduce."""
    return np.random.Generator(np.random.Philox(key=np.array([seed, chunk], dtype=np.uint64)))


def cell_samples(n, period, R, mc_samples, seed):
    """density_report's folded samples, chunk by chunk, each chunk drawn from
    a new Philox keyed by (seed, chunk) rather than through rng.chunk_sum."""
    for chunk in range((mc_samples + CHUNK - 1) // CHUNK):
        m = min(CHUNK, mc_samples - chunk * CHUNK)
        yield construction._cell_samples(philox_chunk_rng(seed, chunk), m, n, period, R)


def repr_text(headers, points) -> str:
    """A point file's text with one repr per coordinate: a '# key=value'
    line for each header that is not None, then each row's coordinates in
    their shortest round-trip repr, comma-separated, one newline-ended line
    per point in order; the bytes fileio's writers must reproduce."""
    head = "".join(f"# {key}={value}\n" for key, value in headers.items() if value is not None)
    rows = np.asarray(points, dtype=float).tolist()
    return head + "".join(",".join(map(repr, row)) + "\n" for row in rows)


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


def expurgate_counter(code, bad):
    """expurgate's greedy with a Counter rebuilt over every surviving list for
    each removal: the point in the most surviving lists goes, lowest index on
    ties."""
    if not bad:
        return code
    lists = [frozenset(t) for t in bad]
    removed = []
    while lists:
        counts = Counter()
        for s in lists:
            counts.update(s)
        pick = min(counts, key=lambda i: (-counts[i], i))
        removed.append(pick)
        lists = [s for s in lists if pick not in s]
    keep = np.setdiff1d(np.arange(code.M), np.array(removed, dtype=np.intp))
    return replace(code, points=code.points[keep], expurgated_count=code.expurgated_count + len(removed))


def window_tiles(c, center, radius):
    """The integer tile coordinates t whose cube t*period + [-K, K]^n meets
    the box [center - radius, center + radius] on every axis, the bounding
    box of the ball's tiles, in lexicographic order."""
    P, K = c.period, c.base.K
    los = np.ceil((center - radius - K) / P).astype(int)
    his = np.floor((center + radius + K) / P).astype(int)
    tiles = itertools.product(*[range(lo, hi + 1) for lo, hi in zip(los, his)])
    return np.array(list(tiles), dtype=np.intp).reshape(-1, c.base.n)


def window_rows(c, center, radius):
    """The points of enumerate_window with their integer tile coordinates
    (the point is base point b translated by tile * period) and base
    indices, from every tile of window_tiles.  Rows come in lexicographic
    (tile, base index) order."""
    base = c.base.points
    n = c.base.n
    center = np.asarray(center, dtype=float).reshape(n)
    tiles = window_tiles(c, center, radius)
    pts_out = [np.empty((0, n))]
    tiles_out = [np.empty((0, n), dtype=np.intp)]
    base_out = [np.empty(0, dtype=np.intp)]
    for j0 in range(0, len(tiles), 2048):
        block = tiles[j0 : j0 + 2048]
        cand = block.astype(float)[:, None, :] * c.period + base[None, :, :]
        ti, bi = np.nonzero(((cand - center) ** 2).sum(axis=2) <= radius * radius)
        pts_out.append(cand[ti, bi])
        tiles_out.append(block[ti])
        base_out.append(bi)
    return np.concatenate(pts_out), np.concatenate(tiles_out), np.concatenate(base_out)


def window_bad_lists(c, window_radius):
    """The window points around the origin and every L-subset of them with
    average squared radius <= n*N, same-tile or not."""
    code = c.base
    pts = enumerate_window(c, np.zeros(code.n), window_radius)
    bad, _ = scan_subsets(pts, code.L, code.n * code.N)
    return pts, bad


def same_tile_min_per_tile(c, window_radius):
    """The same-tile lists of a window, one tile at a time: the smallest
    average squared radius over the L-subsets of each tile's window points,
    the base indices of the first subset attaining it (in tile order), and
    the same-tile list count sum C(tile size, L)."""
    code = c.base
    pts, tiles, base_idx = window_rows(c, np.zeros(code.n), window_radius)
    best, best_rows, lists = math.inf, None, 0
    for t in np.unique(tiles, axis=0):
        rows = np.flatnonzero((tiles == t).all(axis=1))
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
    pts, tiles, _ = window_rows(c, np.zeros(c.base.n), window_radius)
    best = math.inf
    for start in range(0, len(pts), 512):
        stop = min(start + 512, len(pts))
        d2 = (
            np.einsum("ij,ij->i", pts[start:stop], pts[start:stop])[:, None]
            + np.einsum("ij,ij->i", pts, pts)[None, :]
            - 2.0 * pts[start:stop] @ pts.T
        )
        cross = (tiles[start:stop, None] != tiles[None, :]).any(axis=2)
        if cross.any():
            best = min(best, float(d2[cross].min()))
    return best


def cross_tile_min_sq_band(c, pts, tiles, base_idx, diameter):
    """The smallest squared distance between the window points ``pts`` (with
    the tile coordinates and base indices of window_rows) that lie
    in different tiles, by the depth-band search over the whole window (inf
    with fewer than two tiles); ``diameter`` bounds the distance between any
    two of them.

    Each point lies at depth K - |x - tile centre|_inf inside its tile's
    cube, so a cross-tile pair at distance d has
    d >= 2*gap + depth(x) + depth(y).  The near pairs are listed among the
    window points of depth <= s, at radius r = 2*gap + s (at most
    ``diameter``), with s doubling from twice the smallest depth, until
    a cross-tile pair lies within r.
    """
    _, tiles = np.unique(tiles, axis=0, return_inverse=True)
    tiles = tiles.reshape(-1)
    if len(np.unique(tiles)) < 2:
        return math.inf
    depth = c.base.K - np.abs(c.base.points[base_idx]).max(axis=1)
    tol = 1e-6 * c.period
    s = max(2.0 * float(depth.min()), tol)
    while True:
        r = min(2.0 * c.gap + s, diameter)
        band = np.flatnonzero(depth <= s + tol)
        pairs = band[cKDTree(pts[band]).query_pairs(r * (1.0 + 1e-6), output_type="ndarray")]
        pairs = pairs[tiles[pairs[:, 0]] != tiles[pairs[:, 1]]]
        if len(pairs):
            d = pts[pairs[:, 0]] - pts[pairs[:, 1]]
            d2 = float(np.einsum("ij,ij->i", d, d).min())
            if d2 <= r * r or r >= diameter:
                return d2
        s *= 2.0


def cross_tile_min_sq_lattice(c):
    """The smallest squared distance between points of different tiles (inf
    for an empty base code), over every ordered pair (a, b) of base points
    and every tile offset k in {-1, 0, 1}^n whose first nonzero coordinate
    is positive, as the difference x_a - (x_b + k*period).

    One of k and -k suffices, since (b, a, k) is a translate of (a, b, -k).
    Offsets with some |k_i| >= 2 are left out: they put x_b + k*period at
    least 2*period - 2K > period from x_a, and x_a + period*e_1 is a
    cross-tile point at distance period."""
    X = c.base.points
    n = c.base.n
    best = math.inf
    for k in itertools.product((-1, 0, 1), repeat=n):
        k = np.array(k)
        if len(X) == 0 or not k.any() or k[np.flatnonzero(k)[0]] < 0:
            continue
        d = (X[:, None, :] - (X + k * c.period)[None, :, :]).reshape(-1, n)
        best = min(best, float(np.einsum("ij,ij->i", d, d).min()))
    return best


def near_lists_unrooted(points, L, t, roots):
    """_near_lists grown from every row, cut to the rows that start below
    ``roots``: lists, average squared radii and the whole near-pair graph,
    the rule the rooted listing must reproduce bit for bit."""
    lists, avg, pairs = construction._near_lists(points, L, t)
    keep = lists[:, 0] < roots
    return lists[keep], avg[keep], pairs


def verify_unrooted(c):
    """verify_packing's listing fields from near_lists_unrooted over the
    base code and its one-sign translates within the pair radius of the
    base cube: (passed, min_avg_radius_sq, violation,
    violation_base_indices, min_cross_half_dist_sq)."""
    code = c.base
    M, L, thr = code.M, code.L, code.n * code.N
    r = construction._pair_radius(L, thr)
    bj, Q = construction._near_points(code.points, c.period, r, code.K, one_sign=True)
    pts = np.vstack([code.points, Q])
    lists, avg, pairs = near_lists_unrooted(pts, L, thr, M)
    cross = pairs[(pairs[:, 0] < M) & (pairs[:, 1] >= M)]
    d = pts[cross[:, 0]] - pts[cross[:, 1]]
    cross = np.einsum("ij,ij->i", d, d) / 4.0
    cross = cross[cross <= r * r / 4.0]
    min_cross = float(cross.min()) if len(cross) else math.inf
    if not len(lists):
        return True, math.inf, None, None, min_cross
    i = int(np.argmin(avg))
    indices = tuple(int(b) for b in np.concatenate([np.arange(M), bj])[lists[i]])
    return False, float(avg[i]), pts[lists[i]], indices, min_cross


def offset_box(bound):
    """The tile offsets k with |k_i| <= bound_i whose first nonzero
    coordinate is positive, from the whole box {-b..b}^n in lexicographic
    order (the verifier's offset list before it was pruned by reach)."""
    axes = [np.arange(-b, b + 1) for b in bound]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))
    return grid[_first_positive(grid)]


def offset_reach(offsets, period, w, center):
    """sum_i (|k_i*period - center_i| - w)_+^2 for each row k: the squared
    distance from the box center + [-w, w]^n to k*period, the exact sum the
    offset walk filters a point at the origin by."""
    return (np.maximum(np.abs(offsets * period - center) - w, 0.0) ** 2).sum(axis=1)


def _padded_axes(X, period, r, half, center):
    """Per axis, the offsets k_i from one below to one above those that can
    bring a point of X within r + half of center_i."""
    return [
        np.arange(math.floor((ci - half - r - X[:, i].max()) / period) - 1, math.ceil((ci + half + r - X[:, i].min()) / period) + 2)
        for i, ci in enumerate(center)
    ]


def _first_positive(k):
    """Which rows of k have a positive first nonzero coordinate."""
    return k[np.arange(len(k)), (k != 0).argmax(axis=1)] > 0


def box_translates(X, period, r, half, center, one_sign):
    """The translates x_b + k*period within r of the box center +
    [-half, half]^n, as (rows b, points), from every (b, k) of the padded
    offset box filtered by the exact sum, in lexicographic k order and each
    k's in row order; with ``one_sign`` only the k whose first nonzero
    coordinate is positive."""
    axes = _padded_axes(X, period, r, half, center)
    box = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))
    if one_sign:
        box = box[_first_positive(box)]
    Y = X[None, :, :] + (box * period)[:, None, :]
    e = np.maximum(np.abs(Y - center) - half, 0.0)
    k, b = np.nonzero((e * e).sum(axis=2) <= r * r)
    return b, Y[k, b]


def walk_step_rows(X, period, r, half, center, one_sign):
    """The rows the offset walk holds after each axis: per prefix length j,
    the (b, k_1..k_j) of the padded box whose partial sum over the first j
    axes is at most r^2*(1 + 1e-9), with ``one_sign`` those whose prefix is
    zero or starts with a positive entry."""
    axes = _padded_axes(X, period, r, half, center)
    counts = []
    for j in range(1, len(axes) + 1):
        box = np.stack(np.meshgrid(*axes[:j], indexing="ij"), axis=-1).reshape(-1, j)
        if one_sign:
            box = box[_first_positive(box) | ~box.any(axis=1)]
        e = np.maximum(np.abs(X[None, :, :j] + (box * period)[:, None, :] - center[:j]) - half, 0.0)
        counts.append(int(((e * e).sum(axis=2) <= r * r * (1.0 + 1e-9)).sum()))
    return counts


def ring_offsets(n, nonzero):
    """The points of {-1, 0, 1}^n with at most ``nonzero`` nonzero
    coordinates, by count of nonzeros, then axes, then signs."""
    rows = []
    for j in range(nonzero + 1):
        for axes in itertools.combinations(range(n), j):
            for signs in itertools.product((-1.0, 1.0), repeat=j):
                k = np.zeros(n)
                k[list(axes)] = signs
                rows.append(k)
    return np.array(rows)


def ring_covered(c, P, mc_samples, seed):
    """density_report's covered count, tested against the base code and all
    3^n - 1 neighbour translates of it."""
    code = c.base
    n = code.n
    ring = np.array(list(itertools.product((-1.0, 0.0, 1.0), repeat=n))) * c.period
    tree = cKDTree((ring[:, None, :] + code.points[None, :, :]).reshape(-1, n))
    r_cov = math.sqrt(n * code.N)
    samples = cell_samples(n, c.period, math.sqrt(n * P), mc_samples, seed)
    return sum(int((tree.query(y, k=1)[0] <= r_cov).sum()) for y in samples)


def tree_covered(c, P, mc_samples, seed):
    """density_report's covered count with every sample queried against the
    base code and its whole translates by the ring offsets k with
    nnz(k)*gap^2 <= r^2 (no cell index): translate k lies at least
    gap*sqrt(nnz(k)) from the cell, and a copy x + k*period with some
    |k_i| >= 2 is never the nearest one to a sample of the cell, since
    |y_i - x_i| <= period/2 + K < 1.5*period - K."""
    code = c.base
    n = code.n
    r_cov = math.sqrt(n * code.N)
    nonzero = max(j for j in range(n + 1) if j * c.gap**2 <= r_cov**2 * (1.0 + 1e-9))
    offsets = ring_offsets(n, nonzero) * c.period
    tree = cKDTree((offsets[:, None, :] + code.points[None, :, :]).reshape(-1, n))
    covered = 0
    for y in cell_samples(n, c.period, math.sqrt(n * P), mc_samples, seed):
        # samples with no point within the bound come back at distance inf
        dmin, _ = tree.query(y, k=1, distance_upper_bound=r_cov * (1.0 + 1e-6))
        covered += int((dmin <= r_cov).sum())
    return covered


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
    L, K, quad_order = _validate_quad_args(L, K, quad_order)
    if quad_order**L > 2 * 10**7:
        raise BudgetError(f"tensor grid {quad_order}^{L} exceeds the 2e7 budget")
    if lam == 0.0:
        return 0.0
    c = K * K * lam
    x, w = np.polynomial.legendre.leggauss(quad_order)
    grids = np.meshgrid(*([x] * L), indexing="ij")
    T = np.stack([g.ravel() for g in grids], axis=1)
    wgrids = np.meshgrid(*([w] * L), indexing="ij")
    wprod = np.ones(T.shape[0])
    for g in wgrids:
        wprod *= g.ravel()
    form = np.einsum("ij,ij->i", T, T) - T.sum(axis=1) ** 2 / L
    total = float(wprod @ np.exp(-c * form))
    return min(math.log(total) - L * LOG2, 0.0)


def shoulder_integral_panels(L: int, c: float, order: int) -> float:
    """The integral of G(mu)^L in mgf_log by composite Gauss-Legendre at one
    order, one panel at a time."""
    rc = math.sqrt(c)
    x, wts = np.polynomial.legendre.leggauss(order)
    w = 8.0 / rc
    if w < 0.5:
        edges = [-1.0 - w, -1.0 + w, 1.0 - w, 1.0 + w]
    else:
        edges = list(np.linspace(-(1.0 + w), 1.0 + w, 5))
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        half = 0.5 * (b - a)
        mid = 0.5 * (a + b)
        mu = mid + half * x
        total += half * float(wts @ (0.5 * (erf(rc * (1.0 - mu)) + erf(rc * (1.0 + mu)))) ** L)
    return total


def mgf_log_panels(L: int, K: float, lam: float, quad_order: int = 64) -> float:
    """mgf_log with the integral evaluated separately at quad_order and at
    twice the order, including the ConvergenceWarning."""
    L, K, quad_order = _validate_quad_args(L, K, quad_order)
    if lam == 0.0:
        return 0.0
    c = K * K * lam
    j1 = shoulder_integral_panels(L, c, quad_order)
    j2 = shoulder_integral_panels(L, c, 2 * quad_order)
    if abs(j2 - j1) > 1e-9 * max(1.0, abs(j2)):
        warnings.warn(f"quadrature not converged at order {quad_order}", ConvergenceWarning)
    val = (
        -L * LOG2
        + 0.5 * (L - 1) * (math.log(math.pi) - math.log(c))
        + 0.5 * math.log(L)
        + math.log(j2)
    )
    return min(val, 0.0)


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def rate_function_golden(L: int, K: float, N: float, quad_order: int = 64) -> RateFunctionResult:
    """rate_function by golden section to a 1e-10 bracket after bracket
    doubling from 4 lambda_s, with a second quadrature at the optimum;
    ``iterations`` counts doubling steps and golden-section steps."""
    if not N > 0:
        raise ValueError(f"N must be positive, got {N}")
    mean = cube_form_mean(int(L), K)
    if L * N > mean * (1.0 + 1e-12):
        raise ValueError(
            f"tail is not rare: L*N = {L * N!r} exceeds the cube mean "
            f"{mean!r} of the form; need N <= {mean / L!r}"
        )

    def psi(lam):
        if lam <= 0.0:
            return 0.0
        return -lam * L * N - mgf_log(L, K, lam, quad_order)

    hi = 4.0 * (L - 1) / (2.0 * L * N)
    iterations = 0
    for _ in range(70):
        iterations += 1
        if psi(hi) < psi(0.99 * hi):
            break
        hi *= 2.0
    lo = 0.0
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = psi(x1), psi(x2)
    while hi - lo > 1e-10:
        iterations += 1
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = psi(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = psi(x1)
    lam_opt = 0.5 * (lo + hi)
    val = psi(lam_opt)
    if val <= 0.0:
        return RateFunctionResult(rate=0.0, lambda_opt=0.0, mgf_log_at_opt=0.0, iterations=iterations)
    mgf_at = mgf_log(L, K, lam_opt, quad_order)
    return RateFunctionResult(
        rate=-(lam_opt * L * N + mgf_at),
        lambda_opt=lam_opt,
        mgf_log_at_opt=mgf_at,
        iterations=iterations,
    )


def clopper_pearson_beta_ppf(hits: int, samples: int) -> tuple[float, float]:
    """The 95% Clopper-Pearson interval with its bounds as beta.ppf quantiles."""
    alpha = 0.05
    if hits == 0:
        return 0.0, 1.0 - (alpha / 2.0) ** (1.0 / samples)
    lo = float(beta_dist.ppf(alpha / 2.0, hits, samples - hits + 1))
    hi = 1.0 if hits == samples else float(beta_dist.ppf(1.0 - alpha / 2.0, hits + 1, samples - hits))
    return lo, hi


def tail_chunk_spreads(L, n, K, rng, count):
    """Each list's spread in one chunk of mc_tail, as rng.uniform(-K, K)'s
    coordinates give it, with the coordinate sum of each block taken once
    per factor of its square."""
    q = np.zeros(count)
    s2 = np.zeros(count)
    for j0 in range(0, n, NBLOCK):
        nb = min(NBLOCK, n - j0)
        x = rng.uniform(-K, K, size=(count, L, nb))
        q += np.einsum("ilj,ilj->i", x, x)
        s2 += np.einsum("ij,ij->i", x.sum(axis=1), x.sum(axis=1))
    return q - s2 / L


def tail_hits_two_sums(L, n, K, N, samples, seed):
    """mc_tail's hit count, chunk by chunk on one thread, from
    tail_chunk_spreads."""
    hits = 0
    for chunk in range((samples + CHUNK - 1) // CHUNK):
        count = min(CHUNK, samples - chunk * CHUNK)
        hits += int((tail_chunk_spreads(L, n, K, philox_chunk_rng(seed, chunk), count) <= L * n * N).sum())
    return hits


def tail_hits_difference(n, K, N, samples, seed):
    """mc_tail's hit count at L = 2, chunk by chunk on one thread, and the
    number of lists near the threshold.  Each chunk's blocks are drawn whole,
    one standard uniform v per coordinate as rng.random((count, nb)), and
    taken to the gap d = 1 - sqrt(v) between the two points' coordinates;
    a list hits when half its math.fsum of d^2 is at most threshold/(2K)^2
    in exact rationals.  With u = 2^-53, mc_tail's float sum of a list's
    squares is within gamma_k of the exact sum of the d^2, k = b + m - 1
    roundings (b = min(n, NBLOCK) coordinates in each of m blocks), and the
    correctly rounded sum within 2u + u^2 of it; so a list whose halved sum
    s lies more than (k + 3) 2^-52 s from the edge is decided alike by both,
    and one that does not is near.  With no near list the two hit counts
    must be equal."""
    t = Fraction(min(2 * n * N, sys.float_info.max)) / (4 * Fraction(K) ** 2)
    slack = (min(n, NBLOCK) - (-n // NBLOCK) + 2) * Fraction(1, 2**52)
    hits = near = 0
    for chunk in range((samples + CHUNK - 1) // CHUNK):
        count = min(CHUNK, samples - chunk * CHUNK)
        rng = philox_chunk_rng(seed, chunk)
        d = np.hstack([1.0 - np.sqrt(rng.random((count, min(NBLOCK, n - j0)))) for j0 in range(0, n, NBLOCK)])
        for row in d * d:
            s = Fraction(math.fsum(row)) / 2
            hits += s <= t
            near += abs(s - t) <= slack * s
    return hits, near


def chebyshev_radius_active(pl, tol: float = 1e-9):
    """chebyshev_radius with the away vertex picked among the active
    indices (flatnonzero, then argmin over them).  Returns (radius_sq,
    lower, center, weights, iterations)."""
    X = pl.points
    L = pl.L
    max_iters = 100 * L * math.ceil(math.log(1.0 / tol))
    sq = np.einsum("ij,ij->i", X, X)
    z = np.full(L, 1.0 / L)
    for iterations in range(max_iters + 1):
        y = z @ X
        yy = float(y @ y)
        d = sq - 2.0 * (X @ y) + yy
        np.maximum(d, 0.0, out=d)
        lower = float(z @ d)
        s = int(np.argmax(d))
        gap = float(d[s]) - lower
        if gap <= tol or iterations == max_iters:
            break
        active = np.flatnonzero(z > 0)
        a = int(active[np.argmin(d[active])])
        aw_gain = lower - float(d[a])
        if gap >= aw_gain:
            step_dir = X[s] - y
            denom = 2.0 * float(step_dir @ step_dir)
            gamma = 1.0 if denom <= 0 else min(1.0, gap / denom)
            z *= 1.0 - gamma
            z[s] += gamma
        else:
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
    d = sq - 2.0 * (X @ y) + float(y @ y)
    np.maximum(d, 0.0, out=d)
    return float(d.max()), float(z @ d), y, z, iterations


def rad_p_mean(pl, p: float, tol: float = 1e-9, max_iters: int = 20000) -> float:
    """rad_p with the objective taken as np.mean(r2**p); warnings are not
    raised."""
    X = pl.points
    L = pl.L
    y = pl.centroid()

    def value_grad(yv):
        diff = yv - X
        r2 = np.einsum("ij,ij->i", diff, diff)
        np.maximum(r2, 1e-300, out=r2)
        return float(np.mean(r2**p)), (2.0 * p / L) * (r2 ** (p - 1.0)) @ diff

    obj, grad = value_grad(y)
    step = 1.0
    for _ in range(max_iters):
        gn2 = float(grad @ grad)
        if math.sqrt(gn2) <= tol * (1.0 + obj):
            break
        step *= 2.0
        while True:
            y_new = y - step * grad
            obj_new, grad_new = value_grad(y_new)
            if obj_new <= obj - 0.5 * step * gn2 or step < 1e-300:
                break
            step *= 0.5
        if obj - obj_new <= 1e-18 * (1.0 + obj):
            if obj_new < obj:
                obj = obj_new
            break
        y, obj, grad = y_new, obj_new, grad_new
    return obj ** (1.0 / p)


def chebyshev_radius_fw(pl, tol: float = 1e-9, max_iters: int | None = None) -> ChebResult:
    """chebyshev_radius by the away-step conditional-gradient solver, on the
    uncentred points.

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


def rad_p_descent(pl, p: float, tol: float = 1e-9, max_iters: int = 20000) -> float:
    """rad_p by gradient descent on the unscaled objective.

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
