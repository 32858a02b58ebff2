"""Random cube codes, expurgation, tiling, and packing verification.

The pipeline samples M uniform points in [-K, K]^n at the density threshold
rate, removes points greedily until no L-subset has average squared radius
at or below n*N, wraps the survivor set into a periodic constellation with a
guard gap, and verifies the packing property on a finite window.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np
from scipy.spatial import cKDTree

from .bounds import ExponentQuery, ball_log_volume_rate_finite, lambda_n_threshold
from .errors import BudgetError
from .rng import CHUNK, _clopper_pearson, check_count, check_positive, check_seed, chunk_rng

SUBSET_BUDGET = 10**8  # candidate lists
WINDOW_BUDGET = 10**7  # points or tiles held at once


@dataclass(frozen=True)
class FiniteCode:
    """M points in [-K, K]^n with the parameters they were sampled under."""

    points: np.ndarray
    n: int
    L: int
    N: float
    K: float
    seed: int
    expurgated_count: int = 0

    def __post_init__(self):
        object.__setattr__(self, "n", check_count("n", self.n, 1))
        object.__setattr__(self, "L", check_count("L", self.L, 2))
        object.__setattr__(self, "N", check_positive("N", self.N))
        object.__setattr__(self, "K", check_positive("K", self.K))
        if self.seed is not None:
            object.__setattr__(self, "seed", check_seed(self.seed))
        object.__setattr__(self, "expurgated_count", check_count("expurgated_count", self.expurgated_count, 0))
        pts = np.array(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.n:
            raise ValueError(f"points must have shape (M, {self.n})")
        if not np.isfinite(pts).all():
            raise ValueError("coordinates must be finite")
        if pts.size and np.abs(pts).max() > self.K * (1.0 + 1e-12):
            raise ValueError("coordinates must lie in [-K, K]")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    @property
    def M(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class Constellation:
    """A finite code repeated on the lattice (period * Z)^n.

    period = 2K + 2*gap, so distinct tiles are separated by at least 2*gap
    in some coordinate.
    """

    base: FiniteCode
    gap: float

    def __post_init__(self):
        object.__setattr__(self, "gap", check_positive("gap", self.gap))

    @property
    def period(self) -> float:
        return 2.0 * self.base.K + 2.0 * self.gap

    @property
    def nld(self) -> float:
        """Normalized log density (1/n) ln(M / period^n)."""
        if self.base.M == 0:
            raise ValueError("empty base code has no density")
        return math.log(self.base.M) / self.base.n - math.log(self.period)


@dataclass(frozen=True)
class PackingVerdict:
    """Outcome of verify_packing on a window around the origin.

    passed: no L-subset of the window has average squared radius <= threshold.
    threshold: n*N.
    window_points: constellation points in the window.
    same_tile_lists: sum over the window's tiles of C(points in the tile, L),
        the same-tile L-subsets the check covers (not subsets enumerated).
    min_avg_radius_sq: smallest average squared radius over the L-subsets of
        the origin tile's window points, which is the smallest same-tile one
        (inf when fewer than L points).
    min_cross_half_dist_sq: a quarter of the smallest squared distance between
        window points of different tiles (inf with fewer than two tiles).
    violation: the points of a violating list, None on a pass; a same-tile
        violation is reported in the origin tile.
    violation_base_indices: the base-code indices of those points.
    """

    passed: bool
    threshold: float
    window_points: int
    same_tile_lists: int
    min_avg_radius_sq: float
    min_cross_half_dist_sq: float
    violation: np.ndarray | None
    violation_base_indices: tuple | None


@dataclass(frozen=True)
class DensityReport:
    rate_nld: float
    delta_hat: float
    P_used: float
    mc_samples: int
    covered: int
    delta_ci_low: float
    delta_ci_high: float
    predicted_delta: float


def sample_code(n, L, N, K, rate_margin, seed, M=None) -> FiniteCode:
    """Uniform code at the expurgation-threshold density, backed off by
    exp(n * rate_margin).

    M defaults to round(lambda_n * e^(n*margin) * (2K)^n); pass M explicitly
    to override.  Refuses parameter sets whose M would exceed WINDOW_BUDGET
    points.
    """
    n, L = check_count("n", n, 1), check_count("L", L, 2)
    N, K = check_positive("N", N), check_positive("K", K)
    if not rate_margin <= 0:
        raise ValueError(f"rate_margin must be <= 0, got {rate_margin}")
    seed = check_seed(seed)
    if M is None:
        lam_n = lambda_n_threshold(ExponentQuery(N=N, L=L, K=K), n)
        target = lam_n * math.exp(n * rate_margin) * (2.0 * K) ** n
        if not math.isfinite(target):
            raise BudgetError(f"code size overflows at n = {n}")
        M = int(round(target))
        if M < 1:
            raise ValueError(
                f"computed code size rounds to {M}; relax rate_margin or parameters"
            )
        if M > WINDOW_BUDGET:
            raise BudgetError(
                f"M = {M} points (C(M, L) = C({M}, {L}) lists) exceeds the "
                f"{WINDOW_BUDGET:.0e} point budget; pass a smaller explicit M"
            )
    else:
        M = check_count("M", M, 1)
    pts = chunk_rng(seed, 0).uniform(-K, K, size=(M, n))
    return FiniteCode(points=pts, n=n, L=L, N=N, K=K, seed=seed)


def _avg_sq_radii(points, lists):
    """Average squared radius of each row of ``lists``, as the mean pairwise
    squared distance (1/L^2) * sum_{i<j} |x_i - x_j|^2.  Differences are taken
    before squaring, so coincident points give exactly 0 and translated
    copies lose no precision."""
    L = lists.shape[1]
    total = np.zeros(len(lists))
    for a, b in itertools.combinations(range(L), 2):
        d = points[lists[:, a]] - points[lists[:, b]]
        total += np.einsum("ij,ij->i", d, d)
    return total / (L * L)


def _near_lists(points, L, t):
    """Every L-subset of ``points`` with average squared radius <= t, as index
    rows in lexicographic order, with their average squared radii.

    A list with average squared radius <= t has every pair at
    d^2 <= 2L*t, since L*avg = sum_i |x_i - c|^2 >= |x_i - c|^2 + |x_j - c|^2
    >= d^2/2.  So the lists are among the L-cliques of the near-pair graph
    at that radius (with a small relative margin against rounding).  Each
    clique is grown from its lowest vertex along forward edges i < j, as in
    the ordered clique listing of Chiba & Nishizeki (1985); index order makes
    the output lexicographic without a sort.  The exact average radius then
    filters the cliques.  Refuses inputs whose candidate cliques, summed over
    the clique sizes 2..L, exceed SUBSET_BUDGET.
    """
    M = len(points)
    if M < L:
        return np.empty((0, L), dtype=np.intp), np.empty(0)
    r = math.sqrt(2.0 * L * t) * (1.0 + 1e-6)
    pairs = cKDTree(points).query_pairs(r, output_type="ndarray").astype(np.intp)
    pairs = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
    starts = np.searchsorted(pairs[:, 0], np.arange(M + 1))
    keys = pairs[:, 0] * M + pairs[:, 1]
    lists = pairs
    candidates = len(pairs)
    for k in range(2, L):
        last = lists[:, -1]
        deg = starts[last + 1] - starts[last]
        candidates += int(deg.sum())
        if candidates > SUBSET_BUDGET:
            raise BudgetError(
                f"{candidates} candidate cliques of {M} points exceed the "
                f"{SUBSET_BUDGET:.0e} subset budget"
            )
        rows = np.repeat(np.arange(len(lists)), deg)
        offset = np.arange(len(rows)) - np.repeat(np.cumsum(deg) - deg, deg)
        w = pairs[starts[last][rows] + offset, 1]
        ok = np.ones(len(rows), dtype=bool)
        for a in range(k - 1):
            key = lists[rows, a] * M + w
            at = np.minimum(np.searchsorted(keys, key), len(keys) - 1)
            ok &= keys[at] == key
        lists = np.column_stack([lists[rows[ok]], w[ok]])
    avg = _avg_sq_radii(points, lists)
    keep = avg <= t
    return lists[keep], avg[keep]


def _min_list(points, L):
    """Smallest average squared radius over the L-subsets of ``points`` and the
    lexicographically first subset attaining it.

    Each point with its L-1 nearest neighbours is an L-subset, so the smallest
    of their radii is an upper bound t on the minimum, and _near_lists at t
    holds the minimiser."""
    if len(points) < L:
        return math.inf, None
    _, nn = cKDTree(points).query(points, k=L)
    t = float(_avg_sq_radii(points, np.sort(nn, axis=1)).min())
    lists, avg = _near_lists(points, L, t)
    i = int(np.argmin(avg))
    return float(avg[i]), tuple(int(v) for v in lists[i])


def find_bad_lists(code: FiniteCode) -> list[tuple[int, ...]]:
    """Index tuples of every L-subset with average squared radius <= n*N,
    in lexicographic order.

    Every pair of such a list lies at squared distance d^2 <= 2L*n*N, so the
    lists are found exactly as the L-cliques of that near-pair graph whose
    average squared radius is <= n*N; the cost follows the number of close
    pairs, not C(M, L).  Raises BudgetError when the candidate cliques exceed
    SUBSET_BUDGET.
    """
    lists, _ = _near_lists(code.points, code.L, code.n * code.N)
    return [tuple(int(v) for v in row) for row in lists]


def min_avg_subset(code: FiniteCode) -> tuple[float, tuple[int, ...] | None]:
    """Smallest average squared radius over all L-subsets and its indices
    (the lexicographically first on ties; (inf, None) when M < L).

    The smallest radius t of a point with its L-1 nearest neighbours bounds
    the minimum from above, and every pair of a list with radius <= t lies at
    d^2 <= 2L*t, so one near-pair clique listing at t is exact.
    """
    return _min_list(code.points, code.L)


def expurgate(code: FiniteCode, bad: list[tuple[int, ...]]) -> FiniteCode:
    """Remove points until no bad list survives.

    Greedy maximum coverage: repeatedly delete the point lying in the most
    surviving bad lists (lowest index on ties).  ``bad`` must be the exact
    output of find_bad_lists(code).
    """
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
    return replace(
        code,
        points=code.points[keep],
        expurgated_count=code.expurgated_count + len(removed),
    )


def achieved_rate(code: FiniteCode) -> float:
    """(1/n) ln(M / (2K)^n) for the current point count."""
    if code.M == 0:
        raise ValueError("empty code has no rate")
    return math.log(code.M) / code.n - math.log(2.0 * code.K)


def tile(code: FiniteCode, gap: float | None = None) -> Constellation:
    """Wrap a finite code into a periodic constellation with a guard gap.

    Distinct tiles lie at least D = 2*gap apart, and a list spanning tiles
    has average squared radius at least (L-1)/L^2 * D^2 (see
    verify_packing).  That exceeds n*N exactly when
    gap > L/(2*sqrt(L-1)) * sqrt(n*N), the minimum gap; it equals sqrt(n*N)
    at L = 2.  Smaller gaps are rejected, and the default is 1.01 times the
    minimum.  At the minimum itself the certificate is inconclusive and
    verify_packing checks cross-tile lists exactly.
    """
    g_min = code.L / (2.0 * math.sqrt(code.L - 1)) * math.sqrt(code.n * code.N)
    gap = 1.01 * g_min if gap is None else check_positive("gap", gap)
    if gap < g_min * (1.0 - 1e-12):
        raise ValueError(f"gap {gap!r} is below L/(2*sqrt(L-1)) * sqrt(n*N) = {g_min!r}")
    return Constellation(base=code, gap=gap)


def _window(c: Constellation, center, radius: float):
    """Constellation points in the closed ball, with their integer tile
    coordinates (the point is base point b translated by tile * period) and
    base indices.  Rows come in lexicographic (tile, base index) order.

    Raises ValueError unless 0 <= radius < inf and the centre is finite."""
    base = c.base.points
    n = c.base.n
    center = np.asarray(center, dtype=float).reshape(n)
    if not 0.0 <= radius < math.inf or not np.isfinite(center).all():
        raise ValueError(
            f"window needs a finite centre and a radius in [0, inf), got radius {radius!r}"
        )
    P = c.period
    K = c.base.K
    los = np.ceil((center - radius - K) / P)
    his = np.floor((center + radius + K) / P)
    tiles = np.prod(np.maximum(his - los + 1, 0))
    if tiles > WINDOW_BUDGET:
        raise BudgetError(f"window spans {tiles:.3g} tiles, over the {WINDOW_BUDGET:.0e} budget")
    pts_out = [np.empty((0, n))]
    tiles_out = [np.empty((0, n), dtype=np.intp)]
    base_out = [np.empty(0, dtype=np.intp)]
    tile_iter = itertools.product(*[range(int(lo), int(hi) + 1) for lo, hi in zip(los, his)])
    for block in iter(lambda: list(itertools.islice(tile_iter, 2048)), []):
        block = np.array(block, dtype=np.intp)
        cand = block.astype(float)[:, None, :] * P + base[None, :, :]
        ti, bi = np.nonzero(((cand - center) ** 2).sum(axis=2) <= radius * radius)
        pts_out.append(cand[ti, bi])
        tiles_out.append(block[ti])
        base_out.append(bi)
    return np.concatenate(pts_out), np.concatenate(tiles_out), np.concatenate(base_out)


def enumerate_window(c: Constellation, center, radius: float) -> np.ndarray:
    """All constellation points within the closed ball (center, radius)."""
    pts, _, _ = _window(c, center, radius)
    return pts


@functools.lru_cache(maxsize=16)
def _offset_grid(bound: tuple) -> np.ndarray:
    """The tile offsets k with |k_i| <= bound_i whose first nonzero coordinate
    is positive: one of k and -k for every k != 0.  Read-only, as it is
    cached."""
    axes = [np.arange(-b, b + 1) for b in bound]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))
    first = grid[np.arange(len(grid)), (grid != 0).argmax(axis=1)]
    grid = grid[first > 0]
    grid.flags.writeable = False
    return grid


def _offset_reach(offsets, period, K):
    """sum_i (|k_i|*period - 2K)_+^2 for each row k: a squared lower bound on
    the distance between a base point and any base point translated by
    k*period, since |x_i - x'_i - k_i*period| >= |k_i|*period - 2K."""
    return (np.maximum(np.abs(offsets) * period - 2.0 * K, 0.0) ** 2).sum(axis=1)


def _min_cross_sq(c, pts, tiles, base_idx, diameter):
    """Smallest squared distance between two window points of ``c`` in
    different tiles, from differences (inf when they occupy fewer than two
    tiles); ``diameter`` bounds the distance between any two of them.

    Each point lies at depth K - |x - tile centre|_inf inside its tile's
    cube, and two cubes are 2*gap apart in a coordinate that separates
    them, so a cross-tile pair at distance d has
    d >= 2*gap + depth(x) + depth(y).  Near pairs are therefore sought only
    among the points of depth <= s, at radius r = 2*gap + s (at most
    ``diameter``), with s doubling from twice the smallest depth.

    Every tile is a translate of the base code, so a cross-tile pair is a
    translate of (x, x' + k*period) for base points x, x' and an offset
    k != 0 between their tiles.  Each round searches the base points of the band
    against their translates x' + k*period by the offsets that can reach r,
    sum_i (|k_i|*period - 2K)_+^2 <= r^2 (while r < 2K + 4*gap, the ring
    shells nnz(k)*4*gap^2 <= r^2), keeping only the translates within r of
    the base cube [-K, K]^n.  A lattice pair (x, x', k) counts only when the
    window realizes it: some tile t holds x and tile t + k holds x'.  Window
    rows are keyed by (tile, base index) for that lookup, and the distance
    is taken between the matched window rows.  Radius and band carry a small
    margin against rounding, so once a cross-tile pair lies within r, every
    cross-tile pair of the window within r has been matched and the smallest
    is the minimum.  Same-tile pairs, and the window's bulk, are never
    visited.
    """
    if len(pts) == 0:
        return math.inf
    lo = tiles.min(axis=0)
    dims = tiles.max(axis=0) - lo + 1
    if (dims == 1).all():
        return math.inf
    code = c.base
    M, K, P = code.M, code.K, c.period
    # ascending, since _window lists rows in (tile, base index) order
    keys = np.ravel_multi_index(tuple((tiles - lo).T), dims) * M + base_idx
    count = np.bincount(base_idx, minlength=M)
    first = np.cumsum(count) - count
    by_base = np.argsort(base_idx, kind="stable")
    present = np.flatnonzero(count)
    depth = K - np.abs(code.points).max(axis=1)
    tol = 1e-6 * P
    s = max(2.0 * float(depth[present].min()), tol)
    bound = None
    while True:
        r = min(2.0 * c.gap + s, diameter)
        rq = r * (1.0 + 1e-6)
        reach_bound = tuple(int(b) for b in np.minimum(dims - 1, int((rq + 2.0 * K) / P)))
        if reach_bound != bound:
            bound = reach_bound
            grid = _offset_grid(bound)
            reach = _offset_reach(grid, P, K)
        ks = grid[reach <= rq * rq]
        band = present[depth[present] <= s + tol]
        X = code.points[band]
        # translates x' + k*period within r of the base cube [-K, K]^n, in
        # blocks of offsets
        qk, qb, Q = [], [], []
        step = max(1, 2**18 // X.size)
        for j0 in range(0, len(ks), step):
            Y = X[None, :, :] + (ks[j0 : j0 + step] * P)[:, None, :]
            e = np.maximum(np.abs(Y) - K, 0.0)
            kj, bj = np.nonzero(np.einsum("kij,kij->ki", e, e) <= rq * rq)
            qk.append(kj + j0)
            qb.append(bj)
            Q.append(Y[kj, bj])
        if sum(map(len, qk)):
            qk, qb = np.concatenate(qk), np.concatenate(qb)
            found = cKDTree(X).sparse_distance_matrix(
                cKDTree(np.concatenate(Q)), rq, output_type="ndarray"
            )
            a, j = band[found["i"]], found["j"]
            # every window row of base point a, paired with tile + k, base b
            reps = count[a]
            rows = np.repeat(np.arange(len(a)), reps)
            p = by_base[np.repeat(first[a] - np.cumsum(reps) + reps, reps) + np.arange(len(rows))]
            t = tiles[p] + ks[qk[j[rows]]] - lo
            inside = ((t >= 0) & (t < dims)).all(axis=1)
            p, rows = p[inside], rows[inside]
            key = np.ravel_multi_index(tuple(t[inside].T), dims) * M + band[qb[j[rows]]]
            at = np.minimum(np.searchsorted(keys, key), len(keys) - 1)
            hit = keys[at] == key
            if hit.any():
                d = pts[p[hit]] - pts[at[hit]]
                d2 = float(np.einsum("ij,ij->i", d, d).min())
                if d2 <= r * r or r >= diameter:
                    return d2
        s *= 2.0


def verify_packing(c: Constellation, window_radius: float) -> PackingVerdict:
    """Check the packing property on a window around the origin.

    Same-tile lists are tested exactly, on the origin tile alone.  A base
    point x lies in [-K, K]^n, and in every nonzero coordinate of a tile
    offset k, |x_i + k_i*period| >= period - K = K + 2*gap > |x_i|, so
    |x + k*period| > |x|: whenever a translate of x lies in the window, so
    does x.  Every tile's window points are thus a translate of a subset, by
    base index, of the origin tile's, and the smallest same-tile average
    squared radius is that of the origin tile's window points (those with
    |x|_inf < period/2), from the near-pair clique listing of min_avg_subset.

    A list spanning tiles splits into a points inside one tile and L - a
    elsewhere, 1 <= a < L, and each of the a(L - a) >= L - 1 pairs across
    the split is a cross-tile pair at distance at least D, the smallest
    cross-tile distance in the window.  Since L*avg = (1/L) *
    sum_{i<j} |x_i - x_j|^2, every cross-tile list has

        avg >= (L-1)/L^2 * D^2 = 4(L-1)/L^2 * min_cross_half_dist_sq,

    and the window is certified when that exceeds n*N.  Otherwise the exact
    fallback lists the window's L-subsets with average squared radius <= n*N
    as near-pair cliques and reports the first that spans tiles.

    D is exact, and no window-wide pair search finds it: every tile is a
    translate of the base code, so _min_cross_sq searches the base points
    near their cube's faces against their translates by the tile offsets
    k != 0 that can reach the current radius, and keeps a lattice pair
    (x, x', k) only when the window realizes it, with x in some tile t and
    x' in tile t + k.  D is then measured between those window points.
    Raises ValueError unless 0 <= window_radius < inf.
    """
    code = c.base
    L = code.L
    thr = code.n * code.N
    pts, tiles, base_idx = _window(c, np.zeros(code.n), window_radius)

    new_tile = np.ones(len(tiles), dtype=bool)
    new_tile[1:] = (tiles[1:] != tiles[:-1]).any(axis=1)
    per_tile = np.diff(np.append(np.flatnonzero(new_tile), len(tiles)))
    same_tile_lists = sum(math.comb(int(m), L) for m in per_tile)
    origin = np.flatnonzero(np.abs(pts).max(axis=1) < c.period / 2.0)
    min_avg, subset = _min_list(pts[origin], L)

    min_cross_half = _min_cross_sq(c, pts, tiles, base_idx, 2.0 * window_radius) / 4.0

    rows = None
    if min_avg <= thr:
        rows = origin[list(subset)]
    elif 4 * (L - 1) * min_cross_half <= L * L * thr:
        lists, _ = _near_lists(pts, L, thr)
        lt = tiles[lists]
        spans = np.flatnonzero((lt != lt[:, :1]).any(axis=(1, 2)))
        if len(spans):
            rows = lists[spans[0]]
    return PackingVerdict(
        passed=rows is None,
        threshold=thr,
        window_points=len(pts),
        same_tile_lists=same_tile_lists,
        min_avg_radius_sq=min_avg,
        min_cross_half_dist_sq=min_cross_half,
        violation=None if rows is None else pts[rows],
        violation_base_indices=None if rows is None else tuple(int(i) for i in base_idx[rows]),
    )


def _ring_offsets(n, nonzero):
    """The points of {-1, 0, 1}^n with at most ``nonzero`` nonzero coordinates."""
    rows = []
    for j in range(nonzero + 1):
        for axes in itertools.combinations(range(n), j):
            for signs in itertools.product((-1.0, 1.0), repeat=j):
                k = np.zeros(n)
                k[list(axes)] = signs
                rows.append(k)
    return np.array(rows)


def _cell_samples(n, period, R, mc_samples, seed):
    """Uniform samples of the ball of radius R, one chunk at a time, folded
    into the cell [-period/2, period/2]^n."""
    for chunk in range((mc_samples + CHUNK - 1) // CHUNK):
        m = min(CHUNK, mc_samples - chunk * CHUNK)
        rng = chunk_rng(seed, chunk)
        g = rng.standard_normal(size=(m, n))
        u = rng.random(size=m)
        norms = np.sqrt(np.einsum("ij,ij->i", g, g))
        np.maximum(norms, 1e-300, out=norms)
        y = g * (R * u ** (1.0 / n) / norms)[:, None]
        y -= period * np.round(y / period)
        yield y


def density_report(c: Constellation, P: float, mc_samples: int, seed) -> DensityReport:
    """Monte Carlo estimate of the log fraction of space covered by noise
    balls of radius r = sqrt(n*N) around the constellation.

    Samples uniformly from the ball of radius sqrt(n*P), folds each sample
    into the cell [-period/2, period/2]^n, and tests coverage against the
    base code and those of its translates by k*period, k in {-1, 0, 1}^n,
    whose noise balls can reach the cell.  Translate k lies in
    k*period + [-K, K]^n, so in each of its nnz(k) nonzero coordinates it is
    at least period/2 - K = gap from the cell, and at least gap*sqrt(nnz(k))
    away in all.  Only the translates with nnz(k)*gap^2 <= r^2 (with a small
    relative margin against rounding) can cover a sample: just the base for
    any gap above r, as tile() gives at L >= 3 and by default, and 1 + 2n
    translates at gap = r.
    Translates farther out never hold the nearest copy of a base point x:
    |y_i - x_i| <= period/2 + K < 1.5*period in every coordinate.  Refuses
    codes whose kept translates hold more than WINDOW_BUDGET points.

    When the cells of side h = r*(1 + 1e-6) over all n axes fit in
    WINDOW_BUDGET, a table of them rules samples out before the tree is
    asked.  A sample y within r of a point x has |y_i - x_i| <= r < h, so
    y's cell is within one cell of x's on every axis; the table marks each
    kept point's cell and its neighbours, and a sample in an unmarked cell
    is uncovered.  The tree decides every sample in a marked cell (and every
    sample when there is no table), so the count equals that of querying
    the tree for every sample.
    """
    P = check_positive("P", P)
    mc_samples = check_count("mc_samples", mc_samples, 1)
    seed = check_seed(seed)
    code = c.base
    n, M = code.n, code.M
    if M == 0:
        raise ValueError("empty base code")
    r_cov = math.sqrt(n * code.N)
    nonzero = max(j for j in range(n + 1) if j * c.gap**2 <= r_cov**2 * (1.0 + 1e-9))
    count = sum(math.comb(n, j) * 2**j for j in range(nonzero + 1))
    if count * M > WINDOW_BUDGET:
        raise BudgetError(f"{count} neighbor tiles * {M} points exceed the window budget")
    offsets = _ring_offsets(n, nonzero) * c.period
    pts = (offsets[:, None, :] + code.points[None, :, :]).reshape(-1, n)
    tree = cKDTree(pts)
    h = r_cov * (1.0 + 1e-6)
    # cells of side h over the points and the cell; a spare cell on each side
    # holds the samples that rounding in the fold leaves just outside the cell
    corner = np.minimum(pts.min(axis=0), -c.period / 2.0) - h
    shape = ((np.maximum(pts.max(axis=0), c.period / 2.0) - corner) / h).astype(np.intp) + 2
    near = None
    if math.prod(shape.astype(float)) <= WINDOW_BUDGET:
        strides = np.array([math.prod(shape[j + 1 :]) for j in range(n)], dtype=np.intp)

        def cells(v):
            return ((v - corner) / h).astype(np.intp) @ strides

        table = np.zeros(shape, dtype=bool)
        table.reshape(-1)[cells(pts)] = True
        for axis in range(n):
            t = np.moveaxis(table, axis, 0)
            src = t.copy()
            t[1:] |= src[:-1]
            t[:-1] |= src[1:]
        near = table.reshape(-1)
    covered = 0
    for y in _cell_samples(n, c.period, math.sqrt(n * P), mc_samples, seed):
        if near is not None:
            y = y[near[cells(y)]]
        # samples with no point within the bound come back at distance inf
        dmin, _ = tree.query(y, k=1, distance_upper_bound=h)
        covered += int((dmin <= r_cov).sum())

    lo, hi = _clopper_pearson(covered, mc_samples)
    return DensityReport(
        rate_nld=c.nld,
        delta_hat=math.log(covered / mc_samples) / n if covered else -math.inf,
        P_used=P,
        mc_samples=mc_samples,
        covered=covered,
        delta_ci_low=math.log(lo) / n if lo > 0 else -math.inf,
        delta_ci_high=math.log(hi) / n,
        predicted_delta=c.nld + ball_log_volume_rate_finite(code.N, n),
    )
