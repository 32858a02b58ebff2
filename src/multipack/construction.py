"""Random cube codes, expurgation, tiling, and packing verification.

The pipeline samples M uniform points in [-K, K]^n at the density threshold
rate, removes points greedily until no L-subset has average squared radius
at or below n*N, wraps the survivor set into a periodic constellation with a
guard gap, and verifies the packing property of the whole periodic
constellation from the base code and its translates.
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
    """Outcome of verify_packing for the whole constellation.

    passed: no L-subset of the constellation has average squared radius
        <= threshold; a cross-tile list has
        avg >= 4(L-1)/L^2 * min_cross_half_dist_sq, so a pass is certified
        when that exceeds the threshold, and listed exactly otherwise.
    threshold: n*N.
    window_points: constellation points within window_radius of the origin.
    same_tile_lists: sum over the window's tiles of C(points in the tile, L).
        These two counts are not used by the verdict; they are kept for the
        benchmark's checks until it stops comparing them with
        enumerate_window.
    min_avg_radius_sq: smallest average squared radius over the L-subsets of
        the base code, the smallest same-tile one (inf when fewer than L
        points).
    min_cross_half_dist_sq: a quarter of the smallest squared distance between
        points of different tiles (inf for an empty base code).
    violation: the points of a violating list, None on a pass; a same-tile
        violation is reported in the base tile, a cross-tile one as a
        translate with a member in the base tile.
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


def _tile_blocks(c: Constellation, center, radius: float):
    """The integer tile coordinates t whose cube t*period + [-K, K]^n can
    meet the closed ball (center, radius), in lexicographic order and blocks
    of at most 2048 rows.

    Raises ValueError unless 0 <= radius < inf and the centre is finite, and
    BudgetError when the tiles number more than WINDOW_BUDGET."""
    center = np.asarray(center, dtype=float).reshape(c.base.n)
    if not 0.0 <= radius < math.inf or not np.isfinite(center).all():
        raise ValueError(
            f"window needs a finite centre and a radius in [0, inf), got radius {radius!r}"
        )
    P, K = c.period, c.base.K
    los = np.ceil((center - radius - K) / P)
    his = np.floor((center + radius + K) / P)
    tiles = np.prod(np.maximum(his - los + 1, 0))
    if tiles > WINDOW_BUDGET:
        raise BudgetError(f"window spans {tiles:.3g} tiles, over the {WINDOW_BUDGET:.0e} budget")
    tile_iter = itertools.product(*[range(int(lo), int(hi) + 1) for lo, hi in zip(los, his)])
    blocks = iter(lambda: list(itertools.islice(tile_iter, 2048)), [])
    return (np.array(b, dtype=np.intp) for b in blocks)


def enumerate_window(c: Constellation, center, radius: float) -> np.ndarray:
    """All constellation points within the closed ball (center, radius),
    tile by tile in lexicographic tile order, each tile's in base order.
    Raises ValueError unless 0 <= radius < inf and the centre is finite."""
    center = np.asarray(center, dtype=float).reshape(c.base.n)
    out = [np.empty((0, c.base.n))]
    for block in _tile_blocks(c, center, radius):
        cand = block.astype(float)[:, None, :] * c.period + c.base.points[None, :, :]
        out.append(cand[((cand - center) ** 2).sum(axis=2) <= radius * radius])
    return np.concatenate(out)


@functools.lru_cache(maxsize=64)
def _offset_rows(n, bound, nonzero, large):
    """The tile offsets k with |k_i| <= bound, at most ``nonzero`` nonzero
    coordinates and at most ``large`` with |k_i| >= 2, whose first nonzero
    coordinate is positive (one of k and -k for every k != 0), in
    lexicographic order.  Grown one coordinate at a time, so only prefixes
    of kept rows are held.  Read-only, as it is cached."""
    values = np.arange(-bound, bound + 1)
    rows = np.zeros((1, 0), dtype=np.intp)
    nnz = big = first = np.zeros(1, dtype=np.intp)
    for _ in range(n):
        i = np.repeat(np.arange(len(rows)), len(values))
        v = np.tile(values, len(rows))
        nnz, big = nnz[i] + (v != 0), big[i] + (np.abs(v) >= 2)
        first = np.where(first[i] != 0, first[i], np.sign(v))
        keep = (nnz <= nonzero) & (big <= large) & (first >= 0)
        rows = np.column_stack([rows[i[keep]], v[keep]])
        nnz, big, first = nnz[keep], big[keep], first[keep]
    rows = rows[first > 0]
    rows.flags.writeable = False
    return rows


def _offsets_within(n, period, K, r):
    """The tile offsets k with sum_i (|k_i|*period - 2K)_+^2 <= r^2, one of k
    and -k for every k != 0, in lexicographic order.

    Each nonzero coordinate costs at least (period - 2K)^2 = 4*gap^2 and
    each with |k_i| >= 2 at least (2*period - 2K)^2, which bounds how many
    of each a row can have; _offset_rows lists the rows within those counts
    and |k_i| <= (r + 2K)/period, and the exact sum filters them."""
    bound = int((r + 2.0 * K) / period)
    r2 = r * r * (1.0 + 1e-9)
    nonzero = max(j for j in range(n + 1) if j * (period - 2.0 * K) ** 2 <= r2)
    large = max(j for j in range(nonzero + 1) if j * (2.0 * period - 2.0 * K) ** 2 <= r2)
    rows = _offset_rows(n, bound, nonzero, large)
    return rows[_offset_reach(rows, period, K) <= r * r]


def _offset_reach(offsets, period, K):
    """sum_i (|k_i|*period - 2K)_+^2 for each row k: a squared lower bound on
    the distance between a base point and any base point translated by
    k*period, since |x_i - x'_i - k_i*period| >= |k_i|*period - 2K."""
    return (np.maximum(np.abs(offsets) * period - 2.0 * K, 0.0) ** 2).sum(axis=1)


def _translates(points, offsets, period, K, r):
    """The translates x + k*period of ``points`` by the rows k of ``offsets``
    that lie within r of the base cube [-K, K]^n, offset by offset, with the
    row of x in ``points``.  Built in blocks of offsets, so only the kept
    translates are held."""
    rows, out = [np.empty(0, np.intp)], [np.empty((0, points.shape[1]))]
    step = max(1, 2**18 // max(points.size, 1))
    for j0 in range(0, len(offsets), step):
        Y = points[None, :, :] + (offsets[j0 : j0 + step] * period)[:, None, :]
        e = np.maximum(np.abs(Y) - K, 0.0)
        kj, bj = np.nonzero(np.einsum("kij,kij->ki", e, e) <= r * r)
        rows.append(bj)
        out.append(Y[kj, bj])
    return np.concatenate(rows), np.concatenate(out)


def _min_cross_sq(c: Constellation) -> float:
    """Smallest squared distance between two points of ``c`` in different
    tiles, from the differences x - (x' + k*period) (inf for an empty base
    code).

    Every tile is a translate of the base code, so a cross-tile pair is a
    translate of (x, x' + k*period) with base points x, x' and a tile offset
    k != 0.  A base point lies at depth K - |x|_inf inside the base cube, and
    in a coordinate with k_i != 0,
    |x_i - x'_i - k_i*period| >= period - 2K + depth(x) + depth(x'), so such
    a pair at distance d has d >= 2*gap + depth(x) + depth(x').  Each round
    therefore searches only the base points of depth <= s, at radius
    r = 2*gap + s, with s doubling from twice the smallest depth, against
    their translates by the offsets that can reach r,
    sum_i (|k_i|*period - 2K)_+^2 <= r^2 (while r < 2K + 4*gap, the ring
    shells nnz(k)*4*gap^2 <= r^2), one of k and -k each, keeping only the
    translates within r of the base cube.  Radius and band carry a small
    margin against rounding, so once a pair lies within r every cross-tile
    pair within r has been found and the smallest is the minimum.  The
    search stops by r = period: x and x + period*e_1 are a cross-tile pair.
    """
    code = c.base
    if code.M == 0:
        return math.inf
    K, P = code.K, c.period
    depth = K - np.abs(code.points).max(axis=1)
    tol = 1e-6 * P
    s = max(2.0 * float(depth.min()), tol)
    while True:
        r = 2.0 * c.gap + s
        rq = r * (1.0 + 1e-6)
        X = code.points[depth <= s + tol]
        _, Q = _translates(X, _offsets_within(code.n, P, K, rq), P, K, rq)
        found = cKDTree(X).sparse_distance_matrix(cKDTree(Q), rq, output_type="ndarray")
        if len(found):
            d = X[found["i"]] - Q[found["j"]]
            d2 = float(np.einsum("ij,ij->i", d, d).min())
            if d2 <= r * r:
                return d2
        s *= 2.0


def _cross_tile_list(c: Constellation):
    """The points and base indices of the first list spanning tiles with
    average squared radius <= n*N, or (None, None).

    Every such list has one translate whose lexicographically smallest tile
    is the base tile, so its other tiles are offsets k whose first nonzero
    coordinate is positive.  Every member lies within sqrt(2L*n*N) of a
    member x in the base tile (see _near_lists), so the lists are among
    those of the base code and its translates by such offsets within that
    radius of the base cube.  The base comes first, and the first list with
    a base member is reported."""
    code = c.base
    M, K, P = code.M, code.K, c.period
    thr = code.n * code.N
    r = math.sqrt(2.0 * code.L * thr) * (1.0 + 1e-6)
    bj, Q = _translates(code.points, _offsets_within(code.n, P, K, r), P, K, r)
    pts = np.vstack([code.points, Q])
    base_of = np.concatenate([np.arange(M), bj])
    lists, _ = _near_lists(pts, code.L, thr)
    # rows ascend, so a list spans tiles when it starts in the base and ends
    # in a translate
    spans = (lists[:, 0] < M) & (lists[:, -1] >= M)
    if not spans.any():
        return None, None
    row = lists[np.argmax(spans)]
    return pts[row], tuple(int(i) for i in base_of[row])


def verify_packing(c: Constellation, window_radius: float) -> PackingVerdict:
    """Check the packing property of the whole constellation.

    Every tile is a translate of the base code, so the smallest same-tile
    average squared radius is the base code's, from the near-pair clique
    listing of min_avg_subset.

    A list spanning tiles splits into a points inside one tile and L - a
    elsewhere, 1 <= a < L, and each of the a(L - a) >= L - 1 pairs across
    the split is a cross-tile pair at distance at least D, the smallest
    distance between points of different tiles.  Since
    L*avg = (1/L) * sum_{i<j} |x_i - x_j|^2, every cross-tile list has

        avg >= (L-1)/L^2 * D^2 = 4(L-1)/L^2 * min_cross_half_dist_sq,

    and every list of the constellation is certified when that exceeds n*N.
    D is the lattice minimum of _min_cross_sq, taken over the base points
    and their translates, so it is at most the minimum of any finite window
    and the certificate covers every window.  Otherwise the exact fallback,
    _cross_tile_list, lists the L-subsets with average squared radius
    <= n*N among the base code and its translates within sqrt(2L*n*N) of
    the base cube, and reports the first that has a base member and spans
    tiles.

    ``window_radius`` only sizes the counts window_points and
    same_tile_lists, taken tile by tile from a KD-tree of the base code
    without listing the window.  Raises ValueError unless
    0 <= window_radius < inf.
    """
    code = c.base
    L = code.L
    thr = code.n * code.N
    tree = cKDTree(code.points)
    window_points = same_tile_lists = 0
    for block in _tile_blocks(c, np.zeros(code.n), window_radius):
        # x + t*period lies in the window when x is within its radius of -t*period
        centres = -(block.astype(float) * c.period)
        counts = tree.query_ball_point(centres, window_radius, return_length=True)
        sizes, tiles = np.unique(counts, return_counts=True)
        window_points += int(counts.sum())
        same_tile_lists += sum(math.comb(int(m), L) * int(k) for m, k in zip(sizes, tiles))
    min_avg, subset = _min_list(code.points, L)
    min_cross_half = _min_cross_sq(c) / 4.0

    violation, indices = None, None
    if min_avg <= thr:
        violation, indices = code.points[list(subset)], subset
    elif 4 * (L - 1) * min_cross_half <= L * L * thr:
        violation, indices = _cross_tile_list(c)
    return PackingVerdict(
        passed=violation is None,
        threshold=thr,
        window_points=window_points,
        same_tile_lists=same_tile_lists,
        min_avg_radius_sq=min_avg,
        min_cross_half_dist_sq=min_cross_half,
        violation=violation,
        violation_base_indices=indices,
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
        y = rng.standard_normal(size=(m, n))
        u = rng.random(size=m)
        norms = np.sqrt(np.einsum("ij,ij->i", y, y))
        np.maximum(norms, 1e-300, out=norms)
        y *= (R * u ** (1.0 / n) / norms)[:, None]
        t = y / period
        np.round(t, out=t)
        t *= period
        y -= t
        yield y


def _registrations(pts, corner, h, strides):
    """The (cell id, row of ``pts``) pairs of a cell index of side h, sorted
    by cell id, each cell's rows ascending.

    A point x is registered in its own cell and in those of the 3^n - 1
    around it whose box lies within h of x: from x the box of the cell one
    step down on axis i is low_i = x_i - (cell's lower face) away, and one
    step up h - low_i.
    """
    steps = np.array(list(itertools.product((-1, 0, 1), repeat=pts.shape[1])))
    # the corner lies h below every point, but rounding can put a point in
    # cell 0; from cell 1 every neighbour lies inside the box
    cell = np.maximum(((pts - corner) / h).astype(np.intp), 1)
    low = pts - (corner + cell * h)
    point, step = np.nonzero((low**2) @ (steps < 0).T + ((h - low) ** 2) @ (steps > 0).T <= h * h)
    ids = (cell @ strides)[point] + (steps @ strides)[step]
    order = np.argsort(ids, kind="stable")
    return ids[order], point[order]


class _CellIndex:
    """Cells of side h over a box, each listing the points that can lie
    within h of it (_registrations), so every point within r < h of a
    sample y is among the candidates of y's cell, with a margin of h - r
    against rounding.

    The lists are CSR over the occupied cells.  A cell's slot (0 when it is
    empty) takes the narrowest unsigned type that numbers them: two bytes
    per cell while fewer than 65536 cells are occupied.
    """

    def __init__(self, pts, corner, h, shape):
        self.pts, self.corner, self.h = pts, corner, h
        self.strides = np.array([math.prod(shape[j + 1 :]) for j in range(len(shape))], dtype=np.intp)
        ids, self.members = _registrations(pts, corner, h, self.strides)
        first = np.flatnonzero(np.diff(ids, prepend=-1))
        # slot j >= 1 lists members[bounds[j]:bounds[j + 1]], slot 0 none
        self.bounds = np.concatenate([[0], first, [len(ids)]])
        self.slots = np.zeros(math.prod(shape), dtype=np.min_scalar_type(len(first)))
        self.slots[ids[first]] = np.arange(1, len(first) + 1)

    def min_sq(self, y):
        """The smallest |y - x|^2 over each sample's candidates (inf when
        its cell has none)."""
        slot = self.slots[((y - self.corner) / self.h).astype(np.intp) @ self.strides]
        hit = np.flatnonzero(slot)
        out = np.full(len(y), np.inf)
        if not len(hit):
            return out
        slot = slot[hit].astype(np.intp)  # slot + 1 must not wrap
        begin = self.bounds[slot]
        cnt = self.bounds[slot + 1] - begin
        seg = np.cumsum(cnt) - cnt
        k = np.repeat(begin - seg, cnt) + np.arange(seg[-1] + cnt[-1])
        d = np.repeat(y[hit], cnt, axis=0) - self.pts[self.members[k]]
        out[hit] = np.minimum.reduceat(np.einsum("ij,ij->i", d, d), seg)
        return out


def _cell_index(pts, r, half):
    """The _CellIndex of side h = r*(1 + 1e-6) over ``pts`` and the cell
    [-half, half]^n, or None when its cells number more than WINDOW_BUDGET.
    A spare cell on each side holds the samples that rounding in the fold
    leaves just outside the cell."""
    h = r * (1.0 + 1e-6)
    corner = np.minimum(pts.min(axis=0), -half) - h
    shape = ((np.maximum(pts.max(axis=0), half) - corner) / h).astype(np.intp) + 2
    if math.prod(shape.astype(float)) > WINDOW_BUDGET:
        return None
    return _CellIndex(pts, corner, h, shape)


def _covered(y, tree, index, r):
    """Which samples y lie within r of a point of ``tree``: from the index
    where its smallest squared distance lies outside a relative 1e-12 of
    r^2, from the tree (as dmin <= r) inside that band and when there is no
    index."""
    h = r * (1.0 + 1e-6)
    if index is None:
        # samples with no point within the bound come back at distance inf
        return tree.query(y, k=1, distance_upper_bound=h)[0] <= r
    d2 = index.min_sq(y)
    out = d2 < r * r * (1.0 - 1e-12)
    tie = np.flatnonzero(~out & (d2 <= r * r * (1.0 + 1e-12)))
    if len(tie):
        out[tie] = tree.query(y[tie], k=1, distance_upper_bound=h)[0] <= r
    return out


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
    WINDOW_BUDGET, a cell index (_CellIndex) decides most samples.  A sample
    y within r of a point x has |y_i - x_i| <= r < h, so x is a candidate of
    y's cell, and the smallest |y - x|^2 over the candidates decides y
    outright unless it lies within a relative 1e-12 of r^2.  A KD-tree of
    the kept points decides the samples in that band, and every sample when
    there is no index (at n >= 6 near the threshold density, or a single
    axis too long for the budget).  The tree's squared distance differs from
    the index's only in summation order, about n*eps relative, so the count
    equals that of querying the tree for every sample.
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
    index = _cell_index(pts, r_cov, c.period / 2.0)
    covered = 0
    for y in _cell_samples(n, c.period, math.sqrt(n * P), mc_samples, seed):
        covered += int(_covered(y, tree, index, r_cov).sum())

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
