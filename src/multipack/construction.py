"""Random cube codes, expurgation, tiling, and packing verification.

The pipeline samples M uniform points in [-K, K]^n at the density threshold
rate, removes points greedily until no L-subset has average squared radius
at or below n*N, wraps the survivor set into a periodic constellation with a
guard gap, and verifies the packing property of the whole periodic
constellation from the base code and its translates.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .bounds import ExponentQuery, ball_log_volume_rate_finite, log_threshold_size
from .errors import BudgetError
from .rng import _clopper_pearson, check_count, check_positive, check_seed, chunk_rngs, chunk_sum

SUBSET_BUDGET = 10**8  # candidate lists
# a code's points, the rows one axis step of the translate walk keeps, and
# the cell index's cells and table entries
WINDOW_BUDGET = 10**7


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

    period = 2K + 2*gap with 0 <= gap < inf, so distinct tiles are
    separated by at least 2*gap in some coordinate; at gap 0 the code lies
    on the torus of period 2K.  When the period is at most sqrt(2L*n*N)
    (2K at gap 0), a point and its own translate can lie in one list:
    verify_packing lists it like any other and reports that base index
    twice.
    """

    base: FiniteCode
    gap: float

    def __post_init__(self):
        object.__setattr__(self, "gap", check_positive("gap", self.gap, zero=True))

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
        <= threshold, decided by listing them (see verify_packing).
    threshold: n*N.
    window_points: constellation points within window_radius of the origin.
    same_tile_lists: sum over the window's tiles of C(points in the tile, L).
        These two counts are not used by the verdict; they are kept for the
        benchmark's checks until it stops comparing them with
        enumerate_window.
    min_avg_radius_sq: average squared radius of the reported list (inf on
        a pass).
    min_cross_half_dist_sq: a quarter of the smallest squared distance
        between points of different tiles, read off the listing's pairs:
        inf beyond its radius sqrt(2L*n*N)*(1 + 1e-6), past which no list
        with average squared radius <= n*N holds a pair.
    violation: the points of the violating list of smallest average squared
        radius, None on a pass, as a translate with its first member in the
        base tile; a same-tile list is reported in the base tile.
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
    delta_hat: float
    mc_samples: int
    covered: int
    delta_ci_low: float
    delta_ci_high: float
    predicted_delta: float


def sample_code(n, L, N, K, rate_margin, seed, M=None) -> FiniteCode:
    """Uniform code at the expurgation-threshold density, backed off by
    exp(n * rate_margin).

    M defaults to round(lambda_n * e^(n*margin) * (2K)^n), taken from its
    log, bounds.log_threshold_size; pass M explicitly to override.  Refuses
    an M above WINDOW_BUDGET points before anything is drawn: a computed one
    by its log, before it is exponentiated, so no size can overflow.
    """
    n, L = check_count("n", n, 1), check_count("L", L, 2)
    N, K = check_positive("N", N), check_positive("K", K)
    if not rate_margin <= 0:
        raise ValueError(f"rate_margin must be <= 0, got {rate_margin}")
    seed = check_seed(seed)
    if M is None:
        log_size = log_threshold_size(ExponentQuery(N=N, L=L, K=K), n, rate_margin)
        # a size within 1 of the budget is left to the exact check on M below
        if log_size > math.log(WINDOW_BUDGET + 1):
            raise BudgetError(f"M = e^{log_size:.6g} points exceeds the {WINDOW_BUDGET:.0e} point budget; pass a smaller explicit M")
        M = round(math.exp(log_size))
        if M < 1:
            raise ValueError(f"computed code size rounds to {M}; relax rate_margin or parameters")
    else:
        M = check_count("M", M, 1)
    if M > WINDOW_BUDGET:
        raise BudgetError(f"M = {M} points exceeds the {WINDOW_BUDGET:.0e} point budget; pass a smaller explicit M")
    pts = next(chunk_rngs(seed, (0,))).uniform(-K, K, size=(M, n))
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


def _pair_radius(L, t):
    """sqrt(2L*t) with a margin against rounding: _near_lists' pair radius."""
    return math.sqrt(2.0 * L * t) * (1.0 + 1e-6)


def _cover_radius(r):
    """h = r*(1 + 1e-6): the noise radius r with the coverage tests' margin."""
    return r * (1.0 + 1e-6)


def _check_subset_budget(candidates, M):
    if candidates > SUBSET_BUDGET:
        raise BudgetError(f"{candidates} candidate cliques of {M} points exceed the {SUBSET_BUDGET:.0e} subset budget")


def _near_lists(points, L, t, roots=None):
    """Every L-subset of ``points`` with average squared radius <= t (that
    starts below ``roots``, if given), as index rows in lexicographic order,
    with their average squared radii and the near-pair graph: every pair
    i < j within _pair_radius(L, t), in order.

    A list with average squared radius <= t has every pair at
    d^2 <= 2L*t, since L*avg = sum_i |x_i - c|^2 >= |x_i - c|^2 + |x_j - c|^2
    >= d^2/2.  So the lists are among the L-cliques of the near-pair graph
    at that radius.  Each clique is grown from its lowest vertex along
    forward edges i < j, as in the ordered clique listing of Chiba &
    Nishizeki (1985); index order makes the output lexicographic without a
    sort, and fewer than L points grow none; only the prefix of pairs that
    start below ``roots`` grows.  The exact average radius then filters the
    cliques.  Refuses inputs whose candidate cliques exceed SUBSET_BUDGET:
    every pair, counted before any list is formed, then each grown clique.
    """
    from scipy.spatial import cKDTree

    M = len(points)
    pairs = cKDTree(points).query_pairs(_pair_radius(L, t), output_type="ndarray").astype(np.intp)
    candidates = len(pairs)
    _check_subset_budget(candidates, M)
    pairs = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
    starts = np.searchsorted(pairs[:, 0], np.arange(M + 1))
    keys = pairs[:, 0] * M + pairs[:, 1]
    lists = pairs if roots is None else pairs[: starts[roots]]
    for k in range(2, L):
        last = lists[:, -1]
        deg = starts[last + 1] - starts[last]
        candidates += int(deg.sum())
        _check_subset_budget(candidates, M)
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
    return lists[keep], avg[keep], pairs


def _min_list(points, L):
    """Smallest average squared radius over the L-subsets of ``points`` and the
    lexicographically first subset attaining it.

    Each point with its L-1 nearest neighbours is an L-subset, so the smallest
    of their radii is an upper bound t on the minimum, and _near_lists at t
    holds the minimiser."""
    from scipy.spatial import cKDTree

    if len(points) < L:
        return math.inf, None
    _, nn = cKDTree(points).query(points, k=L)
    t = float(_avg_sq_radii(points, np.sort(nn, axis=1)).min())
    lists, avg, _ = _near_lists(points, L, t)
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
    lists, _, _ = _near_lists(code.points, code.L, code.n * code.N)
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
    output of find_bad_lists(code).  A lazy max-heap keyed by (-count,
    index) holds one entry per point; counts only fall, so an entry whose
    count is stale is pushed back with its current count, and the first
    current entry popped is the greedy pick.  Each removal visits only the
    lists through the removed point, so the cost is near-linear in the
    total list size.
    """
    if not bad:
        return code
    lists = [frozenset(t) for t in bad]
    incidence: dict[int, list[int]] = {}
    for k, s in enumerate(lists):
        for i in s:
            incidence.setdefault(i, []).append(k)
    counts = {i: len(ks) for i, ks in incidence.items()}
    heap = [(-c, i) for i, c in counts.items()]
    heapq.heapify(heap)
    alive = [True] * len(lists)
    surviving = len(lists)
    removed = []
    while surviving:
        negc, pick = heapq.heappop(heap)
        if -negc != counts[pick]:
            if counts[pick]:
                heapq.heappush(heap, (-counts[pick], pick))
            continue
        removed.append(pick)
        for k in incidence[pick]:
            if alive[k]:
                alive[k] = False
                surviving -= 1
                for i in lists[k]:
                    counts[i] -= 1
    keep = np.ones(code.M, dtype=bool)
    keep[removed] = False
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


def tile(code: FiniteCode) -> Constellation:
    """Wrap a finite code into a periodic constellation with a guard gap of
    1.01 times the minimum gap.

    Distinct tiles lie at least D = 2*gap apart.  A list spanning tiles
    splits into a members in one tile and L - a elsewhere, 1 <= a < L, and
    each of the a(L - a) >= L - 1 pairs across the split lies at distance
    at least D; since L*avg = (1/L) * sum_{i<j} |x_i - x_j|^2, it has
    average squared radius at least (L-1)/L^2 * D^2.  That exceeds n*N
    exactly when gap > L/(2*sqrt(L-1)) * sqrt(n*N), the minimum gap; it
    equals sqrt(n*N) at L = 2.  So a code with no same-tile bad list tiles
    into a packing at any gap above the minimum: this is the construction's
    guarantee, not a condition of the verdict, for verify_packing lists
    every list whatever the gap (at the minimum itself a cross-tile list
    can reach n*N).  Constellation(code, gap) tiles at any other gap.
    """
    g_min = code.L / (2.0 * math.sqrt(code.L - 1)) * math.sqrt(code.n * code.N)
    return Constellation(base=code, gap=1.01 * g_min)


def _near_points(X, period, r, half, center=None, one_sign=False):
    """The translates y = x + k*period of the rows x of X (M by n) within r
    of the box center + [-half, half]^n (the origin by default), sum_i
    (|y_i - c_i| - half)_+^2 <= r^2, tile by tile in lexicographic order of
    k, each tile's in row order, with the row of x; with ``one_sign`` only
    the k whose first nonzero entry is positive (one of k and -k, about a
    zero centre).  X is a base code's points, or one point at the origin,
    whose translates are the tile offsets k*period themselves.

    From every row k grows one axis at a time while that sum over
    the walked axes is within r^2*(1 + 1e-9); a step lists its rows value
    by value, so equal prefixes keep base order, and after the exact sum a
    stable lexsort on k gives tile order.  Raises ValueError unless 0 <= r
    < inf and the centre is finite, and BudgetError when an axis step keeps
    more than WINDOW_BUDGET rows (at half >= K, most at the last: the kept)."""
    (M, n), P = X.shape, period
    center = np.zeros(n) if center is None else np.asarray(center, dtype=float).reshape(n)
    if not 0.0 <= r < math.inf or not np.isfinite(center).all():
        raise ValueError(f"window needs a finite centre and a radius in [0, inf), got radius {r!r}")
    rows, reach, steps = np.arange(M), np.zeros(M), []
    # under one_sign, which rows' offsets are still all zero
    zero = np.ones(M, dtype=bool) if one_sign else np.False_
    # the points' coordinate range on each axis (with 0, for an empty code)
    tops, bottoms = X.max(axis=0, initial=0.0).tolist(), X.min(axis=0, initial=0.0).tolist()
    for i, ci in enumerate(center.tolist()):
        xi = X[rows, i]
        lo = math.ceil((ci - half - r - tops[i]) / P)
        values = np.arange(lo, math.floor((ci + half + r - bottoms[i]) / P) + 1)
        # one row per value, one column per walked row
        d = np.maximum(np.abs((values * P)[:, None] + xi - ci) - half, 0.0) ** 2 + reach
        keep = d <= r * r * (1.0 + 1e-9)
        # a prefix still zero takes no negative entry
        keep[: max(-lo, 0)] &= ~zero
        j, a = np.nonzero(keep)
        if len(a) > WINDOW_BUDGET:
            raise BudgetError(f"{len(a)} translates within reach on {i + 1} of {n} axes exceed the {WINDOW_BUDGET} point window budget")
        steps.append((a, values[j]))
        rows, reach = rows[a], d[j, a]
        if one_sign:
            zero = zero[a] & (steps[-1][1] == 0)
    k, at = np.empty((len(rows), n), dtype=np.intp), np.arange(len(rows))
    for i, (a, v) in reversed(list(enumerate(steps))):
        k[:, i], at = v[at], a[at]
    Y = X[rows] + k * P
    e = np.maximum(np.abs(Y - center) - half, 0.0)
    ok = (np.einsum("ij,ij->i", e, e) <= r * r) & ~zero
    order = np.flatnonzero(ok)[np.lexsort(k[ok].T[::-1])]
    return rows[order], Y[order]


def enumerate_window(c: Constellation, center, radius: float) -> np.ndarray:
    """All constellation points within the closed ball (center, radius),
    tile by tile in lexicographic tile order, each tile's in base order:
    _near_points of the base points at the period and half = 0, with its
    ValueError and BudgetError."""
    return _near_points(c.base.points, c.period, radius, 0.0, center)[1]


def verify_packing(c: Constellation, window_radius: float) -> PackingVerdict:
    """Check the packing property of the whole constellation: no L-subset
    has average squared radius <= n*N.

    Every tile is a translate of the base code, so every list of the
    constellation has a translate whose lexicographically smallest tile is
    the base tile: a member x in the base tile, the others in tiles k whose
    first nonzero coordinate is positive.  Every pair of a list with
    average squared radius <= n*N lies at squared distance <= 2L*n*N (see
    _near_lists), so every member y has

        |y - x| <= sqrt(2L*n*N),

    and lies within that radius of the base cube.  The violating lists are
    therefore, up to translation, exactly the rows of one _near_lists call
    at n*N over the base code and its translates by such offsets within
    the pair radius _pair_radius(L, n*N) of the base cube (_near_points at
    half = K, one sign), the base first, grown from the base rows alone
    (roots = M: the budget counts every pair, then only rooted cliques).
    The constellation passes when there is none.  Otherwise the row of
    smallest average squared radius is reported, the lexicographically
    first on ties: a same-tile list is reported as base points, bit for bit.

    min_cross_half_dist_sq is read off the same listing's near-pair graph:
    up to translation, a cross-tile pair within the pair radius is a pair
    of the graph joining a base row to a translate row.

    ``window_radius`` only sizes window_points and same_tile_lists, taken
    from a KD-tree of the base code for each tile whose cube reaches the
    window (_near_points of the array np.zeros((1, n)) at half = K), without
    listing it.  Raises ValueError and BudgetError as _near_points does.
    """
    from scipy.spatial import cKDTree

    code = c.base
    M, L, K, P = code.M, code.L, code.K, c.period
    thr = code.n * code.N
    # one point at the origin walks the tiles whose cube reaches the window
    _, centres = _near_points(np.zeros((1, code.n)), P, window_radius, K)
    # x + k*period lies in the window when x is within its radius of -k*period
    counts = cKDTree(code.points).query_ball_point(-centres, window_radius, return_length=True)
    sizes, repeats = np.unique(counts, return_counts=True)
    window_points = int(counts.sum())
    same_tile_lists = sum(math.comb(int(m), L) * int(k) for m, k in zip(sizes, repeats))

    r = _pair_radius(L, thr)
    bj, Q = _near_points(code.points, P, r, K, one_sign=True)
    pts = np.vstack([code.points, Q])
    lists, avg, pairs = _near_lists(pts, L, thr, roots=M)
    # a pair's average squared radius is a quarter of its squared distance
    cross = _avg_sq_radii(pts, pairs[(pairs[:, 0] < M) & (pairs[:, 1] >= M)])
    cross = cross[cross <= r * r / 4.0]

    violation, indices, min_avg = None, None, math.inf
    if len(lists):
        i = np.argmin(avg)
        violation, min_avg = pts[lists[i]], float(avg[i])
        indices = tuple(int(b) for b in np.concatenate([np.arange(M), bj])[lists[i]])
    return PackingVerdict(
        passed=violation is None,
        threshold=thr,
        window_points=window_points,
        same_tile_lists=same_tile_lists,
        min_avg_radius_sq=min_avg,
        min_cross_half_dist_sq=float(cross.min()) if len(cross) else math.inf,
        violation=violation,
        violation_base_indices=indices,
    )


def _cell_samples(rng, m, n, period, R):
    """m uniform samples of the ball of radius R, drawn from ``rng``, folded
    into the cell [-period/2, period/2]^n."""
    y = rng.standard_normal(size=(m, n))
    u = rng.random(size=m)
    norms = np.sqrt(np.einsum("ij,ij->i", y, y))
    np.maximum(norms, 1e-300, out=norms)
    y *= (R * u ** (1.0 / n) / norms)[:, None]
    t = y / period
    np.round(t, out=t)
    t *= period
    y -= t
    return y


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

    The lists form a padded candidate table, stored column by column: row
    j >= 1 lists the j-th occupied cell's points, row 0 none, and every row
    is as wide as the widest cell, padded with a point at infinity.  Its
    entries take the narrowest unsigned type that numbers the points and the
    pad, and a cell's slot (its row, 0 when it is empty) the narrowest that
    numbers the rows: two bytes each while there are fewer than 65536.
    """

    def __init__(self, corner, h, strides, coords, table, slots):
        self.corner, self.h, self.strides = corner, h, strides
        self.coords, self.table, self.slots = coords, table, slots

    def min_sq(self, y):
        """The smallest |y - x|^2 over each sample's candidates (inf when
        its cell has none).  Only the samples in occupied cells are kept,
        with one contiguous row per axis, and their candidates are reduced
        one table column at a time.  A cell id is a dot product of integers
        below 2^53, exact in floats; the cell of y may differ from that of
        (y - corner)/h by rounding, which the margin h - r absorbs."""
        t = y * (1.0 / self.h)
        t -= self.corner / self.h
        np.floor(t, out=t)
        slot = self.slots[(t @ self.strides).astype(np.intp)]
        hit = np.flatnonzero(slot != 0)
        out = np.full(len(y), np.inf)
        if not len(hit):
            return out
        slot = slot[hit].astype(np.intp)
        yh = y.take(hit, axis=0).T.copy()
        best = np.full(len(hit), np.inf)
        for col in self.table:
            d = self.coords.take(col.take(slot), axis=1)
            d -= yh
            d *= d
            np.minimum(best, np.add.reduce(d, axis=0), out=best)
        out[hit] = best
        return out


def _cell_index(pts, r, half):
    """The _CellIndex of side h = r*(1 + 1e-6) over ``pts`` and the cell
    [-half, half]^n, or None when its cells, or the entries of its candidate
    table, number more than WINDOW_BUDGET.  The box starts at one corner on
    every axis, with a spare cell on each side for the samples that rounding
    in the fold leaves just outside the cell."""
    h = _cover_radius(r)
    corner = min(float(pts.min()), -half) - h
    shape = ((np.maximum(pts.max(axis=0), half) - corner) / h).astype(np.intp) + 2
    if math.prod(shape.astype(float)) > WINDOW_BUDGET:
        return None
    strides = np.array([math.prod(shape[j + 1 :]) for j in range(len(shape))], dtype=np.intp)
    ids, members = _registrations(pts, corner, h, strides)
    first = np.flatnonzero(np.diff(ids, prepend=-1))
    count = np.diff(first, append=len(ids))
    if (len(first) + 1) * int(count.max()) > WINDOW_BUDGET:
        return None
    # filled column by column from narrow members; no array as long as the
    # registrations outlives it, so none lives beside the slots
    cells = ids[first]
    members = members.astype(np.min_scalar_type(len(pts)))
    table = np.full((count.max(), len(cells) + 1), len(pts), dtype=members.dtype)
    for j, col in enumerate(table):
        has = count > j
        col[1:][has] = members[first[has] + j]
    del ids, members, first, count
    slots = np.zeros(math.prod(shape), dtype=np.min_scalar_type(len(cells)))
    slots[cells] = np.arange(1, len(cells) + 1, dtype=slots.dtype)
    # one contiguous row per axis, the pad point last
    coords = np.vstack([pts, np.full(pts.shape[1], np.inf)]).T.copy()
    return _CellIndex(corner, h, strides.astype(float), coords, table, slots)


def _covered(y, tree, index, r):
    """Which samples y lie within r of a point of ``tree()``: from the index
    where its smallest squared distance lies outside a relative 1e-12 of
    r^2, from the tree (as dmin <= r) inside that band and when there is no
    index.  ``tree`` builds the KD-tree on its first call."""
    h = _cover_radius(r)
    if index is None:
        # samples with no point within the bound come back at distance inf
        return tree().query(y, k=1, distance_upper_bound=h)[0] <= r
    d2 = index.min_sq(y)
    out = d2 < r * r * (1.0 - 1e-12)
    tie = np.flatnonzero(~out & (d2 <= r * r * (1.0 + 1e-12)))
    if len(tie):
        out[tie] = tree().query(y[tie], k=1, distance_upper_bound=h)[0] <= r
    return out


def density_report(c: Constellation, P: float, mc_samples: int, seed) -> DensityReport:
    """Monte Carlo estimate of the log fraction of space covered by noise
    balls of radius r = sqrt(n*N) around the constellation.

    Samples uniformly from the ball of radius sqrt(n*P), folds each sample
    into the cell [-period/2, period/2]^n, and tests coverage against the
    points of the constellation within h = _cover_radius(r) of the cell:
    _near_points at half = period/2 and radius h, with k and -k both and
    k = 0 for the base.  Each nonzero coordinate of k costs at least
    (period/2 - K)^2 = gap^2, so only the base is kept for any gap above h,
    as tile() gives, and the 2n face translates at gap = r.  The walk's
    rows only grow here, so it refuses kept points past WINDOW_BUDGET.

    When the cells of side h over all n axes fit in WINDOW_BUDGET, a cell
    index (_CellIndex) decides most samples.  A sample y within r of a point
    x has |y_i - x_i| <= r < h, so x is a candidate of y's cell, and the
    smallest |y - x|^2 over the candidates decides y outright unless it lies
    within a relative 1e-12 of r^2.  A KD-tree of the kept points, built when
    first needed, decides the samples in that band, and every sample when
    there is no index (at n >= 6 near the threshold density, a single axis
    too long for the budget, or a candidate table wider than it).  The tree's
    squared distance differs from the index's only in summation order, about
    n*eps relative, so the count equals that of querying the tree for every
    sample.  rng.chunk_sum splits the chunks over the workers
    MULTIPACK_THREADS sets (one when it is unset, all cores at 0), with the
    same count; with no index the tree is built once, before they start.

    The fold's rounding grows with R = sqrt(n*P), which bounds P.  With
    u = 2^-53, every coordinate of a sample is at most R*(1 + (n/2 + 3)*u)
    in magnitude: R times the uniform's root, at most 1, rounds to at most
    R, and the computed norm is at least |y|*(1 - gamma_n)^(1/2)*(1 - u)
    (numpy's normal draws are 0 or far above 1e-150, so no square
    underflows).  Folding y_i to y_i - round(y_i/period)*period, with each
    step rounded, moves round() by the quotient's error, at most
    u*|y_i|/period cells, adds the product's u*(|y_i| + period/2)*(1 + u)
    and the difference's u times the result, so for n below 10^6 every
    folded coordinate lies within u*(2.01*R + 1.01*period) of the cell.
    The index box keeps a spare cell of side h beyond the cell on each
    axis, and a cell id is computed to within a few u times the box's at
    most WINDOW_BUDGET cells a side, far below 1e-6 of a cell.  So P is
    refused unless 2.01*R + 1.01*period <= 2^53*(1 - 1e-6)*min(h, period):
    every sample then lies within h*(1 - 1e-6) of the cell, its cell id in
    the box, and |y_i/period| below 2^53, so every sample is finite when
    there is no index.  (Past about (h - r)/(2u) the rounding exceeds the
    margin h - r of the kept points, and the count follows the samples'
    rounded positions.)  At tile()'s gap for a (3,3) code at N = 0.005,
    h = 0.122 and P may reach about 1e29; at P = 1e31 samples once fell
    0.87 outside the cell, past the box.
    """
    from scipy.spatial import cKDTree

    P = check_positive("P", P)
    mc_samples = check_count("mc_samples", mc_samples, 1)
    seed = check_seed(seed)
    code = c.base
    n = code.n
    if code.M == 0:
        raise ValueError("empty base code")
    r_cov, half = math.sqrt(n * code.N), c.period / 2.0
    h, R = _cover_radius(r_cov), math.sqrt(n * P)
    # the rounding bound of the docstring; n*P = inf gives R = inf
    reach = 2.0**53 * (1.0 - 1e-6) * min(h, c.period) - 1.01 * c.period
    if not 2.01 * R <= reach:
        raise ValueError(
            f"P must keep sqrt(n*P) at most {reach / 2.01:.6g}, where rounding in the fold stays "
            f"within the spare cell of side {h:.6g}, got {P!r}"
        )
    _, pts = _near_points(code.points, c.period, h, half)
    tree = functools.cache(lambda: cKDTree(pts))
    index = _cell_index(pts, r_cov, half)
    if index is None:
        tree()
    covered = chunk_sum(
        seed, mc_samples, lambda rng, m: int(_covered(_cell_samples(rng, m, n, c.period, R), tree, index, r_cov).sum())
    )

    lo, hi = _clopper_pearson(covered, mc_samples)
    return DensityReport(
        delta_hat=math.log(covered / mc_samples) / n if covered else -math.inf,
        mc_samples=mc_samples,
        covered=covered,
        delta_ci_low=math.log(lo) / n if lo > 0 else -math.inf,
        delta_ci_high=math.log(hi) / n,
        predicted_delta=c.nld + ball_log_volume_rate_finite(code.N, n),
    )
